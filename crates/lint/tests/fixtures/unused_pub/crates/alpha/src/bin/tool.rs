pub fn bin_helper() {}

fn main() {
    alpha::used_by_bin();
}
