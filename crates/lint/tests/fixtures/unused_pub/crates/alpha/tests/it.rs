#[test]
fn it() {
    alpha::used_by_test();
}
