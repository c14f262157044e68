pub fn beta_uses() -> usize {
    alpha::used_by_beta();
    std::mem::size_of_val(&alpha::kept_signature())
}
