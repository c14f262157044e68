//! Fixture facade: the product surface, exempt from `unused-pub`.

pub fn facade_only() {}

pub fn facade_entry() {
    beta::beta_uses();
}
