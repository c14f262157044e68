//! Fixture library: each item's name says who names it.

pub fn unused_anywhere() {}

pub fn used_by_beta() {}
pub fn used_by_bin() {}
pub fn used_by_test() {}
pub fn used_by_perfbench() {}

pub struct InKeptSignature;

pub fn kept_signature() -> InKeptSignature {
    InKeptSignature
}

pub struct InDeadSignature;

pub fn dead_signature() -> InDeadSignature {
    InDeadSignature
}

pub struct DeadHolder {
    pub held: InDeadField,
}

pub struct InDeadField;
impl Default for InDeadField { fn default() -> Self { InDeadField } }

// ata-lint: allow(unused-pub): fixture keep with a reason
pub fn allowed_keep() {}

// ata-lint: allow(unused-pbu): misspelt lint name
pub fn misspelt_allow() {}

/// Named only in its own crate's doctest, an outside crate to rustdoc:
///
/// ```
/// alpha::in_own_doctest();
/// ```
pub fn in_own_doctest() {}

// Named only in a plain comment: in_plain_comment()
pub fn in_plain_comment() {}

/// Named only in a block rustdoc never compiles:
///
/// ```text
/// in_text_block()
/// ```
pub fn in_text_block() {}

/// A crate-private type: its `pub fn` is neither API nor a finding.
pub(crate) struct CrateOnly;

impl CrateOnly {
    pub fn method_of_crate_only_type() {}
}
