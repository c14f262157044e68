//! Ideal-cache simulation for the `ata` workspace — the measurement
//! substrate behind Proposition 3.1.
//!
//! Proposition 3.1 of Arrigoni et al. (ICPP 2021) claims that AtA's
//! cache complexity equals Strassen's,
//! `Θ(1 + n²/b + n^(log₂7) / (b√M))` in the ideal-cache model of Frigo
//! et al. (FOCS 1999). The paper proves this by induction; the
//! reproduction *measures* it:
//!
//! * [`lru::IdealCache`] — a fully-associative LRU cache with capacity
//!   `M` words and lines of `b` words (the ideal-cache machine);
//! * `mem::CachedMem` / [`mem::Region`] — simulated memory whose every
//!   access goes through the cache, plus the block-addressing mirror of
//!   the workspace's matrix views;
//! * [`algs`] — instrumented walks of naive `syrk`, RecursiveGEMM
//!   (Algorithm 2), arena-Strassen and AtA (Algorithm 1) that reproduce
//!   the real implementations' address behaviour *and* their numerics
//!   (each walker is oracle-checked, so the addressing cannot silently
//!   diverge);
//! * the `prop31` benchmark binary (in `ata-bench`) sweeps `n`, `M` and
//!   `b` and prints measured misses next to the Θ-expression.
//!
//! The headline test, `algs::tests::proposition_31_inequality_chain`,
//! checks the proof's actual sandwich — `C_S(n/2) ≤ C_AtA(n) ≤ C_S(n)`
//! — on measured counts.
//!
//! # Example
//!
//! ```
//! use ata_cachesim::{run_ata, run_naive_syrk};
//! use ata_mat::gen;
//!
//! let a = gen::standard::<f64>(1, 48, 48);
//! // Cache of 256 words (tiny), lines of 8 words.
//! let (_, ata) = run_ata(&a, 64, 256, 8);
//! let (_, naive) = run_naive_syrk(&a, 256, 8);
//! assert!(ata.misses < naive.misses, "cache-oblivious recursion wins");
//! ```

#![forbid(unsafe_code)]

pub mod algs;
pub mod lru;
pub mod mem;

pub use algs::{
    prop31_expression, run_ata, run_naive_syrk, run_recursive_gemm, run_strassen, CacheStats,
};
pub use lru::IdealCache;
pub use mem::Region;
