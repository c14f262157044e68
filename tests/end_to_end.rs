//! Cross-crate integration tests: the same input must yield the same
//! `A^T A` through every path the workspace offers — naive oracle,
//! serial AtA, shared-memory AtA-S, distributed AtA-D on the simulator,
//! and all three distributed baselines where applicable.

use std::num::NonZeroUsize;

use ata::dist::baselines::{caps_like, cosma_like, pdsyrk_like};
use ata::dist::{ata_d, AtaDConfig};
use ata::kernels::{syrk_ln, CacheConfig};
use ata::linalg::{solve_normal_equations, RidgeSolver};
use ata::mat::{gen, reference, Matrix};
use ata::mpisim::{run, CostModel};
use ata::{AtaContext, Scalar};

fn oracle_lower(a: &Matrix<f64>) -> Matrix<f64> {
    let n = a.cols();
    let mut c = Matrix::zeros(n, n);
    reference::syrk_ln(1.0, a.as_ref(), &mut c.as_mut());
    c
}

#[test]
fn every_algorithm_agrees_on_one_input() {
    let (m, n) = (96usize, 80usize);
    let a = gen::standard::<f64>(123, m, n);
    let reference_c = oracle_lower(&a);
    let tol = ata::mat::ops::product_tol::<f64>(m, n, m as f64);

    // Serial, small base case to force deep recursion.
    let serial = AtaContext::builder()
        .cache_words(32)
        .build()
        .lower(a.as_ref());
    assert!(serial.max_abs_diff_lower(&reference_c) <= tol, "serial");

    // Shared-memory, several thread counts.
    for threads in [2usize, 5, 16] {
        let par = AtaContext::builder()
            .threads(NonZeroUsize::new(threads).unwrap())
            .cache_words(32)
            .build()
            .lower(a.as_ref());
        assert!(
            par.max_abs_diff_lower(&reference_c) <= tol,
            "AtA-S P={threads}"
        );
    }

    // Distributed on the simulator.
    for ranks in [3usize, 8, 16] {
        let cfg = AtaDConfig {
            alpha: 0.5,
            cache: CacheConfig::with_words(64),
            strassen_leaves: true,
            threads_per_rank: 1,
            ..AtaDConfig::default()
        };
        let a_ref = &a;
        let report = run(ranks, CostModel::zero(), move |comm| {
            let input = if comm.rank() == 0 { Some(a_ref) } else { None };
            ata_d(input, m, n, comm, &cfg)
        });
        let c = report.results[0].as_ref().expect("root");
        assert!(c.max_abs_diff_lower(&reference_c) <= tol, "AtA-D P={ranks}");
    }
}

#[test]
fn baselines_agree_with_oracle_end_to_end() {
    let (m, n) = (64usize, 64usize);
    let a = gen::standard::<f64>(321, m, n);
    let reference_c = oracle_lower(&a);

    // pdsyrk-like.
    let a_ref = &a;
    let report = run(8, CostModel::zero(), move |comm| {
        let input = if comm.rank() == 0 { Some(a_ref) } else { None };
        pdsyrk_like(input, m, n, comm)
    });
    let c = report.results[0].as_ref().expect("root");
    assert!(c.max_abs_diff_lower(&reference_c) < 1e-9, "pdsyrk-like");

    // cosma-like computes the full A^T A (as A^T B with B = A).
    let a_ref = &a;
    let report = run(8, CostModel::zero(), move |comm| {
        let (ia, ib) = if comm.rank() == 0 {
            (Some(a_ref), Some(a_ref))
        } else {
            (None, None)
        };
        cosma_like(ia, ib, m, n, n, comm)
    });
    let c = report.results[0].as_ref().expect("root");
    let mut full_ref = reference_c.clone();
    full_ref.mirror_lower_to_upper();
    assert!(c.max_abs_diff(&full_ref) < 1e-9, "cosma-like");

    // caps-like (square only).
    let cache = CacheConfig::with_words(64);
    let a_ref = &a;
    let report = run(7, CostModel::zero(), move |comm| {
        let (ia, ib) = if comm.rank() == 0 {
            (Some(a_ref), Some(a_ref))
        } else {
            (None, None)
        };
        caps_like(ia, ib, n, comm, &cache)
    });
    let c = report.results[0].as_ref().expect("root");
    assert!(c.max_abs_diff(&full_ref) < 1e-8, "caps-like");
}

#[test]
fn f32_pipeline_works_end_to_end() {
    let (m, n) = (128usize, 48usize);
    let a = gen::standard::<f32>(55, m, n);
    let g = AtaContext::builder()
        .threads(NonZeroUsize::new(4).unwrap())
        .cache_words(64)
        .build()
        .gram(a.as_ref());
    let g_ref = reference::gram(a.as_ref());
    let tol = ata::mat::ops::product_tol::<f32>(m, n, m as f64);
    assert!(g.max_abs_diff(&g_ref) <= tol);
}

#[test]
fn packed_and_full_apis_are_consistent() {
    let a = gen::standard::<f64>(77, 60, 36);
    let ctx = AtaContext::builder().cache_words(64).build();
    let full = ctx.gram(a.as_ref());
    let packed = ctx.packed(a.as_ref());
    assert_eq!(packed.order(), 36);
    assert!(packed.to_full().max_abs_diff(&full) < 1e-14);
    // Symmetric accessors agree with the full matrix in both orders.
    for (i, j) in [(0usize, 5usize), (20, 3), (35, 35), (7, 30)] {
        assert_eq!(packed.get(i, j), full[(i, j)]);
        assert_eq!(packed.get(j, i), full[(i, j)]);
    }
}

#[test]
fn exactness_on_integer_inputs_across_algorithms() {
    // {-1, 0, 1} inputs: everything is exactly representable, so all
    // algorithms must agree bit-for-bit despite different bracketings.
    let (m, n) = (48usize, 40usize);
    let a = gen::ternary::<f64>(9, m, n);
    let reference_c = oracle_lower(&a);

    let serial = AtaContext::builder()
        .cache_words(16)
        .build()
        .lower(a.as_ref());
    assert_eq!(serial.max_abs_diff_lower(&reference_c), 0.0, "serial exact");

    let par = AtaContext::builder()
        .threads(NonZeroUsize::new(8).unwrap())
        .cache_words(16)
        .build()
        .lower(a.as_ref());
    assert_eq!(par.max_abs_diff_lower(&reference_c), 0.0, "AtA-S exact");

    let cfg = AtaDConfig {
        alpha: 0.5,
        cache: CacheConfig::with_words(16),
        strassen_leaves: true,
        threads_per_rank: 1,
        ..AtaDConfig::default()
    };
    let a_ref = &a;
    let report = run(12, CostModel::zero(), move |comm| {
        let input = if comm.rank() == 0 { Some(a_ref) } else { None };
        ata_d(input, m, n, comm, &cfg)
    });
    let c = report.results[0].as_ref().expect("root");
    assert_eq!(c.max_abs_diff_lower(&reference_c), 0.0, "AtA-D exact");
}

#[test]
fn context_backends_agree_through_one_api() {
    use ata::Output;

    let (m, n) = (64usize, 48usize);
    let a = gen::standard::<f64>(2024, m, n);
    let reference_c = oracle_lower(&a);
    let tol = ata::mat::ops::product_tol::<f64>(m, n, m as f64);

    let contexts = [
        AtaContext::builder().cache_words(64).build(),
        AtaContext::builder()
            .threads(NonZeroUsize::new(4).unwrap())
            .cache_words(64)
            .build(),
    ];
    // Right-hand side for the ata-linalg consumers of each backend's Gram.
    let b: Vec<f64> = (0..m).map(|i| (i as f64 * 0.37).sin()).collect();
    let mut serial_solutions: Option<(Vec<f64>, Vec<f64>)> = None;
    for ctx in contexts {
        let backend = ctx.backend();
        let plan = ctx.plan_with::<f64>(m, n, Output::Lower);
        // Execute twice through the same plan: reuse must not drift.
        let first = plan.execute(a.as_ref()).into_dense();
        let second = plan.execute(a.as_ref()).into_dense();
        assert!(
            first.max_abs_diff_lower(&reference_c) <= tol,
            "{backend:?} disagrees with the oracle"
        );
        assert_eq!(
            first.max_abs_diff(&second),
            0.0,
            "{backend:?} is not deterministic under plan reuse"
        );

        // The linalg consumers take whichever backend's Gram they are given.
        let lstsq = solve_normal_equations(a.as_ref(), &b, first.clone()).expect("full rank");
        let ridge = RidgeSolver::new(a.as_ref(), &b, first)
            .solve(0.5)
            .expect("spd");
        let (lstsq_ref, ridge_ref) = serial_solutions.get_or_insert((lstsq.clone(), ridge.clone()));
        for (got, want) in [(&lstsq, &*lstsq_ref), (&ridge, &*ridge_ref)] {
            let diff = got
                .iter()
                .zip(want)
                .map(|(u, v)| (u - v).abs())
                .fold(0.0f64, f64::max);
            assert!(diff < 1e-9, "{backend:?} solution differs by {diff}");
        }
    }
}

#[test]
fn simulated_cluster_reports_consistent_metrics() {
    let (m, n, p) = (64usize, 64usize, 8usize);
    let a = gen::standard::<f64>(31, m, n);
    let a_ref = &a;
    let report = run(p, CostModel::terastat(), move |comm| {
        let input = if comm.rank() == 0 { Some(a_ref) } else { None };
        ata_d(input, m, n, comm, &AtaDConfig::default());
    });
    assert_eq!(report.metrics.len(), p);
    // Critical path bounds every rank's simulated time.
    let cp = report.critical_path();
    for m in &report.metrics {
        assert!(m.sim_time <= cp + 1e-15);
        assert!(m.compute_time <= m.sim_time + 1e-15);
    }
    // The root must have sent A's blocks: nonzero traffic.
    assert!(report.metrics[0].words_sent > 0);
}

#[test]
fn gram_execute_into_mirrors_the_accumulated_lower_triangle_bitwise() {
    use ata::Output;
    for (m, n) in [(70usize, 97usize), (40, 300)] {
        let a = gen::standard::<f64>(m as u64 * 7 + n as u64, m, n);
        for threads in [0usize, 2, 3] {
            let ctx = match NonZeroUsize::new(threads) {
                None => AtaContext::serial(),
                Some(t) => AtaContext::shared(t),
            };
            let plan = ctx.plan_with::<f64>(m, n, Output::Gram);
            let mut lower = Matrix::zeros(n, n);
            plan.execute_accumulate(a.as_ref(), &mut lower.as_mut());
            // Stale contents everywhere: execute_into must overwrite all.
            let mut c = gen::standard::<f64>(99, n, n);
            plan.execute_into(a.as_ref(), &mut c.as_mut());
            for i in 0..n {
                for j in 0..=i {
                    assert_eq!(
                        c[(i, j)].to_bits(),
                        lower[(i, j)].to_bits(),
                        "({m}, {n}) threads {threads}: lower ({i}, {j})"
                    );
                    assert_eq!(
                        c[(j, i)].to_bits(),
                        c[(i, j)].to_bits(),
                        "({m}, {n}) threads {threads}: mirror ({j}, {i})"
                    );
                }
            }
            let fresh = plan.execute(a.as_ref()).into_dense();
            assert_eq!(
                fresh
                    .as_slice()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                c.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "({m}, {n}) threads {threads}: execute and execute_into differ"
            );
        }
    }
}

/// Assert that serial and `shared(2..4)` Grams of one seeded `m x n`
/// input carry the same bits (through `bits`) for `Gram`, `Lower` and
/// `Packed` output, through `execute` and `execute_into`.
fn assert_split_invariant<T: Scalar>(
    contexts: &[AtaContext],
    m: usize,
    n: usize,
    bits: fn(T) -> u64,
) {
    use ata::{AtaOutput, Output};
    assert!(
        m * n <= CacheConfig::for_scalar::<T>().words,
        "{} ({m}, {n}) recurses",
        T::NAME
    );
    let bits = |v: &[T]| v.iter().map(|&x| bits(x)).collect::<Vec<_>>();
    let a = gen::standard::<T>(m as u64 * 5 + n as u64, m, n);
    for output in [Output::Gram, Output::Lower, Output::Packed] {
        let mut first = None;
        for (ctx, threads) in contexts.iter().zip([1usize, 2, 3, 4]) {
            let plan = ctx.plan_with::<T>(m, n, output);
            let fresh = match plan.execute(a.as_ref()) {
                AtaOutput::Dense(c) => bits(c.as_slice()),
                AtaOutput::Packed(p) => bits(p.as_slice()),
            };
            // Stale contents: execute_into must overwrite what it reads.
            let mut into = gen::standard::<T>(99, n, n);
            plan.execute_into(a.as_ref(), &mut into.as_mut());
            let got = (fresh, bits(into.as_slice()));
            match &first {
                None => first = Some(got),
                Some(serial) => assert!(
                    *serial == got,
                    "{} ({m}, {n}) {output:?}: {threads} threads differ from serial",
                    T::NAME
                ),
            }
        }
    }
}

#[test]
fn gram_without_a_strassen_level_does_not_depend_on_the_thread_split() {
    // Below the recursion budget a serial Gram is one `syrk_ln` call and
    // every AtA-S leaf is a packed-engine call over all rows of `A`: each
    // element is then the same chain of products whatever the split, so
    // the serial backend and every thread count give the same bits. The
    // small shapes split into leaves of a few thousand multiply-adds.
    let contexts = [0usize, 2, 3, 4].map(|threads| match NonZeroUsize::new(threads) {
        None => AtaContext::serial(),
        Some(t) => AtaContext::shared(t),
    });
    for (m, n) in [
        (300usize, 200usize),
        (777, 150),
        (401, 257),
        (129, 333),
        (40, 16),
        (30, 20),
        (100, 8),
        (64, 16),
        (16, 33),
    ] {
        assert_split_invariant::<f64>(&contexts, m, n, f64::to_bits);
    }
    assert_split_invariant::<f32>(&contexts, 200, 40, |x| u64::from(x.to_bits()));
}

/// Lower triangles of `c` and `want` carry the same bits.
fn assert_lower_bits<T: Scalar>(c: &Matrix<T>, want: &Matrix<T>, bits: fn(T) -> u64, what: &str) {
    let n = want.rows();
    for i in 0..n {
        for j in 0..=i {
            assert_eq!(
                bits(c[(i, j)]),
                bits(want[(i, j)]),
                "{} {what}: lower ({i}, {j})",
                T::NAME
            );
        }
    }
}

/// `alpha * A^T A` into a zero lower triangle by one `syrk_ln` call.
fn syrk_gram<T: Scalar>(alpha: T, a: &Matrix<T>) -> Matrix<T> {
    let n = a.cols();
    let mut c = Matrix::<T>::zeros(n, n);
    syrk_ln(alpha, a.as_ref(), &mut c.as_mut());
    c
}

#[test]
fn ata_level_with_classical_c21_products_is_bitwise_syrk_ln() {
    // At `m·n/2 + 1` words the paper's cache-fit rule (`m·n <= words`)
    // recurses once on these even shapes, into quadrant Grams and `C21`
    // products that are all leaves. The gate keeps such a level one
    // `syrk_ln` call, so this checks both that the level is bitwise
    // `syrk_ln` and that the plan gives those bits. Each leaf extends its
    // entries' chains over its half of the rows, top half first, so every
    // lower entry is the chain `syrk_ln` computes in one call.
    fn check<T: Scalar>(m: usize, n: usize, bits: fn(T) -> u64) {
        use ata::kernels::gemm_tn;
        use ata::mat::half_up;
        use ata::{AtaOutput, Output};
        let words = m * n / 2 + 1;
        let cache = CacheConfig::with_words(words);
        assert!(
            m * n > words && cache.gemm_base(m / 2, n / 2, n / 2),
            "({m}, {n}) must be one cache-fit level with classical C21 products"
        );
        let a = gen::standard::<T>(m as u64 * 3 + n as u64, m, n);
        for alpha in [T::ONE, T::NEG_ONE, T::from_f64(0.5)] {
            let want = syrk_gram(alpha, &a);
            // One level of Algorithm 1 over classical leaves: six calls.
            let n1 = half_up(n);
            let (a11, a12, a21, a22) = a.as_ref().quad_split();
            let mut level = Matrix::<T>::zeros(n, n);
            let mut c = level.as_mut();
            syrk_ln(alpha, a11, &mut c.block_mut(0, n1, 0, n1));
            syrk_ln(alpha, a21, &mut c.block_mut(0, n1, 0, n1));
            syrk_ln(alpha, a12, &mut c.block_mut(n1, n, n1, n));
            syrk_ln(alpha, a22, &mut c.block_mut(n1, n, n1, n));
            gemm_tn(alpha, a12, a11, &mut c.block_mut(n1, n, 0, n1));
            gemm_tn(alpha, a22, a21, &mut c.block_mut(n1, n, 0, n1));
            assert_lower_bits(&level, &want, bits, &format!("({m}, {n}) level"));
        }
        let ctx = AtaContext::builder().cache_words(words).build();
        let AtaOutput::Dense(c) = ctx.plan_with::<T>(m, n, Output::Lower).execute(a.as_ref())
        else {
            panic!("Lower output is dense");
        };
        let want = syrk_gram(T::ONE, &a);
        assert_lower_bits(&c, &want, bits, &format!("({m}, {n}) plan"));
    }
    for (m, n) in [
        (40, 16),
        (30, 20),
        (64, 16),
        (100, 8),
        (300, 200),
        (700, 64),
    ] {
        check::<f64>(m, n, f64::to_bits);
        check::<f32>(m, n, |x| u64::from(x.to_bits()));
    }
}

#[test]
fn tall_push_is_bitwise_the_unpadded_accumulate() {
    // A tall chunk folds at its own height: each push leaves the lower
    // triangle bitwise equal to one `execute_accumulate` of a plan of
    // that height on the same starting triangle. The heights sit just
    // past a power of two, tall at this budget but below a Strassen
    // level, and change between pushes so the held core is rebuilt.
    use ata::Output;
    fn check<T: Scalar>(bits: fn(T) -> u64) {
        let (n, cfg) = (64, CacheConfig::with_words(4096));
        let two = NonZeroUsize::new(2).unwrap();
        for (ctx, backend) in [
            (AtaContext::builder().cache(cfg).build(), "serial"),
            (
                AtaContext::builder().threads(two).cache(cfg).build(),
                "shared(2)",
            ),
        ] {
            let mut acc = ctx.gram_accumulator_with::<T>(n, Output::Lower);
            let mut want = Matrix::<T>::zeros(n, n);
            for m in [1025, 257, 513, 1025] {
                assert!(m > acc.thin_rows() && cfg.ata_base(m, n), "({m}, {n})");
                let chunk = gen::standard::<T>(m as u64, m, n);
                acc.push(chunk.as_ref());
                ctx.plan_with::<T>(m, n, Output::Lower)
                    .execute_accumulate(chunk.as_ref(), &mut want.as_mut());
                let what = format!("{backend} push of {m} rows");
                assert_lower_bits(&acc.as_lower().to_matrix(), &want, bits, &what);
            }
        }
    }
    check::<f64>(f64::to_bits);
    check::<f32>(|x| u64::from(x.to_bits()));
}

#[test]
fn tall_gram_without_a_strassen_level_is_one_syrk_ln() {
    // Tall inputs whose `C21` products are skinny: their smallest side is
    // at the square cutoff, so no Strassen level runs and AtA is one
    // `syrk_ln` call, on every backend, with no workspace and exactly
    // `syrk_ln`'s operations.
    use ata::core::serial::{ata_into_with_kind, ata_workspace_elems, StrassenKind};
    use ata::mat::tracked::{measure, Tracked};
    use ata::strassen::StrassenWorkspace;
    use ata::{AtaOutput, Output};
    const KINDS: [StrassenKind; 2] = [StrassenKind::Classic, StrassenKind::Winograd];
    fn check<T: Scalar>(m: usize, n: usize, words: usize, bits: fn(T) -> u64) {
        let cfg = CacheConfig::with_words(words);
        let a = gen::standard::<T>(m as u64 * 7 + n as u64, m, n);
        for kind in KINDS {
            assert_eq!(
                ata_workspace_elems(m, n, &cfg, kind),
                0,
                "({m}, {n}) {kind:?}"
            );
            for alpha in [T::ONE, T::NEG_ONE, T::from_f64(0.5)] {
                let mut c = Matrix::<T>::zeros(n, n);
                let mut ws = StrassenWorkspace::empty();
                ata_into_with_kind(alpha, a.as_ref(), &mut c.as_mut(), &cfg, kind, &mut ws);
                let what = format!("({m}, {n}) {kind:?}");
                assert_lower_bits(&c, &syrk_gram(alpha, &a), bits, &what);
            }
        }
        let want = syrk_gram(T::ONE, &a);
        let two = NonZeroUsize::new(2).unwrap();
        for (ctx, backend) in [
            (AtaContext::builder().cache(cfg).build(), "serial"),
            (
                AtaContext::builder().threads(two).cache(cfg).build(),
                "shared(2)",
            ),
        ] {
            let AtaOutput::Dense(c) = ctx.plan_with::<T>(m, n, Output::Lower).execute(a.as_ref())
            else {
                panic!("Lower output is dense");
            };
            assert_lower_bits(&c, &want, bits, &format!("({m}, {n}) {backend} plan"));
        }
    }
    for (m, n, words) in [(1024, 16, 128), (512, 16, 128), (4000, 24, 288)] {
        check::<f64>(m, n, words, f64::to_bits);
        check::<f32>(m, n, words, |x| u64::from(x.to_bits()));
        let cfg = CacheConfig::with_words(words);
        let a = gen::standard::<Tracked>(m as u64 + n as u64, m, n);
        let (_, want) = measure(|| syrk_gram(Tracked::ONE, &a));
        for kind in KINDS {
            let (_, got) = measure(|| {
                let mut c = Matrix::<Tracked>::zeros(n, n);
                let mut ws = StrassenWorkspace::empty();
                ata_into_with_kind(
                    Tracked::ONE,
                    a.as_ref(),
                    &mut c.as_mut(),
                    &cfg,
                    kind,
                    &mut ws,
                );
            });
            assert_eq!(
                got, want,
                "({m}, {n}) {kind:?}: ledger differs from syrk_ln's"
            );
        }
    }
}
