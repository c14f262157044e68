//! # ata — Strassen-based multiplication of a matrix by its transpose
//!
//! A Rust reproduction of Arrigoni, Maggioli, Massini, Rodolà,
//! *“Efficiently Parallelizable Strassen-Based Multiplication of a
//! Matrix by its Transpose”* (ICPP 2021, arXiv:2110.13042), complete
//! with the substrates the paper builds on: BLAS-style kernels, a
//! workspace-arena Strassen, a task-tree scheduler, a shared-memory
//! parallel runtime and a message-passing simulator with a LogGP cost
//! model for the distributed experiments.
//!
//! ## The plan–execute API
//!
//! The entry point is the two-phase [`AtaContext`] / [`AtaPlan`] API:
//! build a context once per configuration (it owns a persistent worker
//! pool and a cache of Strassen arenas), build a plan once per problem
//! shape (it pre-computes the §4.1 task tree and workspace size), then
//! execute the plan as many times as the workload demands:
//!
//! ```
//! use ata::{AtaContext, Output};
//! use ata::mat::gen;
//! use std::num::NonZeroUsize;
//!
//! // Context: shared-memory AtA-S with 4 persistent workers.
//! let ctx = AtaContext::shared(NonZeroUsize::new(4).unwrap());
//! // Plan: built once for the 256 x 96 shape.
//! let plan = ctx.plan_with::<f64>(256, 96, Output::Gram);
//! // Execute repeatedly — no re-planning, no re-allocation.
//! for seed in 0..3 {
//!     let a = gen::standard::<f64>(seed, 256, 96);
//!     let g = plan.execute(a.as_ref()).into_dense();
//!     assert_eq!(g.shape(), (96, 96));
//!     assert!(g.is_symmetric(1e-12));
//! }
//! ```
//!
//! The [`Backend`] selector picks the engine behind the same plan API:
//! the serial Algorithm 1 ([`AtaContext::serial`]) or the shared-memory
//! AtA-S ([`AtaContext::shared`]). The simulated-cluster AtA-D keeps its
//! own plan, [`dist::DistPlan`], run on [`mpisim`]'s ranks:
//!
//! ```
//! use ata::dist::{AtaDConfig, DistPlan};
//! use ata::mpisim::{run, CostModel};
//! use ata::mat::gen;
//!
//! let a = gen::standard::<f64>(7, 48, 32);
//! // AtA-D on 4 simulated ranks; rank 0 returns the lower triangle.
//! let plan = DistPlan::build(48, 32, 4, &AtaDConfig::default());
//! let report = run(4, CostModel::zero(), |comm| {
//!     let input = (comm.rank() == 0).then_some(&a);
//!     plan.execute(input, comm).expect("fault-free universe")
//! });
//! let c = report.results[0].as_ref().expect("rank 0 holds C");
//! assert_eq!(c.shape(), (32, 32));
//! ```
//!
//! A single call goes through a context too:
//! `AtaContext::serial().gram(a)` (or [`AtaContext::lower`],
//! [`AtaContext::packed`]). Keep the context to reuse its plan cache and
//! arenas across calls.
//!
//! ## The serving layer
//!
//! Production Gram workloads rarely look like "one matrix, one call".
//! Four front-ends cover the serving shapes, all sharing the context's
//! pool and arenas; the batch and service front-ends also share its
//! shape-keyed plan cache:
//!
//! * [`stream::GramAccumulator`] — `A` arrives as row chunks
//!   (`C += Aᵢ^T Aᵢ`); a billion-row Gram never materializes `A`. It
//!   holds its own plan core at the current tall-chunk height.
//! * [`factor::FactoredGram`] — the streaming factorization tier: a
//!   live `L D Lᵀ` factor maintained alongside the accumulator by
//!   `O(n²k)` rank-k sweeps, answering `solve`/`ridge`/`logdet`/
//!   `pca_project` in `O(n²)` — submit rows, query solutions, never
//!   refactor.
//! * [`batch::BatchPlan`] — floods of small problems, executed whole,
//!   one per pool worker ([`BatchPlan::execute_batch`]).
//! * [`shard::ShardedService`] — a `Send + Sync` blocking job queue with
//!   bounded-capacity backpressure, coalescing submissions into batched
//!   dispatches per rank-shard and splitting large problems across the
//!   ranks via AtA-D — the component a server embeds. Built with
//!   `.shards(1)` it is one queue with no split lane.
//!
//! ```
//! use ata::AtaContext;
//! use ata::mat::gen;
//!
//! // Streaming: fold row chunks, never holding the full matrix.
//! let ctx = AtaContext::serial();
//! let mut acc = ctx.gram_accumulator::<f64>(16);
//! for seed in 0..4 {
//!     let chunk = gen::standard::<f64>(seed, 100, 16);
//!     acc.push(chunk.as_ref());
//! }
//! assert_eq!(acc.rows(), 400);
//! assert!(acc.finish().into_dense().is_symmetric(0.0));
//! ```
//!
//! ## Crates
//!
//! * [`core`] (`ata-core`) — Algorithm 1, AtA-S, the task trees and the
//!   flop-count analysis;
//! * [`mat`] (`ata-mat`) — matrices, views, packed symmetric storage,
//!   workload generators, op-counting scalars;
//! * [`kernels`] (`ata-kernels`) — the BLAS substitute;
//! * [`strassen`] (`ata-strassen`) — `C += alpha * A^T B` with a
//!   pre-allocated arena and the [`strassen::ArenaPool`] checkout cache;
//! * [`mpisim`] (`ata-mpisim`) and [`dist`] (`ata-dist`) — the simulated
//!   cluster, AtA-D and the distributed baselines;
//! * [`linalg`] (`ata-linalg`) — the paper's §1 applications as library
//!   code: normal-equations least squares, SVD via the Gram matrix,
//!   Gram–Schmidt orthogonalization. They take the Gram as an argument,
//!   e.g. `solve_normal_equations(a, &b, ctx.lower(a))`, so any backend
//!   computes it.

#![forbid(unsafe_code)]

pub mod batch;
pub mod clock;
pub mod context;
pub mod factor;
pub mod shard;
pub mod stream;

pub use batch::BatchPlan;
pub use clock::{Clock, ManualClock, WallClock};
pub use context::{AtaContext, AtaContextBuilder, AtaOutput, AtaPlan, Backend, Output, OwnedPlan};
pub use factor::FactoredGram;
pub use shard::{
    JobError, JobHandle, RetryPolicy, ShardStats, ShardSubmitError, ShardedService,
    ShardedServiceBuilder, ShardedStats, SplitChaos,
};
pub use stream::GramAccumulator;

/// The paper's core algorithms (`ata-core`).
pub use ata_core as core;
/// Distributed AtA-D and baselines (`ata-dist`).
pub use ata_dist as dist;
/// Exact-arithmetic scalars: rationals and GF(2^31-1) (`ata-field`).
pub use ata_field as field;
/// BLAS-substitute kernels (`ata-kernels`).
pub use ata_kernels as kernels;
/// Downstream applications: least squares, SVD, orthogonalization (`ata-linalg`).
pub use ata_linalg as linalg;
/// Matrix substrate (`ata-mat`).
pub use ata_mat as mat;
/// Message-passing simulator (`ata-mpisim`).
pub use ata_mpisim as mpisim;
/// Arena-based Strassen (`ata-strassen`).
pub use ata_strassen as strassen;

pub use ata_mat::{MatMut, MatRef, Matrix, Scalar, SymPacked};

/// Tests of the single-queue serving configuration,
/// `ShardedServiceBuilder::new(&ctx).shards(1)`: one bounded queue
/// feeds one worker and nothing splits, so every burst shares the same
/// coalescing, largest-first dispatch and backpressure.
#[cfg(test)]
mod service {
    mod tests {
        use std::num::NonZeroUsize;
        use std::sync::Arc;
        use std::time::Duration;

        use crate::mat::{gen, reference};
        use crate::{
            AtaContext, AtaOutput, JobError, JobHandle, ManualClock, Matrix, ShardSubmitError,
            ShardedService, ShardedServiceBuilder,
        };

        fn one_queue(ctx: &AtaContext) -> ShardedServiceBuilder {
            ShardedServiceBuilder::new(ctx).shards(1)
        }

        /// The job completed with `A^T A` to round-off.
        fn assert_gram(out: Result<AtaOutput<f64>, JobError>, a: &Matrix<f64>) {
            let g = out.expect("job completes").into_dense();
            assert!(g.max_abs_diff(&reference::gram(a.as_ref())) < 1e-10);
        }

        #[test]
        fn serves_a_burst_correctly() {
            let ctx = AtaContext::shared(NonZeroUsize::new(2).unwrap());
            let svc: ShardedService<f64> = one_queue(&ctx).max_batch(4).build();
            let inputs: Vec<Matrix<f64>> =
                (0..10).map(|i| gen::standard::<f64>(i, 20, 12)).collect();
            let handles: Vec<_> = inputs.iter().map(|a| svc.submit(a.clone())).collect();
            for (h, a) in handles.into_iter().zip(&inputs) {
                assert_gram(h.unwrap().wait(), a);
            }
            let stats = svc.shutdown();
            assert_eq!((stats.whole_jobs, stats.split_jobs), (10, 0));
            assert_eq!(stats.per_shard[0].jobs, 10);
            assert!(stats.per_shard[0].batches >= 3, "10 jobs / max_batch 4");
            assert_eq!(stats.expired_jobs, 0);
        }

        #[test]
        fn heterogeneous_shapes_in_one_service() {
            let svc: ShardedService<f64> = one_queue(&AtaContext::serial()).build();
            let a = gen::standard::<f64>(1, 16, 8);
            let b = gen::standard::<f64>(2, 40, 24);
            let (ha, hb) = (svc.submit(a.clone()), svc.submit(b.clone()));
            assert_gram(ha.unwrap().wait(), &a);
            assert_gram(hb.unwrap().wait(), &b);
            assert_eq!(svc.shutdown().whole_jobs, 2);
        }

        #[test]
        fn submit_from_many_threads() {
            let ctx = AtaContext::shared(NonZeroUsize::new(2).unwrap());
            let svc: Arc<ShardedService<f64>> =
                Arc::new(one_queue(&ctx).queue_capacity(16).build());
            let joins: Vec<_> = (0..4u64)
                .map(|t| {
                    let svc = svc.clone();
                    std::thread::spawn(move || {
                        for i in 0..5u64 {
                            let a = gen::standard::<f64>(t * 100 + i, 24, 10);
                            assert_gram(svc.submit(a.clone()).unwrap().wait(), &a);
                        }
                    })
                })
                .collect();
            for j in joins {
                j.join().expect("submitter");
            }
            let svc = Arc::into_inner(svc).expect("all submitters done");
            assert_eq!(svc.shutdown().whole_jobs, 20);
        }

        #[test]
        fn try_submit_backpressure_reports_full() {
            // A one-slot queue with a slow consumer: later try_submits
            // see Full until the worker drains the slot — or the worker
            // keeps pace with all 200. Either way accepted + shed == 200.
            let svc: ShardedService<f64> =
                one_queue(&AtaContext::serial()).queue_capacity(1).build();
            let mut handles = Vec::new();
            let mut shed = 0usize;
            for i in 0..200u64 {
                match svc.try_submit(gen::standard::<f64>(i, 64, 32)) {
                    Ok(h) => handles.push(h),
                    Err(ShardSubmitError::Full(a)) => {
                        shed += 1;
                        assert_eq!(a.shape(), (64, 32), "operand handed back intact");
                    }
                    Err(other) => panic!("service must be alive: {other:?}"),
                }
            }
            let accepted = handles.len();
            assert!(accepted > 0, "some jobs must get through");
            assert_eq!(accepted + shed, 200);
            for h in handles {
                assert!(h.wait().is_ok());
            }
            assert_eq!(svc.shutdown().whole_jobs, accepted);
        }

        #[test]
        fn shutdown_drains_accepted_jobs() {
            let svc: ShardedService<f64> =
                one_queue(&AtaContext::serial()).queue_capacity(32).build();
            let a = gen::standard::<f64>(7, 30, 15);
            let handles: Vec<_> = (0..8).map(|_| svc.submit(a.clone()).unwrap()).collect();
            assert_eq!(
                svc.shutdown().whole_jobs,
                8,
                "accepted jobs are served before exit"
            );
            for h in handles {
                assert!(h.wait().is_ok(), "handle answered even after shutdown");
            }
        }

        #[test]
        fn shutdown_under_full_queue_answers_every_accepted_job() {
            // Fill the bounded queue with try_submit, then shut down:
            // every accepted job is answered, and its buffered outcome
            // is still readable when waited on after shutdown.
            let svc: ShardedService<f64> =
                one_queue(&AtaContext::serial()).queue_capacity(4).build();
            let mut handles = Vec::new();
            for i in 0..64u64 {
                match svc.try_submit(gen::standard::<f64>(i, 48, 24)) {
                    Ok(h) => handles.push(h),
                    Err(ShardSubmitError::Full(_)) => {}
                    Err(other) => panic!("service must be alive: {other:?}"),
                }
            }
            assert_eq!(
                svc.shutdown().whole_jobs,
                handles.len(),
                "shutdown drains the queue"
            );
            for h in handles {
                assert!(h.wait().is_ok());
            }
        }

        #[test]
        fn zero_deadline_expires_with_typed_error() {
            let clock = Arc::new(ManualClock::new());
            let svc: ShardedService<f64> = one_queue(&AtaContext::serial()).clock(clock).build();
            // Deadline "now": already expired when the worker dequeues it.
            let h = svc.submit_with_deadline(gen::standard::<f64>(1, 32, 16), Duration::ZERO);
            assert!(matches!(h.unwrap().wait(), Err(JobError::DeadlineExceeded)));
            // A generous deadline on an un-advanced manual clock completes.
            let a = gen::standard::<f64>(2, 32, 16);
            let h = svc.submit_with_deadline(a.clone(), Duration::from_secs(60));
            assert_gram(h.unwrap().wait(), &a);
            let stats = svc.shutdown();
            assert_eq!(stats.expired_jobs, 1);
            assert_eq!(stats.whole_jobs, 1, "the expired job never executed");
        }

        #[test]
        fn wait_timeout_polls_then_delivers() {
            let svc: ShardedService<f64> = one_queue(&AtaContext::serial()).build();
            let a = gen::standard::<f64>(5, 64, 32);
            let h = svc.submit(a.clone()).unwrap();
            // A short timeout may race the worker either way; the handle
            // stays usable across None polls.
            let out = loop {
                if let Some(out) = h.wait_timeout(Duration::from_millis(10)) {
                    break out;
                }
            };
            assert_gram(out, &a);
            svc.shutdown();
        }

        #[test]
        fn largest_first_dispatch_is_bitwise_answer_preserving() {
            // Serve the same inputs one at a time (no reordering
            // possible) and as one burst the worker may coalesce and
            // sort largest-first. The sort only permutes dispatch order,
            // so every answer comes back on its own handle, bit-identical.
            let ctx = AtaContext::serial();
            let inputs: Vec<Matrix<f64>> = [(12, 6), (48, 24), (20, 10), (64, 32), (8, 4)]
                .iter()
                .enumerate()
                .map(|(i, &(m, n))| gen::standard::<f64>(i as u64, m, n))
                .collect();
            let solo: ShardedService<f64> = one_queue(&ctx).build();
            let expected: Vec<Matrix<f64>> = inputs
                .iter()
                .map(|a| solo.submit(a.clone()).unwrap().wait().unwrap().into_dense())
                .collect();
            solo.shutdown();

            let burst: ShardedService<f64> = one_queue(&ctx)
                .max_batch(inputs.len())
                .queue_capacity(inputs.len())
                .build();
            let handles: Vec<_> = inputs.iter().map(|a| burst.submit(a.clone())).collect();
            for (h, want) in handles.into_iter().zip(&expected) {
                let got = h.unwrap().wait().expect("alive").into_dense();
                assert_eq!(got.shape(), want.shape(), "answers stay on their handles");
                assert_eq!(
                    got.max_abs_diff(want),
                    0.0,
                    "reordering must be bit-identical"
                );
            }
            burst.shutdown();
        }

        #[test]
        fn service_is_send_and_sync() {
            fn assert_send_sync<X: Send + Sync>() {}
            fn assert_send<X: Send>() {}
            assert_send_sync::<ShardedService<f64>>();
            assert_send_sync::<ShardedService<f32>>();
            // A server answers on threads other than the submitter's, so
            // handles and both error types cross threads too.
            assert_send::<JobHandle<f64>>();
            assert_send_sync::<JobError>();
            assert_send_sync::<ShardSubmitError<f64>>();
        }
    }
}
