//! The plan–execute API: [`AtaContext`] and [`AtaPlan`].
//!
//! The paper's algorithms are built for *repeated* heavy use — Gram
//! matrices inside least squares, SVD and covariance pipelines (§1) —
//! but one-shot free functions re-pay dispatch overhead on every call:
//! thread spawn-up for AtA-S and a fresh Strassen arena for every
//! recursion. Following the BLIS-Strassen observation that amortizing
//! workspace across calls is where a practical Strassen wins or loses,
//! this module splits the API in two phases:
//!
//! 1. **Context** ([`AtaContext`]) — built once per configuration
//!    (backend, cache model, Strassen kind, wire format). Owns the
//!    persistent worker pool and a cache of reusable Strassen arenas,
//!    both shared by every plan created from it. Internally the context
//!    is an `Arc` around its resources, so cloning is cheap.
//! 2. **Plan** ([`AtaPlan`]) — built once per `(m, n)` problem shape.
//!    Resolves the backend into one executor — the serial recursion, an
//!    AtA-S task tree on the pool, or, for the simulated-dist backend,
//!    the full [`ata_dist::DistPlan`] (task tree + distribution layout) —
//!    and the exact workspace layout, so repeat executions rebuild
//!    nothing; then executes any number of times against same-shape
//!    inputs, into caller-provided output ([`AtaPlan::execute_into`]) or
//!    freshly allocated output ([`AtaPlan::execute`]). A plan holds its
//!    own context handle, so it is `'static` and [`Send`]: long-lived
//!    services move it across threads, and it outlives the handle it
//!    came from.
//!
//! The [`Backend`] enum unifies dispatch: the same plan API fronts the
//! serial recursion (Algorithm 1), the shared-memory AtA-S (Algorithm 3)
//! and the simulated-cluster AtA-D (Algorithm 4), which previously had a
//! completely disjoint entry point in `ata-dist`.
//!
//! # Example
//!
//! ```
//! use ata::{AtaContext, Output};
//! use ata::mat::gen;
//! use std::num::NonZeroUsize;
//!
//! // Context: 4 worker threads, built once.
//! let ctx = AtaContext::shared(NonZeroUsize::new(4).unwrap());
//! // Plan: one 256 x 96 problem shape, built once...
//! let plan = ctx.plan::<f64>(256, 96);
//! // ...executed many times (a serving loop) without re-planning.
//! for seed in 0..3 {
//!     let a = gen::standard::<f64>(seed, 256, 96);
//!     let g = plan.execute(a.as_ref()).into_dense();
//!     assert!(g.is_symmetric(1e-12));
//! }
//! # let _ = Output::Gram;
//! ```

use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use ata_core::serial::{ata_into_with_kind, ata_workspace_elems, StrassenKind};
use ata_core::tasktree::SharedPlan;
use ata_core::{ata_s_planned, plan_workspace_elems};
use ata_dist::{AtaDConfig, DistPlan, WireFormat};
use ata_kernels::{CacheConfig, KernelConfig};
use ata_mat::{MatMut, MatRef, Matrix, Scalar, SymPacked};
use ata_mpisim::{run, CostModel};
use ata_strassen::ArenaPool;
use rayon::prelude::*;

// ---------------------------------------------------------------------
// Backend and output selectors.
// ---------------------------------------------------------------------

/// Which execution engine a context drives — the unified dispatch over
/// the paper's three algorithm variants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Backend {
    /// Algorithm 1: the serial cache-oblivious recursion.
    Serial,
    /// AtA-S (Algorithm 3) on `threads` workers of the persistent pool.
    Shared {
        /// Worker/task count (the invariant `threads > 0` lives in the
        /// type).
        threads: NonZeroUsize,
    },
    /// AtA-D (Algorithm 4) on the simulated LogGP cluster.
    SimulatedDist {
        /// Number of simulated ranks.
        ranks: NonZeroUsize,
        /// LogGP cost model driving the simulated clocks.
        loggp: CostModel,
    },
}

/// Which representation of `C = A^T A` an execution produces — unifying
/// the historical `gram` / `lower` / `packed` entry-point triple.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Output {
    /// Full symmetric matrix (both triangles filled).
    #[default]
    Gram,
    /// Lower triangle only; strictly-upper entries are zero.
    Lower,
    /// Packed lower-triangular storage (`n(n+1)/2` elements, §3.1).
    Packed,
}

/// Result of [`AtaPlan::execute`]: dense or packed, per the plan's
/// [`Output`] selector.
#[derive(Debug, Clone)]
pub enum AtaOutput<T: Scalar> {
    /// Dense `n x n` output ([`Output::Gram`] or [`Output::Lower`]).
    Dense(Matrix<T>),
    /// Packed lower-triangular output ([`Output::Packed`]).
    Packed(SymPacked<T>),
}

impl<T: Scalar> AtaOutput<T> {
    /// Shape a lower triangle (strict upper zero) into `output`'s
    /// representation; a Gram is mirrored on the calling thread.
    pub(crate) fn from_lower(mut c: Matrix<T>, output: Output) -> Self {
        match output {
            Output::Gram => {
                c.mirror_lower_to_upper();
                AtaOutput::Dense(c)
            }
            Output::Lower => AtaOutput::Dense(c),
            Output::Packed => AtaOutput::Packed(SymPacked::from_lower(&c)),
        }
    }

    /// The output as a dense matrix; packed results are expanded (both
    /// triangles filled).
    pub fn into_dense(self) -> Matrix<T> {
        match self {
            AtaOutput::Dense(c) => c,
            AtaOutput::Packed(p) => p.to_full(),
        }
    }

    /// The output in packed storage; dense results are compacted from
    /// their lower triangle.
    pub fn into_packed(self) -> SymPacked<T> {
        match self {
            AtaOutput::Dense(c) => SymPacked::from_lower(&c),
            AtaOutput::Packed(p) => p,
        }
    }

    /// Order `n` of the (symmetric) output.
    pub fn order(&self) -> usize {
        match self {
            AtaOutput::Dense(c) => c.rows(),
            AtaOutput::Packed(p) => p.order(),
        }
    }
}

/// One execution's output and, for [`Output::Packed`], the dense
/// scratch it was compacted from (storage a caller may reuse).
pub(crate) type Executed<T> = (AtaOutput<T>, Option<Vec<T>>);

// ---------------------------------------------------------------------
// Arena cache (type-erased, shared by all plans of a context).
// ---------------------------------------------------------------------

/// Lock a mutex, recovering the guard even from a poisoned lock. The
/// maps and slots guarded in the serving layer are updated atomically
/// (insert/clone/clear), so the data is valid even if a panicking
/// thread died while holding the guard — poisoning must not cascade a
/// worker panic into every later request.
pub(crate) fn lock_recover<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Per-scalar-type [`ArenaPool`]s, keyed by `TypeId` so one context can
/// serve `f32`, `f64` and exact-arithmetic plans simultaneously.
#[derive(Debug, Default)]
struct ArenaCache {
    pools: Mutex<HashMap<TypeId, Box<dyn Any + Send>>>,
}

impl ArenaCache {
    fn pool<T: Scalar + 'static>(&self) -> Arc<ArenaPool<T>> {
        let mut map = lock_recover(&self.pools);
        map.entry(TypeId::of::<T>())
            .or_insert_with(|| Box::new(Arc::new(ArenaPool::<T>::new())))
            .downcast_ref::<Arc<ArenaPool<T>>>()
            // ata-lint: allow(no-unwrap-in-lib): entries are inserted
            // keyed by their own TypeId, so the downcast cannot fail.
            .expect("arena cache entry has the keyed type")
            .clone()
    }
}

// ---------------------------------------------------------------------
// Plan flavor and the shape-keyed plan cache.
// ---------------------------------------------------------------------

/// How a plan decomposes its problem — the second half of a plan-cache
/// key (alongside the shape and [`Output`] selector).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum PlanFlavor {
    /// Follow the context's backend (the [`AtaContext::plan`] default).
    Auto,
    /// Always the serial recursion, regardless of backend: the batched
    /// serving shape, where a whole problem is one worker's task and
    /// parallelism comes from running many problems at once (see
    /// [`crate::batch::BatchPlan`]).
    SerialLeaf,
}

/// Key of one cached plan core: scalar type, shape, output selector and
/// decomposition flavor. The context's configuration (backend, cache
/// model, Strassen kind, wire format) is immutable, so it never needs to
/// participate in the key.
type PlanKey = (TypeId, usize, usize, Output, PlanFlavor);

/// Shape-keyed cache of type-erased `Arc<PlanCore<T>>` values, plus
/// hit/miss counters. Serving workloads (the batch and service
/// front-ends, the one-shot conveniences) re-plan the same handful of
/// shapes constantly; caching the cores makes re-planning a hash lookup.
#[derive(Debug, Default)]
struct PlanCache {
    map: Mutex<HashMap<PlanKey, Box<dyn Any + Send + Sync>>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

// ---------------------------------------------------------------------
// Context.
// ---------------------------------------------------------------------

/// Builder for [`AtaContext`].
#[derive(Debug)]
pub struct AtaContextBuilder {
    backend: Backend,
    /// `None` = resolve per scalar type at planning time
    /// ([`CacheConfig::for_scalar`]), so an `f32` plan gets the
    /// `f32`-calibrated cutoff instead of inheriting the `f64` default.
    cache: Option<CacheConfig>,
    strassen: StrassenKind,
    wire: WireFormat,
}

impl Default for AtaContextBuilder {
    fn default() -> Self {
        Self {
            backend: Backend::Serial,
            cache: None,
            strassen: StrassenKind::Classic,
            wire: WireFormat::default(),
        }
    }
}

impl AtaContextBuilder {
    /// Select the execution backend.
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Shorthand for [`Backend::Shared`] with `threads` workers.
    pub fn threads(self, threads: NonZeroUsize) -> Self {
        self.backend(Backend::Shared { threads })
    }

    /// Override the cache model deciding recursion base cases. Without
    /// an override, each plan resolves the calibrated cutoff for its own
    /// scalar type ([`CacheConfig::for_scalar`]).
    pub fn cache(mut self, cache: CacheConfig) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Override the cache budget in elements.
    pub fn cache_words(mut self, words: usize) -> Self {
        self.cache = Some(CacheConfig::with_words(words));
        self
    }

    /// Select the 7-product scheme for off-diagonal products.
    pub fn strassen(mut self, kind: StrassenKind) -> Self {
        self.strassen = kind;
        self
    }

    /// Use the Strassen–Winograd products.
    pub fn winograd(self) -> Self {
        self.strassen(StrassenKind::Winograd)
    }

    /// Wire encoding of result blocks for the simulated-dist backend
    /// (§4.3.1). Defaults to [`WireFormat::SymPacked`], which is
    /// bit-identical to dense but strictly cheaper on the root's
    /// received words.
    pub fn wire(mut self, wire: WireFormat) -> Self {
        self.wire = wire;
        self
    }

    /// Build the context (spawning the worker pool for a shared
    /// backend).
    pub fn build(self) -> AtaContext {
        let pool = match self.backend {
            Backend::Shared { threads } => Some(ata_kernels::par::pool_with_threads(threads.get())),
            _ => None,
        };
        AtaContext {
            inner: Arc::new(ContextInner {
                backend: self.backend,
                cache: self.cache,
                strassen: self.strassen,
                wire: self.wire,
                pool,
                arenas: ArenaCache::default(),
                plans: PlanCache::default(),
            }),
        }
    }
}

/// The shared resources behind an [`AtaContext`] handle.
#[derive(Debug)]
struct ContextInner {
    backend: Backend,
    cache: Option<CacheConfig>,
    strassen: StrassenKind,
    wire: WireFormat,
    pool: Option<rayon::ThreadPool>,
    arenas: ArenaCache,
    plans: PlanCache,
}

impl ContextInner {
    /// The cache model plans of scalar type `T` use: the explicit
    /// override when one was configured, otherwise the per-scalar
    /// calibrated default.
    fn cache_for<T: Scalar>(&self) -> CacheConfig {
        self.cache.unwrap_or_else(CacheConfig::for_scalar::<T>)
    }

    /// The AtA-D configuration a plan of scalar type `T` resolves under
    /// this context — shared by the dist-backend plan cores and the
    /// sharded service's split lane, so both price and execute the same
    /// schedule.
    fn dist_config<T: Scalar>(&self) -> AtaDConfig {
        AtaDConfig {
            cache: self.cache_for::<T>(),
            wire: self.wire,
            ..AtaDConfig::default()
        }
    }

    /// Fetch or build the cached plan core for `(T, m, n, output,
    /// flavor)`. On a hit the core's cheap warm-up still runs, so the
    /// *calling* thread's packing buffers are grown even when another
    /// thread built the plan.
    fn plan_core<T: Scalar + 'static>(
        self: &Arc<Self>,
        m: usize,
        n: usize,
        output: Output,
        flavor: PlanFlavor,
    ) -> Arc<PlanCore<T>> {
        let key = (TypeId::of::<T>(), m, n, output, flavor);
        {
            let map = lock_recover(&self.plans.map);
            if let Some(entry) = map.get(&key) {
                let core = entry
                    .downcast_ref::<Arc<PlanCore<T>>>()
                    // ata-lint: allow(no-unwrap-in-lib): the cache key
                    // embeds `TypeId::of::<T>()`, so the downcast holds.
                    .expect("plan cache entry has the keyed type")
                    .clone();
                drop(map);
                self.plans.hits.fetch_add(1, Ordering::Relaxed);
                core.warm(self);
                return core;
            }
        }
        // Build outside the lock (planning is the expensive phase); a
        // concurrent builder of the same key wins via the entry API, so
        // every caller ends up sharing one core.
        let built = Arc::new(PlanCore::<T>::build(self, m, n, output, flavor));
        self.plans.misses.fetch_add(1, Ordering::Relaxed);
        let mut map = lock_recover(&self.plans.map);
        map.entry(key)
            .or_insert_with(|| Box::new(built))
            .downcast_ref::<Arc<PlanCore<T>>>()
            // ata-lint: allow(no-unwrap-in-lib): the cache key embeds
            // `TypeId::of::<T>()`, so the downcast holds.
            .expect("plan cache entry has the keyed type")
            .clone()
    }
}

/// A reusable execution context: configuration plus the persistent
/// resources (worker pool, cached Strassen arenas) that one-shot calls
/// used to re-create on every invocation.
///
/// The context is a cheap [`Arc`]-backed handle — [`Clone`] shares the
/// same pool and arena cache. Create plans from it with
/// [`AtaContext::plan`]; one-shot conveniences ([`AtaContext::gram`] and
/// friends) build a transient plan internally but still reuse the
/// context's pool and arena cache.
#[derive(Debug, Clone)]
pub struct AtaContext {
    inner: Arc<ContextInner>,
}

impl Default for AtaContext {
    fn default() -> Self {
        Self::builder().build()
    }
}

impl AtaContext {
    /// Start building a context.
    pub fn builder() -> AtaContextBuilder {
        AtaContextBuilder::default()
    }

    /// Serial context with the default cache model.
    pub fn serial() -> Self {
        Self::builder().build()
    }

    /// Shared-memory context with `threads` persistent workers.
    pub fn shared(threads: NonZeroUsize) -> Self {
        Self::builder().threads(threads).build()
    }

    /// Simulated-cluster context with `ranks` ranks under `loggp`.
    pub fn simulated_dist(ranks: NonZeroUsize, loggp: CostModel) -> Self {
        Self::builder()
            .backend(Backend::SimulatedDist { ranks, loggp })
            .build()
    }

    /// The context's backend.
    pub fn backend(&self) -> Backend {
        self.inner.backend
    }

    /// The context's cache model. When no explicit override was
    /// configured this reports the process default ([`CacheConfig::default`]);
    /// the model a plan actually uses is resolved per scalar type at
    /// planning time — see [`AtaPlan::cache`].
    pub fn cache(&self) -> CacheConfig {
        self.inner.cache.unwrap_or_default()
    }

    /// The context's product scheme.
    pub fn strassen(&self) -> StrassenKind {
        self.inner.strassen
    }

    /// The context's wire format for the simulated-dist backend.
    pub fn wire(&self) -> WireFormat {
        self.inner.wire
    }

    /// Build a plan for an `m x n` input with the default
    /// [`Output::Gram`] selector.
    pub fn plan<T: Scalar + 'static>(&self, m: usize, n: usize) -> AtaPlan<T> {
        self.plan_with(m, n, Output::Gram)
    }

    /// Build a plan for an `m x n` input with an explicit [`Output`]
    /// selector. This is the expensive phase: the §4.1 task tree is
    /// built (for the simulated-dist backend the full
    /// [`ata_dist::DistPlan`] — task tree plus distribution layout — so
    /// executions rebuild nothing), the arena cache warmed to the exact
    /// workspace requirement, and the packed-kernel buffers of the
    /// planning thread pre-grown (worker threads warm theirs on first
    /// execution and keep them for the life of the pool), so
    /// steady-state `execute` calls stay allocation-free.
    ///
    /// Plans are memoized in a shape-keyed cache on the context:
    /// re-planning an already-planned `(T, m, n, output)` combination is
    /// a hash lookup returning the same shared core (see
    /// [`AtaContext::plan_cache_len`]). The serving front-ends —
    /// [`crate::batch::BatchPlan`], [`crate::shard::ShardedService`], the
    /// one-shot conveniences — lean on this to re-plan per call for
    /// free.
    pub fn plan_with<T: Scalar + 'static>(&self, m: usize, n: usize, output: Output) -> AtaPlan<T> {
        AtaPlan {
            ctx: self.clone(),
            core: self.inner.plan_core(m, n, output, PlanFlavor::Auto),
        }
    }

    /// Build the cached serial-leaf plan core used by the batched
    /// serving paths: the whole problem is one task, executed by a
    /// single worker with the serial recursion.
    pub(crate) fn serial_leaf_core<T: Scalar + 'static>(
        &self,
        m: usize,
        n: usize,
        output: Output,
    ) -> Arc<PlanCore<T>> {
        self.inner.plan_core(m, n, output, PlanFlavor::SerialLeaf)
    }

    /// Build (or fetch) the cached backend-following plan core — what
    /// [`AtaContext::plan_with`] wraps. The streaming accumulator uses
    /// this to run tall chunks through the context's configured engine.
    pub(crate) fn auto_core<T: Scalar + 'static>(
        &self,
        m: usize,
        n: usize,
        output: Output,
    ) -> Arc<PlanCore<T>> {
        self.inner.plan_core(m, n, output, PlanFlavor::Auto)
    }

    /// Number of distinct plan cores currently memoized in the context's
    /// shape-keyed plan cache (all scalar types and flavors).
    pub fn plan_cache_len(&self) -> usize {
        lock_recover(&self.inner.plans.map).len()
    }

    /// How many plan requests were served from the shape-keyed cache.
    pub fn plan_cache_hits(&self) -> usize {
        self.inner.plans.hits.load(Ordering::Relaxed)
    }

    /// How many plan requests had to build a fresh core.
    pub fn plan_cache_misses(&self) -> usize {
        self.inner.plans.misses.load(Ordering::Relaxed)
    }

    /// Drop every memoized plan core. Long-lived services seeing an
    /// unbounded diversity of shapes can call this to bound the cache's
    /// footprint; plans already handed out keep working (they share the
    /// cores by `Arc`).
    pub fn clear_plan_cache(&self) {
        lock_recover(&self.inner.plans.map).clear();
    }

    /// One-shot full symmetric Gram matrix through this context.
    pub fn gram<T: Scalar + 'static>(&self, a: MatRef<'_, T>) -> Matrix<T> {
        let (m, n) = a.shape();
        self.plan_with::<T>(m, n, Output::Gram)
            .execute(a)
            .into_dense()
    }

    /// One-shot lower-triangular `A^T A` through this context.
    pub fn lower<T: Scalar + 'static>(&self, a: MatRef<'_, T>) -> Matrix<T> {
        let (m, n) = a.shape();
        let mut c = Matrix::zeros(n, n);
        self.plan_with::<T>(m, n, Output::Lower)
            .execute_accumulate(a, &mut c.as_mut());
        c
    }

    /// One-shot packed `A^T A` through this context.
    pub fn packed<T: Scalar + 'static>(&self, a: MatRef<'_, T>) -> SymPacked<T> {
        let (m, n) = a.shape();
        self.plan_with::<T>(m, n, Output::Packed)
            .execute(a)
            .into_packed()
    }

    /// The cache model a plan of scalar type `T` would resolve under
    /// this context (explicit override or per-scalar default).
    pub(crate) fn cache_for<T: Scalar>(&self) -> CacheConfig {
        self.inner.cache_for::<T>()
    }

    /// The AtA-D configuration a plan of scalar type `T` resolves under
    /// this context — what the dist-backend plan cores build with, and
    /// what the sharded service's split lane plans and prices with.
    pub(crate) fn dist_config<T: Scalar>(&self) -> AtaDConfig {
        self.inner.dist_config::<T>()
    }

    /// The context's arena pool for `T` — shared by every plan and the
    /// streaming/batched front-ends.
    pub(crate) fn arena_pool<T: Scalar + 'static>(&self) -> Arc<ArenaPool<T>> {
        self.inner.arenas.pool::<T>()
    }

    /// The context's dedicated worker pool, if the backend spawned one.
    pub(crate) fn worker_pool(&self) -> Option<&rayon::ThreadPool> {
        self.inner.pool.as_ref()
    }

    /// Execute a cached plan core through this context, building the
    /// output in `storage` when it holds at least `n²` elements (see
    /// `PlanCore::execute`); a packed result also returns its dense
    /// scratch.
    pub(crate) fn execute_core<T: Scalar + 'static>(
        &self,
        core: &PlanCore<T>,
        a: MatRef<'_, T>,
        storage: Vec<T>,
    ) -> Executed<T> {
        core.execute(&self.inner, a, storage)
    }

    /// Accumulate a cached plan core's product into `c`'s lower
    /// triangle through this context: `C_low += alpha * A^T A`.
    pub(crate) fn accumulate_core<T: Scalar + 'static>(
        &self,
        core: &PlanCore<T>,
        alpha: T,
        a: MatRef<'_, T>,
        c: &mut MatMut<'_, T>,
    ) {
        core.accumulate_lower(&self.inner, alpha, a, c);
    }
}

/// The lazily-initialized process-wide default context (serial backend,
/// default cache model) behind the legacy free functions.
pub fn default_context() -> &'static AtaContext {
    static DEFAULT: OnceLock<AtaContext> = OnceLock::new();
    DEFAULT.get_or_init(AtaContext::serial)
}

// ---------------------------------------------------------------------
// Plan.
// ---------------------------------------------------------------------

/// Packing buffers `(apack, bpack)` the leaves of an `m x n` plan need:
/// the tuned blocking clamped to the plan's shape, since no leaf of the
/// recursion is larger than its input. A small plan thus warms no more
/// than it packs, however wide the tuned `nc`. The `B` side covers both
/// a `gemm_tn` leaf's `nr`-wide pack and a `syrk_ln` leaf's shared
/// `lcm(mr, nr)`-wide one.
fn pack_buffer_elems<T: Scalar>(m: usize, n: usize) -> (usize, usize) {
    let cfg = KernelConfig::for_scalar::<T>();
    let (kc, mc, nc) = (cfg.kc.min(m), cfg.mc.min(n), cfg.nc.min(n));
    KernelConfig { kc, mc, nc, ..cfg }.pack_buffer_elems()
}

/// How a plan core runs `C_low += alpha * A^T A`: resolved once, at
/// planning time, from the plan's flavor and the context's backend.
#[derive(Debug)]
enum Executor {
    /// Algorithm 1 on the calling thread: [`Backend::Serial`], and every
    /// serial-leaf core whatever the backend.
    Serial,
    /// AtA-S over a prebuilt task tree on the context's pool
    /// ([`Backend::Shared`]).
    Shared(SharedPlan),
    /// AtA-D over a prebuilt task tree and distribution layout on the
    /// simulated cluster ([`Backend::SimulatedDist`]).
    Dist {
        plan: DistPlan,
        ranks: NonZeroUsize,
        loggp: CostModel,
    },
}

/// The context-independent part of a plan: everything pre-computed at
/// planning time, shared through the context's shape-keyed cache by
/// every [`AtaPlan`] of the same shape.
#[derive(Debug)]
pub(crate) struct PlanCore<T> {
    m: usize,
    n: usize,
    output: Output,
    /// Decomposition flavor this core was built (and cached) under.
    flavor: PlanFlavor,
    /// The cache model resolved for `T` at planning time.
    cache: CacheConfig,
    /// The engine every execution runs.
    exec: Executor,
    /// Per-worker Strassen arena requirement, elements.
    ws_elems: usize,
    /// Per-thread packed-kernel buffer requirement, elements.
    pack_elems: usize,
    /// The context's arena pool for `T`.
    arenas: Arc<ArenaPool<T>>,
}

impl<T: Scalar + 'static> PlanCore<T> {
    fn build(inner: &ContextInner, m: usize, n: usize, output: Output, flavor: PlanFlavor) -> Self {
        let cache = inner.cache_for::<T>();
        let (exec, ws_elems) = match (flavor, inner.backend) {
            (PlanFlavor::SerialLeaf, _) | (PlanFlavor::Auto, Backend::Serial) => (
                Executor::Serial,
                ata_workspace_elems(m, n, &cache, inner.strassen),
            ),
            (PlanFlavor::Auto, Backend::Shared { threads }) => {
                let plan = SharedPlan::build(n, threads.get());
                let need = plan_workspace_elems(&plan, m, &cache, inner.strassen);
                (Executor::Shared(plan), need)
            }
            (PlanFlavor::Auto, Backend::SimulatedDist { ranks, loggp }) => {
                let plan = DistPlan::build(m, n, ranks.get(), &inner.dist_config::<T>());
                (Executor::Dist { plan, ranks, loggp }, 0)
            }
        };
        // Leaf-kernel packing workspace (BLIS-style engine): sized from
        // the measured per-scalar blocking, warmed per thread.
        // `for_scalar` resolves the *per-ISA* tuned row (the fused
        // AVX2+FMA kernels prefer different tiles than the portable
        // ones), so the warmed buffers match whatever tile path
        // `ata_kernels::simd::detected()` dispatches at execute time.
        let (pack_a, pack_b) = pack_buffer_elems::<T>(m, n);
        let pack_elems = match exec {
            Executor::Dist { .. } => 0,
            _ => pack_a + pack_b,
        };
        let core = PlanCore {
            m,
            n,
            output,
            flavor,
            cache,
            exec,
            ws_elems,
            pack_elems,
            arenas: inner.arenas.pool::<T>(),
        };
        core.warm(inner);
        core
    }

    /// Warm the shared resources this core relies on: the context's
    /// arena pool (to the exact per-worker requirement) and the calling
    /// thread's packing buffers. Idempotent and cheap once warm, so
    /// plan-cache hits re-run it for the benefit of new calling threads.
    fn warm(&self, inner: &ContextInner) {
        let arena_count = match &self.exec {
            Executor::Dist { .. } => 0,
            Executor::Shared(plan) => plan.procs,
            // Batched serving: any pool worker may pick up a whole
            // problem, so each needs its own arena.
            Executor::Serial if self.flavor == PlanFlavor::SerialLeaf => match &inner.pool {
                Some(pool) => pool.current_num_threads(),
                None => rayon::current_num_threads(),
            },
            Executor::Serial => 1,
        };
        if arena_count > 0 {
            self.arenas.warm(arena_count, self.ws_elems);
        }
        if self.pack_elems > 0 {
            let (pack_a, pack_b) = pack_buffer_elems::<T>(self.m, self.n);
            ata_kernels::pack::warm_thread::<T>(pack_a, pack_b);
        }
    }

    /// Planned input shape `(m, n)`.
    pub(crate) fn planned_shape(&self) -> (usize, usize) {
        (self.m, self.n)
    }

    /// Planned output selector.
    pub(crate) fn planned_output(&self) -> Output {
        self.output
    }

    /// Panic unless `a` has the planned shape and `c` is `n x n`.
    fn check_shapes(&self, a: MatRef<'_, T>, c: &MatMut<'_, T>) {
        assert_eq!(
            a.shape(),
            (self.m, self.n),
            "plan built for {}x{}, input is {:?}",
            self.m,
            self.n,
            a.shape()
        );
        assert_eq!(
            c.shape(),
            (self.n, self.n),
            "output must be {0}x{0}, got {1:?}",
            self.n,
            c.shape()
        );
    }

    /// The one backend dispatch: `C_low += alpha * A^T A`. This is the
    /// β = 1 mode behind [`AtaPlan::execute_accumulate`] and the
    /// streaming [`crate::stream::GramAccumulator`]; the `execute*`
    /// entry points zero `c` and pass `alpha = 1`. Shapes are checked
    /// before any write, and strictly-upper entries of `c` are never
    /// touched.
    fn accumulate_lower(
        &self,
        inner: &ContextInner,
        alpha: T,
        a: MatRef<'_, T>,
        c: &mut MatMut<'_, T>,
    ) {
        self.check_shapes(a, c);
        match &self.exec {
            Executor::Serial => {
                let mut ws = self.arenas.checkout(self.ws_elems);
                ata_into_with_kind(alpha, a, c, &self.cache, inner.strassen, &mut ws);
                self.arenas.give_back(ws);
            }
            Executor::Shared(plan) => {
                let mut exec =
                    || ata_s_planned(alpha, a, c, plan, &self.cache, inner.strassen, &self.arenas);
                match &inner.pool {
                    Some(pool) => pool.install(exec),
                    None => exec(),
                }
            }
            Executor::Dist { plan, ranks, loggp } => {
                let owned = a.to_matrix();
                let input = &owned;
                let report = run(ranks.get(), *loggp, move |comm| {
                    let input = (comm.rank() == 0).then_some(input);
                    // Fault-free universe: execute cannot return Err.
                    plan.execute(input, comm)
                        .unwrap_or_else(|e| panic!("fault-free AtA-D failed: {e}"))
                });
                let lower = report
                    .results
                    .into_iter()
                    .flatten()
                    .next()
                    // ata-lint: allow(no-unwrap-in-lib): the closure
                    // passed to `run` returns Some exactly on rank 0.
                    .expect("rank 0 returns the result");
                // The cluster computes a fresh lower triangle; fold it in.
                for i in 0..self.n {
                    for j in 0..=i {
                        c[(i, j)] += alpha * lower[(i, j)];
                    }
                }
            }
        }
    }

    /// Copy `c`'s lower triangle onto its strict upper one. An AtA-S
    /// plan also mirrors on the context's pool: the top quadrant split's
    /// three independent parts — `C11`, `C12 ← C21ᵀ` and `C22` — go to
    /// the workers in that order, so two workers each copy about a
    /// quarter of `C` (`C11` and `C22` on one, the transpose on the
    /// other).
    fn mirror(&self, inner: &ContextInner, c: &mut MatMut<'_, T>) {
        let pool = match (&self.exec, &inner.pool) {
            (Executor::Shared(_), Some(pool)) => pool,
            _ => return c.mirror_lower_to_upper(),
        };
        let (c11, c12, c21, c22) = c.rb_mut().quad_split_mut();
        let parts = vec![(c11, None), (c12, Some(c21.into_ref())), (c22, None)];
        pool.install(|| {
            parts.into_par_iter().for_each(|(mut dst, src)| match src {
                Some(src) => dst.transpose_from(src),
                None => dst.mirror_lower_to_upper(),
            })
        });
    }

    /// Zero `c`'s lower triangle, which the accumulate adds into, and
    /// its strict upper triangle too when `upper` (a Gram's mirror
    /// overwrites it, and a packed result never reads it).
    fn zero(&self, c: &mut MatMut<'_, T>, upper: bool) {
        if upper {
            c.fill_zero();
        } else {
            for i in 0..self.n {
                c.row_mut(i)[..=i].fill(T::ZERO);
            }
        }
    }

    /// Accumulate into zeroed storage and mirror a Gram.
    fn fill(&self, inner: &ContextInner, a: MatRef<'_, T>, c: &mut MatMut<'_, T>) {
        self.accumulate_lower(inner, T::ONE, a, c);
        if self.output == Output::Gram {
            self.mirror(inner, c);
        }
    }

    fn execute_into(&self, inner: &ContextInner, a: MatRef<'_, T>, c: &mut MatMut<'_, T>) {
        self.check_shapes(a, c);
        self.zero(c, self.output != Output::Gram);
        self.fill(inner, a, c);
    }

    /// Execute into `storage` when it holds at least `n²` elements, whose
    /// stale values are zeroed where the result reads them, and into
    /// fresh zeroed storage otherwise; then wrap the dense result per the
    /// plan's [`Output`]. A packed result also hands back the dense
    /// scratch it was compacted from.
    fn execute(&self, inner: &ContextInner, a: MatRef<'_, T>, mut storage: Vec<T>) -> Executed<T> {
        let n = self.n;
        let mut c = if storage.len() >= n * n {
            storage.truncate(n * n);
            let mut c = Matrix::from_vec(storage, n, n);
            self.zero(&mut c.as_mut(), self.output == Output::Lower);
            c
        } else {
            Matrix::zeros(n, n)
        };
        self.fill(inner, a, &mut c.as_mut());
        match self.output {
            Output::Gram | Output::Lower => (AtaOutput::Dense(c), None),
            Output::Packed => (
                AtaOutput::Packed(SymPacked::from_lower(&c)),
                Some(c.into_vec()),
            ),
        }
    }
}

/// A reusable execution plan for one `(m, n)` problem shape.
///
/// Created by [`AtaContext::plan`] or [`AtaContext::plan_with`]. The plan
/// holds its own (cheap, `Arc`-backed) context handle, so it is [`Send`]
/// and `'static`: it can move into a serving loop or another thread and
/// outlive the handle it came from, while still using that context's
/// worker pool and arena cache. Execute it any number of times, from
/// multiple threads, against inputs of the planned shape.
#[derive(Debug)]
pub struct AtaPlan<T> {
    ctx: AtaContext,
    core: Arc<PlanCore<T>>,
}

/// The former name of the owned [`AtaPlan`]. Kept while the end-to-end
/// benchmark (`perfbench/`) still names it, until it reads the library's
/// phases (ROADMAP item 8).
pub type OwnedPlan<T> = AtaPlan<T>;

impl<T: Scalar + 'static> AtaPlan<T> {
    /// Planned input shape `(m, n)`.
    pub fn shape(&self) -> (usize, usize) {
        self.core.planned_shape()
    }

    /// The plan's output selector.
    pub fn output(&self) -> Output {
        self.core.output
    }

    /// Exact per-worker Strassen workspace requirement, in elements —
    /// the size the context's arena cache was warmed to.
    pub fn workspace_elems(&self) -> usize {
        self.core.ws_elems
    }

    /// Per-thread packing-buffer requirement of the leaf microkernel
    /// engine, in elements (`apack + bpack`; zero for the simulated-dist
    /// backend, whose ranks size their own). Planning warms the calling
    /// thread to this size; each pool worker grows its own buffers once
    /// on first execution and keeps them for the life of the pool.
    pub fn pack_workspace_elems(&self) -> usize {
        self.core.pack_elems
    }

    /// The prebuilt AtA-D plan ([`Backend::SimulatedDist`] only): task
    /// tree plus distribution layout, built once at planning time and
    /// reused by every execution.
    pub fn dist_plan(&self) -> Option<&DistPlan> {
        match &self.core.exec {
            Executor::Dist { plan, .. } => Some(plan),
            _ => None,
        }
    }

    /// The cache model this plan's recursion actually uses: the
    /// context's explicit override when one was configured, otherwise
    /// the calibrated per-scalar default resolved at planning time
    /// ([`CacheConfig::for_scalar`]).
    pub fn cache(&self) -> CacheConfig {
        self.core.cache
    }

    /// The context handle this plan executes through.
    pub fn context(&self) -> &AtaContext {
        &self.ctx
    }

    /// Execute the plan, writing dense output into a caller-provided
    /// `n x n` buffer — the serving-loop entry point. For the
    /// [`Backend::Serial`] and [`Backend::Shared`] backends this is
    /// allocation-free after warm-up; [`Backend::SimulatedDist`]
    /// necessarily copies the operand into the simulated cluster on
    /// every call.
    ///
    /// The buffer is overwritten: [`Output::Gram`] fills both triangles;
    /// [`Output::Lower`] and [`Output::Packed`] fill the lower triangle
    /// and zero the strict upper.
    ///
    /// # Panics
    /// If `a` is not the planned shape or `c` is not `n x n`.
    pub fn execute_into(&self, a: MatRef<'_, T>, c: &mut MatMut<'_, T>) {
        self.core.execute_into(&self.ctx.inner, a, c);
    }

    /// Execute the plan into freshly allocated output, per the plan's
    /// [`Output`] selector.
    ///
    /// # Panics
    /// If `a` is not the planned shape.
    pub fn execute(&self, a: MatRef<'_, T>) -> AtaOutput<T> {
        self.core.execute(&self.ctx.inner, a, Vec::new()).0
    }

    /// Accumulate into a caller-held buffer: `C_low += A^T A`, the β = 1
    /// mode of the rank-update structure `C += Aᵢᵀ Aᵢ`. Only the lower
    /// triangle of `c` is read and written — strictly-upper entries are
    /// untouched, and the plan's [`Output`] selector is irrelevant. This
    /// is the primitive behind [`crate::stream::GramAccumulator`]: call
    /// it once per row chunk and the chunks' Gram contributions sum in
    /// place.
    ///
    /// # Panics
    /// If `a` is not the planned shape or `c` is not `n x n`.
    pub fn execute_accumulate(&self, a: MatRef<'_, T>, c: &mut MatMut<'_, T>) {
        self.core.accumulate_lower(&self.ctx.inner, T::ONE, a, c);
    }

    /// The plan itself: plans already own their context handle. Kept
    /// while the end-to-end benchmark (`perfbench/`) still calls it, until
    /// it reads the library's phases (ROADMAP item 8).
    pub fn into_owned(self) -> Self {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ata_core::tasktree::DistTree;
    use ata_mat::{gen, reference};

    fn oracle(a: &Matrix<f64>) -> Matrix<f64> {
        let n = a.cols();
        let mut c = Matrix::zeros(n, n);
        reference::syrk_ln(1.0, a.as_ref(), &mut c.as_mut());
        c
    }

    #[test]
    fn serial_plan_matches_oracle_across_reuses() {
        let ctx = AtaContext::builder().cache_words(32).build();
        let plan = ctx.plan::<f64>(40, 32);
        for seed in 0..4 {
            let a = gen::standard::<f64>(seed, 40, 32);
            let g = plan.execute(a.as_ref()).into_dense();
            assert!(g.max_abs_diff_lower(&oracle(&a)) < 1e-10, "seed {seed}");
            assert!(g.is_symmetric(0.0));
        }
    }

    #[test]
    fn shared_plan_executes_on_context_pool() {
        let ctx = AtaContext::shared(NonZeroUsize::new(4).unwrap());
        let plan = ctx.plan::<f64>(64, 48);
        let a = gen::standard::<f64>(7, 64, 48);
        let g = plan.execute(a.as_ref()).into_dense();
        assert!(g.max_abs_diff_lower(&oracle(&a)) < 1e-10);
    }

    #[test]
    fn execute_into_reuses_caller_buffer() {
        let ctx = AtaContext::builder()
            .threads(NonZeroUsize::new(2).unwrap())
            .cache_words(64)
            .build();
        let plan = ctx.plan_with::<f64>(32, 24, Output::Lower);
        let mut c = Matrix::zeros(24, 24);
        for seed in 0..3 {
            let a = gen::standard::<f64>(seed + 100, 32, 24);
            plan.execute_into(a.as_ref(), &mut c.as_mut());
            assert!(c.max_abs_diff_lower(&oracle(&a)) < 1e-10, "seed {seed}");
            // Strict upper zeroed for the Lower selector.
            for i in 0..24 {
                for j in (i + 1)..24 {
                    assert_eq!(c[(i, j)], 0.0);
                }
            }
        }
    }

    #[test]
    fn packed_selector_round_trips() {
        let ctx = AtaContext::serial();
        let plan = ctx.plan_with::<f64>(20, 12, Output::Packed);
        let a = gen::standard::<f64>(4, 20, 12);
        let p = plan.execute(a.as_ref()).into_packed();
        assert_eq!(p.order(), 12);
        let mut full = p.to_full();
        full.mirror_lower_to_upper();
        let g = ctx.gram(a.as_ref());
        assert!(full.max_abs_diff(&g) < 1e-12);
    }

    #[test]
    fn dist_backend_matches_direct_ata_d_bitwise() {
        use ata_dist::{ata_d, AtaDConfig};
        let (m, n, ranks) = (32usize, 24usize, 4usize);
        let a = gen::standard::<f64>(11, m, n);
        let ctx = AtaContext::simulated_dist(NonZeroUsize::new(ranks).unwrap(), CostModel::zero());
        let via_ctx = ctx.lower(a.as_ref());
        let a_ref = &a;
        let report = run(ranks, CostModel::zero(), move |comm| {
            let input = (comm.rank() == 0).then_some(a_ref);
            ata_d(input, m, n, comm, &AtaDConfig::default())
        });
        let direct = report.results[0].as_ref().expect("root holds C");
        assert_eq!(
            via_ctx.max_abs_diff(direct),
            0.0,
            "context dist backend must be bit-identical to ata_d"
        );
    }

    #[test]
    fn dist_plan_is_built_once_and_reused() {
        // Shape unique within this test binary: the shape-keyed build
        // counter stays deterministic under the parallel test harness.
        let (m, n, ranks) = (49usize, 41usize, 6usize);
        let ctx = AtaContext::simulated_dist(NonZeroUsize::new(ranks).unwrap(), CostModel::zero());
        let builds_before = DistTree::build_count_for(m, n, ranks);
        let plan = ctx.plan_with::<f64>(m, n, Output::Lower);
        assert_eq!(
            DistTree::build_count_for(m, n, ranks),
            builds_before + 1,
            "planning builds the DistTree exactly once"
        );
        assert!(plan.dist_plan().is_some());
        let a = gen::standard::<f64>(17, m, n);
        let mut runs = Vec::new();
        for _ in 0..3 {
            runs.push(plan.execute(a.as_ref()).into_dense());
        }
        assert_eq!(
            DistTree::build_count_for(m, n, ranks),
            builds_before + 1,
            "repeat executions must rebuild no DistTree"
        );
        assert_eq!(runs[0].max_abs_diff(&runs[1]), 0.0, "bit-identical reuse");
        assert_eq!(runs[0].max_abs_diff(&runs[2]), 0.0, "bit-identical reuse");
        assert!(runs[0].max_abs_diff_lower(&oracle(&a)) < 1e-10);
    }

    #[test]
    fn dist_wire_formats_agree_bitwise_through_the_context() {
        let (m, n, ranks) = (40usize, 32usize, 5usize);
        let a = gen::standard::<f64>(23, m, n);
        let mk = |wire| {
            AtaContext::builder()
                .backend(Backend::SimulatedDist {
                    ranks: NonZeroUsize::new(ranks).unwrap(),
                    loggp: CostModel::zero(),
                })
                .wire(wire)
                .build()
        };
        let dense = mk(WireFormat::Dense).lower(a.as_ref());
        let packed = mk(WireFormat::SymPacked).lower(a.as_ref());
        assert_eq!(dense.max_abs_diff(&packed), 0.0);
    }

    #[test]
    fn owned_plan_moves_across_threads() {
        // A plan must be Send (compile-time check) and produce the same
        // bits on another thread as on the one that planned it.
        fn assert_send<X: Send>(_: &X) {}
        let ctx = AtaContext::builder().cache_words(32).build();
        let a = gen::standard::<f64>(31, 36, 28);
        let owned = ctx.plan_with::<f64>(36, 28, Output::Gram);
        let baseline = owned.execute(a.as_ref()).into_dense();
        assert_send(&owned);
        assert_eq!(owned.shape(), (36, 28));
        let a2 = a.clone();
        let from_thread = std::thread::spawn(move || owned.execute(a2.as_ref()).into_dense())
            .join()
            .expect("worker thread");
        assert_eq!(baseline.max_abs_diff(&from_thread), 0.0);
    }

    #[test]
    fn owned_plan_outlives_the_original_context_handle() {
        let a = gen::standard::<f64>(41, 24, 20);
        let (owned, baseline) = {
            let ctx = AtaContext::shared(NonZeroUsize::new(2).unwrap());
            let plan = ctx.plan_with::<f64>(24, 20, Output::Lower);
            let baseline = plan.execute(a.as_ref());
            (plan, baseline)
            // `ctx` handle drops here; the Arc keeps the pool alive.
        };
        let again = owned.execute(a.as_ref());
        match (baseline, again) {
            (AtaOutput::Dense(b), AtaOutput::Dense(c)) => {
                assert_eq!(b.max_abs_diff(&c), 0.0);
            }
            _ => panic!("Lower selector yields dense output"),
        }
        assert!(matches!(owned.context().backend(), Backend::Shared { .. }));
    }

    #[test]
    fn owned_dist_plan_is_send_and_reuses_the_tree() {
        let ctx = AtaContext::simulated_dist(NonZeroUsize::new(4).unwrap(), CostModel::zero());
        let owned = ctx.plan_with::<f64>(24, 16, Output::Gram);
        let builds = DistTree::build_count_for(24, 16, 4);
        let a = gen::standard::<f64>(51, 24, 16);
        let handle = std::thread::spawn(move || {
            let g = owned.execute(a.as_ref()).into_dense();
            (owned, g)
        });
        let (owned, g) = handle.join().expect("worker thread");
        assert_eq!(
            DistTree::build_count_for(24, 16, 4),
            builds,
            "no rebuild across threads"
        );
        assert!(g.is_symmetric(0.0));
        assert!(owned.dist_plan().is_some());
    }

    #[test]
    fn plans_share_the_context_arena_cache() {
        let ctx = AtaContext::builder().cache_words(16).build();
        let plan = ctx.plan::<f64>(32, 32);
        let a = gen::standard::<f64>(1, 32, 32);
        let _ = plan.execute(a.as_ref());
        let cached_before = ctx.arena_pool::<f64>().cached_elems();
        // A second same-shape plan must not grow the cache further.
        let plan2 = ctx.plan::<f64>(32, 32);
        let _ = plan2.execute(a.as_ref());
        assert_eq!(ctx.arena_pool::<f64>().cached_elems(), cached_before);
    }

    #[test]
    fn plan_sizes_and_warms_pack_buffers() {
        let ctx = AtaContext::serial();
        let plan = ctx.plan::<f64>(64, 48);
        // The tuned blocking, clamped to the 64 x 48 input.
        let cfg = KernelConfig::for_scalar::<f64>();
        let (kc, mc, nc) = (cfg.kc.min(64), cfg.mc.min(48), cfg.nc.min(48));
        let (a_elems, b_elems) = KernelConfig { kc, mc, nc, ..cfg }.pack_buffer_elems();
        assert_eq!(plan.pack_workspace_elems(), a_elems + b_elems);
        // Planning warmed this thread's buffers to the full requirement,
        // and executing the plan needs no more.
        let warm = ata_kernels::pack::thread_buf_elems::<f64>();
        assert!(warm >= a_elems + b_elems);
        let _ = plan.execute(gen::standard::<f64>(3, 64, 48).as_ref());
        assert_eq!(ata_kernels::pack::thread_buf_elems::<f64>(), warm);
        // One column past a tile: syrk's shared pack pads it to one
        // `lcm(mr, nr)`-wide panel, which outgrows two `nr`-wide gemm
        // panels once `lcm(mr, nr) >= 3 nr` (the 12 x 16 AVX-512 tile).
        // The plan warms the larger, and the execute grows nothing.
        let n = cfg.nr + 1;
        let plan = ctx.plan::<f64>(64, n);
        let clamped = KernelConfig {
            kc: cfg.kc.min(64),
            mc: cfg.mc.min(n),
            nc: cfg.nc.min(n),
            ..cfg
        };
        let (a_elems, b_elems) = clamped.pack_buffer_elems();
        assert_eq!(plan.pack_workspace_elems(), a_elems + b_elems);
        // With `mr = nr` the shared width is `nr`: the gemm-only size.
        let gemm_only = KernelConfig {
            mr: cfg.nr,
            ..clamped
        };
        let gemm_b = gemm_only.pack_buffer_elems().1;
        let width = (1..).map(|q| q * cfg.nr).find(|w| w % cfg.mr == 0).unwrap();
        assert!(b_elems >= gemm_b);
        if width >= 3 * cfg.nr {
            assert!(b_elems > gemm_b, "{cfg:?}: {b_elems} vs {gemm_b}");
        }
        let warm = ata_kernels::pack::thread_buf_elems::<f64>();
        assert!(warm >= a_elems + b_elems);
        let _ = plan.execute(gen::standard::<f64>(4, 64, n).as_ref());
        assert_eq!(ata_kernels::pack::thread_buf_elems::<f64>(), warm);
        // The dist backend packs rank-side; the plan reports zero.
        let dist = AtaContext::simulated_dist(NonZeroUsize::new(2).unwrap(), CostModel::zero());
        assert_eq!(dist.plan::<f64>(16, 8).pack_workspace_elems(), 0);
    }

    #[test]
    fn default_context_resolves_cache_per_scalar() {
        // Satellite fix: without an explicit cache override, an f32
        // plan must use the f32-calibrated cutoff, not inherit the f64
        // default.
        let ctx = AtaContext::serial();
        let f32_plan = ctx.plan::<f32>(64, 48);
        let f64_plan = ctx.plan::<f64>(64, 48);
        assert_eq!(
            f32_plan.cache().words,
            CacheConfig::for_scalar::<f32>().words
        );
        assert_eq!(
            f64_plan.cache().words,
            CacheConfig::for_scalar::<f64>().words
        );
        // An explicit override pins both scalar types.
        let pinned = AtaContext::builder().cache_words(64).build();
        assert_eq!(pinned.plan::<f32>(16, 8).cache().words, 64);
        assert_eq!(pinned.plan::<f64>(16, 8).cache().words, 64);
        // The context-level accessor still reports the process default.
        assert_eq!(ctx.cache().words, CacheConfig::default().words);
    }

    #[test]
    fn plan_cache_memoizes_by_shape_output_and_scalar() {
        let ctx = AtaContext::builder().cache_words(32).build();
        assert_eq!(ctx.plan_cache_len(), 0);
        let _p1 = ctx.plan_with::<f64>(24, 16, Output::Gram);
        let misses = ctx.plan_cache_misses();
        assert_eq!(ctx.plan_cache_len(), 1);
        // Same key: a hit, no new core.
        let _p2 = ctx.plan_with::<f64>(24, 16, Output::Gram);
        assert_eq!(ctx.plan_cache_len(), 1);
        assert_eq!(ctx.plan_cache_misses(), misses);
        assert!(ctx.plan_cache_hits() >= 1);
        // Different output, scalar or shape: distinct cores.
        let _p3 = ctx.plan_with::<f64>(24, 16, Output::Lower);
        let _p4 = ctx.plan_with::<f32>(24, 16, Output::Gram);
        let _p5 = ctx.plan_with::<f64>(25, 16, Output::Gram);
        assert_eq!(ctx.plan_cache_len(), 4);
        // Clearing keeps handed-out plans working.
        let a = gen::standard::<f64>(3, 24, 16);
        ctx.clear_plan_cache();
        assert_eq!(ctx.plan_cache_len(), 0);
        let g = _p2.execute(a.as_ref()).into_dense();
        assert!(g.max_abs_diff_lower(&oracle(&a)) < 1e-10);
    }

    #[test]
    fn cached_plan_reuse_is_bit_identical() {
        let ctx = AtaContext::builder().cache_words(16).build();
        let a = gen::standard::<f64>(9, 30, 20);
        let first = ctx.plan::<f64>(30, 20).execute(a.as_ref()).into_dense();
        let second = ctx.plan::<f64>(30, 20).execute(a.as_ref()).into_dense();
        assert_eq!(first.max_abs_diff(&second), 0.0);
    }

    #[test]
    #[should_panic(expected = "plan built for")]
    fn wrong_shape_input_rejected() {
        let ctx = AtaContext::serial();
        let plan = ctx.plan::<f64>(16, 8);
        let a = gen::standard::<f64>(1, 8, 8);
        let _ = plan.execute(a.as_ref());
    }
}
