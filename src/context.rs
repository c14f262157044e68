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
//!    (backend, cache model, Strassen kind). Owns the persistent worker
//!    pool and a cache of reusable Strassen arenas, both shared by every
//!    plan created from it. Internally the context is an `Arc` around
//!    its resources, so cloning is cheap.
//! 2. **Plan** ([`AtaPlan`]) — built once per `(m, n)` problem shape.
//!    Holds decisions only: one executor — the serial recursion or an
//!    AtA-S task tree on the pool — and the exact per-worker workspace
//!    size, so repeat executions rebuild nothing; then executes any
//!    number of times against same-shape inputs, into caller-provided
//!    output ([`AtaPlan::execute_into`]) or freshly allocated output
//!    ([`AtaPlan::execute`]). Memory is sized where it is used: the
//!    first execution checks out its arenas and grows each thread's
//!    packing buffers to what its leaves pack, and later executions
//!    reuse both. A plan holds its own context handle, so it is
//!    `'static` and [`Send`]: long-lived services move it across
//!    threads, and it outlives the handle it came from.
//!
//! The [`Backend`] enum selects the engine: the same plan API fronts the
//! serial recursion (Algorithm 1) and the shared-memory AtA-S
//! (Algorithm 3). The simulated-cluster AtA-D (Algorithm 4) keeps its
//! own plan, [`crate::dist::DistPlan`], which the sharded service's split
//! lane and the distributed benchmarks run on `ata-mpisim`'s ranks.
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
use std::sync::{Arc, Mutex};

use ata_core::serial::{ata_into_with_kind, ata_workspace_elems, StrassenKind};
use ata_core::tasktree::SharedPlan;
use ata_core::{ata_s_planned, plan_workspace_elems};
use ata_kernels::CacheConfig;
use ata_mat::{MatMut, MatRef, Matrix, Scalar, SymPacked};
use ata_strassen::ArenaPool;
use rayon::prelude::*;

// ---------------------------------------------------------------------
// Backend and output selectors.
// ---------------------------------------------------------------------

/// Which execution engine a context drives: one of the paper's two
/// single-node algorithms.
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
    /// [`crate::batch::BatchPlan`]). Each pool worker that runs one
    /// checks out its own arena from the context's pool.
    SerialLeaf,
}

/// Key of one cached plan core: scalar type, shape, output selector and
/// decomposition flavor. The context's configuration (backend, cache
/// model, Strassen kind) is immutable, so it never needs to participate
/// in the key.
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
}

impl Default for AtaContextBuilder {
    fn default() -> Self {
        Self {
            backend: Backend::Serial,
            cache: None,
            strassen: StrassenKind::Classic,
        }
    }
}

impl AtaContextBuilder {
    /// Select [`Backend::Shared`] with `threads` workers (the default is
    /// [`Backend::Serial`]).
    pub fn threads(self, threads: NonZeroUsize) -> Self {
        Self {
            backend: Backend::Shared { threads },
            ..self
        }
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

    /// Build the context (spawning the worker pool for a shared
    /// backend).
    pub fn build(self) -> AtaContext {
        let pool = match self.backend {
            Backend::Shared { threads } => Some(ata_kernels::par::pool_with_threads(threads.get())),
            Backend::Serial => None,
        };
        AtaContext {
            inner: Arc::new(ContextInner {
                backend: self.backend,
                cache: self.cache,
                strassen: self.strassen,
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

    /// Fetch or build the cached plan core for `(T, m, n, output,
    /// flavor)`. A hit is the lookup and nothing else.
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

    /// Build a plan for an `m x n` input with the default
    /// [`Output::Gram`] selector.
    pub fn plan<T: Scalar + 'static>(&self, m: usize, n: usize) -> AtaPlan<T> {
        self.plan_with(m, n, Output::Gram)
    }

    /// Build a plan for an `m x n` input with an explicit [`Output`]
    /// selector. This is the expensive phase: the §4.1 task tree is
    /// built and the per-worker workspace size resolved. Planning
    /// allocates no arena or packing buffer: the first execution checks
    /// out its arenas and grows each executing thread's packing buffers,
    /// and steady-state `execute` calls reuse them without allocating.
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

    /// Build the backend-following plan core [`AtaContext::plan_with`]
    /// would, outside the shape-keyed cache. The streaming accumulator
    /// holds one at its current tall-chunk height, so a stream of
    /// irregular heights adds nothing to the cache.
    pub(crate) fn uncached_core<T: Scalar + 'static>(
        &self,
        m: usize,
        n: usize,
        output: Output,
    ) -> PlanCore<T> {
        PlanCore::build(&self.inner, m, n, output, PlanFlavor::Auto)
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

// ---------------------------------------------------------------------
// Plan.
// ---------------------------------------------------------------------

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
}

/// The context-independent part of a plan: the decisions made at
/// planning time, shared through the context's shape-keyed cache by
/// every [`AtaPlan`] of the same shape.
#[derive(Debug)]
pub(crate) struct PlanCore<T> {
    m: usize,
    n: usize,
    output: Output,
    /// The cache model resolved for `T` at planning time.
    cache: CacheConfig,
    /// The engine every execution runs.
    exec: Executor,
    /// Per-worker Strassen arena requirement, elements.
    ws_elems: usize,
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
        };
        PlanCore {
            m,
            n,
            output,
            cache,
            exec,
            ws_elems,
            arenas: inner.arenas.pool::<T>(),
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

    /// Exact per-worker Strassen workspace requirement, in elements: the
    /// largest arena one worker of this plan needs, which its first
    /// execution checks out.
    pub fn workspace_elems(&self) -> usize {
        self.core.ws_elems
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
    /// `n x n` buffer — the serving-loop entry point. Every call after
    /// the first is allocation-free: the first checks out the context's
    /// arenas and grows the executing threads' packing buffers, and later
    /// calls reuse both.
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
    fn planning_allocates_nothing_and_a_second_execute_grows_no_pack_buffer() {
        // Each backend on a fresh thread, whose packing buffers start
        // empty. On `shared(2)` the calling thread runs one worker's
        // tasks itself, the same ones on every execute.
        let a = gen::standard::<f64>(3, 64, 48);
        let backends = [
            AtaContext::serial(),
            AtaContext::shared(NonZeroUsize::new(2).unwrap()),
        ];
        for ctx in backends {
            std::thread::scope(|s| {
                s.spawn(|| {
                    let plan = ctx.plan::<f64>(64, 48);
                    let pack = ata_kernels::pack::thread_buf_elems::<f64>;
                    assert_eq!(pack(), 0, "{:?}: planning packs nothing", ctx.backend());
                    assert_eq!(ctx.arena_pool::<f64>().cached(), 0, "no arena either");
                    let mut c = Matrix::zeros(48, 48);
                    plan.execute_into(a.as_ref(), &mut c.as_mut());
                    let first = pack();
                    assert!(first > 0, "{:?}: the execute packed here", ctx.backend());
                    plan.execute_into(a.as_ref(), &mut c.as_mut());
                    assert_eq!(pack(), first, "{:?}: second execute grew", ctx.backend());
                });
            });
        }
    }

    #[test]
    fn concurrent_plan_cache_hits_leave_one_arena_per_worker() {
        // One thread executes a `shared(2)` plan while another re-plans
        // its shape until the executions end: a hit is a lookup, so the
        // pool ends with the two arenas the workers checked out.
        let ctx = AtaContext::builder()
            .threads(NonZeroUsize::new(2).unwrap())
            .cache_words(512)
            .build();
        let (m, n) = (64, 64);
        let plan = ctx.plan::<f64>(m, n);
        assert!(plan.workspace_elems() > 0, "the tasks run a Strassen level");
        let a = gen::standard::<f64>(5, m, n);
        let start = std::sync::Barrier::new(2);
        let done = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut c = Matrix::zeros(n, n);
                start.wait();
                for _ in 0..200 {
                    plan.execute_into(a.as_ref(), &mut c.as_mut());
                }
                done.store(true, Ordering::Release);
            });
            start.wait();
            while !done.load(Ordering::Acquire) {
                let _ = ctx.plan::<f64>(m, n);
            }
        });
        let arenas = ctx.arena_pool::<f64>();
        assert_eq!(arenas.cached(), 2, "one arena per worker");
        assert!(arenas.cached_elems() <= 2 * plan.workspace_elems());
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
