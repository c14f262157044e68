//! Arena checkout/return — reusing [`StrassenWorkspace`] buffers across
//! calls.
//!
//! The paper sizes its pre-allocated matrices once and reuses them for
//! the whole recursion (§3.3); the Plan/Context execution API extends
//! that across *calls*: an [`ArenaPool`] caches returned workspaces so
//! repeated executions of the same plan stop paying the allocation (and
//! zero-fill) cost of the arena. Huang et al.'s BLIS-Strassen work makes
//! the same point for packing buffers — amortizing workspace across
//! invocations is where a practical Strassen wins or loses at small
//! sizes.
//!
//! The pool is a simple synchronized free list. `checkout` hands out the
//! largest cached arena (growing it to the requested floor if needed),
//! `give_back` returns it; concurrent workers each check out their own
//! arena, so the executing recursions never share a buffer.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::workspace::StrassenWorkspace;
use ata_mat::Scalar;

/// Allocation-behavior counters of an [`ArenaPool`] — the observability
/// hook behind "steady-state executions allocate nothing" claims.
///
/// A warm pool serving a fixed working set has `misses` and `grows`
/// constant while `checkouts` keeps climbing: every checkout was served
/// from cache at sufficient capacity. Streaming callers (the facade's
/// `GramAccumulator`) assert exactly that across pushes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ArenaStats {
    /// Total arenas handed out.
    pub checkouts: usize,
    /// Checkouts that found no cached arena and had to allocate fresh.
    pub misses: usize,
    /// Checkouts whose cached arena was under-sized and had to regrow.
    pub grows: usize,
}

/// A synchronized free list of [`StrassenWorkspace`] arenas.
///
/// Workspaces only ever grow (`reserve` never shrinks), so any cached
/// arena is valid for any problem; handing out the largest first
/// minimizes mid-recursion regrowth.
#[derive(Debug, Default)]
pub struct ArenaPool<T> {
    free: Mutex<Vec<StrassenWorkspace<T>>>,
    checkouts: AtomicUsize,
    misses: AtomicUsize,
    grows: AtomicUsize,
}

impl<T: Scalar> ArenaPool<T> {
    /// Empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Check out an arena with at least `min_elems` capacity, reusing a
    /// cached one when available.
    pub fn checkout(&self, min_elems: usize) -> StrassenWorkspace<T> {
        let cached = {
            let mut free = self.free.lock().expect("arena pool poisoned");
            // Largest-capacity arena first: avoids regrowing a small one
            // while a big one idles in the cache.
            let best = free
                .iter()
                .enumerate()
                .max_by_key(|(_, ws)| ws.capacity())
                .map(|(i, _)| i);
            best.map(|i| free.swap_remove(i))
        };
        self.checkouts.fetch_add(1, Ordering::Relaxed);
        if cached.is_none() {
            self.misses.fetch_add(1, Ordering::Relaxed);
        } else if cached.as_ref().is_some_and(|ws| ws.capacity() < min_elems) {
            self.grows.fetch_add(1, Ordering::Relaxed);
        }
        let mut ws = cached.unwrap_or_else(StrassenWorkspace::empty);
        ws.reserve(min_elems);
        ws
    }

    /// Snapshot of the pool's allocation counters.
    pub fn stats(&self) -> ArenaStats {
        ArenaStats {
            checkouts: self.checkouts.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            grows: self.grows.load(Ordering::Relaxed),
        }
    }

    /// Return an arena to the free list for future checkouts.
    pub fn give_back(&self, ws: StrassenWorkspace<T>) {
        self.free.lock().expect("arena pool poisoned").push(ws);
    }

    /// Pre-populate the pool with `count` arenas of `min_elems` capacity
    /// each, so the first execution allocates nothing.
    ///
    /// Undersized cached arenas are grown in place before any new one is
    /// allocated, so a long-lived pool warmed for successively larger
    /// problems tops out at `count * max(min_elems)` footprint instead
    /// of accumulating stale small arenas forever.
    pub fn warm(&self, count: usize, min_elems: usize) {
        let mut free = self.free.lock().expect("arena pool poisoned");
        for ws in free.iter_mut().take(count) {
            ws.reserve(min_elems);
        }
        for _ in free.len()..count {
            free.push(StrassenWorkspace::with_capacity(min_elems));
        }
    }

    /// Number of arenas currently cached.
    pub fn cached(&self) -> usize {
        self.free.lock().expect("arena pool poisoned").len()
    }

    /// Total cached capacity in elements (the pool's memory footprint).
    pub fn cached_elems(&self) -> usize {
        self.free
            .lock()
            .expect("arena pool poisoned")
            .iter()
            .map(|ws| ws.capacity())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkout_from_empty_pool_allocates() {
        let pool = ArenaPool::<f64>::new();
        let ws = pool.checkout(128);
        assert!(ws.capacity() >= 128);
        assert_eq!(pool.cached(), 0);
        pool.give_back(ws);
        assert_eq!(pool.cached(), 1);
    }

    #[test]
    fn checkout_reuses_returned_arena() {
        let pool = ArenaPool::<f64>::new();
        let ws = pool.checkout(256);
        pool.give_back(ws);
        let ws2 = pool.checkout(64);
        // Got the cached 256-capacity arena back, not a fresh 64 one.
        assert!(ws2.capacity() >= 256);
        assert_eq!(pool.cached(), 0);
    }

    #[test]
    fn largest_arena_is_handed_out_first() {
        let pool = ArenaPool::<f64>::new();
        pool.give_back(StrassenWorkspace::with_capacity(32));
        pool.give_back(StrassenWorkspace::with_capacity(512));
        pool.give_back(StrassenWorkspace::with_capacity(128));
        assert_eq!(pool.checkout(0).capacity(), 512);
        assert_eq!(pool.checkout(0).capacity(), 128);
        assert_eq!(pool.checkout(0).capacity(), 32);
    }

    #[test]
    fn warm_prepopulates_to_count() {
        let pool = ArenaPool::<f64>::new();
        pool.warm(3, 100);
        assert_eq!(pool.cached(), 3);
        assert!(pool.cached_elems() >= 300);
        // Warming again with a smaller floor adds nothing.
        pool.warm(3, 50);
        assert_eq!(pool.cached(), 3);
    }

    #[test]
    fn warm_grows_in_place_instead_of_accumulating() {
        // Re-warming for successively larger problems must not leak
        // stale small arenas: count stays fixed, capacities grow.
        let pool = ArenaPool::<f64>::new();
        for elems in [10usize, 100, 1000] {
            pool.warm(2, elems);
            assert_eq!(pool.cached(), 2, "warm({elems}) accumulated arenas");
        }
        assert_eq!(pool.cached_elems(), 2 * 1000);
    }

    #[test]
    fn stats_track_misses_and_grows() {
        let pool = ArenaPool::<f64>::new();
        assert_eq!(pool.stats(), ArenaStats::default());
        // First checkout: a miss (fresh allocation).
        let ws = pool.checkout(64);
        assert_eq!(pool.stats().misses, 1);
        pool.give_back(ws);
        // Steady state: cached arena at sufficient capacity — no new
        // misses, no grows, only checkouts.
        for _ in 0..5 {
            let ws = pool.checkout(64);
            pool.give_back(ws);
        }
        let s = pool.stats();
        assert_eq!((s.checkouts, s.misses, s.grows), (6, 1, 0));
        // An oversized request regrows the cached arena.
        let ws = pool.checkout(256);
        pool.give_back(ws);
        assert_eq!(pool.stats().grows, 1);
    }

    #[test]
    fn concurrent_checkout_is_safe() {
        let pool = ArenaPool::<f64>::new();
        pool.warm(4, 64);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..50 {
                        let ws = pool.checkout(64);
                        pool.give_back(ws);
                    }
                });
            }
        });
        assert_eq!(pool.cached(), 4);
    }
}
