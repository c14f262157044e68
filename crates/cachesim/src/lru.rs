//! The ideal cache: fully associative, capacity `M` words, lines of `b`
//! words, LRU replacement.
//!
//! This is the machine model of Frigo, Leiserson, Prokop and
//! Ramachandran's cache-oblivious framework, which Proposition 3.1 of
//! the paper builds on. "Ideal" means full associativity and optimal-ish
//! (LRU is 2-competitive) replacement — no conflict misses, so measured
//! miss counts track the Θ-bounds cleanly.
//!
//! The implementation is a hash map from line number to a slot in an
//! intrusive doubly-linked list kept in most-recent-first order; all
//! operations are O(1).

use std::collections::HashMap;

const NIL: usize = usize::MAX;

/// One resident cache line.
#[derive(Debug, Clone, Copy)]
struct Slot {
    line: u64,
    prev: usize,
    next: usize,
}

/// Fully-associative LRU cache over abstract word addresses.
#[derive(Debug, Clone)]
pub struct IdealCache {
    /// Words per line (`b`).
    line_words: usize,
    /// Maximum resident lines (`M / b`).
    max_lines: usize,
    map: HashMap<u64, usize>,
    slots: Vec<Slot>,
    head: usize, // most recently used
    tail: usize, // least recently used
    free: Vec<usize>,
    hits: u64,
    misses: u64,
}

impl IdealCache {
    /// Cache with capacity `capacity_words` (`M`) and `line_words` (`b`)
    /// words per line.
    ///
    /// # Panics
    /// If `line_words == 0` or the capacity holds no complete line.
    pub fn new(capacity_words: usize, line_words: usize) -> Self {
        assert!(line_words > 0, "line size must be positive");
        let max_lines = capacity_words / line_words;
        assert!(max_lines > 0, "cache must hold at least one line");
        Self {
            line_words,
            max_lines,
            map: HashMap::with_capacity(max_lines * 2),
            slots: Vec::with_capacity(max_lines),
            head: NIL,
            tail: NIL,
            free: Vec::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Total accesses so far.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses so far (the `Q(n; M, b)` of the cache-oblivious
    /// bounds).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of currently resident lines.
    pub fn resident(&self) -> usize {
        self.map.len()
    }

    /// Reset statistics, keeping the resident set.
    pub(crate) fn reset_stats(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }

    /// Drop the entire resident set and statistics (cold cache).
    pub fn flush(&mut self) {
        self.map.clear();
        self.slots.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
        self.reset_stats();
    }

    /// Touch word address `addr`; returns `true` on a hit.
    pub fn access(&mut self, addr: u64) -> bool {
        let line = addr / self.line_words as u64;
        if let Some(&slot) = self.map.get(&line) {
            self.hits += 1;
            self.move_to_front(slot);
            true
        } else {
            self.misses += 1;
            if self.map.len() == self.max_lines {
                self.evict_lru();
            }
            let slot = self.alloc_slot(line);
            self.map.insert(line, slot);
            self.push_front(slot);
            false
        }
    }

    fn alloc_slot(&mut self, line: u64) -> usize {
        if let Some(s) = self.free.pop() {
            self.slots[s] = Slot {
                line,
                prev: NIL,
                next: NIL,
            };
            s
        } else {
            self.slots.push(Slot {
                line,
                prev: NIL,
                next: NIL,
            });
            self.slots.len() - 1
        }
    }

    fn push_front(&mut self, slot: usize) {
        self.slots[slot].prev = NIL;
        self.slots[slot].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }

    fn unlink(&mut self, slot: usize) {
        let Slot { prev, next, .. } = self.slots[slot];
        if prev != NIL {
            self.slots[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn move_to_front(&mut self, slot: usize) {
        if self.head == slot {
            return;
        }
        self.unlink(slot);
        self.push_front(slot);
    }

    fn evict_lru(&mut self) {
        let victim = self.tail;
        debug_assert_ne!(victim, NIL, "evict on empty cache");
        let line = self.slots[victim].line;
        self.unlink(victim);
        self.map.remove(&line);
        self.free.push(victim);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_scan_misses_once_per_line() {
        let mut c = IdealCache::new(64, 8);
        for addr in 0..256u64 {
            c.access(addr);
        }
        assert_eq!(c.misses(), 256 / 8);
        assert_eq!(c.hits(), 256 - 256 / 8);
        assert_eq!(c.accesses(), 256);
    }

    #[test]
    fn working_set_within_capacity_never_re_misses() {
        let mut c = IdealCache::new(128, 8); // 16 lines
        for pass in 0..5 {
            for addr in 0..128u64 {
                c.access(addr);
            }
            if pass == 0 {
                assert_eq!(c.misses(), 16, "cold pass");
            }
        }
        assert_eq!(c.misses(), 16, "warm passes are free");
        assert_eq!(c.resident(), 16);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = IdealCache::new(2, 1); // two 1-word lines
        c.access(0);
        c.access(1);
        c.access(0); // 0 is now MRU
        c.access(2); // evicts 1
        assert!(c.access(0), "0 must still be resident");
        assert!(!c.access(1), "1 must have been evicted");
        // That re-access of 1 evicted 2 (LRU was 2 after access(0)).
        assert!(!c.access(2));
    }

    #[test]
    fn cyclic_scan_larger_than_cache_always_misses() {
        // The classic LRU worst case: a cyclic scan over M + b words
        // re-misses every line forever.
        let mut c = IdealCache::new(32, 1);
        for _ in 0..3 {
            for addr in 0..33u64 {
                c.access(addr);
            }
        }
        assert_eq!(c.misses(), 99, "every access misses");
    }

    #[test]
    fn line_granularity_groups_addresses() {
        let mut c = IdealCache::new(1024, 16);
        c.access(0);
        assert!(c.access(15), "same line");
        assert!(!c.access(16), "next line");
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn flush_and_reset() {
        let mut c = IdealCache::new(64, 8);
        for a in 0..64u64 {
            c.access(a);
        }
        c.reset_stats();
        assert_eq!(c.accesses(), 0);
        assert!(c.resident() > 0, "reset keeps residents");
        c.access(0);
        assert_eq!(c.hits(), 1, "still warm");
        c.flush();
        assert_eq!(c.resident(), 0);
        c.access(0);
        assert_eq!(c.misses(), 1, "cold after flush");
    }

    #[test]
    #[should_panic(expected = "at least one line")]
    fn undersized_cache_rejected() {
        let _ = IdealCache::new(4, 8);
    }

    #[test]
    fn stress_random_accesses_maintain_invariants() {
        // Cheap LCG; checks map/list consistency under churn.
        let mut c = IdealCache::new(256, 4);
        let mut x = 0x2545f4914f6cdd1du64;
        for _ in 0..10_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            c.access(x % 4096);
            assert!(c.resident() <= 256 / 4, "at most M / b lines resident");
        }
        assert_eq!(c.accesses(), 10_000);
        assert_eq!(c.hits() + c.misses(), 10_000);
    }
}
