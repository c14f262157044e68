//! Fixture: serving-path constructs that must NOT trip any lint, even
//! under the strictest path scoping (`src/shard.rs`: unwrap scope +
//! lock scope).

use std::sync::Mutex;

/// Docs may talk about `unsafe { .. }`, `x.unwrap()` and
/// `std::thread::spawn` freely — comments are not code.
pub fn strings_are_not_code() -> &'static str {
    // Neither are string literals:
    "unsafe { std::thread::spawn(|| q.lock().unwrap()) }"
}

pub fn guard_cloned_out_then_send(q: &Mutex<Option<Sender<u8>>>, x: u8) {
    // The guard is a temporary: only the cloned sender lives on.
    let tx = q.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clone();
    if let Some(tx) = tx {
        let _ = tx.send(x);
    }
}

pub fn guard_dropped_before_send(q: &Mutex<Vec<u8>>, tx: &Sender<u8>) {
    let guard = q.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let first = guard.first().copied().unwrap_or(0);
    drop(guard);
    let _ = tx.send(first);
}

pub fn documented_invariant(x: Option<u8>) -> u8 {
    // ata-lint: allow(no-unwrap-in-lib): fixture proving the escape
    // hatch works, reason wrapped over two comment lines.
    x.expect("the fixture always passes Some")
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_may_spawn_and_unwrap() {
        let h = std::thread::spawn(|| 1u8);
        assert_eq!(h.join().unwrap(), 1);
    }
}
