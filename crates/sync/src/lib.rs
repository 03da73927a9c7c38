#![forbid(unsafe_code)]
#![deny(missing_docs)]

//! # ada-sync — the workspace's one lock
//!
//! [`Mutex`] is `std::sync::Mutex` with the poison flag ignored: `lock()`
//! hands back the guard whether or not an earlier holder panicked. It is
//! the same lock, at the same speed, as the one it wraps.
//!
//! Ignoring poison is right in this workspace for two reasons. A panic
//! under a request does not take the process down: `Frontend` answers it
//! as `AdaError::Internal` through its `catch_unwind`, and the next
//! request must still be able to take every lock the failed one held.
//! And every guarded state — scheduler slots, cache shards, container
//! indexes, device clocks, metric maps — is O(1) bookkeeping updated in
//! steps that each leave it valid, so there is no half-written invariant
//! for the flag to protect.

use std::sync::MutexGuard;

/// A mutual-exclusion lock whose `lock()` cannot fail.
#[derive(Debug, Default)]
pub struct Mutex<T>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Wrap `value` in a new, unlocked mutex.
    pub const fn new(value: T) -> Mutex<T> {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Block until the lock is free and take it, poisoned or not.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::Mutex;

    #[test]
    fn a_panic_under_the_lock_does_not_poison_it() {
        let m = Mutex::new(1);
        let held = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut g = m.lock();
            *g += 1;
            panic!("holder died");
        }));
        assert!(held.is_err());
        assert_eq!(*m.lock(), 2);
    }
}
