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
//! And every guarded state — scheduler slots, cache shards, file tables,
//! trace rings — is bookkeeping updated in steps that each leave it
//! valid, so there is no half-written invariant for the flag to protect.
//!
//! **No lock is taken under another.** In a debug build each thread
//! notes whether it holds an `ada_sync` guard, and `lock()` refuses
//! (panics) while it does — before it blocks, so a nested lock is a
//! failed test, not a hang. That is stronger than a lock order: no two
//! locks can ever form a cycle, whichever trait object or callback the
//! inner one hides behind. Release builds compile the check out.

use std::cell::Cell;
use std::ops::{Deref, DerefMut};

thread_local! {
    /// Whether this thread holds an `ada_sync` guard (debug builds only;
    /// refusing a second one keeps the count at zero or one).
    static HELD: Cell<bool> = const { Cell::new(false) };
}

/// A mutual-exclusion lock whose `lock()` cannot fail.
#[derive(Debug, Default)]
pub struct Mutex<T>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Wrap `value` in a new, unlocked mutex.
    pub const fn new(value: T) -> Mutex<T> {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Block until the lock is free and take it, poisoned or not. In a
    /// debug build, taking it while this thread holds another `ada_sync`
    /// guard panics.
    pub fn lock(&self) -> Guard<'_, T> {
        if cfg!(debug_assertions) {
            HELD.with(|held| {
                assert!(
                    !held.get(),
                    "ada_sync::Mutex locked while this thread holds another ada_sync guard"
                );
                held.set(true);
            });
        }
        Guard(self.0.lock().unwrap_or_else(|e| e.into_inner()))
    }
}

/// The held lock; releases it on drop.
#[derive(Debug)]
pub struct Guard<'a, T>(std::sync::MutexGuard<'a, T>);

impl<T> Drop for Guard<'_, T> {
    fn drop(&mut self) {
        if cfg!(debug_assertions) {
            HELD.with(|held| held.set(false));
        }
    }
}

impl<T> Deref for Guard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> DerefMut for Guard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
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

    #[test]
    #[cfg(debug_assertions)]
    fn a_lock_taken_under_another_is_refused() {
        let (a, b) = (Mutex::new(0), Mutex::new(0));
        let nested = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _outer = a.lock();
            let _inner = b.lock();
        }));
        assert!(nested.is_err());
        // The refused lock was never taken and the outer guard unwound:
        // the thread holds nothing, so each lock is free again.
        *a.lock() += 1;
        *b.lock() += 1;
        assert_eq!(*a.lock(), 1);
        assert_eq!(*b.lock(), 1);
    }
}
