//! Lock-ordering fixture: `ab` takes `a` then `b` directly, while `ba`
//! takes `b` and then calls `grab_a`, so the propagated edge `b -> a`
//! closes a cycle with the direct edge `a -> b`.
#![forbid(unsafe_code)]

use ada_sync::Mutex;

/// Engine with two independent locks.
pub struct Eng {
    a: Mutex<u32>,
    b: Mutex<u32>,
}

impl Eng {
    /// Direct edge: acquires `a`, then `b` while `a` is held.
    pub fn ab(&self) -> u32 {
        let ga = self.a.lock();
        let gb = self.b.lock();
        *ga + *gb
    }

    /// Transitive acquisition of `a` (no second lock here).
    pub fn grab_a(&self) -> u32 {
        let ga = self.a.lock();
        *ga
    }

    /// Propagated edge: holds `b` across a call that acquires `a`.
    pub fn ba(&self) -> u32 {
        let gb = self.b.lock();
        *gb + self.grab_a()
    }

    /// Consistent order: drops `a` before taking `b` — no reverse edge.
    pub fn consistent(&self) -> u32 {
        let ga = self.a.lock();
        let x = *ga;
        drop(ga);
        let gb = self.b.lock();
        x + *gb
    }
}
