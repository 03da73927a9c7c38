//! Blocking-under-lock fixture: channel ops and joins while a guard is
//! live, plus the safe shapes (drop first, suppressed site) for contrast.
#![forbid(unsafe_code)]

use ada_sync::Mutex;
use std::sync::mpsc::{Receiver, SyncSender};

/// Shared pipeline endpoints guarded by mutexes.
pub struct Pipe {
    state: Mutex<u64>,
    tx: SyncSender<u64>,
    rx: Mutex<Receiver<u64>>,
}

impl Pipe {
    /// Finding: sends on a bounded channel while `state` is held.
    pub fn send_under_lock(&self, v: u64) {
        let g = self.state.lock();
        let _ = self.tx.send(*g + v);
    }

    /// Finding: the chained temporary guard on `rx` is live during `recv`.
    pub fn chained_recv(&self) -> u64 {
        self.rx.lock().recv().unwrap_or(0)
    }

    /// Non-finding: the guard is dropped before the send.
    pub fn drop_then_send(&self, v: u64) {
        let g = self.state.lock();
        let x = *g + v;
        drop(g);
        let _ = self.tx.send(x);
    }

    /// Suppressed finding: the mandatory reason documents why it is safe.
    pub fn allowed_send(&self, v: u64) {
        let g = self.state.lock();
        // ada-lint: allow(no-blocking-under-lock) fixture: exercises the suppression path
        let _ = self.tx.send(*g + v);
    }
}

/// Finding: joins a worker while holding its result slot's lock.
pub fn join_under_lock(slot: &Mutex<u64>, h: std::thread::JoinHandle<u64>) {
    let mut g = slot.lock();
    *g = h.join().unwrap_or(0);
}
