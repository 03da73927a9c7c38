//! Property suite over [`SchedulerCore`]: random arrival / completion
//! interleavings, driven on a logical clock with no threads, must
//!
//! * never exceed the configured slot limits,
//! * preserve FIFO order within a class (admission ids start in order),
//! * account every request exactly once
//!   (`admitted + rejected + expired == submitted`, `completed == admitted`
//!   at quiescence),
//! * never observe a queue deeper than its capacity.
//!
//! A second driver uses the core the way the thread-less `Frontend` does —
//! every submit and every completion ends with a `drain`, nothing else pops
//! — and checks the invariant that replaces "idle workers exist": after
//! every step, no job is queued beside a free slot.
//!
//! The core is deterministic given the op sequence, so every failure here
//! replays exactly — this is the "deterministic concurrency test suite"
//! half of the front-end's trust story; `tests/concurrent_clients.rs` at
//! the workspace root covers the genuinely-threaded half.

use ada_frontend::{Class, Popped, SchedulerCore};
use proptest::prelude::*;

/// One step of the driver. Ops are interpreted against whichever class
/// the step selects, and completions only apply when something runs.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Submit a job (deadline in logical ns, 0 = none).
    Submit { query: bool, deadline: u64 },
    /// Try to start (or expire) the oldest queued job.
    Pop { query: bool },
    /// Finish one running job, releasing its slot.
    Complete { query: bool, service_ns: u64 },
    /// Advance the logical clock.
    Tick { ns: u64 },
}

fn class_of(query: bool) -> Class {
    if query {
        Class::Query
    } else {
        Class::Ingest
    }
}

/// Decode a `(code, a, b)` triple into an [`Op`]; proptest generates the
/// triples, this keeps the strategy primitive-only (the vendored proptest
/// has no `prop_oneof`).
fn decode(code: u8, a: u64, b: u64) -> Op {
    let query = a % 2 == 0;
    match code % 4 {
        0 => Op::Submit {
            query,
            deadline: if b % 3 == 0 { b % 5_000 } else { 0 },
        },
        1 => Op::Pop { query },
        2 => Op::Complete {
            query,
            service_ns: b % 10_000,
        },
        _ => Op::Tick { ns: b % 2_000 },
    }
}

/// Drive `core` through the decoded op list, checking stepwise invariants
/// and returning the logical end time.
fn drive(core: &mut SchedulerCore<u64>, ops: &[(u8, u64, u64)]) -> Result<u64, TestCaseError> {
    let mut now = 0u64;
    let mut next_job = 0u64;
    // Per class: ids handed out by `Start`, to check FIFO.
    let mut last_started: [Option<u64>; 2] = [None, None];
    for &(code, a, b) in ops {
        match decode(code, a, b) {
            Op::Submit { query, deadline } => {
                let class = class_of(query);
                let before = core.queue_depth(class);
                let res = core.submit(class, next_job, now, (deadline > 0).then_some(deadline));
                next_job += 1;
                match res {
                    Ok(_) => prop_assert!(core.queue_depth(class) == before + 1),
                    Err(rej) => {
                        prop_assert_eq!(rej.queue_depth, before);
                        prop_assert!(rej.retry_after_ns > 0, "retry hint must be usable");
                    }
                }
            }
            Op::Pop { query } => {
                let class = class_of(query);
                if let Some(Popped::Start { id, .. }) = core.pop(class, now) {
                    let slot = if query { 1 } else { 0 };
                    if let Some(prev) = last_started[slot] {
                        prop_assert!(id > prev, "FIFO violated: started {} after {}", id, prev);
                    }
                    last_started[slot] = Some(id);
                }
            }
            Op::Complete { query, service_ns } => {
                let class = class_of(query);
                if core.running(class) > 0 {
                    core.complete(class, service_ns);
                }
            }
            Op::Tick { ns } => now += ns,
        }
        for class in Class::ALL {
            prop_assert!(
                core.running(class) <= core.slots(class),
                "slot limit exceeded for {}",
                class.name()
            );
        }
    }
    Ok(now)
}

/// Finish everything still queued or running so the lifetime counters can
/// be balanced: pop (far in the future, so stragglers with deadlines
/// expire) until the queue is dry, completing as needed to free slots.
fn quiesce(core: &mut SchedulerCore<u64>, mut now: u64) {
    for class in Class::ALL {
        loop {
            now += 1;
            match core.pop(class, now) {
                Some(Popped::Start { .. }) => core.complete(class, 1),
                Some(Popped::Expired { .. }) => {}
                None => {
                    if core.running(class) > 0 {
                        core.complete(class, 1);
                        continue;
                    }
                    if core.queue_depth(class) == 0 {
                        break;
                    }
                    // Queue non-empty with free slots: next pop drains it.
                }
            }
        }
    }
}

/// Drive `core` the way `Frontend` does: a submit and a completion each end
/// with a drain at the current logical time, and nothing pops outside one.
/// Checks after every step that no job waits beside a free slot (the
/// no-lost-wake-up invariant), FIFO starts and exact accounting; then
/// completes everything and requires the queue to have emptied itself.
fn drive_draining(
    core: &mut SchedulerCore<u64>,
    ops: &[(u8, u64, u64)],
) -> Result<(), TestCaseError> {
    let mut now = 0u64;
    let mut next_job = 0u64;
    let mut last_started: [Option<u64>; 2] = [None, None];
    // Drain `class` as a critical section's last act: starts come out in id
    // order, and each outcome is handed the depth it left behind.
    let mut drain = |core: &mut SchedulerCore<u64>, class: Class, now: u64| {
        let mut left = Vec::new();
        core.drain(class, now, |popped, depth| {
            let started = match popped {
                Popped::Start { id, .. } => Some(id),
                Popped::Expired { .. } => None,
            };
            left.push((started, depth));
        });
        let slot = if class == Class::Query { 1 } else { 0 };
        for (i, (started, depth)) in left.iter().enumerate() {
            prop_assert_eq!(*depth, core.queue_depth(class) + left.len() - 1 - i);
            if let Some(id) = *started {
                if let Some(prev) = last_started[slot] {
                    prop_assert!(id > prev, "FIFO violated: started {} after {}", id, prev);
                }
                last_started[slot] = Some(id);
            }
        }
        Ok(())
    };
    for &(code, a, b) in ops {
        match decode(code, a, b) {
            Op::Submit { query, deadline } => {
                let class = class_of(query);
                // A shed submit changed nothing, but draining after it is
                // what the front-end's one code path would cost anyway.
                let _ = core.submit(class, next_job, now, (deadline > 0).then_some(deadline));
                next_job += 1;
                drain(core, class, now)?;
            }
            Op::Complete { query, service_ns } => {
                let class = class_of(query);
                if core.running(class) > 0 {
                    core.complete(class, service_ns);
                    drain(core, class, now)?;
                }
            }
            // The front-end never pops outside a drain.
            Op::Pop { .. } => {}
            Op::Tick { ns } => now += ns,
        }
        for class in Class::ALL {
            prop_assert!(
                core.running(class) <= core.slots(class),
                "slot limit exceeded for {}",
                class.name()
            );
            prop_assert!(
                core.queue_depth(class) == 0 || core.running(class) == core.slots(class),
                "{}: {} queued beside {} of {} slots taken — nobody is left to start them",
                class.name(),
                core.queue_depth(class),
                core.running(class),
                core.slots(class)
            );
            let n = core.counters(class);
            prop_assert_eq!(
                n.admitted + n.rejected + n.expired + core.queue_depth(class) as u64,
                n.submitted,
                "{} accounting broken: {:?}",
                class.name(),
                n
            );
        }
    }
    for class in Class::ALL {
        while core.running(class) > 0 {
            now += 1;
            core.complete(class, 1);
            drain(core, class, now)?;
        }
        let n = core.counters(class);
        prop_assert_eq!(n.completed, n.admitted);
        prop_assert_eq!(core.queue_depth(class), 0);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random interleavings over small slot/queue shapes.
    #[test]
    fn interleavings_respect_slots_fifo_and_accounting(
        ingest_slots in 1usize..4,
        query_slots in 1usize..4,
        ingest_queue in 1usize..6,
        query_queue in 1usize..6,
        ops in prop::collection::vec((0u8..8, 0u64..100, 0u64..10_000), 1..200),
    ) {
        let mut core: SchedulerCore<u64> = SchedulerCore::new(
            (ingest_slots, ingest_queue),
            (query_slots, query_queue),
            1_000,
        );
        let end = drive(&mut core, &ops)?;
        for class in Class::ALL {
            prop_assert!(core.queue_hwm(class) <= match class {
                Class::Ingest => ingest_queue,
                Class::Query => query_queue,
            });
        }
        quiesce(&mut core, end);
        for class in Class::ALL {
            let n = core.counters(class);
            prop_assert_eq!(
                n.submitted,
                n.admitted + n.rejected + n.expired,
                "{} accounting broken: {:?}",
                class.name(),
                n
            );
            prop_assert_eq!(n.completed, n.admitted);
            prop_assert_eq!(core.queue_depth(class), 0);
            prop_assert_eq!(core.running(class), 0);
        }
    }

    /// The same interleavings with a drain after every submit and
    /// completion: a queued job is always behind a full set of slots.
    #[test]
    fn draining_never_leaves_a_job_beside_a_free_slot(
        ingest_slots in 1usize..4,
        query_slots in 1usize..4,
        ingest_queue in 1usize..6,
        query_queue in 1usize..6,
        ops in prop::collection::vec((0u8..8, 0u64..100, 0u64..10_000), 1..200),
    ) {
        let mut core: SchedulerCore<u64> = SchedulerCore::new(
            (ingest_slots, ingest_queue),
            (query_slots, query_queue),
            1_000,
        );
        drive_draining(&mut core, &ops)?;
    }

    /// Saturating a class never lets the queue grow past capacity, and
    /// every overflow is a typed rejection carrying the true depth.
    #[test]
    fn saturation_rejects_exactly_past_capacity(
        capacity in 1usize..8,
        extra in 1usize..8,
    ) {
        let mut core: SchedulerCore<u64> = SchedulerCore::new((1, capacity), (1, capacity), 500);
        let mut rejected = 0u64;
        for j in 0..(capacity + extra) as u64 {
            if let Err(rej) = core.submit(Class::Query, j, 0, None) {
                prop_assert_eq!(rej.queue_depth, capacity);
                rejected += 1;
            }
        }
        prop_assert_eq!(rejected, extra as u64);
        prop_assert_eq!(core.queue_hwm(Class::Query), capacity);
    }
}
