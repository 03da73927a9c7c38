//! Deterministic admission scheduler: the single-threaded state machine
//! under the front-end's lock.
//!
//! All policy lives here — bounded FIFO queues per class, slot limits,
//! deadline expiry, rejection accounting, retry-after estimation — and the
//! caller supplies every timestamp, so the whole machine is replayable:
//! the proptest suite drives it through random interleavings without any
//! real threads or clocks and checks the invariants exactly.

use std::collections::VecDeque;

/// Admission class a request competes in. Ingest and query contend for
/// different storage-node resources (write bandwidth + split CPU vs. read
/// bandwidth + decode CPU), so each class has its own slots and queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// Write path: `ingest`.
    Ingest,
    /// Read path: `query` / `query_range`.
    Query,
}

impl Class {
    /// Both classes, in stable order (used to size per-class state).
    pub const ALL: [Class; 2] = [Class::Ingest, Class::Query];

    /// Stable lowercase name used in telemetry metric names.
    pub fn name(self) -> &'static str {
        match self {
            Class::Ingest => "ingest",
            Class::Query => "query",
        }
    }

    pub(crate) fn idx(self) -> usize {
        match self {
            Class::Ingest => 0,
            Class::Query => 1,
        }
    }
}

/// Per-class lifetime counters. At quiescence (empty queue, nothing
/// running) they satisfy `submitted == admitted + rejected + expired` and
/// `completed == admitted`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassCounters {
    /// Requests offered to `submit`.
    pub submitted: u64,
    /// Requests that reached a slot and started executing.
    pub admitted: u64,
    /// Requests shed at submit time because the queue was full.
    pub rejected: u64,
    /// Requests whose deadline elapsed while queued.
    pub expired: u64,
    /// Requests that finished executing.
    pub completed: u64,
}

/// Why a submission was refused, with the data the typed error carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rejection {
    /// Requests already waiting when this one arrived.
    pub queue_depth: usize,
    /// Suggested back-off in nanoseconds.
    pub retry_after_ns: u64,
}

/// Outcome of a `pop`: either a job to run or one that died in the queue.
#[derive(Debug)]
pub enum Popped<T> {
    /// A slot was taken. Run the job, then call [`SchedulerCore::complete`].
    Start {
        /// Monotonic per-core admission id (FIFO within a class).
        id: u64,
        /// The queued payload.
        job: T,
        /// Nanoseconds the job waited in the queue.
        waited_ns: u64,
    },
    /// The deadline elapsed while the job waited; no slot was consumed.
    Expired {
        /// Monotonic per-core admission id.
        id: u64,
        /// The queued payload (so the caller can answer its client).
        job: T,
        /// Nanoseconds the job waited before being declared dead.
        waited_ns: u64,
        /// The relative deadline the job carried, in nanoseconds.
        deadline_ns: u64,
    },
}

#[derive(Debug)]
struct Queued<T> {
    id: u64,
    job: T,
    enqueued_ns: u64,
    /// Absolute expiry instant (queue-relative clock), if any.
    expires_ns: Option<u64>,
    /// The relative deadline, kept for the typed error.
    deadline_ns: u64,
}

#[derive(Debug)]
struct ClassState<T> {
    slots: usize,
    capacity: usize,
    queue: VecDeque<Queued<T>>,
    running: usize,
    queue_hwm: usize,
    counters: ClassCounters,
    service_ns_total: u64,
}

impl<T> ClassState<T> {
    fn new(slots: usize, capacity: usize) -> ClassState<T> {
        ClassState {
            slots: slots.max(1),
            capacity: capacity.max(1),
            queue: VecDeque::new(),
            running: 0,
            queue_hwm: 0,
            counters: ClassCounters::default(),
            service_ns_total: 0,
        }
    }
}

/// The admission state machine. `T` is the queued payload; the front-end
/// queues the sender of each request's wake channel, the tests use plain
/// ids.
#[derive(Debug)]
pub struct SchedulerCore<T> {
    classes: [ClassState<T>; 2],
    retry_floor_ns: u64,
    next_id: u64,
}

impl<T> SchedulerCore<T> {
    /// Build a core with `(slots, queue capacity)` per class and a floor
    /// for the retry-after estimate.
    pub fn new(
        ingest: (usize, usize),
        query: (usize, usize),
        retry_floor_ns: u64,
    ) -> SchedulerCore<T> {
        SchedulerCore {
            classes: [
                ClassState::new(ingest.0, ingest.1),
                ClassState::new(query.0, query.1),
            ],
            retry_floor_ns: retry_floor_ns.max(1),
            next_id: 0,
        }
    }

    /// Offer a job. `deadline_ns` is relative to `now_ns`. Returns the
    /// admission id, or a [`Rejection`] if the class queue is full.
    pub fn submit(
        &mut self,
        class: Class,
        job: T,
        now_ns: u64,
        deadline_ns: Option<u64>,
    ) -> Result<u64, Rejection> {
        let retry = self.retry_after_ns(class);
        let st = &mut self.classes[class.idx()];
        st.counters.submitted += 1;
        if st.queue.len() >= st.capacity {
            st.counters.rejected += 1;
            return Err(Rejection {
                queue_depth: st.queue.len(),
                retry_after_ns: retry,
            });
        }
        let id = self.next_id;
        self.next_id += 1;
        let st = &mut self.classes[class.idx()];
        st.queue.push_back(Queued {
            id,
            job,
            enqueued_ns: now_ns,
            expires_ns: deadline_ns.map(|d| now_ns.saturating_add(d)),
            deadline_ns: deadline_ns.unwrap_or(0),
        });
        st.queue_hwm = st.queue_hwm.max(st.queue.len());
        Ok(id)
    }

    /// Take the oldest queued job of `class` if a slot is free. Expired
    /// jobs are reported (oldest first) without consuming a slot; a
    /// `Start` consumes a slot that [`SchedulerCore::complete`] releases.
    pub fn pop(&mut self, class: Class, now_ns: u64) -> Option<Popped<T>> {
        let st = &mut self.classes[class.idx()];
        if st.running >= st.slots {
            return None;
        }
        let q = st.queue.pop_front()?;
        let waited_ns = now_ns.saturating_sub(q.enqueued_ns);
        if q.expires_ns.is_some_and(|t| now_ns > t) {
            st.counters.expired += 1;
            return Some(Popped::Expired {
                id: q.id,
                job: q.job,
                waited_ns,
                deadline_ns: q.deadline_ns,
            });
        }
        st.running += 1;
        st.counters.admitted += 1;
        Some(Popped::Start {
            id: q.id,
            job: q.job,
            waited_ns,
        })
    }

    /// [`SchedulerCore::pop`] until nothing more can leave the queue of
    /// `class` at `now_ns`, handing `leave` each outcome together with the
    /// depth of the line it left behind. Afterwards no job of `class` is
    /// queued beside a free slot. A front-end without idle workers ends
    /// every critical section that enqueued a job or freed a slot with
    /// this, so a queued job is always behind `slots` running ones, and
    /// each of those drains again when it completes.
    pub fn drain(&mut self, class: Class, now_ns: u64, mut leave: impl FnMut(Popped<T>, usize)) {
        while let Some(popped) = self.pop(class, now_ns) {
            leave(popped, self.queue_depth(class));
        }
    }

    /// Release the slot a `Start` consumed and record its service time,
    /// which feeds the retry-after estimate.
    pub fn complete(&mut self, class: Class, service_ns: u64) {
        let st = &mut self.classes[class.idx()];
        st.running = st.running.saturating_sub(1);
        st.counters.completed += 1;
        st.service_ns_total = st.service_ns_total.saturating_add(service_ns);
    }

    /// Back-off hint for a rejected client: mean observed service time ×
    /// (queue depth / slots), floored so early rejections (no completions
    /// yet) still carry a usable hint.
    pub fn retry_after_ns(&self, class: Class) -> u64 {
        let st = &self.classes[class.idx()];
        let mean = st
            .service_ns_total
            .checked_div(st.counters.completed)
            .unwrap_or(0);
        let backlog = (st.queue.len() as u64 / st.slots as u64).max(1);
        mean.saturating_mul(backlog).max(self.retry_floor_ns)
    }

    /// Current queue depth for `class`.
    pub fn queue_depth(&self, class: Class) -> usize {
        self.classes[class.idx()].queue.len()
    }

    /// Highest queue depth ever observed for `class`.
    pub fn queue_hwm(&self, class: Class) -> usize {
        self.classes[class.idx()].queue_hwm
    }

    /// Jobs of `class` currently holding a slot.
    pub fn running(&self, class: Class) -> usize {
        self.classes[class.idx()].running
    }

    /// Configured slot limit for `class`.
    pub fn slots(&self, class: Class) -> usize {
        self.classes[class.idx()].slots
    }

    /// Lifetime counters for `class`.
    pub fn counters(&self, class: Class) -> ClassCounters {
        self.classes[class.idx()].counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn core() -> SchedulerCore<u32> {
        SchedulerCore::new((1, 2), (2, 3), 1_000)
    }

    #[test]
    fn class_names_are_stable() {
        assert_eq!(Class::Ingest.name(), "ingest");
        assert_eq!(Class::Query.name(), "query");
        assert_eq!(Class::ALL.len(), 2);
    }

    #[test]
    fn fifo_within_class_and_slot_limit() {
        let mut c = core();
        for i in 0..3 {
            c.submit(Class::Query, i, 0, None).unwrap();
        }
        let a = c.pop(Class::Query, 10).unwrap();
        let b = c.pop(Class::Query, 10).unwrap();
        let (ia, ib) = match (a, b) {
            (Popped::Start { id: ia, .. }, Popped::Start { id: ib, .. }) => (ia, ib),
            _ => panic!("expected two starts"),
        };
        assert!(ia < ib, "FIFO violated");
        assert_eq!(c.running(Class::Query), 2);
        // Both slots taken: third job must wait.
        assert!(c.pop(Class::Query, 10).is_none());
        c.complete(Class::Query, 5);
        assert!(matches!(
            c.pop(Class::Query, 20),
            Some(Popped::Start { .. })
        ));
    }

    #[test]
    fn full_queue_rejects_with_depth_and_retry_hint() {
        let mut c = core();
        c.submit(Class::Ingest, 0, 0, None).unwrap();
        c.submit(Class::Ingest, 1, 0, None).unwrap();
        let rej = c.submit(Class::Ingest, 2, 0, None).unwrap_err();
        assert_eq!(rej.queue_depth, 2);
        assert!(rej.retry_after_ns >= 1_000, "floor applies pre-completion");
        let n = c.counters(Class::Ingest);
        assert_eq!((n.submitted, n.rejected), (3, 1));
    }

    #[test]
    fn deadline_expires_in_queue_without_consuming_a_slot() {
        let mut c = core();
        c.submit(Class::Query, 7, 100, Some(50)).unwrap();
        match c.pop(Class::Query, 200) {
            Some(Popped::Expired {
                job,
                waited_ns,
                deadline_ns,
                ..
            }) => {
                assert_eq!(job, 7);
                assert_eq!(waited_ns, 100);
                assert_eq!(deadline_ns, 50);
            }
            other => panic!("expected expiry, got {:?}", other),
        }
        assert_eq!(c.running(Class::Query), 0);
        assert_eq!(c.counters(Class::Query).expired, 1);
    }

    #[test]
    fn deadline_met_when_popped_in_time() {
        let mut c = core();
        c.submit(Class::Query, 7, 100, Some(50)).unwrap();
        assert!(matches!(
            c.pop(Class::Query, 140),
            Some(Popped::Start { .. })
        ));
    }

    #[test]
    fn retry_after_tracks_mean_service_time() {
        let mut c = core();
        c.submit(Class::Query, 0, 0, None).unwrap();
        assert!(matches!(c.pop(Class::Query, 0), Some(Popped::Start { .. })));
        c.complete(Class::Query, 80_000);
        assert_eq!(c.retry_after_ns(Class::Query), 80_000);
    }

    #[test]
    fn classes_are_independent() {
        let mut c = core();
        c.submit(Class::Ingest, 0, 0, None).unwrap();
        c.submit(Class::Query, 1, 0, None).unwrap();
        assert!(matches!(
            c.pop(Class::Ingest, 1),
            Some(Popped::Start { .. })
        ));
        assert_eq!(c.running(Class::Query), 0);
        assert_eq!(c.queue_depth(Class::Query), 1);
    }
}
