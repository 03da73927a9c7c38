//! The admission front-end: every caller runs its own request against the
//! shared [`Ada`]; the deterministic [`SchedulerCore`] only says when.
//!
//! ## Concurrency shape
//!
//! The front-end owns no threads. All scheduling state lives in one
//! `ada_sync::Mutex<SchedulerCore>`, and each of the two critical
//! sections that can change who may run — a submit, which enqueues, and a
//! slot release, which frees a slot — ends with a *drain*
//! ([`SchedulerCore::drain`]): every job that can leave the queue now
//! leaves it. So whenever the lock is free, **no job is queued beside a
//! free slot**: a queued job is behind `slots` running ones, each of which
//! drains again when it finishes. That invariant is the whole liveness
//! argument; there are no idle workers to fall back on.
//!
//! A request is the closure its caller hands [`Frontend::run`]; the
//! scheduler never sees it. A submitter that finds a slot free (the
//! uncontended case) leaves the queue in its own drain, calls the request
//! on its own stack, and neither builds a wake channel nor touches another
//! thread. Otherwise it queues the sending end of a one-shot wake channel
//! and blocks on it until a finishing caller's drain hands it `Start` or
//! `Expired`. Wakes are collected under the lock and sent after it is
//! released; a wake channel (`sync_channel(1)`, read only by a request
//! that has to wait) holds one message and gets exactly one, so the send
//! never blocks.
//!
//! The queue's clock is the trace clock ([`trace::now_ns`]): the stamps
//! that order and expire the queue are also the queue-wait span's ends
//! and the service time's start, so no stamp is read twice.
//!
//! Nobody holds the scheduler lock while waiting or while touching
//! storage, so the lock guards only O(1) queue operations.
//!
//! ## Whose memory
//!
//! A request's multi-megabyte buffers (its input, the decoded frames, the
//! per-tag payloads, the reply) are allocated and freed on the caller's
//! thread, so they live in the *caller's* malloc arena, among whatever
//! else that thread keeps alive — for a program that calls the front-end
//! from `main`, glibc's `brk` heap. Whether that arena hands its top back
//! to the kernel after a request, and faults it in again for the next,
//! depends on glibc's trim threshold, which glibc moves by itself; see
//! [`settle_malloc_thresholds`], which [`Frontend::new`] runs so that the
//! first request is served like the millionth.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::{Arc, Once};
use std::time::Duration;

use ada_core::{Ada, AdaError, IngestInput, IngestReport, QueryReport};
use ada_mdmodel::Tag;
use ada_sync::Mutex;
use ada_telemetry::trace::{self, TraceContext};
use ada_telemetry::{key, Counter, Histogram, Snapshot};

use crate::config::FrontendConfig;
use crate::scheduler::{Class, Popped, SchedulerCore};
use crate::stats::{ClassStats, FrontendStats};

/// How a request left the queue: what its caller reads off its own drain
/// or, if it had to wait, is woken with.
#[derive(Debug, Clone, Copy)]
struct Left {
    waited_ns: u64,
    /// `None`: a slot is held in the request's name. `Some((deadline_ns,
    /// queue_depth))`: the deadline passed while it waited, and this deep
    /// was the line it left behind — both ride along as span args, so an
    /// expired request's trace says how deep the line it died in was.
    expired: Option<(u64, usize)>,
}

/// All the scheduler holds of a queued request: the sending end of the
/// one-shot channel its caller blocks on if it has to wait — `None` for a
/// request that was offered a free slot, which leaves the queue in its
/// own drain. The request, its client name and its trace context stay on
/// the caller's stack.
type Waiter = Option<SyncSender<Left>>;

/// Outcomes collected under the scheduler guard, delivered once it is gone.
type Wakes = Vec<(SyncSender<Left>, Left)>;

fn send_wakes(wakes: Wakes) {
    for (waiter, left) in wakes {
        // The receiver is blocked in `admit` until exactly this arrives.
        let _ = waiter.send(left);
    }
}

/// Put glibc's mmap and trim thresholds where a serving process ends up
/// anyway, before the first request instead of at some point during the
/// run. Once per process; two system calls; a no-op on other allocators.
///
/// glibc raises its mmap threshold to the size of the largest mmapped
/// block freed so far, up to `DEFAULT_MMAP_THRESHOLD_MAX` (32 MiB on
/// 64-bit), and keeps the trim threshold at twice that (`mallopt(3)`,
/// `M_MMAP_THRESHOLD`). An ingest of a 5 MB trajectory moves ≈ 40 MB
/// through the caller's arena; while the trim threshold is below that,
/// every release may return the top of the heap to the kernel and every
/// next request fault it in again — or may not, when a longer-lived
/// allocation happens to sit on top. Called from a main thread, the same
/// binary ran blocks of eight such ingests at 0, ≈ 40 k and ≈ 50 k page
/// faults (≈ 35 against ≈ 23 ops/s), changing mode between runs and
/// within one. Freeing one block just under the ceiling — never touched,
/// so never resident — ends the adjusting: nothing larger can move the
/// thresholds afterwards, and 64 MiB of trim threshold is above what a
/// request holds.
fn settle_malloc_thresholds() {
    /// One page of chunk header short of `DEFAULT_MMAP_THRESHOLD_MAX`,
    /// so the mapped chunk still counts as "at most the maximum".
    const JUST_UNDER_THE_CEILING: usize = (32 << 20) - (8 << 10);
    static SETTLED: Once = Once::new();
    SETTLED.call_once(|| drop(black_box(Vec::<u8>::with_capacity(JUST_UNDER_THE_CEILING))));
}

/// How many distinct client names get a `frontend.client.{name}.*` family
/// of their own. The name is whatever the peer put on the wire, so the
/// families must be bounded: every name past the first this many is
/// counted under `frontend.client.other.*`.
const CLIENT_FAMILIES_MAX: usize = 64;

/// One client family's admission outcomes.
#[derive(Debug, Default)]
struct Outcomes {
    accepted: Counter,
    rejected: Counter,
    deadline: Counter,
}

impl Outcomes {
    fn write(&self, snap: &mut Snapshot, client: &str) {
        let name = |what| key(&["frontend.client", client, what]);
        snap.counter(&name("accepted"), self.accepted.get());
        snap.counter(&name("rejected"), self.rejected.get());
        snap.counter(&name("deadline_exceeded"), self.deadline.get());
    }
}

/// What a `Frontend` counts beyond its scheduler's [`ClassCounters`]
/// (which the `frontend.{class}.*` counters and queue gauges read): the
/// queue wait per class and the outcomes per client name.
///
/// [`ClassCounters`]: crate::scheduler::ClassCounters
#[derive(Default)]
struct Metrics {
    wait: [Histogram; 2],
    /// The client names met so far, at most [`CLIENT_FAMILIES_MAX`] of
    /// them.
    clients: Mutex<BTreeMap<String, Outcomes>>,
    other: Outcomes,
}

impl Metrics {
    /// Count one outcome for `client`: one small-map lookup per request.
    fn note_client(&self, client: &str, outcome: impl Fn(&Outcomes) -> &Counter) {
        let mut clients = self.clients.lock();
        let counters = match clients.get(client) {
            Some(known) => known,
            None if clients.len() < CLIENT_FAMILIES_MAX => {
                clients.entry(client.to_string()).or_default()
            }
            None => &self.other,
        };
        outcome(counters).inc();
    }
}

/// Multi-client admission front-end over one shared [`Ada`].
///
/// Requests are submitted from any number of client threads via
/// [`Frontend::run`] (or the typed [`Frontend::ingest`] /
/// [`Frontend::query`] wrappers), which block until the request completes,
/// is shed with [`AdaError::Overloaded`], or dies in the queue with
/// [`AdaError::DeadlineExceeded`]. An admitted request executes on the
/// thread that submitted it while holding one of its class's slots, so at
/// most `ingest_slots + query_slots` callers are inside [`Ada`] at once.
pub struct Frontend {
    ada: Arc<Ada>,
    core: Mutex<SchedulerCore<Waiter>>,
    metrics: Option<Metrics>,
}

impl std::fmt::Debug for Frontend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Frontend")
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

/// One held slot. Dropping it — on success, error and unwind alike —
/// releases the slot and drains the queue in the same critical section,
/// which is what starts the next waiting request.
struct Slot<'a> {
    frontend: &'a Frontend,
    class: Class,
    /// When the request left the queue (the queue's clock).
    taken_ns: u64,
}

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        let now_ns = trace::now_ns();
        let service_ns = now_ns.saturating_sub(self.taken_ns);
        let mut wakes = Wakes::new();
        {
            let mut core = self.frontend.core.lock();
            core.complete(self.class, service_ns);
            self.frontend
                .drain(&mut core, self.class, now_ns, None, &mut wakes);
        }
        send_wakes(wakes);
    }
}

/// Floor for the `retry_after` hint carried by `Overloaded` rejections,
/// used until enough completions exist to estimate service time.
const RETRY_AFTER_FLOOR: Duration = Duration::from_millis(1);

impl Frontend {
    /// Build the admission state over `ada`. Spawns nothing.
    pub fn new(ada: Arc<Ada>, config: FrontendConfig) -> Frontend {
        settle_malloc_thresholds();
        let config = config.normalized();
        let retry_floor = RETRY_AFTER_FLOOR.as_nanos() as u64;
        Frontend {
            ada,
            core: Mutex::new(SchedulerCore::new(
                (config.ingest_slots, config.ingest_queue),
                (config.query_slots, config.query_queue),
                retry_floor,
            )),
            metrics: ada_telemetry::enabled().then(Metrics::default),
        }
    }

    /// Write the admission metrics — per class the scheduler's outcome
    /// counts (`frontend.{class}.*`), its queue depth and deepest queue
    /// (`frontend.queue.{class}`) and the queue wait; per client name the
    /// outcomes — then the `Ada` behind it.
    pub fn write_metrics(&self, snap: &mut Snapshot) {
        let stats = self.stats();
        for class in Class::ALL {
            let (c, name) = (stats.class(class), class.name());
            snap.counter(&key(&["frontend", name, "accepted"]), c.counters.admitted);
            snap.counter(&key(&["frontend", name, "rejected"]), c.counters.rejected);
            let expired = c.counters.expired;
            snap.counter(&key(&["frontend", name, "deadline_exceeded"]), expired);
            let (depth, hwm) = (c.queue_depth as i64, c.queue_hwm as i64);
            snap.gauge(&key(&["frontend.queue", name]), depth, hwm);
        }
        if let Some(m) = &self.metrics {
            for class in Class::ALL {
                let wait = &m.wait[class.idx()];
                snap.histogram(&key(&["frontend.wait_ns", class.name()]), wait);
            }
            for (client, outcomes) in m.clients.lock().iter() {
                outcomes.write(snap, client);
            }
            m.other.write(snap, "other");
        }
        self.ada.write_metrics(snap);
    }

    fn note_wait(&self, class: Class, waited_ns: u64) {
        if let Some(m) = &self.metrics {
            m.wait[class.idx()].record(waited_ns);
        }
    }

    fn note_client(&self, client: &str, outcome: impl Fn(&Outcomes) -> &Counter) {
        if let Some(m) = &self.metrics {
            m.note_client(client, outcome);
        }
    }

    /// End a critical section that enqueued a job or freed a slot: drain
    /// `class` at `now_ns`, the current time. Returns what became
    /// of request `own`; everyone else who left is pushed onto `wakes`,
    /// for the caller to send once the guard is gone.
    fn drain(
        &self,
        core: &mut SchedulerCore<Waiter>,
        class: Class,
        now_ns: u64,
        own: Option<u64>,
        wakes: &mut Wakes,
    ) -> Option<Left> {
        let mut mine = None;
        core.drain(class, now_ns, |popped, queue_depth| {
            let (id, waiter, waited_ns, expired) = match popped {
                Popped::Start { id, job, waited_ns } => (id, job, waited_ns, None),
                Popped::Expired {
                    id,
                    job,
                    waited_ns,
                    deadline_ns,
                } => (id, job, waited_ns, Some((deadline_ns, queue_depth))),
            };
            let left = Left { waited_ns, expired };
            if own == Some(id) {
                mine = Some(left);
            } else if let Some(waiter) = waiter {
                wakes.push((waiter, left));
            }
        });
        mine
    }

    /// Run `f` against the shared [`Ada`] through admission control and
    /// block until it resolves: queue for a slot of `class`, then call `f`
    /// on this thread while holding it. `op` names the operation in the
    /// trace and in a caught panic's error. `deadline` bounds only the
    /// queue wait (a request that started executing runs to completion);
    /// `None` waits indefinitely.
    pub fn run<T>(
        &self,
        class: Class,
        op: &'static str,
        client: &str,
        deadline: Option<Duration>,
        f: impl FnOnce(&Ada, &TraceContext) -> Result<T, AdaError>,
    ) -> Result<T, AdaError> {
        // Every request — including one about to be shed — gets a trace
        // root here at admission, in the stack's recorder; the guard seals
        // the trace when this function returns.
        let (_, mut root) = self.ada.flight_recorder().root("frontend.request");
        self.run_rooted(class, op, client, deadline, &mut root, f)
    }

    /// [`Frontend::run`] under a caller-minted trace root. The networked
    /// server uses this with a root minted from the wire-carried trace id
    /// ([`trace::FlightRecorder::root_remote`], in this stack's recorder),
    /// so the admission queue wait, slot execution, and every middleware
    /// span seal under the *client's* trace id instead of a disconnected
    /// local one. The caller keeps the
    /// root guard alive until this returns (the guard seals the tree).
    pub fn run_rooted<T>(
        &self,
        class: Class,
        op: &'static str,
        client: &str,
        deadline: Option<Duration>,
        root: &mut trace::TraceSpanGuard,
        f: impl FnOnce(&Ada, &TraceContext) -> Result<T, AdaError>,
    ) -> Result<T, AdaError> {
        root.arg("op", op);
        root.arg("client", client);
        let ctx = root.ctx();
        let res = self
            .admit(class, client, deadline, &ctx, root)
            .and_then(|slot| self.execute(slot, op, &ctx, f));
        if let Err(e) = &res {
            root.set_error(e.error_kind().name());
        }
        res
    }

    /// Queue for a slot of `class` and return holding one: at once if one
    /// is free, else when a finishing caller's drain starts this request.
    fn admit(
        &self,
        class: Class,
        client: &str,
        deadline: Option<Duration>,
        ctx: &TraceContext,
        root: &mut trace::TraceSpanGuard,
    ) -> Result<Slot<'_>, AdaError> {
        let deadline_ns = deadline.map(|d| d.as_nanos().min(u64::MAX as u128) as u64);
        let enqueued_ns = trace::now_ns();
        let mut wakes = Wakes::new();
        let mut wake = None;
        let offered = {
            let mut core = self.core.lock();
            // With a slot free this request leaves the queue in its own
            // drain below; only one that will wait needs a channel.
            let waiter = match core.has_free_slot(class) {
                true => None,
                false => {
                    let (waiter, woken) = sync_channel::<Left>(1);
                    wake = Some(woken);
                    Some(waiter)
                }
            };
            core.submit(class, waiter, enqueued_ns, deadline_ns)
                .map(|id| {
                    // The drain reads the clock again, after the enqueue:
                    // a 0 ns deadline has passed by then, so the request
                    // dies in the queue and not on a slot.
                    self.drain(&mut core, class, trace::now_ns(), Some(id), &mut wakes)
                })
        };
        send_wakes(wakes);
        let left = match offered {
            Err(rej) => {
                self.note_client(client, |c| &c.rejected);
                // A shed request keeps a debuggable (flagged) trace: the
                // queue depth that triggered the shed and the retry hint
                // handed to the client.
                root.arg("queue_depth", rej.queue_depth);
                root.arg("retry_after_ns", rej.retry_after_ns);
                return Err(AdaError::Overloaded {
                    queue_depth: rej.queue_depth,
                    retry_after: Duration::from_nanos(rej.retry_after_ns),
                });
            }
            Ok(Some(left)) => left,
            Ok(None) => wake.and_then(|woken| woken.recv().ok()).ok_or_else(|| {
                AdaError::Internal("frontend scheduler dropped a queued request".to_string())
            })?,
        };
        // The request left the queue when the drain that let it go read the
        // clock: `waited_ns` after it was enqueued.
        let end = enqueued_ns.saturating_add(left.waited_ns);
        self.note_wait(class, left.waited_ns);
        let mut args = vec![("waited_ns", left.waited_ns.into())];
        let admitted = match left.expired {
            None => {
                let slot = Slot {
                    frontend: self,
                    class,
                    taken_ns: end,
                };
                self.note_client(client, |c| &c.accepted);
                Ok(slot)
            }
            Some((deadline_ns, queue_depth)) => {
                self.note_client(client, |c| &c.deadline);
                args.push(("deadline_ns", deadline_ns.into()));
                args.push(("queue_depth", queue_depth.into()));
                Err(AdaError::DeadlineExceeded {
                    waited: Duration::from_nanos(left.waited_ns),
                    deadline: Duration::from_nanos(deadline_ns),
                })
            }
        };
        ctx.record("frontend.queue_wait", enqueued_ns, end, args);
        admitted
    }

    /// Run `f` on this thread under the held `slot`. A panic inside the
    /// middleware is answered as a typed `Internal` error, like the
    /// panics `ada-core` catches in its own stage pools.
    fn execute<T>(
        &self,
        slot: Slot<'_>,
        op: &'static str,
        ctx: &TraceContext,
        f: impl FnOnce(&Ada, &TraceContext) -> Result<T, AdaError>,
    ) -> Result<T, AdaError> {
        let res = {
            // Slot-held span: everything the middleware does for this
            // request nests under it.
            let exec = ctx.span("frontend.execute");
            let ectx = exec.ctx();
            // All the closure shares with other threads is `Ada`, whose
            // locks do not poison.
            catch_unwind(AssertUnwindSafe(|| f(&self.ada, &ectx)))
        };
        // Release the slot before returning so a client that saw its
        // request finish also sees balanced stats.
        drop(slot);
        res.unwrap_or_else(|payload| Err(ada_core::worker_panic(op, payload)))
    }

    /// Ingest through admission control, with no deadline.
    pub fn ingest(
        &self,
        client: &str,
        dataset: &str,
        input: IngestInput,
    ) -> Result<IngestReport, AdaError> {
        self.run(Class::Ingest, "ingest", client, None, |ada, ctx| {
            ada.ingest_traced(dataset, input, ctx)
        })
    }

    /// Tag-aware (or full-frame) query through admission control.
    pub fn query(
        &self,
        client: &str,
        dataset: &str,
        tag: Option<&Tag>,
    ) -> Result<QueryReport, AdaError> {
        self.run(Class::Query, "query", client, None, |ada, ctx| {
            ada.query_traced(dataset, tag, ctx)
        })
    }

    /// Strided frame-range query (the ML-sampling read path) through
    /// admission control; competes in the query class.
    pub fn query_range(
        &self,
        client: &str,
        dataset: &str,
        tag: &Tag,
        window: std::ops::Range<usize>,
        stride: usize,
    ) -> Result<QueryReport, AdaError> {
        self.run(Class::Query, "query_range", client, None, |ada, ctx| {
            ada.query_range_traced(dataset, tag, window, stride, ctx)
        })
    }

    /// Point-in-time admission statistics of this front-end.
    pub fn stats(&self) -> FrontendStats {
        let core = self.core.lock();
        let class_stats = |class: Class| ClassStats {
            counters: core.counters(class),
            queue_depth: core.queue_depth(class),
            queue_hwm: core.queue_hwm(class),
            running: core.running(class),
            slots: core.slots(class),
        };
        FrontendStats {
            ingest: class_stats(Class::Ingest),
            query: class_stats(Class::Query),
        }
    }

    /// The shared middleware this front-end guards.
    pub fn ada(&self) -> &Ada {
        &self.ada
    }

    /// The flight recorder of this stack's completed request traces
    /// (passthrough of [`Ada::flight_recorder`]): every admitted request
    /// leaves a recent trace; shed, expired, errored, and
    /// over-latency-threshold requests are retained.
    pub fn flight_recorder(&self) -> &ada_telemetry::trace::FlightRecorder {
        self.ada.flight_recorder()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ada_core::{AdaConfig, ErrorKind};
    use ada_plfs::ContainerSet;
    use ada_simfs::{LocalFs, SimFileSystem};

    fn make_ada() -> Arc<Ada> {
        let ssd: Arc<dyn SimFileSystem> = Arc::new(LocalFs::ext4_on_nvme());
        let hdd: Arc<dyn SimFileSystem> = Arc::new(LocalFs::ext4_on_hdd());
        let cs = Arc::new(ContainerSet::new(vec![
            ("ssd".into(), ssd.clone()),
            ("hdd".into(), hdd),
        ]));
        Arc::new(Ada::new(AdaConfig::paper_prototype("ssd", "hdd"), cs, ssd))
    }

    fn real_input(natoms: usize, nframes: usize) -> IngestInput {
        let w = ada_workload::gpcr_workload(natoms, nframes, 77);
        IngestInput::Real {
            pdb_text: ada_mdformats::write_pdb(&w.system),
            xtc_bytes: ada_mdformats::xtc::write_xtc(
                &w.trajectory,
                ada_mdformats::xtc::DEFAULT_PRECISION,
            )
            .unwrap(),
        }
    }

    #[test]
    fn frontend_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Frontend>();
        assert_send_sync::<Ada>();
    }

    /// glibc hands out a block at or above its mmap threshold as a mapping
    /// of its own, whose payload always starts 16 bytes into a page; a
    /// chunk cut from an arena heap does so one time in 256.
    #[test]
    #[cfg(all(target_env = "gnu", target_pointer_width = "64"))]
    fn large_blocks_come_from_the_heap_once_a_frontend_exists() {
        let _fe = Frontend::new(make_ada(), FrontendConfig::default());
        let blocks: Vec<Vec<u8>> = (0..4)
            .map(|_| black_box(Vec::with_capacity(4 << 20)))
            .collect();
        let mapped = |b: &&Vec<u8>| b.as_ptr() as usize & 0xfff == 0x10;
        assert!(
            blocks.iter().filter(mapped).count() < blocks.len(),
            "4 MiB blocks are still mmapped one by one: the thresholds did not move"
        );
    }

    #[test]
    fn single_client_roundtrip() {
        let fe = Frontend::new(make_ada(), FrontendConfig::default());
        fe.ingest("c0", "bar", real_input(300, 2)).unwrap();
        let q = fe.query("c0", "bar", Some(&Tag::protein())).unwrap();
        match q.data {
            ada_core::RetrievedData::Real(traj) => assert_eq!(traj.len(), 2),
            other => panic!("expected real data, got {:?}", other),
        }
        let s = fe.stats();
        assert!(s.is_quiescent(), "stats must balance: {:?}", s);
        assert_eq!(s.ingest.counters.completed, 1);
        assert_eq!(s.query.counters.completed, 1);
    }

    #[test]
    fn unknown_dataset_error_passes_through_typed() {
        let fe = Frontend::new(make_ada(), FrontendConfig::default());
        let err = fe.query("c0", "nope", None).unwrap_err();
        assert_eq!(err.error_kind(), ErrorKind::UnknownDataset);
    }

    #[test]
    fn zero_deadline_expires_in_queue() {
        let fe = Frontend::new(make_ada(), FrontendConfig::default());
        fe.ingest("c0", "bar", real_input(300, 2)).unwrap();
        // A 0 ns deadline is always in the past by the time the drain
        // that follows the enqueue reads the clock.
        let err = fe
            .run(
                Class::Query,
                "query",
                "c0",
                Some(Duration::from_nanos(0)),
                |ada, ctx| ada.query_traced("bar", None, ctx),
            )
            .unwrap_err();
        assert_eq!(err.error_kind(), ErrorKind::DeadlineExceeded);
        let s = fe.stats();
        assert_eq!(s.query.counters.expired, 1);
        assert!(s.is_quiescent());
    }
}
