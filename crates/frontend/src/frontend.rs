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
//! scheduler never sees it. A submitter whose own request left the queue
//! in its own drain (the uncontended case) calls it on its own stack and
//! never touches another thread. Otherwise it blocks on its one-shot wake
//! channel until a finishing caller's drain hands it `Start` or
//! `Expired`. Wakes are collected under the lock and sent after it is
//! released; a wake channel (`sync_channel(1)`, read only by a request
//! that has to wait) holds one message and gets exactly one, so the send
//! never blocks.
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

use std::collections::HashMap;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::{Arc, Once};
use std::time::{Duration, Instant};

use ada_core::{Ada, AdaError, IngestInput, IngestReport, QueryReport};
use ada_mdmodel::Tag;
use ada_sync::Mutex;
use ada_telemetry::trace::{self, TraceContext};
use ada_telemetry::{Counter, Gauge, Histogram};

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
/// one-shot channel its caller blocks on if it has to wait. The request,
/// its client name and its trace context stay on the caller's stack.
type Waiter = SyncSender<Left>;

/// Outcomes collected under the scheduler guard, delivered once it is gone.
type Wakes = Vec<(Waiter, Left)>;

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

/// One client family's outcome counters, resolved once.
struct ClientCounters {
    accepted: Arc<Counter>,
    rejected: Arc<Counter>,
    deadline: Arc<Counter>,
}

impl ClientCounters {
    fn register(family: &str) -> ClientCounters {
        let outcome = |what: &str| {
            ada_telemetry::global().counter(&format!("frontend.client.{}.{}", family, what))
        };
        ClientCounters {
            accepted: outcome("accepted"),
            rejected: outcome("rejected"),
            deadline: outcome("deadline_exceeded"),
        }
    }
}

/// Global-registry handles, registered once at construction so every
/// admission metric appears in snapshots even while still zero.
struct Metrics {
    queue: [Arc<Gauge>; 2],
    wait: [Arc<Histogram>; 2],
    accepted: [Arc<Counter>; 2],
    rejected: [Arc<Counter>; 2],
    deadline: [Arc<Counter>; 2],
    /// The client names met so far, at most [`CLIENT_FAMILIES_MAX`] of
    /// them.
    clients: Mutex<HashMap<String, ClientCounters>>,
    other: ClientCounters,
}

impl Metrics {
    fn register() -> Metrics {
        let reg = ada_telemetry::global();
        let per_class = |what: &str| {
            [Class::Ingest, Class::Query]
                .map(|c| reg.counter(&format!("frontend.{}.{}", c.name(), what)))
        };
        Metrics {
            queue: [Class::Ingest, Class::Query]
                .map(|c| reg.gauge(&format!("frontend.queue.{}", c.name()))),
            wait: [Class::Ingest, Class::Query]
                .map(|c| reg.histogram(&format!("frontend.wait_ns.{}", c.name()))),
            accepted: per_class("accepted"),
            rejected: per_class("rejected"),
            deadline: per_class("deadline_exceeded"),
            clients: Mutex::new(HashMap::new()),
            other: ClientCounters::register("other"),
        }
    }

    /// Count one outcome for `client`: one small-map lookup per request.
    fn note_client(&self, client: &str, outcome: impl Fn(&ClientCounters) -> &Counter) {
        let mut clients = self.clients.lock();
        let counters = match clients.get(client) {
            Some(known) => known,
            None if clients.len() < CLIENT_FAMILIES_MAX => clients
                .entry(client.to_string())
                .or_insert_with(|| ClientCounters::register(client)),
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
    start: Instant,
    metrics: Option<Metrics>,
    default_deadline: Option<Duration>,
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
    taken: Instant,
}

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        let service_ns = self.taken.elapsed().as_nanos() as u64;
        let mut wakes = Wakes::new();
        {
            let mut core = self.frontend.core.lock();
            core.complete(self.class, service_ns);
            self.frontend.drain(&mut core, self.class, None, &mut wakes);
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
            start: Instant::now(),
            metrics: ada_telemetry::enabled().then(Metrics::register),
            default_deadline: config.default_deadline,
        }
    }

    /// Monotonic nanoseconds since the front-end was built — the queue's
    /// clock (enqueue stamps, deadline expiry).
    fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    fn note_wait(&self, class: Class, waited_ns: u64) {
        if let Some(m) = &self.metrics {
            m.wait[class.idx()].record(waited_ns);
        }
    }

    fn note_accepted(&self, class: Class, client: &str) {
        if let Some(m) = &self.metrics {
            m.accepted[class.idx()].inc();
            m.note_client(client, |c| &c.accepted);
        }
    }

    fn note_rejected(&self, class: Class, client: &str) {
        if let Some(m) = &self.metrics {
            m.rejected[class.idx()].inc();
            m.note_client(client, |c| &c.rejected);
        }
    }

    fn note_deadline_exceeded(&self, class: Class, client: &str) {
        if let Some(m) = &self.metrics {
            m.deadline[class.idx()].inc();
            m.note_client(client, |c| &c.deadline);
        }
    }

    /// End a critical section that enqueued a job or freed a slot: drain
    /// `class` at the current time, moving the `frontend.queue.{class}`
    /// gauge under the lock of the queue it mirrors. Returns what became
    /// of request `own`; everyone else who left is pushed onto `wakes`,
    /// for the caller to send once the guard is gone.
    fn drain(
        &self,
        core: &mut SchedulerCore<Waiter>,
        class: Class,
        own: Option<u64>,
        wakes: &mut Wakes,
    ) -> Option<Left> {
        let mut mine = None;
        core.drain(class, self.now_ns(), |popped, queue_depth| {
            if let Some(m) = &self.metrics {
                m.queue[class.idx()].dec();
            }
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
            } else {
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
        // root here at admission; the guard seals the trace when this
        // function returns.
        let (_, mut root) = trace::root("frontend.request");
        self.run_rooted(class, op, client, deadline, &mut root, f)
    }

    /// [`Frontend::run`] under a caller-minted trace root. The networked
    /// server uses this with a root minted from the wire-carried trace id
    /// ([`trace::root_remote`]), so the admission queue wait, slot
    /// execution, and every middleware span seal into the *client's*
    /// trace instead of a disconnected local one. The caller keeps the
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
            root.set_error(e.kind());
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
        let (waiter, wake) = sync_channel::<Left>(1);
        let enqueued_ns = self.now_ns();
        let mut wakes = Wakes::new();
        let offered = {
            let mut core = self.core.lock();
            core.submit(class, waiter, enqueued_ns, deadline_ns)
                .map(|id| {
                    if let Some(m) = &self.metrics {
                        m.queue[class.idx()].inc();
                    }
                    // The drain reads the clock again, after the enqueue:
                    // a 0 ns deadline has passed by then, so the request
                    // dies in the queue and not on a slot.
                    self.drain(&mut core, class, Some(id), &mut wakes)
                })
        };
        send_wakes(wakes);
        let left = match offered {
            Err(rej) => {
                self.note_rejected(class, client);
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
            Ok(None) => wake.recv().map_err(|_| {
                AdaError::Internal("frontend scheduler dropped a queued request".to_string())
            })?,
        };
        let end = trace::now_ns();
        self.note_wait(class, left.waited_ns);
        let mut args = vec![("waited_ns", left.waited_ns.into())];
        let admitted = match left.expired {
            None => {
                let slot = Slot {
                    frontend: self,
                    class,
                    taken: Instant::now(),
                };
                self.note_accepted(class, client);
                Ok(slot)
            }
            Some((deadline_ns, queue_depth)) => {
                self.note_deadline_exceeded(class, client);
                args.push(("deadline_ns", deadline_ns.into()));
                args.push(("queue_depth", queue_depth.into()));
                Err(AdaError::DeadlineExceeded {
                    waited: Duration::from_nanos(left.waited_ns),
                    deadline: Duration::from_nanos(deadline_ns),
                })
            }
        };
        let start = end.saturating_sub(left.waited_ns);
        ctx.record("frontend.queue_wait", start, end, args);
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

    /// Ingest through admission control, with the configured default
    /// deadline.
    pub fn ingest(
        &self,
        client: &str,
        dataset: &str,
        input: IngestInput,
    ) -> Result<IngestReport, AdaError> {
        self.run(
            Class::Ingest,
            "ingest",
            client,
            self.default_deadline,
            |ada, ctx| ada.ingest_traced(dataset, input, ctx),
        )
    }

    /// Tag-aware (or full-frame) query through admission control.
    pub fn query(
        &self,
        client: &str,
        dataset: &str,
        tag: Option<&Tag>,
    ) -> Result<QueryReport, AdaError> {
        self.run(
            Class::Query,
            "query",
            client,
            self.default_deadline,
            |ada, ctx| ada.query_traced(dataset, tag, ctx),
        )
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
        self.run(
            Class::Query,
            "query_range",
            client,
            self.default_deadline,
            |ada, ctx| ada.query_range_traced(dataset, tag, window, stride, ctx),
        )
    }

    /// Point-in-time admission statistics (process-local, not the global
    /// telemetry registry — safe for concurrent tests in one binary).
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

    /// The process-wide flight recorder of completed request traces
    /// (passthrough of [`Ada::flight_recorder`]): every admitted request
    /// leaves a recent trace; shed, expired, errored, and
    /// over-latency-threshold requests are retained.
    pub fn flight_recorder(&self) -> &'static ada_telemetry::trace::FlightRecorder {
        self.ada.flight_recorder()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ada_core::AdaConfig;
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
        assert_eq!(err.kind(), "unknown_dataset");
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
        assert_eq!(err.kind(), "deadline_exceeded");
        let s = fe.stats();
        assert_eq!(s.query.counters.expired, 1);
        assert!(s.is_quiescent());
    }
}
