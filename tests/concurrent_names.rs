//! Concurrent ingest, delete and query of one dataset name.
//!
//! `Ada`'s dataset map is the one owner of a name, so the history of a
//! name under racing callers must read as some serial order of their
//! calls. Each round releases writers (random ingests of one of two inputs,
//! and deletes) and readers (queries in a loop) on one name together, and
//! checks:
//!
//! * during the race, every answer is the bytes of an input that was
//!   stored under the name at some point during the call — the two inputs
//!   differ in frame count and trajectory, so an answer names its input —
//!   and every error is `unknown_dataset` or `dataset_exists`;
//! * once the threads have joined, the name is listed exactly when its
//!   label file and the droppings that label names exist, no file on any
//!   backend lies outside a listed dataset, and a query answers with the
//!   committed label's input (or `unknown_dataset`), in process and over
//!   the wire.
//!
//! Every case runs in process and through a loopback `Server` (ingest and
//! query over the wire, delete through the serving stack's `Ada`), at
//! `query_threads` 0 and 2, with the cache off and on. The
//! three shapes are fixed-seed cases: two readers against two writers,
//! three writers alone, and two readers against three writers.

mod common;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};

use ada_cache::CacheConfig;
use ada_client::Client;
use ada_core::{Ada, AdaConfig, AdaError, ErrorKind, IngestInput, LabelFile, RetrievedData};
use ada_mdformats::xtc::{write_xtc, DEFAULT_PRECISION};
use ada_mdformats::{write_pdb, Frame, Trajectory};
use ada_mdmodel::Tag;
use ada_server::ServerConfig;
use common::Rig;

const NAME: &str = "d";

/// SplitMix64: the writers' choice of operations, fixed by the seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// One input an ingest may store, with the answers a query of it gives.
struct Input {
    pdb: String,
    xtc: Vec<u8>,
    nframes: usize,
    /// Tag `p`'s frames, then every atom's.
    answers: [Vec<Frame>; 2],
}

/// Two inputs of one 600-atom structure: eight frames of one trajectory
/// and six of another.
fn inputs() -> Vec<Input> {
    let w = ada_workload::gpcr_workload(600, 8, 1);
    let other = ada_workload::gpcr_workload(600, 6, 2).trajectory;
    let pdb = write_pdb(&w.system);
    [&w.trajectory, &other]
        .into_iter()
        .map(|t: &Trajectory| {
            let xtc = write_xtc(t, DEFAULT_PRECISION).unwrap();
            let reference = rig(0, false);
            let reference = reference.ada();
            reference.ingest(NAME, real(&pdb, &xtc)).unwrap();
            let answers = [Some(Tag::protein()), None]
                .map(|tag| frames(reference.query(NAME, tag.as_ref()).unwrap().data));
            Input {
                pdb: pdb.clone(),
                xtc,
                nframes: t.len(),
                answers,
            }
        })
        .collect()
}

fn real(pdb: &str, xtc: &[u8]) -> IngestInput {
    IngestInput::Real {
        pdb_text: pdb.to_string(),
        xtc_bytes: xtc.to_vec(),
    }
}

fn frames(data: RetrievedData) -> Vec<Frame> {
    match data {
        RetrievedData::Real(t) => t.frames,
        other => panic!("expected frames, got {other:?}"),
    }
}

/// A rig of two frames a chunk.
fn rig(query_threads: usize, cache: bool) -> Rig {
    Rig::new(AdaConfig {
        chunk_frames: 2,
        query_threads,
        cache: if cache {
            CacheConfig::with_capacity(1 << 30)
        } else {
            CacheConfig::default()
        },
        ..AdaConfig::paper_prototype("ssd", "hdd")
    })
}

/// How a thread reaches the instance: in process, or over the wire with
/// deletes through the serving stack's `Ada`.
enum Caller {
    Local(Arc<Ada>),
    Remote(Client, Arc<Ada>),
}

impl Caller {
    fn ingest(&self, input: &Input) -> Result<(), AdaError> {
        match self {
            Caller::Local(ada) => ada.ingest(NAME, real(&input.pdb, &input.xtc)).map(drop),
            Caller::Remote(client, _) => client.ingest(NAME, &input.pdb, &input.xtc).map(drop),
        }
    }

    fn delete(&self) -> Result<(), AdaError> {
        match self {
            Caller::Local(ada) | Caller::Remote(_, ada) => ada.delete_dataset(NAME),
        }
    }

    /// Tag `p` (`which` 0) or every atom (`which` 1).
    fn query(&self, which: usize) -> Result<Vec<Frame>, AdaError> {
        let tag = [Some(Tag::protein()), None][which].clone();
        match self {
            Caller::Local(ada) => Ok(frames(ada.query(NAME, tag.as_ref())?.data)),
            Caller::Remote(client, _) => {
                let report = client.query(NAME, tag.as_ref().map(Tag::as_str))?;
                Ok(report.trajectory()?.frames)
            }
        }
    }
}

/// One configuration of the stack under test, served when the callers go
/// over the wire.
struct Case {
    rig: Rig,
    wire: bool,
    what: String,
}

impl Case {
    fn new(wire: bool, query_threads: usize, cache: bool) -> Case {
        let rig = rig(query_threads, cache);
        let rig = if wire {
            rig.serve(ServerConfig::default())
        } else {
            rig
        };
        let what = format!("wire {wire}, query_threads {query_threads}, cache {cache}");
        Case { rig, wire, what }
    }

    fn caller(&self) -> Caller {
        let ada = Arc::clone(self.rig.ada());
        if self.wire {
            Caller::Remote(self.rig.client("concurrent-names"), ada)
        } else {
            Caller::Local(ada)
        }
    }
}

/// A successful ingest of input `input`, or a successful delete
/// (`input` `None`), over the clock ticks its call spanned.
#[derive(Clone, Copy)]
struct Commit {
    input: Option<usize>,
    start: u64,
    end: u64,
}

/// Whether an answer of input `x` to a query over ticks `[start, end]`
/// reads as some serial order: an ingest of `x` began before the query
/// ended, and no delete that surely followed that ingest surely finished
/// before the query began.
fn was_live(history: &[Commit], x: usize, start: u64, end: u64) -> bool {
    let deletes = || history.iter().filter(|c| c.input.is_none());
    history
        .iter()
        .filter(|c| c.input == Some(x) && c.start < end)
        .any(|i| !deletes().any(|d| d.start > i.end && d.end < start))
}

/// The errors a race on one name may give.
fn allowed(e: &AdaError) -> bool {
    matches!(
        e.error_kind(),
        ErrorKind::UnknownDataset | ErrorKind::DatasetExists
    )
}

/// Thread counts of one fixed-seed case.
struct Shape {
    readers: usize,
    writers: usize,
    seed: u64,
}

/// Ops each writer runs in a round.
const OPS: usize = 6;
/// Rounds of each shape per stack configuration.
const ROUNDS: u64 = 6;

fn run_shape(shape: Shape) {
    let inputs = inputs();
    for wire in [false, true] {
        for query_threads in [0, 2] {
            for cache in [false, true] {
                let case = Case::new(wire, query_threads, cache);
                for round in 0..ROUNDS {
                    let seed =
                        shape.seed ^ (round << 8) ^ (u64::from(cache) << 4) ^ query_threads as u64;
                    let what = format!("{}, round {round}", case.what);
                    race(&case, &shape, &inputs, seed, &what);
                    check_quiescent(&case, &inputs, &what);
                }
            }
        }
    }
}

/// One round: writers and readers released together on the name.
fn race(case: &Case, shape: &Shape, inputs: &[Input], seed: u64, what: &str) {
    let clock = AtomicU64::new(0);
    let tick = || clock.fetch_add(1, Ordering::SeqCst);
    // Whatever the last round left stored is live from the start.
    let mut start = Vec::new();
    if let Ok(label) = case.rig.ada().label(NAME) {
        let input = inputs.iter().position(|i| i.nframes == label.nframes);
        let t = tick();
        start.push(Commit {
            input: Some(input.unwrap()),
            start: t,
            end: t,
        });
    }
    let history = Mutex::new(start);
    let stop = AtomicBool::new(false);
    let barrier = Barrier::new(shape.readers + shape.writers);
    let (history, stop, barrier) = (&history, &stop, &barrier);
    std::thread::scope(|scope| {
        let writers: Vec<_> = (0..shape.writers)
            .map(|w| {
                let caller = case.caller();
                let mut rng = Rng(seed ^ (w as u64 + 1).wrapping_mul(0x51_7CC1_B727_220A));
                scope.spawn(move || {
                    barrier.wait();
                    for _ in 0..OPS {
                        let pick = (rng.next() % 3) as usize;
                        let start = tick();
                        let res = match pick {
                            2 => caller.delete(),
                            x => caller.ingest(&inputs[x]),
                        };
                        let end = tick();
                        match res {
                            Ok(()) => history.lock().unwrap().push(Commit {
                                input: (pick < 2).then_some(pick),
                                start,
                                end,
                            }),
                            Err(e) => {
                                let op = ["ingest", "ingest", "delete"][pick];
                                assert!(allowed(&e), "{what}: {op} failed: {e}")
                            }
                        }
                    }
                })
            })
            .collect();
        let readers: Vec<_> = (0..shape.readers)
            .map(|r| {
                let caller = case.caller();
                scope.spawn(move || {
                    barrier.wait();
                    let mut seen = Vec::new();
                    let mut n = 0usize;
                    while !stop.load(Ordering::SeqCst) {
                        let which = (r + n) % 2;
                        n += 1;
                        let start = tick();
                        let res = caller.query(which);
                        let end = tick();
                        match res {
                            Ok(frames) => seen.push((which, frames, start, end)),
                            Err(e) => assert!(allowed(&e), "{what}: query failed: {e}"),
                        }
                    }
                    seen
                })
            })
            .collect();
        // Readers stop once every writer is done, failed or not.
        let joined: Vec<_> = writers.into_iter().map(|w| w.join()).collect();
        stop.store(true, Ordering::SeqCst);
        for writer in joined {
            if let Err(panic) = writer {
                std::panic::resume_unwind(panic);
            }
        }
        let history = history.lock().unwrap().clone();
        for r in readers {
            for (which, frames, start, end) in r.join().unwrap() {
                let x = inputs.iter().position(|i| i.answers[which] == frames);
                let x = x.unwrap_or_else(|| {
                    panic!("{what}: an answer of {} frames is no input's", frames.len())
                });
                assert!(
                    was_live(&history, x, start, end),
                    "{what}: input {x} served over ticks {start}..{end}, when it was not stored"
                );
            }
        }
    });
}

/// After a round: the name is listed exactly when its label file and the
/// droppings that label names exist, no other file lies on any backend,
/// and queries answer with the committed input, or `unknown_dataset`.
fn check_quiescent(case: &Case, inputs: &[Input], what: &str) {
    let (rig, ada) = (&case.rig, case.rig.ada());
    let listed = ada.list_datasets() == [NAME];
    let label_file = rig.ssd.exists(&LabelFile::path_for(NAME));
    let mut files = rig.ssd.list(&format!("ssd/{NAME}/"));
    files.extend(rig.hdd.list(&format!("hdd/{NAME}/")));
    files.sort();
    assert_eq!(rig.strays(), Vec::<String>::new(), "{what}");
    let callers = [Caller::Local(Arc::clone(ada)), case.caller()];
    if listed {
        let label = ada.label(NAME).unwrap();
        assert!(
            label_file,
            "{what}: a listed dataset without its label file"
        );
        let mut named: Vec<String> = label
            .entries()
            .values()
            .map(|e| e.dropping.dropping_path.clone())
            .collect();
        named.sort();
        assert_eq!(files, named, "{what}: the droppings are not the label's");
        let x = inputs
            .iter()
            .position(|i| i.nframes == label.nframes)
            .unwrap();
        for caller in &callers {
            for which in [0, 1] {
                let got = caller.query(which).unwrap();
                assert!(
                    got == inputs[x].answers[which],
                    "{what}: not the committed input"
                );
            }
        }
    } else {
        assert!(!label_file, "{what}: a label file without its dataset");
        assert_eq!(
            files,
            Vec::<String>::new(),
            "{what}: droppings without a dataset"
        );
        for caller in &callers {
            let err = caller.query(0).unwrap_err();
            assert_eq!(err.error_kind(), ErrorKind::UnknownDataset, "{what}");
        }
    }
}

/// The stale-answer shape: two readers query the name in a loop while two
/// writers ingest and delete it.
#[test]
fn readers_against_two_writers() {
    run_shape(Shape {
        readers: 2,
        writers: 2,
        seed: 0x5EED_0001,
    });
}

/// The damaged-state shape: three writers ingest and delete one name.
#[test]
fn three_writers() {
    run_shape(Shape {
        readers: 0,
        writers: 3,
        seed: 0x5EED_0002,
    });
}

/// The error-kind shape: two readers against three writers.
#[test]
fn readers_against_three_writers() {
    run_shape(Shape {
        readers: 2,
        writers: 3,
        seed: 0x5EED_0003,
    });
}
