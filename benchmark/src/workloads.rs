//! The four named workloads: what each sets up, its one kind of op, and
//! how that op's output is checked. Names are stable; later issues cite
//! them.

use crate::fixture::{
    check_frames, check_shape, generate, Dataset, Reference, Stack, CLIENT_NAME, DATASETS, NFRAMES,
};
use crate::trace::{request_id, Tracer};
use ada_cache::CacheConfig;
use ada_client::{Client, ClientConfig};
use ada_core::{QueryReport, RetrievedData};
use ada_mdformats::Trajectory;
use ada_mdmodel::Tag;
use ada_server::{Server, ServerConfig};
use ada_workload::{shuffled_epochs, Sample, SamplingConfig};
use std::sync::Arc;
use std::time::Instant;

/// Remote answers are re-quantised by the wire's XTC re-encode today; the
/// check allows one quantum so it survives a later lossless wire format.
const REMOTE_TOLERANCE_NM: f32 = 1e-3;
/// Frames per sampling window.
pub const WINDOW: usize = 16;
/// Distinct shuffled epochs generated; the op stream cycles through them.
const SCHEDULE_EPOCHS: usize = 8;
/// Ops in one sampling epoch: every window of every dataset once.
const OPS_PER_EPOCH: usize = NFRAMES / WINDOW * DATASETS;
/// Decoded-dropping cache budget of `sampling_epochs`: the 21.7 MB decoded
/// working set (4 × tag `p`) fits many times over.
pub const SAMPLING_CACHE_BYTES: u64 = 256 << 20;

/// Which workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Tag query over loopback TCP, frames decoded in the caller's hand.
    RemoteTagLoad,
    /// Full-frame query in process, cache off.
    LocalFullLoad,
    /// Tiny ranged reads on a warm cache.
    SamplingEpochs,
    /// Ingest of fresh names.
    IngestStream,
}

/// The fixed shape of one workload. All loads are closed loops: a client's
/// next op starts only when its previous one returned.
#[derive(Debug)]
pub struct Spec {
    /// Which workload.
    pub kind: Kind,
    /// Stable name.
    pub name: &'static str,
    /// Why it exists: which layers do its work and which it bypasses.
    pub why: &'static str,
    /// Closed-loop clients (never more than the 2 cores of the sizing host).
    pub clients: usize,
    /// Ops each client issues per block; fixed, so a block's counts repeat.
    pub ops_per_block: usize,
    /// Untimed ops each client issues at the end of set-up.
    pub warmup_ops: usize,
    /// Run set-up and the op stream on one CPU (see [`crate::cpu`]): for
    /// ops so small that where the scheduler puts the threads decides
    /// their cost.
    pub one_cpu: bool,
}

/// Every workload, in the order `e2e all` runs them.
pub const SPECS: [Spec; 4] = [
    Spec {
        kind: Kind::RemoteTagLoad,
        name: "remote_tag_load",
        why: "the paper's headline op over the full stack: proto encode/decode and the transport do most of the work, the cache none",
        clients: 1,
        ops_per_block: 8,
        warmup_ops: DATASETS,
        one_cpu: false,
    },
    Spec {
        kind: Kind::LocalFullLoad,
        name: "local_full_load",
        why: "full frames in process: XTCF decode of both tags, reader fan-out and reassemble do the work; proto and TCP are bypassed",
        clients: 1,
        ops_per_block: 24,
        warmup_ops: DATASETS,
        one_cpu: false,
    },
    Spec {
        kind: Kind::SamplingEpochs,
        name: "sampling_epochs",
        why: "tiny ranged reads on a warm cache, on one CPU: the Frontend hand-off and the cache hit path are the whole cost; no decode, no wire",
        clients: 1,
        ops_per_block: 64 * OPS_PER_EPOCH,
        warmup_ops: 3 * OPS_PER_EPOCH,
        one_cpu: true,
    },
    Spec {
        kind: Kind::IngestStream,
        name: "ingest_stream",
        why: "the write side of the same codecs and backends (read_xtc, XTCF seal, plfs append): a read gain bought by taxing writes shows here",
        clients: 1,
        ops_per_block: 8,
        warmup_ops: 2,
        one_cpu: false,
    },
];

/// Look a workload up by its name.
pub fn spec_named(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// One workload, set up and ready to issue ops.
#[derive(Debug)]
pub struct Bench {
    /// The workload's fixed shape.
    pub spec: &'static Spec,
    /// The generated inputs.
    pub datasets: Vec<Dataset>,
    /// Seconds of set-up spent generating and XTC-encoding them.
    pub fixture_s: f64,
    /// The product stack at its defaults.
    pub stack: Stack,
    /// `remote_tag_load` only. Dropping it stops it and joins its threads.
    server: Option<Server>,
    clients: Vec<Client>,
    /// `sampling_epochs`: per epoch, the `(dataset, window)` visit order.
    schedule: Vec<Vec<(usize, Sample)>>,
    tag_p: Tag,
}

impl Bench {
    /// Everything `setup_s` covers: fixture generation and XTC encoding,
    /// stack construction, seeding ingests, server and connections, and the
    /// warm-up ops.
    pub fn setup(spec: &'static Spec, seed: u64) -> Result<Bench, String> {
        let t0 = Instant::now();
        let datasets = generate(seed)?;
        let fixture_s = t0.elapsed().as_secs_f64();
        let cache = match spec.kind {
            Kind::SamplingEpochs => CacheConfig::with_capacity(SAMPLING_CACHE_BYTES),
            _ => CacheConfig::default(),
        };
        let stack = Stack::new(cache, None);
        if spec.kind != Kind::IngestStream {
            stack.seed(&datasets)?;
        }
        let mut bench = Bench {
            spec,
            datasets,
            fixture_s,
            stack,
            server: None,
            clients: Vec::new(),
            schedule: Vec::new(),
            tag_p: Tag::protein(),
        };
        match spec.kind {
            Kind::RemoteTagLoad => {
                let server =
                    Server::start(Arc::clone(&bench.stack.frontend), ServerConfig::default())
                        .map_err(|e| format!("server start: {e}"))?;
                let addr = server.local_addr().to_string();
                bench.clients = (0..spec.clients)
                    .map(|_| Client::new(addr.clone(), ClientConfig::default()))
                    .collect();
                bench.server = Some(server);
            }
            Kind::SamplingEpochs => bench.schedule = sampling_schedule(seed),
            Kind::LocalFullLoad | Kind::IngestStream => {}
        }
        let quiet = Tracer::new(false);
        for lane in 0..spec.clients {
            for seq in 0..spec.warmup_ops as u64 {
                bench.op(lane, seq, &quiet, None)?;
            }
        }
        Ok(bench)
    }

    /// Issue client `lane`'s op number `seq` and return its latency in
    /// nanoseconds: the root span around the calls a caller would make,
    /// with one child span per public entry point. Everything the harness
    /// adds (building the request, checking the answer, deleting an
    /// ingested dataset) sits outside that span. With `refs`, the answer
    /// gets the cheap shape check; a mismatch is an `Err` like any failure.
    pub fn op(
        &self,
        lane: usize,
        seq: u64,
        tracer: &Tracer,
        refs: Option<&[Reference]>,
    ) -> Result<u64, String> {
        let req = request_id(lane, seq);
        match self.spec.kind {
            Kind::RemoteTagLoad => {
                let k = (lane + seq as usize) % DATASETS;
                let name = &self.datasets[k].name;
                let root = tracer.open("op.remote_tag_load", 0, req);
                let reply = tracer.time("client.query", root.id, req, || {
                    self.clients[lane].query(name, Some("p"))
                });
                let reply = reply.map_err(|e| format!("query {name}: {e}"))?;
                let traj = tracer.time("proto.trajectory", root.id, req, || reply.trajectory());
                let latency = tracer.close(root);
                let traj = traj.map_err(|e| format!("trajectory {name}: {e}"))?;
                if let Some(refs) = refs {
                    check_shape(&traj, &refs[k].p.frames)?;
                }
                Ok(latency)
            }
            Kind::LocalFullLoad => {
                let k = seq as usize % DATASETS;
                let name = &self.datasets[k].name;
                let root = tracer.open("op.local_full_load", 0, req);
                let reply = tracer.time("frontend.query", root.id, req, || {
                    self.stack.frontend.query(CLIENT_NAME, name, None)
                });
                let latency = tracer.close(root);
                let traj = real_frames(reply, name)?;
                if let Some(refs) = refs {
                    check_shape(&traj, &refs[k].full.frames)?;
                }
                Ok(latency)
            }
            Kind::SamplingEpochs => {
                let (k, s) = self.sample(seq);
                let name = &self.datasets[*k].name;
                let root = tracer.open("op.sampling_epochs", 0, req);
                let reply = tracer.time("frontend.query_range", root.id, req, || {
                    self.stack.frontend.query_range(
                        CLIENT_NAME,
                        name,
                        &self.tag_p,
                        s.start..s.end,
                        s.stride,
                    )
                });
                let latency = tracer.close(root);
                let traj = real_frames(reply, name)?;
                if let Some(refs) = refs {
                    check_shape(&traj, window_of(&refs[*k], s))?;
                }
                Ok(latency)
            }
            Kind::IngestStream => {
                let k = seq as usize % DATASETS;
                let name = format!("in{seq}");
                let input = self.datasets[k].input();
                let root = tracer.open("op.ingest_stream", 0, req);
                let reply = tracer.time("frontend.ingest", root.id, req, || {
                    self.stack.frontend.ingest(CLIENT_NAME, &name, input)
                });
                let latency = tracer.close(root);
                let report = reply.map_err(|e| format!("ingest {name}: {e}"))?;
                self.stack
                    .ada()
                    .delete_dataset(&name)
                    .map_err(|e| format!("delete {name}: {e}"))?;
                if let Some(refs) = refs {
                    let want = refs[k].full.nbytes() as u64;
                    if report.raw_bytes != want {
                        return Err(format!(
                            "ingest {name}: {} raw bytes, expected {want}",
                            report.raw_bytes
                        ));
                    }
                }
                Ok(latency)
            }
        }
    }

    /// Before timing: one op of each kind the workload issues, on every
    /// dataset, compared in full against the reference — the same f32 for
    /// in-process ops, within [`REMOTE_TOLERANCE_NM`] for remote ones.
    pub fn verify(&self, refs: &[Reference]) -> Result<(), String> {
        let fe = &self.stack.frontend;
        for (k, (ds, r)) in self.datasets.iter().zip(refs).enumerate() {
            match self.spec.kind {
                Kind::RemoteTagLoad => {
                    for client in &self.clients {
                        let got = client
                            .query(&ds.name, Some("p"))
                            .and_then(|rep| rep.trajectory())
                            .map_err(|e| format!("verify {}: {e}", ds.name))?;
                        check_frames(&got, &r.p.frames, REMOTE_TOLERANCE_NM)
                            .map_err(|e| format!("verify {} tag p (remote): {e}", ds.name))?;
                    }
                }
                Kind::LocalFullLoad => {
                    let got = real_frames(fe.query(CLIENT_NAME, &ds.name, None), &ds.name)?;
                    check_frames(&got, &r.full.frames, 0.0)
                        .map_err(|e| format!("verify {} full: {e}", ds.name))?;
                }
                Kind::SamplingEpochs => {
                    for (_, s) in self.schedule[0].iter().filter(|(d, _)| *d == k) {
                        let got = real_frames(
                            fe.query_range(
                                CLIENT_NAME,
                                &ds.name,
                                &self.tag_p,
                                s.start..s.end,
                                s.stride,
                            ),
                            &ds.name,
                        )?;
                        check_frames(&got, window_of(r, s), 0.0).map_err(|e| {
                            format!("verify {} window {}..{}: {e}", ds.name, s.start, s.end)
                        })?;
                    }
                }
                Kind::IngestStream => {
                    let name = format!("verify{k}");
                    fe.ingest(CLIENT_NAME, &name, ds.input())
                        .map_err(|e| format!("verify ingest {name}: {e}"))?;
                    let full = real_frames(fe.query(CLIENT_NAME, &name, None), &name)?;
                    let p = real_frames(fe.query(CLIENT_NAME, &name, Some(&self.tag_p)), &name)?;
                    self.stack
                        .ada()
                        .delete_dataset(&name)
                        .map_err(|e| format!("verify delete {name}: {e}"))?;
                    check_frames(&full, &r.full.frames, 0.0)
                        .map_err(|e| format!("verify {name} read back in full: {e}"))?;
                    check_frames(&p, &r.p.frames, 0.0)
                        .map_err(|e| format!("verify {name} read back tag p: {e}"))?;
                }
            }
        }
        Ok(())
    }

    /// The `(dataset, window)` op `seq` of `sampling_epochs` reads.
    fn sample(&self, seq: u64) -> &(usize, Sample) {
        let epoch = seq as usize / OPS_PER_EPOCH % self.schedule.len();
        &self.schedule[epoch][seq as usize % OPS_PER_EPOCH]
    }
}

/// `SCHEDULE_EPOCHS` shuffled epochs; within an epoch the datasets'
/// shuffled window lists are interleaved so consecutive ops hit different
/// datasets.
fn sampling_schedule(seed: u64) -> Vec<Vec<(usize, Sample)>> {
    let per_dataset: Vec<Vec<Vec<Sample>>> = (0..DATASETS)
        .map(|k| {
            shuffled_epochs(&SamplingConfig {
                nframes: NFRAMES,
                window: WINDOW,
                stride: 1,
                epochs: SCHEDULE_EPOCHS,
                tags: vec!["p".to_string()],
                seed: seed + k as u64,
            })
        })
        .collect();
    (0..SCHEDULE_EPOCHS)
        .map(|e| {
            (0..OPS_PER_EPOCH)
                .map(|i| {
                    let k = i % DATASETS;
                    (k, per_dataset[k][e][i / DATASETS].clone())
                })
                .collect()
        })
        .collect()
}

/// The reference frames of window `s` of tag `p`.
fn window_of<'a>(
    r: &'a Reference,
    s: &Sample,
) -> impl Iterator<Item = &'a ada_mdformats::Frame> + 'a {
    r.p.frames[s.start..s.end].iter().step_by(s.stride)
}

/// The decoded frames of an in-process reply.
fn real_frames(
    reply: Result<QueryReport, ada_core::AdaError>,
    name: &str,
) -> Result<Trajectory, String> {
    match reply.map_err(|e| format!("query {name}: {e}"))?.data {
        RetrievedData::Real(t) => Ok(t),
        RetrievedData::Synthetic { .. } => Err(format!("query {name}: synthetic payload")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_findable() {
        let names: BTreeSet<_> = SPECS.iter().map(|s| s.name).collect();
        assert_eq!(names.len(), SPECS.len());
        assert_eq!(
            spec_named("sampling_epochs").map(|s| s.kind),
            Some(Kind::SamplingEpochs)
        );
        assert!(spec_named("nope").is_none());
    }

    #[test]
    fn every_epoch_visits_every_window_of_every_dataset_once() {
        let sched = sampling_schedule(7);
        assert_eq!(sched.len(), SCHEDULE_EPOCHS);
        for epoch in &sched {
            let seen: BTreeSet<(usize, usize)> = epoch.iter().map(|(k, s)| (*k, s.start)).collect();
            assert_eq!(seen.len(), OPS_PER_EPOCH);
            assert!(epoch.iter().all(|(_, s)| s.end - s.start == WINDOW));
        }
        assert_ne!(sched[0], sched[1]);
        assert_eq!(sched, sampling_schedule(7));
        assert_ne!(sched, sampling_schedule(11));
    }
}
