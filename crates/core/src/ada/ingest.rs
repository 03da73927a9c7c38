//! The write side (§3.4): categorize → decompress → split → dispatch,
//! then persist the label and the index.
//!
//! Two bodies run those stages. [`Ada::ingest_whole`] holds the whole
//! decoded trajectory at once and takes "where the labeler comes from" as
//! a parameter — parse + Algorithm 1 for [`Ada::ingest`], an ingested
//! dataset's label for [`Ada::ingest_guided`]. [`Ada::ingest_streaming`]
//! runs the same stages as a bounded pipeline over frame batches. A
//! size-only dataset ([`IngestInput::Synthetic`]) skips the codecs and
//! dispatches volumes. All of them dispatch through [`Ada::append`] and
//! end in the same [`Ada::commit`], inside [`Ada::in_new_container`],
//! which takes the dataset name back if anything after it failed.

use super::{
    max_across_backends, traced, Ada, DatasetState, IngestInput, IngestReport, QueueDepth,
};
use crate::categorizer::{categorize_algo1, Labeler};
use crate::labeler::LabelFile;
use crate::preprocess::{split_trajectory_traced, SplitOptions};
use crate::synth::SyntheticDataset;
use crate::AdaError;
use ada_mdformats::parse_structure;
use ada_mdformats::xtc::{decode_frames_parallel, index_frames, FrameSpan};
use ada_mdformats::xtcf::{frame_record_len, seal_v2, XTCF_HEADER_LEN};
use ada_mdformats::Trajectory;
use ada_mdmodel::{IndexRanges, Tag};
use ada_simfs::Content;
use ada_storagesim::{CpuWork, SimDuration};
use ada_telemetry::trace::TraceContext;
use std::collections::BTreeMap;
use std::time::Instant;

/// What the splitter needs to know about the structure, however it was
/// learned.
struct Labels {
    natoms: usize,
    labeler: Labeler,
    /// Simulated categorizer time (zero when the labeler was reused).
    categorize: SimDuration,
}

impl Labels {
    /// Every frame of the trajectory must have the structure's atom count.
    /// The frame headers say so before anything is decompressed; the first
    /// frame that disagrees is the one reported.
    fn check_frames(&self, spans: &[FrameSpan]) -> Result<(), AdaError> {
        match spans.iter().find(|s| s.natoms != self.natoms) {
            Some(bad) => Err(AdaError::AtomMismatch {
                pdb: self.natoms,
                xtc: bad.natoms,
            }),
            None => Ok(()),
        }
    }
}

/// What the dispatcher has written so far: virtual write time per backend
/// and stored bytes per tag.
#[derive(Default)]
struct Routed {
    write_by_backend: BTreeMap<String, SimDuration>,
    stored_by_tag: BTreeMap<Tag, u64>,
}

impl Ada {
    /// Ingest a (`.pdb`, `.xtc`) pair under `dataset`, performing the whole
    /// §3.4 pipeline on the storage node.
    pub fn ingest(&self, dataset: &str, input: IngestInput) -> Result<IngestReport, AdaError> {
        self.ingest_traced(dataset, input, &TraceContext::inactive())
    }

    /// [`Ada::ingest`] under an existing trace: the request's spans become
    /// children of `parent` (the `Frontend` passes its admission root).
    /// With an inactive `parent`, a fresh root trace is minted instead.
    pub fn ingest_traced(
        &self,
        dataset: &str,
        input: IngestInput,
        parent: &TraceContext,
    ) -> Result<IngestReport, AdaError> {
        let mode = match &input {
            IngestInput::Real { .. } => "serial",
            IngestInput::Synthetic(_) => "synthetic",
        };
        traced("ada.ingest", mode, parent, |ctx| match input {
            IngestInput::Real {
                pdb_text,
                xtc_bytes,
            } => self.ingest_whole(dataset, || self.categorize(&pdb_text, ctx), &xtc_bytes, ctx),
            IngestInput::Synthetic(spec) => self.ingest_synthetic(dataset, spec, ctx),
        })
    }

    /// Ingest an additional trajectory guided by an already-analyzed
    /// structure: "one .pdb file can guide multiple .xtc files, which
    /// represent different atom motion phases" (§2.1). The categorizer
    /// pass is skipped — the guide dataset's labeler is reused.
    pub fn ingest_guided(
        &self,
        dataset: &str,
        guide: &str,
        xtc_bytes: &[u8],
    ) -> Result<IngestReport, AdaError> {
        self.ingest_guided_traced(dataset, guide, xtc_bytes, &TraceContext::inactive())
    }

    /// [`Ada::ingest_guided`] under an existing trace (see
    /// [`Ada::ingest_traced`]).
    pub fn ingest_guided_traced(
        &self,
        dataset: &str,
        guide: &str,
        xtc_bytes: &[u8],
        parent: &TraceContext,
    ) -> Result<IngestReport, AdaError> {
        traced("ada.ingest_guided", "guided", parent, |ctx| {
            self.ingest_whole(
                dataset,
                || {
                    let guide = self.label(guide)?;
                    Ok(Labels {
                        natoms: guide.natoms,
                        labeler: guide.tags,
                        categorize: SimDuration::ZERO,
                    })
                },
                xtc_bytes,
                ctx,
            )
        })
    }

    /// Categorizer: analyze the structure file (Algo 1).
    fn categorize(&self, pdb_text: &str, ctx: &TraceContext) -> Result<Labels, AdaError> {
        let _ts = ctx.span("ingest.categorize");
        let system = parse_structure(pdb_text).map_err(AdaError::Pdb)?;
        let labeler = categorize_algo1(&system, &self.config.taxonomy);
        Ok(Labels {
            natoms: system.len(),
            labeler,
            categorize: CpuWork::Categorize {
                bytes: pdb_text.len() as u64,
            }
            .duration(&self.config.storage_cpu),
        })
    }

    /// Whole-trajectory ingest: decode everything, split everything,
    /// dispatch everything. `labels` says where the labeler comes from.
    fn ingest_whole(
        &self,
        dataset: &str,
        labels: impl FnOnce() -> Result<Labels, AdaError>,
        xtc_bytes: &[u8],
        ctx: &TraceContext,
    ) -> Result<IngestReport, AdaError> {
        let labels = labels()?;

        // Decompressor: decode the trajectory (parallel across frames —
        // storage-node cores are ADA's to spend).
        let traj = {
            let mut ts = ctx.span("ingest.decode");
            ts.arg("bytes", xtc_bytes.len());
            labels.check_frames(&index_frames(xtc_bytes)?)?;
            let traj = decode_frames_parallel(xtc_bytes, self.config.decode_threads)?;
            ts.arg("frames", traj.len());
            traj
        };
        let raw_bytes = traj.nbytes() as u64;

        // Splitter: divide every frame by the labeler's ranges (tag ×
        // frame-chunk work cells over the configured worker pool).
        let split_out = {
            let mut ts = ctx.span("ingest.split");
            ts.arg("bytes", raw_bytes);
            ts.arg("frames", traj.len());
            split_trajectory_traced(
                &traj,
                &labels.labeler,
                SplitOptions::with_threads(self.config.split_threads),
                ctx,
            )?
        };

        self.in_new_container(dataset, || {
            // Dispatcher: chunked droppings to policy-chosen backends.
            let routed = {
                let _ts = ctx.span("ingest.dispatch");
                self.dispatch_subsets(dataset, split_out.subsets, &labels.labeler, ctx)?
            };
            let label = LabelFile::new(dataset, labels.natoms, traj.len(), labels.labeler);
            self.commit(label, None, labels.categorize, raw_bytes, routed, ctx)
        })
    }

    fn ingest_synthetic(
        &self,
        dataset: &str,
        spec: SyntheticDataset,
        ctx: &TraceContext,
    ) -> Result<IngestReport, AdaError> {
        let categorize = CpuWork::Categorize {
            bytes: spec.pdb_bytes(),
        }
        .duration(&self.config.storage_cpu);
        self.in_new_container(dataset, || {
            let mut routed = Routed::default();
            {
                let _ts = ctx.span("ingest.dispatch");
                for tag in spec.tags() {
                    let content = Content::synthetic(spec.tag_bytes(&tag));
                    self.append(dataset, &tag, content, 0, &mut routed)?;
                }
            }

            // The label metadata itself is real (it is small).
            let mut labeler = BTreeMap::new();
            let mut cursor = 0usize;
            for (tag, atoms) in &spec.atoms_by_tag {
                labeler.insert(
                    tag.clone(),
                    IndexRanges::single(cursor..cursor + *atoms as usize),
                );
                cursor += *atoms as usize;
            }
            let label =
                LabelFile::new(dataset, spec.natoms as usize, spec.frames as usize, labeler);
            let raw_bytes = spec.raw_bytes();
            self.commit(label, Some(spec), categorize, raw_bytes, routed, ctx)
        })
    }

    /// Run the storing half of an ingest — dispatch, then [`Ada::commit`]
    /// — in a freshly created container, all or nothing: if `store`
    /// fails, everything it wrote is removed and the name is free again.
    fn in_new_container<T>(
        &self,
        dataset: &str,
        store: impl FnOnce() -> Result<T, AdaError>,
    ) -> Result<T, AdaError> {
        let containers = self.determinator.containers();
        // `LogicalExists` leaves through this `?`: that container is
        // someone else's dataset, and nothing of it may be touched.
        containers.create_logical(dataset)?;
        store().inspect_err(|_| {
            // `commit` publishes the name as its last, infallible step, so
            // an error means no one can have seen this dataset: reclaim
            // its droppings on every backend and a half-written label.
            let _ = containers.delete_logical(dataset);
            let _ = self.label_fs.delete(&LabelFile::path_for(dataset));
        })
    }

    /// Append one dropping to its policy-chosen backend and tally it.
    /// Returns the stored length.
    fn append(
        &self,
        dataset: &str,
        tag: &Tag,
        content: Content,
        nframes: u64,
        routed: &mut Routed,
    ) -> Result<u64, AdaError> {
        let len = content.len();
        let (backend, d) = self
            .determinator
            .dispatch_frames(dataset, tag, content, nframes)?;
        *routed
            .write_by_backend
            .entry(backend)
            .or_insert(SimDuration::ZERO) += d;
        *routed.stored_by_tag.entry(tag.clone()).or_insert(0) += len;
        Ok(len)
    }

    /// The epilogue every ingest ends in: persist the label file and the
    /// PLFS index, publish the dataset, and build the report. `synthetic`
    /// carries the spec of a size-only dataset.
    fn commit(
        &self,
        label: LabelFile,
        synthetic: Option<SyntheticDataset>,
        categorize: SimDuration,
        raw_bytes: u64,
        routed: Routed,
        ctx: &TraceContext,
    ) -> Result<IngestReport, AdaError> {
        let cpu = &self.config.storage_cpu;
        let dataset = label.dataset.clone();

        let label_write = {
            let _ts = ctx.span("ingest.label_write");
            label.store(self.label_fs.as_ref())?
                + self.determinator.containers().persist_index(&dataset)?
        };

        self.cache.invalidate_dataset(&dataset);
        let state = match synthetic {
            Some(spec) => DatasetState::Synthetic { spec },
            None => DatasetState::Real { label },
        };
        self.datasets.lock().insert(dataset.clone(), state);

        if ada_telemetry::enabled() {
            let reg = ada_telemetry::global();
            for (tag, bytes) in &routed.stored_by_tag {
                reg.counter(&format!("ingest.bytes_routed.{}", tag))
                    .add(*bytes);
            }
        }
        Ok(IngestReport {
            dataset,
            decompress: CpuWork::Decompress {
                out_bytes: raw_bytes,
            }
            .duration(cpu),
            categorize,
            split: CpuWork::Scan { bytes: raw_bytes }.duration(cpu),
            write: max_across_backends(&routed.write_by_backend),
            label_write,
            raw_bytes,
            bytes_by_tag: routed.stored_by_tag,
            profile: None, // cut from the op span's tree once it closes
        })
    }

    /// Dispatcher stage of the whole-trajectory body: chunk each tag's
    /// payload into droppings and write them out. Sealing (the per-chunk
    /// checksums) fans out across scoped threads, one per backend; the
    /// appends then run on the caller in backend order, so the
    /// container's dropping sequence and logical offsets — and with them
    /// the persisted index's size and the simulated `label_write` — do
    /// not depend on which thread won a race. (The appends never
    /// overlapped anyway: `ContainerSet` serializes them under its lock.)
    fn dispatch_subsets(
        &self,
        dataset: &str,
        subsets: BTreeMap<Tag, Vec<u8>>,
        labeler: &Labeler,
        ctx: &TraceContext,
    ) -> Result<Routed, AdaError> {
        let mut by_backend: BTreeMap<String, Vec<(Tag, Vec<u8>)>> = BTreeMap::new();
        for (tag, payload) in subsets {
            let backend = self.determinator.policy().backend_for(&tag).to_string();
            by_backend.entry(backend).or_default().push((tag, payload));
        }

        let frames_per_dropping = self.config.frames_per_dropping;
        let chunk_frames = self.config.chunk_frames;
        /// One backend's tags, each with its sealed droppings and their
        /// frame counts.
        type Sealed = Result<Vec<(Tag, Vec<(Vec<u8>, u64)>)>, AdaError>;
        let sealed: Vec<Sealed> = crossbeam::thread::scope(|scope| {
            let handles: Vec<_> = by_backend
                .into_values()
                .map(|group| {
                    let bctx = ctx.clone();
                    scope.spawn(move |_| -> Sealed {
                        let mut ts = bctx.span("ingest.dispatch.backend");
                        ts.arg("tags", group.len());
                        let mut out = Vec::with_capacity(group.len());
                        for (tag, payload) in group {
                            let natoms = labeler[&tag].count();
                            let droppings = chunk_droppings(
                                payload,
                                natoms,
                                frames_per_dropping,
                                chunk_frames,
                            )?;
                            out.push((tag, droppings));
                        }
                        Ok(out)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|p| Err(crate::worker_panic("dispatch worker", p)))
                })
                .collect()
        })
        .map_err(|p| crate::worker_panic("dispatch scope", p))?;

        let mut routed = Routed::default();
        for backend_out in sealed {
            for (tag, droppings) in backend_out? {
                for (bytes, nf) in droppings {
                    self.append(dataset, &tag, Content::real(bytes), nf, &mut routed)?;
                }
            }
        }
        Ok(routed)
    }

    /// Streaming real-mode ingest: decode and dispatch the trajectory in
    /// batches of `batch_frames`, so the storage node's memory footprint
    /// stays bounded by a few batches instead of the whole decompressed
    /// dataset. Functionally identical to [`Ada::ingest`] (same droppings
    /// modulo chunk boundaries, same label).
    ///
    /// The stages form a bounded pipeline — decoder thread → splitter
    /// pool → dispatcher — connected by `sync_channel`s of depth
    /// [`super::AdaConfig::pipeline_depth`]: batch N+1 decodes while batch
    /// N splits and batch N−1 writes. Splitters may finish out of order;
    /// the dispatcher reorders by batch sequence number so the stored
    /// droppings are identical to the serial schedule's.
    pub fn ingest_streaming(
        &self,
        dataset: &str,
        pdb_text: &str,
        xtc_bytes: &[u8],
        batch_frames: usize,
    ) -> Result<IngestReport, AdaError> {
        self.ingest_streaming_traced(
            dataset,
            pdb_text,
            xtc_bytes,
            batch_frames,
            &TraceContext::inactive(),
        )
    }

    /// [`Ada::ingest_streaming`] under an existing trace (see
    /// [`Ada::ingest_traced`]). The context crosses both bounded channels:
    /// the decoder thread, every splitter worker, and the dispatcher each
    /// contribute a span to the same tree.
    pub fn ingest_streaming_traced(
        &self,
        dataset: &str,
        pdb_text: &str,
        xtc_bytes: &[u8],
        batch_frames: usize,
        parent: &TraceContext,
    ) -> Result<IngestReport, AdaError> {
        traced("ada.ingest_streaming", "pipelined", parent, |ctx| {
            let labels = self.categorize(pdb_text, ctx)?;
            self.in_new_container(dataset, || {
                let (raw_bytes, nframes, routed) =
                    self.stream_batches(dataset, &labels, xtc_bytes, batch_frames.max(1), ctx)?;
                let label = LabelFile::new(dataset, labels.natoms, nframes, labels.labeler);
                self.commit(label, None, labels.categorize, raw_bytes, routed, ctx)
            })
        })
    }

    /// The streaming pipeline proper. Returns the raw bytes and frames
    /// that went through it and what the dispatcher wrote.
    fn stream_batches(
        &self,
        dataset: &str,
        labels: &Labels,
        xtc_bytes: &[u8],
        batch_frames: usize,
        ctx: &TraceContext,
    ) -> Result<(u64, usize, Routed), AdaError> {
        let depth = self.config.pipeline_depth.max(1);
        let decode_threads = self.config.decode_threads.max(1);
        let split_workers = if self.config.split_threads > 0 {
            self.config.split_threads
        } else {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        };

        // (raw bytes, frames, per-tag payloads) of one split batch.
        type SplitMsg = Result<(u64, usize, BTreeMap<Tag, Vec<u8>>), AdaError>;

        // Each stage's span covers its worker's whole life, so the stage
        // times itself: `busy_ns` counts only the time it spends working,
        // excluding time blocked on a channel. Stages overlap, so these
        // legitimately sum past the wall time; the largest one is the
        // pipeline's ceiling. A producer also leaves the high-water mark
        // of the queue it feeds, as it last saw it, on its span.
        let queue_decoded = QueueDepth::gauge("ingest.queue.decoded");
        let queue_split = QueueDepth::gauge("ingest.queue.split");
        let (decoded_tx, decoded_rx) = queue_decoded.channel::<(u64, Trajectory)>(depth);
        let (split_tx, split_rx) = queue_split.channel::<(u64, SplitMsg)>(depth);

        let mut routed = Routed::default();
        let mut raw_bytes = 0u64;
        let mut nframes = 0usize;

        let outcome: Result<(), AdaError> = crossbeam::thread::scope(|scope| {
            let (queue_decoded, queue_split, decoded_rx) =
                (&queue_decoded, &queue_split, &decoded_rx);

            // Stage 1 — decoder: one serial header scan finds the frame
            // boundaries (headers are cheap, inflate dominates), then each
            // batch's byte span fans out across `decode_frames_parallel`,
            // the same decoder the whole-trajectory body uses.
            let decoder = scope.spawn(move |_| -> Result<(), AdaError> {
                // One span per stage-worker lifetime: its trace ancestry
                // (not a thread-local) ties it to the request, so the tree
                // stays connected across the bounded channels.
                let mut tspan = ctx.span("ingest.decode");
                let (mut busy_ns, mut in_bytes, mut frames) = (0u64, 0usize, 0usize);
                let outcome = (|| -> Result<(), AdaError> {
                    let spans = index_frames(xtc_bytes)?;
                    labels.check_frames(&spans)?;
                    let mut busy = Instant::now();
                    for (seq, window) in spans.chunks(batch_frames).enumerate() {
                        let (Some(first), Some(last)) = (window.first(), window.last()) else {
                            break; // chunks() never yields an empty window
                        };
                        let bytes = &xtc_bytes[first.offset..last.offset + last.len];
                        let traj = decode_frames_parallel(bytes, decode_threads)?;
                        busy_ns += busy.elapsed().as_nanos() as u64;
                        in_bytes += bytes.len();
                        frames += traj.len();
                        if !decoded_tx.send((seq as u64, traj)) {
                            break; // downstream hung up on its own error
                        }
                        busy = Instant::now(); // exclude time blocked on send
                    }
                    Ok(())
                })();
                tspan.arg("busy_ns", busy_ns);
                tspan.arg("bytes", in_bytes);
                tspan.arg("frames", frames);
                tspan.arg("queue.decoded", queue_decoded.high_water());
                if let Err(e) = &outcome {
                    tspan.set_error(e.kind());
                }
                outcome
            });

            // Stage 2 — splitter pool: workers pull decoded batches from
            // the shared receiver; each splits its batch single-threaded
            // (parallelism comes from batches in flight).
            for _ in 0..split_workers {
                let tx = split_tx.clone();
                scope.spawn(move |_| {
                    let mut tspan = ctx.span("ingest.split");
                    let (mut busy_ns, mut raw, mut frames) = (0u64, 0u64, 0usize);
                    while let Some((seq, traj)) = decoded_rx.recv() {
                        let busy = Instant::now();
                        let res: SplitMsg = split_trajectory_traced(
                            &traj,
                            &labels.labeler,
                            SplitOptions {
                                threads: 1,
                                chunk_frames: 0,
                            },
                            &TraceContext::inactive(),
                        )
                        .map(|out| (out.raw_bytes, traj.len(), out.subsets));
                        busy_ns += busy.elapsed().as_nanos() as u64;
                        if let Ok((rb, nf, _)) = &res {
                            raw += rb;
                            frames += nf;
                        }
                        if !tx.send((seq, res)) {
                            break;
                        }
                    }
                    tspan.arg("busy_ns", busy_ns);
                    tspan.arg("bytes", raw);
                    tspan.arg("frames", frames);
                    tspan.arg("queue.split", queue_split.high_water());
                });
            }
            drop(split_tx); // dispatcher sees the end once the pool drains

            // Stage 3 — dispatcher (this thread): reorder by sequence
            // number, then write each batch's subsets. After the first
            // error it keeps draining, without dispatching, so the stages
            // upstream can finish.
            let mut tspan = ctx.span("ingest.dispatch");
            let (mut busy_ns, mut stored_bytes) = (0u64, 0u64);
            let mut pending: BTreeMap<u64, SplitMsg> = BTreeMap::new();
            let mut next_seq = 0u64;
            let mut first_err: Option<AdaError> = None;
            while let Some((seq, res)) = split_rx.recv() {
                pending.insert(seq, res);
                let busy = Instant::now();
                while let Some(res) = pending.remove(&next_seq) {
                    next_seq += 1;
                    if first_err.is_some() {
                        continue;
                    }
                    let stored = res.and_then(|(rb, nf, subsets)| {
                        raw_bytes += rb;
                        nframes += nf;
                        self.dispatch_batch(dataset, &labels.labeler, nf, subsets, &mut routed)
                    });
                    match stored {
                        Ok(bytes) => stored_bytes += bytes,
                        Err(e) => first_err = Some(e),
                    }
                }
                busy_ns += busy.elapsed().as_nanos() as u64;
            }
            tspan.arg("busy_ns", busy_ns);
            tspan.arg("bytes", stored_bytes);
            drop(tspan);

            let decode_outcome = decoder
                .join()
                .unwrap_or_else(|p| Err(crate::worker_panic("ingest decoder", p)));
            match (decode_outcome, first_err) {
                (Err(e), _) | (Ok(()), Some(e)) => Err(e),
                (Ok(()), None) => Ok(()),
            }
        })
        .map_err(|p| crate::worker_panic("ingest pipeline", p))?;
        outcome?;
        Ok((raw_bytes, nframes, routed))
    }

    /// Dispatcher step of the streaming pipeline: each subset of a batch
    /// becomes one v2 dropping; its frame count rides in the index so
    /// range reads map frames without bytes. Returns the bytes stored.
    fn dispatch_batch(
        &self,
        dataset: &str,
        labeler: &Labeler,
        nframes: usize,
        subsets: BTreeMap<Tag, Vec<u8>>,
        routed: &mut Routed,
    ) -> Result<u64, AdaError> {
        let mut stored = 0u64;
        for (tag, payload) in subsets {
            let sealed = seal(payload, labeler[&tag].count(), self.config.chunk_frames)?;
            stored += self.append(dataset, &tag, Content::real(sealed), nframes as u64, routed)?;
        }
        Ok(stored)
    }
}

/// Seal an XTCF payload as a chunked v2 dropping (in place, no copy).
fn seal(payload: Vec<u8>, natoms: usize, chunk_frames: usize) -> Result<Vec<u8>, AdaError> {
    seal_v2(payload, natoms, chunk_frames)
        .map_err(|e| AdaError::Internal(format!("sealing a fresh dropping failed: {}", e)))
}

/// Split an XTCF payload into dropping-sized pieces along frame
/// boundaries, sealing each piece as a chunked v2 dropping and pairing it
/// with its frame count for the index. Takes the payload by value: when it
/// already fits one dropping (the common case) its bytes are sealed in
/// place without copying.
fn chunk_droppings(
    payload: Vec<u8>,
    natoms: usize,
    frames_per_dropping: usize,
    chunk_frames: usize,
) -> Result<Vec<(Vec<u8>, u64)>, AdaError> {
    let record = frame_record_len(natoms).max(1);
    let nframes = payload.len().saturating_sub(XTCF_HEADER_LEN) / record;
    if nframes <= frames_per_dropping {
        return Ok(vec![(seal(payload, natoms, chunk_frames)?, nframes as u64)]);
    }
    let mut out = Vec::new();
    let header = &payload[..XTCF_HEADER_LEN];
    let body = &payload[XTCF_HEADER_LEN..];
    let mut f = 0usize;
    while f < nframes {
        let take = frames_per_dropping.min(nframes - f);
        let mut piece = Vec::with_capacity(XTCF_HEADER_LEN + take * record);
        piece.extend_from_slice(header);
        piece.extend_from_slice(&body[f * record..(f + take) * record]);
        out.push((seal(piece, natoms, chunk_frames)?, take as u64));
        f += take;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::super::testkit::*;
    use super::super::{AdaConfig, IngestInput, RetrievedData};
    use crate::synth::SyntheticDataset;
    use crate::AdaError;
    use ada_mdmodel::Tag;

    #[test]
    fn real_ingest_and_tagged_query_roundtrip() {
        let ada = make_ada();
        let (input, w) = real_input(1200, 3);
        let report = ada.ingest("bar", input).unwrap();
        assert!(report.raw_bytes > 0);
        assert!(report.total().as_secs_f64() > 0.0);
        assert_eq!(report.bytes_by_tag.len(), 2);

        let q = ada.query("bar", Some(&Tag::protein())).unwrap();
        match q.data {
            RetrievedData::Real(traj) => {
                assert_eq!(traj.len(), 3);
                let prot = w.system.category_ranges(ada_mdmodel::Category::Protein);
                assert_eq!(traj.natoms(), prot.count());
                // Coordinates equal the quantized originals gathered by the
                // protein ranges.
                let expect = prot.gather(&w.trajectory.frames[1].coords);
                for (a, b) in traj.frames[1].coords.iter().zip(&expect) {
                    for d in 0..3 {
                        assert!((a[d] - b[d]).abs() < 0.5 / 1000.0 + 1e-6);
                    }
                }
            }
            _ => panic!("expected real data"),
        }
    }

    #[test]
    fn synthetic_ingest_and_query() {
        let ada = make_ada();
        let spec = SyntheticDataset::gpcr_paper(626);
        let raw = spec.raw_bytes();
        let prot = spec.tag_bytes(&Tag::protein());
        let report = ada.ingest("big", IngestInput::Synthetic(spec)).unwrap();
        assert_eq!(report.raw_bytes, raw);
        assert!(report.decompress.as_secs_f64() > 1.0); // 327 MB at ~28.6 MB/s

        let q = ada.query("big", Some(&Tag::protein())).unwrap();
        match q.data {
            RetrievedData::Synthetic { bytes, frames, .. } => {
                assert_eq!(bytes, prot);
                assert_eq!(frames, 626);
            }
            _ => panic!("expected synthetic"),
        }
        let qa = ada.query("big", None).unwrap();
        assert_eq!(qa.data.bytes(), raw);
    }

    #[test]
    fn hybrid_placement_real_mode() {
        let ada = make_ada();
        let (input, _) = real_input(1500, 2);
        ada.ingest("bar", input).unwrap();
        let by_backend = ada.containers().bytes_by_backend("bar").unwrap();
        assert!(by_backend.contains_key("ssd"));
        assert!(by_backend.contains_key("hdd"));
        // MISC is the bigger share (Table 1: protein < 50 %).
        assert!(by_backend["hdd"] > by_backend["ssd"]);
    }

    #[test]
    fn streaming_ingest_equals_batch_ingest() {
        let w = ada_workload::gpcr_workload(1000, 7, 91);
        let pdb_text = ada_mdformats::write_pdb(&w.system);
        let xtc_bytes = xtc_of(&w);

        let whole = make_ada();
        whole
            .ingest(
                "bar",
                IngestInput::Real {
                    pdb_text: pdb_text.clone(),
                    xtc_bytes: xtc_bytes.clone(),
                },
            )
            .unwrap();
        // `decode_threads = 1` is the decoder's serial schedule: the same
        // batches, inflated one frame after another.
        for (batch, decode_threads) in [(1usize, 4usize), (3, 4), (100, 4), (3, 1)] {
            let streamed = make_ada_with(AdaConfig {
                decode_threads,
                ..AdaConfig::paper_prototype("ssd", "hdd")
            });
            let report = streamed
                .ingest_streaming("bar", &pdb_text, &xtc_bytes, batch)
                .unwrap();
            assert!(report.raw_bytes > 0);
            // Delivered data identical regardless of batching.
            for tag in [Tag::protein(), Tag::misc()] {
                let a = match whole.query("bar", Some(&tag)).unwrap().data {
                    RetrievedData::Real(t) => t,
                    _ => unreachable!(),
                };
                let b = match streamed.query("bar", Some(&tag)).unwrap().data {
                    RetrievedData::Real(t) => t,
                    _ => unreachable!(),
                };
                assert_eq!(a, b, "batch {} tag {}", batch, tag);
            }
            assert_eq!(
                whole.label("bar").unwrap().tags,
                streamed.label("bar").unwrap().tags
            );
        }
    }

    #[test]
    fn streaming_ingest_rejects_bad_input() {
        let ada = make_ada();
        let w = ada_workload::gpcr_workload(500, 2, 92);
        let xtc = ada_mdformats::xtc::write_xtc(&w.trajectory, 1000.0).unwrap();
        // Mismatched structure.
        let other = ada_workload::gpcr_workload(300, 1, 93);
        let bad_pdb = ada_mdformats::write_pdb(&other.system);
        assert!(matches!(
            ada.ingest_streaming("x", &bad_pdb, &xtc, 4),
            Err(AdaError::AtomMismatch { .. })
        ));
        // Truncated trajectory.
        let good_pdb = ada_mdformats::write_pdb(&w.system);
        assert!(ada
            .ingest_streaming("y", &good_pdb, &xtc[..xtc.len() - 9], 4)
            .is_err());
        // Neither failure keeps its name: both ingest cleanly afterwards.
        assert!(ada.list_datasets().is_empty());
        assert!(ada.containers().list_logical().is_empty());
        ada.ingest_streaming("x", &good_pdb, &xtc, 4).unwrap();
        ada.ingest_streaming("y", &good_pdb, &xtc, 4).unwrap();
    }

    #[test]
    fn gro_structure_ingest_works() {
        // ADA accepts GROMACS .gro structures (auto-detected).
        let ada = make_ada();
        let w = ada_workload::gpcr_workload(900, 2, 61);
        let gro_text = ada_mdformats::write_gro(&w.system);
        let xtc_bytes = xtc_of(&w);
        ada.ingest(
            "grotest",
            IngestInput::Real {
                pdb_text: gro_text,
                xtc_bytes,
            },
        )
        .unwrap();
        let q = ada.query("grotest", Some(&Tag::protein())).unwrap();
        match q.data {
            RetrievedData::Real(t) => {
                assert_eq!(t.len(), 2);
                assert_eq!(
                    t.natoms(),
                    w.system
                        .category_ranges(ada_mdmodel::Category::Protein)
                        .count()
                );
            }
            _ => panic!(),
        }
    }

    #[test]
    fn one_pdb_guides_multiple_xtc_files() {
        // §2.1: a .pdb guides several .xtc motion phases; guided ingest
        // reuses the categorizer output.
        let ada = make_ada();
        let w = ada_workload::gpcr_workload(1200, 2, 77);
        let pdb_text = ada_mdformats::write_pdb(&w.system);
        let phase1 = xtc_of(&w);
        ada.ingest(
            "phase1",
            IngestInput::Real {
                pdb_text,
                xtc_bytes: phase1,
            },
        )
        .unwrap();

        // A later motion phase over the same structure.
        let w2 = ada_workload::gpcr_workload(1200, 3, 78);
        let phase2 = xtc_of(&w2);
        let report = ada.ingest_guided("phase2", "phase1", &phase2).unwrap();
        assert_eq!(report.categorize, ada_storagesim::SimDuration::ZERO);
        assert!(report.raw_bytes > 0);
        let p = report.profile.expect("telemetry is on by default");
        assert_eq!(p.mode, "guided");
        assert!(!p.stages_ns.contains_key("categorize"));

        // Labels agree between guide and guided dataset.
        assert_eq!(
            ada.label("phase1").unwrap().tags,
            ada.label("phase2").unwrap().tags
        );
        let q = ada.query("phase2", Some(&Tag::protein())).unwrap();
        match q.data {
            RetrievedData::Real(t) => assert_eq!(t.len(), 3),
            _ => panic!(),
        }

        // Mismatched structures are rejected.
        let w3 = ada_workload::gpcr_workload(500, 1, 79);
        let bad = xtc_of(&w3);
        assert!(matches!(
            ada.ingest_guided("phase3", "phase1", &bad),
            Err(AdaError::AtomMismatch { .. })
        ));
        // Unknown guide rejected.
        assert!(ada.ingest_guided("p4", "nope", &[]).is_err());
    }

    #[test]
    fn pipelined_profile_has_queue_high_water_marks() {
        let ada = make_ada();
        let w = ada_workload::gpcr_workload(800, 6, 13);
        let pdb_text = ada_mdformats::write_pdb(&w.system);
        let xtc_bytes = xtc_of(&w);
        let report = ada
            .ingest_streaming("bar", &pdb_text, &xtc_bytes, 2)
            .unwrap();
        let p = report.profile.expect("telemetry is on by default");
        assert_eq!(p.mode, "pipelined");
        for stage in ["categorize", "decode", "split", "dispatch", "label_write"] {
            assert!(p.stages_ns.contains_key(stage), "missing stage {}", stage);
        }
        // 3 batches flowed through both channels; the queues were observed.
        assert!(p.queue_hwm.contains_key("decoded"));
        assert!(p.queue_hwm.contains_key("split"));
        assert!(p.queue_hwm["decoded"] >= 1);
        assert!(p.wall_ns > 0);
        // Global outcome counter saw this call.
        let snap = ada_telemetry::global().snapshot();
        assert!(snap.counters["ada.ingest_streaming.ok"] >= 1);
    }

    #[test]
    fn dropping_chunking_respected() {
        let mut cfg = AdaConfig::paper_prototype("ssd", "hdd");
        cfg.frames_per_dropping = 2;
        let ada = make_ada_with(cfg);
        let (input, w) = real_input(600, 5);
        ada.ingest("bar", input).unwrap();
        // 5 frames / 2 per dropping = 3 droppings per tag.
        let index = ada.containers().index("bar").unwrap();
        assert_eq!(index.len(), 6);
        // And the data still reads back whole.
        let q = ada.query("bar", Some(&Tag::protein())).unwrap();
        match q.data {
            RetrievedData::Real(t) => {
                assert_eq!(t.len(), 5);
                assert_eq!(
                    t.natoms(),
                    w.system
                        .category_ranges(ada_mdmodel::Category::Protein)
                        .count()
                );
            }
            _ => panic!(),
        }
    }
}
