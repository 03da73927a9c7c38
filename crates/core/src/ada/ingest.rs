//! The write side (§3.4): categorize → decompress → split → dispatch,
//! then persist the label and the index.
//!
//! One body runs those stages over real bytes, [`Ada::ingest_windows`]:
//! index, then a chunk pool. One header scan finds and checks the frames;
//! then, a dropping-sized window at a time, the window is cut into its
//! stored chunks and the crate's pool carries each chunk through decode →
//! split → checksum ([`ingest_chunk`]), after which the caller assembles
//! one v2 dropping per tag from the chunk bodies and appends it. Windows
//! do not overlap and a window's decoded frames never exist together: in
//! flight are at most `ingest_threads` chunks of frames plus the window's
//! encoded bodies, however long the trajectory is. The body takes
//! "where the labeler comes from" as a parameter — parse + Algorithm 1
//! for [`Ada::ingest`], an ingested dataset's label for
//! [`Ada::ingest_guided`]. A size-only dataset
//! ([`IngestInput::Synthetic`]) skips the codecs and dispatches volumes.
//! Both dispatch through [`Ada::append`] and end in the same
//! [`Ada::commit`], inside [`Ada::in_new_container`], which takes the
//! dataset name back if anything after it failed.

use super::{max_across_backends, traced, Ada, DatasetState, IngestInput, IngestReport};
use crate::categorizer::{categorize_algo1, Labeler};
use crate::labeler::LabelFile;
use crate::preprocess::{check_ranges, encode_chunk};
use crate::synth::SyntheticDataset;
use crate::AdaError;
use ada_mdformats::parse_structure;
use ada_mdformats::xtc::{decode_spans, index_frames, FrameSpan};
use ada_mdformats::xtcf::{
    crc32, encoded_len, V2Assembler, XTCF_DIR_ENTRY_LEN, XTCF_HEADER_LEN, XTCF_TRAILER_LEN,
};
use ada_mdmodel::{IndexRanges, Tag};
use ada_simfs::Content;
use ada_storagesim::{CpuWork, SimDuration};
use ada_telemetry::trace::TraceContext;
use std::collections::BTreeMap;

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
    /// frame that disagrees is the one reported, and a file without frames
    /// has no atoms at all.
    fn check_frames(&self, spans: &[FrameSpan]) -> Result<(), AdaError> {
        let xtc = match spans {
            [] => Some(0),
            _ => spans.iter().map(|s| s.natoms).find(|n| *n != self.natoms),
        };
        match xtc {
            Some(xtc) => Err(AdaError::AtomMismatch {
                pdb: self.natoms,
                xtc,
            }),
            None => Ok(()),
        }
    }
}

/// One tag's share of one chunk: the chunk's frame records for the tag as
/// a v1 byte string (assembly skips its header) and their CRC-32.
struct TagChunk {
    v1: Vec<u8>,
    crc: u32,
}

/// What a worker made of one chunk of a window.
struct ChunkOut {
    nframes: u32,
    /// Decoded volume of the chunk's frames.
    raw_bytes: u64,
    /// Per tag, in labeler order.
    tags: Vec<TagChunk>,
}

/// The ingest pool's unit: carry one stored chunk of frames from the
/// compressed bytes to its per-tag records. Decompressor, then splitter
/// (gather every frame by each tag's ranges, encode the fixed-size
/// records), then the checksum of each body while it is hot. It stops at
/// the chunk's first bad frame.
fn ingest_chunk(
    xtc_bytes: &[u8],
    chunk: &[FrameSpan],
    labeler: &Labeler,
    gather_buf: &mut Vec<[f32; 3]>,
    ctx: &TraceContext,
) -> Result<ChunkOut, AdaError> {
    let traj = {
        let mut ts = ctx.span("ingest.decode");
        ts.arg("bytes", chunk.iter().map(|s| s.len).sum::<usize>());
        ts.arg("frames", chunk.len());
        decode_spans(xtc_bytes, chunk)?
    };
    let raw_bytes = traj.nbytes() as u64;
    let mut ts = ctx.span("ingest.split");
    ts.arg("bytes", raw_bytes);
    ts.arg("frames", traj.len());
    let mut tags = Vec::with_capacity(labeler.len());
    for ranges in labeler.values() {
        let v1 = encode_chunk(&traj, ranges, gather_buf)?;
        let crc = crc32(&v1[XTCF_HEADER_LEN..]);
        tags.push(TagChunk { v1, crc });
    }
    Ok(ChunkOut {
        nframes: u32::try_from(chunk.len())
            .map_err(|_| AdaError::Internal(format!("chunk of {} frames", chunk.len())))?,
        raw_bytes,
        tags,
    })
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
            } => self.ingest_windows(dataset, || self.categorize(&pdb_text, ctx), &xtc_bytes, ctx),
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
            self.ingest_windows(
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

    /// The real-bytes ingest: one header scan, then one dropping-sized
    /// window of frames at a time through the chunk pool and the
    /// dispatcher. `labels` says where the labeler comes from. Whatever
    /// `ingest_threads` is, what is stored is what sealing the serial
    /// split of each window would store, and the first error in (window,
    /// chunk) order is the request's.
    fn ingest_windows(
        &self,
        dataset: &str,
        labels: impl FnOnce() -> Result<Labels, AdaError>,
        xtc_bytes: &[u8],
        ctx: &TraceContext,
    ) -> Result<IngestReport, AdaError> {
        let labels = labels()?;
        let spans = index_frames(xtc_bytes)?;
        labels.check_frames(&spans)?;
        check_ranges(&labels.labeler, labels.natoms)?;
        // `check_frames` refused an empty file, so a window is never empty.
        let frames_per_dropping = match self.config.frames_per_dropping {
            0 => spans.len(),
            n => n,
        };
        // A window's droppings are appended in backend-then-tag order, so
        // the container's dropping sequence and logical offsets — and with
        // them the persisted index's size and the simulated `label_write`
        // — depend on the policy alone. (The sort is stable: tags keep
        // labeler order within a backend.)
        let policy = self.determinator.policy();
        let mut order: Vec<(usize, Tag)> = labels.labeler.keys().cloned().enumerate().collect();
        order.sort_by(|a, b| policy.backend_for(&a.1).cmp(policy.backend_for(&b.1)));

        self.in_new_container(dataset, || {
            let mut routed = Routed::default();
            let mut raw_bytes = 0u64;
            for window in spans.chunks(frames_per_dropping) {
                // The stored chunk is the unit — `seal_v2`'s cut — carried
                // from compressed bytes to checksummed records by one
                // worker: storage-node cores are ADA's to spend.
                let chunk_frames = match self.config.chunk_frames {
                    0 => window.len(),
                    n => n,
                };
                let chunks: Vec<&[FrameSpan]> = window.chunks(chunk_frames).collect();
                let (threads, labeler) = (self.config.ingest_threads, &labels.labeler);
                let done =
                    crate::run_pool("ingest worker", threads, chunks.len(), ctx, |ctx, claim| {
                        let mut done = Vec::new();
                        let mut gather_buf = Vec::new();
                        while let Some(c) = claim() {
                            let out =
                                ingest_chunk(xtc_bytes, chunks[c], labeler, &mut gather_buf, ctx);
                            done.push((c, out));
                        }
                        done
                    })?;
                // Unit order is chunk order, so the first `Err` met here is
                // the one the request fails with.
                let done = done.into_iter().collect::<Result<Vec<ChunkOut>, _>>()?;
                raw_bytes += done.iter().map(|c| c.raw_bytes).sum::<u64>();

                // Dispatcher: one dropping per tag — the chunk bodies in
                // order under one v2 directory — to its policy-chosen
                // backend; the window's frame count rides in the index so
                // range reads map frames without bytes.
                let _ts = ctx.span("ingest.dispatch");
                let nframes = window.len() as u64;
                let nominal = u32::try_from(chunk_frames).unwrap_or(u32::MAX);
                for (t, tag) in &order {
                    let natoms = labeler[tag].count();
                    let capacity = encoded_len(window.len(), natoms)
                        .saturating_add(chunks.len() * XTCF_DIR_ENTRY_LEN + XTCF_TRAILER_LEN);
                    let mut dropping = V2Assembler::with_capacity(capacity, natoms as u32, nominal);
                    for out in &done {
                        let TagChunk { v1, crc } = &out.tags[*t];
                        dropping
                            .chunk(out.nframes, *crc)
                            .extend_from_slice(&v1[XTCF_HEADER_LEN..]);
                    }
                    let dropping = Content::real(dropping.finish());
                    self.append(dataset, tag, dropping, nframes, &mut routed)?;
                }
            }
            let label = LabelFile::new(dataset, labels.natoms, spans.len(), labels.labeler);
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
    fn append(
        &self,
        dataset: &str,
        tag: &Tag,
        content: Content,
        nframes: u64,
        routed: &mut Routed,
    ) -> Result<(), AdaError> {
        let len = content.len();
        let (backend, d) = self
            .determinator
            .dispatch_frames(dataset, tag, content, nframes)?;
        *routed
            .write_by_backend
            .entry(backend)
            .or_insert(SimDuration::ZERO) += d;
        *routed.stored_by_tag.entry(tag.clone()).or_insert(0) += len;
        Ok(())
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
    fn dropping_size_does_not_change_what_is_delivered() {
        let w = ada_workload::gpcr_workload(1000, 7, 91);
        let pdb_text = ada_mdformats::write_pdb(&w.system);
        let xtc_bytes = xtc_of(&w);
        let ingest = |frames_per_dropping, ingest_threads| {
            let ada = make_ada_with(AdaConfig {
                frames_per_dropping,
                ingest_threads,
                ..AdaConfig::paper_prototype("ssd", "hdd")
            });
            let input = IngestInput::Real {
                pdb_text: pdb_text.clone(),
                xtc_bytes: xtc_bytes.clone(),
            };
            assert!(ada.ingest("bar", input).unwrap().raw_bytes > 0);
            ada
        };

        let whole = ingest(512, 4);
        // `ingest_threads = 0` is the pool's serial schedule: the same
        // windows, every chunk carried through on the caller. `0` frames
        // per dropping is the whole trajectory as one dropping.
        for (fpd, ingest_threads) in [(1usize, 4usize), (3, 4), (100, 4), (3, 0), (0, 4)] {
            let windowed = ingest(fpd, ingest_threads);
            let droppings_per_tag = if fpd == 0 { 1 } else { 7usize.div_ceil(fpd) };
            let index = windowed.containers().index("bar").unwrap();
            assert_eq!(index.len(), 2 * droppings_per_tag, "fpd {}", fpd);
            // Delivered data identical regardless of where droppings are cut.
            for tag in [Tag::protein(), Tag::misc()] {
                let a = frames_of(whole.query("bar", Some(&tag)).unwrap());
                let b = frames_of(windowed.query("bar", Some(&tag)).unwrap());
                assert_eq!(a, b, "fpd {} tag {}", fpd, tag);
            }
            assert_eq!(
                whole.label("bar").unwrap().tags,
                windowed.label("bar").unwrap().tags
            );
        }
    }

    #[test]
    fn multi_window_ingest_rejects_bad_input() {
        let ada = make_ada_with(cached_config(4, Default::default()));
        let w = ada_workload::gpcr_workload(500, 9, 92);
        let xtc = ada_mdformats::xtc::write_xtc(&w.trajectory, 1000.0).unwrap();
        let input = |pdb_text: &str, xtc_bytes: &[u8]| IngestInput::Real {
            pdb_text: pdb_text.to_string(),
            xtc_bytes: xtc_bytes.to_vec(),
        };
        // Mismatched structure.
        let other = ada_workload::gpcr_workload(300, 1, 93);
        let bad_pdb = ada_mdformats::write_pdb(&other.system);
        assert!(matches!(
            ada.ingest("x", input(&bad_pdb, &xtc)),
            Err(AdaError::AtomMismatch { .. })
        ));
        // Truncated trajectory.
        let good_pdb = ada_mdformats::write_pdb(&w.system);
        assert!(ada
            .ingest("y", input(&good_pdb, &xtc[..xtc.len() - 9]))
            .is_err());
        // A frame of the third window that scans but does not decode (its
        // precision field, which the header scan skips, is zero): two
        // windows are stored by the time it is met.
        let mut undecodable = xtc.clone();
        let at = ada_mdformats::xtc::index_frames(&xtc).unwrap()[8].offset + 56;
        undecodable[at..at + 4].fill(0);
        assert!(matches!(
            ada.ingest("z", input(&good_pdb, &undecodable)),
            Err(AdaError::Xtc(_))
        ));
        // No failure keeps its name: all three ingest cleanly afterwards.
        assert!(ada.list_datasets().is_empty());
        assert!(ada.containers().list_logical().is_empty());
        for name in ["x", "y", "z"] {
            ada.ingest(name, input(&good_pdb, &xtc)).unwrap();
        }
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
    fn dropping_chunking_respected() {
        let mut cfg = AdaConfig::paper_prototype("ssd", "hdd");
        cfg.frames_per_dropping = 2;
        let ada = make_ada_with(cfg);
        let (input, w) = real_input(600, 5);
        let report = ada.ingest("bar", input).unwrap();
        // 5 frames / 2 per dropping = 3 droppings per tag.
        let index = ada.containers().index("bar").unwrap();
        assert_eq!(index.len(), 6);
        // Three windows ran; the profile still names each stage once.
        let p = report.profile.expect("telemetry is on by default");
        assert_eq!(p.mode, "serial");
        for stage in ["categorize", "decode", "split", "dispatch", "label_write"] {
            assert!(p.stages_ns.contains_key(stage), "missing stage {}", stage);
        }
        let snap = ada_telemetry::global().snapshot();
        assert!(snap.counters["ada.ingest.ok"] >= 1);
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

    /// A panic on an ingest worker is the request's typed error, and the
    /// ingest it ended leaves nothing behind: the pool's answer to a panic
    /// passes through the same all-or-nothing epilogue as any other error.
    #[test]
    fn a_panicking_ingest_worker_is_internal_and_frees_the_name() {
        let ada = make_ada();
        for threads in [0, 2] {
            let err = ada
                .in_new_container("bar", || {
                    let ctx = ada_telemetry::trace::TraceContext::inactive();
                    crate::run_pool::<()>("ingest worker", threads, 3, &ctx, |_, claim| {
                        claim();
                        panic!("bad chunk")
                    })
                })
                .unwrap_err();
            match err {
                AdaError::Internal(msg) => assert!(msg.contains("ingest worker panicked"), "{msg}"),
                other => panic!("expected Internal, got {other:?}"),
            }
            assert!(ada.containers().list_logical().is_empty());
        }
        let (input, _) = real_input(600, 2);
        ada.ingest("bar", input).unwrap();
    }
}
