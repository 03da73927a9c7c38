//! The write side (§3.4): categorize → decompress → split → dispatch,
//! then write the label file.
//!
//! One body runs those stages over real bytes, [`Ada::ingest_real`]:
//! parse + Algorithm 1, then a chunk pool. One header scan finds and
//! checks the frames; each tag's whole dropping is allocated once, the
//! trajectory is cut into its stored chunks, and the crate's pool carries
//! each chunk through decode → split → checksum ([`ingest_chunk`]),
//! writing its records straight into that chunk's span of every tag's
//! dropping. The caller then only seals each dropping with its directory,
//! appends it to its policy-chosen backend, and ends in [`Ada::commit`]
//! of a label that pairs each tag with its one dropping
//! (`LabelFile::new` refuses any other set), inside
//! [`Ada::in_new_container`], which takes the dataset name back if
//! anything after it failed. What an ingest costs is measured, in its
//! stage profile; the virtual clock of the figures is `ada-platforms`'
//! volume model.

use super::{Ada, IngestInput, IngestReport, Op};
use crate::categorizer::{categorize_algo1, Labeler};
use crate::labeler::LabelFile;
use crate::preprocess::check_ranges;
use crate::AdaError;
use ada_mdformats::parse_pdb;
use ada_mdformats::xtc::{decode_spans, index_frames, FrameSpan};
use ada_mdformats::xtcf::{
    crc32, frame_record_len, presized_v2, write_record, ChunkDirectory, XTCF_HEADER_LEN,
};
use ada_simfs::Content;
use ada_sync::Mutex;
use ada_telemetry::trace::TraceContext;
use std::sync::Arc;

/// What the splitter needs to know about the structure, however it was
/// learned.
struct Labels {
    natoms: usize,
    labeler: Labeler,
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

/// What a worker made of one chunk of the trajectory.
struct ChunkOut {
    nframes: u32,
    /// Decoded volume of the chunk's frames.
    raw_bytes: u64,
    /// CRC-32 of the chunk's body, per tag in labeler order.
    crcs: Vec<u32>,
}

/// One stored chunk of the trajectory: its frames' spans in the `.xtc`,
/// and its span of each tag's dropping, in labeler order — taken once, by
/// the worker that claims the chunk.
struct Chunk<'a>(&'a [FrameSpan], Mutex<Vec<&'a mut [u8]>>);

/// The ingest pool's unit: carry one stored chunk of frames from the
/// compressed bytes to its per-tag records. Decompressor, then splitter
/// (gather every frame by each tag's ranges and write its fixed-size
/// records in place, into the chunk's span of the tag's dropping), then
/// the checksum of each body while it is hot. It stops at the chunk's
/// first bad frame.
fn ingest_chunk(
    xtc_bytes: &[u8],
    Chunk(spans, bodies): &Chunk,
    labeler: &Labeler,
    gather_buf: &mut Vec<[f32; 3]>,
    ctx: &TraceContext,
) -> Result<ChunkOut, AdaError> {
    let traj = {
        let mut ts = ctx.span("ingest.decode");
        ts.arg("bytes", spans.iter().map(|s| s.len).sum::<usize>());
        ts.arg("frames", spans.len());
        decode_spans(xtc_bytes, spans)?
    };
    let raw_bytes = traj.nbytes() as u64;
    let mut ts = ctx.span("ingest.split");
    ts.arg("bytes", raw_bytes);
    ts.arg("frames", traj.len());
    let mut crcs = Vec::with_capacity(labeler.len());
    let bodies = std::mem::take(&mut *bodies.lock());
    for (ranges, body) in labeler.values().zip(bodies) {
        // One decoded frame per span, one record slot per frame.
        let records = body.chunks_exact_mut(frame_record_len(ranges.count()));
        for (frame, record) in traj.frames.iter().zip(records) {
            ranges.gather_into(&frame.coords, gather_buf);
            write_record(record, frame.step, frame.time, &frame.pbc, gather_buf)
                .map_err(|e| AdaError::Pdb(format!("xtcf encode: {}", e)))?;
        }
        crcs.push(crc32(body));
    }
    Ok(ChunkOut {
        nframes: u32::try_from(traj.len())
            .map_err(|_| AdaError::Internal(format!("chunk of {} frames", traj.len())))?,
        raw_bytes,
        crcs,
    })
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
        let IngestInput::Real {
            pdb_text,
            xtc_bytes,
        } = input;
        self.traced(Op::Ingest, "serial", parent, |ctx| {
            self.ingest_real(dataset, &pdb_text, &xtc_bytes, ctx)
        })
    }

    /// Categorizer: analyze the structure file (Algo 1).
    fn categorize(&self, pdb_text: &str, ctx: &TraceContext) -> Result<Labels, AdaError> {
        let _ts = ctx.span("ingest.categorize");
        let system = parse_pdb(pdb_text).map_err(|e| AdaError::Pdb(e.to_string()))?;
        let labeler = categorize_algo1(&system, &self.config.taxonomy);
        Ok(Labels {
            natoms: system.len(),
            labeler,
        })
    }

    /// The real-bytes ingest: one header scan, then every stored chunk of
    /// the trajectory through the chunk pool and one dropping per tag
    /// through the dispatcher. Whatever `ingest_threads` is, what is
    /// stored is what sealing the serial split of the trajectory would
    /// store, and the first error in chunk order is the request's.
    fn ingest_real(
        &self,
        dataset: &str,
        pdb_text: &str,
        xtc_bytes: &[u8],
        ctx: &TraceContext,
    ) -> Result<IngestReport, AdaError> {
        let labels = self.categorize(pdb_text, ctx)?;
        let spans = index_frames(xtc_bytes)?;
        labels.check_frames(&spans)?;
        check_ranges(&labels.labeler, labels.natoms)?;
        // The stored chunk is the unit — `seal_v2`'s cut — carried from
        // compressed bytes to checksummed records by one worker:
        // storage-node cores are ADA's to spend. `check_frames` refused an
        // empty file, so there is a chunk.
        let chunk_frames = match self.config.chunk_frames {
            0 => spans.len(),
            n => n,
        };

        self.in_new_container(dataset, || {
            let (threads, labeler) = (self.config.ingest_threads, &labels.labeler);
            // Each tag's whole dropping is allocated once, before the pool
            // runs, and cut at the chunks: a chunk's records are written
            // once, in place, by the worker that claims it.
            let nchunks = spans.len().div_ceil(chunk_frames);
            let mut droppings: Vec<Vec<u8>> = labeler
                .values()
                .map(|ranges| presized_v2(spans.len(), ranges.count(), nchunks))
                .collect();
            let chunks: Vec<Chunk> = spans
                .chunks(chunk_frames)
                .map(|spans| Chunk(spans, Mutex::default()))
                .collect();
            for (file, ranges) in droppings.iter_mut().zip(labeler.values()) {
                let span = chunk_frames.saturating_mul(frame_record_len(ranges.count()));
                for (c, body) in file[XTCF_HEADER_LEN..].chunks_mut(span).enumerate() {
                    chunks[c].1.lock().push(body);
                }
            }
            let done = crate::run_pool("ingest worker", threads, nchunks, ctx, |ctx, claim| {
                let mut done = Vec::new();
                let mut gather = Vec::new();
                while let Some(c) = claim() {
                    let out = ingest_chunk(xtc_bytes, &chunks[c], labeler, &mut gather, ctx);
                    done.push((c, out));
                }
                done
            })?;
            // Unit order is chunk order, so the first `Err` met here is the
            // one the request fails with; nothing has been appended yet.
            let done = done.into_iter().collect::<Result<Vec<ChunkOut>, _>>()?;
            let raw_bytes = done.iter().map(|c| c.raw_bytes).sum::<u64>();

            // Dispatcher: one dropping per tag — its chunk bodies sealed
            // under one v2 directory — to its policy-chosen backend, in
            // label order.
            let mut stored = Vec::with_capacity(droppings.len());
            {
                let _ts = ctx.span("ingest.dispatch");
                let nominal = u32::try_from(chunk_frames).unwrap_or(u32::MAX);
                let tags = droppings.iter_mut().zip(labeler).enumerate();
                for (t, (file, (tag, ranges))) in tags {
                    let crcs = done.iter().map(|out| (out.nframes, out.crcs[t]));
                    ChunkDirectory::contiguous(ranges.count(), nominal, crcs).append_to(file);
                    let file = Content::real(std::mem::take(file));
                    let backend = self.config.policy.backend_for(tag);
                    let (record, _) =
                        self.containers
                            .append(dataset, tag.as_str(), backend, file)?;
                    stored.push(record);
                }
            }
            let (natoms, nframes) = (labels.natoms, spans.len());
            let label = LabelFile::new(dataset, natoms, nframes, labels.labeler, stored)?;
            self.commit(label, raw_bytes, ctx)
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
        let containers = &self.containers;
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

    /// The ingest's epilogue: write the label file — each tag with the
    /// dropping the dispatcher stored for it — as the commit point,
    /// publish the dataset, and build the report.
    fn commit(
        &self,
        label: LabelFile,
        raw_bytes: u64,
        ctx: &TraceContext,
    ) -> Result<IngestReport, AdaError> {
        let dataset = label.dataset.clone();
        let bytes_by_tag = label
            .entries()
            .iter()
            .map(|(tag, entry)| (tag.clone(), entry.dropping.len))
            .collect();

        {
            let _ts = ctx.span("ingest.label_write");
            label.store(self.label_fs.as_ref())?;
        }

        self.cache.invalidate_dataset(&dataset);
        self.datasets
            .lock()
            .insert(dataset.clone(), Arc::new(label));

        Ok(IngestReport {
            dataset,
            raw_bytes,
            bytes_by_tag,
            profile: None, // cut from the op span's tree once it closes
        })
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::*;
    use super::super::{Ada, AdaConfig, IngestInput, RetrievedData};
    use crate::labeler::LabelFile;
    use crate::{AdaError, ErrorKind};
    use ada_mdmodel::Tag;

    #[test]
    fn real_ingest_and_tagged_query_roundtrip() {
        let ada = make_ada();
        let (input, w) = real_input(1200, 3);
        let report = ada.ingest("bar", input).unwrap();
        assert!(report.raw_bytes > 0);
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
    fn chunk_size_does_not_change_what_is_delivered() {
        let w = ada_workload::gpcr_workload(1000, 7, 91);
        let pdb_text = ada_mdformats::write_pdb(&w.system);
        let xtc_bytes = xtc_of(&w);
        let ingest = |chunk_frames, ingest_threads| {
            let ada = make_ada_with(AdaConfig {
                chunk_frames,
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

        let whole = ingest(64, 4);
        // `ingest_threads = 0` is the pool's serial schedule: the same
        // chunks, every one carried through on the caller. `0` frames per
        // chunk seals each dropping as one chunk.
        for (chunk_frames, ingest_threads) in [(1usize, 4usize), (3, 4), (100, 4), (3, 0), (0, 4)] {
            let chunked = ingest(chunk_frames, ingest_threads);
            let index = chunked.containers().index("bar").unwrap();
            assert_eq!(index.len(), 2, "one dropping per tag");
            // Delivered data identical regardless of where chunks are cut.
            for tag in [Tag::protein(), Tag::misc()] {
                let a = frames_of(whole.query("bar", Some(&tag)).unwrap());
                let b = frames_of(chunked.query("bar", Some(&tag)).unwrap());
                assert_eq!(a, b, "chunk {} tag {}", chunk_frames, tag);
            }
            // The same ranges per tag; only the droppings' framing differs.
            let ranges = |ada: &Ada| {
                let label = ada.label("bar").unwrap();
                let entries = label.entries().values();
                entries.map(|e| e.ranges.clone()).collect::<Vec<_>>()
            };
            assert_eq!(ranges(&whole), ranges(&chunked));
        }
    }

    #[test]
    fn multi_chunk_ingest_rejects_bad_input() {
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
        // A frame of the third chunk that scans but does not decode (its
        // precision field, which the header scan skips, is zero): two
        // chunks are split by the time it is met.
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

    /// `.pdb` is the one structure format: a GROMACS `.gro` text has no
    /// `ATOM` records, parses to zero atoms, and is refused by the frame
    /// check like any other structure that disagrees with the trajectory —
    /// leaving no dataset, container or label file behind.
    #[test]
    fn a_gro_structure_is_refused_and_leaves_nothing_behind() {
        let ada = make_ada();
        let w = ada_workload::gpcr_workload(900, 2, 61);
        let gro_text = "GPCR in water\n    1\n    1ALA      N    1   0.126   1.624   1.679\n   5.00000   5.00000   5.00000\n";
        let input = |pdb_text: &str| IngestInput::Real {
            pdb_text: pdb_text.to_string(),
            xtc_bytes: xtc_of(&w),
        };
        let err = ada.ingest("bar", input(gro_text)).unwrap_err();
        assert_eq!(err.error_kind(), ErrorKind::AtomMismatch, "{}", err);
        assert!(err.to_string().contains("pdb has 0"), "{}", err);
        assert!(ada.list_datasets().is_empty());
        assert!(ada.containers().list_logical().is_empty());
        assert!(!ada.label_fs.exists(&LabelFile::path_for("bar")));

        ada.ingest("bar", input(&ada_mdformats::write_pdb(&w.system)))
            .unwrap();
        assert_eq!(ada.label("bar").unwrap().natoms, w.system.len());
    }

    #[test]
    fn dropping_chunking_respected() {
        let mut cfg = AdaConfig::paper_prototype("ssd", "hdd");
        cfg.chunk_frames = 2;
        let ada = make_ada_with(cfg);
        let (input, w) = real_input(600, 5);
        let report = ada.ingest("bar", input).unwrap();
        // One dropping per tag, each 5 frames / 2 per chunk = 3 chunks.
        let index = ada.containers().index("bar").unwrap();
        assert_eq!(index.len(), 2);
        for r in &index {
            let (content, _) = ada.containers().read_dropping(r).unwrap();
            let dir = ada_mdformats::xtcf::parse_directory(content.as_real().unwrap());
            assert_eq!(dir.unwrap().unwrap().nchunks(), 3);
        }
        // Three chunks ran; the profile still names each stage once.
        let p = report.profile.expect("telemetry is on by default");
        assert_eq!(p.mode, "serial");
        for stage in ["categorize", "decode", "split", "dispatch", "label_write"] {
            assert!(p.stages_ns.contains_key(stage), "missing stage {}", stage);
        }
        let mut snap = ada_telemetry::Snapshot::default();
        ada.write_metrics(&mut snap);
        assert_eq!(snap.counters["ada.ingest.ok"], 1);
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
