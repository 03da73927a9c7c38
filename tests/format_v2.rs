//! XTCF v2 corruption corpus and the golden fixtures.
//!
//! Droppings are sealed as chunked, self-describing v2 containers; this
//! suite feeds broken variants of every structural element (chunk body,
//! chunk directory, trailer) through the serial and parallel query
//! pipelines and asserts typed `corrupt` errors plus a still-usable [`Ada`] —
//! a dropping with no chunk directory at all (a v1 file) among them — and
//! pins the v1 codec and the v2 sealer with golden on-disk fixtures that
//! must keep decoding bit-identically forever.

mod common;

use ada_cache::CacheConfig;
use ada_core::{Ada, AdaConfig, ErrorKind, RetrievedData};
use ada_mdformats::xtcf::{
    crc32, decode_chunk, frame_record_len, parse_directory, presized_v2, read_xtcf, seal_v2,
    verify_chunk, write_xtcf, ChunkDirectory, XtcfReader, XTCF_DIR_ENTRY_LEN,
    XTCF_RECORD_NATOMS_OFFSET, XTCF_TRAILER_LEN,
};
use ada_mdformats::{Frame, Trajectory};
use ada_mdmodel::{PbcBox, Tag};
use ada_simfs::Content;
use common::Rig;

/// Every pipeline shape the decode path can take: serial reference, one
/// worker, and genuinely parallel fan-out.
const THREADS: [usize; 4] = [0, 1, 4, 8];

/// Hybrid rig sealing 2-frame chunks, so one 8-frame dropping carries a
/// 4-entry chunk directory worth corrupting piecewise.
fn rig(query_threads: usize) -> Rig {
    rig_with(query_threads, CacheConfig::default())
}

fn rig_with(query_threads: usize, cache: CacheConfig) -> Rig {
    Rig::new(AdaConfig {
        query_threads,
        chunk_frames: 2,
        cache,
        ..AdaConfig::paper_prototype("ssd", "hdd")
    })
}

fn ingest(r: &Rig) {
    let w = ada_workload::gpcr_workload(900, 8, 47);
    r.ada().ingest("d", common::input(&w)).unwrap();
}

fn protein_dropping(r: &Rig) -> (String, Vec<u8>) {
    let path = r
        .ssd
        .list("ssd/d/hostdir.0/")
        .into_iter()
        .find(|p| p.contains("dropping.data.p"))
        .expect("protein dropping exists");
    let (content, _) = r.ssd.read(&path).unwrap();
    let bytes = content.bytes().to_vec();
    (path, bytes)
}

fn rewrite(r: &Rig, path: &str, bytes: Vec<u8>) {
    r.ssd.delete(path).unwrap();
    r.ssd.create(path, Content::real(bytes)).unwrap();
}

/// Every `ada.{op}.*` outcome `ada` counted so far, as `"{op}.ok={n}"` /
/// `"{op}.err.{kind}={n}"`, in name order: which calls counted as a
/// success, and which as a failure of what kind.
fn outcomes(ada: &Ada) -> Vec<String> {
    let mut snap = ada_telemetry::Snapshot::default();
    ada.write_metrics(&mut snap);
    let counters = snap.counters.iter();
    counters
        .filter_map(|(name, n)| Some(format!("{}={n}", name.strip_prefix("ada.")?)))
        .collect()
}

fn query_real(ada: &Ada, tag: Option<&Tag>) -> Trajectory {
    match ada.query("d", tag).unwrap().data {
        RetrievedData::Real(t) => t,
        _ => unreachable!("real ingest must yield real data"),
    }
}

/// Corpus driver: `mutate` breaks the protein dropping's bytes; tagged and
/// untagged queries must fail with a typed `corrupt` error whose message
/// names both the dropping and `detail`, on every pipeline shape — and
/// the instance must stay fully usable afterwards.
fn assert_corrupt(what: &str, detail: &str, mutate: impl Fn(Vec<u8>) -> Vec<u8>) {
    for threads in THREADS {
        let r = rig(threads);
        ingest(&r);
        let (path, bytes) = protein_dropping(&r);
        rewrite(&r, &path, mutate(bytes));
        for tag in [Some(Tag::protein()), None] {
            let err = r.ada().query("d", tag.as_ref()).unwrap_err();
            assert_eq!(
                err.error_kind(),
                ErrorKind::Corrupt,
                "{} threads={} tag={:?}: got {:?}",
                what,
                threads,
                tag,
                err
            );
            let msg = err.to_string();
            assert!(
                msg.contains(&path),
                "{}: error names the dropping: {}",
                what,
                msg
            );
            assert!(
                msg.contains(detail),
                "{}: wanted {:?} in: {}",
                what,
                detail,
                msg
            );
        }
        // MISC never touches the broken dropping: the pipeline survived
        // (a dead stage thread would poison later queries).
        assert!(
            r.ada().query("d", Some(&Tag::misc())).is_ok(),
            "{} threads={}: instance unusable after failed query",
            what,
            threads
        );
    }
}

#[test]
fn flipped_chunk_byte_fails_checksum_with_chunk_id() {
    assert_corrupt("flipped byte", "corrupt chunk 1", |mut b| {
        // parse the real directory to land the flip inside chunk 1's body
        let dir = parse_directory(&b).unwrap().expect("sealed v2");
        let at = dir.entries[1].offset as usize + 5;
        b[at] ^= 0xFF;
        b
    });
    assert_corrupt("flipped byte", "checksum mismatch", |mut b| {
        let dir = parse_directory(&b).unwrap().expect("sealed v2");
        let at = dir.entries[1].offset as usize + 5;
        b[at] ^= 0xFF;
        b
    });
}

#[test]
fn truncated_chunk_directory_is_a_typed_error() {
    // A trailer claiming more entries than the file holds.
    assert_corrupt("oversized nchunks", "truncated chunk directory", |mut b| {
        let t = b.len() - XTCF_TRAILER_LEN;
        b[t..t + 4].copy_from_slice(&0xFFFFu32.to_le_bytes());
        b
    });
    // A tail chop that eats into the trailer itself.
    assert_corrupt("chopped tail", "bad footer magic", |mut b| {
        b.truncate(b.len() - 5);
        b
    });
}

#[test]
fn zero_frame_chunk_entry_is_a_typed_error() {
    assert_corrupt("zero-frame chunk", "zero frames", |mut b| {
        let dir = parse_directory(&b).unwrap().expect("sealed v2");
        let dir_start = b.len() - XTCF_TRAILER_LEN - dir.nchunks() * XTCF_DIR_ENTRY_LEN;
        b[dir_start + 8..dir_start + 12].copy_from_slice(&0u32.to_le_bytes());
        b
    });
}

#[test]
fn windows_clear_of_the_corrupt_chunk_still_decode() {
    // Random access is the point of the chunk directory: breaking chunk 1
    // must not take down reads that only touch chunk 0.
    for threads in THREADS {
        let r = rig(threads);
        ingest(&r);
        let reference = query_real(r.ada(), Some(&Tag::protein()));
        let (path, mut bytes) = protein_dropping(&r);
        let dir = parse_directory(&bytes).unwrap().expect("sealed v2");
        let at = dir.entries[1].offset as usize + 5;
        bytes[at] ^= 0xFF;
        rewrite(&r, &path, bytes);
        let win = match r
            .ada()
            .query_range("d", &Tag::protein(), 0..2, 1)
            .unwrap()
            .data
        {
            RetrievedData::Real(t) => t,
            _ => unreachable!(),
        };
        assert_eq!(
            win.frames,
            reference.frames[0..2],
            "threads={}: chunk 0 must decode cleanly past corrupt chunk 1",
            threads
        );
        // The window over the broken chunk still fails, typed.
        let err = r
            .ada()
            .query_range("d", &Tag::protein(), 2..4, 1)
            .unwrap_err();
        assert_eq!(err.error_kind(), ErrorKind::Corrupt, "threads={}", threads);
    }
}

#[test]
fn record_declaring_another_atom_count_is_one_error_decoded_or_forwarded() {
    // The second record of chunk 1 declares one atom more than the chunk
    // directory, and the directory's CRC is re-sealed over the changed
    // body: only the per-record check can see it. Decoding the chunk
    // (`Ada::query`) and handing it on as stored (`StoredAnswer::chunks`)
    // make that check through the same `verify_chunk`, so they fail with
    // the same text.
    let redeclare = |mut bytes: Vec<u8>| {
        let dir = parse_directory(&bytes).unwrap().unwrap();
        let e = dir.entries[1];
        let start = e.offset as usize;
        let n = start + frame_record_len(e.natoms as usize) + XTCF_RECORD_NATOMS_OFFSET;
        bytes[n..n + 4].copy_from_slice(&(e.natoms + 1).to_le_bytes());
        let crc = crc32(&bytes[start..start + e.body_len()]);
        let entry = bytes.len() - XTCF_TRAILER_LEN - (dir.nchunks() - 1) * XTCF_DIR_ENTRY_LEN + 16;
        bytes[entry..entry + 4].copy_from_slice(&crc.to_le_bytes());
        bytes
    };
    assert_corrupt(
        "re-sealed atom count",
        "corrupt chunk 1: frame 1 declares",
        redeclare,
    );

    let r = rig(4);
    ingest(&r);
    let (path, bytes) = protein_dropping(&r);
    rewrite(&r, &path, redeclare(bytes));
    let tag = Tag::protein();
    let decoded = r.ada().query("d", Some(&tag)).unwrap_err();
    let ctx = ada_telemetry::trace::TraceContext::inactive();
    let stored = r.ada().query_stored("d", &tag, &ctx).unwrap();
    let mut chunks = stored.chunks();
    assert!(chunks.next().unwrap().is_ok(), "chunk 0 is sound");
    let forwarded = chunks.next().unwrap().unwrap_err();
    assert_eq!(forwarded.to_string(), decoded.to_string());
}

#[test]
fn directory_less_dropping_is_a_typed_error_on_every_read() {
    // Ingest seals every dropping with a chunk directory, so the read path
    // knows no other form: a v1 file in a dropping's place (no directory,
    // no trailer) is refused by every read that touches it, on every
    // schedule, with the cache on and admitting at once.
    for threads in THREADS {
        let r = rig_with(threads, CacheConfig::with_capacity(64 << 20));
        ingest(&r);
        let (path, bytes) = protein_dropping(&r);
        let v1_bytes = write_xtcf(&read_xtcf(&bytes).unwrap()).unwrap();
        assert!(
            parse_directory(&v1_bytes).unwrap().is_none(),
            "substitute must be a genuine v1 file"
        );
        rewrite(&r, &path, v1_bytes);

        let tag = Tag::protein();
        let ctx = ada_telemetry::trace::TraceContext::inactive();
        let errors = [
            ("tagged query", r.ada().query("d", Some(&tag)).unwrap_err()),
            ("untagged query", r.ada().query("d", None).unwrap_err()),
            (
                "range",
                r.ada().query_range("d", &tag, 2..6, 2).unwrap_err(),
            ),
            ("stored", r.ada().query_stored("d", &tag, &ctx).unwrap_err()),
        ];
        for (what, err) in errors {
            assert_eq!(
                err.error_kind(),
                ErrorKind::Corrupt,
                "threads={threads} {what}: {err:?}"
            );
            let msg = err.to_string();
            assert!(msg.contains(&path), "threads={threads} {what}: {msg}");
            assert!(
                msg.contains("carries no chunk directory"),
                "threads={threads} {what}: {msg}"
            );
        }
        let failed = [
            "ingest.ok=1",
            "query.err.corrupt=3",
            "query_range.err.corrupt=1",
        ];
        assert_eq!(outcomes(r.ada()), failed, "threads={threads}");
        let stats = r.ada().cache_stats();
        assert_eq!(
            (stats.inserts, stats.resident_bytes, stats.bytes_decoded),
            (0, 0, 0),
            "threads={threads}"
        );
        assert!(r.ada().query("d", Some(&Tag::misc())).is_ok());
    }
}

/// Deterministic frames for the golden fixture: pure arithmetic, no RNG,
/// so the regenerator always reproduces the committed bytes.
fn golden_traj() -> Trajectory {
    let mut frames = Vec::new();
    for s in 0..5i32 {
        let coords = (0..7i32)
            .map(|a| {
                [
                    s as f32 + a as f32 * 0.25,
                    a as f32 * 0.5 - s as f32,
                    (a * a) as f32 * 0.125,
                ]
            })
            .collect();
        frames.push(Frame {
            step: s * 10,
            time: s as f32 * 0.002,
            pbc: PbcBox::rectangular(4.0, 4.0, 4.0),
            coords,
        });
    }
    Trajectory::from_frames(frames)
}

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/golden_v1.xtcf");

/// The v1→v2 compatibility gate run by the verify workflow: the committed
/// v1 fixture must parse as v1, decode to the known frames, and re-encode
/// to its exact committed bytes. Any drift in the v1 reader or writer
/// fails here before it can corrupt archived droppings.
#[test]
fn golden_v1_fixture_decodes_bit_identically() {
    let bytes = std::fs::read(GOLDEN).expect(
        "golden fixture present (rebuild: cargo test --test format_v2 -- --ignored regenerate_golden_fixture)",
    );
    let reader = XtcfReader::new(&bytes).unwrap();
    assert_eq!(reader.version(), 1, "fixture must stay a v1 file");
    assert!(reader.directory().is_none());
    drop(reader);
    assert!(parse_directory(&bytes).unwrap().is_none());
    let traj = read_xtcf(&bytes).unwrap();
    assert_eq!(traj, golden_traj(), "v1 decode drifted");
    assert_eq!(write_xtcf(&traj).unwrap(), bytes, "v1 re-encode drifted");
}

/// Rebuild the committed fixture after an intentional format change:
/// `cargo test --test format_v2 -- --ignored regenerate_golden_fixture`.
#[test]
#[ignore]
fn regenerate_golden_fixture() {
    std::fs::create_dir_all(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures")).unwrap();
    std::fs::write(GOLDEN, write_xtcf(&golden_traj()).unwrap()).unwrap();
}

const GOLDEN_V2: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/golden_v2.xtcf");
/// Chunk size the v2 fixture was sealed with: 5 frames as 2 + 2 + 1.
const GOLDEN_V2_CHUNK_FRAMES: usize = 2;

/// The committed v2 fixture is the v1 fixture sealed by the checksum
/// kernel of the commit *before* the braided one (PR 21's slicing-by-16),
/// so its stored CRCs are bytes no later kernel wrote: it must verify,
/// decode to the known frames chunk by chunk, and be what sealing the v1
/// fixture produces today, byte for byte. A checksum kernel that computes
/// anything but the serial CRC-32 fails here.
#[test]
fn golden_v2_fixture_verifies_decodes_and_reseals_byte_for_byte() {
    let sealed = std::fs::read(GOLDEN_V2).expect(
        "golden v2 fixture present (rebuild: cargo test --test format_v2 -- --ignored regenerate_golden_v2_fixture)",
    );
    let dir = parse_directory(&sealed).unwrap().expect("a v2 file");
    assert_eq!(dir.chunk_nframes(), [2, 2, 1]);
    let golden = golden_traj();
    let mut frames = Vec::new();
    for c in 0..dir.nchunks() {
        let e = dir.entries[c];
        let start = e.offset as usize;
        assert_eq!(
            verify_chunk(&sealed, &dir, c).unwrap(),
            &sealed[start..start + e.body_len()]
        );
        assert_eq!(e.crc, crc32(&sealed[start..start + e.body_len()]));
        frames.extend(decode_chunk(&sealed, &dir, c).unwrap());
    }
    assert_eq!(frames, golden.frames, "v2 chunk decode drifted");
    assert_eq!(
        read_xtcf(&sealed).unwrap(),
        golden,
        "v2 streaming shim drifted"
    );
    let v1 = std::fs::read(GOLDEN).unwrap();
    assert_eq!(
        seal_v2(v1, golden.natoms(), GOLDEN_V2_CHUNK_FRAMES).unwrap(),
        sealed,
        "sealing drifted: a stored CRC or the directory layout changed"
    );
}

/// The ingest's way of sealing — a dropping pre-sized for its body,
/// directory and trailer (`presized_v2`), each chunk body written in place,
/// then the directory of those chunks (`ChunkDirectory::contiguous`)
/// appended into the reserve — fed the fixture's own chunk bodies, laid at
/// the fixture's directory offsets, and its stored CRCs writes the fixture
/// back byte for byte, without growing the buffer: it and `seal_v2` write
/// one layout.
#[test]
fn golden_v2_chunks_written_in_place_reproduce_the_fixture() {
    let sealed = std::fs::read(GOLDEN_V2).expect("golden v2 fixture present");
    let dir = parse_directory(&sealed).unwrap().expect("a v2 file");
    let natoms = golden_traj().natoms();
    let mut file = presized_v2(dir.nframes(), natoms, dir.nchunks());
    let reserved = file.capacity();
    for e in &dir.entries {
        let body = e.offset as usize..e.offset as usize + e.body_len();
        file[body.clone()].copy_from_slice(&sealed[body]);
    }
    let chunks = dir.entries.iter().map(|e| (e.nframes, e.crc));
    ChunkDirectory::contiguous(natoms, dir.chunk_frames, chunks).append_to(&mut file);
    assert_eq!(file.capacity(), reserved, "sealing grew the dropping");
    assert!(file == sealed, "in-place sealing drifted from the fixture");
}

/// Rebuild the v2 fixture after an intentional change to the *format*.
/// Never to make a new checksum kernel pass: the fixture's worth is that
/// an earlier kernel sealed it.
#[test]
#[ignore]
fn regenerate_golden_v2_fixture() {
    let v1 = std::fs::read(GOLDEN).unwrap();
    let sealed = seal_v2(v1, golden_traj().natoms(), GOLDEN_V2_CHUNK_FRAMES).unwrap();
    std::fs::write(GOLDEN_V2, sealed).unwrap();
}
