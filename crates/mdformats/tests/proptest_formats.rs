//! Property-based tests over the format codecs.
//!
//! The XTC coder is the highest-risk code in the repository (bit-level
//! state machine with a run-length coder and scale adaptation), so it gets
//! adversarial random inputs here: arbitrary coordinate clouds, clustered
//! water-like layouts, extreme spreads, and all precisions — the invariant
//! is always `|decoded - original| <= 0.5/precision` plus idempotence on
//! the quantized lattice.

use ada_mdformats::xtc::{decode_spans, index_frames, write_xtc};
use ada_mdformats::{read_xtc, read_xtcf, write_xtcf, Frame, Trajectory};
use ada_mdmodel::PbcBox;
use proptest::prelude::*;

fn arb_coords(max_atoms: usize, span: f32) -> impl Strategy<Value = Vec<[f32; 3]>> {
    prop::collection::vec(prop::array::uniform3(-span..span), 0..max_atoms)
}

fn arb_clustered_coords() -> impl Strategy<Value = Vec<[f32; 3]>> {
    // Clusters of 1-4 atoms within smallnum-ish distance of a center:
    // exercises the run coder and the water swap aggressively.
    prop::collection::vec(
        (
            prop::array::uniform3(-20.0f32..20.0),
            prop::collection::vec(prop::array::uniform3(-0.15f32..0.15), 0..4),
        ),
        1..40,
    )
    .prop_map(|clusters| {
        let mut out = Vec::new();
        for (center, offsets) in clusters {
            out.push(center);
            for o in offsets {
                out.push([center[0] + o[0], center[1] + o[1], center[2] + o[2]]);
            }
        }
        out
    })
}

fn assert_roundtrip(coords: &[[f32; 3]], precision: f32) {
    let traj = Trajectory::from_frames(vec![Frame::from_coords(coords.to_vec())]);
    let bytes = write_xtc(&traj, precision).expect("encode");
    let back = read_xtc(&bytes).expect("decode");
    assert_eq!(back.frames.len(), 1);
    let out = &back.frames[0].coords;
    assert_eq!(out.len(), coords.len());
    let tol = 0.5 / precision
        + 1e-5
            * (1.0
                + coords
                    .iter()
                    .flat_map(|c| c.iter())
                    .fold(0.0f32, |a, &b| a.max(b.abs())));
    for (a, b) in coords.iter().zip(out) {
        for d in 0..3 {
            assert!(
                (a[d] - b[d]).abs() <= tol,
                "coordinate error {} vs {} (tol {})",
                a[d],
                b[d],
                tol
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn xtc_roundtrip_uniform(coords in arb_coords(300, 50.0)) {
        assert_roundtrip(&coords, 1000.0);
    }

    #[test]
    fn xtc_roundtrip_clustered(coords in arb_clustered_coords()) {
        assert_roundtrip(&coords, 1000.0);
    }

    #[test]
    fn xtc_roundtrip_precisions(
        coords in arb_coords(120, 10.0),
        precision in prop::sample::select(vec![10.0f32, 100.0, 1000.0, 10000.0]),
    ) {
        assert_roundtrip(&coords, precision);
    }

    #[test]
    fn xtc_idempotent_on_lattice(coords in arb_clustered_coords()) {
        let t0 = Trajectory::from_frames(vec![Frame::from_coords(coords)]);
        let once = read_xtc(&write_xtc(&t0, 1000.0).unwrap()).unwrap();
        let twice = read_xtc(&write_xtc(&once, 1000.0).unwrap()).unwrap();
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn xtc_multiframe_roundtrip(
        frames in prop::collection::vec(arb_coords(60, 8.0), 1..6).prop_filter(
            "uniform atom count",
            |fs| fs.iter().all(|f| f.len() == fs[0].len()),
        ),
        step0 in 0i32..10000,
        dt in 0.1f32..100.0,
    ) {
        let traj = Trajectory::from_frames(
            frames
                .into_iter()
                .enumerate()
                .map(|(i, coords)| Frame {
                    step: step0 + i as i32,
                    time: dt * i as f32,
                    pbc: PbcBox::rectangular(10.0, 11.0, 12.0),
                    coords,
                })
                .collect(),
        );
        let bytes = write_xtc(&traj, 1000.0).unwrap();
        let back = read_xtc(&bytes).unwrap();
        prop_assert_eq!(back.len(), traj.len());
        for (a, b) in traj.frames.iter().zip(&back.frames) {
            prop_assert_eq!(a.step, b.step);
            prop_assert_eq!(a.time, b.time);
            prop_assert_eq!(a.pbc, b.pbc);
        }
        // Index scan agrees with the writer.
        let spans = index_frames(&bytes).unwrap();
        prop_assert_eq!(spans.len(), traj.len());
        prop_assert_eq!(spans.last().unwrap().offset + spans.last().unwrap().len, bytes.len());
        // Frames decode independently: the spans cut anywhere decode to
        // the halves of the whole.
        let (head, tail) = spans.split_at(spans.len() / 2);
        let mut halves = decode_spans(&bytes, head).unwrap().frames;
        halves.extend(decode_spans(&bytes, tail).unwrap().frames);
        prop_assert_eq!(halves, back.frames);
    }

    #[test]
    fn xtc_rejects_arbitrary_truncation(
        coords in arb_coords(100, 5.0).prop_filter("nonempty", |c| c.len() > 10),
        cut_fraction in 0.05f64..0.95,
    ) {
        let traj = Trajectory::from_frames(vec![Frame::from_coords(coords)]);
        let bytes = write_xtc(&traj, 1000.0).unwrap();
        let cut = (bytes.len() as f64 * cut_fraction) as usize;
        // Truncated input must error, never panic or return wrong-length
        // data silently.
        if let Ok(t) = read_xtc(&bytes[..cut]) { prop_assert!(t.is_empty() || cut == bytes.len()) }
    }

    #[test]
    fn xtcf_bit_exact(coords in arb_coords(200, 1000.0), n in 1usize..4) {
        let frames: Vec<Frame> = (0..n)
            .map(|i| Frame {
                step: i as i32,
                time: i as f32,
                pbc: PbcBox::zero(),
                coords: coords.clone(),
            })
            .collect();
        let traj = Trajectory::from_frames(frames);
        let bytes = write_xtcf(&traj).unwrap();
        prop_assert_eq!(read_xtcf(&bytes).unwrap(), traj);
    }

    #[test]
    fn xtc_decoder_never_panics_on_garbage(data in prop::collection::vec(any::<u8>(), 0..2000)) {
        // Whatever the bytes, the decoder returns Ok or Err — no panic, no
        // unbounded allocation.
        let _ = read_xtc(&data);
        let _ = index_frames(&data);
        let _ = read_xtcf(&data);
    }

    #[test]
    fn xtc_decoder_never_panics_on_bitflips(
        coords in arb_coords(80, 5.0).prop_filter("nonempty", |c| c.len() > 10),
        flip_byte in 0usize..10_000,
        flip_mask in 1u8..=255,
    ) {
        let traj = Trajectory::from_frames(vec![Frame::from_coords(coords)]);
        let mut bytes = write_xtc(&traj, 1000.0).unwrap();
        let idx = flip_byte % bytes.len();
        bytes[idx] ^= flip_mask;
        let _ = read_xtc(&bytes); // must not panic
    }
}
