//! The one telemetry switch, `set_enabled`. It is process-global, so the
//! test that flips it has this binary to itself: a trace test running
//! beside it would see its roots go inert.

use ada_telemetry::trace::FlightRecorder;
use ada_telemetry::{enabled, set_enabled, Snapshot};

#[test]
fn switched_off_a_root_is_inert_and_records_nothing() {
    let rec = FlightRecorder::new();
    assert!(enabled());
    set_enabled(false);
    assert!(!enabled());
    let (ctx, guard) = rec.root("test.off");
    assert!(!ctx.is_active());
    let child = ctx.span("test.off_child");
    assert!(!child.ctx().is_active());
    drop(child);
    let (ctx, remote) = rec.root_remote("test.off_remote", 9);
    assert_eq!(ctx.trace_id(), None);
    drop((guard, remote));
    set_enabled(true);
    assert!(enabled());

    assert!(rec.all().is_empty());
    let mut snap = Snapshot::default();
    rec.write_metrics(&mut snap);
    assert!(snap.counters.is_empty() && snap.histograms.is_empty());

    // Switched back on, the same recorder records.
    let (_, guard) = rec.root("test.on");
    drop(guard);
    assert_eq!(rec.all().len(), 1);
}
