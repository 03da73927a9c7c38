//! The `frontend.queue.{class}` gauges move under the scheduler lock, in
//! step with the queue they mirror, so their high-water marks are the
//! scheduler's own and they read zero once the queue is empty.
//!
//! The gauges live in the process-global registry: this file holds one
//! test so that it has a process, and therefore the gauges, to itself.

use std::sync::{Arc, Barrier};

use ada_core::{Ada, AdaConfig, IngestInput};
use ada_frontend::{Class, Frontend, FrontendConfig};
use ada_plfs::ContainerSet;
use ada_simfs::{LocalFs, SimFileSystem};

#[test]
fn queue_gauges_mirror_the_scheduler_queue() {
    const CLIENTS: usize = 6;
    let ssd: Arc<dyn SimFileSystem> = Arc::new(LocalFs::ext4_on_nvme());
    let hdd: Arc<dyn SimFileSystem> = Arc::new(LocalFs::ext4_on_hdd());
    let cs = Arc::new(ContainerSet::new(vec![
        ("ssd".into(), ssd.clone()),
        ("hdd".into(), hdd),
    ]));
    let ada = Arc::new(Ada::new(AdaConfig::paper_prototype("ssd", "hdd"), cs, ssd));
    let fe = Frontend::new(
        ada,
        FrontendConfig {
            query_slots: 1,
            query_queue: CLIENTS,
            ..FrontendConfig::default()
        },
    );
    let w = ada_workload::gpcr_workload(1500, 6, 9);
    let input = IngestInput::Real {
        pdb_text: ada_mdformats::write_pdb(&w.system),
        xtc_bytes: ada_mdformats::xtc::write_xtc(
            &w.trajectory,
            ada_mdformats::xtc::DEFAULT_PRECISION,
        )
        .unwrap(),
    };
    fe.ingest("setup", "d", input).unwrap();

    // One slot and room for everyone: whoever overlaps, queues.
    let barrier = Barrier::new(CLIENTS);
    std::thread::scope(|scope| {
        for t in 0..CLIENTS {
            let (fe, barrier) = (&fe, &barrier);
            scope.spawn(move || {
                barrier.wait();
                fe.query(&format!("c{}", t), "d", None).unwrap();
            });
        }
    });

    let stats = fe.stats();
    assert!(stats.is_quiescent(), "front-end not quiescent: {:?}", stats);
    for class in Class::ALL {
        let gauge = ada_telemetry::global().gauge(&format!("frontend.queue.{}", class.name()));
        assert_eq!(gauge.get(), 0, "{} queue is empty", class.name());
        assert_eq!(
            gauge.high_water(),
            stats.class(class).queue_hwm as i64,
            "{} gauge and scheduler disagree on the deepest queue",
            class.name()
        );
    }
}
