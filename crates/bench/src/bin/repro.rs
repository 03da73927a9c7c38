//! Regenerate every table and figure of the ADA paper's evaluation.
//!
//! ```text
//! cargo run --release -p ada-bench --bin repro -- all
//! cargo run --release -p ada-bench --bin repro -- fig7b fig10d table2
//! ```

use ada_bench::render_figure;
use ada_mdmodel::Tag;
use ada_platforms::figures::{fig10, fig7, fig8, fig9, table1, table2, table6};
use ada_platforms::report::{fmt_secs, format_table};
use ada_platforms::Platform;
use ada_vmdsim::{render_frame, RenderOptions};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // `--metrics-out <path>`: after all requested items ran, write the
    // global telemetry snapshot (counters, gauges, histograms) as JSON.
    let mut metrics_out: Option<String> = None;
    if let Some(i) = args.iter().position(|a| a == "--metrics-out") {
        args.remove(i);
        if i < args.len() {
            metrics_out = Some(args.remove(i));
        } else {
            eprintln!("--metrics-out needs a path argument");
            std::process::exit(2);
        }
    }
    // `--trace-out <path>`: after all requested items ran, export the
    // flight recorder's traces as Chrome trace-event JSON (open in
    // Perfetto or chrome://tracing). Combine with `bench-contention`,
    // `bench-sampling`, or `profile-query` to see their span trees.
    let mut trace_out: Option<String> = None;
    if let Some(i) = args.iter().position(|a| a == "--trace-out") {
        args.remove(i);
        if i < args.len() {
            trace_out = Some(args.remove(i));
        } else {
            eprintln!("--trace-out needs a path argument");
            std::process::exit(2);
        }
    }
    // `--json` (for `repro lint`): also write LINT.json next to the
    // terminal report.
    let mut lint_json = false;
    if let Some(i) = args.iter().position(|a| a == "--json") {
        args.remove(i);
        lint_json = true;
    }
    // `--selftest` (for `repro trace`): validate the emitted Chrome
    // trace against the trace-event schema and exit non-zero on any
    // violation, so CI can gate on the export staying loadable.
    let mut trace_selftest = false;
    if let Some(i) = args.iter().position(|a| a == "--selftest") {
        args.remove(i);
        trace_selftest = true;
    }
    // `--port <N>` (for `repro serve`): TCP port to bind. Defaults to 0,
    // which picks a free port and prints it.
    let mut port: u16 = 0;
    if let Some(i) = args.iter().position(|a| a == "--port") {
        args.remove(i);
        if i < args.len() {
            port = args.remove(i).parse().unwrap_or_else(|_| {
                eprintln!("--port needs a numeric port argument");
                std::process::exit(2);
            });
        } else {
            eprintln!("--port needs a numeric port argument");
            std::process::exit(2);
        }
    }
    // `--smoke` (for `repro serve`): after the server starts, run a
    // loopback ping/ingest/query/range/cache-stats round trip against it
    // over real TCP, then shut down and exit. CI's liveness gate.
    let mut smoke = false;
    if let Some(i) = args.iter().position(|a| a == "--smoke") {
        args.remove(i);
        smoke = true;
    }
    // `--remote` (for `repro bench-contention`): run the contention sweep
    // over real TCP server fleets and the consistent-hash router instead
    // of the in-process front-end — an alias for `bench-network`.
    let mut remote = false;
    if let Some(i) = args.iter().position(|a| a == "--remote") {
        args.remove(i);
        remote = true;
    }
    let wanted: Vec<&str> = if args.is_empty() || args.iter().any(|a| a == "all") {
        vec![
            "table1",
            "table2",
            "table3",
            "table4",
            "table5",
            "table6",
            "fig1",
            "fig7",
            "fig8",
            "fig9",
            "fig10",
            "ablations",
            "playback",
            "amortization",
            "contention",
        ]
    } else {
        args.iter().map(String::as_str).collect()
    };

    for item in wanted {
        match item {
            "table1" => print_table1(),
            "table2" => print_table2(),
            "table3" => print_table3(),
            "table4" => print_table4(),
            "table5" => print_table5(),
            "table6" => print_table6(),
            "fig1" => print_fig1(),
            "fig7" => print_fig7(None),
            "fig7a" => print_fig7(Some(0)),
            "fig7b" => print_fig7(Some(1)),
            "fig7c" => print_fig7(Some(2)),
            "fig8" => print_fig8(),
            "fig9" => print_fig9(None),
            "fig9a" => print_fig9(Some(0)),
            "fig9b" => print_fig9(Some(1)),
            "fig9c" => print_fig9(Some(2)),
            "fig10" => print_fig10(None),
            "fig10a" => print_fig10(Some(0)),
            "fig10b" => print_fig10(Some(1)),
            "fig10c" => print_fig10(Some(2)),
            "fig10d" => print_fig10(Some(3)),
            "ablations" => print_ablations(),
            "playback" => print_playback(),
            "amortization" => print_amortization(),
            "contention" => print_contention(),
            "bench-ingest" => bench_ingest(),
            "profile-ingest" => profile_ingest(),
            "bench-query" => bench_query(),
            "profile-query" => profile_query(),
            "bench-contention" => {
                if remote {
                    bench_network()
                } else {
                    bench_contention()
                }
            }
            "bench-network" => bench_network(),
            "bench-sampling" => bench_sampling(),
            "serve" => serve(port, smoke),
            "trace" => run_trace(trace_selftest),
            "lint" => run_lint(lint_json),
            other => eprintln!("unknown item '{}'", other),
        }
    }

    if let Some(path) = metrics_out {
        let snap = ada_telemetry::snapshot_with_traces();
        std::fs::write(&path, snap.to_vec()).expect("write metrics snapshot");
        eprintln!("wrote metrics snapshot to {}", path);
    }
    if let Some(path) = trace_out {
        let json = ada_telemetry::trace::recorder().export_chrome();
        std::fs::write(&path, json.to_vec()).expect("write chrome trace");
        eprintln!("wrote chrome trace to {}", path);
    }
}

/// `repro trace` — run a small mixed workload through the front-end (an
/// ingest, tag/full/range queries, one failing request), then export the
/// flight recorder's span trees as `TRACE_events.json` (Chrome
/// trace-event JSON — load it in Perfetto or chrome://tracing). With
/// `--selftest`, re-parse the export and validate the event schema, the
/// tree invariants CI cares about, and that every sealed span reached its
/// `span.{stage}.calls` counter, exiting non-zero on violation.
fn run_trace(selftest: bool) {
    use ada_core::IngestInput;
    use ada_frontend::{Frontend, FrontendConfig};
    use ada_json::Value;
    use ada_mdformats::write_pdb;
    use ada_mdformats::xtc::{write_xtc, DEFAULT_PRECISION};
    use std::sync::Arc;

    let recorder = ada_telemetry::trace::recorder();
    recorder.clear();
    let counters_before = ada_telemetry::global().snapshot().counters;
    recorder.set_latency_threshold(Some(std::time::Duration::from_millis(250)));

    let w = ada_workload::gpcr_workload(2_000, 100, 7);
    let fe = Frontend::new(Arc::new(query_bench_ada(2)), FrontendConfig::default());
    fe.ingest(
        "demo-client",
        "demo",
        IngestInput::Real {
            pdb_text: write_pdb(&w.system),
            xtc_bytes: write_xtc(&w.trajectory, DEFAULT_PRECISION).unwrap(),
        },
    )
    .expect("demo ingest");
    fe.query("demo-client", "demo", Some(&Tag::protein()))
        .expect("protein query");
    fe.query("demo-client", "demo", None).expect("full query");
    fe.query_range("demo-client", "demo", &Tag::protein(), 0..64, 4)
        .expect("range query");
    // One failing request, so the export demonstrates a flagged trace.
    let err = fe
        .query("demo-client", "no-such-dataset", None)
        .expect_err("unknown dataset must fail");

    let traces = recorder.all();
    let retained = recorder.retained();
    let spans: usize = traces.iter().map(|t| t.spans.len()).sum();
    let json = recorder.export_chrome();
    std::fs::write("TRACE_events.json", json.to_vec()).expect("write TRACE_events.json");
    println!(
        "repro trace: {} trace(s), {} span(s), {} retained (flagged: {:?})",
        traces.len(),
        spans,
        retained.len(),
        retained
            .iter()
            .filter_map(|t| t.flag.clone())
            .collect::<Vec<_>>()
    );
    println!("  wrote TRACE_events.json — open in Perfetto or chrome://tracing\n");

    if !selftest {
        return;
    }
    let mut failures: Vec<String> = Vec::new();
    let mut check = |ok: bool, msg: &str| {
        if !ok {
            failures.push(msg.to_string());
        }
    };

    check(err.kind() == "unknown_dataset", "failing request kind");
    check(traces.len() == 5, "expected 5 traces (1 ingest, 4 queries)");
    check(
        retained
            .iter()
            .any(|t| t.flag.as_deref() == Some("error:unknown_dataset")),
        "errored trace retained with its kind",
    );
    for t in &traces {
        check(
            t.spans.iter().filter(|s| s.parent.is_none()).count() == 1,
            "exactly one root span per trace",
        );
        for s in &t.spans {
            if let Some(p) = s.parent {
                check(
                    t.spans.iter().any(|o| o.id == p),
                    "parent links resolve within the trace",
                );
            }
        }
    }
    check(
        traces.iter().any(|t| {
            let threads: std::collections::BTreeSet<&str> =
                t.spans.iter().map(|s| &*s.thread).collect();
            threads.len() >= 2
        }),
        "at least one trace crosses a thread boundary",
    );

    // The seal is the only feed of the `span.*` family: each counter grew
    // by exactly the number of spans of its stage in the sealed traces.
    let mut sealed: std::collections::BTreeMap<&str, u64> = std::collections::BTreeMap::new();
    for s in traces.iter().flat_map(|t| &t.spans) {
        *sealed.entry(s.name).or_insert(0) += 1;
    }
    let counters = ada_telemetry::global().snapshot().counters;
    for (stage, n) in sealed {
        let name = format!("span.{}.calls", stage);
        let grew = counters.get(&name).copied().unwrap_or(0)
            - counters_before.get(&name).copied().unwrap_or(0);
        check(
            grew == n,
            &format!("{} grew by {} for {} sealed span(s)", name, grew, n),
        );
    }

    // Round-trip the written file through the JSON parser and validate
    // the Chrome trace-event schema.
    let bytes = std::fs::read("TRACE_events.json").expect("read back TRACE_events.json");
    match ada_json::parse(&bytes) {
        Err(e) => check(false, &format!("export must re-parse: {:?}", e)),
        Ok(parsed) => match parsed.field("traceEvents").and_then(Value::as_arr) {
            Err(_) => check(false, "export must contain a traceEvents array"),
            Ok(events) => {
                check(!events.is_empty(), "traceEvents must be non-empty");
                let mut xs = 0usize;
                for ev in events {
                    let ph = ev.field("ph").and_then(Value::as_str).unwrap_or("");
                    check(ph == "X" || ph == "M", "event phase must be X or M");
                    check(
                        ev.field("name").and_then(Value::as_str).is_ok(),
                        "event name",
                    );
                    check(ev.field("pid").and_then(Value::as_u64).is_ok(), "event pid");
                    check(ev.field("tid").and_then(Value::as_u64).is_ok(), "event tid");
                    if ph == "X" {
                        xs += 1;
                        check(
                            matches!(ev.field("ts"), Ok(Value::Num(n)) if *n >= 0.0),
                            "X event ts",
                        );
                        check(
                            matches!(ev.field("dur"), Ok(Value::Num(n)) if *n >= 0.0),
                            "X event dur",
                        );
                        check(
                            ev.field("args")
                                .and_then(|a| a.field("trace"))
                                .and_then(Value::as_str)
                                .is_ok(),
                            "X event args.trace id",
                        );
                    }
                }
                check(xs == spans, "one X event per recorded span");
            }
        },
    }

    recorder.set_latency_threshold(None);
    if failures.is_empty() {
        println!("repro trace --selftest: ok ({} spans validated)\n", spans);
    } else {
        failures.sort();
        failures.dedup();
        for f in &failures {
            eprintln!("repro trace --selftest: FAIL: {}", f);
        }
        std::process::exit(1);
    }
}

/// `repro lint` — run the in-tree static analysis (see DESIGN.md §9) over
/// the workspace and print per-rule counts; with `--json`, also write
/// `LINT.json`. Exits non-zero on any unsuppressed finding so scripted
/// callers can gate on it like `--deny`.
fn run_lint(write_json: bool) {
    let cwd = std::env::current_dir().expect("current directory");
    let root = ada_lint::find_workspace_root(&cwd).expect("workspace root");
    let report = ada_lint::run_workspace(&root).expect("lint scan");

    for d in report.unsuppressed() {
        println!("{}:{}:{} [{}] {}", d.path, d.line, d.col, d.rule, d.message);
    }
    let open = report.unsuppressed().count();
    println!(
        "ada-lint: {} finding{} ({} suppressed) across {} files",
        open,
        if open == 1 { "" } else { "s" },
        report.suppressed().count(),
        report.files_scanned
    );
    for (rule, u, s) in report.rule_counts() {
        println!("  {:<28} {:>4} open {:>4} suppressed", rule, u, s);
    }
    if write_json {
        std::fs::write("LINT.json", report.to_json().to_vec()).expect("write LINT.json");
        println!("  wrote LINT.json\n");
    }
    if open > 0 {
        std::process::exit(1);
    }
}

fn print_contention() {
    use ada_platforms::contention::cluster_contention;
    let clients = [1usize, 3, 9];
    let runs = cluster_contention(5006, &clients);
    let labels = ["C-PVFS", "D-PVFS", "D-ADA (all)", "D-ADA (protein)"];
    let rows: Vec<Vec<String>> = labels
        .iter()
        .map(|label| {
            let mut row = vec![label.to_string()];
            for &c in &clients {
                let t = runs
                    .iter()
                    .find(|r| r.label == *label && r.clients == c)
                    .unwrap()
                    .turnaround_s;
                row.push(format!("{:.1} s", t));
            }
            row
        })
        .collect();
    println!(
        "{}",
        format_table(
            "Contention (cluster, 5,006 frames): per-client turnaround under concurrent readers",
            &["scenario", "1 client", "3 clients", "9 clients"],
            &rows
        )
    );
    println!(
        "  ADA ships less through the shared storage: its advantage grows with client count\n"
    );
}

fn print_amortization() {
    use ada_platforms::amortization::ingest_amortization;
    let rows: Vec<Vec<String>> = [626u64, 1877, 5006]
        .iter()
        .map(|&frames| {
            let a = ingest_amortization(frames);
            vec![
                frames.to_string(),
                format!("{:.1} s", a.ingest_s),
                format!("{:.2} s", a.ada_query_s),
                format!("{:.1} s", a.traditional_query_s),
                a.break_even_queries.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        format_table(
            "Ingest amortization (SSD server): when does ADA's one-time pre-processing pay off?",
            &[
                "frames",
                "ADA ingest (once)",
                "ADA query",
                "traditional query",
                "break-even queries"
            ],
            &rows
        )
    );
    println!("  biologists 'repeatedly study the behaviors of proteins' (§2.1): the investment returns within a couple of reads\n");
}

fn print_playback() {
    use ada_platforms::playback::playback_sweep;
    use ada_vmdsim::AccessPattern;
    let rows: Vec<Vec<String>> = playback_sweep(
        500,
        AccessPattern::BackAndForth { cycles: 3 },
        &[0.1, 0.25, 0.5, 0.75, 1.0],
    )
    .into_iter()
    .map(|r| {
        vec![
            format!("{:.0}%", r.budget_fraction * 100.0),
            format!("{:.1}%", r.raw_hit_rate * 100.0),
            format!("{:.1}%", r.ada_hit_rate * 100.0),
            format!("{:.1} GB", r.raw_refetch_bytes as f64 / 1e9),
            format!("{:.1} GB", r.ada_refetch_bytes as f64 / 1e9),
        ]
    })
    .collect();
    println!(
        "{}",
        format_table(
            "Playback (§2.1): frame-cache hit rate, 500-frame animation scrubbed back and forth x3",
            &[
                "cache budget (of raw)",
                "raw hit rate",
                "ADA-protein hit rate",
                "raw re-fetch",
                "ADA re-fetch"
            ],
            &rows
        )
    );
    println!(
        "  smaller (protein-only) frames keep more of the animation resident: fluent replay\n"
    );
}

fn print_ablations() {
    use ada_platforms::ablations::*;

    let rows: Vec<Vec<String>> = dispatch_policy_ablation(5006)
        .into_iter()
        .map(|r| {
            vec![
                r.policy,
                format!("{:.2} s", r.protein_read_s),
                format!("{:.2} s", r.all_read_s),
                format!("{:.0} MB", r.ssd_bytes as f64 / 1e6),
            ]
        })
        .collect();
    println!(
        "{}",
        format_table(
            "Ablation — dispatch policy (cluster, 5,006 frames)",
            &["policy", "protein read", "full read", "SSD-tier bytes"],
            &rows
        )
    );

    let rows: Vec<Vec<String>> = decompress_rate_sweep(&[14.3, 28.6, 57.2, 114.4, 500.0])
        .into_iter()
        .map(|r| {
            vec![
                format!("{:.1}", r.rate_mbps),
                format!("{:.1} s", r.c_ext4_s),
                format!("{:.2} s", r.ada_protein_s),
                format!("{:.1}x", r.speedup),
            ]
        })
        .collect();
    println!(
        "{}",
        format_table(
            "Ablation — decompression-rate sensitivity of the 13.4x headline",
            &["decomp MB/s", "C-ext4", "D-ADA(protein)", "speedup"],
            &rows
        )
    );

    let rows: Vec<Vec<String>> = render_overhead_sweep(&[0.0, 0.016, 0.032, 0.064, 0.25])
        .into_iter()
        .map(|r| {
            let fmt = |k: Option<u64>| k.map_or("survives all".to_string(), |f| f.to_string());
            vec![
                format!("{:.1}%", r.fraction * 100.0),
                fmt(r.xfs_kill_frames),
                fmt(r.ada_protein_kill_frames),
            ]
        })
        .collect();
    println!(
        "{}",
        format_table(
            "Ablation — render working-set fraction vs fat-node OOM boundary",
            &["overhead", "XFS killed at", "ADA(protein) killed at"],
            &rows
        )
    );

    let rows: Vec<Vec<String>> = indexer_cost_ablation(&[1, 16, 256, 4096])
        .into_iter()
        .map(|r| {
            vec![
                r.droppings.to_string(),
                format!("{:.2} ms", r.indexer_s * 1e3),
                format!("{:.2}%", r.penalty_pct),
            ]
        })
        .collect();
    println!(
        "{}",
        format_table(
            "Ablation — indexer cost vs container dropping count (5,006-frame dataset)",
            &["droppings", "indexer time", "penalty vs full read"],
            &rows
        )
    );
}

fn print_table1() {
    let rows: Vec<Vec<String>> = table1()
        .into_iter()
        .map(|r| {
            vec![
                r.paper.frames.to_string(),
                format!("{:.0}", r.paper.complete_mb),
                format!("{:.0}", r.paper.protein_mb),
                format!("{:.1}", r.paper.fraction_pct),
                format!("{:.1}", r.model_complete_mb),
                format!("{:.1}", r.model_protein_mb),
                format!("{:.1}", r.model_protein_mb / r.model_complete_mb * 100.0),
            ]
        })
        .collect();
    println!(
        "{}",
        format_table(
            "Table 1 — Data components of three .xtc files (paper | model)",
            &[
                "frames",
                "paper complete (MB)",
                "paper protein (MB)",
                "paper %",
                "model complete (MB)",
                "model protein (MB)",
                "model %"
            ],
            &rows
        )
    );
}

fn size_table(title: &str, rows: Vec<ada_platforms::figures::SizeCmp>) {
    let body: Vec<Vec<String>> = rows
        .into_iter()
        .map(|r| {
            vec![
                r.paper.frames.to_string(),
                format!("{:.0}", r.paper.compressed_mb),
                format!("{:.1}", r.model_compressed_mb),
                format!("{:.0}", r.paper.ada_protein_mb),
                format!("{:.1}", r.model_protein_mb),
                format!("{:.0}", r.paper.raw_mb),
                format!("{:.1}", r.model_raw_mb),
            ]
        })
        .collect();
    println!(
        "{}",
        format_table(
            title,
            &[
                "frames",
                "compressed paper (MB)",
                "compressed model (MB)",
                "ADA protein paper (MB)",
                "ADA protein model (MB)",
                "raw paper (MB)",
                "raw model (MB)"
            ],
            &body
        )
    );
}

fn print_table2() {
    size_table(
        "Table 2 — Data size comparisons, SSD server (ext4 vs ADA)",
        table2(),
    );
}

fn print_table6() {
    size_table(
        "Table 6 — Data size comparisons, fat node (XFS vs ADA)",
        table6(),
    );
}

fn print_table3() {
    let rows = vec![
        vec!["C".into(), "VMD loads a compressed XTC file".into()],
        vec![
            "D".into(),
            "VMD loads a raw XTC file w/o compression".into(),
        ],
        vec![
            "ADA (all)".into(),
            "ADA transfers the entire raw data".into(),
        ],
        vec![
            "ADA (protein)".into(),
            "ADA transfers the protein data".into(),
        ],
    ];
    println!(
        "{}",
        format_table(
            "Table 3 — Notations of Fig. 7",
            &["Notes", "Description"],
            &rows
        )
    );
}

fn print_table4() {
    let p = Platform::cluster9();
    let rows = vec![
        vec!["CPU".into(), p.cpu.name.clone()],
        vec!["File system".into(), "PVFS (OrangeFS-like, striped)".into()],
        vec!["Node quantity".into(), "9 (3 compute, 3 HDD, 3 SSD)".into()],
        vec!["HDD".into(), "WD 1TB SATA, 126 MB/s max, 6 devices".into()],
        vec![
            "SSD".into(),
            "Plextor 256GB PCI-e, 3000/1000 MB/s peak, 6 devices".into(),
        ],
        vec![
            "Average power per node".into(),
            format!("{} W", Platform::CLUSTER_NODE_AVG_POWER_W),
        ],
    ];
    println!(
        "{}",
        format_table(
            "Table 4 — Cluster system parameters",
            &["Item", "Value"],
            &rows
        )
    );
}

fn print_table5() {
    let p = Platform::fatnode();
    let rows = vec![
        vec![
            "CPU".into(),
            format!("{} ({} cores)", p.cpu.name, p.cpu.cores),
        ],
        vec![
            "Main memory".into(),
            format!("{} GB DDR4", p.memory_bytes / 1_000_000_000),
        ],
        vec!["File system".into(), "XFS".into()],
        vec!["Disk array".into(), "WD HDD 1TB x10, RAID 50".into()],
    ];
    println!(
        "{}",
        format_table(
            "Table 5 — Fat-node server parameters",
            &["Item", "Value"],
            &rows
        )
    );
}

fn print_fig1() {
    // Numeric stand-in for the paper's renders: subset sizes and drawn
    // geometry for raw vs protein vs MISC of a synthetic GPCR system.
    let w = ada_workload::gpcr_workload(6000, 1, 42);
    let labeler =
        ada_core::categorize_algo1(&w.system, &ada_mdmodel::category::Taxonomy::paper_default());
    let frame = &w.trajectory.frames[0];
    let opts = RenderOptions::default();
    let mut rows = Vec::new();
    let full = render_frame(&w.system, &[], &frame.coords, &opts);
    rows.push(vec![
        "original raw data (Fig. 1a)".to_string(),
        w.system.len().to_string(),
        full.atoms_drawn.to_string(),
        full.pixels_filled.to_string(),
    ]);
    for (tag, name) in [
        (Tag::protein(), "protein dataset (Fig. 1b)"),
        (Tag::misc(), "MISC dataset (Fig. 1c)"),
    ] {
        let ranges = &labeler[&tag];
        let sub = w.system.subset(ranges);
        let coords = ranges.gather(&frame.coords);
        let stats = render_frame(&sub, &[], &coords, &opts);
        rows.push(vec![
            name.to_string(),
            sub.len().to_string(),
            stats.atoms_drawn.to_string(),
            stats.pixels_filled.to_string(),
        ]);
    }
    println!(
        "{}",
        format_table(
            "Fig. 1 — Raw vs protein vs MISC (numeric render stats)",
            &["dataset", "atoms", "atoms drawn", "pixels filled"],
            &rows
        )
    );
}

fn print_fig7(which: Option<usize>) {
    let figs = fig7();
    for (i, f) in figs.iter().enumerate() {
        if which.is_none() || which == Some(i) {
            println!("{}", render_figure(f));
        }
    }
    if which.is_none() || which == Some(1) {
        let b = &figs[1];
        let c = b.value("C-ext4", 5006).unwrap();
        let p = b.value("D-ADA (protein)", 5006).unwrap();
        println!(
            "  headline: D-ADA(protein) turnaround speedup vs C-ext4 at 5,006 frames = {:.1}x (paper: up to 13.4x)\n",
            c / p
        );
    }
}

fn print_fig8() {
    for (label, phases) in fig8() {
        let rows: Vec<Vec<String>> = phases
            .iter()
            .map(|(n, secs, share)| {
                vec![n.clone(), fmt_secs(*secs), format!("{:.1}%", share * 100.0)]
            })
            .collect();
        println!(
            "{}",
            format_table(
                &format!("Fig. 8 — CPU burst breakdown, {} at 5,006 frames", label),
                &["phase", "CPU time", "share"],
                &rows
            )
        );
    }
    println!("  paper: decompression weighs more than 50% of the CPU burst time under ext4\n");
}

fn print_fig9(which: Option<usize>) {
    for (i, f) in fig9().iter().enumerate() {
        if which.is_none() || which == Some(i) {
            println!("{}", render_figure(f));
        }
    }
}

fn print_fig10(which: Option<usize>) {
    for (i, f) in fig10().iter().enumerate() {
        if which.is_none() || which == Some(i) {
            println!("{}", render_figure(f));
        }
    }
    if which.is_none() || which == Some(3) {
        println!("  paper anchors: XFS >12,500 kJ, ADA(all) <5,000 kJ, ADA(protein) ~2,200 kJ at 1,876,800 frames\n");
    }
}

/// `repro bench-ingest` — wall-clock the serial vs pipelined ingest
/// paths (splitter and streaming pipeline at 1/2/4/8 threads) over a
/// 1,000-frame GPCR workload, print a table and write BENCH_ingest.json.
fn bench_ingest() {
    use ada_core::{
        categorize_algo1, split_trajectory_opts, split_trajectory_serial, Ada, AdaConfig,
        SplitOptions,
    };
    use ada_json::Value;
    use ada_mdformats::write_pdb;
    use ada_mdformats::xtc::{write_xtc, DEFAULT_PRECISION};
    use ada_mdmodel::category::Taxonomy;
    use ada_plfs::ContainerSet;
    use ada_simfs::{LocalFs, SimFileSystem};
    use std::sync::Arc;
    use std::time::Instant;

    const THREADS: [usize; 4] = [1, 2, 4, 8];
    const REPS: usize = 5;

    fn time<F: FnMut()>(mut f: F) -> f64 {
        f(); // warm up caches and the allocator
        let mut best = f64::INFINITY;
        for _ in 0..REPS {
            let t0 = Instant::now();
            f();
            best = best.min(t0.elapsed().as_secs_f64());
        }
        best
    }

    fn ada_with(split_threads: usize, pipeline_depth: usize) -> Ada {
        let ssd: Arc<dyn SimFileSystem> = Arc::new(LocalFs::ext4_on_nvme());
        let hdd: Arc<dyn SimFileSystem> = Arc::new(LocalFs::ext4_on_hdd());
        let containers = Arc::new(ContainerSet::new(vec![
            ("ssd".into(), ssd.clone()),
            ("hdd".into(), hdd),
        ]));
        let config = AdaConfig {
            split_threads,
            pipeline_depth,
            ..AdaConfig::paper_prototype("ssd", "hdd")
        };
        Ada::new(config, containers, ssd)
    }

    let w = ada_workload::gpcr_workload(2_000, 1_000, 7);
    let labeler = categorize_algo1(&w.system, &Taxonomy::paper_default());
    let pdb_text = write_pdb(&w.system);
    let xtc_bytes = write_xtc(&w.trajectory, DEFAULT_PRECISION).unwrap();
    let raw_bytes = w.trajectory.nbytes() as u64;
    let mib = raw_bytes as f64 / (1024.0 * 1024.0);

    let mut results: Vec<(String, f64)> = Vec::new();
    results.push((
        "split/serial".into(),
        time(|| {
            split_trajectory_serial(&w.trajectory, &labeler).unwrap();
        }),
    ));
    for t in THREADS {
        results.push((
            format!("split/parallel/{}", t),
            time(|| {
                split_trajectory_opts(&w.trajectory, &labeler, SplitOptions::with_threads(t))
                    .unwrap();
            }),
        ));
    }
    results.push((
        "streaming/serial".into(),
        time(|| {
            ada_with(1, 1)
                .ingest_streaming("bench", &pdb_text, &xtc_bytes, 128)
                .unwrap();
        }),
    ));
    for t in THREADS {
        results.push((
            format!("streaming/pipelined/{}", t),
            time(|| {
                ada_with(t, 2)
                    .ingest_streaming("bench", &pdb_text, &xtc_bytes, 128)
                    .unwrap();
            }),
        ));
    }

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|(name, s)| {
            vec![
                name.clone(),
                format!("{:.1}", s * 1e3),
                format!("{:.1}", mib / s),
            ]
        })
        .collect();
    println!(
        "{}",
        format_table(
            &format!(
                "Ingest pipeline — best of {} (GPCR, 1,000 frames × {} atoms, {} core(s))",
                REPS,
                w.system.len(),
                cores
            ),
            &["path", "time (ms)", "throughput (MiB/s)"],
            &rows
        )
    );

    // One measured run per mode for the telemetry section: real per-stage
    // busy times and queue high-water marks of exactly this workload.
    let serial_profile = ada_with(1, 1)
        .ingest_streaming("bench", &pdb_text, &xtc_bytes, 128)
        .unwrap()
        .profile;
    let pipelined_profile = ada_with(cores.min(4), 2)
        .ingest_streaming("bench", &pdb_text, &xtc_bytes, 128)
        .unwrap()
        .profile;
    let profile_json = |p: Option<ada_core::StageProfile>| match p {
        Some(p) => p.to_json(),
        None => Value::Null,
    };

    let json = Value::obj(vec![
        (
            "workload",
            Value::obj(vec![
                ("natoms", Value::num_u(w.system.len() as u64)),
                ("nframes", Value::num_u(w.trajectory.len() as u64)),
                ("raw_bytes", Value::num_u(raw_bytes)),
            ]),
        ),
        ("cores", Value::num_u(cores as u64)),
        ("reps", Value::num_u(REPS as u64)),
        (
            "results",
            Value::Arr(
                results
                    .iter()
                    .map(|(name, s)| {
                        Value::obj(vec![
                            ("name", Value::str(name)),
                            ("seconds", Value::Num(*s)),
                            ("mib_per_s", Value::Num(mib / s)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "profile",
            Value::obj(vec![
                ("serial", profile_json(serial_profile)),
                ("pipelined", profile_json(pipelined_profile)),
            ]),
        ),
    ]);
    std::fs::write("BENCH_ingest.json", json.to_vec()).expect("write BENCH_ingest.json");
    println!("  wrote BENCH_ingest.json\n");
}

/// `repro profile-ingest` — answer "is decode, split, or dispatch the
/// wall-clock ceiling?" with measured telemetry: run the serial and the
/// pipelined ingest over the same workload, print each stage's busy time
/// and share, and write the machine-readable PROFILE_ingest.json.
fn profile_ingest() {
    use ada_core::{Ada, AdaConfig, IngestInput};
    use ada_json::Value;
    use ada_mdformats::write_pdb;
    use ada_mdformats::xtc::{write_xtc, DEFAULT_PRECISION};
    use ada_plfs::ContainerSet;
    use ada_simfs::{LocalFs, SimFileSystem};
    use std::sync::Arc;

    fn fresh_ada() -> Ada {
        let ssd: Arc<dyn SimFileSystem> = Arc::new(LocalFs::ext4_on_nvme());
        let hdd: Arc<dyn SimFileSystem> = Arc::new(LocalFs::ext4_on_hdd());
        let containers = Arc::new(ContainerSet::new(vec![
            ("ssd".into(), ssd.clone()),
            ("hdd".into(), hdd),
        ]));
        Ada::new(AdaConfig::paper_prototype("ssd", "hdd"), containers, ssd)
    }

    let w = ada_workload::gpcr_workload(2_000, 500, 7);
    let pdb_text = write_pdb(&w.system);
    let xtc_bytes = write_xtc(&w.trajectory, DEFAULT_PRECISION).unwrap();

    let serial = fresh_ada()
        .ingest(
            "profiled",
            IngestInput::Real {
                pdb_text: pdb_text.clone(),
                xtc_bytes: xtc_bytes.clone(),
            },
        )
        .unwrap()
        .profile
        .expect("tracing must be on for profile-ingest");
    let pipelined = fresh_ada()
        .ingest_streaming("profiled", &pdb_text, &xtc_bytes, 64)
        .unwrap()
        .profile
        .expect("tracing must be on for profile-ingest");

    print_stage_profile("Ingest", &serial);
    print_stage_profile("Ingest", &pipelined);

    let json = Value::obj(vec![
        (
            "workload",
            Value::obj(vec![
                ("natoms", Value::num_u(w.system.len() as u64)),
                ("nframes", Value::num_u(w.trajectory.len() as u64)),
            ]),
        ),
        ("serial", serial.to_json()),
        ("pipelined", pipelined.to_json()),
    ]);
    std::fs::write("PROFILE_ingest.json", json.to_vec()).expect("write PROFILE_ingest.json");
    println!("  wrote PROFILE_ingest.json\n");
}

/// Print one `StageProfile` as a stage/busy-time/share table plus its
/// bottleneck and queue high-water marks.
fn print_stage_profile(op: &str, p: &ada_core::StageProfile) {
    let rows: Vec<Vec<String>> = p
        .stages_ns
        .iter()
        .map(|(stage, ns)| {
            vec![
                stage.clone(),
                format!("{:.2}", *ns as f64 / 1e6),
                format!("{:.1}%", p.stage_share(stage) * 100.0),
            ]
        })
        .collect();
    println!(
        "{}",
        format_table(
            &format!(
                "{} stage attribution — {} mode ({:.2} ms wall)",
                op,
                p.mode,
                p.wall_ns as f64 / 1e6
            ),
            &["stage", "busy time (ms)", "share of wall"],
            &rows
        )
    );
    if let Some((stage, ns)) = p.bottleneck() {
        println!(
            "  bottleneck: {} ({:.2} ms busy) — the stage the pipeline cannot hide",
            stage,
            ns as f64 / 1e6
        );
    }
    if !p.queue_hwm.is_empty() {
        let hwm: Vec<String> = p
            .queue_hwm
            .iter()
            .map(|(q, v)| format!("{}={}", q, v))
            .collect();
        println!("  queue high-water marks: {}", hwm.join(", "));
    }
    println!();
}

/// Hybrid SSD/HDD ADA tuned for query benchmarks: small droppings so the
/// retrieval has real per-backend and per-dropping fan-out.
fn query_bench_ada(query_threads: usize) -> ada_core::Ada {
    use ada_plfs::ContainerSet;
    use ada_simfs::{LocalFs, SimFileSystem};
    use std::sync::Arc;

    let ssd: Arc<dyn SimFileSystem> = Arc::new(LocalFs::ext4_on_nvme());
    let hdd: Arc<dyn SimFileSystem> = Arc::new(LocalFs::ext4_on_hdd());
    let containers = Arc::new(ContainerSet::new(vec![
        ("ssd".into(), ssd.clone()),
        ("hdd".into(), hdd),
    ]));
    let config = ada_core::AdaConfig {
        query_threads,
        frames_per_dropping: 64, // 1,000 frames → ~16 droppings per tag
        ..ada_core::AdaConfig::paper_prototype("ssd", "hdd")
    };
    ada_core::Ada::new(config, containers, ssd)
}

/// `repro bench-query` — wall-clock the serial vs parallel query paths
/// (full-frame and protein-subset retrieval at 1/2/4/8 decode workers)
/// over a multi-dropping GPCR dataset, print a table and write
/// BENCH_query.json (same shape as BENCH_ingest.json).
fn bench_query() {
    use ada_core::{Ada, IngestInput};
    use ada_json::Value;
    use ada_mdformats::write_pdb;
    use ada_mdformats::xtc::{write_xtc, DEFAULT_PRECISION};
    use std::time::Instant;

    const THREADS: [usize; 4] = [1, 2, 4, 8];
    const REPS: usize = 5;

    fn time<F: FnMut()>(mut f: F) -> f64 {
        f(); // warm up caches and the allocator
        let mut best = f64::INFINITY;
        for _ in 0..REPS {
            let t0 = Instant::now();
            f();
            best = best.min(t0.elapsed().as_secs_f64());
        }
        best
    }

    let w = ada_workload::gpcr_workload(2_000, 1_000, 7);
    let pdb_text = write_pdb(&w.system);
    let xtc_bytes = write_xtc(&w.trajectory, DEFAULT_PRECISION).unwrap();
    let raw_bytes = w.trajectory.nbytes() as u64;

    let ingest = |ada: &Ada| {
        ada.ingest(
            "bench",
            IngestInput::Real {
                pdb_text: pdb_text.clone(),
                xtc_bytes: xtc_bytes.clone(),
            },
        )
        .unwrap();
    };
    let serial = query_bench_ada(0);
    ingest(&serial);
    let parallel: Vec<(usize, Ada)> = THREADS
        .iter()
        .map(|&t| {
            let ada = query_bench_ada(t);
            ingest(&ada);
            (t, ada)
        })
        .collect();

    let protein = Tag::protein();
    let full_bytes = serial.query("bench", None).unwrap().data.bytes();
    let prot_bytes = serial.query("bench", Some(&protein)).unwrap().data.bytes();

    // (name, best seconds, delivered bytes)
    let mut results: Vec<(String, f64, u64)> = Vec::new();
    results.push((
        "full/serial".into(),
        time(|| {
            serial.query("bench", None).unwrap();
        }),
        full_bytes,
    ));
    for (t, ada) in &parallel {
        results.push((
            format!("full/parallel/{}", t),
            time(|| {
                ada.query("bench", None).unwrap();
            }),
            full_bytes,
        ));
    }
    results.push((
        "protein/serial".into(),
        time(|| {
            serial.query("bench", Some(&protein)).unwrap();
        }),
        prot_bytes,
    ));
    for (t, ada) in &parallel {
        results.push((
            format!("protein/parallel/{}", t),
            time(|| {
                ada.query("bench", Some(&protein)).unwrap();
            }),
            prot_bytes,
        ));
    }

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mib = |bytes: u64| bytes as f64 / (1024.0 * 1024.0);
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|(name, s, bytes)| {
            vec![
                name.clone(),
                format!("{:.1}", s * 1e3),
                format!("{:.1}", mib(*bytes) / s),
            ]
        })
        .collect();
    println!(
        "{}",
        format_table(
            &format!(
                "Query pipeline — best of {} (GPCR, 1,000 frames × {} atoms, {} core(s))",
                REPS,
                w.system.len(),
                cores
            ),
            &["path", "time (ms)", "delivered (MiB/s)"],
            &rows
        )
    );

    // One measured run per mode for the telemetry section (same `profile`
    // shape as BENCH_ingest.json).
    let serial_profile = serial.query("bench", None).unwrap().profile;
    let parallel_profile = parallel
        .iter()
        .find(|(t, _)| *t == 4)
        .map(|(_, ada)| ada.query("bench", None).unwrap().profile)
        .unwrap_or_default();
    let profile_json = |p: Option<ada_core::StageProfile>| match p {
        Some(p) => p.to_json(),
        None => Value::Null,
    };

    let json = Value::obj(vec![
        (
            "workload",
            Value::obj(vec![
                ("natoms", Value::num_u(w.system.len() as u64)),
                ("nframes", Value::num_u(w.trajectory.len() as u64)),
                ("raw_bytes", Value::num_u(raw_bytes)),
            ]),
        ),
        ("cores", Value::num_u(cores as u64)),
        ("reps", Value::num_u(REPS as u64)),
        (
            "results",
            Value::Arr(
                results
                    .iter()
                    .map(|(name, s, bytes)| {
                        Value::obj(vec![
                            ("name", Value::str(name)),
                            ("seconds", Value::Num(*s)),
                            ("mib_per_s", Value::Num(mib(*bytes) / s)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "profile",
            Value::obj(vec![
                ("serial", profile_json(serial_profile)),
                ("parallel", profile_json(parallel_profile)),
            ]),
        ),
    ]);
    std::fs::write("BENCH_query.json", json.to_vec()).expect("write BENCH_query.json");
    println!("  wrote BENCH_query.json\n");
}

/// `repro bench-contention` — measured (not modeled) Fig-9: sweep
/// concurrent client counts through the admission front-end over ONE
/// shared `Ada` and record throughput and p50/p99 request latency for the
/// ADA path (protein-subset query) and the baseline path (full-frame
/// query). A final run through a deliberately starved queue shows typed
/// load shedding. Writes BENCH_contention.json; the front-end's queue
/// HWM gauges, admission-wait histograms and reject counters land in the
/// global telemetry snapshot (`--metrics-out`).
fn bench_contention() {
    use ada_core::IngestInput;
    use ada_frontend::{Frontend, FrontendConfig, FrontendStats};
    use ada_json::Value;
    use ada_mdformats::write_pdb;
    use ada_mdformats::xtc::{write_xtc, DEFAULT_PRECISION};
    use std::sync::Arc;
    use std::time::Instant;

    const CLIENTS: [usize; 4] = [1, 2, 4, 8];
    const REQS_PER_CLIENT: usize = 6;

    let w = ada_workload::gpcr_workload(2_000, 200, 7);
    let pdb_text = write_pdb(&w.system);
    let xtc_bytes = write_xtc(&w.trajectory, DEFAULT_PRECISION).unwrap();
    let ada = Arc::new({
        let ada = query_bench_ada(0); // per-request serial: concurrency comes from slots
        ada.ingest(
            "bench",
            IngestInput::Real {
                pdb_text,
                xtc_bytes,
            },
        )
        .unwrap();
        ada
    });

    struct Run {
        mode: &'static str,
        clients: usize,
        ok: u64,
        shed: u64,
        wall_s: f64,
        p50_ms: f64,
        p99_ms: f64,
        stats: FrontendStats,
    }

    // One contention run: `clients` threads, each issuing
    // REQS_PER_CLIENT queries for `tag` through a fresh front-end.
    let run = |mode: &'static str, tag: Option<Tag>, clients: usize, queue: usize| -> Run {
        let fe = Frontend::new(
            Arc::clone(&ada),
            FrontendConfig {
                query_queue: queue,
                ..FrontendConfig::default()
            },
        );
        let latencies = ada_telemetry::Histogram::new();
        let mut ok = 0u64;
        let mut shed = 0u64;
        let t0 = Instant::now();
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for t in 0..clients {
                let fe = &fe;
                let tag = tag.clone();
                let latencies = &latencies;
                handles.push(scope.spawn(move || {
                    let client = format!("c{}", t);
                    let mut ok = 0u64;
                    let mut shed = 0u64;
                    for _ in 0..REQS_PER_CLIENT {
                        let t0 = Instant::now();
                        match fe.query(&client, "bench", tag.as_ref()) {
                            Ok(_) => {
                                latencies.record(t0.elapsed().as_nanos() as u64);
                                ok += 1;
                            }
                            Err(_) => shed += 1, // typed Overloaded; counted below
                        }
                    }
                    (ok, shed)
                }));
            }
            for h in handles {
                let (o, s) = h.join().expect("client thread must not panic");
                ok += o;
                shed += s;
            }
        });
        let wall_s = t0.elapsed().as_secs_f64();
        let snap = latencies.snapshot();
        Run {
            mode,
            clients,
            ok,
            shed,
            wall_s,
            p50_ms: snap.p50 / 1e6,
            p99_ms: snap.p99 / 1e6,
            stats: fe.stats(),
        }
    };

    let mut runs: Vec<Run> = Vec::new();
    for &clients in &CLIENTS {
        runs.push(run("ada", Some(Tag::protein()), clients, 64));
    }
    for &clients in &CLIENTS {
        runs.push(run("baseline", None, clients, 64));
    }
    // Starved queue (1 waiter) under the biggest herd: typed shedding.
    runs.push(run("baseline/shed", None, 8, 1));

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|r| {
            vec![
                r.mode.to_string(),
                r.clients.to_string(),
                r.ok.to_string(),
                r.shed.to_string(),
                format!("{:.1}", r.wall_s * 1e3),
                format!("{:.1}", r.ok as f64 / r.wall_s),
                format!("{:.1}", r.p50_ms),
                format!("{:.1}", r.p99_ms),
            ]
        })
        .collect();
    println!(
        "{}",
        format_table(
            &format!(
                "Measured contention — {} reqs/client (GPCR, 200 frames × {} atoms, {} core(s), 4 query slots)",
                REQS_PER_CLIENT,
                w.system.len(),
                cores
            ),
            &["mode", "clients", "ok", "shed", "wall (ms)", "req/s", "p50 (ms)", "p99 (ms)"],
            &rows
        )
    );

    let run_json = |r: &Run| {
        let q = r.stats.query;
        Value::obj(vec![
            ("mode", Value::str(r.mode)),
            ("clients", Value::num_u(r.clients as u64)),
            (
                "requests",
                Value::num_u((r.clients * REQS_PER_CLIENT) as u64),
            ),
            ("ok", Value::num_u(r.ok)),
            ("shed", Value::num_u(r.shed)),
            ("wall_s", Value::Num(r.wall_s)),
            ("throughput_rps", Value::Num(r.ok as f64 / r.wall_s)),
            ("p50_ms", Value::Num(r.p50_ms)),
            ("p99_ms", Value::Num(r.p99_ms)),
            (
                "admission",
                Value::obj(vec![
                    ("queue_hwm", Value::num_u(q.queue_hwm as u64)),
                    ("submitted", Value::num_u(q.counters.submitted)),
                    ("admitted", Value::num_u(q.counters.admitted)),
                    ("rejected", Value::num_u(q.counters.rejected)),
                    ("expired", Value::num_u(q.counters.expired)),
                ]),
            ),
        ])
    };
    // Cumulative admission-wait distribution across the whole sweep,
    // from the front-end's global registry histograms.
    let wait_json = if ada_telemetry::enabled() {
        ada_telemetry::global()
            .histogram("frontend.wait_ns.query")
            .snapshot()
            .to_json()
    } else {
        Value::Null
    };
    let json = Value::obj(vec![
        (
            "workload",
            Value::obj(vec![
                ("natoms", Value::num_u(w.system.len() as u64)),
                ("nframes", Value::num_u(w.trajectory.len() as u64)),
                ("raw_bytes", Value::num_u(w.trajectory.nbytes() as u64)),
            ]),
        ),
        ("cores", Value::num_u(cores as u64)),
        ("reqs_per_client", Value::num_u(REQS_PER_CLIENT as u64)),
        ("runs", Value::Arr(runs.iter().map(run_json).collect())),
        ("wait_ns_query", wait_json),
    ]);
    std::fs::write("BENCH_contention.json", json.to_vec()).expect("write BENCH_contention.json");
    println!("  wrote BENCH_contention.json\n");
}

/// `repro bench-network` (also `bench-contention --remote`) — the
/// networked contention sweep: shard counts × concurrent TCP clients
/// against real `ada-server` fleets behind the consistent-hash
/// [`ada_client::Router`]. Each client thread owns its sockets, so
/// throughput reflects the fleet, not client-side lock convoys. A final
/// run against a deliberately starved single shard shows typed
/// `Overloaded` shedding crossing the wire intact. Writes
/// BENCH_network.json.
fn bench_network() {
    use ada_client::{ClientConfig, Router};
    use ada_frontend::{Frontend, FrontendConfig};
    use ada_json::Value;
    use ada_mdformats::write_pdb;
    use ada_mdformats::xtc::{write_xtc, DEFAULT_PRECISION};
    use ada_server::{Server, ServerConfig};
    use std::sync::Arc;
    use std::time::Instant;

    const SHARDS: [usize; 3] = [1, 2, 4];
    const CLIENTS: [usize; 4] = [1, 2, 4, 8];
    const REQS_PER_CLIENT: usize = 6;
    const DATASETS: usize = 8;

    let w = ada_workload::gpcr_workload(1_000, 64, 7);
    let pdb_text = write_pdb(&w.system);
    let xtc_bytes = write_xtc(&w.trajectory, DEFAULT_PRECISION).unwrap();

    struct Run {
        mode: &'static str,
        shards: usize,
        clients: usize,
        ok: u64,
        shed: u64,
        wall_s: f64,
        p50_ms: f64,
        p99_ms: f64,
        shed_kind: Option<String>,
    }

    // Start `n` servers — each over its OWN instance, as a real sharded
    // deployment would be — and seed every dataset through a router so
    // each lands on its ring owner.
    let start_fleet = |n: usize, query_slots: usize, query_queue: usize| {
        let mut servers = Vec::with_capacity(n);
        let mut addrs = Vec::with_capacity(n);
        for _ in 0..n {
            let ada = Arc::new(query_bench_ada(0));
            let fe = Arc::new(Frontend::new(
                ada,
                FrontendConfig {
                    query_slots,
                    query_queue,
                    ..FrontendConfig::default()
                },
            ));
            let server = Server::start(fe, ServerConfig::default()).expect("server must start");
            addrs.push(server.local_addr().to_string());
            servers.push(server);
        }
        let setup = Router::new(addrs.clone(), ClientConfig::default());
        for d in 0..DATASETS {
            setup
                .ingest(&format!("ds{}", d), &pdb_text, &xtc_bytes, 0)
                .expect("seed ingest must succeed");
        }
        (servers, addrs)
    };

    // One measured run: `clients` threads, each with its own router,
    // cycling `tag` queries across the seeded datasets.
    let run = |mode: &'static str,
               addrs: &[String],
               shards: usize,
               clients: usize,
               tag: Option<&'static str>|
     -> Run {
        let latencies = ada_telemetry::Histogram::new();
        let mut ok = 0u64;
        let mut shed = 0u64;
        let mut shed_kind: Option<String> = None;
        let t0 = Instant::now();
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for t in 0..clients {
                let latencies = &latencies;
                handles.push(scope.spawn(move || {
                    let router = Router::new(
                        addrs.to_vec(),
                        ClientConfig {
                            name: format!("c{}", t),
                            ..ClientConfig::default()
                        },
                    );
                    let mut ok = 0u64;
                    let mut shed = 0u64;
                    let mut kind: Option<String> = None;
                    for r in 0..REQS_PER_CLIENT {
                        let dataset = format!("ds{}", (t + r) % DATASETS);
                        let t0 = Instant::now();
                        match router.query(&dataset, tag) {
                            Ok(_) => {
                                latencies.record(t0.elapsed().as_nanos() as u64);
                                ok += 1;
                            }
                            Err(e) => {
                                // Typed (`Overloaded` under the starved
                                // fleet); the first kind seen is reported.
                                shed += 1;
                                kind.get_or_insert_with(|| e.kind().to_string());
                            }
                        }
                    }
                    (ok, shed, kind)
                }));
            }
            for h in handles {
                let (o, s, k) = h.join().expect("client thread must not panic");
                ok += o;
                shed += s;
                if shed_kind.is_none() {
                    shed_kind = k;
                }
            }
        });
        let wall_s = t0.elapsed().as_secs_f64();
        let snap = latencies.snapshot();
        Run {
            mode,
            shards,
            clients,
            ok,
            shed,
            wall_s,
            p50_ms: snap.p50 / 1e6,
            p99_ms: snap.p99 / 1e6,
            shed_kind,
        }
    };

    let mut runs: Vec<Run> = Vec::new();
    for &shards in &SHARDS {
        let (mut servers, addrs) = start_fleet(shards, 4, 64);
        for &clients in &CLIENTS {
            runs.push(run("sweep", &addrs, shards, clients, Some("p")));
        }
        for s in &mut servers {
            s.shutdown();
        }
    }
    // Overload: one shard starved to a single slot and a single queue
    // waiter, hammered by the biggest herd with full-frame queries —
    // most requests come back as typed `Overloaded` over the wire.
    let (mut servers, addrs) = start_fleet(1, 1, 1);
    runs.push(run("overload", &addrs, 1, 8, None));
    for s in &mut servers {
        s.shutdown();
    }

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|r| {
            vec![
                r.mode.to_string(),
                r.shards.to_string(),
                r.clients.to_string(),
                r.ok.to_string(),
                r.shed.to_string(),
                format!("{:.1}", r.wall_s * 1e3),
                format!("{:.1}", r.ok as f64 / r.wall_s),
                format!("{:.1}", r.p50_ms),
                format!("{:.1}", r.p99_ms),
            ]
        })
        .collect();
    println!(
        "{}",
        format_table(
            &format!(
                "Networked contention — {} reqs/client over {} datasets (GPCR, 64 frames × {} atoms, {} core(s), TCP loopback)",
                REQS_PER_CLIENT,
                DATASETS,
                w.system.len(),
                cores
            ),
            &["mode", "shards", "clients", "ok", "shed", "wall (ms)", "req/s", "p50 (ms)", "p99 (ms)"],
            &rows
        )
    );

    let run_json = |r: &Run| {
        Value::obj(vec![
            ("mode", Value::str(r.mode)),
            ("shards", Value::num_u(r.shards as u64)),
            ("clients", Value::num_u(r.clients as u64)),
            (
                "requests",
                Value::num_u((r.clients * REQS_PER_CLIENT) as u64),
            ),
            ("ok", Value::num_u(r.ok)),
            ("shed", Value::num_u(r.shed)),
            ("wall_s", Value::Num(r.wall_s)),
            ("throughput_rps", Value::Num(r.ok as f64 / r.wall_s)),
            ("p50_ms", Value::Num(r.p50_ms)),
            ("p99_ms", Value::Num(r.p99_ms)),
            (
                "shed_kind",
                match &r.shed_kind {
                    Some(k) => Value::str(k),
                    None => Value::Null,
                },
            ),
        ])
    };
    let json = Value::obj(vec![
        (
            "workload",
            Value::obj(vec![
                ("natoms", Value::num_u(w.system.len() as u64)),
                ("nframes", Value::num_u(w.trajectory.len() as u64)),
                ("raw_bytes", Value::num_u(w.trajectory.nbytes() as u64)),
            ]),
        ),
        ("cores", Value::num_u(cores as u64)),
        ("datasets", Value::num_u(DATASETS as u64)),
        ("reqs_per_client", Value::num_u(REQS_PER_CLIENT as u64)),
        ("runs", Value::Arr(runs.iter().map(run_json).collect())),
    ]);
    std::fs::write("BENCH_network.json", json.to_vec()).expect("write BENCH_network.json");
    println!("  wrote BENCH_network.json\n");
}

/// `repro serve [--port N] [--smoke]` — run a standalone `ada-server`
/// over a fresh paper-prototype instance. With `--smoke`, a loopback
/// client round-trips ping/ingest/query/range/cache-stats against the
/// live server and the process exits; without it, the daemon serves
/// until killed.
fn serve(port: u16, smoke: bool) {
    use ada_client::{Client, ClientConfig};
    use ada_frontend::{Frontend, FrontendConfig};
    use ada_mdformats::write_pdb;
    use ada_mdformats::xtc::{write_xtc, DEFAULT_PRECISION};
    use ada_server::{Server, ServerConfig};
    use std::sync::Arc;
    use std::time::Duration;

    let ada = Arc::new(query_bench_ada(0));
    let fe = Arc::new(Frontend::new(ada, FrontendConfig::default()));
    let config = ServerConfig {
        addr: format!("127.0.0.1:{}", port),
        ..ServerConfig::default()
    };
    let mut server = match Server::start(fe, config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("ada-server failed to start: {}", e);
            std::process::exit(1);
        }
    };
    println!("ada-server listening on {}", server.local_addr());

    if smoke {
        let client = Client::new(
            server.local_addr().to_string(),
            ClientConfig {
                name: "smoke".to_string(),
                ..ClientConfig::default()
            },
        );
        let w = ada_workload::gpcr_workload(500, 8, 7);
        let pdb_text = write_pdb(&w.system);
        let xtc_bytes = write_xtc(&w.trajectory, DEFAULT_PRECISION).unwrap();
        client.ping().expect("smoke: ping");
        let ing = client
            .ingest("smoke", &pdb_text, &xtc_bytes, 0)
            .expect("smoke: ingest");
        let q = client.query("smoke", Some("p")).expect("smoke: query");
        let r = client
            .query_range("smoke", "p", 0, 8, 2)
            .expect("smoke: query_range");
        let stats = client.cache_stats().expect("smoke: cache stats");
        server.shutdown();
        println!(
            "  smoke OK — ingested {} raw bytes; protein query {} decoded B, strided range {} decoded B; cache {} hit(s) / {} miss(es)",
            ing.raw_bytes,
            q.bytes(),
            r.bytes(),
            stats.hits,
            stats.misses
        );
    } else {
        println!("  serving until killed (ctrl-C to stop)");
        loop {
            std::thread::sleep(Duration::from_secs(60));
        }
    }
}

/// `repro bench-sampling` — the ML-sampling read workload: shuffled
/// epochs of strided `query_range` windows over both tags, swept across
/// decoded-dropping cache budgets (off / partial / full hot set).
/// Prints hit rate, p50/p99 sample latency and per-epoch decoded bytes,
/// and writes BENCH_sampling.json including the headline ratio: bytes
/// decoded per steady-state epoch, cache-off vs full-budget.
fn bench_sampling() {
    use ada_core::{Ada, AdaConfig, IngestInput};
    use ada_json::Value;
    use ada_mdformats::write_pdb;
    use ada_mdformats::xtc::{write_xtc, DEFAULT_PRECISION};
    use ada_plfs::ContainerSet;
    use ada_simfs::{LocalFs, SimFileSystem};
    use ada_workload::{shuffled_epochs, SamplingConfig};
    use std::sync::Arc;
    use std::time::Instant;

    const MIB: u64 = 1024 * 1024;
    // off / about half the hot set / comfortably the whole hot set
    // (~15 MiB decoded for 512 frames × 2,000 atoms across both tags;
    // each 64-frame dropping costs ~0.9 MiB, so the partial budget must
    // leave room per shard for at least one payload).
    const BUDGETS: [u64; 3] = [0, 8 * MIB, 64 * MIB];

    let w = ada_workload::gpcr_workload(2_000, 512, 7);
    let pdb_text = write_pdb(&w.system);
    let xtc_bytes = write_xtc(&w.trajectory, DEFAULT_PRECISION).unwrap();

    let sampling = SamplingConfig {
        nframes: w.trajectory.len(),
        window: 16,
        stride: 2,
        epochs: 4,
        tags: vec!["p".to_string(), "m".to_string()],
        seed: 0xADA,
    };
    let epochs = shuffled_epochs(&sampling);

    let fresh_ada = |budget: u64| -> Ada {
        let ssd: Arc<dyn SimFileSystem> = Arc::new(LocalFs::ext4_on_nvme());
        let hdd: Arc<dyn SimFileSystem> = Arc::new(LocalFs::ext4_on_hdd());
        let containers = Arc::new(ContainerSet::new(vec![
            ("ssd".into(), ssd.clone()),
            ("hdd".into(), hdd),
        ]));
        let config = AdaConfig {
            frames_per_dropping: 64, // 512 frames → 8 droppings per tag
            chunk_frames: 16,        // 4 chunks per dropping: windows decode partially
            cache: ada_cache::CacheConfig {
                capacity_bytes: budget,
                shards: 4,
                min_heat: 2,
                readahead: 0,
            },
            ..AdaConfig::paper_prototype("ssd", "hdd")
        };
        let ada = Ada::new(config, containers, ssd);
        ada.ingest(
            "bench",
            IngestInput::Real {
                pdb_text: pdb_text.clone(),
                xtc_bytes: xtc_bytes.clone(),
            },
        )
        .unwrap();
        ada
    };

    struct Sweep {
        budget: u64,
        stats: ada_cache::CacheStats,
        epoch_decoded: Vec<u64>,
        p50_ms: f64,
        p99_ms: f64,
        wall_s: f64,
    }

    let sweeps: Vec<Sweep> = BUDGETS
        .iter()
        .map(|&budget| {
            let ada = fresh_ada(budget);
            let latencies = ada_telemetry::Histogram::new();
            let mut epoch_decoded = Vec::new();
            let mut decoded_before = ada.cache_stats().bytes_decoded;
            let t0 = Instant::now();
            for epoch in &epochs {
                for s in epoch {
                    let tag = Tag::new(s.tag.clone());
                    let t = Instant::now();
                    ada.query_range("bench", &tag, s.start..s.end, s.stride)
                        .unwrap();
                    latencies.record(t.elapsed().as_nanos() as u64);
                }
                let decoded_now = ada.cache_stats().bytes_decoded;
                epoch_decoded.push(decoded_now - decoded_before);
                decoded_before = decoded_now;
            }
            let wall_s = t0.elapsed().as_secs_f64();
            let snap = latencies.snapshot();
            Sweep {
                budget,
                stats: ada.cache_stats(),
                epoch_decoded,
                p50_ms: snap.p50 / 1e6,
                p99_ms: snap.p99 / 1e6,
                wall_s,
            }
        })
        .collect();

    let samples_per_epoch = epochs.first().map_or(0, Vec::len);
    let rows: Vec<Vec<String>> = sweeps
        .iter()
        .map(|s| {
            vec![
                if s.budget == 0 {
                    "off".to_string()
                } else {
                    format!("{} MiB", s.budget / MIB)
                },
                format!("{:.1}%", s.stats.hit_rate() * 100.0),
                s.stats.evictions.to_string(),
                format!("{:.3}", s.p50_ms),
                format!("{:.3}", s.p99_ms),
                s.epoch_decoded
                    .iter()
                    .map(|b| format!("{:.1}", *b as f64 / MIB as f64))
                    .collect::<Vec<_>>()
                    .join(" / "),
                format!("{:.1}", s.wall_s * 1e3),
            ]
        })
        .collect();
    println!(
        "{}",
        format_table(
            &format!(
                "ML-sampling sweep — {} shuffled epochs × {} samples (window {}, stride {})",
                sampling.epochs, samples_per_epoch, sampling.window, sampling.stride
            ),
            &[
                "cache budget",
                "hit rate",
                "evict",
                "p50 (ms)",
                "p99 (ms)",
                "decoded MiB/epoch",
                "wall (ms)"
            ],
            &rows
        )
    );

    // Headline: steady-state (epochs after the first) decode volume,
    // cache-off vs the hot-set-covering budget.
    let steady = |s: &Sweep| s.epoch_decoded.iter().skip(1).sum::<u64>();
    let off_bytes = steady(&sweeps[0]);
    let full_bytes = steady(sweeps.last().expect("at least one sweep"));
    let reduction = off_bytes as f64 / full_bytes.max(1) as f64;
    println!(
        "  steady-state decode: cache-off {:.1} MiB vs full-budget {:.1} MiB per {} epochs — {} less decoding (target >= 5x)\n",
        off_bytes as f64 / MIB as f64,
        full_bytes as f64 / MIB as f64,
        sampling.epochs - 1,
        if full_bytes == 0 {
            "fully amortized (0 bytes)".to_string()
        } else {
            format!("{:.0}x", reduction)
        }
    );

    let sweep_json = |s: &Sweep| {
        Value::obj(vec![
            ("budget_bytes", Value::num_u(s.budget)),
            ("hit_rate", Value::Num(s.stats.hit_rate())),
            ("hits", Value::num_u(s.stats.hits)),
            ("misses", Value::num_u(s.stats.misses)),
            ("bypasses", Value::num_u(s.stats.bypasses)),
            ("evictions", Value::num_u(s.stats.evictions)),
            ("resident_hwm_bytes", Value::num_u(s.stats.resident_hwm)),
            ("bytes_decoded", Value::num_u(s.stats.bytes_decoded)),
            (
                "bytes_served_from_cache",
                Value::num_u(s.stats.bytes_served_from_cache),
            ),
            (
                "epoch_bytes_decoded",
                Value::Arr(s.epoch_decoded.iter().map(|&b| Value::num_u(b)).collect()),
            ),
            ("p50_ms", Value::Num(s.p50_ms)),
            ("p99_ms", Value::Num(s.p99_ms)),
            ("wall_s", Value::Num(s.wall_s)),
        ])
    };
    let json = Value::obj(vec![
        (
            "workload",
            Value::obj(vec![
                ("natoms", Value::num_u(w.system.len() as u64)),
                ("nframes", Value::num_u(w.trajectory.len() as u64)),
                ("raw_bytes", Value::num_u(w.trajectory.nbytes() as u64)),
                ("frames_per_dropping", Value::num_u(64)),
                ("chunk_frames", Value::num_u(16)),
            ]),
        ),
        (
            "schedule",
            Value::obj(vec![
                ("window", Value::num_u(sampling.window as u64)),
                ("stride", Value::num_u(sampling.stride as u64)),
                ("epochs", Value::num_u(sampling.epochs as u64)),
                ("samples_per_epoch", Value::num_u(samples_per_epoch as u64)),
                (
                    "tags",
                    Value::Arr(sampling.tags.iter().map(Value::str).collect()),
                ),
                ("seed", Value::num_u(sampling.seed)),
            ]),
        ),
        (
            "sweeps",
            Value::Arr(sweeps.iter().map(sweep_json).collect()),
        ),
        (
            "steady_state_reduction",
            Value::obj(vec![
                ("cache_off_bytes", Value::num_u(off_bytes)),
                ("full_budget_bytes", Value::num_u(full_bytes)),
                ("factor", Value::Num(reduction)),
            ]),
        ),
    ]);
    std::fs::write("BENCH_sampling.json", json.to_vec()).expect("write BENCH_sampling.json");
    println!("  wrote BENCH_sampling.json\n");
}

/// `repro profile-query` — answer "is index, read, decode, or reassembly
/// the retrieval ceiling?" with measured telemetry: run the serial and
/// the parallel query over the same multi-dropping dataset, print each
/// stage's busy time and share, and write PROFILE_query.json.
fn profile_query() {
    use ada_core::IngestInput;
    use ada_json::Value;
    use ada_mdformats::write_pdb;
    use ada_mdformats::xtc::{write_xtc, DEFAULT_PRECISION};

    let w = ada_workload::gpcr_workload(2_000, 500, 7);
    let pdb_text = write_pdb(&w.system);
    let xtc_bytes = write_xtc(&w.trajectory, DEFAULT_PRECISION).unwrap();

    let run = |query_threads: usize| {
        let ada = query_bench_ada(query_threads);
        ada.ingest(
            "profiled",
            IngestInput::Real {
                pdb_text: pdb_text.clone(),
                xtc_bytes: xtc_bytes.clone(),
            },
        )
        .unwrap();
        ada.query("profiled", None)
            .unwrap()
            .profile
            .expect("tracing must be on for profile-query")
    };
    let serial = run(0);
    let parallel = run(4);

    print_stage_profile("Query", &serial);
    print_stage_profile("Query", &parallel);

    let json = Value::obj(vec![
        (
            "workload",
            Value::obj(vec![
                ("natoms", Value::num_u(w.system.len() as u64)),
                ("nframes", Value::num_u(w.trajectory.len() as u64)),
            ]),
        ),
        ("serial", serial.to_json()),
        ("parallel", parallel.to_json()),
    ]);
    std::fs::write("PROFILE_query.json", json.to_vec()).expect("write PROFILE_query.json");
    println!("  wrote PROFILE_query.json\n");
}
