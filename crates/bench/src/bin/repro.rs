//! Regenerate every table and figure of the ADA paper's evaluation, and
//! host the three operator gates (`serve`, `trace`, `lint`). Measuring is
//! not done here: `benchmark/` is the one harness (DESIGN.md §4).
//!
//! ```text
//! cargo run --release -p ada-bench --bin repro -- all
//! cargo run --release -p ada-bench --bin repro -- fig7b fig10d table2
//! cargo run --release -p ada-bench --bin repro -- serve --smoke --metrics-out metrics.json
//! cargo run --release -p ada-bench --bin repro -- trace --trace-out trace.json
//! ```

// A CLI: stdout and stderr are its interface, and a panic aborts one run.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::print_stdout,
    clippy::print_stderr
)]

use ada_bench::render_figure;
use ada_mdmodel::Tag;
use ada_platforms::figures::{fig10, fig7, fig8, fig9, table1, table2, table6};
use ada_platforms::report::{fmt_secs, format_table};
use ada_platforms::Platform;
use ada_vmdsim::{render_frame, RenderOptions};

/// The command-line flags, parsed once and handed to every item.
struct Flags {
    /// `--metrics-out <path>`: after the items ran, write the global
    /// telemetry snapshot (counters, gauges, histograms, flight-recorder
    /// trace summaries) as JSON.
    metrics_out: Option<String>,
    /// `--trace-out <path>`: after the items ran, export the flight
    /// recorder's traces as Chrome trace-event JSON (Perfetto-loadable).
    trace_out: Option<String>,
    /// `--json` (`lint`): also write LINT.json next to the terminal report.
    lint_json: bool,
    /// `--selftest` (`trace`): validate the emitted Chrome trace and the
    /// span trees, exiting non-zero on any violation. A CI gate.
    selftest: bool,
    /// `--port <N>` (`serve`): TCP port to bind; 0 picks a free one.
    port: u16,
    /// `--smoke` (`serve`): round-trip a loopback client against the live
    /// server, then shut down and exit. CI's liveness gate.
    smoke: bool,
}

/// `(name, in_all, run)`.
type Item = (&'static str, bool, fn(&Flags));

/// Every item `repro` runs: the dispatch, the expansion of `all` (the
/// `in_all` rows, in this order) and the usage text.
const ITEMS: &[Item] = &[
    ("table1", true, |_| print_table1()),
    ("table2", true, |_| print_table2()),
    ("table3", true, |_| print_table3()),
    ("table4", true, |_| print_table4()),
    ("table5", true, |_| print_table5()),
    ("table6", true, |_| print_table6()),
    ("fig1", true, |_| print_fig1()),
    ("fig7", true, |_| print_fig7(None)),
    ("fig7a", false, |_| print_fig7(Some(0))),
    ("fig7b", false, |_| print_fig7(Some(1))),
    ("fig7c", false, |_| print_fig7(Some(2))),
    ("fig8", true, |_| print_fig8()),
    ("fig9", true, |_| print_fig9(None)),
    ("fig9a", false, |_| print_fig9(Some(0))),
    ("fig9b", false, |_| print_fig9(Some(1))),
    ("fig9c", false, |_| print_fig9(Some(2))),
    ("fig10", true, |_| print_fig10(None)),
    ("fig10a", false, |_| print_fig10(Some(0))),
    ("fig10b", false, |_| print_fig10(Some(1))),
    ("fig10c", false, |_| print_fig10(Some(2))),
    ("fig10d", false, |_| print_fig10(Some(3))),
    ("ablations", true, |_| print_ablations()),
    ("playback", true, |_| print_playback()),
    ("amortization", true, |_| print_amortization()),
    ("contention", true, |_| print_contention()),
    ("serve", false, |f| serve(f.port, f.smoke)),
    ("trace", false, |f| run_trace(f.selftest)),
    ("lint", false, |f| run_lint(f.lint_json)),
];

/// Remove flag `name` from `args` and report whether it was there; with
/// `valued`, the argument after it is removed too and returned (a missing
/// one exits 2).
fn take_flag(args: &mut Vec<String>, name: &str, valued: bool) -> Option<String> {
    let i = args.iter().position(|a| a == name)?;
    args.remove(i);
    if !valued {
        return Some(String::new());
    }
    if i == args.len() {
        eprintln!("{} needs a value", name);
        std::process::exit(2);
    }
    Some(args.remove(i))
}

fn usage_and_exit(unknown: &str) -> ! {
    let names = |in_all: bool| -> String {
        let picked = ITEMS.iter().filter(|item| item.1 == in_all);
        picked.map(|item| item.0).collect::<Vec<_>>().join(" ")
    };
    eprintln!("unknown item '{}'", unknown);
    eprintln!("usage: repro [flags] [item...]   (no item = all)");
    eprintln!("  all:   {}", names(true));
    eprintln!("  other: {}", names(false));
    eprintln!(
        "  flags: --metrics-out <path> --trace-out <path> --json --selftest --port <N> --smoke"
    );
    std::process::exit(2);
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let flags = Flags {
        metrics_out: take_flag(&mut args, "--metrics-out", true),
        trace_out: take_flag(&mut args, "--trace-out", true),
        lint_json: take_flag(&mut args, "--json", false).is_some(),
        selftest: take_flag(&mut args, "--selftest", false).is_some(),
        port: take_flag(&mut args, "--port", true).map_or(0, |p| {
            p.parse().unwrap_or_else(|_| {
                eprintln!("--port needs a numeric value");
                std::process::exit(2);
            })
        }),
        smoke: take_flag(&mut args, "--smoke", false).is_some(),
    };
    let all = args.is_empty() || args.iter().any(|a| a == "all");
    let wanted: Vec<fn(&Flags)> = if all {
        let in_all = ITEMS.iter().filter(|item| item.1);
        in_all.map(|item| item.2).collect()
    } else {
        let find = |a: &String| ITEMS.iter().find(|item| item.0 == a);
        args.iter()
            .map(|a| find(a).unwrap_or_else(|| usage_and_exit(a)).2)
            .collect()
    };
    for run in wanted {
        run(&flags);
    }

    if let Some(path) = &flags.metrics_out {
        let snap = ada_telemetry::snapshot_with_traces();
        std::fs::write(path, snap.to_vec()).expect("write metrics snapshot");
        eprintln!("wrote metrics snapshot to {}", path);
    }
    if let Some(path) = &flags.trace_out {
        let json = ada_telemetry::trace::recorder().export_chrome();
        std::fs::write(path, json.to_vec()).expect("write chrome trace");
        eprintln!("wrote chrome trace to {}", path);
    }
}

/// `repro trace` — run a small mixed workload through the front-end (an
/// ingest, tag/full/range queries, one failing request, and the tag query
/// once more over loopback TCP, where it is forwarded), then export the
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
    let fe = Arc::new(Frontend::new(
        Arc::new(hybrid_ada(2)),
        FrontendConfig::default(),
    ));
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
    // The tag query again, as a compute node sends it: two trees under one
    // id, and on the server's a `server.send` where the decode would be.
    let mut server =
        ada_server::Server::start(Arc::clone(&fe), Default::default()).expect("loopback server");
    ada_client::Client::new(server.local_addr().to_string(), Default::default())
        .query("demo", Some("p"))
        .expect("remote protein query");
    server.shutdown();

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
    check(
        traces.len() == 7,
        "expected 7 traces (1 ingest, 4 queries, the remote query from both ends)",
    );
    let forwarded = traces.iter().any(|t| {
        let sent_stored = |s: &ada_telemetry::trace::TraceSpan| {
            s.name == "server.send"
                && s.arg("forwarded") == Some(&ada_telemetry::trace::ArgValue::Str("true".into()))
        };
        t.spans.iter().any(sent_stored) && t.spans.iter().all(|s| s.name != "query.decode")
    });
    check(
        forwarded,
        "remote tag query forwarded: server.send, no query.decode",
    );
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

/// The hybrid SSD/HDD instance `serve` and `trace` run over: small
/// droppings, so a retrieval has per-backend and per-dropping fan-out.
fn hybrid_ada(query_threads: usize) -> ada_core::Ada {
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
        frames_per_dropping: 64,
        ..ada_core::AdaConfig::paper_prototype("ssd", "hdd")
    };
    ada_core::Ada::new(config, containers, ssd)
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

    let ada = Arc::new(hybrid_ada(0));
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
            .ingest("smoke", &pdb_text, &xtc_bytes)
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
        // How the two answers left the server: its `server.send` spans, in
        // request order (ping, ingest, query, range, cache stats).
        let sends: Vec<String> = ada_telemetry::trace::recorder()
            .all()
            .iter()
            .flat_map(|t| t.spans.iter())
            .filter(|s| s.name == "server.send" && s.arg_u64("chunks") > Some(0))
            .map(|s| {
                let forwarded = matches!(
                    s.arg("forwarded"),
                    Some(ada_telemetry::trace::ArgValue::Str(f)) if f == "true"
                );
                format!(
                    "{} chunk frame(s), {}",
                    s.arg_u64("chunks").unwrap_or(0),
                    if forwarded {
                        "forwarded as stored"
                    } else {
                        "decoded and re-sealed"
                    }
                )
            })
            .collect();
        println!(
            "  answers on the wire — protein query: {}; strided range: {}",
            sends.first().map_or("untraced", |s| s.as_str()),
            sends.get(1).map_or("untraced", |s| s.as_str())
        );
    } else {
        println!("  serving until killed (ctrl-C to stop)");
        loop {
            std::thread::sleep(Duration::from_secs(60));
        }
    }
}
