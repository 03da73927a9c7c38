//! `e2e` — the repo's benchmark. One process runs one workload:
//!
//! ```text
//! e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` is the end-to-end run (harness spans off): it prints every
//! end-to-end metric. `--trace 1` is the ladder run: the same op stream
//! with the harness's spans around every layer's public entry point, then
//! every rung on `ds0`; it prints every per-layer metric and writes a
//! Chrome trace. Either way the last line of stdout is one JSON object.
//! `e2e all`, `e2e repeat` and `e2e diff` wrap this; see the README.

mod cpu;
mod fixture;
mod ladder;
mod metrics;
mod report;
mod run;
mod stats;
mod trace;
mod workloads;

use ada_json::Value;
use metrics::{END_TO_END, PER_LAYER};
use report::{ResultFile, RunRecord, Stored, WorkloadResult};
use run::{Budget, Prepared, StreamStats};
use stats::Summary;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;
use trace::Tracer;
use workloads::{Spec, SPECS};

const USAGE: &str = "\
usage:
  e2e --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR]
  e2e all    [--seed N] [--seconds S] [--smoke] [--out DIR] [--label L]
  e2e repeat [--seed N] [--seconds S] [--smoke] [--out DIR]
  e2e diff <old.json> <new.json>
  e2e list
workloads: remote_tag_load local_full_load sampling_epochs ingest_stream";

/// `--smoke` divides every op count by this.
const SMOKE_SHRINK: usize = 20;

#[derive(Debug, Clone)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: PathBuf,
    label: String,
    positional: Vec<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 7,
        seconds: 10.0,
        trace: false,
        smoke: false,
        out: PathBuf::from("benchmark/out"),
        label: "run".to_string(),
        positional: Vec::new(),
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--workload" => a.workload = Some(value("a workload name")?),
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds >= 0.0 && a.seconds.is_finite()) {
                    return Err("--seconds must be a finite number ≥ 0".to_string());
                }
            }
            "--trace" => {
                a.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => a.smoke = true,
            "--out" => a.out = PathBuf::from(value("a directory")?),
            "--label" => a.label = value("a label")?,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => a.positional.push(arg.clone()),
        }
    }
    if a.smoke {
        a.seconds = 0.0;
    }
    Ok(a)
}

impl Args {
    fn budget(&self) -> Budget {
        Budget {
            seconds: self.seconds,
            shrink: if self.smoke { SMOKE_SHRINK } else { 1 },
        }
    }

    fn record(&self, started: Instant, pinned_cpu: Option<usize>) -> RunRecord {
        RunRecord {
            seed: self.seed,
            seconds: self.seconds,
            smoke: self.smoke,
            harness_tracing: self.trace,
            pinned_cpu,
            wall_s: started.elapsed().as_secs_f64(),
        }
    }

    fn result_path(&self, workload: &str) -> PathBuf {
        self.out.join(format!(
            "{workload}.seed{}.trace{}.json",
            self.seed,
            u8::from(self.trace)
        ))
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome =
        parse_args(&argv).and_then(|args| match args.positional.first().map(String::as_str) {
            None => match &args.workload {
                Some(name) => {
                    let spec = workloads::spec_named(name)
                        .ok_or_else(|| format!("unknown workload {name}\n{USAGE}"))?;
                    run_one(spec, &args)
                }
                None => Err(USAGE.to_string()),
            },
            Some("list") => {
                list();
                Ok(true)
            }
            Some("all") => run_all(&args).map(|(_, ok)| ok),
            Some("repeat") => repeat(&args),
            Some("diff") => match &args.positional[1..] {
                [old, new] => diff_files(Path::new(old), Path::new(new)),
                _ => Err(USAGE.to_string()),
            },
            Some(other) => Err(format!("unknown command {other}\n{USAGE}")),
        });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("e2e: {e}");
            ExitCode::from(2)
        }
    }
}

/// `e2e list`: every workload and metric by name, with what it is for.
fn list() {
    println!("workloads (closed loop):");
    for s in &SPECS {
        println!(
            "  {:<18} {} client, {} ops/block{}: {}",
            s.name,
            s.clients,
            s.ops_per_block,
            if s.one_cpu { ", on one CPU" } else { "" },
            s.why
        );
    }
    println!("end-to-end metrics (--trace 0), gated:");
    for m in &END_TO_END {
        println!(
            "  {:<36} {:<6} {} is better, bound {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        );
    }
    println!("per-layer metrics (--trace 1):");
    for m in &PER_LAYER {
        println!(
            "  {:<36} {:<6} {} is better -> {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.moves
        );
    }
}

/// Run one workload in this process. `Ok(false)` = it ran but an output
/// was wrong or an op failed.
fn run_one(spec: &'static Spec, args: &Args) -> Result<bool, String> {
    let started = Instant::now();
    let budget = args.budget();
    // Before set-up, so the stack's worker threads inherit the pin. A run
    // that cannot pin stops: its numbers would not compare with pinned ones.
    let pinned = spec.one_cpu.then(cpu::pin_to_one).transpose()?;
    let mut prepared = run::prepare(spec, args.seed, budget.setup_repeats())?;
    if let Err(e) = &prepared.verified {
        eprintln!("verification failed: {e}");
    }
    let (metrics, stream) = if args.trace {
        traced_run(&mut prepared, args, budget, pinned.map(|(all, _)| all))?
    } else {
        let quiet = Tracer::new(false);
        let blocks = prepared.blocks(budget, &quiet);
        let stream = run::summarise(&blocks, spec.clients);
        (end_to_end_metrics(&prepared, &stream), stream)
    };
    let verified = prepared.verified.is_ok();
    // A failed full comparison taints every op of the run.
    let failed = if verified {
        stream.failed
    } else {
        stream.attempted
    };
    let result = WorkloadResult {
        name: spec.name.to_string(),
        clients: spec.clients,
        ops_per_block: budget.scaled(spec.ops_per_block),
        blocks: stream.ops_per_s.n,
        attempted: stream.attempted,
        failed,
        verified,
        metrics,
    };
    let pinned_cpu = pinned.map(|(_, cpu)| cpu);
    print_result(&result, &stream, pinned_cpu);
    ResultFile::new(&args.record(started, pinned_cpu), vec![result.clone()])
        .write(&args.result_path(spec.name))?;

    let wanted: Vec<&str> = if args.trace {
        PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    };
    let mut line = Vec::new();
    for name in wanted {
        let m = result
            .metric(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !m.value.is_finite() {
            return Err(format!("metric {name} is not a number"));
        }
        line.push((
            name,
            Value::obj(vec![
                ("value", Value::Num(m.value)),
                ("unit", Value::str(m.unit.clone())),
            ]),
        ));
    }
    let correct = failed == 0;
    println!(
        "{}",
        Value::obj(vec![
            ("correct", Value::Bool(correct)),
            ("attempted", Value::num_u(result.attempted)),
            ("failed", Value::num_u(failed)),
            ("metrics", Value::obj(line)),
        ])
        .to_json()
    );
    Ok(correct)
}

/// What an end-to-end run stores: the three gated metrics first, then the
/// ungated tail, overhead and memory readings.
fn end_to_end_metrics(prepared: &Prepared, stream: &StreamStats) -> Vec<Stored> {
    vec![
        Stored::from_summary("setup_s", "s", &Summary::of(&prepared.setup_s)),
        Stored::from_summary("ops_per_s", "1/s", &stream.ops_per_s),
        // The value is the exact median of the pooled latencies; min and
        // max are the smallest and largest per-block median.
        Stored {
            value: stream.op_p50_ms,
            ..Stored::from_summary("op_p50_ms", "ms", &stream.block_p50_ms)
        },
        Stored::single("op_p95_ms", "ms", stream.op_p95_ms, stream.samples),
        Stored::single(
            "harness.overhead_ratio",
            "ratio",
            stream.overhead_ratio,
            stream.ops_per_s.n,
        ),
        Stored::single("process.peak_rss_mib", "MiB", peak_rss_mib(), 1),
    ]
}

/// The ladder run: the workload's op stream in alternating untraced and
/// traced blocks (their difference is the tracing overhead), then every
/// rung on `ds0`. Returns the per-layer metrics and the untraced stream.
/// `unpinned` is the CPU set to put back before the ladder when the stream
/// ran pinned: the rungs build their own stacks and are measured alike
/// under every workload.
fn traced_run(
    prepared: &mut Prepared,
    args: &Args,
    budget: Budget,
    unpinned: Option<cpu::CpuSet>,
) -> Result<(Vec<Stored>, StreamStats), String> {
    let spec = prepared.bench.spec;
    let tracer = Tracer::new(true);
    let quiet = Tracer::new(false);
    let ops = budget.scaled(spec.ops_per_block);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut measured = 0.0;
    // Half the budget for the stream, the ladder's fixed call counts after.
    while plain.len() < 3 || measured < budget.seconds / 2.0 {
        for (blocks, t) in [(&mut plain, &quiet), (&mut traced, &tracer)] {
            let b = prepared.block(ops, t);
            measured += b.wall_ns as f64 / 1e9;
            blocks.push(b);
        }
    }
    let plain = run::summarise(&plain, spec.clients);
    let traced = run::summarise(&traced, spec.clients);
    let fe = prepared.bench.stack.frontend.stats();
    let rss = peak_rss_mib();
    let fixture_share = stats::median(&prepared.fixture_share);
    if let Some(all) = unpinned {
        all.apply()?;
    }

    let mut metrics: Vec<Stored> = ladder::run(
        &prepared.bench.datasets[0],
        &prepared.refs[0],
        &tracer,
        budget,
    )?
    .into_iter()
    .map(|(name, value, unit, n)| Stored::single(name, unit, value, n))
    .collect();
    let stream_metrics = [
        (
            "frontend.queue_hwm",
            fe.ingest.queue_hwm.max(fe.query.queue_hwm) as f64,
            "count",
        ),
        (
            "frontend.rejected",
            (fe.ingest.counters.rejected + fe.query.counters.rejected) as f64,
            "count",
        ),
        (
            "frontend.expired",
            (fe.ingest.counters.expired + fe.query.counters.expired) as f64,
            "count",
        ),
        ("workload.ops_per_s", plain.ops_per_s.median, "1/s"),
        ("workload.op_p95_ms", plain.op_p95_ms, "ms"),
        (
            "workload.errors",
            (plain.failed + traced.failed) as f64,
            "count",
        ),
        ("process.peak_rss_mib", rss, "MiB"),
        ("harness.setup_fixture_share", fixture_share, "ratio"),
        ("harness.overhead_ratio", plain.overhead_ratio, "ratio"),
        (
            "harness.trace_overhead_ratio",
            traced.ops_per_s.median / plain.ops_per_s.median - 1.0,
            "ratio",
        ),
    ];
    metrics.extend(
        stream_metrics
            .into_iter()
            .map(|(name, value, unit)| Stored::single(name, unit, value, plain.ops_per_s.n)),
    );

    let spans = tracer.spans();
    let trace_path = args
        .out
        .join(format!("{}.seed{}.chrome-trace.json", spec.name, args.seed));
    report::write_json(&trace_path, &trace::chrome_trace(&spans))?;
    println!(
        "# wrote {} ({} spans recorded)",
        trace_path.display(),
        spans.len()
    );
    println!("# self time by span name (duration minus direct children), ms:");
    for (name, ns) in trace::self_times(&spans) {
        println!("#   {name:<28} {:>12.3}", ns as f64 / 1e6);
    }
    let mut stream = plain;
    stream.attempted += traced.attempted;
    stream.failed += traced.failed;
    Ok((metrics, stream))
}

/// Every metric by name with its unit, block spread and sample count.
fn print_result(r: &WorkloadResult, stream: &StreamStats, pinned_cpu: Option<usize>) {
    println!(
        "# {}: {} client(s) x {} ops/block x {} blocks, {} latency samples, {} attempted, {} failed, verified {}",
        r.name, r.clients, r.ops_per_block, r.blocks, stream.samples, r.attempted, r.failed, r.verified
    );
    if let Some(cpu) = pinned_cpu {
        println!("# set-up and op stream pinned to CPU {cpu}");
    }
    println!(
        "# {:<36} {:>16} {:<6} {:>14} {:>14} {:>6}",
        "metric", "value", "unit", "min", "max", "n"
    );
    for m in &r.metrics {
        println!(
            "# {:<36} {:>16.6} {:<6} {:>14.6} {:>14.6} {:>6}",
            m.name, m.value, m.unit, m.min, m.max, m.n
        );
    }
}

/// Peak resident set of this process (VmHWM), MiB; 0 where `/proc` has none.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `e2e all`: re-execute this binary once per workload, so set-up time and
/// peak memory are per workload, and merge the result files into one.
fn run_all(args: &Args) -> Result<(PathBuf, bool), String> {
    let started = Instant::now();
    let args = &Args {
        trace: false,
        ..args.clone()
    };
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut results = Vec::new();
    let mut ok = true;
    for spec in &SPECS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", spec.name, "--trace", "0"])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .arg("--out")
            .arg(&args.out);
        if args.smoke {
            cmd.arg("--smoke");
        }
        let status = cmd
            .status()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        match status.code() {
            Some(0) => {}
            Some(1) => ok = false,
            _ => return Err(format!("{} did not finish ({status})", spec.name)),
        }
        results.extend(ResultFile::read(&args.result_path(spec.name))?.workloads);
    }
    let record = args.record(started, None);
    let path = args.out.join(format!("e2e-{}.json", args.label));
    ResultFile::new(&record, results).write(&path)?;
    println!("# wrote {} ({:.1} s)", path.display(), record.wall_s);
    Ok((path, ok))
}

/// `e2e repeat`: the full set twice, then the same diff a later change
/// faces. Passing means two runs of one build agree within the bounds.
fn repeat(args: &Args) -> Result<bool, String> {
    let label = |l: &str| Args {
        label: l.to_string(),
        ..args.clone()
    };
    let (first, ok_a) = run_all(&label("repeat-a"))?;
    let (second, ok_b) = run_all(&label("repeat-b"))?;
    Ok(diff_files(&first, &second)? && ok_a && ok_b)
}

/// `e2e diff`: `Ok(false)` when something regressed.
fn diff_files(old: &Path, new: &Path) -> Result<bool, String> {
    let (table, regressed) = report::diff(&ResultFile::read(old)?, &ResultFile::read(new)?)?;
    print!("{table}");
    Ok(!regressed)
}
