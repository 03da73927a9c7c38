//! Result files and their comparison. A result file carries the run
//! record (seed, counts, host, toolchain, state of the product's own
//! telemetry) and, per workload, every metric with its block spread and
//! sample count. `diff` is the regression gate: it reads two such files.

use crate::metrics::{Better, END_TO_END};
use crate::stats::Summary;
use ada_json::Value;
use std::path::Path;
use std::process::Command;

/// Schema tag of a result file.
pub const SCHEMA: &str = "ada-benchmark/1";

/// A metric as stored: its value, and the spread of the per-block (or
/// per-repetition) values behind it. An exact count has `n == 1`.
#[derive(Debug, Clone, PartialEq)]
pub struct Stored {
    /// Metric name.
    pub name: String,
    /// Reported value.
    pub value: f64,
    /// Unit.
    pub unit: String,
    /// Smallest block value.
    pub min: f64,
    /// Largest block value.
    pub max: f64,
    /// Blocks (or samples) behind the value.
    pub n: usize,
}

impl Stored {
    /// A metric whose value is the median of per-block values.
    pub fn from_summary(name: &str, unit: &str, s: &Summary) -> Stored {
        Stored {
            name: name.to_string(),
            value: s.median,
            unit: unit.to_string(),
            min: s.min,
            max: s.max,
            n: s.n,
        }
    }

    /// A metric with one value and `n` samples behind it.
    pub fn single(name: &str, unit: &str, value: f64, n: usize) -> Stored {
        Stored {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
            min: value,
            max: value,
            n,
        }
    }

    /// `(max − min) / value`: how far the blocks of one run disagree, as a
    /// share of the reported value. `diff` calls a worsening it cannot tell
    /// from this spread `unresolved`.
    pub fn spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            ((self.max - self.min) / self.value).abs()
        }
    }

    fn to_json(&self) -> Value {
        Value::obj(vec![
            ("value", Value::Num(self.value)),
            ("unit", Value::str(self.unit.clone())),
            ("min", Value::Num(self.min)),
            ("max", Value::Num(self.max)),
            ("n", Value::num_u(self.n as u64)),
        ])
    }

    fn from_json(name: &str, v: &Value) -> Result<Stored, String> {
        let num = |k: &str| match v.get(k) {
            Some(Value::Num(n)) => Ok(*n),
            _ => Err(format!("metric {name}: no number '{k}'")),
        };
        Ok(Stored {
            name: name.to_string(),
            value: num("value")?,
            unit: v
                .get("unit")
                .and_then(|u| u.as_str().ok())
                .unwrap_or("")
                .to_string(),
            min: num("min")?,
            max: num("max")?,
            n: num("n")? as usize,
        })
    }
}

/// One workload's part of a result file.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    /// Workload name.
    pub name: String,
    /// Closed-loop clients.
    pub clients: usize,
    /// Ops per client per block.
    pub ops_per_block: usize,
    /// Blocks measured.
    pub blocks: usize,
    /// Ops issued.
    pub attempted: u64,
    /// Ops that errored, were shed, or failed a check (a failed pre-timing
    /// comparison counts every op).
    pub failed: u64,
    /// Whether the full pre-timing comparison passed.
    pub verified: bool,
    /// Every metric of the run.
    pub metrics: Vec<Stored>,
}

impl WorkloadResult {
    /// The stored metric called `name`.
    pub fn metric(&self, name: &str) -> Option<&Stored> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Failed over attempted.
    pub fn failed_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    fn to_json(&self) -> Value {
        Value::obj(vec![
            ("clients", Value::num_u(self.clients as u64)),
            ("ops_per_block", Value::num_u(self.ops_per_block as u64)),
            ("blocks", Value::num_u(self.blocks as u64)),
            ("attempted", Value::num_u(self.attempted)),
            ("failed", Value::num_u(self.failed)),
            ("failed_ratio", Value::Num(self.failed_ratio())),
            ("verified", Value::Bool(self.verified)),
            (
                "metrics",
                Value::Obj(
                    self.metrics
                        .iter()
                        .map(|m| (m.name.clone(), m.to_json()))
                        .collect(),
                ),
            ),
        ])
    }

    fn from_json(name: &str, v: &Value) -> Result<WorkloadResult, String> {
        let int = |k: &str| {
            v.field(k)
                .and_then(Value::as_u64)
                .map_err(|e| format!("workload {name}: {e}"))
        };
        let metrics = v
            .field("metrics")
            .and_then(Value::as_obj)
            .map_err(|e| format!("workload {name}: {e}"))?
            .iter()
            .map(|(k, m)| Stored::from_json(k, m))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(WorkloadResult {
            name: name.to_string(),
            clients: int("clients")? as usize,
            ops_per_block: int("ops_per_block")? as usize,
            blocks: int("blocks")? as usize,
            attempted: int("attempted")?,
            failed: int("failed")?,
            verified: matches!(v.get("verified"), Some(Value::Bool(true))),
            metrics,
        })
    }
}

/// What was run, where, with what.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: f64,
    /// `--smoke`.
    pub smoke: bool,
    /// `--trace`: whether the harness recorded spans.
    pub harness_tracing: bool,
    /// The CPU set-up and the op stream were pinned to, for a workload
    /// that runs on one.
    pub pinned_cpu: Option<usize>,
    /// Wall time of the whole process so far, seconds.
    pub wall_s: f64,
}

impl RunRecord {
    fn to_json(&self) -> Value {
        Value::obj(vec![
            ("seed", Value::num_u(self.seed)),
            ("seconds", Value::Num(self.seconds)),
            ("smoke", Value::Bool(self.smoke)),
            (
                "available_parallelism",
                Value::num_u(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64),
            ),
            ("git_rev", Value::str(git_rev())),
            ("rustc", Value::str(tool_line("rustc", &["--version"]))),
            // The product's own telemetry is left at its process default;
            // this records what that default was while the ops ran.
            (
                "ada_telemetry_enabled",
                Value::Bool(ada_telemetry::enabled()),
            ),
            ("harness_tracing", Value::Bool(self.harness_tracing)),
            (
                "pinned_cpu",
                self.pinned_cpu
                    .map_or(Value::Null, |cpu| Value::num_u(cpu as u64)),
            ),
            ("wall_s", Value::Num(self.wall_s)),
        ])
    }
}

fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        // Stay inside the checkout: never let git look for a repository in
        // the directories above it.
        .env(
            "GIT_CEILING_DIRECTORIES",
            std::env::current_dir().unwrap_or_default(),
        )
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Only asks git when the working directory itself is a checkout, so a run
/// from an exported tree never searches the directories above it.
fn git_rev() -> String {
    if Path::new(".git").exists() {
        tool_line("git", &["rev-parse", "HEAD"])
    } else {
        "unknown".to_string()
    }
}

/// A whole result file.
#[derive(Debug, Clone)]
pub struct ResultFile {
    /// The record as JSON (kept opaque when read back).
    pub record: Value,
    /// Results by workload, in run order.
    pub workloads: Vec<WorkloadResult>,
}

impl ResultFile {
    /// A result file for `workloads` run under `record`.
    pub fn new(record: &RunRecord, workloads: Vec<WorkloadResult>) -> ResultFile {
        ResultFile {
            record: record.to_json(),
            workloads,
        }
    }

    /// Write to `path`, creating its directory.
    pub fn write(&self, path: &Path) -> Result<(), String> {
        let doc = Value::obj(vec![
            ("schema", Value::str(SCHEMA)),
            ("record", self.record.clone()),
            (
                "workloads",
                Value::Obj(
                    self.workloads
                        .iter()
                        .map(|w| (w.name.clone(), w.to_json()))
                        .collect(),
                ),
            ),
        ]);
        write_json(path, &doc)
    }

    /// Read a result file back.
    pub fn read(path: &Path) -> Result<ResultFile, String> {
        let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = ada_json::parse(&bytes).map_err(|e| format!("{}: {e}", path.display()))?;
        if doc.get("schema").and_then(|s| s.as_str().ok()) != Some(SCHEMA) {
            return Err(format!("{}: not an {SCHEMA} file", path.display()));
        }
        let workloads = doc
            .field("workloads")
            .and_then(Value::as_obj)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .iter()
            .map(|(name, w)| WorkloadResult::from_json(name, w))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ResultFile {
            record: doc.get("record").cloned().unwrap_or(Value::Null),
            workloads,
        })
    }
}

/// Write `doc` to `path`, creating the directory it sits in.
pub fn write_json(path: &Path, doc: &Value) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, doc.to_vec()).map_err(|e| format!("{}: {e}", path.display()))
}

/// Verdict on one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Not worse than the bound allows.
    Ok,
    /// Worse by more than the bound, and the blocks of both runs agree
    /// with each other more closely than that.
    Regressed,
    /// Worse by more than the bound, but a run's own blocks disagree by
    /// more than the bound too: the runs cannot tell.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `new` is than `old`, as a share of `old` (negative =
/// better).
pub fn worsening(better: Better, old: f64, new: f64) -> f64 {
    match better {
        Better::Lower => new / old - 1.0,
        Better::Higher => 1.0 - new / old,
    }
}

/// Judge one metric.
pub fn judge(better: Better, bound: f64, old: &Stored, new: &Stored) -> Verdict {
    if worsening(better, old.value, new.value) <= bound {
        Verdict::Ok
    } else if old.spread().max(new.spread()) > bound {
        Verdict::Unresolved
    } else {
        Verdict::Regressed
    }
}

/// Compare two result files: one row per workload × end-to-end metric with
/// old, new, their ratio with its base, and the verdict. Returns the
/// table and whether anything regressed.
pub fn diff(old: &ResultFile, new: &ResultFile) -> Result<(String, bool), String> {
    let mut out = format!(
        "{:<16} {:<10} {:>12} {:>12} {:>22}  {}\n",
        "workload", "metric", "old", "new", "new/old (base: old)", "verdict"
    );
    let mut regressed = false;
    for o in &old.workloads {
        let n = new
            .workloads
            .iter()
            .find(|w| w.name == o.name)
            .ok_or_else(|| format!("workload {} is missing from the new file", o.name))?;
        for m in &END_TO_END {
            let missing =
                |side: &str| format!("{}: no metric {} in the {side} file", o.name, m.name);
            let a = o.metric(m.name).ok_or_else(|| missing("old"))?;
            let b = n.metric(m.name).ok_or_else(|| missing("new"))?;
            let verdict = judge(m.better, m.bound, a, b);
            regressed |= verdict == Verdict::Regressed;
            out.push_str(&format!(
                "{:<16} {:<10} {:>12.4} {:>12.4} {:>22.4}  {} (bound {}, block spread {:.3} / {:.3})\n",
                o.name,
                m.name,
                a.value,
                b.value,
                b.value / a.value,
                verdict.as_str(),
                m.bound,
                a.spread(),
                b.spread(),
            ));
        }
        // Bound 0, absolute: any more failures than before is a regression.
        let worse = n.failed_ratio() > o.failed_ratio() || (o.verified && !n.verified);
        regressed |= worse;
        out.push_str(&format!(
            "{:<16} {:<10} {:>12.6} {:>12.6} {:>22}  {}\n",
            o.name,
            "failed_ratio",
            o.failed_ratio(),
            n.failed_ratio(),
            "-",
            if worse { "regressed" } else { "ok" },
        ));
    }
    Ok((out, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stored(value: f64, min: f64, max: f64) -> Stored {
        Stored {
            name: "m".to_string(),
            value,
            unit: "ms".to_string(),
            min,
            max,
            n: 5,
        }
    }

    fn result(ops_per_s: f64, p50: f64, failed: u64) -> ResultFile {
        let metrics = vec![
            Stored::single("setup_s", "s", 1.0, 3),
            Stored {
                name: "ops_per_s".into(),
                ..stored(ops_per_s, ops_per_s * 0.99, ops_per_s * 1.01)
            },
            Stored {
                name: "op_p50_ms".into(),
                ..stored(p50, p50 * 0.99, p50 * 1.01)
            },
        ];
        ResultFile {
            record: Value::Null,
            workloads: vec![WorkloadResult {
                name: "local_full_load".to_string(),
                clients: 1,
                ops_per_block: 24,
                blocks: 5,
                attempted: 120,
                failed,
                verified: true,
                metrics,
            }],
        }
    }

    #[test]
    fn spread_is_block_range_over_value() {
        assert!((stored(10.0, 9.0, 12.0).spread() - 0.3).abs() < 1e-12);
        assert_eq!(Stored::single("c", "count", 7.0, 1).spread(), 0.0);
        assert_eq!(Stored::single("z", "count", 0.0, 1).spread(), 0.0);
    }

    #[test]
    fn worsening_follows_the_direction() {
        assert!((worsening(Better::Lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worsening(Better::Higher, 10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(worsening(Better::Higher, 10.0, 12.0) < 0.0);
    }

    #[test]
    fn verdicts() {
        let tight = stored(10.0, 9.9, 10.1);
        assert_eq!(
            judge(Better::Lower, 0.1, &tight, &stored(10.9, 10.8, 11.0)),
            Verdict::Ok
        );
        assert_eq!(
            judge(Better::Lower, 0.1, &tight, &stored(12.0, 11.9, 12.1)),
            Verdict::Regressed
        );
        // The new run's own blocks span 25 %: it cannot resolve a 10 % bound.
        assert_eq!(
            judge(Better::Lower, 0.1, &tight, &stored(12.0, 10.0, 13.0)),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(Better::Higher, 0.1, &tight, &stored(20.0, 1.0, 30.0)),
            Verdict::Ok
        );
    }

    #[test]
    fn diff_flags_only_what_regressed() {
        let base = result(100.0, 10.0, 0);
        let (table, bad) = diff(&base, &result(97.0, 10.2, 0)).unwrap();
        assert!(!bad, "{table}");
        let (table, bad) = diff(&base, &result(70.0, 10.0, 0)).unwrap();
        assert!(bad);
        assert!(
            table.contains("ops_per_s") && table.contains("regressed"),
            "{table}"
        );
        let (_, bad) = diff(&base, &result(100.0, 10.0, 1)).unwrap();
        assert!(bad, "a new failure is a regression at bound 0");
        let mut other = result(100.0, 10.0, 0);
        other.workloads[0].name = "ingest_stream".to_string();
        assert!(diff(&base, &other).is_err());
    }

    #[test]
    fn result_files_round_trip() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-{}", std::process::id()));
        let path = dir.join("r.json");
        let mut file = result(123.456789, 7.25, 2);
        file.record = RunRecord {
            seed: 7,
            seconds: 1.5,
            smoke: true,
            harness_tracing: false,
            pinned_cpu: None,
            wall_s: 0.25,
        }
        .to_json();
        file.write(&path).unwrap();
        let back = ResultFile::read(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(back.workloads, file.workloads);
        assert_eq!(back.record.field("seed").unwrap().as_u64().unwrap(), 7);
        assert!(back.record.get("rustc").is_some());
    }
}
