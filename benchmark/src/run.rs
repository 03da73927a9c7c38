//! Running a workload: repeated set-up, verification, then barriered
//! blocks of a fixed number of ops per client until the time budget is
//! spent. Every timing is a median over blocks with its spread beside it.

use crate::fixture::{reference, Reference};
use crate::stats::{median, ns_to_ms, quantile_sorted, sorted, Summary};
use crate::trace::Tracer;
use crate::workloads::{Bench, Spec};
use std::sync::Barrier;
use std::time::Instant;

/// Blocks every run measures at least, however short `--seconds` is.
pub const MIN_BLOCKS: usize = 5;
/// Times the whole set-up is repeated; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 5;

/// How much work a run does.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Keep starting blocks until this much time was measured.
    pub seconds: f64,
    /// `--smoke`: divide every op count by this (1 = the real run).
    pub shrink: usize,
}

impl Budget {
    /// `n` ops (or calls) under this budget, at least one.
    pub fn scaled(&self, n: usize) -> usize {
        (n / self.shrink).max(1)
    }

    /// Set-ups a run does: [`SETUP_REPEATS`], or one under `--smoke`.
    pub fn setup_repeats(&self) -> usize {
        if self.shrink > 1 {
            1
        } else {
            SETUP_REPEATS
        }
    }
}

/// One barriered block.
#[derive(Debug, Clone, Default)]
pub struct Block {
    /// First client start to last client end.
    pub wall_ns: u64,
    /// Latency of every op that succeeded, all clients pooled.
    pub latencies_ns: Vec<u64>,
    /// Ops that returned an error or failed the shape check.
    pub failed: u64,
    /// Ops issued.
    pub attempted: u64,
}

impl Block {
    /// Ops completed per second of block wall time.
    pub fn ops_per_s(&self) -> f64 {
        self.latencies_ns.len() as f64 / (self.wall_ns as f64 / 1e9)
    }

    /// Share of the clients' time spent outside op spans: the harness's
    /// own cost (request building, shape checks, clean-up, barrier skew).
    pub fn overhead_ratio(&self, clients: usize) -> f64 {
        let busy: u64 = self.latencies_ns.iter().sum();
        1.0 - busy as f64 / (clients as f64 * self.wall_ns as f64)
    }
}

/// A workload after set-up and verification.
#[derive(Debug)]
pub struct Prepared {
    /// The live workload.
    pub bench: Bench,
    /// One reference per dataset.
    pub refs: Vec<Reference>,
    /// Wall time of each set-up, seconds.
    pub setup_s: Vec<f64>,
    /// Share of each set-up spent generating and XTC-encoding the inputs.
    pub fixture_share: Vec<f64>,
    /// Whether the full pre-timing comparison passed.
    pub verified: Result<(), String>,
    next_seq: u64,
}

/// Set the workload up `repeats` times (each from nothing: fixture, stack,
/// seeding, warm-up), keep the last, then run the full comparison.
pub fn prepare(spec: &'static Spec, seed: u64, repeats: usize) -> Result<Prepared, String> {
    let mut setup_s = Vec::with_capacity(repeats);
    let mut fixture_share = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats.max(1) {
        // Stop the previous stack (and its server) before timing the next.
        drop(last.take());
        let t0 = Instant::now();
        let bench = Bench::setup(spec, seed)?;
        let elapsed = t0.elapsed().as_secs_f64();
        setup_s.push(elapsed);
        fixture_share.push(bench.fixture_s / elapsed);
        last = Some(bench);
    }
    let bench = last.expect("the loop above ran at least once");
    let refs = bench
        .datasets
        .iter()
        .map(reference)
        .collect::<Result<Vec<_>, _>>()?;
    let verified = bench.verify(&refs);
    let next_seq = bench.spec.warmup_ops as u64;
    Ok(Prepared {
        bench,
        refs,
        setup_s,
        fixture_share,
        verified,
        next_seq,
    })
}

impl Prepared {
    /// Run one block: every client issues `ops` ops back to back, all
    /// clients released together.
    pub fn block(&mut self, ops: usize, tracer: &Tracer) -> Block {
        let clients = self.bench.spec.clients;
        let first_seq = self.next_seq;
        self.next_seq += ops as u64;
        let (bench, refs) = (&self.bench, &self.refs[..]);
        let barrier = Barrier::new(clients);
        let lane_run = |lane: usize| {
            let mut latencies = Vec::with_capacity(ops);
            let mut failed = 0u64;
            barrier.wait();
            let start = Instant::now();
            for seq in first_seq..first_seq + ops as u64 {
                match bench.op(lane, seq, tracer, Some(refs)) {
                    Ok(ns) => latencies.push(ns),
                    Err(e) => {
                        if failed == 0 {
                            eprintln!("op failed (lane {lane}, seq {seq}): {e}");
                        }
                        failed += 1;
                    }
                }
            }
            (start, Instant::now(), latencies, failed)
        };
        let lanes: Vec<_> = if clients == 1 {
            vec![lane_run(0)]
        } else {
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..clients)
                    .map(|lane| s.spawn(move || lane_run(lane)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("a client thread panicked"))
                    .collect()
            })
        };
        let start = lanes
            .iter()
            .map(|l| l.0)
            .min()
            .expect("at least one client");
        let end = lanes
            .iter()
            .map(|l| l.1)
            .max()
            .expect("at least one client");
        let mut block = Block {
            wall_ns: (end - start).as_nanos() as u64,
            attempted: (clients * ops) as u64,
            ..Block::default()
        };
        for (_, _, latencies, failed) in lanes {
            block.latencies_ns.extend(latencies);
            block.failed += failed;
        }
        block
    }

    /// Blocks until `budget.seconds` of block time were measured, at least
    /// [`MIN_BLOCKS`].
    pub fn blocks(&mut self, budget: Budget, tracer: &Tracer) -> Vec<Block> {
        let ops = budget.scaled(self.bench.spec.ops_per_block);
        let mut blocks = Vec::new();
        let mut measured = 0.0;
        while blocks.len() < MIN_BLOCKS || measured < budget.seconds {
            let b = self.block(ops, tracer);
            measured += b.wall_ns as f64 / 1e9;
            blocks.push(b);
        }
        blocks
    }
}

/// What a stream of blocks says about the workload.
#[derive(Debug)]
pub struct StreamStats {
    /// Per-block ops completed per second.
    pub ops_per_s: Summary,
    /// Exact median of all latencies pooled, ms.
    pub op_p50_ms: f64,
    /// Per-block median latency, ms (the spread `e2e diff` looks at).
    pub block_p50_ms: Summary,
    /// Exact p95 of all latencies pooled, ms.
    pub op_p95_ms: f64,
    /// Latency samples pooled.
    pub samples: usize,
    /// Ops issued.
    pub attempted: u64,
    /// Ops that failed.
    pub failed: u64,
    /// Median over blocks of [`Block::overhead_ratio`].
    pub overhead_ratio: f64,
}

/// Pool and summarise blocks of a workload with `clients` clients.
pub fn summarise(blocks: &[Block], clients: usize) -> StreamStats {
    let pooled: Vec<u64> = blocks
        .iter()
        .flat_map(|b| b.latencies_ns.iter().copied())
        .collect();
    let pooled_ms = sorted(&ns_to_ms(&pooled));
    let per_block = |f: &dyn Fn(&Block) -> f64| blocks.iter().map(f).collect::<Vec<f64>>();
    StreamStats {
        ops_per_s: Summary::of(&per_block(&Block::ops_per_s)),
        op_p50_ms: quantile_sorted(&pooled_ms, 0.5),
        block_p50_ms: Summary::of(&per_block(&|b| median(&ns_to_ms(&b.latencies_ns)))),
        op_p95_ms: quantile_sorted(&pooled_ms, 0.95),
        samples: pooled_ms.len(),
        attempted: blocks.iter().map(|b| b.attempted).sum(),
        failed: blocks.iter().map(|b| b.failed).sum(),
        overhead_ratio: median(&per_block(&|b| b.overhead_ratio(clients))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(wall_ms: u64, lat_ms: &[u64], failed: u64) -> Block {
        Block {
            wall_ns: wall_ms * 1_000_000,
            latencies_ns: lat_ms.iter().map(|m| m * 1_000_000).collect(),
            failed,
            attempted: lat_ms.len() as u64 + failed,
        }
    }

    #[test]
    fn block_rate_counts_only_completed_ops() {
        let b = block(1000, &[100, 100, 100, 100], 1);
        assert_eq!(b.ops_per_s(), 4.0);
        assert!((b.overhead_ratio(1) - 0.6).abs() < 1e-12);
        assert!((block(100, &[90, 80], 0).overhead_ratio(2) - 0.15).abs() < 1e-12);
    }

    #[test]
    fn summary_takes_block_medians_and_pooled_percentiles() {
        let blocks = [
            block(1000, &[10, 10, 10, 10], 0),
            block(2000, &[20, 20, 20, 20], 0),
            block(1000, &[10, 10, 30, 10], 1),
        ];
        let s = summarise(&blocks, 1);
        assert_eq!(s.ops_per_s.median, 4.0);
        assert_eq!((s.ops_per_s.min, s.ops_per_s.max), (2.0, 4.0));
        assert_eq!(s.op_p50_ms, 10.0);
        assert_eq!(s.block_p50_ms.median, 10.0);
        assert_eq!(s.block_p50_ms.max, 20.0);
        assert_eq!((s.samples, s.attempted, s.failed), (12, 13, 1));
    }

    #[test]
    fn smoke_budget_never_scales_to_zero_ops() {
        let b = Budget {
            seconds: 0.0,
            shrink: 20,
        };
        assert_eq!(b.scaled(6), 1);
        assert_eq!(b.scaled(8192), 409);
        assert_eq!(b.setup_repeats(), 1);
        let real = Budget {
            seconds: 15.0,
            shrink: 1,
        };
        assert_eq!((real.scaled(6), real.setup_repeats()), (6, SETUP_REPEATS));
    }
}
