#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
// The CLI's crate: a panic here aborts one `repro` run, not a caller's pipeline.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

//! # ada-bench — figure regeneration and operator gates
//!
//! Two surfaces:
//!
//! * the **`repro` binary** (`cargo run -p ada-bench --bin repro -- all`)
//!   regenerates every table and figure of the paper's evaluation,
//!   printing model values next to the published ones, and hosts the
//!   `serve` and `trace` gates; `tests/repro_cli.rs` pins its
//!   item table and its `all` output (`repro_output.txt`);
//! * the **`telemetry_overhead` bench** asserts the < 2 % price of
//!   telemetry and of tracing.
//!
//! Nothing here measures the product: that is `benchmark/` (its four
//! workloads and layer ladder; DESIGN.md §4 has the map). The library part
//! hosts the figure renderer `repro` prints with.

use ada_platforms::figures::FigureSeries;
use ada_platforms::report::format_table;

/// Render a [`FigureSeries`] as an ASCII table: one row per frame count,
/// one column per scenario; killed runs are marked `KILLED`.
pub fn render_figure(fig: &FigureSeries) -> String {
    let mut headers: Vec<&str> = vec!["frames"];
    for (label, _) in &fig.series {
        headers.push(label.as_str());
    }
    let frames: Vec<u64> = fig.series[0].1.iter().map(|p| p.frames).collect();
    let rows: Vec<Vec<String>> = frames
        .iter()
        .map(|&f| {
            let mut row = vec![f.to_string()];
            for (_, pts) in &fig.series {
                let p = pts.iter().find(|p| p.frames == f).expect("aligned series");
                if p.killed {
                    row.push(format!("{:.1} (KILLED)", p.value));
                } else {
                    row.push(format!("{:.2}", p.value));
                }
            }
            row
        })
        .collect();
    format_table(
        &format!("{} — {} [{}]", fig.id, fig.title, fig.unit),
        &headers,
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ada_platforms::figures::fig7;

    #[test]
    fn figure_renders_all_scenarios() {
        let [a, _, _] = fig7();
        let text = render_figure(&a);
        assert!(text.contains("C-ext4"));
        assert!(text.contains("D-ADA (protein)"));
        assert!(text.contains("626"));
        assert!(text.contains("5006"));
    }
}
