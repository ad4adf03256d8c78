//! End-to-end metrics over a run's passes, and the result line.

use std::fmt::Write as _;

use crate::{context, Kind, Pass, Piece};

/// A reported metric: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// Nearest-rank percentile `q` in `(0, 1]` of a sorted slice.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The end-to-end metrics of an untraced run, over its passes.
///
/// The box's load drifts between fast and slow episodes lasting many
/// passes. Every pass times the same pieces (each cell's set-up, each
/// unit, each teardown), so each piece is taken at its fastest over the
/// run's passes: interference only ever adds time. `wall_s` sums every
/// piece, `setup_s` the construction calls, `mops_per_s` divides one
/// pass's operations by its run calls, and `unit_ms_p50` and
/// `unit_ms_p99` are the median and 99th-percentile units. Every time is
/// then scaled to the machine's quiet speed.
#[derive(Default)]
pub struct Summary {
    walls: Vec<f64>,
    /// Every pass's pieces.
    passes: Vec<Vec<Piece>>,
}

impl Summary {
    pub fn add(&mut self, pass: &Pass) {
        self.walls.push(pass.wall);
        self.passes.push(pass.pieces.clone());
    }

    pub fn passes(&self) -> usize {
        self.walls.len()
    }

    /// Host seconds of every pass.
    pub fn total_wall(&self) -> f64 {
        self.walls.iter().sum()
    }

    /// Each piece at its fastest over the run's passes. A pass cut short by
    /// a panic is shorter; the run is then incorrect, and the pieces every
    /// pass has still line up.
    fn fastest_pieces(&self) -> Vec<Piece> {
        let n = self.passes.iter().map(Vec::len).min().unwrap_or(0);
        (0..n)
            .map(|i| {
                let fastest = |f: fn(&Piece) -> f64| {
                    self.passes
                        .iter()
                        .map(|p| f(&p[i]))
                        .fold(f64::INFINITY, f64::min)
                };
                Piece {
                    secs: fastest(|p| p.secs),
                    run_secs: fastest(|p| p.run_secs),
                    ..self.passes[0][i]
                }
            })
            .collect()
    }

    /// `scale` turns this run's host times into host times at the
    /// machine's quiet speed (`calib::Kernel::scale`).
    pub fn metrics(&self, scale: f64) -> Vec<Metric> {
        let listed: Vec<String> = self.walls.iter().map(|w| format!("{w:.3}")).collect();
        println!("# pass walls (s): {}", listed.join(" "));
        let best = self.fastest_pieces();
        let secs_of = |pieces: &[Piece], kind: Kind| -> Vec<f64> {
            pieces
                .iter()
                .filter(|p| p.kind == kind)
                .map(|p| p.secs)
                .collect()
        };
        let wall: f64 = best.iter().map(|p| p.secs).sum();
        let setup: f64 = secs_of(&best, Kind::Setup).iter().sum();
        let units = || best.iter().filter(|p| p.kind == Kind::Unit);
        let run_secs: f64 = units().map(|p| p.run_secs).sum();
        let ops: u64 = units().map(|p| p.ops).sum();
        let mut best_units = secs_of(&best, Kind::Unit);
        best_units.sort_by(f64::total_cmp);
        let k = best_units.len();
        // The highest percentile that still has ten samples beyond it.
        let tail_q = 1.0 - 10.0 / k as f64;
        println!(
            "# units: {k} per pass over {} passes; p99 has {} beyond it; the highest \
             percentile with >=10 beyond is p{:.2} = {:.4} ms",
            self.passes(),
            k - (0.99 * k as f64).ceil() as usize,
            100.0 * tail_q,
            percentile(&best_units, tail_q.max(0.5)) * 1e3
        );
        if k < 1000 {
            println!(
                "# warning: fewer than 1000 units, so p99 has fewer than 10 samples beyond it"
            );
        }
        let mops_per_s = ops as f64 / run_secs / 1e6;
        let p50_ms = percentile(&best_units, 0.50) * 1e3;
        let p99_ms = percentile(&best_units, 0.99) * 1e3;
        println!(
            "# unscaled: wall_s={wall} setup_s={setup} mops_per_s={mops_per_s} \
             unit_ms_p50={p50_ms} unit_ms_p99={p99_ms}"
        );
        vec![
            ("wall_s".into(), wall * scale, "s"),
            ("setup_s".into(), setup * scale, "s"),
            ("mops_per_s".into(), mops_per_s / scale, "Mop/s"),
            ("unit_ms_p50".into(), p50_ms * scale, "ms"),
            ("unit_ms_p99".into(), p99_ms * scale, "ms"),
            ("peak_rss_mb".into(), context::peak_rss_mb(), "MiB"),
        ]
    }
}

/// The last line of the benchmark's output.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // JSON has no NaN or infinity; the caller has already marked such
        // a run incorrect, so zero only keeps the line parseable.
        let value = if value.is_finite() { *value } else { 0.0 };
        write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .expect("writing to a String");
    }
    out.push_str("}}");
    out
}
