//! The repository benchmark: drives the eeat simulator through its public
//! API on one host thread, checks every unit of work against committed
//! reference digests, and prints one JSON result line.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path benchmark/Cargo.toml -- \
//!     --workload paper_native --seed 0 --seconds 20 --trace 0
//! ```
//!
//! A run repeats the workload's fixed work ("a pass") for `--seconds`,
//! starting a pass only if it should end inside that time. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` alternates untraced and traced
//! passes and reports the per-layer metrics, measured from spans the
//! benchmark records around each call into a layer. See `README.md`.

mod calib;
mod context;
mod digest;
mod fuzz;
mod layers;
mod native;
mod spans;
mod stats;
mod virt;

use std::process::ExitCode;
use std::time::Instant;

use crate::digest::{References, Tally};
use crate::layers::Layers;
use crate::spans::Tracer;
use crate::stats::Summary;

/// Number of committed reference seed sets. Set 0 is the default seed.
const SEED_SETS: u64 = 4;
/// The held-out set: never selected by `--seed`, only by `--held-out`, so
/// a claim tuned on ordinary seeds can be re-checked on it.
const HELD_OUT: u64 = 1;
/// The sets `--seed n` rotates through: set `ROTATION[n % 3]`.
const ROTATION: [u64; 3] = [0, 2, 3];

/// The input seed of reference set `set`.
fn input_seed(set: u64) -> u64 {
    1 + set
}

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    PaperNative,
    VirtTenants,
    OracleFuzz,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::PaperNative,
        Workload::VirtTenants,
        Workload::OracleFuzz,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperNative => "paper_native",
            Workload::VirtTenants => "virt_tenants",
            Workload::OracleFuzz => "oracle_fuzz",
        }
    }

    fn pass(self, seed: u64, tracer: &mut Tracer, layers: &mut Layers) -> Pass {
        match self {
            Workload::PaperNative => native::pass(seed, tracer, layers),
            Workload::VirtTenants => virt::pass(seed, tracer, layers),
            Workload::OracleFuzz => fuzz::pass(seed, tracer, layers),
        }
    }
}

/// What one pass over a workload's fixed work measured.
#[derive(Default)]
pub struct Pass {
    /// Host seconds for the whole pass, set-up included.
    pub wall: f64,
    /// The pass's timed pieces in execution order; every pass times the
    /// same pieces in the same order.
    pub pieces: Vec<Piece>,
    /// `(unit label, result digest)` per unit, in execution order. A unit
    /// that panicked, or never ran because an earlier unit of its cell
    /// panicked, has no entry and fails the reference check.
    pub digests: Vec<(String, u64)>,
    /// Problems other than digest mismatches: a workload that stopped
    /// stressing what it was chosen for, a panic, a failed cross-check.
    pub problems: Vec<String>,
}

/// What a timed piece of a pass is.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A construction call.
    Setup,
    /// A unit of work.
    Unit,
    /// Neither (a cell's teardown, an artifact round trip).
    Other,
}

/// One timed piece of a pass.
#[derive(Clone, Copy)]
pub struct Piece {
    /// Host seconds.
    pub secs: f64,
    /// Host seconds inside the run call of a unit (0 otherwise).
    pub run_secs: f64,
    /// Simulated operations of a unit's run call: memory accesses, or fuzz
    /// steps (0 otherwise).
    pub ops: u64,
    pub kind: Kind,
}

impl Pass {
    /// Records a construction call.
    pub fn add_setup(&mut self, secs: f64) {
        self.add(Kind::Setup, secs, 0.0, 0);
    }

    /// Records a unit: its latency, and the run call inside it that
    /// performed `ops` operations.
    pub fn add_unit(&mut self, secs: f64, run_secs: f64, ops: u64) {
        self.add(Kind::Unit, secs, run_secs, ops);
    }

    /// Records work that is neither set-up nor a unit.
    pub fn add_other(&mut self, secs: f64) {
        self.add(Kind::Other, secs, 0.0, 0);
    }

    fn add(&mut self, kind: Kind, secs: f64, run_secs: f64, ops: u64) {
        self.pieces.push(Piece {
            secs,
            run_secs,
            ops,
            kind,
        });
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    held_out: bool,
    bless: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut held_out = false;
    let mut bless = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--bless" {
            bless = true;
            continue;
        }
        if flag == "--held-out" {
            held_out = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or(format!(
                            "unknown workload {value:?}; expected one of {:?}",
                            Workload::ALL.map(Workload::name)
                        ))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && s.is_finite())
                    .ok_or(format!("--seconds {value}: expected a positive number"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        held_out,
        bless,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <paper_native|virt_tenants|oracle_fuzz> --seed <n> \
                 --seconds <s> --trace <0|1> [--held-out]   (or --workload <w> --bless)"
            );
            return ExitCode::from(2);
        }
    };
    if let Err(e) = context::pin_one_thread() {
        eprintln!("error: {e}");
        return ExitCode::from(2);
    }
    if args.bless {
        return bless(args.workload);
    }
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Rewrites the workload's reference digests from one pass per seed set.
fn bless(workload: Workload) -> ExitCode {
    let mut sets = Vec::new();
    for set in 0..SEED_SETS {
        let seed = input_seed(set);
        let pass = workload.pass(seed, &mut Tracer::off(), &mut Layers::default());
        if !pass.problems.is_empty() {
            eprintln!("refusing to bless: seed {seed}: {:?}", pass.problems);
            return ExitCode::FAILURE;
        }
        sets.push((seed, pass.digests));
    }
    match digest::write_references(workload.name(), &sets) {
        Ok(path) => {
            eprintln!("wrote {path}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    let workload = args.workload;
    let set = if args.held_out {
        HELD_OUT
    } else {
        ROTATION[(args.seed % ROTATION.len() as u64) as usize]
    };
    let seed = input_seed(set);
    let references = References::load(workload.name(), seed)?;
    println!(
        "# workload={} seed={} held_out={} (reference set {set}, input seed {seed}) seconds={} trace={}",
        workload.name(),
        args.seed,
        args.held_out,
        args.seconds,
        u8::from(args.trace)
    );
    println!("# context {}", context::RunContext::capture().describe());

    // Whole passes until the time is up. A traced run alternates untraced
    // and traced passes, so the overhead ratio compares neighbours. Each
    // pass is checked as soon as it ends; only its piece timings are kept.
    let start = Instant::now();
    let mut summary = Summary::default();
    let mut tally = Tally::default();
    let mut layers = Layers::default();
    let mut tracer = Tracer::new(args.trace);
    // A round (one pass, or an untraced and a traced pass) starts only if
    // it should end inside the time, so a run ends close to `--seconds`
    // rather than a whole slow round past it.
    let mut longest_round = 0.0f64;
    let mut kernel = calib::Kernel::new();
    loop {
        let round = Instant::now();
        kernel.sample();
        let pass = workload.pass(seed, &mut Tracer::off(), &mut Layers::default());
        tally.record(&references, &pass);
        summary.add(&pass);
        context::check_one_thread()?;
        if args.trace {
            let t = Instant::now();
            let pass = workload.pass(seed, &mut tracer, &mut layers);
            layers.traced_wall += t.elapsed().as_secs_f64();
            tally.record(&references, &pass);
            context::check_one_thread()?;
        }
        longest_round = longest_round.max(round.elapsed().as_secs_f64());
        if start.elapsed().as_secs_f64() + longest_round > args.seconds {
            break;
        }
    }
    println!("# context-end loadavg_1m={}", context::loadavg_1m());
    println!(
        "# machine speed: reference kernel fastest {:.6} s (quiet: {} s), time scale {:.4}",
        kernel.fastest(),
        calib::REFERENCE_SECS,
        kernel.scale()
    );
    let Tally {
        attempted,
        failed,
        passes,
        mut problems,
    } = tally;

    let metrics = if args.trace {
        let path = tracer.write_chrome(workload.name(), args.seed)?;
        println!("# trace: {path}");
        let coverage = layers.finish(&tracer, summary.total_wall());
        if coverage < 0.95 {
            problems.push(format!(
                "layer spans cover {coverage:.4} of traced wall, below 0.95"
            ));
        }
        layers.report()
    } else {
        summary.metrics(kernel.scale())
    };
    for (name, value, unit) in &metrics {
        println!("# {name} = {value} {unit}");
        if !value.is_finite() {
            problems.push(format!("metric {name} is not finite"));
        }
    }
    for p in problems.iter().take(10) {
        println!("# problem: {p}");
    }
    println!(
        "# correctness: {failed} failed of {attempted} units over {passes} passes, fail_ratio={}",
        failed as f64 / attempted.max(1) as f64
    );
    let correct = problems.is_empty() && failed == 0;
    println!(
        "{}",
        stats::result_json(correct, attempted, failed, &metrics)
    );
    Ok(())
}
