//! `oracle_fuzz`: `eeat_oracle::fuzz::fuzz_target` over all 8 targets x
//! fixed seeds x fixed steps, one call per unit.
//!
//! It bypasses trace generation, the pipeline and the observers, so it is
//! the no-change control for simulator-side optimizations.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use eeat_oracle::{fuzz_target, run_ops, Divergence, Target};

use crate::digest;
use crate::layers::Layers;
use crate::spans::Tracer;
use crate::Pass;

/// Fuzz calls (units) per target per pass: 8 x 128 = 1024 units, so the
/// 99th-percentile unit has at least ten units beyond it.
const CALLS: u64 = 128;

/// Steps per call for each target, in `Target::ALL` order. Chosen so one
/// call takes about half a millisecond on every target, except `lite`,
/// capped so its generated op list stays small and peak RSS does not
/// depend on the seed; fixed, because changing them changes the work.
const STEPS: [usize; 8] = [200, 1_500, 1_700, 2_800, 2_800, 200, 150, 750];

pub fn pass(seed: u64, tr: &mut Tracer, layers: &mut Layers) -> Pass {
    let start = Instant::now();
    let mut pass = Pass::default();
    let mut covered = 0;
    for (i, (target, steps)) in Target::ALL.into_iter().zip(STEPS).enumerate() {
        // Set-up: the harness pair (production structure + reference model)
        // that each of the target's calls builds first, built back to back
        // through `run_ops` on an empty op list.
        let root = tr.begin("bench.setup");
        let t = Instant::now();
        let s = tr.begin("oracle.run_ops");
        let built = catch_unwind(|| (0..CALLS).map(|_| run_ops(target, &[])).collect::<Vec<_>>());
        tr.end(s);
        pass.add_setup(t.elapsed().as_secs_f64());
        tr.end(root);
        let Ok(built) = built else {
            tr.close_all();
            pass.problems
                .push(format!("{}: harness construction panicked", target.name()));
            continue;
        };
        for (k, built) in (0..CALLS).zip(built) {
            let fuzz_seed = (seed << 32) | ((i as u64) << 16) | k;
            let label = format!("{}/{k}", target.name());
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                unit(target, fuzz_seed, steps, built, tr, layers, &mut pass)
            }));
            match outcome {
                Ok(Ok(text)) => pass.digests.push((label, digest::of_text(&text))),
                // A divergence between production code and oracle fails the
                // unit whatever its digest, so `--bless` refuses it too.
                Ok(Err(text)) => pass.problems.push(format!("{label}: {text}")),
                Err(_) => {
                    tr.close_all();
                    pass.problems.push(format!("{label}: panicked"));
                }
            }
        }
        covered += 1;
    }
    // A target added to (or dropped from) the oracle must show up here.
    if covered != Target::ALL.len() || covered != 8 {
        pass.problems.push(format!(
            "oracle_fuzz covers {covered} of {} targets, expected all 8",
            Target::ALL.len()
        ));
    }
    pass.wall = start.elapsed().as_secs_f64();
    pass
}

/// One fuzz call; returns the outcome, with the result of its harness
/// construction, rendered for hashing, as an error when the production
/// code diverged from the oracle.
fn unit(
    target: Target,
    seed: u64,
    steps: usize,
    built: Result<(), Divergence>,
    tr: &mut Tracer,
    layers: &mut Layers,
    pass: &mut Pass,
) -> Result<String, String> {
    let root = tr.begin("bench.unit");
    let t = Instant::now();
    let s = tr.begin("oracle.fuzz_target");
    let outcome = fuzz_target(target, seed, steps);
    tr.end(s);
    let secs = t.elapsed().as_secs_f64();
    tr.end(root);
    pass.add_unit(secs, secs, steps as u64);
    layers.add_fuzz(target, secs, steps as u64);
    let text = format!("{target} {seed} {steps} {built:?} {outcome:?}");
    if built.is_ok() && outcome.is_ok() {
        Ok(text)
    } else {
        Err(text)
    }
}
