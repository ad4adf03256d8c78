//! `virt_tenants`: `MultiCoreSim` with 2 simulated cores x 5 tenants under
//! virtualized 4KB, THP and CoLT, on mcf, canneal, omnetpp and mummer.
//!
//! The odd tenant count makes tenants migrate between cores, so
//! shootdowns fan out as IPIs. Each unit demotes 2 huge pages on each core
//! (`MultiCoreSim::demote_huge_pages`) and runs one 20k-instruction
//! quantum (`MultiCoreSim::run`); the simulated cores are interleaved on
//! one host thread.

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use eeat_core::{Config, MultiCoreParams, MultiCoreSim, DEFAULT_BLOCK};
use eeat_workloads::Workload;

use crate::digest;
use crate::layers::{Counts, Layers};
use crate::native;
use crate::spans::Tracer;
use crate::Pass;

const PARAMS: MultiCoreParams = MultiCoreParams {
    cores: 2,
    tenants: 5,
    quantum: 20_000,
    // Demotions are driven by the benchmark, per unit, so they can be
    // timed on their own.
    demotions_per_quantum: 0,
};
/// Huge pages each core demotes per quantum.
const DEMOTIONS: u64 = 2;
/// Quanta (units) per cell: the 12 cells make 1008 units, so the
/// 99th-percentile unit has at least ten units beyond it.
const QUANTA: u64 = 84;

const WORKLOADS: [Workload; 4] = [
    Workload::Mcf,
    Workload::Canneal,
    Workload::Omnetpp,
    Workload::Mummer,
];

fn configs() -> [Config; 3] {
    [Config::four_k(), Config::thp(), Config::colt()].map(Config::virtualized)
}

pub fn pass(seed: u64, tr: &mut Tracer, layers: &mut Layers) -> Pass {
    let start = Instant::now();
    let mut pass = Pass::default();
    let mut counts = Counts::default();
    let mut cells = 0;
    for workload in WORKLOADS {
        for config in configs() {
            let label = format!("{}/{}", workload.name(), config.name);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                cell(
                    &label,
                    workload,
                    &config,
                    seed,
                    tr,
                    layers,
                    &mut pass,
                    &mut counts,
                )
            }));
            if outcome.is_err() {
                tr.close_all();
                pass.problems.push(format!("{label}: panicked"));
            }
            cells += 1;
        }
    }
    if cells != 12 {
        pass.problems.push(format!(
            "virt_tenants covers {cells} cells, expected 4 workloads x 3 orgs"
        ));
    }
    if counts.ipis_sent == 0
        || counts.asid_switches == 0
        || counts.guest_refs + counts.host_refs == 0
    {
        pass.problems.push(format!(
            "virt_tenants no longer stresses coherence and 2D walks: ipis_sent={} \
             asid_switches={} nested walk refs={}",
            counts.ipis_sent,
            counts.asid_switches,
            counts.guest_refs + counts.host_refs
        ));
    }
    layers.add_counts(&counts);
    pass.wall = start.elapsed().as_secs_f64();
    pass
}

#[allow(clippy::too_many_arguments)]
fn cell(
    label: &str,
    workload: Workload,
    config: &Config,
    seed: u64,
    tr: &mut Tracer,
    layers: &mut Layers,
    pass: &mut Pass,
    counts: &mut Counts,
) {
    let root = tr.begin("bench.setup");
    let t = Instant::now();
    let s = tr.begin("core.multicore.from_workload");
    let mut sim = MultiCoreSim::from_workload(config.clone(), workload, PARAMS, seed);
    tr.end(s);
    pass.add_setup(t.elapsed().as_secs_f64());
    // Traced: a single-core twin of tenant 0 (populate + assemble timed on
    // their own) for the stage profile, and its twin generator for
    // generation time.
    let mut twin = tr
        .enabled()
        .then(|| native::build_twin(config, workload, seed, tr, layers));
    tr.end(root);

    let mut buf = Vec::new();
    let mut accesses = 0;
    let mut last = None;
    for q in 0..QUANTA {
        let root = tr.begin("bench.unit");
        let t = Instant::now();
        for core in 0..PARAMS.cores {
            let td = Instant::now();
            let s = tr.begin("core.multicore.demote_huge_pages");
            layers.demoted_pages += sim.demote_huge_pages(core, DEMOTIONS);
            tr.end(s);
            layers.demote_secs += td.elapsed().as_secs_f64();
        }
        let tr_run = Instant::now();
        let s = tr.begin("core.multicore.run");
        let result = sim.run(PARAMS.quantum);
        tr.end(s);
        let run_secs = tr_run.elapsed().as_secs_f64();
        let unit_secs = t.elapsed().as_secs_f64();
        let total: u64 = result.per_core.iter().map(|c| c.run.stats.accesses).sum();
        let delta = total - accesses;
        accesses = total;
        pass.add_unit(unit_secs, run_secs, delta);
        layers.run_secs += run_secs;
        layers.run_accesses += delta;

        let mut text = String::new();
        for c in &result.per_core {
            digest::render_run(&mut text, &c.run);
            write!(text, "{:?}|{}|", c.ipi, c.tenant).expect("writing to a String");
        }
        pass.digests
            .push((format!("{label}/{q}"), digest::of_text(&text)));

        if let Some((single, twin_gen)) = &mut twin {
            native::time_generation(twin_gen, delta, &mut buf, tr, layers);
            let t = Instant::now();
            let s = tr.begin("core.run_block_profiled");
            let (_, profile) = single.run_block_profiled(PARAMS.quantum, DEFAULT_BLOCK);
            tr.end(s);
            layers.add_profile(t.elapsed().as_secs_f64(), &profile);
        }
        tr.end(root);
        last = Some(result);
    }
    for c in &last.expect("at least one quantum").per_core {
        counts.add_run(&c.run);
    }
    // Tearing down five tenants' guest and EPT tables is real host work.
    let tail = Instant::now();
    let root = tr.begin("bench.teardown");
    let s = tr.begin("core.multicore.drop");
    drop(sim);
    drop(twin);
    tr.end(s);
    tr.end(root);
    pass.add_other(tail.elapsed().as_secs_f64());
}
