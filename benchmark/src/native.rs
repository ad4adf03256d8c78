//! `paper_native`: the 8 TLB-intensive workloads x the 7 registered
//! organizations, native mode — the figure/table regeneration path.
//!
//! Each cell runs as fixed-size instruction slices, each one
//! `Simulator::run_with_observer` call with the `LatencyObserver` the bench
//! runner always attaches (runs are cumulative, so slicing is
//! result-identical). After its last slice the cell's `RunArtifact` is
//! built, serialized, parsed back and validated.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use eeat_core::{Config, RunResult, Simulator, DEFAULT_BLOCK};
use eeat_obs::{LatencyObserver, RunArtifact, RunManifest};
use eeat_os::AddressSpace;
use eeat_types::{MemAccess, VirtAddr, VirtRange};
use eeat_workloads::{TraceGenerator, Workload, WorkloadSpec};

use crate::digest;
use crate::layers::{Counts, Layers};
use crate::spans::Tracer;
use crate::Pass;

/// Instructions per slice (one unit of work).
const SLICE: u64 = 70_000;
/// Slices per cell: the cell runs `SLICE * SLICES` instructions, past the
/// first Lite epoch (1M instructions), and the 56 cells make 1008 units,
/// so the 99th-percentile unit has at least ten units beyond it.
const SLICES: u64 = 18;

pub fn pass(seed: u64, tr: &mut Tracer, layers: &mut Layers) -> Pass {
    let start = Instant::now();
    let mut pass = Pass::default();
    let mut counts = Counts::default();
    let mut orgs = Vec::new();
    let mut cells = 0;
    for workload in Workload::TLB_INTENSIVE {
        for config in Config::all_registered() {
            if !orgs.contains(&config.name) {
                orgs.push(config.name);
            }
            let label = format!("{}/{}", workload.name(), config.name);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                cell(&label, workload, config, seed, tr, layers, &mut pass)
            }));
            match outcome {
                Ok(result) => counts.add_run(&result),
                Err(_) => {
                    tr.close_all();
                    pass.problems.push(format!("{label}: panicked"));
                }
            }
            cells += 1;
        }
    }
    if cells != 56 || orgs.len() != 7 {
        pass.problems.push(format!(
            "paper_native covers {cells} cells over {} orgs, expected 8 workloads x 7 orgs",
            orgs.len()
        ));
    }
    layers.add_counts(&counts);
    pass.wall = start.elapsed().as_secs_f64();
    pass
}

/// Maps a spec's regions into a fresh address space: the population half
/// of `Simulator::from_spec`, reproduced step for step so the traced run
/// can time the `os` layer on its own.
pub fn populate(
    config: &Config,
    spec: &WorkloadSpec,
    seed: u64,
) -> (AddressSpace, Vec<Vec<VirtRange>>) {
    let mut space = AddressSpace::new(config.policy, seed);
    if config.depth.is_virtualized() {
        space.virtualize();
    }
    space.set_alloc_contiguity(spec.alloc_contiguity);
    let regions = spec
        .regions
        .iter()
        .map(|r| {
            (0..r.count)
                .map(|_| space.mmap(r.bytes, r.thp_eligible, r.name))
                .collect()
        })
        .collect();
    (space, regions)
}

/// Builds a twin of a cell's simulator as the three layer calls that
/// `Simulator::from_workload` makes (populate, generator, assemble), each
/// timed on its own, plus a twin generator for timing generation alone.
pub fn build_twin(
    config: &Config,
    workload: Workload,
    seed: u64,
    tr: &mut Tracer,
    layers: &mut Layers,
) -> (Simulator, TraceGenerator) {
    let spec = workload.spec();
    let t = Instant::now();
    let s = tr.begin("os.populate");
    let (space, regions) = populate(config, &spec, seed);
    tr.end(s);
    layers.populate_secs += t.elapsed().as_secs_f64();
    layers.populates += 1;
    let s = tr.begin("workloads.generator_new");
    let twin_gen = TraceGenerator::new(&spec, regions.clone(), seed);
    let generator = TraceGenerator::new(&spec, regions, seed);
    tr.end(s);
    let t = Instant::now();
    let s = tr.begin("core.assemble");
    let sim = Simulator::assemble(config.clone(), space, generator, seed);
    tr.end(s);
    layers.assemble_secs += t.elapsed().as_secs_f64();
    layers.assembles += 1;
    (sim, twin_gen)
}

/// Times `TraceGenerator::fill` for `accesses` accesses, in the
/// simulator's block size.
pub fn time_generation(
    twin: &mut TraceGenerator,
    accesses: u64,
    buf: &mut Vec<MemAccess>,
    tr: &mut Tracer,
    layers: &mut Layers,
) {
    buf.resize(DEFAULT_BLOCK, MemAccess::load(VirtAddr::new(0)));
    let t = Instant::now();
    let s = tr.begin("workloads.fill");
    let mut left = accesses as usize;
    while left > 0 {
        let n = left.min(DEFAULT_BLOCK);
        twin.fill(&mut buf[..n]);
        left -= n;
    }
    std::hint::black_box(&buf);
    tr.end(s);
    layers.gen_secs += t.elapsed().as_secs_f64();
    layers.gen_accesses += accesses;
}

fn cell(
    label: &str,
    workload: Workload,
    config: Config,
    seed: u64,
    tr: &mut Tracer,
    layers: &mut Layers,
    pass: &mut Pass,
) -> RunResult {
    let root = tr.begin("bench.setup");
    let t = Instant::now();
    let s = tr.begin("core.from_workload");
    let mut sim = Simulator::from_workload(config.clone(), workload, seed);
    tr.end(s);
    pass.add_setup(t.elapsed().as_secs_f64());
    // The traced run's twin simulator, built layer by layer: plain `run` on
    // even slices (the observer-cost baseline), `run_block_profiled` on odd
    // ones (stage shares). Every run flavour is result-identical, so the
    // twin must match the cell slice for slice; that also proves the
    // layer-by-layer build equals `Simulator::from_workload`.
    let mut twin = tr
        .enabled()
        .then(|| build_twin(&config, workload, seed, tr, layers));
    tr.end(root);

    let mut latency = LatencyObserver::default();
    let mut buf = Vec::new();
    let mut accesses = 0;
    let mut result = None;
    for k in 0..SLICES {
        let root = tr.begin("bench.unit");
        let t = Instant::now();
        let s = tr.begin("core.run_with_observer");
        let r = sim.run_with_observer(SLICE, &mut latency);
        tr.end(s);
        let secs = t.elapsed().as_secs_f64();
        let delta = r.stats.accesses - accesses;
        accesses = r.stats.accesses;
        pass.add_unit(secs, secs, delta);

        let mut text = String::new();
        digest::render_run(&mut text, &r);
        digest::render_latency(&mut text, &mut latency);
        pass.digests
            .push((format!("{label}/{k}"), digest::of_text(&text)));

        if let Some((twin, twin_gen)) = &mut twin {
            layers.run_secs += secs;
            layers.run_accesses += delta;
            time_generation(twin_gen, delta, &mut buf, tr, layers);
            let t = Instant::now();
            let twin_result = if k % 2 == 0 {
                let s = tr.begin("core.run");
                let twin_result = twin.run(SLICE);
                tr.end(s);
                layers.plain_secs += t.elapsed().as_secs_f64();
                layers.observed_secs += secs;
                twin_result
            } else {
                let s = tr.begin("core.run_block_profiled");
                let (twin_result, profile) = twin.run_block_profiled(SLICE, DEFAULT_BLOCK);
                tr.end(s);
                layers.add_profile(t.elapsed().as_secs_f64(), &profile);
                twin_result
            };
            if twin_result.stats != r.stats {
                pass.problems
                    .push(format!("{label}/{k}: twin run diverged from the cell"));
            }
        }
        tr.end(root);
        result = Some(r);
    }
    let result = result.expect("at least one slice");

    let tail = Instant::now();
    let root = tr.begin("bench.artifact");
    let t = Instant::now();
    let s = tr.begin("obs.artifact");
    let checked = artifact_round_trip(workload, &config, seed, &result, &mut latency);
    tr.end(s);
    layers.artifact_secs += t.elapsed().as_secs_f64();
    layers.artifacts += 1;
    tr.end(root);
    if let Err(e) = checked {
        pass.problems.push(format!("{label}: artifact: {e}"));
    }
    let root = tr.begin("bench.teardown");
    let s = tr.begin("core.drop");
    drop(sim);
    drop(twin);
    tr.end(s);
    tr.end(root);
    pass.add_other(tail.elapsed().as_secs_f64());
    result
}

/// Builds the cell's `RunArtifact` the way the bench runner does (headline
/// metrics + latency distributions), serializes it, parses it back and
/// validates it; the parsed artifact must equal the original.
fn artifact_round_trip(
    workload: Workload,
    config: &Config,
    seed: u64,
    result: &RunResult,
    latency: &mut LatencyObserver,
) -> Result<(), String> {
    let instructions = SLICE * SLICES;
    let manifest = RunManifest {
        bench: "paper_native".into(),
        config_hash: eeat_obs::config_hash(&[format!("{config:?}")], seed, instructions),
        seed,
        instructions,
        threads: 1,
        commit: "benchmark".into(),
        rustc: "benchmark".into(),
        wall_seconds: 0.0,
    };
    let mut artifact = RunArtifact::new(manifest);
    let key = |metric: &str| format!("cell/{}/{}/{metric}", workload.name(), config.name);
    let s = &result.stats;
    for (metric, value) in [
        ("l1_mpki", s.l1_mpki()),
        ("l2_mpki", s.l2_mpki()),
        ("accesses", s.accesses as f64),
        ("l1_misses", s.l1_misses as f64),
        ("l2_misses", s.l2_misses as f64),
        ("walk_refs", s.walk_memory_refs as f64),
        ("range_walks", s.range_table_walks as f64),
        ("lite_intervals", s.lite_intervals as f64),
        ("lite_reactivations", s.lite_reactivations as f64),
        ("energy_pj", result.energy.total_pj()),
        ("miss_cycles", result.cycles.total() as f64),
    ] {
        artifact.push_metric(key(metric), value);
    }
    for (class, hist) in latency.class_histograms() {
        if hist.count() > 0 {
            artifact.push_distribution(
                key(&format!("lat/{}", class.name())),
                hist.summary_json(false),
            );
        }
    }
    artifact.push_distribution(key("lat/all"), latency.merged().summary_json(true));
    let text = artifact.to_pretty();
    // `RunArtifact::parse` runs the schema validator (`eeat_obs::validate`)
    // and fails with every violation it finds.
    let parsed = RunArtifact::parse(&text)?;
    if parsed != artifact {
        return Err("parsed artifact differs from the written one".into());
    }
    Ok(())
}
