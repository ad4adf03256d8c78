//! Per-layer measurements of the traced passes and the per-layer metrics
//! derived from them.
//!
//! Layers are named after the crates. A metric of a layer the workload
//! does not exercise reads 0 (see the layer map in `README.md`).

use eeat_core::{RunResult, Stage, StageProfile};
use eeat_oracle::Target;

use crate::spans::Tracer;
use crate::stats::Metric;

/// Exact simulated counts of one pass, summed over its cells' final
/// results. They repeat exactly for a seed; a pure speed change must leave
/// them identical.
#[derive(Clone, Copy, Default)]
pub struct Counts {
    pub accesses: u64,
    pub l1_hits: u64,
    pub l1_misses: u64,
    pub l2_hits: u64,
    pub l2_misses: u64,
    pub guest_refs: u64,
    pub host_refs: u64,
    pub asid_switches: u64,
    pub ipis_sent: u64,
    pub ipi_invalidations: u64,
}

impl Counts {
    pub fn add_run(&mut self, run: &RunResult) {
        let s = &run.stats;
        self.accesses += s.accesses;
        self.l1_hits += s.l1_hits();
        self.l1_misses += s.l1_misses;
        self.l2_hits += s.l2_hits_page + s.l2_hits_range;
        self.l2_misses += s.l2_misses;
        self.guest_refs += s.guest_walk_refs;
        self.host_refs += s.host_walk_refs;
        self.asid_switches += s.asid_switches;
        self.ipis_sent += s.ipis_sent;
        self.ipi_invalidations += s.ipi_invalidations;
    }

    fn add(&mut self, o: &Counts) {
        self.accesses += o.accesses;
        self.l1_hits += o.l1_hits;
        self.l1_misses += o.l1_misses;
        self.l2_hits += o.l2_hits;
        self.l2_misses += o.l2_misses;
        self.guest_refs += o.guest_refs;
        self.host_refs += o.host_refs;
        self.asid_switches += o.asid_switches;
        self.ipis_sent += o.ipis_sent;
        self.ipi_invalidations += o.ipi_invalidations;
    }
}

/// Accumulated over every traced pass of a run.
#[derive(Default)]
pub struct Layers {
    /// Host seconds of the traced passes.
    pub traced_wall: f64,
    traced_passes: u64,
    /// `TraceGenerator::fill` on twin generators.
    pub gen_secs: f64,
    pub gen_accesses: u64,
    /// Twin address-space population (`AddressSpace::new` + `mmap`s).
    pub populate_secs: f64,
    pub populates: u64,
    /// `Simulator::assemble`.
    pub assemble_secs: f64,
    pub assembles: u64,
    /// The workload's own run calls, and the accesses they simulated.
    pub run_secs: f64,
    pub run_accesses: u64,
    /// `Simulator::run_block_profiled` stage seconds, and the profiled
    /// calls' wall net of the profiler's own overhead.
    stage_secs: [f64; 5],
    profiled_net_secs: f64,
    /// `MultiCoreSim::demote_huge_pages`.
    pub demote_secs: f64,
    pub demoted_pages: u64,
    /// Matched run calls with and without the `LatencyObserver`.
    pub observed_secs: f64,
    pub plain_secs: f64,
    /// `RunArtifact` build + `to_pretty` + `parse` + `validate`.
    pub artifact_secs: f64,
    pub artifacts: u64,
    /// `fuzz_target` seconds and steps per target, in `Target::ALL` order.
    pub fuzz: [(f64, u64); 8],
    counts: Counts,
    /// Filled by [`Layers::finish`].
    finished: Vec<Metric>,
}

impl Layers {
    /// Adds a profiled run call: `wall` is its host time measured outside.
    pub fn add_profile(&mut self, wall: f64, profile: &StageProfile) {
        for stage in Stage::ALL {
            self.stage_secs[stage as usize] += profile.seconds(stage);
        }
        self.profiled_net_secs += wall - profile.overhead_seconds();
    }

    pub fn add_fuzz(&mut self, target: Target, secs: f64, steps: u64) {
        let i = Target::ALL
            .iter()
            .position(|&t| t == target)
            .expect("every target is in Target::ALL");
        self.fuzz[i].0 += secs;
        self.fuzz[i].1 += steps;
    }

    /// Records a traced pass's exact counts.
    pub fn add_counts(&mut self, counts: &Counts) {
        self.counts.add(counts);
        self.traced_passes += 1;
    }

    /// Derives the trace-level metrics: each layer's self time as a share
    /// of traced wall, span coverage, and the traced/untraced wall ratio.
    /// Returns the span coverage.
    pub fn finish(&mut self, tracer: &Tracer, untraced_wall: f64) -> f64 {
        let self_secs = tracer.self_seconds();
        let mut covered = 0.0;
        for layer in ["workloads", "os", "core", "obs", "oracle", "bench"] {
            let secs = self_secs
                .iter()
                .find(|(l, _)| *l == layer)
                .map_or(0.0, |&(_, s)| s);
            println!(
                "# self time: {layer:<9} {:>9.3} s  {:>6.2}% of traced wall",
                secs,
                100.0 * secs / self.traced_wall
            );
            if layer != "bench" {
                covered += secs;
            }
            self.finished.push((
                format!("{layer}.self_share"),
                secs / self.traced_wall,
                "share",
            ));
        }
        let coverage = covered / self.traced_wall;
        self.finished
            .push(("trace.coverage".into(), coverage, "share"));
        self.finished.push((
            "trace.overhead_ratio".into(),
            self.traced_wall / untraced_wall,
            "ratio",
        ));
        coverage
    }

    /// Every per-layer metric, in `BENCHMARK.json` order.
    pub fn report(&self) -> Vec<Metric> {
        let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
        let c = &self.counts;
        let passes = self.traced_passes.max(1) as f64;
        let profiled: f64 = self.profiled_net_secs;
        let stage_share = |s: Stage| ratio(self.stage_secs[s as usize], profiled);
        let attributed: f64 = Stage::ALL.iter().map(|&s| stage_share(s)).sum();
        let mut out: Vec<Metric> = vec![
            (
                "workloads.gen_ns_per_acc".into(),
                ratio(self.gen_secs * 1e9, self.gen_accesses as f64),
                "ns",
            ),
            (
                "os.populate_ms".into(),
                ratio(self.populate_secs * 1e3, self.populates as f64),
                "ms",
            ),
            (
                "core.assemble_ms".into(),
                ratio(self.assemble_secs * 1e3, self.assembles as f64),
                "ms",
            ),
            (
                "core.pipeline_ns_per_acc".into(),
                ratio(
                    (self.run_secs - self.gen_secs) * 1e9,
                    self.run_accesses as f64,
                ),
                "ns",
            ),
        ];
        for stage in Stage::ALL {
            out.push((
                format!("core.stage.{}_share", stage.name()),
                stage_share(stage),
                "share",
            ));
        }
        out.push((
            "core.stage.unattributed_share".into(),
            if profiled == 0.0 {
                0.0
            } else {
                1.0 - attributed
            },
            "share",
        ));
        out.push((
            "core.multicore.demote_us_per_page".into(),
            ratio(self.demote_secs * 1e6, self.demoted_pages as f64),
            "us",
        ));
        out.push((
            "obs.latency_observer_ratio".into(),
            ratio(self.observed_secs, self.plain_secs),
            "ratio",
        ));
        out.push((
            "obs.artifact_ms".into(),
            ratio(self.artifact_secs * 1e3, self.artifacts as f64),
            "ms",
        ));
        for (target, (secs, steps)) in Target::ALL.iter().zip(self.fuzz) {
            out.push((
                format!("oracle.{}.ksteps_per_s", target.name()),
                ratio(steps as f64 / 1e3, secs),
                "ksteps/s",
            ));
        }
        out.extend([
            (
                "tlb.l1_hit_ratio".into(),
                ratio(c.l1_hits as f64, c.accesses as f64),
                "ratio",
            ),
            (
                "tlb.l2_hit_ratio".into(),
                ratio(c.l2_hits as f64, c.l1_misses as f64),
                "ratio",
            ),
            (
                "paging.walks_per_kacc".into(),
                ratio(c.l2_misses as f64 * 1e3, c.accesses as f64),
                "1/kacc",
            ),
            (
                "paging.guest_refs_per_walk".into(),
                ratio(c.guest_refs as f64, c.l2_misses as f64),
                "refs/walk",
            ),
            (
                "paging.host_refs_per_walk".into(),
                ratio(c.host_refs as f64, c.l2_misses as f64),
                "refs/walk",
            ),
            (
                "core.multicore.asid_switches".into(),
                c.asid_switches as f64 / passes,
                "count",
            ),
            (
                "core.multicore.ipis_sent".into(),
                c.ipis_sent as f64 / passes,
                "count",
            ),
            (
                "core.multicore.ipi_invalidations".into(),
                c.ipi_invalidations as f64 / passes,
                "count",
            ),
        ]);
        out.extend(self.finished.iter().cloned());
        out
    }
}
