//! Per-unit result digests and the committed reference digests they are
//! checked against (`digests/<workload>.txt`, rewritten by `--bless`).

use std::fmt::Write as _;
use std::fs;

use eeat_core::RunResult;
use eeat_obs::LatencyObserver;

use crate::Pass;

/// FNV-1a digest of a unit's result rendered as text. `Debug` output of
/// the result types covers every field (floats in shortest round-trip
/// form), so any change to a counter, an energy bucket or a histogram
/// bucket changes the digest.
pub fn of_text(text: &str) -> u64 {
    eeat_obs::fnv1a_64(text.as_bytes())
}

/// Renders a simulation result (`SimStats` + `EnergyBreakdown`) for
/// hashing.
pub fn render_run(out: &mut String, run: &RunResult) {
    write!(out, "{:?}|{:?}|", run.stats, run.energy).expect("writing to a String");
}

/// Renders every latency-histogram bucket of `latency` for hashing.
pub fn render_latency(out: &mut String, latency: &mut LatencyObserver) {
    for h in latency.histograms() {
        write!(
            out,
            "{}:{}:{}:{:?}|",
            h.count(),
            h.total(),
            h.max(),
            h.nonzero_buckets()
        )
        .expect("writing to a String");
    }
}

const PAPER_NATIVE: &str = include_str!("../digests/paper_native.txt");
const VIRT_TENANTS: &str = include_str!("../digests/virt_tenants.txt");
const ORACLE_FUZZ: &str = include_str!("../digests/oracle_fuzz.txt");

/// The reference digests of one workload at one input seed.
pub struct References {
    units: Vec<(String, u64)>,
}

/// The outcome of checking one pass against the references.
pub struct Check {
    /// Reference units (the units the pass should have produced).
    pub expected: u64,
    /// Units whose digest mismatched or which are missing.
    pub failed: u64,
    /// Human-readable descriptions of the first failures.
    pub problems: Vec<String>,
}

impl References {
    pub fn load(workload: &str, seed: u64) -> Result<Self, String> {
        let text = match workload {
            "paper_native" => PAPER_NATIVE,
            "virt_tenants" => VIRT_TENANTS,
            "oracle_fuzz" => ORACLE_FUZZ,
            other => return Err(format!("no references for workload {other}")),
        };
        let units = parse(text)
            .into_iter()
            .find(|(s, _)| *s == seed)
            .map(|(_, units)| units)
            .ok_or(format!(
                "digests/{workload}.txt has no reference digests for input seed {seed}"
            ))?;
        Ok(Self { units })
    }

    /// Compares a pass's digests with the references, unit by unit.
    pub fn check(&self, digests: &[(String, u64)]) -> Check {
        let mut check = Check {
            expected: self.units.len() as u64,
            failed: 0,
            problems: Vec::new(),
        };
        let mut got = digests.iter().peekable();
        for (label, want) in &self.units {
            // A panicked unit has no digest: it is missing, not misaligned.
            let problem = match got.peek() {
                Some((l, d)) if l == label => {
                    got.next();
                    (d != want).then(|| format!("{label}: digest {d:016x}, reference {want:016x}"))
                }
                _ => Some(format!("{label}: no result")),
            };
            if let Some(p) = problem {
                check.failed += 1;
                if check.problems.len() < 5 {
                    check.problems.push(p);
                }
            }
        }
        let extra = got.count();
        if extra > 0 {
            check
                .problems
                .push(format!("{extra} units have no reference digest"));
        }
        check
    }

    /// Proves the check counts a perturbed reference as a failure: flipping
    /// one bit of the reference of a unit that passes must add exactly one
    /// failed unit. With no passing unit the run has failed already.
    pub fn self_test(&self, digests: &[(String, u64)]) -> Result<(), String> {
        let base = self.check(digests).failed;
        let Some(victim) = self.units.iter().position(|u| digests.contains(u)) else {
            return Ok(());
        };
        let mut perturbed = Self {
            units: self.units.clone(),
        };
        perturbed.units[victim].1 ^= 1;
        let after = perturbed.check(digests).failed;
        if after == base + 1 {
            Ok(())
        } else {
            Err(format!(
                "self-test: a perturbed reference moved the failure count from {base} to {after}"
            ))
        }
    }
}

/// Correctness over a run: every unit of every pass against the
/// references, plus, on the first pass, the self-test.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub passes: u64,
    pub problems: Vec<String>,
}

impl Tally {
    pub fn record(&mut self, references: &References, pass: &Pass) {
        if self.passes == 0 {
            self.problems
                .extend(references.self_test(&pass.digests).err());
        }
        let check = references.check(&pass.digests);
        self.attempted += check.expected;
        self.failed += check.failed;
        self.passes += 1;
        self.problems.extend(check.problems);
        self.problems.extend(pass.problems.iter().cloned());
    }
}

/// Parses `seed <n>` sections of `<label> <hex digest>` lines.
fn parse(text: &str) -> Vec<(u64, Vec<(String, u64)>)> {
    let mut sets: Vec<(u64, Vec<(String, u64)>)> = Vec::new();
    for line in text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
    {
        let mut fields = line.split_whitespace();
        let (Some(a), Some(b)) = (fields.next(), fields.next()) else {
            continue;
        };
        if a == "seed" {
            if let Ok(seed) = b.parse() {
                sets.push((seed, Vec::new()));
            }
        } else if let (Some(set), Ok(d)) = (sets.last_mut(), u64::from_str_radix(b, 16)) {
            set.1.push((a.to_string(), d));
        }
    }
    sets
}

/// Writes `digests/<workload>.txt` from `(input seed, unit digests)` sets.
pub fn write_references(
    workload: &str,
    sets: &[(u64, Vec<(String, u64)>)],
) -> Result<String, String> {
    let mut text = format!(
        "# Reference digests for the {workload} workload, one per unit, per input seed.\n\
         # Regenerate with: cargo run --release --manifest-path benchmark/Cargo.toml -- --workload {workload} --bless\n"
    );
    for (seed, units) in sets {
        writeln!(text, "seed {seed}").expect("writing to a String");
        for (label, d) in units {
            writeln!(text, "{label} {d:016x}").expect("writing to a String");
        }
    }
    let path = format!("{}/digests/{workload}.txt", env!("CARGO_MANIFEST_DIR"));
    fs::write(&path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
    Ok(path)
}
