//! The machine-speed reference: a fixed kernel, owned by the benchmark and
//! shaped like the simulator's translation loop, timed between passes.
//!
//! The box's speed drifts in episodes that can outlast a whole run (see
//! the Noise section of `README.md`), so a run's fastest pieces can all be
//! slow. The kernel's fastest time in the same run tells how slow: every
//! end-to-end time is scaled by `REFERENCE_SECS / fastest kernel time`,
//! which reads as host time at the machine's quiet speed. The kernel is
//! not the simulator's code, so a change to the simulator moves the
//! scaled times as it moves the raw ones.

use std::time::Instant;

/// The kernel's fastest time at the quiet speed of the machine the
/// benchmark was sized on (a 2-vCPU Xeon guest shared with other tenants).
pub const REFERENCE_SECS: f64 = 0.0142;

/// Translations per kernel call.
const ITERATIONS: u64 = 1_000_000;
/// Kernel calls before each round of passes; the run keeps the fastest.
pub const CALLS_PER_ROUND: usize = 2;

/// The kernel's table: 256 KiB, so the kernel stays cache-resident and its
/// share of peak RSS is small and fixed.
pub struct Kernel {
    table: Vec<u64>,
    fastest: f64,
}

impl Kernel {
    pub fn new() -> Self {
        Self {
            table: vec![1; 1 << 15],
            fastest: f64::INFINITY,
        }
    }

    /// Times the kernel `CALLS_PER_ROUND` times.
    pub fn sample(&mut self) {
        for _ in 0..CALLS_PER_ROUND {
            let t = Instant::now();
            std::hint::black_box(translate(&mut self.table, ITERATIONS));
            self.fastest = self.fastest.min(t.elapsed().as_secs_f64());
        }
    }

    /// The fastest kernel call so far, in seconds.
    pub fn fastest(&self) -> f64 {
        self.fastest
    }

    /// The factor that turns a host time of this run into host time at
    /// the quiet speed.
    pub fn scale(&self) -> f64 {
        REFERENCE_SECS / self.fastest
    }
}

/// Xorshift page numbers (a hot and a cold set) through a 64-set, 4-way
/// LRU tag array; a miss updates a table slot, as a walk and a refill do.
#[inline(never)]
fn translate(table: &mut [u64], iterations: u64) -> u64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mask = table.len() as u64 - 1;
    let mut tags = [[0u64; 4]; 64];
    let mut ages = [[0u8; 4]; 64];
    let mut sum = 0u64;
    for i in 0..iterations {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let vpn = if x & 3 == 0 {
            x >> 40
        } else {
            (x >> 52) & 0xff
        };
        let set = (vpn & 63) as usize;
        let mut way = 4;
        for (w, tag) in tags[set].iter().enumerate() {
            if *tag == vpn {
                way = w;
            }
        }
        if way == 4 {
            way = (0..4).max_by_key(|&w| ages[set][w]).unwrap_or(0);
            let slot = (vpn.wrapping_mul(0x2545_F491_4F6C_DD1D) & mask) as usize;
            table[slot] = table[slot].wrapping_add(i);
            sum = sum.wrapping_add(table[slot]);
            tags[set][way] = vpn;
        }
        for age in &mut ages[set] {
            *age = age.saturating_add(1);
        }
        ages[set][way] = 0;
    }
    sum
}
