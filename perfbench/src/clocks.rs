//! The benchmark's two clocks and the rule that combines simulated ones.
//!
//! **Simulated time** comes from the model's [`SimClock`]s. A fssim stack
//! has one clock shared by its NVM and its disk. A `TincaStore` has one
//! clock per NVM shard (`nvmsim::shard_devices`) plus the disk's clock.
//! One client thread waits for each of them in turn, so the simulated
//! latency of an op is the **sum** of the advances of all its clocks;
//! [`Clocks::now_ns`] applies that rule everywhere in the benchmark.
//!
//! **Host time** is `std::time::Instant`: what the simulator costs to run.
//! On a shared machine the speed of a core drifts with the neighbours'
//! load, for tens of seconds at a time. [`probe`] times a fixed loop of
//! the benchmark's own, so the run can state its host times at the speed
//! of the reference machine ([`host_speed`]).

use std::hint::black_box;
use std::time::Instant;

use nvmsim::SimClock;

/// Every simulated clock an op can advance.
#[derive(Clone, Debug)]
pub struct Clocks(Vec<SimClock>);

impl Clocks {
    pub fn new(clocks: Vec<SimClock>) -> Clocks {
        Clocks(clocks)
    }

    /// Sum of all clocks' readings (see the module docs).
    pub fn now_ns(&self) -> u64 {
        self.0.iter().map(SimClock::now_ns).sum()
    }
}

/// Nearest-rank quantile of a sorted sample (`q` in `[0, 1]`).
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Steps of each of the [`probe`]'s chains.
const PROBE_STEPS: u32 = 50_000;

/// Seconds of one [`probe`] on the reference machine, a 2-core x86-64
/// (Xeon, model 207) Linux container: a typical median; its medians over
/// a round ranged from 0.125 to 0.17 ms.
pub const PROBE_REF_S: f64 = 1.5e-4;

/// Runs four independent chains of integer multiplies, shifts and rotates
/// and returns its host seconds. It touches no memory, so nothing the
/// simulator does to the caches changes it. The chains keep several of the
/// core's execution units busy at once, so the probe slows, as the
/// simulator does, when another tenant's thread shares the physical core;
/// a single chain slowed only half as much as the simulator.
pub fn probe() -> f64 {
    let step = |h: u64| {
        (h ^ (h >> 29))
            .wrapping_mul(0xBF58_476D_1CE4_E5B9)
            .rotate_left(7)
    };
    let t = Instant::now();
    let mut h = black_box([1u64, 2, 3, 4]);
    for _ in 0..PROBE_STEPS {
        h = h.map(step);
    }
    black_box(h);
    t.elapsed().as_secs_f64()
}

/// The machine's speed relative to the reference machine, from [`probe`]
/// samples: `PROBE_REF_S` over their median (above 1: faster). A host time
/// measured alongside the samples, times this, is that time at reference
/// speed.
pub fn host_speed(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 1.0,
        n if n % 2 == 1 => PROBE_REF_S / v[n / 2],
        n => PROBE_REF_S / ((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 where the
/// platform does not expose it.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sums_every_clock() {
        let (a, b) = (SimClock::new(), SimClock::new());
        let c = Clocks::new(vec![a.clone(), b.clone()]);
        a.advance(7);
        b.advance(5);
        assert_eq!(c.now_ns(), 12);
    }

    #[test]
    fn nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.5), 50);
        assert_eq!(quantile(&v, 0.99), 99);
        assert_eq!(quantile(&[3], 0.99), 3);
        assert_eq!(quantile(&[], 0.5), 0);
    }

    #[test]
    fn speed_is_reference_over_median_probe() {
        assert_eq!(host_speed(&[]), 1.0);
        let half = PROBE_REF_S / 2.0;
        assert_eq!(host_speed(&[half, 9.0, half]), 2.0);
        let even = host_speed(&[half, half, PROBE_REF_S, PROBE_REF_S]);
        assert!((even - 4.0 / 3.0).abs() < 1e-12);
        assert!(probe() > 0.0);
    }
}
