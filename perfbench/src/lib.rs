//! End-to-end benchmark of the Tinca reproduction.
//!
//! One closed-loop client drives one of three workloads through four
//! phases: set-up (format, preload), the op phase, a power cut followed by
//! recovery, and a drain (`flush_all`). Every acknowledged write is then
//! read back and checked. A round is one pass through the phases; it is a
//! pure function of the seed in simulated time. The binary repeats rounds
//! to fill its host-time budget and reports medians.
//!
//! With tracing on, pass-through decorators ([`decor`]) and spans around
//! the client's calls ([`trace`]) time every layer boundary, and
//! [`metrics::per_layer`] reduces the trace to the per-layer metrics.

pub mod clocks;
pub mod decor;
pub mod fio;
pub mod kv;
pub mod metrics;
pub mod trace;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::time::Instant;

use nvmsim::{CrashTripped, Nvm};

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// kvdb B-tree over a 2-shard `TincaStore`, TPC-C key stream, data
    /// fits in NVM.
    KvTpccFit,
    /// fssim in Tinca mode, random 4 KiB Fio traffic on an HDD, data 2.5x
    /// the NVM cache.
    FioTincaHdd,
    /// The same traffic on Ext4+JBD2 over Flashcache (the paper's
    /// baseline).
    FioClassicHdd,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::KvTpccFit,
        Workload::FioTincaHdd,
        Workload::FioClassicHdd,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::KvTpccFit => "kv_tpcc_fit",
            Workload::FioTincaHdd => "fio_tinca_hdd",
            Workload::FioClassicHdd => "fio_classic_hdd",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Host seconds of one set-up alone (build, format, preload).
    pub fn setup_seconds(self) -> Result<f64, String> {
        match self {
            Workload::KvTpccFit => kv::setup_seconds().map_err(|e| e.to_string()),
            Workload::FioTincaHdd => {
                fio::setup_seconds(fssim::stack::System::Tinca).map_err(|e| e.to_string())
            }
            Workload::FioClassicHdd => {
                fio::setup_seconds(fssim::stack::System::Classic).map_err(|e| e.to_string())
            }
        }
    }

    /// Runs one round at `seed`, traced or not.
    pub fn round(self, seed: u64, traced: bool) -> Round {
        match self {
            Workload::KvTpccFit => kv::round(seed, traced),
            Workload::FioTincaHdd => fio::round(fssim::stack::System::Tinca, seed, traced),
            Workload::FioClassicHdd => fio::round(fssim::stack::System::Classic, seed, traced),
        }
    }
}

/// Simulated-clock outcome of a round: deterministic in the seed (the one
/// known exception is `drain_ns` on `fio_tinca_hdd`, whose writeback order
/// follows a `HashMap`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SimResult {
    /// Client requests in the op phase (kv txns; fio reads + writes).
    pub ops: u64,
    /// Simulated time of the op phase.
    pub op_ns: u64,
    /// Sorted latencies of the durability call (`Db::commit` / `fsync`).
    pub commit_ns: Vec<u64>,
    /// Sorted latencies of the read call (`Db::get` / `FsSim::read`).
    pub read_ns: Vec<u64>,
    /// Bytes the client wrote in the op phase (kv: key + value bytes).
    pub user_bytes: u64,
    /// NVM bytes written back plus disk bytes written, from the end of
    /// set-up to the end of the drain.
    pub device_bytes: u64,
    /// Power cut to ready: cache recovery plus `Db::open` or FS mount.
    pub recovery_ns: u64,
    /// `flush_all` after recovery.
    pub drain_ns: u64,
}

impl SimResult {
    /// The simulated-clock end-to-end metrics, by name.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        let us = |ns: u64| ns as f64 / 1e3;
        vec![
            ("ops_per_sim_s", self.ops as f64 / (self.op_ns as f64 / 1e9)),
            (
                "commit_mean_sim_us",
                us(self.commit_ns.iter().sum::<u64>()) / self.commit_ns.len() as f64,
            ),
            (
                "commit_p99_sim_us",
                us(clocks::quantile(&self.commit_ns, 0.99)),
            ),
            (
                "write_amp",
                self.device_bytes as f64 / self.user_bytes as f64,
            ),
            ("drain_sim_ms", self.drain_ns as f64 / 1e6),
            ("recovery_sim_ms", self.recovery_ns as f64 / 1e6),
        ]
    }
}

/// Everything one round reports.
#[derive(Clone, Debug, Default)]
pub struct Round {
    pub sim: SimResult,
    /// Host seconds of set-up: build, format and preload.
    pub setup_s: f64,
    /// Host seconds of the op phase, without the speed probes.
    pub op_host_s: f64,
    /// Seconds of each [`clocks::probe`] taken during the op phase.
    pub probe_s: Vec<f64>,
    /// Client calls issued (fio: reads, writes, fsyncs; kv: `begin`,
    /// `get`, `put`, `commit`).
    pub attempted: u64,
    /// Client ops that returned `Err`.
    pub failed: u64,
    /// Acknowledged writes missing or stale after recovery, plus reads in
    /// the op phase that returned something other than the last write.
    pub lost_acked_writes: u64,
    /// Failed structural checks (`Db::validate`, `check_consistency`).
    pub errors: Vec<String>,
    /// Per-layer metrics (traced rounds only).
    pub layers: Option<BTreeMap<&'static str, f64>>,
    /// The op phase's spans (traced rounds only).
    pub spans: Vec<trace::Span>,
}

/// Runs `f` with power armed to fail `trip` persistence events from now
/// on `nvm`: `Some` with its result if `f` finished first, `None` if the
/// power cut interrupted it. The caller then crashes the devices.
pub(crate) fn with_power_cut<T>(nvm: &Nvm, trip: u64, f: impl FnOnce() -> T) -> Option<T> {
    crashsim::quiet_crash_panics();
    nvm.set_trip(Some(trip));
    let outcome = catch_unwind(AssertUnwindSafe(f));
    nvm.set_trip(None);
    match outcome {
        Ok(v) => Some(v),
        Err(p) if p.downcast_ref::<CrashTripped>().is_some() => None,
        Err(p) => resume_unwind(p),
    }
}

/// Client requests between two speed probes in the op phase. A probe
/// costs about 0.3% of the requests' host time.
pub const PROBE_EVERY: u64 = 500;

/// Per-op bookkeeping shared by the workloads' op loops.
pub(crate) struct OpLog {
    pub commit_ns: Vec<u64>,
    pub read_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    start: Instant,
    pub probe_s: Vec<f64>,
}

impl Default for OpLog {
    fn default() -> Self {
        OpLog {
            commit_ns: Vec::new(),
            read_ns: Vec::new(),
            attempted: 0,
            failed: 0,
            start: Instant::now(),
            probe_s: Vec::new(),
        }
    }
}

impl OpLog {
    /// Starts the op phase's host clock.
    pub fn start(&mut self) {
        self.start = Instant::now();
    }

    /// Host nanoseconds since [`OpLog::start`], less the probes'.
    pub fn host_ns(&self) -> u64 {
        let probes: f64 = self.probe_s.iter().sum();
        ((self.start.elapsed().as_secs_f64() - probes).max(0.0) * 1e9) as u64
    }

    /// Call after client request `op` (1-based) completes.
    pub fn done(&mut self, op: u64) {
        if op.is_multiple_of(PROBE_EVERY) {
            self.probe_s.push(clocks::probe());
        }
    }

    /// Records one client call's outcome.
    pub fn outcome<T, E>(&mut self, r: &Result<T, E>) {
        self.attempted += 1;
        if r.is_err() {
            self.failed += 1;
        }
    }
}
