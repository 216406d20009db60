//! Multi-writer scaling figure — the pool's ring commit pipeline with
//! several windows in flight (DESIGN §16).
//!
//! Sweeps 1–16 logical writers against `N = 1` and `N = 4` shard pools,
//! running the lane-disjoint transaction stream through the steppable
//! window API: each round reserves one window per writer, stages
//! payloads on private clocks (overlapped), publishes in rotated order
//! and lets one sequencer round retire the whole batch with a single
//! fence. The 1-writer row is the serialised baseline: the same
//! pipeline and the same per-transaction work with one window in flight,
//! every step on the shard clock. All numbers are simulated ns from the
//! deterministic lane model, not hardware measurements.
//!
//! The headline gate is the single-shard speedup at 8 writers: the
//! pipeline must reach **≥ 2x** its 1-writer commit throughput, and the
//! uncontended 1-writer cost must not drift (both gated via
//! `BENCH_9.json`). Every point runs on traced devices and must pass the
//! persist-order + HB-race audit per shard *and* on the merged
//! pool-wide trace. The run embeds the multi-writer crash smoke: a
//! random-trip fuzz sweep (200 seeds full, covering crash-mid-
//! publication) and a bounded-exhaustive frontier enumeration over
//! concurrent publication orders — both must be violation-free.

use blockdev::{DiskKind, SimDisk};
use crashsim::FrontierReport;
use nvmsim::{merge_shard_traces, shard_devices, Nvm, NvmConfig, NvmTech, SimClock};
use persistcheck::{CheckConfig, Checker};
use tinca::{PoolConfig, TincaConfig, TincaPool};
use workloads::mtfio::{MtFio, MtFioSpec, MtReport};

use crate::ledger::Better::{Higher, Info, Lower};
use crate::ledger::Ledger;
use crate::table::Table;
use crate::{banner, figure_json, fmt, write_csv};

/// One measured (shards, writers) point.
pub struct MwPoint {
    pub shards: usize,
    pub writers: usize,
    pub report: MtReport,
    /// Commit cost: the shard clocks' parallel wall time per transaction
    /// (the pipeline's overlap is what those clocks already model).
    pub ns_per_txn: f64,
    /// Persist-order + race violations over per-shard and merged traces.
    pub violations: usize,
}

/// Everything the figure produced (for the bin's acceptance checks).
pub struct MwScalingResult {
    pub table: Table,
    /// Single-shard throughput at 8 writers over 1 writer.
    pub speedup_x_8w: f64,
    /// Uncontended (1 writer, 1 shard) commit cost.
    pub mw_ns_per_txn_1w: f64,
    pub persist_clean: bool,
    pub fuzz: crashsim::PoolFuzzReport,
    pub frontier: FrontierReport,
}

fn build_pool(shards: usize, quick: bool) -> (TincaPool, Vec<Nvm>) {
    let per_shard = if quick { 2 << 20 } else { 4 << 20 };
    let devices = shard_devices(
        &NvmConfig::new(shards * per_shard, NvmTech::Pcm).with_tracing(),
        shards,
    );
    let disk = SimDisk::new(DiskKind::Ssd, 1 << 20, SimClock::new());
    let pool = TincaPool::format(
        devices.clone(),
        disk,
        PoolConfig {
            shards,
            cache: TincaConfig {
                ring_bytes: 16 << 10,
                ..TincaConfig::default()
            },
        },
    );
    (pool, devices)
}

/// Runs one point: the lane workload through the ring pipeline, then
/// the persist-order audit of each shard's trace and the merged pool
/// trace.
fn run_point(shards: usize, writers: usize, quick: bool) -> MwPoint {
    let (pool, devices) = build_pool(shards, quick);
    let spec = MtFioSpec {
        threads: writers,
        read_pct: 0, // a pure commit-path figure
        blocks: if quick { 512 } else { 2048 },
        ops_per_thread: if quick { 150 } else { 800 },
        txn_blocks: 2,
        seed: 0x3757_0009 + shards as u64,
    };
    let report = MtFio::new(spec).run_multi_writer(&pool);
    pool.flush_all().expect("quiesce after measured phase");
    let ns_per_txn = report.wall_ns as f64 / report.write_txns.max(1) as f64;

    let mut violations = 0usize;
    let traces: Vec<_> = devices.iter().map(|d| d.take_trace()).collect();
    let ranges: Vec<_> = (0..shards).map(|s| pool.shard_metadata_ranges(s)).collect();
    for (s, trace) in traces.iter().enumerate() {
        let mut checker = Checker::new(CheckConfig::with_metadata(ranges[s].clone()));
        checker.push_all(trace);
        let r = checker.report();
        if !r.is_clean() {
            violations += r.violations.len();
            eprintln!("--- shard {s} ({shards} shards, {writers} writers) ---\n{r}");
        }
    }
    let shard_capacity = devices[0].capacity();
    let merged_ranges: Vec<_> = ranges
        .iter()
        .enumerate()
        .flat_map(|(s, rs)| {
            let base = s * shard_capacity;
            rs.iter().map(move |r| r.start + base..r.end + base)
        })
        .collect();
    let mut checker = Checker::new(CheckConfig::with_metadata(merged_ranges));
    checker.push_all(&merge_shard_traces(traces, shard_capacity));
    let r = checker.report();
    if !r.is_clean() {
        violations += r.violations.len();
        eprintln!("--- merged trace ({shards} shards, {writers} writers) ---\n{r}");
    }

    MwPoint {
        shards,
        writers,
        report,
        ns_per_txn,
        violations,
    }
}

/// Runs the figure: the writer sweep on both pools, the embedded
/// multi-writer crash campaigns, and `BENCH_9.json`.
pub fn run(quick: bool) -> MwScalingResult {
    banner(
        "mw_scaling",
        "Multi-writer commit: ring pipeline, 1-16 writers in flight vs 1",
        ">=2x single-shard throughput at 8 writers over 1; persistcheck clean; mw crash campaigns clean",
    );
    let writer_counts: &[usize] = if quick { &[1, 8] } else { &[1, 2, 4, 8, 16] };
    let mut t = Table::new(&[
        "shards",
        "writers",
        "sim ns/txn",
        "ktxn/sim-s",
        "group %",
        "speedup x",
        "violations",
    ]);
    let mut persist_clean = true;
    let mut speedup_x_8w = 0.0f64;
    let mut mw_ns_per_txn_1w = 0.0f64;
    let mut mw_ns_per_txn_8w = 0.0f64;
    for &shards in &[1usize, 4] {
        let mut serial_ns = f64::MIN_POSITIVE;
        for &writers in writer_counts {
            let p = run_point(shards, writers, quick);
            persist_clean &= p.violations == 0;
            if writers == 1 {
                serial_ns = p.ns_per_txn;
            }
            let speedup = serial_ns / p.ns_per_txn.max(f64::MIN_POSITIVE);
            if shards == 1 && writers == 1 {
                mw_ns_per_txn_1w = p.ns_per_txn;
            }
            if shards == 1 && writers == 8 {
                speedup_x_8w = speedup;
                mw_ns_per_txn_8w = p.ns_per_txn;
            }
            t.row(vec![
                shards.to_string(),
                writers.to_string(),
                fmt(p.ns_per_txn),
                fmt(1e6 / p.ns_per_txn),
                fmt(p.report.batched_fraction() * 100.0),
                format!("{speedup:.2}"),
                p.violations.to_string(),
            ]);
        }
    }
    t.print();
    println!(
        "single shard: 1 writer {:.0} sim ns/txn, 8 writers {:.0} sim ns/txn -> {:.2}x \
         (persistcheck {})",
        mw_ns_per_txn_1w,
        mw_ns_per_txn_8w,
        speedup_x_8w,
        if persist_clean { "CLEAN" } else { "FAIL" }
    );
    write_csv("mw_scaling", &t.headers(), t.rows());

    // Embedded crash smoke over the concurrent commit path: random-trip
    // fuzz (200 seeds full — the acceptance sweep, crash-mid-publication
    // included) and bounded-exhaustive frontier enumeration over
    // publication orders.
    let fuzz = crashsim::mw_pool_fuzz_campaign(2, 0x3757_B900, if quick { 40 } else { 200 }, 20);
    println!(
        "mw fuzz: {} runs, {} crashes, {} violations",
        fuzz.runs,
        fuzz.crashes,
        fuzz.violations.len()
    );
    for v in &fuzz.violations {
        eprintln!("  violation: {v}");
    }
    let frontier = crashsim::mw_frontier_campaign(2, 0x3757_B901, if quick { 3 } else { 4 }, 6);
    println!("mw frontier: {frontier}");
    for v in &frontier.violations {
        eprintln!("  violation: {v}");
    }

    // BENCH_9.json: the 8-writer speedup must not shrink and the
    // uncontended ring cost must not drift.
    Ledger {
        bench: "mw_scaling",
        quick,
        gate: vec![
            ("mw_speedup_x_8w", Higher, speedup_x_8w),
            ("mw_ns_per_txn_1w", Lower, mw_ns_per_txn_1w),
            ("mw_ns_per_txn_8w", Info, mw_ns_per_txn_8w),
        ],
        campaigns: vec![("fuzz", &fuzz), ("frontier", &frontier)],
        persistcheck_clean: Some(persist_clean),
        context: vec![("figure", figure_json("mw_scaling", &t.headers(), t.rows()))],
    }
    .write(9);

    MwScalingResult {
        table: t,
        speedup_x_8w,
        mw_ns_per_txn_1w,
        persist_clean,
        fuzz,
        frontier,
    }
}
