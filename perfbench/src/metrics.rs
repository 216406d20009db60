//! Metric names, units, and the reduction of a traced round to the
//! per-layer metrics. `BENCHMARK.json` lists the same names; the README
//! maps each per-layer metric to the end-to-end metric it should move.

use std::collections::BTreeMap;

use classic::ClassicStats;
use fssim::JournalStats;
use nvmsim::NvmStats;
use tinca::CacheStats;

use crate::clocks::quantile;
use crate::trace::Summary;
use crate::SimResult;

/// End-to-end metrics (untraced run): name, unit and clock.
pub const END_TO_END: [(&str, &str, &str); 9] = [
    ("ops_per_sim_s", "ops/s", "sim"),
    ("commit_mean_sim_us", "us", "sim"),
    ("commit_p99_sim_us", "us", "sim"),
    ("write_amp", "ratio", "count"),
    ("drain_sim_ms", "ms", "sim"),
    ("recovery_sim_ms", "ms", "sim"),
    ("host_ops_per_s", "ops/s", "host"),
    ("setup_s", "s", "host"),
    ("host_peak_rss_mb", "MiB", "host"),
];

/// Per-layer metrics (traced run): name and unit.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("harness.gen.host_ns_per_op", "ns"),
    ("harness.host_speed", "ratio"),
    ("harness.attributed_frac_sim", "ratio"),
    ("harness.attributed_frac_host", "ratio"),
    ("harness.trace_overhead_frac", "ratio"),
    ("kvdb.self.host_ns_per_op", "ns"),
    ("kvdb.page_reads_per_op", "count"),
    ("kvdb.pages_per_commit", "count"),
    ("fssim.self.host_ns_per_op", "ns"),
    ("fssim.pagecache_hit_ratio", "ratio"),
    ("fssim.backend_calls_per_fsync", "count"),
    ("fssim.jbd2.journal_blocks_per_fsync", "count"),
    ("fssim.jbd2.checkpoint_blocks_per_fsync", "count"),
    ("fssim.read.p50_sim_us", "us"),
    ("fssim.read.p99_sim_us", "us"),
    ("core.commit.calls_per_op", "count"),
    ("core.commit.sim_ns_per_call", "ns"),
    ("core.commit.self_sim_ns_per_call", "ns"),
    ("core.commit.host_ns_per_call", "ns"),
    ("core.read.sim_ns_per_call", "ns"),
    ("core.read.host_ns_per_call", "ns"),
    ("core.read_hit_ratio", "ratio"),
    ("core.evictions_per_op", "count"),
    ("core.writebacks_per_op", "count"),
    ("core.destage_blocks_per_batch", "count"),
    ("core.destage_stalls", "count"),
    ("core.spanning_share", "ratio"),
    ("core.flush_all.sim_ns", "ns"),
    ("core.flush_all.host_ns", "ns"),
    ("core.recover.sim_ns", "ns"),
    ("core.recover.host_ns", "ns"),
    ("core.self.host_ns_per_op", "ns"),
    ("classic.write_block.sim_ns_per_call", "ns"),
    ("classic.read.sim_ns_per_call", "ns"),
    ("classic.read_hit_ratio", "ratio"),
    ("classic.meta_block_writes_per_write", "count"),
    ("classic.self.host_ns_per_op", "ns"),
    ("classic.flush_all.sim_ns", "ns"),
    ("classic.recover.sim_ns", "ns"),
    ("nvmsim.clflush_per_commit", "count"),
    ("nvmsim.sfence_per_commit", "count"),
    ("nvmsim.bytes_written_back_per_user_byte", "ratio"),
    ("nvmsim.lines_read_per_op", "count"),
    ("blockdev.read.calls_per_op", "count"),
    ("blockdev.read.sim_ns_per_call", "ns"),
    ("blockdev.write.blocks_per_op", "count"),
    ("blockdev.write_blocks.blocks_per_call", "count"),
    ("blockdev.fg_sim_ns_per_op", "ns"),
    ("blockdev.busy_ns_per_op", "ns"),
    ("blockdev.self.host_ns_per_op", "ns"),
];

/// What a traced round hands to [`per_layer`]. Stats are op-phase deltas.
pub struct LayerInputs<'a> {
    pub summary: Summary,
    pub sim: &'a SimResult,
    pub op_host_ns: u64,
    /// Durability calls in the op phase (kv commits, fsyncs).
    pub durability_calls: u64,
    pub nvm: NvmStats,
    pub disk_reads: u64,
    pub disk_writes: u64,
    pub disk_busy_ns: u64,
    /// Foreground disk time where no `BlockDevice` decorator sits (kv:
    /// the store's disk clock); `None` takes it from the disk spans.
    pub disk_fg_sim_ns: Option<u64>,
    /// Tinca cache or pool counters.
    pub cache: Option<CacheStats>,
    pub classic: Option<ClassicStats>,
    pub journal: Option<JournalStats>,
    pub spanning_share: f64,
    /// (sim ns, host ns) of the cache layer's `flush_all` (the drain).
    pub cache_flush_all: (u64, u64),
    /// (sim ns, host ns) of the cache layer's recovery alone.
    pub cache_recover: (u64, u64),
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Reduces a traced round to every [`PER_LAYER`] metric (0 where a layer
/// is not on the workload's path). `harness.trace_overhead_frac` and
/// `harness.host_speed` need the untraced run and are filled in by the
/// caller.
pub fn per_layer(x: &LayerInputs<'_>) -> BTreeMap<&'static str, f64> {
    let s = &x.summary;
    let ops = x.sim.ops as f64;
    let per_op = |v: u64| ratio(v as f64, ops);
    let is_classic = x.classic.is_some();
    let backend = if is_classic { "classic" } else { "core" };
    let fsyncs = s.get("fssim.fsync").calls as f64;
    let fs_reads = s.get("fssim.read").calls as f64;
    let backend_reads = s.edge("fssim.read", &format!("{backend}.read")) as f64;
    let backend_in_fsync: u64 = s
        .edges
        .iter()
        .filter(|((p, c), _)| *p == "fssim.fsync" && c.starts_with(backend))
        .map(|(_, n)| n)
        .sum();
    let commit = s.get("core.commit");
    let read = s.get("core.read");
    let cache = x.cache.unwrap_or_default();
    let classic = x.classic.unwrap_or_default();
    let journal = x.journal.unwrap_or_default();
    let wb = s.get("blockdev.write_blocks");
    let disk_span_sim = ["blockdev.read", "blockdev.write", "blockdev.write_blocks"]
        .iter()
        .map(|n| s.get(n).sim_ns)
        .sum::<u64>();
    let (cflush, crecover) = if is_classic {
        ((0, 0), (0, 0))
    } else {
        (x.cache_flush_all, x.cache_recover)
    };
    let classic_read = s.get("classic.read");
    let classic_write = s.get("classic.write_block");
    let us = |ns: u64| ns as f64 / 1e3;
    let fs_read_ns: &[u64] = if fs_reads > 0.0 { &x.sim.read_ns } else { &[] };

    let m: [(&'static str, f64); 48] = [
        (
            "harness.gen.host_ns_per_op",
            per_op(s.get("harness.gen").host_ns),
        ),
        (
            "harness.attributed_frac_sim",
            ratio(s.top_sim_ns as f64, x.sim.op_ns as f64),
        ),
        (
            "harness.attributed_frac_host",
            ratio(s.top_host_ns as f64, x.op_host_ns as f64),
        ),
        ("kvdb.self.host_ns_per_op", per_op(s.layer_self("kvdb").1)),
        (
            "kvdb.page_reads_per_op",
            per_op(s.edge("kvdb.get", "core.read")),
        ),
        (
            "kvdb.pages_per_commit",
            ratio(s.counter("core.commit.pages") as f64, commit.calls as f64),
        ),
        ("fssim.self.host_ns_per_op", per_op(s.layer_self("fssim").1)),
        (
            "fssim.pagecache_hit_ratio",
            if fs_reads > 0.0 {
                1.0 - backend_reads / fs_reads
            } else {
                0.0
            },
        ),
        (
            "fssim.backend_calls_per_fsync",
            ratio(backend_in_fsync as f64, fsyncs),
        ),
        (
            "fssim.jbd2.journal_blocks_per_fsync",
            ratio(
                (journal.log_blocks + journal.desc_blocks + journal.commit_blocks) as f64,
                fsyncs,
            ),
        ),
        (
            "fssim.jbd2.checkpoint_blocks_per_fsync",
            ratio(journal.checkpoint_blocks as f64, fsyncs),
        ),
        ("fssim.read.p50_sim_us", us(quantile(fs_read_ns, 0.50))),
        ("fssim.read.p99_sim_us", us(quantile(fs_read_ns, 0.99))),
        ("core.commit.calls_per_op", per_op(commit.calls)),
        (
            "core.commit.sim_ns_per_call",
            ratio(commit.sim_ns as f64, commit.calls as f64),
        ),
        (
            "core.commit.self_sim_ns_per_call",
            ratio(commit.self_sim_ns as f64, commit.calls as f64),
        ),
        (
            "core.commit.host_ns_per_call",
            ratio(commit.host_ns as f64, commit.calls as f64),
        ),
        (
            "core.read.sim_ns_per_call",
            ratio(read.sim_ns as f64, read.calls as f64),
        ),
        (
            "core.read.host_ns_per_call",
            ratio(read.host_ns as f64, read.calls as f64),
        ),
        (
            "core.read_hit_ratio",
            ratio(
                cache.read_hits as f64,
                (cache.read_hits + cache.read_misses) as f64,
            ),
        ),
        ("core.evictions_per_op", per_op(cache.evictions)),
        ("core.writebacks_per_op", per_op(cache.writebacks)),
        (
            "core.destage_blocks_per_batch",
            ratio(cache.destage_blocks as f64, cache.destage_batches as f64),
        ),
        ("core.destage_stalls", cache.destage_stalls as f64),
        ("core.spanning_share", x.spanning_share),
        ("core.flush_all.sim_ns", cflush.0 as f64),
        ("core.flush_all.host_ns", cflush.1 as f64),
        ("core.recover.sim_ns", crecover.0 as f64),
        ("core.recover.host_ns", crecover.1 as f64),
        ("core.self.host_ns_per_op", per_op(s.layer_self("core").1)),
        (
            "classic.write_block.sim_ns_per_call",
            ratio(classic_write.sim_ns as f64, classic_write.calls as f64),
        ),
        (
            "classic.read.sim_ns_per_call",
            ratio(classic_read.sim_ns as f64, classic_read.calls as f64),
        ),
        (
            "classic.read_hit_ratio",
            ratio(
                classic.read_hits as f64,
                (classic.read_hits + classic.read_misses) as f64,
            ),
        ),
        (
            "classic.meta_block_writes_per_write",
            ratio(
                classic.meta_block_writes as f64,
                (classic.write_hits + classic.write_misses) as f64,
            ),
        ),
        (
            "classic.self.host_ns_per_op",
            per_op(s.layer_self("classic").1),
        ),
        (
            "classic.flush_all.sim_ns",
            if is_classic {
                x.cache_flush_all.0 as f64
            } else {
                0.0
            },
        ),
        (
            "classic.recover.sim_ns",
            if is_classic {
                x.cache_recover.0 as f64
            } else {
                0.0
            },
        ),
        (
            "nvmsim.clflush_per_commit",
            ratio(x.nvm.clflush as f64, x.durability_calls as f64),
        ),
        (
            "nvmsim.sfence_per_commit",
            ratio(x.nvm.sfence as f64, x.durability_calls as f64),
        ),
        (
            "nvmsim.bytes_written_back_per_user_byte",
            ratio(x.nvm.bytes_written_back() as f64, x.sim.user_bytes as f64),
        ),
        ("nvmsim.lines_read_per_op", per_op(x.nvm.lines_read)),
        ("blockdev.read.calls_per_op", per_op(x.disk_reads)),
        (
            "blockdev.read.sim_ns_per_call",
            ratio(
                s.get("blockdev.read").sim_ns as f64,
                s.get("blockdev.read").calls as f64,
            ),
        ),
        ("blockdev.write.blocks_per_op", per_op(x.disk_writes)),
        (
            "blockdev.write_blocks.blocks_per_call",
            ratio(
                s.counter("blockdev.write_blocks.blocks") as f64,
                wb.calls as f64,
            ),
        ),
        (
            "blockdev.fg_sim_ns_per_op",
            per_op(x.disk_fg_sim_ns.unwrap_or(disk_span_sim)),
        ),
        ("blockdev.busy_ns_per_op", per_op(x.disk_busy_ns)),
        (
            "blockdev.self.host_ns_per_op",
            per_op(s.layer_self("blockdev").1),
        ),
    ];
    let mut out: BTreeMap<&'static str, f64> = m.into_iter().collect();
    out.insert("harness.trace_overhead_frac", 0.0);
    out.insert("harness.host_speed", 0.0);
    debug_assert!(PER_LAYER.iter().all(|(n, _)| out.contains_key(n)));
    debug_assert_eq!(out.len(), PER_LAYER.len());
    out
}
