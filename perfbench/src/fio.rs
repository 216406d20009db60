//! `fio_tinca_hdd` and `fio_classic_hdd`: random 4 KiB Fio traffic over
//! an 80 MiB file on an HDD-backed fssim stack.
//!
//! Both use the local-figure stack (`bench::figs::local_cfg`: 32 MiB NVM,
//! destage on for Tinca) with an HDD instead of the SSD, so the file is
//! 2.5x the NVM cache — the paper's dataset-to-cache ratio. The client
//! issues the paper's 3/7 read/write mix and an fsync every 64 writes.
//! Every write carries a payload stamped with its op sequence number, so
//! a lost or stale block is visible to the read-back check.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use blockdev::{BlockDevice, DiskKind, SimDisk, BLOCK_SIZE};
use classic::{ClassicCache, ClassicConfig, ClassicStats, MetadataScheme};
use fssim::stack::{Stack, StackConfig, System};
use fssim::{
    CacheBackend, ClassicBackend, FileId, FsError, FsSim, JournalMode, JournalStats, TincaBackend,
};
use nvmsim::{CrashPolicy, Nvm, NvmConfig, NvmDevice, NvmStats, SimClock};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tinca::{CacheStats, DynDisk, TincaCache, TincaConfig};

use crate::clocks::Clocks;
use crate::decor::{TracedBackend, TracedDisk, CLASSIC, CORE};
use crate::metrics::{self, LayerInputs};
use crate::trace::{self, span, Tracer};
use crate::{with_power_cut, OpLog, Round, SimResult};

/// File size: 80 MiB, 2.5x the 32 MiB NVM cache.
pub const FILE_BLOCKS: u64 = (80 << 20) / BLOCK_SIZE as u64;
/// Read share of the mix in percent (the paper's 3/7 read/write).
pub const READ_PCT: u32 = 30;
/// Writes per fsync.
pub const FSYNC_EVERY: u64 = 64;
/// fsyncs per op phase: enough for ten samples beyond the p99.
pub const FSYNCS: u64 = 1_010;
/// Blocks per preload write (1 MiB, as Fio lays out its file).
const PRELOAD_CHUNK: u64 = 256;
const FILE_NAME: &str = "fio.dat";

/// The stack configuration of both fio workloads.
pub fn stack_config(system: System) -> StackConfig {
    let mut cfg = bench::figs::local_cfg(system, false);
    cfg.disk_kind = DiskKind::Hdd;
    cfg
}

/// Fills `buf` with the stamp of file block `blk` as written by op `seq`:
/// the pair `(blk, seq)` repeated over the whole block.
pub fn stamp(buf: &mut [u8], blk: u64, seq: u64) {
    for pair in buf.chunks_exact_mut(16) {
        pair[..8].copy_from_slice(&blk.to_le_bytes());
        pair[8..].copy_from_slice(&seq.to_le_bytes());
    }
}

fn stamp_is(buf: &[u8], blk: u64, seq: u64) -> bool {
    buf.chunks_exact(16)
        .all(|pair| pair[..8] == blk.to_le_bytes() && pair[8..] == seq.to_le_bytes())
}

/// A fio stack plus the handles the traced round needs.
struct Built {
    stack: Stack,
    /// The disk as the cache sees it (decorated when traced).
    disk: DynDisk,
}

fn tinca_config(cfg: &StackConfig) -> TincaConfig {
    // Mirrors the private `StackConfig::tinca_config` for `System::Tinca`;
    // the transparency test pins the two together.
    TincaConfig {
        ring_bytes: cfg.ring_bytes,
        role_switch: true,
        batched_ring: false,
        destage: cfg.destage,
        coalesce_flushes: cfg.destage,
        ..TincaConfig::default()
    }
}

fn classic_config(cfg: &StackConfig) -> ClassicConfig {
    // Mirrors `StackConfig::classic_config` for `System::Classic`.
    ClassicConfig {
        assoc: cfg.assoc,
        sync_metadata: true,
        metadata_scheme: MetadataScheme::SyncBlock,
        ..ClassicConfig::default()
    }
}

fn nvm_of(cfg: &StackConfig, clock: SimClock) -> Nvm {
    NvmDevice::new(NvmConfig::new(cfg.nvm_bytes, cfg.nvm_tech), clock)
}

/// Builds the stack: `fssim::stack::build` untraced, or the same stack
/// with decorators at the `CacheBackend` and `BlockDevice` seams.
fn build(cfg: &StackConfig, traced: bool) -> Result<Built, FsError> {
    if !traced {
        return Ok(built_untraced(fssim::stack::build(cfg)?));
    }
    let clock = SimClock::new();
    let nvm = nvm_of(cfg, clock.clone());
    let raw = SimDisk::new(cfg.disk_kind, cfg.disk_blocks, clock.clone());
    let disk: DynDisk = Arc::new(TracedDisk::new(raw.clone()));
    let geo = cfg.geometry();
    let fs = if cfg.system == System::Tinca {
        let cache = TincaCache::format(nvm.clone(), disk.clone(), tinca_config(cfg));
        let backend = TracedBackend::new(TincaBackend::new(cache), CORE);
        FsSim::mkfs(Box::new(backend), geo, JournalMode::Tinca)?
    } else {
        let cache = ClassicCache::format(nvm.clone(), disk.clone(), classic_config(cfg));
        let backend = TracedBackend::new(ClassicBackend::new(cache), CLASSIC);
        FsSim::mkfs(Box::new(backend), geo, JournalMode::Jbd2)?
    };
    let stack = Stack {
        fs,
        nvm,
        disk: raw,
        clock,
        config: cfg.clone(),
    };
    Ok(Built { stack, disk })
}

/// Remounts after the power cut; returns the stack and the (sim, host)
/// time of the cache recovery alone (traced rounds; 0 otherwise).
fn remount(
    cfg: &StackConfig,
    traced: bool,
    built: Built,
    clocks: &Clocks,
) -> Result<(Built, (u64, u64)), FsError> {
    let Stack {
        fs,
        nvm,
        disk: raw,
        clock,
        ..
    } = built.stack;
    drop(fs);
    if !traced {
        let stack = fssim::stack::remount(cfg, nvm, raw, clock)?;
        return Ok((built_untraced(stack), (0, 0)));
    }
    let disk = built.disk;
    let geo = cfg.geometry();
    let (sim0, host0) = (clocks.now_ns(), Instant::now());
    let backend: Box<dyn CacheBackend> = if cfg.system == System::Tinca {
        let cache = TincaCache::recover(nvm.clone(), disk.clone(), tinca_config(cfg))
            .map_err(|e| FsError::Backend(e.to_string()))?;
        Box::new(TracedBackend::new(TincaBackend::new(cache), CORE))
    } else {
        let cache = ClassicCache::recover(nvm.clone(), disk.clone(), classic_config(cfg))
            .map_err(FsError::Backend)?;
        Box::new(TracedBackend::new(ClassicBackend::new(cache), CLASSIC))
    };
    let cache_recover = (clocks.now_ns() - sim0, host0.elapsed().as_nanos() as u64);
    let fs = FsSim::mount(backend, geo)?;
    let stack = Stack {
        fs,
        nvm,
        disk: raw,
        clock,
        config: cfg.clone(),
    };
    Ok((Built { stack, disk }, cache_recover))
}

fn built_untraced(stack: Stack) -> Built {
    let disk: DynDisk = stack.disk.clone();
    Built { stack, disk }
}

fn tinca_stats(fs: &FsSim) -> Option<CacheStats> {
    fs.backend()
        .as_any()
        .downcast_ref::<TincaBackend>()
        .map(|b| b.cache.stats())
}

fn classic_stats(fs: &FsSim) -> Option<ClassicStats> {
    fs.backend()
        .as_any()
        .downcast_ref::<ClassicBackend>()
        .map(|b| b.cache.stats())
}

fn journal_delta(now: Option<JournalStats>, then: Option<JournalStats>) -> Option<JournalStats> {
    let (n, t) = (now?, then?);
    Some(JournalStats {
        commits: n.commits - t.commits,
        log_blocks: n.log_blocks - t.log_blocks,
        desc_blocks: n.desc_blocks - t.desc_blocks,
        commit_blocks: n.commit_blocks - t.commit_blocks,
        checkpoint_blocks: n.checkpoint_blocks - t.checkpoint_blocks,
        replayed_txns: n.replayed_txns - t.replayed_txns,
        replayed_blocks: n.replayed_blocks - t.replayed_blocks,
    })
}

fn device_bytes(nvm: &NvmStats, disk_writes: u64) -> u64 {
    nvm.bytes_written_back() + disk_writes * BLOCK_SIZE as u64
}

/// Lays out the file: every block stamped with sequence number 0.
fn preload(fs: &mut FsSim) -> Result<FileId, FsError> {
    let f = fs.create(FILE_NAME)?;
    let mut chunk = vec![0u8; PRELOAD_CHUNK as usize * BLOCK_SIZE];
    let mut blk = 0;
    while blk < FILE_BLOCKS {
        let n = PRELOAD_CHUNK.min(FILE_BLOCKS - blk);
        for (i, b) in chunk.chunks_exact_mut(BLOCK_SIZE).enumerate() {
            stamp(b, blk + i as u64, 0);
        }
        fs.write(
            f,
            blk * BLOCK_SIZE as u64,
            &chunk[..n as usize * BLOCK_SIZE],
        )?;
        blk += n;
    }
    fs.fsync()?;
    Ok(f)
}

/// Phase 1: builds and formats the stack and lays out the file.
fn setup(cfg: &StackConfig, traced: bool) -> Result<(Built, FileId), FsError> {
    let mut b = build(cfg, traced)?;
    let f = preload(&mut b.stack.fs)?;
    Ok((b, f))
}

/// Host seconds of one set-up on `system`, on its own.
pub fn setup_seconds(system: System) -> Result<f64, FsError> {
    let t = Instant::now();
    setup(&stack_config(system), false)?;
    Ok(t.elapsed().as_secs_f64())
}

/// One round of a fio workload on `system`.
pub fn round(system: System, seed: u64, traced: bool) -> Round {
    let cfg = stack_config(system);
    let mut out = Round::default();

    // Phase 1: set-up.
    let t_setup = Instant::now();
    let (mut built, file) = match setup(&cfg, traced) {
        Ok(x) => x,
        Err(e) => {
            out.errors.push(format!("set-up: {e}"));
            return out;
        }
    };
    out.setup_s = t_setup.elapsed().as_secs_f64();

    // Phase 2: op phase.
    let clocks = Clocks::new(vec![built.stack.clock.clone()]);
    let nvm0 = built.stack.nvm.stats();
    let disk0 = built.stack.disk.stats();
    let (cache0, classic0) = (tinca_stats(&built.stack.fs), classic_stats(&built.stack.fs));
    let journal0 = built.stack.fs.journal_stats();
    let events0 = built.stack.nvm.events();
    if traced {
        trace::install(Tracer::new(clocks.clone()));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut expected = vec![0u64; FILE_BLOCKS as usize];
    let mut payload = vec![0u8; BLOCK_SIZE];
    let mut buf = vec![0u8; BLOCK_SIZE];
    let mut log = OpLog::default();
    let (mut ops, mut writes, mut user_bytes) = (0u64, 0u64, 0u64);
    let fs = &mut built.stack.fs;
    let sim0 = clocks.now_ns();
    log.start();
    while (log.commit_ns.len() as u64) < FSYNCS {
        ops += 1;
        trace::set_op(ops);
        let (blk, is_read) = {
            let _g = span("harness.gen");
            let blk = rng.gen_range(0..FILE_BLOCKS);
            let is_read = rng.gen_range(0..100) < READ_PCT;
            if !is_read {
                stamp(&mut payload, blk, ops);
            }
            (blk, is_read)
        };
        let off = blk * BLOCK_SIZE as u64;
        if is_read {
            let t = clocks.now_ns();
            let r = {
                let _s = span("fssim.read");
                fs.read(file, off, &mut buf)
            };
            log.read_ns.push(clocks.now_ns() - t);
            log.outcome(&r);
            // Reads see the last write.
            {
                let _g = span("harness.gen");
                if r.is_ok() && !stamp_is(&buf, blk, expected[blk as usize]) {
                    out.lost_acked_writes += 1;
                }
            }
            log.done(ops);
            continue;
        }
        let r = {
            let _s = span("fssim.write");
            fs.write(file, off, &payload)
        };
        log.outcome(&r);
        if r.is_err() {
            log.done(ops);
            continue;
        }
        expected[blk as usize] = ops;
        writes += 1;
        user_bytes += BLOCK_SIZE as u64;
        if writes.is_multiple_of(FSYNC_EVERY) {
            let t = clocks.now_ns();
            let r = {
                let _s = span("fssim.fsync");
                fs.fsync()
            };
            log.commit_ns.push(clocks.now_ns() - t);
            log.outcome(&r);
        }
        log.done(ops);
    }
    // The loop ends on an fsync, so every write is acknowledged.
    let op_host_ns = log.host_ns();
    let op_sim_ns = clocks.now_ns() - sim0;
    let tracer = trace::uninstall();
    let summary = tracer.as_ref().map(Tracer::summary);
    out.spans = tracer.map(Tracer::into_spans).unwrap_or_default();
    let stack = &built.stack;
    let nvm_op = stack.nvm.stats().delta(&nvm0);
    let disk_op = stack.disk.stats().delta(&disk0);
    let cache_op = tinca_stats(&stack.fs).zip(cache0).map(|(n, t)| n.delta(&t));
    let classic_op = classic_stats(&stack.fs)
        .zip(classic0)
        .map(|(n, t)| n.delta(&t));
    let journal_op = journal_delta(stack.fs.journal_stats(), journal0);
    out.op_host_s = op_host_ns as f64 / 1e9;
    out.probe_s = std::mem::take(&mut log.probe_s);
    out.attempted = log.attempted;
    out.failed = log.failed;

    // Phase 3: power cut inside one more batch of writes and its fsync,
    // halfway through an fsync's mean NVM persistence events; then
    // recovery.
    let trip = ((built.stack.nvm.events() - events0) / FSYNCS / 2).max(1);
    let mut inflight = BTreeMap::new();
    let nvm = built.stack.nvm.clone();
    let fs = &mut built.stack.fs;
    let batch = with_power_cut(&nvm, trip, || -> Result<(), FsError> {
        for seq in ops + 1..=ops + FSYNC_EVERY {
            let blk = rng.gen_range(0..FILE_BLOCKS);
            stamp(&mut payload, blk, seq);
            inflight.insert(blk, seq);
            fs.write(file, blk * BLOCK_SIZE as u64, &payload)?;
        }
        fs.fsync()
    });
    match batch {
        Some(Ok(())) => {
            for (blk, seq) in std::mem::take(&mut inflight) {
                expected[blk as usize] = seq;
            }
        }
        Some(Err(e)) => out.errors.push(format!("in-flight batch: {e}")),
        None => {}
    }
    nvm.crash(CrashPolicy::LoseVolatile);
    let sim_cut = clocks.now_ns();
    let (mut built, cache_recover) = match remount(&cfg, traced, built, &clocks) {
        Ok(x) => x,
        Err(e) => {
            out.errors.push(format!("recovery: {e}"));
            return out;
        }
    };
    let recovery_ns = clocks.now_ns() - sim_cut;

    // Phase 4: drain.
    let (sim_d, host_d) = (clocks.now_ns(), Instant::now());
    if let Err(e) = built.stack.fs.backend_mut().flush_all() {
        out.errors.push(format!("drain: {e}"));
    }
    let drain = (clocks.now_ns() - sim_d, host_d.elapsed().as_nanos() as u64);
    let written = device_bytes(
        &built.stack.nvm.stats().delta(&nvm0),
        built.stack.disk.stats().delta(&disk0).writes,
    );

    // Read-back check of every acknowledged write. It runs after the
    // drain because reading 2.5x the cache through it would evict and
    // write back the very blocks the drain is meant to measure.
    verify(&mut built.stack.fs, &expected, &inflight, &mut out);

    log.commit_ns.sort_unstable();
    log.read_ns.sort_unstable();
    out.sim = SimResult {
        ops,
        op_ns: op_sim_ns,
        commit_ns: log.commit_ns,
        read_ns: log.read_ns,
        user_bytes,
        device_bytes: written,
        recovery_ns,
        drain_ns: drain.0,
    };
    out.layers = summary.map(|summary| {
        metrics::per_layer(&LayerInputs {
            summary,
            sim: &out.sim,
            op_host_ns,
            durability_calls: FSYNCS,
            nvm: nvm_op,
            disk_reads: disk_op.reads,
            disk_writes: disk_op.writes,
            disk_busy_ns: disk_op.busy_ns,
            disk_fg_sim_ns: None,
            cache: cache_op,
            classic: classic_op,
            journal: journal_op,
            spanning_share: 0.0,
            cache_flush_all: drain,
            cache_recover,
        })
    });
    out
}

/// Reads every block back. A block must hold its last acknowledged write
/// or, if the power cut interrupted a write to it, that write.
fn verify(fs: &mut FsSim, expected: &[u64], inflight: &BTreeMap<u64, u64>, out: &mut Round) {
    let file = match fs.open(FILE_NAME) {
        Ok(f) => f,
        Err(e) => {
            out.errors.push(format!("open after recovery: {e}"));
            return;
        }
    };
    let mut buf = vec![0u8; BLOCK_SIZE];
    for (blk, &seq) in expected.iter().enumerate() {
        let blk = blk as u64;
        match fs.read(file, blk * BLOCK_SIZE as u64, &mut buf) {
            Ok(n) if n == BLOCK_SIZE && stamp_is(&buf, blk, seq) => {}
            Ok(n)
                if n == BLOCK_SIZE
                    && inflight.get(&blk).is_some_and(|&s| stamp_is(&buf, blk, s)) => {}
            _ => out.lost_acked_writes += 1,
        }
    }
    if let Err(e) = fs.check_consistency() {
        out.errors.push(format!("fs consistency: {e}"));
    }
    if let Err(e) = fs.backend().check() {
        out.errors.push(format!("cache consistency: {e}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamps_round_trip() {
        let mut b = vec![0u8; BLOCK_SIZE];
        stamp(&mut b, 7, 42);
        assert!(stamp_is(&b, 7, 42));
        assert!(!stamp_is(&b, 7, 41));
        assert!(!stamp_is(&b, 8, 42));
    }

    #[test]
    fn file_is_two_and_a_half_caches() {
        let cfg = stack_config(System::Tinca);
        assert_eq!(
            FILE_BLOCKS * BLOCK_SIZE as u64 * 2,
            cfg.nvm_bytes as u64 * 5
        );
        assert_eq!(cfg.disk_kind, DiskKind::Hdd);
    }
}
