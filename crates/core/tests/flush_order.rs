// Integration tests are exempt from the crate's unwrap/expect ban.
#![allow(clippy::disallowed_methods, clippy::disallowed_macros)]

//! `flush_all` writes back through the same address-sorted vectored path
//! as the destage daemon, so its write order — and with it HDD seek time
//! and which requests an op-order fault plan hits — depends only on the
//! cache contents, never on hash-map iteration order.

use std::sync::{Arc, Mutex};

use blockdev::{
    BatchReport, BlockDevice, DiskKind, DiskStats, FaultPlan, FaultStats, FaultyDisk, IoError,
    IoLane, SimDisk, BLOCK_SIZE,
};
use nvmsim::{NvmConfig, NvmDevice, NvmTech, SimClock};
use tinca::{TincaCache, TincaConfig};

/// Pass-through device that logs the block number of every write request
/// in submission order (retries included).
struct WriteLog {
    inner: Arc<dyn BlockDevice>,
    blocks: Mutex<Vec<u64>>,
}

impl BlockDevice for WriteLog {
    fn read_block(&self, blk: u64, buf: &mut [u8]) -> Result<(), IoError> {
        self.inner.read_block(blk, buf)
    }

    fn write_block(&self, blk: u64, buf: &[u8]) -> Result<(), IoError> {
        self.blocks.lock().unwrap().push(blk);
        self.inner.write_block(blk, buf)
    }

    fn write_blocks(&self, reqs: &[(u64, &[u8])], lane: IoLane) -> BatchReport {
        self.blocks
            .lock()
            .unwrap()
            .extend(reqs.iter().map(|&(b, _)| b));
        self.inner.write_blocks(reqs, lane)
    }

    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }

    fn stats(&self) -> DiskStats {
        self.inner.stats()
    }
}

/// What one flush did: simulated time, device counters, injected faults
/// and the write log.
#[derive(Debug, PartialEq)]
struct FlushRun {
    sim_ns: u64,
    disk: DiskStats,
    faults: FaultStats,
    writes: Vec<u64>,
}

const DIRTY: u64 = 240;

/// Commits `DIRTY` scattered blocks into a fresh cache over an HDD behind
/// a transient-write fault plan, then flushes everything.
fn flush_scattered() -> FlushRun {
    let clock = SimClock::new();
    let nvm = NvmDevice::new(NvmConfig::new(4 << 20, NvmTech::Pcm), clock.clone());
    let hdd = SimDisk::new(DiskKind::Hdd, 1 << 20, clock.clone());
    let faulty = FaultyDisk::new(hdd, FaultPlan::quiet(0xF1_05).with_transient_writes(20));
    let log = Arc::new(WriteLog {
        inner: faulty.clone(),
        blocks: Mutex::new(Vec::new()),
    });
    let mut cache = TincaCache::format(nvm, log.clone(), TincaConfig::default());
    let blocks: Vec<u64> = (0..DIRTY).map(|i| (i * 7_919) % 900_001).collect();
    for chunk in blocks.chunks(8) {
        let mut t = cache.init_txn();
        for &b in chunk {
            t.write(b, &[(b % 251) as u8; BLOCK_SIZE]);
        }
        cache.commit(&t).unwrap();
    }
    assert_eq!(cache.dirty_block_count() as u64, DIRTY);

    let (t0, d0, f0) = (clock.now_ns(), faulty.stats(), faulty.fault_stats());
    log.blocks.lock().unwrap().clear();
    cache.flush_all().unwrap();
    assert_eq!(cache.dirty_block_count(), 0);
    let f1 = faulty.fault_stats();
    let writes = std::mem::take(&mut *log.blocks.lock().unwrap());
    FlushRun {
        sim_ns: clock.now_ns() - t0,
        disk: faulty.stats().delta(&d0),
        faults: FaultStats {
            injected_read_errors: f1.injected_read_errors - f0.injected_read_errors,
            injected_write_errors: f1.injected_write_errors - f0.injected_write_errors,
            permanent_rejections: f1.permanent_rejections - f0.permanent_rejections,
            latency_spikes: f1.latency_spikes - f0.latency_spikes,
        },
        writes,
    }
}

#[test]
fn flush_all_is_deterministic_and_address_ordered() {
    let a = flush_scattered();
    let b = flush_scattered();
    assert!(
        a.faults.injected_write_errors > 0,
        "the fault plan must hit some writeback: {:?}",
        a.faults
    );
    assert_eq!(a.disk.writes, DIRTY);
    assert_eq!(a.disk.write_errors, a.faults.injected_write_errors);

    // First attempts go out in ascending disk-block order; retries of
    // failed requests follow and revisit already-seen blocks.
    let mut seen = std::collections::HashSet::new();
    let first: Vec<u64> = a
        .writes
        .iter()
        .copied()
        .filter(|&b| seen.insert(b))
        .collect();
    assert_eq!(first.len() as u64, DIRTY);
    assert!(
        first.windows(2).all(|w| w[0] < w[1]),
        "writeback order is not address-sorted"
    );

    // Two caches built the same way flush identically.
    assert_eq!(a, b);
}
