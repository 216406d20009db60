//! Carving one NVM budget into per-shard devices.
//!
//! A sharded cache front-end partitions the NVM region into `N`
//! independent sub-regions. Each sub-region is modelled as its own
//! [`NvmDevice`] with its **own** [`SimClock`]: shards of a real NVDIMM
//! serve flushes from disjoint address ranges concurrently, so per-shard
//! time advances independently and pool wall-clock time is the *maximum*
//! over shard clocks, not the sum. Each shard device also keeps its own
//! event trace, so persist-order analysis audits every shard's commit
//! stream in isolation.

use crate::{NvmConfig, NvmDevice, SimClock, TraceEvent, TracedOp, CACHE_LINE};

/// Splits `cfg.capacity` evenly over `shards` devices, each with its own
/// clock and a per-shard copy of every other knob (tech, flush
/// instruction, tracing). Per-shard capacity is rounded down to the
/// cache-line size; the remainder bytes are simply not modelled.
pub fn shard_devices(cfg: &NvmConfig, shards: usize) -> Vec<crate::Nvm> {
    assert!(shards >= 1, "need at least one shard");
    let per = (cfg.capacity / shards) / CACHE_LINE * CACHE_LINE;
    assert!(
        per >= CACHE_LINE,
        "capacity {} too small for {} shards",
        cfg.capacity,
        shards
    );
    (0..shards)
        .map(|_| {
            let shard_cfg = NvmConfig {
                capacity: per,
                ..cfg.clone()
            };
            NvmDevice::new(shard_cfg, SimClock::new())
        })
        .collect()
}

/// Merges per-shard traces into one stream over the pool's unified
/// address space.
///
/// Shard `i`'s addresses (and `clflush` line numbers) are rebased by
/// `i * shard_capacity` bytes, so lines of different shards never alias —
/// exactly the partitioning [`shard_devices`] models — and every op is
/// stamped with `device = i`, so analyzers keep fence-epoch and
/// commit-window state per device: shard `i`'s `sfence` orders only shard
/// `i`'s write-backs, never another shard's. Sync-object ids are
/// pool-global and pass through unchanged, as do thread ids: a thread
/// keeps one stable id across every shard it touches, which is what lets
/// the happens-before engine follow it between shards.
///
/// Events interleave in recording order ([`TracedOp::stamp`], ties —
/// only possible in hand-built traces — broken by shard index) and are
/// re-numbered with fresh global `seq` ordinals. The devices' simulated
/// clocks are independent, but the happens-before engine follows each
/// thread *across* shards, so the merge must keep every thread's program
/// order and every release before the acquire that consumes it; an
/// arbitrary interleaving (say, round-robin by per-shard ordinal) could
/// move a thread's sync event ahead of its earlier events on another
/// shard and fabricate happens-before edges.
pub fn merge_shard_traces(per_shard: Vec<Vec<TracedOp>>, shard_capacity: usize) -> Vec<TracedOp> {
    assert!(
        shard_capacity.is_multiple_of(CACHE_LINE),
        "shard capacity must be line-aligned"
    );
    let mut tagged: Vec<(u64, usize, TracedOp)> = Vec::new();
    for (shard, ops) in per_shard.into_iter().enumerate() {
        let addr_base = shard * shard_capacity;
        let line_base = addr_base / CACHE_LINE;
        for mut op in ops {
            op.device = shard as u32;
            match &mut op.event {
                TraceEvent::Store { addr, .. }
                | TraceEvent::AtomicStore { addr, .. }
                | TraceEvent::Commit { addr, .. }
                | TraceEvent::ReadAfterRecovery { addr, .. } => *addr += addr_base,
                TraceEvent::Clflush { line, .. } => *line += line_base,
                TraceEvent::Sfence { .. }
                | TraceEvent::Crash
                | TraceEvent::LockAcquire { .. }
                | TraceEvent::LockRelease { .. }
                | TraceEvent::AtomicLoadAcquire { .. }
                | TraceEvent::AtomicStoreRelease { .. } => {}
            }
            tagged.push((op.stamp, shard, op));
        }
    }
    tagged.sort_by_key(|&(stamp, shard, _)| (stamp, shard));
    tagged
        .into_iter()
        .enumerate()
        .map(|(i, (_, _, mut op))| {
            op.seq = i as u64;
            op
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NvmTech;

    #[test]
    fn splits_capacity_evenly_and_line_aligned() {
        let cfg = NvmConfig::new(1 << 20, NvmTech::Pcm);
        let devs = shard_devices(&cfg, 4);
        assert_eq!(devs.len(), 4);
        for d in &devs {
            assert_eq!(d.capacity(), (1 << 20) / 4);
            assert_eq!(d.capacity() % CACHE_LINE, 0);
        }
    }

    #[test]
    fn clocks_are_independent() {
        let cfg = NvmConfig::new(64 << 10, NvmTech::Pcm);
        let devs = shard_devices(&cfg, 2);
        devs[0].write(0, &[1u8; 64]);
        devs[0].persist(0, 64);
        assert!(devs[0].clock().now_ns() > 0);
        assert_eq!(
            devs[1].clock().now_ns(),
            0,
            "shard 1 must not be charged for shard 0's flush"
        );
    }

    #[test]
    fn one_shard_keeps_full_capacity() {
        let cfg = NvmConfig::new(256 << 10, NvmTech::Nvdimm);
        let devs = shard_devices(&cfg, 1);
        assert_eq!(devs.len(), 1);
        assert_eq!(devs[0].capacity(), 256 << 10);
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn rejects_over_sharding() {
        let cfg = NvmConfig::new(CACHE_LINE, NvmTech::Pcm);
        let _ = shard_devices(&cfg, 2);
    }

    #[test]
    fn merge_rebases_addresses_and_renumbers() {
        use crate::TraceEvent as E;
        let cfg = NvmConfig::new(8192, NvmTech::Pcm).with_tracing();
        let devs = shard_devices(&cfg, 2);
        let per = devs[0].capacity();
        devs[0].write(0, &[1u8; 8]);
        devs[0].persist(0, 8);
        devs[1].write(64, &[2u8; 8]);
        devs[1].persist(64, 8);
        devs[1].note_commit(64, 8);
        let merged =
            merge_shard_traces(devs.iter().map(|d| d.take_trace()).collect::<Vec<_>>(), per);
        // Recording order: all of shard 0's persist happened first, so it
        // stays ahead of shard 1's (a per-shard-ordinal round-robin would
        // interleave s0#0, s1#0, s0#1, …).
        assert_eq!(merged.len(), 7);
        for (i, op) in merged.iter().enumerate() {
            assert_eq!(op.seq, i as u64, "fresh global ordinals");
        }
        let devices: Vec<u32> = merged.iter().map(|op| op.device).collect();
        assert_eq!(
            devices,
            [0, 0, 0, 1, 1, 1, 1],
            "device tag is the shard index"
        );
        assert_eq!(merged[0].event, E::Store { addr: 0, len: 8 });
        assert_eq!(
            merged[3].event,
            E::Store {
                addr: per + 64,
                len: 8
            }
        );
        let lines: Vec<usize> = merged
            .iter()
            .filter_map(|op| match op.event {
                E::Clflush { line, .. } => Some(line),
                _ => None,
            })
            .collect();
        assert_eq!(lines, [0, (per + 64) / CACHE_LINE]);
        assert_eq!(
            merged.last().unwrap().event,
            E::Commit {
                addr: per + 64,
                len: 8
            }
        );
    }

    #[test]
    fn merge_keeps_sync_objects_and_threads_unrebased() {
        let cfg = NvmConfig::new(8192, NvmTech::Pcm).with_tracing();
        let devs = shard_devices(&cfg, 2);
        crate::set_trace_thread(9);
        devs[0].note_lock_acquire(5);
        devs[1].note_lock_release(5);
        let merged = merge_shard_traces(
            devs.iter().map(|d| d.take_trace()).collect::<Vec<_>>(),
            devs[0].capacity(),
        );
        assert_eq!(merged[0].event, crate::TraceEvent::LockAcquire { obj: 5 });
        assert_eq!(merged[1].event, crate::TraceEvent::LockRelease { obj: 5 });
        assert_eq!(merged[0].thread, 9);
        assert_eq!(merged[1].thread, 9);
    }
}
