//! Crash-mid-backlog campaign: power-pull while an open-loop overload is
//! queued and shedding.
//!
//! [`crate::poolfuzz`] crashes a pool under a closed-loop script. This
//! campaign drives the pool through the open-loop tier
//! ([`workloads::openloop`]) at an offered rate far past capacity, with a
//! bounded per-shard queue, so at the crash instant there is a real
//! serving-tier state to corrupt: a backlog of admitted-but-queued ops
//! and a population of shed (rejected) ops. The property proven per
//! seed:
//!
//! * every *completed* write reads back exactly after recovery;
//! * the op in flight at the crash is all-or-nothing (writes are
//!   shard-aligned, so the whole transaction is one shard fragment);
//! * **no shed or merely-queued op is ever visible** — admission control
//!   rejects before any cache work, so a shed op's payload must not
//!   exist anywhere on the recovered pool (payloads embed the op's
//!   unique sequence number, making the check exact);
//! * every shard's internals and persist-order event trace are clean.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use blockdev::{DiskKind, SimDisk, BLOCK_SIZE};
use nvmsim::{shard_devices, CrashPolicy, Nvm, NvmConfig, NvmTech, SimClock};
use persistcheck::{CheckConfig, Checker};
use tinca::{PoolConfig, TincaConfig, TincaPool};
use workloads::openloop::{
    write_payload, Arrival, ArrivalStream, Arrivals, OpKind, OpenLoopDriver, OpenLoopSpec,
    StepOutcome, TincaServer,
};

use crate::quiet_crash_panics;

/// One crash-mid-backlog iteration's result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BacklogOutcome {
    /// The stream drained before the trip fired.
    Completed,
    /// Crash injected mid-backlog; recovery verified clean.
    CrashedVerified,
    /// Verification failed — a consistency bug.
    Violation(String),
}

/// Aggregate over a crash-mid-backlog campaign.
#[derive(Clone, Debug, Default)]
pub struct BacklogReport {
    pub runs: u64,
    pub completed: u64,
    pub crashes: u64,
    /// Ops shed by admission control across all runs (the campaign is
    /// only meaningful if this is non-zero: there must *be* a backlog).
    pub shed: u64,
    pub violations: Vec<String>,
}

impl BacklogReport {
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }
}

fn overload_spec(shards: usize, seed: u64) -> OpenLoopSpec {
    OpenLoopSpec {
        users: 100_000,
        // ~100× a shard's service capacity: the queue fills within a few
        // arrivals and stays full, so most of the run happens at the
        // admission boundary.
        arrivals: Arrivals::Poisson {
            rate_ops_per_sec: 20_000_000.0,
        },
        ops: 240,
        read_pct: 30,
        blocks: 16 * shards as u64,
        txn_blocks: 2,
        queue_cap: 6,
        limiter: None,
        seed,
    }
}

/// Runs one seeded crash-mid-backlog iteration against an `N`-shard pool.
pub fn backlog_one(shards: usize, seed: u64) -> BacklogOutcome {
    backlog_one_detailed(shards, seed).0
}

/// Like [`backlog_one`], also returning how many ops admission control
/// shed before the crash (or stream end).
pub fn backlog_one_detailed(shards: usize, seed: u64) -> (BacklogOutcome, u64) {
    quiet_crash_panics();
    let spec = overload_spec(shards, seed);

    let nvm_cfg = NvmConfig::new(shards * (512 << 10), NvmTech::Pcm).with_tracing();
    let devices: Vec<Nvm> = shard_devices(&nvm_cfg, shards);
    let disk_clock = SimClock::new();
    telemetry::swap_clock(&disk_clock);
    let _seed_span = telemetry::span(telemetry::phase::CRASH_SEED);
    let disk = SimDisk::new(DiskKind::Ssd, 1 << 16, disk_clock.clone());
    let pool_cfg = PoolConfig {
        shards,
        cache: TincaConfig {
            ring_bytes: 4096,
            ..TincaConfig::default()
        },
    };
    let pool = TincaPool::format(devices.clone(), disk.clone(), pool_cfg.clone());
    let metadata_ranges: Vec<_> = (0..shards).map(|s| pool.shard_metadata_ranges(s)).collect();

    // The stream is deterministic, so the oracle can see the whole plan
    // up front and attribute outcomes to ops by step index.
    let plan: Vec<Arrival> = ArrivalStream::new(&spec, shards).collect();
    let trip_shard = (seed % shards as u64) as usize;
    let trip = 1 + (seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) % 3_000);
    devices[trip_shard].set_trip(Some(trip));

    // One service slot per shard, as in the latency_load figure this
    // campaign backs: a strict-FIFO queue forms the deepest backlog.
    let server = TincaServer::new(&pool, disk_clock).with_commit_concurrency(1);
    let mut driver = OpenLoopDriver::new(spec, server);
    // blk → seq of the last *completed* write; shed write seqs must never
    // surface.
    let mut completed_seq: HashMap<u64, u64> = HashMap::new();
    let mut shed_seqs: Vec<u64> = Vec::new();
    let mut steps = 0usize;
    let crashed = {
        let driver = &mut driver;
        let completed_seq = &mut completed_seq;
        let shed_seqs = &mut shed_seqs;
        let steps = &mut steps;
        let plan = &plan;
        catch_unwind(AssertUnwindSafe(move || {
            while let Some(outcome) = driver.step() {
                let kind = &plan[*steps].kind;
                *steps += 1;
                match outcome {
                    StepOutcome::Completed { .. } => {
                        if let OpKind::Write { blks, seq } = kind {
                            for &b in blks {
                                completed_seq.insert(b, *seq);
                            }
                        }
                    }
                    StepOutcome::ShedQueueFull { .. } | StepOutcome::ShedThrottled { .. } => {
                        if let OpKind::Write { seq, .. } = kind {
                            shed_seqs.push(*seq);
                        }
                    }
                }
            }
        }))
        .is_err()
    };
    devices[trip_shard].set_trip(None);
    let in_flight = driver.current.clone();
    let shed_count = shed_seqs.len() as u64;
    if !crashed {
        return (BacklogOutcome::Completed, shed_count);
    }

    // Power failure on every shard; un-fenced state resolves adversarially.
    for (s, d) in devices.iter().enumerate() {
        d.crash(CrashPolicy::Random(seed ^ 0xBAC1 ^ ((s as u64) << 13)));
    }
    let pool = match TincaPool::recover(devices.clone(), disk, pool_cfg) {
        Ok(p) => p,
        Err(e) => {
            return (
                BacklogOutcome::Violation(format!(
                    "seed {seed} trip {trip}@shard{trip_shard}: recovery failed: {e}"
                )),
                shed_count,
            );
        }
    };

    let outcome = match verify(
        &pool,
        &devices,
        &metadata_ranges,
        &completed_seq,
        in_flight.as_ref(),
        16 * shards as u64,
    ) {
        Ok(()) => BacklogOutcome::CrashedVerified,
        Err(e) => {
            BacklogOutcome::Violation(format!("seed {seed} trip {trip}@shard{trip_shard}: {e}"))
        }
    };
    (outcome, shed_count)
}

/// Checks the recovered pool against the oracle: every block must hold
/// exactly its last completed write's payload (or zeros if never
/// written), except the in-flight write's blocks, which must be
/// all-or-nothing. Because payloads embed each op's unique `seq`, this
/// exact-match sweep also proves no shed or queued op left any trace.
fn verify(
    pool: &TincaPool,
    devices: &[Nvm],
    metadata_ranges: &[Vec<std::ops::Range<usize>>],
    completed_seq: &HashMap<u64, u64>,
    in_flight: Option<&Arrival>,
    blocks: u64,
) -> Result<(), String> {
    pool.check_consistency()
        .map_err(|e| format!("inconsistent internals: {e}"))?;

    for (s, d) in devices.iter().enumerate() {
        let mut checker = Checker::new(CheckConfig::with_metadata(metadata_ranges[s].clone()));
        checker.push_all(&d.take_trace());
        let report = checker.report();
        if !report.is_clean() {
            return Err(format!("shard {s} persist-order violation: {report}"));
        }
    }

    let expected = |b: u64, seq: Option<u64>| -> [u8; BLOCK_SIZE] {
        match seq {
            Some(s) => write_payload(b, s),
            None => [0u8; BLOCK_SIZE],
        }
    };
    let in_flight_write: Option<(&[u64], u64)> = match in_flight.map(|a| &a.kind) {
        Some(OpKind::Write { blks, seq }) => Some((blks.as_slice(), *seq)),
        _ => None,
    };

    let mut buf = [0u8; BLOCK_SIZE];
    let mut news = 0usize;
    let mut olds = 0usize;
    for b in 0..blocks {
        pool.read_nocache(b, &mut buf)
            .map_err(|e| format!("read {b}: {e}"))?;
        let old = expected(b, completed_seq.get(&b).copied());
        if let Some((blks, seq)) = in_flight_write {
            if blks.contains(&b) {
                if buf == write_payload(b, seq) {
                    news += 1;
                } else if buf == old {
                    olds += 1;
                } else {
                    return Err(format!("in-flight block {b} is torn"));
                }
                continue;
            }
        }
        if buf != old {
            return Err(format!(
                "block {b}: not the last completed write (seq {:?}) — a queued or shed op leaked?",
                completed_seq.get(&b)
            ));
        }
    }
    if news != 0 && olds != 0 {
        return Err(format!(
            "in-flight write not atomic: {news} new / {olds} old blocks"
        ));
    }
    Ok(())
}

/// Runs a crash-mid-backlog campaign of `runs` seeds.
pub fn backlog_campaign(shards: usize, base_seed: u64, runs: u64) -> BacklogReport {
    let mut report = BacklogReport::default();
    for i in 0..runs {
        report.runs += 1;
        let (outcome, shed) = backlog_one_detailed(shards, base_seed + i);
        report.shed += shed;
        match outcome {
            BacklogOutcome::Completed => report.completed += 1,
            BacklogOutcome::CrashedVerified => report.crashes += 1,
            BacklogOutcome::Violation(v) => {
                report.crashes += 1;
                report.violations.push(v);
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overload_spec_actually_sheds() {
        // Without a crash (trip unarmed path: run the driver directly),
        // the overload spec must build a backlog and shed — otherwise
        // the campaign proves nothing.
        let shards = 2;
        let spec = overload_spec(shards, 7);
        let devices = shard_devices(&NvmConfig::new(shards * (512 << 10), NvmTech::Pcm), shards);
        let clock = SimClock::new();
        let disk = SimDisk::new(DiskKind::Ssd, 1 << 16, clock.clone());
        let pool = TincaPool::format(
            devices,
            disk,
            PoolConfig {
                shards,
                cache: TincaConfig {
                    ring_bytes: 4096,
                    ..TincaConfig::default()
                },
            },
        );
        let server = TincaServer::new(&pool, clock).with_commit_concurrency(1);
        let r = OpenLoopDriver::new(spec, server).run();
        assert!(r.shed_queue_full > 0, "no backlog formed");
        assert!(r.completed > 0);
    }

    #[test]
    fn single_seed_verifies() {
        let out = backlog_one(2, 3);
        assert!(
            matches!(
                out,
                BacklogOutcome::Completed | BacklogOutcome::CrashedVerified
            ),
            "{out:?}"
        );
    }
}
