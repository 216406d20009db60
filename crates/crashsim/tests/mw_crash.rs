//! Crash campaigns for several windows in flight on the pool's ring:
//! rounds of concurrent windows crash mid-reservation, mid-staging,
//! mid-publication (descriptors flipped in rotated order), and
//! mid-sequencing; recovery must resume-or-roll-back each window exactly
//! once, keep every retired round durable, and leave every per-shard and
//! merged event trace persist-order clean.

use crashsim::{mw_frontier_campaign, mw_pool_fuzz_campaign, mw_pool_fuzz_one};

/// The multi-writer acceptance sweep: 200 seeds of multi-window rounds
/// (plus interleaved spanning transactions) against a two-shard pool,
/// each crashing one shard at a random persistence event and resolving
/// the un-fenced write-back state adversarially. Zero violations
/// tolerated.
#[test]
fn mw_commit_path_survives_200_seed_sweep() {
    let report = mw_pool_fuzz_campaign(2, 0x3757_0000, 200, 20);
    assert!(
        report.clean(),
        "multi-writer crash-consistency violations: {:#?}",
        report.violations
    );
    assert!(report.crashes > 60, "crashes: {}", report.crashes);
}

#[test]
fn mw_four_shard_pool_survives_fuzz() {
    let report = mw_pool_fuzz_campaign(4, 0x3757_4444, 30, 20);
    assert!(report.clean(), "violations: {:#?}", report.violations);
    assert!(report.crashes > 0);
}

#[test]
fn mw_single_shard_pool_survives_fuzz() {
    let report = mw_pool_fuzz_campaign(1, 0x3757_1111, 20, 20);
    assert!(report.clean(), "violations: {:#?}", report.violations);
    assert!(report.crashes > 0);
}

#[test]
fn mw_outcomes_are_deterministic_per_seed() {
    let a = mw_pool_fuzz_one(2, 1234, 20);
    let b = mw_pool_fuzz_one(2, 1234, 20);
    assert_eq!(a, b);
}

/// Bounded-exhaustive companion to the random sweep: every fence epoch
/// of a short multi-writer workload is crashed at every enumerated
/// persist frontier — covering, in particular, every combination of
/// published / unpublished / torn `STAGED` descriptors within a round.
#[test]
fn mw_frontier_enumeration_recovers_clean() {
    let report = mw_frontier_campaign(2, 0x3757_F0F0, 4, 6);
    assert!(
        report.clean(),
        "multi-writer frontier violations: {:#?}",
        report.violations
    );
    assert!(report.epochs_total > 0, "probe found no workload epochs");
    assert!(report.states_run >= 2 * report.epochs_total);
}
