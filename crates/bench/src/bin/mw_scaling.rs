//! Multi-writer scaling figure: the pool's ring commit pipeline with
//! 1–16 writers in flight on 1- and 4-shard pools, priced against the
//! same pipeline with one window in flight, with per-shard + merged
//! persist-order audits and the embedded multi-writer crash campaigns.
//!
//! Usage: `cargo run --release -p bench --bin mw_scaling [-- --quick]`
//!
//! Exits non-zero if any trace has a persist-order violation, if either
//! crash campaign reports a violation, or if the single-shard pipeline
//! at 8 writers fails to reach 2x its 1-writer throughput.

use bench::figs::mw_scaling;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let r = mw_scaling::run(quick);
    if !r.persist_clean {
        eprintln!("persist-order violations on the multi-writer commit path");
        std::process::exit(1);
    }
    if !r.fuzz.clean() || !r.frontier.clean() {
        eprintln!("multi-writer crash campaign violations");
        std::process::exit(1);
    }
    if r.speedup_x_8w < 2.0 {
        eprintln!(
            "multi-writer speedup {:.2}x at 8 writers below the 2x bar",
            r.speedup_x_8w
        );
        std::process::exit(1);
    }
}
