//! Concurrency-aware persist-order audit of the sharded pool.
//!
//! Runs the multi-threaded scaling workload with NVM event tracing on and
//! feeds every shard's trace — and the pool-wide merged trace — through
//! the `persistcheck` analyzer with the happens-before race rules armed
//! (`persist-race`, `unordered-commit`, `cross-thread-flush-dependency`).
//! The pool's ring commit pipeline must come out completely clean;
//! tracing must not move the simulated clock.
//!
//! Usage: `cargo run --release -p bench --bin persistrace [-- --quick]`
//!
//! Exits non-zero on any correctness-rule hit.

use bench::figs::persistrace;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (_table, clean) = persistrace::run(quick);
    if !clean {
        eprintln!("correctness violations (incl. race rules) on the pool commit path");
        std::process::exit(1);
    }
}
