//! Performance-regression gate over two bench ledgers (`BENCH_<n>.json`,
//! schema in `bench::ledger`): a committed baseline and a fresh run.
//!
//! Every gate counter carries its own direction, so this tool knows no
//! bench: it fails (exit 1) when a counter moves more than 5 % in its
//! bad direction, and refuses (exit 1) to compare different benches,
//! `--quick` against a full run, files whose counters differ, and any
//! file with a campaign violation or `persistcheck_clean: false`.
//!
//! Usage: `cargo run --release -p bench --bin perfgate -- <baseline.json> <new.json>`

use std::process::exit;

use bench::ledger::{compare, TOLERANCE};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [baseline_path, new_path] = args.as_slice() else {
        eprintln!("usage: perfgate <baseline BENCH_N.json> <new BENCH_N.json>");
        exit(2);
    };
    let read =
        |p: &String| std::fs::read_to_string(p).unwrap_or_else(|e| panic!("cannot read {p}: {e}"));
    let comparison = match compare(&read(baseline_path), &read(new_path)) {
        Ok(c) => c,
        Err(why) => {
            eprintln!("perfgate refuses {baseline_path} vs {new_path}: {why}");
            exit(1);
        }
    };

    println!("bench: {}", comparison.bench);
    println!(
        "{:<24} {:>7} {:>16} {:>16} {:>9}  verdict",
        "counter", "better", "baseline", "new", "delta"
    );
    for r in &comparison.rows {
        let verdict = if r.failed { "FAIL" } else { "ok" };
        println!(
            "{:<24} {:>7} {:>16.2} {:>16.2} {:>8.2}%  {verdict}",
            r.name,
            r.better.name(),
            r.old,
            r.new,
            r.delta * 100.0
        );
    }
    if comparison.failed() {
        eprintln!(
            "perf regression: a gated counter moved more than {:.0}% in its bad \
             direction (rerun the bench and commit the new BENCH_N.json only \
             if the regression is intended and explained)",
            TOLERANCE * 100.0
        );
        exit(1);
    }
    println!("perfgate: within {:.0}% of baseline", TOLERANCE * 100.0);
}
