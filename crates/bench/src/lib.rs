//! # bench — the figure/table harnesses of the paper's evaluation (§5)
//!
//! Every table and figure of the evaluation has a module in [`figs`] whose
//! `run(quick)` regenerates its rows/series from the simulated stacks, and
//! a thin binary in `src/bin/` wrapping it (`cargo run --release -p bench
//! --bin fig7`). `run_all` executes the whole evaluation and writes CSVs
//! under `EXPERIMENTS-results/`.
//!
//! `quick = true` shrinks datasets/op counts for CI-speed smoke runs; the
//! default sizes are the ÷128-scaled configuration documented in
//! `DESIGN.md` (shape reproduction, not absolute numbers).
//!
//! The gated figures also write a repo-root `BENCH_<n>.json` summary in
//! the one [`ledger`] schema, which `perfgate` compares against the
//! committed copy; [`ledger`] documents how to add a gated bench.

pub mod figs;
pub mod ledger;
pub mod table;

use std::fs;
use std::io::Write as _;
use std::path::PathBuf;

/// Directory where `run_all` leaves machine-readable results.
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("EXPERIMENTS-results");
    fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Writes one CSV file of results, plus its machine-readable JSON
/// companion (same name, `.json` extension — see [`write_json`]).
pub fn write_csv(name: &str, headers: &[&str], rows: &[Vec<String>]) {
    let path = results_dir().join(format!("{name}.csv"));
    let mut f = fs::File::create(&path).expect("create csv");
    writeln!(f, "{}", headers.join(",")).unwrap();
    for row in rows {
        writeln!(f, "{}", row.join(",")).unwrap();
    }
    eprintln!("  [csv] {}", path.display());
    write_json(name, headers, rows);
}

/// Writes the JSON companion of one result set (see [`figure_json`]).
pub fn write_json(name: &str, headers: &[&str], rows: &[Vec<String>]) {
    let path = results_dir().join(format!("{name}.json"));
    fs::write(&path, figure_json(name, headers, rows).render()).expect("write json");
    eprintln!("  [json] {}", path.display());
}

/// One result set as JSON: an object carrying the figure name, column
/// headers, and rows (cells as strings, exactly as the CSV renders them),
/// so downstream tooling never re-parses CSV.
pub fn figure_json(name: &str, headers: &[&str], rows: &[Vec<String>]) -> telemetry::Json {
    use telemetry::Json;
    Json::obj(vec![
        ("figure", name.into()),
        (
            "headers",
            Json::Arr(headers.iter().map(|h| (*h).into()).collect()),
        ),
        (
            "rows",
            Json::Arr(
                rows.iter()
                    .map(|r| Json::Arr(r.iter().map(|c| c.as_str().into()).collect()))
                    .collect(),
            ),
        ),
    ])
}

/// Prints the standard experiment banner.
pub fn banner(id: &str, what: &str, paper_expectation: &str) {
    println!("==========================================================================");
    println!("{id}: {what}");
    println!("  paper: {paper_expectation}");
    println!("==========================================================================");
}

/// Formats a float compactly for tables.
pub fn fmt(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.2}")
    }
}
