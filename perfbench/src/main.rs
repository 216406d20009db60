//! Benchmark entry point.
//!
//! ```text
//! perfbench --workload <kv_tpcc_fit|fio_tinca_hdd|fio_classic_hdd>
//!           --seed <n> --seconds <s> --trace <0|1> [--trace-out <dir>]
//! ```
//!
//! Repeats rounds at the given seed while the next one is expected to end
//! within `--seconds` of host time (at least one round), then prints a
//! table and, as its last line,
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end ones of untraced rounds;
//! with `--trace 1` each untraced round is followed by a traced one, the
//! metrics are the per-layer ones, and the last traced round's spans are
//! written to `--trace-out` (default `perfbench/out`).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use perfbench::clocks::{host_speed, peak_rss_mib, probe};
use perfbench::metrics::{END_TO_END, PER_LAYER};
use perfbench::trace::Span;
use perfbench::{Round, SimResult, Workload};

/// Set-ups behind the `setup_s` median; rounds that do not reach it are
/// topped up with set-ups alone.
const MIN_SETUPS: usize = 3;

/// Speed probes taken before and after a set-up run on its own.
const SETUP_PROBES: usize = 16;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    trace_out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10;
    let mut trace = false;
    let mut trace_out = PathBuf::from("perfbench/out");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {val}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&val).ok_or_else(|| format!("unknown workload {val}"))?);
            }
            "--seed" => seed = val.parse().map_err(bad)?,
            "--seconds" => seconds = val.parse().map_err(bad)?,
            "--trace" => {
                trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {val}")),
                };
            }
            "--trace-out" => trace_out = PathBuf::from(val),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        trace_out,
    })
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// What the report needs from a round, without its latency samples (so
/// the process's peak memory does not grow with the round count).
struct Kept {
    sim: Vec<(&'static str, f64)>,
    ops: u64,
    setup_s: f64,
    op_host_s: f64,
    /// The machine's speed during the round's op phase
    /// ([`perfbench::clocks::host_speed`]).
    speed: f64,
    layers: Option<BTreeMap<&'static str, f64>>,
}

impl Kept {
    fn of(r: &Round) -> Kept {
        Kept {
            sim: r.sim.metrics(),
            ops: r.sim.ops,
            setup_s: r.setup_s,
            op_host_s: r.op_host_s,
            speed: host_speed(&r.probe_s),
            layers: r.layers.clone(),
        }
    }

    fn sim(&self, name: &str) -> f64 {
        self.sim
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v)
    }
}

/// End-to-end metrics: medians over the untraced rounds, except host
/// throughput, which is every untraced round's requests over their op
/// phases' host time. Host times are at reference speed: each is scaled
/// by the machine's speed while it was measured.
fn end_to_end(rounds: &[Kept], setups: Vec<f64>) -> Vec<(&'static str, f64)> {
    let col = |f: &dyn Fn(&Kept) -> f64| median(rounds.iter().map(f).collect());
    END_TO_END
        .iter()
        .map(|&(name, _, _)| {
            let v = match name {
                "host_ops_per_s" => {
                    let ops: u64 = rounds.iter().map(|r| r.ops).sum();
                    let secs: f64 = rounds.iter().map(|r| r.op_host_s * r.speed).sum();
                    ops as f64 / secs
                }
                "setup_s" => median(setups.clone()),
                "host_peak_rss_mb" => peak_rss_mib(),
                _ => col(&|r| r.sim(name)),
            };
            (name, v)
        })
        .collect()
}

/// Per-layer metrics: medians over the traced rounds, plus the tracing
/// overhead from the paired untraced rounds (host times at reference
/// speed) and the untraced rounds' speed.
fn per_layer(untraced: &[Kept], traced: &[Kept]) -> Vec<(&'static str, f64)> {
    let host = |rs: &[Kept]| median(rs.iter().map(|r| r.op_host_s * r.speed).collect());
    PER_LAYER
        .iter()
        .map(|&(name, _)| {
            let v = if name == "harness.trace_overhead_frac" {
                host(traced) / host(untraced) - 1.0
            } else if name == "harness.host_speed" {
                median(untraced.iter().map(|r| r.speed).collect())
            } else {
                median(
                    traced
                        .iter()
                        .filter_map(|r| r.layers.as_ref()?.get(name).copied())
                        .collect(),
                )
            };
            (name, v)
        })
        .collect()
}

fn write_trace(dir: &PathBuf, workload: Workload, spans: &[Span]) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}.spans.csv", workload.name()));
    let mut s = String::from("op,name,parent,sim_start_ns,sim_end_ns,host_start_ns,host_end_ns\n");
    for sp in spans {
        let parent = if sp.parent == u32::MAX {
            -1
        } else {
            i64::from(sp.parent)
        };
        let _ = writeln!(
            s,
            "{},{},{},{},{},{},{}",
            sp.op, sp.name, parent, sp.sim_start, sp.sim_end, sp.host_start, sp.host_end
        );
    }
    std::fs::write(&path, s)?;
    Ok(path)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut last_spans = Vec::new();
    let mut problems: Vec<String> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut reference: Option<SimResult> = None;
    let mut check = |kind: &str, r: &Round| {
        eprintln!(
            "  {kind} round: set-up {:.3} s, op phase {:.3} s host, speed {:.3}, {:.1} s elapsed",
            r.setup_s,
            r.op_host_s,
            host_speed(&r.probe_s),
            start.elapsed().as_secs_f64()
        );
        attempted += r.attempted;
        failed += r.failed;
        problems.extend(r.errors.iter().cloned());
        if r.lost_acked_writes > 0 {
            problems.push(format!("{} acknowledged writes lost", r.lost_acked_writes));
        }
        // Every round at one seed must reproduce the first one's simulated
        // results, traced or not. Known exception: Tinca's hash-ordered
        // `flush_all` makes the drain vary between runs on fio_tinca_hdd.
        let mut sim = r.sim.clone();
        if w == Workload::FioTincaHdd {
            sim.drain_ns = 0;
        }
        match &reference {
            None => reference = Some(sim),
            Some(first) if *first != sim => {
                problems.push(format!(
                    "{kind} round's simulated results differ from the first round's"
                ));
            }
            Some(_) => {}
        }
    };
    // A round's length varies with the machine's speed, so the next round
    // starts only if the longest one so far would still end in budget.
    let mut longest = Duration::ZERO;
    loop {
        let t = Instant::now();
        let r = w.round(args.seed, false);
        check("untraced", &r);
        untraced.push(Kept::of(&r));
        if args.trace {
            let mut r = w.round(args.seed, true);
            check("traced", &r);
            last_spans = std::mem::take(&mut r.spans);
            traced.push(Kept::of(&r));
        }
        longest = longest.max(t.elapsed());
        if start.elapsed() + longest > budget {
            break;
        }
    }
    // `setup_s` is a median over at least three set-ups, each at reference
    // speed: a round's set-up at the speed of its op phase, which follows
    // it; a set-up alone at the speed of probes on both sides of it.
    let mut setups: Vec<f64> = untraced.iter().map(|r| r.setup_s * r.speed).collect();
    while setups.len() < MIN_SETUPS {
        let mut probes: Vec<f64> = (0..SETUP_PROBES).map(|_| probe()).collect();
        match w.setup_seconds() {
            Ok(s) => {
                probes.extend((0..SETUP_PROBES).map(|_| probe()));
                setups.push(s * host_speed(&probes));
            }
            Err(e) => {
                problems.push(format!("set-up: {e}"));
                break;
            }
        }
    }

    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        let units = PER_LAYER.iter().map(|&(_, u)| u);
        per_layer(&untraced, &traced)
            .into_iter()
            .zip(units)
            .map(|((n, v), u)| (n, v, u))
            .collect()
    } else {
        end_to_end(&untraced, setups)
            .into_iter()
            .zip(END_TO_END.iter())
            .map(|((n, v), &(_, u, _))| (n, v, u))
            .collect()
    };
    if let Some((n, _, _)) = metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        problems.push(format!("metric {n} is not finite"));
    }

    println!(
        "workload {} seed {} rounds {} (traced {})",
        w.name(),
        args.seed,
        untraced.len(),
        traced.len()
    );
    for (i, (n, v, u)) in metrics.iter().enumerate() {
        let clock = if args.trace { "" } else { END_TO_END[i].2 };
        println!("  {n:<42} {v:>16.4} {u:<6} {clock}");
    }
    for p in &problems {
        println!("  PROBLEM: {p}");
    }
    if args.trace {
        match write_trace(&args.trace_out, w, &last_spans) {
            Ok(p) => println!("  spans of the last traced round: {}", p.display()),
            Err(e) => println!("  could not write spans: {e}"),
        }
    }

    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        problems.is_empty()
    );
    for (i, (n, v, u)) in metrics.iter().enumerate() {
        let v = if v.is_finite() { *v } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}"
        );
    }
    json.push_str("}}");
    println!("{json}");
    ExitCode::SUCCESS
}
