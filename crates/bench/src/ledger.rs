//! The bench ledger: one schema for every gated `BENCH_<n>.json`, and the
//! comparison `perfgate` runs over two of them.
//!
//! Every gated figure (`phases`, `latency_load`, `spanning`, `wal_elim`,
//! `mw_scaling`) writes its repo-root summary through [`Ledger::write`]:
//!
//! ```text
//! {"bench":"<name>","quick":<bool>,
//!  "persistcheck_clean":<bool>,                  (only if the bench audits)
//!  "gate":{"<counter>":{"value":<num>,"better":"lower|higher|info"},...},
//!  "campaigns":{"<name>":{<named counts>...,"violations":<n>},...},
//!  "context":{...}}                              (never read by the gate)
//! ```
//!
//! Each gate counter carries its own direction, so the reader
//! ([`compare`]) needs no per-bench table: a counter fails when it moves
//! more than [`TOLERANCE`] in its bad direction, `info` counters never
//! fail, and any file with a campaign violation or an unclean persist
//! audit is refused outright.
//!
//! # How to add a gated bench
//!
//! 1. At the end of the figure's `run`, fill a [`Ledger`] with the bench
//!    name, the `quick` flag, its [`Gate`] counters (each with a
//!    direction), its crash campaigns and any context, and call
//!    [`Ledger::write`] with a new `BENCH_<n>` number.
//! 2. Give it a binary under `src/bin/` named exactly like the bench;
//!    it runs the figure and exits non-zero when an acceptance claim
//!    fails (a bar such as "≥ 2x", not a drift: drift is the gate's job).
//! 3. Run the binary with `--quick` and commit the `BENCH_<n>.json` it
//!    writes. CI loops over every `BENCH_*.json`, runs the binary named
//!    by its `bench` field twice, requires byte-identical output and
//!    gates it against the committed file; neither `perfgate` nor CI
//!    needs an edit.

use std::fs;

use crashsim::{BacklogReport, CampaignReport, FrontierReport, PoolFuzzReport};
use telemetry::Json;

use crate::results_dir;

/// Maximum tolerated relative movement of a gated counter in its bad
/// direction. One constant: every gate uses it.
pub const TOLERANCE: f64 = 0.05;

/// Which way "better" points for one gate counter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Regression = the counter grew (cost and latency counters).
    Lower,
    /// Regression = the counter shrank (throughput and speedup counters).
    Higher,
    /// Reported for context; never fails the gate.
    Info,
}

impl Better {
    /// The direction as the ledger spells it.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
            Better::Info => "info",
        }
    }

    fn parse(name: &str) -> Option<Better> {
        [Better::Lower, Better::Higher, Better::Info]
            .into_iter()
            .find(|b| b.name() == name)
    }
}

/// One gate counter: its name, the direction that counts as better, and
/// its value.
pub type Gate = (&'static str, Better, f64);

/// A crash campaign's outcome as the ledger records it: named counts
/// (what ran) and the violation count (what must stay 0).
pub trait Campaign {
    fn counts(&self) -> Vec<(&'static str, u64)>;
    fn violations(&self) -> u64;
}

/// Implements [`Campaign`] for a crashsim report: `"name" => field` per
/// count, plus its `violations` list's length.
macro_rules! campaign {
    ($report:ty, $($name:literal => $field:ident),+) => {
        impl Campaign for $report {
            fn counts(&self) -> Vec<(&'static str, u64)> {
                vec![$(($name, self.$field)),+]
            }
            fn violations(&self) -> u64 {
                self.violations.len() as u64
            }
        }
    };
}

campaign!(CampaignReport, "runs" => runs, "crashes" => crashes);
campaign!(PoolFuzzReport, "runs" => runs, "crashes" => crashes);
campaign!(BacklogReport, "runs" => runs, "crashes" => crashes, "shed" => shed);
campaign!(FrontierReport, "epochs" => epochs_total, "states" => states_run);

/// One bench's summary, in the ledger schema (see the module docs).
pub struct Ledger<'a> {
    pub bench: &'a str,
    pub quick: bool,
    pub gate: Vec<Gate>,
    pub campaigns: Vec<(&'a str, &'a dyn Campaign)>,
    /// `Some` when the bench runs the persist-order audit.
    pub persistcheck_clean: Option<bool>,
    /// Bench-specific detail for readers; the gate ignores it.
    pub context: Vec<(&'a str, Json)>,
}

impl Ledger<'_> {
    fn to_json(&self) -> Json {
        let gate = self
            .gate
            .iter()
            .map(|&(name, better, value)| {
                let entry = Json::obj(vec![
                    ("value", value.into()),
                    ("better", better.name().into()),
                ]);
                (name, entry)
            })
            .collect();
        let campaigns = self
            .campaigns
            .iter()
            .map(|&(name, c)| {
                let mut counts: Vec<_> =
                    c.counts().into_iter().map(|(k, v)| (k, v.into())).collect();
                counts.push(("violations", c.violations().into()));
                (name, Json::obj(counts))
            })
            .collect();
        let mut fields = vec![("bench", self.bench.into()), ("quick", self.quick.into())];
        if let Some(clean) = self.persistcheck_clean {
            fields.push(("persistcheck_clean", clean.into()));
        }
        fields.push(("gate", Json::obj(gate)));
        fields.push(("campaigns", Json::obj(campaigns)));
        fields.push(("context", Json::obj(self.context.clone())));
        Json::obj(fields)
    }

    /// Writes `BENCH_<n>.json` at the repo root.
    pub fn write(&self, n: u32) {
        let dir = results_dir();
        let root = dir.parent().expect("results dir sits in the repo root");
        let path = root.join(format!("BENCH_{n}.json"));
        fs::write(&path, self.to_json().render()).expect("write bench ledger");
        eprintln!("  [bench] {}", path.display());
    }
}

/// One gate counter, baseline against new.
#[derive(Debug)]
pub struct Row {
    pub name: String,
    pub better: Better,
    pub old: f64,
    pub new: f64,
    /// Relative change `(new - old) / |old|`; ±∞ when a zero baseline
    /// moved at all.
    pub delta: f64,
    pub failed: bool,
}

/// The verdict of [`compare`]: every counter of one bench.
#[derive(Debug)]
pub struct Comparison {
    pub bench: String,
    pub rows: Vec<Row>,
}

impl Comparison {
    pub fn failed(&self) -> bool {
        self.rows.iter().any(|r| r.failed)
    }
}

/// A gate file's header and counters, after the generic refusals.
struct Summary<'a> {
    bench: &'a str,
    quick: bool,
    gate: Vec<(&'a str, Better, f64)>,
}

fn summary<'a>(doc: &'a Json, label: &str) -> Result<Summary<'a>, String> {
    let Some(Json::Str(bench)) = doc.get("bench") else {
        return Err(format!("{label}: no \"bench\" name"));
    };
    let Some(&Json::Bool(quick)) = doc.get("quick") else {
        return Err(format!("{label}: no \"quick\" flag"));
    };
    if doc.get("persistcheck_clean") == Some(&Json::Bool(false)) {
        return Err(format!("{label}: persistcheck_clean is false"));
    }
    if let Some(Json::Obj(campaigns)) = doc.get("campaigns") {
        for (name, c) in campaigns {
            match c.get("violations").and_then(Json::as_f64) {
                Some(0.0) => {}
                Some(v) => return Err(format!("{label}: campaign {name} has {v} violations")),
                None => return Err(format!("{label}: campaign {name} has no violation count")),
            }
        }
    }
    let Some(Json::Obj(gate)) = doc.get("gate") else {
        return Err(format!("{label}: no \"gate\" object"));
    };
    let gate = gate
        .iter()
        .map(|(name, entry)| {
            let value = entry.get("value").and_then(Json::as_f64);
            let better = match entry.get("better") {
                Some(Json::Str(b)) => Better::parse(b),
                _ => None,
            };
            match (value, better) {
                (Some(v), Some(b)) => Ok((name.as_str(), b, v)),
                _ => Err(format!(
                    "{label}: gate counter {name} needs a numeric value and a direction"
                )),
            }
        })
        .collect::<Result<_, _>>()?;
    Ok(Summary { bench, quick, gate })
}

/// Relative change, with a zero baseline moving to ±∞ (not to 0: a cost
/// counter growing from nothing is a regression).
fn delta(old: f64, new: f64) -> f64 {
    if old == 0.0 {
        if new == 0.0 {
            0.0
        } else {
            new.signum() * f64::INFINITY
        }
    } else {
        (new - old) / old.abs()
    }
}

/// Compares two ledger documents (baseline first). `Err` is a refusal:
/// a malformed file, a campaign violation, an unclean persist audit,
/// different benches, `--quick` against a full run, or gate counters
/// that differ in name or direction. `Ok` carries every counter's verdict.
pub fn compare(baseline: &str, new: &str) -> Result<Comparison, String> {
    let (old_doc, new_doc) = (
        Json::parse(baseline).map_err(|e| format!("baseline: {e}"))?,
        Json::parse(new).map_err(|e| format!("new: {e}"))?,
    );
    let (old, new) = (summary(&old_doc, "baseline")?, summary(&new_doc, "new")?);
    if old.bench != new.bench {
        return Err(format!(
            "refusing to compare different benches ({} vs {})",
            old.bench, new.bench
        ));
    }
    if old.quick != new.quick {
        return Err("refusing to compare a --quick run against a full run".into());
    }
    let counters = |s: &Summary<'_>| -> Vec<(String, Better)> {
        s.gate.iter().map(|&(n, b, _)| (n.to_string(), b)).collect()
    };
    if counters(&old) != counters(&new) {
        return Err(format!(
            "gate counters differ: baseline {:?}, new {:?}",
            counters(&old),
            counters(&new)
        ));
    }
    let rows = old
        .gate
        .iter()
        .zip(&new.gate)
        .map(|(&(name, better, old), &(_, _, new))| {
            let delta = delta(old, new);
            let failed = match better {
                Better::Lower => delta > TOLERANCE,
                Better::Higher => delta < -TOLERANCE,
                Better::Info => false,
            };
            Row {
                name: name.to_string(),
                better,
                old,
                new,
                delta,
                failed,
            }
        })
        .collect();
    Ok(Comparison {
        bench: old.bench.to_string(),
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fixed(u64);

    impl Campaign for Fixed {
        fn counts(&self) -> Vec<(&'static str, u64)> {
            vec![("runs", 4)]
        }
        fn violations(&self) -> u64 {
            self.0
        }
    }

    fn doc(bench: &str, quick: bool, gate: Vec<Gate>) -> String {
        Ledger {
            bench,
            quick,
            gate,
            campaigns: vec![("fuzz", &Fixed(0))],
            persistcheck_clean: Some(true),
            context: vec![("note", "ignored by the gate".into())],
        }
        .to_json()
        .render()
    }

    fn verdict(old: Gate, new_value: f64) -> bool {
        let new = (old.0, old.1, new_value);
        compare(&doc("b", true, vec![old]), &doc("b", true, vec![new]))
            .expect("comparable")
            .failed()
    }

    #[test]
    fn direction_decides_which_drift_fails() {
        assert!(verdict(("cost", Better::Lower, 100.0), 106.0));
        assert!(!verdict(("cost", Better::Lower, 100.0), 104.0));
        assert!(!verdict(("cost", Better::Lower, 100.0), 50.0));
        assert!(verdict(("speed", Better::Higher, 100.0), 94.0));
        assert!(!verdict(("speed", Better::Higher, 100.0), 96.0));
        assert!(!verdict(("speed", Better::Higher, 100.0), 200.0));
    }

    #[test]
    fn info_never_fails() {
        for v in [0.0, 1.0, 1e9] {
            assert!(!verdict(("context", Better::Info, 100.0), v));
        }
    }

    #[test]
    fn zero_baseline_growth_fails_a_lower_counter() {
        assert!(verdict(("smells", Better::Lower, 0.0), 1.0));
        assert!(!verdict(("smells", Better::Lower, 0.0), 0.0));
        assert!(!verdict(("speed", Better::Higher, 0.0), 1.0));
    }

    #[test]
    fn refuses_mismatched_files() {
        let base = doc(
            "b",
            true,
            vec![("x", Better::Lower, 1.0), ("y", Better::Info, 1.0)],
        );
        let cases = [
            (
                "missing counter",
                doc("b", true, vec![("x", Better::Lower, 1.0)]),
            ),
            (
                "other bench",
                doc(
                    "c",
                    true,
                    vec![("x", Better::Lower, 1.0), ("y", Better::Info, 1.0)],
                ),
            ),
            (
                "full vs quick",
                doc(
                    "b",
                    false,
                    vec![("x", Better::Lower, 1.0), ("y", Better::Info, 1.0)],
                ),
            ),
            (
                "direction",
                doc(
                    "b",
                    true,
                    vec![("x", Better::Higher, 1.0), ("y", Better::Info, 1.0)],
                ),
            ),
        ];
        for (what, new) in cases {
            assert!(compare(&base, &new).is_err(), "{what} was compared");
        }
        assert!(compare(&base, &base).is_ok());
    }

    #[test]
    fn refuses_violations_and_unclean_audits() {
        let gate = vec![("x", Better::Lower, 1.0)];
        let clean = doc("b", true, gate.clone());
        let violated = Ledger {
            bench: "b",
            quick: true,
            gate: gate.clone(),
            campaigns: vec![("fuzz", &Fixed(1))],
            persistcheck_clean: None,
            context: vec![],
        }
        .to_json()
        .render();
        let unclean = Ledger {
            bench: "b",
            quick: true,
            gate,
            campaigns: vec![],
            persistcheck_clean: Some(false),
            context: vec![],
        }
        .to_json()
        .render();
        for bad in [&violated, &unclean] {
            assert!(compare(&clean, bad).is_err());
            assert!(
                compare(bad, &clean).is_err(),
                "a bad baseline is refused too"
            );
        }
        assert!(compare("{", &clean).is_err(), "malformed JSON is refused");
    }

    #[test]
    fn an_unseen_bench_is_gated_from_its_data() {
        let old = doc(
            "never_seen_before",
            false,
            vec![("knee", Better::Higher, 10.0), ("p99", Better::Lower, 5.0)],
        );
        let new = doc(
            "never_seen_before",
            false,
            vec![("knee", Better::Higher, 10.2), ("p99", Better::Lower, 5.5)],
        );
        let c = compare(&old, &new).expect("comparable");
        assert_eq!(c.bench, "never_seen_before");
        let failed: Vec<_> = c
            .rows
            .iter()
            .filter(|r| r.failed)
            .map(|r| r.name.as_str())
            .collect();
        assert_eq!(failed, ["p99"]);
    }

    #[test]
    fn ledger_renders_the_schema() {
        let json = doc("b", true, vec![("k", Better::Higher, 2.0)]);
        assert_eq!(
            json,
            r#"{"bench":"b","quick":true,"persistcheck_clean":true,"gate":{"k":{"value":2.0,"better":"higher"}},"campaigns":{"fuzz":{"runs":4,"violations":0}},"context":{"note":"ignored by the gate"}}"#
        );
    }
}
