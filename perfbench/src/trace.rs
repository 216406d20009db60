//! In-memory span recorder for the traced run.
//!
//! A span is one call into a layer's public function: its name, start and
//! end in both clocks, the span that was open when it began (its parent),
//! and the client op it belongs to. Spans stay in a `Vec` until the round
//! ends; [`Tracer::summary`] then derives each name's total and self time
//! (span time minus the time of its child spans) in both clocks.
//!
//! The recorder is thread-local: the benchmark drives every stack from one
//! client thread, and the decorators in [`crate::decor`] reach it without
//! threading a handle through the library's constructors. With no tracer
//! installed, [`span`] costs one thread-local flag load.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

use crate::clocks::Clocks;

const NO_PARENT: u32 = u32::MAX;

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub parent: u32,
    pub op: u32,
    pub sim_start: u64,
    pub sim_end: u64,
    pub host_start: u64,
    pub host_end: u64,
}

impl Span {
    pub fn sim_ns(&self) -> u64 {
        self.sim_end - self.sim_start
    }

    pub fn host_ns(&self) -> u64 {
        self.host_end - self.host_start
    }
}

/// Per-name aggregate of a round's spans.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameStats {
    pub calls: u64,
    pub sim_ns: u64,
    pub self_sim_ns: u64,
    pub host_ns: u64,
    pub self_host_ns: u64,
}

/// What a round's trace reduces to.
#[derive(Clone, Debug, Default)]
pub struct Summary {
    pub names: BTreeMap<&'static str, NameStats>,
    /// Calls of `child` made while `parent` was the innermost open span,
    /// keyed `(parent, child)`.
    pub edges: BTreeMap<(&'static str, &'static str), u64>,
    /// Sim and host time of parentless spans (everything the op loop
    /// attributes to a named layer).
    pub top_sim_ns: u64,
    pub top_host_ns: u64,
    pub counters: BTreeMap<&'static str, u64>,
}

impl Summary {
    pub fn get(&self, name: &str) -> NameStats {
        self.names.get(name).copied().unwrap_or_default()
    }

    pub fn edge(&self, parent: &str, child: &str) -> u64 {
        self.edges
            .iter()
            .filter(|((p, c), _)| *p == parent && *c == child)
            .map(|(_, n)| n)
            .sum()
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Self time in both clocks summed over every span whose name starts
    /// with `layer` followed by a dot.
    pub fn layer_self(&self, layer: &str) -> (u64, u64) {
        self.names
            .iter()
            .filter(|(n, _)| n.strip_prefix(layer).is_some_and(|r| r.starts_with('.')))
            .fold((0, 0), |(s, h), (_, st)| {
                (s + st.self_sim_ns, h + st.self_host_ns)
            })
    }
}

/// The span recorder of one traced round.
pub struct Tracer {
    clocks: Clocks,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
    counters: BTreeMap<&'static str, u64>,
}

impl Tracer {
    pub fn new(clocks: Clocks) -> Tracer {
        Tracer {
            clocks,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            counters: BTreeMap::new(),
        }
    }

    fn host_now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }

    /// Reduces the recorded spans to per-name totals and self times.
    pub fn summary(&self) -> Summary {
        let mut child_sim = vec![0u64; self.spans.len()];
        let mut child_host = vec![0u64; self.spans.len()];
        let mut out = Summary {
            counters: self.counters.clone(),
            ..Summary::default()
        };
        for s in &self.spans {
            if s.parent == NO_PARENT {
                out.top_sim_ns += s.sim_ns();
                out.top_host_ns += s.host_ns();
            } else {
                let p = s.parent as usize;
                child_sim[p] += s.sim_ns();
                child_host[p] += s.host_ns();
                *out.edges.entry((self.spans[p].name, s.name)).or_default() += 1;
            }
        }
        for (i, s) in self.spans.iter().enumerate() {
            let st = out.names.entry(s.name).or_default();
            st.calls += 1;
            st.sim_ns += s.sim_ns();
            st.host_ns += s.host_ns();
            st.self_sim_ns += s.sim_ns().saturating_sub(child_sim[i]);
            st.self_host_ns += s.host_ns().saturating_sub(child_host[i]);
        }
        out
    }
}

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Starts recording on this thread.
pub fn install(tracer: Tracer) {
    TRACER.with(|t| *t.borrow_mut() = Some(tracer));
    ENABLED.with(|e| e.set(true));
}

/// Stops recording and hands the tracer back.
pub fn uninstall() -> Option<Tracer> {
    ENABLED.with(|e| e.set(false));
    TRACER.with(|t| t.borrow_mut().take())
}

fn enabled() -> bool {
    ENABLED.with(Cell::get)
}

/// Sets the op id stamped on spans opened from now on.
pub fn set_op(op: u64) {
    if enabled() {
        TRACER.with(|t| {
            if let Some(tr) = t.borrow_mut().as_mut() {
                tr.op = op as u32;
            }
        });
    }
}

/// Adds `n` to a named counter.
pub fn count(name: &'static str, n: u64) {
    if enabled() {
        TRACER.with(|t| {
            if let Some(tr) = t.borrow_mut().as_mut() {
                *tr.counters.entry(name).or_default() += n;
            }
        });
    }
}

/// An open span; it closes when dropped.
#[must_use]
pub struct Guard(Option<u32>);

/// Opens a span named `name` under the innermost open span.
pub fn span(name: &'static str) -> Guard {
    if !enabled() {
        return Guard(None);
    }
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let Some(tr) = t.as_mut() else {
            return Guard(None);
        };
        let idx = tr.spans.len() as u32;
        let sim = tr.clocks.now_ns();
        let host = tr.host_now();
        tr.spans.push(Span {
            name,
            parent: tr.open.last().copied().unwrap_or(NO_PARENT),
            op: tr.op,
            sim_start: sim,
            sim_end: sim,
            host_start: host,
            host_end: host,
        });
        tr.open.push(idx);
        Guard(Some(idx))
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(idx) = self.0 else { return };
        TRACER.with(|t| {
            if let Some(tr) = t.borrow_mut().as_mut() {
                let host = tr.host_now();
                let sim = tr.clocks.now_ns();
                let s = &mut tr.spans[idx as usize];
                s.host_end = host;
                s.sim_end = sim;
                debug_assert_eq!(tr.open.last(), Some(&idx), "spans close in LIFO order");
                tr.open.pop();
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvmsim::SimClock;

    #[test]
    fn self_time_subtracts_children() {
        let clock = SimClock::new();
        install(Tracer::new(Clocks::new(vec![clock.clone()])));
        {
            let _a = span("fssim.write");
            clock.advance(10);
            {
                let _b = span("core.commit");
                clock.advance(30);
            }
            clock.advance(5);
        }
        let tr = uninstall().unwrap();
        let s = tr.summary();
        assert_eq!(s.get("fssim.write").sim_ns, 45);
        assert_eq!(s.get("fssim.write").self_sim_ns, 15);
        assert_eq!(s.get("core.commit").self_sim_ns, 30);
        assert_eq!(s.top_sim_ns, 45);
        assert_eq!(s.edge("fssim.write", "core.commit"), 1);
        assert_eq!(s.layer_self("core").0, 30);
    }

    #[test]
    fn disabled_span_records_nothing() {
        let g = span("x");
        assert!(g.0.is_none());
        assert!(uninstall().is_none());
    }
}
