//! The persistrace engine: vector-clock happens-before tracking with an
//! Eraser-style lockset fallback, over thread-tagged nvmsim traces.
//!
//! ## Model
//!
//! Every traced event ticks its thread's vector clock. The four sync
//! annotations move clocks between threads through per-object clocks:
//!
//! * `LockRelease { obj }` / `AtomicStoreRelease { obj }` — publish: the
//!   object clock joins the releasing thread's clock.
//! * `LockAcquire { obj }` / `AtomicLoadAcquire { obj }` — adopt: the
//!   acquiring thread's clock joins the object clock.
//!
//! Event `a` *happens-before* event `b` iff `a`'s clock snapshot ≤ `b`'s
//! thread clock at `b`. Lock acquire/release additionally maintain each
//! thread's *lockset*; a candidate race whose two sides held a common
//! lock is suppressed (Eraser fallback) — mutual exclusion without a
//! visible release→acquire pair usually means an elided annotation, and a
//! suppressed report beats a false positive in a CI gate.
//!
//! ## Rules
//!
//! * **persist-race** — two threads' *unfenced* stores touch the same
//!   cache line with no happens-before edge between them. Until a fence
//!   makes the line durable, write-back order is undefined, so recovery
//!   can observe either thread's bytes (or a word-level mix on one line).
//! * **cross-thread-flush-dependency** — thread B `clflush`es a line whose
//!   latest store came from thread A with no edge A→B: A's durability
//!   silently depends on a flush A never ordered with, so moving or
//!   removing B's flush (or B crashing first) loses A's data.
//! * **unordered-commit** — a commit annotation by thread T covers a line
//!   whose durability fence was issued by another thread with no edge
//!   fence→commit: T declares data durable without having synchronized
//!   with the thread that made it so.
//!
//! Each violation cites both event ordinals and names the missing edge
//! (`tA#i -> tB#j`). Per (rule, line, thread-pair) only the first instance
//! is reported, so one buggy code path does not flood the report.

use std::collections::{HashMap, HashSet};

use crate::{Rule, Violation};
use nvmsim::CACHE_LINE;

/// A vector clock over dense thread indices.
#[derive(Clone, Debug, Default, PartialEq)]
struct VClock(Vec<u64>);

impl VClock {
    fn tick(&mut self, i: usize) {
        if self.0.len() <= i {
            self.0.resize(i + 1, 0);
        }
        self.0[i] += 1;
    }

    fn join(&mut self, other: &VClock) {
        if self.0.len() < other.0.len() {
            self.0.resize(other.0.len(), 0);
        }
        for (a, &b) in self.0.iter_mut().zip(&other.0) {
            *a = (*a).max(b);
        }
    }

    /// Component-wise ≤ (missing components are 0).
    fn leq(&self, other: &VClock) -> bool {
        self.0
            .iter()
            .enumerate()
            .all(|(i, &v)| v <= other.0.get(i).copied().unwrap_or(0))
    }
}

/// Per-thread engine state.
#[derive(Debug, Default)]
struct ThreadState {
    vc: VClock,
    /// Sync-object ids of currently held locks (small; linear scans).
    locks: Vec<u64>,
}

/// One thread's latest unfenced store to a line.
#[derive(Clone, Debug)]
struct Access {
    thread: u32,
    seq: u64,
    vc: VClock,
    locks: Vec<u64>,
}

/// The fence that last made a line durable.
#[derive(Clone, Debug)]
struct FenceInfo {
    thread: u32,
    seq: u64,
    vc: VClock,
    locks: Vec<u64>,
}

fn locks_disjoint(a: &[u64], b: &[u64]) -> bool {
    !a.iter().any(|l| b.contains(l))
}

/// Incremental happens-before + lockset state, driven by
/// [`crate::Checker`] as it replays the trace.
#[derive(Debug, Default)]
pub(crate) struct RaceEngine {
    /// Global thread id → dense index.
    tix: HashMap<u32, usize>,
    threads: Vec<ThreadState>,
    /// Seen more than one thread id (cheap pre-filter: a single-threaded
    /// trace is totally ordered and can never race).
    multi: bool,
    /// Per sync object: clock published by the last release-type event.
    sync: HashMap<u64, VClock>,
    /// Per line: unfenced stores, at most one per thread.
    writers: HashMap<usize, Vec<Access>>,
    /// Per line: the fence that last made it durable.
    durable: HashMap<usize, FenceInfo>,
    /// (rule, line, thread pair) already reported.
    fired: HashSet<(Rule, usize, u32, u32)>,
}

impl RaceEngine {
    fn idx(&mut self, t: u32) -> usize {
        if let Some(&i) = self.tix.get(&t) {
            return i;
        }
        let i = self.threads.len();
        self.tix.insert(t, i);
        self.threads.push(ThreadState::default());
        if i > 0 {
            self.multi = true;
        }
        i
    }

    /// Ticks `t`'s clock; call once per trace event, before the handler.
    pub(crate) fn begin(&mut self, t: u32) {
        let i = self.idx(t);
        self.threads[i].vc.tick(i);
    }

    pub(crate) fn acquire(&mut self, t: u32, obj: u64) {
        let i = self.idx(t);
        if let Some(o) = self.sync.get(&obj) {
            let o = o.clone();
            self.threads[i].vc.join(&o);
        }
        if !self.threads[i].locks.contains(&obj) {
            self.threads[i].locks.push(obj);
        }
    }

    pub(crate) fn release(&mut self, t: u32, obj: u64) {
        let i = self.idx(t);
        self.sync.entry(obj).or_default().join(&self.threads[i].vc);
        self.threads[i].locks.retain(|&l| l != obj);
    }

    pub(crate) fn load_acquire(&mut self, t: u32, obj: u64) {
        let i = self.idx(t);
        if let Some(o) = self.sync.get(&obj) {
            let o = o.clone();
            self.threads[i].vc.join(&o);
        }
    }

    pub(crate) fn store_release(&mut self, t: u32, obj: u64) {
        let i = self.idx(t);
        self.sync.entry(obj).or_default().join(&self.threads[i].vc);
    }

    fn fire_once(&mut self, rule: Rule, line: usize, a: u32, b: u32) -> bool {
        self.fired.insert((rule, line, a.min(b), a.max(b)))
    }

    /// A store by `t` covering `lines`: race-checks against other threads'
    /// unfenced stores, then records/refreshes `t`'s access per line.
    pub(crate) fn store(
        &mut self,
        t: u32,
        seq: u64,
        lines: impl Iterator<Item = usize>,
        out: &mut Vec<Violation>,
    ) {
        let i = self.idx(t);
        let vc = self.threads[i].vc.clone();
        let locks = self.threads[i].locks.clone();
        for line in lines {
            if self.multi {
                let candidates: Vec<(u32, u64)> = self
                    .writers
                    .get(&line)
                    .map(|ws| {
                        ws.iter()
                            .filter(|a| {
                                a.thread != t && !a.vc.leq(&vc) && locks_disjoint(&a.locks, &locks)
                            })
                            .map(|a| (a.thread, a.seq))
                            .collect()
                    })
                    .unwrap_or_default();
                for (other, other_seq) in candidates {
                    if self.fire_once(Rule::PersistRace, line, other, t) {
                        let base = line * CACHE_LINE;
                        out.push(Violation {
                            rule: Rule::PersistRace,
                            addr: base,
                            events: vec![other_seq, seq],
                            detail: format!(
                                "threads t{other} and t{t} both stored line {base:#x} while it \
                                 was unfenced; missing happens-before edge \
                                 t{other}#{other_seq} -> t{t}#{seq} (disjoint locksets), so \
                                 recovery can observe either thread's write-back"
                            ),
                        });
                    }
                }
            }
            let ws = self.writers.entry(line).or_default();
            match ws.iter_mut().find(|a| a.thread == t) {
                Some(a) => {
                    a.seq = seq;
                    a.vc = vc.clone();
                    a.locks = locks.clone();
                }
                None => ws.push(Access {
                    thread: t,
                    seq,
                    vc: vc.clone(),
                    locks: locks.clone(),
                }),
            }
        }
    }

    /// A staged `clflush` by `t` of `line`: flags unfenced stores by other
    /// threads with no edge into the flush.
    pub(crate) fn flush(&mut self, t: u32, seq: u64, line: usize, out: &mut Vec<Violation>) {
        if !self.multi {
            return;
        }
        let i = self.idx(t);
        let vc = self.threads[i].vc.clone();
        let locks = self.threads[i].locks.clone();
        let candidates: Vec<(u32, u64)> = self
            .writers
            .get(&line)
            .map(|ws| {
                ws.iter()
                    .filter(|a| a.thread != t && !a.vc.leq(&vc) && locks_disjoint(&a.locks, &locks))
                    .map(|a| (a.thread, a.seq))
                    .collect()
            })
            .unwrap_or_default();
        for (other, other_seq) in candidates {
            if self.fire_once(Rule::CrossThreadFlushDependency, line, other, t) {
                let base = line * CACHE_LINE;
                out.push(Violation {
                    rule: Rule::CrossThreadFlushDependency,
                    addr: base,
                    events: vec![other_seq, seq],
                    detail: format!(
                        "t{t}'s clflush of line {base:#x} at #{seq} is what persists \
                         t{other}'s store at #{other_seq}, but there is no happens-before \
                         edge t{other}#{other_seq} -> t{t}#{seq} (disjoint locksets): \
                         t{other}'s durability depends on a flush it never ordered with"
                    ),
                });
            }
        }
    }

    /// An `sfence` by `t` made `line` durable. Records the fence info for
    /// the unordered-commit rule and retires the line's unfenced stores
    /// (unless the line was re-dirtied after its flush).
    pub(crate) fn fence_line(&mut self, t: u32, seq: u64, line: usize, still_dirty: bool) {
        let i = self.idx(t);
        self.durable.insert(
            line,
            FenceInfo {
                thread: t,
                seq,
                vc: self.threads[i].vc.clone(),
                locks: self.threads[i].locks.clone(),
            },
        );
        if !still_dirty {
            self.writers.remove(&line);
        }
    }

    /// `t`'s current epoch: its dense index and its own clock component.
    /// An event stamped with this epoch happens-before a later event of
    /// thread `u` iff [`hb_before`](Self::hb_before) says so.
    pub(crate) fn epoch(&mut self, t: u32) -> (usize, u64) {
        let i = self.idx(t);
        (i, self.threads[i].vc.0[i])
    }

    /// True iff the event stamped `epoch` happens-before `t`'s current
    /// event (always true for `t`'s own earlier events).
    pub(crate) fn hb_before(&mut self, (i, c): (usize, u64), t: u32) -> bool {
        let j = self.idx(t);
        self.threads[j].vc.0.get(i).copied().unwrap_or(0) >= c
    }

    /// A commit by `t` covers `line` (fenced in an earlier epoch): flags a
    /// durability fence issued by another thread with no edge into the
    /// commit.
    pub(crate) fn commit_check(
        &mut self,
        t: u32,
        commit_seq: u64,
        line: usize,
        out: &mut Vec<Violation>,
    ) {
        if !self.multi {
            return;
        }
        let i = self.idx(t);
        let Some(f) = self.durable.get(&line) else {
            return;
        };
        if f.thread == t
            || f.vc.leq(&self.threads[i].vc)
            || !locks_disjoint(&f.locks, &self.threads[i].locks)
        {
            return;
        }
        let (other, other_seq) = (f.thread, f.seq);
        if self.fire_once(Rule::UnorderedCommit, line, other, t) {
            let base = line * CACHE_LINE;
            out.push(Violation {
                rule: Rule::UnorderedCommit,
                addr: base,
                events: vec![other_seq, commit_seq],
                detail: format!(
                    "commit at #{commit_seq} by t{t} covers line {base:#x}, whose durability \
                     fence was t{other}'s sfence at #{other_seq}; missing happens-before edge \
                     t{other}#{other_seq} -> t{t}#{commit_seq} (disjoint locksets), so the \
                     commit can persist before the data it declares durable"
                ),
            });
        }
    }

    /// A crash ends the execution: all pending cross-thread state is moot.
    /// Thread clocks survive (they only ever grow; keeping them cannot
    /// create a spurious edge, only suppress reports across the crash,
    /// which is correct — pre-crash events *did* happen before recovery).
    pub(crate) fn crash(&mut self) {
        self.writers.clear();
        self.durable.clear();
        self.sync.clear();
        for th in &mut self.threads {
            th.locks.clear();
        }
    }
}
