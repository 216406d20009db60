//! Pool-side state of the **ring commit pipeline** (DESIGN §16), the
//! one protocol [`TincaPool`](crate::TincaPool) commits with.
//!
//! A shard's writers do not serialise the whole commit behind the cache
//! mutex. Instead each writer:
//!
//! 1. **reserves** a contiguous ring-slot window: in one critical section
//!    of the shard's [`MwState`] lock it claims its disk blocks in the
//!    conflict-admission set (so concurrent windows never touch the same
//!    block), takes a free descriptor slot, advances the reservation
//!    cursor and registers the window — so windows are registered in
//!    exactly their ring order and no reservation is ever invisible to
//!    the sequencer, a quiesce or a flush,
//! 2. runs a short **latched meta phase** under the cache lock — block
//!    allocation, log-role entry stores, ring-slot stores, the `RESERVED`
//!    descriptor — everything flushed, nothing fenced,
//! 3. **stages** its payloads concurrently, outside any lock, on a private
//!    clock,
//! 4. **publishes** the window with one 8 B release-store flipping the
//!    descriptor state word to `STAGED`, and
//! 5. the thread completing the lowest outstanding window becomes the
//!    **sequencer** (combiner-style): one fence drains every published
//!    window, then one `Head` store — the round's commit point — retires
//!    the maximal contiguous `STAGED` prefix.
//!
//! The types here are DRAM bookkeeping only; the persistent side (window
//! descriptor table, ring slots, entries) lives in the layout/cache
//! modules, and recovery's resume-or-roll-back rule in `recovery.rs`.

use std::collections::{HashSet, VecDeque};

use crate::cache::MwStagedMeta;
use crate::layout::MW_WINDOWS;
use crate::txn::BlockBuf;
use crate::Txn;

/// One in-flight window in a shard's reservation order.
pub(crate) struct MwWindow {
    /// Window identity (monotone per shard; tags the descriptor word).
    pub(crate) ordinal: u64,
    /// First reserved ring sequence number.
    pub(crate) start: u64,
    /// Window length in slots.
    pub(crate) len: u64,
    /// Descriptor table slot backing the window.
    pub(crate) desc_slot: usize,
    /// The writer published its `STAGED` state word.
    pub(crate) staged: bool,
    /// Private-clock time at which the writer's staging finished.
    pub(crate) ready_ns: u64,
    /// Disk blocks claimed in the conflict-admission set.
    pub(crate) disk_blocks: Vec<u64>,
    /// Cache-side window bookkeeping, attached after the meta phase.
    pub(crate) meta: Option<MwStagedMeta>,
}

/// DRAM coordination state of one shard's commit pipeline. Every field
/// is read and written under one mutex, so a reservation (credit,
/// cursor, conflict claim, registration) is a single atomic step.
pub(crate) struct MwState {
    /// Next unreserved ring sequence number.
    pub(crate) cursor: u64,
    /// Reservation bound: `Tail + ring_cap`, republished by the sequencer
    /// after each round. A reservation `[cursor, cursor+n)` with
    /// `cursor + n <= ring_limit` can never collide with a live slot.
    pub(crate) ring_limit: u64,
    /// Outstanding windows in reservation (ring) order.
    pub(crate) windows: VecDeque<MwWindow>,
    /// Disk blocks owned by outstanding windows (conflict admission:
    /// a transaction touching any of these waits *before* reserving, so
    /// blocked writers never hold ring slots).
    pub(crate) in_flight: HashSet<u64>,
    /// Free descriptor-table slots; an empty list refuses admission.
    pub(crate) free_desc: Vec<usize>,
    /// Next window ordinal.
    pub(crate) next_ordinal: u64,
    /// A sequencer round is in flight (combiner flag).
    pub(crate) sequencing: bool,
    /// A spanning prepare owns the shard: new reservations wait.
    pub(crate) spanning_open: bool,
    /// Ordinals blocking commits are waiting on.
    pub(crate) waiting: HashSet<u64>,
    /// Retired ordinals from `waiting` (consumed by the waiter).
    pub(crate) retired: HashSet<u64>,
    /// Sequencer handoffs not yet folded into the cache stats.
    pub(crate) pending_handoffs: u64,
}

impl MwState {
    /// Pipeline state for a shard whose ring is closed at `head`.
    pub(crate) fn new(head: u64, ring_cap: u64) -> MwState {
        MwState {
            cursor: head,
            ring_limit: head + ring_cap,
            windows: VecDeque::new(),
            in_flight: HashSet::new(),
            free_desc: (0..MW_WINDOWS).collect(),
            next_ordinal: 0,
            sequencing: false,
            spanning_open: false,
            waiting: HashSet::new(),
            retired: HashSet::new(),
            pending_handoffs: 0,
        }
    }

    /// True when no window is outstanding and no round is running.
    pub(crate) fn is_idle(&self) -> bool {
        self.windows.is_empty() && !self.sequencing
    }
}

/// A reserved window, held by its writer between
/// [`TincaPool::mw_try_begin`](crate::TincaPool::mw_try_begin) and
/// [`TincaPool::mw_publish`](crate::TincaPool::mw_publish). The meta phase
/// has already run; the remaining steps — staging the payloads and
/// publishing the state word — run without any lock.
pub struct MwTicket {
    pub(crate) shard: usize,
    pub(crate) ordinal: u64,
    pub(crate) desc_slot: usize,
    /// `(nvm address, payload)` staging jobs, drained by `mw_stage`.
    pub(crate) stage_jobs: Vec<(usize, BlockBuf)>,
    /// Private-clock frontier: starts at the shard clock when the meta
    /// phase ended, advanced by the diverted staging charges.
    pub(crate) ready_ns: u64,
}

impl MwTicket {
    /// The shard this window commits on.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// The window's ordinal (shard-local identity).
    pub fn ordinal(&self) -> u64 {
        self.ordinal
    }
}

/// Outcome of a non-blocking admission attempt.
pub enum MwAdmission {
    /// The window is reserved and its meta phase has run; stage and
    /// publish the returned ticket.
    Admitted(MwTicket),
    /// The transaction conflicts with an in-flight window, the shard is
    /// quiesced for a spanning prepare, or ring/descriptor capacity is
    /// exhausted. The transaction is handed back; retry after the shard
    /// makes progress (e.g. a sequencer round retires windows).
    Busy(Txn),
}
