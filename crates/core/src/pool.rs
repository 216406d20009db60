//! `TincaPool` — a sharded, thread-safe front-end over [`TincaCache`].
//!
//! The paper evaluates Tinca under multi-threaded Fio/Filebench/MySQL
//! load; a single `TincaCache` serialises everything behind `&mut self`.
//! The pool partitions the NVM into `N` independent shards — each shard is
//! a complete `TincaCache` on its own NVM device region (disjoint
//! [`Layout`](crate::Layout)s, own `Head`/`Tail` ring, own entry table) —
//! and routes disk block `b` to shard `b % N`. Because every commit point
//! is still a single 8-byte store *within one shard's region*, the
//! paper's single-commit-point crash argument holds per shard unchanged.
//!
//! ## Commit pipeline and group commit
//!
//! Every commit runs the shard's ring pipeline (DESIGN §16; the steps are
//! described in the `mwring` module). A writer **reserves** a window of
//! ring slots — conflict claim, descriptor slot, cursor advance and
//! window registration in one critical section of the shard's pipeline
//! lock — runs a short **meta** phase under the cache lock, **stages**
//! its payloads on a private clock outside any lock, and **publishes**
//! the window with one 8 B descriptor store. The thread that finds the
//! lowest outstanding window published becomes the **sequencer**: one
//! fence and one `Head` store retire the maximal contiguous prefix of
//! published windows. That is group commit: windows published while a
//! round is in flight ride the next round together and share its fence
//! and commit point, the way JBD2 amortises fsyncs into a compound
//! transaction. [`CacheStats::group_commits`] counts rounds that retired
//! more than one window, [`CacheStats::batched_txns`] the windows in
//! them, and [`CacheStats::commits`] every committed transaction.
//!
//! A single writer has one window in flight at a time, so its commits
//! run the same steps back to back. With `N = 1` the pool is logically
//! equivalent to a bare `TincaCache` — same read-back, same recovered
//! contents, same cache statistics apart from the descriptor traffic —
//! but not bit-for-bit: the window descriptor and the separate
//! `Head`/`Tail` stores add NVM events.
//!
//! ## Atomicity scope
//!
//! **Every** transaction commits all-or-nothing across any crash or I/O
//! fault — including transactions whose blocks span shards. A
//! single-shard transaction (always the case for `N = 1`, and for
//! block-aligned workloads like Fio 4 KB requests) is one window on its
//! home shard's ring.
//!
//! A **spanning** transaction first stages each fragment outside any
//! commit lock — copy-on-write blocks allocated under the participant's
//! cache lock, payloads written on a private clock, no entry naming them
//! yet — then commits in a **batch** with every other staged spanning
//! transaction ahead of it, through a persistent two-phase commit
//! (DESIGN §14):
//!
//! 1. **Publish.** A one-cache-line *spanning-intent record* (sequence id
//!    plus participant shard bitmap, at the layout module's `INTENT_OFF` on
//!    shard 0's device) is written and fenced *before* any fragment. While
//!    the record reads `PREPARED`, recovery rolls every tagged fragment
//!    back.
//! 2. **Prepare.** Each participant shard is quiesced (outstanding windows
//!    drained, new reservations held off) and commits the batch's
//!    fragments on it as one window — ring slots tagged with the intent
//!    id, a spanning-flagged descriptor, `Head` move, role switch — but
//!    **its `Tail` does not move**, so they stay revocable.
//! 3. **Resolve.** One 8 B atomic store flips the record to `RESOLVED`
//!    and is fenced: the batch's commit point. Each shard's `Tail` then
//!    moves, and the record is retired.
//!
//! Recovery ([`TincaPool::recover`]) reads the record first and hands
//! every shard the same [`SpanningIntent`] directive, so all shards roll
//! the same direction exactly once. One batch runs at a time (the record
//! has one slot); its leader quiesces the participants and locks shard 0
//! plus the participants in ascending order, so batches cannot deadlock
//! with single-shard commits (which never wait while holding a lock).

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex as StdMutex, MutexGuard as StdGuard, PoisonError};

use blockdev::BLOCK_SIZE;
use nvmsim::Nvm;
use parking_lot::Mutex;

use crate::cache::{DynDisk, MwStagedMeta};
use crate::layout::{
    intent_tag, mw_desc_addr, mw_state_word, INTENT_OFF, INTENT_SHARDS_OFF, INTENT_STATE_OFF,
    MW_STAGED, MW_WINDOWS,
};
use crate::mwring::{MwAdmission, MwState, MwTicket, MwWindow};
use crate::{
    BlockBuf, CacheStats, Health, SpanningIntent, TincaCache, TincaConfig, TincaError, Txn,
    WritePolicy,
};

/// Configuration for a [`TincaPool`].
#[derive(Clone, Debug)]
pub struct PoolConfig {
    /// Number of shards (NVM sub-regions / independent commit rings).
    pub shards: usize,
    /// Per-shard cache configuration. The ring pipeline stages payloads
    /// outside the cache lock and completes commits in sequencer rounds,
    /// so it requires write-back policy with the role switch.
    pub cache: TincaConfig,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            shards: 1,
            cache: TincaConfig::default(),
        }
    }
}

/// Sync-object ids this pool annotates on each shard's NVM trace, namespaced
/// `shard_index * SYNC_STRIDE + kind` so a merged multi-shard trace
/// ([`nvmsim::merge_shard_traces`]) never conflates two shards' locks.
const SYNC_STRIDE: u64 = 16;
/// The shard's cache mutex — serialises meta phases, sequencer rounds,
/// reads, flushes, and the inline destage daemon (which runs under this
/// same lock).
const SYNC_CACHE_MUTEX: u64 = 0;
/// The window publication: each writer release-publishes its `STAGED`
/// descriptor store, the sequencer acquire-consumes the round's windows
/// before its drain fence.
const SYNC_MW_PUBLISH: u64 = 1;
/// A spanning transaction's hand-off to the batch leader: the writer
/// release-publishes on every participant's device once its fragments are
/// staged, the leader acquire-consumes before its prepare fences.
const SYNC_SPAN_PUBLISH: u64 = 2;

struct Shard {
    cache: Mutex<TincaCache>,
    /// Ring slots of this shard's layout (bounds one window).
    ring_slots: usize,
    /// This shard's NVM device, for sync-event trace annotations.
    nvm: Nvm,
    /// First sync-object id of this shard's namespace.
    sync_base: u64,
    /// Commit-pipeline coordination state.
    mw: StdMutex<MwState>,
    /// Signalled whenever a window publishes or retires, or a spanning
    /// quiesce lifts.
    cv: Condvar,
}

/// Cache-mutex guard that annotates acquisition and release as sync events
/// on the shard's NVM trace (no-ops when tracing is off), so the
/// happens-before engine sees the mutual exclusion the mutex provides.
struct CacheGuard<'a> {
    guard: parking_lot::MutexGuard<'a, TincaCache>,
    nvm: &'a Nvm,
    obj: u64,
}

impl std::ops::Deref for CacheGuard<'_> {
    type Target = TincaCache;
    fn deref(&self) -> &TincaCache {
        &self.guard
    }
}

impl std::ops::DerefMut for CacheGuard<'_> {
    fn deref_mut(&mut self) -> &mut TincaCache {
        &mut self.guard
    }
}

impl Drop for CacheGuard<'_> {
    fn drop(&mut self) {
        // Runs before the mutex guard field drops, so the release
        // annotation lands while the lock is still held.
        self.nvm.note_lock_release(self.obj);
    }
}

impl Shard {
    /// Locks the cache mutex; the acquire annotation is recorded *after*
    /// the lock is held (and the release before it drops), so annotations
    /// appear in the trace in true lock order.
    fn lock_cache(&self) -> CacheGuard<'_> {
        let guard = self.cache.lock();
        let obj = self.sync_base + SYNC_CACHE_MUTEX;
        self.nvm.note_lock_acquire(obj);
        CacheGuard {
            guard,
            nvm: &self.nvm,
            obj,
        }
    }

    /// Locks the pipeline state. Poison-tolerant: a simulated crash panic
    /// mid-commit must not strand surviving threads.
    fn lock_mw(&self) -> StdGuard<'_, MwState> {
        self.mw.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Parks on the pipeline condvar (releasing `mw`) until a window
    /// publishes or retires, or a spanning quiesce lifts.
    fn wait(&self, mw: StdGuard<'_, MwState>) {
        let _w = telemetry::span(telemetry::phase::RING_WAIT);
        drop(self.cv.wait(mw).unwrap_or_else(PoisonError::into_inner));
    }
}

/// Sharded multi-threaded front-end; see the module docs.
pub struct TincaPool {
    shards: Vec<Shard>,
    /// Spanning group-commit state: staged spanning transactions waiting
    /// for a batch, the active-leader flag (the persistent intent record
    /// has one slot, so one batch runs at a time) and intent sequence
    /// ids. Poison-tolerant like the pipeline mutexes.
    spanning: StdMutex<SpanState>,
    /// Signalled when a spanning batch retires.
    spanning_cv: Condvar,
}

impl TincaPool {
    /// Formats one [`TincaCache`] per device and assembles the pool.
    /// `devices[i]` becomes shard `i`; all shards share the backing disk
    /// (their disk-block sets are disjoint by routing).
    pub fn format(devices: Vec<Nvm>, disk: DynDisk, cfg: PoolConfig) -> Self {
        Self::check_config(&devices, &cfg);
        let shards = devices
            .into_iter()
            .enumerate()
            .map(|(i, nvm)| {
                Self::shard(i, TincaCache::format(nvm, disk.clone(), cfg.cache.clone()))
            })
            .collect();
        TincaPool {
            shards,
            spanning: StdMutex::new(SpanState::default()),
            spanning_cv: Condvar::new(),
        }
    }

    /// One device per shard, at least one shard, and a cache policy the
    /// ring pipeline supports: it stages payloads outside the cache lock
    /// and completes commits in sequencer rounds, so write-through
    /// completion and the double-write ablation are bare-cache features.
    fn check_config(devices: &[Nvm], cfg: &PoolConfig) {
        assert_eq!(
            devices.len(),
            cfg.shards,
            "one NVM device per shard required"
        );
        assert!(cfg.shards >= 1, "pool needs at least one shard");
        assert_eq!(
            cfg.cache.write_policy,
            WritePolicy::WriteBack,
            "TincaPool requires WritePolicy::WriteBack"
        );
        assert!(cfg.cache.role_switch, "TincaPool requires the role switch");
    }

    /// Recovers every shard from its NVM region after a crash or clean
    /// shutdown. The pool decodes the spanning-intent record (shard 0's
    /// device) first and hands each shard's §4.5 recovery the same
    /// [`SpanningIntent`] directive, so an interrupted spanning
    /// transaction rolls the same direction on every shard; the record is
    /// retired only once every shard has recovered.
    pub fn recover(devices: Vec<Nvm>, disk: DynDisk, cfg: PoolConfig) -> Result<Self, TincaError> {
        Self::check_config(&devices, &cfg);
        // Single-shard pools never write the record; skipping the read
        // keeps `N = 1` recovery identical to a bare cache's.
        let intent = if cfg.shards > 1 {
            SpanningIntent::decode(devices[0].read_u64(INTENT_STATE_OFF))
        } else {
            SpanningIntent::None
        };
        let mut shards = Vec::with_capacity(cfg.shards);
        for (i, nvm) in devices.iter().enumerate() {
            shards.push(Self::shard(
                i,
                TincaCache::recover_with_intent(
                    nvm.clone(),
                    disk.clone(),
                    cfg.cache.clone(),
                    intent,
                )?,
            ));
        }
        if intent != SpanningIntent::None {
            // All shards rolled the directive's way and closed their
            // rings; a crash before this store re-reads the record and
            // repeats the identical (idempotent) decision.
            let host = &devices[0];
            host.atomic_write_u64(INTENT_STATE_OFF, SpanningIntent::None.encode());
            host.atomic_write_u64(INTENT_SHARDS_OFF, 0);
            host.persist(INTENT_OFF, 16);
            host.note_commit(INTENT_OFF, 64);
        }
        Ok(TincaPool {
            shards,
            spanning: StdMutex::new(SpanState::default()),
            spanning_cv: Condvar::new(),
        })
    }

    fn shard(index: usize, cache: TincaCache) -> Shard {
        let ring_slots = cache.layout().ring_cap as usize;
        let nvm = cache.nvm().clone();
        let (head, _tail) = cache.head_tail();
        Shard {
            cache: Mutex::new(cache),
            ring_slots,
            nvm,
            sync_base: index as u64 * SYNC_STRIDE,
            mw: StdMutex::new(MwState::new(head, ring_slots as u64)),
            cv: Condvar::new(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard disk block `disk_blk` routes to.
    pub fn shard_of(&self, disk_blk: u64) -> usize {
        (disk_blk % self.shards.len() as u64) as usize
    }

    /// Starts a running transaction (DRAM-only, same as
    /// [`TincaCache::init_txn`]).
    pub fn init_txn(&self) -> Txn {
        Txn::new()
    }

    /// The single shard all of `txn`'s blocks route to, or `None` when
    /// the transaction spans shards (or stages nothing).
    fn home_shard(&self, txn: &Txn) -> Option<usize> {
        let mut home = None;
        for b in txn.disk_blocks() {
            let s = self.shard_of(b);
            if *home.get_or_insert(s) != s {
                return None;
            }
        }
        home
    }

    /// Splits a spanning transaction into per-shard fragments via
    /// [`shard_of`](Self::shard_of), preserving first-write order and
    /// moving payload buffers.
    fn split_spanning(&self, txn: Txn) -> Vec<Option<Txn>> {
        let mut parts: Vec<Option<Txn>> = (0..self.shards.len()).map(|_| None).collect();
        for (blk, buf) in txn.into_blocks() {
            let s = self.shard_of(blk);
            parts[s].get_or_insert_with(Txn::new).stage_owned(blk, buf);
        }
        parts
    }

    /// Commits `txn` atomically. Single-shard transactions (all blocks
    /// route to one shard — always true for `N = 1`) run one window
    /// through the shard's ring pipeline and may share a sequencer round
    /// with concurrent writers. Spanning transactions run the two-phase
    /// intent protocol (module docs): all-or-nothing across every shard,
    /// and on error — a fragment rejected mid-sequence — nothing of the
    /// transaction stays durable.
    pub fn commit(&self, txn: Txn) -> Result<(), TincaError> {
        if txn.is_empty() {
            return Ok(());
        }
        match self.home_shard(&txn) {
            Some(s) => self.commit_single_shard(s, txn),
            None => self.commit_cross_shard(txn),
        }
    }

    // ─────────────────────────── ring pipeline ───────────────────────────

    /// Non-blocking admission of a single-shard transaction. On
    /// [`MwAdmission::Admitted`] the caller owns a reserved window and
    /// must drive it through [`mw_stage`](Self::mw_stage),
    /// [`mw_publish`](Self::mw_publish), and (eventually)
    /// [`mw_sequence`](Self::mw_sequence); on [`MwAdmission::Busy`] the
    /// transaction is handed back untouched for a later retry. This is
    /// the steppable face of the pipeline — deterministic drivers
    /// (benches, fuzzers, proptests) interleave the steps explicitly.
    pub fn mw_try_begin(&self, txn: Txn) -> Result<MwAdmission, TincaError> {
        assert!(!txn.is_empty(), "empty transactions commit trivially");
        let home = self.home_shard(&txn);
        assert!(
            home.is_some(),
            "mw_try_begin requires a single-shard transaction"
        );
        self.mw_try_begin_on(home.unwrap_or(0), txn)
    }

    /// [`mw_try_begin`](Self::mw_try_begin) on a known home shard.
    fn mw_try_begin_on(&self, s: usize, txn: Txn) -> Result<MwAdmission, TincaError> {
        let sh = &self.shards[s];
        let n = txn.len() as u64;
        if txn.len() > sh.ring_slots {
            return Err(TincaError::TxnTooLarge {
                blocks: txn.len(),
                ring_cap: sh.ring_slots as u64,
            });
        }
        // Reservation: conflict claim, descriptor slot, ring window and
        // registration in ONE critical section, so windows register in
        // exactly their ring order and a quiesce, flush or sequencer
        // round never misses one. A refused writer holds nothing — no
        // slots, no blocks — while it waits (no hold-and-wait).
        let (ordinal, desc_slot, start) = {
            let _r = telemetry::span(telemetry::phase::RING_RESERVE);
            let mut mw = sh.lock_mw();
            if mw.spanning_open
                || mw.cursor + n > mw.ring_limit
                || txn.disk_blocks().any(|b| mw.in_flight.contains(&b))
            {
                return Ok(MwAdmission::Busy(txn));
            }
            // Descriptor credit: one persistent table slot per window.
            let Some(desc_slot) = mw.free_desc.pop() else {
                return Ok(MwAdmission::Busy(txn));
            };
            let start = mw.cursor;
            mw.cursor += n;
            mw.in_flight.extend(txn.disk_blocks());
            let ordinal = mw.next_ordinal;
            mw.next_ordinal += 1;
            mw.windows.push_back(MwWindow {
                ordinal,
                start,
                len: n,
                desc_slot,
                staged: false,
                ready_ns: 0,
                disk_blocks: txn.disk_blocks().collect(),
                meta: None,
            });
            (ordinal, desc_slot, start)
        };
        // Latched meta phase (short, under the cache lock): block
        // allocation, log-role entries, tagged ring slots, `RESERVED`
        // descriptor — flushed, fence deferred to the sequencer.
        // Bind before matching: a `match` scrutinee's temporaries (here
        // the cache guard) would otherwise live to the end of the match,
        // and the failure arm re-locks the cache via `mw_sequence`.
        let staged = sh
            .lock_cache()
            .mw_stage_meta(txn, start, desc_slot, ordinal);
        match staged {
            Ok(mut meta) => {
                let stage_jobs = std::mem::take(&mut meta.stage_jobs);
                let ready_ns = sh.nvm.clock().now_ns();
                Self::mw_window_mut(&mut sh.lock_mw(), ordinal).meta = Some(meta);
                Ok(MwAdmission::Admitted(MwTicket {
                    shard: s,
                    ordinal,
                    desc_slot,
                    stage_jobs,
                    ready_ns,
                }))
            }
            Err((e, meta)) => {
                // The window is sealed as a failed no-op (entries revoked,
                // unwritten slots dead-tagged); publish it `STAGED` so the
                // sequencer can pass it, then report the admission error.
                {
                    let mut mw = sh.lock_mw();
                    let w = Self::mw_window_mut(&mut mw, ordinal);
                    w.meta = Some(meta);
                    w.staged = true;
                    w.ready_ns = sh.nvm.clock().now_ns();
                }
                Self::mw_publish_desc(sh, desc_slot, ordinal);
                sh.cv.notify_all();
                self.mw_sequence(s);
                Err(e)
            }
        }
    }

    /// The window registered by [`mw_try_begin_on`](Self::mw_try_begin_on)
    /// for `ordinal` (only the sequencer removes windows, and it never
    /// removes one whose writer still holds the ticket).
    fn mw_window_mut(mw: &mut MwState, ordinal: u64) -> &mut MwWindow {
        // Audited panic: see the doc comment — the window is present for
        // the whole writer-visible lifetime of its ticket.
        #[allow(clippy::disallowed_methods)]
        mw.windows
            .iter_mut()
            .find(|w| w.ordinal == ordinal)
            .expect("ticketed window registered")
    }

    /// Stages the window's payload blocks — COW write + flush per block —
    /// on a **private clock** seeded at the meta-phase end, so concurrent
    /// writers' staging overlaps in simulated time instead of serialising.
    /// Runs under no lock. The private time is charged to `ring.stage`
    /// without advancing the shard clock; the shard pays for it only
    /// when a sequencer round waits for the slowest writer.
    pub fn mw_stage(&self, ticket: &mut MwTicket) {
        let sh = &self.shards[ticket.shard];
        ticket.ready_ns = Self::stage_private(sh, ticket.stage_jobs.drain(..), ticket.ready_ns);
    }

    /// Writes and flushes each `(nvm address, payload)` job on a private
    /// clock seeded at `from_ns`, charges the time to `ring.stage`, and
    /// returns the private clock's end: the staging's durability frontier.
    fn stage_private(
        sh: &Shard,
        jobs: impl IntoIterator<Item = (usize, BlockBuf)>,
        from_ns: u64,
    ) -> u64 {
        let private = nvmsim::SimClock::new();
        private.advance_to(from_ns);
        {
            let _scope = nvmsim::divert_charges(private.clone());
            for (addr, data) in jobs {
                sh.nvm.write(addr, &data[..]);
                sh.nvm.clflush(addr, BLOCK_SIZE);
            }
        }
        telemetry::charge(telemetry::phase::RING_STAGE, private.now_ns() - from_ns);
        private.now_ns()
    }

    /// Publishes the window: one 8 B release-store flips its descriptor
    /// state word to `STAGED` (flushed; the fence is the sequencer's).
    /// The store is charged to the writer's private clock, and the
    /// window's `ready_ns` carries its durability frontier into the round.
    pub fn mw_publish(&self, ticket: MwTicket) {
        let sh = &self.shards[ticket.shard];
        let private = nvmsim::SimClock::new();
        private.advance_to(ticket.ready_ns);
        {
            let _scope = nvmsim::divert_charges(private.clone());
            Self::mw_publish_desc(sh, ticket.desc_slot, ticket.ordinal);
        }
        telemetry::charge(
            telemetry::phase::RING_PUBLISH,
            private.now_ns() - ticket.ready_ns,
        );
        {
            let mut mw = sh.lock_mw();
            let w = Self::mw_window_mut(&mut mw, ticket.ordinal);
            w.staged = true;
            w.ready_ns = private.now_ns();
        }
        sh.cv.notify_all();
    }

    /// The `STAGED` descriptor store + flush + release annotation shared
    /// by the fast path, the failed-window seal, and the spanning lane.
    fn mw_publish_desc(sh: &Shard, desc_slot: usize, ordinal: u64) {
        let addr = mw_desc_addr(desc_slot);
        sh.nvm
            .atomic_write_u64(addr, mw_state_word(ordinal, MW_STAGED));
        sh.nvm.clflush(addr, 8);
        sh.nvm
            .note_atomic_store_release(sh.sync_base + SYNC_MW_PUBLISH);
    }

    /// Runs sequencer rounds on shard `s` until no retirable prefix
    /// remains: the caller that wins the combiner flag drains the maximal
    /// contiguous `STAGED` prefix with **one** fence and **one** `Head`
    /// store (the round's commit point); losers count a handoff and
    /// return. Returns the number of windows retired by this caller.
    pub fn mw_sequence(&self, s: usize) -> usize {
        let sh = &self.shards[s];
        let mut retired_total = 0usize;
        loop {
            let (mut round, handoffs) = {
                let mut mw = sh.lock_mw();
                if mw.sequencing {
                    mw.pending_handoffs += 1;
                    break;
                }
                // Maximal contiguous staged prefix, in ring order.
                let k = mw
                    .windows
                    .iter()
                    .take_while(|w| w.staged && w.meta.is_some())
                    .count();
                if k == 0 {
                    break;
                }
                mw.sequencing = true;
                let round: Vec<MwWindow> = mw.windows.drain(..k).collect();
                (round, std::mem::take(&mut mw.pending_handoffs))
            };
            let max_ready = round.iter().map(|w| w.ready_ns).max().unwrap_or(0);
            let end = round[round.len() - 1].start + round[round.len() - 1].len;
            let metas: Vec<MwStagedMeta> = round
                .iter_mut()
                .map(|w| {
                    // Audited panic: the drain predicate above required
                    // `meta.is_some()` for every window of the round.
                    #[allow(clippy::disallowed_methods)]
                    w.meta.take().expect("staged window carries meta")
                })
                .collect();
            // A crash trip may panic out of the round; clear the combiner
            // flag and wake waiters before unwinding so surviving threads
            // are not stranded.
            let res = catch_unwind(AssertUnwindSafe(|| {
                let mut cache = sh.lock_cache();
                // Adopt every publisher's history before the drain fence.
                sh.nvm
                    .note_atomic_load_acquire(sh.sync_base + SYNC_MW_PUBLISH);
                cache.stats_mut().sequencer_handoffs += handoffs;
                cache.mw_sequence(metas, max_ready);
            }));
            let mut mw = sh.lock_mw();
            mw.sequencing = false;
            if let Err(payload) = res {
                drop(mw);
                sh.cv.notify_all();
                resume_unwind(payload);
            }
            for w in &round {
                for b in &w.disk_blocks {
                    mw.in_flight.remove(b);
                }
                mw.free_desc.push(w.desc_slot);
                if mw.waiting.remove(&w.ordinal) {
                    mw.retired.insert(w.ordinal);
                }
            }
            mw.ring_limit = end + sh.ring_slots as u64;
            drop(mw);
            sh.cv.notify_all();
            retired_total += round.len();
        }
        retired_total
    }

    /// Blocking commit on shard `s`: reserve (retrying while the shard is
    /// busy), stage, publish, then sequence-or-wait until the window
    /// retires.
    fn commit_single_shard(&self, s: usize, mut txn: Txn) -> Result<(), TincaError> {
        let sh = &self.shards[s];
        let mut ticket = loop {
            match self.mw_try_begin_on(s, txn)? {
                MwAdmission::Admitted(t) => break t,
                MwAdmission::Busy(t) => {
                    txn = t;
                    self.mw_wait_busy(s);
                }
            }
        };
        self.mw_stage(&mut ticket);
        let ordinal = ticket.ordinal;
        sh.lock_mw().waiting.insert(ordinal);
        self.mw_publish(ticket);
        loop {
            self.mw_sequence(s);
            let mut mw = sh.lock_mw();
            if mw.retired.remove(&ordinal) {
                return Ok(());
            }
            // Another thread is sequencing, or our prefix is blocked
            // behind an earlier unpublished window; park until the shard
            // advances. Checking `retired` under the lock the sequencer
            // updates it under rules out a lost wakeup.
            sh.wait(mw);
        }
    }

    /// Helps or waits while shard `s` refuses admissions: runs a sequencer
    /// round if one is retirable, else parks until a window publishes,
    /// retires, or the spanning quiesce lifts.
    fn mw_wait_busy(&self, s: usize) {
        if self.mw_sequence(s) > 0 {
            return;
        }
        let sh = &self.shards[s];
        let mw = sh.lock_mw();
        if mw.is_idle() && !mw.spanning_open {
            // The shard already drained between our admission attempt and
            // now; retry immediately.
            return;
        }
        sh.wait(mw);
    }

    /// Blocks new admissions on shard `s` (`spanning_open`) and drains
    /// every outstanding window — helping sequence staged prefixes,
    /// waiting out unpublished stragglers — so the spanning lane finds
    /// `Head == Tail == cursor` and all descriptors free.
    fn mw_quiesce(&self, s: usize) {
        let sh = &self.shards[s];
        sh.lock_mw().spanning_open = true;
        loop {
            self.mw_sequence(s);
            let mw = sh.lock_mw();
            if mw.is_idle() {
                return;
            }
            sh.wait(mw);
        }
    }

    /// Reopens admissions after a spanning commit
    /// ([`mw_quiesce`](Self::mw_quiesce) counterpart).
    fn mw_reopen(&self, participants: &[usize]) {
        for &s in participants {
            let sh = &self.shards[s];
            sh.lock_mw().spanning_open = false;
            sh.cv.notify_all();
        }
    }

    /// Pool-side bookkeeping after a spanning-lane window closed on a
    /// quiesced shard (the cache side already retired its descriptor):
    /// free the descriptor slot and republish the reservation limit off
    /// the shard's already-advanced cursor.
    fn mw_retire_slow(sh: &Shard, desc_slot: usize) {
        let mut mw = sh.lock_mw();
        mw.free_desc.push(desc_slot);
        mw.ring_limit = mw.cursor + sh.ring_slots as u64;
    }

    /// Stages one spanning fragment: allocates its copy-on-write blocks
    /// under shard `s`'s cache lock, then writes and flushes the payloads
    /// on a private clock outside every lock.
    fn stage_fragment(&self, s: usize, part: Txn) -> Result<StagedFragment, TincaError> {
        let sh = &self.shards[s];
        let (blocks, addrs, from_ns) = {
            let mut cache = sh.lock_cache();
            let blocks = cache.mw_alloc_fragment(&part)?;
            let addrs: Vec<usize> = blocks
                .iter()
                .map(|&b| cache.layout().data_addr(b))
                .collect();
            (blocks, addrs, cache.nvm().clock().now_ns())
        };
        let coalesced = part.coalesced_writes();
        let (disk_blocks, payloads): (Vec<u64>, Vec<BlockBuf>) =
            part.into_blocks().into_iter().unzip();
        let ready_ns = Self::stage_private(sh, addrs.into_iter().zip(payloads), from_ns);
        Ok(StagedFragment {
            shard: s,
            disk_blocks,
            blocks,
            coalesced,
            ready_ns,
        })
    }

    /// Spanning commit (module docs): register, stage every fragment,
    /// then wait for — or lead — the batch that commits it.
    fn commit_cross_shard(&self, txn: Txn) -> Result<(), TincaError> {
        let _t = telemetry::span(telemetry::phase::COMMIT_SPANNING);
        let coalesced = txn.coalesced_writes();
        let mut parts = self.split_spanning(txn);
        // Size-check every fragment before any staging, so an oversized
        // fragment aborts with no cross-shard work at all.
        for (s, p) in parts.iter().enumerate() {
            if let Some(p) = p {
                if p.len() > self.shards[s].ring_slots {
                    return Err(TincaError::TxnTooLarge {
                        blocks: p.len(),
                        ring_cap: self.shards[s].ring_slots as u64,
                    });
                }
            }
        }
        // Register before staging: batches retire in registration order,
        // so writers still staging hold back (and batch up) later ones.
        let ticket = {
            let mut st = self.lock_spanning();
            st.queue.push_back(None);
            st.front_ticket + st.queue.len() as u64 - 1
        };
        // A failed (or crash-tripped) staging still takes its place in the
        // queue as an empty transaction, so it never holds back the rest.
        let staged = catch_unwind(AssertUnwindSafe(|| {
            let mut frags: Vec<StagedFragment> = Vec::new();
            for (s, part) in parts.iter_mut().enumerate() {
                let Some(part) = part.take() else {
                    continue;
                };
                match self.stage_fragment(s, part) {
                    Ok(f) => frags.push(f),
                    Err(e) => {
                        // Nothing names the staged blocks yet: hand them
                        // back — nothing was made durable.
                        for f in &frags {
                            self.shards[f.shard]
                                .lock_cache()
                                .mw_release_fragment(&f.blocks);
                        }
                        self.shards[0].lock_cache().stats_mut().spanning_aborts += 1;
                        return Err(e);
                    }
                }
            }
            // Keep the original transaction's coalescing count on its
            // first fragment so pool-wide stats still add up.
            frags[0].coalesced += coalesced;
            for f in &frags {
                let sh = &self.shards[f.shard];
                sh.nvm
                    .note_atomic_store_release(sh.sync_base + SYNC_SPAN_PUBLISH);
            }
            Ok(frags)
        }));
        let mut st = self.lock_spanning();
        let slot = (ticket - st.front_ticket) as usize;
        match staged {
            Ok(Ok(frags)) => st.queue[slot] = Some(frags),
            Ok(Err(e)) => {
                st.queue[slot] = Some(Vec::new());
                self.spanning_cv.notify_all();
                return Err(e);
            }
            Err(payload) => {
                st.queue[slot] = Some(Vec::new());
                self.spanning_cv.notify_all();
                drop(st);
                resume_unwind(payload);
            }
        }
        loop {
            if ticket < st.retired_below {
                return Ok(());
            }
            let head_staged = st.queue.front().is_some_and(Option::is_some);
            if st.leading || !head_staged {
                st = self
                    .spanning_cv
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
                continue;
            }
            // Lead one batch: the longest staged prefix of the queue whose
            // transactions touch distinct disk blocks (one window cannot
            // stage a block twice) and fit every participant's ring.
            st.leading = true;
            let mut taken = std::collections::HashSet::new();
            let mut slots = vec![0usize; self.shards.len()];
            let mut n = 0;
            for frags in st.queue.iter().map_while(Option::as_ref) {
                let fits = frags.iter().all(|f| {
                    slots[f.shard] + f.blocks.len() <= self.shards[f.shard].ring_slots
                        && f.disk_blocks.iter().all(|b| !taken.contains(b))
                });
                if n > 0 && !fits {
                    break;
                }
                for f in frags {
                    slots[f.shard] += f.blocks.len();
                    taken.extend(f.disk_blocks.iter().copied());
                }
                n += 1;
            }
            let batch: Vec<Vec<StagedFragment>> = st.queue.drain(..n).flatten().collect();
            st.front_ticket += n as u64;
            let intent_id = st.next_intent;
            st.next_intent += 1;
            drop(st);
            // A crash trip may panic out of the batch: unstrand waiters.
            let res = catch_unwind(AssertUnwindSafe(|| {
                self.commit_span_batch(intent_id, &batch);
            }));
            st = self.lock_spanning();
            st.leading = false;
            if res.is_ok() {
                st.retired_below = st.front_ticket;
            }
            self.spanning_cv.notify_all();
            if let Err(payload) = res {
                drop(st);
                resume_unwind(payload);
            }
        }
    }

    fn lock_spanning(&self) -> StdGuard<'_, SpanState> {
        self.spanning.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Two-phase commit of one batch under intent `intent_id` (module
    /// docs): one window per participant holds all its fragments. The
    /// cache locks of shard 0 (the intent host: orders the record against
    /// that device's other commits) and the participants are held
    /// throughout.
    fn commit_span_batch(&self, intent_id: u64, batch: &[Vec<StagedFragment>]) {
        let txns = batch.iter().filter(|frags| !frags.is_empty()).count() as u64;
        if txns == 0 {
            return; // only refused transactions
        }
        let frags = || batch.iter().flatten();
        let tag = intent_tag(intent_id);
        // Tag this thread's trace ops with the intent id (provenance for
        // merged-trace analysis; a no-op when tracing is off).
        let _prov = nvmsim::txn_scope(intent_id);
        let mut participants: Vec<usize> = frags().map(|f| f.shard).collect();
        participants.sort_unstable();
        participants.dedup();
        for &s in &participants {
            self.mw_quiesce(s);
        }
        let mut guards: Vec<(usize, CacheGuard<'_>)> = Vec::new();
        for (s, sh) in self.shards.iter().enumerate() {
            if s == 0 || participants.contains(&s) {
                guards.push((s, sh.lock_cache()));
            }
        }
        for &s in &participants {
            // Adopt every batched writer's staging before the fences below.
            let sh = &self.shards[s];
            sh.nvm
                .note_atomic_load_acquire(sh.sync_base + SYNC_SPAN_PUBLISH);
        }
        {
            // The prepare cannot start on a shard before the batch's
            // slowest writer finished staging its fragment there.
            let _w = telemetry::span(telemetry::phase::RING_WAIT);
            for f in frags() {
                self.shards[f.shard].nvm.clock().advance_to(f.ready_ns);
            }
        }
        let host = &self.shards[0].nvm;
        // Participant bitmap (advisory; shards ≥ 64 saturate onto bit 63).
        let mut bitmap: u64 = 0;
        for &s in &participants {
            bitmap |= 1 << s.min(63);
        }
        // A preceding pipelined round leaves its descriptor-retire
        // flushes unfenced on shard 0 (the next sequencer drain normally
        // orders them); the intent record below is a commit record on
        // that same device, so fence first.
        host.sfence();
        // Publish: one cache line, one fence. Until the resolve store
        // below, recovery rolls every fragment tagged `tag` back.
        host.atomic_write_u64(INTENT_SHARDS_OFF, bitmap);
        host.atomic_write_u64(
            INTENT_STATE_OFF,
            SpanningIntent::Prepared { id: intent_id }.encode(),
        );
        host.persist(INTENT_OFF, 16);
        host.note_commit(INTENT_OFF, 64);

        // Phase 1: prepare one tagged window per participant in ascending
        // shard order. The blocks are allocated and the payloads staged,
        // so no step here can be refused.
        let mut prepared: Vec<(usize, MwStagedMeta, u64)> = Vec::new();
        for (gi, (s, guard)) in guards.iter_mut().enumerate() {
            let (mut disk_blocks, mut blocks, mut coalesced, mut fragments) =
                (Vec::new(), Vec::new(), 0, 0u64);
            for f in frags().filter(|f| f.shard == *s) {
                disk_blocks.extend_from_slice(&f.disk_blocks);
                blocks.extend_from_slice(&f.blocks);
                coalesced += f.coalesced;
                fragments += 1;
            }
            if fragments == 0 {
                continue;
            }
            let sh = &self.shards[*s];
            // The shard is quiesced and `spanning_open` blocks rivals, so
            // its ring is closed at the cursor and every descriptor slot
            // is free.
            let (start, ordinal, desc_slot) = {
                let mut mw = sh.lock_mw();
                let start = mw.cursor;
                mw.cursor += blocks.len() as u64;
                let ordinal = mw.next_ordinal;
                mw.next_ordinal += 1;
                // Audited panic: a quiesced shard has every descriptor
                // slot free.
                #[allow(clippy::disallowed_methods)]
                let slot = mw
                    .free_desc
                    .pop()
                    .expect("quiesced shard has free descriptors");
                (start, ordinal, slot)
            };
            let mut meta =
                guard.mw_stage_meta_spanning(&disk_blocks, &blocks, start, desc_slot, tag, ordinal);
            meta.coalesced = coalesced;
            Self::mw_publish_desc(sh, desc_slot, ordinal);
            guard.mw_sequence_spanning(&meta);
            prepared.push((gi, meta, fragments));
        }

        // Resolve: the batch's commit point. Every fragment was
        // fenced-durable before this store, so from here recovery rolls
        // all of them forward.
        host.atomic_write_u64(
            INTENT_STATE_OFF,
            SpanningIntent::Resolved { id: intent_id }.encode(),
        );
        host.persist(INTENT_STATE_OFF, 8);
        host.note_commit(INTENT_OFF, 64);

        // Phase 2: move every participant's Tail (closing its revocation
        // window) and reclaim, then retire the record — all windows are
        // closed, so future recoveries need no directive.
        for (gi, meta, fragments) in prepared {
            let s = guards[gi].0;
            let desc_slot = meta.desc_slot;
            guards[gi].1.mw_complete_spanning(meta, fragments);
            Self::mw_retire_slow(&self.shards[s], desc_slot);
        }
        host.atomic_write_u64(INTENT_STATE_OFF, SpanningIntent::None.encode());
        host.persist(INTENT_STATE_OFF, 8);
        host.note_commit(INTENT_OFF, 64);
        guards[0].1.stats_mut().spanning_commits += txns;
        drop(guards);
        self.mw_reopen(&participants);
    }

    /// Reads on-disk block `disk_blk` through its home shard.
    pub fn read(&self, disk_blk: u64, buf: &mut [u8]) -> Result<(), TincaError> {
        assert_eq!(buf.len(), BLOCK_SIZE);
        let s = self.shard_of(disk_blk);
        self.shards[s].lock_cache().read(disk_blk, buf)
    }

    /// Reads without populating any cache (verification).
    pub fn read_nocache(&self, disk_blk: u64, buf: &mut [u8]) -> Result<(), TincaError> {
        let s = self.shard_of(disk_blk);
        self.shards[s].lock_cache().read_nocache(disk_blk, buf)
    }

    /// True if `disk_blk` is cached in its home shard.
    pub fn contains(&self, disk_blk: u64) -> bool {
        let s = self.shard_of(disk_blk);
        self.shards[s].lock_cache().contains(disk_blk)
    }

    /// Cached payload of `disk_blk`, if present (inspection only).
    pub fn peek(&self, disk_blk: u64) -> Option<[u8; BLOCK_SIZE]> {
        let s = self.shard_of(disk_blk);
        self.shards[s].lock_cache().peek(disk_blk)
    }

    /// Writes back every dirty block of every shard (orderly shutdown).
    /// Every shard gets its flush attempt even if an earlier one fails;
    /// the first error is returned (see [`TincaCache::flush_all`]).
    pub fn flush_all(&self) -> Result<(), TincaError> {
        let mut first_err = Ok(());
        for (s, sh) in self.shards.iter().enumerate() {
            // Retire whatever is retirable first; an unpublished (or
            // mid-sequence) window still in flight makes the flush racy,
            // so report it like an open ring window.
            self.mw_sequence(s);
            let res = {
                let mw = sh.lock_mw();
                if mw.is_idle() {
                    Ok(())
                } else {
                    Err(TincaError::CommitInProgress {
                        head: mw.cursor,
                        tail: mw.windows.front().map_or(mw.cursor, |w| w.start),
                    })
                }
            };
            let res = res.and_then(|()| sh.lock_cache().flush_all());
            if first_err.is_ok() {
                first_err = res;
            }
        }
        first_err
    }

    /// Pool-wide fault condition: `Healthy` when every shard is healthy,
    /// `ReadOnly` when every shard is read-only, otherwise `Degraded` with
    /// the total quarantined count — one shard on a dead disk degrades the
    /// pool but the other shards keep committing.
    pub fn health(&self) -> Health {
        let mut quarantined = 0usize;
        let mut any_fault = false;
        let mut all_read_only = true;
        for sh in &self.shards {
            let cache = sh.lock_cache();
            match cache.health() {
                Health::Healthy => all_read_only = false,
                Health::Degraded { .. } => {
                    any_fault = true;
                    all_read_only = false;
                }
                Health::ReadOnly => any_fault = true,
            }
            quarantined += cache.quarantined_count();
        }
        if !any_fault {
            Health::Healthy
        } else if all_read_only {
            Health::ReadOnly
        } else {
            Health::Degraded { quarantined }
        }
    }

    /// Runs [`TincaCache::check_consistency`] on every shard.
    pub fn check_consistency(&self) -> Result<(), String> {
        for (i, sh) in self.shards.iter().enumerate() {
            sh.cache
                .lock()
                .check_consistency()
                .map_err(|e| format!("shard {i}: {e}"))?;
        }
        Ok(())
    }

    /// Pool-wide counters (sum over shards).
    pub fn stats(&self) -> CacheStats {
        self.shards.iter().fold(CacheStats::default(), |acc, sh| {
            acc.merge(&Self::fold_mw_pending(sh))
        })
    }

    /// One shard's counters.
    pub fn shard_stats(&self, s: usize) -> CacheStats {
        Self::fold_mw_pending(&self.shards[s])
    }

    /// A shard's cache counters plus the pipeline's pending
    /// (not-yet-sequenced) handoff count, so snapshots taken between
    /// sequencer rounds still add up.
    fn fold_mw_pending(sh: &Shard) -> CacheStats {
        let mut st = sh.lock_cache().stats();
        st.sequencer_handoffs += sh.lock_mw().pending_handoffs;
        st
    }

    /// Runs `f` with shard `s`'s cache locked (tests, fuzzers, benches).
    pub fn with_shard<R>(&self, s: usize, f: impl FnOnce(&mut TincaCache) -> R) -> R {
        f(&mut self.shards[s].lock_cache())
    }

    /// How many commits one shard can hold in flight at once: the
    /// descriptor-table capacity. Service-model tiers (open-loop) use
    /// this as the per-shard server multiplicity.
    pub fn commit_concurrency(&self) -> usize {
        MW_WINDOWS
    }

    /// A handle on shard `s`'s simulated clock (clones share time).
    ///
    /// This is the queue-wait hook of the open-loop tier: an arrival-
    /// driven driver calls [`nvmsim::SimClock::advance_to`] with each
    /// op's arrival instant so idle time between arrivals actually
    /// passes on the shard — background-lane deadlines (destage) expire
    /// during load gaps, and `service start = max(arrival, shard now)`
    /// makes queue wait measurable instead of modelled away. Closed-loop
    /// drivers never advance this clock directly; only the shard's
    /// devices do. Advancing it is only meaningful while the shard is
    /// otherwise quiescent (single-threaded driving).
    pub fn shard_clock(&self, s: usize) -> nvmsim::SimClock {
        self.shards[s].lock_cache().nvm().clock().clone()
    }

    /// NVM metadata byte ranges of shard `s` (header + ring + entry table,
    /// in that shard's device address space) for persist-order analysis.
    pub fn shard_metadata_ranges(&self, s: usize) -> Vec<std::ops::Range<usize>> {
        let metadata = 0..self.shards[s].lock_cache().layout().data_off;
        vec![metadata]
    }

    /// Free NVM data blocks across all shards.
    pub fn free_block_count(&self) -> usize {
        self.shards
            .iter()
            .map(|sh| sh.lock_cache().free_block_count())
            .sum()
    }

    /// Valid cached blocks across all shards.
    pub fn cached_blocks(&self) -> usize {
        self.shards
            .iter()
            .map(|sh| sh.lock_cache().cached_blocks())
            .sum()
    }
}

/// Spanning group-commit coordination (DRAM only).
#[derive(Default)]
struct SpanState {
    /// Registered transactions in registration order, each with its
    /// fragments once its writer finished staging (empty if refused).
    queue: VecDeque<Option<Vec<StagedFragment>>>,
    /// Ticket of the queue's front entry.
    front_ticket: u64,
    /// Every ticket below this one is committed.
    retired_below: u64,
    /// A batch is running (the intent record has one slot).
    leading: bool,
    /// Next intent sequence id.
    next_intent: u64,
}

/// A staged spanning fragment: disk blocks in first-write order and the
/// copy-on-write NVM block of each.
struct StagedFragment {
    shard: usize,
    disk_blocks: Vec<u64>,
    blocks: Vec<u32>,
    coalesced: u64,
    /// Private-clock end of the fragment's staging.
    ready_ns: u64,
}

impl std::fmt::Debug for TincaPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TincaPool")
            .field("shards", &self.shards.len())
            .finish()
    }
}
