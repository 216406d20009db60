//! `kv_tpcc_fit`: the kvdb B-tree over a default `TincaStore` (2-shard
//! `TincaPool`, default commit mode), fed the TPC-C key stream of
//! [`KvTpccDriver`] over four warehouses. The data fits in NVM, so the
//! work lands in kvdb, the pool commit path (multi-page commits span both
//! shards and take the two-phase path) and NVM flushes and fences.

use std::collections::BTreeMap;
use std::time::Instant;

use blockdev::BlockDevice;
use kvdb::{
    apply_txn, value_for, Db, KvError, KvTpccDriver, KvTxn, PageStore, TincaStore, TincaStoreConfig,
};
use nvmsim::{CrashPolicy, NvmStats};
use workloads::tpcc::{RecordKey, Table};

use crate::clocks::Clocks;
use crate::decor::TracedStore;
use crate::metrics::{self, LayerInputs};
use crate::trace::{self, span, Tracer};
use crate::{with_power_cut, OpLog, Round, SimResult};

/// TPC-C warehouses.
pub const WAREHOUSES: u32 = 4;
/// Transactions per op phase.
pub const TXNS: u64 = 12_000;
/// Rows per preload commit.
const PRELOAD_BATCH: usize = 64;
/// Stock and customer rows per warehouse: the row range the driver's
/// `Regions::new(256)` draws from (a quarter of 256 pages each).
const STOCK_ROWS: u64 = 64;
const CUSTOMER_ROWS: u64 = 64;

/// A `TincaStore`, bare or behind the tracing decorator.
pub trait Store: PageStore + Sized {
    fn wrap(store: TincaStore) -> Self;
    fn tinca(&self) -> &TincaStore;
    fn into_tinca(self) -> TincaStore;
}

impl Store for TincaStore {
    fn wrap(store: TincaStore) -> Self {
        store
    }
    fn tinca(&self) -> &TincaStore {
        self
    }
    fn into_tinca(self) -> TincaStore {
        self
    }
}

impl Store for TracedStore<TincaStore> {
    fn wrap(store: TincaStore) -> Self {
        TracedStore::new(store)
    }
    fn tinca(&self) -> &TincaStore {
        self.inner()
    }
    fn into_tinca(self) -> TincaStore {
        self.into_inner()
    }
}

/// Every clock of a store: one per NVM shard plus the disk's.
fn clocks_of(store: &TincaStore) -> Clocks {
    let mut c: Vec<_> = store.devices().iter().map(|d| d.clock().clone()).collect();
    c.push(store.clock().clone());
    Clocks::new(c)
}

fn nvm_stats(store: &TincaStore) -> NvmStats {
    store
        .devices()
        .iter()
        .fold(NvmStats::default(), |acc, d| acc.merge(&d.stats()))
}

/// The rows that exist before the first transaction: each warehouse's
/// warehouse row, districts, stock and customers.
fn base_rows() -> Vec<RecordKey> {
    let mut rows = Vec::new();
    for warehouse in 0..WAREHOUSES {
        let mut add = |table, n| {
            rows.extend((0..n).map(|row| RecordKey {
                warehouse,
                table,
                row,
            }));
        };
        add(Table::Warehouse, 1);
        add(Table::District, 10);
        add(Table::Stock, STOCK_ROWS);
        add(Table::Customer, CUSTOMER_ROWS);
    }
    rows
}

/// Committed contents: encoded key → (key, commit seq of its value).
type Model = BTreeMap<Vec<u8>, (RecordKey, u64)>;

fn preload<S: Store>(db: &mut Db<S>, model: &mut Model) -> Result<(), KvError> {
    for batch in base_rows().chunks(PRELOAD_BATCH) {
        db.begin()?;
        for k in batch {
            db.put(&k.encode(), &value_for(k, 0))?;
        }
        db.commit()?;
        model.extend(batch.iter().map(|k| (k.encode().to_vec(), (*k, 0))));
    }
    Ok(())
}

/// Phase 1: formats the store, opens the database and preloads it.
fn setup<S: Store>() -> Result<(Db<S>, Model), KvError> {
    let mut model = Model::new();
    let mut db = Db::open(S::wrap(TincaStore::format(TincaStoreConfig::default())))?;
    preload(&mut db, &mut model)?;
    Ok((db, model))
}

/// Host seconds of one set-up, on its own.
pub fn setup_seconds() -> Result<f64, KvError> {
    let t = Instant::now();
    setup::<TincaStore>()?;
    Ok(t.elapsed().as_secs_f64())
}

/// One round of `kv_tpcc_fit`.
pub fn round(seed: u64, traced: bool) -> Round {
    if traced {
        round_on::<TracedStore<TincaStore>>(seed, true)
    } else {
        round_on::<TincaStore>(seed, false)
    }
}

fn round_on<S: Store>(seed: u64, traced: bool) -> Round {
    let mut out = Round::default();

    // Phase 1: set-up.
    let t_setup = Instant::now();
    let (mut db, mut model) = match setup::<S>() {
        Ok(x) => x,
        Err(e) => {
            out.errors.push(format!("set-up: {e}"));
            return out;
        }
    };
    out.setup_s = t_setup.elapsed().as_secs_f64();

    // Phase 2: op phase.
    let clocks = clocks_of(db.store().tinca());
    let disk_clock = db.store().tinca().clock().clone();
    let nvm0 = nvm_stats(db.store().tinca());
    let disk0 = db.store().tinca().disk().stats();
    let cache0 = db.store().tinca().pool().stats();
    let store0 = db.store().stats();
    let events0 = db.store().tinca().devices()[0].events();
    if traced {
        trace::install(Tracer::new(clocks.clone()));
    }
    let mut driver = KvTpccDriver::new(seed, WAREHOUSES);
    let mut log = OpLog::default();
    let mut user_bytes = 0u64;
    let (sim0, disk_clock0) = (clocks.now_ns(), disk_clock.now_ns());
    log.start();
    for op in 1..=TXNS {
        trace::set_op(op);
        let txn = {
            let _g = span("harness.gen");
            driver.next_txn()
        };
        let r = {
            let _s = span("kvdb.begin");
            db.begin()
        };
        log.outcome(&r);
        for k in &txn.keys.reads {
            let key = k.encode();
            let t = clocks.now_ns();
            let r = {
                let _s = span("kvdb.get");
                db.get(&key)
            };
            log.read_ns.push(clocks.now_ns() - t);
            log.outcome(&r);
            // Reads see the latest committed value.
            let _g = span("harness.gen");
            if let Ok(got) = r {
                let want = model.get(&key[..]).map(|(rk, seq)| value_for(rk, *seq));
                if got != want {
                    out.lost_acked_writes += 1;
                }
            }
        }
        for (k, v) in &txn.writes {
            let r = {
                let _s = span("kvdb.put");
                db.put(k, v)
            };
            log.outcome(&r);
            user_bytes += (k.len() + v.len()) as u64;
        }
        let t = clocks.now_ns();
        let r = {
            let _s = span("kvdb.commit");
            db.commit()
        };
        log.commit_ns.push(clocks.now_ns() - t);
        log.outcome(&r);
        if r.is_ok() {
            let _g = span("harness.gen");
            note_commit(&mut model, &txn, driver.seq());
        }
        log.done(op);
    }
    let op_host_ns = log.host_ns();
    let op_sim_ns = clocks.now_ns() - sim0;
    let disk_fg_ns = disk_clock.now_ns() - disk_clock0;
    let tracer = trace::uninstall();
    let summary = tracer.as_ref().map(Tracer::summary);
    out.spans = tracer.map(Tracer::into_spans).unwrap_or_default();
    let tinca = db.store().tinca();
    let nvm_op = nvm_stats(tinca).delta(&nvm0);
    let disk_op = tinca.disk().stats().delta(&disk0);
    let cache_op = tinca.pool().stats().delta(&cache0);
    let store_op = db.store().stats();
    let commits = store_op.commits - store0.commits;
    let spanning_share = if commits == 0 {
        0.0
    } else {
        cache_op.spanning_commits as f64 / commits as f64
    };
    out.op_host_s = op_host_ns as f64 / 1e9;
    out.probe_s = std::mem::take(&mut log.probe_s);
    out.attempted = log.attempted;
    out.failed = log.failed;

    // Phase 3: power cut inside one more transaction's commit, halfway
    // through a commit's mean persistence events on shard 0 (which every
    // multi-page commit touches); then recovery.
    let trip = ((tinca.devices()[0].events() - events0) / commits.max(1) / 2).max(1);
    let inflight = driver.next_txn();
    let shard0 = db.store().tinca().devices()[0].clone();
    let inflight_acked = match with_power_cut(&shard0, trip, || apply_txn(&mut db, &inflight)) {
        Some(Ok(())) => true,
        Some(Err(e)) => {
            out.errors.push(format!("in-flight txn: {e}"));
            false
        }
        None => false,
    };
    if inflight_acked {
        note_commit(&mut model, &inflight, driver.seq());
    }
    for d in db.store().tinca().devices() {
        d.crash(CrashPolicy::LoseVolatile);
    }
    let (devices, disk, clock, cfg) = db.into_store().into_tinca().into_parts();
    let (sim_cut, host_cut) = (clocks.now_ns(), Instant::now());
    let store = match TincaStore::recover(devices, disk, clock, cfg) {
        Ok(s) => s,
        Err(e) => {
            out.errors.push(format!("recovery: {e}"));
            return out;
        }
    };
    let cache_recover = (
        clocks.now_ns() - sim_cut,
        host_cut.elapsed().as_nanos() as u64,
    );
    let mut db = match Db::open(S::wrap(store)) {
        Ok(db) => db,
        Err(e) => {
            out.errors.push(format!("Db::open after recovery: {e}"));
            return out;
        }
    };
    let recovery_ns = clocks.now_ns() - sim_cut;
    if !inflight_acked {
        settle_inflight(&mut db, &mut model, &inflight, driver.seq(), &mut out);
    }

    // Phase 4: drain.
    let (sim_d, host_d) = (clocks.now_ns(), Instant::now());
    if let Err(e) = db.store().tinca().pool().flush_all() {
        out.errors.push(format!("drain: {e}"));
    }
    let drain = (clocks.now_ns() - sim_d, host_d.elapsed().as_nanos() as u64);
    let tinca = db.store().tinca();
    let written = nvm_stats(tinca).delta(&nvm0).bytes_written_back()
        + tinca.disk().stats().delta(&disk0).writes * blockdev::BLOCK_SIZE as u64;

    // Read-back check: every committed key holds the value of its last
    // committed write, and nothing else is in the tree.
    verify(&mut db, &model, &mut out);

    log.commit_ns.sort_unstable();
    log.read_ns.sort_unstable();
    out.sim = SimResult {
        ops: TXNS,
        op_ns: op_sim_ns,
        commit_ns: log.commit_ns,
        read_ns: log.read_ns,
        user_bytes,
        device_bytes: written,
        recovery_ns,
        drain_ns: drain.0,
    };
    out.layers = summary.map(|summary| {
        metrics::per_layer(&LayerInputs {
            summary,
            sim: &out.sim,
            op_host_ns,
            durability_calls: TXNS,
            nvm: nvm_op,
            disk_reads: disk_op.reads,
            disk_writes: disk_op.writes,
            disk_busy_ns: disk_op.busy_ns,
            disk_fg_sim_ns: Some(disk_fg_ns),
            cache: Some(cache_op),
            classic: None,
            journal: None,
            spanning_share,
            cache_flush_all: drain,
            cache_recover,
        })
    });
    out
}

/// Records a committed transaction's writes in the model.
fn note_commit(model: &mut Model, txn: &KvTxn, seq: u64) {
    for k in txn.keys.writes.iter().chain(&txn.keys.appends) {
        model.insert(k.encode().to_vec(), (*k, seq));
    }
}

/// The power cut interrupted `txn`'s commit, so recovery may surface all
/// of its writes or none of them, never a mix. Folds the surviving
/// outcome into the model.
fn settle_inflight<S: Store>(
    db: &mut Db<S>,
    model: &mut Model,
    txn: &KvTxn,
    seq: u64,
    out: &mut Round,
) {
    let mut landed = 0;
    for (k, v) in &txn.writes {
        match db.get(k) {
            Ok(got) if got.as_deref() == Some(&v[..]) => landed += 1,
            Ok(_) => {}
            Err(e) => out.errors.push(format!("read after recovery: {e}")),
        }
    }
    if landed == txn.writes.len() {
        note_commit(model, txn, seq);
    } else if landed > 0 {
        out.errors.push(format!(
            "interrupted txn torn: {landed} of {} writes survived",
            txn.writes.len()
        ));
    }
}

fn verify<S: Store>(db: &mut Db<S>, model: &Model, out: &mut Round) {
    for (key, (rk, seq)) in model {
        match db.get(key) {
            Ok(Some(v)) if v == value_for(rk, *seq) => {}
            _ => out.lost_acked_writes += 1,
        }
    }
    match db.scan_all() {
        Ok(all) if all.len() == model.len() => {}
        Ok(all) => out.errors.push(format!(
            "tree holds {} keys, {} committed",
            all.len(),
            model.len()
        )),
        Err(e) => out.errors.push(format!("scan: {e}")),
    }
    if let Err(e) = db.validate() {
        out.errors.push(format!("Db::validate: {e}"));
    }
    if let Err(e) = db.store().tinca().pool().check_consistency() {
        out.errors.push(format!("pool consistency: {e}"));
    }
}
