//! A round is a pure function of its seed in simulated time: two rounds
//! at one seed give identical simulated metrics.

use perfbench::Workload;

fn same_seed_same_sim(w: Workload) {
    let seed = 5;
    let (a, b) = (w.round(seed, false), w.round(seed, false));
    assert!(a.errors.is_empty() && b.errors.is_empty(), "{}", w.name());
    let (mut a, mut b) = (a.sim, b.sim);
    // The one allowed exception, a known defect: Tinca's `flush_all`
    // iterates a `HashMap`, so `drain_sim_ms` on `fio_tinca_hdd` depends
    // on hash order. Delete this when `flush_all` writes back in address
    // order.
    if w == Workload::FioTincaHdd {
        (a.drain_ns, b.drain_ns) = (0, 0);
    }
    assert_eq!(a, b, "{}: same seed, different simulated results", w.name());
}

#[test]
fn kv_tpcc_fit_is_deterministic() {
    same_seed_same_sim(Workload::KvTpccFit);
}

#[test]
fn fio_tinca_hdd_is_deterministic() {
    same_seed_same_sim(Workload::FioTincaHdd);
}

#[test]
fn fio_classic_hdd_is_deterministic() {
    same_seed_same_sim(Workload::FioClassicHdd);
}

#[test]
fn seeds_change_the_inputs() {
    let w = Workload::KvTpccFit;
    assert_ne!(w.round(1, false).sim, w.round(2, false).sim);
}
