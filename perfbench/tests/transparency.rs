//! The traced stacks rebuild `TincaConfig`/`ClassicConfig` (the stack
//! builder keeps its mapping private) and add pass-through decorators.
//! Neither may change simulated time: a traced round must reproduce, bit
//! for bit, the round built with `fssim::stack::build` /
//! `TincaStore::format`.

use perfbench::Workload;

/// Known defect: `TincaCache::flush_all` writes back in `HashMap` order,
/// so the drain's HDD seek time differs from run to run on
/// `fio_tinca_hdd`. Remove this exception when the drain goes through the
/// address-sorted destage path.
const NONDETERMINISTIC_DRAIN: Workload = Workload::FioTincaHdd;

fn traced_matches_untraced(w: Workload) {
    let seed = 11;
    let plain = w.round(seed, false);
    let traced = w.round(seed, true);
    for r in [&plain, &traced] {
        assert!(r.errors.is_empty(), "{}: {:?}", w.name(), r.errors);
        assert_eq!(r.lost_acked_writes, 0, "{}", w.name());
        assert_eq!(r.failed, 0, "{}", w.name());
    }
    let (mut a, mut b) = (plain.sim.clone(), traced.sim.clone());
    if w == NONDETERMINISTIC_DRAIN {
        (a.drain_ns, b.drain_ns) = (0, 0);
    }
    assert_eq!(a, b, "{}: traced sim results differ", w.name());
    for ((n, x), (_, y)) in a.metrics().into_iter().zip(b.metrics()) {
        assert_eq!(x.to_bits(), y.to_bits(), "{}: {n}", w.name());
    }
    let layers = traced.layers.expect("traced round reports layers");
    assert!(plain.layers.is_none());
    for clock in [
        "harness.attributed_frac_sim",
        "harness.attributed_frac_host",
    ] {
        assert!(
            layers[clock] >= 0.95,
            "{}: {clock} = {}",
            w.name(),
            layers[clock]
        );
    }
}

#[test]
fn kv_tpcc_fit_traced_is_transparent() {
    traced_matches_untraced(Workload::KvTpccFit);
}

#[test]
fn fio_tinca_hdd_traced_is_transparent() {
    traced_matches_untraced(Workload::FioTincaHdd);
}

#[test]
fn fio_classic_hdd_traced_is_transparent() {
    traced_matches_untraced(Workload::FioClassicHdd);
}
