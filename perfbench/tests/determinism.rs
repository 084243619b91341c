//! The same seed run twice gives identical obs counters and bit-identical
//! outputs, on every workload.

use mcml_perfbench::trace::{capture, ObsDelta, Tracer};
use mcml_perfbench::workload::setup;
use mcml_perfbench::{Workload, MAX_WORKERS};

fn pass_twice(workload: Workload, seed: u64) {
    let tracer = Tracer::new(true);
    let prepared = setup(workload, seed, MAX_WORKERS, &tracer).expect("set-up");
    let mut runs = Vec::new();
    for _ in 0..2 {
        let before = capture();
        let out = prepared.pass(&tracer);
        let delta = ObsDelta::between(&before, &capture());
        assert!(out.failures.is_empty(), "{workload:?}: {:?}", out.failures);
        runs.push((delta.counters, out.outputs, out.ops));
    }
    assert!(
        runs[0].0.iter().any(|&c| c > 0),
        "{workload:?}: no counter moved"
    );
    assert_eq!(runs[0].0, runs[1].0, "{workload:?}: counters differ");
    let bits = |o: &[(String, f64)]| -> Vec<(String, u64)> {
        o.iter().map(|(n, v)| (n.clone(), v.to_bits())).collect()
    };
    assert_eq!(
        bits(&runs[0].1),
        bits(&runs[1].1),
        "{workload:?}: outputs differ"
    );
    assert_eq!(runs[0].2, runs[1].2);
}

// One test: obs counters are process-wide, so the workloads must not
// overlap.
#[test]
fn same_seed_same_counters_and_outputs() {
    mcml_obs::set_mode(mcml_obs::Mode::Summary);
    for w in Workload::ALL {
        pass_twice(w, 5);
    }
}
