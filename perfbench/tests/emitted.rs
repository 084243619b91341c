//! Runs the benchmark binary on every workload, untraced and traced, and
//! checks the result line: exactly the declared metrics with their units,
//! a correct run, and the layer split the method note describes.

use std::collections::BTreeMap;
use std::process::Command;

use mcml_perfbench::metrics::{END_TO_END, PER_LAYER};

/// `name -> (value, unit)` from the last stdout line, plus `correct`.
fn run(workload: &str, trace: u8) -> (bool, BTreeMap<String, (f64, String)>) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", &trace.to_string()])
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert!(out.status.success(), "{workload} trace {trace}: {stdout}");
    let last = stdout.lines().last().expect("a result line");
    assert!(last.starts_with("{\"correct\": "), "{last}");
    let correct = last.starts_with("{\"correct\": true");
    let metrics = &last[last.find("\"metrics\": {").expect("metrics") + 12..];
    let mut map = BTreeMap::new();
    for entry in metrics.split("}, ") {
        let name = entry.trim_start_matches('"');
        let name = &name[..name.find('"').expect("name")];
        let value = entry.split("\"value\": ").nth(1).expect("value");
        let value: f64 = value[..value.find(',').expect("comma")]
            .parse()
            .expect("number");
        let unit = entry.split("\"unit\": \"").nth(1).expect("unit");
        let unit = &unit[..unit.find('"').expect("unit quote")];
        map.insert(name.to_owned(), (value, unit.to_owned()));
    }
    (correct, map)
}

fn assert_declared(map: &BTreeMap<String, (f64, String)>, table: &[(&str, &str)]) {
    assert_eq!(map.len(), table.len());
    for (name, unit) in table {
        let (value, u) = map
            .get(*name)
            .unwrap_or_else(|| panic!("`{name}` not emitted"));
        assert_eq!(u, unit, "{name}");
        assert!(value.is_finite(), "{name} = {value}");
    }
}

fn check_workload(workload: &str) -> BTreeMap<String, (f64, String)> {
    let (correct, e2e) = run(workload, 0);
    assert!(correct, "{workload}: end-to-end run not correct");
    assert_declared(&e2e, &END_TO_END);
    for (name, (value, _)) in &e2e {
        assert!(*value > 0.0, "{workload}: end-to-end {name} is {value}");
    }
    assert_eq!(e2e["ok_frac"].0, 1.0);
    assert_eq!(e2e["out_agree"].0, 1.0);
    let (correct, layers) = run(workload, 1);
    assert!(correct, "{workload}: traced run not correct");
    assert_declared(&layers, &PER_LAYER);
    assert!(layers["spice.nr_iterations"].0 > 0.0);
    layers
}

#[test]
fn libchar_emits_and_never_hits_or_bypasses() {
    let l = check_workload("libchar");
    assert_eq!(l["charlib.cache_hit_ratio"].0, 0.0);
    assert_eq!(l["device.bypass_ratio"].0, 0.0);
    assert_eq!(l["charlib.cells_characterized"].0, 48.0);
    assert!(l["charlib.cell_ms_p95"].0 >= l["charlib.cell_ms_p50"].0);
}

#[test]
fn sizing_emits_and_hits_the_cache() {
    let l = check_workload("sizing");
    assert!(l["charlib.cache_hit_ratio"].0 > 0.0);
    assert_eq!(l["opt.evals"].0, 9.0 * 30.0);
    assert!(l["opt.eval_ms_p50"].0 > 0.0 && l["opt.solver_s"].0 >= 0.0);
}

#[test]
fn attack_emits_and_lu_factor_is_its_largest_layer() {
    let l = check_workload("attack");
    assert!(l["device.bypass_ratio"].0 > 0.0);
    assert_eq!(l["spice.ensemble_lanes"].0, 32.0);
    let lu = l["spice.lu_factor_s"].0;
    for other in [
        "spice.mna_assemble_s",
        "spice.lu_solve_s",
        "sim.event_sim_s",
        "dpa.cpa_s",
    ] {
        assert!(
            lu > l[other].0,
            "lu_factor {lu} s <= {other} {} s",
            l[other].0
        );
    }
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    for args in [
        &["--workload", "libchar", "--seed", "1", "--trace", "0"][..],
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        &[
            "--workload",
            "libchar",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .output()
            .expect("run perfbench");
        assert!(!out.status.success(), "{args:?} exited 0");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
