//! Every metric the benchmark emits follows the name and unit grammar
//! and is declared, with the same unit, in the repository's
//! `BENCHMARK.json`; the declared workloads are the benchmark's own.

use mcml_perfbench::metrics::{END_TO_END, PER_LAYER};
use mcml_perfbench::Workload;

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark directory")
}

/// The `"key": "value"` strings inside the array that follows `"section"`.
fn strings_in(json: &str, section: &str, key: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no `{section}` in BENCHMARK.json"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section is an array")];
    let pat = format!("\"{key}\": \"");
    body.match_indices(&pat)
        .map(|(i, _)| {
            let rest = &body[i + pat.len()..];
            rest[..rest.find('"').expect("closing quote")].to_owned()
        })
        .collect()
}

fn is_name(s: &str) -> bool {
    s.len() <= 64
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

fn check(section: &str, table: &[(&str, &str)]) {
    let json = benchmark_json();
    let names = strings_in(&json, section, "name");
    let units = strings_in(&json, section, "unit");
    let declared: Vec<(&str, &str)> = names
        .iter()
        .map(String::as_str)
        .zip(units.iter().map(String::as_str))
        .collect();
    assert_eq!(
        declared, table,
        "`{section}` in BENCHMARK.json differs from the emitted table"
    );
    for (name, unit) in table {
        assert!(is_name(name), "metric name `{name}` breaks the grammar");
        assert!(
            is_unit(unit),
            "unit `{unit}` of `{name}` breaks the grammar"
        );
    }
}

#[test]
fn end_to_end_metrics_are_declared() {
    check("end_to_end", &END_TO_END);
}

#[test]
fn per_layer_metrics_are_declared() {
    check("per_layer", &PER_LAYER);
}

#[test]
fn names_are_unique_across_sections() {
    let mut all: Vec<&str> = END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .map(|&(n, _)| n)
        .collect();
    all.extend(Workload::ALL.map(Workload::name));
    let n = all.len();
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len(), n, "a name is used twice");
}

#[test]
fn workloads_are_declared() {
    let json = benchmark_json();
    let declared = strings_in(&json, "workloads", "name");
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(declared, ours);
}
