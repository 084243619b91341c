//! A deliberately corrupted output raises `fail_frac` and clears
//! `correct`: the checks cannot pass vacuously.

use mcml_cells::{CellKind, DriveStrength, LogicStyle};
use mcml_char::CellTiming;
use mcml_perfbench::{checks, metrics, PassOut, Tally, Workload};
use pg_mcml::experiments::Fig6Row;

fn row(style: LogicStyle, rank: usize, margin: f64) -> Fig6Row {
    Fig6Row {
        style,
        rank,
        margin,
        peak_correct: 0.9,
        best_wrong: 0.5,
        traces: 16,
    }
}

fn fail_frac_of(failures: Vec<String>, attempted: u64) -> (f64, bool) {
    let mut tally = Tally::default();
    // Variant 0 of `libchar` has recorded outputs; an empty output list
    // keeps `out_dev_rel` at 0, so only the failures count.
    tally.add(
        Workload::Libchar,
        0,
        &PassOut {
            attempted,
            failures,
            ..PassOut::default()
        },
    );
    let outcome = metrics::end_to_end(Workload::Libchar, &tally, 1.0, 1.0, 1.0, &[1.0]);
    let ok_frac = outcome
        .metrics
        .iter()
        .find(|m| m.name == "ok_frac")
        .unwrap()
        .value;
    assert!((ok_frac - (1.0 - tally.fail_frac())).abs() < 1e-15);
    (tally.fail_frac(), outcome.correct)
}

#[test]
fn cmos_verdict_forced_secure_fails() {
    let honest = [
        ("transistor", row(LogicStyle::Cmos, 0, 1.3)),
        ("transistor", row(LogicStyle::Mcml, 12, 0.4)),
        ("transistor", row(LogicStyle::PgMcml, 1, 0.9)),
    ];
    assert!(checks::check_attack(&honest).is_empty());
    assert_eq!(fail_frac_of(checks::check_attack(&honest), 3), (0.0, true));

    let mut forced = honest.clone();
    forced[0].1 = row(LogicStyle::Cmos, 7, 0.8);
    let (fail_frac, correct) = fail_frac_of(checks::check_attack(&forced), 3);
    assert!(fail_frac > 0.0 && !correct, "fail_frac {fail_frac}");
}

#[test]
fn secure_style_recovered_fails() {
    let rows = [("template", row(LogicStyle::PgMcml, 0, 1.5))];
    assert_eq!(checks::check_attack(&rows).len(), 1);
}

#[test]
fn non_positive_delay_fails() {
    let good = CellTiming {
        kind: CellKind::Buffer,
        style: LogicStyle::Mcml,
        drive: DriveStrength::X1,
        area_um2: 1.0,
        delay_fo1_ps: 20.0,
        delay_fo4_ps: 30.0,
        input_cap_ff: 1.0,
        static_power_w: 6e-5,
        leakage_sleep_w: 6e-5,
        toggle_energy_j: 0.0,
    };
    assert!(checks::check_library(std::slice::from_ref(&good)).is_empty());
    let bad = CellTiming {
        delay_fo4_ps: f64::NAN,
        ..good.clone()
    };
    let (fail_frac, correct) = fail_frac_of(checks::check_library(&[good, bad]), 2);
    assert!((fail_frac - 0.5).abs() < 1e-15 && !correct);
}

#[test]
fn lint_denied_or_penalty_optimum_fails() {
    assert!(checks::check_sizing("Buffer/MCML", 400.0, true).is_none());
    assert!(checks::check_sizing("Buffer/MCML", 400.0, false).is_some());
    assert!(checks::check_sizing("Buffer/MCML", mcml_opt::INFEASIBLE_PENALTY, true).is_some());
}

#[test]
fn drifted_output_lowers_out_agree() {
    let reference = checks::Reference::parse("sizing\t2\tBuffer/MCML/best_cost\t400.0\n");
    let dev = reference.max_deviation(
        Workload::Sizing,
        2,
        &[("Buffer/MCML/best_cost".into(), 440.0)],
    );
    assert!((dev - 0.1).abs() < 1e-12);
}

#[test]
fn drifted_pg_mcml_campaign_fails() {
    let name = "campaign/PG-MCML/peak_correct";
    let recorded: f64 = include_str!("../reference.tsv")
        .lines()
        .find(|l| l.starts_with("attack\t0\t") && l.contains(name))
        .and_then(|l| l.rsplit('\t').next())
        .and_then(|v| v.parse().ok())
        .expect("variant 0 records the PG-MCML campaign peak");
    for (value, failed) in [(recorded, 0), (recorded * 1.05, 1)] {
        let mut tally = Tally::default();
        tally.add(
            Workload::Attack,
            0,
            &PassOut {
                attempted: 8,
                outputs: vec![(name.to_owned(), value)],
                ..PassOut::default()
            },
        );
        assert_eq!(tally.failed, failed, "peak {value} vs recorded {recorded}");
    }
}
