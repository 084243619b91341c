//! Output checks (they feed `fail_frac`) and the comparison against the
//! recorded reference outputs (it gives `out_dev_rel`).

use std::collections::BTreeMap;
use std::sync::OnceLock;

use mcml_cells::LogicStyle;
use mcml_char::CellTiming;
use mcml_opt::INFEASIBLE_PENALTY;
use pg_mcml::experiments::Fig6Row;

use crate::workload::Workload;

/// Reference outputs of every variant, one `workload variant name value`
/// row per output, recorded with `--record` at the commit that added
/// them.
const REFERENCE: &str = include_str!("../reference.tsv");

/// Largest relative drift of the PG-MCML campaign's CPA peaks from their
/// reference before the campaign counts as failed.
pub const CAMPAIGN_TOL: f64 = 0.02;

/// Margin a recovered key must clear (the `fig6` binary's rule).
const RECOVERY_MARGIN: f64 = 1.1;

/// Every cell has a finite positive delay at both fan-outs and a finite
/// positive static power.
#[must_use]
pub fn check_library(timings: &[CellTiming]) -> Vec<String> {
    timings
        .iter()
        .filter(|t| {
            ![t.delay_fo1_ps, t.delay_fo4_ps, t.static_power_w]
                .iter()
                .all(|v| v.is_finite() && *v > 0.0)
        })
        .map(|t| {
            format!(
                "{:?}/{}: delay {} / {} ps, power {} W",
                t.kind, t.style, t.delay_fo1_ps, t.delay_fo4_ps, t.static_power_w
            )
        })
        .collect()
}

/// The optimum is a real measurement (not a penalty) and deny-free under
/// `mcml-lint`.
#[must_use]
pub fn check_sizing(name: &str, best_cost: f64, lint_clean: bool) -> Option<String> {
    if !lint_clean {
        Some(format!("{name}: optimum is lint-denied"))
    } else if !(best_cost.is_finite() && best_cost > 0.0 && best_cost < INFEASIBLE_PENALTY) {
        Some(format!(
            "{name}: best cost {best_cost:e} is not a measurement"
        ))
    } else {
        None
    }
}

fn recovered(r: &Fig6Row) -> bool {
    r.rank == 0 && r.margin > RECOVERY_MARGIN
}

/// The outputs of one verdict that enter `out_dev_rel`: the CPA peaks of
/// every CMOS attack and of the PG-MCML campaign. Secure-style peaks in
/// the 16- and 256-trace tiers are solver noise, like their ranks, and
/// are not compared.
#[must_use]
pub fn attack_outputs(tier: &str, r: &Fig6Row) -> Vec<(String, f64)> {
    if r.style != LogicStyle::Cmos && tier != "campaign" {
        return Vec::new();
    }
    let name = format!("{tier}/{}", r.style);
    vec![
        (format!("{name}/peak_correct"), r.peak_correct),
        (format!("{name}/best_wrong"), r.best_wrong),
    ]
}

/// CMOS is recovered (rank 0, margin > 1.1) in every tier; MCML and
/// PG-MCML are not recovered in the template and transistor tiers. The
/// PG-MCML campaign is checked against its reference instead
/// ([`pinned_drift`]).
#[must_use]
pub fn check_attack(rows: &[(&str, Fig6Row)]) -> Vec<String> {
    let mut failures = Vec::new();
    for (tier, r) in rows {
        let what = format!("{tier}/{}: rank {} margin {:.4}", r.style, r.rank, r.margin);
        match (r.style, *tier) {
            (LogicStyle::Cmos, _) if !recovered(r) => {
                failures.push(format!("{what}: key not recovered"));
            }
            (LogicStyle::PgMcml, "campaign") | (LogicStyle::Cmos, _) => {}
            _ if recovered(r) => failures.push(format!("{what}: key recovered")),
            _ => {}
        }
    }
    failures
}

/// Largest reference deviation among the outputs that must stay within
/// [`CAMPAIGN_TOL`]: the PG-MCML campaign's CPA peaks. The campaign sits
/// near its disclosure point, so a verdict rule would flip on noise.
#[must_use]
pub fn pinned_drift(
    reference: &Reference,
    workload: Workload,
    variant: u64,
    outputs: &[(String, f64)],
) -> f64 {
    outputs
        .iter()
        .filter(|(name, _)| name.starts_with("campaign/PG-MCML/"))
        .map(|(name, v)| reference.deviation(workload, variant, name, *v))
        .fold(0.0, f64::max)
}

/// The recorded reference outputs.
#[derive(Debug, Default)]
pub struct Reference {
    values: BTreeMap<(String, u64, String), f64>,
}

impl Reference {
    /// The compiled-in `reference.tsv`, parsed once.
    ///
    /// # Panics
    ///
    /// On a malformed row: the file is part of the benchmark's source.
    #[must_use]
    pub fn load() -> &'static Self {
        static PARSED: OnceLock<Reference> = OnceLock::new();
        PARSED.get_or_init(|| Self::parse(REFERENCE))
    }

    /// Parse rows of `workload variant name value`, skipping `#` comments.
    ///
    /// # Panics
    ///
    /// On a malformed row.
    #[must_use]
    pub fn parse(text: &str) -> Self {
        let mut values = BTreeMap::new();
        for line in text
            .lines()
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
        {
            let f: Vec<&str> = line.split('\t').collect();
            assert_eq!(f.len(), 4, "reference row `{line}`");
            let variant = f[1].parse().expect("reference variant is an integer");
            let value = f[3].parse().expect("reference value is a number");
            values.insert((f[0].to_owned(), variant, f[2].to_owned()), value);
        }
        Self { values }
    }

    /// Relative deviation of `value` from the reference of `name`
    /// (absolute when the reference is 0); infinite when there is none.
    #[must_use]
    pub fn deviation(&self, workload: Workload, variant: u64, name: &str, value: f64) -> f64 {
        let key = (workload.name().to_owned(), variant, name.to_owned());
        self.values.get(&key).map_or(f64::INFINITY, |&r| {
            let d = (value - r).abs();
            if r == 0.0 {
                d
            } else {
                d / r.abs()
            }
        })
    }

    /// Largest deviation over a pass's outputs (`out_dev_rel`).
    #[must_use]
    pub fn max_deviation(
        &self,
        workload: Workload,
        variant: u64,
        outputs: &[(String, f64)],
    ) -> f64 {
        outputs
            .iter()
            .map(|(name, v)| self.deviation(workload, variant, name, *v))
            .fold(0.0, f64::max)
    }
}

/// Rows for `reference.tsv`: `value` printed with every digit, so the
/// file round-trips bit-exactly.
#[must_use]
pub fn reference_rows(workload: Workload, variant: u64, outputs: &[(String, f64)]) -> String {
    outputs
        .iter()
        .map(|(name, v)| format!("{}\t{variant}\t{name}\t{v:?}\n", workload.name()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_round_trips_exactly() {
        let v = 0.1f64 + 0.2;
        let text = reference_rows(Workload::Sizing, 3, &[("a/b".into(), v)]);
        let r = Reference::parse(&text);
        assert_eq!(r.deviation(Workload::Sizing, 3, "a/b", v), 0.0);
        assert!(r.deviation(Workload::Sizing, 4, "a/b", v).is_infinite());
    }
}
