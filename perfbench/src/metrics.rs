//! Metric definitions and the result line.
//!
//! [`END_TO_END`] and [`PER_LAYER`] list every metric `BENCHMARK.json`
//! declares, with its unit; a run emits exactly one of the two lists.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use mcml_obs::{Counter, Stage};

use crate::trace::{covered_ns, SpanRec};
use crate::workload::Workload;
use crate::{median, percentile, Tally, TraceData};

/// End-to-end metrics, emitted by every `--trace 0` run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
    ("out_agree", "ratio"),
];

/// Per-layer metrics, emitted by every `--trace 1` run; a layer a
/// workload never reaches reads 0.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("spice.lu_factor_s", "s"),
    ("spice.us_per_factor", "us"),
    ("spice.lu_factors", "count"),
    ("spice.solves_per_factor", "ratio"),
    ("spice.mna_assemble_s", "s"),
    ("spice.lu_solve_s", "s"),
    ("spice.nr_iterations", "count"),
    ("spice.us_per_nr_iter", "us"),
    ("spice.tran_steps", "count"),
    ("spice.lte_rejects", "count"),
    ("spice.dc_solves", "count"),
    ("spice.ensemble_lanes", "count"),
    ("spice.lane_refactors", "count"),
    ("device.mos_evals", "count"),
    ("device.bypass_ratio", "ratio"),
    ("charlib.characterize_s", "s"),
    ("charlib.cell_ms_p50", "ms"),
    ("charlib.cell_ms_p95", "ms"),
    ("charlib.cells_characterized", "count"),
    ("charlib.cache_hit_ratio", "ratio"),
    ("opt.evals", "count"),
    ("opt.infeasible_ratio", "ratio"),
    ("opt.eval_ms_p50", "ms"),
    ("opt.eval_ms_p95", "ms"),
    ("opt.solver_s", "s"),
    ("lint.check_s", "s"),
    ("sim.event_sim_s", "s"),
    ("sim.net_transitions", "count"),
    ("dpa.cpa_s", "s"),
    ("dpa.traces_acquired", "count"),
    ("exec.utilisation", "ratio"),
    ("exec.tasks_run", "count"),
    ("core.elaborate_s", "s"),
    ("obs.overhead_pct", "%"),
];

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as declared in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// A finished run: what the result line reports, plus the lines printed
/// above it.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Every operation passed its check.
    pub correct: bool,
    /// Checked operations.
    pub attempted: u64,
    /// Failed operations.
    pub failed: u64,
    /// The declared metrics, in declaration order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

fn build(table: &[(&'static str, &'static str)], tally: &Tally, values: &[f64]) -> Outcome {
    let metrics: Vec<Metric> = table
        .iter()
        .zip(values)
        .map(|(&(name, unit), &value)| Metric { name, unit, value })
        .collect();
    let finite = metrics.iter().all(|m| m.value.is_finite());
    let referenced = tally.out_dev_rel.is_finite();
    let mut notes: Vec<String> = tally
        .messages
        .iter()
        .map(|m| format!("FAILED {m}"))
        .collect();
    if !finite {
        notes.push("FAILED a metric is not finite".to_owned());
    }
    if !referenced {
        notes.push("FAILED an output has no recorded reference".to_owned());
    }
    Outcome {
        correct: tally.failed == 0 && finite && referenced,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        notes,
    }
}

/// The end-to-end metrics of a `--trace 0` run.
#[must_use]
pub fn end_to_end(
    workload: Workload,
    tally: &Tally,
    ops_per_s: f64,
    setup_s: f64,
    peak_rss_mb: f64,
    pass_walls: &[f64],
) -> Outcome {
    let fail_frac = tally.fail_frac();
    let mut out = build(
        &END_TO_END,
        tally,
        &[
            ops_per_s,
            setup_s,
            peak_rss_mb,
            1.0 - fail_frac,
            1.0 / (1.0 + tally.out_dev_rel),
        ],
    );
    out.notes.extend([
        format!(
            "timed passes: {}, wall s min {:.4} median {:.4} max {:.4}",
            pass_walls.len(),
            percentile(pass_walls, 0.0),
            median(pass_walls),
            percentile(pass_walls, 100.0)
        ),
        format!(
            "{} = {ops_per_s} 1/s (ops_per_s)",
            workload.throughput_name()
        ),
        format!("fail_frac = {fail_frac} ratio (ok_frac = 1 - fail_frac)"),
        format!(
            "out_dev_rel = {} ratio (out_agree = 1 / (1 + out_dev_rel))",
            tally.out_dev_rel
        ),
    ]);
    out
}

fn spans_ms(data: &TraceData, name: &str) -> Vec<f64> {
    data.spans
        .iter()
        .flatten()
        .filter(|s| s.name == name)
        .map(SpanRec::ms)
        .collect()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics of a `--trace 1` run. Busy times and counts are
/// per traced pass; set-up terms are medians over the traced set-ups.
#[must_use]
pub fn per_layer(tally: &Tally, data: &TraceData) -> Outcome {
    let n = data.passes.max(1) as f64;
    let d = &data.delta;
    let c = |k: Counter| d.counter(k) as f64 / n;
    let busy = |s: Stage| d.busy_s(s) / n;

    let factors = d.stage_calls(Stage::LuFactor) as f64 / n;
    let solver_s = busy(Stage::MnaAssemble) + busy(Stage::LuFactor) + busy(Stage::LuSolve);
    let mos_total = c(Counter::MosEvals) + c(Counter::MosBypassed);
    // Time in `minimize` not covered by any objective evaluation.
    let opt_solver_s = data
        .spans
        .iter()
        .map(|pass| {
            let minimize: u64 = pass
                .iter()
                .filter(|s| s.name == "opt.minimize")
                .map(|s| s.end_ns - s.start_ns)
                .sum();
            let evals: Vec<&SpanRec> = pass.iter().filter(|s| s.name == "opt.eval").collect();
            minimize.saturating_sub(covered_ns(&evals)) as f64 * 1e-9
        })
        .sum::<f64>()
        / n;
    let cell_ms = spans_ms(data, "charlib.characterize_cell");
    let eval_ms = spans_ms(data, "opt.eval");
    let traced_wall: f64 = data.traced_wall.iter().sum();
    let untraced = median(&data.untraced_wall);
    let traced = median(&data.traced_wall);

    let values = [
        busy(Stage::LuFactor),
        ratio(busy(Stage::LuFactor) * 1e6, factors),
        factors,
        ratio(c(Counter::MatrixSolves), factors),
        busy(Stage::MnaAssemble),
        busy(Stage::LuSolve),
        c(Counter::NrIterations),
        ratio(solver_s * 1e6, c(Counter::NrIterations)),
        c(Counter::TranSteps),
        c(Counter::LteRejects),
        c(Counter::DcSolves),
        c(Counter::EnsembleLanes),
        c(Counter::LaneRefactors),
        c(Counter::MosEvals),
        ratio(c(Counter::MosBypassed), mos_total),
        busy(Stage::Characterize),
        percentile(&cell_ms, 50.0),
        percentile(&cell_ms, 95.0),
        c(Counter::CellsCharacterized),
        ratio(c(Counter::CacheHits), c(Counter::CacheLookups)),
        c(Counter::OptEvals),
        ratio(c(Counter::OptInfeasible), c(Counter::OptEvals)),
        percentile(&eval_ms, 50.0),
        percentile(&eval_ms, 95.0),
        opt_solver_s,
        busy(Stage::Lint) + median(&data.setup_lint_s),
        busy(Stage::EventSim),
        c(Counter::NetTransitions),
        busy(Stage::Cpa),
        c(Counter::TracesAcquired),
        ratio(
            d.busy_s(Stage::WorkerBusy),
            traced_wall * data.workers as f64,
        ),
        c(Counter::TasksRun),
        median(&data.setup_elaborate_s),
        ratio(traced - untraced, untraced) * 100.0,
    ];
    let mut out = build(&PER_LAYER, tally, &values);
    out.notes.extend([
        format!(
            "traced passes: {} (each after an untraced pass)",
            data.passes
        ),
        format!("pass wall: traced median {traced} s, untraced median {untraced} s"),
    ]);
    // Each benchmark span's calls and time per traced pass: the top-level
    // split of a pass between the layers' entry points.
    let mut by_name: BTreeMap<&str, (usize, f64)> = BTreeMap::new();
    for s in data.spans.iter().flatten() {
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.ms();
    }
    out.notes.extend(by_name.iter().map(|(name, (calls, ms))| {
        format!(
            "span {name}: {:.1} calls, {:.1} ms per traced pass",
            *calls as f64 / n,
            ms / n
        )
    }));
    out
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}

impl Outcome {
    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        s.push_str("}}");
        s
    }
}
