//! The three workloads: what each generates from the seed, what its
//! set-up builds, and what one pass runs and returns.
//!
//! A seed selects one of [`VARIANTS`] input variants (`seed % VARIANTS`).
//! Each variant's outputs are recorded in `reference.tsv`, so every seed
//! has a reference to be checked against.

use std::time::Instant;

use mcml_aes::ReducedAes;
use mcml_cells::{build_cell, try_solve_bias, CellKind, CellParams, LogicStyle};
use mcml_char::CellTiming;
use mcml_lint::LintEngine;
use mcml_opt::{Budget, CmaEs, Objective, SizingMetric, SizingObjective, Solver};
use pg_mcml::elaborate::checked_elaborate;
use pg_mcml::experiments::{cpa_campaign, fig6_template, fig6_transistor_par, Fig6Row};
use pg_mcml::{DesignFlow, Parallelism};

use crate::checks;
use crate::trace::Tracer;

/// Number of input variants a seed selects among.
pub const VARIANTS: u64 = 8;

/// 4-bit keys of the transistor tier and the campaign. At most other keys
/// the 16-trace transistor tier either fails its CMOS DC operating point
/// or recovers the PG-MCML key; `0xf` passes but costs about 12 % more per
/// pass, which would add input-driven spread (see METHOD.md, "Known
/// caveats").
const TRANSISTOR_KEYS: [u8; 2] = [0xa, 0xb];

/// Sizing subset: one combinational and one sequential cell plus the
/// buffer, each in all three styles.
const SIZING_CELLS: [CellKind; 3] = [CellKind::Buffer, CellKind::Xor2, CellKind::DLatch];

/// CMA-ES budget per cell (the `opt` binary's catalog budget).
const SIZING_POPULATION: usize = 6;
const SIZING_GENERATIONS: usize = 5;

/// Template-tier measurement noise (the `fig6` binary's setting).
const TEMPLATE_NOISE: f64 = 0.01;
/// Campaign traces per style, noise and ensemble width.
const CAMPAIGN_TRACES: usize = 20_000;
const CAMPAIGN_NOISE: f64 = 0.05;
const CAMPAIGN_LANES: usize = 16;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 16 cells × 3 styles characterized at one `CellParams` point.
    Libchar,
    /// CMA-ES sizing of [`SIZING_CELLS`] in all three styles.
    Sizing,
    /// The Fig. 6 attack: template tier, transistor tier, campaigns.
    Attack,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Libchar, Workload::Sizing, Workload::Attack];

    /// The `--workload` name.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Workload::Libchar => "libchar",
            Workload::Sizing => "sizing",
            Workload::Attack => "attack",
        }
    }

    /// Parse a `--workload` name.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Name of the operation `ops_per_s` counts on this workload, as the
    /// workload's own throughput metric is called.
    #[must_use]
    pub const fn throughput_name(self) -> &'static str {
        match self {
            Workload::Libchar => "cells_per_s",
            Workload::Sizing => "evals_per_s",
            Workload::Attack => "traces_per_s",
        }
    }
}

/// `splitmix64`: a well-mixed 64-bit hash of a small integer.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Inputs a seed generates for a workload.
#[derive(Debug, Clone)]
pub enum Inputs {
    /// Characterize the whole catalog at `params`.
    Libchar {
        /// The grid point.
        params: CellParams,
    },
    /// Size each cell with its own CMA-ES seed.
    Sizing {
        /// `Budget.seed` of each objective, in objective order.
        seeds: Vec<u64>,
    },
    /// Attack keys and noise seeds.
    Attack {
        /// 8-bit key of the template tier.
        key8: u8,
        /// 4-bit key of the transistor tier and the campaigns.
        key4: u8,
        /// Noise seed of the template tier.
        template_seed: u64,
        /// Noise seed of the campaigns.
        campaign_seed: u64,
    },
}

impl Inputs {
    /// Generate the inputs of `variant` (`seed % VARIANTS`).
    #[must_use]
    pub fn generate(workload: Workload, variant: u64) -> Self {
        let h = mix(variant ^ 0x5045_5246_4245_4e43);
        match workload {
            Workload::Libchar => {
                // A point on the sizing grid (2.5 µA, 10 mV) around the
                // library's 50 µA / 0.4 V design point.
                let iss = 40e-6 + 2.5e-6 * (h % 9) as f64;
                let vswing = 0.36 + 0.01 * ((h >> 8) % 9) as f64;
                Inputs::Libchar {
                    params: CellParams {
                        vswing,
                        ..CellParams::new().with_iss(iss)
                    },
                }
            }
            Workload::Sizing => Inputs::Sizing {
                seeds: (0..SIZING_CELLS.len() * LogicStyle::ALL.len())
                    .map(|i| mix(h ^ i as u64))
                    .collect(),
            },
            Workload::Attack => Inputs::Attack {
                key8: (h & 0xff) as u8,
                key4: TRANSISTOR_KEYS[(variant % TRANSISTOR_KEYS.len() as u64) as usize],
                template_seed: (h >> 8) & 0xffff,
                campaign_seed: (h >> 24) & 0xffff,
            },
        }
    }
}

/// What set-up built: the checked inputs a pass runs on.
pub struct Prepared {
    /// Which workload.
    pub workload: Workload,
    /// The selected variant.
    pub variant: u64,
    /// Worker pool every pass runs with.
    pub par: Parallelism,
    /// Generated inputs.
    pub inputs: Inputs,
    objectives: Vec<SizingObjective>,
}

/// Build and check a workload's inputs: the `CellParams` check, the
/// netlists, `checked_elaborate` and the lint engine.
///
/// # Errors
///
/// A message naming the first input that fails its check.
pub fn setup(
    workload: Workload,
    seed: u64,
    workers: usize,
    tracer: &Tracer,
) -> Result<Prepared, String> {
    let variant = seed % VARIANTS;
    let inputs = Inputs::generate(workload, variant);
    let par = if workers <= 1 {
        Parallelism::Serial
    } else {
        Parallelism::Threads(workers)
    };
    let engine = LintEngine::with_default_rules();
    let mut objectives = Vec::new();
    match &inputs {
        Inputs::Libchar { params } => {
            params.validate()?;
            try_solve_bias(params).map_err(|e| format!("bias: {e}"))?;
            for style in LogicStyle::ALL {
                for kind in CellKind::ALL {
                    let cell = tracer.span("core.elaborate", || build_cell(kind, style, params));
                    if !engine.lint_cell(&cell).is_clean() {
                        return Err(format!("{kind:?}/{style}: lint deny"));
                    }
                }
            }
        }
        Inputs::Sizing { .. } => {
            for kind in SIZING_CELLS {
                for style in LogicStyle::ALL {
                    let metric = if style.is_differential() {
                        SizingMetric::AreaDelay
                    } else {
                        SizingMetric::PowerDelay
                    };
                    let obj = SizingObjective::per_cell(kind, style, metric);
                    let mid: Vec<f64> = obj
                        .bounds()
                        .iter()
                        .map(|&(lo, hi)| 0.5 * (lo + hi))
                        .collect();
                    let params = obj.decode(&mid).params;
                    params.validate()?;
                    let cell = tracer.span("core.elaborate", || build_cell(kind, style, &params));
                    if !engine.lint_cell(&cell).is_clean() {
                        return Err(format!("{kind:?}/{style}: lint deny"));
                    }
                    objectives.push(obj);
                }
            }
        }
        Inputs::Attack { .. } => {
            let params = CellParams::default();
            params.validate()?;
            for style in LogicStyle::ALL {
                let template = ReducedAes::new(8).build_registered_netlist(style);
                if !engine.lint_netlist(&template, None).is_clean() {
                    return Err(format!("template netlist {style}: lint deny"));
                }
                let nl = ReducedAes::new(4).build_registered_netlist(style);
                tracer
                    .span("core.elaborate", || {
                        checked_elaborate(&nl, &params, &engine)
                    })
                    .map_err(|e| format!("transistor netlist {style}: {e}"))?;
            }
        }
    }
    Ok(Prepared {
        workload,
        variant,
        par,
        inputs,
        objectives,
    })
}

/// What one pass did and produced.
#[derive(Debug, Clone, Default)]
pub struct PassOut {
    /// Throughput units: characterizations, objective evaluations or
    /// SPICE-simulated supply traces.
    pub ops: u64,
    /// Operations whose outputs were checked.
    pub attempted: u64,
    /// One message per failed operation.
    pub failures: Vec<String>,
    /// Named numeric outputs compared against the reference.
    pub outputs: Vec<(String, f64)>,
    /// Wall time of the pass (s), from the benchmark's own clock.
    pub wall_s: f64,
}

impl Prepared {
    /// Run one pass from a cleared characterization cache.
    #[must_use]
    pub fn pass(&self, tracer: &Tracer) -> PassOut {
        mcml_char::cache::clear();
        let t0 = Instant::now();
        let mut out = match &self.inputs {
            Inputs::Libchar { params } => self.libchar(params, tracer),
            Inputs::Sizing { seeds } => self.sizing(seeds, tracer),
            Inputs::Attack {
                key8,
                key4,
                template_seed,
                campaign_seed,
            } => self.attack(*key8, *key4, *template_seed, *campaign_seed, tracer),
        };
        out.wall_s = t0.elapsed().as_secs_f64();
        out
    }

    fn libchar(&self, params: &CellParams, tracer: &Tracer) -> PassOut {
        let jobs = LogicStyle::ALL.len() * CellKind::ALL.len();
        let timings: Result<Vec<CellTiming>, String> = if tracer.is_on() {
            // The traced pass fans the same per-cell calls out itself
            // (`build_library_par` is exactly this map), so each
            // `characterize_cell` call gets its own span.
            let jobs: Vec<(LogicStyle, CellKind)> = LogicStyle::ALL
                .iter()
                .flat_map(|&s| CellKind::ALL.into_iter().map(move |k| (s, k)))
                .collect();
            mcml_exec::parallel_map_items(self.par, &jobs, |&(style, kind)| {
                tracer.span("charlib.characterize_cell", || {
                    mcml_char::characterize_cell(kind, style, params)
                })
            })
            .into_iter()
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())
        } else {
            mcml_char::build_library_par(params, &LogicStyle::ALL, self.par)
                .map(|lib| lib.entries().to_vec())
                .map_err(|e| e.to_string())
        };
        let mut out = PassOut {
            ops: jobs as u64,
            attempted: jobs as u64,
            ..PassOut::default()
        };
        match timings {
            Ok(timings) => {
                for t in &timings {
                    let name = format!("{:?}/{}", t.kind, t.style);
                    out.outputs
                        .push((format!("{name}/delay_fo1_ps"), t.delay_fo1_ps));
                    out.outputs
                        .push((format!("{name}/delay_fo4_ps"), t.delay_fo4_ps));
                    out.outputs
                        .push((format!("{name}/static_power_w"), t.static_power_w));
                }
                out.failures = checks::check_library(&timings);
            }
            Err(e) => out.failures = vec![format!("build_library_par: {e}"); jobs],
        }
        out
    }

    fn sizing(&self, seeds: &[u64], tracer: &Tracer) -> PassOut {
        let mut out = PassOut::default();
        for (obj, &seed) in self.objectives.iter().zip(seeds) {
            let budget = Budget {
                population: SIZING_POPULATION,
                generations: SIZING_GENERATIONS,
                seed,
                par: self.par,
            };
            let timed = tracer.objective(obj);
            let best = tracer.span("opt.minimize", || CmaEs.minimize(&timed, &budget));
            let sizing = obj.decode(&best.best_x);
            let lint_clean = tracer.span("lint.check", || sizing.lint_report().is_clean());
            let name = format!("{:?}/{}", obj.kind(), obj.style());
            out.ops += best.evals;
            out.attempted += 1;
            out.outputs.push((format!("{name}/best_cost"), best.best_f));
            out.failures
                .extend(checks::check_sizing(&name, best.best_f, lint_clean));
        }
        out
    }

    fn attack(
        &self,
        key8: u8,
        key4: u8,
        template_seed: u64,
        campaign_seed: u64,
        tracer: &Tracer,
    ) -> PassOut {
        let params = CellParams::default();
        let mut out = PassOut::default();
        let mut rows: Vec<(&'static str, Fig6Row)> = Vec::new();
        let mut flow = DesignFlow::new(params.clone()).with_parallelism(self.par);
        match tracer.span("core.fig6_template", || {
            fig6_template(
                &mut flow,
                key8,
                TEMPLATE_NOISE,
                template_seed,
                &LogicStyle::ALL,
            )
        }) {
            Ok(template) => rows.extend(template.into_iter().map(|(r, _)| ("template", r))),
            Err(e) => out.failures.extend(vec![format!("fig6_template: {e}"); 3]),
        }
        let plaintexts: Vec<u8> = (0..16).collect();
        for style in LogicStyle::ALL {
            match tracer.span("core.fig6_transistor_par", || {
                fig6_transistor_par(&params, key4, style, &plaintexts, self.par)
            }) {
                Ok((r, _)) => rows.push(("transistor", r)),
                Err(e) => out
                    .failures
                    .push(format!("fig6_transistor_par {style}: {e}")),
            }
        }
        for style in [LogicStyle::Cmos, LogicStyle::PgMcml] {
            match tracer.span("core.cpa_campaign", || {
                cpa_campaign(
                    &params,
                    key4,
                    style,
                    CAMPAIGN_TRACES,
                    CAMPAIGN_NOISE,
                    campaign_seed,
                    CAMPAIGN_LANES,
                    self.par,
                )
            }) {
                Ok(c) => rows.push(("campaign", c.verdict)),
                Err(e) => out.failures.push(format!("cpa_campaign {style}: {e}")),
            }
        }
        // 3 template verdicts, 3 transistor verdicts and 2 campaigns; the
        // PG-MCML campaign is checked against its reference (`Tally::add`).
        out.attempted = 8;
        out.ops = (LogicStyle::ALL.len() * plaintexts.len() + 2 * CAMPAIGN_LANES) as u64;
        for (tier, r) in &rows {
            out.outputs.extend(checks::attack_outputs(tier, r));
        }
        out.failures.extend(checks::check_attack(&rows));
        out
    }
}
