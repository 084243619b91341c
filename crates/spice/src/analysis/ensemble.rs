//! The transient march: N input vectors marched lockstep over one
//! shared stamp plan and symbolic LU. Both entry points run it —
//! [`ensemble_transient`] on N lanes, and
//! [`transient`](super::tran::transient) on one.
//!
//! A trace campaign solves the *same circuit* thousands of times with
//! different source waveforms. Everything structural — the MNA sparsity
//! pattern, the pre-accumulated linear stamps, the LU elimination order
//! and fill pattern — depends only on the topology, so the ensemble
//! engine builds it once and shares it across all lanes:
//!
//! * **one `StampPlan`** (behind an `Arc`) serves every lane's assembly;
//! * **one symbolic factorisation**: lane 0 factors first and donates its
//!   factors to the other lanes, whose first "factorisation" is then a
//!   numeric-only replay of the recorded elimination order;
//! * **per-lane numeric state**: Jacobian values, residuals, LU numbers,
//!   MOS bypass caches and companion histories stay per lane, and a lane
//!   refactors only when its own Newton step demands it — an assembly
//!   that evaluated zero MOS devices under an unchanged step size reuses
//!   the lane's existing factors outright (`spice.lane_refactors` counts
//!   the refactorisations that actually ran);
//! * **flat `[lane × unknown]` state**: lane states live contiguously in
//!   one `f64` buffer, so the lockstep march streams through memory in
//!   lane order.
//!
//! Every ensemble decision is a fold over lanes — the adaptive step is
//! the minimum of the per-lane proposals, a step is rejected when *any*
//! lane rejects it (all lanes re-run at the shrunken step, keeping them
//! aligned on the caller's output grid), and state is committed only
//! when the whole ensemble accepts. With one lane each fold degenerates
//! to the single-circuit controller, which is how `transient()` runs.
//! The bit-level reference for that case is
//! `crates/spice/tests/trajectory_bits.rs`; the property tests pin that
//! a one-lane `ensemble_transient` (exact factor reuse on) matches
//! `transient()` (reuse off) bit for bit.

use std::sync::Arc;

use crate::analysis::dc::{branch_map, DcOptions, OpPoint};
use crate::analysis::engine::{init_cap_states, CapState, CompanionCtx, Engine, NrOptions};
use crate::analysis::partition;
use crate::analysis::plan::StampPlan;
use crate::analysis::tran::{
    dense_output, lte_ratio, retag_tran, step_cell, update_caps, CapHistory, Integrator,
    TranOptions, TranResult, T_SNAP,
};
use crate::circuit::{Circuit, NodeId};
use crate::element::Element;
use crate::error::SpiceError;
use crate::Result;

/// Whether two circuits can share one stamp plan: identical node and
/// branch counts and the same element kinds on the same nodes in the
/// same order. Resistor values must also match (they are baked into the
/// plan's constant `base_vals`); source waveforms, capacitances and MOS
/// device parameters are re-read from each lane's own circuit during
/// assembly and may differ freely.
fn same_topology(a: &Circuit, b: &Circuit) -> bool {
    if a.node_count() != b.node_count() || a.branch_count() != b.branch_count() {
        return false;
    }
    let mut ea = a.elements();
    let mut eb = b.elements();
    loop {
        match (ea.next(), eb.next()) {
            (None, None) => return true,
            (Some((_, _, x)), Some((_, _, y))) => {
                let ok = match (x, y) {
                    (
                        Element::Resistor {
                            a: a1,
                            b: b1,
                            ohms: o1,
                        },
                        Element::Resistor {
                            a: a2,
                            b: b2,
                            ohms: o2,
                        },
                    ) => a1 == a2 && b1 == b2 && o1 == o2,
                    (
                        Element::Capacitor { a: a1, b: b1, .. },
                        Element::Capacitor { a: a2, b: b2, .. },
                    ) => a1 == a2 && b1 == b2,
                    (
                        Element::Vsource {
                            p: p1,
                            n: n1,
                            branch: br1,
                            ..
                        },
                        Element::Vsource {
                            p: p2,
                            n: n2,
                            branch: br2,
                            ..
                        },
                    ) => p1 == p2 && n1 == n2 && br1 == br2,
                    (
                        Element::Isource { p: p1, n: n1, .. },
                        Element::Isource { p: p2, n: n2, .. },
                    ) => p1 == p2 && n1 == n2,
                    (
                        Element::Mos {
                            d: d1,
                            g: g1,
                            s: s1,
                            b: b1,
                            ..
                        },
                        Element::Mos {
                            d: d2,
                            g: g2,
                            s: s2,
                            b: b2,
                            ..
                        },
                    ) => d1 == d2 && g1 == g2 && s1 == s2 && b1 == b2,
                    _ => false,
                };
                if !ok {
                    return false;
                }
            }
            _ => return false,
        }
    }
}

/// Hand lane 0's factors to every other lane exactly once, right after
/// lane 0's first solve: their first factorisation then replays the
/// recorded symbolic structure numerically instead of re-running the
/// DFS and pivot search.
fn seed_factors(engines: &mut [Engine<&Circuit>], seeded: &mut bool) {
    if *seeded {
        return;
    }
    *seeded = true;
    if engines.len() > 1 {
        let (lane0, rest) = engines.split_at_mut(1);
        for e in rest {
            e.adopt_factors_from(&lane0[0]);
        }
    }
}

/// Union of every lane's source breakpoints (sorted, deduped) and the
/// tightest curvature step ceiling.
fn merged_breakpoints(ckts: &[Circuit], t_stop: f64) -> (Vec<f64>, f64) {
    let mut bps: Vec<f64> = Vec::new();
    let mut hint = f64::INFINITY;
    for ckt in ckts {
        for (_, _, e) in ckt.elements() {
            let (Element::Vsource { wave, .. } | Element::Isource { wave, .. }) = e else {
                continue;
            };
            wave.breakpoints(t_stop, &mut bps);
            if let Some(h) = wave.max_step_hint() {
                hint = hint.min(h);
            }
        }
    }
    bps.sort_by(f64::total_cmp);
    bps.dedup_by(|a, b| (*a - *b).abs() <= T_SNAP * b.abs());
    (bps, hint)
}

/// The marching state every mode shares: per-lane engines, the flat
/// `[lane × unknown]` state buffers, companion caps, and scratch.
struct Lanes<'a, 'c> {
    ckts: &'a [Circuit],
    engines: Vec<Engine<&'c Circuit>>,
    n_unk: usize,
    /// Flat committed state, lane `l` at `l*n_unk..(l+1)*n_unk`.
    x_all: Vec<f64>,
    /// Flat trial state for uncommitted candidate steps.
    x_try_all: Vec<f64>,
    caps: Vec<Vec<Option<CapState>>>,
    /// Scratch pair for running one lane through `step_cell`.
    xv: Vec<f64>,
    xt: Vec<f64>,
    seeded: bool,
}

impl Lanes<'_, '_> {
    fn lane(&self, l: usize) -> &[f64] {
        &self.x_all[l * self.n_unk..(l + 1) * self.n_unk]
    }

    /// The capacitor terminal pairs (topology, so lane 0's serve every
    /// lane) and each lane's LTE history seeded with its t = 0 state.
    fn cap_histories(&self) -> (Vec<(NodeId, NodeId)>, Vec<CapHistory>) {
        let pairs: Vec<(NodeId, NodeId)> = self.ckts[0]
            .elements()
            .filter_map(|(_, _, e)| match e {
                Element::Capacitor { a, b, .. } => Some((*a, *b)),
                _ => None,
            })
            .collect();
        let hist = (0..self.ckts.len())
            .map(|l| {
                let mut h = CapHistory::new(pairs.len());
                h.push(0.0, &pairs, self.lane(l));
                h
            })
            .collect();
        (pairs, hist)
    }

    fn commit_lane(&mut self, l: usize) {
        let (a, b) = (l * self.n_unk, (l + 1) * self.n_unk);
        let (x_all, x_try) = (&mut self.x_all, &self.x_try_all);
        x_all[a..b].copy_from_slice(&x_try[a..b]);
    }

    /// Run the fixed-step reference cell step for lane `l`, committing
    /// directly into the flat state.
    #[allow(clippy::too_many_arguments)]
    fn step_cell_lane(
        &mut self,
        l: usize,
        opts: &TranOptions,
        nr: &NrOptions,
        trapezoidal: bool,
        t: &mut f64,
        t_target: f64,
    ) -> Result<usize> {
        let (a, b) = (l * self.n_unk, (l + 1) * self.n_unk);
        self.xv.clear();
        self.xv.extend_from_slice(&self.x_all[a..b]);
        let accepted = step_cell(
            &self.ckts[l],
            opts,
            &mut self.engines[l],
            nr,
            trapezoidal,
            &mut self.xv,
            &mut self.xt,
            &mut self.caps[l],
            t,
            t_target,
        )?;
        self.x_all[a..b].copy_from_slice(&self.xv);
        Ok(accepted)
    }

    /// One candidate Newton solve of lane `l` to `t_target` with step
    /// `h`, into the trial buffer (nothing committed).
    fn solve_lane(
        &mut self,
        l: usize,
        h: f64,
        t_target: f64,
        trapezoidal: bool,
        nr: &NrOptions,
    ) -> Result<()> {
        let (a, b) = (l * self.n_unk, (l + 1) * self.n_unk);
        self.x_try_all[a..b].copy_from_slice(&self.x_all[a..b]);
        let ctx = CompanionCtx {
            h,
            trapezoidal,
            caps: &self.caps[l],
        };
        self.engines[l].solve_nr(
            &mut self.x_try_all[a..b],
            t_target,
            Some(&ctx),
            self.ckts[l].gmin,
            1.0,
            nr,
            "tran",
        )
    }
}

/// Run a transient analysis over an ensemble of lanes: one circuit per
/// input vector, all sharing one stamp plan and symbolic LU.
///
/// All circuits must share lane 0's topology (same elements on the same
/// nodes in the same order; resistor values equal) and may differ in
/// source waveforms, capacitances, and MOS device parameters — the
/// degrees of freedom of a trace campaign or a local-mismatch
/// Monte-Carlo sweep. Results come back one [`TranResult`] per lane, in
/// lane order, each indistinguishable from a
/// [`transient`](crate::analysis::tran::transient) result.
///
/// Lockstep guarantees (pinned by the regression tests):
///
/// * a **one-lane ensemble is bit-identical to `transient()`**, for
///   fixed-step and both adaptive modes — the same march, with only the
///   exact factor reuse check switched on;
/// * with adaptive stepping, all lanes advance on one shared internal
///   grid — a step is accepted only when every lane accepts it, a
///   rejecting lane shrinks the step for the whole ensemble, and source
///   breakpoints are the union over lanes — so completed lanes can be
///   streamed straight into chunked attack accumulators in lane order;
/// * peak solver memory is `lanes × state`, independent of how many
///   ensembles a campaign runs.
///
/// Observability: the run is wrapped in an `ensemble_tran` span,
/// `spice.ensemble_lanes` counts lanes launched, and
/// `spice.lane_refactors` counts the per-lane LU refactorisations that
/// actually ran (the gap to `spice.matrix_solves` is the solves served
/// by the unchanged-Jacobian reuse check).
///
/// # Examples
///
/// ```
/// use mcml_spice::{ensemble_transient, Circuit, SourceWave, TranOptions};
///
/// let lane = |level: f64| {
///     let mut c = Circuit::new();
///     let vin = c.node("in");
///     let out = c.node("out");
///     c.vsource("V", vin, Circuit::GND, SourceWave::step(0.0, level, 1e-9));
///     c.resistor("R", vin, out, 1.0e3);
///     c.capacitor("C", out, Circuit::GND, 1.0e-12);
///     (c, out)
/// };
/// // Four lanes: identical topology, different source amplitudes.
/// let lanes: Vec<_> = (1..=4).map(|k| lane(f64::from(k))).collect();
/// let ckts: Vec<Circuit> = lanes.iter().map(|(c, _)| c.clone()).collect();
///
/// let results = ensemble_transient(&ckts, &TranOptions::new(8e-9, 10e-12)).unwrap();
/// for (k, ((_, out), res)) in lanes.iter().zip(&results).enumerate() {
///     let v = res.voltage(*out).last_value();
///     assert!((v - (k + 1) as f64).abs() < 0.05, "lane {k}: {v}");
/// }
/// ```
///
/// # Errors
///
/// Returns [`SpiceError::NoConvergence`] when any lane fails a step at
/// the smallest subdivision, or the lane's DC operating point fails.
///
/// # Panics
///
/// Panics when `ckts` is empty or a lane does not share lane 0's
/// topology — both are programmer errors, not data-dependent failures.
pub fn ensemble_transient(ckts: &[Circuit], opts: &TranOptions) -> Result<Vec<TranResult>> {
    assert!(!ckts.is_empty(), "ensemble needs at least one lane");
    let lanes = ckts.len();
    for (l, ckt) in ckts.iter().enumerate().skip(1) {
        assert!(
            same_topology(&ckts[0], ckt),
            "ensemble lane {l} does not share lane 0's topology"
        );
    }
    let _span = mcml_obs::span(mcml_obs::Stage::EnsembleTran);
    mcml_obs::add(mcml_obs::Counter::EnsembleLanes, lanes as u64);
    mcml_obs::add(mcml_obs::Counter::Transients, lanes as u64);
    march(ckts, opts, true)
}

/// The transient march both entry points share: per-lane cold DC
/// operating points, partition dispatch, then the lockstep march over
/// `ckts` (one lane per circuit, topology already checked by the
/// caller). `reuse_unchanged_jacobian` sets the lane engines'
/// exact-factor reuse check (see
/// [`Engine::set_reuse_unchanged_jacobian`]); it changes which LU
/// counters move, not the result bits.
pub(crate) fn march(
    ckts: &[Circuit],
    opts: &TranOptions,
    reuse_unchanged_jacobian: bool,
) -> Result<Vec<TranResult>> {
    let lanes = ckts.len();
    // Per-lane DC operating point — the same cold solve a lone circuit
    // gets, so each lane starts from the bit-identical state whatever
    // ensemble it rides in. Deliberately *not* accelerated: differential
    // MCML cells have multiple locally stable operating points whose
    // supply currents are indistinguishable (the style's whole point),
    // so any shortcut that changes the Newton path from zero — warm
    // starting from a sibling's op, skipping a continuation rung,
    // lagged-Jacobian iterations inside the ladder — can silently
    // settle internal nodes into a different basin and corrupt the
    // clock-edge transient. The march below may chord; the op may not.
    let dc_opts = DcOptions {
        solver: opts.solver,
        ..DcOptions::default()
    };
    let mut ops: Vec<OpPoint> = Vec::with_capacity(lanes);
    for ckt in ckts {
        ops.push(ckt.dc_op_with(&dc_opts)?);
    }

    // Partitioned path: per-lane block solves with independent skip
    // decisions — lanes whose active partitions differ stop paying for
    // each other. The partition structure is topology-only, so lane 0's
    // serves every lane (the same contract as the shared stamp plan);
    // block circuits are still built from each lane's own element
    // values, so per-lane Monte-Carlo parameters are preserved. The
    // fixed-grid ensemble march never shared step decisions between
    // lanes, so the per-lane marches are equivalent by construction.
    if opts.partition && opts.lte.is_none() && partition::partition_allowed() {
        if let Some(structure) = partition::PartitionStructure::build(&ckts[0], true) {
            let mut results = Vec::with_capacity(lanes);
            for (ckt, op) in ckts.iter().zip(ops) {
                results.push(partition::march_partitioned(ckt, opts, &structure, op)?);
            }
            return Ok(results);
        }
    }

    // One plan, built from lane 0, shared by every engine.
    let mut engines: Vec<Engine<&Circuit>> = Vec::with_capacity(lanes);
    engines.push(Engine::new(&ckts[0]));
    let plan: Arc<StampPlan> = engines[0].plan_handle();
    for ckt in &ckts[1..] {
        engines.push(Engine::with_shared_plan(ckt, Arc::clone(&plan)));
    }
    for e in &mut engines {
        e.set_reuse_unchanged_jacobian(reuse_unchanged_jacobian);
    }
    let n_unk = engines[0].n_unk;
    let n_node_unk = engines[0].n_node_unk;

    let nr = opts.nr();
    let trapezoidal = opts.integrator == Integrator::Trapezoidal;
    let mut x_all = vec![0.0f64; lanes * n_unk];
    for (l, op) in ops.iter().enumerate() {
        x_all[l * n_unk..(l + 1) * n_unk].copy_from_slice(op.state());
    }
    let caps: Vec<Vec<Option<CapState>>> = ckts
        .iter()
        .zip(x_all.chunks(n_unk))
        .map(|(ckt, x)| init_cap_states(ckt, x))
        .collect();
    let mut lanes_st = Lanes {
        ckts,
        engines,
        n_unk,
        x_all,
        x_try_all: vec![0.0f64; lanes * n_unk],
        caps,
        xv: Vec::with_capacity(n_unk),
        xt: vec![0.0f64; n_unk],
        seeded: false,
    };

    // The caller's uniform output grid. Step count covering
    // [0, t_stop] exactly: when t_stop is not an integer multiple of dt,
    // a naive `round` either drops the tail of the window or overshoots
    // past t_stop; instead take `ceil` and clamp the final grid point to
    // t_stop (the last step is simply shorter).
    let stride = opts.record_stride.max(1);
    let ratio = opts.t_stop / opts.dt;
    let n_steps = if (ratio - ratio.round()).abs() < 1e-6 * ratio.max(1.0) {
        (ratio.round() as usize).max(1)
    } else {
        ratio.ceil() as usize
    };

    let mut times: Vec<f64> = Vec::with_capacity(n_steps / stride + 2);
    times.push(0.0);
    let mut rec_states: Vec<Vec<Vec<f64>>> = (0..lanes)
        .map(|l| vec![lanes_st.lane(l).to_vec()])
        .collect();
    let t_end;
    let steps_taken: Vec<usize>;

    if let Some(lte) = opts.lte {
        let (int_times, int_states) = if lte.align_to_grid {
            march_aligned_ensemble(&mut lanes_st, opts, lte, &nr, trapezoidal, n_steps)?
        } else {
            march_adaptive_ensemble(&mut lanes_st, opts, lte, &nr, trapezoidal)?
        };
        t_end = *int_times.last().expect("adaptive march records t_stop");
        let taken = int_times.len() - 1;
        steps_taken = vec![taken; lanes];
        for (l, lane_states) in int_states.iter().enumerate() {
            dense_output(
                opts,
                n_steps,
                stride,
                &int_times,
                lane_states,
                &mut times,
                &mut rec_states[l],
            );
            if l + 1 < lanes {
                // `dense_output` appends to `times` too; keep one copy.
                times.truncate(1);
            }
        }
    } else {
        let mut t_lane = vec![0.0f64; lanes];
        let mut accepted = vec![0usize; lanes];
        for step in 1..=n_steps {
            let t_target = if step == n_steps {
                opts.t_stop
            } else {
                opts.dt * step as f64
            };
            for l in 0..lanes {
                accepted[l] +=
                    lanes_st.step_cell_lane(l, opts, &nr, trapezoidal, &mut t_lane[l], t_target)?;
                if l == 0 {
                    let Lanes {
                        engines, seeded, ..
                    } = &mut lanes_st;
                    seed_factors(engines, seeded);
                }
            }
            if step % stride == 0 || step == n_steps {
                times.push(t_target);
                for (l, rec) in rec_states.iter_mut().enumerate() {
                    rec.push(lanes_st.lane(l).to_vec());
                }
            }
        }
        t_end = t_lane[0];
        steps_taken = accepted;
    }

    let mut results = Vec::with_capacity(lanes);
    for (l, (op0, states)) in ops.into_iter().zip(rec_states).enumerate() {
        results.push(TranResult::from_parts(
            times.clone(),
            states,
            n_node_unk,
            branch_map(&ckts[l]),
            op0,
            t_end,
            steps_taken[l],
        ));
    }
    Ok(results)
}

/// Per-lane internal states for the adaptive marches: the shared
/// internal time grid plus each lane's state at every internal point.
type InternalGrid = (Vec<f64>, Vec<Vec<Vec<f64>>>);

/// Grid-aligned lockstep march: the ensemble macro step covers
/// `k = min` over lanes' proposals grid cells; any lane's LTE reject or
/// Newton failure halves `k` for everyone and the whole ensemble
/// re-runs; `k = 1` delegates each lane to the fixed-step reference
/// cell step, so single-cell stretches are bitwise the fixed march.
fn march_aligned_ensemble(
    lanes_st: &mut Lanes<'_, '_>,
    opts: &TranOptions,
    lte: crate::analysis::tran::AdaptiveOptions,
    nr: &NrOptions,
    trapezoidal: bool,
    n_steps: usize,
) -> Result<InternalGrid> {
    let lanes = lanes_st.ckts.len();
    let (bps, hint) = merged_breakpoints(lanes_st.ckts, opts.t_stop);
    // Barrier = first grid index at-or-after each breakpoint. The ceil is
    // rounding-tolerant so a breakpoint sitting exactly on the grid does
    // not spill into the next cell through FP noise.
    let mut barriers: Vec<usize> = bps
        .iter()
        .map(|&bp| {
            let q = bp / opts.dt;
            let idx = if (q - q.round()).abs() < 1e-9 * q.max(1.0) {
                q.round()
            } else {
                q.ceil()
            };
            (idx as usize).clamp(1, n_steps)
        })
        .collect();
    barriers.dedup();

    let (pairs, mut hist) = lanes_st.cap_histories();

    let k_hint = if hint.is_finite() {
        ((hint / opts.dt).floor() as usize).max(1)
    } else {
        usize::MAX
    };
    let k_max = ((lte.h_max / opts.dt).floor() as usize).max(1).min(k_hint);
    let p_ord = if trapezoidal { 3.0 } else { 2.0 }; // p + 1
    let grid_t = |i: usize| {
        if i == n_steps {
            opts.t_stop
        } else {
            opts.dt * i as f64
        }
    };

    let mut int_times = vec![0.0];
    let mut int_states: Vec<Vec<Vec<f64>>> = (0..lanes)
        .map(|l| vec![lanes_st.lane(l).to_vec()])
        .collect();
    let mut t = 0.0;
    let mut pos = 0usize;
    let mut k_next_lane = vec![1usize; lanes];
    let mut bar_idx = 0usize;
    while pos < n_steps {
        while bar_idx < barriers.len() && barriers[bar_idx] <= pos {
            bar_idx += 1;
        }
        let k_next = k_next_lane.iter().copied().min().expect("lanes >= 1");
        let mut k = k_next.min(k_max).min(n_steps - pos).max(1);
        if let Some(&bar) = barriers.get(bar_idx) {
            k = k.min(bar - pos);
        }
        let mut r_used: Vec<Option<f64>> = vec![None; lanes];
        loop {
            let t_target = grid_t(pos + k);
            if k == 1 {
                // Every lane takes the fixed path's reference step.
                for l in 0..lanes {
                    let mut t_l = t;
                    lanes_st.step_cell_lane(l, opts, nr, trapezoidal, &mut t_l, t_target)?;
                    if l == 0 {
                        let Lanes {
                            engines, seeded, ..
                        } = lanes_st;
                        seed_factors(engines, seeded);
                    }
                    r_used[l] = lte_ratio(
                        &hist[l],
                        &pairs,
                        lanes_st.lane(l),
                        t_target,
                        opts.dt,
                        trapezoidal,
                        lte,
                    );
                }
                t = t_target;
                break;
            }
            let h = t_target - t;
            let mut rejected = false;
            let mut nr_failed = false;
            for l in 0..lanes {
                match lanes_st.solve_lane(l, h, t_target, trapezoidal, nr) {
                    Ok(()) => {
                        if l == 0 {
                            let Lanes {
                                engines, seeded, ..
                            } = lanes_st;
                            seed_factors(engines, seeded);
                        }
                        let r = lte_ratio(
                            &hist[l],
                            &pairs,
                            &lanes_st.x_try_all[l * lanes_st.n_unk..(l + 1) * lanes_st.n_unk],
                            t_target,
                            h,
                            trapezoidal,
                            lte,
                        );
                        r_used[l] = r;
                        if r.is_some_and(|rv| rv > 1.0) {
                            mcml_obs::incr(mcml_obs::Counter::LteRejects);
                            rejected = true;
                        }
                    }
                    Err(_) => {
                        mcml_obs::incr(mcml_obs::Counter::TranRetries);
                        nr_failed = true;
                    }
                }
                if rejected || nr_failed {
                    break;
                }
            }
            if rejected || nr_failed {
                // One lane balked: the whole ensemble re-runs at the
                // halved step, staying aligned on the shared grid.
                k /= 2;
                continue;
            }
            for l in 0..lanes {
                mcml_obs::incr(mcml_obs::Counter::TranSteps);
                let (a, b) = (l * lanes_st.n_unk, (l + 1) * lanes_st.n_unk);
                let x_new = &lanes_st.x_try_all[a..b];
                update_caps(
                    &lanes_st.ckts[l],
                    &mut lanes_st.caps[l],
                    x_new,
                    h,
                    trapezoidal,
                );
                lanes_st.commit_lane(l);
            }
            t = t_target;
            break;
        }
        mcml_obs::add(mcml_obs::Counter::AdaptiveSteps, lanes as u64);
        let landed_barrier = barriers.get(bar_idx) == Some(&(pos + k));
        pos += k;
        for l in 0..lanes {
            if landed_barrier {
                hist[l].clear();
                k_next_lane[l] = 1;
            } else {
                let grown = match r_used[l] {
                    Some(r) => {
                        let f = if r > 0.0 {
                            0.9 * r.powf(-1.0 / p_ord)
                        } else {
                            f64::INFINITY
                        };
                        if f >= 2.0 {
                            (k * 2).min(k_max)
                        } else if r > 1.0 {
                            1
                        } else {
                            k
                        }
                    }
                    None => k,
                };
                if grown > k {
                    mcml_obs::incr(mcml_obs::Counter::HGrowths);
                }
                k_next_lane[l] = grown;
            }
            hist[l].push(t, &pairs, lanes_st.lane(l));
            int_states[l].push(lanes_st.lane(l).to_vec());
        }
        int_times.push(t);
    }
    Ok((int_times, int_states))
}

/// Free-running lockstep march: the trial step is the minimum of the
/// per-lane controller proposals; any lane's LTE reject shrinks the
/// step for the whole ensemble, any Newton failure halves it, and state
/// is committed only when every lane accepts — so all lanes share one
/// internal time grid. At one lane this is the single-circuit free
/// controller.
fn march_adaptive_ensemble(
    lanes_st: &mut Lanes<'_, '_>,
    opts: &TranOptions,
    lte: crate::analysis::tran::AdaptiveOptions,
    nr: &NrOptions,
    trapezoidal: bool,
) -> Result<InternalGrid> {
    let lanes = lanes_st.ckts.len();
    let (bps, hint) = merged_breakpoints(lanes_st.ckts, opts.t_stop);
    let (pairs, mut hist) = lanes_st.cap_histories();

    let h_base = opts.dt.clamp(lte.h_min, lte.h_max);
    let h_restart = (h_base / 64.0).max(lte.h_min);
    let p_ord = if trapezoidal { 3.0 } else { 2.0 }; // p + 1
    let mut h_next_lane = vec![h_restart; lanes];
    let mut bp_idx = 0usize;
    let eps_t = opts.t_stop * T_SNAP;

    let mut int_times = vec![0.0];
    let mut int_states: Vec<Vec<Vec<f64>>> = (0..lanes)
        .map(|l| vec![lanes_st.lane(l).to_vec()])
        .collect();
    let mut t = 0.0;
    while opts.t_stop - t > eps_t {
        while bp_idx < bps.len() && bps[bp_idx] <= t + eps_t {
            bp_idx += 1;
        }
        let next_bp = bps.get(bp_idx).copied();
        let h_hi = (opts.t_stop - t).min(lte.h_max).min(hint);
        if h_hi <= 0.0 {
            break;
        }
        let h_next = h_next_lane.iter().copied().fold(f64::INFINITY, f64::min);
        let mut h_try = h_next.min(h_hi).max(lte.h_min.min(h_hi));
        let mut lands_bp = false;
        if let Some(bp) = next_bp {
            if bp - t <= h_try + eps_t {
                h_try = bp - t;
                lands_bp = true;
            }
        }
        let mut level = 0u32;
        let mut r_used: Vec<Option<f64>> = vec![None; lanes];
        loop {
            let mut reject_r: Option<f64> = None;
            let mut nr_err: Option<SpiceError> = None;
            for l in 0..lanes {
                match lanes_st.solve_lane(l, h_try, t + h_try, trapezoidal, nr) {
                    Ok(()) => {
                        if l == 0 {
                            let Lanes {
                                engines, seeded, ..
                            } = lanes_st;
                            seed_factors(engines, seeded);
                        }
                        let r = lte_ratio(
                            &hist[l],
                            &pairs,
                            &lanes_st.x_try_all[l * lanes_st.n_unk..(l + 1) * lanes_st.n_unk],
                            t + h_try,
                            h_try,
                            trapezoidal,
                            lte,
                        );
                        r_used[l] = r;
                        if let Some(rv) = r {
                            if rv > 1.0 && h_try > lte.h_min * (1.0 + 1e-9) {
                                mcml_obs::incr(mcml_obs::Counter::LteRejects);
                                reject_r = Some(rv);
                            }
                        }
                    }
                    Err(e) => {
                        mcml_obs::incr(mcml_obs::Counter::TranRetries);
                        nr_err = Some(e);
                    }
                }
                if reject_r.is_some() || nr_err.is_some() {
                    break;
                }
            }
            if let Some(e) = nr_err {
                level += 1;
                if level > opts.max_subdiv {
                    return Err(retag_tran(e, t + h_try));
                }
                h_try /= 2.0;
                lands_bp = false;
                continue;
            }
            if let Some(rv) = reject_r {
                // The rejecting lane sets the ensemble's shrink; every
                // lane re-runs at the smaller step.
                let f = (0.9 * rv.powf(-1.0 / p_ord)).clamp(0.1, 0.5);
                h_try = (h_try * f).max(lte.h_min);
                lands_bp = false;
                continue;
            }
            // Ensemble accept: commit every lane.
            for l in 0..lanes {
                mcml_obs::incr(mcml_obs::Counter::TranSteps);
                let (a, b) = (l * lanes_st.n_unk, (l + 1) * lanes_st.n_unk);
                let x_new = &lanes_st.x_try_all[a..b];
                update_caps(
                    &lanes_st.ckts[l],
                    &mut lanes_st.caps[l],
                    x_new,
                    h_try,
                    trapezoidal,
                );
                lanes_st.commit_lane(l);
            }
            mcml_obs::add(mcml_obs::Counter::AdaptiveSteps, lanes as u64);
            t += h_try;
            if lands_bp {
                t = next_bp.expect("lands_bp implies a breakpoint");
            }
            if opts.t_stop - t <= eps_t {
                t = opts.t_stop;
            }
            for l in 0..lanes {
                let f = match r_used[l] {
                    Some(r) if r > 0.0 => (0.9 * r.powf(-1.0 / p_ord)).min(2.0),
                    Some(_) => 2.0,
                    None => 1.0,
                };
                let h_new = (h_try * f).clamp(lte.h_min, lte.h_max);
                if h_new > h_try {
                    mcml_obs::incr(mcml_obs::Counter::HGrowths);
                }
                h_next_lane[l] = h_new;
                if lands_bp {
                    hist[l].clear();
                    h_next_lane[l] = h_restart;
                }
                hist[l].push(t, &pairs, lanes_st.lane(l));
                int_states[l].push(lanes_st.lane(l).to_vec());
            }
            int_times.push(t);
            break;
        }
    }
    Ok((int_times, int_states))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceWave;

    fn rc_lane(level: f64) -> (Circuit, NodeId, crate::circuit::ElementId) {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let out = c.node("out");
        let v = c.vsource("V", vin, Circuit::GND, SourceWave::step(0.0, level, 1e-9));
        c.resistor("R", vin, out, 1.0e3);
        c.capacitor("C", out, Circuit::GND, 1.0e-12);
        (c, out, v)
    }

    fn assert_bitwise(a: &TranResult, b: &TranResult) {
        assert_eq!(a.times(), b.times());
        for (i, (&t, sa)) in a.times().iter().zip(a.states_raw()).enumerate() {
            let sb = &b.states_raw()[i];
            for (x, y) in sa.iter().zip(sb.iter()) {
                assert_eq!(x.to_bits(), y.to_bits(), "t={t}");
            }
        }
    }

    #[test]
    fn single_lane_fixed_is_bitwise_scalar() {
        let (c, _, _) = rc_lane(1.0);
        let opts = TranOptions::new(8e-9, 5e-12);
        let scalar = c.transient(&opts).unwrap();
        let ens = ensemble_transient(std::slice::from_ref(&c), &opts).unwrap();
        assert_bitwise(&scalar, &ens[0]);
    }

    #[test]
    fn single_lane_aligned_is_bitwise_scalar() {
        let (c, _, _) = rc_lane(1.0);
        let opts = TranOptions::new(8e-9, 5e-12).adaptive_grid_aligned(1e-4, 100e-12);
        let scalar = c.transient(&opts).unwrap();
        let ens = ensemble_transient(std::slice::from_ref(&c), &opts).unwrap();
        assert_eq!(scalar.steps_taken(), ens[0].steps_taken());
        assert_bitwise(&scalar, &ens[0]);
    }

    #[test]
    fn single_lane_free_adaptive_is_bitwise_scalar() {
        let (c, _, _) = rc_lane(1.0);
        let opts = TranOptions::new(8e-9, 5e-12).adaptive(1e-4, 1e-13, 500e-12);
        let scalar = c.transient(&opts).unwrap();
        let ens = ensemble_transient(std::slice::from_ref(&c), &opts).unwrap();
        assert_eq!(scalar.steps_taken(), ens[0].steps_taken());
        assert_bitwise(&scalar, &ens[0]);
    }

    #[test]
    fn lanes_superpose_like_scalar_runs() {
        // Linear circuit: each lane's ensemble trajectory must match its
        // own scalar run to solver precision even though the ensemble
        // shares step-size decisions across lanes.
        let levels = [0.5, 1.0, 2.0, 4.0];
        let built: Vec<_> = levels.iter().map(|&v| rc_lane(v)).collect();
        let ckts: Vec<Circuit> = built.iter().map(|(c, _, _)| c.clone()).collect();
        let opts = TranOptions::new(8e-9, 5e-12).adaptive_grid_aligned(1e-5, 100e-12);
        let ens = ensemble_transient(&ckts, &opts).unwrap();
        for (((c, out, _), res), level) in built.iter().zip(&ens).zip(levels) {
            let scalar = c.transient(&opts).unwrap();
            let (ws, we) = (scalar.voltage(*out), res.voltage(*out));
            let worst = ws
                .iter()
                .zip(we.iter())
                .map(|((_, a), (_, b))| (a - b).abs())
                .fold(0.0f64, f64::max);
            // The ensemble's shared internal grid differs from each
            // scalar run's own grid, so trajectories may differ by the
            // local truncation error — a few × reltol × amplitude.
            assert!(
                worst < 1e-4 * level,
                "lane deviates from scalar by {worst} at level {level}"
            );
        }
    }

    #[test]
    fn supply_current_per_lane() {
        let built: Vec<_> = [1.0, 2.0].iter().map(|&v| rc_lane(v)).collect();
        let ckts: Vec<Circuit> = built.iter().map(|(c, _, _)| c.clone()).collect();
        let opts = TranOptions::new(10e-9, 10e-12);
        let ens = ensemble_transient(&ckts, &opts).unwrap();
        let i0 = ens[0].supply_current(built[0].2).unwrap();
        let i1 = ens[1].supply_current(built[1].2).unwrap();
        // Twice the step level drives twice the peak current (linear RC).
        assert!((i1.max() / i0.max() - 2.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "does not share lane 0's topology")]
    fn mismatched_topology_rejected() {
        let (a, _, _) = rc_lane(1.0);
        let mut b = Circuit::new();
        let vin = b.node("in");
        b.vsource("V", vin, Circuit::GND, SourceWave::step(0.0, 1.0, 1e-9));
        b.resistor("R", vin, Circuit::GND, 1.0e3);
        let _ = ensemble_transient(&[a, b], &TranOptions::new(1e-9, 1e-12));
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn empty_ensemble_rejected() {
        let _ = ensemble_transient(&[], &TranOptions::new(1e-9, 1e-12));
    }
}
