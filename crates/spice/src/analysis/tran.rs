//! Transient analysis with backward-Euler / trapezoidal companion models:
//! the options, the result type, and the per-step pieces the march is
//! built from (the cell step, the LTE estimate, dense output).
//!
//! Three stepping policies share the same recorded-grid interface:
//!
//! * **Fixed-step** (the default): march the caller's uniform `dt` grid,
//!   subdividing a step only when Newton fails. This is the reference
//!   policy the golden traces pin.
//! * **Adaptive** (opt-in via [`TranOptions::adaptive`]): control the
//!   internal step size with a local-truncation-error (LTE) estimate
//!   from the capacitor companion history — grow `h` up to `h_max` in
//!   quiet regions, shrink it down to `h_min` at edges, land exactly on
//!   every source breakpoint, and keep the Newton-failure subdivision as
//!   the inner fallback. Results are emitted on the caller's uniform
//!   grid via linear dense output, so downstream consumers see the same
//!   interface either way.
//! * **Grid-aligned adaptive** (opt-in via
//!   [`TranOptions::adaptive_grid_aligned`]): the same controller, but
//!   every internal step is a whole number of `dt` cells, so single-cell
//!   stretches are bitwise the fixed-step march.
//!
//! All three run in one march, the lockstep march of
//! [`super::ensemble`]; [`transient`] is its one-lane case.

use crate::analysis::dc::OpPoint;
use crate::analysis::engine::{companion_terms, v_node, CompanionCtx, Engine, NrOptions};
use crate::analysis::ensemble::march;
use crate::circuit::{Circuit, ElementId, NodeId};
use crate::element::Element;
use crate::error::SpiceError;
use crate::matrix::SolverKind;
use crate::waveform::Waveform;
use crate::Result;

/// Numerical integration method for capacitor companion models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Integrator {
    /// Backward Euler: L-stable, slightly dissipative — the robust
    /// default.
    #[default]
    BackwardEuler,
    /// Trapezoidal rule: second-order accurate, preferred for energy
    /// measurements.
    Trapezoidal,
}

/// LTE controller settings for adaptive transient stepping.
///
/// Built by [`TranOptions::adaptive`]; the estimate, accept/reject
/// policy, and dense output are documented on [`transient`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveOptions {
    /// Relative LTE tolerance against the capacitor voltage magnitude.
    pub reltol: f64,
    /// Absolute LTE floor (V), so tolerances stay finite near 0 V.
    pub abstol: f64,
    /// Smallest internal step (s); a step at `h_min` is always accepted.
    /// Ignored in grid-aligned mode, where the floor is the grid's `dt`.
    pub h_min: f64,
    /// Largest internal step (s), the quiet-region ceiling.
    pub h_max: f64,
    /// Keep every internal step a whole multiple of `dt` so that where
    /// the LTE controller falls back to single-cell steps the trajectory
    /// is *bitwise* the fixed-step one. Quiet regions leap several grid
    /// cells at once; edges degrade gracefully to the reference path.
    /// Trades the free mode's sub-`dt` edge resolution for drift-free
    /// equivalence against fixed-step golden baselines.
    pub align_to_grid: bool,
}

/// Options for [`Circuit::transient`].
#[derive(Debug, Clone, Copy)]
pub struct TranOptions {
    /// End time (s).
    pub t_stop: f64,
    /// Base time step (s); also the spacing of the recorded output grid.
    /// Fixed-step marches it directly (subdividing locally when Newton
    /// fails); the adaptive path uses it as the post-breakpoint restart
    /// step and interpolates back onto this grid.
    pub dt: f64,
    /// Integration method.
    pub integrator: Integrator,
    /// Record every `record_stride`-th grid step (values < 1 are treated
    /// as 1 = record all).
    pub record_stride: usize,
    /// Newton iteration budget per step.
    pub max_iter: usize,
    /// Node-voltage convergence tolerance (V).
    pub vtol: f64,
    /// KCL residual tolerance (A).
    pub itol: f64,
    /// Largest node-voltage Newton update (V).
    pub vstep_limit: f64,
    /// Linear-solver selection.
    pub solver: SolverKind,
    /// Maximum binary step subdivisions on non-convergence.
    pub max_subdiv: u32,
    /// LTE-controlled adaptive stepping; `None` (the default) keeps the
    /// fixed-step reference behaviour.
    pub lte: Option<AdaptiveOptions>,
    /// Quiescent-MOS bypass tolerance (V): when every terminal voltage of
    /// a MOSFET is within this distance of the point it was last
    /// evaluated at, the cached linearization is reused instead of
    /// calling the device model (SPICE3's `bypass` option). `0.0` (the
    /// default) disables the bypass; `MCML_SPICE_BYPASS=off` in the
    /// environment is a hard-off escape hatch that wins over any
    /// programmatic setting. The current is extrapolated with the exact
    /// cached derivatives, so the waveform perturbation is second order
    /// in the tolerance (see `spice.mos_bypassed` in
    /// `docs/OBSERVABILITY.md`).
    pub bypass_vtol: f64,
    /// Demand-driven refactorisation (modified Newton): keep solving
    /// Newton updates against the last numeric LU factors — across
    /// iterations *and* time steps, even when the adaptive controller
    /// changes the step size (an `h` change only rescales the capacitor
    /// companion conductances) — and refactor only when the iteration's
    /// contraction rate degrades (the update fails to halve, or damping
    /// engages). The residual is assembled fresh every iteration, so
    /// the convergence test is unchanged: an accepted solution
    /// satisfies exactly the same `vtol`/`itol` bounds as full Newton,
    /// it is just reached along a chord direction. `false` (the
    /// default) refactors every iteration, which is the reference
    /// behaviour all fixed-step goldens pin.
    pub jacobian_reuse: bool,
    /// Connected-component / block-triangular partitioning of the MNA
    /// solve (see [`TranOptions::with_partitioning`]). `false` (the
    /// default) keeps the bit-preserved monolithic reference path.
    pub partition: bool,
}

impl TranOptions {
    /// Options with the given end time and base step, defaults elsewhere.
    ///
    /// # Examples
    ///
    /// ```
    /// use mcml_spice::{Circuit, SourceWave, TranOptions};
    ///
    /// let mut c = Circuit::new();
    /// let vin = c.node("in");
    /// let out = c.node("out");
    /// c.vsource("V", vin, Circuit::GND, SourceWave::dc(1.0));
    /// c.resistor("R", vin, out, 1.0e3);
    /// c.capacitor("C", out, Circuit::GND, 1.0e-12);
    ///
    /// // March 10 ns in 10 ps steps: 1001 recorded points (incl. t=0).
    /// let res = c.transient(&TranOptions::new(10e-9, 10e-12)).unwrap();
    /// assert_eq!(res.times().len(), 1001);
    /// assert!((res.voltage(out).last_value() - 1.0).abs() < 1e-6);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics unless `0 < dt <= t_stop`.
    #[must_use]
    pub fn new(t_stop: f64, dt: f64) -> Self {
        assert!(dt > 0.0 && t_stop >= dt, "need 0 < dt <= t_stop");
        let nr = NrOptions::default();
        Self {
            t_stop,
            dt,
            integrator: Integrator::default(),
            record_stride: 1,
            max_iter: nr.max_iter,
            vtol: nr.vtol,
            itol: nr.itol,
            vstep_limit: nr.vstep_limit,
            solver: SolverKind::Auto,
            max_subdiv: 8,
            lte: None,
            bypass_vtol: 0.0,
            jacobian_reuse: false,
            partition: false,
        }
    }

    /// Builder-style integrator selection.
    ///
    /// # Examples
    ///
    /// ```
    /// use mcml_spice::{Integrator, TranOptions};
    ///
    /// let opts = TranOptions::new(1e-9, 1e-12).with_integrator(Integrator::Trapezoidal);
    /// assert_eq!(opts.integrator, Integrator::Trapezoidal);
    /// // The default is backward Euler.
    /// assert_eq!(TranOptions::new(1e-9, 1e-12).integrator, Integrator::BackwardEuler);
    /// ```
    #[must_use]
    pub fn with_integrator(mut self, integrator: Integrator) -> Self {
        self.integrator = integrator;
        self
    }

    /// Builder-style record stride; values below 1 are clamped to 1.
    ///
    /// # Examples
    ///
    /// ```
    /// use mcml_spice::{Circuit, SourceWave, TranOptions};
    ///
    /// let mut c = Circuit::new();
    /// let vin = c.node("in");
    /// c.vsource("V", vin, Circuit::GND, SourceWave::dc(1.0));
    /// c.resistor("R", vin, Circuit::GND, 1.0e3);
    ///
    /// // 1000 grid steps, recording every 10th: 101 points (incl. t=0).
    /// let opts = TranOptions::new(10e-9, 10e-12).with_record_stride(10);
    /// let res = c.transient(&opts).unwrap();
    /// assert_eq!(res.times().len(), 101);
    /// assert_eq!(TranOptions::new(1e-9, 1e-12).with_record_stride(0).record_stride, 1);
    /// ```
    #[must_use]
    pub fn with_record_stride(mut self, stride: usize) -> Self {
        self.record_stride = stride.max(1);
        self
    }

    /// Enable LTE-controlled adaptive stepping (see [`transient`]).
    ///
    /// `reltol` bounds the per-step LTE relative to the capacitor
    /// voltage magnitude; `h_min`/`h_max` bound the internal step. The
    /// absolute tolerance floor defaults to 1 µV
    /// ([`AdaptiveOptions::abstol`] can be adjusted on the stored
    /// options afterwards).
    ///
    /// # Examples
    ///
    /// ```
    /// use mcml_spice::{Circuit, SourceWave, TranOptions};
    ///
    /// let mut c = Circuit::new();
    /// let vin = c.node("in");
    /// let out = c.node("out");
    /// c.vsource("V", vin, Circuit::GND, SourceWave::step(0.0, 1.0, 1e-9));
    /// c.resistor("R", vin, out, 1.0e3);
    /// c.capacitor("C", out, Circuit::GND, 1.0e-12);
    ///
    /// // Free-running step size between 0.1 ps and 0.5 ns, LTE-bounded.
    /// let opts = TranOptions::new(8e-9, 5e-12).adaptive(1e-4, 1e-13, 500e-12);
    /// let res = c.transient(&opts).unwrap();
    /// // Output still lands on the caller's uniform dt grid.
    /// assert_eq!(*res.times().last().unwrap(), 8e-9);
    /// assert!((res.voltage(out).last_value() - 1.0).abs() < 0.01);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics unless `reltol > 0` and `0 < h_min <= h_max`.
    #[must_use]
    pub fn adaptive(mut self, reltol: f64, h_min: f64, h_max: f64) -> Self {
        assert!(reltol > 0.0, "need reltol > 0");
        assert!(
            h_min > 0.0 && h_min <= h_max,
            "need 0 < h_min <= h_max for adaptive stepping"
        );
        self.lte = Some(AdaptiveOptions {
            reltol,
            abstol: 1e-6,
            h_min,
            h_max,
            align_to_grid: false,
        });
        self
    }

    /// Enable grid-aligned adaptive stepping: like
    /// [`TranOptions::adaptive`] but every internal step is a
    /// whole number of `dt` grid cells, so wherever the LTE controller
    /// drops back to single-cell steps the solution is exactly the
    /// fixed-step reference. Use this when results are pinned against a
    /// fixed-step golden trace; use the free mode when sub-`dt` edge
    /// resolution matters.
    ///
    /// # Examples
    ///
    /// ```
    /// use mcml_spice::{Circuit, SourceWave, TranOptions};
    ///
    /// let mut c = Circuit::new();
    /// let vin = c.node("in");
    /// let out = c.node("out");
    /// c.vsource("V", vin, Circuit::GND, SourceWave::step(0.0, 1.0, 1e-9));
    /// c.resistor("R", vin, out, 1.0e3);
    /// c.capacitor("C", out, Circuit::GND, 1.0e-12);
    ///
    /// let base = TranOptions::new(8e-9, 5e-12);
    /// // With h_max == dt every step is a single grid cell, so the
    /// // aligned march reproduces the fixed-step reference bitwise.
    /// let aligned = c
    ///     .transient(&base.adaptive_grid_aligned(1e-6, 5e-12))
    ///     .unwrap();
    /// let fixed = c.transient(&base).unwrap();
    /// assert_eq!(fixed.times(), aligned.times());
    /// ```
    ///
    /// # Panics
    ///
    /// Panics unless `reltol > 0` and `h_max >= dt`.
    #[must_use]
    pub fn adaptive_grid_aligned(mut self, reltol: f64, h_max: f64) -> Self {
        assert!(reltol > 0.0, "need reltol > 0");
        assert!(
            h_max >= self.dt,
            "need h_max >= dt for grid-aligned adaptive stepping"
        );
        self.lte = Some(AdaptiveOptions {
            reltol,
            abstol: 1e-6,
            h_min: self.dt,
            h_max,
            align_to_grid: true,
        });
        self
    }

    /// Builder-style quiescent-MOS bypass tolerance (V); `0.0` disables.
    ///
    /// # Examples
    ///
    /// ```
    /// use mcml_spice::TranOptions;
    ///
    /// // Reuse cached MOS linearizations while every terminal stays
    /// // within 10 µV of its last evaluated point. The waveform
    /// // perturbation is second order in the tolerance.
    /// let opts = TranOptions::new(3.6e-9, 10e-12).with_bypass(10e-6);
    /// assert_eq!(opts.bypass_vtol, 10e-6);
    /// // `MCML_SPICE_BYPASS=off` in the environment is a hard override
    /// // that disables the bypass regardless of this setting.
    /// ```
    ///
    /// # Panics
    ///
    /// Panics when `tol` is negative or not finite.
    #[must_use]
    pub fn with_bypass(mut self, tol: f64) -> Self {
        assert!(
            tol.is_finite() && tol >= 0.0,
            "need a finite bypass tolerance >= 0"
        );
        self.bypass_vtol = tol;
        self
    }

    /// Builder-style demand-driven refactorisation (modified Newton):
    /// Newton updates keep using the last numeric LU factors — across
    /// iterations and across time steps, surviving adaptive step-size
    /// changes — and a refactorisation happens only when the
    /// iteration's contraction monitor demands one (the largest update
    /// stops halving, or damping engages). Converged solutions satisfy the
    /// same `vtol`/`itol` tolerances as full Newton; the Newton *path*
    /// to them differs, so results agree to solver tolerance rather
    /// than bitwise. This is the refactor policy the batched ensemble
    /// acquisition runs with — on the quiescent-heavy fig. 6 workload
    /// it eliminates the large majority of numeric refactorisations.
    ///
    /// # Examples
    ///
    /// ```
    /// use mcml_spice::{Circuit, SourceWave, TranOptions};
    ///
    /// let mut c = Circuit::new();
    /// let vin = c.node("in");
    /// let out = c.node("out");
    /// c.vsource("V", vin, Circuit::GND, SourceWave::step(0.0, 1.0, 1e-9));
    /// c.resistor("R", vin, out, 1.0e3);
    /// c.capacitor("C", out, Circuit::GND, 1.0e-12);
    ///
    /// let base = TranOptions::new(8e-9, 5e-12);
    /// let full = c.transient(&base).unwrap();
    /// let chord = c.transient(&base.with_jacobian_reuse()).unwrap();
    /// // Same grid, same physics to solver tolerance.
    /// assert_eq!(full.times(), chord.times());
    /// let (f, l) = (
    ///     full.voltage(out).last_value(),
    ///     chord.voltage(out).last_value(),
    /// );
    /// assert!((f - l).abs() < 1e-6);
    /// ```
    #[must_use]
    pub fn with_jacobian_reuse(mut self) -> Self {
        self.jacobian_reuse = true;
        self
    }

    /// Enable connected-component / block-triangular partitioning of the
    /// MNA solve: the node graph is split at the voltage-source rails,
    /// each connected component becomes an independently factored solve
    /// block, blocks are ordered along the gate-coupling DAG (upstream
    /// outputs feed downstream gates), and per time step a settled block
    /// whose boundary inputs have not moved beyond the bypass tolerance
    /// replays its cached solution instead of re-solving.
    ///
    /// Partitioning applies to fixed-grid transients of circuits that
    /// actually split into two or more blocks; everything else (LTE
    /// adaptive runs, single-component circuits, voltage-source loops)
    /// silently takes the monolithic reference path, bit for bit.
    /// `MCML_SPICE_PARTITION=off` in the environment is a hard-off
    /// escape hatch that wins over this setting.
    ///
    /// # Examples
    ///
    /// ```
    /// use mcml_spice::{Circuit, SourceWave, TranOptions};
    ///
    /// // Two independent RC islands off the same supply rail.
    /// let mut c = Circuit::new();
    /// let vdd = c.node("vdd");
    /// let (a, b) = (c.node("a"), c.node("b"));
    /// c.vsource("VDD", vdd, Circuit::GND, SourceWave::step(0.0, 1.2, 1e-9));
    /// c.resistor("Ra", vdd, a, 1.0e3);
    /// c.capacitor("Ca", a, Circuit::GND, 1.0e-12);
    /// c.resistor("Rb", vdd, b, 2.0e3);
    /// c.capacitor("Cb", b, Circuit::GND, 1.0e-12);
    ///
    /// let base = TranOptions::new(8e-9, 5e-12);
    /// let mono = c.transient(&base).unwrap();
    /// let part = c.transient(&base.with_partitioning()).unwrap();
    /// // Same grid, same physics to solver tolerance.
    /// assert_eq!(mono.times(), part.times());
    /// let (m, p) = (
    ///     mono.voltage(a).last_value(),
    ///     part.voltage(a).last_value(),
    /// );
    /// assert!((m - p).abs() < 1e-6);
    /// ```
    #[must_use]
    pub fn with_partitioning(mut self) -> Self {
        self.partition = true;
        self
    }

    pub(crate) fn nr(&self) -> NrOptions {
        NrOptions {
            max_iter: self.max_iter,
            vtol: self.vtol,
            itol: self.itol,
            vstep_limit: self.vstep_limit,
            solver: self.solver,
            bypass_tol: if bypass_allowed() {
                self.bypass_vtol
            } else {
                0.0
            },
            reuse_jacobian: self.jacobian_reuse,
        }
    }
}

/// Hard-off escape hatch for the quiescent-MOS bypass: setting
/// `MCML_SPICE_BYPASS=off` (or `0`, or `none`, in any case) in the
/// environment forces every transient back to unconditional device
/// evaluation, regardless of what the analysis options request. Read
/// once per process; unrecognised values warn once and leave the bypass
/// enabled.
fn bypass_allowed() -> bool {
    static ALLOWED: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *ALLOWED.get_or_init(|| !super::envknob::hard_off("MCML_SPICE_BYPASS"))
}

/// Recorded transient simulation results.
#[derive(Debug, Clone)]
pub struct TranResult {
    times: Vec<f64>,
    states: Vec<Vec<f64>>,
    n_node_unk: usize,
    branch_of_elem: Vec<Option<usize>>,
    op0: OpPoint,
    t_end: f64,
    steps_taken: usize,
}

impl TranResult {
    /// Assemble a result from the marching loop's pieces — shared by the
    /// lockstep march and the partitioned march.
    pub(crate) fn from_parts(
        times: Vec<f64>,
        states: Vec<Vec<f64>>,
        n_node_unk: usize,
        branch_of_elem: Vec<Option<usize>>,
        op0: OpPoint,
        t_end: f64,
        steps_taken: usize,
    ) -> Self {
        Self {
            times,
            states,
            n_node_unk,
            branch_of_elem,
            op0,
            t_end,
            steps_taken,
        }
    }

    /// Recorded time points (s).
    #[must_use]
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Raw recorded unknown vectors, one per time point — node voltages
    /// first, then branch currents. The ensemble regression tests use
    /// this to assert bit-identity between entry points.
    #[cfg(test)]
    pub(crate) fn states_raw(&self) -> &[Vec<f64>] {
        &self.states
    }

    /// Number of recorded points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// True when nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Initial operating point (t = 0).
    #[must_use]
    pub fn initial_op(&self) -> &OpPoint {
        &self.op0
    }

    /// The integrator's internal time when the march finished. Exactly
    /// equal (bitwise) to the last recorded time: the stepper snaps to
    /// each grid target instead of accumulating `t += h` rounding.
    #[must_use]
    pub fn end_time(&self) -> f64 {
        self.t_end
    }

    /// Accepted internal solver steps the march took (excluding rejected
    /// LTE trials and Newton-failure retries). On the fixed path this is
    /// at least the grid step count; with adaptive stepping it is the
    /// variable-grid size — the quantity the LTE controller shrinks on
    /// quiet traces.
    #[must_use]
    pub fn steps_taken(&self) -> usize {
        self.steps_taken
    }

    /// Node-voltage waveform.
    #[must_use]
    pub fn voltage(&self, node: NodeId) -> Waveform {
        if node.is_ground() {
            return self.times.iter().map(|&t| (t, 0.0)).collect();
        }
        let idx = node.index() - 1;
        self.times
            .iter()
            .zip(self.states.iter())
            .map(|(&t, s)| (t, s[idx]))
            .collect()
    }

    /// Branch-current waveform of a voltage source (A, from the positive
    /// terminal through the source); `None` for other elements.
    #[must_use]
    pub fn branch_current(&self, elem: ElementId) -> Option<Waveform> {
        let b = self.branch_of_elem.get(elem.index()).copied().flatten()?;
        let idx = self.n_node_unk + b;
        Some(
            self.times
                .iter()
                .zip(self.states.iter())
                .map(|(&t, s)| (t, s[idx]))
                .collect(),
        )
    }

    /// Current delivered into the circuit by a voltage source (A): the
    /// negated branch current. For the Vdd rail this is the supply-current
    /// waveform of the paper's Fig. 5.
    #[must_use]
    pub fn supply_current(&self, elem: ElementId) -> Option<Waveform> {
        self.branch_current(elem).map(|w| w.scaled(-1.0))
    }
}

/// Relative snap window for landing on breakpoints and `t_stop`.
pub(crate) const T_SNAP: f64 = 1e-12;

/// Run a transient analysis.
///
/// The initial condition is the DC operating point with sources evaluated
/// at `t = 0`. When a time step fails to converge it is halved, up to
/// `max_subdiv` times.
///
/// With [`TranOptions::adaptive`] set, the march runs on an internal
/// variable grid instead: after each converged step the per-capacitor
/// LTE is estimated from divided differences of the companion history —
/// `h²·|f[t_{n-1},t_n,t_{n+1}]|` for backward Euler (order 1),
/// `h³/2·|f[t_{n-2},…,t_{n+1}]|` for trapezoidal (order 2) — and the
/// step is rejected when the worst ratio against
/// `reltol·|v| + abstol` exceeds 1 (unless already at `h_min`). The
/// next step grows or shrinks by the standard `0.9·r^{-1/(p+1)}`
/// controller, clamped to `[h_min, h_max]` and at most doubling.
/// Steps land exactly on every source breakpoint (pulse corners, PWL
/// knots, sine onsets), where the divided-difference history is reset.
/// Recorded output is the same uniform `dt` grid as the fixed path,
/// filled by linear dense output between internal points.
///
/// This is the one-lane case of the lockstep march behind
/// [`crate::ensemble_transient`]; it differs only in its observability
/// (a `transient` span, one `spice.transients`, no
/// `spice.ensemble_lanes`) and in leaving the unchanged-Jacobian reuse
/// check off, which does not change the result bits.
///
/// # Errors
///
/// Returns [`SpiceError::NoConvergence`] when a step fails at the smallest
/// subdivision, or the DC errors for the initial point.
pub fn transient(ckt: &Circuit, opts: &TranOptions) -> Result<TranResult> {
    let _span = mcml_obs::span(mcml_obs::Stage::Transient);
    mcml_obs::incr(mcml_obs::Counter::Transients);
    let mut lanes = march(std::slice::from_ref(ckt), opts, false)?;
    Ok(lanes.pop().expect("one lane in, one result out"))
}

/// March from `*t` to `t_target`, subdividing on Newton failure — the
/// fixed path's reference cell step, also used by the grid-aligned
/// adaptive mode whenever its controller is down to single-cell steps
/// (which keeps the two trajectories identical there). Snaps `*t` to
/// the exact target on exit and returns the number of accepted
/// sub-steps.
#[allow(clippy::too_many_arguments)] // one lane's march state, passed piecewise
pub(crate) fn step_cell(
    ckt: &Circuit,
    opts: &TranOptions,
    engine: &mut Engine<&Circuit>,
    nr: &NrOptions,
    trapezoidal: bool,
    x: &mut Vec<f64>,
    x_try: &mut Vec<f64>,
    caps: &mut [Option<crate::analysis::engine::CapState>],
    t: &mut f64,
    t_target: f64,
) -> Result<usize> {
    let mut accepted = 0usize;
    while *t < t_target - opts.dt * 1e-9 {
        let mut h = t_target - *t;
        let mut level = 0u32;
        loop {
            let ctx = CompanionCtx {
                h,
                trapezoidal,
                caps,
            };
            x_try.clone_from(x);
            match engine.solve_nr(x_try, *t + h, Some(&ctx), ckt.gmin, 1.0, nr, "tran") {
                Ok(()) => {
                    // Accept: update companion states.
                    mcml_obs::incr(mcml_obs::Counter::TranSteps);
                    update_caps(ckt, caps, x_try, h, trapezoidal);
                    std::mem::swap(x, x_try);
                    *t += h;
                    accepted += 1;
                    break;
                }
                Err(e) => {
                    mcml_obs::incr(mcml_obs::Counter::TranRetries);
                    level += 1;
                    if level > opts.max_subdiv {
                        return Err(retag_tran(e, *t + h));
                    }
                    h /= 2.0;
                }
            }
        }
    }
    // Snap to the exact grid time: repeated `t += h` rounding (and the
    // subdivision loop's exit threshold) would otherwise leave the
    // internal clock drifting below the recorded time.
    *t = t_target;
    Ok(accepted)
}

/// Re-tag a Newton failure with the transient analysis name and time.
pub(crate) fn retag_tran(e: SpiceError, time: f64) -> SpiceError {
    match e {
        SpiceError::NoConvergence { iterations, .. } => SpiceError::NoConvergence {
            analysis: "tran",
            time,
            iterations,
        },
        other => other,
    }
}

/// Up to three past `(t, capacitor voltages)` samples for the LTE
/// divided differences; the newest entry is at index `len - 1`.
pub(crate) struct CapHistory {
    t: [f64; 3],
    v: [Vec<f64>; 3],
    len: usize,
}

impl CapHistory {
    pub(crate) fn new(n_caps: usize) -> Self {
        Self {
            t: [0.0; 3],
            v: [vec![0.0; n_caps], vec![0.0; n_caps], vec![0.0; n_caps]],
            len: 0,
        }
    }

    /// Drop all history (called after crossing a source breakpoint,
    /// where the waveform slope is discontinuous and divided differences
    /// across the corner would be meaningless).
    pub(crate) fn clear(&mut self) {
        self.len = 0;
    }

    pub(crate) fn push(&mut self, t: f64, pairs: &[(NodeId, NodeId)], x: &[f64]) {
        if self.len == 3 {
            self.t.rotate_left(1);
            self.v.rotate_left(1);
            self.len = 2;
        }
        self.t[self.len] = t;
        let slot = &mut self.v[self.len];
        for (k, &(a, b)) in pairs.iter().enumerate() {
            slot[k] = v_node(x, a) - v_node(x, b);
        }
        self.len += 1;
    }
}

/// Worst per-capacitor `LTE / (reltol·|v| + abstol)` ratio for a
/// candidate step to `(t_new, x_new)`, or `None` when the history is
/// still too short to form the divided difference (such steps are
/// accepted without growing `h`).
pub(crate) fn lte_ratio(
    hist: &CapHistory,
    pairs: &[(NodeId, NodeId)],
    x_new: &[f64],
    t_new: f64,
    h: f64,
    trapezoidal: bool,
    lte: AdaptiveOptions,
) -> Option<f64> {
    if pairs.is_empty() {
        // No dynamic state: the solution is quasi-static between source
        // breakpoints, so any step size is exact.
        return Some(0.0);
    }
    let need = if trapezoidal { 3 } else { 2 };
    if hist.len < need {
        return None;
    }
    let n = hist.len;
    let (t1, t2) = (hist.t[n - 2], hist.t[n - 1]);
    let mut r_max = 0.0f64;
    for (k, &(a, b)) in pairs.iter().enumerate() {
        let v_new = v_node(x_new, a) - v_node(x_new, b);
        let (v1, v2) = (hist.v[n - 2][k], hist.v[n - 1][k]);
        let dd1a = (v2 - v1) / (t2 - t1);
        let dd1b = (v_new - v2) / (t_new - t2);
        let dd2 = (dd1b - dd1a) / (t_new - t1);
        let err = if trapezoidal {
            // Order 2: LTE ≈ h³/12·|v‴|, with v‴ ≈ 6·f[t_{n-2},…,t_{n+1}].
            let (t0, v0) = (hist.t[n - 3], hist.v[n - 3][k]);
            let dd1z = (v1 - v0) / (t1 - t0);
            let dd2a = (dd1a - dd1z) / (t2 - t0);
            let dd3 = (dd2 - dd2a) / (t_new - t0);
            0.5 * h * h * h * dd3.abs()
        } else {
            // Order 1: LTE ≈ h²/2·|v″|, with v″ ≈ 2·f[t_{n-1},t_n,t_{n+1}].
            h * h * dd2.abs()
        };
        let tol = lte.reltol * v_new.abs().max(v2.abs()) + lte.abstol;
        r_max = r_max.max(err / tol);
    }
    Some(r_max)
}

/// Interpolate the internal variable grid onto the caller's uniform
/// recording grid (same linear rule as [`Waveform::sample`]), appending
/// to `times`/`states` which already hold the t = 0 point.
pub(crate) fn dense_output(
    opts: &TranOptions,
    n_steps: usize,
    stride: usize,
    int_times: &[f64],
    int_states: &[Vec<f64>],
    times: &mut Vec<f64>,
    states: &mut Vec<Vec<f64>>,
) {
    let mut cursor = 0usize;
    for step in 1..=n_steps {
        if step % stride != 0 && step != n_steps {
            continue;
        }
        let t_g = if step == n_steps {
            opts.t_stop
        } else {
            opts.dt * step as f64
        };
        while cursor + 1 < int_times.len() - 1 && int_times[cursor + 1] < t_g {
            cursor += 1;
        }
        let (ta, tb) = (int_times[cursor], int_times[cursor + 1]);
        let u = if tb > ta {
            ((t_g - ta) / (tb - ta)).clamp(0.0, 1.0)
        } else {
            1.0
        };
        let (sa, sb) = (&int_states[cursor], &int_states[cursor + 1]);
        let interp: Vec<f64> = sa.iter().zip(sb).map(|(a, b)| a + (b - a) * u).collect();
        times.push(t_g);
        states.push(interp);
    }
}

pub(crate) fn update_caps(
    ckt: &Circuit,
    caps: &mut [Option<crate::analysis::engine::CapState>],
    x: &[f64],
    h: f64,
    trapezoidal: bool,
) {
    for (idx, (_, e)) in ckt.elements().map(|(id, n, e)| (id.index(), (n, e))) {
        if let (Element::Capacitor { a, b, .. }, Some(state)) = (e, caps[idx].as_mut()) {
            let v_new = v_node(x, *a) - v_node(x, *b);
            let (geq, hist) = companion_terms(state, h, trapezoidal);
            let i_new = geq * v_new + hist;
            state.prev_v = v_new;
            state.prev_i = i_new;
        }
    }
}

impl Circuit {
    /// Run a transient analysis (see [`transient`]).
    ///
    /// # Errors
    ///
    /// See [`transient`].
    pub fn transient(&self, opts: &TranOptions) -> Result<TranResult> {
        transient(self, opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceWave;

    fn rc_circuit() -> (Circuit, NodeId, ElementId) {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let out = c.node("out");
        let v = c.vsource("V", vin, Circuit::GND, SourceWave::step(0.0, 1.0, 1e-9));
        c.resistor("R", vin, out, 1.0e3);
        c.capacitor("C", out, Circuit::GND, 1.0e-12);
        (c, out, v)
    }

    #[test]
    fn rc_step_time_constant() {
        let (c, out, _) = rc_circuit();
        let res = c.transient(&TranOptions::new(8e-9, 5e-12)).unwrap();
        let w = res.voltage(out);
        // tau = 1 ns; at t = 1 ns after the step, v = 1 - 1/e ≈ 0.632.
        let v_tau = w.sample(2e-9);
        assert!((v_tau - 0.632).abs() < 0.02, "v(tau) = {v_tau}");
        assert!((w.last_value() - 1.0).abs() < 0.01);
    }

    #[test]
    fn trapezoidal_matches_analytic_better() {
        // Sine-driven RC low-pass: smooth waveform where the second-order
        // trapezoidal rule should clearly beat backward Euler at a coarse
        // step. (On discontinuous steps trapezoidal rings — that is
        // expected and why BE is the default.)
        let build = || {
            let mut c = Circuit::new();
            let vin = c.node("in");
            let out = c.node("out");
            c.vsource(
                "V",
                vin,
                Circuit::GND,
                SourceWave::Sine {
                    offset: 0.0,
                    ampl: 1.0,
                    freq: 100e6,
                    delay: 0.0,
                },
            );
            c.resistor("R", vin, out, 1.0e3);
            c.capacitor("C", out, Circuit::GND, 1.0e-12);
            (c, out)
        };
        let (c, out) = build();
        let dt = 100e-12;
        let be = c
            .transient(&TranOptions::new(40e-9, dt))
            .unwrap()
            .voltage(out);
        let tr = c
            .transient(&TranOptions::new(40e-9, dt).with_integrator(Integrator::Trapezoidal))
            .unwrap()
            .voltage(out);
        // Analytic steady state of RC low-pass driven by sin(wt):
        // vout = A·sin(wt − φ), A = 1/√(1+(wRC)²), φ = atan(wRC).
        let w_ang = 2.0 * std::f64::consts::PI * 100e6;
        let wrc = w_ang * 1.0e3 * 1.0e-12;
        let amp = 1.0 / (1.0 + wrc * wrc).sqrt();
        let phi = wrc.atan();
        let analytic = |t: f64| amp * (w_ang * t - phi).sin();
        // Compare after the transient has died (t > 10 RC = 10 ns).
        let err = |w: &Waveform| {
            w.iter()
                .filter(|&(t, _)| t > 10e-9)
                .map(|(t, v)| (v - analytic(t)).abs())
                .fold(0.0f64, f64::max)
        };
        assert!(
            err(&tr) < err(&be),
            "trap err {} vs BE err {}",
            err(&tr),
            err(&be)
        );
    }

    #[test]
    fn capacitor_blocks_dc_supply_current_decays() {
        let (c, _, v) = rc_circuit();
        let res = c.transient(&TranOptions::new(10e-9, 10e-12)).unwrap();
        let i = res.supply_current(v).unwrap();
        // After many time constants the capacitor is charged; current ~ 0.
        assert!(i.last_value().abs() < 1e-6);
        // Peak current just after the step ≈ V/R = 1 mA.
        assert!(i.max() > 0.8e-3, "peak {}", i.max());
    }

    #[test]
    fn sine_source_propagates() {
        let mut c = Circuit::new();
        let vin = c.node("in");
        c.vsource(
            "V",
            vin,
            Circuit::GND,
            SourceWave::Sine {
                offset: 0.0,
                ampl: 1.0,
                freq: 1e9,
                delay: 0.0,
            },
        );
        c.resistor("R", vin, Circuit::GND, 1e3);
        let res = c.transient(&TranOptions::new(2e-9, 10e-12)).unwrap();
        let w = res.voltage(vin);
        assert!((w.max() - 1.0).abs() < 0.01);
        assert!((w.min() + 1.0).abs() < 0.01);
    }

    #[test]
    fn record_stride_thins_output() {
        let (c, _, _) = rc_circuit();
        let opts = TranOptions::new(4e-9, 10e-12).with_record_stride(4);
        let res = c.transient(&opts).unwrap();
        let full = c.transient(&TranOptions::new(4e-9, 10e-12)).unwrap();
        assert!(res.len() < full.len());
        assert!(!res.is_empty());
    }

    #[test]
    fn record_stride_zero_records_everything() {
        // Regression: record_stride = 0 used to hit a divide-by-zero
        // panic at `step % record_stride`; it is now clamped to 1.
        let (c, _, _) = rc_circuit();
        let mut opts = TranOptions::new(2e-9, 10e-12);
        opts.record_stride = 0;
        let res = c.transient(&opts).unwrap();
        let full = c.transient(&TranOptions::new(2e-9, 10e-12)).unwrap();
        assert_eq!(res.len(), full.len(), "stride 0 behaves like stride 1");
        assert_eq!(
            TranOptions::new(1e-9, 1e-12)
                .with_record_stride(0)
                .record_stride,
            1
        );
    }

    #[test]
    fn internal_time_matches_recorded_grid_exactly() {
        // Regression: repeated `t += h` accumulated rounding against the
        // exact recorded `t_target`; the stepper now snaps to the grid.
        // dt = 0.1 ns / 3 is not exactly representable, so without the
        // snap the final internal time is a few ulps off t_stop.
        let (c, _, _) = rc_circuit();
        let dt = 1e-10 / 3.0;
        let opts = TranOptions::new(4e-9, dt);
        let res = c.transient(&opts).unwrap();
        let last = *res.times().last().unwrap();
        assert_eq!(last, 4e-9, "grid ends exactly at t_stop");
        assert_eq!(
            res.end_time().to_bits(),
            last.to_bits(),
            "internal clock and recorded time agree bitwise"
        );
    }

    #[test]
    fn adaptive_matches_fixed_on_rc_step() {
        let (c, out, v) = rc_circuit();
        let fixed = c.transient(&TranOptions::new(8e-9, 5e-12)).unwrap();
        let adap = c
            .transient(&TranOptions::new(8e-9, 5e-12).adaptive(1e-4, 1e-13, 500e-12))
            .unwrap();
        // Identical recorded grid.
        assert_eq!(fixed.times(), adap.times());
        let (wf, wa) = (fixed.voltage(out), adap.voltage(out));
        let worst = wf
            .iter()
            .zip(wa.iter())
            .map(|((_, a), (_, b))| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(worst < 2e-3, "worst voltage deviation {worst}");
        // Supply current stays interface-compatible too.
        let (ifx, iad) = (
            fixed.supply_current(v).unwrap(),
            adap.supply_current(v).unwrap(),
        );
        assert!((ifx.max() - iad.max()).abs() < 0.05 * ifx.max());
    }

    #[test]
    fn adaptive_takes_fewer_steps_on_quiet_trace() {
        // Step at 1 ns, then 49 ns of settled tail: the controller must
        // open the step up after the edge instead of marching dt.
        let mut c = Circuit::new();
        let vin = c.node("in");
        let out = c.node("out");
        c.vsource("V", vin, Circuit::GND, SourceWave::step(0.0, 1.0, 1e-9));
        c.resistor("R", vin, out, 1.0e3);
        c.capacitor("C", out, Circuit::GND, 1.0e-12);
        let opts = TranOptions::new(50e-9, 10e-12);
        let fixed = c.transient(&opts).unwrap();
        let adap = c.transient(&opts.adaptive(1e-3, 1e-13, 2e-9)).unwrap();
        // Same recorded grid, far fewer NR-bearing internal steps.
        assert_eq!(adap.len(), fixed.len());
        assert_eq!(*adap.times().last().unwrap(), 50e-9);
        assert!(
            adap.steps_taken() * 5 < fixed.steps_taken(),
            "adaptive {} vs fixed {} internal steps",
            adap.steps_taken(),
            fixed.steps_taken()
        );
        // And the settled value still agrees.
        let (vf, va) = (
            fixed.voltage(out).last_value(),
            adap.voltage(out).last_value(),
        );
        assert!((vf - va).abs() < 1e-3, "settled {vf} vs {va}");
    }

    #[test]
    fn adaptive_lands_on_breakpoints_and_matches_tail() {
        let (c, out, _) = rc_circuit();
        let fixed = c.transient(&TranOptions::new(8e-9, 5e-12)).unwrap();
        let adap = c
            .transient(&TranOptions::new(8e-9, 5e-12).adaptive(1e-4, 1e-13, 1e-9))
            .unwrap();
        // Settled values agree within the accumulated LTE budget.
        let (vf, va) = (
            fixed.voltage(out).last_value(),
            adap.voltage(out).last_value(),
        );
        assert!((vf - va).abs() < 1e-3, "settled {vf} vs {va}");
    }

    #[test]
    fn adaptive_trapezoidal_is_supported() {
        let (c, out, _) = rc_circuit();
        let adap = c
            .transient(
                &TranOptions::new(8e-9, 5e-12)
                    .with_integrator(Integrator::Trapezoidal)
                    .adaptive(1e-4, 1e-13, 500e-12),
            )
            .unwrap();
        let w = adap.voltage(out);
        assert!((w.last_value() - 1.0).abs() < 0.01);
    }

    #[test]
    fn adaptive_resistive_only_circuit_is_exact() {
        // No capacitors: LTE is zero, h opens to h_max, yet PWL knots are
        // hit exactly so the divider output is exact at every grid point.
        let mut c = Circuit::new();
        let vin = c.node("in");
        let mid = c.node("mid");
        c.vsource(
            "V",
            vin,
            Circuit::GND,
            SourceWave::Pwl(vec![(0.0, 0.0), (1e-9, 1.0), (2e-9, 0.5)]),
        );
        c.resistor("R1", vin, mid, 1e3);
        c.resistor("R2", mid, Circuit::GND, 1e3);
        let res = c
            .transient(&TranOptions::new(3e-9, 50e-12).adaptive(1e-4, 1e-13, 1e-9))
            .unwrap();
        let w = res.voltage(mid);
        for (t, v) in w.iter() {
            let src = if t <= 1e-9 {
                t / 1e-9
            } else if t <= 2e-9 {
                1.0 - 0.5 * (t - 1e-9) / 1e-9
            } else {
                0.5
            };
            assert!((v - src / 2.0).abs() < 1e-9, "t={t} v={v}");
        }
    }

    #[test]
    #[should_panic(expected = "need 0 < h_min <= h_max")]
    fn adaptive_rejects_inverted_step_bounds() {
        let _ = TranOptions::new(1e-9, 1e-12).adaptive(1e-4, 1e-9, 1e-12);
    }

    #[test]
    fn aligned_with_unit_ceiling_is_bitwise_fixed() {
        // h_max = dt forces k = 1 everywhere: the aligned controller must
        // reproduce the fixed-step reference bitwise, not just closely.
        let (c, out, _) = rc_circuit();
        let base = TranOptions::new(8e-9, 5e-12);
        let fixed = c.transient(&base).unwrap();
        let aligned = c
            .transient(&base.adaptive_grid_aligned(1e-6, 5e-12))
            .unwrap();
        assert_eq!(fixed.times(), aligned.times());
        let (wf, wa) = (fixed.voltage(out), aligned.voltage(out));
        for ((t, a), (_, b)) in wf.iter().zip(wa.iter()) {
            assert_eq!(a.to_bits(), b.to_bits(), "t={t}: {a} vs {b}");
        }
    }

    #[test]
    fn aligned_leaps_quiet_regions_and_stays_close() {
        // Step at 1 ns, long settled tail: the aligned controller must
        // leap multi-cell steps through the quiet regions while keeping
        // the recorded trace within the LTE budget of the fixed one.
        let mut c = Circuit::new();
        let vin = c.node("in");
        let out = c.node("out");
        c.vsource("V", vin, Circuit::GND, SourceWave::step(0.0, 1.0, 1e-9));
        c.resistor("R", vin, out, 1.0e3);
        c.capacitor("C", out, Circuit::GND, 1.0e-12);
        let opts = TranOptions::new(50e-9, 10e-12);
        let fixed = c.transient(&opts).unwrap();
        let aligned = c
            .transient(&opts.adaptive_grid_aligned(1e-5, 1e-9))
            .unwrap();
        assert_eq!(fixed.times(), aligned.times());
        assert!(
            aligned.steps_taken() * 3 < fixed.steps_taken(),
            "aligned {} vs fixed {} internal steps",
            aligned.steps_taken(),
            fixed.steps_taken()
        );
        let (wf, wa) = (fixed.voltage(out), aligned.voltage(out));
        let worst = wf
            .iter()
            .zip(wa.iter())
            .map(|((_, a), (_, b))| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(worst < 1e-4, "worst deviation vs fixed reference {worst}");
    }

    #[test]
    #[should_panic(expected = "need h_max >= dt")]
    fn aligned_rejects_ceiling_below_dt() {
        let _ = TranOptions::new(1e-9, 1e-12).adaptive_grid_aligned(1e-4, 1e-13);
    }

    #[test]
    fn ground_voltage_is_zero() {
        let (c, _, _) = rc_circuit();
        let res = c.transient(&TranOptions::new(2e-9, 20e-12)).unwrap();
        assert_eq!(res.voltage(Circuit::GND).max(), 0.0);
    }

    #[test]
    fn endpoint_reached_when_t_stop_not_multiple_of_dt() {
        // t_stop / dt = 3.33…: the old `round` step count stopped at
        // 0.9 ns, silently dropping the last 0.1 ns of the window.
        let (c, out, _) = rc_circuit();
        let res = c.transient(&TranOptions::new(1e-9, 0.3e-9)).unwrap();
        let times = res.times();
        assert_eq!(*times.last().unwrap(), 1e-9, "ends exactly at t_stop");
        assert!(times.windows(2).all(|w| w[1] > w[0]), "monotonic grid");
        // Every full-dt grid point is still present.
        for (i, expect) in [0.0, 0.3e-9, 0.6e-9, 0.9e-9, 1.0e-9].iter().enumerate() {
            assert!((times[i] - expect).abs() < 1e-18, "grid point {i}");
        }
        // Waveform sampling at t_stop uses a real solution, not an
        // extrapolation.
        assert!(res.voltage(out).sample(1e-9).is_finite());
    }

    #[test]
    fn endpoint_never_overshoots_t_stop() {
        // t_stop / dt = 1.67: `round` used to march to 1.2 ns, past the
        // requested end of the window.
        let (c, _, _) = rc_circuit();
        let res = c.transient(&TranOptions::new(1e-9, 0.6e-9)).unwrap();
        let times = res.times();
        assert_eq!(*times.last().unwrap(), 1e-9);
        assert!(times.iter().all(|&t| t <= 1e-9));
    }

    #[test]
    fn integer_grid_unchanged_by_endpoint_clamp() {
        let (c, _, _) = rc_circuit();
        let res = c.transient(&TranOptions::new(2e-9, 0.5e-9)).unwrap();
        let expect = [0.0, 0.5e-9, 1.0e-9, 1.5e-9, 2e-9];
        assert_eq!(res.len(), expect.len());
        for (t, e) in res.times().iter().zip(expect) {
            assert!((t - e).abs() < 1e-20, "{t} vs {e}");
        }
        assert_eq!(*res.times().last().unwrap(), 2e-9);
    }

    #[test]
    #[should_panic(expected = "need 0 < dt <= t_stop")]
    fn bad_options_panic() {
        let _ = TranOptions::new(1e-9, 0.0);
    }
}
