//! Golden-waveform regression for the fig. 6 transistor tier.
//!
//! Pins one plaintext's supply-current trace (PG-MCML, key 0xb,
//! plaintext 0x3) against samples captured from the reference solver
//! path. Solver-level changes — assembly reordering, factorisation
//! strategy, step-size handling — may shift samples only within the
//! tolerances below; anything larger is a physics change, not an
//! optimisation.

use mcml_cells::{CellParams, LogicStyle};
use mcml_spice::TranOptions;
use pg_mcml::experiments::{
    fig6_base_waveforms, fig6_supply_trace_with, fig6_tran_options, fig6_transistor_par,
};
use pg_mcml::Parallelism;

/// Captured from the reference implementation (legacy full-restamp
/// assembly + per-iteration factorisation): every 6th of the 60 samples
/// of the resampled Vdd current (A).
const GOLDEN_STRIDE: usize = 6;
const GOLDEN_SAMPLES: [f64; 10] = [
    1.997807770513804e-3,
    1.9912301692238733e-3,
    2.000289957344394e-3,
    1.998945213251309e-3,
    1.9985504824845796e-3,
    1.998425244737777e-3,
    1.9983534146545173e-3,
    1.9982955312894423e-3,
    1.998244929338689e-3,
    1.9982008252221618e-3,
];

/// Relative tolerance on each pinned sample (0.01 %, comfortably above
/// the Newton tolerances `vtol`/`itol` that bound legitimate solver
/// noise, and far below the paper's 1 µA acquisition resolution on the
/// ~2 mA tail current), plus an absolute floor at `itol`.
const REL_TOL: f64 = 1e-4;
const ABS_TOL: f64 = 1e-9;

#[test]
fn fig6_pg_mcml_trace_matches_golden() {
    let trace = fig6_supply_trace_with(
        &CellParams::default(),
        0xb,
        LogicStyle::PgMcml,
        0x3,
        &fig6_tran_options(),
    )
    .expect("transistor-tier trace");
    assert_eq!(trace.len(), 60, "capture window sampling");
    let picked: Vec<f64> = trace.iter().copied().step_by(GOLDEN_STRIDE).collect();
    assert_eq!(picked.len(), GOLDEN_SAMPLES.len());
    for (i, (got, want)) in picked.iter().zip(GOLDEN_SAMPLES).enumerate() {
        let tol = ABS_TOL + REL_TOL * want.abs();
        assert!(
            (got - want).abs() <= tol,
            "sample {}: got {got:e}, golden {want:e} (tol {tol:e})",
            i * GOLDEN_STRIDE
        );
    }
}

/// The fig. 6 tier runs with grid-aligned adaptive stepping
/// (`fig6_tran_options`); this proves the policy drifts no more than
/// 0.01 % from the fixed-step reference at *every* one of the 60
/// samples — not just the ten pinned above — so the golden values did
/// not need re-pinning when adaptive stepping was enabled.
/// The quiescent-device bypass (enabled at 10 µV in
/// `fig6_tran_options`) must be an *optimisation*, not a physics
/// change: re-running the tier with the bypass disabled has to land
/// within the pin tolerance at every sample, and the enabled run has
/// to actually skip model evaluations (otherwise the knob is dead and
/// this test is vacuous).
#[test]
fn fig6_bypass_drift_vs_exact_below_pin_tolerance() {
    use mcml_obs::Counter;
    let params = CellParams::default();
    let exact = fig6_supply_trace_with(
        &params,
        0xb,
        LogicStyle::PgMcml,
        0x3,
        &fig6_tran_options().with_bypass(0.0),
    )
    .expect("bypass-off trace");
    let bypassed_before = mcml_obs::total(Counter::MosBypassed);
    let bypassing =
        fig6_supply_trace_with(&params, 0xb, LogicStyle::PgMcml, 0x3, &fig6_tran_options())
            .expect("bypass-on trace");
    let skipped = mcml_obs::total(Counter::MosBypassed) - bypassed_before;
    if std::env::var("MCML_SPICE_BYPASS").is_err() {
        assert!(skipped > 0, "bypass enabled but no evaluations skipped");
    }
    assert_eq!(exact.len(), bypassing.len());
    let mut worst = 0.0f64;
    for (e, b) in exact.iter().zip(&bypassing) {
        worst = worst.max((b - e).abs() / e.abs().max(ABS_TOL));
    }
    assert!(worst <= REL_TOL, "worst bypass-vs-exact drift {worst:e}");
}

/// The batched acquisition path must be an *optimisation*, not a physics
/// change: a full 16-lane ensemble (every plaintext nibble in one
/// lockstep march over a shared stamp plan and symbolic LU) has to land
/// the golden plaintext's supply pins inside the same tolerance as the
/// scalar path, and every lane has to stay within the acquisition-
/// resolution band of the fixed-step physics anchor for its plaintext.
/// Lanes beyond lane 0 adopt lane 0's factors and share the ensemble's
/// step decisions, so they are *not* bitwise copies of the scalar run —
/// the tolerance band is the contract.
#[test]
fn fig6_sixteen_lane_ensemble_matches_scalar_goldens() {
    // Per-lane drift bound against the fixed-step anchor. Drift
    // concentrates on the one or two samples riding the clock-edge
    // transient, where the adaptive policy's grid interpolates the fast
    // edge differently per plaintext: measured worst is 1.9 µA (lane
    // 0x1, a sample where the ensemble matches its scalar adaptive run
    // to 1 nA — the drift is the shared adaptive policy's, not the
    // ensemble's; everywhere else it is ≤ 0.9 µA, *below* the scalar
    // adaptive path's own edge error). Bound at 2.5× the paper's 1 µA
    // acquisition resolution on the ~2 mA tail, plus the pin's relative
    // tolerance.
    const EDGE_ABS_TOL: f64 = 2.5e-6;

    let params = CellParams::default();
    let rows = fig6_base_waveforms(&params, 0xb, LogicStyle::PgMcml, 16, Parallelism::Serial)
        .expect("16-lane ensemble acquisition");
    assert_eq!(rows.len(), 16, "one lane per plaintext nibble");

    // Lane 0x3 against the committed golden samples.
    let picked: Vec<f64> = rows[0x3].iter().copied().step_by(GOLDEN_STRIDE).collect();
    for (i, (got, want)) in picked.iter().zip(GOLDEN_SAMPLES).enumerate() {
        let tol = ABS_TOL + REL_TOL * want.abs();
        assert!(
            (got - want).abs() <= tol,
            "ensemble lane 0x3 sample {}: got {got:e}, golden {want:e} (tol {tol:e})",
            i * GOLDEN_STRIDE
        );
    }

    // Every lane against the fixed-step physics anchor for its own
    // plaintext (bound rationale at EDGE_ABS_TOL above).
    for (p, row) in rows.iter().enumerate() {
        let anchor = fig6_supply_trace_with(
            &params,
            0xb,
            LogicStyle::PgMcml,
            p as u8,
            &TranOptions::new(3.6e-9, 10e-12),
        )
        .expect("fixed-step reference trace");
        for (j, (e, f)) in row.iter().zip(&anchor).enumerate() {
            let tol = EDGE_ABS_TOL + REL_TOL * f.abs();
            assert!(
                (e - f).abs() <= tol,
                "lane {p:#x} sample {j}: ensemble {e:e} vs fixed-step {f:e} (tol {tol:e})"
            );
        }
    }
}

#[test]
fn fig6_adaptive_drift_vs_fixed_below_pin_tolerance() {
    let params = CellParams::default();
    let fixed = fig6_supply_trace_with(
        &params,
        0xb,
        LogicStyle::PgMcml,
        0x3,
        &TranOptions::new(3.6e-9, 10e-12),
    )
    .expect("fixed-step trace");
    let adaptive =
        fig6_supply_trace_with(&params, 0xb, LogicStyle::PgMcml, 0x3, &fig6_tran_options())
            .expect("adaptive trace");
    assert_eq!(fixed.len(), adaptive.len());
    let mut worst = 0.0f64;
    for (f, a) in fixed.iter().zip(&adaptive) {
        worst = worst.max((a - f).abs() / f.abs().max(ABS_TOL));
    }
    assert!(worst <= REL_TOL, "worst adaptive-vs-fixed drift {worst:e}");
}

/// FNV-1a over 64-bit words, for the bit-level pins below.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn samples(&mut self, values: &[f64]) {
        self.word(values.len() as u64);
        for v in values {
            self.word(v.to_bits());
        }
    }
}

/// Bit-level pins of the fig. 6 acquisition path: every sample bit of
/// the 16 PG-MCML base waveforms, acquired lane by lane and as one
/// 16-lane ensemble block, and every correlation-peak bit of the scalar
/// CMOS attack over six plaintexts. The tolerance pins above bound the
/// physics; these catch any change to what the acquisition computes,
/// however small.
///
/// A mismatch prints every computed hash, so a deliberate change can be
/// re-pinned in one pass.
#[test]
fn fig6_acquisition_bits_are_pinned() {
    let params = CellParams::default();
    let mut got = Vec::new();
    for lanes in [1, 16] {
        let rows =
            fig6_base_waveforms(&params, 0xb, LogicStyle::PgMcml, lanes, Parallelism::Serial)
                .expect("base waveforms");
        let mut h = Fnv::new();
        h.word(rows.len() as u64);
        for row in &rows {
            h.samples(row);
        }
        got.push((format!("PG-MCML base waveforms, {lanes} lane(s)"), h.0));
    }
    let plaintexts: Vec<u8> = (0..6).collect();
    let (_, r) = fig6_transistor_par(
        &params,
        0xb,
        LogicStyle::Cmos,
        &plaintexts,
        Parallelism::Serial,
    )
    .expect("CMOS transistor tier");
    let mut h = Fnv::new();
    h.samples(&r.peak);
    got.push(("CMOS CPA peaks, 6 plaintexts".to_owned(), h.0));

    let expected: [u64; 3] = [
        0x3c0e_5eb6_750c_c037,
        0x5918_3831_fae9_f516,
        0xcd83_7ee6_b2ca_e6ce,
    ];
    let report: String = got
        .iter()
        .zip(expected)
        .map(|((label, g), e)| {
            let flag = if *g == e { "" } else { "  <-- differs" };
            format!("  {label}: 0x{g:016x}{flag}\n")
        })
        .collect();
    let hashes: Vec<u64> = got.iter().map(|&(_, g)| g).collect();
    assert_eq!(hashes, expected, "fig. 6 acquisition bits moved:\n{report}");
}
