//! Property-based degeneracy of the lockstep transient march.
//!
//! `transient()` and `ensemble_transient()` run one march;
//! `transient()` is its one-lane case. Two things still differ between
//! the entry points: ensemble lanes switch on exact factor reuse
//! (`reuse_unchanged_jacobian` — an assembly that evaluated no MOS
//! device under an unchanged step reuses the factors instead of
//! refactoring), and every ensemble step decision is a fold over lanes.
//! The one-lane properties check that neither changes the result bits —
//! same recorded grid, node voltages, branch currents and step count —
//! over random RC ladders and MOS inverter stages, for every stepping
//! policy (fixed, free adaptive, grid-aligned adaptive, grid-aligned
//! with demand-driven Jacobian refactorisation) and both integrators.
//! They do not compare two separate marches; the bit-level reference
//! for the march itself is `trajectory_bits.rs`. A multi-lane companion
//! property pins the other degeneracy: lanes of *identical* circuits
//! march through identical states, so every lane reproduces the
//! single-lane waveform to solver precision.

use proptest::prelude::*;

use mcml_device::{MosParams, Mosfet};
use mcml_spice::{ensemble_transient, Circuit, Integrator, SourceWave, TranOptions};

/// The four stepping/solver policies under test, built over a common
/// base. The last one layers the demand-driven refactorisation (chord)
/// policy on the grid-aligned controller — the exact combination the
/// ensemble campaign runs — and is covered by the same bitwise N=1
/// contract: the policy lives inside the shared Newton loop, so both
/// entry points take identical decisions given identical options.
fn policy(base: &TranOptions, which: u8) -> TranOptions {
    match which % 4 {
        0 => *base,
        1 => base.adaptive(1e-4, 1e-13, 1e-9),
        2 => base.adaptive_grid_aligned(1e-4, 1e-9),
        _ => base.adaptive_grid_aligned(1e-4, 1e-9).with_jacobian_reuse(),
    }
}

/// Driven RC ladder: `stages` sections of series R and shunt C.
fn rc_ladder(
    stages: usize,
    rs: &[f64],
    cs: &[f64],
    wave: &SourceWave,
) -> (Circuit, Vec<mcml_spice::NodeId>, mcml_spice::ElementId) {
    let mut c = Circuit::new();
    let vin = c.node("in");
    let src = c.vsource("V", vin, Circuit::GND, wave.clone());
    let mut prev = vin;
    let mut taps = Vec::new();
    for k in 0..stages {
        let n = c.node(&format!("n{k}"));
        c.resistor(&format!("R{k}"), prev, n, rs[k]);
        c.capacitor(&format!("C{k}"), n, Circuit::GND, cs[k]);
        taps.push(n);
        prev = n;
    }
    (c, taps, src)
}

/// CMOS inverter driving a load capacitor.
fn inverter(
    w_n: f64,
    c_load: f64,
    edge_at: f64,
) -> (Circuit, Vec<mcml_spice::NodeId>, mcml_spice::ElementId) {
    let mut c = Circuit::new();
    let vdd = c.node("vdd");
    let vin = c.node("in");
    let out = c.node("out");
    let src = c.vsource("VDD", vdd, Circuit::GND, SourceWave::dc(1.2));
    c.vsource(
        "VIN",
        vin,
        Circuit::GND,
        SourceWave::step(0.0, 1.2, edge_at),
    );
    c.mosfet(
        "MP",
        out,
        vin,
        vdd,
        vdd,
        Mosfet::pmos(MosParams::pmos_lvt_90(), 2.0 * w_n, 0.1e-6),
    );
    c.mosfet(
        "MN",
        out,
        vin,
        Circuit::GND,
        Circuit::GND,
        Mosfet::nmos(MosParams::nmos_lvt_90(), w_n, 0.1e-6),
    );
    c.capacitor("CL", out, Circuit::GND, c_load);
    (c, vec![out], src)
}

/// Bitwise equality of the scalar result and one ensemble lane: grid,
/// every tapped node voltage, the source branch current, and the step
/// count.
fn assert_lane_bitwise(
    scalar: &mcml_spice::TranResult,
    lane: &mcml_spice::TranResult,
    taps: &[mcml_spice::NodeId],
    src: mcml_spice::ElementId,
) -> Result<(), String> {
    prop_assert_eq!(scalar.times(), lane.times(), "recorded grid differs");
    prop_assert_eq!(
        scalar.steps_taken(),
        lane.steps_taken(),
        "step count differs"
    );
    for &tap in taps {
        let (ws, wl) = (scalar.voltage(tap), lane.voltage(tap));
        for (i, ((_, s), (_, l))) in ws.iter().zip(wl.iter()).enumerate() {
            prop_assert!(
                s.to_bits() == l.to_bits(),
                "voltage sample {i} differs: scalar {s:e} vs lane {l:e}"
            );
        }
    }
    let (is_, il) = (
        scalar.branch_current(src).expect("scalar source current"),
        lane.branch_current(src).expect("lane source current"),
    );
    for (i, ((_, s), (_, l))) in is_.iter().zip(il.iter()).enumerate() {
        prop_assert!(
            s.to_bits() == l.to_bits(),
            "branch sample {i} differs: scalar {s:e} vs lane {l:e}"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// N=1 ensemble ≡ scalar, bitwise, on random RC ladders under all
    /// four stepping/solver policies and both integrators.
    #[test]
    fn one_lane_ensemble_is_bitwise_scalar_on_rc_ladders(
        stages in 1usize..4,
        rs in collection::vec(0.5e3f64..20e3, 4),
        cs in collection::vec(0.2e-12f64..2e-12, 4),
        edge_at in 0.5e-9f64..2e-9,
        v_hi in 0.5f64..1.5,
        which_policy in 0u8..4,
        trapezoidal in any::<bool>(),
    ) {
        let wave = SourceWave::step(0.0, v_hi, edge_at);
        let (c, taps, src) = rc_ladder(stages, &rs, &cs, &wave);
        let integ = if trapezoidal { Integrator::Trapezoidal } else { Integrator::BackwardEuler };
        let opts = policy(&TranOptions::new(10e-9, 10e-12).with_integrator(integ), which_policy);
        let scalar = c.transient(&opts).unwrap();
        let lanes = ensemble_transient(std::slice::from_ref(&c), &opts).unwrap();
        prop_assert_eq!(lanes.len(), 1);
        assert_lane_bitwise(&scalar, &lanes[0], &taps, src)?;
    }

    /// N=1 ensemble ≡ scalar, bitwise, on a MOS inverter under all
    /// four stepping/solver policies.
    #[test]
    fn one_lane_ensemble_is_bitwise_scalar_on_mos_inverter(
        w_n in 0.5e-6f64..4e-6,
        c_load in 2e-15f64..50e-15,
        edge_at in 0.5e-9f64..1.5e-9,
        which_policy in 0u8..4,
    ) {
        let (c, taps, src) = inverter(w_n, c_load, edge_at);
        let opts = policy(&TranOptions::new(4e-9, 5e-12), which_policy);
        let scalar = c.transient(&opts).unwrap();
        let lanes = ensemble_transient(std::slice::from_ref(&c), &opts).unwrap();
        prop_assert_eq!(lanes.len(), 1);
        assert_lane_bitwise(&scalar, &lanes[0], &taps, src)?;
    }

    /// Lanes of *identical* circuits march through identical states:
    /// every lane of a k-wide ensemble reproduces the scalar waveform
    /// to solver precision (the shared step decisions are degenerate —
    /// all lanes demand the same step).
    #[test]
    fn identical_lanes_reproduce_scalar(
        n_lanes in 2usize..5,
        rs in collection::vec(0.5e3f64..20e3, 4),
        cs in collection::vec(0.2e-12f64..2e-12, 4),
        edge_at in 0.5e-9f64..2e-9,
        v_hi in 0.5f64..1.5,
        which_policy in 0u8..4,
    ) {
        let wave = SourceWave::step(0.0, v_hi, edge_at);
        let (c, taps, _) = rc_ladder(3, &rs, &cs, &wave);
        let opts = policy(&TranOptions::new(10e-9, 10e-12), which_policy);
        let scalar = c.transient(&opts).unwrap();
        let ckts: Vec<Circuit> = (0..n_lanes).map(|_| c.clone()).collect();
        let lanes = ensemble_transient(&ckts, &opts).unwrap();
        prop_assert_eq!(lanes.len(), n_lanes);
        for (l, lane) in lanes.iter().enumerate() {
            prop_assert_eq!(scalar.times(), lane.times(), "lane {} grid", l);
            for &tap in &taps {
                let (ws, wl) = (scalar.voltage(tap), lane.voltage(tap));
                for ((_, s), (_, v)) in ws.iter().zip(wl.iter()) {
                    // Lanes beyond 0 run through factors adopted from
                    // lane 0 (same pivot order, identical values here),
                    // so agreement is exact in practice — but the
                    // contract is solver precision, not bit equality.
                    prop_assert!(
                        (s - v).abs() <= 1e-9,
                        "lane {} deviates: {:e} vs {:e}", l, s, v
                    );
                }
            }
        }
    }
}
