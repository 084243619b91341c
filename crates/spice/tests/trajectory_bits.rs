//! Bit-level trajectory pins for `transient()`.
//!
//! Each case hashes every bit of the recorded trajectory — the time grid,
//! every node voltage, every voltage-source branch current — plus the
//! accepted step count and the integrator's end time. The expected
//! hashes were recorded with the scalar marches `transient()` had before
//! it became the one-lane case of the lockstep march, so they are the
//! bit-level reference for that march.
//!
//! Covered: a 3-stage RC ladder and a CMOS inverter, under fixed,
//! grid-aligned (with and without Jacobian reuse) and free-adaptive
//! stepping, each under backward Euler and trapezoidal integration.
//!
//! A mismatch prints every case's computed hash, so a deliberate
//! trajectory change can be re-pinned in one pass.

use mcml_device::{MosParams, Mosfet};
use mcml_spice::{Circuit, ElementId, Integrator, NodeId, SourceWave, TranOptions, TranResult};

/// The circuit under test with every non-ground node and every voltage
/// source, so the hash covers the whole recorded state vector.
struct Case {
    ckt: Circuit,
    nodes: Vec<NodeId>,
    sources: Vec<ElementId>,
}

fn rc_ladder() -> Case {
    let mut c = Circuit::new();
    let vin = c.node("in");
    let src = c.vsource("V", vin, Circuit::GND, SourceWave::step(0.0, 1.2, 1e-9));
    let mut nodes = vec![vin];
    let mut prev = vin;
    for (k, (r, cap)) in [(1.0e3, 1.0e-12), (2.2e3, 0.5e-12), (4.7e3, 2.0e-12)]
        .into_iter()
        .enumerate()
    {
        let n = c.node(&format!("n{k}"));
        c.resistor(&format!("R{k}"), prev, n, r);
        c.capacitor(&format!("C{k}"), n, Circuit::GND, cap);
        nodes.push(n);
        prev = n;
    }
    Case {
        ckt: c,
        nodes,
        sources: vec![src],
    }
}

fn inverter() -> Case {
    let mut c = Circuit::new();
    let vdd = c.node("vdd");
    let vin = c.node("in");
    let out = c.node("out");
    let s_vdd = c.vsource("VDD", vdd, Circuit::GND, SourceWave::dc(1.2));
    let s_in = c.vsource("VIN", vin, Circuit::GND, SourceWave::step(0.0, 1.2, 1e-9));
    let w_n = 1.0e-6;
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
    c.capacitor("CL", out, Circuit::GND, 10e-15);
    Case {
        ckt: c,
        nodes: vec![vdd, vin, out],
        sources: vec![s_vdd, s_in],
    }
}

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

fn trajectory_hash(case: &Case, res: &TranResult) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.word(res.steps_taken() as u64);
    h.word(res.end_time().to_bits());
    for &t in res.times() {
        h.word(t.to_bits());
    }
    let waves = case
        .nodes
        .iter()
        .map(|&n| res.voltage(n))
        .chain(case.sources.iter().map(|&s| {
            res.branch_current(s)
                .expect("voltage source has a branch current")
        }));
    for w in waves {
        for (_, v) in w.iter() {
            h.word(v.to_bits());
        }
    }
    h.0
}

/// The stepping policies, named for the failure report.
fn policies(base: TranOptions) -> [(&'static str, TranOptions); 4] {
    [
        ("fixed", base),
        ("aligned", base.adaptive_grid_aligned(1e-4, 1e-9)),
        (
            "aligned+reuse",
            base.adaptive_grid_aligned(1e-4, 1e-9).with_jacobian_reuse(),
        ),
        ("free", base.adaptive(1e-4, 1e-13, 1e-9)),
    ]
}

/// Run every policy × integrator on `case` and compare against
/// `expected`, in the order (BE policies…, trapezoidal policies…).
fn check(name: &str, case: &Case, base: TranOptions, expected: &[u64; 8]) {
    let mut got = Vec::new();
    let mut labels = Vec::new();
    for integ in [Integrator::BackwardEuler, Integrator::Trapezoidal] {
        for (policy, opts) in policies(base.with_integrator(integ)) {
            let res = case.ckt.transient(&opts).expect("transient converges");
            got.push(trajectory_hash(case, &res));
            labels.push(format!("{name} {policy} {integ:?}"));
        }
    }
    let report: String = labels
        .iter()
        .zip(&got)
        .zip(expected)
        .map(|((l, g), e)| {
            let flag = if g == e { "" } else { "  <-- differs" };
            format!("  {l}: 0x{g:016x}{flag}\n")
        })
        .collect();
    assert_eq!(
        got.as_slice(),
        expected.as_slice(),
        "trajectory bits moved:\n{report}"
    );
}

#[test]
fn rc_ladder_trajectory_bits_are_pinned() {
    check(
        "rc_ladder",
        &rc_ladder(),
        TranOptions::new(10e-9, 10e-12),
        &[
            0x3dfd_bbd0_ea99_fc45,
            0xa61f_6cd0_2bbb_a096,
            0xa61f_6cd0_2bbb_a096,
            0x7a98_909f_e9b6_3deb,
            0xfce6_d455_cc43_5e8b,
            0x4e44_de2b_6fa2_9a5b,
            0x4e44_de2b_6fa2_9a5b,
            0x8e2a_9dd5_c274_7305,
        ],
    );
}

#[test]
fn inverter_trajectory_bits_are_pinned() {
    check(
        "inverter",
        &inverter(),
        TranOptions::new(4e-9, 5e-12),
        &[
            0x1572_04a1_0154_a8f4,
            0x953d_f2f4_4030_5d22,
            0x953d_f2f4_4030_5d22,
            0x2f2b_731e_e93e_fd02,
            0xdfc6_1d6c_855a_30ee,
            0xd2de_d6db_348e_b0cd,
            0xd2de_d6db_348e_b0cd,
            0xcd8f_bc3d_b21d_ebd4,
        ],
    );
}
