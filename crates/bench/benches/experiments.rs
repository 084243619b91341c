//! Criterion benchmarks of the reproduction's computational kernels —
//! one group per table/figure pipeline, timing its dominant kernel so
//! `cargo bench` finishes in minutes while still covering every
//! experiment's machinery.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use mcml_aes::{Aes128, ReducedAes};
use mcml_cells::{build_cell, solve_bias, CellKind, CellParams, LogicStyle};
use mcml_char::{characterize_cell, measure_delay};
use mcml_dpa::{cpa_attack, HammingWeight, TraceSet};
use mcml_netlist::{map_network, TechmapOptions};
use mcml_or1k::aes_prog::{run_aes_benchmark, AesBenchParams};
use mcml_sim::{circuit_current, CurrentModel, EventSim, Stimulus};
use mcml_spice::matrix::{SolverKind, SystemMatrix};
use pg_mcml::elaborate::elaborate;
use pg_mcml::experiments::table1;
use pg_mcml::Parallelism;

/// Table 1 pipeline: the layout-area model.
fn bench_table1(c: &mut Criterion) {
    c.bench_function("table1/area_model", |b| b.iter(table1));
}

/// Table 2 pipeline: SPICE characterisation of one PG-MCML cell (delay
/// at FO1 — the dominant kernel behind all 16 rows).
fn bench_table2(c: &mut Criterion) {
    let params = CellParams::default();
    let mut g = c.benchmark_group("table2");
    g.sample_size(10);
    g.bench_function("characterize_buffer_pg", |b| {
        b.iter(|| characterize_cell(CellKind::Buffer, LogicStyle::PgMcml, &params).unwrap());
    });
    g.bench_function("bias_solver", |b| b.iter(|| solve_bias(&params)));
    g.finish();
}

/// Fig. 3 pipeline: one bias-sweep point (FO4 delay at a non-default
/// tail current).
fn bench_fig3(c: &mut Criterion) {
    let params = CellParams::default();
    let mut g = c.benchmark_group("fig3");
    g.sample_size(10);
    g.bench_function("sweep_point_100uA", |b| {
        let p = params.with_iss(100e-6);
        b.iter(|| measure_delay(CellKind::Buffer, LogicStyle::PgMcml, &p, 4).unwrap());
    });
    g.finish();
}

/// Fig. 5 / Table 3 pipeline: event simulation + current templates of
/// the S-box ISE over a clocked window.
fn bench_fig5_table3(c: &mut Criterion) {
    let params = CellParams::default();
    let mut flow = pg_mcml::DesignFlow::new(params);
    let nl = mcml_aes::build_sbox_ise(
        LogicStyle::PgMcml,
        &mcml_aes::sbox_ise::SboxIseOptions::default(),
    );
    flow.library_for(&nl).unwrap();
    let lib = flow.library().clone();
    let mut st = Stimulus::new();
    st.clock("clk", 1.25e-9, 2.5e-9, 4);
    for bit in 0..32 {
        st.at(0.0, &format!("x{bit}"), false);
        if bit % 3 == 0 {
            st.at(5.2e-9, &format!("x{bit}"), true);
        }
    }
    let mut g = c.benchmark_group("fig5_table3");
    g.sample_size(10);
    g.bench_function("ise_event_sim_10ns", |b| {
        b.iter(|| EventSim::new(&nl, &lib).run(&st, 10e-9));
    });
    let trace = EventSim::new(&nl, &lib).run(&st, 10e-9);
    let model = CurrentModel::default();
    g.bench_function("ise_current_template", |b| {
        b.iter(|| circuit_current(&nl, &trace, &lib, None, &model));
    });
    g.bench_function("or1k_aes_block", |b| {
        let bench = AesBenchParams {
            blocks: 1,
            ..AesBenchParams::default()
        };
        b.iter(|| run_aes_benchmark(&bench));
    });
    g.finish();
}

/// Fig. 6 pipeline kernels: S-box netlist synthesis, transistor
/// elaboration + one SPICE trace, and the CPA correlation pass.
fn bench_fig6(c: &mut Criterion) {
    let params = CellParams::default();
    let mut g = c.benchmark_group("fig6");
    g.sample_size(10);

    g.bench_function("map_reduced_aes_8b", |b| {
        let bn = ReducedAes::new(8).network();
        b.iter(|| map_network(&bn, LogicStyle::PgMcml, &TechmapOptions::default()));
    });

    // One transistor-level trace of the 4-bit testbench (the tier-1
    // inner loop).
    g.bench_function("spice_trace_4b_pg", |b| {
        b.iter_batched(
            || (),
            |()| {
                pg_mcml::experiments::fig6_transistor_par(
                    &params,
                    0x5,
                    LogicStyle::PgMcml,
                    &[0x0, 0x9],
                    Parallelism::from_env(),
                )
                .unwrap()
            },
            BatchSize::PerIteration,
        );
    });

    // The CPA correlation kernel at paper scale: 256 guesses × 256
    // traces × 60 samples.
    let mut ts = TraceSet::new(60);
    let mut x = 0x1234_5678u32;
    for p in 0..=255u8 {
        let samples: Vec<f64> = (0..60)
            .map(|_| {
                x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                f64::from(x >> 16) / 65536.0
            })
            .collect();
        ts.push(p, &samples);
    }
    let model = HammingWeight::new(|v| mcml_aes::SBOX[v as usize], 8);
    g.bench_function("cpa_256x256x60", |b| {
        b.iter(|| cpa_attack(&ts, &model));
    });
    g.finish();
}

/// Substrate kernels: sparse vs dense LU, AES software, cell generation,
/// elaboration.
fn bench_substrates(c: &mut Criterion) {
    let mut g = c.benchmark_group("substrates");
    g.sample_size(20);

    g.bench_function("aes128_encrypt_block", |b| {
        let aes = Aes128::new(&[7u8; 16]);
        let block = [0x42u8; 16];
        b.iter(|| aes.encrypt_block(&block));
    });

    g.bench_function("build_pg_dff_cell", |b| {
        let params = CellParams::default();
        b.iter(|| build_cell(CellKind::Dff, LogicStyle::PgMcml, &params));
    });

    g.bench_function("elaborate_reduced_aes_4b", |b| {
        let params = CellParams::default();
        let nl = ReducedAes::new(4).build_netlist(LogicStyle::PgMcml);
        b.iter(|| elaborate(&nl, &params));
    });

    // Random sparse MNA-like system, both solvers.
    let n = 400;
    let build = || {
        let mut m = SystemMatrix::new(n);
        let mut s = 0x9e37_79b9u64;
        let mut rnd = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        for r in 0..n {
            m.add(r, r, 6.0 + rnd());
            for _ in 0..4 {
                let cc = ((rnd().abs() * n as f64) as usize).min(n - 1);
                m.add(r, cc, rnd());
            }
        }
        m
    };
    let b_vec: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
    g.bench_function("sparse_lu_400", |b| {
        b.iter_batched(
            build,
            |mut m| m.solve(&b_vec, SolverKind::Sparse).unwrap(),
            BatchSize::SmallInput,
        );
    });
    g.bench_function("dense_lu_400", |b| {
        b.iter_batched(
            build,
            |mut m| m.solve(&b_vec, SolverKind::Dense).unwrap(),
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_table1,
    bench_table2,
    bench_fig3,
    bench_fig5_table3,
    bench_fig6,
    bench_substrates
);
criterion_main!(benches);
