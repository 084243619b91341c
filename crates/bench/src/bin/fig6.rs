//! Regenerate **Fig. 6**: correlation power attacks against the reduced
//! AES in all three styles — template tier (8-bit, 256 traces) and
//! transistor tier (4-bit, full SPICE, acquired as ensemble blocks).
//!
//! Exits non-zero unless both tiers reproduce the paper's verdict: the
//! key is recovered from CMOS and from neither MCML style.

use mcml_cells::{CellParams, LogicStyle};
use pg_mcml::experiments::{fig6_template, fig6_transistor_ensemble, Fig6Row};
use pg_mcml::{DesignFlow, Parallelism};

/// Block width of the transistor tier's ensemble acquisition. A
/// constant, never the worker count: ensemble lanes share step
/// decisions, so the block composition is part of what gets computed,
/// and the printed numbers must not depend on `MCML_THREADS`.
const LANES: usize = 8;

/// The attack succeeded: the correct key ranks first, clearly apart
/// from the best wrong guess.
fn key_recovered(row: &Fig6Row) -> bool {
    row.rank == 0 && row.margin > 1.1
}

fn verdict_label(row: &Fig6Row) -> &'static str {
    if key_recovered(row) {
        "KEY RECOVERED"
    } else {
        "secure (key indistinguishable)"
    }
}

/// The paper's claim on one tier: CPA breaks CMOS only.
fn check_tier(tier: &str, rows: &[Fig6Row]) -> Result<(), String> {
    for row in rows {
        if key_recovered(row) != (row.style == LogicStyle::Cmos) {
            return Err(format!(
                "{tier} tier: {} is `{}`, the paper expects the opposite: {row:?}",
                row.style,
                verdict_label(row)
            ));
        }
    }
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let params = CellParams::default();
    let styles = [LogicStyle::Cmos, LogicStyle::Mcml, LogicStyle::PgMcml];
    let key8 = 0x3b;
    let key4 = 0xb;
    let plaintexts: Vec<u8> = (0..16).collect();
    let par = Parallelism::from_env();
    mcml_obs::reset();
    let mut flow = DesignFlow::new(params.clone()).with_parallelism(par);

    println!("Fig. 6 — CPA with the Hamming weight of the S-box output\n");
    println!("== tier 2: 8-bit reduced AES, current templates, 256 plaintexts ==");
    let template: Vec<Fig6Row> = fig6_template(&mut flow, key8, 0.01, 0xFEED, &styles)?
        .into_iter()
        .map(|(row, _)| row)
        .collect();
    println!(
        "{:<10} {:>6} {:>9} {:>10} {:>12}  verdict",
        "style", "rank", "margin", "corr(key)", "corr(wrong)"
    );
    for row in &template {
        println!(
            "{:<10} {:>6} {:>9.3} {:>10.4} {:>12.4}  {}",
            row.style.to_string(),
            row.rank,
            row.margin,
            row.peak_correct,
            row.best_wrong,
            verdict_label(row)
        );
    }

    println!(
        "\n== tier 1: 4-bit reduced AES, transistor-level SPICE, all 16 plaintexts \
         ({LANES}-lane ensemble blocks) =="
    );
    let mut transistor = Vec::new();
    for style in styles {
        let (row, _) = fig6_transistor_ensemble(&params, key4, style, &plaintexts, LANES, par)?;
        println!(
            "{:<10} rank {:>2}  margin {:>6.3}  corr(key) {:.4}  {}",
            style.to_string(),
            row.rank,
            row.margin,
            row.peak_correct,
            verdict_label(&row)
        );
        transistor.push(row);
    }
    check_tier("template", &template)?;
    check_tier("transistor", &transistor)?;
    println!("\npaper: attacks succeed on CMOS only; MCML and PG-MCML resist — reproduced.");

    // Measurements-to-disclosure: how many traces CPA needs before the
    // key ranks stably first. Expect a small number for CMOS and `None`
    // (never) for the MCML styles.
    println!("\n== measurements-to-disclosure (template tier) ==");
    let ladder = [8, 16, 32, 64, 128, 192, 256];
    for style in styles {
        let mtd = pg_mcml::experiments::fig6_mtd(&mut flow, style, key8, 0.01, 0xFEED, &ladder)?;
        println!(
            "{:<10} MTD = {}",
            style.to_string(),
            mtd.map_or("never (secure)".to_owned(), |n| format!("{n} traces"))
        );
    }
    mcml_obs::finish("fig6", par.worker_count());
    Ok(())
}
