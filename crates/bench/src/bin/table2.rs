//! Regenerate **Table 2**: area and delay characteristics of the 16-cell
//! PG-MCML library (delays measured by SPICE characterisation of the
//! generated cells).

use mcml_cells::CellParams;
use pg_mcml::experiments::table2;
use pg_mcml::{DesignFlow, Parallelism};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Parallel per MCML_THREADS (default: all cores); the rows do not
    // depend on the worker count (`tests/obs_report.rs` checks serial ≡
    // four threads). The observability counters and the report's wall
    // clock start here (MCML_OBS=json:report.json to capture them).
    mcml_obs::reset();
    let par = Parallelism::from_env();
    let mut flow = DesignFlow::new(CellParams::default()).with_parallelism(par);
    println!("Table 2 — PG-MCML library characteristics (characterising 16 cells)\n");
    // Paper columns for comparison.
    let paper: &[(&str, f64, Option<f64>)] = &[
        ("Buffer", 23.97, Some(2.4)),
        ("Diff2Single", 80.41, None),
        ("AND2", 41.34, Some(1.9)),
        ("AND3", 68.74, Some(2.1)),
        ("AND4", 99.96, Some(2.8)),
        ("MUX2", 43.58, Some(1.2)),
        ("MUX4", 87.11, Some(1.2)),
        ("MAJ32", 82.32, None),
        ("XOR2", 44.26, Some(1.1)),
        ("XOR3", 84.37, Some(1.1)),
        ("XOR4", 109.68, Some(1.1)),
        ("D-Latch", 36.32, Some(1.3)),
        ("DFF", 53.4, Some(1.3)),
        ("DFFR", 69.33, Some(1.8)),
        ("EDFF", 63.53, None),
        ("FA", 84.49, Some(1.4)),
    ];
    println!(
        "{:<12} {:>10} {:>12} {:>14} {:>12} {:>12}",
        "Cell", "Area[µm²]", "Delay[ps]", "paper[ps]", "PG/CMOS", "paper ratio"
    );
    let rows = table2(&mut flow)?;
    let mut ratios = Vec::new();
    for (row, (pname, pdelay, pratio)) in rows.iter().zip(paper) {
        assert_eq!(&row.cell, pname);
        if let Some(r) = row.cmos_ratio {
            ratios.push(r);
        }
        println!(
            "{:<12} {:>10.3} {:>12.2} {:>14.2} {:>12} {:>12}",
            row.cell,
            row.area_um2,
            row.delay_ps,
            pdelay,
            row.cmos_ratio.map_or("-".into(), |r| format!("{r:.1}")),
            pratio.map_or("-".into(), |r| format!("{r:.1}")),
        );
    }
    let avg = ratios.iter().sum::<f64>() / ratios.len() as f64;
    println!("\naverage PG-MCML/CMOS area ratio: {avg:.2} (paper: 1.6)");
    mcml_obs::finish("table2", par.worker_count());
    Ok(())
}
