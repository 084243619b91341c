//! Streaming CPA campaign driver — the acceptance experiment of the
//! batched ensemble engine: an N-trace noisy campaign against the
//! fig. 6 transistor tier whose memory stays `O(lanes × state +
//! guesses × samples)` whether N is 10³ or 10⁵.
//!
//! Usage: `cargo run --release -p mcml-bench --bin campaign --
//! [--traces <n>] [--noise <rel>] [--seed <u64>] [--lanes <n>]
//! [--style cmos|pg-mcml] [--key <hex>] [--check-serial]`
//!
//! The 16 distinct base waveforms are simulated once (one 16-lane
//! ensemble block by default), then N noisy acquisitions stream into
//! the online CPA accumulator in index order — reruns with the same
//! arguments are bit-identical. `--check-serial` re-runs the campaign
//! with scalar (lane-per-transient) acquisition and verifies the two
//! verdicts agree, which is the cheap end-to-end proof that the lane
//! count is a pure performance knob.

use mcml_cells::{CellParams, LogicStyle};
use pg_mcml::experiments::cpa_campaign;
use pg_mcml::Parallelism;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut traces: usize = 1_000;
    let mut noise: f64 = 0.05;
    let mut seed: u64 = 7;
    let mut lanes: usize = 16;
    let mut style = LogicStyle::PgMcml;
    let mut key: u8 = 0xb;
    let mut check_serial = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = || args.next().ok_or(format!("`{a}` needs a value"));
        match a.as_str() {
            "--traces" => traces = val()?.parse().map_err(|e| format!("--traces: {e}"))?,
            "--noise" => noise = val()?.parse().map_err(|e| format!("--noise: {e}"))?,
            "--seed" => seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--lanes" => lanes = val()?.parse().map_err(|e| format!("--lanes: {e}"))?,
            "--key" => {
                key = u8::from_str_radix(val()?.trim_start_matches("0x"), 16)
                    .map_err(|e| format!("--key: {e}"))?
                    & 0x0f;
            }
            "--style" => {
                style = match val()?.as_str() {
                    "cmos" => LogicStyle::Cmos,
                    "pg-mcml" => LogicStyle::PgMcml,
                    other => return Err(format!("unknown style `{other}`").into()),
                };
            }
            "--check-serial" => check_serial = true,
            other => return Err(format!("unknown argument `{other}`").into()),
        }
    }

    let params = CellParams::default();
    println!(
        "campaign — {traces} traces, {style:?}, key {key:#x}, noise {noise}, seed {seed}, \
         {lanes} lanes"
    );
    // Counters and the report's wall clock start with the timed pass.
    mcml_obs::reset();
    let t0 = std::time::Instant::now();
    let out = cpa_campaign(
        &params,
        key,
        style,
        traces,
        noise,
        seed,
        lanes,
        Parallelism::from_env(),
    )?;
    let wall = t0.elapsed().as_secs_f64();
    let v = &out.verdict;
    println!(
        "verdict: rank {} margin {:.4} peak_correct {:.4} best_wrong {:.4}  ({:.2} s, \
         {:.1} µs/trace after base acquisition)",
        v.rank,
        v.margin,
        v.peak_correct,
        v.best_wrong,
        wall,
        1e6 * wall / traces as f64
    );

    if check_serial {
        let serial = cpa_campaign(
            &params,
            key,
            style,
            traces,
            noise,
            seed,
            1,
            Parallelism::from_env(),
        )?;
        let s = &serial.verdict;
        println!(
            "serial:  rank {} margin {:.4} peak_correct {:.4} best_wrong {:.4}",
            s.rank, s.margin, s.peak_correct, s.best_wrong
        );
        if s.rank != v.rank {
            return Err(format!(
                "ensemble and serial campaigns disagree: rank {} vs {}",
                v.rank, s.rank
            )
            .into());
        }
        println!("OK: ensemble and serial acquisition reach the same verdict");
    }

    mcml_obs::finish("campaign", 1);
    Ok(())
}
