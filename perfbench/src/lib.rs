//! End-to-end benchmark of the PG-MCML reproduction.
//!
//! One run executes one [`Workload`] for a fixed time and prints every
//! metric by name with its unit; the last line of standard output is a
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` observability is off and the metrics are the end-to-end
//! ones; with `--trace 1` the run alternates untraced and traced passes
//! and reports the per-layer split. `METHOD.md` explains the workloads,
//! the metrics and how to read a traced run.

pub mod checks;
pub mod metrics;
pub mod trace;
pub mod workload;

use std::time::Instant;

pub use metrics::Outcome;
pub use workload::{PassOut, Workload};

use trace::{ObsDelta, SpanRec, Tracer};

/// Most workers a run uses, however many cores the host has: runs on
/// larger hosts stay comparable with runs on the 2-core reference host.
pub const MAX_WORKERS: usize = 2;

/// Set-ups are repeated until at least this many have run and
/// [`MIN_SETUP_S`] has passed; `setup_s` is their median.
const MIN_SETUPS: usize = 15;
/// Least wall time spent in repeated set-ups (s).
const MIN_SETUP_S: f64 = 1.0;

/// Command-line arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Seconds of timed passes.
    pub seconds: u64,
    /// Traced (per-layer) run.
    pub trace: bool,
    /// Print `reference.tsv` rows for the seed's variant instead.
    pub record: bool,
}

/// Usage line.
pub const USAGE: &str = "usage: perfbench --workload <libchar|sizing|attack> --seed <n> \
                         (--seconds <n> --trace <0|1> | --record)";

impl Args {
    /// Parse `--workload`, `--seed`, `--seconds` and `--trace`, or
    /// `--workload`, `--seed` and `--record`.
    ///
    /// # Errors
    ///
    /// A message naming the missing or malformed argument.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace, mut record) =
            (None, None, None, None, false);
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            if a == "--record" {
                record = true;
                continue;
            }
            let v = it.next().ok_or_else(|| format!("`{a}` needs a value"))?;
            let num = |v: &str| v.parse::<u64>().map_err(|e| format!("{a} {v}: {e}"));
            match a.as_str() {
                "--workload" => {
                    workload = Some(Workload::parse(&v).ok_or(format!("unknown workload `{v}`"))?);
                }
                "--seed" => seed = Some(num(&v)?),
                "--seconds" => seconds = Some(num(&v)?),
                "--trace" => {
                    trace = Some(match v.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace must be 0 or 1, not `{v}`")),
                    });
                }
                _ => return Err(format!("unknown argument `{a}`")),
            }
        }
        let workload = workload.ok_or("missing --workload")?;
        let seed = seed.ok_or("missing --seed")?;
        if record {
            return Ok(Self {
                workload,
                seed,
                seconds: 0,
                trace: false,
                record,
            });
        }
        Ok(Self {
            workload,
            seed,
            seconds: seconds
                .filter(|&s| s > 0)
                .ok_or("--seconds must be given and positive")?,
            trace: trace.ok_or("missing --trace")?,
            record,
        })
    }
}

/// Host fingerprint recorded with every result. Runs whose fingerprints
/// differ are not comparable on wall time (`compare.py` flags them).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// Workers every pass uses.
    pub workers: usize,
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// `rustc --version` at build time.
    pub rustc: &'static str,
    /// Cargo build profile.
    pub profile: &'static str,
    /// CPU model from `/proc/cpuinfo`.
    pub cpu: String,
}

impl Fingerprint {
    /// Fingerprint of this host and build.
    #[must_use]
    pub fn capture() -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".to_owned());
        Self {
            workers: nproc.min(MAX_WORKERS),
            nproc,
            rustc: env!("PERFBENCH_RUSTC"),
            profile: env!("PERFBENCH_PROFILE"),
            cpu,
        }
    }
}

/// Peak resident set of this process (MB), from `/proc/self/status`.
///
/// # Errors
///
/// When the kernel does not report `VmHWM`.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

/// Median of `v` (mean of the middle two for even lengths); 0 if empty.
#[must_use]
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => 0.5 * (s[n / 2 - 1] + s[n / 2]),
    }
}

/// Nearest-rank percentile `p` (0–100) of `v`; 0 if empty.
#[must_use]
pub fn percentile(v: &[f64], p: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    if s.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Pass outcomes folded over a run: attempted/failed counts, the worst
/// reference deviation, and the failure messages.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Checked operations.
    pub attempted: u64,
    /// Failed operations.
    pub failed: u64,
    /// Largest `out_dev_rel` over the passes.
    pub out_dev_rel: f64,
    /// Distinct failure messages, in order of first appearance.
    pub messages: Vec<String>,
}

impl Tally {
    /// Fold in one timed pass of `workload`'s input `variant`.
    pub fn add(&mut self, workload: Workload, variant: u64, out: &PassOut) {
        let reference = checks::Reference::load();
        let mut failures = out.failures.clone();
        let drift = checks::pinned_drift(reference, workload, variant, &out.outputs);
        if drift > checks::CAMPAIGN_TOL {
            failures.push(format!(
                "campaign/PG-MCML drifted {drift:.4} from its reference"
            ));
        }
        self.attempted += out.attempted;
        self.failed += failures.len() as u64;
        self.out_dev_rel =
            self.out_dev_rel
                .max(reference.max_deviation(workload, variant, &out.outputs));
        for m in failures {
            if !self.messages.contains(&m) {
                self.messages.push(m);
            }
        }
    }

    /// `failed / attempted`.
    #[must_use]
    pub fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// One timed set-up: its wall time (s), the `core.elaborate` span time
/// (s) and the lint busy time (s, 0 with obs off).
#[derive(Debug, Clone, Copy)]
struct SetupTime {
    wall_s: f64,
    elaborate_s: f64,
    lint_s: f64,
}

/// Repeat the set-up ([`MIN_SETUPS`], [`MIN_SETUP_S`]) and return the last
/// one's result with every set-up's times.
fn repeated_setups(
    args: &Args,
    workers: usize,
    tracer: &Tracer,
) -> Result<(workload::Prepared, Vec<SetupTime>), String> {
    let mut times = Vec::new();
    let t0 = Instant::now();
    loop {
        let before = trace::capture();
        let start = Instant::now();
        let prepared = workload::setup(args.workload, args.seed, workers, tracer)
            .map_err(|e| format!("set-up failed: {e}"))?;
        let wall_s = start.elapsed().as_secs_f64();
        let lint_s = ObsDelta::between(&before, &trace::capture()).busy_s(mcml_obs::Stage::Lint);
        let elaborate_ms: f64 = tracer
            .drain()
            .iter()
            .filter(|s| s.name == "core.elaborate")
            .map(SpanRec::ms)
            .sum();
        times.push(SetupTime {
            wall_s,
            elaborate_s: elaborate_ms * 1e-3,
            lint_s,
        });
        if times.len() >= MIN_SETUPS && t0.elapsed().as_secs_f64() >= MIN_SETUP_S {
            return Ok((prepared, times));
        }
    }
}

/// The end-to-end run: observability off, repeated set-ups, one untimed
/// warm-up pass, then timed passes for `args.seconds`.
///
/// # Errors
///
/// When set-up fails or peak memory cannot be read.
pub fn run_end_to_end(args: &Args, fp: &Fingerprint) -> Result<Outcome, String> {
    mcml_obs::set_mode(mcml_obs::Mode::Off);
    let off = Tracer::new(false);
    let (prepared, setups) = repeated_setups(args, fp.workers, &off)?;
    let setup_times: Vec<f64> = setups.iter().map(|s| s.wall_s).collect();
    let _warmup = prepared.pass(&off);
    let mut tally = Tally::default();
    let mut throughput = Vec::new();
    let t0 = Instant::now();
    let mut walls = Vec::new();
    loop {
        let out = prepared.pass(&off);
        walls.push(out.wall_s);
        tally.add(prepared.workload, prepared.variant, &out);
        throughput.push(out.ops as f64 / out.wall_s);
        if t0.elapsed().as_secs() >= args.seconds {
            break;
        }
    }
    Ok(metrics::end_to_end(
        args.workload,
        &tally,
        median(&throughput),
        median(&setup_times),
        peak_rss_mb()?,
        &walls,
    ))
}

/// What the traced run measured, before it is turned into metrics.
#[derive(Debug, Clone, Default)]
pub struct TraceData {
    /// Workers every pass used.
    pub workers: usize,
    /// Traced passes.
    pub passes: usize,
    /// Summed obs deltas of the traced passes.
    pub delta: ObsDelta,
    /// Spans of every traced pass, one list per pass.
    pub spans: Vec<Vec<SpanRec>>,
    /// Wall times of the traced passes (s).
    pub traced_wall: Vec<f64>,
    /// Wall times of the untraced passes (s).
    pub untraced_wall: Vec<f64>,
    /// `core.elaborate` time of each traced set-up (s).
    pub setup_elaborate_s: Vec<f64>,
    /// Lint busy time of each traced set-up (s).
    pub setup_lint_s: Vec<f64>,
}

/// The traced run: set-ups and a warm-up with obs on, then alternating
/// untraced (obs off) and traced (obs on) passes for `args.seconds`.
///
/// # Errors
///
/// When set-up fails, or when the run would pass vacuously: obs is off
/// or no `spice.*` counter moved.
pub fn run_traced(args: &Args, fp: &Fingerprint) -> Result<Outcome, String> {
    mcml_obs::set_mode(mcml_obs::Mode::Summary);
    let on = Tracer::new(true);
    let off = Tracer::new(false);
    let mut data = TraceData {
        workers: fp.workers,
        ..TraceData::default()
    };
    let (prepared, setups) = repeated_setups(args, fp.workers, &on)?;
    data.setup_elaborate_s = setups.iter().map(|s| s.elaborate_s).collect();
    data.setup_lint_s = setups.iter().map(|s| s.lint_s).collect();
    let _warmup = prepared.pass(&on);
    on.drain();

    let mut tally = Tally::default();
    let t0 = Instant::now();
    loop {
        mcml_obs::set_mode(mcml_obs::Mode::Off);
        let out = prepared.pass(&off);
        tally.add(prepared.workload, prepared.variant, &out);
        data.untraced_wall.push(out.wall_s);

        mcml_obs::set_mode(mcml_obs::Mode::Summary);
        let before = trace::capture();
        let out = prepared.pass(&on);
        let d = ObsDelta::between(&before, &trace::capture());
        tally.add(prepared.workload, prepared.variant, &out);
        data.traced_wall.push(out.wall_s);
        data.delta.accumulate(&d);
        data.spans.push(on.drain());
        data.passes += 1;
        if t0.elapsed().as_secs() >= args.seconds {
            break;
        }
    }
    if mcml_obs::mode() == mcml_obs::Mode::Off {
        return Err("refusing traced run: observability is off".to_owned());
    }
    if !data.delta.any_spice() {
        return Err("refusing traced run: no spice.* counter moved".to_owned());
    }
    Ok(metrics::per_layer(&tally, &data))
}
