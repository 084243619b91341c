//! # mcml-obs — observability for the SPICE → characterisation → CPA pipeline
//!
//! PR 1 made the evaluation pipeline parallel but left it a black box:
//! nobody could see how many Newton–Raphson iterations a transient burned,
//! whether the characterisation cache actually hit, or where wall-clock
//! goes between `mcml-spice`, `mcml-char` and `mcml-dpa`. This crate is the
//! measurement layer the rest of the workspace reports through — the
//! moral equivalent of the auditable per-stage artefacts in Tiri &
//! Verbauwhede's secure design flow:
//!
//! * [`Counter`] — a fixed registry of named counters behind **sharded
//!   relaxed atomics**: the hot Newton–Raphson loop pays exactly one
//!   `fetch_add(Relaxed)` on its shard, with no allocation and no locking;
//! * [`Stage`] / [`span`] — wall-clock span timers for pipeline stages
//!   (nest freely; each guard accumulates independently on drop);
//! * [`RunReport`] — a snapshot of every counter and stage timer,
//!   serialised to **deterministic JSON** (fixed key order, no floats);
//! * the `MCML_OBS` environment knob — `off` (true no-op: counting and
//!   timing are skipped entirely), `summary` (stage-by-stage table on
//!   stdout at the end of a run; the default), or `json:<path>`
//!   (summary **plus** a schema-documented `report.json`).
//!
//! Counter totals are **deterministic under any `MCML_THREADS`**: every
//! crate increments by the amount of work actually done, work items are
//! identical in serial and parallel runs, and aggregation is a plain sum
//! over shards. Wall-clock stage timings are naturally machine-dependent
//! and are kept in a separate section that determinism tests ignore. The
//! full counter schema is documented in `docs/OBSERVABILITY.md`.
//!
//! # Example
//!
//! ```
//! use mcml_obs::{Counter, RunReport, Stage};
//!
//! mcml_obs::set_mode(mcml_obs::Mode::Summary);
//! mcml_obs::reset();
//! {
//!     let _outer = mcml_obs::span(Stage::Characterize);
//!     mcml_obs::add(Counter::NrIterations, 42);
//!     mcml_obs::incr(Counter::CellsCharacterized);
//! }
//! let report = RunReport::capture("example", 1);
//! assert_eq!(report.counter(Counter::NrIterations), 42);
//! assert_eq!(report.counter(Counter::CellsCharacterized), 1);
//! assert!(report.to_json().contains("\"spice.nr_iterations\": 42"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod counters;
mod report;
mod span;
mod warn;

pub use counters::{add, incr, total, Counter};
pub use report::{write_json, RunReport, StageSnapshot};
pub use span::{span, time, SpanGuard, Stage};
pub use warn::{warn_once, warnings};

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// What the observability layer does with what it measures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Mode {
    /// Measure nothing: counters and spans become true no-ops (no
    /// atomics touched, no clock read, no allocation).
    Off,
    /// Count and time; print a stage-by-stage summary at [`finish`].
    Summary,
    /// Like [`Mode::Summary`], and additionally write the deterministic
    /// JSON [`RunReport`] to the given path at [`finish`].
    Json(String),
}

// 0 = unresolved (read MCML_OBS on first use), 1 = off, 2 = on.
static ENABLED: AtomicU8 = AtomicU8::new(0);
static MODE: Mutex<Option<Mode>> = Mutex::new(None);
static STARTED: Mutex<Option<Instant>> = Mutex::new(None);

/// Fast-path check used by every counter and span entry point.
#[inline]
pub(crate) fn enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => init_from_env(),
    }
}

#[cold]
fn init_from_env() -> bool {
    let mode = match std::env::var("MCML_OBS") {
        Ok(v) => parse_mode(&v),
        Err(_) => Mode::Summary,
    };
    let on = mode != Mode::Off;
    set_mode(mode);
    on
}

fn parse_mode(v: &str) -> Mode {
    let v = v.trim();
    if v.eq_ignore_ascii_case("off") || v == "0" || v.eq_ignore_ascii_case("none") {
        Mode::Off
    } else if let Some(path) = v.strip_prefix("json:") {
        Mode::Json(path.to_owned())
    } else if v.eq_ignore_ascii_case("json") {
        Mode::Json("report.json".to_owned())
    } else {
        // `summary`, empty, or anything unrecognised: measure and print.
        Mode::Summary
    }
}

/// The active mode (resolving `MCML_OBS` on first use).
#[must_use]
pub fn mode() -> Mode {
    enabled();
    MODE.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clone()
        .unwrap_or(Mode::Summary)
}

/// Override the mode programmatically (tests, embedding tools).
///
/// Takes precedence over `MCML_OBS` from the moment it is called.
pub fn set_mode(m: Mode) {
    let on = m != Mode::Off;
    *MODE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(m);
    ENABLED.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// Zero every counter and stage timer and restart the run clock.
///
/// The benchmark binaries call this at the start of their pass so the
/// emitted report covers exactly one pipeline pass and states its real
/// wall time.
pub fn reset() {
    counters::reset_all();
    span::reset_all();
    *STARTED
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(Instant::now());
}

/// Nanoseconds since the last [`reset`] (0 if never reset).
#[must_use]
pub(crate) fn elapsed_ns() -> u64 {
    STARTED
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .map_or(0, |t0| {
            u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
        })
}

/// End-of-run hook for the pipeline binaries.
///
/// Captures a [`RunReport`] named `run` over `threads` workers and, per
/// the active [`Mode`]: prints the stage-by-stage summary (`summary` and
/// `json:`), writes the deterministic JSON report (`json:<path>` only),
/// and returns the report. Returns `None` when observability is off.
pub fn finish(run: &str, threads: usize) -> Option<RunReport> {
    let m = mode();
    if m == Mode::Off {
        return None;
    }
    let report = RunReport::capture(run, threads);
    println!("\n{}", report.summary());
    if let Mode::Json(path) = &m {
        match report.write_to(path) {
            Ok(()) => println!("report written to {path}"),
            Err(e) => eprintln!("mcml-obs: could not write {path}: {e}"),
        }
    }
    Some(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_parsing() {
        assert_eq!(parse_mode("off"), Mode::Off);
        assert_eq!(parse_mode("0"), Mode::Off);
        assert_eq!(parse_mode("NONE"), Mode::Off);
        assert_eq!(parse_mode("summary"), Mode::Summary);
        assert_eq!(parse_mode("anything"), Mode::Summary);
        assert_eq!(parse_mode("json"), Mode::Json("report.json".into()));
        assert_eq!(
            parse_mode("json:/tmp/r.json"),
            Mode::Json("/tmp/r.json".into())
        );
    }
}
