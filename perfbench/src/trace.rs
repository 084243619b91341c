//! The benchmark's own tracing: spans around its calls into each layer,
//! a timing wrapper around the sizing objective, and deltas of the
//! `mcml-obs` counters and stage totals over each traced pass.
//!
//! Nothing here traces inside the crates; obs counters and stage totals
//! are read through [`mcml_obs::RunReport::capture`] before and after a
//! pass. Every wall time comes from this module's clock.

use std::sync::Mutex;
use std::time::Instant;

use mcml_obs::{Counter, RunReport, Stage};
use mcml_opt::Objective;

/// One finished span: a named interval on the tracer's clock (ns).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Start, ns since the tracer was made.
    pub start_ns: u64,
    /// End, ns since the tracer was made.
    pub end_ns: u64,
}

impl SpanRec {
    /// Duration in ms.
    #[must_use]
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-6
    }
}

/// Span recorder; records nothing when off.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Mutex<Vec<SpanRec>>,
}

impl Tracer {
    /// A tracer that records (`on`) or does nothing.
    #[must_use]
    pub fn new(on: bool) -> Self {
        Self {
            on,
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    #[must_use]
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `f` inside a span called `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans
            .lock()
            .expect("span log poisoned by a panicking worker")
            .push(SpanRec {
                name,
                start_ns,
                end_ns,
            });
        out
    }

    /// Take every span recorded so far.
    pub fn drain(&self) -> Vec<SpanRec> {
        std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("span log poisoned by a panicking worker"),
        )
    }

    /// Wrap `obj` so each evaluation is an `opt.eval` span.
    #[must_use]
    pub fn objective<'a>(&'a self, obj: &'a dyn Objective) -> TimedObjective<'a> {
        TimedObjective { obj, tracer: self }
    }
}

/// An [`Objective`] whose evaluations are timed as `opt.eval` spans.
pub struct TimedObjective<'a> {
    obj: &'a dyn Objective,
    tracer: &'a Tracer,
}

impl Objective for TimedObjective<'_> {
    fn dim(&self) -> usize {
        self.obj.dim()
    }

    fn bounds(&self) -> Vec<(f64, f64)> {
        self.obj.bounds()
    }

    fn eval(&self, x: &[f64]) -> f64 {
        self.tracer.span("opt.eval", || self.obj.eval(x))
    }
}

/// Wall time covered by the union of `spans` (ns).
#[must_use]
pub fn covered_ns(spans: &[&SpanRec]) -> u64 {
    let mut iv: Vec<(u64, u64)> = spans.iter().map(|s| (s.start_ns, s.end_ns)).collect();
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Counter totals and stage busy/calls moved between two captures.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ObsDelta {
    /// Counter deltas, in [`Counter::ALL`] order.
    pub counters: Vec<u64>,
    /// Stage busy-ns deltas, in [`Stage::ALL`] order.
    pub busy_ns: Vec<u64>,
    /// Stage call deltas, in [`Stage::ALL`] order.
    pub calls: Vec<u64>,
}

impl ObsDelta {
    /// `after − before`.
    #[must_use]
    pub fn between(before: &RunReport, after: &RunReport) -> Self {
        Self {
            counters: Counter::ALL
                .iter()
                .map(|&c| after.counter(c) - before.counter(c))
                .collect(),
            busy_ns: Stage::ALL
                .iter()
                .map(|&s| after.stage(s).busy_ns - before.stage(s).busy_ns)
                .collect(),
            calls: Stage::ALL
                .iter()
                .map(|&s| after.stage(s).calls - before.stage(s).calls)
                .collect(),
        }
    }

    /// Add `other` into `self`.
    pub fn accumulate(&mut self, other: &Self) {
        if self.counters.is_empty() {
            *self = other.clone();
            return;
        }
        for (a, b) in [
            (&mut self.counters, &other.counters),
            (&mut self.busy_ns, &other.busy_ns),
            (&mut self.calls, &other.calls),
        ] {
            for (x, y) in a.iter_mut().zip(b) {
                *x += y;
            }
        }
    }

    /// A counter's delta.
    #[must_use]
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters.get(c as usize).copied().unwrap_or(0)
    }

    /// A stage's busy seconds.
    #[must_use]
    pub fn busy_s(&self, s: Stage) -> f64 {
        self.busy_ns.get(s as usize).copied().unwrap_or(0) as f64 * 1e-9
    }

    /// A stage's completed spans.
    #[must_use]
    pub fn stage_calls(&self, s: Stage) -> u64 {
        self.calls.get(s as usize).copied().unwrap_or(0)
    }

    /// Whether any `spice.*` counter moved.
    #[must_use]
    pub fn any_spice(&self) -> bool {
        Counter::ALL
            .iter()
            .any(|&c| c.name().starts_with("spice.") && self.counter(c) > 0)
    }
}

/// Capture the current obs totals.
#[must_use]
pub fn capture() -> RunReport {
    RunReport::capture("perfbench", 0)
}
