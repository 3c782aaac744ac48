//! The three simulator workloads: a preset `Scenario` through
//! `SimRunner` and the public `harness::run` driver.
//!
//! Every run wraps the runner in [`Timed`], which stamps the start and
//! end of each `Runner::advance`. An advance is one control interval of
//! simulated time (the operation); the time between two advances is one
//! control step — observe, decide, actuate and the harness driver's own
//! bookkeeping. A traced run also has [`Timed`] record a span per call,
//! wraps the policy in [`TracedPolicy`], and turns the sim's own profiler
//! on.

use crate::spans::Spans;
use crate::stats::{median, quantile};
use crate::{Outcome, Rep};
use marlin_autoscaler::{ForecastSample, Observation, ScaleAction, ScalingPolicy};
use marlin_cluster::harness::{run, Fault, MetricsSnapshot, Runner, TelemetrySection};
use marlin_cluster::params::ClientEngine;
use marlin_cluster::{CoordKind, RunReport, Scenario, SimRunner};
use marlin_sim::{Nanos, SECOND};
use marlin_telemetry::{MetricsSeries, ProfileSummary};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// The million-client preset covers 60 virtual seconds; it is lengthened
/// so that one run takes seconds of wall time and yields over a thousand
/// control intervals.
const MILLION_HORIZON: Nanos = 6_000 * SECOND;

/// Recorded report digests, one `workload seed digest` line each.
const RECORDED: &str = include_str!("../digests.txt");

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimKind {
    SpikeExact,
    MillionCohort,
    SpikeZk,
}

impl SimKind {
    pub fn name(self) -> &'static str {
        match self {
            SimKind::SpikeExact => "spike_exact",
            SimKind::MillionCohort => "million_cohort",
            SimKind::SpikeZk => "spike_zk",
        }
    }

    /// Wall seconds one repetition takes on the reference host (2 cores):
    /// the run plus its timed set-ups.
    pub fn rep_seconds(self) -> f64 {
        match self {
            SimKind::SpikeExact => 2.5,
            SimKind::MillionCohort => 2.5,
            SimKind::SpikeZk => 2.5,
        }
    }

    pub fn scenario(self, seed: u64) -> Scenario {
        let s =
            match self {
                SimKind::SpikeExact => Scenario::autoscale_spike(CoordKind::Marlin, 10)
                    .client_engine(ClientEngine::Exact),
                SimKind::SpikeZk => Scenario::autoscale_spike(CoordKind::ZkSmall, 10)
                    .client_engine(ClientEngine::Exact),
                SimKind::MillionCohort => Scenario::million_clients(1).duration(MILLION_HORIZON),
            };
        s.seed(seed)
    }
}

/// Calls across the `Runner` boundary in one run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Calls {
    advance: u64,
    observe: u64,
    actuate: u64,
}

/// The `Runner` decorator. It counts calls, stamps the start and end of
/// each `advance`, and, given spans, records one span per call; every
/// other trait method is delegated unchanged, so wrapping cannot change a
/// report.
struct Timed<R> {
    inner: R,
    calls: Calls,
    spans: Option<Rc<RefCell<Spans>>>,
    last_advance_end: Option<Instant>,
    /// Wall time of each advance over a positive interval.
    intervals: Vec<u64>,
    /// Wall time between consecutive advances.
    steps: Vec<u64>,
}

impl<R> Timed<R> {
    fn new(inner: R, spans: Option<Rc<RefCell<Spans>>>) -> Self {
        Timed {
            inner,
            calls: Calls::default(),
            spans,
            last_advance_end: None,
            intervals: Vec::new(),
            steps: Vec::new(),
        }
    }
}

/// Run `f`, inside a span named `name` when spans are recorded.
fn span<T>(spans: Option<&Rc<RefCell<Spans>>>, name: &'static str, f: impl FnOnce() -> T) -> T {
    let id = spans.map(|s| s.borrow_mut().open(name));
    let out = f();
    if let (Some(s), Some(id)) = (spans, id) {
        s.borrow_mut().close(id);
    }
    out
}

impl<R: Runner> Runner for Timed<R> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn now(&self) -> Nanos {
        self.inner.now()
    }
    fn advance(&mut self, dt: Nanos) {
        self.calls.advance += 1;
        let start = Instant::now();
        if let Some(end) = self.last_advance_end {
            self.steps.push((start - end).as_nanos() as u64);
        }
        let inner = &mut self.inner;
        span(self.spans.as_ref(), "cluster.advance", || inner.advance(dt));
        let end = Instant::now();
        if dt > 0 {
            self.intervals.push((end - start).as_nanos() as u64);
        }
        self.last_advance_end = Some(end);
    }
    fn observe(&mut self, window: Nanos) -> Observation {
        self.calls.observe += 1;
        let inner = &mut self.inner;
        span(self.spans.as_ref(), "cluster.observe", || {
            inner.observe(window)
        })
    }
    fn actuate(&mut self, action: &ScaleAction) {
        self.calls.actuate += 1;
        let inner = &mut self.inner;
        span(self.spans.as_ref(), "cluster.actuate", || {
            inner.actuate(action)
        });
    }
    fn inject(&mut self, fault: &Fault) {
        let inner = &mut self.inner;
        span(self.spans.as_ref(), "cluster.inject", || {
            inner.inject(fault)
        });
    }
    fn finish(&mut self) {
        let inner = &mut self.inner;
        span(self.spans.as_ref(), "cluster.finish", || inner.finish());
    }
    fn metrics(&self) -> MetricsSnapshot {
        span(self.spans.as_ref(), "cluster.metrics", || {
            self.inner.metrics()
        })
    }
    fn metrics_tick(&mut self, at: Nanos, series: &mut MetricsSeries) {
        self.inner.metrics_tick(at, series);
    }
    fn telemetry(&self) -> Option<TelemetrySection> {
        self.inner.telemetry()
    }
    fn trace_json(&self) -> Option<String> {
        self.inner.trace_json()
    }
}

/// Traced policy: one span per `decide`, everything else delegated.
struct TracedPolicy {
    inner: Box<dyn ScalingPolicy>,
    spans: Rc<RefCell<Spans>>,
}

impl ScalingPolicy for TracedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn decide(&mut self, obs: &Observation) -> Option<ScaleAction> {
        let inner = &mut self.inner;
        span(Some(&self.spans), "autoscaler.decide", || inner.decide(obs))
    }
    fn observe_only(&mut self, obs: &Observation) {
        self.inner.observe_only(obs);
    }
    fn forecasts(&self) -> Vec<ForecastSample> {
        self.inner.forecasts()
    }
    fn p99_ceiling(&self) -> Option<Nanos> {
        self.inner.p99_ceiling()
    }
}

/// One run of the scenario to its horizon.
struct Run {
    setup_ns: u64,
    wall_ns: u64,
    horizon: Nanos,
    calls: Calls,
    /// Interval and control-step wall times.
    intervals: Vec<u64>,
    steps: Vec<u64>,
    report: RunReport,
    profile: Option<ProfileSummary>,
}

impl Run {
    fn virt_per_wall(&self) -> f64 {
        self.horizon as f64 / self.wall_ns as f64
    }
}

/// The digest every output check compares: the fuzzer's report digest
/// with the wall-clock telemetry section cleared.
pub fn digest(report: &RunReport) -> u64 {
    let mut r = report.clone();
    r.telemetry = None;
    marlin_fuzz::report_digest(&r)
}

/// The recorded digest for `(workload, seed)`, if any.
fn recorded(table: &str, workload: &str, seed: u64) -> Option<u64> {
    table.lines().find_map(|line| {
        let mut f = line.split_whitespace();
        let (w, s, d) = (f.next()?, f.next()?, f.next()?);
        (w == workload && s.parse::<u64>().ok()? == seed)
            .then(|| u64::from_str_radix(d.trim_start_matches("0x"), 16).ok())
            .flatten()
    })
}

/// Check one run's report against what the workload must produce.
pub fn check_report(
    kind: SimKind,
    seed: u64,
    report: &RunReport,
    table: &str,
) -> Result<u64, String> {
    let d = digest(report);
    if let Some(want) = recorded(table, kind.name(), seed) {
        if d != want {
            return Err(format!(
                "{} seed {seed}: digest {d:#018x}, recorded {want:#018x}",
                kind.name()
            ));
        }
    }
    let m = &report.metrics;
    if m.commits == 0 {
        return Err("no transaction committed".into());
    }
    match kind {
        SimKind::SpikeZk if m.meta_cost <= 0.0 => {
            return Err("S-ZK must pay for its coordination service".into())
        }
        SimKind::SpikeExact | SimKind::MillionCohort if m.meta_cost != 0.0 => {
            return Err(format!("Marlin meta_cost must be 0, got {}", m.meta_cost))
        }
        _ => {}
    }
    if matches!(kind, SimKind::SpikeExact | SimKind::SpikeZk) {
        let peak = report.peak_nodes();
        if !(9..=16).contains(&peak) || !(8..=16).contains(&m.live_nodes) {
            return Err(format!(
                "spike must scale out within 8..=16 nodes: peak {peak}, end {}",
                m.live_nodes
            ));
        }
    }
    Ok(d)
}

/// One run of the scenario; with spans given, a traced one: the policy is
/// wrapped too and the sim's profiler is on.
fn run_once(kind: SimKind, seed: u64, spans: Option<&Rc<RefCell<Spans>>>) -> Run {
    let mut scenario = kind.scenario(seed);
    let horizon = scenario.horizon;
    if let Some(spans) = spans {
        scenario.policy = scenario.policy.take().map(|inner| {
            Box::new(TracedPolicy {
                inner,
                spans: Rc::clone(spans),
            }) as Box<dyn ScalingPolicy>
        });
        spans.borrow_mut().begin_run();
    }
    let t0 = Instant::now();
    let mut runner = span(spans, "cluster.setup", || SimRunner::new(&scenario));
    let setup_ns = t0.elapsed().as_nanos() as u64;
    if spans.is_some() {
        runner.sim_mut().enable_profiling();
    }
    let mut timed = Timed::new(runner, spans.cloned());
    let t1 = Instant::now();
    let mut report = span(spans, "harness.driver", || run(scenario, &mut timed));
    let wall_ns = t1.elapsed().as_nanos() as u64;
    let profile = report.telemetry.take().map(|t| t.profile);
    Run {
        setup_ns,
        wall_ns,
        horizon,
        calls: timed.calls,
        intervals: timed.intervals,
        steps: timed.steps,
        report,
        profile,
    }
}

/// Checks every run against the recorded digest, the first run, and the
/// workload's invariants, and counts the runs that fail.
struct Checker {
    kind: SimKind,
    seed: u64,
    first: Option<(u64, Calls)>,
    attempted: u64,
    failed: u64,
}

impl Checker {
    fn check(&mut self, run: &Run) {
        self.attempted += 1;
        let result = check_report(self.kind, self.seed, &run.report, RECORDED).and_then(|d| {
            match self.first {
                None => {
                    self.first = Some((d, run.calls));
                    Ok(())
                }
                Some((d0, c0)) if d0 == d && c0 == run.calls => Ok(()),
                Some((d0, c0)) => Err(format!(
                    "run differs from the first: digest {d:#018x} vs {d0:#018x}, calls {:?} vs {c0:?}",
                    run.calls
                )),
            }
        });
        if let Err(e) = result {
            eprintln!("CHECK FAILED: {}: {e}", self.kind.name());
            self.failed += 1;
        }
    }
}

pub fn run_workload(kind: SimKind, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut checker = Checker {
        kind,
        seed,
        first: None,
        attempted: 0,
        failed: 0,
    };
    let mut out = Outcome::default();
    let reps = crate::repetitions(kind.rep_seconds(), seconds);
    if trace {
        let pairs = (reps / 2).max(1);
        traced_workload(kind, seed, pairs, &mut checker, &mut out);
    } else {
        untraced_workload(kind, seed, reps, &mut checker, &mut out);
    }
    out.attempted = checker.attempted;
    out.failed = checker.failed;
    if let Some((d, _)) = checker.first {
        out.notes
            .push(format!("digest {} {seed} {d:#018x}", kind.name()));
    }
    out
}

fn untraced_workload(
    kind: SimKind,
    seed: u64,
    count: usize,
    checker: &mut Checker,
    out: &mut Outcome,
) {
    let mut reps = Vec::new();
    for _ in 0..count {
        let r = run_once(kind, seed, None);
        checker.check(&r);
        if reps.is_empty() {
            // Later runs reuse freed memory unevenly, so the peak is
            // taken over the first run alone.
            out.put("peak_rss_mb", crate::stats::peak_rss_mb());
        }
        let setup_s = crate::setup_median(r.setup_ns as f64 / 1e9, || {
            let scenario = kind.scenario(seed);
            let t0 = Instant::now();
            let runner = SimRunner::new(&scenario);
            let s = t0.elapsed().as_secs_f64();
            drop(runner);
            s
        });
        reps.push(Rep {
            work_per_s: r.virt_per_wall(),
            setup_s,
            ops: r.intervals,
            reconfigs: r.steps,
        });
    }
    crate::put_end_to_end(out, &reps);
}

fn traced_workload(
    kind: SimKind,
    seed: u64,
    pairs: usize,
    checker: &mut Checker,
    out: &mut Outcome,
) {
    let spans = Rc::new(RefCell::new(Spans::default()));
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    // Alternate untraced and traced runs so host drift hits both alike.
    for _ in 0..pairs {
        let p = run_once(kind, seed, None);
        checker.check(&p);
        plain.push(p.virt_per_wall());
        let t = run_once(kind, seed, Some(&spans));
        checker.check(&t);
        traced.push(t);
    }
    let spans = spans.borrow();
    crate::write_spans(kind.name(), seed, &spans);
    let layers = spans.layers();
    let layer = |name: &str| layers.get(name).cloned().unwrap_or_default();
    let driver_ns = layer("harness.driver").durations.iter().sum::<u64>() as f64;
    let pct = |name: &str| 100.0 * layer(name).self_ns as f64 / driver_ns;
    let first = &traced[0];
    let profile = first.profile.clone().unwrap_or_default();
    // The profiler's event count and queue depth are exact counts.
    let exact = |p: &ProfileSummary| (p.events, p.queue_depth_mean.to_bits());
    for t in &traced[1..] {
        let p = t.profile.clone().unwrap_or_default();
        if exact(&p) != exact(&profile) {
            eprintln!(
                "CHECK FAILED: {}: profiled events/queue depth {:?} differ from {:?}",
                kind.name(),
                (p.events, p.queue_depth_mean),
                (profile.events, profile.queue_depth_mean)
            );
            checker.failed += 1;
        }
    }
    let per_call = |phase: &str| {
        let (ns, calls) = traced
            .iter()
            .filter_map(|t| t.profile.as_ref()?.phase(phase))
            .fold((0u64, 0u64), |(n, c), p| (n + p.wall_nanos, c + p.calls));
        if calls == 0 {
            0.0
        } else {
            ns as f64 / calls as f64
        }
    };
    let decide = layer("autoscaler.decide");
    let m = &first.report.metrics;
    let traced_vpw: Vec<f64> = traced.iter().map(Run::virt_per_wall).collect();

    out.put("cluster.advance.self_pct", pct("cluster.advance"));
    out.put("cluster.advance.calls", first.calls.advance as f64);
    out.put("cluster.observe.self_pct", pct("cluster.observe"));
    out.put(
        "cluster.observe.p50_ms",
        quantile(&layer("cluster.observe").durations, 0.5) as f64 / 1e6,
    );
    out.put("cluster.observe.calls", first.calls.observe as f64);
    out.put("cluster.actuate.self_pct", pct("cluster.actuate"));
    out.put("cluster.actuate.calls", first.calls.actuate as f64);
    out.put(
        "autoscaler.decide.us_per_call",
        decide.self_ns as f64 / decide.calls.max(1) as f64 / 1e3,
    );
    out.put(
        "autoscaler.decide.calls",
        (decide.calls / traced.len() as u64) as f64,
    );
    out.put("harness.driver.self_pct", pct("harness.driver"));
    out.put("sim.events", profile.events as f64);
    out.put(
        "sim.events_per_virt_s",
        profile.events as f64 / (first.horizon as f64 / SECOND as f64),
    );
    out.put("sim.client_txn.ns_per_event", per_call("event:client_txn"));
    out.put("sim.cohort_step.ns_per_call", per_call("event:cohort_step"));
    out.put("sim.queue_depth_mean", profile.queue_depth_mean);
    out.put("cluster.commits", m.commits as f64);
    out.put("cluster.migrations", m.migrations as f64);
    out.put("baselines.coord_ops", m.coordination.ops.total() as f64);
    out.put("baselines.meta_cost", m.meta_cost);
    out.put(
        "trace_overhead_pct",
        100.0 * (median(&plain) / median(&traced_vpw) - 1.0),
    );
    out.notes.push(format!(
        "{} untraced and {} traced runs; {} spans",
        plain.len(),
        traced.len(),
        layers.values().map(|l| l.calls).sum::<u64>()
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A short Marlin scenario the checks can run in milliseconds.
    fn small_report(seed: u64) -> RunReport {
        let scenario = Scenario::autoscale_spike(CoordKind::Marlin, 100)
            .duration(20 * SECOND)
            .seed(seed);
        let mut runner = SimRunner::new(&scenario);
        run(scenario, &mut runner)
    }

    #[test]
    fn recorded_digest_table_parses() {
        let table = "# comment\nspike_exact 7 0x00000000000000ff\n";
        assert_eq!(recorded(table, "spike_exact", 7), Some(0xff));
        assert_eq!(recorded(table, "spike_exact", 8), None);
        assert_eq!(recorded(table, "spike_zk", 7), None);
    }

    #[test]
    fn planted_wrong_digest_fails_the_check() {
        let report = small_report(3);
        let d = digest(&report);
        // The spike's node bounds do not hold on the shortened run, so
        // check the million-client kind, whose checks are digest + cost.
        let right = format!("million_cohort 3 {d:#018x}\n");
        let wrong = format!("million_cohort 3 {:#018x}\n", d ^ 1);
        assert!(check_report(SimKind::MillionCohort, 3, &report, &right).is_ok());
        let err = check_report(SimKind::MillionCohort, 3, &report, &wrong).unwrap_err();
        assert!(err.contains("digest"), "{err}");
        // An unrecorded seed still passes on the structural checks alone.
        assert!(check_report(SimKind::MillionCohort, 4, &report, &wrong).is_ok());
    }

    #[test]
    fn decorators_leave_the_report_unchanged() {
        let seed = 5;
        let scenario = || {
            Scenario::autoscale_spike(CoordKind::Marlin, 100)
                .duration(20 * SECOND)
                .seed(seed)
        };
        let plain = small_report(seed);
        let spans = Rc::new(RefCell::new(Spans::default()));
        let mut s = scenario();
        s.policy = s.policy.take().map(|inner| {
            Box::new(TracedPolicy {
                inner,
                spans: Rc::clone(&spans),
            }) as Box<dyn ScalingPolicy>
        });
        let mut runner = SimRunner::new(&s);
        runner.sim_mut().enable_profiling();
        let mut traced = Timed::new(runner, Some(Rc::clone(&spans)));
        let report = run(s, &mut traced);
        assert!(report.telemetry.is_some());
        assert_eq!(digest(&report), digest(&plain));
        let layers = spans.borrow().layers();
        assert_eq!(layers["cluster.advance"].calls, traced.calls.advance);
        assert_eq!(layers["autoscaler.decide"].calls, traced.calls.observe);
    }
}
