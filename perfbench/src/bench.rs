//! The two kinds of run: untraced (end-to-end metrics) and traced
//! (per-layer metrics and the cost of tracing itself).

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::common::{
    build_pool_profiles, derive_seed, falcon_spec, Metric, PassOutcome, PassPlan, SetupInfo,
    SynthTimes, FALCON_LABEL, POOL_PROFILES,
};
use crate::stats::{median, summarize, windowed_tail};
use crate::trace::{write_jsonl, Recorder, Span};
use crate::{bulk, cpu, falcon, layers, rpc};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed-loop Falcon-512 signing in process.
    Falcon512,
    /// Closed-loop 4096-sample requests to an in-process pool.
    Bulk,
    /// Open-loop 1–8-sample requests over one RPC connection.
    RpcTiny,
}

impl Workload {
    /// Every workload, in the order a traced run visits them.
    pub const ALL: [Workload; 3] = [Workload::Falcon512, Workload::Bulk, Workload::RpcTiny];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Falcon512 => "falcon512",
            Workload::Bulk => "bulk",
            Workload::RpcTiny => "rpc-tiny",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// A workload after set-up, ready for one pass.
enum Prepared {
    Falcon(Box<falcon::State>),
    Bulk(Box<bulk::State>),
    Rpc(Box<rpc::State>),
}

/// Sets a workload up, returning it with the process CPU time and the
/// wall time the set-up took.
fn setup(workload: Workload, seed: u64) -> (Prepared, SetupInfo, Duration, Duration) {
    let wall = Instant::now();
    let cpu = cpu::process();
    let (prepared, info) = match workload {
        Workload::Falcon512 => {
            let (s, info) = falcon::setup(seed);
            (Prepared::Falcon(Box::new(s)), info)
        }
        Workload::Bulk => {
            let (s, info) = bulk::setup(seed);
            (Prepared::Bulk(Box::new(s)), info)
        }
        Workload::RpcTiny => {
            let (s, info) = rpc::setup(seed);
            (Prepared::Rpc(Box::new(s)), info)
        }
    };
    (prepared, info, cpu::process() - cpu, wall.elapsed())
}

fn run_pass(prepared: Prepared, plan: &PassPlan) -> PassOutcome {
    match prepared {
        Prepared::Falcon(s) => falcon::run(*s, plan),
        Prepared::Bulk(s) => bulk::run(*s, plan),
        Prepared::Rpc(s) => rpc::run(*s, plan),
    }
}

/// Passes per untraced run, each on a fresh set-up. `setup_s` is the
/// median of their set-ups and each gated rate the median of theirs:
/// how much CPU a thread's wake-ups cost on a shared virtual machine
/// varies with where its threads land and holds for their lifetime,
/// so one set of threads per run would make one draw of that.
const PASSES: u64 = 10;

/// Untraced and traced passes of the chosen workload in a traced run,
/// in turn, so `trace.overhead_frac` compares medians and not one draw
/// each of where the threads landed (see `PASSES`).
const TRACED_PAIRS: u64 = 3;

/// Shares of `--seconds` in a traced run: each pass of the chosen
/// workload, untraced or traced; each other workload traced; the layers
/// timed alone.
const TRACED_SHARE_PASS: f64 = 0.1;
const TRACED_SHARE_LAYERS: f64 = 0.2;

/// Recorder lanes per pass (a pass uses at most three).
const LANES_PER_PASS: u64 = 4;

/// What one run printed and found.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Every check held.
    pub correct: bool,
    /// Operations attempted over the run's passes.
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Human-readable notes for standard error.
    pub log: Vec<String>,
    /// Spans recorded by a traced run.
    pub spans: Vec<Span>,
}

impl RunResult {
    fn absorb(&mut self, name: &str, outcome: &PassOutcome) {
        self.correct &= outcome.verdict.ok();
        self.attempted += outcome.attempted();
        self.failed += outcome.failed();
        self.log.push(format!(
            "[{name}] {:.2} s, {} attempted, {} failed; check: {}",
            outcome.elapsed.as_secs_f64(),
            outcome.attempted(),
            outcome.failed(),
            outcome.verdict.detail
        ));
    }

    /// The result as one JSON line, the last line the benchmark prints.
    pub fn to_json(&self) -> String {
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            // JSON has no infinity: a percentile held by a failed
            // operation prints as the largest finite number.
            let value = if m.value.is_finite() {
                m.value
            } else {
                f64::MAX
            };
            let _ = write!(
                metrics,
                "{}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                m.name,
                value,
                m.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed
        )
    }
}

fn plan(seconds: f64, tracing: bool, epoch: Instant, pass: u64) -> PassPlan {
    PassPlan {
        seconds,
        tracing,
        epoch,
        lanes: 1 + pass * LANES_PER_PASS,
    }
}

/// Most windows a pass's latency tail is taken over.
const TAIL_WINDOWS: usize = 10;

/// The end-to-end metrics of an untraced run's passes, plus `setup_s`.
///
/// Throughput is per second of the process's CPU time, not of wall
/// time: on a shared host the CPU a run gets swings by half between
/// runs, and wall-clock rates swing with it, while work per CPU-second
/// holds within about a tenth. Latency stays wall-clock, as callers see
/// it, except a signature's (see `falcon::run`). Rates and latency are
/// medians over the passes.
fn end_to_end(setup_s: f64, outcomes: &[PassOutcome]) -> Vec<Metric> {
    let per_pass =
        |f: &dyn Fn(&PassOutcome) -> f64| median(&outcomes.iter().map(f).collect::<Vec<_>>());
    let completed: u64 = outcomes.iter().map(PassOutcome::completed).sum();
    let attempted: u64 = outcomes.iter().map(PassOutcome::attempted).sum();
    vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new(
            "requests_per_cpu_s",
            per_pass(&|o| o.completed() as f64 / o.cpu.as_secs_f64()),
            "1/cpu_s",
        ),
        Metric::new(
            "samples_per_cpu_s",
            per_pass(&|o| o.samples as f64 / o.cpu.as_secs_f64()),
            "1/cpu_s",
        ),
        Metric::new(
            "latency_p50_us",
            per_pass(&|o| {
                let latencies: Vec<_> = o.ops.iter().map(|op| op.latency).collect();
                summarize(&latencies).p50.value_us
            }),
            "us",
        ),
        Metric::new(
            "ok_frac",
            completed as f64 / attempted.max(1) as f64,
            "frac",
        ),
    ]
}

/// The wall-clock rates and the latency tail of one pass. On a shared
/// host they move with the CPU the run gets (the tail by up to a factor
/// of three between runs), too far to gate on, so they are logged by
/// every run and reported per layer by the traced run. Returns the
/// metrics and a note on how the tail was taken.
fn wall_clock(outcome: &PassOutcome) -> (Vec<Metric>, String) {
    let secs = outcome.elapsed.as_secs_f64();
    let mut ops = outcome.ops.clone();
    ops.sort_by(|a, b| a.at.total_cmp(&b.at));
    let latencies: Vec<_> = ops.iter().map(|o| o.latency).collect();
    let tail = windowed_tail(&latencies, TAIL_WINDOWS);
    let note = format!(
        "{:.3} s wall, {:.3} s CPU; the latency tail is the median over {} windows of \
         p{:.2} ({} beyond it in the first) of {} operations",
        secs,
        outcome.cpu.as_secs_f64(),
        tail.windows,
        tail.first.percentile,
        tail.first.beyond,
        latencies.len()
    );
    let metrics = vec![
        Metric::new(
            "e2e.requests_per_s",
            outcome.completed() as f64 / secs,
            "1/s",
        ),
        Metric::new("e2e.samples_per_s", outcome.samples as f64 / secs, "1/s"),
        Metric::new("e2e.latency_p99_us", tail.value_us, "us"),
    ];
    (metrics, note)
}

/// The wall-clock figures of several passes: logs each pass's and
/// returns their medians.
fn wall_clock_medians(outcomes: &[PassOutcome], log: &mut Vec<String>) -> Vec<Metric> {
    let walls: Vec<_> = outcomes.iter().map(wall_clock).collect();
    log.push(format!("first pass: {}", walls[0].1));
    walls[0]
        .0
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let values: Vec<f64> = walls.iter().map(|(w, _)| w[i].value).collect();
            log.push(format!("{} per pass = {values:.1?} {}", m.name, m.unit));
            Metric::new(m.name.as_str(), median(&values), m.unit)
        })
        .collect()
}

/// An untraced run: `PASSES` passes of `seconds / PASSES`, each on
/// a fresh set-up. `setup_s` is the median set-up CPU time, for the
/// same reason throughput is per CPU-second.
pub fn untraced(workload: Workload, seed: u64, seconds: f64) -> RunResult {
    let mut result = RunResult {
        correct: true,
        ..RunResult::default()
    };
    let mut setup_cpu = Vec::new();
    let mut setup_wall = Vec::new();
    let mut outcomes = Vec::new();
    for pass in 0..PASSES {
        let (prepared, _, cpu, wall) = setup(workload, derive_seed(seed, 100 + pass));
        setup_cpu.push(cpu.as_secs_f64());
        setup_wall.push(wall.as_secs_f64());
        let outcome = run_pass(
            prepared,
            &plan(seconds / PASSES as f64, false, Instant::now(), 0),
        );
        result.absorb(&format!("{} pass {pass}", workload.name()), &outcome);
        outcomes.push(outcome);
    }
    result.log.push(format!(
        "set-up CPU (s): {setup_cpu:.4?}; wall (s): {setup_wall:.4?}"
    ));
    let cpu_s: Vec<f64> = outcomes.iter().map(|o| o.cpu.as_secs_f64()).collect();
    result.log.push(format!("pass CPU (s): {cpu_s:.4?}"));
    for m in wall_clock_medians(&outcomes, &mut result.log) {
        result.log.push(format!(
            "{} = {} {}, the median over passes (not gated)",
            m.name, m.value, m.unit
        ));
    }
    result.metrics = end_to_end(median(&setup_cpu), &outcomes);
    result
}

/// A traced run: `TRACED_PAIRS` untraced and traced passes of the
/// chosen workload in turn, on fresh set-ups (the difference is
/// `trace.overhead_frac`), a traced pass of each other workload (each
/// is the home of some layers), and the bottom layers timed alone on
/// every profile.
pub fn traced(workload: Workload, seed: u64, seconds: f64) -> RunResult {
    let epoch = Instant::now();
    let mut result = RunResult {
        correct: true,
        ..RunResult::default()
    };
    let mut layer = Vec::new();
    let mut synth = SynthTimes::default();
    let mut keygen = None;
    let mut pass = 0;
    let cost = |o: &PassOutcome| o.cpu.as_secs_f64() / o.completed().max(1) as f64;

    let mut untraced = Vec::new();
    let mut traced_costs = Vec::new();
    let mut traced_layer = Vec::new();
    for tracing in (0..TRACED_PAIRS).flat_map(|_| [false, true]) {
        let (prepared, info, ..) = setup(workload, derive_seed(seed, 200 + pass));
        keygen = keygen.or(info.keygen);
        synth = info.synth;
        let outcome = run_pass(
            prepared,
            &plan(seconds * TRACED_SHARE_PASS, tracing, epoch, pass),
        );
        pass += 1;
        let kind = if tracing { "traced" } else { "untraced" };
        result.absorb(&format!("{} {kind}", workload.name()), &outcome);
        if tracing {
            traced_costs.push(cost(&outcome));
            traced_layer = outcome.layer;
            result.spans.extend(outcome.spans);
        } else {
            untraced.push(outcome);
        }
    }
    let untraced_costs: Vec<f64> = untraced.iter().map(cost).collect();
    layer.push(Metric::new(
        "trace.overhead_frac",
        median(&traced_costs) / median(&untraced_costs) - 1.0,
        "frac",
    ));
    layer.extend(wall_clock_medians(&untraced, &mut result.log));
    layer.extend(traced_layer);

    for other in Workload::ALL.into_iter().filter(|&w| w != workload) {
        let (prepared, info, ..) = setup(other, derive_seed(seed, 300 + pass));
        keygen = keygen.or(info.keygen);
        let outcome = run_pass(
            prepared,
            &plan(seconds * TRACED_SHARE_PASS, true, epoch, pass),
        );
        pass += 1;
        result.absorb(&format!("{} traced", other.name()), &outcome);
        layer.extend(outcome.layer);
        result.spans.extend(outcome.spans);
    }

    // The bottom layers, alone, on every profile.
    let (pool_samplers, _) = build_pool_profiles();
    let (falcon_sampler, falcon_trace) = falcon_spec()
        .build_shared_traced()
        .expect("Falcon base profile builds");
    if workload == Workload::Falcon512 {
        synth = SynthTimes::default();
        synth.add(&falcon_trace);
    }
    let mut rec = Recorder::new(epoch, 1 + pass * LANES_PER_PASS, true);
    let profiles: Vec<(&str, &ctgauss_core::CtSampler)> = POOL_PROFILES
        .iter()
        .map(|p| p.label)
        .zip(pool_samplers.iter().map(|s| &**s))
        .chain([(FALCON_LABEL, &*falcon_sampler)])
        .collect();
    let slice = Duration::from_secs_f64(seconds * TRACED_SHARE_LAYERS / profiles.len() as f64);
    let mut sampler_ns = Vec::new();
    for (i, (label, sampler)) in profiles.iter().enumerate() {
        let metrics = layers::measure(
            label,
            sampler,
            derive_seed(seed, 400 + i as u64),
            slice,
            &mut rec,
        );
        if i < POOL_PROFILES.len() {
            let whole = metrics.iter().find(|m| m.name.starts_with("sampler."));
            sampler_ns.extend(whole.map(|m| m.value));
        }
        layer.extend(metrics);
    }
    result.spans.extend(rec.into_spans());

    // The pool's cost per sample above the sampler's own, averaged over
    // the profiles the bulk callers rotate through evenly.
    let sampler_mean = sampler_ns.iter().sum::<f64>() / sampler_ns.len() as f64;
    for m in &mut layer {
        if m.name == "pool.ns_per_sample" {
            *m = Metric::new("pool.overhead_ns_per_sample", m.value - sampler_mean, "ns");
        }
    }
    layer.extend(synth.metrics());
    layer.push(Metric::new(
        "falcon.keygen_ms",
        keygen.map_or(0.0, |k| k.as_secs_f64() * 1e3),
        "ms",
    ));
    result.metrics = layer;
    result
}

/// Where a traced run writes its spans: under the Cargo target
/// directory the benchmark was built into.
fn spans_path(workload: Workload, seed: u64) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from);
    target
        .join("perfbench-spans")
        .join(format!("{}-seed{seed}.jsonl", workload.name()))
}

/// Writes a traced run's spans; a failure is logged, not fatal.
pub fn write_spans(workload: Workload, seed: u64, spans: &[Span], log: &mut Vec<String>) {
    let path = spans_path(workload, seed);
    match write_jsonl(&path, spans) {
        Ok(()) => log.push(format!(
            "{} spans written to {}",
            spans.len(),
            path.display()
        )),
        Err(e) => log.push(format!("could not write spans to {}: {e}", path.display())),
    }
}
