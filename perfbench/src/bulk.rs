//! `bulk`: closed-loop callers submitting 4096-sample requests to an
//! in-process coalescing `Pool`, rotating over the three pool profiles.
//! Delivered buffers are checked against `replay_coalesced` after the
//! pool shuts down.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ctgauss_core::CtSampler;
use ctgauss_pool::{
    replay_coalesced, CoalesceConfig, DispatchRecord, Pool, ProfileId, SampleRequest, TraceEntry,
};
use ctgauss_prng::SeedTree;

use crate::common::{
    build_pool_profiles, derive_seed, digest, load_threads, nproc, Metric, Op, PassOutcome,
    PassPlan, SetupInfo, Verdict, POOL_PROFILES,
};
use crate::cpu;
use crate::trace::{Recorder, Span};

/// Samples per request.
pub const REQUEST: usize = 4096;

/// Requests each caller keeps outstanding. With one, the shards idle
/// through every hand-off (about a third of the time on two cores), so
/// throughput would measure thread wake-ups more than the sampler; two
/// keep every shard fed.
const DEPTH: usize = 2;

/// Samples per shard replayed bit-exactly after the pass. Replay holds
/// every replayed buffer at once and runs on one thread, so the check
/// covers each shard's first served gangs up to this budget (8 MiB per
/// shard, a few tenths of a second of replay); every response is
/// length- and seq-checked as it arrives.
const REPLAY_SAMPLES_PER_SHARD: usize = 1 << 21;

/// A spawned pool with its profiles.
pub struct State {
    pool: Pool,
    ids: Vec<ProfileId>,
    samplers: Vec<Arc<CtSampler>>,
    pool_seed: u64,
}

/// Spawns an `nproc`-shard pool with the default coalescing config and
/// the three pool profiles.
pub fn setup(seed: u64) -> (State, SetupInfo) {
    let pool_seed = derive_seed(seed, 10);
    let (samplers, synth) = build_pool_profiles();
    let (pool, ids) = spawn_pool(&samplers, pool_seed);
    let info = SetupInfo {
        synth,
        keygen: None,
    };
    (
        State {
            pool,
            ids,
            samplers,
            pool_seed,
        },
        info,
    )
}

/// An `nproc`-shard coalescing pool serving `samplers`, in order.
pub fn spawn_pool(samplers: &[Arc<CtSampler>], pool_seed: u64) -> (Pool, Vec<ProfileId>) {
    let mut builder = Pool::builder()
        .threads(nproc())
        .coalesce(CoalesceConfig::default())
        .seed_u64(pool_seed);
    let ids = samplers
        .iter()
        .map(|s| builder.shared_profile(Arc::clone(s)))
        .collect();
    (builder.spawn(), ids)
}

/// One request as its caller saw it.
struct Done {
    seq: Option<u64>,
    profile: usize,
    digest: u64,
    /// Completion time, in seconds from the start of the pass.
    at: f64,
    latency: Option<Duration>,
    /// Delivered, but with the wrong length or sequence number.
    wrong: bool,
}

/// Runs the callers for `plan.seconds`, then shuts the pool down and
/// replays it.
pub fn run(state: State, plan: &PassPlan) -> PassOutcome {
    let callers = load_threads();
    let started = Instant::now();
    let cpu_started = cpu::process();
    let deadline = started + Duration::from_secs_f64(plan.seconds);
    let per_caller: Vec<(Vec<Done>, Vec<Span>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..callers)
            .map(|c| {
                let state = &state;
                s.spawn(move || caller(state, c, started, deadline, plan))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("bulk caller thread panicked"))
            .collect()
    });
    let elapsed = started.elapsed();
    let cpu = cpu::process() - cpu_started;
    state.pool.shutdown();

    let mut spans = Vec::new();
    let mut done = Vec::new();
    for (records, caller_spans) in per_caller {
        done.extend(records);
        spans.extend(caller_spans);
    }
    let ops: Vec<Op> = done
        .iter()
        .map(|d| Op {
            at: d.at,
            latency: d.latency,
            samples: if d.latency.is_some() {
                REQUEST as u64
            } else {
                0
            },
        })
        .collect();
    let completed = ops.iter().filter(|o| o.latency.is_some()).count();
    let verdict = verify(&state, &done);

    let layer = if plan.tracing {
        let metrics = state.pool.metrics();
        let latency = metrics.histogram("pool", "latency_ns");
        let pct = |p: f64| latency.map_or(0.0, |h| h.percentile(p) as f64 / 1e3);
        vec![
            Metric::new("pool.latency_p50_us", pct(0.50), "us"),
            Metric::new("pool.latency_p99_us", pct(0.99), "us"),
            // The process's CPU time per delivered sample. Turned into
            // `pool.overhead_ns_per_sample` once the sampler's own cost
            // is known.
            Metric::new(
                "pool.ns_per_sample",
                cpu.as_nanos() as f64 / (completed * REQUEST).max(1) as f64,
                "ns",
            ),
            Metric::new(
                "pool.batches",
                metrics.counter("pool", "batches_total").unwrap_or(0) as f64,
                "count",
            ),
        ]
    } else {
        Vec::new()
    };
    PassOutcome {
        ops,
        samples: (completed * REQUEST) as u64,
        elapsed,
        cpu,
        layer,
        spans,
        verdict,
    }
}

/// One closed-loop caller with [`DEPTH`] requests outstanding: it
/// submits until `DEPTH` are in flight, waits for the oldest, records
/// it, and repeats until the deadline, then drains.
fn caller(
    state: &State,
    c: usize,
    started: Instant,
    deadline: Instant,
    plan: &PassPlan,
) -> (Vec<Done>, Vec<Span>) {
    let mut rec = Recorder::new(plan.epoch, plan.lanes + c as u64, plan.tracing);
    let mut done = Vec::new();
    let mut pending = VecDeque::new();
    let mut k = c;
    loop {
        while pending.len() < DEPTH && Instant::now() < deadline {
            let profile = k % POOL_PROFILES.len();
            k += 1;
            let request = SampleRequest {
                profile: state.ids[profile],
                count: REQUEST,
            };
            let id = rec.reserve();
            let t0 = Instant::now();
            match state.pool.submit(request) {
                Ok(ticket) => {
                    rec.record("pool.submit", ticket.seq(), Some(id), t0, Instant::now());
                    pending.push_back((id, profile, t0, ticket));
                }
                Err(_) => done.push(Done {
                    seq: None,
                    profile,
                    digest: 0,
                    at: (Instant::now() - started).as_secs_f64(),
                    latency: None,
                    wrong: false,
                }),
            }
        }
        let Some((id, profile, t0, ticket)) = pending.pop_front() else {
            break;
        };
        let seq = ticket.seq();
        let t1 = Instant::now();
        let response = ticket.wait();
        let t2 = Instant::now();
        rec.record("pool.wait", seq, Some(id), t1, t2);
        rec.record_as(id, "pool.request", seq, None, t0, t2);
        let (latency, wrong, digest) = match response {
            Ok(r) if r.seq == seq && r.samples.len() == REQUEST => {
                (Some(t2 - t0), false, digest(&r.samples))
            }
            Ok(_) => (None, true, 0),
            Err(_) => (None, false, 0),
        };
        done.push(Done {
            seq: Some(seq),
            profile,
            digest,
            at: (t2 - started).as_secs_f64(),
            latency,
            wrong,
        });
    }
    (done, rec.into_spans())
}

/// Replays each shard's first gangs and compares digests.
fn verify(state: &State, done: &[Done]) -> Verdict {
    let submitted = state.pool.submitted() as usize;
    let mut trace: Vec<Option<TraceEntry>> = vec![None; submitted];
    for d in done {
        if let Some(seq) = d.seq {
            trace[seq as usize] = Some(TraceEntry {
                profile_index: state.ids[d.profile].index(),
                count: REQUEST,
            });
        }
    }
    let Some(trace) = trace.into_iter().collect::<Option<Vec<_>>>() else {
        return Verdict {
            compared: 0,
            mismatches: 1,
            detail: "bulk: a consumed sequence number has no request".to_owned(),
        };
    };
    let dispatch: Vec<Vec<DispatchRecord>> = state
        .pool
        .dispatch_log()
        .into_iter()
        .map(|records| {
            let mut budget = REPLAY_SAMPLES_PER_SHARD;
            records
                .into_iter()
                .take_while(|r| {
                    let gang = r.members.len() * REQUEST;
                    let fits = gang <= budget;
                    budget = budget.saturating_sub(gang);
                    fits
                })
                .collect()
        })
        .collect();
    let replayed = replay_coalesced(
        &SeedTree::from_u64_seed(state.pool_seed),
        &state.samplers,
        state.pool.width(),
        &trace,
        &state.pool.failure_log(),
        &dispatch,
    );
    let mut compared = 0u64;
    let mut mismatches = done.iter().filter(|d| d.wrong).count() as u64;
    for d in done {
        if let (Some(seq), Some(_)) = (d.seq, d.latency) {
            if let Some(expected) = &replayed[seq as usize] {
                compared += 1;
                if digest(expected) != d.digest {
                    mismatches += 1;
                }
            }
        }
    }
    Verdict {
        compared,
        mismatches,
        detail: format!(
            "bulk: {compared} of {} responses replayed bit-exactly through replay_coalesced \
             (first {} samples per shard), {mismatches} wrong",
            done.len(),
            REPLAY_SAMPLES_PER_SHARD
        ),
    }
}
