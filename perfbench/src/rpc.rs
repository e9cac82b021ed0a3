//! `rpc-tiny`: an open loop of 1–8-sample requests over one
//! binary-codec connection to an in-process server on a default-config
//! coalescing pool. A sender thread sends each request when it is due;
//! a receiver thread reads the responses. Latency runs from the due
//! time. Responses are checked against the server's replay audit.

use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ctgauss_core::CtSampler;
use ctgauss_pool::{replay_coalesced, Pool};
use ctgauss_prng::{RandomSource, SeedTree, SplitMix64};
use ctgauss_rpc_client::harness::{verify_replay_coalesced, RequestOutcome};
use ctgauss_rpc_core::{
    codec, frame, CodecKind, FrameOutcome, ReplayAudit, Request, RequestBody, Response,
    ResponseBody,
};
use ctgauss_rpc_server::{DrainReport, Server, ServerConfig};

use crate::bulk::spawn_pool;
use crate::common::{
    build_pool_profiles, derive_seed, Metric, Op, PassOutcome, PassPlan, SetupInfo, Verdict,
    POOL_PROFILES,
};
use crate::cpu;
use crate::stats::{median, summarize, Schedule};
use crate::trace::{durations_ns, Recorder, Span};

/// Offered load: a burst of `BURST` requests every 50 ms, 320 requests
/// per second.
///
/// The server writes a response's length prefix and payload separately
/// without `TCP_NODELAY`, so Nagle holds the payload until the client
/// ACKs the prefix. The client delays that ACK (about 40 ms) unless it
/// has data of its own to send. Evenly spaced at 25 requests per second
/// and above, the next request carries the ACK, and the stall shrinks
/// to the gap between requests (about 4 ms at 250 per second). A whole
/// burst is sent before its first response comes back, and the next
/// burst comes after the delayed ACK, so every response waits for it
/// and the workload measures the stall as shipped. At most one burst
/// is in flight, half the server's per-connection quota of 32, so
/// refusals would measure the program and not the quota.
pub const BURSTS_PER_SECOND: f64 = 20.0;

/// Requests per burst, all due at the same instant.
pub const BURST: u64 = 16;

/// Largest request, in samples; each request asks for 1 to this many.
const MAX_COUNT: u64 = 8;

/// How long the receiver waits for stragglers after the last send
/// before it counts them as failed.
const GRACE: Duration = Duration::from_secs(2);

/// The receiver's read timeout. A frame whose payload lags its length
/// prefix by longer than this counts as a broken connection, so it must
/// exceed any stall worth measuring (delayed ACKs wait up to 200 ms).
const READ_TICK: Duration = Duration::from_millis(500);

const CODEC: CodecKind = CodecKind::Binary;

/// A running server with a connected client socket.
pub struct State {
    server: Server,
    pool: Arc<Pool>,
    samplers: Vec<Arc<CtSampler>>,
    pool_seed: u64,
    stream: TcpStream,
    seed: u64,
}

/// Builds the profiles, spawns the pool, binds the server on loopback
/// and connects one client.
///
/// # Panics
///
/// Panics if the loopback server cannot be bound or reached.
pub fn setup(seed: u64) -> (State, SetupInfo) {
    let pool_seed = derive_seed(seed, 20);
    let (samplers, synth) = build_pool_profiles();
    let (pool, ids) = spawn_pool(&samplers, pool_seed);
    let pool = Arc::new(pool);
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::clone(&pool),
        ids,
        ServerConfig::default(),
    )
    .expect("bind a loopback port");
    let stream = connect(&server).expect("connect to the loopback server");
    let info = SetupInfo {
        synth,
        keygen: None,
    };
    let state = State {
        server,
        pool,
        samplers,
        pool_seed,
        stream,
        seed,
    };
    (state, info)
}

/// Connects and says hello the way `rpc-client` does, including its
/// `TCP_NODELAY`, so any stall measured is the server's.
fn connect(server: &Server) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(server.local_addr())?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    let fail = |e: ctgauss_rpc_core::FrameError| std::io::Error::other(e.to_string());
    frame::write_hello(&mut &stream, CODEC).map_err(fail)?;
    if frame::read_hello(&mut &stream).map_err(fail)? != CODEC {
        return Err(std::io::Error::other("server did not echo the hello"));
    }
    Ok(stream)
}

/// Request `i`'s profile and size: a pure function of the seed. Each
/// run of 8 requests asks for 1 to 8 samples once each, and each run of
/// 3 uses every profile once, in seeded orders, so the mix is the same
/// on every seed and only the order changes.
fn request_shape(seed: u64, i: u64) -> (u32, u32) {
    let profiles = POOL_PROFILES.len() as u64;
    let profile = block_permutation(derive_seed(seed, 0x7000_0000 + i / profiles), profiles)
        [(i % profiles) as usize];
    let count = 1 + block_permutation(derive_seed(seed, 0x7100_0000 + i / MAX_COUNT), MAX_COUNT)
        [(i % MAX_COUNT) as usize];
    (profile as u32, count as u32)
}

/// A seeded permutation of `0..n` (Fisher-Yates).
fn block_permutation(seed: u64, n: u64) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed);
    let mut items: Vec<u64> = (0..n).collect();
    for k in (1..items.len()).rev() {
        let j = (rng.next_u64() % (k as u64 + 1)) as usize;
        items.swap(k, j);
    }
    items
}

/// What the sender did for one request.
struct Sent {
    due: Instant,
    sent: Instant,
}

/// What arrived for one request id.
struct Received {
    id: u64,
    at: Instant,
    body: ResponseBody,
}

/// Sends for `plan.seconds`, drains, checks the replay audit, then
/// shuts the server down.
pub fn run(state: State, plan: &PassPlan) -> PassOutcome {
    let started = Instant::now();
    let cpu_started = cpu::process();
    let schedule = Schedule::new(started, BURSTS_PER_SECOND, BURST);
    let deadline = started + Duration::from_secs_f64(plan.seconds);
    let sent_total = AtomicU64::new(0);
    let sending = AtomicBool::new(true);
    let reader = state.stream.try_clone().expect("clone the client socket");
    let (sent, send_spans, received, recv_spans, transport_error) = std::thread::scope(|s| {
        let sender = s.spawn(|| {
            let out = send_loop(&state, &schedule, deadline, plan);
            sent_total.store(out.0.len() as u64, Ordering::SeqCst);
            sending.store(false, Ordering::SeqCst);
            out
        });
        let receiver = s.spawn(|| recv_loop(reader, &sent_total, &sending, deadline, plan));
        let (sent, send_spans) = sender.join().expect("sender thread panicked");
        let (received, recv_spans, error) = receiver.join().expect("receiver thread panicked");
        (sent, send_spans, received, recv_spans, error)
    });
    let elapsed = started.elapsed();
    let cpu = cpu::process() - cpu_started;

    // Match responses to requests by id (request i has id i + 1).
    let mut ops: Vec<Op> = sent
        .iter()
        .map(|s| Op {
            at: (s.due - started).as_secs_f64(),
            latency: None,
            samples: 0,
        })
        .collect();
    let mut rtts = Vec::new();
    let mut outcomes = Vec::new();
    let (mut rejected, mut wrong, mut samples) = (0u64, 0u64, 0u64);
    let mut rec = Recorder::new(plan.epoch, plan.lanes + 2, plan.tracing);
    for r in received {
        let Some(i) = r.id.checked_sub(1).filter(|&i| i < sent.len() as u64) else {
            wrong += 1;
            continue;
        };
        let request = &sent[i as usize];
        match r.body {
            ResponseBody::Samples {
                seq, samples: s, ..
            } => {
                if s.len() != request_shape(state.seed, i).1 as usize {
                    wrong += 1;
                    continue;
                }
                ops[i as usize] = Op {
                    at: (r.at - started).as_secs_f64(),
                    latency: Some(schedule.latency(i, r.at)),
                    samples: s.len() as u64,
                };
                rtts.push(Some(r.at - request.sent));
                rec.record("rpc.request", r.id, None, request.due, r.at);
                rec.record("rpc.rtt", r.id, None, request.sent, r.at);
                samples += s.len() as u64;
                outcomes.push(RequestOutcome::Samples {
                    seq,
                    samples: s,
                    attempts: 1,
                });
            }
            ResponseBody::Error(_) => rejected += 1,
            _ => wrong += 1,
        }
    }

    let audit = fetch_audit(&state.stream, sent.len() as u64 + 1);
    drop(state.stream);
    let drain = state.server.shutdown();
    let steals = state.pool.steals();
    let mut verdict = match audit {
        Some(audit) => verify(
            &state.pool,
            &state.samplers,
            state.pool_seed,
            &audit,
            &outcomes,
            steals,
        ),
        None => Verdict {
            compared: 0,
            mismatches: 1,
            detail: "rpc-tiny: the replay audit could not be fetched".to_owned(),
        },
    };
    verdict.mismatches += wrong;
    if let Some(e) = transport_error {
        verdict.mismatches += 1;
        verdict.detail.push_str(&format!("; transport error: {e}"));
    }

    let mut spans = send_spans;
    spans.extend(recv_spans);
    let layer = if plan.tracing {
        layer_metrics(&state.pool, &drain, rejected, &sent, &spans, &rtts)
    } else {
        Vec::new()
    };
    spans.extend(rec.into_spans());
    PassOutcome {
        ops,
        samples,
        elapsed,
        cpu,
        layer,
        spans,
        verdict,
    }
}

/// The open-loop sender: sleeps until each request is due, encodes and
/// writes it, and stops at the deadline.
fn send_loop(
    state: &State,
    schedule: &Schedule,
    deadline: Instant,
    plan: &PassPlan,
) -> (Vec<Sent>, Vec<Span>) {
    let mut rec = Recorder::new(plan.epoch, plan.lanes, plan.tracing);
    let mut sent = Vec::new();
    let mut writer = &state.stream;
    for i in 0u64.. {
        let due = schedule.due(i);
        if due >= deadline {
            break;
        }
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let (profile, count) = request_shape(state.seed, i);
        let id = i + 1;
        let t0 = Instant::now();
        let payload = codec::encode_request(
            CODEC,
            &Request {
                id,
                body: RequestBody::Sample {
                    profile,
                    count,
                    deadline_ms: 0,
                },
            },
        );
        let t1 = Instant::now();
        if frame::write_frame(&mut writer, &payload).is_err() {
            break;
        }
        let t2 = Instant::now();
        rec.record("gen.lag", id, None, due, t0);
        rec.record("codec.encode_request", id, None, t0, t1);
        rec.record("frame.write", id, None, t1, t2);
        sent.push(Sent { due, sent: t0 });
    }
    (sent, rec.into_spans())
}

/// The receiver: reads and decodes frames until every sent request has
/// an answer, or the grace period after the deadline runs out.
fn recv_loop(
    reader: TcpStream,
    sent_total: &AtomicU64,
    sending: &AtomicBool,
    deadline: Instant,
    plan: &PassPlan,
) -> (Vec<Received>, Vec<Span>, Option<String>) {
    let mut rec = Recorder::new(plan.epoch, plan.lanes + 1, plan.tracing);
    let mut received = Vec::new();
    let mut reader = &reader;
    if let Err(e) = reader.set_read_timeout(Some(READ_TICK)) {
        return (received, rec.into_spans(), Some(e.to_string()));
    }
    loop {
        let done = !sending.load(Ordering::SeqCst)
            && received.len() as u64 >= sent_total.load(Ordering::SeqCst);
        if done || Instant::now() > deadline + GRACE {
            return (received, rec.into_spans(), None);
        }
        match frame::read_frame(&mut reader) {
            Ok(FrameOutcome::Frame(payload)) => {
                let at = Instant::now();
                let response = codec::decode_response(CODEC, &payload);
                let decoded = Instant::now();
                match response {
                    Ok(Response { id, body }) => {
                        rec.record("codec.decode_response", id, None, at, decoded);
                        received.push(Received { id, at, body });
                    }
                    Err(e) => return (received, rec.into_spans(), Some(e.to_string())),
                }
            }
            Ok(FrameOutcome::Idle) => {}
            Ok(FrameOutcome::Eof) => {
                return (received, rec.into_spans(), Some("server closed".into()))
            }
            Err(e) => return (received, rec.into_spans(), Some(e.to_string())),
        }
    }
}

/// Asks the server for its replay audit on the client connection.
fn fetch_audit(stream: &TcpStream, id: u64) -> Option<ReplayAudit> {
    let payload = codec::encode_request(
        CODEC,
        &Request {
            id,
            body: RequestBody::ReplayAudit,
        },
    );
    let mut io = stream;
    io.set_read_timeout(Some(Duration::from_secs(5))).ok()?;
    frame::write_frame(&mut io, &payload).ok()?;
    loop {
        match frame::read_frame(&mut io).ok()? {
            FrameOutcome::Frame(payload) => {
                let response = codec::decode_response(CODEC, &payload).ok()?;
                if let (true, ResponseBody::ReplayAudit(audit)) = (response.id == id, response.body)
                {
                    return Some(audit);
                }
            }
            FrameOutcome::Idle | FrameOutcome::Eof => return None,
        }
    }
}

/// Checks every delivered response against the audit. The clean replay
/// of `verify_replay_coalesced` holds only if no gang was stolen; if
/// one was, the pool's dispatch log says who served it.
fn verify(
    pool: &Pool,
    samplers: &[Arc<CtSampler>],
    pool_seed: u64,
    audit: &ReplayAudit,
    outcomes: &[RequestOutcome],
    steals: u64,
) -> Verdict {
    if steals == 0 && audit.failures.is_empty() {
        let report = verify_replay_coalesced(pool_seed, audit, outcomes, samplers);
        return Verdict {
            compared: report.compared as u64,
            mismatches: report.mismatches as u64,
            detail: format!(
                "rpc-tiny: {} responses checked through verify_replay_coalesced, {} mismatched",
                report.compared, report.mismatches
            ),
        };
    }
    let replayed = replay_coalesced(
        &SeedTree::from_u64_seed(pool_seed),
        samplers,
        pool.width(),
        &audit.trace_entries(),
        &audit.failure_events(),
        &pool.dispatch_log(),
    );
    let mut mismatches = 0u64;
    for outcome in outcomes {
        if let RequestOutcome::Samples { seq, samples, .. } = outcome {
            if replayed.get(*seq as usize).and_then(Option::as_ref) != Some(samples) {
                mismatches += 1;
            }
        }
    }
    Verdict {
        compared: outcomes.len() as u64,
        mismatches,
        detail: format!(
            "rpc-tiny: {} responses checked through replay_coalesced over the dispatch log \
             ({steals} stolen gangs), {mismatches} mismatched",
            outcomes.len()
        ),
    }
}

/// The per-layer metrics this workload is the home of.
fn layer_metrics(
    pool: &Pool,
    drain: &DrainReport,
    rejected: u64,
    sent: &[Sent],
    spans: &[Span],
    rtts: &[Option<Duration>],
) -> Vec<Metric> {
    let rtt = (!rtts.is_empty()).then(|| summarize(rtts));
    let metrics = pool.metrics();
    let staging = metrics.histogram("pool", "staging_wait_ns");
    let staging_us = |p: f64| staging.map_or(0.0, |h| h.percentile(p) as f64 / 1e3);
    let span_median = |name: &str| {
        let d = durations_ns(spans, name);
        if d.is_empty() {
            0.0
        } else {
            median(&d)
        }
    };
    let lags: Vec<Option<Duration>> = sent.iter().map(|s| Some(s.sent - s.due)).collect();
    let lag_tail = if lags.is_empty() {
        0.0
    } else {
        summarize(&lags).tail.value_us
    };
    vec![
        Metric::new("pool.staging_wait_p50_us", staging_us(0.50), "us"),
        Metric::new("pool.staging_wait_p99_us", staging_us(0.99), "us"),
        Metric::new(
            "pool.dispatch_fill_ratio",
            metrics.gauge("pool", "dispatch_fill_ratio").unwrap_or(0.0),
            "frac",
        ),
        Metric::new("pool.steals", pool.steals() as f64, "count"),
        Metric::new(
            "codec.encode_request_ns",
            span_median("codec.encode_request"),
            "ns",
        ),
        Metric::new(
            "codec.decode_response_ns",
            span_median("codec.decode_response"),
            "ns",
        ),
        Metric::new("rpc.rtt_p50_us", rtt.map_or(0.0, |r| r.p50.value_us), "us"),
        Metric::new("rpc.rtt_p99_us", rtt.map_or(0.0, |r| r.tail.value_us), "us"),
        Metric::new("rpc.accepted", drain.accepted as f64, "count"),
        Metric::new("rpc.responses", drain.responses as f64, "count"),
        Metric::new("rpc.pool_errors", drain.pool_errors as f64, "count"),
        Metric::new(
            "rpc.deadline_expired",
            drain.deadline_expired as f64,
            "count",
        ),
        Metric::new("rpc.rejected", rejected as f64, "count"),
        Metric::new("gen.lag_p99_us", lag_tail, "us"),
    ]
}
