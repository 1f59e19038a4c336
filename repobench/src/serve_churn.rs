//! `serve_churn`: paced open-loop traffic against an in-process server.
//!
//! The only workload that touches the serve layers. An op is one interval
//! of a session, sent open-loop on a fixed schedule to `Server::spawn` over
//! a Unix socket: real quick-suite trace events split into fixed-size
//! `Events` frames, then `EndInterval`, answered by `Classified`. Session
//! popularity is Zipf-skewed over four times the store's `max_live` active
//! sessions, so the store serves both resident hits and snapshot restores:
//! a change that speeds one and slows the other shows. Each session runs
//! one trace prefix from `Hello` to `Close`, sessions cycle through the
//! three extractors, and every fourth interval adds `NextPhase` and
//! `RunLength` queries. An op is timed from its scheduled send time, so a
//! stalled reply also delays the measured latency of every op queued
//! behind it. A run sets up [`SETUPS`] times, each set-up followed by an
//! equal share of the measured ops against its server; `setup_s` is the
//! median set-up.

use std::collections::VecDeque;
use std::io;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use tpcp_core::BranchEvent;
use tpcp_experiments::SuiteParams;
use tpcp_serve::session::SessionStore;
use tpcp_serve::{
    QueryKind, Request, Response, ServeConfig, ServeTelemetry, Server, ServerHandle, WireEvent,
    WireExtractor,
};
use tpcp_trace::{wire, FrameReader, FrameWriter, IntervalSource};
use tpcp_workloads::BenchmarkKind;

use crate::stats::{percentile, sorted, splitmix, tail};
use crate::tracer::Tracer;
use crate::{Ctx, Measured};

/// Offered load, in intervals per second.
pub const RATE_PER_S: f64 = 2500.0;
/// An interval answered later than this after its scheduled send fails.
/// It catches a server that stops answering or falls far behind the
/// offered load; smaller losses show in `op_ms_p50` and `op_ms_tail`. It
/// sits far above the host's own stalls: on a shared 2-vCPU KVM guest
/// (Xeon, 2.0 GHz) the slowest op of a 30 s run took 10–37 ms, yet ten
/// runs of one build once had 1407 of about 750 000 ops answered later
/// than 100 ms, as a stall of the whole guest of about half a second would.
pub const LATENCY_LIMIT_MS: f64 = 1000.0;
/// Sessions with traffic at any moment.
pub const ACTIVE: usize = 64;
/// Store bounds and serve loop shape.
pub const MAX_LIVE: usize = 16;
/// Large enough that no parked session is ever dropped.
pub const MAX_PARKED: usize = 4096;
/// Session-store shards.
pub const SHARDS: usize = 4;
/// Serve worker threads.
pub const WORKERS: usize = 2;
/// Events per `Events` frame.
pub const EVENTS_PER_FRAME: usize = 512;
/// Every this-many intervals a session also asks two queries.
pub const QUERY_EVERY: usize = 4;
/// Intervals of each benchmark's trace a session replays.
pub const PREFIX_INTERVALS: usize = 12;

/// Set-ups per run, spread over it: the host's slow stretches last seconds,
/// so set-ups far apart sample it more independently than back to back.
pub const SETUPS: usize = 8;

/// Workload parameters, as `BENCHMARK.json` must record them.
pub fn params() -> String {
    format!(
        "rate={RATE_PER_S}/s limit={LATENCY_LIMIT_MS}ms active={ACTIVE} max_live={MAX_LIVE} \
         max_parked={MAX_PARKED} shards={SHARDS} workers={WORKERS} events/frame={EVENTS_PER_FRAME} \
         query=every{QUERY_EVERY} prefix={PREFIX_INTERVALS} setups={SETUPS}"
    )
}

/// Ops per peak-RSS window (ops overlap, so windows are cut by the sender
/// while it waits for the next op's slot).
const RSS_WINDOW_OPS: u32 = 250;
/// Ops between samples of the server's queue gauges.
const GAUGE_EVERY_OPS: u32 = 16;
/// How long the receiver waits for a reply before failing the rest.
const REPLY_TIMEOUT: Duration = Duration::from_secs(5);

/// One interval of a trace prefix, as a session sends it.
#[derive(Debug, Clone, PartialEq)]
pub struct Interval {
    /// The interval's events.
    pub events: Vec<BranchEvent>,
    /// Its CPI feedback.
    pub cpi: f64,
}

/// The generated inputs: a trace prefix per quick-suite benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    /// `traces[b][i]`: interval `i` of benchmark `b`.
    pub traces: Vec<Vec<Interval>>,
}

/// Simulates the first `prefix` intervals of each of `kinds` at the seed
/// of `params`.
pub fn make_inputs(params: &SuiteParams, kinds: &[BenchmarkKind], prefix: usize) -> Inputs {
    let params = params.workload;
    let traces = kinds
        .iter()
        .map(|&kind| {
            let mut sim = kind.build(&params).simulate(&params);
            let mut out = Vec::new();
            while out.len() < prefix {
                let mut events = Vec::new();
                let Some(summary) = sim.next_interval(&mut |ev| events.push(ev)) else {
                    break;
                };
                out.push(Interval {
                    events,
                    cpi: summary.cpi(),
                });
            }
            out
        })
        .collect();
    Inputs { traces }
}

/// What each session interval must classify to:
/// `phases[b][extractor][i]`, from an in-process replay through a
/// `SessionStore` with no eviction limit.
pub fn reference(inputs: &Inputs) -> Vec<Vec<Vec<u64>>> {
    inputs
        .traces
        .iter()
        .map(|trace| {
            WireExtractor::ALL
                .iter()
                .map(|&extractor| {
                    let mut store = SessionStore::new(usize::MAX, usize::MAX);
                    store
                        .open(1, extractor)
                        .expect("a fresh store accepts session 1");
                    trace
                        .iter()
                        .map(|iv| {
                            let session = store.touch(1).expect("session 1 is open");
                            session.observe_batch(&iv.events);
                            session.end_interval(iv.cpi).phase
                        })
                        .collect()
                })
                .collect()
        })
        .collect()
}

/// One scheduled interval of one session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// Session id (nonzero).
    pub session: u64,
    /// Which benchmark's prefix the session replays.
    pub trace: usize,
    /// The session's extractor.
    pub extractor: WireExtractor,
    /// Interval index within the prefix.
    pub interval: usize,
    /// `Hello` precedes the interval.
    pub hello: bool,
    /// `Close` follows it.
    pub close: bool,
    /// `NextPhase` and `RunLength` queries follow it.
    pub query: bool,
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    session: u64,
    trace: usize,
    next: usize,
}

/// The seeded op sequence: Zipf(1) popularity over [`ACTIVE`] slots, each
/// holding one session at a time.
#[derive(Debug, Clone)]
pub struct Schedule {
    rng: u64,
    cdf: Vec<f64>,
    slots: Vec<Slot>,
    lengths: Vec<usize>,
    sessions: u64,
}

impl Schedule {
    /// A schedule over prefixes of the given lengths.
    pub fn new(seed: u64, lengths: Vec<usize>) -> Self {
        let weights: Vec<f64> = (1..=ACTIVE).map(|r| 1.0 / r as f64).collect();
        let total: f64 = weights.iter().sum();
        let cdf = weights
            .iter()
            .scan(0.0, |acc, w| {
                *acc += w / total;
                Some(*acc)
            })
            .collect();
        let mut s = Self {
            rng: seed ^ 0x5e55_1015,
            cdf,
            slots: Vec::with_capacity(ACTIVE),
            lengths,
            sessions: 0,
        };
        for _ in 0..ACTIVE {
            let slot = s.fresh_slot();
            s.slots.push(slot);
        }
        s
    }

    fn fresh_slot(&mut self) -> Slot {
        self.sessions += 1;
        Slot {
            session: self.sessions,
            trace: (self.sessions as usize - 1) % self.lengths.len(),
            next: 0,
        }
    }

    fn pick(&mut self) -> usize {
        let u = (splitmix(&mut self.rng) >> 11) as f64 / (1u64 << 53) as f64;
        self.cdf.partition_point(|&c| c < u).min(ACTIVE - 1)
    }
}

impl Iterator for Schedule {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        let k = self.pick();
        let slot = self.slots[k];
        let last = self.lengths[slot.trace].saturating_sub(1);
        let op = Op {
            session: slot.session,
            trace: slot.trace,
            extractor: WireExtractor::ALL[(slot.session % 3) as usize],
            interval: slot.next,
            hello: slot.next == 0,
            close: slot.next == last,
            query: (slot.next + 1).is_multiple_of(QUERY_EVERY),
        };
        self.slots[k] = if op.close {
            self.fresh_slot()
        } else {
            Slot {
                next: slot.next + 1,
                ..slot
            }
        };
        Some(op)
    }
}

/// Frame payloads for every op, with each interval's `Events` bodies
/// encoded once in setup: per op, the sender only prefixes the session id,
/// so the client takes as little CPU from the server as it can.
#[derive(Debug, Clone)]
pub struct Encoded {
    events_tag: u8,
    /// `bodies[trace][interval][frame]`: an `Events` payload after its
    /// session id.
    bodies: Vec<Vec<Vec<Vec<u8>>>>,
}

impl Encoded {
    /// Encodes every interval of `inputs` in [`EVENTS_PER_FRAME`] chunks.
    pub fn new(inputs: &Inputs) -> Self {
        let encode = |chunk: &[BranchEvent]| {
            Request::Events {
                session: 0,
                events: chunk
                    .iter()
                    .map(|ev| WireEvent {
                        pc: ev.pc,
                        insns: u64::from(ev.insns),
                    })
                    .collect(),
            }
            .encode()
        };
        // A payload is a tag byte, the session id as a varint (one byte
        // for id 0), then the body.
        let events_tag = encode(&[])[0];
        let bodies = inputs
            .traces
            .iter()
            .map(|trace| {
                trace
                    .iter()
                    .map(|iv| {
                        iv.events
                            .chunks(EVENTS_PER_FRAME)
                            .map(|chunk| encode(chunk)[2..].to_vec())
                            .collect()
                    })
                    .collect()
            })
            .collect();
        Self { events_tag, bodies }
    }

    /// The request payloads of one op, in send order.
    pub fn payloads(&self, op: &Op, inputs: &Inputs) -> Vec<Vec<u8>> {
        let session = op.session;
        let mut out = Vec::new();
        if op.hello {
            out.push(
                Request::Hello {
                    session,
                    extractor: op.extractor,
                }
                .encode(),
            );
        }
        for body in &self.bodies[op.trace][op.interval] {
            let mut payload = Vec::with_capacity(body.len() + 11);
            payload.push(self.events_tag);
            wire::put_varint(&mut payload, session);
            payload.extend_from_slice(body);
            out.push(payload);
        }
        let cpi = inputs.traces[op.trace][op.interval].cpi;
        out.push(Request::EndInterval { session, cpi }.encode());
        if op.query {
            for kind in [QueryKind::NextPhase, QueryKind::RunLength] {
                out.push(Request::Query { session, kind }.encode());
            }
        }
        if op.close {
            out.push(Request::Close { session }.encode());
        }
        out
    }
}

/// A reply the client waits for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expect {
    Ok,
    Classified,
    Answer,
}

fn expected(op: &Op) -> VecDeque<Expect> {
    let mut out = VecDeque::new();
    if op.hello {
        out.push_back(Expect::Ok);
    }
    out.push_back(Expect::Classified);
    if op.query {
        out.extend([Expect::Answer, Expect::Answer]);
    }
    if op.close {
        out.push_back(Expect::Ok);
    }
    out
}

/// The outcome of one op of a live run.
#[derive(Debug, Clone, PartialEq)]
pub struct OpResult {
    /// Scheduled send time to last reply, in ms.
    pub latency_ms: f64,
    /// Why the op's replies were wrong, if they were.
    pub error: Option<String>,
}

/// A finished live run.
#[derive(Debug, Default)]
pub struct LiveRun {
    /// The ops sent, in order.
    pub ops: Vec<Op>,
    /// Their results, in the same order (unanswered ops are missing).
    pub results: Vec<OpResult>,
    /// Actual send start minus scheduled time, per op, in ms.
    pub gen_lag_ms: Vec<f64>,
    /// Whether each op was sent with client spans on.
    pub traced: Vec<bool>,
    /// Most ops sent and not yet answered at any send.
    pub backlog_max: u64,
    /// Error frames the server sent.
    pub error_frames: u64,
    /// Peak `dispatch_depth` and `queued_responses` gauges seen.
    pub gauges_max: (u64, u64),
}

/// What the receiver learns about an op when the sender starts it.
struct Sent {
    due: Instant,
    op: Op,
    expect: VecDeque<Expect>,
}

/// Sends `ops` open-loop at `rate` per second over one connection and
/// times each from its scheduled send. One sender and one receiver thread.
/// `want(op)` is the phase the op's `Classified` must carry. `keep_going`
/// stops the schedule; `sample` runs while the sender waits for a slot.
/// With `alternate`, every other op is sent with client spans on.
#[allow(clippy::too_many_arguments)]
pub fn drive(
    socket: &Path,
    inputs: &Inputs,
    encoded: &Encoded,
    ops: impl Iterator<Item = Op>,
    rate: f64,
    want: &(dyn Fn(&Op) -> u64 + Sync),
    keep_going: &mut dyn FnMut(usize) -> bool,
    sample: &mut dyn FnMut(),
    tracer: &mut Tracer,
    alternate: bool,
) -> io::Result<LiveRun> {
    let stream = UnixStream::connect(socket)?;
    let read_half = stream.try_clone()?;
    read_half.set_read_timeout(Some(REPLY_TIMEOUT))?;
    let answered = AtomicU64::new(0);
    let (tx, rx) = mpsc::channel::<Sent>();
    let mut run = LiveRun::default();
    std::thread::scope(|scope| -> io::Result<()> {
        let answered = &answered;
        let receiver = scope.spawn(move || receive(read_half, rx, want, answered));
        let mut writer = FrameWriter::new(&stream);
        let start = Instant::now() + Duration::from_millis(5);
        let mut sent_ok = Ok(());
        for (i, op) in ops.enumerate() {
            if !keep_going(i) {
                break;
            }
            let traced = alternate && i % 2 == 1;
            tracer.set_enabled(traced);
            tracer.next_op();
            let payloads = tracer.span("serve.client.encode", || encoded.payloads(&op, inputs));
            let due = start + Duration::from_secs_f64(i as f64 / rate);
            let now = Instant::now();
            if due > now {
                sample();
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
            }
            run.gen_lag_ms.push(due.elapsed().as_secs_f64() * 1e3);
            run.backlog_max = run
                .backlog_max
                .max(i as u64 - answered.load(Ordering::Relaxed));
            run.ops.push(op);
            run.traced.push(traced);
            if tx
                .send(Sent {
                    due,
                    op,
                    expect: expected(&op),
                })
                .is_err()
            {
                break;
            }
            let span = tracer.begin("serve.client.send");
            let sent = payloads.iter().try_for_each(|p| writer.write_frame(p));
            tracer.end(span);
            if let Err(e) = sent {
                sent_ok = Err(e);
                break;
            }
        }
        tracer.set_enabled(false);
        drop(tx);
        let (results, error_frames) = receiver.join().expect("receiver thread panicked");
        run.results = results;
        run.error_frames = error_frames;
        sent_ok
    })?;
    Ok(run)
}

/// The receiver: matches replies to the ops in send order.
fn receive(
    stream: UnixStream,
    rx: mpsc::Receiver<Sent>,
    want: &(dyn Fn(&Op) -> u64 + Sync),
    answered: &AtomicU64,
) -> (Vec<OpResult>, u64) {
    let mut reader = FrameReader::new(stream);
    let mut results = Vec::new();
    let mut error_frames = 0u64;
    while let Ok(mut sent) = rx.recv() {
        let mut error = None;
        while let Some(expect) = sent.expect.pop_front() {
            let response = match reader.read_frame() {
                Ok(Some(payload)) => Response::decode(payload),
                Ok(None) => {
                    error.get_or_insert("server closed the connection".to_owned());
                    break;
                }
                Err(e) => {
                    error.get_or_insert(format!("no reply: {e}"));
                    break;
                }
            };
            let session = sent.op.session;
            let verdict = match (expect, response) {
                (_, Ok(Response::Error { code, detail, .. })) => {
                    error_frames += 1;
                    Err(format!("error frame {code:?}: {detail}"))
                }
                (Expect::Ok, Ok(Response::Ok { session: s })) if s == session => Ok(()),
                (Expect::Answer, Ok(Response::Answer { session: s, .. })) if s == session => Ok(()),
                (
                    Expect::Classified,
                    Ok(Response::Classified {
                        session: s,
                        phase,
                        intervals,
                        ..
                    }),
                ) if s == session => {
                    let want_phase = want(&sent.op);
                    if phase != want_phase {
                        Err(format!(
                            "session {session} interval {}: phase {phase}, in-process replay says {want_phase}",
                            sent.op.interval
                        ))
                    } else if intervals != sent.op.interval as u64 + 1 {
                        Err(format!("session {session}: interval count {intervals}"))
                    } else {
                        Ok(())
                    }
                }
                (expect, other) => Err(format!("expected {expect:?}, got {other:?}")),
            };
            if let Err(e) = verdict {
                error.get_or_insert(e);
            }
        }
        let unanswered = error
            .as_deref()
            .is_some_and(|e| e.starts_with("no reply") || e.starts_with("server closed"));
        results.push(OpResult {
            latency_ms: sent.due.elapsed().as_secs_f64() * 1e3,
            error,
        });
        answered.fetch_add(1, Ordering::Relaxed);
        if unanswered {
            // The connection is gone: every later op fails unanswered.
            while rx.recv().is_ok() {}
            break;
        }
    }
    (results, error_frames)
}

fn server_config(socket: &Path) -> ServeConfig {
    ServeConfig {
        tcp: None,
        unix: Some(socket.to_path_buf()),
        max_live: MAX_LIVE,
        max_parked: MAX_PARKED,
        workers: WORKERS,
        shards: SHARDS,
        ..ServeConfig::default()
    }
}

/// Everything a live run needs.
struct Setup {
    inputs: Inputs,
    encoded: Encoded,
    phases: Vec<Vec<Vec<u64>>>,
    server: ServerHandle,
}

fn setup(ctx: &Ctx, socket: &Path) -> io::Result<Setup> {
    let inputs = make_inputs(&ctx.params(), &BenchmarkKind::ALL, PREFIX_INTERVALS);
    let encoded = Encoded::new(&inputs);
    let phases = reference(&inputs);
    let server = Server::spawn(server_config(socket))?;
    Ok(Setup {
        inputs,
        encoded,
        phases,
        server,
    })
}

fn extractor_index(e: WireExtractor) -> usize {
    WireExtractor::ALL
        .iter()
        .position(|&x| x == e)
        .expect("every extractor is in ALL")
}

/// A live run's findings beyond op latency.
pub struct Served {
    /// The run.
    pub live: LiveRun,
    /// The server's final telemetry.
    pub telemetry: ServeTelemetry,
    /// The inputs it served.
    pub inputs: Inputs,
    /// Their encoded frames.
    pub encoded: Encoded,
}

/// One set-up, timed into `m.setup_s`, then the schedule driven while
/// `keep_going` allows and the server drained. The sender samples the
/// server's queue gauges and cuts peak-RSS windows while it waits for an
/// op's slot. With `alternate`, every other op is sent with client spans on.
fn serve(
    ctx: &Ctx,
    m: &mut Measured,
    keep_going: &mut dyn FnMut(usize) -> bool,
    alternate: bool,
    tracer: &mut Tracer,
) -> io::Result<Served> {
    let socket = ctx.scratch.join("serve.sock");
    let start = Instant::now();
    let Setup {
        inputs,
        encoded,
        phases,
        server,
    } = setup(ctx, &socket)?;
    m.setup_s.push(start.elapsed().as_secs_f64());
    let lengths = inputs.traces.iter().map(Vec::len).collect();
    let want = |op: &Op| phases[op.trace][extractor_index(op.extractor)][op.interval];
    crate::start_rss_windows();
    let mut gauges = (0u64, 0u64);
    let mut since_sample = 0u32;
    let mut sample = || {
        since_sample += 1;
        if since_sample.is_multiple_of(RSS_WINDOW_OPS) {
            m.rss_peaks_mb.push(crate::cut_rss_window());
        }
        if since_sample.is_multiple_of(GAUGE_EVERY_OPS) {
            let t = server.telemetry_now();
            gauges = (
                gauges.0.max(t.dispatch_depth),
                gauges.1.max(t.queued_responses),
            );
        }
    };
    let live = drive(
        &socket,
        &inputs,
        &encoded,
        Schedule::new(ctx.seed, lengths),
        RATE_PER_S,
        &want,
        keep_going,
        &mut sample,
        tracer,
        alternate,
    );
    let telemetry = server.join();
    let mut live = live?;
    live.gauges_max = gauges;
    Ok(Served {
        live,
        telemetry,
        inputs,
        encoded,
    })
}

/// One set-up driving a fixed number of ops (for the traced layer pass).
pub fn serve_fixed(ctx: &Ctx, ops: usize) -> io::Result<Served> {
    let mut m = Measured::default();
    serve(
        ctx,
        &mut m,
        &mut |i| i < ops,
        false,
        &mut Tracer::new(false),
    )
}

/// Runs `serve_churn`: [`SETUPS`] times a set-up followed by
/// `ctx.seconds / SETUPS` of ops against its server.
pub fn run(ctx: &Ctx, tracer: &mut Tracer) -> Measured {
    let mut m = Measured::default();
    let share = Duration::from_secs_f64(ctx.seconds / SETUPS as f64);
    let (mut intervals, mut restores, mut evictions, mut parked_drops) = (0, 0, 0, 0);
    let (mut error_frames, mut backlog_max, mut lag_ms) = (0, 0, Vec::new());
    let mut latency_max_ms = 0.0f64;
    let mut first_rss_windows = None;
    for _ in 0..SETUPS {
        // The clock starts at the segment's first op, after its set-up.
        let mut end = None;
        let mut keep_going =
            |_| Instant::now() < *end.get_or_insert_with(|| Instant::now() + share);
        let served = match serve(ctx, &mut m, &mut keep_going, ctx.trace, tracer) {
            Ok(s) => s,
            Err(e) => {
                m.setup_check(Err(format!("serve_churn: {e}")));
                return m;
            }
        };
        if first_rss_windows.is_none() {
            first_rss_windows = Some(m.rss_peaks_mb.len());
        }
        let live = served.live;
        for i in 0..live.ops.len() {
            match live.results.get(i) {
                Some(r) => {
                    m.record_op(r.latency_ms, live.traced[i]);
                    latency_max_ms = latency_max_ms.max(r.latency_ms);
                    if let Some(e) = &r.error {
                        m.check(Err(e.clone()));
                    } else if r.latency_ms > LATENCY_LIMIT_MS {
                        m.miss_limit(r.latency_ms);
                    }
                }
                None => {
                    m.attempted += 1;
                    m.check(Err(format!("op {i}: never answered")));
                }
            }
        }
        let store = served.telemetry.store;
        intervals += served.telemetry.intervals;
        restores += store.restores;
        evictions += store.evictions;
        parked_drops += store.parked_drops;
        error_frames += live.error_frames;
        backlog_max = backlog_max.max(live.backlog_max);
        lag_ms.extend(live.gen_lag_ms);
    }
    // Only the first set-up's windows count. Every set-up replays the same
    // schedule, so they see every kind of op; later set-ups' peaks also hold
    // what the earlier servers' and clients' exited threads left behind
    // (cached thread stacks and allocator arenas), which took the peak from
    // 17 MB to 22–23.5 MB over a run.
    m.rss_peaks_mb.truncate(first_rss_windows.unwrap_or(0));
    m.check(if parked_drops == 0 {
        Ok(())
    } else {
        Err(format!("{parked_drops} parked sessions dropped"))
    });
    let lag = sorted(&lag_ms);
    if !lag.is_empty() {
        let t = tail(&lag);
        m.note(format!(
            "serve_churn: generator lag p50 {:.3} ms, p{} {:.3} ms ({} beyond); backlog max {backlog_max}",
            percentile(&lag, 50.0),
            t.percentile,
            t.value,
            t.beyond,
        ));
    }
    m.note(format!(
        "serve_churn: slowest op {latency_max_ms:.3} ms; {} ops over the {LATENCY_LIMIT_MS} ms limit",
        m.failed - m.wrong
    ));
    m.note(format!(
        "serve_churn: {intervals} intervals, {restores} restores, {evictions} evictions, \
         {parked_drops} parked drops, {error_frames} error frames"
    ));
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::os::unix::net::UnixListener;
    use tpcp_serve::{decode_request_into, FastRequest};

    /// The request frames of one op, in send order.
    fn requests(op: &Op, inputs: &Inputs) -> Vec<Request> {
        let session = op.session;
        let interval = &inputs.traces[op.trace][op.interval];
        let mut out = Vec::new();
        if op.hello {
            out.push(Request::Hello {
                session,
                extractor: op.extractor,
            });
        }
        for chunk in interval.events.chunks(EVENTS_PER_FRAME) {
            out.push(Request::Events {
                session,
                events: chunk
                    .iter()
                    .map(|ev| WireEvent {
                        pc: ev.pc,
                        insns: u64::from(ev.insns),
                    })
                    .collect(),
            });
        }
        out.push(Request::EndInterval {
            session,
            cpi: interval.cpi,
        });
        if op.query {
            for kind in [QueryKind::NextPhase, QueryKind::RunLength] {
                out.push(Request::Query { session, kind });
            }
        }
        if op.close {
            out.push(Request::Close { session });
        }
        out
    }

    fn tiny_inputs() -> Inputs {
        let iv = |pc: u64| Interval {
            events: (0..8).map(|j| BranchEvent::new(pc + j * 64, 20)).collect(),
            cpi: 1.0,
        };
        Inputs {
            traces: vec![(0..3).map(|i| iv(0x1000 * (i + 1))).collect()],
        }
    }

    /// A fake server that answers every frame the way `tpcp-serve` does
    /// but holds the reply to op `stall_op` for `stall`.
    fn fake_server(listener: UnixListener, stall_op: usize, stall: Duration) {
        let (stream, _) = listener.accept().expect("accept");
        let mut reader = FrameReader::new(stream.try_clone().expect("clone"));
        let mut writer = FrameWriter::new(&stream);
        let mut interval = 0usize;
        let mut scratch = Vec::new();
        while let Ok(Some(payload)) = reader.read_frame() {
            let request = decode_request_into(payload, &mut scratch).expect("well-formed request");
            let reply = match request {
                FastRequest::Hello { session, .. } | FastRequest::Close { session } => {
                    Some(Response::Ok { session })
                }
                FastRequest::Events { .. } => None,
                FastRequest::EndInterval { session, .. } => {
                    if interval == stall_op {
                        std::thread::sleep(stall);
                    }
                    interval += 1;
                    Some(Response::Classified {
                        session,
                        phase: 0,
                        transition: false,
                        intervals: 0,
                    })
                }
                FastRequest::Query { session, kind } => Some(Response::Answer {
                    session,
                    kind,
                    value: None,
                }),
            };
            if let Some(r) = reply {
                if writer.write_frame(&r.encode()).is_err() {
                    return;
                }
            }
        }
    }

    #[test]
    fn a_stalled_reply_delays_the_ops_queued_behind_it() {
        // Relative to the package root, where tests run: short enough for a
        // socket path, and inside the ignored build directory.
        let dir = Path::new("target").join(format!("test-socket-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let socket = dir.join("fake.sock");
        let _ = std::fs::remove_file(&socket);
        let listener = UnixListener::bind(&socket).expect("bind");
        let stall = Duration::from_millis(60);
        let server = std::thread::spawn(move || fake_server(listener, 2, stall));
        // One session of one interval at a time, 5 ms apart.
        let ops = (0..8u64).map(|i| Op {
            session: i + 1,
            trace: 0,
            extractor: WireExtractor::Bbv,
            interval: 0,
            hello: false,
            close: false,
            query: false,
        });
        // The fake server reports interval counts of 0; accept phase 0 and
        // compare only latencies.
        let inputs = tiny_inputs();
        let run = drive(
            &socket,
            &inputs,
            &Encoded::new(&inputs),
            ops,
            200.0,
            &|_| 0,
            &mut |_| true,
            &mut || {},
            &mut Tracer::new(false),
            false,
        )
        .expect("drive");
        server.join().expect("fake server");
        let _ = std::fs::remove_dir_all(&dir);
        let lat: Vec<f64> = run.results.iter().map(|r| r.latency_ms).collect();
        assert_eq!(lat.len(), 8);
        // Before the stall: fast.
        assert!(lat[0] < 30.0 && lat[1] < 30.0, "{lat:?}");
        // The stalled op and the ops scheduled behind it during the stall
        // all carry the stall, minus how late they were scheduled.
        for (i, &l) in lat.iter().enumerate().skip(2).take(4) {
            let behind = (i - 2) as f64 * 5.0;
            assert!(l >= 60.0 - behind - 1.0, "op {i}: {l} ms in {lat:?}");
        }
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let at = |seed| {
            let mut p = SuiteParams::quick();
            p.workload.seed = seed;
            make_inputs(&p, &[BenchmarkKind::GzipGraphic], 2)
        };
        let (a, b, c) = (at(7), at(7), at(8));
        assert_eq!(a.traces[0].len(), 2);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let bytes = |i: &Inputs| -> Vec<u8> {
            let enc = Encoded::new(i);
            let ops = Schedule::new(7, vec![2]).take(4);
            ops.flat_map(|op| enc.payloads(&op, i)).flatten().collect()
        };
        assert_eq!(bytes(&a), bytes(&b));
        assert_ne!(bytes(&a), bytes(&c));
    }

    #[test]
    fn pre_encoded_payloads_match_the_protocol_encoder() {
        let inputs = Inputs {
            traces: vec![(0..4)
                .map(|i| Interval {
                    events: (0..1100u64)
                        .map(|j| {
                            BranchEvent::new(
                                0x40_0000 + (j * 97 + i) % 4096 * 4,
                                1 + (j % 300) as u32,
                            )
                        })
                        .collect(),
                    cpi: 1.25,
                })
                .collect()],
        };
        let enc = Encoded::new(&inputs);
        let ops = Schedule::new(3, vec![4]).take(300);
        for op in ops {
            let want: Vec<Vec<u8>> = requests(&op, &inputs).iter().map(Request::encode).collect();
            assert_eq!(enc.payloads(&op, &inputs), want, "{op:?}");
        }
    }

    #[test]
    fn recorded_params_follow_the_constants() {
        let p = params();
        assert!(
            p.starts_with("rate=2500/s limit=1000ms active=64 max_live=16 "),
            "{p}"
        );
        assert!(p.contains(&format!(" setups={SETUPS}")), "{p}");
        assert!(!p.contains("  "), "{p}");
    }

    #[test]
    fn same_seed_same_schedule_other_seed_other_schedule() {
        let lengths = vec![12; 11];
        let a: Vec<Op> = Schedule::new(7, lengths.clone()).take(500).collect();
        let b: Vec<Op> = Schedule::new(7, lengths.clone()).take(500).collect();
        let c: Vec<Op> = Schedule::new(8, lengths).take(500).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Every session runs its prefix from Hello to Close in order.
        let first = a.iter().find(|op| op.close).expect("some session closes");
        let own: Vec<&Op> = a.iter().filter(|op| op.session == first.session).collect();
        assert!(own[0].hello);
        assert!(own.iter().enumerate().all(|(i, op)| op.interval == i));
    }
}
