//! The traced run's fixed-work layer pass.
//!
//! Every traced run, whatever its workload, makes the same fixed amount of
//! work through each layer at the run's seed, with a span around every
//! public call it times, so the exact counts repeat run to run:
//!
//! - simulate and record the whole quick suite (`workloads`, `uarch`,
//!   `trace` record/encode/validate);
//! - decode-only and decode+accumulate passes over the encoded traces
//!   (`trace.decode_ms`, `core.accumulate_ms`);
//! - classify every interval and feed both predictors (`core`, `predict`);
//! - fill a private cache cold, load it warm, and regenerate each of the 19
//!   figures once (`experiments`, `simpoint`);
//! - a fixed number of `serve_churn` ops against a live server, then the
//!   same request stream replayed in-process through the serve crate's
//!   public functions (`serve`, `bench` generator lag and backlog).
//!
//! `bench.trace_overhead` comes from the workload's own ops, every other
//! one of which ran traced with the workload-level spans only; the
//! per-call spans of this pass are not on those ops.

use std::hint::black_box;
use std::time::Instant;

use tpcp_core::{AccumulatorTable, BranchEvent, ClassifierConfig, PhaseClassifier, PhaseId};
use tpcp_experiments::TraceCache;
use tpcp_predict::{LengthClassPredictor, NextPhasePredictor, PredictorKind};
use tpcp_serve::{decode_request_into, FastRequest, Response, ShardedStore};
use tpcp_trace::{
    decode_trace, encode_trace_with_index, validate_trace, FrameReader, FrameWriter,
    IntervalSource, IntervalSummary, RecordedTrace, StreamingDecoder,
};
use tpcp_workloads::BenchmarkKind;

use crate::figure_warm::{self, FIGURES};
use crate::golden::DEFAULT_SEED;
use crate::serve_churn::{self, Encoded, Inputs, Op, MAX_LIVE, MAX_PARKED, SHARDS};
use crate::stats::{fnv1a, median, percentile, sorted, tail};
use crate::tracer::Tracer;
use crate::{Ctx, Measured, Metrics};

/// Repeats of the decode and decode+accumulate passes; each metric is the
/// median of their suite totals.
const DECODE_REPS: usize = 3;
/// Live `serve_churn` ops in the pass.
const SERVE_OPS: usize = 5000;

/// The pass's metrics and check outcomes.
pub struct Pass {
    /// Per-layer metrics, in `BENCHMARK.json` order.
    pub metrics: Metrics,
    /// Checks made along the way.
    pub measured: Measured,
}

/// Traced over untraced `op_ms_p50` of the workload's own ops.
pub fn trace_overhead(m: &Measured) -> f64 {
    let pick = |traced: bool| -> Vec<f64> {
        m.ops_ms
            .iter()
            .zip(&m.traced)
            .filter(|(_, &t)| t == traced)
            .map(|(&ms, _)| ms)
            .collect()
    };
    let (on, off) = (pick(true), pick(false));
    if on.is_empty() || off.is_empty() {
        return f64::NAN;
    }
    median(&on) / median(&off)
}

/// Appends the run-level `bench` metrics.
pub fn finish(metrics: &mut Metrics, overhead: f64, probe_ms: &[f64]) {
    let probe = sorted(probe_ms);
    metrics.put("bench.trace_overhead", overhead, "ratio");
    metrics.put("bench.host_probe_ms_p50", percentile(&probe, 50.0), "ms");
    metrics.put("bench.host_probe_ms_max", probe[probe.len() - 1], "ms");
}

/// Spans every `next_interval` of the source it wraps.
struct Timed<'a, S> {
    source: S,
    tracer: &'a mut Tracer,
}

impl<S: IntervalSource> IntervalSource for Timed<'_, S> {
    fn next_interval(&mut self, on_event: &mut dyn FnMut(BranchEvent)) -> Option<IntervalSummary> {
        let span = self.tracer.begin("workloads.next_interval");
        let out = self.source.next_interval(on_event);
        self.tracer.end(span);
        out
    }
}

fn ms(us: &[f64]) -> Vec<f64> {
    us.iter().map(|u| u / 1e3).collect()
}

fn total_ms(tr: &Tracer, name: &str) -> f64 {
    tr.durations_us(name).iter().sum::<f64>() / 1e3
}

fn p50(values: &[f64]) -> f64 {
    if values.is_empty() {
        f64::NAN
    } else {
        median(values)
    }
}

/// Simulates, records, encodes and validates the whole suite. Returns the
/// encoded traces.
fn simulate_suite(ctx: &Ctx, tr: &mut Tracer, out: &mut Metrics, m: &mut Measured) -> Vec<Vec<u8>> {
    let params = ctx.params().workload;
    let mut buffers = Vec::new();
    let (mut insns, mut cycles, mut events, mut bytes) = (0u64, 0u64, 0u64, 0u64);
    let mut misses = [0u64; 5];
    for kind in BenchmarkKind::ALL {
        tr.next_op();
        let benchmark = tr.span("workloads.build", || kind.build(&params));
        let sim = benchmark.simulate(&params);
        let record = tr.begin("trace.record");
        let trace = RecordedTrace::record(Timed {
            source: sim,
            tracer: tr,
        });
        tr.end(record);
        let (encoded, _index) = tr.span("trace.encode", || encode_trace_with_index(&trace));
        let valid = tr.span("trace.validate", || validate_trace(&encoded));
        m.attempted += 1;
        m.check(match (valid, decode_trace(encoded.clone())) {
            (Ok(n), Ok(back)) if n == trace.len() as u64 && back == trace => Ok(()),
            (v, d) => Err(format!(
                "trace {}: validate {v:?}, round trip ok {}",
                kind.label(),
                d.is_ok_and(|b| b == trace)
            )),
        });
        if ctx.seed == DEFAULT_SEED {
            m.setup_check(ctx.goldens.verify("trace", kind.label(), fnv1a(&encoded)));
        }
        for iv in &trace.intervals {
            insns += iv.summary.instructions;
            cycles += iv.summary.cycles;
            events += iv.events.len() as u64;
            let c = iv.summary.metrics;
            for (slot, v) in misses.iter_mut().zip([
                c.il1_misses,
                c.dl1_misses,
                c.l2_misses,
                c.tlb_misses,
                c.branch_mispredictions,
            ]) {
                *slot += v;
            }
        }
        bytes += encoded.len() as u64;
        buffers.push(encoded.to_vec());
    }
    let intervals_us = tr.durations_us("workloads.next_interval");
    out.put(
        "workloads.build_ms",
        p50(&ms(&tr.durations_us("workloads.build"))),
        "ms",
    );
    out.put("workloads.interval_ms_p50", p50(&ms(&intervals_us)), "ms");
    out.put(
        "workloads.minst_per_s",
        insns as f64 / intervals_us.iter().sum::<f64>(),
        "Minst/s",
    );
    out.put("workloads.instructions", insns as f64, "count");
    out.put("uarch.cycles", cycles as f64, "count");
    for (name, v) in [
        "uarch.il1_misses",
        "uarch.dl1_misses",
        "uarch.l2_misses",
        "uarch.tlb_misses",
        "uarch.branch_mispredictions",
    ]
    .iter()
    .zip(misses)
    {
        out.put(name, v as f64, "count");
    }
    // Recording's own cost: the simulation it drives is its child spans.
    let record_self_ms = tr
        .self_time_by_name()
        .get("trace.record")
        .map_or(f64::NAN, |&(ms, _)| ms);
    out.put("trace.record_ms", record_self_ms, "ms");
    out.put("trace.encode_ms", total_ms(tr, "trace.encode"), "ms");
    out.put("trace.validate_ms", total_ms(tr, "trace.validate"), "ms");
    out.put("trace.events", events as f64, "count");
    out.put("trace.bytes", bytes as f64, "count");
    buffers
}

/// Decode-only and decode+accumulate passes, then classify and predict.
fn decode_classify(tr: &mut Tracer, buffers: &[Vec<u8>], out: &mut Metrics) {
    let config = ClassifierConfig::hpca2005();
    let mut decode_totals = Vec::new();
    let mut both_totals = Vec::new();
    let mut events = 0u64;
    for _ in 0..DECODE_REPS {
        let (mut decode_ms, mut both_ms) = (0.0, 0.0);
        events = 0;
        for buf in buffers {
            let start = Instant::now();
            let span = tr.begin("trace.decode");
            let mut dec = StreamingDecoder::new(buf).expect("validated trace");
            let mut n = 0u64;
            while let Ok(Some(_)) = dec.try_next_interval_with(&mut |ev| {
                black_box(ev);
                n += 1;
            }) {}
            tr.end(span);
            decode_ms += start.elapsed().as_secs_f64() * 1e3;
            events += n;

            let start = Instant::now();
            let span = tr.begin("core.decode_accumulate");
            let mut acc = AccumulatorTable::new(config.accumulators);
            let mut dec = StreamingDecoder::new(buf).expect("validated trace");
            while let Ok(Some(_)) = dec.try_next_interval_with(&mut |ev| acc.observe(ev)) {
                black_box(acc.total());
                acc.reset();
            }
            tr.end(span);
            both_ms += start.elapsed().as_secs_f64() * 1e3;
        }
        decode_totals.push(decode_ms);
        both_totals.push(both_ms);
    }
    let decode_ms = median(&decode_totals);
    out.put("trace.decode_ms", decode_ms, "ms");
    out.put(
        "trace.decode_mevents_per_s",
        events as f64 / decode_ms / 1e3,
        "Mevents/s",
    );
    out.put("core.accumulate_ms", median(&both_totals) - decode_ms, "ms");

    let mut update_us = Vec::new();
    for buf in buffers {
        tr.next_op();
        let mut classifier = PhaseClassifier::new(config);
        let mut acc = AccumulatorTable::new(config.accumulators);
        let mut dec = StreamingDecoder::new(buf).expect("validated trace");
        let mut phases: Vec<PhaseId> = Vec::new();
        while let Ok(Some(summary)) = dec.try_next_interval_with(&mut |ev| acc.observe(ev)) {
            let id = tr.span("core.classify", || {
                classifier.end_interval_from(&acc, summary.cpi())
            });
            phases.push(id);
            acc.reset();
        }
        let mut next = NextPhasePredictor::new(PredictorKind::rle(2));
        let mut length = LengthClassPredictor::new(32, 4);
        let start = Instant::now();
        let span = tr.begin("predict.update");
        for &id in &phases {
            black_box(next.observe(id));
            black_box(length.observe(id));
        }
        tr.end(span);
        update_us.push(start.elapsed().as_secs_f64() * 1e6 / (2 * phases.len().max(1)) as f64);
    }
    let classify = sorted(&tr.durations_us("core.classify"));
    out.put("core.classify_us_p50", percentile(&classify, 50.0), "us");
    out.put("core.classify_us_p99", percentile(&classify, 99.0), "us");
    out.put("predict.update_us_p50", median(&update_us), "us");
}

/// Cold misses through `try_load_bytes_or_simulate`, the rest of the
/// cold fill (the traces at other interval sizes), warm loads, and one
/// rotation of the 19 figures.
fn engine(ctx: &Ctx, tr: &mut Tracer, buffers: &[Vec<u8>], out: &mut Metrics, m: &mut Measured) {
    let params = ctx.params();
    let cache = TraceCache::new(ctx.scratch.join("layer-traces"));
    for (kind, buf) in BenchmarkKind::ALL.iter().zip(buffers) {
        tr.next_op();
        let load = tr.span("experiments.cache_miss", || {
            cache.try_load_bytes_or_simulate(*kind, &params)
        });
        m.attempted += 1;
        m.check(match load {
            Ok(l) if !l.hit && l.bytes.as_ref() == buf.as_slice() => Ok(()),
            Ok(l) => Err(format!(
                "{}: hit {} or bytes differ from the recorded trace",
                kind.label(),
                l.hit
            )),
            Err(e) => Err(e.to_string()),
        });
    }
    m.attempted += 1;
    m.check(figure_warm::cold_fill(&cache, &params).map(|_| ()));
    for kind in BenchmarkKind::ALL {
        tr.next_op();
        let load = tr.span("experiments.cache_load", || {
            cache.try_load_bytes_or_simulate(kind, &params)
        });
        m.attempted += 1;
        m.check(match load {
            Ok(l) if l.hit => Ok(()),
            Ok(_) => Err(format!("{}: miss on a warm cache", kind.label())),
            Err(e) => Err(e.to_string()),
        });
    }
    out.put(
        "experiments.cache_load_ms",
        p50(&ms(&tr.durations_us("experiments.cache_load"))),
        "ms",
    );
    out.put(
        "experiments.cache_miss_s",
        p50(&tr.durations_us("experiments.cache_miss")) / 1e6,
        "s",
    );

    let mut stage = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
    let (mut replays_max, mut intervals, mut lanes, mut hits, mut misses) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    for name in FIGURES {
        tr.next_op();
        let run = figure_warm::regenerate(name, &cache, &params, tr);
        let s = run.telemetry.stages();
        for (slot, ns) in stage.iter_mut().zip([
            s.cache_load_ns,
            s.decode_accumulate_ns,
            s.classify_ns,
            s.finish_ns,
        ]) {
            slot.push(ns as f64 / 1e6);
        }
        let c = run.telemetry.cache();
        hits += c.hits;
        misses += c.misses;
        lanes += run
            .telemetry
            .groups()
            .values()
            .map(|g| g.lanes.len() as u64)
            .sum::<u64>();
        if let Some(stats) = &run.stats {
            replays_max = replays_max.max(stats.max_replays_per_trace());
            intervals += stats.total_intervals();
        }
        m.attempted += 1;
        m.check(match &run.error {
            Some(e) => Err(format!("{name}: {e}")),
            None if ctx.seed == DEFAULT_SEED => {
                ctx.goldens
                    .verify("figure", name, figure_warm::csv_digest(&run.csvs))
            }
            None => Ok(()),
        });
    }
    for (name, values) in [
        "experiments.stage.cache_load_ms",
        "experiments.stage.decode_accumulate_ms",
        "experiments.stage.classify_ms",
        "experiments.stage.finish_ms",
    ]
    .iter()
    .zip(&stage)
    {
        out.put(name, median(values), "ms");
    }
    out.put(
        "experiments.reduce_ms",
        p50(&ms(&tr.durations_us("experiments.reduce"))),
        "ms",
    );
    out.put(
        "experiments.replays_per_trace_max",
        replays_max as f64,
        "count",
    );
    out.put("experiments.intervals_replayed", intervals as f64, "count");
    out.put("experiments.lanes", lanes as f64, "count");
    out.put("experiments.cache_hits", hits as f64, "count");
    out.put("experiments.cache_misses", misses as f64, "count");
    out.put(
        "simpoint.sampling_ms",
        total_ms(tr, "simpoint.sampling"),
        "ms",
    );
}

/// Replays the live run's request stream in-process through the serve
/// crate's public functions, one span per layer call.
fn replay(tr: &mut Tracer, ops: &[Op], inputs: &Inputs, encoded: &Encoded) {
    let store = ShardedStore::new(SHARDS, MAX_LIVE, MAX_PARKED);
    let mut scratch = Vec::new();
    let mut wire = Vec::new();
    for op in ops {
        tr.next_op();
        let payloads = encoded.payloads(op, inputs);
        wire.clear();
        tr.span("serve.frame", || {
            let mut writer = FrameWriter::new(&mut wire);
            for p in &payloads {
                writer.write_frame(p).expect("writes to memory succeed");
            }
        });
        let mut reader = FrameReader::new(wire.as_slice());
        loop {
            let span = tr.begin("serve.frame");
            let frame = reader.read_frame();
            tr.end(span);
            let Ok(Some(payload)) = frame else { break };
            let request = tr.span("serve.decode", || {
                decode_request_into(payload, &mut scratch)
            });
            let response = match request {
                Ok(FastRequest::Hello { session, extractor }) => {
                    let _ = store.shard(session).lock().open(session, extractor);
                    Some(Response::Ok { session })
                }
                Ok(FastRequest::Close { session }) => {
                    let _ = store.shard(session).lock().close(session);
                    Some(Response::Ok { session })
                }
                Ok(FastRequest::Events { session }) => {
                    lookup(tr, &store, session, |tr, s| {
                        tr.span("serve.observe", || s.observe_batch(&scratch));
                    });
                    None
                }
                Ok(FastRequest::EndInterval { session, cpi }) => {
                    let mut classified = None;
                    lookup(tr, &store, session, |tr, s| {
                        classified = Some(tr.span("serve.classify", || s.end_interval(cpi)));
                    });
                    classified.map(|c| Response::Classified {
                        session,
                        phase: c.phase,
                        transition: c.transition,
                        intervals: c.intervals,
                    })
                }
                Ok(FastRequest::Query { session, kind }) => {
                    let mut value = None;
                    lookup(tr, &store, session, |tr, s| {
                        value = Some(tr.span("serve.query", || s.query(kind)));
                    });
                    value.map(|value| Response::Answer {
                        session,
                        kind,
                        value,
                    })
                }
                Err(_) => None,
            };
            if let Some(r) = response {
                black_box(tr.span("serve.encode", || r.encode()));
            }
        }
    }
}

/// Locks `session`'s shard and touches it, spanned as `serve.lookup` for
/// a live session or `serve.restore` for a parked one, then runs `work`
/// under the lock, as the server does.
fn lookup(
    tr: &mut Tracer,
    store: &ShardedStore,
    session: u64,
    work: impl FnOnce(&mut Tracer, &mut tpcp_serve::Session),
) {
    let start = Instant::now();
    let mut shard = store.shard(session).lock();
    let restores = shard.counters().restores;
    let touched = shard.touch(session).is_ok();
    let end = Instant::now();
    if !touched {
        return;
    }
    let restored = shard.counters().restores > restores;
    tr.record(
        if restored {
            "serve.restore"
        } else {
            "serve.lookup"
        },
        start,
        end,
    );
    // Touching a live session again only refreshes its LRU stamp.
    let live = shard.touch(session).expect("the session was just touched");
    work(tr, live);
}

/// Live serve ops, then the in-process replay of the same stream.
fn serve(ctx: &Ctx, tr: &mut Tracer, out: &mut Metrics, m: &mut Measured) {
    let served = match serve_churn::serve_fixed(ctx, SERVE_OPS) {
        Ok(s) => s,
        Err(e) => {
            m.setup_check(Err(format!("serve layer pass: {e}")));
            return;
        }
    };
    let live = &served.live;
    for r in &live.results {
        m.attempted += 1;
        m.check(r.error.clone().map_or(Ok(()), Err));
    }
    replay(tr, &live.ops, &served.inputs, &served.encoded);
    let layer_names = [
        ("serve.frame_us_p50", "serve.frame"),
        ("serve.decode_us_p50", "serve.decode"),
        ("serve.lookup_us_p50", "serve.lookup"),
        ("serve.restore_us_p50", "serve.restore"),
        ("serve.observe_us_p50", "serve.observe"),
        ("serve.classify_us_p50", "serve.classify"),
        ("serve.query_us_p50", "serve.query"),
        ("serve.encode_us_p50", "serve.encode"),
    ];
    for (metric, span) in layer_names {
        out.put(metric, p50(&tr.durations_us(span)), "us");
    }
    // Ops of the replay are numbered after every earlier op of the pass.
    let per_op: Vec<_> = layer_names
        .iter()
        .map(|(_, span)| tr.per_op_us(span))
        .collect();
    let first_op = per_op
        .iter()
        .filter_map(|m| m.keys().next().copied())
        .min()
        .unwrap_or(0);
    let wire_wait: Vec<f64> = live
        .results
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let op = first_op + i as u64;
            let layers: f64 = per_op.iter().filter_map(|m| m.get(&op)).sum();
            r.latency_ms * 1e3 - layers
        })
        .collect();
    out.put("serve.wire_wait_us_p50", p50(&wire_wait), "us");
    let t = &served.telemetry;
    let base = t.intervals.max(1);
    out.put(
        "serve.restore_share",
        t.store.restores as f64 / base as f64,
        "ratio",
    );
    m.note(format!(
        "serve.restore_share = {} restores / {} intervals",
        t.store.restores, t.intervals
    ));
    out.put("serve.evictions", t.store.evictions as f64, "count");
    out.put("serve.parked_drops", t.store.parked_drops as f64, "count");
    out.put("serve.errors", live.error_frames as f64, "count");
    out.put(
        "serve.dispatch_depth_max",
        live.gauges_max.0 as f64,
        "count",
    );
    out.put(
        "serve.queued_responses_max",
        live.gauges_max.1 as f64,
        "count",
    );
    let lag = sorted(&live.gen_lag_ms);
    let lag_tail = tail(&lag);
    out.put("bench.gen_lag_ms_tail", lag_tail.value, "ms");
    m.note(format!(
        "bench.gen_lag_ms_tail is p{} of {} ops ({} beyond it)",
        lag_tail.percentile, lag_tail.samples, lag_tail.beyond
    ));
    out.put("bench.backlog_max", live.backlog_max as f64, "count");
}

/// Runs the layer pass with tracing on.
pub fn pass(ctx: &Ctx, tr: &mut Tracer) -> Pass {
    tr.set_enabled(true);
    let mut metrics = Metrics::default();
    let mut m = Measured::default();
    let buffers = simulate_suite(ctx, tr, &mut metrics, &mut m);
    decode_classify(tr, &buffers, &mut metrics);
    engine(ctx, tr, &buffers, &mut metrics, &mut m);
    serve(ctx, tr, &mut metrics, &mut m);
    tr.set_enabled(false);
    Pass {
        metrics,
        measured: m,
    }
}
