//! The repository benchmark: two workloads timed from outside, through
//! the crates' public functions, as many short ops.
//!
//! ```text
//! repobench --workload <figure_warm|serve_churn> --seed <n> --seconds <s> --trace <0|1>
//! repobench --write-goldens
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. With `--trace 0` the metrics are
//! the end-to-end ones (`setup_s`, `peak_rss_mb`, `op_ms_p50`,
//! `op_ms_tail`); with `--trace 1` they are the per-layer ones, and every
//! span is written to `.repobench/spans/`. Lines before it start with `#`
//! and carry diagnostics: the tail's percentile and sample count, and the
//! host-noise probe. See README.md.

mod figure_warm;
mod golden;
mod layers;
mod probe;
mod serve_churn;
mod stats;
mod tracer;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use tpcp_experiments::SuiteParams;

use crate::golden::Goldens;
use crate::stats::{by_kind_fastest, median, percentile, sorted, tail, windowed_tail};
use crate::tracer::Tracer;

/// Where runs keep their scratch files and span dumps, under the checkout.
const WORK_DIR: &str = ".repobench";
/// Host-probe samples before and after each run.
const PROBE_SAMPLES: usize = 50;

/// One run's settings.
pub struct Ctx {
    /// The workload seed; it becomes `WorkloadParams.seed`.
    pub seed: u64,
    /// How long the ops are measured.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// A private directory, removed at exit.
    pub scratch: PathBuf,
    /// The checked-in golden digests.
    pub goldens: Goldens,
}

impl Ctx {
    /// The quick suite at this run's seed.
    pub fn params(&self) -> SuiteParams {
        let mut params = SuiteParams::quick();
        params.workload.seed = self.seed;
        params
    }
}

/// What a workload measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Each setup's wall time; `setup_s` is their median.
    pub setup_s: Vec<f64>,
    /// Each op's time in ms, in order.
    pub ops_ms: Vec<f64>,
    /// Whether each op ran with tracing on.
    pub traced: Vec<bool>,
    /// Ops come in this many kinds, taken in a fixed rotation (op `i` is
    /// of kind `i % kinds`), as `figure_warm`'s figures are. `None` when
    /// ops are interchangeable, as `serve_churn`'s are.
    pub kinds: Option<usize>,
    /// Ops and setup checks attempted.
    pub attempted: u64,
    /// Of those, how many failed.
    pub failed: u64,
    /// Of the failures, how many were wrong outputs (not latency misses).
    pub wrong: u64,
    /// Peak resident set of each measured window, in MB.
    pub rss_peaks_mb: Vec<f64>,
    /// Diagnostic lines for standard output.
    pub notes: Vec<String>,
}

impl Measured {
    /// Records one op.
    pub fn record_op(&mut self, ms: f64, traced: bool) {
        self.ops_ms.push(ms);
        self.traced.push(traced);
        self.attempted += 1;
    }

    /// Ends the current RSS window, outside any op's timed region.
    pub fn cut_rss(&mut self) {
        self.rss_peaks_mb.push(cut_rss_window());
    }

    /// In the traced run, every other op is traced, so tracing overhead
    /// is measured under the same host conditions as the untraced ops.
    pub fn trace_this_op(&self, ctx: &Ctx) -> bool {
        ctx.trace && self.ops_ms.len() % 2 == 1
    }

    /// Counts a failed check against the op just recorded. Returns
    /// whether the check passed.
    pub fn check(&mut self, verdict: Result<(), String>) -> bool {
        match verdict {
            Ok(()) => true,
            Err(why) => {
                self.failed += 1;
                self.wrong += 1;
                if self.wrong <= 20 {
                    eprintln!("check failed: {why}");
                }
                false
            }
        }
    }

    /// A check made during setup: it counts as an attempted op.
    pub fn setup_check(&mut self, verdict: Result<(), String>) {
        self.attempted += 1;
        self.check(verdict);
    }

    /// An op whose outputs were right but which missed the latency limit.
    pub fn miss_limit(&mut self, ms: f64) {
        self.failed += 1;
        if self.failed - self.wrong <= 5 {
            eprintln!("op missed the latency limit: {ms:.3} ms");
        }
    }

    /// Adds a diagnostic line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// One reported metric.
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// Metrics in report order.
#[derive(Default)]
pub struct Metrics(Vec<Metric>);

impl Metrics {
    /// Adds a metric.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.to_owned(),
            value,
            unit,
        });
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        if flag == "--write-goldens" {
            return Ok(None);
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Some(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    }))
}

/// Each workload's parameters must appear in its `why` in
/// `BENCHMARK.json`, so the file records the load both commits run.
fn check_recorded_params(workload: &str, params: &str) -> Result<(), String> {
    let json = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let key = format!("\"name\": \"{workload}\"");
    let recorded = json
        .find(&key)
        .and_then(|at| json[at..].lines().take(3).find(|l| l.contains("\"why\"")))
        .is_some_and(|why| why.contains(&format!("[{params}]")));
    if recorded {
        Ok(())
    } else {
        Err(format!(
            "BENCHMARK.json does not record {workload}'s parameters [{params}]"
        ))
    }
}

#[cfg(target_env = "gnu")]
extern "C" {
    /// glibc: returns free heap pages, in every arena, to the kernel.
    fn malloc_trim(pad: usize) -> i32;
}

/// Called between setup and the measured ops: returns setup's freed memory
/// to the kernel and starts the first RSS window. Setup's transient peak
/// and the free pages it leaves depend on how its threads happened to
/// overlap, so they are kept out of `peak_rss_mb`.
pub fn start_rss_windows() {
    trim_heap();
    reset_peak_rss();
}

/// Returns the allocator's free pages, in every arena, to the kernel.
pub fn trim_heap() {
    #[cfg(target_env = "gnu")]
    // SAFETY: malloc_trim takes no pointers and only walks the allocator's
    // own free lists under its locks; any thread may call it at any time.
    unsafe {
        malloc_trim(0);
    }
}

/// Resets the kernel's peak resident set (`VmHWM`) to the current one.
fn reset_peak_rss() {
    if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
        eprintln!("note: cannot reset the peak RSS: {e}");
    }
}

/// Ends an RSS window: returns its peak resident set in MB and starts the
/// next window.
pub fn cut_rss_window() -> f64 {
    let peak = peak_rss_mb();
    reset_peak_rss();
    peak
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Removes the run's scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn end_to_end(m: &Measured, out: &mut Metrics, notes: &mut Vec<String>) {
    out.put("setup_s", median(&m.setup_s), "s");
    let each: Vec<String> = m.setup_s.iter().map(|s| format!("{s:.4}")).collect();
    notes.push(format!("setup_s is the median of [{}] s", each.join(", ")));
    // The median window's peak: one window's allocator accident does not
    // decide the run.
    let rss = if m.rss_peaks_mb.is_empty() {
        peak_rss_mb()
    } else {
        median(&m.rss_peaks_mb)
    };
    out.put("peak_rss_mb", rss, "MB");
    if m.ops_ms.is_empty() {
        return;
    }
    if let Some(kinds) = m.kinds {
        let ops = sorted(&by_kind_fastest(&m.ops_ms, kinds));
        let t = tail(&ops);
        out.put("op_ms_p50", percentile(&ops, 50.0), "ms");
        out.put("op_ms_tail", t.value, "ms");
        notes.push(format!(
            "op_ms_p50 and op_ms_tail count each of {} ops at its kind's fastest time ({} kinds); the tail is p{} ({} beyond it); the plain median op took {:.4} ms (diagnostic only)",
            t.samples,
            kinds,
            t.percentile,
            t.beyond,
            median(&m.ops_ms),
        ));
    } else {
        let t = windowed_tail(&m.ops_ms);
        out.put("op_ms_p50", percentile(&sorted(&m.ops_ms), 50.0), "ms");
        out.put("op_ms_tail", t.value, "ms");
        notes.push(format!(
            "op_ms_tail is the lower quartile of {} window tails over {} ops; the window there has p{} of {} ops ({} beyond it)",
            t.windows,
            m.ops_ms.len(),
            t.window.percentile,
            t.window.samples,
            t.window.beyond,
        ));
    }
    let whole = tail(&sorted(&m.ops_ms));
    notes.push(format!(
        "whole-run tail p{} = {:.4} ms ({} of {} ops beyond it; diagnostic only)",
        whole.percentile, whole.value, whole.beyond, whole.samples
    ));
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.0.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() {
            format!("{}", m.value)
        } else {
            "null".to_owned()
        };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

fn run(args: &Args) -> Result<(), String> {
    let params = match args.workload.as_str() {
        "figure_warm" => figure_warm::params(),
        "serve_churn" => serve_churn::params(),
        other => return Err(format!("unknown workload {other}")),
    };
    check_recorded_params(&args.workload, &params)?;
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_owned());
    }
    let scratch = Path::new(WORK_DIR).join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let _cleanup = Scratch(scratch.clone());
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scratch,
        goldens: Goldens::checked_in(),
    };
    let mut tracer = Tracer::new(false);
    let mut probe = probe::sample_ms(PROBE_SAMPLES);
    let mut m = match args.workload.as_str() {
        "figure_warm" => figure_warm::run(&ctx, &mut tracer),
        _ => serve_churn::run(&ctx, &mut tracer),
    };
    if m.attempted == 0 {
        return Err("no op completed".to_owned());
    }
    let mut metrics = Metrics::default();
    let mut notes = std::mem::take(&mut m.notes);
    if args.trace {
        let overhead = layers::trace_overhead(&m);
        let mut layer_tracer = Tracer::new(true);
        let mut pass = layers::pass(&ctx, &mut layer_tracer);
        m.attempted += pass.measured.attempted;
        m.failed += pass.measured.failed;
        m.wrong += pass.measured.wrong;
        notes.append(&mut pass.measured.notes);
        probe.extend(probe::sample_ms(PROBE_SAMPLES));
        layers::finish(&mut pass.metrics, overhead, &probe);
        metrics = pass.metrics;
        let dir = Path::new(WORK_DIR).join("spans");
        for (part, t) in [("ops", &tracer), ("layers", &layer_tracer)] {
            let path = dir.join(format!("{}-seed{}-{part}.jsonl", args.workload, args.seed));
            let written =
                std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, t.to_jsonl()));
            match written {
                Ok(()) => notes.push(format!("spans written to {}", path.display())),
                Err(e) => notes.push(format!("spans not written: {e}")),
            }
            for (name, (ms, count)) in t.self_time_by_name() {
                notes.push(format!(
                    "{part} self time {name}: {ms:.3} ms over {count} spans"
                ));
            }
        }
    } else {
        end_to_end(&m, &mut metrics, &mut notes);
        probe.extend(probe::sample_ms(PROBE_SAMPLES));
    }
    let probe = sorted(&probe);
    notes.push(format!(
        "bench.host_probe_ms_p50 {:.4} bench.host_probe_ms_max {:.4} (diagnostic only)",
        percentile(&probe, 50.0),
        probe[probe.len() - 1]
    ));
    for line in notes {
        println!("# {line}");
    }
    println!(
        "{}",
        json_line(m.wrong == 0, m.attempted, m.failed, &metrics)
    );
    Ok(())
}

fn main() -> ExitCode {
    // Engine passes that take no worker count (the standalone
    // sampling-estimator) read it from the environment: one worker, like
    // every other op.
    std::env::set_var("TPCP_WORKERS", "1");
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            let dir = Path::new(WORK_DIR).join(format!("goldens-{}", std::process::id()));
            let _cleanup = Scratch(dir.clone());
            return match figure_warm::golden_lines(&dir) {
                Ok(text) => {
                    print!("{text}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: repobench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::golden;

    #[test]
    fn a_wrong_golden_is_a_failed_op_not_a_crash() {
        let right = Goldens::parse(&golden::line("figure", "fig2", 0xabc));
        let wrong = Goldens::parse(&golden::line("figure", "fig2", 0xabd));
        let mut m = Measured::default();
        m.setup_check(right.verify("figure", "fig2", 0xabc));
        m.setup_check(wrong.verify("figure", "fig2", 0xabc));
        m.record_op(1.0, false);
        assert!(!m.check(wrong.verify("figure", "fig2", 0xabc)));
        assert_eq!((m.attempted, m.failed, m.wrong), (3, 2, 2));
        let line = json_line(m.wrong == 0, m.attempted, m.failed, &Metrics::default());
        assert!(
            line.starts_with("{\"correct\": false, \"attempted\": 3, \"failed\": 2"),
            "{line}"
        );
    }
}
