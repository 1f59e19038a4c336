//! Order statistics, the tail rule and the FNV-1a digest.

/// Percentile ladder the tail rule climbs. Coarse on purpose: a run whose
/// op count moves by tens of percent keeps the same tail percentile, so a
/// faster build is never reported at a higher (and slower-looking) one.
const TAIL_LADDER: [f64; 5] = [50.0, 90.0, 95.0, 99.0, 99.9];

/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The `p`-th percentile (0..=100) of `sorted` by the nearest-rank rule.
///
/// # Panics
///
/// Panics when `sorted` is empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(p, sorted.len()).clamp(1, sorted.len()) - 1]
}

/// Nearest rank (1-based) of the `p`-th percentile among `n` samples. The
/// epsilon keeps `0.99 * 1000` from rounding up to rank 991.
fn rank(p: f64, n: usize) -> usize {
    (p * n as f64 / 100.0 - 1e-9).ceil().max(0.0) as usize
}

/// Median of unsorted samples (nearest-rank, as [`percentile`]).
pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples), 50.0)
}

/// A sorted copy of `samples`.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The tail of a sample set: the highest ladder percentile with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile the value sits at.
    pub percentile: f64,
    /// The value at that percentile.
    pub value: f64,
    /// How many samples lie strictly beyond the percentile's rank.
    pub beyond: usize,
    /// All samples.
    pub samples: usize,
}

/// Applies the tail rule to `sorted` samples. With fewer than
/// `2 * TAIL_MIN_BEYOND` samples no ladder rung qualifies and the median
/// is reported, with its true count beyond.
pub fn tail(sorted: &[f64]) -> Tail {
    let n = sorted.len();
    let beyond = |p: f64| n - rank(p, n);
    let rung = TAIL_LADDER
        .iter()
        .copied()
        .rev()
        .find(|&p| beyond(p) >= TAIL_MIN_BEYOND)
        .unwrap_or(TAIL_LADDER[0]);
    Tail {
        percentile: rung,
        value: percentile(sorted, rung),
        beyond: beyond(rung),
        samples: n,
    }
}

/// Ops per tail window: the tail rule gives p95 in every window.
pub const WINDOW_OPS: usize = 200;

/// The tail of a run's ops, in op order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowedTail {
    /// The lower quartile of the window tails, interpolated between the
    /// two nearest windows: the run's tail.
    pub value: f64,
    /// The tail of the window at or just below the lower quartile, for
    /// its percentile and counts.
    pub window: Tail,
    /// How many windows the run filled.
    pub windows: usize,
}

/// Cuts the ops into as many windows of at least [`WINDOW_OPS`]
/// consecutive ops as they fill (a shorter run is one window), applies the
/// tail rule within each window and returns the lower quartile of the
/// window tails, interpolated: with `k` sorted window tails it sits at
/// position `(k - 1) / 4`, so one window gives its own tail and two give a
/// quarter of the way from the lower to the higher.
///
/// A window of 200 to 399 ops has its tail at p95, so a stall or slowdown
/// that delays more than a twentieth of the ops of over three quarters of
/// the windows moves the result, for example a 6 ms pause every 150
/// `serve_churn` ops. The lower quartile, not the median, because on a
/// shared virtual machine (2-vCPU KVM guest, Xeon 2.0 GHz) the host delays
/// ops by 1 ms or more in patches: the share of `serve_churn` ops so
/// delayed ranged 0.4–9% between 2.5 s stretches of one run, and a
/// stretch above 5% raises every window tail in it. The median window
/// followed those patches: two ten-run sets of one build spread 9.5% and
/// 28% of their median, against 6.8% and 2.7% for the median and the
/// lower quartile over 16 runs of one build on a quiet host. Higher
/// percentiles measure how often the host delays the process: over four
/// runs of one build the whole-run p99 ranged 1.05–1.68 ms, and the
/// median 1000-op window's p99 0.38–1.1 ms over 16 runs.
pub fn windowed_tail(ops: &[f64]) -> WindowedTail {
    let n = ops.len();
    let windows = (n / WINDOW_OPS).max(1);
    let mut tails: Vec<Tail> = (0..windows)
        .map(|w| tail(&sorted(&ops[w * n / windows..(w + 1) * n / windows])))
        .collect();
    tails.sort_by(|a, b| a.value.total_cmp(&b.value));
    let at = (windows - 1) as f64 / 4.0;
    let (below, frac) = (at.floor() as usize, at.fract());
    let window = tails[below];
    let above = tails[(below + 1).min(windows - 1)];
    WindowedTail {
        value: window.value + frac * (above.value - window.value),
        window,
        windows,
    }
}

/// `ops` with each op's time replaced by the fastest time of its kind in
/// the run, where op `i` is of kind `i % kinds`.
///
/// For ops that are distinct computations taken in a fixed rotation, as
/// `figure_warm`'s figures are. On a shared virtual machine (2-vCPU KVM
/// guest, Xeon 2.0 GHz) the host slows high-ILP code such as trace decode
/// 1.3–2×, in stretches of 0.1–2 s that cover from a few percent to most of
/// the time for minutes at a time, so the share of slow visits decides any
/// middle statistic: over six runs of one build the median op read
/// 46–72 ms (spread 27% of the median) and the median figure's median
/// visit 42–63 ms (22%), its lower-quartile visit 40–48 ms (14%) and its
/// fastest visit 37–43 ms (10%). The fastest visit needs one fast stretch
/// per figure in the run, and a change that slows every visit of a figure
/// moves it fully.
pub fn by_kind_fastest(ops: &[f64], kinds: usize) -> Vec<f64> {
    let kinds = kinds.clamp(1, ops.len().max(1));
    let fastest: Vec<f64> = (0..kinds)
        .map(|k| {
            ops.iter()
                .skip(k)
                .step_by(kinds)
                .copied()
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    (0..ops.len()).map(|i| fastest[i % kinds]).collect()
}

/// 64-bit FNV-1a over `bytes`, continuing from `state`.
pub fn fnv1a_from(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// 64-bit FNV-1a of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_from(0xcbf2_9ce4_8422_2325, bytes)
}

/// splitmix64: the benchmark's one generator for seeded choices.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_keeps_at_least_ten_samples_beyond() {
        for n in [20, 99, 100, 101, 999, 1000, 1500, 9_999, 10_000, 25_000] {
            let t = tail(&ramp(n));
            assert!(t.beyond >= TAIL_MIN_BEYOND, "n={n}: {t:?}");
            assert_eq!(t.samples, n);
            // Samples strictly above the reported value are the ones beyond.
            assert_eq!(ramp(n).iter().filter(|&&x| x > t.value).count(), t.beyond);
        }
    }

    #[test]
    fn tail_picks_the_highest_qualifying_rung() {
        assert_eq!(tail(&ramp(99)).percentile, 50.0);
        assert_eq!(tail(&ramp(100)).percentile, 90.0);
        assert_eq!(tail(&ramp(199)).percentile, 90.0);
        assert_eq!(tail(&ramp(200)).percentile, 95.0);
        assert_eq!(tail(&ramp(999)).percentile, 95.0);
        assert_eq!(tail(&ramp(1000)).percentile, 99.0);
        assert_eq!(tail(&ramp(1000)).value, 990.0);
        assert_eq!(tail(&ramp(1000)).beyond, 10);
        assert_eq!(tail(&ramp(10_000)).percentile, 99.9);
    }

    #[test]
    fn tail_of_few_samples_falls_back_to_the_median() {
        let t = tail(&ramp(7));
        assert_eq!(t.percentile, 50.0);
        assert_eq!(t.value, 4.0);
        assert_eq!(t.beyond, 3);
    }

    #[test]
    fn windowed_tail_sees_stalls_that_recur_in_most_windows() {
        let base: Vec<f64> = (0..20_000).map(|i| (i % 200) as f64).collect();
        let t = windowed_tail(&base);
        assert_eq!(t.windows, 100);
        assert_eq!((t.window.percentile, t.window.beyond), (95.0, 10));
        assert_eq!(t.value, 189.0);
        // A pause every 100 ops that delays its op and the 5 queued behind
        // it: 12 slow ops, 6%, in each window from `from` on.
        let stalled = |from: usize| {
            let mut ops = base.clone();
            for start in (from + 40..ops.len() - 6).step_by(100) {
                for x in &mut ops[start..start + 6] {
                    *x += 1000.0;
                }
            }
            windowed_tail(&ops).value
        };
        assert!(stalled(0) >= 1000.0);
        assert!(stalled(20 * WINDOW_OPS) >= 1000.0);
        // The same pauses confined to the last 70 windows do not.
        assert!(stalled(30 * WINDOW_OPS) < 200.0);
    }

    #[test]
    fn a_run_shorter_than_two_windows_gets_the_plain_tail_rule() {
        for n in [7, 20, 99, 100, 200, 399] {
            let ops = ramp(n);
            let t = windowed_tail(&ops);
            assert_eq!((t.window, t.windows), (tail(&ops), 1), "n={n}");
            assert_eq!(t.value, t.window.value);
        }
        // Windows cover every op, the remainder included, and two windows
        // give a quarter of the way from the lower tail to the higher.
        let t = windowed_tail(&ramp(599));
        assert_eq!(t.windows, 2);
        assert_eq!(t.window.samples, 299);
        assert_eq!(t.value, 285.0 + (584.0 - 285.0) / 4.0);
    }

    #[test]
    fn by_kind_fastest_keeps_each_kind_at_its_fastest_visit() {
        // Two kinds in rotation, 10 ms and 40 ms, with 90% of each kind's
        // visits slowed 1.1x to 1.9x.
        let ops: Vec<f64> = (0..200)
            .map(|i| {
                let base = if i % 2 == 0 { 10.0 } else { 40.0 };
                base * (1.0 + ((i / 2) % 10) as f64 / 10.0)
            })
            .collect();
        let by_kind = by_kind_fastest(&ops, 2);
        assert_eq!(by_kind.len(), 200);
        assert!(by_kind.iter().step_by(2).all(|&x| x == 10.0));
        assert!(by_kind.iter().skip(1).step_by(2).all(|&x| x == 40.0));
        // A change that slows every visit of one kind moves it fully.
        let slower: Vec<f64> = ops
            .iter()
            .enumerate()
            .map(|(i, &x)| if i % 2 == 1 { x + 5.0 } else { x })
            .collect();
        assert_eq!(by_kind_fastest(&slower, 2)[1], 45.0);
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
