//! Exact-sample statistics. Every percentile here is nearest-rank over the
//! full sample vector — no histogram buckets — so a 10% shift in a latency
//! distribution moves the reported value by 10%.

/// 1-based nearest rank of the `permille`/1000 quantile among `n` samples:
/// `ceil(permille · n / 1000)`, at least 1. Integer arithmetic, so p99 of
/// 1000 samples is rank 990 exactly.
///
/// # Panics
/// Panics if `n == 0` or `permille` is outside `1..=1000`.
pub fn nearest_rank(n: usize, permille: u32) -> usize {
    assert!(n > 0, "nearest rank of an empty sample");
    assert!((1..=1000).contains(&permille), "permille {permille} outside 1..=1000");
    (permille as usize * n).div_ceil(1000).max(1)
}

/// The nearest-rank quantile of ascending `sorted` samples (`None` when
/// empty).
pub fn quantile<T: Copy>(sorted: &[T], permille: u32) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[nearest_rank(sorted.len(), permille) - 1])
}

/// How many of `n` samples rank strictly above the quantile's position
/// (`n − rank`): the support behind a reported tail percentile.
pub fn beyond(n: usize, permille: u32) -> usize {
    if n == 0 {
        0
    } else {
        n - nearest_rank(n, permille)
    }
}

/// Nearest-rank median of unsorted samples (sorts in place; 0 when empty).
pub fn median(samples: &mut [u64]) -> u64 {
    samples.sort_unstable();
    quantile(samples, 500).unwrap_or(0)
}

/// Latency summary of one window: sample count, p50, p99 and the number of
/// samples beyond p99.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Samples (solved requests).
    pub n: usize,
    /// Nearest-rank median, nanoseconds.
    pub p50_ns: u64,
    /// Nearest-rank 99th percentile, nanoseconds.
    pub p99_ns: u64,
    /// Samples ranked above p99.
    pub beyond_p99: usize,
}

/// Minimum samples beyond a reported tail percentile.
pub const MIN_TAIL_SUPPORT: usize = 10;

impl LatencySummary {
    /// Summarises `samples` (sorted in place).
    pub fn of(samples: &mut [u64]) -> LatencySummary {
        samples.sort_unstable();
        LatencySummary {
            n: samples.len(),
            p50_ns: quantile(samples, 500).unwrap_or(0),
            p99_ns: quantile(samples, 990).unwrap_or(0),
            beyond_p99: beyond(samples.len(), 990),
        }
    }
}

/// Length of the time slices a window is ranked by, nanoseconds.
pub const SLICE_NS: u64 = 1_000_000_000;

/// Number of [`SLICE_NS`] slices in a window of `window_ns` (the last one
/// may be short).
pub fn slice_count(window_ns: u64) -> usize {
    window_ns.div_ceil(SLICE_NS).max(1) as usize
}

/// A window's throughput and latency over its quieter half. The window is
/// cut into [`SLICE_NS`] slices; the slices in which the hypervisor stole
/// the least CPU time from this machine, enough of them to cover half the
/// window, are pooled, and p50/p99 are nearest rank over the pooled exact
/// samples. A slower server shows in every slice; a burst of host
/// contention shows only in the slices it hit, and those rank last. Among
/// equally quiet slices every other one is taken first, so a quiet run
/// pools slices from its whole length.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Quiet {
    /// Slices pooled.
    pub pooled: usize,
    /// Slices in the window.
    pub slices: usize,
    /// Steal time in the pooled slices and in the whole window, ms.
    pub steal_ms: (u64, u64),
    /// Solved requests per second over the pooled slices.
    pub ok_rps: f64,
    /// Nearest rank over the pooled slices' samples.
    pub lat: LatencySummary,
    /// Nearest rank over the whole window.
    pub plain: LatencySummary,
}

impl Quiet {
    /// Summarises the `(done_ns, latency_ns)` samples of the window
    /// `[start_ns, start_ns + window_ns)`, given the steal time of each of
    /// its [`slice_count`] slices in ms.
    pub fn of(samples: &[(u64, u64)], start_ns: u64, window_ns: u64, steal_ms: &[u64]) -> Quiet {
        let k = slice_count(window_ns);
        let slice_of = |done: u64| ((done.saturating_sub(start_ns) / SLICE_NS) as usize).min(k - 1);
        let len = |i: usize| window_ns.min((i as u64 + 1) * SLICE_NS) - i as u64 * SLICE_NS;
        let steal = |i: usize| steal_ms.get(i).copied().unwrap_or(0);
        let mut order: Vec<usize> = (0..k).collect();
        order.sort_by_key(|&i| (steal(i), i % 2, i));
        let mut chosen = vec![false; k];
        let mut covered = 0;
        for &i in &order {
            if 2 * covered >= window_ns {
                break;
            }
            chosen[i] = true;
            covered += len(i);
        }
        let mut pooled: Vec<u64> =
            samples.iter().filter(|s| chosen[slice_of(s.0)]).map(|s| s.1).collect();
        Quiet {
            pooled: chosen.iter().filter(|&&c| c).count(),
            slices: k,
            steal_ms: ((0..k).filter(|&i| chosen[i]).map(steal).sum(), (0..k).map(steal).sum()),
            ok_rps: pooled.len() as f64 / (covered.max(1) as f64 / 1e9),
            lat: LatencySummary::of(&mut pooled),
            plain: LatencySummary::of(&mut samples.iter().map(|s| s.1).collect::<Vec<_>>()),
        }
    }
}

/// Nanoseconds to microseconds.
pub fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Nanoseconds to milliseconds.
pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}
