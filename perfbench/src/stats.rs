//! Latency summaries: the median, the tail-percentile rule, failures as
//! misses, and open-loop due times.

use std::time::{Duration, Instant};

/// The percentile reported as the tail when there are enough samples.
pub const TAIL_PERCENTILE: f64 = 99.0;

/// The fewest samples the reported tail percentile must have beyond it.
pub const MIN_BEYOND: usize = 10;

/// One latency order statistic, with where it sits in the sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rank {
    /// The latency in microseconds; infinite when a failed operation
    /// holds this rank.
    pub value_us: f64,
    /// The percentile this value stands for (rank / samples × 100).
    pub percentile: f64,
    /// How many samples rank above it.
    pub beyond: usize,
}

/// Median and tail over every attempted operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Operations attempted (completed plus failed).
    pub samples: usize,
    /// Operations that failed or were refused.
    pub failed: usize,
    /// The median.
    pub p50: Rank,
    /// p99, or the highest percentile with [`MIN_BEYOND`] samples
    /// beyond it.
    pub tail: Rank,
}

/// Summarises one latency per attempted operation. `None` is a failed
/// or refused operation, which counts as infinitely late: it sorts
/// after every completed one, so failures push the percentiles up
/// instead of dropping out of the sample.
///
/// Percentiles are nearest-rank. The tail is p99 when at least
/// [`MIN_BEYOND`] samples lie beyond p99, else the highest rank that
/// still has that many beyond it.
///
/// # Panics
///
/// Panics on an empty sample: every pass attempts at least one
/// operation.
pub fn summarize(latencies: &[Option<Duration>]) -> Summary {
    assert!(!latencies.is_empty(), "no operation was attempted");
    let mut us: Vec<f64> = latencies
        .iter()
        .map(|l| l.map_or(f64::INFINITY, |d| d.as_secs_f64() * 1e6))
        .collect();
    us.sort_by(f64::total_cmp);
    let n = us.len();
    let rank_at = |rank: usize| Rank {
        value_us: us[rank - 1],
        percentile: rank as f64 * 100.0 / n as f64,
        beyond: n - rank,
    };
    let p99 = nearest_rank(n, TAIL_PERCENTILE);
    let tail = p99.min(n.saturating_sub(MIN_BEYOND)).max(1);
    Summary {
        samples: n,
        failed: latencies.iter().filter(|l| l.is_none()).count(),
        p50: rank_at(nearest_rank(n, 50.0)),
        tail: rank_at(tail),
    }
}

/// Samples a window needs so that its p99 has [`MIN_BEYOND`] beyond it.
pub const TAIL_WINDOW: usize = 1000;

/// A tail taken per window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowedTail {
    /// The median of the windows' tails, in microseconds.
    pub value_us: f64,
    /// Windows the sample was cut into.
    pub windows: usize,
    /// The tail of the first window, as an example of each window's
    /// percentile and samples beyond it.
    pub first: Rank,
}

/// The tail as the median over windows: latencies, in the order the
/// operations completed, are cut into as many equal consecutive windows
/// as leave each at least [`TAIL_WINDOW`] samples (at most
/// `max_windows`, at least one), and each window's tail is taken by
/// [`summarize`]'s rule. A burst of outside load then moves one window's
/// tail and not the result.
///
/// # Panics
///
/// Panics on an empty sample or a zero `max_windows`.
pub fn windowed_tail(in_order: &[Option<Duration>], max_windows: usize) -> WindowedTail {
    assert!(max_windows > 0, "at least one window");
    let windows = (in_order.len() / TAIL_WINDOW).clamp(1, max_windows);
    let size = in_order.len() / windows;
    let tails: Vec<Rank> = (0..windows)
        .map(|w| {
            let end = if w + 1 == windows {
                in_order.len()
            } else {
                (w + 1) * size
            };
            summarize(&in_order[w * size..end]).tail
        })
        .collect();
    let values: Vec<f64> = tails.iter().map(|t| t.value_us).collect();
    WindowedTail {
        value_us: median(&values),
        windows,
        first: tails[0],
    }
}

/// The 1-based nearest rank of percentile `p` among `n` samples.
fn nearest_rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// The median of a non-empty list of numbers.
///
/// # Panics
///
/// Panics on an empty list.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// An open-loop schedule: requests are due in bursts of `burst` at
/// once, one burst every `period` from `start`, whatever happened to
/// the requests before them. A burst of one is an evenly spaced load.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    start: Instant,
    period: Duration,
    burst: u64,
}

impl Schedule {
    /// A schedule of `rate` bursts per second from `start`, each of
    /// `burst` requests due at the same instant.
    ///
    /// # Panics
    ///
    /// Panics unless `rate` is positive and finite and `burst` is at
    /// least one.
    pub fn new(start: Instant, rate: f64, burst: u64) -> Self {
        assert!(rate.is_finite() && rate > 0.0, "rate must be positive");
        assert!(burst > 0, "a burst holds at least one request");
        Schedule {
            start,
            period: Duration::from_secs_f64(1.0 / rate),
            burst,
        }
    }

    /// When request `i` is due to be sent.
    pub fn due(&self, i: u64) -> Instant {
        self.start + self.period.mul_f64((i / self.burst) as f64)
    }

    /// A request's latency: from when it was due, not from when it was
    /// sent, so a stall that delays later sends is charged to them too.
    pub fn latency(&self, i: u64, done: Instant) -> Duration {
        done.saturating_duration_since(self.due(i))
    }
}
