//! The latency rules every workload reports by: the tail percentile
//! keeps at least ten samples beyond it, failed operations count as
//! infinitely late, and open-loop latency runs from the due time.

use std::time::{Duration, Instant};

use perfbench::stats::{summarize, windowed_tail, Schedule, MIN_BEYOND, TAIL_WINDOW};

fn ms(v: u64) -> Option<Duration> {
    Some(Duration::from_millis(v))
}

#[test]
fn tail_is_p99_when_ten_samples_lie_beyond_it() {
    let latencies: Vec<_> = (1..=2000).map(ms).collect();
    let s = summarize(&latencies);
    assert_eq!(s.tail.percentile, 99.0);
    assert_eq!(s.tail.beyond, 20);
    assert_eq!(s.tail.value_us, 1_980_000.0);
    assert_eq!(s.p50.value_us, 1_000_000.0);

    // At exactly 1000 samples p99 still has ten beyond it.
    let s = summarize(&(1..=1000).map(ms).collect::<Vec<_>>());
    assert_eq!((s.tail.percentile, s.tail.beyond), (99.0, 10));
}

#[test]
fn tail_falls_back_to_the_highest_rank_with_ten_beyond() {
    let latencies: Vec<_> = (1..=500).map(ms).collect();
    let s = summarize(&latencies);
    assert_eq!(s.tail.beyond, MIN_BEYOND);
    assert_eq!(s.tail.percentile, 98.0);
    assert_eq!(s.tail.value_us, 490_000.0);
    assert_eq!(s.samples, 500);
}

#[test]
fn a_burst_moves_one_window_and_not_the_windowed_tail() {
    // Ten windows of 1000; one of them has a 50 ms burst in its top 15%,
    // 1.5% of the whole sample.
    let latencies: Vec<_> = (0..10 * TAIL_WINDOW)
        .map(|i| {
            let burst = i / TAIL_WINDOW == 3 && i % TAIL_WINDOW >= 850;
            ms(if burst { 50 } else { 1 + (i % 3) as u64 })
        })
        .collect();
    let t = windowed_tail(&latencies, 10);
    assert_eq!(t.windows, 10);
    assert_eq!(t.value_us, 3000.0);
    // The same sample taken whole has the burst in its p99.
    assert_eq!(summarize(&latencies).tail.value_us, 50_000.0);

    // Too few samples for two windows: one window, the plain rule.
    let few: Vec<_> = (1..=500).map(ms).collect();
    let t = windowed_tail(&few, 10);
    assert_eq!((t.windows, t.value_us), (1, summarize(&few).tail.value_us));
}

#[test]
fn failures_count_as_infinitely_late() {
    // 1% + 5 failures push p99 into the failures; the median holds.
    let mut latencies: Vec<_> = (0..1000).map(|_| ms(1)).collect();
    latencies.extend(std::iter::repeat_n(None, 15));
    let s = summarize(&latencies);
    assert_eq!(s.failed, 15);
    assert_eq!(s.samples, 1015);
    assert!(s.tail.value_us.is_infinite());
    assert_eq!(s.p50.value_us, 1000.0);

    // Once most operations fail, the median is a miss too.
    let mut latencies: Vec<_> = (0..40).map(|_| ms(1)).collect();
    latencies.extend(std::iter::repeat_n(None, 60));
    assert!(summarize(&latencies).p50.value_us.is_infinite());
}

#[test]
fn refusals_are_not_dropped_from_the_sample() {
    // Dropping the 20 refusals would leave a clean 1 ms tail.
    let mut latencies: Vec<_> = (0..980).map(|_| ms(1)).collect();
    latencies.extend(std::iter::repeat_n(None, 20));
    let s = summarize(&latencies);
    assert_eq!(s.samples, 1000);
    assert!(s.tail.value_us.is_infinite());
}

#[test]
fn latency_runs_from_the_due_time() {
    let start = Instant::now();
    let schedule = Schedule::new(start, 100.0, 1);
    assert_eq!(schedule.due(0), start);
    assert_eq!(schedule.due(5), start + Duration::from_millis(50));
    let done = start + Duration::from_millis(80);
    assert_eq!(schedule.latency(5, done), Duration::from_millis(30));
    // Done before due (clock skew between threads) is zero, not a panic.
    assert_eq!(schedule.latency(9, done), Duration::ZERO);
}

#[test]
fn a_burst_is_due_at_once() {
    let start = Instant::now();
    let schedule = Schedule::new(start, 20.0, 16);
    assert_eq!(schedule.due(0), start);
    assert_eq!(schedule.due(15), start);
    assert_eq!(schedule.due(16), start + Duration::from_millis(50));
    assert_eq!(schedule.due(47), start + Duration::from_millis(100));
    // The last request of a burst is late by the time the burst took.
    let done = start + Duration::from_millis(45);
    assert_eq!(schedule.latency(15, done), Duration::from_millis(45));
}

#[test]
fn a_stall_is_charged_to_every_request_it_delays() {
    // A 1 ms service that stalls 100 ms on request 0, offered 100
    // requests per second by a sender that blocks behind the stall.
    let start = Instant::now();
    let schedule = Schedule::new(start, 100.0, 1);
    let mut free = start;
    let mut from_due = Vec::new();
    let mut from_send = Vec::new();
    for i in 0..100u64 {
        let sent = schedule.due(i).max(free);
        let service = if i == 0 { 100 } else { 1 };
        let done = sent + Duration::from_millis(service);
        free = done;
        from_due.push(Some(schedule.latency(i, done)));
        from_send.push(Some(done - sent));
    }
    // Timed from the send, only the stalled request looks slow.
    assert_eq!(summarize(&from_send).tail.value_us, 1000.0);
    // Timed from the due time, the nine requests queued behind it are
    // late too, and the tail shows the stall.
    let due = summarize(&from_due);
    assert!(due.tail.value_us >= 10_000.0, "{due:?}");
    assert_eq!(from_due[1], ms(91));
}
