//! The offered-rate ladder that finds `max_qps`: the highest open-loop rate
//! at which the tail latency limit holds — a shed or failed request counts
//! as missing it — with no growing backlog. The limit applies to p99, or
//! to the highest percentile below it that the step's sample supports.
//!
//! The ladder grows the rate geometrically from a start rate until a step
//! fails, then bisects (in log space) between the highest passing and the
//! lowest failing rate until they are within `resolution` of each other.
//! The final resolution is the step size near the knee, so it must stay
//! finer than the bound the benchmark fixes on `max_qps`.
//!
//! A rate fails only if it fails twice in a row. Host noise is one-sided —
//! a scheduling stall can make a sustainable rate miss the limit, never
//! the reverse — so one retry keeps a stall from capping the ladder.

/// What one rate step measured.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StepOutcome {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Tail latency ([`tail_quantile`] of the step's requests) measured from
    /// each request's scheduled send, ms, with every shed or failed request
    /// counted as missing the limit (infinite).
    pub tail_ms: f64,
    /// Requests still outstanding when the last request was sent.
    pub backlog_end: u64,
}

/// The percentile a step of `n` requests is held to: p99, or the highest
/// of p98, p95 and p90 with ten samples beyond it, else the median.
pub fn tail_quantile(n: usize) -> f64 {
    [0.99, 0.98, 0.95, 0.9].into_iter().find(|&q| crate::stats::supports(n, q)).unwrap_or(0.5)
}

/// [`tail_quantile`] latency (ms) of a step's requests, with `failed`
/// requests counted as infinitely late: a request that is refused or fails
/// misses any limit.
pub fn tail_counting_failures(ok_ms: &[f64], failed: u64) -> f64 {
    let mut all = ok_ms.to_vec();
    all.extend(std::iter::repeat_n(f64::INFINITY, failed as usize));
    crate::stats::quantile_of(&all, tail_quantile(all.len()))
}

/// Most in-flight requests a step may end with, in seconds of arrivals: a
/// system keeping up holds about `rate × latency` in flight, so ending with
/// more than this much of the offered load outstanding means the queue
/// was growing.
pub const BACKLOG_S: f64 = 0.025;

/// Whether a step meets the tail limit (failures counted as misses) with
/// no growing backlog.
pub fn step_passes(s: &StepOutcome, limit_ms: f64) -> bool {
    s.tail_ms <= limit_ms && s.backlog_end as f64 <= s.rate * BACKLOG_S + 1.0
}

/// Ladder state: the highest passing and lowest failing rates seen.
#[derive(Clone, Debug)]
pub struct Ladder {
    start: f64,
    growth: f64,
    resolution: f64,
    floor: f64,
    pass: Option<f64>,
    fail: Option<f64>,
    /// A rate that failed once and is tried again next.
    retry: Option<f64>,
}

impl Ladder {
    /// A ladder starting at `start` req/s, multiplying by `growth` while
    /// steps pass, and stopping once the passing and failing rates are
    /// within a factor `1 + resolution`. Rates below `floor` are never
    /// tried: a system failing there has no `max_qps`.
    pub fn new(start: f64, growth: f64, resolution: f64, floor: f64) -> Self {
        assert!(start > 0.0 && growth > 1.0 && resolution > 0.0 && floor > 0.0);
        Ladder { start, growth, resolution, floor, pass: None, fail: None, retry: None }
    }

    /// The next rate to try, or `None` when the ladder has converged.
    pub fn next_rate(&self) -> Option<f64> {
        if self.retry.is_some() {
            return self.retry;
        }
        match (self.pass, self.fail) {
            (None, None) => Some(self.start),
            (Some(p), None) => Some(p * self.growth),
            (None, Some(f)) => Some(f / self.growth).filter(|&r| r >= self.floor),
            (Some(p), Some(f)) => (f > p * (1.0 + self.resolution)).then(|| (p * f).sqrt()),
        }
    }

    /// Records a step's verdict at `rate`.
    pub fn record(&mut self, rate: f64, passed: bool) {
        if !passed && self.retry.is_none() {
            self.retry = Some(rate);
            return;
        }
        self.retry = None;
        if passed {
            self.pass = Some(self.pass.map_or(rate, |p| p.max(rate)));
        } else {
            self.fail = Some(self.fail.map_or(rate, |f| f.min(rate)));
        }
    }

    /// The highest rate that passed so far.
    pub fn best(&self) -> Option<f64> {
        self.pass
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(rate: f64, tail_ms: f64, backlog_end: u64) -> StepOutcome {
        StepOutcome { rate, tail_ms, backlog_end }
    }

    #[test]
    fn pass_rule_needs_latency_and_bounded_backlog() {
        assert!(step_passes(&outcome(100.0, 9.9, 1), 10.0));
        assert!(!step_passes(&outcome(100.0, 10.1, 1), 10.0));
        // 1000 req/s × 25 ms = 25 in flight, plus the request just sent.
        assert!(step_passes(&outcome(1000.0, 5.0, 26), 10.0));
        assert!(!step_passes(&outcome(1000.0, 5.0, 27), 10.0));
    }

    #[test]
    fn steps_are_held_to_the_highest_supported_percentile() {
        assert_eq!(tail_quantile(100_000), 0.99);
        assert_eq!(tail_quantile(1000), 0.99);
        assert_eq!(tail_quantile(999), 0.98);
        assert_eq!(tail_quantile(500), 0.98);
        assert_eq!(tail_quantile(499), 0.95);
        assert_eq!(tail_quantile(100), 0.9);
        assert_eq!(tail_quantile(99), 0.5);
    }

    #[test]
    fn failures_count_as_missing_the_limit() {
        let ok: Vec<f64> = vec![1.0; 995];
        // Five failures in 1000: p99 (rank 990) is still a served request.
        assert_eq!(tail_counting_failures(&ok, 5), 1.0);
        assert!(step_passes(&outcome(100.0, tail_counting_failures(&ok, 5), 1), 10.0));
        // Eleven in 1006: rank 996 lands on a failure.
        assert!(tail_counting_failures(&ok, 11).is_infinite());
        // 500 requests are held to p98: ten failures still pass, eleven not.
        let ok: Vec<f64> = vec![1.0; 490];
        assert_eq!(tail_counting_failures(&ok, 10), 1.0);
        assert!(tail_counting_failures(&ok[..489], 11).is_infinite());
    }

    /// Drives a ladder against a system whose capacity is `cap`.
    fn run(cap: f64, ladder: &mut Ladder) -> Vec<f64> {
        let mut tried = Vec::new();
        while let Some(r) = ladder.next_rate() {
            tried.push(r);
            ladder.record(r, r <= cap);
            assert!(tried.len() < 64, "ladder failed to converge");
        }
        tried
    }

    #[test]
    fn ladder_grows_then_bisects_to_resolution() {
        let mut l = Ladder::new(100.0, 1.5, 0.04, 10.0);
        let tried = run(530.0, &mut l);
        // Geometric growth first: 100, 150, 225, 337.5, 506.25, 759.4 (fails).
        assert_eq!(&tried[..6], &[100.0, 150.0, 225.0, 337.5, 506.25, 759.375]);
        let best = l.best().unwrap();
        assert!(best <= 530.0 && best > 530.0 / 1.04, "best {best}");
        // Converged: no further rate is proposed.
        assert_eq!(l.next_rate(), None);
    }

    #[test]
    fn a_rate_fails_only_twice_in_a_row() {
        // A system with capacity 530 whose first attempt at every rate
        // stalls: retries find the same knee.
        let mut l = Ladder::new(100.0, 1.5, 0.04, 10.0);
        let mut attempts = std::collections::HashMap::new();
        let mut tried = 0;
        while let Some(r) = l.next_rate() {
            let n = attempts.entry(r.to_bits()).or_insert(0);
            *n += 1;
            l.record(r, *n > 1 && r <= 530.0);
            tried += 1;
            assert!(tried < 64, "ladder failed to converge");
        }
        let best = l.best().unwrap();
        assert!(best <= 530.0 && best > 530.0 / 1.04, "best {best}");
    }

    #[test]
    fn ladder_steps_down_when_the_start_fails() {
        let mut l = Ladder::new(100.0, 1.5, 0.04, 10.0);
        run(40.0, &mut l);
        let best = l.best().unwrap();
        assert!(best <= 40.0 && best > 40.0 / 1.04, "best {best}");
    }

    #[test]
    fn ladder_gives_up_below_the_floor() {
        let mut l = Ladder::new(100.0, 1.5, 0.04, 10.0);
        let tried = run(1.0, &mut l);
        assert!(tried.iter().all(|&r| r >= 10.0));
        assert_eq!(l.best(), None);
    }
}
