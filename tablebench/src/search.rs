//! The read side: the request streams of the two search workloads, the
//! wire phases (reference rate and rate ladder), the in-process replay,
//! and the checks on served hits (bit identity, recall).

use crate::ladder::{step_passes, tail_counting_failures, Ladder, StepOutcome};
use crate::loadgen::{Conn, PhaseOut};
use crate::pipeline::K;
use crate::stats::{derive_seed, quantile_of, SplitMix, Zipf};
use crate::trace::Tracer;
use std::io;
use std::net::SocketAddr;
use std::time::Instant;
use tabbin_index::{
    CandidateSource, EngineStats, ExactScan, Hit, LshCandidates, QueryEngine, ShardedStore,
};
use tabbin_serve::{PipelinedClient, QueryOutcome};

/// Fewest requests in the reference phase: enough that p99 has ten beyond
/// it.
const MIN_PHASE_REQUESTS: usize = 1000;
/// Fewest requests in a ladder step: enough that p98 has ten beyond it.
const MIN_STEP_REQUESTS: usize = 500;
/// Share of `--seconds` the reference-rate phase takes at least.
const REF_SHARE: f64 = 0.25;
/// Share of `--seconds` one ladder step takes at least.
const STEP_SHARE: f64 = 0.05;
/// Ladder: start at the workload's start rate, grow by `LADDER_GROWTH`
/// while steps pass, stop once passing and failing rates are within
/// `LADDER_RESOLUTION` (finer than the bound on `max_qps`).
const LADDER_GROWTH: f64 = 1.5;
const LADDER_RESOLUTION: f64 = 0.04;
/// Held-out queries whose served top-10 is scored against brute force.
pub const RECALL_QUERIES: usize = 1000;
/// Requests of the reference phase replayed in-process in the traced run.
pub const REPLAY_REQUESTS: usize = 1000;
/// Queries the hot workload draws from, and its Zipf exponent.
pub const HOT_POOL: usize = 64;
const ZIPF_S: f64 = 1.0;

/// A search workload's fixed traffic parameters.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub hot: bool,
    /// Offered rate of the reference phase, req/s — well below saturation.
    pub ref_rate: f64,
    /// First rate the ladder offers, req/s.
    pub ladder_start: f64,
}

/// The tail latency limit `max_qps` must meet (see `ladder`): an
/// interactive-search budget. It sits well above the tail that scheduling
/// stalls of a small shared host put on any request (tens of ms at p99
/// under moderate load), so the ladder finds where queueing takes over,
/// not where the host hiccups.
pub const LIMIT_MS: f64 = 100.0;

/// On a 2-core host a miss costs about 2-3 ms of one core and saturates
/// near 450 req/s; a hit costs a few µs of the I/O thread and saturates
/// above 100k req/s. The reference rates sit at a third of that or less,
/// so a host running at half speed still queues little; the ladders start
/// where a few steps reach the knee.
pub const MISS: Spec = Spec { hot: false, ref_rate: 150.0, ladder_start: 300.0 };
pub const HOT: Spec = Spec { hot: true, ref_rate: 2000.0, ladder_start: 16_000.0 };

/// The request stream: indices into the workload's query pool.
///
/// Miss: one seeded permutation of the whole held-out pool, cycled, so a
/// query recurs only after every other pool query has been sent — more
/// distinct queries than the engine cache holds. Hot: Zipf draws over
/// [`HOT_POOL`] queries.
pub struct Requests {
    perm: Vec<usize>,
    zipf: Option<Zipf>,
    next: usize,
}

impl Requests {
    pub fn new(hot: bool, pool: usize, seed: u64) -> Self {
        let seed = derive_seed(seed, crate::pipeline::SEED_ORDER);
        let mut perm: Vec<usize> = (0..pool).collect();
        let mut rng = SplitMix::new(seed);
        for i in (1..pool).rev() {
            perm.swap(i, rng.below(i + 1));
        }
        Requests { perm, zipf: hot.then(|| Zipf::new(pool, ZIPF_S, seed)), next: 0 }
    }

    pub fn take(&mut self, n: usize) -> Vec<usize> {
        (0..n)
            .map(|_| {
                let i = self.next;
                self.next += 1;
                match &mut self.zipf {
                    Some(z) => self.perm[z.sample()],
                    None => self.perm[i % self.perm.len()],
                }
            })
            .collect()
    }
}

/// A ladder step as the results file records it. Per-request vectors are
/// dropped once summarized, so the generator's memory does not grow with
/// the offered rate.
pub struct Step {
    pub out: PhaseOut,
    pub tail_ms: f64,
    pub lag_p99_ms: f64,
    pub passed: bool,
}

/// Everything the wire side measured.
pub struct WireOut {
    pub reference: PhaseOut,
    pub reference_order: Vec<usize>,
    pub steps: Vec<Step>,
    /// Sampled replies of every phase: (pool index, hits).
    pub sampled: Vec<(usize, Vec<Hit>)>,
    /// Highest achieved rate of a phase (the reference or a ladder step)
    /// that held the limit, if any did.
    pub max_qps: Option<f64>,
    /// The highest offered rate the ladder passed.
    pub max_offered: Option<f64>,
    /// Process peak RSS after the reference phase, MiB: the system at its
    /// reference load, before the ladder overloads its queues.
    pub reference_rss_mb: f64,
}

/// Hits of about this many replies per phase are kept for the identity
/// check.
const SAMPLES_PER_PHASE: usize = 100;

fn stride(n: usize) -> usize {
    (n / SAMPLES_PER_PHASE).max(1)
}

/// The sampled replies of a phase, keyed by pool index.
fn take_sampled(out: &mut PhaseOut, order: &[usize]) -> Vec<(usize, Vec<Hit>)> {
    std::mem::take(&mut out.sampled).into_iter().map(|(i, h)| (order[i], h)).collect()
}

/// The reference phase, then (unless `ladder` is false) the rate ladder,
/// in about `seconds` of wall time.
pub fn wire_phases(
    conn: &mut Conn,
    pool: &[Vec<f32>],
    reqs: &mut Requests,
    spec: &Spec,
    seconds: f64,
    ladder: bool,
) -> io::Result<WireOut> {
    let start = Instant::now();
    let n_ref = MIN_PHASE_REQUESTS.max((spec.ref_rate * REF_SHARE * seconds) as usize);
    let reference_order = reqs.take(n_ref);
    let mut reference = conn.phase(pool, &reference_order, spec.ref_rate, K, stride(n_ref))?;
    let sampled = take_sampled(&mut reference, &reference_order);
    // The reference phase is the ladder's first data point: if it holds
    // the limit, max_qps is at least its achieved rate.
    let ref_outcome = StepOutcome {
        rate: spec.ref_rate,
        tail_ms: tail_counting_failures(&reference.ok_latencies(), reference.failed()),
        backlog_end: reference.backlog_end,
    };
    let max_qps = step_passes(&ref_outcome, LIMIT_MS).then(|| reference.achieved());
    let mut out = WireOut {
        reference,
        reference_order,
        steps: Vec::new(),
        sampled,
        max_qps,
        max_offered: None,
        reference_rss_mb: crate::report::peak_rss_mb(),
    };
    if !ladder {
        return Ok(out);
    }
    let mut l =
        Ladder::new(spec.ladder_start, LADDER_GROWTH, LADDER_RESOLUTION, spec.ref_rate / 4.0);
    while let Some(rate) = l.next_rate() {
        let n = MIN_STEP_REQUESTS.max((rate * STEP_SHARE * seconds) as usize);
        if start.elapsed().as_secs_f64() + n as f64 / rate > seconds {
            break;
        }
        let order = reqs.take(n);
        let mut phase = conn.phase(pool, &order, rate, K, stride(n))?;
        out.sampled.extend(take_sampled(&mut phase, &order));
        let tail_ms = tail_counting_failures(&phase.ok_latencies(), phase.failed());
        let lag_p99_ms = quantile_of(&phase.lag_ms, 0.99);
        let outcome = StepOutcome { rate, tail_ms, backlog_end: phase.backlog_end };
        let passed = step_passes(&outcome, LIMIT_MS);
        l.record(rate, passed);
        if passed && out.max_qps.is_none_or(|best| phase.achieved() > best) {
            out.max_qps = Some(phase.achieved());
        }
        phase.latency_ms = Vec::new();
        phase.lag_ms = Vec::new();
        out.steps.push(Step { out: phase, tail_ms, lag_p99_ms, passed });
    }
    out.max_offered = l.best();
    Ok(out)
}

/// Sends the recall sample over a fresh pipelined connection (a window
/// the admission queue always holds, so nothing is shed) and returns the
/// served hits, query order.
pub fn served_hits(addr: SocketAddr, queries: &[Vec<f32>]) -> io::Result<Vec<Vec<Hit>>> {
    let mut client = PipelinedClient::connect(addr, 8)?;
    client
        .query_all(queries, K)?
        .into_iter()
        .map(|o| match o {
            QueryOutcome::Hits(h) => Ok(h),
            QueryOutcome::Overloaded { .. } => Err(io::Error::other("recall query shed")),
        })
        .collect()
}

/// The in-process replay of a request stream.
#[derive(Debug, Default)]
pub struct ReplayOut {
    /// Per request: `QueryEngine::query` time, µs.
    pub engine_us: Vec<f64>,
    /// Per request: `QueryEngine::query` time once the request is cached —
    /// the engine's own path (normalize, key, LRU, copy) without a storage
    /// search, µs.
    pub engine_cached_us: Vec<f64>,
    /// Per request: direct `ShardedStore::search_probed` time under the
    /// engine's plan, µs.
    pub search_us: Vec<f64>,
    pub hits: Vec<Vec<Hit>>,
    /// Engine counters after the first pass.
    pub first_pass: EngineStats,
    pub rows_scanned_per_query: f64,
    pub shards_probed_per_query: f64,
    pub wall_s: f64,
}

/// Replays `order` in-process, in three passes so no call warms the CPU
/// caches for the next one of the same request: every request through
/// `QueryEngine::query`; every request straight through
/// `ShardedStore::search_probed` with the engine's plan and candidate
/// source; every request through `QueryEngine::query` again, now cached.
/// The engine's own cost cannot be had by subtracting the two searches: on
/// a shared host their noise is larger than it.
pub fn replay(
    engine: &QueryEngine<ShardedStore>,
    queries: &[Vec<f32>],
    order: &[usize],
    tr: &mut Tracer,
) -> ReplayOut {
    let t0 = Instant::now();
    let root = tr.begin("bench.replay", 0);
    let mut out = ReplayOut::default();
    for (i, &q) in order.iter().enumerate() {
        let t = Instant::now();
        let hits = tr.span("index.engine", i as u64, || engine.query(&queries[q], K));
        out.engine_us.push(t.elapsed().as_secs_f64() * 1e6);
        out.hits.push(hits);
    }
    out.first_pass = engine.stats();
    let plan = engine.plan(K);
    let source: &dyn CandidateSource = if plan.lsh { &LshCandidates } else { &ExactScan };
    let store = engine.store();
    let before = store.stats();
    for (i, &q) in order.iter().enumerate() {
        let t = Instant::now();
        tr.span("index.search", i as u64, || {
            std::hint::black_box(store.search_probed(
                &queries[q],
                plan.fetch_k,
                source,
                plan.nprobe,
            ))
        });
        out.search_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let after = store.stats();
    for (i, &q) in order.iter().enumerate() {
        let t = Instant::now();
        tr.span("index.engine", i as u64, || std::hint::black_box(engine.query(&queries[q], K)));
        out.engine_cached_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let n = order.len().max(1) as f64;
    out.rows_scanned_per_query =
        (after.totals().rows_scanned - before.totals().rows_scanned) as f64 / n;
    out.shards_probed_per_query = (after.shards_probed - before.shards_probed) as f64
        / (after.queries - before.queries).max(1) as f64;
    tr.end(root);
    out.wall_s = t0.elapsed().as_secs_f64();
    out
}

/// Exact top-`k` ids over `live` by brute-force dot product (score
/// descending, id ascending) — the ground truth for recall.
pub fn exact_top(store: &ShardedStore, live: &[u64], q: &[f32], k: usize) -> Vec<u64> {
    let mut scored: Vec<(f32, u64)> = live
        .iter()
        .map(|&id| (tabbin_index::simd::dot(q, store.get(id).expect("live id is stored")), id))
        .collect();
    let k = k.min(scored.len());
    let cmp = |a: &(f32, u64), b: &(f32, u64)| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1));
    if k > 0 && k < scored.len() {
        scored.select_nth_unstable_by(k - 1, cmp);
    }
    scored.truncate(k);
    scored.sort_by(cmp);
    scored.into_iter().map(|p| p.1).collect()
}

/// Mean share of the exact top-`k` that each served list contains.
pub fn recall_at_k(
    store: &ShardedStore,
    live: &[u64],
    queries: &[Vec<f32>],
    served: &[Vec<Hit>],
) -> f64 {
    let total: f64 = queries
        .iter()
        .zip(served)
        .map(|(q, hits)| {
            let truth = exact_top(store, live, q, K);
            let found = truth.iter().filter(|id| hits.iter().take(K).any(|h| h.id == **id)).count();
            found as f64 / truth.len().max(1) as f64
        })
        .sum();
    total / queries.len().max(1) as f64
}

/// Whether two hit lists agree bit for bit (ids and score bits).
pub fn same_bits(a: &[Hit], b: &[Hit]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| x.id == y.id && x.score.to_bits() == y.score.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_stream_repeats_only_after_the_whole_pool() {
        let mut r = Requests::new(false, 100, 9);
        let a = r.take(250);
        let mut first: Vec<usize> = a[..100].to_vec();
        first.sort_unstable();
        assert_eq!(first, (0..100).collect::<Vec<_>>());
        assert_eq!(a[..100], a[100..200]);
        assert_eq!(a[..50], a[200..]);
    }

    #[test]
    fn hot_stream_is_skewed_and_seeded() {
        let a = Requests::new(true, HOT_POOL, 4).take(4000);
        assert_eq!(a, Requests::new(true, HOT_POOL, 4).take(4000));
        let mut counts = vec![0usize; HOT_POOL];
        for &q in &a {
            counts[q] += 1;
        }
        counts.sort_unstable();
        assert!(counts[HOT_POOL - 1] > 10 * counts[HOT_POOL / 2], "{counts:?}");
    }
}
