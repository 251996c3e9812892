//! The three workloads: set-up, the timed (untraced) run and its metrics,
//! the traced run and its per-layer metrics, and every output check.

use crate::pipeline::{self, Batch, Inputs, RoundOut, StageCounts, K};
use crate::report::{Metric, Report};
use crate::search::{self, ReplayOut, Requests, Spec, WireOut};
use crate::stats::{median, quantile_of, supports};
use crate::trace::Tracer;
use crate::Args;
use std::collections::HashSet;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use tabbin_core::batch::BatchEncoder;
use tabbin_core::variants::TabBiNFamily;
use tabbin_index::{DurabilityPolicy, EngineConfig, QueryEngine, ShardedStore};
use tabbin_serve::{ServeConfig, Server};
use tabbin_table::Table;

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// Bound the traced stages must reproduce `BatchEncoder` within (the bound
/// `prop_batch` pins for batched vs per-table embedding).
const STAGE_TOLERANCE: f32 = 1e-5;
/// The traced run's self times must sum to its wall time within this share.
const SELF_TIME_TOLERANCE: f64 = 0.1;

/// The end-to-end metrics every untraced run prints, in order. Every
/// workload also reports its latencies (`latency_ms_p50`, `latency_ms_p90`
/// and, for the search workloads, `latency_ms_p99`) in the readable report
/// and the results file, but they carry no regression bound: on a small
/// shared host the hypervisor steals up to a fifth of the CPU, in stalls of
/// several ms and in slow spells of a minute or more, and across ten seeds
/// the median request latency of the search workloads spread by 37-61%
/// (interquartile range over median), beyond any usable bound.
pub const END_TO_END: [&str; 4] = ["setup_s", "throughput_per_s", "recall_at_10", "peak_rss_mb"];

/// The per-layer metrics every traced run prints, in order.
pub const PER_LAYER: [&str; 25] = [
    "core.encode.s",
    "core.encode.tokens",
    "core.forward.s",
    "core.forward.seqs",
    "core.forward.tokens_per_s",
    "index.upsert.s",
    "index.upsert.us_p99",
    "index.compactions",
    "index.compaction_pause_ms_p99",
    "index.wal.bytes_per_table",
    "index.checkpoint.s",
    "index.checkpoint.count",
    "index.search.us_p50",
    "index.search.us_p99",
    "index.search.rows_scanned_per_query",
    "index.search.shards_probed_per_query",
    "index.engine.us_p50",
    "index.engine.cache_hit_rate",
    "index.engine.queries_per_store_call",
    "serve.us_p50",
    "serve.us_p99",
    "serve.batcher.queries_per_batch",
    "serve.shed",
    "bench.gen_lag_ms_p99",
    "bench.trace_overhead_frac",
];

/// What a set-up leaves behind.
struct Fixture {
    family: TabBiNFamily,
    inputs: Inputs,
    /// Held-out query embeddings.
    queries: Vec<Vec<f32>>,
    /// The operation stream: churn for ingest, the plain load for search.
    stream: Vec<Batch>,
    /// Search: the loaded store and what loading it measured.
    store: Option<ShardedStore>,
    load: Option<RoundOut>,
}

fn dim(family: &TabBiNFamily) -> usize {
    4 * family.cfg.hidden
}

/// Generates the tables, pretrains, embeds the held-out queries and (for
/// search) embeds and loads the corpus into a fresh durable store — the
/// traced load calls each stage itself inside spans.
fn set_up(
    args: &Args,
    dir: &Path,
    traced: Option<(&mut Tracer, &mut StageCounts)>,
) -> io::Result<Fixture> {
    let inputs = pipeline::make_inputs(args.seed);
    let family = pipeline::pretrained(&inputs);
    let queries = BatchEncoder::new(&family).embed_tables(&inputs.queries);
    if args.workload == "ingest" {
        let stream = pipeline::churn_stream(&inputs, args.seed);
        return Ok(Fixture { family, inputs, queries, stream, store: None, load: None });
    }
    let stream = pipeline::load_stream(inputs.n_corpus);
    let mut store = pipeline::open_store(dir, dim(&family))?;
    let load = match traced {
        Some((tr, counts)) => {
            let root = tr.begin("bench.load", 0);
            let out =
                pipeline::run_staged(&family, &inputs.tables, &stream, &mut store, tr, counts);
            tr.end(root);
            out?
        }
        None => pipeline::run_batched(&family, &inputs.tables, &stream, &mut store)?,
    };
    Ok(Fixture { family, inputs, queries, stream, store: Some(store), load: Some(load) })
}

/// Untraced runs set up [`SETUP_REPS`] times and keep the last fixture.
fn set_up_timed(args: &Args, dir: &Path, rep: &mut Report) -> io::Result<Fixture> {
    let mut times = Vec::new();
    let mut fixture = None;
    for r in 0..SETUP_REPS {
        drop(fixture.take());
        let t = Instant::now();
        fixture = Some(set_up(args, &dir.join(format!("setup-{r}")), None)?);
        times.push(t.elapsed().as_secs_f64());
    }
    rep.runs.push(("setups", SETUP_REPS));
    rep.metric(
        Metric::new(
            "setup_s",
            "s",
            median(&times),
            "generate, pretrain, embed corpus and queries, open store",
        )
        .with_samples(times),
    );
    Ok(fixture.expect("at least one set-up"))
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Held-out queries must not duplicate any indexed embedding.
fn check_disjoint(rep: &mut Report, queries: &[Vec<f32>], indexed: &[Vec<f32>]) {
    let seen: HashSet<Vec<u32>> = indexed.iter().map(|v| bits(v)).collect();
    let dups = queries.iter().filter(|q| seen.contains(&bits(q))).count();
    rep.check(
        "held_out_queries_disjoint",
        dups == 0,
        format!(
            "{dups} of {} held-out queries duplicate one of {} indexed embeddings",
            queries.len(),
            seen.len()
        ),
    );
}

/// The first batch, embedded stage by stage, must reproduce `BatchEncoder`.
fn check_stages(rep: &mut Report, f: &Fixture) {
    let refs: Vec<&Table> = f.stream[0].upserts.iter().map(|&(_, t)| &f.inputs.tables[t]).collect();
    let staged = pipeline::staged_embed(
        &f.family,
        &refs,
        0,
        &mut Tracer::new(false),
        &mut StageCounts::default(),
    );
    let batched = BatchEncoder::new(&f.family).embed_table_refs(&refs);
    stage_check(rep, &staged, &batched, "first batch");
}

fn stage_check(rep: &mut Report, staged: &[Vec<f32>], batched: &[Vec<f32>], what: &str) {
    let diff = pipeline::max_abs_diff(staged, batched);
    rep.check(
        "staged_embedding_matches_batch_encoder",
        diff < STAGE_TOLERANCE,
        format!("{what}: {} tables, max |diff| {diff:e} (bound {STAGE_TOLERANCE:e})", staged.len()),
    );
}

/// Reopens the durable directory and checks that every acknowledged id
/// comes back with its vector and no deleted id does. Returns the reopened
/// store.
fn check_reopen(
    rep: &mut Report,
    store: ShardedStore,
    dir: &Path,
    stream: &[Batch],
    embeddings: &[Vec<f32>],
) -> io::Result<ShardedStore> {
    let live = pipeline::final_state(stream);
    let dead = pipeline::deleted_ids(stream);
    // The embedding each live id was last upserted with.
    let mut last = std::collections::HashMap::new();
    for (pos, &(id, _)) in stream.iter().flat_map(|b| &b.upserts).enumerate() {
        last.insert(id, pos);
    }
    let mut wrong = 0usize;
    let mut acked = Vec::with_capacity(live.len());
    for &(id, _) in &live {
        let stored = store.get(id).map(<[f32]>::to_vec).unwrap_or_default();
        let e = &embeddings[last[&id]];
        let norm = e.iter().map(|x| x * x).sum::<f32>().sqrt();
        let close = stored.len() == e.len()
            && stored.iter().zip(e).all(|(s, x)| (s - x / norm).abs() < 1e-5);
        wrong += usize::from(!close);
        acked.push((id, stored));
    }
    rep.check(
        "store_holds_acknowledged_vectors",
        wrong == 0 && store.len() == live.len(),
        format!(
            "{wrong} of {} live ids differ from their embedding; store len {}",
            live.len(),
            store.len()
        ),
    );
    drop(store);
    let reopened = pipeline::open_store(dir, acked.first().map_or(0, |a| a.1.len()))?;
    let lost = acked.iter().filter(|(id, v)| reopened.get(*id).map(bits) != Some(bits(v))).count();
    let resurrected = dead.iter().filter(|&&id| reopened.contains(id)).count();
    rep.check(
        "reopen_returns_acknowledged_state",
        lost == 0 && resurrected == 0 && reopened.len() == live.len(),
        format!(
            "{lost} of {} acknowledged ids missing or changed, {resurrected} of {} deleted ids back, len {}",
            acked.len(),
            dead.len(),
            reopened.len()
        ),
    );
    Ok(reopened)
}

fn recall_metric(rep: &mut Report, recall: f64, n: usize, what: &str) {
    rep.metric(Metric::new(
        "recall_at_10",
        "ratio",
        recall,
        format!("served top-10 vs exact brute force, {what}"),
    ));
    rep.detail("recall_queries", n.to_string());
}

fn rss_metric(rep: &mut Report, mb: f64, when: &str) {
    rep.metric(Metric::new("peak_rss_mb", "MiB", mb, format!("process VmHWM {when}")));
}

/// Per-layer inputs only the search workloads have.
#[derive(Default)]
struct WireLayer {
    serve_us: Vec<f64>,
    queries_per_batch: f64,
    shed: u64,
    gen_lag_ms: Vec<f64>,
    cache_hit_rate: f64,
    queries_per_store_call: f64,
}

/// Per-layer metrics of a traced run.
struct Layers<'a> {
    tr: &'a Tracer,
    counts: &'a StageCounts,
    write: &'a RoundOut,
    /// Compactions during the write pass and their pauses, s.
    compactions: u64,
    pauses_s: Vec<f64>,
    replay: &'a ReplayOut,
    wire: WireLayer,
    overhead: f64,
}

fn per_layer(rep: &mut Report, l: Layers) {
    let tr = l.tr;
    let us = |name: &str| tr.durations(name).iter().map(|&d| d as f64 / 1e3).collect::<Vec<f64>>();
    let mut upsert_us = us("index.upsert");
    upsert_us.extend(us("index.delete"));
    let forward_s = tr.total_s("core.forward");
    let pauses_ms: Vec<f64> = l.pauses_s.iter().map(|s| s * 1e3).collect();
    let tables = l.write.upserts.max(1) as f64;
    let cached = &l.replay.engine_cached_us;
    let mut m = |name, unit, value: f64, what: String, samples: Vec<f64>| {
        rep.metric(Metric::new(name, unit, value, what).with_samples(samples));
    };
    m(
        "core.encode.s",
        "s",
        tr.total_s("core.encode"),
        "encode_segment/encode_text, all segments".into(),
        vec![],
    );
    m("core.encode.tokens", "count", l.counts.tokens as f64, "tokens encoded".into(), vec![]);
    m("core.forward.s", "s", forward_s, "embed_batch_parallel, all segment models".into(), vec![]);
    m("core.forward.seqs", "count", l.counts.seqs as f64, "sequences embedded".into(), vec![]);
    m(
        "core.forward.tokens_per_s",
        "tokens/s",
        l.counts.tokens as f64 / forward_s.max(1e-9),
        "tokens through the segment models per forward second".into(),
        vec![],
    );
    m(
        "index.upsert.s",
        "s",
        tr.total_s("index.upsert") + tr.total_s("index.delete"),
        "durable upserts and deletes".into(),
        vec![],
    );
    m(
        "index.upsert.us_p99",
        "us",
        quantile_of(&upsert_us, 0.99),
        format!("p99 of {} upserts and deletes", upsert_us.len()),
        upsert_us,
    );
    m(
        "index.compactions",
        "count",
        l.compactions as f64,
        "compactions during the write pass".into(),
        vec![],
    );
    m(
        "index.compaction_pause_ms_p99",
        "ms",
        quantile_of(&pauses_ms, 0.99),
        format!("nearest-rank p99 of {} compaction pauses", pauses_ms.len()),
        pauses_ms,
    );
    m(
        "index.wal.bytes_per_table",
        "B",
        l.write.wal_bytes as f64 / tables,
        format!("WAL bytes appended per upserted table ({} bytes)", l.write.wal_bytes),
        vec![],
    );
    m("index.checkpoint.s", "s", tr.total_s("index.checkpoint"), "checkpoints".into(), vec![]);
    m("index.checkpoint.count", "count", l.write.checkpoints as f64, "checkpoints".into(), vec![]);
    let search = &l.replay.search_us;
    m(
        "index.search.us_p50",
        "us",
        quantile_of(search, 0.5),
        format!("search_probed, {} queries", search.len()),
        search.clone(),
    );
    m(
        "index.search.us_p99",
        "us",
        quantile_of(search, 0.99),
        format!("search_probed, {} queries", search.len()),
        search.clone(),
    );
    m(
        "index.search.rows_scanned_per_query",
        "count",
        l.replay.rows_scanned_per_query,
        "StoreStats.rows_scanned per search".into(),
        vec![],
    );
    m(
        "index.search.shards_probed_per_query",
        "count",
        l.replay.shards_probed_per_query,
        "shards probed per search".into(),
        vec![],
    );
    m(
        "index.engine.us_p50",
        "us",
        quantile_of(cached, 0.5),
        format!("QueryEngine::query without a storage search (cached), {} queries", cached.len()),
        cached.clone(),
    );
    m(
        "index.engine.cache_hit_rate",
        "ratio",
        l.wire.cache_hit_rate,
        "engine LRU hits per lookup".into(),
        vec![],
    );
    m(
        "index.engine.queries_per_store_call",
        "count",
        l.wire.queries_per_store_call,
        "queries per storage call (coalescing)".into(),
        vec![],
    );
    let serve = &l.wire.serve_us;
    m(
        "serve.us_p50",
        "us",
        quantile_of(serve, 0.5),
        format!("wire minus engine latency, {} requests", serve.len()),
        serve.clone(),
    );
    m(
        "serve.us_p99",
        "us",
        quantile_of(serve, 0.99),
        format!("wire minus engine latency, {} requests", serve.len()),
        serve.clone(),
    );
    m(
        "serve.batcher.queries_per_batch",
        "count",
        l.wire.queries_per_batch,
        "MicroBatchStats submitted per batch".into(),
        vec![],
    );
    m(
        "serve.shed",
        "count",
        l.wire.shed as f64,
        "requests shed during the traced wire phase".into(),
        vec![],
    );
    let lag = &l.wire.gen_lag_ms;
    m(
        "bench.gen_lag_ms_p99",
        "ms",
        quantile_of(lag, 0.99),
        format!("generator send lateness, {} requests", lag.len()),
        lag.clone(),
    );
    m(
        "bench.trace_overhead_frac",
        "ratio",
        l.overhead,
        "traced over untraced wall, minus one".into(),
        vec![],
    );
}

/// Self times of the traced run must add up to its wall time.
fn check_self_times(rep: &mut Report, tr: &Tracer, wall_s: f64) {
    let by_name = tr.self_by_name();
    let sum: f64 = by_name.values().sum();
    rep.check(
        "self_times_sum_to_traced_wall",
        (sum - wall_s).abs() <= SELF_TIME_TOLERANCE * wall_s,
        format!("self times sum to {sum:.4} s, traced wall {wall_s:.4} s"),
    );
    let layers: Vec<String> = by_name
        .iter()
        .map(|(k, v)| format!("{}: {}", crate::report::string(k), crate::report::num(*v)))
        .collect();
    rep.detail("self_time_s", format!("{{{}}}", layers.join(", ")));
}

pub fn run_ingest(args: &Args, dir: &Path, rep: &mut Report, tr: &mut Tracer) -> io::Result<()> {
    if args.trace {
        return trace_ingest(args, dir, rep, tr);
    }
    let fx = set_up_timed(args, dir, rep)?;
    check_stages(rep, &fx);
    let start = Instant::now();
    let mut rounds: Vec<RoundOut> = Vec::new();
    let mut round_dir: PathBuf;
    let mut store;
    loop {
        round_dir = dir.join(format!("round-{}", rounds.len()));
        store = pipeline::open_store(&round_dir, dim(&fx.family))?;
        rounds.push(pipeline::run_batched(&fx.family, &fx.inputs.tables, &fx.stream, &mut store)?);
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed + elapsed / rounds.len() as f64 > args.seconds as f64 {
            break;
        }
        drop(store);
        std::fs::remove_dir_all(&round_dir)?;
    }
    rep.runs.push(("rounds", rounds.len()));
    let rates: Vec<f64> = rounds.iter().map(|r| r.upserts as f64 / r.wall_s).collect();
    let listed: Vec<String> = rates.iter().map(|r| crate::report::num(*r)).collect();
    rep.detail("round_tables_per_s", format!("[{}]", listed.join(", ")));
    let batch_ms: Vec<f64> = rounds.iter().flat_map(|r| r.batch_ms.iter().copied()).collect();
    let last = rounds.last().expect("at least one round");
    rep.metric(
        Metric::new(
            "throughput_per_s",
            "1/s",
            median(&rates),
            format!(
                "ingest_tables_per_s: median of {} rounds of {} tables",
                rounds.len(),
                last.upserts
            ),
        )
        .with_samples(rates),
    );
    latency_metrics(
        rep,
        &batch_ms,
        false,
        "ingest_batch_ms",
        "64-table batch, encoder entry to last upsert",
    );
    rep.attempted = rounds.iter().map(|r| r.upserts + r.deletes).sum();
    rep.failed = rounds.iter().map(|r| r.failed).sum();
    rep.check(
        "deletes_hit_live_ids",
        rep.failed == 0,
        format!("{} deletes of ids not live", rep.failed),
    );
    check_disjoint(rep, &fx.queries, &last.embeddings);
    let reopened = check_reopen(rep, store, &round_dir, &fx.stream, &last.embeddings)?;
    ingest_recall(rep, reopened, &fx, &mut Tracer::new(false));
    rss_metric(rep, crate::report::peak_rss_mb(), "at the end of the run");
    Ok(())
}

/// Recall of the store the stream left behind, queried in-process.
fn ingest_recall(
    rep: &mut Report,
    store: ShardedStore,
    fx: &Fixture,
    tr: &mut Tracer,
) -> ReplayOut {
    let live: Vec<u64> = pipeline::final_state(&fx.stream).iter().map(|p| p.0).collect();
    let engine = QueryEngine::new(store, EngineConfig::default());
    let n = search::RECALL_QUERIES.min(fx.queries.len());
    let order: Vec<usize> = (0..n).collect();
    let replay = search::replay(&engine, &fx.queries, &order, tr);
    let recall = search::recall_at_k(engine.store(), &live, &fx.queries[..n], &replay.hits);
    recall_metric(rep, recall, n, &format!("{n} held-out queries, in-process, after churn"));
    replay
}

/// `latency_ms_p50`, `latency_ms_p90` and, when `p99` is asked for,
/// `latency_ms_p99`: each percentile must have ten samples beyond it.
fn latency_metrics(rep: &mut Report, ms: &[f64], p99: bool, name: &str, what: &str) {
    let n = ms.len();
    let mut levels = vec![("latency_ms_p50", 0.5, "p50"), ("latency_ms_p90", 0.9, "p90")];
    if p99 {
        levels.push(("latency_ms_p99", 0.99, "p99"));
    }
    for (metric, q, label) in levels {
        rep.metric(
            Metric::new(metric, "ms", quantile_of(ms, q), format!("{name}_{label}: {what}, n={n}"))
                .with_samples(ms.to_vec()),
        );
        rep.check(
            "tail_percentile_supported",
            supports(n, q),
            format!("{name}_{label} over {n} samples"),
        );
    }
}

fn trace_ingest(args: &Args, dir: &Path, rep: &mut Report, tr: &mut Tracer) -> io::Result<()> {
    let fx = set_up(args, dir, None)?;
    let dim = dim(&fx.family);
    // Untraced passes on either side of the traced one, so the overhead
    // estimate is not skewed by which pass ran first.
    let untraced_pass = |name: &str| -> io::Result<RoundOut> {
        let mut store = pipeline::open_store(&dir.join(name), dim)?;
        pipeline::run_batched(&fx.family, &fx.inputs.tables, &fx.stream, &mut store)
    };
    let before = untraced_pass("untraced-0")?;

    let traced_dir = dir.join("traced");
    let mut store = pipeline::open_store(&traced_dir, dim)?;
    let mut counts = StageCounts::default();
    let root = tr.begin("bench.ingest", 0);
    let traced = pipeline::run_staged(
        &fx.family,
        &fx.inputs.tables,
        &fx.stream,
        &mut store,
        tr,
        &mut counts,
    );
    tr.end(root);
    let traced = traced?;
    let after = untraced_pass("untraced-1")?;
    let untraced_s = (before.wall_s + after.wall_s) / 2.0;
    stage_check(rep, &traced.embeddings, &before.embeddings, "every batch of the traced pass");
    let compactions = store.compactions();
    let pauses = store.compaction_pauses();
    rep.attempted = traced.upserts + traced.deletes;
    rep.failed = traced.failed;
    check_disjoint(rep, &fx.queries, &traced.embeddings);
    let reopened = check_reopen(rep, store, &traced_dir, &fx.stream, &traced.embeddings)?;
    let replay = ingest_recall(rep, reopened, &fx, tr);
    let wall = traced.wall_s + replay.wall_s;
    // No server: the engine figures come from the replay's first pass.
    let stats = replay.first_pass;
    let wire = WireLayer {
        cache_hit_rate: stats.cache_hits as f64
            / (stats.cache_hits + stats.cache_misses).max(1) as f64,
        queries_per_store_call: stats.store_queries as f64 / stats.store_batches.max(1) as f64,
        ..WireLayer::default()
    };
    per_layer(
        rep,
        Layers {
            tr,
            counts: &counts,
            write: &traced,
            compactions,
            pauses_s: pauses,
            replay: &replay,
            wire,
            overhead: traced.wall_s / untraced_s - 1.0,
        },
    );
    check_self_times(rep, tr, wall);
    rss_metric(rep, crate::report::peak_rss_mb(), "at the end of the run");
    Ok(())
}

fn server_config() -> ServeConfig {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    ServeConfig {
        workers: nproc,
        io_threads: 1,
        durability: Some(DurabilityPolicy::Interval(10)),
        ..ServeConfig::default()
    }
}

/// A search fixture behind a running server, with its loopback connection.
struct Serving {
    engine: Arc<QueryEngine<ShardedStore>>,
    server: Server,
    conn: crate::loadgen::Conn,
}

impl Serving {
    fn start(store: ShardedStore) -> io::Result<Serving> {
        let engine = Arc::new(QueryEngine::new(store, EngineConfig::default()));
        let server = Server::bind("127.0.0.1:0", Arc::clone(&engine), server_config())?;
        let conn = crate::loadgen::Conn::connect(server.local_addr())?;
        Ok(Serving { engine, server, conn })
    }

    /// Stops the server and takes the store back.
    fn stop(self) -> ShardedStore {
        let Serving { engine, server, conn } = self;
        drop(conn);
        server.shutdown();
        Arc::try_unwrap(engine)
            .unwrap_or_else(|_| panic!("the server released its engine at shutdown"))
            .into_store()
    }
}

/// The hot pool, or the whole held-out pool for the miss workload.
fn pool<'a>(spec: &Spec, queries: &'a [Vec<f32>]) -> &'a [Vec<f32>] {
    if spec.hot {
        &queries[..search::HOT_POOL]
    } else {
        queries
    }
}

/// Sends each hot query once so the caches hold them before timing.
fn warm(spec: &Spec, serving: &Serving, pool: &[Vec<f32>], rep: &mut Report) -> io::Result<()> {
    if spec.hot {
        let served = search::served_hits(serving.server.local_addr(), pool)?;
        rep.check(
            "warm_up_served",
            served.len() == pool.len(),
            format!("{} of {} hot queries", served.len(), pool.len()),
        );
    }
    Ok(())
}

/// Served hits must equal a fresh in-process engine's, bit for bit.
fn check_identity(
    rep: &mut Report,
    name: &'static str,
    engine: &QueryEngine<ShardedStore>,
    pool: &[Vec<f32>],
    wire: &[(usize, &[tabbin_index::Hit])],
) {
    let differ = wire
        .iter()
        .filter(|(q, hits)| !search::same_bits(hits, &engine.query(&pool[*q], K)))
        .count();
    rep.check(
        name,
        differ == 0 && !wire.is_empty(),
        format!("{differ} of {} sampled wire replies differ from QueryEngine::query", wire.len()),
    );
}

fn phase_json(
    name: &str,
    out: &crate::loadgen::PhaseOut,
    tail_ms: f64,
    lag_p99_ms: f64,
    passed: Option<bool>,
) -> String {
    format!(
        "{{\"phase\": {}, \"rate\": {}, \"sent\": {}, \"succeeded\": {}, \"shed\": {}, \"errored\": {}, \
         \"achieved\": {}, \"tail_ms\": {}, \"backlog_end\": {}, \"lag_ms_p99\": {}, \"passed\": {}}}",
        crate::report::string(name),
        crate::report::num(out.rate),
        out.sent,
        out.succeeded,
        out.shed,
        out.errored,
        crate::report::num(out.achieved()),
        crate::report::num(tail_ms),
        out.backlog_end,
        crate::report::num(lag_p99_ms),
        passed.map_or("null".to_string(), |p| p.to_string())
    )
}

/// Recall of the served top-10 over the recall sample, plus the identity
/// check on every sampled reply. Takes the store back from the server.
fn finish_search(
    rep: &mut Report,
    serving: Serving,
    fx: &Fixture,
    spec: &Spec,
    wire: &WireOut,
) -> io::Result<ShardedStore> {
    let n = search::RECALL_QUERIES.min(fx.queries.len());
    let served = search::served_hits(serving.server.local_addr(), &fx.queries[..n])?;
    let store = serving.stop();
    let engine = QueryEngine::new(store, EngineConfig::default());
    let pool = pool(spec, &fx.queries);
    let samples: Vec<(usize, &[tabbin_index::Hit])> =
        wire.sampled.iter().map(|(q, h)| (*q, h.as_slice())).collect();
    check_identity(rep, "timed_wire_hits_bit_identical_to_engine", &engine, pool, &samples);
    let samples: Vec<(usize, &[tabbin_index::Hit])> =
        served.iter().enumerate().map(|(q, h)| (q, h.as_slice())).collect();
    check_identity(rep, "recall_wire_hits_bit_identical_to_engine", &engine, &fx.queries, &samples);
    let live: Vec<u64> = (0..fx.inputs.n_corpus as u64).collect();
    let recall = search::recall_at_k(engine.store(), &live, &fx.queries[..n], &served);
    recall_metric(rep, recall, n, &format!("{n} held-out queries over the wire"));
    Ok(engine.into_store())
}

pub fn run_search(
    spec: &Spec,
    args: &Args,
    dir: &Path,
    rep: &mut Report,
    tr: &mut Tracer,
) -> io::Result<()> {
    if args.trace {
        return trace_search(spec, args, dir, rep, tr);
    }
    let mut fx = set_up_timed(args, dir, rep)?;
    check_stages(rep, &fx);
    check_disjoint(rep, &fx.queries, &fx.load.as_ref().expect("search set-up loads").embeddings);
    let mut serving = Serving::start(fx.store.take().expect("search set-up opens a store"))?;
    let pool = pool(spec, &fx.queries);
    let mut reqs = Requests::new(spec.hot, pool.len(), args.seed);
    warm(spec, &serving, pool, rep)?;
    let before = serving.server.stats();
    let wire =
        search::wire_phases(&mut serving.conn, pool, &mut reqs, spec, args.seconds as f64, true)?;
    let after = serving.server.stats();

    let reference = &wire.reference;
    rep.runs.push(("rate_steps", wire.steps.len()));
    rep.metric(
        Metric::new(
            "throughput_per_s",
            "1/s",
            wire.max_qps.unwrap_or(0.0),
            format!(
                "max_qps: achieved rate of the highest offered rate whose p99 (p98 under 1000 \
             requests) is <= {} ms, a shed or failed request missing it, with no growing backlog \
             ({} steps)",
                search::LIMIT_MS,
                wire.steps.len()
            ),
        )
        .with_samples(wire.steps.iter().filter(|s| s.passed).map(|s| s.out.achieved()).collect()),
    );
    latency_metrics(
        rep,
        &reference.ok_latencies(),
        true,
        "query_ms",
        &format!("scheduled send to last hits chunk at {} req/s", spec.ref_rate),
    );
    let hits = after.engine.cache_hits - before.engine.cache_hits;
    let misses = after.engine.cache_misses - before.engine.cache_misses;
    if spec.hot {
        rep.detail(
            "cache_hit_rate",
            crate::report::num(hits as f64 / (hits + misses).max(1) as f64),
        );
    } else {
        rep.check(
            "miss_requests_never_hit_a_cache",
            hits == 0,
            format!("{hits} cache hits over {misses} misses"),
        );
    }
    let steps_failed: u64 = wire.steps.iter().map(|s| s.out.errored).sum();
    rep.attempted = reference.sent + wire.steps.iter().map(|s| s.out.sent).sum::<u64>();
    rep.failed = reference.failed() + steps_failed;
    let ref_tail =
        crate::ladder::tail_counting_failures(&reference.ok_latencies(), reference.failed());
    let mut phases = vec![phase_json(
        "reference",
        reference,
        ref_tail,
        quantile_of(&reference.lag_ms, 0.99),
        None,
    )];
    phases.extend(
        wire.steps
            .iter()
            .map(|s| phase_json("step", &s.out, s.tail_ms, s.lag_p99_ms, Some(s.passed))),
    );
    rep.detail("phases", format!("[\n      {}\n    ]", phases.join(",\n      ")));
    rep.detail("max_offered_rate", crate::report::num(wire.max_offered.unwrap_or(0.0)));
    rep.detail("shed_total", (after.shed - before.shed).to_string());
    rep.detail("failed_frac", crate::report::num(rep.failed as f64 / rep.attempted.max(1) as f64));
    finish_search(rep, serving, &fx, spec, &wire)?;
    rss_metric(rep, wire.reference_rss_mb, "after the reference phase");
    Ok(())
}

fn trace_search(
    spec: &Spec,
    args: &Args,
    dir: &Path,
    rep: &mut Report,
    tr: &mut Tracer,
) -> io::Result<()> {
    let mut counts = StageCounts::default();
    let t = Instant::now();
    let mut fx = set_up(args, dir, Some((tr, &mut counts)))?;
    let load_s = tr.root_s();
    let set_up_s = t.elapsed().as_secs_f64();
    let load = fx.load.take().expect("search set-up loads");
    check_disjoint(rep, &fx.queries, &load.embeddings);
    let store = fx.store.take().expect("search set-up opens a store");
    let (compactions, pauses_s) = (store.compactions(), store.compaction_pauses());
    let mut serving = Serving::start(store)?;
    let pool = pool(spec, &fx.queries);
    let mut reqs = Requests::new(spec.hot, pool.len(), args.seed);
    warm(spec, &serving, pool, rep)?;
    let before = serving.server.stats();
    let t = Instant::now();
    let root = tr.begin("serve.wire", 0);
    let wire =
        search::wire_phases(&mut serving.conn, pool, &mut reqs, spec, args.seconds as f64, false);
    tr.end(root);
    let wire_s = t.elapsed().as_secs_f64();
    let wire = wire?;
    let after = serving.server.stats();
    rep.attempted = wire.reference.sent;
    rep.failed = wire.reference.failed();
    let store = finish_search(rep, serving, &fx, spec, &wire)?;

    // Replay the start of the reference stream in-process, each time on a
    // fresh engine warmed as the server's was.
    let n = search::REPLAY_REQUESTS.min(wire.reference_order.len());
    let order = &wire.reference_order[..n];
    let fresh = |store: ShardedStore| {
        let engine = QueryEngine::new(store, EngineConfig::default());
        if spec.hot {
            for q in pool {
                engine.query(q, K);
            }
        }
        engine
    };
    // Untraced replays on either side of the traced one, so the overhead
    // estimate is not skewed by which ran first.
    let engine = fresh(store);
    let first = search::replay(&engine, pool, order, &mut Tracer::new(false));
    let engine = fresh(engine.into_store());
    let replay = search::replay(&engine, pool, order, tr);
    let engine = fresh(engine.into_store());
    let last = search::replay(&engine, pool, order, &mut Tracer::new(false));
    let untraced_s = (first.wall_s + last.wall_s) / 2.0;

    let lat = &wire.reference.latency_ms;
    let serve_us: Vec<f64> =
        (0..n).filter_map(|i| lat[i].map(|ms| ms * 1e3 - replay.engine_us[i])).collect();
    let d = |a: u64, b: u64| a.saturating_sub(b);
    let hits = d(after.engine.cache_hits, before.engine.cache_hits);
    let lookups = hits + d(after.engine.cache_misses, before.engine.cache_misses);
    let wire_layer = WireLayer {
        serve_us,
        queries_per_batch: d(after.batcher.submitted, before.batcher.submitted) as f64
            / d(after.batcher.batches, before.batcher.batches).max(1) as f64,
        shed: d(after.shed, before.shed),
        gen_lag_ms: wire.reference.lag_ms.clone(),
        cache_hit_rate: hits as f64 / lookups.max(1) as f64,
        queries_per_store_call: after.engine.store_queries as f64
            / after.engine.store_batches.max(1) as f64,
    };
    per_layer(
        rep,
        Layers {
            tr,
            counts: &counts,
            write: &load,
            compactions,
            pauses_s,
            replay: &replay,
            wire: wire_layer,
            overhead: replay.wall_s / untraced_s - 1.0,
        },
    );
    rep.detail("traced_set_up_s", crate::report::num(set_up_s));
    check_self_times(rep, tr, load_s + wire_s + replay.wall_s);
    rss_metric(rep, wire.reference_rss_mb, "after the reference phase");
    Ok(())
}
