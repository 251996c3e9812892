//! The fixed system under test and the write path into it: generated
//! tables, the pretrained model, the durable store, and the two ways of
//! driving tables through the encoder into the store — the timed path
//! (`BatchEncoder`) and the traced path that calls each stage itself.

use crate::stats::{derive_seed, SplitMix};
use crate::trace::Tracer;
use std::io;
use std::path::Path;
use std::time::Instant;
use tabbin_core::batch::{embed_batch_parallel, BatchEncoder};
use tabbin_core::config::{ModelConfig, SegmentKind};
use tabbin_core::encoding::{encode_segment, encode_text, EncodedSequence};
use tabbin_core::pretrain::PretrainOptions;
use tabbin_core::variants::TabBiNFamily;
use tabbin_corpus::{generate, Dataset, GenOptions};
use tabbin_index::parallel::par_chunk_map;
use tabbin_index::{DurabilityPolicy, LshParams, ShardedStore, StoreConfig};
use tabbin_table::Table;

/// Indexed tables per dataset profile (five profiles: 10k tables).
const CORPUS_PER_PROFILE: usize = 2000;
/// Regenerated tables per profile that revisions re-upsert.
const REVISIONS_PER_PROFILE: usize = 240;
/// Held-out query tables per profile. 2050 in all: more than twice the
/// engine's 1024-entry result cache, so cycling through them in a fixed
/// order never repeats a query the cache still holds.
const QUERIES_PER_PROFILE: usize = 410;
/// Tables per encoder batch.
const BATCH: usize = 64;
/// Share of upserts that revise an existing id.
const REVISION_FRAC: f64 = 0.10;
/// Share of operations that delete a live id (`p / (1 - p)` per upsert).
const DELETE_FRAC: f64 = 0.05;
/// Batches between checkpoints.
const CHECKPOINT_EVERY: usize = 32;
/// Every this many corpus tables train the tokenizer and pretrain.
const PRETRAIN_SAMPLE_EVERY: usize = 25;
/// Pretraining steps (the examples' setting).
const PRETRAIN_STEPS: usize = 40;
const N_SHARDS: usize = 4;
/// Hits per query.
pub const K: usize = 10;

/// Seed of the indexed corpus. The corpus, and the model trained on it,
/// are part of the fixed system under test: generated corpora differ in
/// how well the LSH entry bar prunes (median search time 1.3 ms on one,
/// 2.3 ms on another), which would drown any change in seed-to-seed
/// spread. `--seed` varies the traffic instead: held-out queries,
/// revision tables, the operation mix and the request order.
const CORPUS_SEED: u64 = 7;

/// Purposes `--seed` is derived for (see `stats::derive_seed`).
const SEED_REVISIONS: u64 = 2;
const SEED_QUERIES: u64 = 3;
const SEED_OPS: u64 = 4;
pub const SEED_ORDER: u64 = 5;

/// Generated tables: corpus first, then the revision pool.
pub struct Inputs {
    pub tables: Vec<Table>,
    pub n_corpus: usize,
    pub queries: Vec<Table>,
}

/// `per_profile` tables from each of the five profiles, interleaved so
/// every batch mixes profiles.
fn tables_from(seed: u64, per_profile: usize) -> Vec<Table> {
    let by_profile: Vec<Vec<Table>> = Dataset::ALL
        .iter()
        .map(|&ds| generate(ds, &GenOptions { n_tables: Some(per_profile), seed }).plain_tables())
        .collect();
    (0..per_profile).flat_map(|i| by_profile.iter().map(move |p| p[i].clone())).collect()
}

pub fn make_inputs(seed: u64) -> Inputs {
    let mut tables = tables_from(CORPUS_SEED, CORPUS_PER_PROFILE);
    let n_corpus = tables.len();
    tables.extend(tables_from(derive_seed(seed, SEED_REVISIONS), REVISIONS_PER_PROFILE));
    let queries = tables_from(derive_seed(seed, SEED_QUERIES), QUERIES_PER_PROFILE);
    Inputs { tables, n_corpus, queries }
}

/// Seed of the model's weights and pretraining.
const MODEL_SEED: u64 = 11;

/// `ModelConfig::tiny`, its tokenizer trained and the model pretrained on
/// a sample of the corpus it will embed, as the examples do.
pub fn pretrained(inputs: &Inputs) -> TabBiNFamily {
    let sample: Vec<Table> =
        inputs.tables[..inputs.n_corpus].iter().step_by(PRETRAIN_SAMPLE_EVERY).cloned().collect();
    let mut family = TabBiNFamily::new(&sample, ModelConfig::tiny(), MODEL_SEED);
    let opts =
        PretrainOptions { steps: PRETRAIN_STEPS, batch: 4, seed: MODEL_SEED, ..Default::default() };
    family.pretrain(&sample, &opts);
    family
}

/// The store under test: 4 hash-routed shards, quantized scoring over the
/// default LSH blocking, WAL group commit every 10 ms.
pub fn open_store(dir: &Path, dim: usize) -> io::Result<ShardedStore> {
    let cfg = StoreConfig {
        durability: DurabilityPolicy::Interval(10),
        ..StoreConfig::quantized(LshParams::default_blocking())
    };
    ShardedStore::open_durable(dir, dim, N_SHARDS, cfg)
}

/// One encoder batch: upserts (id, index into `Inputs::tables`), then the
/// deletes that follow them.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Batch {
    pub upserts: Vec<(u64, usize)>,
    pub deletes: Vec<u64>,
}

/// Every corpus table inserted once under its index as id.
pub fn load_stream(n_corpus: usize) -> Vec<Batch> {
    let ids: Vec<usize> = (0..n_corpus).collect();
    ids.chunks(BATCH)
        .map(|c| Batch { upserts: c.iter().map(|&i| (i as u64, i)).collect(), deletes: Vec::new() })
        .collect()
}

/// The ingest stream: every corpus table inserted once, with about
/// [`REVISION_FRAC`] of upserts re-upserting a live id with a revision
/// table and about [`DELETE_FRAC`] of operations deleting a live id.
pub fn churn_stream(inputs: &Inputs, seed: u64) -> Vec<Batch> {
    let mut rng = SplitMix::new(derive_seed(seed, SEED_OPS));
    let n_rev = inputs.tables.len() - inputs.n_corpus;
    let (mut next_new, mut next_rev) = (0usize, 0usize);
    let mut live: Vec<u64> = Vec::new();
    let mut out = Vec::new();
    while next_new < inputs.n_corpus {
        let mut b = Batch::default();
        while b.upserts.len() < BATCH && next_new < inputs.n_corpus {
            if !live.is_empty() && next_rev < n_rev && rng.next_f64() < REVISION_FRAC {
                b.upserts.push((live[rng.below(live.len())], inputs.n_corpus + next_rev));
                next_rev += 1;
            } else {
                b.upserts.push((next_new as u64, next_new));
                live.push(next_new as u64);
                next_new += 1;
            }
        }
        for _ in 0..b.upserts.len() {
            if live.len() > 1 && rng.next_f64() < DELETE_FRAC / (1.0 - DELETE_FRAC) {
                b.deletes.push(live.swap_remove(rng.below(live.len())));
            }
        }
        out.push(b);
    }
    out
}

/// The live contents a stream leaves behind: (id, table index), id order.
pub fn final_state(stream: &[Batch]) -> Vec<(u64, usize)> {
    let mut state = std::collections::BTreeMap::new();
    for b in stream {
        for &(id, t) in &b.upserts {
            state.insert(id, t);
        }
        for id in &b.deletes {
            state.remove(id);
        }
    }
    state.into_iter().collect()
}

/// Ids a stream deletes and never re-inserts.
pub fn deleted_ids(stream: &[Batch]) -> Vec<u64> {
    let live: std::collections::BTreeSet<u64> = final_state(stream).iter().map(|p| p.0).collect();
    let mut dead: Vec<u64> = stream
        .iter()
        .flat_map(|b| b.deletes.iter().copied())
        .filter(|id| !live.contains(id))
        .collect();
    dead.sort_unstable();
    dead.dedup();
    dead
}

/// What one pass of a stream into a store measured.
#[derive(Debug, Default)]
pub struct RoundOut {
    /// Clock from the first batch entering the encoder to the return of
    /// the final `wal_flush`.
    pub wall_s: f64,
    /// Per batch: encoder entry to the return of its last upsert.
    pub batch_ms: Vec<f64>,
    pub upserts: u64,
    pub deletes: u64,
    /// Deletes of ids the stream believed live that the store did not hold.
    pub failed: u64,
    /// The composite embedding of every upsert, stream order.
    pub embeddings: Vec<Vec<f32>>,
    /// WAL bytes appended: summed over the log depth before each
    /// checkpoint fold, plus the depth at the end.
    pub wal_bytes: u64,
    pub checkpoints: u64,
}

fn wal_depth(store: &ShardedStore) -> u64 {
    store.wal_stats().map_or(0, |w| w.depth_bytes)
}

/// Applies one batch's deletes and the periodic checkpoint after it.
fn finish_batch(
    store: &mut ShardedStore,
    bi: usize,
    b: &Batch,
    out: &mut RoundOut,
    tr: &mut Tracer,
) -> io::Result<()> {
    for &id in &b.deletes {
        let live = tr.span("index.delete", id, || store.delete(id));
        out.deletes += 1;
        out.failed += u64::from(!live);
    }
    if (bi + 1).is_multiple_of(CHECKPOINT_EVERY) {
        out.wal_bytes += wal_depth(store);
        tr.span("index.checkpoint", bi as u64, || store.checkpoint())?;
        out.checkpoints += 1;
    }
    Ok(())
}

fn finish_round(store: &ShardedStore, out: &mut RoundOut, tr: &mut Tracer) -> io::Result<()> {
    tr.span("index.wal_flush", 0, || store.wal_flush())?;
    out.wal_bytes += wal_depth(store);
    Ok(())
}

/// The timed write path: each batch through `BatchEncoder`, then one
/// durable upsert per table.
pub fn run_batched(
    family: &TabBiNFamily,
    tables: &[Table],
    stream: &[Batch],
    store: &mut ShardedStore,
) -> io::Result<RoundOut> {
    let encoder = BatchEncoder::new(family);
    let mut tr = Tracer::new(false);
    let mut out = RoundOut::default();
    let t0 = Instant::now();
    for (bi, b) in stream.iter().enumerate() {
        let tb = Instant::now();
        let refs: Vec<&Table> = b.upserts.iter().map(|&(_, t)| &tables[t]).collect();
        let embs = encoder.embed_table_refs(&refs);
        for (&(id, _), e) in b.upserts.iter().zip(&embs) {
            store.upsert(id, e);
        }
        out.batch_ms.push(tb.elapsed().as_secs_f64() * 1e3);
        out.upserts += embs.len() as u64;
        out.embeddings.extend(embs);
        finish_batch(store, bi, b, &mut out, &mut tr)?;
    }
    finish_round(store, &mut out, &mut tr)?;
    out.wall_s = t0.elapsed().as_secs_f64();
    Ok(out)
}

/// Token counts the traced path saw.
#[derive(Debug, Default)]
pub struct StageCounts {
    /// Tokens over all four segments of every table.
    pub tokens: u64,
    /// Sequences through the segment models.
    pub seqs: u64,
}

/// Encodes one table's four segments, as `BatchEncoder` does.
fn encode_table(f: &TabBiNFamily, t: &Table) -> [EncodedSequence; 4] {
    [
        encode_segment(t, SegmentKind::DataRow, &f.tokenizer, &f.tagger, &f.cfg),
        encode_segment(t, SegmentKind::Hmd, &f.tokenizer, &f.tagger, &f.cfg),
        encode_segment(t, SegmentKind::Vmd, &f.tokenizer, &f.tagger, &f.cfg),
        encode_text(&t.caption, &f.tokenizer, &f.tagger, &f.cfg),
    ]
}

/// Embeds `tables` stage by stage, each stage in its own span: encoding,
/// one `embed_batch_parallel` per segment model, `composite::concat`. The
/// same work, in the same order, as `BatchEncoder::embed_table_refs`.
pub fn staged_embed(
    family: &TabBiNFamily,
    tables: &[&Table],
    req: u64,
    tr: &mut Tracer,
    counts: &mut StageCounts,
) -> Vec<Vec<f32>> {
    let segs: Vec<[EncodedSequence; 4]> = tr.span("core.encode", req, || {
        par_chunk_map(tables, |part| part.iter().map(|t| encode_table(family, t)).collect())
    });
    counts.tokens += segs.iter().flat_map(|s| s.iter()).map(|s| s.len() as u64).sum::<u64>();
    counts.seqs += 4 * segs.len() as u64;
    // The row model embeds data rows and captions in one batch.
    let mut row_in: Vec<&EncodedSequence> = segs.iter().map(|s| &s[0]).collect();
    row_in.extend(segs.iter().map(|s| &s[3]));
    let row = tr.span("core.forward", req, || embed_batch_parallel(&family.row, &row_in));
    let hmd_in: Vec<&EncodedSequence> = segs.iter().map(|s| &s[1]).collect();
    let hmd = tr.span("core.forward", req, || embed_batch_parallel(&family.hmd, &hmd_in));
    let vmd_in: Vec<&EncodedSequence> = segs.iter().map(|s| &s[2]).collect();
    let vmd = tr.span("core.forward", req, || embed_batch_parallel(&family.vmd, &vmd_in));
    let n = segs.len();
    tr.span("core.concat", req, || {
        (0..n)
            .map(|i| {
                tabbin_core::composite::concat(&[
                    row[i].clone(),
                    hmd[i].clone(),
                    vmd[i].clone(),
                    row[n + i].clone(),
                ])
            })
            .collect()
    })
}

/// The traced write path: the same work as [`run_batched`], with the
/// embedding stages called one by one ([`staged_embed`]) and every upsert,
/// delete and checkpoint in its own span.
pub fn run_staged(
    family: &TabBiNFamily,
    tables: &[Table],
    stream: &[Batch],
    store: &mut ShardedStore,
    tr: &mut Tracer,
    counts: &mut StageCounts,
) -> io::Result<RoundOut> {
    let mut out = RoundOut::default();
    let t0 = Instant::now();
    for (bi, b) in stream.iter().enumerate() {
        let req = bi as u64;
        let tb = Instant::now();
        let batch_span = tr.begin("bench.batch", req);
        let refs: Vec<&Table> = b.upserts.iter().map(|&(_, t)| &tables[t]).collect();
        let embs = staged_embed(family, &refs, req, tr, counts);
        for (&(id, _), e) in b.upserts.iter().zip(&embs) {
            tr.span("index.upsert", id, || store.upsert(id, e));
        }
        out.batch_ms.push(tb.elapsed().as_secs_f64() * 1e3);
        out.upserts += embs.len() as u64;
        out.embeddings.extend(embs);
        finish_batch(store, bi, b, &mut out, tr)?;
        tr.end(batch_span);
    }
    finish_round(store, &mut out, tr)?;
    out.wall_s = t0.elapsed().as_secs_f64();
    Ok(out)
}

/// Largest elementwise difference between two embedding lists (infinite
/// on a shape mismatch).
pub fn max_abs_diff(a: &[Vec<f32>], b: &[Vec<f32>]) -> f32 {
    if a.len() != b.len() || a.iter().zip(b).any(|(x, y)| x.len() != y.len()) {
        return f32::INFINITY;
    }
    a.iter()
        .zip(b)
        .flat_map(|(x, y)| x.iter().zip(y).map(|(p, q)| (p - q).abs()))
        .fold(0.0, f32::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs(n_corpus: usize, n_rev: usize) -> Inputs {
        let t = tabbin_table::samples::table2_relational();
        Inputs { tables: vec![t; n_corpus + n_rev], n_corpus, queries: Vec::new() }
    }

    #[test]
    fn churn_stream_mixes_revisions_and_deletes() {
        let inp = inputs(5000, 1000);
        let s = churn_stream(&inp, 7);
        assert_eq!(s, churn_stream(&inp, 7), "same seed, same stream");
        let ups: usize = s.iter().map(|b| b.upserts.len()).sum();
        let dels: usize = s.iter().map(|b| b.deletes.len()).sum();
        let revs = s.iter().flat_map(|b| &b.upserts).filter(|&&(_, t)| t >= 5000).count();
        assert_eq!(ups - revs, 5000, "every corpus table inserted once");
        let rev_share = revs as f64 / ups as f64;
        let del_share = dels as f64 / (ups + dels) as f64;
        assert!((0.08..0.12).contains(&rev_share), "revisions {rev_share}");
        assert!((0.04..0.06).contains(&del_share), "deletes {del_share}");
        assert!(s.iter().all(|b| b.upserts.len() <= BATCH));
        assert_eq!(final_state(&s).len(), 5000 - dels);
        assert_eq!(deleted_ids(&s).len(), dels);
    }
}
