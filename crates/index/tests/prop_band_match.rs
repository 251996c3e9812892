//! Property tests for the quantized tier's in-sweep LSH blocking: the band
//! test the coarse sweep evaluates per row must nominate exactly the rows
//! the exact tier's bucket-union walk does. A reference source that hands
//! the sweep that union as an explicit subset pins, over random corpora:
//! the same coarse survivors, the same final hits bit for bit, and the same
//! `StoreStats::rows_scanned` delta — across band geometries (byte-aligned,
//! sub-word, word-straddling, wider than the monomorphized widths, one
//! whole word, wider than a word), flat and sharded stores, many sealed
//! segments, and tombstones left by both deletes and re-upserts.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tabbin_index::{
    CandidateSource, Candidates, CompactionPolicy, Hit, LshCandidates, LshParams, QueryContext,
    ScoringTier, ShardedStore, StoreConfig, VectorStore,
};

/// The bucket-union walk: every segment's band-bucket union, handed to the
/// coarse sweep as an explicit subset.
struct BucketUnion;

impl CandidateSource for BucketUnion {
    fn candidates(&self, store: &VectorStore, seg: usize, query: &QueryContext<'_>) -> Candidates {
        Candidates::Subset(store.band_union(seg, query))
    }
}

/// `(bands, rows_per_band)`: 16×8 byte-aligned (the default blocking),
/// 8×2 sub-word, 7×9 unaligned in one word, 9×9 with band 7 straddling
/// bits 63|64, 40×8 five words wide, 1×64 one whole word, and 2×100 wider
/// than a word (its bucket key keeps the band's last 64 bits) and
/// straddling.
const GEOMETRIES: [(usize, usize); 7] =
    [(16, 8), (8, 2), (7, 9), (9, 9), (40, 8), (1, 64), (2, 100)];

const DIM: usize = 16;

/// Half tight clusters (buckets fill up, as with real embeddings), half
/// uniform noise (buckets stay selective).
fn corpus(n: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let centers: Vec<Vec<f32>> =
        (0..4).map(|_| (0..DIM).map(|_| rng.random_range(-1.0f32..1.0)).collect()).collect();
    (0..n)
        .map(|i| {
            if i % 2 == 0 {
                let c = &centers[i % centers.len()];
                c.iter().map(|x| x + rng.random_range(-0.15f32..0.15)).collect()
            } else {
                (0..DIM).map(|_| rng.random_range(-1.0f32..1.0)).collect()
            }
        })
        .collect()
}

fn config(geometry: (usize, usize), rerank_factor: usize) -> StoreConfig {
    StoreConfig {
        seal_threshold: 16,
        tier: ScoringTier::Quantized { rerank_factor },
        // Keep every tombstone in place: the band test must skip them
        // while still counting them as scanned.
        policy: CompactionPolicy::disabled(),
        ..StoreConfig::with_lsh(LshParams::new(geometry.0, geometry.1))
    }
}

/// The mutation script: load `vecs`, then leave tombstones by deleting
/// every 7th id (`None`) and re-upserting every 5th with a fresh vector.
fn script<'a>(vecs: &'a [Vec<f32>], fresh: &'a [Vec<f32>]) -> Vec<(u64, Option<&'a [f32]>)> {
    let n = vecs.len() as u64;
    let mut ops: Vec<_> = (0..n).map(|id| (id, Some(vecs[id as usize].as_slice()))).collect();
    ops.extend((0..n).step_by(7).map(|id| (id, None)));
    ops.extend((3..n).step_by(5).zip(fresh.iter().cycle()).map(|(id, v)| (id, Some(v.as_slice()))));
    ops
}

fn bits(hits: &[Hit]) -> Vec<(u64, u32)> {
    hits.iter().map(|h| (h.id, h.score.to_bits())).collect()
}

/// Runs `search` once per source and asserts equal hits and equal
/// `rows_scanned` deltas (read through `scanned`).
fn assert_same(
    label: &str,
    scanned: impl Fn() -> u64,
    search: impl Fn(&dyn CandidateSource) -> Vec<Vec<Hit>>,
) {
    let before = scanned();
    let fused = search(&LshCandidates);
    let fused_scanned = scanned() - before;
    let before = scanned();
    let reference = search(&BucketUnion);
    let reference_scanned = scanned() - before;
    assert_eq!(fused.len(), reference.len());
    for (qi, (f, r)) in fused.iter().zip(&reference).enumerate() {
        assert_eq!(bits(f), bits(r), "{label}: hits of query {qi} differ");
    }
    assert_eq!(fused_scanned, reference_scanned, "{label}: rows_scanned delta differs");
}

/// `k` values: a small and a typical top-k, and one larger than the store,
/// under which a `rerank_factor` of 1 returns every coarse survivor — the
/// whole band-matching live row set.
const KS: [usize; 3] = [3, 10, 1000];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A flat store and four hash-routed shards over the same mutations:
    /// `search` (one accumulator and bar carried across segments and
    /// shards) and `search_batch` (capped per-shard sweeps merged per
    /// query), with `rerank_factor` 1 (the hits are exactly the coarse
    /// survivors, re-scored) and the default 4.
    #[test]
    fn fused_sweep_matches_bucket_union(seed in 0u64..10_000, n in 60usize..240) {
        let vecs = corpus(n, seed);
        let fresh = corpus(32, seed ^ 0x5eed);
        let queries = corpus(12, seed.wrapping_add(1));
        for geometry in GEOMETRIES {
            for rf in [1, 4] {
                let mut flat = VectorStore::new(DIM, config(geometry, rf));
                let mut sharded = ShardedStore::new(DIM, 4, config(geometry, rf));
                for (id, v) in script(&vecs, &fresh) {
                    match v {
                        Some(v) => {
                            flat.upsert(id, v);
                            sharded.upsert(id, v);
                        }
                        None => assert!(flat.delete(id) && sharded.delete(id)),
                    }
                }
                assert!(flat.stats().sealed_segments >= 3);
                assert!(flat.stats().tombstones > 0);
                assert!(sharded.stats().totals().tombstones > 0);
                let flat_scanned = || flat.stats().rows_scanned;
                let sharded_scanned = || sharded.stats().totals().rows_scanned;
                for k in KS {
                    let label = format!("{geometry:?} rf={rf} k={k}");
                    assert_same(&format!("flat {label}"), flat_scanned, |src| {
                        queries.iter().map(|q| flat.search(q, k, src)).collect()
                    });
                    assert_same(&format!("flat batch {label}"), flat_scanned, |src| {
                        flat.search_batch(&queries, k, src)
                    });
                    assert_same(&format!("sharded {label}"), sharded_scanned, |src| {
                        queries.iter().map(|q| sharded.search(q, k, src)).collect()
                    });
                    assert_same(&format!("sharded batch {label}"), sharded_scanned, |src| {
                        sharded.search_batch(&queries, k, src)
                    });
                }
            }
        }
    }
}
