//! Random-hyperplane LSH with banded blocking.
//!
//! The paper uses "LSH-based blocking to avoid quadratic complexity for the
//! entire dataset" when clustering the 227k CancerKG columns (§4.1). This is
//! the classic SimHash construction: each item receives a bit signature from
//! random hyperplanes; signatures are cut into bands, and items sharing any
//! band bucket become blocking candidates of each other.
//!
//! Two consumers share the primitives in this module:
//!
//! * [`LshIndex`] — the one-shot, build-once blocking index (moved here from
//!   `tabbin-eval`, which still re-exports it);
//! * [`crate::VectorStore`] — hashes vectors **incrementally** as they are
//!   upserted, maintaining per-segment band buckets, and uses
//!   [`crate::LshCandidates`] as a pluggable candidate source at query time.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Draws `n_planes` random hyperplanes of dimension `dim`, each component
/// uniform in `[-1, 1)`. Deterministic per seed.
pub fn random_planes(n_planes: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n_planes).map(|_| (0..dim).map(|_| rng.random_range(-1.0f32..1.0)).collect()).collect()
}

/// The bit signature of `v` against `planes`: one bit per hyperplane,
/// set when the vector lies on the non-negative side. Each projection runs
/// through the vectorized [`crate::simd::dot`] kernel — signatures are
/// computed once per upsert and once per query, and the `bands ×
/// rows_per_band` hyperplane products dominate that cost.
pub fn signature_of(planes: &[Vec<f32>], v: &[f32]) -> Vec<bool> {
    planes.iter().map(|p| crate::simd::dot(p, v) >= 0.0).collect()
}

/// Number of `u64` words a packed `bits`-bit signature occupies.
pub fn packed_len(bits: usize) -> usize {
    bits.div_ceil(64)
}

/// Packs a bit signature into `u64` words, bit `i` of the signature in bit
/// `i % 64` of word `i / 64` (LSB-first). Widths that are not a multiple of
/// 64 leave the tail bits of the last word **zero** — the masking the
/// quantized tier's Hamming kernel ([`crate::simd::hamming`]) relies on:
/// both sides of an XOR carry zeroed tails, so no per-distance mask is paid.
pub fn pack_signature(sig: &[bool]) -> Vec<u64> {
    let mut words = vec![0u64; packed_len(sig.len())];
    for (i, &bit) in sig.iter().enumerate() {
        if bit {
            words[i / 64] |= 1u64 << (i % 64);
        }
    }
    words
}

/// Unpacks `bits` signature bits from packed words — the inverse of
/// [`pack_signature`], used when a snapshot carries persisted signatures
/// and the band buckets must be rebuilt without re-hashing every vector.
pub fn unpack_signature(packed: &[u64], bits: usize) -> Vec<bool> {
    (0..bits).map(|i| packed[i / 64] >> (i % 64) & 1 == 1).collect()
}

/// Packs `rows` consecutive signature bits of one band into a bucket key.
pub fn band_key(sig: &[bool], band: usize, rows: usize) -> u64 {
    let mut key = 0u64;
    for r in 0..rows {
        key = (key << 1) | sig[band * rows + r] as u64;
    }
    // Mix the band id in so identical bit patterns in different bands do not
    // collide into one bucket map (they live in separate maps anyway; this
    // guards against accidental cross-band reuse).
    key ^ ((band as u64) << 32)
}

/// The signature bits [`band_key`] reads for `band`: the band's last
/// `min(rows, 64)` bits (a wider band shifts its leading bits out of the
/// key). Two signatures share the band's bucket iff they agree on these.
fn band_key_bits(band: usize, rows: usize) -> std::ops::Range<usize> {
    let end = (band + 1) * rows;
    end - rows.min(64)..end
}

/// The band-bucket membership test over packed signatures: a row shares at
/// least one band bucket with the query iff `query ^ row` is zero on every
/// bit [`band_key`] reads for some band. The test reads the same XOR words
/// the Hamming distance does, so the quantized tier's coarse sweep answers
/// "is this row an LSH candidate?" in-line instead of gathering, sorting
/// and deduping the band buckets' row lists.
///
/// Bands that fit in one word become SWAR fields of that word, tested all
/// at once: `(y - lo) & !y & hi` is nonzero iff some field of `y` is all
/// zero. The test is exact, not just a filter: no borrow leaves a nonzero
/// field, so everything below the lowest zero field subtracts cleanly, and
/// that field's top bit comes out set. Bands straddling a word boundary are
/// tested mask by mask.
#[derive(Clone, Debug, Default)]
pub(crate) struct BandMatcher {
    /// Per signature word: the SWAR fields of the bands inside it, as
    /// `(lo, hi)` — every field's lowest and highest bit.
    words: Vec<(u64, u64)>,
    /// Bands straddling word boundaries, as `(word, mask)` lists.
    straddling: Vec<Vec<(usize, u64)>>,
}

impl BandMatcher {
    /// The test for a `bands × rows` geometry over packed signatures.
    pub(crate) fn new(bands: usize, rows: usize) -> Self {
        let mut words = vec![(0u64, 0u64); packed_len(bands * rows)];
        let mut straddling = Vec::new();
        for band in 0..bands {
            let bits = band_key_bits(band, rows);
            let (first, last) = (bits.start / 64, (bits.end - 1) / 64);
            if first == last {
                let (lo, hi) = &mut words[first];
                *lo |= 1 << (bits.start % 64);
                *hi |= 1 << ((bits.end - 1) % 64);
            } else {
                straddling.push(
                    (first..=last)
                        .map(|w| {
                            let lo = bits.start.max(w * 64) - w * 64;
                            let hi = bits.end.min(w * 64 + 64) - w * 64;
                            (w, u64::MAX >> (64 - (hi - lo)) << lo)
                        })
                        .collect(),
                );
            }
        }
        Self { words, straddling }
    }

    /// Whether packed signatures `q` and `s` agree on every key bit of at
    /// least one band — i.e. share that band's bucket.
    #[inline(always)]
    pub(crate) fn matches(&self, q: &[u64], s: &[u64]) -> bool {
        let mut zero_field = 0u64;
        // Sliced to the query's width so a sweep monomorphized on it
        // unrolls the loop.
        for ((&q, &s), &(lo, hi)) in q.iter().zip(s).zip(&self.words[..q.len()]) {
            let y = q ^ s;
            zero_field |= y.wrapping_sub(lo) & !y & hi;
        }
        (zero_field != 0)
            | self.straddling.iter().any(|band| band.iter().all(|&(w, m)| (q[w] ^ s[w]) & m == 0))
    }
}

/// An LSH blocking index over fixed-dimension embeddings.
#[derive(Clone, Debug)]
pub struct LshIndex {
    planes: Vec<Vec<f32>>,
    bands: usize,
    rows_per_band: usize,
    /// Per-band hash buckets: band -> (band key -> member indices).
    buckets: Vec<HashMap<u64, Vec<usize>>>,
    signatures: Vec<Vec<bool>>,
}

impl LshIndex {
    /// Builds an index from a slice of embeddings. `n_planes` =
    /// `bands * rows_per_band` total hash bits.
    pub fn build(items: &[Vec<f32>], bands: usize, rows_per_band: usize, seed: u64) -> Self {
        Self::from_embeddings(items.iter().map(Vec::as_slice), bands, rows_per_band, seed)
    }

    /// Builds an index from an **iterator** of embeddings — the natural feed
    /// from the batched embedding pipeline. Each vector is hashed to its bit
    /// signature as it arrives and can be dropped immediately; only the
    /// signatures and band buckets are retained, so indexing a corpus never
    /// requires holding every embedding in memory at once.
    ///
    /// An empty iterator yields an explicit empty index (no hyperplanes, no
    /// signatures) whose query methods return no candidates — rather than the
    /// degenerate zero-dimensional planes a naive construction would produce.
    pub fn from_embeddings<I, V>(items: I, bands: usize, rows_per_band: usize, seed: u64) -> Self
    where
        I: IntoIterator<Item = V>,
        V: AsRef<[f32]>,
    {
        assert!(bands > 0 && rows_per_band > 0, "bands and rows must be positive");
        let mut iter = items.into_iter();
        let Some(first) = iter.next() else {
            return Self::empty(bands, rows_per_band);
        };
        let dim = first.as_ref().len();
        let planes = random_planes(bands * rows_per_band, dim, seed);
        let mut signatures = vec![signature_of(&planes, first.as_ref())];
        signatures.extend(iter.map(|v| signature_of(&planes, v.as_ref())));
        let mut buckets = vec![HashMap::new(); bands];
        for (idx, sig) in signatures.iter().enumerate() {
            for (b, bucket) in buckets.iter_mut().enumerate() {
                let key = band_key(sig, b, rows_per_band);
                bucket.entry(key).or_insert_with(Vec::new).push(idx);
            }
        }
        Self { planes, bands, rows_per_band, buckets, signatures }
    }

    /// The explicit empty index: indexes nothing, matches nothing.
    fn empty(bands: usize, rows_per_band: usize) -> Self {
        Self {
            planes: Vec::new(),
            bands,
            rows_per_band,
            buckets: vec![HashMap::new(); bands],
            signatures: Vec::new(),
        }
    }

    /// Number of indexed items.
    pub fn len(&self) -> usize {
        self.signatures.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.signatures.is_empty()
    }

    /// Blocking candidates of item `i` (all items sharing at least one band
    /// bucket, excluding `i` itself), deduplicated and sorted.
    pub fn candidates(&self, i: usize) -> Vec<usize> {
        let sig = &self.signatures[i];
        let mut out = Vec::new();
        for (b, bucket) in self.buckets.iter().enumerate() {
            let key = band_key(sig, b, self.rows_per_band);
            if let Some(members) = bucket.get(&key) {
                out.extend(members.iter().copied().filter(|&m| m != i));
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Candidates of an *external* query vector (not in the index). An empty
    /// index has no candidates for any query.
    pub fn query_candidates(&self, v: &[f32]) -> Vec<usize> {
        if self.planes.is_empty() {
            return Vec::new();
        }
        let sig = signature_of(&self.planes, v);
        let mut out = Vec::new();
        for (b, bucket) in self.buckets.iter().enumerate() {
            let key = band_key(&sig, b, self.rows_per_band);
            if let Some(members) = bucket.get(&key) {
                out.extend(members.iter().copied());
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Mean number of candidates per item — the blocking factor experiments
    /// report against the exhaustive `n - 1`.
    pub fn mean_candidates(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let total: usize = (0..self.len()).map(|i| self.candidates(i).len()).sum();
        total as f64 / self.len() as f64
    }

    /// Total number of hash bits per signature.
    pub fn signature_bits(&self) -> usize {
        self.bands * self.rows_per_band
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Clustered vectors: `n_clusters` directions, `per` members each with
    /// small jitter.
    fn clustered(
        n_clusters: usize,
        per: usize,
        dim: usize,
        seed: u64,
    ) -> (Vec<Vec<f32>>, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let centers: Vec<Vec<f32>> = (0..n_clusters)
            .map(|_| (0..dim).map(|_| rng.random_range(-1.0f32..1.0)).collect())
            .collect();
        let mut items = Vec::new();
        let mut labels = Vec::new();
        for (c, center) in centers.iter().enumerate() {
            for _ in 0..per {
                let v: Vec<f32> =
                    center.iter().map(|x| x + rng.random_range(-0.05f32..0.05)).collect();
                items.push(v);
                labels.push(c);
            }
        }
        (items, labels)
    }

    #[test]
    fn near_duplicates_are_candidates() {
        let (items, labels) = clustered(5, 8, 16, 1);
        let idx = LshIndex::build(&items, 8, 4, 2);
        // Most same-cluster members should appear among candidates.
        let mut recall_hits = 0usize;
        let mut recall_total = 0usize;
        for i in 0..items.len() {
            let cands = idx.candidates(i);
            for j in 0..items.len() {
                if j != i && labels[j] == labels[i] {
                    recall_total += 1;
                    if cands.contains(&j) {
                        recall_hits += 1;
                    }
                }
            }
        }
        let recall = recall_hits as f64 / recall_total as f64;
        assert!(recall > 0.9, "LSH recall too low: {recall}");
    }

    #[test]
    fn blocking_reduces_candidate_count() {
        let (items, _) = clustered(20, 5, 16, 3);
        // Narrow bands => aggressive blocking.
        let idx = LshIndex::build(&items, 4, 8, 4);
        let mean = idx.mean_candidates();
        assert!(
            mean < (items.len() - 1) as f64 * 0.6,
            "blocking did not prune: mean {mean} of {}",
            items.len() - 1
        );
    }

    #[test]
    fn query_candidates_match_member_candidates() {
        let (items, _) = clustered(4, 4, 8, 5);
        let idx = LshIndex::build(&items, 6, 3, 6);
        let q = items[0].clone();
        let cands = idx.query_candidates(&q);
        // The item itself hashes identically, so it must be in its own
        // query candidates.
        assert!(cands.contains(&0));
    }

    #[test]
    fn deterministic_per_seed() {
        let (items, _) = clustered(3, 3, 8, 7);
        let a = LshIndex::build(&items, 4, 4, 9);
        let b = LshIndex::build(&items, 4, 4, 9);
        for i in 0..items.len() {
            assert_eq!(a.candidates(i), b.candidates(i));
        }
    }

    #[test]
    fn empty_index() {
        let idx = LshIndex::build(&[], 4, 4, 1);
        assert!(idx.is_empty());
        assert_eq!(idx.len(), 0);
        assert_eq!(idx.mean_candidates(), 0.0);
        // The explicit empty index carries no degenerate zero-dimensional
        // hyperplanes, and queries against it return no candidates instead
        // of hashing everything into one silent empty-signature bucket.
        assert!(idx.query_candidates(&[1.0, 2.0, 3.0]).is_empty());
        assert!(idx.query_candidates(&[]).is_empty());
    }

    #[test]
    fn pack_roundtrips_and_zeroes_the_tail() {
        for bits in [1usize, 7, 63, 64, 65, 128, 130] {
            let sig: Vec<bool> = (0..bits).map(|i| (i * 7 + bits) % 3 == 0).collect();
            let packed = pack_signature(&sig);
            assert_eq!(packed.len(), packed_len(bits));
            assert_eq!(unpack_signature(&packed, bits), sig, "bits={bits}");
            // Tail bits beyond `bits` in the last word must be zero.
            if bits % 64 != 0 {
                let tail = packed[packed.len() - 1] >> (bits % 64);
                assert_eq!(tail, 0, "bits={bits}: tail not masked");
            }
        }
        assert_eq!(pack_signature(&[]).len(), 0);
    }

    #[test]
    fn band_matcher_agrees_with_band_keys() {
        // Byte-aligned, sub-word, word-straddling (9×9, 15×9, 2×100),
        // generic-width, whole-word and wider-than-a-word bands.
        let geometries =
            [(16, 8), (8, 2), (7, 9), (9, 9), (15, 9), (40, 8), (1, 64), (3, 5), (2, 100), (4, 1)];
        let mut rng = StdRng::seed_from_u64(17);
        for (bands, rows) in geometries {
            let matcher = BandMatcher::new(bands, rows);
            let bits = bands * rows;
            for _ in 0..400 {
                let q: Vec<bool> = (0..bits).map(|_| rng.random_range(0u32..2) == 1).collect();
                // Flip few bits so that some bands survive intact.
                let flips = rng.random_range(0..=bands + 1);
                let mut s = q.clone();
                for _ in 0..flips {
                    let i = rng.random_range(0..bits);
                    s[i] = !s[i];
                }
                let want = (0..bands).any(|b| band_key(&q, b, rows) == band_key(&s, b, rows));
                let got = matcher.matches(&pack_signature(&q), &pack_signature(&s));
                assert_eq!(got, want, "{bands}x{rows}: q={q:?} s={s:?}");
            }
        }
    }

    #[test]
    fn from_embeddings_streams_and_matches_build() {
        let (items, _) = clustered(4, 4, 8, 11);
        let built = LshIndex::build(&items, 4, 4, 13);
        // Feed the same vectors through the iterator path, consuming them.
        let streamed = LshIndex::from_embeddings(items.clone(), 4, 4, 13);
        assert_eq!(streamed.len(), built.len());
        for i in 0..items.len() {
            assert_eq!(streamed.candidates(i), built.candidates(i));
        }
        assert_eq!(streamed.query_candidates(&items[0]), built.query_candidates(&items[0]));
    }
}
