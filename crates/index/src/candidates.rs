//! Pluggable candidate generation for [`VectorStore`] searches.
//!
//! A [`CandidateSource`] decides, per segment, which rows are worth scoring
//! for a query. [`ExactScan`] nominates everything; [`LshCandidates`]
//! nominates the rows sharing a banded LSH bucket with the query — the
//! paper's §4.1 blocking step turned into a query-time accelerator. Custom
//! sources (e.g. metadata filters, type-constrained search) implement the
//! same trait.
//!
//! LSH blocking is a *marker* ([`Candidates::BandMatch`]) that the store
//! resolves, because the cheapest way to resolve it depends on the scoring
//! tier. The exact tier walks the segment's band buckets and scores their
//! union ([`VectorStore::band_union`]). The quantized tier tests band
//! membership row by row inside its coarse Hamming sweep: a row is a
//! candidate iff its packed signature agrees with the query's on every bit
//! of some band, which the sweep reads off the XOR words it popcounts
//! anyway. That costs the same per row however full the buckets are — and
//! real embeddings fill them: on TabBiN table embeddings nearly every row
//! shares some band with the query, so a bucket union would gather, sort
//! and dedup ~all of a segment's rows only to sweep them all anyway.
//!
//! Sources receive a [`QueryContext`] rather than a bare vector: the store
//! computes per-query state (the normalized vector, and the LSH signature
//! when LSH is enabled) exactly once, so probing N segments never repeats
//! the `bands * rows_per_band` hyperplane dot products per segment.

use crate::store::VectorStore;

/// Per-query state shared across every segment probe of one search.
#[derive(Clone, Copy, Debug)]
pub struct QueryContext<'a> {
    /// The L2-normalized query vector.
    pub vector: &'a [f32],
    /// The query's LSH signature, precomputed once by the store when LSH is
    /// enabled; `None` on stores without LSH.
    pub signature: Option<&'a [bool]>,
    /// The same signature packed into `u64` words
    /// ([`crate::lsh::pack_signature`]) — what the quantized tier's coarse
    /// Hamming pass scores against; `None` on stores without LSH.
    pub packed: Option<&'a [u64]>,
}

/// Which rows of one segment to score for a query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Candidates {
    /// Score every live row of the segment.
    All,
    /// Score only these rows (tombstoned or out-of-range rows are skipped).
    Subset(Vec<u32>),
    /// Score the rows sharing at least one LSH band bucket with the query
    /// (tombstoned rows are skipped). Only meaningful on a store with LSH;
    /// the store resolves it per tier (see the [module docs](self)).
    BandMatch,
}

/// A per-segment candidate generator. `Sync` because batched searches call
/// it from worker threads.
pub trait CandidateSource: Sync {
    /// Candidate rows of segment `seg` for the query.
    fn candidates(&self, store: &VectorStore, seg: usize, query: &QueryContext<'_>) -> Candidates;
}

/// The exhaustive source: every live row is a candidate. Recall 1.0 by
/// construction; cost linear in the segment size.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExactScan;

impl CandidateSource for ExactScan {
    fn candidates(
        &self,
        _store: &VectorStore,
        _seg: usize,
        _query: &QueryContext<'_>,
    ) -> Candidates {
        Candidates::All
    }
}

/// LSH banded blocking: rows sharing at least one band bucket with the
/// query. Requires a store built with `StoreConfig::lsh`; on a store without
/// LSH it degrades to [`ExactScan`] rather than silently returning nothing.
#[derive(Clone, Copy, Debug, Default)]
pub struct LshCandidates;

impl CandidateSource for LshCandidates {
    fn candidates(
        &self,
        store: &VectorStore,
        _seg: usize,
        _query: &QueryContext<'_>,
    ) -> Candidates {
        if store.has_lsh() {
            Candidates::BandMatch
        } else {
            Candidates::All
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoreConfig;

    fn ctx<'a>(v: &'a [f32]) -> QueryContext<'a> {
        QueryContext { vector: v, signature: None, packed: None }
    }

    #[test]
    fn lsh_source_on_plain_store_degrades_to_exact() {
        let mut store = VectorStore::new(4, StoreConfig::default());
        store.insert(&[1.0, 0.0, 0.0, 0.0]);
        let q = [1.0f32, 0.0, 0.0, 0.0];
        assert_eq!(LshCandidates.candidates(&store, 0, &ctx(&q)), Candidates::All);
        // Ergo the two sources agree end to end.
        let q = [0.9f32, 0.1, 0.0, 0.0];
        assert_eq!(store.search(&q, 1, &LshCandidates), store.search(&q, 1, &ExactScan));
    }

    #[test]
    fn exact_scan_nominates_everything() {
        let store = VectorStore::exact(4);
        assert_eq!(ExactScan.candidates(&store, 0, &ctx(&[0.0; 4])), Candidates::All);
    }

    #[test]
    fn handmade_context_without_signature_matches_store_path() {
        use crate::store::LshParams;
        let mut store =
            VectorStore::new(4, StoreConfig::with_lsh(LshParams { bands: 4, rows_per_band: 2 }));
        for v in [[1.0f32, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.7, 0.7, 0.0, 0.0]] {
            store.insert(&v);
        }
        // A context without a precomputed signature must resolve to the
        // same candidates the store's own (signature-carrying) path does.
        let q = [0.9f32, 0.3, 0.0, 0.0];
        assert_eq!(LshCandidates.candidates(&store, 0, &ctx(&q)), Candidates::BandMatch);
        let via_fallback = store.band_union(0, &ctx(&q));
        assert_eq!(via_fallback, store.band_union(0, &store.prepare_query(&q).ctx()));
        let hits = store.search(&q, 3, &LshCandidates);
        assert_eq!(via_fallback.len(), hits.len());
    }
}
