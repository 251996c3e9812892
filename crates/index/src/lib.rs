//! Retrieval layer for the TabBiN workspace: a storage engine over table,
//! column, and entity embeddings.
//!
//! The paper's evaluation only ever needed one-shot LSH blocking
//! (`tabbin_eval`'s original `LshIndex`, which now lives here). Serving
//! retrieval over a *growing* corpus needs more, and this crate provides it
//! as a layered storage engine:
//!
//! * [`segment`] — the flat slab: rows, tombstones, seal lifecycle, and
//!   per-segment LSH band buckets.
//! * [`VectorStore`] ([`store`]) — one process-wide store: segmented
//!   L2-normalized embeddings with SIMD dot-product top-k ([`simd`]),
//!   incremental `upsert`/`delete`, and **policy-driven compaction**
//!   ([`CompactionPolicy`]) that rewrites dead rows automatically on
//!   mutation instead of at caller discretion.
//! * [`ShardedStore`] ([`shard`]) — many stores behind one surface:
//!   router-driven placement of ids, per-shard compaction, parallel
//!   (shard × query) fan-out, and a k-way heap merge of per-shard top-k
//!   lists. The step from one process to many.
//! * [`Router`] ([`router`]) — how vectors map to shards: [`HashRouter`]
//!   (splitmix64 of the id, geometry-blind, full fan-out — the default) or
//!   [`IvfRouter`] (a deterministic k-means coarse quantizer; upserts
//!   co-locate under their nearest centroid and queries probe only the
//!   `nprobe` nearest cells — sublinear scans, with an online `rebalance`
//!   path when centroids drift under churn).
//! * [`CandidateSource`] — pluggable candidate generation per segment:
//!   [`ExactScan`] or [`LshCandidates`] (banded SimHash blocking maintained
//!   incrementally as vectors arrive).
//! * [`ScoringTier`] — how nominated candidates are scored:
//!   [`ScoringTier::Exact`] runs the f32 dot kernel over everything;
//!   [`ScoringTier::Quantized`] ranks packed sign-bit signatures by SIMD
//!   popcount Hamming distance first and re-scores only the top
//!   `rerank_factor × k` survivors exactly. Coarse selection is a global
//!   top-R, so quantized results are shard-layout-independent.
//! * [`snapshot`] — persistence: the `TBIX` binary codec (write path) and
//!   the legacy JSON codec (read back-compat), autodetected on load, for
//!   both store tiers. Loaded stores answer queries byte-identically.
//! * [`QueryEngine`] ([`engine`]) — query *execution* extracted out of
//!   storage: candidate-source planning ([`ProbePolicy`], ef-style probe
//!   width) and an LRU result cache keyed on normalized query vectors,
//!   shared by reference across concurrent callers. The stores stay pure
//!   storage behind the
//!   [`Queryable`] trait; the engine is what consumers (eval, examples,
//!   the `tabbin-serve` network tier) talk to.
//! * [`VectorSink`] — the insertion surface the batched embedding pipeline
//!   (`tabbin_core::batch`) streams into, implemented by both store tiers
//!   (and by [`QueryEngine`], which invalidates its cache as it inserts).
//! * [`lsh`] — the SimHash primitives and the original one-shot
//!   [`LshIndex`], still re-exported by `tabbin_eval` for its old users.
//! * [`wal`] — durability: per-shard write-ahead logs with CRC32-framed
//!   records and global LSNs, group commit under a [`DurabilityPolicy`],
//!   a manifest tying live segments to the snapshot they fold into, and
//!   torn-tail-tolerant replay. `ShardedStore::open_durable` recovers a
//!   crashed store bit-identical to its durable prefix.

pub mod candidates;
pub mod engine;
pub mod lsh;
pub mod parallel;
pub mod router;
pub mod segment;
pub mod shard;
pub mod simd;
pub mod snapshot;
pub mod store;
pub mod wal;

pub use candidates::{CandidateSource, Candidates, ExactScan, LshCandidates, QueryContext};
pub use engine::{
    EngineConfig, EngineStats, NprobePolicy, ProbePolicy, QueryEngine, QueryPlan, Queryable,
};
pub use lsh::LshIndex;
pub use router::{HashRouter, IvfRouter, Router};
pub use shard::{ShardedStats, ShardedStore};
pub use simd::Hit;
pub use snapshot::{RouterSnapshot, StoreSnapshot, SNAPSHOT_VERSION};
pub use store::{
    CompactionPolicy, LshParams, ScoringTier, StoreConfig, StoreStats, VectorSink, VectorStore,
    DEFAULT_RERANK_FACTOR,
};
pub use wal::{DurabilityPolicy, FsStorage, Storage, WalRecord, WalStats};
