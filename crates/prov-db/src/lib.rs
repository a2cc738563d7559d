//! # prov-db
//!
//! The backend-agnostic provenance database of the reference architecture
//! (§2.3), with two backends mirroring the paper's document and graph
//! options, rebuilt as a sharded, clone-free engine for ingest-heavy
//! workloads:
//!
//! * [`DocumentStore`] — MongoDB-shaped: JSON documents, dotted-path
//!   filters, projections, aggregation, hash + sorted-numeric indexes,
//!   and the columnar sidecar of the hot scalar fields that every store
//!   keeps (an unfiltered group-by runs on its dictionary codes), with a
//!   row-key catalog that lists the frame's columns at any snapshot bound
//!   ([`DocumentStore::frame_columns`]);
//! * [`GraphStore`] — Neo4j-shaped: PROV property graph with lineage and
//!   path traversals and a single-lock [`GraphBatch`] apply path, read
//!   through its [`CsrGraph`] compaction, whose one shortest-path kernel
//!   serves both the agent's graph tool and provql `paths()`;
//!
//! unified behind [`ProvenanceDatabase`], which fans each task message out
//! to both and exposes the Query API the agent's offline tools use. (The
//! paper's third option, an LMDB-class key–value store, is not kept: a
//! point lookup by task id is a [`StoreSnapshot::get_task`] over the
//! document store's hash index.)
//!
//! ## Sharding and shared handles
//!
//! The document store splits its collection across N independently locked
//! shards (N defaults to the core count, capped at 16; [`Config`] lists
//! every knob and its `PROVDB_*` name); writers contend per shard instead
//! of serializing on one global `RwLock<Vec<_>>`. Documents are stored
//! as `Arc<Value>`: `find`/`get` return shared handles, never deep
//! clones, and the graph's activity node holds the *same* allocation as
//! its properties — one serialization per ingested message, shared
//! everywhere.
//!
//! Reads run on the calling thread: a columnar scan walks the shards
//! chunk-major, and a top-k selection feeds one bounded buffer from every
//! shard. Concurrency across questions comes from concurrent callers,
//! such as [`QueryServer`]'s worker pool.
//!
//! A document's id encodes its location (`slot * nshards + shard`), ids
//! assigned by a single thread are dense and ascending, and queries sort
//! hits by id, so results are insertion-ordered and **shard-count
//! invariant**: any query answers identically on a 1-shard and a 16-shard
//! store (a property test in `tests/proptests.rs` pins this down).
//!
//! ## Index design
//!
//! Index keys are content hashes ([`prov_model::Value::stable_hash`]), so
//! neither inserts nor probes allocate (the previous engine rendered every
//! key to a `String` via `display_plain()` on both paths). Hash collisions
//! are harmless: candidates are always re-checked against the full query.
//! Equality conditions intersect **all** available indexes, starting from
//! the smallest candidate set; range predicates over hot numeric fields
//! (e.g. `started_at`) are served by a sorted index built with
//! [`DocumentStore::create_range_index`].
//!
//! ## Batch ingest (write-optimized, LSM-style)
//!
//! The streaming fast path, [`ProvenanceDatabase::insert_batch_shared`],
//! accepts the broker's own `Arc<TaskMessage>` handles by appending them to
//! a pending log — one pointer per message, no serialization, no index
//! maintenance. The next query (or backend accessor) materializes the
//! whole pending run in one batched pass: each message is serialized
//! exactly once, the resulting `Arc<Value>` is shared by both views, and
//! each backend applies its batch under a single lock acquisition
//! ([`DocumentStore::insert_many_shared`], [`GraphStore::apply_batch`]).
//! A keeper flushing a 64-message batch thus blocks on one mutex append
//! instead of a lock round-trip per message and backend, and bursts
//! are absorbed at pointer-append speed. The eager path
//! ([`ProvenanceDatabase::insert_batch`]) materializes immediately for
//! callers holding owned messages. `crates/bench` tracks the accept path
//! against the eager path, and accept plus materialization against
//! building the oracle frame from the same messages, in
//! `BENCH_provdb.json` (see `repro --provdb`).
//!
//! ## Concurrent serving (snapshot reads + plan cache)
//!
//! Query-side callers read through [`StoreSnapshot`]
//! ([`ProvenanceDatabase::snapshot`]): a generation-pinned immutable view
//! — refcount bump plus per-shard row high-water mark — whose reads never
//! flush and never block on ingest. It is also the only way a provql plan
//! executes: every plan runs through [`execute_plan`], whose scan kernels
//! take the high-water mark as their row bound, and only a plan it cannot
//! serve falls back to the snapshot's oracle frame — the one
//! full-materialize build, from empty and once per snapshot, which no
//! golden question needs (a whole-width frame output still does).
//! Snapshot query execution consults a shared plan-keyed result
//! cache ([`PlanCache`], keyed on
//! `(canonical plan, generation)` via [`provql::plan::cache_key`]), and
//! [`serve::QueryServer`] puts a bounded thread-pool front-end with
//! admission control over the whole read path. See `docs/serving.md`.
//!
//! ## Durability (WAL + sealed segments)
//!
//! [`ProvenanceDatabase::open`] turns the same engine into a durable
//! store rooted at a directory: every materialized batch is serialized
//! into an append-only, checksummed write-ahead log *before* any view
//! observes it (`PROVDB_WAL_SYNC=always|batch` picks the fsync cadence),
//! complete chunks of materialized rows are periodically sealed into
//! immutable per-shard columnar segments whose footers are the
//! serialized chunk zone maps (so on-disk scans prune whole segments
//! without reading a document), and sealed runs are compacted off the
//! accept path. Recovery replays the last sealed segments plus the WAL
//! tail through the normal materialization path — a crashed-and-
//! recovered store answers every query byte-identically to one that
//! never crashed, which `tests/recovery_differential.rs` enforces at
//! every WAL record boundary. See `docs/durability.md`.
//!
//! ## Out-of-core reads (lazy open + chunk paging)
//!
//! Reopening a durable store is *lazy* by default: sealed coverage is
//! attached, not replayed — open reads only the segment directory, the
//! zone-map footers, and the WAL tail, so open time is independent of
//! sealed history. Queries then page cold chunks from the segment files
//! on demand (the `pager` module) — a chunk's column block and its
//! documents as separate pages, so a columnar scan decodes no document,
//! and the footers list the frame's columns, so a whole-row answer
//! decodes one — pruning through the on-disk zone maps before any I/O and
//! holding the
//! paged set under a byte budget (`PROVDB_RESIDENT_MB`, LRU; counters in
//! [`PagerStats`]). Sealed rows are immutable and below every snapshot
//! high-water mark, so paged reads take no lock. Eager replay of the
//! whole history is kept as the referee,
//! [`ProvenanceDatabase::open_replayed`], and as the fallback when a
//! footer fails to load; `tests/out_of_core_differential.rs` pins that
//! both paths answer every pipeline byte-identically.

#![warn(missing_docs)]

pub(crate) mod columnar;
pub(crate) mod pager;
pub(crate) mod segment;
pub(crate) mod wal;

pub mod cache;
pub mod config;
#[doc(hidden)]
pub mod crashpoint;
pub mod csr;
pub mod document;
pub mod exec;
pub mod graph;
pub mod query;
pub mod serve;
pub mod snapshot;
pub mod store;

pub use cache::{CacheOutcome, CacheStats, PlanCache};
pub use config::Config;
pub use csr::{CsrGraph, Direction};
pub use document::{DocId, DocumentStore, ScanPredicate, TopkScan};
pub use exec::{execute_plan, Pushdown};
pub use graph::{GraphBatch, GraphEdge, GraphNode, GraphStore};
pub use pager::PagerStats;
pub use query::{AggOp, Aggregate, Condition, DocQuery, GroupSpec, Op};
#[doc(hidden)]
pub use serve::{QueryServer, ServeConfig, ServeError, ServeStats, SubmitError};
pub use snapshot::StoreSnapshot;
pub use store::{DurableStats, ProvenanceDatabase};
pub use wal::SyncPolicy;
