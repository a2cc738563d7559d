//! The unified provenance database facade.
//!
//! §2.3: "The architecture is designed to support multiple DBMS options,
//! including MongoDB for filtering and aggregation, LMDB for high-frequency
//! key–value inserts, and Neo4j for graph traversal queries." This facade
//! fans one insert out to the document and graph backends and exposes a
//! single Query API; a point lookup by task id is served by the document
//! store ([`StoreSnapshot::get_task`]), so no key–value copy is kept.
//!
//! The ingest hot path is write-optimized, LSM-style:
//!
//! * [`ProvenanceDatabase::insert_batch_shared`] — the streaming fast path —
//!   appends the broker's own `Arc<TaskMessage>` handles to a pending log
//!   and returns; no serialization, no index maintenance, no per-backend
//!   work. This is what a keeper thread calls with each flush batch.
//! * The first query (or any backend accessor) **materializes** the pending
//!   log into both views in one batched pass: each message is serialized
//!   exactly once and that single `Arc<Value>` is shared by the document
//!   store and the graph node's properties; each backend is updated under
//!   a single lock acquisition per batch.
//! * [`ProvenanceDatabase::insert_batch`] is the eager path for callers
//!   holding plain `&TaskMessage`s: it materializes immediately (after
//!   draining any pending log, so arrival order is preserved).

use crate::cache::PlanCache;
use crate::config::Config;
use crate::csr::CsrGraph;
use crate::document::DocumentStore;
use crate::graph::{GraphBatch, GraphStore};
use crate::pager::{ColdSegment, ColdShard, PagerCore, PagerStats};
use crate::query::{DocQuery, GroupSpec, Op};
use crate::segment::{self, Format, SegmentMeta};
use crate::snapshot::{FrameMemo, StoreSnapshot};
use crate::wal::{self, WalWriter};
use parking_lot::Mutex;
use prov_model::{Map, ProvRelation, TaskMessage, Value};
use std::collections::btree_map::{BTreeMap, Entry};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Sealed runs one shard may accumulate before they are compacted into
/// one segment.
const COMPACT_FANIN: usize = 4;

/// Observability snapshot of a durable store's on-disk state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurableStats {
    /// Arrivals serialized to the WAL since the store was created
    /// (sealed ones included).
    pub logged: u64,
    /// Arrivals not yet covered by sealed segments (the WAL tail a
    /// recovery would replay).
    pub wal_tail: u64,
    /// Per-shard sealed row count (uniform across shards).
    pub sealed_slots: u64,
    /// Sealed segment files currently on disk.
    pub segments: usize,
    /// Sealed runs merged away by compaction so far.
    pub compactions: u64,
    /// Segments that open did not attach as the paged cold prefix:
    /// segments of another shard count or chunk size than the opening
    /// store's, segments past the coverage every shard shares, and every
    /// segment when open fell back to (or was asked for) a full replay.
    /// Their rows past the attached coverage were replayed into memory.
    /// Fixed at open.
    pub foreign_segments: usize,
}

/// WAL half of the durable state: the appender plus the next arrival
/// index. One lock, taken on every materialization pass.
struct WalState {
    writer: WalWriter,
    next_seq: u64,
}

/// Segment half of the durable state: sealed coverage and the catalog.
struct SealState {
    /// Rows of every shard covered by sealed segments (current epoch).
    slots: u64,
    segments: Vec<SegmentMeta>,
    compactions: u64,
}

/// Everything [`ProvenanceDatabase::open`] attaches to make the store
/// durable. Lock order: `flusher` → `wal` → `seal` (durability locks
/// are only ever taken under the flusher lock, so seals, rotations, and
/// appends serialize with materialization).
struct Durability {
    dir: PathBuf,
    wal_path: PathBuf,
    wal: Mutex<WalState>,
    seal: Mutex<SealState>,
    /// [`DurableStats::foreign_segments`].
    foreign_segments: usize,
}

/// Unified provenance database over document + graph backends.
///
/// The backends are reached through [`ProvenanceDatabase::documents`] and
/// [`ProvenanceDatabase::graph`], which first materialize any pending
/// stream ingest so readers always observe every accepted message.
pub struct ProvenanceDatabase {
    /// The knobs this database was built with.
    config: Config,
    documents: DocumentStore,
    graph: GraphStore,
    /// Accepted-but-not-yet-materialized stream messages (the write-ahead
    /// portion of the LSM-style ingest path). Held as the broker's own
    /// `Arc`s: accepting a message is one pointer append. Never held
    /// during materialization, so accepts stay non-blocking.
    pending: Mutex<Vec<Arc<TaskMessage>>>,
    /// Serializes materialization passes. Lock order: `flusher` before
    /// `pending`; accept takes only `pending`.
    flusher: Mutex<()>,
    inserts: AtomicU64,
    /// Shared plan-keyed result cache, consulted by every
    /// [`StoreSnapshot`] of this database (entries are keyed on the
    /// snapshot generation, so one cache serves all generations safely).
    plan_cache: PlanCache,
    /// The newest CSR graph compaction and the generation it covers at
    /// least: many snapshots of one generation share it (see
    /// [`crate::csr`]). On the first graph read after the generation
    /// moves, [`csr_for`](Self::csr_for) extends it by the graph's new
    /// log entries — in place, or on a clone while an older snapshot
    /// still pins it. Never held while taking `flusher` or `pending`.
    csr: Mutex<Option<(u64, Arc<CsrGraph>)>>,
    /// The newest built oracle frame and the per-shard bound it covers
    /// (see [`StoreSnapshot::oracle_frame`]): a newer snapshot extends it
    /// by its delta rows instead of rebuilding. A leaf lock — never held
    /// while taking `flusher` or `pending`.
    frame: FrameMemo,
    /// WAL + sealed-segment state when the store was opened durably
    /// ([`ProvenanceDatabase::open`]); `None` for in-memory stores, which
    /// pay nothing for the feature.
    durability: Option<Durability>,
    /// Set by a lazy open: the graph backend does not yet hold the sealed
    /// prefix. The first graph read hydrates it in one pass (see
    /// [`hydrate_graph`](Self::hydrate_graph)); until then,
    /// materialization skips the graph fan-out — hydration replays every
    /// document in arrival order, so rows ingested while cold are covered
    /// by that same pass.
    graph_cold: AtomicBool,
}

impl ProvenanceDatabase {
    /// Fresh empty database configured from the environment
    /// ([`Config::from_env`]), with hash indexes on the hot equality
    /// fields and a sorted numeric index on `started_at` for time-range
    /// queries.
    pub fn new() -> Self {
        Self::with_config(Config::from_env())
    }

    /// [`new`] with an explicit document-store shard count (query results
    /// are shard-count invariant; the count only tunes concurrency).
    /// Benchmarks and tests use this to exercise multi-shard paths on
    /// single-core machines.
    ///
    /// [`new`]: ProvenanceDatabase::new
    pub fn with_shards(nshards: usize) -> Self {
        Self::with_config(Config {
            shards: nshards,
            ..Config::from_env()
        })
    }

    /// Fresh empty in-memory database built with `config`.
    fn with_config(config: Config) -> Self {
        let documents = DocumentStore::with_config(&config);
        documents.create_index("task_id");
        documents.create_index("activity_id");
        documents.create_index("workflow_id");
        documents.create_range_index("started_at");
        Self {
            config,
            documents,
            graph: GraphStore::new(),
            pending: Mutex::new(Vec::new()),
            flusher: Mutex::new(()),
            inserts: AtomicU64::new(0),
            plan_cache: PlanCache::with_max_bytes(crate::cache::MAX_BYTES),
            csr: Mutex::new(None),
            frame: Mutex::new(None),
            durability: None,
            graph_cold: AtomicBool::new(false),
        }
    }

    /// Open (or create) a **durable** store rooted at `dir`, configured
    /// from the environment ([`Config::from_env`]).
    ///
    /// Open is lazy: the sealed segments of this store's geometry (shard
    /// count and chunk size) are attached as a paged cold prefix, not
    /// replayed, so open reads only the segment directory, the zone-map
    /// footers and whatever lies past the sealed coverage — segments of
    /// other geometries and the WAL tail — which it re-materializes
    /// through the exact ingest path a live store uses. A crashed-and-
    /// recovered store thus answers every query byte-identically to one
    /// that never crashed (the recovery differential suite pins this).
    /// If any footer fails to load, open falls back to
    /// [`open_replayed`](Self::open_replayed).
    pub fn open(dir: impl AsRef<Path>) -> std::io::Result<Arc<Self>> {
        Self::open_with(dir, Config::from_env())
    }

    /// [`open`](Self::open) with an explicit configuration.
    pub fn open_with(dir: impl AsRef<Path>, config: Config) -> std::io::Result<Arc<Self>> {
        Self::open_durable(dir.as_ref(), config, false)
    }

    /// [`open_with`](Self::open_with), but replaying the whole arrival
    /// sequence into memory — every sealed segment, then the WAL — instead
    /// of attaching sealed rows cold. Open time grows with the sealed
    /// history, so this is not a production path: it is the referee the
    /// differential suites and the crash harness hold the lazy open to,
    /// and the code a lazy open falls back to when a footer fails to load.
    pub fn open_replayed(dir: impl AsRef<Path>, config: Config) -> std::io::Result<Arc<Self>> {
        Self::open_durable(dir.as_ref(), config, true)
    }

    fn open_durable(dir: &Path, config: Config, replay: bool) -> std::io::Result<Arc<Self>> {
        let dir = dir.to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let wal_path = dir.join("wal.log");

        let mut segs = segment::scan_dir(&dir)?;
        let records = wal::read_records(&wal_path)?;
        let mut db = Self::with_config(config);
        let n = db.documents.shard_count() as u64;
        let chunk = db.documents.chunk_rows() as u64;

        // Sealed coverage of the *current* epoch: contiguous-from-zero
        // runs matching this store's shard count and chunk size; the
        // uniform sealed-slot mark is their minimum over shards.
        // Segments from other epochs stay in the catalog (they still
        // serve recovery and pruning) but don't advance the mark.
        let ours = |m: &SegmentMeta| m.nshards as u64 == n && m.chunk as u64 == chunk;
        let slots = (0..n)
            .map(|s| {
                let mut runs: Vec<&SegmentMeta> = segs
                    .iter()
                    .filter(|m| ours(m) && m.shard as u64 == s)
                    .collect();
                runs.sort_by_key(|m| m.start);
                let mut covered = 0u64;
                for m in runs {
                    if m.start == covered {
                        covered = m.end;
                    } else {
                        break;
                    }
                }
                covered
            })
            .min()
            .unwrap_or(0);

        // Attach the sealed coverage as a paged cold prefix instead of
        // replaying it, after writing its `PSEG1`/`PSEG2`/`PSEG3` segments
        // forward as `PSEG4` (the one format the pager reads). A segment or
        // footer
        // that fails to load leaves `cold` empty, and the whole sequence
        // is replayed below (whole-document reads tolerate more damage);
        // a replacement that cannot be written fails the open.
        let mut attach = slots > 0 && !replay;
        let legacy = |m: &SegmentMeta| ours(m) && m.start < slots && m.format != Format::Pseg4;
        if attach {
            for m in segs.iter_mut().filter(|m| legacy(m)) {
                let Some(forward) = segment::write_forward(m)? else {
                    attach = false;
                    break;
                };
                *m = forward;
            }
        }
        let cold = if attach {
            Self::build_cold(&segs, n, chunk, slots, config.resident_bytes)
        } else {
            None
        };
        // Every segment outside the attached prefix is replayed below.
        let attached = match cold {
            Some(_) => segs.iter().filter(|m| ours(m) && m.start < slots).count(),
            None => 0,
        };
        let foreign_segments = segs.len() - attached;

        // Assemble the arrivals from `base` on — past the cold coverage,
        // or all of them on a replay — from the segments (each names the
        // arrival indexes it covers, so segments of any geometry serve)
        // and then the WAL's valid prefix. Duplicates (a crash between
        // segment rename and WAL rotation) dedupe by arrival index.
        let base = if cold.is_some() { slots * n } else { 0 };
        let mut by_seq: BTreeMap<u64, Value> = BTreeMap::new();
        for seg in &segs {
            let max_seq = (seg.end.saturating_sub(1)) * seg.nshards as u64 + seg.shard as u64;
            if seg.n_docs == 0 || max_seq < base {
                continue;
            }
            for (i, doc) in segment::read_docs(seg)?.into_iter().enumerate() {
                let seq = (seg.start + i as u64) * seg.nshards as u64 + seg.shard as u64;
                if seq >= base {
                    by_seq.entry(seq).or_insert(doc);
                }
            }
        }
        let mut syms = wal::SymTable::default();
        for r in &records {
            if r.seq < base {
                continue;
            }
            if let Entry::Vacant(e) = by_seq.entry(r.seq) {
                if let Some(doc) = syms.decode(&r.payload) {
                    e.insert(doc);
                }
            }
        }
        let mut assembled = Vec::with_capacity(by_seq.len());
        let mut next = base;
        while let Some(doc) = by_seq.remove(&next) {
            assembled.push(Arc::new(doc));
            next += 1;
        }

        // Normalize the WAL before appending to it: a torn tail record
        // must not be left in front of fresh appends (replay would stop
        // at the tear and lose them).
        wal::rewrite(&wal_path, &records)?;

        if let Some((core, shards, irregular)) = cold {
            // Attach order matters: the cold prefix must be in place
            // before the tail materializes (ids continue from it), the
            // recovered pushdown masks before any query plans against
            // the columns, and `graph_cold` before `materialize_docs`
            // so the tail skips the graph fan-out it would otherwise
            // double-apply when hydration later replays ids from zero.
            db.graph_cold.store(true, Ordering::Release);
            db.documents.apply_irregular(irregular);
            db.documents.attach_cold(core, shards);
        }
        // Replay through the live ingest path. Round-robin routing from a
        // zero router makes arrival `k` land on shard `k % n`, slot
        // `k / n` — the same ids as the original run, so query output
        // (which orders by id) is reproduced exactly.
        db.materialize_docs(assembled);
        db.inserts.store(next, Ordering::Relaxed);

        let writer = WalWriter::open(&wal_path, config.wal_sync, config.crash_after)?;
        db.durability = Some(Durability {
            dir,
            wal_path,
            wal: Mutex::new(WalState {
                writer,
                next_seq: next,
            }),
            seal: Mutex::new(SealState {
                slots,
                segments: segs,
                compactions: 0,
            }),
            foreign_segments,
        });
        Ok(Arc::new(db))
    }

    /// Build the per-shard cold prefixes for a lazy open: for each shard,
    /// the contiguous-from-zero chain of current-epoch segments covering
    /// `slots` rows, each opened (the held fd keeps paged reads safe even
    /// if compaction later unlinks the file) with its zone-map footer
    /// decoded. Returns `None` — replay fallback — if any file or footer
    /// fails to load (e.g. a pre-mask-format footer). Also accumulates
    /// the OR of the footers' irregular masks, which equals the live
    /// store's mask over those rows: every sealed document's mask bits
    /// were stamped into some footer at its seal, and seal-time masks
    /// only ever contain bits contributed by documents still in the
    /// append-only store. (Poison flags travel in the footers' column
    /// tables; attaching binds them into the store's registry.)
    fn build_cold(
        segs: &[SegmentMeta],
        n: u64,
        chunk: u64,
        slots: u64,
        budget: usize,
    ) -> Option<(Arc<PagerCore>, Vec<ColdShard>, u16)> {
        let core = Arc::new(PagerCore::new(budget));
        let mut irregular = 0u16;
        let mut shards = Vec::with_capacity(n as usize);
        for s in 0..n {
            let mut metas: Vec<&SegmentMeta> = segs
                .iter()
                .filter(|m| {
                    m.nshards as u64 == n
                        && m.shard as u64 == s
                        && m.chunk as u64 == chunk
                        && m.start < slots
                })
                .collect();
            metas.sort_by_key(|m| m.start);
            let mut covered = 0u64;
            let mut cold_segs = Vec::with_capacity(metas.len());
            for m in metas {
                if covered >= slots {
                    break;
                }
                if m.start != covered {
                    return None;
                }
                covered = m.end;
                let file = std::fs::File::open(&m.path).ok()?;
                let footer = segment::read_footer(m).ok()?;
                irregular |= footer.zones.irregular;
                let layout = footer.layout?;
                cold_segs.push(ColdSegment::new((*m).clone(), file, footer.zones, layout));
            }
            if covered < slots {
                return None;
            }
            shards.push(ColdShard::new(
                slots as usize,
                chunk as usize,
                cold_segs,
                Arc::clone(&core),
                s as usize,
            ));
        }
        Some((core, shards, irregular))
    }

    /// One-shot graph hydration after a lazy open: replay every document
    /// in arrival order through the same fan-out as
    /// [`materialize`](Self::materialize), in bounded batches. Runs under
    /// the flusher lock, so it serializes with ingest; documents
    /// materialized while the graph was cold were skipped there and are
    /// covered here (id order *is* arrival order). Document-only
    /// workloads never pay this — it triggers on the first graph read.
    fn hydrate_graph(&self) {
        if !self.graph_cold.load(Ordering::Acquire) {
            return;
        }
        let _flush = self.flusher.lock();
        if !self.graph_cold.load(Ordering::Acquire) {
            return;
        }
        let mut fan = Fanout::new();
        self.documents
            .for_each_doc_in_id_order(&self.documents.shard_rows(), |doc| {
                fan.push(doc);
                if fan.graph.len() >= 16_384 {
                    fan.apply(&self.graph);
                }
            });
        fan.apply(&self.graph);
        self.graph_cold.store(false, Ordering::Release);
    }

    /// Chunk-pager counters: cache hits, chunks paged in and evicted,
    /// chunks skipped by zone pruning before any I/O, and the current
    /// resident set. All zero for in-memory stores and replayed opens, which
    /// never page.
    pub fn pager_stats(&self) -> PagerStats {
        self.documents.pager_stats()
    }

    /// Shared handle.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    /// The document backend, with pending ingest materialized.
    pub fn documents(&self) -> &DocumentStore {
        self.flush_views();
        &self.documents
    }

    /// The document backend *without* flushing pending ingest — for
    /// metadata-only probes (e.g. pushdown capability checks during query
    /// planning) that must not pay a materialization.
    pub(crate) fn documents_unflushed(&self) -> &DocumentStore {
        &self.documents
    }

    /// The graph backend, with pending ingest materialized (and, after a
    /// lazy open, the sealed prefix hydrated).
    pub fn graph(&self) -> &GraphStore {
        self.hydrate_graph();
        self.flush_views();
        &self.graph
    }

    /// The graph backend without flushing — for snapshot reads, whose
    /// creation already materialized everything they may observe.
    pub(crate) fn graph_unflushed(&self) -> &GraphStore {
        self.hydrate_graph();
        &self.graph
    }

    /// The shared plan-keyed result cache (see [`crate::cache`]).
    pub fn plan_cache(&self) -> &PlanCache {
        &self.plan_cache
    }

    /// The oracle-frame memo [`StoreSnapshot::oracle_frame`] extends.
    pub(crate) fn frame_memo(&self) -> &FrameMemo {
        &self.frame
    }

    /// CSR graph compaction covering **at least** generation `generation`
    /// (the graph backend has no per-row high-water mark, so like every
    /// graph read through a snapshot this is a superset view; each
    /// [`StoreSnapshot`] pins the first compaction it observes, making its
    /// own reads repeatable). Memoized: concurrent snapshots of one
    /// generation share a single pass. A newer generation extends the
    /// memo by the graph-log entries past its cursor
    /// ([`CsrGraph::extend`]) instead of recompacting the whole graph —
    /// in place when no snapshot still pins the memo, on a clone when an
    /// older snapshot does, so that snapshot keeps exactly what it saw.
    pub(crate) fn csr_for(&self, generation: u64) -> Arc<CsrGraph> {
        // Hydrate *before* consulting the memo: a compaction over cold
        // (still empty) backends must never be memoized.
        self.hydrate_graph();
        {
            let memo = self.csr.lock();
            if let Some((g, csr)) = memo.as_ref() {
                if generation <= *g {
                    return Arc::clone(csr);
                }
            }
        }
        // The coverage floor must be read *before* flushing: a message
        // counted by `generation()` here is already in the pending log
        // (the count bumps under the pending lock, after the append), so
        // the flush below materializes it and the extension covers it.
        let floor = self.generation().max(generation);
        self.flush_views();
        // Extending holds the memo lock (it is never held while taking
        // `flusher` or `pending`), so snapshots of one generation share
        // one extension pass.
        let mut memo = self.csr.lock();
        if let Some((g, csr)) = memo.as_ref() {
            if floor <= *g {
                return Arc::clone(csr);
            }
        }
        // Taking the memo's own reference out first leaves only the
        // snapshots' pins to decide whether `make_mut` must clone.
        let mut csr = match memo.take() {
            Some((_, csr)) => csr,
            None => Arc::new(CsrGraph::empty()),
        };
        Arc::make_mut(&mut csr).extend(&self.graph);
        *memo = Some((floor, Arc::clone(&csr)));
        csr
    }

    /// Pin the store's current contents as an immutable read view.
    ///
    /// Cheap by construction: one materialization pass for whatever is
    /// pending (usually empty under a steady query load), then one
    /// refcount bump plus a per-shard row high-water mark — no data is
    /// copied. Reads through the returned [`StoreSnapshot`] never flush
    /// and never wait on ingest again: the shards are append-only, so
    /// rows below the high-water mark are immutable, and columnar state
    /// that *can* move later (dictionary growth, poison flags, zone
    /// widening) only ever moves monotonically — the bounded kernels
    /// re-check servability at execution time and fall back to the
    /// snapshot's own oracle frame, never to newer data.
    ///
    /// The generation is captured under the pending-log lock — the same
    /// lock [`insert_batch_shared`] bumps the counter under — and the
    /// whole capture runs under the flusher lock, so the high-water mark
    /// covers exactly the first `generation` accepted messages. (Callers
    /// that bypass the facade and insert into [`documents`] directly are
    /// outside this accounting, as they already are for [`generation`].)
    ///
    /// [`insert_batch_shared`]: ProvenanceDatabase::insert_batch_shared
    /// [`documents`]: ProvenanceDatabase::documents
    /// [`generation`]: ProvenanceDatabase::generation
    pub fn snapshot(self: &Arc<Self>) -> Arc<StoreSnapshot> {
        let _flush = self.flusher.lock();
        let (generation, batch) = {
            let mut pending = self.pending.lock();
            (
                self.inserts.load(Ordering::Relaxed),
                std::mem::take(&mut *pending),
            )
        };
        if !batch.is_empty() {
            self.materialize(batch.iter().map(|m| m.as_ref()));
        }
        let hwm = self.documents.shard_rows();
        Arc::new(StoreSnapshot::new(Arc::clone(self), generation, hwm))
    }

    /// Streaming ingest fast path: accept already-shared messages (the
    /// broker's deliveries) by appending their handles to the pending log.
    /// Costs one `Arc` clone per message; all view maintenance is deferred
    /// to the next query and then done batched.
    pub fn insert_batch_shared(&self, msgs: impl IntoIterator<Item = Arc<TaskMessage>>) -> usize {
        let mut pending = self.pending.lock();
        let before = pending.len();
        pending.extend(msgs);
        let n = pending.len() - before;
        self.inserts.fetch_add(n as u64, Ordering::Relaxed);
        n
    }

    /// Materialize every pending stream message into both views.
    /// Queries and backend accessors call this automatically; it is public
    /// so ingest-heavy callers can choose their own flush points.
    ///
    /// Two-phase: the pending log is swapped out under its own short-lived
    /// lock (so concurrent accepts never wait on materialization), while a
    /// separate flusher lock serializes materialization passes — a reader
    /// that raced an in-progress flush blocks here until that flush's
    /// messages are fully visible, preserving read-your-accepts.
    pub fn flush_views(&self) {
        let _flush = self.flusher.lock();
        let batch = std::mem::take(&mut *self.pending.lock());
        if batch.is_empty() {
            return;
        }
        self.materialize(batch.iter().map(|m| m.as_ref()));
    }

    /// Insert one task message into both backends (eager path).
    pub fn insert(&self, msg: &TaskMessage) {
        self.insert_batch(std::iter::once(msg));
    }

    /// Eager bulk insert for callers holding owned messages: one
    /// serialization per message, one batch per backend. Drains the pending
    /// log first so view order matches arrival order.
    ///
    /// The flusher lock is held across the drain *and* this batch's own
    /// materialization + count bump, so a concurrent [`snapshot`] can
    /// never observe the rows of a half-accounted eager batch (its
    /// high-water mark and generation are captured under the same lock).
    ///
    /// [`snapshot`]: ProvenanceDatabase::snapshot
    pub fn insert_batch<'a>(&self, msgs: impl IntoIterator<Item = &'a TaskMessage>) -> usize {
        let _flush = self.flusher.lock();
        let batch = std::mem::take(&mut *self.pending.lock());
        if !batch.is_empty() {
            self.materialize(batch.iter().map(|m| m.as_ref()));
        }
        let n = self.materialize(msgs);
        self.inserts.fetch_add(n as u64, Ordering::Relaxed);
        n
    }

    /// Serialize `msgs`, log them on a durable store, and install them in
    /// every view. Returns how many messages were materialized.
    fn materialize<'a>(&self, msgs: impl IntoIterator<Item = &'a TaskMessage>) -> usize {
        // One serialization, shared by the document and graph backends:
        // the activity node's properties *are* the document,
        // so property-graph ingest costs no map construction at all.
        let docs: Vec<Arc<Value>> = msgs.into_iter().map(|m| Arc::new(m.to_value())).collect();
        let n = docs.len();
        if n == 0 {
            return 0;
        }
        // Durable stores serialize the drained batch into the WAL before
        // any view observes it; the arrival index is assigned here, under
        // the flusher lock every materialization holds. A WAL that cannot
        // take the batch must not pretend it did — all whole-store state
        // is already unrecoverable at that point, so fail loudly.
        if let Some(d) = &self.durability {
            let mut wal_state = d.wal.lock();
            let base = wal_state.next_seq;
            wal_state
                .writer
                .append(base, &docs)
                .expect("provdb: WAL append failed");
            wal_state.next_seq += n as u64;
        }
        self.materialize_docs(docs);
        if self.durability.is_some() {
            // Best-effort: a failed seal leaves everything in the WAL,
            // which is bigger but just as durable.
            let _ = self.seal_locked(false);
        }
        n
    }

    /// Install serialized documents in the document store, then the graph
    /// fan-out, each under one lock: live ingest after logging, and the
    /// durable opens' replay. While the graph is cold (lazy open, not yet
    /// read) the fan-out is skipped: hydration replays every document,
    /// these included, before the first read.
    fn materialize_docs(&self, docs: Vec<Arc<Value>>) {
        let fan = (!self.graph_cold.load(Ordering::Acquire)).then(|| {
            let mut fan = Fanout::new();
            docs.iter().for_each(|doc| fan.push(doc));
            fan
        });
        self.documents.insert_many_shared(docs);
        if let Some(mut fan) = fan {
            fan.apply(&self.graph);
        }
    }

    /// Seal everything sealable now: drain pending ingest, then write
    /// per-shard segments for every complete chunk of materialized rows
    /// and rotate the sealed records out of the WAL. Returns the sealed
    /// per-shard row count. No-op (`Ok(0)`) on in-memory stores.
    pub fn seal_now(&self) -> std::io::Result<u64> {
        let _flush = self.flusher.lock();
        let batch = std::mem::take(&mut *self.pending.lock());
        if !batch.is_empty() {
            self.materialize(batch.iter().map(|m| m.as_ref()));
        }
        self.seal_locked(true)
    }

    /// Seal sealed-but-uncovered rows into per-shard segments. Caller
    /// holds the flusher lock (directly or via `materialize`). With
    /// `force`, seals whenever at least one whole chunk per shard is
    /// uncovered; otherwise only once `Config::seal_rows` arrivals
    /// accumulated.
    fn seal_locked(&self, force: bool) -> std::io::Result<u64> {
        let Some(d) = &self.durability else {
            return Ok(0);
        };
        let nshards = self.documents.shard_count() as u64;
        let chunk = self.documents.chunk_rows() as u64;
        let next_seq = d.wal.lock().next_seq;
        let slots = d.seal.lock().slots;
        if !force && next_seq.saturating_sub(slots * nshards) < self.config.seal_rows {
            return Ok(slots);
        }
        // Seal uniformly: every shard advances to the same chunk-aligned
        // row count, so the covered arrivals are exactly `0..m * n`.
        let m_new = ((next_seq / nshards) / chunk) * chunk;
        if m_new <= slots {
            return Ok(slots);
        }
        let mut new_metas = Vec::with_capacity(nshards as usize);
        for s in 0..nshards {
            let (docs, zones, cols) = self
                .documents
                .seal_export(s as usize, slots as usize, m_new as usize)
                .ok_or_else(|| {
                    std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        "provdb: columnar sidecar out of sync with documents",
                    )
                })?;
            let meta = SegmentMeta::new(
                &d.dir,
                nshards as u32,
                s as u32,
                slots,
                chunk as u32,
                docs.len(),
            );
            segment::write_segment(&meta, &docs, &cols, &zones)?;
            new_metas.push(meta);
        }
        // Rotate: the WAL keeps only arrivals past the sealed coverage.
        // Segments are synced and renamed first, so a crash anywhere in
        // here loses nothing — at worst the WAL still holds (and replay
        // dedupes) records the segments already cover.
        {
            let mut wal_state = d.wal.lock();
            let cutoff = m_new * nshards;
            let tail: Vec<wal::RawRecord> = wal::read_records(&d.wal_path)?
                .into_iter()
                .filter(|r| r.seq >= cutoff)
                .collect();
            wal::rewrite(&d.wal_path, &tail)?;
            let written = wal_state.writer.written();
            let mut writer =
                WalWriter::open(&d.wal_path, self.config.wal_sync, self.config.crash_after)?;
            writer.set_written(written);
            wal_state.writer = writer;
        }
        let mut seal = d.seal.lock();
        seal.slots = m_new;
        seal.segments.extend(new_metas);
        Self::compact_catalog(d, &mut seal, COMPACT_FANIN)?;
        Ok(m_new)
    }

    /// Compact sealed runs: merge every maximal contiguous same-shard
    /// chain of at least `fanin` segments into one. Runs off the accept
    /// path (seal time or explicit call), never under shard locks.
    fn compact_catalog(d: &Durability, seal: &mut SealState, fanin: usize) -> std::io::Result<()> {
        let mut groups: BTreeMap<(u32, u32), Vec<SegmentMeta>> = BTreeMap::new();
        for m in seal.segments.drain(..) {
            groups.entry((m.nshards, m.shard)).or_default().push(m);
        }
        let mut rebuilt = Vec::new();
        for (_, mut metas) in groups {
            metas.sort_by_key(|m| m.start);
            let mut i = 0;
            while i < metas.len() {
                // Maximal contiguous chain starting at i (equal chunk
                // sizes — compaction rebuilds zones at that granularity).
                let mut j = i + 1;
                while j < metas.len()
                    && metas[j].start == metas[j - 1].end
                    && metas[j].chunk == metas[i].chunk
                {
                    j += 1;
                }
                if j - i >= fanin {
                    let merged = segment::compact_runs(&d.dir, &metas[i..j])?;
                    seal.compactions += (j - i) as u64;
                    rebuilt.push(merged);
                } else {
                    rebuilt.extend(metas[i..j].iter().cloned());
                }
                i = j;
            }
        }
        seal.segments = rebuilt;
        Ok(())
    }

    /// Merge every contiguous run of two or more sealed segments per
    /// shard right now. Returns how many segment files remain. No-op on
    /// in-memory stores.
    pub fn compact_segments(&self) -> std::io::Result<usize> {
        let _flush = self.flusher.lock();
        let Some(d) = &self.durability else {
            return Ok(0);
        };
        let mut seal = d.seal.lock();
        Self::compact_catalog(d, &mut seal, 2)?;
        Ok(seal.segments.len())
    }

    /// On-disk durability counters; `None` for in-memory stores.
    pub fn durable_stats(&self) -> Option<DurableStats> {
        let d = self.durability.as_ref()?;
        let logged = d.wal.lock().next_seq;
        let seal = d.seal.lock();
        Some(DurableStats {
            logged,
            wal_tail: logged.saturating_sub(seal.slots * self.documents.shard_count() as u64),
            sealed_slots: seal.slots,
            segments: seal.segments.len(),
            compactions: seal.compactions,
            foreign_segments: d.foreign_segments,
        })
    }

    /// Consult only the serialized segment footers: how many sealed
    /// segments provably contain no document matching
    /// `field op lit` (frame comparison semantics)? Returns
    /// `(pruned, total)`; `None` for in-memory stores. This is the
    /// on-disk scan contract: a pruned segment never needs its
    /// documents read.
    pub fn sealed_prune_report(
        &self,
        field: &str,
        op: dataframe::CmpOp,
        lit: &Value,
    ) -> Option<(usize, usize)> {
        let d = self.durability.as_ref()?;
        let seal = d.seal.lock();
        let total = seal.segments.len();
        let mut pruned = 0;
        for meta in &seal.segments {
            if let Ok(footer) = segment::read_footer(meta) {
                if segment::segment_prunes(meta, &footer.zones, field, op, lit) {
                    pruned += 1;
                }
            }
        }
        Some((pruned, total))
    }

    /// Total messages accepted (materialized or still pending).
    pub fn insert_count(&self) -> u64 {
        self.inserts.load(Ordering::Relaxed)
    }

    /// Store generation: bumps on every accepted insert. Callers caching
    /// anything derived from the store's contents key the cache on this
    /// and recompute only when it moves. Currently an alias of
    /// [`insert_count`]; a future delete/compact path must keep bumping
    /// the generation even where it leaves the insert count alone.
    ///
    /// The oracle frame is the exception: a moved generation does not
    /// rebuild it. [`StoreSnapshot::oracle_frame`] keys its memo on the
    /// per-shard row bound instead and extends the newest frame by the
    /// rows past it (when both bounds are id prefixes), cloning it first
    /// only while an older snapshot still shares it.
    ///
    /// [`insert_count`]: ProvenanceDatabase::insert_count
    pub fn generation(&self) -> u64 {
        self.insert_count()
    }

    /// Filter/sort/limit query against the document backend. Results are
    /// shared handles into the store — no deep clones.
    pub fn find(&self, query: &DocQuery) -> Vec<Arc<Value>> {
        self.documents().find(query)
    }

    /// Count matching documents.
    pub fn count(&self, query: &DocQuery) -> usize {
        self.documents().count(query)
    }

    /// Group-and-aggregate against the document backend.
    pub fn aggregate(&self, query: &DocQuery, group: &GroupSpec) -> Vec<Value> {
        self.documents().aggregate(query, group)
    }

    /// All tasks of one workflow execution.
    pub fn workflow_tasks(&self, workflow_id: &str) -> Vec<Arc<Value>> {
        self.find(&DocQuery::new().filter("workflow_id", Op::Eq, workflow_id))
    }
}

/// The graph entries a batch of messages fans out to — the one writer of
/// the graph view, shared by live ingest, replay and hydration.
struct Fanout {
    graph: GraphBatch,
    /// Agent nodes carry no properties of their own; they share one
    /// object.
    empty_props: Arc<Value>,
}

impl Fanout {
    fn new() -> Fanout {
        Fanout {
            graph: GraphBatch::new(),
            empty_props: Arc::new(Value::object(Map::new())),
        }
    }

    /// Queue `doc`'s graph entries: its activity node, whose
    /// properties are `doc` itself, a `prov:wasInformedBy` edge per
    /// string `depends_on` element, and its agent node with the
    /// association edge, all read straight from the document. A document
    /// `TaskMessage::from_value` rejects (no string `task_id`,
    /// `workflow_id` or `activity_id`) fans out to nothing.
    fn push(&mut self, doc: &Arc<Value>) {
        let text = |k: &str| doc.get(k).and_then(Value::as_str);
        let (Some(task), Some(_), Some(_)) =
            (text("task_id"), text("workflow_id"), text("activity_id"))
        else {
            return;
        };
        self.graph
            .upsert_node_shared(task, "prov:Activity", Arc::clone(doc));
        let deps = doc.get("depends_on").and_then(Value::as_array);
        for dep in deps.into_iter().flatten().filter_map(Value::as_str) {
            self.graph
                .add_edge(task, dep, ProvRelation::WasInformedBy.as_str());
        }
        if let Some(agent) = text("agent_id") {
            self.graph
                .upsert_node_shared(agent, "prov:Agent", self.empty_props.clone());
            self.graph
                .add_edge(task, agent, ProvRelation::WasAssociatedWith.as_str());
        }
    }

    /// Apply what is queued under one lock acquisition and start over
    /// empty.
    fn apply(&mut self, graph: &GraphStore) {
        graph.apply_batch(std::mem::take(&mut self.graph));
    }
}

impl Default for ProvenanceDatabase {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prov_model::TaskMessageBuilder;

    fn msgs() -> Vec<TaskMessage> {
        vec![
            TaskMessageBuilder::new("t0", "wf-1", "generate_conformer")
                .generates("energy", -154.9)
                .span(10.0, 11.0)
                .build(),
            TaskMessageBuilder::new("t1", "wf-1", "run_dft")
                .depends_on("t0")
                .generates("energy", -155.2)
                .span(11.0, 19.0)
                .build(),
            TaskMessageBuilder::new("t2", "wf-1", "postprocess")
                .depends_on("t1")
                .generates("bd_energy", 98.6)
                .span(19.0, 19.5)
                .agent("prov-agent")
                .build(),
        ]
    }

    #[test]
    fn insert_fans_out_to_all_backends() {
        let db = ProvenanceDatabase::new();
        db.insert_batch(&msgs());
        assert_eq!(db.insert_count(), 3);
        assert_eq!(db.documents().len(), 3);
        assert!(db.graph().node_count() >= 3);
    }

    /// The fan-out as written against a decoded [`TaskMessage`]: the
    /// referee [`Fanout::push`] must queue identically to.
    fn push_decoded(fan: &mut Fanout, doc: &Arc<Value>) {
        let Some(msg) = TaskMessage::from_value(doc) else {
            return;
        };
        let task = msg.task_id.as_str();
        fan.graph
            .upsert_node_shared(task, "prov:Activity", Arc::clone(doc));
        for dep in &msg.depends_on {
            fan.graph
                .add_edge(task, dep.as_str(), ProvRelation::WasInformedBy.as_str());
        }
        if let Some(agent) = &msg.agent_id {
            fan.graph
                .upsert_node_shared(agent.as_str(), "prov:Agent", fan.empty_props.clone());
            fan.graph.add_edge(
                task,
                agent.as_str(),
                ProvRelation::WasAssociatedWith.as_str(),
            );
        }
    }

    #[test]
    fn fanout_reads_the_document_like_a_decoded_message() {
        let with = |base: &TaskMessage, edit: &dyn Fn(&mut Map)| {
            let mut v = base.to_value();
            let Value::Object(m) = &mut v else {
                unreachable!("to_value builds an object")
            };
            edit(Arc::make_mut(m));
            v
        };
        let all = msgs();
        let t2 = &all[2];
        let mut docs: Vec<Value> = all.iter().map(TaskMessage::to_value).collect();
        docs.extend([
            with(t2, &|m| {
                m.insert("task_id".into(), Value::Int(7));
            }),
            with(t2, &|m| {
                m.remove("workflow_id");
            }),
            with(t2, &|m| {
                m.insert("activity_id".into(), Value::Null);
            }),
            with(t2, &|m| {
                let deps = vec![
                    Value::Int(3),
                    Value::from("t0"),
                    Value::Null,
                    Value::array(vec![Value::from("t1")]),
                    Value::from("t1"),
                ];
                m.insert("depends_on".into(), Value::array(deps));
            }),
            with(t2, &|m| {
                m.insert("depends_on".into(), Value::from("t0"));
            }),
            with(t2, &|m| {
                m.insert("agent_id".into(), Value::Int(9));
            }),
            Value::Int(1),
            Value::from("t0"),
        ]);
        let docs: Vec<Arc<Value>> = docs.into_iter().map(Arc::new).collect();
        let (mut got, mut want) = (Fanout::new(), Fanout::new());
        for doc in &docs {
            got.push(doc);
            push_decoded(&mut want, doc);
        }
        assert_eq!(got.graph, want.graph);
        // The three decodable variants with edits kept their task.
        let fanned = docs.iter().filter(|doc| {
            let mut one = Fanout::new();
            one.push(doc);
            !one.graph.is_empty()
        });
        assert_eq!(fanned.count(), all.len() + 3);
    }

    #[test]
    fn point_lookup_roundtrips() {
        let db = Arc::new(ProvenanceDatabase::new());
        db.insert_batch(&msgs());
        let snap = db.snapshot();
        let t1 = snap.get_task("t1").unwrap();
        assert_eq!(t1.activity_id.as_str(), "run_dft");
        assert!(snap.get_task("nope").is_none());
    }

    #[test]
    fn document_queries_work() {
        let db = ProvenanceDatabase::new();
        db.insert_batch(&msgs());
        let out = db.find(
            &DocQuery::new()
                .filter("activity_id", Op::Eq, "run_dft")
                .project(&["task_id"]),
        );
        assert_eq!(out.len(), 1);
        assert_eq!(db.workflow_tasks("wf-1").len(), 3);
        assert_eq!(
            db.count(&DocQuery::new().filter("started_at", Op::Gte, 11.0)),
            2
        );
    }

    #[test]
    fn streaming_accept_is_visible_at_next_query() {
        let db = Arc::new(ProvenanceDatabase::new());
        let shared: Vec<Arc<TaskMessage>> = msgs().into_iter().map(Arc::new).collect();
        assert_eq!(db.insert_batch_shared(shared.iter().cloned()), 3);
        // Accepted immediately…
        assert_eq!(db.insert_count(), 3);
        // …and every read path materializes the views first.
        assert_eq!(db.count(&DocQuery::new()), 3);
        assert_eq!(db.documents().len(), 3);
        assert!(db.graph().node_count() >= 3);
        let t1 = db.snapshot().get_task("t1").unwrap();
        assert_eq!(t1.activity_id.as_str(), "run_dft");
        // Mixed eager + streaming ingest preserves arrival order.
        db.insert(&TaskMessageBuilder::new("t3", "wf-1", "tail").build());
        db.insert_batch_shared(std::iter::once(Arc::new(
            TaskMessageBuilder::new("t4", "wf-1", "tail2").build(),
        )));
        let out = db.find(&DocQuery::new().project(&["task_id"]));
        let ids: Vec<&str> = out
            .iter()
            .filter_map(|d| d.get("task_id").and_then(Value::as_str))
            .collect();
        assert_eq!(ids, vec!["t0", "t1", "t2", "t3", "t4"]);
    }

    #[test]
    fn document_and_graph_node_share_one_allocation() {
        let db = ProvenanceDatabase::new();
        db.insert_batch(&msgs());
        let from_docs = db.find(&DocQuery::new().filter("task_id", Op::Eq, "t1"));
        let node = db.graph().node("t1").unwrap();
        assert!(Arc::ptr_eq(&from_docs[0], &node.props));
    }

    #[test]
    fn lineage_traverses_graph() {
        let db = ProvenanceDatabase::new();
        db.insert_batch(&msgs());
        let up = db.graph().upstream_lineage("t2", 10);
        let ids: Vec<&str> = up.iter().map(|(id, _)| id.as_str()).collect();
        assert_eq!(ids, vec!["t1", "t0"]);
    }

    #[test]
    fn agent_association_recorded() {
        let db = ProvenanceDatabase::new();
        db.insert_batch(&msgs());
        assert!(db.graph().node("prov-agent").is_some());
        assert_eq!(
            db.graph().neighbors_out("t2", "prov:wasAssociatedWith"),
            vec!["prov-agent".to_string()]
        );
    }
}
