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
//!
//! A durable store ([`ProvenanceDatabase::open`]) logs every drained
//! batch to its WAL — one file per seal unit, see `wal.rs` —
//! before any view sees it, and seals whole chunks into segments every
//! `Config::seal_rows` arrivals. The materialization that makes a seal
//! due only exports its rows (`Arc` handles and column blocks); a
//! background sealer, at most one seal in flight, writes the segments,
//! deletes the WAL files they cover, publishes them in the catalog and
//! compacts, so pins and flushes never wait for segment I/O.
//! `docs/durability.md` has the lock order and the crash ordering.

use crate::cache::PlanCache;
use crate::config::Config;
use crate::crashpoint::{self, Point};
use crate::csr::CsrGraph;
use crate::document::DocumentStore;
use crate::graph::{GraphBatch, GraphStore};
use crate::pager::{ColdSegment, ColdShard, PagerCore, PagerStats};
use crate::query::{DocQuery, GroupSpec, Op};
use crate::segment::{self, ChunkRuns, Format, SegmentMeta, ZoneTables};
use crate::snapshot::StoreSnapshot;
use crate::wal::{self, WalWriter};
use parking_lot::Mutex;
use prov_model::{Map, ProvRelation, TaskMessage, Value};
use std::collections::btree_map::{BTreeMap, Entry};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

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
    /// Per-shard sealed row count (uniform across shards), as
    /// published: a background seal in flight counts once it has
    /// written its segments ([`ProvenanceDatabase::wait_for_seal`]).
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

/// A lock granted first come, first served. The flusher lock is one: a
/// writer flushing batch after batch re-takes an unfair mutex before a
/// woken pin can, and starves it for as long as the writer keeps going
/// (see `repro --provdb-measure pin-stall`). Here each caller draws a
/// ticket and waits for its turn, so a pin waits for at most the flushes
/// that queued before it.
#[derive(Default)]
struct FifoLock {
    /// `(next ticket, ticket being served)`.
    tickets: std::sync::Mutex<(u64, u64)>,
    turn: std::sync::Condvar,
}

/// Holding a [`FifoLock`]; dropping it serves the next ticket.
struct FifoGuard<'a>(&'a FifoLock);

impl FifoLock {
    fn lock(&self) -> FifoGuard<'_> {
        let mut t = self.tickets.lock().unwrap_or_else(|e| e.into_inner());
        let mine = t.0;
        t.0 += 1;
        while t.1 != mine {
            t = self.turn.wait(t).unwrap_or_else(|e| e.into_inner());
        }
        FifoGuard(self)
    }
}

impl Drop for FifoGuard<'_> {
    fn drop(&mut self) {
        let mut t = self.0.tickets.lock().unwrap_or_else(|e| e.into_inner());
        t.1 += 1;
        let waiting = t.0 != t.1;
        drop(t);
        if waiting {
            self.0.turn.notify_all();
        }
    }
}

/// WAL half of the durable state: the appender plus the next arrival
/// index. One lock, taken on every materialization pass and, briefly, by
/// a seal retiring the files below its cutoff.
struct WalState {
    writer: WalWriter,
    next_seq: u64,
}

/// Segment half of the durable state: the published sealed coverage and
/// the catalog. Only a seal or a compaction changes it, and at most one
/// of them runs at a time.
struct SealState {
    /// Rows of every shard covered by sealed segments (current epoch).
    slots: u64,
    segments: Vec<SegmentMeta>,
    compactions: u64,
}

/// The background sealer: at most one seal in flight.
struct Sealer {
    /// Rows of every shard sealed once the in-flight seal publishes (the
    /// published coverage when none is in flight): the seal trigger
    /// counts arrivals past it, so seals cut where synchronous ones would.
    target: u64,
    inflight: Option<JoinHandle<std::io::Result<()>>>,
}

/// Everything [`ProvenanceDatabase::open`] attaches to make the store
/// durable; shared with the sealer thread.
///
/// Lock order: `flusher` → `sealer` → `wal` → `seal`. Materialization
/// appends under `flusher` + `wal` and exports a due seal under
/// `flusher` + `sealer`; the sealer thread then takes `wal` (to retire
/// files) and `seal` (to publish) one at a time, never `flusher`, so a
/// pin or a flush never waits for a segment write.
struct Durability {
    dir: PathBuf,
    wal: Mutex<WalState>,
    seal: Mutex<SealState>,
    sealer: Mutex<Sealer>,
    /// [`DurableStats::foreign_segments`].
    foreign_segments: usize,
}

/// One seal, exported under the flusher lock and written off it: per
/// shard, the segment to write with its rows' documents, footer tables
/// and column blocks.
struct SealJob {
    segments: Vec<(SegmentMeta, Vec<Arc<Value>>, ZoneTables, ChunkRuns)>,
    /// The per-shard sealed row count once published.
    slots: u64,
}

impl SealJob {
    /// Write the segments (each synced and renamed into place), delete
    /// the WAL files they cover, publish them in the catalog, and compact.
    /// A crash at any step loses nothing: until the segments are renamed
    /// the WAL holds every row, and after it recovery dedupes the rows
    /// both hold by arrival.
    fn run(self, d: &Durability) -> std::io::Result<()> {
        let cutoff = self.slots * self.segments.len() as u64;
        let mut metas = Vec::with_capacity(self.segments.len());
        for (meta, docs, zones, cols) in self.segments {
            segment::write_segment(&meta, &docs, &cols, &zones)?;
            if metas.is_empty() {
                crashpoint::reach(Point::SealInFlight);
            }
            metas.push(meta);
        }
        crashpoint::reach(Point::SegmentsRenamed);
        let retired = d.wal.lock().writer.retire_below(cutoff);
        wal::remove_files(&d.dir, &retired);
        crashpoint::reach(Point::WalRetired);
        {
            let mut seal = d.seal.lock();
            seal.slots = self.slots;
            seal.segments.extend(metas);
        }
        crashpoint::reach(Point::CatalogSwapped);
        d.compact(COMPACT_FANIN)
    }
}

impl Durability {
    /// Wait for the in-flight seal, if any, and return its outcome. After
    /// a failed one the trigger counts from the published coverage again.
    fn join(&self, sealer: &mut Sealer) -> std::io::Result<()> {
        let Some(handle) = sealer.inflight.take() else {
            return Ok(());
        };
        let outcome = handle
            .join()
            .unwrap_or_else(|_| Err(std::io::Error::other("provdb: the sealer panicked")));
        if outcome.is_err() {
            sealer.target = self.seal.lock().slots;
        }
        outcome
    }

    /// Compact sealed runs: merge every maximal contiguous same-shard
    /// chain of at least `fanin` segments into one. The merges read and
    /// write files without a lock (only the caller changes the catalog);
    /// the result is published under `seal` at the end, the chains merged
    /// before a failure included.
    fn compact(&self, fanin: usize) -> std::io::Result<()> {
        let mut groups: BTreeMap<(u32, u32), Vec<SegmentMeta>> = BTreeMap::new();
        for m in self.seal.lock().segments.iter() {
            groups
                .entry((m.nshards, m.shard))
                .or_default()
                .push(m.clone());
        }
        let mut rebuilt = Vec::new();
        let mut merged_runs = 0u64;
        let mut outcome = Ok(());
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
                if j - i >= fanin && outcome.is_ok() {
                    match segment::compact_runs(&self.dir, &metas[i..j]) {
                        Ok(merged) => {
                            merged_runs += (j - i) as u64;
                            rebuilt.push(merged);
                            i = j;
                            continue;
                        }
                        Err(e) => outcome = Err(e),
                    }
                }
                rebuilt.extend(metas[i..j].iter().cloned());
                i = j;
            }
        }
        let mut seal = self.seal.lock();
        seal.segments = rebuilt;
        seal.compactions += merged_runs;
        outcome
    }
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
    /// Serializes materialization passes, in arrival order (see
    /// [`FifoLock`]). Lock order: `flusher` before `pending`; accept
    /// takes only `pending`.
    flusher: FifoLock,
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
    /// WAL + sealed-segment state when the store was opened durably
    /// ([`ProvenanceDatabase::open`]); `None` for in-memory stores, which
    /// pay nothing for the feature.
    durability: Option<Arc<Durability>>,
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
            flusher: FifoLock::default(),
            inserts: AtomicU64::new(0),
            plan_cache: PlanCache::with_max_bytes(crate::cache::MAX_BYTES),
            csr: Mutex::new(None),
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

        let mut segs = segment::scan_dir(&dir)?;
        let wal_files = wal::scan(&dir)?;
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
        // and then the WAL files' valid prefixes. Duplicates (a crash
        // between segment rename and WAL retirement) dedupe by arrival
        // index.
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
        for r in wal_files.iter().flat_map(|f| &f.records) {
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
        // at the tear and lose them), and a legacy `wal.log` is written
        // forward as a per-unit file.
        let wal_files = wal::normalize(&dir, wal_files, next)?;

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

        let writer = WalWriter::open(&dir, chunk * n, wal_files, next, config.wal_sync)?;
        db.durability = Some(Arc::new(Durability {
            dir,
            wal: Mutex::new(WalState {
                writer,
                next_seq: next,
            }),
            seal: Mutex::new(SealState {
                slots,
                segments: segs,
                compactions: 0,
            }),
            sealer: Mutex::new(Sealer {
                target: slots,
                inflight: None,
            }),
            foreign_segments,
        }));
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
        let _ = self.flush_views();
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
        let _ = self.flush_views();
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
        let _ = self.flush_views();
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
            // A WAL refusal reaches the flushing caller only; the pin
            // sees what was logged.
            let _ = self.materialize(batch.iter().map(|m| m.as_ref()));
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
    ///
    /// On a durable store the drained messages are logged first, and an
    /// `Err` means the WAL refused some of them (a full disk, a failed
    /// sync): the store keeps and answers the logged prefix of the drain
    /// and drops the rest, exactly as a reopen would see it. They still
    /// count in [`insert_count`](Self::insert_count), which counts
    /// accepted messages. The implicit flushes of reads swallow the
    /// error, so a durable writer flushes explicitly.
    pub fn flush_views(&self) -> std::io::Result<()> {
        let _flush = self.flusher.lock();
        let batch = std::mem::take(&mut *self.pending.lock());
        if batch.is_empty() {
            return Ok(());
        }
        self.materialize(batch.iter().map(|m| m.as_ref())).1
    }

    /// Insert one task message into both backends (eager path).
    pub fn insert(&self, msg: &TaskMessage) {
        self.insert_batch(std::iter::once(msg));
    }

    /// Eager bulk insert for callers holding owned messages: one
    /// serialization per message, one batch per backend. Drains the pending
    /// log first so view order matches arrival order. Returns how many of
    /// `msgs` were stored: on a durable store, those the WAL logged (see
    /// [`flush_views`](Self::flush_views)).
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
            let _ = self.materialize(batch.iter().map(|m| m.as_ref()));
        }
        let (n, _) = self.materialize(msgs);
        self.inserts.fetch_add(n as u64, Ordering::Relaxed);
        n
    }

    /// Serialize `msgs`, log them on a durable store, install them in
    /// every view, and export a seal if one is due. Returns how many
    /// messages were materialized, and the WAL's refusal if it refused
    /// some: then only the logged prefix is installed.
    fn materialize<'a>(
        &self,
        msgs: impl IntoIterator<Item = &'a TaskMessage>,
    ) -> (usize, std::io::Result<()>) {
        // One serialization, shared by the document and graph backends:
        // the activity node's properties *are* the document,
        // so property-graph ingest costs no map construction at all.
        let mut docs: Vec<Arc<Value>> = msgs.into_iter().map(|m| Arc::new(m.to_value())).collect();
        let Some(d) = &self.durability else {
            let n = docs.len();
            self.materialize_docs(docs);
            return (n, Ok(()));
        };
        // Durable stores serialize the drained batch into the WAL before
        // any view observes it; the arrival index is assigned here, under
        // the flusher lock every materialization holds. What the WAL
        // refused is dropped, so the views hold what a reopen replays.
        let mut outcome = Ok(());
        {
            let mut wal_state = d.wal.lock();
            let base = wal_state.next_seq;
            if let Err((logged, e)) = wal_state.writer.append(base, &docs) {
                let msg = format!(
                    "provdb: the WAL refused {} of {} arrivals: {e}",
                    docs.len() - logged,
                    docs.len()
                );
                outcome = Err(std::io::Error::new(e.kind(), msg));
                docs.truncate(logged);
            }
            wal_state.next_seq += docs.len() as u64;
        }
        let n = docs.len();
        if n > 0 {
            self.materialize_docs(docs);
            self.start_seal(d);
        }
        (n, outcome)
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

    /// Hand a due seal to a fresh sealer thread. Caller holds the flusher
    /// lock. Best-effort: a seal that fails leaves its rows in the WAL,
    /// which is bigger but just as durable, and the next trigger retries.
    fn start_seal(&self, d: &Arc<Durability>) {
        let mut sealer = d.sealer.lock();
        if sealer.inflight.as_ref().is_some_and(|h| h.is_finished()) {
            let _ = d.join(&mut sealer);
        }
        let Ok(Some(job)) = self.seal_job(d, &mut sealer, false) else {
            return;
        };
        let shared = Arc::clone(d);
        let spawned = std::thread::Builder::new()
            .name("provdb-sealer".into())
            .spawn(move || job.run(&shared));
        match spawned {
            Ok(handle) => sealer.inflight = Some(handle),
            Err(_) => sealer.target = d.seal.lock().slots,
        }
    }

    /// Export the seal due now, if any: the rows every shard holds past
    /// the sealer's target, cut at a whole chunk, as `Arc` handles and
    /// column blocks (shards are append-only, so they never change after).
    /// Caller holds the flusher lock and `sealer`. With `force`, a seal
    /// is due whenever at least one whole chunk per shard is unsealed;
    /// otherwise only once `Config::seal_rows` arrivals accumulated past
    /// the target. Waits for the in-flight seal first, so at most one is
    /// in flight and each starts where the previous ends.
    fn seal_job(
        &self,
        d: &Durability,
        sealer: &mut Sealer,
        force: bool,
    ) -> std::io::Result<Option<SealJob>> {
        let nshards = self.documents.shard_count() as u64;
        let chunk = self.documents.chunk_rows() as u64;
        let next_seq = d.wal.lock().next_seq;
        if !force && next_seq.saturating_sub(sealer.target * nshards) < self.config.seal_rows {
            return Ok(None);
        }
        // Seal uniformly: every shard advances to the same chunk-aligned
        // row count, so the covered arrivals are exactly `0..m * n`.
        let m_new = ((next_seq / nshards) / chunk) * chunk;
        if m_new <= sealer.target {
            return Ok(None);
        }
        let _ = d.join(sealer);
        let slots = sealer.target;
        let mut segments = Vec::with_capacity(nshards as usize);
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
            segments.push((meta, docs, zones, cols));
        }
        sealer.target = m_new;
        Ok(Some(SealJob {
            segments,
            slots: m_new,
        }))
    }

    /// Seal everything sealable now, on the calling thread: drain pending
    /// ingest, wait for the in-flight seal, then write per-shard segments
    /// for every complete chunk of materialized rows and retire the WAL
    /// files they cover. Returns the sealed per-shard row count. No-op
    /// (`Ok(0)`) on in-memory stores.
    pub fn seal_now(&self) -> std::io::Result<u64> {
        let _flush = self.flusher.lock();
        let batch = std::mem::take(&mut *self.pending.lock());
        if !batch.is_empty() {
            self.materialize(batch.iter().map(|m| m.as_ref())).1?;
        }
        let Some(d) = &self.durability else {
            return Ok(0);
        };
        let mut sealer = d.sealer.lock();
        // An automatic seal that failed is retried by this one.
        let _ = d.join(&mut sealer);
        if let Some(job) = self.seal_job(d, &mut sealer, true)? {
            let outcome = job.run(d);
            sealer.target = d.seal.lock().slots;
            outcome?;
        }
        Ok(sealer.target)
    }

    /// Wait until the background seal in flight, if any, has written its
    /// segments, retired the WAL files they cover and compacted, and
    /// return its outcome. Afterwards the directory holds what a
    /// synchronous seal would have left. No-op on in-memory stores.
    pub fn wait_for_seal(&self) -> std::io::Result<()> {
        match &self.durability {
            Some(d) => d.join(&mut d.sealer.lock()),
            None => Ok(()),
        }
    }

    /// Merge every contiguous run of two or more sealed segments per
    /// shard right now, after the in-flight seal. Returns how many segment
    /// files remain. No-op on in-memory stores.
    pub fn compact_segments(&self) -> std::io::Result<usize> {
        let Some(d) = &self.durability else {
            return Ok(0);
        };
        let mut sealer = d.sealer.lock();
        let _ = d.join(&mut sealer);
        d.compact(2)?;
        let segments = d.seal.lock().segments.len();
        Ok(segments)
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
    /// documents read. Waits for the seal in flight, whose compaction
    /// may be deleting the files it would read.
    pub fn sealed_prune_report(
        &self,
        field: &str,
        op: dataframe::CmpOp,
        lit: &Value,
    ) -> Option<(usize, usize)> {
        let d = self.durability.as_ref()?;
        let _ = self.wait_for_seal();
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

impl Drop for ProvenanceDatabase {
    /// A dropped durable store leaves its directory as a synchronous
    /// seal would: the in-flight seal finishes first.
    fn drop(&mut self) {
        let _ = self.wait_for_seal();
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

    /// A seal that cannot publish — its catalog swap waits on the `seal`
    /// lock this test holds — stalls no pin, flush or query, and they
    /// answer like a store that never sealed.
    #[test]
    fn a_blocked_seal_stalls_no_pin_flush_or_query() {
        let dir = std::env::temp_dir().join(format!("provdb-blocked-seal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = Config {
            shards: 2,
            chunk_rows: 16,
            seal_rows: 32,
            ..Config::default()
        };
        let msgs: Vec<TaskMessage> = (0..48)
            .map(|i| {
                TaskMessageBuilder::new(format!("t{i}"), "wf", format!("act{}", i % 3))
                    .span(i as f64, i as f64 + 0.5)
                    .build()
            })
            .collect();
        let db = ProvenanceDatabase::open_with(&dir, config).expect("open");
        let d = Arc::clone(db.durability.as_ref().expect("durable"));
        let held = d.seal.lock();
        // 40 arrivals: a seal of 16 rows per shard is due and starts.
        db.insert_batch_shared(msgs[..40].iter().cloned().map(Arc::new));
        db.flush_views().expect("flush");
        // Wait until it has renamed its segments and retired the WAL file
        // below its cutoff: all that is left is the swap it cannot make.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while dir.join(wal::file_name(0)).exists() {
            assert!(
                std::time::Instant::now() < deadline,
                "the seal never reached its swap"
            );
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let in_flight = |d: &Durability| d.sealer.lock().inflight.is_some();
        assert!(in_flight(&d));
        let pinned = db.snapshot();
        db.insert_batch_shared(msgs[40..].iter().cloned().map(Arc::new));
        db.flush_views()
            .expect("a flush does not wait for the swap");
        let snap = db.snapshot();
        let plain = Arc::new(ProvenanceDatabase::new());
        plain.insert_batch(&msgs[..40]);
        let plain_pinned = plain.snapshot();
        plain.insert_batch(&msgs[40..]);
        let plain_snap = plain.snapshot();
        let q = DocQuery::new()
            .filter("activity_id", Op::Eq, "act1")
            .sort_by("started_at", false)
            .project(&["task_id"]);
        let provql =
            provql::parse(r#"df[df["activity_id"] == "act1"]["started_at"].sum()"#).unwrap();
        for (got, want) in [(&pinned, &plain_pinned), (&snap, &plain_snap)] {
            assert_eq!(got.len(), want.len());
            assert_eq!(got.find(&q), want.find(&q));
            let answer = |s: &StoreSnapshot| format!("{:?}", s.query(&provql).0);
            assert_eq!(answer(got), answer(want));
        }
        assert!(in_flight(&d), "the seal is still blocked");
        drop(held);
        db.wait_for_seal()
            .expect("the seal publishes once released");
        let stats = db.durable_stats().expect("durable");
        assert_eq!((stats.sealed_slots, stats.segments), (16, 2));
        drop((pinned, snap, db));
        let _ = std::fs::remove_dir_all(&dir);
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
