//! Document store — the MongoDB-shaped backend ("filtering and
//! aggregation", §2.3), rebuilt as a sharded, clone-free engine.
//!
//! Documents live as [`Arc<Value>`] in N independently locked shards, so
//! concurrent writers no longer serialize on one `RwLock<Vec<Value>>` and
//! `find`/`get` hand back shared handles instead of deep clones. Index keys
//! are content hashes ([`Value::stable_hash`]) rather than rendered
//! `String`s, so neither inserts nor probes allocate; equality conditions
//! intersect every available index (smallest set first), and range
//! predicates (`Gt`/`Gte`/`Lt`/`Lte`) can be served from a sorted numeric
//! index on hot fields such as `started_at`.
//!
//! Document ids interleave across shards: the document in shard `s` at
//! slot `k` has id `k * nshards + s`. Ids assigned by a single thread are
//! dense and ascending, and every query sorts its hits by id, so results
//! keep insertion order exactly as the single-lock engine did.

use crate::columnar::{self, ColField, ColPredicate, ColumnarShard, Kind, Registry, ShardPred};
use crate::config::Config;
use crate::pager::{ColdShard, PagerCore, PagerStats};
use crate::query::{Condition, DocQuery, GroupSpec, Op};
use dataframe::CmpOp;
use parking_lot::RwLock;
use prov_model::{Map, Sym, Value};
use std::cell::OnceCell;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU16, AtomicUsize, Ordering};
use std::sync::Arc;

/// Stable document id: `slot * nshards + shard`.
pub type DocId = usize;

/// Pass-through hasher for maps keyed by an already-mixed
/// [`Value::stable_hash`]: re-hashing a good 64-bit hash through SipHash
/// would only burn ingest cycles.
#[derive(Default)]
pub(crate) struct PrehashedKey(u64);

impl Hasher for PrehashedKey {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
    fn write(&mut self, bytes: &[u8]) {
        // Not used for u64 keys; keep a real hash as a safety net.
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
        }
    }
}

pub(crate) type PrehashedMap<V> = HashMap<u64, V, BuildHasherDefault<PrehashedKey>>;

/// Posting list that avoids a heap `Vec` for unique keys — on a store
/// indexed by `task_id`, every key is unique, so the old
/// one-`Vec`-per-key layout paid one allocation per ingested document.
enum IdList {
    One(DocId),
    Many(Vec<DocId>),
}

impl IdList {
    fn push(&mut self, id: DocId) {
        match self {
            IdList::One(first) => *self = IdList::Many(vec![*first, id]),
            IdList::Many(v) => v.push(id),
        }
    }

    fn to_vec(&self) -> Vec<DocId> {
        match self {
            IdList::One(id) => vec![*id],
            IdList::Many(v) => v.clone(),
        }
    }
}

/// Log-structured sorted numeric index: appends are O(1) on the ingest
/// path; the first range probe after a write burst merges the pending run
/// into the sorted run (amortized, like an LSM memtable flush).
#[derive(Default)]
struct RangeLog {
    /// `(order-encoded f64, doc id)`, sorted by key.
    sorted: Vec<(u64, DocId)>,
    /// Unmerged appends in arrival order.
    pending: Vec<(u64, DocId)>,
}

impl RangeLog {
    fn push(&mut self, key: u64, id: DocId) {
        self.pending.push((key, id));
    }

    fn merge(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        self.sorted.append(&mut self.pending);
        // pdqsort is near-linear on the mostly-sorted runs ingest produces.
        self.sorted.sort_unstable();
    }

    /// Ids with key satisfying `op bound` (callers merged `pending` first).
    fn probe(&self, op: Op, bound: u64, out: &mut Vec<DocId>) {
        let range = match op {
            Op::Gte => self.sorted.partition_point(|(k, _)| *k < bound)..self.sorted.len(),
            Op::Gt => self.sorted.partition_point(|(k, _)| *k <= bound)..self.sorted.len(),
            Op::Lte => 0..self.sorted.partition_point(|(k, _)| *k <= bound),
            Op::Lt => 0..self.sorted.partition_point(|(k, _)| *k < bound),
            _ => unreachable!("probe is only called for range operators"),
        };
        out.extend(self.sorted[range].iter().map(|(_, id)| *id));
    }
}

/// Indexes for one dotted field path.
#[derive(Default)]
struct FieldIndex {
    /// `stable_hash(value)` → ids of docs holding that value at the path.
    /// Hash collisions are harmless: every candidate is still checked with
    /// `DocQuery::matches` before it can reach a result set.
    eq: PrehashedMap<IdList>,
    /// Sorted numeric index (present only after `create_range_index`).
    range: Option<RangeLog>,
    /// Docs whose value at this path is non-numeric; unioned into every
    /// range-index candidate set because mixed-kind comparisons can still
    /// satisfy range operators (kind-tag ordering in `Value::compare`).
    non_numeric: Vec<DocId>,
}

/// Order-preserving encoding of an `f64` into sortable `u64` bits.
/// `-0.0` canonicalizes to `+0.0` first — `Value::compare` treats them as
/// equal, so they must share a key or range probes on a zero bound would
/// drop documents an unindexed scan returns. NaN never reaches this
/// function (NaN-valued docs go to the `non_numeric` catch-all instead).
fn range_key(f: f64) -> u64 {
    let f = if f == 0.0 { 0.0 } else { f };
    let bits = f.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

/// One shard: its documents plus the slot-aligned columnar sidecar,
/// appended to under the same write lock as each document.
///
/// A lazily opened durable store additionally carries a `cold` prefix:
/// shard slots `[0, cold.rows())` live in sealed segment files and are
/// paged on demand (see [`crate::pager`]); `docs`/`cols` then hold only
/// the rows from `cold.rows()` upward, and reads reach both through one
/// chunk accessor, [`Shard::chunk`].
struct Shard {
    docs: Vec<Arc<Value>>,
    cols: ColumnarShard,
    cold: Option<ColdShard>,
}

impl Shard {
    /// Rows of the sealed on-disk prefix (0 for in-memory stores).
    fn cold_rows(&self) -> usize {
        self.cold.as_ref().map_or(0, |c| c.rows())
    }

    /// Total rows of the shard: cold prefix plus resident tail.
    fn total_rows(&self) -> usize {
        self.cold_rows() + self.docs.len()
    }

    /// Chunks of the sealed on-disk prefix.
    fn cold_chunks(&self) -> usize {
        self.cold.as_ref().map_or(0, ColdShard::n_chunks)
    }

    /// Rows per chunk, shared by the cold prefix and the resident tail (a
    /// lazy open attaches only segments sealed at this chunk size).
    fn chunk_rows(&self) -> usize {
        self.cols.chunk_rows()
    }

    /// Chunks holding the shard's first `rows` slots (cold chunks first,
    /// then the resident tail's): chunk `c` covers slots
    /// `[c * chunk_rows, (c + 1) * chunk_rows)`.
    fn chunks_below(&self, rows: usize) -> usize {
        rows.min(self.total_rows()).div_ceil(self.chunk_rows())
    }

    /// Chunk `c` of the shard, cold or resident, as every kernel reads
    /// it. Nothing is paged here: a cold chunk pages its column cells and
    /// its documents separately, on first use (see [`ShardChunk`]); a
    /// resident one borrows the shard's own vectors.
    fn chunk(&self, c: usize) -> ShardChunk<'_> {
        match &self.cold {
            Some(cold) if c < cold.n_chunks() => ShardChunk {
                base: c * cold.chunk_rows(),
                lc: 0,
                source: c,
                cold: Some(cold),
                cols: OnceCell::new(),
                docs: OnceCell::new(),
                shard: self,
            },
            _ => ShardChunk {
                base: self.cold_rows(),
                lc: c - self.cold_chunks(),
                source: self.cold_chunks(),
                cold: None,
                cols: OnceCell::new(),
                docs: OnceCell::new(),
                shard: self,
            },
        }
    }

    /// [`chunk`](Self::chunk) for a columnar scan of `preds`: `None` when
    /// the on-disk zone maps prove a cold chunk holds no decodable match,
    /// decided from the footer before any I/O. Resident chunks are pruned
    /// by [`ColumnarShard::filter_chunk`] itself.
    fn chunk_where(&self, c: usize, preds: &[ColPredicate<'_>]) -> Option<ShardChunk<'_>> {
        match &self.cold {
            Some(cold) if c < cold.n_chunks() && cold.chunk_prunable(preds, c) => None,
            _ => Some(self.chunk(c)),
        }
    }
}

/// One chunk of a shard's rows, cold or resident: row `r` of
/// [`docs`](Self::docs) and [`cols`](Self::cols) is shard slot
/// `base + r`, and the chunk is chunk `lc` of `cols`. A cold chunk pages
/// its cols page (a one-chunk [`ColumnarShard`] of its own) and its docs
/// page independently, each on first use, so a columnar kernel never
/// decodes a document; every resident chunk shares the shard's vectors
/// and dictionaries.
struct ShardChunk<'g> {
    base: usize,
    lc: usize,
    /// The cold prefix's chunk index the pages are keyed on (the shard's
    /// cold chunk count for the resident tail).
    source: usize,
    /// The shard's cold prefix, for a cold chunk.
    cold: Option<&'g ColdShard>,
    cols: OnceCell<Arc<ColumnarShard>>,
    docs: OnceCell<Arc<[Arc<Value>]>>,
    shard: &'g Shard,
}

impl ShardChunk<'_> {
    fn docs(&self) -> &[Arc<Value>] {
        match self.cold {
            Some(cold) => self.docs.get_or_init(|| cold.docs(self.source)),
            None => &self.shard.docs,
        }
    }

    fn cols(&self) -> &ColumnarShard {
        match self.cold {
            Some(cold) => self.cols.get_or_init(|| cold.cols(self.source)),
            None => &self.shard.cols,
        }
    }

    /// This chunk's rows of `docs`/`cols` whose shard slot lies below
    /// `bound`. Pages nothing: a cold chunk is always whole.
    fn rows_below(&self, bound: usize) -> std::ops::Range<usize> {
        let chunk = self.shard.chunk_rows();
        let start = self.lc * chunk;
        let rows = match self.cold {
            Some(_) => chunk,
            None => self.shard.docs.len(),
        };
        let end = (start + chunk)
            .min(rows)
            .min(bound.saturating_sub(self.base));
        start..end.max(start)
    }

    /// Surviving decodable rows of `preds` whose shard slot lies below
    /// `bound`, ascending, written into `sel`. The conjunction runs
    /// compiled against this chunk's dictionaries: `resident` (compiled
    /// once per shard) for a resident chunk, compiled here for a cold one.
    fn filter(
        &self,
        resident: &[ShardPred],
        preds: &[ColPredicate<'_>],
        bound: usize,
        sel: &mut Vec<u32>,
    ) {
        match self.cold {
            Some(_) => {
                let cols = self.cols();
                cols.filter_chunk(&cols.compile(preds), self.lc, sel)
            }
            None => self.shard.cols.filter_chunk(resident, self.lc, sel),
        }
        clip_to_bound(sel, self.base, bound);
    }
}

/// A cursor for id-ordered walks over one shard that may have a cold
/// prefix: keeps the current chunk between calls so a slot-major sweep
/// pages each chunk exactly once. Walks over ids keep one cursor per
/// shard ([`ShardCursor::per_shard`]): consecutive ids alternate shards,
/// so a single warm chunk would miss on every row.
struct ShardCursor<'g> {
    shard: &'g Shard,
    /// The pinned chunk and the shard slots it serves.
    cur: Option<(std::ops::Range<usize>, ShardChunk<'g>)>,
}

impl<'g> ShardCursor<'g> {
    /// One cursor per shard, indexed like `guards`.
    fn per_shard<G: std::ops::Deref<Target = Shard>>(guards: &'g [G]) -> Vec<Self> {
        guards
            .iter()
            .map(|g| Self {
                shard: g,
                cur: None,
            })
            .collect()
    }

    /// The chunk holding `slot` (shard-global) and the slot's row in it;
    /// `None` past the shard's last row. The chunk stays pinned until the
    /// cursor moves to another; the resident tail pins as one chunk, since
    /// its chunks share one set of vectors.
    fn at(&mut self, slot: usize) -> Option<(&ShardChunk<'g>, usize)> {
        if !self.cur.as_ref().is_some_and(|(r, _)| r.contains(&slot)) {
            let shard = self.shard;
            let (cold_rows, total) = (shard.cold_rows(), shard.total_rows());
            let (c, range) = if slot < cold_rows {
                let c = slot / shard.chunk_rows();
                (c, c * shard.chunk_rows()..(c + 1) * shard.chunk_rows())
            } else if slot < total {
                (shard.cold_chunks(), cold_rows..total)
            } else {
                return None;
            };
            self.cur = Some((range, shard.chunk(c)));
        }
        let (_, chunk) = self.cur.as_ref().expect("chunk just pinned");
        Some((chunk, slot - chunk.base))
    }

    /// Document at `slot` (shard-global), if the shard has one there.
    fn doc(&mut self, slot: usize) -> Option<&Arc<Value>> {
        self.at(slot).map(|(chunk, row)| &chunk.docs()[row])
    }
}

/// An in-memory JSON document collection, sharded for write concurrency.
pub struct DocumentStore {
    shards: Box<[RwLock<Shard>]>,
    /// Round-robin distribution counter (not an id source: ids derive from
    /// the slot a document actually lands in).
    router: AtomicUsize,
    indexes: RwLock<HashMap<String, FieldIndex>>,
    /// Columnar fields whose raw document values diverged from their
    /// decoded frame values (index hints disabled; see `crate::columnar`).
    col_irregular: AtomicU16,
    /// The column catalog shared by every shard, paged chunk and seal:
    /// names, kinds and poison flags by column id.
    registry: RwLock<Registry>,
    /// Rows per columnar chunk of every shard (`Config::chunk_rows`).
    chunk_rows: usize,
    /// Whether any shard carries a cold on-disk prefix (set once by
    /// [`DocumentStore::attach_cold`]). When set, the field indexes and
    /// the sorted-index top-k cursor — which only see resident rows — are
    /// bypassed in favor of full chunk-major scans that page cold chunks
    /// through the zone maps.
    cold_attached: AtomicBool,
    /// The chunk pager shared by all cold shards (for stats).
    pager: std::sync::OnceLock<Arc<PagerCore>>,
}

impl Default for DocumentStore {
    fn default() -> Self {
        Self::new()
    }
}

impl DocumentStore {
    /// Empty collection configured from the environment
    /// ([`Config::from_env`]): one shard per available core (capped at
    /// 16) unless `PROVDB_SHARDS` says otherwise.
    pub fn new() -> Self {
        Self::with_config(&Config::from_env())
    }

    /// [`new`](Self::new) with an explicit shard count (≥ 1). Query
    /// results are shard-count-invariant; the count only tunes write
    /// concurrency.
    pub fn with_shards(nshards: usize) -> Self {
        Self::with_config(&Config {
            shards: nshards,
            ..Config::from_env()
        })
    }

    /// Empty collection with `config`'s shard count and chunk size.
    pub(crate) fn with_config(config: &Config) -> Self {
        Self {
            shards: (0..config.shards.max(1))
                .map(|_| {
                    RwLock::new(Shard {
                        docs: Vec::new(),
                        cols: ColumnarShard::with_chunk(config.chunk_rows),
                        cold: None,
                    })
                })
                .collect(),
            router: AtomicUsize::new(0),
            indexes: RwLock::new(HashMap::new()),
            col_irregular: AtomicU16::new(0),
            registry: RwLock::new(Registry::default()),
            chunk_rows: config.chunk_rows.max(1),
            cold_attached: AtomicBool::new(false),
            pager: std::sync::OnceLock::new(),
        }
    }

    /// Whether any shard carries a cold on-disk prefix.
    fn has_cold(&self) -> bool {
        self.cold_attached.load(Ordering::Acquire)
    }

    /// Attach the sealed on-disk prefixes of a lazily opened store —
    /// one [`ColdShard`] per shard, all sharing `core`. Must run before
    /// any resident row is inserted (the lazy open path attaches first,
    /// then materializes the WAL tail), so every resident slot sits
    /// above the cold prefix.
    pub(crate) fn attach_cold(&self, core: Arc<PagerCore>, mut cold: Vec<ColdShard>) {
        assert_eq!(cold.len(), self.shards.len(), "one cold prefix per shard");
        {
            let mut reg = self.registry.write();
            for c in &mut cold {
                c.bind(&mut reg);
            }
            for c in &cold {
                c.poison_unlisted(&mut reg);
            }
        }
        for (lock, shard_cold) in self.shards.iter().zip(cold) {
            let mut guard = lock.write();
            assert!(guard.docs.is_empty(), "cold prefix attaches before ingest");
            guard.cold = Some(shard_cold);
        }
        let _ = self.pager.set(core);
        self.cold_attached.store(true, Ordering::Release);
    }

    /// Pager counters (all zeros when no cold prefix is attached).
    pub fn pager_stats(&self) -> PagerStats {
        self.pager.get().map(|p| p.stats()).unwrap_or_default()
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of documents.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().total_rows()).sum()
    }

    /// True when no documents are stored.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.read().total_rows() == 0)
    }

    /// Insert one document; returns its id.
    pub fn insert(&self, doc: impl Into<Arc<Value>>) -> DocId {
        self.insert_many_shared(vec![doc.into()])
            .expect("one doc inserted")
    }

    /// Bulk insert of owned documents; returns how many were stored.
    pub fn insert_many(&self, batch: Vec<Value>) -> usize {
        let n = batch.len();
        self.insert_many_shared(batch.into_iter().map(Arc::new).collect());
        n
    }

    /// The true batch path: distribute a batch round-robin over the shards,
    /// taking each shard's write lock **once**, then update every index
    /// under a single index-lock acquisition. Returns the id of the first
    /// inserted document (`None` for an empty batch).
    ///
    /// Lock order is indexes → shards, matching the readers, so an indexed
    /// probe never observes a document that is missing its index entries.
    pub fn insert_many_shared(&self, batch: Vec<Arc<Value>>) -> Option<DocId> {
        if batch.is_empty() {
            return None;
        }
        let nshards = self.shards.len();
        let base = self.router.fetch_add(batch.len(), Ordering::Relaxed);

        // Partition round-robin, preserving batch order within each shard.
        // Columnar extraction is pure, so it runs here, before any lock is
        // taken — the global index lock below must not serialize ingest on
        // per-document decode work.
        type Prepared = (Arc<Value>, columnar::ExtractedRow);
        let mut per_shard: Vec<Vec<Prepared>> = (0..nshards).map(|_| Vec::new()).collect();
        for (i, doc) in batch.into_iter().enumerate() {
            let row = columnar::extract(&doc);
            per_shard[(base + i) % nshards].push((doc, row));
        }
        // One catalog pass per batch names every dataflow cell's column
        // (and applies poison) before any shard lock is taken.
        {
            let mut reg = self.registry.write();
            for (_, row) in per_shard.iter_mut().flatten() {
                reg.resolve(row);
            }
        }

        let mut indexes = self.indexes.write();
        let mut first: Option<DocId> = None;
        for (s, docs) in per_shard.into_iter().enumerate() {
            if docs.is_empty() {
                continue;
            }
            let mut shard = self.shards[s].write();
            for (doc, row) in docs {
                let id = (shard.cold_rows() + shard.docs.len()) * nshards + s;
                first = Some(first.map_or(id, |f| f.min(id)));
                for (path, index) in indexes.iter_mut() {
                    if let Some(v) = doc.get_path(path) {
                        index_insert(index, id, v);
                    }
                }
                self.apply_irregular(shard.cols.push_row(row).irregular);
                shard.docs.push(doc);
            }
        }
        first
    }

    pub(crate) fn apply_irregular(&self, irregular: u16) {
        if irregular != 0 {
            self.col_irregular.fetch_or(irregular, Ordering::Release);
        }
    }

    /// Create a hash index over a dotted field path (idempotent).
    pub fn create_index(&self, path: &str) {
        let mut indexes = self.indexes.write();
        if indexes.contains_key(path) {
            return;
        }
        let mut index = FieldIndex::default();
        self.for_each_doc(&self.shard_rows(), |id, doc| {
            if let Some(v) = doc.get_path(path) {
                index_insert(&mut index, id, v);
            }
        });
        indexes.insert(path.to_string(), index);
    }

    /// Add a sorted numeric index over a dotted field path so range
    /// predicates (`Gt`/`Gte`/`Lt`/`Lte`) become index probes instead of
    /// full scans. Implies the hash index; idempotent.
    pub fn create_range_index(&self, path: &str) {
        let mut indexes = self.indexes.write();
        let index = indexes.entry(path.to_string()).or_default();
        if index.range.is_some() {
            return;
        }
        // Rebuild from scratch: existing docs need range entries even if the
        // hash side of the index already covered them.
        let mut rebuilt = FieldIndex {
            range: Some(RangeLog::default()),
            ..FieldIndex::default()
        };
        self.for_each_doc(&self.shard_rows(), |id, doc| {
            if let Some(v) = doc.get_path(path) {
                index_insert(&mut rebuilt, id, v);
            }
        });
        indexes.insert(path.to_string(), rebuilt);
    }

    /// Visit every document below the per-shard `bound` as `(id, &doc)`
    /// in shard order, paging cold chunks in sequentially. Index builds
    /// call it under the index write lock, honoring lock order; they are
    /// possible on a lazily opened store, but the indexes are never
    /// consulted there (see [`candidates`](Self::candidates)).
    pub(crate) fn for_each_doc(&self, bound: &[usize], mut f: impl FnMut(DocId, &Arc<Value>)) {
        let nshards = self.shards.len();
        debug_assert_eq!(bound.len(), nshards);
        for (s, shard) in self.shards.iter().enumerate() {
            let shard = shard.read();
            for c in 0..shard.chunks_below(bound[s]) {
                let chunk = shard.chunk(c);
                let rows = chunk.rows_below(bound[s]);
                if rows.is_empty() {
                    continue;
                }
                for (r, doc) in chunk.docs()[rows.clone()].iter().enumerate() {
                    f((chunk.base + rows.start + r) * nshards + s, doc);
                }
            }
        }
    }

    /// Visit every document below the per-shard `bound` in id order
    /// (slot-major, shard-minor — ids are `slot * nshards + shard`). Shard
    /// cursors keep one paged chunk per shard resident, so a cold prefix
    /// streams through with bounded memory. Used by the unindexed
    /// [`aggregate`](Self::aggregate) and by the deferred graph
    /// hydration of a lazily opened store, which must replay arrival
    /// order exactly (ids equal arrival indexes).
    pub(crate) fn for_each_doc_in_id_order(&self, bound: &[usize], mut f: impl FnMut(&Arc<Value>)) {
        let guards: Vec<_> = self.shards.iter().map(|s| s.read()).collect();
        let mut cursors = ShardCursor::per_shard(&guards);
        for slot in 0..bound.iter().copied().max().unwrap_or(0) {
            for (cursor, &rows) in cursors.iter_mut().zip(bound) {
                if slot < rows {
                    f(cursor.doc(slot).expect("bounded slot resolves"));
                }
            }
        }
    }

    /// Fetch a document by id as a shared handle (no clone of the payload).
    pub fn get(&self, id: DocId) -> Option<Arc<Value>> {
        let nshards = self.shards.len();
        let shard = self.shards[id % nshards].read();
        ShardCursor {
            shard: &shard,
            cur: None,
        }
        .doc(id / nshards)
        .cloned()
    }

    /// Run a query: filter → sort → limit → project. Results are shared
    /// handles; only projections materialize new documents.
    pub fn find(&self, query: &DocQuery) -> Vec<Arc<Value>> {
        self.find_bounded(query, &self.shard_rows())
    }

    /// Count matching documents without materializing them.
    pub fn count(&self, query: &DocQuery) -> usize {
        self.count_bounded(query, &self.shard_rows())
    }

    /// Per-shard row counts, read under the shard locks — the row
    /// high-water mark a [`StoreSnapshot`](crate::StoreSnapshot) pins.
    /// Shards are append-only, so ids `slot * nshards + s` with
    /// `slot < rows[s]` name exactly the documents that existed when the
    /// counts were taken.
    pub fn shard_rows(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.read().total_rows()).collect()
    }

    /// Export one shard's rows `[start, end)` for segment sealing: the
    /// document handles, the serialized chunk zone maps covering exactly
    /// those rows, and their column blocks, encoded from the resident
    /// code and float vectors (see [`crate::segment`]). One read-lock
    /// acquisition; rows below `end` are immutable (append-only shards)
    /// and `end` sits on a chunk boundary, so everything copied here is
    /// frozen. `None` when the range is not chunk-aligned or not
    /// resident.
    pub(crate) fn seal_export(
        &self,
        shard: usize,
        start: usize,
        end: usize,
    ) -> Option<(
        Vec<Arc<Value>>,
        crate::segment::ZoneTables,
        crate::segment::ChunkRuns,
    )> {
        let guard = self.shards[shard].read();
        // `start`/`end` are shard-global rows; the sealer only exports
        // resident rows (the seal watermark never regresses below the
        // cold prefix), so translate into the resident tail.
        let cold_rows = guard.cold_rows();
        if start < cold_rows {
            return None;
        }
        let (lo, hi) = (start - cold_rows, end - cold_rows);
        if guard.docs.len() < hi {
            return None;
        }
        // The footer's column table carries the store-wide poison flags
        // and the irregular mask is stamped in, so a lazy open recovers
        // both without re-extracting the sealed rows.
        let (mut zones, cols) = crate::segment::export(&guard.cols, lo, hi, &self.registry.read())?;
        zones.irregular = self.col_irregular.load(Ordering::Acquire);
        Some((guard.docs[lo..hi].to_vec(), zones, cols))
    }

    /// [`find`](DocumentStore::find) restricted to the documents below a
    /// per-shard row bound (as captured by [`shard_rows`]). Rows appended
    /// after the bound was taken are invisible; everything else —
    /// filter semantics, stable sort, limit, projection — is identical.
    ///
    /// [`shard_rows`]: DocumentStore::shard_rows
    pub(crate) fn find_bounded(&self, query: &DocQuery, bound: &[usize]) -> Vec<Arc<Value>> {
        let mut hits = self.matching(self.candidates(&query.conditions), query, bound);
        if let Some((path, ascending)) = &query.sort {
            // The frame's total order (NaN ranks with nulls, last in both
            // directions); a stable sort over id-ordered hits keeps ties
            // in id order.
            hits.sort_by(|(_, a), (_, b)| {
                let va = a.get_path(path).unwrap_or(&Value::Null);
                let vb = b.get_path(path).unwrap_or(&Value::Null);
                dataframe::sort_cell_cmp(va, vb, *ascending)
            });
        }
        if let Some(n) = query.limit {
            hits.truncate(n);
        }
        hits.into_iter()
            .map(|(_, doc)| project(doc, &query.projection))
            .collect()
    }

    /// [`count`](DocumentStore::count) restricted to the documents below a
    /// per-shard row bound.
    pub(crate) fn count_bounded(&self, query: &DocQuery, bound: &[usize]) -> usize {
        let mut n = 0;
        self.for_each_match(self.candidates(&query.conditions), query, bound, |_, _| {
            n += 1
        });
        n
    }

    /// Matching `(id, doc)` pairs below `bound`, in id (= insertion)
    /// order; `candidates` as for [`for_each_match`](Self::for_each_match).
    fn matching(
        &self,
        candidates: Option<Vec<DocId>>,
        query: &DocQuery,
        bound: &[usize],
    ) -> Vec<(DocId, Arc<Value>)> {
        let mut hits: Vec<(DocId, Arc<Value>)> = Vec::new();
        self.for_each_match(candidates, query, bound, |id, doc| {
            hits.push((id, Arc::clone(doc)))
        });
        hits.sort_unstable_by_key(|(id, _)| *id);
        hits
    }

    /// Visit every document below the per-shard `bound` that matches the
    /// query's conditions, in no particular order, verifying the index
    /// `candidates` the caller probed (`None`: full scan). Candidates at
    /// or above the bound are dropped before they are verified; a full
    /// scan stops at the bound.
    fn for_each_match(
        &self,
        candidates: Option<Vec<DocId>>,
        query: &DocQuery,
        bound: &[usize],
        mut f: impl FnMut(DocId, &Arc<Value>),
    ) {
        let nshards = self.shards.len();
        debug_assert_eq!(bound.len(), nshards);
        match candidates {
            Some(mut ids) => {
                // Group by shard so each shard lock is taken at most once.
                ids.retain(|&id| visible(id, bound));
                ids.sort_unstable_by_key(|&id| (id % nshards, id));
                ids.dedup();
                let mut i = 0;
                while i < ids.len() {
                    let s = ids[i] % nshards;
                    let shard = self.shards[s].read();
                    while i < ids.len() && ids[i] % nshards == s {
                        if let Some(doc) = shard.docs.get(ids[i] / nshards) {
                            if query.matches(doc) {
                                f(ids[i], doc);
                            }
                        }
                        i += 1;
                    }
                }
            }
            None => self.for_each_doc(bound, |id, doc| {
                if query.matches(doc) {
                    f(id, doc);
                }
            }),
        }
    }

    /// Index-driven candidate ids, or `None` when no condition is indexed.
    ///
    /// Every indexed `Eq` condition contributes a set (hash probe, zero
    /// allocation), and every range condition with a sorted index
    /// contributes one; the smallest set seeds the scan and the rest are
    /// intersected — the old engine took the *first* index hit only.
    fn candidates(&self, conditions: &[Condition]) -> Option<Vec<DocId>> {
        // Cold rows never enter the field indexes, so an index probe on a
        // lazily opened store would silently drop the sealed prefix; fall
        // back to the full scan, which prunes cold chunks through the
        // on-disk zone maps instead.
        if self.has_cold() {
            return None;
        }
        // Range probes read the sorted run, so any pending appends must be
        // merged first — that needs the write lock, taken only when a write
        // burst actually left unmerged entries (LSM-style amortization).
        let is_range = |op: Op| matches!(op, Op::Gt | Op::Gte | Op::Lt | Op::Lte);
        let indexes = self.indexes.read();
        let needs_merge = conditions.iter().any(|c| {
            is_range(c.op)
                && indexes
                    .get(&c.path)
                    .and_then(|i| i.range.as_ref())
                    .is_some_and(|r| !r.pending.is_empty())
        });
        let indexes = if needs_merge {
            drop(indexes);
            let mut w = self.indexes.write();
            for c in conditions {
                if is_range(c.op) {
                    if let Some(range) = w.get_mut(&c.path).and_then(|i| i.range.as_mut()) {
                        range.merge();
                    }
                }
            }
            drop(w);
            self.indexes.read()
        } else {
            indexes
        };

        let mut sets: Vec<Vec<DocId>> = Vec::new();
        for c in conditions {
            let Some(index) = indexes.get(&c.path) else {
                continue;
            };
            match c.op {
                Op::Eq => {
                    sets.push(
                        index
                            .eq
                            .get(&c.value.stable_hash())
                            .map(IdList::to_vec)
                            .unwrap_or_default(),
                    );
                }
                Op::Gt | Op::Gte | Op::Lt | Op::Lte => {
                    let (Some(range), Some(bound)) = (&index.range, c.value.as_f64()) else {
                        continue;
                    };
                    // A NaN bound compares Equal to every number under
                    // `Value::compare`; the sorted run cannot express that,
                    // so leave this condition to the scan filter.
                    if bound.is_nan() {
                        continue;
                    }
                    let mut ids: Vec<DocId> = Vec::new();
                    range.probe(c.op, range_key(bound), &mut ids);
                    // Non-numeric values compare by kind tag and may still
                    // satisfy the operator; keep them as candidates.
                    ids.extend_from_slice(&index.non_numeric);
                    sets.push(ids);
                }
                _ => {}
            }
        }
        if sets.is_empty() {
            return None;
        }
        // Smallest set first, then intersect the rest into it.
        sets.sort_by_key(Vec::len);
        let mut iter = sets.into_iter();
        let mut smallest = iter.next().expect("non-empty");
        for other in iter {
            let other: HashSet<DocId> = other.into_iter().collect();
            smallest.retain(|id| other.contains(id));
            if smallest.is_empty() {
                break;
            }
        }
        Some(smallest)
    }

    /// Group matching documents by a key path and aggregate value paths.
    ///
    /// Hash-grouped over the shard read guards: no full-document clones and
    /// no O(n·groups) linear bucket search — only the group keys and the
    /// aggregated leaf values are copied out. Groups keep first-seen order.
    pub fn aggregate(&self, query: &DocQuery, group: &GroupSpec) -> Vec<Value> {
        use crate::query::AggOp;

        // Streaming accumulator per (bucket, aggregate): replicates
        // `Aggregate::apply` over the same values in the same order
        // without buffering a clone of every aggregated cell (the old
        // shape pushed ~rows × aggs `Value` clones before reducing).
        enum Acc {
            Count(i64),
            Sum(f64),
            Mean { sum: f64, n: u64 },
            Best { best: Option<Value>, min: bool },
        }
        impl Acc {
            fn new(op: AggOp) -> Self {
                match op {
                    AggOp::Count => Acc::Count(0),
                    AggOp::Sum => Acc::Sum(0.0),
                    AggOp::Mean => Acc::Mean { sum: 0.0, n: 0 },
                    AggOp::Min => Acc::Best {
                        best: None,
                        min: true,
                    },
                    AggOp::Max => Acc::Best {
                        best: None,
                        min: false,
                    },
                }
            }
            fn feed(&mut self, v: &Value) {
                match self {
                    Acc::Count(n) => *n += 1,
                    Acc::Sum(s) => {
                        if let Some(x) = v.as_f64() {
                            *s += x;
                        }
                    }
                    Acc::Mean { sum, n } => {
                        if let Some(x) = v.as_f64() {
                            *sum += x;
                            *n += 1;
                        }
                    }
                    Acc::Best { best, min } => {
                        if v.is_null() {
                            return;
                        }
                        let take = match best {
                            None => true,
                            Some(b) => {
                                let ord = v.compare(b);
                                if *min {
                                    ord == std::cmp::Ordering::Less
                                } else {
                                    ord == std::cmp::Ordering::Greater
                                }
                            }
                        };
                        if take {
                            *best = Some(v.clone());
                        }
                    }
                }
            }
            fn finish(self) -> Value {
                match self {
                    Acc::Count(n) => Value::Int(n),
                    Acc::Sum(s) => Value::Float(s),
                    Acc::Mean { sum, n } => {
                        if n == 0 {
                            Value::Null
                        } else {
                            Value::Float(sum / n as f64)
                        }
                    }
                    Acc::Best { best, .. } => best.unwrap_or(Value::Null),
                }
            }
        }

        struct Bucket {
            key: Value,
            accs: Vec<Acc>,
        }

        // Aggregates often repeat a path (mean + count of the same field);
        // look each distinct path up once per document.
        let mut distinct: Vec<&str> = Vec::new();
        let path_idx: Vec<usize> = group
            .aggs
            .iter()
            .map(|a| match distinct.iter().position(|p| *p == a.path) {
                Some(i) => i,
                None => {
                    distinct.push(&a.path);
                    distinct.len() - 1
                }
            })
            .collect();
        let feed = |buckets: &mut Vec<Bucket>, idx: usize, doc: &Value| {
            for (d, path) in distinct.iter().enumerate() {
                if let Some(v) = doc.get_path(path) {
                    for (a, _) in group.aggs.iter().enumerate() {
                        if path_idx[a] == d {
                            buckets[idx].accs[a].feed(v);
                        }
                    }
                }
            }
        };
        let new_bucket = |buckets: &mut Vec<Bucket>, key: Value| -> usize {
            buckets.push(Bucket {
                key,
                accs: group.aggs.iter().map(|a| Acc::new(a.op)).collect(),
            });
            buckets.len() - 1
        };

        // Unfiltered group-by over a clean dictionary-encoded column:
        // resolve each row's group through the code tables
        // ([`columnar_group_codes`](Self::columnar_group_codes)) instead of
        // hashing a key `Value` per document. Exact only when every frame
        // cell of the key equals the raw document value: the column is
        // neither poisoned nor irregular, and every row provides it —
        // decodable rows provide every string field, so full presence
        // means every row decodes.
        let rows = self.shard_rows();
        let coded = match self.columnar_field(&group.key) {
            Some(f)
                if f.idx() < columnar::STR_FIELDS.len()
                    && query.conditions.is_empty()
                    && self.col_irregular.load(Ordering::Acquire) & columnar::field_bit(f) == 0
                    && self.columnar_presence(&group.key, &rows) == Some(rows.iter().sum()) =>
            {
                self.columnar_group_codes(&ids_below(&rows), &group.key)
            }
            _ => None,
        };
        let mut buckets: Vec<Bucket> = Vec::new();
        if let Some((keys, groups)) = coded {
            for key in keys {
                new_bucket(&mut buckets, key);
            }
            let mut groups = groups.into_iter();
            self.for_each_doc_in_id_order(&rows, |doc| {
                let idx = groups.next().expect("one group per row");
                feed(&mut buckets, idx as usize, doc);
            });
        } else {
            let mut by_hash: HashMap<u64, Vec<usize>> = HashMap::new();
            let mut visit = |doc: &Value| {
                let key = doc.get_path(&group.key).unwrap_or(&Value::Null);
                let h = key.stable_hash();
                let slot = by_hash.entry(h).or_default();
                let idx = match slot.iter().find(|&&i| buckets[i].key == *key) {
                    Some(&i) => i,
                    None => {
                        let i = new_bucket(&mut buckets, key.clone());
                        slot.push(i);
                        i
                    }
                };
                feed(&mut buckets, idx, doc);
            };

            let stripped = DocQuery {
                conditions: query.conditions.clone(),
                projection: Vec::new(),
                sort: None,
                limit: None,
            };
            if let Some(ids) = self.candidates(&stripped.conditions) {
                // Index-assisted: reuse the candidate machinery (selective,
                // so the materialized hit list is small).
                for (_, doc) in self.matching(Some(ids), &stripped, &rows) {
                    visit(&doc);
                }
            } else {
                // Full scan: feed documents straight from the shards in id
                // order without materializing an `Arc`-cloned hit list.
                self.for_each_doc_in_id_order(&rows, |doc| {
                    if stripped.matches(doc) {
                        visit(doc);
                    }
                });
            }
        }

        buckets
            .into_iter()
            .map(|b| {
                let mut out = Map::new();
                out.insert("_id".into(), b.key);
                for (agg, acc) in group.aggs.iter().zip(b.accs) {
                    out.insert(prov_model::Sym::from(agg.output_name()), acc.finish());
                }
                Value::object(out)
            })
            .collect()
    }

    /// Distinct values of a path among matching documents, in first-seen
    /// order. Hash-set deduplication (the old engine was O(n²)
    /// `Vec::contains`).
    pub fn distinct(&self, query: &DocQuery, path: &str) -> Vec<Value> {
        let mut out: Vec<Value> = Vec::new();
        let mut by_hash: HashMap<u64, Vec<usize>> = HashMap::new();
        let stripped = DocQuery {
            conditions: query.conditions.clone(),
            projection: Vec::new(),
            sort: None,
            limit: None,
        };
        let candidates = self.candidates(&stripped.conditions);
        for (_, doc) in self.matching(candidates, &stripped, &self.shard_rows()) {
            if let Some(v) = doc.get_path(path) {
                let slot = by_hash.entry(v.stable_hash()).or_default();
                if !slot.iter().any(|&i| out[i] == *v) {
                    out.push(v.clone());
                    slot.push(out.len() - 1);
                }
            }
        }
        out
    }

    // ------------------------------------------------------------------
    // Columnar sidecar (see `crate::columnar` for the design and the
    // exactness contract).
    // ------------------------------------------------------------------

    /// The columnar chunk size in rows (`Config::chunk_rows`) — what
    /// zone maps, kernel batches and sealed chunks are sized by.
    pub fn chunk_rows(&self) -> usize {
        self.chunk_rows
    }

    /// Whether a frame column can currently be served from the sidecar:
    /// it is a fixed or discovered value column (not the presence-only
    /// lineage column) that nothing has poisoned.
    pub fn columnar_servable(&self, column: &str) -> bool {
        self.columnar_field(column).is_some()
    }

    /// Whether the sidecar knows which rows hold `column` — every
    /// servable column, plus the lineage presence column — so its
    /// `notna()`/`isna()` tests run over the vectors.
    pub fn columnar_presence_known(&self, column: &str) -> bool {
        self.presence_field(column).is_some()
    }

    /// The unpoisoned column `column`, presence-only (`depends_on`)
    /// included when `presence` says so.
    fn registry_field(&self, column: &str, presence: bool) -> Option<ColField> {
        let reg = self.registry.read();
        let f = reg.get(column)?;
        let usable = !reg.is_poisoned(f) && (presence || reg.kind(f) != Kind::Flag);
        usable.then_some(f)
    }

    fn presence_field(&self, column: &str) -> Option<ColField> {
        self.registry_field(column, true)
    }

    fn columnar_field(&self, column: &str) -> Option<ColField> {
        self.registry_field(column, false)
    }

    /// Presence of a servable column among the rows below a per-shard
    /// bound: how many decodable documents provide it (`None` when the
    /// column is not servable). Answers frame column *existence* from
    /// zone-map prefix sums plus one boundary-chunk scan per shard,
    /// without touching a document or walking a whole column.
    pub fn columnar_presence(&self, column: &str, bound: &[usize]) -> Option<usize> {
        let f = self.columnar_field(column)?;
        Some(self.present_below(f, bound))
    }

    /// Present cells of column `f` among the rows below a per-shard bound.
    fn present_below(&self, f: ColField, bound: &[usize]) -> usize {
        debug_assert_eq!(bound.len(), self.shards.len());
        self.shards
            .iter()
            .zip(bound)
            .map(|(s, &n)| {
                let g = s.read();
                let cold_rows = g.cold_rows();
                // Cold presence comes from the footer zone maps summed at
                // attach time — no I/O here unless the bound cuts a cold
                // chunk.
                match &g.cold {
                    Some(cold) if n <= cold_rows => cold.present_prefix(f, n),
                    Some(cold) => cold.present(f) + g.cols.present_prefix(f, n - cold_rows),
                    None => g.cols.present_prefix(f, n),
                }
            })
            .sum()
    }

    /// The column set of `DataFrame::from_messages` over the decodable
    /// documents below a per-shard bound, sorted: the ten columns every
    /// decodable document's row holds (`task_id` … `type`, `duration`
    /// included) when there is one, `depends_on` and each telemetry
    /// section's columns where the fixed column implying them is present,
    /// and the names of the row-key catalog with a set bit below the
    /// bound. Answered from zone-map prefix sums and, in the one boundary
    /// chunk per shard, presence bits: a lazily opened store reads no
    /// document, and no page at a bound past its sealed prefix. `None`
    /// when the catalog has overflowed: past 256 names (`MAX_ROW_KEYS` in
    /// the columnar module).
    pub fn frame_columns(&self, bound: &[usize]) -> Option<Vec<Sym>> {
        let keys: Vec<(Sym, ColField)> = {
            let reg = self.registry.read();
            if reg.keys_overflowed() {
                return None;
            }
            reg.row_keys().map(|(k, f)| (k.clone(), f)).collect()
        };
        let present = |f: ColField| self.present_below(f, bound) > 0;
        let field = |name: &str| columnar::lookup(name).expect("a fixed column");
        // `task_id` is present exactly on the decodable rows.
        let mut names: Vec<Sym> = Vec::new();
        if present(field("task_id")) {
            names.extend(columnar::row_fields().map(Sym::from));
        }
        for (source, section) in columnar::IMPLIED_KEYS {
            if present(field(source)) {
                match section {
                    Some(end) => names.extend_from_slice(dataframe::telemetry_columns(end)),
                    None => names.push(Sym::from(source)),
                }
            }
        }
        names.extend(
            keys.into_iter()
                .filter(|&(_, f)| present(f))
                .map(|(k, _)| k),
        );
        // A dataflow leaf may take a telemetry column's name.
        names.sort_unstable();
        names.dedup();
        Some(names)
    }

    /// Evaluate a conjunction of pushed predicates (comparisons and
    /// in-lists) over the column vectors and return the surviving
    /// decodable document ids in id (= insertion) order, truncated to
    /// `limit`. Only rows below the per-shard `bound` (a snapshot's row
    /// high-water mark, or [`shard_rows`] for the whole store) are
    /// visible: ids at or above it are dropped before verification and
    /// never count toward the limit, so a pushed limit stops the scan as
    /// soon as enough visible survivors are found.
    ///
    /// Semantics are the *frame* rules ([`dataframe::cmp_matches`], and
    /// [`dataframe::values_equal`] any-match for in-lists) on the decoded
    /// cell values, so survivors match exactly the rows a full-frame
    /// filter would keep. Index probes are used as candidate pre-filters
    /// when safe (equality/range comparisons on regular pass-through
    /// fields; in-lists never hint — the index layer intersects condition
    /// sets and a membership test is a union), and every candidate is
    /// still verified against the vectors. Full scans compile the
    /// conjunction once per shard against its dictionaries
    /// (the columnar sidecar) and evaluate chunk by chunk, skipping chunks
    /// whose zone maps prove no match. Returns `None` when any filter
    /// column is not servable.
    ///
    /// [`shard_rows`]: DocumentStore::shard_rows
    pub fn columnar_scan_where(
        &self,
        preds: &[ScanPredicate<'_>],
        limit: Option<usize>,
        bound: &[usize],
    ) -> Option<Vec<DocId>> {
        let fields = self.resolve_preds(preds)?;
        // The push-then-check loops below assume a limit of at least one.
        if limit == Some(0) {
            return Some(Vec::new());
        }

        // Candidate generation may take the index write lock (range-log
        // merge); do it before the shard guards to respect lock order.
        let cand = self.candidates(&self.columnar_hints(&fields));

        let nshards = self.shards.len();
        debug_assert_eq!(bound.len(), nshards);
        let guards: Vec<_> = self.shards.iter().map(|s| s.read()).collect();
        let mut out: Vec<DocId> = Vec::new();
        let full = |out: &Vec<DocId>| limit.is_some_and(|n| out.len() >= n);
        match cand {
            Some(mut ids) => {
                // Index-seeded candidate sets are small and scattered;
                // verify per row rather than through the chunk kernels.
                ids.retain(|&id| visible(id, bound));
                ids.sort_unstable();
                ids.dedup();
                for id in ids {
                    let shard = &guards[id % nshards];
                    let slot = id / nshards;
                    if shard.cols.is_decodable(slot)
                        && fields.iter().all(|p| shard.cols.matches_pred(slot, p))
                    {
                        out.push(id);
                        if full(&out) {
                            break;
                        }
                    }
                }
            }
            None => {
                // Compile the conjunction once per shard (dictionaries are
                // shard-local), then scan chunk-major over the shards:
                // chunk `c` covers the same slot range in every shard
                // (cold prefixes are uniform across shards by
                // construction), so sorting each chunk's combined
                // survivors yields globally ascending ids and a pushed
                // limit can stop after any chunk. Cold chunks consult the
                // on-disk zone maps first and are only paged in when they
                // might match; chunks starting at or above the bound are
                // never touched.
                let compiled: Vec<Vec<ShardPred>> =
                    guards.iter().map(|g| g.cols.compile(&fields)).collect();
                let max_chunks = guards
                    .iter()
                    .zip(bound)
                    .map(|(g, &b)| g.chunks_below(b))
                    .max()
                    .unwrap_or(0);
                let mut sel: Vec<u32> = Vec::new();
                let mut chunk_ids: Vec<DocId> = Vec::new();
                for c in 0..max_chunks {
                    chunk_ids.clear();
                    for (s, g) in guards.iter().enumerate() {
                        if c >= g.chunks_below(bound[s]) {
                            continue;
                        }
                        let Some(ch) = g.chunk_where(c, &fields) else {
                            continue;
                        };
                        ch.filter(&compiled[s], &fields, bound[s], &mut sel);
                        chunk_ids.extend(sel.iter().map(|&r| (ch.base + r as usize) * nshards + s));
                    }
                    chunk_ids.sort_unstable();
                    out.extend_from_slice(&chunk_ids);
                    if full(&out) {
                        out.truncate(limit.expect("full implies a limit"));
                        break;
                    }
                }
            }
        }
        Some(out)
    }

    /// Resolve pushed predicates to columnar fields; `None` when any
    /// referenced column is not servable.
    fn resolve_preds<'a>(
        &self,
        preds: &[ScanPredicate<'a>],
    ) -> Option<Vec<columnar::ColPredicate<'a>>> {
        preds
            .iter()
            .map(|p| match p {
                ScanPredicate::Cmp(col, op, lit) => Some(columnar::ColPredicate::Cmp(
                    self.columnar_field(col)?,
                    *op,
                    lit,
                )),
                ScanPredicate::In(col, list) => {
                    Some(columnar::ColPredicate::In(self.columnar_field(col)?, list))
                }
                ScanPredicate::Present(col, want) => Some(columnar::ColPredicate::Present(
                    self.presence_field(col)?,
                    *want,
                )),
            })
            .collect()
    }

    /// Index hints for a set of columnar conjuncts: comparisons whose raw
    /// document values agree with their decoded frame values can seed a
    /// scan from the hash / sorted indexes (the index layer skips
    /// non-indexed paths and intersects the rest smallest-first). `!=`
    /// and in-lists can never hint.
    fn columnar_hints(&self, fields: &[columnar::ColPredicate<'_>]) -> Vec<Condition> {
        let irregular = self.col_irregular.load(Ordering::Acquire);
        fields
            .iter()
            .filter_map(|p| {
                let columnar::ColPredicate::Cmp(f, op, lit) = p else {
                    return None;
                };
                if !columnar::hint_safe(*f, irregular) {
                    return None;
                }
                let op = match op {
                    CmpOp::Eq => Op::Eq,
                    CmpOp::Lt => Op::Lt,
                    CmpOp::Le => Op::Lte,
                    CmpOp::Gt => Op::Gt,
                    CmpOp::Ge => Op::Gte,
                    CmpOp::Ne => return None,
                };
                Some(Condition {
                    path: columnar::fixed_column(f.idx()).0.to_string(),
                    op,
                    value: (*lit).clone(),
                })
            })
            .collect()
    }

    /// Top-k scan: evaluate the filter conjunction over the column vectors
    /// (exactly like [`columnar_scan_where`], under the same per-shard
    /// visibility `bound`) and return the surviving document ids ordered
    /// by the *frame's* sort rule for `sort` — nulls and NaN last,
    /// [`dataframe::sort_cell_cmp`] per key, ties by id (= insertion)
    /// order, which is what a stable frame sort of id-ordered rows
    /// produces — truncated to `limit`.
    ///
    /// Served two ways: a sorted-index cursor when the single sort key has
    /// a sorted numeric index whose raw values provably equal the decoded
    /// cells (ids stream out in key order and the scan stops after `k`
    /// accepted survivors), or one bounded selection buffer fed by the
    /// chunk kernels over every shard's vectors.
    ///
    /// [`columnar_scan_where`]: DocumentStore::columnar_scan_where
    pub fn columnar_topk_where(
        &self,
        preds: &[ScanPredicate<'_>],
        sort: &[(&str, bool)],
        limit: Option<usize>,
        bound: &[usize],
    ) -> TopkScan {
        if sort.is_empty() {
            return match self.columnar_scan_where(preds, limit, bound) {
                Some(ids) => TopkScan::Served(ids),
                None => TopkScan::NotServable,
            };
        }
        let fields = self.resolve_preds(preds);
        let keys: Option<Vec<(ColField, bool)>> = sort
            .iter()
            .map(|(col, asc)| Some((self.columnar_field(col)?, *asc)))
            .collect();
        let (Some(fields), Some(keys)) = (fields, keys) else {
            return TopkScan::NotServable;
        };
        if limit == Some(0) {
            return TopkScan::Served(Vec::new());
        }
        let nshards = self.shards.len();
        debug_assert_eq!(bound.len(), nshards);

        // Sorted-index cursor: stream ids in key order, stop at k.
        if let (Some(k), [key]) = (limit, keys.as_slice()) {
            if let Some(ids) = self.topk_sorted_cursor(&fields, *key, k, bound) {
                return TopkScan::Served(ids);
            }
        }

        let cand = self.candidates(&self.columnar_hints(&fields));
        let guards: Vec<_> = self.shards.iter().map(|s| s.read()).collect();
        let gather = |cols: &ColumnarShard, row: usize| -> Vec<Value> {
            keys.iter().map(|(f, _)| cols.value(row, *f)).collect()
        };

        let selected = match cand {
            Some(mut ids) => {
                // Index-seeded candidate sets are small by construction;
                // select sequentially, verifying per row.
                ids.retain(|&id| visible(id, bound));
                ids.sort_unstable();
                ids.dedup();
                let mut buf = TopkBuf::new(&keys, limit);
                for id in ids {
                    let shard = &*guards[id % nshards];
                    let slot = id / nshards;
                    if shard.cols.is_decodable(slot)
                        && fields.iter().all(|p| shard.cols.matches_pred(slot, p))
                    {
                        buf.push((gather(&shard.cols, slot), id));
                    }
                }
                buf.finish()
            }
            None => {
                // Same chunk kernels as `columnar_scan_where`: the zone
                // maps prune on the *filters* (the selection bound is
                // dynamic, so sort keys cannot prune), then the bounded
                // buffer selects over the surviving visible slots.
                let mut buf = TopkBuf::new(&keys, limit);
                let mut sel: Vec<u32> = Vec::new();
                for (s, shard) in guards.iter().enumerate() {
                    let preds = shard.cols.compile(&fields);
                    for c in 0..shard.chunks_below(bound[s]) {
                        let Some(ch) = shard.chunk_where(c, &fields) else {
                            continue;
                        };
                        ch.filter(&preds, &fields, bound[s], &mut sel);
                        let cols = ch.cols();
                        for &r in &sel {
                            let r = r as usize;
                            buf.push((gather(cols, r), (ch.base + r) * nshards + s));
                        }
                    }
                }
                buf.finish()
            }
        };
        TopkScan::Served(selected.into_iter().map(|(_, id)| id).collect())
    }

    /// The sorted-index fast path of [`columnar_topk_where`]: when the
    /// single sort key is backed by a sorted numeric index whose entries
    /// provably mirror the decoded frame cells (pass-through field, no
    /// irregular doc, no NaN/non-numeric value parked outside the run),
    /// the globally sorted run *is* the frame's sort order — ascending
    /// ties are id-ascending by construction (`(key, id)` tuples),
    /// descending iteration walks tie groups from the top emitting each
    /// group in id order — so the scan just streams ids, skips those at
    /// or above the visibility bound, verifies the filters against the
    /// vectors, and stops after `k` accepted survivors. Returns `None`
    /// when the preconditions do not hold (caller falls back to the
    /// bounded-selection scan).
    ///
    /// [`columnar_topk_where`]: DocumentStore::columnar_topk_where
    fn topk_sorted_cursor(
        &self,
        fields: &[columnar::ColPredicate<'_>],
        key: (ColField, bool),
        k: usize,
        bound: &[usize],
    ) -> Option<Vec<DocId>> {
        let (field, ascending) = key;
        // Cold rows are absent from the sorted run (and from the slot
        // arithmetic below); the bounded-selection scan handles them.
        if self.has_cold() {
            return None;
        }
        // Irregular raw values (defaulted/coerced during decode) or
        // derived fields: the index cannot speak for the cells.
        if !columnar::hint_safe(field, self.col_irregular.load(Ordering::Acquire)) {
            return None;
        }
        let path = columnar::fixed_column(field.idx()).0;
        // Merge any pending appends first (needs the write lock; taken
        // before the shard guards to respect lock order).
        {
            let indexes = self.indexes.read();
            let range = indexes.get(path)?.range.as_ref()?;
            if !range.pending.is_empty() {
                drop(indexes);
                let mut w = self.indexes.write();
                if let Some(range) = w.get_mut(path).and_then(|i| i.range.as_mut()) {
                    range.merge();
                }
            }
        }
        let indexes = self.indexes.read();
        let idx = indexes.get(path)?;
        let range = idx.range.as_ref()?;
        // NaN and non-numeric values live outside the sorted run, where
        // no cursor order is defined; a write racing in behind the merge
        // above re-pends — both disqualify the cursor, not the query.
        if !idx.non_numeric.is_empty() || !range.pending.is_empty() {
            return None;
        }
        let nshards = self.shards.len();
        let guards: Vec<_> = self.shards.iter().map(|s| s.read()).collect();
        let survives = |id: DocId| {
            let shard = &*guards[id % nshards];
            let slot = id / nshards;
            visible(id, bound)
                && shard.cols.is_decodable(slot)
                && fields.iter().all(|p| shard.cols.matches_pred(slot, p))
        };
        let run = &range.sorted;
        let mut out: Vec<DocId> = Vec::with_capacity(k.min(run.len()));
        if ascending {
            for &(_, id) in run.iter() {
                if survives(id) {
                    out.push(id);
                    if out.len() == k {
                        break;
                    }
                }
            }
        } else {
            let mut i = run.len();
            'groups: while i > 0 {
                let hi = i;
                let bits = run[i - 1].0;
                while i > 0 && run[i - 1].0 == bits {
                    i -= 1;
                }
                for &(_, id) in &run[i..hi] {
                    if survives(id) {
                        out.push(id);
                        if out.len() == k {
                            break 'groups;
                        }
                    }
                }
            }
        }
        Some(out)
    }

    /// Group document ids by a dictionary-encoded string column without
    /// materializing the key column: returns the distinct key cells in
    /// first-appearance order plus each id's group index (parallel to
    /// `ids`). The grouping runs over dictionary codes — one integer table
    /// lookup per row — with the symbol unification across dictionaries
    /// (each shard's resident tail and each paged chunk assign codes
    /// independently) paid once per `(dictionary, distinct symbol)` via
    /// the cached content hash, instead of hashing and comparing a `Value`
    /// key per row the way a frame group-by must. `None` when the column
    /// is not a servable string field.
    pub fn columnar_group_codes(
        &self,
        ids: &[DocId],
        column: &str,
    ) -> Option<(Vec<Value>, Vec<u32>)> {
        let f = self.columnar_field(column)?;
        if self.registry.read().kind(f) != Kind::Str {
            return None;
        }
        let nshards = self.shards.len();
        let guards: Vec<_> = self.shards.iter().map(|s| s.read()).collect();
        // `code → group` caches per dictionary (a resident shard's own, or
        // a segment footer's that all its paged chunks share), sized and
        // filled on first use. Each entry holds its dictionary, so no
        // address is reused while the map lives.
        type CodeMap = (Arc<columnar::Dict>, Vec<u32>);
        let mut code_maps: HashMap<*const columnar::Dict, CodeMap> = HashMap::new();
        // Content hash → candidate groups (collisions resolved by real
        // symbol equality), probed only on each dictionary's first
        // sighting of a code.
        let mut by_hash: HashMap<u64, Vec<u32>> = HashMap::new();
        let mut keys: Vec<Value> = Vec::new();
        let mut null_group = u32::MAX;
        let mut row_groups: Vec<u32> = Vec::with_capacity(ids.len());
        let mut cursors = ShardCursor::per_shard(&guards);
        for &id in ids {
            let s = id % nshards;
            let (chunk, row) = cursors[s]
                .at(id / nshards)
                .expect("scanned id resolves in an append-only store");
            let g = match chunk.cols().str_code(row, f) {
                Some((code, dict)) if code != columnar::NULL_CODE => {
                    let (_, map) = code_maps
                        .entry(Arc::as_ptr(dict))
                        .or_insert_with(|| (Arc::clone(dict), vec![u32::MAX; dict.len()]));
                    let cached = map[code as usize];
                    if cached != u32::MAX {
                        cached
                    } else {
                        let sym = &dict.syms()[code as usize];
                        let bucket = by_hash.entry(sym.hash_u64()).or_default();
                        let g = match bucket
                            .iter()
                            .find(|&&g| matches!(&keys[g as usize], Value::Str(k) if k == sym))
                        {
                            Some(&g) => g,
                            None => {
                                let g = keys.len() as u32;
                                bucket.push(g);
                                keys.push(Value::Str(sym.clone()));
                                g
                            }
                        };
                        map[code as usize] = g;
                        g
                    }
                }
                _ => {
                    // A null key cell gets its own group.
                    if null_group == u32::MAX {
                        null_group = keys.len() as u32;
                        keys.push(Value::Null);
                    }
                    null_group
                }
            };
            row_groups.push(g);
        }
        Some((keys, row_groups))
    }

    /// The frame cells of a servable column for the given document ids, in
    /// order (`Null` where a row does not provide the column). `None` when
    /// the column is not servable.
    pub fn columnar_gather(&self, ids: &[DocId], column: &str) -> Option<Vec<Value>> {
        let f = self.columnar_field(column)?;
        let nshards = self.shards.len();
        let guards: Vec<_> = self.shards.iter().map(|s| s.read()).collect();
        let mut cursors = ShardCursor::per_shard(&guards);
        Some(
            ids.iter()
                .map(|id| {
                    let (chunk, row) = cursors[id % nshards]
                        .at(id / nshards)
                        .expect("scanned id resolves in an append-only store");
                    chunk.cols().value(row, f)
                })
                .collect(),
        )
    }

    /// Fetch documents by id, preserving order. Ids must come from a scan
    /// of this (append-only) store, so every id resolves.
    pub fn docs_for_ids(&self, ids: &[DocId]) -> Vec<Arc<Value>> {
        let nshards = self.shards.len();
        let guards: Vec<_> = self.shards.iter().map(|s| s.read()).collect();
        let mut cursors = ShardCursor::per_shard(&guards);
        ids.iter()
            .map(|id| {
                cursors[id % nshards]
                    .doc(id / nshards)
                    .cloned()
                    .expect("scanned id resolves in an append-only store")
            })
            .collect()
    }
}

/// One pushed scan conjunct, by frame column name — the public form of
/// the predicates the columnar scan paths accept.
#[derive(Debug, Clone, Copy)]
pub enum ScanPredicate<'a> {
    /// `column op literal` under frame comparison semantics
    /// ([`dataframe::cmp_matches`]).
    Cmp(&'a str, CmpOp, &'a Value),
    /// `column.isin(list)` membership ([`dataframe::values_equal`]
    /// any-match).
    In(&'a str, &'a [Value]),
    /// `column.notna()` (`true`) or `column.isna()` (`false`).
    Present(&'a str, bool),
}

/// Outcome of a [`DocumentStore::columnar_topk_where`] scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopkScan {
    /// Surviving ids in the frame's sort order, truncated to the limit.
    Served(Vec<DocId>),
    /// A filter or sort column is not columnar-servable here.
    NotServable,
}

/// Every id below a per-shard row bound, ascending.
fn ids_below(bound: &[usize]) -> Vec<DocId> {
    let nshards = bound.len();
    let slots = bound.iter().copied().max().unwrap_or(0);
    (0..slots * nshards)
        .filter(|&id| visible(id, bound))
        .collect()
}

/// Whether document `id` lies below a per-shard row bound (one entry per
/// shard, as [`DocumentStore::shard_rows`] returns): id
/// `slot * nshards + s` is visible iff `slot < bound[s]`.
fn visible(id: DocId, bound: &[usize]) -> bool {
    id / bound.len() < bound[id % bound.len()]
}

/// Drop the selected rows at or above a shard's visible row bound: `sel`
/// is ascending and holds rows offset `base` slots into the shard.
fn clip_to_bound(sel: &mut Vec<u32>, base: usize, rows: usize) {
    let keep = sel.partition_point(|&r| base + (r as usize) < rows);
    sel.truncate(keep);
}

/// One top-k candidate: its sort-key cells plus its document id.
type TopkEntry = (Vec<Value>, DocId);

/// The frame's sort order over top-k entries: [`dataframe::sort_cell_cmp`]
/// per key (nulls and NaN last, direction applied), ties by id — a total
/// order, since ids are unique.
fn topk_cmp(keys: &[(ColField, bool)], a: &TopkEntry, b: &TopkEntry) -> std::cmp::Ordering {
    for (i, (_, ascending)) in keys.iter().enumerate() {
        let ord = dataframe::sort_cell_cmp(&a.0[i], &b.0[i], *ascending);
        if ord != std::cmp::Ordering::Equal {
            return ord;
        }
    }
    a.1.cmp(&b.1)
}

/// Bounded top-k selection buffer: entries accumulate and are periodically
/// compacted (sort + truncate to k), after which the k-th entry becomes a
/// rejection bound for later pushes — O(n log k) total, O(k) live memory.
/// With no limit it simply collects and sorts everything.
struct TopkBuf<'k> {
    keys: &'k [(ColField, bool)],
    /// `usize::MAX` when unbounded (bare pushed sort).
    k: usize,
    entries: Vec<TopkEntry>,
    /// Current k-th best, once k entries have been seen.
    bound: Option<TopkEntry>,
}

impl<'k> TopkBuf<'k> {
    fn new(keys: &'k [(ColField, bool)], limit: Option<usize>) -> Self {
        Self {
            keys,
            k: limit.unwrap_or(usize::MAX),
            entries: Vec::new(),
            bound: None,
        }
    }

    fn push(&mut self, entry: TopkEntry) {
        if self.k == 0 {
            return;
        }
        if let Some(bound) = &self.bound {
            if topk_cmp(self.keys, &entry, bound) != std::cmp::Ordering::Less {
                return;
            }
        }
        self.entries.push(entry);
        if self.k < usize::MAX / 4 && self.entries.len() >= self.k * 2 + 64 {
            self.compact();
        }
    }

    fn compact(&mut self) {
        let keys = self.keys;
        self.entries.sort_unstable_by(|a, b| topk_cmp(keys, a, b));
        self.entries.truncate(self.k);
        if self.entries.len() == self.k {
            self.bound = self.entries.last().cloned();
        }
    }

    fn finish(mut self) -> Vec<TopkEntry> {
        let keys = self.keys;
        self.entries.sort_unstable_by(|a, b| topk_cmp(keys, a, b));
        if self.k != usize::MAX {
            self.entries.truncate(self.k);
        }
        self.entries
    }
}

fn index_insert(index: &mut FieldIndex, id: DocId, value: &Value) {
    match index.eq.entry(value.stable_hash()) {
        std::collections::hash_map::Entry::Occupied(e) => e.into_mut().push(id),
        std::collections::hash_map::Entry::Vacant(e) => {
            e.insert(IdList::One(id));
        }
    }
    if let Some(range) = &mut index.range {
        match value.as_f64() {
            // NaN has no place in a total order (`Value::compare` calls
            // mixed NaN comparisons Equal, so a NaN doc satisfies Lte AND
            // Gte); park it with the non-numeric catch-all candidates.
            Some(f) if !f.is_nan() => range.push(range_key(f), id),
            _ => index.non_numeric.push(id),
        }
    }
}

fn project(doc: Arc<Value>, projection: &[String]) -> Arc<Value> {
    if projection.is_empty() {
        return doc;
    }
    let mut out = Map::new();
    for p in projection {
        if let Some(v) = doc.get_path(p) {
            out.insert(prov_model::Sym::from(p.as_str()), v.clone());
        }
    }
    Arc::new(Value::object(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{AggOp, Aggregate};
    use prov_model::obj;

    fn store() -> DocumentStore {
        let s = DocumentStore::new();
        for (i, (act, host, dur)) in [
            ("run_dft", "n0", 5.0),
            ("postprocess", "n0", 1.0),
            ("run_dft", "n1", 7.0),
            ("run_dft", "n1", 3.0),
        ]
        .iter()
        .enumerate()
        {
            s.insert(obj! {
                "task_id" => format!("t{i}"),
                "activity_id" => *act,
                "hostname" => *host,
                "generated" => obj! { "duration" => *dur },
            });
        }
        s
    }

    #[test]
    fn filter_and_project() {
        let s = store();
        let q = DocQuery::new()
            .filter("activity_id", Op::Eq, "run_dft")
            .project(&["task_id", "generated.duration"]);
        let out = s.find(&q);
        assert_eq!(out.len(), 3);
        assert!(out[0].get("task_id").is_some());
        assert!(out[0].get("activity_id").is_none());
    }

    #[test]
    fn sort_and_limit() {
        let s = store();
        let q = DocQuery::new()
            .filter("activity_id", Op::Eq, "run_dft")
            .sort_by("generated.duration", false)
            .limit(1);
        let out = s.find(&q);
        assert_eq!(out.len(), 1);
        assert_eq!(
            out[0].get_path("generated.duration").unwrap().as_f64(),
            Some(7.0)
        );
    }

    /// A sort key holding NaN beside other floats sorts by the frame's
    /// rule — NaN with the nulls, last in both directions, ties in id
    /// order — instead of panicking on a comparator that is not total.
    #[test]
    fn sort_with_nan_keys_is_total() {
        let s = DocumentStore::new();
        let x = |i: usize| {
            if i.is_multiple_of(3) {
                f64::NAN
            } else {
                (i * 7 % 64) as f64
            }
        };
        for i in 0..64 {
            s.insert(obj! { "task_id" => format!("t{i}"), "x" => x(i) });
        }
        for ascending in [true, false] {
            let out = s.find(&DocQuery::new().sort_by("x", ascending));
            let ids: Vec<usize> = out
                .iter()
                .map(|d| {
                    d.get("task_id").and_then(Value::as_str).unwrap()[1..]
                        .parse()
                        .unwrap()
                })
                .collect();
            let mut want: Vec<usize> = (0..64).filter(|i: &usize| !i.is_multiple_of(3)).collect();
            want.sort_by(|&a, &b| {
                let o = x(a).total_cmp(&x(b));
                if ascending {
                    o
                } else {
                    o.reverse()
                }
            });
            want.extend((0..64).filter(|i: &usize| i.is_multiple_of(3)));
            assert_eq!(ids, want, "ascending={ascending}");
        }
    }

    #[test]
    fn range_ops() {
        let s = store();
        let q = DocQuery::new().filter("generated.duration", Op::Gte, 3.0);
        assert_eq!(s.count(&q), 3);
        let q = DocQuery::new().filter("hostname", Op::Ne, "n0");
        assert_eq!(s.count(&q), 2);
        let q = DocQuery::new().filter("activity_id", Op::Contains, "dft");
        assert_eq!(s.count(&q), 3);
    }

    #[test]
    fn indexes_accelerate_equality() {
        let s = store();
        s.create_index("hostname");
        let q = DocQuery::new().filter("hostname", Op::Eq, "n1");
        assert_eq!(s.count(&q), 2);
        // Index also maintained for inserts after creation.
        s.insert(obj! {"task_id" => "t9", "hostname" => "n1"});
        assert_eq!(s.count(&q), 3);
    }

    #[test]
    fn multiple_indexed_eq_conditions_intersect() {
        let s = store();
        s.create_index("hostname");
        s.create_index("activity_id");
        let q = DocQuery::new()
            .filter("activity_id", Op::Eq, "run_dft")
            .filter("hostname", Op::Eq, "n0");
        assert_eq!(s.count(&q), 1);
        let hits = s.find(&q);
        assert_eq!(hits[0].get("task_id").and_then(Value::as_str), Some("t0"));
    }

    #[test]
    fn range_index_serves_range_predicates() {
        let s = store();
        s.create_range_index("generated.duration");
        for (op, expect) in [(Op::Gte, 3), (Op::Gt, 2), (Op::Lte, 2), (Op::Lt, 1)] {
            let q = DocQuery::new().filter("generated.duration", op, 3.0);
            assert_eq!(s.count(&q), expect, "{op:?}");
        }
        // Inserts after creation keep the sorted index live.
        s.insert(obj! {"generated" => obj! {"duration" => 9.5}});
        assert_eq!(
            s.count(&DocQuery::new().filter("generated.duration", Op::Gt, 7.0)),
            1
        );
        // Mixed-kind values are not lost to the numeric index.
        s.insert(obj! {"generated" => obj! {"duration" => "n/a"}});
        assert_eq!(
            s.count(&DocQuery::new().filter("generated.duration", Op::Gt, 7.0)),
            2 // 9.5 and the string (Str kind sorts above Float)
        );
    }

    #[test]
    fn range_index_handles_nan_and_signed_zero() {
        let indexed = DocumentStore::new();
        indexed.create_range_index("y");
        let plain = DocumentStore::new();
        for v in [
            Value::Float(f64::NAN),
            Value::Float(-0.0),
            Value::Int(0),
            Value::Float(1.5),
        ] {
            let mut m = Map::new();
            m.insert("y".into(), v);
            indexed.insert(Value::object(m.clone()));
            plain.insert(Value::object(m));
        }
        // Indexed and unindexed stores must agree for every operator and
        // for zero / NaN bounds (compare() calls NaN comparisons Equal).
        for op in [Op::Gte, Op::Gt, Op::Lte, Op::Lt] {
            for bound in [
                Value::Float(0.0),
                Value::Float(-0.0),
                Value::Float(f64::NAN),
            ] {
                let q = DocQuery::new().filter("y", op, bound.clone());
                assert_eq!(indexed.count(&q), plain.count(&q), "{op:?} {bound:?}");
                // Compare rendered docs: NaN != NaN under PartialEq, but
                // both stores must return the same documents.
                assert_eq!(
                    format!("{:?}", indexed.find(&q)),
                    format!("{:?}", plain.find(&q)),
                    "{op:?} {bound:?}"
                );
            }
        }
    }

    #[test]
    fn find_returns_shared_handles() {
        let s = store();
        let a = s.find(&DocQuery::new().filter("task_id", Op::Eq, "t0"));
        let b = s.find(&DocQuery::new().filter("task_id", Op::Eq, "t0"));
        // Same allocation, not a deep clone.
        assert!(Arc::ptr_eq(&a[0], &b[0]));
    }

    #[test]
    fn ids_preserve_insertion_order_across_shards() {
        let s = DocumentStore::with_shards(4);
        for i in 0..10 {
            s.insert(obj! {"i" => i});
        }
        let out = s.find(&DocQuery::new());
        let got: Vec<i64> = out.iter().filter_map(|d| d.get("i")?.as_i64()).collect();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
        assert_eq!(s.get(7).unwrap().get("i").unwrap().as_i64(), Some(7));
    }

    #[test]
    fn aggregation_pipeline() {
        let s = store();
        let out = s.aggregate(
            &DocQuery::new(),
            &GroupSpec {
                key: "activity_id".into(),
                aggs: vec![
                    Aggregate {
                        path: "generated.duration".into(),
                        op: AggOp::Mean,
                    },
                    Aggregate {
                        path: "generated.duration".into(),
                        op: AggOp::Count,
                    },
                ],
            },
        );
        assert_eq!(out.len(), 2);
        let dft = out
            .iter()
            .find(|v| v.get("_id").and_then(Value::as_str) == Some("run_dft"))
            .unwrap();
        assert_eq!(
            dft.get("generated.duration_mean").unwrap().as_f64(),
            Some(5.0)
        );
        assert_eq!(
            dft.get("generated.duration_count").unwrap().as_i64(),
            Some(3)
        );
    }

    /// The dictionary-code path of an unfiltered `aggregate` answers
    /// exactly like its hash path, which an always-true condition (`Ne`
    /// on an absent path) forces: on facade rows, with raw rows whose
    /// other fields were defaulted or canonicalized (irregular), and with
    /// rows that do not decode.
    #[test]
    fn aggregate_code_path_equals_hash_path() {
        let facade = task_docs(300);
        let raw = [
            obj! {"task_id" => "r0", "workflow_id" => "wf-0", "activity_id" => "raw",
            "status" => "finished", "started_at" => "soon"},
            obj! {"task_id" => "r1", "workflow_id" => "wf-9", "activity_id" => "act",
            "started_at" => 2.5},
        ];
        let undecodable = [
            obj! {"task_id" => "u0"},
            obj! {"activity_id" => "act", "hostname" => "n1", "started_at" => 1.0},
        ];
        let group = |key: &str| GroupSpec {
            key: key.into(),
            aggs: [
                ("started_at", AggOp::Mean),
                ("started_at", AggOp::Count),
                ("task_id", AggOp::Max),
                ("ended_at", AggOp::Min),
                ("duration", AggOp::Sum),
            ]
            .into_iter()
            .map(|(path, op)| Aggregate {
                path: path.into(),
                op,
            })
            .collect(),
        };
        let always = DocQuery::new().filter("no.such.path", Op::Ne, 0);
        for (label, extra) in [
            ("facade", &[][..]),
            ("irregular", &raw),
            ("undecodable", &undecodable),
        ] {
            let mut docs = facade.clone();
            // Spread the extra rows over every shard and chunk position.
            for (i, doc) in extra.iter().enumerate() {
                docs.insert(37 * i + 5, doc.clone());
            }
            for nshards in [1, 4] {
                let s = DocumentStore::with_shards(nshards);
                s.insert_many(docs.clone());
                let rows = s.shard_rows();
                // `activity_id` takes the code path unless a row does not
                // decode; the raw rows leave it regular.
                let act = columnar::lookup("activity_id").unwrap();
                assert_eq!(
                    s.columnar_presence("activity_id", &rows) == Some(s.len())
                        && s.col_irregular.load(Ordering::Acquire) & columnar::field_bit(act) == 0,
                    label != "undecodable",
                    "{label}"
                );
                for key in columnar::STR_FIELDS.iter().chain(&["started_at", "absent"]) {
                    assert_eq!(
                        s.aggregate(&DocQuery::new(), &group(key)),
                        s.aggregate(&always, &group(key)),
                        "{label} {key} {nshards} shards"
                    );
                }
            }
        }
    }

    #[test]
    fn distinct_values() {
        let s = store();
        let hosts = s.distinct(&DocQuery::new(), "hostname");
        assert_eq!(hosts.len(), 2);
    }

    #[test]
    fn shard_and_thread_overrides_parse_and_cap() {
        let config = Config::from_lookup(|name| (name == "PROVDB_SHARDS").then(|| " 64 ".into()));
        let s = DocumentStore::with_config(&config);
        assert_eq!(s.shard_count(), 16, "capped like auto-tuning");
    }

    fn task_docs(n: usize) -> Vec<Value> {
        (0..n)
            .map(|i| {
                prov_model::TaskMessageBuilder::new(format!("t{i}"), format!("wf-{}", i % 2), "act")
                    .status(if i % 3 == 0 {
                        prov_model::TaskStatus::Error
                    } else {
                        prov_model::TaskStatus::Finished
                    })
                    .span(i as f64, i as f64 + 1.0)
                    .build()
                    .to_value()
            })
            .collect()
    }

    /// Comparison-only conjunctions as scan predicates.
    fn cmp_preds<'a>(filters: &[(&'a str, CmpOp, &'a Value)]) -> Vec<ScanPredicate<'a>> {
        filters
            .iter()
            .map(|&(col, op, lit)| ScanPredicate::Cmp(col, op, lit))
            .collect()
    }

    /// A columnar scan over every row the store holds.
    fn scan(
        s: &DocumentStore,
        filters: &[(&str, CmpOp, &Value)],
        limit: Option<usize>,
    ) -> Option<Vec<DocId>> {
        s.columnar_scan_where(&cmp_preds(filters), limit, &s.shard_rows())
    }

    /// A columnar top-k over every row the store holds.
    fn topk(
        s: &DocumentStore,
        filters: &[(&str, CmpOp, &Value)],
        sort: &[(&str, bool)],
        limit: Option<usize>,
    ) -> TopkScan {
        s.columnar_topk_where(&cmp_preds(filters), sort, limit, &s.shard_rows())
    }

    #[test]
    fn columnar_scan_filters_in_id_order_with_limit() {
        let s = DocumentStore::with_shards(3);
        s.insert_many(task_docs(12));
        let err = Value::from("ERROR");
        let ids = scan(&s, &[("status", CmpOp::Eq, &err)], None).unwrap();
        assert_eq!(ids, vec![0, 3, 6, 9]);
        let ids = scan(&s, &[("status", CmpOp::Eq, &err)], Some(2)).unwrap();
        assert_eq!(ids, vec![0, 3]);
        // limit 0 returns nothing on every path (the parallel merge
        // truncates to 0; the sequential loops must agree).
        assert_eq!(
            scan(&s, &[("status", CmpOp::Eq, &err)], Some(0)).unwrap(),
            Vec::<DocId>::new()
        );
        // Gather returns the frame cells for those ids, in order.
        let vals = s.columnar_gather(&ids, "task_id").unwrap();
        assert_eq!(vals, vec![Value::from("t0"), Value::from("t3")]);
        // Non-columnar columns are not servable.
        assert!(scan(&s, &[("y", CmpOp::Eq, &err)], None).is_none());
        assert!(s.columnar_gather(&ids, "y").is_none());
    }

    #[test]
    fn columnar_scan_uses_index_candidates_when_safe() {
        let s = DocumentStore::with_shards(2);
        s.create_index("workflow_id");
        s.insert_many(task_docs(8));
        let wf = Value::from("wf-1");
        let ids = scan(&s, &[("workflow_id", CmpOp::Eq, &wf)], None).unwrap();
        assert_eq!(ids, vec![1, 3, 5, 7]);
        // Combined with an unindexed conjunct: the probe seeds, the
        // vectors verify.
        let bound = Value::Float(4.0);
        let ids = scan(
            &s,
            &[
                ("workflow_id", CmpOp::Eq, &wf),
                ("started_at", CmpOp::Gt, &bound),
            ],
            None,
        )
        .unwrap();
        assert_eq!(ids, vec![5, 7]);
    }

    #[test]
    fn columnar_topk_orders_like_the_frame() {
        let s = DocumentStore::with_shards(3);
        s.insert_many(task_docs(12)); // duration 1.0 everywhere: all ties
        let ids = |scan: TopkScan| match scan {
            TopkScan::Served(ids) => ids,
            other => panic!("expected Served, got {other:?}"),
        };
        // started_at = i: strictly increasing, so descending top-3 is the
        // last three ids; ascending is the first three.
        let desc = ids(topk(&s, &[], &[("started_at", false)], Some(3)));
        assert_eq!(desc, vec![11, 10, 9]);
        let asc = ids(topk(&s, &[], &[("started_at", true)], Some(3)));
        assert_eq!(asc, vec![0, 1, 2]);
        // All-tie key: insertion order breaks ties, both directions.
        let ties = ids(topk(&s, &[], &[("duration", false)], Some(4)));
        assert_eq!(ties, vec![0, 1, 2, 3]);
        // Filter + sort compose; k larger than the survivor count is fine.
        let err = Value::from("ERROR");
        let filtered = ids(topk(
            &s,
            &[("status", CmpOp::Eq, &err)],
            &[("started_at", false)],
            Some(100),
        ));
        assert_eq!(filtered, vec![9, 6, 3, 0]);
        // k = 0 and bare (unlimited) sorts.
        assert_eq!(
            ids(topk(&s, &[], &[("started_at", true)], Some(0))),
            Vec::<DocId>::new()
        );
        let all = ids(topk(&s, &[], &[("started_at", false)], None));
        assert_eq!(all, (0..12).rev().collect::<Vec<_>>());
        // Multi-key: tie on duration, then started_at descending.
        let multi = ids(topk(
            &s,
            &[],
            &[("duration", true), ("started_at", false)],
            Some(3),
        ));
        assert_eq!(multi, vec![11, 10, 9]);
    }

    #[test]
    fn columnar_topk_rejects_unservable_and_sorts_nan_last() {
        let s = DocumentStore::with_shards(2);
        s.insert_many(task_docs(6));
        assert_eq!(
            topk(&s, &[], &[("y", true)], Some(2)),
            TopkScan::NotServable
        );
        let v = Value::Int(1);
        assert_eq!(
            topk(
                &s,
                &[("y", CmpOp::Eq, &v)],
                &[("started_at", true)],
                Some(2)
            ),
            TopkScan::NotServable
        );
        // A NaN sort-key cell ranks as missing: last in both directions.
        s.insert(obj! {
            "task_id" => "nan", "workflow_id" => "wf", "activity_id" => "a",
            "started_at" => f64::NAN, "ended_at" => 1.0,
        });
        assert_eq!(
            topk(&s, &[], &[("started_at", true)], Some(3)),
            TopkScan::Served(vec![0, 1, 2])
        );
        assert_eq!(
            topk(&s, &[], &[("started_at", false)], None),
            TopkScan::Served(vec![5, 4, 3, 2, 1, 0, 6])
        );
    }

    #[test]
    fn topk_cursor_and_buffer_paths_agree() {
        // Same corpus, one store with the started_at range index (cursor
        // eligible — ProvenanceDatabase always builds it) and one without
        // (bounded-buffer path only): identical answers either way.
        let docs = task_docs(30);
        let indexed = DocumentStore::with_shards(4);
        indexed.create_range_index("started_at");
        indexed.insert_many(docs.clone());
        let plain = DocumentStore::with_shards(4);
        plain.insert_many(docs);
        let fin = Value::from("FINISHED");
        for (filters, k) in [
            (vec![], Some(5)),
            (vec![("status", CmpOp::Eq, &fin)], Some(7)),
            (vec![], Some(100)),
            (vec![], None),
        ] {
            for asc in [true, false] {
                assert_eq!(
                    topk(&indexed, &filters, &[("started_at", asc)], k),
                    topk(&plain, &filters, &[("started_at", asc)], k),
                    "asc={asc} k={k:?}"
                );
            }
        }
    }

    #[test]
    fn kernels_see_only_rows_below_the_bound() {
        // The full store scanned under a prefix's row bound answers like a
        // store holding only that prefix, on every kernel path: index
        // candidates, the sorted-index cursor, the chunk-major scan and
        // the top-k buffer. A NaN sort key above the bound is never read.
        let n = 4_596;
        let docs = task_docs(n + 300);
        let build = |docs: &[Value]| {
            let s = DocumentStore::with_shards(4);
            s.create_index("workflow_id");
            s.create_range_index("started_at");
            s.insert_many(docs.to_vec());
            s
        };
        let prefix = build(&docs[..n]);
        let full = build(&docs[..n]);
        let bound = full.shard_rows();
        full.insert_many(docs[n..].to_vec());
        let wf = Value::from("wf-1");
        let fin = Value::from("FINISHED");
        let late = Value::Float(10.0);
        let filter_sets = [
            vec![],
            vec![("workflow_id", CmpOp::Eq, &wf)],
            vec![("status", CmpOp::Eq, &fin)],
            vec![("started_at", CmpOp::Ge, &late)],
        ];
        let sorts: [&[(&str, bool)]; 2] = [
            &[("started_at", false)],
            &[("duration", true), ("started_at", false)],
        ];
        let check = |label: &str| {
            for filters in &filter_sets {
                let preds = cmp_preds(filters);
                for limit in [None, Some(1), Some(7)] {
                    let ctx = format!("{label} {filters:?} {limit:?}");
                    assert_eq!(
                        full.columnar_scan_where(&preds, limit, &bound),
                        prefix.columnar_scan_where(&preds, limit, &prefix.shard_rows()),
                        "{ctx}"
                    );
                    for sort in sorts {
                        assert_eq!(
                            full.columnar_topk_where(&preds, sort, limit, &bound),
                            prefix.columnar_topk_where(&preds, sort, limit, &prefix.shard_rows()),
                            "{ctx} sort={sort:?}"
                        );
                    }
                }
            }
        };
        check("numeric sort keys");
        full.insert(obj! {
            "task_id" => "nan", "workflow_id" => "wf-1", "activity_id" => "a",
            "started_at" => f64::NAN, "ended_at" => 1.0,
        });
        check("NaN above the bound");
        for col in ["task_id", "status", "started_at"] {
            assert_eq!(
                full.columnar_presence(col, &bound),
                prefix.columnar_presence(col, &prefix.shard_rows()),
                "{col}"
            );
        }
    }

    #[test]
    fn batch_insert_takes_one_pass() {
        let s = DocumentStore::with_shards(3);
        s.create_index("k");
        let batch: Vec<Value> = (0..100).map(|i| obj! {"k" => i % 5}).collect();
        assert_eq!(s.insert_many(batch), 100);
        assert_eq!(s.len(), 100);
        assert_eq!(s.count(&DocQuery::new().filter("k", Op::Eq, 3)), 20);
    }
}
