//! Out-of-core read path over sealed segments: lazy chunk paging with a
//! bounded resident set.
//!
//! A durable store opened lazily ([`crate::store::ProvenanceDatabase::open`])
//! does not re-ingest its sealed history. Instead each document-store shard
//! carries a [`ColdShard`]: the sealed, chunk-aligned row prefix stays on
//! disk and is described only by per-segment metadata plus the parsed
//! footer ([`crate::segment::Footer`]). Queries consult the footer zone
//! maps *before any I/O* — a chunk the zones prove predicate-free is never
//! read — and page the rest per chunk through one byte budget
//! (`Config::resident_bytes`, LRU eviction), so the resident set stays
//! bounded no matter how large the corpus is.
//!
//! ## Pages
//!
//! A cold chunk has two pages, kept under the one LRU and the one budget:
//!
//! * its **cols page**, a one-chunk [`ColumnarShard`] that every columnar
//!   kernel reads. A `PSEG4` segment serves it with one positional read,
//!   one CRC check and one bulk decode of the chunk's column block (each
//!   held column built in one pass, its dictionary shared with the
//!   footer, its zone taken from the footer directory); no document is
//!   decoded. It is accounted at its real heap bytes. It holds the
//!   chunk's row-key bits too, though whole-chunk presence — which frame
//!   columns the cold rows hold — comes from the footers alone.
//! * its **docs page**, the chunk's decoded documents, paged only when
//!   something needs documents: a document walk, a projection the columns
//!   cannot serve, `get`, and the KV/graph hydration. It is accounted at
//!   an estimate of the decoded trees (4× the raw record bytes plus 96
//!   bytes a row).
//!
//! ## Exactness
//!
//! A cols page holds exactly the cells the resident sidecar held when the
//! chunk was sealed: its column block stores that sidecar's codes (against
//! the footer's dictionary snapshot, which the page adopts) and raw float
//! bits, under the column ids the store's registry gives the footer's
//! column names ([`ColdShard::bind`]), row-key columns included. Every
//! attached segment is `PSEG4`: `PSEG1`/`PSEG2`/`PSEG3` segments written
//! by older releases are written forward at the first lazy open, before
//! they are attached, so every footer carries the row-key catalog. Docs pages are
//! CRC-verified record by record and decoded with the WAL's canonical
//! codec through one [`crate::wal::SymTable`] per page, so a string
//! repeated across the page's documents is allocated once. The document
//! store's kernels then read a paged chunk and a resident shard through
//! the same code, compiled against the chunk's own dictionaries. The
//! out-of-core differential suite pins the result: a store reopened with
//! a tiny budget answers every golden and random pipeline
//! byte-identically to a fully-resident one.
//!
//! ## Immutability and locking
//!
//! Sealed rows sit below every snapshot high-water mark and are immutable
//! by construction, so paged reads need no coordination with writers: each
//! [`ColdSegment`] keeps the `File` handle it was attached with and serves
//! page loads with positional reads (`read_exact_at`), which share no
//! cursor and take no lock. Compaction may unlink or replace a segment
//! file at any time; the held descriptor keeps the original immutable
//! bytes readable (POSIX unlink semantics), so scans race nothing.
//!
//! Paging failures (I/O error, record or column-block checksum mismatch)
//! are store corruption discovered after open — like the WAL append path,
//! they panic with the failing path rather than silently dropping rows.

use crate::columnar::{self, ColField, ColPredicate, ColumnarShard, Registry};
use crate::segment::{self, Layout, SegmentMeta, ZoneTables};
use crate::wal::SymTable;
use parking_lot::Mutex;
use prov_model::Value;
use std::collections::HashMap;
use std::fs::File;
use std::os::unix::fs::FileExt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Observability counters of the chunk pager (see
/// [`crate::ProvenanceDatabase::pager_stats`]). All zeros on in-memory
/// stores and replayed opens, which never page. A *page* is one
/// cold chunk's cols page (its column cells) or its docs page (its
/// decoded documents).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PagerStats {
    /// Page reads served from the resident set.
    pub hits: u64,
    /// Pages loaded from disk, of either kind.
    pub paged_in: u64,
    /// Of [`paged_in`](Self::paged_in), the docs pages; the rest are
    /// cols pages.
    pub paged_in_docs: u64,
    /// Pages evicted to stay under the byte budget.
    pub evicted: u64,
    /// Cold chunks skipped via the on-disk zone maps before any I/O.
    pub zone_skips: u64,
    /// Pages currently resident, of either kind.
    pub resident_chunks: u64,
    /// Accounted bytes of the resident pages: real heap bytes for a cols
    /// page, the decoded-tree estimate for a docs page.
    pub resident_bytes: u64,
}

/// The two pages of a cold chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum PageKind {
    Cols,
    Docs,
}

/// One resident page.
#[derive(Clone)]
enum Page {
    Cols(Arc<ColumnarShard>),
    Docs(Arc<[Arc<Value>]>),
}

/// Fail loudly on a cold read that cannot be served: sealed bytes were
/// readable at attach time, so this is post-open corruption or a dying
/// disk — continuing would silently drop rows from query answers.
fn page_fault(msg: &str, meta: &SegmentMeta) -> ! {
    panic!("provdb: cold segment {msg}: {}", meta.path.display());
}

/// One sealed `PSEG4` segment attached for paging: its metadata, the
/// parsed zone footer, the held file descriptor, and where each chunk's
/// bytes sit.
pub(crate) struct ColdSegment {
    meta: SegmentMeta,
    file: File,
    zones: ZoneTables,
    /// Where each chunk's document records and column block sit.
    layout: Layout,
    /// Store column of each footer column, set by [`ColdShard::bind`].
    ids: Vec<ColField>,
    /// Footer column of each store column id (`u32::MAX`: none).
    local: Vec<u32>,
}

impl ColdSegment {
    pub(crate) fn new(meta: SegmentMeta, file: File, zones: ZoneTables, layout: Layout) -> Self {
        debug_assert_eq!(meta.format, segment::Format::Pseg4);
        Self {
            meta,
            file,
            zones,
            layout,
            ids: Vec::new(),
            local: Vec::new(),
        }
    }

    /// Map the footer's columns onto the store's registry (registering
    /// new names, poisoning on a poisoned footer column or a kind
    /// conflict; a row-key column onto the row key of its name) and carry
    /// its catalogs' overflow bits over.
    fn bind(&mut self, reg: &mut Registry) {
        if self.zones.overflowed {
            reg.set_overflowed();
        }
        if self.zones.keys_overflowed {
            reg.set_keys_overflowed();
        }
        self.ids = self
            .zones
            .columns
            .iter()
            .map(|c| {
                if c.key {
                    return reg.bind_key(&c.name);
                }
                let f = reg.bind(&c.name, c.kind);
                if c.poisoned {
                    reg.poison(f);
                }
                f
            })
            .collect();
        let n = self.ids.iter().map(|f| f.idx() + 1).max().unwrap_or(0);
        self.local = vec![u32::MAX; n];
        for (i, f) in self.ids.iter().enumerate() {
            self.local[f.idx()] = i as u32;
        }
    }

    /// Poison every discovered column an overflowed footer does not
    /// list: the segment's rows may hold cells of it that it does not
    /// carry. (A row key it does not list needs no poison: the footer's
    /// row-key overflow bit, carried over by [`bind`](Self::bind), already
    /// makes the store's catalog unlistable.)
    fn poison_unlisted(&self, reg: &mut Registry) {
        if self.zones.overflowed {
            for i in columnar::FIXED..reg.len() {
                let f = ColField(i as u32);
                if self.local(f).is_none() && !reg.is_key(f) {
                    reg.poison(f);
                }
            }
        }
    }

    /// The footer column of store column `f`.
    fn local(&self, f: ColField) -> Option<u32> {
        self.local.get(f.idx()).copied().filter(|&i| i != u32::MAX)
    }

    /// Bytes `[a, b)` of the file, read positionally.
    fn read_range(&self, a: u64, b: u64) -> Vec<u8> {
        let mut buf = vec![0u8; (b - a) as usize];
        self.read_full_at(&mut buf, a);
        buf
    }

    /// Positional read filling `buf` entirely, tolerating short reads.
    fn read_full_at(&self, buf: &mut [u8], pos: u64) {
        if let Err(e) = self.file.read_exact_at(buf, pos) {
            page_fault(&format!("read failed ({e})"), &self.meta);
        }
    }

    /// Rows of segment-local chunk `lc`.
    fn rows(&self, lc: usize) -> usize {
        let chunk = self.meta.chunk as usize;
        chunk.min(self.meta.n_docs as usize - lc * chunk)
    }

    /// Read, verify, and decode the documents of segment-local chunk
    /// `lc`. Returns them with the raw bytes read.
    fn load_docs(&self, lc: usize) -> (Vec<Arc<Value>>, usize) {
        let offs = &self.layout.docs;
        let raw = self.read_range(offs[lc], offs[lc + 1]);
        let rows = self.rows(lc);
        let mut docs = Vec::with_capacity(rows);
        let mut syms = SymTable::default();
        let mut pos = 0usize;
        for _ in 0..rows {
            let payload = segment::next_record(&raw, &mut pos)
                .unwrap_or_else(|fault| page_fault(fault, &self.meta));
            let doc = syms
                .decode(payload)
                .unwrap_or_else(|| page_fault("undecodable record", &self.meta));
            docs.push(Arc::new(doc));
        }
        if pos != raw.len() {
            page_fault("torn record", &self.meta);
        }
        (docs, raw.len())
    }

    /// Read and verify the column block of segment-local chunk `lc` and
    /// decode it into a one-chunk shard.
    fn load_cols(&self, lc: usize) -> ColumnarShard {
        let blocks = &self.layout.cols;
        let block = self.read_range(blocks[lc], blocks[lc + 1]);
        let chunk = self.meta.chunk as usize;
        segment::decode_col_block(&block, self.rows(lc), chunk, &self.zones, lc, &self.ids)
            .unwrap_or_else(|fault| page_fault(fault, &self.meta))
    }
}

struct LruInner {
    /// `(shard, global cold chunk, kind) → (last-used tick, page, bytes)`.
    map: HashMap<(usize, usize, PageKind), (u64, Page, usize)>,
    bytes: usize,
    tick: u64,
}

/// The store-wide page cache: a byte budget, an LRU map over both page
/// kinds, and the stat counters surfaced through [`PagerStats`]. Shaped
/// like [`crate::cache::PlanCache`]'s ledger — atomics for the monotone
/// counters, one short-lived mutex for the resident map, loads done
/// outside the lock.
pub(crate) struct PagerCore {
    budget: usize,
    inner: Mutex<LruInner>,
    hits: AtomicU64,
    paged_in: AtomicU64,
    paged_in_docs: AtomicU64,
    evicted: AtomicU64,
    zone_skips: AtomicU64,
}

impl PagerCore {
    pub(crate) fn new(budget: usize) -> Self {
        Self {
            budget: budget.max(1),
            inner: Mutex::new(LruInner {
                map: HashMap::new(),
                bytes: 0,
                tick: 0,
            }),
            hits: AtomicU64::new(0),
            paged_in: AtomicU64::new(0),
            paged_in_docs: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            zone_skips: AtomicU64::new(0),
        }
    }

    /// Current counters.
    pub(crate) fn stats(&self) -> PagerStats {
        let (pages, bytes) = {
            let inner = self.inner.lock();
            (inner.map.len() as u64, inner.bytes as u64)
        };
        PagerStats {
            hits: self.hits.load(Ordering::Relaxed),
            paged_in: self.paged_in.load(Ordering::Relaxed),
            paged_in_docs: self.paged_in_docs.load(Ordering::Relaxed),
            evicted: self.evicted.load(Ordering::Relaxed),
            zone_skips: self.zone_skips.load(Ordering::Relaxed),
            resident_chunks: pages,
            resident_bytes: bytes,
        }
    }

    fn note_zone_skip(&self) {
        self.zone_skips.fetch_add(1, Ordering::Relaxed);
    }

    /// Resident page for `key`, loading with `load` (the page and its
    /// accounted bytes) on a miss. The load runs outside the lock; a
    /// racing double-load keeps the first copy. Eviction drops
    /// least-recently-used pages, of either kind, until the budget holds —
    /// readers keep their `Arc`s, so an evicted page stays valid until
    /// its last user drops it.
    fn get(&self, key: (usize, usize, PageKind), load: impl FnOnce() -> (Page, usize)) -> Page {
        {
            let mut inner = self.inner.lock();
            inner.tick += 1;
            let tick = inner.tick;
            if let Some(entry) = inner.map.get_mut(&key) {
                entry.0 = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                return entry.1.clone();
            }
        }
        let (page, bytes) = load();
        self.paged_in.fetch_add(1, Ordering::Relaxed);
        if key.2 == PageKind::Docs {
            self.paged_in_docs.fetch_add(1, Ordering::Relaxed);
        }
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.entry(key) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                // Lost a load race; keep the resident copy.
                e.get_mut().0 = tick;
                return e.get().1.clone();
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert((tick, page.clone(), bytes));
            }
        }
        inner.bytes += bytes;
        // Evicted pages are freed after unlocking: a docs page drops whole
        // document trees, and every reader's hit path takes this lock.
        let mut evicted = Vec::new();
        while inner.bytes > self.budget && !inner.map.is_empty() {
            let oldest = inner
                .map
                .iter()
                .min_by_key(|(_, (t, _, _))| *t)
                .map(|(k, _)| *k)
                .expect("non-empty map");
            if let Some((_, dropped, dropped_bytes)) = inner.map.remove(&oldest) {
                inner.bytes -= dropped_bytes;
                evicted.push(dropped);
                self.evicted.fetch_add(1, Ordering::Relaxed);
            }
            if oldest == key {
                // Even the fresh page may exceed the budget on its own;
                // the caller's Arc keeps it alive for this read.
                break;
            }
        }
        drop(inner);
        page
    }
}

/// The sealed, on-disk row prefix of one document-store shard: rows
/// `[0, rows)` (always whole chunks) live in `segs` and are paged on
/// demand through the shared [`PagerCore`].
pub(crate) struct ColdShard {
    rows: usize,
    chunk: usize,
    /// Attached segments, sorted by `start`, contiguous from slot 0.
    segs: Vec<ColdSegment>,
    core: Arc<PagerCore>,
    shard: usize,
    /// Present cells per column id over the cold rows, summed from the
    /// footer directories by [`bind`](Self::bind) (no I/O at query
    /// time).
    present: Vec<usize>,
}

impl ColdShard {
    /// Attach `segs` as shard `shard`'s cold prefix of `rows` rows.
    pub(crate) fn new(
        rows: usize,
        chunk: usize,
        segs: Vec<ColdSegment>,
        core: Arc<PagerCore>,
        shard: usize,
    ) -> Self {
        debug_assert!(rows.is_multiple_of(chunk.max(1)));
        Self {
            rows,
            chunk,
            segs,
            core,
            shard,
            present: Vec::new(),
        }
    }

    /// Map every attached footer's columns onto the store's registry and
    /// sum the present cells per column over the cold rows.
    pub(crate) fn bind(&mut self, reg: &mut Registry) {
        for seg in &mut self.segs {
            seg.bind(reg);
        }
        let mut present = vec![0usize; reg.len()];
        for seg in &self.segs {
            let covered = (seg.meta.end.min(self.rows as u64) - seg.meta.start) as usize;
            for dir in &seg.zones.chunks[..covered / self.chunk.max(1)] {
                for (i, zone) in &dir.held {
                    present[seg.ids[*i as usize].idx()] += zone.present() as usize;
                }
            }
        }
        self.present = present;
    }

    /// After every shard's [`bind`](Self::bind): poison the discovered
    /// columns an overflowed footer does not list.
    pub(crate) fn poison_unlisted(&self, reg: &mut Registry) {
        for seg in &self.segs {
            seg.poison_unlisted(reg);
        }
    }

    /// Cold rows of this shard (a whole-chunk multiple).
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Rows per chunk (matches the live sidecar's chunk size).
    pub(crate) fn chunk_rows(&self) -> usize {
        self.chunk
    }

    /// Cold chunks of this shard.
    pub(crate) fn n_chunks(&self) -> usize {
        self.rows / self.chunk.max(1)
    }

    /// Present cells of a field over all cold rows (from the footers).
    pub(crate) fn present(&self, f: ColField) -> usize {
        self.present.get(f.idx()).copied().unwrap_or(0)
    }

    /// Present cells of a field among the first `n` cold rows: whole
    /// chunks from the footer zones, the one boundary chunk paged.
    pub(crate) fn present_prefix(&self, f: ColField, n: usize) -> usize {
        let n = n.min(self.rows);
        if n == self.rows {
            return self.present(f);
        }
        let full = n / self.chunk;
        let mut sum = 0usize;
        for c in 0..full {
            let (seg, lc) = self.locate(c);
            if let Some(i) = seg.local(f) {
                sum += seg.zones.zone(lc, i).present() as usize;
            }
        }
        let boundary = n - full * self.chunk;
        if boundary > 0 {
            sum += self.cols(full).present_prefix(f, boundary);
        }
        sum
    }

    /// Segment holding global cold chunk `c`, plus the segment-local
    /// chunk index.
    fn locate(&self, c: usize) -> (&ColdSegment, usize) {
        let row = (c * self.chunk) as u64;
        let seg = self
            .segs
            .iter()
            .find(|s| s.meta.start <= row && row < s.meta.end)
            .unwrap_or_else(|| {
                panic!(
                    "provdb: cold chunk {c} of shard {} has no attached segment",
                    self.shard
                )
            });
        (seg, (row - seg.meta.start) as usize / self.chunk)
    }

    /// Whether the on-disk zone maps prove no row of cold chunk `c` can
    /// satisfy all predicates — decided from the footer alone, before any
    /// document byte is read. Conservative, exactly like the in-memory
    /// [`columnar::ColumnarShard::chunk_prunable`].
    pub(crate) fn chunk_prunable(&self, preds: &[ColPredicate<'_>], c: usize) -> bool {
        let (seg, lc) = self.locate(c);
        let prunable = seg.zones.chunks[lc].decodable == 0
            || preds.iter().any(|p| {
                seg.zones
                    .chunk_skips(p, seg.local(p.field()), lc, self.chunk as u32)
            });
        if prunable {
            self.core.note_zone_skip();
        }
        prunable
    }

    /// The cols page of cold chunk `c`, resident or freshly paged.
    pub(crate) fn cols(&self, c: usize) -> Arc<ColumnarShard> {
        let page = self.core.get((self.shard, c, PageKind::Cols), || {
            let (seg, lc) = self.locate(c);
            let cols = seg.load_cols(lc);
            let bytes = cols.heap_bytes();
            (Page::Cols(Arc::new(cols)), bytes)
        });
        match page {
            Page::Cols(cols) => cols,
            Page::Docs(_) => unreachable!("a cols key holds a cols page"),
        }
    }

    /// The docs page of cold chunk `c`, resident or freshly paged.
    pub(crate) fn docs(&self, c: usize) -> Arc<[Arc<Value>]> {
        let page = self.core.get((self.shard, c, PageKind::Docs), || {
            let (seg, lc) = self.locate(c);
            let (docs, raw) = seg.load_docs(lc);
            // Decoded trees cost more than the wire bytes, even with each
            // distinct string shared page-wide (see `wal::SymTable`); a
            // fixed scale keeps accounting cheap and monotone.
            let bytes = raw * 4 + docs.len() * 96;
            (Page::Docs(docs.into()), bytes)
        });
        match page {
            Page::Docs(docs) => docs,
            Page::Cols(_) => unreachable!("a docs key holds a docs page"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::{read_footer, write_segment};
    use dataframe::CmpOp;
    use prov_model::{obj, TaskMessageBuilder};
    use std::path::{Path, PathBuf};

    const CHUNK: usize = 8;

    /// A scratch directory, removed on drop.
    struct Scratch(PathBuf);

    impl Scratch {
        fn new(tag: &str) -> Self {
            let dir =
                std::env::temp_dir().join(format!("provdb-pager-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            Self(dir)
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// Every column of `reg`.
    fn fields(reg: &Registry) -> Vec<ColField> {
        (0..reg.len() as u32).map(ColField).collect()
    }

    /// Well-formed tasks mixed with undecodable documents and decodable
    /// rows that miss hot fields and carry NaN cells; dataflow cells of
    /// both kinds, one of them only in later chunks, and lineage.
    fn corpus(n: usize) -> Vec<Arc<Value>> {
        (0..n)
            .map(|i| {
                Arc::new(match i % 5 {
                    0 => obj! {"task_id" => format!("t{i}")},
                    1 => obj! {
                        "task_id" => format!("t{i}"), "workflow_id" => "wf",
                        "activity_id" => "act-1", "started_at" => f64::NAN,
                        "generated" => obj! {"y" => f64::NAN},
                    },
                    _ => {
                        let mut b = TaskMessageBuilder::new(
                            format!("t{i}"),
                            format!("wf-{}", i / 10),
                            format!("act-{}", i % 3),
                        )
                        .span(i as f64, i as f64 + 0.5)
                        .generates("y", i as f64 * 2.0);
                        if i % 3 == 0 {
                            b = b.depends_on(format!("t{}", i - 1));
                        }
                        if i >= 2 * CHUNK {
                            b = b.uses("mode", format!("m{}", i % 2));
                        }
                        b.build().to_value()
                    }
                })
            })
            .collect()
    }

    /// Seal `docs` (whole chunks) as shard 0's only segment; returns the
    /// resident sidecar the segment was sealed from, its registry, and the
    /// segment, attached from its footer on disk.
    fn seal(dir: &Path, docs: &[Arc<Value>]) -> (ColumnarShard, Registry, ColdSegment) {
        let mut cols = ColumnarShard::with_chunk(CHUNK);
        let mut reg = Registry::default();
        for d in docs {
            cols.push_doc(d, &mut reg);
        }
        let (zones, runs) = segment::export(&cols, 0, docs.len(), &reg).unwrap();
        let meta = SegmentMeta::new(dir, 1, 0, 0, CHUNK as u32, docs.len());
        write_segment(&meta, docs, &runs, &zones).unwrap();
        (cols, reg, attach(meta))
    }

    /// Attach a written segment the way a lazy open does.
    fn attach(meta: SegmentMeta) -> ColdSegment {
        let file = File::open(&meta.path).unwrap();
        let footer = read_footer(&meta).unwrap();
        ColdSegment::new(meta, file, footer.zones, footer.layout.unwrap())
    }

    fn survivors(cols: &ColumnarShard, c: usize, preds: &[ColPredicate<'_>]) -> Vec<u32> {
        let mut sel = Vec::new();
        cols.filter_chunk(&cols.compile(preds), c, &mut sel);
        sel
    }

    fn cold_shard(
        docs: &[Arc<Value>],
        seg: ColdSegment,
        budget: usize,
    ) -> (ColdShard, Arc<PagerCore>) {
        let core = Arc::new(PagerCore::new(budget));
        let mut cold = ColdShard::new(docs.len(), CHUNK, vec![seg], Arc::clone(&core), 0);
        cold.bind(&mut Registry::default());
        (cold, core)
    }

    /// A segment pages cells equal to the sidecar it was sealed from
    /// (undecodable rows, missing hot fields, NaN cells, lineage and
    /// discovered columns included), its footer prunes soundly, its docs
    /// pages equal the sealed documents, and a cols page decodes no
    /// document.
    #[test]
    fn paged_chunks_equal_the_sidecar_they_were_sealed_from() {
        let docs = corpus(CHUNK * 4);
        let lits = [
            Value::Float(0.0),
            Value::Float(12.0),
            Value::Float(f64::NAN),
            Value::Null,
            Value::from("wf"),
            Value::from("act-1"),
            Value::from("t7"),
            Value::from("m1"),
        ];
        let list = [Value::from("act-1"), Value::Null, Value::Float(3.0)];
        let ops = [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ];
        let show = |d: &[Arc<Value>]| format!("{d:?}");
        let chunks = (docs.len() / CHUNK) as u64;
        let dir = Scratch::new("eq");
        let (resident, reg, seg) = seal(&dir.0, &docs);
        let (cold, core) = cold_shard(&docs, seg, usize::MAX);
        for c in 0..docs.len() / CHUNK {
            let base = c * CHUNK;
            let paged = cold.cols(c);
            assert_eq!(paged.len(), CHUNK);
            // Debug output tells NaN cells apart from nulls.
            assert_eq!(show(&cold.docs(c)), show(&docs[base..base + CHUNK]));
            for r in 0..CHUNK {
                assert_eq!(paged.is_decodable(r), resident.is_decodable(base + r));
                for f in fields(&reg) {
                    assert_eq!(
                        format!("{:?}", paged.value(r, f)),
                        format!("{:?}", resident.value(base + r, f)),
                        "row {} column {}",
                        base + r,
                        reg.name(f)
                    );
                }
            }
            for f in fields(&reg) {
                for n in 0..=CHUNK {
                    assert_eq!(
                        paged.present_prefix(f, n),
                        resident.present_prefix(f, base + n) - resident.present_prefix(f, base),
                    );
                }
                let mut preds: Vec<Vec<ColPredicate<'_>>> = vec![
                    vec![ColPredicate::In(f, &list)],
                    vec![ColPredicate::Present(f, true)],
                    vec![ColPredicate::Present(f, false)],
                ];
                if reg.kind(f) == columnar::Kind::Flag {
                    preds.truncate(0);
                    preds.push(vec![ColPredicate::Present(f, true)]);
                    preds.push(vec![ColPredicate::Present(f, false)]);
                }
                for op in ops {
                    if reg.kind(f) != columnar::Kind::Flag {
                        preds.extend(lits.iter().map(|lit| vec![ColPredicate::Cmp(f, op, lit)]));
                    }
                }
                for p in &preds {
                    let want: Vec<u32> = survivors(&resident, c, p)
                        .into_iter()
                        .map(|s| s - base as u32)
                        .collect();
                    assert_eq!(survivors(&paged, 0, p), want, "chunk {c}: {p:?}");
                    // A pruned chunk has no survivor.
                    if cold.chunk_prunable(p, c) {
                        assert!(want.is_empty(), "chunk {c} pruned: {p:?}");
                    }
                }
            }
        }
        let s = core.stats();
        assert_eq!((s.paged_in, s.paged_in_docs), (2 * chunks, chunks));
        // A cols page reads its column block only.
        let (_, _, seg) = seal(&dir.0, &docs);
        let (cold, core) = cold_shard(&docs, seg, usize::MAX);
        for c in 0..docs.len() / CHUNK {
            cold.cols(c);
        }
        let s = core.stats();
        assert_eq!((s.paged_in, s.paged_in_docs), (chunks, 0));
    }

    #[test]
    fn a_budget_below_one_chunk_keeps_only_the_chunk_being_read() {
        let dir = Scratch::new("lru");
        let docs = corpus(CHUNK * 3);
        let counts = |core: &PagerCore| {
            let s = core.stats();
            (s.hits, s.paged_in, s.evicted, s.resident_chunks)
        };

        let (_, _, seg) = seal(&dir.0, &docs);
        let (cold, core) = cold_shard(&docs, seg, 1);
        let first = cold.docs(0);
        assert_eq!(counts(&core), (0, 1, 1, 0));
        let second = cold.docs(1);
        assert_eq!(counts(&core), (0, 2, 2, 0));
        // Evicted pages stay valid for their readers; a re-read pages in.
        let again = cold.docs(0);
        assert_eq!(counts(&core), (0, 3, 3, 0));
        // Debug output compares NaN cells too.
        let show = |d: &[Arc<Value>]| format!("{d:?}");
        assert_eq!(show(&first), show(&again));
        assert_eq!(show(&second), show(&docs[CHUNK..2 * CHUNK]));
        cold.cols(0);
        assert_eq!(counts(&core), (0, 4, 4, 0));
        assert_eq!(core.stats().resident_bytes, 0);

        // With room to spare, a re-read is a hit and nothing is evicted;
        // the two pages of a chunk are cached apart.
        let (_, _, seg) = seal(&dir.0, &docs);
        let (cold, core) = cold_shard(&docs, seg, usize::MAX);
        cold.docs(0);
        cold.docs(0);
        assert_eq!(counts(&core), (1, 1, 0, 1));
        let cols = cold.cols(0);
        cold.cols(0);
        assert_eq!(counts(&core), (2, 2, 0, 2));
        // A cols page is accounted at its real heap bytes.
        let docs_bytes = (core.stats().resident_bytes as usize) - cols.heap_bytes();
        assert!(
            cols.heap_bytes() < docs_bytes,
            "cols page outweighs the docs page"
        );
    }

    #[test]
    fn footer_pruning_counts_a_zone_skip_and_pages_nothing() {
        let dir = Scratch::new("prune");
        let docs = corpus(CHUNK * 3);
        let (_, _, seg) = seal(&dir.0, &docs);
        let (cold, core) = cold_shard(&docs, seg, usize::MAX);
        let act = columnar::lookup("activity_id").unwrap();
        let absent = Value::from("no-such-activity");
        let present = Value::from("act-1");
        for c in 0..cold.n_chunks() {
            assert!(cold.chunk_prunable(&[ColPredicate::Cmp(act, CmpOp::Eq, &absent)], c));
            assert!(!cold.chunk_prunable(&[ColPredicate::Cmp(act, CmpOp::Eq, &present)], c));
        }
        let s = core.stats();
        assert_eq!(s.zone_skips, cold.n_chunks() as u64);
        assert_eq!((s.paged_in, s.hits, s.resident_chunks), (0, 0, 0));
    }

    /// A flipped byte inside one chunk's column block trips that block's
    /// CRC when the chunk's cols page loads — the same page fault as a
    /// torn record, never a different answer. Other chunks' blocks and
    /// the chunk's own documents still page.
    #[test]
    fn a_flipped_column_block_byte_faults_its_page() {
        let dir = Scratch::new("flip");
        let docs = corpus(CHUNK * 3);
        let (_, _, seg) = seal(&dir.0, &docs);
        let blocks = seg.layout.cols.clone();
        let meta = seg.meta.clone();
        drop(seg);
        let mut bytes = std::fs::read(&meta.path).unwrap();
        bytes[(blocks[1] + 5) as usize] ^= 0x40;
        std::fs::write(&meta.path, &bytes).unwrap();

        let (cold, _) = cold_shard(&docs, attach(meta), usize::MAX);
        cold.cols(0);
        cold.cols(2);
        assert_eq!(cold.docs(1).len(), CHUNK);
        let fault = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cold.cols(1);
        }))
        .expect_err("a corrupt column block must fault");
        let msg = fault.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            msg.contains("column block checksum mismatch"),
            "unexpected fault: {msg}"
        );
    }
}
