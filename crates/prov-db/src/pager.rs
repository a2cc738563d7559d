//! Out-of-core read path over sealed segments: lazy chunk paging with a
//! bounded resident set.
//!
//! A durable store opened lazily ([`crate::store::ProvenanceDatabase::open`])
//! does not re-ingest its sealed history. Instead each document-store shard
//! carries a [`ColdShard`]: the sealed, chunk-aligned row prefix stays on
//! disk and is described only by per-segment metadata plus the parsed
//! footer ([`crate::segment::Footer`]). Queries consult the footer zone
//! maps *before any I/O* — a chunk the zones prove predicate-free is never
//! read — and page the rest per [`chunk_rows`]-sized chunk through a
//! process-wide byte budget (`PROVDB_RESIDENT_MB`, LRU eviction), so the
//! resident set stays bounded no matter how large the corpus is.
//!
//! ## Pages
//!
//! A cold chunk has two pages, kept under the one LRU and the one budget:
//!
//! * its **cols page**, a one-chunk [`ColumnarShard`] that every columnar
//!   kernel reads. A `PSEG2` segment serves it with one positional read
//!   and one CRC check of the chunk's column block; no document is
//!   decoded. It is accounted at its real heap bytes.
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
//! the footer's dictionary snapshot) and raw float bits, and the page is
//! rebuilt through the same [`ColumnarShard::push_row`] ingest runs, so
//! even its dictionaries come out in the same first-appearance order. A
//! `PSEG1` segment has no blocks: its cols page is derived from its docs
//! page with [`columnar::extract`], the ingest extraction. Docs pages are
//! CRC-verified record by record and decoded with the WAL's canonical
//! codec. The document store's kernels then read a paged chunk and a
//! resident shard through the same code, compiled against the chunk's own
//! dictionaries. The out-of-core differential suite pins the result: a
//! store reopened with a tiny budget answers every golden and random
//! pipeline byte-identically to a fully-resident one.
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
//!
//! [`chunk_rows`]: crate::columnar::chunk_rows

use crate::columnar::{self, ColField, ColPredicate, ColumnarShard};
use crate::segment::{self, Footer, SegmentMeta, ZoneTables, DATA_START};
use crate::wal::{crc32, decode_value};
use parking_lot::Mutex;
use prov_model::Value;
use std::collections::HashMap;
use std::fs::File;
use std::os::unix::fs::FileExt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Default resident-set budget for paged cold chunks (256 MiB).
pub(crate) const DEFAULT_RESIDENT_BYTES: usize = 256 << 20;

/// `PROVDB_RESIDENT_MB` as bytes, when set to a positive integer.
pub(crate) fn env_resident_bytes() -> Option<usize> {
    std::env::var("PROVDB_RESIDENT_MB")
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .filter(|&n| n > 0)
        .map(|n| (n as usize) << 20)
}

/// Observability counters of the chunk pager (see
/// [`crate::ProvenanceDatabase::pager_stats`]). All zeros on in-memory
/// stores and eagerly opened stores, which never page. A *page* is one
/// cold chunk's cols page (its column cells) or its docs page (its
/// decoded documents); see the [module docs](self).
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

/// One sealed segment attached for paging: its metadata, the parsed zone
/// footer, the held file descriptor, and where each chunk's bytes sit.
pub(crate) struct ColdSegment {
    meta: SegmentMeta,
    file: File,
    zones: ZoneTables,
    /// Column-block bounds (`n_chunks + 1` offsets) from a `PSEG2`
    /// footer; `None` for a `PSEG1` file, which has no blocks.
    blocks: Option<Vec<u64>>,
    /// Document-record bounds per chunk (`n_chunks + 1` offsets): set
    /// from a `PSEG2` footer at attach, or built on first touch of a
    /// `PSEG1` file with one buffered walk over the record headers — no
    /// payload is decoded.
    offsets: OnceLock<Vec<u64>>,
}

impl ColdSegment {
    pub(crate) fn new(meta: SegmentMeta, file: File, footer: Footer) -> Self {
        let offsets = OnceLock::new();
        let blocks = footer.layout.map(|layout| {
            let _ = offsets.set(layout.docs);
            layout.cols
        });
        Self {
            meta,
            file,
            zones: footer.zones,
            blocks,
            offsets,
        }
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

    fn offsets(&self) -> &[u64] {
        self.offsets.get_or_init(|| {
            let n_docs = self.meta.n_docs as usize;
            let chunk = (self.meta.chunk as usize).max(1);
            let mut offs = Vec::with_capacity(n_docs / chunk + 2);
            let mut pos = DATA_START;
            // Buffered header walk: records are length-prefixed, so one
            // sequential pass over `[len][crc]` pairs locates every chunk
            // boundary without decoding a payload.
            let mut buf = vec![0u8; 256 * 1024];
            let mut buf_start = 0u64;
            let mut buf_len = 0usize;
            let file_len = self
                .file
                .metadata()
                .map(|m| m.len())
                .unwrap_or_else(|e| page_fault(&format!("stat failed ({e})"), &self.meta));
            for i in 0..n_docs {
                if i % chunk == 0 {
                    offs.push(pos);
                }
                if pos < buf_start || pos + 8 > buf_start + buf_len as u64 {
                    buf_start = pos;
                    buf_len = (file_len.saturating_sub(pos) as usize).min(buf.len());
                    if buf_len < 8 {
                        page_fault("record header overruns file", &self.meta);
                    }
                    self.read_full_at(&mut buf[..buf_len], pos);
                }
                let o = (pos - buf_start) as usize;
                let len = u32::from_le_bytes(buf[o..o + 4].try_into().expect("4 bytes"));
                pos += 8 + len as u64;
            }
            offs.push(pos);
            offs
        })
    }

    /// Read, verify, and decode the documents of segment-local chunk
    /// `lc`. Returns them with the raw bytes read.
    fn load_docs(&self, lc: usize) -> (Vec<Arc<Value>>, usize) {
        let offs = self.offsets();
        let raw = self.read_range(offs[lc], offs[lc + 1]);
        let rows = self.rows(lc);
        let mut docs = Vec::with_capacity(rows);
        let mut pos = 0usize;
        for _ in 0..rows {
            let header: [u8; 8] = raw
                .get(pos..pos + 8)
                .and_then(|b| b.try_into().ok())
                .unwrap_or_else(|| page_fault("torn record", &self.meta));
            let len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes")) as usize;
            let crc = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
            pos += 8;
            let payload = raw
                .get(pos..pos + len)
                .unwrap_or_else(|| page_fault("torn record", &self.meta));
            pos += len;
            if crc32(&[payload]) != crc {
                page_fault("record checksum mismatch", &self.meta);
            }
            let mut dpos = 0usize;
            let doc = decode_value(payload, &mut dpos)
                .filter(|_| dpos == len)
                .unwrap_or_else(|| page_fault("undecodable record", &self.meta));
            docs.push(Arc::new(doc));
        }
        if pos != raw.len() {
            page_fault("torn record", &self.meta);
        }
        (docs, raw.len())
    }

    /// Read and verify the column block of segment-local chunk `lc` and
    /// decode it into a one-chunk shard; `None` for a `PSEG1` file.
    fn load_cols(&self, lc: usize) -> Option<ColumnarShard> {
        let blocks = self.blocks.as_ref()?;
        let block = self.read_range(blocks[lc], blocks[lc + 1]);
        let chunk = self.meta.chunk as usize;
        Some(
            segment::decode_col_block(&block, self.rows(lc), chunk, &self.zones.str_dicts)
                .unwrap_or_else(|fault| page_fault(fault, &self.meta)),
        )
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
        while inner.bytes > self.budget && !inner.map.is_empty() {
            let oldest = inner
                .map
                .iter()
                .min_by_key(|(_, (t, _, _))| *t)
                .map(|(k, _)| *k)
                .expect("non-empty map");
            if let Some((_, _, dropped)) = inner.map.remove(&oldest) {
                inner.bytes -= dropped;
                self.evicted.fetch_add(1, Ordering::Relaxed);
            }
            if oldest == key {
                // Even the fresh page may exceed the budget on its own;
                // the caller's Arc keeps it alive for this read.
                break;
            }
        }
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
    /// Present cells per field over the cold rows, summed from the
    /// footer zone maps at attach time (no I/O at query time).
    present: [usize; columnar::STR_FIELDS.len() + columnar::F64_FIELDS.len()],
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
        let mut present = [0usize; columnar::STR_FIELDS.len() + columnar::F64_FIELDS.len()];
        for seg in &segs {
            let covered = (seg.meta.end.min(rows as u64) - seg.meta.start) as usize;
            let chunks = covered / chunk.max(1);
            for (i, zones) in seg.zones.str_zones.iter().enumerate() {
                present[i] += zones[..chunks]
                    .iter()
                    .map(|&(_, _, p)| p as usize)
                    .sum::<usize>();
            }
            for (i, zones) in seg.zones.f64_zones.iter().enumerate() {
                present[columnar::STR_FIELDS.len() + i] += zones[..chunks]
                    .iter()
                    .map(|&(_, _, p, _)| p as usize)
                    .sum::<usize>();
            }
        }
        Self {
            rows,
            chunk,
            segs,
            core,
            shard,
            present,
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
        match f {
            ColField::Str(i) => self.present[i],
            ColField::F64(i) => self.present[columnar::STR_FIELDS.len() + i],
        }
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
            sum += match f {
                ColField::Str(i) => seg.zones.str_zones[i][lc].2 as usize,
                ColField::F64(i) => seg.zones.f64_zones[i][lc].2 as usize,
            };
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
        let prunable = seg.zones.chunk_decodable[lc] == 0
            || preds.iter().any(|p| match p {
                ColPredicate::Cmp(f, op, lit) => {
                    seg.zones
                        .chunk_skips(columnar::field_name(*f), *op, lit, lc, self.chunk as u32)
                }
                // In-lists have no footer test; never prune on them.
                ColPredicate::In(..) => false,
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
            let cols = seg.load_cols(lc).unwrap_or_else(|| {
                // A `PSEG1` segment has no column blocks: derive the page
                // from the docs page with the extraction ingest runs.
                let mut cols = ColumnarShard::with_chunk(self.chunk);
                for doc in self.docs(c).iter() {
                    cols.push_row(columnar::extract(doc));
                }
                cols
            });
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
            // Decoded trees and interned symbols cost more than the wire
            // bytes; a fixed scale keeps accounting cheap and monotone.
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
    use crate::segment::{col_runs, read_footer, write_segment, write_segment_pseg1, Format};
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

    /// Every columnar field.
    fn fields() -> Vec<ColField> {
        (0..columnar::STR_FIELDS.len())
            .map(ColField::Str)
            .chain((0..columnar::F64_FIELDS.len()).map(ColField::F64))
            .collect()
    }

    /// Well-formed tasks mixed with undecodable documents and decodable
    /// rows that miss hot fields and carry NaN cells.
    fn corpus(n: usize) -> Vec<Arc<Value>> {
        (0..n)
            .map(|i| {
                Arc::new(match i % 5 {
                    0 => obj! {"task_id" => format!("t{i}")},
                    1 => obj! {
                        "task_id" => format!("t{i}"), "workflow_id" => "wf",
                        "activity_id" => "act-1", "started_at" => f64::NAN,
                    },
                    _ => TaskMessageBuilder::new(
                        format!("t{i}"),
                        format!("wf-{}", i / 10),
                        format!("act-{}", i % 3),
                    )
                    .span(i as f64, i as f64 + 0.5)
                    .build()
                    .to_value(),
                })
            })
            .collect()
    }

    /// Seal `docs` (whole chunks) in `format` as shard 0's only segment;
    /// returns the resident sidecar the segment was sealed from and the
    /// segment, attached from its footer on disk.
    fn seal(dir: &Path, docs: &[Arc<Value>], format: Format) -> (ColumnarShard, ColdSegment) {
        let mut cols = ColumnarShard::with_chunk(CHUNK);
        for d in docs {
            cols.push_doc(d);
        }
        let zones = cols.export_zone_tables(0, docs.len()).unwrap();
        let meta = SegmentMeta::new(dir, 1, 0, 0, CHUNK as u32, docs.len());
        let meta = match format {
            Format::Pseg2 => {
                write_segment(&meta, docs, &col_runs(&cols, 0, docs.len()), &zones).unwrap();
                meta
            }
            Format::Pseg1 => write_segment_pseg1(&meta, docs, &zones).unwrap(),
        };
        (cols, attach(meta))
    }

    /// Attach a written segment the way a lazy open does.
    fn attach(meta: SegmentMeta) -> ColdSegment {
        let file = File::open(&meta.path).unwrap();
        let footer = read_footer(&meta).unwrap();
        ColdSegment::new(meta, file, footer)
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
        (
            ColdShard::new(docs.len(), CHUNK, vec![seg], Arc::clone(&core), 0),
            core,
        )
    }

    /// Both formats page cells equal to the sidecar they were sealed from
    /// (undecodable rows, missing hot fields and NaN cells included), and
    /// the same rows sealed as `PSEG1` and as `PSEG2` page byte-identical
    /// cols and docs pages. A `PSEG2` cols page decodes no document.
    #[test]
    fn paged_chunks_equal_the_sidecar_they_were_sealed_from() {
        let docs = corpus(CHUNK * 4);
        let dir1 = Scratch::new("eq1");
        let dir2 = Scratch::new("eq2");
        let (resident, seg1) = seal(&dir1.0, &docs, Format::Pseg1);
        let (_, seg2) = seal(&dir2.0, &docs, Format::Pseg2);
        let (v1, core1) = cold_shard(&docs, seg1, usize::MAX);
        let (v2, core2) = cold_shard(&docs, seg2, usize::MAX);
        let lits = [
            Value::Float(0.0),
            Value::Float(12.0),
            Value::Float(f64::NAN),
            Value::Null,
            Value::from("wf"),
            Value::from("act-1"),
            Value::from("t7"),
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
        for c in 0..docs.len() / CHUNK {
            let base = c * CHUNK;
            let (cols1, cols2) = (v1.cols(c), v2.cols(c));
            assert_eq!(
                col_runs(&cols1, 0, CHUNK).bytes(),
                col_runs(&cols2, 0, CHUNK).bytes(),
                "chunk {c}: PSEG1 and PSEG2 cols pages differ"
            );
            for i in 0..columnar::STR_FIELDS.len() {
                assert_eq!(cols1.dict(i), cols2.dict(i), "chunk {c}: dictionary {i}");
            }
            // Debug output tells NaN cells apart from nulls.
            assert_eq!(show(&v1.docs(c)), show(&v2.docs(c)));
            assert_eq!(show(&v2.docs(c)), show(&docs[base..base + CHUNK]));
            let paged = &cols2;
            assert_eq!(paged.len(), CHUNK);
            for r in 0..CHUNK {
                assert_eq!(
                    paged.is_decodable(r),
                    resident.is_decodable(base + r),
                    "decodable, row {}",
                    base + r
                );
                for f in fields() {
                    assert_eq!(
                        format!("{:?}", paged.value(r, f)),
                        format!("{:?}", resident.value(base + r, f)),
                        "row {} field {}",
                        base + r,
                        columnar::field_name(f)
                    );
                }
            }
            for f in fields() {
                for n in 0..=CHUNK {
                    assert_eq!(
                        paged.present_prefix(f, n),
                        resident.present_prefix(f, base + n) - resident.present_prefix(f, base),
                    );
                }
                let mut preds: Vec<Vec<ColPredicate<'_>>> = vec![vec![ColPredicate::In(f, &list)]];
                for op in ops {
                    preds.extend(lits.iter().map(|lit| vec![ColPredicate::Cmp(f, op, lit)]));
                }
                for p in &preds {
                    let want: Vec<u32> = survivors(&resident, c, p)
                        .into_iter()
                        .map(|s| s - base as u32)
                        .collect();
                    assert_eq!(survivors(paged, 0, p), want, "chunk {c}: {p:?}");
                }
            }
        }
        // A PSEG1 cols page is derived from its docs page; a PSEG2 one
        // reads its column block only, until the docs are asked for.
        let chunks = (docs.len() / CHUNK) as u64;
        let (s1, s2) = (core1.stats(), core2.stats());
        assert_eq!((s1.paged_in, s1.paged_in_docs), (2 * chunks, chunks));
        assert_eq!((s2.paged_in, s2.paged_in_docs), (2 * chunks, chunks));
        let (_, seg2) = seal(&dir2.0, &docs, Format::Pseg2);
        let (cold, core) = cold_shard(&docs, seg2, usize::MAX);
        for c in 0..docs.len() / CHUNK {
            cold.cols(c);
        }
        assert_eq!(
            (core.stats().paged_in, core.stats().paged_in_docs),
            (chunks, 0)
        );
    }

    #[test]
    fn a_budget_below_one_chunk_keeps_only_the_chunk_being_read() {
        let dir = Scratch::new("lru");
        let docs = corpus(CHUNK * 3);
        let counts = |core: &PagerCore| {
            let s = core.stats();
            (s.hits, s.paged_in, s.evicted, s.resident_chunks)
        };

        let (_, seg) = seal(&dir.0, &docs, Format::Pseg2);
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
        let (_, seg) = seal(&dir.0, &docs, Format::Pseg2);
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
        let (_, seg) = seal(&dir.0, &docs, Format::Pseg2);
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
        let (_, seg) = seal(&dir.0, &docs, Format::Pseg2);
        let blocks = seg.blocks.clone().expect("PSEG2 has column blocks");
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
