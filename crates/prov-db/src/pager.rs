//! Out-of-core read path over sealed segments: lazy chunk paging with a
//! bounded resident set.
//!
//! A durable store opened lazily ([`crate::store::ProvenanceDatabase::open`])
//! does not re-ingest its sealed history. Instead each document-store shard
//! carries a [`ColdShard`]: the sealed, chunk-aligned row prefix stays on
//! disk and is described only by per-segment metadata plus the parsed zone
//! footer ([`crate::segment::ZoneTables`]). Queries consult the footer zone
//! maps *before any I/O* — a chunk the zones prove predicate-free is never
//! read — and page the rest in whole [`chunk_rows`]-sized chunks through a
//! process-wide byte budget (`PROVDB_RESIDENT_MB`, LRU eviction), so the
//! resident set stays bounded no matter how large the corpus is.
//!
//! ## Exactness
//!
//! A paged chunk is built by the ingest code, so there is nothing to
//! mirror: every record is CRC-verified, decoded with the WAL's canonical
//! codec, and appended through the same [`crate::columnar::extract`] and
//! [`ColumnarShard::push_row`] calls ingest makes, into a one-chunk
//! [`ColumnarShard`]. The document store's kernels then read a paged chunk
//! and a resident shard through the same code, compiled against the
//! chunk's own dictionaries. The out-of-core differential suite pins the
//! result: a store reopened with a tiny budget answers every golden and
//! random pipeline byte-identically to a fully-resident one.
//!
//! ## Immutability and locking
//!
//! Sealed rows sit below every snapshot high-water mark and are immutable
//! by construction, so paged reads need no coordination with writers: each
//! [`ColdSegment`] keeps the `File` handle it was attached with and serves
//! chunk loads with positional reads (`read_exact_at`), which share no
//! cursor and take no lock. Compaction may unlink or replace a segment
//! file at any time; the held descriptor keeps the original immutable
//! bytes readable (POSIX unlink semantics), so scans race nothing.
//!
//! Paging failures (I/O error, checksum mismatch) are store corruption
//! discovered after open — like the WAL append path, they panic with the
//! failing path rather than silently dropping rows.

use crate::columnar::{self, ColField, ColPredicate, ColumnarShard};
use crate::segment::{SegmentMeta, ZoneTables};
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

/// Byte length of a segment file's fixed header (magic + metadata:
/// 6 + 4 + 4 + 8 + 8 + 4 + 4), i.e. where the document records begin.
const DATA_START: u64 = 38;

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
/// stores and eagerly opened stores, which never page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PagerStats {
    /// Chunk reads served from the resident set.
    pub hits: u64,
    /// Chunks paged in from disk.
    pub paged_in: u64,
    /// Chunks evicted to stay under the byte budget.
    pub evicted: u64,
    /// Cold chunks skipped via the on-disk zone maps before any I/O.
    pub zone_skips: u64,
    /// Paged chunks currently resident.
    pub resident_chunks: u64,
    /// Estimated bytes of the resident paged chunks.
    pub resident_bytes: u64,
}

/// One cold chunk, fully hydrated: the decoded documents plus a one-chunk
/// [`ColumnarShard`] built by the same `push_row` ingest runs, so every
/// kernel reads it exactly like a resident shard.
pub(crate) struct PagedChunk {
    /// Decoded documents in slot order.
    pub(crate) docs: Vec<Arc<Value>>,
    /// The chunk's column vectors, dictionaries and zone map (chunk 0).
    pub(crate) cols: ColumnarShard,
    /// Resident-set accounting estimate: raw record bytes scaled for the
    /// decoded tree plus a per-row constant for the cell vectors.
    bytes: usize,
}

/// Fail loudly on a cold read that cannot be served: sealed bytes were
/// readable at attach time, so this is post-open corruption or a dying
/// disk — continuing would silently drop rows from query answers.
fn page_fault(msg: &str, meta: &SegmentMeta) -> ! {
    panic!("provdb: cold segment {msg}: {}", meta.path.display());
}

/// One sealed segment attached for paging: its metadata, the parsed zone
/// footer, the held file descriptor, and the lazily built chunk offset
/// table.
pub(crate) struct ColdSegment {
    meta: SegmentMeta,
    file: File,
    zones: ZoneTables,
    /// Byte offset of each chunk boundary in the record region
    /// (`n_chunks + 1` entries), built on first touch with one buffered
    /// walk over the record headers — no payload is decoded.
    offsets: OnceLock<Vec<u64>>,
}

impl ColdSegment {
    pub(crate) fn new(meta: SegmentMeta, file: File, zones: ZoneTables) -> Self {
        Self {
            meta,
            file,
            zones,
            offsets: OnceLock::new(),
        }
    }

    /// Positional read filling `buf` entirely, tolerating short reads.
    fn read_full_at(&self, buf: &mut [u8], pos: u64) {
        if let Err(e) = self.file.read_exact_at(buf, pos) {
            page_fault(&format!("read failed ({e})"), &self.meta);
        }
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

    /// Read, verify, decode, and extract one chunk of documents. `lc` is
    /// the chunk index local to this segment.
    fn load_chunk(&self, lc: usize) -> PagedChunk {
        let offs = self.offsets();
        let (a, b) = (offs[lc], offs[lc + 1]);
        let mut raw = vec![0u8; (b - a) as usize];
        self.read_full_at(&mut raw, a);
        let chunk = self.meta.chunk as usize;
        let rows = chunk.min(self.meta.n_docs as usize - lc * chunk);
        let mut docs = Vec::with_capacity(rows);
        let mut cols = ColumnarShard::with_chunk(chunk);
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
            // The same extraction and append ingest runs: the paged cells
            // are the ones the resident sidecar held when this chunk was
            // sealed. The pushdown masks come from the footer instead.
            cols.push_row(columnar::extract(&doc));
            docs.push(Arc::new(doc));
        }
        // Decoded trees and interned symbols cost more than the wire
        // bytes; a fixed scale keeps accounting cheap and monotone.
        let bytes = raw.len() * 4 + rows * 96;
        PagedChunk { docs, cols, bytes }
    }
}

struct LruInner {
    /// `(shard, global cold chunk) → (last-used tick, chunk)`.
    map: HashMap<(usize, usize), (u64, Arc<PagedChunk>)>,
    bytes: usize,
    tick: u64,
}

/// The store-wide paged-chunk cache: a byte budget, an LRU map, and the
/// stat counters surfaced through [`PagerStats`]. Shaped like
/// [`crate::cache::PlanCache`]'s ledger — atomics for the monotone
/// counters, one short-lived mutex for the resident map, loads done
/// outside the lock.
pub(crate) struct PagerCore {
    budget: usize,
    inner: Mutex<LruInner>,
    hits: AtomicU64,
    paged_in: AtomicU64,
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
            evicted: AtomicU64::new(0),
            zone_skips: AtomicU64::new(0),
        }
    }

    /// Current counters.
    pub(crate) fn stats(&self) -> PagerStats {
        let (chunks, bytes) = {
            let inner = self.inner.lock();
            (inner.map.len() as u64, inner.bytes as u64)
        };
        PagerStats {
            hits: self.hits.load(Ordering::Relaxed),
            paged_in: self.paged_in.load(Ordering::Relaxed),
            evicted: self.evicted.load(Ordering::Relaxed),
            zone_skips: self.zone_skips.load(Ordering::Relaxed),
            resident_chunks: chunks,
            resident_bytes: bytes,
        }
    }

    fn note_zone_skip(&self) {
        self.zone_skips.fetch_add(1, Ordering::Relaxed);
    }

    /// Resident chunk for `key`, loading with `load` on a miss. The load
    /// runs outside the lock; a racing double-load keeps the first copy.
    /// Eviction drops least-recently-used chunks until the budget holds —
    /// readers keep their `Arc`s, so an evicted chunk stays valid until
    /// its last user drops it.
    fn get(&self, key: (usize, usize), load: impl FnOnce() -> PagedChunk) -> Arc<PagedChunk> {
        {
            let mut inner = self.inner.lock();
            inner.tick += 1;
            let tick = inner.tick;
            if let Some(entry) = inner.map.get_mut(&key) {
                entry.0 = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Arc::clone(&entry.1);
            }
        }
        let chunk = Arc::new(load());
        self.paged_in.fetch_add(1, Ordering::Relaxed);
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.entry(key) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                // Lost a load race; keep the resident copy.
                e.get_mut().0 = tick;
                return Arc::clone(&e.get().1);
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert((tick, Arc::clone(&chunk)));
            }
        }
        inner.bytes += chunk.bytes;
        while inner.bytes > self.budget && !inner.map.is_empty() {
            let oldest = inner
                .map
                .iter()
                .min_by_key(|(_, (t, _))| *t)
                .map(|(k, _)| *k)
                .expect("non-empty map");
            if let Some((_, dropped)) = inner.map.remove(&oldest) {
                inner.bytes -= dropped.bytes;
                self.evicted.fetch_add(1, Ordering::Relaxed);
            }
            if oldest == key {
                // Even the fresh chunk may exceed the budget on its own;
                // the caller's Arc keeps it alive for this read.
                break;
            }
        }
        chunk
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
            sum += self.chunk(full).cols.present_prefix(f, boundary);
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

    /// The resident (or freshly paged) cold chunk `c`.
    pub(crate) fn chunk(&self, c: usize) -> Arc<PagedChunk> {
        self.core.get((self.shard, c), || {
            let (seg, lc) = self.locate(c);
            seg.load_chunk(lc)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::write_segment;
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

    /// Seal `docs` (whole chunks) as shard 0's only segment; returns the
    /// resident sidecar the segment was sealed from and the attached
    /// segment.
    fn seal(dir: &Path, docs: &[Arc<Value>]) -> (ColumnarShard, ColdSegment) {
        let mut cols = ColumnarShard::with_chunk(CHUNK);
        for d in docs {
            cols.push_doc(d);
        }
        let zones = cols.export_zone_tables(0, docs.len()).unwrap();
        let meta = write_segment(dir, 1, 0, 0, CHUNK as u32, docs, &zones).unwrap();
        let file = File::open(&meta.path).unwrap();
        (cols, ColdSegment::new(meta, file, zones))
    }

    fn survivors(cols: &ColumnarShard, c: usize, preds: &[ColPredicate<'_>]) -> Vec<u32> {
        let mut sel = Vec::new();
        cols.filter_chunk(&cols.compile(preds), c, &mut sel);
        sel
    }

    #[test]
    fn paged_chunks_equal_the_sidecar_they_were_sealed_from() {
        let dir = Scratch::new("eq");
        let docs = corpus(CHUNK * 4);
        let (resident, seg) = seal(&dir.0, &docs);
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
        for c in 0..docs.len() / CHUNK {
            let paged = seg.load_chunk(c);
            let base = c * CHUNK;
            assert_eq!(paged.docs.len(), CHUNK);
            for r in 0..CHUNK {
                assert_eq!(
                    format!("{:?}", paged.docs[r]),
                    format!("{:?}", docs[base + r])
                );
                assert_eq!(
                    paged.cols.is_decodable(r),
                    resident.is_decodable(base + r),
                    "decodable, row {}",
                    base + r
                );
                for f in fields() {
                    // Debug output tells NaN cells apart from nulls.
                    assert_eq!(
                        format!("{:?}", paged.cols.value(r, f)),
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
                        paged.cols.present_prefix(f, n),
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
                    assert_eq!(survivors(&paged.cols, 0, p), want, "chunk {c}: {p:?}");
                }
            }
        }
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

    #[test]
    fn a_budget_below_one_chunk_keeps_only_the_chunk_being_read() {
        let dir = Scratch::new("lru");
        let docs = corpus(CHUNK * 3);
        let counts = |core: &PagerCore| {
            let s = core.stats();
            (s.hits, s.paged_in, s.evicted, s.resident_chunks)
        };

        let (_, seg) = seal(&dir.0, &docs);
        let (cold, core) = cold_shard(&docs, seg, 1);
        let first = cold.chunk(0);
        assert_eq!(counts(&core), (0, 1, 1, 0));
        let second = cold.chunk(1);
        assert_eq!(counts(&core), (0, 2, 2, 0));
        // Evicted chunks stay valid for their readers; a re-read pages in.
        let again = cold.chunk(0);
        assert_eq!(counts(&core), (0, 3, 3, 0));
        // Debug output compares NaN cells too.
        let show = |d: &[Arc<Value>]| format!("{d:?}");
        assert_eq!(show(&first.docs), show(&again.docs));
        assert_eq!(show(&second.docs), show(&docs[CHUNK..2 * CHUNK]));
        assert_eq!(core.stats().resident_bytes, 0);

        // With room to spare, a re-read is a hit and nothing is evicted.
        let (_, seg) = seal(&dir.0, &docs);
        let (cold, core) = cold_shard(&docs, seg, usize::MAX);
        cold.chunk(0);
        cold.chunk(0);
        assert_eq!(counts(&core), (1, 1, 0, 1));
    }

    #[test]
    fn footer_pruning_counts_a_zone_skip_and_pages_nothing() {
        let dir = Scratch::new("prune");
        let docs = corpus(CHUNK * 3);
        let (_, seg) = seal(&dir.0, &docs);
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
}
