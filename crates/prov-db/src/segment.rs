//! Sealed, immutable on-disk columnar segments.
//!
//! A durable store ([`crate::store::ProvenanceDatabase::open`]) period-
//! ically seals the already-materialized prefix of every document-store
//! shard to disk and rotates the sealed records out of the WAL. A
//! segment is one shard's rows `[start, end)` — always whole
//! `PROVDB_CHUNK`-row chunks, so the in-memory chunk zone maps of
//! [`crate::columnar`] (`StrZone`/`F64Zone`) can be serialized *as* the
//! segment footer instead of inventing a second pruning structure:
//! on-disk scans consult the footer and prune whole segments before
//! reading a single document.
//!
//! ## File layout (`seg-nNN-sSS-rAAAAAAAAAA-BBBBBBBBBB.seg`)
//!
//! ```text
//! "PSEG2\n"                                  magic (6 bytes)
//! [nshards u32][shard u32][start u64][end u64][chunk u32][n_docs u32]
//! n_docs × [len u32][crc u32][payload]       document region, slot order
//! n_chunks × column block                    column region, chunk order
//! footer                                     zone tables, then the layout
//! [footer_len u32][footer_crc u32]"PSEGF\n"  tail (14 bytes)
//! ```
//!
//! * `nshards` is the shard count **at seal time**. A segment covers
//!   shard `shard`'s slots `[start, end)`, i.e. the arrival indexes
//!   `{k : k % nshards == shard, start ≤ k / nshards < end}` — the
//!   facade routes arrivals round-robin, so this is self-describing
//!   even if the store is later reopened with a different shard count.
//! * Documents use the WAL's binary value codec, individually
//!   checksummed. The footer is the serialized zone tables plus the
//!   per-column dictionaries (codes are shard-local; the dictionary
//!   snapshot makes the code intervals meaningful after restart).
//! * A **column block** holds one chunk's columnar cells, so a scan can
//!   page the hot fields without decoding a document:
//!
//!   ```text
//!   decodable bitmap                   ceil(rows / 8) bytes, bit r = row r
//!   per string field: [width u8]       1, 2 or 4; 0 when every cell is null
//!                     rows × width     codes (LE) into the footer dictionary;
//!                                      all-ones is the null code
//!   per float field:  presence bitmap  ceil(rows / 8) bytes
//!                     present × u64    raw `f64` bits of the present cells
//!   [crc u32]                          over the block
//!   ```
//!
//!   The width is the narrowest that keeps every present code below the
//!   all-ones null code, chosen per block and field.
//! * The footer's **layout** table locates both regions per chunk:
//!   `[n_chunks u32]`, then `n_chunks + 1` document-record bounds and
//!   `n_chunks + 1` column-block bounds (absolute `u64` offsets).
//!   [`read_footer`] rejects a table that does not tile the file exactly.
//! * The tail makes the footer locatable without parsing the documents:
//!   [`read_footer`] reads 14 bytes from the end, then the footer.
//!
//! `PSEG1` files (the same header and records, no column region, a footer
//! without the layout table) stay readable; nothing writes them any more.
//!
//! Segments are written to a temp file, synced, and renamed into place;
//! a crash mid-seal leaves at most an ignorable `*.tmp`. **Compaction**
//! merges a shard's contiguous sealed runs into one `PSEG2` segment. When
//! every input is `PSEG2` and their dictionaries are prefix-compatible it
//! reuses their serialized chunk zones and copies their document records
//! and column blocks verbatim after checking every CRC. Otherwise (a
//! `PSEG1` input among them, or incompatible dictionaries) it rebuilds
//! zones and blocks from a fresh columnar pass. It deletes the inputs
//! after the rename; a crash in between leaves overlapping segments,
//! which [`scan_dir`] resolves by keeping the widest coverage and
//! deleting the contained leftovers.

use crate::columnar::{ColumnarShard, ExtractedRow, F64_FIELDS, NULL_CODE, STR_FIELDS};
use crate::wal::{crc32, decode_value, encode_value, sync_dir};
use dataframe::CmpOp;
use prov_model::{Sym, Value};
use std::fs::File;
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Magic of the row-file format, read but no longer written.
const MAGIC_V1: &[u8; 6] = b"PSEG1\n";
const MAGIC: &[u8; 6] = b"PSEG2\n";
const TAIL_MAGIC: &[u8; 6] = b"PSEGF\n";

/// Byte length of the fixed header (magic + metadata: 6 + 4 + 4 + 8 + 8
/// + 4 + 4), i.e. where the document records begin in both formats.
pub(crate) const DATA_START: u64 = 38;

/// The serialized form of one segment's chunk zone maps — exactly the
/// in-memory `StrZone`/`F64Zone` tables of [`crate::columnar`] for the
/// sealed chunk range, plus the per-column dictionary snapshot that
/// makes string codes meaningful across restarts.
pub(crate) struct ZoneTables {
    /// Per string column: the shard dictionary at seal time (`code →
    /// symbol`, first-appearance order — a prefix of any later dict).
    pub(crate) str_dicts: Vec<Vec<Sym>>,
    /// Per string column, per sealed chunk: `(min_code, max_code,
    /// present)` with the empty-interval sentinel `min > max`.
    pub(crate) str_zones: Vec<Vec<(u32, u32, u32)>>,
    /// Per float column, per sealed chunk: `(min, max, present, nan)`
    /// over the finite present cells (`min = ∞, max = -∞` when none).
    pub(crate) f64_zones: Vec<Vec<(f64, f64, u32, u32)>>,
    /// Decodable rows per sealed chunk.
    pub(crate) chunk_decodable: Vec<u32>,
    /// Store-wide irregular-column bitmask at seal time (the columnar
    /// sidecar's pushdown poison state). A lazily opened store ORs the
    /// masks of its attached segments instead of re-extracting every
    /// sealed document, which yields the same bits: every document's
    /// ingest report is folded into the store mask before its seal.
    pub(crate) irregular: u16,
    /// Store-wide telemetry-poison bitmask at seal time (same contract
    /// as [`irregular`](Self::irregular)).
    pub(crate) poison: u16,
}

impl ZoneTables {
    /// Canonical serialization (the byte-identity the round-trip tests
    /// pin): dictionaries, string zones, float zones (raw `f64` bits),
    /// decodable counts — all length-prefixed little-endian.
    pub(crate) fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_u32(&mut out, self.str_dicts.len() as u32);
        for dict in &self.str_dicts {
            put_u32(&mut out, dict.len() as u32);
            for sym in dict {
                let b = sym.as_str().as_bytes();
                put_u32(&mut out, b.len() as u32);
                out.extend_from_slice(b);
            }
        }
        put_u32(&mut out, self.str_zones.len() as u32);
        for zones in &self.str_zones {
            put_u32(&mut out, zones.len() as u32);
            for &(min, max, present) in zones {
                put_u32(&mut out, min);
                put_u32(&mut out, max);
                put_u32(&mut out, present);
            }
        }
        put_u32(&mut out, self.f64_zones.len() as u32);
        for zones in &self.f64_zones {
            put_u32(&mut out, zones.len() as u32);
            for &(min, max, present, nan) in zones {
                out.extend_from_slice(&min.to_bits().to_le_bytes());
                out.extend_from_slice(&max.to_bits().to_le_bytes());
                put_u32(&mut out, present);
                put_u32(&mut out, nan);
            }
        }
        put_u32(&mut out, self.chunk_decodable.len() as u32);
        for &n in &self.chunk_decodable {
            put_u32(&mut out, n);
        }
        put_u32(&mut out, self.irregular as u32);
        put_u32(&mut out, self.poison as u32);
        out
    }

    /// Inverse of [`to_bytes`](Self::to_bytes); `None` on malformed
    /// input.
    #[cfg(test)]
    pub(crate) fn from_bytes(buf: &[u8]) -> Option<Self> {
        let mut pos = 0usize;
        Self::read(buf, &mut pos).filter(|_| pos == buf.len())
    }

    /// Parse serialized zone tables starting at `*pos`, advancing it past
    /// them; `None` on malformed input.
    fn read(buf: &[u8], pos: &mut usize) -> Option<Self> {
        let ncols = get_u32(buf, pos)? as usize;
        let mut str_dicts = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            let n = get_u32(buf, pos)? as usize;
            if n > buf.len() - *pos {
                return None;
            }
            let mut dict = Vec::with_capacity(n);
            for _ in 0..n {
                let len = get_u32(buf, pos)? as usize;
                let bytes = buf.get(*pos..*pos + len)?;
                *pos += len;
                dict.push(Sym::from(std::str::from_utf8(bytes).ok()?));
            }
            str_dicts.push(dict);
        }
        let ncols = get_u32(buf, pos)? as usize;
        let mut str_zones = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            let n = get_u32(buf, pos)? as usize;
            if n > buf.len() - *pos {
                return None;
            }
            let mut zones = Vec::with_capacity(n);
            for _ in 0..n {
                let min = get_u32(buf, pos)?;
                let max = get_u32(buf, pos)?;
                let present = get_u32(buf, pos)?;
                zones.push((min, max, present));
            }
            str_zones.push(zones);
        }
        let ncols = get_u32(buf, pos)? as usize;
        let mut f64_zones = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            let n = get_u32(buf, pos)? as usize;
            if n > buf.len() - *pos {
                return None;
            }
            let mut zones = Vec::with_capacity(n);
            for _ in 0..n {
                let min = f64::from_bits(u64::from_le_bytes(get8(buf, pos)?));
                let max = f64::from_bits(u64::from_le_bytes(get8(buf, pos)?));
                let present = get_u32(buf, pos)?;
                let nan = get_u32(buf, pos)?;
                zones.push((min, max, present, nan));
            }
            f64_zones.push(zones);
        }
        let n = get_u32(buf, pos)? as usize;
        if n > buf.len() - *pos {
            return None;
        }
        let mut chunk_decodable = Vec::with_capacity(n);
        for _ in 0..n {
            chunk_decodable.push(get_u32(buf, pos)?);
        }
        let irregular = u16::try_from(get_u32(buf, pos)?).ok()?;
        let poison = u16::try_from(get_u32(buf, pos)?).ok()?;
        Some(Self {
            str_dicts,
            str_zones,
            f64_zones,
            chunk_decodable,
            irregular,
            poison,
        })
    }

    /// The exact byte length of chunk `c`'s column block of `rows` rows:
    /// its code widths follow from the string zones' largest present code
    /// and its float payloads from the float zones' present counts.
    fn block_len(&self, c: usize, rows: usize) -> Option<u64> {
        let bitmap = rows.div_ceil(8);
        let mut len = bitmap + 4;
        for zones in &self.str_zones {
            let (_, max, present) = *zones.get(c)?;
            len += 1 + rows * code_width((present > 0).then_some(max));
        }
        for zones in &self.f64_zones {
            let (_, _, present, _) = *zones.get(c)?;
            len += bitmap + 8 * present as usize;
        }
        Some(len as u64)
    }

    /// Zone verdict for one predicate against one chunk — the exact
    /// semantics of the in-memory `zone_skips` (conservative: `false`
    /// means "must read", never "matches"). `rows` is the chunk's row
    /// count (needed for the null-matching widening of `!=`).
    pub(crate) fn chunk_skips(
        &self,
        field: &str,
        op: CmpOp,
        lit: &Value,
        c: usize,
        rows: u32,
    ) -> bool {
        if let Some(i) = crate::columnar::str_field_index(field) {
            let (min, max, present) = self.str_zones[i][c];
            // `!=` matches null cells against a non-null literal, so a
            // chunk with any null cell can never be skipped for it.
            let null_matches = op == CmpOp::Ne && !lit.is_null();
            if null_matches && present < rows {
                return false;
            }
            let present_possible = match (op, lit.as_str()) {
                (CmpOp::Eq, Some(s)) => match dict_code(&self.str_dicts[i], s) {
                    Some(code) => present > 0 && code >= min && code <= max,
                    None => false,
                },
                (CmpOp::Ne, Some(s)) => match dict_code(&self.str_dicts[i], s) {
                    // Only provably all-equal when the interval is one
                    // point at the literal's code.
                    Some(code) => present > 0 && !(min == code && max == code),
                    None => present > 0,
                },
                // Null literal: only `!=` over non-null cells matches.
                (CmpOp::Ne, None) if lit.is_null() => present > 0,
                (_, None) if lit.is_null() => false,
                // Ordering ops over strings (or kind-tag comparisons
                // against non-string literals): the footer has no
                // per-symbol table, so stay conservative.
                _ => present > 0,
            };
            return !present_possible;
        }
        if let Some(i) = crate::columnar::f64_field_index(field) {
            let (min, max, present, nan) = self.f64_zones[i][c];
            let null_matches = op == CmpOp::Ne && !lit.is_null();
            if null_matches && present < rows {
                return false;
            }
            if lit.is_null() {
                // Null literal: `!=` matches every present cell.
                return !(op == CmpOp::Ne && present > 0);
            }
            let Some(l) = lit.as_f64() else {
                // Non-numeric literal: kind-tag compare — conservative.
                return present == 0;
            };
            let finite = present > nan;
            // NaN cells compare `Equal` under `Value::compare`, so they
            // match Ne/Le/Ge.
            let nan_hit = nan > 0 && matches!(op, CmpOp::Ne | CmpOp::Le | CmpOp::Ge);
            let finite_hit = finite
                && match op {
                    CmpOp::Eq => l >= min && l <= max,
                    CmpOp::Ne => !(min == l && max == l),
                    CmpOp::Lt => min < l,
                    CmpOp::Le => min <= l,
                    CmpOp::Gt => max > l,
                    CmpOp::Ge => max >= l,
                };
            return !(nan_hit || finite_hit);
        }
        // Not a zone-mapped column: never prunable.
        false
    }
}

/// Code of `s` in a serialized dictionary (linear: footers are read
/// rarely, and only one literal per predicate is looked up).
fn dict_code(dict: &[Sym], s: &str) -> Option<u32> {
    dict.iter().position(|d| d.as_str() == s).map(|i| i as u32)
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn get_u32(buf: &[u8], pos: &mut usize) -> Option<u32> {
    let b = buf.get(*pos..*pos + 4)?;
    *pos += 4;
    Some(u32::from_le_bytes(b.try_into().ok()?))
}

fn get8(buf: &[u8], pos: &mut usize) -> Option<[u8; 8]> {
    let b = buf.get(*pos..*pos + 8)?;
    *pos += 8;
    b.try_into().ok()
}

/// On-disk format of a segment file, from its header magic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Format {
    /// Row file: documents, then a zone-map footer.
    Pseg1,
    /// Documents, per-chunk column blocks, and a footer locating both.
    Pseg2,
}

/// Identity and coverage of one sealed segment file.
#[derive(Debug, Clone)]
pub(crate) struct SegmentMeta {
    pub(crate) path: PathBuf,
    pub(crate) format: Format,
    /// Shard count at seal time (coverage is defined in its terms).
    pub(crate) nshards: u32,
    pub(crate) shard: u32,
    /// First covered slot of the shard.
    pub(crate) start: u64,
    /// One past the last covered slot.
    pub(crate) end: u64,
    /// Rows per chunk at seal time.
    pub(crate) chunk: u32,
    pub(crate) n_docs: u32,
}

impl SegmentMeta {
    /// The `PSEG2` segment of shard `shard`'s `n_docs` rows from slot
    /// `start`, named inside `dir` (the file is written separately).
    pub(crate) fn new(
        dir: &Path,
        nshards: u32,
        shard: u32,
        start: u64,
        chunk: u32,
        n_docs: usize,
    ) -> Self {
        let end = start + n_docs as u64;
        Self {
            path: dir.join(segment_name(nshards, shard, start, end)),
            format: Format::Pseg2,
            nshards,
            shard,
            start,
            end,
            chunk,
            n_docs: n_docs as u32,
        }
    }

    /// Rows per chunk, at least one.
    fn chunk_rows(&self) -> usize {
        (self.chunk as usize).max(1)
    }
}

fn segment_name(nshards: u32, shard: u32, start: u64, end: u64) -> String {
    format!("seg-n{nshards:02}-s{shard:02}-r{start:010}-{end:010}.seg")
}

/// Per-chunk byte runs laid end to end: chunk `c` is
/// `bytes[bounds[c]..bounds[c + 1]]`. A `PSEG2` file's column region is
/// one of these, and compaction gathers document regions the same way.
pub(crate) struct ChunkRuns {
    bytes: Vec<u8>,
    bounds: Vec<u64>,
}

impl ChunkRuns {
    fn new() -> Self {
        Self {
            bytes: Vec::new(),
            bounds: vec![0],
        }
    }

    /// End the current chunk at the bytes written so far.
    fn close_chunk(&mut self) {
        self.bounds.push(self.bytes.len() as u64);
    }

    /// The chunks' bytes, end to end.
    #[cfg(test)]
    pub(crate) fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Append `other`'s chunks after this one's.
    fn append(&mut self, other: ChunkRuns) {
        let base = self.bytes.len() as u64;
        self.bytes.extend_from_slice(&other.bytes);
        self.bounds
            .extend(other.bounds[1..].iter().map(|b| b + base));
    }
}

/// The column blocks of rows `[lo, hi)` of `cols`, one per chunk of
/// `cols`, written straight from its code and float vectors.
pub(crate) fn col_runs(cols: &ColumnarShard, lo: usize, hi: usize) -> ChunkRuns {
    let mut runs = ChunkRuns::new();
    let mut r = lo;
    while r < hi {
        let end = (r + cols.chunk_rows()).min(hi);
        encode_col_block(cols, r, end, &mut runs.bytes);
        runs.close_chunk();
        r = end;
    }
    runs
}

/// Append a bitmap of `bits`: bit `r` is bit `r % 8` of byte `r / 8`.
fn put_bits(out: &mut Vec<u8>, bits: impl ExactSizeIterator<Item = bool>) {
    let start = out.len();
    out.resize(start + bits.len().div_ceil(8), 0);
    for (r, b) in bits.enumerate() {
        out[start + r / 8] |= u8::from(b) << (r % 8);
    }
}

fn bit(bitmap: &[u8], r: usize) -> bool {
    (bitmap[r / 8] >> (r % 8)) & 1 == 1
}

/// Bytes per code of a block's string column whose largest present code
/// is `max` (`None`: no present cell): the narrowest width whose all-ones
/// null code stays above every present code.
fn code_width(max: Option<u32>) -> usize {
    match max {
        None => 0,
        Some(max) if max < 0xFF => 1,
        Some(max) if max < 0xFFFF => 2,
        Some(_) => 4,
    }
}

/// Append rows `[lo, hi)` of `cols` as one column block (layout in the
/// module docs).
fn encode_col_block(cols: &ColumnarShard, lo: usize, hi: usize, out: &mut Vec<u8>) {
    let start = out.len();
    put_bits(out, (lo..hi).map(|r| cols.is_decodable(r)));
    for i in 0..STR_FIELDS.len() {
        let codes = &cols.str_codes(i)[lo..hi];
        let width = code_width(codes.iter().copied().filter(|&c| c != NULL_CODE).max());
        out.push(width as u8);
        if width > 0 {
            for &c in codes {
                // `NULL_CODE` is all ones, so truncating it yields the
                // width's null code; present codes sit below it.
                out.extend_from_slice(&c.to_le_bytes()[..width]);
            }
        }
    }
    for i in 0..F64_FIELDS.len() {
        let cells = &cols.f64_cells(i)[lo..hi];
        put_bits(out, cells.iter().map(Option::is_some));
        for x in cells.iter().flatten() {
            out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
    }
    let crc = crc32(&[&out[start..]]);
    put_u32(out, crc);
}

/// Decode one column block of `rows` rows into a one-chunk shard of
/// `chunk` rows, appending each row through [`ColumnarShard::push_row`]
/// with its codes resolved in `dicts` (the footer dictionaries). `Err`
/// names the fault: a checksum mismatch, or a block whose structure does
/// not parse.
pub(crate) fn decode_col_block(
    block: &[u8],
    rows: usize,
    chunk: usize,
    dicts: &[Vec<Sym>],
) -> Result<ColumnarShard, &'static str> {
    let body_len = block.len().checked_sub(4).ok_or("torn column block")?;
    let (body, crc) = block.split_at(body_len);
    if crc32(&[body]) != u32::from_le_bytes(crc.try_into().expect("4 bytes")) {
        return Err("column block checksum mismatch");
    }
    const MALFORMED: &str = "malformed column block";
    if dicts.len() != STR_FIELDS.len() {
        return Err(MALFORMED);
    }
    let bitmap = rows.div_ceil(8);
    let mut pos = 0usize;
    let mut take = |n: usize| -> Result<&[u8], &'static str> {
        let b = body.get(pos..pos + n).ok_or(MALFORMED)?;
        pos += n;
        Ok(b)
    };
    let decodable = take(bitmap)?;
    let mut codes: [(&[u8], usize); STR_FIELDS.len()] = [(&[], 0); STR_FIELDS.len()];
    for c in &mut codes {
        let width = take(1)?[0] as usize;
        if !matches!(width, 0 | 1 | 2 | 4) {
            return Err(MALFORMED);
        }
        *c = (take(rows * width)?, width);
    }
    let mut floats: [(&[u8], &[u8]); F64_FIELDS.len()] = [(&[], &[]); F64_FIELDS.len()];
    for f in &mut floats {
        let present = take(bitmap)?;
        let n = (0..rows).filter(|&r| bit(present, r)).count();
        *f = (present, take(n * 8)?);
    }
    if pos != body.len() {
        return Err(MALFORMED);
    }
    let mut cols = ColumnarShard::with_chunk(chunk);
    let mut next = [0usize; F64_FIELDS.len()];
    for r in 0..rows {
        let mut row = ExtractedRow {
            decodable: bit(decodable, r),
            strs: Default::default(),
            floats: Default::default(),
            report: Default::default(),
        };
        for ((cell, &(bytes, width)), dict) in row.strs.iter_mut().zip(&codes).zip(dicts) {
            if width == 0 {
                continue;
            }
            let mut le = [0u8; 4];
            le[..width].copy_from_slice(&bytes[r * width..(r + 1) * width]);
            let code = u32::from_le_bytes(le);
            if code != NULL_CODE >> (32 - 8 * width) {
                let sym = dict
                    .get(code as usize)
                    .ok_or("column block code outside the dictionary")?;
                *cell = Some(sym.clone());
            }
        }
        for ((cell, &(present, bits)), next) in row.floats.iter_mut().zip(&floats).zip(&mut next) {
            if bit(present, r) {
                let raw = bits[*next * 8..*next * 8 + 8].try_into().expect("8 bytes");
                *cell = Some(f64::from_bits(u64::from_le_bytes(raw)));
                *next += 1;
            }
        }
        cols.push_row(row);
    }
    Ok(cols)
}

/// Where a `PSEG2` file's chunks sit: `n_chunks + 1` absolute bounds of
/// the document records and of the column blocks. The regions are
/// adjacent: `docs[n_chunks] == cols[0]`.
pub(crate) struct Layout {
    pub(crate) docs: Vec<u64>,
    pub(crate) cols: Vec<u64>,
}

impl Layout {
    fn put(&self, out: &mut Vec<u8>) {
        put_u32(out, (self.docs.len() - 1) as u32);
        for &o in self.docs.iter().chain(&self.cols) {
            out.extend_from_slice(&o.to_le_bytes());
        }
    }

    /// Parse a layout table at `*pos` and check that it tiles the file:
    /// one chunk per zone entry and per `meta.chunk` rows, document
    /// bounds from [`DATA_START`] to the first block with room for every
    /// chunk's record headers, and block bounds up to `footer_start`,
    /// each block exactly as long as its zones imply.
    fn read(
        buf: &[u8],
        pos: &mut usize,
        meta: &SegmentMeta,
        zones: &ZoneTables,
        footer_start: u64,
    ) -> Option<Self> {
        let n = get_u32(buf, pos)? as usize;
        let chunk = meta.chunk_rows();
        let n_docs = meta.n_docs as usize;
        if n != zones.chunk_decodable.len() || n != n_docs.div_ceil(chunk) {
            return None;
        }
        let mut bounds = || -> Option<Vec<u64>> {
            (0..=n)
                .map(|_| get8(buf, pos).map(u64::from_le_bytes))
                .collect()
        };
        let docs = bounds()?;
        let cols = bounds()?;
        let rows = |c: usize| chunk.min(n_docs - c * chunk);
        let tiled = (0..n).all(|c| {
            docs[c].checked_add(8 * rows(c) as u64) <= Some(docs[c + 1])
                && zones
                    .block_len(c, rows(c))
                    .and_then(|len| cols[c].checked_add(len))
                    == Some(cols[c + 1])
        });
        (tiled && docs[0] == DATA_START && docs[n] == cols[0] && cols[n] == footer_start)
            .then_some(Self { docs, cols })
    }
}

/// A parsed segment footer: the zone tables, plus the chunk layout of a
/// `PSEG2` file (`None` for `PSEG1`).
pub(crate) struct Footer {
    pub(crate) zones: ZoneTables,
    pub(crate) layout: Option<Layout>,
}

fn write_header(f: &mut impl Write, magic: &[u8; 6], meta: &SegmentMeta) -> std::io::Result<()> {
    f.write_all(magic)?;
    f.write_all(&meta.nshards.to_le_bytes())?;
    f.write_all(&meta.shard.to_le_bytes())?;
    f.write_all(&meta.start.to_le_bytes())?;
    f.write_all(&meta.end.to_le_bytes())?;
    f.write_all(&meta.chunk.to_le_bytes())?;
    f.write_all(&meta.n_docs.to_le_bytes())
}

/// Stream `docs` as checksummed records, returning the region's chunk
/// bounds (relative to its start).
fn write_records(
    f: &mut impl Write,
    docs: &[Arc<Value>],
    chunk: usize,
) -> std::io::Result<Vec<u64>> {
    let mut bounds = vec![0u64];
    let mut at = 0u64;
    let mut payload = Vec::new();
    for (i, doc) in docs.iter().enumerate() {
        payload.clear();
        encode_value(doc, &mut payload);
        f.write_all(&(payload.len() as u32).to_le_bytes())?;
        f.write_all(&crc32(&[&payload]).to_le_bytes())?;
        f.write_all(&payload)?;
        at += 8 + payload.len() as u64;
        if (i + 1) % chunk == 0 || i + 1 == docs.len() {
            bounds.push(at);
        }
    }
    Ok(bounds)
}

/// Write the footer bytes and the tail that locates them.
fn write_tail(f: &mut impl Write, footer: &[u8]) -> std::io::Result<()> {
    f.write_all(footer)?;
    f.write_all(&(footer.len() as u32).to_le_bytes())?;
    f.write_all(&crc32(&[footer]).to_le_bytes())?;
    f.write_all(TAIL_MAGIC)
}

/// Write `meta`'s `PSEG2` file atomically (temp file, fsync, rename):
/// the header, the document region `write_docs` streams (returning its
/// relative chunk bounds), the column region `cols`, and the footer.
fn write_file(
    meta: &SegmentMeta,
    write_docs: impl FnOnce(&mut BufWriter<File>) -> std::io::Result<Vec<u64>>,
    cols: &ChunkRuns,
    zones: &ZoneTables,
) -> std::io::Result<()> {
    let tmp = meta.path.with_extension("tmp");
    {
        let mut f = BufWriter::new(File::create(&tmp)?);
        write_header(&mut f, MAGIC, meta)?;
        let doc_bounds = write_docs(&mut f)?;
        debug_assert_eq!(doc_bounds.len(), cols.bounds.len());
        f.write_all(&cols.bytes)?;
        let cols_at = DATA_START + doc_bounds.last().expect("bounds start at 0");
        let mut footer = zones.to_bytes();
        Layout {
            docs: doc_bounds.iter().map(|b| DATA_START + b).collect(),
            cols: cols.bounds.iter().map(|b| cols_at + b).collect(),
        }
        .put(&mut footer);
        write_tail(&mut f, &footer)?;
        f.flush()?;
        f.get_ref().sync_data()?;
    }
    std::fs::rename(&tmp, &meta.path)?;
    let dir = meta.path.parent().expect("segment lives in a directory");
    sync_dir(dir);
    Ok(())
}

/// Write `meta`'s segment: `docs` (exactly `meta.n_docs` of them), their
/// column blocks (see [`col_runs`]) and the zone footer.
pub(crate) fn write_segment(
    meta: &SegmentMeta,
    docs: &[Arc<Value>],
    cols: &ChunkRuns,
    zones: &ZoneTables,
) -> std::io::Result<()> {
    debug_assert_eq!(docs.len(), meta.n_docs as usize);
    write_file(
        meta,
        |f| write_records(f, docs, meta.chunk_rows()),
        cols,
        zones,
    )
}

/// Write a `PSEG1` row file, the format before column blocks, so tests
/// can check that old files stay readable and compact forward.
#[cfg(test)]
pub(crate) fn write_segment_pseg1(
    meta: &SegmentMeta,
    docs: &[Arc<Value>],
    zones: &ZoneTables,
) -> std::io::Result<SegmentMeta> {
    let meta = SegmentMeta {
        format: Format::Pseg1,
        ..meta.clone()
    };
    let mut f = BufWriter::new(File::create(&meta.path)?);
    write_header(&mut f, MAGIC_V1, &meta)?;
    write_records(&mut f, docs, meta.chunk_rows())?;
    write_tail(&mut f, &zones.to_bytes())?;
    f.flush()?;
    Ok(meta)
}

fn corrupt(msg: &str, path: &Path) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!("{msg}: {}", path.display()),
    )
}

/// Parse a segment file's header (the first 38 bytes).
fn read_header(path: &Path, f: &mut File) -> std::io::Result<SegmentMeta> {
    let mut head = [0u8; DATA_START as usize];
    f.read_exact(&mut head)
        .map_err(|_| corrupt("segment too short", path))?;
    let format = match &head[..6] {
        m if m == MAGIC => Format::Pseg2,
        m if m == MAGIC_V1 => Format::Pseg1,
        _ => return Err(corrupt("bad segment magic", path)),
    };
    let u32_at = |o: usize| u32::from_le_bytes(head[o..o + 4].try_into().expect("4 bytes"));
    let u64_at = |o: usize| u64::from_le_bytes(head[o..o + 8].try_into().expect("8 bytes"));
    Ok(SegmentMeta {
        path: path.to_path_buf(),
        format,
        nshards: u32_at(6),
        shard: u32_at(10),
        start: u64_at(14),
        end: u64_at(22),
        chunk: u32_at(30),
        n_docs: u32_at(34),
    })
}

/// Walk `n` records at the start of `buf`, verifying every checksum, and
/// return the byte bounds of each chunk of `chunk` records.
fn walk_records(buf: &[u8], n: usize, chunk: usize, path: &Path) -> std::io::Result<Vec<u64>> {
    let torn = || corrupt("torn document", path);
    let mut bounds = vec![0u64];
    let mut pos = 0usize;
    for i in 0..n {
        let len = get_u32(buf, &mut pos).ok_or_else(torn)? as usize;
        let crc = get_u32(buf, &mut pos).ok_or_else(torn)?;
        let payload = buf.get(pos..pos + len).ok_or_else(torn)?;
        pos += len;
        if crc32(&[payload]) != crc {
            return Err(corrupt("document checksum mismatch", path));
        }
        if (i + 1) % chunk == 0 || i + 1 == n {
            bounds.push(pos as u64);
        }
    }
    Ok(bounds)
}

/// Read a segment's documents (slot order), verifying every checksum.
pub(crate) fn read_docs(meta: &SegmentMeta) -> std::io::Result<Vec<Value>> {
    let mut f = File::open(&meta.path)?;
    let hdr = read_header(&meta.path, &mut f)?;
    let mut rest = Vec::new();
    f.read_to_end(&mut rest)?;
    let mut docs = Vec::with_capacity(hdr.n_docs as usize);
    let mut pos = 0usize;
    for _ in 0..hdr.n_docs {
        let len =
            get_u32(&rest, &mut pos).ok_or_else(|| corrupt("torn document", &meta.path))? as usize;
        let crc = get_u32(&rest, &mut pos).ok_or_else(|| corrupt("torn document", &meta.path))?;
        let payload = rest
            .get(pos..pos + len)
            .ok_or_else(|| corrupt("torn document", &meta.path))?;
        pos += len;
        if crc32(&[payload]) != crc {
            return Err(corrupt("document checksum mismatch", &meta.path));
        }
        let mut dpos = 0usize;
        let doc = decode_value(payload, &mut dpos)
            .filter(|_| dpos == len)
            .ok_or_else(|| corrupt("undecodable document", &meta.path))?;
        docs.push(doc);
    }
    Ok(docs)
}

/// Read only a segment's footer (zone tables, and a `PSEG2` file's chunk
/// layout) — seek to the tail, never touching the documents. This is
/// what lets a scan prune a segment for the cost of its footer. A layout
/// table that does not tile the file is corruption.
pub(crate) fn read_footer(meta: &SegmentMeta) -> std::io::Result<Footer> {
    let mut f = File::open(&meta.path)?;
    let size = f.metadata()?.len();
    if size < 14 {
        return Err(corrupt("segment too short for tail", &meta.path));
    }
    f.seek(SeekFrom::End(-14))?;
    let mut tail = [0u8; 14];
    f.read_exact(&mut tail)?;
    if &tail[8..] != TAIL_MAGIC {
        return Err(corrupt("bad segment tail magic", &meta.path));
    }
    let len = u32::from_le_bytes(tail[0..4].try_into().expect("4 bytes")) as u64;
    let crc = u32::from_le_bytes(tail[4..8].try_into().expect("4 bytes"));
    if size < 14 + len {
        return Err(corrupt("footer length overruns file", &meta.path));
    }
    let footer_start = size - 14 - len;
    f.seek(SeekFrom::Start(footer_start))?;
    let mut bytes = vec![0u8; len as usize];
    f.read_exact(&mut bytes)?;
    if crc32(&[&bytes]) != crc {
        return Err(corrupt("footer checksum mismatch", &meta.path));
    }
    let mut pos = 0usize;
    let zones = ZoneTables::read(&bytes, &mut pos)
        .ok_or_else(|| corrupt("undecodable footer", &meta.path))?;
    let layout = match meta.format {
        Format::Pseg1 => None,
        Format::Pseg2 => Some(
            Layout::read(&bytes, &mut pos, meta, &zones, footer_start)
                .ok_or_else(|| corrupt("malformed chunk layout", &meta.path))?,
        ),
    };
    if pos != bytes.len() {
        return Err(corrupt("undecodable footer", &meta.path));
    }
    Ok(Footer { zones, layout })
}

/// Whether the footer proves no document of this segment can satisfy
/// `field op lit` (frame comparison semantics) — i.e. every sealed
/// chunk's zone map excludes it. Conservative, like the in-memory
/// chunk pruning it is serialized from.
pub(crate) fn segment_prunes(
    meta: &SegmentMeta,
    zones: &ZoneTables,
    field: &str,
    op: CmpOp,
    lit: &Value,
) -> bool {
    let chunks = zones.chunk_decodable.len();
    (0..chunks).all(|c| {
        // Every sealed chunk is full by construction (seals happen at
        // chunk boundaries), so rows-per-chunk is exactly `chunk`.
        zones.chunk_decodable[c] == 0 || zones.chunk_skips(field, op, lit, c, meta.chunk)
    })
}

/// Scan `dir` for sealed segments, resolving compaction leftovers: if
/// one segment's coverage contains another's (same seal-epoch shard
/// count, same shard), the contained file is deleted — it is a fully
/// shadowed pre-compaction input whose removal crashed mid-way. Temp
/// files are removed too. Returns metas sorted by (nshards, shard,
/// start).
pub(crate) fn scan_dir(dir: &Path) -> std::io::Result<Vec<SegmentMeta>> {
    let mut metas: Vec<SegmentMeta> = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if name.ends_with(".tmp") {
            let _ = std::fs::remove_file(&path);
            continue;
        }
        if !(name.starts_with("seg-") && name.ends_with(".seg")) {
            continue;
        }
        let mut f = File::open(&path)?;
        metas.push(read_header(&path, &mut f)?);
    }
    // Widest coverage first within a shard, so contained segments are
    // detected against already-kept survivors.
    metas.sort_by_key(|m| (m.nshards, m.shard, m.start, std::cmp::Reverse(m.end)));
    let mut kept: Vec<SegmentMeta> = Vec::new();
    for m in metas {
        let shadowed = kept.iter().any(|k| {
            k.nshards == m.nshards && k.shard == m.shard && k.start <= m.start && m.end <= k.end
        });
        if shadowed {
            let _ = std::fs::remove_file(&m.path);
        } else {
            kept.push(m);
        }
    }
    Ok(kept)
}

/// Merge a shard's contiguous sealed runs into one `PSEG2` segment.
/// `runs` must be same-shard, same-epoch, sorted, and contiguous.
/// Returns the merged meta.
///
/// Chunks are never re-cut (every input is a whole-chunk run at the same
/// chunk size), so when the inputs' dictionaries are prefix-compatible —
/// always true for live seals of one shard, whose dictionary only grows —
/// the merged footer is just the inputs' chunk zones concatenated under
/// the last (largest) dictionary snapshot, and the document records and
/// column blocks are copied as raw CRC-verified bytes without a decode +
/// re-extract pass. The fallback (non-compatible dictionaries, e.g.
/// inputs from an older compaction epoch, a `PSEG1` input, which has no
/// blocks to copy, or an unreadable footer) rebuilds the footer and the
/// blocks from a fresh columnar pass.
pub(crate) fn compact_runs(dir: &Path, runs: &[SegmentMeta]) -> std::io::Result<SegmentMeta> {
    debug_assert!(runs.len() >= 2);
    debug_assert!(runs.windows(2).all(|w| {
        w[0].end == w[1].start && w[0].shard == w[1].shard && w[0].nshards == w[1].nshards
    }));
    if let Ok(footers) = runs
        .iter()
        .map(read_footer)
        .collect::<std::io::Result<Vec<_>>>()
    {
        if footers.iter().all(|f| f.layout.is_some()) && dicts_prefix_compatible(&footers) {
            return compact_runs_reusing_footers(dir, runs, footers);
        }
    }
    let first = &runs[0];
    let chunk = first.chunk_rows();
    let mut docs: Vec<Arc<Value>> = Vec::new();
    for run in runs {
        docs.extend(read_docs(run)?.into_iter().map(Arc::new));
    }
    let mut cols = ColumnarShard::with_chunk(chunk);
    let (mut irregular, mut poison) = (0u16, 0u16);
    for doc in &docs {
        let report = cols.push_doc(doc);
        irregular |= report.irregular;
        poison |= report.poison;
    }
    let mut footer = cols
        .export_zone_tables(0, docs.len())
        .expect("merged run is whole chunks");
    footer.irregular = irregular;
    footer.poison = poison;
    let merged = SegmentMeta::new(
        dir,
        first.nshards,
        first.shard,
        first.start,
        first.chunk,
        docs.len(),
    );
    write_segment(&merged, &docs, &col_runs(&cols, 0, docs.len()), &footer)?;
    remove_inputs(dir, runs);
    Ok(merged)
}

fn remove_inputs(dir: &Path, runs: &[SegmentMeta]) {
    for run in runs {
        let _ = std::fs::remove_file(&run.path);
    }
    sync_dir(dir);
}

/// Whether every footer's dictionaries are a prefix of the next one's —
/// the condition under which their chunk zone code intervals (and column
/// block codes) all stay meaningful under the last footer's dictionary
/// snapshot.
fn dicts_prefix_compatible(footers: &[Footer]) -> bool {
    footers.windows(2).all(|w| {
        let (a, b) = (&w[0].zones.str_dicts, &w[1].zones.str_dicts);
        a.len() == b.len()
            && a.iter().zip(b).all(|(a, b)| {
                a.len() <= b.len() && a.iter().zip(b).all(|(x, y)| x.as_str() == y.as_str())
            })
    })
}

/// The footer-reuse merge: gather the inputs' record regions and column
/// blocks (verifying every checksum, decoding nothing) into the merged
/// file, under a footer assembled from the inputs' already-serialized
/// chunk zones. Every input must be `PSEG2` (have a layout).
fn compact_runs_reusing_footers(
    dir: &Path,
    runs: &[SegmentMeta],
    footers: Vec<Footer>,
) -> std::io::Result<SegmentMeta> {
    let first = &runs[0];
    let mut docs = ChunkRuns::new();
    let mut cols = ChunkRuns::new();
    for (run, footer) in runs.iter().zip(&footers) {
        let layout = footer
            .layout
            .as_ref()
            .expect("only PSEG2 inputs reuse footers");
        docs.append(read_record_region(run)?);
        cols.append(read_col_region(run, layout)?);
    }
    let n_docs: usize = runs.iter().map(|r| r.n_docs as usize).sum();
    let merged = SegmentMeta::new(
        dir,
        first.nshards,
        first.shard,
        first.start,
        first.chunk,
        n_docs,
    );
    let zones = merge_footers(footers.into_iter().map(|f| f.zones).collect());
    write_file(
        &merged,
        |f| {
            f.write_all(&docs.bytes)?;
            Ok(docs.bounds.clone())
        },
        &cols,
        &zones,
    )?;
    remove_inputs(dir, runs);
    Ok(merged)
}

/// A segment's raw record region (`[len][crc][payload]*`) cut into its
/// chunks, with every record's structure and checksum verified but no
/// payload decoded.
fn read_record_region(meta: &SegmentMeta) -> std::io::Result<ChunkRuns> {
    let mut f = File::open(&meta.path)?;
    let hdr = read_header(&meta.path, &mut f)?;
    let mut bytes = Vec::new();
    f.read_to_end(&mut bytes)?;
    let bounds = walk_records(&bytes, hdr.n_docs as usize, hdr.chunk_rows(), &meta.path)?;
    bytes.truncate(*bounds.last().expect("bounds start at 0") as usize);
    Ok(ChunkRuns { bytes, bounds })
}

/// A `PSEG2` segment's column blocks, with every block's checksum
/// verified.
fn read_col_region(meta: &SegmentMeta, layout: &Layout) -> std::io::Result<ChunkRuns> {
    let base = layout.cols[0];
    let mut f = File::open(&meta.path)?;
    f.seek(SeekFrom::Start(base))?;
    let mut bytes = vec![0u8; (layout.cols[layout.cols.len() - 1] - base) as usize];
    f.read_exact(&mut bytes)?;
    let bounds: Vec<u64> = layout.cols.iter().map(|o| o - base).collect();
    for w in bounds.windows(2) {
        let block = &bytes[w[0] as usize..w[1] as usize];
        let (body, crc) = block.split_at(block.len().saturating_sub(4));
        if crc.len() != 4 || crc32(&[body]) != u32::from_le_bytes(crc.try_into().expect("4")) {
            return Err(corrupt("column block checksum mismatch", &meta.path));
        }
    }
    Ok(ChunkRuns { bytes, bounds })
}

/// Concatenate prefix-compatible footers: the last dictionary snapshot
/// maps every code the earlier zones reference, chunk zones append in
/// slot order, and the store-wide pushdown masks OR together.
fn merge_footers(mut footers: Vec<ZoneTables>) -> ZoneTables {
    let last = footers.pop().expect("at least two footers");
    let mut merged = ZoneTables {
        str_dicts: last.str_dicts,
        str_zones: vec![Vec::new(); last.str_zones.len()],
        f64_zones: vec![Vec::new(); last.f64_zones.len()],
        chunk_decodable: Vec::new(),
        irregular: last.irregular,
        poison: last.poison,
    };
    for ft in footers.into_iter().chain(std::iter::once(ZoneTables {
        str_dicts: Vec::new(),
        str_zones: last.str_zones,
        f64_zones: last.f64_zones,
        chunk_decodable: last.chunk_decodable,
        irregular: 0,
        poison: 0,
    })) {
        for (i, zones) in ft.str_zones.into_iter().enumerate() {
            merged.str_zones[i].extend(zones);
        }
        for (i, zones) in ft.f64_zones.into_iter().enumerate() {
            merged.f64_zones[i].extend(zones);
        }
        merged.chunk_decodable.extend(ft.chunk_decodable);
        merged.irregular |= ft.irregular;
        merged.poison |= ft.poison;
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataframe::cmp_matches;
    use prov_model::TaskMessageBuilder;

    fn corpus(n: usize) -> Vec<Arc<Value>> {
        (0..n)
            .map(|i| {
                let mut b = TaskMessageBuilder::new(
                    format!("t{i}"),
                    format!("wf-{}", i / 10),
                    format!("act-{}", i % 5),
                )
                .span(i as f64, i as f64 + 0.5);
                if i % 7 == 0 {
                    b = b.agent("agent-x");
                }
                Arc::new(b.build().to_value())
            })
            .collect()
    }

    fn tables_for(docs: &[Arc<Value>], chunk: usize) -> (ColumnarShard, ZoneTables) {
        let mut cols = ColumnarShard::with_chunk(chunk);
        for d in docs {
            cols.push_doc(d);
        }
        let sealed = (docs.len() / chunk) * chunk;
        let t = cols.export_zone_tables(0, sealed).unwrap();
        (cols, t)
    }

    #[test]
    fn footer_roundtrips_byte_identically() {
        let docs = corpus(50);
        let (_, tables) = tables_for(&docs, 8);
        let bytes = tables.to_bytes();
        let back = ZoneTables::from_bytes(&bytes).unwrap();
        assert_eq!(bytes, back.to_bytes());
        assert_eq!(tables.chunk_decodable, back.chunk_decodable);
        assert_eq!(tables.str_zones, back.str_zones);
        // Float zones carry infinities for empty intervals; compare by
        // bits via the canonical bytes (already asserted) and by value
        // where finite.
        assert_eq!(tables.f64_zones.len(), back.f64_zones.len());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Random sealed prefixes of random corpora (NaN spans included):
        /// footer serialization must be a byte-identical fixpoint through
        /// `from_bytes ∘ to_bytes`.
        #[test]
        fn footer_roundtrip_is_byte_identical_on_random_corpora(
            n in 1usize..120,
            chunk in 2usize..17,
            nan_every in 2usize..9,
        ) {
            let docs: Vec<Arc<Value>> = (0..n)
                .map(|i| {
                    let start = if i % nan_every == 0 { f64::NAN } else { i as f64 };
                    Arc::new(
                        TaskMessageBuilder::new(
                            format!("t{i}"),
                            format!("wf-{}", i % 4),
                            format!("act-{}", i % 3),
                        )
                        .span(start, i as f64 + 0.25)
                        .build()
                        .to_value(),
                    )
                })
                .collect();
            let (_, tables) = tables_for(&docs, chunk);
            let bytes = tables.to_bytes();
            let back = ZoneTables::from_bytes(&bytes).expect("footer decodes");
            proptest::prop_assert_eq!(bytes, back.to_bytes());
        }
    }

    /// A scratch directory, removed on drop.
    struct Scratch(PathBuf);

    impl Scratch {
        fn new(tag: &str) -> Self {
            let dir = std::env::temp_dir().join(format!("provdb-seg-{tag}-{}", std::process::id()));
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

    /// Seal rows `[lo, hi)` of a shard that has ingested `shard_docs`, in
    /// `format` — the live incremental seal.
    fn seal_run(
        dir: &Path,
        shard_docs: &[Arc<Value>],
        lo: usize,
        hi: usize,
        chunk: usize,
        format: Format,
    ) -> SegmentMeta {
        let mut cols = ColumnarShard::with_chunk(chunk);
        for d in shard_docs {
            cols.push_doc(d);
        }
        let zones = cols.export_zone_tables(lo, hi).unwrap();
        let meta = SegmentMeta::new(dir, 1, 0, lo as u64, chunk as u32, hi - lo);
        match format {
            Format::Pseg2 => {
                write_segment(&meta, &shard_docs[lo..hi], &col_runs(&cols, lo, hi), &zones)
                    .unwrap();
                meta
            }
            Format::Pseg1 => write_segment_pseg1(&meta, &shard_docs[lo..hi], &zones).unwrap(),
        }
    }

    #[test]
    fn segment_file_roundtrips_and_footer_prunes_soundly() {
        let dir = Scratch::new("rt");
        let chunk = 8usize;
        let docs = corpus(64);
        let (cols, tables) = tables_for(&docs, chunk);
        let meta = seal_run(&dir.0, &docs, 0, docs.len(), chunk, Format::Pseg2);

        // Documents survive bit-exactly (canonical codec).
        let back = read_docs(&meta).unwrap();
        assert_eq!(back.len(), docs.len());
        for (a, b) in docs.iter().zip(&back) {
            let (mut ea, mut eb) = (Vec::new(), Vec::new());
            encode_value(a, &mut ea);
            encode_value(b, &mut eb);
            assert_eq!(ea, eb);
        }

        // Footer reads without touching documents and round-trips; its
        // layout locates one column block per chunk.
        let footer = read_footer(&meta).unwrap();
        assert_eq!(footer.zones.to_bytes(), tables.to_bytes());
        let layout = footer.layout.expect("PSEG2 footer has a layout");
        assert_eq!(layout.cols.len(), docs.len() / chunk + 1);

        // Pruning is sound: a pruned segment provably has no matching
        // frame cell for the predicate.
        let preds: Vec<(&str, CmpOp, Value)> = vec![
            ("activity_id", CmpOp::Eq, Value::from("act-3")),
            ("activity_id", CmpOp::Eq, Value::from("nope")),
            ("task_id", CmpOp::Eq, Value::from("t63")),
            ("started_at", CmpOp::Gt, Value::Float(100.0)),
            ("started_at", CmpOp::Lt, Value::Float(0.0)),
            ("started_at", CmpOp::Le, Value::Float(3.0)),
            ("hostname", CmpOp::Ne, Value::from("localhost")),
            ("duration", CmpOp::Eq, Value::Float(0.5)),
        ];
        let mut pruned_any = false;
        for (field, op, lit) in &preds {
            if segment_prunes(&meta, &footer.zones, field, *op, lit) {
                pruned_any = true;
                let f = crate::columnar::lookup(field).unwrap();
                for slot in 0..docs.len() {
                    assert!(
                        !cmp_matches(&cols.value(slot, f), *op, lit),
                        "footer pruned a matching row: {field} {op:?} {lit:?} slot {slot}"
                    );
                }
            }
        }
        assert!(pruned_any, "no predicate pruned — test corpus too weak");

        let metas = scan_dir(&dir.0).unwrap();
        assert_eq!(metas.len(), 1);
        assert_eq!(metas[0].format, Format::Pseg2);
    }

    /// Column blocks use the narrowest code width per block and field:
    /// a chunk with at most 254 distinct codes stores one byte per cell,
    /// and an all-null column stores none.
    #[test]
    fn column_blocks_use_narrow_code_widths() {
        let chunk = 8usize;
        let docs = corpus(16);
        let (cols, _) = tables_for(&docs, chunk);
        let block = col_runs(&cols, 0, chunk);
        let rows_bitmap = 1; // 8 rows
        let mut pos = rows_bitmap;
        for (i, field) in STR_FIELDS.iter().enumerate() {
            let width = block.bytes[pos] as usize;
            let present = cols.str_codes(i)[..chunk].iter().any(|&c| c != NULL_CODE);
            assert_eq!(width, usize::from(present), "field {field}");
            pos += 1 + width * chunk;
        }
    }

    /// Rewrite the footer of a `PSEG2` file with `edit` applied to its
    /// layout table (the footer's last `4 + 16 * (n + 1)` bytes),
    /// re-stamping the footer CRC so only the table itself is wrong.
    fn edit_layout(meta: &SegmentMeta, n: usize, edit: impl FnOnce(&mut Vec<u8>)) {
        let mut bytes = std::fs::read(&meta.path).unwrap();
        let size = bytes.len();
        let len = u32::from_le_bytes(bytes[size - 14..size - 10].try_into().unwrap()) as usize;
        let start = size - 14 - len;
        let mut footer = bytes[start..size - 14].to_vec();
        let table = footer.len() - (4 + 16 * (n + 1));
        let mut layout = footer.split_off(table);
        edit(&mut layout);
        footer.extend_from_slice(&layout);
        bytes.truncate(start);
        write_tail(&mut bytes, &footer).unwrap();
        std::fs::write(&meta.path, &bytes).unwrap();
    }

    /// A layout table that does not tile the file makes `read_footer`
    /// fail, even under a valid footer CRC, so a lazy open takes its
    /// eager fallback instead of paging from wrong offsets.
    #[test]
    fn a_malformed_layout_table_fails_read_footer() {
        let dir = Scratch::new("layout");
        let chunk = 8usize;
        let docs = corpus(32);
        let n = docs.len() / chunk;
        let meta = seal_run(&dir.0, &docs, 0, docs.len(), chunk, Format::Pseg2);
        edit_layout(&meta, n, |_| {});
        assert!(read_footer(&meta).is_ok(), "re-stamped footer still reads");
        let bound = |k: usize| 4 + 8 * k;
        type Edit = Box<dyn Fn(&mut Vec<u8>)>;
        let edits: Vec<(&str, Edit)> = vec![
            ("chunk count", Box::new(|t: &mut Vec<u8>| t[0] += 1)),
            (
                "document bound",
                Box::new(move |t: &mut Vec<u8>| {
                    t[bound(1)..bound(2)].copy_from_slice(&(DATA_START + 8).to_le_bytes())
                }),
            ),
            (
                "first document bound",
                Box::new(move |t: &mut Vec<u8>| t[bound(0)] = 0),
            ),
            (
                "block bound",
                Box::new(move |t: &mut Vec<u8>| t[bound(n + 1 + 2)] ^= 0x10),
            ),
            (
                "last block bound",
                Box::new(move |t: &mut Vec<u8>| t[bound(2 * n + 1)] ^= 0x01),
            ),
            (
                "truncated table",
                Box::new(|t: &mut Vec<u8>| {
                    t.pop();
                }),
            ),
        ];
        for (what, edit) in edits {
            let meta = seal_run(&dir.0, &docs, 0, docs.len(), chunk, Format::Pseg2);
            edit_layout(&meta, n, edit);
            assert!(read_footer(&meta).is_err(), "{what}: malformed layout read");
        }
    }

    #[test]
    fn compaction_merges_contiguous_runs() {
        let dir = Scratch::new("c");
        let chunk = 8usize;
        let docs = corpus(48);
        let m1 = seal_run(&dir.0, &docs[..16], 0, 16, chunk, Format::Pseg2);
        // Second run: zones exported from a shard that saw all 32 rows,
        // sealed range [16, 32) — mirrors the live incremental seal.
        let m2 = seal_run(&dir.0, &docs[..32], 16, 32, chunk, Format::Pseg2);

        let merged = compact_runs(&dir.0, &[m1, m2]).unwrap();
        assert_eq!((merged.start, merged.end), (0, 32));
        let back = read_docs(&merged).unwrap();
        assert_eq!(back.len(), 32);
        // Inputs deleted; only the merged file (and nothing else) left.
        let metas = scan_dir(&dir.0).unwrap();
        assert_eq!(metas.len(), 1);
        assert_eq!(metas[0].end - metas[0].start, 32);
    }

    /// Compacting a `PSEG1` run with a `PSEG2` run writes `PSEG2` through
    /// the rebuild path, whether or not the dictionaries are
    /// prefix-compatible, and two `PSEG2` runs merge on the footer-reuse
    /// path; every merged file is byte-identical to the same rows sealed
    /// as one `PSEG2` segment, so it pages the same cells and documents
    /// and answers identically.
    #[test]
    fn compacting_mixed_pseg1_and_pseg2_runs_writes_pseg2() {
        let chunk = 8usize;
        let docs = corpus(48);
        let reference = Scratch::new("mix-ref");
        let whole = seal_run(&reference.0, &docs[..32], 0, 32, chunk, Format::Pseg2);
        let want = std::fs::read(&whole.path).unwrap();

        // One shard sealed [0, 16), then [16, 32): prefix-compatible
        // dictionaries. With a PSEG1 first run this rebuilds; with two
        // PSEG2 runs it reuses the footers and copies the blocks.
        for (first, what) in [
            (Format::Pseg1, "PSEG1 + PSEG2 rebuild"),
            (Format::Pseg2, "PSEG2 + PSEG2 footer reuse"),
        ] {
            let dir = Scratch::new("mix-compatible");
            let m1 = seal_run(&dir.0, &docs[..16], 0, 16, chunk, first);
            let m2 = seal_run(&dir.0, &docs[..32], 16, 32, chunk, Format::Pseg2);
            let footers = [read_footer(&m1).unwrap(), read_footer(&m2).unwrap()];
            assert_eq!(footers[0].layout.is_none(), first == Format::Pseg1);
            assert!(dicts_prefix_compatible(&footers));
            let merged = compact_runs(&dir.0, &[m1, m2]).unwrap();
            assert_eq!(merged.format, Format::Pseg2, "{what}");
            assert_eq!(std::fs::read(&merged.path).unwrap(), want, "{what}");
        }

        // The PSEG2 run comes from a shard that saw other rows first, so
        // its dictionary is no extension of the PSEG1 run's.
        let dir = Scratch::new("mix-rebuild");
        let m1 = seal_run(&dir.0, &docs[..16], 0, 16, chunk, Format::Pseg1);
        let other: Vec<Arc<Value>> = docs[32..48].iter().chain(&docs[16..32]).cloned().collect();
        let m2 = seal_run(&dir.0, &other, 16, 32, chunk, Format::Pseg2);
        let footers = [read_footer(&m1).unwrap(), read_footer(&m2).unwrap()];
        assert!(!dicts_prefix_compatible(&footers));
        let merged = compact_runs(&dir.0, &[m1, m2]).unwrap();
        assert_eq!(merged.format, Format::Pseg2);
        assert_eq!(
            std::fs::read(&merged.path).unwrap(),
            want,
            "incompatible rebuild"
        );
    }
}
