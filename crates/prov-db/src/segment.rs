//! Sealed, immutable on-disk columnar segments.
//!
//! A durable store ([`crate::store::ProvenanceDatabase::open`]) period-
//! ically seals the already-materialized prefix of every document-store
//! shard to disk and rotates the sealed records out of the WAL. A
//! segment is one shard's rows `[start, end)` — always whole
//! `PROVDB_CHUNK`-row chunks, so the in-memory chunk zone maps of
//! [`crate::columnar`] can be serialized *as* the segment footer instead
//! of inventing a second pruning structure: on-disk scans consult the
//! footer and prune whole chunks before reading a single byte of them.
//!
//! ## File layout (`seg-nNN-sSS-rAAAAAAAAAA-BBBBBBBBBB.seg`)
//!
//! ```text
//! "PSEG4\n"                                  magic (6 bytes)
//! [nshards u32][shard u32][start u64][end u64][chunk u32][n_docs u32]
//! n_docs × [len u32][crc u32][payload]       document region, slot order
//! n_chunks × column block                    column region, chunk order
//! footer                                     column table, chunk directory,
//!                                            then the layout
//! [footer_len u32][footer_crc u32]"PSEGF\n"  tail (14 bytes)
//! ```
//!
//! * `nshards` is the shard count **at seal time**. A segment covers
//!   shard `shard`'s slots `[start, end)`, i.e. the arrival indexes
//!   `{k : k % nshards == shard, start ≤ k / nshards < end}` — the
//!   facade routes arrivals round-robin, so this is self-describing
//!   even if the store is later reopened with a different shard count.
//! * Documents use the WAL's binary value codec, individually
//!   checksummed.
//! * The footer's **column table** names every column the store knew at
//!   seal time, in column-id order: `[n u32]`, then per column
//!   `[name_len u32][name][kind u8][flags u8]`, and for a string column
//!   its dictionary, `[n_syms u32]` × `[len u32][bytes]` (codes are
//!   shard-local; the snapshot makes them meaningful after restart). Flag
//!   bit 0 is the store-wide pushdown poison at seal time; bit 1 marks a
//!   **row-key column** (always a flag column): the presence of one frame
//!   column name that not every decodable row holds, the catalog a lazy
//!   open lists the frame's columns from without reading a document (see
//!   [`crate::columnar::Registry`]).
//! * The footer's **chunk directory** says which columns each chunk holds:
//!   `[n_chunks u32]`, then per chunk `[decodable u32][n_held u32]` and per
//!   held column `[column u32]` plus its zone — string `[min_code u32]
//!   [max_code u32][present u32]`, float `[min u64][max u64][present u32]
//!   [nan u32]` (raw `f64` bits), flag `[present u32]`. A chunk holds a
//!   column when it has a present cell of it and the column is not
//!   poisoned, so a column a chunk never holds costs that chunk no bytes.
//!   Then `[irregular u32]`, the store-wide irregular-field mask, and
//!   `[overflowed u8]`: bit 0 says the store's catalog had overflowed
//!   ([`crate::columnar::MAX_DISCOVERED`]), in which case a discovered
//!   column the table does not list is unknown here, not absent; bit 1
//!   says the same of the row-key catalog
//!   ([`crate::columnar::MAX_ROW_KEYS`]).
//! * A **column block** holds one chunk's cells of the columns its
//!   directory lists, in directory order, so a scan can page the columns
//!   without decoding a document:
//!
//!   ```text
//!   decodable bitmap                 ceil(rows / 8) bytes, bit r = row r
//!   per held string column: [width u8]  1, 2 or 4
//!                     rows × width   codes (LE) into the footer dictionary;
//!                                    all-ones is the null code
//!   per held float column: presence bitmap, then present × u64 raw bits
//!   per held flag column:  presence bitmap
//!   [crc u32]                        over the block
//!   ```
//!
//!   The width is the narrowest that keeps every present code below the
//!   all-ones null code, chosen per block and column.
//! * The footer's **layout** table locates both regions per chunk:
//!   `[n_chunks u32]`, then `n_chunks + 1` document-record bounds and
//!   `n_chunks + 1` column-block bounds (absolute `u64` offsets).
//!   [`read_footer`] rejects a table that does not tile the file exactly.
//! * The tail makes the footer locatable without parsing the documents:
//!   [`read_footer`] reads 14 bytes from the end, then the footer.
//!
//! `PSEG1` (documents and a zone footer over the fourteen scalar hot
//! fields), `PSEG2` (the same plus column blocks of those fields and the
//! layout) and `PSEG3` (this layout without row-key columns: both flag
//! bytes are 0 or 1) files were written by older releases; nothing writes
//! them any more. Their footers parse into the same tables, a legacy
//! directory listing the fourteen fields, so footer pruning and
//! compaction read them. They are written forward at the first lazy
//! open, which rewrites every one it is about to attach as `PSEG4` under
//! the same name ([`write_forward`]), so the pager only ever reads
//! `PSEG4`.
//!
//! Segments are written to a temp file, synced, and renamed into place;
//! a crash mid-seal leaves at most an ignorable `*.tmp`. **Compaction**
//! merges a shard's contiguous sealed runs into one `PSEG4` segment. When
//! every input is `PSEG4` and their column tables and dictionaries are
//! prefix-compatible it reuses their serialized chunk directories and
//! copies their document records and column blocks verbatim after
//! checking every CRC. Otherwise (an older input among them, or
//! incompatible tables) it rebuilds the directory and the blocks from a
//! fresh columnar pass — the pass [`write_forward`] runs on one legacy
//! run. It deletes the inputs after the rename (never the output, which
//! a one-run rewrite writes under its input's name); a crash in between
//! leaves overlapping segments, which [`scan_dir`] resolves by keeping the
//! widest coverage and deleting the contained leftovers.

use crate::columnar::{
    compile_pred, Cells, ColField, ColPredicate, ColSource, Column, ColumnarShard, Dict, Kind,
    Registry, Zone, F64_FIELDS, FIXED, NULL_CODE, STR_FIELDS,
};
use crate::wal::{crc32, encode_value, sync_dir, take8, take_u32, SymTable};
use prov_model::{Sym, Value};
use std::fs::File;
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Magics of the formats read but no longer written.
const MAGIC_V1: &[u8; 6] = b"PSEG1\n";
const MAGIC_V2: &[u8; 6] = b"PSEG2\n";
const MAGIC_V3: &[u8; 6] = b"PSEG3\n";
const MAGIC: &[u8; 6] = b"PSEG4\n";
const TAIL_MAGIC: &[u8; 6] = b"PSEGF\n";

/// Byte length of the fixed header (magic + metadata: 6 + 4 + 4 + 8 + 8
/// + 4 + 4), i.e. where the document records begin in every format.
const DATA_START: u64 = 38;

/// One column of a footer's column table.
#[derive(Clone)]
pub(crate) struct FooterColumn {
    pub(crate) name: Sym,
    pub(crate) kind: Kind,
    /// Store-wide pushdown poison at seal time.
    pub(crate) poisoned: bool,
    /// Whether the column is a row-key column
    /// ([`crate::columnar::Registry`]).
    pub(crate) key: bool,
    /// The shard dictionary at seal time (`code → symbol`,
    /// first-appearance order — a prefix of any later one); empty for
    /// non-string columns.
    pub(crate) dict: Arc<Dict>,
}

/// One chunk's directory entry.
#[derive(Clone)]
pub(crate) struct ChunkDir {
    /// Decodable rows.
    pub(crate) decodable: u32,
    /// The columns the chunk holds (column-table index, ascending) with
    /// their zones.
    pub(crate) held: Vec<(u32, Zone)>,
}

/// The serialized form of one segment's columnar metadata — the column
/// table, the chunk directory with each held column's zone map, and the
/// store-wide irregular mask (see the module docs for the byte layout).
#[derive(Clone)]
pub(crate) struct ZoneTables {
    pub(crate) columns: Vec<FooterColumn>,
    pub(crate) chunks: Vec<ChunkDir>,
    /// Store-wide irregular-column bitmask at seal time. A lazily opened
    /// store ORs the masks (and the poison flags) of its attached
    /// segments instead of re-extracting every sealed document, which
    /// yields the same bits: every document's ingest report is folded
    /// into the store state before its seal.
    pub(crate) irregular: u16,
    /// Whether the store's catalog had overflowed at seal time
    /// ([`crate::columnar::MAX_DISCOVERED`]): a discovered column missing
    /// from the table may still have cells in this segment's rows.
    pub(crate) overflowed: bool,
    /// Whether the store's row-key catalog had overflowed at seal time
    /// ([`crate::columnar::MAX_ROW_KEYS`]): this segment's rows may hold
    /// frame columns the table does not list.
    pub(crate) keys_overflowed: bool,
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn take_str(buf: &[u8], pos: &mut usize) -> Option<Sym> {
    let len = take_u32(buf, pos)? as usize;
    let bytes = buf.get(*pos..pos.checked_add(len)?)?;
    *pos += len;
    Some(Sym::from(std::str::from_utf8(bytes).ok()?))
}

/// A length prefix no larger than the bytes left (each entry takes at
/// least one byte), so a corrupt count cannot ask for a huge allocation.
fn take_count(buf: &[u8], pos: &mut usize) -> Option<usize> {
    let n = take_u32(buf, pos)? as usize;
    (n <= buf.len() - *pos).then_some(n)
}

fn take_f64(buf: &[u8], pos: &mut usize) -> Option<f64> {
    Some(f64::from_bits(u64::from_le_bytes(take8(buf, pos)?)))
}

fn put_zone(out: &mut Vec<u8>, z: &Zone) {
    match *z {
        Zone::Str {
            min_code,
            max_code,
            present,
        } => {
            put_u32(out, min_code);
            put_u32(out, max_code);
            put_u32(out, present);
        }
        Zone::F64 {
            min,
            max,
            present,
            nan,
        } => {
            out.extend_from_slice(&min.to_bits().to_le_bytes());
            out.extend_from_slice(&max.to_bits().to_le_bytes());
            put_u32(out, present);
            put_u32(out, nan);
        }
        Zone::Flag { present } => put_u32(out, present),
    }
}

fn take_zone(buf: &[u8], pos: &mut usize, kind: Kind) -> Option<Zone> {
    Some(match kind {
        Kind::Str => Zone::Str {
            min_code: take_u32(buf, pos)?,
            max_code: take_u32(buf, pos)?,
            present: take_u32(buf, pos)?,
        },
        Kind::F64 => Zone::F64 {
            min: take_f64(buf, pos)?,
            max: take_f64(buf, pos)?,
            present: take_u32(buf, pos)?,
            nan: take_u32(buf, pos)?,
        },
        Kind::Flag => Zone::Flag {
            present: take_u32(buf, pos)?,
        },
    })
}

impl ZoneTables {
    /// Canonical `PSEG4` serialization (the byte-identity the round-trip
    /// tests pin).
    pub(crate) fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_u32(&mut out, self.columns.len() as u32);
        for col in &self.columns {
            put_str(&mut out, col.name.as_str());
            out.push(col.kind.tag());
            out.push(u8::from(col.poisoned) | u8::from(col.key) << 1);
            if col.kind == Kind::Str {
                put_u32(&mut out, col.dict.len() as u32);
                for sym in col.dict.syms() {
                    put_str(&mut out, sym.as_str());
                }
            }
        }
        put_u32(&mut out, self.chunks.len() as u32);
        for chunk in &self.chunks {
            put_u32(&mut out, chunk.decodable);
            put_u32(&mut out, chunk.held.len() as u32);
            for (col, zone) in &chunk.held {
                put_u32(&mut out, *col);
                put_zone(&mut out, zone);
            }
        }
        put_u32(&mut out, self.irregular as u32);
        out.push(u8::from(self.overflowed) | u8::from(self.keys_overflowed) << 1);
        out
    }

    /// Inverse of [`to_bytes`](Self::to_bytes); `None` on malformed
    /// input.
    #[cfg(test)]
    pub(crate) fn from_bytes(buf: &[u8]) -> Option<Self> {
        let mut pos = 0usize;
        Self::read(buf, &mut pos, Format::Pseg4).filter(|_| pos == buf.len())
    }

    /// Parse `PSEG3` or `PSEG4` tables starting at `*pos`, advancing it
    /// past them; `None` on malformed input. `PSEG3` tables are `PSEG4`
    /// tables without the row-key bits: no row-key column, no row-key
    /// overflow.
    fn read(buf: &[u8], pos: &mut usize, format: Format) -> Option<Self> {
        // The flag bits a format defines.
        let flags = |b: u8| (b <= if format == Format::Pseg4 { 3 } else { 1 }).then_some(b);
        let ncols = take_count(buf, pos)?;
        let mut columns = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            let name = take_str(buf, pos)?;
            let kind = Kind::from_tag(*buf.get(*pos)?)?;
            let bits = flags(*buf.get(*pos + 1)?)?;
            let key = bits & 2 != 0;
            if key && kind != Kind::Flag {
                return None;
            }
            *pos += 2;
            let mut syms = Vec::new();
            if kind == Kind::Str {
                let n = take_count(buf, pos)?;
                syms.reserve(n);
                for _ in 0..n {
                    syms.push(take_str(buf, pos)?);
                }
            }
            columns.push(FooterColumn {
                name,
                kind,
                poisoned: bits & 1 != 0,
                key,
                dict: Arc::new(Dict::from_syms(syms)),
            });
        }
        let nchunks = take_count(buf, pos)?;
        let mut chunks = Vec::with_capacity(nchunks);
        for _ in 0..nchunks {
            let decodable = take_u32(buf, pos)?;
            let n = take_count(buf, pos)?;
            let mut held = Vec::with_capacity(n);
            for _ in 0..n {
                let col = take_u32(buf, pos)?;
                // Ascending, known columns only.
                if held.last().is_some_and(|&(prev, _)| prev >= col) {
                    return None;
                }
                let kind = columns.get(col as usize)?.kind;
                held.push((col, take_zone(buf, pos, kind)?));
            }
            chunks.push(ChunkDir { decodable, held });
        }
        let irregular = u16::try_from(take_u32(buf, pos)?).ok()?;
        let overflow = flags(*buf.get(*pos)?)?;
        *pos += 1;
        Some(Self {
            columns,
            chunks,
            irregular,
            overflowed: overflow & 1 != 0,
            keys_overflowed: overflow & 2 != 0,
        })
    }

    /// Parse the zone tables of a `PSEG1`/`PSEG2` footer: per string
    /// field its dictionary, per field its chunk zones, the decodable
    /// counts, then the irregular and poison masks. Every chunk lists all
    /// fourteen fields (their column blocks hold every one).
    fn read_legacy(buf: &[u8], pos: &mut usize) -> Option<Self> {
        let mut columns: Vec<FooterColumn> = Vec::with_capacity(FIXED - 1);
        if take_u32(buf, pos)? as usize != STR_FIELDS.len() {
            return None;
        }
        for name in STR_FIELDS {
            let n = take_count(buf, pos)?;
            let mut syms = Vec::with_capacity(n);
            for _ in 0..n {
                syms.push(take_str(buf, pos)?);
            }
            columns.push(FooterColumn {
                name: Sym::from(name),
                kind: Kind::Str,
                poisoned: false,
                key: false,
                dict: Arc::new(Dict::from_syms(syms)),
            });
        }
        let mut zones: Vec<Vec<Zone>> = Vec::with_capacity(FIXED - 1);
        for kind in [Kind::Str, Kind::F64] {
            let expect = if kind == Kind::Str {
                STR_FIELDS.len()
            } else {
                F64_FIELDS.len()
            };
            if take_u32(buf, pos)? as usize != expect {
                return None;
            }
            for _ in 0..expect {
                let n = take_count(buf, pos)?;
                zones.push(
                    (0..n)
                        .map(|_| take_zone(buf, pos, kind))
                        .collect::<Option<_>>()?,
                );
            }
        }
        for name in F64_FIELDS {
            columns.push(FooterColumn {
                name: Sym::from(name),
                kind: Kind::F64,
                poisoned: false,
                key: false,
                dict: Arc::default(),
            });
        }
        let n = take_count(buf, pos)?;
        let mut chunks = Vec::with_capacity(n);
        for c in 0..n {
            let held = zones
                .iter()
                .enumerate()
                .map(|(i, z)| Some((i as u32, *z.get(c)?)))
                .collect::<Option<_>>()?;
            chunks.push(ChunkDir {
                decodable: take_u32(buf, pos)?,
                held,
            });
        }
        let irregular = u16::try_from(take_u32(buf, pos)?).ok()?;
        let poison = u16::try_from(take_u32(buf, pos)?).ok()?;
        for (i, col) in columns.iter_mut().enumerate() {
            col.poisoned = poison & (1 << i) != 0;
        }
        Some(Self {
            columns,
            chunks,
            irregular,
            overflowed: false,
            keys_overflowed: false,
        })
    }

    /// The exact byte length of chunk `c`'s column block of `rows` rows:
    /// its code widths follow from the string zones' largest present code
    /// and its float payloads from the float zones' present counts. The
    /// same rule sizes a `PSEG2` block, whose directory is every field.
    fn block_len(&self, c: usize, rows: usize) -> Option<u64> {
        let bitmap = rows.div_ceil(8);
        let mut len = bitmap + 4;
        for (_, zone) in &self.chunks.get(c)?.held {
            len += match *zone {
                Zone::Str {
                    max_code, present, ..
                } => 1 + rows * code_width((present > 0).then_some(max_code)),
                Zone::F64 { present, .. } => bitmap + 8 * present as usize,
                Zone::Flag { .. } => bitmap,
            };
        }
        Some(len as u64)
    }

    /// The zone of footer column `col` in chunk `c`: its directory entry,
    /// or the empty zone of a column the chunk does not hold.
    pub(crate) fn zone(&self, c: usize, col: u32) -> Zone {
        let held = &self.chunks[c].held;
        match held.binary_search_by_key(&col, |&(i, _)| i) {
            Ok(i) => held[i].1,
            Err(_) => Zone::empty(self.columns[col as usize].kind),
        }
    }

    /// Zone verdict for one predicate against one chunk — compiled
    /// against the footer's dictionaries and decided by the in-memory
    /// kernel's own zone test (conservative: `false` means "must read",
    /// never "matches"). `col` is the predicate column's footer index,
    /// `None` when the footer has no such column: all-null in the chunk.
    pub(crate) fn chunk_skips(
        &self,
        p: &ColPredicate<'_>,
        col: Option<u32>,
        c: usize,
        rows: u32,
    ) -> bool {
        let source = col.map(|i| {
            let fc = &self.columns[i as usize];
            match fc.kind {
                Kind::Str => ColSource::Str(&fc.dict),
                Kind::F64 => ColSource::F64,
                Kind::Flag => ColSource::Flag,
            }
        });
        let compiled = compile_pred(p, source, false);
        // Without a footer column the predicate compiled to `Always` or
        // `Never`, which read no zone.
        let zone = col.map_or(Zone::Flag { present: 0 }, |i| self.zone(c, i));
        compiled.zone_skips(&zone, rows)
    }
}

/// On-disk format of a segment file, from its header magic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Format {
    /// Row file: documents, then a zone-map footer.
    Pseg1,
    /// Documents, column blocks of the fourteen hot fields, and a footer
    /// locating both.
    Pseg2,
    /// Documents, per-chunk column blocks of the columns each chunk
    /// holds, and a footer with the column table and chunk directory.
    Pseg3,
    /// `PSEG3` plus the row-key catalog: row-key columns in the column
    /// table, their presence bits in the column blocks, and the row-key
    /// overflow bit.
    Pseg4,
}

impl Format {
    fn magic(self) -> &'static [u8; 6] {
        match self {
            Format::Pseg1 => MAGIC_V1,
            Format::Pseg2 => MAGIC_V2,
            Format::Pseg3 => MAGIC_V3,
            Format::Pseg4 => MAGIC,
        }
    }
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
    /// The `PSEG4` segment of shard `shard`'s `n_docs` rows from slot
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
            format: Format::Pseg4,
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
/// `bytes[bounds[c]..bounds[c + 1]]`. A segment file's column region is
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

/// Export rows `[start, end)` of `cols` (whole chunks, all covered) as
/// the footer tables and column blocks of a segment: the column table is
/// `reg` at seal time (with this shard's dictionaries), and each chunk
/// holds the unpoisoned columns it has a present cell of. String
/// dictionaries are shared, not copied: codes are first-appearance
/// stable, so the snapshot maps every code the sealed zones reference.
/// The caller stamps the store-wide irregular mask in.
pub(crate) fn export(
    cols: &ColumnarShard,
    start: usize,
    end: usize,
    reg: &Registry,
) -> Option<(ZoneTables, ChunkRuns)> {
    let chunk = cols.chunk_rows();
    if !start.is_multiple_of(chunk) || !end.is_multiple_of(chunk) || end > cols.len() || start > end
    {
        return None;
    }
    let columns: Vec<FooterColumn> = (0..reg.len())
        .map(|i| {
            let f = ColField(i as u32);
            FooterColumn {
                name: reg.name(f).clone(),
                kind: reg.kind(f),
                poisoned: reg.is_poisoned(f),
                key: reg.is_key(f),
                dict: cols.dict(f).cloned().unwrap_or_default(),
            }
        })
        .collect();
    let mut chunks = Vec::with_capacity((end - start) / chunk);
    let mut runs = ChunkRuns::new();
    for c in start / chunk..end / chunk {
        let held: Vec<(u32, Zone)> = cols
            .chunk_cols(c)
            .filter(|(f, _)| !reg.is_poisoned(*f))
            .map(|(f, ch)| (f.0, ch.zone))
            .collect();
        encode_col_block(cols, c, &held, &mut runs.bytes);
        runs.close_chunk();
        chunks.push(ChunkDir {
            decodable: cols.chunk_decodable(c),
            held,
        });
    }
    let zones = ZoneTables {
        columns,
        chunks,
        irregular: 0,
        overflowed: reg.overflowed(),
        keys_overflowed: reg.keys_overflowed(),
    };
    Some((zones, runs))
}

/// Append a bitmap of `bits`: bit `r` is bit `r % 8` of byte `r / 8`.
fn put_bits(out: &mut Vec<u8>, bits: impl ExactSizeIterator<Item = bool>) {
    let start = out.len();
    out.resize(start + bits.len().div_ceil(8), 0);
    for (r, b) in bits.enumerate() {
        out[start + r / 8] |= u8::from(b) << (r % 8);
    }
}

/// Expand a bitmap of `rows` bits.
fn bits(bitmap: &[u8], rows: usize) -> Vec<bool> {
    (0..rows)
        .map(|r| (bitmap[r / 8] >> (r % 8)) & 1 == 1)
        .collect()
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

/// Append chunk `c` of `cols` as one column block of the `held` columns
/// (layout in the module docs). A held column without a present cell in
/// the chunk (only ever listed by a `PSEG2` block) writes width 0 or an
/// empty bitmap.
fn encode_col_block(cols: &ColumnarShard, c: usize, held: &[(u32, Zone)], out: &mut Vec<u8>) {
    let start = out.len();
    let (lo, hi) = cols.chunk_span(c);
    put_bits(out, (lo..hi).map(|r| cols.is_decodable(r)));
    for &(f, zone) in held {
        let cells = cols
            .column(ColField(f))
            .and_then(|col| col.chunk(c))
            .map(|ch| &ch.cells);
        match (zone, cells) {
            (
                Zone::Str {
                    max_code, present, ..
                },
                cells,
            ) => {
                let width = code_width((present > 0).then_some(max_code));
                out.push(width as u8);
                if let Some(Cells::Str(codes)) = cells {
                    for &code in codes {
                        // `NULL_CODE` is all ones, so truncating it yields
                        // the width's null code; present codes sit below it.
                        out.extend_from_slice(&code.to_le_bytes()[..width]);
                    }
                }
            }
            (Zone::F64 { .. }, Some(Cells::F64(vals))) => {
                put_bits(out, vals.iter().map(Option::is_some));
                for x in vals.iter().flatten() {
                    out.extend_from_slice(&x.to_bits().to_le_bytes());
                }
            }
            (Zone::Flag { .. }, Some(Cells::Flag(b))) => put_bits(out, b.iter().copied()),
            _ => put_bits(out, (lo..hi).map(|_| false)),
        }
    }
    let crc = crc32(&[&out[start..]]);
    put_u32(out, crc);
}

/// Decode chunk `lc`'s column block of `rows` rows into a one-chunk shard
/// of `chunk` rows, in bulk: each held column is built in one pass — codes
/// widened against the footer dictionary (shared, not re-interned), float
/// bits expanded from the presence bitmap — and takes its zone from the
/// footer directory; `ids` maps footer columns to store columns. `Err`
/// names the fault: a checksum mismatch, or a block whose structure does
/// not parse.
pub(crate) fn decode_col_block(
    block: &[u8],
    rows: usize,
    chunk: usize,
    tables: &ZoneTables,
    lc: usize,
    ids: &[ColField],
) -> Result<ColumnarShard, &'static str> {
    let body_len = block.len().checked_sub(4).ok_or("torn column block")?;
    let (body, crc) = block.split_at(body_len);
    if crc32(&[body]) != u32::from_le_bytes(crc.try_into().expect("4 bytes")) {
        return Err("column block checksum mismatch");
    }
    const MALFORMED: &str = "malformed column block";
    let bitmap = rows.div_ceil(8);
    let mut pos = 0usize;
    let mut take = |n: usize| -> Result<&[u8], &'static str> {
        let b = body.get(pos..pos + n).ok_or(MALFORMED)?;
        pos += n;
        Ok(b)
    };
    let decodable = bits(take(bitmap)?, rows);
    let dir = tables.chunks.get(lc).ok_or(MALFORMED)?;
    let mut cols = Vec::with_capacity(dir.held.len());
    for &(i, zone) in &dir.held {
        let fc = &tables.columns[i as usize];
        let cells = match fc.kind {
            Kind::Str => {
                let width = take(1)?[0] as usize;
                let raw = take(rows * width)?;
                let null = match width {
                    1 => 0xFF,
                    2 => 0xFFFF,
                    4 => NULL_CODE,
                    _ => return Err(MALFORMED),
                };
                let mut max = 0u32;
                let codes: Vec<u32> = raw
                    .chunks_exact(width)
                    .map(|b| {
                        let mut le = [0u8; 4];
                        le[..width].copy_from_slice(b);
                        let code = u32::from_le_bytes(le);
                        if code == null {
                            NULL_CODE
                        } else {
                            max = max.max(code);
                            code
                        }
                    })
                    .collect();
                if max as usize >= fc.dict.len() {
                    return Err("column block code outside the dictionary");
                }
                Cells::Str(codes)
            }
            Kind::F64 => {
                let present = bits(take(bitmap)?, rows);
                let n = present.iter().filter(|&&p| p).count();
                let mut raw = take(n * 8)?.chunks_exact(8);
                Cells::F64(
                    present
                        .iter()
                        .map(|&p| {
                            p.then(|| {
                                let b = raw.next().expect("one word per present cell");
                                f64::from_bits(u64::from_le_bytes(b.try_into().expect("8")))
                            })
                        })
                        .collect(),
                )
            }
            Kind::Flag => Cells::Flag(bits(take(bitmap)?, rows)),
        };
        let column = Column::from_chunk(fc.kind, Arc::clone(&fc.dict), cells, zone);
        cols.push((ids[i as usize], column));
    }
    if pos != body.len() {
        return Err(MALFORMED);
    }
    Ok(ColumnarShard::from_chunk(chunk, decodable, cols))
}

/// Where a segment file's chunks sit: `n_chunks + 1` absolute bounds of
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
    /// one chunk per directory entry and per `meta.chunk` rows, document
    /// bounds from [`DATA_START`] to the first block with room for every
    /// chunk's record headers, and block bounds up to `footer_start`,
    /// each block exactly as long as its directory implies.
    fn read(
        buf: &[u8],
        pos: &mut usize,
        meta: &SegmentMeta,
        zones: &ZoneTables,
        footer_start: u64,
    ) -> Option<Self> {
        let n = take_u32(buf, pos)? as usize;
        let chunk = meta.chunk_rows();
        let n_docs = meta.n_docs as usize;
        if n != zones.chunks.len() || n != n_docs.div_ceil(chunk) {
            return None;
        }
        let mut bounds = || -> Option<Vec<u64>> {
            (0..=n)
                .map(|_| take8(buf, pos).map(u64::from_le_bytes))
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
/// file with column blocks (`None` for `PSEG1`).
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

/// Write `meta`'s file atomically (temp file, fsync, rename): the header,
/// the document region `write_docs` streams (returning its relative chunk
/// bounds), the column region `cols`, and the footer — `tables` (already
/// serialized) then the layout.
fn write_file(
    meta: &SegmentMeta,
    write_docs: impl FnOnce(&mut BufWriter<File>) -> std::io::Result<Vec<u64>>,
    cols: &ChunkRuns,
    tables: Vec<u8>,
) -> std::io::Result<()> {
    let tmp = meta.path.with_extension("tmp");
    {
        let mut f = BufWriter::new(File::create(&tmp)?);
        write_header(&mut f, meta.format.magic(), meta)?;
        let doc_bounds = write_docs(&mut f)?;
        debug_assert_eq!(doc_bounds.len(), cols.bounds.len());
        f.write_all(&cols.bytes)?;
        let cols_at = DATA_START + doc_bounds.last().expect("bounds start at 0");
        let mut footer = tables;
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
/// column blocks and footer tables (see [`export`]).
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
        zones.to_bytes(),
    )
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
        m if m == MAGIC => Format::Pseg4,
        m if m == MAGIC_V3 => Format::Pseg3,
        m if m == MAGIC_V2 => Format::Pseg2,
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

/// The payload of the `[len][crc][payload]` record at `*pos` in `buf`,
/// checksum-verified, advancing `*pos` past it. `Err` names the fault.
pub(crate) fn next_record<'a>(buf: &'a [u8], pos: &mut usize) -> Result<&'a [u8], &'static str> {
    let len = take_u32(buf, pos).ok_or("torn record")? as usize;
    let crc = take_u32(buf, pos).ok_or("torn record")?;
    let payload = buf.get(*pos..*pos + len).ok_or("torn record")?;
    *pos += len;
    (crc32(&[payload]) == crc)
        .then_some(payload)
        .ok_or("record checksum mismatch")
}

/// Walk `n` records at the start of `buf`, verifying every checksum, and
/// return the byte bounds of each chunk of `chunk` records.
fn walk_records(buf: &[u8], n: usize, chunk: usize, path: &Path) -> std::io::Result<Vec<u64>> {
    let mut bounds = vec![0u64];
    let mut pos = 0usize;
    for i in 0..n {
        next_record(buf, &mut pos).map_err(|fault| corrupt(fault, path))?;
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
    let mut syms = SymTable::default();
    let mut pos = 0usize;
    for _ in 0..hdr.n_docs {
        let payload = next_record(&rest, &mut pos).map_err(|fault| corrupt(fault, &meta.path))?;
        let doc = syms
            .decode(payload)
            .ok_or_else(|| corrupt("undecodable document", &meta.path))?;
        docs.push(doc);
    }
    Ok(docs)
}

/// Read only a segment's footer (zone tables, and the chunk layout of a
/// file with column blocks) — seek to the tail, never touching the
/// documents. This is what lets a scan prune a segment for the cost of
/// its footer. A layout table that does not tile the file is corruption.
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
    let zones = match meta.format {
        Format::Pseg3 | Format::Pseg4 => ZoneTables::read(&bytes, &mut pos, meta.format),
        Format::Pseg1 | Format::Pseg2 => ZoneTables::read_legacy(&bytes, &mut pos),
    }
    .ok_or_else(|| corrupt("undecodable footer", &meta.path))?;
    let layout = match meta.format {
        Format::Pseg1 => None,
        Format::Pseg2 | Format::Pseg3 | Format::Pseg4 => Some(
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
/// chunk's zone map excludes it. Conservative, like the in-memory chunk
/// pruning it is serialized from: a field the column table does not
/// name, or a poisoned one, never prunes.
pub(crate) fn segment_prunes(
    meta: &SegmentMeta,
    zones: &ZoneTables,
    field: &str,
    op: dataframe::CmpOp,
    lit: &Value,
) -> bool {
    let Some(col) = zones
        .columns
        .iter()
        .position(|c| c.name.as_str() == field && !c.poisoned && !c.key)
    else {
        return false;
    };
    let p = ColPredicate::Cmp(ColField(col as u32), op, lit);
    (0..zones.chunks.len()).all(|c| {
        // Every sealed chunk is full by construction (seals happen at
        // chunk boundaries), so rows-per-chunk is exactly `chunk`.
        zones.chunks[c].decodable == 0 || zones.chunk_skips(&p, Some(col as u32), c, meta.chunk)
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

/// Merge a shard's contiguous sealed runs into one `PSEG4` segment.
/// `runs` must be same-shard, same-epoch, sorted, and contiguous.
/// Returns the merged meta.
///
/// Chunks are never re-cut (every input is a whole-chunk run at the same
/// chunk size), so when every input is `PSEG4` and their column tables
/// and dictionaries are prefix-compatible — always true for live seals of
/// one store, whose catalog and dictionaries only grow — the merged footer
/// is just the inputs' chunk directories concatenated under the last
/// (largest) column table, and the document records and column blocks are
/// copied as raw CRC-verified bytes without a decode + re-extract pass.
/// The fallback (a `PSEG1`/`PSEG2`/`PSEG3` input, incompatible tables, or an
/// unreadable footer) rebuilds the footer and the blocks from a fresh
/// columnar pass, keeping every readable input footer's poison flags.
pub(crate) fn compact_runs(dir: &Path, runs: &[SegmentMeta]) -> std::io::Result<SegmentMeta> {
    debug_assert!(runs.len() >= 2);
    debug_assert!(runs.windows(2).all(|w| {
        w[0].end == w[1].start && w[0].shard == w[1].shard && w[0].nshards == w[1].nshards
    }));
    let footers: Vec<Option<Footer>> = runs.iter().map(|r| read_footer(r).ok()).collect();
    if runs.iter().all(|r| r.format == Format::Pseg4) && tables_prefix_compatible(&footers) {
        return compact_runs_reusing_footers(dir, runs, footers.into_iter().flatten().collect());
    }
    let mut docs: Vec<Arc<Value>> = Vec::new();
    for run in runs {
        docs.extend(read_docs(run)?.into_iter().map(Arc::new));
    }
    compact_runs_rebuilding(dir, runs, footers.iter().flatten(), docs)
}

/// Rewrite the `PSEG1`/`PSEG2`/`PSEG3` segment `meta` as `PSEG4` under the same
/// name: a one-run [`compact_runs_rebuilding`], keeping the legacy
/// footer's poison flags. The temp file replaces the old one by rename,
/// so a crash leaves either file whole. `Ok(None)` when the footer or a
/// document cannot be read (the caller replays instead); `Err` when the
/// replacement cannot be written.
pub(crate) fn write_forward(meta: &SegmentMeta) -> std::io::Result<Option<SegmentMeta>> {
    debug_assert_ne!(meta.format, Format::Pseg4);
    let (Ok(footer), Ok(docs)) = (read_footer(meta), read_docs(meta)) else {
        return Ok(None);
    };
    let dir = meta.path.parent().expect("segment lives in a directory");
    let docs = docs.into_iter().map(Arc::new).collect();
    compact_runs_rebuilding(dir, std::slice::from_ref(meta), [&footer], docs).map(Some)
}

/// Write `docs`, the rows of `runs`, as one `PSEG4` segment rebuilt from
/// a fresh columnar pass under the poison flags of `footers`, then delete
/// the inputs.
fn compact_runs_rebuilding<'a>(
    dir: &Path,
    runs: &[SegmentMeta],
    footers: impl IntoIterator<Item = &'a Footer>,
    docs: Vec<Arc<Value>>,
) -> std::io::Result<SegmentMeta> {
    let first = &runs[0];
    let chunk = first.chunk_rows();
    let mut cols = ColumnarShard::with_chunk(chunk);
    let mut reg = Registry::default();
    for fc in footers
        .into_iter()
        .flat_map(|f| &f.zones.columns)
        .filter(|c| c.poisoned)
    {
        let f = reg.bind(&fc.name, fc.kind);
        reg.poison(f);
    }
    let mut irregular = 0u16;
    for doc in &docs {
        irregular |= cols.push_doc(doc, &mut reg).irregular;
    }
    let (mut zones, blocks) =
        export(&cols, 0, docs.len(), &reg).expect("merged run is whole chunks");
    zones.irregular = irregular;
    let merged = SegmentMeta::new(
        dir,
        first.nshards,
        first.shard,
        first.start,
        first.chunk,
        docs.len(),
    );
    write_segment(&merged, &docs, &blocks, &zones)?;
    remove_inputs(dir, runs, &merged);
    Ok(merged)
}

/// Delete the compacted inputs — except one that `merged` was written
/// over, which is the output.
fn remove_inputs(dir: &Path, runs: &[SegmentMeta], merged: &SegmentMeta) {
    for run in runs.iter().filter(|r| r.path != merged.path) {
        let _ = std::fs::remove_file(&run.path);
    }
    sync_dir(dir);
}

/// Whether every footer read and each one's column table (names, kinds,
/// string dictionaries) is a prefix of the next one's — the condition
/// under which their chunk directories, zone code intervals and column
/// block codes all stay meaningful under the last footer's table.
fn tables_prefix_compatible(footers: &[Option<Footer>]) -> bool {
    let Some(tables) = footers
        .iter()
        .map(|f| f.as_ref().map(|f| &f.zones.columns))
        .collect::<Option<Vec<_>>>()
    else {
        return false;
    };
    tables.windows(2).all(|w| {
        let (a, b) = (w[0], w[1]);
        a.len() <= b.len()
            && a.iter().zip(b).all(|(x, y)| {
                x.name == y.name
                    && x.kind == y.kind
                    && x.key == y.key
                    && x.dict.len() <= y.dict.len()
                    && x.dict.syms().iter().zip(y.dict.syms()).all(|(s, t)| s == t)
            })
    })
}

/// The footer-reuse merge: gather the inputs' record regions and column
/// blocks (verifying every checksum, decoding nothing) into the merged
/// file, under a footer assembled from the inputs' already-serialized
/// chunk directories.
fn compact_runs_reusing_footers(
    dir: &Path,
    runs: &[SegmentMeta],
    footers: Vec<Footer>,
) -> std::io::Result<SegmentMeta> {
    let first = &runs[0];
    let mut docs = ChunkRuns::new();
    let mut cols = ChunkRuns::new();
    for (run, footer) in runs.iter().zip(&footers) {
        let layout = footer.layout.as_ref().expect("PSEG4 has a layout");
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
        zones.to_bytes(),
    )?;
    remove_inputs(dir, runs, &merged);
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

/// A segment's column blocks, with every block's checksum verified.
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

/// Concatenate prefix-compatible footers: the last column table maps
/// every column and code the earlier directories reference, chunk
/// directories append in slot order, and the store-wide poison flags and
/// irregular masks OR together.
fn merge_footers(footers: Vec<ZoneTables>) -> ZoneTables {
    let mut merged = footers.last().expect("at least two footers").clone();
    merged.chunks.clear();
    for ft in footers {
        for (i, col) in ft.columns.iter().enumerate() {
            merged.columns[i].poisoned |= col.poisoned;
        }
        merged.chunks.extend(ft.chunks);
        merged.irregular |= ft.irregular;
        merged.overflowed |= ft.overflowed;
        merged.keys_overflowed |= ft.keys_overflowed;
    }
    merged
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::columnar::fixed_column;

    /// Rewrite the segment at `path` in a format older releases wrote —
    /// `PSEG1` (`legacy == 1`), `PSEG2` (`legacy == 2`) or `PSEG3`
    /// (`legacy == 3`) — so compatibility tests can build old directories:
    /// the same documents, with the footer and column blocks re-extracted
    /// from them: those of the fourteen scalar hot fields, or for `PSEG3`
    /// every column but the row keys.
    pub(crate) fn downgrade_segment(path: &Path, legacy: u8) -> std::io::Result<()> {
        let mut f = File::open(path)?;
        let meta = read_header(path, &mut f)?;
        drop(f);
        let docs: Vec<Arc<Value>> = read_docs(&meta)?.into_iter().map(Arc::new).collect();
        let chunk = meta.chunk_rows();
        let mut cols = ColumnarShard::with_chunk(chunk);
        let mut reg = Registry::default();
        let mut irregular = 0u16;
        for doc in &docs {
            // Cells old formats never held stay unresolved: row keys, and
            // before `PSEG3` discovered cells.
            let mut row = crate::columnar::extract(doc);
            row.keys.clear();
            if legacy < 3 {
                row.dataflow.clear();
            }
            reg.resolve(&mut row);
            irregular |= cols.push_row(row).irregular;
        }
        let n = docs.len();
        if legacy == 3 {
            let (mut zones, runs) = export(&cols, 0, n, &reg).expect("whole chunks");
            zones.irregular = irregular;
            let meta = SegmentMeta {
                format: Format::Pseg3,
                ..meta
            };
            return write_file(
                &meta,
                |f| write_records(f, &docs, chunk),
                &runs,
                zones.to_bytes(),
            );
        }
        let zone_of = |i: u32, c: usize| {
            cols.column(ColField(i))
                .and_then(|col| col.chunk(c))
                .map_or(Zone::empty(fixed_column(i as usize).1), |ch| ch.zone)
        };
        let mut out = Vec::new();
        put_u32(&mut out, STR_FIELDS.len() as u32);
        for i in 0..STR_FIELDS.len() {
            let syms = cols
                .dict(ColField(i as u32))
                .map(|d| d.syms().to_vec())
                .unwrap_or_default();
            put_u32(&mut out, syms.len() as u32);
            for s in &syms {
                put_str(&mut out, s.as_str());
            }
        }
        let chunks = n / chunk;
        for (lo, hi) in [(0, STR_FIELDS.len()), (STR_FIELDS.len(), FIXED - 1)] {
            put_u32(&mut out, (hi - lo) as u32);
            for i in lo..hi {
                put_u32(&mut out, chunks as u32);
                for c in 0..chunks {
                    put_zone(&mut out, &zone_of(i as u32, c));
                }
            }
        }
        put_u32(&mut out, chunks as u32);
        for c in 0..chunks {
            put_u32(&mut out, cols.chunk_decodable(c));
        }
        let poison = (0..FIXED - 1)
            .filter(|&i| reg.is_poisoned(ColField(i as u32)))
            .fold(0u16, |m, i| m | 1 << i);
        put_u32(&mut out, irregular as u32);
        put_u32(&mut out, poison as u32);
        let format = if legacy == 1 {
            Format::Pseg1
        } else {
            Format::Pseg2
        };
        let meta = SegmentMeta { format, ..meta };
        if format == Format::Pseg1 {
            let tmp = meta.path.with_extension("tmp");
            let mut f = BufWriter::new(File::create(&tmp)?);
            write_header(&mut f, MAGIC_V1, &meta)?;
            write_records(&mut f, &docs, chunk)?;
            write_tail(&mut f, &out)?;
            f.flush()?;
            drop(f);
            return std::fs::rename(&tmp, &meta.path);
        }
        // A `PSEG2` block is this format's block over the fourteen fields,
        // each listed whether present or not.
        let mut runs = ChunkRuns::new();
        for c in 0..chunks {
            let held: Vec<(u32, Zone)> =
                (0..FIXED as u32 - 1).map(|i| (i, zone_of(i, c))).collect();
            encode_col_block(&cols, c, &held, &mut runs.bytes);
            runs.close_chunk();
        }
        write_file(&meta, |f| write_records(f, &docs, chunk), &runs, out)
    }

    use dataframe::{cmp_matches, CmpOp};
    use prov_model::TaskMessageBuilder;

    /// Tasks with dataflow cells of both kinds (the string one only in
    /// some chunks) and lineage on some rows.
    fn corpus(n: usize) -> Vec<Arc<Value>> {
        (0..n)
            .map(|i| {
                let mut b = TaskMessageBuilder::new(
                    format!("t{i}"),
                    format!("wf-{}", i / 10),
                    format!("act-{}", i % 5),
                )
                .span(i as f64, i as f64 + 0.5)
                .uses("x", i as f64 * 0.5);
                if i % 7 == 0 {
                    b = b.agent("agent-x").depends_on(format!("t{}", i / 2));
                }
                if i >= 20 {
                    b = b.generates("label", format!("L{}", i % 3));
                }
                Arc::new(b.build().to_value())
            })
            .collect()
    }

    /// The sidecar of `docs` and the tables of its whole chunks.
    fn tables_for(docs: &[Arc<Value>], chunk: usize) -> (ColumnarShard, ZoneTables, ChunkRuns) {
        let mut cols = ColumnarShard::with_chunk(chunk);
        let mut reg = Registry::default();
        for d in docs {
            cols.push_doc(d, &mut reg);
        }
        let sealed = (docs.len() / chunk) * chunk;
        let (t, runs) = export(&cols, 0, sealed, &reg).unwrap();
        (cols, t, runs)
    }

    /// Dataflow keys unique to each task (`generated: {"<sample>": x}`)
    /// grow the sidecar, the column blocks and the footer linearly: the
    /// catalog stops at `MAX_DISCOVERED` columns and `MAX_ROW_KEYS` row
    /// keys and overflows, a column costs only the chunks holding a cell
    /// of it, and the footer lists the bounded catalog.
    #[test]
    fn unique_dataflow_keys_grow_sidecar_and_footer_linearly() {
        use crate::columnar::{MAX_DISCOVERED, MAX_ROW_KEYS};
        let docs = |n: usize| -> Vec<Arc<Value>> {
            (0..n)
                .map(|i| {
                    Arc::new(prov_model::obj! {
                        "task_id" => format!("t{i}"), "workflow_id" => "wf", "activity_id" => "a",
                        "generated" => prov_model::obj! {format!("sample_{i}") => i as f64},
                    })
                })
                .collect()
        };
        let sizes = |n: usize| {
            let (cols, tables, runs) = tables_for(&docs(n), 64);
            let keys = tables.columns.iter().filter(|c| c.key).count();
            assert_eq!(tables.columns.len() - keys, FIXED + MAX_DISCOVERED);
            assert_eq!(keys, MAX_ROW_KEYS);
            assert!(tables.overflowed && tables.keys_overflowed);
            (
                cols.heap_bytes(),
                runs.bytes().len(),
                tables.to_bytes().len(),
            )
        };
        let (small, large) = (sizes(1024), sizes(4096));
        for (what, a, b) in [
            ("heap", small.0, large.0),
            ("blocks", small.1, large.1),
            ("footer", small.2, large.2),
        ] {
            assert!(b <= 5 * a, "{what}: {a} bytes at 1024 rows, {b} at 4096");
        }
        // Past the first chunk a row costs its fixed cells alone.
        assert!(large.0 / 4096 < 256, "{} heap bytes a row", large.0 / 4096);
    }

    #[test]
    fn footer_roundtrips_byte_identically() {
        let docs = corpus(50);
        let (_, tables, _) = tables_for(&docs, 8);
        let bytes = tables.to_bytes();
        let back = ZoneTables::from_bytes(&bytes).unwrap();
        assert_eq!(bytes, back.to_bytes());
        assert_eq!(tables.chunks.len(), back.chunks.len());
        for (a, b) in tables.chunks.iter().zip(&back.chunks) {
            assert_eq!(a.decodable, b.decodable);
            assert_eq!(a.held, b.held);
        }
        // The discovered columns are in the table, beside the row keys of
        // the same names, and a chunk before the string column first
        // appears holds neither.
        let named = |key: bool| -> Vec<&str> {
            (tables.columns[FIXED..].iter())
                .filter(|c| c.key == key)
                .map(|c| c.name.as_str())
                .collect()
        };
        assert_eq!(named(false), ["x", "label"]);
        assert_eq!(named(true), ["x", "label"]);
        for c in tables
            .columns
            .iter()
            .enumerate()
            .filter(|(_, c)| c.name == "label")
        {
            let held = |chunk: usize| {
                tables.chunks[chunk]
                    .held
                    .iter()
                    .any(|&(i, _)| i == c.0 as u32)
            };
            assert!(!held(0) && held(3));
        }
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
            let (_, tables, _) = tables_for(&docs, chunk);
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
    /// `format` — the live incremental seal (an old format is written by
    /// downgrading the sealed file).
    fn seal_run(
        dir: &Path,
        shard_docs: &[Arc<Value>],
        lo: usize,
        hi: usize,
        chunk: usize,
        format: Format,
    ) -> SegmentMeta {
        let mut cols = ColumnarShard::with_chunk(chunk);
        let mut reg = Registry::default();
        for d in shard_docs {
            cols.push_doc(d, &mut reg);
        }
        let (zones, runs) = export(&cols, lo, hi, &reg).unwrap();
        let meta = SegmentMeta::new(dir, 1, 0, lo as u64, chunk as u32, hi - lo);
        write_segment(&meta, &shard_docs[lo..hi], &runs, &zones).unwrap();
        let legacy = match format {
            Format::Pseg4 => return meta,
            Format::Pseg3 => 3,
            Format::Pseg2 => 2,
            Format::Pseg1 => 1,
        };
        downgrade_segment(&meta.path, legacy).unwrap();
        SegmentMeta { format, ..meta }
    }

    #[test]
    fn segment_file_roundtrips_and_footer_prunes_soundly() {
        let dir = Scratch::new("rt");
        let chunk = 8usize;
        let docs = corpus(64);
        let (cols, tables, _) = tables_for(&docs, chunk);
        let meta = seal_run(&dir.0, &docs, 0, docs.len(), chunk, Format::Pseg4);

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
        let layout = footer.layout.expect("PSEG4 footer has a layout");
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
            ("x", CmpOp::Gt, Value::Float(100.0)),
            ("x", CmpOp::Le, Value::Float(3.0)),
            ("label", CmpOp::Eq, Value::from("L1")),
            ("label", CmpOp::Eq, Value::from("nope")),
            ("label", CmpOp::Ne, Value::from("L1")),
        ];
        let mut pruned_any = false;
        for (field, op, lit) in &preds {
            if segment_prunes(&meta, &footer.zones, field, *op, lit) {
                pruned_any = true;
                let i = (footer.zones.columns.iter()).position(|c| c.name == *field && !c.key);
                let f = ColField(i.unwrap() as u32);
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
        assert_eq!(metas[0].format, Format::Pseg4);
    }

    /// Column blocks use the narrowest code width per block and column
    /// (a chunk with at most 254 distinct codes stores one byte per
    /// cell), and hold only the columns their directory lists: a column
    /// with no present cell in the chunk costs it no byte.
    #[test]
    fn column_blocks_use_narrow_code_widths() {
        let chunk = 8usize;
        let docs = corpus(24);
        let (cols, tables, runs) = tables_for(&docs, chunk);
        let rows_bitmap = 1; // 8 rows
        let mut pos = rows_bitmap;
        let held = &tables.chunks[0].held;
        for &(f, zone) in held {
            let ch = cols.column(ColField(f)).unwrap().chunk(0).unwrap();
            assert!(ch.zone.present() > 0, "column {f} held without a cell");
            pos += match zone {
                Zone::Str { .. } => {
                    assert_eq!(runs.bytes()[pos], 1, "column {f}");
                    1 + chunk
                }
                Zone::F64 { present, .. } => 1 + 8 * present as usize,
                Zone::Flag { .. } => 1,
            };
        }
        assert_eq!(
            pos + 4,
            runs.bounds[1] as usize,
            "directory tiles the block"
        );
        // No telemetry and no `label` in chunk 0: none of those is held.
        for name in ["cpu_percent_end", "label"] {
            let i = (tables.columns.iter())
                .position(|c| c.name == name && !c.key)
                .unwrap() as u32;
            assert!(held.iter().all(|&(c, _)| c != i), "{name} held");
        }
        // A block decodes back into the same cells.
        let ids: Vec<ColField> = (0..tables.columns.len() as u32).map(ColField).collect();
        let block = &runs.bytes()[..runs.bounds[1] as usize];
        let page = decode_col_block(block, chunk, chunk, &tables, 0, &ids).unwrap();
        for f in &ids {
            for r in 0..chunk {
                assert_eq!(
                    format!("{:?}", page.value(r, *f)),
                    format!("{:?}", cols.value(r, *f))
                );
            }
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
        let meta = seal_run(&dir.0, &docs, 0, docs.len(), chunk, Format::Pseg4);
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
            let meta = seal_run(&dir.0, &docs, 0, docs.len(), chunk, Format::Pseg4);
            edit_layout(&meta, n, edit);
            assert!(read_footer(&meta).is_err(), "{what}: malformed layout read");
        }
    }

    #[test]
    fn compaction_merges_contiguous_runs() {
        let dir = Scratch::new("c");
        let chunk = 8usize;
        let docs = corpus(48);
        let m1 = seal_run(&dir.0, &docs[..16], 0, 16, chunk, Format::Pseg4);
        // Second run: zones exported from a shard that saw all 32 rows,
        // sealed range [16, 32) — mirrors the live incremental seal.
        let m2 = seal_run(&dir.0, &docs[..32], 16, 32, chunk, Format::Pseg4);

        let merged = compact_runs(&dir.0, &[m1, m2]).unwrap();
        assert_eq!((merged.start, merged.end), (0, 32));
        let back = read_docs(&merged).unwrap();
        assert_eq!(back.len(), 32);
        // Inputs deleted; only the merged file (and nothing else) left.
        let metas = scan_dir(&dir.0).unwrap();
        assert_eq!(metas.len(), 1);
        assert_eq!(metas[0].end - metas[0].start, 32);
    }

    /// Writing a legacy segment forward leaves exactly one file in its
    /// directory: `PSEG4`, under the input's name, byte-identical to the
    /// same rows sealed as `PSEG4` (so it pages the same cells and
    /// documents, row keys included, and answers like them). A legacy file
    /// with a corrupt record is not rewritten: it is reported unreadable
    /// and left as it is.
    #[test]
    fn writing_a_legacy_segment_forward_keeps_one_pseg4_file() {
        let chunk = 8usize;
        let docs = corpus(32);
        let reference = Scratch::new("fwd-ref");
        let whole = seal_run(&reference.0, &docs, 0, 32, chunk, Format::Pseg4);
        let want = std::fs::read(&whole.path).unwrap();
        for legacy in [Format::Pseg1, Format::Pseg2, Format::Pseg3] {
            let dir = Scratch::new("fwd");
            let meta = seal_run(&dir.0, &docs, 0, 32, chunk, legacy);
            let forward = write_forward(&meta).unwrap().expect("readable");
            assert_eq!((forward.format, &forward.path), (Format::Pseg4, &meta.path));
            let files: Vec<PathBuf> = std::fs::read_dir(&dir.0)
                .unwrap()
                .map(|e| e.unwrap().path())
                .collect();
            assert_eq!(files, vec![meta.path.clone()], "{legacy:?}");
            assert_eq!(std::fs::read(&meta.path).unwrap(), want, "{legacy:?}");

            let meta = seal_run(&dir.0, &docs, 0, 32, chunk, legacy);
            let mut bytes = std::fs::read(&meta.path).unwrap();
            bytes[DATA_START as usize + 9] ^= 0x20;
            std::fs::write(&meta.path, &bytes).unwrap();
            assert!(write_forward(&meta).unwrap().is_none(), "{legacy:?}");
            assert_eq!(std::fs::read(&meta.path).unwrap(), bytes, "{legacy:?}");
        }
    }

    /// Compacting a `PSEG1`, `PSEG2` or `PSEG3` run with a `PSEG4` run
    /// writes `PSEG4` through the rebuild path, whether or not the
    /// dictionaries are prefix-compatible, and two `PSEG4` runs merge on
    /// the footer-reuse path; every merged file is byte-identical to the
    /// same rows sealed as one `PSEG4` segment, so it pages the same cells
    /// and documents and answers identically.
    #[test]
    fn compacting_legacy_and_pseg4_runs_writes_pseg4() {
        let chunk = 8usize;
        let docs = corpus(48);
        let reference = Scratch::new("mix-ref");
        let whole = seal_run(&reference.0, &docs[..32], 0, 32, chunk, Format::Pseg4);
        let want = std::fs::read(&whole.path).unwrap();

        // One shard sealed [0, 16), then [16, 32): prefix-compatible
        // tables. With a legacy first run this rebuilds; with two PSEG4
        // runs it reuses the footers and copies the blocks.
        for (first, what) in [
            (Format::Pseg1, "PSEG1 + PSEG4 rebuild"),
            (Format::Pseg2, "PSEG2 + PSEG4 rebuild"),
            (Format::Pseg3, "PSEG3 + PSEG4 rebuild"),
            (Format::Pseg4, "PSEG4 + PSEG4 footer reuse"),
        ] {
            let dir = Scratch::new("mix-compatible");
            let m1 = seal_run(&dir.0, &docs[..16], 0, 16, chunk, first);
            let m2 = seal_run(&dir.0, &docs[..32], 16, 32, chunk, Format::Pseg4);
            let footers = [read_footer(&m1).ok(), read_footer(&m2).ok()];
            assert_eq!(
                footers[0].as_ref().unwrap().layout.is_none(),
                first == Format::Pseg1
            );
            // A `PSEG3` table lacks the row-key columns, which the format
            // alone sends to the rebuild.
            if first != Format::Pseg3 {
                assert!(tables_prefix_compatible(&footers), "{what}");
            }
            let merged = compact_runs(&dir.0, &[m1, m2]).unwrap();
            assert_eq!(merged.format, Format::Pseg4, "{what}");
            assert_eq!(std::fs::read(&merged.path).unwrap(), want, "{what}");
        }

        // The PSEG4 run comes from a shard that saw other rows first, so
        // its dictionaries are no extension of the first run's.
        for first in [Format::Pseg1, Format::Pseg4] {
            let dir = Scratch::new("mix-rebuild");
            let m1 = seal_run(&dir.0, &docs[..16], 0, 16, chunk, first);
            let other: Vec<Arc<Value>> =
                docs[32..48].iter().chain(&docs[16..32]).cloned().collect();
            let m2 = seal_run(&dir.0, &other, 16, 32, chunk, Format::Pseg4);
            let footers = [read_footer(&m1).ok(), read_footer(&m2).ok()];
            assert!(!tables_prefix_compatible(&footers));
            let merged = compact_runs(&dir.0, &[m1, m2]).unwrap();
            assert_eq!(merged.format, Format::Pseg4);
            assert_eq!(
                std::fs::read(&merged.path).unwrap(),
                want,
                "incompatible rebuild from {first:?}"
            );
        }
    }
}
