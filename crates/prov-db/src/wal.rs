//! Append-only write-ahead log for the streaming accept path.
//!
//! The facade's LSM-style ingest hands batches of accepted messages to
//! [`crate::store::ProvenanceDatabase`]'s materialization pass; when the
//! database was opened durably ([`ProvenanceDatabase::open`]), that pass
//! serializes every drained document into this log *before* the in-memory
//! views observe it. A crash therefore loses at most the pending log that
//! was never handed over — everything a flush accepted is replayable.
//!
//! ## Files
//!
//! The log is one file per **seal unit** — `chunk_rows × shards`
//! arrivals, the rows one chunk of every shard holds — named by its first
//! arrival (`wal-{first:020}.log`): unit `k` holds arrivals
//! `[k·u, (k+1)·u)`. Appends switch files at every unit boundary
//! ([`WalWriter`]). A seal's cutoff is always a unit boundary, so the
//! seal retires the files below it by deleting them
//! ([`WalWriter::retire_below`]) instead of reading and rewriting the
//! log. Open reads every file in order ([`scan`]), plus the single
//! `wal.log` older releases wrote, and [`normalize`] cuts torn tails off
//! and writes that legacy log forward as a per-unit file.
//!
//! ## Record format
//!
//! The log is a header followed by length-prefixed, checksummed records:
//!
//! ```text
//! "PWAL1\n"                                      file header (6 bytes)
//! [seq: u64 LE][len: u32 LE][crc: u32 LE][payload: len bytes]   × N
//! ```
//!
//! * `seq` is the document's **arrival index** (0-based count of
//!   materialized messages since the store was created). Recovery keys
//!   everything on this: sealed segments name the arrival indexes they
//!   cover, so a record that survived a half-finished seal rotation is
//!   simply deduplicated instead of double-applied.
//! * `crc` is CRC-32 (IEEE) over the 8 `seq` bytes followed by the
//!   payload, so a torn header is as detectable as a torn payload.
//!   [`crc32`] is the store's one checksum kernel (slicing-by-8, the same
//!   values as the bytewise table).
//! * `payload` is the document [`Value`] in the binary codec below — the
//!   exact object `TaskMessage::to_value` produced, so a replayed store
//!   rebuilds bit-identical documents (NaN payloads included, which the
//!   textual JSON writer cannot represent).
//!
//! Replay accepts each file's longest valid prefix: the first short
//! read, length overrun, checksum mismatch, or undecodable payload ends
//! the file, and recovery stops at the first arrival no file (and no
//! segment) holds. A crash mid-append is thus indistinguishable from a
//! clean shutdown one record earlier.
//!
//! ## Sync policy
//!
//! `Config::wal_sync` (`PROVDB_WAL_SYNC`) picks the durability/throughput
//! trade-off: `always` issues one `fdatasync` per record, `batch` (the
//! default) one per drained batch. Recovery is identical under both; the
//! policy only bounds how much a *power* failure can lose (process
//! crashes lose nothing that was written, synced or not).
//!
//! ## Binary value codec
//!
//! One tag byte per node, little-endian fixed-width scalars, `u32`
//! length prefixes: `0` null, `1`/`2` false/true, `3` int (`i64`), `4`
//! float (raw `f64` bits — lossless for NaN and signed zero), `5` string
//! (len + UTF-8), `6` array (count + items), `7` object (count +
//! alternating key/value, keys in the map's sorted order). Encoding is
//! canonical — one byte string per value — which is what lets the
//! segment-footer round-trip tests assert byte identity.

use crate::crashpoint;
use crate::document::PrehashedMap;
use prov_model::sym::fnv1a;
use prov_model::{Map, Sym, Value};
use std::collections::hash_map::Entry;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};

/// File header magic.
const MAGIC: &[u8; 6] = b"PWAL1\n";

/// How eagerly WAL appends reach stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// `fdatasync` after every record — a power failure loses nothing
    /// that was accepted by a flush.
    Always,
    /// `fdatasync` once per drained batch (default) — a power failure
    /// can lose the tail of the last batch; a process crash loses
    /// nothing.
    Batch,
}

// ---------------------------------------------------------------- CRC-32

/// CRC-32 (IEEE 802.3, reflected) slicing-by-8 tables, built at compile
/// time: `CRC_TABLES[k][b]` is the CRC register after byte `b` and `k`
/// zero bytes, so one step folds eight input bytes with eight lookups.
/// `CRC_TABLES[0]` is the classic bytewise table.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        // Bit by bit through the polynomial; every eight steps is one
        // more byte of travel.
        let mut c = i as u32;
        let mut step = 1;
        while step <= 64 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            if step % 8 == 0 {
                tables[step / 8 - 1][i] = c;
            }
            step += 1;
        }
        i += 1;
    }
    tables
};

/// CRC-32 over `parts`, concatenated: eight bytes per step, the last
/// `len % 8` bytes of each part one at a time. The polynomial and the
/// values are the bytewise algorithm's, so every log and segment
/// checksum written by either stays valid.
pub(crate) fn crc32(parts: &[&[u8]]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    for part in parts {
        let mut words = part.chunks_exact(8);
        for w in &mut words {
            let w = u64::from_le_bytes(w.try_into().expect("8 bytes")) ^ c as u64;
            c = (0..8).fold(0, |acc, k| acc ^ t[7 - k][(w >> (8 * k)) as u8 as usize]);
        }
        for &b in words.remainder() {
            c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
    }
    !c
}

// ------------------------------------------------------------ value codec

const TAG_NULL: u8 = 0;
const TAG_FALSE: u8 = 1;
const TAG_TRUE: u8 = 2;
const TAG_INT: u8 = 3;
const TAG_FLOAT: u8 = 4;
const TAG_STR: u8 = 5;
const TAG_ARRAY: u8 = 6;
const TAG_OBJECT: u8 = 7;

/// Append the canonical binary encoding of `v` to `out`.
pub(crate) fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(TAG_NULL),
        Value::Bool(false) => out.push(TAG_FALSE),
        Value::Bool(true) => out.push(TAG_TRUE),
        Value::Int(i) => {
            out.push(TAG_INT);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(f) => {
            // Raw bits: NaN payloads and -0.0 survive, unlike the JSON
            // writer (which maps non-finite floats to `null`).
            out.push(TAG_FLOAT);
            out.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(TAG_STR);
            encode_bytes(s.as_str().as_bytes(), out);
        }
        Value::Array(items) => {
            out.push(TAG_ARRAY);
            out.extend_from_slice(&(items.len() as u32).to_le_bytes());
            for item in items.iter() {
                encode_value(item, out);
            }
        }
        Value::Object(map) => {
            out.push(TAG_OBJECT);
            out.extend_from_slice(&(map.len() as u32).to_le_bytes());
            for (k, val) in map.iter() {
                encode_bytes(k.as_str().as_bytes(), out);
                encode_value(val, out);
            }
        }
    }
}

fn encode_bytes(b: &[u8], out: &mut Vec<u8>) {
    out.extend_from_slice(&(b.len() as u32).to_le_bytes());
    out.extend_from_slice(b);
}

/// The decoder, with the symbols of one batch (a docs page, a segment
/// read, a WAL replay pass): each distinct object key is interned once
/// per table, each distinct string value made once with [`Sym::new`] —
/// values never reach the global interner, which never evicts. A digest
/// collision only skips the dedup (`Sym`s compare by content).
#[derive(Default)]
pub(crate) struct SymTable {
    keys: PrehashedMap<Sym>,
    values: PrehashedMap<Sym>,
}

impl SymTable {
    /// Decode one whole payload; `None` if malformed or not fully used.
    pub(crate) fn decode(&mut self, payload: &[u8]) -> Option<Value> {
        let mut pos = 0;
        let v = self.value(payload, &mut pos)?;
        (pos == payload.len()).then_some(v)
    }

    /// Decode one value from `buf` starting at `*pos`, advancing `*pos`.
    fn value(&mut self, buf: &[u8], pos: &mut usize) -> Option<Value> {
        let tag = *buf.get(*pos)?;
        *pos += 1;
        match tag {
            TAG_NULL => Some(Value::Null),
            TAG_FALSE => Some(Value::Bool(false)),
            TAG_TRUE => Some(Value::Bool(true)),
            TAG_INT => Some(Value::Int(i64::from_le_bytes(take8(buf, pos)?))),
            TAG_FLOAT => Some(Value::Float(f64::from_bits(u64::from_le_bytes(take8(
                buf, pos,
            )?)))),
            TAG_STR => {
                let s = take_str(buf, pos)?;
                Some(Value::Str(dedup(&mut self.values, s, |s| Sym::new(s))))
            }
            TAG_ARRAY => {
                let n = take_count(buf, pos)?;
                let mut items = Vec::with_capacity(n);
                for _ in 0..n {
                    items.push(self.value(buf, pos)?);
                }
                Some(Value::array(items))
            }
            TAG_OBJECT => {
                let n = take_count(buf, pos)?;
                let mut map = Map::with_capacity(n);
                for _ in 0..n {
                    let key = dedup(&mut self.keys, take_str(buf, pos)?, Sym::intern);
                    let val = self.value(buf, pos)?;
                    // Keys were written in sorted order, so this takes the
                    // append fast path of the flat map.
                    map.insert(key, val);
                }
                Some(Value::object(map))
            }
            _ => None,
        }
    }
}

/// The table's symbol for `s`, made with `make` on first sight.
fn dedup(table: &mut PrehashedMap<Sym>, s: &str, make: fn(&str) -> Sym) -> Sym {
    match table.entry(fnv1a(s.as_bytes())) {
        Entry::Occupied(e) if e.get().as_str() == s => e.get().clone(),
        Entry::Occupied(_) => make(s),
        Entry::Vacant(e) => e.insert(make(s)).clone(),
    }
}

/// An element count, at most one element per remaining byte.
fn take_count(buf: &[u8], pos: &mut usize) -> Option<usize> {
    let n = take_u32(buf, pos)? as usize;
    (n <= buf.len() - *pos).then_some(n)
}

fn take_str<'a>(buf: &'a [u8], pos: &mut usize) -> Option<&'a str> {
    let len = take_u32(buf, pos)? as usize;
    let bytes = buf.get(*pos..*pos + len)?;
    *pos += len;
    std::str::from_utf8(bytes).ok()
}

pub(crate) fn take_u32(buf: &[u8], pos: &mut usize) -> Option<u32> {
    let b = buf.get(*pos..*pos + 4)?;
    *pos += 4;
    Some(u32::from_le_bytes(b.try_into().ok()?))
}

pub(crate) fn take8(buf: &[u8], pos: &mut usize) -> Option<[u8; 8]> {
    let b = buf.get(*pos..*pos + 8)?;
    *pos += 8;
    b.try_into().ok()
}

// ---------------------------------------------------------------- files

/// The single-file log that releases before per-unit files wrote. Open
/// reads it like any other WAL file, writes its records forward as one
/// per-unit file and removes it.
pub(crate) const LEGACY: &str = "wal.log";

/// Name of the WAL file whose first record is arrival `first`.
pub(crate) fn file_name(first: u64) -> String {
    format!("wal-{first:020}.log")
}

/// The arrival a WAL file name says the file starts at; `None` for any
/// other name.
fn parse_name(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("wal-")?.strip_suffix(".log")?;
    if digits.len() != 20 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// One WAL file as open found it.
pub(crate) struct WalFile {
    path: PathBuf,
    /// The first arrival its name gives; `None` for the legacy log.
    first: Option<u64>,
    /// The longest valid record prefix.
    pub(crate) records: Vec<RawRecord>,
    /// Byte offset just past each record of `records`.
    ends: Vec<u64>,
    /// Bytes read: the file's length at open.
    len: u64,
}

/// Every WAL file in `dir`, each read to its longest valid record
/// prefix: the legacy log first, then the per-unit files by first
/// arrival, so their records come out in arrival order.
pub(crate) fn scan(dir: &Path) -> std::io::Result<Vec<WalFile>> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let first = match parse_name(name) {
            Some(first) => Some(first),
            None if name == LEGACY => None,
            None => continue,
        };
        let buf = read_file(&path)?;
        let mut records = Vec::new();
        let mut ends = Vec::new();
        if buf.starts_with(MAGIC) {
            let mut pos = MAGIC.len();
            while let Some(record) = next_record(&buf, &mut pos) {
                records.push(record);
                ends.push(pos as u64);
            }
        }
        files.push(WalFile {
            path,
            first,
            records,
            ends,
            len: buf.len() as u64,
        });
    }
    files.sort_by_key(|f| f.first);
    Ok(files)
}

/// The bytes of the file at `path`, read up to the length its metadata
/// reports (a link to a device file reads as empty, not forever).
fn read_file(path: &Path) -> std::io::Result<Vec<u8>> {
    let f = File::open(path)?;
    let len = f.metadata()?.len();
    let mut buf = Vec::with_capacity(len as usize);
    f.take(len).read_to_end(&mut buf)?;
    Ok(buf)
}

/// Make the WAL files `scan` found safe to append behind, given that
/// recovery assembled every arrival below `next`: each file keeps only
/// its records below `next` (a torn tail, or records past a gap, are cut
/// off), a file left without a record is removed, and the legacy log is
/// written forward as a per-unit file and removed. Returns the first
/// arrivals of the files kept, oldest first.
pub(crate) fn normalize(dir: &Path, files: Vec<WalFile>, next: u64) -> std::io::Result<Vec<u64>> {
    let mut kept = Vec::with_capacity(files.len());
    for f in files {
        let keep = f.records.iter().take_while(|r| r.seq < next).count();
        match f.first {
            None => {
                // Written forward first, removed after: a crash in between
                // leaves both, and recovery dedupes them by arrival.
                if keep > 0 {
                    let first = f.records[0].seq;
                    write_file(&dir.join(file_name(first)), &f.records[..keep])?;
                    kept.push(first);
                }
                std::fs::remove_file(&f.path)?;
                sync_dir(dir);
            }
            Some(_) if keep == 0 => std::fs::remove_file(&f.path)?,
            Some(first) => {
                let end = f.ends[keep - 1];
                if end < f.len {
                    let file = OpenOptions::new().write(true).open(&f.path)?;
                    file.set_len(end)?;
                    file.sync_data()?;
                }
                kept.push(first);
            }
        }
    }
    kept.sort_unstable();
    kept.dedup();
    Ok(kept)
}

// ---------------------------------------------------------------- writer

/// The file appends go to: its unit, its handle, and the length of its
/// last whole record.
struct OpenFile {
    unit: u64,
    file: File,
    len: u64,
}

/// Appender over a durable directory's WAL files: one file per **seal
/// unit** (`chunk_rows × shards` arrivals, the rows one chunk of every
/// shard holds), named by its first arrival. Appends switch to a new file
/// at every unit boundary, so a seal, whose cutoff is always a unit
/// boundary, retires the files below it by deleting them.
///
/// Each record reaches [`crashpoint::Point::WalRecord`]: the crash
/// harness can sync and abort right after the `n`-th record this process
/// writes, its simulated crash at the worst possible spot (mid-batch,
/// views half-applied).
///
/// [`crashpoint::Point::WalRecord`]: crate::crashpoint::Point::WalRecord
pub(crate) struct WalWriter {
    dir: PathBuf,
    /// Arrivals per file.
    unit: u64,
    /// First arrivals of the files on disk, oldest first; the open file
    /// is the last one.
    files: Vec<u64>,
    open: Option<OpenFile>,
    /// Set when a failed write could not be cut back off its file: no
    /// later append may land behind the torn bytes.
    poisoned: bool,
    sync: SyncPolicy,
}

impl WalWriter {
    /// The appender over `dir`'s WAL files `files` (first arrivals, as
    /// [`normalize`] returned them), whose next record is arrival `next`.
    /// Appends go on in the last file while `next` is in its unit.
    pub(crate) fn open(
        dir: &Path,
        unit: u64,
        files: Vec<u64>,
        next: u64,
        sync: SyncPolicy,
    ) -> std::io::Result<Self> {
        let unit = unit.max(1);
        let open = match files.last() {
            Some(&first) if first / unit == next / unit => {
                let file = OpenOptions::new()
                    .append(true)
                    .open(dir.join(file_name(first)))?;
                let len = file.metadata()?.len();
                Some(OpenFile {
                    unit: first / unit,
                    file,
                    len,
                })
            }
            _ => None,
        };
        Ok(Self {
            dir: dir.to_path_buf(),
            unit,
            files,
            open,
            poisoned: false,
            sync,
        })
    }

    /// Append one record batch: `docs[i]` gets arrival index
    /// `base_seq + i`. Honors the sync policy and the crash point;
    /// returns only after every record is at least in the OS. On a
    /// failed write the error comes with how many of `docs` (a prefix)
    /// were logged before it; the records after them are not in the log.
    pub(crate) fn append(
        &mut self,
        base_seq: u64,
        docs: &[std::sync::Arc<Value>],
    ) -> Result<(), (usize, std::io::Error)> {
        if self.poisoned {
            let e =
                std::io::Error::other("provdb: the WAL holds a torn write it could not cut off");
            return Err((0, e));
        }
        let mut logged = 0;
        while logged < docs.len() {
            let seq = base_seq + logged as u64;
            let room = self.unit - seq % self.unit;
            let n = (docs.len() - logged).min(usize::try_from(room).unwrap_or(usize::MAX));
            self.append_run(seq, &docs[logged..logged + n])
                .map_err(|(k, e)| (logged + k, e))?;
            logged += n;
        }
        Ok(())
    }

    /// Append `docs`, arrivals from `seq` on, all inside `seq`'s unit.
    fn append_run(
        &mut self,
        seq: u64,
        docs: &[std::sync::Arc<Value>],
    ) -> Result<(), (usize, std::io::Error)> {
        let unit = seq / self.unit;
        if self.open.as_ref().is_none_or(|f| f.unit != unit) {
            self.switch(seq).map_err(|e| (0, e))?;
        }
        let mut buf = Vec::new();
        let mut payload = Vec::new();
        let mut logged = 0;
        for (i, doc) in docs.iter().enumerate() {
            payload.clear();
            encode_value(doc, &mut payload);
            write_record(&mut buf, seq + i as u64, &payload).expect("writes to a Vec");
            let crash = crashpoint::hit(crashpoint::Point::WalRecord);
            let always = self.sync == SyncPolicy::Always;
            if always || crash || i + 1 == docs.len() {
                // Batch policy: one write and one sync per run.
                self.write_out(&buf).map_err(|e| (logged, e))?;
                buf.clear();
                logged = i + 1;
            }
            if crash {
                // Simulated crash: exactly these records are durable.
                std::process::abort();
            }
        }
        Ok(())
    }

    /// Write `bytes` (whole records) to the open file and sync them. On
    /// failure the file is cut back to its last whole record, or the
    /// writer is poisoned if it cannot be.
    fn write_out(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        let f = self.open.as_mut().expect("an open file");
        match f.file.write_all(bytes).and_then(|()| f.file.sync_data()) {
            Ok(()) => {
                f.len += bytes.len() as u64;
                Ok(())
            }
            Err(e) => {
                if f.file.set_len(f.len).is_err() {
                    self.poisoned = true;
                }
                Err(e)
            }
        }
    }

    /// Start the file of the unit arrival `seq` opens: created with its
    /// header, synced, and linked into the directory. A file whose header
    /// cannot be written is removed again.
    fn switch(&mut self, seq: u64) -> std::io::Result<()> {
        self.open = None;
        let path = self.dir.join(file_name(seq));
        let mut file = OpenOptions::new().create(true).append(true).open(&path)?;
        // Open removed every file past the recovered arrivals, so a file
        // here holds nothing worth keeping.
        let started = match file.metadata()?.len() {
            0 => Ok(()),
            _ => file.set_len(0),
        }
        .and_then(|()| file.write_all(MAGIC))
        .and_then(|()| file.sync_data());
        if let Err(e) = started {
            drop(file);
            let _ = std::fs::remove_file(&path);
            return Err(e);
        }
        sync_dir(&self.dir);
        self.files.push(seq);
        self.open = Some(OpenFile {
            unit: seq / self.unit,
            file,
            len: MAGIC.len() as u64,
        });
        crashpoint::reach(crashpoint::Point::WalSwitched);
        Ok(())
    }

    /// Take the files a seal with cutoff `cutoff` retires — every file a
    /// later file starting at or below `cutoff` follows, so all its
    /// records are below the cutoff — off the list, and return their
    /// paths for the caller to delete. The open file is never among them.
    pub(crate) fn retire_below(&mut self, cutoff: u64) -> Vec<PathBuf> {
        let keep_from = self
            .files
            .partition_point(|&first| first <= cutoff)
            .saturating_sub(1);
        self.files
            .drain(..keep_from)
            .map(|first| self.dir.join(file_name(first)))
            .collect()
    }
}

/// Delete retired WAL files (see [`WalWriter::retire_below`]).
/// Best-effort: a file left behind only holds records that segments
/// cover, which recovery dedupes.
pub(crate) fn remove_files(dir: &Path, paths: &[PathBuf]) {
    for path in paths {
        let _ = std::fs::remove_file(path);
    }
    if !paths.is_empty() {
        sync_dir(dir);
    }
}

/// Frame one record: `[seq][len][crc][payload]`.
fn write_record(out: &mut impl Write, seq: u64, payload: &[u8]) -> std::io::Result<()> {
    let seq_bytes = seq.to_le_bytes();
    out.write_all(&seq_bytes)?;
    out.write_all(&(payload.len() as u32).to_le_bytes())?;
    out.write_all(&crc32(&[&seq_bytes, payload]).to_le_bytes())?;
    out.write_all(payload)
}

// ---------------------------------------------------------------- reader

/// One replayable record: arrival index + raw payload bytes.
pub(crate) struct RawRecord {
    pub(crate) seq: u64,
    pub(crate) payload: Vec<u8>,
}

/// The record at `*pos`, advancing past it; `None` at a short read,
/// length overrun or checksum mismatch — the end of the valid prefix.
fn next_record(buf: &[u8], pos: &mut usize) -> Option<RawRecord> {
    let seq = take8(buf, pos)?;
    let len = take_u32(buf, pos)? as usize;
    let crc = take_u32(buf, pos)?;
    let payload = buf.get(*pos..*pos + len)?;
    *pos += len;
    (crc32(&[&seq, payload]) == crc).then(|| RawRecord {
        seq: u64::from_le_bytes(seq),
        payload: payload.to_vec(),
    })
}

/// Write a whole log holding `records` at `path` atomically: a fresh
/// file beside it, synced, renamed over `path`.
fn write_file(path: &Path, records: &[RawRecord]) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = BufWriter::new(File::create(&tmp)?);
        f.write_all(MAGIC)?;
        for r in records {
            write_record(&mut f, r.seq, &r.payload)?;
        }
        f.flush()?;
        f.get_ref().sync_data()?;
    }
    std::fs::rename(&tmp, path)?;
    sync_dir(path.parent().unwrap_or(Path::new(".")));
    Ok(())
}

/// Best-effort directory fsync after a rename (ignored on failure —
/// some filesystems refuse directory handles).
pub(crate) fn sync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn doc() -> Value {
        let mut m = Map::new();
        m.insert(Sym::from("a"), Value::Int(-7));
        m.insert(Sym::from("b"), Value::Float(f64::NAN));
        m.insert(Sym::from("c"), Value::Str(Sym::from("héllo")));
        m.insert(
            Sym::from("d"),
            Value::array(vec![Value::Null, Value::Bool(true), Value::Float(-0.0)]),
        );
        Value::object(m)
    }

    #[test]
    fn codec_roundtrips_bit_exactly() {
        let v = doc();
        let mut bytes = Vec::new();
        encode_value(&v, &mut bytes);
        let back = SymTable::default().decode(&bytes).unwrap();
        // NaN != NaN under PartialEq, so compare re-encodings instead:
        // the codec is canonical, so bit-identical bytes ⇔ same value.
        let mut again = Vec::new();
        encode_value(&back, &mut again);
        assert_eq!(bytes, again);
        // And -0.0 / NaN bits specifically survived.
        let b = back.get("b").unwrap();
        assert!(matches!(b, Value::Float(f) if f.is_nan()));
        let d = back.get("d").unwrap().get_index(2).unwrap();
        assert!(matches!(d, Value::Float(f) if f.to_bits() == (-0.0f64).to_bits()));
    }

    #[test]
    fn decode_rejects_trailing_bytes() {
        let mut bytes = Vec::new();
        encode_value(&doc(), &mut bytes);
        bytes.push(TAG_NULL);
        assert!(SymTable::default().decode(&bytes).is_none());
        assert!(SymTable::default()
            .decode(&bytes[..bytes.len() - 2])
            .is_none());
    }

    #[test]
    fn decoder_interns_keys_but_not_values() {
        let encoded = |id: &str| {
            let mut m = Map::new();
            m.insert(prov_model::keys::task_id(), Value::Str(Sym::new(id)));
            m.insert(Sym::from("hostname"), Value::Str(Sym::new("node-17")));
            let mut bytes = Vec::new();
            encode_value(&Value::object(m), &mut bytes);
            bytes
        };
        let key = |v: &Value, name: &str| {
            let mut keys = v.as_object().unwrap().keys();
            keys.find(|k| k.as_str() == name).unwrap().clone()
        };
        let host = |v: &Value| v.get("hostname").unwrap().as_sym().unwrap().clone();
        let (a, b) = (encoded("t-1"), encoded("t-2"));
        let mut page = SymTable::default();
        let (da, db) = (page.decode(&a).unwrap(), page.decode(&b).unwrap());
        // Keys resolve to the global interner's symbols — the pre-seeded
        // static for a hot key.
        for doc in [&da, &db] {
            assert!(Sym::ptr_eq(
                &key(doc, "task_id"),
                &prov_model::keys::task_id()
            ));
            assert!(Sym::ptr_eq(&key(doc, "hostname"), &Sym::intern("hostname")));
        }
        // A value repeated within one table shares one allocation ...
        assert!(Sym::ptr_eq(&host(&da), &host(&db)));
        // ... but the same value decoded through another table does not:
        // values never reach the global interner.
        let again = SymTable::default().decode(&a).unwrap();
        assert_eq!(host(&again), host(&da));
        assert!(!Sym::ptr_eq(&host(&again), &host(&da)));
    }

    /// The bytewise CRC-32 the slicing kernel must reproduce.
    fn crc32_bytewise(parts: &[&[u8]]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for part in parts {
            for &b in *part {
                c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
            }
        }
        !c
    }

    #[test]
    fn crc_is_ieee() {
        // Known vector: CRC-32("123456789") = 0xCBF43926.
        assert_eq!(crc32(&[b"123456789"]), 0xCBF4_3926);
        assert_eq!(crc32(&[b"1234", b"56789"]), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(&[b"123456789"]), 0xCBF4_3926);
        assert_eq!(crc32(&[]), 0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Slicing-by-8 equals the bytewise referee on any input: every
        /// tail length (`len % 8` from 0 to 7), subslices starting at an
        /// unaligned offset, and the same bytes split into three parts
        /// at arbitrary points.
        #[test]
        fn slicing_crc_matches_bytewise_referee(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..300),
            skip in 0usize..8,
            cut_a in 0usize..300,
            cut_b in 0usize..300,
        ) {
            let data = &bytes[skip.min(bytes.len())..];
            let want = crc32_bytewise(&[data]);
            proptest::prop_assert_eq!(crc32(&[data]), want);
            let (a, b) = (cut_a.min(data.len()), cut_b.min(data.len()));
            let (lo, hi) = (a.min(b), a.max(b));
            let parts: [&[u8]; 3] = [&data[..lo], &data[lo..hi], &data[hi..]];
            proptest::prop_assert_eq!(crc32(&parts), want);
            proptest::prop_assert_eq!(crc32_bytewise(&parts), want);
        }
    }

    /// The records of every WAL file in `dir`, in scan order.
    fn seqs(dir: &Path) -> Vec<u64> {
        let files = scan(dir).unwrap();
        files
            .iter()
            .flat_map(|f| &f.records)
            .map(|r| r.seq)
            .collect()
    }

    #[test]
    fn append_read_rewrite_roundtrip() {
        let dir = std::env::temp_dir().join(format!("provdb-wal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let docs: Vec<Arc<Value>> = (0..10).map(|_| Arc::new(doc())).collect();
        // Four arrivals per file: appends switch files at 4 and 8, one
        // batch straddling two boundaries.
        let mut w = WalWriter::open(&dir, 4, Vec::new(), 0, SyncPolicy::Batch).unwrap();
        w.append(0, &docs[..3]).unwrap();
        w.append(3, &docs[3..]).unwrap();
        assert_eq!(w.files, [0, 4, 8]);
        assert_eq!(seqs(&dir), (0..10).collect::<Vec<_>>());
        let mut syms = SymTable::default();
        let files = scan(&dir).unwrap();
        assert!(files
            .iter()
            .flat_map(|f| &f.records)
            .all(|r| syms.decode(&r.payload).is_some()));

        // A seal at cutoff 8 retires the files wholly below it; the open
        // file is never retired.
        let retired = w.retire_below(8);
        assert_eq!(retired, [dir.join(file_name(0)), dir.join(file_name(4))]);
        remove_files(&dir, &retired);
        assert!(w.retire_below(100).is_empty());
        drop(w);
        assert_eq!(seqs(&dir), [8, 9]);

        // A torn tail replays the valid prefix, and normalizing cuts it
        // off so that appends resume right behind the last whole record.
        let last = dir.join(file_name(8));
        let mut bytes = std::fs::read(&last).unwrap();
        let whole = bytes.len();
        bytes.truncate(whole - 3);
        std::fs::write(&last, &bytes).unwrap();
        assert_eq!(seqs(&dir), [8]);
        assert_eq!(normalize(&dir, scan(&dir).unwrap(), 9).unwrap(), [8]);
        let mut w = WalWriter::open(&dir, 4, vec![8], 9, SyncPolicy::Always).unwrap();
        w.append(9, &docs[9..]).unwrap();
        drop(w);
        assert_eq!(std::fs::metadata(&last).unwrap().len() as usize, whole);
        assert_eq!(seqs(&dir), [8, 9]);

        // Records at or past the recovered end, and a file left without
        // one, are removed.
        assert_eq!(
            normalize(&dir, scan(&dir).unwrap(), 8).unwrap(),
            [] as [u64; 0]
        );
        assert!(seqs(&dir).is_empty());

        // A legacy `wal.log` is written forward as a per-unit file named
        // by its first record, and removed.
        let legacy: Vec<RawRecord> = (5..7u64)
            .map(|seq| {
                let mut payload = Vec::new();
                encode_value(&docs[0], &mut payload);
                RawRecord { seq, payload }
            })
            .collect();
        write_file(&dir.join(LEGACY), &legacy).unwrap();
        assert_eq!(seqs(&dir), [5, 6]);
        assert_eq!(normalize(&dir, scan(&dir).unwrap(), 7).unwrap(), [5]);
        assert!(!dir.join(LEGACY).exists());
        assert_eq!(seqs(&dir), [5, 6]);

        // A flipped payload byte fails the checksum and ends the prefix.
        let path = dir.join(file_name(5));
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(seqs(&dir), [5]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
