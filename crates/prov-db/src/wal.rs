//! Append-only write-ahead log for the streaming accept path.
//!
//! The facade's LSM-style ingest hands batches of accepted messages to
//! [`crate::store::ProvenanceDatabase`]'s materialization pass; when the
//! database was opened durably ([`ProvenanceDatabase::open`]), that pass
//! serializes every drained document into this log *before* the in-memory
//! views observe it. A crash therefore loses at most the pending log that
//! was never handed over — everything a flush accepted is replayable.
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
//! Replay accepts the longest valid prefix: the first short read, length
//! overrun, checksum mismatch, or undecodable payload ends the log. A
//! crash mid-append is thus indistinguishable from a clean shutdown one
//! record earlier.
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

use crate::document::PrehashedMap;
use prov_model::sym::fnv1a;
use prov_model::{Map, Sym, Value};
use std::collections::hash_map::Entry;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::path::Path;

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

// ---------------------------------------------------------------- writer

/// Appender over the durable directory's `wal.log`.
///
/// Carries the crash-point injection hook: with `crash_after` set to
/// `n` (`PROVDB_CRASH_AFTER`), the process syncs and aborts immediately
/// after the `n`-th record written by this process reaches the file —
/// the harness's simulated crash, placed at the worst possible spot
/// (mid-batch, views half-applied).
pub(crate) struct WalWriter {
    file: BufWriter<File>,
    sync: SyncPolicy,
    /// Records written by this process (drives crash injection).
    written: u64,
    crash_after: Option<u64>,
}

impl WalWriter {
    /// Open (or create) the log at `path` for appending. A fresh or
    /// empty file gets the header; an existing one is trusted — replay
    /// validated it before the writer is attached.
    pub(crate) fn open(
        path: &Path,
        sync: SyncPolicy,
        crash_after: Option<u64>,
    ) -> std::io::Result<Self> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        let fresh = file.metadata()?.len() == 0;
        let mut w = Self {
            file: BufWriter::new(file),
            sync,
            written: 0,
            crash_after,
        };
        if fresh {
            w.file.write_all(MAGIC)?;
            w.file.flush()?;
        }
        Ok(w)
    }

    /// Append one record batch: `docs[i]` gets arrival index
    /// `base_seq + i`. Honors the sync policy and the crash-injection
    /// hook; returns only after every record is at least in the OS.
    pub(crate) fn append(
        &mut self,
        base_seq: u64,
        docs: &[std::sync::Arc<Value>],
    ) -> std::io::Result<()> {
        let mut payload = Vec::new();
        for (i, doc) in docs.iter().enumerate() {
            payload.clear();
            encode_value(doc, &mut payload);
            write_record(&mut self.file, base_seq + i as u64, &payload)?;
            self.written += 1;
            if self.sync == SyncPolicy::Always {
                self.file.flush()?;
                self.file.get_ref().sync_data()?;
            }
            if let Some(n) = self.crash_after {
                if self.written >= n {
                    // Simulated crash: make exactly these records
                    // durable, then die without unwinding.
                    let _ = self.file.flush();
                    let _ = self.file.get_ref().sync_data();
                    std::process::abort();
                }
            }
        }
        self.file.flush()?;
        if self.sync == SyncPolicy::Batch {
            self.file.get_ref().sync_data()?;
        }
        Ok(())
    }

    /// Records written by this process so far (crash-injection counter).
    pub(crate) fn written(&self) -> u64 {
        self.written
    }

    /// Carry the crash-injection counter across a rotation: the fresh
    /// writer must keep counting from where the rotated one stopped, or
    /// `crash_after` would reset at every seal.
    pub(crate) fn set_written(&mut self, written: u64) {
        self.written = written;
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

/// Read the longest valid record prefix of the log at `path`. A missing
/// file is an empty log; a malformed header is treated as empty rather
/// than an error (the file is rewritten on the next rotation). Torn or
/// corrupt tails end the prefix silently — that is the crash contract.
pub(crate) fn read_records(path: &Path) -> std::io::Result<Vec<RawRecord>> {
    let mut buf = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut buf)?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    }
    if buf.len() < MAGIC.len() || &buf[..MAGIC.len()] != MAGIC {
        return Ok(Vec::new());
    }
    let mut records = Vec::new();
    let mut pos = MAGIC.len();
    while let Some(record) = next_record(&buf, &mut pos) {
        records.push(record);
    }
    Ok(records)
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

/// Atomically replace the log with `records` (seal rotation: the caller
/// passes the tail not yet covered by sealed segments). Writes a fresh
/// log beside the old one, syncs it, and renames it over `path`.
pub(crate) fn rewrite(path: &Path, records: &[RawRecord]) -> std::io::Result<()> {
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

    #[test]
    fn append_read_rewrite_roundtrip() {
        let dir = std::env::temp_dir().join(format!("provdb-wal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");
        let _ = std::fs::remove_file(&path);
        let docs: Vec<Arc<Value>> = (0..5).map(|_| Arc::new(doc())).collect();
        let mut w = WalWriter::open(&path, SyncPolicy::Batch, None).unwrap();
        w.append(0, &docs[..3]).unwrap();
        w.append(3, &docs[3..]).unwrap();
        drop(w);
        let records = read_records(&path).unwrap();
        assert_eq!(records.len(), 5);
        assert_eq!(records[4].seq, 4);
        let mut syms = SymTable::default();
        assert!(records.iter().all(|r| syms.decode(&r.payload).is_some()));

        // Rotation keeps the tail, drops the sealed prefix.
        rewrite(&path, &records[3..]).unwrap();
        let tail = read_records(&path).unwrap();
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0].seq, 3);

        // A torn tail (partial last record) replays the valid prefix.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.truncate(bytes.len() - 3);
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(read_records(&path).unwrap().len(), 1);

        // A flipped payload byte fails the checksum and ends the prefix.
        rewrite(&path, &records[3..4]).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(read_records(&path).unwrap().len(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
