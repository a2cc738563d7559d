//! Vectorized columnar sidecar for the document store — per-shard,
//! append-only, dictionary-encoded and chunked column vectors of the hot
//! scalar fields.
//!
//! PROV-AGENT-shaped corpora are queried over and over on a small set of
//! scalar fields (ids, status, timestamps, derived telemetry means). The
//! sidecar stores those fields *as the query frame sees them*: each vector
//! entry is the value `DataFrame::from_messages` would put in the
//! corresponding frame cell for that document — i.e. the value obtained by
//! decoding the document with `TaskMessage::from_value` and flattening it
//! with the frame's row policy (defaults applied, `duration` derived,
//! telemetry means computed). The executor (`crate::exec`) can therefore
//! evaluate `col op lit` and `col.isin([...])` filters and build projected
//! frames straight from the vectors, with *frame* comparison semantics
//! ([`dataframe::cmp_matches`]), and only decode a surviving document when
//! a referenced column is not columnar.
//!
//! ## Physical layout
//!
//! * **Dictionary encoding** — every string column is a `Vec<u32>` of
//!   codes plus a per-shard, per-column dictionary (`code → Sym`, with a
//!   hash map for the reverse direction). Codes are assigned in first
//!   appearance order and are **stable**: once a symbol has a code in a
//!   shard, that code never changes and is never reused, so any later
//!   symbol gets a strictly larger code. `NULL_CODE` (`u32::MAX`) marks an
//!   absent cell. Filters compile their literal to a code (or a per-code
//!   truth table) once per shard and then compare integers.
//! * **Chunking + zone maps** — every column vector is logically split
//!   into fixed-size chunks (the store's `chunk_rows`, see
//!   [`crate::Config`]). Each chunk carries a zone map: per float
//!   column `min`/`max` over the finite present cells plus present and NaN
//!   counts, per string column `min`/`max` *code* plus a present count,
//!   and a per-chunk decodable count. Selective scans consult the zone
//!   maps first and skip whole chunks without touching a cell. Code
//!   stability is what makes the string zones sound: a chunk's `max_code`
//!   bounds every symbol the chunk can contain, so an equality literal
//!   first seen later than the chunk was written can never be inside it.
//!   This is deliberately the same zone-map shape an on-disk segment
//!   footer needs (see ROADMAP's durability item).
//! * **Kernels** — a scan compiles its conjuncts once per shard
//!   ([`ColumnarShard::compile`]; once per paged cold chunk, which is a
//!   one-chunk shard of its own, see [`crate::pager`]) and evaluates each
//!   chunk with [`ColumnarShard::filter_chunk`]: the selection starts from the
//!   decodable rows of the chunk and each predicate shrinks it with a
//!   branch-light compaction pass, replacing the per-row short-circuit
//!   `matches()` loop. The chunk-major scan and the top-k buffer both
//!   route through the same kernels.
//!
//! ## Exactness contract
//!
//! For every document and every columnar field, [`ColumnarShard::value`]
//! must equal the cell `from_messages` produces (`Value::Null` standing in
//! for "the row does not provide the column"), and a document is marked
//! decodable exactly when `TaskMessage::from_value` succeeds — the oracle
//! drops undecodable documents, so the columnar path must too. The
//! compiled kernels must agree with [`dataframe::cmp_matches`] (and, for
//! `isin`, with [`dataframe::values_equal`] any-match) on every cell,
//! including null cells (`!=` against a non-null literal matches a null
//! cell) and NaN cells (`Value::compare` calls mixed NaN comparisons
//! `Equal`, so NaN matches `!=`, `<=` and `>=`). Proptests in
//! `tests/columnar_differential.rs` pin this equivalence down over random
//! documents — including corpora straddling chunk boundaries and
//! adversarial dictionaries — by comparing against the decode oracle.
//!
//! Two escape hatches keep the contract honest on adversarial data:
//!
//! * **Poisoning** — the frame's flatten policy lets a `used`/`generated`
//!   key shadow the bare column name of the non-protected telemetry means
//!   (`gpu_percent_end`, `mem_used_mb_end`). When such a key is ever
//!   ingested, the affected column is *poisoned*: it stops advertising as
//!   columnar and queries referencing it fall back to document decoding
//!   (always correct, merely slower). Poisoning is store-level and
//!   orthogonal to the physical layout: a poisoned column's codes and
//!   zones keep accumulating, they are just never consulted.
//! * **Irregularity** — index probes operate on raw document values, while
//!   the frame sees decoded values. For well-formed corpora these agree,
//!   so index candidate sets are valid supersets; when a decodable
//!   document's raw field had to be defaulted or canonicalized during
//!   decoding (`status: "finished"` → `"FINISHED"`, a string
//!   `started_at` → `0.0`), the field is marked *irregular* and index
//!   hints on it are disabled — the scan then evaluates the conjunct over
//!   the full column vector instead, which is exact by construction.
//!   Irregular values are still dictionary-encoded and zone-mapped like
//!   any other cell: irregularity gates only the *index hint*, never the
//!   vectors.
//!
//! Consistency with the document store is structural: every
//! `DocumentStore` keeps the sidecar, its vectors live inside each shard
//! and are appended under the same shard write lock as the document
//! itself; the facade's `generation()` counter keys caches built on top
//! (the agent tool's oracle frame), not the sidecar.

use dataframe::{cmp_matches, values_equal, CmpOp};
use prov_model::{MessageType, Sym, TaskStatus, Value};
use std::cmp::Ordering;
use std::collections::hash_map::Entry;

/// String-typed hot columns, in vector order. All are frame "common
/// fields", so the flatten policy protects their bare names from
/// `used`/`generated` key clashes.
pub(crate) const STR_FIELDS: [&str; 7] = [
    "task_id",
    "campaign_id",
    "workflow_id",
    "activity_id",
    "hostname",
    "status",
    "type",
];

/// Float-typed hot columns, in vector order: the Listing-1 timestamps, the
/// derived `duration`, and the derived scalar telemetry means.
pub(crate) const F64_FIELDS: [&str; 7] = [
    "started_at",
    "ended_at",
    "duration",
    "cpu_percent_start",
    "cpu_percent_end",
    "gpu_percent_end",
    "mem_used_mb_end",
];

/// Columns whose bare frame name is *not* protected against a
/// `used`/`generated` key of the same name (see module docs): ingesting
/// such a key poisons the column.
pub(crate) const POISONABLE: [&str; 2] = ["gpu_percent_end", "mem_used_mb_end"];

/// Fields whose raw document value can back an index probe when regular
/// (pass-through fields; derived columns like `duration` have no document
/// path and never hint).
const HINTABLE: [&str; 9] = [
    "task_id",
    "campaign_id",
    "workflow_id",
    "activity_id",
    "hostname",
    "status",
    "type",
    "started_at",
    "ended_at",
];

/// Dictionary code standing in for an absent string cell.
pub(crate) const NULL_CODE: u32 = u32::MAX;

/// Handle to one columnar field: kind + index into its typed vector array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ColField {
    /// `STR_FIELDS[i]`.
    Str(usize),
    /// `F64_FIELDS[i]`.
    F64(usize),
}

/// Resolve a frame column name to its columnar field, if it has one.
pub(crate) fn lookup(name: &str) -> Option<ColField> {
    if let Some(i) = STR_FIELDS.iter().position(|f| *f == name) {
        return Some(ColField::Str(i));
    }
    F64_FIELDS
        .iter()
        .position(|f| *f == name)
        .map(ColField::F64)
}

/// Position of `name` in [`STR_FIELDS`], if it is a string hot column.
pub(crate) fn str_field_index(name: &str) -> Option<usize> {
    STR_FIELDS.iter().position(|f| *f == name)
}

/// Position of `name` in [`F64_FIELDS`], if it is a float hot column.
pub(crate) fn f64_field_index(name: &str) -> Option<usize> {
    F64_FIELDS.iter().position(|f| *f == name)
}

/// The field's name.
pub(crate) fn field_name(f: ColField) -> &'static str {
    match f {
        ColField::Str(i) => STR_FIELDS[i],
        ColField::F64(i) => F64_FIELDS[i],
    }
}

/// Bit of a field in the store-level irregular/poison masks.
pub(crate) fn field_bit(f: ColField) -> u16 {
    match f {
        ColField::Str(i) => 1 << i,
        ColField::F64(i) => 1 << (STR_FIELDS.len() + i),
    }
}

/// True when index probes on this field's document path are a valid
/// superset of frame matches (pass-through field, no irregular doc seen).
pub(crate) fn hint_safe(f: ColField, irregular_mask: u16) -> bool {
    HINTABLE.contains(&field_name(f)) && irregular_mask & field_bit(f) == 0
}

/// What one appended document did to the store-level masks.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct PushReport {
    /// Fields whose raw value was defaulted/canonicalized during decode.
    pub irregular: u16,
    /// Poisonable columns shadowed by a dataflow key in this document.
    pub poison: u16,
}

/// One scan conjunct against the columnar vectors, as handed down by the
/// executor: either a comparison or an in-list membership test.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ColPredicate<'a> {
    /// `column op literal` under [`cmp_matches`] semantics.
    Cmp(ColField, CmpOp, &'a Value),
    /// `column.isin(list)` under [`values_equal`] any-match semantics.
    In(ColField, &'a [Value]),
}

fn default_campaign() -> Sym {
    static CELL: std::sync::OnceLock<Sym> = std::sync::OnceLock::new();
    CELL.get_or_init(|| Sym::from("default-campaign")).clone()
}

fn default_hostname() -> Sym {
    static CELL: std::sync::OnceLock<Sym> = std::sync::OnceLock::new();
    CELL.get_or_init(|| Sym::from("localhost")).clone()
}

/// Mean of the numeric entries of the array at `path` (0.0 when absent or
/// empty) — exactly `Telemetry::from_value` + `cpu_mean`/`gpu_mean`.
fn telemetry_mean(telemetry: &Value, path: &str) -> f64 {
    let Some(a) = telemetry.get_path(path).and_then(Value::as_array) else {
        return 0.0;
    };
    let mut sum = 0.0;
    let mut n = 0usize;
    for v in a.iter() {
        if let Some(x) = v.as_f64() {
            sum += x;
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// One dictionary-encoded string column: codes in slot order plus the
/// shard-local dictionary. Codes are first-appearance ordered and stable
/// (see module docs).
///
/// The reverse map is keyed on the symbol's *cached* content digest
/// (pass-through hasher) — a `HashMap<Sym, _>` would re-hash the string
/// bytes on every cell pushed, and encode runs once per cell per string
/// column on the materialize hot path. It maps each digest to the first
/// code seen with it, so a new symbol costs no allocation of its own; the
/// codes of later symbols whose digest collided are listed in `collided`.
/// Both are resolved by the content-equality probe (whose `Sym` pointer
/// fast path hits for interned repeats).
#[derive(Default)]
struct DictColumn {
    codes: Vec<u32>,
    dict: Vec<Sym>,
    rev: crate::document::PrehashedMap<u32>,
    collided: Vec<u32>,
}

impl DictColumn {
    fn push(&mut self, v: Option<Sym>) {
        let code = match v {
            None => NULL_CODE,
            Some(s) => self.code_of(&s).unwrap_or_else(|| {
                let c = self.dict.len() as u32;
                debug_assert!(c < NULL_CODE);
                match self.rev.entry(s.hash_u64()) {
                    Entry::Vacant(e) => {
                        e.insert(c);
                    }
                    Entry::Occupied(_) => self.collided.push(c),
                }
                self.dict.push(s);
                c
            }),
        };
        self.codes.push(code);
    }

    fn code_of(&self, s: &Sym) -> Option<u32> {
        let first = *self.rev.get(&s.hash_u64())?;
        std::iter::once(first)
            .chain(self.collided.iter().copied())
            .find(|&c| self.dict[c as usize] == *s)
    }
}

/// Zone map of one chunk of a string column: code interval of the present
/// cells plus their count. An empty interval (`min > max`) means no
/// present cell.
#[derive(Clone, Copy)]
struct StrZone {
    min_code: u32,
    max_code: u32,
    present: u32,
}

impl Default for StrZone {
    fn default() -> Self {
        Self {
            min_code: u32::MAX,
            max_code: 0,
            present: 0,
        }
    }
}

/// Zone map of one chunk of a float column: `min`/`max` over the finite
/// (non-NaN) present cells, plus present and NaN counts.
#[derive(Clone, Copy)]
struct F64Zone {
    min: f64,
    max: f64,
    present: u32,
    nan: u32,
}

impl Default for F64Zone {
    fn default() -> Self {
        Self {
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            present: 0,
            nan: 0,
        }
    }
}

/// A scan conjunct compiled against one shard's dictionaries — integer
/// comparisons (or table lookups) only, evaluated by
/// [`ColumnarShard::filter_chunk`].
pub(crate) enum ShardPred {
    /// Matches every row (e.g. `!=` against a literal of a kind the column
    /// can never hold) — evaluated for free.
    Always,
    /// Matches no row in this shard (e.g. `==` with a symbol absent from
    /// the dictionary, plus null cells not matching).
    Never,
    /// String-column predicate.
    Str {
        col: usize,
        test: StrTest,
        null_matches: bool,
    },
    /// Float-column predicate.
    F64 {
        col: usize,
        test: F64Test,
        null_matches: bool,
    },
}

/// The per-present-cell test of a compiled string predicate.
pub(crate) enum StrTest {
    /// Cell code equals this code (`None`: literal not in the dictionary,
    /// no present cell can match).
    EqCode(Option<u32>),
    /// Cell code differs from this code (`None`: every present cell
    /// matches).
    NeCode(Option<u32>),
    /// Cell code is one of these (sorted) codes — the compiled in-list.
    InCodes(Vec<u32>),
    /// Arbitrary op: truth table indexed by code, computed once per shard
    /// with real [`cmp_matches`] over the dictionary.
    Table(Vec<bool>),
    /// Every present cell gets the same verdict (kind-tag comparison
    /// against a non-string literal).
    Const(bool),
}

/// The per-present-cell test of a compiled float predicate.
pub(crate) enum F64Test {
    /// Numeric comparison against the literal coerced to `f64` (the exact
    /// coercion `cmp_matches` applies for Int/Float literals).
    Cmp(CmpOp, f64),
    /// Membership in a (numeric) literal set.
    In(Vec<f64>),
    /// Every present cell gets the same verdict (kind-tag comparison
    /// against a non-numeric literal).
    Const(bool),
}

/// Column vectors of one document-store shard, slot-aligned with the
/// shard's document vector. See the module docs for the layout.
pub(crate) struct ColumnarShard {
    /// Rows per chunk (fixed for the shard's lifetime).
    chunk: usize,
    /// Whether `TaskMessage::from_value` succeeds on the slot's document.
    decodable: Vec<bool>,
    /// Decodable rows per chunk.
    chunk_decodable: Vec<u32>,
    strs: [DictColumn; STR_FIELDS.len()],
    str_zones: [Vec<StrZone>; STR_FIELDS.len()],
    floats: [Vec<Option<f64>>; F64_FIELDS.len()],
    f64_zones: [Vec<F64Zone>; F64_FIELDS.len()],
    /// Non-absent entries per field (`strs` first, then `floats`) —
    /// answers corpus-wide column existence without a scan.
    present: [usize; STR_FIELDS.len() + F64_FIELDS.len()],
}

impl ColumnarShard {
    /// An empty shard of `chunk`-row chunks.
    pub(crate) fn with_chunk(chunk: usize) -> Self {
        Self {
            chunk: chunk.max(1),
            decodable: Vec::new(),
            chunk_decodable: Vec::new(),
            strs: Default::default(),
            str_zones: Default::default(),
            floats: Default::default(),
            f64_zones: Default::default(),
            present: Default::default(),
        }
    }

    /// Rows covered (equals the shard's document count while in sync).
    pub(crate) fn len(&self) -> usize {
        self.decodable.len()
    }

    /// Rows per chunk.
    pub(crate) fn chunk_rows(&self) -> usize {
        self.chunk
    }

    /// Number of chunks currently held.
    #[cfg(test)]
    pub(crate) fn n_chunks(&self) -> usize {
        self.chunk_decodable.len()
    }

    /// Slot range of chunk `c`.
    pub(crate) fn chunk_span(&self, c: usize) -> (usize, usize) {
        let start = c * self.chunk;
        (start, (start + self.chunk).min(self.len()))
    }

    /// Whether the slot's document decodes into a task message.
    pub(crate) fn is_decodable(&self, slot: usize) -> bool {
        self.decodable.get(slot).copied().unwrap_or(false)
    }

    /// Non-absent entries of a field in this shard.
    pub(crate) fn present(&self, f: ColField) -> usize {
        match f {
            ColField::Str(i) => self.present[i],
            ColField::F64(i) => self.present[STR_FIELDS.len() + i],
        }
    }

    /// Non-absent entries of a field among the first `n` slots — the
    /// snapshot-bounded counterpart of [`present`](Self::present). Sums
    /// the per-chunk zone counts for whole chunks and scans only the one
    /// boundary chunk, so the cost is `O(n / chunk + chunk)`.
    pub(crate) fn present_prefix(&self, f: ColField, n: usize) -> usize {
        if n >= self.len() {
            return self.present(f);
        }
        let full = n / self.chunk;
        let boundary = full * self.chunk..n;
        match f {
            ColField::Str(i) => {
                let whole: usize = self.str_zones[i][..full]
                    .iter()
                    .map(|z| z.present as usize)
                    .sum();
                whole
                    + self.strs[i].codes[boundary]
                        .iter()
                        .filter(|&&c| c != NULL_CODE)
                        .count()
            }
            ColField::F64(i) => {
                // `Some(NaN)` counts as present, mirroring `push_f64`.
                let whole: usize = self.f64_zones[i][..full]
                    .iter()
                    .map(|z| z.present as usize)
                    .sum();
                whole
                    + self.floats[i][boundary]
                        .iter()
                        .filter(|v| v.is_some())
                        .count()
            }
        }
    }

    /// The code vector of string column `i` (slot-aligned; `NULL_CODE`
    /// marks absent cells). Exposed for code-based group-by.
    pub(crate) fn str_codes(&self, i: usize) -> &[u32] {
        &self.strs[i].codes
    }

    /// The dictionary of string column `i` (`code → Sym`).
    pub(crate) fn dict(&self, i: usize) -> &[Sym] {
        &self.strs[i].dict
    }

    /// The cells of float column `i` (slot-aligned; `None` marks absent
    /// cells). Exposed for sealing column blocks.
    pub(crate) fn f64_cells(&self, i: usize) -> &[Option<f64>] {
        &self.floats[i]
    }

    /// Heap bytes held by this shard's vectors, dictionaries and zone
    /// maps (by capacity; interned symbol payloads are shared, so only
    /// their handles count).
    pub(crate) fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let strs: usize = self
            .strs
            .iter()
            .map(|c| {
                c.codes.capacity() * size_of::<u32>()
                    + c.dict.capacity() * size_of::<Sym>()
                    + c.rev.capacity() * size_of::<(u64, u32)>()
                    + c.collided.capacity() * size_of::<u32>()
            })
            .sum();
        let floats: usize = self
            .floats
            .iter()
            .map(|v| v.capacity() * size_of::<Option<f64>>())
            .sum();
        let zones: usize = self
            .str_zones
            .iter()
            .map(|z| z.capacity() * size_of::<StrZone>())
            .chain(
                self.f64_zones
                    .iter()
                    .map(|z| z.capacity() * size_of::<F64Zone>()),
            )
            .sum();
        size_of::<Self>()
            + self.decodable.capacity()
            + self.chunk_decodable.capacity() * size_of::<u32>()
            + strs
            + floats
            + zones
    }

    /// The frame cell for `(slot, field)`; `Null` when the row does not
    /// provide the column (or the document is undecodable).
    pub(crate) fn value(&self, slot: usize, f: ColField) -> Value {
        match f {
            ColField::Str(i) => match self.strs[i].codes.get(slot) {
                Some(&c) if c != NULL_CODE => Value::Str(self.strs[i].dict[c as usize].clone()),
                _ => Value::Null,
            },
            ColField::F64(i) => self.floats[i]
                .get(slot)
                .and_then(|v| *v)
                .map(Value::Float)
                .unwrap_or(Value::Null),
        }
    }

    /// Evaluate `value(slot, f) op lit` with frame semantics.
    pub(crate) fn matches(&self, slot: usize, f: ColField, op: CmpOp, lit: &Value) -> bool {
        cmp_matches(&self.value(slot, f), op, lit)
    }

    /// Evaluate one predicate on one row with frame semantics — the
    /// single-row fallback the ordered top-k cursor uses.
    pub(crate) fn matches_pred(&self, slot: usize, p: &ColPredicate<'_>) -> bool {
        match p {
            ColPredicate::Cmp(f, op, lit) => self.matches(slot, *f, *op, lit),
            ColPredicate::In(f, list) => {
                let v = self.value(slot, *f);
                list.iter().any(|x| values_equal(x, &v))
            }
        }
    }

    fn push_str(&mut self, i: usize, v: Option<Sym>) {
        if v.is_some() {
            self.present[i] += 1;
        }
        self.strs[i].push(v);
        let code = *self.strs[i].codes.last().expect("just pushed");
        let z = self.str_zones[i].last_mut().expect("zone opened");
        if code != NULL_CODE {
            z.min_code = z.min_code.min(code);
            z.max_code = z.max_code.max(code);
            z.present += 1;
        }
    }

    fn push_f64(&mut self, i: usize, v: Option<f64>) {
        if v.is_some() {
            self.present[STR_FIELDS.len() + i] += 1;
        }
        self.floats[i].push(v);
        let z = self.f64_zones[i].last_mut().expect("zone opened");
        if let Some(x) = v {
            z.present += 1;
            if x.is_nan() {
                z.nan += 1;
            } else {
                z.min = z.min.min(x);
                z.max = z.max.max(x);
            }
        }
    }

    /// Append one pre-extracted row (must be called exactly once per
    /// document, in slot order, under the shard's write lock — extraction
    /// itself is pure and can run before any lock is taken).
    pub(crate) fn push_row(&mut self, row: ExtractedRow) -> PushReport {
        if self.decodable.len().is_multiple_of(self.chunk) {
            // Open a fresh chunk: one zone entry per column.
            self.chunk_decodable.push(0);
            for z in &mut self.str_zones {
                z.push(StrZone::default());
            }
            for z in &mut self.f64_zones {
                z.push(F64Zone::default());
            }
        }
        self.decodable.push(row.decodable);
        if row.decodable {
            *self.chunk_decodable.last_mut().expect("chunk opened") += 1;
        }
        for (i, v) in row.strs.into_iter().enumerate() {
            self.push_str(i, v);
        }
        for (i, v) in row.floats.into_iter().enumerate() {
            self.push_f64(i, v);
        }
        row.report
    }

    /// Extract-and-append in one step.
    pub(crate) fn push_doc(&mut self, doc: &Value) -> PushReport {
        self.push_row(extract(doc))
    }

    /// Serialize the chunk zone maps of rows `[start, end)` for a sealed
    /// segment footer (see [`crate::segment`]). Both bounds must sit on
    /// chunk boundaries and be covered — seals only ever cover whole
    /// chunks, whose zones are frozen (only the trailing partial chunk
    /// still mutates). The string dictionaries are snapshotted whole:
    /// codes are first-appearance stable, so the snapshot maps every
    /// code the sealed zones can reference, and symbol clones are
    /// refcount bumps.
    pub(crate) fn export_zone_tables(
        &self,
        start: usize,
        end: usize,
    ) -> Option<crate::segment::ZoneTables> {
        if !start.is_multiple_of(self.chunk)
            || !end.is_multiple_of(self.chunk)
            || end > self.len()
            || start > end
        {
            return None;
        }
        let (c0, c1) = (start / self.chunk, end / self.chunk);
        Some(crate::segment::ZoneTables {
            str_dicts: self.strs.iter().map(|col| col.dict.clone()).collect(),
            str_zones: self
                .str_zones
                .iter()
                .map(|zs| {
                    zs[c0..c1]
                        .iter()
                        .map(|z| (z.min_code, z.max_code, z.present))
                        .collect()
                })
                .collect(),
            f64_zones: self
                .f64_zones
                .iter()
                .map(|zs| {
                    zs[c0..c1]
                        .iter()
                        .map(|z| (z.min, z.max, z.present, z.nan))
                        .collect()
                })
                .collect(),
            chunk_decodable: self.chunk_decodable[c0..c1].to_vec(),
            // The sealer stamps the store-wide pushdown masks in before
            // writing (the shard has no view of sibling shards' rows).
            irregular: 0,
            poison: 0,
        })
    }

    /// Compile scan conjuncts against this shard's dictionaries. The
    /// result evaluates every cell exactly like
    /// [`ColumnarShard::matches_pred`], but over integer codes.
    pub(crate) fn compile(&self, preds: &[ColPredicate<'_>]) -> Vec<ShardPred> {
        preds.iter().map(|p| self.compile_one(p)).collect()
    }

    fn compile_one(&self, p: &ColPredicate<'_>) -> ShardPred {
        match *p {
            ColPredicate::Cmp(f, op, lit) => {
                // `cmp_matches` with a null literal: `!=` is true unless
                // the cell is also null; every other op is false.
                if lit.is_null() {
                    return match (op, f) {
                        (CmpOp::Ne, ColField::Str(col)) => ShardPred::Str {
                            col,
                            test: StrTest::Const(true),
                            null_matches: false,
                        },
                        (CmpOp::Ne, ColField::F64(col)) => ShardPred::F64 {
                            col,
                            test: F64Test::Const(true),
                            null_matches: false,
                        },
                        _ => ShardPred::Never,
                    };
                }
                // Null cell vs non-null literal: only `!=` matches.
                let null_matches = matches!(op, CmpOp::Ne);
                match f {
                    ColField::Str(col) => {
                        let test = match (op, lit.as_sym()) {
                            (CmpOp::Eq, Some(s)) => StrTest::EqCode(self.strs[col].code_of(s)),
                            (CmpOp::Ne, Some(s)) => StrTest::NeCode(self.strs[col].code_of(s)),
                            (_, Some(_)) => {
                                // Ordering op over strings: one
                                // `cmp_matches` per distinct symbol.
                                let table = self.strs[col]
                                    .dict
                                    .iter()
                                    .map(|s| cmp_matches(&Value::Str(s.clone()), op, lit))
                                    .collect();
                                StrTest::Table(table)
                            }
                            (_, None) => {
                                // Non-string literal: `Value::compare`
                                // falls back to kind tags, so every
                                // present cell gets the same verdict.
                                let probe = Value::Str(Sym::from(""));
                                StrTest::Const(cmp_matches(&probe, op, lit))
                            }
                        };
                        match test {
                            StrTest::EqCode(None) if !null_matches => ShardPred::Never,
                            StrTest::Const(false) if !null_matches => ShardPred::Never,
                            StrTest::Const(true) if null_matches => ShardPred::Always,
                            test => ShardPred::Str {
                                col,
                                test,
                                null_matches,
                            },
                        }
                    }
                    ColField::F64(col) => {
                        let test = match lit.as_f64() {
                            Some(l) => F64Test::Cmp(op, l),
                            None => {
                                // Non-numeric literal: kind-tag compare is
                                // constant over all Float cells.
                                let probe = Value::Float(0.0);
                                F64Test::Const(cmp_matches(&probe, op, lit))
                            }
                        };
                        match test {
                            F64Test::Const(false) if !null_matches => ShardPred::Never,
                            F64Test::Const(true) if null_matches => ShardPred::Always,
                            test => ShardPred::F64 {
                                col,
                                test,
                                null_matches,
                            },
                        }
                    }
                }
            }
            ColPredicate::In(f, list) => {
                // `values_equal(Null, x)` holds only for a null x, so a
                // null cell matches exactly when the list contains null.
                let null_matches = list.iter().any(Value::is_null);
                match f {
                    ColField::Str(col) => {
                        let mut codes: Vec<u32> = list
                            .iter()
                            .filter_map(Value::as_sym)
                            .filter_map(|s| self.strs[col].code_of(s))
                            .collect();
                        codes.sort_unstable();
                        codes.dedup();
                        if codes.is_empty() && !null_matches {
                            ShardPred::Never
                        } else {
                            ShardPred::Str {
                                col,
                                test: StrTest::InCodes(codes),
                                null_matches,
                            }
                        }
                    }
                    ColField::F64(col) => {
                        // Only numeric list entries can equal a Float
                        // cell (`values_equal` coerces Int, nothing
                        // else); a NaN entry never equals anything.
                        let lits: Vec<f64> = list.iter().filter_map(Value::as_f64).collect();
                        if lits.is_empty() && !null_matches {
                            ShardPred::Never
                        } else {
                            ShardPred::F64 {
                                col,
                                test: F64Test::In(lits),
                                null_matches,
                            }
                        }
                    }
                }
            }
        }
    }

    /// Zone-map verdict: can chunk `c` be skipped for this predicate
    /// (provably no matching row)? Conservative — `false` means "must
    /// evaluate", never "matches".
    fn zone_skips(&self, p: &ShardPred, c: usize) -> bool {
        let (start, end) = self.chunk_span(c);
        let rows = (end - start) as u32;
        match p {
            ShardPred::Always => false,
            ShardPred::Never => true,
            ShardPred::Str {
                col,
                test,
                null_matches,
            } => {
                let z = &self.str_zones[*col][c];
                if *null_matches && z.present < rows {
                    return false;
                }
                let present_possible = match test {
                    StrTest::EqCode(None) => false,
                    StrTest::EqCode(Some(code)) => {
                        z.present > 0 && *code >= z.min_code && *code <= z.max_code
                    }
                    StrTest::NeCode(None) => z.present > 0,
                    StrTest::NeCode(Some(code)) => {
                        // Only provably all-equal when the interval is a
                        // single point at the literal's code.
                        z.present > 0 && !(z.min_code == *code && z.max_code == *code)
                    }
                    StrTest::InCodes(codes) => {
                        z.present > 0
                            && codes
                                .iter()
                                .any(|&code| code >= z.min_code && code <= z.max_code)
                    }
                    StrTest::Table(_) => z.present > 0,
                    StrTest::Const(b) => *b && z.present > 0,
                };
                !present_possible
            }
            ShardPred::F64 {
                col,
                test,
                null_matches,
            } => {
                let z = &self.f64_zones[*col][c];
                if *null_matches && z.present < rows {
                    return false;
                }
                let finite = z.present > z.nan;
                let present_possible = match test {
                    F64Test::Cmp(op, l) => {
                        // NaN cells compare `Equal` under `Value::compare`,
                        // so they match Ne/Le/Ge.
                        let nan_hit = z.nan > 0 && matches!(op, CmpOp::Ne | CmpOp::Le | CmpOp::Ge);
                        let finite_hit = finite
                            && match op {
                                CmpOp::Eq => *l >= z.min && *l <= z.max,
                                CmpOp::Ne => !(z.min == *l && z.max == *l),
                                CmpOp::Lt => z.min < *l,
                                CmpOp::Le => z.min <= *l,
                                CmpOp::Gt => z.max > *l,
                                CmpOp::Ge => z.max >= *l,
                            };
                        nan_hit || finite_hit
                    }
                    F64Test::In(lits) => finite && lits.iter().any(|l| *l >= z.min && *l <= z.max),
                    F64Test::Const(b) => *b && z.present > 0,
                };
                !present_possible
            }
        }
    }

    /// True when the zone maps prove no row of chunk `c` can satisfy all
    /// predicates (the chunk-skip fast path).
    pub(crate) fn chunk_prunable(&self, preds: &[ShardPred], c: usize) -> bool {
        self.chunk_decodable[c] == 0 || preds.iter().any(|p| self.zone_skips(p, c))
    }

    /// Evaluate the compiled conjuncts over chunk `c`, writing the
    /// surviving (decodable) slots into `sel` in ascending order. `sel` is
    /// cleared first; returns quickly when the zone maps prune the chunk.
    pub(crate) fn filter_chunk(&self, preds: &[ShardPred], c: usize, sel: &mut Vec<u32>) {
        sel.clear();
        if self.chunk_prunable(preds, c) {
            return;
        }
        let (start, end) = self.chunk_span(c);
        // Seed with the decodable slots of the chunk.
        if self.chunk_decodable[c] as usize == end - start {
            sel.extend(start as u32..end as u32);
        } else {
            for s in start..end {
                if self.decodable[s] {
                    sel.push(s as u32);
                }
            }
        }
        for p in preds {
            match p {
                ShardPred::Always => continue,
                ShardPred::Never => {
                    sel.clear();
                    return;
                }
                ShardPred::Str {
                    col,
                    test,
                    null_matches,
                } => {
                    let codes = &self.strs[*col].codes;
                    let nm = *null_matches;
                    match test {
                        StrTest::EqCode(code) => {
                            let want = code.unwrap_or(NULL_CODE - 1);
                            retain_sel(sel, |s| {
                                let c = codes[s];
                                if c == NULL_CODE {
                                    nm
                                } else {
                                    c == want
                                }
                            });
                        }
                        StrTest::NeCode(code) => {
                            // A null cell (`NULL_CODE`) differs from every
                            // real code, and `!=` matches null cells
                            // against a non-null literal — one compare
                            // covers both when `nm` holds. The compiled
                            // `nm` is always true here, but stay exact.
                            match code {
                                Some(want) if nm => {
                                    retain_sel(sel, |s| codes[s] != *want);
                                }
                                Some(want) => {
                                    retain_sel(sel, |s| {
                                        let c = codes[s];
                                        c != NULL_CODE && c != *want
                                    });
                                }
                                None => {
                                    retain_sel(sel, |s| codes[s] != NULL_CODE || nm);
                                }
                            }
                        }
                        StrTest::InCodes(want) => {
                            retain_sel(sel, |s| {
                                let c = codes[s];
                                if c == NULL_CODE {
                                    nm
                                } else {
                                    want.binary_search(&c).is_ok()
                                }
                            });
                        }
                        StrTest::Table(table) => {
                            retain_sel(sel, |s| {
                                let c = codes[s];
                                if c == NULL_CODE {
                                    nm
                                } else {
                                    table[c as usize]
                                }
                            });
                        }
                        StrTest::Const(b) => {
                            let b = *b;
                            retain_sel(sel, |s| if codes[s] == NULL_CODE { nm } else { b });
                        }
                    }
                }
                ShardPred::F64 {
                    col,
                    test,
                    null_matches,
                } => {
                    let vals = &self.floats[*col];
                    let nm = *null_matches;
                    match test {
                        F64Test::Cmp(op, l) => {
                            let (op, l) = (*op, *l);
                            retain_sel(sel, |s| match vals[s] {
                                Some(x) => {
                                    let ord = x.partial_cmp(&l).unwrap_or(Ordering::Equal);
                                    op.test(ord, x == l)
                                }
                                None => nm,
                            });
                        }
                        F64Test::In(lits) => {
                            retain_sel(sel, |s| match vals[s] {
                                Some(x) => lits.contains(&x),
                                None => nm,
                            });
                        }
                        F64Test::Const(b) => {
                            let b = *b;
                            retain_sel(sel, |s| match vals[s] {
                                Some(_) => b,
                                None => nm,
                            });
                        }
                    }
                }
            }
            if sel.is_empty() {
                return;
            }
        }
    }
}

/// Branch-light in-place selection compaction: keep `sel[i]` when the
/// predicate holds, preserving order.
fn retain_sel(sel: &mut Vec<u32>, mut keep: impl FnMut(usize) -> bool) {
    let mut n = 0usize;
    for i in 0..sel.len() {
        let s = sel[i];
        sel[n] = s;
        n += keep(s as usize) as usize;
    }
    sel.truncate(n);
}

/// One document's hot fields, decoded to frame cells but not yet appended
/// to a shard — the pure half of ingest-time population, computable
/// outside every lock.
pub(crate) struct ExtractedRow {
    pub(crate) decodable: bool,
    pub(crate) strs: [Option<Sym>; STR_FIELDS.len()],
    pub(crate) floats: [Option<f64>; F64_FIELDS.len()],
    pub(crate) report: PushReport,
}

/// Decode one document's hot fields into an [`ExtractedRow`] (see the
/// module docs for the exactness contract with `TaskMessage::from_value`
/// and the frame's row policy).
pub(crate) fn extract(doc: &Value) -> ExtractedRow {
    let mut report = PushReport::default();

    // Extraction runs once per ingested document, so gather every hot
    // top-level value in a single pass over the sorted entries instead
    // of a binary search per field.
    let mut v_task_id = None;
    let mut v_workflow_id = None;
    let mut v_activity_id = None;
    let mut v_campaign_id = None;
    let mut v_hostname = None;
    let mut v_status = None;
    let mut v_type = None;
    let mut v_started_at = None;
    let mut v_ended_at = None;
    let mut tele_start = None;
    let mut tele_end = None;
    let mut v_used = None;
    let mut v_generated = None;
    if let Value::Object(m) = doc {
        for (k, v) in m.iter() {
            let slot = match k.as_str() {
                "task_id" => &mut v_task_id,
                "workflow_id" => &mut v_workflow_id,
                "activity_id" => &mut v_activity_id,
                "campaign_id" => &mut v_campaign_id,
                "hostname" => &mut v_hostname,
                "status" => &mut v_status,
                "type" => &mut v_type,
                "started_at" => &mut v_started_at,
                "ended_at" => &mut v_ended_at,
                "telemetry_at_start" => &mut tele_start,
                "telemetry_at_end" => &mut tele_end,
                "used" => &mut v_used,
                "generated" => &mut v_generated,
                _ => continue,
            };
            *slot = Some(v);
        }
    }
    let get_str = |v: Option<&Value>| match v {
        Some(Value::Str(s)) => Some(s.clone()),
        _ => None,
    };
    // `TaskMessage::from_value` requires these three as strings; a
    // document missing any of them never reaches the oracle frame.
    let task_id = get_str(v_task_id);
    let workflow_id = get_str(v_workflow_id);
    let activity_id = get_str(v_activity_id);
    let decodable = task_id.is_some() && workflow_id.is_some() && activity_id.is_some();
    if !decodable {
        return ExtractedRow {
            decodable,
            strs: Default::default(),
            floats: Default::default(),
            report,
        };
    }

    let mut irregular = |name: &str| {
        report.irregular |= field_bit(lookup(name).expect("known field"));
    };

    // Pass-through strings with decode defaults.
    let campaign = get_str(v_campaign_id).unwrap_or_else(|| {
        irregular("campaign_id");
        default_campaign()
    });
    let hostname = get_str(v_hostname).unwrap_or_else(|| {
        irregular("hostname");
        default_hostname()
    });
    // Canonicalized enums: the decode parses (case-insensitively for
    // status) and falls back to the default; the frame cell is the
    // canonical wire symbol. Irregular whenever canonical != raw.
    let status = match get_str(v_status) {
        Some(raw) => {
            let parsed = TaskStatus::parse(raw.as_str()).unwrap_or_default();
            if parsed.sym().as_str() != raw.as_str() {
                irregular("status");
            }
            parsed.sym()
        }
        None => {
            irregular("status");
            TaskStatus::default().sym()
        }
    };
    let msg_type = match get_str(v_type) {
        Some(raw) => {
            let parsed = MessageType::parse(raw.as_str()).unwrap_or_default();
            if parsed.sym().as_str() != raw.as_str() {
                irregular("type");
            }
            parsed.sym()
        }
        None => {
            irregular("type");
            MessageType::default().sym()
        }
    };

    // Timestamps: decode coerces to f64 with a 0.0 default; a raw
    // value an index cannot coerce the same way is irregular.
    let started_at = v_started_at.and_then(Value::as_f64).unwrap_or_else(|| {
        irregular("started_at");
        0.0
    });
    let ended_at = v_ended_at.and_then(Value::as_f64).unwrap_or_else(|| {
        irregular("ended_at");
        0.0
    });
    let duration = (ended_at - started_at).max(0.0);

    // Derived telemetry means: present exactly when the section key
    // is present (however malformed — decode defaults shine through).
    let cpu_start = tele_start.map(|t| telemetry_mean(t, "cpu.percent"));
    let cpu_end = tele_end.map(|t| telemetry_mean(t, "cpu.percent"));
    let gpu_end = tele_end.map(|t| telemetry_mean(t, "gpu.percent"));
    let mem_end = tele_end.map(|t| {
        t.get_path("memory.used_mb")
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
    });

    // Dataflow keys shadowing a non-protected bare column name poison
    // that column store-wide (a nested object would flatten to dotted
    // names, but an empty object or scalar takes the bare name — the
    // top-level check over-approximates on the safe side).
    for section in [v_used, v_generated] {
        if let Some(Value::Object(m)) = section {
            for name in POISONABLE {
                if m.contains_key(name) {
                    report.poison |= field_bit(lookup(name).expect("poisonable field"));
                }
            }
        }
    }

    ExtractedRow {
        decodable,
        strs: [
            task_id,
            Some(campaign),
            workflow_id,
            activity_id,
            Some(hostname),
            Some(status),
            Some(msg_type),
        ],
        floats: [
            Some(started_at),
            Some(ended_at),
            Some(duration),
            cpu_start,
            cpu_end,
            gpu_end,
            mem_end,
        ],
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prov_model::obj;

    #[test]
    fn lookup_covers_all_fields_and_nothing_else() {
        for (i, name) in STR_FIELDS.iter().enumerate() {
            assert_eq!(lookup(name), Some(ColField::Str(i)));
        }
        for (i, name) in F64_FIELDS.iter().enumerate() {
            assert_eq!(lookup(name), Some(ColField::F64(i)));
        }
        assert_eq!(lookup("y"), None);
        assert_eq!(lookup("used.status"), None);
    }

    #[test]
    fn field_bits_are_distinct() {
        let mut seen = 0u16;
        for name in STR_FIELDS.iter().chain(F64_FIELDS.iter()) {
            let bit = field_bit(lookup(name).unwrap());
            assert_eq!(seen & bit, 0, "{name}");
            seen |= bit;
        }
    }

    #[test]
    fn well_formed_doc_extracts_regular() {
        let mut shard = ColumnarShard::with_chunk(4096);
        let doc = prov_model::TaskMessageBuilder::new("t0", "wf", "act")
            .span(5.0, 8.5)
            .host("n0")
            .build()
            .to_value();
        let report = shard.push_doc(&doc);
        assert_eq!(report.irregular, 0);
        assert_eq!(report.poison, 0);
        assert!(shard.is_decodable(0));
        assert_eq!(
            shard.value(0, lookup("task_id").unwrap()),
            Value::from("t0")
        );
        assert_eq!(
            shard.value(0, lookup("duration").unwrap()),
            Value::Float(3.5)
        );
        assert_eq!(
            shard.value(0, lookup("status").unwrap()),
            Value::from("FINISHED")
        );
        // No telemetry: the derived means are absent, not zero.
        assert_eq!(
            shard.value(0, lookup("cpu_percent_end").unwrap()),
            Value::Null
        );
        assert_eq!(shard.present(lookup("cpu_percent_end").unwrap()), 0);
    }

    #[test]
    fn defaults_and_canonicalization_mark_irregular() {
        let mut shard = ColumnarShard::with_chunk(4096);
        let doc = obj! {
            "task_id" => "t", "workflow_id" => "wf", "activity_id" => "a",
            "status" => "finished", "started_at" => "not-a-number",
        };
        let report = shard.push_doc(&doc);
        assert!(shard.is_decodable(0));
        assert_eq!(
            shard.value(0, lookup("status").unwrap()),
            Value::from("FINISHED")
        );
        assert_eq!(
            shard.value(0, lookup("started_at").unwrap()),
            Value::Float(0.0)
        );
        for name in [
            "status",
            "started_at",
            "campaign_id",
            "hostname",
            "type",
            "ended_at",
        ] {
            let bit = field_bit(lookup(name).unwrap());
            assert_ne!(report.irregular & bit, 0, "{name} should be irregular");
        }
        assert!(!hint_safe(lookup("status").unwrap(), report.irregular));
        assert!(hint_safe(lookup("task_id").unwrap(), report.irregular));
        // Derived fields never back an index hint, regular or not.
        assert!(!hint_safe(lookup("duration").unwrap(), 0));
    }

    #[test]
    fn undecodable_doc_is_all_absent() {
        let mut shard = ColumnarShard::with_chunk(4096);
        shard.push_doc(&obj! {"task_id" => "t-only"});
        assert!(!shard.is_decodable(0));
        assert_eq!(shard.value(0, lookup("task_id").unwrap()), Value::Null);
        assert_eq!(shard.present(lookup("task_id").unwrap()), 0);
    }

    #[test]
    fn dataflow_shadow_poisons_unprotected_columns() {
        let mut shard = ColumnarShard::with_chunk(4096);
        let doc = obj! {
            "task_id" => "t", "workflow_id" => "wf", "activity_id" => "a",
            "generated" => obj! {"gpu_percent_end" => 99.0},
        };
        let report = shard.push_doc(&doc);
        assert_ne!(
            report.poison & field_bit(lookup("gpu_percent_end").unwrap()),
            0
        );
        assert_eq!(
            report.poison & field_bit(lookup("mem_used_mb_end").unwrap()),
            0
        );
    }

    #[test]
    fn telemetry_means_match_decode() {
        use prov_model::TaskMessage;
        let synth = prov_model::TelemetrySynth::frontier(3);
        let msg = prov_model::TaskMessageBuilder::new("t", "wf", "a")
            .telemetry(synth.snapshot(1, 0, 0.4), synth.snapshot(1, 1, 0.4))
            .build();
        let doc = msg.to_value();
        let mut shard = ColumnarShard::with_chunk(4096);
        shard.push_doc(&doc);
        let back = TaskMessage::from_value(&doc).unwrap();
        let end = back.telemetry_at_end.unwrap();
        assert_eq!(
            shard.value(0, lookup("cpu_percent_end").unwrap()),
            Value::Float(end.cpu_mean())
        );
        assert_eq!(
            shard.value(0, lookup("gpu_percent_end").unwrap()),
            Value::Float(end.gpu_mean())
        );
        assert_eq!(
            shard.value(0, lookup("mem_used_mb_end").unwrap()),
            Value::Float(end.mem_used_mb)
        );
    }

    fn doc(task: &str, status: &str, dur_end: f64) -> Value {
        prov_model::TaskMessageBuilder::new(task, "wf", "act")
            .status(TaskStatus::parse(status).unwrap())
            .span(0.0, dur_end)
            .host("n0")
            .build()
            .to_value()
    }

    /// Reference evaluation: per-row `matches_pred` over every decodable
    /// slot — the oracle the kernels must agree with.
    fn scan_oracle(shard: &ColumnarShard, preds: &[ColPredicate<'_>]) -> Vec<u32> {
        (0..shard.len())
            .filter(|&s| shard.is_decodable(s) && preds.iter().all(|p| shard.matches_pred(s, p)))
            .map(|s| s as u32)
            .collect()
    }

    fn scan_kernels(shard: &ColumnarShard, preds: &[ColPredicate<'_>]) -> Vec<u32> {
        let compiled = shard.compile(preds);
        let mut out = Vec::new();
        let mut sel = Vec::new();
        for c in 0..shard.n_chunks() {
            shard.filter_chunk(&compiled, c, &mut sel);
            out.extend_from_slice(&sel);
        }
        out
    }

    #[test]
    fn kernels_agree_with_per_row_oracle_across_chunk_boundaries() {
        let mut shard = ColumnarShard::with_chunk(4);
        for i in 0..23 {
            let status = if i % 3 == 0 { "ERROR" } else { "FINISHED" };
            shard.push_doc(&doc(&format!("t{i}"), status, i as f64));
        }
        // Undecodable row in the middle of a chunk.
        shard.push_doc(&obj! {"task_id" => "broken"});
        let err = Value::from("ERROR");
        let lo = Value::Float(5.0);
        let t7 = Value::from("t7");
        let missing = Value::from("not-in-dict");
        let int_lit = Value::Int(3);
        let list = [Value::from("t1"), Value::from("t20"), Value::from("zzz")];
        let status_f = lookup("status").unwrap();
        let dur_f = lookup("duration").unwrap();
        let task_f = lookup("task_id").unwrap();
        let cases: Vec<Vec<ColPredicate<'_>>> = vec![
            vec![ColPredicate::Cmp(status_f, CmpOp::Eq, &err)],
            vec![ColPredicate::Cmp(status_f, CmpOp::Ne, &err)],
            vec![
                ColPredicate::Cmp(status_f, CmpOp::Eq, &err),
                ColPredicate::Cmp(dur_f, CmpOp::Gt, &lo),
            ],
            vec![ColPredicate::Cmp(task_f, CmpOp::Eq, &t7)],
            vec![ColPredicate::Cmp(task_f, CmpOp::Eq, &missing)],
            vec![ColPredicate::Cmp(task_f, CmpOp::Ne, &missing)],
            vec![ColPredicate::Cmp(task_f, CmpOp::Gt, &t7)],
            vec![ColPredicate::Cmp(status_f, CmpOp::Eq, &int_lit)],
            vec![ColPredicate::Cmp(status_f, CmpOp::Ne, &int_lit)],
            vec![ColPredicate::Cmp(dur_f, CmpOp::Le, &lo)],
            vec![ColPredicate::In(task_f, &list)],
            vec![
                ColPredicate::In(task_f, &list),
                ColPredicate::Cmp(dur_f, CmpOp::Ge, &lo),
            ],
        ];
        for preds in &cases {
            assert_eq!(
                scan_kernels(&shard, preds),
                scan_oracle(&shard, preds),
                "kernel mismatch for {preds:?}"
            );
        }
    }

    #[test]
    fn nan_and_null_cells_follow_frame_semantics() {
        let mut shard = ColumnarShard::with_chunk(4);
        // started_at = NaN survives as a Float cell.
        shard.push_doc(&obj! {
            "task_id" => "t0", "workflow_id" => "wf", "activity_id" => "a",
            "started_at" => f64::NAN,
        });
        // No telemetry → cpu_percent_end is a null cell.
        shard.push_doc(&doc("t1", "FINISHED", 2.0));
        let zero = Value::Float(0.0);
        let started = lookup("started_at").unwrap();
        let cpu = lookup("cpu_percent_end").unwrap();
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            let preds = vec![ColPredicate::Cmp(started, op, &zero)];
            assert_eq!(
                scan_kernels(&shard, &preds),
                scan_oracle(&shard, &preds),
                "NaN semantics for {op:?}"
            );
            let preds = vec![ColPredicate::Cmp(cpu, op, &zero)];
            assert_eq!(
                scan_kernels(&shard, &preds),
                scan_oracle(&shard, &preds),
                "null-cell semantics for {op:?}"
            );
        }
        // Null literal: only `!=` matches non-null cells.
        let null = Value::Null;
        for op in [CmpOp::Eq, CmpOp::Ne] {
            let preds = vec![ColPredicate::Cmp(started, op, &null)];
            assert_eq!(scan_kernels(&shard, &preds), scan_oracle(&shard, &preds));
        }
        // In-list containing null matches null cells.
        let list = [Value::Null, Value::Float(2.0)];
        let preds = vec![ColPredicate::In(cpu, &list)];
        assert_eq!(scan_kernels(&shard, &preds), scan_oracle(&shard, &preds));
    }

    #[test]
    fn zone_maps_prune_whole_chunks() {
        let mut shard = ColumnarShard::with_chunk(8);
        for i in 0..64 {
            shard.push_doc(&doc(&format!("t{i}"), "FINISHED", i as f64));
        }
        // Range predicate selecting only the last chunk's durations.
        let bound = Value::Float(59.5);
        let preds = [ColPredicate::Cmp(
            lookup("duration").unwrap(),
            CmpOp::Gt,
            &bound,
        )];
        let compiled = shard.compile(&preds);
        let pruned = (0..shard.n_chunks())
            .filter(|&c| shard.chunk_prunable(&compiled, c))
            .count();
        assert_eq!(pruned, 7, "all but the last chunk must be zone-pruned");
        // Eq on a late-appearing symbol prunes every earlier chunk via
        // code stability.
        let last = Value::from("t63");
        let preds = [ColPredicate::Cmp(
            lookup("task_id").unwrap(),
            CmpOp::Eq,
            &last,
        )];
        let compiled = shard.compile(&preds);
        assert!((0..7).all(|c| shard.chunk_prunable(&compiled, c)));
        assert!(!shard.chunk_prunable(&compiled, 7));
        assert_eq!(scan_kernels(&shard, &preds), vec![63]);
    }

    #[test]
    fn dictionary_codes_are_stable_and_first_appearance_ordered() {
        let mut shard = ColumnarShard::with_chunk(4);
        for s in ["ERROR", "FINISHED", "ERROR", "RUNNING"] {
            shard.push_doc(&doc(&format!("t-{s}"), s, 1.0));
        }
        let status = match lookup("status").unwrap() {
            ColField::Str(i) => i,
            _ => unreachable!(),
        };
        let dict: Vec<&str> = shard.dict(status).iter().map(Sym::as_str).collect();
        assert_eq!(dict, vec!["ERROR", "FINISHED", "RUNNING"]);
        assert_eq!(shard.str_codes(status), &[0, 1, 0, 2]);
    }
}
