//! Vectorized columnar sidecar for the document store — per-shard,
//! append-only, dictionary-encoded and chunked column vectors of the
//! scalar frame cells.
//!
//! PROV-AGENT-shaped corpora are queried over and over on a small set of
//! scalar fields (ids, status, timestamps, derived telemetry means) and on
//! the dataflow fields each activity's `used`/`generated` sections carry.
//! The sidecar stores those fields *as the query frame sees them*: each
//! vector entry is the value `DataFrame::from_messages` would put in the
//! corresponding frame cell for that document — i.e. the value obtained by
//! decoding the document with `TaskMessage::from_value` and flattening it
//! with the frame's row policy (defaults applied, `duration` derived,
//! telemetry means computed, dataflow leaves named). The executor
//! (`crate::exec`) can therefore evaluate `col op lit`, `col.isin([...])`
//! and `col.notna()`/`col.isna()` filters and build projected frames
//! straight from the vectors, with *frame* comparison semantics
//! ([`dataframe::cmp_matches`]), and only decode a surviving document when
//! a referenced column is not columnar.
//!
//! ## Columns
//!
//! A store-wide [`Registry`] names every column and gives it a
//! [`ColField`] id, the same in every shard, paged chunk and sealed
//! footer of the store:
//!
//! * **Fixed columns** (ids `0..FIXED`): the seven string and seven float
//!   hot fields ([`STR_FIELDS`], [`F64_FIELDS`]) and the lineage presence
//!   column `depends_on` ([`Kind::Flag`]): one bit per row, set exactly
//!   when `TaskMessage::from_value` yields a non-empty `depends_on` list.
//!   Its values are never served, only its presence (`notna`/`isna`).
//! * **Discovered columns** (ids from `FIXED` on): one per scalar
//!   `used`/`generated` leaf, named by [`dataframe::dataflow_cells`] — the
//!   helper the frame itself names them with — and typed by the first
//!   cell seen, [`Kind::F64`] or [`Kind::Str`]. A `Null` leaf is an absent
//!   cell. A leaf whose row name is a fixed column never creates a column
//!   (the poison rule below covers it). The registry takes at most
//!   [`MAX_DISCOVERED`] of them; a name first seen after that gets no
//!   column (the registry *overflows*) and, like every name it does not
//!   know, is served by decoding documents.
//! * **Row-key columns** (ids interleaved with the discovered ones, in
//!   a namespace of their own): one [`Kind::Flag`] column per frame
//!   column name that not every decodable row holds, set where the row's
//!   frame row holds the name — every dataflow leaf name whatever its
//!   value, and `tags.{k}`. `depends_on` and each telemetry section's
//!   columns need none: fixed columns record them ([`IMPLIED_KEYS`]). No
//!   scan filters on row keys; their zone counts and bits answer which
//!   columns the frame over the rows below a bound has
//!   ([`crate::DocumentStore::frame_columns`]). The registry takes at most
//!   [`MAX_ROW_KEYS`]; past that it overflows and lists nothing.
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
//!   truth table) once per shard and then compare integers. A paged cold
//!   chunk shares its segment footer's dictionary (one `Arc`), so paging
//!   re-interns nothing.
//! * **Chunk-sparse storage** — a column is stored chunk by chunk
//!   (fixed-size chunks of the store's `chunk_rows`, see
//!   [`crate::Config`]), and a chunk allocates its vector of a column only
//!   when the chunk's first present cell of it arrives (null-backfilled
//!   over the chunk's earlier rows, then null-padded for every later row
//!   lacking it). A chunk without a cell of a column holds nothing for it
//!   and reads as all-null, so keys that differ per task cost no vector
//!   per row, and a paged block adopts exactly the columns it holds.
//! * **Zone maps** — each chunk carries a [`Zone`] per column: per
//!   float column `min`/`max` over the finite present cells plus present
//!   and NaN counts, per string column `min`/`max` *code* plus a present
//!   count, per flag column a present count; and a per-chunk decodable
//!   count. Selective scans consult the zone maps first and skip whole
//!   chunks without touching a cell. Code stability is what makes the
//!   string zones sound: a chunk's `max_code` bounds every symbol the
//!   chunk can contain, so an equality literal first seen later than the
//!   chunk was written can never be inside it. Sealed segment footers
//!   carry these zones verbatim (see [`crate::segment`]).
//! * **Kernels** — a scan compiles its conjuncts once per shard
//!   ([`ColumnarShard::compile`]; once per paged cold chunk, which is a
//!   one-chunk shard of its own, see [`crate::pager`]) and evaluates each
//!   chunk with [`ColumnarShard::filter_chunk`]: the selection starts from
//!   the decodable rows of the chunk and each predicate shrinks it with a
//!   branch-light compaction pass. Fixed and discovered columns run
//!   through the same kernels, and a column chunk without a vector reads
//!   as all-null.
//!
//! ## Exactness contract
//!
//! For every document and every columnar field, [`ColumnarShard::value`]
//! must equal the cell `from_messages` produces (`Value::Null` standing in
//! for "the row does not provide the column"), and a document is marked
//! decodable exactly when `TaskMessage::from_value` succeeds — the oracle
//! drops undecodable documents, so the columnar path must too. The
//! compiled kernels must agree with [`dataframe::cmp_matches`] (and, for
//! `isin`, with [`dataframe::values_equal`] any-match; for the null tests,
//! with `Value::is_null`) on every cell, including null cells (`!=`
//! against a non-null literal matches a null cell) and NaN cells
//! (`Value::compare` calls mixed NaN comparisons `Equal`, so NaN matches
//! `!=`, `<=` and `>=`). Proptests in `tests/columnar_differential.rs` pin
//! this equivalence down over random documents — including corpora
//! straddling chunk boundaries, adversarial dictionaries and random
//! dataflow trees — by comparing against the decode oracle.
//!
//! Two escape hatches keep the contract honest on adversarial data:
//!
//! * **Poisoning** — a poisoned column stops advertising as columnar and
//!   queries referencing it fall back to document decoding (always
//!   correct, merely slower). Poison is store-wide and permanent, and a
//!   column is poisoned when
//!   - the frame's flatten policy lets a `used`/`generated` key shadow the
//!     bare column name of a non-protected telemetry mean
//!     (`gpu_percent_end`, `mem_used_mb_end`, see [`POISONABLE`]);
//!   - a discovered column sees a cell of another kind than its first:
//!     an `Int`, `Bool`, array or (empty) object leaf, or both `Float` and
//!     `Str` leaves under one name;
//!   - a dataflow leaf takes a name a row's telemetry or tags may set
//!     ([`dataframe::row_tail_column`]: `telemetry_at_end.disk.read_bytes`,
//!     `tags.k`, ...), which only the frame can resolve row by row.
//!
//!   A poisoned fixed column's vectors keep accumulating; a poisoned
//!   discovered column gets no further cell. Neither is consulted, and
//!   seals write none of their blocks.
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

use crate::document::PrehashedMap;
use dataframe::{cmp_matches, row_tail_column, values_equal, CmpOp};
use prov_model::{MessageType, Sym, TaskStatus, Value};
use std::cmp::Ordering;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

/// String-typed hot columns, in id order (ids `0..7`). All are frame
/// "common fields", so the flatten policy protects their bare names from
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

/// Float-typed hot columns, in id order (ids `7..14`): the Listing-1
/// timestamps and the derived `duration` — with the string fields, the
/// frame columns every decodable row holds ([`row_fields`]) — and the
/// derived scalar telemetry means.
pub(crate) const F64_FIELDS: [&str; 7] = [
    "started_at",
    "ended_at",
    "duration",
    "cpu_percent_start",
    "cpu_percent_end",
    "gpu_percent_end",
    "mem_used_mb_end",
];

/// The frame columns every decodable row holds, so the row-key catalog
/// never lists them: every string hot field and the first three float
/// ones.
pub(crate) fn row_fields() -> impl Iterator<Item = &'static str> {
    STR_FIELDS.iter().chain(&F64_FIELDS[..3]).copied()
}

/// The lineage presence column (id 14).
pub(crate) const DEPENDS_ON: &str = "depends_on";

/// Number of fixed columns; discovered columns take ids from here on.
pub(crate) const FIXED: usize = STR_FIELDS.len() + F64_FIELDS.len() + 1;

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

/// The cell type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    /// Dictionary-encoded strings.
    Str,
    /// Floats (NaN included).
    F64,
    /// Presence only: one bit per row, values never served.
    Flag,
}

impl Kind {
    /// On-disk tag (segment footers).
    pub(crate) fn tag(self) -> u8 {
        match self {
            Kind::Str => 0,
            Kind::F64 => 1,
            Kind::Flag => 2,
        }
    }

    /// Inverse of [`tag`](Self::tag).
    pub(crate) fn from_tag(t: u8) -> Option<Kind> {
        match t {
            0 => Some(Kind::Str),
            1 => Some(Kind::F64),
            2 => Some(Kind::Flag),
            _ => None,
        }
    }
}

/// A column id, assigned by the store's [`Registry`]: fixed columns first
/// (in [`STR_FIELDS`], [`F64_FIELDS`], [`DEPENDS_ON`] order), then
/// discovered columns in discovery order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct ColField(pub(crate) u32);

impl ColField {
    pub(crate) fn idx(self) -> usize {
        self.0 as usize
    }
}

/// Name and kind of fixed column `i`.
pub(crate) fn fixed_column(i: usize) -> (&'static str, Kind) {
    if i < STR_FIELDS.len() {
        (STR_FIELDS[i], Kind::Str)
    } else if i < STR_FIELDS.len() + F64_FIELDS.len() {
        (F64_FIELDS[i - STR_FIELDS.len()], Kind::F64)
    } else {
        debug_assert_eq!(i, FIXED - 1);
        (DEPENDS_ON, Kind::Flag)
    }
}

/// Resolve a fixed column name to its id.
pub(crate) fn lookup(name: &str) -> Option<ColField> {
    (0..FIXED)
        .find(|&i| fixed_column(i).0 == name)
        .map(|i| ColField(i as u32))
}

/// Bit of a fixed field in the store-level irregular/poison masks.
pub(crate) fn field_bit(f: ColField) -> u16 {
    debug_assert!(f.idx() < FIXED);
    1 << f.0
}

/// True when index probes on this field's document path are a valid
/// superset of frame matches (pass-through field, no irregular doc seen).
pub(crate) fn hint_safe(f: ColField, irregular_mask: u16) -> bool {
    f.idx() < FIXED
        && HINTABLE.contains(&fixed_column(f.idx()).0)
        && irregular_mask & field_bit(f) == 0
}

/// Discovered columns the catalog registers from ingested rows. A
/// dataflow name first seen once this many are registered gets no column
/// (the catalog *overflows*): like any name the catalog does not know, it
/// is served by decoding documents. This bounds the sidecar and every
/// segment footer when `used`/`generated` keys vary per task.
pub(crate) const MAX_DISCOVERED: usize = 64;

/// Frame columns the row-key catalog needs no record of, because a fixed
/// column records exactly which rows hold them: `depends_on` is the
/// lineage flag, and the columns of each telemetry section
/// ([`dataframe::telemetry_columns`]) are held exactly where the
/// section's derived CPU mean is — a name no dataflow leaf takes (the
/// frame prefixes it) and no poison reaches. A dataflow leaf named like a
/// telemetry column still gets a record of its own. Each entry names the
/// fixed column and what it implies: itself (`None`), or the columns of
/// the telemetry section `Some(end)` (as [`dataframe::telemetry_columns`]
/// takes it).
pub(crate) const IMPLIED_KEYS: [(&str, Option<bool>); 3] = [
    (DEPENDS_ON, None),
    ("cpu_percent_start", Some(false)),
    ("cpu_percent_end", Some(true)),
];

/// Row-key columns the catalog registers from ingested rows (see
/// [`Registry`]). A frame column name first seen once this many are
/// registered gets no record, and the catalog *overflows*: from then on
/// the store cannot list the frame's columns, and a whole-row answer
/// falls back to the oracle frame.
pub(crate) const MAX_ROW_KEYS: usize = 256;

/// The store's column catalog: every column's name, kind and poison
/// flag, indexed by [`ColField`]. Append-only: ids are never reused and a
/// poisoned column stays poisoned.
///
/// Beside the value columns it keeps the **row-key catalog**: one
/// presence-only column ([`Kind::Flag`]) per frame column name that not
/// every decodable row holds and no fixed column implies
/// ([`IMPLIED_KEYS`]) — every `used`/`generated` leaf name (`Null`, array
/// and object leaves and poisoned names included) and every `tags.{k}` —
/// with a bit set exactly where the row's frame row holds the name, even
/// with a `Null` value. Its names live in their own namespace (a dataflow
/// column `y` and the row key `y` are two columns), and no scan filters on
/// them; with the implied ones they answer which frame columns exist
/// below a snapshot bound ([`crate::DocumentStore::frame_columns`]).
#[derive(Clone)]
pub(crate) struct Registry {
    names: Vec<Sym>,
    kinds: Vec<Kind>,
    poisoned: Vec<bool>,
    /// Whether the column is a row-key column.
    key: Vec<bool>,
    by_name: HashMap<Sym, u32>,
    /// Row-key names, coded in registration order.
    keys: Dict,
    /// The column of each row-key code.
    key_cols: Vec<ColField>,
    /// Whether a dataflow name was dropped for want of room (see
    /// [`MAX_DISCOVERED`]); sealed into every footer.
    overflowed: bool,
    /// Whether a row key was dropped for want of room (see
    /// [`MAX_ROW_KEYS`]); sealed into every footer.
    keys_overflowed: bool,
}

impl Default for Registry {
    fn default() -> Self {
        let mut reg = Registry {
            names: Vec::new(),
            kinds: Vec::new(),
            poisoned: Vec::new(),
            key: Vec::new(),
            by_name: HashMap::new(),
            keys: Dict::default(),
            key_cols: Vec::new(),
            overflowed: false,
            keys_overflowed: false,
        };
        for i in 0..FIXED {
            let (name, kind) = fixed_column(i);
            reg.insert(Sym::from(name), kind);
        }
        reg
    }
}

impl Registry {
    /// Number of columns.
    pub(crate) fn len(&self) -> usize {
        self.names.len()
    }

    pub(crate) fn name(&self, f: ColField) -> &Sym {
        &self.names[f.idx()]
    }

    pub(crate) fn kind(&self, f: ColField) -> Kind {
        self.kinds[f.idx()]
    }

    pub(crate) fn is_poisoned(&self, f: ColField) -> bool {
        self.poisoned[f.idx()]
    }

    /// Whether `f` is a row-key column.
    pub(crate) fn is_key(&self, f: ColField) -> bool {
        self.key[f.idx()]
    }

    /// Discovered value columns registered.
    fn discovered(&self) -> usize {
        self.names.len() - FIXED - self.key_cols.len()
    }

    /// Every row-key column with its frame column name.
    pub(crate) fn row_keys(&self) -> impl Iterator<Item = (&Sym, ColField)> + '_ {
        self.keys.syms().iter().zip(self.key_cols.iter().copied())
    }

    /// The id of `name`, poisoned or not.
    pub(crate) fn get(&self, name: &str) -> Option<ColField> {
        self.by_name.get(name).map(|&i| ColField(i))
    }

    fn insert(&mut self, name: Sym, kind: Kind) -> ColField {
        let id = self.names.len() as u32;
        self.by_name.insert(name.clone(), id);
        self.push_column(name, kind, false)
    }

    fn push_column(&mut self, name: Sym, kind: Kind, key: bool) -> ColField {
        self.names.push(name);
        self.kinds.push(kind);
        self.poisoned.push(false);
        self.key.push(key);
        ColField(self.names.len() as u32 - 1)
    }

    /// The row-key column of frame column `name`, registering it if new.
    pub(crate) fn bind_key(&mut self, name: &Sym) -> ColField {
        match self.keys.code_of(name) {
            Some(k) => self.key_cols[k as usize],
            None => {
                self.keys.add(name.clone());
                let f = self.push_column(name.clone(), Kind::Flag, true);
                self.key_cols.push(f);
                f
            }
        }
    }

    pub(crate) fn poison(&mut self, f: ColField) {
        self.poisoned[f.idx()] = true;
    }

    /// Whether some row held a dataflow name the catalog had no room
    /// for.
    pub(crate) fn overflowed(&self) -> bool {
        self.overflowed
    }

    /// Note an overflow recorded elsewhere (a sealed footer's).
    pub(crate) fn set_overflowed(&mut self) {
        self.overflowed = true;
    }

    /// Whether some row held a frame column name the row-key catalog had
    /// no room for.
    pub(crate) fn keys_overflowed(&self) -> bool {
        self.keys_overflowed
    }

    /// Note a row-key overflow recorded elsewhere (a sealed footer's).
    pub(crate) fn set_keys_overflowed(&mut self) {
        self.keys_overflowed = true;
    }

    /// The id of column `name` of kind `kind`, registering it if new. A
    /// known column of another kind is poisoned.
    pub(crate) fn bind(&mut self, name: &Sym, kind: Kind) -> ColField {
        match self.get(name) {
            Some(f) => {
                if self.kind(f) != kind {
                    self.poison(f);
                }
                f
            }
            None => self.insert(name.clone(), kind),
        }
    }

    /// Fold one extracted row into the catalog: apply its fixed-column
    /// poison bits, turn its named dataflow cells into column cells,
    /// registering new columns (while there is room) and poisoning on a
    /// kind conflict, and turn its row keys into presence bits. A cell of
    /// a poisoned column, under a fixed column's name, or under a name the
    /// full catalog cannot take, is dropped.
    pub(crate) fn resolve(&mut self, row: &mut ExtractedRow) {
        for name in row.keys.drain(..) {
            let f = match self.keys.code_of(&name) {
                Some(k) => self.key_cols[k as usize],
                None if self.key_cols.len() >= MAX_ROW_KEYS => {
                    self.keys_overflowed = true;
                    continue;
                }
                None => self.bind_key(&name),
            };
            row.cells.push((f, Cell::Flag));
        }
        for i in 0..FIXED {
            if row.report.poison & (1 << i) != 0 {
                self.poison(ColField(i as u32));
            }
        }
        for (name, cell) in row.dataflow.drain(..) {
            let f = match self.get(&name) {
                Some(f) if f.idx() < FIXED => continue,
                Some(f) => f,
                None if self.discovered() >= MAX_DISCOVERED => {
                    self.overflowed = true;
                    continue;
                }
                // A first sighting of no servable kind is poisoned below.
                None => self.insert(name, cell.as_ref().map_or(Kind::F64, Cell::kind)),
            };
            match cell {
                Some(c) if c.kind() == self.kind(f) => {
                    if !self.is_poisoned(f) {
                        row.cells.push((f, c));
                    }
                }
                _ => self.poison(f),
            }
        }
    }
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
/// executor: a comparison, an in-list membership test or a null test.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ColPredicate<'a> {
    /// `column op literal` under [`cmp_matches`] semantics.
    Cmp(ColField, CmpOp, &'a Value),
    /// `column.isin(list)` under [`values_equal`] any-match semantics.
    In(ColField, &'a [Value]),
    /// `column.notna()` (`true`) or `column.isna()` (`false`).
    Present(ColField, bool),
}

impl ColPredicate<'_> {
    pub(crate) fn field(&self) -> ColField {
        match self {
            ColPredicate::Cmp(f, ..) | ColPredicate::In(f, _) | ColPredicate::Present(f, _) => *f,
        }
    }
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

/// A string dictionary: `code → Sym` in first-appearance order, plus the
/// reverse probe.
///
/// The reverse map is keyed on the symbol's *cached* content digest
/// (pass-through hasher) — a `HashMap<Sym, _>` would re-hash the string
/// bytes on every cell pushed, and encode runs once per cell per string
/// column on the materialize hot path. It maps each digest to the first
/// code seen with it, so a new symbol costs no allocation of its own; the
/// codes of later symbols whose digest collided are listed in `collided`.
/// Both are resolved by the content-equality probe (whose `Sym` pointer
/// fast path hits for interned repeats).
#[derive(Default, Clone)]
pub(crate) struct Dict {
    syms: Vec<Sym>,
    rev: PrehashedMap<u32>,
    collided: Vec<u32>,
}

impl Dict {
    /// A dictionary over `syms` (distinct symbols, code order).
    pub(crate) fn from_syms(syms: Vec<Sym>) -> Self {
        let mut d = Dict {
            syms: Vec::with_capacity(syms.len()),
            ..Dict::default()
        };
        for s in syms {
            d.add(s);
        }
        d
    }

    pub(crate) fn syms(&self) -> &[Sym] {
        &self.syms
    }

    pub(crate) fn len(&self) -> usize {
        self.syms.len()
    }

    fn add(&mut self, s: Sym) -> u32 {
        let c = self.syms.len() as u32;
        debug_assert!(c < NULL_CODE);
        match self.rev.entry(s.hash_u64()) {
            Entry::Vacant(e) => {
                e.insert(c);
            }
            Entry::Occupied(_) => self.collided.push(c),
        }
        self.syms.push(s);
        c
    }

    pub(crate) fn code_of(&self, s: &Sym) -> Option<u32> {
        let first = *self.rev.get(&s.hash_u64())?;
        std::iter::once(first)
            .chain(self.collided.iter().copied())
            .find(|&c| self.syms[c as usize] == *s)
    }

    fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.syms.capacity() * size_of::<Sym>()
            + self.rev.capacity() * size_of::<(u64, u32)>()
            + self.collided.capacity() * size_of::<u32>()
    }
}

/// The zone map of one chunk of one column (see module docs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Zone {
    /// Code interval of the present cells plus their count; an empty
    /// interval (`min > max`) means no present cell.
    Str {
        min_code: u32,
        max_code: u32,
        present: u32,
    },
    /// `min`/`max` over the finite present cells, plus present and NaN
    /// counts.
    F64 {
        min: f64,
        max: f64,
        present: u32,
        nan: u32,
    },
    /// Present cells.
    Flag { present: u32 },
}

impl Zone {
    /// The zone of a chunk with no present cell.
    pub(crate) fn empty(kind: Kind) -> Zone {
        match kind {
            Kind::Str => Zone::Str {
                min_code: u32::MAX,
                max_code: 0,
                present: 0,
            },
            Kind::F64 => Zone::F64 {
                min: f64::INFINITY,
                max: f64::NEG_INFINITY,
                present: 0,
                nan: 0,
            },
            Kind::Flag => Zone::Flag { present: 0 },
        }
    }

    pub(crate) fn present(&self) -> u32 {
        match *self {
            Zone::Str { present, .. } | Zone::F64 { present, .. } | Zone::Flag { present } => {
                present
            }
        }
    }

    fn note_code(&mut self, code: u32) {
        if let Zone::Str {
            min_code,
            max_code,
            present,
        } = self
        {
            *min_code = (*min_code).min(code);
            *max_code = (*max_code).max(code);
            *present += 1;
        }
    }

    fn note_f64(&mut self, x: f64) {
        if let Zone::F64 {
            min,
            max,
            present,
            nan,
        } = self
        {
            *present += 1;
            if x.is_nan() {
                *nan += 1;
            } else {
                *min = min.min(x);
                *max = max.max(x);
            }
        }
    }

    fn note_flag(&mut self) {
        if let Zone::Flag { present } = self {
            *present += 1;
        }
    }
}

/// The cells of one chunk of one column, chunk-relative.
#[derive(Clone)]
pub(crate) enum Cells {
    /// Codes (`NULL_CODE` for absent) into the column's dictionary.
    Str(Vec<u32>),
    /// `None` marks an absent cell.
    F64(Vec<Option<f64>>),
    /// Presence bits.
    Flag(Vec<bool>),
}

impl Cells {
    /// `rows` absent cells of `kind`.
    fn nulls(kind: Kind, rows: usize) -> Self {
        match kind {
            Kind::Str => Cells::Str(vec![NULL_CODE; rows]),
            Kind::F64 => Cells::F64(vec![None; rows]),
            Kind::Flag => Cells::Flag(vec![false; rows]),
        }
    }

    fn len(&self) -> usize {
        match self {
            Cells::Str(codes) => codes.len(),
            Cells::F64(v) => v.len(),
            Cells::Flag(b) => b.len(),
        }
    }

    fn push_null(&mut self) {
        match self {
            Cells::Str(codes) => codes.push(NULL_CODE),
            Cells::F64(v) => v.push(None),
            Cells::Flag(b) => b.push(false),
        }
    }

    fn is_present(&self, r: usize) -> bool {
        match self {
            Cells::Str(codes) => codes[r] != NULL_CODE,
            Cells::F64(v) => v[r].is_some(),
            Cells::Flag(b) => b[r],
        }
    }

    fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        match self {
            Cells::Str(codes) => codes.capacity() * size_of::<u32>(),
            Cells::F64(v) => v.capacity() * size_of::<Option<f64>>(),
            Cells::Flag(b) => b.capacity(),
        }
    }
}

/// One chunk of one column: its cells (row `r` is the chunk's row `r`)
/// and its zone.
#[derive(Clone)]
pub(crate) struct ColChunk {
    pub(crate) cells: Cells,
    pub(crate) zone: Zone,
}

/// One column of a shard, stored chunk by chunk: a chunk holds a vector
/// only once it has a present cell of the column, so a column costs
/// nothing in the chunks that lack it. String chunks share the column's
/// one dictionary.
#[derive(Clone)]
pub(crate) struct Column {
    kind: Kind,
    /// The string dictionary (empty for other kinds).
    dict: Arc<Dict>,
    /// By chunk; `None`, or past the end, for a chunk without a present
    /// cell.
    chunks: Vec<Option<ColChunk>>,
    present: usize,
}

impl Column {
    fn new(kind: Kind) -> Self {
        Column {
            kind,
            dict: Arc::default(),
            chunks: Vec::new(),
            present: 0,
        }
    }

    /// A one-chunk column adopted whole (a paged column block): `dict` is
    /// the footer's, the zone and present count the footer directory's.
    pub(crate) fn from_chunk(kind: Kind, dict: Arc<Dict>, cells: Cells, zone: Zone) -> Self {
        Column {
            kind,
            dict,
            present: zone.present() as usize,
            chunks: vec![Some(ColChunk { cells, zone })],
        }
    }

    /// Chunk `c` of the column, if it holds a present cell.
    pub(crate) fn chunk(&self, c: usize) -> Option<&ColChunk> {
        self.chunks.get(c).and_then(Option::as_ref)
    }

    /// Chunk `c`'s zone; empty for a chunk without a present cell.
    fn zone(&self, c: usize) -> Zone {
        self.chunk(c).map_or(Zone::empty(self.kind), |ch| ch.zone)
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
        col: ColField,
        test: StrTest,
        null_matches: bool,
    },
    /// Float-column predicate.
    F64 {
        col: ColField,
        test: F64Test,
        null_matches: bool,
    },
    /// Null test: keep rows whose cell is present (`true`) or absent.
    Present { col: ColField, want: bool },
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
    /// with real [`cmp_matches`] over the dictionary (empty when compiled
    /// for zone pruning only, which never reads it).
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

/// What [`compile_pred`] needs to know about the predicate's column in
/// the shard (or footer) it compiles against: `None` when that source
/// holds no cell of the column.
pub(crate) enum ColSource<'a> {
    Str(&'a Dict),
    F64,
    Flag,
}

/// Compile one conjunct against one source's dictionaries. `tables`
/// builds the per-code truth table of an ordering comparison over
/// strings; zone pruning compiles without it (zones never read it).
pub(crate) fn compile_pred(
    p: &ColPredicate<'_>,
    source: Option<ColSource<'_>>,
    tables: bool,
) -> ShardPred {
    let f = p.field();
    let Some(source) = source else {
        // Every cell is null here.
        let null_matches = match *p {
            ColPredicate::Cmp(_, op, lit) => op == CmpOp::Ne && !lit.is_null(),
            ColPredicate::In(_, list) => list.iter().any(Value::is_null),
            ColPredicate::Present(_, want) => !want,
        };
        return if null_matches {
            ShardPred::Always
        } else {
            ShardPred::Never
        };
    };
    match *p {
        ColPredicate::Present(_, want) => ShardPred::Present { col: f, want },
        ColPredicate::Cmp(_, op, lit) => {
            // `cmp_matches` with a null literal: `!=` is true unless the
            // cell is also null; every other op is false.
            if lit.is_null() {
                return match (op, &source) {
                    (CmpOp::Ne, ColSource::Str(_)) => ShardPred::Str {
                        col: f,
                        test: StrTest::Const(true),
                        null_matches: false,
                    },
                    (CmpOp::Ne, ColSource::F64) => ShardPred::F64 {
                        col: f,
                        test: F64Test::Const(true),
                        null_matches: false,
                    },
                    (CmpOp::Ne, ColSource::Flag) => ShardPred::Present { col: f, want: true },
                    _ => ShardPred::Never,
                };
            }
            // Null cell vs non-null literal: only `!=` matches.
            let null_matches = matches!(op, CmpOp::Ne);
            match source {
                ColSource::Str(dict) => {
                    let test = match (op, lit.as_sym()) {
                        (CmpOp::Eq, Some(s)) => StrTest::EqCode(dict.code_of(s)),
                        (CmpOp::Ne, Some(s)) => StrTest::NeCode(dict.code_of(s)),
                        (_, Some(_)) if tables => {
                            // Ordering op over strings: one `cmp_matches`
                            // per distinct symbol.
                            StrTest::Table(
                                dict.syms()
                                    .iter()
                                    .map(|s| cmp_matches(&Value::Str(s.clone()), op, lit))
                                    .collect(),
                            )
                        }
                        (_, Some(_)) => StrTest::Table(Vec::new()),
                        (_, None) => {
                            // Non-string literal: `Value::compare` falls
                            // back to kind tags, so every present cell gets
                            // the same verdict.
                            let probe = Value::Str(Sym::from(""));
                            StrTest::Const(cmp_matches(&probe, op, lit))
                        }
                    };
                    match test {
                        StrTest::EqCode(None) if !null_matches => ShardPred::Never,
                        StrTest::Const(false) if !null_matches => ShardPred::Never,
                        StrTest::Const(true) if null_matches => ShardPred::Always,
                        test => ShardPred::Str {
                            col: f,
                            test,
                            null_matches,
                        },
                    }
                }
                ColSource::F64 => {
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
                            col: f,
                            test,
                            null_matches,
                        },
                    }
                }
                // Flag cells have no value to compare: never planned.
                ColSource::Flag => ShardPred::Never,
            }
        }
        ColPredicate::In(_, list) => {
            // `values_equal(Null, x)` holds only for a null x, so a null
            // cell matches exactly when the list contains null.
            let null_matches = list.iter().any(Value::is_null);
            match source {
                ColSource::Str(dict) => {
                    let mut codes: Vec<u32> = list
                        .iter()
                        .filter_map(Value::as_sym)
                        .filter_map(|s| dict.code_of(s))
                        .collect();
                    codes.sort_unstable();
                    codes.dedup();
                    if codes.is_empty() && !null_matches {
                        ShardPred::Never
                    } else {
                        ShardPred::Str {
                            col: f,
                            test: StrTest::InCodes(codes),
                            null_matches,
                        }
                    }
                }
                ColSource::F64 => {
                    // Only numeric list entries can equal a Float cell
                    // (`values_equal` coerces Int, nothing else); a NaN
                    // entry never equals anything.
                    let lits: Vec<f64> = list.iter().filter_map(Value::as_f64).collect();
                    if lits.is_empty() && !null_matches {
                        ShardPred::Never
                    } else {
                        ShardPred::F64 {
                            col: f,
                            test: F64Test::In(lits),
                            null_matches,
                        }
                    }
                }
                ColSource::Flag => ShardPred::Never,
            }
        }
    }
}

impl ShardPred {
    /// Whether a null cell satisfies this predicate.
    fn null_matches(&self) -> bool {
        match self {
            ShardPred::Always => true,
            ShardPred::Never => false,
            ShardPred::Str { null_matches, .. } | ShardPred::F64 { null_matches, .. } => {
                *null_matches
            }
            ShardPred::Present { want, .. } => !want,
        }
    }

    /// The column whose zone decides this predicate, if any.
    fn field(&self) -> Option<ColField> {
        match self {
            ShardPred::Always | ShardPred::Never => None,
            ShardPred::Str { col, .. }
            | ShardPred::F64 { col, .. }
            | ShardPred::Present { col, .. } => Some(*col),
        }
    }

    /// Zone-map verdict: can a chunk of `rows` rows whose zone for this
    /// predicate's column is `z` be skipped (provably no matching row)?
    /// Conservative — `false` means "must evaluate", never "matches". The
    /// one zone test for resident chunks and sealed footers alike.
    pub(crate) fn zone_skips(&self, z: &Zone, rows: u32) -> bool {
        match (self, z) {
            (ShardPred::Always, _) => false,
            (ShardPred::Never, _) => true,
            (ShardPred::Present { want, .. }, z) => {
                if *want {
                    z.present() == 0
                } else {
                    z.present() >= rows
                }
            }
            (
                ShardPred::Str {
                    test, null_matches, ..
                },
                &Zone::Str {
                    min_code,
                    max_code,
                    present,
                },
            ) => {
                if *null_matches && present < rows {
                    return false;
                }
                let present_possible = match test {
                    StrTest::EqCode(None) => false,
                    StrTest::EqCode(Some(code)) => {
                        present > 0 && *code >= min_code && *code <= max_code
                    }
                    StrTest::NeCode(None) => present > 0,
                    StrTest::NeCode(Some(code)) => {
                        // Only provably all-equal when the interval is a
                        // single point at the literal's code.
                        present > 0 && !(min_code == *code && max_code == *code)
                    }
                    StrTest::InCodes(codes) => {
                        present > 0
                            && codes
                                .iter()
                                .any(|&code| code >= min_code && code <= max_code)
                    }
                    StrTest::Table(_) => present > 0,
                    StrTest::Const(b) => *b && present > 0,
                };
                !present_possible
            }
            (
                ShardPred::F64 {
                    test, null_matches, ..
                },
                &Zone::F64 {
                    min,
                    max,
                    present,
                    nan,
                },
            ) => {
                if *null_matches && present < rows {
                    return false;
                }
                let finite = present > nan;
                let present_possible = match test {
                    F64Test::Cmp(op, l) => {
                        // NaN cells compare `Equal` under `Value::compare`,
                        // so they match Ne/Le/Ge.
                        let nan_hit = nan > 0 && matches!(op, CmpOp::Ne | CmpOp::Le | CmpOp::Ge);
                        let finite_hit = finite
                            && match op {
                                CmpOp::Eq => *l >= min && *l <= max,
                                CmpOp::Ne => !(min == *l && max == *l),
                                CmpOp::Lt => min < *l,
                                CmpOp::Le => min <= *l,
                                CmpOp::Gt => max > *l,
                                CmpOp::Ge => max >= *l,
                            };
                        nan_hit || finite_hit
                    }
                    F64Test::In(lits) => finite && lits.iter().any(|l| *l >= min && *l <= max),
                    F64Test::Const(b) => *b && present > 0,
                };
                !present_possible
            }
            // A zone of another kind than the compiled test: stay
            // conservative.
            _ => false,
        }
    }
}

/// Column vectors of one document-store shard, indexed by [`ColField`]
/// and stored chunk by chunk (see the module docs for the layout).
#[derive(Clone)]
pub(crate) struct ColumnarShard {
    /// Rows per chunk (fixed for the shard's lifetime).
    chunk: usize,
    /// Whether `TaskMessage::from_value` succeeds on the slot's document.
    decodable: Vec<bool>,
    /// Decodable rows per chunk.
    chunk_decodable: Vec<u32>,
    /// By column id; `None` for a column this shard holds no cell of.
    cols: Vec<Option<Column>>,
    /// The columns holding a vector in the last chunk, which every row
    /// lacking them pads with a null.
    open: Vec<ColField>,
}

impl ColumnarShard {
    /// An empty shard of `chunk`-row chunks.
    pub(crate) fn with_chunk(chunk: usize) -> Self {
        Self {
            chunk: chunk.max(1),
            decodable: Vec::new(),
            chunk_decodable: Vec::new(),
            cols: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A one-chunk shard adopted whole from a decoded column block:
    /// `cols` holds each held column.
    pub(crate) fn from_chunk(
        chunk: usize,
        decodable: Vec<bool>,
        cols: Vec<(ColField, Column)>,
    ) -> Self {
        let n = decodable.iter().filter(|&&d| d).count() as u32;
        let mut by_id: Vec<Option<Column>> = Vec::new();
        for (f, col) in cols {
            if by_id.len() <= f.idx() {
                by_id.resize_with(f.idx() + 1, || None);
            }
            by_id[f.idx()] = Some(col);
        }
        Self {
            chunk: chunk.max(1),
            decodable,
            chunk_decodable: vec![n],
            cols: by_id,
            open: Vec::new(),
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

    /// Decodable rows of chunk `c`.
    pub(crate) fn chunk_decodable(&self, c: usize) -> u32 {
        self.chunk_decodable[c]
    }

    /// The column `f`, if this shard holds a cell of it.
    pub(crate) fn column(&self, f: ColField) -> Option<&Column> {
        self.cols.get(f.idx()).and_then(Option::as_ref)
    }

    /// The columns this shard holds cells of, by id.
    fn held(&self) -> impl Iterator<Item = (ColField, &Column)> + '_ {
        self.cols
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.as_ref().map(|c| (ColField(i as u32), c)))
    }

    /// The column `f`, the cells of `slot`'s chunk of it, and the slot's
    /// row in them.
    fn cells_at(&self, slot: usize, f: ColField) -> Option<(&Column, &Cells, usize)> {
        let col = self.column(f)?;
        let ch = col.chunk(slot / self.chunk)?;
        let r = slot % self.chunk;
        (r < ch.cells.len()).then_some((col, &ch.cells, r))
    }

    /// Non-absent entries of a field among the first `n` slots. Sums the
    /// per-chunk zone counts for whole chunks and scans only the one
    /// boundary chunk, so the cost is `O(n / chunk + chunk)`.
    pub(crate) fn present_prefix(&self, f: ColField, n: usize) -> usize {
        let Some(col) = self.column(f) else {
            return 0;
        };
        if n >= self.len() {
            return col.present;
        }
        let full = n / self.chunk;
        let whole: usize = (0..full).map(|c| col.zone(c).present() as usize).sum();
        // `Some(NaN)` counts as present.
        whole
            + (full * self.chunk..n)
                .filter(|&s| self.is_present(s, f))
                .count()
    }

    /// The dictionary of string column `f`.
    pub(crate) fn dict(&self, f: ColField) -> Option<&Arc<Dict>> {
        self.column(f)
            .filter(|c| c.kind == Kind::Str)
            .map(|c| &c.dict)
    }

    /// The code of `slot`'s cell of string column `f` (`NULL_CODE` when
    /// absent) and the dictionary it indexes; `None` when the shard holds
    /// no string column `f`. Exposed for code-based group-by.
    pub(crate) fn str_code(&self, slot: usize, f: ColField) -> Option<(u32, &Arc<Dict>)> {
        let dict = self.dict(f)?;
        let code = match self.cells_at(slot, f) {
            Some((_, Cells::Str(codes), r)) => codes[r],
            _ => NULL_CODE,
        };
        Some((code, dict))
    }

    /// Heap bytes held by this shard's vectors, dictionaries and zone
    /// maps (by capacity; interned symbol payloads are shared, so only
    /// their handles count, and a dictionary shared with a segment footer
    /// is not this shard's to count).
    pub(crate) fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let cols: usize = self
            .held()
            .map(|(_, c)| {
                let dict = if Arc::strong_count(&c.dict) == 1 {
                    c.dict.heap_bytes()
                } else {
                    0
                };
                let chunks: usize = c
                    .chunks
                    .iter()
                    .flatten()
                    .map(|ch| ch.cells.heap_bytes())
                    .sum();
                dict + chunks + c.chunks.capacity() * size_of::<Option<ColChunk>>()
            })
            .sum();
        size_of::<Self>()
            + self.decodable.capacity()
            + self.chunk_decodable.capacity() * size_of::<u32>()
            + self.cols.capacity() * size_of::<Option<Column>>()
            + self.open.capacity() * size_of::<ColField>()
            + cols
    }

    /// The frame cell for `(slot, field)`; `Null` when the row does not
    /// provide the column (or the document is undecodable). Flag columns
    /// hold no value and read as `Null`.
    pub(crate) fn value(&self, slot: usize, f: ColField) -> Value {
        match self.cells_at(slot, f) {
            Some((col, Cells::Str(codes), r)) if codes[r] != NULL_CODE => {
                Value::Str(col.dict.syms[codes[r] as usize].clone())
            }
            Some((_, Cells::F64(v), r)) => v[r].map_or(Value::Null, Value::Float),
            _ => Value::Null,
        }
    }

    /// Whether the slot's cell of `f` is present.
    fn is_present(&self, slot: usize, f: ColField) -> bool {
        self.cells_at(slot, f)
            .is_some_and(|(_, cells, r)| cells.is_present(r))
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
            ColPredicate::Present(f, want) => self.is_present(slot, *f) == *want,
        }
    }

    /// The last chunk's vector of column `f` of `kind`, created (with
    /// the column, on first use) and null-backfilled over the chunk's
    /// earlier rows when the chunk's first present cell arrives.
    fn open_chunk(&mut self, f: ColField, kind: Kind) -> &mut Column {
        if self.cols.len() <= f.idx() {
            self.cols.resize_with(f.idx() + 1, || None);
        }
        let slot = self.decodable.len();
        let (c, r) = (slot / self.chunk, slot % self.chunk);
        let col = self.cols[f.idx()].get_or_insert_with(|| Column::new(kind));
        debug_assert_eq!(col.kind, kind, "resolved cells match their column");
        if col.chunks.len() <= c {
            col.chunks.resize_with(c + 1, || None);
        }
        if col.chunks[c].is_none() {
            col.chunks[c] = Some(ColChunk {
                cells: Cells::nulls(kind, r),
                zone: Zone::empty(kind),
            });
            self.open.push(f);
        }
        col
    }

    /// Append one present cell of `f` to the row being pushed.
    fn push_cell(&mut self, f: ColField, cell: Cell) {
        let col = self.open_chunk(f, cell.kind());
        let c = col.chunks.len() - 1;
        col.present += 1;
        let ColChunk { cells, zone } = col.chunks[c].as_mut().expect("chunk opened");
        match (cell, cells) {
            (Cell::Str(s), Cells::Str(codes)) => {
                let code = match col.dict.code_of(&s) {
                    Some(code) => code,
                    None => Arc::make_mut(&mut col.dict).add(s),
                };
                codes.push(code);
                zone.note_code(code);
            }
            (Cell::F64(x), Cells::F64(vals)) => {
                vals.push(Some(x));
                zone.note_f64(x);
            }
            (Cell::Flag, Cells::Flag(bits)) => {
                bits.push(true);
                zone.note_flag();
            }
            _ => unreachable!("a cell lands in a column of its kind"),
        }
    }

    /// Append one pre-extracted row (must be called exactly once per
    /// document, in slot order, under the shard's write lock — extraction
    /// itself is pure and can run before any lock is taken). Only the
    /// row's present cells touch a column; named dataflow cells left
    /// unresolved ([`Registry::resolve`]) are dropped.
    pub(crate) fn push_row(&mut self, row: ExtractedRow) -> PushReport {
        let slot = self.decodable.len();
        if slot.is_multiple_of(self.chunk) {
            self.chunk_decodable.push(0);
            self.open.clear();
        }
        if row.decodable {
            *self.chunk_decodable.last_mut().expect("chunk opened") += 1;
        }
        for (i, v) in row.strs.into_iter().enumerate() {
            if let Some(s) = v {
                self.push_cell(ColField(i as u32), Cell::Str(s));
            }
        }
        for (i, v) in row.floats.into_iter().enumerate() {
            if let Some(x) = v {
                self.push_cell(ColField((STR_FIELDS.len() + i) as u32), Cell::F64(x));
            }
        }
        if row.depends_on {
            self.push_cell(ColField(FIXED as u32 - 1), Cell::Flag);
        }
        for (f, cell) in row.cells {
            self.push_cell(f, cell);
        }
        // Every open column the row did not provide reads null.
        let r = slot % self.chunk;
        for f in &self.open {
            let col = self.cols[f.idx()].as_mut().expect("open column");
            let cells = &mut col
                .chunks
                .last_mut()
                .and_then(Option::as_mut)
                .expect("open")
                .cells;
            if cells.len() == r {
                cells.push_null();
            }
        }
        self.decodable.push(row.decodable);
        row.report
    }

    /// Extract-and-append in one step, resolving the row's dataflow cells
    /// against `reg`.
    pub(crate) fn push_doc(&mut self, doc: &Value, reg: &mut Registry) -> PushReport {
        let mut row = extract(doc);
        reg.resolve(&mut row);
        self.push_row(row)
    }

    /// Chunk `c` of every column that holds one, in id order.
    pub(crate) fn chunk_cols(&self, c: usize) -> impl Iterator<Item = (ColField, &ColChunk)> + '_ {
        self.held()
            .filter_map(move |(f, col)| col.chunk(c).map(|ch| (f, ch)))
    }

    /// Compile scan conjuncts against this shard's dictionaries. The
    /// result evaluates every cell exactly like
    /// [`ColumnarShard::matches_pred`], but over integer codes.
    pub(crate) fn compile(&self, preds: &[ColPredicate<'_>]) -> Vec<ShardPred> {
        preds
            .iter()
            .map(|p| compile_pred(p, self.source(p.field()), true))
            .collect()
    }

    fn source(&self, f: ColField) -> Option<ColSource<'_>> {
        self.column(f).map(|c| match c.kind {
            Kind::Str => ColSource::Str(&c.dict),
            Kind::F64 => ColSource::F64,
            Kind::Flag => ColSource::Flag,
        })
    }

    /// True when the zone maps prove no row of chunk `c` can satisfy all
    /// predicates (the chunk-skip fast path).
    pub(crate) fn chunk_prunable(&self, preds: &[ShardPred], c: usize) -> bool {
        let (start, end) = self.chunk_span(c);
        let rows = (end - start) as u32;
        self.chunk_decodable[c] == 0
            || preds.iter().any(|p| match p.field() {
                // `Always`/`Never` decide without reading a zone.
                None => p.zone_skips(&Zone::Flag { present: 0 }, rows),
                Some(f) => self
                    .column(f)
                    .is_some_and(|col| p.zone_skips(&col.zone(c), rows)),
            })
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
            let cells = p
                .field()
                .and_then(|f| self.column(f)?.chunk(c))
                .map(|ch| &ch.cells);
            match (p, cells) {
                (ShardPred::Always, _) => continue,
                (ShardPred::Never, _) => {
                    sel.clear();
                    return;
                }
                // Every cell of the chunk is null.
                (p, None) => {
                    if p.null_matches() {
                        continue;
                    }
                    sel.clear();
                    return;
                }
                (ShardPred::Present { want, .. }, Some(cells)) => {
                    let want = *want;
                    retain_sel(sel, start, |r| cells.is_present(r) == want);
                }
                (
                    ShardPred::Str {
                        test, null_matches, ..
                    },
                    Some(Cells::Str(codes)),
                ) => filter_str(sel, start, codes, test, *null_matches),
                (
                    ShardPred::F64 {
                        test, null_matches, ..
                    },
                    Some(Cells::F64(vals)),
                ) => filter_f64(sel, start, vals, test, *null_matches),
                _ => unreachable!("predicates compile against their column's kind"),
            }
            if sel.is_empty() {
                return;
            }
        }
    }
}

fn filter_str(sel: &mut Vec<u32>, base: usize, codes: &[u32], test: &StrTest, nm: bool) {
    match test {
        StrTest::EqCode(code) => {
            let want = code.unwrap_or(NULL_CODE - 1);
            retain_sel(sel, base, |r| {
                let c = codes[r];
                if c == NULL_CODE {
                    nm
                } else {
                    c == want
                }
            });
        }
        StrTest::NeCode(code) => {
            // A null cell (`NULL_CODE`) differs from every real code, and
            // `!=` matches null cells against a non-null literal — one
            // compare covers both when `nm` holds. The compiled `nm` is
            // always true here, but stay exact.
            match code {
                Some(want) if nm => retain_sel(sel, base, |r| codes[r] != *want),
                Some(want) => retain_sel(sel, base, |r| {
                    let c = codes[r];
                    c != NULL_CODE && c != *want
                }),
                None => retain_sel(sel, base, |r| codes[r] != NULL_CODE || nm),
            }
        }
        StrTest::InCodes(want) => retain_sel(sel, base, |r| {
            let c = codes[r];
            if c == NULL_CODE {
                nm
            } else {
                want.binary_search(&c).is_ok()
            }
        }),
        StrTest::Table(table) => retain_sel(sel, base, |r| {
            let c = codes[r];
            if c == NULL_CODE {
                nm
            } else {
                table[c as usize]
            }
        }),
        StrTest::Const(b) => {
            let b = *b;
            retain_sel(sel, base, |r| if codes[r] == NULL_CODE { nm } else { b });
        }
    }
}

fn filter_f64(sel: &mut Vec<u32>, base: usize, vals: &[Option<f64>], test: &F64Test, nm: bool) {
    match test {
        F64Test::Cmp(op, l) => {
            let (op, l) = (*op, *l);
            retain_sel(sel, base, |r| match vals[r] {
                Some(x) => {
                    let ord = x.partial_cmp(&l).unwrap_or(Ordering::Equal);
                    op.test(ord, x == l)
                }
                None => nm,
            });
        }
        F64Test::In(lits) => retain_sel(sel, base, |r| match vals[r] {
            Some(x) => lits.contains(&x),
            None => nm,
        }),
        F64Test::Const(b) => {
            let b = *b;
            retain_sel(sel, base, |r| match vals[r] {
                Some(_) => b,
                None => nm,
            });
        }
    }
}

/// Branch-light in-place selection compaction: keep slot `sel[i]` when
/// the predicate holds for its chunk row `sel[i] - base`, preserving
/// order.
fn retain_sel(sel: &mut Vec<u32>, base: usize, mut keep: impl FnMut(usize) -> bool) {
    let mut n = 0usize;
    for i in 0..sel.len() {
        let s = sel[i];
        sel[n] = s;
        n += keep(s as usize - base) as usize;
    }
    sel.truncate(n);
}

/// A present cell: a string, a float, or a set presence bit (dataflow
/// cells are strings or floats).
#[derive(Debug, Clone)]
pub(crate) enum Cell {
    Str(Sym),
    F64(f64),
    /// A set presence bit.
    Flag,
}

impl Cell {
    fn kind(&self) -> Kind {
        match self {
            Cell::Str(_) => Kind::Str,
            Cell::F64(_) => Kind::F64,
            Cell::Flag => Kind::Flag,
        }
    }
}

/// One document's columnar cells, decoded to frame cells but not yet
/// appended to a shard — the pure half of ingest-time population,
/// computable outside every lock.
pub(crate) struct ExtractedRow {
    pub(crate) decodable: bool,
    pub(crate) strs: [Option<Sym>; STR_FIELDS.len()],
    pub(crate) floats: [Option<f64>; F64_FIELDS.len()],
    /// The `depends_on` presence bit.
    pub(crate) depends_on: bool,
    /// Dataflow cells by frame name; `None` for a leaf of no servable
    /// kind. [`Registry::resolve`] turns them into `cells`.
    pub(crate) dataflow: Vec<(Sym, Option<Cell>)>,
    /// The row's frame column names that need a row-key record — its
    /// dataflow leaf names and `tags.{k}` (see [`IMPLIED_KEYS`] for the
    /// rest) — each once. [`Registry::resolve`] turns them into row-key
    /// presence bits.
    pub(crate) keys: Vec<Sym>,
    /// Resolved dataflow cells and row-key bits.
    pub(crate) cells: Vec<(ColField, Cell)>,
    pub(crate) report: PushReport,
}

/// Decode one document's columnar cells into an [`ExtractedRow`] (see the
/// module docs for the exactness contract with `TaskMessage::from_value`
/// and the frame's row policy).
pub(crate) fn extract(doc: &Value) -> ExtractedRow {
    let mut report = PushReport::default();

    // Extraction runs once per ingested document, so gather every
    // top-level value it reads in a single pass over the sorted entries
    // instead of a binary search per field.
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
    let mut v_depends_on = None;
    let mut v_tags = None;
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
                "depends_on" => &mut v_depends_on,
                "tags" => &mut v_tags,
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
            depends_on: false,
            dataflow: Vec::new(),
            keys: Vec::new(),
            cells: Vec::new(),
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

    // Lineage: the decode keeps the array's string entries; the frame
    // holds the column only when that list is non-empty.
    let depends_on = v_depends_on
        .and_then(Value::as_array)
        .is_some_and(|a| a.iter().any(|v| v.as_sym().is_some()));

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

    // Dataflow cells, named by the frame's own rule. A name some row's
    // telemetry or tags may set is no dataflow column's to serve. Every
    // leaf, whatever its value, names a row key.
    let mut keys: Vec<Sym> = Vec::new();
    let mut tail_named = false;
    let empty = Value::Null;
    let dataflow =
        dataframe::dataflow_cells(v_used.unwrap_or(&empty), v_generated.unwrap_or(&empty))
            .into_iter()
            .filter_map(|(name, v)| {
                keys.push(name.clone());
                let cell = match v {
                    _ if row_tail_column(&name) => {
                        tail_named = true;
                        None
                    }
                    // A null leaf is an absent cell.
                    Value::Null => return None,
                    Value::Float(x) => Some(Cell::F64(x)),
                    Value::Str(s) => Some(Cell::Str(s)),
                    _ => None,
                };
                Some((name, cell))
            })
            .collect();
    // One column per tag (the other frame columns of the row's tail, and
    // `depends_on`, are implied by fixed columns: see `IMPLIED_KEYS`).
    if let Some(Value::Object(tags)) = v_tags {
        keys.extend(tags.keys().map(|k| Sym::from(format!("tags.{k}"))));
        // Only a dataflow leaf named like a tail column can repeat a name.
        if tail_named {
            keys.sort_unstable();
            keys.dedup();
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
        depends_on,
        dataflow,
        keys,
        cells: Vec::new(),
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
            assert_eq!(lookup(name), Some(ColField(i as u32)));
        }
        for (i, name) in F64_FIELDS.iter().enumerate() {
            assert_eq!(lookup(name), Some(ColField((STR_FIELDS.len() + i) as u32)));
        }
        assert_eq!(lookup(DEPENDS_ON), Some(ColField(FIXED as u32 - 1)));
        assert_eq!(lookup("y"), None);
        assert_eq!(lookup("used.status"), None);
    }

    #[test]
    fn field_bits_are_distinct() {
        let mut seen = 0u16;
        for name in STR_FIELDS
            .iter()
            .chain(F64_FIELDS.iter())
            .chain([&DEPENDS_ON])
        {
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
        let report = shard.push_doc(&doc, &mut Registry::default());
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
        assert_eq!(
            shard.present_prefix(lookup("cpu_percent_end").unwrap(), 1),
            0
        );
    }

    #[test]
    fn defaults_and_canonicalization_mark_irregular() {
        let mut shard = ColumnarShard::with_chunk(4096);
        let doc = obj! {
            "task_id" => "t", "workflow_id" => "wf", "activity_id" => "a",
            "status" => "finished", "started_at" => "not-a-number",
        };
        let report = shard.push_doc(&doc, &mut Registry::default());
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
        shard.push_doc(&obj! {"task_id" => "t-only"}, &mut Registry::default());
        assert!(!shard.is_decodable(0));
        assert_eq!(shard.value(0, lookup("task_id").unwrap()), Value::Null);
        assert_eq!(shard.present_prefix(lookup("task_id").unwrap(), 1), 0);
    }

    #[test]
    fn dataflow_shadow_poisons_unprotected_columns() {
        let mut shard = ColumnarShard::with_chunk(4096);
        let doc = obj! {
            "task_id" => "t", "workflow_id" => "wf", "activity_id" => "a",
            "generated" => obj! {"gpu_percent_end" => 99.0},
        };
        let report = shard.push_doc(&doc, &mut Registry::default());
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
        shard.push_doc(&doc, &mut Registry::default());
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
            shard.push_doc(
                &doc(&format!("t{i}"), status, i as f64),
                &mut Registry::default(),
            );
        }
        // Undecodable row in the middle of a chunk.
        shard.push_doc(&obj! {"task_id" => "broken"}, &mut Registry::default());
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
        shard.push_doc(
            &obj! {
                "task_id" => "t0", "workflow_id" => "wf", "activity_id" => "a",
                "started_at" => f64::NAN,
            },
            &mut Registry::default(),
        );
        // No telemetry → cpu_percent_end is a null cell.
        shard.push_doc(&doc("t1", "FINISHED", 2.0), &mut Registry::default());
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
            shard.push_doc(
                &doc(&format!("t{i}"), "FINISHED", i as f64),
                &mut Registry::default(),
            );
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
            shard.push_doc(&doc(&format!("t-{s}"), s, 1.0), &mut Registry::default());
        }
        let f = lookup("status").unwrap();
        let codes: Vec<u32> = (0..4).map(|s| shard.str_code(s, f).unwrap().0).collect();
        let dict: Vec<&str> = shard
            .dict(f)
            .unwrap()
            .syms()
            .iter()
            .map(Sym::as_str)
            .collect();
        assert_eq!(dict, vec!["ERROR", "FINISHED", "RUNNING"]);
        assert_eq!(codes, [0, 1, 0, 2]);
    }

    #[test]
    fn discovered_columns_take_frame_names_and_kinds() {
        use prov_model::TaskMessage;
        let mut shard = ColumnarShard::with_chunk(4);
        let mut reg = Registry::default();
        let docs = [
            obj! {
                "task_id" => "t0", "workflow_id" => "wf", "activity_id" => "a",
                "used" => obj! {"x" => 1.5, "n" => 3, "status" => "s", "tags" => obj! {"k" => 1.0}},
                "generated" => obj! {"x" => 2.5, "label" => "L", "empty" => Value::Null},
            },
            obj! {
                "task_id" => "t1", "workflow_id" => "wf", "activity_id" => "a",
                "used" => obj! {"x" => "late"},
                "generated" => obj! {"label" => "M", "nested" => obj! {"v" => 4.0}},
            },
        ];
        for d in &docs {
            shard.push_doc(d, &mut reg);
        }
        let col = |name: &str| reg.get(name).unwrap_or_else(|| panic!("{name} registered"));
        // Names are the frame's: the clash renames `generated.x`, the
        // common-field key becomes `used.status`, nesting dots.
        for name in ["generated.x", "label", "used.status", "nested.v"] {
            assert!(!reg.is_poisoned(col(name)), "{name}");
        }
        assert_eq!(reg.kind(col("label")), Kind::Str);
        // Kind conflicts, non-scalar leaves and tail-owned names poison.
        for name in ["x", "n", "tags.k"] {
            assert!(reg.is_poisoned(col(name)), "{name}");
        }
        // A null leaf is an absent cell, not a column.
        assert!(reg.get("empty").is_none());
        // Cells equal the frame's.
        let msgs: Vec<TaskMessage> = docs
            .iter()
            .map(|d| TaskMessage::from_value(d).unwrap())
            .collect();
        let frame = dataframe::DataFrame::from_messages(&msgs);
        for name in ["generated.x", "label", "used.status", "nested.v"] {
            for r in 0..2 {
                assert_eq!(
                    shard.value(r, col(name)),
                    frame.column(name).unwrap().values()[r],
                    "{name} row {r}"
                );
            }
        }
    }

    #[test]
    fn depends_on_presence_matches_decode() {
        use prov_model::{arr, TaskMessage};
        let mut shard = ColumnarShard::with_chunk(4);
        let mut reg = Registry::default();
        let shapes = [
            None,
            Some(arr![]),
            Some(arr!["t0"]),
            Some(arr![1, "t1"]),
            Some(arr![1, 2]),
            Some(Value::from("t0")),
        ];
        for (i, deps) in shapes.iter().enumerate() {
            let mut d = obj! {
                "task_id" => format!("t{i}"), "workflow_id" => "wf", "activity_id" => "a",
            };
            if let Some(deps) = deps {
                d.insert("depends_on", deps.clone());
            }
            let want = !TaskMessage::from_value(&d).unwrap().depends_on.is_empty();
            shard.push_doc(&d, &mut reg);
            let f = lookup(DEPENDS_ON).unwrap();
            assert_eq!(
                shard.matches_pred(i, &ColPredicate::Present(f, true)),
                want,
                "{deps:?}"
            );
        }
        let f = lookup(DEPENDS_ON).unwrap();
        for want in [true, false] {
            let preds = [ColPredicate::Present(f, want)];
            assert_eq!(scan_kernels(&shard, &preds), scan_oracle(&shard, &preds));
        }
    }
}
