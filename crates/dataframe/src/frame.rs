//! The DataFrame: an ordered collection of equal-length named columns.
//!
//! This is the substrate behind the agent's in-memory context (§5.1): recent
//! task provenance messages are buffered as rows, and LLM-generated queries
//! execute against it.

use crate::agg::AggFunc;
use crate::column::Column;
use crate::dtype::DType;
use crate::expr::Expr;
use crate::groupby::GroupBy;
use prov_model::{Map, Sym, TaskMessage, Value};
use std::collections::HashMap;

/// Errors raised by DataFrame operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Referenced column does not exist; carries the available columns.
    UnknownColumn {
        /// The missing column name.
        name: String,
        /// Columns that do exist (for error messages and LLM feedback).
        available: Vec<String>,
    },
    /// Columns passed to a constructor had inconsistent lengths.
    LengthMismatch {
        /// Expected row count.
        expected: usize,
        /// Offending column name.
        column: String,
        /// Its actual length.
        actual: usize,
    },
    /// Operation requires a numeric column.
    NotNumeric(String),
    /// Operation is invalid on an empty frame.
    Empty,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::UnknownColumn { name, available } => {
                write!(f, "unknown column '{name}'; available: {available:?}")
            }
            FrameError::LengthMismatch {
                expected,
                column,
                actual,
            } => write!(
                f,
                "column '{column}' has {actual} rows, expected {expected}"
            ),
            FrameError::NotNumeric(c) => write!(f, "column '{c}' is not numeric"),
            FrameError::Empty => write!(f, "operation invalid on an empty DataFrame"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Result alias for frame operations.
pub type FrameResult<T> = Result<T, FrameError>;

/// An ordered, named, equal-length collection of columns.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DataFrame {
    pub(crate) columns: Vec<Column>,
    pub(crate) index: HashMap<String, usize>,
    pub(crate) rows: usize,
}

impl DataFrame {
    /// An empty frame (no rows, no columns).
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from `(name, values)` pairs; all lengths must agree.
    pub fn from_columns(cols: Vec<(impl Into<String>, Vec<Value>)>) -> FrameResult<Self> {
        Self::build_from_columns(cols, None)
    }

    /// Build from `(name, values)` pairs with an explicit row count.
    ///
    /// Unlike [`from_columns`], a zero-width frame keeps `rows` rows — the
    /// shape a projected scan needs when a pipeline observes only the row
    /// count (`len(df[...])`) and no column has to be materialized at all.
    ///
    /// [`from_columns`]: DataFrame::from_columns
    pub fn from_columns_with_rows(
        cols: Vec<(impl Into<String>, Vec<Value>)>,
        rows: usize,
    ) -> FrameResult<Self> {
        Self::build_from_columns(cols, Some(rows))
    }

    fn build_from_columns(
        cols: Vec<(impl Into<String>, Vec<Value>)>,
        rows: Option<usize>,
    ) -> FrameResult<Self> {
        let mut df = DataFrame::new();
        let mut expected = rows;
        for (name, values) in cols {
            let name = name.into();
            let n = values.len();
            match expected {
                None => expected = Some(n),
                Some(e) if e != n => {
                    return Err(FrameError::LengthMismatch {
                        expected: e,
                        column: name,
                        actual: n,
                    })
                }
                _ => {}
            }
            df.insert_column(Column::new(name, values));
        }
        df.rows = expected.unwrap_or(0);
        Ok(df)
    }

    /// Build from row maps; the column set is the union of keys, with nulls
    /// filling gaps.
    pub fn from_rows(rows: &[Map]) -> Self {
        let mut df = DataFrame::new();
        for row in rows {
            df.push_row(row);
        }
        df
    }

    /// Build from task provenance messages (one row per message).
    ///
    /// Flattening policy (documented for schema stability):
    /// * common fields keep their names (`task_id`, `activity_id`, ...);
    /// * `duration` is computed as `ended_at - started_at`;
    /// * children of `used`/`generated` are flattened with their bare dotted
    ///   names (`bd_energy`, `frags.label`); on a cross-section name clash
    ///   the later column gets a `used.`/`generated.` prefix;
    /// * telemetry keeps fully qualified dotted names plus derived scalar
    ///   means `cpu_percent_start`, `cpu_percent_end`, `gpu_percent_end`,
    ///   `mem_used_mb_end`.
    ///
    /// Column order: by the first row whose flattened map holds the key
    /// (even with a `Null` value), then by key byte order among columns
    /// first held by the same row. [`MessageWindow`](crate::MessageWindow)
    /// keeps exactly this order across evictions.
    pub fn from_messages<'a>(messages: impl IntoIterator<Item = &'a TaskMessage>) -> Self {
        let mut df = DataFrame::new();
        for m in messages {
            df.push_message(m);
        }
        df
    }

    /// Append one message as a row (incremental form of [`from_messages`]).
    ///
    /// [`from_messages`]: DataFrame::from_messages
    pub fn push_message(&mut self, m: &TaskMessage) {
        self.push_cells(message_row(m), |_| {});
    }

    /// Build a frame containing only the named columns of each message —
    /// the projected-scan constructor behind index pushdown: the store
    /// hands over the surviving documents and the referenced column
    /// subset, and only that subset is materialized. Flattening and
    /// naming policy are exactly [`from_messages`]' (the rows are built by
    /// the same code and then pruned), so a projected frame agrees
    /// value-for-value with the corresponding columns of a full frame.
    ///
    /// A requested column that no message provides is absent from the
    /// result (as in [`from_messages`]); callers needing corpus-wide
    /// column-existence semantics must check `has_column` and fall back.
    ///
    /// [`from_messages`]: DataFrame::from_messages
    pub fn from_messages_projected<'a>(
        messages: impl IntoIterator<Item = &'a TaskMessage>,
        columns: &[String],
    ) -> Self {
        let mut df = DataFrame::new();
        for m in messages {
            let mut row = message_row(m);
            row.retain(|k, _| columns.iter().any(|c| c == k.as_str()));
            df.push_cells(row, |_| {});
        }
        df
    }

    /// Append one row map; unseen keys create new null-backfilled columns.
    pub fn push_row(&mut self, row: &Map) {
        self.push_cells(row.clone(), |_| {});
    }

    /// Append one row, moving each cell into its column: a key that names
    /// no column yet creates a null-backfilled one at the end (so new
    /// columns follow the row's key order), and every column the row does
    /// not hold gets a null. Calls `held` with the position of each column
    /// the row holds, in the row's key order; a new column is reported as
    /// it is created, so its position is always the next one.
    pub(crate) fn push_cells(&mut self, row: Map, mut held: impl FnMut(usize)) {
        let rows = self.rows;
        for (key, value) in row {
            let i = match self.index.get(key.as_str()) {
                Some(&i) => i,
                None => {
                    self.insert_column(Column::new(key.as_str(), vec![Value::Null; rows]));
                    self.columns.len() - 1
                }
            };
            held(i);
            self.columns[i].push(value);
        }
        for c in &mut self.columns {
            if c.len() == rows {
                c.push(Value::Null);
            }
        }
        self.rows += 1;
    }

    fn insert_column(&mut self, col: Column) {
        self.index
            .insert(col.name().to_string(), self.columns.len());
        self.columns.push(col);
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.columns.len()
    }

    /// Column names in order.
    pub fn column_names(&self) -> Vec<&str> {
        self.columns.iter().map(Column::name).collect()
    }

    /// Look up a column by name.
    pub fn column(&self, name: &str) -> Option<&Column> {
        self.index.get(name).map(|&i| &self.columns[i])
    }

    /// Column lookup returning a descriptive error on miss.
    pub fn column_checked(&self, name: &str) -> FrameResult<&Column> {
        self.column(name).ok_or_else(|| FrameError::UnknownColumn {
            name: name.to_string(),
            available: self.column_names().iter().map(|s| s.to_string()).collect(),
        })
    }

    /// True when the column exists.
    pub fn has_column(&self, name: &str) -> bool {
        self.index.contains_key(name)
    }

    /// Project onto a subset of columns (order follows `names`).
    pub fn select(&self, names: &[&str]) -> FrameResult<DataFrame> {
        let mut df = DataFrame::new();
        for &n in names {
            let c = self.column_checked(n)?;
            df.insert_column(c.clone());
        }
        df.rows = self.rows;
        Ok(df)
    }

    /// Keep rows where the expression is truthy.
    pub fn filter(&self, predicate: &Expr) -> DataFrame {
        self.filter_mask(&predicate.mask(self))
    }

    /// Keep rows where `mask` is true.
    pub fn filter_mask(&self, mask: &[bool]) -> DataFrame {
        let mut df = DataFrame::new();
        for c in &self.columns {
            df.insert_column(c.filter(mask));
        }
        df.rows = mask.iter().filter(|&&m| m).count();
        df
    }

    /// Take rows by index.
    pub fn take(&self, indices: &[usize]) -> DataFrame {
        let mut df = DataFrame::new();
        for c in &self.columns {
            df.insert_column(c.take(indices));
        }
        df.rows = indices.len();
        df
    }

    /// First `n` rows.
    pub fn head(&self, n: usize) -> DataFrame {
        let idx: Vec<usize> = (0..self.rows.min(n)).collect();
        self.take(&idx)
    }

    /// Last `n` rows.
    pub fn tail(&self, n: usize) -> DataFrame {
        let start = self.rows.saturating_sub(n);
        let idx: Vec<usize> = (start..self.rows).collect();
        self.take(&idx)
    }

    /// Stable multi-key sort. Each key is `(column, ascending)`.
    pub fn sort_values(&self, keys: &[(&str, bool)]) -> FrameResult<DataFrame> {
        for (k, _) in keys {
            self.column_checked(k)?;
        }
        let mut idx: Vec<usize> = (0..self.rows).collect();
        idx.sort_by(|&a, &b| {
            for (kname, asc) in keys {
                let c = self.column(kname).expect("validated above");
                let va = c.get(a).expect("row in range");
                let vb = c.get(b).expect("row in range");
                let ord = sort_cell_cmp(va, vb, *asc);
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        Ok(self.take(&idx))
    }

    /// Drop duplicate rows considering `subset` columns (all when empty).
    pub fn drop_duplicates(&self, subset: &[&str]) -> FrameResult<DataFrame> {
        let cols: Vec<&Column> = if subset.is_empty() {
            self.columns.iter().collect()
        } else {
            subset
                .iter()
                .map(|n| self.column_checked(n))
                .collect::<FrameResult<_>>()?
        };
        let mut seen: Vec<Vec<&Value>> = Vec::new();
        let mut keep = Vec::with_capacity(self.rows);
        for row in 0..self.rows {
            let key: Vec<&Value> = cols.iter().map(|c| c.get(row).expect("in range")).collect();
            if seen.contains(&key) {
                keep.push(false);
            } else {
                seen.push(key);
                keep.push(true);
            }
        }
        Ok(self.filter_mask(&keep))
    }

    /// Add (or replace) a column computed from an expression.
    pub fn with_column(&self, name: impl Into<String>, expr: &Expr) -> DataFrame {
        let name = name.into();
        let values: Vec<Value> = (0..self.rows).map(|i| expr.eval(self, i)).collect();
        let mut df = self.clone();
        if let Some(&i) = df.index.get(&name) {
            df.columns[i] = Column::new(name, values);
        } else {
            df.insert_column(Column::new(name, values));
        }
        df
    }

    /// Aggregate one column.
    pub fn agg(&self, column: &str, func: AggFunc) -> FrameResult<Value> {
        Ok(self.column_checked(column)?.agg(func))
    }

    /// Group rows by key columns.
    pub fn groupby(&self, keys: &[&str]) -> FrameResult<GroupBy<'_>> {
        GroupBy::new(self, keys)
    }

    /// Distinct values of one column.
    pub fn unique(&self, column: &str) -> FrameResult<Vec<Value>> {
        Ok(self.column_checked(column)?.unique())
    }

    /// Value counts of a column, descending, as a `(value, count)` frame.
    pub fn value_counts(&self, column: &str) -> FrameResult<DataFrame> {
        let c = self.column_checked(column)?;
        // Hash-bucketed counting (equality-confirmed, like group-by): the
        // stable hash unifies Int/Float of equal value where `Value`
        // equality does not, so buckets may hold several distinct values.
        let mut counts: Vec<(Value, i64)> = Vec::new();
        let mut buckets: HashMap<u64, Vec<usize>> = HashMap::new();
        for v in c.values() {
            if v.is_null() {
                continue;
            }
            let bucket = buckets.entry(v.stable_hash()).or_default();
            match bucket.iter().find(|&&i| &counts[i].0 == v) {
                Some(&i) => counts[i].1 += 1,
                None => {
                    bucket.push(counts.len());
                    counts.push((v.clone(), 1));
                }
            }
        }
        counts.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.compare(&b.0)));
        DataFrame::from_columns(vec![
            (
                column.to_string(),
                counts.iter().map(|(v, _)| v.clone()).collect(),
            ),
            (
                "count".to_string(),
                counts.iter().map(|(_, n)| Value::Int(*n)).collect(),
            ),
        ])
    }

    /// One row as a key→value map.
    pub fn row(&self, idx: usize) -> Option<Map> {
        if idx >= self.rows {
            return None;
        }
        let mut m = Map::new();
        for c in &self.columns {
            m.insert(
                Sym::from(c.name()),
                c.get(idx).cloned().unwrap_or(Value::Null),
            );
        }
        Some(m)
    }

    /// Iterate rows as maps.
    pub fn iter_rows(&self) -> impl Iterator<Item = Map> + '_ {
        (0..self.rows).filter_map(|i| self.row(i))
    }

    /// Vertical concatenation; the column set becomes the union.
    pub fn concat(&self, other: &DataFrame) -> DataFrame {
        let mut df = self.clone();
        for row in other.iter_rows() {
            df.push_row(&row);
        }
        df
    }

    /// `(column, dtype)` pairs, the raw material of the dataflow schema.
    pub fn dtypes(&self) -> Vec<(String, DType)> {
        self.columns
            .iter()
            .map(|c| (c.name().to_string(), c.dtype()))
            .collect()
    }

    /// Summary statistics for numeric columns
    /// (count/mean/std/min/median/max), pandas `describe()`-style.
    pub fn describe(&self) -> DataFrame {
        let numeric: Vec<&Column> = self
            .columns
            .iter()
            .filter(|c| c.dtype().is_numeric())
            .collect();
        let stats = [
            ("count", AggFunc::Count),
            ("mean", AggFunc::Mean),
            ("std", AggFunc::Std),
            ("min", AggFunc::Min),
            ("median", AggFunc::Median),
            ("max", AggFunc::Max),
        ];
        let mut cols: Vec<(String, Vec<Value>)> = vec![(
            "stat".to_string(),
            stats.iter().map(|(n, _)| Value::from(*n)).collect(),
        )];
        for c in numeric {
            cols.push((
                c.name().to_string(),
                stats.iter().map(|(_, f)| c.agg(*f)).collect(),
            ));
        }
        DataFrame::from_columns(cols).expect("equal lengths by construction")
    }
}

/// The sort-key ordering of one cell pair under [`DataFrame::sort_values`]:
/// missing cells — nulls and NaN floats — sort last regardless of
/// direction and tie with each other (pandas' `na_position='last'`);
/// every other cell orders by [`Value::compare`] with the requested
/// direction. With NaN ranked as missing this is a total preorder, so
/// stable sorts and ordered structures over it are well defined.
///
/// Exposed so storage engines pushing `sort_values(...).head(k)` into their
/// scans (prov-db's top-k executor) order candidates by *exactly* the frame
/// rule instead of re-deriving it.
pub fn sort_cell_cmp(a: &Value, b: &Value, ascending: bool) -> std::cmp::Ordering {
    match (sorts_missing(a), sorts_missing(b)) {
        (true, true) => std::cmp::Ordering::Equal,
        (true, false) => std::cmp::Ordering::Greater,
        (false, true) => std::cmp::Ordering::Less,
        (false, false) => {
            let o = a.compare(b);
            if ascending {
                o
            } else {
                o.reverse()
            }
        }
    }
}

/// Whether a cell ranks as missing in a sort: null, or a NaN float.
fn sorts_missing(v: &Value) -> bool {
    match v {
        Value::Null => true,
        Value::Float(f) => f.is_nan(),
        _ => false,
    }
}

/// Flatten one task message into its row map — the single source of the
/// column layout documented on [`DataFrame::from_messages`], shared by the
/// full and projected constructors.
///
/// Accumulates `(key, value)` pairs in one flat vector and bulk-builds the
/// map at the end (later pairs overwrite earlier ones, exactly like
/// repeated inserts) — this is the per-document cost of decode and
/// materialize, so it avoids per-field map restructuring.
pub(crate) fn message_row(m: &TaskMessage) -> Map {
    use prov_model::keys;
    let derived = derived_keys();
    let mut pairs: Vec<(Sym, Value)> = Vec::with_capacity(48);
    pairs.push((keys::task_id(), Value::Str(m.task_id.sym())));
    pairs.push((keys::campaign_id(), Value::Str(m.campaign_id.sym())));
    pairs.push((keys::workflow_id(), Value::Str(m.workflow_id.sym())));
    pairs.push((keys::activity_id(), Value::Str(m.activity_id.sym())));
    pairs.push((keys::started_at(), Value::Float(m.started_at)));
    pairs.push((keys::ended_at(), Value::Float(m.ended_at)));
    pairs.push((keys::duration(), Value::Float(m.duration())));
    pairs.push((keys::hostname(), Value::from(m.hostname.as_str())));
    pairs.push((keys::status(), Value::Str(m.status.sym())));
    pairs.push((keys::msg_type(), Value::Str(m.msg_type.sym())));
    if !m.depends_on.is_empty() {
        pairs.push((
            keys::depends_on(),
            Value::array(m.depends_on.iter().map(|t| Value::Str(t.sym())).collect()),
        ));
    }
    pairs.extend(dataflow_cells(&m.used, &m.generated));
    if let Some(t) = &m.telemetry_at_start {
        push_telemetry(&mut pairs, &derived.start, t);
        pairs.push((derived.cpu_start.clone(), Value::Float(t.cpu_mean())));
    }
    if let Some(t) = &m.telemetry_at_end {
        push_telemetry(&mut pairs, &derived.end, t);
        pairs.push((derived.cpu_end.clone(), Value::Float(t.cpu_mean())));
        pairs.push((derived.gpu_end.clone(), Value::Float(t.gpu_mean())));
        pairs.push((derived.mem_end.clone(), Value::Float(t.mem_used_mb)));
    }
    for (k, v) in &m.tags {
        pairs.push((Sym::from(format!("tags.{k}")), v.clone()));
    }
    Map::from_iter(pairs)
}

/// The eight leaves of `Telemetry::to_value().flatten()`, in the order
/// it emits them (the byte order of the section and field names).
const TELEMETRY_LEAVES: [&str; 8] = [
    "cpu.percent",
    "disk.read_bytes",
    "disk.write_bytes",
    "gpu.percent",
    "memory.total_mb",
    "memory.used_mb",
    "network.recv_bytes",
    "network.sent_bytes",
];

/// The interned column names [`message_row`] derives from telemetry,
/// built once per process.
struct DerivedKeys {
    start: [Sym; 8],
    end: [Sym; 8],
    cpu_start: Sym,
    cpu_end: Sym,
    gpu_end: Sym,
    mem_end: Sym,
    /// Every column each section sets: its leaves, then its means.
    start_cols: Vec<Sym>,
    end_cols: Vec<Sym>,
}

fn derived_keys() -> &'static DerivedKeys {
    static KEYS: std::sync::OnceLock<DerivedKeys> = std::sync::OnceLock::new();
    KEYS.get_or_init(|| {
        let section = |name: &str| TELEMETRY_LEAVES.map(|leaf| Sym::from(format!("{name}.{leaf}")));
        let (start, end) = (section("telemetry_at_start"), section("telemetry_at_end"));
        let cpu_start = Sym::from("cpu_percent_start");
        let cpu_end = Sym::from("cpu_percent_end");
        let gpu_end = Sym::from("gpu_percent_end");
        let mem_end = Sym::from("mem_used_mb_end");
        DerivedKeys {
            start_cols: start.iter().chain([&cpu_start]).cloned().collect(),
            end_cols: end
                .iter()
                .chain([&cpu_end, &gpu_end, &mem_end])
                .cloned()
                .collect(),
            start,
            end,
            cpu_start,
            cpu_end,
            gpu_end,
            mem_end,
        }
    })
}

/// The columns a row holds because its message has the telemetry section
/// `telemetry_at_end` (`end`) or `telemetry_at_start`: the section's eight
/// leaves and the means derived from it.
pub fn telemetry_columns(end: bool) -> &'static [Sym] {
    let derived = derived_keys();
    if end {
        &derived.end_cols
    } else {
        &derived.start_cols
    }
}

/// Push one telemetry section's leaves under `names` (a
/// [`TELEMETRY_LEAVES`] row), valued as `Telemetry::to_value` values them.
fn push_telemetry(pairs: &mut Vec<(Sym, Value)>, names: &[Sym; 8], t: &prov_model::Telemetry) {
    let floats = |v: &[f64]| Value::array(v.iter().map(|&x| Value::Float(x)).collect());
    let values = [
        floats(&t.cpu_percent),
        Value::Int(t.disk_read_bytes as i64),
        Value::Int(t.disk_write_bytes as i64),
        floats(&t.gpu_percent),
        Value::Float(t.mem_total_mb),
        Value::Float(t.mem_used_mb),
        Value::Int(t.net_recv_bytes as i64),
        Value::Int(t.net_sent_bytes as i64),
    ];
    pairs.extend(names.iter().cloned().zip(values));
}

/// Whether `name` is a column the fixed tail of a row may set after its
/// dataflow cells — a telemetry leaf or derived mean of either section, or
/// a `tags.{k}` cell — so that the tail, not a dataflow leaf of the same
/// name, holds it wherever the row has that section or tag. A store that
/// serves dataflow columns by name must leave these to the frame.
pub fn row_tail_column(name: &str) -> bool {
    name.starts_with("tags.")
        || [false, true]
            .iter()
            .any(|&end| telemetry_columns(end).iter().any(|k| k.as_str() == name))
}

/// The cells a message's `used` and `generated` sections contribute to
/// its frame row, named exactly as [`DataFrame::from_messages`] names
/// them — the one naming rule the frame and any columnar store of the
/// same leaves share.
///
/// Leaves are visited in `flatten` order (`used` first, each section's
/// keys in map order, nested objects depth-first with dotted names; an
/// empty object is a leaf, a non-object section has none). A leaf keeps
/// its bare dotted name unless that clashes with a common field, a
/// protected derived name (`duration`, `cpu_percent_*`) or a name an
/// earlier leaf of this row took — then it is prefixed with its section
/// (`used.x` / `generated.x`). Later cells of one name overwrite earlier
/// ones, so each returned name appears once and holds the last value;
/// the row's tail may still overwrite a [`row_tail_column`].
pub fn dataflow_cells(used: &Value, generated: &Value) -> Vec<(Sym, Value)> {
    let mut cells: Vec<(Sym, Value)> = Vec::new();
    for (section, tree) in [("used", used), ("generated", generated)] {
        let Value::Object(m) = tree else { continue };
        for (key, value) in m.iter() {
            match value {
                Value::Object(inner) if !inner.is_empty() => {
                    value.for_each_leaf(&mut |rest, leaf| {
                        let name = format!("{key}.{rest}");
                        let name = dataflow_column_name(&name, section, &cells);
                        cells.push((Sym::from(name), leaf.clone()));
                    });
                }
                leaf => {
                    let renamed = dataflow_column_name(key.as_str(), section, &cells);
                    let name = if renamed == key.as_str() {
                        key.clone()
                    } else {
                        Sym::from(renamed)
                    };
                    cells.push((name, leaf.clone()));
                }
            }
        }
    }
    // Later cells win, like the row map's repeated inserts.
    let mut i = 0;
    while i < cells.len() {
        if cells[i + 1..].iter().any(|(k, _)| *k == cells[i].0) {
            cells.remove(i);
        } else {
            i += 1;
        }
    }
    cells
}

/// Bare name unless it clashes with a common field or a column this same
/// row already set (e.g. `used.x` and `generated.x`). Every fixed column a
/// row sets before its dataflow cells is a common field, so the row so far
/// can be just the dataflow cells.
fn dataflow_column_name(key: &str, section: &str, row: &[(Sym, Value)]) -> String {
    let clashes = prov_model::schema::common_field(key).is_some()
        || row.iter().any(|(k, _)| k.as_str() == key)
        || matches!(key, "duration" | "cpu_percent_start" | "cpu_percent_end");
    if clashes {
        format!("{section}.{key}")
    } else {
        key.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit};
    use prov_model::{obj, TaskMessageBuilder, TelemetrySynth};

    fn messages() -> Vec<TaskMessage> {
        let synth = TelemetrySynth::frontier(9);
        (0..6)
            .map(|i| {
                TaskMessageBuilder::new(
                    format!("t{i}"),
                    "wf-1",
                    if i % 2 == 0 { "run_dft" } else { "postprocess" },
                )
                .uses("molecule", "CCO")
                .uses("conf_id", i as i64)
                .generates("energy", -155.0 - i as f64)
                .span(100.0 + i as f64, 101.5 + i as f64)
                .host(format!("frontier0008{}", i % 3))
                .telemetry(
                    synth.snapshot(i as u64, 0, 0.6),
                    synth.snapshot(i as u64, 1, 0.6),
                )
                .build()
            })
            .collect()
    }

    #[test]
    fn from_messages_layout() {
        let df = DataFrame::from_messages(&messages());
        assert_eq!(df.len(), 6);
        for name in [
            "task_id",
            "activity_id",
            "duration",
            "molecule",
            "conf_id",
            "energy",
            "cpu_percent_end",
        ] {
            assert!(df.has_column(name), "missing {name}");
        }
        assert_eq!(
            df.column("duration").unwrap().get(0),
            Some(&Value::Float(1.5))
        );
    }

    #[test]
    fn select_filter_sort() {
        let df = DataFrame::from_messages(&messages());
        let out = df
            .filter(&col("activity_id").eq(lit("run_dft")))
            .sort_values(&[("energy", true)])
            .unwrap()
            .select(&["task_id", "energy"])
            .unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(out.width(), 2);
        let e = out.column("energy").unwrap().numeric();
        assert!(e.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn select_unknown_column_errors() {
        let df = DataFrame::from_messages(&messages());
        let err = df.select(&["nope"]).unwrap_err();
        match err {
            FrameError::UnknownColumn { name, available } => {
                assert_eq!(name, "nope");
                assert!(available.contains(&"task_id".to_string()));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn sort_desc_and_nulls_last() {
        let df = DataFrame::from_columns(vec![(
            "x",
            vec![Value::Int(1), Value::Null, Value::Int(5), Value::Int(3)],
        )])
        .unwrap();
        let sorted = df.sort_values(&[("x", false)]).unwrap();
        let vals = sorted.column("x").unwrap().values().to_vec();
        assert_eq!(
            vals,
            vec![Value::Int(5), Value::Int(3), Value::Int(1), Value::Null]
        );
    }

    /// NaN ranks as missing: last in both directions, tied with nulls
    /// (row order kept), and picked by idxmax/idxmin only when nothing
    /// else non-null is left.
    #[test]
    fn nan_sorts_last_like_a_null_and_loses_extremes() {
        let nan = Value::Float(f64::NAN);
        let frame = |x: Vec<Value>| {
            let row = (0..x.len() as i64).map(Value::Int).collect();
            DataFrame::from_columns(vec![("x", x), ("row", row)]).unwrap()
        };
        let rows = |df: &DataFrame, asc: bool| -> Vec<Value> {
            let sorted = df.sort_values(&[("x", asc)]).unwrap();
            sorted.column("row").unwrap().values().to_vec()
        };
        let order = |ids: &[i64]| ids.iter().copied().map(Value::Int).collect::<Vec<_>>();
        let x = vec![
            nan.clone(),
            Value::Float(3.0),
            Value::Null,
            Value::Float(1.0),
            nan.clone(),
        ];
        let df = frame(x.clone());
        assert_eq!(rows(&df, true), order(&[3, 1, 0, 2, 4]));
        assert_eq!(rows(&df, false), order(&[1, 3, 0, 2, 4]));
        let c = Column::new("x", x);
        assert_eq!((c.idxmax(), c.idxmin()), (Some(1), Some(3)));

        let all_nan = vec![Value::Null, nan.clone(), nan];
        let df = frame(all_nan.clone());
        assert_eq!(rows(&df, true), order(&[0, 1, 2]));
        assert_eq!(rows(&df, false), order(&[0, 1, 2]));
        let c = Column::new("x", all_nan);
        assert_eq!((c.idxmax(), c.idxmin()), (Some(1), Some(1)));
    }

    #[test]
    fn head_tail_take() {
        let df = DataFrame::from_messages(&messages());
        assert_eq!(df.head(2).len(), 2);
        assert_eq!(df.tail(2).len(), 2);
        assert_eq!(df.head(100).len(), 6);
        let t = df.take(&[5, 0]);
        assert_eq!(
            t.column("task_id").unwrap().get(0),
            Some(&Value::Str("t5".into()))
        );
    }

    #[test]
    fn push_row_backfills_nulls() {
        let mut df = DataFrame::new();
        let mut r1 = Map::new();
        r1.insert("a".into(), Value::Int(1));
        df.push_row(&r1);
        let mut r2 = Map::new();
        r2.insert("b".into(), Value::Int(2));
        df.push_row(&r2);
        assert_eq!(df.len(), 2);
        assert_eq!(df.column("b").unwrap().get(0), Some(&Value::Null));
        assert_eq!(df.column("a").unwrap().get(1), Some(&Value::Null));
    }

    #[test]
    fn value_counts_descending() {
        let df = DataFrame::from_messages(&messages());
        let vc = df.value_counts("activity_id").unwrap();
        assert_eq!(vc.len(), 2);
        assert_eq!(vc.column("count").unwrap().get(0), Some(&Value::Int(3)));
    }

    #[test]
    fn drop_duplicates_subset() {
        let df = DataFrame::from_messages(&messages());
        let dd = df.drop_duplicates(&["activity_id"]).unwrap();
        assert_eq!(dd.len(), 2);
    }

    #[test]
    fn with_column_derives() {
        let df = DataFrame::from_messages(&messages());
        let df2 = df.with_column("e2", &col("energy").mul(lit(2.0)));
        assert_eq!(
            df2.column("e2").unwrap().get(0).and_then(Value::as_f64),
            Some(-310.0)
        );
        // Replacement keeps width.
        let df3 = df2.with_column("e2", &lit(0));
        assert_eq!(df3.width(), df2.width());
    }

    #[test]
    fn describe_contains_stats() {
        let df = DataFrame::from_messages(&messages());
        let d = df.describe();
        assert_eq!(d.len(), 6);
        assert!(d.has_column("energy"));
        assert!(d.has_column("duration"));
    }

    #[test]
    fn collision_gets_section_prefix() {
        let m = TaskMessageBuilder::new("t", "wf", "a")
            .uses("x", 1)
            .generates("x", 2)
            .uses("status", "custom") // clashes with common field
            .build();
        let df = DataFrame::from_messages(std::iter::once(&m));
        assert!(df.has_column("x"));
        assert!(df.has_column("generated.x"));
        assert!(df.has_column("used.status"));
        assert_eq!(
            df.column("status").unwrap().get(0),
            Some(&Value::Str("FINISHED".into()))
        );
    }

    #[test]
    fn concat_unions_columns() {
        let a = DataFrame::from_columns(vec![("x", vec![Value::Int(1)])]).unwrap();
        let b = DataFrame::from_columns(vec![("y", vec![Value::Int(2)])]).unwrap();
        let c = a.concat(&b);
        assert_eq!(c.len(), 2);
        assert!(c.has_column("x") && c.has_column("y"));
    }

    #[test]
    fn length_mismatch_rejected() {
        let r = DataFrame::from_columns(vec![
            ("a", vec![Value::Int(1)]),
            ("b", vec![Value::Int(1), Value::Int(2)]),
        ]);
        assert!(matches!(r, Err(FrameError::LengthMismatch { .. })));
    }

    #[test]
    fn rows_roundtrip() {
        let df = DataFrame::from_messages(&messages());
        let rows: Vec<Map> = df.iter_rows().collect();
        let df2 = DataFrame::from_rows(&rows);
        assert_eq!(df2.len(), df.len());
        assert_eq!(
            df2.column("energy").unwrap().values(),
            df.column("energy").unwrap().values()
        );
    }

    #[test]
    fn projected_construction_agrees_with_full() {
        let msgs = messages();
        let full = DataFrame::from_messages(&msgs);
        let cols = vec![
            "task_id".to_string(),
            "duration".into(),
            "energy".into(),
            "cpu_percent_end".into(),
        ];
        let projected = DataFrame::from_messages_projected(&msgs, &cols);
        assert_eq!(projected.len(), full.len());
        assert_eq!(projected.width(), cols.len());
        for c in &cols {
            assert_eq!(
                projected.column(c).unwrap().values(),
                full.column(c).unwrap().values(),
                "column {c}"
            );
        }
        // A column nobody provides stays absent; rows are still counted.
        let none = DataFrame::from_messages_projected(&msgs, &["nope".to_string()]);
        assert_eq!(none.len(), msgs.len());
        assert!(!none.has_column("nope"));
        // Empty projection: right row count, zero width (len(df) pushdown).
        let empty = DataFrame::from_messages_projected(&msgs, &[]);
        assert_eq!(empty.len(), msgs.len());
        assert_eq!(empty.width(), 0);
    }

    #[test]
    fn tags_flattened() {
        let m = TaskMessageBuilder::new("t", "wf", "a")
            .build()
            .with_tag("anomaly", obj! {"metric" => "cpu"});
        let df = DataFrame::from_messages(std::iter::once(&m));
        assert!(df.has_column("tags.anomaly"));
    }

    /// `message_row` as it was derived before the fixed-shape telemetry
    /// table: the generic `to_value().flatten()` walk with per-leaf
    /// `format!` names. Kept as the referee the table must reproduce.
    fn reference_row(m: &TaskMessage) -> Map {
        use prov_model::keys;
        let mut pairs: Vec<(Sym, Value)> = Vec::with_capacity(24);
        pairs.push((keys::task_id(), Value::from(m.task_id.as_str())));
        pairs.push((keys::campaign_id(), Value::from(m.campaign_id.as_str())));
        pairs.push((keys::workflow_id(), Value::from(m.workflow_id.as_str())));
        pairs.push((keys::activity_id(), Value::from(m.activity_id.as_str())));
        pairs.push((keys::started_at(), Value::Float(m.started_at)));
        pairs.push((keys::ended_at(), Value::Float(m.ended_at)));
        pairs.push((keys::duration(), Value::Float(m.duration())));
        pairs.push((keys::hostname(), Value::from(m.hostname.as_str())));
        pairs.push((keys::status(), Value::Str(m.status.sym())));
        pairs.push((keys::msg_type(), Value::Str(m.msg_type.sym())));
        if !m.depends_on.is_empty() {
            let deps = m.depends_on.iter().map(|t| Value::from(t.as_str()));
            pairs.push((keys::depends_on(), Value::array(deps.collect())));
        }
        for (key, value) in m.used.flatten() {
            let name = dataflow_column_name(&key, "used", &pairs);
            pairs.push((Sym::from(name), value));
        }
        for (key, value) in m.generated.flatten() {
            let name = dataflow_column_name(&key, "generated", &pairs);
            pairs.push((Sym::from(name), value));
        }
        if let Some(t) = &m.telemetry_at_start {
            for (key, value) in t.to_value().flatten() {
                pairs.push((Sym::from(format!("telemetry_at_start.{key}")), value));
            }
            pairs.push(("cpu_percent_start".into(), Value::Float(t.cpu_mean())));
        }
        if let Some(t) = &m.telemetry_at_end {
            for (key, value) in t.to_value().flatten() {
                pairs.push((Sym::from(format!("telemetry_at_end.{key}")), value));
            }
            pairs.push(("cpu_percent_end".into(), Value::Float(t.cpu_mean())));
            pairs.push(("gpu_percent_end".into(), Value::Float(t.gpu_mean())));
            pairs.push(("mem_used_mb_end".into(), Value::Float(t.mem_used_mb)));
        }
        for (k, v) in &m.tags {
            pairs.push((Sym::from(format!("tags.{k}")), v.clone()));
        }
        Map::from_iter(pairs)
    }

    #[test]
    fn dataflow_cells_name_like_the_row() {
        let m = TaskMessageBuilder::new("c", "wf", "a")
            .uses("x", 1.0)
            .generates("x", 2.0)
            .uses("status", "shadowed")
            .generates("frags", obj! {"label" => "A", "n" => 2})
            .build();
        let names: Vec<String> = dataflow_cells(&m.used, &m.generated)
            .into_iter()
            .map(|(k, _)| k.to_string())
            .collect();
        assert_eq!(
            names,
            ["used.status", "x", "frags.label", "frags.n", "generated.x"]
        );
        let row = message_row(&m);
        for (k, v) in dataflow_cells(&m.used, &m.generated) {
            assert_eq!(row.get(k.as_str()), Some(&v), "{k}");
        }
        assert!(row_tail_column("tags.anomaly"));
        assert!(row_tail_column("telemetry_at_end.disk.read_bytes"));
        assert!(row_tail_column("gpu_percent_end"));
        assert!(!row_tail_column("frags.label"));
    }

    #[test]
    fn message_row_matches_the_flatten_referee() {
        use prov_model::Telemetry;
        let synth = TelemetrySynth::frontier(3);
        let bare = Telemetry {
            cpu_percent: Vec::new(),
            gpu_percent: Vec::new(),
            ..Telemetry::default()
        };
        let nan = Telemetry {
            cpu_percent: vec![f64::NAN, 1.0],
            gpu_percent: vec![f64::NAN],
            mem_used_mb: f64::NAN,
            mem_total_mb: f64::NAN,
            disk_read_bytes: u64::MAX,
            ..Telemetry::default()
        };
        let mut msgs = messages();
        // Empty cpu/gpu arrays on both sections.
        msgs.push(
            TaskMessageBuilder::new("e", "wf", "a")
                .telemetry(bare.clone(), bare.clone())
                .build(),
        );
        // Only one section present, each way round; NaN leaves.
        let mut start_only = TaskMessageBuilder::new("s", "wf", "a")
            .telemetry(synth.snapshot(1, 0, 0.9), bare)
            .build();
        start_only.telemetry_at_end = None;
        msgs.push(start_only);
        let mut end_only = TaskMessageBuilder::new("n", "wf", "a")
            .telemetry(nan.clone(), nan)
            .span(f64::NAN, 2.0)
            .build();
        end_only.telemetry_at_start = None;
        msgs.push(end_only);
        // No telemetry; a `used.x`/`generated.x` clash, common-field and
        // derived-name clashes, nested payloads, lineage and tags.
        msgs.push(
            TaskMessageBuilder::new("c", "wf", "a")
                .uses("x", 1.0)
                .generates("x", f64::NAN)
                .uses("status", "shadowed")
                .generates("duration", 3)
                .generates("frags", obj! {"label" => "A", "n" => 2})
                .depends_on("t0")
                .depends_on("t1")
                .agent("agent-1")
                .build()
                .with_tag("anomaly", obj! {"metric" => "cpu"}),
        );
        for m in &msgs {
            let (got, want) = (message_row(m), reference_row(m));
            let keys = |row: &Map| row.keys().map(|k| k.to_string()).collect::<Vec<_>>();
            assert_eq!(keys(&got), keys(&want), "column names of {}", m.task_id);
            assert_eq!(
                format!("{got:?}"),
                format!("{want:?}"),
                "row of {}",
                m.task_id
            );
        }
        let mut referee = DataFrame::new();
        for m in &msgs {
            referee.push_row(&reference_row(m));
        }
        let frame = DataFrame::from_messages(&msgs);
        assert_eq!(frame.column_names(), referee.column_names());
        for name in frame.column_names() {
            assert_eq!(
                format!("{:?}", frame.column(name).unwrap().values()),
                format!("{:?}", referee.column(name).unwrap().values()),
                "column {name}"
            );
        }
    }
}
