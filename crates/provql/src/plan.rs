//! Logical query plans with index-aware pushdown.
//!
//! [`plan`] lowers a parsed [`Query`] into a tree of [`PipelinePlan`]s, one
//! per pipeline, each rooted at a [`ScanNode`]. The lowering is a rule
//! pass over the pipeline's leading filters: every conjunct the backing
//! store can serve from an index (equality on a pushable column, numeric
//! range on a range-indexed column — the store advertises both through
//! [`PushdownCapability`]) is split off into [`ScanNode::pushed`], and
//! whatever remains is recombined into [`ScanNode::residual`]. The scan
//! also carries a projection ([`ScanNode::columns`]: the column subset the
//! rest of the pipeline references) and, when the stage shape allows it, a
//! sort spec ([`ScanNode::sort`]: a leading `sort_values` over keys the
//! store can order) and a row limit — a pushed `Sort→Limit` pair is a
//! top-k request served without materializing (or sorting) the corpus.
//!
//! The planner is deliberately engine-agnostic: it knows nothing about
//! document paths, hash indexes, or shards. An executor (see
//! `prov_db::exec`) interprets the scan against its store and runs the
//! remaining [`PlanNode`]s through the ordinary stage machine
//! ([`crate::exec::execute_stages`]), so pushdown can never change query
//! semantics — only how many documents are materialized into a frame.

use crate::ast::{GraphQuery, Pipeline, Query, Stage};
use dataframe::{ArithOp, CmpOp, Expr};
use prov_model::Value;

/// What a store can answer about its pushdown support, per column.
///
/// Implemented by storage engines (e.g. `prov_db::ProvenanceDatabase`).
/// The planner only pushes a conjunct when the capability says the column
/// is servable; everything else stays in the residual filter.
pub trait PushdownCapability {
    /// Can an equality conjunct on this column be pushed into the scan?
    fn pushable_eq(&self, column: &str) -> bool;
    /// Can a range conjunct (`<`, `<=`, `>`, `>=`) on this column be
    /// pushed into the scan?
    fn pushable_range(&self, column: &str) -> bool;
    /// Is this column stored columnar, so the executor can evaluate a
    /// residual `col op lit` conjunct (any comparison operator, including
    /// `!=`) directly over its column vector, and materialize the column
    /// into a frame without decoding documents? Defaults to `false` for
    /// engines without a columnar layer.
    fn pushable_columnar(&self, _column: &str) -> bool {
        false
    }
    /// Can the scan return its rows ordered by this column — i.e. can a
    /// leading `sort_values` key (and a `head` behind it) be pushed into
    /// the scan as a top-k request? Engines answer `true` for columns they
    /// can order without materializing a frame: sorted-index keys and
    /// columnar-resident scalar fields. Defaults to `false`.
    fn pushable_sort(&self, _column: &str) -> bool {
        false
    }
    /// Does the store know which rows hold this column, so a
    /// `col.notna()` / `col.isna()` conjunct can run in the scan (a
    /// presence test over the column's vector, never materialized)?
    /// Engines answer `true` for every columnar column and for columns
    /// they keep presence-only. Defaults to
    /// [`pushable_columnar`](Self::pushable_columnar).
    fn pushable_presence(&self, column: &str) -> bool {
        self.pushable_columnar(column)
    }
}

/// Push everything structurally pushable (used by tests and by callers
/// that apply their own capability check later).
#[derive(Debug, Clone, Copy, Default)]
pub struct PushAll;

impl PushdownCapability for PushAll {
    fn pushable_eq(&self, _column: &str) -> bool {
        true
    }
    fn pushable_range(&self, _column: &str) -> bool {
        true
    }
    fn pushable_columnar(&self, _column: &str) -> bool {
        true
    }
    fn pushable_sort(&self, _column: &str) -> bool {
        true
    }
}

/// Comparison operator of a pushed filter (the index-servable subset of
/// [`CmpOp`]: no `!=`, which a hash probe cannot answer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOp {
    /// Equality — servable from a hash index.
    Eq,
    /// Strictly less than — servable from a sorted numeric index.
    Lt,
    /// Less than or equal.
    Le,
    /// Strictly greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl PushOp {
    fn from_cmp(op: CmpOp) -> Option<PushOp> {
        match op {
            CmpOp::Eq => Some(PushOp::Eq),
            CmpOp::Lt => Some(PushOp::Lt),
            CmpOp::Le => Some(PushOp::Le),
            CmpOp::Gt => Some(PushOp::Gt),
            CmpOp::Ge => Some(PushOp::Ge),
            CmpOp::Ne => None,
        }
    }
}

/// One conjunct pushed into the scan: `column op value`.
#[derive(Debug, Clone, PartialEq)]
pub struct PushedFilter {
    /// Frame column name (the executor maps it to its storage path).
    pub column: String,
    /// Comparison operator.
    pub op: PushOp,
    /// Literal comparand.
    pub value: Value,
}

/// One conjunct evaluable over a column vector: `column op value`, with
/// the full comparison-operator set (unlike [`PushedFilter`], `!=` is
/// allowed — a vector scan, unlike a hash probe, can answer it). The
/// executor must apply the *frame* comparison semantics
/// (`dataframe::cmp_matches`): null-to-false, Int/Float coercion.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnarFilter {
    /// Frame column name (also the columnar vector's name).
    pub column: String,
    /// Comparison operator.
    pub op: CmpOp,
    /// Literal comparand (never Null; null literals stay residual).
    pub value: Value,
}

/// One membership conjunct evaluable over a column vector:
/// `column.isin([...])`. Like [`ColumnarFilter`] it needs no index — the
/// scan compiles the list once (to a dictionary code set for string
/// columns, an `f64` probe list for numeric ones) and tests each row's
/// encoded cell, instead of re-comparing the literal list per row. The
/// executor must apply the frame's membership semantics: any-match under
/// `dataframe::values_equal`.
#[derive(Debug, Clone, PartialEq)]
pub struct InListFilter {
    /// Frame column name (also the columnar vector's name).
    pub column: String,
    /// Literal membership list (never contains Null; lists with a null
    /// element stay residual, mirroring the null-literal rule for
    /// comparisons).
    pub values: Vec<Value>,
}

/// One null-test conjunct evaluable over a column's presence:
/// `column.notna()` or `column.isna()`. The executor must apply the
/// frame's rule, `Value::is_null` (a NaN cell is present; a column absent
/// from the corpus is null on every row).
#[derive(Debug, Clone, PartialEq)]
pub struct NullTestFilter {
    /// Frame column name.
    pub column: String,
    /// `true` for `notna()` (keep rows holding the column), `false` for
    /// `isna()`.
    pub present: bool,
}

/// The leaf of every pipeline plan: which documents to touch and which
/// columns to materialize from them.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScanNode {
    /// Index-servable conjuncts of the pipeline's leading filters.
    pub pushed: Vec<PushedFilter>,
    /// Conjuncts with no index but a columnar vector: evaluated by the
    /// scan over the column vectors (bitset survivors), never materialized
    /// into the frame.
    pub columnar: Vec<ColumnarFilter>,
    /// Membership conjuncts (`col.isin([...])`) over columnar columns:
    /// evaluated by the scan alongside [`columnar`], never materialized.
    ///
    /// [`columnar`]: ScanNode::columnar
    pub isin: Vec<InListFilter>,
    /// Null tests (`col.notna()` / `col.isna()`) on columns whose presence
    /// the store knows: evaluated by the scan alongside [`isin`], never
    /// materialized.
    ///
    /// [`isin`]: ScanNode::isin
    pub nulls: Vec<NullTestFilter>,
    /// Conjuncts the store cannot serve, recombined in original order;
    /// applied as an ordinary row filter on the scanned frame.
    pub residual: Option<Expr>,
    /// Projection pushdown: the column subset the pipeline references.
    /// `None` means the pipeline's output exposes the whole frame width,
    /// which only the full corpus-wide column union can answer — such
    /// plans are not servable by a projected scan.
    pub columns: Option<Vec<String>>,
    /// True when every column in [`columns`] is columnar-capable: the
    /// executor can answer the scan entirely from column vectors, without
    /// decoding a single document. No engine path routes on it — every
    /// plan runs through the store's executor first; benchmarks read it
    /// to attribute their spans.
    ///
    /// [`columns`]: ScanNode::columns
    pub columnar_only: bool,
    /// Sort pushdown: the keys of a leading `sort_values` whose columns
    /// the store can all order ([`PushdownCapability::pushable_sort`]),
    /// reached with no residual filter in front. The executor must return
    /// rows in the *frame's* sort order for these keys (nulls last, ties
    /// by insertion order, `dataframe::sort_cell_cmp` semantics, NaN ranked
    /// with the nulls); the original [`PlanNode::Sort`] is kept downstream
    /// as a safety net — a stable re-sort of already-ordered rows under
    /// that total preorder is the identity. A leading
    /// `loc[df[c].idxmax()]` / `idxmin()` sets it too, to `c` alone, with a
    /// limit of 1 and a pushed `c.notna()`: a top-1 scan.
    pub sort: Vec<(String, bool)>,
    /// Row-limit pushdown, set only when no residual filter and no
    /// *unpushed* reordering stage precedes the `head` that produced it
    /// (columnar, in-list and null-test conjuncts do not block it: the
    /// scan applies them before counting; a pushed sort does not block it: the scan
    /// orders before it truncates — that pairing is exactly a top-k scan),
    /// or by a leading `loc[idxmax|idxmin]` lowered to a top-1 scan.
    pub limit: Option<usize>,
}

/// A relational operator applied after the scan, in order.
///
/// `Filter`/`Project`/`Sort`/`Limit` are the classic shapes; everything
/// the IR has no dedicated node for (group-by, series ops, computed
/// expressions) rides along as [`PlanNode::Residual`] and is executed by
/// the stage machine unchanged.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanNode {
    /// Row filter (a non-leading filter, or one following other stages).
    Filter(Expr),
    /// Column projection.
    Project(Vec<String>),
    /// Multi-key sort (`(column, ascending)` pairs).
    Sort(Vec<(String, bool)>),
    /// First-n row limit.
    Limit(usize),
    /// Any stage without a dedicated node shape.
    Residual(Stage),
}

impl PlanNode {
    /// The stage this node executes as (plans never change semantics, so
    /// every node maps back onto the stage machine).
    pub fn to_stage(&self) -> Stage {
        match self {
            PlanNode::Filter(e) => Stage::Filter(e.clone()),
            PlanNode::Project(cols) => Stage::Select(cols.clone()),
            PlanNode::Sort(keys) => Stage::SortValues(keys.clone()),
            PlanNode::Limit(n) => Stage::Head(*n),
            PlanNode::Residual(s) => s.clone(),
        }
    }

    fn from_stage(stage: &Stage) -> PlanNode {
        match stage {
            Stage::Filter(e) => PlanNode::Filter(e.clone()),
            Stage::Select(cols) => PlanNode::Project(cols.clone()),
            Stage::SortValues(keys) => PlanNode::Sort(keys.clone()),
            Stage::Head(n) => PlanNode::Limit(*n),
            other => PlanNode::Residual(other.clone()),
        }
    }
}

/// Plan of one pipeline: a scan followed by the remaining operators.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelinePlan {
    /// The scan leaf.
    pub scan: ScanNode,
    /// Operators applied to the scanned frame, in order.
    pub ops: Vec<PlanNode>,
}

impl PipelinePlan {
    /// True when the scan pushes at least one filter — i.e. planning
    /// found index-servable work. No engine path routes on it; benchmarks
    /// and diagnostics read it.
    pub fn has_pushdown(&self) -> bool {
        !self.scan.pushed.is_empty()
    }
}

/// Plan of a whole query; mirrors the [`Query`] tree shape.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryPlan {
    /// A planned pipeline.
    Pipeline(PipelinePlan),
    /// `len(<plan>)`.
    Len(Box<QueryPlan>),
    /// Scalar arithmetic between two plans.
    Binary(Box<QueryPlan>, ArithOp, Box<QueryPlan>),
    /// Bare numeric literal.
    Number(f64),
    /// A graph path primitive (the AST node is already the logical plan —
    /// a path primitive has no filters to split or columns to project).
    Graph(GraphQuery),
}

impl QueryPlan {
    /// All pipeline plans in the tree (for inspection and tests).
    pub fn pipelines(&self) -> Vec<&PipelinePlan> {
        match self {
            QueryPlan::Pipeline(p) => vec![p],
            QueryPlan::Len(q) => q.pipelines(),
            QueryPlan::Binary(a, _, b) => {
                let mut v = a.pipelines();
                v.extend(b.pipelines());
                v
            }
            QueryPlan::Number(_) | QueryPlan::Graph(_) => Vec::new(),
        }
    }

    /// True when every pipeline in the tree has a bounded column set,
    /// i.e. the whole query is servable by projected scans.
    pub fn fully_projected(&self) -> bool {
        self.pipelines().iter().all(|p| p.scan.columns.is_some())
    }
}

/// Lower a query into its logical plan, splitting filters against the
/// given store capability.
pub fn plan(query: &Query, caps: &dyn PushdownCapability) -> QueryPlan {
    match query {
        Query::Pipeline(p) => QueryPlan::Pipeline(plan_pipeline(p, caps, false)),
        Query::Len(q) => {
            // Inside `len(...)` only the row count of the result matters,
            // so an unbounded frame output can still be projected down to
            // the columns its stages read (unless a stage's row count
            // depends on the full width, e.g. drop_duplicates()).
            let inner = match q.as_ref() {
                Query::Pipeline(p) => QueryPlan::Pipeline(plan_pipeline(p, caps, true)),
                other => plan(other, caps),
            };
            QueryPlan::Len(Box::new(inner))
        }
        Query::Binary(a, op, b) => {
            QueryPlan::Binary(Box::new(plan(a, caps)), *op, Box::new(plan(b, caps)))
        }
        Query::Number(n) => QueryPlan::Number(*n),
        Query::Graph(g) => QueryPlan::Graph(g.clone()),
    }
}

fn plan_pipeline(p: &Pipeline, caps: &dyn PushdownCapability, count_only: bool) -> PipelinePlan {
    let mut scan = ScanNode::default();

    // Split the leading run of filters into pushed, columnar, and residual
    // conjuncts.
    let mut rest = p.stages.as_slice();
    let mut residuals: Vec<Expr> = Vec::new();
    while let Some((Stage::Filter(e), tail)) = rest.split_first() {
        split_filter(e, caps, &mut scan, &mut residuals);
        rest = tail;
    }
    scan.residual = residuals.into_iter().reduce(Expr::and);

    // Projection pushdown: whether the output is column-bounded is a
    // property of the original stage shape, but the column *set* is
    // recomputed after the filter split — a conjunct the store serves
    // shouldn't drag its column into the materialized frame.
    if projection(p, count_only).is_some() {
        let mut remaining: Vec<Stage> = Vec::with_capacity(rest.len() + 1);
        if let Some(r) = &scan.residual {
            remaining.push(Stage::Filter(r.clone()));
        }
        remaining.extend(rest.iter().cloned());
        scan.columns = Some(Pipeline { stages: remaining }.referenced_columns());
    }
    scan.columnar_only = scan
        .columns
        .as_ref()
        .is_some_and(|cols| cols.iter().all(|c| caps.pushable_columnar(c)));

    let ops: Vec<PlanNode> = rest.iter().map(PlanNode::from_stage).collect();

    // Sort/limit pushdown: walking through column-preserving,
    // order-preserving stages only, with no residual filter in front —
    // a sort_values whose keys the store can all order becomes the scan's
    // sort spec (one sort only: a second sort re-orders and stops the
    // walk), and a head() behind it becomes the scan's limit. Together
    // they turn the scan into a top-k request; a head() with no pushed
    // sort in front still sees exactly the first n scanned rows, as
    // before. The Sort and Limit nodes are kept downstream (the frame's
    // sort rule is a total preorder, so a stable re-sort of ordered rows
    // is the identity, and head is idempotent), so pushdown remains an
    // upper bound, never a semantic change.
    if scan.residual.is_none() {
        if let Some(PlanNode::Residual(Stage::LocIdx { column, max, .. })) = ops.first() {
            lower_loc_extreme(&mut scan, column, *max, caps);
        }
        for op in &ops {
            match op {
                PlanNode::Project(_) | PlanNode::Residual(Stage::ResetIndex) => continue,
                PlanNode::Sort(keys)
                    if scan.sort.is_empty() && keys.iter().all(|(c, _)| caps.pushable_sort(c)) =>
                {
                    scan.sort = keys.clone();
                }
                PlanNode::Limit(n) => {
                    scan.limit = Some(*n);
                    break;
                }
                other => {
                    // A later (unpushed or second) sort re-orders every
                    // row: an already-pushed ordering would be computed
                    // only to be thrown away, so retract it and leave the
                    // scan a plain filter scan. Any other stage keeps it —
                    // order-sensitive stages (group-by first-seen order,
                    // dedup first-occurrence, value_counts ties) observe
                    // the pushed ordering.
                    if matches!(other, PlanNode::Sort(_)) {
                        scan.sort.clear();
                    }
                    break;
                }
            }
        }
    }

    PipelinePlan { scan, ops }
}

/// Lower a leading `df.loc[df[c].idxmax()]` (or `idxmin()`, whole-row or
/// single-cell) into a top-1 scan: a pushed `c.notna()`, a pushed sort on
/// `c` (descending for `idxmax`) and a pushed limit of 1. The `LocIdx`
/// node stays downstream and runs over the at most one survivor. Exact
/// because `idxmax`/`idxmin` skip null cells, rank NaN below every other
/// cell and keep the first extreme, while a top-k scan sorts NaN with the
/// nulls and orders ties by id — the frame's row order; no survivor
/// leaves `LocIdx` its own empty-input error.
/// Callers only lower at a clean scan prefix (no residual filter in
/// front), where the scan's survivors are exactly the frame's rows.
fn lower_loc_extreme(scan: &mut ScanNode, column: &str, max: bool, caps: &dyn PushdownCapability) {
    if !(caps.pushable_sort(column) && caps.pushable_presence(column)) {
        return;
    }
    scan.nulls.push(NullTestFilter {
        column: column.to_string(),
        present: true,
    });
    scan.sort = vec![(column.to_string(), !max)];
    scan.limit = Some(1);
}

/// Recursively split a filter expression: `And` nodes are walked, every
/// `column op literal` conjunct the capability can serve from an index is
/// pushed, every remaining `column op literal` conjunct on a columnar
/// column becomes a [`ColumnarFilter`], `column.isin([...])` with a
/// null-free list on a columnar column becomes an [`InListFilter`],
/// `column.notna()`/`column.isna()` on a column whose presence the store
/// knows becomes a [`NullTestFilter`], and anything else lands in
/// `residuals` (original left-to-right order).
fn split_filter(
    e: &Expr,
    caps: &dyn PushdownCapability,
    scan: &mut ScanNode,
    residuals: &mut Vec<Expr>,
) {
    match e {
        Expr::And(a, b) => {
            split_filter(a, caps, scan, residuals);
            split_filter(b, caps, scan, residuals);
        }
        Expr::Cmp(a, op, b) => {
            // `col op lit` or the flipped `lit op col`. Null literals are
            // never pushed: the frame executor short-circuits any null
            // comparison to false, while a store compares a present value
            // against Null by kind-tag ordering — opposite answers.
            let normalized = match (a.as_ref(), b.as_ref()) {
                (Expr::Col(c), Expr::Lit(v)) if !v.is_null() => Some((c, *op, v)),
                (Expr::Lit(v), Expr::Col(c)) if !v.is_null() => Some((c, op.flipped(), v)),
                _ => None,
            };
            let servable = normalized.and_then(|(c, op, v)| {
                let push_op = PushOp::from_cmp(op)?;
                let ok = match push_op {
                    PushOp::Eq => caps.pushable_eq(c),
                    _ => caps.pushable_range(c),
                };
                ok.then(|| PushedFilter {
                    column: c.clone(),
                    op: push_op,
                    value: v.clone(),
                })
            });
            if let Some(f) = servable {
                scan.pushed.push(f);
                return;
            }
            // No index, but a column vector: the scan can still evaluate
            // the conjunct without materializing the column into the frame.
            if let Some((c, op, v)) = normalized {
                if caps.pushable_columnar(c) {
                    scan.columnar.push(ColumnarFilter {
                        column: c.clone(),
                        op,
                        value: v.clone(),
                    });
                    return;
                }
            }
            residuals.push(e.clone());
        }
        Expr::IsIn(a, values) => {
            // A membership list compiles to a dictionary code set, so a
            // columnar column serves it with no index. Lists containing
            // a null element stay residual — same rule as null comparison
            // literals: a pushed literal value is never Null.
            if let Expr::Col(c) = a.as_ref() {
                if caps.pushable_columnar(c) && values.iter().all(|v| !v.is_null()) {
                    scan.isin.push(InListFilter {
                        column: c.clone(),
                        values: values.clone(),
                    });
                    return;
                }
            }
            residuals.push(e.clone());
        }
        Expr::NotNull(a) | Expr::IsNull(a) => {
            // A presence test runs over the column's presence, so it
            // needs no index and no value vector.
            if let Expr::Col(c) = a.as_ref() {
                if caps.pushable_presence(c) {
                    scan.nulls.push(NullTestFilter {
                        column: c.clone(),
                        present: matches!(e, Expr::NotNull(_)),
                    });
                    return;
                }
            }
            residuals.push(e.clone());
        }
        other => residuals.push(other.clone()),
    }
}

/// The projection a pipeline's output needs, or `None` when it exposes
/// the whole frame width.
///
/// Walking the stages in order, the first stage that *bounds* the output
/// to named columns (projection, series selection, group-by, scalar
/// count, single-cell loc) settles the answer at the pipeline's
/// referenced-column set; the first stage whose semantics *consume* the
/// full width (whole-row loc, describe, subset-less drop_duplicates)
/// settles it at `None`. Column-preserving stages (filter, sort,
/// head/tail, …) keep walking. `count_only` relaxes the frame-width
/// requirement for `len(...)`-wrapped pipelines, where only the row count
/// of the output survives — except for stages whose row count itself
/// depends on the full width.
fn projection(p: &Pipeline, count_only: bool) -> Option<Vec<String>> {
    for stage in &p.stages {
        match stage {
            Stage::Select(_)
            | Stage::Col(_)
            | Stage::GroupBy(_)
            | Stage::Count
            | Stage::LocIdx { cell: Some(_), .. } => return Some(p.referenced_columns()),
            Stage::LocIdx { cell: None, .. } | Stage::Describe => {
                return count_only.then(|| p.referenced_columns())
            }
            Stage::DropDuplicates(subset) if subset.is_empty() => return None,
            _ => {}
        }
    }
    // No bounding stage: the output is the (possibly filtered/sorted)
    // full-width frame — unless only its row count is observed.
    count_only.then(|| p.referenced_columns())
}

// ---------------------------------------------------------------------
// Plan normalization: the canonical cache key.
// ---------------------------------------------------------------------

/// Canonical, collision-free rendering of a plan, used (together with a
/// store generation) as a result-cache key. Two plans share a key exactly
/// when they are semantically interchangeable under the stage machine:
///
/// * **Commutative conjunct order** — the scan's pushed / columnar /
///   in-list conjunct lists are each a conjunction, so they are rendered
///   sorted; a residual `And`/`Or` chain is flattened and its operands
///   sorted (boolean row filters have no short-circuit side effects).
/// * **Literal spellings** — in comparison and membership positions the
///   frame coerces `Int`/`Float` ([`dataframe::cmp_matches`] /
///   [`dataframe::values_equal`]), so `Int(5)` and `Float(5.0)` render
///   identically there. Everywhere else (arithmetic, where `5` and `5.0`
///   can produce differently-typed outputs) literals render exactly.
/// * **Projection sets** — a scan's column set is rendered sorted: the
///   output column order of every column-bounded pipeline is fixed by its
///   downstream ops (projection, series selection, group-by), never by
///   the scan's materialization order.
///
/// Order-sensitive parts — sort keys, op sequences, `Binary` operand
/// sides — render verbatim. The string is exact (no hashing), so distinct
/// plans can never alias an entry; [`fingerprint`] derives a compact
/// 64-bit digest for diagnostics and tests.
pub fn cache_key(plan: &QueryPlan) -> String {
    match plan {
        QueryPlan::Pipeline(p) => {
            let ops: Vec<String> = p.ops.iter().map(canon_node).collect();
            format!("p({};[{}])", canon_scan(&p.scan), ops.join(";"))
        }
        QueryPlan::Len(q) => format!("len({})", cache_key(q)),
        QueryPlan::Binary(a, op, b) => {
            format!("bin({},{:?},{})", cache_key(a), op, cache_key(b))
        }
        QueryPlan::Number(n) => format!("num({:016x})", n.to_bits()),
        QueryPlan::Graph(g) => match g {
            GraphQuery::Upstream { node, depth } => format!("graph(up,{node:?},{depth})"),
            GraphQuery::Downstream { node, depth } => format!("graph(down,{node:?},{depth})"),
            GraphQuery::Paths { from, to } => format!("graph(paths,{from:?},{to:?})"),
            GraphQuery::Khop { node, k } => format!("graph(khop,{node:?},{k})"),
        },
    }
}

/// FNV-1a digest of [`cache_key`] — a compact plan identity for tests,
/// diagnostics, and logs. The cache itself keys on the full string (a
/// 64-bit hash collision must not be able to alias two results).
pub fn fingerprint(plan: &QueryPlan) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in cache_key(plan).bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn canon_scan(s: &ScanNode) -> String {
    let mut pushed: Vec<String> = s
        .pushed
        .iter()
        .map(|f| format!("{}:{:?}:{}", f.column, f.op, canon_cmp_lit(&f.value)))
        .collect();
    pushed.sort_unstable();
    let mut columnar: Vec<String> = s
        .columnar
        .iter()
        .map(|f| format!("{}:{:?}:{}", f.column, f.op, canon_cmp_lit(&f.value)))
        .collect();
    columnar.sort_unstable();
    let mut isin: Vec<String> = s
        .isin
        .iter()
        .map(|f| {
            // Membership is any-match: list order and duplicates are
            // invisible to the filter's verdict.
            let mut vals: Vec<String> = f.values.iter().map(canon_cmp_lit).collect();
            vals.sort_unstable();
            vals.dedup();
            format!("{}:[{}]", f.column, vals.join(","))
        })
        .collect();
    isin.sort_unstable();
    let mut nulls: Vec<String> = s
        .nulls
        .iter()
        .map(|f| format!("{}:{}", f.column, f.present))
        .collect();
    nulls.sort_unstable();
    let residual = s.residual.as_ref().map(canon_expr).unwrap_or_default();
    let columns = s.columns.as_ref().map(|cols| {
        let mut cols: Vec<&str> = cols.iter().map(String::as_str).collect();
        cols.sort_unstable();
        cols.join(",")
    });
    let sort: Vec<String> = s.sort.iter().map(|(c, asc)| format!("{c}:{asc}")).collect();
    format!(
        "push[{}]col[{}]in[{}]null[{}]res[{residual}]proj[{:?}]sort[{}]lim[{:?}]",
        pushed.join(","),
        columnar.join(","),
        isin.join(","),
        nulls.join(","),
        columns,
        sort.join(","),
        s.limit,
    )
}

fn canon_node(n: &PlanNode) -> String {
    match n {
        PlanNode::Filter(e) => format!("filter({})", canon_expr(e)),
        PlanNode::Project(cols) => format!("project({})", cols.join(",")),
        PlanNode::Sort(keys) => {
            let keys: Vec<String> = keys.iter().map(|(c, asc)| format!("{c}:{asc}")).collect();
            format!("sort({})", keys.join(","))
        }
        PlanNode::Limit(n) => format!("limit({n})"),
        // Residual stages carry no expressions (`Filter` always maps to
        // `PlanNode::Filter`), so their derived `Debug` form is already
        // canonical and collision-free.
        PlanNode::Residual(s) => format!("stage({s:?})"),
    }
}

/// Canonical row-filter expression: `And`/`Or` chains flatten to sorted
/// operand lists (boolean evaluation is total — no errors, no side
/// effects — so operand order is unobservable); literals directly under a
/// comparison or membership test canonicalize numerically; everything
/// else renders structurally.
fn canon_expr(e: &Expr) -> String {
    match e {
        Expr::And(..) => {
            let mut ops = Vec::new();
            flatten_bool(e, true, &mut ops);
            ops.sort_unstable();
            format!("and({})", ops.join("&"))
        }
        Expr::Or(..) => {
            let mut ops = Vec::new();
            flatten_bool(e, false, &mut ops);
            ops.sort_unstable();
            format!("or({})", ops.join("|"))
        }
        Expr::Cmp(a, op, b) => {
            format!(
                "cmp({},{:?},{})",
                canon_cmp_operand(a),
                op,
                canon_cmp_operand(b)
            )
        }
        Expr::Arith(a, op, b) => format!("arith({},{:?},{})", canon_expr(a), op, canon_expr(b)),
        Expr::Not(x) => format!("not({})", canon_expr(x)),
        Expr::Col(c) => format!("col({c})"),
        Expr::Lit(v) => format!("lit({})", exact_lit(v)),
        Expr::StrContains(x, pat, ci) => {
            format!("contains({},{pat:?},{ci})", canon_expr(x))
        }
        Expr::StrStartsWith(x, p) => format!("starts({},{p:?})", canon_expr(x)),
        Expr::IsIn(x, list) => {
            let mut vals: Vec<String> = list.iter().map(canon_cmp_lit).collect();
            vals.sort_unstable();
            vals.dedup();
            format!("isin({},[{}])", canon_expr(x), vals.join(","))
        }
        Expr::IsNull(x) => format!("isnull({})", canon_expr(x)),
        Expr::NotNull(x) => format!("notnull({})", canon_expr(x)),
    }
}

fn flatten_bool(e: &Expr, and: bool, out: &mut Vec<String>) {
    match (e, and) {
        (Expr::And(a, b), true) | (Expr::Or(a, b), false) => {
            flatten_bool(a, and, out);
            flatten_bool(b, and, out);
        }
        _ => out.push(canon_expr(e)),
    }
}

/// A comparison operand: literals canonicalize (the comparison itself
/// coerces `Int`/`Float`), sub-expressions render recursively.
fn canon_cmp_operand(e: &Expr) -> String {
    match e {
        Expr::Lit(v) => format!("lit({})", canon_cmp_lit(v)),
        other => canon_expr(other),
    }
}

/// A literal in a coercing position (comparison comparand or membership
/// list element): integer-valued floats exactly representable as `i64`
/// collapse onto the integer spelling — [`dataframe::cmp_matches`] and
/// [`dataframe::values_equal`] cannot tell `Int(5)` from `Float(5.0)`.
/// The round-trip guard (`i as f64 == *f`) keeps large integers whose
/// `f64` image is inexact on their own exact spellings.
fn canon_cmp_lit(v: &Value) -> String {
    match v {
        Value::Float(f) if f.is_finite() && f.trunc() == *f => {
            let i = *f as i64;
            if i as f64 == *f {
                format!("n{i}")
            } else {
                exact_lit(v)
            }
        }
        Value::Int(n) => format!("n{n}"),
        other => exact_lit(other),
    }
}

/// A literal in a non-coercing position, rendered exactly (collision-free
/// across kinds: every kind gets its own prefix, strings are
/// debug-escaped).
fn exact_lit(v: &Value) -> String {
    match v {
        Value::Null => "null".to_string(),
        Value::Bool(b) => format!("b{b}"),
        Value::Int(n) => format!("i{n}"),
        Value::Float(f) => format!("f{:016x}", f.to_bits()),
        Value::Str(s) => format!("s{:?}", s.as_str()),
        Value::Array(a) => {
            let vals: Vec<String> = a.iter().map(exact_lit).collect();
            format!("[{}]", vals.join(","))
        }
        Value::Object(m) => {
            let vals: Vec<String> = m
                .iter()
                .map(|(k, v)| format!("{:?}:{}", k.as_str(), exact_lit(v)))
                .collect();
            format!("{{{}}}", vals.join(","))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use dataframe::{col, lit};

    /// Test capability with a broad pushable set (the common Listing-1
    /// scalar fields for equality, timestamps for ranges) — planner
    /// mechanics are capability-agnostic; engines advertise narrower
    /// sets matching their actual indexes.
    struct CommonFields;

    impl PushdownCapability for CommonFields {
        fn pushable_eq(&self, column: &str) -> bool {
            matches!(
                column,
                "task_id"
                    | "campaign_id"
                    | "workflow_id"
                    | "activity_id"
                    | "hostname"
                    | "status"
                    | "type"
                    | "started_at"
                    | "ended_at"
            )
        }
        fn pushable_range(&self, column: &str) -> bool {
            matches!(column, "started_at" | "ended_at")
        }
    }

    fn plan_text(text: &str) -> QueryPlan {
        plan(&parse(text).unwrap(), &CommonFields)
    }

    /// [`CommonFields`] plus a columnar layer over the hot scalar set
    /// (mirroring `prov_db`'s sidecar advertisement).
    struct ColumnarFields;

    impl PushdownCapability for ColumnarFields {
        fn pushable_eq(&self, column: &str) -> bool {
            CommonFields.pushable_eq(column)
        }
        fn pushable_range(&self, column: &str) -> bool {
            CommonFields.pushable_range(column)
        }
        fn pushable_columnar(&self, column: &str) -> bool {
            matches!(
                column,
                "task_id"
                    | "workflow_id"
                    | "activity_id"
                    | "hostname"
                    | "status"
                    | "started_at"
                    | "ended_at"
                    | "duration"
            )
        }
        fn pushable_sort(&self, column: &str) -> bool {
            // Mirrors prov_db: whatever lives columnar can be ordered.
            self.pushable_columnar(column)
        }
    }

    fn plan_columnar(text: &str) -> PipelinePlan {
        match plan(&parse(text).unwrap(), &ColumnarFields) {
            QueryPlan::Pipeline(p) => p,
            QueryPlan::Len(inner) => match *inner {
                QueryPlan::Pipeline(p) => p,
                other => panic!("expected pipeline, got {other:?}"),
            },
            other => panic!("expected pipeline, got {other:?}"),
        }
    }

    #[test]
    fn eq_conjunct_is_pushed_and_removed_from_residual() {
        let p = plan_text(r#"df[df["activity_id"] == "power"][["task_id", "y"]]"#);
        let QueryPlan::Pipeline(p) = p else {
            panic!("pipeline")
        };
        assert_eq!(
            p.scan.pushed,
            vec![PushedFilter {
                column: "activity_id".into(),
                op: PushOp::Eq,
                value: Value::from("power"),
            }]
        );
        assert_eq!(p.scan.residual, None);
        // The pushed conjunct's column is served by the store, so it is
        // not materialized into the projected frame.
        assert_eq!(
            p.scan.columns.as_deref(),
            Some(&["task_id".to_string(), "y".into()][..])
        );
        assert_eq!(
            p.ops,
            vec![PlanNode::Project(vec!["task_id".into(), "y".into()])]
        );
    }

    #[test]
    fn mixed_conjunction_splits() {
        let p = plan_text(r#"df[(df["started_at"] > 10) & (df["y"] > 3)]["y"].mean()"#);
        let QueryPlan::Pipeline(p) = p else {
            panic!("pipeline")
        };
        assert_eq!(p.scan.pushed.len(), 1);
        assert_eq!(p.scan.pushed[0].op, PushOp::Gt);
        assert_eq!(p.scan.residual, Some(col("y").gt(lit(3))));
    }

    #[test]
    fn flipped_comparison_normalizes() {
        let q = Query::pipeline(vec![
            Stage::Filter(lit(5).lt(col("started_at"))),
            Stage::Count,
        ]);
        let QueryPlan::Pipeline(p) = plan(&q, &CommonFields) else {
            panic!("pipeline")
        };
        assert_eq!(p.scan.pushed[0].op, PushOp::Gt);
        assert_eq!(p.scan.pushed[0].column, "started_at");
    }

    #[test]
    fn or_not_ne_and_contains_stay_residual() {
        for text in [
            r#"df[(df["activity_id"] == "a") | (df["activity_id"] == "b")].shape[0]"#,
            r#"df[df["activity_id"] != "a"].shape[0]"#,
            r#"df[~(df["activity_id"] == "a")].shape[0]"#,
            r#"df[df["hostname"].str.contains("n0")].shape[0]"#,
        ] {
            let QueryPlan::Pipeline(p) = plan_text(text) else {
                panic!("pipeline")
            };
            assert!(p.scan.pushed.is_empty(), "{text}");
            assert!(p.scan.residual.is_some(), "{text}");
        }
    }

    #[test]
    fn null_literals_are_never_pushed() {
        // A store compares present values against Null by kind-tag
        // ordering; the frame executor short-circuits to false. Pushing
        // would flip the answer, so Null conjuncts must stay residual.
        for text in [
            r#"df[df["started_at"] > None].shape[0]"#,
            r#"df[df["started_at"] == None].shape[0]"#,
            r#"df[df["activity_id"] == None].shape[0]"#,
        ] {
            let QueryPlan::Pipeline(p) = plan_text(text) else {
                panic!("pipeline")
            };
            assert!(p.scan.pushed.is_empty(), "{text}");
            assert!(p.scan.residual.is_some(), "{text}");
        }
    }

    #[test]
    fn unpushable_column_stays_residual() {
        // `duration` is computed at frame-build time; no store path.
        let QueryPlan::Pipeline(p) = plan_text(r#"df[df["duration"] > 1.0].shape[0]"#) else {
            panic!("pipeline")
        };
        assert!(p.scan.pushed.is_empty());
        assert_eq!(p.scan.residual, Some(col("duration").gt(lit(1.0))));
    }

    #[test]
    fn whole_frame_output_is_unbounded() {
        let QueryPlan::Pipeline(p) = plan_text(r#"df[df["activity_id"] == "a"]"#) else {
            panic!("pipeline")
        };
        assert_eq!(p.scan.columns, None);
        // But the filter is still pushed: an executor with full-width
        // materialization could use it.
        assert!(p.has_pushdown());
    }

    #[test]
    fn len_wrapping_tightens_projection() {
        let p = plan_text(r#"len(df[df["status"] == "FINISHED"])"#);
        let QueryPlan::Len(inner) = p else {
            panic!("len")
        };
        let QueryPlan::Pipeline(p) = *inner else {
            panic!("pipeline")
        };
        // The status conjunct is pushed; only the row count is observed,
        // so the scan materializes no columns at all.
        assert_eq!(p.scan.columns, Some(Vec::new()));
    }

    #[test]
    fn len_of_subsetless_dedup_stays_unbounded() {
        let p = plan_text(r#"len(df.drop_duplicates())"#);
        let QueryPlan::Len(inner) = p else {
            panic!("len")
        };
        let QueryPlan::Pipeline(p) = *inner else {
            panic!("pipeline")
        };
        assert_eq!(p.scan.columns, None, "full-width dedup changes row count");
    }

    #[test]
    fn groupby_and_loc_cell_bound_the_columns() {
        let QueryPlan::Pipeline(p) = plan_text(r#"df.groupby("activity_id")["duration"].mean()"#)
        else {
            panic!("pipeline")
        };
        assert_eq!(
            p.scan.columns.as_deref(),
            Some(&["activity_id".to_string(), "duration".into()][..])
        );
        let QueryPlan::Pipeline(p) = plan_text(r#"df.loc[df["y"].idxmax(), "task_id"]"#) else {
            panic!("pipeline")
        };
        assert_eq!(
            p.scan.columns.as_deref(),
            Some(&["y".to_string(), "task_id".into()][..])
        );
        // Whole-row loc needs every column, lowered to a top-1 scan or not.
        let QueryPlan::Pipeline(p) = plan_text(r#"df.loc[df["y"].idxmax()]"#) else {
            panic!("pipeline")
        };
        assert_eq!(p.scan.columns, None);
        let p = plan_columnar(r#"df.loc[df["duration"].idxmax()]"#);
        assert_eq!(p.scan.limit, Some(1));
        assert_eq!(p.scan.columns, None);
        assert!(!p.scan.columnar_only);
        // The lowered cell form still projects the key and the cell.
        let p = plan_columnar(r#"df.loc[df["duration"].idxmin(), "task_id"]"#);
        assert_eq!(p.scan.limit, Some(1));
        assert_eq!(
            p.scan.columns.as_deref(),
            Some(&["duration".to_string(), "task_id".into()][..])
        );
    }

    /// The pipeline plan of `stages` under [`ColumnarFields`].
    fn plan_stages(stages: Vec<Stage>) -> PipelinePlan {
        match plan(&Query::pipeline(stages), &ColumnarFields) {
            QueryPlan::Pipeline(p) => p,
            other => panic!("expected pipeline, got {other:?}"),
        }
    }

    fn loc(column: &str, max: bool, cell: Option<&str>) -> Stage {
        Stage::LocIdx {
            column: column.into(),
            max,
            cell: cell.map(Into::into),
        }
    }

    #[test]
    fn loc_extremes_lower_to_a_top1_scan() {
        let notna = |c: &str| NullTestFilter {
            column: c.into(),
            present: true,
        };
        for max in [true, false] {
            for cell in [None, Some("task_id")] {
                let what = format!("max {max}, cell {cell:?}");
                let p = plan_stages(vec![loc("duration", max, cell)]);
                assert_eq!(p.scan.nulls, vec![notna("duration")], "{what}");
                assert_eq!(p.scan.sort, vec![("duration".to_string(), !max)], "{what}");
                assert_eq!(p.scan.limit, Some(1), "{what}");
                // LocIdx stays downstream, over the one survivor.
                assert_eq!(p.ops, vec![PlanNode::Residual(loc("duration", max, cell))]);
                // Scan-side conjuncts in front keep the prefix clean.
                let p = plan_stages(vec![
                    Stage::Filter(col("status").ne(lit("ERROR"))),
                    loc("duration", max, cell),
                ]);
                assert_eq!(p.scan.columnar.len(), 1, "{what}");
                assert_eq!(p.scan.limit, Some(1), "{what}");
            }
        }
        // The parsed golden shape lowers the same way.
        let p = plan_columnar(r#"df.loc[df["started_at"].idxmax()]"#);
        assert_eq!(p.scan.sort, vec![("started_at".to_string(), false)]);
        assert_eq!(p.scan.nulls, vec![notna("started_at")]);
    }

    #[test]
    fn loc_extremes_stay_unlowered_behind_a_residual_or_on_an_unsortable_key() {
        let unlowered = |p: &PipelinePlan, what: &str| {
            assert!(p.scan.nulls.is_empty(), "{what}");
            assert!(p.scan.sort.is_empty(), "{what}");
            assert_eq!(p.scan.limit, None, "{what}");
        };
        for max in [true, false] {
            for cell in [None, Some("task_id")] {
                // A residual filter in front: the scan's rows are not the
                // rows loc sees.
                let p = plan_stages(vec![
                    Stage::Filter(col("y").gt(lit(1))),
                    loc("duration", max, cell),
                ]);
                assert!(p.scan.residual.is_some());
                unlowered(&p, "behind a residual filter");
                // `y` has no column vector, so the store cannot order it.
                unlowered(&plan_stages(vec![loc("y", max, cell)]), "unsortable key");
                // A reordering stage in front changes which row is first.
                let p = plan_stages(vec![
                    Stage::SortValues(vec![("started_at".into(), true)]),
                    loc("duration", max, cell),
                ]);
                assert_eq!(p.scan.limit, None, "behind a sort");
            }
        }
        // Without sort capability nothing is lowered either.
        let QueryPlan::Pipeline(p) = plan_text(r#"df.loc[df["started_at"].idxmax()]"#) else {
            panic!("pipeline")
        };
        unlowered(&p, "no sort capability");
    }

    #[test]
    fn limit_pushdown_requires_clean_prefix() {
        let QueryPlan::Pipeline(p) =
            plan_text(r#"df[df["workflow_id"] == "wf-1"][["task_id"]].head(3)"#)
        else {
            panic!("pipeline")
        };
        assert_eq!(p.scan.limit, Some(3));
        // A sort in front blocks the limit; a residual filter does too.
        let QueryPlan::Pipeline(p) =
            plan_text(r#"df.sort_values("started_at")[["task_id"]].head(3)"#)
        else {
            panic!("pipeline")
        };
        assert_eq!(p.scan.limit, None);
        let QueryPlan::Pipeline(p) = plan_text(r#"df[df["y"] > 1][["task_id"]].head(3)"#) else {
            panic!("pipeline")
        };
        assert_eq!(p.scan.limit, None);
    }

    #[test]
    fn unindexed_and_ne_conjuncts_go_columnar() {
        // `duration` has no index (derived at decode time) and `!=` can
        // never probe a hash index; with a columnar layer both become
        // scan-evaluated conjuncts instead of residual frame filters.
        let p = plan_columnar(
            r#"df[(df["duration"] > 1.0) & (df["status"] != "ERROR")]["duration"].mean()"#,
        );
        assert!(p.scan.pushed.is_empty());
        assert_eq!(
            p.scan.columnar,
            vec![
                ColumnarFilter {
                    column: "duration".into(),
                    op: CmpOp::Gt,
                    value: Value::Float(1.0),
                },
                ColumnarFilter {
                    column: "status".into(),
                    op: CmpOp::Ne,
                    value: Value::from("ERROR"),
                },
            ]
        );
        assert_eq!(p.scan.residual, None);
        // Columnar conjuncts are evaluated pre-frame: their columns are
        // not dragged into the projection (status is absent).
        assert_eq!(
            p.scan.columns.as_deref(),
            Some(&["duration".to_string()][..])
        );
        assert!(p.scan.columnar_only);
    }

    #[test]
    fn columnar_only_requires_every_referenced_column() {
        let p = plan_columnar(r#"df.groupby("activity_id")["duration"].mean()"#);
        assert!(p.scan.columnar_only, "all-columnar aggregate");
        let p = plan_columnar(r#"df.groupby("activity_id")["y"].mean()"#);
        assert!(!p.scan.columnar_only, "y has no column vector");
        let p = plan_columnar(r#"df[df["status"] == "ERROR"]"#);
        assert!(!p.scan.columnar_only, "whole-width output");
    }

    #[test]
    fn columnar_conjuncts_do_not_block_limit_pushdown() {
        // Scan-evaluated conjuncts filter before the limit counts, unlike
        // a residual frame filter.
        let p = plan_columnar(r#"df[df["status"] != "PENDING"][["task_id"]].head(3)"#);
        assert!(p.scan.residual.is_none());
        assert_eq!(p.scan.columnar.len(), 1);
        assert_eq!(p.scan.limit, Some(3));
        // A genuinely residual filter still blocks it.
        let p = plan_columnar(r#"df[df["y"] > 1][["task_id"]].head(3)"#);
        assert_eq!(p.scan.limit, None);
    }

    #[test]
    fn pushed_sort_unblocks_limit_pushdown() {
        // A leading sort over a pushable key no longer blocks the head():
        // the pair becomes a top-k scan. Both nodes stay downstream.
        let p = plan_columnar(
            r#"df.sort_values("started_at", ascending=False)[["task_id", "started_at"]].head(3)"#,
        );
        assert_eq!(p.scan.sort, vec![("started_at".to_string(), false)]);
        assert_eq!(p.scan.limit, Some(3));
        assert!(matches!(p.ops[0], PlanNode::Sort(_)));
        assert!(matches!(p.ops[2], PlanNode::Limit(3)));
        // A projection between sort and head is column-preserving and
        // order-preserving; the walk steps over it.
        let p = plan_columnar(r#"df.sort_values("duration")[["task_id"]].head(5)"#);
        assert_eq!(p.scan.sort, vec![("duration".to_string(), true)]);
        assert_eq!(p.scan.limit, Some(5));
        // A bare pushable sort (no head) is still pushed.
        let p = plan_columnar(r#"df.sort_values("started_at")[["task_id", "started_at"]]"#);
        assert_eq!(p.scan.sort, vec![("started_at".to_string(), true)]);
        assert_eq!(p.scan.limit, None);
    }

    #[test]
    fn unpushable_sort_key_still_blocks_limit() {
        // `y` has no column vector: the sort stays frame-side and, as
        // before, blocks the limit behind it.
        let p = plan_columnar(r#"df.sort_values("y")[["task_id"]].head(3)"#);
        assert!(p.scan.sort.is_empty());
        assert_eq!(p.scan.limit, None);
        // Multi-key sorts push only when *every* key is orderable.
        let p = plan_columnar(r#"df.sort_values(["duration", "y"])[["task_id"]].head(3)"#);
        assert!(p.scan.sort.is_empty());
        assert_eq!(p.scan.limit, None);
        let p = plan_columnar(r#"df.sort_values(["duration", "started_at"])[["task_id"]].head(3)"#);
        assert_eq!(
            p.scan.sort,
            vec![
                ("duration".to_string(), true),
                ("started_at".to_string(), true)
            ]
        );
        assert_eq!(p.scan.limit, Some(3));
    }

    #[test]
    fn residual_filter_or_second_sort_blocks_sort_pushdown() {
        // A residual filter in front drops rows the scan would order.
        let p = plan_columnar(r#"df[df["y"] > 1].sort_values("started_at")[["task_id"]].head(2)"#);
        assert!(p.scan.sort.is_empty());
        assert_eq!(p.scan.limit, None);
        // Columnar conjuncts are applied by the scan itself, so they do
        // not block the pair.
        let p = plan_columnar(
            r#"df[df["status"] != "ERROR"].sort_values("started_at")[["task_id"]].head(2)"#,
        );
        assert_eq!(p.scan.sort.len(), 1);
        assert_eq!(p.scan.limit, Some(2));
        // A second sort re-orders: the walk stops, the limit stays put,
        // and the first sort is retracted — its ordering would be
        // computed by the scan only to be discarded.
        let p = plan_columnar(
            r#"df.sort_values("started_at").sort_values("duration")[["task_id"]].head(2)"#,
        );
        assert!(p.scan.sort.is_empty());
        assert_eq!(p.scan.limit, None);
        // A pushed sort ahead of an order-sensitive stage is kept: the
        // group-by's first-seen group order depends on it.
        let p = plan_columnar(
            r#"df.sort_values("duration").groupby("activity_id")["duration"].mean()"#,
        );
        assert_eq!(p.scan.sort, vec![("duration".to_string(), true)]);
    }

    #[test]
    fn sort_pushdown_needs_the_capability() {
        // CommonFields advertises no sort capability: the PR 3 behavior —
        // sorts block limits — is exactly preserved.
        let QueryPlan::Pipeline(p) =
            plan_text(r#"df.sort_values("started_at")[["task_id"]].head(3)"#)
        else {
            panic!("pipeline")
        };
        assert!(p.scan.sort.is_empty());
        assert_eq!(p.scan.limit, None);
    }

    #[test]
    fn null_literals_stay_residual_even_with_columnar() {
        let p = plan_columnar(r#"df[df["status"] == None].shape[0]"#);
        assert!(p.scan.columnar.is_empty());
        assert!(p.scan.residual.is_some());
    }

    #[test]
    fn isin_conjunct_goes_to_the_scan() {
        let p = plan_columnar(r#"df[df["status"].isin(["FINISHED", "ERROR"])]["duration"].mean()"#);
        assert_eq!(
            p.scan.isin,
            vec![InListFilter {
                column: "status".into(),
                values: vec![Value::from("FINISHED"), Value::from("ERROR")],
            }]
        );
        assert_eq!(p.scan.residual, None);
        // The scan serves the membership test over codes; the status
        // column is not dragged into the materialized frame.
        assert_eq!(
            p.scan.columns.as_deref(),
            Some(&["duration".to_string()][..])
        );
        assert!(p.scan.columnar_only);
    }

    #[test]
    fn isin_with_null_element_or_unpushable_column_stays_residual() {
        // A null list element would make the pushed literal set contain
        // Null; keep the whole conjunct residual, like `== None`.
        let p = plan_columnar(r#"df[df["status"].isin(["FINISHED", None])].shape[0]"#);
        assert!(p.scan.isin.is_empty());
        assert!(p.scan.residual.is_some());
        // No column vector for `y`: nothing to probe codes against.
        let p = plan_columnar(r#"df[df["y"].isin([1, 2])].shape[0]"#);
        assert!(p.scan.isin.is_empty());
        assert!(p.scan.residual.is_some());
    }

    #[test]
    fn isin_does_not_block_limit_or_sort_pushdown() {
        let p = plan_columnar(
            r#"df[df["hostname"].isin(["n0", "n1"])].sort_values("started_at")[["task_id"]].head(3)"#,
        );
        assert_eq!(p.scan.isin.len(), 1);
        assert!(p.scan.residual.is_none());
        assert_eq!(p.scan.sort, vec![("started_at".to_string(), true)]);
        assert_eq!(p.scan.limit, Some(3));
    }

    #[test]
    fn binary_query_plans_both_sides() {
        let p = plan_text(r#"df["ended_at"].max() - df["started_at"].min()"#);
        assert_eq!(p.pipelines().len(), 2);
        assert!(p.fully_projected());
    }

    #[test]
    fn nodes_round_trip_to_stages() {
        let QueryPlan::Pipeline(p) = plan_text(
            r#"df[df["y"] > 1].sort_values("y", ascending=False)[["task_id", "y"]].head(2)"#,
        ) else {
            panic!("pipeline")
        };
        let stages: Vec<Stage> = p.ops.iter().map(PlanNode::to_stage).collect();
        assert_eq!(
            stages,
            vec![
                Stage::SortValues(vec![("y".into(), false)]),
                Stage::Select(vec!["task_id".into(), "y".into()]),
                Stage::Head(2),
            ]
        );
    }

    // ---- cache-key canonicalization ------------------------------------

    fn fp(text: &str) -> u64 {
        fingerprint(&plan_text(text))
    }

    #[test]
    fn fingerprint_ignores_conjunct_order() {
        // Both conjuncts push down; the scan's pushed list sorts.
        assert_eq!(
            fp(r#"df[(df["activity_id"] == "power") & (df["started_at"] > 10)]["y"].mean()"#),
            fp(r#"df[(df["started_at"] > 10) & (df["activity_id"] == "power")]["y"].mean()"#),
        );
        // Neither conjunct pushes; the residual And chain sorts.
        assert_eq!(
            fp(r#"df[(df["x"] > 1) & (df["y"] > 2)]["y"].mean()"#),
            fp(r#"df[(df["y"] > 2) & (df["x"] > 1)]["y"].mean()"#),
        );
    }

    #[test]
    fn fingerprint_canonicalizes_numeric_literal_spellings() {
        // Pushed position.
        assert_eq!(
            fp(r#"df[df["started_at"] == 5]["y"].mean()"#),
            fp(r#"df[df["started_at"] == 5.0]["y"].mean()"#),
        );
        // Residual comparison position.
        assert_eq!(
            fp(r#"df[df["y"] > 3]["y"].mean()"#),
            fp(r#"df[df["y"] > 3.0]["y"].mean()"#),
        );
        // Inexactly-representable floats keep their own spelling.
        assert_ne!(
            fp(r#"df[df["y"] > 3]["y"].mean()"#),
            fp(r#"df[df["y"] > 3.5]["y"].mean()"#),
        );
    }

    #[test]
    fn fingerprint_ignores_isin_order_and_duplicates() {
        assert_eq!(
            fp(r#"df[df["hostname"].isin(["a", "b"])]["y"].mean()"#),
            fp(r#"df[df["hostname"].isin(["b", "a", "b"])]["y"].mean()"#),
        );
        assert_ne!(
            fp(r#"df[df["hostname"].isin(["a", "b"])]["y"].mean()"#),
            fp(r#"df[df["hostname"].isin(["a", "c"])]["y"].mean()"#),
        );
    }

    #[test]
    fn fingerprint_distinguishes_semantics() {
        // Different comparison op.
        assert_ne!(
            fp(r#"df[df["y"] > 3]["y"].mean()"#),
            fp(r#"df[df["y"] >= 3]["y"].mean()"#),
        );
        // Different literal.
        assert_ne!(
            fp(r#"df[df["y"] > 3]["y"].mean()"#),
            fp(r#"df[df["y"] > 4]["y"].mean()"#),
        );
        // Sort direction and limit are order-sensitive.
        assert_ne!(
            fp(r#"df.sort_values("started_at").head(3)"#),
            fp(r#"df.sort_values("started_at", ascending=False).head(3)"#),
        );
        assert_ne!(
            fp(r#"df.sort_values("started_at").head(3)"#),
            fp(r#"df.sort_values("started_at").head(4)"#),
        );
        // Arithmetic does NOT collapse Int/Float: 5 and 5.0 can yield
        // differently-typed derived values.
        assert_ne!(
            fp(r#"df[df["y"] + 5 > 10]["y"].mean()"#),
            fp(r#"df[df["y"] + 5.0 > 10]["y"].mean()"#),
        );
    }

    #[test]
    fn cache_key_is_stable_across_reparses() {
        let text = r#"df[(df["started_at"] > 10) & (df["hostname"] == "n0")]["duration"].mean()"#;
        assert_eq!(cache_key(&plan_text(text)), cache_key(&plan_text(text)));
    }
}
