//! Plan-based pushdown executor: serve provql query plans directly from
//! the document store's indexes and column vectors instead of
//! materializing the whole corpus into a frame per query.
//!
//! [`execute_plan`] is the one way a plan runs, and it runs against a
//! pinned [`StoreSnapshot`]: every kernel it calls takes the snapshot's
//! per-shard row bound and honours it inside its loops, so rows ingested
//! after the pin are invisible and a pushed limit stops the scan early.
//! Callers lower the query with [`provql::plan()`] first (this module
//! implements [`PushdownCapability`] for [`ProvenanceDatabase`]; the
//! snapshot delegates to it). Each scan's pushed and planner-split
//! conjuncts evaluate over the columnar sidecar — equality conjuncts on
//! indexed fields seed the scan from hash-index probes, `started_at`
//! ranges hit the sorted numeric index — then a *projected* frame holding
//! only the referenced columns of the survivors finishes the pipeline
//! through the ordinary stage machine. Pushdown therefore never
//! reimplements query semantics; it only shrinks how many rows reach the
//! frame.
//!
//! When a plan is not servable ([`Pushdown::NeedsFullFrame`]) the caller
//! runs the stage machine on the snapshot's oracle frame
//! ([`StoreSnapshot::oracle_frame`]) instead. That happens when:
//!
//! * a pipeline's output exposes the whole frame width (no projection,
//!   whole-row `loc`, `describe`, subset-less `drop_duplicates`) — only
//!   the corpus-wide column union can answer those;
//! * a referenced column is absent from every visible document — the
//!   oracle decides whether that is an all-null column or an unknown-column
//!   error, and its error message carries the full available-column list;
//! * a filter column stopped being columnar-servable after planning, or
//!   a visible sort key is NaN.
//!
//! The fallback costs the delta, not the corpus, on an append-only
//! store: the oracle frame is extended from the database's newest built
//! frame by the rows past its bound (see
//! [`StoreSnapshot::oracle_frame`]), and the stage machine reads it in
//! place instead of copying it.
//!
//! Because the fallback is the oracle itself, pushdown is transparent:
//! both paths return identical [`QueryOutput`]s (asserted per eval query
//! set by the differential tests in `eval`).

use crate::csr::CsrGraph;
use crate::document::{DocumentStore, ScanPredicate, TopkScan};
use crate::snapshot::StoreSnapshot;
use crate::store::ProvenanceDatabase;
use dataframe::{CmpOp, DataFrame};
use prov_model::{TaskMessage, Value};
use provql::plan::{PipelinePlan, PushOp, PushdownCapability, QueryPlan};
use provql::{ExecError, GraphQuery, Pipeline, QueryOutput, Stage};

/// Outcome of attempting a plan-based execution.
#[derive(Debug)]
pub enum Pushdown {
    /// The plan was served from the store (result may still be a query
    /// error, e.g. an invalid stage combination — identical to what the
    /// full-materialize path would raise).
    Executed(Result<QueryOutput, ExecError>),
    /// The plan is not servable by a projected scan; run the
    /// full-materialize oracle. Carries a diagnostic reason.
    NeedsFullFrame(&'static str),
}

/// The columns whose equality conjuncts are index-servable: exactly the
/// fields [`ProvenanceDatabase::new`] builds hash indexes for (their
/// frame column is the document path of the same name, byte-for-byte
/// equal in both representations). A pushed conjunct must earn an index
/// probe — advertising unindexed columns would classify full-scan
/// queries as "selective" and make callers bypass the cached frame they
/// built precisely to amortize repeated corpus-wide work.
const PUSHABLE_EQ: &[&str] = &["task_id", "activity_id", "workflow_id", "started_at"];

/// Fields a range conjunct can be pushed on: the sorted numeric index
/// maintained on `started_at`.
const PUSHABLE_RANGE: &[&str] = &["started_at"];

impl PushdownCapability for ProvenanceDatabase {
    fn pushable_eq(&self, column: &str) -> bool {
        PUSHABLE_EQ.contains(&column)
    }
    fn pushable_range(&self, column: &str) -> bool {
        PUSHABLE_RANGE.contains(&column)
    }
    fn pushable_columnar(&self, column: &str) -> bool {
        // Metadata-only probe; pending stream ingest cannot un-poison a
        // column, so planning never pays a flush.
        self.documents_unflushed().columnar_servable(column)
    }
    fn pushable_sort(&self, column: &str) -> bool {
        // Exactly the columnar set: the top-k executor orders rows by
        // comparing column-vector cells (or streaming `started_at`'s
        // sorted index, which is itself columnar), so whatever lives
        // columnar can be ordered without materializing a frame.
        self.documents_unflushed().columnar_servable(column)
    }
}

/// Execute a lowered plan against a pinned snapshot. Reads go through
/// the bounded kernels (rows above the snapshot's per-shard high-water
/// mark are invisible) and nothing is flushed — snapshot creation already
/// materialized everything visible, so this never touches the flusher
/// lock and never blocks on ingest. Graph primitives run on the
/// snapshot's pinned CSR compaction.
pub fn execute_plan(snap: &StoreSnapshot, plan: &QueryPlan) -> Pushdown {
    match plan {
        QueryPlan::Pipeline(p) => exec_pipeline(snap.documents(), p, snap.bound()),
        QueryPlan::Len(inner) => match execute_plan(snap, inner) {
            Pushdown::Executed(Ok(out)) => Pushdown::Executed(Ok(QueryOutput::Scalar(
                prov_model::Value::Int(out.len() as i64),
            ))),
            other => other,
        },
        QueryPlan::Binary(a, op, b) => {
            // Strict left-to-right evaluation, matching the frame
            // executor: the left side is executed AND validated as a
            // scalar before the right side runs, so both paths surface
            // the same error for the same query.
            let left = match execute_plan(snap, a) {
                Pushdown::Executed(Ok(out)) => out,
                other => return other,
            };
            let left = match provql::scalar_operand(left) {
                Ok(v) => v,
                Err(e) => return Pushdown::Executed(Err(e)),
            };
            let right = match execute_plan(snap, b) {
                Pushdown::Executed(Ok(out)) => out,
                other => return other,
            };
            let right = match provql::scalar_operand(right) {
                Ok(v) => v,
                Err(e) => return Pushdown::Executed(Err(e)),
            };
            Pushdown::Executed(provql::arith_scalars(left, *op, right))
        }
        QueryPlan::Number(n) => {
            Pushdown::Executed(Ok(QueryOutput::Scalar(prov_model::Value::Float(*n))))
        }
        QueryPlan::Graph(g) => Pushdown::Executed(Ok(exec_graph(snap, g))),
    }
}

/// Execute one graph path primitive on the snapshot's CSR kernels.
/// Traversals answer as a two-column frame `[task_id, depth]` in BFS
/// emission order; `paths(a, b)` answers as a series named `path` holding
/// the node sequence (empty when unreachable).
fn exec_graph(snap: &StoreSnapshot, g: &GraphQuery) -> QueryOutput {
    let csr: &CsrGraph = snap.graph_csr();
    match g {
        GraphQuery::Upstream { node, depth } => lineage_frame(csr.upstream(node, *depth)),
        GraphQuery::Downstream { node, depth } => lineage_frame(csr.downstream(node, *depth)),
        GraphQuery::Khop { node, k } => lineage_frame(csr.khop(node, *k)),
        GraphQuery::Paths { from, to } => path_series(
            csr.shortest_path(from, to)
                .map(|p| p.into_iter().map(Value::Str).collect()),
        ),
    }
}

fn lineage_frame(hits: Vec<(prov_model::Sym, usize)>) -> QueryOutput {
    let (ids, depths): (Vec<Value>, Vec<Value>) = hits
        .into_iter()
        .map(|(id, d)| (Value::Str(id), Value::Int(d as i64)))
        .unzip();
    QueryOutput::Frame(
        DataFrame::from_columns(vec![("task_id", ids), ("depth", depths)])
            .expect("lineage columns are parallel by construction"),
    )
}

fn path_series(path: Option<Vec<Value>>) -> QueryOutput {
    QueryOutput::Series {
        name: "path".to_string(),
        values: path.unwrap_or_default(),
    }
}

fn push_to_cmp(op: PushOp) -> CmpOp {
    match op {
        PushOp::Eq => CmpOp::Eq,
        PushOp::Lt => CmpOp::Lt,
        PushOp::Le => CmpOp::Le,
        PushOp::Gt => CmpOp::Gt,
        PushOp::Ge => CmpOp::Ge,
    }
}

/// The columns a pipeline's non-filter stages require to exist. Filters
/// are exempt: a missing column evaluates per-row as null (never an
/// error), exactly like an all-null column, so filter-only references stay
/// servable even when zero documents survive the scan.
fn checked_columns(p: &PipelinePlan) -> Vec<String> {
    Pipeline {
        stages: p
            .ops
            .iter()
            .map(|op| op.to_stage())
            .filter(|s| !matches!(s, Stage::Filter(_)))
            .collect(),
    }
    .referenced_columns()
}

fn finish_stages(p: &PipelinePlan, frame: &DataFrame) -> Pushdown {
    let mut stages: Vec<Stage> = Vec::with_capacity(p.ops.len() + 1);
    if let Some(residual) = &p.scan.residual {
        stages.push(Stage::Filter(residual.clone()));
    }
    stages.extend(p.ops.iter().map(|op| op.to_stage()));
    Pushdown::Executed(provql::execute_stages(&stages, frame))
}

fn exec_pipeline(store: &DocumentStore, p: &PipelinePlan, bound: &[usize]) -> Pushdown {
    let Some(columns) = &p.scan.columns else {
        return Pushdown::NeedsFullFrame("output exposes the whole frame width");
    };
    // `None`: a filter column stopped being servable between planning and
    // execution (dataflow-key poisoning raced in); the conjuncts the
    // planner split out have nowhere to run but the oracle.
    exec_pipeline_columnar(store, p, columns, bound).unwrap_or(Pushdown::NeedsFullFrame(
        "columnar layer no longer serves a planned conjunct",
    ))
}

/// The columnar scan: pushed *and* planner-split residual `col op lit`
/// conjuncts all evaluate over the sidecar's column vectors with frame
/// semantics (index probes pre-filter candidates when safe), a pushed
/// sort routes through the streaming top-k executor
/// ([`DocumentStore::columnar_topk_where`]: per-shard bounded selection over
/// the vectors, or a sorted-index cursor, survivors ordered by the exact
/// frame sort rule before any pushed limit truncates), and every
/// referenced columnar column is materialized straight from the vectors —
/// surviving documents are decoded only for columns the sidecar does not
/// hold (for a sorted+limited pipeline that means at most `k` decodes,
/// and zero when the pipeline is fully columnar). Because the sidecar
/// knows corpus-wide column presence, a checked columnar column that
/// exists corpus-wide never forces the oracle, even when no survivor
/// provides it (it materializes all-null, exactly as the filtered oracle
/// frame would show it).
///
/// Returns `None` when a filter column is not servable (caller falls back).
fn exec_pipeline_columnar(
    store: &DocumentStore,
    p: &PipelinePlan,
    columns: &[String],
    bound: &[usize],
) -> Option<Pushdown> {
    let mut filters: Vec<ScanPredicate<'_>> =
        Vec::with_capacity(p.scan.pushed.len() + p.scan.columnar.len() + p.scan.isin.len());
    for f in &p.scan.pushed {
        // Pushed conjuncts are re-verified against the decoded cell values
        // so index/frame coercion differences can never leak a row the
        // oracle would not produce.
        filters.push(ScanPredicate::Cmp(
            f.column.as_str(),
            push_to_cmp(f.op),
            &f.value,
        ));
    }
    for f in &p.scan.columnar {
        filters.push(ScanPredicate::Cmp(f.column.as_str(), f.op, &f.value));
    }
    for f in &p.scan.isin {
        // Membership lists compile to dictionary code sets (or f64 probe
        // lists) inside the scan kernels; the planner already kept any
        // null-element list residual.
        filters.push(ScanPredicate::In(f.column.as_str(), &f.values));
    }
    let survivors = if p.scan.sort.is_empty() {
        store.columnar_scan_where(&filters, p.scan.limit, bound)?
    } else {
        // Top-k: the scan orders survivors by the frame's sort rule
        // before the limit truncates, so the frame below is built in
        // final order — the kept Sort node downstream is a stable re-sort
        // of already-ordered rows, i.e. the identity (guaranteed because
        // NaN keys, the one case where the comparator is not a strict
        // weak order, abort to the oracle here).
        let keys: Vec<(&str, bool)> = p
            .scan
            .sort
            .iter()
            .map(|(c, asc)| (c.as_str(), *asc))
            .collect();
        match store.columnar_topk_where(&filters, &keys, p.scan.limit, bound) {
            TopkScan::Served(ids) => ids,
            TopkScan::NotServable => return None,
            TopkScan::NanSortKey => {
                return Some(Pushdown::NeedsFullFrame(
                    "NaN sort key: only the oracle's stable sort defines that order",
                ))
            }
        }
    };

    if let Some(result) = grouped_agg_over_codes(store, p, &survivors, bound) {
        return Some(result);
    }

    let checked = checked_columns(p);
    let decode_cols: Vec<String> = columns
        .iter()
        .filter(|c| !store.columnar_servable(c))
        .cloned()
        .collect();
    let decoded: Option<DataFrame> = if decode_cols.is_empty() {
        None
    } else {
        let docs = store.docs_for_ids(&survivors);
        let msgs: Vec<TaskMessage> = docs
            .iter()
            .filter_map(|d| TaskMessage::from_value(d))
            .collect();
        Some(DataFrame::from_messages_projected(&msgs, &decode_cols))
    };

    let mut cols_out: Vec<(String, Vec<Value>)> = Vec::with_capacity(columns.len());
    for c in columns {
        // Column presence is corpus-wide metadata; a snapshot's corpus is
        // the rows below its bound.
        if let Some(present) = store.columnar_presence(c, bound) {
            if present > 0 {
                cols_out.push((c.clone(), store.columnar_gather(&survivors, c)?));
            } else if checked.iter().any(|k| k == c) {
                // No decodable document provides the column anywhere: the
                // oracle owns the unknown-column error (its message lists
                // the full corpus-wide column set).
                return Some(Pushdown::NeedsFullFrame(
                    "required column absent corpus-wide",
                ));
            }
            // filter-only + absent: missing ≡ all-null under Expr rules.
        } else {
            match decoded.as_ref().and_then(|f| f.column(c)) {
                Some(col) => cols_out.push((c.clone(), col.values().to_vec())),
                None if checked.iter().any(|k| k == c) => {
                    return Some(Pushdown::NeedsFullFrame(
                        "required column absent from scan survivors",
                    ));
                }
                None => {}
            }
        }
    }
    let frame = DataFrame::from_columns_with_rows(cols_out, survivors.len())
        .expect("scan columns share the survivor count");
    Some(finish_stages(p, &frame))
}

/// Vectorized group-by: serve the `groupby(key)[col].agg(f)` pipeline
/// shape by aggregating over dictionary codes
/// ([`DocumentStore::columnar_group_codes`]) instead of materializing the
/// key column into a frame and re-hashing a `Value` key per row. Group
/// order (first appearance), per-group row order (id order), aggregate
/// arithmetic ([`dataframe::AggFunc::apply`] over the same gathered cells
/// in the same order), and output frame shape (`[key, col]`, bare names)
/// are all bit-identical to the frame path; symbols are resolved from the
/// shard dictionaries only when the per-group output rows are built. Any
/// stages after the aggregation run through the ordinary stage machine on
/// the aggregated frame, exactly as the oracle would reach them.
///
/// Returns `None` for any other pipeline shape (including non-string or
/// absent key/value columns and a pushed sort, whose `Sort` node precedes
/// the group-by), leaving the general scan path to serve or defer it.
fn grouped_agg_over_codes(
    store: &DocumentStore,
    p: &PipelinePlan,
    survivors: &[crate::document::DocId],
    bound: &[usize],
) -> Option<Pushdown> {
    use provql::plan::PlanNode;
    if p.scan.residual.is_some() || p.ops.len() < 3 {
        return None;
    }
    let present = |c: &str| store.columnar_presence(c, bound).is_some_and(|n| n > 0);
    let (
        PlanNode::Residual(Stage::GroupBy(keys)),
        PlanNode::Residual(Stage::Col(col)),
        PlanNode::Residual(Stage::Agg(func)),
    ) = (&p.ops[0], &p.ops[1], &p.ops[2])
    else {
        return None;
    };
    let [key] = keys.as_slice() else {
        return None;
    };
    // Both columns must exist corpus-wide (the general path owns the
    // absent-column fallback), and a self-aggregation's duplicate output
    // column is an error the frame path should raise verbatim.
    if key == col || !present(key) || !present(col) {
        return None;
    }
    let (group_keys, row_groups) = store.columnar_group_codes(survivors, key)?;
    let cells = store.columnar_gather(survivors, col)?;
    let mut grouped: Vec<Vec<Value>> = vec![Vec::new(); group_keys.len()];
    for (&g, v) in row_groups.iter().zip(cells) {
        grouped[g as usize].push(v);
    }
    let aggs: Vec<Value> = grouped.iter().map(|vs| func.apply(vs)).collect();
    let frame = DataFrame::from_columns(vec![(key.clone(), group_keys), (col.clone(), aggs)])
        .expect("group keys and aggregates are parallel by construction");
    let rest: Vec<Stage> = p.ops[3..].iter().map(|op| op.to_stage()).collect();
    Some(Pushdown::Executed(provql::execute_stages(&rest, &frame)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use prov_model::{TaskMessageBuilder, Value};
    use provql::{parse, Query};
    use std::sync::Arc;

    fn seeded_db() -> Arc<ProvenanceDatabase> {
        let db = ProvenanceDatabase::shared();
        let msgs: Vec<TaskMessage> = (0..40)
            .map(|i| {
                TaskMessageBuilder::new(
                    format!("t{i}"),
                    format!("wf-{}", i % 4),
                    if i % 2 == 0 { "run_dft" } else { "postprocess" },
                )
                .host(format!("node{}", i % 3))
                .uses("x", i as f64)
                .generates("y", (i * 2) as f64)
                .span(i as f64, i as f64 + 1.0 + (i % 5) as f64)
                .build()
            })
            .collect();
        db.insert_batch(&msgs);
        db
    }

    /// Pin a snapshot of `db`, plan the query against it, and execute.
    fn run(db: &Arc<ProvenanceDatabase>, query: &Query) -> Pushdown {
        let snap = db.snapshot();
        execute_plan(&snap, &provql::plan(query, &*snap))
    }

    fn assert_differential(db: &Arc<ProvenanceDatabase>, text: &str, expect_pushed: bool) {
        let query = parse(text).unwrap();
        let snap = db.snapshot();
        let oracle = provql::execute(&query, &snap.oracle_frame());
        match execute_plan(&snap, &provql::plan(&query, &*snap)) {
            Pushdown::Executed(got) => {
                assert!(expect_pushed, "{text}: expected fallback, got execution");
                assert_eq!(got, oracle, "{text}");
            }
            Pushdown::NeedsFullFrame(reason) => {
                assert!(!expect_pushed, "{text}: unexpected fallback ({reason})");
            }
        }
    }

    #[test]
    fn pushed_queries_match_oracle() {
        let db = seeded_db();
        for text in [
            r#"len(df[df["activity_id"] == "run_dft"])"#,
            r#"df[df["workflow_id"] == "wf-1"][["task_id", "y"]]"#,
            r#"df[df["workflow_id"] == "wf-1"].groupby("activity_id")["y"].mean()"#,
            r#"df[df["started_at"] > 20]["y"].sum()"#,
            r#"df[(df["activity_id"] == "run_dft") & (df["y"] > 30)]["y"].mean()"#,
            r#"df[df["hostname"] == "node1"][["task_id"]].head(3)"#,
            r#"df["ended_at"].max() - df["started_at"].min()"#,
            r#"df.groupby("activity_id")["duration"].mean()"#,
            r#"df["hostname"].value_counts()"#,
            r#"df.loc[df["y"].idxmax(), "task_id"]"#,
            r#"len(df[df["duration"] > 3])"#,
            r#"df[df["task_id"] == "t7"][["x", "y"]]"#,
            r#"len(df[df["status"] == "ERROR"])"#,
            r#"df.sort_values("duration", ascending=False)[["task_id", "duration"]].head(3)"#,
            // Null comparisons: residual (never pushed), and the residual
            // filter must reproduce the frame executor's null-to-false
            // short-circuit, not the store's kind-tag ordering.
            r#"len(df[df["started_at"] > None])"#,
            r#"len(df[df["started_at"] == None])"#,
        ] {
            assert_differential(&db, text, true);
        }
    }

    #[test]
    fn unbounded_outputs_fall_back() {
        let db = seeded_db();
        for text in [
            r#"df[df["activity_id"] == "run_dft"]"#, // whole-width frame
            r#"df.loc[df["y"].idxmax()]"#,           // whole row
            r#"df.describe()"#,
            r#"df.drop_duplicates()"#,
        ] {
            assert_differential(&db, text, false);
        }
    }

    #[test]
    fn missing_checked_column_falls_back_to_oracle() {
        let db = seeded_db();
        // Unknown column in a projection: the oracle owns the
        // unknown-column error (with its available-column listing).
        let query = parse(r#"df[["nope"]]"#).unwrap();
        match run(&db, &query) {
            Pushdown::NeedsFullFrame(_) => {}
            Pushdown::Executed(out) => panic!("expected fallback, got {out:?}"),
        }
        // A zero-survivor columnar column is not an unknown one: the scan
        // knows corpus-wide presence and serves it.
        assert_differential(
            &db,
            r#"df[df["workflow_id"] == "wf-nonexistent"][["task_id"]]"#,
            true,
        );
    }

    #[test]
    fn filter_only_columns_never_force_fallback() {
        let db = seeded_db();
        // `nope` is filter-referenced only: missing column ≡ all-null
        // column under Expr semantics, so the scan path stays servable
        // and agrees with the oracle (empty result, not an error).
        assert_differential(&db, r#"df[df["nope"] > 1]["y"].mean()"#, true);
        // Zero survivors on a pushed filter with a count: still servable.
        assert_differential(
            &db,
            r#"len(df[df["workflow_id"] == "wf-nonexistent"])"#,
            true,
        );
    }

    #[test]
    fn query_errors_are_identical_through_both_paths() {
        let db = seeded_db();
        // Bare groupby: invalid through either executor.
        let query = parse(r#"df.groupby("activity_id")"#).unwrap();
        let oracle = provql::execute(&query, &db.snapshot().oracle_frame());
        match run(&db, &query) {
            Pushdown::Executed(got) => assert_eq!(got, oracle),
            Pushdown::NeedsFullFrame(r) => panic!("unexpected fallback: {r}"),
        }
        assert!(oracle.is_err());
    }

    #[test]
    fn columnar_filters_and_aggregates_match_oracle() {
        let db = seeded_db();
        for text in [
            // Ne / unindexed-Eq / derived-range conjuncts: residual
            // pre-columnar, now evaluated over the column vectors.
            r#"len(df[df["status"] != "ERROR"])"#,
            r#"df[df["hostname"] == "node1"]["duration"].sum()"#,
            r#"df[df["duration"] > 3].groupby("activity_id")["duration"].mean()"#,
            r#"df[df["status"] != "PENDING"][["task_id"]].head(3)"#,
            // Unselective but fully columnar: served without decoding a
            // single document (and without the oracle).
            r#"df.groupby("activity_id")["duration"].mean()"#,
            r#"df[["task_id", "started_at"]].head(4)"#,
            r#"df["ended_at"].max() - df["started_at"].min()"#,
            // Mixed: status filters columnar, y decodes from survivors.
            r#"df[df["status"] == "FINISHED"][["task_id", "y"]].head(2)"#,
        ] {
            assert_differential(&db, text, true);
        }
    }

    #[test]
    fn isin_conjuncts_push_into_the_scan_and_match_oracle() {
        let db = seeded_db();
        for text in [
            r#"len(df[df["activity_id"].isin(["run_dft", "postprocess"])])"#,
            r#"df[df["workflow_id"].isin(["wf-1", "wf-3"])][["task_id"]]"#,
            r#"df[df["hostname"].isin(["node0", "node2", "missing"])]["duration"].sum()"#,
            // Composes with comparisons, limits, and a pushed top-k sort.
            r#"df[(df["activity_id"].isin(["run_dft"])) & (df["duration"] > 2)]["duration"].mean()"#,
            r#"df[df["hostname"].isin(["node1"])][["task_id"]].head(3)"#,
            r#"df[df["workflow_id"].isin(["wf-0", "wf-2"])].sort_values("started_at", ascending=False)[["task_id"]].head(4)"#,
            // Numeric membership probes the f64 vectors (Int literals
            // coerce like the frame does), and an empty match is exact.
            r#"len(df[df["started_at"].isin([3, 7.0, 99.5])])"#,
            r#"len(df[df["started_at"].isin([123456])])"#,
            // Non-matching literal kinds in the list never match a cell.
            r#"len(df[df["activity_id"].isin(["run_dft", 3])])"#,
        ] {
            assert_differential(&db, text, true);
        }
        // The shape really goes through the scan, not the residual filter.
        let query = parse(r#"df[df["activity_id"].isin(["run_dft"])][["task_id"]]"#).unwrap();
        let plan = provql::plan(&query, db.as_ref());
        let p = &plan.pipelines()[0];
        assert_eq!(p.scan.isin.len(), 1);
        assert!(p.scan.residual.is_none());
        // A null list element stays residual and still matches the oracle.
        assert_differential(
            &db,
            r#"len(df[df["activity_id"].isin(["run_dft", None])])"#,
            true,
        );
    }

    #[test]
    fn grouped_aggregation_over_codes_matches_oracle() {
        let db = seeded_db();
        for text in [
            // The vectorized shape itself, across aggregate functions.
            r#"df.groupby("activity_id")["duration"].mean()"#,
            r#"df.groupby("workflow_id")["duration"].sum()"#,
            r#"df.groupby("hostname")["started_at"].max()"#,
            r#"df.groupby("activity_id")["duration"].count()"#,
            // String-valued aggregation column (gathered, not decoded).
            r#"df.groupby("activity_id")["hostname"].count()"#,
            // Filters in front: the grouping runs over scan survivors.
            r#"df[df["started_at"] > 10].groupby("activity_id")["duration"].mean()"#,
            r#"df[df["status"] != "ERROR"].groupby("workflow_id")["duration"].sum()"#,
            // Stages after the aggregation run on the aggregated frame.
            r#"df.groupby("workflow_id")["duration"].mean().sort_values("duration", ascending=False).head(2)"#,
            // Zero survivors: empty groups, empty output, same shape.
            r#"df[df["workflow_id"] == "nope"].groupby("activity_id")["duration"].mean()"#,
            // Non-string key and non-columnar value fall back to the
            // general path, still exact.
            r#"df.groupby("started_at")["duration"].mean()"#,
            r#"df.groupby("activity_id")["y"].mean()"#,
        ] {
            assert_differential(&db, text, true);
        }
    }

    #[test]
    fn grouped_aggregation_unifies_symbols_across_shards() {
        // Force several shards so the same activity symbol gets different
        // shard-local dictionary codes, then group across them.
        let db = Arc::new(ProvenanceDatabase::with_shards(4));
        let msgs: Vec<TaskMessage> = (0..100)
            .map(|i| {
                TaskMessageBuilder::new(
                    format!("t{i}"),
                    format!("wf-{}", i % 3),
                    match i % 5 {
                        0 => "alpha",
                        1 => "beta",
                        2 => "gamma",
                        3 => "delta",
                        _ => "epsilon",
                    },
                )
                .span(i as f64, i as f64 + 1.0)
                .build()
            })
            .collect();
        db.insert_batch(&msgs);
        for text in [
            r#"df.groupby("activity_id")["duration"].mean()"#,
            r#"df[df["workflow_id"] != "wf-0"].groupby("activity_id")["started_at"].min()"#,
        ] {
            assert_differential(&db, text, true);
        }
    }

    #[test]
    fn dataflow_shadowed_telemetry_column_is_poisoned_not_wrong() {
        let db = ProvenanceDatabase::shared();
        let msgs: Vec<TaskMessage> = (0..5)
            .map(|i| {
                let b = TaskMessageBuilder::new(format!("t{i}"), "wf", "a").span(0.0, 1.0);
                // One message's dataflow key shadows the bare frame name
                // of the telemetry-derived column.
                if i == 3 {
                    b.generates("gpu_percent_end", 42.0).build()
                } else {
                    b.build()
                }
            })
            .collect();
        db.insert_batch(&msgs);
        assert!(!db.documents().columnar_servable("gpu_percent_end"));
        assert!(db.documents().columnar_servable("mem_used_mb_end"));
        // The poisoned column decodes from survivors and still matches
        // the oracle (which sees the dataflow value).
        assert_differential(
            &db,
            r#"df[df["task_id"] == "t3"]["gpu_percent_end"].sum()"#,
            true,
        );
    }

    #[test]
    fn irregular_raw_fields_disable_hints_but_stay_exact() {
        let db = seeded_db();
        // A raw document missing `started_at` decodes with the 0.0
        // default: an index probe would never surface it for
        // `started_at == 0`, so ingesting it must flip the field to
        // full-vector evaluation.
        db.documents().insert(prov_model::obj! {
            "task_id" => "raw0", "workflow_id" => "wf-raw", "activity_id" => "x",
        });
        assert_differential(&db, r#"df[df["started_at"] == 0][["task_id"]]"#, true);
        assert_differential(&db, r#"len(df[df["started_at"] < 1])"#, true);
        // And an undecodable document stays invisible to both paths.
        db.documents()
            .insert(prov_model::obj! {"task_id" => "orphan"});
        assert_differential(&db, r#"len(df[df["started_at"] >= 0])"#, true);
    }

    #[test]
    fn topk_sort_limit_matches_oracle() {
        let db = seeded_db();
        for text in [
            // "latest/slowest N tasks" — the interactive shapes the top-k
            // executor exists for (started_at distinct; duration is full
            // of ties, broken by insertion order like the frame does).
            r#"df.sort_values("started_at", ascending=False)[["task_id", "started_at"]].head(3)"#,
            r#"df.sort_values("duration", ascending=False)[["task_id", "duration"]].head(5)"#,
            r#"df.sort_values("duration")[["task_id"]].head(5)"#,
            r#"df.sort_values(["duration", "started_at"])[["task_id"]].head(4)"#,
            r#"df.sort_values("hostname")[["task_id"]].head(4)"#,
            // Filters compose: pushed-index, columnar, and both.
            r#"df[df["workflow_id"] == "wf-1"].sort_values("started_at")[["task_id"]].head(2)"#,
            r#"df[df["status"] != "ERROR"].sort_values("duration", ascending=False)[["task_id"]].head(3)"#,
            r#"df[(df["activity_id"] == "run_dft") & (df["duration"] > 2)].sort_values("started_at", ascending=False)[["task_id"]].head(3)"#,
            // Edge k: zero, and larger than the corpus.
            r#"df.sort_values("started_at")[["task_id"]].head(0)"#,
            r#"df.sort_values("started_at", ascending=False)[["task_id"]].head(500)"#,
            // Bare pushed sort (no limit), and len() over a sorted head.
            r#"df.sort_values("started_at", ascending=False)[["task_id"]]"#,
            r#"len(df.sort_values("started_at").head(7))"#,
            // Mixed projection: sort key columnar, `y` decoded from the
            // k survivors only.
            r#"df.sort_values("started_at", ascending=False)[["task_id", "y"]].head(3)"#,
        ] {
            assert_differential(&db, text, true);
        }
        // And the shape actually pushes sort + limit (no silent oracle).
        let query =
            parse(r#"df.sort_values("started_at", ascending=False)[["task_id"]].head(3)"#).unwrap();
        let plan = provql::plan(&query, db.as_ref());
        let p = &plan.pipelines()[0];
        assert_eq!(p.scan.sort, vec![("started_at".to_string(), false)]);
        assert_eq!(p.scan.limit, Some(3));
    }

    #[test]
    fn topk_null_keys_sort_last_like_the_frame() {
        let db = seeded_db();
        // One message with telemetry: cpu_percent_end exists corpus-wide
        // but is null on every other row — nulls sort last either
        // direction, ties by insertion order.
        let synth = prov_model::TelemetrySynth::frontier(1);
        let msg = TaskMessageBuilder::new("tele", "wf-9", "run_dft")
            .telemetry(synth.snapshot(1, 0, 0.4), synth.snapshot(1, 1, 0.4))
            .span(100.0, 101.0)
            .build();
        db.insert_batch(std::iter::once(&msg));
        for text in [
            r#"df.sort_values("cpu_percent_end")[["task_id", "cpu_percent_end"]].head(4)"#,
            r#"df.sort_values("cpu_percent_end", ascending=False)[["task_id"]].head(4)"#,
        ] {
            assert_differential(&db, text, true);
        }
    }

    #[test]
    fn nan_sort_keys_defer_to_the_oracle() {
        let db = seeded_db();
        db.documents().insert(prov_model::obj! {
            "task_id" => "nan0", "workflow_id" => "wf-raw", "activity_id" => "x",
            "started_at" => f64::NAN, "ended_at" => 1.0,
        });
        // `Value::compare` calls mixed NaN comparisons Equal — not a
        // strict weak order — so the pushed path must refuse and let the
        // oracle's own stable sort define the (algorithm-defined) order.
        let query = parse(r#"df.sort_values("started_at")[["task_id"]].head(3)"#).unwrap();
        match run(&db, &query) {
            Pushdown::NeedsFullFrame(_) => {}
            Pushdown::Executed(out) => panic!("NaN sort key must not be served: {out:?}"),
        }
        // A filter that drops the NaN row keeps top-k servable and exact.
        assert_differential(
            &db,
            r#"df[df["workflow_id"] == "wf-1"].sort_values("started_at")[["task_id"]].head(3)"#,
            true,
        );
    }

    #[test]
    fn invisible_nan_sort_key_keeps_snapshot_topk_pushed() {
        let db = seeded_db();
        let snap = db.snapshot();
        // A NaN sort key lands after the pin. The snapshot cannot see the
        // row, so its top-k must skip it inside the kernel instead of
        // aborting to the oracle.
        db.documents().insert(prov_model::obj! {
            "task_id" => "nan0", "workflow_id" => "wf-raw", "activity_id" => "x",
            "started_at" => f64::NAN, "ended_at" => 1.0,
        });
        let texts = [
            r#"df.sort_values("started_at")[["task_id"]].head(3)"#,
            r#"df.sort_values("started_at", ascending=False)[["task_id", "started_at"]].head(4)"#,
            r#"df[df["status"] != "ERROR"].sort_values("duration")[["task_id"]].head(5)"#,
        ];
        let answers: Vec<_> = texts
            .iter()
            .map(|text| {
                let (out, _) = snap.query(&parse(text).unwrap());
                out.unwrap_or_else(|e| panic!("{text}: {e}"))
            })
            .collect();
        assert!(
            !snap.oracle_built(),
            "an invisible NaN row must not push the snapshot onto its oracle"
        );
        for (text, got) in texts.iter().zip(answers) {
            let oracle = provql::execute(&parse(text).unwrap(), &snap.oracle_frame());
            assert_eq!(Ok((*got).clone()), oracle, "{text}");
        }
    }

    #[test]
    fn pushed_limit_matches_head() {
        let db = seeded_db();
        let query = parse(r#"df[df["workflow_id"] == "wf-2"][["task_id"]].head(2)"#).unwrap();
        let Pushdown::Executed(Ok(QueryOutput::Frame(f))) = run(&db, &query) else {
            panic!("expected pushed frame")
        };
        assert_eq!(f.len(), 2);
        assert_eq!(
            f.column("task_id").unwrap().get(0),
            Some(&Value::from("t2"))
        );
    }

    #[test]
    fn streaming_ingest_is_visible_to_pushdown() {
        let db = seeded_db();
        db.insert_batch_shared(std::iter::once(std::sync::Arc::new(
            TaskMessageBuilder::new("fresh", "wf-9", "run_dft").build(),
        )));
        let query = parse(r#"df[df["workflow_id"] == "wf-9"][["task_id"]]"#).unwrap();
        let Pushdown::Executed(Ok(QueryOutput::Frame(f))) = run(&db, &query) else {
            panic!("expected pushed frame")
        };
        assert_eq!(f.len(), 1);
    }
}
