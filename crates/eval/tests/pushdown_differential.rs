//! Differential tests for index-aware pushdown: for every query in the
//! evaluation query sets — the 20-query golden set over the synthetic
//! sweep, and the code the simulated agent generates for the §5.3
//! chemistry and AM live-interaction studies — the plan-then-push path
//! (`prov_db::execute_plan` on a pinned snapshot) must produce exactly
//! the `QueryOutput` (or exactly the error) of the full-materialize
//! oracle. A property test extends the same check to randomly generated
//! pipelines.

use dataframe::{col, lit, AggFunc};
use proptest::prelude::*;
use prov_db::{ProvenanceDatabase, Pushdown, StoreSnapshot};
use prov_model::TaskMessage;
use provql::{execute, parse, Query, QueryOutput, Stage};
use std::sync::Arc;

fn db_from(msgs: &[TaskMessage]) -> Arc<ProvenanceDatabase> {
    let db = ProvenanceDatabase::shared();
    db.insert_batch(msgs);
    db
}

/// Plan and execute `query` on `snap`.
fn run(snap: &StoreSnapshot, query: &Query) -> Pushdown {
    prov_db::execute_plan(snap, &provql::plan(query, snap))
}

/// The `Debug` form of an answer, NaN cells printing as `NaN` (so a
/// bit-preserved NaN compares equal, unlike under `Value`'s `==`), with
/// each frame's name→position map scrubbed: its iteration order is
/// per-instance, and it derives from the compared column list.
fn render(out: &Result<QueryOutput, provql::ExecError>) -> String {
    let mut s = format!("{out:?}");
    const KEY: &str = "index: {";
    let mut from = 0;
    while let Some(at) = s[from..].find(KEY) {
        let open = from + at + KEY.len() - 1;
        let Some(close) = s[open..].find('}') else {
            break;
        };
        s.replace_range(open..open + close + 1, "_");
        from += at + KEY.len();
    }
    s
}

/// Check one parsed query through both paths: the pushdown executor and
/// the snapshot's oracle frame — the same frame the agent's
/// `provdb_query` fallback builds, so the equivalence asserted here
/// covers the production code path. Returns whether the pushdown
/// executor actually served it (vs deferring to the oracle).
fn check_query(snap: &StoreSnapshot, query: &Query, label: &str) -> bool {
    let oracle = execute(query, &snap.oracle_frame());
    match run(snap, query) {
        Pushdown::Executed(got) => {
            assert_eq!(
                render(&got),
                render(&oracle),
                "{label}: pushdown diverged from oracle"
            );
            true
        }
        // The fallback path *is* the oracle — trivially identical.
        Pushdown::NeedsFullFrame(_) => false,
    }
}

#[test]
fn golden_queries_identical_through_both_paths() {
    let experiment = eval::Experiment {
        seed: 42,
        n_inputs: 10,
        runs_per_query: 1,
    };
    let db = eval::build_synthetic_db(&experiment);
    let snap = db.snapshot();
    let mut unserved = Vec::new();
    for q in eval::golden_queries() {
        let query = parse(q.gold_code).expect("gold code parses");
        if !check_query(&snap, &query, q.id) {
            unserved.push(q.id);
        }
    }
    // Every golden question is served by the pushdown executor, q15's
    // whole-width row (`df.loc[df["y"].idxmax()]`) from a top-1 scan.
    assert!(
        unserved.is_empty(),
        "golden queries deferred to the oracle: {unserved:?}"
    );
}

/// A sealed store over the golden corpus, reopened lazily, answers all
/// twenty golden questions through `StoreSnapshot::query` exactly like a
/// replayed reopen, at the default budget and at a one-byte budget, and
/// builds the oracle frame for none of them; the dataflow questions page
/// no document, and q15's whole row pages at most one docs page. The same
/// corpus sealed as `PSEG2` by the last release that wrote it
/// (`tests/fixtures/pseg2-golden`, same geometry and seals) answers the
/// same under the same rules from its first lazy open on, which writes
/// every segment forward as `PSEG4` before it serves.
#[test]
fn golden_questions_on_a_lazy_reopen_stay_off_the_oracle_frame() {
    use prov_db::{Config, ProvenanceDatabase, SyncPolicy};
    let msgs = eval::synthetic_messages(&eval::Experiment {
        seed: 42,
        n_inputs: 10,
        runs_per_query: 1,
    });
    let config = Config {
        shards: 2,
        chunk_rows: 16,
        wal_sync: SyncPolicy::Batch,
        ..Config::from_env()
    };
    let dir = std::env::temp_dir().join(format!("provdb-golden-lazy-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        // Two seals, so each shard holds two runs for compaction to merge.
        let db = ProvenanceDatabase::open_with(&dir, config).expect("open durable");
        let half = msgs.len() / 2;
        for part in [&msgs[..half], &msgs[half..]] {
            db.insert_batch(part);
            db.flush_views();
            db.seal_now().expect("seal");
        }
    }
    let queries: Vec<(&str, Query)> = eval::golden_queries()
        .iter()
        .map(|q| (q.id, parse(q.gold_code).expect("gold code parses")))
        .collect();
    let answers = |db: &Arc<ProvenanceDatabase>, label: &str| {
        queries
            .iter()
            .map(|(id, query)| {
                let snap = db.snapshot();
                let docs_before = db.pager_stats().paged_in_docs;
                let (out, _) = snap.query(query);
                assert!(
                    !snap.oracle_built(),
                    "{label} {id}: a golden question built the oracle frame"
                );
                let docs_paged = db.pager_stats().paged_in_docs - docs_before;
                if matches!(*id, "q03" | "q04" | "q09" | "q16") {
                    assert_eq!(
                        docs_paged, 0,
                        "{label} {id}: a dataflow question paged documents"
                    );
                }
                if *id == "q15" {
                    assert!(docs_paged <= 1, "{label} q15 paged {docs_paged} docs pages");
                }
                out.map(|o| (*o).clone())
            })
            .collect::<Vec<_>>()
    };
    let want = answers(
        &ProvenanceDatabase::open_replayed(&dir, config).expect("replay"),
        "replayed",
    );
    let segments = || -> Vec<std::path::PathBuf> {
        std::fs::read_dir(&dir)
            .expect("list store")
            .map(|e| e.expect("entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "seg"))
            .collect()
    };
    let check = |label: &str| {
        for budget in [config.resident_bytes, 1] {
            let lazy = ProvenanceDatabase::open_with(
                &dir,
                Config {
                    resident_bytes: budget,
                    ..config
                },
            )
            .expect("lazy reopen");
            assert!(lazy.durable_stats().expect("durable").sealed_slots > 0);
            let label = format!("{label} budget {budget}");
            assert_eq!(answers(&lazy, &label), want, "{label}");
        }
    };
    check("PSEG4");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create store dir");
    let fixture =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/pseg2-golden");
    for e in std::fs::read_dir(&fixture).expect("list fixture") {
        let path = e.expect("entry").path();
        std::fs::copy(&path, dir.join(path.file_name().expect("file name"))).expect("copy");
    }
    for seg in segments() {
        let magic = std::fs::read(&seg).expect("read segment")[..6].to_vec();
        assert_eq!(magic, b"PSEG2\n", "{} is a PSEG2 fixture", seg.display());
    }
    // The first lazy open writes the segments forward before it serves.
    check("PSEG2");
    for seg in segments() {
        let magic = std::fs::read(&seg).expect("read segment")[..6].to_vec();
        assert_eq!(magic, b"PSEG4\n", "{} not written forward", seg.display());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn chem_demo_generations_identical_through_both_paths() {
    use prov_model::sim_clock;
    let hub = prov_stream::StreamingHub::in_memory();
    let sub = hub.subscribe_tasks();
    workflows::run_bde_workflow(&hub, sim_clock(), 7, "CCO", 2).expect("chemistry workflow");
    let msgs: Vec<TaskMessage> = sub.drain().iter().map(|m| (**m).clone()).collect();
    let db = db_from(&msgs);
    let snap = db.snapshot();

    let mut seen = 0usize;
    for obs in eval::run_chem_demo(7) {
        let Some(code) = &obs.code else { continue };
        // Some documented §5.3 failure modes generate unparseable or
        // non-executable code; the differential claim covers everything
        // the query engine accepts.
        let Ok(query) = parse(code) else { continue };
        check_query(&snap, &query, obs.id);
        seen += 1;
    }
    assert!(seen >= 6, "only {seen} chem generations reached the engine");
}

#[test]
fn am_demo_generations_identical_through_both_paths() {
    use prov_model::sim_clock;
    let hub = prov_stream::StreamingHub::in_memory();
    let sub = hub.subscribe_tasks();
    workflows::run_am_fleet(&hub, sim_clock(), 42, 8).expect("AM fleet");
    let msgs: Vec<TaskMessage> = sub.drain().iter().map(|m| (**m).clone()).collect();
    let db = db_from(&msgs);
    let snap = db.snapshot();

    let mut seen = 0usize;
    for obs in eval::run_am_demo(42, 8) {
        let Some(code) = &obs.code else { continue };
        let Ok(query) = parse(code) else { continue };
        check_query(&snap, &query, obs.id);
        seen += 1;
    }
    assert!(seen >= 6, "only {seen} AM generations reached the engine");
}

// ---------------------------------------------------------------------
// Property: random pipelines agree through both paths (including their
// errors — invalid stage combinations must fail identically).
// ---------------------------------------------------------------------

/// Columns mixing pushable common fields, dataflow fields of the
/// synthetic sweep, and a name no message ever sets.
const SWEEP_COLUMNS: &[&str] = &[
    "task_id",
    "workflow_id",
    "activity_id",
    "hostname",
    "status",
    "started_at",
    "duration",
    "y",
    "exponent",
    "ghost_column",
];

/// The columns of [`edge_snapshot`]'s corpus: keys with ties, a sparse
/// key (present, null or absent per row), a key that is null on every
/// visible row, a key with NaN cells and a string key, beside common
/// fields and a name no message sets.
const EDGE_COLUMNS: &[&str] = &[
    "task_id",
    "workflow_id",
    "status",
    "started_at",
    "duration",
    "tie",
    "sparse",
    "allnull",
    "nan",
    "label",
    "ghost_column",
];

/// [`EDGE_COLUMNS`] without `nan`, the sort keys of the edge corpus: the
/// oracle's `sort_values` cannot order a column holding NaN beside other
/// floats (the standard sort rejects its comparator), so, as in the
/// durable suites' golden set, no sort keys on it.
const EDGE_SORT_KEYS: &[&str] = &[
    "task_id",
    "workflow_id",
    "status",
    "started_at",
    "duration",
    "tie",
    "sparse",
    "allnull",
    "label",
    "ghost_column",
];

fn arb_filter(cols: &'static [&'static str]) -> impl Strategy<Value = Stage> {
    let arb_column = move || (0..cols.len()).prop_map(move |i| cols[i].to_string());
    prop_oneof![
        (arb_column(), -10.0f64..2e9).prop_map(|(c, v)| Stage::Filter(col(c).gt(lit(v)))),
        (arb_column(), "[a-z0-9_-]{1,10}")
            .prop_map(|(c, s)| Stage::Filter(col(c).eq(lit(s.as_str())))),
        // `!=` and unindexed-Eq conjuncts: residual pre-columnar, now
        // evaluated over the column vectors.
        (arb_column(), "[a-z0-9_-]{1,10}")
            .prop_map(|(c, s)| Stage::Filter(col(c).ne(lit(s.as_str())))),
        Just(Stage::Filter(col("status").eq(lit("ERROR")))),
        Just(Stage::Filter(col("hostname").ne(lit("h0")))),
        Just(Stage::Filter(col("activity_id").eq(lit("power")))),
        Just(Stage::Filter(
            col("activity_id")
                .eq(lit("power"))
                .and(col("started_at").gt(lit(0)))
        )),
        Just(Stage::Filter(
            col("activity_id")
                .eq(lit("power"))
                .or(col("status").eq(lit("ERROR")))
        )),
        (arb_column()).prop_map(|c| Stage::Filter(col(c).not_null())),
        // Null literal: both paths must agree on the null-to-false rule.
        (arb_column()).prop_map(|c| Stage::Filter(col(c).gt(lit(prov_model::Value::Null)))),
        // Membership lists: dictionary-coded scan conjunct when null-free
        // on a columnar column, residual frame filter otherwise.
        (arb_column(), prop::collection::vec("[a-z0-9_-]{1,8}", 1..4)).prop_map(|(c, vals)| {
            Stage::Filter(
                col(c).isin(
                    vals.iter()
                        .map(|s| prov_model::Value::from(s.as_str()))
                        .collect(),
                ),
            )
        }),
        Just(Stage::Filter(col("status").isin(vec![
            prov_model::Value::from("ERROR"),
            prov_model::Value::Null,
        ]))),
        (arb_column(), -5.0f64..2e9).prop_map(|(c, v)| {
            Stage::Filter(col(c).isin(vec![
                prov_model::Value::Float(v),
                prov_model::Value::Int(v as i64),
            ]))
        }),
    ]
}

fn arb_stage(
    cols: &'static [&'static str],
    sort_keys: &'static [&'static str],
) -> impl Strategy<Value = Stage> {
    let arb_column = move || (0..cols.len()).prop_map(move |i| cols[i].to_string());
    let arb_sort_key = (0..sort_keys.len()).prop_map(move |i| sort_keys[i].to_string());
    prop_oneof![
        arb_filter(cols),
        prop::collection::vec(arb_column(), 1..3).prop_map(Stage::Select),
        arb_column().prop_map(Stage::Col),
        arb_column().prop_map(|c| Stage::GroupBy(vec![c])),
        prop_oneof![
            Just(AggFunc::Mean),
            Just(AggFunc::Sum),
            Just(AggFunc::Min),
            Just(AggFunc::Max),
            Just(AggFunc::Count),
        ]
        .prop_map(Stage::Agg),
        (arb_sort_key, any::<bool>()).prop_map(|(c, asc)| Stage::SortValues(vec![(c, asc)])),
        // 0 included: a pushed `sort → head(0)` top-k must stay exact.
        (0usize..6).prop_map(Stage::Head),
        (1usize..6).prop_map(Stage::Tail),
        Just(Stage::Unique),
        Just(Stage::ValueCounts),
        Just(Stage::Count),
        // Both `loc` forms, by idxmax and idxmin: a top-1 scan when the
        // key is orderable and nothing residual stands in front.
        (arb_column(), any::<bool>(), arb_column()).prop_map(|(column, max, cell)| {
            Stage::LocIdx {
                column,
                max,
                cell: Some(cell),
            }
        }),
        (arb_column(), any::<bool>()).prop_map(|(column, max)| Stage::LocIdx {
            column,
            max,
            cell: None,
        }),
        prop::collection::vec(arb_column(), 0..2).prop_map(Stage::DropDuplicates),
    ]
}

fn arb_query(
    cols: &'static [&'static str],
    sort_keys: &'static [&'static str],
) -> impl Strategy<Value = Query> {
    let stages = prop::collection::vec(arb_stage(cols, sort_keys), 0..4);
    (stages, any::<bool>()).prop_map(|(stages, wrap)| {
        let p = Query::pipeline(stages);
        if wrap {
            Query::Len(Box::new(p))
        } else {
            p
        }
    })
}

/// A snapshot over a corpus built for `loc[idxmax|idxmin]`: `tie` and
/// `label` repeat values, `sparse` is present, null or absent per row,
/// `allnull` is null on every row the snapshot sees and `nan` holds NaN
/// cells; some rows carry telemetry, tags or lineage, so a whole row
/// has all-null columns to pad. Rows ingested after the pin register
/// `allnull` as a column and add a NaN `tie` and a tag the snapshot must
/// not see.
fn edge_snapshot() -> Arc<StoreSnapshot> {
    use prov_model::{TaskMessageBuilder, TelemetrySynth, Value};
    let synth = TelemetrySynth::frontier(3);
    let msg = |i: usize| {
        let mut b = TaskMessageBuilder::new(
            format!("e{i}"),
            format!("wf-{}", i % 3),
            if i.is_multiple_of(2) {
                "power"
            } else {
                "merge"
            },
        )
        .span(i as f64, i as f64 + (i % 3) as f64)
        .uses("tie", (i % 3) as f64)
        .uses("allnull", Value::Null)
        .generates("label", format!("l{}", i % 4))
        .generates("nan", if i % 5 == 2 { f64::NAN } else { i as f64 });
        b = match i % 3 {
            0 => b.uses("sparse", i as f64 * 0.5),
            1 => b.uses("sparse", Value::Null),
            _ => b,
        };
        if i % 4 == 1 {
            b = b.telemetry(
                synth.snapshot(i as u64, 0, 0.3),
                synth.snapshot(i as u64, 1, 0.3),
            );
        }
        if i % 7 == 3 {
            b = b.depends_on(format!("e{}", i - 1));
        }
        let m = b.build();
        if i % 6 == 5 {
            m.with_tag("anomaly", "hot")
        } else {
            m
        }
    };
    let db = ProvenanceDatabase::shared();
    db.insert_batch(&(0..40).map(msg).collect::<Vec<_>>());
    let snap = db.snapshot();
    let late = [
        TaskMessageBuilder::new("late-0", "wf-0", "power")
            .uses("allnull", 5.0)
            .uses("tie", f64::NAN)
            .build(),
        TaskMessageBuilder::new("late-1", "wf-1", "merge")
            .build()
            .with_tag("late", "yes"),
    ];
    db.insert_batch(&late);
    snap
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn random_pipelines_identical_through_both_paths(q in arb_query(SWEEP_COLUMNS, SWEEP_COLUMNS)) {
        use std::sync::OnceLock;
        static SNAP: OnceLock<Arc<StoreSnapshot>> = OnceLock::new();
        let snap = SNAP.get_or_init(|| {
            let experiment = eval::Experiment { seed: 7, n_inputs: 6, runs_per_query: 1 };
            eval::build_synthetic_db(&experiment).snapshot()
        });
        let oracle = execute(&q, &snap.oracle_frame());
        // The scan must reproduce the oracle exactly (outputs *and*
        // errors).
        match run(snap, &q) {
            Pushdown::Executed(got) => prop_assert_eq!(got, oracle),
            Pushdown::NeedsFullFrame(_) => {}
        }
    }

    /// The same over [`edge_snapshot`]: ties, nulls, NaN and absent keys,
    /// and rows past the pin that must stay invisible.
    #[test]
    fn random_pipelines_identical_on_edge_keys(q in arb_query(EDGE_COLUMNS, EDGE_SORT_KEYS)) {
        use std::sync::OnceLock;
        static SNAP: OnceLock<Arc<StoreSnapshot>> = OnceLock::new();
        let snap = SNAP.get_or_init(edge_snapshot);
        let oracle = execute(&q, &snap.oracle_frame());
        match run(snap, &q) {
            Pushdown::Executed(got) => prop_assert_eq!(render(&got), render(&oracle)),
            Pushdown::NeedsFullFrame(_) => {}
        }
    }
}

/// The whole-row and cell `loc` shapes on [`edge_snapshot`] are served
/// wherever the store can prove the answer — ties keep the first row,
/// a key null on every visible row raises the oracle's empty-input error
/// — and defer on a NaN key or a column absent below the pin.
#[test]
fn loc_extremes_on_edge_keys_identical_through_both_paths() {
    let snap = edge_snapshot();
    for (text, served) in [
        (r#"df.loc[df["tie"].idxmax()]"#, true),
        (r#"df.loc[df["tie"].idxmin()]"#, true),
        (r#"df.loc[df["sparse"].idxmax()]"#, true),
        (r#"df.loc[df["sparse"].idxmin(), "task_id"]"#, true),
        (r#"df.loc[df["label"].idxmax()]"#, true),
        (r#"df.loc[df["allnull"].idxmax()]"#, true),
        (r#"df.loc[df["allnull"].idxmin(), "task_id"]"#, false),
        (
            r#"df[df["status"] == "ERROR"].loc[df["tie"].idxmax()]"#,
            true,
        ),
        (r#"df.loc[df["nan"].idxmax()]"#, false),
        (r#"df.loc[df["ghost_column"].idxmin()]"#, false),
    ] {
        let query = parse(text).expect("parses");
        assert_eq!(check_query(&snap, &query, text), served, "{text}");
    }
    let query = parse(r#"df.loc[df["allnull"].idxmax()]"#).expect("parses");
    assert_eq!(
        execute(&query, &snap.oracle_frame()),
        Err(provql::ExecError::EmptyInput)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// Cache equivalence on the snapshot read path: for one snapshot,
    /// `query_with(q, true)` must return exactly what
    /// `query_with(q, false)` returns — outputs *and* errors — both on
    /// the first (miss-then-insert) execution and on the repeat that is
    /// served straight from the plan-keyed cache. All cases share one
    /// snapshot, so the cache fills up across cases exactly as it would
    /// under a real dashboard storm.
    #[test]
    fn snapshot_cache_on_equals_cache_off(q in arb_query(SWEEP_COLUMNS, SWEEP_COLUMNS)) {
        use std::sync::OnceLock;
        use prov_db::CacheOutcome;
        static SNAP: OnceLock<Arc<StoreSnapshot>> = OnceLock::new();
        let snap = SNAP.get_or_init(|| {
            let experiment = eval::Experiment { seed: 7, n_inputs: 6, runs_per_query: 1 };
            eval::build_synthetic_db(&experiment).snapshot()
        });
        let (uncached, outcome) = snap.query_with(&q, false);
        prop_assert_eq!(outcome, CacheOutcome::Bypass);
        let (first, _) = snap.query_with(&q, true);
        let (second, second_outcome) = snap.query_with(&q, true);
        match (&uncached, &first, &second) {
            (Ok(a), Ok(b), Ok(c)) => {
                prop_assert_eq!(&**a, &**b, "first cached run diverged");
                prop_assert_eq!(&**a, &**c, "cache-served repeat diverged");
                // Successful outputs are cached, so the repeat must have
                // been a hit (the corpus is far below the cache budget).
                prop_assert_eq!(second_outcome, CacheOutcome::Hit);
            }
            (Err(a), Err(b), Err(c)) => {
                // Errors are never cached; both arms re-derive them.
                prop_assert_eq!(a, b);
                prop_assert_eq!(a, c);
            }
            other => prop_assert!(false, "cache arms disagree: {other:?}"),
        }
    }
}

#[test]
fn topk_pushdown_identical_through_both_paths() {
    let experiment = eval::Experiment {
        seed: 42,
        n_inputs: 10,
        runs_per_query: 1,
    };
    let db = eval::build_synthetic_db(&experiment);
    let snap = db.snapshot();
    // "latest/slowest N" shapes: a leading sort over an orderable key no
    // longer blocks limit pushdown — the pair executes as a top-k scan.
    // Ties, descending order, k = 0, k > corpus, and filtered variants
    // must all match the oracle exactly.
    for text in [
        r#"df.sort_values("started_at", ascending=False)[["task_id", "started_at"]].head(5)"#,
        r#"df.sort_values("duration")[["task_id", "duration"]].head(7)"#,
        r#"df.sort_values("status")[["task_id"]].head(6)"#, // heavy ties
        r#"df.sort_values("started_at")[["task_id"]].head(0)"#,
        r#"df.sort_values("started_at", ascending=False)[["task_id"]].head(100000)"#,
        r#"df[df["status"] != "FINISHED"].sort_values("duration", ascending=False)[["task_id"]].head(4)"#,
        r#"df[df["activity_id"] == "power"].sort_values("started_at")[["task_id"]].head(3)"#,
        r#"len(df.sort_values("duration").head(9))"#,
    ] {
        let query = parse(text).expect("query parses");
        assert!(
            check_query(&snap, &query, text),
            "{text}: top-k should be served by the pushdown executor"
        );
        // The plan shape: sort and limit both pushed into the scan.
        let plan = provql::plan(&query, db.as_ref());
        for p in plan.pipelines() {
            assert!(!p.scan.sort.is_empty(), "{text}: sort should push");
            assert_eq!(
                p.scan.limit.is_some(),
                text.contains(".head("),
                "{text}: head should push through the sort"
            );
        }
    }
}

#[test]
fn isin_pushdown_identical_through_both_paths() {
    let experiment = eval::Experiment {
        seed: 42,
        n_inputs: 10,
        runs_per_query: 1,
    };
    let db = eval::build_synthetic_db(&experiment);
    let snap = db.snapshot();
    // Membership filters the decode-based planner left residual now
    // compile to dictionary code sets inside the scan.
    for text in [
        r#"len(df[df["activity_id"].isin(["power", "material"])])"#,
        r#"df[df["status"].isin(["ERROR", "FINISHED"])]["duration"].mean()"#,
        r#"df[df["hostname"].isin(["h0", "h2", "absent"])][["task_id"]].head(4)"#,
        r#"df[df["workflow_id"].isin(["nope"])][["task_id"]]"#,
        r#"df[df["activity_id"].isin(["power"])].sort_values("started_at")[["task_id"]].head(3)"#,
    ] {
        let query = parse(text).expect("query parses");
        assert!(
            check_query(&snap, &query, text),
            "{text}: isin should be served by the scan"
        );
        let plan = provql::plan(&query, db.as_ref());
        for p in plan.pipelines() {
            assert!(!p.scan.isin.is_empty(), "{text}: isin should push");
            assert!(p.scan.residual.is_none(), "{text}: nothing residual");
        }
    }
    // A null element keeps the conjunct residual — and still exact.
    let query = parse(r#"len(df[df["activity_id"].isin(["power", None])])"#).expect("parses");
    check_query(&snap, &query, "isin-with-null");
    let plan = provql::plan(&query, db.as_ref());
    for p in plan.pipelines() {
        assert!(p.scan.isin.is_empty());
        assert!(p.scan.residual.is_some());
    }
}

#[test]
fn vectorized_groupby_identical_through_both_paths() {
    let experiment = eval::Experiment {
        seed: 42,
        n_inputs: 10,
        runs_per_query: 1,
    };
    let db = eval::build_synthetic_db(&experiment);
    let snap = db.snapshot();
    // The grouped-aggregation shapes `exec` serves over dictionary codes:
    // group keys resolved from shard dictionaries, aggregation cells
    // gathered once, output bit-identical to the frame group-by.
    for text in [
        r#"df.groupby("activity_id")["duration"].mean()"#,
        r#"df.groupby("workflow_id")["started_at"].min()"#,
        r#"df.groupby("hostname")["duration"].sum()"#,
        r#"df[df["status"] != "ERROR"].groupby("activity_id")["duration"].max()"#,
        r#"df[df["started_at"] > 0].groupby("task_id")["duration"].count()"#,
        r#"df.groupby("activity_id")["duration"].mean().sort_values("duration").head(2)"#,
    ] {
        let query = parse(text).expect("query parses");
        assert!(
            check_query(&snap, &query, text),
            "{text}: grouped aggregate should be served"
        );
    }
}

#[test]
fn columnar_scan_serves_previously_oracle_only_queries() {
    let experiment = eval::Experiment {
        seed: 42,
        n_inputs: 10,
        runs_per_query: 1,
    };
    let db = eval::build_synthetic_db(&experiment);
    let snap = db.snapshot();
    // Unselective aggregates over hot fields and residual `col op lit`
    // filters: the decode-based scan deferred these to the oracle; the
    // columnar scan serves them (identically).
    for text in [
        r#"df.groupby("activity_id")["duration"].mean()"#,
        r#"df["hostname"].value_counts()"#,
        r#"len(df[df["status"] != "FINISHED"])"#,
        r#"df[df["hostname"] == "h1"]["duration"].sum()"#,
    ] {
        let query = parse(text).expect("query parses");
        assert!(
            check_query(&snap, &query, text),
            "{text}: columnar scan should serve this"
        );
        // The agent tool's routing rule: no pushed conjunct, no limit —
        // pre-columnar these pipelines were sent to the cached oracle;
        // `columnar_only` is what routes them through the scan now.
        let plan = provql::plan(&query, db.as_ref());
        for p in plan.pipelines() {
            assert!(!p.has_pushdown(), "{text}: no index conjunct expected");
            assert_eq!(p.scan.limit, None, "{text}");
            assert!(p.scan.columnar_only, "{text}: should be columnar-servable");
        }
    }
}
