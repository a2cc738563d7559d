//! Differential property tests for the columnar scan: over random corpora
//! — including raw documents with missing or ill-typed hot fields, the
//! kind the exactness contract in `prov_db::columnar` exists for, and
//! random `used`/`generated` trees whose leaves become discovered columns
//! — random filter/aggregate pipelines must produce exactly the
//! `QueryOutput` (or exactly the error) of the full-materialize
//! document-scan oracle.

use dataframe::{col, lit, AggFunc, CmpOp, DataFrame, Expr};
use proptest::prelude::*;
use prov_db::{Config, ProvenanceDatabase, Pushdown, StoreSnapshot, SyncPolicy};
use prov_model::{obj, TaskMessageBuilder, TaskStatus, Value};
use provql::{execute, ExecError, Query, QueryOutput, Stage};
use std::sync::Arc;

/// Columns mixing columnar hot fields, decode-only payload fields, and a
/// name no document ever sets.
fn arb_column() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("task_id".to_string()),
        Just("workflow_id".to_string()),
        Just("activity_id".to_string()),
        Just("hostname".to_string()),
        Just("status".to_string()),
        Just("type".to_string()),
        Just("started_at".to_string()),
        Just("ended_at".to_string()),
        Just("duration".to_string()),
        Just("cpu_percent_end".to_string()),
        Just("gpu_percent_end".to_string()),
        Just("mem_used_mb_end".to_string()),
        Just("y".to_string()),
        Just("depends_on".to_string()),
        Just("x".to_string()),
        Just("ghost_column".to_string()),
    ]
}

fn arb_lit() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-3.0f64..40.0).prop_map(Value::Float),
        (0i64..30).prop_map(Value::Int),
        "[a-z0-9-]{1,6}".prop_map(|s| Value::from(s.as_str())),
        Just(Value::from("ERROR")),
        Just(Value::from("FINISHED")),
        Just(Value::from("wf-1")),
        Just(Value::from("t3")),
        Just(Value::Null),
    ]
}

fn arb_cmp() -> impl Strategy<Value = CmpOp> {
    prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge),
    ]
}

fn arb_filter() -> impl Strategy<Value = Stage> {
    (arb_column(), arb_cmp(), arb_lit())
        .prop_map(|(c, op, v)| Stage::Filter(Expr::Cmp(Box::new(col(c)), op, Box::new(lit(v)))))
}

/// Null tests: pushed into the scan as presence tests on every column
/// whose presence the store knows (the lineage column included),
/// residual otherwise.
fn arb_null_filter(column: impl Strategy<Value = String>) -> impl Strategy<Value = Stage> {
    (column, any::<bool>()).prop_map(|(c, present)| {
        Stage::Filter(if present {
            col(c).not_null()
        } else {
            col(c).is_null()
        })
    })
}

/// Membership filters: pushed into the scan (dictionary code sets) when
/// the list is null-free and the column columnar, residual otherwise —
/// both paths must match the oracle. Lists deliberately mix kinds and
/// sometimes contain Null (which keeps the conjunct residual).
fn arb_isin_filter() -> impl Strategy<Value = Stage> {
    (arb_column(), prop::collection::vec(arb_lit(), 1..4))
        .prop_map(|(c, vals)| Stage::Filter(col(c).isin(vals)))
}

fn arb_stage() -> impl Strategy<Value = Stage> {
    let agg = prop_oneof![
        Just(AggFunc::Mean),
        Just(AggFunc::Sum),
        Just(AggFunc::Min),
        Just(AggFunc::Max),
        Just(AggFunc::Count),
    ];
    prop_oneof![
        arb_filter(),
        arb_filter(),
        arb_isin_filter(),
        arb_null_filter(arb_column()),
        prop::collection::vec(arb_column(), 1..3).prop_map(Stage::Select),
        arb_column().prop_map(Stage::Col),
        arb_column().prop_map(|c| Stage::GroupBy(vec![c])),
        agg.prop_map(Stage::Agg),
        (arb_column(), any::<bool>()).prop_map(|(c, a)| Stage::SortValues(vec![(c, a)])),
        // Multi-key sorts: pushed only when every key is orderable.
        (arb_column(), any::<bool>(), arb_column(), any::<bool>())
            .prop_map(|(c1, a1, c2, a2)| Stage::SortValues(vec![(c1, a1), (c2, a2)])),
        // 0 included: a pushed top-k with k = 0 must stay exact.
        (0usize..5).prop_map(Stage::Head),
        Just(Stage::Count),
        Just(Stage::ValueCounts),
    ]
}

fn arb_query() -> impl Strategy<Value = Query> {
    (prop::collection::vec(arb_stage(), 0..4), any::<bool>()).prop_map(|(stages, wrap)| {
        let p = Query::pipeline(stages);
        if wrap {
            Query::Len(Box::new(p))
        } else {
            p
        }
    })
}

/// A well-formed task message with randomized hot fields, payloads,
/// optional telemetry, and (rarely) a dataflow key that shadows a
/// telemetry column's bare name (exercising poisoning).
fn arb_message() -> impl Strategy<Value = prov_model::TaskMessage> {
    (
        0usize..24,
        0usize..3,
        0usize..3,
        0u8..4,
        -3.0f64..30.0,
        0.0f64..6.0,
        any::<bool>(),
        0u8..12,
    )
        .prop_map(|(i, wf, act, status, start, dur, tele, shadow)| {
            let status = match status {
                0 => TaskStatus::Pending,
                1 => TaskStatus::Running,
                2 => TaskStatus::Error,
                _ => TaskStatus::Finished,
            };
            let mut b =
                TaskMessageBuilder::new(format!("t{i}"), format!("wf-{wf}"), format!("act{act}"))
                    .host(format!("n{}", i % 3))
                    .status(status)
                    .span(start, start + dur)
                    .uses("y", i as f64);
            if tele {
                let synth = prov_model::TelemetrySynth::frontier(i as u64);
                b = b.telemetry(
                    synth.snapshot(i as u64, 0, 0.5),
                    synth.snapshot(i as u64, 1, 0.5),
                );
            }
            if shadow == 0 {
                b = b.generates("gpu_percent_end", 123.0);
            }
            b.build()
        })
}

/// A raw document with missing/ill-typed hot fields: sometimes not even
/// decodable as a task message (the oracle drops it; the columnar path
/// must too), sometimes decodable only through defaults and coercions.
fn arb_raw_doc() -> impl Strategy<Value = Value> {
    let ids = prop_oneof![
        Just(Value::from("r1")),
        Just(Value::from("r2")),
        Just(Value::Int(7)), // ill-typed: undecodable id
        Just(Value::Null),
    ];
    let status = prop_oneof![
        Just(Value::from("ERROR")),
        Just(Value::from("finished")), // canonicalizes to FINISHED
        Just(Value::from("bogus")),    // falls back to the default
        Just(Value::Int(1)),           // ill-typed
        Just(Value::Null),
    ];
    let stamp = prop_oneof![
        (-2.0f64..20.0).prop_map(Value::Float),
        (0i64..20).prop_map(Value::Int),
        Just(Value::from("not-a-number")),
        // NaN decodes into a NaN frame cell: a top-k sorting on it ranks
        // it last like a null, and every pipeline must still match the
        // oracle cell-for-cell.
        Just(Value::Float(f64::NAN)),
        Just(Value::Null),
    ];
    // Lineage as the decode sees it: a non-empty list only when some
    // entry is a string.
    let deps = prop_oneof![
        Just(None),
        Just(Some(prov_model::arr![])),
        Just(Some(prov_model::arr!["t1"])),
        Just(Some(prov_model::arr![3, "t2"])),
        Just(Some(prov_model::arr![3, 4])),
        Just(Some(Value::from("t1"))),
        Just(Some(Value::Null)),
    ];
    (
        ids.clone(),
        ids,
        status,
        stamp.clone(),
        stamp,
        any::<bool>(),
        deps,
        arb_section(),
    )
        .prop_map(
            |(task, wf, status, started, ended, with_tele, deps, used)| {
                let mut doc = obj! {
                    "activity_id" => "raw_act",
                    "status" => status,
                    "started_at" => started,
                    "ended_at" => ended,
                };
                if !task.is_null() {
                    doc.insert("task_id", task);
                }
                if !wf.is_null() {
                    doc.insert("workflow_id", wf);
                }
                if with_tele {
                    doc.insert(
                        "telemetry_at_end",
                        obj! {"cpu" => obj! {"percent" => prov_model::arr![10.0, "x", 30.0]}},
                    );
                }
                if let Some(deps) = deps {
                    doc.insert("depends_on", deps);
                }
                doc.insert("used", used);
                doc
            },
        )
}

/// A dataflow leaf of any kind the frame can hold: mostly floats and
/// strings (which become discovered columns), sometimes an `Int`,
/// `Bool`, array, empty object, nested object, null or NaN.
fn arb_leaf() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-5.0f64..50.0).prop_map(Value::Float),
        (-5.0f64..50.0).prop_map(Value::Float),
        (-5.0f64..50.0).prop_map(Value::Float),
        "[a-c]{1,2}".prop_map(|s| Value::from(s.as_str())),
        "[a-c]{1,2}".prop_map(|s| Value::from(s.as_str())),
        (0i64..9).prop_map(Value::Int),
        any::<bool>().prop_map(Value::Bool),
        Just(prov_model::arr![1.0, "a"]),
        Just(obj! {}),
        Just(Value::Null),
        Just(Value::Float(f64::NAN)),
        (-5.0f64..5.0).prop_map(|x| obj! {"b" => x, "c" => "z"}),
        // Under `tags` / `telemetry_at_end`, names the row's tail sets.
        (-5.0f64..5.0).prop_map(|x| obj! {"k" => x}),
        (-5.0f64..5.0).prop_map(|x| obj! {"memory" => obj! {"used_mb" => x}}),
    ]
}

/// A `used`/`generated` section over keys that clash in every way the
/// flatten policy names: a common field (`status`), a protected derived
/// name (`duration`), an unprotected telemetry mean (`gpu_percent_end`),
/// the lineage field, `tags`/`telemetry_at_end` prefixes the row's tail
/// overwrites, and a dotted key beside a nested object that flattens to
/// the same name. (The steady columns of [`dataflow_message`] are not
/// among them, so those stay servable unless a case flips a kind.)
fn arb_section() -> impl Strategy<Value = Value> {
    let key = prop_oneof![
        Just("z"),
        Just("a"),
        Just("a.b"),
        Just("status"),
        Just("duration"),
        Just("gpu_percent_end"),
        Just("depends_on"),
        Just("tags"),
        Just("telemetry_at_end"),
    ];
    prop::collection::vec((key, arb_leaf()), 0..4).prop_map(|kvs| {
        let mut section = obj! {};
        for (k, v) in kvs {
            section.insert(k, v);
        }
        section
    })
}

/// Columns of the dataflow corpus: discovered names (bare, prefixed on a
/// clash, dotted), clash victims, the lineage column, a tag, and a few
/// fixed ones.
fn arb_dataflow_column() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("x".to_string()),
        Just("y".to_string()),
        Just("label".to_string()),
        Just("a".to_string()),
        Just("a.b".to_string()),
        Just("used.x".to_string()),
        Just("generated.x".to_string()),
        Just("used.status".to_string()),
        Just("generated.duration".to_string()),
        Just("gpu_percent_end".to_string()),
        Just("depends_on".to_string()),
        Just("tags.k".to_string()),
        Just("telemetry_at_end.memory.used_mb".to_string()),
        Just("task_id".to_string()),
        Just("started_at".to_string()),
        Just("ghost_column".to_string()),
    ]
}

fn arb_dataflow_stage() -> impl Strategy<Value = Stage> {
    let lit = prop_oneof![
        (-5.0f64..50.0).prop_map(Value::Float),
        "[a-c]{1,2}".prop_map(|s| Value::from(s.as_str())),
        (0i64..9).prop_map(Value::Int),
        Just(Value::Null),
    ];
    prop_oneof![
        (arb_dataflow_column(), arb_cmp(), lit.clone()).prop_map(|(c, op, v)| {
            Stage::Filter(Expr::Cmp(Box::new(col(c)), op, Box::new(dataframe::lit(v))))
        }),
        (arb_dataflow_column(), prop::collection::vec(lit, 1..3))
            .prop_map(|(c, vals)| Stage::Filter(col(c).isin(vals))),
        arb_null_filter(arb_dataflow_column()),
        arb_null_filter(arb_dataflow_column()),
        prop::collection::vec(arb_dataflow_column(), 1..3).prop_map(Stage::Select),
        arb_dataflow_column().prop_map(Stage::Col),
        arb_dataflow_column().prop_map(|c| Stage::GroupBy(vec![c])),
        prop_oneof![
            Just(AggFunc::Mean),
            Just(AggFunc::Sum),
            Just(AggFunc::Count)
        ]
        .prop_map(Stage::Agg),
        (arb_dataflow_column(), any::<bool>()).prop_map(|(c, a)| Stage::SortValues(vec![(c, a)])),
        (0usize..5).prop_map(Stage::Head),
        Just(Stage::Count),
        Just(Stage::ValueCounts),
    ]
}

fn arb_dataflow_query() -> impl Strategy<Value = Query> {
    (
        prop::collection::vec(arb_dataflow_stage(), 0..4),
        any::<bool>(),
    )
        .prop_map(|(stages, wrap)| {
            let p = Query::pipeline(stages);
            if wrap {
                Query::Len(Box::new(p))
            } else {
                p
            }
        })
}

/// The random parts of one dataflow message (see [`dataflow_message`]).
type DataflowFields = ((f64, u8), Value, Value, usize, bool, bool);

fn arb_dataflow_fields() -> impl Strategy<Value = DataflowFields> {
    (
        (-5.0f64..50.0, 0u8..4),
        arb_section(),
        arb_section(),
        0usize..3,
        any::<bool>(),
        any::<bool>(),
    )
}

/// Message `i` of a dataflow corpus, its `used`/`generated` trees random:
/// steady columns (`x` always a float in `used`, `label` always a string
/// in `generated`, sometimes with a `generated.x` clash), random extra
/// leaves, lineage that may be empty, telemetry and a tag the row's tail
/// overwrites dataflow cells with. `y` is a float before message `flip`
/// and a string from it on: a kind change across chunks.
fn dataflow_message(i: usize, flip: usize, fields: DataflowFields) -> prov_model::TaskMessage {
    let ((v, shape), mut used, mut generated, deps, tele, tag) = fields;
    let mut m = TaskMessageBuilder::new(format!("t{i}"), format!("wf-{}", i % 3), "act")
        .span(i as f64, i as f64 + 1.0)
        .build();
    if shape != 0 {
        used.insert("x", v);
    }
    if shape == 1 {
        generated.insert("x", v * 2.0);
    }
    if shape != 3 {
        generated.insert("label", format!("l{}", i % 4));
        if i < flip {
            generated.insert("y", v + i as f64);
        } else {
            generated.insert("y", format!("s{}", i % 3));
        }
    }
    m.used = used;
    m.generated = generated;
    m.depends_on = (0..deps).map(|d| format!("t{d}").into()).collect();
    if tele {
        let synth = prov_model::TelemetrySynth::frontier(i as u64);
        m.telemetry_at_end = Some(synth.snapshot(i as u64, 1, 0.5));
    }
    if tag {
        m = m.with_tag("k", "tagged");
    }
    m
}

/// Value equality with NaN ≡ NaN: `PartialEq` calls NaN unequal to
/// itself, but a scan that reproduces the oracle's NaN cells bit-for-bit
/// is exact, not divergent.
fn val_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => (x.is_nan() && y.is_nan()) || x == y,
        (Value::Array(x), Value::Array(y)) => {
            x.len() == y.len() && x.iter().zip(y.iter()).all(|(p, q)| val_eq(p, q))
        }
        (Value::Object(x), Value::Object(y)) => {
            x.len() == y.len()
                && x.iter()
                    .zip(y.iter())
                    .all(|((ka, va), (kb, vb))| ka == kb && val_eq(va, vb))
        }
        _ => a == b,
    }
}

fn frame_eq(a: &DataFrame, b: &DataFrame) -> bool {
    a.len() == b.len()
        && a.column_names() == b.column_names()
        && a.column_names().iter().all(|n| {
            let x = a.column(n).expect("listed").values();
            let y = b.column(n).expect("listed").values();
            x.len() == y.len() && x.iter().zip(y.iter()).all(|(p, q)| val_eq(p, q))
        })
}

fn out_eq(a: &Result<QueryOutput, ExecError>, b: &Result<QueryOutput, ExecError>) -> bool {
    match (a, b) {
        (Ok(QueryOutput::Frame(f)), Ok(QueryOutput::Frame(g))) => frame_eq(f, g),
        (
            Ok(QueryOutput::Series {
                name: n1,
                values: v1,
            }),
            Ok(QueryOutput::Series {
                name: n2,
                values: v2,
            }),
        ) => {
            n1 == n2 && v1.len() == v2.len() && v1.iter().zip(v2.iter()).all(|(p, q)| val_eq(p, q))
        }
        (Ok(QueryOutput::Scalar(x)), Ok(QueryOutput::Scalar(y))) => val_eq(x, y),
        (Ok(QueryOutput::Row(m1)), Ok(QueryOutput::Row(m2))) => {
            m1.len() == m2.len()
                && m1
                    .iter()
                    .zip(m2.iter())
                    .all(|((ka, va), (kb, vb))| ka == kb && val_eq(va, vb))
        }
        (Err(x), Err(y)) => x == y,
        _ => false,
    }
}

/// Plan and execute `q` on `snap`.
fn run(snap: &StoreSnapshot, q: &Query) -> Pushdown {
    prov_db::execute_plan(snap, &provql::plan(q, snap))
}

fn check(snap: &StoreSnapshot, q: &Query) {
    match run(snap, q) {
        Pushdown::Executed(got) => {
            // The oracle only runs when the pushed path claims exactness.
            let oracle = execute(q, &snap.oracle_frame());
            assert!(
                out_eq(&got, &oracle),
                "query={q:?}\n got: {got:?}\nwant: {oracle:?}"
            );
        }
        // The fallback path *is* the oracle — trivially identical.
        Pushdown::NeedsFullFrame(_) => {}
    }
}

/// Full-vector scans and top-k selections over a 6,000-row corpus on 4
/// shards must match the oracle exactly.
#[test]
fn large_scan_differential_over_four_shards() {
    let db = Arc::new(ProvenanceDatabase::with_shards(4));
    let msgs: Vec<prov_model::TaskMessage> = (0..6000)
        .map(|i| {
            TaskMessageBuilder::new(
                format!("t{i}"),
                format!("wf-{}", i % 5),
                format!("a{}", i % 3),
            )
            .host(format!("n{}", i % 4))
            .status(if i % 7 == 0 {
                TaskStatus::Error
            } else {
                TaskStatus::Finished
            })
            .span(i as f64, i as f64 + 1.0 + (i % 9) as f64)
            .uses("y", i as f64)
            .build()
        })
        .collect();
    db.insert_batch(&msgs);
    let snap = db.snapshot();
    let frame = snap.oracle_frame();
    let queries = [
        // Unselective columnar filter: full vector scan.
        r#"len(df[df["duration"] > 4])"#,
        r#"df[df["status"] != "ERROR"]["duration"].sum()"#,
        // Top-k through the bounded selection buffer (duration has no
        // sorted index, so the cursor cannot serve it) and through the
        // sorted-index cursor (started_at).
        r#"df.sort_values("duration", ascending=False)[["task_id", "duration"]].head(9)"#,
        r#"df[df["status"] != "ERROR"].sort_values("duration")[["task_id"]].head(6)"#,
        r#"df.sort_values("started_at", ascending=False)[["task_id", "started_at"]].head(7)"#,
    ];
    for text in queries {
        let q = provql::parse(text).expect("query parses");
        match run(&snap, &q) {
            Pushdown::Executed(got) => {
                let oracle = execute(&q, &frame);
                assert!(
                    out_eq(&got, &oracle),
                    "query={text}\n got: {got:?}\nwant: {oracle:?}"
                );
            }
            Pushdown::NeedsFullFrame(r) => panic!("query={text}: unexpected fallback ({r})"),
        }
    }
}

/// Corpora straddling the chunk boundary (one row short of a chunk, an
/// exact multiple, one row over — 4095/4096/4097 at the default
/// `PROVDB_CHUNK` of 4096, scaled automatically when the CI matrix leg
/// shrinks the chunk) on a single shard, so the last chunk is empty-,
/// full-, and one-row-sized in turn. Every kernel path (selective eq,
/// range, ne, in-list, top-k, grouped aggregation) must match the oracle
/// on all three; an undecodable raw document is pinned directly at the
/// boundary slot to keep the decodable bitmap honest there.
#[test]
fn chunk_boundary_corpora_match_oracle() {
    let chunk = prov_db::DocumentStore::new().chunk_rows();
    let queries = [
        r#"len(df[df["workflow_id"] == "wf-1"])"#,
        r#"len(df[df["started_at"] >= 4090])"#,
        r#"df[df["status"] != "FINISHED"]["duration"].sum()"#,
        r#"len(df[df["hostname"].isin(["n0", "n2"])])"#,
        r#"df.sort_values("started_at", ascending=False)[["task_id"]].head(5)"#,
        r#"df.groupby("activity_id")["duration"].mean()"#,
        r#"df[["task_id"]].head(3)"#,
    ];
    for n in [chunk - 1, chunk, chunk + 1] {
        let db = Arc::new(ProvenanceDatabase::with_shards(1));
        let msgs: Vec<prov_model::TaskMessage> = (0..n)
            .map(|i| {
                TaskMessageBuilder::new(
                    format!("t{i}"),
                    format!("wf-{}", i % 3),
                    format!("a{}", i % 2),
                )
                .host(format!("n{}", i % 4))
                .status(if i % 5 == 0 {
                    TaskStatus::Error
                } else {
                    TaskStatus::Finished
                })
                .span(i as f64, i as f64 + 1.0)
                .build()
            })
            .collect();
        // The second-to-last slot holds an undecodable document, so the
        // boundary chunk's decodable count differs from its length.
        db.insert_batch(&msgs[..n - 1]);
        db.documents().insert(obj! {"task_id" => Value::Int(9)});
        db.insert_batch(std::iter::once(&msgs[n - 1]));
        let snap = db.snapshot();
        for text in queries {
            let q = provql::parse(text).expect("query parses");
            check(&snap, &q);
        }
    }
}

/// Adversarial dictionaries: a one-symbol column (every row the same
/// hostname — one dictionary entry, every zone map identical), an
/// all-distinct column (`task_id` unique per row — dictionary as long as
/// the column), and all-null float columns (telemetry never supplied).
/// Eq/Ne/In filters and group-bys over each must match the oracle, as
/// must probes for symbols absent from the dictionary entirely.
#[test]
fn adversarial_dictionaries_match_oracle() {
    let db = Arc::new(ProvenanceDatabase::with_shards(2));
    let msgs: Vec<prov_model::TaskMessage> = (0..300)
        .map(|i| {
            TaskMessageBuilder::new(format!("unique-{i}"), format!("wf-{}", i % 2), "only_act")
                .host("lonely-host")
                .span(i as f64, i as f64 + 0.5)
                .build()
        })
        .collect();
    db.insert_batch(&msgs);
    let snap = db.snapshot();
    for text in [
        // One-symbol dictionary: everything matches, or nothing does.
        r#"len(df[df["hostname"] == "lonely-host"])"#,
        r#"len(df[df["hostname"] != "lonely-host"])"#,
        r#"len(df[df["hostname"] == "absent-host"])"#,
        r#"len(df[df["hostname"].isin(["lonely-host", "absent-host"])])"#,
        r#"df.groupby("hostname")["duration"].sum()"#,
        // All-distinct dictionary: single-row hits, code per row.
        r#"df[df["task_id"] == "unique-123"][["task_id", "started_at"]]"#,
        r#"len(df[df["task_id"] != "unique-123"])"#,
        r#"len(df[df["task_id"].isin(["unique-1", "unique-299", "nope"])])"#,
        r#"df.groupby("task_id")["duration"].count().head(4)"#,
        // All-null float columns: no telemetry anywhere.
        r#"len(df[df["cpu_percent_end"] > 0])"#,
        r#"len(df[df["cpu_percent_end"] != 0])"#,
        r#"df.sort_values("mem_used_mb_end")[["task_id"]].head(3)"#,
    ] {
        let q = provql::parse(text).expect("query parses");
        check(&snap, &q);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Messy corpora (raw docs with missing/ill-typed hot fields mixed
    /// into well-formed messages): the columnar path must agree with the
    /// document-scan oracle on every servable pipeline.
    #[test]
    fn columnar_matches_oracle_on_messy_corpora(
        msgs in prop::collection::vec(arb_message(), 1..14),
        raws in prop::collection::vec(arb_raw_doc(), 0..6),
        queries in prop::collection::vec(arb_query(), 1..4),
    ) {
        let db = ProvenanceDatabase::shared();
        db.insert_batch(&msgs);
        for raw in &raws {
            // Straight into the document backend: the facade only ever
            // stores well-formed Listing-1 messages, so malformed shapes
            // must be injected below it.
            db.documents().insert(raw.clone());
        }
        let snap = db.snapshot();
        for q in &queries {
            check(&snap, q);
        }
        // Lineage as the raw documents spell it, well-formed or not.
        for text in [
            r#"len(df[df["depends_on"].notna()])"#,
            r#"df[df["depends_on"].isna()][["task_id"]]"#,
        ] {
            check(&snap, &provql::parse(text).expect("parses"));
        }
    }

    /// Well-formed corpora: the columnar scan and the oracle agree.
    #[test]
    fn all_paths_agree_on_wellformed_corpora(
        msgs in prop::collection::vec(arb_message(), 1..14),
        queries in prop::collection::vec(arb_query(), 1..4),
    ) {
        let db = ProvenanceDatabase::shared();
        db.insert_batch(&msgs);
        let snap = db.snapshot();
        for q in &queries {
            check(&snap, q);
        }
    }
}

static DATAFLOW_DIRS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Pipelines every dataflow corpus runs besides its random ones: the
/// discovered columns projected, filtered, grouped, sorted and reduced,
/// and the lineage null tests.
const DATAFLOW_QUERIES: &[&str] = &[
    r#"df[["task_id", "x", "y", "label"]]"#,
    r#"df[["task_id", "generated.x"]]"#,
    r#"df[["task_id", "used.x"]]"#,
    r#"df[["task_id", "a.b"]]"#,
    r#"df[["task_id", "a"]]"#,
    r#"df[["task_id", "z"]]"#,
    r#"df[["task_id", "tags.k"]]"#,
    r#"df[["task_id", "telemetry_at_end.memory.used_mb"]]"#,
    r#"df[["task_id", "gpu_percent_end"]]"#,
    r#"df[df["x"] > 10][["task_id", "x"]]"#,
    r#"df[df["label"] == "l1"]["y"].sum()"#,
    r#"df.groupby("label")["x"].mean()"#,
    r#"df.sort_values("x", ascending=False)[["task_id", "x"]].head(3)"#,
    r#"df["y"].mean()"#,
    r#"len(df[df["depends_on"].notna()])"#,
    r#"len(df[df["depends_on"].isna()])"#,
    r#"df[df["x"].isna()][["task_id", "label"]]"#,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random `used`/`generated` trees over 16-row chunks on two shards:
    /// the store live (partly sealed), and lazily reopened from its
    /// `PSEG3` segments at a one-byte budget, must agree with their own
    /// oracle frames on every servable pipeline over the discovered
    /// columns, their clash-renamed siblings and the lineage column.
    #[test]
    fn dataflow_trees_match_oracle(
        fields in prop::collection::vec(arb_dataflow_fields(), 20..64),
        flip in 0usize..80,
        queries in prop::collection::vec(arb_dataflow_query(), 1..5),
    ) {
        let msgs: Vec<prov_model::TaskMessage> = fields
            .into_iter()
            .enumerate()
            .map(|(i, f)| dataflow_message(i, flip, f))
            .collect();
        let mut queries = queries;
        queries.extend(DATAFLOW_QUERIES.iter().map(|t| provql::parse(t).expect("parses")));
        let dir = std::env::temp_dir().join(format!(
            "provdb-dataflow-{}-{}",
            std::process::id(),
            DATAFLOW_DIRS.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let config = Config {
            shards: 2,
            chunk_rows: 16,
            wal_sync: SyncPolicy::Batch,
            ..Config::from_env()
        };
        let cut = msgs.len() * 2 / 3;
        let db = ProvenanceDatabase::open_with(&dir, config).expect("open durable");
        db.insert_batch(&msgs[..cut]);
        db.flush_views().expect("flush");
        db.seal_now().expect("seal");
        db.insert_batch(&msgs[cut..]);
        db.flush_views().expect("flush");
        for q in &queries {
            check(&db.snapshot(), q);
        }
        drop(db);
        let lazy = ProvenanceDatabase::open_with(&dir, Config { resident_bytes: 1, ..config })
            .expect("lazy reopen");
        for q in &queries {
            check(&lazy.snapshot(), q);
        }
        drop(lazy);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The column set `DataFrame::from_messages` builds over the decodable
/// documents of `db` below `bound`, sorted — by decoding every one.
fn decoded_frame_columns(db: &ProvenanceDatabase, bound: &[usize]) -> Vec<String> {
    let docs = db.documents();
    let n = bound.len();
    let slots = bound.iter().copied().max().unwrap_or(0);
    let msgs: Vec<prov_model::TaskMessage> = (0..slots * n)
        .filter(|id| id / n < bound[id % n])
        .filter_map(|id| docs.get(id))
        .filter_map(|d| prov_model::TaskMessage::from_value(&d))
        .collect();
    let frame = DataFrame::from_messages(&msgs);
    let mut names: Vec<String> = frame.column_names().iter().map(|s| s.to_string()).collect();
    names.sort();
    names
}

/// The row-key catalog's answer for the same set, sorted.
fn catalog_frame_columns(db: &ProvenanceDatabase, bound: &[usize]) -> Vec<String> {
    let names = db
        .documents()
        .frame_columns(bound)
        .expect("catalog within its cap");
    let mut names: Vec<String> = names.iter().map(|s| s.to_string()).collect();
    names.sort();
    names
}

/// The catalog equals the decoded column set at the whole store and at a
/// per-shard bound cut from `cuts` (anywhere in each shard, mid-chunk and
/// inside a sealed prefix included).
fn check_catalog(db: &ProvenanceDatabase, cuts: &[usize], label: &str) {
    let rows = db.documents().shard_rows();
    let cut: Vec<usize> = rows
        .iter()
        .zip(cuts.iter().cycle())
        .map(|(&r, &c)| c % (r + 1))
        .collect();
    for bound in [rows.clone(), cut] {
        assert_eq!(
            catalog_frame_columns(db, &bound),
            decoded_frame_columns(db, &bound),
            "{label}: bound {bound:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The row-key catalog is exact: over random `used`/`generated` trees
    /// (`Null`, array, object, `Int` and `Bool` leaves, `used.x` /
    /// `generated.x` clashes, keys shadowing fixed and telemetry names),
    /// rows with no telemetry, one section or both, tags, lineage and —
    /// in memory — undecodable documents, the frame columns it lists
    /// below random per-shard bounds are exactly those of
    /// `DataFrame::from_messages` over the visible decodable documents:
    /// in memory, on the durable store that sealed part of them, lazily
    /// reopened at the configured budget and at a one-byte budget, and
    /// replayed.
    #[test]
    fn row_key_catalog_lists_the_frame_columns_at_any_bound(
        fields in prop::collection::vec(arb_dataflow_fields(), 20..64),
        raws in prop::collection::vec(arb_raw_doc(), 0..6),
        flip in 0usize..80,
        cuts in prop::collection::vec(0usize..48, 2..3),
    ) {
        let msgs: Vec<prov_model::TaskMessage> = fields
            .into_iter()
            .enumerate()
            .map(|(i, f)| {
                let mut m = dataflow_message(i, flip, f);
                if i % 5 == 2 {
                    let synth = prov_model::TelemetrySynth::frontier(i as u64);
                    m.telemetry_at_start = Some(synth.snapshot(i as u64, 0, 0.5));
                }
                m
            })
            .collect();
        let config = Config {
            shards: 2,
            chunk_rows: 16,
            wal_sync: SyncPolicy::Batch,
            ..Config::from_env()
        };

        let mem = Arc::new(ProvenanceDatabase::with_shards(2));
        mem.insert_batch(&msgs);
        for raw in &raws {
            mem.documents().insert(raw.clone());
        }
        check_catalog(&mem, &cuts, "in memory");

        let dir = std::env::temp_dir().join(format!(
            "provdb-catalog-{}-{}",
            std::process::id(),
            DATAFLOW_DIRS.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cut = msgs.len() * 2 / 3;
        let db = ProvenanceDatabase::open_with(&dir, config).expect("open durable");
        db.insert_batch(&msgs[..cut]);
        db.flush_views().expect("flush");
        db.seal_now().expect("seal");
        db.insert_batch(&msgs[cut..]);
        db.flush_views().expect("flush");
        check_catalog(&db, &cuts, "live durable");
        drop(db);
        for budget in [config.resident_bytes, 1] {
            let lazy = ProvenanceDatabase::open_with(&dir, Config { resident_bytes: budget, ..config })
                .expect("lazy reopen");
            check_catalog(&lazy, &cuts, &format!("lazy at {budget} bytes"));
        }
        let replayed = ProvenanceDatabase::open_replayed(&dir, config).expect("replayed reopen");
        check_catalog(&replayed, &cuts, "replayed");
        drop(replayed);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
