//! `prov_db` bench group: the engine's hot paths, each beside a
//! reference path of the same engine — batch ingest (eager vs accept vs
//! accept + materialize), indexed point find (against an unindexed
//! `DocumentStore`), group-by aggregation (against the frame group-by
//! over the oracle frame), the vectorized kernels (zone-map chunk
//! skipping, code-based group-by against its frame-based equivalent),
//! and the oracle frame and the CSR graph compaction each built from
//! empty against the same one extended by a delta.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use dataframe::AggFunc;
use prov_db::{AggOp, Aggregate, DocQuery, DocumentStore, GroupSpec, Op, ProvenanceDatabase};
use prov_model::{TaskMessage, TaskMessageBuilder, TelemetrySynth};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

fn msg(i: usize) -> TaskMessage {
    TaskMessageBuilder::new(
        format!("t{i}"),
        format!("wf-{}", i % 50),
        format!("act{}", i % 8),
    )
    .host(format!("node{:03}", i % 64))
    .uses("x", i as f64)
    .generates("y", (i * 2) as f64)
    .span(i as f64, i as f64 + 1.0)
    .build()
}

fn corpus(n: usize) -> Vec<TaskMessage> {
    (0..n).map(msg).collect()
}

/// Batch ingest of task messages: the eager batch path, the streaming
/// accept path (keeper-style `Arc` handover), and accept + materialize.
fn bench_batch_ingest(c: &mut Criterion) {
    let mut g = c.benchmark_group("provdb_batch_ingest");
    g.sample_size(10).measurement_time(Duration::from_secs(5));
    const N: usize = 20_000;
    let msgs = corpus(N);
    let shared: Vec<std::sync::Arc<TaskMessage>> =
        msgs.iter().cloned().map(std::sync::Arc::new).collect();
    g.bench_with_input(BenchmarkId::new("sharded_eager", N), &msgs, |b, msgs| {
        b.iter(|| {
            let db = ProvenanceDatabase::new();
            black_box(db.insert_batch(msgs))
        })
    });
    g.bench_with_input(
        BenchmarkId::new("sharded_accept", N),
        &shared,
        |b, shared| {
            b.iter(|| {
                let db = ProvenanceDatabase::new();
                black_box(db.insert_batch_shared(shared.iter().cloned()))
            })
        },
    );
    g.bench_with_input(
        BenchmarkId::new("sharded_accept_materialize", N),
        &shared,
        |b, shared| {
            b.iter(|| {
                let db = ProvenanceDatabase::new();
                db.insert_batch_shared(shared.iter().cloned());
                db.flush_views().expect("flush");
                black_box(db.insert_count())
            })
        },
    );
    g.finish();
}

/// Indexed equality find (p50-style repeated probe on a hot field),
/// beside the same query on an unindexed `DocumentStore`.
fn bench_indexed_find(c: &mut Criterion) {
    let mut g = c.benchmark_group("provdb_indexed_find");
    g.sample_size(20).measurement_time(Duration::from_secs(5));
    const N: usize = 100_000;
    let msgs = corpus(N);
    let unindexed = DocumentStore::new();
    unindexed.insert_many(msgs.iter().map(TaskMessage::to_value).collect());
    let sharded = ProvenanceDatabase::new();
    sharded.insert_batch(&msgs);
    let query = DocQuery::new().filter("workflow_id", Op::Eq, "wf-7");
    g.bench_function("unindexed", |b| {
        b.iter(|| black_box(unindexed.find(&query).len()))
    });
    g.bench_function("sharded", |b| {
        b.iter(|| black_box(sharded.find(&query).len()))
    });
    g.finish();
}

/// Group-by aggregation over 100k documents, beside the frame group-by
/// over the oracle frame.
fn bench_aggregate(c: &mut Criterion) {
    let mut g = c.benchmark_group("provdb_aggregate_100k");
    g.sample_size(10).measurement_time(Duration::from_secs(5));
    const N: usize = 100_000;
    let msgs = corpus(N);
    let sharded = ProvenanceDatabase::shared();
    sharded.insert_batch(&msgs);
    let frame = sharded.snapshot().oracle_frame();
    let group = GroupSpec {
        key: "activity_id".into(),
        aggs: vec![
            Aggregate {
                path: "generated.y".into(),
                op: AggOp::Mean,
            },
            Aggregate {
                path: "generated.y".into(),
                op: AggOp::Count,
            },
        ],
    };
    let query = DocQuery::new();
    g.bench_function("frame_groupby", |b| {
        b.iter(|| {
            let by = frame.groupby(&["activity_id"]).expect("key column");
            black_box(by.agg(&[("y", AggFunc::Mean), ("y", AggFunc::Count)]))
        })
    });
    g.bench_function("sharded", |b| {
        b.iter(|| black_box(sharded.aggregate(&query, &group).len()))
    });
    g.finish();
}

/// Pin a snapshot, plan `q` against it and run the pushed scan.
fn run_query(db: &Arc<ProvenanceDatabase>, q: &provql::Query) -> usize {
    let snap = db.snapshot();
    match prov_db::execute_plan(&snap, &provql::plan(q, &*snap)) {
        prov_db::Pushdown::Executed(out) => out.expect("query runs").len(),
        prov_db::Pushdown::NeedsFullFrame(reason) => {
            panic!("bench query was not served by the scan: {reason}")
        }
    }
}

/// Selective range scan where the per-chunk zone maps do the work:
/// `started_at` is monotone in the corpus, so a high bound lets the
/// kernel discard nearly every granule from its min/max alone.
fn bench_chunk_skip(c: &mut Criterion) {
    let mut g = c.benchmark_group("provdb_chunk_skip");
    g.sample_size(10).measurement_time(Duration::from_secs(5));
    const N: usize = 100_000;
    let db = ProvenanceDatabase::shared();
    db.insert_batch(&corpus(N));
    let q = provql::parse(r#"df[df["started_at"] > 99000.0][["task_id", "started_at"]]"#)
        .expect("bench query parses");
    g.bench_function("zone_map_skip", |b| {
        b.iter(|| black_box(run_query(&db, &q)))
    });
    g.finish();
}

/// Single-key grouped aggregate: hash a per-row `Vec<Value>` key over the
/// cached full frame vs grouping directly over dictionary codes (one
/// symbol unification per (shard, distinct value), aggregation over
/// gathered cells).
fn bench_vectorized_groupby(c: &mut Criterion) {
    let mut g = c.benchmark_group("provdb_vectorized_groupby");
    g.sample_size(10).measurement_time(Duration::from_secs(5));
    const N: usize = 100_000;
    let db = ProvenanceDatabase::shared();
    db.insert_batch(&corpus(N));
    let frame = db.snapshot().oracle_frame();
    let q =
        provql::parse(r#"df.groupby("hostname")["duration"].mean()"#).expect("bench query parses");
    g.bench_function("frame_hash_keys", |b| {
        b.iter(|| black_box(provql::execute(&q, &frame).expect("query runs")))
    });
    g.bench_function("dictionary_codes", |b| {
        b.iter(|| black_box(run_query(&db, &q)))
    });
    g.finish();
}

/// The oracle frame of a 20k-row store with start and end telemetry on
/// every row, built from empty (a fresh store per sample). Only the
/// `oracle_frame` call is timed; building the store is setup.
fn bench_oracle_frame(c: &mut Criterion) {
    let mut g = c.benchmark_group("oracle_frame");
    g.sample_size(10).measurement_time(Duration::from_secs(10));
    const N: usize = 20_000;
    let synth = TelemetrySynth::frontier(7);
    let msgs: Vec<TaskMessage> = (0..N)
        .map(|i| {
            let mut m = msg(i);
            m.telemetry_at_start = Some(synth.snapshot(i as u64, 0, 0.5));
            m.telemetry_at_end = Some(synth.snapshot(i as u64, 1, 0.5));
            m
        })
        .collect();
    g.bench_function("build_20k", |b| {
        b.iter_batched(
            || {
                let db = ProvenanceDatabase::shared();
                db.insert_batch(&msgs);
                db.snapshot()
            },
            // The snapshot is handed back so that dropping the store it
            // holds stays outside the timed call.
            |snap| (snap.oracle_frame(), snap),
            BatchSize::PerIteration,
        )
    });
    g.finish();
}

/// The CSR compaction of a 25k-message store — an activity node and a
/// `prov:wasInformedBy` edge per message, an agent node and association
/// edge on every fourth: built from empty (a fresh store per sample), and
/// extended by 1k newer messages over the memo a 25k-message snapshot
/// left behind. Only the compaction is timed; building the store is setup.
fn bench_csr(c: &mut Criterion) {
    let mut g = c.benchmark_group("csr");
    g.sample_size(10).measurement_time(Duration::from_secs(10));
    const N: usize = 25_000;
    const DELTA: usize = 1_000;
    let msgs: Vec<TaskMessage> = (0..N + DELTA)
        .map(|i| {
            let mut b = TaskMessageBuilder::new(
                format!("t{i}"),
                format!("wf-{}", i % 50),
                format!("act{}", i % 8),
            );
            if i > 0 {
                b = b.depends_on(format!("t{}", i / 2));
            }
            if i % 4 == 0 {
                b = b.agent("agent-0");
            }
            b.build()
        })
        .collect();
    let store = |rows: &[TaskMessage]| {
        let db = ProvenanceDatabase::shared();
        db.insert_batch(rows);
        db
    };
    g.bench_function("build_25k", |b| {
        b.iter_batched(
            || store(&msgs[..N]),
            // The store is handed back so that dropping it stays outside
            // the timed call.
            |db| (prov_db::CsrGraph::build(db.graph()), db),
            BatchSize::PerIteration,
        )
    });
    g.bench_function("extend_1k_over_25k", |b| {
        b.iter_batched(
            || {
                let db = store(&msgs[..N]);
                db.snapshot().graph_csr();
                db.insert_batch(&msgs[N..]);
                db
            },
            |db| {
                let snap = db.snapshot();
                (Arc::clone(snap.graph_csr()), snap)
            },
            BatchSize::PerIteration,
        )
    });
    g.finish();
}

criterion_group!(
    prov_db,
    bench_batch_ingest,
    bench_indexed_find,
    bench_aggregate,
    bench_chunk_skip,
    bench_vectorized_groupby,
    bench_oracle_frame,
    bench_csr
);
criterion_main!(prov_db);
