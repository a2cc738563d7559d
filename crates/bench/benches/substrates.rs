//! Ablation benches for the design decisions DESIGN.md calls out:
//! buffered bulk streaming vs per-message publish, broker backends,
//! capture overhead, parallel vs sequential DataFrame kernels, and
//! provenance-database insert fan-out.

use criterion::{criterion_group, criterion_main, Criterion};
use dataframe::{col, lit, DataFrame};
use prov_db::ProvenanceDatabase;
use prov_model::{sim_clock, TaskMessage, TaskMessageBuilder, Value};
use prov_stream::{
    topics, Broker, FlushStrategy, MemoryBroker, PartitionedBroker, RdmaBroker, StreamingHub,
};
use std::hint::black_box;
use std::time::Duration;

fn msg(i: usize) -> TaskMessage {
    TaskMessageBuilder::new(format!("t{i}"), "wf", "step")
        .uses("x", i as f64)
        .generates("y", (i * 2) as f64)
        .span(i as f64, i as f64 + 1.0)
        .build()
}

/// Buffered bulk emission vs per-message publish (§4.1's overhead claim).
fn bench_hub_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("hub_throughput");
    g.sample_size(10).measurement_time(Duration::from_secs(3));
    const N: usize = 2_000;
    g.bench_function("per_message_publish", |b| {
        b.iter(|| {
            let hub = StreamingHub::in_memory();
            let _sub = hub.subscribe_tasks();
            for i in 0..N {
                hub.publish_task(msg(i)).unwrap();
            }
            black_box(hub.stats().published)
        })
    });
    g.bench_function("bulk_flush_128", |b| {
        b.iter(|| {
            let hub = StreamingHub::in_memory();
            let _sub = hub.subscribe_tasks();
            let emitter = hub.task_emitter(FlushStrategy::by_count(128));
            for i in 0..N {
                emitter.emit(msg(i)).unwrap();
            }
            emitter.flush().unwrap();
            black_box(hub.stats().published)
        })
    });
    g.finish();
}

/// The three broker backends under the same batch workload.
fn bench_broker_backends(c: &mut Criterion) {
    let mut g = c.benchmark_group("broker_backends");
    g.sample_size(10).measurement_time(Duration::from_secs(3));
    const N: usize = 1_000;
    let batch = || (0..N).map(msg).collect::<Vec<_>>();
    g.bench_function("memory", |b| {
        b.iter(|| {
            let broker = MemoryBroker::shared();
            let _s = broker.subscribe(topics::TASKS);
            black_box(broker.publish_batch(topics::TASKS, batch()).unwrap())
        })
    });
    g.bench_function("partitioned", |b| {
        b.iter(|| {
            let broker = PartitionedBroker::shared();
            let _s = broker.subscribe(topics::TASKS);
            black_box(broker.publish_batch(topics::TASKS, batch()).unwrap())
        })
    });
    g.bench_function("rdma", |b| {
        b.iter(|| {
            let broker = RdmaBroker::shared();
            let _s = broker.subscribe(topics::TASKS);
            black_box(broker.publish_batch(topics::TASKS, batch()).unwrap())
        })
    });
    g.finish();
}

/// Per-task capture overhead: immediate vs bulk flushing.
fn bench_capture_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("capture_overhead");
    g.sample_size(10).measurement_time(Duration::from_secs(3));
    for (name, strategy) in [
        ("immediate", FlushStrategy::immediate()),
        ("bulk", FlushStrategy::bulk()),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let hub = StreamingHub::in_memory();
                let _sub = hub.subscribe_tasks();
                let ctx = prov_capture::CaptureContext::new(&hub, "c", "w", sim_clock(), 1)
                    .with_flush_strategy(&hub, strategy);
                for i in 0..500u64 {
                    let t = ctx.instrument(
                        "step",
                        prov_model::obj! {"x" => i as f64},
                        0.2,
                        &[],
                        |u| Ok(prov_model::obj! {"y" => u.get("x").unwrap().as_f64().unwrap() * 2.0}),
                    );
                    black_box(t.task_id);
                }
                ctx.flush();
            })
        });
    }
    g.finish();
}

/// DataFrame mask and mean kernels on a large buffer.
fn bench_dataframe_kernels(c: &mut Criterion) {
    let mut g = c.benchmark_group("dataframe_kernels");
    g.sample_size(10).measurement_time(Duration::from_secs(3));
    let n = 200_000;
    let xs: Vec<Value> = (0..n).map(|i| Value::Float((i % 1000) as f64)).collect();
    let frame = DataFrame::from_columns(vec![("x", xs)]).unwrap();
    let expr = col("x").gt(lit(500.0));
    g.bench_function("mask", |b| b.iter(|| black_box(expr.mask(&frame).len())));
    g.bench_function("mean", |b| {
        b.iter(|| black_box(frame.agg("x", dataframe::AggFunc::Mean).unwrap()))
    });
    g.finish();
}

/// Provenance database insert fan-out (document + KV + graph).
fn bench_db_inserts(c: &mut Criterion) {
    let mut g = c.benchmark_group("provdb_inserts");
    g.sample_size(10).measurement_time(Duration::from_secs(3));
    let msgs: Vec<TaskMessage> = (0..1_000).map(msg).collect();
    g.bench_function("insert_1k_messages", |b| {
        b.iter(|| {
            let db = ProvenanceDatabase::new();
            black_box(db.insert_batch(&msgs))
        })
    });
    g.finish();
}

criterion_group!(
    substrates,
    bench_hub_throughput,
    bench_broker_backends,
    bench_capture_overhead,
    bench_dataframe_kernels,
    bench_db_inserts
);
criterion_main!(substrates);
