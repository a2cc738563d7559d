//! The Provenance Keeper service (§2.3): subscribes to the streaming hub,
//! converts incoming messages into the unified W3C-PROV-extension schema,
//! and persists them in the provenance database.
//!
//! Multiple keepers can run against the same hub (fan-out subscriptions) or
//! share a consumer group on a partitioned broker for horizontal scaling.

use crossbeam::channel::RecvTimeoutError;
use parking_lot::Mutex;
use prov_db::ProvenanceDatabase;
use prov_stream::{topics, PartitionedBroker, StreamingHub};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Configuration for one keeper instance.
#[derive(Debug, Clone)]
pub struct KeeperConfig {
    /// Topics to subscribe to.
    pub topics: Vec<String>,
    /// Insert batch size (messages are buffered and inserted in bulk).
    pub batch_size: usize,
    /// Poll timeout before flushing a partial batch.
    pub poll_timeout: Duration,
    /// Deduplicate redeliveries by `(task_id, status, msg_type)`. Enable
    /// when the transport is at-least-once (duplicates on retry); the
    /// keeper then makes persistence idempotent. Off by default — the
    /// fire-and-forget Redis-like path never duplicates.
    pub dedup: bool,
    /// Flush database views after every persisted batch. On a durable
    /// store ([`ProvenanceDatabase::open`]) this hands each batch to the
    /// write-ahead log as soon as the keeper accepts it, bounding what a
    /// crash can lose to one in-flight batch; on an in-memory store it
    /// merely materializes eagerly. Off by default — the lazy
    /// flush-on-read path is faster when durability is not in play.
    pub durable_flush: bool,
}

impl Default for KeeperConfig {
    fn default() -> Self {
        Self {
            topics: vec![
                topics::TASKS.to_string(),
                topics::AGENT.to_string(),
                topics::ANOMALIES.to_string(),
            ],
            batch_size: 64,
            poll_timeout: Duration::from_millis(20),
            dedup: false,
            durable_flush: false,
        }
    }
}

/// Handle to a running keeper; stops and joins on [`KeeperHandle::stop`] or drop.
pub struct KeeperHandle {
    stop: Arc<AtomicBool>,
    processed: Arc<AtomicU64>,
    workers: Vec<JoinHandle<()>>,
}

impl KeeperHandle {
    /// Messages persisted so far.
    pub fn processed(&self) -> u64 {
        self.processed.load(Ordering::Relaxed)
    }

    /// Signal shutdown and join worker threads.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }

    /// Block until at least `n` messages have been persisted or the timeout
    /// elapses; returns whether the target was reached.
    pub fn wait_for(&self, n: u64, timeout: Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        while self.processed() < n {
            if std::time::Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        true
    }
}

impl Drop for KeeperHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Start a keeper: one worker thread per subscribed topic.
pub fn start(
    hub: &StreamingHub,
    db: Arc<ProvenanceDatabase>,
    config: KeeperConfig,
) -> KeeperHandle {
    let stop = Arc::new(AtomicBool::new(false));
    let processed = Arc::new(AtomicU64::new(0));
    let seen: Arc<Mutex<HashSet<String>>> = Arc::new(Mutex::new(HashSet::new()));
    let mut workers = Vec::new();
    for topic in &config.topics {
        let sub = hub.subscribe(topic);
        let stop = stop.clone();
        let processed = processed.clone();
        let db = db.clone();
        let seen = if config.dedup {
            Some(seen.clone())
        } else {
            None
        };
        let batch_size = config.batch_size.max(1);
        let poll_timeout = config.poll_timeout;
        let durable_flush = config.durable_flush;
        let name = format!("keeper-{topic}");
        workers.push(
            std::thread::Builder::new()
                .name(name)
                .spawn(move || {
                    let mut batch = Vec::with_capacity(batch_size);
                    loop {
                        match sub.recv_timeout(poll_timeout) {
                            Ok(msg) => {
                                if accept(seen.as_deref(), &msg) {
                                    batch.push(msg);
                                }
                                if batch.len() >= batch_size {
                                    persist(&db, &processed, &mut batch, durable_flush);
                                }
                            }
                            Err(RecvTimeoutError::Timeout) => {
                                persist(&db, &processed, &mut batch, durable_flush);
                                if stop.load(Ordering::Relaxed) {
                                    break;
                                }
                            }
                            Err(RecvTimeoutError::Disconnected) => {
                                persist(&db, &processed, &mut batch, durable_flush);
                                break;
                            }
                        }
                    }
                })
                .expect("spawn keeper worker"),
        );
    }
    KeeperHandle {
        stop,
        processed,
        workers,
    }
}

/// Redelivery filter: admits a message once per `(task_id, status,
/// msg_type)` when dedup is on (`seen` present), always otherwise. Status
/// and type participate so a later status transition or an anomaly tag for
/// the same task id is not mistaken for a duplicate.
fn accept(seen: Option<&Mutex<HashSet<String>>>, msg: &prov_model::TaskMessage) -> bool {
    match seen {
        None => true,
        Some(set) => set.lock().insert(format!(
            "{}\x1f{}\x1f{}",
            msg.task_id.as_str(),
            msg.status.as_str(),
            msg.msg_type.as_str()
        )),
    }
}

fn persist(
    db: &ProvenanceDatabase,
    processed: &AtomicU64,
    batch: &mut Vec<prov_stream::Delivery>,
    durable_flush: bool,
) {
    if batch.is_empty() {
        return;
    }
    // Streaming fast path: hand the database the broker's own `Arc`
    // handles — view materialization is deferred and batched (one lock
    // acquisition per backend when it happens).
    db.insert_batch_shared(batch.iter().cloned());
    if durable_flush {
        // Materialize now so a durable store's WAL covers this batch
        // before the keeper acknowledges it via `processed`.
        db.flush_views();
    }
    processed.fetch_add(batch.len() as u64, Ordering::Relaxed);
    batch.clear();
}

/// Pull-mode keeper for partitioned brokers: drains a consumer group until
/// empty, persisting everything. Returns the number of messages persisted.
/// This is the horizontal-scaling path: several keepers sharing `group`
/// split the partitions' backlog between them.
pub fn drain_partitioned(
    broker: &PartitionedBroker,
    group: &str,
    topic: &str,
    db: &ProvenanceDatabase,
    batch_size: usize,
) -> usize {
    let mut total = 0;
    loop {
        let batch = broker.poll(group, topic, batch_size.max(1));
        if batch.is_empty() {
            return total;
        }
        total += db.insert_batch_shared(batch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prov_model::{TaskMessage, TaskMessageBuilder};
    use prov_stream::{Broker, FlushStrategy};

    fn msg(i: usize) -> TaskMessage {
        TaskMessageBuilder::new(format!("t{i}"), "wf", "act")
            .generates("x", i as i64)
            .build()
    }

    #[test]
    fn keeper_persists_streamed_messages() {
        let hub = StreamingHub::in_memory();
        let db = ProvenanceDatabase::shared();
        let keeper = start(&hub, db.clone(), KeeperConfig::default());
        for i in 0..50 {
            hub.publish_task(msg(i)).unwrap();
        }
        assert!(keeper.wait_for(50, Duration::from_secs(5)));
        keeper.stop();
        assert_eq!(db.documents().len(), 50);
        assert!(db.snapshot().get_task("t42").is_some());
    }

    /// The PROV records of a kept message — the task as an activity, its
    /// agent, and the `wasInformedBy`/`wasAssociatedWith` relations — are
    /// read back from the store's graph.
    #[test]
    fn keeper_records_prov_relations_in_the_store_graph() {
        use prov_model::ProvRelation;
        let hub = StreamingHub::in_memory();
        let db = ProvenanceDatabase::shared();
        let keeper = start(&hub, db.clone(), KeeperConfig::default());
        hub.publish_task(msg(0)).unwrap();
        let tool = TaskMessageBuilder::new("t1", "wf", "act")
            .agent("prov-agent")
            .depends_on("t0")
            .build();
        hub.publish_task(tool).unwrap();
        assert!(keeper.wait_for(2, Duration::from_secs(5)));
        keeper.stop();
        let snap = db.snapshot();
        let graph = snap.graph();
        assert_eq!(graph.node("t0").expect("activity").label, "prov:Activity");
        assert_eq!(graph.node("prov-agent").expect("agent").label, "prov:Agent");
        assert_eq!(
            graph.neighbors_out("t1", ProvRelation::WasInformedBy.as_str()),
            ["t0"]
        );
        assert_eq!(
            graph.neighbors_out("t1", ProvRelation::WasAssociatedWith.as_str()),
            ["prov-agent"]
        );
    }

    #[test]
    fn keeper_sees_bulk_flushes() {
        let hub = StreamingHub::in_memory();
        let db = ProvenanceDatabase::shared();
        let keeper = start(&hub, db.clone(), KeeperConfig::default());
        let emitter = hub.task_emitter(FlushStrategy::by_count(16));
        for i in 0..100 {
            emitter.emit(msg(i)).unwrap();
        }
        emitter.flush().unwrap();
        assert!(keeper.wait_for(100, Duration::from_secs(5)));
        keeper.stop();
        assert_eq!(db.documents().len(), 100);
    }

    /// A `durable_flush` keeper over a durable store: once the keeper
    /// acknowledges the messages, they are in the WAL — dropping the
    /// store without any explicit flush and reopening must recover every
    /// acknowledged message.
    #[test]
    fn durable_flush_keeper_survives_reopen() {
        let dir = std::env::temp_dir().join(format!("provdb-keeper-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let hub = StreamingHub::in_memory();
            let db = ProvenanceDatabase::open(&dir).expect("open durable");
            let keeper = start(
                &hub,
                db.clone(),
                KeeperConfig {
                    durable_flush: true,
                    ..KeeperConfig::default()
                },
            );
            for i in 0..40 {
                hub.publish_task(msg(i)).unwrap();
            }
            assert!(keeper.wait_for(40, Duration::from_secs(5)));
            keeper.stop();
        }
        let back = ProvenanceDatabase::open(&dir).expect("reopen");
        assert_eq!(back.insert_count(), 40);
        assert_eq!(back.documents().len(), 40);
        assert!(back.snapshot().get_task("t39").is_some());
        drop(back);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dedup_makes_persistence_idempotent_under_at_least_once_transport() {
        use prov_stream::{ChaosBroker, ChaosConfig, MemoryBroker};
        let chaos = Arc::new(ChaosBroker::new(
            Arc::new(MemoryBroker::new()),
            ChaosConfig {
                duplicate_p: 0.5,
                ..ChaosConfig::default()
            },
        ));
        let hub = StreamingHub::new(chaos.clone());
        let db = ProvenanceDatabase::shared();
        let keeper = start(
            &hub,
            db.clone(),
            KeeperConfig {
                dedup: true,
                ..KeeperConfig::default()
            },
        );
        for i in 0..100 {
            hub.publish_task(msg(i)).unwrap();
        }
        assert!(keeper.wait_for(100, Duration::from_secs(5)));
        keeper.stop();
        let (_, duplicated, _) = chaos.fault_counts();
        assert!(duplicated > 20, "chaos should have duplicated messages");
        assert_eq!(
            db.documents().len(),
            100,
            "dedup keeper must persist each message exactly once"
        );
    }

    #[test]
    fn without_dedup_duplicates_inflate_the_document_store() {
        use prov_stream::{ChaosBroker, ChaosConfig, MemoryBroker};
        let chaos = Arc::new(ChaosBroker::new(
            Arc::new(MemoryBroker::new()),
            ChaosConfig {
                duplicate_p: 0.5,
                ..ChaosConfig::default()
            },
        ));
        let hub = StreamingHub::new(chaos.clone());
        let db = ProvenanceDatabase::shared();
        let keeper = start(&hub, db.clone(), KeeperConfig::default());
        for i in 0..100 {
            hub.publish_task(msg(i)).unwrap();
        }
        let (_, duplicated, _) = chaos.fault_counts();
        assert!(keeper.wait_for(100 + duplicated, Duration::from_secs(5)));
        keeper.stop();
        assert!(
            db.documents().len() > 100,
            "without dedup, redeliveries appear twice ({} docs)",
            db.documents().len()
        );
        // A point lookup by task id answers either way.
        assert!(db.snapshot().get_task("t42").is_some());
    }

    #[test]
    fn dedup_keeps_distinct_statuses_and_types() {
        let hub = StreamingHub::in_memory();
        let db = ProvenanceDatabase::shared();
        let keeper = start(
            &hub,
            db.clone(),
            KeeperConfig {
                dedup: true,
                ..KeeperConfig::default()
            },
        );
        // Same task id, different status: both must persist (a status
        // transition, not a redelivery).
        let running = TaskMessageBuilder::new("t0", "wf", "act")
            .status(prov_model::TaskStatus::Running)
            .build();
        let finished = TaskMessageBuilder::new("t0", "wf", "act")
            .status(prov_model::TaskStatus::Finished)
            .build();
        hub.publish_task(running.clone()).unwrap();
        hub.publish_task(finished).unwrap();
        // Exact redelivery: dropped.
        hub.publish_task(running).unwrap();
        assert!(keeper.wait_for(2, Duration::from_secs(5)));
        keeper.stop();
        assert_eq!(db.documents().len(), 2);
    }

    #[test]
    fn drain_partitioned_consumer_group() {
        let broker = PartitionedBroker::shared();
        for i in 0..30 {
            broker.publish(topics::TASKS, msg(i)).unwrap();
        }
        let db = ProvenanceDatabase::new();
        let n = drain_partitioned(&broker, "keepers", topics::TASKS, &db, 8);
        assert_eq!(n, 30);
        assert_eq!(db.documents().len(), 30);
        // Second drain of the same group sees nothing new.
        assert_eq!(
            drain_partitioned(&broker, "keepers", topics::TASKS, &db, 8),
            0
        );
    }

    #[test]
    fn two_keepers_both_receive_fanout() {
        let hub = StreamingHub::in_memory();
        let db1 = ProvenanceDatabase::shared();
        let db2 = ProvenanceDatabase::shared();
        let k1 = start(&hub, db1.clone(), KeeperConfig::default());
        let k2 = start(&hub, db2.clone(), KeeperConfig::default());
        for i in 0..10 {
            hub.publish_task(msg(i)).unwrap();
        }
        assert!(k1.wait_for(10, Duration::from_secs(5)));
        assert!(k2.wait_for(10, Duration::from_secs(5)));
        k1.stop();
        k2.stop();
        assert_eq!(db1.documents().len(), 10);
        assert_eq!(db2.documents().len(), 10);
    }
}
