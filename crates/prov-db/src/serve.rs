//! Thread-pool query front-end with admission control.
//!
//! [`QueryServer`] is the "heavy traffic" leg of the serving story: many
//! concurrent clients submitting provql query text against one shared
//! [`ProvenanceDatabase`] while ingest keeps streaming in. The design is
//! deliberately boring:
//!
//! * a fixed pool of worker threads executes queries against
//!   [`StoreSnapshot`]s — each worker pins a snapshot and re-pins only
//!   when the store generation moves, so a query storm between ingest
//!   bursts costs zero flushes and zero write-lock waits;
//! * a bounded submission queue provides **backpressure**: when the
//!   queue is full, [`QueryServer::submit`] fails fast with
//!   [`SubmitError::QueueFull`] instead of buffering without bound —
//!   the client retries or sheds load, and ingest never starves behind
//!   an unbounded read backlog;
//! * results route through the shared plan-keyed cache
//!   ([`crate::cache`]), so storms of identical dashboard queries cost
//!   one execution per store generation;
//! * per-query latency is recorded, and [`QueryServer::stats`] reports
//!   p50/p99 plus cache counters — the numbers the `mixed_load`
//!   benchmark commits.
//!
//! Synchronization is `std::sync` (`Mutex` + `Condvar` + `mpsc`): the
//! repo's `parking_lot` shim has no condition variables, and none of this
//! is on a per-row hot path.

use crate::cache::{CacheOutcome, CacheStats};
use crate::snapshot::StoreSnapshot;
use crate::store::ProvenanceDatabase;
use provql::{ExecError, ParseError, QueryOutput};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Instant;

/// Server sizing knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Worker threads executing queries.
    pub workers: usize,
    /// Maximum queued (accepted, not yet executing) queries before
    /// submissions are rejected.
    pub queue_depth: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(2)
            .clamp(2, 8);
        Self {
            workers,
            queue_depth: 4 * workers,
        }
    }
}

/// Why a submission was not accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The admission queue is at capacity — shed load or retry.
    QueueFull,
    /// The server is shutting down.
    ShuttingDown,
}

/// Why an accepted query produced no output.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The query text did not parse.
    Parse(ParseError),
    /// The query executed and raised (identical to what the oracle path
    /// raises for the same query).
    Exec(ExecError),
}

/// One answered query.
#[derive(Debug, Clone)]
pub struct QueryResponse {
    /// The output (shared — cache hits hand out the cached allocation).
    pub result: Result<Arc<QueryOutput>, ServeError>,
    /// How the plan cache was involved.
    pub cache: CacheOutcome,
    /// The store generation the answer is exact as of.
    pub generation: u64,
    /// Wall-clock service time (queue wait excluded), in microseconds.
    pub micros: u64,
}

/// Point-in-time server counters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeStats {
    /// Accepted submissions.
    pub submitted: u64,
    /// Completed queries.
    pub completed: u64,
    /// Submissions rejected by admission control.
    pub rejected: u64,
    /// Median service latency, microseconds (0 before any completion).
    pub p50_micros: u64,
    /// 99th-percentile service latency, microseconds.
    pub p99_micros: u64,
    /// Plan-cache counters (shared with every other caller of the
    /// database's cache).
    pub cache: CacheStats,
    /// Chunk-pager counters (all zero unless the database was opened
    /// lazily over sealed segments).
    pub pager: crate::PagerStats,
}

struct Job {
    text: String,
    reply: mpsc::Sender<QueryResponse>,
}

struct Shared {
    db: Arc<ProvenanceDatabase>,
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    shutdown: AtomicBool,
    queue_depth: usize,
    submitted: AtomicU64,
    completed: AtomicU64,
    rejected: AtomicU64,
    latencies_micros: Mutex<Vec<u64>>,
}

/// A fixed worker pool serving provql query text over snapshots of one
/// database, with bounded admission. Dropping the server drains nothing:
/// shutdown is signalled, workers finish their in-flight query and exit,
/// and queued-but-unstarted jobs see their reply channel disconnect.
pub struct QueryServer {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl QueryServer {
    /// Start a server over `db` with the given sizing.
    pub fn start(db: Arc<ProvenanceDatabase>, config: ServeConfig) -> Self {
        let shared = Arc::new(Shared {
            db,
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            queue_depth: config.queue_depth.max(1),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            latencies_micros: Mutex::new(Vec::new()),
        });
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("prov-serve-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn serve worker")
            })
            .collect();
        Self { shared, workers }
    }

    /// Submit query text; returns a receiver for the response, or fails
    /// fast when the admission queue is full.
    pub fn submit(
        &self,
        text: impl Into<String>,
    ) -> Result<mpsc::Receiver<QueryResponse>, SubmitError> {
        if self.shared.shutdown.load(Ordering::Acquire) {
            return Err(SubmitError::ShuttingDown);
        }
        let (tx, rx) = mpsc::channel();
        {
            let mut queue = self.shared.queue.lock().expect("serve queue poisoned");
            if queue.len() >= self.shared.queue_depth {
                drop(queue);
                self.shared.rejected.fetch_add(1, Ordering::Relaxed);
                return Err(SubmitError::QueueFull);
            }
            queue.push_back(Job {
                text: text.into(),
                reply: tx,
            });
        }
        self.shared.submitted.fetch_add(1, Ordering::Relaxed);
        self.shared.available.notify_one();
        Ok(rx)
    }

    /// Submit and block for the answer (test/bench convenience).
    pub fn query(&self, text: impl Into<String>) -> Result<QueryResponse, SubmitError> {
        let rx = self.submit(text)?;
        rx.recv().map_err(|_| SubmitError::ShuttingDown)
    }

    /// Current counters and latency percentiles.
    pub fn stats(&self) -> ServeStats {
        let (p50, p99) = {
            let lat = self
                .shared
                .latencies_micros
                .lock()
                .expect("latency log poisoned");
            percentiles(&lat)
        };
        ServeStats {
            submitted: self.shared.submitted.load(Ordering::Relaxed),
            completed: self.shared.completed.load(Ordering::Relaxed),
            rejected: self.shared.rejected.load(Ordering::Relaxed),
            p50_micros: p50,
            p99_micros: p99,
            cache: self.shared.db.plan_cache().stats(),
            pager: self.shared.db.pager_stats(),
        }
    }

    /// The served database.
    pub fn database(&self) -> &Arc<ProvenanceDatabase> {
        &self.shared.db
    }
}

impl Drop for QueryServer {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.available.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    // Per-worker pinned snapshot, refreshed only when the generation
    // moves: between ingest bursts, a storm of queries re-uses one
    // snapshot and pays zero flushes.
    let mut snap: Option<Arc<StoreSnapshot>> = None;
    loop {
        let job = {
            let mut queue = shared.queue.lock().expect("serve queue poisoned");
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                queue = shared.available.wait(queue).expect("serve queue poisoned");
            }
        };
        let start = Instant::now();
        let current = shared.db.generation();
        let snap = match &mut snap {
            Some(s) if s.generation() == current => s,
            slot => slot.insert(shared.db.snapshot()),
        };
        let (result, cache) = match provql::parse(&job.text) {
            Ok(query) => {
                let (res, outcome) = snap.query(&query);
                (res.map_err(ServeError::Exec), outcome)
            }
            Err(e) => (Err(ServeError::Parse(e)), CacheOutcome::Bypass),
        };
        let micros = start.elapsed().as_micros() as u64;
        shared
            .latencies_micros
            .lock()
            .expect("latency log poisoned")
            .push(micros);
        shared.completed.fetch_add(1, Ordering::Relaxed);
        // The client may have gone away (timeout, shed load) — fine.
        let _ = job.reply.send(QueryResponse {
            result,
            cache,
            generation: snap.generation(),
            micros,
        });
    }
}

/// `(p50, p99)` of a latency log (nearest-rank on a sorted copy).
fn percentiles(lat: &[u64]) -> (u64, u64) {
    if lat.is_empty() {
        return (0, 0);
    }
    let mut sorted = lat.to_vec();
    sorted.sort_unstable();
    let rank = |p: f64| {
        let idx = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
        sorted[idx]
    };
    (rank(0.50), rank(0.99))
}

#[cfg(test)]
mod tests {
    use super::*;
    use prov_model::TaskMessageBuilder;

    fn seeded() -> Arc<ProvenanceDatabase> {
        let db = ProvenanceDatabase::shared();
        let msgs: Vec<_> = (0..32)
            .map(|i| {
                TaskMessageBuilder::new(format!("t{i}"), format!("wf-{}", i % 4), "simulate")
                    .span(i as f64, i as f64 + 1.0)
                    .build()
            })
            .collect();
        db.insert_batch(&msgs);
        db
    }

    #[test]
    fn serves_queries_and_reports_stats() {
        let server = QueryServer::start(
            seeded(),
            ServeConfig {
                workers: 2,
                queue_depth: 16,
            },
        );
        let r = server.query("len(df)").unwrap();
        assert_eq!(
            *r.result.unwrap(),
            QueryOutput::Scalar(prov_model::Value::Int(32))
        );
        // The identical query again — same generation — hits the cache.
        let r2 = server.query("len(df)").unwrap();
        assert_eq!(r2.cache, CacheOutcome::Hit);
        let stats = server.stats();
        assert_eq!(stats.completed, 2);
        assert!(stats.cache.hits >= 1);
    }

    #[test]
    fn parse_errors_come_back_as_responses() {
        let server = QueryServer::start(seeded(), ServeConfig::default());
        let r = server.query("df[[[").unwrap();
        assert!(matches!(r.result, Err(ServeError::Parse(_))));
    }

    #[test]
    fn full_queue_rejects_instead_of_buffering() {
        // No workers draining... we can't start zero workers (max(1)), so
        // saturate a depth-1 queue from the submitting thread while the
        // single worker is blocked on an earlier long queue. Simplest
        // deterministic variant: fill the queue beyond depth before the
        // worker can drain it and accept that rejection is *possible* —
        // assert the accounting instead on a server whose worker is busy.
        let server = QueryServer::start(
            seeded(),
            ServeConfig {
                workers: 1,
                queue_depth: 1,
            },
        );
        let mut rejected = 0;
        let mut receivers = Vec::new();
        for _ in 0..64 {
            match server.submit("df[df[\"started_at\"] > 3.0][[\"task_id\"]].head(5)") {
                Ok(rx) => receivers.push(rx),
                Err(SubmitError::QueueFull) => rejected += 1,
                Err(e) => panic!("unexpected {e:?}"),
            }
        }
        for rx in receivers {
            assert!(rx.recv().unwrap().result.is_ok());
        }
        assert_eq!(server.stats().rejected, rejected);
    }
}
