//! Snapshot isolation and serve-layer stress tests: N writer threads
//! streaming batches race M reader threads taking snapshots, and every
//! snapshot answer must equal the full-materialize oracle *on that
//! snapshot's generation* — no torn reads, no rows from the future, no
//! stale cache entries leaking across generations.
//!
//! Reader parallelism follows the `SERVE_READERS` env var (default 3) so
//! CI's serve-matrix leg can sweep it alongside `PROVDB_SHARDS`.

use dataframe::DataFrame;
use prov_db::{
    CacheOutcome, DocQuery, ProvenanceDatabase, QueryServer, ServeConfig, StoreSnapshot,
};
use prov_model::{TaskMessage, TaskMessageBuilder};
use provql::parse;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

#[allow(clippy::disallowed_methods)]
fn readers() -> usize {
    std::env::var("SERVE_READERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(3)
}

/// The golden query mix a dashboard-style reader cycles through: pushed
/// equality, pushed range + projection, top-k, columnar aggregate, and a
/// corpus-wide stage-machine query (oracle fallback path).
const GOLDEN: &[&str] = &[
    r#"len(df[df["activity_id"] == "act1"])"#,
    r#"df[df["started_at"] >= 50.0][["task_id", "started_at"]].head(5)"#,
    r#"df.sort_values("started_at", ascending=False)[["task_id"]].head(3)"#,
    r#"df.groupby("activity_id")["duration"].mean()"#,
    r#"df["duration"].sum()"#,
];

/// Reader rounds between two checks of the oracle frame against a
/// fresh build.
const FRAME_CHECK_EVERY: usize = 3;

/// `DataFrame::from_messages` over the snapshot's visible documents in id
/// order: what its oracle frame must be, however it was built.
fn fresh_frame(snap: &StoreSnapshot) -> DataFrame {
    let msgs: Vec<TaskMessage> = snap
        .find(&DocQuery::new())
        .iter()
        .filter_map(|d| TaskMessage::from_value(d))
        .collect();
    DataFrame::from_messages(&msgs)
}

fn msg(writer: usize, i: usize) -> Arc<prov_model::TaskMessage> {
    Arc::new(
        TaskMessageBuilder::new(
            format!("w{writer}-t{i}"),
            "wf-stress",
            format!("act{}", i % 4),
        )
        .span(i as f64, i as f64 + 1.5)
        .build(),
    )
}

/// Writers stream batches while readers repeatedly snapshot and verify
/// every golden query against the oracle frame of the *same* snapshot.
/// Differential identity on a moving store is the whole point: if a
/// bounded kernel ever saw a row above the high-water mark (or missed one
/// below it), some answer would disagree with its own oracle.
#[test]
fn snapshot_answers_match_oracle_under_concurrent_ingest() {
    const WRITERS: usize = 3;
    const PER_WRITER: usize = 400;
    const BATCH: usize = 16;

    let db = ProvenanceDatabase::shared();
    // Seed enough rows that the first snapshots are non-trivial.
    db.insert_batch_shared((0..64).map(|i| msg(9, i)));
    let done = Arc::new(AtomicBool::new(false));
    let verified = Arc::new(AtomicUsize::new(0));

    std::thread::scope(|s| {
        for w in 0..WRITERS {
            let db = db.clone();
            s.spawn(move || {
                let mut batch = Vec::with_capacity(BATCH);
                for i in 0..PER_WRITER {
                    batch.push(msg(w, i));
                    if batch.len() == BATCH {
                        db.insert_batch_shared(batch.drain(..));
                    }
                }
                db.insert_batch_shared(batch.drain(..));
            });
        }
        for r in 0..readers() {
            let db = db.clone();
            let done = done.clone();
            let verified = verified.clone();
            s.spawn(move || {
                let queries: Vec<_> = GOLDEN.iter().map(|q| parse(q).unwrap()).collect();
                let mut rounds = 0usize;
                while !done.load(Ordering::Relaxed) || rounds < 2 {
                    let snap = db.snapshot();
                    let oracle = snap.oracle_frame();
                    assert_eq!(
                        oracle.len(),
                        snap.len(),
                        "oracle frame must cover exactly the visible rows"
                    );
                    // The frame is extended from the store's memo, which
                    // the other readers extend concurrently at their own
                    // generations: it must still be a fresh build's.
                    if rounds.is_multiple_of(FRAME_CHECK_EVERY) {
                        assert!(
                            *oracle == fresh_frame(&snap),
                            "oracle frame differs from a fresh build at generation {}",
                            snap.generation()
                        );
                    }
                    for (text, query) in GOLDEN.iter().zip(&queries) {
                        // Rotate cache on/off so both arms run under load.
                        let use_cache = (rounds + r).is_multiple_of(2);
                        let (got, _) = snap.query_with(query, use_cache);
                        let want = provql::execute(query, &oracle);
                        match (got, want) {
                            (Ok(got), Ok(want)) => assert_eq!(
                                *got,
                                want,
                                "{text} diverged from oracle at generation {}",
                                snap.generation()
                            ),
                            (got, want) => {
                                panic!("{text}: got {got:?}, oracle said {want:?}")
                            }
                        }
                        verified.fetch_add(1, Ordering::Relaxed);
                    }
                    rounds += 1;
                }
            });
        }
        let total = 64 + WRITERS * PER_WRITER;
        while (db.generation() as usize) < total {
            std::thread::yield_now();
        }
        done.store(true, Ordering::Relaxed);
    });

    assert_eq!(db.generation() as usize, 64 + WRITERS * PER_WRITER);
    assert!(verified.load(Ordering::Relaxed) >= readers() * 2 * GOLDEN.len());
    // The final snapshot sees the whole corpus.
    let snap = db.snapshot();
    assert_eq!(snap.len(), 64 + WRITERS * PER_WRITER);
}

/// A snapshot taken mid-ingest keeps answering *as of its generation*
/// even after the store races far past it, and its plan-cache entries do
/// not leak into newer generations.
#[test]
fn pinned_snapshot_is_immune_to_later_ingest() {
    let db = ProvenanceDatabase::shared();
    db.insert_batch_shared((0..100).map(|i| msg(0, i)));
    let snap = db.snapshot();
    let gen0 = snap.generation();
    assert_eq!(snap.len(), 100);

    let query = parse(r#"len(df[df["activity_id"] == "act1"])"#).unwrap();
    let (before, outcome) = snap.query(&query);
    assert_eq!(outcome, CacheOutcome::Miss);
    let before = before.unwrap();

    // The store moves on; the pinned snapshot must not.
    db.insert_batch_shared((0..100).map(|i| msg(1, i)));
    db.flush_views();
    assert_eq!(db.generation(), gen0 + 100);
    let (after, outcome) = snap.query(&query);
    assert_eq!(outcome, CacheOutcome::Hit, "same plan, same generation");
    assert_eq!(*after.unwrap(), *before);
    assert_eq!(snap.len(), 100);

    // A fresh snapshot sees the new rows and misses the cache (the key is
    // generation-qualified).
    let fresh = db.snapshot();
    assert_eq!(fresh.len(), 200);
    let (fresh_out, outcome) = fresh.query(&query);
    assert_eq!(outcome, CacheOutcome::Miss);
    assert_ne!(*fresh_out.unwrap(), *before);
}

/// The serve front-end under a mixed load: writers stream while clients
/// submit query storms through the bounded pool. Every response must be
/// well-formed, repeated identical queries must start hitting the plan
/// cache, and the stats ledger must balance.
#[test]
fn query_server_serves_storms_during_ingest() {
    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 40;
    // The writer stops after this many 8-message bursts or when the storm
    // ends, whichever comes first, so the corpus (and with it the test's
    // time and memory) no longer grows with query latency.
    const MAX_BURSTS: usize = 500;

    let db = ProvenanceDatabase::shared();
    db.insert_batch_shared((0..128).map(|i| msg(0, i)));
    let server = Arc::new(QueryServer::start(
        db.clone(),
        ServeConfig {
            workers: 3,
            queue_depth: 256,
        },
    ));
    let done = Arc::new(AtomicBool::new(false));

    std::thread::scope(|s| {
        {
            let db = db.clone();
            let done = done.clone();
            s.spawn(move || {
                for i in 0..MAX_BURSTS {
                    if done.load(Ordering::Relaxed) {
                        break;
                    }
                    db.insert_batch_shared((0..8).map(|j| msg(7, i * 8 + j)));
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
            });
        }
        // Inner scope: the storm runs to completion while the writer keeps
        // ingesting (up to its burst bound), then the writer is released.
        std::thread::scope(|clients| {
            for c in 0..CLIENTS {
                let server = &server;
                clients.spawn(move || {
                    for i in 0..PER_CLIENT {
                        let text = GOLDEN[(c + i) % GOLDEN.len()];
                        // Blocking convenience path; the queue is deep
                        // enough that storms are admitted, not rejected.
                        let resp = server.query(text).expect("queue has room");
                        resp.result.expect("golden queries execute");
                        // Every response stamps the snapshot generation it
                        // was answered at — never older than the seed.
                        assert!(resp.generation >= 128);
                    }
                });
            }
        });
        done.store(true, Ordering::Relaxed);
    });

    let stats = server.stats();
    assert_eq!(stats.submitted, (CLIENTS * PER_CLIENT) as u64);
    assert_eq!(stats.completed, stats.submitted);
    assert_eq!(stats.rejected, 0);
    assert!(stats.p99_micros >= stats.p50_micros);

    // With ingest quiesced the generation is fixed: an identical repeat
    // must be answered from the plan cache, whichever worker picks it up.
    server.query(GOLDEN[0]).unwrap();
    let repeat = server.query(GOLDEN[0]).unwrap();
    assert_eq!(
        repeat.cache,
        CacheOutcome::Hit,
        "identical query at a fixed generation must hit the plan cache"
    );
}
