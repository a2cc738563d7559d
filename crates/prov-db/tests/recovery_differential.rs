//! Crash-recovery differential suite: a durable store that crashed and
//! was reopened must answer every golden pipeline **byte-identically**
//! (same `Debug` rendering, NaN cells included) to a never-crashed
//! in-memory oracle holding the same accepted prefix.
//!
//! Crashes are simulated at the storage layer: the WAL is truncated at
//! (and inside) every record boundary, which is exactly the on-disk
//! state a `PROVDB_CRASH_AFTER` abort leaves behind — the bench crate's
//! `crash_harness` binary drives the real-abort version of the same
//! contract. Sealed segments and compaction are exercised end-to-end:
//! seal, merge, reopen, and the answers must not move.
//!
//! On failure the durable directories survive under the artifact root
//! (`PROVDB_TEST_ARTIFACT_DIR`, default the system temp dir); CI uploads
//! that root from failed runs so the WAL/segment bytes that broke replay
//! can be inspected.

mod common;

use common::{corpus, fingerprint, fresh_dir, oracle, GOLDEN};
use proptest::prelude::*;
use prov_db::{Config, ProvenanceDatabase, SyncPolicy};
use prov_model::TaskMessage;
use std::path::PathBuf;
use std::sync::Arc;

/// Cheap subset for the large sealed-corpus test.
const GOLDEN_FAST: &[&str] = &[
    r#"len(df)"#,
    r#"len(df[df["status"] == "ERROR"])"#,
    r#"df[df["status"] != "ERROR"]["duration"].sum()"#,
    r#"df.groupby("activity_id")["duration"].count()"#,
    r#"df.sort_values("started_at", ascending=False)[["task_id"]].head(5)"#,
    r#"df["y"].sum()"#,
];

fn opts(wal_sync: SyncPolicy) -> Config {
    Config {
        wal_sync,
        ..Config::from_env()
    }
}

/// Walk the WAL's record framing: byte offsets of every record boundary
/// (including offset-of-header = boundary 0). Framing only — checksums
/// are the store's job.
fn wal_boundaries(wal: &[u8]) -> Vec<usize> {
    let mut offsets = vec![6]; // past "PWAL1\n"
    let mut pos = 6usize;
    while pos + 16 <= wal.len() {
        let len = u32::from_le_bytes(wal[pos + 8..pos + 12].try_into().unwrap()) as usize;
        if pos + 16 + len > wal.len() {
            break;
        }
        pos += 16 + len;
        offsets.push(pos);
    }
    offsets
}

/// Ingest `msgs` durably in `batch`-sized streaming batches, flushing
/// each one (handing it to the WAL), then drop the store.
fn ingest_durably(dir: &PathBuf, msgs: &[TaskMessage], batch: usize, sync: SyncPolicy) {
    let db = ProvenanceDatabase::open_with(dir, opts(sync)).expect("open durable");
    for chunk in msgs.chunks(batch.max(1)) {
        db.insert_batch_shared(chunk.iter().cloned().map(Arc::new));
        db.flush_views();
    }
    drop(db);
}

/// A durable store reopened after a clean shutdown answers every golden
/// pipeline byte-identically to the never-crashed oracle — under both
/// sync policies, mixing the streaming and eager ingest paths.
#[test]
fn reopened_store_matches_oracle_under_both_sync_policies() {
    let msgs = corpus(57);
    let want = fingerprint(&oracle(&msgs).snapshot(), GOLDEN);
    for sync in [SyncPolicy::Always, SyncPolicy::Batch] {
        let dir = fresh_dir("reopen");
        {
            let db = ProvenanceDatabase::open_with(&dir, opts(sync)).expect("open durable");
            db.insert_batch_shared(msgs[..20].iter().cloned().map(Arc::new));
            db.flush_views();
            db.insert_batch(&msgs[20..40]);
            db.insert_batch_shared(msgs[40..].iter().cloned().map(Arc::new));
            db.flush_views();
        }
        let back = ProvenanceDatabase::open(&dir).expect("reopen");
        assert_eq!(back.insert_count(), msgs.len() as u64, "sync={sync:?}");
        assert_eq!(fingerprint(&back.snapshot(), GOLDEN), want, "sync={sync:?}");
        drop(back);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Crash at **every** WAL record boundary — and torn mid-record — of a
/// deterministic ingest schedule: the recovered store must hold exactly
/// the replayable prefix and answer the golden set byte-identically to
/// an oracle over that prefix.
#[test]
fn crash_at_every_wal_record_boundary_replays_the_prefix() {
    let msgs = corpus(36);
    let src = fresh_dir("crash-src");
    // Varied batch sizes so records land mid-batch and at batch edges.
    {
        let db = ProvenanceDatabase::open_with(&src, opts(SyncPolicy::Batch)).expect("open");
        let mut i = 0usize;
        for (b, size) in [3usize, 1, 7, 2, 5, 4, 6, 8].iter().enumerate().cycle() {
            if i >= msgs.len() {
                break;
            }
            let end = (i + size).min(msgs.len());
            db.insert_batch_shared(msgs[i..end].iter().cloned().map(Arc::new));
            db.flush_views();
            i = end;
            let _ = b;
        }
    }
    let wal = std::fs::read(src.join("wal.log")).expect("read wal");
    let boundaries = wal_boundaries(&wal);
    assert_eq!(boundaries.len(), msgs.len() + 1, "one boundary per record");

    let crash = fresh_dir("crash-replay");
    for (k, &cut) in boundaries.iter().enumerate() {
        // Crash exactly at the boundary: k records replay...
        std::fs::write(crash.join("wal.log"), &wal[..cut]).expect("truncate");
        let back = ProvenanceDatabase::open(&crash).expect("recover");
        assert_eq!(back.insert_count(), k as u64, "boundary {k}");
        let want = fingerprint(&oracle(&msgs[..k]).snapshot(), GOLDEN);
        assert_eq!(fingerprint(&back.snapshot(), GOLDEN), want, "boundary {k}");
        drop(back);
        // ...and a torn record after boundary k still replays k.
        if cut + 9 <= wal.len() {
            std::fs::write(crash.join("wal.log"), &wal[..cut + 9]).expect("tear");
            let torn = ProvenanceDatabase::open(&crash).expect("recover torn");
            assert_eq!(torn.insert_count(), k as u64, "torn after boundary {k}");
        }
    }
    let _ = std::fs::remove_dir_all(&src);
    let _ = std::fs::remove_dir_all(&crash);
}

/// Sealing, compaction, and reopen: segments cover the chunk-aligned
/// prefix, footers prune impossible predicates without reading a
/// document, merged runs replace their inputs, and none of it moves a
/// single query answer.
#[test]
fn sealing_and_compaction_preserve_answers() {
    let Config {
        chunk_rows: chunk,
        shards: nshards,
        ..
    } = Config::from_env();
    // Two full chunks per shard, plus a WAL tail that stays unsealed.
    let per_run = chunk * nshards;
    let msgs = corpus(2 * per_run + 7);
    let dir = fresh_dir("seal");

    let db = ProvenanceDatabase::open_with(&dir, opts(SyncPolicy::Batch)).expect("open");
    db.insert_batch_shared(msgs[..per_run].iter().cloned().map(Arc::new));
    db.flush_views();
    assert_eq!(db.seal_now().expect("seal run 1"), chunk as u64);
    db.insert_batch_shared(msgs[per_run..].iter().cloned().map(Arc::new));
    db.flush_views();
    assert_eq!(db.seal_now().expect("seal run 2"), 2 * chunk as u64);

    let stats = db.durable_stats().expect("durable");
    assert_eq!(stats.logged, msgs.len() as u64);
    assert_eq!(stats.sealed_slots, 2 * chunk as u64);
    assert_eq!(stats.wal_tail, 7);
    // Footer-only pruning: a predicate nothing satisfies prunes every
    // segment; one everything satisfies prunes none.
    let (pruned, total) = db
        .sealed_prune_report(
            "started_at",
            dataframe::CmpOp::Gt,
            &prov_model::Value::Float(1e12),
        )
        .expect("durable");
    assert!(total >= nshards, "at least one segment per shard");
    assert_eq!(pruned, total, "impossible predicate prunes everything");
    let (pruned, total) = db
        .sealed_prune_report(
            "workflow_id",
            dataframe::CmpOp::Eq,
            &prov_model::Value::from("wf-0"),
        )
        .expect("durable");
    assert_eq!(pruned, 0, "ubiquitous predicate prunes nothing ({total})");

    let files = db.compact_segments().expect("compact");
    assert_eq!(files, nshards, "contiguous runs merged to one per shard");
    drop(db);

    let back = ProvenanceDatabase::open(&dir).expect("reopen sealed");
    assert_eq!(back.insert_count(), msgs.len() as u64);
    let stats = back.durable_stats().expect("durable");
    assert_eq!(stats.sealed_slots, 2 * chunk as u64);
    assert_eq!(stats.segments, nshards);
    assert_eq!(
        fingerprint(&back.snapshot(), GOLDEN_FAST),
        fingerprint(&oracle(&msgs).snapshot(), GOLDEN_FAST)
    );
    drop(back);
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random ingest schedules (corpus size, batch split, sync policy):
    /// recovery at **every** WAL record boundary equals the
    /// never-crashed oracle on the golden pipeline set.
    #[test]
    fn random_schedules_recover_at_every_boundary(
        n in 4usize..22,
        batch in 1usize..9,
        always in any::<bool>(),
    ) {
        let msgs = corpus(n);
        let sync = if always { SyncPolicy::Always } else { SyncPolicy::Batch };
        let src = fresh_dir("prop-src");
        ingest_durably(&src, &msgs, batch, sync);
        let wal = std::fs::read(src.join("wal.log")).expect("read wal");
        let boundaries = wal_boundaries(&wal);
        prop_assert_eq!(boundaries.len(), n + 1);
        let crash = fresh_dir("prop-replay");
        for (k, &cut) in boundaries.iter().enumerate() {
            std::fs::write(crash.join("wal.log"), &wal[..cut]).expect("truncate");
            let back = ProvenanceDatabase::open(&crash).expect("recover");
            prop_assert_eq!(back.insert_count(), k as u64);
            let want = fingerprint(&oracle(&msgs[..k]).snapshot(), GOLDEN);
            prop_assert_eq!(fingerprint(&back.snapshot(), GOLDEN), want);
        }
        let _ = std::fs::remove_dir_all(&src);
        let _ = std::fs::remove_dir_all(&crash);
    }
}
