//! Crash-recovery differential suite: a durable store that crashed and
//! was reopened must answer every golden pipeline **byte-identically**
//! (same `Debug` rendering, NaN cells included) to a never-crashed
//! in-memory oracle holding the same accepted prefix.
//!
//! Crashes are simulated at the storage layer: the WAL — one file per
//! seal unit — is truncated at (and inside) every record boundary, and
//! cut at every file boundary with the next file absent, holding only
//! its header, or torn inside it, which is exactly the on-disk state an
//! abort at `crashpoint::Point::WalRecord` leaves behind — the bench
//! crate's `crash_harness` binary drives the real-abort version of the same
//! contract. Sealed segments and compaction are exercised end-to-end:
//! seal, merge, reopen, and the answers must not move; segments written
//! by the background sealer are byte-identical to `seal_now`'s. A WAL
//! that refuses an append (a full disk) leaves a store that answers
//! what was logged, and so does its reopen.
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
use std::path::{Path, PathBuf};
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

/// Walk one WAL file's record framing: byte offsets of every record
/// boundary (including offset-of-header = boundary 0). Framing only —
/// checksums are the store's job.
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

/// The WAL files of `dir`, `(name, bytes)`, oldest first.
fn wal_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("list dir")
        .map(|e| e.expect("dir entry").path())
        .filter_map(|path| {
            let name = path.file_name()?.to_str()?.to_string();
            let wal = name.starts_with("wal-") && name.ends_with(".log");
            wal.then(|| (name, std::fs::read(&path).expect("read wal file")))
        })
        .collect();
    files.sort();
    files
}

/// The WAL a crash right behind the `k`-th record leaves, plus `extra`
/// bytes of the next record (a tear): every earlier file whole, the file
/// holding the cut truncated there, and no later file. At a file boundary
/// without a tear the next file is absent; with one, the next file holds
/// the torn start of its first record.
fn cut_at(files: &[(String, Vec<u8>)], k: usize, extra: usize) -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::new();
    let mut left = k;
    for (name, bytes) in files {
        let bounds = wal_boundaries(bytes);
        let records = bounds.len() - 1;
        if left < records {
            let end = (bounds[left] + extra).min(bytes.len());
            out.push((name.clone(), bytes[..end].to_vec()));
            return out;
        }
        out.push((name.clone(), bytes.clone()));
        left -= records;
        if left == 0 && extra == 0 {
            return out;
        }
    }
    out
}

/// Replace `dir`'s contents with `files`.
fn lay_out(dir: &Path, files: &[(String, Vec<u8>)]) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("recreate dir");
    for (name, bytes) in files {
        std::fs::write(dir.join(name), bytes).expect("write wal file");
    }
}

/// Ingest `msgs` durably in `batch`-sized streaming batches, flushing
/// each one (handing it to the WAL), then drop the store.
fn ingest_durably(dir: &PathBuf, msgs: &[TaskMessage], batch: usize, sync: SyncPolicy) {
    let db = ProvenanceDatabase::open_with(dir, opts(sync)).expect("open durable");
    for chunk in msgs.chunks(batch.max(1)) {
        db.insert_batch_shared(chunk.iter().cloned().map(Arc::new));
        db.flush_views().expect("flush");
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
            db.flush_views().expect("flush");
            db.insert_batch(&msgs[20..40]);
            db.insert_batch_shared(msgs[40..].iter().cloned().map(Arc::new));
            db.flush_views().expect("flush");
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
            db.flush_views().expect("flush");
            i = end;
            let _ = b;
        }
    }
    let files = wal_files(&src);
    let records: usize = files.iter().map(|(_, b)| wal_boundaries(b).len() - 1).sum();
    assert_eq!(records, msgs.len(), "one record per message");

    let crash = fresh_dir("crash-replay");
    for k in 0..=msgs.len() {
        // Crash exactly at the boundary: k records replay...
        lay_out(&crash, &cut_at(&files, k, 0));
        let back = ProvenanceDatabase::open(&crash).expect("recover");
        assert_eq!(back.insert_count(), k as u64, "boundary {k}");
        let want = fingerprint(&oracle(&msgs[..k]).snapshot(), GOLDEN);
        assert_eq!(fingerprint(&back.snapshot(), GOLDEN), want, "boundary {k}");
        drop(back);
        // ...and a torn record after boundary k still replays k.
        if k < msgs.len() {
            lay_out(&crash, &cut_at(&files, k, 9));
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
    db.flush_views().expect("flush");
    assert_eq!(db.seal_now().expect("seal run 1"), chunk as u64);
    db.insert_batch_shared(msgs[per_run..].iter().cloned().map(Arc::new));
    db.flush_views().expect("flush");
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

/// A small geometry whose WAL spans several files: 16-row chunks over
/// two shards make a 32-arrival seal unit, and nothing seals.
fn many_files(wal_sync: SyncPolicy) -> Config {
    Config {
        shards: 2,
        chunk_rows: 16,
        seal_rows: u64::MAX,
        wal_sync,
        ..Config::from_env()
    }
}

/// Crash inside the last WAL file and at every file boundary — the next
/// file absent, holding only its header (the switch happened, no record
/// yet), or with a torn header — under both sync policies: the recovered
/// store holds exactly the replayable prefix, answers like the oracle
/// over it, and takes the rest of the corpus behind it as if it had
/// never crashed.
#[test]
fn crash_inside_and_between_wal_files_replays_the_prefix() {
    let msgs = corpus(80);
    for sync in [SyncPolicy::Always, SyncPolicy::Batch] {
        let config = many_files(sync);
        let src = fresh_dir("files-src");
        {
            let db = ProvenanceDatabase::open_with(&src, config).expect("open");
            let mut i = 0;
            for size in [5usize, 13, 1, 30, 9, 22].iter().cycle() {
                if i >= msgs.len() {
                    break;
                }
                let end = (i + size).min(msgs.len());
                db.insert_batch_shared(msgs[i..end].iter().cloned().map(Arc::new));
                db.flush_views().expect("flush");
                i = end;
            }
        }
        let files = wal_files(&src);
        let names: Vec<&str> = files.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            [
                "wal-00000000000000000000.log",
                "wal-00000000000000000032.log",
                "wal-00000000000000000064.log"
            ],
            "one file per 32-arrival unit, named by its first arrival"
        );
        let crash = fresh_dir("files-replay");
        let recover = |layout: Vec<(String, Vec<u8>)>, k: usize, what: &str| {
            lay_out(&crash, &layout);
            let back = ProvenanceDatabase::open_with(&crash, config).expect("recover");
            assert_eq!(back.insert_count(), k as u64, "{what} {k} sync={sync:?}");
            let want = fingerprint(&oracle(&msgs[..k]).snapshot(), GOLDEN_FAST);
            let got = fingerprint(&back.snapshot(), GOLDEN_FAST);
            assert_eq!(got, want, "{what} {k} sync={sync:?}");
            // Appends land behind the recovered prefix.
            back.insert_batch_shared(msgs[k..].iter().cloned().map(Arc::new));
            back.flush_views().expect("flush the rest");
            drop(back);
            let again = ProvenanceDatabase::open_with(&crash, config).expect("reopen");
            assert_eq!(again.insert_count(), msgs.len() as u64, "{what} {k}");
            let want = fingerprint(&oracle(&msgs).snapshot(), GOLDEN_FAST);
            let got = fingerprint(&again.snapshot(), GOLDEN_FAST);
            assert_eq!(got, want, "{what} {k} sync={sync:?}, then the rest");
        };
        // Inside the last file, at and between its records.
        for k in [64, 65, 71, 79, 80] {
            recover(cut_at(&files, k, 0), k, "boundary");
            if k < msgs.len() {
                recover(cut_at(&files, k, 9), k, "torn after boundary");
            }
        }
        // At each file boundary.
        for (j, k) in [(1, 32), (2, 64)] {
            let before = cut_at(&files, k, 0);
            assert_eq!(before.len(), j, "file {j} is absent");
            recover(before.clone(), k, "file boundary");
            for header in [6, 3] {
                let mut switched = before.clone();
                switched.push((files[j].0.clone(), files[j].1[..header].to_vec()));
                recover(switched, k, "switched file boundary");
            }
            let torn = cut_at(&files, k, 9);
            assert_eq!(torn.len(), j + 1, "file {j} holds a torn record");
            recover(torn, k, "torn first record of the next file");
        }
        let _ = std::fs::remove_dir_all(&src);
        let _ = std::fs::remove_dir_all(&crash);
    }
}

/// The segment files a durable store leaves, `(name, bytes)`, by name.
fn segment_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("list dir")
        .map(|e| e.expect("dir entry").path())
        .filter_map(|path| {
            let name = path.file_name()?.to_str()?.to_string();
            let seg = name.ends_with(".seg");
            seg.then(|| (name, std::fs::read(&path).expect("read segment")))
        })
        .collect();
    files.sort();
    files
}

/// Segments the background sealer writes (a seal due after every batch
/// that completes a chunk per shard) are byte-identical to those
/// `seal_now` writes on the calling thread after the same batches —
/// compactions included — and the WAL holds the same records.
#[test]
fn background_seals_write_the_segments_seal_now_writes() {
    let msgs = corpus(300);
    let batches = [7usize, 40, 3, 64, 19, 90, 1, 76];
    let run = |seal_rows: u64, seal_now: bool| {
        let dir = fresh_dir("sealer");
        let config = Config {
            shards: 2,
            chunk_rows: 16,
            seal_rows,
            ..Config::from_env()
        };
        let db = ProvenanceDatabase::open_with(&dir, config).expect("open");
        let mut i = 0;
        for size in batches {
            let end = (i + size).min(msgs.len());
            db.insert_batch_shared(msgs[i..end].iter().cloned().map(Arc::new));
            db.flush_views().expect("flush");
            if seal_now {
                db.seal_now().expect("seal now");
            }
            i = end;
        }
        db.wait_for_seal().expect("the background seals succeed");
        let stats = db.durable_stats().expect("durable");
        drop(db);
        let files = (segment_files(&dir), wal_files(&dir));
        let _ = std::fs::remove_dir_all(&dir);
        (files, stats)
    };
    let (background, bg_stats) = run(1, false);
    let (inline, inline_stats) = run(u64::MAX, true);
    assert!(bg_stats.compactions > 0, "the schedule compacts");
    assert_eq!(bg_stats, inline_stats);
    let names = |files: &[(String, Vec<u8>)]| -> Vec<String> {
        files.iter().map(|(n, _)| n.clone()).collect()
    };
    assert_eq!(names(&background.0), names(&inline.0));
    assert!(background.0 == inline.0, "segment bytes differ");
    assert!(background.1 == inline.1, "WAL bytes differ");
}

/// A WAL that cannot start its next file (here a link to `/dev/full`, so
/// the header write fails with ENOSPC) refuses the arrivals that belong
/// in it: the flush reports the error, the store answers exactly what
/// was logged, a later flush logs again once the file can be made, and a
/// reopen answers the same as the store did.
#[cfg(unix)]
#[test]
fn a_refused_wal_append_keeps_only_what_was_logged() {
    let msgs = corpus(60);
    let dir = fresh_dir("refused");
    let config = many_files(SyncPolicy::Batch);
    let db = ProvenanceDatabase::open_with(&dir, config).expect("open");
    db.insert_batch_shared(msgs[..20].iter().cloned().map(Arc::new));
    db.flush_views().expect("the first file takes 20");
    std::os::unix::fs::symlink("/dev/full", dir.join("wal-00000000000000000032.log"))
        .expect("link the next WAL file to /dev/full");
    db.insert_batch_shared(msgs[20..40].iter().cloned().map(Arc::new));
    let err = db.flush_views().expect_err("the switch to /dev/full fails");
    assert_eq!(err.kind(), std::io::ErrorKind::StorageFull, "{err}");
    // Arrivals 20..32 belong in the first file and were logged.
    let logged: Vec<TaskMessage> = msgs[..32].to_vec();
    let want = fingerprint(&oracle(&logged).snapshot(), GOLDEN);
    assert_eq!(fingerprint(&db.snapshot(), GOLDEN), want);
    // The failed file was removed, so the next flush logs again.
    db.insert_batch_shared(msgs[40..].iter().cloned().map(Arc::new));
    db.flush_views().expect("the next file can be made");
    let logged: Vec<TaskMessage> = msgs[..32].iter().chain(&msgs[40..]).cloned().collect();
    let want = fingerprint(&oracle(&logged).snapshot(), GOLDEN);
    assert_eq!(fingerprint(&db.snapshot(), GOLDEN), want);
    drop(db);
    let back = ProvenanceDatabase::open_with(&dir, config).expect("reopen");
    assert_eq!(back.insert_count(), logged.len() as u64);
    assert_eq!(fingerprint(&back.snapshot(), GOLDEN), want);
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
        let files = wal_files(&src);
        let records: usize = files.iter().map(|(_, b)| wal_boundaries(b).len() - 1).sum();
        prop_assert_eq!(records, n);
        let crash = fresh_dir("prop-replay");
        for k in 0..=n {
            lay_out(&crash, &cut_at(&files, k, 0));
            let back = ProvenanceDatabase::open(&crash).expect("recover");
            prop_assert_eq!(back.insert_count(), k as u64);
            let want = fingerprint(&oracle(&msgs[..k]).snapshot(), GOLDEN);
            prop_assert_eq!(fingerprint(&back.snapshot(), GOLDEN), want);
        }
        let _ = std::fs::remove_dir_all(&src);
        let _ = std::fs::remove_dir_all(&crash);
    }
}
