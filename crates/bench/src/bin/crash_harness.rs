//! Crash-point-injection harness for the durable provenance store.
//!
//! The recovery differential suite simulates crashes by truncating WAL
//! bytes; this binary injects the real thing. For each run it spawns
//! itself as a child (`--crash-child`) with `PROVDB_CRASH_AFTER=<n>`:
//! the child streams a deterministic corpus through a durable store and
//! the store's WAL writer syncs exactly `n` records and then
//! `abort()`s — mid-batch, views half-applied, by design at the worst
//! spot. The parent reopens the directory and holds recovery to the
//! contract:
//!
//! * the recovered insert count is exactly `min(n, total)` — nothing a
//!   sync covered is lost, nothing past the abort leaks in;
//! * every golden pipeline answers **byte-identically** to a
//!   never-crashed oracle over that prefix — through **both** open
//!   paths: the lazy `ProvenanceDatabase::open` (sealed rows attached
//!   cold and paged on demand, kv/graph hydrated on first access) and
//!   the replaying referee, `ProvenanceDatabase::open_replayed`, so
//!   crash recovery is held on the out-of-core path too.
//!
//! Crash points come from a seeded LCG so a CI leg loops a reproducible
//! schedule: `crash_harness --runs 12 --seed 7`. Any mismatch leaves the
//! durable directory in place (under `PROVDB_TEST_ARTIFACT_DIR` when
//! set) and exits non-zero so CI can upload the bytes.

use prov_db::ProvenanceDatabase;
use prov_model::{TaskMessage, TaskMessageBuilder, TaskStatus};
use provql::{execute, parse};
use std::path::PathBuf;
use std::sync::Arc;

const TOTAL: usize = 600;
const BATCH: usize = 7;

const GOLDEN: &[&str] = &[
    r#"len(df)"#,
    r#"len(df[df["status"] == "ERROR"])"#,
    r#"df[df["status"] != "ERROR"]["duration"].sum()"#,
    r#"df["y"].sum()"#,
    r#"df.groupby("activity_id")["duration"].mean()"#,
    r#"df.sort_values("started_at", ascending=False)[["task_id", "started_at"]].head(5)"#,
    r#"len(df[df["hostname"].isin(["n0", "n2"])])"#,
    r#"df["status"].value_counts()"#,
];

/// Same corpus family as `tests/recovery_differential.rs`: NaN payloads
/// in `y` (never a sort key), lineage and agents sprinkled in.
fn corpus(n: usize) -> Vec<TaskMessage> {
    (0..n)
        .map(|i| {
            let status = match i % 4 {
                0 => TaskStatus::Error,
                1 => TaskStatus::Running,
                _ => TaskStatus::Finished,
            };
            let y = if i % 11 == 3 {
                f64::NAN
            } else {
                i as f64 * 0.5
            };
            let mut b = TaskMessageBuilder::new(
                format!("t{i}"),
                format!("wf-{}", i % 3),
                format!("act{}", i % 2),
            )
            .host(format!("n{}", i % 4))
            .status(status)
            .span(i as f64, i as f64 + 1.5)
            .uses("y", y);
            if i % 7 == 2 && i > 0 {
                b = b.depends_on(format!("t{}", i - 1)).agent("agent-7");
            }
            b.build()
        })
        .collect()
}

/// Scrub the per-instance-random `HashMap` Debug order of DataFrame's
/// name→position index (derived from the compared column list).
fn scrub_index_maps(mut s: String) -> String {
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

/// Per golden pipeline: the oracle-frame answer plus the pushdown
/// outcome, both on one pinned snapshot of `db`.
fn fingerprint(db: &Arc<ProvenanceDatabase>) -> Vec<String> {
    let snap = db.snapshot();
    let frame = snap.oracle_frame();
    GOLDEN
        .iter()
        .map(|text| {
            let q = parse(text).expect("golden query parses");
            let full = execute(&q, &frame);
            let pushed = match prov_db::execute_plan(&snap, &provql::plan(&q, &*snap)) {
                prov_db::Pushdown::Executed(r) => format!("pushed:{r:?}"),
                prov_db::Pushdown::NeedsFullFrame(r) => format!("fallback:{r}"),
            };
            scrub_index_maps(format!("{text} => {full:?} | {pushed}"))
        })
        .collect()
}

fn artifact_root() -> PathBuf {
    std::env::var("PROVDB_TEST_ARTIFACT_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| std::env::temp_dir())
}

/// Child: stream the corpus into the durable store at `dir`, flushing
/// every batch. `PROVDB_CRASH_AFTER` (set by the parent) aborts the
/// process from inside the WAL writer.
fn run_child(dir: &str) -> i32 {
    let msgs = corpus(TOTAL);
    let db = ProvenanceDatabase::open(dir).expect("child: open durable store");
    for chunk in msgs.chunks(BATCH) {
        db.insert_batch_shared(chunk.iter().cloned().map(Arc::new));
        db.flush_views();
    }
    0
}

fn run_parent(runs: u64, seed: u64) -> i32 {
    let exe = std::env::current_exe().expect("current_exe");
    let msgs = corpus(TOTAL);
    let root = artifact_root();
    let mut rng = seed.wrapping_mul(2).wrapping_add(1);
    let mut failures = 0;
    for run in 0..runs {
        rng = rng
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        // Crash points across the whole schedule, including a tail past
        // the corpus (clean completion) every so often.
        let crash_at = 1 + ((rng >> 33) as usize % (TOTAL + TOTAL / 10));
        let dir = root.join(format!(
            "provdb-crash-{}-run{}-at{}",
            std::process::id(),
            run,
            crash_at
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let status = std::process::Command::new(&exe)
            .args(["--crash-child", dir.to_str().expect("utf-8 dir")])
            .env("PROVDB_CRASH_AFTER", crash_at.to_string())
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .status()
            .expect("spawn crash child");
        let expect = crash_at.min(TOTAL) as u64;
        if crash_at >= TOTAL && !status.success() {
            eprintln!("run {run}: child crashed past the corpus (crash_at={crash_at})");
            failures += 1;
            continue;
        }
        // Recover through the default lazy path first (sealed prefix
        // attached cold, kv/graph hydrated on first access) …
        let lazy = ProvenanceDatabase::open(&dir).expect("parent: recover store (lazy)");
        let got = lazy.insert_count();
        let oracle = ProvenanceDatabase::shared();
        oracle.insert_batch(&msgs[..got as usize]);
        let want = fingerprint(&oracle);
        let lazy_ok = fingerprint(&lazy) == want;
        let stats = lazy.durable_stats().expect("durable");
        let paged = lazy.pager_stats();
        drop(lazy);
        // … then again through the full replay: both open paths must
        // agree on the recovered prefix and every golden answer.
        let replayed = ProvenanceDatabase::open_replayed(&dir, prov_db::Config::from_env())
            .expect("parent: recover store (replayed)");
        let replayed_ok = replayed.insert_count() == got && fingerprint(&replayed) == want;
        drop(replayed);
        if got != expect || !lazy_ok || !replayed_ok {
            eprintln!(
                "run {run}: MISMATCH crash_at={crash_at} recovered={got} expect={expect} \
                 lazy_identical={lazy_ok} replayed_identical={replayed_ok}; artifacts kept at {}",
                dir.display()
            );
            failures += 1;
            continue;
        }
        println!(
            "run {run}: ok crash_at={crash_at} recovered={got} sealed_slots={} segments={} \
             wal_tail={} paged_in={}",
            stats.sealed_slots, stats.segments, stats.wal_tail, paged.paged_in
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
    if failures > 0 {
        eprintln!("crash_harness: {failures}/{runs} runs FAILED");
        1
    } else {
        println!("crash_harness: {runs} runs, recovery byte-identical at every crash point");
        0
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.len() >= 3 && args[1] == "--crash-child" {
        std::process::exit(run_child(&args[2]));
    }
    let mut runs = 8u64;
    let mut seed = 1u64;
    let mut i = 1;
    while i + 1 < args.len() {
        match args[i].as_str() {
            "--runs" => runs = args[i + 1].parse().expect("--runs <u64>"),
            "--seed" => seed = args[i + 1].parse().expect("--seed <u64>"),
            other => panic!("unknown argument `{other}` (use --runs N --seed S)"),
        }
        i += 2;
    }
    std::process::exit(run_parent(runs, seed));
}
