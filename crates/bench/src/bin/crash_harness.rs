//! Crash-point-injection harness for the durable provenance store.
//!
//! The recovery differential suite simulates crashes by truncating WAL
//! bytes; this binary injects the real thing. For each run it spawns
//! itself as a child (`--crash-child`) that streams a deterministic
//! corpus through a durable store and dies by `abort()` at a
//! `prov_db::crashpoint` it arms from its `--point <name> <nth>`
//! arguments. Two kinds of crash point alternate run by run:
//!
//! * a **record** count (`wal-record`): the store's WAL writer syncs
//!   exactly `n` records and aborts — mid-batch, views half-applied, by
//!   design at the worst spot;
//! * a **seal step**, the `k`-th time the write
//!   path reaches it: just after a WAL file switch, with a seal in flight
//!   (one segment renamed), after every segment rename and before the
//!   WAL files below the cutoff are deleted, after that deletion and
//!   before the catalog swap, or after the swap and before compaction.
//!   The seal steps run on the store's background sealer while the
//!   child goes on ingesting, so the abort lands beside a live flush.
//!
//! The parent reopens the directory and holds recovery to the contract:
//!
//! * the recovered insert count is exactly `min(n, total)` for a record
//!   crash — nothing a sync covered is lost, nothing past the abort
//!   leaks in — and, for a seal-step crash, at least every arrival of
//!   the flushes the child reported complete and at most one batch more;
//! * every golden pipeline answers **byte-identically** to a
//!   never-crashed oracle over that prefix — through **both** open
//!   paths: the lazy `ProvenanceDatabase::open` (sealed rows attached
//!   cold and paged on demand, the graph hydrated on first access) and
//!   the replaying referee, `ProvenanceDatabase::open_replayed`, so
//!   crash recovery is held on the out-of-core path too.
//!
//! The store runs at most 64-row chunks and seals every 128 arrivals
//! (smaller when `PROVDB_CHUNK` / `PROVDB_SEAL_ROWS` say so), and the
//! child compacts its segments halfway through, so every schedule
//! crosses `PSEG4` seals and a compaction: the golden set reads the
//! discovered dataflow columns (`label`, and `mode`, whose kind changes
//! mid-corpus and is poisoned), the lineage presence column, and a
//! whole row (`loc[idxmax]`), served from a top-1 scan and the row-key
//! catalog the footers carry.
//!
//! Crash points come from a seeded LCG so a CI leg loops a reproducible
//! schedule: `crash_harness --runs 12 --seed 7` (six record crashes, and
//! each seal step at least once). Any mismatch leaves the
//! durable directory in place (under `PROVDB_TEST_ARTIFACT_DIR` when
//! set) and exits non-zero so CI can upload the bytes.

use prov_db::crashpoint::{self, Point};
use prov_db::{Config, ProvenanceDatabase};
use prov_model::{TaskMessage, TaskMessageBuilder, TaskStatus};
use provql::{execute, parse};
use std::path::PathBuf;
use std::sync::Arc;

const TOTAL: usize = 600;
const BATCH: usize = 7;

/// The crash points, by their command-line names: the record count,
/// then the seal steps.
const POINTS: &[(&str, Point)] = &[
    ("wal-record", Point::WalRecord),
    ("wal-switched", Point::WalSwitched),
    ("seal-in-flight", Point::SealInFlight),
    ("segments-renamed", Point::SegmentsRenamed),
    ("wal-retired", Point::WalRetired),
    ("catalog-swapped", Point::CatalogSwapped),
];

const GOLDEN: &[&str] = &[
    r#"len(df)"#,
    r#"len(df[df["status"] == "ERROR"])"#,
    r#"df[df["status"] != "ERROR"]["duration"].sum()"#,
    r#"df["y"].sum()"#,
    r#"df.groupby("activity_id")["duration"].mean()"#,
    r#"df.sort_values("started_at", ascending=False)[["task_id", "started_at"]].head(5)"#,
    r#"len(df[df["hostname"].isin(["n0", "n2"])])"#,
    r#"df["status"].value_counts()"#,
    r#"len(df[df["depends_on"].notna()])"#,
    r#"df[df["label"] == "L1"]["y"].sum()"#,
    r#"df.groupby("label")["duration"].count()"#,
    r#"len(df[df["mode"].isna()])"#,
    r#"df.loc[df["started_at"].idxmax()]"#,
];

/// The store's configuration: the environment's, with chunks of at most
/// 64 rows and a seal every 128 arrivals at most, so the corpus seals.
fn config() -> Config {
    let env = Config::from_env();
    Config {
        chunk_rows: env.chunk_rows.min(64),
        seal_rows: env.seal_rows.min(128),
        ..env
    }
}

/// Same corpus family as `tests/recovery_differential.rs`: NaN payloads
/// in `y` (never a sort key), lineage and agents sprinkled in; plus a
/// string dataflow column and one that turns from float to string.
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
            .uses("y", y)
            .generates("label", format!("L{}", i % 3));
            if i % 5 == 1 {
                b = if i < TOTAL / 2 {
                    b.uses("mode", i as f64)
                } else {
                    b.uses("mode", "late")
                };
            }
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
/// every batch and reporting each completed flush on stdout. `point`
/// (from the parent's `--point` arguments) arms the crash: the WAL
/// writer aborts the process at a record count, the sealer at a step.
fn run_child(dir: &str, point: Option<(Point, u64)>) -> i32 {
    if let Some((point, nth)) = point {
        crashpoint::arm(point, nth);
    }
    let msgs = corpus(TOTAL);
    let db = ProvenanceDatabase::open_with(dir, config()).expect("child: open durable store");
    let mut flushed = 0;
    for (i, chunk) in msgs.chunks(BATCH).enumerate() {
        db.insert_batch_shared(chunk.iter().cloned().map(Arc::new));
        db.flush_views().expect("flush");
        flushed += chunk.len();
        println!("flushed {flushed}");
        if i == TOTAL / BATCH / 2 {
            db.compact_segments().expect("child: compact");
        }
    }
    drop(db);
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
        let draw = (rng >> 33) as usize;
        let mut child = std::process::Command::new(&exe);
        child.stderr(std::process::Stdio::null());
        // Even runs: record crashes across the whole schedule, including
        // a tail past the corpus (clean completion) every so often. Odd
        // runs: the seal steps in turn, each at one of its first reaches.
        let (what, tag, crash_at) = if run % 2 == 0 {
            let crash_at = 1 + draw % (TOTAL + TOTAL / 10);
            child.args(["--point", "wal-record", &crash_at.to_string()]);
            let what = format!("crash_at={crash_at}");
            (what, format!("at{crash_at}"), Some(crash_at))
        } else {
            let (name, _) = POINTS[1 + (run as usize / 2) % (POINTS.len() - 1)];
            let nth = 1 + draw % 4;
            child.args(["--point", name, &nth.to_string()]);
            (format!("point={name}#{nth}"), format!("{name}-{nth}"), None)
        };
        let dir = root.join(format!(
            "provdb-crash-{}-run{run}-{tag}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let out = child
            .args(["--crash-child", dir.to_str().expect("utf-8 dir")])
            .output()
            .expect("spawn crash child");
        let flushed = String::from_utf8_lossy(&out.stdout)
            .lines()
            .rev()
            .find_map(|l| l.strip_prefix("flushed ")?.parse::<u64>().ok())
            .unwrap_or(0);
        if crash_at.is_some_and(|n| n > TOTAL) && !out.status.success() {
            eprintln!("run {run}: child crashed past the corpus ({what})");
            failures += 1;
            continue;
        }
        // A record crash recovers exactly its count; a seal-step crash
        // every completed flush, and at most the batch in flight.
        let expect = match crash_at {
            Some(n) => n.min(TOTAL) as u64..=n.min(TOTAL) as u64,
            None => flushed..=(flushed + BATCH as u64).min(TOTAL as u64),
        };
        // Recover through the default lazy path first (sealed prefix
        // attached cold, the graph hydrated on first access) …
        let lazy = ProvenanceDatabase::open_with(&dir, config()).expect("parent: recover (lazy)");
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
        let replayed = ProvenanceDatabase::open_replayed(&dir, config())
            .expect("parent: recover store (replayed)");
        let replayed_ok = replayed.insert_count() == got && fingerprint(&replayed) == want;
        drop(replayed);
        if !expect.contains(&got) || !lazy_ok || !replayed_ok {
            eprintln!(
                "run {run}: MISMATCH {what} recovered={got} expect={expect:?} \
                 lazy_identical={lazy_ok} replayed_identical={replayed_ok}; artifacts kept at {}",
                dir.display()
            );
            failures += 1;
            continue;
        }
        println!(
            "run {run}: ok {what} recovered={got} sealed_slots={} segments={} \
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
    if let Some(at) = args.iter().position(|a| a == "--crash-child") {
        let dir = args.get(at + 1).expect("--crash-child <dir>");
        let point = args.iter().position(|a| a == "--point").map(|p| {
            let name = args.get(p + 1).expect("--point <name> <nth>");
            let (_, point) = POINTS
                .iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("unknown crash point `{name}`"));
            let nth = args.get(p + 2).and_then(|n| n.parse().ok());
            (*point, nth.expect("--point <name> <nth>"))
        });
        std::process::exit(run_child(dir, point));
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
