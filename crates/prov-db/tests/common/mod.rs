//! Fixture shared by the durable differential suites
//! (`recovery_differential`, `out_of_core_differential`): the golden
//! pipelines, the deterministic corpus, the never-crashed oracle, the
//! byte-identity fingerprint, and fresh durable directories.

use prov_db::{ProvenanceDatabase, StoreSnapshot};
use prov_model::{TaskMessage, TaskMessageBuilder, TaskStatus};
use provql::{execute, parse};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Golden pipelines: filters over hot string and float columns, grouped
/// aggregation, ordered top-k through both index and heap paths, NaN
/// arithmetic, and graph-free scans — the query families the engine's
/// pushdown tiers split on.
pub const GOLDEN: &[&str] = &[
    r#"len(df)"#,
    r#"len(df[df["status"] == "ERROR"])"#,
    r#"len(df[df["workflow_id"] != "wf-1"])"#,
    r#"df[df["status"] != "ERROR"]["duration"].sum()"#,
    r#"df["started_at"].mean()"#,
    r#"df["y"].sum()"#,
    r#"df[df["started_at"] >= 12]["task_id"]"#,
    r#"len(df[df["hostname"].isin(["n0", "n2"])])"#,
    r#"df.groupby("activity_id")["duration"].mean()"#,
    r#"df.groupby("workflow_id")["started_at"].count()"#,
    r#"df.sort_values("started_at", ascending=False)[["task_id", "started_at"]].head(5)"#,
    r#"df.sort_values("duration")[["task_id"]].head(4)"#,
    r#"df[["task_id", "workflow_id"]].head(6)"#,
    r#"df["status"].value_counts()"#,
    r#"df[df["cpu_percent_end"] > 20]["task_id"]"#,
];

/// Deterministic corpus: hot fields cycle, every 11th `y` payload is NaN
/// (the value the textual JSON writer cannot round-trip — the binary WAL
/// codec must; the golden set sums it but never sorts on it, since the
/// oracle's comparator refuses NaN sort keys), every 7th message has
/// lineage + an agent, every 5th a dataflow payload.
pub fn corpus(n: usize) -> Vec<TaskMessage> {
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
            if i % 5 == 1 {
                b = b.generates("out", i as f64);
            }
            b.build()
        })
        .collect()
}

/// Never-crashed oracle over `msgs`, built through the eager path.
pub fn oracle(msgs: &[TaskMessage]) -> Arc<ProvenanceDatabase> {
    let db = ProvenanceDatabase::shared();
    db.insert_batch(msgs);
    db
}

/// `DataFrame`'s Debug form includes its name→position `HashMap`, whose
/// iteration order is per-instance random. The mapping is fully derived
/// from the (ordered, compared) column list, so scrub it before
/// byte-comparing.
pub fn scrub_index_maps(mut s: String) -> String {
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

/// The byte-identity fingerprint of a snapshot: for every pipeline, the
/// `Debug` rendering of the oracle-frame answer plus the pushdown
/// outcome. NaN prints as `NaN`, so bit-preserved NaN cells compare
/// equal here while any value drift (or a pushdown tier flipping) does
/// not.
pub fn fingerprint(snap: &StoreSnapshot, queries: &[&str]) -> Vec<String> {
    let frame = snap.oracle_frame();
    queries
        .iter()
        .map(|text| {
            let q = parse(text).expect("golden query parses");
            let full = execute(&q, &frame);
            let pushed = match prov_db::execute_plan(snap, &provql::plan(&q, snap)) {
                prov_db::Pushdown::Executed(r) => format!("pushed:{r:?}"),
                prov_db::Pushdown::NeedsFullFrame(r) => format!("fallback:{r}"),
            };
            scrub_index_maps(format!("{text} => {full:?} | {pushed}"))
        })
        .collect()
}

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// A fresh durable directory under the artifact root
/// (`PROVDB_TEST_ARTIFACT_DIR`, default the system temp dir). Kept on
/// panic (the cleanup call at the end of a test never runs), so CI's
/// `if: failure()` artifact step can upload the bytes.
pub fn fresh_dir(tag: &str) -> PathBuf {
    let root = std::env::var("PROVDB_TEST_ARTIFACT_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| std::env::temp_dir());
    let dir = root.join(format!(
        "provdb-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create durable dir");
    dir
}
