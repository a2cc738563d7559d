//! Out-of-core differential suite: a durable store reopened **lazily**
//! (sealed coverage attached as a paged cold prefix, not replayed) must
//! answer every golden pipeline byte-identically to an eager reopen and
//! to a never-crashed in-memory oracle — including under a resident-set
//! budget so small that every scan churns the chunk cache, and across
//! further ingest, sealing, and compaction on the lazily opened store.
//!
//! CI runs this suite across the durability matrix (`PROVDB_CHUNK=64`
//! and `4096`, `PROVDB_RESIDENT_MB=4`, shard and thread counts), so the
//! paging layer is exercised at both one-chunk-per-segment and
//! many-rows-per-chunk granularities.

mod common;

use common::{corpus, fingerprint, fresh_dir, oracle, scrub_index_maps, GOLDEN};
use dataframe::DataFrame;
use proptest::prelude::*;
use prov_db::{AggOp, Aggregate, Config, DocQuery, GroupSpec, Op, ProvenanceDatabase};
use prov_db::{StoreSnapshot, SyncPolicy};
use prov_model::{obj, TaskMessage, TaskMessageBuilder, TaskStatus, Value};
use provql::parse;
use std::path::PathBuf;
use std::sync::Arc;

/// This process's configuration with batch WAL sync.
fn config() -> Config {
    Config {
        wal_sync: SyncPolicy::Batch,
        ..Config::from_env()
    }
}

/// A lazy reopen with an explicit resident budget.
fn open_lazy(dir: &PathBuf, resident_bytes: usize) -> Arc<ProvenanceDatabase> {
    let config = Config {
        resident_bytes,
        ..config()
    };
    ProvenanceDatabase::open_with(dir, config).expect("lazy reopen")
}

/// The replayed reopen every lazy one is held to.
fn open_replayed(dir: &PathBuf) -> Arc<ProvenanceDatabase> {
    ProvenanceDatabase::open_replayed(dir, config()).expect("replayed reopen")
}

/// Per-shard chunk geometry of this process's configuration.
fn geometry() -> (usize, usize) {
    let config = Config::from_env();
    (config.chunk_rows, config.shards)
}

/// Build a sealed-and-compacted durable directory over `msgs`, with the
/// final `tail` messages left in the WAL.
fn seal_corpus(dir: &PathBuf, msgs: &[TaskMessage]) {
    let db = ProvenanceDatabase::open_with(dir, config()).expect("open durable");
    db.insert_batch_shared(msgs.iter().cloned().map(Arc::new));
    db.flush_views();
    db.seal_now().expect("seal");
    db.compact_segments().expect("compact");
}

/// Lazy reopen ≡ eager reopen ≡ oracle on the full golden set — at a
/// generous budget and at a one-byte budget that forces every paged
/// chunk to evict its predecessors.
#[test]
fn lazy_open_matches_eager_and_oracle_under_any_budget() {
    let (chunk, nshards) = geometry();
    let msgs = corpus(2 * chunk * nshards + 7);
    let dir = fresh_dir("golden");
    seal_corpus(&dir, &msgs);

    let want = fingerprint(&oracle(&msgs).snapshot(), GOLDEN);
    let eager = open_replayed(&dir);
    assert_eq!(eager.insert_count(), msgs.len() as u64);
    assert_eq!(
        fingerprint(&eager.snapshot(), GOLDEN),
        want,
        "eager reopen drifted"
    );
    assert_eq!(eager.pager_stats().paged_in, 0, "eager opens never page");
    drop(eager);

    for budget in [64 << 20, 1] {
        let lazy = open_lazy(&dir, budget);
        assert_eq!(lazy.insert_count(), msgs.len() as u64, "budget {budget}");
        assert_eq!(
            lazy.pager_stats().paged_in,
            0,
            "open itself must not page (budget {budget})"
        );
        let stats = lazy.durable_stats().expect("durable");
        assert_eq!(stats.sealed_slots, 2 * chunk as u64);
        assert_eq!(
            fingerprint(&lazy.snapshot(), GOLDEN),
            want,
            "budget {budget}"
        );
        let pager = lazy.pager_stats();
        assert!(pager.paged_in > 0, "queries page cold chunks in");
        if budget == 1 {
            assert!(pager.evicted > 0, "one-byte budget must evict");
        }
        drop(lazy);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Page-ins since `before`, split by kind: `(cols pages, docs pages)`.
fn page_ins(db: &ProvenanceDatabase, before: prov_db::PagerStats) -> (u64, u64) {
    let after = db.pager_stats();
    let docs = after.paged_in_docs - before.paged_in_docs;
    (after.paged_in - before.paged_in - docs, docs)
}

/// An id-ordered gather over a lazily opened multi-shard store pages each
/// cold chunk it touches at most once, even under a one-byte budget that
/// evicts every chunk as soon as the next one is paged: consecutive ids
/// alternate shards, so the gathers keep one warm chunk per shard. Each
/// gather also equals the eager store's.
#[test]
fn id_gathers_page_each_touched_chunk_at_most_once() {
    let (chunk, nshards) = geometry();
    let msgs = corpus(2 * chunk * nshards + 7);
    let dir = fresh_dir("gather");
    seal_corpus(&dir, &msgs);

    let eager = open_replayed(&dir);
    let lazy = open_lazy(&dir, 1);
    let sealed = lazy.durable_stats().expect("durable").sealed_slots as usize;
    // Every shard's slots on both sides of the first chunk boundary.
    let ids: Vec<usize> = ((chunk - 8) * nshards..(chunk + 8) * nshards).collect();
    let touched: std::collections::BTreeSet<(usize, usize)> = ids
        .iter()
        .map(|id| (id % nshards, id / nshards))
        .filter(|&(_, slot)| slot < sealed)
        .map(|(s, slot)| (s, slot / chunk))
        .collect();
    assert_eq!(
        touched.len(),
        2 * nshards,
        "ids straddle one chunk boundary per shard"
    );

    let paged = |gather: &dyn Fn(&ProvenanceDatabase) -> String| {
        let before = lazy.pager_stats();
        let got = gather(&lazy);
        assert_eq!(got, gather(&eager), "lazy gather drifted");
        page_ins(&lazy, before)
    };
    let cells = paged(&|db| {
        let cells = db.documents().columnar_gather(&ids, "started_at");
        format!("{:?}", cells.expect("started_at is servable"))
    });
    let docs = paged(&|db| format!("{:?}", db.documents().docs_for_ids(&ids)));
    let groups = paged(&|db| {
        let groups = db.documents().columnar_group_codes(&ids, "hostname");
        format!("{:?}", groups.expect("hostname is servable"))
    });
    for (name, (cols, docs)) in [
        ("columnar_gather", cells),
        ("docs_for_ids", docs),
        ("group codes", groups),
    ] {
        for (kind, n) in [("cols", cols), ("docs", docs)] {
            assert!(
                n <= touched.len() as u64,
                "{name} paged {n} {kind} pages for {} distinct touched chunks ({nshards} shards)",
                touched.len()
            );
        }
    }
    // Each gather pages only the kind it reads.
    assert_eq!((cells.1, groups.1, docs.0), (0, 0, 0));
    drop((eager, lazy));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A pushed limit reaches the scan kernel. Every sealed chunk of every
/// shard holds `ERROR` rows (status keyed on the row's slot, so the zone
/// maps can prune nothing), and a snapshot `head(3)` over them on a lazily
/// opened store under a one-byte budget stops after the first chunk of
/// each shard: the scan pages at most one chunk per shard, and the
/// projection gather pages only the chunks its three survivors live in
/// (the one-byte budget keeps nothing resident between the two). The
/// answer equals the eager store's, and so do the scan kernels' answers
/// under a bound that ends inside the sealed prefix.
#[test]
fn snapshot_head_stops_paging_at_the_limit() {
    let (chunk, nshards) = geometry();
    let msgs: Vec<TaskMessage> = corpus(2 * chunk * nshards + 7)
        .into_iter()
        .enumerate()
        .map(|(i, mut m)| {
            if (i / nshards) % 4 == 0 {
                m.status = TaskStatus::Error;
            } else if m.status == TaskStatus::Error {
                m.status = TaskStatus::Finished;
            }
            m
        })
        .collect();
    let dir = fresh_dir("head");
    seal_corpus(&dir, &msgs);

    let eager = open_replayed(&dir);
    let lazy = open_lazy(&dir, 1);
    let q = parse(r#"df[df["status"] == "ERROR"][["task_id"]].head(3)"#).expect("parses");
    let snap = lazy.snapshot();
    let before = lazy.pager_stats();
    let (got, _) = snap.query(&q);
    let (cols, docs) = page_ins(&lazy, before);
    let got = got.expect("query runs");
    assert!(!snap.oracle_built(), "head(3) must be served by the scan");
    let (want, _) = eager.snapshot().query(&q);
    assert_eq!(*got, *want.expect("query runs"), "lazy head drifted");

    let provql::QueryOutput::Frame(frame) = &*got else {
        panic!("expected a frame, got {got:?}");
    };
    let gathered: std::collections::BTreeSet<(usize, usize)> = frame
        .column("task_id")
        .expect("task_id column")
        .values()
        .iter()
        .map(|v| {
            let id: usize = v.as_str().expect("task id")[1..].parse().expect("t{i}");
            (id % nshards, id / nshards / chunk)
        })
        .collect();
    assert_eq!(frame.len(), 3);
    for (kind, paged) in [("cols", cols), ("docs", docs)] {
        assert!(
            paged <= (nshards + gathered.len()) as u64,
            "head(3) paged {paged} {kind} pages; the limit allows {nshards} for the scan \
             plus {} for the gather",
            gathered.len()
        );
    }
    // The kernels honour any bound, including one inside the cold prefix.
    let bound: Vec<usize> = lazy
        .documents()
        .shard_rows()
        .iter()
        .map(|r| r / 3)
        .collect();
    let err = prov_model::Value::from("ERROR");
    let preds = [prov_db::ScanPredicate::Cmp(
        "status",
        dataframe::CmpOp::Eq,
        &err,
    )];
    for limit in [None, Some(5)] {
        assert_eq!(
            lazy.documents().columnar_scan_where(&preds, limit, &bound),
            eager.documents().columnar_scan_where(&preds, limit, &bound),
            "scan under a cold bound, limit {limit:?}"
        );
        let sort = [("duration", false), ("started_at", true)];
        assert_eq!(
            lazy.documents()
                .columnar_topk_where(&preds, &sort, limit, &bound),
            eager
                .documents()
                .columnar_topk_where(&preds, &sort, limit, &bound),
            "top-k under a cold bound, limit {limit:?}"
        );
    }
    drop((eager, lazy));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The deferred graph hydration: point lookups, the graph's shape and
/// every task's lineage in both directions on a lazily opened store equal
/// the oracle's — at a generous budget and at a one-byte budget that
/// re-pages every chunk the hydration walks — and repeated scans hit the
/// resident set.
#[test]
fn lazy_open_hydrates_the_graph_on_first_read() {
    let (chunk, nshards) = geometry();
    let n = chunk * nshards + 5;
    let msgs = corpus(n);
    let dir = fresh_dir("hydrate");
    seal_corpus(&dir, &msgs);
    let oracle = oracle(&msgs);
    let last = format!("t{}", n - 1);

    for budget in [64 << 20, 1] {
        let lazy = open_lazy(&dir, budget);
        // Graph first (hydration triggers here), then point lookups.
        let (graph, want) = (lazy.graph(), oracle.graph());
        assert_eq!(graph.node_count(), want.node_count(), "budget {budget}");
        assert_eq!(graph.edge_count(), want.edge_count(), "budget {budget}");
        for msg in &msgs {
            let id = msg.task_id.as_str();
            assert_eq!(
                graph.upstream_lineage(id, 10),
                want.upstream_lineage(id, 10),
                "upstream of {id} at budget {budget}"
            );
            assert_eq!(
                graph.downstream_impact(id, 10),
                want.downstream_impact(id, 10),
                "downstream of {id} at budget {budget}"
            );
        }
        let (snap, want) = (lazy.snapshot(), oracle.snapshot());
        for id in ["t0", "t2", "t9", last.as_str(), "missing"] {
            // Compared by `Debug` rendering, like the fingerprint: every
            // 11th `y` payload is NaN, which `Value`'s `==` never equals.
            assert_eq!(
                format!("{:?}", snap.get_task(id).map(|m| m.to_value())),
                format!("{:?}", want.get_task(id).map(|m| m.to_value())),
                "task {id} at budget {budget}"
            );
        }

        // A warm re-scan is served from the resident set.
        if budget > 1 {
            let _ = fingerprint(&lazy.snapshot(), &[GOLDEN[6]]);
            let before = lazy.pager_stats();
            let _ = fingerprint(&lazy.snapshot(), &[GOLDEN[6]]);
            let after = lazy.pager_stats();
            assert!(after.hits > before.hits, "warm scan must hit the cache");
        }
        drop(lazy);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Zone pruning happens *before* I/O: a predicate no sealed chunk can
/// satisfy skips every cold chunk without paging one in.
#[test]
fn impossible_predicate_prunes_cold_chunks_without_paging() {
    let (chunk, nshards) = geometry();
    let msgs = corpus(2 * chunk * nshards);
    let dir = fresh_dir("prune");
    seal_corpus(&dir, &msgs);

    let lazy = open_lazy(&dir, 64 << 20);
    let q = parse(r#"df[df["started_at"] > 1e12]["task_id"]"#).expect("parses");
    let snap = lazy.snapshot();
    let out = prov_db::execute_plan(&snap, &provql::plan(&q, &*snap));
    assert!(
        matches!(out, prov_db::Pushdown::Executed(_)),
        "selective scan should push down"
    );
    let stats = lazy.pager_stats();
    assert!(stats.zone_skips > 0, "zone maps must prune cold chunks");
    assert_eq!(stats.paged_in, 0, "pruned chunks must not be paged");
    drop(lazy);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Columnar-only pipelines page column blocks and no document: a
/// pushed count and a code-table `value_counts` over a lazily opened
/// store read only cols pages. Document reads — `get`, `docs_for_ids`
/// and the graph hydration — page only the docs pages of the chunks they
/// touch, and no cols page. Every answer equals the eager store's.
#[test]
fn columnar_pipelines_page_no_documents_and_document_reads_no_columns() {
    let (chunk, nshards) = geometry();
    let msgs = corpus(2 * chunk * nshards + 7);
    let dir = fresh_dir("kinds");
    seal_corpus(&dir, &msgs);
    let eager = open_replayed(&dir);
    let lazy = open_lazy(&dir, 64 << 20);
    let sealed = lazy.durable_stats().expect("durable").sealed_slots as usize;

    let run = |db: &Arc<ProvenanceDatabase>, q: &provql::Query| {
        let snap = db.snapshot();
        let out = prov_db::execute_plan(&snap, &provql::plan(q, &*snap));
        assert!(
            !snap.oracle_built(),
            "columnar pipelines must not build a frame"
        );
        scrub_index_maps(format!("{out:?}"))
    };
    let mut scanned = 0;
    for text in [
        r#"len(df[df["status"] == "FINISHED"])"#,
        r#"df["hostname"].value_counts()"#,
    ] {
        let q = parse(text).expect("parses");
        let before = lazy.pager_stats();
        let got = run(&lazy, &q);
        let (cols, docs) = page_ins(&lazy, before);
        assert_eq!(got, run(&eager, &q), "{text}");
        assert!(got.starts_with("Executed"), "{text} must push down: {got}");
        assert_eq!(docs, 0, "{text} paged {docs} document regions");
        scanned += cols;
    }
    assert!(scanned > 0, "the scans page column blocks");

    // One cold id: one docs page, no cols page.
    let id = (chunk + 1) * nshards;
    let before = lazy.pager_stats();
    assert_eq!(
        format!("{:?}", lazy.documents().get(id)),
        format!("{:?}", eager.documents().get(id))
    );
    assert_eq!(page_ins(&lazy, before), (0, 1), "get pages one docs page");

    // Ids inside the first cold chunk of every shard.
    let ids: Vec<usize> = (0..4 * nshards).collect();
    let before = lazy.pager_stats();
    assert_eq!(
        format!("{:?}", lazy.documents().docs_for_ids(&ids)),
        format!("{:?}", eager.documents().docs_for_ids(&ids))
    );
    let (cols, docs) = page_ins(&lazy, before);
    assert_eq!(cols, 0, "docs_for_ids paged {cols} cols pages");
    assert!(
        docs <= nshards as u64,
        "docs_for_ids paged {docs} docs pages"
    );

    // The graph hydration walks every cold chunk's documents once.
    let before = lazy.pager_stats();
    assert_eq!(
        lazy.graph().upstream_lineage("t9", 10),
        eager.graph().upstream_lineage("t9", 10)
    );
    let (cols, docs) = page_ins(&lazy, before);
    assert_eq!(cols, 0, "graph hydration paged {cols} cols pages");
    assert!(
        docs <= (sealed / chunk * nshards) as u64,
        "graph hydration paged {docs} docs pages"
    );
    drop((eager, lazy));
    let _ = std::fs::remove_dir_all(&dir);
}

/// `aggregate` and `distinct` on a lazy open answer exactly like the
/// replayed reopen, at the configured budget and at a one-byte budget,
/// filtered or not. An unfiltered group-by on `activity_id` takes the
/// dictionary-code path, which reads the cold chunks' column blocks: it
/// must page at least one cols page.
#[test]
fn aggregate_and_distinct_match_the_replayed_open_under_any_budget() {
    let (chunk, nshards) = geometry();
    let msgs = corpus(2 * chunk * nshards + 7);
    let dir = fresh_dir("aggregate");
    seal_corpus(&dir, &msgs);
    let eager = open_replayed(&dir);
    let group = |key: &str| GroupSpec {
        key: key.into(),
        aggs: [
            ("started_at", AggOp::Mean),
            ("used.y", AggOp::Count),
            ("task_id", AggOp::Max),
            ("ended_at", AggOp::Min),
            ("generated.out", AggOp::Sum),
        ]
        .into_iter()
        .map(|(path, op)| Aggregate {
            path: path.into(),
            op,
        })
        .collect(),
    };
    let queries = [
        DocQuery::new(),
        DocQuery::new().filter("status", Op::Eq, "ERROR"),
    ];
    // The code path (two string columns) and the hash path (a dataflow
    // key, and every filtered query); the replayed answers once each.
    let keys = ["activity_id", "hostname", "used.y"];
    let answers = |db: &ProvenanceDatabase, key: &str| {
        let grouped = queries
            .iter()
            .map(|q| format!("{:?}", db.aggregate(q, &group(key))));
        let distinct = format!("{:?}", db.documents().distinct(&DocQuery::new(), key));
        grouped.chain([distinct]).collect::<Vec<_>>()
    };
    let want: Vec<Vec<String>> = keys.iter().map(|key| answers(&eager, key)).collect();
    drop(eager);
    for budget in [config().resident_bytes, 1] {
        let lazy = open_lazy(&dir, budget);
        for (key, want) in keys.iter().zip(&want) {
            let before = lazy.pager_stats();
            assert_eq!(&answers(&lazy, key), want, "{key} budget {budget}");
            if *key == "activity_id" {
                let (cols, _) = page_ins(&lazy, before);
                assert!(
                    cols > 0,
                    "the code path reads column blocks (budget {budget})"
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// CRC-32 (IEEE), the checksum segment footers carry.
fn crc32(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in bytes {
        c ^= u32::from(b);
        for _ in 0..8 {
            c = if c & 1 == 1 {
                (c >> 1) ^ 0xEDB8_8320
            } else {
                c >> 1
            };
        }
    }
    !c
}

/// A segment whose footer CRC is valid but whose chunk-layout table does
/// not tile the file fails its footer read, so a lazy open takes the
/// eager fallback (docs/durability.md §Recovery): it pages nothing and
/// still answers every golden pipeline like the oracle.
#[test]
fn a_malformed_layout_table_takes_the_eager_fallback() {
    let (chunk, nshards) = geometry();
    let msgs = corpus(2 * chunk * nshards + 7);
    let dir = fresh_dir("layout");
    seal_corpus(&dir, &msgs);
    let seg = segment_files(&dir).pop().expect("a sealed segment");
    let mut bytes = std::fs::read(&seg).expect("read segment");
    assert_eq!(&bytes[..6], b"PSEG4\n", "seals write PSEG4");
    let u32_at = |b: &[u8], o: usize| u32::from_le_bytes(b[o..o + 4].try_into().unwrap());
    let n_chunks = (u32_at(&bytes, 34) as usize).div_ceil(u32_at(&bytes, 30) as usize);
    let size = bytes.len();
    let footer_len = u32_at(&bytes, size - 14) as usize;
    let footer_end = size - 14;
    // The layout table closes the footer: `[n u32]`, then the document
    // bounds, then the block bounds. Point the first document bound at 0.
    let first_doc_bound = footer_end - 16 * (n_chunks + 1);
    bytes[first_doc_bound..first_doc_bound + 8].copy_from_slice(&0u64.to_le_bytes());
    let crc = crc32(&bytes[footer_end - footer_len..footer_end]);
    bytes[size - 10..size - 6].copy_from_slice(&crc.to_le_bytes());
    std::fs::write(&seg, &bytes).expect("rewrite segment");

    let db = open_lazy(&dir, 64 << 20);
    assert_eq!(
        fingerprint(&db.snapshot(), GOLDEN),
        fingerprint(&oracle(&msgs).snapshot(), GOLDEN)
    );
    assert_eq!(db.pager_stats().paged_in, 0, "the fallback replays eagerly");
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

fn segment_files(dir: &PathBuf) -> Vec<PathBuf> {
    std::fs::read_dir(dir)
        .expect("list store")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "seg"))
        .collect()
}

/// A copy, in a fresh directory, of the store directory checked in
/// under `tests/fixtures/<name>`.
fn fixture_dir(name: &str) -> PathBuf {
    let src = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let dir = fresh_dir(name);
    for e in std::fs::read_dir(&src).expect("list fixture") {
        let path = e.expect("entry").path();
        std::fs::copy(&path, dir.join(path.file_name().expect("file name"))).expect("copy");
    }
    dir
}

/// The format magic of every segment file in `dir`.
fn formats(dir: &PathBuf) -> Vec<String> {
    segment_files(dir)
        .iter()
        .map(|seg| {
            let bytes = std::fs::read(seg).expect("read segment");
            String::from_utf8_lossy(&bytes[..6]).into_owned()
        })
        .collect()
}

/// `PSEG1`, `PSEG2` and `PSEG3` directories are written forward at the
/// first lazy open. The fixtures `pseg{1,2,3}-corpus32` are `corpus(32)`
/// sealed and compacted by the last releases that wrote each format, at 2
/// shards × 16-row chunks. The replayed open, the referee, reads them as
/// they are and leaves them so. The first lazy open — beside a stray temp
/// file, as a crash before a rewrite's rename leaves one — rewrites every
/// segment as `PSEG4` under its own name, answers every golden pipeline
/// like the oracle and serves a fixed-column scan from the column blocks,
/// paging no document. The rewrite builds the row-key catalog the old
/// footers lack: the store lists the oracle frame's columns from footers
/// alone, and serves a whole-row `loc` from one docs page without
/// building the frame. Sealing more rows and compacting on that store
/// keeps the answers across a reopen.
#[test]
fn legacy_segments_answer_like_pseg4_and_compact_forward() {
    let config = Config {
        shards: 2,
        chunk_rows: 16,
        wal_sync: SyncPolicy::Batch,
        resident_bytes: 64 << 20,
        ..Config::from_env()
    };
    let per_run = 32;
    let msgs = corpus(2 * per_run + 3);
    let want = fingerprint(&oracle(&msgs[..per_run]).snapshot(), GOLDEN);
    let scan = parse(r#"df[df["hostname"].isin(["n1", "n3"])]["task_id"]"#).expect("parses");
    let loc = parse(r#"df.loc[df["out"].idxmin()]"#).expect("parses");
    let oracle_columns = {
        let frame = oracle(&msgs[..per_run]).snapshot().oracle_frame();
        let mut names: Vec<String> = frame.column_names().iter().map(|s| s.to_string()).collect();
        names.sort();
        names
    };
    for legacy in [1u8, 2, 3] {
        let magic = format!("PSEG{legacy}\n");
        let dir = fixture_dir(&format!("pseg{legacy}-corpus32"));
        let names = segment_files(&dir);
        assert_eq!(formats(&dir), vec![magic.clone(); 2]);
        let replayed = ProvenanceDatabase::open_replayed(&dir, config).expect("replayed open");
        assert_eq!(
            fingerprint(&replayed.snapshot(), GOLDEN),
            want,
            "PSEG{legacy} replayed"
        );
        drop(replayed);
        assert_eq!(
            formats(&dir),
            vec![magic; 2],
            "the replayed open rewrote a segment"
        );

        let stray = names[0].with_extension("tmp");
        std::fs::write(&stray, b"PSEG4\n").expect("write a torn temp file");
        let db = ProvenanceDatabase::open_with(&dir, config).expect("lazy open");
        assert!(!stray.exists(), "the stray temp file survived the open");
        let mut forward = segment_files(&dir);
        forward.sort();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(forward, sorted, "PSEG{legacy}: rewritten under other names");
        assert_eq!(
            formats(&dir),
            vec!["PSEG4\n".to_string(); 2],
            "PSEG{legacy}"
        );
        assert_eq!(db.durable_stats().expect("durable").sealed_slots, 16);
        let mut columns: Vec<String> = (db.documents().frame_columns(&db.documents().shard_rows()))
            .expect("catalog")
            .iter()
            .map(|s| s.to_string())
            .collect();
        columns.sort();
        assert_eq!(columns, oracle_columns, "PSEG{legacy}: row-key catalog");
        let (got, _) = db.snapshot().query(&scan);
        let (oracle_got, _) = oracle(&msgs[..per_run]).snapshot().query(&scan);
        assert_eq!(got.expect("scan"), oracle_got.expect("oracle scan"));
        assert_eq!(
            db.pager_stats().paged_in_docs,
            0,
            "PSEG{legacy}: a fixed-column scan or the catalog paged documents"
        );
        let snap = db.snapshot();
        let (got, _) = snap.query(&loc);
        let (oracle_got, _) = oracle(&msgs[..per_run]).snapshot().query(&loc);
        assert_eq!(got.expect("loc"), oracle_got.expect("oracle loc"));
        assert!(!snap.oracle_built(), "PSEG{legacy}: loc built the frame");
        assert_eq!(db.pager_stats().paged_in_docs, 1, "PSEG{legacy}: loc");
        assert_eq!(fingerprint(&db.snapshot(), GOLDEN), want, "PSEG{legacy}");

        db.insert_batch_shared(msgs[per_run..].iter().cloned().map(Arc::new));
        db.flush_views();
        assert_eq!(db.seal_now().expect("reseal"), 32);
        db.compact_segments().expect("compact");
        drop(db);
        assert!(formats(&dir).iter().all(|m| m == "PSEG4\n"));
        let back = ProvenanceDatabase::open_with(&dir, config).expect("reopen");
        assert_eq!(
            fingerprint(&back.snapshot(), GOLDEN),
            fingerprint(&oracle(&msgs).snapshot(), GOLDEN),
            "after compaction from PSEG{legacy}"
        );
        drop(back);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A task sent twice — RUNNING, then FINISHED — is looked up as its
/// newest version: in memory, on a lazy reopen at a one-byte budget
/// (both versions sealed, so both are read from cold chunks) and through
/// the replayed open.
#[test]
fn a_resent_task_is_looked_up_as_its_newest_version() {
    let config = Config {
        shards: 2,
        chunk_rows: 16,
        ..config()
    };
    let mut msgs = corpus(2 * 16);
    let last = msgs.len() - 1;
    for (i, status) in [(1, TaskStatus::Running), (last, TaskStatus::Finished)] {
        msgs[i] = TaskMessageBuilder::new("resent", "wf-0", "act1")
            .status(status)
            .build();
    }
    let status = |db: &Arc<ProvenanceDatabase>| db.snapshot().get_task("resent").map(|m| m.status);

    assert_eq!(
        status(&oracle(&msgs)),
        Some(TaskStatus::Finished),
        "in memory"
    );
    let dir = fresh_dir("resent");
    {
        let db = ProvenanceDatabase::open_with(&dir, config).expect("open durable");
        db.insert_batch(&msgs);
        assert_eq!(db.seal_now().expect("seal"), 16, "both versions sealed");
    }
    let lazy = ProvenanceDatabase::open_with(
        &dir,
        Config {
            resident_bytes: 1,
            ..config
        },
    )
    .expect("lazy reopen");
    assert_eq!(status(&lazy), Some(TaskStatus::Finished), "lazy reopen");
    assert!(
        lazy.pager_stats().paged_in_docs > 0,
        "read from cold chunks"
    );
    drop(lazy);
    let replayed = ProvenanceDatabase::open_replayed(&dir, config).expect("replayed open");
    assert_eq!(
        status(&replayed),
        Some(TaskStatus::Finished),
        "replayed open"
    );
    drop(replayed);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Sealing while reads are in flight: a snapshot pinned over the cold
/// prefix keeps answering as of its generation while the store ingests,
/// seals, and compacts underneath it — and the store's own answers track
/// the growing corpus, byte-identically to the oracle, including after
/// yet another lazy reopen.
#[test]
fn continued_ingest_sealing_and_reopen_preserve_answers() {
    let (chunk, nshards) = geometry();
    let per_run = chunk * nshards;
    let msgs = corpus(2 * per_run + 3);
    let dir = fresh_dir("reseal");
    seal_corpus(&dir, &msgs[..per_run]);

    let db = open_lazy(&dir, 64 << 20);
    let snap = db.snapshot();
    let want_prefix = fingerprint(&oracle(&msgs[..per_run]).snapshot(), GOLDEN);
    assert_eq!(fingerprint(&db.snapshot(), GOLDEN), want_prefix);

    // Grow past the cold prefix, seal the resident rows, compact the
    // catalog — all on the lazily opened store.
    db.insert_batch_shared(msgs[per_run..].iter().cloned().map(Arc::new));
    db.flush_views();
    assert_eq!(db.seal_now().expect("reseal"), 2 * chunk as u64);
    db.compact_segments().expect("compact");

    let want_full = fingerprint(&oracle(&msgs).snapshot(), GOLDEN);
    assert_eq!(
        fingerprint(&db.snapshot(), GOLDEN),
        want_full,
        "post-reseal answers"
    );
    // The pinned snapshot still answers as of its generation.
    let q = parse(r#"len(df)"#).expect("parses");
    let (res, _) = snap.query(&q);
    assert_eq!(
        *res.expect("snapshot len"),
        provql::QueryOutput::Scalar(prov_model::Value::Int(per_run as i64))
    );
    drop(snap);
    drop(db);

    let back = ProvenanceDatabase::open(&dir).expect("reopen again");
    assert_eq!(
        fingerprint(&back.snapshot(), GOLDEN),
        want_full,
        "second reopen"
    );
    drop(back);
    let _ = std::fs::remove_dir_all(&dir);
}

/// One directory under two geometries in one process: sealed at 4
/// shards × 64-row chunks, grown and sealed at 2 shards × 4096-row
/// chunks, then grown and sealed at the first geometry again. After each
/// step, `open` at either geometry — which attaches the segments of its
/// own geometry cold, replays the rest and counts those in
/// `DurableStats::foreign_segments` — and `open_replayed` answer the
/// golden set byte-identically to the oracle.
#[test]
fn reopening_under_another_geometry_matches_the_oracle() {
    let small = Config {
        shards: 4,
        chunk_rows: 64,
        ..config()
    };
    let large = Config {
        shards: 2,
        chunk_rows: 4096,
        ..config()
    };
    let msgs = corpus(2 * 4096 + 14);
    let dir = fresh_dir("geometry");
    let grow = |config: Config, rows: std::ops::Range<usize>| {
        let db = ProvenanceDatabase::open_with(&dir, config).expect("open durable");
        db.insert_batch_shared(msgs[rows].iter().cloned().map(Arc::new));
        db.flush_views();
        db.seal_now().expect("seal")
    };
    // `large_sealed`: whether segments of the large geometry exist yet,
    // so that its `open` attaches them cold instead of replaying.
    let check = |upto: usize, large_sealed: bool| {
        let want = fingerprint(&oracle(&msgs[..upto]).snapshot(), GOLDEN);
        for (config, sealed) in [(small, true), (large, large_sealed)] {
            let geometry = format!("{} shards x {} rows", config.shards, config.chunk_rows);
            let lazy = ProvenanceDatabase::open_with(&dir, config).expect("open");
            assert_eq!(lazy.insert_count(), upto as u64, "{geometry}");
            // Open reports the segments it replayed instead of attaching:
            // none when only its own geometry is on disk, all of them when
            // none of its own is, and the other geometry's otherwise.
            let stats = lazy.durable_stats().expect("durable");
            assert_eq!(
                stats.foreign_segments == 0,
                sealed && !large_sealed,
                "foreign segments {stats:?}, {geometry}"
            );
            assert_eq!(
                stats.foreign_segments == stats.segments,
                !sealed,
                "foreign segments {stats:?}, {geometry}"
            );
            assert_eq!(
                fingerprint(&lazy.snapshot(), GOLDEN),
                want,
                "open, {geometry}"
            );
            let paged = lazy.pager_stats().paged_in > 0;
            assert_eq!(paged, sealed, "open pages cold rows, {geometry}");
            drop(lazy);
            let replayed = ProvenanceDatabase::open_replayed(&dir, config).expect("replay");
            let stats = replayed.durable_stats().expect("durable");
            assert_eq!(stats.foreign_segments, stats.segments, "replay, {geometry}");
            assert_eq!(
                fingerprint(&replayed.snapshot(), GOLDEN),
                want,
                "open_replayed, {geometry}"
            );
        }
    };
    assert_eq!(grow(small, 0..2 * 64 * 4 + 7), 128);
    check(2 * 64 * 4 + 7, false);
    assert_eq!(grow(large, 2 * 64 * 4 + 7..2 * 4096 + 9), 4096);
    check(2 * 4096 + 9, true);
    assert_eq!(grow(small, 2 * 4096 + 9..msgs.len()), 2048);
    check(msgs.len(), true);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Shared sealed fixture for the random-pipeline differential: one
/// directory, three stores (eager, lazy, lazy with a one-byte budget).
fn shared_stores() -> &'static (
    Arc<ProvenanceDatabase>,
    Arc<ProvenanceDatabase>,
    Arc<ProvenanceDatabase>,
) {
    static STORES: std::sync::OnceLock<(
        Arc<ProvenanceDatabase>,
        Arc<ProvenanceDatabase>,
        Arc<ProvenanceDatabase>,
    )> = std::sync::OnceLock::new();
    STORES.get_or_init(|| {
        let (chunk, nshards) = geometry();
        let msgs = corpus(chunk * nshards + 9);
        let dir = fresh_dir("prop");
        seal_corpus(&dir, &msgs);
        let eager = open_replayed(&dir);
        let lazy = open_lazy(&dir, 64 << 20);
        let tiny = open_lazy(&dir, 1);
        (eager, lazy, tiny)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random pipelines over the sealed fixture: the lazy stores (both
    /// budgets) answer byte-identically to the eager one — full-frame
    /// and pushdown outcomes both.
    #[test]
    fn random_pipelines_answer_identically_out_of_core(
        family in 0usize..5,
        lit in 0u64..40,
        limit in 1usize..9,
        desc in any::<bool>(),
    ) {
        let text = match family {
            0 => format!(
                r#"df[df["started_at"] >= {lit}][["task_id", "started_at"]].head({limit})"#
            ),
            1 => format!(r#"df[df["started_at"] < {lit}]["duration"].sum()"#),
            2 => format!(
                r#"df.sort_values("started_at", ascending={})[["task_id"]].head({limit})"#,
                if desc { "False" } else { "True" }
            ),
            3 => format!(r#"len(df[df["hostname"] == "n{}"])"#, lit % 5),
            4 => format!(
                r#"df.groupby("{}")["y"].count()"#,
                if lit % 2 == 0 { "workflow_id" } else { "activity_id" }
            ),
            _ => unreachable!(),
        };
        let queries = [text.as_str()];
        let (eager, lazy, tiny) = shared_stores();
        let want = fingerprint(&eager.snapshot(), &queries);
        prop_assert_eq!(&fingerprint(&lazy.snapshot(), &queries), &want, "lazy drifted: {}", text);
        prop_assert_eq!(&fingerprint(&tiny.snapshot(), &queries), &want, "tiny-budget drifted: {}", text);
    }
}

/// The frame a snapshot's `oracle_frame` must equal, as a `Debug`
/// fingerprint (NaN cells compare by their rendering): a fresh
/// `from_messages` over the visible documents, decoded in id order.
fn fresh_frame(snap: &StoreSnapshot) -> String {
    let msgs: Vec<TaskMessage> = snap
        .find(&DocQuery::new())
        .iter()
        .filter_map(|d| TaskMessage::from_value(d))
        .collect();
    scrub_index_maps(format!("{:?}", DataFrame::from_messages(&msgs)))
}

/// `snap`'s (possibly memo-extended) oracle frame, fingerprinted.
fn oracle_frame(snap: &StoreSnapshot) -> String {
    scrub_index_maps(format!("{:?}", snap.oracle_frame()))
}

/// Extending the memo reads only the delta rows: on a lazily reopened
/// store under a one-byte budget, the first frame pages every sealed
/// chunk, and a newer snapshot's frame — extended by resident rows —
/// pages nothing, yet equals a fresh build.
#[test]
fn extending_the_oracle_frame_pages_no_sealed_chunk() {
    let (chunk, nshards) = geometry();
    let msgs = corpus(2 * chunk * nshards + 5);
    let (sealed, rest) = msgs.split_at(chunk * nshards + 3);
    let dir = fresh_dir("frame-delta");
    seal_corpus(&dir, sealed);

    let db = open_lazy(&dir, 1);
    let first = db.snapshot();
    let before = db.pager_stats();
    assert_eq!(oracle_frame(&first), fresh_frame(&first));
    assert!(
        page_ins(&db, before).1 > 0,
        "the first build reads the sealed rows"
    );
    drop(first);

    db.insert_batch_shared(rest.iter().cloned().map(Arc::new));
    let newer = db.snapshot();
    let before = db.pager_stats();
    let extended = oracle_frame(&newer);
    assert_eq!(page_ins(&db, before), (0, 0), "an extension pages nothing");
    assert_eq!(extended, fresh_frame(&newer));
    drop(newer);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Shared message feed for the frame-memo proptest.
fn feed() -> &'static [TaskMessage] {
    static FEED: std::sync::OnceLock<Vec<TaskMessage>> = std::sync::OnceLock::new();
    FEED.get_or_init(|| corpus(1200))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random ingest / seal / compact / reopen / snapshot interleavings
    /// at 1–4 shards: after every step, the memo-extended oracle frame
    /// of a fresh snapshot — and of every snapshot still held, asked in
    /// any order — equals a fresh `from_messages` build. Held snapshots
    /// put older-after-newer requests (a rebuild from empty) and shared
    /// frames (the clone-before-extend path) in play; in-memory cases
    /// also insert undecodable documents, and durable cases reopen lazily
    /// under the configured or a one-byte budget, so builds read paged
    /// sealed chunks.
    #[test]
    fn memo_extended_oracle_frame_matches_a_fresh_build(
        shards in 1usize..5,
        chunk in prop_oneof![Just(16usize), Just(64usize)],
        durable in any::<bool>(),
        tiny in any::<bool>(),
        ops in prop::collection::vec((0usize..8, 1usize..48), 4..16),
    ) {
        let env = config();
        let config = Config {
            shards,
            chunk_rows: chunk.min(env.chunk_rows),
            resident_bytes: if tiny { 1 } else { env.resident_bytes },
            ..env
        };
        let dir = fresh_dir("frame-memo");
        let open = || ProvenanceDatabase::open_with(&dir, config).expect("open durable");
        let mut db = if durable {
            open()
        } else {
            Arc::new(ProvenanceDatabase::with_shards(shards))
        };
        let mut next = 0;
        let mut held: Vec<Arc<StoreSnapshot>> = Vec::new();
        for (step, &(op, n)) in ops.iter().enumerate() {
            match op {
                0 | 1 => {
                    let end = (next + n * 4).min(feed().len());
                    db.insert_batch_shared(feed()[next..end].iter().cloned().map(Arc::new));
                    next = end;
                }
                2 if !durable => {
                    db.documents().insert(obj! {"task_id" => Value::Int(n as i64)});
                }
                2 => {
                    let end = (next + n).min(feed().len());
                    db.insert_batch(&feed()[next..end]);
                    next = end;
                }
                3 => {
                    db.seal_now().expect("seal");
                }
                4 => {
                    db.compact_segments().expect("compact");
                }
                5 if durable => {
                    // Snapshots of the old handle must not outlive it:
                    // the reopened store may compact their segments away.
                    held.clear();
                    drop(db);
                    db = open();
                }
                5 | 6 => {
                    held.push(db.snapshot());
                    if held.len() > 3 {
                        held.remove(n % held.len());
                    }
                }
                _ => {
                    // Ask a held snapshot now: often older than the memo.
                    if !held.is_empty() {
                        let snap = &held[n % held.len()];
                        prop_assert_eq!(oracle_frame(snap), fresh_frame(snap), "held, step {}", step);
                    }
                }
            }
            let snap = db.snapshot();
            prop_assert_eq!(oracle_frame(&snap), fresh_frame(&snap), "step {} op {}", step, op);
            for (i, old) in held.iter().enumerate() {
                if old.oracle_built() {
                    prop_assert_eq!(oracle_frame(old), fresh_frame(old), "held {} after step {}", i, step);
                }
            }
        }
        drop(held);
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Dataflow keys that differ per task overflow the column catalog: names
/// past it get no column, and a lazy reopen poisons every discovered
/// column an overflowed segment does not list. Whatever the pushdown
/// decisions, every answer equals the oracle's — after sealing, after a
/// lazy reopen and more ingest under new and old names, and after
/// compaction and another reopen.
#[test]
fn an_overflowed_catalog_answers_like_the_oracle_across_reopen() {
    let config = Config {
        shards: 2,
        chunk_rows: 16,
        wal_sync: SyncPolicy::Batch,
        resident_bytes: 1,
        ..Config::from_env()
    };
    let msgs: Vec<TaskMessage> = corpus(200)
        .into_iter()
        .enumerate()
        .map(|(i, mut m)| {
            if !matches!(m.generated, Value::Object(_)) {
                m.generated = obj! {};
            }
            // Later rows reuse early names, so a column registered before
            // the overflow keeps gaining cells after it.
            m.generated.insert(format!("sample_{}", i % 150), i as f64);
            m
        })
        .collect();
    let queries = [
        r#"df[df["sample_3"].notna()]["task_id"]"#,
        r#"df["sample_120"].mean()"#,
        r#"df[df["sample_140"] > 0][["task_id", "sample_140", "sample_5"]]"#,
        r#"len(df[df["sample_60"].isna()])"#,
        r#"df[df["y"] > 10]["sample_7"].sum()"#,
        r#"df[df["depends_on"].notna()]["task_id"]"#,
    ];
    let answers = |snap: &StoreSnapshot| -> Vec<String> {
        queries
            .iter()
            .map(|text| {
                let (out, _) = snap.query(&parse(text).expect("parses"));
                scrub_index_maps(format!("{text} => {out:?}"))
            })
            .collect()
    };
    let want = |n: usize| answers(&oracle(&msgs[..n]).snapshot());
    let dir = fresh_dir("overflow");
    {
        let db = ProvenanceDatabase::open_with(&dir, config).expect("open durable");
        db.insert_batch_shared(msgs[..120].iter().cloned().map(Arc::new));
        db.flush_views();
        db.seal_now().expect("seal");
        assert_eq!(answers(&db.snapshot()), want(120), "sealed");
    }
    let db = ProvenanceDatabase::open_with(&dir, config).expect("lazy reopen");
    assert!(db.durable_stats().expect("durable").sealed_slots > 0);
    assert_eq!(answers(&db.snapshot()), want(120), "lazy reopen");
    db.insert_batch_shared(msgs[120..].iter().cloned().map(Arc::new));
    db.flush_views();
    assert_eq!(answers(&db.snapshot()), want(200), "ingest after reopen");
    db.seal_now().expect("reseal");
    db.compact_segments().expect("compact");
    drop(db);
    let back = ProvenanceDatabase::open_with(&dir, config).expect("reopen");
    assert_eq!(answers(&back.snapshot()), want(200), "after compaction");
    drop(back);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A compaction that rebuilds a segment registers dataflow names from
/// its own rows, so it can list a column the overflowed store had
/// dropped, and whose cells later seals of that store then do not carry.
/// A lazy reopen must not serve such a column from those segments: it
/// poisons every discovered column an overflowed footer does not list,
/// and every answer equals the oracle's.
#[test]
fn an_overflowed_footer_withholds_the_columns_it_does_not_list() {
    let config = Config {
        shards: 2,
        chunk_rows: 16,
        wal_sync: SyncPolicy::Batch,
        resident_bytes: 1,
        ..Config::from_env()
    };
    let named = |i: usize, m: TaskMessage, name: usize| {
        let mut m = m;
        if !matches!(m.generated, Value::Object(_)) {
            m.generated = obj! {};
        }
        m.generated.insert(format!("sample_{name}"), i as f64);
        m
    };
    let all = corpus(32 + 80 + 64);
    let mut msgs: Vec<TaskMessage> = all[..32].to_vec();
    // Eighty names, past the catalog's room: the live store drops the
    // last ones, each shard's rebuild (forty names) keeps them.
    msgs.extend((32..112).map(|i| named(i, all[i].clone(), i - 32)));
    // Then names on both sides of the cut again.
    msgs.extend((112..176).map(|i| named(i, all[i].clone(), 50 + i % 30)));
    let dir = fixture_dir("pseg1-corpus32");
    {
        let db = ProvenanceDatabase::open_with(&dir, config).expect("lazy open");
        db.insert_batch_shared(msgs[32..112].iter().cloned().map(Arc::new));
        db.flush_views();
        db.seal_now().expect("seal");
        // The runs written forward at open and the new ones merge by a
        // rebuild: their column tables are not prefix-compatible.
        db.compact_segments().expect("compact");
        db.insert_batch_shared(msgs[112..].iter().cloned().map(Arc::new));
        db.flush_views();
        db.seal_now().expect("seal");
    }
    // Shard 1's rebuilt run lists the odd names up to `sample_63`, the
    // overflowed store kept the odd ones below `sample_45`, and the last
    // seal's rows hold `sample_50` to `sample_79`.
    let queries = [
        r#"df[df["sample_57"].notna()]["task_id"]"#,
        r#"df["sample_61"].sum()"#,
        r#"df[df["sample_55"] > 0][["task_id", "sample_55"]]"#,
        r#"len(df[df["sample_53"].isna()])"#,
        r#"df[df["sample_75"].notna()]["task_id"]"#,
        r#"df["sample_70"].sum()"#,
    ];
    let answers = |snap: &StoreSnapshot| -> Vec<String> {
        queries
            .iter()
            .map(|text| {
                let (out, _) = snap.query(&parse(text).expect("parses"));
                scrub_index_maps(format!("{text} => {out:?}"))
            })
            .collect()
    };
    let db = ProvenanceDatabase::open_with(&dir, config).expect("reopen");
    assert_eq!(answers(&db.snapshot()), answers(&oracle(&msgs).snapshot()));
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}
