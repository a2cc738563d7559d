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
use prov_db::{Config, DocQuery, ProvenanceDatabase, StoreSnapshot, SyncPolicy};
use prov_model::{obj, TaskMessage, TaskStatus, Value};
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

/// The deferred KV/graph hydration: point lookups and lineage traversals
/// on a lazily opened store equal the oracle's, and repeated scans hit
/// the resident set.
#[test]
fn lazy_open_hydrates_kv_and_graph_on_first_read() {
    let (chunk, nshards) = geometry();
    let n = chunk * nshards + 5;
    let msgs = corpus(n);
    let dir = fresh_dir("hydrate");
    seal_corpus(&dir, &msgs);

    let lazy = open_lazy(&dir, 64 << 20);
    let oracle = oracle(&msgs);
    // Graph first (hydration triggers here), then KV.
    assert_eq!(
        lazy.graph().upstream_lineage("t9", 10),
        oracle.graph().upstream_lineage("t9", 10)
    );
    let last = format!("t{}", n - 1);
    for id in ["t0", "t2", "t9", last.as_str(), "missing"] {
        // Compared by `Debug` rendering, like the fingerprint: every 11th
        // `y` payload is NaN, which `Value`'s `==` never equals.
        assert_eq!(
            format!("{:?}", lazy.get_task(id).map(|m| m.to_value())),
            format!("{:?}", oracle.get_task(id).map(|m| m.to_value())),
            "task {id}"
        );
    }
    assert_eq!(lazy.kv().len(), oracle.kv().len());
    assert_eq!(lazy.graph().node_count(), oracle.graph().node_count());

    // A warm re-scan is served from the resident set.
    let _ = fingerprint(&lazy.snapshot(), &[GOLDEN[6]]);
    let before = lazy.pager_stats();
    let _ = fingerprint(&lazy.snapshot(), &[GOLDEN[6]]);
    let after = lazy.pager_stats();
    assert!(after.hits > before.hits, "warm scan must hit the cache");
    drop(lazy);
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
    assert_eq!(&bytes[..6], b"PSEG2\n", "seals write PSEG2");
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

/// Rewrite a `PSEG2` segment as the `PSEG1` row file it extends: the same
/// header fields and document records, no column blocks, and a footer
/// without the trailing layout table.
fn downgrade_to_pseg1(path: &std::path::Path) {
    let bytes = std::fs::read(path).expect("read segment");
    assert_eq!(&bytes[..6], b"PSEG2\n");
    let u32_at = |o: usize| u32::from_le_bytes(bytes[o..o + 4].try_into().unwrap());
    let n_chunks = (u32_at(34) as usize).div_ceil(u32_at(30) as usize);
    let footer_end = bytes.len() - 14;
    let footer_start = footer_end - u32_at(footer_end) as usize;
    let layout_start = footer_end - (4 + 16 * (n_chunks + 1));
    // The last document bound is where the column blocks begin.
    let at = layout_start + 4 + 8 * n_chunks;
    let docs_end = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
    let zones = &bytes[footer_start..layout_start];
    let mut out = b"PSEG1\n".to_vec();
    out.extend_from_slice(&bytes[6..docs_end]);
    out.extend_from_slice(zones);
    out.extend_from_slice(&(zones.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(zones).to_le_bytes());
    out.extend_from_slice(b"PSEGF\n");
    std::fs::write(path, out).expect("rewrite segment");
}

fn segment_files(dir: &PathBuf) -> Vec<PathBuf> {
    std::fs::read_dir(dir)
        .expect("list store")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "seg"))
        .collect()
}

/// `PSEG1` segments stay readable: the same rows sealed as `PSEG2` and
/// rewritten as `PSEG1` answer every golden pipeline like the oracle
/// through a lazy open (their cols pages come from decoded documents). Sealing more rows and compacting on that
/// store rewrites the history forward, every file `PSEG2`, with the same
/// answers after a reopen.
#[test]
fn pseg1_segments_answer_like_pseg2_and_compact_forward() {
    let (chunk, nshards) = geometry();
    let per_run = chunk * nshards;
    let msgs = corpus(2 * per_run + 3);
    let dir = fresh_dir("pseg1");
    seal_corpus(&dir, &msgs[..per_run]);
    let want = fingerprint(&oracle(&msgs[..per_run]).snapshot(), GOLDEN);
    let pseg2 = open_lazy(&dir, 64 << 20);
    assert_eq!(fingerprint(&pseg2.snapshot(), GOLDEN), want, "PSEG2");
    drop(pseg2);

    for seg in segment_files(&dir) {
        downgrade_to_pseg1(&seg);
    }
    let db = open_lazy(&dir, 64 << 20);
    assert!(db.durable_stats().expect("durable").sealed_slots > 0);
    assert_eq!(fingerprint(&db.snapshot(), GOLDEN), want, "PSEG1");
    assert!(db.pager_stats().paged_in_docs > 0, "PSEG1 pages documents");

    db.insert_batch_shared(msgs[per_run..].iter().cloned().map(Arc::new));
    db.flush_views();
    assert_eq!(db.seal_now().expect("reseal"), 2 * chunk as u64);
    db.compact_segments().expect("compact");
    drop(db);
    for seg in segment_files(&dir) {
        let magic = std::fs::read(&seg).expect("read segment")[..6].to_vec();
        assert_eq!(magic, b"PSEG2\n", "{} not rewritten forward", seg.display());
    }
    let back = open_lazy(&dir, 64 << 20);
    assert_eq!(
        fingerprint(&back.snapshot(), GOLDEN),
        fingerprint(&oracle(&msgs).snapshot(), GOLDEN),
        "after compaction"
    );
    drop(back);
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
