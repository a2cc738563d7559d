//! Differential property tests for the CSR graph kernels: over random
//! DAGs *and* cyclic graphs — with duplicate edges, self-loops, phantom
//! endpoints, and mixed `add_edge`/`apply_batch` ingest — every CSR
//! kernel must produce exactly the output of the locking adjacency-map
//! oracle in `prov_db::graph`, at every thread count. A golden set then
//! pins the provql path primitives to identical answers through both
//! executor paths (CSR pushdown vs the `GraphOracle` capability), and a
//! racing-writer test pins snapshot CSR reads under concurrent
//! `apply_batch`/streaming ingest.

use proptest::prelude::*;
use prov_db::{
    Config, CsrGraph, Direction, GraphBatch, GraphOracle, GraphStore, ProvenanceDatabase,
};
use prov_db::{Pushdown, StoreSnapshot};
use prov_model::{Map, TaskMessage, TaskMessageBuilder};
use provql::parse;
use std::sync::Arc;

const RELS: &[&str] = &["prov:wasInformedBy", "prov:wasAssociatedWith", "x:custom"];

/// Thread counts the kernels must be invariant across (1 forces the
/// sequential path; 8 exceeds any CI runner's auto-tuned count, which the
/// thread-matrix CI leg also forces via `PROVDB_THREADS`).
const THREADS: &[usize] = &[1, 8];

#[derive(Debug, Clone)]
struct RandomGraph {
    n: usize,
    /// Upserted node indices (everything else reached by an edge is a
    /// phantom endpoint).
    nodes: Vec<usize>,
    /// `(from, to, rel)` — unconstrained, so cycles, self-loops, and
    /// duplicate edges all occur.
    edges: Vec<(usize, usize, usize)>,
}

fn arb_graph() -> impl Strategy<Value = RandomGraph> {
    (
        2usize..24,
        prop::collection::vec(0usize..24, 1..24),
        prop::collection::vec((0usize..24, 0usize..24, 0..RELS.len()), 0..60),
    )
        .prop_map(|(n, nodes, edges)| RandomGraph {
            n,
            nodes: nodes.into_iter().map(|i| i % n).collect(),
            edges: edges
                .into_iter()
                .map(|(f, t, r)| (f % n, t % n, r))
                .collect(),
        })
}

/// Materialize through both write paths: odd edges via per-edge
/// `add_edge`, even edges batched through one `apply_batch`.
fn build_store(g: &RandomGraph) -> GraphStore {
    let store = GraphStore::new();
    let mut batch = GraphBatch::new();
    for &i in &g.nodes {
        batch.upsert_node(format!("t{i}"), "prov:Activity", Map::new());
    }
    for (k, &(f, t, r)) in g.edges.iter().enumerate() {
        if k % 2 == 1 {
            store.add_edge(format!("t{f}"), format!("t{t}"), RELS[r]);
        } else {
            batch.add_edge(format!("t{f}"), format!("t{t}"), RELS[r]);
        }
    }
    store.apply_batch(batch);
    store
}

fn owned(hits: Vec<(prov_model::Sym, usize)>) -> Vec<(String, usize)> {
    hits.into_iter().map(|(s, d)| (s.to_string(), d)).collect()
}

/// Every consecutive pair of a returned path must be a directed edge of
/// the store (any relation), and the endpoints must be the query's.
fn assert_valid_path(store: &GraphStore, path: &[prov_model::Sym], from: &str, to: &str) {
    assert_eq!(path.first().map(|s| s.as_str()), Some(from));
    assert_eq!(path.last().map(|s| s.as_str()), Some(to));
    for pair in path.windows(2) {
        assert!(
            store
                .neighbors_out(pair[0].as_str(), "")
                .iter()
                .any(|n| n == pair[1].as_str()),
            "path hop {} -> {} is not an edge",
            pair[0],
            pair[1]
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// BFS traversal, k-hop, transitive closure: CSR ≡ adjacency oracle,
    /// byte-for-byte (ids *and* emission order), at 1 and 8 threads.
    #[test]
    fn csr_kernels_match_adjacency_oracle(
        g in arb_graph(),
        start in 0usize..24,
        rel_i in 0usize..4,
        depth in 0usize..6,
    ) {
        let store = build_store(&g);
        let csr = CsrGraph::build(&store, Config::from_env().scan_threads);
        let start = format!("t{}", start % g.n);
        // 3 = any-relation; RELS[..] includes a rel the graph may not use.
        let rel = if rel_i == 3 { "" } else { RELS[rel_i] };
        for &threads in THREADS {
            csr.set_traverse_threads(threads);
            prop_assert_eq!(
                owned(csr.traverse(&start, rel, Direction::Out, depth)),
                store.traverse(&start, rel, depth),
                "traverse(rel={}, depth={}, threads={})", rel, depth, threads
            );
            prop_assert_eq!(
                owned(csr.upstream(&start, depth)),
                store.upstream_lineage(&start, depth),
                "upstream(threads={})", threads
            );
            prop_assert_eq!(
                owned(csr.downstream(&start, depth)),
                store.downstream_impact(&start, depth),
                "downstream(threads={})", threads
            );
            prop_assert_eq!(
                owned(csr.khop(&start, depth)),
                store.khop(&start, depth),
                "khop(threads={})", threads
            );
            // Unbounded transitive closure (cycles must terminate).
            prop_assert_eq!(
                owned(csr.upstream(&start, usize::MAX)),
                store.upstream_lineage(&start, usize::MAX),
                "closure(threads={})", threads
            );
        }
    }

    /// Shortest path: the forward kernel is tie-break-identical to the
    /// oracle; the bidirectional kernel agrees on reachability and length
    /// and always returns a real path.
    #[test]
    fn csr_paths_match_adjacency_oracle(
        g in arb_graph(),
        a in 0usize..24,
        b in 0usize..24,
    ) {
        let store = build_store(&g);
        let csr = CsrGraph::build(&store, Config::from_env().scan_threads);
        let from = format!("t{}", a % g.n);
        let to = format!("t{}", b % g.n);
        let oracle = store.shortest_path(&from, &to);
        let exact = csr.shortest_path(&from, &to);
        prop_assert_eq!(
            exact.map(|p| p.iter().map(|s| s.to_string()).collect::<Vec<_>>()),
            oracle.clone()
        );
        let bidi = csr.shortest_path_bidi(&from, &to);
        match (&oracle, &bidi) {
            (None, None) => {}
            (Some(o), Some(bi)) => {
                prop_assert_eq!(o.len(), bi.len(), "bidi found a different length");
                if from != to {
                    assert_valid_path(&store, bi, &from, &to);
                }
            }
            _ => prop_assert!(false, "reachability disagrees: {:?} vs {:?}", oracle, bidi),
        }
    }

    /// Membership and node metadata: real nodes only (phantom edge
    /// endpoints are traversable but not present).
    #[test]
    fn csr_membership_matches_store(g in arb_graph(), probe in 0usize..24) {
        let store = build_store(&g);
        let csr = CsrGraph::build(&store, Config::from_env().scan_threads);
        let id = format!("t{}", probe % g.n);
        prop_assert_eq!(csr.contains_node(&id), store.node(&id).is_some());
        prop_assert_eq!(
            csr.node_label(&id).map(|l| l.to_string()),
            store.node(&id).map(|n| n.label)
        );
        prop_assert_eq!(csr.node_count(), store.node_count());
        prop_assert_eq!(csr.edge_count(), store.edge_count());
    }
}

/// A frontier large enough to engage the crossbeam fan-out (≥ 4096),
/// with enough shared children that worker pre-filter chunks overlap —
/// the parallel merge's dedup must keep output identical to sequential.
#[test]
fn parallel_frontier_is_thread_count_invariant() {
    let store = GraphStore::new();
    let mut batch = GraphBatch::new();
    batch.upsert_node("root", "prov:Activity", Map::new());
    for i in 0..8192usize {
        batch.add_edge("root", format!("mid{i}"), RELS[0]);
        // Many mids share leaves: duplicates survive distinct chunks'
        // read-only pre-filters and must be dropped by the merge.
        batch.add_edge(format!("mid{i}"), format!("leaf{}", i % 600), RELS[0]);
        batch.add_edge(format!("mid{i}"), format!("leaf{}", (i * 7) % 600), RELS[0]);
    }
    store.apply_batch(batch);
    let csr = CsrGraph::build(&store, Config::from_env().scan_threads);

    csr.set_traverse_threads(1);
    let seq_up = owned(csr.traverse("root", RELS[0], Direction::Out, 3));
    let seq_khop = owned(csr.khop("root", 2));
    csr.set_traverse_threads(8);
    assert_eq!(
        seq_up,
        owned(csr.traverse("root", RELS[0], Direction::Out, 3))
    );
    assert_eq!(seq_khop, owned(csr.khop("root", 2)));
    // And both agree with the oracle.
    assert_eq!(seq_up, store.traverse("root", RELS[0], 3));
    assert_eq!(seq_khop, store.khop("root", 2));
    assert_eq!(seq_up.len(), 8192 + 600);
}

/// A linear chain `t0 ← t1 ← … ← t{n-1}` (each task informed by its
/// predecessor): every graph query has a unique answer, so both executor
/// paths must agree exactly — including on the path primitive.
fn chain_db(n: usize) -> Arc<ProvenanceDatabase> {
    let db = Arc::new(ProvenanceDatabase::new());
    let msgs: Vec<TaskMessage> = (0..n)
        .map(|i| {
            let b = TaskMessageBuilder::new(format!("t{i}"), "wf-g", format!("act{}", i % 3))
                .span(i as f64, i as f64 + 1.0);
            if i > 0 {
                b.depends_on(format!("t{}", i - 1)).build()
            } else {
                b.build()
            }
        })
        .collect();
    db.insert_batch(&msgs);
    db
}

/// Golden-set parity: one provql graph query, both executor paths — the
/// plan with graph pushdown (CSR kernels) and the plan through
/// [`GraphOracle`] (locking adjacency traversals) — plus the snapshot
/// query API (cache + CSR), all answering identically.
#[test]
fn provql_graph_primitives_agree_through_both_executor_paths() {
    let db = chain_db(10);
    let snap = db.snapshot();
    for text in [
        r#"upstream("t5", 3)"#,
        r#"upstream("t9", 16)"#,
        r#"downstream("t0", 16)"#,
        r#"downstream("t4", 2)"#,
        r#"khop("t3", 2)"#,
        r#"khop("t0", 1)"#,
        r#"paths("t9", "t0")"#,
        r#"paths("t2", "t6")"#, // unreachable: edges point effect → cause
        r#"paths("t4", "t4")"#,
        r#"upstream("ghost", 4)"#, // unknown node: empty, not an error
        r#"len(upstream("t9", 16))"#,
        r#"len(paths("t7", "t1"))"#,
        r#"len(upstream("t9", 16)) - len(downstream("t9", 16))"#,
    ] {
        let query = parse(text).unwrap();
        let fast_plan = provql::plan(&query, &*snap);
        let oracle_plan = provql::plan(&query, &GraphOracle(&db));
        let Pushdown::Executed(fast) = prov_db::execute_plan(&snap, &fast_plan) else {
            panic!("{text}: CSR path refused to execute");
        };
        let Pushdown::Executed(oracle) = prov_db::execute_plan(&snap, &oracle_plan) else {
            panic!("{text}: oracle path refused to execute");
        };
        assert_eq!(fast, oracle, "{text}: executor paths disagree");
        // The snapshot query API (plan cache + pinned CSR) agrees too.
        let (snap_out, _) = snap.query(&query);
        let snap_out = snap_out.unwrap_or_else(|e| panic!("{text}: snapshot query failed: {e}"));
        assert_eq!(
            Ok((*snap_out).clone()),
            fast,
            "{text}: snapshot path disagrees"
        );
    }
}

/// Graph queries route through the plan executor, never the oracle frame:
/// answering them must not materialize the snapshot's frame.
#[test]
fn graph_queries_never_build_the_oracle_frame() {
    let db = chain_db(6);
    let snap = db.snapshot();
    for text in [
        r#"upstream("t5", 16)"#,
        r#"paths("t5", "t0")"#,
        r#"khop("t2", 2)"#,
    ] {
        let (out, _) = snap.query(&parse(text).unwrap());
        out.unwrap();
    }
    assert!(
        !snap.oracle_built(),
        "graph primitives must be served from the CSR, not the oracle frame"
    );
}

/// Racing `apply_batch`/streaming writers vs snapshot CSR readers. Each
/// reader pins a snapshot and must see (a) the same CSR on every access
/// (repeatable reads) and (b) the complete dependency chain below the
/// snapshot's generation — writers appending ahead never corrupt or
/// truncate what the snapshot already covers.
#[test]
fn csr_snapshots_under_racing_writers() {
    const N: usize = 600;
    let db = Arc::new(ProvenanceDatabase::new());
    db.insert_batch(std::iter::once(
        &TaskMessageBuilder::new("t0", "wf-r", "seed").build(),
    ));

    std::thread::scope(|s| {
        let writer_db = Arc::clone(&db);
        s.spawn(move || {
            for i in 1..N {
                let msg = TaskMessageBuilder::new(format!("t{i}"), "wf-r", "step")
                    .depends_on(format!("t{}", i - 1))
                    .build();
                // Alternate the eager path and the pending-log path so the
                // CSR build races both materialized and pending ingest.
                if i % 2 == 0 {
                    writer_db.insert_batch(std::iter::once(&msg));
                } else {
                    writer_db.insert_batch_shared(std::iter::once(Arc::new(msg)));
                }
            }
        });
        for _ in 0..3 {
            let reader_db = Arc::clone(&db);
            s.spawn(move || {
                for _ in 0..40 {
                    let snap: Arc<StoreSnapshot> = reader_db.snapshot();
                    let gen = snap.generation() as usize;
                    let csr = Arc::clone(snap.graph_csr());
                    // Repeatable: the snapshot hands out one pinned CSR.
                    assert!(Arc::ptr_eq(&csr, snap.graph_csr()));
                    let last = format!("t{}", gen - 1);
                    let up = csr.upstream(&last, usize::MAX);
                    // The chain below the snapshot generation is complete
                    // and in exact BFS order, no matter how far ahead the
                    // writer has run.
                    assert_eq!(up.len(), gen - 1, "upstream of {last}");
                    for (d, (id, depth)) in up.iter().enumerate() {
                        assert_eq!(*depth, d + 1);
                        assert_eq!(id.as_str(), format!("t{}", gen - 2 - d));
                    }
                }
            });
        }
    });

    // Settled state: CSR ≡ oracle on the final corpus.
    let snap = db.snapshot();
    let csr = snap.graph_csr();
    assert_eq!(
        owned(csr.upstream(&format!("t{}", N - 1), usize::MAX)),
        snap.graph()
            .upstream_lineage(&format!("t{}", N - 1), usize::MAX)
    );
    assert_eq!(csr.node_count(), N);
}
