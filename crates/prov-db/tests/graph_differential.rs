//! Differential property tests for the CSR graph kernels: over random
//! DAGs *and* cyclic graphs — with duplicate edges, self-loops, phantom
//! endpoints, and mixed `add_edge`/`apply_batch` ingest — every CSR
//! kernel must produce exactly the output of the locking adjacency-map
//! oracle in `prov_db::graph`. A golden set then pins the provql path
//! primitives, as `execute_plan` runs them on the CSR, to the oracle's
//! traversals, and a racing-writer test pins snapshot CSR reads under
//! concurrent
//! `apply_batch`/streaming ingest. Extension is held to the same
//! referees: a compaction extended at random points of a random ingest
//! schedule must answer exactly like a fresh build and like the oracle,
//! and a compaction an older snapshot holds must never change.

use dataframe::DataFrame;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use prov_db::{CsrGraph, Direction, GraphBatch, GraphStore, ProvenanceDatabase};
use prov_db::{Pushdown, StoreSnapshot};
use prov_model::{Map, TaskMessage, TaskMessageBuilder, Value};
use provql::{parse, ExecError, GraphQuery, Query, QueryOutput};
use std::sync::Arc;

const RELS: &[&str] = &["prov:wasInformedBy", "prov:wasAssociatedWith", "x:custom"];

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
    fill(&store, g);
    store
}

/// Write `g` into `store` (see [`build_store`]).
fn fill(store: &GraphStore, g: &RandomGraph) {
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
}

fn owned(hits: Vec<(prov_model::Sym, usize)>) -> Vec<(String, usize)> {
    hits.into_iter().map(|(s, d)| (s.to_string(), d)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// BFS traversal, k-hop, transitive closure: CSR ≡ adjacency oracle,
    /// byte-for-byte (ids *and* emission order).
    #[test]
    fn csr_kernels_match_adjacency_oracle(
        g in arb_graph(),
        start in 0usize..24,
        rel_i in 0usize..4,
        depth in 0usize..6,
    ) {
        let store = build_store(&g);
        let csr = CsrGraph::build(&store);
        let start = format!("t{}", start % g.n);
        // 3 = any-relation; RELS[..] includes a rel the graph may not use.
        let rel = if rel_i == 3 { "" } else { RELS[rel_i] };
        prop_assert_eq!(
            owned(csr.traverse(&start, rel, Direction::Out, depth)),
            store.traverse(&start, rel, depth),
            "traverse(rel={}, depth={})", rel, depth
        );
        prop_assert_eq!(
            owned(csr.upstream(&start, depth)),
            store.upstream_lineage(&start, depth),
            "upstream"
        );
        prop_assert_eq!(
            owned(csr.downstream(&start, depth)),
            store.downstream_impact(&start, depth),
            "downstream"
        );
        prop_assert_eq!(owned(csr.khop(&start, depth)), store.khop(&start, depth), "khop");
        // Unbounded transitive closure (cycles must terminate).
        prop_assert_eq!(
            owned(csr.upstream(&start, usize::MAX)),
            store.upstream_lineage(&start, usize::MAX),
            "closure"
        );
    }

    /// Shortest path, node for node: the CSR kernel and provql
    /// `paths(a, b)` as `execute_plan` runs it on a snapshot's CSR both
    /// equal the oracle's path, tie-breaks included.
    #[test]
    fn csr_paths_match_adjacency_oracle(
        g in arb_graph(),
        a in 0usize..24,
        b in 0usize..24,
    ) {
        let db = Arc::new(ProvenanceDatabase::new());
        fill(db.graph(), &g);
        let snap = db.snapshot();
        let store = snap.graph();
        let from = format!("t{}", a % g.n);
        let to = format!("t{}", b % g.n);
        let oracle = store.shortest_path(&from, &to);
        let exact = CsrGraph::build(store).shortest_path(&from, &to);
        prop_assert_eq!(
            exact.map(|p| p.iter().map(|s| s.to_string()).collect::<Vec<_>>()),
            oracle
        );
        let query = parse(&format!("paths({from:?}, {to:?})")).unwrap();
        let Pushdown::Executed(out) = prov_db::execute_plan(&snap, &provql::plan(&query, &*snap))
        else {
            panic!("paths refused to execute");
        };
        prop_assert_eq!(out, oracle_query(store, &query));
    }

    /// Membership and node metadata: real nodes only (phantom edge
    /// endpoints are traversable but not present).
    #[test]
    fn csr_membership_matches_store(g in arb_graph(), probe in 0usize..24) {
        let store = build_store(&g);
        let csr = CsrGraph::build(&store);
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

/// Node ids of the extension schedules: `t0..t{NODES-1}`.
const NODES: usize = 10;
const LABELS: &[&str] = &["prov:Activity", "prov:Agent"];

/// One step of an extension schedule.
#[derive(Debug, Clone)]
enum Step {
    /// `upsert_node(t{node}, LABELS[label], {"v": v})`: a first upsert, a
    /// phantom turning real, or a re-upsert with the same or a new label
    /// and properties.
    Upsert(usize, usize, i64),
    /// `add_edge(t{from}, t{to}, RELS[rel])`: duplicates, self-loops and
    /// phantom endpoints all occur.
    Edge(usize, usize, usize),
    /// One `apply_batch` of upserts and edges.
    Batch(Vec<(usize, usize, i64)>, Vec<(usize, usize, usize)>),
    /// An extension point: the memo extends through `Arc::make_mut`, as
    /// the database's does, so held copies are cloned off, not changed.
    Extend,
    /// Hold the memo's current compaction, as an older snapshot's pin
    /// does.
    Hold,
}

fn arb_schedule() -> impl Strategy<Value = Vec<Step>> {
    let upsert = (0..NODES, 0..LABELS.len(), 0i64..3);
    let edge = (0..NODES, 0..NODES, 0..RELS.len());
    let step = prop_oneof![
        upsert.clone().prop_map(|(n, l, v)| Step::Upsert(n, l, v)),
        edge.clone().prop_map(|(f, t, r)| Step::Edge(f, t, r)),
        (
            prop::collection::vec(upsert, 0..4),
            prop::collection::vec(edge, 0..6)
        )
            .prop_map(|(nodes, edges)| Step::Batch(nodes, edges)),
        Just(Step::Extend),
        Just(Step::Hold),
    ];
    prop::collection::vec(step, 0..40)
}

fn id(i: usize) -> String {
    format!("t{i}")
}

fn props(v: i64) -> Map {
    let mut m = Map::new();
    m.insert("v".into(), prov_model::Value::from(v));
    m
}

/// The probe ids: every schedule id plus one that never occurs.
fn probes() -> Vec<String> {
    (0..NODES).map(id).chain(["ghost".to_string()]).collect()
}

/// Every kernel's answer from every probe id — what a compaction shows
/// its readers. Two compactions of one log must give identical answers.
fn answers(csr: &CsrGraph) -> Vec<String> {
    let ids = probes();
    let mut out = vec![format!(
        "{} nodes, {} edges",
        csr.node_count(),
        csr.edge_count()
    )];
    for a in &ids {
        out.push(format!(
            "{a}: {} {:?} {:?}",
            csr.contains_node(a),
            csr.node_label(a),
            csr.node_props(a)
        ));
        for rel in RELS.iter().copied().chain([""]) {
            for dir in [Direction::Out, Direction::In] {
                for depth in [1, 2, usize::MAX] {
                    out.push(format!("{:?}", csr.traverse(a, rel, dir, depth)));
                }
            }
        }
        out.push(format!("{:?}", csr.upstream(a, usize::MAX)));
        out.push(format!("{:?}", csr.downstream(a, usize::MAX)));
        for k in [1, 3] {
            out.push(format!("{:?}", csr.khop(a, k)));
        }
        for b in &ids {
            out.push(format!("{:?}", csr.shortest_path(a, b)));
        }
    }
    out
}

/// The in-edge BFS reference for any relation: the oracle offers it for
/// `prov:wasInformedBy` only (`downstream_impact`), so this walks
/// `neighbors_in` with the same first-discovery rule.
fn oracle_in(store: &GraphStore, start: &str, rel: &str, depth: usize) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    let mut seen = std::collections::HashSet::from([start.to_string()]);
    let mut queue = std::collections::VecDeque::from([(start.to_string(), 0)]);
    while let Some((cur, d)) = queue.pop_front() {
        if d == depth {
            continue;
        }
        for next in store.neighbors_in(&cur, rel) {
            if seen.insert(next.clone()) {
                out.push((next.clone(), d + 1));
                queue.push_back((next, d + 1));
            }
        }
    }
    out
}

/// Every kernel of `csr` against the adjacency oracle over `store`.
fn check_oracle(csr: &CsrGraph, store: &GraphStore) -> Result<(), TestCaseError> {
    let ids = probes();
    prop_assert_eq!(csr.node_count(), store.node_count());
    prop_assert_eq!(csr.edge_count(), store.edge_count());
    for a in &ids {
        let node = store.node(a);
        prop_assert_eq!(csr.contains_node(a), node.is_some(), "contains {}", a);
        prop_assert_eq!(
            csr.node_label(a).map(|l| l.to_string()),
            node.as_ref().map(|n| n.label.clone()),
            "label {}",
            a
        );
        prop_assert_eq!(
            csr.node_props(a).map(|p| (**p).clone()),
            node.map(|n| (*n.props).clone()),
            "props {}",
            a
        );
        for rel in RELS.iter().copied().chain([""]) {
            for depth in [0, 1, 2, usize::MAX] {
                prop_assert_eq!(
                    owned(csr.traverse(a, rel, Direction::Out, depth)),
                    store.traverse(a, rel, depth),
                    "out {} {} {}",
                    a,
                    rel,
                    depth
                );
                prop_assert_eq!(
                    owned(csr.traverse(a, rel, Direction::In, depth)),
                    oracle_in(store, a, rel, depth),
                    "in {} {} {}",
                    a,
                    rel,
                    depth
                );
            }
        }
        for depth in [1, usize::MAX] {
            prop_assert_eq!(
                owned(csr.upstream(a, depth)),
                store.upstream_lineage(a, depth)
            );
            prop_assert_eq!(
                owned(csr.downstream(a, depth)),
                store.downstream_impact(a, depth)
            );
        }
        for k in [1, 2, usize::MAX] {
            prop_assert_eq!(owned(csr.khop(a, k)), store.khop(a, k), "khop {}", a);
        }
        for b in &ids {
            prop_assert_eq!(
                csr.shortest_path(a, b)
                    .map(|p| p.iter().map(|s| s.to_string()).collect::<Vec<_>>()),
                store.shortest_path(a, b),
                "path {} {}",
                a,
                b
            );
        }
    }
    Ok(())
}

/// Run one schedule (with a final extension point), checking at every
/// extension point that the extended memo answers like the adjacency
/// oracle and exactly like a fresh build, and that every held compaction
/// still answers as it did when it was taken.
fn run_schedule(steps: &[Step]) -> Result<(), TestCaseError> {
    let store = GraphStore::new();
    let mut memo = Arc::new(CsrGraph::build(&store));
    let mut held: Vec<(Arc<CsrGraph>, Vec<String>)> = Vec::new();
    for step in steps.iter().chain([&Step::Extend]) {
        match step {
            Step::Upsert(n, l, v) => store.upsert_node(id(*n), LABELS[*l], props(*v)),
            Step::Edge(f, t, r) => store.add_edge(id(*f), id(*t), RELS[*r]),
            Step::Batch(nodes, edges) => {
                let mut batch = GraphBatch::new();
                for &(n, l, v) in nodes {
                    batch.upsert_node(id(n), LABELS[l], props(v));
                }
                for &(f, t, r) in edges {
                    batch.add_edge(id(f), id(t), RELS[r]);
                }
                store.apply_batch(batch);
            }
            Step::Hold => held.push((Arc::clone(&memo), answers(&memo))),
            Step::Extend => {
                Arc::make_mut(&mut memo).extend(&store);
                check_oracle(&memo, &store)?;
                prop_assert_eq!(answers(&memo), answers(&CsrGraph::build(&store)));
                for (csr, want) in &held {
                    prop_assert_eq!(&answers(csr), want, "a held compaction changed");
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Extension ≡ fresh build ≡ adjacency oracle at every extension
    /// point of a random interleaving of `upsert_node`, `add_edge` and
    /// `apply_batch`, and held compactions never change.
    #[test]
    fn extended_csr_matches_fresh_build_and_oracle(steps in arb_schedule()) {
        run_schedule(&steps)?;
    }
}

/// One fixed schedule that is sure to contain every case the random ones
/// may miss: a phantom endpoint upserted after an extension, a re-upsert
/// with a new label and with new properties, a no-op re-upsert, duplicate
/// edges and self-loops spanning extensions, a relation first seen in a
/// delta, and held compactions across all of it.
#[test]
fn extension_covers_phantoms_reupserts_and_new_relations() {
    use Step::*;
    let steps = vec![
        Upsert(0, 0, 0),
        Edge(0, 1, 0), // t1 is a phantom endpoint
        Edge(0, 0, 0), // self-loop
        Extend,
        Hold,
        Upsert(1, 0, 1), // the phantom becomes real
        Edge(0, 1, 0),   // duplicate of an edge in the old slice
        Edge(1, 2, 2),   // a relation first seen in this delta
        Extend,
        Hold,
        Upsert(0, 1, 0),                                    // new label
        Upsert(1, 0, 2),                                    // new properties
        Upsert(1, 0, 2),                                    // no-op re-upsert
        Batch(vec![(2, 0, 0)], vec![(2, 0, 1), (0, 0, 0)]), // self-loop again
        Extend,
        Extend, // nothing new
    ];
    run_schedule(&steps).unwrap();
}

/// Through the database: a snapshot that pins a compaction keeps it
/// unchanged while newer generations extend the memo (which then clones
/// it), and once no snapshot pins the memo, the next generation extends
/// it in place.
#[test]
fn held_snapshot_keeps_its_compaction_and_unpinned_memo_extends_in_place() {
    let db = chain_db(20);
    let more = |from: usize, to: usize| {
        let msgs: Vec<TaskMessage> = (from..to)
            .map(|i| {
                TaskMessageBuilder::new(format!("t{i}"), "wf-g", "act")
                    .depends_on(format!("t{}", i - 1))
                    .build()
            })
            .collect();
        db.insert_batch(&msgs);
    };
    let old = db.snapshot();
    let old_csr = Arc::clone(old.graph_csr());
    let want = answers(&old_csr);
    more(20, 30);
    let newer = db.snapshot();
    let new_csr = Arc::clone(newer.graph_csr());
    assert!(!Arc::ptr_eq(&old_csr, &new_csr), "a pinned memo is cloned");
    assert_eq!(answers(&old_csr), want, "the pinned compaction changed");
    assert_eq!(old_csr.upstream("t29", usize::MAX).len(), 0);
    assert_eq!(new_csr.upstream("t29", usize::MAX).len(), 29);
    drop((old, old_csr, want));
    let at = Arc::as_ptr(&new_csr);
    drop((newer, new_csr));
    more(30, 40);
    let latest = db.snapshot();
    assert_eq!(
        Arc::as_ptr(latest.graph_csr()),
        at,
        "an unpinned memo is extended in place"
    );
    assert_eq!(
        owned(latest.graph_csr().upstream("t39", usize::MAX)),
        latest.graph().upstream_lineage("t39", usize::MAX)
    );
}

/// A level of 8,192 nodes whose children are shared many times over:
/// each child must be emitted once, at its first discovery, exactly as
/// the oracle orders it.
#[test]
fn wide_frontier_matches_the_oracle() {
    let store = GraphStore::new();
    let mut batch = GraphBatch::new();
    batch.upsert_node("root", "prov:Activity", Map::new());
    for i in 0..8192usize {
        batch.add_edge("root", format!("mid{i}"), RELS[0]);
        batch.add_edge(format!("mid{i}"), format!("leaf{}", i % 600), RELS[0]);
        batch.add_edge(format!("mid{i}"), format!("leaf{}", (i * 7) % 600), RELS[0]);
    }
    store.apply_batch(batch);
    let csr = CsrGraph::build(&store);

    let up = owned(csr.traverse("root", RELS[0], Direction::Out, 3));
    assert_eq!(up, store.traverse("root", RELS[0], 3));
    assert_eq!(owned(csr.khop("root", 2)), store.khop("root", 2));
    assert_eq!(up.len(), 8192 + 600);
}

/// A linear chain `t0 ← t1 ← … ← t{n-1}` (each task informed by its
/// predecessor): every graph query has a unique answer, so the executor
/// and the oracle must agree exactly — including on the path primitive.
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

/// The adjacency oracle's answer to a provql graph query, shaped like
/// the executor's: a traversal as a `[task_id, depth]` frame, a path as
/// a series named `path`, and `len`/arithmetic over those.
fn oracle_query(graph: &GraphStore, query: &Query) -> Result<QueryOutput, ExecError> {
    let hops = |hits: Vec<(String, usize)>| {
        let (ids, depths): (Vec<Value>, Vec<Value>) = hits
            .into_iter()
            .map(|(id, d)| (Value::from(id.as_str()), Value::Int(d as i64)))
            .unzip();
        QueryOutput::Frame(
            DataFrame::from_columns(vec![("task_id", ids), ("depth", depths)]).unwrap(),
        )
    };
    Ok(match query {
        Query::Graph(GraphQuery::Upstream { node, depth }) => {
            hops(graph.upstream_lineage(node, *depth))
        }
        Query::Graph(GraphQuery::Downstream { node, depth }) => {
            hops(graph.downstream_impact(node, *depth))
        }
        Query::Graph(GraphQuery::Khop { node, k }) => hops(graph.khop(node, *k)),
        Query::Graph(GraphQuery::Paths { from, to }) => QueryOutput::Series {
            name: "path".to_string(),
            values: graph
                .shortest_path(from, to)
                .unwrap_or_default()
                .iter()
                .map(|id| Value::from(id.as_str()))
                .collect(),
        },
        Query::Len(inner) => {
            QueryOutput::Scalar(Value::Int(oracle_query(graph, inner)?.len() as i64))
        }
        Query::Binary(a, op, b) => {
            let a = provql::scalar_operand(oracle_query(graph, a)?)?;
            let b = provql::scalar_operand(oracle_query(graph, b)?)?;
            return provql::arith_scalars(a, *op, b);
        }
        other => panic!("not a graph query: {other:?}"),
    })
}

/// Golden-set parity: one provql graph query through `execute_plan` (CSR
/// kernels) and through the locking adjacency traversals — plus the
/// snapshot query API (cache + CSR), all answering identically.
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
        let Pushdown::Executed(fast) = prov_db::execute_plan(&snap, &provql::plan(&query, &*snap))
        else {
            panic!("{text}: CSR path refused to execute");
        };
        let oracle = oracle_query(snap.graph(), &query);
        assert_eq!(fast, oracle, "{text}: executor and oracle disagree");
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
