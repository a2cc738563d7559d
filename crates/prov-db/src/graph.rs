//! Property graph — the Neo4j-shaped backend ("graph traversal queries",
//! §2.3). Holds PROV nodes/edges and answers lineage and path queries the
//! DataFrame engine cannot express (§5.4 limitations discussion).

use parking_lot::RwLock;
use prov_model::{Map, Value};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

/// A node in the property graph.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphNode {
    /// Unique id.
    pub id: String,
    /// Label, e.g. `prov:Activity`.
    pub label: String,
    /// Arbitrary properties as a shared object value: the ingest path hands
    /// the graph the *same* `Arc` the document store holds, so node
    /// properties cost no per-node map construction.
    pub props: Arc<Value>,
}

impl GraphNode {
    /// Property lookup (`None` for absent keys or non-object props).
    pub fn prop(&self, key: &str) -> Option<&Value> {
        self.props.get(key)
    }
}

/// A directed, typed edge.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphEdge {
    /// Source node id.
    pub from: String,
    /// Target node id.
    pub to: String,
    /// Relation type, e.g. `prov:wasInformedBy`.
    pub rel: String,
}

/// One arrival in the graph's log: a node upsert or an edge.
pub(crate) enum Logged {
    Node(GraphNode),
    Edge(GraphEdge),
}

/// The graph's state: every node upsert and edge in one log, in arrival
/// order, with the lookup maps holding log positions into it. Each edge
/// is stored once; the adjacency maps list its position under both
/// endpoints. A reader that remembers the log length it has folded in
/// (the CSR compaction, [`crate::csr`]) picks up exactly the entries
/// that arrived since.
#[derive(Default)]
struct Inner {
    log: Vec<Logged>,
    /// Node id → log position of its latest upsert.
    nodes: HashMap<String, u32>,
    /// Node id → log positions of its out-edges, in arrival order.
    out_edges: HashMap<String, Vec<u32>>,
    /// Node id → log positions of its in-edges, in arrival order.
    in_edges: HashMap<String, Vec<u32>>,
    edge_count: usize,
}

impl Inner {
    fn node_at(&self, at: u32) -> &GraphNode {
        match &self.log[at as usize] {
            Logged::Node(n) => n,
            Logged::Edge(_) => unreachable!("node map points at an edge"),
        }
    }

    fn node(&self, id: &str) -> Option<&GraphNode> {
        self.nodes.get(id).map(|&at| self.node_at(at))
    }

    /// Every node's latest upsert (map order).
    fn nodes(&self) -> impl Iterator<Item = &GraphNode> {
        self.nodes.values().map(|&at| self.node_at(at))
    }

    /// The edges at the log positions `adj` lists for `id`, in arrival
    /// order.
    fn edges<'g>(
        &'g self,
        adj: &'g HashMap<String, Vec<u32>>,
        id: &str,
    ) -> impl Iterator<Item = &'g GraphEdge> {
        adj.get(id)
            .into_iter()
            .flatten()
            .map(|&at| match &self.log[at as usize] {
                Logged::Edge(e) => e,
                Logged::Node(_) => unreachable!("adjacency points at a node"),
            })
    }

    fn out(&self, id: &str) -> impl Iterator<Item = &GraphEdge> {
        self.edges(&self.out_edges, id)
    }

    fn inc(&self, id: &str) -> impl Iterator<Item = &GraphEdge> {
        self.edges(&self.in_edges, id)
    }

    fn position(&self) -> u32 {
        u32::try_from(self.log.len()).expect("graph log exceeds u32 positions")
    }

    /// Insert or replace a node. An upsert that changes nothing (same
    /// label, same properties) is not logged: the agent node is
    /// re-upserted with every message that names it.
    fn upsert(&mut self, node: GraphNode) {
        let at = self.position();
        match self.nodes.get_mut(node.id.as_str()) {
            Some(slot) => {
                if let Logged::Node(old) = &self.log[*slot as usize] {
                    if old.label == node.label
                        && (Arc::ptr_eq(&old.props, &node.props) || old.props == node.props)
                    {
                        return;
                    }
                }
                *slot = at;
            }
            None => {
                self.nodes.insert(node.id.clone(), at);
            }
        }
        self.log.push(Logged::Node(node));
    }

    fn add_edge(&mut self, e: GraphEdge) {
        let at = self.position();
        push_position(&mut self.out_edges, &e.from, at);
        push_position(&mut self.in_edges, &e.to, at);
        self.log.push(Logged::Edge(e));
        self.edge_count += 1;
    }
}

/// Append `at` to `id`'s position list, allocating the key only for a
/// node the map has not seen.
fn push_position(adj: &mut HashMap<String, Vec<u32>>, id: &str, at: u32) {
    match adj.get_mut(id) {
        Some(list) => list.push(at),
        None => {
            adj.insert(id.to_string(), vec![at]);
        }
    }
}

/// A batch of node upserts and edge inserts applied under one lock
/// acquisition (see [`GraphStore::apply_batch`]). Build it lock-free on the
/// producer side, then apply in one shot.
#[derive(Debug, Default, PartialEq)]
pub struct GraphBatch {
    nodes: Vec<GraphNode>,
    edges: Vec<GraphEdge>,
}

impl GraphBatch {
    /// Empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queue a node insert-or-replace.
    pub fn upsert_node(&mut self, id: impl Into<String>, label: impl Into<String>, props: Map) {
        self.upsert_node_shared(id, label, Arc::new(Value::object(props)));
    }

    /// Queue a node insert-or-replace with an already-shared property
    /// object (the zero-copy ingest path: pass the document itself).
    pub fn upsert_node_shared(
        &mut self,
        id: impl Into<String>,
        label: impl Into<String>,
        props: Arc<Value>,
    ) {
        self.nodes.push(GraphNode {
            id: id.into(),
            label: label.into(),
            props,
        });
    }

    /// Queue a directed edge.
    pub fn add_edge(
        &mut self,
        from: impl Into<String>,
        to: impl Into<String>,
        rel: impl Into<String>,
    ) {
        self.edges.push(GraphEdge {
            from: from.into(),
            to: to.into(),
            rel: rel.into(),
        });
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty() && self.edges.is_empty()
    }

    /// Queued node + edge count.
    pub fn len(&self) -> usize {
        self.nodes.len() + self.edges.len()
    }
}

/// Thread-safe property graph with traversal queries.
#[derive(Default)]
pub struct GraphStore {
    inner: RwLock<Inner>,
}

impl GraphStore {
    /// Empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert or replace a node.
    pub fn upsert_node(&self, id: impl Into<String>, label: impl Into<String>, props: Map) {
        let node = GraphNode {
            id: id.into(),
            label: label.into(),
            props: Arc::new(Value::object(props)),
        };
        self.inner.write().upsert(node);
    }

    /// Add a directed edge.
    pub fn add_edge(&self, from: impl Into<String>, to: impl Into<String>, rel: impl Into<String>) {
        self.inner.write().add_edge(GraphEdge {
            from: from.into(),
            to: to.into(),
            rel: rel.into(),
        });
    }

    /// Apply a pre-built batch of upserts and edges under a **single**
    /// write-lock acquisition: the nodes first, then the edges, each in
    /// queued order. A keeper flushing a 64-message batch locks the graph
    /// once instead of ~192 times.
    pub fn apply_batch(&self, batch: GraphBatch) {
        if batch.is_empty() {
            return;
        }
        let mut g = self.inner.write();
        g.log.reserve(batch.len());
        for node in batch.nodes {
            g.upsert(node);
        }
        for e in batch.edges {
            g.add_edge(e);
        }
    }

    /// Node count.
    pub fn node_count(&self) -> usize {
        self.inner.read().nodes.len()
    }

    /// Edge count.
    pub fn edge_count(&self) -> usize {
        self.inner.read().edge_count
    }

    /// Fetch a node.
    pub fn node(&self, id: &str) -> Option<GraphNode> {
        self.inner.read().node(id).cloned()
    }

    /// Outgoing neighbors via a relation (empty `rel` = any).
    pub fn neighbors_out(&self, id: &str, rel: &str) -> Vec<String> {
        let g = self.inner.read();
        g.out(id)
            .filter(|e| rel.is_empty() || e.rel == rel)
            .map(|e| e.to.clone())
            .collect()
    }

    /// Incoming neighbors via a relation (empty `rel` = any).
    pub fn neighbors_in(&self, id: &str, rel: &str) -> Vec<String> {
        let g = self.inner.read();
        g.inc(id)
            .filter(|e| rel.is_empty() || e.rel == rel)
            .map(|e| e.from.clone())
            .collect()
    }

    /// BFS over outgoing `rel` edges from `start`, up to `max_depth` hops.
    /// Returns reached node ids with their hop distance (start excluded).
    ///
    /// Holds the read lock once for the whole walk and works on `&str`
    /// borrows of the stored edges; the only `String` allocations are the
    /// final emitted ids. This method is the differential oracle the CSR
    /// kernels are tested against.
    pub fn traverse(&self, start: &str, rel: &str, max_depth: usize) -> Vec<(String, usize)> {
        let g = self.inner.read();
        Self::bfs_locked(
            |id| g.out(id).map(|e| (&e.rel, &e.to)),
            start,
            rel,
            max_depth,
        )
    }

    /// Multi-hop causal chain: all upstream activities that (transitively)
    /// informed `task`, following `prov:wasInformedBy`.
    pub fn upstream_lineage(&self, task: &str, max_depth: usize) -> Vec<(String, usize)> {
        self.traverse(task, "prov:wasInformedBy", max_depth)
    }

    /// Downstream impact: activities informed by `task`.
    pub fn downstream_impact(&self, task: &str, max_depth: usize) -> Vec<(String, usize)> {
        let g = self.inner.read();
        Self::bfs_locked(
            |id| g.inc(id).map(|e| (&e.rel, &e.from)),
            task,
            "prov:wasInformedBy",
            max_depth,
        )
    }

    /// One-guard BFS over one direction of adjacency (`rel` empty = any
    /// relation), shared by the directed traversals above: `adj` yields a
    /// node's `(relation, neighbor)` pairs in edge arrival order.
    fn bfs_locked<'g, I>(
        adj: impl Fn(&str) -> I,
        start: &str,
        rel: &str,
        max_depth: usize,
    ) -> Vec<(String, usize)>
    where
        I: Iterator<Item = (&'g String, &'g String)>,
    {
        let mut out: Vec<(&str, usize)> = Vec::new();
        let mut seen: HashSet<&str> = HashSet::from([start]);
        let mut queue: VecDeque<(&str, usize)> = VecDeque::from([(start, 0)]);
        while let Some((cur, depth)) = queue.pop_front() {
            if depth == max_depth {
                continue;
            }
            for (erel, next) in adj(cur) {
                if (rel.is_empty() || erel == rel) && seen.insert(next) {
                    out.push((next, depth + 1));
                    queue.push_back((next, depth + 1));
                }
            }
        }
        out.into_iter().map(|(id, d)| (id.to_string(), d)).collect()
    }

    /// The k-hop neighborhood of `start` over any relation, treating edges
    /// as undirected: BFS emitting `(id, hop)` with out-neighbors before
    /// in-neighbors per visited node, start excluded. This is the
    /// adjacency-map reference the CSR `khop` kernel is tested against.
    pub fn khop(&self, start: &str, k: usize) -> Vec<(String, usize)> {
        let g = self.inner.read();
        let mut out: Vec<(&str, usize)> = Vec::new();
        let mut seen: HashSet<&str> = HashSet::from([start]);
        let mut queue: VecDeque<(&str, usize)> = VecDeque::from([(start, 0)]);
        while let Some((cur, depth)) = queue.pop_front() {
            if depth == k {
                continue;
            }
            let outs = g.out(cur).map(|e| &e.to);
            let ins = g.inc(cur).map(|e| &e.from);
            for next in outs.chain(ins) {
                if seen.insert(next) {
                    out.push((next, depth + 1));
                    queue.push_back((next, depth + 1));
                }
            }
        }
        out.into_iter().map(|(id, d)| (id.to_string(), d)).collect()
    }

    /// Shortest directed path between two nodes over any relation.
    ///
    /// Single-guard forward BFS with `&str` parent links; ties break by
    /// global BFS discovery order (edge insertion order per node), which
    /// the CSR forward kernel reproduces exactly.
    pub fn shortest_path(&self, from: &str, to: &str) -> Option<Vec<String>> {
        if from == to {
            return Some(vec![from.to_string()]);
        }
        let g = self.inner.read();
        let mut prev: HashMap<&str, &str> = HashMap::new();
        let mut queue: VecDeque<&str> = VecDeque::from([from]);
        let mut seen: HashSet<&str> = HashSet::from([from]);
        while let Some(cur) = queue.pop_front() {
            for e in g.out(cur) {
                let next = e.to.as_str();
                if !seen.insert(next) {
                    continue;
                }
                prev.insert(next, cur);
                if next == to {
                    let mut path = vec![next];
                    let mut at = next;
                    while let Some(p) = prev.get(at) {
                        path.push(p);
                        at = p;
                    }
                    path.reverse();
                    return Some(path.into_iter().map(str::to_string).collect());
                }
                queue.push_back(next);
            }
        }
        None
    }

    /// The log entries from position `from` on, under one read guard —
    /// the CSR compaction extends itself from here ([`crate::csr`]).
    pub(crate) fn with_log_since<R>(&self, from: usize, f: impl FnOnce(&[Logged]) -> R) -> R {
        f(&self.inner.read().log[from..])
    }

    /// Nodes with a given label.
    pub fn nodes_with_label(&self, label: &str) -> Vec<GraphNode> {
        let g = self.inner.read();
        g.nodes().filter(|n| n.label == label).cloned().collect()
    }

    /// Nodes whose property `key` equals `value`.
    pub fn nodes_with_prop(&self, key: &str, value: &Value) -> Vec<GraphNode> {
        let g = self.inner.read();
        g.nodes()
            .filter(|n| n.props.get(key) == Some(value))
            .cloned()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// a → b → c → d chain plus a side branch b → e (wasInformedBy points
    /// from consumer to producer: d informs nothing; d wasInformedBy c...).
    fn chain() -> GraphStore {
        let g = GraphStore::new();
        for id in ["a", "b", "c", "d", "e"] {
            g.upsert_node(id, "prov:Activity", Map::new());
        }
        g.add_edge("b", "a", "prov:wasInformedBy");
        g.add_edge("c", "b", "prov:wasInformedBy");
        g.add_edge("d", "c", "prov:wasInformedBy");
        g.add_edge("e", "b", "prov:wasInformedBy");
        g
    }

    #[test]
    fn counts() {
        let g = chain();
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 4);
    }

    #[test]
    fn upstream_lineage_with_depth() {
        let g = chain();
        let up = g.upstream_lineage("d", 10);
        let ids: Vec<&str> = up.iter().map(|(id, _)| id.as_str()).collect();
        assert_eq!(ids, vec!["c", "b", "a"]);
        assert_eq!(up[2].1, 3); // a is 3 hops up
                                // Depth-limited traversal stops early.
        assert_eq!(g.upstream_lineage("d", 1).len(), 1);
    }

    #[test]
    fn downstream_impact() {
        let g = chain();
        let down = g.downstream_impact("b", 10);
        let ids: HashSet<&str> = down.iter().map(|(id, _)| id.as_str()).collect();
        assert_eq!(ids, HashSet::from(["c", "d", "e"]));
    }

    #[test]
    fn shortest_path_found_and_missing() {
        let g = chain();
        assert_eq!(g.shortest_path("d", "a").unwrap(), vec!["d", "c", "b", "a"]);
        assert!(g.shortest_path("a", "d").is_none()); // edges are directed
        assert_eq!(g.shortest_path("a", "a").unwrap(), vec!["a"]);
    }

    #[test]
    fn label_and_prop_queries() {
        let g = chain();
        let mut props = Map::new();
        props.insert("hostname".into(), Value::from("n7"));
        g.upsert_node("agent-1", "prov:Agent", props);
        assert_eq!(g.nodes_with_label("prov:Agent").len(), 1);
        assert_eq!(
            g.nodes_with_prop("hostname", &Value::from("n7"))[0].id,
            "agent-1"
        );
    }

    #[test]
    fn batch_apply_matches_incremental() {
        let g = chain();
        let batched = GraphStore::new();
        let mut batch = GraphBatch::new();
        for id in ["a", "b", "c", "d", "e"] {
            batch.upsert_node(id, "prov:Activity", Map::new());
        }
        batch.add_edge("b", "a", "prov:wasInformedBy");
        batch.add_edge("c", "b", "prov:wasInformedBy");
        batch.add_edge("d", "c", "prov:wasInformedBy");
        batch.add_edge("e", "b", "prov:wasInformedBy");
        assert_eq!(batch.len(), 9);
        batched.apply_batch(batch);
        assert_eq!(batched.node_count(), g.node_count());
        assert_eq!(batched.edge_count(), g.edge_count());
        assert_eq!(
            batched.upstream_lineage("d", 10),
            g.upstream_lineage("d", 10)
        );
    }

    #[test]
    fn cycles_terminate() {
        let g = GraphStore::new();
        g.upsert_node("x", "prov:Activity", Map::new());
        g.upsert_node("y", "prov:Activity", Map::new());
        g.add_edge("x", "y", "prov:wasInformedBy");
        g.add_edge("y", "x", "prov:wasInformedBy");
        // Must not loop forever.
        assert_eq!(g.upstream_lineage("x", 100).len(), 1);
    }
}
