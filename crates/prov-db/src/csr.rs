//! CSR-compacted graph snapshot, extended in arrival order, and
//! branch-light traversal kernels.
//!
//! [`GraphStore`] is write-optimized: one arrival log of node upserts and
//! edges behind one `RwLock`, with `String`-keyed maps of log positions
//! per node. Every traversal hop pays a hash of the full node id plus
//! pointer chases into the log. [`CsrGraph`] trades a compaction for
//! cache-dense reads:
//!
//! * node ids interned as [`prov_model::Sym`] and mapped to dense `u32`
//!   indices (`index` is probed with plain `&str` — no allocation);
//! * one forward and one reverse CSR (`offsets[u]..offsets[u+1]` slices of
//!   `targets`), each with a parallel per-edge `u16` relation-code array —
//!   per-node edge order is **arrival order**, exactly the order the
//!   adjacency-map oracle iterates, so kernel emission order matches the
//!   oracle byte-for-byte;
//! * visited state as a `u64` bitset (one bit per node, not a `HashSet`
//!   of owned `String`s).
//!
//! **Extension.** A compaction remembers how much of the graph's log it
//! has folded in. [`CsrGraph::extend`] interns only the entries past that
//! cursor and merges their edges into new `offsets`/`targets`/`rel`
//! arrays in one counting pass: per node, the old slice first, then the
//! new edges in arrival order. The result equals a compaction of the
//! whole log, which is all [`CsrGraph::build`] is — an extension of the
//! empty compaction. The database memo extends in place when no snapshot
//! pins the old compaction, and clones it first when one does (see
//! [`StoreSnapshot::graph_csr`](crate::StoreSnapshot::graph_csr)), so a
//! question asked while provenance streams in pays for the graph's delta,
//! not for the whole graph. Dense indices follow first appearance in the
//! log, and nothing is ever removed, so no index moves when the graph
//! grows.
//!
//! The node universe is `nodes ∪ edge endpoints`: edges may reference ids
//! never upserted as nodes (phantoms), and the legacy traversals happily
//! visit them. A per-node mark tells real (upserted) nodes from phantoms;
//! a phantom that is upserted later becomes real, and a re-upsert
//! replaces the node's label and properties. Traversal kernels cover
//! both; membership probes ([`CsrGraph::contains_node`]) match real nodes
//! only, which is what the agent tool's token probing wants.
//!
//! Every kernel runs on the calling thread: a BFS level walks its
//! frontier in order and marks each neighbor in the visited bitset as it
//! is discovered, so emission order is the oracle's by construction.

use crate::graph::{GraphStore, Logged};
use prov_model::{Map, Sym, Value};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// Relation code for "any relation" filters.
const ANY_REL: u16 = u16::MAX;

/// One direction of adjacency in compressed-sparse-row form: node `u`'s
/// edges are `targets[offsets[u] as usize .. offsets[u + 1] as usize]`.
#[derive(Clone)]
struct Csr {
    offsets: Vec<u32>,
    targets: Vec<u32>,
    /// Per-edge relation codes, aligned with `targets` (code = index into
    /// [`CsrGraph::rels`]).
    rel: Vec<u16>,
}

impl Csr {
    fn empty() -> Csr {
        Csr {
            offsets: vec![0],
            targets: Vec::new(),
            rel: Vec::new(),
        }
    }

    fn degree(&self, u: usize) -> u32 {
        match self.offsets.get(u + 1) {
            Some(&hi) => hi - self.offsets[u],
            None => 0, // a node added by this extension
        }
    }

    /// The arrays over `n` nodes with `delta` — `(node, neighbor, rel)`
    /// in arrival order — merged in: one counting pass sizes each node's
    /// new slice, then each node's old slice is copied ahead of its delta
    /// edges, which keep arrival order. That is the adjacency map's
    /// insertion order, so kernel emission order stays the oracle's.
    fn merged(&self, n: usize, delta: &[(u32, u32, u16)]) -> Csr {
        // `next[u]` counts u's delta edges, then becomes where the next
        // one goes.
        let mut next = vec![0u32; n];
        for &(u, _, _) in delta {
            next[u as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        let mut total = 0u32;
        for (u, slot) in next.iter_mut().enumerate() {
            let old = self.degree(u);
            let added = *slot;
            *slot = total + old;
            total += old + added;
            offsets.push(total);
        }
        let mut targets = vec![0u32; total as usize];
        let mut rel = vec![0u16; total as usize];
        for (old, &at) in self.offsets.windows(2).zip(&offsets) {
            let (lo, hi, at) = (old[0] as usize, old[1] as usize, at as usize);
            targets[at..at + hi - lo].copy_from_slice(&self.targets[lo..hi]);
            rel[at..at + hi - lo].copy_from_slice(&self.rel[lo..hi]);
        }
        for &(u, v, r) in delta {
            let at = &mut next[u as usize];
            targets[*at as usize] = v;
            rel[*at as usize] = r;
            *at += 1;
        }
        Csr {
            offsets,
            targets,
            rel,
        }
    }

    #[inline]
    fn neighbors(&self, u: u32) -> (&[u32], &[u16]) {
        let lo = self.offsets[u as usize] as usize;
        let hi = self.offsets[u as usize + 1] as usize;
        (&self.targets[lo..hi], &self.rel[lo..hi])
    }
}

/// Word-per-64-nodes visited set.
struct Bitset(Vec<u64>);

impl Bitset {
    fn new(n: usize) -> Bitset {
        Bitset(vec![0; n.div_ceil(64)])
    }

    /// Set the bit; returns true when it was previously clear.
    #[inline]
    fn set(&mut self, i: u32) -> bool {
        let w = &mut self.0[(i >> 6) as usize];
        let m = 1 << (i & 63);
        let fresh = *w & m == 0;
        *w |= m;
        fresh
    }
}

/// A CSR-compacted snapshot of a [`GraphStore`] with branch-light
/// traversal kernels, extended in arrival order as the store grows. See
/// the module docs for the layout.
#[derive(Clone)]
pub struct CsrGraph {
    /// Dense index → node id, in order of first appearance in the log
    /// (as an upserted node or as an edge endpoint).
    ids: Vec<Sym>,
    /// Dense index → label, aligned with `ids` (phantoms share `""`).
    labels: Vec<Sym>,
    /// Dense index → properties, aligned with `ids` (phantoms share the
    /// empty object).
    props: Vec<Arc<Value>>,
    /// Dense index → whether the id was upserted as a node; `false` marks
    /// a phantom edge endpoint, which a later upsert turns real.
    real: Vec<bool>,
    /// How many `real` marks are set.
    real_count: usize,
    /// Node id → dense index (probed with `&str`, allocation-free).
    index: HashMap<Sym, u32>,
    /// Relation code → relation name.
    rels: Vec<Sym>,
    /// Forward (out-edge) adjacency.
    out: Csr,
    /// Reverse (in-edge) adjacency.
    inc: Csr,
    /// How many graph-log entries are folded in.
    cursor: usize,
}

/// The label and properties every phantom endpoint shares: `""` and the
/// empty object.
fn phantom() -> &'static (Sym, Arc<Value>) {
    static PHANTOM: OnceLock<(Sym, Arc<Value>)> = OnceLock::new();
    PHANTOM.get_or_init(|| (Sym::intern(""), Arc::new(Value::object(Map::new()))))
}

/// Traversal direction over the CSR pair.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Follow out-edges (`from → to`): upstream over `prov:wasInformedBy`.
    Out,
    /// Follow in-edges (`to → from`): downstream impact.
    In,
}

impl CsrGraph {
    /// Compact `store` into CSR form: [`extend`](Self::extend) from the
    /// empty compaction.
    pub fn build(store: &GraphStore) -> CsrGraph {
        let mut csr = CsrGraph::empty();
        csr.extend(store);
        csr
    }

    /// The compaction of the empty graph (log cursor 0).
    pub(crate) fn empty() -> CsrGraph {
        CsrGraph {
            ids: Vec::new(),
            labels: Vec::new(),
            props: Vec::new(),
            real: Vec::new(),
            real_count: 0,
            index: HashMap::new(),
            rels: Vec::new(),
            out: Csr::empty(),
            inc: Csr::empty(),
            cursor: 0,
        }
    }

    /// Fold in the entries `store`'s log gained since this compaction
    /// was last extended, under one read-lock acquisition; `store` must
    /// be the graph it was built from. Only the new entries are interned:
    /// an upsert sets the node's label and properties and marks it real
    /// (a phantom endpoint becomes a node), an edge interns its endpoints
    /// and relation. The new edges are then merged into fresh
    /// `offsets`/`targets`/`rel` arrays behind each node's old slice, so
    /// the result equals a build from empty over the whole log.
    pub fn extend(&mut self, store: &GraphStore) {
        let logged = store.with_log_since(self.cursor, |entries| {
            let mut delta: Vec<(u32, u32, u16)> = Vec::new();
            // Labels are a tiny vocabulary: re-intern only on a change.
            let mut label = phantom().0.clone();
            for entry in entries {
                match entry {
                    Logged::Node(node) => {
                        let i = self.intern(&node.id) as usize;
                        if label.as_str() != node.label {
                            label = Sym::intern(&node.label);
                        }
                        self.labels[i] = label.clone();
                        self.props[i] = Arc::clone(&node.props);
                        if !self.real[i] {
                            self.real[i] = true;
                            self.real_count += 1;
                        }
                    }
                    Logged::Edge(e) => {
                        let from = self.intern(&e.from);
                        let to = self.intern(&e.to);
                        delta.push((from, to, self.code_of(&e.rel)));
                    }
                }
            }
            if !entries.is_empty() {
                let n = self.ids.len();
                self.out = self.out.merged(n, &delta);
                for d in &mut delta {
                    *d = (d.1, d.0, d.2);
                }
                self.inc = self.inc.merged(n, &delta);
            }
            entries.len()
        });
        self.cursor += logged;
    }

    /// Dense index of `id`, appending it as a phantom endpoint when new.
    fn intern(&mut self, id: &str) -> u32 {
        if let Some(&i) = self.index.get(id) {
            return i;
        }
        let i = u32::try_from(self.ids.len()).expect("graph exceeds u32 node indices");
        let sym = Sym::new(id);
        self.index.insert(sym.clone(), i);
        self.ids.push(sym);
        let (label, props) = phantom();
        self.labels.push(label.clone());
        self.props.push(Arc::clone(props));
        self.real.push(false);
        i
    }

    /// Relation code of `rel`, appending it to the (tiny) vocabulary when
    /// new.
    fn code_of(&mut self, rel: &str) -> u16 {
        if let Some(c) = self.rels.iter().position(|r| r.as_str() == rel) {
            return c as u16;
        }
        let c = self.rels.len() as u16;
        assert!(c < ANY_REL, "relation vocabulary overflow");
        self.rels.push(Sym::intern(rel));
        c
    }

    /// Node count (upserted nodes only, phantom endpoints excluded —
    /// matches [`GraphStore::node_count`]).
    pub fn node_count(&self) -> usize {
        self.real_count
    }

    /// Edge count.
    pub fn edge_count(&self) -> usize {
        self.out.targets.len()
    }

    /// True when `id` was upserted as a node (phantom edge endpoints do
    /// not count, matching `GraphStore::node(id).is_some()`).
    pub fn contains_node(&self, id: &str) -> bool {
        self.index.get(id).is_some_and(|&i| self.real[i as usize])
    }

    /// The node's label (`None` for unknown or phantom ids).
    pub fn node_label(&self, id: &str) -> Option<&Sym> {
        let &i = self.index.get(id)?;
        self.real[i as usize].then(|| &self.labels[i as usize])
    }

    /// The node's shared property object (`None` for unknown/phantom ids).
    pub fn node_props(&self, id: &str) -> Option<&Arc<Value>> {
        let &i = self.index.get(id)?;
        self.real[i as usize].then(|| &self.props[i as usize])
    }

    fn rel_code(&self, rel: &str) -> Option<u16> {
        if rel.is_empty() {
            return Some(ANY_REL);
        }
        self.rels
            .iter()
            .position(|r| r.as_str() == rel)
            .map(|c| c as u16)
    }

    /// Directed BFS from `start` over `rel` edges (empty = any relation),
    /// up to `max_depth` hops. Returns `(node id, hop)` pairs, start
    /// excluded, in exactly the order [`GraphStore::traverse`] emits.
    pub fn traverse(
        &self,
        start: &str,
        rel: &str,
        dir: Direction,
        max_depth: usize,
    ) -> Vec<(Sym, usize)> {
        let Some(&s) = self.index.get(start) else {
            return Vec::new();
        };
        let Some(code) = self.rel_code(rel) else {
            return Vec::new(); // relation never ingested: nothing matches
        };
        let csr = match dir {
            Direction::Out => &self.out,
            Direction::In => &self.inc,
        };
        let mut visited = Bitset::new(self.ids.len());
        visited.set(s);
        let mut emitted: Vec<(u32, u32)> = Vec::new();
        let mut frontier = vec![s];
        let mut depth = 0u32;
        while !frontier.is_empty() && (depth as usize) < max_depth {
            depth += 1;
            frontier = self.expand(&frontier, &mut visited, |u, next| {
                let (ts, rs) = csr.neighbors(u);
                for (&v, &r) in ts.iter().zip(rs) {
                    if code == ANY_REL || r == code {
                        next(v);
                    }
                }
            });
            emitted.extend(frontier.iter().map(|&v| (v, depth)));
        }
        emitted
            .into_iter()
            .map(|(v, d)| (self.ids[v as usize].clone(), d as usize))
            .collect()
    }

    /// Upstream transitive closure over `prov:wasInformedBy` (bounded by
    /// `max_depth`) — matches [`GraphStore::upstream_lineage`].
    pub fn upstream(&self, task: &str, max_depth: usize) -> Vec<(Sym, usize)> {
        self.traverse(task, "prov:wasInformedBy", Direction::Out, max_depth)
    }

    /// Downstream impact over `prov:wasInformedBy` — matches
    /// [`GraphStore::downstream_impact`].
    pub fn downstream(&self, task: &str, max_depth: usize) -> Vec<(Sym, usize)> {
        self.traverse(task, "prov:wasInformedBy", Direction::In, max_depth)
    }

    /// The k-hop neighborhood of `start`: any relation, edges treated as
    /// undirected, out-neighbors before in-neighbors per visited node,
    /// start excluded — matches [`GraphStore::khop`].
    pub fn khop(&self, start: &str, k: usize) -> Vec<(Sym, usize)> {
        let Some(&s) = self.index.get(start) else {
            return Vec::new();
        };
        let mut visited = Bitset::new(self.ids.len());
        visited.set(s);
        let mut emitted: Vec<(u32, u32)> = Vec::new();
        let mut frontier = vec![s];
        let mut depth = 0u32;
        while !frontier.is_empty() && (depth as usize) < k {
            depth += 1;
            frontier = self.expand(&frontier, &mut visited, |u, next| {
                for &v in self.out.neighbors(u).0 {
                    next(v);
                }
                for &v in self.inc.neighbors(u).0 {
                    next(v);
                }
            });
            emitted.extend(frontier.iter().map(|&v| (v, depth)));
        }
        emitted
            .into_iter()
            .map(|(v, d)| (self.ids[v as usize].clone(), d as usize))
            .collect()
    }

    /// Expand one BFS level: feed every neighbor of every frontier node —
    /// in frontier order, per-node edge order — through the visited set,
    /// returning the deduplicated next frontier in first-discovery order.
    fn expand(
        &self,
        frontier: &[u32],
        visited: &mut Bitset,
        neighbors: impl Fn(u32, &mut dyn FnMut(u32)),
    ) -> Vec<u32> {
        let mut next = Vec::new();
        for &u in frontier {
            neighbors(u, &mut |v| {
                if visited.set(v) {
                    next.push(v);
                }
            });
        }
        next
    }

    /// Shortest directed path over any relation, endpoints included —
    /// forward BFS with dense parent links. Discovery order is the
    /// oracle's queue order over the same per-node edge order, so ties
    /// break **identically** to [`GraphStore::shortest_path`].
    pub fn shortest_path(&self, from: &str, to: &str) -> Option<Vec<Sym>> {
        if from == to {
            return Some(vec![Sym::new(from)]);
        }
        let &s = self.index.get(from)?;
        let &t = self.index.get(to)?;
        let mut parent = vec![u32::MAX; self.ids.len()];
        let mut visited = Bitset::new(self.ids.len());
        visited.set(s);
        let mut queue: std::collections::VecDeque<u32> = std::collections::VecDeque::new();
        queue.push_back(s);
        while let Some(u) = queue.pop_front() {
            for &v in self.out.neighbors(u).0 {
                if visited.set(v) {
                    parent[v as usize] = u;
                    if v == t {
                        return Some(self.unwind_path(&parent, s, t));
                    }
                    queue.push_back(v);
                }
            }
        }
        None
    }

    /// Bidirectional shortest path over any relation: alternately expands
    /// the smaller of the forward (out-edge) and backward (in-edge)
    /// frontiers, tracking the best meet `μ = min(d_f(v) + d_b(v))`, and
    /// stops once `μ ≤ L_f + L_b` — at that point no undiscovered path can
    /// be shorter (a path of length `d ≤ L_f + L_b` must contain a node
    /// discovered by both sides, which would already have lowered `μ`).
    /// Explores ~√ the nodes of the unidirectional search on broad DAGs.
    ///
    /// Returns a path of *minimal length*; tie-breaking may differ from
    /// [`CsrGraph::shortest_path`], which is why the differential suite
    /// checks length + edge validity for this kernel rather than exact
    /// node-sequence equality.
    pub fn shortest_path_bidi(&self, from: &str, to: &str) -> Option<Vec<Sym>> {
        if from == to {
            return Some(vec![Sym::new(from)]);
        }
        let &s = self.index.get(from)?;
        let &t = self.index.get(to)?;
        let n = self.ids.len();
        let mut fwd = SideState::new(n, s);
        let mut bwd = SideState::new(n, t);
        // Best meet so far: (node discovered by both sides, total length).
        let mut best: Option<(u32, u32)> = None;
        loop {
            if let Some((_, total)) = best {
                if total <= fwd.level + bwd.level {
                    break;
                }
            }
            // Expand the smaller non-empty frontier; both empty = done.
            let fe = fwd.frontier.is_empty();
            let be = bwd.frontier.is_empty();
            let (side, other, csr) = match (fe, be) {
                (true, true) => break,
                (false, true) => (&mut fwd, &mut bwd, &self.out),
                (true, false) => (&mut bwd, &mut fwd, &self.inc),
                (false, false) => {
                    if fwd.frontier.len() <= bwd.frontier.len() {
                        (&mut fwd, &mut bwd, &self.out)
                    } else {
                        (&mut bwd, &mut fwd, &self.inc)
                    }
                }
            };
            side.level += 1;
            let mut next = Vec::new();
            for i in 0..side.frontier.len() {
                let u = side.frontier[i];
                for &v in csr.neighbors(u).0 {
                    if side.dist[v as usize] != u32::MAX {
                        continue;
                    }
                    side.dist[v as usize] = side.level;
                    side.parent[v as usize] = u;
                    next.push(v);
                    let od = other.dist[v as usize];
                    if od != u32::MAX {
                        let total = side.level + od;
                        if best.is_none_or(|(_, b)| total < b) {
                            best = Some((v, total));
                        }
                    }
                }
            }
            side.frontier = next;
        }
        let (meet, _) = best?;
        // Stitch: forward chain s → meet, then backward chain meet → t.
        let mut path = self.unwind_path(&fwd.parent, s, meet);
        let mut at = meet;
        while at != t {
            at = bwd.parent[at as usize];
            path.push(self.ids[at as usize].clone());
        }
        Some(path)
    }

    fn unwind_path(&self, parent: &[u32], s: u32, t: u32) -> Vec<Sym> {
        let mut idxs = vec![t];
        let mut at = t;
        while at != s {
            at = parent[at as usize];
            idxs.push(at);
        }
        idxs.reverse();
        idxs.into_iter()
            .map(|i| self.ids[i as usize].clone())
            .collect()
    }
}

/// One direction's search state in [`CsrGraph::shortest_path_bidi`]:
/// `dist[start] = 0`, `u32::MAX` = unreached.
struct SideState {
    dist: Vec<u32>,
    parent: Vec<u32>,
    frontier: Vec<u32>,
    level: u32,
}

impl SideState {
    fn new(n: usize, start: u32) -> SideState {
        let mut dist = vec![u32::MAX; n];
        dist[start as usize] = 0;
        SideState {
            dist,
            parent: vec![u32::MAX; n],
            frontier: vec![start],
            level: 0,
        }
    }
}
