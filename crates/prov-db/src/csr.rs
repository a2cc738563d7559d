//! CSR-compacted immutable graph snapshot and branch-light traversal
//! kernels.
//!
//! [`GraphStore`] is write-optimized: `String`-keyed adjacency maps
//! behind one `RwLock`, per-node `Vec<GraphEdge>` with owned `String`
//! endpoints. Every traversal hop pays a hash of the full node id
//! plus pointer chases through three allocations per edge. [`CsrGraph`]
//! trades a one-time compaction for cache-dense reads:
//!
//! * node ids interned as [`prov_model::Sym`] and mapped to dense `u32`
//!   indices (`index` is probed with plain `&str` — no allocation);
//! * one forward and one reverse CSR (`offsets[u]..offsets[u+1]` slices of
//!   `targets`), each with a parallel per-edge `u16` relation-code array —
//!   per-node edge order is **insertion order**, exactly the order the
//!   adjacency-map oracle iterates, so kernel emission order matches the
//!   oracle byte-for-byte;
//! * visited state as a `u64` bitset (one bit per node, not a `HashSet`
//!   of owned `String`s).
//!
//! The node universe is `nodes ∪ edge endpoints`: edges may reference ids
//! never upserted as nodes (phantoms), and the legacy traversals happily
//! visit them. Dense indices `[0, n_real)` are real (upserted) nodes;
//! phantoms follow. Traversal kernels cover both; membership probes
//! ([`CsrGraph::contains_node`]) match real nodes only, which is what the
//! agent tool's token probing wants.
//!
//! Large frontiers fan out across crossbeam scoped threads (a store
//! builds with its `Config::scan_threads`, like the columnar scans; `1`
//! forces the sequential path). Parallelism never changes output: worker
//! threads only *pre-filter* their frontier chunk against a read-only snapshot of the
//! visited bitset, and a sequential merge — in chunk order — does all
//! visited-marking and emission, reproducing the sequential BFS order at
//! any thread count.
//!
//! Snapshots pin a CSR lazily per store generation (see
//! [`StoreSnapshot::graph_csr`](crate::StoreSnapshot::graph_csr)); the
//! build itself holds the graph's read lock once.

use crate::graph::GraphStore;
use prov_model::{Sym, Value};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Relation code for "any relation" filters.
const ANY_REL: u16 = u16::MAX;

/// Frontier size below which a BFS level stays sequential (thread startup
/// would dominate the level's work).
const PARALLEL_FRONTIER: usize = 4096;

/// One direction of adjacency in compressed-sparse-row form: node `u`'s
/// edges are `targets[offsets[u] as usize .. offsets[u + 1] as usize]`.
struct Csr {
    offsets: Vec<u32>,
    targets: Vec<u32>,
    /// Per-edge relation codes, aligned with `targets` (code = index into
    /// [`CsrGraph::rels`]).
    rel: Vec<u16>,
}

impl Csr {
    /// Counting-sort build: `degree[u]` per-node edge counts, then a prefix
    /// sum, then a fill pass that must push each node's edges in the same
    /// order the adjacency map stores them.
    fn from_degrees(degrees: &[u32]) -> Csr {
        let mut offsets = Vec::with_capacity(degrees.len() + 1);
        let mut total = 0u32;
        offsets.push(0);
        for &d in degrees {
            total += d;
            offsets.push(total);
        }
        Csr {
            offsets,
            targets: vec![0; total as usize],
            rel: vec![0; total as usize],
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

    #[inline]
    fn test(&self, i: u32) -> bool {
        self.0[(i >> 6) as usize] & (1 << (i & 63)) != 0
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

/// An immutable, CSR-compacted snapshot of a [`GraphStore`] with
/// branch-light traversal kernels. See the module docs for the layout.
pub struct CsrGraph {
    /// Dense index → node id. `[0, n_real)` are upserted nodes; phantom
    /// edge endpoints follow.
    ids: Vec<Sym>,
    /// Dense index → label, aligned with `ids` (phantoms share `""`).
    labels: Vec<Sym>,
    /// Dense index → properties, aligned with `ids` (phantoms share the
    /// empty object).
    props: Vec<Arc<Value>>,
    /// Node id → dense index (probed with `&str`, allocation-free).
    index: HashMap<Sym, u32>,
    /// Boundary between real nodes and phantom endpoints in `ids`.
    n_real: usize,
    /// Relation code → relation name.
    rels: Vec<Sym>,
    /// Forward (out-edge) adjacency.
    out: Csr,
    /// Reverse (in-edge) adjacency.
    inc: Csr,
    /// Worker count for large-frontier fan-out (1 = sequential path);
    /// set at build, re-pinnable for benches.
    threads: AtomicUsize,
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
    /// Compact `store` into CSR form under a single read-lock acquisition;
    /// large frontiers fan out over `threads` workers (clamped to 1..=16).
    pub fn build(store: &GraphStore, threads: usize) -> CsrGraph {
        store.with_inner(|g| {
            // Dense indices: upserted nodes first (membership boundary),
            // then phantom endpoints discovered while walking edges.
            let mut index: HashMap<Sym, u32> = HashMap::with_capacity(g.nodes.len());
            let mut ids: Vec<Sym> = Vec::with_capacity(g.nodes.len());
            let mut labels: Vec<Sym> = Vec::with_capacity(g.nodes.len());
            let mut props: Vec<Arc<Value>> = Vec::with_capacity(g.nodes.len());
            for (id, node) in &g.nodes {
                let sym = Sym::new(id.as_str());
                index.insert(sym.clone(), ids.len() as u32);
                ids.push(sym);
                labels.push(Sym::new(node.label.as_str()));
                props.push(Arc::clone(&node.props));
            }
            let n_real = ids.len();

            let empty_label = Sym::intern("");
            let empty_props: Arc<Value> = Arc::new(Value::object(prov_model::Map::new()));
            let intern_node = |id: &str,
                               index: &mut HashMap<Sym, u32>,
                               ids: &mut Vec<Sym>,
                               labels: &mut Vec<Sym>,
                               props: &mut Vec<Arc<Value>>| {
                if let Some(&i) = index.get(id) {
                    return i;
                }
                let sym = Sym::new(id);
                let i = ids.len() as u32;
                index.insert(sym.clone(), i);
                ids.push(sym);
                labels.push(empty_label.clone());
                props.push(Arc::clone(&empty_props));
                i
            };

            // Relation codes (tiny vocabulary: prov:wasInformedBy etc.).
            let mut rels: Vec<Sym> = Vec::new();
            let mut rel_code: HashMap<Sym, u16> = HashMap::new();
            let code_of = |rel: &str, rels: &mut Vec<Sym>, rel_code: &mut HashMap<Sym, u16>| {
                if let Some(&c) = rel_code.get(rel) {
                    return c;
                }
                let c = rels.len() as u16;
                debug_assert!(c < ANY_REL, "relation vocabulary overflow");
                let sym = Sym::intern(rel);
                rel_code.insert(sym.clone(), c);
                rels.push(sym);
                c
            };

            // First pass: register phantom endpoints and count degrees.
            // (Out- and in-maps hold the same edges, indexed both ways.)
            for (from, es) in &g.out_edges {
                intern_node(from, &mut index, &mut ids, &mut labels, &mut props);
                for e in es {
                    intern_node(&e.to, &mut index, &mut ids, &mut labels, &mut props);
                    code_of(&e.rel, &mut rels, &mut rel_code);
                }
            }
            for to in g.in_edges.keys() {
                intern_node(to, &mut index, &mut ids, &mut labels, &mut props);
            }
            let n = ids.len();
            let mut out_deg = vec![0u32; n];
            let mut in_deg = vec![0u32; n];
            for (from, es) in &g.out_edges {
                out_deg[index[from.as_str()] as usize] = es.len() as u32;
            }
            for (to, es) in &g.in_edges {
                in_deg[index[to.as_str()] as usize] = es.len() as u32;
            }

            // Fill pass, preserving each node's per-vec insertion order so
            // kernel emission order equals the adjacency-map oracle's.
            let mut out = Csr::from_degrees(&out_deg);
            let mut inc = Csr::from_degrees(&in_deg);
            for (from, es) in &g.out_edges {
                let u = index[from.as_str()];
                let base = out.offsets[u as usize] as usize;
                for (k, e) in es.iter().enumerate() {
                    out.targets[base + k] = index[e.to.as_str()];
                    out.rel[base + k] = rel_code[e.rel.as_str()];
                }
            }
            for (to, es) in &g.in_edges {
                let v = index[to.as_str()];
                let base = inc.offsets[v as usize] as usize;
                for (k, e) in es.iter().enumerate() {
                    inc.targets[base + k] = index[e.from.as_str()];
                    inc.rel[base + k] = rel_code[e.rel.as_str()];
                }
            }

            CsrGraph {
                ids,
                labels,
                props,
                index,
                n_real,
                rels,
                out,
                inc,
                threads: AtomicUsize::new(threads.clamp(1, 16)),
            }
        })
    }

    /// Node count (upserted nodes only, phantom endpoints excluded —
    /// matches [`GraphStore::node_count`]).
    pub fn node_count(&self) -> usize {
        self.n_real
    }

    /// Edge count.
    pub fn edge_count(&self) -> usize {
        self.out.targets.len()
    }

    /// True when `id` was upserted as a node (phantom edge endpoints do
    /// not count, matching `GraphStore::node(id).is_some()`).
    pub fn contains_node(&self, id: &str) -> bool {
        self.index
            .get(id)
            .is_some_and(|&i| (i as usize) < self.n_real)
    }

    /// The node's label (`None` for unknown or phantom ids).
    pub fn node_label(&self, id: &str) -> Option<&Sym> {
        let &i = self.index.get(id)?;
        ((i as usize) < self.n_real).then(|| &self.labels[i as usize])
    }

    /// The node's shared property object (`None` for unknown/phantom ids).
    pub fn node_props(&self, id: &str) -> Option<&Arc<Value>> {
        let &i = self.index.get(id)?;
        ((i as usize) < self.n_real).then(|| &self.props[i as usize])
    }

    /// Worker count large-frontier kernels use (1 = sequential path).
    pub fn traverse_threads(&self) -> usize {
        self.threads.load(Ordering::Relaxed)
    }

    /// Pin the kernel worker count (clamped to 1..=16). Kernel output is
    /// thread-count invariant; this only tunes read concurrency.
    pub fn set_traverse_threads(&self, threads: usize) {
        self.threads.store(threads.clamp(1, 16), Ordering::Relaxed);
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
    ///
    /// Above [`PARALLEL_FRONTIER`] (and with >1 worker) the neighbor
    /// *generation* fans out across crossbeam scoped threads, each
    /// pre-filtering its chunk against the read-only visited bitset; the
    /// final marking/emission merge is always sequential in chunk order,
    /// so the result is identical at any thread count (a duplicate that
    /// survives two chunks' pre-filters is dropped by the merge).
    fn expand(
        &self,
        frontier: &[u32],
        visited: &mut Bitset,
        neighbors: impl Fn(u32, &mut dyn FnMut(u32)) + Sync,
    ) -> Vec<u32> {
        let workers = self.traverse_threads().min(frontier.len());
        if workers > 1 && frontier.len() >= PARALLEL_FRONTIER {
            let chunk = frontier.len().div_ceil(workers);
            let visited_ro: &Bitset = visited;
            let candidates: Vec<Vec<u32>> = crossbeam::thread::scope(|scope| {
                let handles: Vec<_> = frontier
                    .chunks(chunk)
                    .map(|part| {
                        let neighbors = &neighbors;
                        scope.spawn(move |_| {
                            let mut cand = Vec::new();
                            for &u in part {
                                neighbors(u, &mut |v| {
                                    if !visited_ro.test(v) {
                                        cand.push(v);
                                    }
                                });
                            }
                            cand
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            })
            .expect("graph traversal worker panicked");
            let mut next = Vec::new();
            for cand in candidates {
                for v in cand {
                    if visited.set(v) {
                        next.push(v);
                    }
                }
            }
            next
        } else {
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
