//! Generation-pinned immutable read views.
//!
//! [`StoreSnapshot`] is the query-side read API: every query-shaped
//! caller (the agent tool layer, the serve front-end, tests) reads
//! through a snapshot instead of the raw flushing accessors on
//! [`ProvenanceDatabase`], which stay for ingest/admin. That makes
//! "reads don't block writers" a type-level property — a snapshot method
//! never takes the flusher lock and never mutates a view, so a query
//! storm can run entirely in parallel with ingest bursts.
//!
//! A snapshot pins `(generation, per-shard row high-water mark)` at
//! creation ([`ProvenanceDatabase::snapshot`]). The document shards are
//! append-only, so the rows below the mark are immutable, and every scan
//! kernel in [`crate::document`] takes the mark as its row bound and
//! honours it inside its loops: a snapshot answers any query *as of* its
//! generation, no matter how much ingest lands afterwards, and never
//! scans past what it can see. A snapshot is also the only way a provql
//! plan executes ([`exec::execute_plan`]), and its
//! [`oracle_frame`](StoreSnapshot::oracle_frame) is the one
//! full-materialize oracle — the fallback in production and the referee
//! in the differential tests. The oracle frame is extended from the
//! database's newest built frame rather than rebuilt per generation:
//! when both per-shard bounds are id prefixes (the visible ids are
//! exactly `[0, len)`) and the snapshot's dominates the memo's, only the
//! delta rows are decoded and appended, in place unless an older
//! snapshot still shares the frame, which is then cloned first. Query
//! execution routes through the plan-keyed result cache
//! ([`crate::cache`]) keyed on the pinned generation.

use crate::csr::CsrGraph;
use crate::document::DocumentStore;
use crate::graph::GraphStore;
use crate::kv::KvStore;
use crate::query::{DocQuery, Op};
use crate::store::ProvenanceDatabase;
use crate::{cache::CacheOutcome, exec};
use dataframe::DataFrame;
use parking_lot::Mutex;
use prov_model::TaskMessage;
use provql::plan::PushdownCapability;
use provql::{ExecError, Query, QueryOutput};
use std::sync::{Arc, OnceLock};

/// An immutable view of one database generation.
///
/// Cloneable via `Arc`; holding one costs a refcount on the database plus
/// one `usize` per shard. The oracle frame — the full materialization of
/// the visible corpus — is built lazily on first need, by extending the
/// database's newest frame where it can, and shared by every caller of
/// the same snapshot.
pub struct StoreSnapshot {
    db: Arc<ProvenanceDatabase>,
    generation: u64,
    /// Per-shard visible row counts ([`DocumentStore::shard_rows`] at
    /// creation): document id `slot * nshards + s` is visible iff
    /// `slot < hwm[s]`.
    hwm: Vec<usize>,
    oracle: OnceLock<Arc<DataFrame>>,
    /// The CSR graph compaction this snapshot's graph reads run against
    /// (lazy, usually shared with sibling snapshots via the store memo).
    csr: OnceLock<Arc<CsrGraph>>,
}

impl StoreSnapshot {
    pub(crate) fn new(db: Arc<ProvenanceDatabase>, generation: u64, hwm: Vec<usize>) -> Self {
        Self {
            db,
            generation,
            hwm,
            oracle: OnceLock::new(),
            csr: OnceLock::new(),
        }
    }

    /// The pinned store generation.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The database this snapshot views.
    pub fn database(&self) -> &Arc<ProvenanceDatabase> {
        &self.db
    }

    /// The per-shard row bound (internal: handed to the scan kernels).
    pub(crate) fn bound(&self) -> &[usize] {
        &self.hwm
    }

    /// The document store, for bounded reads (internal; public callers go
    /// through [`find`], [`count`], or [`query`]).
    ///
    /// [`find`]: StoreSnapshot::find
    /// [`count`]: StoreSnapshot::count
    /// [`query`]: StoreSnapshot::query
    pub(crate) fn documents(&self) -> &DocumentStore {
        self.db.documents_unflushed()
    }

    /// Visible documents (the snapshot's corpus size).
    pub fn len(&self) -> usize {
        self.hwm.iter().sum()
    }

    /// Whether the snapshot sees no documents.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Filter/sort/limit query over the visible documents.
    pub fn find(&self, query: &DocQuery) -> Vec<Arc<prov_model::Value>> {
        self.documents().find_bounded(query, &self.hwm)
    }

    /// Count visible matching documents.
    pub fn count(&self, query: &DocQuery) -> usize {
        self.documents().count_bounded(query, &self.hwm)
    }

    /// Point lookup by task id, served from the visible documents (the
    /// KV view is not used here: a newer version of the task could have
    /// landed after the snapshot was taken).
    pub fn get_task(&self, task_id: &str) -> Option<TaskMessage> {
        let mut q = DocQuery::new().filter("task_id", Op::Eq, task_id);
        q.limit = Some(1);
        self.find(&q)
            .first()
            .and_then(|d| TaskMessage::from_value(d))
    }

    /// The graph backend as materialized at snapshot creation.
    ///
    /// The graph store has no row high-water mark, so this is a *live*
    /// view that is guaranteed to contain at least everything accepted up
    /// to the snapshot's generation and may contain newer nodes/edges.
    /// Unlike the flushing [`ProvenanceDatabase::graph`] accessor it
    /// never materializes, so it cannot block on ingest.
    pub fn graph(&self) -> &GraphStore {
        self.db.graph_unflushed()
    }

    /// The CSR-compacted graph this snapshot's traversals run against
    /// (see [`crate::csr`]). Resolved lazily through the store's memo,
    /// which sibling snapshots of one generation share, and **pinned**:
    /// every call on this snapshot returns the same compaction, so graph
    /// reads are repeatable even while ingest keeps mutating the live
    /// adjacency maps. Like [`graph`](StoreSnapshot::graph), the view
    /// contains at least everything accepted up to the snapshot's
    /// generation.
    ///
    /// A newer generation does not recompact the graph: the memo is
    /// extended by the graph-log entries that arrived since, in place
    /// when no snapshot pins it any more. While this snapshot lives, its
    /// pin makes that extension clone the compaction first, so the
    /// pinned one never changes — callers that re-pin per generation
    /// should drop the old snapshot before the new one's first graph read.
    pub fn graph_csr(&self) -> &Arc<CsrGraph> {
        self.csr.get_or_init(|| self.db.csr_for(self.generation))
    }

    /// The KV backend as materialized at snapshot creation (same
    /// at-least-this-generation caveat as [`graph`]).
    ///
    /// [`graph`]: StoreSnapshot::graph
    pub fn kv(&self) -> &KvStore {
        self.db.kv_unflushed()
    }

    /// The full-materialize oracle frame over the visible corpus: every
    /// visible document, in id order, decoded into a task message and
    /// flattened into one frame (undecodable documents are skipped) —
    /// exactly `DataFrame::from_messages` over [`find`](Self::find) with
    /// an empty query. Built once per snapshot, shared by all callers —
    /// this is both the fallback executor for plans the store cannot
    /// serve and the reference the differential tests compare every
    /// answer against.
    ///
    /// The build extends the database's newest frame instead of starting
    /// over. The database keeps one memo: the newest built frame and the
    /// per-shard bound it covers. When both that bound and this
    /// snapshot's are *id prefixes* — counts non-increasing across shards
    /// and `hwm[0] - hwm[n-1] <= 1`, so the visible ids are exactly
    /// `[0, len)` — and the memo's bound is dominated by this one, only
    /// the delta rows `[memo, hwm)` are read (chunks wholly below the
    /// memo are never paged), decoded in id order and appended, which is
    /// what `from_messages` would do with them. The frame is extended in
    /// place when no older snapshot still holds it and cloned first when
    /// one does, so an older snapshot keeps exactly its prefix. Every
    /// other case — an older snapshot, a bound that is not a prefix, an
    /// empty memo — builds from the empty frame through the same body,
    /// and the memo is only ever replaced by a frame whose bound
    /// dominates it.
    pub fn oracle_frame(&self) -> Arc<DataFrame> {
        self.oracle
            .get_or_init(|| self.build_oracle_frame())
            .clone()
    }

    fn build_oracle_frame(&self) -> Arc<DataFrame> {
        let mut memo = self.db.frame_memo().lock();
        // Extending holds the memo lock, so snapshots of one generation
        // share one extension pass; a build from empty releases it first.
        if let Some((from, mut frame)) = memo.take_if(|(from, _)| extends(from, &self.hwm)) {
            self.extend_frame(&mut frame, &from);
            *memo = Some((self.hwm.clone(), Arc::clone(&frame)));
            return frame;
        }
        drop(memo);
        let mut frame = Arc::new(DataFrame::new());
        self.extend_frame(&mut frame, &vec![0; self.hwm.len()]);
        let mut memo = self.db.frame_memo().lock();
        if is_id_prefix(&self.hwm) && memo.as_ref().is_none_or(|(b, _)| dominates(&self.hwm, b)) {
            *memo = Some((self.hwm.clone(), Arc::clone(&frame)));
        }
        frame
    }

    /// Append the visible documents from per-shard slot `from` upward to
    /// `frame` — the one frame-build body. They are decoded in id order,
    /// undecodable ones skipped, and pushed row by row; the frame is
    /// cloned first only if it gains rows while another holder shares it.
    fn extend_frame(&self, frame: &mut Arc<DataFrame>, from: &[usize]) {
        let mut docs = Vec::new();
        self.documents()
            .for_each_doc(from, &self.hwm, |id, doc| docs.push((id, Arc::clone(doc))));
        docs.sort_unstable_by_key(|(id, _)| *id);
        let msgs: Vec<TaskMessage> = docs
            .iter()
            .filter_map(|(_, doc)| TaskMessage::from_value(doc))
            .collect();
        if !msgs.is_empty() {
            let frame = Arc::make_mut(frame);
            for m in &msgs {
                frame.push_message(m);
            }
        }
    }

    /// Whether the oracle frame has been materialized for this snapshot —
    /// false means every query so far was served from the store's indexes
    /// and column vectors (tests assert the pushdown paths stay pushed).
    pub fn oracle_built(&self) -> bool {
        self.oracle.get().is_some()
    }

    /// Execute a provql query against this snapshot, consulting the
    /// shared plan-keyed result cache. Returns the output (shared — cache
    /// hits hand out the same allocation) and how the cache was involved.
    pub fn query(&self, query: &Query) -> (Result<Arc<QueryOutput>, ExecError>, CacheOutcome) {
        self.query_with(query, true)
    }

    /// [`query`](StoreSnapshot::query) with the cache switchable —
    /// `use_cache = false` always executes (the cache-equivalence
    /// proptest runs both arms on one snapshot).
    pub fn query_with(
        &self,
        query: &Query,
        use_cache: bool,
    ) -> (Result<Arc<QueryOutput>, ExecError>, CacheOutcome) {
        let plan = provql::plan(query, self);
        if !use_cache {
            return (self.execute_uncached(query, &plan), CacheOutcome::Bypass);
        }
        let key = provql::plan::cache_key(&plan);
        let cache = self.db.plan_cache();
        if let Some(out) = cache.get(&key, self.generation) {
            return (Ok(out), CacheOutcome::Hit);
        }
        let res = self.execute_uncached(query, &plan);
        if let Ok(out) = &res {
            cache.insert(key, self.generation, out.clone());
        }
        (res, CacheOutcome::Miss)
    }

    /// Execute without the cache: route selective plans — every pipeline
    /// pushes a conjunct, carries a pushed limit, or runs fully columnar
    /// — through the bounded pushdown executor, and everything else (or
    /// any pushdown fallback) through the stage machine on the shared
    /// oracle frame. The routing rule mirrors the agent tool's historical
    /// heuristic: unselective corpus-wide queries are exactly the ones
    /// that amortize the oracle frame.
    fn execute_uncached(
        &self,
        query: &Query,
        plan: &provql::QueryPlan,
    ) -> Result<Arc<QueryOutput>, ExecError> {
        // Graph path primitives have no frame fallback (the oracle frame
        // cannot answer them — `provql::execute` would return
        // `GraphUnsupported`), so they always go to the plan executor.
        let selective = query.has_graph()
            || plan
                .pipelines()
                .iter()
                .all(|p| p.has_pushdown() || p.scan.limit.is_some() || p.scan.columnar_only);
        if selective {
            if let exec::Pushdown::Executed(res) = exec::execute_plan(self, plan) {
                return res.map(Arc::new);
            }
        }
        provql::execute(query, &self.oracle_frame()).map(Arc::new)
    }
}

/// The newest built oracle frame and the per-shard bound it covers — the
/// database's one memo slot (see [`StoreSnapshot::oracle_frame`]).
pub(crate) type FrameMemo = Mutex<Option<(Vec<usize>, Arc<DataFrame>)>>;

/// Whether a per-shard bound names exactly the ids `[0, len)`: id
/// `slot * nshards + s` is visible iff `slot < bound[s]`, so that holds
/// iff the counts are non-increasing across shards and differ by at most
/// one.
fn is_id_prefix(bound: &[usize]) -> bool {
    bound.windows(2).all(|w| w[0] >= w[1])
        && match (bound.first(), bound.last()) {
            (Some(first), Some(last)) => first - last <= 1,
            _ => true,
        }
}

/// Whether `bound` covers every row `memo` does, shard by shard.
fn dominates(bound: &[usize], memo: &[usize]) -> bool {
    bound.len() == memo.len() && bound.iter().zip(memo).all(|(b, m)| b >= m)
}

/// Whether a frame built at `memo` extends to `bound` by appending the
/// delta rows: both are id prefixes and `bound` dominates `memo`, so the
/// delta's ids all follow the memo's.
fn extends(memo: &[usize], bound: &[usize]) -> bool {
    is_id_prefix(memo) && is_id_prefix(bound) && dominates(bound, memo)
}

/// Planning capability: delegate to the database's advertisement. The
/// columnar flags are monotonic (a column can be poisoned later but never
/// un-poisoned), so a plan made against a snapshot can at worst be
/// *stale-optimistic*; the bounded executor re-checks servability at
/// execution time and defers to the snapshot's oracle when the layer has
/// moved underneath the plan.
impl PushdownCapability for StoreSnapshot {
    fn pushable_eq(&self, column: &str) -> bool {
        self.db.pushable_eq(column)
    }
    fn pushable_range(&self, column: &str) -> bool {
        self.db.pushable_range(column)
    }
    fn pushable_columnar(&self, column: &str) -> bool {
        self.db.pushable_columnar(column)
    }
    fn pushable_sort(&self, column: &str) -> bool {
        self.db.pushable_sort(column)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prov_model::TaskMessageBuilder;

    /// `from_messages` over the snapshot's visible documents, in id order.
    fn fresh_frame(snap: &StoreSnapshot) -> DataFrame {
        let msgs: Vec<TaskMessage> = snap
            .find(&DocQuery::new())
            .iter()
            .filter_map(|d| TaskMessage::from_value(d))
            .collect();
        DataFrame::from_messages(&msgs)
    }

    #[test]
    fn id_prefix_rule() {
        assert!(is_id_prefix(&[3, 3, 2, 2]));
        assert!(is_id_prefix(&[0, 0, 0]));
        assert!(is_id_prefix(&[5]));
        assert!(!is_id_prefix(&[1, 2]));
        assert!(!is_id_prefix(&[3, 1]));
        assert!(!is_id_prefix(&[2, 1, 2]));
        assert!(extends(&[1, 1], &[2, 1]));
        assert!(extends(&[2, 1], &[2, 1]));
        assert!(!extends(&[2, 1], &[1, 1]), "an older bound");
        assert!(!extends(&[1, 1], &[1, 2]), "not a prefix");
    }

    /// Bounds that are not id prefixes (a snapshot racing direct
    /// `DocumentStore` inserts can pin one) are built from empty and
    /// never memoized: extending a frame over ids {0, 1, 3} by id 2
    /// would append it out of order.
    #[test]
    fn a_bound_that_is_not_an_id_prefix_is_built_from_empty() {
        let db = Arc::new(ProvenanceDatabase::with_shards(2));
        let msgs: Vec<TaskMessage> = (0..4)
            .map(|i| TaskMessageBuilder::new(format!("t{i}"), "wf", "a").build())
            .collect();
        db.insert_batch(&msgs);
        for hwm in [vec![1, 1], vec![1, 2], vec![2, 2]] {
            let snap = StoreSnapshot::new(Arc::clone(&db), 0, hwm);
            assert_eq!(*snap.oracle_frame(), fresh_frame(&snap), "{:?}", snap.hwm);
        }
        let memo = db.frame_memo().lock();
        assert_eq!(memo.as_ref().map(|(b, _)| b.clone()), Some(vec![2, 2]));
    }
}
