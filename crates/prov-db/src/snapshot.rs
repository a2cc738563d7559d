//! Generation-pinned immutable read views.
//!
//! [`StoreSnapshot`] is the query-side read API: every query-shaped
//! caller (the agent tool layer, the serve front-end, tests) reads
//! through a snapshot instead of the raw flushing accessors on
//! [`ProvenanceDatabase`], which stay for ingest/admin. That makes
//! "reads don't block writers" a type-level property — a snapshot method
//! never takes the flusher lock and never mutates a view, so a query
//! storm can run entirely in parallel with ingest bursts. Taking the pin
//! waits only for the flushes queued before it: a durable store's seals
//! write, retire the WAL and compact on a background sealer that never
//! takes the flusher lock.
//!
//! A snapshot pins `(generation, per-shard row high-water mark)` at
//! creation ([`ProvenanceDatabase::snapshot`]). The document shards are
//! append-only, so the rows below the mark are immutable, and every scan
//! kernel in [`crate::document`] takes the mark as its row bound and
//! honours it inside its loops: a snapshot answers any query *as of* its
//! generation, no matter how much ingest lands afterwards, and never
//! scans past what it can see. A snapshot is also the only way a provql
//! plan executes: every plan runs through [`exec::execute_plan`] first,
//! and only a [`NeedsFullFrame`](exec::Pushdown::NeedsFullFrame) answer
//! sends it to the snapshot's
//! [`oracle_frame`](StoreSnapshot::oracle_frame) — the one
//! full-materialize oracle, the fallback in production and the referee
//! in the differential tests. That frame is built from empty, once per
//! snapshot, and only when asked for. Query execution routes through the
//! plan-keyed result cache ([`crate::cache`]) keyed on the pinned
//! generation.

use crate::csr::CsrGraph;
use crate::document::DocumentStore;
use crate::graph::GraphStore;
use crate::query::{DocQuery, Op};
use crate::store::ProvenanceDatabase;
use crate::{cache::CacheOutcome, exec};
use dataframe::DataFrame;
use prov_model::TaskMessage;
use provql::plan::PushdownCapability;
use provql::{ExecError, Query, QueryOutput};
use std::sync::{Arc, OnceLock};

/// An immutable view of one database generation.
///
/// Cloneable via `Arc`; holding one costs a refcount on the database plus
/// one `usize` per shard. The oracle frame — the full materialization of
/// the visible corpus — is built lazily on first need and shared by every
/// caller of the same snapshot.
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

    /// Point lookup by task id: the newest visible version of the task
    /// (a task sent again, e.g. RUNNING then FINISHED, is stored once per
    /// message; the last one that decodes wins). A version that landed
    /// after the snapshot was taken is not visible.
    pub fn get_task(&self, task_id: &str) -> Option<TaskMessage> {
        let q = DocQuery::new().filter("task_id", Op::Eq, task_id);
        self.find(&q)
            .iter()
            .rev()
            .find_map(|d| TaskMessage::from_value(d))
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

    /// The full-materialize oracle frame over the visible corpus: every
    /// visible document, in id order, decoded into a task message and
    /// flattened into one frame (undecodable documents are skipped) —
    /// exactly `DataFrame::from_messages` over [`find`](Self::find) with
    /// an empty query. Built from empty on first call and shared by every
    /// caller of this snapshot — this is both the fallback executor for
    /// plans the store cannot serve and the reference the differential
    /// tests compare every answer against.
    ///
    /// The visible handles are collected first (each shard lock is held
    /// only while cloning `Arc`s); each document is then decoded and
    /// pushed on its own, outside any lock, so no decoded copy of the
    /// corpus exists beside the frame.
    pub fn oracle_frame(&self) -> Arc<DataFrame> {
        self.oracle
            .get_or_init(|| {
                let mut frame = DataFrame::new();
                for doc in self.find(&DocQuery::new()) {
                    if let Some(m) = TaskMessage::from_value(&doc) {
                        frame.push_message(&m);
                    }
                }
                Arc::new(frame)
            })
            .clone()
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

    /// Execute without the cache: the plan runs through the bounded
    /// pushdown executor, and only a plan it cannot serve (see
    /// [`exec::Pushdown::NeedsFullFrame`]) runs through the stage machine
    /// on the shared oracle frame. Graph plans are always executed.
    fn execute_uncached(
        &self,
        query: &Query,
        plan: &provql::QueryPlan,
    ) -> Result<Arc<QueryOutput>, ExecError> {
        match exec::execute_plan(self, plan) {
            exec::Pushdown::Executed(res) => res.map(Arc::new),
            exec::Pushdown::NeedsFullFrame(_) => {
                provql::execute(query, &self.oracle_frame()).map(Arc::new)
            }
        }
    }
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
    fn pushable_presence(&self, column: &str) -> bool {
        self.db.pushable_presence(column)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prov_model::TaskMessageBuilder;

    /// A bound that is not an id prefix (a snapshot racing direct
    /// `DocumentStore` inserts can pin one: ids {0, 1, 3} visible, id 2
    /// not) builds the frame of exactly its visible ids, in id order.
    #[test]
    fn a_bound_that_is_not_an_id_prefix_builds_its_visible_ids() {
        let db = Arc::new(ProvenanceDatabase::with_shards(2));
        let msgs: Vec<TaskMessage> = (0..4)
            .map(|i| TaskMessageBuilder::new(format!("t{i}"), "wf", "a").build())
            .collect();
        db.insert_batch(&msgs);
        for (hwm, ids) in [
            (vec![1, 1], vec![0, 1]),
            (vec![1, 2], vec![0, 1, 3]),
            (vec![2, 2], vec![0, 1, 2, 3]),
        ] {
            let snap = StoreSnapshot::new(Arc::clone(&db), 0, hwm);
            let visible: Vec<TaskMessage> = ids.iter().map(|&i| msgs[i].clone()).collect();
            assert_eq!(
                *snap.oracle_frame(),
                DataFrame::from_messages(&visible),
                "{:?}",
                snap.hwm
            );
        }
    }
}
