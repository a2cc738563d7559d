//! Plan-keyed query result cache.
//!
//! Sits *below* the tool layer: any caller that executes a provql plan
//! against a [`StoreSnapshot`](crate::StoreSnapshot) can consult it. An
//! entry is keyed by `(canonical plan, store generation)` —
//! [`provql::plan::cache_key`] canonicalizes commutative conjunct order
//! and coercible literal spellings, so equivalent dashboard queries share
//! one entry, and the generation component makes staleness structurally
//! impossible: the store is append-only and every accepted insert bumps
//! the generation, so a `(plan, generation)` pair names exactly one
//! answer, forever.
//!
//! Memory is bounded: each entry carries a size estimate and inserts
//! evict least-recently-used entries until the budget, [`MAX_BYTES`]
//! per database, holds. Only
//! successful outputs are cached — errors are cheap to recompute and
//! their messages may depend on corpus-wide state the key does not
//! capture.

use parking_lot::Mutex;
use prov_model::Value;
use provql::QueryOutput;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The plan-cache byte budget of every database.
pub const MAX_BYTES: usize = 64 << 20;

struct Entry {
    out: Arc<QueryOutput>,
    bytes: usize,
    last_used: u64,
}

#[derive(Default)]
struct CacheInner {
    map: HashMap<(String, u64), Entry>,
    bytes: usize,
    tick: u64,
}

/// Bounded, generation-aware result cache shared by every snapshot of one
/// database. Lock-cheap: the map lock is held only for the probe/insert
/// itself, never across query execution; counters are atomics readable
/// without the lock.
pub struct PlanCache {
    inner: Mutex<CacheInner>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    max_bytes: usize,
}

/// Point-in-time cache counters, exposed through tool metadata and the
/// serve layer so eval runs can assert cache behavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Probes answered from the cache.
    pub hits: u64,
    /// Probes that missed (and, on success, populated an entry).
    pub misses: u64,
    /// Entries dropped to hold the memory budget.
    pub evictions: u64,
    /// Live entries.
    pub entries: usize,
    /// Estimated bytes held by live entries.
    pub bytes: usize,
}

/// How a query interacted with the plan cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Served from the cache.
    Hit,
    /// Executed and (on success) cached.
    Miss,
    /// Executed with caching disabled by the caller.
    Bypass,
}

impl CacheOutcome {
    /// Stable lowercase label (`hit` / `miss` / `bypass`) for metadata.
    pub fn as_str(self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::Miss => "miss",
            CacheOutcome::Bypass => "bypass",
        }
    }
}

impl PlanCache {
    /// A cache with a byte budget (tests use tiny budgets to exercise
    /// eviction).
    pub fn with_max_bytes(max_bytes: usize) -> Self {
        Self {
            inner: Mutex::new(CacheInner::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            max_bytes,
        }
    }

    /// Probe for `(plan key, generation)`; counts a hit or a miss.
    pub fn get(&self, key: &str, generation: u64) -> Option<Arc<QueryOutput>> {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        // Borrow-split: the probe key is (String, u64) but lookups come in
        // with &str; a short-lived owned key keeps the map simple.
        match inner.map.get_mut(&(key.to_string(), generation)) {
            Some(e) => {
                e.last_used = tick;
                let out = e.out.clone();
                drop(inner);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(out)
            }
            None => {
                drop(inner);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Store a successful output under `(plan key, generation)`, evicting
    /// least-recently-used entries until the budget holds. Outputs larger
    /// than the whole budget are not cached at all.
    pub fn insert(&self, key: String, generation: u64, out: Arc<QueryOutput>) {
        let bytes = estimate_bytes(&out);
        if bytes > self.max_bytes {
            return;
        }
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(old) = inner.map.insert(
            (key, generation),
            Entry {
                out,
                bytes,
                last_used: tick,
            },
        ) {
            inner.bytes -= old.bytes;
        }
        inner.bytes += bytes;
        let mut evicted = 0u64;
        while inner.bytes > self.max_bytes {
            let Some(victim) = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            let old = inner.map.remove(&victim).expect("victim just found");
            inner.bytes -= old.bytes;
            evicted += 1;
        }
        drop(inner);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    /// Current counters and occupancy.
    pub fn stats(&self) -> CacheStats {
        let (entries, bytes) = {
            let inner = self.inner.lock();
            (inner.map.len(), inner.bytes)
        };
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries,
            bytes,
        }
    }

    /// Drop every entry (counters are kept — they describe history, not
    /// contents).
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.map.clear();
        inner.bytes = 0;
    }
}

/// Rough retained-size estimate of an output. Not exact accounting — the
/// budget is a pressure valve, not a ledger — but it scales with rows ×
/// columns and string payloads, which is what actually grows.
fn estimate_bytes(out: &QueryOutput) -> usize {
    const BASE: usize = 64;
    match out {
        QueryOutput::Frame(f) => BASE + f.width() * 48 + f.len() * f.width() * CELL,
        QueryOutput::Series { name, values } => BASE + name.len() + values.len() * CELL,
        QueryOutput::Scalar(v) => BASE + value_bytes(v),
        QueryOutput::Row(m) => {
            BASE + m
                .iter()
                .map(|(k, v)| k.as_str().len() + value_bytes(v))
                .sum::<usize>()
        }
    }
}

/// Flat per-cell estimate: a `Value` is a tagged enum around pointer-sized
/// payloads; string/array cells are shared `Arc`s whose payload the store
/// usually retains anyway.
const CELL: usize = 24;

fn value_bytes(v: &Value) -> usize {
    match v {
        Value::Str(s) => CELL + s.as_str().len(),
        Value::Array(a) => CELL + a.iter().map(value_bytes).sum::<usize>(),
        Value::Object(m) => {
            CELL + m
                .iter()
                .map(|(k, v)| k.as_str().len() + value_bytes(v))
                .sum::<usize>()
        }
        _ => CELL,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scalar(n: i64) -> Arc<QueryOutput> {
        Arc::new(QueryOutput::Scalar(Value::Int(n)))
    }

    #[test]
    fn hit_miss_and_generation_separation() {
        let cache = PlanCache::with_max_bytes(1 << 20);
        assert!(cache.get("q", 1).is_none());
        cache.insert("q".into(), 1, scalar(7));
        assert_eq!(
            *cache.get("q", 1).unwrap(),
            QueryOutput::Scalar(Value::Int(7))
        );
        // Same plan at a newer generation is a different entry.
        assert!(cache.get("q", 2).is_none());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 2, 1));
    }

    #[test]
    fn eviction_holds_the_budget() {
        // Budget of ~3 scalar entries.
        let one = estimate_bytes(&scalar(0));
        let cache = PlanCache::with_max_bytes(3 * one);
        for i in 0..5 {
            cache.insert(format!("q{i}"), 1, scalar(i));
        }
        let s = cache.stats();
        assert!(
            s.bytes <= 3 * one,
            "budget held: {} <= {}",
            s.bytes,
            3 * one
        );
        assert_eq!(s.evictions, 2);
        // The most recently inserted entries survive.
        assert!(cache.get("q4", 1).is_some());
        assert!(cache.get("q0", 1).is_none());
    }

    #[test]
    fn oversized_outputs_are_not_cached() {
        let cache = PlanCache::with_max_bytes(8);
        cache.insert("big".into(), 1, scalar(1));
        assert_eq!(cache.stats().entries, 0);
    }
}
