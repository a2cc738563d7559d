//! Interned, shared strings for [`crate::value::Value`].
//!
//! Provenance traffic is dominated by a small vocabulary of repeated
//! strings: the Listing-1 field names (`task_id`, `activity`, `used`,
//! `generated`, …), telemetry section names, and enum-like payload strings
//! (statuses, relation names, activity ids). [`Sym`] exploits that: it is a
//! reference-counted `Arc<str>` plus a cached content hash, so
//!
//! * cloning a string — and any `Value` tree built from them — bumps a
//!   refcount instead of copying bytes;
//! * hashing a string for an index probe reads the cached 64-bit digest
//!   instead of re-walking the bytes;
//! * interned occurrences of the same key share one allocation process-wide.
//!
//! # Interned vs. uninterned
//!
//! [`Sym::intern`] consults the global interner; [`Sym::new`] does not.
//! Interning is for *low-cardinality* strings (object keys, enum values):
//! the interner never evicts, so unbounded-cardinality data (task ids, free
//! text) must stay uninterned. Two safeguards keep accidents cheap:
//!
//! * the interner is capacity-bounded ([`MAX_INTERNED`]); once full,
//!   `intern` degrades to `new` instead of growing;
//! * both kinds of `Sym` are semantically identical (`Eq`/`Ord`/`Hash` by
//!   content, with pointer-equality fast paths), so interning is purely an
//!   allocation/dedup optimization and never changes behavior.
//!
//! The storage decoder follows the same contract: `prov-db`'s binary
//! codec interns each distinct object key once per decoded batch (a docs
//! page, a segment read, a WAL replay pass), and deduplicates string
//! *values* only within that batch through [`Sym::new`] — decoded task
//! ids and hostnames never reach the interner.
//!
//! The interner is sharded 16 ways by the cached content hash, so
//! concurrent interning from capture threads does not serialize on one
//! lock. It is pre-seeded with the hot provenance vocabulary (see
//! [`keys`]), and each hot key also gets a zero-lookup accessor that clones
//! a process-wide static — `TaskMessage::to_value` builds its whole key set
//! without touching the interner or the allocator.

use parking_lot::RwLock;
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::HashSet;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Upper bound on interner residency. Enforced *per shard* (each of the
/// [`SHARDS`] shards caps at `MAX_INTERNED / SHARDS` entries), so total
/// residency never exceeds this value, but a hash-skewed vocabulary can
/// exhaust one shard early — new strings routed there then stop
/// deduplicating (degrading to [`Sym::new`] behavior) while other shards
/// still accept. The safety net targets high-cardinality strings leaking
/// into key position; semantics never change either way.
pub const MAX_INTERNED: usize = 1 << 16;

/// Lock shards in the global interner; see [`MAX_INTERNED`] for how the
/// capacity bound distributes over them.
pub const SHARDS: usize = 16;

/// FNV-1a over `bytes` — the deterministic digest cached in every [`Sym`]
/// (see [`Sym::hash_u64`]) and folded into
/// [`crate::value::Value::stable_hash`].
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

struct Interner {
    shards: [RwLock<HashSet<Arc<str>>>; SHARDS],
}

impl Interner {
    fn global() -> &'static Interner {
        static GLOBAL: OnceLock<Interner> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let interner = Interner {
                shards: std::array::from_fn(|_| RwLock::new(HashSet::new())),
            };
            for key in keys::HOT_KEYS {
                interner.intern(key);
            }
            interner
        })
    }

    fn intern(&self, s: &str) -> Sym {
        let hash = fnv1a(s.as_bytes());
        let shard = &self.shards[(hash as usize) % SHARDS];
        if let Some(hit) = shard.read().get(s) {
            return Sym {
                text: hit.clone(),
                hash,
            };
        }
        let mut w = shard.write();
        // Double-check under the write lock: another thread may have won.
        if let Some(hit) = w.get(s) {
            return Sym {
                text: hit.clone(),
                hash,
            };
        }
        let text: Arc<str> = Arc::from(s);
        if w.len() < MAX_INTERNED / SHARDS {
            w.insert(text.clone());
        }
        Sym { text, hash }
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }
}

/// A shared, content-hashed string — the key and string-payload type of
/// [`crate::value::Value`]. See the module docs for the design.
#[derive(Clone)]
pub struct Sym {
    text: Arc<str>,
    hash: u64,
}

impl Sym {
    /// A shared string *without* interner dedup — the right constructor for
    /// unbounded-cardinality data (task ids, hostnames, free-form text).
    pub fn new(s: impl AsRef<str>) -> Sym {
        let s = s.as_ref();
        Sym {
            hash: fnv1a(s.as_bytes()),
            text: Arc::from(s),
        }
    }

    /// Intern via the bounded global interner: repeated calls with equal
    /// text share one allocation (until [`MAX_INTERNED`] is reached, after
    /// which this degrades to [`Sym::new`]). Use for object keys and
    /// enum-like strings only.
    pub fn intern(s: &str) -> Sym {
        Interner::global().intern(s)
    }

    /// The string content.
    pub fn as_str(&self) -> &str {
        &self.text
    }

    /// Cached FNV-1a digest of the content. Deterministic across runs and
    /// identical for interned and uninterned `Sym`s with equal text.
    pub fn hash_u64(&self) -> u64 {
        self.hash
    }

    /// True when both symbols share one allocation (always true for two
    /// interned copies of the same text, while the interner has capacity).
    pub fn ptr_eq(a: &Sym, b: &Sym) -> bool {
        Arc::ptr_eq(&a.text, &b.text)
    }

    /// Current number of strings resident in the global interner
    /// (pre-seeded hot keys included). Observability / test hook.
    pub fn interned_count() -> usize {
        Interner::global().len()
    }
}

impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::ops::Deref for Sym {
    type Target = str;
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl AsRef<str> for Sym {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

/// `Borrow<str>` (with `Ord`/`Hash` agreeing with `str`'s) is what lets
/// `BTreeMap<Sym, _>` and `HashMap<Sym, _>` be probed with a plain `&str`,
/// keeping every `map.get("field")` call site allocation-free.
impl Borrow<str> for Sym {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq for Sym {
    fn eq(&self, other: &Sym) -> bool {
        Sym::ptr_eq(self, other)
            || (self.hash == other.hash && self.text.as_bytes() == other.text.as_bytes())
    }
}

impl Eq for Sym {}

impl PartialEq<str> for Sym {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Sym {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialOrd for Sym {
    fn partial_cmp(&self, other: &Sym) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Byte order of the content — exactly `str`'s order, so a `BTreeMap<Sym,
/// _>` iterates in the same deterministic sequence a `BTreeMap<String, _>`
/// did (the serialization-stability guarantee `value.rs` documents).
impl Ord for Sym {
    fn cmp(&self, other: &Sym) -> Ordering {
        if Sym::ptr_eq(self, other) {
            Ordering::Equal
        } else {
            self.as_str().cmp(other.as_str())
        }
    }
}

/// Delegates to `str`'s hasher (not the cached digest) so the
/// `Borrow<str>` lookup contract holds for hash maps; fast paths that want
/// the cached digest call [`Sym::hash_u64`] explicitly.
impl std::hash::Hash for Sym {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_str().hash(state)
    }
}

impl Default for Sym {
    fn default() -> Self {
        Sym::intern("")
    }
}

impl From<&str> for Sym {
    /// Interns: `From` conversions are what key-position call sites use
    /// (`map.insert("k".into(), …)`), and keys are the low-cardinality
    /// vocabulary interning exists for. String *values* go through
    /// `Value::from(&str)`, which stays uninterned.
    fn from(s: &str) -> Sym {
        Sym::intern(s)
    }
}

impl From<String> for Sym {
    fn from(s: String) -> Sym {
        Sym::intern(&s)
    }
}

impl From<&String> for Sym {
    fn from(s: &String) -> Sym {
        Sym::intern(s)
    }
}

impl From<std::borrow::Cow<'_, str>> for Sym {
    fn from(s: std::borrow::Cow<'_, str>) -> Sym {
        Sym::intern(&s)
    }
}

macro_rules! hot_keys {
    ($( $fn_name:ident => $lit:literal ),+ $(,)?) => {
        /// Pre-seeded hot provenance keys.
        ///
        /// Every function clones a process-wide static `Sym` — no interner
        /// lookup, no hashing, no allocation; just an `Arc` refcount bump.
        /// The set covers the Listing-1 common schema, the telemetry
        /// payload sections, and the PROV attribute names — the ~30 keys
        /// that dominate `TaskMessage::to_value` traffic.
        pub mod keys {
            use super::Sym;
            $(
                #[doc = concat!("The interned `\"", $lit, "\"` key.")]
                pub fn $fn_name() -> Sym {
                    static CELL: std::sync::OnceLock<Sym> = std::sync::OnceLock::new();
                    CELL.get_or_init(|| Sym::intern($lit)).clone()
                }
            )+

            /// The raw hot-key vocabulary, in declaration order; the global
            /// interner is pre-seeded with exactly this set.
            pub const HOT_KEYS: &[&str] = &[$($lit),+];
        }
    };
}

hot_keys! {
    task_id => "task_id",
    campaign_id => "campaign_id",
    workflow_id => "workflow_id",
    activity_id => "activity_id",
    activity => "activity",
    agent_id => "agent_id",
    used => "used",
    generated => "generated",
    started_at => "started_at",
    ended_at => "ended_at",
    duration => "duration",
    hostname => "hostname",
    status => "status",
    msg_type => "type",
    depends_on => "depends_on",
    tags => "tags",
    telemetry_at_start => "telemetry_at_start",
    telemetry_at_end => "telemetry_at_end",
    cpu => "cpu",
    gpu => "gpu",
    memory => "memory",
    percent => "percent",
    used_mb => "used_mb",
    total_mb => "total_mb",
    disk => "disk",
    network => "network",
    read_bytes => "read_bytes",
    write_bytes => "write_bytes",
    sent_bytes => "sent_bytes",
    recv_bytes => "recv_bytes",
    group_id => "_id",
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interned_copies_share_allocation() {
        let a = Sym::intern("task_id");
        let b = Sym::intern("task_id");
        assert!(Sym::ptr_eq(&a, &b));
        assert_eq!(a, b);
        assert_eq!(a.hash_u64(), b.hash_u64());
    }

    #[test]
    fn uninterned_equals_interned_by_content() {
        let a = Sym::intern("status");
        let b = Sym::new("status");
        assert!(!Sym::ptr_eq(&a, &b));
        assert_eq!(a, b);
        assert_eq!(a.cmp(&b), Ordering::Equal);
        assert_eq!(a.hash_u64(), b.hash_u64());
    }

    #[test]
    fn hot_keys_are_preseeded_and_static() {
        let a = keys::task_id();
        let b = Sym::intern("task_id");
        assert!(Sym::ptr_eq(&a, &b));
        assert!(Sym::interned_count() >= keys::HOT_KEYS.len());
        // Declaration list and accessors agree.
        assert!(keys::HOT_KEYS.contains(&"telemetry_at_end"));
        assert_eq!(keys::msg_type().as_str(), "type");
        assert_eq!(keys::group_id().as_str(), "_id");
    }

    #[test]
    fn ordering_matches_str() {
        let mut syms = [
            Sym::new("b"),
            Sym::intern("a"),
            Sym::new("c"),
            Sym::intern("ab"),
        ];
        syms.sort();
        let got: Vec<&str> = syms.iter().map(Sym::as_str).collect();
        assert_eq!(got, vec!["a", "ab", "b", "c"]);
    }

    #[test]
    fn borrow_contract_enables_str_probes() {
        let mut m = std::collections::BTreeMap::new();
        m.insert(Sym::intern("k"), 1);
        assert_eq!(m.get("k"), Some(&1));
        let mut h = std::collections::HashMap::new();
        h.insert(Sym::new("k"), 2);
        assert_eq!(h.get("k"), Some(&2));
    }

    #[test]
    fn hash_is_deterministic_fnv() {
        // Pin the digest so index layouts stay reproducible across builds.
        assert_eq!(Sym::new("").hash_u64(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Sym::new("a").hash_u64(), fnv1a(b"a"));
    }
}
