//! Dynamically typed JSON-like values over interned, shared strings.
//!
//! Provenance messages (see [`crate::message`]) carry arbitrary,
//! application-specific `used`/`generated` payloads, so the whole stack is
//! built on a self-describing [`Value`] type with deterministic object
//! ordering (the flat sorted [`Map`]) to keep serialization, schema
//! inference and tests reproducible.
//!
//! # Interning design
//!
//! Agent and workflow traces are dominated by a small vocabulary of
//! repeated strings — the Listing-1 field names, telemetry sections, and
//! enum-like payloads — so the string representation is [`Sym`]: an
//! `Arc<str>` plus a cached FNV-1a content hash (see [`crate::sym`]).
//! Three structural choices follow from it:
//!
//! * **Object keys are symbols.** [`Map`] is a flat vector of `(Sym,
//!   Value)` pairs sorted by key (see [`crate::flatmap`]); key
//!   construction goes through the bounded, lock-sharded global interner
//!   (every `From<&str>`/`From<String>` conversion to `Sym` interns), and
//!   the ~30 hot provenance keys are pre-seeded with zero-lookup static
//!   accessors in [`crate::sym::keys`]. Serializing a `TaskMessage`
//!   therefore allocates no key strings at all.
//! * **Containers are shared.** `Array` and `Object` hold their payloads
//!   behind `Arc`, so cloning any `Value` tree — a whole document — is a
//!   refcount bump, never a deep copy. Mutation goes through
//!   [`Value::insert`]/[`Value::as_object_mut`], which copy-on-write via
//!   `Arc::make_mut`.
//! * **Hashes are cached.** [`Value::stable_hash`] folds in each `Sym`'s
//!   pre-computed digest instead of re-walking string bytes, so index
//!   probes hash symbol digests, not strings.
//!
//! # Ordering guarantee under symbol keys
//!
//! `Sym`'s `Ord` is the byte order of its content (with a pointer-equality
//! fast path), identical to `String`'s, and `Borrow<str>` is implemented
//! consistently with it. A [`Map`] over `Sym` keys therefore iterates in
//! exactly the order a `BTreeMap<String, Value>` would, `map.get("key")`
//! works allocation-free, and JSON output is byte-for-byte independent of
//! whether the tree's strings are interned, uninterned, or a mix — an
//! invariant pinned by the `interned_and_uninterned_serialize_identically`
//! property test.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

pub use crate::flatmap::Map;
pub use crate::sym::{keys, Sym};

/// A JSON-like dynamically typed value with shared strings and containers.
///
/// `Clone` is O(1) for every variant: strings, arrays and objects bump a
/// refcount. Equality compares content, with pointer fast paths.
#[derive(Debug, Clone, Default)]
pub enum Value {
    /// JSON `null`.
    #[default]
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Integer number (kept separate from floats for exact IDs/counters).
    Int(i64),
    /// Floating-point number.
    Float(f64),
    /// UTF-8 string (shared; interned when built from a key-position
    /// conversion, plain `Arc` otherwise — semantically identical).
    Str(Sym),
    /// Ordered array behind a shared handle.
    Array(Arc<Vec<Value>>),
    /// String-keyed object with deterministic iteration order, behind a
    /// shared handle.
    Object(Arc<Map>),
}

/// Coarse type tag of a [`Value`], used by dtype inference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ValueKind {
    /// `null`
    Null,
    /// boolean
    Bool,
    /// integer
    Int,
    /// float
    Float,
    /// string
    Str,
    /// array
    Array,
    /// object
    Object,
}

impl ValueKind {
    /// Human-readable name, as shown in dataflow schema prompts.
    pub fn name(self) -> &'static str {
        match self {
            ValueKind::Null => "null",
            ValueKind::Bool => "bool",
            ValueKind::Int => "int",
            ValueKind::Float => "float",
            ValueKind::Str => "str",
            ValueKind::Array => "array",
            ValueKind::Object => "object",
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a == b,
            (Value::Str(a), Value::Str(b)) => a == b,
            // Shared containers: identical handles are equal without a walk.
            (Value::Array(a), Value::Array(b)) => Arc::ptr_eq(a, b) || a == b,
            (Value::Object(a), Value::Object(b)) => Arc::ptr_eq(a, b) || a == b,
            _ => false,
        }
    }
}

impl Value {
    /// Wrap an owned vector as an array value.
    pub fn array(items: Vec<Value>) -> Value {
        Value::Array(Arc::new(items))
    }

    /// Wrap an owned map as an object value.
    pub fn object(map: Map) -> Value {
        Value::Object(Arc::new(map))
    }

    /// The coarse type of this value.
    pub fn kind(&self) -> ValueKind {
        match self {
            Value::Null => ValueKind::Null,
            Value::Bool(_) => ValueKind::Bool,
            Value::Int(_) => ValueKind::Int,
            Value::Float(_) => ValueKind::Float,
            Value::Str(_) => ValueKind::Str,
            Value::Array(_) => ValueKind::Array,
            Value::Object(_) => ValueKind::Object,
        }
    }

    /// True if the value is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// True for `Int` or `Float`.
    pub fn is_number(&self) -> bool {
        matches!(self, Value::Int(_) | Value::Float(_))
    }

    /// Boolean payload, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Integer payload. Floats with an exact integral value coerce.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Float(f) if f.fract() == 0.0 && f.is_finite() => Some(*f as i64),
            _ => None,
        }
    }

    /// Numeric payload as `f64` (ints coerce losslessly for |i| < 2^53).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// String payload, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// String payload as a shared symbol, if this is a `Str`.
    pub fn as_sym(&self) -> Option<&Sym> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array payload, if this is an `Array`.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Object payload, if this is an `Object`.
    pub fn as_object(&self) -> Option<&Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Mutable object payload, if this is an `Object`. Copy-on-write: a
    /// shared handle is split before mutation (`Arc::make_mut`), so other
    /// holders of the same document never observe the change.
    pub fn as_object_mut(&mut self) -> Option<&mut Map> {
        match self {
            Value::Object(m) => Some(Arc::make_mut(m)),
            _ => None,
        }
    }

    /// Mutable array payload, if this is an `Array` (copy-on-write, like
    /// [`Value::as_object_mut`]).
    pub fn as_array_mut(&mut self) -> Option<&mut Vec<Value>> {
        match self {
            Value::Array(a) => Some(Arc::make_mut(a)),
            _ => None,
        }
    }

    /// Field lookup on objects; `None` for other kinds or missing keys.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object().and_then(|m| m.get(key))
    }

    /// Array element lookup; `None` out of range or for non-arrays.
    pub fn get_index(&self, idx: usize) -> Option<&Value> {
        self.as_array().and_then(|a| a.get(idx))
    }

    /// Dotted-path lookup, e.g. `"used.frags.label"`. Path segments that
    /// parse as integers index arrays.
    pub fn get_path(&self, path: &str) -> Option<&Value> {
        let mut cur = self;
        for seg in path.split('.') {
            cur = match cur {
                Value::Object(m) => m.get(seg)?,
                Value::Array(a) => a.get(seg.parse::<usize>().ok()?)?,
                _ => return None,
            };
        }
        Some(cur)
    }

    /// Insert into an object, converting `self` to an empty object first if
    /// it is `Null`. Returns the previous value if any. Copy-on-write when
    /// the object handle is shared.
    pub fn insert(&mut self, key: impl Into<Sym>, value: impl Into<Value>) -> Option<Value> {
        if self.is_null() {
            *self = Value::object(Map::new());
        }
        match self {
            Value::Object(m) => Arc::make_mut(m).insert(key.into(), value.into()),
            _ => None,
        }
    }

    /// Render as a display string without quotes around strings
    /// (used when embedding example values in prompts and tables).
    pub fn display_plain(&self) -> String {
        match self {
            Value::Str(s) => s.as_str().to_string(),
            other => other.to_string(),
        }
    }

    /// Recursively flatten nested objects into dotted keys.
    ///
    /// `{"frags": {"label": "C-H_3"}}` becomes `{"frags.label": "C-H_3"}`.
    /// Arrays and scalars are left as leaves. This is how nested
    /// `used`/`generated` payloads become DataFrame columns.
    pub fn flatten(&self) -> Vec<(String, Value)> {
        let mut out = Vec::new();
        self.for_each_leaf(&mut |key, v| out.push((key.to_string(), v.clone())));
        out
    }

    /// Visit the `(dotted key, leaf)` pairs of [`flatten`](Self::flatten),
    /// in the same order, without copying a leaf.
    pub fn for_each_leaf(&self, f: &mut impl FnMut(&str, &Value)) {
        self.leaves_under("", f);
    }

    fn leaves_under(&self, prefix: &str, f: &mut impl FnMut(&str, &Value)) {
        match self {
            Value::Object(m) if !m.is_empty() || prefix.is_empty() => {
                for (k, v) in m.iter() {
                    let key: Cow<str> = if prefix.is_empty() {
                        Cow::Borrowed(k.as_str())
                    } else {
                        Cow::Owned(format!("{prefix}.{k}"))
                    };
                    v.leaves_under(&key, f);
                }
            }
            leaf if !prefix.is_empty() => f(prefix, leaf),
            _ => {}
        }
    }

    /// Total byte size estimate of the serialized value; used by buffer
    /// flush-by-bytes strategies.
    pub fn approx_size(&self) -> usize {
        match self {
            Value::Null => 4,
            Value::Bool(_) => 5,
            Value::Int(_) => 12,
            Value::Float(_) => 18,
            Value::Str(s) => s.len() + 2,
            Value::Array(a) => 2 + a.iter().map(Value::approx_size).sum::<usize>(),
            Value::Object(m) => {
                2 + m
                    .iter()
                    .map(|(k, v)| k.len() + 3 + v.approx_size())
                    .sum::<usize>()
            }
        }
    }

    /// Content hash with the same coercion rules as query equality: an
    /// `Int` and a `Float` holding the same integral value hash identically
    /// (because `Condition::matches` treats them as equal). Used by the
    /// document store's hash indexes and hash aggregation so that probing
    /// never allocates — and, since every [`Sym`] caches its own FNV-1a
    /// digest, hashing a string or an object key folds in 8 pre-computed
    /// bytes instead of re-walking the text.
    ///
    /// The hash is deterministic across runs (FNV-1a composition, no
    /// randomized state), which keeps index layouts and test behavior
    /// reproducible, and it is independent of whether strings are interned.
    pub fn stable_hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        self.stable_hash_into(&mut h);
        h
    }

    fn stable_hash_into(&self, h: &mut u64) {
        fn mix(h: &mut u64, bytes: &[u8]) {
            for &b in bytes {
                *h ^= b as u64;
                *h = h.wrapping_mul(0x1000_0000_01b3);
            }
        }
        match self {
            Value::Null => mix(h, &[0x00]),
            Value::Bool(b) => mix(h, &[0x01, *b as u8]),
            // Numbers canonicalize through `f64` with `-0.0` folded into
            // `+0.0`. Query equality (`Condition::matches`) compares
            // `Int(a)` to `Float(b)` via the lossy `a as f64 == b`, so the
            // hash must unify exactly the values that comparison unifies —
            // including above 2^53, where distinct ints share an `f64` (a
            // shared bucket there is only a false positive, which every
            // consumer filters with a real equality check).
            Value::Int(i) => {
                mix(h, &[0x02]);
                mix(h, &canonical_f64_bits(*i as f64));
            }
            Value::Float(f) => {
                mix(h, &[0x02]);
                mix(h, &canonical_f64_bits(*f));
            }
            Value::Str(s) => {
                mix(h, &[0x04]);
                mix(h, &s.hash_u64().to_le_bytes());
            }
            Value::Array(a) => {
                mix(h, &[0x05]);
                mix(h, &(a.len() as u64).to_le_bytes());
                for v in a.iter() {
                    v.stable_hash_into(h);
                }
            }
            Value::Object(m) => {
                mix(h, &[0x06]);
                mix(h, &(m.len() as u64).to_le_bytes());
                for (k, v) in m.iter() {
                    mix(h, &k.hash_u64().to_le_bytes());
                    mix(h, &[0xff]);
                    v.stable_hash_into(h);
                }
            }
        }
    }

    /// Partial ordering with numeric coercion: ints and floats compare by
    /// numeric value, strings lexicographically; mismatched kinds compare by
    /// kind tag so sorts are total and deterministic.
    pub fn compare(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.partial_cmp(b).unwrap_or(Ordering::Equal),
            (Int(a), Float(b)) => (*a as f64).partial_cmp(b).unwrap_or(Ordering::Equal),
            (Float(a), Int(b)) => a.partial_cmp(&(*b as f64)).unwrap_or(Ordering::Equal),
            (Str(a), Str(b)) => a.cmp(b),
            (Bool(a), Bool(b)) => a.cmp(b),
            (Null, Null) => Ordering::Equal,
            (Array(a), Array(b)) => {
                for (x, y) in a.iter().zip(b.iter()) {
                    let c = x.compare(y);
                    if c != Ordering::Equal {
                        return c;
                    }
                }
                a.len().cmp(&b.len())
            }
            (a, b) => a.kind().cmp(&b.kind()),
        }
    }
}

/// Bit pattern used by [`Value::stable_hash`] for numbers: `-0.0` and
/// `+0.0` are equal everywhere in the query layer, so they must share one
/// encoding. (NaN keeps its bits; `Eq` never matches NaN anyway.)
fn canonical_f64_bits(f: f64) -> [u8; 8] {
    let f = if f == 0.0 { 0.0 } else { f };
    f.to_bits().to_le_bytes()
}

impl fmt::Display for Value {
    /// Compact JSON rendering.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::json::to_string(self))
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}
impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i as i64)
    }
}
impl From<u32> for Value {
    fn from(i: u32) -> Self {
        Value::Int(i as i64)
    }
}
impl From<usize> for Value {
    fn from(i: usize) -> Self {
        Value::Int(i as i64)
    }
}
impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Float(f)
    }
}
impl From<f32> for Value {
    fn from(f: f32) -> Self {
        Value::Float(f as f64)
    }
}
impl From<&str> for Value {
    /// String *values* stay uninterned ([`Sym::new`]): payload strings are
    /// unbounded-cardinality data; only key-position conversions intern.
    fn from(s: &str) -> Self {
        Value::Str(Sym::new(s))
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(Sym::new(s))
    }
}
impl From<&String> for Value {
    fn from(s: &String) -> Self {
        Value::Str(Sym::new(s))
    }
}
impl From<Sym> for Value {
    fn from(s: Sym) -> Self {
        Value::Str(s)
    }
}
impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Self {
        Value::array(v.into_iter().map(Into::into).collect())
    }
}
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        v.map(Into::into).unwrap_or(Value::Null)
    }
}
impl From<Map> for Value {
    fn from(m: Map) -> Self {
        Value::object(m)
    }
}

/// Build a [`Value::Object`] literal: `obj! { "a" => 1, "b" => "x" }`.
/// Keys are interned symbols; values convert via `Value::from`.
#[macro_export]
macro_rules! obj {
    () => { $crate::value::Value::object($crate::value::Map::new()) };
    ( $( $k:expr => $v:expr ),+ $(,)? ) => {{
        let mut m = $crate::value::Map::new();
        $( m.insert($crate::value::Sym::from($k), $crate::value::Value::from($v)); )+
        $crate::value::Value::object(m)
    }};
}

/// Build a [`Value::Array`] literal: `arr![1, 2.5, "x"]`.
#[macro_export]
macro_rules! arr {
    () => { $crate::value::Value::array(Vec::new()) };
    ( $( $v:expr ),+ $(,)? ) => {
        $crate::value::Value::array(vec![ $( $crate::value::Value::from($v) ),+ ])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_tags() {
        assert_eq!(Value::Null.kind(), ValueKind::Null);
        assert_eq!(Value::from(1i64).kind(), ValueKind::Int);
        assert_eq!(Value::from(1.5).kind(), ValueKind::Float);
        assert_eq!(Value::from("x").kind(), ValueKind::Str);
        assert_eq!(arr![1].kind(), ValueKind::Array);
        assert_eq!(obj! {"a" => 1}.kind(), ValueKind::Object);
    }

    #[test]
    fn numeric_coercion() {
        assert_eq!(Value::Int(3).as_f64(), Some(3.0));
        assert_eq!(Value::Float(3.0).as_i64(), Some(3));
        assert_eq!(Value::Float(3.5).as_i64(), None);
        assert!(Value::Int(1).is_number());
        assert!(!Value::from("1").is_number());
    }

    #[test]
    fn path_lookup() {
        let v = obj! {
            "used" => obj! { "frags" => obj! { "label" => "C-H_3" } },
            "list" => arr![10, 20, 30],
        };
        assert_eq!(
            v.get_path("used.frags.label").and_then(Value::as_str),
            Some("C-H_3")
        );
        assert_eq!(v.get_path("list.1").and_then(Value::as_i64), Some(20));
        assert!(v.get_path("used.missing").is_none());
        assert!(v.get_path("list.9").is_none());
    }

    #[test]
    fn flatten_nested() {
        let v = obj! {
            "e0" => -155.03,
            "frags" => obj! { "label" => "C-H_3", "fragment2" => "[H]" },
        };
        let flat = v.flatten();
        let keys: Vec<&str> = flat.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["e0", "frags.fragment2", "frags.label"]);
    }

    #[test]
    fn compare_is_total_and_numeric() {
        assert_eq!(Value::Int(2).compare(&Value::Float(2.0)), Ordering::Equal);
        assert_eq!(Value::Int(1).compare(&Value::Float(1.5)), Ordering::Less);
        assert_eq!(
            Value::from("b").compare(&Value::from("a")),
            Ordering::Greater
        );
        // Mismatched kinds fall back to kind ordering, never panic.
        let _ = Value::Null.compare(&Value::from("x"));
    }

    #[test]
    fn insert_promotes_null() {
        let mut v = Value::Null;
        v.insert("a", 1);
        assert_eq!(v.get("a").and_then(Value::as_i64), Some(1));
    }

    #[test]
    fn clone_is_a_refcount_bump() {
        let doc = obj! {"used" => obj! {"x" => 1}, "tags" => arr!["a", "b"]};
        let copy = doc.clone();
        let (Value::Object(a), Value::Object(b)) = (&doc, &copy) else {
            panic!("objects expected");
        };
        assert!(Arc::ptr_eq(a, b));
        assert_eq!(doc, copy);
    }

    #[test]
    fn mutation_is_copy_on_write() {
        let doc = obj! {"a" => 1};
        let mut copy = doc.clone();
        copy.insert("b", 2);
        assert!(doc.get("b").is_none(), "original must not see the write");
        assert_eq!(copy.get("b").and_then(Value::as_i64), Some(2));
        assert_eq!(doc.get("a").and_then(Value::as_i64), Some(1));
    }

    #[test]
    fn interning_does_not_change_equality_or_hash() {
        let interned = Value::Str(Sym::intern("FINISHED"));
        let plain = Value::from("FINISHED");
        assert_eq!(interned, plain);
        assert_eq!(interned.stable_hash(), plain.stable_hash());
        assert_eq!(interned.compare(&plain), Ordering::Equal);
    }

    #[test]
    fn stable_hash_coerces_like_query_equality() {
        // Int/Float with equal integral value share a hash (index buckets).
        assert_eq!(Value::Int(2).stable_hash(), Value::Float(2.0).stable_hash());
        assert_ne!(Value::Int(2).stable_hash(), Value::Float(2.5).stable_hash());
        // Kind still separates otherwise-identical byte patterns.
        assert_ne!(Value::from("2").stable_hash(), Value::Int(2).stable_hash());
        assert_ne!(Value::Null.stable_hash(), Value::Bool(false).stable_hash());
        // Structural values hash by content, deterministically.
        let a = obj! {"x" => arr![1, 2.0, "s"]};
        let b = obj! {"x" => arr![1, 2, "s"]};
        assert_eq!(a.stable_hash(), b.stable_hash()); // 2.0 canonicalizes to 2
        assert_eq!(a.stable_hash(), a.stable_hash());
        // Signed zero unifies (query equality treats -0.0 == 0 == 0.0).
        assert_eq!(
            Value::Float(-0.0).stable_hash(),
            Value::Int(0).stable_hash()
        );
        // Above 2^53 the hash follows the query layer's lossy `as f64`
        // equality: values it calls equal must share a bucket.
        let big = (1i64 << 53) + 1;
        assert_eq!(
            Value::Int(big).stable_hash(),
            Value::Float((1i64 << 53) as f64).stable_hash()
        );
    }

    #[test]
    fn approx_size_monotone() {
        let small = obj! {"a" => 1};
        let big = obj! {"a" => 1, "b" => "hello world", "c" => arr![1,2,3]};
        assert!(big.approx_size() > small.approx_size());
    }
}
