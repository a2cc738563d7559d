//! Store configuration: every tuning knob of a [`ProvenanceDatabase`] or
//! [`DocumentStore`], resolved once and handed to the store at
//! construction.
//!
//! [`Config::from_env`] is the only place in this crate that reads the
//! process environment; `new()`, `with_shards(n)` and `open(dir)` use it.
//! Every other constructor takes a `Config` value, so one process can run
//! stores of different geometries side by side.
//!
//! | env | field | default | accepted |
//! | --- | --- | --- | --- |
//! | `PROVDB_SHARDS` | `shards` | cores (8 if unknown), at most 16 | integer ≥ 1, capped at 16 |
//! | `PROVDB_CHUNK` | `chunk_rows` | 4096 | integer ≥ 1, clamped to 16..=65536 |
//! | `PROVDB_SEAL_ROWS` | `seal_rows` | 32768 | integer ≥ 1 |
//! | `PROVDB_RESIDENT_MB` | `resident_bytes` | 256 MiB | integer ≥ 1, in MiB |
//! | `PROVDB_CACHE_MB` | `cache_bytes` | 64 MiB | integer ≥ 0, in MiB |
//! | `PROVDB_WAL_SYNC` | `wal_sync` | `batch` | `always` or `batch`, any case |
//! | `PROVDB_CRASH_AFTER` | `crash_after` | unset | integer ≥ 0 |
//!
//! Values are trimmed before they are parsed; a value that does not
//! parse or lies outside its accepted range leaves the default in effect.
//! `shards` tunes write concurrency only (answers are shard-count
//! invariant); `chunk_rows` sets the columnar
//! chunk and zone-map granularity and the sealing unit; `seal_rows` is
//! how many arrivals the WAL accumulates before a seal is attempted;
//! `resident_bytes` bounds the pager's resident set; `cache_bytes` bounds
//! the plan cache; `wal_sync` picks one `fdatasync` per record or per
//! drained batch; `crash_after` aborts the process right after its n-th
//! WAL record, for the crash harness.
//!
//! [`ProvenanceDatabase`]: crate::ProvenanceDatabase
//! [`DocumentStore`]: crate::DocumentStore

use crate::wal::SyncPolicy;

/// Tuning knobs of one store; see the [module docs](crate::config) for
/// the environment names, defaults and accepted ranges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Config {
    /// Document-store shard count.
    pub shards: usize,
    /// Rows per columnar chunk (and per zone-map entry and sealed chunk).
    pub chunk_rows: usize,
    /// Arrivals the WAL may accumulate before a seal is attempted.
    pub seal_rows: u64,
    /// Resident-set byte budget for paged cold chunks.
    pub resident_bytes: usize,
    /// Plan-cache byte budget.
    pub cache_bytes: usize,
    /// WAL sync policy.
    pub wal_sync: SyncPolicy,
    /// Abort the process right after this many WAL records were written
    /// by it (crash injection).
    pub crash_after: Option<u64>,
}

impl Default for Config {
    fn default() -> Self {
        let cores = std::thread::available_parallelism().map_or(8, |n| n.get());
        Self {
            shards: cores.clamp(1, 16),
            chunk_rows: 4096,
            seal_rows: 32_768,
            resident_bytes: 256 << 20,
            cache_bytes: 64 << 20,
            wal_sync: SyncPolicy::Batch,
            crash_after: None,
        }
    }
}

impl Config {
    /// The defaults, overridden by the `PROVDB_*` environment variables.
    #[allow(clippy::disallowed_methods)]
    pub fn from_env() -> Self {
        Self::from_lookup(|name| std::env::var(name).ok())
    }

    /// The defaults, overridden by whatever `lookup` returns for each
    /// `PROVDB_*` name (`None` = unset).
    pub fn from_lookup(lookup: impl Fn(&str) -> Option<String>) -> Self {
        let d = Self::default();
        let num = |name: &str| lookup(name).and_then(|v| v.trim().parse::<u64>().ok());
        let positive = |name: &str| num(name).filter(|&n| n > 0);
        let count =
            |name: &str, default: usize| positive(name).map_or(default, |n| n.min(16) as usize);
        Self {
            shards: count("PROVDB_SHARDS", d.shards),
            chunk_rows: positive("PROVDB_CHUNK")
                .map_or(d.chunk_rows, |n| n.clamp(16, 65_536) as usize),
            seal_rows: positive("PROVDB_SEAL_ROWS").unwrap_or(d.seal_rows),
            resident_bytes: positive("PROVDB_RESIDENT_MB")
                .map_or(d.resident_bytes, |n| (n as usize) << 20),
            cache_bytes: num("PROVDB_CACHE_MB").map_or(d.cache_bytes, |n| (n as usize) << 20),
            wal_sync: match lookup("PROVDB_WAL_SYNC") {
                Some(v) if v.trim().eq_ignore_ascii_case("always") => SyncPolicy::Always,
                _ => SyncPolicy::Batch,
            },
            crash_after: num("PROVDB_CRASH_AFTER"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `Config::from_lookup` with `name` set to `raw` and nothing else.
    fn with(name: &str, raw: &str) -> Config {
        Config::from_lookup(|n| (n == name).then(|| raw.to_string()))
    }

    #[test]
    fn every_name_parses_by_its_rule() {
        let d = Config::default();
        assert_eq!(Config::from_lookup(|_| None), d, "nothing set");
        // (name, raw value, the field it must produce)
        type Field = fn(&Config) -> u64;
        let shards: Field = |c| c.shards as u64;
        let chunk: Field = |c| c.chunk_rows as u64;
        let seal: Field = |c| c.seal_rows;
        let resident: Field = |c| c.resident_bytes as u64;
        let cache: Field = |c| c.cache_bytes as u64;
        let crash: Field = |c| c.crash_after.map_or(u64::MAX, |n| n);
        let table: &[(&str, &str, Field, u64)] = &[
            ("PROVDB_SHARDS", "4", shards, 4),
            ("PROVDB_SHARDS", " 16 ", shards, 16),
            ("PROVDB_SHARDS", "64", shards, 16),
            ("PROVDB_SHARDS", "0", shards, d.shards as u64),
            ("PROVDB_SHARDS", "-2", shards, d.shards as u64),
            ("PROVDB_SHARDS", "lots", shards, d.shards as u64),
            ("PROVDB_CHUNK", "64", chunk, 64),
            ("PROVDB_CHUNK", " 64 ", chunk, 64),
            ("PROVDB_CHUNK", "1", chunk, 16),
            ("PROVDB_CHUNK", "1000000", chunk, 65_536),
            ("PROVDB_CHUNK", "0", chunk, 4096),
            ("PROVDB_CHUNK", "4k", chunk, 4096),
            ("PROVDB_SEAL_ROWS", "128", seal, 128),
            ("PROVDB_SEAL_ROWS", " 128", seal, 128),
            ("PROVDB_SEAL_ROWS", "0", seal, 32_768),
            ("PROVDB_SEAL_ROWS", "-1", seal, 32_768),
            ("PROVDB_RESIDENT_MB", "4", resident, 4 << 20),
            ("PROVDB_RESIDENT_MB", "4 ", resident, 4 << 20),
            ("PROVDB_RESIDENT_MB", "0", resident, 256 << 20),
            ("PROVDB_RESIDENT_MB", "4.5", resident, 256 << 20),
            ("PROVDB_CACHE_MB", "8", cache, 8 << 20),
            ("PROVDB_CACHE_MB", " 8", cache, 8 << 20),
            ("PROVDB_CACHE_MB", "0", cache, 0),
            ("PROVDB_CACHE_MB", "-8", cache, 64 << 20),
            ("PROVDB_CACHE_MB", "99999999999999999999", cache, 64 << 20),
            ("PROVDB_CRASH_AFTER", "12", crash, 12),
            ("PROVDB_CRASH_AFTER", " 0 ", crash, 0),
            ("PROVDB_CRASH_AFTER", "soon", crash, u64::MAX),
        ];
        for &(name, raw, field, want) in table {
            let got = with(name, raw);
            assert_eq!(field(&got), want, "{name}={raw:?}");
            // The other fields keep their defaults.
            let mut rest = got;
            match name {
                "PROVDB_SHARDS" => rest.shards = d.shards,
                "PROVDB_CHUNK" => rest.chunk_rows = d.chunk_rows,
                "PROVDB_SEAL_ROWS" => rest.seal_rows = d.seal_rows,
                "PROVDB_RESIDENT_MB" => rest.resident_bytes = d.resident_bytes,
                "PROVDB_CACHE_MB" => rest.cache_bytes = d.cache_bytes,
                _ => rest.crash_after = None,
            }
            assert_eq!(rest, d, "{name}={raw:?} moved another field");
        }
        for (raw, want) in [
            ("always", SyncPolicy::Always),
            (" ALWAYS\n", SyncPolicy::Always),
            ("batch", SyncPolicy::Batch),
            ("sometimes", SyncPolicy::Batch),
            ("", SyncPolicy::Batch),
        ] {
            assert_eq!(with("PROVDB_WAL_SYNC", raw).wal_sync, want, "{raw:?}");
        }
    }
}
