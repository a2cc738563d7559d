//! Crash-point injection for the crash harness: abort the process the
//! `nth` time it reaches a named point of the write path, leaving the
//! durable directory exactly as a crash there would. Disarmed (the
//! default) a point costs one uncontended lock.
//!
//! The record-count crash (`PROVDB_CRASH_AFTER`, a [`crate::Config`]
//! field) places an abort between two WAL records; these points place it
//! between the steps of a seal, which runs on the background sealer
//! while ingest goes on. In the order one seal reaches them:

use std::sync::Mutex;

/// A point of the write path a crash can be placed at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Point {
    /// A new WAL file holds its synced header and no record yet.
    WalSwitched,
    /// A seal is in flight: its first segment is renamed into place, the
    /// others are not written, the WAL is whole.
    SealInFlight,
    /// Every segment of a seal is renamed into place; the WAL files
    /// below its cutoff are not deleted yet.
    SegmentsRenamed,
    /// The WAL files below the cutoff are deleted; the catalog does not
    /// list the new segments yet.
    WalRetired,
    /// The catalog lists the new segments; compaction has not run.
    CatalogSwapped,
}

static ARMED: Mutex<Option<(Point, u64)>> = Mutex::new(None);

/// Abort the process the `nth` time (from 1) `point` is reached.
pub fn arm(point: Point, nth: u64) {
    *ARMED.lock().unwrap_or_else(|e| e.into_inner()) = Some((point, nth.max(1)));
}

/// Count one arrival at `point`; abort if it is the armed one.
pub(crate) fn reach(point: Point) {
    let mut armed = ARMED.lock().unwrap_or_else(|e| e.into_inner());
    if let Some((p, left)) = armed.as_mut() {
        if *p == point {
            *left -= 1;
            if *left == 0 {
                std::process::abort();
            }
        }
    }
}
