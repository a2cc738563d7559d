//! Crash-point injection for the crash harness: abort the process the
//! `nth` time it reaches a named point of the write path, leaving the
//! durable directory exactly as a crash there would. Disarmed (the
//! default) a point costs one relaxed atomic load, so the WAL writer can
//! reach [`Point::WalRecord`] once per record on the ingest path.
//!
//! [`Point::WalRecord`] places an abort between two WAL records; the
//! other points place it between the steps of a seal, which runs on the
//! background sealer while ingest goes on. In the order one seal reaches
//! them:

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// A point of the write path a crash can be placed at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Point {
    /// A WAL record is synced to its file; the records after it are not
    /// written. Counted over every record this process writes, so the
    /// `nth` arrival leaves exactly `nth` records durable, mid-batch,
    /// views half-applied.
    WalRecord,
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

/// Whether [`arm`] has been called: the only thing a disarmed point reads.
/// `Relaxed` publishes nothing: the target is read under its mutex, and
/// the harness arms before it opens the store.
static ARMED: AtomicBool = AtomicBool::new(false);
static TARGET: Mutex<Option<(Point, u64)>> = Mutex::new(None);

/// Abort the process the `nth` time (from 1) `point` is reached.
pub fn arm(point: Point, nth: u64) {
    *TARGET.lock().unwrap_or_else(|e| e.into_inner()) = Some((point, nth.max(1)));
    ARMED.store(true, Ordering::Relaxed);
}

/// Count one arrival at `point`; true if it is the armed one. A caller
/// that has state to make durable first (the WAL record's sync) does so,
/// then aborts.
pub(crate) fn hit(point: Point) -> bool {
    if !ARMED.load(Ordering::Relaxed) {
        return false;
    }
    let mut target = TARGET.lock().unwrap_or_else(|e| e.into_inner());
    match target.as_mut() {
        Some((p, left)) if *p == point => {
            *left = left.saturating_sub(1);
            *left == 0
        }
        _ => false,
    }
}

/// Count one arrival at `point`; abort if it is the armed one.
pub(crate) fn reach(point: Point) {
    if hit(point) {
        std::process::abort();
    }
}
