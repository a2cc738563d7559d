//! The live context's row window: a FIFO of task-message rows held as a
//! shared frame, plus the per-column dtype and example state the agent's
//! prompt sections read.
//!
//! Every cost here is per row or per column, never per window: a push
//! moves one row in, an eviction moves one row out (the columns' head
//! offsets advance), and [`MessageWindow::dtypes`] and
//! [`MessageWindow::examples`] read state kept up to date by both.

use crate::column::Column;
use crate::dtype::DType;
use crate::frame::{message_row, DataFrame};
use prov_model::{json, TaskMessage, Value};
use std::sync::Arc;

/// Most distinct example renderings kept per column.
pub const MAX_EXAMPLES: usize = 3;

/// Longest example rendering, in chars.
const EXAMPLE_CHARS: usize = 40;

/// Every dtype, at the index of its discriminant (`DType as usize`).
const KINDS: [DType; 7] = [
    DType::Null,
    DType::Bool,
    DType::Int,
    DType::Float,
    DType::Str,
    DType::List,
    DType::Mixed,
];

/// How one cell reads among its column's example values: floats to four
/// decimals, anything else as [`Value::display_plain`], clipped to 40
/// chars. `None` for a null, which is never an example. An array or
/// object is serialized only as far as the clip reaches.
pub fn example_rendering(v: &Value) -> Option<String> {
    let clip = |s: &str| s.chars().take(EXAMPLE_CHARS).collect();
    match v {
        Value::Null => None,
        Value::Float(f) => Some(clip(&format!("{f:.4}"))),
        Value::Str(s) => Some(clip(s.as_str())),
        other => Some(json::to_string_clipped(other, EXAMPLE_CHARS)),
    }
}

impl DataFrame {
    /// Per column, in column order: the first [`MAX_EXAMPLES`] distinct
    /// [`example_rendering`]s of its cells, oldest row first. This is the
    /// from-scratch definition of [`MessageWindow::examples`], which keeps
    /// the same lists incrementally; it reads every cell and serves as
    /// that state's test referee.
    pub fn examples(&self) -> Vec<(String, Vec<String>)> {
        self.columns
            .iter()
            .map(|c| {
                let mut seen: Vec<String> = Vec::new();
                for r in c.values().iter().filter_map(example_rendering) {
                    if !seen.contains(&r) {
                        seen.push(r);
                        if seen.len() == MAX_EXAMPLES {
                            break;
                        }
                    }
                }
                (c.name().to_string(), seen)
            })
            .collect()
    }
}

/// A FIFO window of task-message rows whose frame always equals
/// [`DataFrame::from_messages`] over the buffered messages — same cells,
/// same column set, same column order — while evicting the oldest row
/// costs one row instead of a rebuild of the whole window.
///
/// The frame sits behind an [`Arc`]: [`frame`](MessageWindow::frame)
/// hands out a shared handle, and a push or eviction mutates it through
/// [`Arc::make_mut`], so it copies the frame only while a reader still
/// holds an older handle.
///
/// Per column, indexed by column position, it keeps
/// - a ring bitset of `capacity` bits (bit `seq % capacity` is set when
///   buffered row `seq` holds the key — the key exists in the flattened
///   row, whatever its value) and the sequence number of the first
///   buffered row that holds it, which keep the column set and order;
/// - the count of its non-null cells of each dtype: since
///   [`DType::unify`] is a join, the column's dtype is the join of the
///   dtypes counted at least once;
/// - its first [`MAX_EXAMPLES`] distinct [`example_rendering`]s in window
///   order, each with the sequence number and cell of its first
///   occurrence, and how far the scan for them has read.
#[derive(Debug)]
pub struct MessageWindow {
    frame: Arc<DataFrame>,
    capacity: usize,
    /// Sequence number of frame row 0 (rows evicted so far).
    head: u64,
    /// Per column, by position.
    columns: Vec<ColumnState>,
}

/// What [`MessageWindow`] keeps about one column.
///
/// The example lists hold this invariant: every non-null cell of the rows
/// `[head, scanned)` renders as one of `examples`; `firsts[i]` is the
/// first of those rows rendering as `examples[i]` (ascending) and its
/// cell; and either all [`MAX_EXAMPLES`] are held or `scanned` is the
/// window's end.
#[derive(Debug)]
struct ColumnState {
    /// Ring bitset of the buffered rows holding the key, grown on demand.
    present: Vec<u64>,
    /// Sequence number of the first buffered row holding the key.
    first: u64,
    /// Buffered non-null cells per dtype, by `DType as usize`.
    kinds: [u32; KINDS.len()],
    examples: Vec<String>,
    firsts: Vec<(u64, Value)>,
    /// Sequence number the example scan has read up to (exclusive).
    scanned: u64,
}

/// True when `a` and `b` are the same scalar bit for bit, which renders
/// alike; false when that takes rendering to tell (`0.0` and `-0.0` are
/// equal values with different renderings, and so may be containers
/// holding them).
fn same_scalar(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Bool(x), Value::Bool(y)) => x == y,
        (Value::Int(x), Value::Int(y)) => x == y,
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        (Value::Str(x), Value::Str(y)) => x == y,
        _ => false,
    }
}

/// `first` marker of a column no buffered row holds any more.
const GONE: u64 = u64::MAX;

impl ColumnState {
    /// State of a column first held by row `seq`; earlier rows are nulls.
    fn new(seq: u64) -> Self {
        Self {
            present: Vec::new(),
            first: seq,
            kinds: [0; KINDS.len()],
            examples: Vec::new(),
            firsts: Vec::new(),
            scanned: seq,
        }
    }

    fn dtype(&self) -> DType {
        KINDS
            .iter()
            .zip(&self.kinds)
            .filter(|(_, &n)| n > 0)
            .fold(DType::Null, |d, (&k, _)| d.unify(k))
    }

    /// Set the ring bit of the row at `pos`.
    fn hold(&mut self, pos: usize) {
        if self.present.len() <= pos / 64 {
            self.present.resize(pos / 64 + 1, 0);
        }
        self.present[pos / 64] |= 1 << (pos % 64);
    }

    /// Account for `cell`, the column's cell in the newest row `seq`.
    fn push_cell(&mut self, cell: &Value, seq: u64) {
        if !cell.is_null() {
            self.kinds[DType::of(cell) as usize] += 1;
        }
        if self.examples.len() < MAX_EXAMPLES {
            self.scan(cell, seq);
        }
    }

    /// True when `cell` is, bit for bit, the scalar an example was first
    /// seen as, so it renders as that example without being rendered.
    fn seen(&self, cell: &Value) -> bool {
        self.firsts.iter().any(|(_, v)| same_scalar(v, cell))
    }

    /// Read `cell`, of row `seq` (the scan's next row), for a new example.
    fn scan(&mut self, cell: &Value, seq: u64) {
        if !self.seen(cell) {
            if let Some(r) = example_rendering(cell) {
                if !self.examples.contains(&r) {
                    self.examples.push(r);
                    self.firsts.push((seq, cell.clone()));
                }
            }
        }
        self.scanned = seq + 1;
    }

    /// Restore the example invariant after row `head - 1` was evicted:
    /// `values` are the live cells, rows `[head, end)`. Only an example
    /// first seen in the evicted row changes: it moves to its next
    /// occurrence among the scanned rows, or, without one, is dropped and
    /// the scan reads on for a replacement. The search renders no row
    /// where another example first occurs, nor a scalar it has seen, so a
    /// column of distinct values renders one cell per eviction (the
    /// replacement), and a column of few values usually none.
    fn evicted(&mut self, values: &[Value], head: u64, end: u64) {
        if self.firsts.first().map(|f| f.0) != Some(head - 1) {
            return;
        }
        let gone = self.examples.remove(0);
        let (_, gone_cell) = self.firsts.remove(0);
        let mut others = self.firsts.iter().map(|f| f.0).peekable();
        let next = (head..self.scanned).find(|&seq| {
            let cell = &values[(seq - head) as usize];
            if others.next_if_eq(&seq).is_some() || cell.is_null() {
                return false;
            }
            same_scalar(cell, &gone_cell)
                || (!self.seen(cell) && example_rendering(cell).is_some_and(|r| r == gone))
        });
        match next {
            Some(seq) => {
                let at = self.firsts.partition_point(|f| f.0 < seq);
                self.examples.insert(at, gone);
                self.firsts
                    .insert(at, (seq, values[(seq - head) as usize].clone()));
            }
            None => {
                while self.examples.len() < MAX_EXAMPLES && self.scanned < end {
                    let seq = self.scanned;
                    self.scan(&values[(seq - head) as usize], seq);
                }
            }
        }
    }
}

impl MessageWindow {
    /// An empty window holding at most `capacity` rows (at least one).
    pub fn new(capacity: usize) -> Self {
        Self {
            frame: Arc::new(DataFrame::new()),
            capacity: capacity.max(1),
            head: 0,
            columns: Vec::new(),
        }
    }

    /// The buffered rows as a frame. Cloning the handle is O(1); the next
    /// push or eviction copies the frame once if the clone is still alive.
    pub fn frame(&self) -> &Arc<DataFrame> {
        &self.frame
    }

    /// `(column, dtype)` pairs in column order, equal to
    /// [`DataFrame::dtypes`] of [`frame`](MessageWindow::frame) but O(1)
    /// per column.
    pub fn dtypes(&self) -> impl Iterator<Item = (&str, DType)> {
        self.frame
            .columns
            .iter()
            .zip(&self.columns)
            .map(|(c, s)| (c.name(), s.dtype()))
    }

    /// `(column, examples)` pairs in column order, equal to
    /// [`DataFrame::examples`] of [`frame`](MessageWindow::frame) but O(1)
    /// per column.
    pub fn examples(&self) -> impl Iterator<Item = (&str, &[String])> {
        self.frame
            .columns
            .iter()
            .zip(&self.columns)
            .map(|(c, s)| (c.name(), s.examples.as_slice()))
    }

    /// Buffered rows.
    pub fn len(&self) -> usize {
        self.frame.rows
    }

    /// True when no rows are buffered.
    pub fn is_empty(&self) -> bool {
        self.frame.rows == 0
    }

    /// Maximum buffered rows.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn ring_pos(&self, seq: u64) -> usize {
        (seq % self.capacity as u64) as usize
    }

    /// Append one message as the newest row. Panics when the window is
    /// full; evict with [`pop_front`](MessageWindow::pop_front) first.
    pub fn push(&mut self, m: &TaskMessage) {
        assert!(
            self.len() < self.capacity,
            "MessageWindow::push on a full window"
        );
        let seq = self.head + self.frame.rows as u64;
        let pos = self.ring_pos(seq);
        let frame = Arc::make_mut(&mut self.frame);
        let states = &mut self.columns;
        frame.push_cells(message_row(m), |i| {
            if i == states.len() {
                states.push(ColumnState::new(seq));
            }
            states[i].hold(pos);
        });
        for (c, s) in frame.columns.iter().zip(&mut self.columns) {
            s.push_cell(c.values().last().expect("the row just pushed"), seq);
        }
    }

    /// Evict the oldest row: advance every column past its first cell,
    /// update the dtype counts and the examples that row held, drop the
    /// columns no buffered row holds any more, move the first-present row
    /// of the evicted row's other columns forward, and restore the
    /// [`DataFrame::from_messages`] column order when that moved it.
    /// Panics on an empty window.
    pub fn pop_front(&mut self) {
        assert!(
            !self.is_empty(),
            "MessageWindow::pop_front on an empty window"
        );
        let seq = self.head;
        let end = seq + self.frame.rows as u64;
        let pos = self.ring_pos(seq);
        let frame = Arc::make_mut(&mut self.frame);
        for (c, s) in frame.columns.iter_mut().zip(&mut self.columns) {
            let cell = &c.values()[0];
            if !cell.is_null() {
                s.kinds[DType::of(cell) as usize] -= 1;
            }
            c.pop_front();
        }
        self.head += 1;
        frame.rows -= 1;
        let (mut moved, mut dropped) = (false, false);
        for (c, s) in frame.columns.iter().zip(&mut self.columns) {
            s.evicted(c.values(), seq + 1, end);
            // The oldest row's columns are exactly those first held by it.
            if s.first != seq {
                continue;
            }
            s.present[pos / 64] &= !(1 << (pos % 64));
            match next_present(&s.present, seq + 1, end, self.capacity) {
                Some(next) => {
                    s.first = next;
                    moved = true;
                }
                None => {
                    s.first = GONE;
                    dropped = true;
                }
            }
        }
        if dropped || (moved && !in_column_order(frame, &self.columns)) {
            restore_column_order(frame, &mut self.columns);
        }
    }
}

/// True when columns are sorted by (first-present row, key).
fn in_column_order(frame: &DataFrame, states: &[ColumnState]) -> bool {
    let key = |i: usize| (states[i].first, frame.columns[i].name());
    (1..states.len()).all(|i| key(i - 1) <= key(i))
}

/// Drop `GONE` columns and sort the rest by (first-present row, key),
/// the order [`DataFrame::push_row`] creates them in.
fn restore_column_order(frame: &mut DataFrame, states: &mut Vec<ColumnState>) {
    let columns = std::mem::take(&mut frame.columns);
    let index = &mut frame.index;
    let mut kept: Vec<(Column, ColumnState)> = columns
        .into_iter()
        .zip(states.drain(..))
        .filter(|(c, s)| {
            if s.first == GONE {
                index.remove(c.name());
            }
            s.first != GONE
        })
        .collect();
    kept.sort_by(|a, b| (a.1.first, a.0.name()).cmp(&(b.1.first, b.0.name())));
    for (i, (c, s)) in kept.into_iter().enumerate() {
        *index.get_mut(c.name()).expect("kept column is indexed") = i;
        frame.columns.push(c);
        states.push(s);
    }
}

/// The first sequence number in `[seq, end)` whose ring bit is set, over
/// a ring of `capacity` bits (bits past the stored words read as clear).
fn next_present(bits: &[u64], mut seq: u64, end: u64, capacity: usize) -> Option<u64> {
    while seq < end {
        let pos = (seq % capacity as u64) as usize;
        let word = bits.get(pos / 64).copied().unwrap_or(0) >> (pos % 64);
        if word != 0 {
            let hit = seq + u64::from(word.trailing_zeros());
            return (hit < end).then_some(hit);
        }
        seq += (64 - pos % 64).min(capacity - pos) as u64;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use prov_model::{arr, TaskMessageBuilder};

    fn msg(i: i64) -> TaskMessage {
        TaskMessageBuilder::new(format!("t{i}"), "wf", "act")
            .uses("x", i)
            .generates("y", i as f64 / 3.0)
            .build()
    }

    #[test]
    fn example_rendering_rule() {
        assert_eq!(example_rendering(&Value::Null), None);
        assert_eq!(
            example_rendering(&Value::Float(2.0 / 3.0)).unwrap(),
            "0.6667"
        );
        assert_eq!(example_rendering(&Value::Float(f64::NAN)).unwrap(), "NaN");
        assert_eq!(example_rendering(&Value::Int(-4)).unwrap(), "-4");
        let long = "é".repeat(50);
        assert_eq!(
            example_rendering(&Value::from(long.as_str())).unwrap(),
            "é".repeat(40)
        );
        let list = Value::array((0..64).map(|i| Value::Float(i as f64 / 7.0)).collect());
        let full = list.display_plain();
        assert_eq!(
            example_rendering(&list).unwrap(),
            full.chars().take(40).collect::<String>()
        );
        assert_eq!(example_rendering(&arr![1, "a"]).unwrap(), "[1,\"a\"]");
    }

    /// A handle from `frame` keeps the rows it saw; the window copies the
    /// frame on its next change only while such a handle is alive.
    #[test]
    fn frame_handles_are_copy_on_write() {
        let mut w = MessageWindow::new(4);
        for i in 0..4 {
            w.push(&msg(i));
        }
        let held = Arc::clone(w.frame());
        let seen = (*held).clone();
        w.pop_front();
        w.push(&msg(4));
        assert_eq!(*held, seen, "a held handle does not change");
        assert!(!Arc::ptr_eq(&held, w.frame()));
        drop(held);
        let before = Arc::as_ptr(w.frame());
        w.pop_front();
        w.push(&msg(5));
        assert_eq!(Arc::as_ptr(w.frame()), before, "no handle, no copy");
        let window: Vec<TaskMessage> = (2..6).map(msg).collect();
        assert_eq!(**w.frame(), DataFrame::from_messages(&window));
    }

    #[test]
    fn dtypes_and_examples_follow_evictions() {
        let mut w = MessageWindow::new(3);
        let kinds = [
            Value::Int(1),
            Value::Float(1.5),
            Value::from("s"),
            Value::Int(2),
        ];
        for (i, v) in kinds.iter().enumerate() {
            if w.len() == w.capacity() {
                w.pop_front();
            }
            w.push(
                &TaskMessageBuilder::new(format!("t{i}"), "wf", "a")
                    .uses("v", v.clone())
                    .build(),
            );
            let frame = w.frame();
            let dtypes: Vec<(String, DType)> =
                w.dtypes().map(|(n, d)| (n.to_string(), d)).collect();
            assert_eq!(dtypes, frame.dtypes());
            let examples: Vec<(String, Vec<String>)> = w
                .examples()
                .map(|(n, e)| (n.to_string(), e.to_vec()))
                .collect();
            assert_eq!(examples, frame.examples());
        }
        // Rows Float, Str, Int: the column is mixed; once only ints remain
        // it reads as int again.
        let v = |w: &MessageWindow| w.dtypes().find(|(n, _)| *n == "v").unwrap().1;
        assert_eq!(v(&w), DType::Mixed);
        w.pop_front();
        w.pop_front();
        assert_eq!(v(&w), DType::Int);
    }
}
