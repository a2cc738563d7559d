//! A single named, dynamically typed column.

use crate::agg::AggFunc;
use crate::dtype::DType;
use prov_model::Value;

/// Eviction compacts the dead prefix once it outgrows the live cells
/// divided by `COMPACT_RATIO`. A drain moving `n` live cells follows at
/// least `n / COMPACT_RATIO` pops, so [`Column::pop_front`] is O(1)
/// amortized, and the dead cells never outnumber that share of the live
/// ones.
const COMPACT_RATIO: usize = 2;

/// One column: a name plus a dense vector of values (nulls allowed).
///
/// Rows evicted with `pop_front` (the live window's eviction) stay in the vector
/// as a dead prefix until it is compacted; every method reads only the
/// live cells `values[head..]`, and equality and cloning ignore the
/// prefix.
#[derive(Debug)]
pub struct Column {
    name: String,
    values: Vec<Value>,
    /// Cells before this index were evicted.
    head: usize,
}

impl Clone for Column {
    fn clone(&self) -> Self {
        Self::new(self.name.clone(), self.values().to_vec())
    }
}

impl PartialEq for Column {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name && self.values() == other.values()
    }
}

impl Column {
    /// Create a column from raw values.
    pub fn new(name: impl Into<String>, values: Vec<Value>) -> Self {
        Self {
            name: name.into(),
            values,
            head: 0,
        }
    }

    /// Empty column with a name.
    pub fn empty(name: impl Into<String>) -> Self {
        Self::new(name, Vec::new())
    }

    /// Column name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Rename, consuming self.
    pub fn renamed(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.values.len() - self.head
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Borrow all values.
    pub fn values(&self) -> &[Value] {
        &self.values[self.head..]
    }

    /// Value at a row (None out of bounds).
    pub fn get(&self, row: usize) -> Option<&Value> {
        self.values().get(row)
    }

    /// Append a value.
    pub fn push(&mut self, v: Value) {
        self.values.push(v);
    }

    /// Remove the first value (the oldest row of a FIFO window) in O(1)
    /// amortized: the cell is dropped in place and the head advances.
    /// Panics on an empty column.
    pub(crate) fn pop_front(&mut self) {
        assert!(!self.is_empty(), "Column::pop_front on an empty column");
        self.values[self.head] = Value::Null;
        self.head += 1;
        if self.head * COMPACT_RATIO > self.len() {
            self.values.drain(..self.head);
            self.head = 0;
        }
    }

    /// Inferred dtype over current values.
    pub fn dtype(&self) -> DType {
        DType::infer(self.values())
    }

    /// Count of non-null values.
    pub fn count(&self) -> usize {
        self.values().iter().filter(|v| !v.is_null()).count()
    }

    /// Non-null numeric view of the column.
    pub fn numeric(&self) -> Vec<f64> {
        self.values().iter().filter_map(Value::as_f64).collect()
    }

    /// Take rows by index, building a new column (indices must be in range).
    pub fn take(&self, indices: &[usize]) -> Column {
        let values = self.values();
        Column::new(
            self.name.clone(),
            indices.iter().map(|&i| values[i].clone()).collect(),
        )
    }

    /// Keep rows where `mask` is true.
    pub fn filter(&self, mask: &[bool]) -> Column {
        debug_assert_eq!(mask.len(), self.len());
        Column::new(
            self.name.clone(),
            self.values()
                .iter()
                .zip(mask)
                .filter(|(_, &m)| m)
                .map(|(v, _)| v.clone())
                .collect(),
        )
    }

    /// Apply an aggregation to this column.
    pub fn agg(&self, func: AggFunc) -> Value {
        func.apply(self.values())
    }

    /// Distinct values in first-seen order.
    pub fn unique(&self) -> Vec<Value> {
        let mut seen: Vec<Value> = Vec::new();
        for v in self.values() {
            if !seen.contains(v) {
                seen.push(v.clone());
            }
        }
        seen
    }

    /// Index of the row holding the minimum value (numeric-coercing order).
    pub fn idxmin(&self) -> Option<usize> {
        self.arg_extreme(true)
    }

    /// Index of the row holding the maximum value.
    pub fn idxmax(&self) -> Option<usize> {
        self.arg_extreme(false)
    }

    fn arg_extreme(&self, min: bool) -> Option<usize> {
        let mut best: Option<(usize, &Value)> = None;
        for (i, v) in self.values().iter().enumerate() {
            if v.is_null() {
                continue;
            }
            best = match best {
                None => Some((i, v)),
                Some((bi, bv)) => {
                    let ord = v.compare(bv);
                    let better = if min {
                        ord == std::cmp::Ordering::Less
                    } else {
                        ord == std::cmp::Ordering::Greater
                    };
                    if better {
                        Some((i, v))
                    } else {
                        Some((bi, bv))
                    }
                }
            };
        }
        best.map(|(i, _)| i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col() -> Column {
        Column::new(
            "x",
            vec![Value::Int(3), Value::Null, Value::Float(1.5), Value::Int(7)],
        )
    }

    #[test]
    fn basics() {
        let c = col();
        assert_eq!(c.len(), 4);
        assert_eq!(c.count(), 3);
        assert_eq!(c.dtype(), DType::Float);
        assert_eq!(c.numeric(), vec![3.0, 1.5, 7.0]);
    }

    #[test]
    fn take_and_filter() {
        let c = col();
        let t = c.take(&[3, 0]);
        assert_eq!(t.values(), &[Value::Int(7), Value::Int(3)]);
        let f = c.filter(&[true, false, false, true]);
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn idx_extremes_skip_nulls() {
        let c = col();
        assert_eq!(c.idxmin(), Some(2));
        assert_eq!(c.idxmax(), Some(3));
        let empty = Column::empty("e");
        assert_eq!(empty.idxmin(), None);
    }

    #[test]
    fn unique_preserves_order() {
        let c = Column::new(
            "s",
            vec![
                Value::Str("b".into()),
                Value::Str("a".into()),
                Value::Str("b".into()),
            ],
        );
        assert_eq!(
            c.unique(),
            vec![Value::Str("b".into()), Value::Str("a".into())]
        );
    }

    /// A 40-cell column with nulls, ints and floats, popped one cell at a
    /// time: after every pop each kernel answers as over a fresh column of
    /// the live cells, while the dead prefix grows and is compacted.
    #[test]
    fn kernels_read_only_the_live_cells_across_compactions() {
        let cells: Vec<Value> = (0..40)
            .map(|i| match i % 5 {
                0 => Value::Null,
                1 | 2 => Value::Int((i * 7 % 13) as i64),
                _ => Value::Float(i as f64 * 0.5 - 6.0),
            })
            .collect();
        let mut c = Column::new("x", cells.clone());
        let (mut offset, mut compactions) = (false, 0);
        for popped in 1..=cells.len() {
            let head = c.head;
            c.pop_front();
            if c.head == 0 && head > 0 {
                compactions += 1;
            }
            offset |= c.head > 0;
            let live = &cells[popped..];
            let fresh = Column::new("x", live.to_vec());
            assert_eq!(c.values(), live);
            assert_eq!(c.len(), live.len());
            assert_eq!(c.is_empty(), live.is_empty());
            assert_eq!(c.get(0), live.first());
            assert_eq!(c.get(live.len()), None);
            assert_eq!(c.count(), fresh.count());
            assert_eq!(c.dtype(), fresh.dtype());
            assert_eq!(c.numeric(), fresh.numeric());
            let picks: Vec<usize> = (0..live.len()).rev().step_by(3).collect();
            assert_eq!(c.take(&picks), fresh.take(&picks));
            let mask: Vec<bool> = (0..live.len()).map(|i| i % 2 == 0).collect();
            assert_eq!(c.filter(&mask), fresh.filter(&mask));
            for func in [AggFunc::Sum, AggFunc::Mean, AggFunc::Min, AggFunc::Count] {
                assert_eq!(
                    format!("{:?}", c.agg(func)),
                    format!("{:?}", fresh.agg(func))
                );
            }
            assert_eq!(c.unique(), fresh.unique());
            assert_eq!(c.idxmin(), fresh.idxmin());
            assert_eq!(c.idxmax(), fresh.idxmax());
            assert_eq!(c, fresh);
            assert_eq!(c.clone().head, 0, "a clone drops the dead prefix");
        }
        assert!(offset, "some pops leave a dead prefix");
        assert!(compactions > 1, "compaction fires repeatedly");
    }

    /// A fixed-length FIFO of pushes and pops, as the live window drives
    /// it: the dead prefix stays under half the live cells.
    #[test]
    fn fifo_keeps_the_newest_cells_and_a_bounded_prefix() {
        let mut c = Column::empty("x");
        let mut want = std::collections::VecDeque::new();
        for i in 0..500 {
            if want.len() == 16 {
                c.pop_front();
                want.pop_front();
            }
            c.push(Value::Int(i));
            want.push_back(Value::Int(i));
            assert_eq!(c.values(), want.make_contiguous());
            assert!(c.head * COMPACT_RATIO <= c.len());
        }
    }

    /// Equal live cells compare equal whatever each side has evicted.
    #[test]
    fn equality_ignores_the_dead_prefix() {
        let mut a = Column::new("x", (0..9).map(Value::Int).collect());
        let mut b = Column::new("x", (3..9).map(Value::Int).collect());
        for _ in 0..3 {
            a.pop_front();
        }
        assert!(a.head > 0);
        assert_eq!(a, b);
        b.pop_front();
        assert_ne!(a, b);
        a.pop_front();
        assert_eq!(a, b);
        assert_ne!(a, a.clone().renamed("y"));
    }
}
