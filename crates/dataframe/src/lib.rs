//! # dataframe
//!
//! A small, self-contained columnar DataFrame engine — the Rust stand-in for
//! the Pandas buffer the paper uses as the agent's in-memory context (§5.1).
//!
//! Features: dynamically typed columns over [`prov_model::Value`], dtype
//! inference, row expressions (boolean masks), stable multi-key sort,
//! group-by with the pandas aggregation set, `describe()` and text
//! rendering.
//!
//! ```
//! use dataframe::{DataFrame, col, lit, AggFunc};
//! use prov_model::Value;
//!
//! let df = DataFrame::from_columns(vec![
//!     ("bond", vec![Value::from("C-H"), Value::from("C-C"), Value::from("C-H")]),
//!     ("bde", vec![Value::Float(98.6), Value::Float(87.1), Value::Float(99.2)]),
//! ]).unwrap();
//! let ch = df.filter(&col("bond").eq(lit("C-H")));
//! assert_eq!(ch.len(), 2);
//! let mean = ch.agg("bde", AggFunc::Mean).unwrap().as_f64().unwrap();
//! assert!((mean - 98.9).abs() < 1e-9);
//! ```

#![warn(missing_docs)]

pub mod agg;
pub mod column;
pub mod display;
pub mod dtype;
pub mod expr;
pub mod frame;
pub mod groupby;
pub mod window;

pub use agg::AggFunc;
pub use column::Column;
pub use display::{render, DisplayOptions};
pub use dtype::DType;
pub use expr::{cmp_matches, col, lit, values_equal, ArithOp, CmpOp, Expr};
pub use frame::{sort_cell_cmp, DataFrame, FrameError, FrameResult};
pub use groupby::GroupBy;
pub use window::{example_rendering, MessageWindow, MAX_EXAMPLES};
