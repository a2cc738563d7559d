//! # provql
//!
//! A pandas-style query language over [`dataframe`] frames: the concrete
//! form of the paper's "structured query" LLM output (§3).
//!
//! * [`ast`] — pipelines of stages (`filter → groupby → agg → sort → head`);
//! * [`parser`] — parses the pandas syntax the (simulated) LLMs emit;
//! * [`render`] — canonical pretty-printer (`parse ∘ render = id`);
//! * [`exec`] — executes queries against a DataFrame;
//! * [`plan`] — logical query plans with index-aware filter/projection
//!   pushdown, interpreted by store-side executors (`prov_db::exec`);
//! * [`compare`] — semantic similarity scoring used by judges.
//!
//! ```
//! use provql::{parse, execute};
//! use dataframe::DataFrame;
//! use prov_model::Value;
//!
//! let df = DataFrame::from_columns(vec![
//!     ("bond_id", vec![Value::from("C-H_1"), Value::from("O-H_1")]),
//!     ("bd_energy", vec![Value::Float(98.6), Value::Float(104.8)]),
//! ]).unwrap();
//! let q = parse(r#"df.loc[df["bd_energy"].idxmax(), "bond_id"]"#).unwrap();
//! let out = execute(&q, &df).unwrap();
//! assert_eq!(out.as_scalar().unwrap().as_str(), Some("O-H_1"));
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod compare;
pub mod exec;
pub mod parser;
pub mod plan;
pub mod render;
pub mod token;

pub use ast::{GraphQuery, Pipeline, Query, Stage};
pub use compare::{compare, Comparison, ResultShape};
pub use exec::{arith_scalars, execute, execute_stages, scalar_operand, ExecError, QueryOutput};
pub use parser::{parse, ParseError};
pub use plan::{
    plan, PipelinePlan, PlanNode, PushOp, PushdownCapability, PushedFilter, QueryPlan, ScanNode,
};
pub use render::render;
