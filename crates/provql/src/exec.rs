//! Query execution against a [`DataFrame`].
//!
//! The stage machine borrows its input frame: stages read it in place,
//! and only the frames they produce are owned. A store's oracle frame
//! (shared, and extended across generations) is thus never copied to run
//! a pipeline over it; a pipeline that returns its input unchanged gets
//! one copy at the end.

use crate::ast::{Pipeline, Query, Stage};
use dataframe::{AggFunc, ArithOp, Column, DataFrame, FrameError};
use prov_model::{Map, Value};
use std::borrow::Cow;

/// The result of executing a query.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryOutput {
    /// A table.
    Frame(DataFrame),
    /// A single named column of values.
    Series {
        /// Column name.
        name: String,
        /// Values.
        values: Vec<Value>,
    },
    /// A single value.
    Scalar(Value),
    /// One row as a map.
    Row(Map),
}

impl QueryOutput {
    /// Scalar payload if this is a scalar.
    pub fn as_scalar(&self) -> Option<&Value> {
        match self {
            QueryOutput::Scalar(v) => Some(v),
            _ => None,
        }
    }

    /// Frame payload if this is a frame.
    pub fn as_frame(&self) -> Option<&DataFrame> {
        match self {
            QueryOutput::Frame(f) => Some(f),
            _ => None,
        }
    }

    /// Number of rows/values in the output (1 for scalars and rows).
    pub fn len(&self) -> usize {
        match self {
            QueryOutput::Frame(f) => f.len(),
            QueryOutput::Series { values, .. } => values.len(),
            QueryOutput::Scalar(_) | QueryOutput::Row(_) => 1,
        }
    }

    /// True when there is no data at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Convert any output shape into a plottable frame.
    ///
    /// Frames pass through; scalars, series, and rows become two-column
    /// `label`/`value` tables (rows keep only their numeric entries) — the
    /// shape bar-chart renderers consume. This is the single home of the
    /// conversions the agent's plot tool used to hand-roll.
    pub fn into_frame(self) -> Result<DataFrame, FrameError> {
        match self {
            QueryOutput::Frame(f) => Ok(f),
            QueryOutput::Scalar(v) => DataFrame::from_columns(vec![
                ("label", vec![Value::from("value")]),
                ("value", vec![v]),
            ]),
            QueryOutput::Series { name, values } => DataFrame::from_columns(vec![
                (
                    "label".to_string(),
                    (0..values.len())
                        .map(|i| Value::from(format!("{name}[{i}]")))
                        .collect(),
                ),
                ("value".to_string(), values),
            ]),
            QueryOutput::Row(m) => {
                let (labels, values): (Vec<Value>, Vec<Value>) = m
                    .iter()
                    .filter(|(_, v)| v.is_number())
                    .map(|(k, v)| (Value::from(k.as_str()), v.clone()))
                    .unzip();
                DataFrame::from_columns(vec![
                    ("label".to_string(), labels),
                    ("value".to_string(), values),
                ])
            }
        }
    }

    /// Human-readable rendering (what the agent displays).
    pub fn render(&self) -> String {
        match self {
            QueryOutput::Frame(f) => dataframe::render(f, dataframe::DisplayOptions::default()),
            QueryOutput::Series { name, values } => {
                let mut out = format!("{name}:\n");
                for v in values.iter().take(30) {
                    out.push_str("  ");
                    out.push_str(&v.display_plain());
                    out.push('\n');
                }
                if values.len() > 30 {
                    out.push_str(&format!("  … ({} values)\n", values.len()));
                }
                out
            }
            QueryOutput::Scalar(v) => v.display_plain(),
            QueryOutput::Row(m) => {
                let mut out = String::new();
                for (k, v) in m {
                    out.push_str(&format!("{k}: {}\n", v.display_plain()));
                }
                out
            }
        }
    }
}

/// Errors raised during execution.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// Underlying frame error (unknown column etc.).
    Frame(FrameError),
    /// A stage was applied to an incompatible intermediate state.
    InvalidStage {
        /// Stage tag.
        stage: &'static str,
        /// State tag (`frame`, `series`, `grouped`, ...).
        state: &'static str,
    },
    /// Arithmetic between non-scalar results.
    NonScalarArithmetic,
    /// Pipeline ended in a non-materializable state (bare group-by).
    UnconsumedGroupBy,
    /// Frame is empty where a value was required.
    EmptyInput,
    /// A graph path primitive reached a frame-only executor — only a
    /// graph-capable store (`prov_db`) can answer it.
    GraphUnsupported,
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Frame(e) => write!(f, "{e}"),
            ExecError::InvalidStage { stage, state } => {
                write!(f, "cannot apply '{stage}' to a {state}")
            }
            ExecError::NonScalarArithmetic => {
                write!(f, "arithmetic requires scalar operands")
            }
            ExecError::UnconsumedGroupBy => {
                write!(f, "groupby must be followed by an aggregation")
            }
            ExecError::EmptyInput => write!(f, "empty input where a value was required"),
            ExecError::GraphUnsupported => {
                write!(f, "graph path primitives require a graph-capable store")
            }
        }
    }
}

impl std::error::Error for ExecError {}

impl From<FrameError> for ExecError {
    fn from(e: FrameError) -> Self {
        ExecError::Frame(e)
    }
}

/// Execute a query against a frame.
pub fn execute(query: &Query, df: &DataFrame) -> Result<QueryOutput, ExecError> {
    match query {
        Query::Pipeline(p) => execute_pipeline(p, df),
        Query::Len(q) => {
            let out = execute(q, df)?;
            Ok(QueryOutput::Scalar(Value::Int(out.len() as i64)))
        }
        Query::Binary(a, op, b) => {
            // The left operand is validated before the right side runs, so
            // a non-scalar left reports NonScalarArithmetic without paying
            // for (or surfacing errors from) the right pipeline.
            let left = scalar_operand(execute(a, df)?)?;
            let right = scalar_operand(execute(b, df)?)?;
            arith_scalars(left, *op, right)
        }
        Query::Number(n) => Ok(QueryOutput::Scalar(Value::Float(*n))),
        Query::Graph(_) => Err(ExecError::GraphUnsupported),
    }
}

/// Coerce one arithmetic operand to its scalar (the `Query::Binary`
/// operand rule, shared with plan-based executors — which must apply it
/// in the same left-then-right order to report identical errors).
pub fn scalar_operand(out: QueryOutput) -> Result<Value, ExecError> {
    match out {
        QueryOutput::Scalar(v) => Ok(v),
        QueryOutput::Series { values, .. } if values.len() == 1 => Ok(values[0].clone()),
        _ => Err(ExecError::NonScalarArithmetic),
    }
}

/// Scalar arithmetic on two validated operands (the `Query::Binary`
/// combination rule, shared with plan-based executors).
pub fn arith_scalars(left: Value, op: ArithOp, right: Value) -> Result<QueryOutput, ExecError> {
    let (Some(x), Some(y)) = (left.as_f64(), right.as_f64()) else {
        return Err(ExecError::NonScalarArithmetic);
    };
    let r = match op {
        ArithOp::Add => x + y,
        ArithOp::Sub => x - y,
        ArithOp::Mul => x * y,
        ArithOp::Div => {
            if y == 0.0 {
                return Err(ExecError::EmptyInput);
            }
            x / y
        }
    };
    Ok(QueryOutput::Scalar(Value::Float(r)))
}

/// Intermediate execution state. Frames are borrowed until a stage
/// produces a new one: the input frame is read in place, never copied,
/// and only stage outputs are owned.
enum State<'a> {
    Frame(Cow<'a, DataFrame>),
    Series(Column),
    Grouped {
        frame: Cow<'a, DataFrame>,
        keys: Vec<String>,
    },
    GroupedSeries {
        frame: Cow<'a, DataFrame>,
        keys: Vec<String>,
        column: String,
    },
    Scalar(Value),
    Row(Map),
}

impl State<'_> {
    fn tag(&self) -> &'static str {
        match self {
            State::Frame(_) => "frame",
            State::Series(_) => "series",
            State::Grouped { .. } => "grouped",
            State::GroupedSeries { .. } => "grouped series",
            State::Scalar(_) => "scalar",
            State::Row(_) => "row",
        }
    }
}

fn execute_pipeline(p: &Pipeline, df: &DataFrame) -> Result<QueryOutput, ExecError> {
    execute_stages(&p.stages, df)
}

/// Execute a bare stage sequence against a frame — the stage machine the
/// pipeline executor and the plan-based pushdown executors share. The
/// stages read `df` in place; a frame is copied only when the pipeline
/// returns its input unchanged (no stage, or only `reset_index`/`round`).
pub fn execute_stages(stages: &[Stage], df: &DataFrame) -> Result<QueryOutput, ExecError> {
    let mut state = State::Frame(Cow::Borrowed(df));
    for stage in stages {
        state = apply_stage(state, stage)?;
    }
    match state {
        State::Frame(f) => Ok(QueryOutput::Frame(f.into_owned())),
        State::Series(c) => Ok(QueryOutput::Series {
            name: c.name().to_string(),
            values: c.values().to_vec(),
        }),
        State::Scalar(v) => Ok(QueryOutput::Scalar(v)),
        State::Row(m) => Ok(QueryOutput::Row(m)),
        State::Grouped { .. } | State::GroupedSeries { .. } => Err(ExecError::UnconsumedGroupBy),
    }
}

fn invalid(stage: &Stage, state: &State) -> ExecError {
    ExecError::InvalidStage {
        stage: stage.tag(),
        state: state.tag(),
    }
}

fn apply_stage<'a>(state: State<'a>, stage: &Stage) -> Result<State<'a>, ExecError> {
    match (state, stage) {
        (State::Frame(f), Stage::Filter(e)) => Ok(owned(f.filter(e))),
        (State::Frame(f), Stage::Select(cols)) => {
            let names: Vec<&str> = cols.iter().map(String::as_str).collect();
            Ok(owned(f.select(&names)?))
        }
        (State::Frame(f), Stage::Col(c)) => Ok(State::Series(f.column_checked(c)?.clone())),
        (State::Frame(f), Stage::GroupBy(keys)) => {
            // Validate keys eagerly for good error messages.
            for k in keys {
                f.column_checked(k)?;
            }
            Ok(State::Grouped {
                frame: f,
                keys: keys.clone(),
            })
        }
        (State::Grouped { frame, keys }, Stage::Col(c)) => {
            frame.column_checked(c)?;
            Ok(State::GroupedSeries {
                frame,
                keys,
                column: c.clone(),
            })
        }
        (State::Series(c), Stage::Agg(f)) => Ok(State::Scalar(c.agg(*f))),
        (
            State::GroupedSeries {
                frame,
                keys,
                column,
            },
            Stage::Agg(f),
        ) => {
            let key_refs: Vec<&str> = keys.iter().map(String::as_str).collect();
            let g = frame.groupby(&key_refs)?;
            Ok(owned(g.agg(&[(column.as_str(), *f)])?))
        }
        (State::Grouped { frame, keys }, Stage::AggMap(specs)) => {
            let key_refs: Vec<&str> = keys.iter().map(String::as_str).collect();
            let g = frame.groupby(&key_refs)?;
            let spec_refs: Vec<(&str, AggFunc)> =
                specs.iter().map(|(c, f)| (c.as_str(), *f)).collect();
            Ok(owned(g.agg(&spec_refs)?))
        }
        (State::Grouped { frame, keys }, Stage::Size) => {
            let key_refs: Vec<&str> = keys.iter().map(String::as_str).collect();
            Ok(owned(frame.groupby(&key_refs)?.size()))
        }
        (State::Frame(f), Stage::SortValues(keys)) => {
            let key_refs: Vec<(&str, bool)> = keys.iter().map(|(k, a)| (k.as_str(), *a)).collect();
            Ok(owned(f.sort_values(&key_refs)?))
        }
        (State::Frame(f), Stage::Head(n)) => Ok(owned(f.head(*n))),
        (State::Frame(f), Stage::Tail(n)) => Ok(owned(f.tail(*n))),
        (State::Series(c), Stage::Head(n)) => {
            let vals: Vec<Value> = c.values().iter().take(*n).cloned().collect();
            Ok(State::Series(Column::new(c.name(), vals)))
        }
        (State::Series(c), Stage::Unique) => Ok(State::Series(Column::new(c.name(), c.unique()))),
        (State::Series(c), Stage::ValueCounts) => {
            let f = DataFrame::from_columns(vec![(c.name().to_string(), c.values().to_vec())])?;
            Ok(owned(f.value_counts(c.name())?))
        }
        (State::Series(c), Stage::Idx { max }) => {
            let idx = if *max { c.idxmax() } else { c.idxmin() };
            Ok(State::Scalar(
                idx.map(|i| Value::Int(i as i64)).unwrap_or(Value::Null),
            ))
        }
        (State::Series(c), Stage::NLargest(n, _)) => {
            Ok(State::Series(series_sorted(&c, false, *n)))
        }
        (State::Series(c), Stage::NSmallest(n, _)) => {
            Ok(State::Series(series_sorted(&c, true, *n)))
        }
        (State::Frame(f), Stage::NLargest(n, col)) => {
            let sorted = f.sort_values(&[(col.as_str(), false)])?;
            Ok(owned(sorted.head(*n)))
        }
        (State::Frame(f), Stage::NSmallest(n, col)) => {
            let sorted = f.sort_values(&[(col.as_str(), true)])?;
            Ok(owned(sorted.head(*n)))
        }
        (State::Frame(f), Stage::DropDuplicates(subset)) => {
            let refs: Vec<&str> = subset.iter().map(String::as_str).collect();
            Ok(owned(f.drop_duplicates(&refs)?))
        }
        (State::Frame(f), Stage::Describe) => Ok(owned(f.describe())),
        (State::Frame(f), Stage::LocIdx { column, max, cell }) => {
            let c = f.column_checked(column)?;
            let idx = if *max { c.idxmax() } else { c.idxmin() };
            let Some(idx) = idx else {
                return Err(ExecError::EmptyInput);
            };
            match cell {
                Some(cc) => {
                    f.column_checked(cc)?;
                    let v = f
                        .column(cc)
                        .and_then(|col| col.get(idx))
                        .cloned()
                        .unwrap_or(Value::Null);
                    Ok(State::Scalar(v))
                }
                None => Ok(State::Row(f.row(idx).ok_or(ExecError::EmptyInput)?)),
            }
        }
        (state @ State::Frame(_), Stage::ResetIndex) => Ok(state),
        (State::Frame(f), Stage::Count) => Ok(State::Scalar(Value::Int(f.len() as i64))),
        (State::Series(c), Stage::Count) => Ok(State::Scalar(Value::Int(c.len() as i64))),
        (State::Scalar(v), Stage::Round(n)) => Ok(State::Scalar(round_value(&v, *n))),
        (State::Series(c), Stage::Round(n)) => {
            let vals: Vec<Value> = c.values().iter().map(|v| round_value(v, *n)).collect();
            Ok(State::Series(Column::new(c.name(), vals)))
        }
        (State::Frame(f), Stage::Round(_)) => Ok(State::Frame(f)),
        (state, stage) => Err(invalid(stage, &state)),
    }
}

/// A stage's output frame.
fn owned<'a>(frame: DataFrame) -> State<'a> {
    State::Frame(Cow::Owned(frame))
}

fn series_sorted(c: &Column, ascending: bool, n: usize) -> Column {
    let mut vals: Vec<Value> = c
        .values()
        .iter()
        .filter(|v| !v.is_null())
        .cloned()
        .collect();
    vals.sort_by(|a, b| {
        let o = a.compare(b);
        if ascending {
            o
        } else {
            o.reverse()
        }
    });
    vals.truncate(n);
    Column::new(c.name(), vals)
}

fn round_value(v: &Value, digits: usize) -> Value {
    match v {
        Value::Float(f) => {
            let m = 10f64.powi(digits as i32);
            Value::Float((f * m).round() / m)
        }
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use prov_model::{TaskMessage, TaskMessageBuilder};

    fn run(text: &str, df: &DataFrame) -> QueryOutput {
        execute(&parse(text).unwrap(), df).unwrap()
    }

    fn chem_frame() -> DataFrame {
        let bonds = [
            ("C-H_1", 99.1, 100.7, 92.9),
            ("C-H_2", 98.6, 100.2, 92.4),
            ("C-C_1", 87.1, 88.9, 81.0),
            ("O-H_1", 104.8, 106.3, 97.9),
            ("C-H_3", 98.9, 100.5, 92.7),
        ];
        let msgs: Vec<TaskMessage> = bonds
            .iter()
            .enumerate()
            .map(|(i, (bond, e, h, g))| {
                TaskMessageBuilder::new(format!("t{i}"), "wf", "run_individual_bde")
                    .generates("bond_id", *bond)
                    .generates("bd_energy", *e)
                    .generates("bd_enthalpy", *h)
                    .generates("bd_free_energy", *g)
                    .span(100.0 + i as f64, 101.0 + i as f64 * 2.0)
                    .host(format!("frontier0008{}", i % 2))
                    .build()
            })
            .collect();
        DataFrame::from_messages(&msgs)
    }

    #[test]
    fn filter_and_count() {
        let df = chem_frame();
        let out = run(r#"len(df[df["bond_id"].str.contains("C-H")])"#, &df);
        assert_eq!(out, QueryOutput::Scalar(Value::Int(3)));
    }

    #[test]
    fn scalar_mean_of_filtered() {
        let df = chem_frame();
        let out = run(
            r#"df[df["bond_id"].str.contains("C-H")]["bd_enthalpy"].mean()"#,
            &df,
        );
        let v = out.as_scalar().unwrap().as_f64().unwrap();
        assert!((v - (100.7 + 100.2 + 100.5) / 3.0).abs() < 1e-9);
    }

    #[test]
    fn loc_idxmax_row_and_cell() {
        let df = chem_frame();
        let out = run(r#"df.loc[df["bd_free_energy"].idxmax()]"#, &df);
        match out {
            QueryOutput::Row(m) => {
                assert_eq!(m.get("bond_id").unwrap().as_str(), Some("O-H_1"))
            }
            other => panic!("expected row, got {other:?}"),
        }
        let out = run(r#"df.loc[df["bd_enthalpy"].idxmin(), "bond_id"]"#, &df);
        assert_eq!(out, QueryOutput::Scalar(Value::Str("C-C_1".into())));
    }

    #[test]
    fn groupby_mean() {
        let df = chem_frame();
        let out = run(r#"df.groupby("hostname")["duration"].mean()"#, &df);
        let f = out.as_frame().unwrap();
        assert_eq!(f.len(), 2);
        assert!(f.has_column("hostname") && f.has_column("duration"));
    }

    #[test]
    fn groupby_aggmap_and_size() {
        let df = chem_frame();
        let out = run(
            r#"df.groupby("hostname").agg({"bd_energy": "max", "duration": "mean"})"#,
            &df,
        );
        let f = out.as_frame().unwrap();
        assert!(f.has_column("bd_energy_max"));
        assert!(f.has_column("duration_mean"));
        let out = run(r#"df.groupby("hostname").size()"#, &df);
        assert_eq!(out.as_frame().unwrap().len(), 2);
    }

    #[test]
    fn sort_head_select() {
        let df = chem_frame();
        let out = run(
            r#"df.sort_values("bd_energy", ascending=False)[["bond_id", "bd_energy"]].head(1)"#,
            &df,
        );
        let f = out.as_frame().unwrap();
        assert_eq!(f.len(), 1);
        assert_eq!(
            f.column("bond_id").unwrap().get(0),
            Some(&Value::Str("O-H_1".into()))
        );
    }

    #[test]
    fn nlargest_equivalent_to_sort_head() {
        let df = chem_frame();
        let a = run(r#"df.nlargest(2, "bd_energy")[["bond_id"]]"#, &df);
        let b = run(
            r#"df.sort_values("bd_energy", ascending=False).head(2)[["bond_id"]]"#,
            &df,
        );
        assert_eq!(a, b);
    }

    #[test]
    fn scalar_arithmetic_between_pipelines() {
        let df = chem_frame();
        let out = run(r#"df["ended_at"].max() - df["started_at"].min()"#, &df);
        let v = out.as_scalar().unwrap().as_f64().unwrap();
        assert!((v - 9.0).abs() < 1e-9);
    }

    #[test]
    fn unique_and_value_counts() {
        let df = chem_frame();
        let out = run(r#"df["hostname"].unique()"#, &df);
        assert_eq!(out.len(), 2);
        let out = run(r#"df["hostname"].value_counts()"#, &df);
        let f = out.as_frame().unwrap();
        assert_eq!(f.column("count").unwrap().get(0), Some(&Value::Int(3)));
    }

    #[test]
    fn unknown_column_error_propagates() {
        let df = chem_frame();
        let err = execute(&parse(r#"df["node"].mean()"#).unwrap(), &df).unwrap_err();
        assert!(matches!(
            err,
            ExecError::Frame(FrameError::UnknownColumn { .. })
        ));
    }

    #[test]
    fn bare_groupby_is_error() {
        let df = chem_frame();
        let err = execute(&parse(r#"df.groupby("hostname")"#).unwrap(), &df).unwrap_err();
        assert_eq!(err, ExecError::UnconsumedGroupBy);
    }

    #[test]
    fn invalid_stage_combination() {
        let df = chem_frame();
        let err = execute(&parse(r#"df.mean()"#).unwrap(), &df).unwrap_err();
        assert!(matches!(err, ExecError::InvalidStage { .. }));
    }

    #[test]
    fn round_applies_to_scalar() {
        let df = chem_frame();
        let out = run(r#"df["bd_energy"].mean().round(1)"#, &df);
        let v = out.as_scalar().unwrap().as_f64().unwrap();
        assert_eq!(v, 97.7);
    }

    #[test]
    fn render_of_outputs() {
        let df = chem_frame();
        assert!(run("df.head(2)", &df).render().contains("bond_id"));
        assert!(!run(r#"df["bond_id"].unique()"#, &df).render().is_empty());
    }

    #[test]
    fn empty_frame_idxmax_is_error() {
        let df = chem_frame().filter(&dataframe::col("bd_energy").gt(dataframe::lit(1e9)));
        let err = execute(&parse(r#"df.loc[df["bd_energy"].idxmax()]"#).unwrap(), &df).unwrap_err();
        assert_eq!(err, ExecError::EmptyInput);
    }

    /// Every `apply_stage` arm, run by the borrowing stage machine, and
    /// the frame operation that arm has always applied, called directly.
    fn stage_cases(df: &DataFrame) -> Vec<(Vec<Stage>, QueryOutput)> {
        use crate::ast::Stage as S;
        use dataframe::{col, lit};
        let frame = QueryOutput::Frame;
        let series = |c: &Column| QueryOutput::Series {
            name: c.name().to_string(),
            values: c.values().to_vec(),
        };
        let energy = df.column("bd_energy").unwrap();
        let hosts = df.column("hostname").unwrap();
        let by_host = || df.groupby(&["hostname"]).unwrap();
        let s = |x: &str| x.to_string();
        let filter = col("bd_energy").gt(lit(95.0));
        let max_at = energy.idxmax().unwrap();
        vec![
            (vec![], frame(df.clone())),
            (vec![S::Filter(filter.clone())], frame(df.filter(&filter))),
            (
                vec![S::Select(vec![s("bond_id"), s("bd_energy")])],
                frame(df.select(&["bond_id", "bd_energy"]).unwrap()),
            ),
            (vec![S::Col(s("bd_energy"))], series(energy)),
            (
                vec![
                    S::GroupBy(vec![s("hostname")]),
                    S::Col(s("duration")),
                    S::Agg(AggFunc::Mean),
                ],
                frame(by_host().agg(&[("duration", AggFunc::Mean)]).unwrap()),
            ),
            (
                vec![
                    S::GroupBy(vec![s("hostname")]),
                    S::AggMap(vec![(s("bd_energy"), AggFunc::Max)]),
                ],
                frame(by_host().agg(&[("bd_energy", AggFunc::Max)]).unwrap()),
            ),
            (
                vec![S::GroupBy(vec![s("hostname")]), S::Size],
                frame(by_host().size()),
            ),
            (
                vec![S::SortValues(vec![(s("bd_energy"), false)])],
                frame(df.sort_values(&[("bd_energy", false)]).unwrap()),
            ),
            (vec![S::Head(2)], frame(df.head(2))),
            (vec![S::Tail(2)], frame(df.tail(2))),
            (
                vec![S::Col(s("bd_energy")), S::Head(2)],
                series(&Column::new("bd_energy", energy.values()[..2].to_vec())),
            ),
            (
                vec![S::Col(s("hostname")), S::Unique],
                series(&Column::new("hostname", hosts.unique())),
            ),
            (
                vec![S::Col(s("hostname")), S::ValueCounts],
                frame(
                    df.select(&["hostname"])
                        .unwrap()
                        .value_counts("hostname")
                        .unwrap(),
                ),
            ),
            (
                vec![S::Col(s("bd_energy")), S::Idx { max: true }],
                QueryOutput::Scalar(Value::Int(max_at as i64)),
            ),
            (
                vec![S::Col(s("bd_energy")), S::NLargest(2, String::new())],
                series(&series_sorted(energy, false, 2)),
            ),
            (
                vec![S::Col(s("bd_energy")), S::NSmallest(2, String::new())],
                series(&series_sorted(energy, true, 2)),
            ),
            (
                vec![S::NLargest(2, s("bd_energy"))],
                frame(df.sort_values(&[("bd_energy", false)]).unwrap().head(2)),
            ),
            (
                vec![S::NSmallest(2, s("bd_energy"))],
                frame(df.sort_values(&[("bd_energy", true)]).unwrap().head(2)),
            ),
            (
                vec![S::DropDuplicates(vec![s("hostname")])],
                frame(df.drop_duplicates(&["hostname"]).unwrap()),
            ),
            (vec![S::Describe], frame(df.describe())),
            (
                vec![S::LocIdx {
                    column: s("bd_energy"),
                    max: true,
                    cell: Some(s("bond_id")),
                }],
                QueryOutput::Scalar(df.column("bond_id").unwrap().get(max_at).unwrap().clone()),
            ),
            (
                vec![S::LocIdx {
                    column: s("bd_energy"),
                    max: true,
                    cell: None,
                }],
                QueryOutput::Row(df.row(max_at).unwrap()),
            ),
            (vec![S::ResetIndex], frame(df.clone())),
            (
                vec![S::Count],
                QueryOutput::Scalar(Value::Int(df.len() as i64)),
            ),
            (
                vec![S::Col(s("bd_energy")), S::Count],
                QueryOutput::Scalar(Value::Int(energy.len() as i64)),
            ),
            (
                vec![S::Col(s("bd_energy")), S::Agg(AggFunc::Mean)],
                QueryOutput::Scalar(energy.agg(AggFunc::Mean)),
            ),
            (
                vec![S::Col(s("bd_energy")), S::Agg(AggFunc::Mean), S::Round(1)],
                QueryOutput::Scalar(round_value(&energy.agg(AggFunc::Mean), 1)),
            ),
            (
                vec![S::Col(s("bd_energy")), S::Round(0)],
                series(&Column::new(
                    "bd_energy",
                    energy.values().iter().map(|v| round_value(v, 0)).collect(),
                )),
            ),
            (vec![S::Round(1)], frame(df.clone())),
        ]
    }

    #[test]
    fn every_stage_arm_matches_its_frame_operation() {
        let df = chem_frame();
        for (stages, want) in stage_cases(&df) {
            assert_eq!(execute_stages(&stages, &df).unwrap(), want, "{stages:?}");
        }
    }

    #[test]
    fn execute_leaves_its_input_frame_unchanged() {
        let df = chem_frame();
        let before = df.clone();
        for (stages, _) in stage_cases(&df) {
            execute_stages(&stages, &df).unwrap();
        }
        for text in [
            r#"len(df[df["bond_id"].str.contains("C-H")])"#,
            r#"df.sort_values("bd_energy", ascending=False)[["bond_id"]].head(1)"#,
            r#"df.groupby("hostname")["duration"].mean()"#,
            r#"df["ended_at"].max() - df["started_at"].min()"#,
        ] {
            run(text, &df);
        }
        assert_eq!(df, before);
    }

    #[test]
    fn stageless_pipeline_returns_an_equal_owned_frame() {
        let df = chem_frame();
        let QueryOutput::Frame(out) = run("df", &df) else {
            panic!("a bare `df` is a frame");
        };
        assert_eq!(out, df);
        // Owned: dropping the input leaves the answer intact.
        drop(df);
        assert_eq!(out.len(), 5);
        assert!(out.has_column("bond_id"));
    }
}
