//! MCP-style tools and the tool registry (§4.2).
//!
//! "Monitoring and Post-hoc Query Tools … the architecture is designed to
//! support the addition of new tools ('Bring your own tool') … without
//! requiring changes to the core components." Tools receive JSON arguments
//! and the agent's internal context structures; not all tools require LLM
//! interaction (the anomaly detector does not).

use crate::anomaly::{AnomalyConfig, AnomalyDetector};
use crate::context::ContextManager;
use crate::plot::BarChart;
use dataframe::DataFrame;
use parking_lot::Mutex;
use prov_db::{ProvenanceDatabase, StoreSnapshot};
use prov_model::{obj, Map, Value};
use prov_stream::StreamingHub;
use provql::{execute, parse, QueryOutput};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Everything a tool may touch.
pub struct ToolContext {
    /// The agent's live context.
    pub context: Arc<ContextManager>,
    /// The persistent provenance database (offline queries).
    pub db: Option<Arc<ProvenanceDatabase>>,
    /// The streaming hub (for republishing, e.g. anomaly tags).
    pub hub: StreamingHub,
}

/// Structured output of one tool call.
#[derive(Debug, Clone, PartialEq)]
pub struct ToolOutput {
    /// Machine-readable result.
    pub content: Value,
    /// Human-readable rendering (what the GUI shows).
    pub rendered: String,
    /// Table result, when the tool produced one.
    pub table: Option<DataFrame>,
    /// Chart result, when the tool produced one.
    pub chart: Option<BarChart>,
    /// Execution metadata (not part of the answer): cache behavior, the
    /// store generation the answer is exact as of, etc. Eval runs assert
    /// on this; the GUI may surface it as diagnostics.
    pub meta: Option<Value>,
}

impl ToolOutput {
    fn text(content: Value, rendered: impl Into<String>) -> Self {
        Self {
            content,
            rendered: rendered.into(),
            table: None,
            chart: None,
            meta: None,
        }
    }
}

/// Tool errors.
#[derive(Debug, Clone, PartialEq)]
pub enum ToolError {
    /// No tool registered under that name.
    UnknownTool(String),
    /// Arguments malformed.
    BadArgs(String),
    /// Execution failed (parse/execute errors carry the message the GUI
    /// displays so the user can correct the query, §5.4).
    Exec(String),
}

impl std::fmt::Display for ToolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ToolError::UnknownTool(n) => write!(f, "unknown tool '{n}'"),
            ToolError::BadArgs(m) => write!(f, "bad arguments: {m}"),
            ToolError::Exec(m) => write!(f, "execution failed: {m}"),
        }
    }
}

impl std::error::Error for ToolError {}

/// An MCP-shaped tool.
pub trait Tool: Send + Sync {
    /// Registry name.
    fn name(&self) -> &'static str;
    /// Human description (listed via MCP `tools/list`).
    fn description(&self) -> &'static str;
    /// Whether invoking this tool involves an LLM call.
    fn requires_llm(&self) -> bool {
        false
    }
    /// Invoke with JSON arguments.
    fn call(&self, args: &Value, ctx: &ToolContext) -> Result<ToolOutput, ToolError>;
}

fn arg_str<'a>(args: &'a Value, key: &str) -> Result<&'a str, ToolError> {
    args.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| ToolError::BadArgs(format!("missing string argument '{key}'")))
}

fn run_code_on(frame: &DataFrame, code: &str) -> Result<(QueryOutput, Value), ToolError> {
    let query = parse(code).map_err(|e| ToolError::Exec(format!("query parse error: {e}")))?;
    let out = execute(&query, frame).map_err(|e| ToolError::Exec(e.to_string()))?;
    let content = output_to_value(&out);
    Ok((out, content))
}

fn output_to_value(out: &QueryOutput) -> Value {
    match out {
        QueryOutput::Scalar(v) => v.clone(),
        QueryOutput::Row(m) => Value::object(m.clone()),
        QueryOutput::Series { name, values } => obj! {
            "series" => name.as_str(),
            "values" => Value::array(values.iter().take(100).cloned().collect()),
        },
        QueryOutput::Frame(f) => {
            let rows: Vec<Value> = f.iter_rows().take(100).map(Value::object).collect();
            obj! {"rows" => Value::array(rows), "row_count" => f.len()}
        }
    }
}

/// Executes generated queries against the live in-memory context
/// (the online/monitoring path).
pub struct InMemoryQueryTool;

impl Tool for InMemoryQueryTool {
    fn name(&self) -> &'static str {
        "in_memory_query"
    }
    fn description(&self) -> &'static str {
        "Run a pandas-style query against the in-memory buffer of recent workflow task provenance"
    }
    fn requires_llm(&self) -> bool {
        true
    }
    fn call(&self, args: &Value, ctx: &ToolContext) -> Result<ToolOutput, ToolError> {
        let code = arg_str(args, "code")?;
        let frame = ctx.context.frame();
        let (out, content) = run_code_on(&frame, code)?;
        let table = match &out {
            QueryOutput::Frame(f) => Some(f.clone()),
            _ => None,
        };
        Ok(ToolOutput {
            rendered: out.render(),
            content,
            table,
            chart: None,
            meta: None,
        })
    }
}

/// A tool's pinned [`StoreSnapshot`], shared by the store-backed tools.
#[derive(Default)]
struct SnapshotPin(Mutex<Option<Arc<StoreSnapshot>>>);

impl SnapshotPin {
    /// The current snapshot of `db`: reuse the pinned one while it is
    /// fresh (same database, same generation — the generation probe is
    /// one atomic load), otherwise pin a new one. Pointer identity is
    /// sound here because the pinned snapshot holds the database `Arc`
    /// alive: its address cannot be reused while the pin exists.
    ///
    /// The stale pin is released before the new snapshot is taken: it
    /// may still pin the previous CSR compaction, and the new snapshot's
    /// first graph read extends that compaction in place only when
    /// nothing pins it (otherwise it clones it).
    fn get(&self, db: &Arc<ProvenanceDatabase>) -> Arc<StoreSnapshot> {
        let mut pinned = self.0.lock();
        if let Some(s) = pinned.as_ref() {
            if Arc::ptr_eq(s.database(), db) && s.generation() == db.generation() {
                return s.clone();
            }
        }
        *pinned = None;
        let s = db.snapshot();
        *pinned = Some(s.clone());
        s
    }
}

/// Executes generated queries against the persistent provenance database
/// (the offline/post-hoc path).
///
/// Snapshot-first: the tool pins a [`StoreSnapshot`] and re-pins only
/// when the store generation moves (or the tool is pointed at a different
/// database), so a conversation's worth of queries between ingest bursts
/// never flushes and never waits on the write locks ingest holds. Query
/// execution itself lives in [`StoreSnapshot::query`]: selective plans
/// (every pipeline pushes an index-servable conjunct, a row limit, or a
/// fully-columnar column set) go through the bounded pushdown executor,
/// everything else runs on the snapshot's shared oracle frame, and both
/// routes consult the database-wide plan-keyed result cache
/// ([`prov_db::PlanCache`]) — repeated dashboard queries cost one
/// execution per store generation, across *all* tools and serve workers
/// sharing the database. Cache behavior (hit/miss, counters) and the
/// answer's generation are reported in [`ToolOutput::meta`].
#[derive(Default)]
pub struct ProvDbQueryTool {
    /// The pinned snapshot, refreshed when the generation moves.
    snapshot: SnapshotPin,
}

impl ProvDbQueryTool {
    /// Fresh tool with no pinned snapshot.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Tool for ProvDbQueryTool {
    fn name(&self) -> &'static str {
        "provdb_query"
    }
    fn description(&self) -> &'static str {
        "Run a pandas-style query against the persistent provenance database (historical data)"
    }
    fn requires_llm(&self) -> bool {
        true
    }
    fn call(&self, args: &Value, ctx: &ToolContext) -> Result<ToolOutput, ToolError> {
        let code = arg_str(args, "code")?;
        let db = ctx
            .db
            .as_ref()
            .ok_or_else(|| ToolError::Exec("no provenance database attached".to_string()))?;
        let query = parse(code).map_err(|e| ToolError::Exec(format!("query parse error: {e}")))?;
        let snap = self.snapshot.get(db);
        let (result, outcome) = snap.query(&query);
        let out = result.map_err(|e| ToolError::Exec(e.to_string()))?;
        let content = output_to_value(&out);
        let table = match &*out {
            QueryOutput::Frame(f) => Some(f.clone()),
            _ => None,
        };
        let stats = db.plan_cache().stats();
        let pager = db.pager_stats();
        let meta = obj! {
            "cache" => outcome.as_str(),
            "generation" => snap.generation() as i64,
            "cache_hits" => stats.hits as i64,
            "cache_misses" => stats.misses as i64,
            "cache_evictions" => stats.evictions as i64,
            "cache_entries" => stats.entries as i64,
            "cache_bytes" => stats.bytes as i64,
            "pager_hits" => pager.hits as i64,
            "pager_paged_in" => pager.paged_in as i64,
            "pager_evicted" => pager.evicted as i64,
            "pager_zone_skips" => pager.zone_skips as i64,
            "pager_resident_chunks" => pager.resident_chunks as i64,
            "pager_resident_bytes" => pager.resident_bytes as i64,
        };
        Ok(ToolOutput {
            rendered: out.render(),
            content,
            table,
            chart: None,
            meta: Some(meta),
        })
    }
}

/// Runs a data query and renders the result as a bar chart (Fig 10).
pub struct PlotTool;

impl Tool for PlotTool {
    fn name(&self) -> &'static str {
        "plot"
    }
    fn description(&self) -> &'static str {
        "Run a query and render the result as a bar chart"
    }
    fn requires_llm(&self) -> bool {
        true
    }
    fn call(&self, args: &Value, ctx: &ToolContext) -> Result<ToolOutput, ToolError> {
        let code = arg_str(args, "code")?;
        let title = args
            .get("title")
            .and_then(Value::as_str)
            .unwrap_or("Query result")
            .to_string();
        let frame = ctx.context.frame();
        let (out, content) = run_code_on(&frame, code)?;
        let chart_frame = out
            .into_frame()
            .map_err(|e| ToolError::Exec(e.to_string()))?;
        let chart = BarChart::from_frame(title, &chart_frame)
            .ok_or_else(|| ToolError::Exec("result is not plottable".to_string()))?;
        Ok(ToolOutput {
            rendered: chart.render_ascii(48),
            content,
            table: Some(chart_frame),
            chart: Some(chart),
            meta: None,
        })
    }
}

/// Scans the context for anomalies and republishes tagged messages —
/// an MCP tool with no LLM involvement (§4.2).
pub struct AnomalyScanTool;

impl Tool for AnomalyScanTool {
    fn name(&self) -> &'static str {
        "anomaly_scan"
    }
    fn description(&self) -> &'static str {
        "Detect statistical anomalies in recent telemetry and dataflow values"
    }
    fn call(&self, args: &Value, ctx: &ToolContext) -> Result<ToolOutput, ToolError> {
        let threshold = args
            .get("z_threshold")
            .and_then(Value::as_f64)
            .unwrap_or(3.5);
        let detector = AnomalyDetector::new(AnomalyConfig {
            z_threshold: threshold,
            ..AnomalyConfig::default()
        });
        let (frame, recent) = ctx.context.frame_with_messages();
        let anomalies = detector.scan_and_publish(&frame, &recent, &ctx.hub);
        let rows: Vec<Value> = anomalies
            .iter()
            .map(|a| {
                obj! {
                    "task_id" => a.task_id.as_str(),
                    "metric" => a.column.as_str(),
                    "value" => a.value,
                    "z_score" => a.z_score,
                }
            })
            .collect();
        let rendered = if anomalies.is_empty() {
            "No anomalies detected.".to_string()
        } else {
            let mut s = format!("{} anomalies detected:\n", anomalies.len());
            for a in &anomalies {
                s.push_str(&format!(
                    "- task {} has {} = {:.3} (z = {:.2})\n",
                    a.task_id, a.column, a.value, a.z_score
                ));
            }
            s
        };
        Ok(ToolOutput::text(
            obj! {"anomalies" => Value::array(rows)},
            rendered,
        ))
    }
}

/// Stores a user-supplied query guideline in the session context (§4.2's
/// dynamic, user-defined guidelines).
pub struct GuidelineTool;

impl Tool for GuidelineTool {
    fn name(&self) -> &'static str {
        "add_guideline"
    }
    fn description(&self) -> &'static str {
        "Store a user-provided query guideline; it overrides conflicting earlier guidance"
    }
    fn call(&self, args: &Value, ctx: &ToolContext) -> Result<ToolOutput, ToolError> {
        let text = arg_str(args, "text")?;
        ctx.context.guidelines.add_user(text);
        Ok(ToolOutput::text(
            obj! {"stored" => true, "total_user_guidelines" => ctx.context.guidelines.user_count()},
            format!("Understood — I will apply this from now on: {text}"),
        ))
    }
}

/// Multi-hop lineage queries over the persistent PROV graph — the deep
/// graph traversals §5.4 lists as an open challenge for DataFrame-bound
/// agents. Rule-based (no LLM): the task id is located in the question by
/// matching tokens against graph nodes, the traversal direction is chosen
/// from causal keywords, and the result is the `prov:wasInformedBy`
/// closure (upstream lineage), its inverse (downstream impact), or the
/// shortest path between two tasks.
///
/// Snapshot-first like [`ProvDbQueryTool`]: the tool pins a
/// [`StoreSnapshot`] per store generation and runs every probe and
/// traversal on the snapshot's CSR graph compaction
/// ([`StoreSnapshot::graph_csr`]) — token probing and multi-hop kernels
/// never take the adjacency `RwLock` and never flush, so lineage
/// questions run in parallel with ingest bursts.
#[derive(Default)]
pub struct GraphQueryTool {
    /// The pinned snapshot, refreshed when the generation moves.
    snapshot: SnapshotPin,
}

/// Traversal direction understood by [`GraphQueryTool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GraphOp {
    Upstream,
    Downstream,
    Path,
}

impl GraphQueryTool {
    /// Default traversal depth when the question does not bound it.
    pub const DEFAULT_DEPTH: usize = 16;

    /// Fresh tool with no pinned snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    fn infer_op(question: &str) -> GraphOp {
        let q = question.to_lowercase();
        if q.contains("path") || q.contains(" to task") || q.contains("between") {
            GraphOp::Path
        } else if q.contains("downstream")
            || q.contains("impact")
            || q.contains("affected")
            || q.contains("informed by it")
            || q.contains("consumed")
        {
            GraphOp::Downstream
        } else {
            // lineage / upstream / derived from / caused / came from
            GraphOp::Upstream
        }
    }

    /// Tokens of the question that name nodes actually present in the
    /// graph, in question order (deduped). Membership probes the pinned
    /// CSR compaction — a hash probe against interned ids, no adjacency
    /// lock, no per-token `GraphNode` clone.
    fn task_ids_in(question: &str, csr: &prov_db::CsrGraph) -> Vec<String> {
        let mut ids = Vec::new();
        for raw in question.split(|c: char| c.is_whitespace() || c == ',' || c == '?') {
            let token = raw.trim_matches(|c: char| {
                c == '\'' || c == '"' || c == '`' || c == '.' || c == ':' || c == ';'
            });
            if token.len() < 2 {
                continue;
            }
            if csr.contains_node(token) && !ids.iter().any(|i| i == token) {
                ids.push(token.to_string());
            }
        }
        ids
    }
}

impl Tool for GraphQueryTool {
    fn name(&self) -> &'static str {
        "graph_query"
    }
    fn description(&self) -> &'static str {
        "Multi-hop causal/lineage traversal over the persistent PROV graph \
         (upstream lineage, downstream impact, shortest path)"
    }
    fn call(&self, args: &Value, ctx: &ToolContext) -> Result<ToolOutput, ToolError> {
        let question = arg_str(args, "question")?;
        let db = ctx
            .db
            .as_ref()
            .ok_or_else(|| ToolError::Exec("no provenance database attached".to_string()))?;
        let depth = args
            .get("depth")
            .and_then(Value::as_i64)
            .map(|d| d.max(1) as usize)
            .unwrap_or(Self::DEFAULT_DEPTH);
        // One pinned snapshot per store generation; every probe and
        // traversal below runs on its CSR compaction — no adjacency lock,
        // no flushing, and repeatable reads across the whole call.
        let snap = self.snapshot.get(db);
        let csr = snap.graph_csr();
        let ids = Self::task_ids_in(question, csr);
        let first = ids.first().ok_or_else(|| {
            ToolError::Exec(
                "no task id found in the question; mention a task id recorded in the \
                 provenance graph"
                    .to_string(),
            )
        })?;
        let op = Self::infer_op(question);

        let describe = |id: &str| -> Value {
            let activity = csr
                .node_props(id)
                .and_then(|p| p.get("activity_id").cloned())
                .unwrap_or(Value::Null);
            obj! {"task_id" => id, "activity_id" => activity}
        };

        match op {
            GraphOp::Path => {
                let second = ids.get(1).ok_or_else(|| {
                    ToolError::Exec(
                        "a path query needs two task ids; only one was found".to_string(),
                    )
                })?;
                // PROV edges point effect → cause (wasInformedBy), so try
                // both directions before giving up. The exact kernel keeps
                // the legacy traversal's tie-breaking (BFS discovery
                // order), so answers are stable across this refactor.
                let path = csr
                    .shortest_path(first, second)
                    .or_else(|| csr.shortest_path(second, first));
                match path {
                    Some(p) => {
                        let hops: Vec<&str> = p.iter().map(|s| s.as_str()).collect();
                        let rendered = format!(
                            "Dependency path ({} hops): {}",
                            hops.len().saturating_sub(1),
                            hops.join(" -> ")
                        );
                        let nodes: Vec<Value> = hops.iter().map(|id| describe(id)).collect();
                        Ok(ToolOutput::text(
                            obj! {"op" => "path", "path" => Value::array(nodes)},
                            rendered,
                        ))
                    }
                    None => Ok(ToolOutput::text(
                        obj! {"op" => "path", "path" => Value::array(vec![])},
                        format!("No dependency path connects {first} and {second}."),
                    )),
                }
            }
            GraphOp::Upstream | GraphOp::Downstream => {
                let hops = if op == GraphOp::Upstream {
                    csr.upstream(first, depth)
                } else {
                    csr.downstream(first, depth)
                };
                let direction = if op == GraphOp::Upstream {
                    "upstream lineage"
                } else {
                    "downstream impact"
                };
                let rows: Vec<Value> = hops
                    .iter()
                    .map(|(id, d)| {
                        let mut v = describe(id);
                        v.insert("depth", *d as i64);
                        v
                    })
                    .collect();
                let mut rendered = format!(
                    "{} of {first}: {} task(s) within {depth} hops",
                    direction,
                    hops.len()
                );
                if !hops.is_empty() {
                    rendered.push('\n');
                    for (id, d) in &hops {
                        let act = csr
                            .node_props(id)
                            .and_then(|p| p.get("activity_id").cloned())
                            .map(|v| v.display_plain())
                            .unwrap_or_default();
                        rendered.push_str(&format!("  [{d}] {id} ({act})\n"));
                    }
                }
                Ok(ToolOutput::text(
                    obj! {
                        "op" => if op == GraphOp::Upstream { "upstream" } else { "downstream" },
                        "root" => first.as_str(),
                        "tasks" => Value::array(rows),
                    },
                    rendered,
                ))
            }
        }
    }
}

/// The tool registry ("Bring your own tool").
#[derive(Default)]
pub struct ToolRegistry {
    tools: BTreeMap<&'static str, Box<dyn Tool>>,
}

impl ToolRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registry preloaded with the built-in tools of §4.2.
    pub fn with_builtins() -> Self {
        let mut r = Self::new();
        r.register(Box::new(InMemoryQueryTool));
        r.register(Box::new(ProvDbQueryTool::new()));
        r.register(Box::new(PlotTool));
        r.register(Box::new(AnomalyScanTool));
        r.register(Box::new(GuidelineTool));
        r.register(Box::new(GraphQueryTool::new()));
        r
    }

    /// Register (or replace) a tool.
    pub fn register(&mut self, tool: Box<dyn Tool>) {
        self.tools.insert(tool.name(), tool);
    }

    /// `(name, description, requires_llm)` listing.
    pub fn list(&self) -> Vec<(&'static str, &'static str, bool)> {
        self.tools
            .values()
            .map(|t| (t.name(), t.description(), t.requires_llm()))
            .collect()
    }

    /// Dispatch a call by name.
    pub fn call(
        &self,
        name: &str,
        args: &Value,
        ctx: &ToolContext,
    ) -> Result<ToolOutput, ToolError> {
        self.tools
            .get(name)
            .ok_or_else(|| ToolError::UnknownTool(name.to_string()))?
            .call(args, ctx)
    }

    /// Number of registered tools.
    pub fn len(&self) -> usize {
        self.tools.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.tools.is_empty()
    }
}

/// Helper to build tool argument objects.
pub fn args(pairs: &[(&str, Value)]) -> Value {
    let mut m = Map::new();
    for (k, v) in pairs {
        m.insert(prov_model::Sym::from(*k), v.clone());
    }
    Value::object(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use prov_model::TaskMessageBuilder;

    fn tool_ctx() -> ToolContext {
        let ctx = ContextManager::default_sized();
        for i in 0..20 {
            ctx.ingest(
                TaskMessageBuilder::new(format!("t{i}"), "wf", if i % 2 == 0 { "a" } else { "b" })
                    .generates("v", i as f64)
                    .span(i as f64, i as f64 + 1.5)
                    .build(),
            );
        }
        let db = ProvenanceDatabase::shared();
        for i in 0..5 {
            db.insert(
                &TaskMessageBuilder::new(format!("h{i}"), "old-wf", "historical")
                    .generates("v", i as f64)
                    .build(),
            );
        }
        ToolContext {
            context: ctx,
            db: Some(db),
            hub: StreamingHub::in_memory(),
        }
    }

    #[test]
    fn in_memory_query_tool_runs_code() {
        let ctx = tool_ctx();
        let registry = ToolRegistry::with_builtins();
        let out = registry
            .call(
                "in_memory_query",
                &args(&[("code", Value::from(r#"len(df[df["activity_id"] == "a"])"#))]),
                &ctx,
            )
            .unwrap();
        assert_eq!(out.content, Value::Int(10));
    }

    #[test]
    fn parse_errors_surface_to_user() {
        let ctx = tool_ctx();
        let registry = ToolRegistry::with_builtins();
        let err = registry
            .call(
                "in_memory_query",
                &args(&[("code", Value::from("SELECT * FROM df"))]),
                &ctx,
            )
            .unwrap_err();
        assert!(matches!(err, ToolError::Exec(_)));
        assert!(err.to_string().contains("parse"));
    }

    #[test]
    fn provdb_tool_sees_historical_data() {
        let ctx = tool_ctx();
        let registry = ToolRegistry::with_builtins();
        let out = registry
            .call(
                "provdb_query",
                &args(&[("code", Value::from("len(df)"))]),
                &ctx,
            )
            .unwrap();
        assert_eq!(out.content, Value::Int(5)); // db rows, not buffer rows
    }

    #[test]
    fn provdb_tool_pushes_selective_queries() {
        let ctx = tool_ctx();
        let registry = ToolRegistry::with_builtins();
        let code = r#"df[df["task_id"] == "h3"]["v"].sum()"#;
        // The query must actually be servable by the pushdown executor —
        // if planning regresses, this query would silently fall back to
        // the oracle and the assertion below would stop meaning anything.
        let snap = ctx.db.as_ref().unwrap().snapshot();
        let query = parse(code).unwrap();
        let plan = provql::plan(&query, &*snap);
        assert!(plan.pipelines().iter().all(|p| p.has_pushdown()));
        assert!(matches!(
            prov_db::execute_plan(&snap, &plan),
            prov_db::Pushdown::Executed(Ok(_))
        ));
        // Selective equality served straight from the store; the answer
        // must match the oracle's.
        let out = registry
            .call("provdb_query", &args(&[("code", Value::from(code))]), &ctx)
            .unwrap();
        assert_eq!(out.content, Value::Float(3.0));
    }

    /// The `meta.cache` outcome string of a tool output.
    fn cache_outcome(out: &ToolOutput) -> &str {
        out.meta
            .as_ref()
            .and_then(|m| m.get("cache"))
            .and_then(Value::as_str)
            .expect("provdb tool reports cache metadata")
    }

    #[test]
    fn provdb_tool_serves_columnar_aggregates_without_the_oracle() {
        let ctx = tool_ctx();
        let db = ctx.db.as_ref().unwrap();
        let tool = ProvDbQueryTool::new();
        // A corpus-wide group-by over columnar fields: no pushed conjunct,
        // no limit — pre-columnar this rebuilt (then cached) the oracle
        // frame; now the scan serves it from the column vectors.
        let out = tool
            .call(
                &args(&[(
                    "code",
                    Value::from(r#"df.groupby("activity_id")["duration"].mean()"#),
                )]),
                &ctx,
            )
            .unwrap();
        assert!(out.table.is_some());
        let snap = tool.snapshot.get(db);
        assert!(
            !snap.oracle_built(),
            "columnar-servable aggregate should not build the oracle frame"
        );
        // And the answer matches the oracle's.
        let oracle = execute(
            &parse(r#"df.groupby("activity_id")["duration"].mean()"#).unwrap(),
            &snap.oracle_frame(),
        )
        .unwrap();
        assert_eq!(out.table.unwrap(), *oracle.as_frame().unwrap());
    }

    #[test]
    fn provdb_tool_serves_topk_without_the_oracle() {
        let ctx = tool_ctx();
        let db = ctx.db.as_ref().unwrap();
        let tool = ProvDbQueryTool::new();
        // "latest N tasks": a leading sort over an orderable key plus a
        // head — pre-PR5 the sort blocked limit pushdown and this rebuilt
        // (then sorted) the whole oracle frame; now it executes as a
        // streaming top-k scan.
        let code =
            r#"df.sort_values("started_at", ascending=False)[["task_id", "started_at"]].head(2)"#;
        let query = parse(code).unwrap();
        let plan = provql::plan(&query, db.as_ref());
        for p in plan.pipelines() {
            assert!(!p.scan.sort.is_empty(), "sort should push");
            assert_eq!(p.scan.limit, Some(2), "head should push through the sort");
        }
        let out = tool
            .call(&args(&[("code", Value::from(code))]), &ctx)
            .unwrap();
        let snap = tool.snapshot.get(db);
        assert!(
            !snap.oracle_built(),
            "top-k should not build the oracle frame"
        );
        let oracle = execute(&query, &snap.oracle_frame()).unwrap();
        assert_eq!(out.table.unwrap(), *oracle.as_frame().unwrap());
    }

    #[test]
    fn provdb_tool_caches_results_per_generation() {
        let ctx = tool_ctx();
        let db = ctx.db.as_ref().unwrap();
        let tool = ProvDbQueryTool::new();
        let run = |code: &str| {
            tool.call(&args(&[("code", Value::from(code))]), &ctx)
                .unwrap()
        };
        // First execution misses, the identical repeat hits the shared
        // plan cache — including an equivalent spelling of the same plan
        // (commuted conjuncts share one canonical key).
        let first = run(r#"df[(df["v"] >= 1) & (df["task_id"] == "h3")][["v"]]"#);
        assert_eq!(cache_outcome(&first), "miss");
        let repeat = run(r#"df[(df["v"] >= 1) & (df["task_id"] == "h3")][["v"]]"#);
        assert_eq!(cache_outcome(&repeat), "hit");
        // An equivalent spelling — commuted conjuncts, float literal —
        // shares the canonical key and hits too.
        let commuted = run(r#"df[(df["task_id"] == "h3") & (df["v"] >= 1.0)][["v"]]"#);
        assert_eq!(cache_outcome(&commuted), "hit");
        assert_eq!(first.content, commuted.content);

        // The pinned snapshot is reused while the generation holds…
        let before = tool.snapshot.get(db);
        assert!(Arc::ptr_eq(&before, &tool.snapshot.get(db)));
        // …and an insert bumps the generation: new snapshot, cache miss,
        // and the new row is visible through the query path.
        db.insert(&TaskMessageBuilder::new("h9", "old-wf", "historical").build());
        let out = run("len(df)");
        assert_eq!(out.content, Value::Int(6));
        let after = tool.snapshot.get(db);
        assert!(!Arc::ptr_eq(&before, &after));
        assert_eq!(after.generation(), before.generation() + 1);
    }

    /// The graph tool drops its stale pin before re-pinning, so nothing
    /// pins the store's CSR compaction when the next generation extends
    /// it: the extension happens in place instead of on a clone.
    #[test]
    fn graph_tool_repin_lets_the_csr_extend_in_place() {
        let ctx = tool_ctx();
        let db = ctx.db.as_ref().unwrap();
        let tool = GraphQueryTool::new();
        let ask = |q: &str| {
            tool.call(&args(&[("question", Value::from(q))]), &ctx)
                .unwrap()
        };
        ask("what is the lineage of h4?");
        let at = Arc::as_ptr(tool.snapshot.get(db).graph_csr());
        db.insert(
            &TaskMessageBuilder::new("h5", "old-wf", "historical")
                .depends_on("h4")
                .build(),
        );
        let out = ask("what is the lineage of h5?");
        assert!(out.rendered.contains("h4"), "{}", out.rendered);
        assert_eq!(Arc::as_ptr(tool.snapshot.get(db).graph_csr()), at);
    }

    #[test]
    fn plot_tool_builds_chart() {
        let ctx = tool_ctx();
        let registry = ToolRegistry::with_builtins();
        let out = registry
            .call(
                "plot",
                &args(&[
                    (
                        "code",
                        Value::from(r#"df.groupby("activity_id")["v"].mean()"#),
                    ),
                    ("title", Value::from("mean v per activity")),
                ]),
                &ctx,
            )
            .unwrap();
        let chart = out.chart.expect("chart");
        assert_eq!(chart.len(), 2);
        assert!(out.rendered.contains("mean v per activity"));
    }

    #[test]
    fn guideline_tool_stores() {
        let ctx = tool_ctx();
        let registry = ToolRegistry::with_builtins();
        registry
            .call(
                "add_guideline",
                &args(&[(
                    "text",
                    Value::from("use the field lr to filter learning rates"),
                )]),
                &ctx,
            )
            .unwrap();
        assert_eq!(ctx.context.guidelines.user_count(), 1);
    }

    #[test]
    fn anomaly_tool_needs_no_llm() {
        let registry = ToolRegistry::with_builtins();
        let listing = registry.list();
        let anomaly = listing
            .iter()
            .find(|(n, _, _)| *n == "anomaly_scan")
            .unwrap();
        assert!(!anomaly.2);
        let query = listing
            .iter()
            .find(|(n, _, _)| *n == "in_memory_query")
            .unwrap();
        assert!(query.2);
    }

    #[test]
    fn unknown_tool_and_byot() {
        let ctx = tool_ctx();
        let mut registry = ToolRegistry::with_builtins();
        assert!(matches!(
            registry.call("nope", &Value::Null, &ctx),
            Err(ToolError::UnknownTool(_))
        ));
        // Bring your own tool.
        struct RowCount;
        impl Tool for RowCount {
            fn name(&self) -> &'static str {
                "row_count"
            }
            fn description(&self) -> &'static str {
                "rows in the buffer"
            }
            fn call(&self, _: &Value, ctx: &ToolContext) -> Result<ToolOutput, ToolError> {
                Ok(ToolOutput::text(
                    Value::Int(ctx.context.len() as i64),
                    "rows",
                ))
            }
        }
        let before = registry.len();
        registry.register(Box::new(RowCount));
        assert_eq!(registry.len(), before + 1);
        let out = registry.call("row_count", &Value::Null, &ctx).unwrap();
        assert_eq!(out.content, Value::Int(20));
    }
}
