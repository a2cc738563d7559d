//! The Provenance AI Agent (§4): natural-language chat over live workflow
//! provenance, with routed tools, RAG prompts, and self-provenance.
//!
//! Every tool invocation is recorded as a workflow task (a subclass of
//! `prov:Activity`) and every LLM interaction likewise, linked via
//! `wasInformedBy`, with the agent registered as `prov:Agent` (§4.2).

use crate::context::ContextManager;
use crate::plot::BarChart;
use crate::prompt::{PromptBuilder, RagStrategy};
use crate::tools::{args, ToolContext, ToolRegistry};
use dataframe::DataFrame;
use llm_sim::{classify, ChatRequest, IntentKind, LlmServer, Route};
use prov_db::ProvenanceDatabase;
use prov_model::{obj, MessageType, SharedClock, TaskMessageBuilder, Value};
use prov_stream::{topics, StreamingHub};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Agent configuration.
pub struct AgentConfig {
    /// RAG strategy used to build prompts (default: Full).
    pub strategy: RagStrategy,
    /// Experiment seed threaded into the LLM service.
    pub seed: u64,
    /// Record the agent's own tool/LLM provenance to the hub.
    pub record_provenance: bool,
    /// Agent identity registered as `prov:Agent`.
    pub agent_id: String,
    /// Enable the feedback-driven auto-fixer (§5.4 future work): failed
    /// queries are diagnosed, repaired, re-executed, and generalized into
    /// session guidelines. Off by default — the paper's baseline flow
    /// surfaces the error to the user instead.
    pub autofix: bool,
}

impl Default for AgentConfig {
    fn default() -> Self {
        Self {
            strategy: RagStrategy::Full,
            seed: 0x5EED,
            record_provenance: true,
            agent_id: "provenance-agent".to_string(),
            autofix: false,
        }
    }
}

/// One chat reply.
#[derive(Debug)]
pub struct AgentReply {
    /// Routing decision taken.
    pub route: Route,
    /// Natural-language answer/summary.
    pub text: String,
    /// The generated query code, when the LLM produced one (the GUI always
    /// displays it for transparency, §5.4).
    pub code: Option<String>,
    /// Tabular result, when produced.
    pub table: Option<DataFrame>,
    /// Chart, when produced.
    pub chart: Option<BarChart>,
    /// Execution/parse error surfaced to the user, when any.
    pub error: Option<String>,
    /// Simulated LLM latency (ms); 0 for LLM-free paths.
    pub latency_ms: f64,
    /// Total LLM tokens consumed (input + output); 0 for LLM-free paths.
    pub tokens: usize,
}

/// The provenance agent.
pub struct ProvenanceAgent {
    /// Live context handle.
    pub context: Arc<ContextManager>,
    hub: StreamingHub,
    llm: Box<dyn LlmServer>,
    registry: ToolRegistry,
    tool_ctx: ToolContext,
    config: AgentConfig,
    clock: SharedClock,
    interactions: AtomicU64,
}

impl ProvenanceAgent {
    /// Assemble an agent over a context, hub, LLM endpoint and optional
    /// persistent database.
    pub fn new(
        context: Arc<ContextManager>,
        hub: StreamingHub,
        llm: Box<dyn LlmServer>,
        db: Option<Arc<ProvenanceDatabase>>,
        clock: SharedClock,
        config: AgentConfig,
    ) -> Self {
        let tool_ctx = ToolContext {
            context: context.clone(),
            db,
            hub: hub.clone(),
        };
        Self {
            context,
            hub,
            llm,
            registry: ToolRegistry::with_builtins(),
            tool_ctx,
            config,
            clock,
            interactions: AtomicU64::new(0),
        }
    }

    /// Register an additional tool (BYOT).
    pub fn register_tool(&mut self, tool: Box<dyn crate::tools::Tool>) {
        self.registry.register(tool);
    }

    /// The model behind this agent.
    pub fn model(&self) -> llm_sim::ModelId {
        self.llm.model()
    }

    /// Handle one user message.
    pub fn chat(&self, user: &str) -> AgentReply {
        let route = classify(user);
        match route {
            Route::Greeting => AgentReply {
                route,
                text: "Hello! I am the provenance agent. Ask me about the tasks, telemetry, \
                       and data of your running workflow."
                    .to_string(),
                code: None,
                table: None,
                chart: None,
                error: None,
                latency_ms: 0.0,
                tokens: 0,
            },
            Route::GuidelineAddition => {
                let out = self
                    .registry
                    .call(
                        "add_guideline",
                        &args(&[("text", Value::from(user))]),
                        &self.tool_ctx,
                    )
                    .expect("builtin guideline tool");
                self.record_tool_execution("add_guideline", user, &out.rendered, None);
                AgentReply {
                    route,
                    text: out.rendered,
                    code: None,
                    table: None,
                    chart: None,
                    error: None,
                    latency_ms: 0.0,
                    tokens: 0,
                }
            }
            Route::GraphQuery => self.graph_flow(user),
            Route::MonitorQuery | Route::HistoricalQuery | Route::Plot => {
                self.query_flow(user, route)
            }
        }
    }

    /// Multi-hop lineage/impact/path queries: rule-based, LLM-free, served
    /// by the graph tool over the persistent PROV graph (§5.4's "deep graph
    /// traversals over persistent provenance databases").
    fn graph_flow(&self, user: &str) -> AgentReply {
        let tool_args = args(&[("question", Value::from(user))]);
        match self
            .registry
            .call("graph_query", &tool_args, &self.tool_ctx)
        {
            Ok(out) => {
                self.record_tool_execution("graph_query", user, &out.rendered, None);
                AgentReply {
                    route: Route::GraphQuery,
                    text: out.rendered,
                    code: None,
                    table: out.table,
                    chart: None,
                    error: None,
                    latency_ms: 0.0,
                    tokens: 0,
                }
            }
            Err(e) => {
                self.record_tool_execution("graph_query", user, &e.to_string(), None);
                AgentReply {
                    route: Route::GraphQuery,
                    text: format!(
                        "I could not run that graph traversal: {e}. Mention a task id that \
                         exists in the provenance database (historical queries need the \
                         persistent database attached)."
                    ),
                    code: None,
                    table: None,
                    chart: None,
                    error: Some(e.to_string()),
                    latency_ms: 0.0,
                    tokens: 0,
                }
            }
        }
    }

    fn query_flow(&self, user: &str, route: Route) -> AgentReply {
        let system = PromptBuilder::system(self.config.strategy, &self.context);
        let request = ChatRequest {
            system,
            user: user.to_string(),
            temperature: 0.0,
            run: 0,
            seed: self.config.seed,
        };
        let response = self.llm.chat(&request);
        let llm_task_id = self.record_llm_interaction(user, &response);
        let (latency_ms, tokens) = (response.latency_ms, response.total_tokens());

        if !response.is_code {
            return AgentReply {
                route,
                text: response.text,
                code: None,
                table: None,
                chart: None,
                error: None,
                latency_ms,
                tokens,
            };
        }

        let tool = match route {
            Route::Plot => "plot",
            // Historical questions go to the persistent database, where
            // the query is planned against a pinned snapshot and pushed
            // into the store's indexes and column vectors (`provql::plan`
            // + `prov_db::execute_plan`) instead of re-materializing the
            // whole corpus per question.
            Route::HistoricalQuery => "provdb_query",
            _ => "in_memory_query",
        };
        let tool_args = args(&[
            ("code", Value::from(response.text.as_str())),
            ("title", Value::from(user)),
        ]);
        match self.registry.call(tool, &tool_args, &self.tool_ctx) {
            Ok(out) => {
                self.record_tool_execution(
                    tool,
                    &response.text,
                    &out.rendered,
                    llm_task_id.as_deref(),
                );
                let text = summarize(user, response.intent, &out.content, out.chart.is_some());
                AgentReply {
                    route,
                    text,
                    code: Some(response.text),
                    table: out.table,
                    chart: out.chart,
                    error: None,
                    latency_ms,
                    tokens,
                }
            }
            Err(e) => {
                // §5.4: the GUI shows the generated code and the runtime
                // error so the user can correct it or add a guideline.
                self.record_tool_execution(
                    tool,
                    &response.text,
                    &e.to_string(),
                    llm_task_id.as_deref(),
                );
                if self.config.autofix {
                    if let Some(reply) =
                        self.autofix_flow(user, route, tool, &response, &e, llm_task_id.as_deref())
                    {
                        return reply;
                    }
                }
                AgentReply {
                    route,
                    text: format!(
                        "I generated a query but it failed to run. You can rephrase, correct \
                         the code, or teach me a guideline. Error: {e}"
                    ),
                    code: Some(response.text),
                    table: None,
                    chart: None,
                    error: Some(e.to_string()),
                    latency_ms,
                    tokens,
                }
            }
        }
    }

    /// The feedback-driven auto-fixer pass (§5.4): diagnose the failed
    /// query, repair it, re-execute, and store the generalized guideline so
    /// future prompts avoid the mistake. Returns `None` when no mechanical
    /// repair applies (the baseline error reply is used instead).
    fn autofix_flow(
        &self,
        user: &str,
        route: Route,
        tool: &str,
        response: &llm_sim::ChatResponse,
        error: &crate::tools::ToolError,
        llm_task_id: Option<&str>,
    ) -> Option<AgentReply> {
        let columns = self.context.columns();
        let fixer = crate::autofix::AutoFixer::new();
        // Iterative repair: a chatty response may hide a second defect
        // (e.g. prose wrapping *and* a hallucinated column), so diagnose →
        // repair → re-execute up to three rounds.
        let mut code = response.text.clone();
        let mut err = error.to_string();
        let mut notes: Vec<String> = Vec::new();
        let mut guidelines: Vec<String> = Vec::new();
        for _round in 0..3 {
            let proposal = fixer.propose(&code, &err, &columns)?;
            notes.push(proposal.note.clone());
            if let Some(g) = &proposal.guideline {
                guidelines.push(g.clone());
            }
            code = proposal.fixed_code;
            let retry_args = args(&[
                ("code", Value::from(code.as_str())),
                ("title", Value::from(user)),
            ]);
            match self.registry.call(tool, &retry_args, &self.tool_ctx) {
                Ok(out) => {
                    self.record_tool_execution(
                        "auto_fixer",
                        &format!("code: {} | error: {error}", response.text),
                        &notes.join("; "),
                        llm_task_id,
                    );
                    self.record_tool_execution(tool, &code, &out.rendered, llm_task_id);
                    // Generalize the repairs into session guidelines:
                    // subsequent prompts carry them, so the LLM stops
                    // making these mistakes.
                    for g in &guidelines {
                        self.context.guidelines.add_user(g);
                    }
                    let summary =
                        summarize(user, response.intent, &out.content, out.chart.is_some());
                    return Some(AgentReply {
                        route,
                        text: format!("{} ({})", summary, notes.join("; ")),
                        code: Some(code),
                        table: out.table,
                        chart: out.chart,
                        error: None,
                        latency_ms: response.latency_ms,
                        tokens: response.total_tokens(),
                    });
                }
                Err(e) => err = e.to_string(),
            }
        }
        None
    }

    /// Record an LLM interaction as a task-shaped provenance message with
    /// prompts in `used` and the response in `generated` (§4.2).
    fn record_llm_interaction(
        &self,
        user: &str,
        response: &llm_sim::ChatResponse,
    ) -> Option<String> {
        if !self.config.record_provenance {
            return None;
        }
        let n = self.interactions.fetch_add(1, Ordering::Relaxed);
        let now = self.clock.now();
        let task_id = format!("agent-llm-{n}");
        let msg = TaskMessageBuilder::new(task_id.clone(), "agent-session", "llm_chat")
            .msg_type(MessageType::LlmInteraction)
            .agent(self.config.agent_id.as_str())
            .used(obj! {
                "user_query" => user,
                "model" => self.llm.model().name(),
                "strategy" => self.config.strategy.label(),
                "input_tokens" => response.input_tokens,
            })
            .generated(obj! {
                "response" => response.text.as_str(),
                "is_code" => response.is_code,
                "output_tokens" => response.output_tokens,
            })
            .span(now, now + response.latency_ms / 1000.0)
            .host("agent-node")
            .build();
        let _ = self.hub.publish(topics::AGENT, msg);
        Some(task_id)
    }

    /// Record a tool execution, linked to the LLM interaction that informed
    /// it via `wasInformedBy` (`depends_on` in the message schema).
    fn record_tool_execution(
        &self,
        tool: &str,
        input: &str,
        output: &str,
        informed_by: Option<&str>,
    ) {
        if !self.config.record_provenance {
            return;
        }
        let n = self.interactions.fetch_add(1, Ordering::Relaxed);
        let now = self.clock.now();
        let mut builder = TaskMessageBuilder::new(format!("agent-tool-{n}"), "agent-session", tool)
            .msg_type(MessageType::ToolExecution)
            .agent(self.config.agent_id.as_str())
            .used(obj! {"input" => input})
            .generated(obj! {"output" => output.chars().take(500).collect::<String>()})
            .span(now, now + 0.002)
            .host("agent-node");
        if let Some(llm_id) = informed_by {
            builder = builder.depends_on(llm_id);
        }
        let _ = self.hub.publish(topics::AGENT, builder.build());
    }
}

/// Unit implied by a snake_case identifier's suffix, when the question
/// names a field verbatim (`melt_pool_temp_c` → °C, `energy_density_j_mm3`
/// → J/mm³).
fn unit_from_identifier(text: &str) -> Option<&'static str> {
    for token in text.split(|c: char| !(c.is_alphanumeric() || c == '_')) {
        if !token.contains('_') {
            continue;
        }
        let unit = if token.ends_with("_j_mm3") {
            Some("J/mm³")
        } else if token.ends_with("_temp_c") || token.ends_with("_deviation_c") {
            Some("°C")
        } else if token.ends_with("_um") {
            Some("µm")
        } else if token.ends_with("_pct") {
            Some("%")
        } else if token.ends_with("_mm_s") {
            Some("mm/s")
        } else if token.ends_with("_mm") {
            Some("mm")
        } else if token.ends_with("_khz") {
            Some("kHz")
        } else if token.ends_with("_mb") || token.ends_with("_mb_end") {
            Some("MB")
        } else {
            None
        };
        if unit.is_some() {
            return unit;
        }
    }
    None
}

/// Produce the textual summary accompanying a result.
///
/// Chemistry enrichment mirrors §5.3: multiplicity/charge answers gain
/// "singlet state" / "neutral charge" terminology (Q6); energy scalars
/// carry a unit — inferred correctly when row context identified the value
/// (Q1), but guessed wrong (kJ/mol) when the query returned a bare scalar
/// without its bond (the Q3 behavior).
fn summarize(user: &str, intent: IntentKind, content: &Value, charted: bool) -> String {
    let u = user.to_lowercase();
    if charted {
        return "Here is the chart you asked for, built from the live provenance buffer."
            .to_string();
    }
    match content {
        Value::Int(n) if intent == IntentKind::Count => {
            format!("There are {n} matching tasks.")
        }
        v if v.is_number() => {
            let x = v.as_f64().unwrap_or(0.0);
            // Self-describing field names win: a verbatim identifier with a
            // unit suffix (…_j_mm3, …_um) pins the unit mechanically, the
            // same metadata-driven inference the schema enables (§5.3 Q1).
            if let Some(unit) = unit_from_identifier(&u) {
                return format!("The answer is {x:.4} {unit}.");
            }
            let unit = if u.contains("energy") || u.contains("enthalpy") {
                if intent == IntentKind::ExtremeValue {
                    // Bare scalar: no row context to pin the unit — the
                    // agent guesses and gets it wrong (Q3).
                    " kJ/mol"
                } else {
                    " kcal/mol"
                }
            } else if u.contains("duration") || u.contains("long") || u.contains("span") {
                " seconds"
            } else if u.contains("memory") {
                " MB"
            } else if u.contains("cpu") || u.contains("gpu") {
                " %"
            } else {
                ""
            };
            format!("The answer is {x:.4}{unit}.")
        }
        Value::Object(m) if m.contains_key("rows") => {
            let count = m.get("row_count").and_then(Value::as_i64).unwrap_or(0);
            // A single-row table reads like one record; summarize it as
            // such so chemistry enrichment (Q6) applies.
            if count == 1 {
                if let Some(Value::Object(row)) =
                    m.get("rows").and_then(|r| r.get_index(0)).cloned()
                {
                    return summarize(user, intent, &Value::Object(row), charted);
                }
            }
            format!("I found {count} matching rows; the table is shown below.")
        }
        Value::Object(m) => {
            let mut text = String::from("Here is the matching record: ");
            let shown: Vec<String> = m
                .iter()
                .filter(|(k, _)| !k.starts_with("telemetry"))
                .take(8)
                .map(|(k, v)| format!("{k} = {}", v.display_plain()))
                .collect();
            text.push_str(&shown.join(", "));
            // Chemistry enrichment (Q6): spin/charge terminology.
            let mult = m.get("multiplicity").and_then(Value::as_i64);
            let charge = m.get("charge").and_then(Value::as_i64);
            if mult == Some(1) && charge == Some(0) {
                text.push_str(
                    ". This corresponds to a singlet state with neutral charge, as expected \
                     for a closed-shell molecule.",
                );
            }
            text
        }
        Value::Str(s) => format!("The answer is {s}."),
        other => format!("Result: {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llm_sim::{ModelId, SimLlmServer};
    use prov_model::sim_clock;
    use prov_model::TaskMessageBuilder;

    fn agent_with_data(model: ModelId) -> (ProvenanceAgent, prov_stream::Subscription) {
        let hub = StreamingHub::in_memory();
        let agent_sub = hub.subscribe(topics::AGENT);
        let ctx = ContextManager::default_sized();
        for i in 0..30 {
            ctx.ingest(
                TaskMessageBuilder::new(
                    format!("t{i}"),
                    "wf",
                    if i % 2 == 0 {
                        "power"
                    } else {
                        "average_results"
                    },
                )
                .uses("exponent", 2.0)
                .generates("y", i as f64)
                .span(100.0 + i as f64, 101.0 + i as f64 + (i % 5) as f64)
                .host(format!("frontier0008{}", i % 3))
                .build(),
            );
        }
        let agent = ProvenanceAgent::new(
            ctx,
            hub,
            Box::new(SimLlmServer::new(model)),
            None,
            sim_clock(),
            AgentConfig::default(),
        );
        (agent, agent_sub)
    }

    #[test]
    fn greeting_needs_no_llm() {
        let (agent, _sub) = agent_with_data(ModelId::Gpt);
        let reply = agent.chat("Hello!");
        assert_eq!(reply.route, Route::Greeting);
        assert_eq!(reply.tokens, 0);
        assert!(reply.code.is_none());
    }

    #[test]
    fn monitor_query_end_to_end() {
        let (agent, _sub) = agent_with_data(ModelId::Gpt);
        let reply = agent.chat("How many tasks have finished so far?");
        assert_eq!(reply.route, Route::MonitorQuery);
        assert!(reply.code.is_some());
        assert!(reply.error.is_none(), "error: {:?}", reply.error);
        assert!(reply.text.contains("30"), "text: {}", reply.text);
        assert!(reply.tokens > 500);
        assert!(reply.latency_ms > 0.0);
    }

    #[test]
    fn agent_records_its_own_provenance() {
        let (agent, sub) = agent_with_data(ModelId::Gpt);
        agent.chat("How many tasks have finished so far?");
        let msgs = sub.drain();
        assert_eq!(msgs.len(), 2);
        let llm = msgs
            .iter()
            .find(|m| m.msg_type == MessageType::LlmInteraction)
            .expect("llm interaction recorded");
        let tool = msgs
            .iter()
            .find(|m| m.msg_type == MessageType::ToolExecution)
            .expect("tool execution recorded");
        // Tool execution wasInformedBy the LLM interaction (§4.2).
        assert_eq!(tool.depends_on[0], llm.task_id);
        assert_eq!(
            tool.agent_id.as_ref().map(|a| a.as_str()),
            Some("provenance-agent")
        );
    }

    #[test]
    fn guideline_route_stores_and_acknowledges() {
        let (agent, _sub) = agent_with_data(ModelId::Gpt);
        let reply = agent.chat("use the field lr to filter learning rates");
        assert_eq!(reply.route, Route::GuidelineAddition);
        assert_eq!(agent.context.guidelines.user_count(), 1);
        assert!(reply.text.contains("from now on"));
    }

    #[test]
    fn plot_route_produces_chart() {
        let (agent, _sub) = agent_with_data(ModelId::Gpt);
        let reply = agent.chat("Plot a bar graph of the average duration per activity.");
        assert_eq!(reply.route, Route::Plot);
        if reply.error.is_none() {
            let chart = reply.chart.expect("chart");
            assert_eq!(chart.len(), 2);
        }
    }

    /// Stub endpoint that always emits a fixed piece of query code —
    /// deterministic harness for the auto-fixer loop.
    struct FixedCodeServer(&'static str);
    impl llm_sim::LlmServer for FixedCodeServer {
        fn model(&self) -> ModelId {
            ModelId::Llama8B
        }
        fn chat(&self, _req: &llm_sim::ChatRequest) -> llm_sim::ChatResponse {
            llm_sim::ChatResponse {
                text: self.0.to_string(),
                is_code: true,
                intent: llm_sim::IntentKind::GroupAgg,
                input_tokens: 100,
                output_tokens: 20,
                latency_ms: 50.0,
                truncated: false,
            }
        }
    }

    fn agent_with_fixed_code(code: &'static str, autofix: bool) -> ProvenanceAgent {
        let hub = StreamingHub::in_memory();
        let ctx = ContextManager::default_sized();
        for i in 0..10 {
            ctx.ingest(
                TaskMessageBuilder::new(format!("t{i}"), "wf", "power")
                    .generates("y", i as f64)
                    .span(i as f64, i as f64 + 1.0)
                    .host(format!("frontier0008{}", i % 2))
                    .build(),
            );
        }
        ProvenanceAgent::new(
            ctx,
            hub,
            Box::new(FixedCodeServer(code)),
            None,
            sim_clock(),
            AgentConfig {
                autofix,
                ..AgentConfig::default()
            },
        )
    }

    #[test]
    fn autofix_repairs_hallucinated_column_and_learns_guideline() {
        // `node` is the §5.2 hallucination; `hostname` is the real column.
        let agent = agent_with_fixed_code(r#"df.groupby("node")["duration"].mean()"#, true);
        let reply = agent.chat("What is the average duration per host?");
        assert!(
            reply.error.is_none(),
            "autofix should recover: {:?}",
            reply.error
        );
        let code = reply.code.expect("fixed code");
        assert!(code.contains("\"hostname\""), "{code}");
        assert!(reply.text.contains("auto-fixed"), "{}", reply.text);
        // The repair was generalized into a session guideline.
        assert_eq!(agent.context.guidelines.user_count(), 1);
        assert!(agent
            .context
            .guidelines
            .all()
            .iter()
            .any(|g| g.contains("hostname") && g.contains("node")));
    }

    #[test]
    fn autofix_disabled_surfaces_error() {
        let agent = agent_with_fixed_code(r#"df.groupby("node")["duration"].mean()"#, false);
        let reply = agent.chat("What is the average duration per host?");
        assert!(reply.error.is_some());
        assert!(reply.text.contains("failed to run"));
        assert_eq!(agent.context.guidelines.user_count(), 0);
    }

    #[test]
    fn autofix_repairs_truncated_syntax() {
        let agent = agent_with_fixed_code(r#"df["duration"].mean("#, true);
        let reply = agent.chat("What is the average duration?");
        assert!(reply.error.is_none(), "{:?}", reply.error);
        assert_eq!(reply.code.as_deref(), Some(r#"df["duration"].mean()"#));
        // Syntax repairs are one-off: no guideline to generalize.
        assert_eq!(agent.context.guidelines.user_count(), 0);
    }

    #[test]
    fn autofix_iterates_through_prose_and_hallucination() {
        // Two defects at once: prose wrapping AND a hallucinated column —
        // the iterative loop must peel both.
        let agent = agent_with_fixed_code(
            "Sure thing!\n```python\ndf['node'].value_counts()\n```\nEnjoy.",
            true,
        );
        let reply = agent.chat("How many tasks ran on each host?");
        assert!(reply.error.is_none(), "{:?}", reply.error);
        assert_eq!(reply.code.as_deref(), Some("df['hostname'].value_counts()"));
        assert!(reply.text.contains("extracted"), "{}", reply.text);
        assert!(reply.text.contains("hostname"), "{}", reply.text);
        // Both repairs generalized: output-format + field guideline.
        assert_eq!(agent.context.guidelines.user_count(), 2);
    }

    #[test]
    fn autofix_falls_back_when_unrepairable() {
        let agent = agent_with_fixed_code(r#"df["qqq_zzz_www"].mean()"#, true);
        let reply = agent.chat("What is the average of the mystery column?");
        assert!(reply.error.is_some());
        assert!(reply.text.contains("failed to run"));
    }

    #[test]
    fn multi_turn_guideline_teaching_changes_generation() {
        // §4.2's running example end-to-end: an ML-ish workflow carries an
        // `lr` field the heuristics know nothing about. Before teaching,
        // the query misses it; after the user teaches the guideline in
        // natural language, the *same* question compiles against lr.
        let hub = StreamingHub::in_memory();
        let ctx = ContextManager::default_sized();
        for i in 0..20 {
            ctx.ingest(
                TaskMessageBuilder::new(format!("t{i}"), "wf", "train_epoch")
                    .uses("lr", 0.001 * (1 + i % 3) as f64)
                    .generates("loss", 1.0 / (i + 1) as f64)
                    .span(i as f64, i as f64 + 1.0)
                    .build(),
            );
        }
        let agent = ProvenanceAgent::new(
            ctx.clone(),
            hub,
            Box::new(SimLlmServer::new(ModelId::Gpt)),
            None,
            sim_clock(),
            AgentConfig::default(),
        );
        let question = "What is the average learning rate per activity?";

        let before = agent.chat(question);
        let code_before = before.code.clone().expect("code");
        assert!(
            !code_before.contains("\"lr\""),
            "pre-teaching generation should miss lr: {code_before}"
        );

        let teach = agent.chat("use the field lr to filter learning rates");
        assert_eq!(teach.route, Route::GuidelineAddition);

        let after = agent.chat(question);
        let code_after = after.code.clone().expect("code");
        assert!(
            code_after.contains("\"lr\""),
            "post-teaching generation should use lr: {code_after}"
        );
        assert!(after.error.is_none(), "{:?}", after.error);
    }

    #[test]
    fn graph_route_traverses_lineage() {
        let hub = StreamingHub::in_memory();
        let ctx = ContextManager::default_sized();
        let db = ProvenanceDatabase::shared();
        // Chain a -> b -> c (c depends on b depends on a).
        db.insert(
            &TaskMessageBuilder::new("task-a", "wf", "ingest")
                .span(0.0, 1.0)
                .build(),
        );
        db.insert(
            &TaskMessageBuilder::new("task-b", "wf", "transform")
                .depends_on("task-a")
                .span(1.0, 2.0)
                .build(),
        );
        db.insert(
            &TaskMessageBuilder::new("task-c", "wf", "report")
                .depends_on("task-b")
                .span(2.0, 3.0)
                .build(),
        );
        let agent = ProvenanceAgent::new(
            ctx,
            hub,
            Box::new(SimLlmServer::new(ModelId::Gpt)),
            Some(db),
            sim_clock(),
            AgentConfig::default(),
        );
        let reply = agent.chat("Trace the lineage of task-c");
        assert_eq!(reply.route, Route::GraphQuery);
        assert!(reply.error.is_none(), "{:?}", reply.error);
        assert!(reply.text.contains("task-b"), "{}", reply.text);
        assert!(reply.text.contains("task-a"), "{}", reply.text);
        assert_eq!(reply.tokens, 0, "graph traversal is LLM-free");

        let down = agent.chat("What is the downstream impact of task task-a?");
        assert!(down.text.contains("task-c"), "{}", down.text);

        let path = agent.chat("Is there a dependency path between task-a and task-c?");
        assert!(path.text.contains("2 hops"), "{}", path.text);
    }

    #[test]
    fn graph_route_without_db_explains() {
        let (agent, _sub) = agent_with_data(ModelId::Gpt);
        let reply = agent.chat("Trace the lineage of task t3");
        assert_eq!(reply.route, Route::GraphQuery);
        assert!(reply.error.is_some());
        assert!(reply.text.contains("database"));
    }

    #[test]
    fn failures_surface_code_and_error() {
        // A model with guaranteed degradation on a tiny prompt: use a
        // zero-ish strategy so the code references hallucinated fields.
        let hub = StreamingHub::in_memory();
        let ctx = ContextManager::default_sized();
        ctx.ingest(TaskMessageBuilder::new("t0", "wf", "a").build());
        let agent = ProvenanceAgent::new(
            ctx,
            hub,
            Box::new(SimLlmServer::new(ModelId::Llama8B)),
            None,
            sim_clock(),
            AgentConfig {
                strategy: RagStrategy::Baseline,
                ..AgentConfig::default()
            },
        );
        // "each host" without schema → hallucinated "node" column → error.
        let reply = agent.chat("How many tasks ran on each host?");
        if let Some(err) = reply.error {
            assert!(reply.code.is_some());
            assert!(
                err.contains("unknown column") || err.contains("parse"),
                "{err}"
            );
        }
    }
}
