//! # agent-core
//!
//! The paper's primary contribution: the provenance AI agent reference
//! architecture (§4) —
//!
//! * [`context::ContextManager`] — subscribes to the streaming hub and
//!   maintains the in-memory context (a shared DataFrame of recent task
//!   messages, updated in O(one row) per ingest), the
//!   [`schema::DynamicDataflowSchema`], and the session
//!   [`guidelines::Guidelines`]; `docs/live_context.md` covers the window,
//!   its copy-on-write frame and the per-column state the prompt reads;
//! * [`prompt::PromptBuilder`] / [`prompt::RagStrategy`] — the RAG pipeline
//!   assembling Table-2 prompt configurations;
//! * [`tools`] — MCP-shaped tools (in-memory query, provenance-DB query,
//!   plot, anomaly scan, guideline store, PROV-graph traversal) behind a
//!   BYOT registry;
//! * [`autofix::AutoFixer`] — the feedback-driven query auto-fixer of
//!   §5.4's future work: diagnose → repair → re-execute → suggest
//!   guideline;
//! * [`monitor::ContextMonitor`] + [`anomaly::AnomalyDetector`] — rule-driven
//!   inspection and anomaly tagging/republish;
//! * [`dashboard::Dashboard`] — the Grafana-style live status board over
//!   the same context (Fig 2's dashboard consumer);
//! * [`mcp::McpServer`] — JSON-RPC MCP surface (tools/prompts/resources);
//! * [`agent::ProvenanceAgent`] — the chat loop: route → prompt → LLM →
//!   parse → execute → summarize, with the agent's own tool executions and
//!   LLM interactions recorded as W3C-PROV task messages.

#![warn(missing_docs)]

pub mod agent;
pub mod anomaly;
pub mod autofix;
pub mod context;
pub mod dashboard;
pub mod guidelines;
pub mod mcp;
pub mod monitor;
pub mod plot;
pub mod prompt;
pub mod schema;
pub mod tools;

pub use agent::{AgentConfig, AgentReply, ProvenanceAgent};
pub use anomaly::{Anomaly, AnomalyConfig, AnomalyDetector};
pub use autofix::{AutoFixer, Diagnosis, FixProposal};
pub use context::{ContextConfig, ContextFeeder, ContextManager};
pub use dashboard::{Dashboard, DashboardSnapshot};
pub use guidelines::{Guidelines, STATIC_GUIDELINES};
pub use mcp::{request as mcp_request, McpServer};
pub use monitor::{ContextMonitor, MonitorRule, TickReport};
pub use plot::BarChart;
pub use prompt::{PromptBuilder, RagStrategy};
pub use schema::{ActivitySchema, DynamicDataflowSchema, FieldInfo};
pub use tools::{args as tool_args, Tool, ToolContext, ToolError, ToolOutput, ToolRegistry};
