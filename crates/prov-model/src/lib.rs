//! # prov-model
//!
//! Foundation data model for the provenance stack: a JSON-like [`Value`]
//! with an in-repo parser/serializer, identifier types, deterministic
//! clocks, telemetry snapshots, the workflow task provenance message schema
//! (paper Listing 1), the W3C PROV relation names the provenance graph uses,
//! and the static common-field schema the agent injects into prompts.
//!
//! Everything upstack (brokers, databases, DataFrames, the agent, the
//! evaluation harness) speaks these types.

#![warn(missing_docs)]

pub mod clock;
pub mod flatmap;
pub mod ids;
pub mod json;
pub mod message;
pub mod prov;
pub mod schema;
pub mod sym;
pub mod telemetry;
pub mod value;

pub use clock::{sim_clock, system_clock, Clock, SharedClock, SimClock, SystemClock};
pub use ids::{ActivityId, AgentId, CampaignId, IdGenerator, TaskId, WorkflowId};
pub use json::{from_str as json_from_str, to_string as json_to_string, JsonError};
pub use message::{MessageType, TaskMessage, TaskMessageBuilder, TaskStatus};
pub use prov::ProvRelation;
pub use sym::{keys, Sym};
pub use telemetry::{Telemetry, TelemetrySynth};
pub use value::{Map, Value, ValueKind};
