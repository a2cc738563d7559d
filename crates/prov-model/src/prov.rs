//! W3C PROV extension (§2.3, §4.2).
//!
//! The provenance database records task messages in this model: tasks
//! become `prov:Activity` nodes of its graph, and agents (human or AI)
//! attach via `wasAssociatedWith`. Agent tool executions and LLM
//! interactions reuse the same task schema and link to each other, and to
//! the tasks they depend on, with `wasInformedBy`. [`ProvRelation`] names
//! the relations.

/// PROV relation types used by the architecture (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProvRelation {
    /// Activity `used` Entity.
    Used,
    /// Entity `wasGeneratedBy` Activity.
    WasGeneratedBy,
    /// Activity `wasInformedBy` Activity (tool execution ← LLM interaction).
    WasInformedBy,
    /// Activity `wasAssociatedWith` Agent.
    WasAssociatedWith,
    /// Entity `wasDerivedFrom` Entity (dataflow lineage).
    WasDerivedFrom,
    /// Entity `wasAttributedTo` Agent.
    WasAttributedTo,
}

impl ProvRelation {
    /// PROV-N style name.
    pub fn as_str(self) -> &'static str {
        match self {
            ProvRelation::Used => "prov:used",
            ProvRelation::WasGeneratedBy => "prov:wasGeneratedBy",
            ProvRelation::WasInformedBy => "prov:wasInformedBy",
            ProvRelation::WasAssociatedWith => "prov:wasAssociatedWith",
            ProvRelation::WasDerivedFrom => "prov:wasDerivedFrom",
            ProvRelation::WasAttributedTo => "prov:wasAttributedTo",
        }
    }
}
