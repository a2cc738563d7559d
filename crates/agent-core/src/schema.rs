//! The Dynamic Dataflow Schema (§4.1–4.2) — the paper's key mechanism.
//!
//! "Rather than submitting raw provenance records directly to the LLM
//! service, the system automatically maintains a schema that summarizes how
//! data flow between tasks, what parameters and outputs are captured, and
//! how workflows evolve over time … incrementally inferred at runtime from
//! live provenance streams." Its size depends on workflow *complexity*
//! (number and diversity of activities and fields), never on task count —
//! the property behind the paper's scale-independence claim.

use dataframe::DType;
use llm_sim::markers;
use prov_model::{schema::render_common_schema, TaskMessage};
use std::collections::{BTreeMap, BTreeSet};

/// Per-activity input/output field keys. Dtypes and example values are
/// not kept here: the prompt reads them from the live window
/// ([`MessageWindow`](dataframe::MessageWindow)).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ActivitySchema {
    /// Flattened keys observed under `used`.
    pub used: BTreeSet<String>,
    /// Flattened keys observed under `generated`.
    pub generated: BTreeSet<String>,
    /// How many task messages this activity has produced.
    pub task_count: u64,
}

/// The dynamic dataflow schema: incrementally built, bounded by workflow
/// complexity.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DynamicDataflowSchema {
    activities: BTreeMap<String, ActivitySchema>,
}

impl DynamicDataflowSchema {
    /// Empty schema.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one provenance message into the schema.
    pub fn observe(&mut self, msg: &TaskMessage) {
        let act = self
            .activities
            .entry(msg.activity_id.as_str().to_string())
            .or_default();
        act.task_count += 1;
        for (section, keys) in [
            (&msg.used, &mut act.used),
            (&msg.generated, &mut act.generated),
        ] {
            section.for_each_leaf(&mut |key, _| {
                if !keys.contains(key) {
                    keys.insert(key.to_string());
                }
            });
        }
    }

    /// Number of distinct activities seen.
    pub fn activity_count(&self) -> usize {
        self.activities.len()
    }

    /// Total distinct dataflow fields across activities.
    pub fn field_count(&self) -> usize {
        self.activities
            .values()
            .map(|a| a.used.len() + a.generated.len())
            .sum()
    }

    /// Iterate activities.
    pub fn activities(&self) -> impl Iterator<Item = (&String, &ActivitySchema)> {
        self.activities.iter()
    }

    /// Render the schema prompt section: the common fields (static, §4.2),
    /// then the per-activity dataflow structure. `dtypes` are the live
    /// frame's `(column, dtype)` pairs in column order
    /// ([`MessageWindow::dtypes`](dataframe::MessageWindow::dtypes)), the
    /// authoritative flattened column names, so generated queries always
    /// reference real columns.
    pub fn render_schema<S: AsRef<str>>(
        &self,
        dtypes: impl IntoIterator<Item = (S, DType)>,
    ) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str(markers::SCHEMA);
        out.push('\n');
        out.push_str(
            "Workflow task provenance rows, one per task execution. The dataflow below was \
             inferred incrementally from the live stream; field lists are per activity.\n",
        );
        for (name, dtype) in dtypes {
            let name = name.as_ref();
            let desc = prov_model::schema::common_field(name)
                .map(|f| f.description.to_string())
                .unwrap_or_else(|| self.describe_dataflow_column(name));
            out.push_str(&format!("- {name} ({dtype}): {desc}\n"));
        }
        out.push_str("\nActivity dataflow structure (inputs -> outputs):\n");
        for (activity, a) in &self.activities {
            let used: Vec<&str> = a.used.iter().map(String::as_str).collect();
            let generated: Vec<&str> = a.generated.iter().map(String::as_str).collect();
            out.push_str(&format!(
                "* {activity} [{} tasks]: uses({}) -> generates({})\n",
                a.task_count,
                used.join(", "),
                generated.join(", ")
            ));
        }
        out.push_str(&render_common_schema());
        out
    }

    fn describe_dataflow_column(&self, column: &str) -> String {
        // Strip a possible section prefix applied on collision.
        let bare = column
            .trim_start_matches("used.")
            .trim_start_matches("generated.");
        let mut producers: Vec<&str> = Vec::new();
        let mut consumed = false;
        for (activity, a) in &self.activities {
            if a.generated.contains(bare) {
                producers.push(activity);
            }
            if a.used.contains(bare) {
                consumed = true;
            }
        }
        if !producers.is_empty() {
            format!(
                "application dataflow field generated by {}{}",
                producers.join(", "),
                if consumed {
                    "; also consumed downstream"
                } else {
                    ""
                }
            )
        } else if consumed {
            "application dataflow input parameter".to_string()
        } else if column.starts_with("telemetry_at") {
            "raw telemetry sample".to_string()
        } else {
            "derived provenance field".to_string()
        }
    }

    /// Render the domain-values prompt section ("representative data" /
    /// partial-data RAG strategy, §3): up to three example values per
    /// column of the live frame. `examples` are its `(column, examples)`
    /// pairs in column order
    /// ([`MessageWindow::examples`](dataframe::MessageWindow::examples));
    /// columns without one are left out.
    pub fn render_values<S: AsRef<str>, E: AsRef<[String]>>(
        &self,
        examples: impl IntoIterator<Item = (S, E)>,
    ) -> String {
        let mut out = String::with_capacity(2048);
        out.push_str(markers::VALUES);
        out.push('\n');
        out.push_str(
            "Representative values observed in the live stream (at most three per field) — \
             use them to infer plausible literals, units, and value ranges:\n",
        );
        for (name, seen) in examples {
            let seen = seen.as_ref();
            if !seen.is_empty() {
                out.push_str(&format!("- {}: {}\n", name.as_ref(), seen.join(" | ")));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataframe::DataFrame;
    use llm_sim::PromptSections;
    use prov_model::{obj, TaskMessageBuilder};

    fn msg(i: i64, act: &str) -> TaskMessage {
        TaskMessageBuilder::new(format!("t{i}"), "wf", act)
            .uses("x", i as f64)
            .uses("frags", obj! {"label" => format!("C-H_{i}")})
            .generates("y", i * 2)
            .build()
    }

    #[test]
    fn schema_grows_with_diversity_not_volume() {
        let mut s = DynamicDataflowSchema::new();
        for i in 0..1000 {
            s.observe(&msg(i, "step_a"));
        }
        assert_eq!(s.activity_count(), 1);
        let fields_after_1000 = s.field_count();
        let mut s2 = DynamicDataflowSchema::new();
        s2.observe(&msg(0, "step_a"));
        // 1000 messages of the same activity add no fields beyond 1 message.
        assert_eq!(fields_after_1000, s2.field_count());
        // Nested keys are flattened.
        let (_, act) = s.activities().next().unwrap();
        assert!(act.used.contains("frags.label"));
        // A new activity does grow it.
        s.observe(&msg(0, "step_b"));
        assert_eq!(s.activity_count(), 2);
        assert!(s.field_count() > fields_after_1000);
    }

    #[test]
    fn rendered_schema_parses_into_sections() {
        let msgs: Vec<TaskMessage> = (0..5).map(|i| msg(i, "step_a")).collect();
        let frame = DataFrame::from_messages(&msgs);
        let mut s = DynamicDataflowSchema::new();
        for m in &msgs {
            s.observe(m);
        }
        let text = format!(
            "{}\n{}",
            s.render_schema(frame.dtypes()),
            s.render_values(frame.examples())
        );
        let sections = PromptSections::parse(&text);
        assert!(sections.has_schema());
        assert!(sections.has_values());
        // Schema columns are exactly the frame's columns.
        for col in frame.column_names() {
            assert!(
                sections.schema_columns.iter().any(|c| c == col),
                "missing column {col}"
            );
        }
        // Example values present for the label field.
        assert!(sections.example_values.contains_key("frags.label"));
    }
}
