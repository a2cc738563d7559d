//! Natural-language → query translation.
//!
//! This is the mechanical heart of the simulated LLM: a keyword-driven
//! intent engine plus a field/literal resolver that *reads the prompt*.
//! Resolution quality degrades exactly the way the paper's ablations do:
//!
//! * no output-format instructions (zero-shot) → the "model" answers in
//!   prose, not code;
//! * no schema → field names fall back to plausible-but-wrong guesses
//!   (`node`, `cpu_usage`, `start_time` — the hallucinations §5.2 reports);
//! * no domain values → literals are guessed (`"FAILED"` instead of the
//!   actual status value `"ERROR"`);
//! * no guidelines → ambiguous conventions (which timestamp to filter,
//!   which of several CPU columns to use) are resolved by coin flip.

use crate::prompt::PromptSections;
use crate::rng::Key;
use dataframe::{col, lit, AggFunc, ArithOp, Expr};

use provql::{Query, Stage};

/// What kind of request the model understood.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntentKind {
    /// Small talk, no query needed.
    Greeting,
    /// Count rows matching a condition.
    Count,
    /// Counts per group (`value_counts`).
    CountPerGroup,
    /// Distinct values / deduplicated projection.
    Distinct,
    /// Group-by aggregation.
    GroupAgg,
    /// Group-by aggregation, then take the extreme group.
    GroupAggTop,
    /// Scalar aggregate of a column (optionally filtered).
    ScalarAgg,
    /// Top-N rows by some order.
    TopN,
    /// Row (or cell) holding an extreme value.
    ExtremeRow,
    /// Extreme value itself (no row context).
    ExtremeValue,
    /// Whole-workflow time span.
    Span,
    /// Filter + projection lookup.
    FilterSelect,
    /// Number of atoms (chemistry).
    AtomCount,
    /// Multiplicity/charge lookup (chemistry).
    SpinCharge,
    /// Plot request (handled by the plot tool; carries a data query).
    Plot,
    /// Could not understand.
    Unknown,
}

/// The outcome of translation.
#[derive(Debug, Clone, PartialEq)]
pub enum Translation {
    /// A structured query plus the recognized intent.
    Code {
        /// The generated query.
        query: Query,
        /// Recognized intent.
        intent: IntentKind,
    },
    /// Prose answer (zero-shot failure mode or greeting).
    Prose {
        /// The prose text.
        text: String,
        /// Recognized intent.
        intent: IntentKind,
    },
}

/// Field/literal resolver over the parsed prompt.
pub struct Resolver<'a> {
    sections: &'a PromptSections,
    /// Key for convention coin-flips (no-guideline ambiguity).
    key: Key,
}

/// Columns whose names are "common knowledge" (they appear in the paper's
/// own examples and in the few-shot block), guessable without a schema.
const GUESSABLE: &[&str] = &[
    "task_id",
    "status",
    "activity_id",
    "workflow_id",
    "campaign_id",
    "exponent",
    "multiplicity",
    "charge",
    "functional",
    "formula",
    "x",
    "scale",
    "y",
    "average",
];

/// Plausible-but-wrong fallback names used when the schema is absent —
/// the concrete hallucinations §5.2 attributes to weaker contexts
/// (`node`, `execution_id`-style fields).
const NAIVE: &[(&str, &str)] = &[
    ("cpu_percent_end", "cpu_usage"),
    ("gpu_percent_end", "gpu_usage"),
    ("mem_used_mb_end", "memory_usage"),
    ("hostname", "node"),
    ("started_at", "start_time"),
    ("ended_at", "end_time"),
    ("duration", "runtime"),
    ("depends_on", "parent_tasks"),
    ("bd_energy", "bond_energy"),
    ("bd_enthalpy", "enthalpy_value"),
    ("bd_free_energy", "free_energy"),
    ("bond_id", "bond"),
    ("n_atoms", "num_atoms"),
    ("molecule_label", "molecule"),
];

/// Columns whose names few-shot examples reveal even without a schema.
const FEW_SHOT_REVEALS: &[&str] = &["status", "activity_id", "duration", "started_at", "task_id"];

impl<'a> Resolver<'a> {
    /// Build a resolver for one translation.
    pub fn new(sections: &'a PromptSections, key: Key) -> Self {
        Self { sections, key }
    }

    /// Resolve a field request: `phrase` is what the user said (e.g. "cpu
    /// utilization"), `canonical` the true column. Returns the column name
    /// the model will actually use.
    pub fn field(&self, phrase: &str, canonical: &str) -> String {
        let phrase_lc = phrase.to_lowercase();
        // 1. Guideline conventions win ("For CPU usage, use the column …").
        for (gp, column) in &self.sections.guideline_mappings {
            if phrases_overlap(&phrase_lc, gp) {
                return column.clone();
            }
        }
        // 2. Schema fuzzy match.
        if self.sections.has_schema() {
            let candidates = fuzzy_candidates(&phrase_lc, &self.sections.schema_columns);
            match candidates.len() {
                0 => {}
                1 => return candidates[0].clone(),
                _ => {
                    // Ambiguous (e.g. cpu_percent_start vs cpu_percent_end):
                    // prefer the canonical if it is among them; otherwise the
                    // convention is a coin flip without guidelines.
                    if candidates.iter().any(|c| c == canonical) {
                        if self.sections.has_guidelines() {
                            return canonical.to_string();
                        }
                        let pick = self.key.with_str("ambig").with_str(canonical);
                        if pick.unit() < 0.5 {
                            return canonical.to_string();
                        }
                    }
                    return candidates[self
                        .key
                        .with_str("ambig-pick")
                        .with_str(&phrase_lc)
                        .pick(candidates.len())]
                    .clone();
                }
            }
        }
        // 3. Few-shot examples reveal some common columns.
        if self.sections.few_shot_examples > 0 && FEW_SHOT_REVEALS.contains(&canonical) {
            return canonical.to_string();
        }
        // 4. Common-knowledge names are guessed correctly…
        if GUESSABLE.contains(&canonical) {
            return canonical.to_string();
        }
        // 5. …everything else is hallucinated plausibly.
        NAIVE
            .iter()
            .find(|(c, _)| *c == canonical)
            .map(|(_, naive)| naive.to_string())
            .unwrap_or_else(|| canonical.to_string())
    }

    /// Resolve the status literal meaning "failed".
    pub fn failed_literal(&self) -> String {
        for (phrase, literal) in &self.sections.guideline_literals {
            if phrase.contains("fail") || phrase.contains("error") {
                return literal.clone();
            }
        }
        if let Some(values) = self.sections.example_values.get("status") {
            if let Some(v) = values
                .iter()
                .find(|v| v.contains("ERROR") || v.contains("FAIL"))
            {
                return v.clone();
            }
        }
        "FAILED".to_string() // plausible guess; the real value is ERROR
    }

    /// Resolve the status literal meaning "finished".
    pub fn finished_literal(&self) -> String {
        for (phrase, literal) in &self.sections.guideline_literals {
            if phrase.contains("finish") || phrase.contains("complete") {
                return literal.clone();
            }
        }
        if let Some(values) = self.sections.example_values.get("status") {
            if let Some(v) = values
                .iter()
                .find(|v| v.contains("FINISH") || v.contains("DONE"))
            {
                return v.clone();
            }
        }
        // Without values or guidelines the exact enum value is a guess.
        if self.key.with_str("finished-lit").unit() < 0.5 {
            "FINISHED".to_string()
        } else {
            "COMPLETED".to_string()
        }
    }

    /// Resolve a binary convention: guidelines pin it to the correct
    /// choice; without them it is a keyed coin flip (§5.2: guidelines
    /// "resolve ambiguity \[and\] enforce preferred conventions"). The flip
    /// is systematic per (model, question) — a temperature-0 model commits
    /// to its convention, it does not dither between runs.
    pub fn convention(&self, salt: &str) -> bool {
        if self.sections.has_guidelines() {
            true
        } else {
            // Without guidelines a model commits to one of several
            // plausible conventions; only sometimes the one the gold
            // standard expects.
            self.key.with_str("conv").with_str(salt).unit() < 0.2
        }
    }

    /// The duration column, behind a convention: without the guideline
    /// pinning `duration`, some generations reach for `ended_at` (a §5.2
    /// "time comparison" slip).
    pub fn duration_field(&self) -> String {
        if self.convention("duration-column") {
            self.field("duration", "duration")
        } else {
            self.field("ended", "ended_at")
        }
    }

    /// The single activity that generates `column`, when the schema's
    /// dataflow structure identifies exactly one producer. This is how the
    /// model answers "the task that computed the final average" without an
    /// explicit activity name — dataflow reasoning over the schema.
    pub fn unique_producer(&self, column: &str) -> Option<String> {
        let producers: Vec<&String> = self
            .sections
            .activity_generates
            .iter()
            .filter(|(_, gens)| gens.iter().any(|g| g == column))
            .map(|(a, _)| a)
            .collect();
        if producers.len() == 1 {
            Some(producers[0].clone())
        } else {
            None
        }
    }

    /// A question token that *is* a schema column, usable as the metric
    /// when no heuristic matched. Conservative on purpose: tokens must be
    /// ≥ 4 chars, not aggregation vocabulary, not generic filler — so
    /// "average accuracy per run" resolves `accuracy` while "average
    /// duration" keeps flowing through the duration convention.
    pub fn verbatim_metric(&self, text: &str) -> Option<String> {
        const AGG_WORDS: &[&str] = &[
            "average",
            "mean",
            "total",
            "sum",
            "count",
            "median",
            "highest",
            "largest",
            "lowest",
            "smallest",
            "maximum",
            "minimum",
            "standard",
            "deviation",
        ];
        text.split(|c: char| !(c.is_alphanumeric() || c == '_'))
            .filter(|w| w.len() >= 4)
            .filter(|w| !AGG_WORDS.contains(w) && !is_generic_word(w) && !is_stopword(w))
            .find(|w| self.sections.schema_columns.iter().any(|c| c == w))
            .map(str::to_string)
    }

    /// A guideline mapping whose phrase overlaps the question text, if
    /// any. This is how interactively taught domain guidelines ("use the
    /// field lr to filter learning rates", §4.2) steer metrics the
    /// built-in heuristics have no rule for.
    pub fn mapped_from_text(&self, text: &str) -> Option<String> {
        self.sections
            .guideline_mappings
            .iter()
            .find(|(gp, _)| phrases_overlap(text, gp))
            .map(|(_, column)| column.clone())
    }

    /// The timestamp column used for "after/before" filters — a convention
    /// the guidelines pin to `started_at`; without them it is a coin flip
    /// with `ended_at` (a §5.2-style time-logic slip).
    pub fn time_filter_field(&self) -> String {
        for (gp, column) in &self.sections.guideline_mappings {
            if gp.contains("time") || gp.contains("start") {
                return column.clone();
            }
        }
        let started = self.field("started", "started_at");
        let ended = self.field("ended", "ended_at");
        if self.key.with_str("time-convention").unit() < 0.5 {
            started
        } else {
            ended
        }
    }
}

/// Do two lowercase phrases share a *distinctive* word? Generic filler
/// ("task", "questions", "when", …) is ignored so a guideline phrased as
/// "when a task started" only matches time-related requests, not every
/// mention of the word "task".
fn phrases_overlap(a: &str, b: &str) -> bool {
    let words = |s: &str| -> Vec<String> {
        s.split(|c: char| !c.is_alphanumeric())
            .filter(|w| w.len() >= 3 && !is_generic_word(w))
            .map(str::to_lowercase)
            .collect()
    };
    let wa = words(a);
    let wb = words(b);
    wa.iter().any(|x| wb.iter().any(|y| token_match(x, y)))
}

fn is_generic_word(w: &str) -> bool {
    matches!(
        w.to_lowercase().as_str(),
        "task"
            | "tasks"
            | "question"
            | "questions"
            | "when"
            | "about"
            | "asked"
            | "something"
            | "took"
            | "the"
            | "and"
            | "for"
            | "column"
            | "field"
            | "value"
            | "values"
            | "ranges"
            | "placement"
    )
}

/// Token similarity: exact, or prefix of length ≥ 3 (memory ~ mem).
fn token_match(a: &str, b: &str) -> bool {
    if a == b {
        return true;
    }
    let min = a.len().min(b.len());
    min >= 3 && (a.starts_with(&b[..min.min(b.len())]) || b.starts_with(&a[..min.min(a.len())]))
}

/// Schema columns scored by token overlap with the phrase; returns every
/// column tied at the best (non-zero) score.
fn fuzzy_candidates(phrase: &str, columns: &[String]) -> Vec<String> {
    let phrase_tokens: Vec<String> = phrase
        .split(|c: char| !c.is_alphanumeric())
        .filter(|w| !w.is_empty() && !is_stopword(w))
        .map(str::to_lowercase)
        .collect();
    let mut best = 0usize;
    let mut scored: Vec<(usize, &String)> = Vec::new();
    for c in columns {
        let col_tokens: Vec<String> = c
            .split(|ch: char| !ch.is_alphanumeric())
            .filter(|w| !w.is_empty())
            .map(str::to_lowercase)
            .collect();
        let score = phrase_tokens
            .iter()
            .filter(|p| col_tokens.iter().any(|t| token_match(p, t)))
            .count();
        if score > 0 {
            best = best.max(score);
            scored.push((score, c));
        }
    }
    scored
        .into_iter()
        .filter(|(s, _)| *s == best && best > 0)
        .map(|(_, c)| c.clone())
        .collect()
}

fn is_stopword(w: &str) -> bool {
    matches!(
        w,
        "the"
            | "a"
            | "an"
            | "of"
            | "in"
            | "on"
            | "at"
            | "did"
            | "do"
            | "is"
            | "was"
            | "what"
            | "which"
            | "that"
            | "this"
            | "for"
            | "with"
            | "and"
            | "or"
            | "to"
            | "use"
            | "used"
            | "by"
            | "per"
            | "each"
            | "value"
            | "values"
            | "utilization"
            | "usage"
    )
}

// ---------------------------------------------------------------------
// Slot extraction
// ---------------------------------------------------------------------

/// Slots pulled out of the user question.
#[derive(Debug, Clone, Default)]
pub struct Slots {
    /// Lowercased question.
    pub text: String,
    /// Numbers appearing in the question.
    pub numbers: Vec<f64>,
    /// Quoted strings.
    pub quoted: Vec<String>,
    /// A host-name token (word starting with a known host prefix).
    pub host: Option<String>,
    /// An activity-name token.
    pub activity: Option<String>,
    /// A schema column named verbatim in the question (e.g. a domain user
    /// asking about `melt_pool_temp_c` directly). Any model with the
    /// schema in context copies such identifiers straight through, which
    /// is what lets the agent generalize to new domains whose field names
    /// only exist in the dynamic dataflow schema.
    pub field: Option<String>,
}

impl Slots {
    /// Extract slots from the question (activity values come from the
    /// domain-value section when present).
    pub fn extract(question: &str, sections: &PromptSections) -> Slots {
        let text = question.to_lowercase();
        let mut numbers = Vec::new();
        let mut cur = String::new();
        for c in question.chars() {
            if c.is_ascii_digit() || (c == '.' && !cur.is_empty() && !cur.contains('.')) {
                cur.push(c);
            } else if !cur.is_empty() {
                if let Ok(n) = cur.trim_end_matches('.').parse::<f64>() {
                    numbers.push(n);
                }
                cur.clear();
            }
        }
        if let Ok(n) = cur.trim_end_matches('.').parse::<f64>() {
            numbers.push(n);
        }

        let mut quoted = Vec::new();
        for q in ['\'', '"'] {
            let mut parts = question.split(q);
            parts.next();
            while let (Some(inner), Some(_)) = (parts.next(), parts.next()) {
                quoted.push(inner.to_string());
            }
        }

        let words: Vec<&str> = question
            .split(|c: char| c.is_whitespace() || matches!(c, ',' | '?' | '!'))
            .filter(|w| !w.is_empty())
            .collect();
        let host = words
            .iter()
            .map(|w| w.trim_matches(|c: char| !c.is_alphanumeric()))
            .find(|w| w.to_lowercase().starts_with("frontier") || w.starts_with("node-"))
            .map(str::to_string);

        // A schema column named verbatim: copied straight from the user
        // text when the schema confirms it exists.
        let field = words
            .iter()
            .map(|w| w.trim_matches(|c: char| !(c.is_alphanumeric() || c == '_' || c == '.')))
            .find(|w| {
                (w.contains('_') || w.contains('.'))
                    && sections.schema_columns.iter().any(|c| c == w)
            })
            .map(str::to_string);

        // Activity: a known activity value mentioned verbatim, or a
        // snake_case word, or the word before "activity"/"task(s)".
        let known: Vec<String> = sections
            .example_values
            .get("activity_id")
            .cloned()
            .unwrap_or_default();
        let mut activity = None;
        for w in &words {
            let w = w.trim_matches(|c: char| !(c.is_alphanumeric() || c == '_'));
            if known.iter().any(|k| k == w) {
                activity = Some(w.to_string());
                break;
            }
        }
        if activity.is_none() {
            // Snake_case tokens are activity candidates unless the schema
            // says they are data fields; the one right before a task/
            // activity noun wins ("… of the laser_scan tasks").
            let trimmed: Vec<String> = words
                .iter()
                .map(|w| {
                    w.trim_matches(|c: char| !(c.is_alphanumeric() || c == '_'))
                        .to_string()
                })
                .collect();
            let is_candidate = |w: &str| {
                w.contains('_')
                    && !w.starts_with("frontier")
                    && !sections.schema_columns.iter().any(|c| c == w)
            };
            activity = trimmed
                .iter()
                .enumerate()
                .find(|(i, w)| {
                    is_candidate(w)
                        && matches!(
                            trimmed.get(i + 1).map(String::as_str),
                            Some("task" | "tasks" | "activity" | "activities")
                        )
                })
                .map(|(_, w)| w.clone())
                .or_else(|| trimmed.iter().find(|w| is_candidate(w)).cloned());
        }
        if activity.is_none() {
            for (i, w) in words.iter().enumerate() {
                let w = w.trim_end_matches(['?', '.', ',']);
                if matches!(w, "activity" | "task" | "tasks") && i > 0 {
                    let prev = words[i - 1]
                        .trim_matches(|c: char| !(c.is_alphanumeric() || c == '_'))
                        .to_lowercase();
                    // "the power activity" / "the power tasks": the word
                    // before the noun names the activity unless it is
                    // grammatical filler.
                    if !matches!(
                        prev.as_str(),
                        "the"
                            | "a"
                            | "any"
                            | "each"
                            | "which"
                            | "that"
                            | "slowest"
                            | "fastest"
                            | "many"
                            | "other"
                            | "all"
                            | "recent"
                            | "running"
                            | "failed"
                            | "finished"
                            | "this"
                            | "these"
                            | "those"
                            | "per"
                            | "their"
                            | "its"
                            | "and"
                            | "or"
                            | "of"
                    ) && !prev.is_empty()
                    {
                        // Snap to a known activity value when the mention is
                        // partial ("dft tasks" → run_dft), as a model with
                        // domain values in context would.
                        activity = Some(
                            known
                                .iter()
                                .find(|k| k.to_lowercase().contains(&prev))
                                .cloned()
                                .unwrap_or(prev),
                        );
                        break;
                    }
                }
            }
        }

        Slots {
            text,
            numbers,
            quoted,
            host,
            activity,
            field,
        }
    }

    /// True when the question mentions any of the given words.
    pub fn mentions(&self, words: &[&str]) -> bool {
        words.iter().any(|w| self.text.contains(w))
    }
}

// ---------------------------------------------------------------------
// Translation
// ---------------------------------------------------------------------

/// Translate a user question into a query, reading the prompt sections.
pub fn translate(question: &str, sections: &PromptSections, key: Key) -> Translation {
    let slots = Slots::extract(question, sections);
    let r = Resolver::new(sections, key);

    // Greetings never need a query.
    if is_greeting(&slots.text) {
        return Translation::Prose {
            text: "Hello! Ask me anything about your running workflow's provenance.".to_string(),
            intent: IntentKind::Greeting,
        };
    }

    // Zero-shot: without output-format instructions the model explains in
    // prose instead of emitting code (the paper's all-models-fail config).
    if !sections.has_output_format {
        return Translation::Prose {
            text: format!(
                "To answer \"{question}\" you could inspect the provenance records \
                 and filter the relevant tasks, then aggregate the field of interest."
            ),
            intent: IntentKind::Unknown,
        };
    }

    let (query, intent) = build_query(&slots, &r, sections);
    Translation::Code { query, intent }
}

fn is_greeting(text: &str) -> bool {
    let t = text.trim().trim_end_matches(['!', '.', '?']);
    matches!(
        t,
        "hi" | "hello" | "hey" | "thanks" | "thank you" | "good morning"
    ) || (t.starts_with("hello") && t.len() < 20)
        || (t.starts_with("hi ") && t.len() < 15)
}

/// The ordered intent rules.
fn build_query(slots: &Slots, r: &Resolver, _sections: &PromptSections) -> (Query, IntentKind) {
    let t = &slots.text;
    let plot = slots.mentions(&["plot", "graph", "chart", "visualize"]);

    // ---- chemistry-specific intents (checked early: specific wording) ----
    if slots.mentions(&["atoms"]) {
        let n_atoms = r.field("number of atoms", "n_atoms");
        let label = r.field("molecule", "molecule_label");
        if slots.mentions(&["parent"]) {
            let q = Query::pipeline(vec![
                Stage::Filter(col(label).eq(lit("parent"))),
                Stage::Select(vec![n_atoms]),
                Stage::DropDuplicates(vec![]),
            ]);
            return (q, IntentKind::AtomCount);
        }
        let q = Query::pipeline(vec![
            Stage::Select(vec![label, n_atoms]),
            Stage::DropDuplicates(vec![]),
        ]);
        return (q, IntentKind::AtomCount);
    }
    if slots.mentions(&["multiplicity", "charge"]) {
        let label = r.field("molecule", "molecule_label");
        let mult = r.field("multiplicity", "multiplicity");
        let charge = r.field("charge", "charge");
        let mut stages = Vec::new();
        if slots.mentions(&["parent"]) {
            stages.push(Stage::Filter(col(label).eq(lit("parent"))));
        } else if slots.mentions(&["fragment"]) {
            stages.push(Stage::Filter(col(label).contains("fragment")));
        }
        // Only rows that actually carry the electronic-state fields
        // (structure-creation steps share the molecule label but not the
        // computed properties).
        stages.push(Stage::Filter(col(mult.clone()).not_null()));
        stages.push(Stage::Select(vec![mult, charge]));
        stages.push(Stage::DropDuplicates(vec![]));
        if slots.mentions(&["any"]) {
            stages.push(Stage::Head(1));
        }
        return (Query::pipeline(stages), IntentKind::SpinCharge);
    }
    if slots.mentions(&["functional", "basis set"]) {
        let label = r.field("molecule", "molecule_label");
        let functional = r.field("functional", "functional");
        let q = Query::pipeline(vec![Stage::Select(vec![label, functional])]);
        return (q, IntentKind::FilterSelect);
    }

    // ---- span ----
    if slots.mentions(&["time span", "total span", "span of the workflow"])
        || (slots.mentions(&["how long"]) && slots.mentions(&["workflow"]))
    {
        let ended = r.field("ended", "ended_at");
        let started = r.field("started", "started_at");
        let q = Query::Binary(
            Box::new(Query::pipeline(vec![
                Stage::Col(ended),
                Stage::Agg(AggFunc::Max),
            ])),
            ArithOp::Sub,
            Box::new(Query::pipeline(vec![
                Stage::Col(started),
                Stage::Agg(AggFunc::Min),
            ])),
        );
        return (q, IntentKind::Span);
    }

    // ---- counts ----
    if slots.mentions(&["how many"]) && slots.mentions(&["each", "per "]) {
        let group = group_field(slots, r);
        let q = Query::pipeline(vec![Stage::Col(group), Stage::ValueCounts]);
        return (q, IntentKind::CountPerGroup);
    }
    if slots.mentions(&["how many", "did any", "number of tasks", "count of"]) {
        let mut filter = base_filter(slots, r);
        if slots.mentions(&["consumed", "depend", "inputs produced", "outputs of other"]) {
            let dep = r.field("depends on", "depends_on");
            filter = Some(match filter {
                Some(f) => f.and(col(dep).not_null()),
                None => col(dep).not_null(),
            });
        }
        let stages = match filter {
            Some(f) => vec![Stage::Filter(f)],
            None => Vec::new(),
        };
        // Counting convention: wrap in len(...) so a number comes back;
        // without guidelines some generations return the row listing.
        let q = if r.convention("count-wrap") {
            Query::Len(Box::new(Query::pipeline(stages)))
        } else {
            Query::pipeline(stages)
        };
        return (q, IntentKind::Count);
    }

    // ---- distinct ----
    if slots.mentions(&["distinct", "unique", "list the"]) {
        let mut fields = Vec::new();
        if slots.mentions(&["activities", "activity", "steps"]) {
            fields.push(r.field("activity", "activity_id"));
        }
        if slots.mentions(&["host", "node", "machine"]) {
            fields.push(r.field("host", "hostname"));
        }
        if fields.is_empty() {
            fields.push(r.field("activity", "activity_id"));
        }
        let q = if fields.len() == 1 {
            Query::pipeline(vec![Stage::Col(fields.pop().expect("one")), Stage::Unique])
        } else {
            Query::pipeline(vec![Stage::Select(fields), Stage::DropDuplicates(vec![])])
        };
        return (q, IntentKind::Distinct);
    }

    // ---- group aggregations ----
    let agg_word = agg_from_text(t);
    let grouped = slots.mentions(&[
        "per ",
        "for each",
        "by activity",
        "by host",
        "across activities",
        "each bond",
        "per bond",
        "for each bond",
    ]);
    if let (Some(agg), true) = (agg_word, grouped) {
        let group = group_field(slots, r);
        let value = value_field(slots, r);
        // Aggregation-scope convention: "group by the column that names
        // the category in the question". Without that guideline some
        // generations aggregate the whole column and lose the grouping.
        let stages = if r.convention("group-agg-scope") {
            vec![
                Stage::GroupBy(vec![group]),
                Stage::Col(value),
                Stage::Agg(agg),
            ]
        } else {
            vec![Stage::Col(value), Stage::Agg(agg)]
        };
        let intent = if plot {
            IntentKind::Plot
        } else {
            IntentKind::GroupAgg
        };
        return (Query::Pipeline(provql::Pipeline { stages }), intent);
    }
    // "Which activity has the highest mean CPU…" / "Which workflow run had
    // the highest total duration?"
    if slots.mentions(&["which", "what"])
        && slots.mentions(&["highest", "largest", "most", "lowest", "least"])
        && (slots.mentions(&["mean", "average", "total"])
            && slots.mentions(&["activity", "workflow run", "host", "each"]))
    {
        let group = group_field(slots, r);
        let value = value_field(slots, r);
        let agg = agg_from_text(t).unwrap_or(AggFunc::Mean);
        let desc = !slots.mentions(&["lowest", "least", "smallest"]);
        // Sort-direction convention ("sort descending when asked for the
        // highest") — a coin flip without guidelines.
        let desc = if r.convention("sort-direction") {
            desc
        } else {
            !desc
        };
        let q = Query::pipeline(vec![
            Stage::GroupBy(vec![group]),
            Stage::Col(value.clone()),
            Stage::Agg(agg),
            Stage::ResetIndex,
            Stage::SortValues(vec![(value, desc)]),
            Stage::Head(1),
        ]);
        // sort descending when looking for the highest
        let q = match q {
            Query::Pipeline(mut p) => {
                if let Some(Stage::SortValues(keys)) = p
                    .stages
                    .iter_mut()
                    .find(|s| matches!(s, Stage::SortValues(_)))
                {
                    keys[0].1 = !desc;
                }
                Query::Pipeline(p)
            }
            other => other,
        };
        return (q, IntentKind::GroupAggTop);
    }

    // ---- top-N by speed ----
    if slots.mentions(&["slowest", "fastest", "longest", "quickest"]) {
        let n = slots
            .numbers
            .first()
            .map(|&x| x as usize)
            .filter(|&x| x > 0 && x < 1000)
            .unwrap_or(1);
        let dur = r.duration_field();
        let desc = !slots.mentions(&["fastest", "quickest"]);
        let desc = if r.convention("sort-direction") {
            desc
        } else {
            !desc
        };
        let mut proj = vec![r.field("task", "task_id")];
        if slots.mentions(&["activity", "activities"]) {
            proj.push(r.field("activity", "activity_id"));
        }
        if slots.mentions(&["host", "node"]) {
            proj.push(r.field("host", "hostname"));
        }
        proj.push(dur.clone());
        let q = Query::pipeline(vec![
            Stage::SortValues(vec![(dur, !desc)]),
            Stage::Select(proj),
            Stage::Head(n),
        ]);
        return (q, IntentKind::TopN);
    }

    // ---- "started after T" ----
    if slots.mentions(&["started after", "after time", "began after"]) {
        let field = r.time_filter_field();
        let threshold = slots.numbers.first().copied().unwrap_or(0.0);
        let mut stages = vec![Stage::Filter(col(field).gt(lit(threshold)))];
        let mut proj = vec![r.field("task", "task_id")];
        if slots.mentions(&["output y", " y "]) {
            proj.push(r.field("output y", "y"));
        }
        stages.push(Stage::Select(proj));
        return (Query::pipeline(stages), IntentKind::FilterSelect);
    }

    // ---- extremes ----
    let wants_max = slots.mentions(&["highest", "largest", "maximum", "most ", "biggest"]);
    let wants_min = slots.mentions(&["lowest", "smallest", "minimum", "least "]);
    if wants_max || wants_min {
        let target = value_field(slots, r);
        // Scalar aggregate with a filter (e.g. Q9 handled below) or a
        // row/cell retrieval.
        let cell = extreme_cell(slots, r);
        if slots.mentions(&["what is the", "what was the"]) && cell.is_none() {
            // "What is the lowest energy bond enthalpy?" → bare value (the
            // Q3 behavior: correct number, missing bond id).
            let q = Query::pipeline(vec![
                Stage::Col(target),
                Stage::Agg(if wants_max {
                    AggFunc::Max
                } else {
                    AggFunc::Min
                }),
            ]);
            return (q, IntentKind::ExtremeValue);
        }
        // Single-answer convention: retrieve exactly the extreme row;
        // without guidelines some generations dump a sorted table instead.
        let q = if r.convention("single-row") {
            Query::pipeline(vec![Stage::LocIdx {
                column: target,
                max: wants_max,
                cell,
            }])
        } else {
            Query::pipeline(vec![
                Stage::SortValues(vec![(target, !wants_max)]),
                Stage::Head(5),
            ])
        };
        return (q, IntentKind::ExtremeRow);
    }

    // ---- scalar aggregate with optional filter ----
    if let Some(agg) = agg_word {
        let value = value_field(slots, r);
        let mut stages = Vec::new();
        if let Some(f) = base_filter(slots, r) {
            stages.push(Stage::Filter(f));
        } else if let Some(q) = slots.quoted.first() {
            // "bond labels that contain 'C-H'"
            let bond = r.field("bond label", "bond_id");
            stages.push(Stage::Filter(col(bond).contains(q.clone())));
        }
        stages.push(Stage::Col(value));
        stages.push(Stage::Agg(agg));
        let intent = if plot {
            IntentKind::Plot
        } else {
            IntentKind::ScalarAgg
        };
        return (Query::pipeline(stages), intent);
    }

    // ---- plot without an explicit aggregation: one bar per label ----
    if plot {
        let group = group_field(slots, r);
        let value = value_field(slots, r);
        let q = Query::pipeline(vec![
            Stage::Filter(col(value.clone()).not_null()),
            Stage::GroupBy(vec![group]),
            Stage::Col(value),
            Stage::Agg(AggFunc::Mean),
        ]);
        return (q, IntentKind::Plot);
    }

    // ---- fallback: filter + projection ----
    let mut stages = Vec::new();
    let mut filter = base_filter(slots, r);
    let proj_fields = projection_fields(slots, r);
    if filter.is_none() {
        // Dataflow reasoning over the schema structure: a projected field
        // with a unique producing activity pins the filter ("the task that
        // computed the final average" → average_results).
        for f in &proj_fields {
            if let Some(act) = r.unique_producer(f) {
                filter = Some(col(r.field("activity", "activity_id")).eq(lit(act.as_str())));
                break;
            }
        }
    }
    if let Some(f) = filter {
        stages.push(Stage::Filter(f));
    }
    let mut proj = vec![r.field("task", "task_id")];
    for col_name in proj_fields {
        if !proj.contains(&col_name) {
            proj.push(col_name);
        }
    }
    let intent = if proj.len() > 1 {
        IntentKind::FilterSelect
    } else {
        IntentKind::Unknown
    };
    stages.push(Stage::Select(proj));
    (Query::pipeline(stages), intent)
}

/// Aggregation hinted by the text. Word-boundary aware: "average" inside
/// an identifier (`average_results`) or a field reference ("the final
/// average value") is *data*, not an aggregation request.
fn agg_from_text(t: &str) -> Option<AggFunc> {
    // Mask identifier-embedded occurrences.
    let masked = t.replace("average_results", "avgresults");
    let is_field_ref = masked.contains("average value") || masked.contains("final average");
    if !is_field_ref
        && (masked.contains("average ") || masked.contains("averaged") || masked.contains("mean "))
    {
        Some(AggFunc::Mean)
    } else if masked.contains("median") {
        Some(AggFunc::Median)
    } else if masked.contains("total ") || masked.contains("sum of") {
        Some(AggFunc::Sum)
    } else if masked.contains("standard deviation") {
        Some(AggFunc::Std)
    } else {
        None
    }
}

/// The grouping column implied by the question.
fn group_field(slots: &Slots, r: &Resolver) -> String {
    let t = &slots.text;
    if t.contains("bond") {
        r.field("bond label", "bond_id")
    } else if t.contains("workflow run") || t.contains("per workflow") {
        r.field("workflow run", "workflow_id")
    } else if t.contains("host") || t.contains("node") || t.contains("machine") {
        r.field("host", "hostname")
    } else {
        r.field("activity", "activity_id")
    }
}

/// The value column the question aggregates or ranks by.
fn value_field(slots: &Slots, r: &Resolver) -> String {
    let t = &slots.text;
    // A verbatim schema column in the question beats every heuristic: the
    // model just copies the identifier the user wrote.
    if let Some(f) = &slots.field {
        return f.clone();
    }
    if t.contains("free energy") {
        r.field("dissociation free energy", "bd_free_energy")
    } else if t.contains("enthalpy") {
        r.field("bond dissociation enthalpy", "bd_enthalpy")
    } else if t.contains("dissociation energy") || t.contains("bond energy") {
        r.field("bond dissociation energy", "bd_energy")
    } else if t.contains("cpu") {
        r.field("cpu", "cpu_percent_end")
    } else if t.contains("gpu") {
        r.field("gpu", "gpu_percent_end")
    } else if t.contains("memory") {
        r.field("memory", "mem_used_mb_end")
    } else if t.contains("output y") || t.contains(" y ") || t.ends_with(" y?") {
        r.field("output y", "y")
    } else if t.contains("average value") || t.contains("final average") {
        r.field("average result", "average")
    } else if t.contains("exponent") {
        r.field("exponent", "exponent")
    } else if t.contains("duration") || t.contains("how long") || t.contains("take") {
        r.duration_field()
    } else if let Some(col) = r.verbatim_metric(t) {
        // The question names a schema column outright (e.g. "accuracy").
        col
    } else if let Some(col) = r.mapped_from_text(t) {
        // No built-in heuristic fits, but a (possibly user-taught)
        // guideline maps the wording to a column — §4.2's interactive
        // domain guidelines.
        col
    } else {
        r.duration_field()
    }
}

/// The cell to return from an extreme-row query ("on which host…" → host).
fn extreme_cell(slots: &Slots, r: &Resolver) -> Option<String> {
    let t = &slots.text;
    if t.contains("on which host") || t.contains("which node") || t.contains("which machine") {
        Some(r.field("host", "hostname"))
    } else if t.contains("which bond") {
        Some(r.field("bond label", "bond_id"))
    } else if t.contains("which activity") {
        Some(r.field("activity", "activity_id"))
    } else {
        None
    }
}

/// Row filter from host / activity / status mentions.
fn base_filter(slots: &Slots, r: &Resolver) -> Option<Expr> {
    let mut filter: Option<Expr> = None;
    let mut push = |e: Expr| {
        filter = Some(match filter.take() {
            Some(f) => f.and(e),
            None => e,
        });
    };
    if let Some(host) = &slots.host {
        // Hostname matching convention: partial names need str.contains
        // because hostnames are fully qualified; equality silently matches
        // nothing without guidelines pinning the convention.
        let host_col = col(r.field("host", "hostname"));
        if r.convention("host-contains") {
            push(host_col.contains(host.clone()));
        } else {
            push(host_col.eq(lit(host.as_str())));
        }
    }
    if let Some(act) = &slots.activity {
        push(col(r.field("activity", "activity_id")).eq(lit(act.as_str())));
    }
    if slots.mentions(&["failed", "errors", "error"]) {
        push(col(r.field("status", "status")).eq(lit(r.failed_literal())));
    } else if slots.mentions(&["finished", "completed"]) {
        push(col(r.field("status", "status")).eq(lit(r.finished_literal())));
    }
    filter
}

/// Columns the question asks to see.
fn projection_fields(slots: &Slots, r: &Resolver) -> Vec<String> {
    let t = &slots.text;
    let mut out = Vec::new();
    let mut add = |c: String| {
        if !out.contains(&c) {
            out.push(c);
        }
    };
    if t.contains("activity") || t.contains("activities") {
        add(r.field("activity", "activity_id"));
    }
    if t.contains("cpu") {
        add(r.field("cpu", "cpu_percent_end"));
    }
    if t.contains("memory") {
        add(r.field("memory", "mem_used_mb_end"));
    }
    if t.contains("gpu") {
        add(r.field("gpu", "gpu_percent_end"));
    }
    if t.contains("duration") || t.contains("how long") || t.contains("take") {
        add(r.field("duration", "duration"));
    }
    if t.contains("exponent") {
        add(r.field("exponent", "exponent"));
    }
    if t.contains("output y") || t.contains(" y ") {
        add(r.field("output y", "y"));
    }
    if t.contains("average value") || t.contains("final average") {
        add(r.field("average result", "average"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prompt::markers;
    use provql::render;

    /// A full-context prompt over the synthetic workflow's columns.
    fn full_prompt() -> PromptSections {
        let text = format!(
            "{role}\nYou are a workflow provenance specialist.\n\
             {job}\nTranslate the question into a query.\n\
             {df}\nEach row is one task execution.\n\
             {fmt}\nReturn a single pandas expression.\n\
             {fs}\nQ: How many tasks failed?\nA: len(df[df[\"status\"] == \"ERROR\"])\n\
             {schema}\n- task_id (str): id\n- activity_id (str): step\n- workflow_id (str): wf\n\
             - status (str): status\n- started_at (float): start\n- ended_at (float): end\n\
             - duration (float): seconds\n- hostname (str): node\n- cpu_percent_start (float): cpu\n\
             - cpu_percent_end (float): cpu\n- gpu_percent_end (float): gpu\n- mem_used_mb_end (float): mem\n\
             - depends_on (list): lineage\n- x (float): input\n- y (float): output\n- average (float): final\n\
             - exponent (float): power arg\n\
             {values}\n- status: FINISHED | ERROR\n- activity_id: power | average_results | scale_and_shift\n\
             {guide}\n- For time ranges, use the column started_at.\n\
             - For CPU usage, use the column cpu_percent_end.\n\
             - For failed, use the value ERROR.\n\
             - For memory, use the column mem_used_mb_end.\n",
            role = markers::ROLE,
            job = markers::JOB,
            df = markers::DATAFRAME,
            fmt = markers::OUTPUT_FORMAT,
            fs = markers::FEW_SHOT,
            schema = markers::SCHEMA,
            values = markers::VALUES,
            guide = markers::GUIDELINES,
        );
        PromptSections::parse(&text)
    }

    fn code(nl: &str, sections: &PromptSections) -> String {
        match translate(nl, sections, Key::new(1)) {
            Translation::Code { query, .. } => render(&query),
            Translation::Prose { text, .. } => panic!("expected code, got prose: {text}"),
        }
    }

    /// An additive-manufacturing prompt the engine has no special-cased
    /// wording for: generalization must come from the schema alone.
    fn am_prompt() -> PromptSections {
        let text = format!(
            "{role}\nYou are a workflow provenance specialist.\n\
             {job}\nTranslate the question into a query.\n\
             {df}\nEach row is one task execution.\n\
             {fmt}\nReturn a single pandas expression.\n\
             {fs}\nQ: How many tasks failed?\nA: len(df[df[\"status\"] == \"ERROR\"])\n\
             {schema}\n- task_id (str): id\n- activity_id (str): step\n- status (str): status\n\
             - duration (float): seconds\n- hostname (str): node\n\
             - melt_pool_temp_c (float): melt pool peak temperature\n\
             - melt_pool_width_um (float): melt pool width\n\
             - energy_density_j_mm3 (float): volumetric energy density\n\
             - porosity_pct (float): part porosity\n- layer (int): build layer\n\
             {values}\n- status: FINISHED | ERROR\n- activity_id: laser_scan | generate_hatch | qualify_part\n\
             {guide}\n- For time ranges, use the column started_at.\n",
            role = markers::ROLE,
            job = markers::JOB,
            df = markers::DATAFRAME,
            fmt = markers::OUTPUT_FORMAT,
            fs = markers::FEW_SHOT,
            schema = markers::SCHEMA,
            values = markers::VALUES,
            guide = markers::GUIDELINES,
        );
        PromptSections::parse(&text)
    }

    #[test]
    fn verbatim_fields_generalize_to_new_domains() {
        let p = am_prompt();
        // The field is copied verbatim from the question; the activity
        // comes from the "… of the <activity> tasks" position.
        assert_eq!(
            code(
                "What is the average energy_density_j_mm3 of the laser_scan tasks?",
                &p
            ),
            r#"df[df["activity_id"] == "laser_scan"]["energy_density_j_mm3"].mean()"#
        );
        assert_eq!(
            code("Which task produced the largest melt_pool_temp_c?", &p),
            r#"df.loc[df["melt_pool_temp_c"].idxmax()]"#
        );
        assert_eq!(
            code("What is the average melt_pool_width_um per activity?", &p),
            r#"df.groupby("activity_id")["melt_pool_width_um"].mean()"#
        );
    }

    #[test]
    fn field_slot_requires_schema_presence() {
        // Without the schema section the identifier cannot be confirmed,
        // so the old fallback heuristics (and their failure modes) apply.
        let bare = PromptSections::parse(&format!(
            "{}\nrole\n{}\njob\n{}\ndf\n{}\nReturn a query.\n",
            markers::ROLE,
            markers::JOB,
            markers::DATAFRAME,
            markers::OUTPUT_FORMAT
        ));
        let slots = Slots::extract("average melt_pool_temp_c per activity", &bare);
        assert_eq!(slots.field, None);
        let p = am_prompt();
        let slots = Slots::extract("average melt_pool_temp_c per activity", &p);
        assert_eq!(slots.field.as_deref(), Some("melt_pool_temp_c"));
    }

    #[test]
    fn activity_slot_prefers_token_before_task_noun() {
        let p = am_prompt();
        // Two snake_case tokens: the schema field must not shadow the
        // activity in the "<activity> tasks" position.
        let slots = Slots::extract(
            "What is the average energy_density_j_mm3 of the laser_scan tasks?",
            &p,
        );
        assert_eq!(slots.activity.as_deref(), Some("laser_scan"));
        assert_eq!(slots.field.as_deref(), Some("energy_density_j_mm3"));
    }

    #[test]
    fn taught_guideline_maps_unknown_metric() {
        // §4.2's running example: "use the field lr to filter learning
        // rates", rendered into the machine-readable convention.
        let text = format!(
            "{role}\nrole\n{job}\njob\n{df}\ndf\n{fmt}\nReturn a query.\n\
             {fs}\nQ: How many tasks failed?\nA: len(df[df[\"status\"] == \"ERROR\"])\n\
             {schema}\n- task_id (str): id\n- activity_id (str): step\n- duration (float): s\n\
             - lr (float): learning rate\n- loss (float): loss\n\
             {guide}\n- For learning rates, use the column lr.\n",
            role = markers::ROLE,
            job = markers::JOB,
            df = markers::DATAFRAME,
            fmt = markers::OUTPUT_FORMAT,
            fs = markers::FEW_SHOT,
            schema = markers::SCHEMA,
            guide = markers::GUIDELINES,
        );
        let p = PromptSections::parse(&text);
        assert_eq!(
            code("What is the average learning rate per activity?", &p),
            r#"df.groupby("activity_id")["lr"].mean()"#
        );
        // Without the taught mapping the model falls back to a duration
        // aggregate — the pre-teaching ambiguity the paper describes.
        let untaught =
            PromptSections::parse(&text.replace("- For learning rates, use the column lr.\n", ""));
        let c = code("What is the average learning rate per activity?", &untaught);
        assert!(!c.contains("\"lr\""), "{c}");
    }

    #[test]
    fn verbatim_metric_without_underscores() {
        // "accuracy" is a plain-word schema column (the MLflow adapter
        // emits it); the resolver must pick it while leaving aggregation
        // vocabulary ("average") and handled metrics ("duration") alone.
        let text = format!(
            "{role}\nrole\n{job}\njob\n{df}\ndf\n{fmt}\nReturn a query.\n\
             {fs}\nQ: How many tasks failed?\nA: len(df[df[\"status\"] == \"ERROR\"])\n\
             {schema}\n- task_id (str): id\n- activity_id (str): step\n- duration (float): s\n\
             - accuracy (float): model accuracy\n- average (float): final value\n\
             {guide}\n- For task duration, use the column duration.\n",
            role = markers::ROLE,
            job = markers::JOB,
            df = markers::DATAFRAME,
            fmt = markers::OUTPUT_FORMAT,
            fs = markers::FEW_SHOT,
            schema = markers::SCHEMA,
            guide = markers::GUIDELINES,
        );
        let p = PromptSections::parse(&text);
        assert_eq!(
            code("What is the average accuracy per activity?", &p),
            r#"df.groupby("activity_id")["accuracy"].mean()"#
        );
        // "average duration" still resolves through the duration path, not
        // the `average` column.
        let c = code("What is the average duration per activity?", &p);
        assert!(c.contains("\"duration\""), "{c}");
    }

    #[test]
    fn count_finished() {
        let p = full_prompt();
        assert_eq!(
            code("How many tasks have finished so far?", &p),
            r#"len(df[df["status"] == "FINISHED"])"#
        );
    }

    #[test]
    fn count_failed_uses_error_literal_with_context() {
        let p = full_prompt();
        assert_eq!(
            code("How many tasks failed?", &p),
            r#"len(df[df["status"] == "ERROR"])"#
        );
    }

    #[test]
    fn failed_literal_guessed_wrong_without_values() {
        let bare = PromptSections::parse(&format!(
            "{}\nrole\n{}\njob\n{}\ndf\n{}\nReturn a query.\n",
            markers::ROLE,
            markers::JOB,
            markers::DATAFRAME,
            markers::OUTPUT_FORMAT
        ));
        let text = code("How many tasks failed?", &bare);
        assert!(text.contains("FAILED"), "got {text}");
    }

    #[test]
    fn groupby_mean_duration() {
        let p = full_prompt();
        assert_eq!(
            code("What is the average duration per activity?", &p),
            r#"df.groupby("activity_id")["duration"].mean()"#
        );
    }

    #[test]
    fn value_counts_per_host() {
        let p = full_prompt();
        assert_eq!(
            code("How many tasks ran on each host?", &p),
            r#"df["hostname"].value_counts()"#
        );
    }

    #[test]
    fn span_query() {
        let p = full_prompt();
        assert_eq!(
            code("What is the total time span of the workflow execution?", &p),
            r#"df["ended_at"].max() - df["started_at"].min()"#
        );
    }

    #[test]
    fn extreme_row_with_cell() {
        let p = full_prompt();
        assert_eq!(
            code(
                "On which host did the task with the highest GPU utilization run?",
                &p
            ),
            r#"df.loc[df["gpu_percent_end"].idxmax(), "hostname"]"#
        );
    }

    #[test]
    fn topn_slowest() {
        let p = full_prompt();
        let c = code("Show the 3 slowest tasks with their activity and host.", &p);
        assert!(
            c.contains(r#"sort_values("duration", ascending=False)"#),
            "{c}"
        );
        assert!(c.contains(".head(3)"), "{c}");
    }

    #[test]
    fn filter_by_activity() {
        let p = full_prompt();
        let c = code("What exponent did the power activity use?", &p);
        assert!(c.contains(r#"df["activity_id"] == "power""#), "{c}");
        assert!(c.contains("exponent"), "{c}");
    }

    #[test]
    fn host_filter_contains() {
        let p = full_prompt();
        let c = code(
            "Show the tasks that ran on host frontier00082 with their activity and duration.",
            &p,
        );
        assert!(c.contains(r#".str.contains("frontier00082")"#), "{c}");
    }

    #[test]
    fn started_after_uses_guideline_convention() {
        let p = full_prompt();
        let c = code(
            "Which tasks started after time 1753457859 and what output y did they produce?",
            &p,
        );
        assert!(c.contains(r#"df["started_at"] > 1753457859"#), "{c}");
        assert!(c.contains(r#""y""#), "{c}");
    }

    #[test]
    fn zero_shot_yields_prose() {
        let empty = PromptSections::parse("");
        match translate("How many tasks failed?", &empty, Key::new(1)) {
            Translation::Prose { intent, .. } => assert_eq!(intent, IntentKind::Unknown),
            other => panic!("expected prose, got {other:?}"),
        }
    }

    #[test]
    fn greeting_detected() {
        let p = full_prompt();
        match translate("Hello!", &p, Key::new(1)) {
            Translation::Prose { intent, .. } => assert_eq!(intent, IntentKind::Greeting),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn hallucinates_node_without_schema() {
        let bare = PromptSections::parse(&format!(
            "{}\nrole\n{}\njob\n{}\ndf\n{}\nReturn a query.\n",
            markers::ROLE,
            markers::JOB,
            markers::DATAFRAME,
            markers::OUTPUT_FORMAT
        ));
        let c = code("How many tasks ran on each host?", &bare);
        assert!(c.contains("node"), "expected hallucinated field, got {c}");
    }

    #[test]
    fn chem_q1_highest_free_energy() {
        let chem = chem_prompt();
        assert_eq!(
            code(
                "Which bond has the highest dissociation free energy?",
                &chem
            ),
            r#"df.loc[df["bd_free_energy"].idxmax(), "bond_id"]"#
        );
    }

    #[test]
    fn chem_q3_bare_value() {
        let chem = chem_prompt();
        assert_eq!(
            code("What is the lowest energy bond enthalpy?", &chem),
            r#"df["bd_enthalpy"].min()"#
        );
    }

    #[test]
    fn chem_q9_contains_filter() {
        let chem = chem_prompt();
        assert_eq!(
            code(
                "What is the average bond dissociation enthalpy for the bond labels that contain 'C-H'?",
                &chem
            ),
            r#"df[df["bond_id"].str.contains("C-H")]["bd_enthalpy"].mean()"#
        );
    }

    #[test]
    fn chem_q6_parent_spin_charge() {
        let chem = chem_prompt();
        let c = code("What are the multiplicity and charge of the parent?", &chem);
        assert!(c.contains(r#"df["molecule_label"] == "parent""#), "{c}");
        assert!(c.contains("multiplicity") && c.contains("charge"), "{c}");
    }

    fn chem_prompt() -> PromptSections {
        let text = format!(
            "{role}\nrole\n{job}\njob\n{df}\ndf\n{fmt}\nReturn a single pandas expression.\n\
             {fs}\nQ: How many tasks failed?\nA: len(df[df[\"status\"] == \"ERROR\"])\n\
             {schema}\n- task_id (str): id\n- activity_id (str): step\n- bond_id (str): bond label\n\
             - bd_energy (float): dissociation energy\n- bd_enthalpy (float): dissociation enthalpy\n\
             - bd_free_energy (float): dissociation free energy\n- molecule_label (str): which molecule\n\
             - n_atoms (int): atom count\n- multiplicity (int): spin\n- charge (int): net charge\n\
             - functional (str): DFT functional\n- e0 (float): electronic energy\n\
             {values}\n- molecule_label: parent | C-H_1:fragment1\n- functional: B3LYP\n\
             {guide}\n- For time ranges, use the column started_at.\n",
            role = markers::ROLE,
            job = markers::JOB,
            df = markers::DATAFRAME,
            fmt = markers::OUTPUT_FORMAT,
            fs = markers::FEW_SHOT,
            schema = markers::SCHEMA,
            values = markers::VALUES,
            guide = markers::GUIDELINES,
        );
        PromptSections::parse(&text)
    }
}
