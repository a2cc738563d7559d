//! LLM-as-a-judge (§3 Evaluation, §5.2).
//!
//! Two judge profiles (GPT and Claude) score generated queries against a
//! human-written gold standard, "emphasizing functional equivalence over
//! syntactic similarity". Mechanically the verdict comes from
//! [`provql::compare()`]; on top sit the judge's disposition (GPT scores
//! systematically higher, Claude is stricter), a mild self-preference bias
//! (§5.2: "each judge appears to slightly favor its own model" despite the
//! double-blind setup), and a small keyed jitter.

use crate::model::ModelId;
use crate::rng::Key;
use dataframe::values_equal;
use provql::{compare, parse, QueryOutput};

/// The two judge identities used in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JudgeId {
    /// GPT-4 as judge.
    Gpt,
    /// Claude Opus 4 as judge.
    Claude,
}

impl JudgeId {
    /// Both judges.
    pub fn all() -> [JudgeId; 2] {
        [JudgeId::Gpt, JudgeId::Claude]
    }

    /// Figure label.
    pub fn name(self) -> &'static str {
        match self {
            JudgeId::Gpt => "GPT",
            JudgeId::Claude => "Claude",
        }
    }

    /// The model this judge would (unknowingly) favor.
    fn own_model(self) -> ModelId {
        match self {
            JudgeId::Gpt => ModelId::Gpt,
            JudgeId::Claude => ModelId::Claude,
        }
    }
}

/// A judge's verdict on one response.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// Score in `[0, 1]`.
    pub score: f64,
    /// Judge feedback notes (discrepancies found).
    pub feedback: Vec<String>,
}

/// A scoring judge.
#[derive(Debug, Clone, Copy)]
pub struct Judge {
    /// Identity.
    pub id: JudgeId,
    /// Multiplicative disposition (1.0 = faithful to the rubric).
    strictness: f64,
    /// Rubric exponent: > 1 punishes partial correctness disproportionately
    /// (the Claude judge's sterner grading of weaker outputs, which makes
    /// the judge gap widest for LLaMA 3-8B and Gemini, §5.2).
    exponent: f64,
    /// Additive bonus when judging the judge's own vendor model.
    self_bias: f64,
    /// Jitter amplitude.
    jitter: f64,
}

impl Judge {
    /// The calibrated judge for an identity.
    pub fn new(id: JudgeId) -> Judge {
        match id {
            // GPT consistently scores higher than Claude (§5.2 / Fig 6).
            JudgeId::Gpt => Judge {
                id,
                strictness: 0.972,
                exponent: 1.0,
                self_bias: 0.004,
                jitter: 0.010,
            },
            JudgeId::Claude => Judge {
                id,
                strictness: 0.91,
                exponent: 1.3,
                self_bias: 0.035,
                jitter: 0.010,
            },
        }
    }

    /// Both calibrated judges.
    pub fn panel() -> [Judge; 2] {
        [Judge::new(JudgeId::Gpt), Judge::new(JudgeId::Claude)]
    }

    /// Query-based evaluation: score `generated` against `gold`.
    ///
    /// `schema_columns` enables hallucination detection; `judged_model` is
    /// only used for the self-preference bias (the setup is double-blind —
    /// the bias models the stylistic affinity the paper observed, not
    /// knowledge of the identity); `key` seeds the jitter.
    pub fn judge_query(
        &self,
        generated: &str,
        gold: &str,
        schema_columns: Option<&[String]>,
        judged_model: ModelId,
        key: Key,
    ) -> Verdict {
        let gold_query = match parse(gold) {
            Ok(q) => q,
            Err(e) => {
                return Verdict {
                    score: 0.0,
                    feedback: vec![format!("gold query failed to parse: {e}")],
                }
            }
        };
        let base = match parse(generated) {
            Ok(gen_query) => {
                let cmp = compare(&gen_query, &gold_query, schema_columns);
                let mut feedback = cmp.notes;
                if feedback.is_empty() {
                    feedback.push("functionally equivalent to the gold query".to_string());
                }
                (cmp.score, feedback)
            }
            Err(e) => (
                0.05,
                vec![format!("generated output is not a valid query: {e}")],
            ),
        };
        let (mut score, feedback) = base;
        score = score.powf(self.exponent) * self.strictness;
        if judged_model == self.id.own_model() {
            score += self.self_bias;
        }
        score += self.jitter
            * Key::new(key.value())
                .with_str(self.id.name())
                .with_str(generated)
                .gaussian();
        Verdict {
            score: score.clamp(0.0, 1.0),
            feedback,
        }
    }

    /// Result-based evaluation: similarity of two executed outputs
    /// (the "compare result sets against ground truth" strategy of §3).
    pub fn result_similarity(a: &QueryOutput, b: &QueryOutput) -> f64 {
        match (a, b) {
            (QueryOutput::Scalar(x), QueryOutput::Scalar(y)) => {
                if values_equal(x, y) {
                    1.0
                } else {
                    match (x.as_f64(), y.as_f64()) {
                        (Some(fx), Some(fy)) => {
                            let denom = fx.abs().max(fy.abs()).max(1e-12);
                            (1.0 - ((fx - fy).abs() / denom)).clamp(0.0, 1.0)
                        }
                        _ => 0.0,
                    }
                }
            }
            _ => {
                // Token Jaccard over rendered text.
                let tok = |s: &str| -> Vec<String> {
                    s.split(|c: char| !c.is_alphanumeric() && c != '.')
                        .filter(|t| !t.is_empty())
                        .map(str::to_lowercase)
                        .collect()
                };
                let ta = tok(&a.render());
                let tb = tok(&b.render());
                if ta.is_empty() && tb.is_empty() {
                    return 1.0;
                }
                let inter = ta.iter().filter(|t| tb.contains(t)).count();
                let union = ta.len() + tb.len() - inter;
                inter as f64 / union.max(1) as f64
            }
        }
    }

    /// Hybrid evaluation (§3): weighted blend of query- and result-based
    /// scores.
    pub fn hybrid_score(&self, query_score: f64, result_score: f64) -> f64 {
        (0.6 * query_score + 0.4 * result_score).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prov_model::Value;

    const GOLD: &str = r#"df.groupby("activity_id")["duration"].mean()"#;

    fn key() -> Key {
        Key::new(77)
    }

    #[test]
    fn exact_match_scores_high() {
        for judge in Judge::panel() {
            let v = judge.judge_query(GOLD, GOLD, None, ModelId::Gemini, key());
            assert!(v.score > 0.88, "{:?} gave {}", judge.id, v.score);
        }
    }

    #[test]
    fn gpt_judge_scores_higher_than_claude() {
        let gpt = Judge::new(JudgeId::Gpt);
        let claude = Judge::new(JudgeId::Claude);
        let mut gpt_total = 0.0;
        let mut claude_total = 0.0;
        for i in 0..50 {
            let k = Key::new(i);
            gpt_total += gpt.judge_query(GOLD, GOLD, None, ModelId::Llama8B, k).score;
            claude_total += claude
                .judge_query(GOLD, GOLD, None, ModelId::Llama8B, k)
                .score;
        }
        assert!(
            gpt_total > claude_total + 1.0,
            "gpt {gpt_total} vs claude {claude_total}"
        );
    }

    #[test]
    fn self_preference_bias() {
        let claude = Judge::new(JudgeId::Claude);
        let own: f64 = (0..30)
            .map(|i| {
                claude
                    .judge_query(GOLD, GOLD, None, ModelId::Claude, Key::new(i))
                    .score
            })
            .sum();
        let other: f64 = (0..30)
            .map(|i| {
                claude
                    .judge_query(GOLD, GOLD, None, ModelId::Gpt, Key::new(i))
                    .score
            })
            .sum();
        assert!(own > other, "own {own} vs other {other}");
    }

    #[test]
    fn unparseable_generation_scores_near_zero() {
        let judge = Judge::new(JudgeId::Gpt);
        let v = judge.judge_query(
            "SELECT * FROM provenance",
            GOLD,
            None,
            ModelId::Llama8B,
            key(),
        );
        assert!(v.score < 0.1, "got {}", v.score);
        assert!(v.feedback[0].contains("not a valid query"));
    }

    #[test]
    fn hallucinated_columns_slash_score() {
        let judge = Judge::new(JudgeId::Gpt);
        let schema: Vec<String> = ["activity_id", "duration"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let good = judge
            .judge_query(GOLD, GOLD, Some(&schema), ModelId::Gpt, key())
            .score;
        let bad = judge
            .judge_query(
                r#"df.groupby("node")["runtime"].mean()"#,
                GOLD,
                Some(&schema),
                ModelId::Gpt,
                key(),
            )
            .score;
        assert!(bad < good * 0.4, "bad {bad} vs good {good}");
    }

    #[test]
    fn equivalent_form_scores_close_to_exact() {
        let judge = Judge::new(JudgeId::Gpt);
        let v = judge.judge_query(
            r#"df.sort_values("duration", ascending=False).head(3)"#,
            r#"df.nlargest(3, "duration")"#,
            None,
            ModelId::Claude,
            key(),
        );
        assert!(v.score > 0.9, "got {}", v.score);
    }

    #[test]
    fn result_similarity_scalars() {
        let a = QueryOutput::Scalar(Value::Float(98.6));
        let b = QueryOutput::Scalar(Value::Float(98.6));
        assert_eq!(Judge::result_similarity(&a, &b), 1.0);
        let c = QueryOutput::Scalar(Value::Float(49.3));
        assert!(Judge::result_similarity(&a, &c) < 0.6);
    }

    #[test]
    fn deterministic_verdicts() {
        let judge = Judge::new(JudgeId::Claude);
        let a = judge.judge_query(GOLD, GOLD, None, ModelId::Gpt, Key::new(5));
        let b = judge.judge_query(GOLD, GOLD, None, ModelId::Gpt, Key::new(5));
        assert_eq!(a, b);
    }
}
