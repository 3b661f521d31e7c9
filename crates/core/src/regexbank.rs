//! The built-in regex bank: shape rules for the value-lookup step.
//!
//! Paper §4.3, lookup rule source 3: "a set of regular expressions which
//! might be expanded on user input as well". Patterns are written in the
//! `tu-regex` dialect and full-match cell values.

use crate::prediction::Candidate;
use tu_ontology::{Ontology, TypeId};
use tu_regex::Regex;

/// A named, typed shape rule.
#[derive(Debug, Clone)]
pub struct ShapeRule {
    /// The type this rule votes for.
    pub ty: TypeId,
    /// Compiled pattern.
    pub regex: Regex,
}

/// Numeric-range rule: fires when ≥90% of numeric values fall in range.
#[derive(Debug, Clone, Copy)]
pub struct RangeRule {
    /// The type this rule votes for.
    pub ty: TypeId,
    /// Inclusive lower bound.
    pub min: f64,
    /// Inclusive upper bound.
    pub max: f64,
}

/// The built-in rule bank.
#[derive(Debug, Clone, Default)]
pub struct RegexBank {
    /// Shape rules.
    pub shapes: Vec<ShapeRule>,
    /// Numeric-range rules (ambiguous on their own; scaled by config).
    pub ranges: Vec<RangeRule>,
}

/// Patterns per built-in type name.
const SHAPES: &[(&str, &str)] = &[
    ("email", r"[\w\.]+@[\w\.-]+\.[a-z]{2,4}"),
    (
        "phone number",
        r"(\(\d{3}\) \d{3}-\d{4}|\d{3}-\d{3}-\d{4}|\d{3} \d{3} \d{4}|\+\d{1,2} \d{2} \d{7})",
    ),
    ("ip address", r"\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}"),
    (
        "uuid",
        r"[0-9a-f]{8}-[0-9a-f]{4}-[0-9a-f]{4}-[0-9a-f]{4}-[0-9a-f]{12}",
    ),
    ("url", r"(http|https)://[\w\.-]+(/[\w\./\?=&%-]*)?"),
    ("zip code", r"\d{5}(-\d{4})?"),
    ("social security number", r"\d{3}-\d{2}-\d{4}"),
    ("credit card number", r"\d{4} \d{4} \d{4} \d{4}"),
    ("isbn", r"978-\d-\d{4}-\d{4}-\d"),
    ("hex color", r"#[0-9A-Fa-f]{6}"),
    ("iban", r"[A-Z]{2}\d{18}"),
    ("sku", r"[A-Z]{2}-\d{4}"),
    ("order id", r"(ORD-\d{6}|PO-\d{5})"),
    ("datetime", r"\d{4}-\d{2}-\d{2} \d{2}:\d{2}:\d{2}"),
    ("time", r"\d{2}:\d{2}:\d{2}"),
    ("domain name", r"[a-z0-9]+\.(com|org|net|io|dev|app|ai|co)"),
    ("mime type", r"[a-z]+/[a-z0-9\.\+-]+"),
    ("username", r"[a-z]+\d{1,3}"),
];

/// Numeric ranges per built-in type name.
const RANGES: &[(&str, f64, f64)] = &[
    ("latitude", -90.0, 90.0),
    ("longitude", -180.0, 180.0),
    ("age", 0.0, 120.0),
    ("percentage", 0.0, 100.0),
    ("year", 1900.0, 2100.0),
    ("heart rate", 30.0, 250.0),
    ("humidity", 0.0, 100.0),
    ("rating", 0.0, 10.0),
];

impl RegexBank {
    /// Build the bank wired to an ontology's built-in types. Types absent
    /// from the ontology are skipped, so custom ontologies still work.
    #[must_use]
    pub fn builtin(ontology: &Ontology) -> Self {
        let mut bank = RegexBank::default();
        for (name, pattern) in SHAPES {
            if let Some(ty) = ontology.lookup_exact(name) {
                let regex = Regex::new(pattern)
                    .unwrap_or_else(|e| panic!("builtin pattern {name:?} invalid: {e}"));
                bank.shapes.push(ShapeRule { ty, regex });
            }
        }
        for (name, min, max) in RANGES {
            if let Some(ty) = ontology.lookup_exact(name) {
                bank.ranges.push(RangeRule {
                    ty,
                    min: *min,
                    max: *max,
                });
            }
        }
        bank
    }

    /// Add a user-supplied pattern for a type (the paper's "expanded on
    /// user input").
    ///
    /// Returns `Err` for an invalid pattern.
    pub fn add_shape(&mut self, ty: TypeId, pattern: &str) -> Result<(), tu_regex::ParseError> {
        let regex = Regex::new(pattern)?;
        self.shapes.push(ShapeRule { ty, regex });
        Ok(())
    }

    /// Score the shape rules against a rendered value sample: a rule
    /// votes when more than half the sample full-matches, with the
    /// matching fraction (per-type weighted) as its confidence; a rule
    /// stops matching once half the sample is out of reach. Shared
    /// by the lookup step and the standalone regex-only step so the
    /// two can never drift apart.
    #[must_use]
    pub fn score_shapes(
        &self,
        sample: &[String],
        weight: &dyn Fn(TypeId) -> f64,
    ) -> Vec<Candidate> {
        let mut cands = Vec::new();
        if sample.is_empty() {
            return cands;
        }
        for rule in &self.shapes {
            let reached =
                tu_dp::hits_reaching(sample, |v| rule.regex.is_full_match(v), |f| f > 0.5);
            if let Some(hits) = reached {
                let fraction = hits as f64 / sample.len() as f64;
                cands.push(Candidate {
                    ty: rule.ty,
                    confidence: fraction * weight(rule.ty),
                });
            }
        }
        cands
    }

    /// Score the numeric-range rules: a rule votes when over 90% of the
    /// numeric values fall in its range, scaled by `scale` — ranges are
    /// ambiguous on their own, so they must not clear the cascade
    /// threshold unassisted.
    #[must_use]
    pub fn score_ranges(
        &self,
        nums: &[f64],
        scale: f64,
        weight: &dyn Fn(TypeId) -> f64,
    ) -> Vec<Candidate> {
        let mut cands = Vec::new();
        if nums.is_empty() {
            return cands;
        }
        for rule in &self.ranges {
            let hits = nums
                .iter()
                .filter(|v| **v >= rule.min && **v <= rule.max)
                .count();
            let fraction = hits as f64 / nums.len() as f64;
            if fraction > 0.9 {
                cands.push(Candidate {
                    ty: rule.ty,
                    confidence: fraction * scale * weight(rule.ty),
                });
            }
        }
        cands
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tu_ontology::{builtin_id, builtin_ontology};

    #[test]
    fn builds_all_builtin_patterns() {
        let o = builtin_ontology();
        let bank = RegexBank::builtin(&o);
        assert_eq!(bank.shapes.len(), SHAPES.len());
        assert_eq!(bank.ranges.len(), RANGES.len());
    }

    #[test]
    fn patterns_match_generated_values() {
        // Every shape rule must accept values produced by the corpus
        // generator for its own type — the bank and generator co-evolve.
        use rand::SeedableRng;
        let o = builtin_ontology();
        let bank = RegexBank::builtin(&o);
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        let p = tu_corpus::GenParams {
            null_rate: 0.0,
            ..tu_corpus::GenParams::default()
        };
        for rule in &bank.shapes {
            let mut hits = 0;
            let mut textual = 0;
            for _ in 0..30 {
                let v = tu_corpus::generators::generate_value(&mut rng, &o, rule.ty, &p);
                // Some generators (order id) also emit plain integers;
                // shape rules only claim the textual renderings.
                if v.as_text().is_none() {
                    continue;
                }
                textual += 1;
                if rule.regex.is_full_match(&v.render()) {
                    hits += 1;
                }
            }
            assert!(textual > 0, "no textual values for {}", o.name(rule.ty));
            assert!(
                hits * 10 >= textual * 9,
                "rule for {} matched only {hits}/{textual}",
                o.name(rule.ty)
            );
        }
    }

    #[test]
    fn patterns_reject_unrelated_values() {
        let o = builtin_ontology();
        let bank = RegexBank::builtin(&o);
        let email_rule = bank
            .shapes
            .iter()
            .find(|r| r.ty == builtin_id(&o, "email"))
            .unwrap();
        for not_email in ["plain text", "555-0199", "12.5", "user at host"] {
            assert!(!email_rule.regex.is_full_match(not_email), "{not_email}");
        }
    }

    #[test]
    fn user_patterns_addable() {
        let o = builtin_ontology();
        let mut bank = RegexBank::builtin(&o);
        let before = bank.shapes.len();
        bank.add_shape(builtin_id(&o, "sku"), r"[A-Z]{3}\d{6}")
            .unwrap();
        assert_eq!(bank.shapes.len(), before + 1);
        assert!(bank.add_shape(TypeId(1), "(").is_err());
    }

    #[test]
    fn missing_types_skipped_gracefully() {
        let o = Ontology::empty();
        let bank = RegexBank::builtin(&o);
        assert!(bank.shapes.is_empty());
        assert!(bank.ranges.is_empty());
    }
}
