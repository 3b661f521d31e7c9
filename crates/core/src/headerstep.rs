//! Pipeline step 1: header matching (paper §4.3).
//!
//! Syntactic matching compares the normalized column header to every
//! ontology surface form with fuzzy string similarity — an exact match
//! yields the maximum confidence of 1.0, exactly as the paper specifies.
//! Semantic matching embeds the header and the type names (FastText role
//! → `tu-embed`) and uses cosine similarity as the confidence.

use crate::config::SigmaTyperConfig;
use crate::prediction::{Candidate, StepScores};
use tu_embed::Embedder;
use tu_ontology::{Ontology, TypeId};
use tu_text::{
    fuzzy_score_reaching, normalize_header, stem_phrase, PreparedText, SimilarityScratch,
};

/// One ontology surface form with everything the syntactic pass needs,
/// computed once at construction.
#[derive(Debug, Clone)]
struct Surface {
    text: String,
    ty: TypeId,
    stem: String,
    tokens: Vec<String>,
    prepared: PreparedText,
}

/// The header-matching step with precomputed ontology target vectors.
#[derive(Debug, Clone)]
pub struct HeaderMatcher {
    surfaces: Vec<Surface>,
    surface_vectors: Vec<Vec<f32>>,
    /// Similarity floor below which syntactic candidates are dropped.
    pub syntactic_floor: f64,
    /// Similarity floor below which semantic candidates are dropped.
    pub semantic_floor: f64,
}

impl HeaderMatcher {
    /// Build from an ontology and a (trained) embedder.
    #[must_use]
    pub fn new(ontology: &Ontology, embedder: &Embedder) -> Self {
        let surfaces: Vec<Surface> = ontology
            .all_surfaces()
            .into_iter()
            .map(|(s, ty)| Surface {
                text: s.to_owned(),
                ty,
                stem: stem_phrase(s),
                tokens: s.split(' ').map(str::to_owned).collect(),
                prepared: PreparedText::new(s),
            })
            .collect();
        let surface_vectors = surfaces
            .iter()
            .map(|s| embedder.phrase_vector(&s.text))
            .collect();
        HeaderMatcher {
            surfaces,
            surface_vectors,
            syntactic_floor: 0.72,
            semantic_floor: 0.45,
        }
    }

    /// Match one header; returns ranked candidates.
    #[must_use]
    pub fn match_header(
        &self,
        header: &str,
        embedder: &Embedder,
        config: &SigmaTyperConfig,
    ) -> StepScores {
        let normalized = normalize_header(header);
        if normalized.is_empty() {
            return StepScores::default();
        }
        let stemmed = stem_phrase(&normalized);
        let header_tokens: Vec<&str> = normalized.split(' ').collect();
        let prepared = PreparedText::new(&normalized);
        let mut scratch = SimilarityScratch::default();
        let floor = self.syntactic_floor;
        let mut cands: Vec<Candidate> = Vec::new();

        // Syntactic pass: exact → 1.0 (the paper's "confidence score is
        // set to the maximum being 100%"); singular/plural-exact → 0.97
        // (Figure 4's "Cities: city"); otherwise best of fuzzy score and
        // token containment ("col_salary" contains "salary").
        for surface in &self.surfaces {
            if surface.text == normalized {
                cands.push(Candidate {
                    ty: surface.ty,
                    confidence: 1.0,
                });
            } else if surface.text == stemmed || surface.stem == stemmed {
                cands.push(Candidate {
                    ty: surface.ty,
                    confidence: 0.97,
                });
            } else {
                // Containment: every surface token appears among the
                // header tokens — strong evidence for decorated headers.
                let contained = if surface
                    .tokens
                    .iter()
                    .all(|t| header_tokens.contains(&t.as_str()))
                {
                    let ratio = surface.tokens.len() as f64 / header_tokens.len() as f64;
                    0.78 + 0.22 * ratio.min(1.0)
                } else {
                    // No evidence: every fuzzy component is ≥ 0.
                    0.0
                };
                // The fuzzy kernels run only where their bounds say the
                // surface can still reach the floor.
                if let Some(s) = fuzzy_score_reaching(
                    &prepared,
                    &surface.prepared,
                    contained,
                    floor,
                    &mut scratch,
                ) {
                    // Cap fuzzy (non-exact) confidence at 0.8: only exact
                    // and singular/plural-exact hits may short-circuit the
                    // cascade, so later steps (and the customer's local
                    // knowledge) can still overrule a lookalike alias.
                    cands.push(Candidate {
                        ty: surface.ty,
                        confidence: s * 0.8,
                    });
                }
            }
        }

        // Semantic pass only when syntactic matching is not confident —
        // mirrors the step's internal escalation and saves embedding cost.
        let best_syntactic = cands.iter().map(|c| c.confidence).fold(0.0f64, f64::max);
        if best_syntactic < config.cascade_threshold {
            let hv = embedder.phrase_vector(&normalized);
            for (surface, sv) in self.surfaces.iter().zip(&self.surface_vectors) {
                let cos = f64::from(tu_embed::cosine(&hv, sv));
                if cos >= self.semantic_floor {
                    // Semantic similarity is softer evidence: like fuzzy
                    // hits it is capped at 0.8 so it can never
                    // short-circuit the cascade on its own.
                    cands.push(Candidate {
                        ty: surface.ty,
                        confidence: cos * 0.8,
                    });
                }
            }
        }

        let mut scores = StepScores::from_candidates(cands);
        scores.candidates.truncate(config.top_k.max(8));
        scores
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tu_ontology::{builtin_id, builtin_ontology};

    fn setup() -> (Ontology, Embedder, HeaderMatcher) {
        let o = builtin_ontology();
        let e = Embedder::untrained(16);
        let m = HeaderMatcher::new(&o, &e);
        (o, e, m)
    }

    #[test]
    fn exact_header_is_certain() {
        let (o, e, m) = setup();
        let s = m.match_header("salary", &e, &SigmaTyperConfig::default());
        let best = s.best().unwrap();
        assert_eq!(best.ty, builtin_id(&o, "salary"));
        assert_eq!(best.confidence, 1.0);
    }

    #[test]
    fn alias_and_casing_resolve_exactly() {
        let (o, e, m) = setup();
        let cfg = SigmaTyperConfig::default();
        for header in ["Income", "INCOME", "income"] {
            let s = m.match_header(header, &e, &cfg);
            assert_eq!(s.best().unwrap().ty, builtin_id(&o, "salary"), "{header}");
            assert_eq!(s.best().unwrap().confidence, 1.0);
        }
        // Abbreviation expansion: DOB → birth date.
        let s = m.match_header("DOB", &e, &cfg);
        assert_eq!(s.best().unwrap().ty, builtin_id(&o, "birth date"));
    }

    #[test]
    fn snake_and_camel_normalize() {
        let (o, e, m) = setup();
        let cfg = SigmaTyperConfig::default();
        for header in ["first_name", "firstName", "First Name", "FIRST_NAME"] {
            let s = m.match_header(header, &e, &cfg);
            assert_eq!(
                s.best().unwrap().ty,
                builtin_id(&o, "first name"),
                "header {header}"
            );
        }
    }

    #[test]
    fn typo_headers_fuzzy_match_below_certainty() {
        let (o, e, m) = setup();
        let s = m.match_header("salry", &e, &SigmaTyperConfig::default());
        let best = s.best().unwrap();
        assert_eq!(best.ty, builtin_id(&o, "salary"));
        assert!(best.confidence < 1.0 && best.confidence > 0.6);
    }

    #[test]
    fn unrelated_headers_score_low() {
        let (_, e, m) = setup();
        let s = m.match_header("xq7_zz", &e, &SigmaTyperConfig::default());
        assert!(
            s.best_confidence() < 0.82,
            "garbage header must not clear the cascade: {:?}",
            s.best()
        );
    }

    #[test]
    fn empty_header_no_candidates() {
        let (_, e, m) = setup();
        let s = m.match_header("  ", &e, &SigmaTyperConfig::default());
        assert!(s.candidates.is_empty());
    }

    #[test]
    fn decorated_headers_still_hit() {
        let (o, e, m) = setup();
        let s = m.match_header("col_salary", &e, &SigmaTyperConfig::default());
        assert_eq!(s.best().unwrap().ty, builtin_id(&o, "salary"));
        assert!(s.best().unwrap().confidence > 0.7);
    }
}
