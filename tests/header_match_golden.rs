//! Golden oracle for the header-matching step.
//!
//! `HeaderMatcher::match_header` scores a header against every ontology
//! surface through prepared surfaces, allocation-free kernels and skip
//! bounds. This suite keeps the straightforward per-pair loop it
//! replaced — `fuzzy_score` plus token containment plus the exact and
//! stemmed-exact checks, recomputed from scratch for every surface — and
//! asserts both produce the same candidate lists, bit for bit, over the
//! bench fixture's headers, opaque-heavy generated corpora and
//! hand-picked edge cases, at the default floor and at two others.
//! (`crates/text/tests/properties.rs` pins `fuzzy_score` itself to the
//! original `Vec<char>`/`HashSet` implementations.)

use sigmatyper::{
    train_global, Candidate, GlobalModel, SigmaTyperConfig, StepScores, TrainingConfig,
};
use std::sync::{Arc, OnceLock};
use tu_corpus::{generate_corpus, CorpusConfig};
use tu_ontology::builtin_ontology;
use tu_text::{fuzzy_score, normalize_header, stem_phrase};

fn global() -> Arc<GlobalModel> {
    static GLOBAL: OnceLock<Arc<GlobalModel>> = OnceLock::new();
    GLOBAL
        .get_or_init(|| {
            let ontology = builtin_ontology();
            let corpus = generate_corpus(&ontology, &CorpusConfig::database_like(42, 40));
            Arc::new(train_global(ontology, &corpus, &TrainingConfig::fast()))
        })
        .clone()
}

/// The per-pair matching loop as it stood before prepared surfaces.
fn oracle_match_header(
    global: &GlobalModel,
    syntactic_floor: f64,
    header: &str,
    config: &SigmaTyperConfig,
) -> StepScores {
    let matcher = &global.header;
    let embedder = &global.embedder;
    let normalized = normalize_header(header);
    if normalized.is_empty() {
        return StepScores::default();
    }
    let stemmed = stem_phrase(&normalized);
    let header_tokens: Vec<String> = normalized.split(' ').map(str::to_owned).collect();
    let surfaces = global.ontology.all_surfaces();
    let mut cands: Vec<Candidate> = Vec::new();
    for &(surface, ty) in &surfaces {
        if surface == normalized {
            cands.push(Candidate {
                ty,
                confidence: 1.0,
            });
        } else if surface == stemmed || stem_phrase(surface) == stemmed {
            cands.push(Candidate {
                ty,
                confidence: 0.97,
            });
        } else {
            let mut s = fuzzy_score(&normalized, surface);
            let surface_tokens: Vec<&str> = surface.split(' ').collect();
            if surface_tokens
                .iter()
                .all(|t| header_tokens.iter().any(|h| h == t))
            {
                let ratio = surface_tokens.len() as f64 / header_tokens.len() as f64;
                s = s.max(0.78 + 0.22 * ratio.min(1.0));
            }
            if s >= syntactic_floor {
                cands.push(Candidate {
                    ty,
                    confidence: s * 0.8,
                });
            }
        }
    }
    let best_syntactic = cands.iter().map(|c| c.confidence).fold(0.0f64, f64::max);
    if best_syntactic < config.cascade_threshold {
        let hv = embedder.phrase_vector(&normalized);
        for &(surface, ty) in &surfaces {
            let sv = embedder.phrase_vector(surface);
            let cos = f64::from(tu_embed::cosine(&hv, &sv));
            if cos >= matcher.semantic_floor {
                cands.push(Candidate {
                    ty,
                    confidence: cos * 0.8,
                });
            }
        }
    }
    let mut scores = StepScores::from_candidates(cands);
    scores.candidates.truncate(config.top_k.max(8));
    scores
}

/// Every header the suite checks.
fn headers() -> Vec<String> {
    let ontology = builtin_ontology();
    // The bench fixture's evaluation corpus (`tu_bench::BenchFixture`).
    let mut out: Vec<String> = generate_corpus(&ontology, &CorpusConfig::database_like(0xBE0, 12))
        .tables
        .iter()
        .flat_map(|at| at.table.headers().into_iter().map(str::to_owned))
        .collect();
    for seed in [1u64, 2, 3] {
        let mut cfg = CorpusConfig::database_like(seed, 12);
        cfg.opaque_header_rate = 0.5;
        out.extend(
            generate_corpus(&ontology, &cfg)
                .tables
                .iter()
                .flat_map(|at| at.table.headers().into_iter().map(str::to_owned)),
        );
    }
    out.extend(
        [
            "",
            "   ",
            "\t",
            "DOB",
            "col_salary",
            "salry",
            "Cities",
            "xq7_zz",
            "été_naïve",
            "ÅÄÖ",
            "x",
            "Q",
            "customer_billing_address_line_two_postal_code_extended",
        ]
        .map(str::to_owned),
    );
    out
}

fn assert_same(header: &str, floor: f64, got: &StepScores, want: &StepScores) {
    let bits = |s: &StepScores| {
        s.candidates
            .iter()
            .map(|c| (c.ty, c.confidence.to_bits()))
            .collect::<Vec<_>>()
    };
    assert_eq!(
        bits(got),
        bits(want),
        "header {header:?} at floor {floor}: matcher diverged from the per-pair oracle"
    );
}

#[test]
fn match_header_equals_the_per_pair_oracle() {
    let global = global();
    let config = SigmaTyperConfig::default();
    let headers = headers();
    assert!(headers.len() > 300, "only {} headers", headers.len());
    let floor = global.header.syntactic_floor;
    for header in &headers {
        let got = global
            .header
            .match_header(header, &global.embedder, &config);
        let want = oracle_match_header(&global, floor, header, &config);
        assert_same(header, floor, &got, &want);
    }
}

#[test]
fn match_header_equals_the_oracle_at_other_floors() {
    let global = global();
    let config = SigmaTyperConfig::default();
    let headers = headers();
    for floor in [0.5, 0.9] {
        let mut matcher = global.header.clone();
        matcher.syntactic_floor = floor;
        for header in headers.iter().step_by(3) {
            let got = matcher.match_header(header, &global.embedder, &config);
            let want = oracle_match_header(&global, floor, header, &config);
            assert_same(header, floor, &got, &want);
        }
    }
}
