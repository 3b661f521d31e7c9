//! The value-lookup step renders one sample per column for every rule
//! and labeling function, and stops counting a rule's matches once its
//! threshold is out of reach. Both are pure savings: on a customer
//! with a hundred corrections (dozens of local regex and dictionary
//! LFs), every candidate — type and confidence bits — must
//! equal the straightforward path that renders the sample again for
//! each LF and counts every value of every rule.

use sigmatyper::{
    train_global, Candidate, SigmaTyper, SigmaTyperConfig, StepScores, TrainingConfig,
};
use std::sync::Arc;
use tu_corpus::{generate_corpus, Corpus, CorpusConfig};
use tu_dp::lf::{DICT_PASS, SAMPLE, VALUE_PASS};
use tu_dp::{LabelingFunction, LfKind, LfSource};
use tu_ontology::{builtin_ontology, TypeId};
use tu_table::{Column, Value};

/// Render `column.sample(n)`.
fn rendered(column: &Column, n: usize) -> Vec<String> {
    column.sample(n).into_iter().map(Value::render).collect()
}

/// Fraction of `values` satisfying `hit`, counting every value.
fn fraction(values: &[String], hit: impl Fn(&str) -> bool) -> f64 {
    values.iter().filter(|v| hit(v)).count() as f64 / values.len() as f64
}

/// The lookup step without shared samples or early stops: each rule
/// counts every value, and each LF renders the column's sample anew.
fn per_lf_lookup(
    typer: &SigmaTyper,
    column: &Column,
    header: &str,
    identity: &[&LabelingFunction],
    config: &SigmaTyperConfig,
) -> StepScores {
    let global = typer.global();
    let weight = |t: TypeId| typer.local().wg(t, header);
    let mut cands = Vec::new();
    let sample = rendered(column, config.lookup_sample);
    if !sample.is_empty() {
        for (ty, f) in global.lookup.kb().coverage(&sample) {
            if f > 0.3 {
                cands.push(Candidate {
                    ty,
                    confidence: f * weight(ty),
                });
            }
        }
        for rule in &global.lookup.bank().shapes {
            let f = fraction(&sample, |v| rule.regex.is_full_match(v));
            if f > 0.5 {
                cands.push(Candidate {
                    ty: rule.ty,
                    confidence: f * weight(rule.ty),
                });
            }
        }
        cands.extend(global.lookup.bank().score_ranges(
            &column.numeric_values(),
            config.range_lf_scale,
            &weight,
        ));
    }
    for lf in identity {
        let fires = match &lf.kind {
            LfKind::HeaderEquals(h) => header == h,
            LfKind::Dictionary(set) => {
                let values = rendered(column, SAMPLE);
                !values.is_empty()
                    && fraction(&values, |v| set.contains(&v.to_lowercase())) >= DICT_PASS
            }
            LfKind::Pattern(re) => {
                let values = rendered(column, SAMPLE);
                !values.is_empty() && fraction(&values, |v| re.is_full_match(v)) >= VALUE_PASS
            }
            _ => unreachable!("identity LFs only"),
        };
        if fires {
            let mut confidence = 0.95;
            if lf.source == LfSource::Global {
                confidence *= weight(lf.ty);
            }
            cands.push(Candidate {
                ty: lf.ty,
                confidence,
            });
        }
    }
    let mut scores = StepScores::from_candidates(cands);
    scores.candidates.truncate(config.top_k.max(8));
    scores
}

fn bits(scores: &StepScores) -> Vec<(TypeId, u64)> {
    scores
        .candidates
        .iter()
        .map(|c| (c.ty, c.confidence.to_bits()))
        .collect()
}

/// Correct every labeled column of `history` to its gold type until
/// `n` corrections have been made.
fn corrected_customer(typer: &mut SigmaTyper, history: &Corpus, n: usize) {
    let mut made = 0;
    for at in history.tables.iter().cycle() {
        for (ci, &label) in at.labels.iter().enumerate() {
            if made == n {
                return;
            }
            if !label.is_unknown() {
                typer.feedback(&at.table, ci, label, None);
                made += 1;
            }
        }
    }
}

#[test]
fn shared_sample_lookup_matches_per_lf_path_after_many_corrections() {
    let ontology = builtin_ontology();
    let train = generate_corpus(&ontology, &CorpusConfig::database_like(0x10C, 16));
    let global = Arc::new(train_global(ontology, &train, &TrainingConfig::fast()));
    let mut typer = SigmaTyper::builder(Arc::clone(&global)).build();
    let history = generate_corpus(&global.ontology, &CorpusConfig::database_like(0x10D, 24));
    corrected_customer(&mut typer, &history, 100);
    let local_lfs = &typer.local().lfs;
    let value_lfs = local_lfs
        .iter()
        .filter(|lf| matches!(lf.kind, LfKind::Pattern(_) | LfKind::Dictionary(_)))
        .count();
    assert!(
        value_lfs >= 20,
        "premise: the customer carries many local value LFs, got {value_lfs}"
    );

    let banks: [&[LabelingFunction]; 2] = [&global.global_lfs, local_lfs];
    let identity = sigmatyper::ValueLookup::identity_lfs(&banks);
    let eval = generate_corpus(&global.ontology, &CorpusConfig::database_like(0x10E, 12));
    let mut fired = 0;
    // The default sample size shares one rendering with the LFs; a
    // different size gives the KB and regex bank their own.
    for lookup_sample in [SAMPLE, 7] {
        let config = SigmaTyperConfig {
            lookup_sample,
            ..*typer.config()
        };
        for at in eval.tables.iter().chain(&history.tables) {
            for column in at.table.columns() {
                let header = tu_text::normalize_header(&column.name);
                let shared =
                    global
                        .lookup
                        .lookup_with_lfs(column, &header, &[], &identity, &config, &|t| {
                            typer.local().wg(t, &header)
                        });
                let reference = per_lf_lookup(&typer, column, &header, &identity, &config);
                assert_eq!(
                    bits(&shared),
                    bits(&reference),
                    "column {:?} (lookup_sample {lookup_sample})",
                    column.name
                );
                fired += usize::from(!shared.candidates.is_empty());
            }
        }
    }
    assert!(
        fired > 100,
        "the comparison must cover firing rules, got {fired}"
    );
}
