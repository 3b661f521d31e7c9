//! Weak-label mining: apply an LF bank to a corpus to generate training
//! data (step ③/④ of paper Figure 3).

use crate::labelmodel::{majority_vote, LabelModel, LabelModelConfig, WeakLabel};
use crate::lf::{context, normalize, LabelingFunction, LfSample, LfStrength};
use tu_corpus::Corpus;
use tu_ontology::TypeId;

/// One mined, weakly labeled column.
#[derive(Debug, Clone)]
pub struct MinedColumn {
    /// Index of the table in the corpus.
    pub table_idx: usize,
    /// Column index within the table.
    pub col_idx: usize,
    /// The weak label.
    pub label: WeakLabel,
}

/// How vote rows are resolved into labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resolution {
    /// Simple majority vote.
    MajorityVote,
    /// One-coin EM label model.
    LabelModel,
}

/// Mining thresholds.
#[derive(Debug, Clone, Copy)]
pub struct MiningConfig {
    /// Vote-resolution strategy.
    pub resolution: Resolution,
    /// Minimum resolved confidence to keep a label.
    pub min_confidence: f64,
    /// Minimum number of non-abstaining votes.
    pub min_votes: usize,
    /// Require at least one [`LfStrength::Strong`] vote. Contextual LFs
    /// (mean range, co-occurrence) fire on far too many columns alone.
    pub require_strong: bool,
}

impl Default for MiningConfig {
    fn default() -> Self {
        MiningConfig {
            resolution: Resolution::LabelModel,
            min_confidence: 0.5,
            min_votes: 2,
            require_strong: true,
        }
    }
}

/// Apply `lfs` to every column of `corpus`, producing weak labels for
/// columns passing the [`MiningConfig`] thresholds.
///
/// Neighbor types for the co-occurrence LFs are taken from the corpus
/// annotations of the *other* columns — mirroring the deployed system,
/// where prior pipeline predictions provide that context.
#[must_use]
pub fn mine_weak_labels(
    corpus: &Corpus,
    lfs: &[LabelingFunction],
    config: &MiningConfig,
) -> Vec<MinedColumn> {
    if lfs.is_empty() {
        return Vec::new();
    }
    // Collect vote rows for every column.
    let mut rows = Vec::new();
    let mut coords = Vec::new();
    for (ti, at) in corpus.tables.iter().enumerate() {
        for (ci, col) in at.table.columns().iter().enumerate() {
            let neighbors: Vec<TypeId> = at
                .labels
                .iter()
                .enumerate()
                .filter(|(i, l)| *i != ci && !l.is_unknown())
                .map(|(_, l)| *l)
                .collect();
            let header = normalize(&col.name);
            let ctx = context(col, &header, &neighbors);
            let sample = LfSample::new(col);
            let row: Vec<Option<TypeId>> = lfs.iter().map(|l| l.vote_on(&ctx, &sample)).collect();
            let n_votes = row.iter().filter(|v| v.is_some()).count();
            if n_votes == 0 {
                continue;
            }
            let has_strong = row
                .iter()
                .zip(lfs)
                .any(|(v, l)| v.is_some() && l.strength() == LfStrength::Strong);
            if n_votes >= config.min_votes && (!config.require_strong || has_strong) {
                rows.push(row);
                coords.push((ti, ci));
            }
        }
    }
    let model = match config.resolution {
        Resolution::LabelModel if !rows.is_empty() => {
            Some(LabelModel::fit(&rows, &LabelModelConfig::default()))
        }
        _ => None,
    };
    let mut out = Vec::new();
    for (row, (ti, ci)) in rows.iter().zip(coords) {
        let label = match &model {
            Some(m) => m.resolve(row),
            None => majority_vote(row),
        };
        if let Some(label) = label {
            if label.confidence >= config.min_confidence {
                out.push(MinedColumn {
                    table_idx: ti,
                    col_idx: ci,
                    label,
                });
            }
        }
    }
    out
}

/// Precision of mined labels against corpus ground truth (for evaluation;
/// the deployed system obviously has no ground truth at mining time).
#[must_use]
pub fn mined_precision(corpus: &Corpus, mined: &[MinedColumn]) -> f64 {
    if mined.is_empty() {
        return 0.0;
    }
    let correct = mined
        .iter()
        .filter(|m| corpus.tables[m.table_idx].labels[m.col_idx] == m.label.ty)
        .count();
    correct as f64 / mined.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infer::{infer_lfs, Demonstration, InferConfig};
    use tu_corpus::{generate_corpus, CorpusConfig};
    use tu_ontology::{builtin_id, builtin_ontology};

    #[test]
    fn demonstration_mines_matching_columns() {
        let o = builtin_ontology();
        let corpus = generate_corpus(&o, &CorpusConfig::database_like(21, 80));
        let salary = builtin_id(&o, "salary");

        // Demonstrate on one salary column.
        let (demo_table, demo_col) = corpus
            .columns()
            .find(|(_, _, l)| *l == salary)
            .map(|(t, i, _)| (t, i))
            .expect("corpus contains a salary column");
        let column = demo_table.table.column(demo_col).unwrap();
        let neighbors: Vec<TypeId> = demo_table
            .labels
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != demo_col)
            .map(|(_, l)| *l)
            .collect();
        let lfs = infer_lfs(
            &Demonstration {
                column,
                neighbor_types: &neighbors,
                ty: salary,
            },
            &InferConfig::default(),
        );

        let mined = mine_weak_labels(&corpus, &lfs, &MiningConfig::default());
        assert!(
            !mined.is_empty(),
            "should mine at least the demonstrated column"
        );
        let precision = mined_precision(&corpus, &mined);
        assert!(
            precision > 0.6,
            "weak labels should be mostly correct, got {precision} over {} mined",
            mined.len()
        );
        // It should find *more* salary columns than the single demo.
        let salary_hits = mined
            .iter()
            .filter(|m| corpus.tables[m.table_idx].labels[m.col_idx] == salary)
            .count();
        assert!(
            salary_hits >= 2,
            "generalization beyond the demo: {salary_hits}"
        );
    }

    #[test]
    fn strong_vote_requirement_filters_context_only_hits() {
        let o = builtin_ontology();
        let corpus = generate_corpus(&o, &CorpusConfig::database_like(25, 40));
        let salary = builtin_id(&o, "salary");
        let (t, i) = corpus
            .columns()
            .find(|(_, _, l)| *l == salary)
            .map(|(t, i, _)| (t, i))
            .expect("salary column");
        let neighbors: Vec<TypeId> = t
            .labels
            .iter()
            .enumerate()
            .filter(|(idx, _)| *idx != i)
            .map(|(_, l)| *l)
            .collect();
        let lfs = infer_lfs(
            &Demonstration {
                column: t.table.column(i).unwrap(),
                neighbor_types: &neighbors,
                ty: salary,
            },
            &InferConfig::default(),
        );
        let strict = mine_weak_labels(&corpus, &lfs, &MiningConfig::default());
        let lax = mine_weak_labels(
            &corpus,
            &lfs,
            &MiningConfig {
                min_votes: 1,
                require_strong: false,
                ..MiningConfig::default()
            },
        );
        assert!(strict.len() < lax.len(), "strong/vote gating must prune");
        assert!(
            mined_precision(&corpus, &strict) > mined_precision(&corpus, &lax),
            "gating should raise precision"
        );
    }

    #[test]
    fn empty_lf_bank_mines_nothing() {
        let o = builtin_ontology();
        let corpus = generate_corpus(&o, &CorpusConfig::database_like(22, 5));
        assert!(mine_weak_labels(&corpus, &[], &MiningConfig::default()).is_empty());
    }

    #[test]
    fn confidence_threshold_filters() {
        let o = builtin_ontology();
        let corpus = generate_corpus(&o, &CorpusConfig::database_like(23, 20));
        let city = builtin_id(&o, "city");
        let (t, i) = corpus
            .columns()
            .find(|(_, _, l)| *l == city)
            .map(|(t, i, _)| (t, i))
            .expect("city column");
        let lfs = infer_lfs(
            &Demonstration {
                column: t.table.column(i).unwrap(),
                neighbor_types: &[],
                ty: city,
            },
            &InferConfig::default(),
        );
        let lo = mine_weak_labels(
            &corpus,
            &lfs,
            &MiningConfig {
                resolution: Resolution::MajorityVote,
                min_confidence: 0.0,
                min_votes: 1,
                require_strong: true,
            },
        );
        let hi = mine_weak_labels(
            &corpus,
            &lfs,
            &MiningConfig {
                resolution: Resolution::MajorityVote,
                min_confidence: 0.999,
                min_votes: 2,
                require_strong: true,
            },
        );
        assert!(hi.len() <= lo.len());
    }

    #[test]
    fn precision_of_empty_is_zero() {
        let o = builtin_ontology();
        let corpus = generate_corpus(&o, &CorpusConfig::database_like(24, 2));
        assert_eq!(mined_precision(&corpus, &[]), 0.0);
    }
}
