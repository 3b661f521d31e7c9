//! Labeling functions: weak voters mapping a column to a semantic type.
//!
//! These are the LF shapes of paper Figure 3: numeric range (LF1), mean
//! range (LF2), co-occurring columns (LF3), header match (LF4), plus the
//! dictionary and synthesized-regex forms the lookup step uses.

use std::cell::OnceCell;
use std::collections::HashSet;
use tu_ontology::TypeId;
use tu_regex::Regex;
use tu_table::{Column, Value};
use tu_text::normalize_header;

/// Where an LF came from (global pretrained bank vs. customer-local DPBD).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LfSource {
    /// Shipped with the global model.
    Global,
    /// Inferred from this customer's feedback.
    Local,
}

/// Everything an LF may look at when voting on a column.
#[derive(Debug, Clone, Copy)]
pub struct LfContext<'a> {
    /// The column under consideration.
    pub column: &'a Column,
    /// Normalized header of the column.
    pub header: &'a str,
    /// Detected/known types of the *other* columns in the same table.
    pub neighbor_types: &'a [TypeId],
}

/// The voting body of a labeling function.
#[derive(Debug, Clone)]
pub enum LfKind {
    /// LF1: ≥90% of numeric values inside `[min, max]`.
    ValueRange {
        /// Lower bound.
        min: f64,
        /// Upper bound.
        max: f64,
    },
    /// LF2: column mean inside `[min, max]`.
    MeanRange {
        /// Lower bound.
        min: f64,
        /// Upper bound.
        max: f64,
    },
    /// LF3: all `required` types present among neighbor columns.
    CoOccurrence {
        /// Types that must co-occur in the table.
        required: Vec<TypeId>,
    },
    /// LF4: normalized header equals this string.
    HeaderEquals(
        /// Normalized header text.
        String,
    ),
    /// ≥70% of sampled values in this (lowercased) dictionary.
    Dictionary(
        /// Allowed values, lowercased.
        HashSet<String>,
    ),
    /// ≥90% of sampled values fully match the regex.
    Pattern(
        /// Compiled regex.
        Regex,
    ),
}

/// Evidential strength of an LF.
///
/// *Strong* LFs look at the column's own content or identity (value
/// range, dictionary, shape, exact header) and are precise on their own;
/// *weak* LFs capture context (mean range, co-occurring columns) and are
/// only meaningful in combination. Weak-label mining requires at least
/// one strong vote (see [`crate::generate::MiningConfig`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LfStrength {
    /// Precise on its own.
    Strong,
    /// Contextual; combine with others.
    Weak,
}

/// A labeling function: a named weak voter for one type.
#[derive(Debug, Clone)]
pub struct LabelingFunction {
    /// Human-readable name (`"lf1:salary:range"` …).
    pub name: String,
    /// The type this LF votes for.
    pub ty: TypeId,
    /// Global or local.
    pub source: LfSource,
    /// Voting logic.
    pub kind: LfKind,
}

/// Fraction of values that must satisfy per-value predicates.
pub const VALUE_PASS: f64 = 0.9;
/// Looser threshold for dictionary membership (dictionaries are partial).
pub const DICT_PASS: f64 = 0.7;
/// Sample size for per-value checks.
pub const SAMPLE: usize = 40;

impl LabelingFunction {
    /// Evidential strength of this LF's kind.
    #[must_use]
    pub fn strength(&self) -> LfStrength {
        match self.kind {
            LfKind::ValueRange { .. }
            | LfKind::HeaderEquals(_)
            | LfKind::Dictionary(_)
            | LfKind::Pattern(_) => LfStrength::Strong,
            LfKind::MeanRange { .. } | LfKind::CoOccurrence { .. } => LfStrength::Weak,
        }
    }

    /// Vote: `Some(ty)` when the LF fires, `None` to abstain.
    #[must_use]
    pub fn vote(&self, ctx: &LfContext<'_>) -> Option<TypeId> {
        self.vote_on(ctx, &LfSample::new(ctx.column))
    }

    /// [`LabelingFunction::vote`] on a shared value sample of
    /// `ctx.column`, so every LF voting on one column renders its
    /// values once (the lookup step and weak-label mining both do).
    #[must_use]
    pub fn vote_on(&self, ctx: &LfContext<'_>, sample: &LfSample<'_>) -> Option<TypeId> {
        let fires = match &self.kind {
            LfKind::ValueRange { min, max } => {
                let nums = ctx.column.numeric_values();
                if nums.is_empty() {
                    false
                } else {
                    let hits = nums.iter().filter(|v| **v >= *min && **v <= *max).count();
                    hits as f64 / nums.len() as f64 >= VALUE_PASS
                }
            }
            LfKind::MeanRange { min, max } => {
                let nums = ctx.column.numeric_values();
                if nums.is_empty() {
                    false
                } else {
                    let m = tu_table::stats::mean(&nums);
                    m >= *min && m <= *max
                }
            }
            LfKind::CoOccurrence { required } => {
                !required.is_empty() && required.iter().all(|t| ctx.neighbor_types.contains(t))
            }
            LfKind::HeaderEquals(h) => ctx.header == h,
            LfKind::Dictionary(set) => {
                hits_reaching(sample.lowered(), |v| set.contains(v), |f| f >= DICT_PASS).is_some()
            }
            LfKind::Pattern(re) => hits_reaching(
                sample.rendered(),
                |v| re.is_full_match(v),
                |f| f >= VALUE_PASS,
            )
            .is_some(),
        };
        fires.then_some(self.ty)
    }
}

/// The [`SAMPLE`] values a column's per-value LFs vote on, rendered —
/// and lowercased, for dictionaries — at most once, on first use,
/// however many LFs vote.
#[derive(Debug)]
pub struct LfSample<'a> {
    column: &'a Column,
    rendered: OnceCell<Vec<String>>,
    lowered: OnceCell<Vec<String>>,
}

impl<'a> LfSample<'a> {
    /// The (not yet rendered) sample of `column`.
    #[must_use]
    pub fn new(column: &'a Column) -> Self {
        LfSample {
            column,
            rendered: OnceCell::new(),
            lowered: OnceCell::new(),
        }
    }

    /// `column.sample(SAMPLE)`, rendered.
    #[must_use]
    pub fn rendered(&self) -> &[String] {
        self.rendered.get_or_init(|| {
            self.column
                .sample(SAMPLE)
                .into_iter()
                .map(Value::render)
                .collect()
        })
    }

    /// [`LfSample::rendered`], lowercased.
    #[must_use]
    pub fn lowered(&self) -> &[String] {
        self.lowered
            .get_or_init(|| self.rendered().iter().map(|v| v.to_lowercase()).collect())
    }
}

/// Count the items of `sample` that satisfy `hit`, or `None` when the
/// fraction `hits / sample.len()` fails `passes` (an empty sample never
/// passes). Counting stops as soon as even every item left hitting
/// could not pass. `passes` must be a threshold test (monotone in the
/// fraction); the early stop evaluates it with the same f64 expression
/// on the best count still reachable, which the final count can only
/// match or fall below, so the answer is exactly that of counting
/// every item.
pub fn hits_reaching<T>(
    sample: &[T],
    mut hit: impl FnMut(&T) -> bool,
    passes: impl Fn(f64) -> bool,
) -> Option<usize> {
    let n = sample.len();
    if n == 0 {
        return None;
    }
    let mut hits = 0usize;
    for (i, v) in sample.iter().enumerate() {
        if !passes((hits + (n - i)) as f64 / n as f64) {
            return None;
        }
        hits += usize::from(hit(v));
    }
    passes(hits as f64 / n as f64).then_some(hits)
}

/// Build an [`LfContext`] with a normalized header.
#[must_use]
pub fn context<'a>(
    column: &'a Column,
    normalized_header: &'a str,
    neighbor_types: &'a [TypeId],
) -> LfContext<'a> {
    LfContext {
        column,
        header: normalized_header,
        neighbor_types,
    }
}

/// Normalize a raw header for LF matching.
#[must_use]
pub fn normalize(header: &str) -> String {
    normalize_header(header)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lf(ty: u16, kind: LfKind) -> LabelingFunction {
        LabelingFunction {
            name: "test".into(),
            ty: TypeId(ty),
            source: LfSource::Local,
            kind,
        }
    }

    #[test]
    fn value_range_votes() {
        let c = Column::from_raw("c", &["50000", "60000", "70000"]);
        let f = lf(
            1,
            LfKind::ValueRange {
                min: 40_000.0,
                max: 80_000.0,
            },
        );
        let ctx = context(&c, "income", &[]);
        assert_eq!(f.vote(&ctx), Some(TypeId(1)));
        let f = lf(
            1,
            LfKind::ValueRange {
                min: 0.0,
                max: 100.0,
            },
        );
        assert_eq!(f.vote(&ctx), None);
        // Text column abstains.
        let t = Column::from_raw("t", &["a", "b"]);
        let ctx = context(&t, "x", &[]);
        assert_eq!(
            lf(1, LfKind::ValueRange { min: 0.0, max: 1.0 }).vote(&ctx),
            None
        );
    }

    #[test]
    fn mean_range_votes() {
        let c = Column::from_raw("c", &["10", "20", "30"]);
        let ctx = context(&c, "x", &[]);
        assert_eq!(
            lf(
                2,
                LfKind::MeanRange {
                    min: 15.0,
                    max: 25.0
                }
            )
            .vote(&ctx),
            Some(TypeId(2))
        );
        assert_eq!(
            lf(
                2,
                LfKind::MeanRange {
                    min: 0.0,
                    max: 10.0
                }
            )
            .vote(&ctx),
            None
        );
    }

    #[test]
    fn co_occurrence_votes() {
        let c = Column::from_raw("c", &["1"]);
        let neighbors = [TypeId(5), TypeId(7)];
        let ctx = context(&c, "x", &neighbors);
        assert_eq!(
            lf(
                3,
                LfKind::CoOccurrence {
                    required: vec![TypeId(5)]
                }
            )
            .vote(&ctx),
            Some(TypeId(3))
        );
        assert_eq!(
            lf(
                3,
                LfKind::CoOccurrence {
                    required: vec![TypeId(5), TypeId(9)]
                }
            )
            .vote(&ctx),
            None
        );
        // Empty requirement never fires (would be always-true).
        assert_eq!(
            lf(3, LfKind::CoOccurrence { required: vec![] }).vote(&ctx),
            None
        );
    }

    #[test]
    fn header_equals_votes() {
        let c = Column::from_raw("c", &["1"]);
        let ctx = context(&c, "income", &[]);
        assert_eq!(
            lf(4, LfKind::HeaderEquals("income".into())).vote(&ctx),
            Some(TypeId(4))
        );
        assert_eq!(
            lf(4, LfKind::HeaderEquals("salary".into())).vote(&ctx),
            None
        );
    }

    #[test]
    fn dictionary_votes_with_tolerance() {
        let c = Column::from_raw("c", &["Paris", "Tokyo", "Paris", "Gotham"]);
        let set: HashSet<String> = ["paris", "tokyo"]
            .iter()
            .map(|s| (*s).to_string())
            .collect();
        let ctx = context(&c, "x", &[]);
        assert_eq!(
            lf(5, LfKind::Dictionary(set.clone())).vote(&ctx),
            Some(TypeId(5)),
            "3/4 = 0.75 ≥ 0.7"
        );
        let c2 = Column::from_raw("c", &["Gotham", "Metropolis", "Paris"]);
        let ctx2 = context(&c2, "x", &[]);
        assert_eq!(lf(5, LfKind::Dictionary(set)).vote(&ctx2), None);
    }

    #[test]
    fn pattern_votes() {
        let c = Column::from_raw("c", &["AB-1234", "CD-5678"]);
        let re = Regex::new("[A-Z]{2}-\\d{4}").unwrap();
        let ctx = context(&c, "x", &[]);
        assert_eq!(lf(6, LfKind::Pattern(re)).vote(&ctx), Some(TypeId(6)));
    }

    #[test]
    fn empty_column_always_abstains() {
        let c = Column::new("c", vec![]);
        let ctx = context(&c, "income", &[]);
        for kind in [
            LfKind::ValueRange { min: 0.0, max: 1.0 },
            LfKind::MeanRange { min: 0.0, max: 1.0 },
            LfKind::Dictionary(HashSet::new()),
            LfKind::Pattern(Regex::new(".*").unwrap()),
        ] {
            assert_eq!(lf(1, kind).vote(&ctx), None);
        }
        // Header LF can still fire: it does not need values.
        assert_eq!(
            lf(1, LfKind::HeaderEquals("income".into())).vote(&ctx),
            Some(TypeId(1))
        );
    }
}
