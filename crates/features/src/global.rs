//! Global column statistics (Sherlock's "global statistics" group).

use std::collections::HashMap;
use tu_table::{Column, DataType, Value};

/// Number of features produced by [`global_features`].
pub const GLOBAL_FEATURE_DIM: usize = 18;

/// Column-level statistical features: type fractions, nullness,
/// distinctness, entropy, length stats, numeric summary.
#[must_use]
pub fn global_features(column: &Column) -> Vec<f32> {
    let n = column.len().max(1) as f64;
    let mut type_counts = [0usize; 6];
    for v in &column.values {
        let idx = match v.data_type() {
            DataType::Null => 0,
            DataType::Int => 1,
            DataType::Float => 2,
            DataType::Bool => 3,
            DataType::Date => 4,
            DataType::Text => 5,
        };
        type_counts[idx] += 1;
    }
    // Render the non-null values once; one count map gives both the
    // distinct fraction and the entropy.
    let rendered = column.rendered_values();
    let lens: Vec<f64> = rendered.iter().map(|s| s.chars().count() as f64).collect();
    let len_mean = tu_table::stats::mean(&lens);
    let len_std = tu_table::stats::std_dev(&lens);
    let mut counts: HashMap<&str, usize> = HashMap::with_capacity(rendered.len());
    for v in &rendered {
        *counts.entry(v).or_insert(0) += 1;
    }
    let distinct_fraction = if rendered.is_empty() {
        0.0
    } else {
        counts.len() as f64 / rendered.len() as f64
    };
    let entropy = tu_table::stats::entropy_of_unordered(counts.into_values());
    let nums = column.numeric_values();
    let (num_mean, num_std, num_min, num_max) = if nums.is_empty() {
        (0.0, 0.0, 0.0, 0.0)
    } else {
        tu_table::stats::NumericSummary::of(&nums)
            .map(|s| (s.mean, s.std, s.min, s.max))
            .unwrap_or((0.0, 0.0, 0.0, 0.0))
    };
    // Compress magnitudes: signed log1p keeps scale info bounded.
    let slog = |v: f64| (v.signum() * (v.abs() + 1.0).ln()) as f32;
    let mut out = Vec::with_capacity(GLOBAL_FEATURE_DIM);
    for c in type_counts {
        out.push((c as f64 / n) as f32);
    }
    out.push(distinct_fraction as f32);
    out.push((column.len() as f64).ln_1p() as f32);
    out.push(len_mean as f32 / 50.0);
    out.push(len_std as f32 / 50.0);
    out.push(entropy as f32 / 10.0);
    out.push(slog(num_mean));
    out.push(slog(num_std));
    out.push(slog(num_min));
    out.push(slog(num_max));
    // Token stats over text values.
    let texts = column.text_values();
    let token_counts: Vec<f64> = texts
        .iter()
        .map(|t| tu_text::word_token_count(t) as f64)
        .collect();
    out.push(tu_table::stats::mean(&token_counts) as f32 / 5.0);
    out.push(tu_table::stats::std_dev(&token_counts) as f32 / 5.0);
    // Leading-zero fraction: identifiers and zip codes keep them.
    let leading_zero = rendered
        .iter()
        .filter(|s| s.len() > 1 && s.starts_with('0'))
        .count() as f64
        / rendered.len().max(1) as f64;
    out.push(leading_zero as f32);
    debug_assert_eq!(out.len(), GLOBAL_FEATURE_DIM);
    out
}

/// Convenience: does the column parse mostly as `Value::Date`?
#[must_use]
pub fn date_fraction(column: &Column) -> f64 {
    if column.is_empty() {
        return 0.0;
    }
    let dates = column
        .values
        .iter()
        .filter(|v| matches!(v, Value::Date(_)))
        .count();
    dates as f64 / column.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dimension_fixed_and_finite() {
        for vals in [vec!["1", "2"], vec![], vec!["", ""], vec!["a b c", "d"]] {
            let c = Column::from_raw("c", &vals);
            let f = global_features(&c);
            assert_eq!(f.len(), GLOBAL_FEATURE_DIM);
            assert!(f.iter().all(|v| v.is_finite()), "{vals:?} → {f:?}");
        }
    }

    #[test]
    fn type_fractions_lead() {
        let c = Column::from_raw("c", &["1", "2", "x", ""]);
        let f = global_features(&c);
        assert!((f[0] - 0.25).abs() < 1e-6); // null fraction
        assert!((f[1] - 0.5).abs() < 1e-6); // int fraction
        assert!((f[5] - 0.25).abs() < 1e-6); // text fraction
    }

    #[test]
    fn numeric_summary_encoded() {
        let a = global_features(&Column::from_raw("a", &["10", "20"]));
        let b = global_features(&Column::from_raw("b", &["100000", "200000"]));
        // Larger magnitudes must be visible in the slog features.
        assert!(b[11] > a[11]);
    }

    #[test]
    fn leading_zeros_detected() {
        // Explicit Text values: `from_raw` would parse "01234" to Int 1234.
        let zip = global_features(&Column::new(
            "z",
            vec![Value::Text("01234".into()), Value::Text("00456".into())],
        ));
        let num = global_features(&Column::from_raw("n", &["1234", "456"]));
        assert!(zip[GLOBAL_FEATURE_DIM - 1] > 0.9);
        assert_eq!(num[GLOBAL_FEATURE_DIM - 1], 0.0);
    }

    #[test]
    fn date_fraction_works() {
        let c = Column::from_raw("d", &["2020-01-01", "2020-02-02", "x"]);
        assert!((date_fraction(&c) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(date_fraction(&Column::new("e", vec![])), 0.0);
    }
}
