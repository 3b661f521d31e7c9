//! Property tests: similarity metrics and normalizers.

use proptest::prelude::*;
use std::collections::HashSet;
use tu_text::similarity::{edit_similarity_upper_bound, jaro, jaro_winkler_upper_bound};
use tu_text::{
    edit_similarity, fuzzy_score, fuzzy_score_reaching, jaro_winkler, levenshtein,
    normalize_header, normalize_value, stem_phrase, token_dice, PreparedText, SimilarityScratch,
};

/// The original `Vec<char>`/`HashSet` metric implementations, kept as
/// oracles: the slice kernels must reproduce them bit for bit.
mod oracle {
    use super::HashSet;

    pub fn levenshtein(a: &str, b: &str) -> usize {
        let a: Vec<char> = a.chars().collect();
        let b: Vec<char> = b.chars().collect();
        if a.is_empty() {
            return b.len();
        }
        if b.is_empty() {
            return a.len();
        }
        let mut row: Vec<usize> = (0..=b.len()).collect();
        for (i, &ca) in a.iter().enumerate() {
            let mut prev_diag = row[0];
            row[0] = i + 1;
            for (j, &cb) in b.iter().enumerate() {
                let cost = usize::from(ca != cb);
                let next = (row[j + 1] + 1).min(row[j] + 1).min(prev_diag + cost);
                prev_diag = row[j + 1];
                row[j + 1] = next;
            }
        }
        row[b.len()]
    }

    pub fn edit_similarity(a: &str, b: &str) -> f64 {
        let max_len = a.chars().count().max(b.chars().count());
        if max_len == 0 {
            return 1.0;
        }
        1.0 - levenshtein(a, b) as f64 / max_len as f64
    }

    pub fn jaro(a: &str, b: &str) -> f64 {
        let a: Vec<char> = a.chars().collect();
        let b: Vec<char> = b.chars().collect();
        if a.is_empty() && b.is_empty() {
            return 1.0;
        }
        if a.is_empty() || b.is_empty() {
            return 0.0;
        }
        let window = (a.len().max(b.len()) / 2).saturating_sub(1);
        let mut b_used = vec![false; b.len()];
        let mut matches_a: Vec<char> = Vec::new();
        for (i, &ca) in a.iter().enumerate() {
            let lo = i.saturating_sub(window);
            let hi = (i + window + 1).min(b.len());
            for j in lo..hi {
                if !b_used[j] && b[j] == ca {
                    b_used[j] = true;
                    matches_a.push(ca);
                    break;
                }
            }
        }
        let m = matches_a.len();
        if m == 0 {
            return 0.0;
        }
        let matches_b: Vec<char> = b
            .iter()
            .zip(b_used.iter())
            .filter_map(|(&c, &used)| used.then_some(c))
            .collect();
        let transpositions = matches_a
            .iter()
            .zip(matches_b.iter())
            .filter(|(x, y)| x != y)
            .count() as f64
            / 2.0;
        let m = m as f64;
        (m / a.len() as f64 + m / b.len() as f64 + (m - transpositions) / m) / 3.0
    }

    pub fn jaro_winkler(a: &str, b: &str) -> f64 {
        let j = jaro(a, b);
        let prefix = a
            .chars()
            .zip(b.chars())
            .take(4)
            .take_while(|(x, y)| x == y)
            .count() as f64;
        j + prefix * 0.1 * (1.0 - j)
    }

    pub fn token_dice(a: &str, b: &str) -> f64 {
        let ta: HashSet<String> = tu_text::word_tokens(a).into_iter().collect();
        let tb: HashSet<String> = tu_text::word_tokens(b).into_iter().collect();
        if ta.is_empty() && tb.is_empty() {
            return 1.0;
        }
        if ta.is_empty() || tb.is_empty() {
            return 0.0;
        }
        let inter = ta.intersection(&tb).count();
        2.0 * inter as f64 / (ta.len() + tb.len()) as f64
    }

    pub fn fuzzy_score(a: &str, b: &str) -> f64 {
        edit_similarity(a, b)
            .max(jaro_winkler(a, b))
            .max(token_dice(a, b))
    }
}

/// Every rewritten metric returns the oracle's exact bits on `(a, b)`.
fn assert_metrics_match_oracle(a: &str, b: &str) {
    assert_eq!(levenshtein(a, b), oracle::levenshtein(a, b));
    for (got, want, name) in [
        (edit_similarity(a, b), oracle::edit_similarity(a, b), "edit"),
        (jaro(a, b), oracle::jaro(a, b), "jaro"),
        (jaro_winkler(a, b), oracle::jaro_winkler(a, b), "jw"),
        (token_dice(a, b), oracle::token_dice(a, b), "dice"),
        (fuzzy_score(a, b), oracle::fuzzy_score(a, b), "fuzzy"),
    ] {
        assert_eq!(got.to_bits(), want.to_bits(), "{name}({a:?},{b:?})");
    }
}

/// The skip bounds never undercut the oracle, and a bounded fuzzy score
/// is exact whenever it reaches the floor and `None` only below it.
fn assert_bounds_hold(a: &str, b: &str) {
    let (pa, pb) = (PreparedText::new(a), PreparedText::new(b));
    assert!(edit_similarity_upper_bound(&pa, &pb) >= oracle::edit_similarity(a, b));
    assert!(jaro_winkler_upper_bound(&pa, &pb) + 1e-12 >= oracle::jaro_winkler(a, b));
    let exact = oracle::fuzzy_score(a, b);
    let mut scratch = SimilarityScratch::default();
    for floor in [0.5, 0.72, 0.9] {
        match fuzzy_score_reaching(&pa, &pb, 0.0, floor, &mut scratch) {
            None => assert!(
                exact < floor,
                "skipped {a:?}/{b:?} scoring {exact} at {floor}"
            ),
            Some(s) => assert_eq!(s.to_bits(), exact.to_bits(), "{a:?}/{b:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn similarities_bounded_and_symmetric(a in "\\PC{0,12}", b in "\\PC{0,12}") {
        for (f, name) in [
            (edit_similarity as fn(&str, &str) -> f64, "edit"),
            (jaro_winkler, "jw"),
            (token_dice, "dice"),
            (fuzzy_score, "fuzzy"),
        ] {
            let s = f(&a, &b);
            prop_assert!((0.0..=1.0 + 1e-9).contains(&s), "{name}({a:?},{b:?}) = {s}");
            prop_assert!((s - f(&b, &a)).abs() < 1e-9, "{name} must be symmetric");
        }
    }

    #[test]
    fn identity_scores_one(a in "\\PC{1,12}") {
        prop_assert_eq!(levenshtein(&a, &a), 0);
        prop_assert!((edit_similarity(&a, &a) - 1.0).abs() < 1e-9);
        prop_assert!((jaro_winkler(&a, &a) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn levenshtein_triangle_inequality(
        a in "[a-c]{0,6}",
        b in "[a-c]{0,6}",
        c in "[a-c]{0,6}",
    ) {
        let ab = levenshtein(&a, &b);
        let bc = levenshtein(&b, &c);
        let ac = levenshtein(&a, &c);
        prop_assert!(ac <= ab + bc, "d({a},{c})={ac} > d({a},{b})+d({b},{c})={}", ab + bc);
    }

    #[test]
    fn normalize_header_idempotent(h in "\\PC{0,20}") {
        let once = normalize_header(&h);
        prop_assert_eq!(normalize_header(&once), once.clone());
    }

    #[test]
    fn normalize_value_idempotent(v in "\\PC{0,20}") {
        let once = normalize_value(&v);
        prop_assert_eq!(normalize_value(&once), once.clone());
    }

    #[test]
    fn stemming_idempotent(p in "[a-z ]{0,20}") {
        let once = stem_phrase(&p);
        prop_assert_eq!(stem_phrase(&once), once.clone());
    }

    #[test]
    fn levenshtein_bounded_by_longer(a in "\\PC{0,10}", b in "\\PC{0,10}") {
        let d = levenshtein(&a, &b);
        let la = a.chars().count();
        let lb = b.chars().count();
        prop_assert!(d <= la.max(lb));
        prop_assert!(d >= la.abs_diff(lb));
    }

    #[test]
    fn kernels_match_the_oracle_on_unicode(a in "\\PC{0,12}", b in "\\PC{0,12}") {
        assert_metrics_match_oracle(&a, &b);
    }

    #[test]
    fn kernels_match_the_oracle_on_ascii_words(a in "[a-e _]{0,12}", b in "[a-e _]{0,12}") {
        assert_metrics_match_oracle(&a, &b);
    }

    #[test]
    fn bounds_never_skip_a_reaching_score_on_unicode(
        a in "\\PC{0,12}",
        b in "\\PC{0,12}",
    ) {
        assert_bounds_hold(&a, &b);
    }

    #[test]
    fn bounds_never_skip_a_reaching_score_on_ascii_words(
        a in "[a-f ]{1,12}",
        b in "[a-f ]{1,12}",
    ) {
        assert_bounds_hold(&a, &b);
    }

    #[test]
    fn bounds_never_skip_near_duplicates(a in "[a-z]{1,10}", tail in "[a-z]{0,2}") {
        // One string a prefix-sharing edit of the other: the regime
        // where scores sit near the floors.
        let b = format!("{}{tail}", &a[..a.len() - 1]);
        assert_bounds_hold(&a, &b);
        assert_metrics_match_oracle(&a, &b);
    }
}
