//! String similarity metrics for the syntactic header-matching step.
//!
//! All similarities are in `[0, 1]` with `1` meaning identical. The
//! pipeline's fuzzy matcher combines edit-based (Levenshtein),
//! transposition-tolerant (Jaro-Winkler), and set-based (token Dice)
//! views.
//!
//! Each metric has exactly one implementation: a kernel over `&[char]`
//! slices (or sorted, deduplicated token slices) that reuses the
//! caller's [`SimilarityScratch`] instead of allocating. The `&str`
//! functions are thin wrappers that prepare both inputs and call the
//! kernel. Callers that score one string against many — the header
//! matcher against every ontology surface — prepare each side once as
//! a [`PreparedText`] and use [`fuzzy_score_reaching`], which skips a
//! kernel whenever an exact upper bound proves it cannot matter.

use std::hash::{DefaultHasher, Hash, Hasher};

/// Levenshtein edit distance between two strings (unit costs).
#[must_use]
pub fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    levenshtein_chars(&a, &b, &mut SimilarityScratch::default())
}

/// Normalized edit similarity: `1 - dist / max_len`; `1.0` for two empties.
#[must_use]
pub fn edit_similarity(a: &str, b: &str) -> f64 {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    edit_similarity_chars(&a, &b, &mut SimilarityScratch::default())
}

/// Jaro similarity.
#[must_use]
pub fn jaro(a: &str, b: &str) -> f64 {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    jaro_chars(&a, &b, &mut SimilarityScratch::default())
}

/// Jaro-Winkler similarity with the standard 0.1 prefix scale, capped at
/// a 4-character common prefix.
#[must_use]
pub fn jaro_winkler(a: &str, b: &str) -> f64 {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    jaro_winkler_chars(&a, &b, &mut SimilarityScratch::default())
}

/// Dice coefficient over word-token sets.
#[must_use]
pub fn token_dice(a: &str, b: &str) -> f64 {
    dice_sorted(&token_set(a), &token_set(b))
}

/// Combined fuzzy score used by the header-matching step: the maximum of
/// edit similarity, Jaro-Winkler, and token Dice. Taking the max keeps the
/// matcher robust to both typos (edit/JW strong) and word reordering /
/// partial overlap (Dice strong).
#[must_use]
pub fn fuzzy_score(a: &str, b: &str) -> f64 {
    let (a, b) = (PreparedText::new(a), PreparedText::new(b));
    let mut scratch = SimilarityScratch::default();
    edit_similarity_chars(&a.chars, &b.chars, &mut scratch)
        .max(jaro_winkler_chars(&a.chars, &b.chars, &mut scratch))
        .max(dice_sorted(&a.tokens, &b.tokens))
}

/// Working memory the kernels reuse across calls: the Levenshtein DP
/// row and Jaro's `used` mask and matched characters.
#[derive(Debug, Clone, Default)]
pub struct SimilarityScratch {
    row: Vec<usize>,
    used: Vec<bool>,
    matched: Vec<char>,
}

/// Levenshtein distance over char slices (single-row DP).
fn levenshtein_chars(a: &[char], b: &[char], scratch: &mut SimilarityScratch) -> usize {
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    let row = &mut scratch.row;
    row.clear();
    row.extend(0..=b.len());
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

/// [`edit_similarity`] over char slices.
fn edit_similarity_chars(a: &[char], b: &[char], scratch: &mut SimilarityScratch) -> f64 {
    let max_len = a.len().max(b.len());
    if max_len == 0 {
        return 1.0;
    }
    1.0 - levenshtein_chars(a, b, scratch) as f64 / max_len as f64
}

/// [`jaro`] over char slices.
fn jaro_chars(a: &[char], b: &[char], scratch: &mut SimilarityScratch) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let window = (a.len().max(b.len()) / 2).saturating_sub(1);
    let SimilarityScratch { used, matched, .. } = scratch;
    used.clear();
    used.resize(b.len(), false);
    matched.clear();
    for (i, &ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(window);
        let hi = (i + window + 1).min(b.len());
        for j in lo..hi {
            if !used[j] && b[j] == ca {
                used[j] = true;
                matched.push(ca);
                break;
            }
        }
    }
    let m = matched.len();
    if m == 0 {
        return 0.0;
    }
    let matches_b = b
        .iter()
        .zip(used.iter())
        .filter_map(|(&c, &u)| u.then_some(c));
    let transpositions = matched
        .iter()
        .zip(matches_b)
        .filter(|(x, y)| **x != *y)
        .count() as f64
        / 2.0;
    let m = m as f64;
    (m / a.len() as f64 + m / b.len() as f64 + (m - transpositions) / m) / 3.0
}

/// [`jaro_winkler`] over char slices.
fn jaro_winkler_chars(a: &[char], b: &[char], scratch: &mut SimilarityScratch) -> f64 {
    winkler(jaro_chars(a, b, scratch), a, b)
}

/// The Winkler boost of a Jaro score `j` by the common prefix of `a`
/// and `b` (at most 4 characters, 0.1 per character).
fn winkler(j: f64, a: &[char], b: &[char]) -> f64 {
    let prefix = a.iter().zip(b).take(4).take_while(|(x, y)| x == y).count() as f64;
    j + prefix * 0.1 * (1.0 - j)
}

/// Dice coefficient over two sorted, deduplicated token slices.
fn dice_sorted<T: Ord>(a: &[T], b: &[T]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let (mut i, mut j, mut inter) = (0, 0, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    2.0 * inter as f64 / (a.len() + b.len()) as f64
}

/// The sorted, deduplicated word-token set of `s`.
fn token_set(s: &str) -> Vec<String> {
    let mut tokens = crate::tokenize::word_tokens(s);
    tokens.sort_unstable();
    tokens.dedup();
    tokens
}

/// A string prepared once for repeated fuzzy scoring: its chars, its
/// word-token set, and a character histogram (128 ASCII counts plus
/// one count for every non-ASCII char) for the skip bounds.
#[derive(Debug, Clone)]
pub struct PreparedText {
    chars: Vec<char>,
    tokens: Vec<String>,
    /// One bit per token (by hash): disjoint signatures prove the two
    /// token sets share nothing, so Dice is 0 without a merge.
    token_sig: u64,
    ascii: [u32; 128],
    non_ascii: u32,
    /// The distinct ASCII chars with their counts, so [`Self::common`]
    /// walks a handful of entries rather than all 128 slots.
    distinct: Vec<(u8, u32)>,
}

impl PreparedText {
    /// Prepare `s`.
    #[must_use]
    pub fn new(s: &str) -> Self {
        let chars: Vec<char> = s.chars().collect();
        let mut ascii = [0u32; 128];
        let mut non_ascii = 0u32;
        for &c in &chars {
            match u8::try_from(c) {
                Ok(byte) if byte.is_ascii() => ascii[usize::from(byte)] += 1,
                _ => non_ascii += 1,
            }
        }
        let distinct = (0u8..128).zip(ascii).filter(|&(_, n)| n > 0).collect();
        let tokens = token_set(s);
        let token_sig = tokens.iter().fold(0u64, |sig, t| {
            let mut h = DefaultHasher::new();
            t.hash(&mut h);
            sig | 1 << (h.finish() % 64)
        });
        PreparedText {
            chars,
            tokens,
            token_sig,
            ascii,
            non_ascii,
            distinct,
        }
    }

    /// An upper bound on how many chars of `self` and `other` can be
    /// paired as equal: the multiset intersection of their histograms,
    /// where a non-ASCII char may pair with any non-ASCII char. Never
    /// more than the shorter length.
    fn common(&self, other: &PreparedText) -> usize {
        let ascii: u32 = other
            .distinct
            .iter()
            .map(|&(c, n)| n.min(self.ascii[usize::from(c)]))
            .sum();
        (ascii + self.non_ascii.min(other.non_ascii)) as usize
    }

    /// [`token_dice`] of the two prepared strings.
    fn dice(&self, other: &PreparedText) -> f64 {
        let disjoint = self.token_sig & other.token_sig == 0;
        if disjoint && !self.tokens.is_empty() && !other.tokens.is_empty() {
            return 0.0;
        }
        dice_sorted(&self.tokens, &other.tokens)
    }
}

/// Upper bound on [`edit_similarity`] from the histogram overlap.
///
/// An alignment with `k` equal pairs costs at least `max_len - k`
/// edits, and `k ≤ common`. The bound is evaluated with the metric's
/// own expression, and correctly rounded division and subtraction are
/// monotone, so it bounds the computed f64 too, not only the real value.
#[must_use]
pub fn edit_similarity_upper_bound(a: &PreparedText, b: &PreparedText) -> f64 {
    edit_bound(a, b, a.common(b))
}

fn edit_bound(a: &PreparedText, b: &PreparedText, common: usize) -> f64 {
    let max_len = a.chars.len().max(b.chars.len());
    if max_len == 0 {
        return 1.0;
    }
    1.0 - (max_len - common) as f64 / max_len as f64
}

/// Upper bound on [`jaro_winkler`] from the histogram overlap.
///
/// Jaro matches pair equal chars, so `m ≤ common`, and `(m - t) / m ≤ 1`;
/// the exact Winkler prefix bonus is applied on top.
#[must_use]
pub fn jaro_winkler_upper_bound(a: &PreparedText, b: &PreparedText) -> f64 {
    jaro_winkler_bound(a, b, a.common(b))
}

fn jaro_winkler_bound(a: &PreparedText, b: &PreparedText, common: usize) -> f64 {
    let (la, lb) = (a.chars.len(), b.chars.len());
    let j = if la == 0 && lb == 0 {
        1.0
    } else if la == 0 || lb == 0 {
        0.0
    } else {
        let c = common as f64;
        (c / la as f64 + c / lb as f64 + 1.0) / 3.0
    };
    winkler(j, &a.chars, &b.chars)
}

/// Slack applied to every skip decision: a kernel is skipped only when
/// its bound falls short by more than this, so float rounding in a
/// bound can never skip a score that matters.
const BOUND_SLACK: f64 = 1e-9;

/// `max(known, fuzzy_score(a, b))`, bit for bit, when that reaches
/// `floor`; `None` when it provably stays below `floor`.
///
/// Token Dice is computed exactly (cheap on prepared token sets). The
/// Levenshtein and Jaro kernels run only when their upper bound can
/// reach both `floor` and the best score found so far: a skipped
/// component is either below the floor or cannot change the max.
#[must_use]
pub fn fuzzy_score_reaching(
    a: &PreparedText,
    b: &PreparedText,
    known: f64,
    floor: f64,
    scratch: &mut SimilarityScratch,
) -> Option<f64> {
    let mut best = known.max(a.dice(b));
    let common = a.common(b);
    if jaro_winkler_bound(a, b, common) + BOUND_SLACK >= floor.max(best) {
        best = best.max(jaro_winkler_chars(&a.chars, &b.chars, scratch));
    }
    if edit_bound(a, b, common) + BOUND_SLACK >= floor.max(best) {
        best = best.max(edit_similarity_chars(&a.chars, &b.chars, scratch));
    }
    (best >= floor).then_some(best)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levenshtein_known_values() {
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("same", "same"), 0);
        assert_eq!(levenshtein("flaw", "lawn"), 2);
    }

    #[test]
    fn edit_similarity_bounds() {
        assert_eq!(edit_similarity("", ""), 1.0);
        assert_eq!(edit_similarity("abc", "abc"), 1.0);
        assert_eq!(edit_similarity("abc", "xyz"), 0.0);
        let s = edit_similarity("salary", "salaries");
        assert!(s > 0.5 && s < 1.0);
    }

    #[test]
    fn jaro_known_values() {
        // Classic textbook pairs.
        assert!((jaro("MARTHA", "MARHTA") - 0.944_444).abs() < 1e-5);
        assert!((jaro("DIXON", "DICKSONX") - 0.766_667).abs() < 1e-5);
        assert_eq!(jaro("", ""), 1.0);
        assert_eq!(jaro("a", ""), 0.0);
        assert_eq!(jaro("abc", "abc"), 1.0);
        assert_eq!(jaro("abc", "xyz"), 0.0);
    }

    #[test]
    fn jaro_winkler_prefix_boost() {
        let j = jaro("prefixed", "prefixes");
        let jw = jaro_winkler("prefixed", "prefixes");
        assert!(jw > j);
        assert!(jw <= 1.0);
        // No common prefix → no boost.
        assert_eq!(jaro_winkler("abc", "xbc"), jaro("abc", "xbc"));
    }

    #[test]
    fn token_dice_cases() {
        assert_eq!(token_dice("first name", "name first"), 1.0);
        assert_eq!(token_dice("", ""), 1.0);
        assert_eq!(token_dice("a", ""), 0.0);
        assert!((token_dice("order id", "order date") - 0.5).abs() < 1e-12);
    }

    #[test]
    fn fuzzy_score_takes_best_view() {
        // Token reorder: Dice saves the day.
        assert_eq!(fuzzy_score("last name", "name last"), 1.0);
        // Typo: edit/JW save the day.
        assert!(fuzzy_score("countri", "country") > 0.8);
        // Unrelated stays low.
        assert!(fuzzy_score("salary", "latitude") < 0.6);
    }

    #[test]
    fn symmetry() {
        for (a, b) in [("salary", "income"), ("abc", ""), ("x", "y")] {
            assert_eq!(levenshtein(a, b), levenshtein(b, a));
            assert!((jaro(a, b) - jaro(b, a)).abs() < 1e-12);
            assert!((token_dice(a, b) - token_dice(b, a)).abs() < 1e-12);
        }
    }

    #[test]
    fn histogram_overlap_pairs_non_ascii_with_non_ascii() {
        let a = PreparedText::new("été");
        let b = PreparedText::new("ÅtÖ");
        // 't' pairs with 't'; 'é','é' pair with 'Å','Ö'.
        assert_eq!(a.common(&b), 3);
        assert_eq!(
            PreparedText::new("abc").common(&PreparedText::new("xbz")),
            1
        );
    }

    #[test]
    fn reaching_is_exact_above_the_floor_and_none_below() {
        let mut scratch = SimilarityScratch::default();
        let (a, b) = (PreparedText::new("salry"), PreparedText::new("salary"));
        let exact = fuzzy_score("salry", "salary");
        assert_eq!(
            fuzzy_score_reaching(&a, &b, 0.0, 0.72, &mut scratch).map(f64::to_bits),
            Some(exact.to_bits())
        );
        let (a, b) = (PreparedText::new("xq7 zz"), PreparedText::new("salary"));
        assert_eq!(fuzzy_score_reaching(&a, &b, 0.0, 0.72, &mut scratch), None);
        // A known score above every component is returned as is.
        assert_eq!(
            fuzzy_score_reaching(&a, &b, 0.9, 0.72, &mut scratch),
            Some(0.9)
        );
    }
}
