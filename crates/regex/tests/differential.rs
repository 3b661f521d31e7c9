//! Differential testing: the Pike-VM engine, length bounds included,
//! must agree with the naive backtracking oracle on randomly generated
//! ASTs and ASCII and non-ASCII inputs.

use proptest::prelude::*;
use tu_regex::ast::{Ast, CharMatcher, ClassItem};
use tu_regex::nfa::Regex;
use tu_regex::oracle::backtrack_full_match;

/// Strategy for a random AST over the alphabet {a, b, c, é}, plus
/// `.`, classes, shorthand classes and their negations, and anchors.
fn ast_strategy() -> impl Strategy<Value = Ast> {
    let leaf = prop_oneof![
        Just(Ast::Empty),
        prop_oneof![Just('a'), Just('b'), Just('c'), Just('é')]
            .prop_map(|c| Ast::Char(CharMatcher::Literal(c))),
        prop_oneof![
            Just(CharMatcher::digit()),
            Just(CharMatcher::digit().negate()),
            Just(CharMatcher::word()),
            Just(CharMatcher::space().negate()),
        ]
        .prop_map(Ast::Char),
        Just(Ast::Char(CharMatcher::Any)),
        Just(Ast::Char(CharMatcher::Class {
            negated: false,
            items: vec![ClassItem::Range('a', 'b')],
        })),
        Just(Ast::Char(CharMatcher::Class {
            negated: true,
            items: vec![ClassItem::Char('a')],
        })),
        Just(Ast::StartAnchor),
        Just(Ast::EndAnchor),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 1..4).prop_map(Ast::Concat),
            prop::collection::vec(inner.clone(), 1..4).prop_map(Ast::Alt),
            (inner, 0u32..3, 0u32..3).prop_map(|(node, min, extra)| Ast::Repeat {
                node: Box::new(node),
                min,
                max: if extra == 0 { None } else { Some(min + extra) },
            }),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn nfa_agrees_with_oracle(ast in ast_strategy(), input in "[abcd1 é漢]{0,8}") {
        let regex = Regex::from_ast(&ast, "<generated>");
        let nfa = regex.is_full_match(&input);
        let oracle = backtrack_full_match(&ast, &input);
        prop_assert_eq!(nfa, oracle, "ast={:?} input={:?}", ast, input);
        // The length bounds never reject an input the oracle accepts.
        let (min, max) = regex.match_len_bounds();
        let n = input.chars().count();
        prop_assert!(
            !oracle || (min <= n && max.is_none_or(|max| n <= max)),
            "bounds {:?} reject accepted input={:?} for ast={:?}", (min, max), input, ast
        );
    }

    #[test]
    fn parse_then_match_agrees_with_oracle(
        pattern in r"[abc\.\*\+\?\|\(\)]{0,10}",
        input in "[abc]{0,6}",
    ) {
        // Only well-formed patterns are exercised; parse errors are fine.
        if let Ok(ast) = tu_regex::parse(&pattern) {
            let regex = Regex::from_ast(&ast, &pattern);
            prop_assert_eq!(
                regex.is_full_match(&input),
                backtrack_full_match(&ast, &input),
                "pattern={:?} input={:?}", pattern, input
            );
        }
    }

    #[test]
    fn full_match_implies_search_match(ast in ast_strategy(), input in "[abcd1 é漢]{0,8}") {
        let regex = Regex::from_ast(&ast, "<generated>");
        if regex.is_full_match(&input) {
            prop_assert!(regex.is_match(&input));
        }
    }

    #[test]
    fn synthesized_regex_matches_all_examples(
        examples in prop::collection::vec("[a-z]{1,4}-?[0-9]{1,5}", 1..6)
    ) {
        let refs: Vec<&str> = examples.iter().map(String::as_str).collect();
        if let Some(s) = tu_regex::synthesize(&refs, &tu_regex::SynthesisConfig::default()) {
            for e in &refs {
                prop_assert!(s.regex.is_full_match(e), "pattern={} example={}", s.pattern, e);
            }
            // The rendered pattern must be re-parseable and equivalent on the examples.
            let reparsed = Regex::new(&s.pattern).unwrap();
            for e in &refs {
                prop_assert!(reparsed.is_full_match(e));
            }
        }
    }
}
