//! Thompson NFA construction and a Pike-style VM simulation.
//!
//! Linear-time matching in the input size: no backtracking, so the engine
//! is safe to run over untrusted cell values (a requirement for a lookup
//! step executed on every column of every customer table).

use crate::ast::{Ast, CharMatcher};

/// One NFA state.
#[derive(Debug, Clone)]
enum State {
    /// Consume a character matching the matcher, then go to `next`.
    Char(CharMatcher, usize),
    /// Epsilon-split to both targets.
    Split(usize, usize),
    /// Epsilon move valid only at input start.
    AssertStart(usize),
    /// Epsilon move valid only at input end.
    AssertEnd(usize),
    /// Accepting state.
    Match,
}

/// A compiled regular expression.
#[derive(Debug, Clone)]
pub struct Regex {
    states: Vec<State>,
    start: usize,
    pattern: String,
    /// Fewest chars any accepting path consumes.
    min_len: usize,
    /// Most chars any accepting path consumes; `None` when unbounded.
    max_len: Option<usize>,
}

/// The fewest and most chars a match of `ast` can consume (`None`: no
/// upper bound), mirroring how [`Compiler`] expands each node. Anchors
/// and the empty pattern consume nothing; an alternation takes the
/// extremes over its branches. Saturating arithmetic keeps both bounds
/// sound for absurd counted repeats.
fn length_bounds(ast: &Ast) -> (usize, Option<usize>) {
    match ast {
        Ast::Empty | Ast::StartAnchor | Ast::EndAnchor => (0, Some(0)),
        Ast::Char(_) => (1, Some(1)),
        Ast::Concat(items) => {
            items
                .iter()
                .map(length_bounds)
                .fold((0, Some(0)), |(lo, hi), (l, h)| {
                    (
                        lo.saturating_add(l),
                        hi.zip(h).map(|(a, b)| a.saturating_add(b)),
                    )
                })
        }
        Ast::Alt(branches) => branches
            .iter()
            .map(length_bounds)
            .reduce(|(lo, hi), (l, h)| (lo.min(l), hi.zip(h).map(|(a, b)| a.max(b))))
            .unwrap_or((0, Some(0))),
        Ast::Repeat { node, min, max } => {
            let (lo, hi) = length_bounds(node);
            // The compiler emits `min` copies even when `max < min`.
            let max = max.map(|m| m.max(*min) as usize);
            (
                lo.saturating_mul(*min as usize),
                max.zip(hi).map(|(m, h)| h.saturating_mul(m)),
            )
        }
    }
}

/// Sentinel for "not yet patched" transition targets.
const HOLE: usize = usize::MAX;

struct Compiler {
    states: Vec<State>,
}

/// A compiled fragment: entry state + list of dangling exits to patch.
struct Frag {
    start: usize,
    /// (state index, which branch: 0 = first/only, 1 = second of a split)
    outs: Vec<(usize, u8)>,
}

impl Compiler {
    fn push(&mut self, s: State) -> usize {
        self.states.push(s);
        self.states.len() - 1
    }

    fn patch(&mut self, outs: &[(usize, u8)], target: usize) {
        for &(idx, branch) in outs {
            match &mut self.states[idx] {
                State::Char(_, next) | State::AssertStart(next) | State::AssertEnd(next) => {
                    *next = target;
                }
                State::Split(a, b) => {
                    if branch == 0 {
                        *a = target;
                    } else {
                        *b = target;
                    }
                }
                State::Match => unreachable!("match state has no out"),
            }
        }
    }

    fn compile(&mut self, ast: &Ast) -> Frag {
        match ast {
            Ast::Empty => {
                // A split with both branches dangling to the same place acts
                // as a no-op epsilon node.
                let s = self.push(State::Split(HOLE, HOLE));
                Frag {
                    start: s,
                    outs: vec![(s, 0), (s, 1)],
                }
            }
            Ast::Char(m) => {
                let s = self.push(State::Char(m.clone(), HOLE));
                Frag {
                    start: s,
                    outs: vec![(s, 0)],
                }
            }
            Ast::StartAnchor => {
                let s = self.push(State::AssertStart(HOLE));
                Frag {
                    start: s,
                    outs: vec![(s, 0)],
                }
            }
            Ast::EndAnchor => {
                let s = self.push(State::AssertEnd(HOLE));
                Frag {
                    start: s,
                    outs: vec![(s, 0)],
                }
            }
            Ast::Concat(items) => {
                let mut iter = items.iter();
                let first = match iter.next() {
                    Some(f) => self.compile(f),
                    None => return self.compile(&Ast::Empty),
                };
                let mut outs = first.outs;
                for item in iter {
                    let next = self.compile(item);
                    self.patch(&outs, next.start);
                    outs = next.outs;
                }
                Frag {
                    start: first.start,
                    outs,
                }
            }
            Ast::Alt(branches) => {
                assert!(!branches.is_empty(), "empty alternation");
                let mut starts = Vec::with_capacity(branches.len());
                let mut outs = Vec::new();
                for b in branches {
                    let f = self.compile(b);
                    starts.push(f.start);
                    outs.extend(f.outs);
                }
                // Chain splits: s1 = Split(b0, s2), s2 = Split(b1, b2)...
                let mut entry = *starts.last().expect("nonempty");
                for &s in starts.iter().rev().skip(1) {
                    entry = self.push(State::Split(s, entry));
                }
                Frag { start: entry, outs }
            }
            Ast::Repeat { node, min, max } => self.compile_repeat(node, *min, *max),
        }
    }

    fn compile_repeat(&mut self, node: &Ast, min: u32, max: Option<u32>) -> Frag {
        match max {
            None => {
                if min == 0 {
                    // node* : split(enter, exit); loop back.
                    let split = self.push(State::Split(HOLE, HOLE));
                    let body = self.compile(node);
                    match &mut self.states[split] {
                        State::Split(a, _) => *a = body.start,
                        _ => unreachable!(),
                    }
                    self.patch(&body.outs, split);
                    Frag {
                        start: split,
                        outs: vec![(split, 1)],
                    }
                } else {
                    // node{min,} = node{min-1 copies} node+
                    let mut prefix_outs: Vec<(usize, u8)> = Vec::new();
                    let mut start = None;
                    for _ in 0..min - 1 {
                        let f = self.compile(node);
                        if start.is_some() {
                            self.patch(&prefix_outs, f.start);
                        } else {
                            start = Some(f.start);
                        }
                        prefix_outs = f.outs;
                    }
                    // node+ : body; split(back to body, exit)
                    let body = self.compile(node);
                    let split = self.push(State::Split(body.start, HOLE));
                    self.patch(&body.outs, split);
                    if let Some(s) = start {
                        self.patch(&prefix_outs, body.start);
                        Frag {
                            start: s,
                            outs: vec![(split, 1)],
                        }
                    } else {
                        Frag {
                            start: body.start,
                            outs: vec![(split, 1)],
                        }
                    }
                }
            }
            Some(max) => {
                // Expand to min mandatory copies + (max-min) optional copies.
                let mut outs: Vec<(usize, u8)> = Vec::new();
                let mut start: Option<usize> = None;
                for _ in 0..min {
                    let f = self.compile(node);
                    if start.is_some() {
                        self.patch(&outs, f.start);
                    } else {
                        start = Some(f.start);
                    }
                    outs = f.outs;
                }
                let mut skip_outs: Vec<(usize, u8)> = Vec::new();
                for _ in min..max {
                    let split = self.push(State::Split(HOLE, HOLE));
                    if start.is_some() {
                        self.patch(&outs, split);
                    } else {
                        start = Some(split);
                    }
                    let f = self.compile(node);
                    match &mut self.states[split] {
                        State::Split(a, _) => *a = f.start,
                        _ => unreachable!(),
                    }
                    skip_outs.push((split, 1));
                    outs = f.outs;
                }
                outs.extend(skip_outs);
                match start {
                    Some(s) => Frag { start: s, outs },
                    None => self.compile(&Ast::Empty), // {0,0}
                }
            }
        }
    }
}

impl Regex {
    /// Compile a pattern string.
    pub fn new(pattern: &str) -> Result<Self, crate::parser::ParseError> {
        let ast = crate::parser::parse(pattern)?;
        Ok(Self::from_ast(&ast, pattern))
    }

    /// Compile an already-parsed AST (used by the synthesizer).
    #[must_use]
    pub fn from_ast(ast: &Ast, pattern: &str) -> Self {
        let mut c = Compiler { states: Vec::new() };
        let frag = c.compile(ast);
        let m = c.push(State::Match);
        c.patch(&frag.outs, m);
        let (min_len, max_len) = length_bounds(ast);
        Regex {
            states: c.states,
            start: frag.start,
            pattern: pattern.to_owned(),
            min_len,
            max_len,
        }
    }

    /// The original pattern string.
    #[must_use]
    pub fn pattern(&self) -> &str {
        &self.pattern
    }

    /// Number of compiled states (used for testing/budgeting).
    #[must_use]
    pub fn n_states(&self) -> usize {
        self.states.len()
    }

    /// Fewest and most chars a full match consumes (`None`: no upper
    /// bound). [`is_full_match`](Regex::is_full_match) rejects inputs
    /// outside them without simulating.
    #[must_use]
    pub fn match_len_bounds(&self) -> (usize, Option<usize>) {
        (self.min_len, self.max_len)
    }

    /// Add `state` plus its epsilon closure to `set`. `mark[s] == step`
    /// records that `s` is already in the list built for `step`, so the
    /// marks never need clearing between steps.
    fn add_state(
        &self,
        set: &mut Vec<usize>,
        mark: &mut [usize],
        step: usize,
        state: usize,
        at_start: bool,
        at_end: bool,
    ) {
        if mark[state] == step {
            return;
        }
        mark[state] = step;
        match &self.states[state] {
            State::Split(a, b) => {
                let (a, b) = (*a, *b);
                self.add_state(set, mark, step, a, at_start, at_end);
                self.add_state(set, mark, step, b, at_start, at_end);
            }
            State::AssertStart(next) => {
                if at_start {
                    self.add_state(set, mark, step, *next, at_start, at_end);
                }
            }
            State::AssertEnd(next) => {
                if at_end {
                    self.add_state(set, mark, step, *next, at_start, at_end);
                }
            }
            State::Char(..) | State::Match => set.push(state),
        }
    }

    fn has_match(&self, set: &[usize]) -> bool {
        set.iter().any(|&s| matches!(self.states[s], State::Match))
    }

    /// Pike-VM simulation over the `n` chars of `input`. A full match
    /// (`search == false`) accepts only in the final state list; a
    /// search restarts the pattern at every position and accepts as
    /// soon as any list holds `Match`. The two state lists and the marks
    /// are allocated once per call, not per char.
    fn simulate(&self, input: &str, n: usize, search: bool) -> bool {
        let mut current: Vec<usize> = Vec::with_capacity(self.states.len());
        let mut next: Vec<usize> = Vec::with_capacity(self.states.len());
        let mut mark = vec![0usize; self.states.len()];
        self.add_state(&mut current, &mut mark, 1, self.start, true, n == 0);
        if search && self.has_match(&current) {
            return true;
        }
        for (i, c) in input.chars().enumerate() {
            let (step, at_end) = (i + 2, i + 1 == n);
            next.clear();
            for &s in &current {
                if let State::Char(m, to) = &self.states[s] {
                    if m.matches(c) {
                        self.add_state(&mut next, &mut mark, step, *to, false, at_end);
                    }
                }
            }
            if search {
                // Unanchored: also restart the pattern at position i+1.
                self.add_state(&mut next, &mut mark, step, self.start, false, at_end);
            }
            std::mem::swap(&mut current, &mut next);
            if search {
                if self.has_match(&current) {
                    return true;
                }
            } else if current.is_empty() {
                return false;
            }
        }
        !search && self.has_match(&current)
    }

    /// Does the pattern match the **entire** input string?
    ///
    /// This is the semantics used by the value-lookup step: a cell either
    /// *is* a phone number or it is not; substring hits would inflate
    /// confidence. An input whose char count lies outside the pattern's
    /// match-length bounds is rejected without simulating: every
    /// accepting path consumes a length within them.
    #[must_use]
    pub fn is_full_match(&self, input: &str) -> bool {
        let n = input.chars().count();
        if n < self.min_len || self.max_len.is_some_and(|max| n > max) {
            return false;
        }
        self.simulate(input, n, false)
    }

    /// Does the pattern match anywhere in the input (unanchored search)?
    #[must_use]
    pub fn is_match(&self, input: &str) -> bool {
        self.simulate(input, input.chars().count(), true)
    }

    /// Fraction of `values` that fully match; `0.0` for an empty slice.
    #[must_use]
    pub fn match_fraction<S: AsRef<str>>(&self, values: &[S]) -> f64 {
        if values.is_empty() {
            return 0.0;
        }
        let hits = values
            .iter()
            .filter(|v| self.is_full_match(v.as_ref()))
            .count();
        hits as f64 / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn re(p: &str) -> Regex {
        Regex::new(p).unwrap()
    }

    #[test]
    fn literal_full_match() {
        let r = re("abc");
        assert!(r.is_full_match("abc"));
        assert!(!r.is_full_match("ab"));
        assert!(!r.is_full_match("abcd"));
        assert!(!r.is_full_match(""));
    }

    #[test]
    fn empty_pattern() {
        let r = re("");
        assert!(r.is_full_match(""));
        assert!(!r.is_full_match("a"));
        assert!(r.is_match("anything"));
    }

    #[test]
    fn star_plus_opt() {
        let r = re("ab*c");
        assert!(r.is_full_match("ac"));
        assert!(r.is_full_match("abbbc"));
        assert!(!r.is_full_match("abb"));
        let r = re("ab+c");
        assert!(!r.is_full_match("ac"));
        assert!(r.is_full_match("abc"));
        let r = re("ab?c");
        assert!(r.is_full_match("ac"));
        assert!(r.is_full_match("abc"));
        assert!(!r.is_full_match("abbc"));
    }

    #[test]
    fn counted_repeats() {
        let r = re(r"\d{3}-\d{4}");
        assert!(r.is_full_match("555-0199"));
        assert!(!r.is_full_match("55-0199"));
        let r = re("a{2,4}");
        assert!(!r.is_full_match("a"));
        assert!(r.is_full_match("aa"));
        assert!(r.is_full_match("aaaa"));
        assert!(!r.is_full_match("aaaaa"));
        let r = re("a{2,}");
        assert!(r.is_full_match("aaaaaa"));
        assert!(!r.is_full_match("a"));
        let r = re("a{0,2}");
        assert!(r.is_full_match(""));
        assert!(r.is_full_match("aa"));
        assert!(!r.is_full_match("aaa"));
    }

    #[test]
    fn alternation() {
        let r = re("cat|dog|bird");
        assert!(r.is_full_match("cat"));
        assert!(r.is_full_match("bird"));
        assert!(!r.is_full_match("catdog"));
        let r = re("(ab|cd)+");
        assert!(r.is_full_match("abcdab"));
        assert!(!r.is_full_match("abc"));
    }

    #[test]
    fn classes_and_shorthands() {
        let r = re("[a-f0-9]+");
        assert!(r.is_full_match("deadbeef42"));
        assert!(!r.is_full_match("xyz"));
        let r = re("[^0-9]+");
        assert!(r.is_full_match("abc"));
        assert!(!r.is_full_match("ab1"));
        let r = re(r"\w+@\w+\.\w{2,3}");
        assert!(r.is_full_match("ada@sigma.com"));
        assert!(!r.is_full_match("ada@sigma"));
    }

    #[test]
    fn anchors_in_search() {
        let r = re("^abc");
        assert!(r.is_match("abcdef"));
        assert!(!r.is_match("xabc"));
        let r = re("xyz$");
        assert!(r.is_match("wxyz"));
        assert!(!r.is_match("xyzw"));
        let r = re("^only$");
        assert!(r.is_match("only"));
        assert!(!r.is_match("only "));
    }

    #[test]
    fn search_vs_full() {
        let r = re("bc");
        assert!(r.is_match("abcd"));
        assert!(!r.is_full_match("abcd"));
        assert!(r.is_match("bc"));
    }

    #[test]
    fn unicode_input() {
        let r = re("é+");
        assert!(r.is_full_match("ééé"));
        let r = re(".");
        assert!(r.is_full_match("漢"));
    }

    #[test]
    fn pathological_no_blowup() {
        // (a*)* style patterns are linear here, not exponential.
        let r = re("(a*)*b");
        let input = "a".repeat(200);
        assert!(!r.is_full_match(&input));
        let ok = format!("{input}b");
        assert!(r.is_full_match(&ok));
        // a?^n a^n — the classic backtracking killer.
        let n = 20;
        let patt = format!("{}{}", "a?".repeat(n), "a".repeat(n));
        let r = re(&patt);
        assert!(r.is_full_match(&"a".repeat(n)));
    }

    #[test]
    fn match_fraction() {
        let r = re(r"\d+");
        let vals = ["1", "22", "x", "333"];
        assert!((r.match_fraction(&vals) - 0.75).abs() < 1e-12);
        assert_eq!(r.match_fraction::<&str>(&[]), 0.0);
    }

    #[test]
    fn nested_repeats() {
        let r = re("(ab{2}){2}");
        assert!(r.is_full_match("abbabb"));
        assert!(!r.is_full_match("abab"));
    }

    #[test]
    fn pattern_accessor() {
        assert_eq!(re("a+").pattern(), "a+");
        assert!(re("a+").n_states() >= 2);
    }

    #[test]
    fn length_bounds_follow_the_ast() {
        let bounds = |p: &str| re(p).match_len_bounds();
        assert_eq!(bounds(r"\d{3}-\d{4}"), (8, Some(8)));
        assert_eq!(bounds("^ab$"), (2, Some(2)));
        assert_eq!(bounds("a|bcd|"), (0, Some(3)));
        assert_eq!(bounds("(ab){2,3}c?"), (4, Some(7)));
        assert_eq!(bounds("x(ab)*"), (1, None));
        assert_eq!(bounds("(a{2}){3,}"), (6, None));
        assert_eq!(bounds(""), (0, Some(0)));
        // Out-of-bounds inputs are rejected; the search is not bounded.
        let r = re(r"\d{3}");
        assert!(!r.is_full_match("1234"));
        assert!(r.is_match("1234"));
    }
}
