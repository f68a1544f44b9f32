//! Generated test cases that shrink: the property runner of every test
//! suite in the workspace.
//!
//! A property is a closure over [`Choices`], the source of every value
//! it draws. [`check`] runs it on a fixed range of cases, each seeded
//! from the property's name and the case index, so a run needs no
//! persistence file. Every draw takes one `u64` word, and the words are
//! recorded. When a case fails — its body returns `Err` or panics — the
//! recorded stream is shrunk: spans of it are deleted or zeroed and
//! single words lowered, the body is replayed on each candidate, and a
//! candidate that still fails is kept (the reducer of Hypothesis,
//! MacIver & Donaldson, ECOOP 2020). A replayed stream that runs out
//! yields 0, and a word of 0 is the low end of every draw, so a shorter
//! or smaller stream is a simpler case. The report ends with the shrunk
//! stream as a [`replay`] call.

use std::cell::Cell;
use std::fmt::Display;
use std::ops::{Range, RangeInclusive};
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;

use crate::rng::SplitMix64;

/// How many candidate streams shrinking one failure may replay.
const SHRINK_REPLAYS: u32 = 5_000;

/// The words one case draws its values from.
#[derive(Debug)]
pub struct Choices {
    /// The source of fresh words while recording; `None` replays `words`.
    fresh: Option<SplitMix64>,
    words: Vec<u64>,
    drawn: usize,
    notes: String,
}

impl Choices {
    pub(crate) fn new(fresh: Option<SplitMix64>, words: Vec<u64>) -> Self {
        Choices {
            fresh,
            words,
            drawn: 0,
            notes: String::new(),
        }
    }

    /// The next word: a fresh one, recorded, or the next replayed one
    /// (0 once the stream has run out).
    pub fn word(&mut self) -> u64 {
        let w = match &mut self.fresh {
            Some(rng) => {
                let w = rng.next();
                self.words.push(w);
                w
            }
            None => self.words.get(self.drawn).copied().unwrap_or(0),
        };
        self.drawn += 1;
        w
    }

    fn below_u128(&mut self, n: u128) -> u128 {
        assert!(n > 0, "empty range");
        (u128::from(self.word()) * n) >> 64
    }

    /// A value in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        self.below_u128(n as u128) as usize
    }

    /// A value in `r`, an integer or `f64` range.
    pub fn range<R: Draw>(&mut self, r: R) -> R::Value {
        r.draw(self)
    }

    /// `true` or `false`, each half of the words.
    pub fn bool(&mut self) -> bool {
        self.below(2) == 1
    }

    /// A vector of a length in `len`, each element drawn by `element`.
    pub fn vec<T>(&mut self, len: Range<usize>, mut element: impl FnMut(&mut Self) -> T) -> Vec<T> {
        let n = self.range(len);
        (0..n).map(|_| element(self)).collect()
    }

    /// Adds `text` to the report should this case fail.
    pub fn note(&mut self, text: impl Display) {
        self.notes += &format!("{text}\n");
    }

    /// The words drawn so far; a replayed stream's, up to its end.
    fn drawn(&self) -> &[u64] {
        &self.words[..self.drawn.min(self.words.len())]
    }

    fn failure(&self, message: String) -> String {
        format!("{message}\n{}", self.notes)
    }
}

/// A range [`Choices::range`] draws from: one word, multiplied by the
/// range's width, keeps the high half, so a word of 0 is the start.
pub trait Draw {
    /// The type of the values drawn.
    type Value;

    /// Draws one value from `c`.
    fn draw(self, c: &mut Choices) -> Self::Value;
}

macro_rules! int_ranges {
    ($($t:ty => $u:ty),*) => {$(
        impl Draw for Range<$t> {
            type Value = $t;
            fn draw(self, c: &mut Choices) -> $t {
                assert!(self.start < self.end, "empty range");
                (self.start..=self.end - 1).draw(c)
            }
        }
        impl Draw for RangeInclusive<$t> {
            type Value = $t;
            fn draw(self, c: &mut Choices) -> $t {
                let (lo, hi) = self.into_inner();
                assert!(lo <= hi, "empty range");
                // Through the unsigned twin, so signed spans don't overflow.
                let span = hi.wrapping_sub(lo) as $u as u128 + 1;
                lo.wrapping_add(c.below_u128(span) as $t)
            }
        }
    )*};
}

int_ranges!(
    u8 => u8, u16 => u16, u32 => u32, u64 => u64, usize => usize,
    i8 => u8, i32 => u32, i64 => u64
);

impl Draw for Range<f64> {
    type Value = f64;
    fn draw(self, c: &mut Choices) -> f64 {
        assert!(self.start < self.end, "empty range");
        let unit = (c.word() >> 11) as f64 / (1u64 << 53) as f64;
        self.start + unit * (self.end - self.start)
    }
}

thread_local! {
    /// Set while a case runs: its panic is a failure, not news.
    static QUIET: Cell<bool> = const { Cell::new(false) };
    /// The last quiet panic, as the default hook would have printed it.
    static PANIC: Cell<String> = const { Cell::new(String::new()) };
}

/// Runs one case; a panic becomes its `Err`, unprinted.
fn run(
    body: &mut impl FnMut(&mut Choices) -> Result<(), String>,
    c: &mut Choices,
) -> Result<(), String> {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let loud = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if QUIET.get() {
                PANIC.set(info.to_string());
            } else {
                loud(info);
            }
        }));
    });
    QUIET.set(true);
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| body(c)));
    QUIET.set(false);
    outcome.unwrap_or_else(|_| Err(PANIC.take()))
}

/// Runs the property `body` on the cases `cases` of the stream named
/// `name`, and panics with the shrunk failure if one fails.
pub fn check(
    name: &str,
    cases: Range<u32>,
    mut body: impl FnMut(&mut Choices) -> Result<(), String>,
) {
    // FNV-1a: a property's cases stay fixed as long as its name does.
    let seed = name.bytes().fold(0xCBF2_9CE4_8422_2325, |h: u64, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    });
    for case in cases {
        let mut c = Choices::new(Some(SplitMix64::new(seed ^ (u64::from(case) << 1))), vec![]);
        let Err(message) = run(&mut body, &mut c) else {
            continue;
        };
        let mut shrinker = Shrinker {
            body: &mut body,
            best: c.drawn().to_vec(),
            failure: c.failure(message),
            replays: 0,
        };
        shrinker.shrink();
        panic!(
            "property {name} failed at case {case}; its {} words shrank to {} in {} replays:\n\
             {}replay(&{:?}, ..)",
            c.drawn().len(),
            shrinker.best.len(),
            shrinker.replays,
            shrinker.failure,
            shrinker.best,
        );
    }
}

/// Reruns `body` on `words`, a stream [`check`] printed, then zeros.
/// `Err` carries the failure's message and notes; a panic propagates.
pub fn replay(
    words: &[u64],
    mut body: impl FnMut(&mut Choices) -> Result<(), String>,
) -> Result<(), String> {
    let mut c = Choices::new(None, words.to_vec());
    body(&mut c).map_err(|message| c.failure(message))
}

struct Shrinker<'a, F> {
    body: &'a mut F,
    /// The simplest failing stream so far, and its failure.
    best: Vec<u64>,
    failure: String,
    replays: u32,
}

impl<F: FnMut(&mut Choices) -> Result<(), String>> Shrinker<'_, F> {
    /// Replays `candidate` if it is simpler than `best` — shorter, or as
    /// long and lexicographically lower — and keeps it if it fails.
    fn attempt(&mut self, candidate: Vec<u64>) -> bool {
        let simpler = (candidate.len(), &candidate) < (self.best.len(), &self.best);
        if !simpler || self.replays == SHRINK_REPLAYS {
            return false;
        }
        self.replays += 1;
        let mut c = Choices::new(None, candidate);
        let Err(message) = run(self.body, &mut c) else {
            return false;
        };
        self.best = c.drawn().to_vec();
        self.failure = c.failure(message);
        true
    }

    fn shrink(&mut self) {
        loop {
            let start = self.best.clone();
            // Drop the tail: a replayed stream reads zeros past its end.
            let mut keep = 0;
            while keep < self.best.len() && !self.attempt(self.best[..keep].to_vec()) {
                keep = (2 * keep).max(1);
            }
            // Delete a span of words, or else zero it.
            for size in [8, 4, 2, 1] {
                let mut i = 0;
                while i + size <= self.best.len() {
                    let mut shorter = self.best.clone();
                    shorter.drain(i..i + size);
                    if !self.attempt(shorter) {
                        let mut zeroed = self.best.clone();
                        zeroed[i..i + size].fill(0);
                        self.attempt(zeroed);
                        i += 1;
                    }
                }
            }
            // Lower each word by 16 steps of bisection: to the least
            // failing value within 2^-16 of the word, all that a range of
            // up to 2^16 values reads.
            let mut i = 0;
            while i < self.best.len() {
                let (mut lo, mut hi) = (0, self.best[i]);
                for _ in 0..16 {
                    let mid = lo + (hi - lo) / 2;
                    let mut candidate = self.best.clone();
                    candidate[i] = mid;
                    match self.attempt(candidate) {
                        true => hi = mid,
                        false => lo = mid,
                    }
                    if lo + 1 >= hi || i >= self.best.len() {
                        break;
                    }
                }
                i += 1;
            }
            if self.best == start || self.replays == SHRINK_REPLAYS {
                return;
            }
        }
    }
}

/// Fails the property unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err(::std::format!($($fmt)+));
        }
    };
}

/// Fails the property unless the two values are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        $crate::prop_assert_eq!($left, $right, "assertion failed: `{} == {}`", stringify!($left), stringify!($right))
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, "{} (left: `{:?}`, right: `{:?}`)", ::std::format!($($fmt)+), l, r);
    }};
}

/// Fails the property if the two values are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {
        $crate::prop_assert_ne!($left, $right, "assertion failed: `{} != {}`", stringify!($left), stringify!($right))
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l != r, "{} (both: `{:?}`)", ::std::format!($($fmt)+), l);
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recording(seed: u64) -> Choices {
        Choices::new(Some(SplitMix64::new(seed)), vec![])
    }

    #[test]
    fn the_same_seed_draws_the_same_words() {
        let (mut a, mut b) = (recording(9), recording(9));
        assert!((0..100).all(|_| a.word() == b.word()));
    }

    /// One draw of every kind.
    fn draws(c: &mut Choices) -> (u64, usize, i32, u16, f64, bool, Vec<u8>) {
        let ints = (c.word(), c.below(7), c.range(-9i32..9), c.range(1u16..=4));
        let rest = (
            c.range(-1.0..1.0),
            c.bool(),
            c.vec(0..9, |c| c.range(0u8..=3)),
        );
        (ints.0, ints.1, ints.2, ints.3, rest.0, rest.1, rest.2)
    }

    #[test]
    fn replaying_a_recorded_stream_reproduces_every_draw() {
        for seed in 0..50 {
            let mut recorded = recording(seed);
            let want = draws(&mut recorded);
            assert_eq!(recorded.drawn().len(), 7 + want.6.len());
            assert_eq!(draws(&mut Choices::new(None, recorded.words)), want);
        }
    }

    #[test]
    fn an_exhausted_stream_draws_each_range_s_low_end() {
        let low = draws(&mut Choices::new(None, vec![]));
        assert_eq!(low, (0, 0, -9, 1, -1.0, false, vec![]));
    }

    /// `check`'s report on `body`, which fails, and the words of the
    /// `replay(&[..], ..)` literal the report ends with.
    fn report(body: impl FnMut(&mut Choices) -> Result<(), String>) -> (String, Vec<u64>) {
        let failure = panic::catch_unwind(AssertUnwindSafe(|| check("fails", 0..128, body)));
        let report = *failure.unwrap_err().downcast::<String>().unwrap();
        let literal = report.rsplit("replay(&[").next().unwrap();
        let words = literal.split(']').next().unwrap().split(", ");
        let words = words.filter(|w| !w.is_empty()).map(|w| w.parse().unwrap());
        (report.clone(), words.collect())
    }

    fn all_below_100(c: &mut Choices) -> Result<(), String> {
        for e in c.vec(0..50, |c| c.range(0u32..1_000)) {
            prop_assert!(e < 100, "element {e} is not below 100");
        }
        Ok(())
    }

    #[test]
    fn a_failing_property_shrinks_to_a_stream_that_replays_it() {
        let (report, words) = report(all_below_100);
        // One word for the length 1, one for the element 100.
        assert_eq!(words.len(), 2, "{report}");
        let message = replay(&words, all_below_100).unwrap_err();
        assert_eq!(message, "element 100 is not below 100\n");
        assert!(report.contains(&message), "{report}");
    }

    #[test]
    fn a_panicking_property_is_caught_and_shrunk() {
        let panics = |c: &mut Choices| {
            let v = c.vec(0..50, |c| c.range(0u32..1_000));
            assert!(v.len() < 3, "{} elements", v.len());
            Ok(())
        };
        let (report, words) = report(panics);
        assert!(
            report.contains("panicked at") && report.contains("3 elements"),
            "{report}"
        );
        // The length word alone: the elements replay as zeros.
        assert_eq!(words.len(), 1, "{report}");
        assert!(panic::catch_unwind(AssertUnwindSafe(|| replay(&words, panics))).is_err());
    }

    #[test]
    fn check_runs_every_case_through_the_assertion_macros() {
        let mut cases = 0;
        check("macros", 0..32, |c| {
            cases += 1;
            let (x, b) = (c.range(1u32..100), c.bool());
            prop_assert!((1..100).contains(&x));
            prop_assert_eq!(b, b, "b is {}", b);
            prop_assert_ne!(x, 0);
            for e in c.vec(1..5, |c| c.range(0u16..3) * 2) {
                prop_assert_eq!(e % 2, 0);
            }
            Ok(())
        });
        assert_eq!(cases, 32);
        let fails = replay(&[], |c| {
            prop_assert_eq!(c.word(), 1);
            Ok(())
        });
        assert_eq!(
            fails.unwrap_err(),
            "assertion failed: `c.word() == 1` (left: `0`, right: `1`)\n"
        );
    }
}
