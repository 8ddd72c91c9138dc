//! Pins every [`Predictor::step`] to its definition: the engine's
//! candidate walk, then [`Predictor::observe`].
//!
//! The overrides exist purely for speed (one pass over the predictor's
//! store finds the rank and the slot to update); the block-equivalence
//! tests cannot see a divergent override because both the per-word and
//! block paths route through `step`. This harness runs the walk over
//! `candidate()` on a clone, observes the value there, and demands that
//! `step` return the same rank and leave the same candidate list, on
//! every word of the stream and for probes at every cap, including a
//! value equal to LAST.

use buscoding::predict::{
    ContextConfig, FcmConfig, FcmPredictor, Predictor, StridePredictor, TransitionContextPredictor,
    ValueContextPredictor, WindowPredictor,
};
use bustrace::{Width, Word};
use proptest::prelude::*;

/// The caps probed after the stream: 0, 1, and spread past the largest
/// candidate count.
const CAPS: [usize; 9] = [0, 1, 2, 3, 5, 9, 17, 33, 65];

/// The engine's rank walk over `candidate()`, as `step` defines it.
fn walk(p: &dyn Predictor, value: Word, last: Option<Word>, cap: usize) -> Option<usize> {
    if last == Some(value) {
        return (cap > 0).then_some(0);
    }
    let mut rank = 1usize;
    let mut index = 0usize;
    while rank < cap {
        let c = p.candidate(index)?;
        index += 1;
        if Some(c) == last {
            continue;
        }
        if c == value {
            return Some(rank);
        }
        rank += 1;
    }
    None
}

/// The full current candidate list.
fn candidates(p: &dyn Predictor) -> Vec<Word> {
    (0..=p.max_candidates())
        .map_while(|i| p.candidate(i))
        .collect()
}

/// Steps `p` once and checks it against the walk-then-observe reference
/// run on a clone.
fn step_checked<P: Predictor + Clone>(p: &mut P, value: Word, last: Option<Word>, cap: usize) {
    let mut reference = p.clone();
    let want = walk(&reference, value, last, cap);
    reference.observe(value);
    let got = p.step(value, last, cap);
    assert_eq!(
        got,
        want,
        "{} rank diverged: value {value:#x} last {last:?} cap {cap}",
        p.name()
    );
    assert_eq!(
        candidates(p),
        candidates(&reference),
        "{} state diverged after value {value:#x} last {last:?} cap {cap}",
        p.name()
    );
}

/// Feeds `words` through `step` as the engine does (LAST is the previous
/// word, the cap is the codebook size), checking every word; then probes
/// every candidate, LAST and some certain misses at every cap.
fn check<P: Predictor + Clone>(mut p: P, words: &[Word]) {
    let mut last = None;
    let cap = 1 + p.max_candidates();
    for &w in words {
        step_checked(&mut p, w, last, cap);
        last = Some(w);
    }
    let mut probes = candidates(&p);
    probes.extend(last);
    probes.extend([0, 7, 0xdead_beef, u64::from(u32::MAX)]);
    for cap in CAPS {
        for &v in &probes {
            step_checked(&mut p.clone(), v, last, cap);
        }
        // Without a LAST, as right after power-on.
        step_checked(&mut p.clone(), probes[0], None, cap);
    }
}

/// Word streams mixing hot-set reuse, strided ramps and noise, so the
/// predictors' tables, shift registers and histories all populate.
fn word_stream() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(
        prop_oneof![
            3 => 0u64..12,
            2 => (0u64..40).prop_map(|k| 0x4000 + 8 * k),
            1 => any::<u32>().prop_map(u64::from),
        ],
        0..400,
    )
}

/// A predictor with a constant list (duplicates included) that keeps
/// the trait's default `step`.
#[derive(Debug, Clone)]
struct FixedList(Vec<Word>);

impl Predictor for FixedList {
    fn name(&self) -> String {
        "fixed".into()
    }

    fn max_candidates(&self) -> usize {
        self.0.len()
    }

    fn candidate(&self, index: usize) -> Option<Word> {
        self.0.get(index).copied()
    }

    fn observe(&mut self, _value: Word) {}

    fn reset(&mut self) {}
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn window_step_matches_walk_then_observe(words in word_stream(), entries in 1usize..20) {
        check(WindowPredictor::new(entries), &words);
    }

    #[test]
    fn stride_step_matches_walk_then_observe(words in word_stream(), strides in 1usize..12) {
        check(StridePredictor::new(Width::W32, strides), &words);
    }

    #[test]
    fn value_context_step_matches_walk_then_observe(
        words in word_stream(),
        table in 1usize..32,
        sr in 1usize..12,
        divide in 0u64..64,
    ) {
        let cfg = ContextConfig::new(Width::W32, table, sr).with_divide_period(divide);
        check(ValueContextPredictor::new(&cfg), &words);
    }

    #[test]
    fn transition_context_step_matches_walk_then_observe(
        words in word_stream(),
        table in 1usize..32,
        sr in 1usize..12,
        divide in 0u64..64,
    ) {
        let cfg = ContextConfig::new(Width::W32, table, sr).with_divide_period(divide);
        check(TransitionContextPredictor::new(&cfg), &words);
    }

    #[test]
    fn fcm_step_matches_walk_then_observe(
        words in word_stream(),
        order in 1usize..4,
        table_bits in 1u32..10,
    ) {
        check(FcmPredictor::new(&FcmConfig::new(Width::W32, order, table_bits)), &words);
    }

    #[test]
    fn default_step_matches_walk_then_observe(words in word_stream()) {
        check(FixedList(vec![3, 3, 7, 0x4008, 3, 11]), &words);
    }
}
