//! Property tests pinning the block-batched evaluation engine to a
//! per-word reference loop, for every scheme the registry can build.
//!
//! Two claims:
//!
//! 1. [`Encoder::encode_block`] emits exactly the state sequence the
//!    per-word [`Encoder::encode`] loop emits, at any chunking;
//! 2. [`evaluate_blocks`] produces an [`Activity`] identical (τ, κ,
//!    steps, final state) to stepping the accumulator once per word.
//!
//! Both must hold on every traffic regime the experiments exercise:
//! uniform noise, strided ramps, and looping hot-set (markov-flavored)
//! streams. The schemes come from the shared [`specs`] strategy, which
//! also pins `SchemeSpec`'s `Display`/`FromStr` inverse here.

#[path = "support/specs.rs"]
mod specs;

use buscoding::{evaluate_blocks, Activity, Encoder, SchemeSpec};
use bustrace::{Trace, Width};
use proptest::prelude::*;

/// The per-word oracle: reset, start from the all-low bus, and step
/// the accumulator once per encoded word.
fn evaluate_per_word(encoder: &mut dyn Encoder, trace: &Trace) -> Activity {
    encoder.reset();
    let mut activity = Activity::new(encoder.lines());
    activity.step(0);
    for value in trace.iter() {
        activity.step(encoder.encode(value));
    }
    activity
}

/// Word streams over the three regimes: random, stride, markov-ish
/// hot-set loops with noise.
fn word_stream() -> impl Strategy<Value = Vec<u64>> {
    prop_oneof![
        // Uniform noise.
        prop::collection::vec(any::<u32>().prop_map(u64::from), 0..500),
        // Strided ramps.
        (1u64..16, 0u64..0x10_0000, 0usize..500)
            .prop_map(|(stride, base, n)| { (0..n).map(|i| base + stride * i as u64).collect() }),
        // Hot-set loops with occasional noise (markov-flavored).
        prop::collection::vec(
            prop_oneof![
                4 => 0u64..8,
                2 => (0u64..50).prop_map(|k| 0x2000 + 4 * k),
                1 => any::<u32>().prop_map(u64::from),
            ],
            0..500,
        ),
    ]
}

/// `words` as a trace on a `width` bus (masked to its lines).
fn trace_of(width: Width, words: Vec<u64>) -> Trace {
    Trace::from_values(width, words.into_iter().map(|v| v & width.mask()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `Display` renders the name `FromStr` parses back to the same
    /// spec, and that name is canonical: it renders back unchanged.
    #[test]
    fn scheme_names_round_trip(spec in specs::any_spec()) {
        let name = spec.to_string();
        let parsed: SchemeSpec = name.parse().unwrap_or_else(|e| panic!("{name}: {e}"));
        prop_assert_eq!(&parsed, &spec);
        prop_assert_eq!(parsed.to_string(), name);
    }

    /// Claim 1: `encode_block` is the per-word loop, at any chunking —
    /// including the overridden fast paths in the hot schemes.
    #[test]
    fn encode_block_matches_per_word_encode(
        (width, spec) in specs::buildable(),
        words in word_stream(),
        chunk in 1usize..97,
    ) {
        let trace = trace_of(width, words);
        let mut reference = specs::build(&spec, width).expect("buildable");
        let per_word: Vec<u64> = trace.iter().map(|v| reference.encode(v)).collect();

        let mut batched = specs::build(&spec, width).expect("buildable");
        let mut states = Vec::new();
        for c in trace.values().chunks(chunk) {
            batched.encoder_mut().encode_block(c, &mut states);
        }
        prop_assert_eq!(&per_word, &states, "scheme {} width {} chunk {}", spec, width, chunk);
    }

    /// Claim 2: the fused block evaluator reproduces the per-word
    /// Activity exactly — τ, κ, step count and final bus state.
    #[test]
    fn evaluate_blocks_matches_evaluate((width, spec) in specs::buildable(), words in word_stream()) {
        let trace = trace_of(width, words);
        let mut reference = specs::build(&spec, width).expect("buildable");
        let per_word = evaluate_per_word(reference.encoder_mut(), &trace);

        let mut batched = specs::build(&spec, width).expect("buildable");
        let blocked = evaluate_blocks(batched.encoder_mut(), &trace);
        prop_assert_eq!(per_word, blocked, "scheme {} width {}", spec, width);
    }
}
