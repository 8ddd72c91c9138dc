//! Property tests: every coding scheme decodes losslessly over
//! arbitrary traffic, at several widths, from synchronized state.

#[allow(dead_code)]
#[path = "../crates/buscoding/tests/support/specs.rs"]
mod specs;

use buscoding::inversion::{InversionDecoder, InversionEncoder, PatternSet};
use buscoding::predict::{
    context_transition_codec, context_value_codec, stride_codec, window_codec, ContextConfig,
    StrideConfig, WindowConfig,
};
use buscoding::spatial::SpatialCodec;
use buscoding::{verify_roundtrip, CostModel, IdentityCodec};
use bustrace::{Trace, Width};
use proptest::prelude::*;

/// Arbitrary traces mix random words, repeats, small working sets and
/// strides — the regimes that exercise different codec paths.
fn trace_strategy(width: Width) -> impl Strategy<Value = Trace> {
    let mask = width.mask();
    prop::collection::vec(
        prop_oneof![
            4 => any::<u64>(),               // wide random
            3 => 0u64..16,                 // tiny working set
            2 => (0u64..4).prop_map(|k| 0xAAAA_0000 + k * 0x100), // clustered
            1 => Just(0u64),                 // repeats of zero
        ],
        1..300,
    )
    .prop_map(move |vs| Trace::from_values(width, vs.into_iter().map(|v| v & mask)))
}

fn widths() -> impl Strategy<Value = Width> {
    prop_oneof![
        Just(Width::new(8).unwrap()),
        Just(Width::new(16).unwrap()),
        Just(Width::W32),
        Just(Width::new(62).unwrap()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every scheme the registry can serve, across each family's
    /// parameter bounds and the widths it fits.
    #[test]
    fn every_scheme_roundtrips(
        (width, spec, trace) in specs::buildable()
            .prop_flat_map(|(w, spec)| (Just(w), Just(spec), trace_strategy(w))),
    ) {
        let mut pair = specs::build(&spec, width).expect("buildable");
        let (enc, dec) = pair.split_mut();
        verify_roundtrip(enc, dec, &trace).unwrap_or_else(|e| panic!("{spec} at {width}: {e}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn identity_roundtrips((width, trace) in widths().prop_flat_map(|w| (Just(w), trace_strategy(w)))) {
        let mut enc = IdentityCodec::new(width);
        let mut dec = IdentityCodec::new(width);
        verify_roundtrip(&mut enc, &mut dec, &trace).unwrap();
    }

    #[test]
    fn window_roundtrips(
        (width, trace) in widths().prop_flat_map(|w| (Just(w), trace_strategy(w))),
        entries in 1usize..24,
    ) {
        let (mut enc, mut dec) = window_codec(WindowConfig::new(width, entries));
        verify_roundtrip(&mut enc, &mut dec, &trace).unwrap();
    }

    #[test]
    fn stride_roundtrips(
        (width, trace) in widths().prop_flat_map(|w| (Just(w), trace_strategy(w))),
        strides in 1usize..12,
    ) {
        let (mut enc, mut dec) = stride_codec(StrideConfig::new(width, strides));
        verify_roundtrip(&mut enc, &mut dec, &trace).unwrap();
    }

    #[test]
    fn context_value_roundtrips(
        (width, trace) in widths().prop_flat_map(|w| (Just(w), trace_strategy(w))),
        table in 1usize..32,
        shift in 1usize..8,
        divide in prop_oneof![Just(0u64), Just(16), Just(4096)],
    ) {
        let cfg = ContextConfig::new(width, table, shift).with_divide_period(divide);
        let (mut enc, mut dec) = context_value_codec(cfg);
        verify_roundtrip(&mut enc, &mut dec, &trace).unwrap();
    }

    #[test]
    fn context_transition_roundtrips(
        (width, trace) in widths().prop_flat_map(|w| (Just(w), trace_strategy(w))),
        table in 1usize..24,
        shift in 1usize..6,
    ) {
        let cfg = ContextConfig::new(width, table, shift);
        let (mut enc, mut dec) = context_transition_codec(cfg);
        verify_roundtrip(&mut enc, &mut dec, &trace).unwrap();
    }

    #[test]
    fn inversion_roundtrips(
        trace in trace_strategy(Width::W32),
        chunks in 1u32..=6,
        lambda in prop_oneof![Just(0.0), Just(1.0), Just(14.0)],
    ) {
        let patterns = PatternSet::chunked(Width::W32, chunks);
        let mut enc = InversionEncoder::new(patterns.clone(), CostModel::new(lambda));
        let mut dec = InversionDecoder::new(patterns);
        verify_roundtrip(&mut enc, &mut dec, &trace).unwrap();
    }

    #[test]
    fn workzone_roundtrips(
        trace in trace_strategy(Width::W32),
        zones in 1usize..=8,
    ) {
        use buscoding::workzone::{WorkZoneDecoder, WorkZoneEncoder};
        let mut enc = WorkZoneEncoder::new(Width::W32, zones);
        let mut dec = WorkZoneDecoder::new(Width::W32, zones);
        verify_roundtrip(&mut enc, &mut dec, &trace).unwrap();
    }

    #[test]
    fn huffman_book_is_lossless(
        trace in trace_strategy(Width::W32),
        dictionary in 1usize..64,
    ) {
        use buscoding::varlen::HuffmanBook;
        prop_assume!(!trace.is_empty());
        let book = HuffmanBook::from_trace(&trace, dictionary);
        let bits = book.encode(&trace);
        let decoded = book.decode(&bits, trace.len()).expect("decodable");
        prop_assert_eq!(decoded.as_slice(), trace.values());
    }

    #[test]
    fn spatial_roundtrips(trace in trace_strategy(Width::new(6).unwrap())) {
        let mut enc = SpatialCodec::new(Width::new(6).unwrap());
        let mut dec = SpatialCodec::new(Width::new(6).unwrap());
        verify_roundtrip(&mut enc, &mut dec, &trace).unwrap();
    }

    /// The wire-order optimizer never increases adjacent coupling
    /// relative to the identity layout, and always emits a valid
    /// permutation.
    #[test]
    fn wireorder_optimizer_never_hurts(trace in trace_strategy(Width::new(12).unwrap())) {
        use buscoding::wireorder::CouplingMatrix;
        prop_assume!(trace.len() >= 2);
        let m = CouplingMatrix::of(&trace);
        let identity: Vec<usize> = (0..12).collect();
        let optimized = m.optimize();
        let mut sorted = optimized.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, identity.clone());
        prop_assert!(m.adjacent_cost(&optimized) <= m.adjacent_cost(&identity));
    }

    /// Huffman books decode their own encodings for any dictionary size.
    #[test]
    fn huffman_books_are_prefix_free_in_practice(
        trace in trace_strategy(Width::W32),
        dictionary in 1usize..48,
    ) {
        use buscoding::varlen::HuffmanBook;
        prop_assume!(!trace.is_empty());
        let book = HuffmanBook::from_trace(&trace, dictionary);
        let bits = book.encode(&trace);
        let decoded = book.decode(&bits, trace.len()).expect("prefix-free");
        prop_assert_eq!(decoded.as_slice(), trace.values());
    }

    /// Desync detection: feeding a decoder a corrupted bus state either
    /// errors or (legitimately) decodes to some word — but never panics.
    #[test]
    fn decoder_never_panics_on_corruption(
        trace in trace_strategy(Width::W32),
        flips in prop::collection::vec((0usize..300, 0u32..34), 1..8),
    ) {
        use buscoding::{Decoder, Encoder};
        let (mut enc, mut dec) = window_codec(WindowConfig::new(Width::W32, 8));
        enc.reset();
        dec.reset();
        for (i, v) in trace.iter().enumerate() {
            let mut bus = enc.encode(v);
            for &(at, bit) in &flips {
                if at == i {
                    bus ^= 1u64 << bit;
                }
            }
            let _ = dec.decode(bus); // must not panic
        }
    }
}
