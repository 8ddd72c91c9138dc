//! A proptest strategy over every scheme the registry can serve, shared
//! by the round-trip and block-equivalence property tests.
//!
//! The families come from [`SCHEME_PATTERNS`] itself, so a new pattern
//! is generated as soon as it is registered; [`params`] matches every
//! [`SchemeSpec`] variant without a `_` arm, so a new variant does not
//! compile until it has a parameter generator here.

use std::sync::Arc;

use buscoding::predict::trained::{signature_hash, trained_codec, SignatureTable, TrainedTables};
use buscoding::registry::{
    MAX_CONTEXT_ENTRIES, MAX_FCM_ORDER, MAX_FCM_TABLE_BITS, MAX_INVERSION_CHUNKS, MAX_STRIDES,
    MAX_WINDOW_ENTRIES, MAX_ZONES,
};
use buscoding::{CostModel, SchemeSpec, Transcoder, SCHEME_PATTERNS};
use bustrace::Width;
use proptest::prelude::*;

/// One spec per registry family: each pattern with every
/// `<placeholder>` set to 1, which every family's grammar accepts.
fn families() -> Vec<SchemeSpec> {
    SCHEME_PATTERNS
        .iter()
        .map(|pattern| {
            let mut name = String::new();
            let mut in_placeholder = false;
            for c in pattern.chars() {
                match c {
                    '<' => in_placeholder = true,
                    '>' => {
                        in_placeholder = false;
                        name.push('1');
                    }
                    _ if !in_placeholder => name.push(c),
                    _ => {}
                }
            }
            name.parse()
                .unwrap_or_else(|e| panic!("{pattern} -> {name}: {e}"))
        })
        .collect()
}

/// A structure size in `1..=max`, biased towards small sizes, which
/// fit narrow buses and make short traces hit.
fn size(max: usize) -> impl Strategy<Value = usize> {
    prop_oneof![3 => 1..=max.min(32), 1 => 1..=max]
}

/// The parameters of `family` across its grammar bounds.
fn params(family: &SchemeSpec) -> BoxedStrategy<SchemeSpec> {
    match family {
        SchemeSpec::Identity => Just(SchemeSpec::Identity).boxed(),
        SchemeSpec::Inversion { .. } => (
            0..=MAX_INVERSION_CHUNKS,
            prop_oneof![
                Just(0.0),
                Just(1.0),
                Just(14.0),
                (0u64..1_000_000).prop_map(|n| n as f64 / 7.0),
            ],
        )
            .prop_map(|(chunks, lambda)| SchemeSpec::Inversion { chunks, lambda })
            .boxed(),
        SchemeSpec::Stride(_) => size(MAX_STRIDES).prop_map(SchemeSpec::Stride).boxed(),
        SchemeSpec::Window(_) => size(MAX_WINDOW_ENTRIES)
            .prop_map(SchemeSpec::Window)
            .boxed(),
        SchemeSpec::ContextValue { .. } => context()
            .prop_map(|(table, shift, divide)| SchemeSpec::ContextValue {
                table,
                shift,
                divide,
            })
            .boxed(),
        SchemeSpec::ContextTransition { .. } => context()
            .prop_map(|(table, shift, divide)| SchemeSpec::ContextTransition {
                table,
                shift,
                divide,
            })
            .boxed(),
        SchemeSpec::WorkZone(_) => (1..=MAX_ZONES).prop_map(SchemeSpec::WorkZone).boxed(),
        SchemeSpec::Fcm { .. } => (size(MAX_FCM_ORDER), 1..=MAX_FCM_TABLE_BITS)
            .prop_map(|(order, table_bits)| SchemeSpec::Fcm { order, table_bits })
            .boxed(),
        SchemeSpec::Trained(_) => prop::collection::vec(0usize..38, 1..12)
            .prop_map(|chars| {
                let alphabet = b"abcdefghijklmnopqrstuvwxyz0123456789_-";
                SchemeSpec::Trained(chars.iter().map(|&i| alphabet[i] as char).collect())
            })
            .boxed(),
    }
}

/// Context-scheme `(table, shift, divide)`.
fn context() -> impl Strategy<Value = (usize, usize, u64)> {
    (
        size(MAX_CONTEXT_ENTRIES),
        size(MAX_CONTEXT_ENTRIES),
        prop_oneof![Just(0u64), Just(16), Just(4096), any::<u64>()],
    )
}

/// Any spec the grammar accepts, from every family.
pub fn any_spec() -> impl Strategy<Value = SchemeSpec> {
    let families = families();
    (0..families.len()).prop_flat_map(move |i| params(&families[i]))
}

/// The bus widths the round-trip properties cover.
fn width() -> impl Strategy<Value = Width> {
    prop_oneof![
        Just(Width::new(8).unwrap()),
        Just(Width::new(16).unwrap()),
        Just(Width::W32),
        Just(Width::new(62).unwrap()),
    ]
}

/// A `(width, spec)` pair whose spec [`build`]s at that width.
pub fn buildable() -> impl Strategy<Value = (Width, SchemeSpec)> {
    (width(), any_spec()).prop_filter("scheme fits the bus", |(w, spec)| build(spec, *w).is_some())
}

/// Builds `spec` at `width`. A `trained:` spec deploys a tiny
/// hand-written table set instead of loading an artifact from disk.
pub fn build(spec: &SchemeSpec, width: Width) -> Option<Transcoder> {
    let SchemeSpec::Trained(name) = spec else {
        return spec.build(width).ok();
    };
    let mask = width.mask();
    let tables = TrainedTables {
        name: name.clone(),
        width,
        trained_values: 100,
        trained_traces: 1,
        codebook: vec![1, 2, 3, mask],
        signatures: vec![SignatureTable {
            order: 1,
            entries: vec![(signature_hash([1u64].into_iter()), 2)],
        }],
        strides: vec![4],
    };
    tables.validate().ok()?;
    let (enc, dec) = trained_codec(Arc::new(tables), CostModel::default());
    Some(Transcoder::new(spec.to_string(), enc, dec))
}
