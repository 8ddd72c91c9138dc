//! The scheme factory registry: construct any coding scheme in this
//! crate from its display name.
//!
//! Every scheme already carries a canonical display name (the strings
//! `bench` prints in its tables: `window(8)`, `context-value(28+8
//! d4096)`, …). Before this module, each consumer that needed to build
//! schemes *by name* — the bench harness, the adaptive controller, ad
//! hoc tools — kept its own construction table. [`scheme_by_name`] is
//! the one shared table: it parses a canonical name and returns a fresh
//! [`Transcoder`] pair, so candidate lists can be plain `&str` slices
//! and two consumers can never disagree about what `stride(8)` means.
//!
//! # Example
//!
//! ```
//! use buscoding::{scheme_by_name, verify_roundtrip};
//! use bustrace::{Trace, Width};
//!
//! let mut pair = scheme_by_name("window(8)", Width::W32).unwrap();
//! let trace = Trace::from_values(Width::W32, (0..100u64).map(|i| i % 7));
//! let (enc, dec) = pair.split_mut();
//! verify_roundtrip(enc, dec, &trace).unwrap();
//! ```

use std::error::Error;
use std::fmt;
use std::str::FromStr;

use bustrace::Width;

use std::sync::Arc;

use crate::codec::Transcoder;
use crate::energy::CostModel;
use crate::identity::IdentityCodec;
use crate::inversion::{InversionDecoder, InversionEncoder, PatternSet};
use crate::predict::trained::{
    artifact_dir, available_artifacts, load_named_artifact, trained_codec, ArtifactError,
};
use crate::predict::{
    context_transition_codec, context_value_codec, fcm_codec, stride_codec, window_codec,
    ContextConfig, FcmConfig, StrideConfig, WindowConfig,
};
use crate::workzone::{WorkZoneDecoder, WorkZoneEncoder};

/// Error returned when a scheme name cannot be parsed, names an unknown
/// family, or names a `trained:` artifact that cannot be loaded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownScheme {
    name: String,
    artifact: Option<ArtifactError>,
}

impl UnknownScheme {
    /// The offending name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// For `trained:<artifact>` names, why the artifact failed to load
    /// (`None` for ordinary unknown schemes). Front ends use this to
    /// distinguish "no such scheme grammar" from "scheme grammar fine,
    /// artifact missing or corrupt".
    pub fn artifact_error(&self) -> Option<&ArtifactError> {
        self.artifact.as_ref()
    }
}

impl fmt::Display for UnknownScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.artifact {
            Some(err) => write!(f, "scheme {:?}: {err}", self.name),
            None => write!(
                f,
                "unknown coding scheme {:?} (expected one of: {})",
                self.name,
                scheme_candidates().join(", ")
            ),
        }
    }
}

impl Error for UnknownScheme {}

/// The name grammar [`scheme_by_name`] accepts, one pattern per scheme
/// family.
pub const SCHEME_PATTERNS: &[&str] = &[
    "identity",
    "inversion(<chunks>ch l<lambda>)",
    "stride(<strides>)",
    "window(<entries>)",
    "context-value(<table>+<shift> d<divide>)",
    "context-transition(<table>+<shift> d<divide>)",
    "workzone(<zones>)",
    "fcm(<order> 2^<table_bits>)",
    "trained:<artifact>",
];

/// Every name [`scheme_by_name`] would currently accept: the static
/// [`SCHEME_PATTERNS`] grammar plus a concrete `trained:<name>` entry
/// per artifact present in the artifact directory. When the directory
/// is absent (nothing was ever trained) only the static patterns are
/// listed, so error messages never advertise schemes that cannot load.
pub fn scheme_candidates() -> Vec<String> {
    let mut candidates: Vec<String> = SCHEME_PATTERNS.iter().map(|s| s.to_string()).collect();
    for name in available_artifacts(&artifact_dir()) {
        candidates.push(format!("trained:{name}"));
    }
    candidates
}

/// Splits `name` into a family and the text between its parentheses;
/// a name without parentheses yields an empty argument string.
fn family_and_args(name: &str) -> Option<(&str, &str)> {
    match name.find('(') {
        None => Some((name, "")),
        Some(open) => {
            let close = name.rfind(')')?;
            if close != name.len() - 1 || close < open {
                return None;
            }
            Some((&name[..open], &name[open + 1..close]))
        }
    }
}

/// Largest structure size each family accepts by name; the smallest is
/// 1 (inversion also takes 0 chunks, meaning plain bus-invert). Every
/// bound covers the sizes the experiments sweep — up to `window(64)`,
/// `stride(32)`, context tables of 64 with shift registers of 32,
/// `fcm(2 2^12)`, `inversion(6ch ..)` — and keeps a hostile name from
/// reaching a constructor assertion or an unbounded allocation.
const MAX_WINDOW_ENTRIES: usize = 1024;
const MAX_STRIDES: usize = 256;
const MAX_CONTEXT_ENTRIES: usize = 1024;
const MAX_ZONES: usize = 16;
const MAX_FCM_ORDER: usize = 16;
const MAX_FCM_TABLE_BITS: u32 = 16;
const MAX_INVERSION_CHUNKS: u32 = 6;

/// Parses a structure size in `1..=max`.
fn size<T: FromStr + PartialOrd + From<u8>>(text: &str, max: T) -> Option<T> {
    let n: T = text.parse().ok()?;
    (n >= T::from(1) && n <= max).then_some(n)
}

/// Whether a predictive engine offering up to `candidates` predictions
/// fits a `width` bus: its two control lines must fit the 64-line state
/// word beside the data lines, and the bus must have a distinct
/// codeword for every candidate plus the last-value code.
fn engine_fits(width: Width, candidates: usize) -> bool {
    width.bits() + 2 <= 64 && (candidates as u64) < 1u64 << width.bits()
}

/// Parses `"<table>+<shift> d<divide>"` (the context-scheme argument
/// form) into a configuration for a `width` bus.
fn context_config(width: Width, args: &str) -> Option<ContextConfig> {
    let (sizes, divide) = args.split_once(' ')?;
    let (table, shift) = sizes.split_once('+')?;
    let table = size(table, MAX_CONTEXT_ENTRIES)?;
    let shift = size(shift, MAX_CONTEXT_ENTRIES)?;
    let divide = divide.strip_prefix('d')?.parse().ok()?;
    engine_fits(width, table + shift)
        .then(|| ContextConfig::new(width, table, shift).with_divide_period(divide))
}

/// Parses `"<chunks>ch l<lambda>"` (the inversion-scheme argument form).
fn parse_inversion_args(args: &str) -> Option<(u32, f64)> {
    let (chunks, lambda) = args.split_once(' ')?;
    let lambda: f64 = lambda.strip_prefix('l')?.parse().ok()?;
    if !lambda.is_finite() || lambda < 0.0 {
        return None;
    }
    let chunks: u32 = chunks.strip_suffix("ch")?.parse().ok()?;
    (chunks <= MAX_INVERSION_CHUNKS).then_some((chunks, lambda))
}

/// Builds a fresh encoder/decoder pair for the scheme named by its
/// canonical display name, at the given bus width.
///
/// Calling twice with the same arguments yields two independent pairs
/// in their power-on state — the registry is a factory, not a cache.
///
/// # Errors
///
/// Returns [`UnknownScheme`] when the name does not match any
/// [`SCHEME_PATTERNS`] entry, its parameters fail to parse or fall
/// outside the family's size bound, or the scheme does not fit a
/// `width` bus.
pub fn scheme_by_name(name: &str, width: Width) -> Result<Transcoder, UnknownScheme> {
    let unknown = || UnknownScheme {
        name: name.to_string(),
        artifact: None,
    };
    // `trained:` names carry no parenthesized arguments, so they are
    // resolved before the family grammar: load the named artifact from
    // the artifact directory and deploy it.
    if let Some(artifact) = name.strip_prefix("trained:") {
        let load = load_named_artifact(&artifact_dir(), artifact).and_then(|tables| {
            if tables.width != width {
                Err(ArtifactError::Malformed(format!(
                    "artifact {artifact:?} was trained at {} but the bus is {width}",
                    tables.width
                )))
            } else {
                Ok(tables)
            }
        });
        return match load {
            Ok(tables) => {
                let (e, d) = trained_codec(Arc::new(tables), CostModel::default());
                Ok(Transcoder::new(name, e, d))
            }
            Err(err) => Err(UnknownScheme {
                name: name.to_string(),
                artifact: Some(err),
            }),
        };
    }
    let (family, args) = family_and_args(name).ok_or_else(unknown)?;
    let pair = match family {
        "identity" if args.is_empty() => {
            Transcoder::new(name, IdentityCodec::new(width), IdentityCodec::new(width))
        }
        "window" => {
            let entries = size(args, MAX_WINDOW_ENTRIES)
                .filter(|&n| engine_fits(width, n))
                .ok_or_else(unknown)?;
            let (e, d) = window_codec(WindowConfig::new(width, entries));
            Transcoder::new(name, e, d)
        }
        "stride" => {
            let strides = size(args, MAX_STRIDES)
                .filter(|&n| engine_fits(width, n))
                .ok_or_else(unknown)?;
            let (e, d) = stride_codec(StrideConfig::new(width, strides));
            Transcoder::new(name, e, d)
        }
        "context-value" => {
            let cfg = context_config(width, args).ok_or_else(unknown)?;
            let (e, d) = context_value_codec(cfg);
            Transcoder::new(name, e, d)
        }
        "context-transition" => {
            let cfg = context_config(width, args).ok_or_else(unknown)?;
            let (e, d) = context_transition_codec(cfg);
            Transcoder::new(name, e, d)
        }
        "inversion" => {
            let (chunks, lambda) = parse_inversion_args(args)
                .filter(|&(chunks, _)| chunks <= width.bits() && width.bits() + chunks.max(1) <= 64)
                .ok_or_else(unknown)?;
            let patterns = if chunks <= 1 {
                PatternSet::bus_invert(width)
            } else {
                PatternSet::chunked(width, chunks)
            };
            Transcoder::new(
                name,
                InversionEncoder::new(patterns.clone(), CostModel::new(lambda)),
                InversionDecoder::new(patterns),
            )
        }
        "workzone" => {
            // One hit/miss line plus the zone-id lines beside the data.
            let zones = size(args, MAX_ZONES)
                .filter(|&n| {
                    let id_lines = usize::BITS - (n - 1).leading_zeros();
                    width.bits() >= 6 && width.bits() + 1 + id_lines <= 64
                })
                .ok_or_else(unknown)?;
            Transcoder::new(
                name,
                WorkZoneEncoder::new(width, zones),
                WorkZoneDecoder::new(width, zones),
            )
        }
        "fcm" => {
            let (order, bits) = args.split_once(' ').ok_or_else(unknown)?;
            let order = size(order, MAX_FCM_ORDER)
                .filter(|_| engine_fits(width, 2))
                .ok_or_else(unknown)?;
            let bits = bits
                .strip_prefix("2^")
                .and_then(|b| size(b, MAX_FCM_TABLE_BITS))
                .ok_or_else(unknown)?;
            let (e, d) = fcm_codec(FcmConfig::new(width, order, bits));
            Transcoder::new(name, e, d)
        }
        _ => return Err(unknown()),
    };
    Ok(pair)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::verify_roundtrip;
    use bustrace::Trace;

    fn mixed_trace(n: u64) -> Trace {
        Trace::from_values(Width::W32, (0..n).map(|i| (i * 7) % 23 + (i % 3) * 0x1000))
    }

    #[test]
    fn every_family_round_trips() {
        let names = [
            "identity",
            "inversion(1ch l1)",
            "inversion(2ch l0.5)",
            "stride(8)",
            "window(8)",
            "context-value(28+8 d4096)",
            "context-transition(28+8 d4096)",
            "workzone(4)",
            "fcm(2 2^12)",
        ];
        let trace = mixed_trace(400);
        for name in names {
            let mut pair =
                scheme_by_name(name, Width::W32).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(pair.name(), name);
            let (enc, dec) = pair.split_mut();
            verify_roundtrip(enc, dec, &trace).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    fn two_builds_are_independent_fresh_pairs() {
        let trace = mixed_trace(100);
        let mut a = scheme_by_name("window(8)", Width::W32).unwrap();
        let mut b = scheme_by_name("window(8)", Width::W32).unwrap();
        // Warping `a`'s state must not affect `b`.
        for v in trace.iter() {
            let _ = a.encode(v);
        }
        let states: Vec<u64> = trace.iter().map(|v| b.encode(v)).collect();
        let mut fresh = scheme_by_name("window(8)", Width::W32).unwrap();
        let fresh_states: Vec<u64> = trace.iter().map(|v| fresh.encode(v)).collect();
        assert_eq!(states, fresh_states);
    }

    #[test]
    fn unknown_names_are_rejected_with_patterns() {
        for bad in [
            "windoww(8)",
            "window(8",
            "window(x)",
            "identity(3)",
            "inversion(2ch)",
            "inversion(2ch l-1)",
            "fcm(2 12)",
            "context-value(28 d4096)",
            "",
        ] {
            let err = scheme_by_name(bad, Width::W32).expect_err(bad);
            assert_eq!(err.name(), bad);
            assert!(err.to_string().contains("window(<entries>)"), "{err}");
        }
    }

    #[test]
    fn hostile_parameters_are_unknown_schemes_not_panics() {
        let w4 = Width::new(4).unwrap();
        let w63 = Width::new(63).unwrap();
        let rejected = [
            ("inversion(7ch l1)", Width::W32),
            ("window(0)", Width::W32),
            ("stride(0)", Width::W32),
            ("workzone(0)", Width::W32),
            ("fcm(0 2^4)", Width::W32),
            ("fcm(2 2^0)", Width::W32),
            ("fcm(2 2^31)", Width::W32),
            ("fcm(2 2^24)", Width::W32),
            ("context-value(0+0 d0)", Width::W32),
            ("context-transition(28+0 d4096)", Width::W32),
            ("window(100000000000)", Width::W32),
            ("stride(100000000000)", Width::W32),
            ("workzone(17)", Width::W32),
            // Parameters fine, bus too narrow or too wide for them.
            ("window(64)", w4),
            ("inversion(6ch l1)", w4),
            ("workzone(4)", w4),
            ("stride(4)", w63),
            ("workzone(16)", Width::new(64).unwrap()),
        ];
        for (name, width) in rejected {
            let err = scheme_by_name(name, width).expect_err(name);
            assert_eq!(err.name(), name);
            assert_eq!(err.artifact_error(), None, "{name}");
        }
        // The bounds admit every size the experiments sweep.
        for name in [
            "window(64)",
            "stride(32)",
            "context-value(64+32 d4096)",
            "context-transition(64+8 d0)",
            "inversion(6ch l1)",
            "inversion(0ch l1)",
            "workzone(16)",
            "fcm(2 2^12)",
        ] {
            scheme_by_name(name, Width::W32).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    /// The one test in this crate that touches the process-global
    /// artifact directory — every scenario runs sequentially inside it
    /// so parallel tests can never observe a half-configured registry.
    #[test]
    fn trained_schemes_resolve_through_the_registry() {
        use crate::predict::trained::{
            save_artifact, set_artifact_dir, ArtifactError, SignatureTable, TrainedTables,
        };

        let dir = std::env::temp_dir().join(format!("trained-reg-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        set_artifact_dir(&dir);

        // Directory absent: candidates stay static, trained names miss.
        assert_eq!(
            scheme_candidates().len(),
            SCHEME_PATTERNS.len(),
            "no artifacts should be advertised before training"
        );
        let err = scheme_by_name("trained:demo", Width::W32).unwrap_err();
        assert_eq!(err.name(), "trained:demo");
        assert!(matches!(
            err.artifact_error(),
            Some(ArtifactError::Missing { .. })
        ));
        assert!(err.to_string().contains("not found"), "{err}");
        // Plain unknown schemes still have no artifact error.
        assert_eq!(
            scheme_by_name("windoww(8)", Width::W32)
                .unwrap_err()
                .artifact_error(),
            None
        );

        // Train (well, hand-write) an artifact and resolve it.
        let tables = TrainedTables {
            name: "demo".into(),
            width: Width::W32,
            trained_values: 100,
            trained_traces: 1,
            codebook: vec![1, 2, 3],
            signatures: vec![SignatureTable {
                order: 1,
                entries: Vec::new(),
            }],
            strides: vec![4],
        };
        save_artifact(&tables, &dir).unwrap();
        let mut pair = scheme_by_name("trained:demo", Width::W32).unwrap();
        assert_eq!(pair.name(), "trained:demo");
        let trace = mixed_trace(300);
        let (enc, dec) = pair.split_mut();
        verify_roundtrip(enc, dec, &trace).unwrap();

        // The candidate list now advertises the concrete artifact.
        assert!(scheme_candidates().contains(&"trained:demo".to_string()));

        // Width mismatch is a typed artifact error, not a panic.
        let err = scheme_by_name("trained:demo", Width::new(16).unwrap()).unwrap_err();
        assert!(matches!(
            err.artifact_error(),
            Some(ArtifactError::Malformed(_))
        ));

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn width_is_respected() {
        let w16 = Width::new(16).unwrap();
        let pair = scheme_by_name("stride(4)", w16).unwrap();
        assert_eq!(pair.lines(), 18); // 16 data + 2 control
        let id = scheme_by_name("identity", w16).unwrap();
        assert_eq!(id.lines(), 16);
    }
}
