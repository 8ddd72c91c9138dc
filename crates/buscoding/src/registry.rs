//! The scheme registry: one typed [`SchemeSpec`] per coding scheme in
//! this crate, its name grammar, and the factory that builds it.
//!
//! Every scheme has one canonical display name (the strings `bench`
//! prints in its tables: `window(8)`, `context-value(28+8 d4096)`, …).
//! [`SchemeSpec`] is that name as a value: `FromStr` parses the grammar
//! and `Display` renders it back, so code that sweeps schemes works
//! with typed parameters while the session store, the wire protocol and
//! the CSVs keep speaking names. [`SchemeSpec::build`] returns a fresh
//! [`Transcoder`] pair, and [`scheme_by_name`] is parse-then-build, so
//! two consumers can never disagree about what `stride(8)` means.
//!
//! # Example
//!
//! ```
//! use buscoding::{scheme_by_name, verify_roundtrip, SchemeSpec};
//! use bustrace::{Trace, Width};
//!
//! let spec = SchemeSpec::Window(8);
//! assert_eq!(spec.to_string(), "window(8)");
//! assert_eq!("window(8)".parse::<SchemeSpec>().unwrap(), spec);
//!
//! let mut pair = scheme_by_name("window(8)", Width::W32).unwrap();
//! let trace = Trace::from_values(Width::W32, (0..100u64).map(|i| i % 7));
//! let (enc, dec) = pair.split_mut();
//! verify_roundtrip(enc, dec, &trace).unwrap();
//! ```

use std::error::Error;
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

use bustrace::Width;

use crate::codec::{Decoder, Encoder, Transcoder};
use crate::energy::CostModel;
use crate::identity::IdentityCodec;
use crate::inversion::{InversionDecoder, InversionEncoder, PatternSet};
use crate::predict::trained::{
    artifact_dir, available_artifacts, load_named_artifact, trained_codec, ArtifactError,
    TrainedTables,
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
    fn new(name: &str) -> Self {
        UnknownScheme {
            name: name.to_string(),
            artifact: None,
        }
    }

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

/// The name grammar [`SchemeSpec`] parses, one pattern per scheme
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

// Largest structure size each family accepts by name; the smallest is
// 1 (inversion also takes 0 chunks, meaning plain bus-invert). Every
// bound covers the sizes the experiments sweep — up to `window(64)`,
// `stride(32)`, context tables of 64 with shift registers of 32,
// `fcm(2 2^12)`, `inversion(6ch ..)` — and keeps a hostile name from
// reaching a constructor assertion or an unbounded allocation.
/// Largest `window(<entries>)`.
pub const MAX_WINDOW_ENTRIES: usize = 1024;
/// Largest `stride(<strides>)`.
pub const MAX_STRIDES: usize = 256;
/// Largest context `<table>` and `<shift>`.
pub const MAX_CONTEXT_ENTRIES: usize = 1024;
/// Largest `workzone(<zones>)`.
pub const MAX_ZONES: usize = 16;
/// Largest `fcm(<order> ..)`.
pub const MAX_FCM_ORDER: usize = 16;
/// Largest `fcm(.. 2^<table_bits>)`.
pub const MAX_FCM_TABLE_BITS: u32 = 16;
/// Largest `inversion(<chunks>ch ..)`.
pub const MAX_INVERSION_CHUNKS: u32 = 6;

/// One coding scheme as a typed value: a variant per
/// [`SCHEME_PATTERNS`] family.
///
/// `FromStr` parses the name grammar within each family's size bounds;
/// `Display` renders the canonical name and is its exact inverse.
/// Whether the scheme fits a bus is up to [`build`](Self::build).
/// Specs written in code must keep to the same bounds.
#[derive(Debug, Clone, PartialEq)]
pub enum SchemeSpec {
    /// The un-encoded bus.
    Identity,
    /// Inversion coder over `2^chunks` patterns (0 or 1 chunk is plain
    /// bus-invert) minimizing τ + λ·κ at a design-time λ (Figure 15).
    Inversion {
        /// Independently invertible fields.
        chunks: u32,
        /// Design-time λ of the minimized cost.
        lambda: f64,
    },
    /// Strided predictor bank with strides `1..=n`: `stride(<n>)`.
    Stride(usize),
    /// Window-based transcoder with `n` shift-register entries:
    /// `window(<n>)`.
    Window(usize),
    /// Value-based context transcoder.
    ContextValue {
        /// Frequency-table entries.
        table: usize,
        /// Staging shift-register entries.
        shift: usize,
        /// Counter-division period (0 disables).
        divide: u64,
    },
    /// Transition-based context transcoder.
    ContextTransition {
        /// Frequency-table entries.
        table: usize,
        /// Staging shift-register entries.
        shift: usize,
        /// Counter-division period (0 disables).
        divide: u64,
    },
    /// Working-zone encoding (the paper's reference \[15\]) with `n`
    /// zone registers: `workzone(<n>)`.
    WorkZone(usize),
    /// FCM + DFCM value prediction (the paper's reference \[19\]).
    Fcm {
        /// Context order.
        order: usize,
        /// log2 of the prediction-table size.
        table_bits: u32,
    },
    /// Tables trained offline, loaded by artifact name when built.
    Trained(String),
}

impl fmt::Display for SchemeSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemeSpec::Identity => write!(f, "identity"),
            SchemeSpec::Inversion { chunks, lambda } => {
                write!(f, "inversion({chunks}ch l{lambda})")
            }
            SchemeSpec::Stride(strides) => write!(f, "stride({strides})"),
            SchemeSpec::Window(entries) => write!(f, "window({entries})"),
            SchemeSpec::ContextValue {
                table,
                shift,
                divide,
            } => write!(f, "context-value({table}+{shift} d{divide})"),
            SchemeSpec::ContextTransition {
                table,
                shift,
                divide,
            } => write!(f, "context-transition({table}+{shift} d{divide})"),
            SchemeSpec::WorkZone(zones) => write!(f, "workzone({zones})"),
            SchemeSpec::Fcm { order, table_bits } => write!(f, "fcm({order} 2^{table_bits})"),
            SchemeSpec::Trained(artifact) => write!(f, "trained:{artifact}"),
        }
    }
}

impl FromStr for SchemeSpec {
    type Err = UnknownScheme;

    /// Parses a scheme name. Any `trained:` artifact name parses: it is
    /// validated when the artifact loads, so a bad one is an artifact
    /// error rather than an unknown scheme.
    fn from_str(name: &str) -> Result<Self, UnknownScheme> {
        if let Some(artifact) = name.strip_prefix("trained:") {
            return Ok(SchemeSpec::Trained(artifact.to_string()));
        }
        parse_family(name).ok_or_else(|| UnknownScheme::new(name))
    }
}

/// Parses a structure size in `1..=max`.
fn size<T: FromStr + PartialOrd + From<u8>>(text: &str, max: T) -> Option<T> {
    let n: T = text.parse().ok()?;
    (n >= T::from(1) && n <= max).then_some(n)
}

/// Parses every family but `trained:`: a family name, then its
/// arguments between parentheses.
fn parse_family(name: &str) -> Option<SchemeSpec> {
    let (family, args) = match name.split_once('(') {
        None => (name, ""),
        Some((family, rest)) => (family, rest.strip_suffix(')')?),
    };
    // `<table>+<shift> d<divide>`, shared by both context families.
    let context = || -> Option<(usize, usize, u64)> {
        let (sizes, divide) = args.split_once(' ')?;
        let (table, shift) = sizes.split_once('+')?;
        let divide = divide.strip_prefix('d')?.parse().ok()?;
        let table = size(table, MAX_CONTEXT_ENTRIES)?;
        Some((table, size(shift, MAX_CONTEXT_ENTRIES)?, divide))
    };
    Some(match family {
        "identity" if args.is_empty() => SchemeSpec::Identity,
        "inversion" => {
            let (chunks, lambda) = args.split_once(' ')?;
            let chunks: u32 = chunks.strip_suffix("ch")?.parse().ok()?;
            let lambda: f64 = lambda.strip_prefix('l')?.parse().ok()?;
            if chunks > MAX_INVERSION_CHUNKS || !lambda.is_finite() || lambda < 0.0 {
                return None;
            }
            SchemeSpec::Inversion { chunks, lambda }
        }
        "stride" => SchemeSpec::Stride(size(args, MAX_STRIDES)?),
        "window" => SchemeSpec::Window(size(args, MAX_WINDOW_ENTRIES)?),
        "context-value" => {
            let (table, shift, divide) = context()?;
            SchemeSpec::ContextValue {
                table,
                shift,
                divide,
            }
        }
        "context-transition" => {
            let (table, shift, divide) = context()?;
            SchemeSpec::ContextTransition {
                table,
                shift,
                divide,
            }
        }
        "workzone" => SchemeSpec::WorkZone(size(args, MAX_ZONES)?),
        "fcm" => {
            let (order, bits) = args.split_once(' ')?;
            SchemeSpec::Fcm {
                order: size(order, MAX_FCM_ORDER)?,
                table_bits: size(bits.strip_prefix("2^")?, MAX_FCM_TABLE_BITS)?,
            }
        }
        _ => return None,
    })
}

/// Whether a predictive engine offering up to `candidates` predictions
/// fits a `width` bus: its two control lines must fit the 64-line state
/// word beside the data lines, and the bus must have a distinct
/// codeword for every candidate plus the last-value code.
fn engine_fits(width: Width, candidates: usize) -> bool {
    width.bits() + 2 <= 64 && (candidates as u64) < 1u64 << width.bits()
}

/// Bundles a constructor's `(encoder, decoder)` pair under `name`.
fn pair(name: &str, (e, d): (impl Encoder + 'static, impl Decoder + 'static)) -> Transcoder {
    Transcoder::new(name, e, d)
}

impl SchemeSpec {
    /// Builds a fresh encoder/decoder pair for this scheme on a `width`
    /// bus, named by its canonical name. Every call yields an
    /// independent pair in its power-on state.
    ///
    /// # Errors
    ///
    /// [`UnknownScheme`] when the scheme does not fit a `width` bus, or
    /// when a `trained:` artifact cannot be loaded
    /// ([`UnknownScheme::artifact_error`] says why).
    pub fn build(&self, width: Width) -> Result<Transcoder, UnknownScheme> {
        self.build_named(&self.to_string(), width)
    }

    /// [`build`](Self::build), naming the pair (and any error) `name`.
    fn build_named(&self, name: &str, width: Width) -> Result<Transcoder, UnknownScheme> {
        let fits = |ok: bool| ok.then_some(()).ok_or_else(|| UnknownScheme::new(name));
        let bits = width.bits();
        Ok(match *self {
            SchemeSpec::Identity => {
                pair(name, (IdentityCodec::new(width), IdentityCodec::new(width)))
            }
            SchemeSpec::Inversion { chunks, lambda } => {
                fits(chunks <= bits && bits + chunks.max(1) <= 64)?;
                let patterns = match chunks {
                    0 | 1 => PatternSet::bus_invert(width),
                    _ => PatternSet::chunked(width, chunks),
                };
                let enc = InversionEncoder::new(patterns.clone(), CostModel::new(lambda));
                pair(name, (enc, InversionDecoder::new(patterns)))
            }
            SchemeSpec::Stride(strides) => {
                fits(engine_fits(width, strides))?;
                pair(name, stride_codec(StrideConfig::new(width, strides)))
            }
            SchemeSpec::Window(entries) => {
                fits(engine_fits(width, entries))?;
                pair(name, window_codec(WindowConfig::new(width, entries)))
            }
            SchemeSpec::ContextValue {
                table,
                shift,
                divide,
            } => {
                fits(engine_fits(width, table + shift))?;
                let cfg = ContextConfig::new(width, table, shift).with_divide_period(divide);
                pair(name, context_value_codec(cfg))
            }
            SchemeSpec::ContextTransition {
                table,
                shift,
                divide,
            } => {
                fits(engine_fits(width, table + shift))?;
                let cfg = ContextConfig::new(width, table, shift).with_divide_period(divide);
                pair(name, context_transition_codec(cfg))
            }
            SchemeSpec::WorkZone(zones) => {
                // One hit/miss line plus the zone-id lines beside the data.
                let id_lines = usize::BITS - (zones - 1).leading_zeros();
                fits(bits >= 6 && bits + 1 + id_lines <= 64)?;
                let enc = WorkZoneEncoder::new(width, zones);
                pair(name, (enc, WorkZoneDecoder::new(width, zones)))
            }
            SchemeSpec::Fcm { order, table_bits } => {
                fits(engine_fits(width, 2))?;
                pair(name, fcm_codec(FcmConfig::new(width, order, table_bits)))
            }
            SchemeSpec::Trained(ref artifact) => {
                let tables = load_trained(artifact, width).map_err(|err| UnknownScheme {
                    name: name.to_string(),
                    artifact: Some(err),
                })?;
                pair(name, trained_codec(Arc::new(tables), CostModel::default()))
            }
        })
    }
}

/// Loads the named artifact from the artifact directory and checks it
/// deploys on a `width` bus.
fn load_trained(artifact: &str, width: Width) -> Result<TrainedTables, ArtifactError> {
    let tables = load_named_artifact(&artifact_dir(), artifact)?;
    let trained_at = tables.width;
    if trained_at != width {
        return Err(ArtifactError::Malformed(format!(
            "artifact {artifact:?} was trained at {trained_at} but the bus is {width}"
        )));
    }
    // The signature prediction, the strides and the codebook are the
    // engine's candidates.
    if !engine_fits(width, 1 + tables.strides.len() + tables.codebook.len()) {
        return Err(ArtifactError::Malformed(format!(
            "artifact {artifact:?} has more predictions than a {width} bus has codewords"
        )));
    }
    Ok(tables)
}

/// Builds a fresh encoder/decoder pair for the scheme named `name` on
/// a `width` bus: [`SchemeSpec`] parsing, then [`SchemeSpec::build`].
/// The pair and any error carry `name` exactly as given, so front ends
/// echo the caller's string.
///
/// # Errors
///
/// [`UnknownScheme`] when the name matches no [`SCHEME_PATTERNS`]
/// entry, a parameter falls outside its family's bound, the scheme does
/// not fit a `width` bus, or a `trained:` artifact cannot be loaded.
pub fn scheme_by_name(name: &str, width: Width) -> Result<Transcoder, UnknownScheme> {
    name.parse::<SchemeSpec>()?.build_named(name, width)
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
            let spec: SchemeSpec = name.parse().unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(spec.to_string(), name);
            let mut pair = spec
                .build(Width::W32)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
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

        // So is an artifact offering more predictions than the bus has
        // codewords: every 8-bit value in the codebook, plus a stride.
        let w8 = Width::new(8).unwrap();
        let crowded = TrainedTables {
            name: "crowded".into(),
            width: w8,
            codebook: (0..=255).collect(),
            ..tables
        };
        save_artifact(&crowded, &dir).unwrap();
        let err = scheme_by_name("trained:crowded", w8).unwrap_err();
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
