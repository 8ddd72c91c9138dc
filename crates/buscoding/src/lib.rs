//! Bus transcoding for low power (paper Sections 1, 4 and 5.2–5.3).
//!
//! The central idea of the paper — *bus transcoding* (Figure 1) — is to
//! place a synchronous encoder/decoder pair at the two ends of a long
//! on-chip bus and transform the transmitted words so that fewer wires
//! change state. This crate implements:
//!
//! * **Activity accounting** ([`energy`]): per Equations 1–3, the
//!   self-transition count τ and the inter-wire coupling count κ of a bus
//!   state sequence, combined as `E ∝ L·(τ + λ·κ)`.
//! * **Cost-ordered codebooks** ([`CodeBook`]): the mapping from
//!   prediction-confidence rank to low-energy codewords (Figure 2) —
//!   all-zero first, then the weight-one vectors, then heavier vectors
//!   ordered to minimize cross-coupling.
//! * **Coding schemes** (Section 4.3): the uncoded baseline
//!   ([`IdentityCodec`]), the [`spatial`] one-hot coder, the generalized
//!   [`inversion`] coder with λ-aware pattern selection, and the
//!   prediction-based transcoders ([`predict`]): strided, window-based,
//!   and context-based (value and transition flavors), all sharing one
//!   [`predict::PredictiveEncoder`] engine with LAST-value prediction
//!   built in.
//!
//! Every scheme is implemented as a *pair* of FSMs ([`Encoder`] and
//! [`Decoder`]) that stay synchronized through the bus traffic itself, so
//! lossless round-trip decoding is tested — not assumed.
//!
//! # Example
//!
//! ```
//! use bustrace::{Trace, Width};
//! use buscoding::{evaluate_blocks, CostModel, IdentityCodec};
//! use buscoding::predict::{window_codec, WindowConfig};
//!
//! // A loop over seven 32-bit constants, as a register bus might see.
//! let values = [0xDEAD_BEEFu64, 0x1234_5678, 0xCAFE_F00D, 0x0BAD_F00D,
//!               0xFEED_FACE, 0x8BAD_BEEF, 0xABAD_CAFE];
//! let trace = Trace::from_values(Width::W32, (0..1000).map(|i| values[i % 7]));
//! let cost = CostModel::new(1.0);
//!
//! let baseline = evaluate_blocks(&mut IdentityCodec::new(Width::W32), &trace);
//! let (mut enc, _dec) = window_codec(WindowConfig::new(Width::W32, 8));
//! let coded = evaluate_blocks(&mut enc, &trace);
//! // Seven recurring values fit an 8-entry window: big energy savings.
//! assert!(coded.weighted(cost.lambda()) < 0.3 * baseline.weighted(cost.lambda()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod energy;
pub mod inversion;
pub mod predict;
pub mod robust;
pub mod spatial;
pub mod varlen;
pub mod wireorder;
pub mod workzone;

pub mod registry;

mod codebook;
mod codec;
mod identity;
mod metrics;

pub use codebook::CodeBook;
pub use codec::{
    evaluate_blocks, verify_roundtrip, Decoder, Encoder, RoundTripError, Transcoder, BLOCK_WORDS,
};
pub use energy::{Activity, CostModel, WireActivity};
pub use identity::IdentityCodec;
pub use metrics::{normalized_energy_remaining, percent_energy_removed, SchemeReport};
pub use registry::{scheme_by_name, scheme_candidates, SchemeSpec, UnknownScheme, SCHEME_PATTERNS};
