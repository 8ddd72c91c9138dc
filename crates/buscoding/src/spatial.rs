//! The spatial (one-hot) coder of Figure 9.
//!
//! A stateless demultiplexer: a bus of `2^W` wires carries the one-hot
//! encoding of each `W`-bit word, so any value change toggles exactly two
//! wires regardless of the values involved, and repeats toggle none.
//! Communication energy is extremely low — at an exponential, impractical
//! area cost, which is why the paper uses it only as a conceptual bound.
//!
//! Physical one-hot buses wider than 64 lines do not fit the `u64`
//! state representation the [`Encoder`] interface uses,
//! so the codec form ([`SpatialCodec`]) is limited to `W ≤ 6`. The
//! activity of arbitrary-width spatial coding is a closed-form function
//! of the value stream, provided by [`spatial_activity`] and validated
//! against the simulated codec at small widths.

use bustrace::{Trace, Width, Word};

use crate::codec::{Decoder, Encoder, RoundTripError};

/// Switching activity of a spatially coded trace, counted analytically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpatialActivity {
    /// Total self-transitions on the one-hot bus.
    pub tau: u64,
    /// Total coupling events between adjacent one-hot wires.
    pub kappa: u64,
}

impl SpatialActivity {
    /// The λ-weighted activity `τ + λ·κ`.
    pub fn weighted(&self, lambda: f64) -> f64 {
        self.tau as f64 + lambda * self.kappa as f64
    }
}

/// Computes the exact activity of a one-hot bus carrying `trace`,
/// for any trace width (the one-hot bus has `2^W` wires; wire `v` is
/// high while value `v` is on the bus). The bus starts with the first
/// value's wire already high (power-on establishment is not charged).
///
/// # Example
///
/// ```
/// use bustrace::{Trace, Width};
/// use buscoding::spatial::spatial_activity;
///
/// let t = Trace::from_values(Width::W32, [7u64, 7, 9, 7]);
/// let a = spatial_activity(&t);
/// // Two value changes, two wire toggles each.
/// assert_eq!(a.tau, 4);
/// ```
pub fn spatial_activity(trace: &Trace) -> SpatialActivity {
    let n_lines: u128 = match trace.width().value_count() {
        Some(n) => u128::from(n),
        None => 1u128 << 64,
    };
    let mut out = SpatialActivity::default();
    let v = trace.values();
    for t in 1..v.len() {
        let (a, b) = (v[t - 1], v[t]);
        if a == b {
            continue;
        }
        out.tau += 2;
        out.kappa += spatial_kappa(a, b, n_lines);
    }
    out
}

/// Coupling events when the one-hot moves from wire `a` to wire `b`.
///
/// The transition vector has bits `a` and `b` set; the adjacent-XOR
/// vector of that (Equation 3) has bits at `a-1`, `a`, `b-1`, `b`,
/// except that when the wires are adjacent the shared pair cancels.
/// Positions are clipped to the valid pair range `0..=n_lines-2`.
fn spatial_kappa(a: u64, b: u64, n_lines: u128) -> u64 {
    let in_range = |pos: i128| -> u64 { u64::from(pos >= 0 && pos <= (n_lines as i128) - 2) };
    let (a, b) = (i128::from(a), i128::from(b));
    if (a - b).abs() == 1 {
        let lo = a.min(b);
        // Pairs (lo-1, lo) and (lo+1, lo+2) change; pair (lo, lo+1) keeps
        // XOR = 1 because the one-hot moves within it.
        in_range(lo - 1) + in_range(lo + 1)
    } else {
        in_range(a - 1) + in_range(a) + in_range(b - 1) + in_range(b)
    }
}

/// The one-hot codec for small widths (`W ≤ 6`, so the `2^W` wires fit
/// the 64-line state word). Stateless like
/// [`IdentityCodec`](crate::IdentityCodec), it implements both
/// directions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpatialCodec {
    width: Width,
}

impl SpatialCodec {
    /// Creates a one-hot codec.
    ///
    /// # Panics
    ///
    /// Panics if the width exceeds 6 bits (64 one-hot wires).
    pub fn new(width: Width) -> Self {
        assert!(
            width.bits() <= 6,
            "spatial coding of a {width} bus needs 2^{} wires; the codec form supports W <= 6 \
             (use spatial_activity for wider buses)",
            width.bits()
        );
        SpatialCodec { width }
    }

    /// The input word width.
    pub fn width(&self) -> Width {
        self.width
    }
}

impl Encoder for SpatialCodec {
    fn lines(&self) -> u32 {
        1 << self.width.bits()
    }

    fn encode(&mut self, value: Word) -> u64 {
        1u64 << self.width.truncate(value)
    }

    fn encode_block(&mut self, words: &[Word], out: &mut Vec<u64>) {
        let mask = self.width.mask();
        out.extend(words.iter().map(|&value| 1u64 << (value & mask)));
    }

    fn reset(&mut self) {}
}

impl Decoder for SpatialCodec {
    fn lines(&self) -> u32 {
        1 << self.width.bits()
    }

    fn decode(&mut self, bus_state: u64) -> Result<Word, RoundTripError> {
        if bus_state.count_ones() != 1 {
            return Err(RoundTripError::new(format!(
                "one-hot bus must have exactly one line high, saw {bus_state:#x}"
            )));
        }
        Ok(u64::from(bus_state.trailing_zeros()))
    }

    fn reset(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{evaluate_blocks, verify_roundtrip};
    use crate::energy::Activity;

    #[test]
    fn codec_round_trips() {
        let w = Width::new(5).unwrap();
        let trace = Trace::from_values(w, (0..200u64).map(|i| (i * 7) % 32));
        let mut enc = SpatialCodec::new(w);
        let mut dec = SpatialCodec::new(w);
        verify_roundtrip(&mut enc, &mut dec, &trace).unwrap();
    }

    #[test]
    fn decode_rejects_non_onehot() {
        let mut dec = SpatialCodec::new(Width::new(4).unwrap());
        assert!(dec.decode(0b0011).is_err());
        assert!(dec.decode(0).is_err());
    }

    #[test]
    #[should_panic(expected = "W <= 6")]
    fn codec_rejects_wide_bus() {
        let _ = SpatialCodec::new(Width::W32);
    }

    #[test]
    fn analytic_matches_simulated_codec() {
        // Exhaustive-ish cross-check at widths 2..=6 with pseudo-random
        // traffic: the closed form must equal bit-level accounting.
        for bits in 2..=6u32 {
            let w = Width::new(bits).unwrap();
            let mut x = 0x243F_6A88_85A3_08D3u64;
            let mut trace = Trace::new(w);
            for _ in 0..1000 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                trace.push(x >> 32);
            }
            let analytic = spatial_activity(&trace);

            let mut enc = SpatialCodec::new(w);
            Encoder::reset(&mut enc);
            let mut sim = Activity::new(1 << bits);
            // Establish the first value's wire without charging it,
            // matching the analytic convention.
            let values = trace.values();
            sim.step(enc.encode(values[0]));
            for &v in &values[1..] {
                sim.step(enc.encode(v));
            }
            assert_eq!(analytic.tau, sim.tau(), "tau mismatch at width {bits}");
            assert_eq!(
                analytic.kappa,
                sim.kappa(),
                "kappa mismatch at width {bits}"
            );
        }
    }

    #[test]
    fn adjacent_value_change_couples_less() {
        let w = Width::new(4).unwrap();
        let adjacent = Trace::from_values(w, [5u64, 6]);
        let distant = Trace::from_values(w, [5u64, 9]);
        let a = spatial_activity(&adjacent);
        let d = spatial_activity(&distant);
        assert_eq!(a.tau, d.tau);
        assert!(a.kappa < d.kappa);
    }

    #[test]
    fn repeats_are_free() {
        let t = Trace::from_values(Width::W32, [3u64; 50]);
        let a = spatial_activity(&t);
        assert_eq!(a.tau, 0);
        assert_eq!(a.kappa, 0);
        assert_eq!(a.weighted(14.0), 0.0);
    }

    #[test]
    fn spatial_beats_identity_on_random_traffic() {
        use crate::identity::IdentityCodec;
        let w = Width::new(6).unwrap();
        let mut x = 99u64;
        let mut trace = Trace::new(w);
        for _ in 0..2000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            trace.push(x >> 40);
        }
        let spatial = spatial_activity(&trace);
        let baseline = evaluate_blocks(&mut IdentityCodec::new(w), &trace);
        // In raw transitions the one-hot bus wins (2 per change vs ~W/2);
        // at 6 bits the margin is small, so compare τ only.
        assert!(spatial.weighted(0.0) < baseline.weighted(0.0));
    }

    #[test]
    fn full_width_trace_is_supported_analytically() {
        let w = Width::new(64).unwrap();
        let t = Trace::from_values(w, [0u64, u64::MAX, 0]);
        let a = spatial_activity(&t);
        assert_eq!(a.tau, 4);
        // Wire 0 and wire 2^64-1 are both edges: each toggle couples once.
        assert_eq!(a.kappa, 4);
    }
}
