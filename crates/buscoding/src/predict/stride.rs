//! The strided predictor of Figure 11.
//!
//! A shift register of previous bus values feeds a bank of stride
//! predictors: stride-`k` assumes the stream is arithmetic with period
//! `k` and predicts `v[t-k] + (v[t-k] - v[t-2k])`. Lower-order strides
//! are more often right, so they are ranked first and earn the cheaper
//! codes; the LAST-value predictor (rank 0) is supplied by the engine.

use bustrace::{Width, Word};

use crate::energy::CostModel;
use crate::predict::{
    predictive_codec, rank_among, History, PredictiveDecoder, PredictiveEncoder, Predictor,
};

/// Configuration of a strided transcoder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StrideConfig {
    /// Bus width.
    pub width: Width,
    /// Number of stride predictors (stride 1 through `strides`).
    pub strides: usize,
    /// Cost model for codebook ordering and miss decisions.
    pub cost: CostModel,
}

impl StrideConfig {
    /// Creates a configuration with the default λ = 1 cost model.
    ///
    /// # Panics
    ///
    /// Panics if `strides` is zero.
    pub fn new(width: Width, strides: usize) -> Self {
        assert!(strides >= 1, "at least one stride predictor is required");
        StrideConfig {
            width,
            strides,
            cost: CostModel::default(),
        }
    }

    /// Replaces the cost model.
    #[must_use]
    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }
}

/// The bank of stride predictors over a history shift register.
#[derive(Debug, Clone)]
pub struct StridePredictor {
    width: Width,
    strides: usize,
    /// The last `2 * strides` values, oldest first.
    history: History,
}

impl StridePredictor {
    /// Creates a predictor bank with strides `1..=strides`.
    ///
    /// # Panics
    ///
    /// Panics if `strides` is zero.
    pub fn new(width: Width, strides: usize) -> Self {
        assert!(strides >= 1, "at least one stride predictor is required");
        StridePredictor {
            width,
            strides,
            history: History::new(2 * strides),
        }
    }

    /// Number of stride predictors in the bank.
    pub fn strides(&self) -> usize {
        self.strides
    }

    /// The candidate list: stride `k` predicts `v[t-k] + (v[t-k] -
    /// v[t-2k])`, best (lowest `k`) first, each computed once.
    ///
    /// Ranks must stay dense: while history is too short for stride `k`,
    /// it offers the most recent value instead of truncating the list.
    /// That placeholder is harmless — the engine skips candidates equal
    /// to LAST.
    fn predictions(&self) -> impl Iterator<Item = Word> + '_ {
        let history = self.history.recent();
        let n = history.len();
        (1..=self.strides).map_while(move |k| {
            if n >= 2 * k {
                let recent = history[n - k];
                let older = history[n - 2 * k];
                Some(
                    self.width
                        .truncate(recent.wrapping_add(recent.wrapping_sub(older))),
                )
            } else {
                history.last().copied()
            }
        })
    }
}

impl Predictor for StridePredictor {
    fn name(&self) -> String {
        format!("stride({})", self.strides)
    }

    fn max_candidates(&self) -> usize {
        self.strides
    }

    fn candidate(&self, index: usize) -> Option<Word> {
        self.predictions().nth(index)
    }

    fn observe(&mut self, value: Word) {
        self.history.push(value);
    }

    /// Walks the bank once, then shifts the value into the history.
    #[inline]
    fn step(&mut self, value: Word, last: Option<Word>, cap: usize) -> Option<usize> {
        let rank = rank_among(self.predictions(), value, last, cap);
        self.history.push(value);
        rank
    }

    fn reset(&mut self) {
        self.history.clear();
    }
}

/// Builds a matched encoder/decoder pair for the strided scheme.
pub fn stride_codec(
    config: StrideConfig,
) -> (
    PredictiveEncoder<StridePredictor>,
    PredictiveDecoder<StridePredictor>,
) {
    predictive_codec(
        config.width,
        StridePredictor::new(config.width, config.strides),
        config.cost,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{evaluate_blocks, verify_roundtrip};
    use crate::identity::IdentityCodec;
    use crate::metrics::percent_energy_removed;
    use bustrace::Trace;

    #[test]
    fn stride_one_tracks_arithmetic_sequences() {
        let mut p = StridePredictor::new(Width::W32, 1);
        for v in [10u64, 13, 16] {
            p.observe(v);
        }
        assert_eq!(p.candidate(0), Some(19));
        assert_eq!(p.candidate(1), None);
    }

    #[test]
    fn stride_two_tracks_interleaved_sequences() {
        let mut p = StridePredictor::new(Width::W32, 2);
        for v in [100u64, 7, 110, 7] {
            p.observe(v);
        }
        // Stride-2 sees 100,110 -> predicts 120 for the next slot.
        assert_eq!(p.candidate(1), Some(120));
        p.observe(120);
        // Now the stride-2 stream at the next slot is the constant 7s.
        assert_eq!(p.candidate(1), Some(7));
    }

    #[test]
    fn prediction_wraps_at_width() {
        let w = Width::new(8).unwrap();
        let mut p = StridePredictor::new(w, 1);
        p.observe(200);
        p.observe(240);
        assert_eq!(p.candidate(0), Some((240u64 + 40) & 0xFF));
    }

    #[test]
    fn cold_predictor_falls_back_gracefully() {
        let p = StridePredictor::new(Width::W32, 4);
        for i in 0..4 {
            assert_eq!(p.candidate(i), None, "no history at all yet");
        }
    }

    #[test]
    fn round_trips_on_mixed_traffic() {
        let (mut enc, mut dec) = stride_codec(StrideConfig::new(Width::W32, 8));
        let mut trace = Trace::new(Width::W32);
        let mut x = 1u64;
        for i in 0..5000u64 {
            match i % 4 {
                0 => trace.push(0x4000 + i * 4),
                1 => trace.push(0x9000_0000 + i),
                2 => trace.push(7),
                _ => {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(3);
                    trace.push(x >> 17);
                }
            }
        }
        verify_roundtrip(&mut enc, &mut dec, &trace).unwrap();
    }

    #[test]
    fn removes_energy_on_strided_traffic() {
        let trace = Trace::from_values(Width::W32, (0..20_000u64).map(|i| 0x1000 + 4 * i));
        let (mut enc, _) = stride_codec(StrideConfig::new(Width::W32, 4));
        let coded = evaluate_blocks(&mut enc, &trace);
        let baseline = evaluate_blocks(&mut IdentityCodec::new(Width::W32), &trace);
        // Every hit still costs one code toggle per word, while a bare
        // +4 counter only toggles ~2 wires per word — so even perfect
        // prediction cannot approach 100% here (this is why the paper's
        // stride predictors top out at 10-35% removed).
        let removed = percent_energy_removed(&coded, &baseline, 1.0);
        assert!(removed > 40.0, "removed only {removed:.1}%");
    }

    #[test]
    fn hurts_on_random_traffic() {
        // Figure 16's "random" line sits at or below zero: the control
        // lines and occasional spurious hits add energy.
        let mut x = 42u64;
        let mut trace = Trace::new(Width::W32);
        for _ in 0..20_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(9);
            trace.push(x >> 16);
        }
        let (mut enc, _) = stride_codec(StrideConfig::new(Width::W32, 16));
        let coded = evaluate_blocks(&mut enc, &trace);
        let baseline = evaluate_blocks(&mut IdentityCodec::new(Width::W32), &trace);
        // Near zero either way: spurious hits and control-line traffic
        // roughly cancel the inverted-miss savings (Figure 16's random
        // line hugs the axis).
        let removed = percent_energy_removed(&coded, &baseline, 1.0);
        assert!(
            removed.abs() < 10.0,
            "random traffic should see little change, got {removed:.1}%"
        );
    }

    #[test]
    fn more_strides_never_hurt_interleaved_traffic() {
        let params = [(0u64, 4u64), (100_000, 12), (3_000, 7), (77_777, 9)];
        let mut trace = Trace::new(Width::W32);
        let mut counters = [0u64; 4];
        for i in 0..40_000usize {
            let s = i % 4;
            let (start, stride) = params[s];
            trace.push(start + counters[s] * stride);
            counters[s] += 1;
        }
        let baseline = evaluate_blocks(&mut IdentityCodec::new(Width::W32), &trace);
        let removed: Vec<f64> = [1usize, 2, 4, 8]
            .iter()
            .map(|&s| {
                let (mut enc, _) = stride_codec(StrideConfig::new(Width::W32, s));
                percent_energy_removed(&evaluate_blocks(&mut enc, &trace), &baseline, 1.0)
            })
            .collect();
        // Interleave of 4 streams: big jump once stride-4 is available.
        assert!(removed[2] > removed[1] + 20.0, "{removed:?}");
        assert!(removed[3] >= removed[2] - 1.0, "{removed:?}");
    }

    #[test]
    fn config_builder() {
        let cfg = StrideConfig::new(Width::W32, 3).with_cost(CostModel::coupling_blind());
        assert_eq!(cfg.cost.lambda(), 0.0);
        assert_eq!(cfg.strides, 3);
    }
}
