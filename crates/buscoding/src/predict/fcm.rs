//! Finite-context-method value prediction (Sazeides & Smith, the
//! paper's reference [19]), plugged into the transcoding engine.
//!
//! Two predictors share one hashed history:
//!
//! * **FCM** — `table[hash(last k values)] = next value`: learns exact
//!   recurring sequences;
//! * **DFCM** (differential FCM) — the same, over value *deltas*:
//!   `next = last + delta_table[hash(last k deltas)]`: learns recurring
//!   *stride patterns* even when absolute values never repeat.
//!
//! The engine offers FCM's prediction at rank 1 and DFCM's at rank 2
//! (after the implicit LAST value at rank 0). This is the "complex
//! combination of multiple prediction strategies" Figure 2 of the paper
//! anticipates feeding the transcoder.

use bustrace::{Width, Word};

use crate::energy::CostModel;
use crate::predict::{
    predictive_codec, rank_among, History, PredictiveDecoder, PredictiveEncoder, Predictor,
};

/// Configuration of the FCM/DFCM transcoder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FcmConfig {
    /// Bus width.
    pub width: Width,
    /// Context order: how many previous values/deltas form the hash.
    pub order: usize,
    /// log2 of the prediction-table size.
    pub table_bits: u32,
    /// Cost model for codebook ordering and miss decisions.
    pub cost: CostModel,
}

impl FcmConfig {
    /// Creates a configuration with the default λ = 1 cost model.
    ///
    /// # Panics
    ///
    /// Panics if `order` is zero or `table_bits` is outside `1..=24`.
    pub fn new(width: Width, order: usize, table_bits: u32) -> Self {
        assert!(order >= 1, "context order must be at least 1");
        assert!(
            (1..=24).contains(&table_bits),
            "table_bits must be in 1..=24"
        );
        FcmConfig {
            width,
            order,
            table_bits,
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

/// The combined FCM + DFCM predictor.
#[derive(Debug, Clone)]
pub struct FcmPredictor {
    width: Width,
    order: usize,
    mask: usize,
    /// Last `order` values, oldest first.
    history: History,
    /// Last `order` deltas, oldest first.
    deltas: History,
    /// FCM table: hash of value history -> predicted next value.
    value_table: Vec<Option<Word>>,
    /// DFCM table: hash of delta history -> predicted next delta.
    delta_table: Vec<Option<Word>>,
}

/// The table slots the current contexts hash to (`None` until a context
/// holds `order` words). Both the lookup and the training write of one
/// word use the same slots, so each context is hashed once per word.
#[derive(Debug, Clone, Copy)]
struct Contexts {
    value: Option<usize>,
    delta: Option<usize>,
}

impl FcmPredictor {
    /// Creates an empty predictor.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`FcmConfig::new`].
    pub fn new(cfg: &FcmConfig) -> Self {
        assert!(cfg.order >= 1, "context order must be at least 1");
        assert!(
            (1..=24).contains(&cfg.table_bits),
            "table_bits must be in 1..=24"
        );
        let size = 1usize << cfg.table_bits;
        FcmPredictor {
            width: cfg.width,
            order: cfg.order,
            mask: size - 1,
            history: History::new(cfg.order),
            deltas: History::new(cfg.order),
            value_table: vec![None; size],
            delta_table: vec![None; size],
        }
    }

    /// Order-preserving hash of a word sequence into the table index
    /// space (Fowler–Noll–Vo over the bytes that matter).
    fn hash(&self, items: &[Word]) -> usize {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &v in items {
            h ^= v;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        ((h >> 24) as usize) & self.mask
    }

    fn contexts(&self) -> Contexts {
        let slot = |context: &History| {
            let words = context.recent();
            (words.len() >= self.order).then(|| self.hash(words))
        };
        Contexts {
            value: slot(&self.history),
            delta: slot(&self.deltas),
        }
    }

    /// The candidate list for the given contexts: FCM's prediction (or
    /// DFCM's when FCM has none), then DFCM's.
    fn predictions(&self, at: Contexts) -> impl Iterator<Item = Word> {
        let fcm = at.value.and_then(|h| self.value_table[h]);
        let dfcm = at.delta.and_then(|h| {
            let delta = self.delta_table[h]?;
            let last = *self.history.recent().last()?;
            Some(self.width.truncate(last.wrapping_add(delta)))
        });
        [fcm.or(dfcm), dfcm].into_iter().map_while(|c| c)
    }

    /// Trains both tables on the contexts that *preceded* `value`, then
    /// shifts it (and its delta) into the histories.
    fn train(&mut self, at: Contexts, value: Word) {
        if let Some(h) = at.value {
            self.value_table[h] = Some(value);
        }
        if let Some(&last) = self.history.recent().last() {
            let delta = self.width.truncate(value.wrapping_sub(last));
            if let Some(h) = at.delta {
                self.delta_table[h] = Some(delta);
            }
            self.deltas.push(delta);
        }
        self.history.push(value);
    }
}

impl Predictor for FcmPredictor {
    fn name(&self) -> String {
        format!(
            "fcm({}, 2^{})",
            self.order,
            (self.mask + 1).trailing_zeros()
        )
    }

    fn max_candidates(&self) -> usize {
        2
    }

    fn candidate(&self, index: usize) -> Option<Word> {
        self.predictions(self.contexts()).nth(index)
    }

    fn observe(&mut self, value: Word) {
        self.train(self.contexts(), value);
    }

    #[inline]
    fn step(&mut self, value: Word, last: Option<Word>, cap: usize) -> Option<usize> {
        let at = self.contexts();
        let rank = rank_among(self.predictions(at), value, last, cap);
        self.train(at, value);
        rank
    }

    fn reset(&mut self) {
        self.history.clear();
        self.deltas.clear();
        self.value_table.fill(None);
        self.delta_table.fill(None);
    }
}

/// Builds a matched encoder/decoder pair for the FCM/DFCM scheme.
pub fn fcm_codec(
    config: FcmConfig,
) -> (
    PredictiveEncoder<FcmPredictor>,
    PredictiveDecoder<FcmPredictor>,
) {
    predictive_codec(config.width, FcmPredictor::new(&config), config.cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{evaluate_blocks, verify_roundtrip};
    use crate::identity::IdentityCodec;
    use crate::metrics::percent_energy_removed;
    use bustrace::Trace;

    fn cfg() -> FcmConfig {
        FcmConfig::new(Width::W32, 2, 12)
    }

    #[test]
    fn fcm_learns_repeating_sequences() {
        let mut p = FcmPredictor::new(&cfg());
        // Teach the cycle A B C A B C ...
        let seq = [0xAAAA_0001u64, 0xBBBB_0002, 0xCCCC_0003];
        for _ in 0..10 {
            for &v in &seq {
                p.observe(v);
            }
        }
        // After ...B C the next is A.
        assert_eq!(p.candidate(0), Some(seq[0]));
    }

    #[test]
    fn dfcm_learns_stride_patterns_on_fresh_values() {
        let mut p = FcmPredictor::new(&cfg());
        // Strictly increasing by 12: absolute values never repeat, so
        // plain FCM can't learn, but DFCM nails the delta pattern.
        for i in 0..100u64 {
            p.observe(0x9000_0000 + 12 * i);
        }
        assert_eq!(p.candidate(1), Some(0x9000_0000 + 12 * 100));
    }

    #[test]
    fn cold_predictor_offers_nothing() {
        let p = FcmPredictor::new(&cfg());
        assert_eq!(p.candidate(0), None);
        assert_eq!(p.candidate(1), None);
        assert_eq!(p.candidate(2), None);
    }

    #[test]
    fn round_trips_on_mixed_traffic() {
        let (mut enc, mut dec) = fcm_codec(cfg());
        let mut trace = Trace::new(Width::W32);
        let mut x = 3u64;
        for i in 0..8_000u64 {
            match i % 3 {
                0 => trace.push(0x100 + (i / 3) % 7),
                1 => trace.push(0x8000_0000 + 4 * i),
                _ => {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(5);
                    trace.push(x >> 23);
                }
            }
        }
        verify_roundtrip(&mut enc, &mut dec, &trace).unwrap();
    }

    #[test]
    fn removes_energy_on_periodic_traffic() {
        // A period-7 sequence of wide values: LAST never hits, window
        // would need 7 entries, FCM learns it outright.
        let seq: Vec<u64> = (0..7).map(|i| 0x1357_9BDFu64.wrapping_mul(i + 1)).collect();
        let trace = Trace::from_values(Width::W32, (0..30_000).map(|i| seq[i % 7]));
        let (mut enc, _) = fcm_codec(cfg());
        let coded = evaluate_blocks(&mut enc, &trace);
        let baseline = evaluate_blocks(&mut IdentityCodec::new(Width::W32), &trace);
        let removed = percent_energy_removed(&coded, &baseline, 1.0);
        assert!(removed > 80.0, "removed only {removed:.1}%");
    }

    #[test]
    #[should_panic(expected = "table_bits")]
    fn rejects_huge_tables() {
        let _ = FcmConfig::new(Width::W32, 2, 30);
    }
}
