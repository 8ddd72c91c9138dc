//! Prediction-based transcoding (Figure 2 and Sections 4.3, 5.3).
//!
//! All of the paper's stateful schemes — strided, window-based, and
//! context-based — share one architecture:
//!
//! 1. identical [`Predictor`] FSMs run at both ends of the bus, fed only
//!    by the (decoded) value stream, so they stay synchronized for free;
//! 2. each cycle the predictor offers a confidence-ranked candidate
//!    list; the LAST value is always implicit candidate 0 and earns the
//!    free all-zero code;
//! 3. on a hit, the encoder XORs the rank's codeword (from a
//!    cost-ordered [`CodeBook`]) into the
//!    transition-coded data lines — the top prediction costs *nothing*;
//! 4. on a miss, the raw word (or its complement, whichever moves the
//!    bus more cheaply) is driven absolutely;
//! 5. two control lines tell the decoder which of the three cases
//!    happened.
//!
//! The engine here ([`PredictiveEncoder`] / [`PredictiveDecoder`])
//! implements 2–5 once; the concrete predictors plug in.

mod context;
mod fcm;
mod stride;
pub mod trained;
mod window;

pub use context::{
    context_transition_codec, context_value_codec, ContextConfig, TransitionContextPredictor,
    ValueContextPredictor,
};
pub use fcm::{fcm_codec, FcmConfig, FcmPredictor};
pub use stride::{stride_codec, StrideConfig, StridePredictor};
pub use trained::{trained_codec, ArtifactError, SignatureTable, TrainedPredictor, TrainedTables};
pub use window::{window_codec, WindowConfig, WindowPredictor};

use bustrace::{Width, Word};

use crate::codebook::CodeBook;
use crate::codec::{Decoder, Encoder, RoundTripError};
use crate::energy::CostModel;

/// Control-line state: the bus carries a prediction codeword
/// (transition-coded on the data lines).
const CTRL_PRED: u64 = 0b00;
/// Control-line state: the data lines carry the raw word.
const CTRL_RAW: u64 = 0b01;
/// Control-line state: the data lines carry the complemented word.
const CTRL_INV: u64 = 0b10;

/// A value predictor usable on both ends of a bus.
///
/// Implementations must be *deterministic functions of the observed
/// value stream*: the encoder and decoder each run their own instance,
/// and synchronization rests entirely on both instances seeing the same
/// `observe` calls.
///
/// Candidates are ranked by confidence (best first). Duplicate values in
/// the candidate list are permitted (the strided predictor produces them
/// naturally); first-match semantics keep the two ends consistent. The
/// engine separately maintains the LAST value as implicit rank 0, and
/// skips candidates equal to it.
pub trait Predictor: std::fmt::Debug {
    /// A short human-readable identifier, e.g. `"window(8)"`.
    fn name(&self) -> String;

    /// The most candidates [`candidate`](Self::candidate) can ever
    /// return; fixes the codebook size.
    fn max_candidates(&self) -> usize;

    /// The `index`-th ranked candidate, or `None` past the current end
    /// of the list.
    fn candidate(&self, index: usize) -> Option<Word>;

    /// The rank of `value` as the engine counts ranks: candidates equal
    /// to `last` are skipped without consuming a rank, the first other
    /// candidate is rank 1, and ranks at or beyond `cap` do not count.
    ///
    /// The default walks [`candidate`](Self::candidate) one index at a
    /// time. Predictors whose candidate list lives in a directly
    /// scannable store override this with an equivalent flat scan — the
    /// rank walk is the single hottest loop in a sweep, and the
    /// override removes a dynamic call plus re-derived bounds checks
    /// per candidate. Overrides MUST return exactly what the default
    /// returns (the `block_equivalence` property tests and the
    /// byte-identity CI smoke pin this).
    fn rank_of(&self, value: Word, last: Option<Word>, cap: usize) -> Option<usize> {
        let mut rank = 1usize;
        let mut index = 0usize;
        while rank < cap {
            let c = self.candidate(index)?;
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

    /// Feeds the confirmed bus word into the predictor's state.
    fn observe(&mut self, value: Word);

    /// Restores the power-on state.
    fn reset(&mut self);
}

/// State shared verbatim between the encoder and decoder halves.
#[derive(Debug, Clone)]
struct EngineState<P> {
    width: Width,
    predictor: P,
    book: CodeBook,
    data: u64,
    control: u64,
    last: Option<Word>,
}

impl<P: Predictor> EngineState<P> {
    fn new(width: Width, predictor: P, cost: CostModel) -> Self {
        let lines = width.bits() + 2;
        assert!(
            lines <= 64,
            "{lines} bus lines exceed the 64-line state word"
        );
        // Rank 0 is the LAST value; the predictor's candidates get the
        // following ranks. The codebook cannot exceed the number of
        // distinct data-line vectors.
        let mut entries = 1 + predictor.max_candidates();
        if let Some(max) = width.value_count() {
            assert!(
                entries as u64 <= max,
                "predictor offers more candidates than a {width} bus has codewords"
            );
            let _ = max;
        }
        entries = entries.max(1);
        let book = CodeBook::new(width.bits(), entries, cost);
        EngineState {
            width,
            predictor,
            book,
            data: 0,
            control: CTRL_PRED,
            last: None,
        }
    }

    fn lines(&self) -> u32 {
        self.width.bits() + 2
    }

    fn assemble(&self) -> u64 {
        self.data | (self.control << self.width.bits())
    }

    fn reset(&mut self) {
        self.predictor.reset();
        self.data = 0;
        self.control = CTRL_PRED;
        self.last = None;
    }

    /// Finds the rank of `value`: 0 for the LAST value, otherwise
    /// 1 + its first position among predictor candidates not equal to
    /// LAST. Ranks at or beyond the codebook size do not count as hits.
    fn rank_of_value(&self, value: Word) -> Option<usize> {
        if self.last == Some(value) {
            return Some(0);
        }
        self.predictor.rank_of(value, self.last, self.book.len())
    }

    /// The value at `rank` (inverse of [`rank_of_value`]); `None` if the
    /// rank is not currently populated.
    fn value_at_rank(&self, rank: usize) -> Option<Word> {
        if rank == 0 {
            return self.last;
        }
        let mut r = 1usize;
        let mut index = 0usize;
        loop {
            let c = self.predictor.candidate(index)?;
            index += 1;
            if Some(c) == self.last {
                continue;
            }
            if r == rank {
                return Some(c);
            }
            r += 1;
        }
    }

    fn advance(&mut self, value: Word) {
        self.predictor.observe(value);
        self.last = Some(value);
    }
}

/// The sending half of a prediction-based transcoder.
///
/// Construct pairs with the scheme helpers ([`window_codec`],
/// [`stride_codec`], [`context_value_codec`],
/// [`context_transition_codec`]) or directly via [`PredictiveEncoder::new`]
/// with any custom [`Predictor`].
#[derive(Debug, Clone)]
pub struct PredictiveEncoder<P> {
    state: EngineState<P>,
    cost: CostModel,
    miss_policy: MissPolicy,
    last_outcome: Option<EncodeOutcome>,
}

impl<P: Predictor> PredictiveEncoder<P> {
    /// Creates an encoder around a predictor. `cost` orders the codebook
    /// and settles raw-vs-inverted decisions on misses.
    ///
    /// # Panics
    ///
    /// Panics if the bus (width + 2 control lines) exceeds 64 lines, or
    /// the predictor offers more candidates than the bus has codewords.
    pub fn new(width: Width, predictor: P, cost: CostModel) -> Self {
        PredictiveEncoder {
            state: EngineState::new(width, predictor, cost),
            cost,
            miss_policy: MissPolicy::default(),
            last_outcome: None,
        }
    }

    /// Replaces the miss policy (builder style).
    #[must_use]
    pub fn with_miss_policy(mut self, policy: MissPolicy) -> Self {
        self.miss_policy = policy;
        self
    }

    /// The predictor's display name.
    pub fn name(&self) -> String {
        self.state.predictor.name()
    }

    /// Read access to the underlying predictor (for instrumentation).
    pub fn predictor(&self) -> &P {
        &self.state.predictor
    }

    /// Statistics hook: whether the most recent word hit a prediction,
    /// and at which rank.
    pub fn last_outcome(&self) -> Option<EncodeOutcome> {
        self.last_outcome
    }
}

/// How the encoder drives the data lines when no prediction matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MissPolicy {
    /// Send the raw word or its complement, whichever moves the bus more
    /// cheaply (the paper's design: Figure 2's "raw inverted" option).
    #[default]
    RawOrInverted,
    /// Always send the raw word — drops one control state and the
    /// inversion comparator; used by the inversion-fallback ablation.
    RawOnly,
}

/// What the encoder did with the most recent word (for hit-rate
/// instrumentation and the hardware operation counting in `hwmodel`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncodeOutcome {
    /// The word matched the prediction at this rank (0 = LAST value).
    Hit {
        /// Confidence rank whose codeword was transmitted.
        rank: usize,
    },
    /// No prediction matched; the raw word was driven.
    MissRaw,
    /// No prediction matched; the complemented word was driven.
    MissInverted,
}

/// Predictor accuracy probes, shared by every predictive scheme. Static
/// handles memoize the registry lookup, so the enabled-path cost is one
/// atomic add and the disabled path a single flag load.
static PROBE_HIT_LAST: busprobe::StaticCounter =
    busprobe::StaticCounter::new("buscoding.predict.hit_last");
static PROBE_HIT_RANKED: busprobe::StaticCounter =
    busprobe::StaticCounter::new("buscoding.predict.hit_ranked");
static PROBE_MISS: busprobe::StaticCounter = busprobe::StaticCounter::new("buscoding.predict.miss");
static PROBE_HIT_RANK: busprobe::StaticHistogram =
    busprobe::StaticHistogram::new("buscoding.predict.hit_rank", &[0, 1, 2, 4, 8, 16, 32]);

impl<P> PredictiveEncoder<P> {
    fn set_outcome(&mut self, outcome: EncodeOutcome) {
        match outcome {
            EncodeOutcome::Hit { rank: 0 } => PROBE_HIT_LAST.inc(),
            EncodeOutcome::Hit { rank } => {
                PROBE_HIT_RANKED.inc();
                PROBE_HIT_RANK.observe(rank as u64);
            }
            EncodeOutcome::MissRaw | EncodeOutcome::MissInverted => PROBE_MISS.inc(),
        }
        self.last_outcome = Some(outcome);
    }
}

impl<P: Predictor> Encoder for PredictiveEncoder<P> {
    fn lines(&self) -> u32 {
        self.state.lines()
    }

    fn encode(&mut self, value: Word) -> u64 {
        let value = self.state.width.truncate(value);
        match self.state.rank_of_value(value) {
            Some(rank) => {
                self.state.data ^= self.state.book.code(rank);
                self.state.control = CTRL_PRED;
                self.set_outcome(EncodeOutcome::Hit { rank });
            }
            None => {
                let width = self.state.width;
                let lines = self.state.lines();
                let current = self.state.assemble();
                let raw = value | (CTRL_RAW << width.bits());
                let inv = (value ^ width.mask()) | (CTRL_INV << width.bits());
                let raw_cost = self.cost.transition_cost(current, raw, lines);
                let inv_cost = match self.miss_policy {
                    MissPolicy::RawOrInverted => self.cost.transition_cost(current, inv, lines),
                    MissPolicy::RawOnly => f64::INFINITY,
                };
                if inv_cost < raw_cost {
                    self.state.data = value ^ width.mask();
                    self.state.control = CTRL_INV;
                    self.set_outcome(EncodeOutcome::MissInverted);
                } else {
                    self.state.data = value;
                    self.state.control = CTRL_RAW;
                    self.set_outcome(EncodeOutcome::MissRaw);
                }
            }
        }
        self.state.advance(value);
        self.state.assemble()
    }

    fn encode_block(&mut self, words: &[Word], out: &mut Vec<u64>) {
        // Monomorphic over the concrete predictor `P`: the rank lookup,
        // codebook XOR and predictor update all inline per block.
        out.reserve(words.len());
        for &value in words {
            out.push(self.encode(value));
        }
    }

    fn reset(&mut self) {
        self.state.reset();
        self.last_outcome = None;
    }
}

/// The receiving half of a prediction-based transcoder.
#[derive(Debug, Clone)]
pub struct PredictiveDecoder<P> {
    state: EngineState<P>,
}

impl<P: Predictor> PredictiveDecoder<P> {
    /// Creates a decoder. The predictor and cost model must be configured
    /// identically to the paired encoder's.
    pub fn new(width: Width, predictor: P, cost: CostModel) -> Self {
        PredictiveDecoder {
            state: EngineState::new(width, predictor, cost),
        }
    }
}

impl<P: Predictor> Decoder for PredictiveDecoder<P> {
    fn lines(&self) -> u32 {
        self.state.lines()
    }

    fn decode(&mut self, bus_state: u64) -> Result<Word, RoundTripError> {
        let width = self.state.width;
        let data = bus_state & width.mask();
        let control = bus_state >> width.bits();
        let value = match control {
            CTRL_PRED => {
                let delta = data ^ self.state.data;
                let rank = self.state.book.rank_of(delta).ok_or_else(|| {
                    RoundTripError::new(format!("transition vector {delta:#x} is not a codeword"))
                })?;
                self.state.value_at_rank(rank).ok_or_else(|| {
                    RoundTripError::new(format!("rank {rank} has no candidate right now"))
                })?
            }
            CTRL_RAW => data,
            CTRL_INV => data ^ width.mask(),
            other => {
                return Err(RoundTripError::new(format!(
                    "control lines carry invalid state {other:#b}"
                )))
            }
        };
        self.state.data = data;
        self.state.control = control;
        self.state.advance(value);
        Ok(value)
    }

    fn reset(&mut self) {
        self.state.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{evaluate_blocks, verify_roundtrip};
    use bustrace::Trace;

    /// A predictor that always predicts a fixed list — enough to unit
    /// test the engine in isolation.
    #[derive(Debug, Clone)]
    struct FixedPredictor {
        list: Vec<Word>,
    }

    impl Predictor for FixedPredictor {
        fn name(&self) -> String {
            "fixed".into()
        }

        fn max_candidates(&self) -> usize {
            self.list.len()
        }

        fn candidate(&self, index: usize) -> Option<Word> {
            self.list.get(index).copied()
        }

        fn observe(&mut self, _value: Word) {}

        fn reset(&mut self) {}
    }

    fn pair(
        list: Vec<Word>,
    ) -> (
        PredictiveEncoder<FixedPredictor>,
        PredictiveDecoder<FixedPredictor>,
    ) {
        let cost = CostModel::default();
        (
            PredictiveEncoder::new(Width::W32, FixedPredictor { list: list.clone() }, cost),
            PredictiveDecoder::new(Width::W32, FixedPredictor { list }, cost),
        )
    }

    #[test]
    fn repeated_value_is_free_after_first() {
        let (mut enc, _) = pair(vec![]);
        let trace = Trace::from_values(Width::W32, std::iter::repeat_n(0xCAFE, 100));
        let a = evaluate_blocks(&mut enc, &trace);
        let first_cost = a.tau();
        let trace2 = Trace::from_values(Width::W32, std::iter::repeat_n(0xCAFE, 1000));
        let a2 = evaluate_blocks(&mut enc, &trace2);
        assert_eq!(a2.tau(), first_cost);
        assert!(matches!(
            enc.last_outcome(),
            Some(EncodeOutcome::Hit { rank: 0 })
        ));
    }

    #[test]
    fn predicted_value_uses_low_weight_code() {
        let (mut enc, _) = pair(vec![0x1234_5678]);
        enc.reset();
        let s1 = enc.encode(0xFFFF); // miss, raw
        let s2 = enc.encode(0x1234_5678); // hit rank 1
                                          // Hit costs one data-line toggle plus the control change.
        let toggles = (s1 ^ s2).count_ones();
        assert!(toggles <= 3, "expected a cheap hit, got {toggles} toggles");
        assert!(matches!(
            enc.last_outcome(),
            Some(EncodeOutcome::Hit { rank: 1 })
        ));
    }

    #[test]
    fn miss_can_choose_inversion() {
        let (mut enc, mut dec) = pair(vec![]);
        enc.reset();
        dec.reset();
        // From an all-low bus, 0xFFFF_FFFE is cheaper inverted.
        let bus = enc.encode(0xFFFF_FFFE);
        assert!(matches!(
            enc.last_outcome(),
            Some(EncodeOutcome::MissInverted)
        ));
        assert_eq!(dec.decode(bus).unwrap(), 0xFFFF_FFFE);
    }

    #[test]
    fn engine_round_trips_with_fixed_predictor() {
        let list: Vec<Word> = (0..30).map(|i| 1000 + i * 3).collect();
        let (mut enc, mut dec) = pair(list);
        let mut x = 5u64;
        let mut trace = Trace::new(Width::W32);
        for i in 0..3000u64 {
            if i % 3 == 0 {
                trace.push(1000 + (i % 30) * 3); // hits
            } else {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(7);
                trace.push(x >> 20); // misses
            }
        }
        verify_roundtrip(&mut enc, &mut dec, &trace).unwrap();
    }

    #[test]
    fn duplicate_candidates_round_trip() {
        let (mut enc, mut dec) = pair(vec![7, 7, 9, 9, 7]);
        let trace = Trace::from_values(Width::W32, [7u64, 9, 7, 9, 11, 7]);
        verify_roundtrip(&mut enc, &mut dec, &trace).unwrap();
    }

    #[test]
    fn raw_only_policy_never_inverts_and_still_roundtrips() {
        let cost = CostModel::default();
        let mut enc = PredictiveEncoder::new(Width::W32, FixedPredictor { list: vec![] }, cost)
            .with_miss_policy(MissPolicy::RawOnly);
        let mut dec = PredictiveDecoder::new(Width::W32, FixedPredictor { list: vec![] }, cost);
        enc.reset();
        dec.reset();
        // A value that the default policy would invert.
        let bus = enc.encode(0xFFFF_FFFE);
        assert!(matches!(enc.last_outcome(), Some(EncodeOutcome::MissRaw)));
        assert_eq!(dec.decode(bus).unwrap(), 0xFFFF_FFFE);
    }

    #[test]
    fn decoder_flags_desync() {
        let (_, mut dec) = pair(vec![]);
        dec.reset();
        // A PRED control state with a non-codeword delta must error.
        let bogus = 0b0000_0110u64; // two adjacent toggles: not in a 1-entry book
        assert!(dec.decode(bogus).is_err());
    }

    #[test]
    fn decoder_rejects_invalid_control() {
        let (_, mut dec) = pair(vec![]);
        dec.reset();
        let bad_ctrl = 0b11u64 << 32;
        let err = dec.decode(bad_ctrl).unwrap_err();
        assert!(err.to_string().contains("control"));
    }

    #[test]
    #[should_panic(expected = "more candidates")]
    fn engine_rejects_oversized_candidate_lists() {
        let list: Vec<Word> = (0..16).collect();
        let _ = PredictiveEncoder::new(
            Width::new(4).unwrap(),
            FixedPredictor { list },
            CostModel::default(),
        );
    }
}
