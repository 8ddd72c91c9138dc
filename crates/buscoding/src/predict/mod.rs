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
/// stream (the encoder feeds it through [`step`](Self::step), the
/// decoder through [`observe`](Self::observe)).
///
/// Candidates are ranked by confidence (best first). Duplicate values in
/// the candidate list are permitted (the strided predictor produces them
/// naturally); first-match semantics keep the two ends consistent. The
/// engine separately maintains the LAST value as implicit rank 0, and
/// skips candidates equal to it.
///
/// A predictor is complete with [`candidate`](Self::candidate) and
/// [`observe`](Self::observe). Override [`step`](Self::step) only for
/// speed.
pub trait Predictor: std::fmt::Debug {
    /// A short human-readable identifier, e.g. `"window(8)"`.
    fn name(&self) -> String;

    /// The most candidates [`candidate`](Self::candidate) can ever
    /// return; fixes the codebook size.
    fn max_candidates(&self) -> usize;

    /// The `index`-th ranked candidate, or `None` past the current end
    /// of the list.
    fn candidate(&self, index: usize) -> Option<Word>;

    /// Feeds the confirmed bus word into the predictor's state.
    fn observe(&mut self, value: Word);

    /// One encoder cycle: ranks `value`, then observes it.
    ///
    /// Returns the rank as the engine counts ranks: 0 if `value` equals
    /// `last`; otherwise candidates equal to `last` are skipped without
    /// consuming a rank and the first other candidate is rank 1. Ranks
    /// at or beyond `cap` are misses (`None`). Afterwards the predictor
    /// is exactly as [`observe(value)`](Self::observe) would leave it.
    ///
    /// The default walks [`candidate`](Self::candidate) and then calls
    /// `observe`. Predictors whose candidates live in a scannable store
    /// override it with one pass that finds the rank and the slot to
    /// update together, the way the paper's CAM match both ranks a word
    /// and steers the shift (Figure 2). Overrides MUST agree with the
    /// default on the rank and on the state left behind (the
    /// `step_props` property tests and the byte-identity checks pin
    /// this).
    fn step(&mut self, value: Word, last: Option<Word>, cap: usize) -> Option<usize> {
        let rank = rank_among((0..).map_while(|i| self.candidate(i)), value, last, cap);
        self.observe(value);
        rank
    }

    /// Restores the power-on state.
    fn reset(&mut self);
}

/// The engine's rank of `value` among `candidates` (best first), as
/// [`Predictor::step`] defines it. The candidates are not consulted when
/// `value` is `last`.
fn rank_among(
    candidates: impl IntoIterator<Item = Word>,
    value: Word,
    last: Option<Word>,
    cap: usize,
) -> Option<usize> {
    if last == Some(value) {
        return (cap > 0).then_some(0);
    }
    let mut rank = 1usize;
    for c in candidates {
        if rank >= cap {
            return None;
        }
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

/// "Not found" for the flat CAM scans: a slot or rank that no store
/// reaches.
const ABSENT: usize = usize::MAX;

/// The engine's rank from candidate-order positions (either may be
/// [`ABSENT`]): `value`'s position plus one, less one if LAST sits in
/// front of it and so uses no rank. Ranks at or beyond `cap` are misses.
#[inline]
fn rank_at(value_at: usize, last_at: usize, is_last: bool, cap: usize) -> Option<usize> {
    let rank = if is_last {
        0
    } else if value_at == ABSENT {
        ABSENT
    } else {
        value_at + 1 - usize::from(last_at < value_at)
    };
    (rank < cap).then_some(rank)
}

/// One compare pass with no early exit over a CAM's slots: the index of
/// the slot whose `key` is `wanted`, or [`ABSENT`]. A CAM holds each key
/// at most once, so the index is an OR of `index + 1` over matching
/// slots (at most one term), which compiles to a vectorized reduction
/// rather than a chain of selects.
#[inline]
fn cam_find<T: Copy>(slots: &[T], key: impl Fn(T) -> Word, wanted: Word) -> usize {
    let mut at = 0usize;
    for (j, &slot) in slots.iter().enumerate() {
        at |= (j + 1) & usize::from(key(slot) == wanted).wrapping_neg();
    }
    // No match leaves 0, which wraps to ABSENT.
    at.wrapping_sub(1)
}

/// A shift register of at most `capacity` entries in fixed slots. A
/// push into a full ring overwrites the oldest slot in place, so an
/// entry keeps its slot for life and nothing moves; ages (0 = newest)
/// follow from the slot index and the write head.
#[derive(Debug, Clone)]
struct Ring<T> {
    slots: Box<[T]>,
    /// Slot of the oldest entry once the ring is full (0 while filling).
    head: usize,
    len: usize,
}

impl<T: Copy + Default> Ring<T> {
    fn new(capacity: usize) -> Self {
        Ring {
            slots: vec![T::default(); capacity].into_boxed_slice(),
            head: 0,
            len: 0,
        }
    }

    fn capacity(&self) -> usize {
        self.slots.len()
    }

    fn clear(&mut self) {
        self.head = 0;
        self.len = 0;
    }

    /// The occupied slots, in slot order (not age order).
    fn slots(&self) -> &[T] {
        &self.slots[..self.len]
    }

    fn slots_mut(&mut self) -> &mut [T] {
        &mut self.slots[..self.len]
    }

    /// Maps an age to its slot and a slot to its age (0 = newest): both
    /// count back from the newest slot, wrapping at the capacity, so the
    /// map is its own inverse. The ring must not be empty.
    fn back_from_newest(&self, n: usize) -> usize {
        let newest = self.head + self.len - 1;
        let capacity = self.slots.len();
        let newest = if newest >= capacity {
            newest - capacity
        } else {
            newest
        };
        if n <= newest {
            newest - n
        } else {
            newest + capacity - n
        }
    }

    /// The entry of age `age`, if that many are held.
    fn get(&self, age: usize) -> Option<T> {
        (age < self.len).then(|| self.slots[self.back_from_newest(age)])
    }

    /// Slots and entries, newest first.
    fn newest_first(&self) -> impl Iterator<Item = (usize, T)> + '_ {
        (0..self.len).map(|age| {
            let slot = self.back_from_newest(age);
            (slot, self.slots[slot])
        })
    }

    /// Adds a newest entry; a full ring returns the oldest, which the
    /// new entry overwrote.
    fn push(&mut self, item: T) -> Option<T> {
        if self.len < self.slots.len() {
            self.slots[self.len] = item;
            self.len += 1;
            return None;
        }
        let evicted = std::mem::replace(&mut self.slots[self.head], item);
        self.head += 1;
        if self.head == self.slots.len() {
            self.head = 0;
        }
        Some(evicted)
    }
}

/// The newest `capacity` words of a stream as one contiguous slice,
/// oldest first. Each word is stored twice, `capacity` slots apart, so
/// the window never wraps and readers index it like a plain slice.
#[derive(Debug, Clone)]
struct History {
    buf: Box<[Word]>,
    /// Slot the next word is written to, in `0..capacity`.
    next: usize,
    len: usize,
}

impl History {
    fn new(capacity: usize) -> Self {
        History {
            buf: vec![0; 2 * capacity].into_boxed_slice(),
            next: 0,
            len: 0,
        }
    }

    #[inline]
    fn capacity(&self) -> usize {
        self.buf.len() / 2
    }

    fn clear(&mut self) {
        self.next = 0;
        self.len = 0;
    }

    /// The words held, oldest first (at most `capacity`).
    #[inline]
    fn recent(&self) -> &[Word] {
        let end = self.next + self.capacity();
        &self.buf[end - self.len..end]
    }

    #[inline]
    fn push(&mut self, value: Word) {
        let capacity = self.capacity();
        self.buf[self.next] = value;
        self.buf[self.next + capacity] = value;
        self.next += 1;
        if self.next == capacity {
            self.next = 0;
        }
        self.len = (self.len + 1).min(capacity);
    }
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
        let entries = 1 + predictor.max_candidates();
        if let Some(max) = width.value_count() {
            assert!(
                entries as u64 <= max,
                "predictor offers more candidates than a {width} bus has codewords"
            );
        }
        let book = CodeBook::new(width.bits(), entries, cost);
        Self::with_book(width, predictor, book)
    }

    /// Power-on state around an already built book, which must be the
    /// one [`new`](Self::new) builds for the same arguments.
    fn with_book(width: Width, predictor: P, book: CodeBook) -> Self {
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

    /// The value at `rank`: LAST for rank 0, otherwise the rank-th
    /// predictor candidate not equal to LAST; `None` if the rank is not
    /// currently populated.
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

/// A matched encoder/decoder pair around `predictor`, each in its
/// power-on state. The codebook is built once and the decoder gets a
/// copy, so a pair costs one build rather than two.
///
/// # Panics
///
/// As [`PredictiveEncoder::new`].
pub fn predictive_codec<P: Predictor + Clone>(
    width: Width,
    predictor: P,
    cost: CostModel,
) -> (PredictiveEncoder<P>, PredictiveDecoder<P>) {
    let state = EngineState::new(width, predictor.clone(), cost);
    let decoder = PredictiveDecoder {
        state: EngineState::with_book(width, predictor, state.book.clone()),
    };
    (PredictiveEncoder::with_state(state), decoder)
}

/// The sending half of a prediction-based transcoder.
///
/// Construct pairs with [`predictive_codec`] or the scheme helpers
/// ([`window_codec`], [`stride_codec`], [`context_value_codec`],
/// [`context_transition_codec`], [`fcm_codec`]), or a single half via
/// [`PredictiveEncoder::new`] with any custom [`Predictor`].
#[derive(Debug, Clone)]
pub struct PredictiveEncoder<P> {
    state: EngineState<P>,
    miss_policy: MissPolicy,
    last_outcome: Option<EncodeOutcome>,
    /// Words per outcome slot since the last probe flush: slot `r` for a
    /// rank-`r` hit, the final slot for a miss.
    tally: Vec<u64>,
}

impl<P: Predictor> PredictiveEncoder<P> {
    /// Creates an encoder around a predictor. `cost` orders the codebook;
    /// misses pick raw or inverted by transition count alone (see
    /// [`MissPolicy::RawOrInverted`]).
    ///
    /// # Panics
    ///
    /// Panics if the bus (width + 2 control lines) exceeds 64 lines, or
    /// the predictor offers more candidates than the bus has codewords.
    pub fn new(width: Width, predictor: P, cost: CostModel) -> Self {
        Self::with_state(EngineState::new(width, predictor, cost))
    }

    fn with_state(state: EngineState<P>) -> Self {
        let tally = vec![0; state.book.len() + 1];
        PredictiveEncoder {
            state,
            miss_policy: MissPolicy::default(),
            last_outcome: None,
            tally,
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

    /// One engine cycle: the bus state that carries `value`, and its
    /// outcome slot (the hit rank, or the book size for a miss).
    ///
    /// The data and control lines for a hit, a raw miss and an inverted
    /// miss are all computed and the right pair selected by mask, so the
    /// only data-dependent branches are inside the predictor.
    #[inline(always)]
    fn cycle(&mut self, value: Word) -> (u64, usize) {
        let state = &mut self.state;
        let width = state.width;
        let value = width.truncate(value);
        let entries = state.book.len();
        let rank = state.predictor.step(value, state.last, entries);
        state.last = Some(value);

        let invert = (self.miss_policy == MissPolicy::RawOrInverted)
            & inverting_is_cheaper(state.assemble(), value, width);
        let miss_data = value ^ (width.mask() & u64::from(invert).wrapping_neg());
        let miss_control = CTRL_RAW << u32::from(invert);

        let hit = u64::from(rank.is_some()).wrapping_neg();
        let hit_data = state.data ^ state.book.code(rank.unwrap_or(0));
        state.data = (hit_data & hit) | (miss_data & !hit);
        state.control = (CTRL_PRED & hit) | (miss_control & !hit);
        self.last_outcome = Some(match rank {
            Some(rank) => EncodeOutcome::Hit { rank },
            None if invert => EncodeOutcome::MissInverted,
            None => EncodeOutcome::MissRaw,
        });
        (state.assemble(), rank.unwrap_or(entries))
    }
}

/// Whether a miss moves the bus from `current` more cheaply with the
/// complemented word than with the raw one. Complementing flips every
/// line (`raw ^ inv` is all `lines` bits), so κ is the same both ways
/// and τ_inv is `lines - τ_raw`: inverting is cheaper iff
/// 2·τ_raw > lines.
#[inline]
fn inverting_is_cheaper(current: u64, value: Word, width: Width) -> bool {
    let raw = value | (CTRL_RAW << width.bits());
    2 * (current ^ raw).count_ones() > width.bits() + 2
}

/// How the encoder drives the data lines when no prediction matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MissPolicy {
    /// Send the raw word or its complement, whichever moves the bus more
    /// cheaply (the paper's design: Figure 2's "raw inverted" option).
    ///
    /// The choice needs no cost model: the complement flips every line,
    /// which leaves κ unchanged, so the cheaper side is the one with
    /// fewer self transitions (ties send raw). This equals comparing
    /// `τ + λ·κ` in `f64` exactly while `τ + λ·κ < 2⁵²` (any λ below
    /// 7·10¹³): both sides add the same λ·κ, and below 2⁵² the `f64`
    /// spacing is under one transition, so rounding cannot merge or swap
    /// them.
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

/// Predictor accuracy probes, shared by every predictive scheme. The
/// engine tallies outcomes per block and flushes them here once per
/// block, so the per-word cost is one array increment whether or not
/// probes are on.
static PROBE_HIT_LAST: busprobe::StaticCounter =
    busprobe::StaticCounter::new("buscoding.predict.hit_last");
static PROBE_HIT_RANKED: busprobe::StaticCounter =
    busprobe::StaticCounter::new("buscoding.predict.hit_ranked");
static PROBE_MISS: busprobe::StaticCounter = busprobe::StaticCounter::new("buscoding.predict.miss");
static PROBE_HIT_RANK: busprobe::StaticHistogram =
    busprobe::StaticHistogram::new("buscoding.predict.hit_rank", &[0, 1, 2, 4, 8, 16, 32]);

/// Records `count` words that landed in outcome `slot` (`miss_slot` for
/// misses) on the predictor probes.
fn record_outcomes(slot: usize, count: u64, miss_slot: usize) {
    if slot == miss_slot {
        PROBE_MISS.add(count);
    } else if slot == 0 {
        PROBE_HIT_LAST.add(count);
    } else {
        PROBE_HIT_RANKED.add(count);
        PROBE_HIT_RANK.observe_n(slot as u64, count);
    }
}

impl<P: Predictor> Encoder for PredictiveEncoder<P> {
    fn lines(&self) -> u32 {
        self.state.lines()
    }

    fn encode(&mut self, value: Word) -> u64 {
        let (bus, slot) = self.cycle(value);
        if busprobe::enabled() {
            record_outcomes(slot, 1, self.state.book.len());
        }
        bus
    }

    fn encode_block(&mut self, words: &[Word], out: &mut Vec<u64>) {
        // Monomorphic over the concrete predictor `P`: the fused step,
        // codebook XOR and line select all inline per block.
        out.reserve(words.len());
        for &value in words {
            let (bus, slot) = self.cycle(value);
            self.tally[slot] += 1;
            out.push(bus);
        }
        let miss_slot = self.state.book.len();
        if busprobe::enabled() {
            for (slot, &count) in self.tally.iter().enumerate() {
                if count > 0 {
                    record_outcomes(slot, count, miss_slot);
                }
            }
        }
        self.tally.fill(0);
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
    use proptest::prelude::*;

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
        predictive_codec(Width::W32, FixedPredictor { list }, CostModel::default())
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

    const WIDTHS: [u32; 4] = [8, 16, 32, 62];
    const LAMBDAS: [f64; 6] = [0.0, 0.1, 1.0, 3.0, 10.0, 100.0];

    /// The miss decision the engine replaced: price both bus states.
    fn cost_prefers_inverted(cost: CostModel, current: u64, value: Word, width: Width) -> bool {
        let lines = width.bits() + 2;
        let raw = value | (CTRL_RAW << width.bits());
        let inv = (value ^ width.mask()) | (CTRL_INV << width.bits());
        cost.transition_cost(current, inv, lines) < cost.transition_cost(current, raw, lines)
    }

    // `2·τ_raw > lines` must pick what comparing `τ + λ·κ` in `f64`
    // picked. It does because the complement flips every line, so κ is
    // unchanged and τ_inv = lines − τ_raw; and because both `f64` sums
    // add the same λ·κ to a whole τ, and while λ·κ < 2⁵² the spacing of
    // `f64` is under one, so rounding cannot merge or swap them.
    proptest! {
        #[test]
        fn miss_decision_matches_the_cost_comparison(
            width_at in 0usize..4,
            lambda_at in 0usize..6,
            current in any::<u64>(),
            value in any::<u64>(),
        ) {
            let width = Width::new(WIDTHS[width_at]).unwrap();
            let cost = CostModel::new(LAMBDAS[lambda_at]);
            let lines = width.bits() + 2;
            let current = if lines == 64 { current } else { current & ((1 << lines) - 1) };
            let value = width.truncate(value);
            prop_assert_eq!(
                inverting_is_cheaper(current, value, width),
                cost_prefers_inverted(cost, current, value, width)
            );
        }

        #[test]
        fn engine_misses_follow_the_cost_comparison(
            width_at in 0usize..4,
            lambda_at in 0usize..6,
            words in prop::collection::vec(any::<u64>(), 1..80),
        ) {
            let width = Width::new(WIDTHS[width_at]).unwrap();
            let cost = CostModel::new(LAMBDAS[lambda_at]);
            let list = words.iter().step_by(7).map(|&w| width.truncate(w)).collect();
            let mut enc = PredictiveEncoder::new(width, FixedPredictor { list }, cost);
            let mut bus = 0u64;
            for &w in &words {
                let value = width.truncate(w);
                let inverted = cost_prefers_inverted(cost, bus, value, width);
                bus = enc.encode(value);
                match enc.last_outcome() {
                    Some(EncodeOutcome::MissInverted) => prop_assert!(inverted),
                    Some(EncodeOutcome::MissRaw) => prop_assert!(!inverted),
                    Some(EncodeOutcome::Hit { .. }) => {}
                    None => prop_assert!(false, "no outcome recorded"),
                }
            }
        }
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
