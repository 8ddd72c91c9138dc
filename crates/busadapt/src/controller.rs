//! The adaptive controller: a `Transcoder`-shaped wrapper that watches
//! traffic and switches the live coding scheme at decision boundaries.
//!
//! # How the two ends stay synchronized
//!
//! The controller is split into an encoder half and a decoder half that
//! share one [`Core`] behind `Rc<RefCell<…>>` — modelling the control
//! sideband a real adaptive bus would run beside the data lines. All
//! harnesses in this workspace ([`buscoding::verify_roundtrip`], the
//! `busfault` channel) drive the pair in lockstep (encode word *n*,
//! then decode word *n*), so the boundary work performed
//! while encoding word *n* — choosing the next scheme and flushing both
//! FSMs — is always visible to the decoder before it observes word *n*.
//!
//! # The flush discipline
//!
//! *Every* decision boundary flushes the live pair to its power-on
//! state, switch or not. That makes the decision period an epoch in the
//! [`buscoding::robust::epoch_wrap`] sense: any desynchronization —
//! including an upset injected in the very cycle of a scheme switch —
//! is repaired at the next boundary, because both FSMs restart from
//! power-on and the bus carries absolute states. It also makes every
//! window's cost independent of history, which is what lets the shadow
//! models (and the oracle) compare candidates from a common cold start.
//! The flushes are not free: the controller counts them (plus the
//! switches) so experiments can charge them through
//! `hwmodel::CodingOutcome::with_resync_tax`.

use std::cell::RefCell;
use std::rc::Rc;

use buscoding::{
    scheme_by_name, Activity, Decoder, Encoder, RoundTripError, Transcoder, UnknownScheme,
};
use bustrace::stats::{StreamingStrideHits, StreamingTransitions, StreamingWindowUniqueness};
use bustrace::{Width, Word};

use crate::policy::{Policy, WindowObservation, WindowStats};

static PROBE_DECISIONS: busprobe::StaticCounter = busprobe::StaticCounter::new("adapt.decisions");
static PROBE_SWITCHES: busprobe::StaticCounter = busprobe::StaticCounter::new("adapt.switches");
static PROBE_FLUSHES: busprobe::StaticCounter = busprobe::StaticCounter::new("adapt.flushes");
static PROBE_RESYNCS: busprobe::StaticCounter = busprobe::StaticCounter::new("adapt.resyncs");
static PROBE_WORDS: busprobe::StaticCounter = busprobe::StaticCounter::new("adapt.window_words");
const PCT_BOUNDS: &[u64] = &[5, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100];
static HIST_DENSITY: busprobe::StaticHistogram =
    busprobe::StaticHistogram::new("adapt.window_density_pct", PCT_BOUNDS);
static HIST_UNIQUE: busprobe::StaticHistogram =
    busprobe::StaticHistogram::new("adapt.window_unique_pct", PCT_BOUNDS);
static HIST_STRIDE: busprobe::StaticHistogram =
    busprobe::StaticHistogram::new("adapt.window_stride_pct", PCT_BOUNDS);

/// Coupling weight λ of the shadow cost models (the paper's default).
const LAMBDA: f64 = 1.0;
/// Tiled sub-window size of the uniqueness estimator.
const UNIQUENESS_WINDOW: usize = 16;
/// History depth of the stride-hit estimator.
const STRIDE_DEPTH: usize = 2;

/// Configuration of an [`AdaptiveTranscoder`]: the candidate pool, the
/// decision period and the recovery mode. The shadow models score
/// windows at λ = 1; the window statistics use a uniqueness sub-window
/// of 16 and a stride depth of 2.
#[derive(Debug, Clone)]
pub struct AdaptiveConfig {
    width: Width,
    candidates: Vec<String>,
    period: u64,
    recover: bool,
    initial: usize,
}

impl AdaptiveConfig {
    /// A configuration selecting among `candidates` (canonical registry
    /// names, see [`buscoding::SCHEME_PATTERNS`]) every `period` words.
    ///
    /// Defaults: bounded recovery on, candidate 0 carries the first
    /// window.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero or `candidates` is empty.
    pub fn new<I, S>(width: Width, candidates: I, period: u64) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let candidates: Vec<String> = candidates.into_iter().map(Into::into).collect();
        assert!(!candidates.is_empty(), "need at least one candidate scheme");
        assert!(period > 0, "decision period must be at least 1 word");
        AdaptiveConfig {
            width,
            candidates,
            period,
            recover: true,
            initial: 0,
        }
    }

    /// Sets which candidate carries the first window (no policy gets to
    /// choose it — there is no completed window to observe yet).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn with_initial(mut self, index: usize) -> Self {
        assert!(
            index < self.candidates.len(),
            "initial candidate out of range"
        );
        self.initial = index;
        self
    }

    /// Disables bounded recovery: decode errors propagate as
    /// [`RoundTripError`] instead of being absorbed
    /// [`RecoveringDecoder`](buscoding::robust::RecoveringDecoder)-style.
    #[must_use]
    pub fn without_recovery(mut self) -> Self {
        self.recover = false;
        self
    }

    /// The candidate pool, in decision-index order.
    pub fn candidates(&self) -> &[String] {
        &self.candidates
    }

    /// Words per decision window (= epoch length).
    pub fn period(&self) -> u64 {
        self.period
    }

    /// The bus word width.
    pub fn width(&self) -> Width {
        self.width
    }
}

/// One scheme switch, as recorded in [`AdaptReport::switch_log`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwitchEvent {
    /// Word position of the boundary at which the switch took effect.
    pub at_word: u64,
    /// Candidate index that carried the completed window.
    pub from: usize,
    /// Candidate index taking the bus.
    pub to: usize,
}

/// Everything the controller tallied since power-on.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptReport {
    /// Words encoded.
    pub words: u64,
    /// Completed decision windows (= decisions taken = boundary
    /// flushes; a trailing partial window is not in this count).
    pub windows: u64,
    /// Decisions that changed the live scheme.
    pub switches: u64,
    /// Boundary flushes of the live pair — equal to `windows`; kept as
    /// its own field because it is the number experiments feed to
    /// `CodingOutcome::with_resync_tax`.
    pub flushes: u64,
    /// Decode errors absorbed by bounded recovery.
    pub resyncs: u64,
    /// Words carried by each candidate, parallel to the candidate pool.
    pub residency: Vec<(String, u64)>,
    /// Every switch, in order.
    pub switch_log: Vec<SwitchEvent>,
    /// Name of the scheme currently on the wire.
    pub live: String,
}

/// One candidate scheme: the live FSM pair (on the wire only while
/// selected) plus an independent shadow encoder that scores every
/// window regardless of who is live.
struct Candidate {
    lines: u32,
    pair: Transcoder,
    shadow: Box<dyn Encoder>,
}

/// All-ones over the low `lines` bus lines.
fn line_mask(lines: u32) -> u64 {
    if lines >= 64 {
        u64::MAX
    } else {
        (1u64 << lines) - 1
    }
}

/// A per-window activity accumulator starting from the all-low
/// power-on bus state, exactly like [`buscoding::evaluate_blocks`].
fn cold_activity(lines: u32) -> Activity {
    let mut a = Activity::new(lines);
    a.step(0);
    a
}

struct Core {
    cfg: AdaptiveConfig,
    lines: u32,
    candidates: Vec<Candidate>,
    names: Vec<String>,
    policy: Box<dyn Policy>,
    live: usize,
    pos: u64,
    transitions: StreamingTransitions,
    uniqueness: StreamingWindowUniqueness,
    strides: StreamingStrideHits,
    /// Words of the in-flight window, buffered so the shadow encoders
    /// can score the whole window in one [`Encoder::encode_block`] call
    /// at the boundary instead of one virtual dispatch per word.
    window_words: Vec<Word>,
    /// Scratch for the shadows' block output, reused across windows.
    shadow_states: Vec<u64>,
    residency: Vec<u64>,
    windows: u64,
    switches: u64,
    resyncs: u64,
    switch_log: Vec<SwitchEvent>,
}

impl Core {
    /// Full power-on reset: FSMs, shadows, streaming stats, policy
    /// state and tallies.
    fn power_on(&mut self) {
        self.live = self.cfg.initial;
        self.pos = 0;
        self.windows = 0;
        self.switches = 0;
        self.resyncs = 0;
        self.switch_log.clear();
        self.residency.iter_mut().for_each(|r| *r = 0);
        self.transitions.reset();
        self.uniqueness.reset();
        self.strides.reset();
        self.policy.reset();
        self.window_words.clear();
        for candidate in &mut self.candidates {
            candidate.pair.reset();
            candidate.shadow.reset();
        }
    }

    /// Decision boundary: score the completed window, consult the
    /// policy, and flush into the next window.
    fn boundary(&mut self) {
        let _span = busprobe::span("busadapt.controller.boundary");
        // Deferred shadow scoring: each candidate replays the buffered
        // window through its shadow encoder as one block. The shadows
        // were flushed at the previous boundary, so this produces the
        // exact state sequence the old per-word loop accumulated —
        // minus `candidates × period` virtual dispatches per window.
        let words = &self.window_words;
        let states = &mut self.shadow_states;
        let costs: Vec<f64> = self
            .candidates
            .iter_mut()
            .map(|candidate| {
                states.clear();
                candidate.shadow.encode_block(words, states);
                let mut activity = cold_activity(candidate.lines);
                activity.step_slice(states);
                activity.weighted(LAMBDA)
            })
            .collect();
        let stats = WindowStats {
            transition_density: self.transitions.density(),
            repeat_fraction: self.transitions.repeat_fraction(),
            window_uniqueness: self.uniqueness.fraction(),
            stride_fraction: self.strides.fraction(),
        };
        let completed = self.pos / self.cfg.period - 1;
        let obs = WindowObservation {
            index: completed,
            live: self.live,
            names: &self.names,
            costs: &costs,
            stats,
        };
        let next = self.policy.decide(&obs).min(self.candidates.len() - 1);

        self.windows += 1;
        PROBE_DECISIONS.inc();
        PROBE_FLUSHES.inc();
        if busprobe::enabled() {
            PROBE_WORDS.add(self.cfg.period);
            HIST_DENSITY.observe(to_pct(stats.transition_density));
            HIST_STRIDE.observe(to_pct(stats.stride_fraction));
            if let Some(u) = stats.window_uniqueness {
                HIST_UNIQUE.observe(to_pct(u));
            }
            busprobe::counter(&format!("adapt.residency.{}", self.names[self.live]))
                .add(self.cfg.period);
        }
        if next != self.live {
            self.switches += 1;
            PROBE_SWITCHES.inc();
            self.switch_log.push(SwitchEvent {
                at_word: self.pos,
                from: self.live,
                to: next,
            });
            self.live = next;
        }

        // The epoch flush: live pair back to power-on (the scheme that
        // just left the bus keeps its stale state — it is re-flushed
        // whenever it next becomes live), shadows and streaming stats
        // back to cold for the next window.
        self.candidates[self.live].pair.reset();
        self.transitions.reset();
        self.uniqueness.reset();
        self.strides.reset();
        self.window_words.clear();
        for candidate in &mut self.candidates {
            candidate.shadow.reset();
        }
    }

    fn encode(&mut self, value: Word) -> u64 {
        if self.pos > 0 && self.pos.is_multiple_of(self.cfg.period) {
            self.boundary();
        }
        self.pos += 1;
        self.residency[self.live] += 1;
        self.transitions.push(value);
        self.uniqueness.push(value);
        self.strides.push(value);
        // A trailing partial window is never scored (no boundary fires
        // for it), so buffering is free until the next boundary.
        self.window_words.push(value);
        self.candidates[self.live].pair.encode(value)
    }

    fn decode(&mut self, bus_state: u64) -> Result<Word, RoundTripError> {
        let recover = self.cfg.recover;
        let width = self.cfg.width;
        let candidate = &mut self.candidates[self.live];
        match candidate
            .pair
            .decode(bus_state & line_mask(candidate.lines))
        {
            Ok(word) => Ok(word),
            Err(_) if recover => {
                self.resyncs += 1;
                PROBE_RESYNCS.inc();
                candidate.pair.decoder_mut().reset();
                Ok(bus_state & width.mask())
            }
            Err(e) => Err(e),
        }
    }

    fn report(&self) -> AdaptReport {
        AdaptReport {
            words: self.pos,
            windows: self.windows,
            switches: self.switches,
            flushes: self.windows,
            resyncs: self.resyncs,
            residency: self
                .names
                .iter()
                .cloned()
                .zip(self.residency.iter().copied())
                .collect(),
            switch_log: self.switch_log.clone(),
            live: self.names[self.live].clone(),
        }
    }
}

fn to_pct(fraction: f64) -> u64 {
    (fraction * 100.0).round().clamp(0.0, 100.0) as u64
}

/// Encoder half: runs the whole controller (streaming stats, shadow
/// models, boundary decisions) and drives the live scheme's lines.
struct EncoderHalf {
    core: Rc<RefCell<Core>>,
}

impl Encoder for EncoderHalf {
    fn lines(&self) -> u32 {
        self.core.borrow().lines
    }

    fn encode(&mut self, value: Word) -> u64 {
        self.core.borrow_mut().encode(value)
    }

    /// Full power-on reset of the shared controller (both ends).
    fn reset(&mut self) {
        self.core.borrow_mut().power_on();
    }
}

/// Decoder half: observes bus states through the live scheme's decoder.
struct DecoderHalf {
    core: Rc<RefCell<Core>>,
}

impl Decoder for DecoderHalf {
    fn lines(&self) -> u32 {
        self.core.borrow().lines
    }

    fn decode(&mut self, bus_state: u64) -> Result<Word, RoundTripError> {
        self.core.borrow_mut().decode(bus_state)
    }

    /// A receiver-local resync pulse: flushes only the live decoder
    /// FSM (the `ErrorPolicy::ResetAndContinue` semantics). The full
    /// power-on reset is driven from the encoder side, which every
    /// harness resets first.
    fn reset(&mut self) {
        let mut core = self.core.borrow_mut();
        let live = core.live;
        core.candidates[live].pair.decoder_mut().reset();
    }
}

/// A drop-in adaptive transcoder: looks like one
/// [`buscoding::Transcoder`], but re-decides which candidate scheme
/// drives the wire at every decision boundary.
///
/// The physical line count is the maximum over the candidate pool;
/// schemes with fewer lines leave the upper lines low, and the decoder
/// masks observed states down to the live scheme's lines.
///
/// # Example
///
/// ```
/// use busadapt::{AdaptiveConfig, AdaptiveTranscoder, GreedyShadowPolicy};
/// use buscoding::verify_roundtrip;
/// use bustrace::{Trace, Width};
///
/// let cfg = AdaptiveConfig::new(Width::W32, ["window(8)", "stride(4)"], 64);
/// let mut adaptive =
///     AdaptiveTranscoder::new(cfg, Box::new(GreedyShadowPolicy::new(0.0))).unwrap();
///
/// // A looping phase, then a striding phase.
/// let loop_vals = (0..512).map(|i| [7u64, 1000, 42, 9][i % 4]);
/// let ramp = (0..512).map(|i| 0x1000 + 4 * i as u64);
/// let trace = Trace::from_values(Width::W32, loop_vals.chain(ramp));
///
/// let (enc, dec) = adaptive.transcoder_mut().split_mut();
/// verify_roundtrip(enc, dec, &trace).unwrap();
/// let report = adaptive.report();
/// assert!(report.switches >= 1, "controller should chase the phase change");
/// ```
pub struct AdaptiveTranscoder {
    pair: Transcoder,
    core: Rc<RefCell<Core>>,
}

impl AdaptiveTranscoder {
    /// Builds the controller: every candidate gets a live FSM pair and
    /// a shadow encoder from the [`buscoding`] registry.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownScheme`] if any candidate name fails to parse.
    pub fn new(cfg: AdaptiveConfig, policy: Box<dyn Policy>) -> Result<Self, UnknownScheme> {
        let mut candidates = Vec::with_capacity(cfg.candidates.len());
        for name in &cfg.candidates {
            let pair = scheme_by_name(name, cfg.width)?;
            let (shadow, _) = scheme_by_name(name, cfg.width)?.into_parts();
            candidates.push(Candidate {
                lines: pair.lines(),
                pair,
                shadow,
            });
        }
        let lines = candidates.iter().map(|c| c.lines).max().expect("non-empty");
        let display = format!("adaptive({} p{})", policy.name(), cfg.period);
        let names = cfg.candidates.clone();
        let period = cfg.period as usize;
        let residency = vec![0; candidates.len()];
        let mut core = Core {
            transitions: StreamingTransitions::new(cfg.width),
            uniqueness: StreamingWindowUniqueness::new(UNIQUENESS_WINDOW),
            strides: StreamingStrideHits::new(cfg.width, STRIDE_DEPTH),
            live: cfg.initial,
            cfg,
            lines,
            candidates,
            names,
            policy,
            pos: 0,
            window_words: Vec::with_capacity(period),
            shadow_states: Vec::with_capacity(period),
            residency,
            windows: 0,
            switches: 0,
            resyncs: 0,
            switch_log: Vec::new(),
        };
        core.power_on();
        let core = Rc::new(RefCell::new(core));
        let pair = Transcoder::from_boxed(
            display,
            Box::new(EncoderHalf { core: core.clone() }),
            Box::new(DecoderHalf { core: core.clone() }),
        );
        Ok(AdaptiveTranscoder { pair, core })
    }

    /// The display name, e.g. `adaptive(greedy(h0.05) p512)`.
    pub fn name(&self) -> &str {
        self.pair.name()
    }

    /// Physical bus lines (maximum over the candidate pool).
    pub fn lines(&self) -> u32 {
        self.pair.lines()
    }

    /// The `Transcoder`-shaped view, for any harness that drives pairs
    /// ([`buscoding::verify_roundtrip`], `busfault::FaultChannel`, …).
    pub fn transcoder_mut(&mut self) -> &mut Transcoder {
        &mut self.pair
    }

    /// Full power-on reset of both ends.
    pub fn reset(&mut self) {
        self.pair.reset();
    }

    /// Encodes the next word (runs the controller).
    pub fn encode(&mut self, value: Word) -> u64 {
        self.pair.encode(value)
    }

    /// Decodes the next bus state through the live scheme.
    ///
    /// # Errors
    ///
    /// As [`buscoding::Decoder::decode`]; with recovery enabled
    /// (default) errors are absorbed as counted resync events instead.
    pub fn decode(&mut self, bus_state: u64) -> Result<Word, RoundTripError> {
        self.pair.decode(bus_state)
    }

    /// Name of the scheme currently on the wire.
    pub fn live_scheme(&self) -> String {
        self.core.borrow().names[self.core.borrow().live].clone()
    }

    /// Everything tallied since the last power-on reset.
    pub fn report(&self) -> AdaptReport {
        self.core.borrow().report()
    }

    /// A tally handle that stays readable after the transcoder itself
    /// is consumed by a harness.
    pub fn handle(&self) -> AdaptHandle {
        AdaptHandle {
            core: self.core.clone(),
        }
    }

    /// Unwraps into the plain [`Transcoder`] plus a tally handle — for
    /// harnesses that want to own the pair.
    pub fn into_transcoder(self) -> (Transcoder, AdaptHandle) {
        let handle = self.handle();
        (self.pair, handle)
    }
}

impl std::fmt::Debug for AdaptiveTranscoder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdaptiveTranscoder")
            .field("name", &self.pair.name())
            .field("lines", &self.pair.lines())
            .finish_non_exhaustive()
    }
}

/// A read handle onto a controller's tallies, valid for the lifetime
/// of the halves it was created from.
#[derive(Clone)]
pub struct AdaptHandle {
    core: Rc<RefCell<Core>>,
}

impl AdaptHandle {
    /// Everything tallied since the last power-on reset.
    pub fn report(&self) -> AdaptReport {
        self.core.borrow().report()
    }

    /// Name of the scheme currently on the wire.
    pub fn live_scheme(&self) -> String {
        let core = self.core.borrow();
        core.names[core.live].clone()
    }
}

impl std::fmt::Debug for AdaptHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdaptHandle").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{GreedyShadowPolicy, StaticPolicy};
    use buscoding::{evaluate_blocks, verify_roundtrip};
    use bustrace::Trace;

    /// `phases` half-windows of looping traffic alternating with
    /// unit-stride ramps, `len` words each.
    fn phase_change_trace(phases: usize, len: usize) -> Trace {
        let mut values = Vec::new();
        for p in 0..phases {
            if p % 2 == 0 {
                let set = [7u64, 1000, 42, 0xDEAD_BEEF];
                values.extend((0..len).map(|i| set[i % set.len()]));
            } else {
                let base = 0x4000_0000 + ((p as u64) << 8);
                values.extend((0..len).map(|i| base + 4 * i as u64));
            }
        }
        Trace::from_values(Width::W32, values)
    }

    fn greedy(period: u64) -> AdaptiveTranscoder {
        let cfg = AdaptiveConfig::new(Width::W32, ["window(8)", "stride(4)"], period);
        AdaptiveTranscoder::new(cfg, Box::new(GreedyShadowPolicy::new(0.0))).unwrap()
    }

    #[test]
    fn roundtrip_is_lossless_across_switches() {
        let trace = phase_change_trace(4, 256);
        let mut adaptive = greedy(64);
        let (enc, dec) = adaptive.transcoder_mut().split_mut();
        verify_roundtrip(enc, dec, &trace).unwrap();
        let report = adaptive.report();
        assert!(report.switches >= 3, "{report:?}");
        assert_eq!(report.words, trace.len() as u64);
        assert_eq!(report.windows, trace.len() as u64 / 64 - 1);
        assert_eq!(report.flushes, report.windows);
    }

    #[test]
    fn residency_words_sum_to_trace_length() {
        let trace = phase_change_trace(4, 256);
        let mut adaptive = greedy(64);
        let _ = evaluate_blocks(adaptive.transcoder_mut().encoder_mut(), &trace);
        let report = adaptive.report();
        let total: u64 = report.residency.iter().map(|(_, w)| w).sum();
        assert_eq!(total, trace.len() as u64);
        // Both phases are long enough that both schemes get the bus.
        assert!(report.residency.iter().all(|&(_, w)| w > 0), "{report:?}");
    }

    #[test]
    fn static_policy_never_switches_but_still_flushes() {
        let trace = phase_change_trace(4, 256);
        let cfg = AdaptiveConfig::new(Width::W32, ["window(8)", "stride(4)"], 64);
        let mut adaptive = AdaptiveTranscoder::new(cfg, Box::new(StaticPolicy::new(0))).unwrap();
        let (enc, dec) = adaptive.transcoder_mut().split_mut();
        verify_roundtrip(enc, dec, &trace).unwrap();
        let report = adaptive.report();
        assert_eq!(report.switches, 0);
        assert!(report.flushes > 0);
        assert_eq!(report.live, "window(8)");
    }

    #[test]
    fn adapting_beats_the_wrong_static_choice_on_the_wire() {
        // Pinning window(8) across a stride phase wastes energy that the
        // greedy controller recovers (identical flush schedules, so the
        // wire activity comparison is apples to apples).
        let trace = phase_change_trace(6, 512);
        let mut adaptive = greedy(128);
        let adaptive_cost =
            evaluate_blocks(adaptive.transcoder_mut().encoder_mut(), &trace).weighted(1.0);
        let cfg = AdaptiveConfig::new(Width::W32, ["window(8)", "stride(4)"], 128);
        let mut pinned = AdaptiveTranscoder::new(cfg, Box::new(StaticPolicy::new(0))).unwrap();
        let pinned_cost =
            evaluate_blocks(pinned.transcoder_mut().encoder_mut(), &trace).weighted(1.0);
        assert!(
            adaptive_cost < pinned_cost,
            "adaptive {adaptive_cost} vs pinned {pinned_cost}"
        );
    }

    #[test]
    fn power_on_reset_makes_runs_identical() {
        let trace = phase_change_trace(3, 128);
        let mut adaptive = greedy(32);
        let run = |a: &mut AdaptiveTranscoder| -> (Vec<u64>, AdaptReport) {
            a.reset();
            let states = trace.iter().map(|v| a.encode(v)).collect();
            (states, a.report())
        };
        let (states1, report1) = run(&mut adaptive);
        let (states2, report2) = run(&mut adaptive);
        assert_eq!(states1, states2);
        assert_eq!(report1, report2);
        assert!(report1.switches > 0);
    }

    #[test]
    fn upset_reconverges_at_the_next_boundary() {
        let period = 64u64;
        let trace = phase_change_trace(4, 128);
        let mut adaptive = greedy(period);
        adaptive.reset();
        // Flip a low line (present in every candidate) mid-window.
        let flip_at = 40u64;
        let mut wrong_after_boundary = 0;
        for (i, v) in trace.iter().enumerate() {
            let mut state = adaptive.encode(v);
            if i as u64 == flip_at {
                state ^= 1;
            }
            let got = adaptive.decode(state).unwrap();
            let next_boundary = (flip_at / period + 1) * period;
            if (i as u64) >= next_boundary && got != v {
                wrong_after_boundary += 1;
            }
        }
        assert_eq!(wrong_after_boundary, 0);
    }

    #[test]
    fn recovery_counts_resyncs_and_never_errors() {
        let trace = phase_change_trace(2, 128);
        let mut adaptive = greedy(32);
        adaptive.reset();
        for (i, v) in trace.iter().enumerate() {
            let mut state = adaptive.encode(v);
            if i % 17 == 5 {
                // Force the window codec's invalid control pattern.
                state ^= 0b11 << 32;
            }
            assert!(adaptive.decode(state).is_ok());
        }
        assert!(adaptive.report().resyncs > 0);
    }

    #[test]
    fn without_recovery_errors_propagate() {
        let cfg = AdaptiveConfig::new(Width::W32, ["window(8)"], 64).without_recovery();
        let mut adaptive = AdaptiveTranscoder::new(cfg, Box::new(StaticPolicy::new(0))).unwrap();
        adaptive.reset();
        let mut saw_error = false;
        for (i, v) in phase_change_trace(1, 100).iter().enumerate() {
            let mut state = adaptive.encode(v);
            if i == 10 {
                state ^= 0b11 << 32;
            }
            saw_error |= adaptive.decode(state).is_err();
        }
        assert!(saw_error);
        assert_eq!(adaptive.report().resyncs, 0);
    }

    #[test]
    fn lines_are_the_candidate_maximum() {
        let cfg = AdaptiveConfig::new(Width::W32, ["identity", "window(8)"], 64);
        let adaptive = AdaptiveTranscoder::new(cfg, Box::new(StaticPolicy::new(0))).unwrap();
        assert_eq!(adaptive.lines(), 34); // window(8): 32 data + 2 control
        assert!(adaptive.name().starts_with("adaptive(static(0)"));
    }

    #[test]
    fn unknown_candidate_is_rejected() {
        let cfg = AdaptiveConfig::new(Width::W32, ["wat(9)"], 64);
        assert!(AdaptiveTranscoder::new(cfg, Box::new(StaticPolicy::new(0))).is_err());
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_period_is_rejected() {
        let _ = AdaptiveConfig::new(Width::W32, ["identity"], 0);
    }

    #[test]
    #[should_panic(expected = "at least one candidate")]
    fn empty_pool_is_rejected() {
        let empty: [&str; 0] = [];
        let _ = AdaptiveConfig::new(Width::W32, empty, 64);
    }

    #[test]
    fn handle_outlives_the_wrapper() {
        let trace = phase_change_trace(2, 128);
        let adaptive = greedy(32);
        let (mut pair, handle) = adaptive.into_transcoder();
        let _ = evaluate_blocks(pair.encoder_mut(), &trace);
        assert_eq!(handle.report().words, trace.len() as u64);
    }
}
