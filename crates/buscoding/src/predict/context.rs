//! The context-based transcoder (Section 4.3, Figures 12–14, 20–25).
//!
//! Two cooperating structures track value statistics:
//!
//! * a **frequency table** of the hottest entries, kept sorted by
//!   frequency so that an entry's *position* is its code (hotter entries
//!   earn lower-weight codes); and
//! * a **staging shift register**: new values accumulate frequency
//!   counts there and are promoted into the table only if, when shifted
//!   out, their count clears a threshold and beats the table's
//!   least-frequent entry — this avoids thrashing the table's coldest
//!   slot.
//!
//! A periodic **counter division** (every `divide_period` inputs, all
//! counters halve) ages out statistics from earlier program phases
//! (Figure 25).
//!
//! The **value-based** flavor (Figure 13) keys entries on bus values;
//! the **transition-based** flavor (Figure 14) keys on (previous value →
//! value) pairs. The paper finds value-based superior at equal hardware
//! because a 32-bit bus has 2³² states but nearly 2⁶⁴ arcs, so arc
//! frequencies are more dilute.

use bustrace::{Width, Word};

use crate::energy::CostModel;
use crate::predict::{
    cam_find, predictive_codec, rank_at, PredictiveDecoder, PredictiveEncoder, Predictor, Ring,
    ABSENT,
};

/// Configuration shared by both context-transcoder flavors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContextConfig {
    /// Bus width.
    pub width: Width,
    /// Frequency-table entries (the paper's optimum: 20–32).
    pub table_entries: usize,
    /// Staging shift-register entries (the paper's trade-off point: 8).
    pub shift_entries: usize,
    /// Inputs between counter divisions (the paper levels off at 4096).
    /// Zero disables division.
    pub divide_period: u64,
    /// Minimum staged count for a shift-register entry to be considered
    /// for promotion when it exits.
    pub promote_threshold: u64,
    /// Cost model for codebook ordering and miss decisions.
    pub cost: CostModel,
}

impl ContextConfig {
    /// Creates the paper's default configuration (table 28, shift
    /// register 8, divide every 4096, λ = 1) at the given width, sized
    /// like the Figure 32 layout.
    pub fn paper_default(width: Width) -> Self {
        ContextConfig {
            width,
            table_entries: 28,
            shift_entries: 8,
            divide_period: 4096,
            promote_threshold: 2,
            cost: CostModel::default(),
        }
    }

    /// Creates a configuration with explicit structure sizes and default
    /// aging parameters.
    ///
    /// # Panics
    ///
    /// Panics if either structure has zero entries.
    pub fn new(width: Width, table_entries: usize, shift_entries: usize) -> Self {
        assert!(
            table_entries >= 1,
            "frequency table needs at least one entry"
        );
        assert!(
            shift_entries >= 1,
            "shift register needs at least one entry"
        );
        ContextConfig {
            width,
            table_entries,
            shift_entries,
            divide_period: 4096,
            promote_threshold: 2,
            cost: CostModel::default(),
        }
    }

    /// Replaces the counter-division period (0 disables).
    #[must_use]
    pub fn with_divide_period(mut self, period: u64) -> Self {
        self.divide_period = period;
        self
    }

    /// Replaces the promotion threshold.
    #[must_use]
    pub fn with_promote_threshold(mut self, threshold: u64) -> Self {
        self.promote_threshold = threshold;
        self
    }

    /// Replaces the cost model.
    #[must_use]
    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }
}

/// A sorted frequency table with staged promotion — the behavioral model
/// shared by both flavors (the key type differs).
///
/// Membership stays a linear scan on purpose: the table tops out at 64
/// entries (one cache line per eight), which a scan beats any hashed
/// index at — measured on the figure-20..25 sweeps. The scan is the
/// predictor's rank scan: it also reports where the key sits, and that
/// slot drives [`record`](Self::record) without a second search.
#[derive(Debug, Clone)]
struct FrequencyCore<K> {
    table_entries: usize,
    divide_period: u64,
    promote_threshold: u64,
    /// Sorted by descending frequency; position is the code rank.
    table: Vec<(K, u64)>,
    /// The staging shift register.
    sr: Ring<(K, u64)>,
    seen: u64,
}

/// Where the rank scan found a key.
#[derive(Debug, Clone, Copy)]
enum Found {
    /// At this frequency-table position.
    Table(usize),
    /// In this staging-register slot.
    Staged(usize),
    /// Nowhere: the key is new.
    New,
}

impl<K: PartialEq + Copy + Default> FrequencyCore<K> {
    fn new(cfg: &ContextConfig) -> Self {
        assert!(
            cfg.table_entries >= 1,
            "frequency table needs at least one entry"
        );
        assert!(
            cfg.shift_entries >= 1,
            "shift register needs at least one entry"
        );
        FrequencyCore {
            table_entries: cfg.table_entries,
            divide_period: cfg.divide_period,
            promote_threshold: cfg.promote_threshold,
            table: Vec::with_capacity(cfg.table_entries),
            sr: Ring::new(cfg.shift_entries),
            seen: 0,
        }
    }

    fn reset(&mut self) {
        self.table.clear();
        self.sr.clear();
        self.seen = 0;
    }

    /// Records one observation of `key`, found at `found`, maintaining
    /// sortedness and staging.
    fn record(&mut self, key: K, found: Found) {
        self.seen += 1;
        if self.divide_period > 0 && self.seen.is_multiple_of(self.divide_period) {
            // Halving keeps the order, so `found` stays valid.
            for e in &mut self.table {
                e.1 /= 2;
            }
            for e in self.sr.slots_mut() {
                e.1 /= 2;
            }
        }
        match found {
            Found::Table(pos) => {
                self.table[pos].1 += 1;
                // Bubble up past entries with strictly lower counts; ties
                // keep their order (the hardware's pending-bit sort makes
                // the same guarantee, Section 5.3.1).
                let mut p = pos;
                while p > 0 && self.table[p].1 > self.table[p - 1].1 {
                    self.table.swap(p, p - 1);
                    p -= 1;
                }
            }
            Found::Staged(slot) => self.sr.slots_mut()[slot].1 += 1,
            // New key: stage it; a full shift register evicts its oldest
            // entry, which gets one shot at promotion into the table.
            Found::New => {
                if let Some((exit_key, exit_count)) = self.sr.push((key, 1)) {
                    self.maybe_promote(exit_key, exit_count);
                }
            }
        }
    }

    fn maybe_promote(&mut self, key: K, count: u64) {
        if count < self.promote_threshold {
            return;
        }
        if self.table.len() < self.table_entries {
            self.insert_sorted(key, count);
        } else if let Some(last) = self.table.last() {
            if count > last.1 {
                self.table.pop();
                self.insert_sorted(key, count);
            }
        }
    }

    fn insert_sorted(&mut self, key: K, count: u64) {
        let pos = self.table.partition_point(|e| e.1 >= count);
        self.table.insert(pos, (key, count));
    }

    /// Invariant check used by tests: descending counts.
    #[cfg(test)]
    fn is_sorted(&self) -> bool {
        self.table.windows(2).all(|w| w[0].1 >= w[1].1)
    }
}

/// The value-based context predictor (Figure 13): candidates are the
/// frequency-table values (hottest first), then the staged values
/// (newest first).
#[derive(Debug, Clone)]
pub struct ValueContextPredictor {
    core: FrequencyCore<Word>,
}

impl ValueContextPredictor {
    /// Creates a predictor from the configuration's structure sizes.
    pub fn new(cfg: &ContextConfig) -> Self {
        ValueContextPredictor {
            core: FrequencyCore::new(cfg),
        }
    }

    /// Current frequency-table contents (value, count), hottest first.
    pub fn table(&self) -> impl Iterator<Item = (Word, u64)> + '_ {
        self.core.table.iter().copied()
    }
}

impl Predictor for ValueContextPredictor {
    fn name(&self) -> String {
        format!(
            "context-value({}+{})",
            self.core.table_entries,
            self.core.sr.capacity()
        )
    }

    fn max_candidates(&self) -> usize {
        self.core.table_entries + self.core.sr.capacity()
    }

    fn candidate(&self, index: usize) -> Option<Word> {
        match self.core.table.get(index) {
            Some(&(value, _)) => Some(value),
            None => self.core.sr.get(index - self.core.table.len()).map(|e| e.0),
        }
    }

    fn observe(&mut self, value: Word) {
        self.step(value, None, 0);
    }

    /// Compare passes over the table; only a value not in the table
    /// needs those over the staging register (whose entries rank after
    /// the whole table, newest first). Without a LAST, `value` stands in
    /// for it: at `value`'s own position it never counts as in front.
    #[inline]
    fn step(&mut self, value: Word, last: Option<Word>, cap: usize) -> Option<usize> {
        let core = &mut self.core;
        let key = |e: (Word, u64)| e.0;
        let last_key = last.unwrap_or(value);
        let in_table = cam_find(&core.table, key, value);
        let last_in_table = cam_find(&core.table, key, last_key);
        let (found, value_at, last_at) = if in_table != ABSENT {
            (Found::Table(in_table), in_table, last_in_table)
        } else {
            let staged = cam_find(core.sr.slots(), key, value);
            let last_staged = cam_find(core.sr.slots(), key, last_key);
            let order = |slot| {
                if slot == ABSENT {
                    ABSENT
                } else {
                    core.table.len() + core.sr.back_from_newest(slot)
                }
            };
            let last_at = last_in_table.min(order(last_staged));
            if staged == ABSENT {
                (Found::New, ABSENT, last_at)
            } else {
                (Found::Staged(staged), order(staged), last_at)
            }
        };
        let rank = rank_at(value_at, last_at, last == Some(value), cap);
        core.record(value, found);
        rank
    }

    fn reset(&mut self) {
        self.core.reset();
    }
}

/// The transition-based context predictor (Figure 14): entries are
/// (previous value → value) arcs; candidates are the successors of the
/// current value, hottest first.
#[derive(Debug, Clone)]
pub struct TransitionContextPredictor {
    core: FrequencyCore<(Word, Word)>,
    last: Option<Word>,
}

impl TransitionContextPredictor {
    /// Creates a predictor from the configuration's structure sizes.
    pub fn new(cfg: &ContextConfig) -> Self {
        TransitionContextPredictor {
            core: FrequencyCore::new(cfg),
            last: None,
        }
    }

    /// The arcs leaving `from`, each with its slot, in candidate order:
    /// the table (hottest first), then the staging register (newest
    /// first).
    fn successors(&self, from: Word) -> impl Iterator<Item = (Found, Word)> + '_ {
        let table = self.core.table.iter().enumerate();
        let staged = self.core.sr.newest_first();
        table
            .map(|(pos, &(arc, _))| (Found::Table(pos), arc))
            .chain(staged.map(|(slot, (arc, _))| (Found::Staged(slot), arc)))
            .filter(move |&(_, (prev, _))| prev == from)
            .map(|(slot, (_, next))| (slot, next))
    }
}

impl Predictor for TransitionContextPredictor {
    fn name(&self) -> String {
        format!(
            "context-transition({}+{})",
            self.core.table_entries,
            self.core.sr.capacity()
        )
    }

    fn max_candidates(&self) -> usize {
        self.core.table_entries + self.core.sr.capacity()
    }

    fn candidate(&self, index: usize) -> Option<Word> {
        let (_, next) = self.successors(self.last?).nth(index)?;
        Some(next)
    }

    fn observe(&mut self, value: Word) {
        self.step(value, None, 0);
    }

    /// One pass over the successors of the previous value: their order
    /// gives the rank, and the arc to `value` among them is the slot the
    /// update bumps.
    #[inline]
    fn step(&mut self, value: Word, last: Option<Word>, cap: usize) -> Option<usize> {
        let mut found = Found::New;
        let (mut value_at, mut last_at) = (ABSENT, ABSENT);
        if let Some(prev) = self.last {
            for (n, (slot, next)) in self.successors(prev).enumerate() {
                if next == value && value_at == ABSENT {
                    (value_at, found) = (n, slot);
                }
                if Some(next) == last && last_at == ABSENT {
                    last_at = n;
                }
            }
            self.core.record((prev, value), found);
        }
        self.last = Some(value);
        rank_at(value_at, last_at, last == Some(value), cap)
    }

    fn reset(&mut self) {
        self.core.reset();
        self.last = None;
    }
}

/// Builds a matched encoder/decoder pair for the value-based context
/// scheme.
pub fn context_value_codec(
    config: ContextConfig,
) -> (
    PredictiveEncoder<ValueContextPredictor>,
    PredictiveDecoder<ValueContextPredictor>,
) {
    predictive_codec(
        config.width,
        ValueContextPredictor::new(&config),
        config.cost,
    )
}

/// Builds a matched encoder/decoder pair for the transition-based
/// context scheme.
pub fn context_transition_codec(
    config: ContextConfig,
) -> (
    PredictiveEncoder<TransitionContextPredictor>,
    PredictiveDecoder<TransitionContextPredictor>,
) {
    predictive_codec(
        config.width,
        TransitionContextPredictor::new(&config),
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

    fn cfg(table: usize, sr: usize) -> ContextConfig {
        ContextConfig::new(Width::W32, table, sr)
    }

    #[test]
    fn hot_values_reach_the_table_top() {
        let mut p = ValueContextPredictor::new(&cfg(4, 2));
        // 0xAA appears constantly, with enough other traffic to push it
        // through the staging register into the table.
        for i in 0..200u64 {
            p.observe(0xAA);
            p.observe(i); // churn
        }
        assert_eq!(
            p.candidate(0),
            Some(0xAA),
            "table: {:?}",
            p.table().collect::<Vec<_>>()
        );
    }

    #[test]
    fn table_stays_sorted_under_arbitrary_traffic() {
        let mut p = ValueContextPredictor::new(&cfg(8, 4));
        let mut x = 3u64;
        for _ in 0..20_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            p.observe((x >> 55) * 3); // ~512 distinct values, skewed reuse
            assert!(p.core.is_sorted());
        }
    }

    #[test]
    fn staging_prevents_cold_values_from_entering_table() {
        let mut p = ValueContextPredictor::new(&cfg(2, 2));
        // Two hot values...
        for _ in 0..50 {
            p.observe(1);
            p.observe(2);
        }
        // ...then a stream of once-only values must not evict them.
        for i in 100..200u64 {
            p.observe(i);
        }
        let table: Vec<Word> = p.table().map(|(v, _)| v).collect();
        assert!(table.contains(&1) && table.contains(&2), "table: {table:?}");
    }

    #[test]
    fn counter_division_ages_old_phases() {
        let mut aging = ValueContextPredictor::new(&cfg(2, 2));
        let mut frozen = ValueContextPredictor::new(&cfg(2, 2).with_divide_period(0));
        // Phase 1: value 7 dominates.
        for _ in 0..3000 {
            aging.observe(7);
            frozen.observe(7);
        }
        // Phase 2: value 9 dominates; interleave churn so staging flows.
        for i in 0..3000u64 {
            for p in [&mut aging, &mut frozen] {
                p.observe(9);
                p.observe(1_000_000 + (i % 64));
            }
        }
        let top_aging = aging.candidate(0);
        // With division, the new phase's hot value overtakes the stale
        // one; without, 7's huge stale count keeps the top slot.
        assert_eq!(top_aging, Some(9));
        assert_eq!(frozen.candidate(0), Some(7));
    }

    #[test]
    fn value_codec_round_trips() {
        let (mut enc, mut dec) = context_value_codec(ContextConfig::paper_default(Width::W32));
        let mut trace = Trace::new(Width::W32);
        let mut x = 5u64;
        for i in 0..10_000u64 {
            if i % 3 != 0 {
                trace.push(0x5000 + (i % 20));
            } else {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(3);
                trace.push(x >> 9);
            }
        }
        verify_roundtrip(&mut enc, &mut dec, &trace).unwrap();
    }

    #[test]
    fn transition_codec_round_trips() {
        let (mut enc, mut dec) = context_transition_codec(ContextConfig::new(Width::W32, 16, 8));
        let mut trace = Trace::new(Width::W32);
        let mut x = 55u64;
        for i in 0..10_000u64 {
            match i % 4 {
                0 => trace.push(1),
                1 => trace.push(2),
                2 => trace.push(3),
                _ => {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(7);
                    trace.push(x >> 33);
                }
            }
        }
        verify_roundtrip(&mut enc, &mut dec, &trace).unwrap();
    }

    #[test]
    fn transition_flavor_learns_cycles() {
        let mut p = TransitionContextPredictor::new(&cfg(8, 4));
        for _ in 0..300 {
            for v in [10u64, 20, 30] {
                p.observe(v);
            }
        }
        // After seeing 10 -> 20 hundreds of times, the successor of 10
        // must be the top candidate once 10 is observed.
        p.observe(10);
        assert_eq!(p.candidate(0), Some(20));
    }

    #[test]
    fn value_flavor_beats_transition_flavor_at_equal_hardware() {
        // The paper's Figures 20-23 conclusion: more arcs than states
        // dilutes the transition table. Working-set traffic where values
        // recur but in varying orders shows the gap.
        let mut x = 9u64;
        let set: Vec<u64> = (0..40).map(|i| 0xA000 + i * 17).collect();
        let mut trace = Trace::new(Width::W32);
        for _ in 0..40_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(11);
            trace.push(set[((x >> 50) % 40) as usize]);
        }
        let baseline = evaluate_blocks(&mut IdentityCodec::new(Width::W32), &trace);
        let (mut venc, _) = context_value_codec(cfg(24, 8));
        let (mut tenc, _) = context_transition_codec(cfg(24, 8));
        let v = percent_energy_removed(&evaluate_blocks(&mut venc, &trace), &baseline, 1.0);
        let t = percent_energy_removed(&evaluate_blocks(&mut tenc, &trace), &baseline, 1.0);
        assert!(v > t, "value {v:.1}% should beat transition {t:.1}%");
    }

    #[test]
    fn transition_flavor_wins_on_markov_traffic() {
        // The converse of the paper's Figures 20-23 finding: when each
        // value has a *unique likely successor* (first-order Markov ring)
        // and all values are equally common, transition context carries
        // the information and value context does not.
        use bustrace::generators::{MarkovGen, TraceGenerator};
        let mut g = MarkovGen::ring(Width::W32, 20, 0.97, 11);
        let trace = g.generate(40_000);
        let baseline = evaluate_blocks(&mut IdentityCodec::new(Width::W32), &trace);
        let (mut tenc, _) = context_transition_codec(cfg(24, 8));
        let (mut venc, _) = context_value_codec(cfg(24, 8));
        let t = percent_energy_removed(&evaluate_blocks(&mut tenc, &trace), &baseline, 1.0);
        let v = percent_energy_removed(&evaluate_blocks(&mut venc, &trace), &baseline, 1.0);
        assert!(
            t > v,
            "transition {t:.1}% should beat value {v:.1}% on Markov traffic"
        );
        assert!(t > 60.0, "transition flavor should excel here: {t:.1}%");
    }

    #[test]
    fn removes_energy_on_skewed_traffic() {
        let mut x = 77u64;
        let set: Vec<u64> = (0..64)
            .map(|i| 0x1234_5678u64.wrapping_mul(i + 1))
            .collect();
        let mut trace = Trace::new(Width::W32);
        for _ in 0..40_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(23);
            // Zipf-ish: low ranks much more likely.
            let r = ((x >> 48) as f64 / 65536.0).powi(3);
            trace.push(set[(r * 63.0) as usize]);
        }
        let baseline = evaluate_blocks(&mut IdentityCodec::new(Width::W32), &trace);
        let (mut enc, _) = context_value_codec(cfg(28, 8));
        let removed = percent_energy_removed(&evaluate_blocks(&mut enc, &trace), &baseline, 1.0);
        assert!(removed > 30.0, "removed only {removed:.1}%");
    }

    #[test]
    fn config_builders() {
        let c = ContextConfig::paper_default(Width::W32)
            .with_divide_period(64)
            .with_promote_threshold(5)
            .with_cost(CostModel::coupling_blind());
        assert_eq!(c.divide_period, 64);
        assert_eq!(c.promote_threshold, 5);
        assert_eq!(c.cost.lambda(), 0.0);
        assert_eq!(c.table_entries, 28);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn rejects_empty_table() {
        let _ = ContextConfig::new(Width::W32, 0, 4);
    }
}
