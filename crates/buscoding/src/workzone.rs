//! Working-zone encoding for address buses — the classic related-work
//! baseline of Musoll, Lang & Cortadella (ISLPED '97), cited by the
//! paper as \[15\] and adapted here to its transition-coded framework.
//!
//! Address streams cluster into a few *working zones* (an array being
//! walked, a stack frame, a hot table). The coder keeps one base
//! register per zone at each end of the bus. An address that lands
//! within a zone's window (32 words, or one per data line on narrower
//! buses) is transmitted as a **one-hot offset** on the
//! transition-coded data lines — a single wire toggle — plus the
//! zone id on a few control lines; anything else is sent raw and
//! installs a fresh zone (LRU replacement).
//!
//! This is the address-bus counterpart of the paper's dictionary
//! schemes: it exploits *spatial* locality where the window/context
//! coders exploit *value* locality.

use std::fmt;

use bustrace::{Width, Word};

use crate::codec::{Decoder, Encoder, RoundTripError};

/// Words per zone window on buses of 32 lines or more. The window never
/// exceeds the data lines, so a hit's offset is a single one-hot toggle.
const ZONE_WINDOW: u64 = 32;

/// Control-line encoding: low bit = miss flag; higher bits = zone id.
const CTRL_HIT: u64 = 0;
const CTRL_MISS: u64 = 1;

/// Shared state of the working-zone codec pair.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ZoneState {
    width: Width,
    /// Zone base addresses; index is the zone id.
    bases: Vec<Word>,
    /// LRU stamps parallel to `bases`.
    stamps: Vec<u64>,
    clock: u64,
    /// Current transition-coded data-line state.
    data: u64,
    /// Current control-line state.
    control: u64,
    /// Offset (within its zone) of the previous hit, for repeat
    /// detection.
    last_offset: Option<u64>,
}

impl ZoneState {
    fn new(width: Width, zones: usize) -> Self {
        assert!(
            width.bits() >= 6,
            "working-zone coding needs at least 6 address bits, got {width}"
        );
        assert!(
            (1..=16).contains(&zones),
            "zones must be in 1..=16, got {zones}"
        );
        ZoneState {
            width,
            bases: vec![Word::MAX; zones],
            stamps: vec![0; zones],
            clock: 0,
            data: 0,
            control: 0,
            last_offset: None,
        }
    }

    /// Words per zone window: one per data line, at most [`ZONE_WINDOW`].
    fn window(&self) -> u64 {
        ZONE_WINDOW.min(u64::from(self.width.bits()))
    }

    fn zone_id_lines(&self) -> u32 {
        usize::BITS - (self.bases.len() - 1).leading_zeros()
    }

    fn lines(&self) -> u32 {
        self.width.bits() + 1 + self.zone_id_lines()
    }

    fn reset(&mut self) {
        self.bases.fill(Word::MAX);
        self.stamps.fill(0);
        self.clock = 0;
        self.data = 0;
        self.control = 0;
        self.last_offset = None;
    }

    /// Which zone (if any) contains `addr`.
    fn find_zone(&self, addr: Word) -> Option<(usize, u64)> {
        self.bases.iter().enumerate().find_map(|(i, &base)| {
            let offset = addr.wrapping_sub(base) & self.width.mask();
            (base != Word::MAX && offset < self.window()).then_some((i, offset))
        })
    }

    /// Installs `addr` as the base of the least recently used zone.
    fn install(&mut self, addr: Word) -> usize {
        let victim = (0..self.bases.len())
            .min_by_key(|&i| self.stamps[i])
            .expect("zones >= 1");
        self.bases[victim] = addr;
        self.touch(victim);
        self.last_offset = Some(0);
        victim
    }

    fn touch(&mut self, zone: usize) {
        self.clock += 1;
        self.stamps[zone] = self.clock;
    }

    fn assemble(&self, zone: usize, miss: bool) -> u64 {
        let ctrl = if miss { CTRL_MISS } else { CTRL_HIT } | ((zone as u64) << 1);
        self.data | (ctrl << self.width.bits())
    }
}

/// The working-zone encoder.
///
/// # Example
///
/// ```
/// use bustrace::Width;
/// use buscoding::workzone::{WorkZoneDecoder, WorkZoneEncoder};
/// use buscoding::{Decoder, Encoder};
///
/// let mut enc = WorkZoneEncoder::new(Width::W32, 4);
/// let mut dec = WorkZoneDecoder::new(Width::W32, 4);
/// let a = enc.encode(0x1000_0000); // miss: installs a zone (cursor at 0)
/// let b = enc.encode(0x1000_0004); // hit: the one-hot cursor moves 0 -> 4
/// assert_eq!((a ^ b) & 0xFFFF_FFFF, (1 << 4) | 1);
/// assert_eq!(dec.decode(a)?, 0x1000_0000);
/// assert_eq!(dec.decode(b)?, 0x1000_0004);
/// # Ok::<(), buscoding::RoundTripError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkZoneEncoder {
    state: ZoneState,
}

impl WorkZoneEncoder {
    /// Creates an encoder with `zones` zone registers.
    ///
    /// # Panics
    ///
    /// Panics if the width is under 6 bits or `zones` is outside
    /// `1..=16`.
    pub fn new(width: Width, zones: usize) -> Self {
        WorkZoneEncoder {
            state: ZoneState::new(width, zones),
        }
    }
}

impl Encoder for WorkZoneEncoder {
    fn lines(&self) -> u32 {
        self.state.lines()
    }

    fn encode(&mut self, value: Word) -> u64 {
        let s = &mut self.state;
        let value = s.width.truncate(value);
        match s.find_zone(value) {
            Some((zone, offset)) => {
                // Transition-coded one-hot offset: a repeat of the same
                // offset toggles nothing; a new offset toggles one wire
                // (two if the previous offset's wire must fall — the
                // XOR delta encodes "previous offset -> new offset").
                let prev = s.last_offset.unwrap_or(offset);
                if prev != offset {
                    s.data ^= (1 << prev) | (1 << offset);
                } else if s.last_offset.is_none() {
                    s.data ^= 1 << offset;
                }
                s.last_offset = Some(offset);
                s.touch(zone);
                s.assemble(zone, false)
            }
            None => {
                let zone = s.install(value);
                s.data = value;
                s.last_offset = Some(0);
                s.assemble(zone, true)
            }
        }
    }

    fn encode_block(&mut self, words: &[Word], out: &mut Vec<u64>) {
        // Monomorphic zone-tracking loop: one dispatch per block.
        out.reserve(words.len());
        for &value in words {
            out.push(self.encode(value));
        }
    }

    fn reset(&mut self) {
        self.state.reset();
    }
}

/// The working-zone decoder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkZoneDecoder {
    state: ZoneState,
}

impl WorkZoneDecoder {
    /// Creates a decoder; must be configured identically to the paired
    /// encoder.
    pub fn new(width: Width, zones: usize) -> Self {
        WorkZoneDecoder {
            state: ZoneState::new(width, zones),
        }
    }
}

impl Decoder for WorkZoneDecoder {
    fn lines(&self) -> u32 {
        self.state.lines()
    }

    fn decode(&mut self, bus_state: u64) -> Result<Word, RoundTripError> {
        let s = &mut self.state;
        let data = bus_state & s.width.mask();
        let ctrl = bus_state >> s.width.bits();
        let miss = ctrl & 1 == CTRL_MISS;
        let zone = (ctrl >> 1) as usize;
        if zone >= s.bases.len() {
            return Err(RoundTripError::new(format!(
                "control lines name zone {zone}, but only {} exist",
                s.bases.len()
            )));
        }
        if miss {
            s.bases[zone] = data;
            s.touch(zone);
            s.data = data;
            s.last_offset = Some(0);
            return Ok(data);
        }
        // Hit: the XOR delta moves the one-hot offset.
        let delta = data ^ s.data;
        let prev = s
            .last_offset
            .ok_or_else(|| RoundTripError::new("hit observed before any zone was established"))?;
        let offset = match delta.count_ones() {
            0 => prev,
            2 if delta >> prev & 1 == 1 => u64::from((delta & !(1 << prev)).trailing_zeros()),
            _ => {
                return Err(RoundTripError::new(format!(
                    "hit delta {delta:#x} is not a one-hot offset move from {prev}"
                )))
            }
        };
        if offset >= s.window() {
            return Err(RoundTripError::new(format!(
                "offset {offset} outside the zone window"
            )));
        }
        let base = s.bases[zone];
        if base == Word::MAX {
            return Err(RoundTripError::new(format!(
                "hit in never-installed zone {zone}"
            )));
        }
        s.data = data;
        s.last_offset = Some(offset);
        s.touch(zone);
        Ok(s.width.truncate(base.wrapping_add(offset)))
    }

    fn reset(&mut self) {
        self.state.reset();
    }
}

impl fmt::Display for WorkZoneEncoder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "workzone({} zones) on a {} bus",
            self.state.bases.len(),
            self.state.width
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{evaluate_blocks, verify_roundtrip};
    use crate::identity::IdentityCodec;
    use crate::metrics::percent_energy_removed;
    use bustrace::Trace;

    #[test]
    fn sequential_walk_costs_one_toggle_per_address() {
        let mut enc = WorkZoneEncoder::new(Width::W32, 4);
        enc.reset();
        let mut prev = enc.encode(0x4000_0000);
        for i in 1..20u64 {
            let next = enc.encode(0x4000_0000 + i % ZONE_WINDOW);
            let toggles = (prev ^ next).count_ones();
            // Steady-state hits move the one-hot cursor: two data
            // toggles; the first hit also flips the miss/hit control
            // line.
            let budget = if i == 1 { 3 } else { 2 };
            assert!(toggles <= budget, "hit {i} cost {toggles} toggles");
            prev = next;
        }
    }

    #[test]
    fn narrow_buses_keep_the_offset_on_the_data_lines() {
        // A 16-line bus has a 16-word window: offset 20 must miss
        // rather than toggle a control line.
        let w16 = Width::new(16).unwrap();
        let trace = Trace::from_values(w16, (0..200u64).map(|i| 0x100 + i % 24));
        let mut enc = WorkZoneEncoder::new(w16, 12);
        let mut dec = WorkZoneDecoder::new(w16, 12);
        verify_roundtrip(&mut enc, &mut dec, &trace).unwrap();
    }

    #[test]
    fn round_trips_on_mixed_address_traffic() {
        let mut enc = WorkZoneEncoder::new(Width::W32, 4);
        let mut dec = WorkZoneDecoder::new(Width::W32, 4);
        let mut values = Vec::new();
        let mut x = 9u64;
        for i in 0..5_000u64 {
            match i % 5 {
                0 | 1 => values.push(0x1000_0000 + (i / 5) % 32), // array walk
                2 => values.push(0x7FFF_8000 + i % 8),            // stack-ish
                3 => values.push(0x2000_0000 + (i * 17) % 32),    // second array
                _ => {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(3);
                    values.push(x >> 20); // wild pointers
                }
            }
        }
        let trace = Trace::from_values(Width::W32, values);
        verify_roundtrip(&mut enc, &mut dec, &trace).unwrap();
    }

    #[test]
    fn interleaved_zones_all_hit() {
        let mut enc = WorkZoneEncoder::new(Width::W32, 4);
        let mut dec = WorkZoneDecoder::new(Width::W32, 4);
        enc.reset();
        dec.reset();
        // Establish three zones, then interleave hits among them.
        for base in [0x1000_0000u64, 0x2000_0000, 0x3000_0000] {
            let bus = enc.encode(base);
            assert_eq!(dec.decode(bus).unwrap(), base);
        }
        for i in 0..30u64 {
            let addr = [0x1000_0000u64, 0x2000_0000, 0x3000_0000][(i % 3) as usize] + i % 32;
            let bus = enc.encode(addr);
            assert_eq!(dec.decode(bus).unwrap(), addr, "i={i}");
        }
    }

    #[test]
    fn lru_replacement_evicts_stalest_zone() {
        let mut enc = WorkZoneEncoder::new(Width::W32, 2);
        enc.reset();
        enc.encode(0x1000_0000); // zone A
        enc.encode(0x2000_0000); // zone B
        enc.encode(0x2000_0001); // touch B
        enc.encode(0x3000_0000); // must evict A
                                 // A is gone: this address misses again (installs over B or C).
        let s = format!("{enc}");
        assert!(s.contains("2 zones"));
        assert!(
            enc.state.find_zone(0x1000_0000).is_none(),
            "A should be evicted"
        );
        assert!(
            enc.state.find_zone(0x2000_0001).is_some(),
            "B should survive"
        );
    }

    #[test]
    fn removes_energy_on_address_like_traffic() {
        // Two interleaved sequential streams with tagged high halves —
        // the traffic shape of a real address bus.
        let mut values = Vec::new();
        for i in 0..40_000u64 {
            if i % 2 == 0 {
                values.push(0x5100_0000 + (i / 2) % 32);
            } else {
                values.push(0x52EE_0000 + (i / 2) % 32);
            }
        }
        let trace = Trace::from_values(Width::W32, values);
        let mut enc = WorkZoneEncoder::new(Width::W32, 4);
        let coded = evaluate_blocks(&mut enc, &trace);
        let baseline = evaluate_blocks(&mut IdentityCodec::new(Width::W32), &trace);
        let removed = percent_energy_removed(&coded, &baseline, 1.0);
        assert!(removed > 60.0, "removed only {removed:.1}%");
    }

    #[test]
    fn decoder_rejects_bogus_zone() {
        let mut dec = WorkZoneDecoder::new(Width::W32, 2);
        dec.reset();
        let bogus = (7u64 << 33) | 5; // zone id 3 of 2
        assert!(dec.decode(bogus).is_err());
    }

    #[test]
    #[should_panic(expected = "zones must be in")]
    fn rejects_zero_zones() {
        let _ = WorkZoneEncoder::new(Width::W32, 0);
    }
}
