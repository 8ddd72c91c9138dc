//! Plug a custom value predictor into the transcoding engine.
//!
//! The engine (Figure 2 of the paper) is predictor-agnostic: anything
//! that offers a confidence-ranked candidate list and updates from the
//! confirmed value stream can drive the bus. Here we build a simple
//! two-level predictor — a per-low-byte last-value table — and verify it
//! round-trips and saves energy on traffic it suits.
//!
//! ```sh
//! cargo run --release --example custom_predictor
//! ```

use buscoding::predict::{PredictiveDecoder, PredictiveEncoder, Predictor};
use buscoding::{
    evaluate_blocks, percent_energy_removed, verify_roundtrip, CostModel, IdentityCodec,
};
use bustrace::{Trace, Width, Word};

/// Predicts the last value seen *for the current stream class*, where
/// the class is the low byte of the previous word — useful when several
/// tagged streams interleave on one bus.
#[derive(Debug, Clone)]
struct TaggedLastValue {
    table: Vec<Option<Word>>,
    previous: Option<Word>,
}

impl TaggedLastValue {
    fn new() -> Self {
        TaggedLastValue {
            table: vec![None; 256],
            previous: None,
        }
    }

    fn class_of(word: Word) -> usize {
        (word & 0xFF) as usize
    }
}

impl Predictor for TaggedLastValue {
    fn name(&self) -> String {
        "tagged-last-value".into()
    }

    fn max_candidates(&self) -> usize {
        1
    }

    fn candidate(&self, index: usize) -> Option<Word> {
        if index > 0 {
            return None;
        }
        self.previous.and_then(|p| self.table[Self::class_of(p)])
    }

    fn observe(&mut self, value: Word) {
        if let Some(p) = self.previous {
            self.table[Self::class_of(p)] = Some(value);
        }
        self.previous = Some(value);
    }

    fn reset(&mut self) {
        self.table.fill(None);
        self.previous = None;
    }
}

fn main() {
    // Traffic: four interleaved streams, each repeating its own value
    // with occasional drift; the stream id lives in the low byte.
    let mut values = Vec::new();
    let mut bases = [0x1111_1100u64, 0x2222_2200, 0x3333_3300, 0x4444_4400];
    for i in 0..80_000usize {
        let s = i % 4;
        if i % 97 == 0 {
            bases[s] = bases[s].wrapping_add(0x0101_0000);
        }
        values.push(bases[s] | s as u64);
    }
    let trace = Trace::from_values(Width::W32, values);

    let cost = CostModel::default();
    let mut enc = PredictiveEncoder::new(Width::W32, TaggedLastValue::new(), cost);
    let mut dec = PredictiveDecoder::new(Width::W32, TaggedLastValue::new(), cost);

    // Correctness first: the decoder must recover every word.
    verify_roundtrip(&mut enc, &mut dec, &trace).expect("custom predictor must round-trip");
    println!("round-trip: ok ({} values)", trace.len());

    // Then effectiveness.
    let coded = evaluate_blocks(&mut enc, &trace);
    let baseline = evaluate_blocks(&mut IdentityCodec::new(Width::W32), &trace);
    let removed = percent_energy_removed(&coded, &baseline, 1.0);
    println!("tagged-last-value removes {removed:.1}% of weighted transitions");

    // Compare with the paper's window scheme on the same traffic.
    use buscoding::predict::{window_codec, WindowConfig};
    let (mut wenc, _) = window_codec(WindowConfig::new(Width::W32, 8));
    let wcoded = evaluate_blocks(&mut wenc, &trace);
    let wremoved = percent_energy_removed(&wcoded, &baseline, 1.0);
    println!("window(8) removes {wremoved:.1}% on the same traffic");
}
