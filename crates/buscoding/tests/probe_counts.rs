//! Pins the predictor accuracy probes to the encoder's own outcomes.
//!
//! The engine tallies outcomes per block and flushes them to
//! `buscoding.predict.*` once per block. After [`evaluate_blocks`], the
//! hit/miss counters and the `hit_rank` histogram must equal what a
//! per-word `encode` + `last_outcome()` loop counts on the same trace.
//! A predictive encoder/decoder pair must also cost exactly one
//! codebook build (`buscoding.codebook.builds`).

use std::sync::{Mutex, MutexGuard, OnceLock};

use std::sync::Arc;

use buscoding::predict::trained::{trained_codec, SignatureTable, TrainedTables};
use buscoding::predict::{
    context_transition_codec, context_value_codec, fcm_codec, stride_codec, window_codec,
    ContextConfig, EncodeOutcome, FcmConfig, PredictiveEncoder, Predictor, StrideConfig,
    WindowConfig,
};
use buscoding::{evaluate_blocks, scheme_by_name, CostModel, Encoder, BLOCK_WORDS};
use busprobe::MetricKind;
use bustrace::{Trace, Width};

/// The probe registry and its enabled flag are process-global.
fn probe_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let m = LOCK.get_or_init(|| Mutex::new(()));
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The `hit_rank` histogram's bucket bounds.
const RANK_BOUNDS: [u64; 7] = [0, 1, 2, 4, 8, 16, 32];

/// What the probes should read: rank-0 hits, ranked hits, misses, and
/// the ranked hits' histogram (buckets, count, sum).
#[derive(Debug, Default, PartialEq)]
struct Tallies {
    hit_last: u64,
    hit_ranked: u64,
    miss: u64,
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
}

/// Counts outcomes word by word, with probes off.
fn per_word<P: Predictor + Clone>(enc: &PredictiveEncoder<P>, trace: &Trace) -> Tallies {
    let mut enc = enc.clone();
    enc.reset();
    let mut t = Tallies {
        buckets: vec![0; RANK_BOUNDS.len() + 1],
        ..Tallies::default()
    };
    for &v in trace.values() {
        enc.encode(v);
        match enc.last_outcome().expect("an outcome per word") {
            EncodeOutcome::Hit { rank: 0 } => t.hit_last += 1,
            EncodeOutcome::Hit { rank } => {
                let rank = rank as u64;
                t.hit_ranked += 1;
                let bucket = RANK_BOUNDS.iter().position(|&b| rank <= b);
                t.buckets[bucket.unwrap_or(RANK_BOUNDS.len())] += 1;
                t.count += 1;
                t.sum += rank;
            }
            EncodeOutcome::MissRaw | EncodeOutcome::MissInverted => t.miss += 1,
        }
    }
    t
}

/// Reads the probes after one `evaluate_blocks` run from a zeroed
/// registry.
fn probed<P: Predictor + Clone>(enc: &PredictiveEncoder<P>, trace: &Trace) -> Tallies {
    let mut enc = enc.clone();
    busprobe::reset();
    busprobe::set_enabled(true);
    evaluate_blocks(&mut enc, trace);
    busprobe::set_enabled(false);
    let mut t = Tallies {
        buckets: vec![0; RANK_BOUNDS.len() + 1],
        ..Tallies::default()
    };
    for m in busprobe::snapshot() {
        match (m.name.as_str(), m.kind) {
            ("buscoding.predict.hit_last", MetricKind::Counter { value }) => t.hit_last = value,
            ("buscoding.predict.hit_ranked", MetricKind::Counter { value }) => t.hit_ranked = value,
            ("buscoding.predict.miss", MetricKind::Counter { value }) => t.miss = value,
            (
                "buscoding.predict.hit_rank",
                MetricKind::Histogram {
                    bounds,
                    buckets,
                    count,
                    sum,
                },
            ) => {
                assert_eq!(bounds, RANK_BOUNDS);
                (t.buckets, t.count, t.sum) = (buckets, count, sum);
            }
            _ => {}
        }
    }
    t
}

/// Several blocks of hot-set reuse, strided ramps, repeats and noise, so
/// every outcome kind and a spread of ranks occur.
fn trace() -> Trace {
    let mut x = 0x2545_f491u64;
    let values = (0..3 * BLOCK_WORDS as u64 + 777).map(|i| {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        match (x >> 60) % 4 {
            0 => 0x100 + (x >> 40) % 24,
            1 => 0x8000 + 4 * i,
            2 => 0x100 + (i / 3) % 5,
            _ => x >> 32,
        }
    });
    Trace::from_values(Width::W32, values)
}

fn check<P: Predictor + Clone>(enc: PredictiveEncoder<P>, trace: &Trace) {
    let want = per_word(&enc, trace);
    assert!(
        want.hit_last > 0 && want.hit_ranked > 0 && want.miss > 0,
        "{}: the trace should produce every outcome: {want:?}",
        enc.name()
    );
    assert_eq!(probed(&enc, trace), want, "{}", enc.name());
}

#[test]
fn block_flushed_probes_equal_per_word_outcomes() {
    let _g = probe_lock();
    let trace = trace();
    let w = Width::W32;
    check(window_codec(WindowConfig::new(w, 8)).0, &trace);
    check(window_codec(WindowConfig::new(w, 64)).0, &trace);
    check(stride_codec(StrideConfig::new(w, 4)).0, &trace);
    check(
        context_value_codec(ContextConfig::paper_default(w)).0,
        &trace,
    );
    check(
        context_transition_codec(ContextConfig::paper_default(w)).0,
        &trace,
    );
    check(fcm_codec(FcmConfig::new(w, 2, 12)).0, &trace);
}

/// The `buscoding.codebook.builds` counter after running `build` with
/// probes on, from a zeroed registry.
fn codebook_builds(build: impl FnOnce()) -> u64 {
    busprobe::reset();
    busprobe::set_enabled(true);
    build();
    busprobe::set_enabled(false);
    busprobe::snapshot()
        .into_iter()
        .find_map(|m| match (m.name.as_str(), m.kind) {
            ("buscoding.codebook.builds", MetricKind::Counter { value }) => Some(value),
            _ => None,
        })
        .unwrap_or(0)
}

#[test]
fn a_predictive_pair_builds_its_codebook_once() {
    let _g = probe_lock();
    for name in [
        "window(8)",
        "stride(4)",
        "context-value(28+8 d4096)",
        "context-transition(16+8 d4096)",
        "fcm(2 2^12)",
    ] {
        let builds = codebook_builds(|| {
            scheme_by_name(name, Width::W32).expect(name);
        });
        assert_eq!(builds, 1, "{name}");
    }
    // `trained:<name>` resolves an artifact on disk and then builds
    // through `trained_codec`.
    let tables = TrainedTables {
        name: "pin".into(),
        width: Width::W32,
        trained_values: 1,
        trained_traces: 1,
        codebook: vec![1, 2, 3],
        signatures: vec![SignatureTable {
            order: 1,
            entries: Vec::new(),
        }],
        strides: vec![4],
    };
    let builds = codebook_builds(|| {
        trained_codec(Arc::new(tables), CostModel::default());
    });
    assert_eq!(builds, 1, "trained");
}
