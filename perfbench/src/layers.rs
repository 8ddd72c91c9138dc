//! The in-process layer pass: times trace generation, encode and τ/κ
//! accumulation by calling each layer's public functions directly, over
//! a trace-class × scheme matrix drawn from the experiments' own grid.

use std::hint::black_box;
use std::time::Instant;

use bench::workloads::Workload;
use buscoding::{evaluate_blocks, scheme_by_name, Activity, BLOCK_WORDS};
use bustrace::Trace;

use crate::stats::median;
use crate::Report;

/// Trace classes: metric prefix and the workload that produces them.
pub const CLASSES: [(&str, &str); 6] = [
    ("simcpu.trace_gen.register", "gcc/register"),
    ("simcpu.trace_gen.memory", "gcc/memory"),
    ("simcpu.trace_gen.address", "gcc/address"),
    ("simcpu.trace_gen.mixed", "mixed/gcc+perl/register/64"),
    ("bustrace.trace_gen.random", "random"),
    ("bustrace.trace_gen.phased", "phased/4096"),
];

/// Schemes: metric label and registry name. `identity` is the dispatch
/// floor, so encode minus identity is the predictor and codebook cost.
pub const SCHEMES: [(&str, &str); 10] = [
    ("identity", "identity"),
    ("window-8", "window(8)"),
    ("window-64", "window(64)"),
    ("stride-4", "stride(4)"),
    ("context-value", "context-value(28+8 d4096)"),
    ("context-transition", "context-transition(28+8 d4096)"),
    ("inversion-1ch", "inversion(1ch l1)"),
    ("inversion-6ch", "inversion(6ch l1)"),
    ("workzone-4", "workzone(4)"),
    ("fcm-2", "fcm(2 2^12)"),
];

/// Words per generated trace.
const VALUES: usize = 1 << 16;
/// Timed repetitions per measurement; the median is reported.
const REPS: usize = 5;

/// The layer owning `workload`'s trace generation.
pub fn trace_gen_layer(workload: &Workload) -> &'static str {
    match workload {
        Workload::Bench(..) | Workload::Mixed { .. } => "simcpu.trace_gen",
        Workload::Random | Workload::Phased { .. } => "bustrace.trace_gen",
    }
}

/// Builds `scheme` and encodes `trace` in [`BLOCK_WORDS`] chunks, the
/// way [`evaluate_blocks`] does. Returns the coded bus's line count and,
/// when `keep` is set, the concatenated bus states (the copy is left
/// out of timed calls).
pub fn encode(scheme: &str, trace: &Trace, keep: bool) -> (u32, Vec<u64>) {
    let mut pair = scheme_by_name(scheme, trace.width()).expect("layer schemes are registered");
    let encoder = pair.encoder_mut();
    encoder.reset();
    let mut states = Vec::new();
    let mut block = Vec::with_capacity(BLOCK_WORDS);
    for chunk in trace.values().chunks(BLOCK_WORDS) {
        block.clear();
        encoder.encode_block(chunk, &mut block);
        if keep {
            states.extend_from_slice(&block);
        }
        black_box(&block);
    }
    (encoder.lines(), states)
}

/// Folds bus states into an activity the way [`evaluate_blocks`] does:
/// from the all-low power-on state, one [`BLOCK_WORDS`] slice at a time.
pub fn accumulate(lines: u32, states: &[u64]) -> Activity {
    let mut activity = Activity::new(lines);
    activity.step(0);
    for chunk in states.chunks(BLOCK_WORDS) {
        activity.step_slice(chunk);
    }
    activity
}

/// Runs the layer pass and adds its metrics to `report`. Checks that
/// every (class, scheme) tally of the split encode/accumulate path
/// equals [`evaluate_blocks`].
pub fn run(seed: u64, report: &mut Report) {
    let mut traces = Vec::new();
    for (metric, name) in CLASSES {
        let workload = Workload::parse(name).expect("layer classes parse");
        let mut samples = Vec::new();
        for rep in 0..REPS {
            let start = Instant::now();
            let trace = black_box(workload.trace(VALUES, seed.wrapping_add(rep as u64)));
            samples.push(start.elapsed().as_nanos() as f64 / VALUES as f64);
            if rep == 0 {
                traces.push(trace);
            }
        }
        report.metric(format!("{metric}.ns_per_value"), median(&samples), "ns");
    }

    let words: usize = traces.iter().map(Trace::len).sum();
    let mut window_states = Vec::new();
    for (label, scheme) in SCHEMES {
        let mut samples = Vec::new();
        for _ in 0..REPS {
            let mut ns = 0u128;
            for trace in &traces {
                let start = Instant::now();
                encode(scheme, trace, false);
                ns += start.elapsed().as_nanos();
            }
            samples.push(ns as f64 / words as f64);
        }
        report.metric(
            format!("buscoding.encode.{label}.ns_per_value"),
            median(&samples),
            "ns",
        );

        let mut failed = 0;
        for trace in &traces {
            let mut pair = scheme_by_name(scheme, trace.width()).expect("registered");
            let (lines, states) = encode(scheme, trace, true);
            let split = accumulate(lines, &states);
            let fused = evaluate_blocks(pair.encoder_mut(), trace);
            if (split.tau(), split.kappa(), split.steps())
                != (fused.tau(), fused.kappa(), fused.steps())
            {
                eprintln!("layers: {scheme} tallies differ from evaluate_blocks");
                failed += 1;
            }
            if label == "window-8" {
                window_states.push((lines, states));
            }
        }
        report.checked(traces.len() as u64, failed);
    }

    let mut samples = Vec::new();
    for _ in 0..REPS {
        let start = Instant::now();
        for (lines, states) in &window_states {
            black_box(accumulate(*lines, states));
        }
        samples.push(start.elapsed().as_nanos() as f64 / words as f64);
    }
    report.metric("buscoding.accumulate.ns_per_value", median(&samples), "ns");
}
