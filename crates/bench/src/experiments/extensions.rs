//! Extension experiments beyond the paper's evaluation: the Section 6
//! future-work items and additional design-space probes.

use buscoding::predict::{MissPolicy, PredictiveEncoder, WindowPredictor};
use buscoding::spatial::spatial_activity;
use buscoding::varlen::huffman_study;
use buscoding::{evaluate_blocks, percent_energy_removed, CostModel, SchemeSpec};
use bustrace::generators::{TraceGenerator, WorkingSetGen};
use bustrace::{Trace, Width};
use simcpu::{Benchmark, BusKind};

use crate::experiments::par_map;
use crate::report::{f, Table};
use crate::schemes::{baseline_activity, CONTEXT28};
use crate::session::ActivityQuery;
use crate::workloads::Workload;
use crate::Session;

/// Most extension studies cap their traces at 100k values.
const CAP: usize = 100_000;

/// The window(8) transcoder, the extensions' reference scheme.
const WINDOW8: SchemeSpec = SchemeSpec::Window(8);

/// Percent of energy window(8) removes from a trace the session does
/// not store (λ = 1).
fn window8_removed(trace: &Trace) -> f64 {
    let mut pair = WINDOW8
        .build(trace.width())
        .expect("window(8) fits every swept width");
    let coded = evaluate_blocks(pair.encoder_mut(), trace);
    percent_energy_removed(&coded, &baseline_activity(trace), 1.0)
}

/// Section 6: how much would variable-length coding buy, and at what
/// timing cost? Oracle Huffman over each trace, serialized over 8 and
/// 32 lanes, against the window transcoder's fixed-length savings.
pub fn varlen(session: &Session) -> Vec<Table> {
    let mut t = Table::new(
        "ext-varlen",
        "Variable-length (oracle Huffman) coding vs fixed-length transcoding (register bus)",
        &[
            "workload",
            "huffman_bits_per_value",
            "escape_frac",
            "cycles_per_value_8lanes",
            "varlen_tau_ratio",
            "window8_removed_pct",
        ],
    );
    let rows = par_map(
        vec![
            Benchmark::Li,
            Benchmark::Gcc,
            Benchmark::Compress,
            Benchmark::Swim,
            Benchmark::M88ksim,
        ],
        move |b| {
            let w = Workload::Bench(b, BusKind::Register);
            let trace = session.trace_capped(w, CAP);
            let study = huffman_study(&trace, 256, 8);
            let baseline = session.baseline_capped(w, CAP);
            let tau_ratio = study.serialized.tau() as f64 / baseline.tau() as f64;
            let coded = session.activity(&ActivityQuery::new(WINDOW8.to_string(), w).cap(CAP));
            let window = percent_energy_removed(&coded, &baseline, 1.0);
            (
                format!("{b}/register"),
                study.huffman_bits_per_value,
                study.escape_fraction,
                study.cycles_per_value,
                tau_ratio,
                window,
            )
        },
    );
    for (name, bits, escape, cpv, ratio, window) in rows {
        t.push(vec![
            name,
            f(bits, 2),
            f(escape, 3),
            f(cpv, 2),
            f(ratio, 3),
            f(window, 1),
        ]);
    }
    vec![t]
}

/// Bus-width sensitivity: the same working-set traffic carried on buses
/// of different widths. Wider buses pay more per miss, so dictionary
/// coding helps more.
pub fn width(session: &Session) -> Vec<Table> {
    let mut t = Table::new(
        "ext-width",
        "Window-8 savings vs bus width (working-set traffic)",
        &["width_bits", "percent_removed"],
    );
    let values = session.values().min(CAP);
    for bits in [8u32, 16, 24, 32, 48, 62] {
        let w = Width::new(bits).expect("valid width");
        let trace = WorkingSetGen::new(w, 32, 0.8, 0.005, session.seed()).generate(values);
        let removed = window8_removed(&trace);
        t.push(vec![bits.to_string(), f(removed, 1)]);
    }
    vec![t]
}

/// The spatial coder as a bound: exact one-hot activity (2^32 wires,
/// utterly impractical) against the window transcoder on the same
/// traffic — quantifying how much headroom fixed-width transcoding
/// leaves on the table.
pub fn spatial_bound(session: &Session) -> Vec<Table> {
    let mut t = Table::new(
        "ext-spatial",
        "Spatial (one-hot) bound vs window transcoder, tau only (register bus)",
        &[
            "workload",
            "baseline_tau_per_value",
            "spatial_tau_per_value",
            "window8_tau_per_value",
        ],
    );
    let rows = par_map(
        vec![Benchmark::Go, Benchmark::Li, Benchmark::Gcc],
        move |b| {
            let w = Workload::Bench(b, BusKind::Register);
            let trace = session.trace_capped(w, CAP);
            let n = trace.len() as f64;
            let baseline = session.baseline_capped(w, CAP);
            let spatial = spatial_activity(&trace);
            let window = session.activity(&ActivityQuery::new(WINDOW8.to_string(), w).cap(CAP));
            (
                format!("{b}/register"),
                baseline.tau() as f64 / n,
                spatial.tau as f64 / n,
                window.tau() as f64 / n,
            )
        },
    );
    for (name, base, spatial, window) in rows {
        t.push(vec![name, f(base, 2), f(spatial, 2), f(window, 2)]);
    }
    vec![t]
}

/// Address-bus study: the related-work domain. Spatial-locality coding
/// (working zones) against the paper's value-locality schemes on the
/// memory address bus.
pub fn address_bus(session: &Session) -> Vec<Table> {
    let mut t = Table::new(
        "ext-address",
        "Coding schemes on the memory address bus (% energy removed)",
        &[
            "workload",
            "workzone4",
            "stride8",
            "window8",
            "context28",
            "businvert",
        ],
    );
    let schemes = [
        SchemeSpec::WorkZone(4),
        SchemeSpec::Stride(8),
        WINDOW8,
        CONTEXT28,
        SchemeSpec::Inversion {
            chunks: 1,
            lambda: 1.0,
        },
    ];
    let rows = par_map(
        vec![
            Benchmark::Gcc,
            Benchmark::Li,
            Benchmark::Swim,
            Benchmark::Mgrid,
            Benchmark::Wave5,
            Benchmark::Compress,
        ],
        move |b| {
            let w = Workload::Bench(b, BusKind::Address);
            let baseline = session.baseline_capped(w, CAP);
            let removed: Vec<f64> = schemes
                .iter()
                .map(|s| {
                    let coded = session.activity(&ActivityQuery::new(s.to_string(), w).cap(CAP));
                    percent_energy_removed(&coded, &baseline, 1.0)
                })
                .collect();
            (format!("{b}/address"), removed)
        },
    );
    for (name, removed) in rows {
        let mut row = vec![name];
        row.extend(removed.iter().map(|&r| f(r, 1)));
        t.push(row);
    }
    vec![t]
}

/// Ablation: the inverted-miss fallback's contribution — window-8 with
/// and without the "raw inverted" control state.
pub fn miss_policy(session: &Session) -> Vec<Table> {
    let mut t = Table::new(
        "ablation-invert",
        "Miss policy: raw-or-inverted vs raw-only (window-8, register bus)",
        &["workload", "raw_or_inverted_pct", "raw_only_pct"],
    );
    let rows = par_map(
        vec![
            Benchmark::Gcc,
            Benchmark::Swim,
            Benchmark::M88ksim,
            Benchmark::Wave5,
        ],
        move |b| {
            let w = Workload::Bench(b, BusKind::Register);
            let trace = session.trace_capped(w, CAP);
            let baseline = session.baseline_capped(w, CAP);
            // The raw-or-inverted default *is* window(8): share the
            // session store. RawOnly isn't a registry scheme, so it
            // runs the block engine directly.
            let both = session.activity(&ActivityQuery::new(WINDOW8.to_string(), w).cap(CAP));
            let cost = CostModel::default();
            let mut raw_only: PredictiveEncoder<WindowPredictor> =
                PredictiveEncoder::new(trace.width(), WindowPredictor::new(8), cost)
                    .with_miss_policy(MissPolicy::RawOnly);
            let a = percent_energy_removed(&both, &baseline, 1.0);
            let b_pct =
                percent_energy_removed(&evaluate_blocks(&mut raw_only, &trace), &baseline, 1.0);
            (format!("{b}/register"), a, b_pct)
        },
    );
    for (name, both, raw) in rows {
        t.push(vec![name, f(both, 1), f(raw, 1)]);
    }
    vec![t]
}

/// Timing feasibility (Table 2 meets Figure 6): at each technology's
/// cycle time, how far can the bus reach bare vs through the transcoder
/// pair, and how many cycles does the crossover-length path need?
pub fn timing_budget(_session: &Session) -> Vec<Table> {
    use hwmodel::timing::{max_length_within, path_timing};
    use hwmodel::CircuitModel;
    use wiremodel::Technology;
    let mut t = Table::new(
        "ext-timing",
        "Reachable wire length within one cycle time, bare vs transcoded",
        &[
            "technology",
            "cycle_ns",
            "bare_reach_mm",
            "coded_reach_mm",
            "crossover_path_cycles",
        ],
    );
    for tech in Technology::all() {
        let circuit = CircuitModel::window(tech, 8);
        let budget = circuit.cycle_time_ns();
        let bare = max_length_within(&circuit, budget, false);
        let coded = max_length_within(&circuit, budget, true);
        let path = path_timing(&circuit, 11.5).expect("valid length");
        t.push(vec![
            tech.kind.to_string(),
            f(budget, 1),
            bare.map_or("-".into(), |l| f(l, 1)),
            coded.map_or("-".into(), |l| f(l, 1)),
            path.cycles_at(budget).to_string(),
        ]);
    }
    vec![t]
}

/// Head-to-head of every stateful predictor family on the register bus
/// (the engine is predictor-agnostic; this is the menu a design team
/// would choose from).
pub fn predictors(session: &Session) -> Vec<Table> {
    let mut t = Table::new(
        "ext-predictors",
        "Predictor families on the register bus (% energy removed)",
        &["workload", "stride16", "window8", "context28", "fcm_o2_4k"],
    );
    let schemes = [
        SchemeSpec::Stride(16),
        WINDOW8,
        CONTEXT28,
        SchemeSpec::Fcm {
            order: 2,
            table_bits: 12,
        },
    ];
    let rows = par_map(Benchmark::ALL.to_vec(), move |b| {
        let w = Workload::Bench(b, BusKind::Register);
        let baseline = session.baseline_capped(w, CAP);
        let removed: Vec<f64> = schemes
            .iter()
            .map(|s| {
                let coded = session.activity(&ActivityQuery::new(s.to_string(), w).cap(CAP));
                percent_energy_removed(&coded, &baseline, 1.0)
            })
            .collect();
        (format!("{b}/register"), removed)
    });
    for (name, removed) in rows {
        let mut row = vec![name];
        row.extend(removed.iter().map(|&r| f(r, 1)));
        t.push(row);
    }
    vec![t]
}

/// Per-wire transition histogram: where the switching actually happens
/// across the 32 data bits, for an integer kernel and a floating-point
/// kernel — the structural difference the codebook's bit-position
/// preferences interact with.
pub fn wire_histogram(session: &Session) -> Vec<Table> {
    use buscoding::WireActivity;
    let mut t = Table::new(
        "ext-wirehist",
        "Transitions per wire per 1000 values, memory bus (int vs fp traffic)",
        &["wire", "go_int", "swim_fp", "apsi_fp"],
    );
    let profiles: Vec<Vec<f64>> = par_map(
        vec![Benchmark::Go, Benchmark::Swim, Benchmark::Apsi],
        move |b| {
            let trace = session.trace_capped(Workload::Bench(b, BusKind::Memory), CAP);
            let mut w = WireActivity::new(32);
            w.step(0);
            for v in trace.iter() {
                w.step(v);
            }
            let n = trace.len() as f64;
            w.tau_per_wire()
                .iter()
                .map(|&tau| 1000.0 * tau as f64 / n)
                .collect()
        },
    );
    for (wire, ((go, swim), apsi)) in profiles[0]
        .iter()
        .zip(&profiles[1])
        .zip(&profiles[2])
        .enumerate()
    {
        t.push(vec![wire.to_string(), f(*go, 1), f(*swim, 1), f(*apsi, 1)]);
    }
    vec![t]
}

/// Ablation: is the memory-bus coding result sensitive to the re-timing
/// model? Compare the single-level default against the two-level (L2)
/// hierarchy — same values, different interleaving. These alternative
/// machine configurations are deliberately *not* store-keyed: each
/// variant is generated once, used once.
pub fn timing_model(session: &Session) -> Vec<Table> {
    use simcpu::{MachineConfig, OooConfig};
    let mut t = Table::new(
        "ablation-timing",
        "Memory-bus window-8 savings under three timing models",
        &["workload", "functional_pct", "l2_pct", "ooo_pct"],
    );
    let values = session.values().min(CAP);
    let seed = session.seed();
    let rows = par_map(
        vec![
            Benchmark::Gcc,
            Benchmark::Li,
            Benchmark::Tomcatv,
            Benchmark::Mgrid,
        ],
        move |b| {
            let flat = b.trace(BusKind::Memory, values, seed);
            let deep = b.trace_with(BusKind::Memory, values, seed, MachineConfig::with_l2());
            let ooo = b.trace_ooo(BusKind::Memory, values, seed, OooConfig::default());
            (
                format!("{b}/memory"),
                window8_removed(&flat),
                window8_removed(&deep),
                window8_removed(&ooo),
            )
        },
    );
    for (name, flat, deep, ooo) in rows {
        t.push(vec![name, f(flat, 1), f(deep, 1), f(ooo, 1)]);
    }
    vec![t]
}

/// Desync robustness: the paper's transcoders rest on perfectly
/// synchronized FSMs at the two bus ends. A single-event upset on the
/// wire breaks that silently — this study injects one bit flip per
/// trial and measures whether (and how fast) the decoder *notices*,
/// and how much silently corrupted data escapes meanwhile.
pub fn desync(session: &Session) -> Vec<Table> {
    use buscoding::Decoder;

    let mut t = Table::new(
        "ext-desync",
        "Single bit-flip injection: detection rate and silent corruption (gcc register bus)",
        &[
            "scheme",
            "detected_pct",
            "mean_words_to_detect",
            "mean_silent_wrong_words",
        ],
    );
    let trace = session.trace_capped(Workload::Bench(Benchmark::Gcc, BusKind::Register), 20_000);
    let values = trace.len();
    const TRIALS: usize = 200;

    // One trial: encode the whole trace, flip `bit` of word `at`, and
    // decode, reporting (error index, indices of silently wrong words
    // before the error or end).
    fn trial(
        bus: &[u64],
        original: &bustrace::Trace,
        dec: &mut dyn Decoder,
        at: usize,
        bit: u32,
    ) -> (Option<usize>, usize) {
        dec.reset();
        let mut silent_wrong = 0usize;
        for (i, (&state, expect)) in bus.iter().zip(original.iter()).enumerate() {
            let state = if i == at { state ^ (1 << bit) } else { state };
            match dec.decode(state) {
                Err(_) => return (Some(i), silent_wrong),
                Ok(v) => {
                    if i >= at && v != expect {
                        silent_wrong += 1;
                    }
                }
            }
        }
        (None, silent_wrong)
    }

    // Deterministic injection points.
    let mut x = 0x9E37_79B9u64 ^ session.seed();
    let mut points = Vec::with_capacity(TRIALS);
    for _ in 0..TRIALS {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        points.push((
            (x >> 16) as usize % (values / 2) + 100,
            ((x >> 58) % 34) as u32,
        ));
    }

    // Row labels predate the registry grammar; they are kept verbatim
    // so the CSV stays stable.
    let schemes = [
        ("window(8)", WINDOW8),
        ("context-value(28+8)", CONTEXT28),
        ("workzone(4)", SchemeSpec::WorkZone(4)),
    ];

    for (label, spec) in schemes {
        let mut pair = spec.build(trace.width()).expect("fits the register bus");
        pair.reset();
        let lines = pair.lines();
        let bus: Vec<u64> = trace.iter().map(|v| pair.encode(v)).collect();
        let mut detected = 0usize;
        let mut latency_sum = 0usize;
        let mut silent_sum = 0usize;
        for &(at, bit) in &points {
            let bit = bit % lines;
            let (err_at, silent) = trial(&bus, &trace, pair.decoder_mut(), at, bit);
            if let Some(e) = err_at {
                detected += 1;
                latency_sum += e - at;
            }
            silent_sum += silent;
        }
        let detected_pct = 100.0 * detected as f64 / TRIALS as f64;
        let mean_latency = if detected > 0 {
            latency_sum as f64 / detected as f64
        } else {
            f64::NAN
        };
        t.push(vec![
            label.into(),
            f(detected_pct, 1),
            if detected > 0 {
                f(mean_latency, 1)
            } else {
                "-".into()
            },
            f(silent_sum as f64 / TRIALS as f64, 1),
        ]);
    }
    vec![t]
}

/// Wire-order optimization (the A²BC direction, paper ref \[9\]): how
/// much coupling energy does re-routing wires remove, with no circuit
/// at all? Complementary to transcoding — it attacks κ where the
/// transcoders attack τ.
pub fn wire_reorder(session: &Session) -> Vec<Table> {
    use buscoding::wireorder::{permute_trace, CouplingMatrix};
    use buscoding::Activity;
    let mut t = Table::new(
        "ext-reorder",
        "Wire-order optimization: coupling (kappa) before/after, memory bus",
        &[
            "workload",
            "kappa_identity",
            "kappa_optimized",
            "kappa_removed_pct",
            "energy_removed_pct_l1",
        ],
    );
    let rows = par_map(
        vec![
            Workload::Bench(Benchmark::Apsi, BusKind::Memory),
            Workload::Bench(Benchmark::Swim, BusKind::Memory),
            Workload::Bench(Benchmark::Go, BusKind::Memory),
            Workload::Bench(Benchmark::Gcc, BusKind::Address),
            Workload::Random,
        ],
        move |w| {
            let trace = session.trace_capped(w, CAP);
            let matrix = CouplingMatrix::of(&trace);
            let order = matrix.optimize();
            let permuted = permute_trace(&trace, &order);
            let measure = |tr: &bustrace::Trace| {
                let mut a = Activity::new(tr.width().bits());
                for v in tr.iter() {
                    a.step(v);
                }
                a
            };
            let before = measure(&trace);
            let after = measure(&permuted);
            let energy_removed = 100.0 * (1.0 - after.weighted(1.0) / before.weighted(1.0));
            (w.name(), before.kappa(), after.kappa(), energy_removed)
        },
    );
    for (name, before, after, energy) in rows {
        let kappa_removed = 100.0 * (1.0 - after as f64 / before.max(1) as f64);
        t.push(vec![
            name,
            before.to_string(),
            after.to_string(),
            f(kappa_removed, 1),
            f(energy, 1),
        ]);
    }
    vec![t]
}

/// Kernel realism dashboard: IPC, branch prediction and cache behaviour
/// of every kernel under the out-of-order engine — the evidence that
/// the synthetic suite behaves like programs, not noise generators.
pub fn kernel_stats(session: &Session) -> Vec<Table> {
    use simcpu::{Machine, MachineConfig, OooConfig, OooMachine};
    let mut t = Table::new(
        "ext-kernels",
        "Kernel execution characteristics (out-of-order engine)",
        &[
            "kernel",
            "ipc",
            "mispredict_pct",
            "l1_hit_pct",
            "mem_frac_pct",
            "fp_frac_pct",
        ],
    );
    let budget = (session.values() as u64).clamp(100_000, 2_000_000);
    let seed = session.seed();
    let rows = par_map(Benchmark::ALL.to_vec(), move |b| {
        let spec = b.kernel(seed);
        let mut ooo = OooMachine::new(spec.program.clone(), OooConfig::default());
        ooo.load_memory(0, &spec.memory);
        let s = ooo.run(budget, usize::MAX, usize::MAX);
        // Cache stats and instruction mix from the in-order machine
        // (identical architectural execution).
        let mut m = Machine::new(spec.program, MachineConfig::default());
        m.load_memory(0, &spec.memory);
        let r = m.run(budget, usize::MAX, usize::MAX);
        let mix = r.mix;
        (
            b.name().to_string(),
            s.ipc,
            100.0 * s.mispredictions as f64 / s.branches.max(1) as f64,
            100.0 * r.cache_hit_rate,
            100.0 * mix.memory_fraction(),
            100.0 * mix.fpu as f64 / mix.total().max(1) as f64,
        )
    });
    for (name, ipc, mis, hit, memf, fpf) in rows {
        t.push(vec![
            name,
            f(ipc, 2),
            f(mis, 1),
            f(hit, 1),
            f(memf, 1),
            f(fpf, 1),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Session {
        Session::builder().values(10_000).build()
    }

    #[test]
    fn wire_reorder_never_hurts() {
        let t = &wire_reorder(&Session::builder().values(8_000).build())[0];
        for row in &t.rows {
            let removed: f64 = row[3].parse().unwrap();
            assert!(
                removed >= -0.001,
                "optimizer must not increase kappa: {row:?}"
            );
        }
    }

    #[test]
    fn desync_study_shape() {
        let t = &desync(&Session::builder().values(5_000).build())[0];
        assert_eq!(t.rows.len(), 3);
        for row in &t.rows {
            let detected: f64 = row[1].parse().unwrap();
            assert!(detected > 30.0, "most flips should be caught: {row:?}");
            let silent: f64 = row[3].parse().unwrap();
            assert!(
                silent < 50.0,
                "silent corruption must stay bounded: {row:?}"
            );
        }
    }

    #[test]
    fn timing_model_results_are_close() {
        // The coding *sign* and rough magnitude must not hinge on
        // re-timing detail. The L2 hierarchy barely moves anything; the
        // out-of-order clustering can shift a stencil kernel by 10+
        // points (mgrid's stride-6 loads end up adjacent after issue
        // reordering) without ever flipping a conclusion.
        let t = &timing_model(&tiny())[0];
        for row in &t.rows {
            let flat: f64 = row[1].parse().unwrap();
            let deep: f64 = row[2].parse().unwrap();
            let ooo: f64 = row[3].parse().unwrap();
            assert!((flat - deep).abs() < 12.0, "{row:?}");
            assert!((flat - ooo).abs() < 20.0, "{row:?}");
            assert_eq!(flat.signum(), ooo.signum(), "{row:?}");
        }
    }

    #[test]
    fn varlen_reports_are_consistent() {
        let t = &varlen(&tiny())[0];
        assert_eq!(t.rows.len(), 5);
        for row in &t.rows {
            let bits: f64 = row[1].parse().unwrap();
            let cpv: f64 = row[3].parse().unwrap();
            // 8 lanes: cycles/value ~ bits/8.
            assert!((cpv - bits / 8.0).abs() < 0.3, "{row:?}");
        }
    }

    #[test]
    fn spatial_bound_dominates() {
        let t = &spatial_bound(&tiny())[0];
        for row in &t.rows {
            let base: f64 = row[1].parse().unwrap();
            let spatial: f64 = row[2].parse().unwrap();
            assert!(
                spatial <= 2.0 + 1e-9,
                "one-hot can't exceed 2 toggles: {row:?}"
            );
            assert!(spatial < base, "{row:?}");
        }
    }

    #[test]
    fn inverted_fallback_never_hurts() {
        let t = &miss_policy(&tiny())[0];
        for row in &t.rows {
            let both: f64 = row[1].parse().unwrap();
            let raw: f64 = row[2].parse().unwrap();
            assert!(
                both >= raw - 0.5,
                "inversion option should not lose: {row:?}"
            );
        }
    }
}
