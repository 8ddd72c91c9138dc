//! Ablation studies of the design choices DESIGN.md calls out.

use buscoding::predict::{context_value_codec, ContextConfig};
use buscoding::{Encoder, SchemeSpec};
use hwmodel::{CircuitModel, ContextHardware, ContextHwConfig, WindowHardware};
use simcpu::{Benchmark, BusKind};
use wiremodel::Technology;

use crate::experiments::par_map;
use crate::report::{f, Table};
use crate::schemes::CONTEXT28;
use crate::session::ActivityQuery;
use crate::workloads::Workload;
use crate::Session;

/// The ablations cap their traces at 100k values, like the circuit
/// experiments.
const CAP: usize = 100_000;

fn ablation_benchmarks() -> Vec<Benchmark> {
    vec![
        Benchmark::Gcc,
        Benchmark::Li,
        Benchmark::Swim,
        Benchmark::Mgrid,
        Benchmark::Perl,
    ]
}

/// Pending-bit neighbor-swap sort vs the ideal (immediately re-sorted)
/// behavioral table: how much hit-rate and energy the restricted
/// hardware sort gives up.
pub fn sort(session: &Session) -> Vec<Table> {
    let mut t = Table::new(
        "ablation-sort",
        "Pending-bit hardware sort vs ideal re-sort (register bus)",
        &[
            "workload",
            "ideal_removed_pct",
            "hw_hit_rate",
            "ideal_hit_rate",
            "hw_swaps_per_cycle",
        ],
    );
    let rows = par_map(ablation_benchmarks(), move |b| {
        let w = Workload::Bench(b, BusKind::Register);
        let trace = session.trace_capped(w, CAP);
        let cfg = ContextConfig::new(trace.width(), 28, 8);
        // Ideal: behavioral codec — `cfg` is exactly the registry's
        // context-value(28+8 d4096), so the session store supplies it.
        let coded = session.activity(&ActivityQuery::new(CONTEXT28.to_string(), w).cap(CAP));
        let baseline = session.baseline_capped(w, CAP);
        let ideal_removed = buscoding::percent_energy_removed(&coded, &baseline, 1.0);
        // Ideal hit rate: count engine hits by re-running with outcome taps.
        let (mut enc2, _) = context_value_codec(cfg);
        enc2.reset();
        let mut ideal_hits = 0u64;
        for v in trace.iter() {
            enc2.encode(v);
            if matches!(
                enc2.last_outcome(),
                Some(buscoding::predict::EncodeOutcome::Hit { .. })
            ) {
                ideal_hits += 1;
            }
        }
        // Hardware: pending-bit model.
        let mut hw = ContextHardware::new(ContextHwConfig {
            table: 28,
            shift: 8,
            divide_period: 4096,
            promote_threshold: 2,
        });
        let mut hw_hits = 0u64;
        for v in trace.iter() {
            if matches!(hw.present(v), hwmodel::HwOutcome::Hit { .. }) {
                hw_hits += 1;
            }
        }
        let n = trace.len() as f64;
        (
            format!("{b}/register"),
            ideal_removed,
            hw_hits as f64 / n,
            ideal_hits as f64 / n,
            hw.ops().swaps as f64 / n,
        )
    });
    for (name, removed, hw_rate, ideal_rate, swaps) in rows {
        t.push(vec![
            name,
            f(removed, 1),
            f(hw_rate, 3),
            f(ideal_rate, 3),
            f(swaps, 3),
        ]);
    }
    vec![t]
}

/// Selective precharge vs full-width matching: the match-energy saving
/// of the two-stage comparator.
pub fn precharge(session: &Session) -> Vec<Table> {
    let mut t = Table::new(
        "ablation-precharge",
        "Selective precharge vs full-width matching (window-8, register bus, 0.13um)",
        &[
            "workload",
            "selective_pj_per_cycle",
            "full_pj_per_cycle",
            "saving_pct",
        ],
    );
    let tech = Technology::tech_013();
    let circuit = CircuitModel::window(tech, 8);
    let rows = par_map(ablation_benchmarks(), move |b| {
        let trace = session.trace_capped(Workload::Bench(b, BusKind::Register), CAP);
        let mut hw = WindowHardware::new(8);
        for v in trace.iter() {
            hw.present(v);
        }
        let selective = circuit.dynamic_energy_pj(hw.ops()) / hw.ops().cycles as f64;
        // Full-width matching: every precharge becomes a full compare.
        let mut full_ops = *hw.ops();
        full_ops.full_matches = full_ops.precharge_matches;
        full_ops.precharge_matches = 0;
        let full = circuit.dynamic_energy_pj(&full_ops) / full_ops.cycles as f64;
        (format!("{b}/register"), selective, full)
    });
    for (name, sel, full) in rows {
        t.push(vec![
            name,
            f(sel, 3),
            f(full, 3),
            f(100.0 * (1.0 - sel / full), 1),
        ]);
    }
    vec![t]
}

/// Johnson vs binary counters: bit transitions per increment.
pub fn counter(session: &Session) -> Vec<Table> {
    let mut t = Table::new(
        "ablation-counter",
        "Johnson vs binary counter energy in the context design (register bus, 0.13um)",
        &[
            "workload",
            "increments_per_cycle",
            "johnson_pj_per_cycle",
            "binary_pj_per_cycle",
        ],
    );
    let tech = Technology::tech_013();
    let circuit = CircuitModel::context(tech, 28, 8);
    let rows = par_map(ablation_benchmarks(), move |b| {
        let trace = session.trace_capped(Workload::Bench(b, BusKind::Register), CAP);
        let mut hw = ContextHardware::new(ContextHwConfig::paper_layout());
        for v in trace.iter() {
            hw.present(v);
        }
        let ops = hw.ops();
        let per_inc = circuit.energies().counter_increment;
        // A Johnson counter flips exactly one bit per count; a binary
        // counter flips 2 on average (1 + 1/2 + 1/4 + ...).
        let johnson = per_inc * ops.counter_increments as f64 / ops.cycles as f64;
        let binary = 2.0 * johnson;
        (
            format!("{b}/register"),
            ops.counter_increments as f64 / ops.cycles as f64,
            johnson,
            binary,
        )
    });
    for (name, rate, j, bin) in rows {
        t.push(vec![name, f(rate, 3), f(j, 4), f(bin, 4)]);
    }
    vec![t]
}

/// LAST-value code-0 contribution: window coding with the shift register
/// alone, sized one entry smaller, versus the full design — how much of
/// the win is just "repeats are free".
pub fn last_value(session: &Session) -> Vec<Table> {
    let mut t = Table::new(
        "ablation-last",
        "Contribution of repeats (window-1) vs the full window-8 (register bus)",
        &["workload", "window1_removed_pct", "window8_removed_pct"],
    );
    let rows = par_map(ablation_benchmarks(), move |b| {
        let w = Workload::Bench(b, BusKind::Register);
        let baseline = session.baseline_capped(w, CAP);
        let mut removed = Vec::new();
        for entries in [1usize, 8] {
            let query = ActivityQuery::new(SchemeSpec::Window(entries).to_string(), w);
            let coded = session.activity(&query.cap(CAP));
            removed.push(buscoding::percent_energy_removed(&coded, &baseline, 1.0));
        }
        (format!("{b}/register"), removed[0], removed[1])
    });
    for (name, w1, w8) in rows {
        t.push(vec![name, f(w1, 1), f(w8, 1)]);
    }
    vec![t]
}
