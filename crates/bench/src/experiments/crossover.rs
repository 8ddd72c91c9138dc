//! Section 5.4.3 reproductions: total-energy curves (Figures 35–36),
//! scaling trends (Figures 37–38), median crossover lengths (Table 3),
//! and the Section 7 headline number.

use buscoding::{Activity, SchemeSpec};
use hwmodel::crossover::{median, CodingOutcome};
use hwmodel::OpCounts;
use simcpu::{Benchmark, BusKind};
use wiremodel::{Technology, WireStyle};

use crate::experiments::par_map;
use crate::report::{f, opt_mm, Table};
use crate::schemes::{window_hw_ops, window_outcome_from_parts, CONTEXT28};
use crate::session::ActivityQuery;
use crate::workloads::Workload;
use crate::Session;

const LENGTHS: [f64; 8] = [1.0, 3.0, 5.0, 8.0, 11.5, 15.0, 20.0, 30.0];

/// The technology-independent measurements of one benchmark under the
/// Window design: memoized baseline and coded activities (session
/// stores) plus the hardware op tally. A tech × entries grid computes
/// these once per (benchmark, entries) and prices them per technology.
struct WindowParts {
    bench: Benchmark,
    baseline: Activity,
    coded: Activity,
    ops: OpCounts,
    values: u64,
}

/// Gathers [`WindowParts`] for every benchmark on a bus at one entry
/// count. Traces, baselines and coded activities come from the session
/// caches, so the grids of Figures 37–38 and Table 3 walk each
/// benchmark trace once no matter how many grid points reuse it.
fn window_parts(
    session: &Session,
    bus: BusKind,
    entries: usize,
    benches: &[Benchmark],
) -> Vec<WindowParts> {
    par_map(benches.to_vec(), move |b| {
        let w = Workload::Bench(b, bus);
        let trace = session.trace(w);
        WindowParts {
            bench: b,
            baseline: session.baseline(w),
            coded: session.activity(&ActivityQuery::new(
                SchemeSpec::Window(entries).to_string(),
                w,
            )),
            ops: window_hw_ops(&trace, entries),
            values: trace.len() as u64,
        }
    })
}

/// Prices the parts for one technology.
fn outcomes_from_parts(
    parts: &[WindowParts],
    entries: usize,
    tech: Technology,
) -> Vec<(Benchmark, CodingOutcome)> {
    parts
        .iter()
        .map(|p| {
            (
                p.bench,
                window_outcome_from_parts(p.baseline, p.coded, p.values, &p.ops, entries, tech),
            )
        })
        .collect()
}

fn total_energy_figure(id: &str, title: &str, session: &Session, bus: BusKind) -> Table {
    let mut t = Table::new(id, title, &["workload", "length_mm", "normalized_energy"]);
    let tech = Technology::tech_013();
    let parts = window_parts(session, bus, 8, &Benchmark::ALL);
    for (b, outcome) in outcomes_from_parts(&parts, 8, tech) {
        let curve = outcome
            .normalized_curve(tech, WireStyle::Repeated, &LENGTHS)
            .expect("valid lengths");
        for (l, e) in curve {
            t.push(vec![format!("{b}/{bus}"), f(l, 1), f(e, 4)]);
        }
    }
    t
}

/// Figure 35: Window-8 total energy normalized to the un-encoded bus,
/// register bus, 0.13 µm.
pub fn fig35(session: &Session) -> Vec<Table> {
    vec![total_energy_figure(
        "fig35",
        "Window-8 total energy vs wire length, register bus, 0.13um",
        session,
        BusKind::Register,
    )]
}

/// Figure 36: same on the memory bus.
pub fn fig36(session: &Session) -> Vec<Table> {
    vec![total_energy_figure(
        "fig36",
        "Window-8 total energy vs wire length, memory bus, 0.13um",
        session,
        BusKind::Memory,
    )]
}

/// Median normalized-energy curves per technology and entry count, split
/// into SPECint and SPECfp (Figures 37–38).
fn trend_figure(id: &str, title: &str, session: &Session, bus: BusKind) -> Table {
    let mut t = Table::new(
        id,
        title,
        &[
            "technology",
            "entries",
            "suite",
            "length_mm",
            "median_normalized_energy",
        ],
    );
    // The per-benchmark activities and hardware walks are
    // technology-independent: gather them once per entry count, then
    // price every technology off the same parts.
    let parts: Vec<(usize, Vec<WindowParts>)> = [8usize, 16]
        .iter()
        .map(|&entries| {
            (
                entries,
                window_parts(session, bus, entries, &Benchmark::ALL),
            )
        })
        .collect();
    for tech in Technology::all() {
        for (entries, parts) in &parts {
            let entries = *entries;
            let all = outcomes_from_parts(parts, entries, tech);
            for (suite, filter) in [("int", false), ("fp", true)]
                .map(|(s, fp)| (s, move |b: &Benchmark| b.is_fp() == fp))
            {
                for &l in &LENGTHS {
                    let wire =
                        wiremodel::Wire::new(tech, WireStyle::Repeated, l).expect("valid length");
                    let energies: Vec<f64> = all
                        .iter()
                        .filter(|(b, _)| filter(b))
                        .map(|(_, o)| o.normalized_total_energy(&wire))
                        .collect();
                    let m = median(energies).expect("non-empty suite");
                    t.push(vec![
                        tech.kind.to_string(),
                        entries.to_string(),
                        suite.into(),
                        f(l, 1),
                        f(m, 4),
                    ]);
                }
            }
        }
    }
    t
}

/// Figure 37: scaling trends on the register bus.
pub fn fig37(session: &Session) -> Vec<Table> {
    vec![trend_figure(
        "fig37",
        "Median normalized energy vs length, register bus (tech x entries x suite)",
        session,
        BusKind::Register,
    )]
}

/// Figure 38: scaling trends on the memory bus.
pub fn fig38(session: &Session) -> Vec<Table> {
    vec![trend_figure(
        "fig38",
        "Median normalized energy vs length, memory bus (tech x entries x suite)",
        session,
        BusKind::Memory,
    )]
}

/// Table 3: median crossover lengths for the Window design on the
/// register bus.
pub fn table3(session: &Session) -> Vec<Table> {
    let mut t = Table::new(
        "table3",
        "Median crossover lengths, register bus (paper: 11.5mm @0.13um/8e ... 2.7mm @0.07um/16e)",
        &["technology", "entries", "specint_mm", "specfp_mm", "all_mm"],
    );
    let parts: Vec<(usize, Vec<WindowParts>)> = [8usize, 16]
        .iter()
        .map(|&entries| {
            (
                entries,
                window_parts(session, BusKind::Register, entries, &Benchmark::ALL),
            )
        })
        .collect();
    for tech in Technology::all() {
        for (entries, parts) in &parts {
            let entries = *entries;
            let all = outcomes_from_parts(parts, entries, tech);
            let xover = |filter: &dyn Fn(&Benchmark) -> bool| -> Option<f64> {
                let xs: Vec<f64> = all
                    .iter()
                    .filter(|(b, _)| filter(b))
                    .filter_map(|(_, o)| o.crossover_mm(tech, WireStyle::Repeated))
                    .collect();
                median(xs)
            };
            t.push(vec![
                tech.kind.to_string(),
                entries.to_string(),
                opt_mm(xover(&|b| !b.is_fp())),
                opt_mm(xover(&|b| b.is_fp())),
                opt_mm(xover(&|_| true)),
            ]);
        }
    }
    vec![t]
}

/// The Section 7 headline: average percent of transitions removed on
/// the register bus (paper: 36%).
pub fn headline(session: &Session) -> Vec<Table> {
    let mut t = Table::new(
        "headline",
        "Average % of weighted transitions removed, register bus (paper headline: 36%)",
        &["scheme", "average_percent_removed"],
    );
    let schemes = [SchemeSpec::Window(8), SchemeSpec::Window(16), CONTEXT28];
    let per_bench: Vec<Vec<f64>> = par_map(Benchmark::ALL.to_vec(), |b| {
        let w = Workload::Bench(b, BusKind::Register);
        let baseline = session.baseline(w);
        schemes
            .iter()
            .map(|s| {
                let coded = session.activity(&ActivityQuery::new(s.to_string(), w));
                buscoding::percent_energy_removed(&coded, &baseline, 1.0)
            })
            .collect()
    });
    for (i, scheme) in schemes.iter().enumerate() {
        let avg: f64 = per_bench.iter().map(|row| row[i]).sum::<f64>() / per_bench.len() as f64;
        t.push(vec![scheme.to_string(), f(avg, 1)]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Session {
        Session::builder().values(15_000).build()
    }

    #[test]
    fn fig35_curves_decay_with_length() {
        let t = &fig35(&tiny())[0];
        // li is this reproduction's friendliest register-bus trace (the
        // role swim plays in the paper).
        let li: Vec<f64> = t
            .rows
            .iter()
            .filter(|r| r[0] == "li/register")
            .map(|r| r[2].parse().unwrap())
            .collect();
        assert_eq!(li.len(), LENGTHS.len());
        assert!(li.windows(2).all(|w| w[0] >= w[1]), "{li:?}");
        // At 30mm the friendly trace must be saving energy.
        assert!(*li.last().unwrap() < 1.0, "{li:?}");
    }

    #[test]
    fn table3_crossovers_shrink_with_technology() {
        let t = &table3(&tiny())[0];
        let all_col = |tech: &str, entries: &str| -> Option<f64> {
            t.rows
                .iter()
                .find(|r| r[0] == tech && r[1] == entries)
                .and_then(|r| r[4].parse().ok())
        };
        if let (Some(l13), Some(l07)) = (all_col("0.13um", "8"), all_col("0.07um", "8")) {
            assert!(l07 < l13, "crossover must shrink: {l13} -> {l07}");
        } else {
            panic!("crossover columns missing: {:?}", t.rows);
        }
    }
}
