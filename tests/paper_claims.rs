//! The paper's qualitative claims, asserted against this reproduction.
//! Absolute numbers differ (our substrate is a simulator, not the
//! authors' testbed); these tests pin down the *shape*: who wins, in
//! which direction effects point, and roughly where knees fall.

use bench::schemes::{baseline_activity, window_outcome, CONTEXT28};
use buscoding::{evaluate_blocks, percent_energy_removed, Activity, SchemeSpec};
use bustrace::Trace;
use simcpu::{Benchmark, BusKind};
use wiremodel::{Technology, Wire, WireStyle};

const N: usize = 40_000;
const SEED: u64 = 11;

fn activity(scheme: &SchemeSpec, trace: &Trace) -> Activity {
    let mut pair = scheme.build(trace.width()).expect("scheme fits the bus");
    evaluate_blocks(pair.encoder_mut(), trace)
}

fn removed(scheme: &SchemeSpec, b: Benchmark, bus: BusKind) -> f64 {
    let trace = b.trace(bus, N, SEED);
    percent_energy_removed(&activity(scheme, &trace), &baseline_activity(&trace), 1.0)
}

/// Section 4.4: "the transition-based transcoder does not perform as
/// well as value-based, given the same amount of hardware".
#[test]
fn value_based_beats_transition_based_on_average() {
    let value = SchemeSpec::ContextValue {
        table: 24,
        shift: 8,
        divide: 4096,
    };
    let transition = SchemeSpec::ContextTransition {
        table: 24,
        shift: 8,
        divide: 4096,
    };
    let mut v_sum = 0.0;
    let mut t_sum = 0.0;
    for b in [
        Benchmark::Gcc,
        Benchmark::Li,
        Benchmark::Perl,
        Benchmark::Swim,
        Benchmark::Go,
    ] {
        v_sum += removed(&value, b, BusKind::Register);
        t_sum += removed(&transition, b, BusKind::Register);
    }
    assert!(v_sum > t_sum, "value {v_sum:.1} vs transition {t_sum:.1}");
}

/// Section 4.4: "the stride predictors are not the best stateful coding
/// mechanism" — the context transcoder outperforms the largest stride
/// bank on suite average (stride wins on a few stride-friendly kernels,
/// as in the paper's Figure 17 spread).
#[test]
fn dictionary_schemes_beat_stride_predictors() {
    let mut stride_sum = 0.0;
    let mut context_sum = 0.0;
    for b in Benchmark::ALL {
        stride_sum += removed(&SchemeSpec::Stride(16), b, BusKind::Register);
        context_sum += removed(&CONTEXT28, b, BusKind::Register);
    }
    assert!(
        context_sum > stride_sum,
        "context {context_sum:.1} vs stride {stride_sum:.1}"
    );
}

/// Figure 18/19: the knee of the window curve is around 8 entries —
/// going from 2 to 8 helps much more than from 8 to 16.
#[test]
fn window_knee_is_around_eight_entries() {
    let mut gain_2_to_8 = 0.0;
    let mut gain_8_to_16 = 0.0;
    for b in [
        Benchmark::Li,
        Benchmark::Go,
        Benchmark::Compress,
        Benchmark::Swim,
    ] {
        let r2 = removed(&SchemeSpec::Window(2), b, BusKind::Register);
        let r8 = removed(&SchemeSpec::Window(8), b, BusKind::Register);
        let r16 = removed(&SchemeSpec::Window(16), b, BusKind::Register);
        gain_2_to_8 += r8 - r2;
        gain_8_to_16 += r16 - r8;
    }
    assert!(
        gain_2_to_8 > gain_8_to_16,
        "2->8 gain {gain_2_to_8:.1} should dominate 8->16 gain {gain_8_to_16:.1}"
    );
}

/// Section 7 headline: ~36% average transition reduction on the
/// register bus for the better schemes. We accept a broad band: the
/// kernels are synthetic stand-ins.
#[test]
fn headline_average_reduction_in_band() {
    let scheme = CONTEXT28;
    let mut sum = 0.0;
    let mut n = 0.0;
    for b in Benchmark::ALL {
        sum += removed(&scheme, b, BusKind::Register);
        n += 1.0;
    }
    let avg = sum / n;
    assert!(
        (15.0..70.0).contains(&avg),
        "average register-bus reduction {avg:.1}% outside the plausible band around 36%"
    );
}

/// Section 5.4.3 / Table 3: the 0.13 µm window-8 design breaks even at
/// around 11.5 mm (median, register bus). Accept a 4–25 mm band.
#[test]
fn crossover_magnitude_is_plausible() {
    let tech = Technology::tech_013();
    let mut crossovers: Vec<f64> = Benchmark::ALL
        .iter()
        .filter_map(|b| {
            let trace = b.trace(BusKind::Register, N, SEED);
            window_outcome(&trace, 8, tech).crossover_mm(tech, WireStyle::Repeated)
        })
        .collect();
    assert!(
        crossovers.len() >= 10,
        "most benchmarks should break even somewhere"
    );
    crossovers.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median = crossovers[crossovers.len() / 2];
    assert!(
        (3.0..25.0).contains(&median),
        "median crossover {median:.1} mm vs paper's 11.5 mm"
    );
}

/// Conclusion: "for SWIM, the transcoder begins to save energy as short
/// as 3mm" — the friendliest trace crosses over much earlier than the
/// median.
#[test]
fn friendliest_traces_cross_over_early() {
    let tech = Technology::tech_013();
    let best = Benchmark::ALL
        .iter()
        .filter_map(|b| {
            let trace = b.trace(BusKind::Register, N, SEED);
            window_outcome(&trace, 8, tech).crossover_mm(tech, WireStyle::Repeated)
        })
        .fold(f64::INFINITY, f64::min);
    assert!(
        best < 8.0,
        "best-case crossover {best:.1} mm should be a few mm"
    );
}

/// Section 5.4.3: the inversion coder "is inadequate to break even,
/// even at 30mm" — its flat 1.76 pJ/cycle cost exceeds what its modest
/// savings buy.
#[test]
fn inversion_coder_does_not_break_even_at_30mm() {
    use bench::schemes::inverter_transcoder_pj_per_value;
    use hwmodel::crossover::CodingOutcome;
    let tech = Technology::tech_013();
    let mut better = 0;
    let mut total = 0;
    for b in [
        Benchmark::Gcc,
        Benchmark::M88ksim,
        Benchmark::Turb3d,
        Benchmark::Wave5,
    ] {
        let trace = b.trace(BusKind::Register, N, SEED);
        let coded = activity(
            &SchemeSpec::Inversion {
                chunks: 1,
                lambda: 1.0,
            },
            &trace,
        );
        let baseline = baseline_activity(&trace);
        let o = CodingOutcome::new(
            baseline,
            coded,
            trace.len() as u64,
            inverter_transcoder_pj_per_value(tech),
        );
        let wire = Wire::new(tech, WireStyle::Repeated, 30.0).unwrap();
        total += 1;
        if o.normalized_total_energy(&wire) < 1.0 {
            better += 1;
        }
    }
    assert!(
        better <= total / 2,
        "the inversion coder should rarely break even at 30mm ({better}/{total})"
    );
}

/// Figure 15's methodological point: evaluating a coder on *random*
/// traffic overstates its savings relative to real traffic (for the
/// regime the paper highlights).
#[test]
fn random_traffic_overstates_inversion_savings() {
    use bench::workloads::Workload;
    let scheme = SchemeSpec::Inversion {
        chunks: 6,
        lambda: 0.0,
    };
    let random = Workload::Random.trace(N, SEED);
    let random_removed = {
        let coded = activity(&scheme, &random);
        let baseline = baseline_activity(&random);
        percent_energy_removed(&coded, &baseline, 0.0)
    };
    let mut real_sum = 0.0;
    let mut n = 0.0;
    for b in [
        Benchmark::Gcc,
        Benchmark::Swim,
        Benchmark::Li,
        Benchmark::Go,
    ] {
        let trace = b.trace(BusKind::Register, N, SEED);
        let coded = activity(&scheme, &trace);
        let baseline = baseline_activity(&trace);
        real_sum += percent_energy_removed(&coded, &baseline, 0.0);
        n += 1.0;
    }
    let real_avg = real_sum / n;
    assert!(
        random_removed > real_avg,
        "random {random_removed:.1}% should overstate real {real_avg:.1}% at lambda=0"
    );
}
