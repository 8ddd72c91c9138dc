//! Workload acquisition: benchmark bus traces and the controlled
//! synthetic traffic classes the paper contrasts them with.

use bustrace::generators::{PhasedGen, StrideGen, TraceGenerator, UniformRandomGen, WorkingSetGen};
use bustrace::{Trace, Width};
use simcpu::{Benchmark, BusKind};

/// Stride of the phased workload's ramp: the golden-ratio constant, so
/// consecutive words differ in about half their bits — an expensive
/// baseline that only a stride predictor can flatten.
const PHASED_STRIDE: u64 = 0x9E37_79B9;

/// Parses a bus-kind name (`register`, `memory`, `address`).
fn parse_bus(name: &str) -> Option<BusKind> {
    match name {
        "register" => Some(BusKind::Register),
        "memory" => Some(BusKind::Memory),
        "address" => Some(BusKind::Address),
        _ => None,
    }
}

/// A named workload: either a benchmark bus tap or synthetic traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// A SPEC-like kernel observed on one bus.
    Bench(Benchmark, BusKind),
    /// Uniformly random words — the traffic previous studies used.
    Random,
    /// Phase-changing traffic: a hot working-set loop alternating with
    /// a large-stride ramp every `phase` words. The ramp's stride
    /// toggles roughly half the bus per word, so both phases carry real
    /// energy, yet each is cheap for exactly one predictor family —
    /// window codecs own the loop, stride codecs own the ramp. No
    /// single static scheme fits both — the stress case for the
    /// adaptive controller.
    Phased {
        /// Words per phase before the traffic character flips.
        phase: usize,
    },
    /// A multi-program interleaving: two benchmark streams sharing one
    /// bus, switching every `quantum` words — the traffic a bus sees
    /// under context switching. Each component stream advances
    /// independently (program A resumes where it left off), so the bus
    /// alternates between two working sets at quantum granularity. This
    /// is the held-out *workload class* of the train/test generalization
    /// study: its within-quantum structure matches the component
    /// programs, but no single-program corpus entry ever shows the
    /// cross-quantum switches.
    Mixed {
        /// First component program.
        a: Benchmark,
        /// Second component program.
        b: Benchmark,
        /// The bus both streams are observed on.
        bus: BusKind,
        /// Words each program runs before the other is scheduled.
        quantum: usize,
    },
}

impl Workload {
    /// Phase-change traffic with the adaptive experiments' default
    /// phase length.
    pub const PHASED: Workload = Workload::Phased { phase: 4096 };

    /// Phase-change traffic with short phases — stresses decision
    /// periods that are a sizable fraction of the phase.
    pub const PHASED_FAST: Workload = Workload::Phased { phase: 1024 };

    /// Display name, e.g. `gcc/register`, `phased/4096`, or
    /// `mixed/gcc+perl/register/64`.
    pub fn name(&self) -> String {
        match self {
            Workload::Bench(b, bus) => format!("{b}/{bus}"),
            Workload::Random => "random".into(),
            Workload::Phased { phase } => format!("phased/{phase}"),
            Workload::Mixed { a, b, bus, quantum } => format!("mixed/{a}+{b}/{bus}/{quantum}"),
        }
    }

    /// The inverse of [`name`](Self::name): parses `gcc/register`,
    /// `random`, `phased/4096`, … back into a workload. This is how
    /// service requests address workloads, so `parse(w.name())`
    /// round-trips for every constructible workload.
    pub fn parse(name: &str) -> Option<Workload> {
        if name == "random" {
            return Some(Workload::Random);
        }
        if let Some(phase) = name.strip_prefix("phased/") {
            let phase: usize = phase.parse().ok().filter(|&p| p > 0)?;
            return Some(Workload::Phased { phase });
        }
        if let Some(rest) = name.strip_prefix("mixed/") {
            let (programs, rest) = rest.split_once('/')?;
            let (a, b) = programs.split_once('+')?;
            let (bus, quantum) = rest.split_once('/')?;
            let quantum: usize = quantum.parse().ok().filter(|&q| q > 0)?;
            return Some(Workload::Mixed {
                a: Benchmark::from_name(a)?,
                b: Benchmark::from_name(b)?,
                bus: parse_bus(bus)?,
                quantum,
            });
        }
        let (bench, bus) = name.split_once('/')?;
        let bench = Benchmark::from_name(bench)?;
        Some(Workload::Bench(bench, parse_bus(bus)?))
    }

    /// Produces `values` words of this workload, deterministically per
    /// seed.
    pub fn trace(&self, values: usize, seed: u64) -> Trace {
        static TRACES: busprobe::StaticCounter =
            busprobe::StaticCounter::new("bench.workload.traces");
        let _span = busprobe::span("bench.workload.trace");
        TRACES.inc();
        match self {
            Workload::Bench(b, bus) => b.trace(*bus, values, seed),
            Workload::Random => UniformRandomGen::new(Width::W32, seed).generate(values),
            Workload::Phased { phase } => {
                let loops = WorkingSetGen::new(Width::W32, 6, 1.2, 0.0, seed);
                let ramp = StrideGen::new(Width::W32, 0x4000_0000, PHASED_STRIDE);
                PhasedGen::new(vec![Box::new(loops), Box::new(ramp)], *phase).generate(values)
            }
            Workload::Mixed { a, b, bus, quantum } => {
                assert!(*quantum > 0, "mixed workload quantum must be positive");
                // Each component runs at full length under the shared
                // seed, then the bus sees quantum-sized slices of each
                // in turn. Every within-quantum subsequence is an exact
                // subsequence of the component's solo trace — which is
                // what lets offline training on the solo programs
                // transfer to the mix.
                let streams = [a.trace(*bus, values, seed), b.trace(*bus, values, seed)];
                let mut trace = Trace::new(streams[0].width());
                let mut consumed = [0usize, 0usize];
                let mut turn = 0;
                while trace.len() < values {
                    let src = streams[turn].values();
                    let at = consumed[turn];
                    let take = (*quantum).min(values - trace.len()).min(src.len() - at);
                    for &v in &src[at..at + take] {
                        trace.push(v);
                    }
                    consumed[turn] += take;
                    turn ^= 1;
                }
                trace
            }
        }
    }

    /// Every benchmark on the given bus.
    pub fn all_benchmarks(bus: BusKind) -> Vec<Workload> {
        Benchmark::ALL
            .iter()
            .map(|&b| Workload::Bench(b, bus))
            .collect()
    }

    /// Every benchmark on the given bus, plus random traffic — the
    /// line-set of Figures 16–23.
    pub fn figure_lines(bus: BusKind) -> Vec<Workload> {
        let mut v = vec![Workload::Random];
        v.extend(Workload::all_benchmarks(bus));
        v
    }

    /// The SPECint workloads on a bus.
    pub fn spec_int(bus: BusKind) -> Vec<Workload> {
        Benchmark::spec_int()
            .into_iter()
            .map(|b| Workload::Bench(b, bus))
            .collect()
    }

    /// The SPECfp workloads on a bus.
    pub fn spec_fp(bus: BusKind) -> Vec<Workload> {
        Benchmark::spec_fp()
            .into_iter()
            .map(|b| Workload::Bench(b, bus))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable() {
        assert_eq!(
            Workload::Bench(Benchmark::Gcc, BusKind::Register).name(),
            "gcc/register"
        );
        assert_eq!(Workload::Random.name(), "random");
        assert_eq!(Workload::PHASED.name(), "phased/4096");
        assert_eq!(
            Workload::Mixed {
                a: Benchmark::Gcc,
                b: Benchmark::Perl,
                bus: BusKind::Register,
                quantum: 64,
            }
            .name(),
            "mixed/gcc+perl/register/64"
        );
    }

    #[test]
    fn parse_inverts_name_for_every_workload() {
        let mut all = vec![
            Workload::Random,
            Workload::PHASED,
            Workload::PHASED_FAST,
            Workload::Mixed {
                a: Benchmark::Gcc,
                b: Benchmark::M88ksim,
                bus: BusKind::Memory,
                quantum: 256,
            },
        ];
        for bus in [BusKind::Register, BusKind::Memory, BusKind::Address] {
            all.extend(Workload::all_benchmarks(bus));
        }
        for w in all {
            assert_eq!(Workload::parse(&w.name()), Some(w), "{}", w.name());
        }
        for bad in [
            "",
            "gcc",
            "gcc/cache",
            "nope/register",
            "phased/x",
            "phased/",
            "phased/0",
            "mixed/gcc/register/64",
            "mixed/gcc+nope/register/64",
            "mixed/gcc+perl/register/0",
            "mixed/gcc+perl/register",
            "mixed/gcc+perl/cache/64",
        ] {
            assert_eq!(Workload::parse(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn mixed_interleaves_exact_component_slices() {
        let w = Workload::Mixed {
            a: Benchmark::Gcc,
            b: Benchmark::Perl,
            bus: BusKind::Register,
            quantum: 64,
        };
        let n = 1000;
        let t = w.trace(n, 1);
        assert_eq!(t.len(), n);
        let gcc = Workload::Bench(Benchmark::Gcc, BusKind::Register).trace(n, 1);
        let perl = Workload::Bench(Benchmark::Perl, BusKind::Register).trace(n, 1);
        let v = t.values();
        // Quantum 0 is gcc's first 64 words, quantum 1 is perl's first
        // 64, quantum 2 resumes gcc at word 64 — programs advance
        // independently across their scheduling gaps.
        assert_eq!(&v[0..64], &gcc.values()[0..64]);
        assert_eq!(&v[64..128], &perl.values()[0..64]);
        assert_eq!(&v[128..192], &gcc.values()[64..128]);
        // Deterministic per seed, different across seeds.
        assert_eq!(w.trace(n, 1), t);
        assert_ne!(w.trace(n, 2), t);
    }

    #[test]
    fn phased_trace_alternates_character() {
        let t = Workload::PHASED_FAST.trace(4096, 3);
        assert_eq!(t.len(), 4096);
        // Second phase (words 1024..2048) is a pure strided ramp.
        let v = t.values();
        assert!(
            (1025..2048).all(|i| v[i] == v[i - 1].wrapping_add(PHASED_STRIDE) & Width::W32.mask())
        );
        // First phase revisits a small working set.
        let unique: std::collections::HashSet<_> = v[..1024].iter().collect();
        assert!(unique.len() <= 6, "{} unique loop values", unique.len());
    }

    #[test]
    fn figure_lines_cover_random_plus_all() {
        let lines = Workload::figure_lines(BusKind::Memory);
        assert_eq!(lines.len(), 18);
        assert_eq!(lines[0], Workload::Random);
    }

    #[test]
    fn random_trace_is_deterministic() {
        let a = Workload::Random.trace(100, 5);
        let b = Workload::Random.trace(100, 5);
        assert_eq!(a, b);
    }
}
