//! The `reproduce` workload: `repro all` as users run it (one fresh
//! session, the default parallel runner, no disk cache), checked
//! against golden CSV digests; and its traced counterpart, the registry
//! driven serially in-process with one span per experiment and emit.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

use bench::experiments::registry;
use bench::{plot, Session};

use crate::spans::Recorder;
use crate::stats::{median, percentile};
use crate::sys::{self, Exit};
use crate::{Ctx, Report};

/// Values per trace for every regeneration.
pub const VALUES: usize = 25_000;
/// Golden digests exist for `REPRO_SEED` 1..=GOLDEN_SEEDS.
const GOLDEN_SEEDS: u64 = 16;
/// `<repro seed> <csv file> <fnv-1a 64 hex>` lines recorded by
/// `perfbench record-golden` at the commit that defined the benchmark.
const GOLDEN: &str = include_str!("../golden/reproduce.txt");
/// Warm-up regenerations per run; the median is reported as set-up.
const WARMUPS: usize = 5;
/// Values per trace for the warm-ups: small, so they measure the fixed
/// cost of a regeneration (process start, session, registry, emit) and
/// fill the page cache before the timed regenerations.
const WARMUP_VALUES: usize = 2_000;

/// The `REPRO_SEED` a workload seed maps to (one with golden digests).
pub fn repro_seed(seed: u64) -> u64 {
    1 + seed % GOLDEN_SEEDS
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Golden `file → digest` for one repro seed.
fn golden(repro_seed: u64) -> BTreeMap<String, String> {
    let mut lines = GOLDEN.lines();
    assert_eq!(
        lines.next(),
        Some(format!("values {VALUES}").as_str()),
        "golden digests were recorded at another trace length"
    );
    lines
        .filter_map(|line| {
            let mut fields = line.split(' ');
            let seed: u64 = fields.next()?.parse().ok()?;
            let file = fields.next()?;
            let digest = fields.next()?;
            (seed == repro_seed).then(|| (file.to_string(), digest.to_string()))
        })
        .collect()
}

/// `file → digest` of every CSV in `dir`.
fn digests(dir: &Path) -> io::Result<BTreeMap<String, String>> {
    let mut out = BTreeMap::new();
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.extension().is_some_and(|e| e == "csv") {
            let name = path
                .file_name()
                .unwrap_or_default()
                .to_string_lossy()
                .into_owned();
            out.insert(name, format!("{:016x}", fnv1a(&fs::read(&path)?)));
        }
    }
    Ok(out)
}

/// CSVs that are missing, extra or differ from the golden set.
fn mismatches(expected: &BTreeMap<String, String>, got: &BTreeMap<String, String>) -> u64 {
    let mut bad = 0;
    for (file, digest) in expected {
        if got.get(file) != Some(digest) {
            eprintln!("reproduce: {file} is missing or differs from its golden digest");
            bad += 1;
        }
    }
    for file in got.keys().filter(|f| !expected.contains_key(*f)) {
        eprintln!("reproduce: unexpected output {file}");
        bad += 1;
    }
    bad
}

/// Runs `repro all` into `out`, returning its wall time and exit.
fn regenerate(repro: &Path, out: &Path, values: usize, repro_seed: u64) -> io::Result<(f64, Exit)> {
    let _ = fs::remove_dir_all(out);
    fs::create_dir_all(out)?;
    let log = fs::File::create(out.with_extension("log"))?;
    let start = Instant::now();
    let child = Command::new(repro)
        .arg("all")
        .env("REPRO_VALUES", values.to_string())
        .env("REPRO_SEED", repro_seed.to_string())
        .env("REPRO_OUT", out)
        .env_remove("REPRO_CACHE")
        .env_remove("REPRO_SERIAL")
        .env_remove("REPRO_METRICS")
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(log)
        .spawn()?;
    let exit = sys::reap(child)?;
    Ok((start.elapsed().as_secs_f64(), exit))
}

/// Set-up (warm-up regenerations), then timed regenerations.
pub fn run(ctx: &Ctx) -> io::Result<Report> {
    let seed = repro_seed(ctx.seed);
    let expected = golden(seed);
    if expected.is_empty() {
        return Err(io::Error::other("no golden digests for this seed"));
    }
    let mut report = Report::default();
    let mut warmups = Vec::new();
    for _ in 0..WARMUPS {
        let (wall, exit) = regenerate(&ctx.repro, Path::new("warmup-out"), WARMUP_VALUES, seed)?;
        report.checked(1, u64::from(!exit.success));
        warmups.push(wall);
    }

    // As many whole regenerations as fit the window, judged by the
    // first one; at least one.
    let mut walls = Vec::new();
    let mut rss = Vec::new();
    let mut reps = 1;
    while walls.len() < reps {
        let out = Path::new("reproduce-out");
        let (wall, exit) = regenerate(&ctx.repro, out, VALUES, seed)?;
        if walls.is_empty() {
            reps = ((ctx.seconds / wall).floor() as usize).max(1);
        }
        let bad = if exit.success {
            mismatches(&expected, &digests(out)?)
        } else {
            eprintln!(
                "reproduce: `repro all` failed (see {})",
                out.with_extension("log").display()
            );
            expected.len() as u64
        };
        report.checked(expected.len() as u64, bad);
        walls.push(wall);
        rss.push(exit.peak_rss_mb);
    }
    let _ = fs::remove_dir_all("reproduce-out");
    let _ = fs::remove_dir_all("warmup-out");

    // One regeneration is one operation of this workload.
    let total: f64 = walls.iter().sum();
    report.metric("wall_s", median(&walls), "s");
    report.metric("setup_s", median(&warmups), "s");
    report.metric(
        "peak_rss_mb",
        rss.iter().copied().fold(f64::NAN, f64::max),
        "MB",
    );
    report.metric("req_per_s", walls.len() as f64 / total, "1/s");
    report.metric("p50_ms", median(&walls) * 1e3, "ms");
    report.metric("p90_ms", percentile(&walls, 0.90) * 1e3, "ms");
    Ok(report)
}

/// Runs every experiment serially in-process on a fresh session, with
/// an `experiments.<id>` span around each and an `experiments.emit`
/// span around its CSV and plot rendering, and returns the pass's wall
/// seconds. A recording pass checks every CSV against the golden
/// digests; with a disabled recorder this is the untraced baseline the
/// tracing overhead is measured against.
pub fn registry_pass(rec: &mut Recorder, seed: u64, report: &mut Report) -> f64 {
    let seed = repro_seed(seed);
    let expected = golden(seed);
    let session = Session::builder()
        .values(VALUES)
        .seed(seed)
        .out_dir("registry-out")
        .disk_cache(false)
        .build();
    let mut got = BTreeMap::new();
    let mut failed = 0;
    let start = Instant::now();
    for (i, e) in registry().iter().enumerate() {
        rec.span(
            &format!("experiments.{}", e.id),
            i as u64,
            |rec| match catch_unwind(AssertUnwindSafe(|| (e.run)(&session))) {
                Ok(tables) => rec.span("experiments.emit", i as u64, |_| {
                    for table in &tables {
                        let csv = table.to_csv();
                        got.insert(
                            format!("{}.csv", table.id),
                            format!("{:016x}", fnv1a(csv.as_bytes())),
                        );
                        if let Some(spec) = plot::spec_for(&table.id) {
                            std::hint::black_box(plot::chart_table(table, &spec));
                        }
                    }
                }),
                Err(_) => {
                    eprintln!("reproduce: experiment {} panicked", e.id);
                    failed += 1;
                }
            },
        );
    }
    let wall_s = start.elapsed().as_secs_f64();
    if rec.enabled() {
        report.checked(expected.len() as u64, failed + mismatches(&expected, &got));
    }
    wall_s
}

/// The share of activity lookups the session store served during a
/// serial registry pass, from the session's own
/// `bench.session.activity_hits`/`activity_misses` counters. Those
/// count only while probes are on, which slows the pass, so this is a
/// pass of its own, untimed.
pub fn registry_hit_ratio(seed: u64) -> f64 {
    busprobe::reset();
    busprobe::set_enabled(true);
    registry_pass(&mut Recorder::disabled(), seed, &mut Report::default());
    busprobe::set_enabled(false);
    let counter = |name: &str| {
        busprobe::snapshot()
            .into_iter()
            .find(|s| s.name == name)
            .and_then(|s| match s.kind {
                busprobe::MetricKind::Counter { value } => Some(value),
                _ => None,
            })
            .unwrap_or(0)
    };
    let hits = counter("bench.session.activity_hits");
    let misses = counter("bench.session.activity_misses");
    hits as f64 / (hits + misses).max(1) as f64
}

/// Writes the golden digest file: `repro all` at [`VALUES`] for every
/// golden seed. Run once, at the commit whose output is the reference.
pub fn record_golden(repro: &Path, out: &Path) -> io::Result<()> {
    let mut text = format!("values {VALUES}\n");
    for seed in 1..=GOLDEN_SEEDS {
        let dir = Path::new("golden-out");
        let (wall, exit) = regenerate(repro, dir, VALUES, seed)?;
        if !exit.success {
            return Err(io::Error::other(format!(
                "`repro all` failed for seed {seed}"
            )));
        }
        let files = digests(dir)?;
        eprintln!(
            "record-golden: seed {seed}: {} CSVs in {wall:.1}s",
            files.len()
        );
        for (file, digest) in files {
            text.push_str(&format!("{seed} {file} {digest}\n"));
        }
    }
    let _ = fs::remove_dir_all("golden-out");
    fs::write(out, text)
}
