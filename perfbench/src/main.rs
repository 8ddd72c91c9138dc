//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload <reproduce|serve-mixed|serve-inline> --seed N
//!           --seconds S --trace <0|1> --repro <path to repro> --work <dir>
//! perfbench record-golden --repro <path to repro> --work <dir> --out <file>
//! ```
//!
//! With `--trace 0` it runs the workload against the real `repro`
//! program and reports the end-to-end metrics; with `--trace 1` it runs
//! the traced layer pass instead and reports the per-layer metrics. The
//! last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (`name → {value, unit}`).
//! `run.sh` builds both programs and passes the paths; `NOTES.md` says
//! what each workload and metric is for.

mod layers;
mod reproduce;
mod serve;
mod spans;
mod stats;
mod sys;
mod traced;

use std::path::PathBuf;
use std::process::ExitCode;

use busprobe::json::JsonValue;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `repro all`: every registry table and figure.
    Reproduce,
    /// `repro serve` with stored-workload requests, mostly store hits.
    ServeMixed,
    /// `repro serve` with every request shipping its trace inline.
    ServeInline,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "reproduce" => Some(Workload::Reproduce),
            "serve-mixed" => Some(Workload::ServeMixed),
            "serve-inline" => Some(Workload::ServeInline),
            _ => None,
        }
    }
}

/// What every part of a run needs.
pub struct Ctx {
    /// The `repro` binary.
    pub repro: PathBuf,
    /// Workload seed; every generated input derives from it.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
}

/// The result line under construction.
#[derive(Default)]
pub struct Report {
    /// Checked operations.
    pub attempted: u64,
    /// Checked operations that failed or gave a wrong answer.
    pub failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Adds one metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Adds `attempted`/`failed` counts of a check.
    pub fn checked(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    fn to_json(&self) -> JsonValue {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.clone(),
                    JsonValue::Obj(vec![
                        ("value".into(), JsonValue::Num(*value)),
                        ("unit".into(), JsonValue::Str((*unit).into())),
                    ]),
                )
            })
            .collect();
        // A metric that could not be measured (NaN) makes the run
        // incorrect rather than printing an unparseable value.
        let measured = self.metrics.iter().all(|(_, v, _)| v.is_finite());
        JsonValue::Obj(vec![
            (
                "correct".into(),
                JsonValue::Bool(self.failed == 0 && self.attempted > 0 && measured),
            ),
            (
                "attempted".into(),
                JsonValue::Int(self.attempted.max(1) as i64),
            ),
            ("failed".into(), JsonValue::Int(self.failed as i64)),
            ("metrics".into(), JsonValue::Obj(metrics)),
        ])
    }
}

fn flag<'a>(args: &'a [String], name: &str) -> Result<&'a str, String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .ok_or_else(|| format!("missing {name} <value>"))
}

fn parse_num<T: std::str::FromStr>(args: &[String], name: &str) -> Result<T, String> {
    let raw = flag(args, name)?;
    raw.parse()
        .map_err(|_| format!("{name}: `{raw}` is not a valid value"))
}

/// Resolves `--repro` and enters `--work` (created if needed), so that
/// sockets and scratch files can use short relative paths.
fn enter_work_dir(args: &[String]) -> Result<PathBuf, String> {
    let repro =
        std::fs::canonicalize(flag(args, "--repro")?).map_err(|e| format!("--repro: {e}"))?;
    let work = PathBuf::from(flag(args, "--work")?);
    std::fs::create_dir_all(&work)
        .and_then(|()| std::env::set_current_dir(&work))
        .map_err(|e| format!("--work {}: {e}", work.display()))?;
    Ok(repro)
}

fn run(args: &[String]) -> Result<Option<Report>, String> {
    if args.first().map(String::as_str) == Some("record-golden") {
        let out = std::path::absolute(flag(args, "--out")?).map_err(|e| e.to_string())?;
        let repro = enter_work_dir(args)?;
        reproduce::record_golden(&repro, &out).map_err(|e| format!("record-golden: {e}"))?;
        return Ok(None);
    }
    let name = flag(args, "--workload")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let seed: u64 = parse_num(args, "--seed")?;
    let seconds: f64 = parse_num(args, "--seconds")?;
    let trace = match flag(args, "--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be a positive number".into());
    }
    let ctx = Ctx {
        repro: enter_work_dir(args)?,
        seed,
        seconds,
    };
    let report = match (trace, workload) {
        (true, _) => traced::run(&ctx, workload),
        (false, Workload::Reproduce) => reproduce::run(&ctx),
        (false, Workload::ServeMixed) => serve::run(&ctx, serve::Mix::Stored),
        (false, Workload::ServeInline) => serve::run(&ctx, serve::Mix::Inline),
    };
    report.map(Some).map_err(|e| format!("{name}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(Some(report)) => {
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Ok(None) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
