//! The versioned evaluation API: one request/response surface shared by
//! every front end.
//!
//! Historically each experiment called ad-hoc `Session` methods and the
//! only way to evaluate a scheme was to link against `bench` and write
//! Rust. This module names that operation: an [`EvalRequest`] describes
//! *what* to evaluate (a stored workload or an inline trace, one or
//! more schemes, the lambda weighting, optional circuit pricing), an
//! [`EvalResponse`] carries *what came out* (per-scheme transition
//! counts and energy, cache provenance, timing), and the [`Evaluator`]
//! trait is the seam between them. [`Session`] implements `Evaluator`;
//! the `repro` batch binary and the `repro serve` daemon are two thin
//! front ends over this one surface, so a request evaluated over the
//! socket is byte-for-byte the computation the batch binary runs.
//!
//! [`ApiService`] adapts an evaluator to the wire: it implements
//! [`busserve::Service`], translating JSON request bodies into
//! [`EvalRequest`]s and typed [`ApiError`]s into protocol error
//! envelopes. The wire grammar is documented in `docs/SERVICE.md`.

use std::sync::Mutex;
use std::time::Instant;

use buscoding::predict::trained::ArtifactError;
use buscoding::{percent_energy_removed, Activity, UnknownScheme, SCHEME_PATTERNS};
use busprobe::JsonValue;
use busserve::{Service, ServiceError};
use bustrace::hash::fnv1a;
use bustrace::{Trace, Width};
use wiremodel::{BusEnergyModel, Technology, TechnologyKind, Wire, WireStyle};

use crate::schemes::baseline_activity;
use crate::session::{ActivityQuery, Session};
use crate::workloads::Workload;

/// Version of the eval request/response schema. Bump on any change that
/// is not purely additive; responses echo it as `api`.
pub const API_VERSION: i64 = 1;

/// Largest trace a request may carry inline or ask for by `len`, in
/// words — the same cap [`bustrace::io`] applies when reading traces
/// from disk.
pub const MAX_INLINE_WORDS: usize = bustrace::io::DEFAULT_MAX_WORDS;

static EVALS: busprobe::StaticCounter = busprobe::StaticCounter::new("bench.api.evals");
static EVAL_SCHEMES: busprobe::StaticCounter = busprobe::StaticCounter::new("bench.api.schemes");

/// Where the words under evaluation come from.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceSource {
    /// A workload the session can regenerate deterministically, with
    /// optional overrides mirroring [`ActivityQuery`]'s knobs.
    Stored {
        /// The workload, addressed by [`Workload::name`].
        workload: Workload,
        /// Explicit trace length; defaults to the session length.
        len: Option<usize>,
        /// Upper bound applied after `len` resolves.
        cap: Option<usize>,
        /// Generator seed; defaults to the session seed.
        seed: Option<u64>,
    },
    /// Raw words shipped inside the request. Never memoized: the store
    /// is keyed by (workload, len, seed) provenance, which inline data
    /// does not have.
    Inline {
        /// Bus width the words are masked to.
        width: Width,
        /// The word stream.
        words: Vec<u64>,
    },
}

/// Optional circuit-level pricing: when present, each result also
/// carries wire energy in picojoules from [`wiremodel`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pricing {
    /// Process technology.
    pub tech: TechnologyKind,
    /// Wire style (unbuffered or repeated).
    pub style: WireStyle,
    /// Wire length in millimetres.
    pub length_mm: f64,
    /// Supply-voltage override in volts; defaults to the technology's
    /// nominal Vdd.
    pub vdd: Option<f64>,
}

impl Pricing {
    /// Builds the energy model this pricing describes.
    ///
    /// # Errors
    ///
    /// [`ApiError::BadRequest`] when the wire length or voltage is out
    /// of range.
    pub fn model(&self) -> Result<BusEnergyModel, ApiError> {
        let mut tech = Technology::of(self.tech);
        if let Some(vdd) = self.vdd {
            if !vdd.is_finite() || vdd <= 0.0 || vdd > 10.0 {
                return Err(ApiError::BadRequest(format!(
                    "pricing.vdd must be in (0, 10] volts, got {vdd}"
                )));
            }
            tech.vdd = vdd;
        }
        let wire = Wire::new(tech, self.style, self.length_mm)
            .map_err(|e| ApiError::BadRequest(format!("pricing: {e}")))?;
        Ok(BusEnergyModel::new(wire))
    }
}

/// One evaluation request: schemes × one trace source, plus pricing.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalRequest {
    /// Registry scheme names to evaluate, in response order.
    pub schemes: Vec<String>,
    /// The trace to run them over.
    pub source: TraceSource,
    /// Weight of coupling transitions relative to self transitions.
    pub lambda: f64,
    /// Optional circuit pricing.
    pub pricing: Option<Pricing>,
}

impl EvalRequest {
    /// A request over a stored workload with default knobs.
    pub fn stored(workload: Workload, schemes: Vec<String>) -> Self {
        EvalRequest {
            schemes,
            source: TraceSource::Stored {
                workload,
                len: None,
                cap: None,
                seed: None,
            },
            lambda: 1.0,
            pricing: None,
        }
    }

    /// A request over words shipped inline.
    pub fn inline(width: Width, words: Vec<u64>, schemes: Vec<String>) -> Self {
        EvalRequest {
            schemes,
            source: TraceSource::Inline { width, words },
            lambda: 1.0,
            pricing: None,
        }
    }

    /// Sets the lambda weighting.
    #[must_use]
    pub fn lambda(mut self, lambda: f64) -> Self {
        self.lambda = lambda;
        self
    }

    /// Caps a stored source's trace length (no-op for inline sources).
    #[must_use]
    pub fn cap(mut self, cap: usize) -> Self {
        if let TraceSource::Stored { cap: slot, .. } = &mut self.source {
            *slot = Some(cap);
        }
        self
    }

    /// Sets a stored source's explicit length (no-op for inline).
    #[must_use]
    pub fn len(mut self, len: usize) -> Self {
        if let TraceSource::Stored { len: slot, .. } = &mut self.source {
            *slot = Some(len);
        }
        self
    }

    /// Overrides a stored source's seed (no-op for inline).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        if let TraceSource::Stored { seed: slot, .. } = &mut self.source {
            *slot = Some(seed);
        }
        self
    }

    /// Attaches circuit pricing.
    #[must_use]
    pub fn pricing(mut self, pricing: Pricing) -> Self {
        self.pricing = Some(pricing);
        self
    }

    /// Parses a request from a JSON body (the flat object the wire
    /// envelope carries; `v`/`verb` keys are ignored here).
    ///
    /// # Errors
    ///
    /// Typed [`ApiError`]s for malformed fields, unknown workloads, and
    /// oversized inline traces. Unknown *schemes* are deliberately not
    /// rejected here — they surface per-evaluation so the error can
    /// name the offending scheme.
    pub fn from_json(body: &JsonValue) -> Result<Self, ApiError> {
        let schemes = parse_schemes(body)?;
        let source = if let Some(trace) = body.get("trace") {
            parse_inline(trace)?
        } else {
            parse_stored(body)?
        };
        let lambda = match body.get("lambda") {
            None => 1.0,
            Some(v) => {
                let l = v
                    .as_f64()
                    .ok_or_else(|| ApiError::BadRequest("`lambda` must be a number".into()))?;
                if !l.is_finite() || l < 0.0 {
                    return Err(ApiError::BadRequest(format!(
                        "`lambda` must be finite and non-negative, got {l}"
                    )));
                }
                l
            }
        };
        let pricing = match body.get("pricing") {
            None | Some(JsonValue::Null) => None,
            Some(p) => Some(parse_pricing(p)?),
        };
        Ok(EvalRequest {
            schemes,
            source,
            lambda,
            pricing,
        })
    }

    /// Renders the request as a JSON body — the inverse of
    /// [`from_json`](Self::from_json); front ends add the envelope's
    /// `v` and `verb` keys.
    pub fn to_json(&self) -> JsonValue {
        let mut pairs: Vec<(String, JsonValue)> = vec![(
            "schemes".into(),
            JsonValue::Arr(
                self.schemes
                    .iter()
                    .map(|s| JsonValue::Str(s.clone()))
                    .collect(),
            ),
        )];
        match &self.source {
            TraceSource::Stored {
                workload,
                len,
                cap,
                seed,
            } => {
                pairs.push(("workload".into(), JsonValue::Str(workload.name())));
                if let Some(len) = len {
                    pairs.push(("len".into(), int(*len as u64)));
                }
                if let Some(cap) = cap {
                    pairs.push(("cap".into(), int(*cap as u64)));
                }
                if let Some(seed) = seed {
                    pairs.push(("seed".into(), int(*seed)));
                }
            }
            TraceSource::Inline { width, words } => {
                pairs.push((
                    "trace".into(),
                    JsonValue::Obj(vec![
                        ("width".into(), int(u64::from(width.bits()))),
                        (
                            "words".into(),
                            JsonValue::Arr(words.iter().map(|&w| int(w)).collect()),
                        ),
                    ]),
                ));
            }
        }
        pairs.push(("lambda".into(), JsonValue::Num(self.lambda)));
        if let Some(p) = &self.pricing {
            let mut pp = vec![
                ("tech".into(), JsonValue::Str(p.tech.to_string())),
                ("style".into(), JsonValue::Str(p.style.to_string())),
                ("length_mm".into(), JsonValue::Num(p.length_mm)),
            ];
            if let Some(vdd) = p.vdd {
                pp.push(("vdd".into(), JsonValue::Num(vdd)));
            }
            pairs.push(("pricing".into(), JsonValue::Obj(pp)));
        }
        JsonValue::Obj(pairs)
    }
}

fn parse_schemes(body: &JsonValue) -> Result<Vec<String>, ApiError> {
    let schemes: Vec<String> = match body.get("schemes") {
        Some(JsonValue::Arr(items)) => items
            .iter()
            .map(|v| {
                v.as_str().map(String::from).ok_or_else(|| {
                    ApiError::BadRequest("`schemes` entries must be strings".into())
                })
            })
            .collect::<Result<_, _>>()?,
        Some(JsonValue::Str(one)) => vec![one.clone()],
        Some(_) => {
            return Err(ApiError::BadRequest(
                "`schemes` must be an array of scheme names".into(),
            ))
        }
        None => {
            return Err(ApiError::BadRequest(
                "request needs a `schemes` array".into(),
            ))
        }
    };
    if schemes.is_empty() {
        return Err(ApiError::BadRequest("`schemes` must not be empty".into()));
    }
    Ok(schemes)
}

fn parse_stored(body: &JsonValue) -> Result<TraceSource, ApiError> {
    let name = body
        .get("workload")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| {
            ApiError::BadRequest("request needs a `workload` name or an inline `trace`".into())
        })?;
    let workload =
        Workload::parse(name).ok_or_else(|| ApiError::UnknownWorkload(name.to_string()))?;
    let usize_field = |key: &str| -> Result<Option<usize>, ApiError> {
        match body.get(key) {
            None | Some(JsonValue::Null) => Ok(None),
            Some(v) => v
                .as_u64()
                .map(|n| Some(n as usize))
                .ok_or_else(|| ApiError::BadRequest(format!("`{key}` must be a non-negative integer"))),
        }
    };
    let seed = match body.get("seed") {
        None | Some(JsonValue::Null) => None,
        Some(v) => Some(v.as_u64().ok_or_else(|| {
            ApiError::BadRequest("`seed` must be a non-negative integer".into())
        })?),
    };
    let len = usize_field("len")?;
    if let Some(len) = len {
        check_size(len)?;
    }
    Ok(TraceSource::Stored {
        workload,
        len,
        cap: usize_field("cap")?,
        seed,
    })
}

/// Rejects a trace of more than [`MAX_INLINE_WORDS`] words before
/// anything is allocated for it.
fn check_size(words: usize) -> Result<(), ApiError> {
    if words > MAX_INLINE_WORDS {
        return Err(ApiError::TooLarge {
            words,
            limit: MAX_INLINE_WORDS,
        });
    }
    Ok(())
}

fn parse_inline(trace: &JsonValue) -> Result<TraceSource, ApiError> {
    let bits = trace
        .get("width")
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| ApiError::BadRequest("`trace.width` must be a bit count".into()))?;
    let bits = u32::try_from(bits)
        .map_err(|_| ApiError::BadRequest(format!("`trace.width` out of range: {bits}")))?;
    let width = Width::new(bits).map_err(|e| ApiError::BadRequest(format!("`trace.width`: {e}")))?;
    let words = match trace.get("words") {
        Some(JsonValue::Arr(items)) => {
            check_size(items.len())?;
            items
                .iter()
                .map(|v| {
                    v.as_u64().ok_or_else(|| {
                        ApiError::BadRequest(
                            "`trace.words` entries must be non-negative integers".into(),
                        )
                    })
                })
                .collect::<Result<Vec<u64>, _>>()?
        }
        _ => {
            return Err(ApiError::BadRequest(
                "`trace.words` must be an array of words".into(),
            ))
        }
    };
    Ok(TraceSource::Inline { width, words })
}

fn parse_pricing(p: &JsonValue) -> Result<Pricing, ApiError> {
    let tech = match p.get("tech").and_then(JsonValue::as_str) {
        Some("0.13um") => TechnologyKind::Tech013,
        Some("0.10um") => TechnologyKind::Tech010,
        Some("0.07um") => TechnologyKind::Tech007,
        Some(other) => {
            return Err(ApiError::BadRequest(format!(
                "`pricing.tech` must be one of 0.13um, 0.10um, 0.07um; got {other:?}"
            )))
        }
        None => {
            return Err(ApiError::BadRequest(
                "`pricing.tech` must be a technology name".into(),
            ))
        }
    };
    let style = match p.get("style").and_then(JsonValue::as_str) {
        Some("unbuffered") => WireStyle::Unbuffered,
        Some("repeated") | None => WireStyle::Repeated,
        Some(other) => {
            return Err(ApiError::BadRequest(format!(
                "`pricing.style` must be `unbuffered` or `repeated`; got {other:?}"
            )))
        }
    };
    let length_mm = p
        .get("length_mm")
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| ApiError::BadRequest("`pricing.length_mm` must be a number".into()))?;
    let vdd = match p.get("vdd") {
        None | Some(JsonValue::Null) => None,
        Some(v) => Some(
            v.as_f64()
                .ok_or_else(|| ApiError::BadRequest("`pricing.vdd` must be a number".into()))?,
        ),
    };
    Ok(Pricing {
        tech,
        style,
        length_mm,
        vdd,
    })
}

/// What went wrong with an evaluation request.
#[derive(Debug, Clone, PartialEq)]
pub enum ApiError {
    /// A field was missing or malformed.
    BadRequest(String),
    /// The workload name parsed but names nothing.
    UnknownWorkload(String),
    /// A scheme name is not in the registry.
    UnknownScheme(UnknownScheme),
    /// The trace exceeds [`MAX_INLINE_WORDS`].
    TooLarge {
        /// Words the request carried or asked for.
        words: usize,
        /// The accepted maximum.
        limit: usize,
    },
}

impl std::fmt::Display for ApiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ApiError::BadRequest(msg) => write!(f, "{msg}"),
            ApiError::UnknownWorkload(name) => write!(
                f,
                "unknown workload {name:?} (expected e.g. `random`, `phased/4096`, `gcc/register`)"
            ),
            ApiError::UnknownScheme(e) => write!(f, "{e}"),
            ApiError::TooLarge { words, limit } => {
                write!(f, "trace of {words} words exceeds the {limit}-word limit")
            }
        }
    }
}

impl std::error::Error for ApiError {}

impl From<UnknownScheme> for ApiError {
    fn from(e: UnknownScheme) -> Self {
        ApiError::UnknownScheme(e)
    }
}

impl From<ApiError> for ServiceError {
    fn from(e: ApiError) -> Self {
        let message = e.to_string();
        match e {
            ApiError::BadRequest(_) => ServiceError::bad_request(message),
            ApiError::UnknownWorkload(_) => ServiceError::new("unknown_workload", message),
            // A `trained:` name whose grammar is fine but whose
            // artifact cannot be loaded is its own wire condition:
            // `artifact_missing` when nothing was ever trained here,
            // `artifact_invalid` when the file exists but fails
            // validation. Everything else stays `unknown_scheme`, with
            // candidates that include concrete `trained:<name>` entries
            // only when the artifact directory actually has them.
            ApiError::UnknownScheme(err) => match err.artifact_error() {
                Some(artifact) => {
                    let kind = match artifact {
                        ArtifactError::Missing { .. } => "artifact_missing",
                        _ => "artifact_invalid",
                    };
                    ServiceError::new(kind, message)
                        .with_detail("scheme", JsonValue::Str(err.name().to_string()))
                }
                None => ServiceError::new("unknown_scheme", message)
                    .with_detail("scheme", JsonValue::Str(err.name().to_string()))
                    .with_detail(
                        "candidates",
                        JsonValue::Arr(
                            buscoding::scheme_candidates()
                                .into_iter()
                                .map(JsonValue::Str)
                                .collect(),
                        ),
                    ),
            },
            ApiError::TooLarge { words, limit } => ServiceError::new("too_large", message)
                .with_detail("words", int(words as u64))
                .with_detail("limit", int(limit as u64)),
        }
    }
}

/// One scheme's evaluation inside a response.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemeResult {
    /// The scheme's registry name, echoed from the request.
    pub scheme: String,
    /// Physical lines the coded bus uses.
    pub lines: u32,
    /// Self (ground-referenced) transitions.
    pub tau: u64,
    /// Coupling (inter-wire) transitions.
    pub kappa: u64,
    /// Words evaluated.
    pub steps: u64,
    /// `tau + lambda * kappa` under the request's lambda.
    pub weighted: f64,
    /// Percent of weighted baseline energy removed — the paper's
    /// headline metric.
    pub percent_removed: f64,
    /// Wire energy in picojoules under the request's pricing, when
    /// pricing was supplied.
    pub energy_pj: Option<f64>,
    /// Whether the activity was already resident in the session store
    /// before this request (never true for inline sources).
    pub cached: bool,
}

/// The un-encoded bus the percentages are relative to.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineSummary {
    /// Physical lines of the raw bus.
    pub lines: u32,
    /// Self transitions.
    pub tau: u64,
    /// Coupling transitions.
    pub kappa: u64,
    /// Words evaluated.
    pub steps: u64,
    /// `tau + lambda * kappa` under the request's lambda.
    pub weighted: f64,
    /// Wire energy in picojoules, when pricing was supplied.
    pub energy_pj: Option<f64>,
}

/// The outcome of one [`EvalRequest`].
#[derive(Debug, Clone, PartialEq)]
pub struct EvalResponse {
    /// Workload name, or `inline` for shipped words.
    pub workload: String,
    /// Resolved trace length actually evaluated.
    pub values: usize,
    /// Resolved generator seed; `None` for inline sources.
    pub seed: Option<u64>,
    /// The lambda the weighted figures use.
    pub lambda: f64,
    /// The un-encoded reference bus.
    pub baseline: BaselineSummary,
    /// Per-scheme results, in request order.
    pub results: Vec<SchemeResult>,
    /// How many schemes were served from the session store.
    pub cached: usize,
    /// How many schemes were evaluated fresh.
    pub computed: usize,
    /// Wall-clock time of the evaluation, in microseconds.
    pub wall_us: u64,
}

impl EvalResponse {
    /// Renders the response as JSON. The `results` array is fully
    /// deterministic — a function of the request alone — so front ends
    /// can be compared byte-for-byte on it; provenance (`cached` /
    /// `computed` counts) and `wall_us` live outside it because they
    /// legitimately differ between a cold batch run and a warm daemon.
    pub fn to_json(&self) -> JsonValue {
        let scheme_result = |r: &SchemeResult| {
            let mut pairs = vec![
                ("scheme".into(), JsonValue::Str(r.scheme.clone())),
                ("lines".into(), int(u64::from(r.lines))),
                ("tau".into(), int(r.tau)),
                ("kappa".into(), int(r.kappa)),
                ("steps".into(), int(r.steps)),
                ("weighted".into(), JsonValue::Num(r.weighted)),
                ("percent_removed".into(), JsonValue::Num(r.percent_removed)),
            ];
            if let Some(e) = r.energy_pj {
                pairs.push(("energy_pj".into(), JsonValue::Num(e)));
            }
            JsonValue::Obj(pairs)
        };
        let mut baseline = vec![
            ("lines".into(), int(u64::from(self.baseline.lines))),
            ("tau".into(), int(self.baseline.tau)),
            ("kappa".into(), int(self.baseline.kappa)),
            ("steps".into(), int(self.baseline.steps)),
            ("weighted".into(), JsonValue::Num(self.baseline.weighted)),
        ];
        if let Some(e) = self.baseline.energy_pj {
            baseline.push(("energy_pj".into(), JsonValue::Num(e)));
        }
        JsonValue::Obj(vec![
            ("api".into(), JsonValue::Int(API_VERSION)),
            ("workload".into(), JsonValue::Str(self.workload.clone())),
            ("values".into(), int(self.values as u64)),
            (
                "seed".into(),
                match self.seed {
                    Some(s) => int(s),
                    None => JsonValue::Null,
                },
            ),
            ("lambda".into(), JsonValue::Num(self.lambda)),
            ("baseline".into(), JsonValue::Obj(baseline)),
            (
                "results".into(),
                JsonValue::Arr(self.results.iter().map(scheme_result).collect()),
            ),
            (
                "provenance".into(),
                JsonValue::Obj(vec![
                    ("cached".into(), int(self.cached as u64)),
                    ("computed".into(), int(self.computed as u64)),
                ]),
            ),
            ("wall_us".into(), int(self.wall_us)),
        ])
    }
}

/// Anything that can answer an [`EvalRequest`]. [`Session`] is the
/// canonical implementation; front ends and tests depend on the trait
/// so a daemon, the batch binary, and a mock all present one surface.
pub trait Evaluator {
    /// Evaluates every scheme in the request over its trace source.
    ///
    /// # Errors
    ///
    /// A typed [`ApiError`]; implementations must not panic on bad
    /// requests.
    fn evaluate(&self, request: &EvalRequest) -> Result<EvalResponse, ApiError>;
}

impl Evaluator for Session {
    /// Schemes are evaluated in request order, serially: request-level
    /// parallelism belongs to the caller (the batch runner fans out
    /// over workloads; the daemon over shards), and keeping this leaf
    /// serial keeps thread fan-out bounded and results deterministic.
    fn evaluate(&self, request: &EvalRequest) -> Result<EvalResponse, ApiError> {
        let _span = busprobe::span("bench.api.evaluate");
        EVALS.inc();
        EVAL_SCHEMES.add(request.schemes.len() as u64);
        let start = Instant::now();
        let model = request.pricing.as_ref().map(Pricing::model).transpose()?;
        let price = |a: &Activity| model.as_ref().map(|m| m.energy_pj(a.tau(), a.kappa()));

        let (baseline, evaluated, workload, values, seed) = match &request.source {
            TraceSource::Stored {
                workload,
                len,
                cap,
                seed,
            } => {
                if let Some(len) = len {
                    check_size(*len)?;
                }
                let mut evaluated = Vec::with_capacity(request.schemes.len());
                let mut key = None;
                for scheme in &request.schemes {
                    let mut query = ActivityQuery::new(scheme.clone(), *workload);
                    if let Some(len) = len {
                        query = query.len(*len);
                    }
                    if let Some(cap) = cap {
                        query = query.cap(*cap);
                    }
                    if let Some(seed) = seed {
                        query = query.seed(*seed);
                    }
                    let cached = self.activity_cached(&query);
                    let activity = self.try_activity(&query)?;
                    key.get_or_insert_with(|| query.trace_key(self));
                    evaluated.push((activity, cached));
                }
                let key = key.expect("schemes is non-empty");
                let baseline = self.baseline_for(&key);
                (
                    baseline,
                    evaluated,
                    workload.name(),
                    key.values(),
                    Some(key.seed()),
                )
            }
            TraceSource::Inline { width, words } => {
                check_size(words.len())?;
                let trace = Trace::from_values(*width, words.iter().copied());
                let mut evaluated = Vec::with_capacity(request.schemes.len());
                for scheme in &request.schemes {
                    let mut pair = buscoding::scheme_by_name(scheme, *width)?;
                    evaluated.push((
                        buscoding::evaluate_blocks(pair.encoder_mut(), &trace),
                        false,
                    ));
                }
                let baseline = baseline_activity(&trace);
                (baseline, evaluated, "inline".to_string(), trace.len(), None)
            }
        };

        let results: Vec<SchemeResult> = request
            .schemes
            .iter()
            .zip(&evaluated)
            .map(|(scheme, (activity, cached))| SchemeResult {
                scheme: scheme.clone(),
                lines: activity.lines(),
                tau: activity.tau(),
                kappa: activity.kappa(),
                steps: activity.steps(),
                weighted: activity.weighted(request.lambda),
                percent_removed: percent_energy_removed(activity, &baseline, request.lambda),
                energy_pj: price(activity),
                cached: *cached,
            })
            .collect();
        let cached = results.iter().filter(|r| r.cached).count();
        Ok(EvalResponse {
            workload,
            values,
            seed,
            lambda: request.lambda,
            baseline: BaselineSummary {
                lines: baseline.lines(),
                tau: baseline.tau(),
                kappa: baseline.kappa(),
                steps: baseline.steps(),
                weighted: baseline.weighted(request.lambda),
                energy_pj: price(&baseline),
            },
            computed: results.len() - cached,
            cached,
            results,
            wall_us: start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64,
        })
    }
}

/// The wire adapter: implements [`busserve::Service`] over an
/// [`Evaluator`], exposing the `ping`, `eval`, `metrics`, and `profile`
/// verbs. Both `repro serve` front ends (socket daemon and stdio
/// single-shot) are this one struct behind different transports.
pub struct ApiService {
    session: Session,
}

impl ApiService {
    /// Wraps a session for serving.
    pub fn new(session: Session) -> Self {
        ApiService { session }
    }

    /// The resident session.
    pub fn session(&self) -> &Session {
        &self.session
    }

    fn eval(&self, body: &JsonValue) -> Result<JsonValue, ServiceError> {
        let request = EvalRequest::from_json(body)?;
        let response = self.session.evaluate(&request)?;
        Ok(response.to_json())
    }

    fn metrics(&self) -> JsonValue {
        let snaps = busprobe::snapshot();
        let value_of = |name: &str| {
            snaps
                .iter()
                .find(|s| s.name == name)
                .and_then(|s| match &s.kind {
                    busprobe::MetricKind::Counter { value } => Some(*value),
                    _ => None,
                })
                .unwrap_or(0)
        };
        let hits = value_of("bench.session.activity_hits");
        let misses = value_of("bench.session.activity_misses");
        let total = hits + misses;
        let hit_rate = if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        };
        JsonValue::Obj(vec![
            (
                "activity".into(),
                JsonValue::Obj(vec![
                    ("hits".into(), int(hits)),
                    ("misses".into(), int(misses)),
                    ("hit_rate".into(), JsonValue::Num(hit_rate)),
                ]),
            ),
            ("metrics".into(), busprobe::snapshot_to_json(&snaps)),
        ])
    }

    /// Runs one evaluation under the span recorder and returns the
    /// response together with its Chrome-trace span dump. The recorder
    /// is process-global, so concurrent `profile` requests serialize on
    /// a lock; spans from other in-flight requests are excluded by
    /// restricting to this request's subtree.
    fn profile(&self, body: &JsonValue) -> Result<JsonValue, ServiceError> {
        static RECORDER: Mutex<()> = Mutex::new(());
        let request = EvalRequest::from_json(body)?;
        let _guard = RECORDER.lock().unwrap_or_else(|p| p.into_inner());
        let was_on = busprobe::trace::enabled();
        busprobe::trace::clear();
        busprobe::trace::set_enabled(true);
        let outcome = {
            let _root = busprobe::span("bench.api.profile");
            self.session.evaluate(&request)
        };
        busprobe::trace::set_enabled(was_on);
        let drained = busprobe::trace::drain();
        // The daemon wraps every request in its own span, so the root
        // recorded here may carry a transport prefix (e.g.
        // `busserve.request/bench.api.profile`); find it by suffix.
        let spans = drained
            .iter()
            .find(|s| {
                s.path == "bench.api.profile" || s.path.ends_with("/bench.api.profile")
            })
            .map(|root| root.path.clone())
            .map(|id| crate::profile::subtree(&drained, &id))
            .unwrap_or_default();
        let response = outcome.map_err(ServiceError::from)?;
        Ok(JsonValue::Obj(vec![
            ("eval".into(), response.to_json()),
            ("spans".into(), int(spans.len() as u64)),
            ("chrome_trace".into(), busprobe::trace::chrome_trace(&spans)),
        ]))
    }
}

impl Service for ApiService {
    fn handle(&self, verb: &str, body: &JsonValue) -> Result<JsonValue, ServiceError> {
        match verb {
            "ping" => Ok(JsonValue::Obj(vec![
                ("pong".into(), JsonValue::Bool(true)),
                ("api".into(), JsonValue::Int(API_VERSION)),
                (
                    "schemes".into(),
                    JsonValue::Arr(
                        SCHEME_PATTERNS
                            .iter()
                            .map(|p| JsonValue::Str((*p).to_string()))
                            .collect(),
                    ),
                ),
            ])),
            "eval" => self.eval(body),
            "metrics" => Ok(self.metrics()),
            "profile" => self.profile(body),
            other => Err(ServiceError::new(
                "unknown_verb",
                format!("no such verb `{other}` (expected ping, eval, metrics, profile)"),
            )),
        }
    }

    /// Routes stored-source evaluations by their resolved trace key so
    /// repeated requests for one trace serialize onto one shard and hit
    /// its warm activity store. Inline sources and other verbs
    /// round-robin.
    fn route(&self, verb: &str, body: &JsonValue) -> Option<u64> {
        if verb != "eval" && verb != "profile" {
            return None;
        }
        let name = body.get("workload")?.as_str()?;
        let len = body.get("len").and_then(JsonValue::as_u64);
        let cap = body.get("cap").and_then(JsonValue::as_u64);
        let seed = body
            .get("seed")
            .and_then(JsonValue::as_u64)
            .unwrap_or_else(|| self.session.seed());
        let mut values = len.unwrap_or_else(|| self.session.values() as u64);
        if let Some(cap) = cap {
            values = values.min(cap);
        }
        Some(fnv1a(format!("{name}|{values}|{seed}").as_bytes()))
    }
}

fn int(v: u64) -> JsonValue {
    JsonValue::Int(i64::try_from(v).unwrap_or(i64::MAX))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn session() -> Session {
        Session::builder().values(400).seed(7).build()
    }

    #[test]
    fn request_json_round_trips() {
        let req = EvalRequest::stored(
            Workload::Random,
            vec!["window(8)".into(), "inversion(1ch l1.0)".into()],
        )
        .cap(100)
        .seed(9)
        .lambda(2.0)
        .pricing(Pricing {
            tech: TechnologyKind::Tech010,
            style: WireStyle::Repeated,
            length_mm: 10.0,
            vdd: Some(1.0),
        });
        let back = EvalRequest::from_json(&req.to_json()).expect("parses");
        assert_eq!(back, req);

        let inline = EvalRequest::inline(Width::W32, vec![1, 2, 3], vec!["identity".into()]);
        let back = EvalRequest::from_json(&inline.to_json()).expect("parses");
        assert_eq!(back, inline);
    }

    #[test]
    fn evaluate_matches_direct_session_calls() {
        let s = session();
        let req = EvalRequest::stored(Workload::Random, vec!["window(8)".into()]);
        let resp = s.evaluate(&req).expect("evaluates");
        let direct = s.activity(&ActivityQuery::new("window(8)", Workload::Random));
        let baseline = s.baseline(Workload::Random);
        assert_eq!(resp.results.len(), 1);
        assert_eq!(resp.results[0].tau, direct.tau());
        assert_eq!(resp.results[0].kappa, direct.kappa());
        assert_eq!(
            resp.results[0].percent_removed,
            percent_energy_removed(&direct, &baseline, 1.0)
        );
        assert_eq!(resp.baseline.tau, baseline.tau());
        assert_eq!(resp.workload, "random");
        assert_eq!(resp.values, 400);
        assert_eq!(resp.seed, Some(7));
    }

    #[test]
    fn evaluate_reports_cache_provenance() {
        let s = session();
        let req = EvalRequest::stored(Workload::Random, vec!["window(4)".into()]);
        let cold = s.evaluate(&req).expect("cold");
        assert_eq!((cold.cached, cold.computed), (0, 1));
        let warm = s.evaluate(&req).expect("warm");
        assert_eq!((warm.cached, warm.computed), (1, 0));
        assert!(warm.results[0].cached);
        // The deterministic half of the response is identical.
        assert_eq!(warm.results, {
            let mut r = cold.results.clone();
            r[0].cached = true;
            r
        });
    }

    #[test]
    fn evaluate_inline_matches_stored_trace_content() {
        let s = session();
        let trace = Workload::Random.trace(400, 7);
        let req = EvalRequest::inline(
            trace.width(),
            trace.values().to_vec(),
            vec!["window(8)".into()],
        );
        let inline = s.evaluate(&req).expect("inline");
        let stored = s
            .evaluate(&EvalRequest::stored(
                Workload::Random,
                vec!["window(8)".into()],
            ))
            .expect("stored");
        assert_eq!(inline.results[0].tau, stored.results[0].tau);
        assert_eq!(inline.results[0].kappa, stored.results[0].kappa);
        assert_eq!(inline.workload, "inline");
        assert_eq!(inline.seed, None);
        assert!(!inline.results[0].cached);
    }

    #[test]
    fn unknown_scheme_is_typed_with_candidates() {
        let s = session();
        let req = EvalRequest::stored(Workload::Random, vec!["tarot(3)".into()]);
        let err = s.evaluate(&req).expect_err("unknown scheme");
        assert!(matches!(err, ApiError::UnknownScheme(_)), "{err}");
        let service_err = ServiceError::from(err);
        assert_eq!(service_err.kind, "unknown_scheme");
        let candidates = service_err
            .detail
            .iter()
            .find(|(k, _)| k == "candidates")
            .map(|(_, v)| v.clone());
        // At least every static pattern; concrete `trained:<name>`
        // entries ride along only when the artifact directory has them.
        assert!(
            matches!(candidates, Some(JsonValue::Arr(ref items)) if items.len() >= SCHEME_PATTERNS.len()
                && items.iter().any(|v| matches!(v, JsonValue::Str(s) if s == "window(<entries>)"))),
            "{service_err:?}"
        );
    }

    #[test]
    fn hostile_scheme_names_are_unknown_scheme_and_the_service_survives() {
        let service = ApiService::new(session());
        for name in ["window(100000000000)", "fcm(2 2^31)", "inversion(7ch l1)"] {
            let stored = EvalRequest::stored(Workload::Random, vec![name.into()]);
            let inline = EvalRequest::inline(Width::W32, vec![1, 2, 3], vec![name.into()]);
            for body in [stored.to_json(), inline.to_json()] {
                let err = service.handle("eval", &body).expect_err(name);
                assert_eq!(err.kind, "unknown_scheme", "{name}: {err:?}");
            }
        }
        let body = EvalRequest::stored(Workload::Random, vec!["window(8)".into()]).to_json();
        service.handle("eval", &body).expect("the next request still succeeds");
    }

    #[test]
    fn pricing_attaches_energy() {
        let s = session();
        let req = EvalRequest::stored(Workload::Random, vec!["identity".into()]).pricing(Pricing {
            tech: TechnologyKind::Tech013,
            style: WireStyle::Repeated,
            length_mm: 10.0,
            vdd: None,
        });
        let resp = s.evaluate(&req).expect("evaluates");
        let energy = resp.results[0].energy_pj.expect("priced");
        assert!(energy > 0.0);
        // Identity coding leaves the trace alone: same counts as the
        // baseline, so the same energy.
        assert_eq!(Some(energy), resp.baseline.energy_pj);
        // Lower Vdd, quadratically less energy.
        let mut cheap = req.clone();
        cheap.pricing.as_mut().expect("set").vdd = Some(0.6);
        let cheap = s.evaluate(&cheap).expect("evaluates");
        assert!(cheap.results[0].energy_pj.expect("priced") < energy);
    }

    #[test]
    fn bad_requests_are_typed_not_panics() {
        // Both once crashed the daemon.
        let phased0 = r#"{"schemes":["identity"],"workload":"phased/0"}"#;
        let huge_len = r#"{"schemes":["identity"],"workload":"random","len":100000000000}"#;
        let cases: &[(&str, &str)] = &[
            (r#"{"workload":"random"}"#, "schemes"),
            (r#"{"schemes":[],"workload":"random"}"#, "empty"),
            (r#"{"schemes":["identity"]}"#, "workload"),
            (r#"{"schemes":["identity"],"workload":"gcc/cache"}"#, "unknown workload"),
            (
                r#"{"schemes":["identity"],"workload":"random","lambda":-1}"#,
                "lambda",
            ),
            (
                r#"{"schemes":["identity"],"trace":{"width":99,"words":[1]}}"#,
                "width",
            ),
            (
                r#"{"schemes":["identity"],"workload":"random","pricing":{"tech":"5um","length_mm":1}}"#,
                "tech",
            ),
            (phased0, "phase"),
            (huge_len, "len"),
        ];
        for (raw, why) in cases {
            let body = busprobe::json::parse(raw).expect("test json");
            assert!(EvalRequest::from_json(&body).is_err(), "{why}: {raw}");
        }
        let kind = |raw: &str| {
            let body = busprobe::json::parse(raw).expect("test json");
            ServiceError::from(EvalRequest::from_json(&body).expect_err(raw)).kind
        };
        assert_eq!(kind(phased0), "unknown_workload");
        assert_eq!(kind(huge_len), "too_large");
        // A programmatic request is bounded the same way.
        let huge = EvalRequest::stored(Workload::Random, vec!["identity".into()]).len(usize::MAX);
        assert!(matches!(
            session().evaluate(&huge),
            Err(ApiError::TooLarge { .. })
        ));
    }

    /// Keys and strings a request might carry, so arbitrary bodies
    /// reach every field parser rather than failing on the first
    /// missing key.
    const KEYS: &[&str] = &[
        "schemes",
        "workload",
        "trace",
        "width",
        "words",
        "lambda",
        "pricing",
        "tech",
        "style",
        "length_mm",
        "vdd",
        "len",
        "cap",
        "seed",
        "",
    ];
    const STRINGS: &[&str] = &[
        "identity",
        "window(8)",
        "random",
        "phased/0",
        "phased/4096",
        "gcc/register",
        "mixed/gcc+perl/register/0",
        "0.13um",
        "repeated",
        "unbuffered",
        "",
        "λ",
    ];
    const INTS: &[i64] = &[0, 1, 8, 32, 62, 64, 65, 99, -1, i64::MAX, i64::MIN, 1 << 40];

    fn pick<T: Copy>(rng: &mut proptest::TestRng, from: &[T]) -> T {
        from[rng.below(from.len() as u64) as usize]
    }

    /// An object over a random subset of [`KEYS`].
    fn arbitrary_object(rng: &mut proptest::TestRng, depth: u32) -> JsonValue {
        let mut pairs = Vec::new();
        for &key in KEYS {
            if rng.below(3) == 0 {
                pairs.push((key.to_string(), arbitrary_field(rng, key, depth)));
            }
        }
        JsonValue::Obj(pairs)
    }

    /// A value for `key`: usually of the type the field wants (at the
    /// edges of its range), otherwise anything.
    fn arbitrary_field(rng: &mut proptest::TestRng, key: &str, depth: u32) -> JsonValue {
        if rng.below(4) == 0 || depth == 0 {
            return arbitrary_json(rng, depth);
        }
        match key {
            "schemes" => JsonValue::Arr(
                (0..=rng.below(3))
                    .map(|_| JsonValue::Str(pick(rng, STRINGS).into()))
                    .collect(),
            ),
            "trace" | "pricing" => arbitrary_object(rng, depth - 1),
            "words" => JsonValue::Arr(
                (0..rng.below(5))
                    .map(|_| JsonValue::Int(pick(rng, INTS)))
                    .collect(),
            ),
            "lambda" | "length_mm" | "vdd" => JsonValue::Num(pick(rng, &[0.5, 2.0, -1.0, 1e300])),
            "workload" | "tech" | "style" | "" => JsonValue::Str(pick(rng, STRINGS).into()),
            _ => JsonValue::Int(pick(rng, INTS)),
        }
    }

    /// Any JSON value, nested at most `depth` deep.
    fn arbitrary_json(rng: &mut proptest::TestRng, depth: u32) -> JsonValue {
        match rng.below(if depth == 0 { 6 } else { 8 }) {
            0 => JsonValue::Null,
            1 => JsonValue::Bool(rng.below(2) == 1),
            2 => JsonValue::Int(pick(rng, INTS)),
            3 => JsonValue::Int(rng.next_u64() as i64),
            4 => JsonValue::Num(pick(rng, &[0.5, -0.0, 1e300, -2.5, f64::MIN_POSITIVE])),
            5 => JsonValue::Str(pick(rng, STRINGS).into()),
            6 => JsonValue::Arr(
                (0..rng.below(5))
                    .map(|_| arbitrary_json(rng, depth - 1))
                    .collect(),
            ),
            _ => arbitrary_object(rng, depth - 1),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(4096))]

        // Arbitrary bodies parse to a request or a typed error, never a
        // panic, and an accepted request stays within the size cap.
        #[test]
        fn arbitrary_bodies_are_requests_or_typed_errors(seed in proptest::prelude::any::<u64>()) {
            let mut rng = proptest::TestRng::deterministic(&seed.to_string());
            let mut body = arbitrary_object(&mut rng, 3);
            if let JsonValue::Obj(pairs) = &mut body {
                if rng.below(8) > 0 && !pairs.iter().any(|(k, _)| k == "schemes") {
                    pairs.push(("schemes".into(), arbitrary_field(&mut rng, "schemes", 3)));
                }
            }
            match EvalRequest::from_json(&body) {
                Ok(req) => match req.source {
                    TraceSource::Inline { words, .. } => {
                        proptest::prop_assert!(words.len() <= MAX_INLINE_WORDS);
                    }
                    TraceSource::Stored { len, .. } => {
                        proptest::prop_assert!(len.unwrap_or(0) <= MAX_INLINE_WORDS);
                    }
                },
                Err(e) => {
                    let _ = ServiceError::from(e);
                }
            }
        }
    }

    #[test]
    fn service_verbs_answer_over_handle() {
        let service = ApiService::new(session());
        let ping = service
            .handle("ping", &JsonValue::Obj(vec![]))
            .expect("ping");
        assert_eq!(ping.get("pong"), Some(&JsonValue::Bool(true)));

        let body = EvalRequest::stored(Workload::Random, vec!["window(8)".into()]).to_json();
        let eval = service.handle("eval", &body).expect("eval");
        assert_eq!(eval.get("workload").and_then(JsonValue::as_str), Some("random"));

        let metrics = service.handle("metrics", &JsonValue::Obj(vec![])).expect("metrics");
        assert!(metrics.get("activity").is_some());

        let err = service
            .handle("frobnicate", &JsonValue::Obj(vec![]))
            .expect_err("unknown verb");
        assert_eq!(err.kind, "unknown_verb");
    }

    #[test]
    fn routing_keys_depend_on_the_resolved_trace() {
        let service = ApiService::new(session());
        let body = |raw: &str| busprobe::json::parse(raw).expect("test json");
        let a = service.route("eval", &body(r#"{"workload":"random"}"#));
        // len equal to the session default resolves to the same key.
        let b = service.route("eval", &body(r#"{"workload":"random","len":400}"#));
        assert_eq!(a, b);
        assert!(a.is_some());
        // A different length is a different trace, hence a different key.
        assert_ne!(a, service.route("eval", &body(r#"{"workload":"random","len":100}"#)));
        // Inline sources and non-eval verbs round-robin.
        assert_eq!(service.route("eval", &body(r#"{"trace":{"width":32,"words":[]}}"#)), None);
        assert_eq!(service.route("metrics", &body(r#"{"workload":"random"}"#)), None);
    }
}
