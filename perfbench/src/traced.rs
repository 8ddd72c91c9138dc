//! The traced run (`--trace 1`): every per-layer metric, whichever
//! workload is named. It drives the registry serially in-process, sends
//! a fixed prefix of both daemon scripts and replays their bodies, and
//! runs the layer pass. The named workload's own part also runs once
//! with the recorder off; the difference is the tracing overhead, and
//! `session.hit_ratio` is taken from that part. Spans are written to
//! `trace-<workload>-<seed>.json` in the work directory.

use std::io;

use crate::serve::{self, Mix};
use crate::spans::Recorder;
use crate::{layers, reproduce, Ctx, Report, Workload};

/// Runs the traced pass for `workload` and reports the per-layer metrics.
pub fn run(ctx: &Ctx, workload: Workload) -> io::Result<Report> {
    let mut report = Report::default();
    let mut rec = Recorder::new();

    // For `reproduce`, the untimed counting pass goes first so that the
    // untraced and traced passes both run in a warmed-up process.
    let own_registry = (workload == Workload::Reproduce).then(|| {
        let hit_ratio = reproduce::registry_hit_ratio(ctx.seed);
        let untraced = reproduce::registry_pass(&mut Recorder::disabled(), ctx.seed, &mut report);
        (hit_ratio, untraced)
    });
    let traced_registry = reproduce::registry_pass(&mut rec, ctx.seed, &mut report);
    let stored = serve::traced(
        ctx,
        Mix::Stored,
        &mut rec,
        workload == Workload::ServeMixed,
        &mut report,
    )?;
    let inline = serve::traced(
        ctx,
        Mix::Inline,
        &mut rec,
        workload == Workload::ServeInline,
        &mut report,
    )?;
    layers::run(ctx.seed, &mut report);

    let (hit_ratio, overhead_s) = match workload {
        Workload::Reproduce => {
            let (hit_ratio, untraced) = own_registry.expect("measured for reproduce");
            (hit_ratio, Some(traced_registry - untraced))
        }
        Workload::ServeMixed => (
            stored.hit_ratio,
            stored.untraced_s.map(|u| stored.traced_s - u),
        ),
        Workload::ServeInline => (
            inline.hit_ratio,
            inline.untraced_s.map(|u| inline.traced_s - u),
        ),
    };
    report.metric("session.hit_ratio", hit_ratio, "ratio");
    for (name, value, unit) in stored.metrics.into_iter().chain(inline.metrics) {
        report.metric(name, value, unit);
    }
    let totals = rec.totals();
    for e in bench::experiments::registry() {
        let secs = totals
            .get(&format!("experiments.{}", e.id))
            .map_or(f64::NAN, |t| t.self_ns as f64 / 1e9);
        report.metric(format!("experiments.{}_s", e.id), secs, "s");
    }
    let emit_s = totals
        .get("experiments.emit")
        .map_or(f64::NAN, |t| t.total_ns as f64 / 1e9);
    report.metric("experiments.emit_s", emit_s, "s");
    report.metric("trace.overhead_s", overhead_s.unwrap_or(f64::NAN), "s");

    let name = match workload {
        Workload::Reproduce => "reproduce",
        Workload::ServeMixed => "serve-mixed",
        Workload::ServeInline => "serve-inline",
    };
    rec.write(format!("trace-{name}-{}.json", ctx.seed).as_ref())?;
    eprintln!("traced: {} spans recorded", rec.len());
    Ok(report)
}
