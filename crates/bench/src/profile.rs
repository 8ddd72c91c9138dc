//! Span-tree helpers shared by the metrics records and the daemon's
//! `profile` verb: cutting one experiment's subtree out of a drained
//! span list and rendering aggregated nodes as JSON or as
//! registry-style snapshots.

use busprobe::trace::SpanNode;

/// Restricts a drained span list to one experiment's subtree: spans at
/// or under the root span named `id`, with the `id/` prefix stripped
/// (the root itself maps to an empty path and is dropped — its wall
/// time is the record's `wall_s`). Order is preserved.
pub fn subtree(spans: &[busprobe::trace::TraceSpan], id: &str) -> Vec<busprobe::trace::TraceSpan> {
    let prefix = format!("{id}/");
    spans
        .iter()
        .filter(|s| s.path.starts_with(&prefix))
        .map(|s| {
            let mut s = s.clone();
            s.path = s.path[prefix.len()..].to_string();
            s
        })
        .collect()
}

/// Renders aggregated subtree nodes as a `metrics`-shaped JSON object
/// (`path → {count, total_ns, self_ns, max_ns}`), the parallel-mode
/// replacement for a registry snapshot: under concurrency the global
/// registry mixes experiments, but each span subtree is attributable.
pub fn nodes_to_json(nodes: &[SpanNode]) -> busprobe::JsonValue {
    use busprobe::JsonValue;
    let int = |v: u64| {
        i64::try_from(v)
            .map(JsonValue::Int)
            .unwrap_or(JsonValue::Num(v as f64))
    };
    JsonValue::Obj(
        nodes
            .iter()
            .map(|n| {
                (
                    n.path.clone(),
                    JsonValue::Obj(vec![
                        ("count".into(), int(n.count)),
                        ("total_ns".into(), int(n.total_ns)),
                        ("self_ns".into(), int(n.self_ns)),
                        ("max_ns".into(), int(n.max_ns)),
                    ]),
                )
            })
            .collect(),
    )
}

/// Converts aggregated span nodes into registry-style snapshots so the
/// stderr summary renderer can show a per-experiment table in parallel
/// metrics mode.
pub fn nodes_to_snapshots(nodes: &[SpanNode]) -> Vec<busprobe::MetricSnapshot> {
    nodes
        .iter()
        .map(|n| busprobe::MetricSnapshot {
            name: n.path.clone(),
            kind: busprobe::MetricKind::Span {
                count: n.count,
                total_ns: n.total_ns,
                max_ns: n.max_ns,
            },
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use busprobe::trace::TraceSpan;

    #[test]
    fn subtree_strips_the_root_prefix() {
        let mk = |path: &str| TraceSpan {
            path: path.into(),
            tid: 1,
            start_ns: 0,
            end_ns: 10,
            counters: Vec::new(),
        };
        let spans = vec![
            mk("fig16"),
            mk("fig16/buscoding.codec.evaluate_blocks"),
            mk("fig17/buscoding.codec.evaluate_blocks"),
        ];
        let sub = subtree(&spans, "fig16");
        assert_eq!(sub.len(), 1);
        assert_eq!(sub[0].path, "buscoding.codec.evaluate_blocks");
    }
}
