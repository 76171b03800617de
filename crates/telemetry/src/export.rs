//! Render a [`RegistrySnapshot`] for the outside world: compact JSON
//! (via `smb-devtools`' writer) or Prometheus text exposition — and a
//! single [`MorphEvent`] as a JSON line.

use std::fmt::Write as _;

use smb_core::MorphEvent;
use smb_devtools::Json;

use crate::metrics::HistogramSnapshot;
use crate::registry::{MetricValue, RegistrySnapshot};

/// The wire formats a snapshot can be rendered in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExportFormat {
    /// Compact single-document JSON.
    Json,
    /// Prometheus text exposition (version 0.0.4).
    Prometheus,
}

impl ExportFormat {
    /// Parse a CLI-style format name (`json` / `prom` / `prometheus`).
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "json" => Some(ExportFormat::Json),
            "prom" | "prometheus" => Some(ExportFormat::Prometheus),
            _ => None,
        }
    }

    /// Render `snapshot` in this format.
    pub fn render(self, snapshot: &RegistrySnapshot) -> String {
        match self {
            ExportFormat::Json => snapshot_to_json(snapshot).to_string(),
            ExportFormat::Prometheus => snapshot_to_prometheus(snapshot),
        }
    }
}

/// The snapshot as a JSON document:
///
/// ```json
/// {"registry":"smb_engine","metrics":[
///   {"name":"engine_items_dropped_total","kind":"counter","help":"...",
///    "series":[{"labels":{"shard":"0"},"value":3}]}]}
/// ```
///
/// Histogram series values are objects with `count`, `sum`, `mean`,
/// `p50`/`p95`/`p99` and cumulative `buckets` (`[le, count]` pairs;
/// the final `le` is `null` for +Inf). Quantiles of an empty
/// histogram are a deterministic `0.0`; only `mean` can still be
/// `NaN` (0/0), which renders as `null`.
pub fn snapshot_to_json(snapshot: &RegistrySnapshot) -> Json {
    Json::Obj(vec![
        ("registry".into(), Json::str(&snapshot.registry)),
        (
            "metrics".into(),
            Json::Arr(
                snapshot
                    .metrics
                    .iter()
                    .map(|m| {
                        Json::Obj(vec![
                            ("name".into(), Json::str(&m.name)),
                            ("kind".into(), Json::str(m.kind.as_str())),
                            ("help".into(), Json::str(&m.help)),
                            (
                                "series".into(),
                                Json::Arr(
                                    m.series
                                        .iter()
                                        .map(|s| {
                                            Json::Obj(vec![
                                                (
                                                    "labels".into(),
                                                    Json::Obj(
                                                        s.labels
                                                            .iter()
                                                            .map(|(k, v)| {
                                                                (k.clone(), Json::str(v))
                                                            })
                                                            .collect(),
                                                    ),
                                                ),
                                                ("value".into(), value_to_json(&s.value)),
                                            ])
                                        })
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn value_to_json(value: &MetricValue) -> Json {
    match value {
        MetricValue::Counter(v) => Json::Int(*v as i128),
        MetricValue::Gauge(v) => Json::Int(*v as i128),
        MetricValue::Histogram(h) => histogram_to_json(h),
    }
}

fn histogram_to_json(h: &HistogramSnapshot) -> Json {
    Json::Obj(vec![
        ("count".into(), Json::Int(h.count as i128)),
        ("sum".into(), Json::Int(h.sum as i128)),
        ("mean".into(), Json::Float(h.mean())),
        ("p50".into(), Json::Float(h.p50)),
        ("p95".into(), Json::Float(h.p95)),
        ("p99".into(), Json::Float(h.p99)),
        (
            "buckets".into(),
            Json::Arr(
                h.buckets
                    .iter()
                    .map(|&(le, cum)| {
                        let le_json = if le == u64::MAX {
                            Json::Null
                        } else {
                            Json::Int(le as i128)
                        };
                        Json::Arr(vec![le_json, Json::Int(cum as i128)])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Escape a label value per the Prometheus text format: backslash,
/// double-quote and newline.
fn escape_label_value(out: &mut String, v: &str) {
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

/// Escape HELP text per the Prometheus text format: backslash and
/// newline (quotes are legal in HELP).
fn escape_help(out: &mut String, v: &str) {
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

fn write_labels(out: &mut String, labels: &[(String, String)], extra: Option<(&str, &str)>) {
    if labels.is_empty() && extra.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(k);
        out.push_str("=\"");
        escape_label_value(out, v);
        out.push('"');
    }
    if let Some((k, v)) = extra {
        if !first {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        escape_label_value(out, v);
        out.push('"');
    }
    out.push('}');
}

/// The snapshot in the Prometheus text exposition format: one
/// `# HELP` / `# TYPE` pair per family (never repeated), then one
/// sample line per series; histograms expand to cumulative
/// `_bucket{le="..."}` lines plus `_sum` and `_count`.
pub fn snapshot_to_prometheus(snapshot: &RegistrySnapshot) -> String {
    let mut out = String::new();
    for m in &snapshot.metrics {
        out.push_str("# HELP ");
        out.push_str(&m.name);
        out.push(' ');
        escape_help(&mut out, &m.help);
        out.push('\n');
        out.push_str("# TYPE ");
        out.push_str(&m.name);
        out.push(' ');
        out.push_str(m.kind.as_str());
        out.push('\n');
        for s in &m.series {
            match &s.value {
                MetricValue::Counter(v) => {
                    out.push_str(&m.name);
                    write_labels(&mut out, &s.labels, None);
                    let _ = writeln!(out, " {v}");
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&m.name);
                    write_labels(&mut out, &s.labels, None);
                    let _ = writeln!(out, " {v}");
                }
                MetricValue::Histogram(h) => {
                    let mut last_cum = 0;
                    for &(le, cum) in &h.buckets {
                        out.push_str(&m.name);
                        out.push_str("_bucket");
                        let le_text;
                        let le_str = if le == u64::MAX {
                            "+Inf"
                        } else {
                            le_text = le.to_string();
                            &le_text
                        };
                        write_labels(&mut out, &s.labels, Some(("le", le_str)));
                        let _ = writeln!(out, " {cum}");
                        last_cum = cum;
                    }
                    // The exposition format requires a terminal +Inf
                    // bucket equal to _count; our last stored bucket
                    // only plays that role when it is the 2^63 cell.
                    if h.buckets.last().map(|&(le, _)| le) != Some(u64::MAX) {
                        out.push_str(&m.name);
                        out.push_str("_bucket");
                        write_labels(&mut out, &s.labels, Some(("le", "+Inf")));
                        let _ = writeln!(out, " {last_cum}");
                    }
                    out.push_str(&m.name);
                    out.push_str("_sum");
                    write_labels(&mut out, &s.labels, None);
                    let _ = writeln!(out, " {}", h.sum);
                    out.push_str(&m.name);
                    out.push_str("_count");
                    write_labels(&mut out, &s.labels, None);
                    let _ = writeln!(out, " {}", h.count);
                }
            }
        }
    }
    out
}

/// A [`MorphEvent`] as one JSON object — the `smbcount morphlog`
/// line format.
pub fn morph_event_to_json(event: &MorphEvent) -> Json {
    Json::Obj(vec![
        ("round".into(), Json::Int(event.round as i128)),
        (
            "fresh_bits_at_close".into(),
            Json::Int(event.fresh_bits_at_close as i128),
        ),
        ("logical_size".into(), Json::Int(event.logical_size as i128)),
        (
            "items_since_last_morph".into(),
            Json::Int(event.items_since_last_morph as i128),
        ),
        (
            "estimate_at_close".into(),
            Json::Float(event.estimate_at_close),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    #[test]
    fn morph_event_json_shape() {
        let event = MorphEvent {
            round: 2,
            fresh_bits_at_close: 400,
            logical_size: 3296,
            items_since_last_morph: 12345,
            estimate_at_close: 67890.5,
        };
        let json = morph_event_to_json(&event);
        let text = json.to_string();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed.field("round").unwrap().as_u64().unwrap(), 2);
        assert_eq!(
            parsed
                .field("items_since_last_morph")
                .unwrap()
                .as_u64()
                .unwrap(),
            12345
        );
        assert!(
            (parsed.field("estimate_at_close").unwrap().as_f64().unwrap() - 67890.5).abs() < 1e-9
        );
    }

    fn sample_registry() -> Registry {
        let r = Registry::new("smb_test");
        r.counter_with("drops_total", "Dropped items", &[("shard", "0")])
            .add(3);
        r.counter_with("drops_total", "Dropped items", &[("shard", "1")])
            .add(4);
        r.gauge("queue_depth", "Queue depth").set(17);
        let h = r.histogram("latency_ns", "Latency");
        h.record(3);
        h.record(900);
        r
    }

    #[test]
    fn json_export_parses_back() {
        let snap = sample_registry().snapshot();
        let text = ExportFormat::Json.render(&snap);
        let parsed = Json::parse(&text).expect("valid JSON");
        assert_eq!(parsed.field("registry").unwrap().as_str().unwrap(), "smb_test");
        let metrics = parsed.field("metrics").unwrap().as_arr().unwrap();
        assert_eq!(metrics.len(), 3);
        let drops = &metrics[0];
        assert_eq!(drops.field("kind").unwrap().as_str().unwrap(), "counter");
        let series = drops.field("series").unwrap().as_arr().unwrap();
        assert_eq!(series.len(), 2);
        assert_eq!(
            series[1].field("value").unwrap().as_u64().unwrap(),
            4
        );
        let hist = metrics[2].field("series").unwrap().as_arr().unwrap()[0]
            .field("value")
            .unwrap()
            .clone();
        assert_eq!(hist.field("count").unwrap().as_u64().unwrap(), 2);
        assert_eq!(hist.field("sum").unwrap().as_u64().unwrap(), 903);
    }

    #[test]
    fn empty_histogram_json_is_still_valid() {
        let r = Registry::new("t");
        r.histogram("h", "h");
        let text = ExportFormat::Json.render(&r.snapshot());
        // Quantiles of an empty histogram are a deterministic 0.0;
        // only the NaN mean degrades to null.
        let parsed = Json::parse(&text).expect("valid JSON");
        let v = parsed.field("metrics").unwrap().as_arr().unwrap()[0]
            .field("series")
            .unwrap()
            .as_arr()
            .unwrap()[0]
            .field("value")
            .unwrap()
            .clone();
        assert_eq!(v.field("p50").unwrap().as_f64().unwrap(), 0.0);
        assert_eq!(v.field("p99").unwrap().as_f64().unwrap(), 0.0);
        assert!(matches!(v.field("mean").unwrap(), Json::Null));
    }

    #[test]
    fn prometheus_export_basics() {
        let text = ExportFormat::Prometheus.render(&sample_registry().snapshot());
        assert!(text.contains("# HELP drops_total Dropped items\n"));
        assert!(text.contains("# TYPE drops_total counter\n"));
        assert!(text.contains("drops_total{shard=\"0\"} 3\n"));
        assert!(text.contains("drops_total{shard=\"1\"} 4\n"));
        assert!(text.contains("queue_depth 17\n"));
        assert!(text.contains("latency_ns_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("latency_ns_sum 903\n"));
        assert!(text.contains("latency_ns_count 2\n"));
        // HELP/TYPE appear once per family even with two series.
        assert_eq!(text.matches("# HELP drops_total").count(), 1);
        assert_eq!(text.matches("# TYPE drops_total").count(), 1);
    }

    #[test]
    fn label_values_are_escaped() {
        let r = Registry::new("t");
        r.counter_with("c_total", "c", &[("path", "a\\b\"c\nd")]).inc();
        let text = snapshot_to_prometheus(&r.snapshot());
        assert!(text.contains("c_total{path=\"a\\\\b\\\"c\\nd\"} 1\n"));
    }

    #[test]
    fn format_names_parse() {
        assert_eq!(ExportFormat::from_name("json"), Some(ExportFormat::Json));
        assert_eq!(ExportFormat::from_name("prom"), Some(ExportFormat::Prometheus));
        assert_eq!(
            ExportFormat::from_name("prometheus"),
            Some(ExportFormat::Prometheus)
        );
        assert_eq!(ExportFormat::from_name("xml"), None);
    }
}
