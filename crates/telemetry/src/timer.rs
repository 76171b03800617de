//! RAII spans: time a scope into a histogram.
//!
//! ```
//! use smb_telemetry::Registry;
//! let registry = Registry::new("smb_engine");
//! {
//!     let _span = registry.timer("ingest.batch");
//!     // ... timed work ...
//! } // span drops here, recording elapsed nanoseconds
//! # assert_eq!(registry.snapshot().metrics[0].name, "ingest_batch_ns");
//! ```

use std::sync::Arc;
use std::time::Instant;

use crate::metrics::Histogram;
use crate::registry::Registry;

/// Span names are free-form ("ingest.batch"); metric names are not.
/// Map every illegal character to `_` and suffix the unit.
pub(crate) fn span_metric_name(span: &str) -> String {
    let mut name: String = span
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if !name
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
    {
        name.insert(0, '_');
    }
    name.push_str("_ns");
    name
}

/// A running timer that records its elapsed nanoseconds into a
/// histogram when dropped.
#[derive(Debug)]
pub struct Span {
    histogram: Option<Arc<Histogram>>,
    start: Instant,
}

impl Span {
    /// A span that times nothing and records nowhere.
    pub fn noop() -> Self {
        Span {
            histogram: None,
            start: Instant::now(),
        }
    }

    /// Elapsed nanoseconds so far (saturating at `u64::MAX`).
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Stop now and record, instead of waiting for scope end.
    pub fn stop(self) {}

    /// Abandon the span without recording a sample.
    pub fn discard(mut self) {
        self.histogram = None;
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(h) = &self.histogram {
            h.record(u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
    }
}

impl Registry {
    /// Start a span timing into histogram `<sanitized-name>_ns`
    /// (`"ingest.batch"` → `ingest_batch_ns`). The histogram is
    /// registered on first use; afterwards each call is one clock
    /// read plus an RAII guard.
        pub fn timer(&self, span_name: &str) -> Span {
        let metric = span_metric_name(span_name);
        let histogram = self.histogram(
            &metric,
            &format!("Elapsed nanoseconds of the {span_name:?} span"),
        );
        Span {
            histogram: Some(histogram),
            start: Instant::now(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_names_sanitize_to_legal_metric_names() {
        assert_eq!(span_metric_name("ingest.batch"), "ingest_batch_ns");
        assert_eq!(span_metric_name("a-b c"), "a_b_c_ns");
        assert_eq!(span_metric_name("9lives"), "_9lives_ns");
        assert!(crate::registry::is_valid_metric_name(&span_metric_name(
            "99 red.balloons-go"
        )));
    }

    #[test]
    fn timer_records_into_suffixed_histogram() {
        let r = Registry::new("test");
        {
            let _span = r.timer("ingest.batch");
            std::hint::black_box(0u64);
        }
        r.timer("ingest.batch").stop();
        r.timer("ingest.batch").discard();
        let snap = r.snapshot();
        let h = snap
            .get("ingest_batch_ns", &[])
            .expect("histogram registered")
            .as_histogram()
            .unwrap()
            .clone();
        assert_eq!(h.count, 2, "two recorded, one discarded");
    }
}
