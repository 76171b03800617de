//! # smb-telemetry — in-tree observability for the SMB workspace
//!
//! A dependency-free telemetry layer:
//!
//! * [`Counter`], [`Gauge`], [`Histogram`] — lock-free atomic metric
//!   cells; histograms use power-of-two buckets with p50/p95/p99;
//! * [`Registry`] — named metric families with Prometheus-style
//!   labels; registration is idempotent, updates never lock;
//! * [`Registry::timer`] / [`Span`] — RAII scope timing into
//!   histograms;
//! * [`BatchedMetricsObserver`] — an [`smb_core::SmbObserver`] folding
//!   morph / clear / saturation events into seven registry metric
//!   families through thread-local delta buffers, flushed on batch
//!   boundaries (the observer the sharded engine attaches);
//! * [`FlightRecorder`] — a fixed-capacity lock-free ring retaining
//!   the last N morph / lifecycle events for `smbcount doctor` and
//!   `morphlog --last`;
//! * [`ExportFormat`] — render a [`RegistrySnapshot`] as compact JSON
//!   or Prometheus text exposition ([`morph_event_to_json`] renders
//!   one morph event);
//! * [`Reporter`] — a background thread emitting snapshots on an
//!   interval.
//!
//! The `smb-engine` crate builds its per-shard statistics on these
//! primitives; the `smbcount` CLI exposes them via `serve --metrics`
//! and `morphlog`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod delta;
pub mod export;
pub mod flight;
pub mod metrics;
pub mod registry;
pub mod reporter;
pub mod timer;

pub use delta::BatchedMetricsObserver;
pub use export::{morph_event_to_json, snapshot_to_json, snapshot_to_prometheus, ExportFormat};
pub use flight::{FlightEvent, FlightEventKind, FlightRecorder};
pub use metrics::{bucket_upper_bound, Counter, Gauge, Histogram, HistogramSnapshot};
pub use registry::{
    is_valid_label_name, is_valid_metric_name, Label, MetricKind, MetricSnapshot, MetricValue,
    Registry, RegistrySnapshot, SeriesSnapshot,
};
pub use reporter::Reporter;
pub use timer::Span;
