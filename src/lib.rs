//! # smb — Self-Morphing Bitmap workspace facade
//!
//! Reproduction of *Online Cardinality Estimation by Self-morphing
//! Bitmaps* (ICDE 2022). This crate re-exports the workspace's public
//! API so downstream users depend on a single crate:
//!
//! * [`core`] — the [`core::Smb`] estimator (the paper's contribution),
//!   the plain [`core::Bitmap`] (linear counting) and the shared
//!   [`core::CardinalityEstimator`] trait;
//! * [`baselines`] — MRB, FM/PCSA, LogLog, SuperLogLog, HLL, HLL++,
//!   HLL-TailCut, KMV/MinCount and the Adaptive Bitmap;
//! * [`theory`] — the Theorem 3 error bound, optimal-`T` search and
//!   analytic overhead model;
//! * [`stream`] — seeded workload generators, including the synthetic
//!   CAIDA-like packet trace;
//! * [`sketch`] — multi-stream frameworks (per-flow tables, estimator
//!   arrays) showing SMB as a plug-in estimator;
//! * [`factory`] — the [`factory::AlgoSpec`] unified
//!   estimator-construction API: one `(algorithm, memory bits, n_max,
//!   seed)` spec builds any estimator in the workspace;
//! * [`engine`] — the [`engine::ShardedFlowEngine`] multi-core
//!   per-flow ingest pipeline (hash once, partition by flow, batched
//!   lock-free shard workers with explicit backpressure);
//! * [`telemetry`] — the in-tree observability layer: lock-free
//!   [`telemetry::Registry`] metrics (counters, gauges, power-of-two
//!   histograms), SMB morph-event metrics via
//!   [`telemetry::BatchedMetricsObserver`], and JSON / Prometheus
//!   exporters;
//! * [`hash`] — the first-party hashing substrate.
//!
//! ## Quickstart
//!
//! ```
//! use smb::core::{CardinalityEstimator, Smb};
//!
//! // 5000 bits of memory, threshold T chosen for streams up to ~1M.
//! let mut est = Smb::builder().memory_bits(5000).expected_max_cardinality(1_000_000).build().unwrap();
//! for i in 0..10_000u32 {
//!     est.record(&i.to_le_bytes());
//!     est.record(&i.to_le_bytes()); // duplicates are never double-counted
//! }
//! let n_hat = est.estimate();
//! assert!((n_hat - 10_000.0).abs() / 10_000.0 < 0.2);
//! ```

pub use smb_baselines as baselines;
pub use smb_core as core;
pub use smb_engine as engine;
pub use smb_factory as factory;
pub use smb_hash as hash;
pub use smb_sketch as sketch;
pub use smb_stream as stream;
pub use smb_telemetry as telemetry;
pub use smb_theory as theory;
