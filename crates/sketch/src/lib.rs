//! # smb-sketch — multi-stream frameworks around the estimators
//!
//! The paper's motivating deployments measure *many* streams at once: a
//! router tracking the fan-out of every source (scan detection) or the
//! fan-in of every destination (DDoS detection). This crate provides
//! the structures those deployments need, generic over any
//! [`smb_core::CardinalityEstimator`] — demonstrating the paper's
//! §II-C claim that SMB slots into sketch frameworks as a plug-in:
//!
//! * [`flow_table::FlowTable`] — one estimator per flow key, created on
//!   demand from a factory; items are hashed once and fanned out. In
//!   tiered mode each flow lives in a [`flow_cell::FlowCell`] that
//!   starts as two inline machine words and only materializes a real
//!   estimator when the flow proves it needs one. It is the one
//!   per-flow store: engine workers, grouped recording,
//!   checkpoint/restore and the CLI all program against it.
//! * [`flow_cell::FlowCell`] — the tiered per-flow cell
//!   (Small → Array → Full) with exact, replay-based promotion.
//! * [`flow_store::TierStats`] — the table's tier-occupancy census.
//! * [`open_table::OpenTable`] — the open-addressed (robin-hood,
//!   backward-shift-deleting) map that backs [`flow_table::FlowTable`],
//!   keyed by pre-hashed 64-bit flow ids, with a prefetch-pipelined
//!   [`open_table::OpenTable::probe_batch`] that resolves a whole
//!   ingest batch's slots ahead of recording.
//! * [`prefetch`] — the portable software-prefetch hint behind the
//!   probe pipeline (x86_64 + aarch64 intrinsics, no-op elsewhere).
//! * [`array::EstimatorArray`] — a fixed pool of estimators shared by
//!   hashing flows onto `d` cells (the compact-sketch regime where
//!   per-flow allocation is too expensive); queries take the minimum
//!   over the flow's cells, Count-Min style.
//! * [`detector::ThresholdDetector`] — the online per-packet
//!   query loop from the paper's introduction (alarm when a flow's
//!   cardinality estimate crosses a threshold), which is exactly the
//!   workload where SMB's O(1) queries matter.
//! * [`window::JumpingWindow`] / [`window::SummingWindow`] — distinct
//!   counts over a recent time window instead of the whole stream.
//! * [`virtual_registers::VirtualRegisterSketch`] — register sharing
//!   across millions of flows with noise subtraction (the vHLL-style
//!   construction of §II-C).
//! * [`codec`] — the compressed binary codec for per-flow state
//!   (varint + zigzag delta hash lists, bit-packed bitmaps) behind the
//!   v2 checkpoint shard format and the wire `SNAPSHOT` payload; the
//!   byte format is specified in `PROTOCOL.md`.

// `deny`, not `forbid`: the `prefetch` module scopes a single `allow`
// around two side-effect-free prefetch intrinsics (see its module docs
// for the soundness argument); every other module stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod array;
pub mod codec;
pub mod detector;
pub mod flow_cell;
pub mod flow_store;
pub mod flow_table;
pub mod open_table;
pub mod prefetch;
pub mod virtual_registers;
pub mod window;

pub use array::EstimatorArray;
pub use detector::ThresholdDetector;
pub use flow_cell::{FlowCell, Tier, ARRAY_CAP, SMALL_CAP};
pub use flow_store::TierStats;
pub use flow_table::FlowTable;
pub use open_table::{OpenTable, PROBE_MISS};
pub use prefetch::{prefetch_read, PREFETCH_ACTIVE};
pub use virtual_registers::VirtualRegisterSketch;
pub use window::{JumpingWindow, SummingWindow};
