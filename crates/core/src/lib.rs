//! # smb-core — the Self-Morphing Bitmap and its substrate
//!
//! This crate implements the paper's primary contribution:
//!
//! * [`Smb`] — the **Self-Morphing Bitmap** (Algorithm 1 / Algorithm 2
//!   of the paper): a single `m`-bit bitmap whose sampling probability
//!   halves each time `T` fresh bits are set, with an O(1) query that
//!   reads only the two integers `(r, v)`. Like Algorithm 1 it is a
//!   single-writer structure (`&mut self` to record); concurrent
//!   ingest comes from `smb-engine` giving every flow exactly one
//!   writer, its shard worker;
//! * [`Bitmap`] — the classic direct bitmap / linear-counting estimator
//!   (Whang et al.), which is both the paper's first baseline and the
//!   estimator applied inside each SMB round;
//! * [`SampledBitmap`] — a bitmap recording under a fixed sampling
//!   probability, the building block of the Adaptive Bitmap baseline;
//! * [`CardinalityEstimator`] — the trait shared by every estimator in
//!   the workspace, which lets downstream sketches treat estimators as
//!   plug-ins (the paper's §II-C);
//! * [`observe`] — the estimator lifecycle-observation hook: attach an
//!   [`SmbObserver`] to receive structured [`MorphEvent`]s as rounds
//!   close (what `smb-telemetry` builds its metrics adapters on);
//! * [`bits::BitVec`] — the packed bit-array substrate.
//!
//! All estimators hash items through [`smb_hash::HashScheme`], so
//! estimators built with the same scheme see identical hash values —
//! this is what the comparison harness in `smb-bench` relies on.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod bitmap;
pub mod bits;
pub mod error;
pub mod observe;
pub mod sampled;
pub mod smb;
pub mod traits;

pub use bitmap::Bitmap;
pub use bits::BitVec;
pub use error::{Error, Result};
pub use observe::{EstimatorEvent, MorphCollector, MorphEvent, ObserverHandle, SmbObserver};
pub use sampled::SampledBitmap;
pub use smb::{Smb, SmbBuilder, SmbParams, SmbSnapshot};
pub use traits::{CardinalityEstimator, MergeableEstimator, PackedState};
