//! The estimator abstraction shared by the whole workspace.

use smb_hash::{HashScheme, ItemHash};

use crate::bits::BitVec;
use crate::error::Result;
use crate::observe::ObserverHandle;

/// A borrowed view of a bitmap-backed estimator's complete state: the
/// same fields its JSON snapshot carries, with the bitmap left in its
/// packed words. Encoders that write the state as bytes read this
/// instead of building and re-walking a JSON tree.
#[derive(Debug, Clone, Copy)]
pub enum PackedState<'a> {
    /// A self-morphing bitmap ([`crate::Smb`]): Algorithm 1's whole
    /// state is `(r, v)` plus the `m`-bit bitmap.
    Smb {
        /// The hash scheme items are recorded under.
        scheme: HashScheme,
        /// Physical bitmap size.
        m: usize,
        /// Morphing threshold `T`.
        t: usize,
        /// Current round.
        r: u32,
        /// Fresh bits set in the current round.
        v: usize,
        /// The physical bitmap.
        bits: &'a BitVec,
    },
    /// A plain bitmap ([`crate::Bitmap`]).
    Bitmap {
        /// The hash scheme items are recorded under.
        scheme: HashScheme,
        /// The bitmap.
        bits: &'a BitVec,
    },
}

/// A streaming cardinality estimator.
///
/// The recording path is split in two so that callers which already
/// hold an item's hash (per-flow sketches hash once and fan out to
/// several structures) pay for hashing only once:
///
/// * [`CardinalityEstimator::record`] hashes `item` through the
///   estimator's [`HashScheme`] and forwards to `record_hash`;
/// * [`CardinalityEstimator::record_hash`] consumes a pre-computed
///   [`ItemHash`]. The hash **must** come from this estimator's scheme
///   (same algorithm and seed), otherwise estimates are meaningless.
///
/// Implementations must be *duplicate-insensitive*: recording the same
/// item any number of times must leave the estimator in the same state
/// as recording it once (the paper's Theorem 2 proves this for SMB; it
/// holds structurally for all baselines).
pub trait CardinalityEstimator {
    /// Record one data item.
    fn record(&mut self, item: &[u8]) {
        let h = self.scheme().item_hash(item);
        self.record_hash(h);
    }

    /// Record an item whose hash was already computed under
    /// [`CardinalityEstimator::scheme`].
    fn record_hash(&mut self, hash: ItemHash);

    /// Record a batch of pre-computed hashes.
    ///
    /// Semantically identical to calling
    /// [`CardinalityEstimator::record_hash`] on each element in order.
    /// The default implementation is exactly that loop; estimators for
    /// which batching saves per-call work (e.g. [`crate::Smb`], whose
    /// geometric sampling filter rejects most items in late rounds)
    /// override it. Batch producers — the sharded engine, the benches —
    /// should prefer this entry point.
    fn record_hashes(&mut self, hashes: &[ItemHash]) {
        for &h in hashes {
            self.record_hash(h);
        }
    }

    /// Estimate the number of distinct items recorded so far.
    ///
    /// Pure: never mutates state, so it can be called per-item for
    /// online monitoring (the paper's "query throughput" metric).
    fn estimate(&self) -> f64;

    /// The hash scheme items are recorded under.
    fn scheme(&self) -> HashScheme;

    /// Nominal memory footprint in bits — the `m` of the paper's
    /// memory-parity comparisons (logical size, not including Rust
    /// object overhead).
    fn memory_bits(&self) -> usize;

    /// Reset to the empty state, keeping parameters and scheme.
    fn clear(&mut self);

    /// Short algorithm name for reports (e.g. `"SMB"`, `"MRB"`).
    fn name(&self) -> &'static str;

    /// The largest cardinality this configuration can meaningfully
    /// report (its estimate clamps here once saturated).
    fn max_estimate(&self) -> f64;

    /// True once the structure can no longer distinguish larger
    /// cardinalities.
    fn is_saturated(&self) -> bool {
        self.estimate() >= self.max_estimate()
    }

    /// Attach (or with `None`, detach) a lifecycle observer. Returns
    /// `true` if this estimator emits events — [`crate::Smb`] (morph,
    /// cleared, saturated) and [`crate::Bitmap`] (cleared, saturated)
    /// do; the default implementation ignores the handle and returns
    /// `false` so estimators without observable dynamics need no code.
    fn set_observer(&mut self, observer: Option<ObserverHandle>) -> bool {
        let _ = observer;
        false
    }

    /// Serialize this estimator's **full state** to the in-tree JSON
    /// snapshot format, object-safely — the durability hook the
    /// sharded engine's checkpointer calls on `Box<dyn
    /// CardinalityEstimator>` trait objects it cannot downcast.
    ///
    /// Returns `None` when the estimator does not support snapshots;
    /// every estimator constructible through `smb-factory` overrides
    /// this (delegating to its `smb_devtools::Snapshot` impl), so a
    /// `None` from a factory-built estimator never happens. The
    /// restore direction is deliberately *not* on this trait: rebuilding
    /// a concrete type from JSON needs the concrete type, which is
    /// `smb_factory::restore_estimator`'s job.
    ///
    /// Only available with the `snapshot` feature (the same feature
    /// that gates the `Snapshot` impls themselves).
    #[cfg(feature = "snapshot")]
    fn snapshot_state(&self) -> Option<smb_devtools::Json> {
        None
    }

    /// Borrow this estimator's state as a [`PackedState`], the
    /// allocation-free counterpart of
    /// [`CardinalityEstimator::snapshot_state`] for bitmap-backed
    /// estimators. It describes exactly the state `snapshot_state`
    /// serializes. Returns `None` (the default) when the estimator has
    /// no such view; callers then fall back to `snapshot_state`.
    ///
    /// Only available with the `snapshot` feature.
    #[cfg(feature = "snapshot")]
    fn packed_state(&self) -> Option<PackedState<'_>> {
        None
    }
}

/// Boxed estimators (including trait objects such as
/// `Box<dyn CardinalityEstimator + Send>`) are estimators themselves,
/// so generic containers like `FlowTable<E>` can hold heterogeneous
/// estimators chosen at runtime through `smb-factory`.
impl<T: CardinalityEstimator + ?Sized> CardinalityEstimator for Box<T> {
    fn record(&mut self, item: &[u8]) {
        (**self).record(item);
    }
    fn record_hash(&mut self, hash: ItemHash) {
        (**self).record_hash(hash);
    }
    fn record_hashes(&mut self, hashes: &[ItemHash]) {
        (**self).record_hashes(hashes);
    }
    fn estimate(&self) -> f64 {
        (**self).estimate()
    }
    fn scheme(&self) -> HashScheme {
        (**self).scheme()
    }
    fn memory_bits(&self) -> usize {
        (**self).memory_bits()
    }
    fn clear(&mut self) {
        (**self).clear();
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn max_estimate(&self) -> f64 {
        (**self).max_estimate()
    }
    fn is_saturated(&self) -> bool {
        (**self).is_saturated()
    }
    fn set_observer(&mut self, observer: Option<ObserverHandle>) -> bool {
        (**self).set_observer(observer)
    }
    #[cfg(feature = "snapshot")]
    fn snapshot_state(&self) -> Option<smb_devtools::Json> {
        (**self).snapshot_state()
    }
    #[cfg(feature = "snapshot")]
    fn packed_state(&self) -> Option<PackedState<'_>> {
        (**self).packed_state()
    }
}

/// Estimators whose union is well-defined: merging two estimators that
/// recorded streams `A` and `B` yields an estimator whose estimate
/// targets `|A ∪ B|`.
///
/// Bitmap, FM, the LogLog family and KMV support this; SMB and MRB do
/// not in general (their per-round / per-resolution sampling histories
/// cannot be reconciled), which their implementations document.
pub trait MergeableEstimator: CardinalityEstimator + Sized {
    /// Merge `other` into `self`.
    ///
    /// # Errors
    /// [`crate::Error::MergeIncompatible`] when parameters or hash
    /// schemes differ.
    fn merge_from(&mut self, other: &Self) -> Result<()>;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial exact counter used to exercise the trait's default
    /// `record` implementation.
    struct Exact {
        scheme: HashScheme,
        seen: std::collections::HashSet<u64>,
    }

    impl CardinalityEstimator for Exact {
        fn record_hash(&mut self, hash: ItemHash) {
            self.seen.insert(hash.raw());
        }
        fn estimate(&self) -> f64 {
            self.seen.len() as f64
        }
        fn scheme(&self) -> HashScheme {
            self.scheme
        }
        fn memory_bits(&self) -> usize {
            self.seen.len() * 64
        }
        fn clear(&mut self) {
            self.seen.clear();
        }
        fn name(&self) -> &'static str {
            "Exact"
        }
        fn max_estimate(&self) -> f64 {
            f64::INFINITY
        }
    }

    #[test]
    fn default_record_hashes_through_scheme() {
        let mut e = Exact {
            scheme: HashScheme::with_seed(1),
            seen: Default::default(),
        };
        e.record(b"a");
        e.record(b"a");
        e.record(b"b");
        assert_eq!(e.estimate(), 2.0);
        assert!(!e.is_saturated());
    }

    #[test]
    fn record_hashes_default_matches_loop() {
        let scheme = HashScheme::with_seed(3);
        let hashes: Vec<ItemHash> = (0..500u32)
            .map(|i| scheme.item_hash(&i.to_le_bytes()))
            .collect();
        let mut batched = Exact {
            scheme,
            seen: Default::default(),
        };
        let mut looped = Exact {
            scheme,
            seen: Default::default(),
        };
        batched.record_hashes(&hashes);
        for &h in &hashes {
            looped.record_hash(h);
        }
        assert_eq!(batched.estimate(), looped.estimate());
    }

    #[test]
    fn boxed_estimator_forwards_everything() {
        let mut e: Box<Box<dyn CardinalityEstimator>> = Box::new(Box::new(Exact {
            scheme: HashScheme::with_seed(1),
            seen: Default::default(),
        }));
        let scheme = e.scheme();
        e.record(b"x");
        e.record_hashes(&[scheme.item_hash(b"y"), scheme.item_hash(b"x")]);
        assert_eq!(e.estimate(), 2.0);
        assert_eq!(e.name(), "Exact");
        assert!(!e.is_saturated());
        e.clear();
        assert_eq!(e.estimate(), 0.0);
    }

    #[test]
    fn trait_is_object_safe() {
        let mut e: Box<dyn CardinalityEstimator> = Box::new(Exact {
            scheme: HashScheme::default(),
            seen: Default::default(),
        });
        e.record(b"x");
        assert_eq!(e.estimate(), 1.0);
        assert_eq!(e.name(), "Exact");
    }
}
