//! The direct bitmap / linear-counting estimator (Whang et al.), the
//! paper's Eq. (1) baseline.
//!
//! An item `d` sets bit `H(d)` of an `m`-bit array. With `U` bits set,
//! the cardinality estimate is
//!
//! ```text
//! n̂ = −m · ln(1 − U/m)                                (paper Eq. 1)
//! ```
//!
//! The largest useful `U` is `m − 1`, so the estimation range tops out
//! at `m · ln m` — the limitation that motivates MRB and SMB.

use smb_hash::{HashScheme, ItemHash};

use crate::bits::BitVec;
use crate::error::{Error, Result};
use crate::observe::{EstimatorEvent, ObserverHandle};
use crate::traits::{CardinalityEstimator, MergeableEstimator};

/// Direct bitmap estimator (a.k.a. linear counting).
///
/// ```
/// use smb_core::{Bitmap, CardinalityEstimator};
/// let mut b = Bitmap::new(4096).unwrap();
/// for i in 0..1000u32 {
///     b.record(&i.to_le_bytes());
/// }
/// let est = b.estimate();
/// assert!((est - 1000.0).abs() < 100.0);
/// ```
#[derive(Debug, Clone)]
pub struct Bitmap {
    bits: BitVec,
    ones: usize,
    scheme: HashScheme,
    /// Lifecycle observer (cleared/saturated events) — the baseline's
    /// opt-in to the workspace observability hook.
    observer: Option<ObserverHandle>,
    saturation_emitted: bool,
}

impl Bitmap {
    /// A bitmap of `m` bits with the default hash scheme.
    pub fn new(m: usize) -> Result<Self> {
        Self::with_scheme(m, HashScheme::default())
    }

    /// A bitmap of `m` bits hashing through `scheme`.
    pub fn with_scheme(m: usize, scheme: HashScheme) -> Result<Self> {
        check_len(m)?;
        Self::from_parts(scheme, BitVec::new(m))
    }

    /// A bitmap holding `bits` — a restored state. `ones` is recomputed
    /// from the bits, never trusted from elsewhere.
    ///
    /// # Errors
    /// The same length constraints as [`Bitmap::with_scheme`].
    pub fn from_parts(scheme: HashScheme, bits: BitVec) -> Result<Self> {
        check_len(bits.len())?;
        Ok(Bitmap {
            ones: bits.count_ones(),
            bits,
            scheme,
            observer: None,
            saturation_emitted: false,
        })
    }

    /// Number of one bits (the paper's `U`). O(1): maintained
    /// incrementally.
    #[inline]
    pub fn ones(&self) -> usize {
        self.ones
    }

    /// `U/m`, the fill fraction.
    pub fn load_factor(&self) -> f64 {
        self.ones as f64 / self.bits.len() as f64
    }

    /// Linear-counting estimate for an arbitrary `(ones, m)` pair —
    /// exposed because MRB and SMB apply the same formula to logical
    /// sub-bitmaps. Saturated inputs (`ones >= m`) are clamped to
    /// `ones = m − 1`, the largest useful value.
    #[inline]
    pub fn linear_count(ones: usize, m: usize) -> f64 {
        debug_assert!(m > 0);
        let u = ones.min(m - 1);
        -(m as f64) * (1.0 - u as f64 / m as f64).ln()
    }

    /// Borrow the underlying bit array.
    pub fn as_bits(&self) -> &BitVec {
        &self.bits
    }
}

/// A bitmap needs at least one bit, and its indices fit in 32 bits.
fn check_len(m: usize) -> Result<()> {
    if m == 0 {
        return Err(Error::invalid("m", "bitmap must have at least one bit"));
    }
    if m > u32::MAX as usize {
        return Err(Error::invalid("m", "bitmap length must fit in 32 bits"));
    }
    Ok(())
}

impl CardinalityEstimator for Bitmap {
    #[inline]
    fn record_hash(&mut self, hash: ItemHash) {
        let idx = hash.index(self.bits.len());
        if self.bits.set(idx) {
            self.ones += 1;
            if !self.saturation_emitted && self.observer.is_some() && self.is_saturated() {
                self.saturation_emitted = true;
                if let Some(observer) = &self.observer {
                    observer.emit(EstimatorEvent::Saturated {
                        name: "Bitmap",
                        estimate: self.estimate(),
                    });
                }
            }
        }
    }

    fn estimate(&self) -> f64 {
        Self::linear_count(self.ones, self.bits.len())
    }

    fn scheme(&self) -> HashScheme {
        self.scheme
    }

    fn memory_bits(&self) -> usize {
        self.bits.len()
    }

    fn clear(&mut self) {
        self.bits.clear();
        self.ones = 0;
        self.saturation_emitted = false;
        if let Some(observer) = &self.observer {
            observer.emit(EstimatorEvent::Cleared { name: "Bitmap" });
        }
    }

    fn name(&self) -> &'static str {
        "Bitmap"
    }

    fn max_estimate(&self) -> f64 {
        let m = self.bits.len() as f64;
        m * m.ln()
    }

    fn is_saturated(&self) -> bool {
        self.ones >= self.bits.len()
    }

    fn set_observer(&mut self, observer: Option<ObserverHandle>) -> bool {
        self.observer = observer;
        true
    }

    #[cfg(feature = "snapshot")]
    fn snapshot_state(&self) -> Option<smb_devtools::Json> {
        Some(smb_devtools::Snapshot::to_json(self))
    }

    #[cfg(feature = "snapshot")]
    fn packed_state(&self) -> Option<crate::PackedState<'_>> {
        Some(crate::PackedState::Bitmap {
            scheme: self.scheme,
            bits: &self.bits,
        })
    }
}

impl MergeableEstimator for Bitmap {
    fn merge_from(&mut self, other: &Self) -> Result<()> {
        if self.bits.len() != other.bits.len() {
            return Err(Error::merge(format!(
                "bitmap lengths differ: {} vs {}",
                self.bits.len(),
                other.bits.len()
            )));
        }
        if self.scheme() != other.scheme() {
            return Err(Error::merge("hash schemes differ"));
        }
        self.ones += self.bits.union_with(&other.bits);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(b: &mut Bitmap, lo: u64, hi: u64) {
        for i in lo..hi {
            b.record(&i.to_le_bytes());
        }
    }

    #[test]
    fn empty_estimates_zero() {
        let b = Bitmap::new(1000).unwrap();
        assert_eq!(b.estimate(), 0.0);
        assert_eq!(b.ones(), 0);
        assert!(!b.is_saturated());
    }

    #[test]
    fn zero_bits_rejected() {
        assert!(matches!(
            Bitmap::new(0),
            Err(Error::InvalidParameter { param: "m", .. })
        ));
    }

    #[test]
    fn duplicates_do_not_change_state() {
        let mut b = Bitmap::new(256).unwrap();
        b.record(b"item");
        let ones = b.ones();
        let est = b.estimate();
        for _ in 0..100 {
            b.record(b"item");
        }
        assert_eq!(b.ones(), ones);
        assert_eq!(b.estimate(), est);
    }

    #[test]
    fn estimate_tracks_small_cardinalities_exactly_enough() {
        // With m >> n, collisions are rare and LC is near-exact.
        let mut b = Bitmap::new(100_000).unwrap();
        fill(&mut b, 0, 1000);
        assert!((b.estimate() - 1000.0).abs() < 30.0, "{}", b.estimate());
    }

    #[test]
    fn linear_count_formula_known_values() {
        // U = m(1 - e^-1) → n̂ = m.
        let m = 10_000usize;
        let u = (m as f64 * (1.0 - (-1.0f64).exp())).round() as usize;
        let est = Bitmap::linear_count(u, m);
        assert!((est - m as f64).abs() / (m as f64) < 0.001);
        // Saturation clamps at m-1.
        assert_eq!(Bitmap::linear_count(m, m), Bitmap::linear_count(m - 1, m));
        assert!(Bitmap::linear_count(m, m).is_finite());
    }

    #[test]
    fn max_estimate_is_m_ln_m() {
        let b = Bitmap::new(5000).unwrap();
        assert!((b.max_estimate() - 5000.0 * 5000f64.ln()).abs() < 1e-6);
    }

    #[test]
    fn clear_restores_empty_state() {
        let mut b = Bitmap::new(512).unwrap();
        fill(&mut b, 0, 300);
        b.clear();
        assert_eq!(b.ones(), 0);
        assert_eq!(b.estimate(), 0.0);
    }

    #[test]
    fn merge_is_union() {
        let scheme = HashScheme::with_seed(9);
        let mut a = Bitmap::with_scheme(8192, scheme).unwrap();
        let mut b = Bitmap::with_scheme(8192, scheme).unwrap();
        fill(&mut a, 0, 500);
        fill(&mut b, 250, 750); // overlap 250..500
        a.merge_from(&b).unwrap();
        // Union cardinality is 750.
        assert!((a.estimate() - 750.0).abs() < 60.0, "{}", a.estimate());
        // Ones counter must match a popcount recount.
        assert_eq!(a.ones(), a.as_bits().count_ones());
    }

    #[test]
    fn merge_rejects_mismatches() {
        let a = Bitmap::new(100).unwrap();
        let b = Bitmap::new(200).unwrap();
        let mut a2 = a.clone();
        assert!(a2.merge_from(&b).is_err());
        let c = Bitmap::with_scheme(100, HashScheme::with_seed(1)).unwrap();
        let mut a3 = a;
        assert!(a3.merge_from(&c).is_err());
    }

    #[test]
    fn ones_counter_matches_popcount_under_load() {
        let mut b = Bitmap::new(128).unwrap();
        fill(&mut b, 0, 10_000); // heavy saturation
        assert_eq!(b.ones(), b.as_bits().count_ones());
        assert!(b.is_saturated());
        assert!(b.estimate() <= b.max_estimate() + 1e-9);
    }
}

#[cfg(feature = "snapshot")]
mod snapshot_impl {
    use super::Bitmap;
    use crate::bits::BitVec;
    use smb_devtools::{Json, JsonError, Snapshot};
    use smb_hash::HashScheme;

    impl Snapshot for Bitmap {
        fn to_json(&self) -> Json {
            Json::Obj(vec![
                ("scheme".into(), self.scheme.to_json()),
                ("bits".into(), self.bits.to_json()),
            ])
        }

        fn from_json(v: &Json) -> Result<Self, JsonError> {
            let scheme = HashScheme::from_json(v.field("scheme")?)?;
            let bits = BitVec::from_json(v.field("bits")?)?;
            Bitmap::from_parts(scheme, bits).map_err(|e| JsonError::new(e.to_string()))
        }
    }
}
