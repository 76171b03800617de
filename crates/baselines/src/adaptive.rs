//! Adaptive Bitmap — the §II-C related work derived from MRB.
//!
//! The adaptive bitmap splits time into measurement intervals. A small
//! MRB (a fixed slice of the memory budget) coarsely measures each
//! interval; at the interval boundary its estimate `n_prev` chooses the
//! sampling probability for the *large* plain bitmap used in the next
//! interval: `p = min(1, ρ*·m / n_prev)` with the load target `ρ*`
//! chosen so the bitmap operates in linear counting's accurate region.
//!
//! The known failure mode — reproduced faithfully here and exercised by
//! the experiment harness — is a large cardinality change across
//! intervals: `p` is then badly set and the estimate is "ruined", which
//! is the paper's argument for SMB's continuous adaptation instead of
//! interval-boundary adaptation.

use smb_core::{CardinalityEstimator, Error, Result, SampledBitmap};
use smb_hash::{HashScheme, ItemHash};

use crate::mrb::Mrb;

/// Fraction of the memory budget given to the coarse MRB.
const COARSE_FRACTION: f64 = 0.10;

/// Target sampled-items-per-bit load for the big bitmap: with
/// `n·p ≈ ρ*·m`, the expected fill is `1 − e^(−ρ*) ≈ 0.8`, inside
/// linear counting's accurate operating region (Estan–Varghese's
/// virtual-bitmap guidance).
const LOAD_TARGET: f64 = 1.6;

/// The Adaptive Bitmap estimator.
///
/// Call [`AdaptiveBitmap::advance_interval`] at measurement-interval
/// boundaries; recording and querying between boundaries follow the
/// usual trait methods.
#[derive(Debug, Clone)]
pub struct AdaptiveBitmap {
    coarse: Mrb,
    fine: SampledBitmap,
    fine_bits: usize,
    scheme: HashScheme,
}

impl AdaptiveBitmap {
    /// An adaptive bitmap over `m` total bits, starting with sampling
    /// probability 1 (no knowledge of the stream yet).
    pub fn new(m: usize, scheme: HashScheme) -> Result<Self> {
        if m < 200 {
            return Err(Error::invalid(
                "m",
                "adaptive bitmap needs ≥ 200 bits (coarse MRB slice)",
            ));
        }
        let coarse_bits = ((m as f64) * COARSE_FRACTION) as usize;
        let fine_bits = m - coarse_bits;
        let coarse = Mrb::for_expected_cardinality(coarse_bits, 1e9, scheme.derive(1))?;
        let fine = SampledBitmap::new(fine_bits, 1.0, scheme)?;
        Ok(AdaptiveBitmap {
            coarse,
            fine,
            fine_bits,
            scheme,
        })
    }

    /// Close the current interval: use the coarse MRB's estimate of
    /// this interval to set the fine bitmap's sampling probability for
    /// the next, then reset both structures. Returns the probability
    /// chosen for the next interval.
    pub fn advance_interval(&mut self) -> f64 {
        let n_prev = self.coarse.estimate().max(1.0);
        let p = (LOAD_TARGET * self.fine_bits as f64 / n_prev).min(1.0);
        self.coarse.clear();
        self.fine = SampledBitmap::new(self.fine_bits, p, self.scheme)
            .expect("fine_bits and p validated at construction");
        p
    }

    /// The sampling probability currently applied to the fine bitmap.
    pub fn current_probability(&self) -> f64 {
        self.fine.sampling_probability()
    }

    /// The coarse MRB's running estimate of the current interval.
    pub fn coarse_estimate(&self) -> f64 {
        self.coarse.estimate()
    }
}

impl CardinalityEstimator for AdaptiveBitmap {
    #[inline]
    fn record_hash(&mut self, hash: ItemHash) {
        // Note: the coarse MRB uses a derived scheme; re-deriving the
        // hash per structure would double hashing cost, so the coarse
        // structure re-mixes the raw value instead (one multiply-shift,
        // far cheaper than a second full hash).
        self.fine.record_hash(hash);
        let remixed = smb_hash::mix::moremur(hash.raw());
        self.coarse.record_hash(ItemHash::new(remixed));
    }

    fn estimate(&self) -> f64 {
        if self.fine.is_saturated() {
            // The fine bitmap was mis-provisioned (the documented
            // failure mode); fall back to the coarse estimate rather
            // than return the clamped LC value silently.
            return self.coarse.estimate();
        }
        self.fine.estimate()
    }

    fn scheme(&self) -> HashScheme {
        self.scheme
    }

    fn memory_bits(&self) -> usize {
        self.fine.memory_bits() + self.coarse.memory_bits()
    }

    fn clear(&mut self) {
        self.coarse.clear();
        let p = self.fine.sampling_probability();
        self.fine = SampledBitmap::new(self.fine_bits, p, self.scheme)
            .expect("parameters already validated");
    }

    fn name(&self) -> &'static str {
        "AdaptiveBitmap"
    }

    fn max_estimate(&self) -> f64 {
        self.fine.max_estimate().max(self.coarse.max_estimate())
    }

    fn snapshot_state(&self) -> Option<smb_devtools::Json> {
        Some(smb_devtools::Snapshot::to_json(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(ab: &mut AdaptiveBitmap, lo: u64, hi: u64) {
        for i in lo..hi {
            ab.record(&i.to_le_bytes());
        }
    }

    #[test]
    fn needs_minimum_memory() {
        assert!(AdaptiveBitmap::new(100, HashScheme::default()).is_err());
        assert!(AdaptiveBitmap::new(5000, HashScheme::default()).is_ok());
    }

    #[test]
    fn first_interval_acts_like_plain_bitmap() {
        let mut ab = AdaptiveBitmap::new(5000, HashScheme::with_seed(2)).unwrap();
        assert_eq!(ab.current_probability(), 1.0);
        feed(&mut ab, 0, 1500);
        assert!((ab.estimate() - 1500.0).abs() < 200.0, "{}", ab.estimate());
    }

    #[test]
    fn interval_advance_tunes_probability() {
        let mut ab = AdaptiveBitmap::new(5000, HashScheme::with_seed(3)).unwrap();
        // Interval 0: a large stream saturates the p=1 fine bitmap, but
        // the coarse MRB still sees its magnitude.
        feed(&mut ab, 0, 500_000);
        let p = ab.advance_interval();
        assert!(p < 0.1, "big previous interval must shrink p, got {p}");
        // Interval 1: similar magnitude → accurate now.
        feed(&mut ab, 1_000_000, 1_450_000);
        let est = ab.estimate();
        let rel = (est - 450_000.0).abs() / 450_000.0;
        assert!(rel < 0.3, "est {est} rel {rel}");
    }

    #[test]
    fn cardinality_surge_ruins_estimate() {
        // The documented failure mode: tiny interval then huge interval.
        let mut ab = AdaptiveBitmap::new(5000, HashScheme::with_seed(4)).unwrap();
        feed(&mut ab, 0, 100); // tiny
        let p = ab.advance_interval();
        assert!((p - 1.0).abs() < 1e-9, "small interval keeps p = 1");
        feed(&mut ab, 10_000_000, 10_800_000); // surge: 800k distinct
        // The fine bitmap saturates; the estimator falls back to coarse,
        // but either way the fine structure alone is useless:
        assert!(ab.fine.is_saturated());
    }

    #[test]
    fn clear_keeps_probability() {
        let mut ab = AdaptiveBitmap::new(5000, HashScheme::with_seed(5)).unwrap();
        feed(&mut ab, 0, 300_000);
        let p = ab.advance_interval();
        ab.clear();
        assert_eq!(ab.current_probability(), p);
        assert_eq!(ab.coarse_estimate(), 0.0);
    }
}

mod snapshot_impl {
    use super::AdaptiveBitmap;
    use crate::mrb::Mrb;
    use smb_core::{CardinalityEstimator, SampledBitmap};
    use smb_devtools::{Json, JsonError, Snapshot};
    use smb_hash::HashScheme;

    impl Snapshot for AdaptiveBitmap {
        fn to_json(&self) -> Json {
            Json::Obj(vec![
                ("scheme".into(), self.scheme.to_json()),
                ("coarse".into(), self.coarse.to_json()),
                ("fine".into(), self.fine.to_json()),
            ])
        }

        fn from_json(v: &Json) -> Result<Self, JsonError> {
            let scheme = HashScheme::from_json(v.field("scheme")?)?;
            let coarse = Mrb::from_json(v.field("coarse")?)?;
            let fine = SampledBitmap::from_json(v.field("fine")?)?;
            // The coarse structure must hash through the derived scheme
            // the constructor would have assigned.
            if coarse.scheme() != scheme.derive(1) {
                return Err(JsonError::new(
                    "coarse MRB scheme is not derive(1) of the outer scheme",
                ));
            }
            let fine_bits = fine.memory_bits();
            Ok(AdaptiveBitmap {
                coarse,
                fine,
                fine_bits,
                scheme,
            })
        }
    }
}
