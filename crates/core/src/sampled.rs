//! A bitmap recording under a *fixed* sampling probability.
//!
//! This is the building block the paper's §II-C Adaptive Bitmap is made
//! of: an item is recorded only if the sampled fraction of hash space
//! accepts it, and the linear-counting estimate is scaled back up by
//! `1/p`. It also illustrates exactly the problem SMB solves — the
//! right `p` depends on the (unknown) true cardinality, so a fixed `p`
//! is either wasteful (too small) or saturates (too large).

use smb_hash::{HashScheme, ItemHash};

use crate::bitmap::Bitmap;
use crate::bits::BitVec;
use crate::error::{Error, Result};
use crate::traits::{CardinalityEstimator, MergeableEstimator};

/// Bitmap with fixed sampling probability `p`.
///
/// Sampling uses the *geometric part* of the item hash compared against
/// a 32-bit acceptance bound, so it is consistent across estimators
/// sharing a scheme and independent of the index part used for bit
/// placement.
#[derive(Debug, Clone)]
pub struct SampledBitmap {
    bits: BitVec,
    ones: usize,
    /// Acceptance bound: the item is sampled iff the high 32 hash bits
    /// (as a uniform integer) are below this bound.
    bound: u32,
    p: f64,
    scheme: HashScheme,
}

impl SampledBitmap {
    /// An `m`-bit bitmap sampling items with probability `p ∈ (0, 1]`.
    pub fn new(m: usize, p: f64, scheme: HashScheme) -> Result<Self> {
        if m == 0 || m > u32::MAX as usize {
            return Err(Error::invalid("m", "must be in 1..=u32::MAX"));
        }
        if !(p > 0.0 && p <= 1.0) {
            return Err(Error::invalid("p", format!("must be in (0,1], got {p}")));
        }
        let bound = if p >= 1.0 {
            u32::MAX
        } else {
            (p * u32::MAX as f64) as u32
        };
        Ok(SampledBitmap {
            bits: BitVec::new(m),
            ones: 0,
            bound,
            p,
            scheme,
        })
    }

    /// The configured sampling probability.
    pub fn sampling_probability(&self) -> f64 {
        self.p
    }

    /// Number of one bits.
    pub fn ones(&self) -> usize {
        self.ones
    }
}

impl CardinalityEstimator for SampledBitmap {
    #[inline]
    fn record_hash(&mut self, hash: ItemHash) {
        // Use the high 32 bits (geometric lane) for the sampling
        // decision and the low 32 bits for placement, mirroring how
        // SMB splits one hash per item.
        let lane = (hash.raw() >> 32) as u32;
        if lane <= self.bound {
            let idx = hash.index(self.bits.len());
            if self.bits.set(idx) {
                self.ones += 1;
            }
        }
    }

    fn estimate(&self) -> f64 {
        Bitmap::linear_count(self.ones, self.bits.len()) / self.p
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
    }

    fn name(&self) -> &'static str {
        "SampledBitmap"
    }

    fn max_estimate(&self) -> f64 {
        let m = self.bits.len() as f64;
        m * m.ln() / self.p
    }

    fn is_saturated(&self) -> bool {
        self.ones >= self.bits.len()
    }

    fn snapshot_state(&self) -> Option<smb_devtools::Json> {
        Some(smb_devtools::Snapshot::to_json(self))
    }
}

impl MergeableEstimator for SampledBitmap {
    fn merge_from(&mut self, other: &Self) -> Result<()> {
        if self.bits.len() != other.bits.len() {
            return Err(Error::merge("bitmap lengths differ"));
        }
        if self.bound != other.bound {
            return Err(Error::merge("sampling probabilities differ"));
        }
        if self.scheme != other.scheme {
            return Err(Error::merge("hash schemes differ"));
        }
        self.ones += self.bits.union_with(&other.bits);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p_one_matches_plain_bitmap_semantics() {
        let scheme = HashScheme::with_seed(4);
        let mut s = SampledBitmap::new(4096, 1.0, scheme).unwrap();
        for i in 0..1500u32 {
            s.record(&i.to_le_bytes());
        }
        assert!((s.estimate() - 1500.0).abs() < 150.0, "{}", s.estimate());
    }

    #[test]
    fn sampling_scales_back_up() {
        let scheme = HashScheme::with_seed(8);
        let mut s = SampledBitmap::new(4096, 0.125, scheme).unwrap();
        let n = 100_000u32;
        for i in 0..n {
            s.record(&i.to_le_bytes());
        }
        let est = s.estimate();
        let rel = (est - n as f64).abs() / n as f64;
        assert!(rel < 0.15, "estimate {est} rel err {rel}");
        // Only ~1/8 of items should have been recorded.
        assert!(s.ones() < (n / 4) as usize);
    }

    #[test]
    fn invalid_params_rejected() {
        let sch = HashScheme::default();
        assert!(SampledBitmap::new(0, 0.5, sch).is_err());
        assert!(SampledBitmap::new(10, 0.0, sch).is_err());
        assert!(SampledBitmap::new(10, 1.5, sch).is_err());
        assert!(SampledBitmap::new(10, -0.1, sch).is_err());
    }

    #[test]
    fn duplicates_ignored() {
        let mut s = SampledBitmap::new(128, 1.0, HashScheme::default()).unwrap();
        for _ in 0..50 {
            s.record(b"dup");
        }
        assert_eq!(s.ones(), 1);
    }

    #[test]
    fn merge_requires_same_p() {
        let sch = HashScheme::with_seed(2);
        let mut a = SampledBitmap::new(64, 0.5, sch).unwrap();
        let b = SampledBitmap::new(64, 0.25, sch).unwrap();
        assert!(a.merge_from(&b).is_err());
        let c = SampledBitmap::new(64, 0.5, sch).unwrap();
        assert!(a.merge_from(&c).is_ok());
    }

    #[test]
    fn clear_resets() {
        let mut s = SampledBitmap::new(256, 0.5, HashScheme::default()).unwrap();
        for i in 0..1000u32 {
            s.record(&i.to_le_bytes());
        }
        s.clear();
        assert_eq!(s.ones(), 0);
        assert_eq!(s.estimate(), 0.0);
    }
}

mod snapshot_impl {
    use super::SampledBitmap;
    use crate::bits::BitVec;
    use smb_devtools::{Json, JsonError, Snapshot};
    use smb_hash::HashScheme;

    impl Snapshot for SampledBitmap {
        fn to_json(&self) -> Json {
            Json::Obj(vec![
                ("scheme".into(), self.scheme.to_json()),
                ("p".into(), Json::Float(self.p)),
                ("bits".into(), self.bits.to_json()),
            ])
        }

        fn from_json(v: &Json) -> Result<Self, JsonError> {
            let scheme = HashScheme::from_json(v.field("scheme")?)?;
            let p = v.field("p")?.as_f64()?;
            let bits = BitVec::from_json(v.field("bits")?)?;
            // The constructor re-validates (m, p) and rebuilds the
            // acceptance bound; `ones` is recomputed.
            let mut sampled = SampledBitmap::new(bits.len(), p, scheme)
                .map_err(|e| JsonError::new(e.to_string()))?;
            sampled.ones = bits.count_ones();
            sampled.bits = bits;
            Ok(sampled)
        }
    }
}
