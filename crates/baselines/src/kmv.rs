//! k-Minimum-Values (KMV / MinCount) — the paper's first category of
//! estimators ("keep the k minimum hash values and produce the estimate
//! from the k-th minimum"), included for completeness of the survey
//! comparison (§II-B; the paper cites the survey's finding that they
//! trail the LogLog family, which our accuracy experiments confirm).
//!
//! * [`Kmv`] (Bar-Yossef et al.; Beyer et al.'s unbiased form): track
//!   the `k` smallest distinct 64-bit hash values; with the k-th
//!   minimum normalised to `u = h_(k)/2⁶⁴`, estimate `n̂ = (k−1)/u`.
//! * [`MinCount`] (Giroire): `b` buckets each keeping the minimum hash
//!   fraction among its items; the logarithm-family estimator
//!   `n̂ = b · exp(mean(−ln M_i) − γ)` exploits
//!   `E[−ln min(U₁..U_c)] = H_c ≈ ln c + γ`.

use std::collections::BTreeSet;

use smb_core::{CardinalityEstimator, Error, Result};
use smb_hash::{HashScheme, ItemHash};

use crate::constants::EULER_GAMMA;

/// KMV estimator: the `k` smallest distinct hash values.
///
/// ```
/// use smb_baselines::Kmv;
/// use smb_core::CardinalityEstimator;
/// let mut kmv = Kmv::new(256).unwrap();
/// for i in 0..100_000u32 { kmv.record(&i.to_le_bytes()); }
/// let est = kmv.estimate();
/// assert!((est - 100_000.0).abs() / 100_000.0 < 0.3);
/// ```
#[derive(Debug, Clone)]
pub struct Kmv {
    k: usize,
    /// The current k smallest distinct hashes (ordered).
    mins: BTreeSet<u64>,
    scheme: HashScheme,
}

impl Kmv {
    /// Keep the `k` smallest hashes, default scheme.
    pub fn new(k: usize) -> Result<Self> {
        Self::with_scheme(k, HashScheme::default())
    }

    /// Keep the `k` smallest hashes.
    pub fn with_scheme(k: usize, scheme: HashScheme) -> Result<Self> {
        if k < 2 {
            return Err(Error::invalid("k", "need k ≥ 2 for the (k−1)/u estimator"));
        }
        Ok(Kmv {
            k,
            mins: BTreeSet::new(),
            scheme,
        })
    }

    /// Memory-parity constructor: `k = m/64` values for an `m`-bit
    /// budget (64-bit hashes retained).
    pub fn with_memory_bits(m: usize, scheme: HashScheme) -> Result<Self> {
        Self::with_scheme(m / 64, scheme)
    }

    /// The configured `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of values currently retained (`min(k, distinct so far)`).
    pub fn retained(&self) -> usize {
        self.mins.len()
    }
}

impl CardinalityEstimator for Kmv {
    #[inline]
    fn record_hash(&mut self, hash: ItemHash) {
        let h = hash.raw();
        if self.mins.len() < self.k {
            self.mins.insert(h);
        } else {
            let max = *self.mins.iter().next_back().expect("non-empty at k");
            if h < max && self.mins.insert(h) {
                self.mins.remove(&max);
            }
        }
    }

    fn estimate(&self) -> f64 {
        if self.mins.len() < self.k {
            // Fewer than k distinct items seen: the set is exact.
            return self.mins.len() as f64;
        }
        let kth = *self.mins.iter().next_back().expect("k values present");
        let u = (kth as f64 + 1.0) / 2f64.powi(64);
        (self.k as f64 - 1.0) / u
    }

    fn scheme(&self) -> HashScheme {
        self.scheme
    }

    fn memory_bits(&self) -> usize {
        self.k * 64
    }

    fn clear(&mut self) {
        self.mins.clear();
    }

    fn name(&self) -> &'static str {
        "KMV"
    }

    fn max_estimate(&self) -> f64 {
        // u can be as small as 2⁻⁶⁴.
        (self.k as f64 - 1.0) * 2f64.powi(64)
    }

    fn snapshot_state(&self) -> Option<smb_devtools::Json> {
        Some(smb_devtools::Snapshot::to_json(self))
    }
}

impl smb_core::MergeableEstimator for Kmv {
    fn merge_from(&mut self, other: &Self) -> Result<()> {
        if self.k != other.k {
            return Err(Error::merge("k differs"));
        }
        if self.scheme != other.scheme {
            return Err(Error::merge("hash schemes differ"));
        }
        for &h in &other.mins {
            self.record_hash(ItemHash::new(h));
        }
        Ok(())
    }
}

/// MinCount estimator (Giroire): `b` buckets of minimum hash fractions.
#[derive(Debug, Clone)]
pub struct MinCount {
    /// Per-bucket minimum of the hash fraction in (0, 1]; 1.0 = empty.
    mins: Vec<f64>,
    /// Buckets that have received at least one item.
    touched: usize,
    scheme: HashScheme,
}

impl MinCount {
    /// `b` buckets, default scheme.
    pub fn new(b: usize) -> Result<Self> {
        Self::with_scheme(b, HashScheme::default())
    }

    /// `b` buckets.
    pub fn with_scheme(b: usize, scheme: HashScheme) -> Result<Self> {
        if b == 0 {
            return Err(Error::invalid("b", "need at least one bucket"));
        }
        Ok(MinCount {
            mins: vec![1.0; b],
            touched: 0,
            scheme,
        })
    }

    /// Memory-parity constructor: `b = m/64` buckets (one f64-grade
    /// minimum each).
    pub fn with_memory_bits(m: usize, scheme: HashScheme) -> Result<Self> {
        Self::with_scheme((m / 64).max(1), scheme)
    }

    /// Number of buckets.
    pub fn buckets(&self) -> usize {
        self.mins.len()
    }
}

impl CardinalityEstimator for MinCount {
    #[inline]
    fn record_hash(&mut self, hash: ItemHash) {
        let b = self.mins.len();
        let idx = hash.index(b);
        // Fraction from the high 32 bits (independent of the index
        // lane), strictly positive to keep ln finite.
        let frac = (((hash.raw() >> 32) as u32 as f64) + 1.0) / (u32::MAX as f64 + 2.0);
        let slot = &mut self.mins[idx];
        if frac < *slot {
            if *slot == 1.0 {
                self.touched += 1;
            }
            *slot = frac;
        }
    }

    fn estimate(&self) -> f64 {
        let b = self.mins.len() as f64;
        if self.touched < self.mins.len() {
            // Sparse regime: linear counting over untouched buckets is
            // far more reliable than the log estimator.
            let empty = self.mins.len() - self.touched;
            return b * (b / empty as f64).ln();
        }
        let mean_neg_ln: f64 =
            self.mins.iter().map(|&m| -(m.ln())).sum::<f64>() / b;
        b * (mean_neg_ln - EULER_GAMMA).exp()
    }

    fn scheme(&self) -> HashScheme {
        self.scheme
    }

    fn memory_bits(&self) -> usize {
        self.mins.len() * 64
    }

    fn clear(&mut self) {
        self.mins.fill(1.0);
        self.touched = 0;
    }

    fn name(&self) -> &'static str {
        "MinCount"
    }

    fn max_estimate(&self) -> f64 {
        // Minimum representable fraction ≈ 2⁻³².
        let b = self.mins.len() as f64;
        b * ((2f64.powi(32)).ln() - EULER_GAMMA).exp()
    }

    fn snapshot_state(&self) -> Option<smb_devtools::Json> {
        Some(smb_devtools::Snapshot::to_json(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smb_core::MergeableEstimator;

    #[test]
    fn kmv_exact_below_k() {
        let mut kmv = Kmv::new(100).unwrap();
        for i in 0..50u32 {
            kmv.record(&i.to_le_bytes());
            kmv.record(&i.to_le_bytes()); // duplicates
        }
        assert_eq!(kmv.estimate(), 50.0);
        assert_eq!(kmv.retained(), 50);
    }

    #[test]
    fn kmv_estimates_beyond_k() {
        let n = 200_000u64;
        let mut errs = Vec::new();
        for seed in 0..8 {
            let mut kmv = Kmv::with_scheme(512, HashScheme::with_seed(seed)).unwrap();
            for i in 0..n {
                kmv.record(&i.to_le_bytes());
            }
            errs.push((kmv.estimate() - n as f64).abs() / n as f64);
        }
        let mean = errs.iter().sum::<f64>() / errs.len() as f64;
        // Theory: σ/n ≈ 1/√k ≈ 0.044.
        assert!(mean < 0.12, "mean rel err {mean}: {errs:?}");
    }

    #[test]
    fn kmv_never_retains_more_than_k() {
        let mut kmv = Kmv::new(16).unwrap();
        for i in 0..10_000u32 {
            kmv.record(&i.to_le_bytes());
            assert!(kmv.retained() <= 16);
        }
        assert_eq!(kmv.retained(), 16);
    }

    #[test]
    fn kmv_duplicates_ignored() {
        let mut kmv = Kmv::new(8).unwrap();
        for _ in 0..100 {
            kmv.record(b"dup");
        }
        assert_eq!(kmv.retained(), 1);
    }

    #[test]
    fn kmv_merge_equals_union() {
        let scheme = HashScheme::with_seed(3);
        let mut a = Kmv::with_scheme(64, scheme).unwrap();
        let mut b = Kmv::with_scheme(64, scheme).unwrap();
        let mut c = Kmv::with_scheme(64, scheme).unwrap();
        for i in 0..5000u32 {
            let item = i.to_le_bytes();
            if i % 2 == 0 {
                a.record(&item);
            } else {
                b.record(&item);
            }
            c.record(&item);
        }
        a.merge_from(&b).unwrap();
        assert_eq!(a.mins, c.mins);
    }

    #[test]
    fn kmv_invalid_params() {
        assert!(Kmv::new(0).is_err());
        assert!(Kmv::new(1).is_err());
        assert!(Kmv::new(2).is_ok());
    }

    #[test]
    fn mincount_sparse_regime_is_accurate() {
        let mut mc = MinCount::new(1024).unwrap();
        for i in 0..300u32 {
            mc.record(&i.to_le_bytes());
        }
        assert!((mc.estimate() - 300.0).abs() < 40.0, "{}", mc.estimate());
    }

    #[test]
    fn mincount_log_estimator_large_n() {
        let n = 500_000u64;
        let mut errs = Vec::new();
        for seed in 0..8 {
            let mut mc = MinCount::with_scheme(256, HashScheme::with_seed(seed)).unwrap();
            for i in 0..n {
                mc.record(&i.to_le_bytes());
            }
            errs.push((mc.estimate() - n as f64) / n as f64);
        }
        let mean_abs = errs.iter().map(|e| e.abs()).sum::<f64>() / errs.len() as f64;
        assert!(mean_abs < 0.25, "errors {errs:?}");
    }

    #[test]
    fn mincount_clear() {
        let mut mc = MinCount::new(32).unwrap();
        for i in 0..10_000u32 {
            mc.record(&i.to_le_bytes());
        }
        mc.clear();
        assert_eq!(mc.estimate(), 0.0);
        assert_eq!(mc.touched, 0);
    }
}

mod snapshot_impl {
    use super::{Kmv, MinCount};
    use smb_devtools::{Json, JsonError, Snapshot};
    use smb_hash::HashScheme;

    impl Snapshot for Kmv {
        fn to_json(&self) -> Json {
            Json::Obj(vec![
                ("scheme".into(), self.scheme.to_json()),
                ("k".into(), Json::Int(self.k as i128)),
                (
                    "mins".into(),
                    Json::Arr(self.mins.iter().map(|&h| Json::Int(h as i128)).collect()),
                ),
            ])
        }

        fn from_json(v: &Json) -> Result<Self, JsonError> {
            let scheme = HashScheme::from_json(v.field("scheme")?)?;
            let k = v.field("k")?.as_usize()?;
            let mut kmv =
                Kmv::with_scheme(k, scheme).map_err(|e| JsonError::new(e.to_string()))?;
            for item in v.field("mins")?.as_arr()? {
                kmv.mins.insert(item.as_u64()?);
            }
            if kmv.mins.len() > k {
                return Err(JsonError::new(format!(
                    "{} retained values exceed k = {k}",
                    kmv.mins.len()
                )));
            }
            Ok(kmv)
        }
    }

    impl Snapshot for MinCount {
        fn to_json(&self) -> Json {
            Json::Obj(vec![
                ("scheme".into(), self.scheme.to_json()),
                ("mins".into(), self.mins.to_json()),
            ])
        }

        fn from_json(v: &Json) -> Result<Self, JsonError> {
            let scheme = HashScheme::from_json(v.field("scheme")?)?;
            let mins: Vec<f64> = Vec::from_json(v.field("mins")?)?;
            if mins.is_empty() {
                return Err(JsonError::new("MinCount needs at least one bucket"));
            }
            for (idx, &frac) in mins.iter().enumerate() {
                if !(frac > 0.0 && frac <= 1.0) {
                    return Err(JsonError::new(format!(
                        "bucket {idx} minimum {frac} outside (0, 1]"
                    )));
                }
            }
            // `touched` is derived: untouched buckets sit at exactly 1.0.
            let touched = mins.iter().filter(|&&frac| frac < 1.0).count();
            Ok(MinCount {
                scheme,
                mins,
                touched,
            })
        }
    }
}
