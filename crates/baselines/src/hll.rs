//! HyperLogLog (Flajolet, Fusy, Gandouet, Meunier 2007).
//!
//! Same register structure as LogLog but estimated through the
//! *harmonic* mean, which suppresses the heavy upper tail without
//! SuperLogLog's truncation:
//!
//! ```text
//! E = α_t · t² / Σ 2^(−M_j)                          (paper Eq. 4)
//! ```
//!
//! plus the small-range correction from the original paper: when
//! `E ≤ 2.5·t` and some registers are still zero, fall back to linear
//! counting over the register-zero indicator, `E* = t · ln(t/V)`.
//!
//! The classic large-range correction (for 32-bit hash saturation) is
//! intentionally absent: the geometric lane here carries 32 bits of
//! rank from an independent 64-bit hash, following the HLL++ "64-bit
//! hash" design, so hash-collision saturation is out of reach for any
//! cardinality this workspace targets.

use smb_core::{CardinalityEstimator, Error, Result};
use smb_hash::{HashScheme, ItemHash};

use crate::constants::hll_alpha;
use crate::registers::MaxRegisters;

/// Register width in bits — 5, per the paper's memory accounting
/// ("an HLL++ register is a counter of 5 bits").
const REGISTER_WIDTH: u8 = 5;

/// The HyperLogLog estimator.
///
/// ```
/// use smb_baselines::Hll;
/// use smb_core::CardinalityEstimator;
/// let mut hll = Hll::with_memory_bits(5000, Default::default()).unwrap(); // t = 1000
/// for i in 0..100_000u32 { hll.record(&i.to_le_bytes()); }
/// let est = hll.estimate();
/// assert!((est - 100_000.0).abs() / 100_000.0 < 0.15);
/// ```
#[derive(Debug, Clone)]
pub struct Hll {
    regs: MaxRegisters,
    scheme: HashScheme,
}

impl Hll {
    /// `t` registers with the default hash scheme.
    pub fn new(t: usize) -> Result<Self> {
        Self::with_scheme(t, HashScheme::default())
    }

    /// `t` registers with an explicit hash scheme.
    pub fn with_scheme(t: usize, scheme: HashScheme) -> Result<Self> {
        if t == 0 {
            return Err(Error::invalid("t", "need at least one register"));
        }
        Ok(Hll {
            regs: MaxRegisters::new(t, REGISTER_WIDTH),
            scheme,
        })
    }

    /// Memory-parity constructor: `t = m/5` registers.
    pub fn with_memory_bits(m: usize, scheme: HashScheme) -> Result<Self> {
        if m < 5 {
            return Err(Error::invalid("m", "need at least 5 bits"));
        }
        Self::with_scheme(m / 5, scheme)
    }

    /// Number of registers.
    pub fn registers(&self) -> usize {
        self.regs.len()
    }

    /// The raw (uncorrected) harmonic-mean estimate `E`.
    pub fn raw_estimate(&self) -> f64 {
        let t = self.regs.len() as f64;
        hll_alpha(self.regs.len()) * t * t / self.regs.harmonic_sum()
    }

}

impl CardinalityEstimator for Hll {
    #[inline]
    fn record_hash(&mut self, hash: ItemHash) {
        self.regs.update(hash);
    }

    fn estimate(&self) -> f64 {
        let t = self.regs.len() as f64;
        // Small-range correction first: when enough registers are
        // still zero that LC sits inside its reliable band, skip the
        // O(t) harmonic sum entirely (the zero count is maintained
        // incrementally). The 2.5t crossover in LC units corresponds to
        // the raw-estimate condition of the original paper.
        let v = self.regs.zero_count();
        if v > 0 {
            let lc = t * (t / v as f64).ln();
            if lc <= 2.5 * t {
                return lc;
            }
        }
        self.raw_estimate()
    }

    fn scheme(&self) -> HashScheme {
        self.scheme
    }

    fn memory_bits(&self) -> usize {
        self.regs.memory_bits()
    }

    fn clear(&mut self) {
        self.regs.clear();
    }

    fn name(&self) -> &'static str {
        "HLL"
    }

    fn max_estimate(&self) -> f64 {
        let t = self.regs.len() as f64;
        // All registers at the 5-bit cap.
        hll_alpha(self.regs.len()) * t * t / (t * 2f64.powi(-31))
    }

    fn snapshot_state(&self) -> Option<smb_devtools::Json> {
        Some(smb_devtools::Snapshot::to_json(self))
    }
}

impl smb_core::MergeableEstimator for Hll {
    fn merge_from(&mut self, other: &Self) -> Result<()> {
        if self.regs.len() != other.regs.len() {
            return Err(Error::merge("register counts differ"));
        }
        if self.scheme != other.scheme {
            return Err(Error::merge("hash schemes differ"));
        }
        self.regs.merge_max(&other.regs);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smb_core::MergeableEstimator;

    #[test]
    fn empty_estimates_zero() {
        let hll = Hll::new(128).unwrap();
        assert_eq!(hll.estimate(), 0.0); // t·ln(t/t) = 0 via LC branch
    }

    #[test]
    fn small_range_uses_linear_counting() {
        let mut hll = Hll::new(1024).unwrap();
        for i in 0..100u32 {
            hll.record(&i.to_le_bytes());
        }
        // LC at this load is near-exact.
        assert!((hll.estimate() - 100.0).abs() < 10.0, "{}", hll.estimate());
    }

    #[test]
    fn accuracy_large_n() {
        let n = 1_000_000u64;
        let mut errs = Vec::new();
        for seed in 0..6 {
            let mut hll = Hll::with_scheme(1000, HashScheme::with_seed(seed)).unwrap();
            for i in 0..n {
                hll.record(&i.to_le_bytes());
            }
            errs.push((hll.estimate() - n as f64).abs() / n as f64);
        }
        let mean = errs.iter().sum::<f64>() / errs.len() as f64;
        // Theory: 1.04/√1000 ≈ 0.033.
        assert!(mean < 0.09, "mean rel err {mean}: {errs:?}");
    }

    #[test]
    fn non_power_of_two_register_counts_work() {
        // The paper's memory parity gives t = 2000 for m = 10000.
        let mut hll = Hll::with_memory_bits(10_000, HashScheme::with_seed(3)).unwrap();
        assert_eq!(hll.registers(), 2000);
        let n = 300_000u64;
        for i in 0..n {
            hll.record(&i.to_le_bytes());
        }
        let rel = (hll.estimate() - n as f64).abs() / n as f64;
        assert!(rel < 0.1, "rel err {rel}");
    }

    #[test]
    fn duplicates_ignored() {
        let mut hll = Hll::new(64).unwrap();
        for _ in 0..1000 {
            hll.record(b"dup");
        }
        assert_eq!(hll.regs.zero_count(), 63);
    }

    #[test]
    fn merge_matches_combined_stream() {
        let scheme = HashScheme::with_seed(7);
        let mut a = Hll::with_scheme(512, scheme).unwrap();
        let mut b = Hll::with_scheme(512, scheme).unwrap();
        let mut c = Hll::with_scheme(512, scheme).unwrap();
        for i in 0..50_000u32 {
            let item = i.to_le_bytes();
            if i < 30_000 {
                a.record(&item);
            }
            if i >= 20_000 {
                b.record(&item);
            }
            c.record(&item);
        }
        a.merge_from(&b).unwrap();
        assert!((a.estimate() - c.estimate()).abs() < 1e-9);
    }

    #[test]
    fn clear_then_reuse() {
        let mut hll = Hll::new(256).unwrap();
        for i in 0..10_000u32 {
            hll.record(&i.to_le_bytes());
        }
        hll.clear();
        assert_eq!(hll.estimate(), 0.0);
    }
}

mod snapshot_impl {
    use super::Hll;
    use crate::registers::MaxRegisters;
    use smb_devtools::{Json, JsonError, Snapshot};
    use smb_hash::HashScheme;

    impl Snapshot for Hll {
        fn to_json(&self) -> Json {
            Json::Obj(vec![
                ("scheme".into(), self.scheme.to_json()),
                ("regs".into(), self.regs.to_json()),
            ])
        }

        fn from_json(v: &Json) -> Result<Self, JsonError> {
            Ok(Hll {
                scheme: HashScheme::from_json(v.field("scheme")?)?,
                regs: MaxRegisters::from_json(v.field("regs")?)?,
            })
        }
    }
}
