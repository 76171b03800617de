//! FM / PCSA — Probabilistic Counting with Stochastic Averaging
//! (Flajolet–Martin 1985), the paper's Eq. (3) baseline.
//!
//! Each of `t = m/32` registers is a 32-bit set `F`; an item routed to
//! register `i` sets bit `G(d)` (capped at 31). The statistic per
//! register is `z_i`, the number of consecutive ones starting at the
//! least-significant bit (equivalently the index of the lowest zero
//! bit), and the estimate is
//!
//! ```text
//! n̂ = (t/φ) · 2^{ (1/t) Σ z_i }        φ ≈ 0.77351   (paper Eq. 3)
//! ```

use smb_core::{CardinalityEstimator, Error, Result};
use smb_hash::{HashScheme, ItemHash};

use crate::constants::FM_PHI;

/// FM/PCSA estimator with `t` 32-bit registers.
///
/// ```
/// use smb_baselines::Fm;
/// use smb_core::CardinalityEstimator;
/// let mut fm = Fm::with_memory_bits(5000).unwrap(); // t = 156 registers
/// for i in 0..50_000u32 { fm.record(&i.to_le_bytes()); }
/// let est = fm.estimate();
/// assert!((est - 50_000.0).abs() / 50_000.0 < 0.3);
/// ```
#[derive(Debug, Clone)]
pub struct Fm {
    regs: Vec<u32>,
    scheme: HashScheme,
}

impl Fm {
    /// An FM sketch with `t` registers (32 bits each).
    pub fn new(t: usize) -> Result<Self> {
        Self::with_scheme(t, HashScheme::default())
    }

    /// `t` registers with an explicit hash scheme.
    pub fn with_scheme(t: usize, scheme: HashScheme) -> Result<Self> {
        if t == 0 {
            return Err(Error::invalid("t", "need at least one register"));
        }
        Ok(Fm {
            regs: vec![0u32; t],
            scheme,
        })
    }

    /// The paper's memory-parity constructor: `t = m/32` registers for
    /// an `m`-bit budget.
    pub fn with_memory_bits(m: usize) -> Result<Self> {
        Self::with_memory_bits_scheme(m, HashScheme::default())
    }

    /// Memory-parity constructor with an explicit scheme.
    pub fn with_memory_bits_scheme(m: usize, scheme: HashScheme) -> Result<Self> {
        if m < 32 {
            return Err(Error::invalid("m", "FM needs at least 32 bits (one register)"));
        }
        Self::with_scheme(m / 32, scheme)
    }

    /// Number of registers.
    pub fn registers(&self) -> usize {
        self.regs.len()
    }

    /// `z_i`: number of consecutive one bits of register `i` starting
    /// from the least-significant bit.
    #[inline]
    pub fn lowest_zero_index(reg: u32) -> u32 {
        (!reg).trailing_zeros()
    }
}

impl CardinalityEstimator for Fm {
    #[inline]
    fn record_hash(&mut self, hash: ItemHash) {
        let idx = hash.index(self.regs.len());
        let rank = hash.geometric().min(31);
        self.regs[idx] |= 1u32 << rank;
    }

    fn estimate(&self) -> f64 {
        let t = self.regs.len() as f64;
        // Small-range reduction (SMB paper §V-F): a raw PCSA estimate
        // can never fall below t/φ, so for small streams each register
        // is reduced to one bit (zero iff the register is all-zero) and
        // linear counting over those t bits applies. Used while any
        // register is empty and LC is inside its reliable range.
        let zeros = self.regs.iter().filter(|&&r| r == 0).count();
        if zeros > 0 {
            let lc = t * (t / zeros as f64).ln();
            if lc <= 2.5 * t {
                return lc;
            }
        }
        let mean_z: f64 = self
            .regs
            .iter()
            .map(|&r| Self::lowest_zero_index(r) as f64)
            .sum::<f64>()
            / t;
        (t / FM_PHI) * 2f64.powf(mean_z)
    }

    fn scheme(&self) -> HashScheme {
        self.scheme
    }

    fn memory_bits(&self) -> usize {
        self.regs.len() * 32
    }

    fn clear(&mut self) {
        self.regs.fill(0);
    }

    fn name(&self) -> &'static str {
        "FM"
    }

    fn max_estimate(&self) -> f64 {
        // All 32 bits of every register set → mean z = 32.
        (self.regs.len() as f64 / FM_PHI) * 2f64.powi(32)
    }

    fn snapshot_state(&self) -> Option<smb_devtools::Json> {
        Some(smb_devtools::Snapshot::to_json(self))
    }
}

impl smb_core::MergeableEstimator for Fm {
    fn merge_from(&mut self, other: &Self) -> Result<()> {
        if self.regs.len() != other.regs.len() {
            return Err(Error::merge("register counts differ"));
        }
        if self.scheme != other.scheme {
            return Err(Error::merge("hash schemes differ"));
        }
        for (a, b) in self.regs.iter_mut().zip(other.regs.iter()) {
            *a |= b;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smb_core::MergeableEstimator;

    #[test]
    fn lowest_zero_index_cases() {
        assert_eq!(Fm::lowest_zero_index(0b0), 0);
        assert_eq!(Fm::lowest_zero_index(0b1), 1);
        assert_eq!(Fm::lowest_zero_index(0b1011), 2);
        assert_eq!(Fm::lowest_zero_index(u32::MAX), 32);
    }

    #[test]
    fn memory_parity() {
        let fm = Fm::with_memory_bits(5000).unwrap();
        assert_eq!(fm.registers(), 156);
        assert_eq!(fm.memory_bits(), 156 * 32);
        assert!(Fm::with_memory_bits(31).is_err());
        assert!(Fm::new(0).is_err());
    }

    #[test]
    fn empty_estimates_zero_via_reduction() {
        // Raw PCSA floors at t/φ; the §V-F bitmap reduction fixes the
        // small range, so an empty sketch reads 0.
        let fm = Fm::new(64).unwrap();
        assert_eq!(fm.estimate(), 0.0);
    }

    #[test]
    fn small_range_reduction_is_accurate() {
        let mut fm = Fm::new(156).unwrap(); // m = 5000 parity
        for i in 0..100u32 {
            fm.record(&i.to_le_bytes());
        }
        let e = fm.estimate();
        assert!((e - 100.0).abs() < 25.0, "{e}");
        // And far better than the raw floor t/φ ≈ 202.
        assert!(e < 150.0);
    }

    #[test]
    fn accuracy_mid_range() {
        let mut errs = Vec::new();
        let n = 100_000u64;
        for seed in 0..8 {
            let mut fm = Fm::with_memory_bits_scheme(10_000, HashScheme::with_seed(seed)).unwrap();
            for i in 0..n {
                fm.record(&i.to_le_bytes());
            }
            errs.push((fm.estimate() - n as f64) / n as f64);
        }
        let mean_abs = errs.iter().map(|e| e.abs()).sum::<f64>() / errs.len() as f64;
        assert!(mean_abs < 0.2, "errors {errs:?}");
    }

    #[test]
    fn duplicates_ignored() {
        let mut fm = Fm::new(16).unwrap();
        fm.record(b"x");
        let snapshot = fm.regs.clone();
        for _ in 0..1000 {
            fm.record(b"x");
        }
        assert_eq!(fm.regs, snapshot);
    }

    #[test]
    fn merge_is_union() {
        let scheme = HashScheme::with_seed(5);
        let mut a = Fm::with_scheme(128, scheme).unwrap();
        let mut b = Fm::with_scheme(128, scheme).unwrap();
        let mut c = Fm::with_scheme(128, scheme).unwrap();
        for i in 0..3000u32 {
            let item = i.to_le_bytes();
            if i % 2 == 0 {
                a.record(&item);
            } else {
                b.record(&item);
            }
            c.record(&item);
        }
        a.merge_from(&b).unwrap();
        assert_eq!(a.regs, c.regs);
    }

    #[test]
    fn merge_incompatible_rejected() {
        let mut a = Fm::new(16).unwrap();
        let b = Fm::new(32).unwrap();
        assert!(a.merge_from(&b).is_err());
    }

    #[test]
    fn clear_resets() {
        let mut fm = Fm::new(8).unwrap();
        fm.record(b"y");
        fm.clear();
        assert!(fm.regs.iter().all(|&r| r == 0));
    }
}

mod snapshot_impl {
    use super::Fm;
    use smb_devtools::{Json, JsonError, Snapshot};
    use smb_hash::HashScheme;

    impl Snapshot for Fm {
        fn to_json(&self) -> Json {
            Json::Obj(vec![
                ("scheme".into(), self.scheme.to_json()),
                ("regs".into(), self.regs.to_json()),
            ])
        }

        fn from_json(v: &Json) -> Result<Self, JsonError> {
            let regs: Vec<u32> = Vec::from_json(v.field("regs")?)?;
            if regs.is_empty() {
                return Err(JsonError::new("FM needs at least one register"));
            }
            Ok(Fm {
                scheme: HashScheme::from_json(v.field("scheme")?)?,
                regs,
            })
        }
    }
}
