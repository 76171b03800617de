//! LogLog and SuperLogLog (Durand–Flajolet 2003).
//!
//! Both keep `t` registers storing `M_i = max(G(d) + 1)` over the items
//! routed to register `i` and estimate from the *arithmetic* mean of
//! register values:
//!
//! ```text
//! n̂ = α · t · 2^{ (1/t) Σ M_i }
//! ```
//!
//! LogLog uses all registers with the asymptotic constant
//! `α_∞ ≈ 0.39701`. SuperLogLog applies *truncation*: only the smallest
//! `⌈0.7·t⌉` registers enter the mean, which trims the heavy upper tail
//! of the max-statistics and cuts the standard error from `1.30/√t` to
//! `1.05/√t`. Truncation changes the bias constant; the value used here
//! (`SLL_ALPHA`) was calibrated by simulation (see
//! `smb-bench/src/bin/calibrate.rs`) exactly the way Durand–Flajolet
//! obtained theirs, because the published closed form targets their
//! specific register width.
//!
//! Memory parity: registers are 5 bits wide (values ≤ 31), so an
//! `m`-bit budget buys `t = m/5` registers.

use smb_core::{CardinalityEstimator, Error, Result};
use smb_hash::{HashScheme, ItemHash};

use crate::constants::{LOGLOG_ALPHA_INF, SUPERLOGLOG_THETA};
use crate::registers::MaxRegisters;

/// Bias constant for the truncated (θ = 0.7) SuperLogLog estimator,
/// calibrated by simulation (`calibrate.rs`; 24 trials × t=2048 gave
/// 0.769 at n=2·10⁵ and 0.761 at n=10⁶; we use the midpoint).
pub const SLL_ALPHA: f64 = 0.765;

/// Width of a LogLog register in bits (values up to 31, good for
/// cardinalities beyond 2³¹ with stochastic averaging).
const REGISTER_WIDTH: u8 = 5;

/// The LogLog estimator.
#[derive(Debug, Clone)]
pub struct LogLog {
    regs: MaxRegisters,
    scheme: HashScheme,
}

/// The SuperLogLog estimator (truncation rule θ = 0.7).
#[derive(Debug, Clone)]
pub struct SuperLogLog {
    regs: MaxRegisters,
    scheme: HashScheme,
}

macro_rules! loglog_common {
    ($ty:ident) => {
        impl $ty {
            /// `t` registers with the default hash scheme.
            pub fn new(t: usize) -> Result<Self> {
                Self::with_scheme(t, HashScheme::default())
            }

            /// `t` registers with an explicit hash scheme.
            pub fn with_scheme(t: usize, scheme: HashScheme) -> Result<Self> {
                if t == 0 {
                    return Err(Error::invalid("t", "need at least one register"));
                }
                Ok($ty {
                    regs: MaxRegisters::new(t, REGISTER_WIDTH),
                    scheme,
                })
            }

            /// Memory-parity constructor: `t = m/5` five-bit registers.
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
        }

        impl smb_core::MergeableEstimator for $ty {
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
    };
}

loglog_common!(LogLog);
loglog_common!(SuperLogLog);

/// Small-range fallback shared by both estimators: the original
/// Durand–Flajolet formulas report `α·t` even for an *empty* sketch;
/// the linear-counting correction HLL later introduced applies equally
/// here, so we adopt it (documented deviation from the 2003 paper).
fn small_range_or(regs: &MaxRegisters, raw: f64) -> f64 {
    let t = regs.len() as f64;
    let v = regs.zero_count();
    if v > 0 {
        let lc = t * (t / v as f64).ln();
        if lc <= 2.5 * t {
            return lc;
        }
    }
    raw
}

impl CardinalityEstimator for LogLog {
    #[inline]
    fn record_hash(&mut self, hash: ItemHash) {
        self.regs.update(hash);
    }

    fn estimate(&self) -> f64 {
        let t = self.regs.len() as f64;
        let raw = LOGLOG_ALPHA_INF * t * 2f64.powf(self.regs.arithmetic_mean());
        small_range_or(&self.regs, raw)
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
        "LogLog"
    }

    fn max_estimate(&self) -> f64 {
        LOGLOG_ALPHA_INF * self.regs.len() as f64 * 2f64.powi(31)
    }

    fn snapshot_state(&self) -> Option<smb_devtools::Json> {
        Some(smb_devtools::Snapshot::to_json(self))
    }
}

impl CardinalityEstimator for SuperLogLog {
    #[inline]
    fn record_hash(&mut self, hash: ItemHash) {
        self.regs.update(hash);
    }

    fn estimate(&self) -> f64 {
        let t = self.regs.len() as f64;
        let raw = SLL_ALPHA * t * 2f64.powf(self.regs.truncated_mean(SUPERLOGLOG_THETA));
        small_range_or(&self.regs, raw)
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
        "SuperLogLog"
    }

    fn max_estimate(&self) -> f64 {
        SLL_ALPHA * self.regs.len() as f64 * 2f64.powi(31)
    }

    fn snapshot_state(&self) -> Option<smb_devtools::Json> {
        Some(smb_devtools::Snapshot::to_json(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smb_core::MergeableEstimator;

    fn relative_error_over_seeds<F>(make: F, n: u64, seeds: u64) -> f64
    where
        F: Fn(HashScheme) -> Box<dyn CardinalityEstimator>,
    {
        let mut sum = 0.0;
        for seed in 0..seeds {
            let mut est = make(HashScheme::with_seed(seed));
            for i in 0..n {
                est.record(&i.to_le_bytes());
            }
            sum += (est.estimate() - n as f64).abs() / n as f64;
        }
        sum / seeds as f64
    }

    #[test]
    fn loglog_accuracy_large_n() {
        let err = relative_error_over_seeds(
            |s| Box::new(LogLog::with_scheme(1024, s).unwrap()),
            500_000,
            6,
        );
        // Theory: 1.30/√1024 ≈ 0.04; give generous slack for 6 seeds.
        assert!(err < 0.12, "mean rel err {err}");
    }

    #[test]
    fn superloglog_beats_loglog_variance() {
        // Compare squared errors over many seeds at the same size.
        let n = 200_000u64;
        let seeds = 20;
        let mut ll_sq = 0.0;
        let mut sll_sq = 0.0;
        for seed in 0..seeds {
            let scheme = HashScheme::with_seed(seed);
            let mut ll = LogLog::with_scheme(512, scheme).unwrap();
            let mut sll = SuperLogLog::with_scheme(512, scheme).unwrap();
            for i in 0..n {
                ll.record(&i.to_le_bytes());
                sll.record(&i.to_le_bytes());
            }
            ll_sq += ((ll.estimate() - n as f64) / n as f64).powi(2);
            sll_sq += ((sll.estimate() - n as f64) / n as f64).powi(2);
        }
        assert!(
            sll_sq < ll_sq * 1.05,
            "SuperLogLog RMS should not exceed LogLog: {sll_sq} vs {ll_sq}"
        );
    }

    #[test]
    fn superloglog_accuracy_large_n() {
        let err = relative_error_over_seeds(
            |s| Box::new(SuperLogLog::with_scheme(1024, s).unwrap()),
            500_000,
            6,
        );
        assert!(err < 0.10, "mean rel err {err}");
    }

    #[test]
    fn duplicates_ignored() {
        let mut ll = LogLog::new(64).unwrap();
        ll.record(b"dup");
        let v = ll.regs.values().to_vec();
        for _ in 0..100 {
            ll.record(b"dup");
        }
        assert_eq!(ll.regs.values(), &v[..]);
    }

    #[test]
    fn memory_parity() {
        let ll = LogLog::with_memory_bits(5000, HashScheme::default()).unwrap();
        assert_eq!(ll.registers(), 1000);
        assert_eq!(ll.memory_bits(), 5000);
    }

    #[test]
    fn merge_unions() {
        let scheme = HashScheme::with_seed(2);
        let mut a = SuperLogLog::with_scheme(256, scheme).unwrap();
        let mut b = SuperLogLog::with_scheme(256, scheme).unwrap();
        let mut c = SuperLogLog::with_scheme(256, scheme).unwrap();
        for i in 0..10_000u32 {
            let item = i.to_le_bytes();
            if i % 3 == 0 {
                a.record(&item);
            } else {
                b.record(&item);
            }
            c.record(&item);
        }
        a.merge_from(&b).unwrap();
        assert_eq!(a.regs.values(), c.regs.values());
        assert!((a.estimate() - c.estimate()).abs() < 1e-9);
    }

    #[test]
    fn clear_resets() {
        let mut sll = SuperLogLog::new(32).unwrap();
        for i in 0..1000u32 {
            sll.record(&i.to_le_bytes());
        }
        sll.clear();
        assert_eq!(sll.regs.zero_count(), 32);
    }

    #[test]
    fn zero_registers_rejected() {
        assert!(LogLog::new(0).is_err());
        assert!(SuperLogLog::new(0).is_err());
    }
}

mod snapshot_impl {
    use super::{LogLog, SuperLogLog};
    use crate::registers::MaxRegisters;
    use smb_devtools::{Json, JsonError, Snapshot};
    use smb_hash::HashScheme;

    macro_rules! loglog_snapshot {
        ($ty:ident) => {
            impl Snapshot for $ty {
                fn to_json(&self) -> Json {
                    Json::Obj(vec![
                        ("scheme".into(), self.scheme.to_json()),
                        ("regs".into(), self.regs.to_json()),
                    ])
                }

                fn from_json(v: &Json) -> Result<Self, JsonError> {
                    Ok($ty {
                        scheme: HashScheme::from_json(v.field("scheme")?)?,
                        regs: MaxRegisters::from_json(v.field("regs")?)?,
                    })
                }
            }
        };
    }

    loglog_snapshot!(LogLog);
    loglog_snapshot!(SuperLogLog);
}
