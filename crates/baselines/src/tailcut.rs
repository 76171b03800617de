//! HLL-TailCut ("HLL-TailC" in the paper) — Xiao, Zhou, Chen's 4-bit
//! register compression of HyperLogLog.
//!
//! Observation: at any moment the HLL register values cluster within a
//! narrow band above their minimum. TailCut stores, per register, only
//! the *offset* `Y'_i = Y_i − B` from a shared base `B = min_i Y_i`,
//! clamped to 4 bits (offset 15 = "at least B+15"). When every offset
//! becomes positive, the base advances and all offsets shift down by
//! one — an O(t) pass amortised over the ≥ t distinct items needed to
//! raise the minimum.
//!
//! Queries reconstruct `Y_i = B + Y'_i` and apply the HLL++ harmonic
//! estimate (the paper's Eq. 4). Memory parity: `t = m/4` registers
//! (plus one shared 8-bit base, which is why the paper counts its query
//! overhead as `mA` like the others).

use smb_core::{CardinalityEstimator, Error, Result};
use smb_hash::{HashScheme, ItemHash};

use crate::constants::hll_alpha;

/// Offset clamp: 4-bit registers.
const OFFSET_CAP: u8 = 15;

/// The HLL-TailCut estimator.
///
/// ```
/// use smb_baselines::HllTailCut;
/// use smb_core::CardinalityEstimator;
/// let mut tc = HllTailCut::with_memory_bits(5000, Default::default()).unwrap(); // t = 1250
/// for i in 0..100_000u32 { tc.record(&i.to_le_bytes()); }
/// let est = tc.estimate();
/// assert!((est - 100_000.0).abs() / 100_000.0 < 0.15);
/// ```
#[derive(Debug, Clone)]
pub struct HllTailCut {
    /// 4-bit offsets from `base` (stored one per byte; logical width 4).
    offsets: Vec<u8>,
    /// Shared base `B = min_i Y_i` (before clamping).
    base: u8,
    /// How many offsets are exactly zero (tracks when the base can
    /// advance).
    zero_offsets: usize,
    scheme: HashScheme,
}

impl HllTailCut {
    /// `t` four-bit registers, default scheme.
    pub fn new(t: usize) -> Result<Self> {
        Self::with_scheme(t, HashScheme::default())
    }

    /// `t` four-bit registers.
    pub fn with_scheme(t: usize, scheme: HashScheme) -> Result<Self> {
        if t == 0 {
            return Err(Error::invalid("t", "need at least one register"));
        }
        Ok(HllTailCut {
            offsets: vec![0u8; t],
            base: 0,
            zero_offsets: t,
            scheme,
        })
    }

    /// Memory-parity constructor: `t = m/4` registers.
    pub fn with_memory_bits(m: usize, scheme: HashScheme) -> Result<Self> {
        if m < 4 {
            return Err(Error::invalid("m", "need at least 4 bits"));
        }
        Self::with_scheme(m / 4, scheme)
    }

    /// Number of registers.
    pub fn registers(&self) -> usize {
        self.offsets.len()
    }

    /// The shared base `B`.
    pub fn base(&self) -> u8 {
        self.base
    }

    /// Reconstructed register value `Y_i = B + Y'_i`.
    pub fn register_value(&self, i: usize) -> u32 {
        self.base as u32 + self.offsets[i] as u32
    }

    /// Advance the base while no register sits at offset zero.
    fn maybe_advance_base(&mut self) {
        while self.zero_offsets == 0 {
            self.base += 1;
            for off in &mut self.offsets {
                // An offset at the clamp stays clamped ("≥ B+15" keeps
                // meaning "≥ new B+15" conservatively — information
                // already lost at clamp time).
                if *off < OFFSET_CAP {
                    *off -= 1;
                    if *off == 0 {
                        self.zero_offsets += 1;
                    }
                }
            }
            // If every register was clamped, stop: fully saturated.
            if self.offsets.iter().all(|&o| o == OFFSET_CAP) {
                break;
            }
        }
    }
}

impl CardinalityEstimator for HllTailCut {
    #[inline]
    fn record_hash(&mut self, hash: ItemHash) {
        let idx = hash.index(self.offsets.len());
        let rank = (hash.geometric() + 1).min(63); // value Y = G+1
        let base = self.base as u32;
        if rank <= base {
            return;
        }
        let new_off = ((rank - base) as u8).min(OFFSET_CAP);
        let off = &mut self.offsets[idx];
        if new_off > *off {
            if *off == 0 {
                self.zero_offsets -= 1;
            }
            *off = new_off;
            if self.zero_offsets == 0 {
                self.maybe_advance_base();
            }
        }
    }

    fn estimate(&self) -> f64 {
        let t = self.offsets.len() as f64;
        let mut hsum = 0.0;
        let mut zeros = 0usize;
        for i in 0..self.offsets.len() {
            let y = self.register_value(i);
            if y == 0 {
                zeros += 1;
            }
            hsum += 2f64.powi(-(y as i32));
        }
        let e = hll_alpha(self.offsets.len()) * t * t / hsum;
        // Same small-range handling as HLL (the original TailCut builds
        // on the HLL estimate pipeline).
        if e <= 2.5 * t && zeros > 0 {
            return t * (t / zeros as f64).ln();
        }
        e
    }

    fn scheme(&self) -> HashScheme {
        self.scheme
    }

    fn memory_bits(&self) -> usize {
        self.offsets.len() * 4
    }

    fn clear(&mut self) {
        self.offsets.fill(0);
        self.base = 0;
        self.zero_offsets = self.offsets.len();
    }

    fn name(&self) -> &'static str {
        "HLL-TailCut"
    }

    fn max_estimate(&self) -> f64 {
        let t = self.offsets.len() as f64;
        // Base can reach ~63 before rank saturates.
        hll_alpha(self.offsets.len()) * t * t / (t * 2f64.powi(-63))
    }

    fn snapshot_state(&self) -> Option<smb_devtools::Json> {
        Some(smb_devtools::Snapshot::to_json(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hll::Hll;

    #[test]
    fn parameter_validation() {
        assert!(HllTailCut::new(0).is_err());
        assert!(HllTailCut::with_memory_bits(3, HashScheme::default()).is_err());
        let tc = HllTailCut::with_memory_bits(5000, HashScheme::default()).unwrap();
        assert_eq!(tc.registers(), 1250);
        assert_eq!(tc.memory_bits(), 5000);
    }

    #[test]
    fn empty_estimates_zero() {
        let tc = HllTailCut::new(128).unwrap();
        assert_eq!(tc.estimate(), 0.0);
        assert_eq!(tc.base(), 0);
    }

    #[test]
    fn base_advances_for_large_streams() {
        let mut tc = HllTailCut::new(256).unwrap();
        for i in 0..2_000_000u64 {
            tc.record(&i.to_le_bytes());
        }
        assert!(tc.base() >= 1, "base should advance, got {}", tc.base());
        // Invariant: at least one offset is zero after any advance (or
        // everything is clamped).
        let any_zero = tc.offsets.contains(&0);
        let all_capped = tc.offsets.iter().all(|&o| o == OFFSET_CAP);
        assert!(any_zero || all_capped);
    }

    #[test]
    fn zero_offset_counter_consistent() {
        let mut tc = HllTailCut::new(64).unwrap();
        for i in 0..500_000u64 {
            tc.record(&i.to_le_bytes());
            if i % 50_000 == 0 {
                let actual = tc.offsets.iter().filter(|&&o| o == 0).count();
                assert_eq!(tc.zero_offsets, actual, "at item {i}");
            }
        }
    }

    #[test]
    fn tracks_full_hll_closely() {
        // With the same scheme and register count, TailCut's
        // reconstructed registers should equal HLL's except where the
        // clamp bit (≥15 offset) kicked in — so estimates track closely.
        let scheme = HashScheme::with_seed(11);
        let mut tc = HllTailCut::with_scheme(1024, scheme).unwrap();
        let mut hll = Hll::with_scheme(1024, scheme).unwrap();
        let n = 500_000u64;
        for i in 0..n {
            tc.record(&i.to_le_bytes());
            hll.record(&i.to_le_bytes());
        }
        let rel = (tc.estimate() - hll.estimate()).abs() / hll.estimate();
        assert!(rel < 0.02, "TailCut {} vs HLL {}", tc.estimate(), hll.estimate());
    }

    #[test]
    fn accuracy_large_n() {
        let n = 1_000_000u64;
        let mut errs = Vec::new();
        for seed in 0..6 {
            let mut tc = HllTailCut::with_scheme(1250, HashScheme::with_seed(seed)).unwrap();
            for i in 0..n {
                tc.record(&i.to_le_bytes());
            }
            errs.push((tc.estimate() - n as f64).abs() / n as f64);
        }
        let mean = errs.iter().sum::<f64>() / errs.len() as f64;
        assert!(mean < 0.09, "mean rel err {mean}: {errs:?}");
    }

    #[test]
    fn duplicates_ignored() {
        let mut tc = HllTailCut::new(32).unwrap();
        for _ in 0..100 {
            tc.record(b"dup");
        }
        assert_eq!(tc.offsets.iter().filter(|&&o| o > 0).count(), 1);
    }

    #[test]
    fn clear_resets() {
        let mut tc = HllTailCut::new(64).unwrap();
        for i in 0..100_000u64 {
            tc.record(&i.to_le_bytes());
        }
        tc.clear();
        assert_eq!(tc.base(), 0);
        assert_eq!(tc.estimate(), 0.0);
        assert_eq!(tc.zero_offsets, 64);
    }
}

mod snapshot_impl {
    use super::{HllTailCut, OFFSET_CAP};
    use smb_devtools::{Json, JsonError, Snapshot};
    use smb_hash::HashScheme;

    impl Snapshot for HllTailCut {
        fn to_json(&self) -> Json {
            Json::Obj(vec![
                ("scheme".into(), self.scheme.to_json()),
                ("base".into(), Json::Int(self.base as i128)),
                ("offsets".into(), self.offsets.to_json()),
            ])
        }

        fn from_json(v: &Json) -> Result<Self, JsonError> {
            let scheme = HashScheme::from_json(v.field("scheme")?)?;
            let base = v.field("base")?.as_u8()?;
            let offsets: Vec<u8> = Vec::from_json(v.field("offsets")?)?;
            if offsets.is_empty() {
                return Err(JsonError::new("need at least one register"));
            }
            for (idx, &off) in offsets.iter().enumerate() {
                if off > OFFSET_CAP {
                    return Err(JsonError::new(format!(
                        "offset {off} at register {idx} exceeds 4-bit cap {OFFSET_CAP}"
                    )));
                }
            }
            // `zero_offsets` is derived state, recomputed here.
            let zero_offsets = offsets.iter().filter(|&&o| o == 0).count();
            Ok(HllTailCut {
                scheme,
                base,
                offsets,
                zero_offsets,
            })
        }
    }
}
