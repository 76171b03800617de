//! HyperLogLog++ (Heule, Nunkesser, Hall 2013) — the most accurate
//! baseline in the paper's comparison.
//!
//! HLL++ improves plain HLL with three mechanisms, all implemented
//! here:
//!
//! 1. **64-bit hashing** — the rank lane is wide enough that the
//!    32-bit large-range correction is unnecessary (inherent in this
//!    workspace's [`smb_hash::ItemHash`] layout).
//! 2. **Empirical bias correction** — the raw harmonic-mean estimate
//!    `E` is positively biased in the region between the linear
//!    counting regime and `≈ 5·t`; HLL++ subtracts a bias estimated
//!    from pre-computed simulation tables. Heule et al. key their
//!    tables by precision `p` (with `t = 2^p`); because this workspace
//!    follows the SMB paper's memory parity (`t = m/5`, generally not a
//!    power of two), we use the scale-free form of the same data: the
//!    relative bias `bias(E)/t` is, for large `t`, a function of the
//!    ratio `x = E/t` alone, sampled at the support points in
//!    [`bias::BIAS_RATIO_X`]/[`bias::BIAS_RATIO_Y`] (regenerated by
//!    `smb-bench`'s `calibrate` binary; see `DESIGN.md` §4).
//! 3. **Linear-counting fallback** — when registers are still sparse,
//!    LC over the zero-register count is used, with the handover at
//!    the point where LC's error exceeds the corrected estimate's
//!    (approximated by the standard `E ≤ 5t/2` + zero-registers rule
//!    refined with the bias-corrected threshold).
//!
//! An optional **sparse representation** (constructor flag) stores
//! `(register, rank)` pairs in a hash map until the map would outgrow
//! a quarter of the dense array, then converts — Heule et al.'s memory
//! optimisation for the many-small-streams regime, simplified to skip
//! their varint encoding.

use std::collections::HashMap;

use smb_core::{CardinalityEstimator, Error, Result};
use smb_hash::{HashScheme, ItemHash};

use crate::constants::hll_alpha;
use crate::registers::MaxRegisters;

pub mod bias;

/// Register width in bits (the paper: "an HLL++ register is a counter
/// of 5 bits" for cardinalities up to 2³² scale).
const REGISTER_WIDTH: u8 = 5;

/// Sparse→dense conversion threshold: convert when the sparse map holds
/// more than `t / SPARSE_FRACTION` entries.
const SPARSE_FRACTION: usize = 4;

#[derive(Debug, Clone)]
enum Repr {
    Sparse(HashMap<u32, u8>),
    Dense(MaxRegisters),
}

/// The HyperLogLog++ estimator.
///
/// ```
/// use smb_baselines::HllPlusPlus;
/// use smb_core::CardinalityEstimator;
/// let mut hpp = HllPlusPlus::with_memory_bits(5000, Default::default()).unwrap();
/// for i in 0..200_000u32 { hpp.record(&i.to_le_bytes()); }
/// let est = hpp.estimate();
/// assert!((est - 200_000.0).abs() / 200_000.0 < 0.15);
/// ```
#[derive(Debug, Clone)]
pub struct HllPlusPlus {
    repr: Repr,
    t: usize,
    scheme: HashScheme,
}

impl HllPlusPlus {
    /// `t` registers, dense representation, default scheme.
    pub fn new(t: usize) -> Result<Self> {
        Self::with_scheme(t, HashScheme::default())
    }

    /// `t` registers, dense representation.
    pub fn with_scheme(t: usize, scheme: HashScheme) -> Result<Self> {
        if t == 0 {
            return Err(Error::invalid("t", "need at least one register"));
        }
        Ok(HllPlusPlus {
            repr: Repr::Dense(MaxRegisters::new(t, REGISTER_WIDTH)),
            t,
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

    /// Start in the sparse representation (Heule et al. §5.3,
    /// simplified). Converts to dense automatically.
    pub fn sparse(t: usize, scheme: HashScheme) -> Result<Self> {
        if t == 0 {
            return Err(Error::invalid("t", "need at least one register"));
        }
        Ok(HllPlusPlus {
            repr: Repr::Sparse(HashMap::new()),
            t,
            scheme,
        })
    }

    /// Number of registers `t`.
    pub fn registers(&self) -> usize {
        self.t
    }

    /// True while the sparse representation is active.
    pub fn is_sparse(&self) -> bool {
        matches!(self.repr, Repr::Sparse(_))
    }

    fn densify(&mut self) {
        if let Repr::Sparse(map) = &self.repr {
            let mut regs = MaxRegisters::new(self.t, REGISTER_WIDTH);
            for (&idx, &rank) in map {
                regs.set_at_least(idx as usize, rank);
            }
            self.repr = Repr::Dense(regs);
        }
    }

    /// `(harmonic sum, zero-register count)` under either
    /// representation. O(t) — only needed outside the LC regime.
    fn stats(&self) -> (f64, usize) {
        match &self.repr {
            Repr::Dense(regs) => (regs.harmonic_sum(), regs.zero_count()),
            Repr::Sparse(map) => {
                let nonzero_sum: f64 = map.values().map(|&v| 2f64.powi(-(v as i32))).sum();
                let zeros = self.t - map.len();
                (nonzero_sum + zeros as f64, zeros)
            }
        }
    }

    /// Zero-register count alone — O(1) under both representations
    /// (maintained incrementally in dense mode, `t − len` in sparse).
    fn zeros(&self) -> usize {
        match &self.repr {
            Repr::Dense(regs) => regs.zero_count(),
            Repr::Sparse(map) => self.t - map.len(),
        }
    }

    /// The raw harmonic-mean estimate `E` before any correction.
    pub fn raw_estimate(&self) -> f64 {
        let t = self.t as f64;
        let (hsum, _) = self.stats();
        hll_alpha(self.t) * t * t / hsum
    }

    /// The bias-corrected estimate `E'` (raw minus interpolated bias),
    /// before the LC-vs-corrected decision.
    pub fn bias_corrected_estimate(&self) -> f64 {
        let e = self.raw_estimate();
        let t = self.t as f64;
        let x = e / t;
        if x <= bias::BIAS_RANGE_MAX {
            (e - t * bias::bias_ratio(x)).max(0.0)
        } else {
            e
        }
    }
}

impl CardinalityEstimator for HllPlusPlus {
    #[inline]
    fn record_hash(&mut self, hash: ItemHash) {
        match &mut self.repr {
            Repr::Dense(regs) => regs.update(hash),
            Repr::Sparse(map) => {
                let idx = hash.index(self.t) as u32;
                let rank = (hash.geometric() + 1).min(31) as u8;
                let slot = map.entry(idx).or_insert(0);
                if rank > *slot {
                    *slot = rank;
                }
                if map.len() * SPARSE_FRACTION > self.t {
                    self.densify();
                }
            }
        }
    }

    fn estimate(&self) -> f64 {
        let t = self.t as f64;
        // Heule et al.'s decision procedure: prefer LC while any
        // register is zero and LC is below its reliable threshold,
        // otherwise the bias-corrected raw estimate. The LC branch is
        // deliberately O(1) — the zero count is maintained
        // incrementally, so small-stream queries never scan registers.
        let zeros = self.zeros();
        if zeros > 0 {
            let lc = t * (t / zeros as f64).ln();
            if lc <= bias::lc_threshold_ratio() * t {
                return lc;
            }
        }
        self.bias_corrected_estimate()
    }

    fn scheme(&self) -> HashScheme {
        self.scheme
    }

    fn memory_bits(&self) -> usize {
        self.t * REGISTER_WIDTH as usize
    }

    fn clear(&mut self) {
        match &mut self.repr {
            Repr::Dense(regs) => regs.clear(),
            Repr::Sparse(map) => map.clear(),
        }
    }

    fn name(&self) -> &'static str {
        "HLL++"
    }

    fn max_estimate(&self) -> f64 {
        let t = self.t as f64;
        hll_alpha(self.t) * t * t / (t * 2f64.powi(-31))
    }

    fn snapshot_state(&self) -> Option<smb_devtools::Json> {
        Some(smb_devtools::Snapshot::to_json(self))
    }
}

impl smb_core::MergeableEstimator for HllPlusPlus {
    fn merge_from(&mut self, other: &Self) -> Result<()> {
        if self.t != other.t {
            return Err(Error::merge("register counts differ"));
        }
        if self.scheme != other.scheme {
            return Err(Error::merge("hash schemes differ"));
        }
        self.densify();
        let Repr::Dense(regs) = &mut self.repr else {
            unreachable!("densify() always leaves a dense representation")
        };
        match &other.repr {
            Repr::Dense(o) => regs.merge_max(o),
            Repr::Sparse(map) => {
                for (&idx, &rank) in map {
                    regs.set_at_least(idx as usize, rank);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smb_core::MergeableEstimator;

    #[test]
    fn small_range_near_exact() {
        let mut h = HllPlusPlus::new(1000).unwrap();
        for i in 0..500u32 {
            h.record(&i.to_le_bytes());
        }
        assert!((h.estimate() - 500.0).abs() < 40.0, "{}", h.estimate());
    }

    #[test]
    fn accuracy_across_the_bias_region() {
        // The 2t..5t region is where raw HLL is most biased; corrected
        // HLL++ should stay within a few percent on average.
        let t = 1000usize;
        for &n in &[2_000u64, 3_000, 5_000, 10_000] {
            let mut mean = 0.0;
            let seeds = 12;
            for seed in 0..seeds {
                let mut h = HllPlusPlus::with_scheme(t, HashScheme::with_seed(seed)).unwrap();
                for i in 0..n {
                    h.record(&i.to_le_bytes());
                }
                mean += h.estimate();
            }
            mean /= seeds as f64;
            let bias = (mean - n as f64) / n as f64;
            assert!(bias.abs() < 0.06, "n={n}: mean bias {bias}");
        }
    }

    #[test]
    fn accuracy_large_n() {
        let n = 1_000_000u64;
        let mut errs = Vec::new();
        for seed in 0..6 {
            let mut h = HllPlusPlus::with_scheme(2000, HashScheme::with_seed(seed)).unwrap();
            for i in 0..n {
                h.record(&i.to_le_bytes());
            }
            errs.push((h.estimate() - n as f64).abs() / n as f64);
        }
        let mean = errs.iter().sum::<f64>() / errs.len() as f64;
        assert!(mean < 0.07, "mean rel err {mean}: {errs:?}");
    }

    #[test]
    fn sparse_converts_and_matches_dense() {
        let scheme = HashScheme::with_seed(4);
        let mut sparse = HllPlusPlus::sparse(1024, scheme).unwrap();
        let mut dense = HllPlusPlus::with_scheme(1024, scheme).unwrap();
        assert!(sparse.is_sparse());
        for i in 0..50_000u32 {
            sparse.record(&i.to_le_bytes());
            dense.record(&i.to_le_bytes());
        }
        assert!(!sparse.is_sparse(), "50k items must trigger conversion");
        assert!((sparse.estimate() - dense.estimate()).abs() < 1e-9);
    }

    #[test]
    fn sparse_estimates_while_sparse() {
        let mut sparse = HllPlusPlus::sparse(4096, HashScheme::with_seed(1)).unwrap();
        for i in 0..300u32 {
            sparse.record(&i.to_le_bytes());
        }
        assert!(sparse.is_sparse());
        assert!((sparse.estimate() - 300.0).abs() < 30.0, "{}", sparse.estimate());
    }

    #[test]
    fn duplicates_ignored() {
        let mut h = HllPlusPlus::new(64).unwrap();
        for _ in 0..100 {
            h.record(b"dup");
        }
        let (_, zeros) = h.stats();
        assert_eq!(zeros, 63);
    }

    #[test]
    fn merge_dense_and_sparse() {
        let scheme = HashScheme::with_seed(6);
        let mut a = HllPlusPlus::with_scheme(512, scheme).unwrap();
        let mut b = HllPlusPlus::sparse(512, scheme).unwrap();
        let mut c = HllPlusPlus::with_scheme(512, scheme).unwrap();
        for i in 0..20_000u32 {
            let item = i.to_le_bytes();
            if i % 2 == 0 {
                a.record(&item);
            } else {
                b.record(&item);
            }
            c.record(&item);
        }
        a.merge_from(&b).unwrap();
        assert!((a.estimate() - c.estimate()).abs() < 1e-9);
    }

    #[test]
    fn merge_incompatible() {
        let mut a = HllPlusPlus::new(64).unwrap();
        let b = HllPlusPlus::new(128).unwrap();
        assert!(a.merge_from(&b).is_err());
    }

    #[test]
    fn clear_under_both_representations() {
        let mut d = HllPlusPlus::new(64).unwrap();
        let mut s = HllPlusPlus::sparse(64, HashScheme::default()).unwrap();
        for i in 0..10u32 {
            d.record(&i.to_le_bytes());
            s.record(&i.to_le_bytes());
        }
        d.clear();
        s.clear();
        assert_eq!(d.estimate(), 0.0);
        assert_eq!(s.estimate(), 0.0);
    }
}

mod snapshot_impl {
    use super::{HllPlusPlus, Repr, REGISTER_WIDTH};
    use crate::registers::MaxRegisters;
    use smb_devtools::{Json, JsonError, Snapshot};
    use smb_hash::HashScheme;
    use std::collections::HashMap;

    impl Snapshot for HllPlusPlus {
        fn to_json(&self) -> Json {
            let repr = match &self.repr {
                Repr::Dense(regs) => Json::Obj(vec![
                    ("kind".into(), Json::str("dense")),
                    ("regs".into(), regs.to_json()),
                ]),
                Repr::Sparse(map) => {
                    let mut entries: Vec<(u32, u8)> =
                        map.iter().map(|(&idx, &rank)| (idx, rank)).collect();
                    // HashMap order is nondeterministic; sort for a
                    // stable, diffable snapshot.
                    entries.sort_unstable();
                    Json::Obj(vec![
                        ("kind".into(), Json::str("sparse")),
                        (
                            "entries".into(),
                            Json::Arr(
                                entries
                                    .iter()
                                    .map(|&(idx, rank)| {
                                        Json::Arr(vec![
                                            Json::Int(idx as i128),
                                            Json::Int(rank as i128),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ),
                    ])
                }
            };
            Json::Obj(vec![
                ("scheme".into(), self.scheme.to_json()),
                ("t".into(), Json::Int(self.t as i128)),
                ("repr".into(), repr),
            ])
        }

        fn from_json(v: &Json) -> Result<Self, JsonError> {
            let scheme = HashScheme::from_json(v.field("scheme")?)?;
            let t = v.field("t")?.as_usize()?;
            if t == 0 {
                return Err(JsonError::new("need at least one register"));
            }
            let repr_json = v.field("repr")?;
            let repr = match repr_json.field("kind")?.as_str()? {
                "dense" => {
                    let regs = MaxRegisters::from_json(repr_json.field("regs")?)?;
                    if regs.len() != t {
                        return Err(JsonError::new(format!(
                            "dense register count {} does not match t = {t}",
                            regs.len()
                        )));
                    }
                    if regs.register_bits() != REGISTER_WIDTH {
                        return Err(JsonError::new(format!(
                            "register width {} is not the HLL++ width {REGISTER_WIDTH}",
                            regs.register_bits()
                        )));
                    }
                    Repr::Dense(regs)
                }
                "sparse" => {
                    let mut map = HashMap::new();
                    for entry in repr_json.field("entries")?.as_arr()? {
                        let pair = entry.as_arr()?;
                        if pair.len() != 2 {
                            return Err(JsonError::new("sparse entry must be [index, rank]"));
                        }
                        let idx = pair[0].as_u32()?;
                        let rank = pair[1].as_u8()?;
                        if idx as usize >= t {
                            return Err(JsonError::new(format!(
                                "sparse index {idx} out of range for t = {t}"
                            )));
                        }
                        if rank == 0 || rank > 31 {
                            return Err(JsonError::new(format!(
                                "sparse rank {rank} outside 1..=31"
                            )));
                        }
                        map.insert(idx, rank);
                    }
                    Repr::Sparse(map)
                }
                other => {
                    return Err(JsonError::new(format!("unknown representation `{other}`")))
                }
            };
            Ok(HllPlusPlus { repr, t, scheme })
        }
    }
}
