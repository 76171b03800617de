//! Multi-Resolution Bitmap (Estan, Varghese, Fisk — ToN 2006), the
//! paper's primary baseline.
//!
//! MRB splits its `m` bits into `k` component bitmaps
//! `B_0, …, B_{k−1}` of `c = m/k` bits each, with geometrically
//! decreasing sampling probabilities `p_i = 2^-i`. An item `d` with
//! geometric hash `G(d)` is stored **only** in component
//! `min(G(d), k−1)` — a single bit update per item — so component `i`
//! holds exactly the distinct items whose geometric value is `i`
//! (or `≥ k−1` for the last component).
//!
//! At query time MRB picks a *base* component `i` and observes that the
//! union of components `i..k−1` contains every item with `G(d) ≥ i`,
//! i.e. a `p_i = 2^-i` sample of the stream. Summing per-component
//! linear counts and dividing by `p_i` gives the paper's Eq. (2):
//!
//! ```text
//! n̂ = 2^i · Σ_{j=i}^{k−1} −c · ln(1 − U_j / c)
//! ```
//!
//! The base is chosen per the paper's rule: scan components *top-down*
//! (from `B_{k−1}` toward `B_0`) and take the first whose ones count
//! `U_i` reaches a selection threshold; if none qualifies, use `i = 0`.
//! Everything recorded in components shallower than the base is
//! discarded — the memory waste SMB was designed to eliminate.
//!
//! **Layout note.** The original paper describes components that
//! physically share bits ("B_i loses a portion of its bits which are
//! covered by B_{i+1}…"); storing each component separately with items
//! routed to exactly one level keeps the identical information content
//! with simpler code, and is the layout this paper's description
//! reduces to after its "recovery" step.
//!
//! Per §V-C of the SMB paper, MRB maintains a counter array holding
//! each component's ones count so queries never scan the bitmaps.

use smb_core::bits::BitVec;
use smb_core::{Bitmap, CardinalityEstimator, Error, Result};
use smb_hash::{HashScheme, ItemHash};

/// Default base-selection threshold as a fraction of the component
/// size: the deepest component at least this full becomes the base.
/// Calibrated by `smb-bench`'s `ablation_mrb` sweep (2/3 dominated
/// 1/8 … 1/2 at every tested cardinality — a fuller base means more
/// samples behind the estimate while linear counting is still far from
/// saturation at load ln 3 ≈ 1.1).
const DEFAULT_SELECT_FRACTION: f64 = 2.0 / 3.0;

/// Multi-Resolution Bitmap estimator.
///
/// ```
/// use smb_baselines::Mrb;
/// use smb_core::CardinalityEstimator;
/// let mut mrb = Mrb::new(5000, 13).unwrap();
/// for i in 0..100_000u32 {
///     mrb.record(&i.to_le_bytes());
/// }
/// let est = mrb.estimate();
/// assert!((est - 100_000.0).abs() / 100_000.0 < 0.3);
/// ```
#[derive(Debug, Clone)]
pub struct Mrb {
    bits: BitVec,
    /// Number of components `k`.
    k: usize,
    /// Bits per component `c = m/k` (floor).
    c: usize,
    /// Per-component ones counters (the §V-C counter array).
    ones: Vec<u32>,
    /// Minimum ones for a component to serve as the estimation base.
    select_threshold: u32,
    scheme: HashScheme,
}

impl Mrb {
    /// An MRB with `k` components carved from `m` bits, default scheme.
    pub fn new(m: usize, k: usize) -> Result<Self> {
        Self::with_scheme(m, k, HashScheme::default())
    }

    /// An MRB with an explicit hash scheme.
    pub fn with_scheme(m: usize, k: usize, scheme: HashScheme) -> Result<Self> {
        if k == 0 {
            return Err(Error::invalid("k", "need at least one component"));
        }
        let c = m / k;
        if c < 8 {
            return Err(Error::invalid(
                "m",
                format!("component size m/k = {c} too small (need ≥ 8 bits)"),
            ));
        }
        let select_threshold = ((c as f64) * DEFAULT_SELECT_FRACTION).round().max(1.0) as u32;
        Ok(Mrb {
            bits: BitVec::new(c * k),
            k,
            c,
            ones: vec![0; k],
            select_threshold,
            scheme,
        })
    }

    /// Recommended component count for memory `m` and a stream whose
    /// cardinality may reach `n_max` — the smallest `k` whose maximum
    /// estimate covers `2 × n_max` (the rule behind the paper's
    /// Table III; the table itself is reproduced as test anchors).
    pub fn recommended_k(m: usize, n_max: f64) -> usize {
        for k in 2..=64usize {
            let c = m / k;
            if c < 8 {
                break;
            }
            // Max estimate: base = k-1 fully used: 2^{k-1}·c·ln c.
            let max_est = 2f64.powi(k as i32 - 1) * c as f64 * (c as f64).ln();
            if max_est >= 2.0 * n_max {
                return k;
            }
        }
        64
    }

    /// Construct with the recommended `k` for `(m, n_max)`.
    pub fn for_expected_cardinality(m: usize, n_max: f64, scheme: HashScheme) -> Result<Self> {
        Self::with_scheme(m, Self::recommended_k(m, n_max), scheme)
    }

    /// Override the base-selection threshold (ones required in the
    /// base component). Exposed for the calibration ablation.
    pub fn set_select_threshold(&mut self, t: u32) {
        self.select_threshold = t.max(1);
    }

    /// Number of components `k`.
    pub fn components(&self) -> usize {
        self.k
    }

    /// Bits per component `c`.
    pub fn component_bits(&self) -> usize {
        self.c
    }

    /// Ones count of component `i` (O(1), from the counter array).
    pub fn component_ones(&self, i: usize) -> u32 {
        self.ones[i]
    }

    /// Recount every component's ones by scanning the raw bitmap —
    /// what a query costs *without* the §V-C counter array. Exposed for
    /// the counter-array ablation bench and as an integrity check (the
    /// result must always equal the maintained counters).
    pub fn recount_ones(&self) -> Vec<u32> {
        let mut counts = vec![0u32; self.k];
        for idx in self.bits.iter_ones() {
            counts[idx / self.c] += 1;
        }
        counts
    }

    /// The base component the current state would select: the deepest
    /// component with at least `select_threshold` ones, else 0.
    pub fn select_base(&self) -> usize {
        for i in (0..self.k).rev() {
            if self.ones[i] >= self.select_threshold {
                return i;
            }
        }
        0
    }
}

impl CardinalityEstimator for Mrb {
    #[inline]
    fn record_hash(&mut self, hash: ItemHash) {
        // Component = min(G(d), k−1); a single bit write (the paper's
        // "single update" optimisation is inherent in this layout).
        let level = (hash.geometric() as usize).min(self.k - 1);
        let idx = level * self.c + hash.index(self.c);
        if self.bits.set(idx) {
            self.ones[level] += 1;
        }
    }

    fn estimate(&self) -> f64 {
        let base = self.select_base();
        let sum: f64 = (base..self.k)
            .map(|j| Bitmap::linear_count(self.ones[j] as usize, self.c))
            .sum();
        2f64.powi(base as i32) * sum
    }

    fn scheme(&self) -> HashScheme {
        self.scheme
    }

    fn memory_bits(&self) -> usize {
        self.c * self.k
    }

    fn clear(&mut self) {
        self.bits.clear();
        self.ones.fill(0);
    }

    fn name(&self) -> &'static str {
        "MRB"
    }

    fn max_estimate(&self) -> f64 {
        2f64.powi(self.k as i32 - 1) * self.c as f64 * (self.c as f64).ln()
    }

    fn is_saturated(&self) -> bool {
        self.ones[self.k - 1] as usize >= self.c - 1
    }

    fn snapshot_state(&self) -> Option<smb_devtools::Json> {
        Some(smb_devtools::Snapshot::to_json(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(mrb: &mut Mrb, n: u64) {
        for i in 0..n {
            mrb.record(&i.to_le_bytes());
        }
    }

    #[test]
    fn parameter_validation() {
        assert!(Mrb::new(1000, 0).is_err());
        assert!(Mrb::new(64, 16).is_err()); // c = 4 < 8
        assert!(Mrb::new(1000, 10).is_ok());
    }

    #[test]
    fn empty_estimates_zero() {
        let mrb = Mrb::new(5000, 13).unwrap();
        assert_eq!(mrb.estimate(), 0.0);
        assert_eq!(mrb.select_base(), 0);
    }

    #[test]
    fn duplicates_ignored() {
        let mut mrb = Mrb::new(1000, 5).unwrap();
        for _ in 0..100 {
            mrb.record(b"same");
        }
        let total: u32 = (0..5).map(|i| mrb.component_ones(i)).sum();
        assert_eq!(total, 1);
    }

    #[test]
    fn counters_match_popcount() {
        let mut mrb = Mrb::new(2000, 8).unwrap();
        feed(&mut mrb, 50_000);
        let counted: usize = (0..8).map(|i| mrb.component_ones(i) as usize).sum();
        assert_eq!(counted, mrb.bits.count_ones());
        // The scan-based recount must agree with the maintained array.
        let recount = mrb.recount_ones();
        for (i, &u) in recount.iter().enumerate() {
            assert_eq!(u, mrb.component_ones(i), "component {i}");
        }
    }

    #[test]
    fn level_distribution_is_geometric() {
        // Half the distinct items land in component 0, a quarter in 1, …
        // Ones counts shrink further by hash collisions within the
        // component: E[U] = c(1 − e^(−n_level/c)).
        let mut mrb = Mrb::new(80_000, 4).unwrap();
        feed(&mut mrb, 10_000);
        let c = mrb.component_bits() as f64;
        let expected = |n_level: f64| c * (1.0 - (-n_level / c).exp());
        let u0 = mrb.component_ones(0) as f64;
        let u1 = mrb.component_ones(1) as f64;
        assert!((u0 / expected(5000.0) - 1.0).abs() < 0.05, "u0={u0}");
        assert!((u1 / expected(2500.0) - 1.0).abs() < 0.08, "u1={u1}");
    }

    #[test]
    fn small_stream_uses_base_zero_and_is_accurate() {
        let mut mrb = Mrb::new(10_000, 11).unwrap();
        feed(&mut mrb, 200);
        assert_eq!(mrb.select_base(), 0);
        assert!((mrb.estimate() - 200.0).abs() < 40.0, "{}", mrb.estimate());
    }

    #[test]
    fn large_stream_selects_deeper_base() {
        let mut mrb = Mrb::new(5000, 13).unwrap();
        feed(&mut mrb, 500_000);
        assert!(mrb.select_base() >= 3, "base={}", mrb.select_base());
    }

    #[test]
    fn accuracy_over_wide_range() {
        for &n in &[1_000u64, 10_000, 100_000, 1_000_000] {
            let mut errs = Vec::new();
            for seed in 0..5 {
                let mut mrb =
                    Mrb::with_scheme(10_000, 11, HashScheme::with_seed(seed)).unwrap();
                feed(&mut mrb, n);
                errs.push((mrb.estimate() - n as f64).abs() / n as f64);
            }
            let mean = errs.iter().sum::<f64>() / errs.len() as f64;
            assert!(mean < 0.25, "n={n}: mean rel err {mean}, {errs:?}");
        }
    }

    #[test]
    fn recommended_k_covers_target() {
        for &(m, n) in &[(10_000usize, 1e6), (5000, 1e6), (2500, 1e6), (1000, 1e6)] {
            let k = Mrb::recommended_k(m, n);
            let c = m / k;
            let max_est = 2f64.powi(k as i32 - 1) * c as f64 * (c as f64).ln();
            assert!(max_est >= 2.0 * n, "m={m} k={k}");
            assert!(k >= 2);
        }
        // More memory → fewer components needed (paper Table III shape).
        assert!(Mrb::recommended_k(10_000, 1e6) <= Mrb::recommended_k(1000, 1e6));
    }

    #[test]
    fn clear_resets() {
        let mut mrb = Mrb::new(1000, 5).unwrap();
        feed(&mut mrb, 10_000);
        mrb.clear();
        assert_eq!(mrb.estimate(), 0.0);
        assert_eq!(mrb.bits.count_ones(), 0);
    }

    #[test]
    fn saturation_reports() {
        let mut mrb = Mrb::new(160, 2).unwrap();
        feed(&mut mrb, 5_000_000);
        assert!(mrb.is_saturated());
        assert!(mrb.estimate().is_finite());
    }
}

mod snapshot_impl {
    use super::Mrb;
    use smb_core::bits::BitVec;
    use smb_devtools::{Json, JsonError, Snapshot};
    use smb_hash::HashScheme;

    impl Snapshot for Mrb {
        fn to_json(&self) -> Json {
            Json::Obj(vec![
                ("scheme".into(), self.scheme.to_json()),
                ("k".into(), Json::Int(self.k as i128)),
                ("c".into(), Json::Int(self.c as i128)),
                (
                    "select_threshold".into(),
                    Json::Int(self.select_threshold as i128),
                ),
                ("bits".into(), self.bits.to_json()),
            ])
        }

        fn from_json(v: &Json) -> Result<Self, JsonError> {
            let scheme = HashScheme::from_json(v.field("scheme")?)?;
            let k = v.field("k")?.as_usize()?;
            let c = v.field("c")?.as_usize()?;
            let select_threshold = v.field("select_threshold")?.as_u32()?;
            let bits = BitVec::from_json(v.field("bits")?)?;
            let m = c
                .checked_mul(k)
                .ok_or_else(|| JsonError::new("c·k overflows"))?;
            // The constructor re-validates (m, k) and re-derives c.
            let mut mrb = Mrb::with_scheme(m, k, scheme)
                .map_err(|e| JsonError::new(e.to_string()))?;
            if bits.len() != m {
                return Err(JsonError::new(format!(
                    "bit array length {} does not match c·k = {m}",
                    bits.len()
                )));
            }
            mrb.bits = bits;
            // The §V-C counter array is derived state: rebuild it from
            // the bitmap rather than trusting the wire.
            mrb.ones = mrb.recount_ones();
            mrb.set_select_threshold(select_threshold);
            Ok(mrb)
        }
    }
}
