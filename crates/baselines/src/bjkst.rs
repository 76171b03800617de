//! BJKST — the distinct-elements algorithm of Bar-Yossef, Jayram,
//! Kumar, Sivakumar and Trevisan (RANDOM 2002), "algorithm 2".
//!
//! Included for completeness of the survey landscape the paper draws
//! on: BJKST is the classic *theory* algorithm with (ε, δ) guarantees,
//! against which the practical sketches (FM/LogLog/bitmap families)
//! position themselves.
//!
//! The structure keeps a buffer of (coarsened) item fingerprints at a
//! sampling level `z`: an item is retained iff its geometric rank is
//! at least `z`. When the buffer exceeds its capacity, `z` increases
//! and the buffer is re-filtered — halving its expected size, exactly
//! like SMB's morphing step, but with item *identities* retained
//! instead of bits. The estimate is `|buffer| · 2^z`.

use std::collections::HashSet;

use smb_core::{CardinalityEstimator, Error, Result};
use smb_hash::{HashScheme, ItemHash};

/// The BJKST distinct-elements estimator.
///
/// ```
/// use smb_baselines::Bjkst;
/// use smb_core::CardinalityEstimator;
/// let mut b = Bjkst::new(400).unwrap();
/// for i in 0..100_000u32 { b.record(&i.to_le_bytes()); }
/// let est = b.estimate();
/// assert!((est - 100_000.0).abs() / 100_000.0 < 0.25);
/// ```
#[derive(Debug, Clone)]
pub struct Bjkst {
    /// Retained fingerprints (full 64-bit hashes; the original paper
    /// coarsens them with a second hash to save space — we keep them
    /// whole, which only improves accuracy at the same `capacity`
    /// accounting).
    buffer: HashSet<u64>,
    /// Current sampling level: only items with geometric rank ≥ z are
    /// kept, i.e. a 2^−z sample.
    z: u32,
    /// Buffer size ceiling.
    capacity: usize,
    scheme: HashScheme,
}

impl Bjkst {
    /// A BJKST sketch retaining at most `capacity` fingerprints.
    pub fn new(capacity: usize) -> Result<Self> {
        Self::with_scheme(capacity, HashScheme::default())
    }

    /// With an explicit hash scheme.
    pub fn with_scheme(capacity: usize, scheme: HashScheme) -> Result<Self> {
        if capacity < 8 {
            return Err(Error::invalid("capacity", "need at least 8 fingerprints"));
        }
        Ok(Bjkst {
            buffer: HashSet::with_capacity(capacity + 1),
            z: 0,
            capacity,
            scheme,
        })
    }

    /// Memory-parity constructor: `m/64` fingerprint slots for an
    /// `m`-bit budget.
    pub fn with_memory_bits(m: usize, scheme: HashScheme) -> Result<Self> {
        Self::with_scheme(m / 64, scheme)
    }

    /// Current sampling level `z`.
    pub fn level(&self) -> u32 {
        self.z
    }

    /// Fingerprints currently retained.
    pub fn retained(&self) -> usize {
        self.buffer.len()
    }

    /// Raise the level until the buffer fits, re-filtering retained
    /// fingerprints by their own geometric rank.
    fn shrink(&mut self) {
        while self.buffer.len() > self.capacity {
            self.z += 1;
            let z = self.z;
            self.buffer
                .retain(|&h| ItemHash::new(h).geometric() >= z);
        }
    }
}

impl CardinalityEstimator for Bjkst {
    #[inline]
    fn record_hash(&mut self, hash: ItemHash) {
        if hash.geometric() >= self.z {
            self.buffer.insert(hash.raw());
            if self.buffer.len() > self.capacity {
                self.shrink();
            }
        }
    }

    fn estimate(&self) -> f64 {
        self.buffer.len() as f64 * 2f64.powi(self.z as i32)
    }

    fn scheme(&self) -> HashScheme {
        self.scheme
    }

    fn memory_bits(&self) -> usize {
        self.capacity * 64
    }

    fn clear(&mut self) {
        self.buffer.clear();
        self.z = 0;
    }

    fn name(&self) -> &'static str {
        "BJKST"
    }

    fn max_estimate(&self) -> f64 {
        // z is bounded by the geometric-lane width.
        self.capacity as f64 * 2f64.powi(32)
    }

    fn snapshot_state(&self) -> Option<smb_devtools::Json> {
        Some(smb_devtools::Snapshot::to_json(self))
    }
}

impl smb_core::MergeableEstimator for Bjkst {
    fn merge_from(&mut self, other: &Self) -> Result<()> {
        if self.capacity != other.capacity {
            return Err(Error::merge("capacities differ"));
        }
        if self.scheme != other.scheme {
            return Err(Error::merge("hash schemes differ"));
        }
        // Align to the coarser level, then union and re-shrink.
        let z = self.z.max(other.z);
        self.z = z;
        self.buffer.retain(|&h| ItemHash::new(h).geometric() >= z);
        for &h in &other.buffer {
            if ItemHash::new(h).geometric() >= z {
                self.buffer.insert(h);
            }
        }
        self.shrink();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smb_core::MergeableEstimator;

    #[test]
    fn exact_below_capacity() {
        let mut b = Bjkst::new(100).unwrap();
        for i in 0..80u32 {
            b.record(&i.to_le_bytes());
            b.record(&i.to_le_bytes());
        }
        assert_eq!(b.level(), 0);
        assert_eq!(b.estimate(), 80.0);
    }

    #[test]
    fn level_rises_and_buffer_stays_bounded() {
        let mut b = Bjkst::new(64).unwrap();
        for i in 0..100_000u32 {
            b.record(&i.to_le_bytes());
            assert!(b.retained() <= 64);
        }
        assert!(b.level() >= 8, "level {} too low for 100k items", b.level());
    }

    #[test]
    fn accuracy_over_seeds() {
        let n = 200_000u64;
        let mut errs = Vec::new();
        for seed in 0..8 {
            let mut b = Bjkst::with_scheme(512, HashScheme::with_seed(seed)).unwrap();
            for i in 0..n {
                b.record(&i.to_le_bytes());
            }
            errs.push((b.estimate() - n as f64).abs() / n as f64);
        }
        let mean = errs.iter().sum::<f64>() / errs.len() as f64;
        assert!(mean < 0.12, "mean rel err {mean}: {errs:?}");
    }

    #[test]
    fn duplicates_ignored() {
        let mut b = Bjkst::new(16).unwrap();
        for _ in 0..1000 {
            b.record(b"dup");
        }
        assert!(b.retained() <= 1);
    }

    #[test]
    fn merge_equals_union() {
        let scheme = HashScheme::with_seed(9);
        let mut a = Bjkst::with_scheme(256, scheme).unwrap();
        let mut b = Bjkst::with_scheme(256, scheme).unwrap();
        let mut u = Bjkst::with_scheme(256, scheme).unwrap();
        for i in 0..30_000u32 {
            let item = i.to_le_bytes();
            if i % 2 == 0 {
                a.record(&item);
            } else {
                b.record(&item);
            }
            u.record(&item);
        }
        a.merge_from(&b).unwrap();
        // Merged state may sit at a different level than the
        // union-stream state (shrink timing), so compare estimates.
        let rel = (a.estimate() - u.estimate()).abs() / u.estimate();
        assert!(rel < 0.15, "merge {} vs union {}", a.estimate(), u.estimate());
    }

    #[test]
    fn clear_resets() {
        let mut b = Bjkst::new(32).unwrap();
        for i in 0..10_000u32 {
            b.record(&i.to_le_bytes());
        }
        b.clear();
        assert_eq!(b.level(), 0);
        assert_eq!(b.estimate(), 0.0);
    }

    #[test]
    fn tiny_capacity_rejected() {
        assert!(Bjkst::new(7).is_err());
    }
}

mod snapshot_impl {
    use super::Bjkst;
    use smb_devtools::{Json, JsonError, Snapshot};
    use smb_hash::{HashScheme, ItemHash};

    impl Snapshot for Bjkst {
        fn to_json(&self) -> Json {
            let mut buffer: Vec<u64> = self.buffer.iter().copied().collect();
            // HashSet iteration order is nondeterministic; sort so the
            // snapshot text is stable and diffable.
            buffer.sort_unstable();
            Json::Obj(vec![
                ("scheme".into(), self.scheme.to_json()),
                ("capacity".into(), Json::Int(self.capacity as i128)),
                ("z".into(), Json::Int(self.z as i128)),
                (
                    "buffer".into(),
                    Json::Arr(buffer.iter().map(|&h| Json::Int(h as i128)).collect()),
                ),
            ])
        }

        fn from_json(v: &Json) -> Result<Self, JsonError> {
            let scheme = HashScheme::from_json(v.field("scheme")?)?;
            let capacity = v.field("capacity")?.as_usize()?;
            let z = v.field("z")?.as_u32()?;
            let mut bjkst = Bjkst::with_scheme(capacity, scheme)
                .map_err(|e| JsonError::new(e.to_string()))?;
            bjkst.z = z;
            for item in v.field("buffer")?.as_arr()? {
                let h = item.as_u64()?;
                // Every retained fingerprint must pass the current
                // sampling level — the structure's defining invariant.
                if ItemHash::new(h).geometric() < z {
                    return Err(JsonError::new(format!(
                        "fingerprint {h:#x} fails sampling level z = {z}"
                    )));
                }
                bjkst.buffer.insert(h);
            }
            if bjkst.buffer.len() > capacity {
                return Err(JsonError::new(format!(
                    "{} fingerprints exceed capacity {capacity}",
                    bjkst.buffer.len()
                )));
            }
            Ok(bjkst)
        }
    }
}
