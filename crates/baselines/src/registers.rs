//! Shared register-array substrate for the LogLog family.
//!
//! LogLog, SuperLogLog, HLL and HLL++ all keep `t` small registers that
//! store `max(G(d) + 1)` over the items routed to them. This module
//! centralises that storage plus the derived statistics the estimators
//! consume (harmonic sum, arithmetic mean, zero-register count).

use smb_hash::ItemHash;

/// A `t`-register max-array. Registers are stored one byte each; the
/// *logical* width (5 bits for HLL/HLL++, per the paper) is enforced by
/// clamping and reported via [`MaxRegisters::register_bits`].
#[derive(Debug, Clone)]
pub struct MaxRegisters {
    vals: Vec<u8>,
    /// Logical register width in bits (memory accounting).
    width: u8,
    /// Largest storable value, `2^width − 1`.
    cap: u8,
    /// Number of registers still zero (for linear-counting fallback).
    zeros: usize,
}

impl MaxRegisters {
    /// `t` zeroed registers of `width` logical bits (1..=8).
    pub fn new(t: usize, width: u8) -> Self {
        assert!(t > 0, "register count must be positive");
        assert!((1..=8).contains(&width), "register width must be 1..=8 bits");
        MaxRegisters {
            vals: vec![0u8; t],
            width,
            cap: ((1u16 << width) - 1) as u8,
            zeros: t,
        }
    }

    /// Number of registers `t`.
    #[inline]
    pub fn len(&self) -> usize {
        self.vals.len()
    }

    /// True iff `t == 0` (cannot happen post-construction; for API
    /// completeness).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.vals.is_empty()
    }

    /// Logical width of each register in bits.
    #[inline]
    pub fn register_bits(&self) -> u8 {
        self.width
    }

    /// Logical memory footprint in bits, `t · width`.
    pub fn memory_bits(&self) -> usize {
        self.vals.len() * self.width as usize
    }

    /// Route an item hash to a register and update it with
    /// `max(current, G(d)+1)`, clamped to the register width.
    ///
    /// Uses the low 32 hash bits for the register index (Lemire
    /// reduction — works for any `t`, not just powers of two, which is
    /// what lets us match the paper's `t = m/5` memory parity) and the
    /// high 32 bits for the geometric rank.
    #[inline]
    pub fn update(&mut self, hash: ItemHash) {
        let idx = hash.index(self.vals.len());
        let rank = (hash.geometric() + 1).min(self.cap as u32) as u8;
        let reg = &mut self.vals[idx];
        if rank > *reg {
            if *reg == 0 {
                self.zeros -= 1;
            }
            *reg = rank;
        }
    }

    /// Raise register `idx` to at least `rank` (clamped to the
    /// register width). Used when rebuilding from a sparse
    /// representation or external snapshots.
    #[inline]
    pub fn set_at_least(&mut self, idx: usize, rank: u8) {
        let rank = rank.min(self.cap);
        let reg = &mut self.vals[idx];
        if rank > *reg {
            if *reg == 0 {
                self.zeros -= 1;
            }
            *reg = rank;
        }
    }

    /// Raw register values.
    #[inline]
    pub fn values(&self) -> &[u8] {
        &self.vals
    }

    /// Number of still-zero registers (`V` in the HLL papers).
    #[inline]
    pub fn zero_count(&self) -> usize {
        self.zeros
    }

    /// Harmonic-mean denominator `Σ 2^(−M_j)` used by HLL's estimate.
    pub fn harmonic_sum(&self) -> f64 {
        self.vals.iter().map(|&v| 2f64.powi(-(v as i32))).sum()
    }

    /// Arithmetic mean of register values, used by LogLog.
    pub fn arithmetic_mean(&self) -> f64 {
        self.vals.iter().map(|&v| v as f64).sum::<f64>() / self.vals.len() as f64
    }

    /// Mean of the smallest `⌈θ·t⌉` registers — SuperLogLog's truncated
    /// mean. `θ ∈ (0, 1]`.
    pub fn truncated_mean(&self, theta: f64) -> f64 {
        debug_assert!(theta > 0.0 && theta <= 1.0);
        let keep = ((self.vals.len() as f64 * theta).ceil() as usize).max(1);
        let mut sorted = self.vals.clone();
        sorted.sort_unstable();
        sorted[..keep].iter().map(|&v| v as f64).sum::<f64>() / keep as f64
    }

    /// Reset all registers to zero.
    pub fn clear(&mut self) {
        self.vals.fill(0);
        self.zeros = self.vals.len();
    }

    /// Merge by element-wise max (the union rule of the LogLog family).
    /// Caller must have verified `t` and scheme compatibility.
    pub fn merge_max(&mut self, other: &MaxRegisters) {
        debug_assert_eq!(self.vals.len(), other.vals.len());
        for (a, &b) in self.vals.iter_mut().zip(other.vals.iter()) {
            if b > *a {
                if *a == 0 {
                    self.zeros -= 1;
                }
                *a = b;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smb_hash::HashScheme;

    #[test]
    fn zero_tracking() {
        let mut r = MaxRegisters::new(64, 5);
        assert_eq!(r.zero_count(), 64);
        let scheme = HashScheme::with_seed(1);
        for i in 0..10_000u32 {
            r.update(scheme.item_hash(&i.to_le_bytes()));
        }
        assert_eq!(r.zero_count(), r.values().iter().filter(|&&v| v == 0).count());
        assert_eq!(r.zero_count(), 0, "10k items must touch all 64 registers");
    }

    #[test]
    fn clamp_at_width() {
        let mut r = MaxRegisters::new(4, 5);
        // An all-zero geometric lane would give rank 33; must clamp to 31.
        r.update(ItemHash::new(0x0000_0000_0000_0001)); // geometric = 32 → rank 33 → clamp 31
        assert!(r.values().iter().all(|&v| v <= 31));
    }

    #[test]
    fn update_is_monotone_max() {
        let mut r = MaxRegisters::new(1, 8);
        let h_small = ItemHash::new(0x0000_0001_0000_0000); // geometric 0 → rank 1
        let h_big = ItemHash::new(0x0000_0100_0000_0000); // geometric 8 → rank 9
        r.update(h_big);
        assert_eq!(r.values()[0], 9);
        r.update(h_small);
        assert_eq!(r.values()[0], 9, "smaller rank must not overwrite");
    }

    #[test]
    fn harmonic_and_arithmetic_stats() {
        let mut r = MaxRegisters::new(2, 5);
        r.update(ItemHash::new(0x0000_0001_0000_0000)); // idx from low 32 = 0 → register 0, rank 1
        assert!((r.harmonic_sum() - (0.5 + 1.0)).abs() < 1e-12);
        assert!((r.arithmetic_mean() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn truncated_mean_drops_largest() {
        let mut r = MaxRegisters::new(10, 8);
        // Manually poke values through updates is awkward; use merge path.
        let mut other = MaxRegisters::new(10, 8);
        other.vals = vec![1, 1, 1, 1, 1, 1, 1, 9, 9, 9];
        other.zeros = 0;
        r.merge_max(&other);
        // θ=0.7 keeps the 7 smallest (all ones).
        assert!((r.truncated_mean(0.7) - 1.0).abs() < 1e-12);
        assert!(r.arithmetic_mean() > 1.0);
    }

    #[test]
    fn merge_max_unions() {
        let scheme = HashScheme::with_seed(3);
        let mut a = MaxRegisters::new(32, 5);
        let mut b = MaxRegisters::new(32, 5);
        let mut c = MaxRegisters::new(32, 5);
        for i in 0..500u32 {
            let h = scheme.item_hash(&i.to_le_bytes());
            a.update(h);
            c.update(h);
        }
        for i in 500..1000u32 {
            let h = scheme.item_hash(&i.to_le_bytes());
            b.update(h);
            c.update(h);
        }
        a.merge_max(&b);
        assert_eq!(a.values(), c.values());
        assert_eq!(a.zero_count(), c.zero_count());
    }

    #[test]
    #[should_panic(expected = "register count")]
    fn zero_registers_panics() {
        MaxRegisters::new(0, 5);
    }

    #[test]
    fn memory_accounting() {
        let r = MaxRegisters::new(2000, 5);
        assert_eq!(r.memory_bits(), 10_000);
        assert_eq!(r.register_bits(), 5);
    }
}

mod snapshot_impl {
    use super::MaxRegisters;
    use smb_devtools::{Json, JsonError, Snapshot};

    impl Snapshot for MaxRegisters {
        fn to_json(&self) -> Json {
            Json::Obj(vec![
                ("width".into(), Json::Int(self.width as i128)),
                ("vals".into(), self.vals.to_json()),
            ])
        }

        fn from_json(v: &Json) -> Result<Self, JsonError> {
            let width = v.field("width")?.as_u8()?;
            let vals: Vec<u8> = Vec::from_json(v.field("vals")?)?;
            if vals.is_empty() {
                return Err(JsonError::new("register array must be non-empty"));
            }
            if !(1..=8).contains(&width) {
                return Err(JsonError::new(format!("register width {width} out of 1..=8")));
            }
            // Rebuild through the constructor so `cap` and `zeros` are
            // derived, then validate each persisted value against the
            // width before installing it.
            let mut regs = MaxRegisters::new(vals.len(), width);
            for (idx, &val) in vals.iter().enumerate() {
                if val > regs.cap {
                    return Err(JsonError::new(format!(
                        "register {idx} value {val} exceeds width cap {}",
                        regs.cap
                    )));
                }
                regs.set_at_least(idx, val);
            }
            Ok(regs)
        }
    }
}
