//! The **Self-Morphing Bitmap** — the paper's primary contribution.
//!
//! # Algorithm
//!
//! SMB keeps one physical bitmap `L₀` of `m` bits, a round counter `r`
//! (initially 0) and a fresh-bit counter `v` (initially 0). Recording an
//! item `d` (Algorithm 1):
//!
//! 1. **Sample.** Compute the geometric hash `G(d)`; if `G(d) < r` the
//!    item is ignored. Since `P(G(d) ≥ r) = 2⁻ʳ` (Lemma 1), round `r`
//!    samples items with probability `pᵣ = 2⁻ʳ`.
//! 2. **Record.** Compute the uniform hash `H(d) ∈ [0, m)`; if bit
//!    `H(d)` is zero, set it and increment `v`.
//! 3. **Morph.** If `v` reached the threshold `T`, start the next
//!    round: `r += 1`, `v = 0`. The bits set so far are conceptually
//!    removed; the remaining zero bits form the next logical bitmap
//!    `L_{r}` of `m_r = m − r·T` bits. Nothing physical happens — the
//!    estimation formula accounts for the removal.
//!
//! Querying (Algorithm 2) is O(1): with the per-round constants folded
//! into a precomputed table `S[r]` (Eq. 9), the estimate is
//!
//! ```text
//! n̂ = S[r] − 2ʳ · m · ln(1 − v / (m − r·T))          (paper Eq. 11)
//! ```
//!
//! # Invariants (checked in tests and `debug_assert`s)
//!
//! * total ones in the physical bitmap = `r·T + v`;
//! * `v < T` whenever `r` can still advance;
//! * `r < ⌊m/T⌋` always (the structure supports at most `m/T` rounds);
//! * duplicates never change state (Theorem 2): a re-appearing item
//!   either fails the sampling test (its `G` did not change while `r`
//!   only grows) or lands on its own already-set bit.
//!
//! # Saturation
//!
//! In the final permissible round (`r = ⌊m/T⌋ − 1`) the round counter
//! stops advancing and `v` may grow past `T` toward `m_r`; the estimate
//! clamps at `v = m_r − 1`. [`Smb::is_saturated`] reports this state.

use smb_hash::{HashScheme, ItemHash};

use crate::bits::BitVec;
use crate::error::{Error, Result};
use crate::observe::{EstimatorEvent, MorphEvent, ObserverHandle};
use crate::traits::CardinalityEstimator;

/// Slices shorter than this record through the plain per-item path:
/// the batched prefilter's per-call setup (~a dozen ns) needs this
/// many items to amortise. Measured on the ingest kernel bench; the
/// exact value is not load-bearing for correctness (both paths are
/// bit-identical).
const BATCH_PREFILTER_MIN: usize = 32;

/// The Self-Morphing Bitmap cardinality estimator.
///
/// Construct with [`Smb::new`] (explicit threshold) or [`Smb::builder`]
/// (derives a threshold from an expected maximum cardinality).
///
/// ```
/// use smb_core::{CardinalityEstimator, Smb};
/// let mut smb = Smb::new(5000, 5000 / 16).unwrap();
/// for i in 0..50_000u32 {
///     smb.record(&i.to_le_bytes());
/// }
/// let est = smb.estimate();
/// assert!((est - 50_000.0).abs() / 50_000.0 < 0.25);
/// ```
#[derive(Debug, Clone)]
pub struct Smb {
    bits: BitVec,
    /// Physical size `m` in bits.
    m: usize,
    /// Morphing threshold `T`.
    t: usize,
    /// Current round index `r` (sampling probability `2⁻ʳ`).
    r: u32,
    /// Fresh bits set in the current round.
    v: usize,
    /// Maximum number of rounds, `⌊m/T⌋`.
    max_rounds: u32,
    /// `S[i]` for `i ∈ 0..=max_rounds−1`: the cumulative estimate of all
    /// *closed* rounds before round `i` (Eq. 9). `S[0] = 0`.
    s_table: Vec<f64>,
    scheme: HashScheme,
    /// Items offered (duplicates and sampled-out included) since the
    /// last morph — reported in [`MorphEvent::items_since_last_morph`].
    items_since_morph: u64,
    /// Lifecycle observer, shared across clones.
    observer: Option<ObserverHandle>,
    /// Whether the one-shot `Saturated` event has fired (re-armed by
    /// `clear`).
    saturation_emitted: bool,
    /// Reusable survivor buffer for the batched record path: packed
    /// `(position-in-batch << 32) | bit-index` pairs. Never part of
    /// the estimator's logical state (snapshots ignore it).
    scratch: Vec<u64>,
}

impl Smb {
    /// An SMB over `m` bits with morphing threshold `t`, default hash
    /// scheme.
    ///
    /// # Errors
    /// `m` must be positive and fit in 32 bits; `t` must satisfy
    /// `1 ≤ t ≤ m/2` (at least two rounds of capacity, per the paper's
    /// constraint `m/T ≥ r + 1`).
    pub fn new(m: usize, t: usize) -> Result<Self> {
        Self::with_scheme(m, t, HashScheme::default())
    }

    /// An SMB with an explicit hash scheme.
    pub fn with_scheme(m: usize, t: usize, scheme: HashScheme) -> Result<Self> {
        validate_params(m, t)?;
        let max_rounds = (m / t) as u32;
        let s_table = build_s_table(m, t, max_rounds);
        Ok(Smb {
            bits: BitVec::new(m),
            m,
            t,
            r: 0,
            v: 0,
            max_rounds,
            s_table,
            scheme,
            items_since_morph: 0,
            observer: None,
            saturation_emitted: false,
            scratch: Vec::new(),
        })
    }

    /// Start building an SMB by memory budget and expected stream size.
    pub fn builder() -> SmbBuilder {
        SmbBuilder::default()
    }

    /// Current round index `r`. The sampling probability is `2⁻ʳ`.
    #[inline]
    pub fn round(&self) -> u32 {
        self.r
    }

    /// Fresh bits set in the current round (the paper's `v`).
    #[inline]
    pub fn fresh_ones(&self) -> usize {
        self.v
    }

    /// The morphing threshold `T`.
    #[inline]
    pub fn threshold(&self) -> usize {
        self.t
    }

    /// Current sampling probability `pᵣ = 2⁻ʳ`.
    pub fn sampling_probability(&self) -> f64 {
        2f64.powi(-(self.r as i32))
    }

    /// Size of the current *logical* bitmap, `m_r = m − r·T`.
    pub fn logical_len(&self) -> usize {
        self.m - (self.r as usize) * self.t
    }

    /// Maximum number of rounds this configuration supports, `⌊m/T⌋`.
    pub fn max_rounds(&self) -> u32 {
        self.max_rounds
    }

    /// The precomputed cumulative estimate of closed rounds, `S[r]`.
    /// Exposed for the theory crate's cross-checks.
    pub fn s_value(&self, round: u32) -> f64 {
        self.s_table[round as usize]
    }

    /// O(1) snapshot of the queryable state — exactly the two integers
    /// the paper says a query must read.
    pub fn snapshot(&self) -> SmbSnapshot {
        SmbSnapshot { r: self.r, v: self.v }
    }

    /// Evaluate the estimate for an explicit `(r, v)` pair against this
    /// configuration's S-table (Algorithm 2). Used by snapshots and by
    /// time-series monitors that archive `(r, v)` pairs.
    pub fn estimate_at(&self, r: u32, v: usize) -> f64 {
        debug_assert!(r < self.max_rounds);
        let m_r = self.m - (r as usize) * self.t;
        // Clamp a saturated final round at its largest useful fill.
        let v = v.min(m_r - 1);
        self.s_table[r as usize]
            - 2f64.powi(r as i32) * (self.m as f64) * (1.0 - v as f64 / m_r as f64).ln()
    }

    /// Total ones in the physical bitmap. O(1): follows from the
    /// invariant `ones = r·T + v`.
    pub fn ones(&self) -> usize {
        (self.r as usize) * self.t + self.v
    }

    /// Items offered since the last morph (duplicates and sampled-out
    /// items included) — the denominator of per-round fill-rate
    /// monitoring, and what [`MorphEvent::items_since_last_morph`]
    /// reports at the next closure.
    #[inline]
    pub fn items_since_last_morph(&self) -> u64 {
        self.items_since_morph
    }

    /// Borrow the physical bit array (for diagnostics/tests).
    pub fn as_bits(&self) -> &BitVec {
        &self.bits
    }

    /// Close the current round: advance `r`, attribute the inter-morph
    /// item count, emit the morph event, reset `v`. Callers guarantee
    /// `v == T` and that this is not the final round.
    fn close_round(&mut self) {
        let closed = self.r;
        self.r += 1;
        let items = std::mem::take(&mut self.items_since_morph);
        if let Some(observer) = &self.observer {
            // At closure (v = T) Eq. 11 collapses to S[r+1]: the
            // round's own contribution folded into the cumulative
            // table.
            let event = MorphEvent {
                round: closed,
                fresh_bits_at_close: self.v,
                logical_size: self.m - (closed as usize) * self.t,
                items_since_last_morph: items,
                estimate_at_close: self.s_table[(closed + 1) as usize],
            };
            observer.emit(EstimatorEvent::Morph(&event));
        }
        self.v = 0;
    }

    /// Fire the one-shot `Saturated` event if the final round just
    /// filled up and an observer is listening.
    fn maybe_emit_saturated(&mut self) {
        if !self.saturation_emitted && self.observer.is_some() && self.is_saturated() {
            self.saturation_emitted = true;
            let estimate = self.estimate();
            if let Some(observer) = &self.observer {
                observer.emit(EstimatorEvent::Saturated { name: "SMB", estimate });
            }
        }
    }
}

impl CardinalityEstimator for Smb {
    #[inline]
    fn record_hash(&mut self, hash: ItemHash) {
        self.items_since_morph += 1;
        // Step 1: geometric sampling with probability 2⁻ʳ, in the same
        // branchless mask form the batched prefilter uses: for r ≤ 32,
        // `G(d) ≥ r` ⟺ the low `r` geometric-lane bits are all zero,
        // so one AND + compare replaces the trailing-zeros count; past
        // round 32 the capped lane rejects every item. This is the
        // run-length-1 survivor path of the batched-probe kernel — the
        // overwhelmingly common outcome (rejection, once `r` has grown)
        // costs a predictable compare instead of a `tzcnt`+`min` chain.
        let r = self.r;
        if r > 32 || (hash.raw() >> 32) & ((1u64 << r) - 1) != 0 {
            return;
        }
        // Step 2: uniform placement in the physical bitmap.
        let idx = hash.index(self.m);
        if self.bits.set(idx) {
            self.v += 1;
            // Step 3: morph when the round's budget of fresh bits is
            // exhausted — unless this is already the final round, where
            // the logical bitmap is allowed to fill up (saturation).
            // Branch on the round first: saturation can only happen in
            // the final round, so the non-final fresh-bit path skips
            // the saturation probe (and its observer check) entirely.
            if self.r + 1 < self.max_rounds {
                if self.v >= self.t {
                    self.close_round();
                }
            } else {
                self.maybe_emit_saturated();
            }
        }
    }

    /// Batched override — the ingest kernel's estimator stage.
    ///
    /// The round-`r` sampling test `G(d) ≥ r` is equivalent to "the
    /// low `r` geometric-lane bits are all zero", so the threshold is
    /// folded into a single mask computed **once per batch** and
    /// re-derived only when a morph fires mid-batch. The hot loop is a
    /// branch-predictable mask test per item; survivors' bit indices
    /// are staged into a scratch buffer and committed with the
    /// word-level [`BitVec::set_all`].
    ///
    /// Whenever the number of surviving items is below the round's
    /// remaining fresh-bit budget `T − v`, no morph can possibly fire
    /// and the whole batch commits in one bulk pass. Only a batch
    /// segment that *reaches* the budget falls back to one-at-a-time
    /// placement to locate the exact morph trigger — keeping state,
    /// morph events, and `items_since_last_morph` bit-identical to
    /// sequential [`Smb::record_hash`] calls.
    fn record_hashes(&mut self, hashes: &[ItemHash]) {
        // The staged prefilter below costs a batch setup (mask/budget
        // derivation, survivor staging, bulk commit) that only pays
        // for itself on slices long enough to amortise it; short runs
        // — the common case for grouped multi-flow ingest — are
        // cheaper through the plain per-item path, which is also the
        // semantic reference, so equivalence is trivial.
        if hashes.len() < BATCH_PREFILTER_MIN {
            for &h in hashes {
                self.record_hash(h);
            }
            return;
        }
        let mut scratch = std::mem::take(&mut self.scratch);
        let mut rest = hashes;
        while !rest.is_empty() {
            let r = self.r;
            if r > 32 {
                // The geometric lane caps at 32: past round 32 no item
                // can pass the sampling test, ever.
                self.items_since_morph += rest.len() as u64;
                break;
            }
            // Reject unless the low r bits of the geometric lane are
            // all zero — the branchless form of `G(d) < r`.
            let reject_mask: u64 = (1u64 << r) - 1;
            let final_round = r + 1 >= self.max_rounds;
            let budget = if final_round {
                usize::MAX // the final round never morphs
            } else {
                self.t - self.v
            };
            scratch.clear();
            let mut scanned = rest.len();
            for (pos, h) in rest.iter().enumerate() {
                if (h.raw() >> 32) & reject_mask != 0 {
                    continue;
                }
                scratch.push(((pos as u64) << 32) | h.index(self.m) as u64);
                if scratch.len() >= budget {
                    scanned = pos + 1;
                    break;
                }
            }
            if scratch.len() < budget {
                // Fewer survivors than remaining budget: no morph can
                // fire, so commit the whole prefiltered batch with one
                // word-level bulk pass.
                let fresh = self
                    .bits
                    .set_all(scratch.iter().map(|&p| (p & 0xFFFF_FFFF) as usize));
                self.v += fresh;
                self.items_since_morph += rest.len() as u64;
                if final_round && fresh > 0 {
                    self.maybe_emit_saturated();
                }
                break;
            }
            // Budget-many survivors scanned: a morph may fire among
            // them. Place them one at a time to find the trigger; the
            // remainder of the batch re-enters the loop under the new
            // round's stricter mask.
            let mut after_morph = None;
            for &packed in scratch.iter() {
                let pos = (packed >> 32) as usize;
                let idx = (packed & 0xFFFF_FFFF) as usize;
                if self.bits.set(idx) {
                    self.v += 1;
                    if self.v >= self.t {
                        self.items_since_morph += (pos + 1) as u64;
                        self.close_round();
                        after_morph = Some(pos + 1);
                        break;
                    }
                }
            }
            match after_morph {
                Some(consumed) => rest = &rest[consumed..],
                None => {
                    // Duplicates kept v below T: the scanned prefix is
                    // fully recorded under the unchanged round.
                    self.items_since_morph += scanned as u64;
                    rest = &rest[scanned..];
                }
            }
        }
        self.scratch = scratch;
    }

    fn estimate(&self) -> f64 {
        self.estimate_at(self.r, self.v)
    }

    fn scheme(&self) -> HashScheme {
        self.scheme
    }

    fn memory_bits(&self) -> usize {
        self.m
    }

    fn clear(&mut self) {
        self.bits.clear();
        self.r = 0;
        self.v = 0;
        self.items_since_morph = 0;
        self.saturation_emitted = false;
        if let Some(observer) = &self.observer {
            observer.emit(EstimatorEvent::Cleared { name: "SMB" });
        }
    }

    fn name(&self) -> &'static str {
        "SMB"
    }

    fn max_estimate(&self) -> f64 {
        let last = self.max_rounds - 1;
        let m_last = self.m - (last as usize) * self.t;
        self.s_table[last as usize]
            + 2f64.powi(last as i32)
                * (self.m as f64)
                * (m_last as f64).ln()
    }

    fn is_saturated(&self) -> bool {
        let m_r = self.logical_len();
        self.r + 1 == self.max_rounds && self.v >= m_r - 1
    }

    fn set_observer(&mut self, observer: Option<ObserverHandle>) -> bool {
        self.observer = observer;
        true
    }

    #[cfg(feature = "snapshot")]
    fn snapshot_state(&self) -> Option<smb_devtools::Json> {
        Some(smb_devtools::Snapshot::to_json(self))
    }
}

/// Validate the paper's `(m, T)` constraints.
fn validate_params(m: usize, t: usize) -> Result<()> {
    if m == 0 || m > u32::MAX as usize {
        return Err(Error::invalid("m", "must be in 1..=u32::MAX"));
    }
    if t == 0 {
        return Err(Error::invalid("t", "threshold must be positive"));
    }
    if t > m / 2 {
        return Err(Error::invalid(
            "t",
            format!("threshold {t} must be at most m/2 = {} (need ≥2 rounds)", m / 2),
        ));
    }
    Ok(())
}

/// Precompute `S[i] = Σ_{j<i} −2ʲ·m·ln(1 − T/m_j)` (Eq. 9), the
/// cumulative estimate of all closed rounds before round `i`.
fn build_s_table(m: usize, t: usize, max_rounds: u32) -> Vec<f64> {
    let mut s = Vec::with_capacity(max_rounds as usize);
    let mut acc = 0.0f64;
    for i in 0..max_rounds {
        s.push(acc);
        let m_i = (m - (i as usize) * t) as f64;
        // Closed round i contributes −2ⁱ·m·ln(1 − T/m_i).
        acc += -(2f64.powi(i as i32)) * (m as f64) * (1.0 - t as f64 / m_i).ln();
    }
    s
}

/// The two integers `(r, v)` that fully determine an SMB estimate —
/// what the paper's O(1) query reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SmbSnapshot {
    /// Round index at snapshot time.
    pub r: u32,
    /// Fresh-ones count at snapshot time.
    pub v: usize,
}

/// Builder deriving SMB parameters from a memory budget and an expected
/// maximum cardinality.
///
/// The threshold rule: among candidate round capacities
/// `c = m/T ∈ {2, 3, …}`, pick the smallest `c` whose maximum estimate
/// covers `safety × expected_max_cardinality`. Smaller `c` means larger
/// per-round logical bitmaps and therefore lower variance, so the
/// smallest capacity that fits is the accuracy-optimal choice under
/// this family. (The theory crate's `optimal_threshold` refines this
/// with the full Theorem 3 bound; the experiment harness uses that.)
#[derive(Debug, Clone)]
pub struct SmbBuilder {
    memory_bits: usize,
    expected_max: f64,
    explicit_t: Option<usize>,
    safety: f64,
    scheme: HashScheme,
}

impl Default for SmbBuilder {
    fn default() -> Self {
        SmbBuilder {
            memory_bits: 8192,
            expected_max: 1_000_000.0,
            explicit_t: None,
            safety: 2.0,
            scheme: HashScheme::default(),
        }
    }
}

impl SmbBuilder {
    /// Total memory budget `m` in bits.
    pub fn memory_bits(mut self, m: usize) -> Self {
        self.memory_bits = m;
        self
    }

    /// Largest stream cardinality the estimator must handle without
    /// saturating. Default 1M.
    pub fn expected_max_cardinality(mut self, n: impl Into<f64>) -> Self {
        self.expected_max = n.into();
        self
    }

    /// Override the derived threshold with an explicit `T`.
    pub fn threshold(mut self, t: usize) -> Self {
        self.explicit_t = Some(t);
        self
    }

    /// Capacity safety factor over `expected_max_cardinality`
    /// (default 2.0).
    pub fn safety_factor(mut self, s: f64) -> Self {
        self.safety = s;
        self
    }

    /// Hash scheme for item recording.
    pub fn hash_scheme(mut self, scheme: HashScheme) -> Self {
        self.scheme = scheme;
        self
    }

    /// Construct the estimator.
    ///
    /// # Errors
    /// Propagates parameter validation from [`Smb::with_scheme`]; also
    /// fails if no capacity `c ≤ m/2` can cover the requested maximum.
    pub fn build(self) -> Result<Smb> {
        let m = self.memory_bits;
        if let Some(t) = self.explicit_t {
            return Smb::with_scheme(m, t, self.scheme);
        }
        let target = self.expected_max * self.safety;
        let mut chosen = None;
        for c in 2..=m.max(2) / 2 {
            let t = m / c; // floor; actual rounds = floor(m/t) >= c
            if t == 0 {
                break;
            }
            let candidate = Smb::with_scheme(m, t, self.scheme)?;
            if candidate.max_estimate() >= target {
                chosen = Some(candidate);
                break;
            }
        }
        chosen.ok_or_else(|| {
            Error::invalid(
                "expected_max_cardinality",
                format!(
                    "no threshold for m={m} covers target {target:.0}; increase memory"
                ),
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(smb: &mut Smb, lo: u64, hi: u64) {
        for i in lo..hi {
            smb.record(&i.to_le_bytes());
        }
    }

    #[test]
    fn record_hashes_matches_sequential_record_hash() {
        // Run deep into the sampling rounds so the batched fast path's
        // skim loop actually rejects items; state must stay identical
        // to the one-at-a-time path, batch boundaries included.
        let scheme = HashScheme::with_seed(11);
        let hashes: Vec<ItemHash> = (0..60_000u64)
            .map(|i| scheme.item_hash(&i.to_le_bytes()))
            .collect();
        let mut batched = Smb::with_scheme(2048, 128, scheme).unwrap();
        let mut sequential = batched.clone();
        for chunk in hashes.chunks(977) {
            batched.record_hashes(chunk);
        }
        for &h in &hashes {
            sequential.record_hash(h);
        }
        assert_eq!(batched.snapshot(), sequential.snapshot());
        assert_eq!(batched.estimate(), sequential.estimate());
        assert!(batched.round() > 0, "test must exercise sampling rounds");
    }

    #[test]
    fn batched_matches_sequential_across_morph_boundaries() {
        // The kernel's bulk path commits whole batches only when no
        // morph can fire; this test forces batches that straddle v==T
        // (batch size far above T) and checks that *everything*
        // observable — (r, v), the physical bitmap, the item
        // attribution counter, and the emitted morph events — is
        // bit-identical to one-at-a-time recording.
        use crate::observe::{MorphCollector, ObserverHandle, SmbObserver};
        use std::sync::Arc;

        let scheme = HashScheme::with_seed(23);
        let hashes: Vec<ItemHash> = (0..80_000u64)
            .map(|i| scheme.item_hash(&i.to_le_bytes()))
            .collect();
        for chunk_len in [1usize, 13, 128, 129, 1024, 80_000] {
            let collect_batched = MorphCollector::shared();
            let collect_seq = MorphCollector::shared();
            // T = 128 << chunk sizes above 128, so batches span morphs.
            let mut batched = Smb::with_scheme(2048, 128, scheme).unwrap();
            batched.set_observer(Some(ObserverHandle::new(
                Arc::clone(&collect_batched) as Arc<dyn SmbObserver>
            )));
            let mut sequential = Smb::with_scheme(2048, 128, scheme).unwrap();
            sequential.set_observer(Some(ObserverHandle::new(
                Arc::clone(&collect_seq) as Arc<dyn SmbObserver>
            )));
            for chunk in hashes.chunks(chunk_len) {
                batched.record_hashes(chunk);
            }
            for &h in &hashes {
                sequential.record_hash(h);
            }
            assert!(sequential.round() > 0, "must cross at least one morph");
            assert_eq!(batched.snapshot(), sequential.snapshot(), "chunk {chunk_len}");
            assert_eq!(
                batched.as_bits(),
                sequential.as_bits(),
                "physical bitmap diverged at chunk {chunk_len}"
            );
            assert_eq!(
                batched.items_since_last_morph(),
                sequential.items_since_last_morph(),
                "item attribution diverged at chunk {chunk_len}"
            );
            let eb = collect_batched.events();
            let es = collect_seq.events();
            assert_eq!(eb.len(), es.len(), "morph count at chunk {chunk_len}");
            for (b, s) in eb.iter().zip(es.iter()) {
                assert_eq!(b.round, s.round);
                assert_eq!(b.fresh_bits_at_close, s.fresh_bits_at_close);
                assert_eq!(b.logical_size, s.logical_size);
                assert_eq!(
                    b.items_since_last_morph, s.items_since_last_morph,
                    "per-event attribution at chunk {chunk_len} round {}",
                    b.round
                );
            }
        }
    }

    #[test]
    fn batched_matches_sequential_into_saturation() {
        // Saturate a tiny SMB through the batched path: the final round
        // takes the bulk-commit branch with an unbounded budget.
        let scheme = HashScheme::with_seed(5);
        let hashes: Vec<ItemHash> = (0..400_000u64)
            .map(|i| scheme.item_hash(&i.to_le_bytes()))
            .collect();
        let mut batched = Smb::with_scheme(256, 64, scheme).unwrap();
        let mut sequential = batched.clone();
        for chunk in hashes.chunks(2048) {
            batched.record_hashes(chunk);
        }
        for &h in &hashes {
            sequential.record_hash(h);
        }
        assert!(sequential.is_saturated());
        assert!(batched.is_saturated());
        assert_eq!(batched.snapshot(), sequential.snapshot());
        assert_eq!(batched.as_bits(), sequential.as_bits());
        assert_eq!(batched.estimate(), sequential.estimate());
    }

    #[test]
    fn parameter_validation() {
        assert!(Smb::new(0, 1).is_err());
        assert!(Smb::new(100, 0).is_err());
        assert!(Smb::new(100, 51).is_err()); // t > m/2
        assert!(Smb::new(100, 50).is_ok());
    }

    #[test]
    fn empty_estimates_zero() {
        let smb = Smb::new(1000, 100).unwrap();
        assert_eq!(smb.estimate(), 0.0);
        assert_eq!(smb.round(), 0);
        assert_eq!(smb.fresh_ones(), 0);
        assert_eq!(smb.sampling_probability(), 1.0);
    }

    #[test]
    fn s_table_matches_recurrence() {
        let m = 1000usize;
        let t = 100usize;
        let smb = Smb::new(m, t).unwrap();
        assert_eq!(smb.s_value(0), 0.0);
        let mut acc = 0.0;
        for i in 0..smb.max_rounds() {
            assert!((smb.s_value(i) - acc).abs() < 1e-9, "round {i}");
            let m_i = (m - i as usize * t) as f64;
            acc += -(2f64.powi(i as i32)) * m as f64 * (1.0 - t as f64 / m_i).ln();
        }
    }

    #[test]
    fn ones_invariant_holds_throughout() {
        let mut smb = Smb::new(2048, 256).unwrap();
        for i in 0..100_000u64 {
            smb.record(&i.to_le_bytes());
            if i % 9973 == 0 {
                assert_eq!(
                    smb.ones(),
                    smb.as_bits().count_ones(),
                    "r={} v={}",
                    smb.round(),
                    smb.fresh_ones()
                );
            }
        }
        assert_eq!(smb.ones(), smb.as_bits().count_ones());
    }

    #[test]
    fn rounds_advance_and_sampling_decreases() {
        let mut smb = Smb::new(1024, 128).unwrap();
        assert_eq!(smb.round(), 0);
        feed(&mut smb, 0, 50_000);
        assert!(smb.round() >= 2, "after 50k distinct items, r={}", smb.round());
        assert!(smb.sampling_probability() < 1.0);
        assert!(smb.round() < smb.max_rounds());
        // v stays under T except in the final round.
        if smb.round() + 1 < smb.max_rounds() {
            assert!(smb.fresh_ones() < smb.threshold());
        }
    }

    #[test]
    fn duplicates_never_change_state_theorem_2() {
        let mut smb = Smb::new(512, 64).unwrap();
        // Feed a stream with every item repeated 5 times, interleaved so
        // repeats arrive in later rounds too.
        let n = 20_000u64;
        for rep in 0..5 {
            for i in 0..n {
                smb.record(&i.to_le_bytes());
                let _ = rep;
            }
        }
        let (r1, v1) = (smb.round(), smb.fresh_ones());
        // One more full pass of pure duplicates.
        for i in 0..n {
            smb.record(&i.to_le_bytes());
        }
        assert_eq!((smb.round(), smb.fresh_ones()), (r1, v1));
    }

    #[test]
    fn estimate_accuracy_small_stream() {
        let mut smb = Smb::new(10_000, 10_000 / 16).unwrap();
        feed(&mut smb, 0, 1000);
        let est = smb.estimate();
        assert!((est - 1000.0).abs() / 1000.0 < 0.1, "est={est}");
    }

    #[test]
    fn estimate_accuracy_large_stream_multiple_seeds() {
        // n = 200k with m = 10000 bits: far beyond a plain bitmap's
        // range (10000·ln 10000 ≈ 92k), exercising several rounds.
        let n = 200_000u64;
        let mut errs = Vec::new();
        for seed in 0..10 {
            let mut smb =
                Smb::with_scheme(10_000, 10_000 / 16, HashScheme::with_seed(seed)).unwrap();
            feed(&mut smb, 0, n);
            errs.push((smb.estimate() - n as f64).abs() / n as f64);
        }
        let mean_err = errs.iter().sum::<f64>() / errs.len() as f64;
        assert!(mean_err < 0.08, "mean relative error {mean_err}, errs {errs:?}");
    }

    #[test]
    fn estimate_beats_plain_bitmap_range() {
        let m = 5000;
        let smb = Smb::new(m, m / 16).unwrap();
        let bitmap_range = (m as f64) * (m as f64).ln();
        assert!(
            smb.max_estimate() > 10.0 * bitmap_range,
            "SMB max {} vs bitmap {}",
            smb.max_estimate(),
            bitmap_range
        );
    }

    #[test]
    fn saturation_is_graceful() {
        let mut smb = Smb::new(256, 64).unwrap();
        feed(&mut smb, 0, 2_000_000);
        assert!(smb.estimate().is_finite());
        assert!(smb.estimate() <= smb.max_estimate() + 1e-6);
        assert_eq!(smb.round(), smb.max_rounds() - 1, "round counter stops");
    }

    #[test]
    fn clear_restores_initial_state() {
        let mut smb = Smb::new(1024, 128).unwrap();
        feed(&mut smb, 0, 100_000);
        smb.clear();
        assert_eq!(smb.round(), 0);
        assert_eq!(smb.fresh_ones(), 0);
        assert_eq!(smb.estimate(), 0.0);
        assert_eq!(smb.as_bits().count_ones(), 0);
        // Still usable after clear.
        feed(&mut smb, 0, 1000);
        assert!(smb.estimate() > 0.0);
    }

    #[test]
    fn snapshot_matches_live_estimate() {
        let mut smb = Smb::new(4096, 512).unwrap();
        feed(&mut smb, 0, 30_000);
        let snap = smb.snapshot();
        assert_eq!(smb.estimate_at(snap.r, snap.v), smb.estimate());
    }

    #[test]
    fn monotone_nondecreasing_estimates() {
        // As more distinct items arrive, (r, v) advances lexicographically
        // and the estimate must never decrease.
        let mut smb = Smb::new(2000, 250).unwrap();
        let mut last = 0.0;
        for i in 0..300_000u64 {
            smb.record(&i.to_le_bytes());
            if i % 1000 == 0 {
                let e = smb.estimate();
                assert!(e >= last - 1e-9, "estimate decreased at {i}: {e} < {last}");
                last = e;
            }
        }
    }

    #[test]
    fn builder_derives_workable_threshold() {
        let smb = Smb::builder()
            .memory_bits(5000)
            .expected_max_cardinality(1_000_000)
            .build()
            .unwrap();
        assert!(smb.max_estimate() >= 2_000_000.0);
        // Should not be wildly over-provisioned either: halving the
        // number of rounds must break coverage.
        let c = (5000 / smb.threshold()) as u32;
        assert!(c >= 2);
    }

    #[test]
    fn builder_explicit_threshold_wins() {
        let smb = Smb::builder()
            .memory_bits(1000)
            .threshold(125)
            .build()
            .unwrap();
        assert_eq!(smb.threshold(), 125);
    }

    #[test]
    fn builder_impossible_target_errors() {
        // m = 8 bits cannot cover 10^12.
        let res = Smb::builder()
            .memory_bits(8)
            .expected_max_cardinality(1e12)
            .build();
        assert!(res.is_err());
    }

    #[test]
    fn max_estimate_formula() {
        // Hand-check: m=8, T=2 → 4 rounds, last logical bitmap has
        // m_3 = 2 bits; max = S[3] + 2³·8·ln(2).
        let smb = Smb::new(8, 2).unwrap();
        let expect = smb.s_value(3) + 8.0 * 8.0 * 2f64.ln();
        assert!((smb.max_estimate() - expect).abs() < 1e-9);
    }

    #[test]
    fn morph_events_fire_once_per_round_closure() {
        use crate::observe::{MorphCollector, ObserverHandle, SmbObserver};
        use std::sync::Arc;

        let collector = MorphCollector::shared();
        let mut smb = Smb::new(1024, 128).unwrap();
        assert!(smb.set_observer(Some(ObserverHandle::new(
            Arc::clone(&collector) as Arc<dyn SmbObserver>
        ))));
        feed(&mut smb, 0, 50_000);
        let events = collector.events();
        assert_eq!(events.len(), smb.round() as usize, "one event per closed round");
        let mut items_total = 0u64;
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.round, i as u32, "rounds strictly increasing from 0");
            assert_eq!(e.fresh_bits_at_close, smb.threshold());
            assert_eq!(e.logical_size, 1024 - i * 128);
            assert!((e.estimate_at_close - smb.s_value(e.round + 1)).abs() < 1e-9);
            items_total += e.items_since_last_morph;
        }
        // Every offered item is attributed to exactly one inter-morph
        // interval (closed rounds + the still-open round).
        assert_eq!(items_total + smb.items_since_last_morph(), 50_000);
    }

    #[test]
    fn clear_emits_cleared_and_rearms_saturation() {
        use crate::observe::{MorphCollector, ObserverHandle, SmbObserver};
        use std::sync::Arc;

        let collector = MorphCollector::shared();
        let mut smb = Smb::new(256, 64).unwrap();
        smb.set_observer(Some(ObserverHandle::new(
            Arc::clone(&collector) as Arc<dyn SmbObserver>
        )));
        feed(&mut smb, 0, 2_000_000);
        assert!(smb.is_saturated());
        assert_eq!(collector.saturated_count(), 1, "saturation fires once");
        smb.clear();
        assert_eq!(collector.cleared_count(), 1);
        assert_eq!(smb.items_since_last_morph(), 0);
    }

    #[test]
    fn paper_worked_example_dimensions() {
        // The paper's Fig. 4 example: m=8, T=2 → rounds of logical sizes
        // 8, 6, 4, 2.
        let smb = Smb::new(8, 2).unwrap();
        assert_eq!(smb.max_rounds(), 4);
        assert_eq!(smb.logical_len(), 8);
    }
}

#[cfg(feature = "snapshot")]
mod snapshot_impl {
    use super::{Smb, SmbSnapshot};
    use crate::bits::BitVec;
    use smb_devtools::{Json, JsonError, Snapshot};
    use smb_hash::HashScheme;

    impl Snapshot for Smb {
        fn to_json(&self) -> Json {
            Json::Obj(vec![
                ("scheme".into(), self.scheme.to_json()),
                ("m".into(), Json::Int(self.m as i128)),
                ("t".into(), Json::Int(self.t as i128)),
                ("r".into(), Json::Int(self.r as i128)),
                ("v".into(), Json::Int(self.v as i128)),
                ("bits".into(), self.bits.to_json()),
            ])
        }

        fn from_json(v: &Json) -> Result<Self, JsonError> {
            let scheme = HashScheme::from_json(v.field("scheme")?)?;
            let m = v.field("m")?.as_usize()?;
            let t = v.field("t")?.as_usize()?;
            let r = v.field("r")?.as_u32()?;
            let fresh = v.field("v")?.as_usize()?;
            let bits = BitVec::from_json(v.field("bits")?)?;
            // The constructor re-validates (m, t) and rebuilds the
            // derived S-table and round budget.
            let mut smb = Smb::with_scheme(m, t, scheme)
                .map_err(|e| JsonError::new(e.to_string()))?;
            if bits.len() != m {
                return Err(JsonError::new(format!(
                    "bit array length {} does not match m = {m}",
                    bits.len()
                )));
            }
            if r >= smb.max_rounds {
                return Err(JsonError::new(format!(
                    "round {r} out of range (max_rounds {})",
                    smb.max_rounds
                )));
            }
            // Outside a saturating final round, v must sit below T.
            if r + 1 < smb.max_rounds && fresh >= t {
                return Err(JsonError::new(format!(
                    "fresh-ones {fresh} must be below threshold {t} in round {r}"
                )));
            }
            // The structural invariant of Algorithm 1: total physical
            // ones equal r·T + v.
            let ones = bits.count_ones();
            if ones != (r as usize) * t + fresh {
                return Err(JsonError::new(format!(
                    "ones invariant violated: popcount {ones} != r·T + v = {}",
                    (r as usize) * t + fresh
                )));
            }
            smb.bits = bits;
            smb.r = r;
            smb.v = fresh;
            Ok(smb)
        }
    }

    impl Snapshot for SmbSnapshot {
        fn to_json(&self) -> Json {
            Json::Obj(vec![
                ("r".into(), Json::Int(self.r as i128)),
                ("v".into(), Json::Int(self.v as i128)),
            ])
        }

        fn from_json(v: &Json) -> Result<Self, JsonError> {
            Ok(SmbSnapshot {
                r: v.field("r")?.as_u32()?,
                v: v.field("v")?.as_usize()?,
            })
        }
    }
}
