//! Tiered per-flow estimator cells.
//!
//! The paper's SMB is tiny per *stream*, but a table of millions of
//! flows still pays a full estimator (bitmap + S-table + vtable) per
//! flow if every flow materializes one eagerly. Under Zipfian traffic
//! most flows carry 0–2 distinct items and need ~8 bytes, not a
//! bitmap. [`FlowCell`] applies SMB's own adaptivity idea — grow the
//! representation only when the data demands it — to per-flow
//! *storage*:
//!
//! * **Small** — up to [`SMALL_CAP`] raw 64-bit item hashes inline in
//!   the table slot; the whole cell is two machine words. Zero
//!   allocation. (Two *exact* 64-bit hashes plus a tier tag cannot fit
//!   in two words, so the inline tier caps at one hash — which is the
//!   dominant Zipf mass — and the array tier catches the rest.)
//! * **Array** — up to [`ARRAY_CAP`] raw hashes in one small heap
//!   allocation.
//! * **Full** — a real estimator built by the flow's factory.
//!
//! Promotion is **exact**: the stored hashes are replayed through
//! [`CardinalityEstimator::record_hashes`] in arrival order, so a
//! promoted cell's estimator state is bit-identical to one that
//! existed from the first item. The small tiers deduplicate by raw
//! hash — sound because every estimator in the workspace derives all
//! of its behaviour from the 64-bit [`ItemHash`] (equal raws are
//! indistinguishable downstream) and the estimator trait contract
//! makes duplicate records state-neutral. Estimates from unmaterialized
//! tiers replay the stored hashes through a fresh factory-built probe,
//! so *every* observable of a tiered cell is bit-identical to the
//! untiered path at every point in the flow's life.

use smb_core::CardinalityEstimator;
use smb_hash::ItemHash;

/// Raw hashes a [`FlowCell::Small`] cell holds inline. The whole cell
/// is two machine words (tag + length in one, the hash in the other),
/// so exactly one full-width hash fits next to the tier tag.
pub const SMALL_CAP: usize = 1;

/// Raw hashes a [`FlowCell::Array`] cell holds in its single heap
/// block before materializing a real estimator.
pub const ARRAY_CAP: usize = 16;

/// The storage tier a [`FlowCell`] currently occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// Inline small-set tier (0..=[`SMALL_CAP`] hashes, no allocation).
    Small,
    /// Heap array tier (..=[`ARRAY_CAP`] hashes, one small allocation).
    Array,
    /// Materialized estimator.
    Full,
}

impl Tier {
    /// Stable lowercase name, used as the `tier` metric label.
    pub fn name(&self) -> &'static str {
        match self {
            Tier::Small => "small",
            Tier::Array => "array",
            Tier::Full => "full",
        }
    }
}

/// The array tier's heap block: arrival-ordered distinct raw hashes.
#[derive(Debug, Clone)]
pub struct ArrayTier {
    len: u8,
    hashes: [u64; ARRAY_CAP],
}

/// One flow's storage: a tiered cell that starts as an inline small
/// set and materializes a real estimator only when the flow proves it
/// needs one. See the module docs for the tier ladder and the
/// bit-identity argument.
#[derive(Debug)]
pub enum FlowCell<E> {
    /// 0..=[`SMALL_CAP`] distinct raw hashes inline — the whole cell
    /// is two machine words.
    Small {
        /// Number of hashes present (0 or 1).
        len: u8,
        /// The hash, valid when `len == 1`.
        hash: u64,
    },
    /// ..=[`ARRAY_CAP`] distinct raw hashes, arrival-ordered, one heap
    /// block.
    Array(Box<ArrayTier>),
    /// A materialized estimator holding the flow's full state. Boxed
    /// so the cell stays pocket-sized for any estimator type — the
    /// table's slot array never pays for inline estimator structs, and
    /// the cell keeps its two-machine-word size (the thin box pointer
    /// shares the niche budget that a fat `DynEstimator` handle would
    /// blow past).
    Full(Box<E>),
}

impl<E> Default for FlowCell<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> FlowCell<E> {
    /// An empty cell in the small tier.
    pub fn new() -> Self {
        FlowCell::Small { len: 0, hash: 0 }
    }

    /// Wrap an existing estimator (restore path, eager callers).
    pub fn from_estimator(estimator: E) -> Self {
        FlowCell::Full(Box::new(estimator))
    }

    /// Which tier the cell currently occupies.
    pub fn tier(&self) -> Tier {
        match self {
            FlowCell::Small { .. } => Tier::Small,
            FlowCell::Array(_) => Tier::Array,
            FlowCell::Full(_) => Tier::Full,
        }
    }

    /// Hint the cell's boxed payload (array tier block or estimator)
    /// into cache ahead of a record — the batched record loop's second
    /// lookahead stage, covering the pointer hop the slot-level
    /// prefetch cannot see. No-op for the inline small tier.
    #[inline]
    pub fn prefetch_payload(&self) {
        match self {
            FlowCell::Small { .. } => {}
            FlowCell::Array(arr) => crate::prefetch::prefetch_read(&**arr),
            FlowCell::Full(est) => crate::prefetch::prefetch_read(&**est),
        }
    }

    /// The raw hashes a not-yet-materialized cell holds, in arrival
    /// order; `None` once materialized.
    pub fn pending_hashes(&self) -> Option<&[u64]> {
        match self {
            FlowCell::Small { len, hash } => {
                Some(&std::slice::from_ref(hash)[..*len as usize])
            }
            FlowCell::Array(a) => Some(&a.hashes[..a.len as usize]),
            FlowCell::Full(_) => None,
        }
    }

    /// Borrow the materialized estimator, if any.
    pub fn estimator(&self) -> Option<&E> {
        match self {
            FlowCell::Full(est) => Some(est),
            _ => None,
        }
    }

    /// Mutably borrow the materialized estimator, if any. Does **not**
    /// force materialization — use [`FlowCell::force_estimator`] for
    /// that. Restore paths use this to reattach observers to cells
    /// that came back materialized, without disturbing tiered ones.
    pub fn estimator_mut(&mut self) -> Option<&mut E> {
        match self {
            FlowCell::Full(est) => Some(est),
            _ => None,
        }
    }

    /// Resident bytes of a materialized estimator: its struct plus its
    /// logical state.
    fn full_bytes(est: &E) -> usize
    where
        E: CardinalityEstimator,
    {
        std::mem::size_of::<E>() + est.memory_bits().div_ceil(8)
    }

    /// Heap bytes this cell owns beyond its inline enum footprint:
    /// nothing for the small tier, the array block for the array tier,
    /// and the estimator's logical state (`memory_bits / 8`) once
    /// materialized.
    pub fn memory_bytes(&self) -> usize
    where
        E: CardinalityEstimator,
    {
        match self {
            FlowCell::Small { .. } => 0,
            FlowCell::Array(_) => std::mem::size_of::<ArrayTier>(),
            FlowCell::Full(est) => Self::full_bytes(est),
        }
    }
}

impl<E: CardinalityEstimator> FlowCell<E> {
    /// Record one pre-computed hash, promoting through the tier ladder
    /// as needed. `make` builds the flow's estimator when (and only
    /// when) the cell outgrows [`ARRAY_CAP`]; promotion replays every
    /// stored hash in arrival order, so the materialized state is
    /// bit-identical to an estimator that saw the stream from the
    /// start.
    pub fn record_hash(&mut self, hash: ItemHash, make: impl FnOnce() -> E) {
        let raw = hash.raw();
        match self {
            FlowCell::Small { len, hash: stored } => {
                if *len == 0 {
                    *stored = raw;
                    *len = 1;
                    return;
                }
                if *stored == raw {
                    return;
                }
                // Promote Small → Array, carrying arrival order.
                let mut array = Box::new(ArrayTier {
                    len: 2,
                    hashes: [0; ARRAY_CAP],
                });
                array.hashes[0] = *stored;
                array.hashes[1] = raw;
                *self = FlowCell::Array(array);
            }
            FlowCell::Array(array) => {
                let n = array.len as usize;
                if array.hashes[..n].contains(&raw) {
                    return;
                }
                if n < ARRAY_CAP {
                    array.hashes[n] = raw;
                    array.len = (n + 1) as u8;
                    return;
                }
                // Promote Array → Full: replay stored hashes, then the
                // newcomer, in exact arrival order.
                let mut est = make();
                record_raw_hashes(&mut est, &array.hashes[..n]);
                est.record_hash(hash);
                *self = FlowCell::Full(Box::new(est));
            }
            FlowCell::Full(est) => est.record_hash(hash),
        }
    }

    /// Record a batch of pre-computed hashes. Small tiers absorb the
    /// prefix item by item (promoting as needed); once materialized
    /// the rest of the batch goes through the estimator's batched
    /// path in one call.
    pub fn record_hashes(&mut self, hashes: &[ItemHash], make: impl FnOnce() -> E) {
        if let FlowCell::Full(est) = self {
            est.record_hashes(hashes);
            return;
        }
        let mut make = Some(make);
        for (i, &hash) in hashes.iter().enumerate() {
            self.record_hash(hash, || {
                (make.take().expect("materialize at most once"))()
            });
            if let FlowCell::Full(est) = self {
                est.record_hashes(&hashes[i + 1..]);
                return;
            }
        }
    }

    /// The cell's cardinality estimate — bit-identical to the untiered
    /// path. Materialized cells answer directly; small tiers build a
    /// probe with `make`, replay their stored hashes and read its
    /// estimate (the exact state the untiered path would hold). The
    /// probe is a throwaway, so any observer `make` attached is detached
    /// before the replay: a read must not report lifecycle events (a
    /// small-`T` probe morphs) for a flow that never materialized.
    pub fn estimate(&self, make: impl FnOnce() -> E) -> f64 {
        match self {
            FlowCell::Full(est) => est.estimate(),
            _ => {
                let pending = self.pending_hashes().expect("unmaterialized cell");
                let mut probe = make();
                probe.set_observer(None);
                record_raw_hashes(&mut probe, pending);
                probe.estimate()
            }
        }
    }

    /// Force-materialize and mutably borrow the estimator, replaying
    /// any stored hashes through `make`'s product first. Eager tables
    /// record through it, and `FlowTable::insert`/`remove` hand out
    /// estimators this way; tier-aware callers should record through
    /// the cell instead and leave tiny flows unmaterialized.
    pub fn force_estimator(&mut self, make: impl FnOnce() -> E) -> &mut E {
        if let Some(pending) = self.pending_hashes() {
            let mut est = make();
            // The borrow of `pending` ends before the write below; copy
            // into a stack buffer to keep the borrow checker honest.
            let mut buf = [0u64; ARRAY_CAP];
            let n = pending.len();
            buf[..n].copy_from_slice(pending);
            record_raw_hashes(&mut est, &buf[..n]);
            *self = FlowCell::Full(Box::new(est));
        }
        match self {
            FlowCell::Full(est) => est,
            _ => unreachable!("cell was just materialized"),
        }
    }

    /// Consume the cell into a materialized estimator (drain path).
    pub fn into_estimator(mut self, make: impl FnOnce() -> E) -> E {
        self.force_estimator(make);
        match self {
            FlowCell::Full(est) => *est,
            _ => unreachable!("cell was just materialized"),
        }
    }

    /// Logical memory in bits: the estimator's own accounting once
    /// materialized, 64 bits per stored hash before.
    pub fn memory_bits(&self) -> usize {
        match self {
            FlowCell::Full(est) => est.memory_bits(),
            other => other
                .pending_hashes()
                .map_or(0, |pending| 64 * pending.len()),
        }
    }
}

/// Replay raw hash words through an estimator's batched path, exactly
/// as they arrived.
fn record_raw_hashes<E: CardinalityEstimator>(est: &mut E, raws: &[u64]) {
    let mut buf = [ItemHash::new(0); ARRAY_CAP];
    let n = raws.len();
    debug_assert!(n <= ARRAY_CAP);
    for (slot, &raw) in buf.iter_mut().zip(raws) {
        *slot = ItemHash::new(raw);
    }
    est.record_hashes(&buf[..n]);
}

#[cfg(feature = "snapshot")]
mod snapshot_impl {
    use super::*;
    use smb_devtools::{Json, JsonError};

    impl<E: CardinalityEstimator> FlowCell<E> {
        /// Serialize the cell's tier. Small and array tiers become a
        /// `{"tier": ..., "hashes": [...]}` wrapper; a materialized
        /// cell serializes as the estimator's own state, unwrapped —
        /// byte-identical to the pre-tier checkpoint format, so old
        /// readers still understand fully-materialized checkpoints and
        /// old checkpoints restore as all-full cells. Returns `None`
        /// when a materialized estimator does not support snapshots.
        pub fn snapshot_state(&self) -> Option<Json> {
            match self {
                FlowCell::Full(est) => est.snapshot_state(),
                other => {
                    let pending = other.pending_hashes().expect("unmaterialized cell");
                    Some(Json::Obj(vec![
                        (
                            "tier".into(),
                            Json::Str(other.tier().name().into()),
                        ),
                        (
                            "hashes".into(),
                            Json::Arr(
                                pending.iter().map(|&h| Json::Int(h as i128)).collect(),
                            ),
                        ),
                    ]))
                }
            }
        }
    }

    impl<E> FlowCell<E> {
        /// Rebuild a small or array tier cell from its tagged state.
        /// Returns `Ok(None)` when `state` carries no `tier` field —
        /// i.e. it is a plain estimator state (old checkpoints, full
        /// cells) the caller must route through the estimator restore
        /// path instead.
        ///
        /// # Errors
        /// [`JsonError`] when the tier tag is unknown or the stored
        /// hashes violate the tier's invariants (over capacity, or
        /// duplicated — cells hold *distinct* hashes by construction).
        pub fn from_tier_json(state: &Json) -> Result<Option<Self>, JsonError> {
            let Ok(tier) = state.field("tier") else {
                return Ok(None);
            };
            let tier = tier.as_str()?;
            let cap = match tier {
                "small" => SMALL_CAP,
                "array" => ARRAY_CAP,
                other => {
                    return Err(JsonError::new(format!("unknown cell tier `{other}`")))
                }
            };
            let Json::Arr(raw) = state.field("hashes")? else {
                return Err(JsonError::new("cell hashes field is not an array"));
            };
            if raw.len() > cap {
                return Err(JsonError::new(format!(
                    "{tier} tier holds {} hashes, capacity {cap}",
                    raw.len()
                )));
            }
            let mut hashes = [0u64; ARRAY_CAP];
            for (slot, v) in hashes.iter_mut().zip(raw) {
                *slot = v.as_u64()?;
            }
            let n = raw.len();
            for i in 1..n {
                if hashes[..i].contains(&hashes[i]) {
                    return Err(JsonError::new(format!(
                        "{tier} tier holds duplicate hash {:#x}",
                        hashes[i]
                    )));
                }
            }
            Ok(Some(match tier {
                "small" => FlowCell::Small {
                    len: n as u8,
                    hash: hashes[0],
                },
                _ => FlowCell::Array(Box::new(ArrayTier {
                    len: n as u8,
                    hashes,
                })),
            }))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smb_core::Smb;
    use smb_hash::HashScheme;

    fn make() -> Smb {
        Smb::with_scheme(2048, 128, HashScheme::with_seed(7)).unwrap()
    }

    fn hash(i: u64) -> ItemHash {
        HashScheme::with_seed(7).item_hash(&i.to_le_bytes())
    }

    #[test]
    fn tier_ladder_promotes_at_exact_boundaries() {
        let mut cell: FlowCell<Smb> = FlowCell::new();
        assert_eq!(cell.tier(), Tier::Small);
        cell.record_hash(hash(0), make);
        assert_eq!(cell.tier(), Tier::Small, "one hash stays inline");
        cell.record_hash(hash(100), make);
        assert_eq!(cell.tier(), Tier::Array, "second distinct hash spills");
        for i in 0..(ARRAY_CAP - 3) as u64 {
            cell.record_hash(hash(200 + i), make);
            assert_eq!(cell.tier(), Tier::Array, "item {i}");
        }
        cell.record_hash(hash(998), make);
        assert_eq!(cell.tier(), Tier::Array, "array holds exactly ARRAY_CAP");
        assert_eq!(cell.pending_hashes().unwrap().len(), ARRAY_CAP);
        cell.record_hash(hash(999), make);
        assert_eq!(cell.tier(), Tier::Full);
    }

    #[test]
    fn duplicates_never_promote() {
        let mut cell: FlowCell<Smb> = FlowCell::new();
        for _ in 0..100 {
            cell.record_hash(hash(1), make);
        }
        assert_eq!(cell.tier(), Tier::Small);
        assert_eq!(cell.pending_hashes().unwrap().len(), 1);
        // Same in the array tier: repeats of resident hashes are
        // absorbed without growth.
        cell.record_hash(hash(2), make);
        assert_eq!(cell.tier(), Tier::Array);
        for _ in 0..100 {
            cell.record_hash(hash(1), make);
            cell.record_hash(hash(2), make);
        }
        assert_eq!(cell.pending_hashes().unwrap().len(), 2);
    }

    #[test]
    fn estimates_bit_identical_to_untiered_at_every_step() {
        let mut cell: FlowCell<Smb> = FlowCell::new();
        let mut reference = make();
        for i in 0..4 * ARRAY_CAP as u64 {
            // Every third item repeats, exercising dedup.
            let h = hash(i / 3 * 2);
            cell.record_hash(h, make);
            reference.record_hash(h);
            assert_eq!(cell.estimate(make), reference.estimate(), "item {i}");
        }
        assert_eq!(cell.tier(), Tier::Full);
    }

    #[test]
    fn batched_recording_matches_per_item_across_promotions() {
        let hashes: Vec<ItemHash> = (0..40u64).map(|i| hash(i % 25)).collect();
        let mut batched: FlowCell<Smb> = FlowCell::new();
        batched.record_hashes(&hashes, make);
        let mut single: FlowCell<Smb> = FlowCell::new();
        for &h in &hashes {
            single.record_hash(h, make);
        }
        let mut reference = make();
        reference.record_hashes(&hashes);
        assert_eq!(batched.estimate(make), reference.estimate());
        assert_eq!(single.estimate(make), reference.estimate());
    }

    #[test]
    fn force_estimator_replays_exactly() {
        let mut cell: FlowCell<Smb> = FlowCell::new();
        let mut reference = make();
        for i in 0..5u64 {
            cell.record_hash(hash(i), make);
            reference.record_hash(hash(i));
        }
        assert_eq!(cell.tier(), Tier::Array);
        let est = cell.force_estimator(make);
        assert_eq!(est.estimate(), reference.estimate());
        assert_eq!(cell.tier(), Tier::Full);
    }

    #[test]
    fn memory_accounting_tracks_tiers() {
        let mut cell: FlowCell<Smb> = FlowCell::new();
        assert_eq!(cell.memory_bytes(), 0);
        assert_eq!(cell.memory_bits(), 0);
        cell.record_hash(hash(1), make);
        assert_eq!(cell.memory_bits(), 64);
        assert_eq!(cell.memory_bytes(), 0, "inline tier owns no heap");
        cell.record_hash(hash(2), make);
        assert_eq!(cell.memory_bytes(), std::mem::size_of::<ArrayTier>());
        assert_eq!(cell.memory_bits(), 128);
        for i in 0..ARRAY_CAP as u64 {
            cell.record_hash(hash(1000 + i), make);
        }
        assert_eq!(cell.tier(), Tier::Full);
        assert_eq!(cell.memory_bytes(), std::mem::size_of::<Smb>() + 2048 / 8);
        assert_eq!(cell.memory_bits(), 2048);
    }

    #[test]
    fn cell_is_exactly_two_machine_words() {
        // The whole point of the inline tier: every cell — over any
        // estimator type, boxed or not — is two machine words, so a
        // million tiny flows cost two words each plus the slot key.
        // This is load-bearing for the bytes-per-flow bench gate.
        assert_eq!(
            std::mem::size_of::<FlowCell<Box<dyn CardinalityEstimator>>>(),
            2 * std::mem::size_of::<u64>(),
        );
        assert_eq!(std::mem::size_of::<FlowCell<Smb>>(), 16);
        // And the niche survives Option-wrapping (the table's slots).
        assert_eq!(std::mem::size_of::<Option<FlowCell<Smb>>>(), 16);
    }
}
