//! Per-flow estimator table: one estimator per stream key.
//!
//! This is the deployment model of the paper's CAIDA experiment ("each
//! data stream is allocated with a cardinality estimator") and of the
//! motivating router examples. Estimators are created lazily by a
//! factory closure on first packet of a flow; all estimators share a
//! hash scheme derived from the table seed so experiments are
//! reproducible.
//!
//! The table has two storage modes:
//!
//! * **Eager** ([`FlowTable::new`] / [`FlowTable::with_factory`]) —
//!   every flow materializes its estimator on first sight, exactly as
//!   before tiering existed. Factories may derive per-flow schemes;
//!   internal estimator state is directly observable via [`get`].
//! * **Tiered** ([`FlowTable::tiered`] /
//!   [`FlowTable::with_factory_tiered`]) — flows live in a
//!   [`FlowCell`] that starts as two inline machine words and only
//!   materializes a real estimator past [`ARRAY_CAP`] distinct items,
//!   with promotion by exact hash replay so every estimate is
//!   bit-identical to the eager mode. Tiered tables carry the one
//!   shared [`HashScheme`] all their estimators use (the engine's
//!   configuration), which also serves the byte-level [`record`] path.
//!
//! [`get`]: FlowTable::get
//! [`record`]: FlowTable::record
//! [`ARRAY_CAP`]: crate::flow_cell::ARRAY_CAP
//!
//! The table is generic over its factory type `F` (defaulting to a
//! boxed closure). Notably the factory carries **no `Send` bound**: a
//! table used on one thread may capture non-`Send` state. A table only
//! crosses threads when both `E` and `F` are `Send` — the sharded
//! engine (`smb-engine`) pins that requirement on its own shard type
//! rather than imposing it on every single-threaded caller.

use smb_core::CardinalityEstimator;
use smb_hash::{HashScheme, ItemHash};

use crate::flow_cell::{FlowCell, Tier};
use crate::flow_store::TierStats;
use crate::open_table::{OpenTable, PROBE_MISS};

/// The default factory representation: a boxed, thread-local closure.
pub type BoxedFactory<E> = Box<dyn Fn(u64) -> E>;

/// A map from flow key to its own estimator instance.
///
/// Storage is the in-tree open-addressed [`OpenTable`] over tiered
/// [`FlowCell`]s: flow keys are already uniform 64-bit hashes, so the
/// record path pays one cheap integer mix and a linear probe instead
/// of a full SipHash pass per lookup, and (in tiered mode) tiny flows
/// pay two inline words instead of a full estimator.
pub struct FlowTable<E: CardinalityEstimator, F = BoxedFactory<E>> {
    flows: OpenTable<FlowCell<E>>,
    factory: F,
    /// `Some` in tiered mode: the one scheme shared by every estimator
    /// the factory builds, used to hash byte items and to justify
    /// tiering pre-hashed input.
    scheme: Option<HashScheme>,
    stats: TierStats,
    /// Resolved-slot scratch reused across [`FlowTable::record_batch`]
    /// calls, so the batched probe allocates nothing in steady state.
    probe_slots: Vec<u32>,
}

impl<E: CardinalityEstimator> FlowTable<E> {
    /// Create an **eager** table whose estimators are built by
    /// `factory` (receiving the flow key, e.g. to derive per-flow
    /// seeds). Every flow materializes on first sight. The closure is
    /// boxed; use [`FlowTable::with_factory`] to keep a concrete
    /// factory type (required for a `Send` table).
    pub fn new(factory: impl Fn(u64) -> E + 'static) -> Self {
        FlowTable {
            flows: OpenTable::new(),
            factory: Box::new(factory),
            scheme: None,
            stats: TierStats::default(),
            probe_slots: Vec::new(),
        }
    }

    /// Create a **tiered** table: flows start as inline hash cells and
    /// materialize through `factory` only past the array tier.
    /// `scheme` must be the scheme of every estimator `factory`
    /// builds — sharing one scheme across flows is what makes stored
    /// raw hashes replayable. The closure is boxed; use
    /// [`FlowTable::with_factory_tiered`] for a `Send` table.
    pub fn tiered(scheme: HashScheme, factory: impl Fn(u64) -> E + 'static) -> Self {
        FlowTable {
            flows: OpenTable::new(),
            factory: Box::new(factory),
            scheme: Some(scheme),
            stats: TierStats::default(),
            probe_slots: Vec::new(),
        }
    }
}

impl<E: CardinalityEstimator, F: Fn(u64) -> E> FlowTable<E, F> {
    /// Create an eager table with a concrete factory type. The table
    /// is `Send` exactly when `E` and `F` are, so multi-threaded
    /// owners (the engine's shards) get the bound they need without it
    /// leaking into single-threaded use.
    pub fn with_factory(factory: F) -> Self {
        FlowTable {
            flows: OpenTable::new(),
            factory,
            scheme: None,
            stats: TierStats::default(),
            probe_slots: Vec::new(),
        }
    }

    /// Create a tiered table with a concrete factory type (see
    /// [`FlowTable::tiered`] for the scheme contract).
    pub fn with_factory_tiered(scheme: HashScheme, factory: F) -> Self {
        FlowTable {
            flows: OpenTable::new(),
            factory,
            scheme: Some(scheme),
            stats: TierStats::default(),
            probe_slots: Vec::new(),
        }
    }

    /// Pre-size the table for `n` flows, so steady-state ingest never
    /// rehashes mid-stream. The engine calls this per shard from its
    /// `expected_flows` option.
    pub fn reserve(&mut self, n: usize) {
        self.flows.reserve(n);
    }

    /// Record `item` under `flow`, creating the flow's cell on first
    /// sight. Tiered tables hash through their shared scheme and feed
    /// the tier ladder; eager tables delegate hashing to the flow's
    /// own estimator.
    #[inline]
    pub fn record(&mut self, flow: u64, item: &[u8]) {
        match self.scheme {
            Some(scheme) => self.record_hash(flow, scheme.item_hash(item)),
            None => {
                let FlowTable {
                    flows,
                    factory,
                    stats,
                    ..
                } = self;
                let cell = flows.get_or_insert_with(flow, |f| {
                    stats.inc(Tier::Full);
                    FlowCell::from_estimator(factory(f))
                });
                let before = cell.tier();
                cell.force_estimator(|| factory(flow)).record(item);
                stats.transition(before, Tier::Full);
            }
        }
    }

    /// Record a pre-computed hash under `flow`. The hash **must** come
    /// from the scheme of the estimator the factory builds for `flow`
    /// (the engine guarantees this by sharing one spec-derived scheme
    /// across all flows).
    #[inline]
    pub fn record_hash(&mut self, flow: u64, hash: ItemHash) {
        let tiered = self.scheme.is_some();
        let FlowTable {
            flows,
            factory,
            stats,
            ..
        } = self;
        if tiered {
            let cell = flows.get_or_insert_with(flow, |_| {
                stats.inc(Tier::Small);
                FlowCell::new()
            });
            let before = cell.tier();
            cell.record_hash(hash, || factory(flow));
            stats.transition(before, cell.tier());
        } else {
            let cell = flows.get_or_insert_with(flow, |f| {
                stats.inc(Tier::Full);
                FlowCell::from_estimator(factory(f))
            });
            let before = cell.tier();
            cell.force_estimator(|| factory(flow)).record_hash(hash);
            stats.transition(before, Tier::Full);
        }
    }

    /// Record a batch of pre-computed hashes under `flow` — one table
    /// lookup for the whole batch, and (once materialized) one call
    /// through the estimator's batched path.
    #[inline]
    pub fn record_hashes(&mut self, flow: u64, hashes: &[ItemHash]) {
        let tiered = self.scheme.is_some();
        let FlowTable {
            flows,
            factory,
            stats,
            ..
        } = self;
        if tiered {
            let cell = flows.get_or_insert_with(flow, |_| {
                stats.inc(Tier::Small);
                FlowCell::new()
            });
            let before = cell.tier();
            cell.record_hashes(hashes, || factory(flow));
            stats.transition(before, cell.tier());
        } else {
            let cell = flows.get_or_insert_with(flow, |f| {
                stats.inc(Tier::Full);
                FlowCell::from_estimator(factory(f))
            });
            let before = cell.tier();
            cell.force_estimator(|| factory(flow)).record_hashes(hashes);
            stats.transition(before, Tier::Full);
        }
    }

    /// Record a batch of interleaved `(flow, hash)` pairs in arrival
    /// order — the engine's per-batch path for traffic whose same-flow
    /// runs are too short for [`FlowTable::record_hashes`] grouping to
    /// amortise anything (≈1 item per run).
    ///
    /// Three passes over the batch:
    ///
    /// 1. **probe** — [`OpenTable::probe_batch`] resolves every flow's
    ///    slot with prefetch-pipelined lookups;
    /// 2. **insert** (first-sight flows only, usually skipped) — any
    ///    missed flow gets its empty cell inserted, then the batch is
    ///    re-probed: robin-hood insertion steals residents' slots, so
    ///    pre-insertion slot indices are never trusted afterwards;
    /// 3. **record** — one in-order pass writes each item into its
    ///    resolved cell. `Full` cells take one estimator call with no
    ///    tier bookkeeping (the run-length-1 survivor fast path);
    ///    `Small`/`Array` cells record inline — dedup against 1–16
    ///    resident hashes, no estimator resolution, no scratch entry.
    ///    Recording mutates cells strictly in place (promotion
    ///    replaces the cell *value*, never its slot), so every
    ///    resolved slot stays valid for the whole pass.
    ///
    /// Per-flow arrival order is exactly the batch order, so estimates
    /// and tier censuses are bit-identical to recording the batch one
    /// item at a time.
    pub fn record_batch(&mut self, batch: &[(u64, ItemHash)]) {
        // Bounded chunks keep the probe pass's prefetched cell lines
        // cache-resident until the record pass consumes them: at 256
        // in-flight slots the probe→record reuse distance stays inside
        // L1/L2 even for tables far larger than cache, where a
        // whole-batch pass would evict its own prefetches. Chunking
        // also makes the first-sight fallback adaptive per chunk while
        // a cold table fills.
        const RECORD_CHUNK: usize = 256;
        for chunk in batch.chunks(RECORD_CHUNK) {
            self.record_chunk(chunk);
        }
    }

    /// Per-item recording with a steady-state fast lane: resident
    /// [`FlowCell::Full`] cells take the estimator call directly — a
    /// Full→Full census transition is definitionally a no-op, so
    /// skipping the tier bookkeeping cannot change observable state.
    /// First-sight flows and inline-tier cells (which may promote) go
    /// through the full bookkeeping path, identical to
    /// [`FlowTable::record_hash`].
    fn record_per_item(&mut self, batch: &[(u64, ItemHash)]) {
        let tiered = self.scheme.is_some();
        let FlowTable {
            flows,
            factory,
            stats,
            ..
        } = self;
        for &(flow, hash) in batch {
            match flows.get_mut(flow) {
                Some(FlowCell::Full(est)) => est.record_hash(hash),
                Some(cell) => {
                    let before = cell.tier();
                    cell.record_hash(hash, || factory(flow));
                    stats.transition(before, cell.tier());
                }
                None if tiered => {
                    let cell = flows.get_or_insert_with(flow, |_| {
                        stats.inc(Tier::Small);
                        FlowCell::new()
                    });
                    let before = cell.tier();
                    cell.record_hash(hash, || factory(flow));
                    stats.transition(before, cell.tier());
                }
                None => {
                    let cell = flows.get_or_insert_with(flow, |f| {
                        stats.inc(Tier::Full);
                        FlowCell::from_estimator(factory(f))
                    });
                    cell.force_estimator(|| factory(flow)).record_hash(hash);
                }
            }
        }
    }

    /// One bounded probe → insert → record cycle of
    /// [`FlowTable::record_batch`].
    fn record_chunk(&mut self, batch: &[(u64, ItemHash)]) {
        if batch.is_empty() {
            return;
        }
        if !self.flows.prefetch_pays() {
            // Cache-resident table: every probe is already an L1/L2
            // hit, so the batched pipeline's second pass and slot
            // staging buy nothing — direct per-item recording (the
            // sequential reference itself) is strictly cheaper.
            self.record_per_item(batch);
            return;
        }
        let tiered = self.scheme.is_some();
        let mut slots = std::mem::take(&mut self.probe_slots);
        self.flows
            .probe_batch(batch.iter().map(|&(flow, _)| flow), &mut slots);
        let misses = slots.iter().filter(|&&s| s == PROBE_MISS).count();
        if misses * 4 > batch.len() {
            // First-sight-dominated batch (cold table, flow churn): the
            // batched path would pay an insert probe *plus* a full
            // re-probe pass per item, where per-item recording folds
            // lookup and insert into one probe. Fall back to the
            // sequential reference — it is the semantics being
            // reproduced, so equivalence is free.
            self.probe_slots = slots;
            self.record_per_item(batch);
            return;
        }
        if misses > 0 {
            {
                let FlowTable {
                    flows,
                    factory,
                    stats,
                    ..
                } = self;
                for (&(flow, _), &slot) in batch.iter().zip(&slots) {
                    if slot != PROBE_MISS {
                        continue;
                    }
                    // A flow repeated within the batch only inserts
                    // once; get_or_insert_with absorbs the rest.
                    if tiered {
                        flows.get_or_insert_with(flow, |_| {
                            stats.inc(Tier::Small);
                            FlowCell::new()
                        });
                    } else {
                        flows.get_or_insert_with(flow, |f| {
                            stats.inc(Tier::Full);
                            FlowCell::from_estimator(factory(f))
                        });
                    }
                }
            }
            self.flows
                .probe_batch(batch.iter().map(|&(flow, _)| flow), &mut slots);
        }
        let FlowTable {
            flows,
            factory,
            stats,
            ..
        } = self;
        // One lookahead stage ahead of the record on tables past cache
        // residency: the probe pass already pulled each chunk's cell
        // lines toward cache, so only the cells' boxed payloads (one
        // more dependent hop the probe cannot see) still need hinting,
        // a few items before their record consumes them. Cache-
        // resident tables skip the hints (see
        // `OpenTable::prefetch_pays`).
        const PAYLOAD_LOOKAHEAD: usize = 3;
        let hint = flows.prefetch_pays();
        for (i, (&(flow, hash), &slot)) in batch.iter().zip(&slots).enumerate() {
            if hint {
                if let Some(&ahead) = slots.get(i + PAYLOAD_LOOKAHEAD) {
                    flows.slot_get(ahead).prefetch_payload();
                }
            }
            let cell = flows.slot_mut(slot);
            if let FlowCell::Full(est) = cell {
                est.record_hash(hash);
            } else {
                let before = cell.tier();
                cell.record_hash(hash, || factory(flow));
                stats.transition(before, cell.tier());
            }
        }
        self.probe_slots = slots;
    }

    /// Estimate the cardinality of `flow`; `None` if never seen.
    /// Bit-identical across modes: unmaterialized cells replay their
    /// stored hashes through a factory-built probe.
    pub fn estimate(&self, flow: u64) -> Option<f64> {
        self.flows
            .get(flow)
            .map(|cell| cell.estimate(|| (self.factory)(flow)))
    }

    /// Borrow a flow's **materialized** estimator. `None` when the
    /// flow is absent *or* still in an inline tier (eager tables
    /// materialize everything, so there `None` simply means absent).
    /// Use [`FlowTable::cell`] for a tier-aware view.
    pub fn get(&self, flow: u64) -> Option<&E> {
        self.flows.get(flow).and_then(FlowCell::estimator)
    }

    /// Borrow a flow's cell, whatever its tier.
    pub fn cell(&self, flow: u64) -> Option<&FlowCell<E>> {
        self.flows.get(flow)
    }

    /// Insert `flow`'s estimator directly, replacing and returning any
    /// previous one (materializing it if the flow was tiered). The
    /// engine's restore path places estimators rebuilt from a
    /// checkpoint with this instead of routing them through the
    /// factory (which only knows how to build *empty* estimators).
    pub fn insert(&mut self, flow: u64, estimator: E) -> Option<E> {
        let old = self.insert_cell(flow, FlowCell::from_estimator(estimator))?;
        Some(old.into_estimator(|| (self.factory)(flow)))
    }

    /// Place a cell directly at whatever tier it carries (checkpoint
    /// restore), replacing and returning any previous cell.
    pub fn insert_cell(&mut self, flow: u64, cell: FlowCell<E>) -> Option<FlowCell<E>> {
        self.stats.inc(cell.tier());
        let old = self.flows.insert(flow, cell);
        if let Some(old) = &old {
            self.stats.dec(old.tier());
        }
        old
    }

    /// Remove `flow` from the table, returning its estimator
    /// materialized (e.g. for eviction of idle flows). Backward-shift
    /// deletion: no tombstones are left to slow later probes.
    pub fn remove(&mut self, flow: u64) -> Option<E> {
        let cell = self.flows.remove(flow)?;
        self.stats.dec(cell.tier());
        Some(cell.into_estimator(|| (self.factory)(flow)))
    }

    /// Number of flows tracked.
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// True when no flows have been recorded.
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    /// Iterate `(flow, cell)` pairs in unspecified order.
    pub fn cells(&self) -> impl Iterator<Item = (u64, &FlowCell<E>)> {
        self.flows.iter()
    }

    /// Remove and return every `(flow, cell)` pair, leaving the table
    /// empty but reusable (the factory is retained). Promotion
    /// counters survive; tier occupancy resets.
    pub fn drain_cells(&mut self) -> Vec<(u64, FlowCell<E>)> {
        let out: Vec<_> = self.flows.drain().collect();
        self.stats.reset_counts();
        out
    }

    /// Iterate `(flow, estimate)` pairs. Estimates from inline tiers
    /// come from probe replay and are bit-identical to the eager mode.
    pub fn estimates(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.flows
            .iter()
            .map(move |(flow, cell)| (flow, cell.estimate(|| (self.factory)(flow))))
    }

    /// Flows whose estimate is at least `threshold` (the scan/DDoS
    /// report of the paper's introduction), largest first. The
    /// threshold filter runs before the sort, and the sort is an
    /// unstable pattern-defeating quicksort — no allocation beyond the
    /// surviving entries, no stable-merge scratch buffer.
    pub fn flows_over(&self, threshold: f64) -> Vec<(u64, f64)> {
        let mut out: Vec<(u64, f64)> = self
            .estimates()
            .filter(|&(_, est)| est >= threshold)
            .collect();
        out.sort_unstable_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("estimates are finite")
                .then(a.0.cmp(&b.0))
        });
        out
    }

    /// Total logical memory across all flows, in bits: estimator
    /// accounting once materialized, 64 bits per stored hash before.
    pub fn total_memory_bits(&self) -> usize {
        self.flows.iter().map(|(_, cell)| cell.memory_bits()).sum()
    }

    /// Resident bytes: the open-addressed slot arrays (key + probe
    /// distance + cell, across the full capacity) plus every cell's
    /// heap state. This is what the "bytes per flow" bench gate
    /// measures.
    pub fn memory_bytes(&self) -> usize {
        let slot = std::mem::size_of::<u64>()
            + std::mem::size_of::<u8>()
            + std::mem::size_of::<Option<FlowCell<E>>>();
        std::mem::size_of::<Self>()
            + self.flows.capacity() * slot
            + self
                .flows
                .iter()
                .map(|(_, cell)| cell.memory_bytes())
                .sum::<usize>()
    }

    /// Tier occupancy and lifetime promotion counters.
    pub fn tier_stats(&self) -> TierStats {
        self.stats
    }

    /// Drop all flows. Promotion counters survive (they are lifetime
    /// telemetry); tier occupancy resets.
    pub fn clear(&mut self) {
        self.flows.clear();
        self.stats.reset_counts();
    }

    /// Serialize every cell: `(flow, state)` pairs in unspecified
    /// order, where small/array tiers carry a `{"tier", "hashes"}`
    /// wrapper and materialized cells carry the estimator's own state
    /// (`None` when the estimator does not support snapshots).
    #[cfg(feature = "snapshot")]
    pub fn snapshot_cells(&self) -> Vec<(u64, Option<smb_devtools::Json>)> {
        self.flows
            .iter()
            .map(|(flow, cell)| (flow, cell.snapshot_state()))
            .collect()
    }
}

impl<E: CardinalityEstimator, F> std::fmt::Debug for FlowTable<E, F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlowTable")
            .field("flows", &self.flows.len())
            .field("tiered", &self.scheme.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smb_core::Smb;
    use smb_hash::HashScheme;

    fn table() -> FlowTable<Smb> {
        FlowTable::new(|flow| {
            Smb::with_scheme(2048, 128, HashScheme::with_seed(flow)).expect("valid params")
        })
    }

    fn tiered_table() -> FlowTable<Smb> {
        let scheme = HashScheme::with_seed(5);
        FlowTable::tiered(scheme, move |_| {
            Smb::with_scheme(2048, 128, scheme).expect("valid params")
        })
    }

    #[test]
    fn tracks_flows_independently() {
        let mut t = table();
        for i in 0..1000u32 {
            t.record(1, &i.to_le_bytes());
        }
        for i in 0..100u32 {
            t.record(2, &i.to_le_bytes());
        }
        assert_eq!(t.len(), 2);
        let e1 = t.estimate(1).expect("flow 1 exists");
        let e2 = t.estimate(2).expect("flow 2 exists");
        assert!((e1 - 1000.0).abs() / 1000.0 < 0.25, "{e1}");
        assert!((e2 - 100.0).abs() / 100.0 < 0.35, "{e2}");
        assert_eq!(t.estimate(3), None);
    }

    #[test]
    fn flows_over_ranks_descending() {
        let mut t = table();
        for (flow, n) in [(10u64, 2000u32), (20, 500), (30, 1500)] {
            for i in 0..n {
                t.record(flow, &i.to_le_bytes());
            }
        }
        let over = t.flows_over(1000.0);
        assert_eq!(over.len(), 2);
        assert_eq!(over[0].0, 10);
        assert_eq!(over[1].0, 30);
    }

    #[test]
    fn flows_over_descending_order_is_pinned() {
        // Many flows, including estimate ties (same item count, same
        // per-flow scheme derivation disabled by a shared scheme):
        // the result must be strictly sorted by (estimate desc, flow
        // asc) — fully deterministic.
        let scheme = HashScheme::with_seed(9);
        let mut t: FlowTable<Smb> =
            FlowTable::new(move |_| Smb::with_scheme(4096, 256, scheme).unwrap());
        for flow in 0..40u64 {
            let n = 100 + (flow % 7) * 400;
            for i in 0..n {
                t.record(flow, &(i ^ (flow << 32)).to_le_bytes());
            }
        }
        let over = t.flows_over(150.0);
        assert!(!over.is_empty());
        for pair in over.windows(2) {
            assert!(
                pair[0].1 > pair[1].1 || (pair[0].1 == pair[1].1 && pair[0].0 < pair[1].0),
                "order violated: {pair:?}"
            );
        }
        // Everything reported clears the threshold; nothing below it
        // leaks in.
        assert!(over.iter().all(|&(_, est)| est >= 150.0));
        let expected = t.estimates().filter(|&(_, e)| e >= 150.0).count();
        assert_eq!(over.len(), expected);
    }

    #[test]
    fn reserve_then_record_never_loses_flows() {
        let mut t = table();
        t.reserve(500);
        for flow in 0..500u64 {
            t.record(flow, b"x");
        }
        assert_eq!(t.len(), 500);
        for flow in 0..500u64 {
            assert!(t.estimate(flow).is_some(), "flow {flow}");
        }
    }

    #[test]
    fn insert_places_restored_estimator() {
        let scheme = HashScheme::with_seed(5);
        let mut t: FlowTable<Smb> =
            FlowTable::new(move |_| Smb::with_scheme(2048, 128, scheme).unwrap());
        // A "restored" estimator arrives pre-populated from elsewhere.
        let mut restored = Smb::with_scheme(2048, 128, scheme).unwrap();
        for i in 0..500u32 {
            restored.record(&i.to_le_bytes());
        }
        let expect = restored.estimate();
        assert!(t.insert(42, restored).is_none());
        assert_eq!(t.estimate(42), Some(expect));
        // Recording continues on the inserted instance, not a fresh one.
        t.record(42, &9_999u32.to_le_bytes());
        assert!(t.estimate(42).unwrap() >= expect);
        // Replacement hands back the resident estimator.
        let fresh = Smb::with_scheme(2048, 128, scheme).unwrap();
        let old = t.insert(42, fresh).expect("flow 42 was resident");
        assert!(old.estimate() >= expect);
        assert_eq!(t.estimate(42), Some(0.0));
    }

    #[test]
    fn remove_evicts_single_flow() {
        let mut t = table();
        for i in 0..100u32 {
            t.record(1, &i.to_le_bytes());
            t.record(2, &i.to_le_bytes());
        }
        let evicted = t.remove(1).expect("flow 1 resident");
        assert!(evicted.estimate() > 0.0);
        assert_eq!(t.remove(1).map(|e| e.estimate()), None);
        assert_eq!(t.estimate(1), None);
        assert!(t.estimate(2).is_some(), "unrelated flow survives");
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn memory_accounting_sums_flows() {
        let mut t = table();
        t.record(1, b"a");
        t.record(2, b"b");
        assert_eq!(t.total_memory_bits(), 2 * 2048);
    }

    #[test]
    fn clear_empties() {
        let mut t = table();
        t.record(1, b"a");
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.estimate(1), None);
    }

    #[test]
    fn record_hash_equals_record() {
        // One shared scheme across flows, as the engine configures it.
        let scheme = HashScheme::with_seed(5);
        let mut by_item: FlowTable<Smb> =
            FlowTable::new(move |_| Smb::with_scheme(2048, 128, scheme).unwrap());
        let mut by_hash: FlowTable<Smb> =
            FlowTable::new(move |_| Smb::with_scheme(2048, 128, scheme).unwrap());
        let mut hashes = Vec::new();
        for i in 0..2000u32 {
            let flow = (i % 3) as u64;
            let item = i.to_le_bytes();
            by_item.record(flow, &item);
            hashes.push((flow, scheme.item_hash(&item)));
        }
        for (flow, h) in &hashes {
            by_hash.record_hash(*flow, *h);
        }
        for flow in 0..3u64 {
            assert_eq!(by_item.estimate(flow), by_hash.estimate(flow), "flow {flow}");
        }
        // Batched per-flow path agrees too.
        let mut batched: FlowTable<Smb> =
            FlowTable::new(move |_| Smb::with_scheme(2048, 128, scheme).unwrap());
        for flow in 0..3u64 {
            let of_flow: Vec<_> = hashes
                .iter()
                .filter(|(f, _)| *f == flow)
                .map(|&(_, h)| h)
                .collect();
            batched.record_hashes(flow, &of_flow);
            assert_eq!(batched.estimate(flow), by_item.estimate(flow), "flow {flow}");
        }
    }

    #[test]
    fn tiered_estimates_match_eager_estimates() {
        let scheme = HashScheme::with_seed(5);
        let mut eager: FlowTable<Smb> =
            FlowTable::new(move |_| Smb::with_scheme(2048, 128, scheme).unwrap());
        let mut tiered = tiered_table();
        for i in 0..3000u32 {
            // Flow 0 stays inline (one distinct item), flow 1 promotes
            // to array, flow 2 materializes; repeats exercise dedup.
            let flow = (i % 3) as u64;
            let n = match flow {
                0 => 0,
                1 => i % 10,
                _ => i,
            };
            let item = n.to_le_bytes();
            eager.record(flow, &item);
            tiered.record(flow, &item);
        }
        assert_eq!(tiered.tier_stats().small, 1);
        assert_eq!(tiered.tier_stats().array, 1);
        assert_eq!(tiered.tier_stats().full, 1);
        for flow in 0..3u64 {
            assert_eq!(
                eager.estimate(flow).map(f64::to_bits),
                tiered.estimate(flow).map(f64::to_bits),
                "flow {flow}"
            );
        }
    }

    #[test]
    fn tier_stats_track_promotions_and_occupancy() {
        let mut t = tiered_table();
        let scheme = HashScheme::with_seed(5);
        // One flow all the way to full.
        for i in 0..100u32 {
            t.record_hash(1, scheme.item_hash(&i.to_le_bytes()));
        }
        // One flow to array, one left small.
        for i in 0..5u32 {
            t.record_hash(2, scheme.item_hash(&i.to_le_bytes()));
        }
        t.record_hash(3, scheme.item_hash(b"x"));
        let s = t.tier_stats();
        assert_eq!((s.small, s.array, s.full), (1, 1, 1));
        assert_eq!(s.promotions_to_array, 2);
        assert_eq!(s.promotions_to_full, 1);
        assert_eq!(s.flows(), t.len());
        // Removal and clear keep occupancy honest, counters monotone.
        t.remove(2);
        assert_eq!(t.tier_stats().array, 0);
        t.clear();
        let s = t.tier_stats();
        assert_eq!((s.small, s.array, s.full), (0, 0, 0));
        assert_eq!(s.promotions_to_array, 2);
        assert_eq!(s.promotions_to_full, 1);
    }

    #[test]
    fn tiered_memory_stays_small_for_tiny_flows() {
        let mut tiered = tiered_table();
        let scheme = HashScheme::with_seed(5);
        for flow in 0..1000u64 {
            tiered.record_hash(flow, scheme.item_hash(&flow.to_le_bytes()));
        }
        let bytes_per_flow = tiered.memory_bytes() / tiered.len();
        assert!(
            bytes_per_flow <= 64,
            "tiny flows cost {bytes_per_flow} bytes each"
        );
        // The same population materialized eagerly costs at least the
        // estimator state (2048 bits = 256 bytes) per flow.
        let mut eager: FlowTable<Smb> =
            FlowTable::new(move |_| Smb::with_scheme(2048, 128, scheme).unwrap());
        for flow in 0..1000u64 {
            eager.record_hash(flow, scheme.item_hash(&flow.to_le_bytes()));
        }
        assert!(eager.memory_bytes() / eager.len() >= 256);
    }

    #[test]
    fn table_api_covers_tiered_and_eager_modes() {
        fn exercise(store: &mut FlowTable<Smb>, scheme: HashScheme) {
            store.reserve(16);
            let hashes: Vec<_> = (0..40u32)
                .map(|i| scheme.item_hash(&i.to_le_bytes()))
                .collect();
            store.record_hash(7, hashes[0]);
            store.record_hashes(8, &hashes);
            assert_eq!(store.len(), 2);
            assert!(store.estimate(7).is_some());
            assert!(store.estimate(9).is_none());
            assert_eq!(store.cells().count(), 2);
            assert!(store.memory_bytes() > 0);
            assert!(store.total_memory_bits() > 0);
            let over = store.flows_over(0.0);
            assert_eq!(over.len(), 2);
            assert_eq!(store.estimates().count(), 2);
            assert_eq!(store.tier_stats().flows(), 2);
            let cells = store.drain_cells();
            assert_eq!(cells.len(), 2);
            assert_eq!(store.len(), 0);
            for (flow, cell) in cells {
                assert!(store.insert_cell(flow, cell).is_none());
            }
            assert_eq!(store.len(), 2);
            store.clear();
            assert_eq!(store.len(), 0);
        }
        let scheme = HashScheme::with_seed(5);
        exercise(&mut tiered_table(), scheme);
        let mut eager: FlowTable<Smb> =
            FlowTable::new(move |_| Smb::with_scheme(2048, 128, scheme).unwrap());
        exercise(&mut eager, scheme);
    }

    #[test]
    fn non_send_factory_is_accepted() {
        // The factory captures an Rc, which is !Send — fine for a
        // thread-local table.
        let shared = std::rc::Rc::new(2048usize);
        let mut t = FlowTable::new(move |flow| {
            Smb::with_scheme(*shared, 128, HashScheme::with_seed(flow)).unwrap()
        });
        t.record(1, b"a");
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn concrete_factory_table_is_send() {
        fn assert_send<T: Send>(_: &T) {}
        let t = FlowTable::with_factory(|flow: u64| {
            Smb::with_scheme(2048, 128, HashScheme::with_seed(flow)).unwrap()
        });
        assert_send(&t);
        let scheme = HashScheme::with_seed(1);
        let t2 = FlowTable::with_factory_tiered(scheme, move |_: u64| {
            Smb::with_scheme(2048, 128, scheme).unwrap()
        });
        assert_send(&t2);
    }

    #[test]
    fn cells_and_drain_cells() {
        let mut t = table();
        t.record(7, b"a");
        t.record(8, b"b");
        let mut seen: Vec<u64> = t.cells().map(|(k, _)| k).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![7, 8]);
        let drained = t.drain_cells();
        assert_eq!(drained.len(), 2);
        assert!(t.is_empty());
        // The factory survives a drain: the table is still usable.
        t.record(9, b"c");
        assert_eq!(t.len(), 1);
    }
}
