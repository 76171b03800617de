//! Tier accounting for the per-flow store.
//!
//! [`FlowTable`](crate::FlowTable) is the one store of per-flow
//! estimator state; the engine shard workers, the grouped batch
//! recorder, checkpoint/restore and the CLI all program against it
//! directly. [`TierStats`] is its census of how many flows sit in each
//! [`FlowCell`](crate::FlowCell) tier, which the engine mirrors into
//! per-shard telemetry gauges.

use crate::flow_cell::Tier;

/// A point-in-time census of a store's tier occupancy plus lifetime
/// promotion counters. Counts are maintained incrementally by the
/// store (O(1) per operation), so reading them per batch is free —
/// the engine mirrors them into per-shard telemetry gauges.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierStats {
    /// Flows currently in the inline small tier.
    pub small: usize,
    /// Flows currently in the heap-array tier.
    pub array: usize,
    /// Flows with a materialized estimator.
    pub full: usize,
    /// Lifetime count of cells that outgrew the small tier.
    pub promotions_to_array: u64,
    /// Lifetime count of cells that materialized a real estimator.
    pub promotions_to_full: u64,
}

/// Sum two censuses, field by field — e.g. shard tables into an
/// engine-wide total.
impl std::ops::AddAssign for TierStats {
    fn add_assign(&mut self, other: TierStats) {
        self.small += other.small;
        self.array += other.array;
        self.full += other.full;
        self.promotions_to_array += other.promotions_to_array;
        self.promotions_to_full += other.promotions_to_full;
    }
}

impl TierStats {
    /// Total flows across all tiers.
    pub fn flows(&self) -> usize {
        self.small + self.array + self.full
    }

    pub(crate) fn inc(&mut self, tier: Tier) {
        match tier {
            Tier::Small => self.small += 1,
            Tier::Array => self.array += 1,
            Tier::Full => self.full += 1,
        }
    }

    pub(crate) fn dec(&mut self, tier: Tier) {
        match tier {
            Tier::Small => self.small -= 1,
            Tier::Array => self.array -= 1,
            Tier::Full => self.full -= 1,
        }
    }

    /// Account one cell moving `before → after`. `promotions_to_array`
    /// counts cells leaving the small tier, `promotions_to_full` cells
    /// materializing — a direct Small→Full jump (forced
    /// materialization) bumps both, keeping each counter monotone in
    /// its own meaning.
    pub(crate) fn transition(&mut self, before: Tier, after: Tier) {
        if before == after {
            return;
        }
        self.dec(before);
        self.inc(after);
        if before == Tier::Small && after >= Tier::Array {
            self.promotions_to_array += 1;
        }
        if before <= Tier::Array && after == Tier::Full {
            self.promotions_to_full += 1;
        }
    }

    /// Zero the occupancy counts (clear/drain); promotion counters are
    /// lifetime telemetry and survive.
    pub(crate) fn reset_counts(&mut self) {
        self.small = 0;
        self.array = 0;
        self.full = 0;
    }
}
