//! Engine observability: registry-backed per-shard metrics and their
//! aggregation.
//!
//! Each shard's accounting lives in `smb-telemetry` metric cells
//! registered under the engine's [`Registry`] with a `shard` label —
//! one source of truth feeding both the programmatic
//! [`EngineStats`] view and the JSON / Prometheus exporters. The
//! cells are lock-free atomics; the flush protocol in `engine.rs` is
//! the only place ordering matters, and it uses the counters'
//! acquire/release variants.

use std::sync::Arc;

use smb_sketch::TierStats;
use smb_telemetry::{Counter, Gauge, Histogram, Registry};

/// One shard's metric cells, resolved from the engine registry at
/// construction. Written by the producer side (enqueue/drop
/// accounting) and the shard worker (processing accounting); exported
/// via the registry under `shard="<index>"`.
#[derive(Debug)]
pub(crate) struct ShardMetrics {
    /// Items successfully handed to the shard's queue (inside batches).
    pub items_enqueued: Arc<Counter>,
    /// Items the worker has recorded into its flow table.
    pub items_recorded: Arc<Counter>,
    /// Batches successfully enqueued.
    pub batches_sent: Arc<Counter>,
    /// Batches the worker has fully processed.
    pub batches_processed: Arc<Counter>,
    /// Items discarded by the drop backpressure policy.
    pub dropped_items: Arc<Counter>,
    /// Times the shard queue was observed full on dispatch.
    pub queue_full_events: Arc<Counter>,
    /// Batches enqueued but not yet fully processed — the shard's
    /// backlog.
    pub queue_depth: Arc<Gauge>,
    /// Flows resident in the shard's table (updated by the worker
    /// after each batch).
    pub flows: Arc<Gauge>,
    /// Length of each dispatched batch — how full batches run.
    pub batch_occupancy: Arc<Histogram>,
    /// Nanoseconds each dispatch spent handing its batch to the queue
    /// (includes blocking time under the block policy).
    pub enqueue_latency: Arc<Histogram>,
    /// Nanoseconds the worker spent recording each batch into its flow
    /// table (the ingest kernel: lock, group, record).
    pub record_latency: Arc<Histogram>,
    /// Flows currently in the inline small tier
    /// (`engine_tier_flows{tier="small"}`).
    pub tier_small: Arc<Gauge>,
    /// Flows currently in the heap-array tier
    /// (`engine_tier_flows{tier="array"}`).
    pub tier_array: Arc<Gauge>,
    /// Flows with a materialized estimator
    /// (`engine_tier_flows{tier="full"}`).
    pub tier_full: Arc<Gauge>,
    /// Lifetime cells promoted out of the small tier
    /// (`engine_tier_promotions_total{tier="array"}`).
    pub promotions_to_array: Arc<Counter>,
    /// Lifetime cells that materialized an estimator
    /// (`engine_tier_promotions_total{tier="full"}`).
    pub promotions_to_full: Arc<Counter>,
    /// Sampled pipeline-stage spans
    /// (`engine_stage_duration_ns{shard,stage}`), fed only by batches
    /// the `trace_sample` knob selected. Stages, in pipeline order:
    /// staging the batch producer-side (`producer_hash`), handing it
    /// to the queue (`enqueue`), waiting in the queue until the worker
    /// dequeues it (`queue_wait`, measured from the enqueue offer so
    /// it includes any time the producer spent blocked on a full
    /// queue), and recording it into the flow table (`record_batch`).
    pub stage_producer_hash: Arc<Histogram>,
    /// `engine_stage_duration_ns{stage="enqueue"}` — see
    /// [`ShardMetrics::stage_producer_hash`].
    pub stage_enqueue: Arc<Histogram>,
    /// `engine_stage_duration_ns{stage="queue_wait"}` — see
    /// [`ShardMetrics::stage_producer_hash`].
    pub stage_queue_wait: Arc<Histogram>,
    /// `engine_stage_duration_ns{stage="record_batch"}` — see
    /// [`ShardMetrics::stage_producer_hash`].
    pub stage_record_batch: Arc<Histogram>,
}

/// One HELP string for every `engine_stage_duration_ns` series.
pub(crate) const STAGE_HELP: &str =
    "Nanoseconds per pipeline stage, from batches sampled by trace_sample";

impl ShardMetrics {
    /// Register this shard's series (label `shard="<index>"`) in
    /// `registry`.
    pub(crate) fn register(registry: &Registry, shard: usize) -> Self {
        let index = shard.to_string();
        let labels: &[(&str, &str)] = &[("shard", &index)];
        ShardMetrics {
            items_enqueued: registry.counter_with(
                "engine_items_enqueued_total",
                "Items successfully handed to shard queues",
                labels,
            ),
            items_recorded: registry.counter_with(
                "engine_items_recorded_total",
                "Items recorded into shard flow tables",
                labels,
            ),
            batches_sent: registry.counter_with(
                "engine_batches_sent_total",
                "Batches successfully enqueued",
                labels,
            ),
            batches_processed: registry.counter_with(
                "engine_batches_processed_total",
                "Batches fully processed by shard workers",
                labels,
            ),
            dropped_items: registry.counter_with(
                "engine_items_dropped_total",
                "Items discarded by the drop backpressure policy",
                labels,
            ),
            queue_full_events: registry.counter_with(
                "engine_queue_full_total",
                "Dispatch attempts that found the shard queue full",
                labels,
            ),
            queue_depth: registry.gauge_with(
                "engine_queue_depth",
                "Batches enqueued but not yet fully processed",
                labels,
            ),
            flows: registry.gauge_with(
                "engine_flows",
                "Flows resident in the shard's table",
                labels,
            ),
            batch_occupancy: registry.histogram_with(
                "engine_batch_occupancy",
                "Items per dispatched batch",
                labels,
            ),
            enqueue_latency: registry.histogram_with(
                "engine_enqueue_latency_ns",
                "Nanoseconds spent handing each batch to its shard queue",
                labels,
            ),
            record_latency: registry.histogram_with(
                "engine_record_batch_ns",
                "Nanoseconds the worker spent recording each batch",
                labels,
            ),
            tier_small: registry.gauge_with(
                "engine_tier_flows",
                "Flows resident per storage tier",
                &[("shard", &index), ("tier", "small")],
            ),
            tier_array: registry.gauge_with(
                "engine_tier_flows",
                "Flows resident per storage tier",
                &[("shard", &index), ("tier", "array")],
            ),
            tier_full: registry.gauge_with(
                "engine_tier_flows",
                "Flows resident per storage tier",
                &[("shard", &index), ("tier", "full")],
            ),
            promotions_to_array: registry.counter_with(
                "engine_tier_promotions_total",
                "Lifetime tier promotions, by destination tier",
                &[("shard", &index), ("tier", "array")],
            ),
            promotions_to_full: registry.counter_with(
                "engine_tier_promotions_total",
                "Lifetime tier promotions, by destination tier",
                &[("shard", &index), ("tier", "full")],
            ),
            stage_producer_hash: registry.histogram_with(
                "engine_stage_duration_ns",
                STAGE_HELP,
                &[("shard", &index), ("stage", "producer_hash")],
            ),
            stage_enqueue: registry.histogram_with(
                "engine_stage_duration_ns",
                STAGE_HELP,
                &[("shard", &index), ("stage", "enqueue")],
            ),
            stage_queue_wait: registry.histogram_with(
                "engine_stage_duration_ns",
                STAGE_HELP,
                &[("shard", &index), ("stage", "queue_wait")],
            ),
            stage_record_batch: registry.histogram_with(
                "engine_stage_duration_ns",
                STAGE_HELP,
                &[("shard", &index), ("stage", "record_batch")],
            ),
        }
    }

    /// Mirror a table's tier occupancy into the gauges.
    pub(crate) fn set_tier_gauges(&self, tiers: TierStats) {
        self.tier_small.set(tiers.small as i64);
        self.tier_array.set(tiers.array as i64);
        self.tier_full.set(tiers.full as i64);
    }

    /// Worker-side per-batch sync: set the occupancy gauges and
    /// advance the promotion counters by the delta since the last
    /// sync. `last` is the worker's private baseline — promotion
    /// counters must be advanced from exactly one place per shard or
    /// deltas would double count.
    pub(crate) fn sync_tiers(&self, last: &mut TierStats, now: TierStats) {
        self.set_tier_gauges(now);
        self.promotions_to_array
            .add(now.promotions_to_array - last.promotions_to_array);
        self.promotions_to_full
            .add(now.promotions_to_full - last.promotions_to_full);
        *last = now;
    }

    /// A point-in-time [`ShardStats`] view. `flows` is passed in from
    /// an exact table count (the gauge lags by up to one batch).
    pub(crate) fn snapshot(&self, shard: usize, flows: u64) -> ShardStats {
        ShardStats {
            shard,
            items_enqueued: self.items_enqueued.get(),
            items_recorded: self.items_recorded.get(),
            batches_sent: self.batches_sent.get(),
            batches_processed: self.batches_processed.get(),
            dropped_items: self.dropped_items.get(),
            queue_full_events: self.queue_full_events.get(),
            flows,
            mean_batch_occupancy: self.batch_occupancy.mean(),
        }
    }
}

/// One producer handle's metric cells, registered under
/// `producer="<id>"`. Each [`crate::EngineProducer`] (and each clone)
/// gets its own set, so per-thread ingest attribution survives into
/// the export: summing `engine_producer_items_total` across producers
/// gives exactly the items they delivered to shard queues.
#[derive(Debug)]
pub(crate) struct ProducerMetrics {
    /// Items this producer delivered into shard queues.
    pub items: Arc<Counter>,
    /// Batches this producer delivered.
    pub batches: Arc<Counter>,
    /// Times this producer found a shard queue full.
    pub queue_full: Arc<Counter>,
    /// Items this producer discarded (drop policy, or the engine was
    /// already shut down).
    pub dropped: Arc<Counter>,
}

impl ProducerMetrics {
    /// Register this producer's series (label `producer="<id>"`) in
    /// `registry`.
    pub(crate) fn register(registry: &Registry, producer: u32) -> Self {
        let id = producer.to_string();
        let labels: &[(&str, &str)] = &[("producer", &id)];
        ProducerMetrics {
            items: registry.counter_with(
                "engine_producer_items_total",
                "Items delivered to shard queues, per producer handle",
                labels,
            ),
            batches: registry.counter_with(
                "engine_producer_batches_total",
                "Batches delivered to shard queues, per producer handle",
                labels,
            ),
            queue_full: registry.counter_with(
                "engine_producer_queue_full_total",
                "Full-queue encounters, per producer handle",
                labels,
            ),
            dropped: registry.counter_with(
                "engine_producer_items_dropped_total",
                "Items discarded (drop policy or engine shut down), per producer handle",
                labels,
            ),
        }
    }

    /// A point-in-time [`ProducerStats`] view.
    pub(crate) fn snapshot(&self, producer: u32) -> ProducerStats {
        ProducerStats {
            producer,
            items: self.items.get(),
            batches: self.batches.get(),
            queue_full_events: self.queue_full.get(),
            dropped_items: self.dropped.get(),
        }
    }
}

/// A point-in-time snapshot of one producer handle's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProducerStats {
    /// Producer id, allocated sequentially per engine: 0 is the
    /// engine's own ingest front-end (`engine.ingest`), and handles
    /// count from 1 as they are created (`producer_handle`) or cloned.
    pub producer: u32,
    /// Items this producer delivered into shard queues.
    pub items: u64,
    /// Batches this producer delivered.
    pub batches: u64,
    /// Times this producer found a shard queue full.
    pub queue_full_events: u64,
    /// Items this producer discarded.
    pub dropped_items: u64,
}

/// A point-in-time snapshot of one shard's counters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// Items handed to this shard's queue.
    pub items_enqueued: u64,
    /// Items recorded into the shard's flow table.
    pub items_recorded: u64,
    /// Batches enqueued.
    pub batches_sent: u64,
    /// Batches fully processed by the worker.
    pub batches_processed: u64,
    /// Items discarded under the drop policy.
    pub dropped_items: u64,
    /// Dispatch attempts that found the queue full.
    pub queue_full_events: u64,
    /// Flows resident in the shard's table.
    pub flows: u64,
    /// Mean number of items per dispatched batch — how full batches
    /// run. Low occupancy with a large configured batch size means the
    /// producer flushes partials (bursty input); `NaN` before any
    /// batch is dispatched.
    pub mean_batch_occupancy: f64,
}

/// Aggregated engine statistics: one entry per shard plus totals.
#[derive(Debug, Clone)]
pub struct EngineStats {
    /// Per-shard snapshots, indexed by shard.
    pub shards: Vec<ShardStats>,
}

impl EngineStats {
    /// Total items handed to shard queues.
    pub fn total_enqueued(&self) -> u64 {
        self.shards.iter().map(|s| s.items_enqueued).sum()
    }

    /// Total items recorded into flow tables.
    pub fn total_recorded(&self) -> u64 {
        self.shards.iter().map(|s| s.items_recorded).sum()
    }

    /// Total items discarded by the drop policy.
    pub fn total_dropped(&self) -> u64 {
        self.shards.iter().map(|s| s.dropped_items).sum()
    }

    /// Total queue-full events observed on dispatch.
    pub fn total_queue_full_events(&self) -> u64 {
        self.shards.iter().map(|s| s.queue_full_events).sum()
    }

    /// Total flows across all shards (shards partition flows, so this
    /// is an exact count, not an estimate).
    pub fn total_flows(&self) -> u64 {
        self.shards.iter().map(|s| s.flows).sum()
    }

    /// Largest relative imbalance across shards: `max/mean − 1` of
    /// per-shard enqueued items. 0 means perfectly even. Degenerate
    /// stat sets — no shards, a single shard, or nothing enqueued —
    /// have no imbalance to speak of and return 0 rather than NaN.
    pub fn shard_imbalance(&self) -> f64 {
        if self.shards.len() <= 1 {
            return 0.0;
        }
        let n = self.shards.len() as f64;
        let total = self.total_enqueued() as f64;
        if total == 0.0 {
            return 0.0;
        }
        let mean = total / n;
        let max = self
            .shards
            .iter()
            .map(|s| s.items_enqueued as f64)
            .fold(0.0, f64::max);
        max / mean - 1.0
    }
}

impl std::fmt::Display for EngineStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{:>5}  {:>12}  {:>12}  {:>10}  {:>8}  {:>10}  {:>8}  {:>9}",
            "shard", "enqueued", "recorded", "dropped", "qfull", "batches", "flows", "occupancy"
        )?;
        for s in &self.shards {
            writeln!(
                f,
                "{:>5}  {:>12}  {:>12}  {:>10}  {:>8}  {:>10}  {:>8}  {:>9.1}",
                s.shard,
                s.items_enqueued,
                s.items_recorded,
                s.dropped_items,
                s.queue_full_events,
                s.batches_sent,
                s.flows,
                s.mean_batch_occupancy,
            )?;
        }
        write!(
            f,
            "total  enqueued {}  recorded {}  dropped {}  flows {}  imbalance {:.2}",
            self.total_enqueued(),
            self.total_recorded(),
            self.total_dropped(),
            self.total_flows(),
            self.shard_imbalance(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(enqueued: &[u64]) -> EngineStats {
        EngineStats {
            shards: enqueued
                .iter()
                .enumerate()
                .map(|(i, &e)| ShardStats {
                    shard: i,
                    items_enqueued: e,
                    items_recorded: e,
                    batches_sent: 1,
                    batches_processed: 1,
                    dropped_items: 0,
                    queue_full_events: 0,
                    flows: 1,
                    mean_batch_occupancy: e as f64,
                })
                .collect(),
        }
    }

    #[test]
    fn totals_sum_across_shards() {
        let s = stats(&[10, 20, 30]);
        assert_eq!(s.total_enqueued(), 60);
        assert_eq!(s.total_recorded(), 60);
        assert_eq!(s.total_flows(), 3);
    }

    #[test]
    fn imbalance_zero_when_even() {
        assert!(stats(&[10, 10]).shard_imbalance().abs() < 1e-12);
        assert!((stats(&[30, 10]).shard_imbalance() - 0.5).abs() < 1e-12);
        assert_eq!(stats(&[0, 0]).shard_imbalance(), 0.0);
    }

    #[test]
    fn imbalance_of_degenerate_stat_sets_is_zero() {
        // No shards: nothing to be imbalanced against.
        let empty = EngineStats { shards: vec![] };
        assert_eq!(empty.shard_imbalance(), 0.0);
        assert!(empty.shard_imbalance().is_finite());
        // One shard: max == mean by definition, loaded or not.
        assert_eq!(stats(&[0]).shard_imbalance(), 0.0);
        assert_eq!(stats(&[12345]).shard_imbalance(), 0.0);
    }

    #[test]
    fn shard_metrics_snapshot_round_trips_through_registry() {
        let registry = Registry::new("smb_engine");
        let m = ShardMetrics::register(&registry, 3);
        m.items_enqueued.add(100);
        m.items_recorded.add(90);
        m.batches_sent.add(2);
        m.batches_processed.add(2);
        m.batch_occupancy.record(60);
        m.batch_occupancy.record(40);
        let s = m.snapshot(3, 7);
        assert_eq!(s.shard, 3);
        assert_eq!(s.items_enqueued, 100);
        assert_eq!(s.items_recorded, 90);
        assert_eq!(s.batches_sent, 2);
        assert_eq!(s.flows, 7);
        assert!((s.mean_batch_occupancy - 50.0).abs() < 1e-12);
        // The same numbers are visible through the registry export path.
        let snap = registry.snapshot();
        assert_eq!(
            snap.get("engine_items_enqueued_total", &[("shard", "3")])
                .unwrap()
                .as_counter(),
            Some(100)
        );
        // Re-registering the same shard shares cells, not duplicates.
        let again = ShardMetrics::register(&registry, 3);
        assert_eq!(again.items_enqueued.get(), 100);
    }

    #[test]
    fn fresh_shard_occupancy_is_nan() {
        let registry = Registry::new("smb_engine");
        let m = ShardMetrics::register(&registry, 0);
        assert!(m.snapshot(0, 0).mean_batch_occupancy.is_nan());
    }

    #[test]
    fn display_renders_every_shard() {
        let text = stats(&[5, 7]).to_string();
        assert!(text.contains("enqueued"));
        assert!(text.lines().count() >= 4, "{text}");
    }
}
