//! The cheap observer path: thread-local delta folding for estimator
//! events.
//!
//! Folding each event straight into the registry costs one atomic RMW
//! per metric cell per event — seven contended atomics every time any
//! estimator morphs, clears or saturates. That is fine for a single
//! estimator but shows up on the ingest hot path once every shard
//! worker funnels events into the same engine-wide cells.
//!
//! [`BatchedMetricsObserver`] folds events into **plain thread-local
//! buffers** instead: event delivery touches no shared memory at all,
//! and the accumulated deltas are applied to the registry cells with
//! `Relaxed` ordering when the owning thread calls
//! [`BatchedMetricsObserver::flush_local`] — in the engine, once per
//! processed batch (and at `flush`/`finish` barriers), not once per
//! event.
//!
//! ## Memory-ordering argument (DESIGN.md §14)
//!
//! All folded cells are monotone counters, `set_max` gauges, last-write
//! gauges or histograms — none participate in any synchronization
//! protocol, so `Relaxed` application is sufficient for their values.
//! *Visibility* is provided by whatever barrier the caller already
//! owns: the engine worker flushes deltas **before** it reports the
//! batch finished to its shard queue (`Receiver::finish_one`, under
//! the queue's lock), and the engine's `flush()` barrier waits on that
//! same lock — so by the time a flush returns, every delta folded for
//! a processed batch is visible to the flushing thread, with zero
//! added fences on the event path.
//!
//! ## Loss semantics
//!
//! Deltas folded by a thread that exits without a final
//! [`BatchedMetricsObserver::flush_local`] are dropped. With the
//! engine's flush points this bounds loss to the events of the batch
//! being processed when a worker dies — a worker panic already loses
//! that batch's items, so the metrics stay consistent with the data.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use smb_core::{EstimatorEvent, ObserverHandle, SmbObserver};

use crate::metrics::{Counter, Gauge, Histogram};
use crate::registry::Registry;

/// Allocator for observer identities — the key into the thread-local
/// buffer table, unique per [`BatchedMetricsObserver`] for the process
/// lifetime.
static NEXT_OBSERVER_ID: AtomicU64 = AtomicU64::new(0);

/// Cap on buffered histogram samples per observer per thread. A
/// thread that folds this many morph samples without flushing spills
/// them straight to the histogram cell so the buffer stays bounded
/// even without a cooperating flush cadence.
const SAMPLE_SPILL: usize = 256;

/// One thread's pending deltas for one observer.
#[derive(Debug, Default)]
struct Deltas {
    morphs: u64,
    /// Highest `round + 1` seen since the last flush (0 = none).
    round_max: i64,
    /// Last-write values for the point-in-time gauges.
    logical_last: Option<i64>,
    estimate_last: Option<i64>,
    /// Buffered `items_since_last_morph` histogram samples.
    items_samples: Vec<u64>,
    cleared: u64,
    saturated: u64,
}

impl Deltas {
    fn is_empty(&self) -> bool {
        self.morphs == 0
            && self.cleared == 0
            && self.saturated == 0
            && self.round_max == 0
            && self.logical_last.is_none()
            && self.estimate_last.is_none()
            && self.items_samples.is_empty()
    }

    /// Reset to empty, keeping the sample buffer's capacity.
    fn clear(&mut self) {
        self.morphs = 0;
        self.round_max = 0;
        self.logical_last = None;
        self.estimate_last = None;
        self.items_samples.clear();
        self.cleared = 0;
        self.saturated = 0;
    }
}

thread_local! {
    /// This thread's delta buffers, keyed by observer id. A linear
    /// scan: a thread observes a handful of observers (usually one),
    /// so a Vec beats any map.
    static LOCAL: RefCell<Vec<(u64, Deltas)>> = const { RefCell::new(Vec::new()) };
}

/// An [`SmbObserver`] that folds estimator lifecycle events into
/// thread-local delta buffers and applies them to [`Registry`] cells
/// only on explicit [`flush_local`](BatchedMetricsObserver::flush_local)
/// calls.
///
/// Registers seven metric families (`smb_morph_events_total`,
/// `smb_round`, `smb_logical_size_bits`, `smb_items_between_morphs`,
/// `smb_estimate_at_close`, `smb_cleared_total`, `smb_saturated_total`);
/// after every thread that folded events has flushed, counter totals
/// and histogram contents are identical to folding each event straight
/// into the cells. The last-write gauges (`smb_logical_size_bits`,
/// `smb_estimate_at_close`) carry *a* latest-flushed value when several
/// threads race — exactly as racy as per-event folding, where
/// concurrent `set` calls interleave arbitrarily.
///
/// ```
/// use smb_core::CardinalityEstimator;
/// use smb_telemetry::{BatchedMetricsObserver, Registry};
///
/// let registry = Registry::new("smb_engine");
/// let observer = BatchedMetricsObserver::register(&registry, &[]);
/// let mut smb = smb_core::Smb::new(2048, 256).unwrap();
/// smb.set_observer(Some(observer.clone().into_handle()));
/// for i in 0..100_000u64 {
///     smb.record(&i.to_le_bytes());
/// }
/// observer.flush_local(); // batch boundary
/// let snap = registry.snapshot();
/// assert!(snap.counter_total("smb_morph_events_total") > 0);
/// ```
#[derive(Debug)]
pub struct BatchedMetricsObserver {
    id: u64,
    morphs: Arc<Counter>,
    round: Arc<Gauge>,
    logical_size: Arc<Gauge>,
    items_between_morphs: Arc<Histogram>,
    estimate_at_close: Arc<Gauge>,
    cleared: Arc<Counter>,
    saturated: Arc<Counter>,
}

impl BatchedMetricsObserver {
    /// Register the morph-event metric families in `registry` (all
    /// carrying `labels`) and build a batched observer feeding them.
    /// Series resolution happens here, once; event delivery touches
    /// only thread-local state.
    pub fn register(registry: &Registry, labels: &[(&str, &str)]) -> Arc<Self> {
        Arc::new(BatchedMetricsObserver {
            id: NEXT_OBSERVER_ID.fetch_add(1, Ordering::Relaxed),
            morphs: registry.counter_with(
                "smb_morph_events_total",
                "SMB rounds closed (morphs performed)",
                labels,
            ),
            round: registry.gauge_with(
                "smb_round",
                "Highest SMB round reached (sampling probability is 2^-round)",
                labels,
            ),
            logical_size: registry.gauge_with(
                "smb_logical_size_bits",
                "Logical bitmap size m - r*T at the latest morph",
                labels,
            ),
            items_between_morphs: registry.histogram_with(
                "smb_items_between_morphs",
                "Items recorded between consecutive morphs",
                labels,
            ),
            estimate_at_close: registry.gauge_with(
                "smb_estimate_at_close",
                "Cardinality estimate at the latest round closure (rounded)",
                labels,
            ),
            cleared: registry.counter_with(
                "smb_cleared_total",
                "Estimator clear() calls observed",
                labels,
            ),
            saturated: registry.counter_with(
                "smb_saturated_total",
                "Estimators that reached saturation",
                labels,
            ),
        })
    }

    /// Wrap into the handle `CardinalityEstimator::set_observer`
    /// accepts. The observer stays shared: clone the `Arc` first if
    /// you also need to call `flush_local` (the engine does).
    pub fn into_handle(self: Arc<Self>) -> ObserverHandle {
        ObserverHandle::new(self)
    }

    /// Apply the **calling thread's** pending deltas to the registry
    /// cells with `Relaxed` ordering, and clear them. Cheap when there
    /// is nothing pending (one thread-local read). Each thread that
    /// folds events must flush from that same thread — deltas are
    /// thread-local by design.
    pub fn flush_local(&self) {
        LOCAL.with_borrow_mut(|bufs| {
            let Some((_, deltas)) = bufs.iter_mut().find(|(id, _)| *id == self.id) else {
                return;
            };
            if deltas.is_empty() {
                return;
            }
            self.apply(deltas);
        });
    }

    /// Fold `deltas` into the cells and clear it. All applications are
    /// `Relaxed`: see the module docs for why that is enough.
    fn apply(&self, deltas: &mut Deltas) {
        if deltas.morphs > 0 {
            self.morphs.add(deltas.morphs);
        }
        if deltas.round_max > 0 {
            self.round.set_max(deltas.round_max);
        }
        if let Some(logical) = deltas.logical_last {
            self.logical_size.set(logical);
        }
        if let Some(estimate) = deltas.estimate_last {
            self.estimate_at_close.set(estimate);
        }
        for &sample in &deltas.items_samples {
            self.items_between_morphs.record(sample);
        }
        if deltas.cleared > 0 {
            self.cleared.add(deltas.cleared);
        }
        if deltas.saturated > 0 {
            self.saturated.add(deltas.saturated);
        }
        deltas.clear();
    }
}

impl SmbObserver for BatchedMetricsObserver {
    fn on_event(&self, event: EstimatorEvent<'_>) {
        LOCAL.with_borrow_mut(|bufs| {
            let deltas = match bufs.iter_mut().position(|(id, _)| *id == self.id) {
                Some(i) => &mut bufs[i].1,
                None => {
                    bufs.push((self.id, Deltas::default()));
                    &mut bufs.last_mut().expect("just pushed").1
                }
            };
            match event {
                EstimatorEvent::Morph(m) => {
                    deltas.morphs += 1;
                    deltas.round_max = deltas.round_max.max(m.round as i64 + 1);
                    deltas.logical_last = Some(m.logical_size as i64);
                    deltas.estimate_last = Some(m.estimate_at_close.round() as i64);
                    deltas.items_samples.push(m.items_since_last_morph);
                    if deltas.items_samples.len() >= SAMPLE_SPILL {
                        // Bounded buffering without a cooperating
                        // flush cadence: spill samples to the
                        // histogram cell directly.
                        for &sample in &deltas.items_samples {
                            self.items_between_morphs.record(sample);
                        }
                        deltas.items_samples.clear();
                    }
                }
                EstimatorEvent::Cleared { .. } => deltas.cleared += 1,
                EstimatorEvent::Saturated { .. } => deltas.saturated += 1,
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smb_core::{CardinalityEstimator, MorphCollector, MorphEvent, Smb};

    fn morph(round: u32, items: u64) -> MorphEvent {
        MorphEvent {
            round,
            fresh_bits_at_close: 256,
            logical_size: 2048 - 256 * round as usize,
            items_since_last_morph: items,
            estimate_at_close: 1000.0 * (round as f64 + 1.0),
        }
    }

    #[test]
    fn nothing_visible_before_flush_everything_after() {
        let registry = Registry::new("t");
        let observer = BatchedMetricsObserver::register(&registry, &[]);
        for round in 0..5u32 {
            observer.on_event(EstimatorEvent::Morph(&morph(round, 100 << round)));
        }
        observer.on_event(EstimatorEvent::Cleared { name: "SMB" });
        let before = registry.snapshot();
        assert_eq!(before.counter_total("smb_morph_events_total"), 0);
        assert_eq!(before.counter_total("smb_cleared_total"), 0);

        observer.flush_local();
        let after = registry.snapshot();
        assert_eq!(after.counter_total("smb_morph_events_total"), 5);
        assert_eq!(after.counter_total("smb_cleared_total"), 1);
        assert_eq!(
            after.get("smb_round", &[]).unwrap().as_gauge(),
            Some(5),
            "round gauge folds the max"
        );
        let h = after
            .get("smb_items_between_morphs", &[])
            .unwrap()
            .as_histogram()
            .unwrap();
        assert_eq!(h.count, 5);
        // Flushing again with nothing pending changes nothing.
        observer.flush_local();
        assert_eq!(
            registry.snapshot().counter_total("smb_morph_events_total"),
            5
        );
    }

    #[test]
    fn batched_matches_a_reference_fold_after_flush() {
        // The same live estimator stream goes to the batched observer
        // and to a recorder; once the batched side flushes, the
        // registry must hold exactly what folding the recorded events
        // one at a time gives.
        let registry = Registry::new("t");
        let batched = BatchedMetricsObserver::register(&registry, &[]);
        let recorded = MorphCollector::shared();

        let mut a = Smb::new(2048, 256).unwrap();
        a.set_observer(Some(ObserverHandle::new(recorded.clone())));
        let mut b = Smb::new(2048, 256).unwrap();
        b.set_observer(Some(batched.clone().into_handle()));
        for i in 0..120_000u64 {
            a.record(&i.to_le_bytes());
            b.record(&i.to_le_bytes());
        }
        a.clear();
        b.clear();
        batched.flush_local();

        // The reference fold: counters count, the round gauge keeps the
        // highest round reached, last-write gauges keep the last event,
        // and every morph's item count is one histogram sample.
        let events = recorded.events();
        assert!(
            events.len() > 2,
            "the stream must morph for the test to bite"
        );
        let items = Histogram::new();
        for e in &events {
            items.record(e.items_since_last_morph);
        }
        let last = events.last().expect("morphed");
        let snap = registry.snapshot();
        for (counter, want) in [
            ("smb_morph_events_total", events.len() as u64),
            ("smb_cleared_total", recorded.cleared_count()),
            ("smb_saturated_total", recorded.saturated_count()),
        ] {
            assert_eq!(snap.counter_total(counter), want, "{counter}");
        }
        assert_eq!(recorded.cleared_count(), 1);
        let round_max = events.iter().map(|e| e.round as i64 + 1).max();
        for (gauge, want) in [
            ("smb_round", round_max),
            ("smb_logical_size_bits", Some(last.logical_size as i64)),
            (
                "smb_estimate_at_close",
                Some(last.estimate_at_close.round() as i64),
            ),
        ] {
            assert_eq!(snap.get(gauge, &[]).unwrap().as_gauge(), want, "{gauge}");
        }
        let got = snap
            .get("smb_items_between_morphs", &[])
            .unwrap()
            .as_histogram()
            .unwrap();
        let want = items.snapshot();
        assert_eq!(got.count, want.count);
        assert_eq!(got.sum, want.sum);
        assert_eq!(got.buckets, want.buckets);
    }

    #[test]
    fn observers_do_not_cross_talk_in_one_thread() {
        let registry = Registry::new("t");
        let a = BatchedMetricsObserver::register(&registry, &[("shard", "0")]);
        let b = BatchedMetricsObserver::register(&registry, &[("shard", "1")]);
        a.on_event(EstimatorEvent::Morph(&morph(0, 10)));
        a.on_event(EstimatorEvent::Morph(&morph(1, 20)));
        b.on_event(EstimatorEvent::Morph(&morph(0, 30)));
        a.flush_local();
        b.flush_local();
        let snap = registry.snapshot();
        let count = |shard: &str| {
            snap.get("smb_morph_events_total", &[("shard", shard)])
                .unwrap()
                .as_counter()
                .unwrap()
        };
        assert_eq!(count("0"), 2);
        assert_eq!(count("1"), 1);
    }

    #[test]
    fn sample_buffer_spills_without_flush_and_loses_nothing() {
        let registry = Registry::new("t");
        let observer = BatchedMetricsObserver::register(&registry, &[]);
        let events = 3 * SAMPLE_SPILL + 17;
        for i in 0..events {
            observer.on_event(EstimatorEvent::Morph(&morph(0, i as u64 + 1)));
        }
        observer.flush_local();
        let snap = registry.snapshot();
        assert_eq!(snap.counter_total("smb_morph_events_total"), events as u64);
        let h = snap
            .get("smb_items_between_morphs", &[])
            .unwrap()
            .as_histogram()
            .unwrap();
        assert_eq!(h.count, events as u64, "spilled and flushed samples all land");
    }

    #[test]
    fn per_thread_deltas_sum_across_threads() {
        let registry = Registry::new("t");
        let observer = BatchedMetricsObserver::register(&registry, &[]);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let observer = Arc::clone(&observer);
                s.spawn(move || {
                    for i in 0..25 {
                        observer.on_event(EstimatorEvent::Morph(&morph(
                            (t as u32) % 3,
                            t * 100 + i,
                        )));
                    }
                    // Each thread flushes its own deltas.
                    observer.flush_local();
                });
            }
        });
        let snap = registry.snapshot();
        assert_eq!(snap.counter_total("smb_morph_events_total"), 100);
        let h = snap
            .get("smb_items_between_morphs", &[])
            .unwrap()
            .as_histogram()
            .unwrap();
        assert_eq!(h.count, 100);
    }

    #[test]
    fn unflushed_thread_deltas_are_dropped_not_corrupted() {
        let registry = Registry::new("t");
        let observer = BatchedMetricsObserver::register(&registry, &[]);
        std::thread::scope(|s| {
            let observer = Arc::clone(&observer);
            s.spawn(move || {
                observer.on_event(EstimatorEvent::Morph(&morph(0, 42)));
                // No flush: this thread's deltas die with it.
            });
        });
        observer.flush_local(); // flushes *this* thread's (empty) buffer
        assert_eq!(
            registry.snapshot().counter_total("smb_morph_events_total"),
            0,
            "documented loss semantics: unflushed thread-local deltas are dropped"
        );
    }
}
