//! The morph flight recorder: a fixed-capacity, lock-free ring buffer
//! retaining the last N estimator and engine lifecycle events for
//! post-hoc diagnostics (`smbcount doctor`, `morphlog --last`).
//!
//! ## Ring protocol (DESIGN.md §14)
//!
//! Writers claim a global ticket (`head.fetch_add`) and write into
//! slot `ticket % capacity`. Each slot carries its own sequence word
//! with a per-ticket encoding — for ticket `t`, `2t + 1` means "write
//! in progress", `2t + 2` means "complete":
//!
//! * a writer **claims** its slot by CAS-ing the sequence from the
//!   previous lap's completed value to `2t + 1`, which serializes
//!   writers that lap onto the same slot (a writer spins only while
//!   the slot's previous-lap writer is still mid-write);
//! * payload fields are plain atomic stores (`Relaxed`) — never torn,
//!   never UB;
//! * the writer **publishes** with a `Release` store of `2t + 2`.
//!
//! A reader walks tickets newest-to-oldest: it accepts a slot only if
//! the sequence reads `2t + 2` both before and after the payload loads
//! (with an `Acquire` fence between payload and re-check — the
//! classic seqlock validation). Any interleaving with a writer makes
//! the two sequence reads disagree and the slot is skipped, so a
//! racing reader can *miss* an event being overwritten but can never
//! observe a torn one.
//!
//! ## Loss semantics under overwrite
//!
//! The ring keeps the **newest** `capacity` events; recording event
//! `capacity + k` silently retires event `k`. `recorded_total()`
//! versus `len()` tells an operator how much history has been shed. A
//! reader racing an active writer may additionally skip the one slot
//! currently being rewritten — by then that slot's retained event is
//! already being replaced, so the reader only ever under-reports the
//! oldest end of the window, never the newest.

use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use smb_core::{EstimatorEvent, ObserverHandle, SmbObserver};
use smb_devtools::Json;

use crate::metrics::{Counter, Gauge};
use crate::registry::Registry;

/// What kind of lifecycle moment a [`FlightEvent`] captures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightEventKind {
    /// An SMB round closed (the paper's morph).
    Morph,
    /// An estimator was cleared.
    Cleared,
    /// An estimator reached saturation.
    Saturated,
    /// The engine wrote a checkpoint epoch (`items` holds the epoch).
    Checkpoint,
    /// A batch was dropped under backpressure (`items` holds the
    /// dropped item count).
    DropBurst,
}

impl FlightEventKind {
    fn as_u64(self) -> u64 {
        match self {
            FlightEventKind::Morph => 0,
            FlightEventKind::Cleared => 1,
            FlightEventKind::Saturated => 2,
            FlightEventKind::Checkpoint => 3,
            FlightEventKind::DropBurst => 4,
        }
    }

    fn from_u64(raw: u64) -> Self {
        match raw {
            0 => FlightEventKind::Morph,
            1 => FlightEventKind::Cleared,
            2 => FlightEventKind::Saturated,
            3 => FlightEventKind::Checkpoint,
            _ => FlightEventKind::DropBurst,
        }
    }

    /// The kind's JSON / display name.
    pub fn as_str(self) -> &'static str {
        match self {
            FlightEventKind::Morph => "morph",
            FlightEventKind::Cleared => "cleared",
            FlightEventKind::Saturated => "saturated",
            FlightEventKind::Checkpoint => "checkpoint",
            FlightEventKind::DropBurst => "drop_burst",
        }
    }
}

/// One retained lifecycle event. Morph events carry the full
/// [`smb_core::MorphEvent`] payload; other kinds use the fields they
/// need (see [`FlightEventKind`]) and zero the rest.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlightEvent {
    /// What happened.
    pub kind: FlightEventKind,
    /// Morph: the round that closed. Otherwise 0.
    pub round: u32,
    /// Morph: fresh bits at closure. Otherwise 0.
    pub fresh_bits: u32,
    /// Morph: logical bitmap size at closure. Otherwise 0.
    pub logical_size: u32,
    /// Morph: items since the previous morph. Checkpoint: the epoch.
    /// DropBurst: items dropped. Otherwise 0.
    pub items: u64,
    /// Morph/Saturated: the estimate at the event. Otherwise 0.
    pub estimate: f64,
    /// Nanoseconds since the recorder was created.
    pub at_ns: u64,
}

impl FlightEvent {
    /// This event as one JSON object (the `doctor` / `morphlog --last`
    /// line shape).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("kind".into(), Json::str(self.kind.as_str())),
            ("round".into(), Json::Int(self.round as i128)),
            ("fresh_bits".into(), Json::Int(self.fresh_bits as i128)),
            ("logical_size".into(), Json::Int(self.logical_size as i128)),
            ("items".into(), Json::Int(self.items as i128)),
            ("estimate".into(), Json::Float(self.estimate)),
            ("at_ns".into(), Json::Int(self.at_ns as i128)),
        ])
    }
}

/// One ring slot: a per-ticket sequence word plus the payload spread
/// over atomic words (`kind`/`round` and `fresh`/`logical` packed
/// pairwise). All-atomic payloads keep the racing reader free of
/// undefined behaviour without any `unsafe`.
#[derive(Debug)]
struct Slot {
    seq: AtomicU64,
    kind_round: AtomicU64,
    fresh_logical: AtomicU64,
    items: AtomicU64,
    estimate_bits: AtomicU64,
    at_ns: AtomicU64,
}

impl Slot {
    fn new() -> Self {
        Slot {
            seq: AtomicU64::new(0),
            kind_round: AtomicU64::new(0),
            fresh_logical: AtomicU64::new(0),
            items: AtomicU64::new(0),
            estimate_bits: AtomicU64::new(0),
            at_ns: AtomicU64::new(0),
        }
    }
}

/// Optional registry cells mirroring the recorder's state, so the
/// flight window shows up in `serve --metrics` exports.
#[derive(Debug)]
struct FlightCells {
    events: Arc<Counter>,
    window: Arc<Gauge>,
}

/// A fixed-capacity, lock-free flight recorder for estimator and
/// engine lifecycle events — see the module docs for the ring
/// protocol and loss semantics.
///
/// Writers ([`FlightRecorder::record`], or estimator events via the
/// [`SmbObserver`] impl) never block each other except when lapping
/// onto a slot still being written; readers
/// ([`FlightRecorder::recent`]) never block writers at all.
///
/// ```
/// use smb_telemetry::{FlightEvent, FlightEventKind, FlightRecorder};
///
/// let recorder = FlightRecorder::new(64);
/// recorder.record(FlightEvent {
///     kind: FlightEventKind::Checkpoint,
///     round: 0, fresh_bits: 0, logical_size: 0,
///     items: 7, estimate: 0.0, at_ns: 0,
/// });
/// let window = recorder.recent(10);
/// assert_eq!(window.len(), 1);
/// assert_eq!(window[0].kind, FlightEventKind::Checkpoint);
/// ```
#[derive(Debug)]
pub struct FlightRecorder {
    slots: Vec<Slot>,
    /// Total events ever recorded; the next ticket.
    head: AtomicU64,
    /// Timestamp origin for `FlightEvent::at_ns`.
    epoch: Instant,
    cells: Option<FlightCells>,
}

impl FlightRecorder {
    /// A recorder retaining the last `capacity` events (min 1).
    pub fn new(capacity: usize) -> Arc<Self> {
        Arc::new(FlightRecorder {
            slots: (0..capacity.max(1)).map(|_| Slot::new()).collect(),
            head: AtomicU64::new(0),
            epoch: Instant::now(),
            cells: None,
        })
    }

    /// A recorder that also mirrors its state into `registry`:
    /// `smb_flight_events_total` (events ever recorded),
    /// `smb_flight_window_events` (events currently retained) and
    /// `smb_flight_capacity` (the fixed ring size).
    pub fn registered(
        capacity: usize,
        registry: &Registry,
        labels: &[(&str, &str)],
    ) -> Arc<Self> {
        let capacity = capacity.max(1);
        registry
            .gauge_with(
                "smb_flight_capacity",
                "Flight recorder ring capacity in events",
                labels,
            )
            .set(capacity as i64);
        Arc::new(FlightRecorder {
            slots: (0..capacity).map(|_| Slot::new()).collect(),
            head: AtomicU64::new(0),
            epoch: Instant::now(),
            cells: Some(FlightCells {
                events: registry.counter_with(
                    "smb_flight_events_total",
                    "Lifecycle events recorded into the flight recorder",
                    labels,
                ),
                window: registry.gauge_with(
                    "smb_flight_window_events",
                    "Lifecycle events currently retained in the flight window",
                    labels,
                ),
            }),
        })
    }

    /// The fixed ring capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Events ever recorded (monotone; exceeds
    /// [`FlightRecorder::capacity`] once the ring has wrapped).
    pub fn recorded_total(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Events currently retained: `min(recorded_total, capacity)`.
    pub fn len(&self) -> usize {
        (self.recorded_total() as usize).min(self.capacity())
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.recorded_total() == 0
    }

    /// Record one event, stamping [`FlightEvent::at_ns`] from the
    /// recorder's clock. Lock-free; see the module docs.
    pub fn record(&self, mut event: FlightEvent) {
        event.at_ns = u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let cap = self.slots.len() as u64;
        let ticket = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(ticket % cap) as usize];
        // Claim: CAS from the previous lap's completed value. This
        // serializes writers lapping onto the same slot; the spin only
        // lasts while the previous-lap writer is between its claim and
        // its publish (a handful of stores).
        let previous = if ticket < cap { 0 } else { 2 * (ticket - cap) + 2 };
        while slot
            .seq
            .compare_exchange_weak(
                previous,
                2 * ticket + 1,
                Ordering::Acquire,
                Ordering::Relaxed,
            )
            .is_err()
        {
            std::hint::spin_loop();
        }
        slot.kind_round
            .store(event.kind.as_u64() << 32 | event.round as u64, Ordering::Relaxed);
        slot.fresh_logical.store(
            (event.fresh_bits as u64) << 32 | event.logical_size as u64,
            Ordering::Relaxed,
        );
        slot.items.store(event.items, Ordering::Relaxed);
        slot.estimate_bits
            .store(event.estimate.to_bits(), Ordering::Relaxed);
        slot.at_ns.store(event.at_ns, Ordering::Relaxed);
        // Publish: payload stores above become visible before the
        // completed sequence value.
        slot.seq.store(2 * ticket + 2, Ordering::Release);
        if let Some(cells) = &self.cells {
            cells.events.inc();
            cells.window.set(self.len() as i64);
        }
    }

    /// The last `n` retained events, oldest first. Safe to call while
    /// writers are recording: slots caught mid-write are skipped (the
    /// seqlock validation), so the result may be shorter than `n` even
    /// with `n ≤ len()`, but never contains a torn event.
    ///
    /// "Oldest first" is by [`FlightEvent::at_ns`]. A writer stamps
    /// its event before claiming a ticket, so a writer preempted in
    /// between can hold a later ticket than an event stamped after
    /// its own; the window is therefore sorted by timestamp (stably,
    /// so ties keep ticket order).
    pub fn recent(&self, n: usize) -> Vec<FlightEvent> {
        let cap = self.slots.len() as u64;
        let head = self.head.load(Ordering::Acquire);
        let window = head.min(cap).min(n as u64);
        let mut out = Vec::with_capacity(window as usize);
        for ticket in (head - window..head).rev() {
            let slot = &self.slots[(ticket % cap) as usize];
            let expected = 2 * ticket + 2;
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 != expected {
                // Overwritten by a later lap, or mid-write.
                continue;
            }
            let kind_round = slot.kind_round.load(Ordering::Relaxed);
            let fresh_logical = slot.fresh_logical.load(Ordering::Relaxed);
            let items = slot.items.load(Ordering::Relaxed);
            let estimate_bits = slot.estimate_bits.load(Ordering::Relaxed);
            let at_ns = slot.at_ns.load(Ordering::Relaxed);
            // Seqlock validation: the payload loads above must be
            // ordered before the re-check.
            fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Acquire) != s1 {
                continue; // a writer claimed the slot mid-read
            }
            out.push(FlightEvent {
                kind: FlightEventKind::from_u64(kind_round >> 32),
                round: (kind_round & 0xFFFF_FFFF) as u32,
                fresh_bits: (fresh_logical >> 32) as u32,
                logical_size: (fresh_logical & 0xFFFF_FFFF) as u32,
                items,
                estimate: f64::from_bits(estimate_bits),
                at_ns,
            });
        }
        out.reverse();
        out.sort_by_key(|e| e.at_ns);
        out
    }

    /// Wrap into the handle `CardinalityEstimator::set_observer`
    /// accepts (recording every morph / clear / saturation).
    pub fn into_handle(self: Arc<Self>) -> ObserverHandle {
        ObserverHandle::new(self)
    }
}

impl SmbObserver for FlightRecorder {
    fn on_event(&self, event: EstimatorEvent<'_>) {
        let event = match event {
            EstimatorEvent::Morph(m) => FlightEvent {
                kind: FlightEventKind::Morph,
                round: m.round,
                fresh_bits: m.fresh_bits_at_close as u32,
                logical_size: m.logical_size as u32,
                items: m.items_since_last_morph,
                estimate: m.estimate_at_close,
                at_ns: 0,
            },
            EstimatorEvent::Cleared { .. } => FlightEvent {
                kind: FlightEventKind::Cleared,
                round: 0,
                fresh_bits: 0,
                logical_size: 0,
                items: 0,
                estimate: 0.0,
                at_ns: 0,
            },
            EstimatorEvent::Saturated { estimate, .. } => FlightEvent {
                kind: FlightEventKind::Saturated,
                round: 0,
                fresh_bits: 0,
                logical_size: 0,
                items: 0,
                estimate,
                at_ns: 0,
            },
        };
        self.record(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smb_core::CardinalityEstimator;
    use smb_devtools::{prop_assert, stress};

    fn event(i: u64) -> FlightEvent {
        FlightEvent {
            kind: FlightEventKind::Morph,
            round: (i % 16) as u32,
            fresh_bits: (i % 1000) as u32,
            logical_size: 2048,
            items: i,
            estimate: i as f64 * 1.5,
            at_ns: 0,
        }
    }

    #[test]
    fn retains_events_in_order_and_stamps_time() {
        let recorder = FlightRecorder::new(8);
        assert!(recorder.is_empty());
        assert!(recorder.recent(4).is_empty());
        for i in 0..5u64 {
            recorder.record(event(i));
        }
        assert_eq!(recorder.len(), 5);
        assert_eq!(recorder.recorded_total(), 5);
        let window = recorder.recent(3);
        assert_eq!(
            window.iter().map(|e| e.items).collect::<Vec<_>>(),
            vec![2, 3, 4],
            "last 3, oldest first"
        );
        for pair in recorder.recent(5).windows(2) {
            assert!(pair[0].at_ns <= pair[1].at_ns, "timestamps monotone");
        }
    }

    #[test]
    fn overwrite_keeps_the_newest_capacity_events() {
        let recorder = FlightRecorder::new(4);
        for i in 0..11u64 {
            recorder.record(event(i));
        }
        assert_eq!(recorder.recorded_total(), 11);
        assert_eq!(recorder.len(), 4);
        let window = recorder.recent(100);
        assert_eq!(
            window.iter().map(|e| e.items).collect::<Vec<_>>(),
            vec![7, 8, 9, 10],
            "only the newest capacity-many survive"
        );
    }

    #[test]
    fn payload_round_trips_every_field() {
        let recorder = FlightRecorder::new(2);
        let sent = FlightEvent {
            kind: FlightEventKind::DropBurst,
            round: 3,
            fresh_bits: 77,
            logical_size: 1024,
            items: u64::MAX - 5,
            estimate: -0.25,
            at_ns: 0,
        };
        recorder.record(sent);
        let got = recorder.recent(1)[0];
        assert_eq!(got.kind, sent.kind);
        assert_eq!(got.round, sent.round);
        assert_eq!(got.fresh_bits, sent.fresh_bits);
        assert_eq!(got.logical_size, sent.logical_size);
        assert_eq!(got.items, sent.items);
        assert_eq!(got.estimate, sent.estimate);
    }

    #[test]
    fn estimator_events_land_in_the_window() {
        let recorder = FlightRecorder::new(64);
        let mut smb = smb_core::Smb::new(2048, 256).unwrap();
        smb.set_observer(Some(Arc::clone(&recorder).into_handle()));
        for i in 0..100_000u64 {
            smb.record(&i.to_le_bytes());
        }
        smb.clear();
        let window = recorder.recent(64);
        let morphs = window
            .iter()
            .filter(|e| e.kind == FlightEventKind::Morph)
            .count();
        assert!(morphs > 0, "the stream must morph");
        assert!(window
            .iter()
            .any(|e| e.kind == FlightEventKind::Cleared));
        // Morph rounds arrive in closure order.
        let rounds: Vec<u32> = window
            .iter()
            .filter(|e| e.kind == FlightEventKind::Morph)
            .map(|e| e.round)
            .collect();
        for pair in rounds.windows(2) {
            assert_eq!(pair[1], pair[0] + 1, "rounds close in order: {rounds:?}");
        }
    }

    #[test]
    fn registered_recorder_mirrors_cells() {
        let registry = Registry::new("t");
        let recorder = FlightRecorder::registered(4, &registry, &[]);
        for i in 0..6u64 {
            recorder.record(event(i));
        }
        let snap = registry.snapshot();
        assert_eq!(snap.counter_total("smb_flight_events_total"), 6);
        assert_eq!(
            snap.get("smb_flight_window_events", &[]).unwrap().as_gauge(),
            Some(4)
        );
        assert_eq!(
            snap.get("smb_flight_capacity", &[]).unwrap().as_gauge(),
            Some(4)
        );
    }

    #[test]
    fn event_json_shape_parses() {
        let json = event(42).to_json().to_string();
        let parsed = Json::parse(&json).unwrap();
        assert_eq!(parsed.field("kind").unwrap().as_str().unwrap(), "morph");
        assert_eq!(parsed.field("items").unwrap().as_u64().unwrap(), 42);
        assert!(parsed.field("estimate").unwrap().as_f64().is_ok());
    }

    /// The acceptance-gate stress test: multi-producer writers lapping
    /// a small ring while a racing reader drains windows. Every event
    /// is written with fields derived from one generator value, so any
    /// torn read (fields from two different events) is detectable.
    #[test]
    fn concurrent_writers_and_reader_never_tear_events() {
        fn coherent(e: &FlightEvent) -> bool {
            // All fields are functions of `items`; a torn event mixes
            // two tickets and breaks at least one relation.
            e.round == (e.items % 16) as u32
                && e.fresh_bits == (e.items % 1000) as u32
                && e.estimate == e.items as f64 * 1.5
        }
        stress!(
            schedules = 8,
            threads = 4,
            setup = |_seed| FlightRecorder::new(8),
            body = |tid, ctx, recorder: &Arc<FlightRecorder>| {
                if tid == 0 {
                    // The racing reader: windows must always be
                    // coherent and ordered, mid-write slots skipped.
                    for _ in 0..300 {
                        let window = recorder.recent(8);
                        for e in &window {
                            assert!(coherent(e), "torn event read: {e:?}");
                        }
                        for pair in window.windows(2) {
                            assert!(
                                pair[0].at_ns <= pair[1].at_ns,
                                "window out of order: {window:?}"
                            );
                        }
                        ctx.interleave();
                    }
                } else {
                    // Writers lap the 8-slot ring many times over.
                    for i in 0..300u64 {
                        recorder.record(event(tid as u64 * 1_000_000 + i));
                        ctx.interleave();
                    }
                }
            },
            check = |recorder| {
                // 3 writer threads × 300 events each; the quiescent
                // ring holds exactly the newest 8, all coherent.
                prop_assert!(recorder.recorded_total() == 900);
                let window = recorder.recent(8);
                prop_assert!(window.len() == 8);
                for e in &window {
                    prop_assert!(coherent(e));
                }
                Ok(())
            },
        );
    }
}
