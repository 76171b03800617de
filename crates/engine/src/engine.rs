//! The sharded flow-estimation engine.
//!
//! ## Architecture
//!
//! ```text
//!             ingest(flow, item)             worker 0 ── FlowTable 0
//!  caller ──► hash once ──► shard = f(flow) ─┤  ...          ...
//!             batch per shard ──► bounded ───┘ worker N ── FlowTable N
//!                                 queues
//! ```
//!
//! * **Hash once.** The producer computes the 64-bit [`ItemHash`] under
//!   the engine's single [`HashScheme`]; workers never touch item
//!   bytes.
//! * **Partition by flow.** A flow's packets always land on the same
//!   shard, so per-flow estimates are **bit-identical for any shard
//!   count** (each estimator sees the same items in the same order) and
//!   workers need no cross-shard coordination.
//! * **Batch.** Items travel in fixed-size batches over bounded
//!   queues; the producer touches a queue lock once per batch and each
//!   worker locks its table once per batch, so the per-item hot path on
//!   both sides is lock-free.
//! * **Backpressure.** When a shard queue is full the engine either
//!   blocks the producer ([`BackpressurePolicy::Block`], losslessly
//!   pacing ingest to the workers) or counts the batch into
//!   `dropped_items` and moves on ([`BackpressurePolicy::DropNewest`],
//!   bounding producer latency as a router would under overload).
//!   Either way `queue_full_events` records every time a full queue
//!   was observed.

use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use smb_core::{CardinalityEstimator, EstimatorEvent, ObserverHandle, SmbObserver as _};
use smb_factory::{AlgoSpec, DynEstimator};
use smb_hash::{mix, HashScheme, ItemHash};
use smb_sketch::{FlowTable, TierStats};
use smb_telemetry::{
    BatchedMetricsObserver, FlightEvent, FlightEventKind, FlightRecorder, Histogram, Registry,
    RegistrySnapshot,
};

use crate::channel::{bounded, Sender, TrySendError};
use crate::durability::{
    checkpoint_with_retries, select_epoch, CheckpointConfig, CheckpointMetrics, Checkpointer,
    LoadedEpoch, RestoreReport,
};
use crate::stats::{EngineStats, ProducerMetrics, ProducerStats, ShardMetrics, STAGE_HELP};

/// Factory shared by all shards; must be callable from worker threads.
pub type EstimatorFactory = dyn Fn(u64) -> DynEstimator + Send + Sync;

/// The concrete table type a shard worker owns. This is where the
/// `Send` requirement on flow-table factories lives — single-threaded
/// [`FlowTable`] users are free of it.
pub type ShardTable = FlowTable<DynEstimator, Box<dyn Fn(u64) -> DynEstimator + Send>>;

/// One (flow key, pre-computed hash) pair in flight.
type Entry = (u64, ItemHash);

/// Timestamps a traced batch carries across the pipeline. Only
/// batches picked by the `trace_sample` knob allocate one, so the
/// untraced hot path pays a single `Option` check per batch.
#[derive(Debug, Clone, Copy)]
struct BatchTrace {
    /// When the batch's first item was staged — the start of the
    /// `producer_hash` stage.
    staged: Instant,
    /// When the batch was offered to the shard queue, set just before
    /// the (possibly blocking) send. The worker's `queue_wait` stage
    /// is measured from here, so it deliberately includes time the
    /// producer spent blocked on a full queue — that wait *is* queue
    /// backpressure, the thing the stage exists to show.
    offered: Option<Instant>,
}

/// The unit of transfer over a shard queue: staged entries plus the
/// optional trace context.
#[derive(Debug)]
struct Batch {
    entries: Vec<Entry>,
    trace: Option<BatchTrace>,
}

impl Batch {
    fn with_capacity(cap: usize) -> Self {
        Batch {
            entries: Vec::with_capacity(cap),
            trace: None,
        }
    }
}

/// What to do when a shard's queue is full at dispatch time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackpressurePolicy {
    /// Block the producer until the worker frees queue space. Lossless;
    /// ingest throughput degrades to worker throughput.
    #[default]
    Block,
    /// Drop the just-completed batch and count it in `dropped_items`.
    /// Bounded producer latency; estimates undercount under overload.
    DropNewest,
}

impl BackpressurePolicy {
    /// Parse a CLI name (`block` / `drop`).
    pub fn from_name(s: &str) -> Result<Self, String> {
        match s {
            "block" => Ok(BackpressurePolicy::Block),
            "drop" => Ok(BackpressurePolicy::DropNewest),
            other => Err(format!("unknown backpressure policy `{other}` (block|drop)")),
        }
    }
}

/// Engine construction parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// What estimator each flow gets (also fixes the hash scheme).
    pub spec: AlgoSpec,
    /// Number of worker shards (≥ 1).
    pub shards: usize,
    /// Items per batch (≥ 1).
    pub batch: usize,
    /// Per-shard queue capacity, in batches (≥ 1).
    pub queue_batches: usize,
    /// Full-queue behaviour.
    pub policy: BackpressurePolicy,
    /// Expected number of distinct flows across the whole run
    /// (0 = unknown). When set, each shard's flow table is pre-sized
    /// at construction so steady-state ingest never rehashes
    /// mid-stream.
    pub expected_flows: usize,
    /// Pipeline-stage trace sampling: every `trace_sample`-th batch
    /// carries timestamps through producer-hash → enqueue →
    /// queue-wait → record-batch, landing in the per-shard
    /// `engine_stage_duration_ns{stage}` histograms. `0` (the
    /// default) disables tracing entirely; `1` traces every batch.
    pub trace_sample: u32,
}

impl EngineConfig {
    /// Defaults sized for the host: one shard per available core,
    /// 256-item batches, 8 batches of queue per shard, blocking
    /// backpressure.
    pub fn new(spec: AlgoSpec) -> Self {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        EngineConfig {
            spec,
            shards: cores,
            batch: 256,
            queue_batches: 8,
            policy: BackpressurePolicy::Block,
            expected_flows: 0,
            trace_sample: 0,
        }
    }

    /// Set the shard count.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Set the batch size.
    pub fn with_batch(mut self, batch: usize) -> Self {
        self.batch = batch;
        self
    }

    /// Set the per-shard queue capacity in batches.
    pub fn with_queue_batches(mut self, queue_batches: usize) -> Self {
        self.queue_batches = queue_batches;
        self
    }

    /// Set the backpressure policy.
    pub fn with_policy(mut self, policy: BackpressurePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Hint the expected number of distinct flows so shard tables are
    /// pre-sized up front (0 = unknown, grow on demand).
    pub fn with_expected_flows(mut self, expected_flows: usize) -> Self {
        self.expected_flows = expected_flows;
        self
    }

    /// Trace one batch in `trace_sample` through the pipeline stages
    /// (0 disables, 1 traces everything) — the `--trace-sample` knob.
    pub fn with_trace_sample(mut self, trace_sample: u32) -> Self {
        self.trace_sample = trace_sample;
        self
    }

    fn validate(&self) -> smb_core::Result<()> {
        if self.shards == 0 {
            return Err(smb_core::Error::invalid("shards", "must be at least 1"));
        }
        if self.batch == 0 {
            return Err(smb_core::Error::invalid("batch", "must be at least 1"));
        }
        if self.queue_batches == 0 {
            return Err(smb_core::Error::invalid(
                "queue_batches",
                "must be at least 1",
            ));
        }
        Ok(())
    }
}

struct Shard {
    tx: Sender<Batch>,
    table: Arc<Mutex<ShardTable>>,
    metrics: Arc<ShardMetrics>,
    worker: Option<JoinHandle<()>>,
}

/// Scratch buffers reused across [`record_batch_grouped`] calls so the
/// per-batch hot path allocates nothing in steady state.
#[derive(Debug, Default)]
pub struct GroupScratch {
    /// `(flow, position)` pairs for the sort-based grouping path.
    order: Vec<(u64, u32)>,
    /// One flow's hashes, contiguous, for `record_hashes`.
    run: Vec<ItemHash>,
}

/// Decide whether grouping an interleaved batch pays off: grouping
/// buys long `record_hashes` runs when few distinct flows share the
/// batch, but the `(flow, position)` sort is pure overhead when nearly
/// every item belongs to a different flow (runs of one or two items).
/// Sixteen evenly spaced samples give a coarse distinct-flow read:
/// half or more repeated samples means runs will be long enough to
/// amortise the sort.
fn few_flows_dominate(batch: &[(u64, ItemHash)]) -> bool {
    const SAMPLE: usize = 16;
    if batch.len() < 4 * SAMPLE {
        // Tiny batches: the sort is cheap either way; grouping wins
        // whenever any flow repeats, so just try it.
        return true;
    }
    let step = batch.len() / SAMPLE;
    let mut seen = [0u64; SAMPLE];
    let mut distinct = 0;
    for i in 0..SAMPLE {
        let flow = batch[i * step].0;
        if !seen[..distinct].contains(&flow) {
            seen[distinct] = flow;
            distinct += 1;
        }
    }
    distinct <= SAMPLE / 2
}

/// Record one batch of `(flow, hash)` pairs into a [`FlowTable`],
/// resolving each distinct flow once per run of same-flow items
/// instead of once per item.
///
/// Per-flow arrival order is preserved exactly, so the resulting
/// per-flow states are bit-identical to recording the batch one item
/// at a time — the table's tiering (and each estimator's batched
/// path) already guarantees batch/item equivalence, and this function
/// only changes *which* items are presented together, never their
/// per-flow order. Three regimes, picked per batch by a cheap
/// two-level dispatch (one counting scan, then one 16-point sample):
///
/// * **run slicing** — the batch is cut into maximal same-flow runs in
///   arrival order and each run feeds one `record_hashes` call. This
///   covers sorted batches and bursty traffic (packet trains) without
///   any reordering;
/// * **sort grouping** — when runs are short *but* few distinct flows
///   share the batch (round-robin traffic), a `(flow, position)` sort
///   rebuilds long per-flow runs; the position component keeps each
///   flow's items in arrival order;
/// * **batched probe** — when runs are short *and* flows are diverse
///   (adversarial run-length-1 interleaves, uniform traffic), neither
///   slicing nor sorting can amortise flow resolution, so the whole
///   batch goes to [`FlowTable::record_batch`]: a prefetch-pipelined
///   probe pass plus inline-tier recording, whose item order is
///   exactly batch order.
pub fn record_batch_grouped<E: CardinalityEstimator, F: Fn(u64) -> E>(
    table: &mut FlowTable<E, F>,
    batch: &[(u64, ItemHash)],
    scratch: &mut GroupScratch,
) {
    if batch.is_empty() {
        return;
    }
    // Sorted batches slice perfectly with no reordering (early-exiting
    // scan: ~2 compares on unsorted data). Unsorted batches count
    // their maximal same-flow runs: bursty traffic still slices well,
    // and only short-run batches dominated by few flows are worth the
    // reordering sort.
    let sorted = batch.windows(2).all(|w| w[0].0 <= w[1].0);
    let sliced_runs_amortise = sorted || {
        let runs = 1 + batch.windows(2).filter(|w| w[0].0 != w[1].0).count();
        2 * runs <= batch.len()
    };
    if sliced_runs_amortise {
        let mut i = 0;
        while i < batch.len() {
            let flow = batch[i].0;
            let mut j = i + 1;
            while j < batch.len() && batch[j].0 == flow {
                j += 1;
            }
            // One table resolution per run; the table (and, once
            // materialized, the estimator's own `record_hashes`)
            // decides per-item vs batched recording for the slice.
            scratch.run.clear();
            scratch.run.extend(batch[i..j].iter().map(|&(_, h)| h));
            table.record_hashes(flow, &scratch.run);
            i = j;
        }
        return;
    }
    if !few_flows_dominate(batch) {
        // Short runs over diverse flows: slicing would degrade to
        // per-item resolution and sorting could never rebuild long
        // runs, so hand the whole batch to the table's batched-probe
        // path (no GroupScratch involvement at all).
        table.record_batch(batch);
        return;
    }
    scratch.order.clear();
    scratch
        .order
        .extend(batch.iter().enumerate().map(|(i, &(flow, _))| (flow, i as u32)));
    // Unstable sort of a totally ordered key set is order-stable: the
    // position component breaks every tie, keeping per-flow arrival
    // order.
    scratch.order.sort_unstable();
    let order = &scratch.order;
    let mut i = 0;
    while i < order.len() {
        let flow = order[i].0;
        let mut j = i + 1;
        while j < order.len() && order[j].0 == flow {
            j += 1;
        }
        scratch.run.clear();
        scratch
            .run
            .extend(order[i..j].iter().map(|&(_, pos)| batch[pos as usize].1));
        table.record_hashes(flow, &scratch.run);
        i = j;
    }
}

/// The pinned cross-shard ordering for estimate lists: estimate
/// descending, flow key ascending as the tie-break.
fn by_estimate_desc(a: &(u64, f64), b: &(u64, f64)) -> std::cmp::Ordering {
    b.1.partial_cmp(&a.1)
        .expect("estimates are finite")
        .then(a.0.cmp(&b.0))
}

/// Keep the `k` largest entries of `all`, sorted by
/// [`by_estimate_desc`]. Partitions first so the O(n log n) sort only
/// ever runs over k entries, not every flow.
fn top_k_in_place(all: &mut Vec<(u64, f64)>, k: usize) {
    if k > 0 && k < all.len() {
        all.select_nth_unstable_by(k - 1, by_estimate_desc);
        all.truncate(k);
    }
    all.sort_unstable_by(by_estimate_desc);
    all.truncate(k);
}

/// One multi-facet read against the engine's shard tables. Build with
/// the `with_*` setters and run through [`QueryHandle::run`] (or the
/// convenience [`ShardedFlowEngine::run_query`]); every requested
/// facet is answered from a single pass that locks each shard exactly
/// once, so one query costs one sweep no matter how many facets it
/// asks for. This is the one aggregate query surface.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EngineQuery {
    /// Estimate this flow's cardinality.
    pub estimate: Option<u64>,
    /// The `k` flows with the largest estimates, in pinned
    /// (estimate desc, flow asc) order.
    pub top_k: Option<usize>,
    /// Every flow whose estimate is at least this threshold, in pinned
    /// (estimate desc, flow asc) order.
    pub flows_over: Option<f64>,
    /// Count the flows tracked across all shards.
    pub flow_count: bool,
    /// Sum resident per-flow bytes (slot arrays plus cell heap state)
    /// across all shards.
    pub memory_bytes: bool,
}

impl EngineQuery {
    /// An empty query; add facets with the `with_*` setters. Running
    /// it still reports [`QueryReport::tier_stats`], which every query
    /// carries for free.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ask for `flow`'s cardinality estimate.
    pub fn with_estimate(mut self, flow: u64) -> Self {
        self.estimate = Some(flow);
        self
    }

    /// Ask for the `k` largest-estimate flows.
    pub fn with_top_k(mut self, k: usize) -> Self {
        self.top_k = Some(k);
        self
    }

    /// Ask for every flow whose estimate is at least `threshold`.
    pub fn with_flows_over(mut self, threshold: f64) -> Self {
        self.flows_over = Some(threshold);
        self
    }

    /// Ask for the engine-wide flow count.
    pub fn with_flow_count(mut self) -> Self {
        self.flow_count = true;
        self
    }

    /// Ask for the engine-wide resident per-flow bytes.
    pub fn with_memory_bytes(mut self) -> Self {
        self.memory_bytes = true;
        self
    }
}

/// What an [`EngineQuery`] found. Each field is `Some`/non-default
/// only if the corresponding facet was requested; `tier_stats` is
/// always filled (reading the incremental counters is free).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryReport {
    /// The requested flow's estimate; `None` if the facet was not
    /// requested **or** the flow was never seen.
    pub estimate: Option<f64>,
    /// The top-k flows, if requested.
    pub top_k: Option<Vec<(u64, f64)>>,
    /// The flows over the threshold, if requested.
    pub flows_over: Option<Vec<(u64, f64)>>,
    /// Engine-wide flow count, if requested.
    pub flow_count: Option<usize>,
    /// Engine-wide resident bytes, if requested.
    pub memory_bytes: Option<usize>,
    /// Tier occupancy and lifetime promotion counters summed across
    /// shards, as of this query's sweep.
    pub tier_stats: TierStats,
}

/// A cheap, cloneable read handle over the engine's shard tables.
///
/// Queries run against the shared tables directly (each shard locked
/// briefly, one at a time) **without borrowing the engine**, so a
/// monitoring thread can hold a handle and query concurrently while
/// the owning thread keeps calling `&mut self` ingest methods — the
/// read-while-ingest pattern the old engine-borrowing accessors could
/// not express. The handle stays valid after the engine is dropped;
/// it then reads the tables' final state.
#[derive(Clone)]
pub struct QueryHandle {
    shards: Vec<Arc<Mutex<ShardTable>>>,
    /// The `query_sweep` stage histogram
    /// (`engine_stage_duration_ns{shard="all",stage="query_sweep"}`);
    /// every full sweep records its wall time here.
    sweep: Option<Arc<Histogram>>,
}

impl QueryHandle {
    /// Run `query`, locking each shard exactly once. Results reflect
    /// batches the workers have already processed; flush the engine
    /// first for a read of everything ingested. The sweep's wall time
    /// lands in `engine_stage_duration_ns{stage="query_sweep"}`.
    pub fn run(&self, query: &EngineQuery) -> QueryReport {
        let start = Instant::now();
        let mut report = QueryReport::default();
        let estimate_shard = query
            .estimate
            .map(|flow| shard_of_key(flow, self.shards.len()));
        let needs_estimates = query.top_k.is_some() || query.flows_over.is_some();
        let mut all: Vec<(u64, f64)> = Vec::new();
        for (i, table) in self.shards.iter().enumerate() {
            let table = table.lock().expect("shard table lock");
            if estimate_shard == Some(i) {
                report.estimate =
                    table.estimate(query.estimate.expect("estimate facet requested"));
            }
            if needs_estimates {
                all.extend(table.estimates());
            }
            if query.flow_count {
                *report.flow_count.get_or_insert(0) += table.len();
            }
            if query.memory_bytes {
                *report.memory_bytes.get_or_insert(0) += table.memory_bytes();
            }
            let t = table.tier_stats();
            report.tier_stats.small += t.small;
            report.tier_stats.array += t.array;
            report.tier_stats.full += t.full;
            report.tier_stats.promotions_to_array += t.promotions_to_array;
            report.tier_stats.promotions_to_full += t.promotions_to_full;
        }
        if let Some(threshold) = query.flows_over {
            let mut over: Vec<(u64, f64)> = all
                .iter()
                .copied()
                .filter(|&(_, estimate)| estimate >= threshold)
                .collect();
            over.sort_unstable_by(by_estimate_desc);
            report.flows_over = Some(over);
        }
        if let Some(k) = query.top_k {
            top_k_in_place(&mut all, k);
            report.top_k = Some(all);
        }
        if let Some(sweep) = &self.sweep {
            sweep.record(duration_ns(start.elapsed()));
        }
        report
    }

    /// Snapshot every flow's serialized cell state, sorted by flow
    /// key — unmaterialized cells as `{"tier", "hashes"}` wrappers,
    /// materialized ones as the estimator's own state. This is the
    /// payload of a wire `SNAPSHOT` response (encoded with
    /// [`smb_sketch::codec::encode_flow_block`]) and is exactly what a
    /// checkpoint shard holds, so a transferred snapshot restores
    /// bit-identically. Locks each shard briefly, one at a time;
    /// results reflect batches the workers have already processed.
    ///
    /// # Errors
    /// When a materialized estimator does not support snapshots.
    pub fn snapshot_cells(&self) -> smb_core::Result<Vec<(u64, smb_devtools::Json)>> {
        let mut all: Vec<(u64, smb_devtools::Json)> = Vec::new();
        for table in &self.shards {
            let table = table.lock().expect("shard table lock");
            all.extend(crate::durability::shard_flows(&table)?);
        }
        all.sort_unstable_by_key(|&(flow, _)| flow);
        Ok(all)
    }
}

impl std::fmt::Debug for QueryHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryHandle")
            .field("shards", &self.shards.len())
            .finish()
    }
}

/// A multi-core, sharded per-flow cardinality-estimation pipeline.
///
/// ```
/// use smb_engine::{EngineConfig, ShardedFlowEngine};
/// use smb_factory::{Algo, AlgoSpec};
///
/// let spec = AlgoSpec::new(Algo::Smb).memory_bits(2048).n_max(1e5).seed(7);
/// let mut engine = ShardedFlowEngine::new(EngineConfig::new(spec).with_shards(2)).unwrap();
/// for i in 0..10_000u32 {
///     engine.ingest(i as u64 % 4, &i.to_le_bytes());
/// }
/// engine.flush();
/// assert_eq!(engine.stats().total_flows(), 4);
/// assert!(engine.query(0).unwrap() > 1000.0);
/// ```
pub struct ShardedFlowEngine {
    config: EngineConfig,
    scheme: HashScheme,
    shards: Vec<Shard>,
    /// Producer-side accumulation, one partial batch per shard.
    pending: Vec<Batch>,
    /// All engine metrics (per-shard series plus SMB morph counters)
    /// live here; export via [`ShardedFlowEngine::metrics_snapshot`].
    registry: Arc<Registry>,
    /// Durability series (checkpoint duration/bytes/epoch, restore
    /// counters), registered up front so exports always carry them.
    checkpoint_metrics: Arc<CheckpointMetrics>,
    /// Next epoch number this engine will write — shared with the
    /// background checkpointer so manual and background checkpoints
    /// never collide.
    next_epoch: Arc<Mutex<u64>>,
    /// The background checkpointer, if started.
    checkpointer: Option<Checkpointer>,
    /// Allocator for producer-handle ids, shared with every handle so
    /// clones made after the engine is gone still get unique ids.
    producer_ids: Arc<AtomicU32>,
    /// Batches staged by the engine front-end, for trace sampling.
    trace_seq: u64,
    /// The `query_sweep` stage histogram
    /// (`engine_stage_duration_ns{shard="all",stage="query_sweep"}`),
    /// shared with every [`QueryHandle`].
    query_sweep: Arc<Histogram>,
    /// Estimator-event telemetry (engines built via
    /// [`ShardedFlowEngine::new`] / restore): the batched observer the
    /// workers flush plus the flight recorder. `None` for custom
    /// factories ([`ShardedFlowEngine::with_factory`] /
    /// [`ShardedFlowEngine::with_registry`]), where estimator
    /// observation is the caller's business.
    telemetry: Option<EngineTelemetry>,
}

/// How many lifecycle events the engine's flight recorder retains.
const FLIGHT_CAPACITY: usize = 256;

/// The estimator-event half of engine telemetry: one
/// [`BatchedMetricsObserver`] (morph/clear/saturation counters folded
/// thread-locally, flushed by each worker per batch) and one
/// [`FlightRecorder`] (the last [`FLIGHT_CAPACITY`] lifecycle events),
/// both behind a single composite [`ObserverHandle`] attached to every
/// estimator the engine builds.
struct EngineTelemetry {
    batched: Arc<BatchedMetricsObserver>,
    flight: Arc<FlightRecorder>,
    handle: ObserverHandle,
}

impl EngineTelemetry {
    fn register(registry: &Registry) -> Self {
        let batched = BatchedMetricsObserver::register(registry, &[]);
        let flight = FlightRecorder::registered(FLIGHT_CAPACITY, registry, &[]);
        let handle = {
            let batched = Arc::clone(&batched);
            let flight = Arc::clone(&flight);
            ObserverHandle::from_observer(move |event: EstimatorEvent<'_>| {
                batched.on_event(event);
                flight.on_event(event);
            })
        };
        EngineTelemetry {
            batched,
            flight,
            handle,
        }
    }
}

/// Salt decorrelating shard selection from the estimators' item hashing
/// (both see the flow key; the item hash additionally sees the bytes).
const SHARD_SALT: u64 = 0x5348_4152_445F_534D;

/// The one shard-selection function, shared by the engine and every
/// [`EngineProducer`]: all ingest paths must agree on flow placement
/// or per-flow ordering (and estimates) would break.
#[inline]
fn shard_of_key(flow: u64, shards: usize) -> usize {
    (mix::moremur(flow ^ SHARD_SALT) % shards as u64) as usize
}

/// How a batch is handed to a shard queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DeliveryMode {
    /// Dispatch-path delivery: try without blocking, apply the
    /// backpressure policy on a full queue, sample enqueue latency.
    Policy(BackpressurePolicy),
    /// Flush-path delivery: block until the queue accepts. Flush is a
    /// delivery point, not a load-shedding one, so the policy does not
    /// apply and no latency sample is taken (it would only measure the
    /// flush barrier itself).
    ForceBlock,
}

/// What [`deliver_batch`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Delivery {
    /// The queue accepted the batch; the shard's delivered counters
    /// (`queue_depth`, `batches_sent`, `items_enqueued`) were updated.
    delivered: bool,
    /// The queue was observed full (possible on the policy path only).
    queue_full: bool,
    /// The channel was closed: the batch was discarded undelivered.
    /// The engine itself never sees this (it closes queues only on
    /// drop); a [`EngineProducer`] outliving its engine does.
    closed: bool,
}

/// Hand one batch to a shard queue, updating the shard's metric cells
/// exactly as the single-producer dispatch/flush paths always have:
/// occupancy first, queue-full and drop accounting per policy, and the
/// delivered counters only after the queue accepts (so a scrape never
/// sees them exceed reality). All cells are atomics, so any number of
/// producers may deliver to the same shard concurrently.
fn deliver_batch(
    metrics: &ShardMetrics,
    tx: &Sender<Batch>,
    mode: DeliveryMode,
    mut batch: Batch,
    flight: Option<&FlightRecorder>,
) -> Delivery {
    let n = batch.entries.len() as u64;
    metrics.batch_occupancy.record(n);
    // Traced batch: the producer_hash stage (staging the entries)
    // ends here; stamp the queue offer before the possibly-blocking
    // send so the worker can measure queue_wait from it.
    let offered = batch.trace.as_mut().map(|trace| {
        let now = Instant::now();
        metrics
            .stage_producer_hash
            .record(duration_ns(now.duration_since(trace.staged)));
        trace.offered = Some(now);
        now
    });
    let mut outcome = Delivery {
        delivered: false,
        queue_full: false,
        closed: false,
    };
    match mode {
        DeliveryMode::ForceBlock => {
            if tx.send(batch).is_ok() {
                outcome.delivered = true;
            } else {
                outcome.closed = true;
            }
        }
        DeliveryMode::Policy(policy) => {
            let start = Instant::now();
            match tx.try_send(batch) {
                Ok(()) => outcome.delivered = true,
                Err(TrySendError::Full(batch)) => {
                    outcome.queue_full = true;
                    metrics.queue_full_events.inc();
                    match policy {
                        BackpressurePolicy::Block => {
                            if tx.send(batch).is_ok() {
                                outcome.delivered = true;
                            } else {
                                outcome.closed = true;
                            }
                        }
                        BackpressurePolicy::DropNewest => {
                            metrics.dropped_items.add(n);
                            if let Some(flight) = flight {
                                flight.record(FlightEvent {
                                    kind: FlightEventKind::DropBurst,
                                    round: 0,
                                    fresh_bits: 0,
                                    logical_size: 0,
                                    // Field reuse: for drop bursts
                                    // `items` is the dropped count.
                                    items: n,
                                    estimate: 0.0,
                                    at_ns: 0,
                                });
                            }
                        }
                    }
                }
                Err(TrySendError::Closed(_)) => outcome.closed = true,
            }
            metrics
                .enqueue_latency
                .record(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
    }
    if outcome.delivered {
        if let Some(offered) = offered {
            metrics.stage_enqueue.record(duration_ns(offered.elapsed()));
        }
        metrics.queue_depth.add(1);
        metrics.batches_sent.add_release(1);
        metrics.items_enqueued.add(n);
    }
    outcome
}

/// A span duration as saturating nanoseconds.
#[inline]
fn duration_ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

impl ShardedFlowEngine {
    /// Spawn an engine whose per-flow estimators come from
    /// `config.spec`. Fails fast if the spec's parameters are invalid
    /// (workers never build a broken estimator mid-stream).
    ///
    /// Estimators are built with a [`BatchedMetricsObserver`] and the
    /// engine's [`FlightRecorder`] attached, so SMB
    /// morph/clear/saturation events land in the engine registry
    /// alongside the shard counters (engine-wide series — flows are
    /// too numerous to label individually) and in the flight window
    /// `smbcount doctor` dumps. The batched observer folds events into
    /// thread-local deltas; each shard worker flushes them on every
    /// batch boundary, so per-event cost is a thread-local write, not
    /// an atomic RMW.
    pub fn new(config: EngineConfig) -> smb_core::Result<Self> {
        // Probe the spec once so errors surface here, not in a worker.
        config.spec.build()?;
        let spec = config.spec;
        let registry = Arc::new(Registry::new("smb_engine"));
        let telemetry = EngineTelemetry::register(&registry);
        let observer = telemetry.handle.clone();
        let factory: Arc<EstimatorFactory> = Arc::new(move |_flow| {
            spec.build_observed(Some(observer.clone()))
                .expect("spec validated at engine construction")
        });
        Self::build(config, spec.scheme(), factory, registry, Some(telemetry))
    }

    /// Spawn an engine with a custom estimator factory. `scheme` must
    /// be the hash scheme the factory's estimators record under — the
    /// producer hashes items exactly once, through this scheme.
    pub fn with_factory(
        config: EngineConfig,
        scheme: HashScheme,
        factory: Arc<EstimatorFactory>,
    ) -> smb_core::Result<Self> {
        Self::with_registry(config, scheme, factory, Arc::new(Registry::new("smb_engine")))
    }

    /// Spawn an engine that registers its metrics in a caller-supplied
    /// registry — use this to aggregate several engines (or an engine
    /// plus application metrics) into one export surface.
    pub fn with_registry(
        config: EngineConfig,
        scheme: HashScheme,
        factory: Arc<EstimatorFactory>,
        registry: Arc<Registry>,
    ) -> smb_core::Result<Self> {
        Self::build(config, scheme, factory, registry, None)
    }

    fn build(
        config: EngineConfig,
        scheme: HashScheme,
        factory: Arc<EstimatorFactory>,
        registry: Arc<Registry>,
        telemetry: Option<EngineTelemetry>,
    ) -> smb_core::Result<Self> {
        config.validate()?;
        let mut shards = Vec::with_capacity(config.shards);
        for shard in 0..config.shards {
            let (tx, rx) = bounded::<Batch>(config.queue_batches);
            let metrics = Arc::new(ShardMetrics::register(&registry, shard));
            let shard_factory = Arc::clone(&factory);
            // Tiered tables: tiny flows stay as inline hash cells and
            // only materialize a spec-built estimator once they prove
            // they need one. Estimates are bit-identical either way.
            let mut shard_table: ShardTable = FlowTable::with_factory_tiered(
                scheme,
                Box::new(move |flow| (shard_factory)(flow)),
            );
            if config.expected_flows > 0 {
                // Flows partition ~evenly across shards; the extra 1/8
                // absorbs hash-placement skew so the common case still
                // avoids a mid-stream rehash.
                let share = config.expected_flows.div_ceil(config.shards);
                shard_table.reserve(share + share / 8);
            }
            let table: Arc<Mutex<ShardTable>> = Arc::new(Mutex::new(shard_table));
            let worker_table = Arc::clone(&table);
            let worker_metrics = Arc::clone(&metrics);
            let worker_observer = telemetry.as_ref().map(|t| Arc::clone(&t.batched));
            let worker = std::thread::Builder::new()
                .name("smb-engine-shard".into())
                .spawn(move || {
                    let mut scratch = GroupScratch::default();
                    let mut last_tiers = TierStats::default();
                    while let Some(batch) = rx.recv() {
                        let start = Instant::now();
                        if let Some(trace) = &batch.trace {
                            if let Some(offered) = trace.offered {
                                worker_metrics
                                    .stage_queue_wait
                                    .record(duration_ns(start.duration_since(offered)));
                            }
                        }
                        let mut table = worker_table.lock().expect("shard table lock");
                        record_batch_grouped(&mut *table, &batch.entries, &mut scratch);
                        let flows = table.len() as i64;
                        let tiers = table.tier_stats();
                        drop(table);
                        // Estimator events folded during this batch go
                        // into the shared cells now, before the release
                        // increment below publishes them to flush().
                        if let Some(observer) = &worker_observer {
                            observer.flush_local();
                        }
                        worker_metrics.sync_tiers(&mut last_tiers, tiers);
                        let elapsed = duration_ns(start.elapsed());
                        worker_metrics.record_latency.record(elapsed);
                        if batch.trace.is_some() {
                            worker_metrics.stage_record_batch.record(elapsed);
                        }
                        worker_metrics.flows.set(flows);
                        worker_metrics.items_recorded.add(batch.entries.len() as u64);
                        worker_metrics.queue_depth.sub(1);
                        // Release publishes the table writes above to
                        // flush()'s acquire load.
                        worker_metrics.batches_processed.add_release(1);
                    }
                })
                .expect("spawn shard worker");
            shards.push(Shard {
                tx,
                table,
                metrics,
                worker: Some(worker),
            });
        }
        let checkpoint_metrics = Arc::new(CheckpointMetrics::register(&registry));
        let query_sweep = registry.histogram_with(
            "engine_stage_duration_ns",
            STAGE_HELP,
            &[("shard", "all"), ("stage", "query_sweep")],
        );
        Ok(ShardedFlowEngine {
            pending: (0..config.shards)
                .map(|_| Batch::with_capacity(config.batch))
                .collect(),
            config,
            scheme,
            shards,
            registry,
            checkpoint_metrics,
            next_epoch: Arc::new(Mutex::new(0)),
            checkpointer: None,
            producer_ids: Arc::new(AtomicU32::new(0)),
            trace_seq: 0,
            query_sweep,
            telemetry,
        })
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The scheme the producer hashes items under. Pre-hashed ingest
    /// ([`ShardedFlowEngine::ingest_hash`]) must use exactly this.
    pub fn scheme(&self) -> HashScheme {
        self.scheme
    }

    /// Which shard owns `flow`. Deterministic in the flow key alone.
    #[inline]
    pub fn shard_of(&self, flow: u64) -> usize {
        shard_of_key(flow, self.shards.len())
    }

    /// Ingest one item for `flow`: hash once, stage into the owning
    /// shard's batch, dispatch when the batch fills. No locks unless a
    /// batch is dispatched.
    #[inline]
    pub fn ingest(&mut self, flow: u64, item: &[u8]) {
        self.ingest_hash(flow, self.scheme.item_hash(item));
    }

    /// Ingest an item already hashed under [`ShardedFlowEngine::scheme`].
    #[inline]
    pub fn ingest_hash(&mut self, flow: u64, hash: ItemHash) {
        let shard = self.shard_of(flow);
        let pending = &mut self.pending[shard];
        // Trace sampling is decided when a batch starts: the span must
        // cover the whole producer_hash stage, i.e. from first staged
        // item to queue offer.
        if pending.entries.is_empty() && self.config.trace_sample != 0 {
            self.trace_seq += 1;
            if self.trace_seq % self.config.trace_sample as u64 == 0 {
                pending.trace = Some(BatchTrace {
                    staged: Instant::now(),
                    offered: None,
                });
            }
        }
        pending.entries.push((flow, hash));
        if pending.entries.len() >= self.config.batch {
            self.dispatch(shard);
        }
    }

    /// Ingest a sequence of `(flow, item)` pairs.
    pub fn ingest_batch<'a>(&mut self, items: impl IntoIterator<Item = (u64, &'a [u8])>) {
        for (flow, item) in items {
            self.ingest(flow, item);
        }
    }

    /// Hand shard `shard`'s pending batch to its queue, applying the
    /// backpressure policy.
    fn dispatch(&mut self, shard: usize) {
        let batch = std::mem::replace(
            &mut self.pending[shard],
            Batch::with_capacity(self.config.batch),
        );
        if batch.entries.is_empty() {
            return;
        }
        let s = &self.shards[shard];
        let outcome = deliver_batch(
            &s.metrics,
            &s.tx,
            DeliveryMode::Policy(self.config.policy),
            batch,
            self.telemetry.as_ref().map(|t| &*t.flight),
        );
        if outcome.closed {
            unreachable!("engine closes queues only on drop");
        }
    }

    /// Hand out a cloneable multi-producer ingest handle. Each handle
    /// (and each clone) hashes once, batches per shard and feeds the
    /// same shard queues as [`ShardedFlowEngine::ingest`], but through
    /// `&mut self` on the *handle* — so N threads each owning a handle
    /// ingest concurrently with no producer-side serialization beyond
    /// the per-batch queue lock. Flow placement is identical across
    /// all handles and the engine (the shard hash is shared), so
    /// per-flow ordering within one producer is preserved and a flow
    /// ingested by exactly one producer gets bit-identical estimates
    /// to single-producer ingest.
    ///
    /// Every handle carries its own telemetry series
    /// (`engine_producer_*_total{producer="<id>"}`) in the engine
    /// registry.
    ///
    /// **Flush protocol.** [`EngineProducer::flush`] (or dropping the
    /// handle) delivers its pending partial batches; the engine's
    /// [`ShardedFlowEngine::flush`] barrier covers exactly the batches
    /// enqueued before it runs. Flush or drop producers first, then
    /// `engine.flush()`, and queries reflect everything they ingested.
    /// A handle that outlives the engine discards sends into closed
    /// queues, counting them in its `dropped` series — never panicking.
    pub fn producer_handle(&self) -> EngineProducer {
        let id = self.producer_ids.fetch_add(1, Ordering::Relaxed);
        EngineProducer {
            scheme: self.scheme,
            batch: self.config.batch,
            policy: self.config.policy,
            shards: self
                .shards
                .iter()
                .map(|s| (s.tx.clone(), Arc::clone(&s.metrics)))
                .collect(),
            pending: (0..self.shards.len())
                .map(|_| Batch::with_capacity(self.config.batch))
                .collect(),
            metrics: ProducerMetrics::register(&self.registry, id),
            id,
            ids: Arc::clone(&self.producer_ids),
            registry: Arc::clone(&self.registry),
            trace_sample: self.config.trace_sample,
            trace_seq: 0,
            flight: self.telemetry.as_ref().map(|t| Arc::clone(&t.flight)),
        }
    }

    /// Deliver all partial batches and wait until every shard has
    /// processed everything enqueued so far. After `flush`, queries
    /// and stats reflect every ingested (non-dropped) item.
    ///
    /// Partial batches are delivered with blocking sends under either
    /// policy: flush is a delivery point, not a load-shedding one.
    ///
    /// With [`ShardedFlowEngine::producer_handle`] producers in play,
    /// the barrier covers batches those producers delivered *before*
    /// this call — flush or drop them first (see the flush protocol on
    /// [`ShardedFlowEngine::producer_handle`]).
    ///
    /// # Panics
    /// If a shard worker died (estimator panic), since its queue can
    /// then never drain.
    pub fn flush(&mut self) {
        let _span = self.registry.timer("engine.flush");
        for shard in 0..self.shards.len() {
            if self.pending[shard].entries.is_empty() {
                continue;
            }
            let batch = std::mem::replace(
                &mut self.pending[shard],
                Batch::with_capacity(self.config.batch),
            );
            let s = &self.shards[shard];
            let outcome = deliver_batch(
                &s.metrics,
                &s.tx,
                DeliveryMode::ForceBlock,
                batch,
                self.telemetry.as_ref().map(|t| &*t.flight),
            );
            if outcome.closed {
                unreachable!("engine closes queues only on drop");
            }
        }
        for s in &self.shards {
            loop {
                let sent = s.metrics.batches_sent.get_acquire();
                // Acquire pairs with the worker's release increment,
                // making its table writes visible to this thread.
                let done = s.metrics.batches_processed.get_acquire();
                if done >= sent {
                    break;
                }
                if s.worker.as_ref().is_some_and(|w| w.is_finished()) {
                    panic!("shard worker died with {} batches unprocessed", sent - done);
                }
                std::thread::sleep(std::time::Duration::from_micros(50));
            }
        }
    }

    /// Estimate the cardinality of `flow`; `None` if never seen.
    /// Reflects data already processed by the owning worker — call
    /// [`ShardedFlowEngine::flush`] first for an up-to-date answer.
    pub fn query(&self, flow: u64) -> Option<f64> {
        let shard = self.shard_of(flow);
        self.shards[shard]
            .table
            .lock()
            .expect("shard table lock")
            .estimate(flow)
    }

    /// A cloneable, engine-independent read handle for running
    /// [`EngineQuery`]s — hand it to monitoring threads so they can
    /// query while this thread keeps ingesting.
    pub fn query_handle(&self) -> QueryHandle {
        QueryHandle {
            shards: self.shards.iter().map(|s| Arc::clone(&s.table)).collect(),
            sweep: Some(Arc::clone(&self.query_sweep)),
        }
    }

    /// Run one multi-facet [`EngineQuery`] against the current tables
    /// (one brief lock per shard). Convenience for
    /// `self.query_handle().run(query)`.
    pub fn run_query(&self, query: &EngineQuery) -> QueryReport {
        self.query_handle().run(query)
    }

    /// Every `(flow, estimate)` pair across all shards, in unspecified
    /// order.
    pub fn all_estimates(&self) -> Vec<(u64, f64)> {
        let mut all = Vec::new();
        for s in &self.shards {
            all.extend(s.table.lock().expect("shard table lock").estimates());
        }
        all
    }

    /// Per-shard counters plus flow counts — the engine's
    /// programmatic observability surface. For the exportable view
    /// (labels, histograms, morph counters) use
    /// [`ShardedFlowEngine::metrics_snapshot`].
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            shards: self
                .shards
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    let flows = s.table.lock().expect("shard table lock").len() as u64;
                    // The worker only refreshes its flows gauge after a
                    // batch; sync it to the exact count while we hold it.
                    s.metrics.flows.set(flows as i64);
                    s.metrics.snapshot(i, flows)
                })
                .collect(),
        }
    }

    /// The registry holding every engine metric: per-shard queue /
    /// drop / batch series plus the SMB morph counters (engines built
    /// via [`ShardedFlowEngine::new`]).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// A point-in-time copy of all engine metrics, ready for
    /// [`smb_telemetry::ExportFormat`] rendering.
    pub fn metrics_snapshot(&self) -> RegistrySnapshot {
        // Refresh the flow and tier gauges so the export matches
        // reality even if no batch has landed since the last table
        // change. (Promotion counters stay worker-owned: they advance
        // by per-batch deltas, so touching them here would double
        // count.)
        for s in &self.shards {
            let table = s.table.lock().expect("shard table lock");
            let flows = table.len() as i64;
            let tiers = table.tier_stats();
            drop(table);
            s.metrics.flows.set(flows);
            s.metrics.set_tier_gauges(tiers);
        }
        // Fold in any estimator events this thread produced (e.g. a
        // clear through a direct table handle); worker threads flush
        // their own deltas on every batch boundary.
        if let Some(telemetry) = &self.telemetry {
            telemetry.batched.flush_local();
        }
        self.registry.snapshot()
    }

    /// The engine's flight recorder — the last `FLIGHT_CAPACITY` (256)
    /// morph / clear / saturation / checkpoint / drop-burst events,
    /// for diagnostics (`smbcount doctor`, `morphlog --last`). `None`
    /// for engines built with a custom factory
    /// ([`ShardedFlowEngine::with_factory`] /
    /// [`ShardedFlowEngine::with_registry`]).
    pub fn flight_recorder(&self) -> Option<&Arc<FlightRecorder>> {
        self.telemetry.as_ref().map(|t| &t.flight)
    }

    /// Total memory held by per-flow estimator state across all
    /// shards, in bits (the paper's logical accounting: estimator
    /// `memory_bits` once materialized, 64 bits per stored hash for
    /// tiered cells).
    pub fn total_memory_bits(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.table
                    .lock()
                    .expect("shard table lock")
                    .total_memory_bits()
            })
            .sum()
    }

    /// Total resident bytes of per-flow storage across all shards:
    /// slot arrays plus every cell's heap state.
    pub fn memory_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.table.lock().expect("shard table lock").memory_bytes())
            .sum()
    }

    /// Tier occupancy and lifetime promotion counters summed across
    /// all shards.
    pub fn tier_stats(&self) -> TierStats {
        let mut total = TierStats::default();
        for s in &self.shards {
            let t = s.table.lock().expect("shard table lock").tier_stats();
            total.small += t.small;
            total.array += t.array;
            total.full += t.full;
            total.promotions_to_array += t.promotions_to_array;
            total.promotions_to_full += t.promotions_to_full;
        }
        total
    }

    /// Start the background checkpointer: one durable epoch per
    /// `config.interval` under `config.dir`, with `config.retries`
    /// retry attempts (after `config.backoff` each) on IO failure and
    /// the oldest epochs pruned down to `config.keep_epochs` after
    /// each success. [`ShardedFlowEngine::finish`] writes one final
    /// checkpoint after its flush; a plain drop stops the thread
    /// without one.
    ///
    /// # Errors
    /// [`smb_core::Error::InvalidParameter`] if the config is invalid
    /// or a checkpointer is already running; [`smb_core::Error::Io`]
    /// if the checkpoint directory cannot be created.
    pub fn start_checkpointer(&mut self, config: CheckpointConfig) -> smb_core::Result<()> {
        config.validate()?;
        if self.checkpointer.is_some() {
            return Err(smb_core::Error::invalid(
                "checkpointer",
                "already running — stop it before starting another",
            ));
        }
        std::fs::create_dir_all(&config.dir).map_err(|e| {
            smb_core::Error::io(format!("create dir {}: {e}", config.dir.display()))
        })?;
        let tables: Vec<Arc<Mutex<ShardTable>>> =
            self.shards.iter().map(|s| Arc::clone(&s.table)).collect();
        self.checkpointer = Some(Checkpointer::spawn(
            config,
            self.config.spec,
            tables,
            Arc::clone(&self.checkpoint_metrics),
            Arc::clone(&self.next_epoch),
            self.telemetry.as_ref().map(|t| Arc::clone(&t.flight)),
        ));
        Ok(())
    }

    /// Stop the background checkpointer (joining its thread) without
    /// writing a final epoch. No-op if none is running.
    pub fn stop_checkpointer(&mut self) {
        if let Some(checkpointer) = self.checkpointer.take() {
            checkpointer.stop();
        }
    }

    /// Flush and write one checkpoint epoch immediately, with the
    /// config's retry budget. Returns the epoch number written. Safe
    /// alongside a running background checkpointer — epoch numbers are
    /// allocated from one shared counter.
    ///
    /// # Errors
    /// [`smb_core::Error::Io`] when every attempt failed; the partial
    /// epoch directory is removed and
    /// `engine_checkpoint_failures_total` incremented.
    pub fn checkpoint_now(&mut self, config: &CheckpointConfig) -> smb_core::Result<u64> {
        config.validate()?;
        self.flush();
        let tables: Vec<Arc<Mutex<ShardTable>>> =
            self.shards.iter().map(|s| Arc::clone(&s.table)).collect();
        checkpoint_with_retries(
            config,
            &self.next_epoch,
            self.config.spec,
            &tables,
            &self.checkpoint_metrics,
            self.telemetry.as_ref().map(|t| &*t.flight),
        )
    }

    /// Recover an engine from the newest *consistent* checkpoint epoch
    /// under `dir`, with the engine configuration (shard count, batch
    /// sizing) taken from [`EngineConfig::new`] applied to the spec
    /// recorded in the checkpoint manifest. Use
    /// [`ShardedFlowEngine::restore_with`] to control the
    /// configuration.
    ///
    /// Torn or corrupted newer epochs are skipped with their reasons
    /// in [`RestoreReport::skipped`] (also counted in
    /// `engine_restore_skipped_epochs_total` and warned to stderr):
    /// recovery degrades to the newest epoch that passes every check —
    /// manifest present, checksums clean, all shard files intact —
    /// rather than failing outright. Restored per-flow estimates are
    /// bit-identical to the originals at checkpoint time, for any
    /// shard count (flows are re-partitioned on the way in).
    ///
    /// # Errors
    /// [`smb_core::Error::NoConsistentCheckpoint`] when no epoch
    /// passes validation.
    pub fn restore(dir: impl AsRef<Path>) -> smb_core::Result<(Self, RestoreReport)> {
        let (loaded, report) = select_epoch(dir.as_ref())?;
        let config = EngineConfig::new(loaded.spec);
        Self::restore_internal(config, loaded, report)
    }

    /// [`ShardedFlowEngine::restore`] with an explicit engine
    /// configuration. `config.spec` must equal the spec in the
    /// checkpoint manifest — restoring SMB state into, say, an HLL
    /// engine (or the same algorithm with a different seed) is an
    /// error, not a silent re-interpretation.
    pub fn restore_with(
        config: EngineConfig,
        dir: impl AsRef<Path>,
    ) -> smb_core::Result<(Self, RestoreReport)> {
        let (loaded, report) = select_epoch(dir.as_ref())?;
        if config.spec != loaded.spec {
            return Err(smb_core::Error::invalid(
                "spec",
                format!(
                    "checkpoint was written by {:?}, engine configured for {:?}",
                    loaded.spec, config.spec
                ),
            ));
        }
        Self::restore_internal(config, loaded, report)
    }

    fn restore_internal(
        config: EngineConfig,
        loaded: LoadedEpoch,
        mut report: RestoreReport,
    ) -> smb_core::Result<(Self, RestoreReport)> {
        let engine = Self::new(config)?;
        // Reattach the engine's own observer bundle (batched metrics +
        // flight recorder) to every restored estimator, so
        // morph/saturation events keep flowing after recovery exactly
        // as they did before the crash. Tiered cells come back
        // unmaterialized and pick the observer up from the engine's
        // factory if they ever promote.
        let observer = engine
            .telemetry
            .as_ref()
            .map(|t| t.handle.clone())
            .expect("Self::new always builds the telemetry bundle");
        let mut flows = 0u64;
        for (flow, state) in &loaded.flows {
            let mut cell = crate::durability::restore_cell(config.spec, state)?;
            if let Some(estimator) = cell.estimator_mut() {
                estimator.set_observer(Some(observer.clone()));
            }
            let shard = engine.shard_of(*flow);
            engine.shards[shard]
                .table
                .lock()
                .expect("shard table lock")
                .insert_cell(*flow, cell);
            flows += 1;
        }
        report.flows = flows;
        engine.checkpoint_metrics.restored_flows.add(flows);
        engine
            .checkpoint_metrics
            .skipped_epochs
            .add(report.skipped.len() as u64);
        engine.checkpoint_metrics.epoch.set(report.epoch as i64);
        *engine.next_epoch.lock().expect("epoch counter lock") = report.epoch + 1;
        for (epoch, reason) in &report.skipped {
            eprintln!(
                "smb-engine: skipped inconsistent checkpoint epoch {epoch} ({reason}); \
                 restored epoch {} — ingest after it is lost",
                report.epoch
            );
        }
        Ok((engine, report))
    }

    /// Flush, stop the workers, and return the final statistics. When
    /// a background checkpointer is running, one final epoch is
    /// written after the flush (best-effort: a failure is counted in
    /// `engine_checkpoint_failures_total`, not panicked on) so a clean
    /// shutdown loses nothing.
    pub fn finish(mut self) -> EngineStats {
        self.flush();
        if let Some(checkpointer) = &self.checkpointer {
            let tables: Vec<Arc<Mutex<ShardTable>>> =
                self.shards.iter().map(|s| Arc::clone(&s.table)).collect();
            let _ = checkpoint_with_retries(
                &checkpointer.config,
                &self.next_epoch,
                self.config.spec,
                &tables,
                &self.checkpoint_metrics,
                self.telemetry.as_ref().map(|t| &*t.flight),
            );
        }
        let stats = self.stats();
        self.stop_checkpointer();
        self.close_and_join();
        stats
    }

    fn close_and_join(&mut self) {
        for s in &mut self.shards {
            s.tx.close();
        }
        for s in &mut self.shards {
            if let Some(worker) = s.worker.take() {
                let _ = worker.join();
            }
        }
    }
}

/// A cloneable multi-producer ingest handle — see
/// [`ShardedFlowEngine::producer_handle`].
///
/// Owns its own per-shard partial batches and its own telemetry
/// series; shares only the shard queues (MPSC channels) and the atomic
/// metric cells with the engine and its sibling handles. Send a
/// handle to each ingest thread (`EngineProducer: Send`), or clone
/// one per thread — a clone is a *new* producer with a fresh id and
/// empty batches, not a shared view.
///
/// ```
/// use smb_engine::{EngineConfig, ShardedFlowEngine};
/// use smb_factory::{Algo, AlgoSpec};
///
/// let spec = AlgoSpec::new(Algo::Smb).memory_bits(2048).n_max(1e5).seed(7);
/// let mut engine = ShardedFlowEngine::new(EngineConfig::new(spec).with_shards(2)).unwrap();
/// let producer = engine.producer_handle();
/// std::thread::scope(|s| {
///     for t in 0u64..4 {
///         let mut p = producer.clone();
///         s.spawn(move || {
///             for i in 0..1000u32 {
///                 p.ingest(t, &i.to_le_bytes());
///             }
///             // flush-on-drop delivers the partial batches
///         });
///     }
/// });
/// drop(producer);
/// engine.flush();
/// assert_eq!(engine.stats().total_flows(), 4);
/// ```
pub struct EngineProducer {
    scheme: HashScheme,
    batch: usize,
    policy: BackpressurePolicy,
    /// Queue handle + shared metric cells per shard, same order as the
    /// engine's shard vector.
    shards: Vec<(Sender<Batch>, Arc<ShardMetrics>)>,
    /// This producer's own partial batch per shard.
    pending: Vec<Batch>,
    metrics: ProducerMetrics,
    id: u32,
    ids: Arc<AtomicU32>,
    registry: Arc<Registry>,
    /// The engine's `trace_sample` knob, applied independently to this
    /// producer's own batch sequence.
    trace_sample: u32,
    /// Batches staged by this producer, for trace sampling.
    trace_seq: u64,
    /// The engine's flight recorder, for drop-burst events on this
    /// producer's dispatch path.
    flight: Option<Arc<FlightRecorder>>,
}

impl EngineProducer {
    /// This handle's producer id (the `producer` label on its series).
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The scheme items are hashed under — identical to the engine's.
    pub fn scheme(&self) -> HashScheme {
        self.scheme
    }

    /// Which shard owns `flow` — identical to the engine's placement.
    #[inline]
    pub fn shard_of(&self, flow: u64) -> usize {
        shard_of_key(flow, self.shards.len())
    }

    /// Ingest one item for `flow`: hash once, stage, dispatch when the
    /// batch fills — the producer-handle version of
    /// [`ShardedFlowEngine::ingest`].
    #[inline]
    pub fn ingest(&mut self, flow: u64, item: &[u8]) {
        self.ingest_hash(flow, self.scheme.item_hash(item));
    }

    /// Ingest an item already hashed under [`EngineProducer::scheme`].
    #[inline]
    pub fn ingest_hash(&mut self, flow: u64, hash: ItemHash) {
        let shard = self.shard_of(flow);
        let pending = &mut self.pending[shard];
        if pending.entries.is_empty() && self.trace_sample != 0 {
            self.trace_seq += 1;
            if self.trace_seq % self.trace_sample as u64 == 0 {
                pending.trace = Some(BatchTrace {
                    staged: Instant::now(),
                    offered: None,
                });
            }
        }
        pending.entries.push((flow, hash));
        if pending.entries.len() >= self.batch {
            self.dispatch(shard, DeliveryMode::Policy(self.policy));
        }
    }

    /// Ingest a sequence of `(flow, item)` pairs.
    pub fn ingest_batch<'a>(&mut self, items: impl IntoIterator<Item = (u64, &'a [u8])>) {
        for (flow, item) in items {
            self.ingest(flow, item);
        }
    }

    /// Deliver this producer's pending partial batches (blocking until
    /// the queues accept them). Does **not** wait for workers to
    /// process anything — that barrier is [`ShardedFlowEngine::flush`].
    /// Also runs on drop.
    pub fn flush(&mut self) {
        for shard in 0..self.shards.len() {
            if !self.pending[shard].entries.is_empty() {
                self.dispatch(shard, DeliveryMode::ForceBlock);
            }
        }
    }

    /// A point-in-time snapshot of this producer's counters.
    pub fn stats(&self) -> ProducerStats {
        self.metrics.snapshot(self.id)
    }

    /// Deliver this producer's pending batches, then wait until the
    /// shard workers have processed every batch *delivered so far* —
    /// the producer-side equivalent of [`ShardedFlowEngine::flush`],
    /// available without `&mut` access to the engine. After `barrier()`
    /// returns, a query through a [`QueryHandle`] reflects everything
    /// this producer ingested (the per-shard sent/processed counters
    /// are engine-global, so it may also wait out other producers'
    /// in-flight batches — a stronger, never weaker, guarantee).
    ///
    /// Liveness matches `flush`: if the engine has been dropped, its
    /// workers drained every delivered batch on shutdown, so the wait
    /// still terminates.
    ///
    /// [`ShardedFlowEngine::flush`]: crate::ShardedFlowEngine::flush
    pub fn barrier(&mut self) {
        self.flush();
        for (_, metrics) in &self.shards {
            loop {
                let sent = metrics.batches_sent.get_acquire();
                // Acquire pairs with the worker's release increment,
                // making its table writes visible to this thread.
                let done = metrics.batches_processed.get_acquire();
                if done >= sent {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_micros(50));
            }
        }
    }

    fn dispatch(&mut self, shard: usize, mode: DeliveryMode) {
        let batch = std::mem::replace(&mut self.pending[shard], Batch::with_capacity(self.batch));
        if batch.entries.is_empty() {
            return;
        }
        let n = batch.entries.len() as u64;
        let (tx, metrics) = &self.shards[shard];
        let outcome = deliver_batch(metrics, tx, mode, batch, self.flight.as_deref());
        if outcome.queue_full {
            self.metrics.queue_full.inc();
        }
        if outcome.delivered {
            self.metrics.items.add(n);
            self.metrics.batches.inc();
        } else {
            // Dropped by policy (already in the shard's dropped_items)
            // or the engine is gone and the queue is closed; either
            // way this producer's items went nowhere.
            self.metrics.dropped.add(n);
        }
    }
}

impl Clone for EngineProducer {
    /// A new producer with a fresh id, empty partial batches and its
    /// own telemetry series, feeding the same engine.
    fn clone(&self) -> Self {
        let id = self.ids.fetch_add(1, Ordering::Relaxed);
        EngineProducer {
            scheme: self.scheme,
            batch: self.batch,
            policy: self.policy,
            shards: self.shards.clone(),
            pending: (0..self.shards.len())
                .map(|_| Batch::with_capacity(self.batch))
                .collect(),
            metrics: ProducerMetrics::register(&self.registry, id),
            id,
            ids: Arc::clone(&self.ids),
            registry: Arc::clone(&self.registry),
            trace_sample: self.trace_sample,
            trace_seq: 0,
            flight: self.flight.clone(),
        }
    }
}

impl Drop for EngineProducer {
    /// Delivers pending partial batches (counting them dropped if the
    /// engine is already gone) so no staged item is silently lost.
    fn drop(&mut self) {
        self.flush();
    }
}

impl std::fmt::Debug for EngineProducer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineProducer")
            .field("id", &self.id)
            .field("shards", &self.shards.len())
            .field("batch", &self.batch)
            .field("policy", &self.policy)
            .finish()
    }
}

impl Drop for ShardedFlowEngine {
    /// Stops the checkpointer (without a final epoch) and the workers.
    /// Pending (undispatched) partial batches are discarded — call
    /// [`ShardedFlowEngine::flush`] or [`ShardedFlowEngine::finish`]
    /// first if you need them counted.
    fn drop(&mut self) {
        self.stop_checkpointer();
        self.close_and_join();
    }
}

impl std::fmt::Debug for ShardedFlowEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedFlowEngine")
            .field("shards", &self.shards.len())
            .field("batch", &self.config.batch)
            .field("queue_batches", &self.config.queue_batches)
            .field("policy", &self.config.policy)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smb_factory::Algo;

    fn spec() -> AlgoSpec {
        AlgoSpec::new(Algo::Smb).memory_bits(2048).n_max(1e5).seed(3)
    }

    #[test]
    fn config_validation() {
        assert!(ShardedFlowEngine::new(EngineConfig::new(spec()).with_shards(0)).is_err());
        assert!(ShardedFlowEngine::new(EngineConfig::new(spec()).with_batch(0)).is_err());
        assert!(ShardedFlowEngine::new(EngineConfig::new(spec()).with_queue_batches(0)).is_err());
        let bad = AlgoSpec::new(Algo::Smb).memory_bits(0);
        assert!(ShardedFlowEngine::new(EngineConfig::new(bad)).is_err());
    }

    #[test]
    fn flows_partition_stably() {
        let engine = ShardedFlowEngine::new(EngineConfig::new(spec()).with_shards(4)).unwrap();
        for flow in 0..100u64 {
            assert_eq!(engine.shard_of(flow), engine.shard_of(flow));
            assert!(engine.shard_of(flow) < 4);
        }
    }

    #[test]
    fn ingest_flush_query_roundtrip() {
        let mut engine = ShardedFlowEngine::new(
            EngineConfig::new(spec()).with_shards(3).with_batch(64),
        )
        .unwrap();
        for i in 0..5000u32 {
            engine.ingest(7, &i.to_le_bytes());
            engine.ingest(8, &(i % 50).to_le_bytes());
        }
        engine.flush();
        let e7 = engine.query(7).expect("flow 7 exists");
        let e8 = engine.query(8).expect("flow 8 exists");
        assert!((e7 - 5000.0).abs() / 5000.0 < 0.3, "{e7}");
        assert!((e8 - 50.0).abs() / 50.0 < 0.5, "{e8}");
        assert_eq!(engine.query(9), None);
        let top = engine
            .run_query(&EngineQuery::new().with_top_k(1))
            .top_k
            .unwrap();
        assert_eq!(top[0].0, 7);
        let stats = engine.stats();
        assert_eq!(stats.total_enqueued(), 10_000);
        assert_eq!(stats.total_recorded(), 10_000);
        assert_eq!(stats.total_dropped(), 0);
        assert_eq!(stats.total_flows(), 2);
    }

    #[test]
    fn finish_returns_complete_stats() {
        let mut engine =
            ShardedFlowEngine::new(EngineConfig::new(spec()).with_shards(2).with_batch(16))
                .unwrap();
        for i in 0..1000u32 {
            engine.ingest(i as u64 % 10, &i.to_le_bytes());
        }
        let stats = engine.finish();
        assert_eq!(stats.total_recorded(), 1000);
        assert_eq!(stats.total_flows(), 10);
        // 1000 items over 10 flows × 2 shards: occupancy is meaningful.
        for s in &stats.shards {
            if s.batches_sent > 0 {
                assert!(s.mean_batch_occupancy > 0.0);
            }
        }
    }

    #[test]
    fn metrics_snapshot_mirrors_stats_and_counts_morphs() {
        let mut engine = ShardedFlowEngine::new(
            EngineConfig::new(spec()).with_shards(2).with_batch(32),
        )
        .unwrap();
        for i in 0..60_000u32 {
            engine.ingest(i as u64 % 3, &i.to_le_bytes());
        }
        engine.flush();
        let stats = engine.stats();
        let snap = engine.metrics_snapshot();
        assert_eq!(snap.registry, "smb_engine");
        assert_eq!(
            snap.counter_total("engine_items_enqueued_total"),
            stats.total_enqueued()
        );
        assert_eq!(
            snap.counter_total("engine_items_recorded_total"),
            stats.total_recorded()
        );
        for s in &stats.shards {
            let shard = s.shard.to_string();
            let labels: &[(&str, &str)] = &[("shard", &shard)];
            assert_eq!(
                snap.get("engine_items_enqueued_total", labels)
                    .unwrap()
                    .as_counter(),
                Some(s.items_enqueued)
            );
            assert_eq!(
                snap.get("engine_flows", labels).unwrap().as_gauge(),
                Some(s.flows as i64)
            );
            // Flushed: the backlog gauge must have drained to zero.
            assert_eq!(
                snap.get("engine_queue_depth", labels).unwrap().as_gauge(),
                Some(0)
            );
            let occupancy = snap
                .get("engine_batch_occupancy", labels)
                .unwrap()
                .as_histogram()
                .unwrap();
            assert!(occupancy.count >= s.batches_sent);
        }
        // 20k items per flow into a 2048-bit SMB must morph, and the
        // engine-built estimators carry the registry observer.
        assert!(snap.counter_total("smb_morph_events_total") > 0);
        // Enqueue latency was sampled once per delivered or dropped batch.
        let latency: u64 = (0..2)
            .map(|i| {
                let shard = i.to_string();
                snap.get("engine_enqueue_latency_ns", &[("shard", shard.as_str())])
                    .map_or(0, |v| v.as_histogram().unwrap().count)
            })
            .sum();
        assert!(latency > 0);
    }

    #[test]
    fn trace_sampling_fills_stage_histograms() {
        let mut engine = ShardedFlowEngine::new(
            EngineConfig::new(spec())
                .with_shards(1)
                .with_batch(32)
                .with_trace_sample(1),
        )
        .unwrap();
        for i in 0..5_000u32 {
            engine.ingest(i as u64 % 7, &i.to_le_bytes());
        }
        engine.flush();
        engine.query_handle().run(&EngineQuery::new().with_flow_count());
        let snap = engine.metrics_snapshot();
        for stage in ["producer_hash", "enqueue", "queue_wait", "record_batch"] {
            let h = snap
                .get("engine_stage_duration_ns", &[("shard", "0"), ("stage", stage)])
                .unwrap_or_else(|| panic!("stage {stage} missing"))
                .as_histogram()
                .unwrap();
            assert!(h.count > 0, "stage {stage} recorded no spans");
        }
        let sweep = snap
            .get(
                "engine_stage_duration_ns",
                &[("shard", "all"), ("stage", "query_sweep")],
            )
            .unwrap()
            .as_histogram()
            .unwrap();
        assert_eq!(sweep.count, 1, "one query sweep ran");
    }

    #[test]
    fn tracing_off_by_default_records_no_stage_spans() {
        let mut engine =
            ShardedFlowEngine::new(EngineConfig::new(spec()).with_shards(1).with_batch(32))
                .unwrap();
        for i in 0..5_000u32 {
            engine.ingest(i as u64 % 7, &i.to_le_bytes());
        }
        engine.flush();
        let snap = engine.metrics_snapshot();
        for stage in ["producer_hash", "enqueue", "queue_wait", "record_batch"] {
            let h = snap
                .get("engine_stage_duration_ns", &[("shard", "0"), ("stage", stage)])
                .unwrap()
                .as_histogram()
                .unwrap();
            assert_eq!(h.count, 0, "stage {stage} sampled with tracing off");
        }
    }

    #[test]
    fn trace_sampling_covers_producer_handles() {
        let mut engine = ShardedFlowEngine::new(
            EngineConfig::new(spec())
                .with_shards(1)
                .with_batch(32)
                .with_trace_sample(4),
        )
        .unwrap();
        let producer = engine.producer_handle();
        std::thread::scope(|s| {
            for t in 0u64..2 {
                let mut p = producer.clone();
                s.spawn(move || {
                    for i in 0..4_000u32 {
                        p.ingest(t, &i.to_le_bytes());
                    }
                });
            }
        });
        drop(producer);
        engine.flush();
        let snap = engine.metrics_snapshot();
        let staged = snap
            .get(
                "engine_stage_duration_ns",
                &[("shard", "0"), ("stage", "producer_hash")],
            )
            .unwrap()
            .as_histogram()
            .unwrap();
        // 2 producers × 4000 items / 32 per batch = 250 batches; 1/4
        // sampling must trace roughly a quarter of them.
        assert!(staged.count >= 30, "only {} traced batches", staged.count);
        assert!(staged.count <= 80, "{} traced batches", staged.count);
    }

    #[test]
    fn flight_recorder_captures_lifecycle_events() {
        let dir = std::env::temp_dir().join(format!(
            "smb-flight-engine-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        // Block policy: nothing is dropped, so the window holds every
        // lifecycle event (2 flows morph far fewer than 256 times) and
        // the assertions are schedule-independent.
        let mut engine = ShardedFlowEngine::new(
            EngineConfig::new(spec())
                .with_shards(1)
                .with_batch(8)
                .with_queue_batches(1)
                .with_policy(BackpressurePolicy::Block),
        )
        .unwrap();
        for i in 0..200_000u32 {
            engine.ingest(i as u64 % 2, &i.to_le_bytes());
        }
        engine.flush();
        let epoch = engine
            .checkpoint_now(&CheckpointConfig::new(&dir))
            .expect("checkpoint");
        let flight = engine.flight_recorder().expect("built via new()");
        let window = flight.recent(FLIGHT_CAPACITY);
        use smb_telemetry::FlightEventKind as K;
        assert!(
            window.iter().any(|e| e.kind == K::Morph),
            "100k items into a 2048-bit SMB must morph"
        );
        let checkpoint = window
            .iter()
            .rev()
            .find(|e| e.kind == K::Checkpoint)
            .expect("checkpoint event recorded");
        assert_eq!(checkpoint.items, epoch, "checkpoint event carries the epoch");
        // The registry mirrors the recorder.
        let snap = engine.metrics_snapshot();
        assert_eq!(
            snap.counter_total("smb_flight_events_total"),
            flight.recorded_total()
        );
        drop(engine);
        let _ = std::fs::remove_dir_all(&dir);

        // A second engine with the drop policy and a 1-batch queue: if
        // any batch was shed, its burst must appear in the window with
        // a non-zero dropped-item count. (Whether drops happen at all
        // depends on worker scheduling, so the check is conditional —
        // but when they flood the ring, evicting morphs is exactly the
        // documented overwrite-oldest behaviour, not a failure.)
        let mut dropper = ShardedFlowEngine::new(
            EngineConfig::new(spec())
                .with_shards(1)
                .with_batch(8)
                .with_queue_batches(1)
                .with_policy(BackpressurePolicy::DropNewest),
        )
        .unwrap();
        for i in 0..200_000u32 {
            dropper.ingest(i as u64 % 2, &i.to_le_bytes());
        }
        dropper.flush();
        if dropper.stats().total_dropped() > 0 {
            let window = dropper
                .flight_recorder()
                .expect("built via new()")
                .recent(FLIGHT_CAPACITY);
            let dropped: u64 = window
                .iter()
                .filter(|e| e.kind == K::DropBurst)
                .map(|e| e.items)
                .sum();
            assert!(dropped > 0, "drop bursts missing from flight window");
        }
    }

    #[test]
    fn counters_stay_monotone_under_drop_policy() {
        // A tiny queue with the drop policy forces queue-full events;
        // dropped batches must not decrement any counter.
        let mut engine = ShardedFlowEngine::new(
            EngineConfig::new(spec())
                .with_shards(1)
                .with_batch(8)
                .with_queue_batches(1)
                .with_policy(BackpressurePolicy::DropNewest),
        )
        .unwrap();
        let mut last_enqueued = 0u64;
        let mut last_sent = 0u64;
        for i in 0..50_000u32 {
            engine.ingest(i as u64 % 5, &i.to_le_bytes());
            if i % 1000 == 0 {
                let s = &engine.stats().shards[0];
                assert!(s.items_enqueued >= last_enqueued, "enqueued went down");
                assert!(s.batches_sent >= last_sent, "batches_sent went down");
                last_enqueued = s.items_enqueued;
                last_sent = s.batches_sent;
            }
        }
        let stats = engine.finish();
        let s = &stats.shards[0];
        assert_eq!(s.items_recorded, s.items_enqueued);
        assert_eq!(
            s.items_enqueued + s.dropped_items,
            50_000,
            "every item is either enqueued or dropped"
        );
    }

    #[test]
    fn shared_registry_hosts_multiple_engines() {
        let registry = Arc::new(smb_telemetry::Registry::new("smb_fleet"));
        let sp = spec();
        let factory: Arc<EstimatorFactory> = Arc::new(move |_| sp.build().unwrap());
        let mut a = ShardedFlowEngine::with_registry(
            EngineConfig::new(sp).with_shards(1).with_batch(16),
            sp.scheme(),
            Arc::clone(&factory),
            Arc::clone(&registry),
        )
        .unwrap();
        let mut b = ShardedFlowEngine::with_registry(
            EngineConfig::new(sp).with_shards(1).with_batch(16),
            sp.scheme(),
            factory,
            Arc::clone(&registry),
        )
        .unwrap();
        for i in 0..1000u32 {
            a.ingest(1, &i.to_le_bytes());
            b.ingest(2, &i.to_le_bytes());
        }
        a.flush();
        b.flush();
        // Both engines share shard-0 series in the common registry.
        let snap = registry.snapshot();
        assert_eq!(snap.counter_total("engine_items_enqueued_total"), 2000);
    }

    #[test]
    fn grouped_recording_matches_per_item_on_interleaved_batches() {
        // Four flows deliberately interleaved so the contiguity fast
        // path never triggers but few_flows_dominate approves the
        // sort: the grouping must still replay every flow's items in
        // arrival order.
        let sp = spec();
        let scheme = sp.scheme();
        let mut grouped = FlowTable::new(move |_| sp.build().unwrap());
        let mut reference = FlowTable::new(move |_| sp.build().unwrap());
        let mut scratch = GroupScratch::default();
        let mut state = 0x9E37_79B9_u64;
        for round in 0..50u64 {
            let batch: Vec<(u64, ItemHash)> = (0..257u64)
                .map(|i| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    (state % 4, scheme.item_hash(&(round * 1000 + i).to_le_bytes()))
                })
                .collect();
            record_batch_grouped(&mut grouped, &batch, &mut scratch);
            for &(flow, hash) in &batch {
                reference.record_hash(flow, hash);
            }
        }
        assert!(!scratch.order.is_empty(), "four-flow batches must take the sort path");
        assert_eq!(grouped.len(), reference.len());
        for flow in 0..4u64 {
            assert_eq!(grouped.estimate(flow), reference.estimate(flow), "flow {flow}");
        }
    }

    #[test]
    fn grouped_recording_matches_per_item_on_flow_dense_batches() {
        // Nearly every item from a different flow: the density check
        // must route around the sort, and results must still match.
        let sp = spec();
        let scheme = sp.scheme();
        let mut grouped = FlowTable::new(move |_| sp.build().unwrap());
        let mut reference = FlowTable::new(move |_| sp.build().unwrap());
        let mut scratch = GroupScratch::default();
        let batch: Vec<(u64, ItemHash)> = (0..1024u64)
            .map(|i| {
                // moremur-spread flows, shuffled order, ~700 distinct.
                (mix::moremur(i) % 700, scheme.item_hash(&i.to_le_bytes()))
            })
            .collect();
        record_batch_grouped(&mut grouped, &batch, &mut scratch);
        for &(flow, hash) in &batch {
            reference.record_hash(flow, hash);
        }
        assert!(scratch.order.is_empty(), "flow-dense batches must skip the sort path");
        assert_eq!(grouped.len(), reference.len());
        for (flow, _) in &batch {
            assert_eq!(grouped.estimate(*flow), reference.estimate(*flow), "flow {flow}");
        }
    }

    #[test]
    fn grouped_recording_batched_probe_matches_per_item_on_tiered_stores() {
        // The third regime (short runs, diverse flows → batched probe)
        // on *tiered* tables: the inline-tier fast path must record
        // into Small/Array cells, promote at the exact same items as
        // the per-item model, and leave a bit-identical tier census.
        let sp = spec();
        let scheme = sp.scheme();
        let sp2 = sp.clone();
        let mut grouped = FlowTable::with_factory_tiered(scheme.clone(), move |_| sp.build().unwrap());
        let mut reference = FlowTable::with_factory_tiered(scheme.clone(), move |_| sp2.build().unwrap());
        let mut scratch = GroupScratch::default();
        let mut state = 0x5EED_u64;
        for round in 0..40u64 {
            // Run-length-1 interleave: a wide tail of ~20k flows (most
            // stay Small, some reach Array) plus 8 hot flows (~1/8 of
            // items) that promote to Full mid-run. The hot fraction is
            // kept small so the 16-point density sample stays diverse
            // and every round takes the batched-probe regime.
            let batch: Vec<(u64, ItemHash)> = (0..1024u64)
                .map(|i| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    // High bits only: the LCG's low bits are periodic
                    // and would alias with the sampler's stride.
                    let flow = if state >> 61 == 0 { (state >> 33) % 8 } else { (state >> 33) % 20_000 };
                    (flow, scheme.item_hash(&(round * 100_000 + i).to_le_bytes()))
                })
                .collect();
            record_batch_grouped(&mut grouped, &batch, &mut scratch);
            for &(flow, hash) in &batch {
                reference.record_hash(flow, hash);
            }
        }
        assert!(scratch.order.is_empty(), "diverse-flow batches must take the batched-probe path");
        assert_eq!(grouped.len(), reference.len());
        assert_eq!(grouped.tier_stats(), reference.tier_stats(), "tier censuses must match");
        for flow in 0..20_000u64 {
            assert_eq!(grouped.estimate(flow), reference.estimate(flow), "flow {flow}");
        }
    }

    #[test]
    fn grouped_recording_matches_per_item_on_bursty_batches() {
        // Unsorted packet trains (runs of 2..=20 items per flow, flows
        // revisited out of order): run slicing must engage without any
        // sort, covering both the short-run direct path and the long-run
        // `record_hashes` path, and replay arrival order exactly.
        let sp = spec();
        let scheme = sp.scheme();
        let mut grouped = FlowTable::new(move |_| sp.build().unwrap());
        let mut reference = FlowTable::new(move |_| sp.build().unwrap());
        let mut scratch = GroupScratch::default();
        let mut state = 0xB0A7_u64;
        let mut item = 0u64;
        let mut batch: Vec<(u64, ItemHash)> = Vec::new();
        while batch.len() < 2048 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let flow = (state >> 33) % 50;
            let train = 2 + (state % 19) as usize + if state % 7 == 0 { 40 } else { 0 };
            for _ in 0..train {
                item += 1;
                batch.push((flow, scheme.item_hash(&item.to_le_bytes())));
            }
        }
        record_batch_grouped(&mut grouped, &batch, &mut scratch);
        for &(flow, hash) in &batch {
            reference.record_hash(flow, hash);
        }
        assert!(scratch.order.is_empty(), "train-shaped batches must slice runs, not sort");
        assert_eq!(grouped.len(), reference.len());
        for flow in 0..50u64 {
            assert_eq!(grouped.estimate(flow), reference.estimate(flow), "flow {flow}");
        }
    }

    #[test]
    fn grouped_recording_uses_fast_path_on_contiguous_batches() {
        let sp = spec();
        let scheme = sp.scheme();
        let mut grouped = FlowTable::new(move |_| sp.build().unwrap());
        let mut reference = FlowTable::new(move |_| sp.build().unwrap());
        let mut scratch = GroupScratch::default();
        // Sorted by flow: single flows, runs, and a trailing singleton.
        let batch: Vec<(u64, ItemHash)> = [1u64, 2, 2, 2, 5, 5, 9]
            .iter()
            .enumerate()
            .map(|(i, &f)| (f, scheme.item_hash(&(i as u64).to_le_bytes())))
            .collect();
        record_batch_grouped(&mut grouped, &batch, &mut scratch);
        for &(flow, hash) in &batch {
            reference.record_hash(flow, hash);
        }
        for flow in [1u64, 2, 5, 9] {
            assert_eq!(grouped.estimate(flow), reference.estimate(flow), "flow {flow}");
        }
        assert!(scratch.order.is_empty(), "fast path must not populate the sort buffer");
    }

    #[test]
    fn expected_flows_pre_sizing_changes_nothing_observable() {
        let run = |expected| {
            let mut engine = ShardedFlowEngine::new(
                EngineConfig::new(spec())
                    .with_shards(2)
                    .with_batch(32)
                    .with_expected_flows(expected),
            )
            .unwrap();
            for i in 0..4000u32 {
                engine.ingest(i as u64 % 40, &i.to_le_bytes());
            }
            engine.flush();
            let mut all = engine.all_estimates();
            all.sort_by_key(|&(flow, _)| flow);
            all
        };
        let unsized_ = run(0);
        let presized = run(40);
        let oversized = run(100_000);
        assert_eq!(unsized_.len(), 40);
        assert_eq!(unsized_, presized);
        assert_eq!(unsized_, oversized);
    }

    #[test]
    fn query_top_k_is_descending_and_complete() {
        let mut engine = ShardedFlowEngine::new(
            EngineConfig::new(spec()).with_shards(3).with_batch(16),
        )
        .unwrap();
        for flow in 0..30u64 {
            // Flow f carries f+1 distinct items: distinct ranks.
            for i in 0..=flow {
                engine.ingest(flow, &(flow * 1000 + i).to_le_bytes());
            }
        }
        engine.flush();
        let top_k = |k| {
            engine
                .run_query(&EngineQuery::new().with_top_k(k))
                .top_k
                .unwrap()
        };
        let top = top_k(10);
        assert_eq!(top.len(), 10);
        for pair in top.windows(2) {
            assert!(
                pair[0].1 > pair[1].1
                    || (pair[0].1 == pair[1].1 && pair[0].0 < pair[1].0),
                "top-k not in pinned (estimate desc, flow asc) order: {top:?}"
            );
        }
        // k beyond the flow count returns everything, still ordered.
        let all = top_k(1000);
        assert_eq!(all.len(), 30);
        assert_eq!(&all[..10], &top[..]);
        assert!(top_k(0).is_empty());
    }

    #[test]
    fn multi_facet_query_answers_everything_in_one_sweep() {
        let mut engine = ShardedFlowEngine::new(
            EngineConfig::new(spec()).with_shards(2).with_batch(16),
        )
        .unwrap();
        for flow in 0..20u64 {
            for i in 0..=flow * 10 {
                engine.ingest(flow, &(flow * 100_000 + i).to_le_bytes());
            }
        }
        engine.flush();
        let report = engine.run_query(
            &EngineQuery::new()
                .with_estimate(19)
                .with_top_k(5)
                .with_flows_over(50.0)
                .with_flow_count()
                .with_memory_bytes(),
        );
        assert_eq!(report.estimate, engine.query(19));
        assert!(report.estimate.is_some());
        let top = report.top_k.unwrap();
        assert_eq!(top.len(), 5);
        assert_eq!(top[0].0, 19, "largest flow leads: {top:?}");
        let over = report.flows_over.unwrap();
        assert!(!over.is_empty() && over.len() < 20, "{over:?}");
        for pair in over.windows(2) {
            assert!(pair[0].1 >= pair[1].1, "not descending: {over:?}");
        }
        for &(_, estimate) in &over {
            assert!(estimate >= 50.0);
        }
        assert_eq!(report.flow_count, Some(20));
        assert_eq!(report.memory_bytes, Some(engine.memory_bytes()));
        assert_eq!(report.tier_stats.flows(), 20);
        // An empty query still carries the tier census and nothing else.
        let empty = engine.run_query(&EngineQuery::new());
        assert_eq!(empty.estimate, None);
        assert_eq!(empty.top_k, None);
        assert_eq!(empty.flows_over, None);
        assert_eq!(empty.flow_count, None);
        assert_eq!(empty.memory_bytes, None);
        assert_eq!(empty.tier_stats, report.tier_stats);
    }

    #[test]
    fn query_handle_reads_while_the_owner_ingests() {
        // The handle must answer queries without borrowing the engine:
        // a monitor thread queries concurrently while this thread
        // keeps calling `&mut self` ingest methods.
        let mut engine = ShardedFlowEngine::new(
            EngineConfig::new(spec()).with_shards(2).with_batch(8),
        )
        .unwrap();
        let handle = engine.query_handle();
        let monitor = handle.clone();
        std::thread::scope(|s| {
            let reader = s.spawn(move || {
                let mut last_flows = 0;
                for _ in 0..200 {
                    let report = monitor.run(
                        &EngineQuery::new().with_flow_count().with_top_k(3),
                    );
                    let flows = report.flow_count.unwrap();
                    assert!(flows >= last_flows, "flow count went backwards");
                    last_flows = flows;
                }
                last_flows
            });
            for i in 0..20_000u32 {
                engine.ingest(i as u64 % 64, &i.to_le_bytes());
            }
            engine.flush();
            let seen = reader.join().unwrap();
            assert!(seen <= 64);
        });
        // After the flush the handle reads the complete state.
        let report = handle.run(&EngineQuery::new().with_flow_count());
        assert_eq!(report.flow_count, Some(64));
    }

    #[test]
    fn tiered_shards_census_and_promote_exactly() {
        let mut engine = ShardedFlowEngine::new(
            EngineConfig::new(spec()).with_shards(4).with_batch(32),
        )
        .unwrap();
        // 60 singleton flows, 20 mid flows (8 distinct each: array
        // tier), 10 heavy flows (200 distinct each: materialized).
        for flow in 0..60u64 {
            engine.ingest(flow, b"lonely");
        }
        for flow in 100..120u64 {
            for i in 0..8u64 {
                engine.ingest(flow, &(flow * 1000 + i).to_le_bytes());
            }
        }
        for flow in 200..210u64 {
            for i in 0..200u64 {
                engine.ingest(flow, &(flow * 1000 + i).to_le_bytes());
            }
        }
        engine.flush();
        let tiers = engine.tier_stats();
        assert_eq!(tiers.small, 60);
        assert_eq!(tiers.array, 20);
        assert_eq!(tiers.full, 10);
        assert_eq!(tiers.promotions_to_array, 30);
        assert_eq!(tiers.promotions_to_full, 10);
        // The per-shard telemetry mirrors the same census.
        let snap = engine.metrics_snapshot();
        let gauge_total = |tier: &str| -> i64 {
            (0..4)
                .map(|i| {
                    let shard = i.to_string();
                    snap.get(
                        "engine_tier_flows",
                        &[("shard", shard.as_str()), ("tier", tier)],
                    )
                    .and_then(|v| v.as_gauge())
                    .unwrap_or(0)
                })
                .sum()
        };
        assert_eq!(gauge_total("small"), 60);
        assert_eq!(gauge_total("array"), 20);
        assert_eq!(gauge_total("full"), 10);
        assert_eq!(snap.counter_total("engine_tier_promotions_total"), 40);
        // Querying a tiered flow is bit-identical to an eager table.
        let sp = spec();
        let mut reference = FlowTable::new(move |_| sp.build().unwrap());
        for i in 0..8u64 {
            reference.record_hash(100, engine.scheme().item_hash(&(100_000 + i).to_le_bytes()));
        }
        assert_eq!(engine.query(100), reference.estimate(100));
    }

    #[test]
    fn producer_partitioned_flows_match_single_producer_ingest() {
        // Each flow ingested by exactly one producer thread must give
        // estimates bit-identical to the engine's own ingest path.
        let sp = spec();
        let run_multi = || {
            let mut engine = ShardedFlowEngine::new(
                EngineConfig::new(sp).with_shards(2).with_batch(32),
            )
            .unwrap();
            let producer = engine.producer_handle();
            std::thread::scope(|s| {
                for t in 0u64..4 {
                    let mut p = producer.clone();
                    s.spawn(move || {
                        for flow in (t..12).step_by(4) {
                            for i in 0..500u32 {
                                p.ingest(flow, &(flow * 10_000 + i as u64).to_le_bytes());
                            }
                        }
                    });
                }
            });
            drop(producer);
            engine.flush();
            let mut all = engine.all_estimates();
            all.sort_by_key(|&(flow, _)| flow);
            all
        };
        let mut engine = ShardedFlowEngine::new(
            EngineConfig::new(sp).with_shards(2).with_batch(32),
        )
        .unwrap();
        for flow in 0u64..12 {
            for i in 0..500u32 {
                engine.ingest(flow, &(flow * 10_000 + i as u64).to_le_bytes());
            }
        }
        engine.flush();
        let mut reference = engine.all_estimates();
        reference.sort_by_key(|&(flow, _)| flow);
        assert_eq!(run_multi(), reference);
    }

    #[test]
    fn producer_counters_attribute_and_conserve_items() {
        let mut engine = ShardedFlowEngine::new(
            EngineConfig::new(spec()).with_shards(2).with_batch(16),
        )
        .unwrap();
        let p0 = engine.producer_handle();
        let mut handles = vec![p0.clone(), p0.clone()];
        assert_eq!(p0.id(), 0);
        assert_eq!(handles[0].id(), 1);
        assert_eq!(handles[1].id(), 2);
        for (k, p) in handles.iter_mut().enumerate() {
            for i in 0..1000u32 {
                p.ingest((k as u64) * 100 + i as u64 % 7, &i.to_le_bytes());
            }
            p.flush();
        }
        let per_producer: Vec<_> = handles.iter().map(|p| p.stats()).collect();
        drop(handles);
        drop(p0);
        engine.flush();
        for (k, s) in per_producer.iter().enumerate() {
            assert_eq!(s.producer, (k + 1) as u32);
            assert_eq!(s.items, 1000, "producer {k} delivered everything");
            assert!(s.batches >= 1000 / 16);
            assert_eq!(s.dropped_items, 0);
        }
        // Shard counters hold the union; engine stats stay consistent.
        let stats = engine.stats();
        assert_eq!(stats.total_enqueued(), 2000);
        assert_eq!(stats.total_recorded(), 2000);
        assert_eq!(stats.total_flows(), 14);
        // The registry export carries the per-producer series.
        let snap = engine.metrics_snapshot();
        assert_eq!(snap.counter_total("engine_producer_items_total"), 2000);
        assert_eq!(
            snap.get("engine_producer_items_total", &[("producer", "1")])
                .unwrap()
                .as_counter(),
            Some(1000)
        );
    }

    #[test]
    fn producer_flush_on_drop_delivers_partials() {
        let mut engine = ShardedFlowEngine::new(
            EngineConfig::new(spec()).with_shards(1).with_batch(1024),
        )
        .unwrap();
        {
            let mut p = engine.producer_handle();
            for i in 0..10u32 {
                p.ingest(1, &i.to_le_bytes());
            }
            // 10 items staged in a 1024-item batch: nothing delivered
            // yet; the drop below must hand them over.
        }
        engine.flush();
        assert_eq!(engine.stats().total_recorded(), 10);
        assert!(engine.query(1).is_some());
    }

    #[test]
    fn producer_outliving_engine_counts_drops_without_panicking() {
        let mut p = {
            let engine = ShardedFlowEngine::new(
                EngineConfig::new(spec()).with_shards(1).with_batch(4),
            )
            .unwrap();
            engine.producer_handle()
            // engine drops here, closing the shard queues
        };
        for i in 0..10u32 {
            p.ingest(1, &i.to_le_bytes());
        }
        p.flush();
        let s = p.stats();
        assert_eq!(s.items, 0);
        assert_eq!(s.dropped_items, 10, "closed-queue sends count as drops");
    }

    #[test]
    fn shared_flows_across_producers_conserve_counts() {
        // All producers hammer the SAME flows: arrival interleaving is
        // nondeterministic, but every item must be recorded exactly
        // once and the distinct-item estimate must stay sane.
        let mut engine = ShardedFlowEngine::new(
            EngineConfig::new(spec()).with_shards(2).with_batch(32),
        )
        .unwrap();
        let producer = engine.producer_handle();
        std::thread::scope(|s| {
            for t in 0u64..3 {
                let mut p = producer.clone();
                s.spawn(move || {
                    for i in 0..2000u32 {
                        // Distinct items per producer, shared flow keys.
                        p.ingest(i as u64 % 4, &(t * 1_000_000 + i as u64).to_le_bytes());
                    }
                });
            }
        });
        drop(producer);
        engine.flush();
        let stats = engine.stats();
        assert_eq!(stats.total_enqueued(), 6000);
        assert_eq!(stats.total_recorded(), 6000);
        assert_eq!(stats.total_flows(), 4);
        let est = engine.query(0).unwrap();
        // 1500 distinct items per flow; SMB at m=2048 stays well within
        // a loose factor-of-two sanity band.
        assert!(est > 750.0 && est < 3000.0, "{est}");
    }

    #[test]
    fn matches_unsharded_flow_table() {
        let sp = spec();
        let mut engine = ShardedFlowEngine::new(
            EngineConfig::new(sp).with_shards(3).with_batch(32),
        )
        .unwrap();
        let mut reference = FlowTable::new(move |_| sp.build().unwrap());
        for i in 0..3000u32 {
            let flow = (i % 17) as u64;
            let item = i.to_le_bytes();
            engine.ingest(flow, &item);
            reference.record(flow, &item);
        }
        engine.flush();
        for flow in 0..17u64 {
            assert_eq!(engine.query(flow), reference.estimate(flow), "flow {flow}");
        }
    }

    /// A producer-side barrier makes the producer's own ingest visible
    /// to a query handle without touching the engine — the server
    /// session pattern (one producer + one query handle per
    /// connection, the engine owned elsewhere).
    #[test]
    fn producer_barrier_makes_ingest_visible_to_query_handle() {
        let engine = ShardedFlowEngine::new(
            EngineConfig::new(spec()).with_shards(2).with_batch(64),
        )
        .unwrap();
        let queries = engine.query_handle();
        let mut producer = engine.producer_handle();
        for i in 0..5_000u32 {
            producer.ingest(u64::from(i % 8), &i.to_le_bytes());
        }
        producer.barrier();
        let report = queries.run(&EngineQuery::new().with_flow_count());
        assert_eq!(report.flow_count, Some(8));
        // Barrier on an already-drained producer returns immediately.
        producer.barrier();

        // snapshot_cells: sorted, one entry per flow, every state
        // serializable — and identical whether taken through the
        // handle or a checkpoint's shard sweep.
        let cells = queries.snapshot_cells().unwrap();
        assert_eq!(cells.len(), 8);
        assert!(cells.windows(2).all(|w| w[0].0 < w[1].0), "sorted by flow");
        drop(engine);
        // Handles stay valid after the engine is gone; the barrier
        // still terminates because shutdown drained the queues.
        producer.barrier();
        assert_eq!(queries.snapshot_cells().unwrap().len(), 8);
    }
}
