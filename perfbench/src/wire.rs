//! The end-to-end run: an in-process `SmbServer` on loopback, driven
//! closed-loop by one client thread over one `SmbClient` connection.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use smb_devtools::Json;
use smb_engine::{BackpressurePolicy, EngineConfig, EngineQuery, ShardedFlowEngine};
use smb_factory::{Algo, AlgoSpec};
use smb_net::{NetError, ServeSummary, SmbClient, SmbServer};
use smb_sketch::TierStats;

use crate::reference::{self, Expected, FRAME_RECORDS};
use crate::spans::Tracer;
use crate::stats;
use crate::workload::Workload;

/// The `smbcount serve` estimator: SMB, 2048 bits, tuned for 1e6.
pub fn spec() -> AlgoSpec {
    AlgoSpec::new(Algo::Smb).memory_bits(2048).n_max(1e6)
}

/// The `smbcount serve` engine defaults: one shard per core, batch
/// 256, queue 8, blocking backpressure.
pub fn engine_config(expected_flows: usize, trace_sample: u32) -> EngineConfig {
    EngineConfig::new(spec())
        .with_batch(256)
        .with_queue_batches(8)
        .with_policy(BackpressurePolicy::Block)
        .with_expected_flows(expected_flows)
        .with_trace_sample(trace_sample)
}

/// Upper bound on repeated `TOP_K` or `SNAPSHOT` calls in one run.
const MAX_CALLS: usize = 100_000;

/// Operation accounting: every wire request is one attempt; a failure
/// is an `ERROR` frame, an I/O error, a short ack or a reference
/// mismatch.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    pub fn check<T>(&mut self, what: &str, r: Result<T, NetError>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(&format!("{what}: {e}"));
                None
            }
        }
    }

    /// Count a wrong answer against an operation already attempted.
    pub fn mismatch(&mut self, what: &str) {
        self.fail(&format!("reference mismatch: {what}"));
    }

    fn fail(&mut self, msg: &str) {
        self.failed += 1;
        if self.failed <= 5 {
            eprintln!("perfbench: FAILED {msg}");
        }
    }
}

/// What one wire run does.
#[derive(Debug, Clone, Copy)]
pub struct RunPlan {
    /// Rounds of set-up, ingest, repeated `TOP_K` and repeated
    /// `SNAPSHOT`. Each round gives one `setup_s` and one ingest-rate
    /// sample on a fresh engine; spreading every metric's samples over
    /// the whole run keeps a few seconds of host contention from
    /// deciding a run.
    pub rounds: usize,
    /// Seconds the run should measure for, split evenly over the
    /// rounds. What ingest leaves of a round goes to `TOP_K` (60%) and
    /// `SNAPSHOT` (40%) calls; each phase lasts at least
    /// [`MIN_PHASE_S`] and makes at least one call.
    pub seconds: f64,
    /// Pull every flow's estimate with `TOP_K(flows)`, compare them
    /// all with the reference and compute `rel_error_rms`.
    pub accuracy_sweep: bool,
    /// Engine stage tracing (`trace_sample`), 0 = off.
    pub trace_sample: u32,
    /// Number of `PING`s before ingest.
    pub pings: usize,
    /// Flip one `QUERY`, one `TOP_K` row and one snapshot cell before
    /// comparing, to prove that wrong answers are counted.
    pub inject_fault: bool,
}

/// Shortest `TOP_K` or `SNAPSHOT` phase of a round: cheap calls are
/// repeated until it is spent, even when ingest used up the round.
/// Where one call takes longer (a `caida_trace` `TOP_K`, a `wide_flows`
/// `SNAPSHOT`), the round makes one call on its engine, and the run's
/// figure rests on one call per round.
const MIN_PHASE_S: f64 = 0.3;

#[derive(Debug, Default)]
pub struct WireResult {
    pub setup_s: Vec<f64>,
    pub engine_new_ms: Vec<f64>,
    pub first_hello_ms: Vec<f64>,
    /// Records streamed, summed over the rounds.
    pub ingest_records: u64,
    /// Per round: the ingest rate and the median of each kind of
    /// request. A run reports the median over its rounds, so a few
    /// rounds that meet another host state (a burst of steal, a spell
    /// of cache misses) cannot move the result alone.
    pub ingest_rates: Vec<f64>,
    pub record_ack_p50s: Vec<f64>,
    pub query_p50s: Vec<f64>,
    pub topk_round_ms: Vec<f64>,
    pub snapshot_round_ms: Vec<f64>,
    /// Every sample of every round.
    pub record_ack_us: Vec<f64>,
    pub query_us: Vec<f64>,
    pub topk_ms: Vec<f64>,
    pub snapshot_ms: Vec<f64>,
    pub ping_us: Vec<f64>,
    pub snapshot_bytes: usize,
    pub flows: usize,
    pub resident_bytes: usize,
    pub rel_error_rms: Option<f64>,
    pub tiers: TierStats,
    pub queue_wait_p50_ns: (f64, u64),
    pub record_batch_p50_ns: (f64, u64),
    /// Summed over the rounds.
    pub queue_full_events: u64,
}

impl WireResult {
    /// Median over rounds of records acked and processed per second.
    pub fn ingest_items_per_s(&self) -> f64 {
        stats::median(&self.ingest_rates)
    }
}

/// A served engine plus one connected client.
struct Served {
    engine: ShardedFlowEngine,
    client: SmbClient,
    server: JoinHandle<Result<ServeSummary, NetError>>,
}

/// One set-up, timed from `ShardedFlowEngine::new` through bind, serve
/// start and the first `HELLO_ACK`.
///
/// The client connects once the accept loop runs, as a client of a
/// long-running server does. The accept loop polls every 25 ms, so the
/// connect then always waits out the rest of one poll: without the
/// wait, the first connect lands either before the loop's first
/// `accept()` (about 1.4 ms) or after it (about 26 ms), and the median
/// flips between the two. The 1 ms pause falls inside that poll and
/// adds nothing to the measured time.
fn set_up(
    expected_flows: usize,
    trace_sample: u32,
    out: &mut WireResult,
) -> Result<Served, NetError> {
    let t0 = Instant::now();
    let engine = ShardedFlowEngine::new(engine_config(expected_flows, trace_sample))
        .map_err(|e| NetError::Protocol(e.to_string()))?;
    let t1 = Instant::now();
    let server = SmbServer::bind("127.0.0.1:0", &engine)?;
    let addr = server.local_addr()?;
    let started = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&started);
    let server = std::thread::spawn(move || {
        flag.store(true, Ordering::Release);
        server.serve()
    });
    while !started.load(Ordering::Acquire) {
        std::hint::spin_loop();
    }
    std::thread::sleep(Duration::from_millis(1));
    let client = SmbClient::connect(addr)?;
    let t2 = Instant::now();
    out.setup_s.push((t2 - t0).as_secs_f64());
    out.engine_new_ms.push((t1 - t0).as_secs_f64() * 1e3);
    out.first_hello_ms.push((t2 - t1).as_secs_f64() * 1e3);
    Ok(Served {
        engine,
        client,
        server,
    })
}

fn tear_down(served: Served, ops: &mut Ops) {
    let Served {
        engine,
        mut client,
        server,
    } = served;
    ops.check("SHUTDOWN", client.shutdown_server());
    drop(client);
    let served = server
        .join()
        .unwrap_or_else(|_| Err(NetError::Protocol("server thread panicked".into())));
    ops.check("serve", served);
    drop(engine);
}

/// Time one request, optionally as a client-side span.
fn timed<T>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    let span = tracer.as_mut().map(|t| {
        let req = t.new_request();
        t.begin(name, req, None)
    });
    let start = Instant::now();
    let out = f();
    let secs = start.elapsed().as_secs_f64();
    if let (Some(t), Some(span)) = (tracer.as_mut(), span) {
        t.end(span, 1);
    }
    (out, secs)
}

/// Stream every record over `client`, interleaving the planned
/// read-your-writes queries, and close with a barrier query. Returns
/// false if the connection failed.
fn ingest_pass(
    client: &mut SmbClient,
    workload: &Workload,
    expected: &Expected,
    tracer: &mut Option<&mut Tracer>,
    fault_pending: &mut bool,
    ops: &mut Ops,
    out: &mut WireResult,
) -> bool {
    let mut items: Vec<[u8; 8]> = Vec::with_capacity(FRAME_RECORDS);
    let mut planned = expected.queries.iter().peekable();
    let mut acks = Vec::with_capacity(reference::batches(workload));
    let mut queries = Vec::with_capacity(expected.queries.len());
    let start = Instant::now();
    for (b, chunk) in workload.records.chunks(FRAME_RECORDS).enumerate() {
        items.clear();
        items.extend(chunk.iter().map(|&r| workload.item_bytes(r)));
        let batch: Vec<(u64, &[u8])> = chunk
            .iter()
            .zip(&items)
            .map(|(r, item)| (workload.flow_key(r.flow), &item[..]))
            .collect();
        let (r, secs) = timed(tracer, "net.record_batch", || client.record_batch(&batch));
        if ops.check("RECORD_BATCH", r).is_none() {
            return false;
        }
        acks.push(secs * 1e6);
        while let Some(q) = planned.next_if(|q| q.after_batch == b) {
            let (r, secs) = timed(tracer, "net.query", || client.query(q.flow));
            let Some(mut got) = ops.check("QUERY", r) else {
                return false;
            };
            queries.push(secs * 1e6);
            if std::mem::take(fault_pending) {
                got = got.map(|e| f64::from_bits(e.to_bits() ^ 1));
            }
            if !reference::same_estimate(got, q.expected) {
                ops.mismatch(&format!("QUERY flow {:#x} after batch {b}", q.flow));
            }
        }
    }
    let (r, _) = timed(tracer, "net.barrier_query", || {
        client.query(expected.barrier.flow)
    });
    let Some(got) = ops.check("barrier QUERY", r) else {
        return false;
    };
    if !reference::same_estimate(got, expected.barrier.expected) {
        ops.mismatch("barrier QUERY");
    }
    let secs = start.elapsed().as_secs_f64();
    out.ingest_records += workload.records.len() as u64;
    out.ingest_rates.push(workload.records.len() as f64 / secs);
    out.record_ack_p50s.push(stats::median(&acks));
    out.query_p50s.push(stats::median(&queries));
    out.record_ack_us.extend(acks);
    out.query_us.extend(queries);
    true
}

/// Call until `budget_s` (at least [`MIN_PHASE_S`]) is spent, so at
/// least once; stop early when a call fails. Returns the calls that
/// succeeded.
fn repeat(budget_s: f64, mut call: impl FnMut() -> bool) -> u64 {
    let budget_s = budget_s.max(MIN_PHASE_S);
    let phase = Instant::now();
    let mut calls = 0;
    while phase.elapsed().as_secs_f64() < budget_s && calls < MAX_CALLS {
        if !call() {
            break;
        }
        calls += 1;
    }
    calls as u64
}

/// Length prefix plus type byte.
const FRAME_HEADER: u64 = 5;

/// Count and byte sum of the server's `net_frame_bytes_out` once the
/// session has counted its reply to every request read so far. The
/// session counts a frame after writing it, so the client can hold a
/// reply whose bytes are not counted yet. `None` if the counts do not
/// settle within a second.
fn settled_bytes_out(engine: &ShardedFlowEngine) -> Option<(u64, u64)> {
    let deadline = Instant::now() + Duration::from_secs(1);
    loop {
        let metrics = engine.metrics_snapshot();
        let histogram = |name| {
            metrics
                .get(name, &[])
                .and_then(|v| v.as_histogram())
                .map(|h| (h.count, h.sum))
        };
        let (read, sent) = (
            histogram("net_frame_bytes_in")?,
            histogram("net_frame_bytes_out")?,
        );
        if read.0 == sent.0 {
            return Some(sent);
        }
        if Instant::now() > deadline {
            return None;
        }
        std::thread::yield_now();
    }
}

pub fn run(
    workload: &Workload,
    expected: &Expected,
    plan: RunPlan,
    mut tracer: Option<&mut Tracer>,
    ops: &mut Ops,
) -> WireResult {
    let mut out = WireResult::default();
    let flows = workload.flows();
    let top: Vec<(u64, f64)> = expected.ranked.iter().copied().take(100).collect();
    let mut fault = [plan.inject_fault; 3];
    let round_s = plan.seconds / plan.rounds as f64;
    for round in 0..plan.rounds {
        let last = round + 1 == plan.rounds;
        // 1. Set up.
        let Some(mut s) = ops.check("set-up", set_up(flows, plan.trace_sample, &mut out)) else {
            return out;
        };
        if round == 0 {
            for _ in 0..plan.pings {
                let (r, secs) = timed(&mut tracer, "net.ping", || s.client.ping());
                if ops.check("PING", r).is_some() {
                    out.ping_us.push(secs * 1e6);
                }
            }
        }
        // 2-3. Ingest, closed by a barrier query.
        let round_end = Instant::now() + Duration::from_secs_f64(round_s);
        if !ingest_pass(
            &mut s.client,
            workload,
            expected,
            &mut tracer,
            &mut fault[0],
            ops,
            &mut out,
        ) {
            tear_down(s, ops);
            return out;
        }
        let budget_s = round_end
            .saturating_duration_since(Instant::now())
            .as_secs_f64();

        // 4. Repeated TOP_K(100).
        let client = &mut s.client;
        let first = out.topk_ms.len();
        repeat(budget_s * 0.6, || {
            let (r, secs) = timed(&mut tracer, "net.top_k", || client.top_k(100));
            let Some(mut rows) = ops.check("TOP_K", r) else {
                return false;
            };
            out.topk_ms.push(secs * 1e3);
            if std::mem::take(&mut fault[1]) {
                if let Some(row) = rows.first_mut() {
                    row.0 ^= 1;
                }
            }
            if !reference::same_rows(&rows, &top) {
                ops.mismatch("TOP_K(100) rows");
            }
            true
        });

        out.topk_round_ms.push(stats::median(&out.topk_ms[first..]));

        // 5. Repeated SNAPSHOT, each decoded and compared with the
        // server's own cells. The payload size is what the server sent.
        let truth = match s.engine.query_handle().snapshot_cells() {
            Ok(cells) => cells,
            Err(e) => {
                ops.check::<()>("snapshot_cells", Err(NetError::Protocol(e.to_string())));
                Vec::new()
            }
        };
        let sent_before = settled_bytes_out(&s.engine);
        let first = out.snapshot_ms.len();
        let calls = repeat(budget_s * 0.4, || {
            let (r, secs) = timed(&mut tracer, "net.snapshot", || client.snapshot());
            let Some(mut cells) = ops.check("SNAPSHOT", r) else {
                return false;
            };
            out.snapshot_ms.push(secs * 1e3);
            if std::mem::take(&mut fault[2]) {
                if let Some(cell) = cells.first_mut() {
                    cell.1 = Json::Null;
                }
            }
            if cells != truth {
                ops.mismatch("SNAPSHOT cells");
            }
            true
        });
        out.snapshot_round_ms
            .push(stats::median(&out.snapshot_ms[first..]));
        drop(truth);
        match (sent_before, settled_bytes_out(&s.engine)) {
            (Some(before), Some(after))
                if calls > 0
                    && after.0 - before.0 == calls
                    && (after.1 - before.1) % calls == 0 =>
            {
                out.snapshot_bytes = ((after.1 - before.1) / calls - FRAME_HEADER) as usize;
            }
            _ => ops.mismatch("SNAPSHOT frames counted by the server"),
        }

        // Every flow's wire estimate, for the accuracy guard.
        if plan.accuracy_sweep && last {
            if let Some(all) = ops.check("TOP_K(all)", s.client.top_k(flows as u64)) {
                if !reference::same_rows(&all, &expected.ranked) {
                    ops.mismatch("TOP_K(all) rows");
                }
                let rel_errors: Vec<f64> = all
                    .iter()
                    .map(|&(flow, est)| {
                        let exact =
                            f64::from(expected.exact.get(&flow).copied().unwrap_or(0)).max(1.0);
                        (est - exact) / exact
                    })
                    .collect();
                out.rel_error_rms = Some(stats::rms(&rel_errors));
            }
        }

        let report = s
            .engine
            .run_query(&EngineQuery::new().with_memory_bytes().with_flow_count());
        out.flows = report.flow_count.unwrap_or(0);
        out.resident_bytes = report.memory_bytes.unwrap_or(0);
        out.tiers = report.tier_stats;
        if out.flows != flows {
            ops.mismatch(&format!(
                "engine holds {} flows, workload has {flows}",
                out.flows
            ));
        }
        let metrics = s.engine.metrics_snapshot();
        out.queue_full_events += metrics.counter_total("engine_producer_queue_full_total");
        out.queue_wait_p50_ns = stage_p50(&metrics, "queue_wait");
        out.record_batch_p50_ns = stage_p50(&metrics, "record_batch");
        tear_down(s, ops);
    }
    out
}

/// Median of a pipeline stage merged over the shards, with its count.
fn stage_p50(metrics: &smb_telemetry::RegistrySnapshot, stage: &str) -> (f64, u64) {
    let series: Vec<&[(u64, u64)]> = metrics
        .metrics
        .iter()
        .filter(|m| m.name == "engine_stage_duration_ns")
        .flat_map(|m| &m.series)
        .filter(|s| {
            s.labels.iter().any(|(k, v)| k == "stage" && v == stage)
                && !s.labels.iter().any(|(k, v)| k == "shard" && v == "all")
        })
        .filter_map(|s| s.value.as_histogram())
        .map(|h| h.buckets.as_slice())
        .collect();
    stats::histogram_quantile(&series, 0.5)
}
