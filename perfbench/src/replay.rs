//! The traced in-process replay: the same records pushed through the
//! layers in the order the server runs them (client encode, frame
//! decode, item hash, producer ingest, barrier, query), each call
//! wrapped in a span, followed by single-layer timings of the worker
//! kernel, the SMB record path, the estimator factory and the query
//! and snapshot paths.

use std::collections::HashMap;

use smb_core::{CardinalityEstimator, Smb};
use smb_engine::{record_batch_grouped, EngineQuery, GroupScratch, ShardedFlowEngine};
use smb_hash::ItemHash;
use smb_net::proto;

use crate::reference::{self, Expected, FRAME_RECORDS};
use crate::spans::Tracer;
use crate::wire::{self, Ops};
use crate::workload::Workload;

/// Engine batch size: the worker kernel is timed on batches this big.
const ENGINE_BATCH: usize = 256;
/// Heavy flows whose hashes feed the `record_hashes` timing.
const HEAVY_FLOWS: usize = 64;
/// Cap on hashes replayed through `record_hashes`.
const HEAVY_HASH_CAP: usize = 2_000_000;
/// Calls per factory / threshold-search timing.
const BUILD_CALLS: usize = 200;

#[derive(Debug, Default)]
pub struct ReplayResult {
    pub records: u64,
    pub wire_bytes: u64,
    pub probe_builds_per_topk: u64,
    pub sweeps: usize,
}

pub fn run(
    workload: &Workload,
    expected: &Expected,
    sweeps: usize,
    tracer: &mut Tracer,
    ops: &mut Ops,
) -> ReplayResult {
    let mut out = ReplayResult {
        sweeps,
        ..Default::default()
    };
    let spec = wire::spec();
    let engine = ShardedFlowEngine::new(wire::engine_config(workload.flows(), 0))
        .expect("benchmark spec is valid");
    let scheme = engine.scheme();
    let mut producer = engine.producer_handle();
    let query = engine.query_handle();

    // The server's per-request path, batch by batch.
    let mut planned = expected.queries.iter().peekable();
    let mut items: Vec<[u8; 8]> = Vec::with_capacity(FRAME_RECORDS);
    for (b, chunk) in workload.records.chunks(FRAME_RECORDS).enumerate() {
        let req = tracer.new_request();
        let root = tracer.begin("replay.request", req, None);
        items.clear();
        items.extend(chunk.iter().map(|&r| workload.item_bytes(r)));
        let batch: Vec<(u64, &[u8])> = chunk
            .iter()
            .zip(&items)
            .map(|(r, item)| (workload.flow_key(r.flow), &item[..]))
            .collect();
        let n = chunk.len() as u64;
        let payload = tracer.time("net.proto.encode_record_batch", req, Some(root), n, || {
            proto::encode_record_batch(&batch)
        });
        out.wire_bytes += payload.len() as u64;
        out.records += n;
        let decoded = tracer.time("net.proto.decode_record_batch", req, Some(root), n, || {
            proto::decode_record_batch(&payload)
        });
        let decoded = match decoded {
            Ok(d) => d,
            Err(e) => {
                ops.check::<()>("decode_record_batch", Err(e));
                tracer.end(root, n);
                break;
            }
        };
        let hashed: Vec<(u64, ItemHash)> =
            tracer.time("hash.item_hash", req, Some(root), n, || {
                decoded
                    .iter()
                    .map(|(flow, item)| (*flow, scheme.item_hash(item)))
                    .collect()
            });
        tracer.time("engine.producer.ingest_hash", req, Some(root), n, || {
            for &(flow, hash) in &hashed {
                producer.ingest_hash(flow, hash);
            }
        });
        while let Some(q) = planned.next_if(|q| q.after_batch == b) {
            tracer.time("engine.producer.barrier", req, Some(root), 1, || {
                producer.barrier()
            });
            let got = tracer.time("engine.query.estimate", req, Some(root), 1, || {
                query
                    .run(&EngineQuery::new().with_estimate(q.flow))
                    .estimate
            });
            if !reference::same_estimate(got, q.expected) {
                ops.mismatch(&format!("replay estimate for flow {:#x}", q.flow));
            }
        }
        tracer.end(root, n);
    }
    producer.barrier();

    // The query and snapshot paths, over the finished state.
    let top: Vec<(u64, f64)> = expected.ranked.iter().copied().take(100).collect();
    for _ in 0..sweeps {
        let req = tracer.new_request();
        let report = tracer.time("engine.query.topk_sweep", req, None, 1, || {
            query.run(&EngineQuery::new().with_top_k(100))
        });
        out.probe_builds_per_topk = (report.tier_stats.small + report.tier_stats.array) as u64;
        if !reference::same_rows(report.top_k.as_deref().unwrap_or(&[]), &top) {
            ops.mismatch("replay top-k");
        }
        let cells = tracer.time("engine.query.snapshot_cells", req, None, 1, || {
            query.snapshot_cells()
        });
        let cells = cells.expect("SMB cells snapshot");
        let block = tracer.time("sketch.codec.encode_flow_block", req, None, 1, || {
            smb_sketch::codec::encode_flow_block(&cells)
        });
        let block = block.expect("flow keys are unique and sorted");
        let decoded = tracer.time("sketch.codec.decode_flow_block", req, None, 1, || {
            smb_sketch::codec::decode_flow_block(&block)
        });
        if decoded.ok().as_ref() != Some(&cells) {
            ops.mismatch("replay flow block round trip");
        }
    }
    drop(producer);
    drop(engine);

    // The worker kernel, single-threaded: the whole stream in engine
    // batches through `record_batch_grouped` into one table.
    let mut table = reference::reference_table(spec);
    table.reserve(workload.flows());
    let mut scratch = GroupScratch::default();
    let mut buf: Vec<(u64, ItemHash)> = Vec::with_capacity(ENGINE_BATCH);
    for chunk in workload.records.chunks(ENGINE_BATCH) {
        buf.clear();
        buf.extend(chunk.iter().map(|&r| {
            (
                workload.flow_key(r.flow),
                scheme.item_hash(&workload.item_bytes(r)),
            )
        }));
        let req = tracer.new_request();
        tracer.time(
            "engine.record_batch_grouped",
            req,
            None,
            buf.len() as u64,
            || record_batch_grouped(&mut table, &buf, &mut scratch),
        );
    }
    if let Some(&(flow, est)) = expected.ranked.first() {
        if !reference::same_estimate(table.estimate(flow), Some(est)) {
            ops.mismatch("record_batch_grouped estimate");
        }
    }
    drop(table);

    // The SMB record path on the heaviest flows' hashes.
    let mut heavy: Vec<u32> = (0..workload.flows() as u32).collect();
    heavy.sort_unstable_by_key(|&f| std::cmp::Reverse(workload.exact[f as usize]));
    heavy.truncate(HEAVY_FLOWS);
    let heavy_index: HashMap<u32, usize> = heavy.iter().enumerate().map(|(i, &f)| (f, i)).collect();
    let mut per_flow: Vec<Vec<ItemHash>> = vec![Vec::new(); heavy.len()];
    let mut kept = 0;
    for &r in &workload.records {
        if kept == HEAVY_HASH_CAP {
            break;
        }
        if let Some(&i) = heavy_index.get(&r.flow) {
            per_flow[i].push(scheme.item_hash(&workload.item_bytes(r)));
            kept += 1;
        }
    }
    let t = smb_theory::optimal_threshold(spec.memory_bits, spec.n_max).t;
    for hashes in &per_flow {
        let mut smb = Smb::with_scheme(spec.memory_bits, t, scheme).expect("valid SMB");
        for run in hashes.chunks(ENGINE_BATCH) {
            let req = tracer.new_request();
            tracer.time(
                "core.smb.record_hashes",
                req,
                None,
                run.len() as u64,
                || smb.record_hashes(run),
            );
        }
        std::hint::black_box(smb.estimate());
    }

    // Probe construction: the factory, and its threshold search.
    for _ in 0..BUILD_CALLS {
        let req = tracer.new_request();
        let built = tracer.time("factory.build", req, None, 1, || spec.build());
        std::hint::black_box(built.expect("valid spec"));
        let req = tracer.new_request();
        let t = tracer.time("theory.optimal_threshold", req, None, 1, || {
            smb_theory::optimal_threshold(spec.memory_bits, spec.n_max)
        });
        std::hint::black_box(t);
    }
    out
}
