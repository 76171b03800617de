//! The sequential in-process reference and the answers it expects.
//!
//! A single tiered `FlowTable` is fed the workload's records one at a
//! time, in arrival order, before anything is timed. At every point
//! where the wire run will issue a read-your-writes `QUERY`, the
//! reference's estimate for that flow is recorded, so the wire run can
//! compare each answer bit for bit without pausing its clock.

use std::collections::HashMap;

use smb_factory::{AlgoSpec, DynEstimator};
use smb_sketch::FlowTable;

use crate::workload::Workload;

/// Records per `RECORD_BATCH` frame (the `smbcount client` default).
pub const FRAME_RECORDS: usize = 512;

/// One planned read-your-writes query.
#[derive(Debug, Clone, Copy)]
pub struct PlannedQuery {
    /// Issued right after this batch is acked.
    pub after_batch: usize,
    pub flow: u64,
    pub expected: Option<f64>,
}

pub struct Expected {
    pub queries: Vec<PlannedQuery>,
    /// The closing barrier `QUERY`.
    pub barrier: PlannedQuery,
    /// Every flow's final estimate in the pinned top-k order
    /// (estimate descending, flow key ascending).
    pub ranked: Vec<(u64, f64)>,
    /// Exact distinct count per flow key.
    pub exact: HashMap<u64, u32>,
}

pub fn batches(workload: &Workload) -> usize {
    workload.records.len().div_ceil(FRAME_RECORDS)
}

/// Which record of batch `b` (of length `len`) the query after it
/// targets: a fixed stride from a seed-chosen phase, so every position
/// gets exercised.
pub fn query_offset(b: usize, len: usize, phase: usize) -> usize {
    b.wrapping_mul(7919).wrapping_add(phase) % len
}

pub fn reference_table(spec: AlgoSpec) -> FlowTable<DynEstimator> {
    FlowTable::tiered(spec.scheme(), move |_| {
        spec.build().expect("benchmark spec is valid")
    })
}

pub fn expect(workload: &Workload, spec: AlgoSpec) -> Expected {
    let scheme = spec.scheme();
    let mut table = reference_table(spec);
    let every = workload.kind.query_every();
    let mut queries = Vec::new();
    for (b, chunk) in workload.records.chunks(FRAME_RECORDS).enumerate() {
        for &rec in chunk {
            table.record_hash(
                workload.flow_key(rec.flow),
                scheme.item_hash(&workload.item_bytes(rec)),
            );
        }
        if (b + 1) % every == 0 {
            let flow =
                workload.flow_key(chunk[query_offset(b, chunk.len(), workload.query_phase)].flow);
            queries.push(PlannedQuery {
                after_batch: b,
                flow,
                expected: table.estimate(flow),
            });
        }
    }
    let last = workload.records.last().expect("workloads are never empty");
    let barrier_flow = workload.flow_key(last.flow);
    let barrier = PlannedQuery {
        after_batch: batches(workload) - 1,
        flow: barrier_flow,
        expected: table.estimate(barrier_flow),
    };
    let mut ranked: Vec<(u64, f64)> = table.estimates().collect();
    ranked.sort_unstable_by(|a, b| b.1.partial_cmp(&a.1).expect("finite").then(a.0.cmp(&b.0)));
    let exact = (0..workload.flows() as u32)
        .map(|f| (workload.flow_key(f), workload.exact[f as usize]))
        .collect();
    Expected {
        queries,
        barrier,
        ranked,
        exact,
    }
}

/// Bit-for-bit equality of two estimate lists.
pub fn same_rows(a: &[(u64, f64)], b: &[(u64, f64)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
}

pub fn same_estimate(a: Option<f64>, b: Option<f64>) -> bool {
    a.map(f64::to_bits) == b.map(f64::to_bits)
}
