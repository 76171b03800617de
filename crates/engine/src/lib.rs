//! # smb-engine — sharded concurrent flow-estimation ingest
//!
//! The paper's deployment model (one estimator per flow, §V-F) shards
//! cleanly by flow key: no estimator is ever touched by two flows, so
//! partitioning flows across cores needs no synchronisation on the
//! recording path. This crate turns that observation into a
//! multi-core ingest pipeline:
//!
//! * [`ShardedFlowEngine`] — N worker shards each owning a private
//!   [`smb_sketch::FlowTable`], fed fixed-size batches over bounded
//!   queues with explicit backpressure ([`BackpressurePolicy`]);
//! * [`EngineProducer`] — the one ingest front-end: hash once, batch
//!   per shard, deliver. The engine ingests through its own (producer
//!   0) and hands out clones ([`ShardedFlowEngine::producer_handle`]),
//!   so N threads feed the shard queues concurrently, each with its
//!   own batches and its own `producer="<id>"`-labelled telemetry
//!   series;
//! * [`EngineQuery`] / [`QueryReport`] / [`QueryHandle`] — the one
//!   aggregate query surface: multi-facet reads (point estimate,
//!   top-k, threshold scan, flow count, resident bytes, tier census)
//!   in a single per-shard sweep, runnable from a cloneable handle
//!   ([`ShardedFlowEngine::query_handle`]) that does not borrow the
//!   engine — so monitoring threads read while ingest continues;
//! * [`EngineStats`] / [`ShardStats`] — the workspace's first
//!   observability surface: per-shard item counts, batch occupancy,
//!   dropped items and queue-full events;
//! * [`channel`] — the in-tree bounded blocking channel (offline
//!   dependency policy: no crossbeam);
//! * durability — per-shard atomic checkpoints
//!   ([`ShardedFlowEngine::checkpoint_now`], a background thread via
//!   [`ShardedFlowEngine::start_checkpointer`] and
//!   [`CheckpointConfig`]) and crash recovery
//!   ([`ShardedFlowEngine::restore`], [`RestoreReport`]): restore
//!   lands on the newest *consistent* epoch with bit-identical
//!   estimates; torn or corrupted newer epochs are skipped with a
//!   bounded-loss warning (see `DESIGN.md` §11).
//!
//! Per-flow estimates are **bit-identical across shard counts**: a
//! flow's packets always reach the same shard in ingest order, and all
//! estimators are built from one [`smb_factory::AlgoSpec`], so
//! `--shards 1` and `--shards 8` produce the same numbers (tested in
//! `tests/engine.rs`). Throughput scales with cores; correctness never
//! depends on the schedule.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod channel;
mod durability;
mod engine;
mod stats;

pub use durability::{CheckpointConfig, RestoreReport};
pub use engine::{
    record_batch_grouped, BackpressurePolicy, EngineConfig, EngineProducer, EngineQuery,
    EstimatorFactory, GroupScratch, QueryHandle, QueryReport, ShardTable, ShardedFlowEngine,
};
pub use stats::{EngineStats, ProducerStats, ShardStats};
