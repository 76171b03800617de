//! # smb-net — network serving for SMB flow engines
//!
//! The paper's measurement points are switches and middleboxes whose
//! per-flow state must be *queried and shipped off-box* while ingest
//! continues. This crate turns a [`smb_engine::ShardedFlowEngine`]
//! into a TCP service speaking a small length-prefixed binary
//! protocol — specified normatively in the repository's `PROTOCOL.md`
//! — with three design commitments:
//!
//! * **Hash once, at the server edge.** Clients ship raw `(flow,
//!   item)` bytes; the server's per-connection [`EngineProducer`]
//!   hashes each item exactly once and fans batches out to the shard
//!   workers, so networked ingest is bit-identical to calling
//!   `engine.ingest` in process.
//! * **One producer per connection.** Every session owns a clone of
//!   the engine's producer handle (its own telemetry series under the
//!   `producer` label, its own partial batches) plus a shared
//!   [`QueryHandle`]. Query-class requests run a producer-side
//!   barrier first, so a session always reads its own writes.
//! * **Compressed state transfer.** `SNAPSHOT` responses carry the
//!   [`smb_sketch::codec`] flow-block encoding — the same bytes as a
//!   v2 checkpoint shard — so a snapshot pulled over the wire restores
//!   bit-identically elsewhere.
//!
//! The crate is std-only (no async runtime): blocking sockets, one
//! thread per session, a poll-based accept loop with a cooperative
//! shutdown flag. That matches the workspace's offline-dependency
//! policy and keeps the protocol trivially implementable from the
//! spec alone.
//!
//! [`EngineProducer`]: smb_engine::EngineProducer
//! [`QueryHandle`]: smb_engine::QueryHandle

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod client;
pub mod frame;
pub mod proto;
pub mod server;

pub use client::SmbClient;
pub use frame::{read_frame, write_frame, NetError, MAX_FRAME};
pub use proto::{MorphEvent, PROTOCOL_VERSION};
pub use server::{ServeSummary, SmbServer};
