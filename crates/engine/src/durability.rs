//! Durable shard checkpoints and crash recovery.
//!
//! ## On-disk layout
//!
//! ```text
//! <dir>/
//!   epoch-0000000000/
//!     shard-0000.bin       one file per shard: sorted (flow, state)
//!     shard-0001.bin       pairs in the v2 compressed flow-block format
//!     MANIFEST.json        written last — the epoch's commit record
//!   epoch-0000000001/
//!     ...
//! ```
//!
//! Shards are written in one format, v2: `shard-%04d.bin`, the
//! compressed binary flow-block format of [`smb_sketch::codec`]
//! (varint + zigzag delta hash lists, bit-packed bitmaps; see
//! `PROTOCOL.md` §5). Typically well under half the JSON byte size.
//! Every epoch written before v2 existed is v1 — `shard-%04d.json`,
//! `[flow, state]` pairs as JSON — and v1 epochs restore forever: the
//! manifest records which format an epoch uses (`"format"`, absent
//! meaning v1) and the reader dispatches per epoch. Both formats
//! decode to the same typed cell states ([`CellState`]), which restore
//! turns straight into cells, so restores are bit-identical across
//! formats.
//!
//! Every file is written atomically (write to a `.tmp` sibling, fsync,
//! rename into place) and the manifest is written **after** all shard
//! files, so an epoch directory without a valid manifest is by
//! definition torn and never restored from. The manifest records the
//! engine's [`AlgoSpec`], the shard count, and a CRC-32 plus byte
//! length for every shard file; it also carries a CRC-32 over its own
//! body, so recovery can detect corruption of the manifest itself.
//!
//! ## Epoch selection
//!
//! [`ShardedFlowEngine::restore`] scans the checkpoint directory and
//! walks epochs newest-first, accepting the first one that is fully
//! *consistent*: manifest present, both checksums clean, every shard
//! file present with the recorded length and CRC, every shard
//! decodable. Each state is then rebuilt against the spec — an SMB
//! through `smb_factory::restore_smb`, on the spec's shared parameter
//! block, with its structural invariants re-checked. Inconsistent
//! newer epochs
//! are skipped — degraded recovery to an older epoch, with the skips
//! reported in [`RestoreReport::skipped`] and counted in
//! `engine_restore_skipped_epochs_total`. The loss is bounded by the
//! checkpoint interval: at most `interval × skipped-epochs + interval`
//! of ingest is missing relative to the crash point.
//!
//! [`ShardedFlowEngine::restore`]: crate::ShardedFlowEngine::restore

use std::fs::{self, File};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use smb_core::Error;
use smb_devtools::{Json, Snapshot};
use smb_factory::{AlgoSpec, DynEstimator, JsonRestorer};
use smb_hash::crc32::crc32;
use smb_sketch::codec::{CellState, FlowBlockBuilder};
use smb_sketch::{FlowCell, Tier};
use smb_telemetry::{
    Counter, FlightEvent, FlightEventKind, FlightRecorder, Gauge, Histogram, Registry,
};

use crate::engine::ShardTable;

/// Rebuild one flow's cell from its checkpointed state. Hash lists
/// become unmaterialized small/array cells; SMB and bitmap states
/// become estimators checked against the spec; a JSON state goes
/// through `json`, the restore's one [`JsonRestorer`] for the spec,
/// into a full cell — which also covers pre-tier checkpoints, where
/// every state was a bare estimator snapshot.
pub(crate) fn restore_cell(
    json: &JsonRestorer,
    state: CellState,
) -> smb_core::Result<FlowCell<DynEstimator>> {
    let spec = json.spec();
    let pending = |tier: Tier, hashes: Vec<u64>| {
        FlowCell::from_hashes(tier, &hashes)
            .ok_or_else(|| Error::invalid("cell", format!("{} tier over capacity", tier.name())))
    };
    let estimator: DynEstimator = match state {
        CellState::Small(hashes) => return pending(Tier::Small, hashes),
        CellState::Array(hashes) => return pending(Tier::Array, hashes),
        CellState::Smb {
            scheme,
            t,
            r,
            v,
            bits,
        } => Box::new(smb_factory::restore_smb(spec, scheme, t, r, v, bits)?),
        CellState::Bitmap { scheme, bits } => {
            Box::new(smb_factory::restore_bitmap(spec, scheme, bits)?)
        }
        CellState::Json(state) => json.restore(&state)?,
    };
    Ok(FlowCell::from_estimator(estimator))
}

/// File name of the per-epoch commit record.
const MANIFEST: &str = "MANIFEST.json";

/// The manifest's `"format"` code for v1 JSON shards (also what an
/// absent field means: manifests older than v2 carry none).
const FORMAT_V1: u64 = 1;
/// The manifest's `"format"` code for v2 flow-block shards — the only
/// format written.
const FORMAT_V2: u64 = 2;

/// Shard `shard`'s file name in an epoch of format `format`.
fn shard_file_name(format: u64, shard: usize) -> String {
    let ext = if format == FORMAT_V1 { "json" } else { "bin" };
    format!("shard-{shard:04}.{ext}")
}

/// How a checkpointing engine writes its epochs: where, how often, and
/// how stubbornly on IO failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointConfig {
    /// Directory holding the epoch subdirectories. Created on demand.
    pub dir: PathBuf,
    /// Pause between background checkpoints.
    pub interval: Duration,
    /// Extra attempts after a failed checkpoint write before the epoch
    /// is abandoned (counted in `engine_checkpoint_failures_total`).
    pub retries: u32,
    /// Pause before each retry.
    pub backoff: Duration,
    /// Completed epochs kept on disk; older ones are pruned after each
    /// successful checkpoint. At least 2 is recommended so recovery can
    /// fall back across a torn newest epoch.
    pub keep_epochs: usize,
}

impl CheckpointConfig {
    /// Defaults: a 30 s interval, 3 retries with 200 ms backoff, the
    /// newest 2 epochs retained.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        CheckpointConfig {
            dir: dir.into(),
            interval: Duration::from_secs(30),
            retries: 3,
            backoff: Duration::from_millis(200),
            keep_epochs: 2,
        }
    }

    /// Set the background checkpoint interval.
    pub fn with_interval(mut self, interval: Duration) -> Self {
        self.interval = interval;
        self
    }

    /// Set the retry budget for failed checkpoint writes.
    pub fn with_retries(mut self, retries: u32) -> Self {
        self.retries = retries;
        self
    }

    /// Set the pause before each retry.
    pub fn with_backoff(mut self, backoff: Duration) -> Self {
        self.backoff = backoff;
        self
    }

    /// Set how many completed epochs stay on disk.
    pub fn with_keep_epochs(mut self, keep_epochs: usize) -> Self {
        self.keep_epochs = keep_epochs;
        self
    }

    pub(crate) fn validate(&self) -> smb_core::Result<()> {
        if self.keep_epochs == 0 {
            return Err(Error::invalid("keep_epochs", "must be at least 1"));
        }
        if self.interval.is_zero() {
            return Err(Error::invalid("interval", "must be non-zero"));
        }
        Ok(())
    }
}

/// What recovery found: which epoch it restored, how much it holds,
/// and which newer epochs it had to skip (with the reason each failed
/// its consistency check).
#[derive(Debug, Clone)]
pub struct RestoreReport {
    /// The epoch that was restored.
    pub epoch: u64,
    /// Flows rebuilt into the engine.
    pub flows: u64,
    /// Shard count recorded in the checkpoint (the restored engine's
    /// own shard count may differ — flows are re-partitioned).
    pub checkpoint_shards: usize,
    /// Epochs newer than the restored one that failed their
    /// consistency check, newest first, each with the failure reason.
    /// Non-empty means bounded loss: everything ingested after the
    /// restored epoch's checkpoint is gone.
    pub skipped: Vec<(u64, String)>,
}

/// The durability metric cells, registered (unlabelled) in the engine
/// registry next to the per-shard series.
#[derive(Debug)]
pub(crate) struct CheckpointMetrics {
    /// Nanoseconds each successful checkpoint took end to end.
    pub duration: Arc<Histogram>,
    /// Bytes written per successful checkpoint (shard files + manifest).
    pub bytes: Arc<Histogram>,
    /// The newest epoch this engine has written or restored.
    pub epoch: Arc<Gauge>,
    /// Checkpoints completed.
    pub written: Arc<Counter>,
    /// Checkpoints abandoned after exhausting the retry budget.
    pub failures: Arc<Counter>,
    /// Individual retry attempts after failed checkpoint writes.
    pub retries: Arc<Counter>,
    /// Nanoseconds each successful restore took, from epoch
    /// selection through the last inserted cell.
    pub restore_duration: Arc<Histogram>,
    /// Flows rebuilt by restore.
    pub restored_flows: Arc<Counter>,
    /// Inconsistent epochs skipped during restore.
    pub skipped_epochs: Arc<Counter>,
    /// Directory fsyncs that failed after an otherwise complete
    /// checkpoint (see [`write_checkpoint`]).
    pub dir_sync_failures: Arc<Counter>,
}

impl CheckpointMetrics {
    pub(crate) fn register(registry: &Registry) -> Self {
        CheckpointMetrics {
            duration: registry.histogram(
                "engine_checkpoint_duration_ns",
                "Nanoseconds per successful checkpoint write",
            ),
            bytes: registry.histogram(
                "engine_checkpoint_bytes",
                "Bytes written per successful checkpoint",
            ),
            epoch: registry.gauge(
                "engine_checkpoint_epoch",
                "Newest epoch written or restored by this engine",
            ),
            written: registry.counter("engine_checkpoints_written_total", "Checkpoints completed"),
            failures: registry.counter(
                "engine_checkpoint_failures_total",
                "Checkpoints abandoned after exhausting retries",
            ),
            retries: registry.counter(
                "engine_checkpoint_retries_total",
                "Retry attempts after failed checkpoint writes",
            ),
            restore_duration: registry.histogram(
                "engine_restore_duration_ns",
                "Nanoseconds per successful restore, epoch selection through the last cell",
            ),
            restored_flows: registry
                .counter("engine_restore_flows_total", "Flows rebuilt by restore"),
            skipped_epochs: registry.counter(
                "engine_restore_skipped_epochs_total",
                "Inconsistent epochs skipped during restore",
            ),
            dir_sync_failures: registry.counter(
                "engine_checkpoint_dir_sync_failures_total",
                "Directory fsyncs that failed after a checkpoint was written",
            ),
        }
    }
}

fn epoch_dir_name(epoch: u64) -> String {
    format!("epoch-{epoch:010}")
}

fn parse_epoch_dir(name: &str) -> Option<u64> {
    name.strip_prefix("epoch-")?.parse().ok()
}

fn io_err(what: &str, path: &Path, e: std::io::Error) -> Error {
    Error::io(format!("{what} {}: {e}", path.display()))
}

/// Epoch numbers present under `dir` (directories only), ascending.
/// A missing checkpoint directory is simply an empty history.
pub(crate) fn list_epochs(dir: &Path) -> Vec<u64> {
    let Ok(entries) = fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut epochs: Vec<u64> = entries
        .filter_map(|e| {
            let e = e.ok()?;
            if !e.file_type().ok()?.is_dir() {
                return None;
            }
            parse_epoch_dir(e.file_name().to_str()?)
        })
        .collect();
    epochs.sort_unstable();
    epochs
}

/// Write `bytes` to `path` atomically: `.tmp` sibling → fsync → rename.
/// A crash at any point leaves either the old file or no file — never
/// a torn one (torn files come only from outside interference, which
/// the checksums catch).
fn write_atomic(path: &Path, bytes: &[u8]) -> smb_core::Result<()> {
    let tmp = path.with_extension("tmp");
    let mut f = File::create(&tmp).map_err(|e| io_err("create", &tmp, e))?;
    f.write_all(bytes).map_err(|e| io_err("write", &tmp, e))?;
    f.sync_all().map_err(|e| io_err("fsync", &tmp, e))?;
    drop(f);
    fs::rename(&tmp, path).map_err(|e| io_err("rename", path, e))
}

/// Fsync a directory so the renames into it are durable.
fn sync_dir(path: &Path) -> std::io::Result<()> {
    File::open(path)?.sync_all()
}

/// Snapshot one shard's flow table as `(flow, state)` pairs sorted by
/// flow key, so a given table always produces identical bytes (and
/// therefore an identical CRC). Each cell serializes its own tier —
/// unmaterialized cells as a `{"tier", "hashes"}` wrapper, full cells
/// as the estimator's bare state (byte-identical to pre-tier
/// checkpoints). [`crate::QueryHandle::snapshot_cells`] reads tables
/// through this; checkpoint shards and `SNAPSHOT` encode cells
/// directly ([`push_shard_cells`]).
pub(crate) fn shard_flows(table: &ShardTable) -> smb_core::Result<Vec<(u64, Json)>> {
    let mut flows: Vec<(u64, Json)> = Vec::with_capacity(table.len());
    for (flow, state) in table.snapshot_cells() {
        let state = state.ok_or_else(|| {
            Error::invalid(
                "snapshot",
                format!("estimator for flow {flow} does not support snapshots"),
            )
        })?;
        flows.push((flow, state));
    }
    flows.sort_unstable_by_key(|&(flow, _)| flow);
    Ok(flows)
}

/// Encode every cell of one shard's table into `block`, straight from
/// the live cells. Once sorted, the cells frame to the same bytes
/// `encode_flow_block(&shard_flows(table)?)` gives.
pub(crate) fn push_shard_cells(
    block: &mut FlowBlockBuilder,
    table: &ShardTable,
) -> smb_core::Result<()> {
    for (flow, cell) in table.cells() {
        block
            .push_cell(flow, cell)
            .map_err(|e| Error::invalid("snapshot", e.to_string()))?;
    }
    Ok(())
}

/// Sort `block`'s cells by flow key and frame them as one flow block.
pub(crate) fn finish_block(block: FlowBlockBuilder) -> smb_core::Result<Vec<u8>> {
    block
        .finish_sorted()
        .map_err(|e| Error::invalid("snapshot", e.to_string()))
}

/// Write epoch `epoch`: every shard file, then the manifest as the
/// commit record. Returns the total bytes written. Each shard's table
/// lock is held only while that shard's cells are read, so ingest
/// keeps flowing on the other shards.
///
/// The epoch and checkpoint directories are fsynced last so the
/// renames survive a crash. A failed directory fsync is counted in
/// `engine_checkpoint_dir_sync_failures_total` but does not fail the
/// checkpoint: some filesystems cannot fsync directories, and a lost
/// rename only costs the newest epoch's durability, never its
/// consistency (restore falls back to an older epoch).
pub(crate) fn write_checkpoint(
    config: &CheckpointConfig,
    epoch: u64,
    spec: AlgoSpec,
    tables: &[Arc<Mutex<ShardTable>>],
    metrics: &CheckpointMetrics,
) -> smb_core::Result<u64> {
    let edir = config.dir.join(epoch_dir_name(epoch));
    fs::create_dir_all(&edir).map_err(|e| io_err("create dir", &edir, e))?;
    let mut files: Vec<Json> = Vec::with_capacity(tables.len());
    let mut total = 0u64;
    for (shard, table) in tables.iter().enumerate() {
        let mut block = FlowBlockBuilder::default();
        push_shard_cells(&mut block, &table.lock().expect("shard table lock"))?;
        let bytes = finish_block(block)?;
        let name = shard_file_name(FORMAT_V2, shard);
        write_atomic(&edir.join(&name), &bytes)?;
        files.push(Json::Obj(vec![
            ("name".into(), Json::Str(name)),
            ("crc32".into(), Json::Int(crc32(&bytes) as i128)),
            ("bytes".into(), Json::Int(bytes.len() as i128)),
        ]));
        total += bytes.len() as u64;
    }
    let body = Json::Obj(vec![
        ("epoch".into(), Json::Int(epoch as i128)),
        ("format".into(), Json::Int(FORMAT_V2 as i128)),
        ("spec".into(), spec.to_json()),
        ("shards".into(), Json::Int(tables.len() as i128)),
        ("files".into(), Json::Arr(files)),
    ]);
    // The manifest carries a CRC over its own body. The serializer is
    // deterministic (insertion-ordered objects, `{:?}`-exact floats),
    // so the reader can re-serialize the parsed body and compare.
    let body_text = body.to_string();
    let manifest = Json::Obj(vec![
        ("crc32".into(), Json::Int(crc32(body_text.as_bytes()) as i128)),
        ("body".into(), body),
    ]);
    let manifest_bytes = manifest.to_string().into_bytes();
    total += manifest_bytes.len() as u64;
    write_atomic(&edir.join(MANIFEST), &manifest_bytes)?;
    for dir in [&edir, &config.dir] {
        if sync_dir(dir).is_err() {
            metrics.dir_sync_failures.inc();
        }
    }
    Ok(total)
}

/// Delete the oldest epoch directories until at most `keep` remain.
/// Best-effort: a prune failure never fails the checkpoint that
/// triggered it.
pub(crate) fn prune_epochs(dir: &Path, keep: usize) {
    let epochs = list_epochs(dir);
    if epochs.len() <= keep {
        return;
    }
    for &epoch in &epochs[..epochs.len() - keep] {
        let _ = fs::remove_dir_all(dir.join(epoch_dir_name(epoch)));
    }
}

/// A fully validated epoch, ready to rebuild estimators from.
pub(crate) struct LoadedEpoch {
    pub spec: AlgoSpec,
    pub shards: usize,
    /// Every `(flow, state)` pair across all shard files.
    pub flows: Vec<(u64, CellState)>,
}

/// Validate and load one epoch. `Err` carries the human-readable
/// reason the epoch fails its consistency check.
fn load_epoch(dir: &Path, epoch: u64) -> Result<LoadedEpoch, String> {
    let edir = dir.join(epoch_dir_name(epoch));
    let manifest_path = edir.join(MANIFEST);
    let manifest_bytes = fs::read(&manifest_path)
        .map_err(|e| format!("manifest unreadable ({e}) — epoch torn before commit"))?;
    let manifest_text =
        String::from_utf8(manifest_bytes).map_err(|_| "manifest is not UTF-8".to_string())?;
    let manifest =
        Json::parse(&manifest_text).map_err(|e| format!("manifest does not parse: {e}"))?;
    let recorded_crc = manifest
        .field("crc32")
        .and_then(|v| v.as_u64())
        .map_err(|e| format!("manifest crc32 field: {e}"))?;
    let body = manifest
        .field("body")
        .map_err(|e| format!("manifest body field: {e}"))?;
    if crc32(body.to_string().as_bytes()) as u64 != recorded_crc {
        return Err("manifest checksum mismatch — manifest corrupted".into());
    }
    if body
        .field("epoch")
        .and_then(|v| v.as_u64())
        .map_err(|e| format!("manifest epoch field: {e}"))?
        != epoch
    {
        return Err("manifest epoch does not match its directory".into());
    }
    // Pre-v2 manifests carry no `format` field; absent means v1 JSON.
    let format = match body.field("format") {
        Ok(v) => v
            .as_u64()
            .map_err(|e| format!("manifest format field: {e}"))?,
        Err(_) => FORMAT_V1,
    };
    if format != FORMAT_V1 && format != FORMAT_V2 {
        return Err(format!("unknown checkpoint format {format}"));
    }
    let spec = AlgoSpec::from_json(body.field("spec").map_err(|e| e.to_string())?)
        .map_err(|e| format!("manifest spec invalid: {e}"))?;
    let shards = body
        .field("shards")
        .and_then(|v| v.as_usize())
        .map_err(|e| format!("manifest shards field: {e}"))?;
    let Json::Arr(files) = body.field("files").map_err(|e| e.to_string())? else {
        return Err("manifest files field is not an array".into());
    };
    if files.len() != shards {
        return Err(format!(
            "manifest lists {} files for {shards} shards",
            files.len()
        ));
    }
    let mut flows: Vec<(u64, CellState)> = Vec::new();
    for (shard, entry) in files.iter().enumerate() {
        let name = entry
            .field("name")
            .and_then(|v| v.as_str().map(str::to_owned))
            .map_err(|e| format!("file entry {shard}: {e}"))?;
        if name != shard_file_name(format, shard) {
            return Err(format!("file entry {shard} names `{name}`"));
        }
        let want_crc = entry
            .field("crc32")
            .and_then(|v| v.as_u64())
            .map_err(|e| format!("{name} crc32: {e}"))?;
        let want_len = entry
            .field("bytes")
            .and_then(|v| v.as_usize())
            .map_err(|e| format!("{name} bytes: {e}"))?;
        let path = edir.join(&name);
        let bytes = fs::read(&path).map_err(|e| format!("{name} unreadable ({e}) — missing shard"))?;
        if bytes.len() != want_len {
            return Err(format!(
                "{name} is {} bytes, manifest records {want_len} — torn shard file",
                bytes.len()
            ));
        }
        if crc32(&bytes) as u64 != want_crc {
            return Err(format!("{name} checksum mismatch — shard file corrupted"));
        }
        if format == FORMAT_V2 {
            let decoded = smb_sketch::codec::decode_flow_states(&bytes)
                .map_err(|e| format!("{name} does not decode: {e}"))?;
            flows.extend(decoded);
        } else {
            read_v1_shard(&name, bytes, &mut flows)?;
        }
    }
    Ok(LoadedEpoch { spec, shards, flows })
}

/// Append a v1 shard's `[flow, state]` pairs to `flows`, each state
/// read into its typed form ([`CellState::from_json`]).
fn read_v1_shard(
    name: &str,
    bytes: Vec<u8>,
    flows: &mut Vec<(u64, CellState)>,
) -> Result<(), String> {
    let text = String::from_utf8(bytes).map_err(|_| format!("{name} is not UTF-8"))?;
    let json = Json::parse(&text).map_err(|e| format!("{name} does not parse: {e}"))?;
    let Json::Obj(fields) = json else {
        return Err(format!("{name} is not a JSON object"));
    };
    let Some((_, Json::Arr(pairs))) = fields.into_iter().find(|(key, _)| key == "flows") else {
        return Err(format!("{name} has no flows array"));
    };
    for pair in pairs {
        let Json::Arr(kv) = pair else {
            return Err(format!("{name} holds a non-pair flow entry"));
        };
        let Ok([flow, state]) = <[Json; 2]>::try_from(kv) else {
            return Err(format!("{name} holds a malformed flow pair"));
        };
        let flow = flow.as_u64().map_err(|e| format!("{name} flow key: {e}"))?;
        flows.push((flow, CellState::from_json(state)));
    }
    Ok(())
}

/// Walk epochs newest-first and return the first consistent one, plus
/// a [`RestoreReport`] (with `flows` still 0 — the caller fills it in
/// after rebuilding) listing every newer epoch that had to be skipped.
pub(crate) fn select_epoch(dir: &Path) -> smb_core::Result<(LoadedEpoch, RestoreReport)> {
    let epochs = list_epochs(dir);
    if epochs.is_empty() {
        return Err(Error::NoConsistentCheckpoint {
            detail: format!("{}: no epoch directories found", dir.display()),
        });
    }
    let mut skipped: Vec<(u64, String)> = Vec::new();
    for &epoch in epochs.iter().rev() {
        match load_epoch(dir, epoch) {
            Ok(loaded) => {
                let report = RestoreReport {
                    epoch,
                    flows: 0,
                    checkpoint_shards: loaded.shards,
                    skipped,
                };
                return Ok((loaded, report));
            }
            Err(reason) => skipped.push((epoch, reason)),
        }
    }
    let detail = skipped
        .iter()
        .map(|(epoch, reason)| format!("epoch {epoch}: {reason}"))
        .collect::<Vec<_>>()
        .join("; ");
    Err(Error::NoConsistentCheckpoint {
        detail: format!("{}: {detail}", dir.display()),
    })
}

/// Allocate the next epoch number: past everything on disk *and* past
/// everything this engine already wrote (the shared counter), so a
/// manual checkpoint and the background thread never collide.
pub(crate) fn alloc_epoch(dir: &Path, counter: &Mutex<u64>) -> u64 {
    let mut next = counter.lock().expect("epoch counter lock");
    let disk_next = list_epochs(dir).last().map_or(0, |&e| e + 1);
    let epoch = (*next).max(disk_next);
    *next = epoch + 1;
    epoch
}

/// One checkpoint attempt with the config's retry/backoff budget,
/// recording metrics either way. Returns the epoch written.
pub(crate) fn checkpoint_with_retries(
    config: &CheckpointConfig,
    counter: &Mutex<u64>,
    spec: AlgoSpec,
    tables: &[Arc<Mutex<ShardTable>>],
    metrics: &CheckpointMetrics,
    flight: Option<&FlightRecorder>,
) -> smb_core::Result<u64> {
    let epoch = alloc_epoch(&config.dir, counter);
    let mut attempt = 0u32;
    loop {
        let start = Instant::now();
        match write_checkpoint(config, epoch, spec, tables, metrics) {
            Ok(bytes) => {
                metrics
                    .duration
                    .record(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
                metrics.bytes.record(bytes);
                metrics.epoch.set(epoch as i64);
                metrics.written.inc();
                if let Some(flight) = flight {
                    flight.record(FlightEvent {
                        kind: FlightEventKind::Checkpoint,
                        round: 0,
                        fresh_bits: 0,
                        logical_size: 0,
                        // Field reuse: for checkpoint events `items`
                        // carries the epoch number written.
                        items: epoch,
                        estimate: 0.0,
                        at_ns: 0,
                    });
                }
                prune_epochs(&config.dir, config.keep_epochs);
                return Ok(epoch);
            }
            Err(e) => {
                if attempt >= config.retries {
                    metrics.failures.inc();
                    // Drop the partial epoch so recovery never has to
                    // wade through it (it would be skipped anyway — no
                    // manifest — but there is no reason to keep it).
                    let _ = fs::remove_dir_all(config.dir.join(epoch_dir_name(epoch)));
                    return Err(e);
                }
                attempt += 1;
                metrics.retries.inc();
                std::thread::sleep(config.backoff);
            }
        }
    }
}

/// The background checkpointer: a thread writing one epoch per
/// interval until stopped. Owned by the engine; stopping joins the
/// thread without a final write (the engine's `finish` handles that).
pub(crate) struct Checkpointer {
    pub(crate) config: CheckpointConfig,
    stop: Arc<(Mutex<bool>, Condvar)>,
    handle: Option<JoinHandle<()>>,
}

impl Checkpointer {
    pub(crate) fn spawn(
        config: CheckpointConfig,
        spec: AlgoSpec,
        tables: Vec<Arc<Mutex<ShardTable>>>,
        metrics: Arc<CheckpointMetrics>,
        counter: Arc<Mutex<u64>>,
        flight: Option<Arc<FlightRecorder>>,
    ) -> Self {
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let thread_stop = Arc::clone(&stop);
        let thread_config = config.clone();
        let handle = std::thread::Builder::new()
            .name("smb-engine-checkpoint".into())
            .spawn(move || {
                let (lock, cvar) = &*thread_stop;
                loop {
                    // Deadline-based wait: spurious condvar wakeups go
                    // back to sleep for the remaining interval instead
                    // of checkpointing early.
                    let deadline = Instant::now() + thread_config.interval;
                    let mut stopped = lock.lock().expect("checkpointer stop lock");
                    loop {
                        if *stopped {
                            return;
                        }
                        let now = Instant::now();
                        if now >= deadline {
                            break;
                        }
                        let (guard, _) = cvar
                            .wait_timeout(stopped, deadline - now)
                            .expect("checkpointer stop lock");
                        stopped = guard;
                    }
                    drop(stopped);
                    // Failure is recorded in the metrics; the loop
                    // carries on and tries again next interval.
                    let _ = checkpoint_with_retries(
                        &thread_config,
                        &counter,
                        spec,
                        &tables,
                        &metrics,
                        flight.as_deref(),
                    );
                }
            })
            .expect("spawn checkpointer");
        Checkpointer {
            config,
            stop,
            handle: Some(handle),
        }
    }

    /// Signal the thread and join it. No final checkpoint is written.
    pub(crate) fn stop(mut self) {
        let (lock, cvar) = &*self.stop;
        *lock.lock().expect("checkpointer stop lock") = true;
        cvar.notify_all();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_names_round_trip_and_sort() {
        assert_eq!(epoch_dir_name(0), "epoch-0000000000");
        assert_eq!(epoch_dir_name(42), "epoch-0000000042");
        assert_eq!(parse_epoch_dir("epoch-0000000042"), Some(42));
        assert_eq!(parse_epoch_dir("epoch-x"), None);
        assert_eq!(parse_epoch_dir("shard-0000.json"), None);
        // Zero-padding keeps lexicographic and numeric order aligned
        // through ten digits.
        assert!(epoch_dir_name(9) < epoch_dir_name(10));
        assert!(epoch_dir_name(999_999_999) < epoch_dir_name(1_000_000_000));
    }

    #[test]
    fn config_defaults_and_validation() {
        let c = CheckpointConfig::new("/tmp/x");
        assert_eq!(c.interval, Duration::from_secs(30));
        assert_eq!(c.retries, 3);
        assert_eq!(c.keep_epochs, 2);
        assert!(c.validate().is_ok());
        assert!(c.clone().with_keep_epochs(0).validate().is_err());
        assert!(c.with_interval(Duration::ZERO).validate().is_err());
    }

    #[test]
    fn list_epochs_of_missing_dir_is_empty() {
        assert!(list_epochs(Path::new("/nonexistent/smb-ckpt")).is_empty());
    }

    #[test]
    fn sync_dir_reports_failure_instead_of_swallowing_it() {
        let dir = std::env::temp_dir().join(format!("smb-sync-dir-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        assert!(sync_dir(&dir).is_ok());
        fs::remove_dir_all(&dir).unwrap();
        assert!(
            sync_dir(&dir).is_err(),
            "a removed directory cannot be synced"
        );
    }

    #[test]
    fn alloc_epoch_is_monotone_and_disk_aware() {
        let dir = std::env::temp_dir().join(format!("smb-alloc-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let counter = Mutex::new(0u64);
        assert_eq!(alloc_epoch(&dir, &counter), 0);
        assert_eq!(alloc_epoch(&dir, &counter), 1);
        // Epochs already on disk (e.g. from a previous process) push
        // the counter forward.
        fs::create_dir_all(dir.join(epoch_dir_name(7))).unwrap();
        assert_eq!(alloc_epoch(&dir, &counter), 8);
        fs::remove_dir_all(&dir).unwrap();
    }
}
