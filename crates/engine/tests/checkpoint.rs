//! Crash-injection tests for the engine's durability subsystem.
//!
//! Each test builds a populated engine, writes checkpoint epochs, then
//! damages the newest epoch the way a crash or disk fault would —
//! truncating a shard file mid-write, flipping manifest bytes, deleting
//! one shard of N — and proves recovery lands on the newest *consistent*
//! epoch with bit-identical per-flow estimates.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration;

use smb_engine::{CheckpointConfig, EngineConfig, ShardedFlowEngine};
use smb_factory::{Algo, AlgoSpec};

fn spec() -> AlgoSpec {
    AlgoSpec::new(Algo::Smb).memory_bits(2048).n_max(1e5).seed(3)
}

/// A fresh, empty scratch directory unique to this test and process.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("smb-ckpt-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn config(dir: &Path) -> CheckpointConfig {
    // No retries: injected faults should fail fast in tests.
    CheckpointConfig::new(dir).with_retries(0).with_keep_epochs(100)
}

fn engine(shards: usize) -> ShardedFlowEngine {
    ShardedFlowEngine::new(EngineConfig::new(spec()).with_shards(shards).with_batch(64))
        .expect("valid config")
}

fn ingest_range(engine: &mut ShardedFlowEngine, flows: u64, lo: u32, hi: u32) {
    for i in lo..hi {
        engine.ingest(u64::from(i) % flows, &i.to_le_bytes());
    }
}

/// `(flow, estimate-bits)` pairs, sorted — the bit-identical comparison
/// currency of every test here.
fn estimate_bits(engine: &ShardedFlowEngine) -> Vec<(u64, u64)> {
    let mut v: Vec<(u64, u64)> = engine
        .all_estimates()
        .into_iter()
        .map(|(flow, est)| (flow, est.to_bits()))
        .collect();
    v.sort_unstable();
    v
}

fn epoch_dirs(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = fs::read_dir(dir)
        .expect("read checkpoint dir")
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|n| n.starts_with("epoch-"))
        .collect();
    names.sort();
    names
}

#[test]
fn roundtrip_is_bit_identical_and_resumable() {
    let dir = scratch("roundtrip");
    let cfg = config(&dir);
    let mut original = engine(3);
    ingest_range(&mut original, 20, 0, 30_000);
    let epoch = original.checkpoint_now(&cfg).expect("checkpoint");
    assert_eq!(epoch, 0);
    let want = estimate_bits(&original);

    let (restored, report) = ShardedFlowEngine::restore(&dir).expect("restore");
    assert_eq!(report.epoch, 0);
    assert_eq!(report.flows, 20);
    assert_eq!(report.checkpoint_shards, 3);
    assert!(report.skipped.is_empty());
    assert_eq!(estimate_bits(&restored), want, "restore must be bit-identical");

    // The restored engine is live: ingesting the same continuation into
    // both engines keeps them bit-identical — including SMB morphs that
    // the continuation triggers.
    let mut restored = restored;
    ingest_range(&mut original, 20, 30_000, 60_000);
    ingest_range(&mut restored, 20, 30_000, 60_000);
    original.flush();
    restored.flush();
    assert_eq!(
        estimate_bits(&restored),
        estimate_bits(&original),
        "post-restore ingest must track the original"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn restore_repartitions_across_shard_counts() {
    let dir = scratch("repartition");
    let cfg = config(&dir);
    let mut original = engine(2);
    ingest_range(&mut original, 15, 0, 20_000);
    original.checkpoint_now(&cfg).expect("checkpoint");
    let want = estimate_bits(&original);

    // A 2-shard checkpoint restores into 3-shard and 1-shard engines:
    // flows are re-partitioned, estimates unchanged.
    for shards in [3usize, 1] {
        let econfig = EngineConfig::new(spec()).with_shards(shards);
        let (restored, report) =
            ShardedFlowEngine::restore_with(econfig, &dir).expect("restore");
        assert_eq!(report.checkpoint_shards, 2);
        assert_eq!(restored.config().shards, shards);
        assert_eq!(
            estimate_bits(&restored),
            want,
            "{shards}-shard restore of a 2-shard checkpoint"
        );
        // Flow placement obeys the *restored* engine's partition: a
        // later ingest must reach the estimator that was restored.
        let mut restored = restored;
        restored.ingest(7, b"fresh item after restore");
        restored.flush();
        assert!(restored.query(7).is_some());
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn torn_shard_file_recovers_to_previous_epoch() {
    let dir = scratch("torn-shard");
    let cfg = config(&dir);
    let mut original = engine(2);
    ingest_range(&mut original, 10, 0, 10_000);
    original.checkpoint_now(&cfg).expect("epoch 0");
    let want = estimate_bits(&original);
    ingest_range(&mut original, 10, 10_000, 20_000);
    original.checkpoint_now(&cfg).expect("epoch 1");

    // Truncate epoch 1's first shard file mid-body, as a crash between
    // write and fsync would.
    let victim = dir.join("epoch-0000000001").join("shard-0000.bin");
    let bytes = fs::read(&victim).unwrap();
    fs::write(&victim, &bytes[..bytes.len() / 2]).unwrap();

    let (restored, report) = ShardedFlowEngine::restore(&dir).expect("degrade to epoch 0");
    assert_eq!(report.epoch, 0);
    assert_eq!(report.skipped.len(), 1);
    assert_eq!(report.skipped[0].0, 1);
    assert!(
        report.skipped[0].1.contains("torn"),
        "reason should mention the tear: {}",
        report.skipped[0].1
    );
    assert_eq!(estimate_bits(&restored), want);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_manifest_recovers_to_previous_epoch() {
    let dir = scratch("bad-manifest");
    let cfg = config(&dir);
    let mut original = engine(2);
    ingest_range(&mut original, 8, 0, 8_000);
    original.checkpoint_now(&cfg).expect("epoch 0");
    let want = estimate_bits(&original);
    ingest_range(&mut original, 8, 8_000, 16_000);
    original.checkpoint_now(&cfg).expect("epoch 1");

    // Flip one byte inside the manifest body (bit rot / partial
    // overwrite). The manifest's self-CRC must catch it.
    let victim = dir.join("epoch-0000000001").join("MANIFEST.json");
    let mut bytes = fs::read(&victim).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    fs::write(&victim, &bytes).unwrap();

    let (restored, report) = ShardedFlowEngine::restore(&dir).expect("degrade to epoch 0");
    assert_eq!(report.epoch, 0);
    assert_eq!(report.skipped.len(), 1);
    assert_eq!(estimate_bits(&restored), want);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn missing_shard_file_recovers_to_previous_epoch() {
    let dir = scratch("missing-shard");
    let cfg = config(&dir);
    let mut original = engine(4);
    ingest_range(&mut original, 12, 0, 12_000);
    original.checkpoint_now(&cfg).expect("epoch 0");
    let want = estimate_bits(&original);
    ingest_range(&mut original, 12, 12_000, 24_000);
    original.checkpoint_now(&cfg).expect("epoch 1");

    fs::remove_file(dir.join("epoch-0000000001").join("shard-0002.bin")).unwrap();

    let (restored, report) = ShardedFlowEngine::restore(&dir).expect("degrade to epoch 0");
    assert_eq!(report.epoch, 0);
    assert_eq!(report.skipped.len(), 1);
    assert!(
        report.skipped[0].1.contains("missing"),
        "reason should mention the missing shard: {}",
        report.skipped[0].1
    );
    assert_eq!(estimate_bits(&restored), want);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn unrecoverable_directories_error_cleanly() {
    // Empty directory: nothing to restore.
    let dir = scratch("empty");
    let err = ShardedFlowEngine::restore(&dir).expect_err("no epochs");
    assert!(
        err.to_string().contains("no consistent checkpoint"),
        "{err}"
    );

    // Every epoch corrupt: the error names each rejected epoch.
    let cfg = config(&dir);
    let mut original = engine(2);
    ingest_range(&mut original, 5, 0, 5_000);
    original.checkpoint_now(&cfg).expect("epoch 0");
    fs::remove_file(dir.join("epoch-0000000000").join("MANIFEST.json")).unwrap();
    let err = ShardedFlowEngine::restore(&dir).expect_err("all epochs torn");
    assert!(err.to_string().contains("epoch 0"), "{err}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn restore_with_rejects_mismatched_spec() {
    let dir = scratch("spec-mismatch");
    let cfg = config(&dir);
    let mut original = engine(2);
    ingest_range(&mut original, 5, 0, 5_000);
    original.checkpoint_now(&cfg).expect("checkpoint");

    let other = AlgoSpec::new(Algo::Hll).memory_bits(2048).n_max(1e5).seed(3);
    let err = ShardedFlowEngine::restore_with(EngineConfig::new(other), &dir)
        .expect_err("HLL engine must not restore SMB state");
    assert!(err.to_string().contains("invalid parameter"), "{err}");

    let reseeded = spec().seed(99);
    assert!(ShardedFlowEngine::restore_with(EngineConfig::new(reseeded), &dir).is_err());
    let _ = fs::remove_dir_all(&dir);
}

/// A deliberate tier mix: 60 singleton flows (small tier), 20 flows
/// of 8 distinct items (array tier), 10 flows of 200 distinct items
/// (materialized estimators). Mirrors the census test in the engine's
/// unit suite.
fn ingest_tier_mix(engine: &mut ShardedFlowEngine) {
    for f in 0..60u64 {
        engine.ingest(f, b"lonely");
    }
    for f in 60..80u64 {
        for i in 0..8u32 {
            engine.ingest(f, &(f as u32 * 1_000 + i).to_le_bytes());
        }
    }
    for f in 80..90u64 {
        for i in 0..200u32 {
            engine.ingest(f, &(f as u32 * 1_000 + i).to_le_bytes());
        }
    }
    engine.flush();
}

fn tier_census(engine: &ShardedFlowEngine) -> (usize, usize, usize) {
    let t = engine.tier_stats();
    (t.small, t.array, t.full)
}

/// Cells checkpoint *at their tier*: small and array flows round-trip
/// as stored hashes, not prematurely materialized estimators, and the
/// restored engine keeps promoting exactly like the original.
#[test]
fn tiered_cells_round_trip_their_tier_through_checkpoint() {
    let dir = scratch("tier-roundtrip");
    let cfg = config(&dir);
    let mut original = engine(2);
    ingest_tier_mix(&mut original);
    assert_eq!(tier_census(&original), (60, 20, 10));
    original.checkpoint_now(&cfg).expect("checkpoint");
    let want = estimate_bits(&original);

    let (restored, report) = ShardedFlowEngine::restore(&dir).expect("restore");
    assert_eq!(report.flows, 90);
    assert_eq!(estimate_bits(&restored), want, "restore must be bit-identical");
    assert_eq!(
        tier_census(&restored),
        (60, 20, 10),
        "restore must land every cell on its checkpointed tier"
    );

    // The restored engine crosses promotion boundaries exactly like
    // the original: push a small flow to array, an array flow to full,
    // and keep feeding a full flow.
    let mut restored = restored;
    for target in [&mut original, &mut restored] {
        for (flow, items) in [(5u64, 4u32), (65, 12), (85, 100)] {
            for i in 0..items {
                target.ingest(flow, &(900_000 + flow as u32 * 1_000 + i).to_le_bytes());
            }
        }
        target.flush();
    }
    assert_eq!(
        estimate_bits(&restored),
        estimate_bits(&original),
        "post-restore ingest across promotion boundaries must track the original"
    );
    assert_eq!(tier_census(&restored), tier_census(&original));
    let t = restored.tier_stats();
    assert!(
        t.promotions_to_array >= 1 && t.promotions_to_full >= 1,
        "continued ingest must promote restored cells: {t:?}"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// A mixed-tier checkpoint restores into a different shard count with
/// the tier census and every estimate intact.
#[test]
fn mixed_tier_checkpoint_repartitions_across_shard_counts() {
    let dir = scratch("tier-repartition");
    let cfg = config(&dir);
    let mut original = engine(2);
    ingest_tier_mix(&mut original);
    original.checkpoint_now(&cfg).expect("checkpoint");
    let want = estimate_bits(&original);

    for shards in [3usize, 1] {
        let econfig = EngineConfig::new(spec()).with_shards(shards);
        let (restored, report) =
            ShardedFlowEngine::restore_with(econfig, &dir).expect("restore");
        assert_eq!(report.checkpoint_shards, 2);
        assert_eq!(report.flows, 90);
        assert_eq!(
            estimate_bits(&restored),
            want,
            "{shards}-shard restore of a 2-shard mixed-tier checkpoint"
        );
        assert_eq!(
            tier_census(&restored),
            (60, 20, 10),
            "re-partitioning must not disturb any cell's tier"
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

/// Golden epochs of `engine(2)` after `ingest_tier_mix`, one per shard
/// format: v1 JSON shards and v2 flow blocks. They were written by the
/// last version of the engine that still wrote v1, so they pin what
/// restore must keep reading.
fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Total bytes of an epoch directory's shard files.
fn shard_bytes(epoch_dir: &Path) -> u64 {
    fs::read_dir(epoch_dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().starts_with("shard-"))
        .map(|e| e.metadata().unwrap().len())
        .sum()
}

/// Both golden checkpoints restore bit-identically to a fresh engine fed
/// the same items — estimates, tier census, and continued ingest —
/// and a v2 epoch torn on top of the v1 one degrades restore across
/// formats onto it.
#[test]
fn golden_v1_and_v2_checkpoints_restore_bit_identically() {
    let mut fresh = engine(2);
    ingest_tier_mix(&mut fresh);
    let want = estimate_bits(&fresh);

    let v1_epoch = fixture("tier_mix_v1").join("epoch-0000000000");
    let v2_epoch = fixture("tier_mix_v2").join("epoch-0000000000");
    assert_eq!(
        fs::read(v1_epoch.join("shard-0000.json")).unwrap().first(),
        Some(&b'{')
    );
    assert_eq!(
        &fs::read(v2_epoch.join("shard-0000.bin")).unwrap()[..4],
        b"SMB2"
    );
    assert!(
        shard_bytes(&v2_epoch) * 2 <= shard_bytes(&v1_epoch),
        "v2 shards ({} B) should be at most half the v1 shards ({} B)",
        shard_bytes(&v2_epoch),
        shard_bytes(&v1_epoch)
    );

    let (mut from_v1, r1) = ShardedFlowEngine::restore(fixture("tier_mix_v1")).expect("v1");
    let (mut from_v2, r2) = ShardedFlowEngine::restore(fixture("tier_mix_v2")).expect("v2");
    for (report, restored) in [(&r1, &from_v1), (&r2, &from_v2)] {
        assert_eq!(
            (report.epoch, report.flows, report.checkpoint_shards),
            (0, 90, 2)
        );
        assert!(report.skipped.is_empty());
        assert_eq!(estimate_bits(restored), want, "restore bit-identical");
        assert_eq!(tier_census(restored), (60, 20, 10));
    }

    // Both restored engines keep tracking the fresh one exactly across
    // future promotions and morphs.
    for target in [&mut fresh, &mut from_v1, &mut from_v2] {
        for f in 0..90u64 {
            for i in 0..40u32 {
                target.ingest(f, &(500_000 + f as u32 * 100 + i).to_le_bytes());
            }
        }
        target.flush();
    }
    assert_eq!(estimate_bits(&from_v1), estimate_bits(&fresh));
    assert_eq!(estimate_bits(&from_v2), estimate_bits(&fresh));
    assert_eq!(tier_census(&from_v1), tier_census(&fresh));
    assert_eq!(tier_census(&from_v2), tier_census(&fresh));

    // Cross-format fallback: the v1 fixture as epoch 0, a v2 epoch 1
    // written by an engine restored from it (and fed more), then epoch
    // 1 torn — restore must land on epoch 0, bit-identically.
    let dir = scratch("golden-fallback");
    let epoch0 = dir.join("epoch-0000000000");
    fs::create_dir_all(&epoch0).unwrap();
    for file in fs::read_dir(&v1_epoch).unwrap() {
        let file = file.unwrap();
        fs::copy(file.path(), epoch0.join(file.file_name())).unwrap();
    }
    let (mut continued, _) = ShardedFlowEngine::restore(&dir).expect("restore epoch 0");
    ingest_range(&mut continued, 90, 0, 5_000);
    assert_eq!(continued.checkpoint_now(&config(&dir)).expect("epoch 1"), 1);
    let victim = dir.join("epoch-0000000001").join("shard-0001.bin");
    let bytes = fs::read(&victim).expect("epoch 1 is written as v2");
    fs::write(&victim, &bytes[..16]).unwrap();
    let (fallback, report) = ShardedFlowEngine::restore(&dir).expect("degrade to epoch 0");
    assert_eq!(report.epoch, 0);
    assert_eq!(report.skipped.len(), 1);
    assert!(
        report.skipped[0].1.contains("torn"),
        "{}",
        report.skipped[0].1
    );
    assert_eq!(estimate_bits(&fallback), want);
    assert_eq!(tier_census(&fallback), (60, 20, 10));
    let _ = fs::remove_dir_all(&dir);
}

/// Restore builds every SMB on the spec's one shared parameter block,
/// and a restored engine re-encodes exactly the SNAPSHOT the original
/// gave before its checkpoint.
#[test]
fn typed_restore_shares_spec_params_and_resnapshots_byte_identically() {
    use smb_sketch::codec::{decode_flow_states, CellState};
    use std::sync::Arc;

    let dir = scratch("typed-restore");
    let mut original = engine(2);
    ingest_tier_mix(&mut original);
    ingest_range(&mut original, 4, 0, 20_000);
    original.flush();
    let before = original.query_handle().snapshot_block().expect("snapshot");
    let epoch = original.checkpoint_now(&config(&dir)).expect("checkpoint");

    let (restored, _) = ShardedFlowEngine::restore(&dir).expect("restore");
    assert_eq!(
        restored
            .query_handle()
            .snapshot_block()
            .expect("re-snapshot"),
        before,
        "re-SNAPSHOT after restore must be byte-identical"
    );

    // Every full SMB cell in the shards restores onto the spec's block.
    let params = spec().smb_params().expect("SMB spec");
    let mut smbs = 0;
    for shard in 0..2 {
        let name = format!("epoch-{epoch:010}/shard-{shard:04}.bin");
        let states = decode_flow_states(&fs::read(dir.join(name)).unwrap()).unwrap();
        for (_, state) in states {
            if let CellState::Smb {
                scheme,
                t,
                r,
                v,
                bits,
            } = state
            {
                let smb = smb_factory::restore_smb(spec(), scheme, t, r, v, bits).unwrap();
                assert!(Arc::ptr_eq(smb.params(), &params));
                smbs += 1;
            }
        }
    }
    assert_eq!(smbs, tier_census(&restored).2, "every full cell is an SMB");
    let _ = fs::remove_dir_all(&dir);
}

/// A shard whose SMB cell breaks the spec's parameters is refused on
/// the typed path: restore reports the cell, not a silent rebuild.
#[test]
fn typed_restore_rejects_a_cell_that_disagrees_with_the_spec() {
    use smb_hash::crc32::crc32;
    use smb_sketch::codec::{decode_flow_states, CellState, FlowBlockBuilder};

    let dir = scratch("typed-reject");
    let mut original = engine(1);
    ingest_range(&mut original, 1, 0, 5_000);
    original.checkpoint_now(&config(&dir)).expect("checkpoint");
    let edir = dir.join("epoch-0000000000");
    let shard = edir.join("shard-0000.bin");
    let mut states = decode_flow_states(&fs::read(&shard).unwrap()).unwrap();
    let Some((_, CellState::Smb { t, .. })) = states.first_mut() else {
        panic!("one hot flow must have materialized an SMB");
    };
    *t += 1;
    let mut block = FlowBlockBuilder::default();
    for (flow, state) in states {
        block.push_state(flow, &state.into_json());
    }
    let forged = block.finish().unwrap();
    // Re-seal the shard so it passes the epoch's consistency checks.
    let manifest = fs::read_to_string(edir.join("MANIFEST.json")).unwrap();
    let old = fs::read(&shard).unwrap();
    let manifest = reseal(
        &manifest,
        crc32(&old),
        old.len(),
        crc32(&forged),
        forged.len(),
    );
    fs::write(&shard, &forged).unwrap();
    fs::write(edir.join("MANIFEST.json"), manifest).unwrap();

    let err = ShardedFlowEngine::restore(&dir).expect_err("T disagrees with the spec");
    assert!(err.to_string().contains("T = "), "{err}");
    let _ = fs::remove_dir_all(&dir);
}

/// `manifest` with one shard's CRC and length replaced, and its own
/// body CRC recomputed.
fn reseal(manifest: &str, old_crc: u32, old_len: usize, crc: u32, len: usize) -> String {
    use smb_devtools::Json;
    use smb_hash::crc32::crc32;

    let body = Json::parse(manifest)
        .unwrap()
        .field("body")
        .unwrap()
        .to_string();
    let body = body.replace(
        &format!("\"crc32\":{old_crc},\"bytes\":{old_len}"),
        &format!("\"crc32\":{crc},\"bytes\":{len}"),
    );
    format!("{{\"crc32\":{},\"body\":{body}}}", crc32(body.as_bytes()))
}

#[test]
fn background_checkpointer_writes_epochs() {
    let dir = scratch("background");
    let cfg = config(&dir).with_interval(Duration::from_millis(50));
    let mut engine = engine(2);
    engine
        .start_checkpointer(cfg)
        .expect("start checkpointer");
    assert!(
        engine.start_checkpointer(config(&dir)).is_err(),
        "double start must be rejected"
    );
    ingest_range(&mut engine, 6, 0, 6_000);
    engine.flush();
    // Give the 50 ms interval time to fire at least twice.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while epoch_dirs(&dir).len() < 2 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    engine.stop_checkpointer();
    let epochs = epoch_dirs(&dir);
    assert!(epochs.len() >= 2, "background thread wrote {epochs:?}");

    let want = estimate_bits(&engine);
    let (restored, _) = ShardedFlowEngine::restore(&dir).expect("restore");
    assert_eq!(
        estimate_bits(&restored),
        want,
        "flushed engine and newest background epoch agree"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn retention_prunes_to_keep_epochs() {
    let dir = scratch("retention");
    let cfg = config(&dir).with_keep_epochs(2);
    let mut original = engine(2);
    for round in 0u32..4 {
        ingest_range(&mut original, 5, round * 1000, (round + 1) * 1000);
        original.checkpoint_now(&cfg).expect("checkpoint");
    }
    assert_eq!(
        epoch_dirs(&dir),
        vec!["epoch-0000000002".to_string(), "epoch-0000000003".to_string()],
        "only the newest keep_epochs survive"
    );
    let (_, report) = ShardedFlowEngine::restore(&dir).expect("restore");
    assert_eq!(report.epoch, 3);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn finish_writes_a_final_epoch() {
    let dir = scratch("finish");
    // Interval far beyond the test: the only epoch comes from finish().
    let cfg = config(&dir).with_interval(Duration::from_secs(3600));
    let mut original = engine(2);
    original.start_checkpointer(cfg).expect("start");
    ingest_range(&mut original, 9, 0, 9_000);
    let stats = original.finish();
    assert_eq!(stats.total_recorded(), 9_000);
    let epochs = epoch_dirs(&dir);
    assert_eq!(epochs.len(), 1, "finish writes exactly the final epoch");

    let (restored, report) = ShardedFlowEngine::restore(&dir).expect("restore");
    assert_eq!(report.flows, 9);
    restored.query(0).expect("flow 0 restored");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn durability_metrics_track_checkpoint_and_restore() {
    let dir = scratch("metrics");
    let cfg = config(&dir);
    let mut original = engine(2);
    ingest_range(&mut original, 7, 0, 7_000);
    original.checkpoint_now(&cfg).expect("epoch 0");
    ingest_range(&mut original, 7, 7_000, 14_000);
    original.checkpoint_now(&cfg).expect("epoch 1");

    let snap = original.metrics_snapshot();
    assert_eq!(
        snap.get("engine_checkpoints_written_total", &[])
            .unwrap()
            .as_counter(),
        Some(2)
    );
    assert_eq!(
        snap.get("engine_checkpoint_epoch", &[]).unwrap().as_gauge(),
        Some(1)
    );
    let duration = snap
        .get("engine_checkpoint_duration_ns", &[])
        .unwrap()
        .as_histogram()
        .unwrap();
    assert_eq!(duration.count, 2);
    let bytes = snap
        .get("engine_checkpoint_bytes", &[])
        .unwrap()
        .as_histogram()
        .unwrap();
    assert!(bytes.sum > 0, "checkpoints wrote bytes");
    // Healthy checkpoints sync their directories; the failure counter
    // is exported from the start and stays at zero.
    assert_eq!(
        snap.get("engine_checkpoint_dir_sync_failures_total", &[])
            .unwrap()
            .as_counter(),
        Some(0)
    );

    // Corrupt the newest epoch, restore, and check the recovery side.
    let victim = dir.join("epoch-0000000001").join("MANIFEST.json");
    let mut manifest = fs::read(&victim).unwrap();
    let mid = manifest.len() / 2;
    manifest[mid] ^= 0x40;
    fs::write(&victim, &manifest).unwrap();

    let (restored, report) = ShardedFlowEngine::restore(&dir).expect("restore");
    let snap = restored.metrics_snapshot();
    let restore_ns = snap
        .get("engine_restore_duration_ns", &[])
        .unwrap()
        .as_histogram()
        .unwrap();
    assert_eq!(restore_ns.count, 1, "one sample per successful restore");
    assert!(restore_ns.sum > 0);
    assert_eq!(
        snap.get("engine_restore_flows_total", &[])
            .unwrap()
            .as_counter(),
        Some(report.flows)
    );
    assert_eq!(
        snap.get("engine_restore_skipped_epochs_total", &[])
            .unwrap()
            .as_counter(),
        Some(1)
    );
    assert_eq!(
        snap.get("engine_checkpoint_epoch", &[]).unwrap().as_gauge(),
        Some(0),
        "epoch gauge reflects the restored epoch"
    );

    // The next checkpoint from the restored engine does not reuse the
    // corrupted epoch's number.
    let mut restored = restored;
    let next = restored.checkpoint_now(&cfg).expect("checkpoint");
    assert_eq!(next, 2, "epoch numbering continues past the skipped epoch");
    let _ = fs::remove_dir_all(&dir);
}
