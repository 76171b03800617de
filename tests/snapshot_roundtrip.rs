//! Snapshot round-trips: an estimator
//! checkpointed mid-stream via the in-tree JSON snapshot format and
//! restored must continue exactly where it left off.

use smb::baselines::{
    AdaptiveBitmap, Bjkst, Fm, Hll, HllPlusPlus, HllTailCut, Kmv, LogLog, MinCount, Mrb,
    SuperLogLog,
};
use smb::core::{Bitmap, CardinalityEstimator, SampledBitmap, Smb};
use smb::hash::HashScheme;
use smb_devtools::Snapshot;

fn roundtrip<E>(mut est: E)
where
    E: CardinalityEstimator + Snapshot,
{
    // Record half a stream, checkpoint, restore, record the other
    // half into both; states must stay identical.
    for i in 0..5000u32 {
        est.record(&i.to_le_bytes());
    }
    let json = est.to_json_string();
    let mut restored = E::from_json_str(&json)
        .unwrap_or_else(|e| panic!("restore failed for {}: {e}", est.name()));
    assert_eq!(est.estimate(), restored.estimate(), "restored state differs");
    for i in 5000..10_000u32 {
        est.record(&i.to_le_bytes());
        restored.record(&i.to_le_bytes());
    }
    assert_eq!(
        est.estimate(),
        restored.estimate(),
        "divergence after resume ({})",
        est.name()
    );
}

#[test]
fn all_estimators_roundtrip() {
    let scheme = HashScheme::with_seed(77);
    roundtrip(Smb::with_scheme(2048, 256, scheme).unwrap());
    roundtrip(Bitmap::with_scheme(2048, scheme).unwrap());
    roundtrip(SampledBitmap::new(2048, 0.5, scheme).unwrap());
    roundtrip(Mrb::with_scheme(2048, 8, scheme).unwrap());
    roundtrip(Fm::with_scheme(64, scheme).unwrap());
    roundtrip(Hll::with_scheme(256, scheme).unwrap());
    roundtrip(HllPlusPlus::with_scheme(256, scheme).unwrap());
    roundtrip(HllPlusPlus::sparse(1024, scheme).unwrap());
    roundtrip(HllTailCut::with_scheme(256, scheme).unwrap());
    roundtrip(LogLog::with_scheme(256, scheme).unwrap());
    roundtrip(SuperLogLog::with_scheme(256, scheme).unwrap());
    roundtrip(Kmv::with_scheme(64, scheme).unwrap());
    roundtrip(MinCount::with_scheme(64, scheme).unwrap());
    roundtrip(Bjkst::with_scheme(64, scheme).unwrap());
    // AdaptiveBitmap gives 10% of m to a coarse MRB sized for n_max =
    // 1e9; m must be large enough that slice / k stays ≥ 8 bits.
    roundtrip(AdaptiveBitmap::new(16_384, scheme).unwrap());
}

#[test]
fn snapshot_text_is_stable() {
    // Serialising the same state twice yields byte-identical JSON —
    // HashMap/HashSet iteration nondeterminism must not leak into the
    // wire format.
    let scheme = HashScheme::with_seed(3);
    let mut sparse = HllPlusPlus::sparse(1024, scheme).unwrap();
    let mut bjkst = Bjkst::with_scheme(64, scheme).unwrap();
    for i in 0..200u32 {
        sparse.record(&i.to_le_bytes());
        bjkst.record(&i.to_le_bytes());
    }
    assert_eq!(sparse.to_json_string(), sparse.to_json_string());
    let reparsed = HllPlusPlus::from_json_str(&sparse.to_json_string()).unwrap();
    assert_eq!(sparse.to_json_string(), reparsed.to_json_string());
    let reparsed = Bjkst::from_json_str(&bjkst.to_json_string()).unwrap();
    assert_eq!(bjkst.to_json_string(), reparsed.to_json_string());
}

#[test]
fn corrupted_snapshots_are_rejected() {
    let mut smb = Smb::with_scheme(1024, 128, HashScheme::with_seed(1)).unwrap();
    for i in 0..3000u32 {
        smb.record(&i.to_le_bytes());
    }
    let json = smb.to_json_string();
    // Flipping the fresh-bit counter breaks the ones invariant
    // (popcount == r·T + v), which restore must verify.
    let doc = smb_devtools::Json::parse(&json).unwrap();
    let v = doc.field("v").unwrap().as_u64().unwrap();
    let tampered = json.replacen(&format!("\"v\":{v}"), &format!("\"v\":{}", v + 1), 1);
    assert_ne!(json, tampered, "tamper point not found");
    assert!(Smb::from_json_str(&tampered).is_err());
    // Truncated documents fail cleanly too.
    assert!(Smb::from_json_str(&json[..json.len() / 2]).is_err());
}

#[test]
fn smb_snapshot_struct_roundtrip() {
    let mut smb = Smb::new(1024, 128).unwrap();
    for i in 0..3000u32 {
        smb.record(&i.to_le_bytes());
    }
    let snap = smb.snapshot();
    let json = snap.to_json_string();
    let back = smb::core::SmbSnapshot::from_json_str(&json).unwrap();
    assert_eq!(snap, back);
    assert_eq!(smb.estimate_at(back.r, back.v), smb.estimate());
}
