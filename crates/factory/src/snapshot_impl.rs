//! Snapshot support for the factory layer: serializing an [`AlgoSpec`] and — the restore half of the
//! engine's durability story — rebuilding a live estimator from a
//! checkpointed state.
//!
//! The spec says *which* type to expect, the state says *what state*
//! it was in, and the restore functions marry the two with validation
//! on both axes: the estimator type re-checks its structural
//! invariants, and this layer checks that state and spec agree.
//! [`restore_smb`] and [`restore_bitmap`] take the typed states the
//! checkpoint codec decodes; an SMB comes back on the spec's shared
//! parameter block. [`JsonRestorer`] (and [`restore_estimator`], one
//! state through a fresh restorer) takes the JSON state
//! [`CardinalityEstimator::snapshot_state`] captured, for every other
//! estimator: `snapshot_state` is object-safe and cannot name a
//! concrete type, so this is the matching concrete-type dispatch.

use smb_baselines::{
    Bjkst, Fm, Hll, HllPlusPlus, HllTailCut, Kmv, LogLog, MinCount, Mrb, SuperLogLog,
};
use smb_core::{BitVec, Bitmap, CardinalityEstimator, Error, Result, Smb};
use smb_devtools::{Json, JsonError, Snapshot};
use smb_hash::HashScheme;

use crate::{build_estimator, Algo, AlgoSpec, DynEstimator};

impl Snapshot for AlgoSpec {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("algo".into(), Json::Str(self.algo.cli_name().into())),
            ("memory_bits".into(), Json::Int(self.memory_bits as i128)),
            ("n_max".into(), Json::Float(self.n_max)),
            ("seed".into(), Json::Int(self.seed as i128)),
        ])
    }

    fn from_json(v: &Json) -> std::result::Result<Self, JsonError> {
        let algo = Algo::from_name(v.field("algo")?.as_str()?).map_err(JsonError::new)?;
        let memory_bits = v.field("memory_bits")?.as_usize()?;
        let n_max = v.field("n_max")?.as_f64()?;
        let seed = v.field("seed")?.as_u64()?;
        if !(n_max >= 1.0) {
            return Err(JsonError::new(format!("n_max {n_max} must be ≥ 1")));
        }
        Ok(AlgoSpec {
            algo,
            memory_bits,
            n_max,
            seed,
        })
    }
}

/// Rebuild a live estimator from `spec` plus the JSON `state` its
/// [`CardinalityEstimator::snapshot_state`] produced — the restore
/// direction of the engine's checkpoint format. One call is one
/// [`JsonRestorer`]; restoring many states of one spec should share
/// one.
///
/// ```
/// use smb_core::CardinalityEstimator;
/// use smb_factory::{restore_estimator, Algo, AlgoSpec};
///
/// let spec = AlgoSpec::new(Algo::Smb).memory_bits(4096).seed(7);
/// let mut live = spec.build().unwrap();
/// for i in 0..5_000u32 {
///     live.record(&i.to_le_bytes());
/// }
/// let state = live.snapshot_state().expect("factory estimators snapshot");
/// let restored = restore_estimator(spec, &state).unwrap();
/// assert_eq!(restored.estimate(), live.estimate());
/// ```
///
/// # Errors
/// [`Error::InvalidParameter`] when the spec does not build, or as
/// [`JsonRestorer::restore`].
pub fn restore_estimator(spec: AlgoSpec, state: &Json) -> Result<DynEstimator> {
    JsonRestorer::new(spec)?.restore(state)
}

/// Restores JSON estimator states against one spec.
///
/// The concrete type is chosen by `spec.algo`; the state's own
/// structural invariants are validated by that type's
/// `Snapshot::from_json`, and the restorer additionally rejects states
/// that disagree with the spec (different hash scheme, or a memory
/// footprint other than what building the spec fresh produces) so a
/// manifest paired with the wrong shard file cannot restore silently.
/// The footprint is learnt once, by building the spec's estimator when
/// the restorer is made, not once per state.
#[derive(Debug, Clone, Copy)]
pub struct JsonRestorer {
    spec: AlgoSpec,
    expected_bits: usize,
}

impl JsonRestorer {
    /// A restorer for states of `spec`.
    ///
    /// # Errors
    /// [`Error::InvalidParameter`] when the spec does not build.
    pub fn new(spec: AlgoSpec) -> Result<Self> {
        Ok(JsonRestorer {
            spec,
            expected_bits: build_estimator(spec)?.memory_bits(),
        })
    }

    /// The spec this restorer checks states against.
    pub fn spec(&self) -> AlgoSpec {
        self.spec
    }

    /// Rebuild one estimator from its JSON `state`.
    ///
    /// # Errors
    /// [`Error::InvalidParameter`] when the state fails its type's
    /// invariant checks or does not match the spec.
    pub fn restore(&self, state: &Json) -> Result<DynEstimator> {
        let spec = self.spec;
        let invalid = |e: JsonError| Error::invalid("snapshot", e.to_string());
        let restored: DynEstimator = match spec.algo {
            Algo::Smb => Box::new(Smb::from_json(state).map_err(invalid)?),
            Algo::Mrb => Box::new(Mrb::from_json(state).map_err(invalid)?),
            Algo::Fm => Box::new(Fm::from_json(state).map_err(invalid)?),
            Algo::HllPlusPlus => Box::new(HllPlusPlus::from_json(state).map_err(invalid)?),
            Algo::TailCut => Box::new(HllTailCut::from_json(state).map_err(invalid)?),
            Algo::Hll => Box::new(Hll::from_json(state).map_err(invalid)?),
            Algo::LogLog => Box::new(LogLog::from_json(state).map_err(invalid)?),
            Algo::SuperLogLog => Box::new(SuperLogLog::from_json(state).map_err(invalid)?),
            Algo::Kmv => Box::new(Kmv::from_json(state).map_err(invalid)?),
            Algo::Bjkst => Box::new(Bjkst::from_json(state).map_err(invalid)?),
            Algo::MinCount => Box::new(MinCount::from_json(state).map_err(invalid)?),
            Algo::Bitmap => Box::new(Bitmap::from_json(state).map_err(invalid)?),
        };
        check_scheme(spec, restored.scheme())?;
        let bits = restored.memory_bits();
        if bits != self.expected_bits {
            let name = spec.algo.name();
            let expected = self.expected_bits;
            return Err(mismatch(format!(
                "restored {name} state occupies {bits} bits but the spec builds {expected} bits"
            )));
        }
        Ok(restored)
    }
}

/// Rebuild an SMB from its checkpointed state — threshold `t`, round
/// `r`, fresh bits `v` and the `m`-bit bitmap — on the spec's shared
/// parameter block ([`AlgoSpec::smb_params`]), so every restored SMB
/// of one spec shares one S-table.
///
/// The state must agree with the spec: an SMB spec, the spec's hash
/// scheme, and the spec's `m` and `T`. [`Smb::from_parts`] then checks
/// the state is one Algorithm 1 can reach.
///
/// ```
/// use smb_core::{CardinalityEstimator, Smb};
/// use smb_factory::{restore_smb, Algo, AlgoSpec};
///
/// let spec = AlgoSpec::new(Algo::Smb).memory_bits(4096).seed(7);
/// let params = spec.smb_params().unwrap();
/// let mut live = Smb::with_params(params.clone(), spec.scheme());
/// for i in 0..5_000u32 {
///     live.record(&i.to_le_bytes());
/// }
/// let (t, r, v) = (params.threshold() as u64, live.round().into(), live.fresh_ones() as u64);
/// let restored = restore_smb(spec, spec.scheme(), t, r, v, live.as_bits().clone()).unwrap();
/// assert_eq!(restored.estimate(), live.estimate());
/// assert!(std::sync::Arc::ptr_eq(restored.params(), &params));
/// assert!(restore_smb(spec.seed(8), spec.scheme(), t, r, v, live.as_bits().clone()).is_err());
/// ```
///
/// # Errors
/// [`Error::InvalidParameter`] when the state disagrees with the spec
/// or fails an SMB invariant.
pub fn restore_smb(
    spec: AlgoSpec,
    scheme: HashScheme,
    t: u64,
    r: u64,
    v: u64,
    bits: BitVec,
) -> Result<Smb> {
    let name = spec.algo.name();
    let params = spec
        .smb_params()
        .ok_or_else(|| mismatch(format!("an SMB state cannot restore into a {name} spec")))?;
    check_scheme(spec, scheme)?;
    let (m, spec_t, got) = (params.m(), params.threshold(), bits.len());
    if got != m || t != spec_t as u64 {
        return Err(mismatch(format!(
            "SMB state has m = {got}, T = {t}, but the spec's SMB has m = {m}, T = {spec_t}"
        )));
    }
    let (Ok(r), Ok(v)) = (u32::try_from(r), usize::try_from(v)) else {
        return Err(mismatch(format!(
            "SMB round {r} or fresh-bit count {v} out of range"
        )));
    };
    Smb::from_parts(params, scheme, r, v, bits)
}

/// Rebuild a plain bitmap from its checkpointed bits. The spec must be
/// a bitmap spec with the same hash scheme and `m` bits.
///
/// # Errors
/// [`Error::InvalidParameter`] when the state disagrees with the spec.
pub fn restore_bitmap(spec: AlgoSpec, scheme: HashScheme, bits: BitVec) -> Result<Bitmap> {
    let (name, got, m) = (spec.algo.name(), bits.len(), spec.memory_bits);
    if spec.algo != Algo::Bitmap {
        return Err(mismatch(format!(
            "a bitmap state cannot restore into a {name} spec"
        )));
    }
    check_scheme(spec, scheme)?;
    if got != m {
        return Err(mismatch(format!(
            "bitmap state holds {got} bits but the spec builds {m} bits"
        )));
    }
    Bitmap::from_parts(scheme, bits)
}

/// A restored state must hash under the spec's scheme.
fn check_scheme(spec: AlgoSpec, scheme: HashScheme) -> Result<()> {
    if scheme == spec.scheme() {
        return Ok(());
    }
    let (name, seed) = (spec.algo.name(), spec.seed);
    Err(mismatch(format!(
        "restored {name} state hashes under a different scheme than the spec (seed {seed})"
    )))
}

/// The error for a state that does not fit the spec it is restored
/// into.
fn mismatch(reason: String) -> Error {
    Error::invalid("snapshot", reason)
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::ALL_ALGOS;

    #[test]
    fn algo_spec_round_trips_through_json_string() {
        for algo in ALL_ALGOS {
            let spec = AlgoSpec::new(algo).memory_bits(4096).n_max(2.5e6).seed(42);
            let back = AlgoSpec::from_json_str(&spec.to_json_string()).expect("roundtrip");
            assert_eq!(back, spec);
        }
    }

    #[test]
    fn every_algo_restores_bit_identical() {
        for algo in ALL_ALGOS {
            let spec = AlgoSpec::new(algo).memory_bits(5000).n_max(1e6).seed(3);
            let mut live = spec.build().expect("valid spec");
            for i in 0..3_000u32 {
                live.record(&i.to_le_bytes());
            }
            let state = live.snapshot_state().unwrap_or_else(|| {
                panic!("{}: factory estimator must snapshot", algo.name())
            });
            let mut restored = restore_estimator(spec, &state).expect("restore");
            assert_eq!(
                restored.estimate().to_bits(),
                live.estimate().to_bits(),
                "{}: restored estimate must be bit-identical",
                algo.name()
            );
            // The restored estimator must keep recording identically.
            for i in 3_000..4_000u32 {
                live.record(&i.to_le_bytes());
                restored.record(&i.to_le_bytes());
            }
            assert_eq!(
                restored.estimate().to_bits(),
                live.estimate().to_bits(),
                "{}: post-restore recording must track the original",
                algo.name()
            );
        }
    }

    #[test]
    fn mismatched_seed_is_rejected() {
        let spec = AlgoSpec::new(Algo::Smb).memory_bits(4096).seed(1);
        let state = spec.build().unwrap().snapshot_state().unwrap();
        let wrong = spec.seed(2);
        assert!(restore_estimator(wrong, &state).is_err());
    }

    #[test]
    fn mismatched_memory_is_rejected() {
        let spec = AlgoSpec::new(Algo::Bitmap).memory_bits(4096);
        let state = spec.build().unwrap().snapshot_state().unwrap();
        let wrong = AlgoSpec::new(Algo::Bitmap).memory_bits(8192);
        assert!(restore_estimator(wrong, &state).is_err());
    }

    /// A live SMB from `spec` after `n` distinct items, as the typed
    /// state a checkpoint decodes to: `(scheme, T, r, v, bits)`.
    fn smb_state(spec: AlgoSpec, n: u32) -> (HashScheme, u64, u64, u64, BitVec) {
        let params = spec.smb_params().unwrap();
        let mut smb = Smb::with_params(Arc::clone(&params), spec.scheme());
        for i in 0..n {
            smb.record(&i.to_le_bytes());
        }
        let t = params.threshold() as u64;
        (
            spec.scheme(),
            t,
            smb.round().into(),
            smb.fresh_ones() as u64,
            smb.as_bits().clone(),
        )
    }

    #[test]
    fn typed_smb_restores_on_the_spec_block_bit_identically() {
        let spec = AlgoSpec::new(Algo::Smb)
            .memory_bits(4096)
            .n_max(1e6)
            .seed(3);
        let params = spec.smb_params().unwrap();
        for n in [0u32, 10, 5_000, 200_000] {
            let (scheme, t, r, v, bits) = smb_state(spec, n);
            let mut live = Smb::with_params(Arc::clone(&params), scheme);
            for i in 0..n {
                live.record(&i.to_le_bytes());
            }
            let restored = restore_smb(spec, scheme, t, r, v, bits).expect("valid state");
            assert!(Arc::ptr_eq(restored.params(), &params), "{n}: shared block");
            assert_eq!(
                restored.estimate().to_bits(),
                live.estimate().to_bits(),
                "{n}"
            );
            assert_eq!(restored.as_bits(), live.as_bits());
        }
    }

    /// Every spec-agreement rule and every SMB invariant refuses a
    /// typed state on its own.
    #[test]
    fn typed_smb_rejects_each_broken_rule() {
        let spec = AlgoSpec::new(Algo::Smb)
            .memory_bits(2048)
            .n_max(1e5)
            .seed(3);
        let params = spec.smb_params().unwrap();
        let max_r = u64::from(params.max_rounds());
        let (scheme, t, r, v, bits) = smb_state(spec, 3_000);
        assert!(
            r >= 1 && r + 1 < max_r && v >= 1,
            "mid-life state: r {r}, v {v}"
        );
        assert!(restore_smb(spec, scheme, t, r, v, bits.clone()).is_ok());

        // Each case breaks exactly one rule (the others hold), and the
        // error names it.
        let rejects = |want: &str, spec: AlgoSpec, scheme, t, r, v, bits: BitVec| {
            let err = restore_smb(spec, scheme, t, r, v, bits)
                .expect_err(want)
                .to_string();
            assert!(err.contains(want), "expected `{want}` in: {err}");
        };
        let first_ones = |len: usize, count: u64| {
            let mut bits = BitVec::new(len);
            bits.set_all(0..count as usize);
            bits
        };
        let m = bits.len();
        let mut wider = BitVec::new(m + 64);
        wider.set_all(bits.iter_ones());
        rejects("m = 2112", spec, scheme, t, r, v, wider);
        rejects("T = ", spec, scheme, t + 1, r, v, bits.clone());
        let full = first_ones(m, max_r * t);
        rejects("round", spec, scheme, t, max_r, 0, full.clone());
        rejects("round", spec, scheme, t, 1 << 40, 0, full);
        rejects(
            "below threshold",
            spec,
            scheme,
            t,
            r,
            t,
            first_ones(m, (r + 1) * t),
        );
        rejects("popcount", spec, scheme, t, r, v - 1, bits.clone());
        rejects(
            "popcount",
            spec,
            scheme,
            t,
            r,
            v,
            first_ones(m, r * t + v + 1),
        );
        rejects(
            "scheme",
            spec,
            HashScheme::with_seed(4),
            t,
            r,
            v,
            bits.clone(),
        );
        let other_alg = HashScheme::new(smb_hash::HashAlgorithm::Fnv1aMixed, 3);
        rejects("scheme", spec, other_alg, t, r, v, bits.clone());
        let hll = AlgoSpec::new(Algo::Hll).memory_bits(2048).seed(3);
        rejects("cannot restore into a HLL", hll, scheme, t, r, v, bits);
    }

    #[test]
    fn typed_bitmap_checks_spec_and_recounts_ones() {
        let spec = AlgoSpec::new(Algo::Bitmap).memory_bits(640).seed(5);
        let mut bits = BitVec::new(640);
        bits.set_all([1, 64, 639]);
        let restored = restore_bitmap(spec, spec.scheme(), bits.clone()).unwrap();
        assert_eq!(restored.ones(), 3);
        assert!(restore_bitmap(spec, HashScheme::with_seed(6), bits.clone()).is_err());
        assert!(restore_bitmap(spec.memory_bits(704), spec.scheme(), bits.clone()).is_err());
        let smb = AlgoSpec::new(Algo::Smb).memory_bits(640).seed(5);
        assert!(restore_bitmap(smb, spec.scheme(), bits).is_err());
    }

    /// A state whose footprint differs from what the spec builds is
    /// rejected by name, here an HLL with twice the registers; one
    /// restorer serves every state of its spec.
    #[test]
    fn hll_state_of_another_footprint_is_rejected() {
        let small = AlgoSpec::new(Algo::Hll).memory_bits(4096).seed(9);
        let big = small.memory_bits(8192);
        let state = |spec: AlgoSpec| {
            let mut live = spec.build().unwrap();
            live.record(b"item");
            live.snapshot_state().unwrap()
        };
        let restorer = JsonRestorer::new(small).unwrap();
        for _ in 0..3 {
            assert!(restorer.restore(&state(small)).is_ok());
        }
        let Err(err) = restorer.restore(&state(big)) else {
            panic!("an 8192-bit HLL state restored against a 4096-bit spec");
        };
        let bits = |spec: AlgoSpec| spec.build().unwrap().memory_bits();
        let want = format!(
            "HLL state occupies {} bits but the spec builds {} bits",
            bits(big),
            bits(small)
        );
        assert!(err.to_string().contains(&want), "{err}");
        assert!(restore_estimator(big, &state(small)).is_err());
    }

    #[test]
    fn garbage_state_is_an_error_not_a_panic() {
        let spec = AlgoSpec::new(Algo::Hll).memory_bits(4096);
        assert!(restore_estimator(spec, &Json::Null).is_err());
        assert!(restore_estimator(spec, &Json::Obj(vec![])).is_err());
    }
}
