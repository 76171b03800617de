//! # smb-factory — unified estimator construction
//!
//! Every front-end in the workspace (the `smbcount` CLI, the `smb-bench`
//! experiment harness, the `smb-engine` ingest pipeline) needs to turn
//! "an algorithm name plus a memory budget" into a live
//! [`CardinalityEstimator`]. Before this crate each of them carried its
//! own `match`-on-algorithm block with the paper's parameterisation
//! rules copied in; they drifted independently and had to be updated in
//! lockstep whenever a baseline changed.
//!
//! [`AlgoSpec`] is the single source of truth: algorithm, memory budget
//! in bits, the expected maximum cardinality `n_max` the structure is
//! tuned for, and the hash seed. [`build_estimator`] (or
//! [`AlgoSpec::build`]) applies the per-algorithm rules of the paper's
//! §V-A exactly once, in one place:
//!
//! * SMB: threshold `T` from the theory crate's β-maximising search
//!   (Table II);
//! * MRB: recommended `k` for `n_max` (Table III rule);
//! * FM: `t = m/32`; HLL/HLL++/LogLog family: `t = m/5`;
//!   HLL-TailCut: `t = m/4`; KMV/MinCount: `m/64` 64-bit slots.
//!
//! Estimators come back as `Box<dyn CardinalityEstimator + Send>` so
//! they can cross threads — which is what the sharded engine's workers
//! need — while still coercing to a plain `Box<dyn CardinalityEstimator>`
//! wherever thread affinity doesn't matter.
//!
//! ```
//! use smb_factory::{Algo, AlgoSpec};
//! use smb_core::CardinalityEstimator;
//!
//! let mut est = AlgoSpec::new(Algo::Smb)
//!     .memory_bits(5000)
//!     .seed(7)
//!     .build()
//!     .unwrap();
//! for i in 0..10_000u32 {
//!     est.record(&i.to_le_bytes());
//! }
//! assert!((est.estimate() - 10_000.0).abs() / 10_000.0 < 0.25);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::cell::RefCell;
use std::sync::Arc;

use smb_baselines::{Fm, Hll, HllPlusPlus, HllTailCut, Kmv, LogLog, MinCount, Mrb, SuperLogLog};
use smb_core::{Bitmap, CardinalityEstimator, ObserverHandle, Result, Smb, SmbParams};
use smb_hash::HashScheme;

#[cfg(feature = "snapshot")]
mod snapshot_impl;
#[cfg(feature = "snapshot")]
pub use snapshot_impl::{restore_bitmap, restore_estimator, restore_smb, JsonRestorer};

/// A heap-allocated estimator that may cross thread boundaries — the
/// currency of [`build_estimator`] and of the engine's shard workers.
pub type DynEstimator = Box<dyn CardinalityEstimator + Send>;

/// Every estimator the workspace implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algo {
    /// Self-Morphing Bitmap (this paper).
    Smb,
    /// Multi-Resolution Bitmap.
    Mrb,
    /// FM / PCSA.
    Fm,
    /// HyperLogLog++.
    HllPlusPlus,
    /// HLL-TailCut.
    TailCut,
    /// Plain HyperLogLog.
    Hll,
    /// LogLog.
    LogLog,
    /// SuperLogLog.
    SuperLogLog,
    /// k-minimum values.
    Kmv,
    /// BJKST buffer-sampling algorithm.
    Bjkst,
    /// MinCount.
    MinCount,
    /// Plain bitmap / linear counting.
    Bitmap,
}

/// All implemented algorithms, in the order reports list them.
pub const ALL_ALGOS: [Algo; 12] = [
    Algo::Smb,
    Algo::Mrb,
    Algo::Fm,
    Algo::HllPlusPlus,
    Algo::TailCut,
    Algo::Hll,
    Algo::LogLog,
    Algo::SuperLogLog,
    Algo::Kmv,
    Algo::Bjkst,
    Algo::MinCount,
    Algo::Bitmap,
];

impl Algo {
    /// Display name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            Algo::Smb => "SMB",
            Algo::Mrb => "MRB",
            Algo::Fm => "FM",
            Algo::HllPlusPlus => "HLL++",
            Algo::TailCut => "HLL-TailC",
            Algo::Hll => "HLL",
            Algo::LogLog => "LogLog",
            Algo::SuperLogLog => "SuperLogLog",
            Algo::Kmv => "KMV",
            Algo::Bjkst => "BJKST",
            Algo::MinCount => "MinCount",
            Algo::Bitmap => "Bitmap",
        }
    }

    /// Canonical lowercase name as accepted on command lines.
    pub fn cli_name(&self) -> &'static str {
        match self {
            Algo::Smb => "smb",
            Algo::Mrb => "mrb",
            Algo::Fm => "fm",
            Algo::HllPlusPlus => "hllpp",
            Algo::TailCut => "tailcut",
            Algo::Hll => "hll",
            Algo::LogLog => "loglog",
            Algo::SuperLogLog => "superloglog",
            Algo::Kmv => "kmv",
            Algo::Bjkst => "bjkst",
            Algo::MinCount => "mincount",
            Algo::Bitmap => "bitmap",
        }
    }

    /// Parse a user-facing algorithm name (the CLI's vocabulary,
    /// including aliases like `hll++` and `sll`).
    pub fn from_name(s: &str) -> std::result::Result<Self, String> {
        Ok(match s {
            "smb" => Algo::Smb,
            "mrb" => Algo::Mrb,
            "fm" => Algo::Fm,
            "hll" => Algo::Hll,
            "hllpp" | "hll++" => Algo::HllPlusPlus,
            "tailcut" | "hll-tailcut" => Algo::TailCut,
            "loglog" => Algo::LogLog,
            "superloglog" | "sll" => Algo::SuperLogLog,
            "kmv" => Algo::Kmv,
            "mincount" => Algo::MinCount,
            "bjkst" => Algo::Bjkst,
            "bitmap" => Algo::Bitmap,
            other => return Err(format!("unknown algorithm `{other}`")),
        })
    }
}

/// A complete recipe for constructing an estimator: which algorithm,
/// how much memory, what stream scale it is tuned for, and the hash
/// seed. Two estimators built from equal specs hash identically and
/// are therefore comparable / mergeable where the algorithm allows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlgoSpec {
    /// The algorithm to instantiate.
    pub algo: Algo,
    /// Memory budget in bits (the paper's `m`).
    pub memory_bits: usize,
    /// Expected maximum stream cardinality the parameters are tuned
    /// for (SMB's threshold search and MRB's `k` rule consume this).
    pub n_max: f64,
    /// Seed of the estimator's [`HashScheme`].
    pub seed: u64,
}

/// The builder's default memory budget, in bits.
pub const DEFAULT_MEMORY_BITS: usize = 2048;

/// The builder's default expected maximum stream cardinality.
pub const DEFAULT_N_MAX: f64 = 1e7;

impl AlgoSpec {
    /// Start a spec for `algo` with the workspace defaults
    /// ([`DEFAULT_MEMORY_BITS`] bits, tuned for streams up to
    /// [`DEFAULT_N_MAX`], seed 0) and refine it with the chainable
    /// setters:
    ///
    /// ```
    /// use smb_factory::{Algo, AlgoSpec};
    ///
    /// let spec = AlgoSpec::new(Algo::Smb)
    ///     .memory_bits(4096)
    ///     .n_max(1e6)
    ///     .seed(42);
    /// assert_eq!(spec.memory_bits, 4096);
    /// ```
    pub fn new(algo: Algo) -> Self {
        AlgoSpec {
            algo,
            memory_bits: DEFAULT_MEMORY_BITS,
            n_max: DEFAULT_N_MAX,
            seed: 0,
        }
    }

    /// Set the memory budget in bits (the paper's `m`).
    pub fn memory_bits(mut self, memory_bits: usize) -> Self {
        self.memory_bits = memory_bits;
        self
    }

    /// Set the expected maximum cardinality the parameters are tuned
    /// for (SMB's threshold search and MRB's `k` rule consume this).
    pub fn n_max(mut self, n_max: f64) -> Self {
        self.n_max = n_max;
        self
    }

    /// Set the hash seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The hash scheme estimators built from this spec record under.
    /// Producers that pre-hash items (the sharded engine) must hash
    /// through exactly this scheme.
    pub fn scheme(&self) -> HashScheme {
        HashScheme::with_seed(self.seed)
    }

    /// Build the estimator. See [`build_estimator`].
    pub fn build(&self) -> Result<DynEstimator> {
        build_estimator(*self)
    }

    /// Build the estimator with a lifecycle observer attached. See
    /// [`build_estimator_observed`].
    pub fn build_observed(&self, observer: Option<ObserverHandle>) -> Result<DynEstimator> {
        build_estimator_observed(*self, observer)
    }

    /// The shared `(m, T, S)` block every SMB built from this spec
    /// evaluates against, or `None` when the spec is not a valid SMB
    /// spec. Holders can answer SMB queries from `(r, v)` or from a
    /// short hash list ([`SmbParams::estimate_of_hashes`]) without
    /// building an estimator. Comes from the same per-thread memo as
    /// [`build_estimator`], so on one thread it is the very block the
    /// last build of this spec shares.
    pub fn smb_params(&self) -> Option<Arc<SmbParams>> {
        match self.algo {
            Algo::Smb => smb_params(self.memory_bits, self.n_max).ok(),
            _ => None,
        }
    }
}

/// Build the estimator described by `spec` — the one
/// match-on-algorithm in the workspace.
///
/// ```
/// use smb_factory::{build_estimator, Algo, AlgoSpec};
///
/// let spec = AlgoSpec::new(Algo::Smb).memory_bits(4096).n_max(1e5).seed(1);
/// let mut est = build_estimator(spec).unwrap();
/// for i in 0..5_000u32 {
///     est.record(&i.to_le_bytes());
/// }
/// let estimate = est.estimate();
/// assert!((estimate - 5_000.0).abs() / 5_000.0 < 0.2, "{estimate}");
/// assert!(build_estimator(AlgoSpec::new(Algo::Smb).memory_bits(1)).is_err());
/// ```
///
/// # Errors
/// Propagates the constructor's [`smb_core::Error`] when the memory
/// budget is out of the algorithm's valid range.
pub fn build_estimator(spec: AlgoSpec) -> Result<DynEstimator> {
    let AlgoSpec {
        algo,
        memory_bits: m,
        n_max,
        seed,
    } = spec;
    let scheme = HashScheme::with_seed(seed);
    Ok(match algo {
        Algo::Smb => Box::new(Smb::with_params(smb_params(m, n_max)?, scheme)),
        Algo::Mrb => Box::new(Mrb::for_expected_cardinality(m, n_max, scheme)?),
        Algo::Fm => Box::new(Fm::with_memory_bits_scheme(m, scheme)?),
        Algo::HllPlusPlus => Box::new(HllPlusPlus::with_memory_bits(m, scheme)?),
        Algo::TailCut => Box::new(HllTailCut::with_memory_bits(m, scheme)?),
        Algo::Hll => Box::new(Hll::with_memory_bits(m, scheme)?),
        Algo::LogLog => Box::new(LogLog::with_memory_bits(m, scheme)?),
        Algo::SuperLogLog => Box::new(SuperLogLog::with_memory_bits(m, scheme)?),
        Algo::Kmv => Box::new(Kmv::with_memory_bits(m, scheme)?),
        Algo::Bjkst => Box::new(smb_baselines::Bjkst::with_memory_bits(m, scheme)?),
        Algo::MinCount => Box::new(MinCount::with_memory_bits(m, scheme)?),
        Algo::Bitmap => Box::new(Bitmap::with_scheme(m, scheme)?),
    })
}

thread_local! {
    /// The last SMB parameter block this thread resolved, keyed on
    /// `(m, n_max.to_bits())`. One entry suffices: an engine builds
    /// every flow's estimator from the same spec, so each shard worker
    /// and query thread runs the threshold search and the S-table
    /// once, and every build after that shares the block; a caller
    /// sweeping specs pays them once per change, as it would without
    /// the memo.
    static SMB_PARAMS: RefCell<Option<(usize, u64, Arc<SmbParams>)>> =
        const { RefCell::new(None) };
}

/// SMB's parameter block for `(m, n_max)`: `T` from the theory crate's
/// §IV-B β-maximising search plus the S-table, memoised per thread.
/// Both are pure functions of the inputs, so a memo hit is
/// bit-identical to a rebuild. Invalid specs error before they reach
/// the search and never enter the memo.
fn smb_params(m: usize, n_max: f64) -> Result<Arc<SmbParams>> {
    // Screen the budget before the theory crate's threshold search,
    // which asserts (rather than errors) on tiny `m`.
    if m < 8 || n_max.is_nan() || n_max < 1.0 {
        return Err(smb_core::Error::invalid(
            "memory_bits",
            format!("SMB needs m ≥ 8 and n_max ≥ 1 (got m={m}, n_max={n_max})"),
        ));
    }
    let n_bits = n_max.to_bits();
    SMB_PARAMS.with(|memo| {
        if let Some((km, kn, params)) = &*memo.borrow() {
            if *km == m && *kn == n_bits {
                return Ok(Arc::clone(params));
            }
        }
        let t = smb_theory::optimal_threshold(m, n_max).t;
        let params = Arc::new(SmbParams::new(m, t)?);
        *memo.borrow_mut() = Some((m, n_bits, Arc::clone(&params)));
        Ok(params)
    })
}

/// Build the estimator described by `spec` and attach `observer` to
/// it, so lifecycle events (SMB morphs, clears, saturation) flow out
/// from the first recorded item. Estimators that don't implement the
/// hook simply come back unobserved — `set_observer` is a default
/// trait method returning `false` — which is not an error.
///
/// # Errors
/// Propagates the constructor's [`smb_core::Error`] exactly as
/// [`build_estimator`] does.
pub fn build_estimator_observed(
    spec: AlgoSpec,
    observer: Option<ObserverHandle>,
) -> Result<DynEstimator> {
    let mut estimator = build_estimator(spec)?;
    if let Some(observer) = observer {
        estimator.set_observer(Some(observer));
    }
    Ok(estimator)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_algos_build_and_record() {
        for algo in ALL_ALGOS {
            let mut est = AlgoSpec::new(algo)
                .memory_bits(5000)
                .n_max(1e6)
                .seed(1)
                .build()
                .expect("valid spec");
            for i in 0..1000u32 {
                est.record(&i.to_le_bytes());
            }
            let e = est.estimate();
            assert!(
                (e - 1000.0).abs() / 1000.0 < 0.5,
                "{}: estimate {e} for n=1000",
                algo.name()
            );
        }
    }

    #[test]
    fn built_estimators_are_send() {
        let est = AlgoSpec::new(Algo::Smb).memory_bits(5000).build().unwrap();
        let handle = std::thread::spawn(move || est.memory_bits());
        assert_eq!(handle.join().unwrap(), 5000);
    }

    #[test]
    fn name_round_trips_through_parser() {
        for algo in ALL_ALGOS {
            assert_eq!(Algo::from_name(algo.cli_name()), Ok(algo));
        }
        assert_eq!(Algo::from_name("hll++"), Ok(Algo::HllPlusPlus));
        assert_eq!(Algo::from_name("sll"), Ok(Algo::SuperLogLog));
        assert!(Algo::from_name("nope").is_err());
    }

    #[test]
    fn invalid_budget_is_an_error_not_a_panic() {
        assert!(AlgoSpec::new(Algo::Smb).memory_bits(0).build().is_err());
    }

    #[test]
    fn spec_scheme_matches_built_estimator() {
        let spec = AlgoSpec::new(Algo::Smb).memory_bits(5000).seed(99);
        let est = spec.build().unwrap();
        assert_eq!(est.scheme(), spec.scheme());
    }

    #[test]
    fn observed_smb_reports_morphs() {
        let collector = smb_core::MorphCollector::shared();
        let handle = ObserverHandle::new(collector.clone());
        let mut est = AlgoSpec::new(Algo::Smb)
            .n_max(1e5)
            .build_observed(Some(handle))
            .expect("valid spec");
        for i in 0..60_000u64 {
            est.record(&i.to_le_bytes());
        }
        assert!(
            !collector.events().is_empty(),
            "an observed SMB over a morph-inducing trace must report events"
        );
    }

    /// The per-thread parameter memo is unobservable: whatever specs a
    /// thread built before (other valid specs, invalid ones, or none on
    /// a fresh thread), a build equals an SMB constructed with a fresh
    /// `optimal_threshold` search and S-table, state for state — and
    /// two builds in a row share one parameter block.
    #[test]
    fn threshold_memo_is_unobservable() {
        fn check(spec: AlgoSpec) {
            let t = smb_theory::optimal_threshold(spec.memory_bits, spec.n_max).t;
            let mut reference = Smb::with_scheme(spec.memory_bits, t, spec.scheme()).unwrap();
            let params = spec.smb_params().expect("valid SMB spec");
            assert_eq!(*params, SmbParams::new(spec.memory_bits, t).unwrap());
            let held = Arc::strong_count(&params);
            let mut built = spec.build().expect("valid spec");
            let second = spec.build().expect("valid spec");
            assert_eq!(
                Arc::strong_count(&params),
                held + 2,
                "both builds share the memo's block"
            );
            drop(second);
            assert!(Arc::ptr_eq(&params, &spec.smb_params().unwrap()));
            for i in 0..20_000u32 {
                reference.record(&i.to_le_bytes());
                built.record(&i.to_le_bytes());
            }
            let m = spec.memory_bits;
            assert_eq!(built.max_estimate(), reference.max_estimate(), "m={m}");
            assert_eq!(
                built.estimate().to_bits(),
                reference.estimate().to_bits(),
                "m={m}"
            );
            #[cfg(feature = "snapshot")]
            assert_eq!(built.snapshot_state(), reference.snapshot_state(), "m={m}");
        }
        // `b` shares `a`'s budget and `c` shares `b`'s `n_max`, and all
        // three resolve different thresholds (T = 157, 256, 585): a memo
        // keyed on either input alone would hand out a stale `T`.
        let a = AlgoSpec::new(Algo::Smb)
            .memory_bits(2048)
            .n_max(1e6)
            .seed(3);
        let b = a.n_max(1e5);
        let c = b.memory_bits(4096);
        for spec in [a, b, c, a] {
            check(spec);
        }
        std::thread::spawn(move || check(a)).join().unwrap();
        for invalid in [
            AlgoSpec::new(Algo::Smb).memory_bits(0),
            AlgoSpec::new(Algo::Smb).n_max(f64::NAN),
        ] {
            check(b);
            assert!(invalid.build().is_err(), "{invalid:?}");
            check(b);
            check(a);
        }
    }

    /// The small budgets the factory accepts pick thresholds at or
    /// below the tier ladder's 16-hash array cap, and the serve
    /// default (m = 2048) one above it; the sketch crate's tiering
    /// suite exercises exactly these `(m, T)` pairs.
    #[test]
    fn small_budgets_resolve_small_thresholds() {
        for (m, t) in [(64, 3), (128, 6), (256, 12), (2048, 157)] {
            let params = smb_params(m, 1e6).unwrap();
            assert_eq!(params.threshold(), t, "m={m}");
        }
    }

    #[test]
    fn builds_of_one_spec_share_one_parameter_block() {
        let spec = AlgoSpec::new(Algo::Smb)
            .memory_bits(2048)
            .n_max(1e6)
            .seed(5);
        let a = spec.smb_params().expect("valid SMB spec");
        let b = spec.seed(6).smb_params().expect("valid SMB spec");
        assert!(Arc::ptr_eq(&a, &b), "the seed is not part of the block");
        let base = Arc::strong_count(&a);
        let built: Vec<_> = (0..3).map(|_| spec.build().unwrap()).collect();
        assert_eq!(Arc::strong_count(&a), base + 3, "builds clone the handle");
        drop(built);
        assert_eq!(Arc::strong_count(&a), base);
        assert!(AlgoSpec::new(Algo::Hll).smb_params().is_none());
        assert!(spec.memory_bits(0).smb_params().is_none());
        assert!(spec.n_max(f64::NAN).smb_params().is_none());
    }

    #[test]
    fn build_observed_without_observer_matches_build() {
        for algo in ALL_ALGOS {
            let spec = AlgoSpec::new(algo).memory_bits(5000).n_max(1e6).seed(1);
            let mut a = spec.build().expect("valid spec");
            let mut b = spec.build_observed(None).expect("valid spec");
            for i in 0..2000u32 {
                a.record(&i.to_le_bytes());
                b.record(&i.to_le_bytes());
            }
            assert_eq!(a.estimate(), b.estimate(), "{}", algo.name());
        }
    }
}
