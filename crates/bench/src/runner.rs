//! Measurement utilities: recording throughput, query throughput,
//! accuracy sweeps.

use std::hint::black_box;
use std::time::{Duration, Instant};

use smb_core::CardinalityEstimator;
use smb_hash::{HashScheme, ItemHash};
use smb_stream::items::StreamSpec;

use crate::algos::{build_estimator, Algo};

/// Minimum wall-clock per measurement; loops repeat until reached.
const MIN_MEASURE: Duration = Duration::from_millis(200);

/// Pre-rendered item buffer for throughput loops (generation cost must
/// not pollute the measurement).
pub struct ItemBuffer {
    flat: Vec<u8>,
    item_len: usize,
}

impl ItemBuffer {
    /// Materialise a [`StreamSpec`] into a contiguous buffer.
    pub fn from_spec(spec: StreamSpec) -> Self {
        let mut flat = Vec::with_capacity((spec.total as usize) * spec.item_len);
        let mut stream = spec.stream();
        let mut buf = [0u8; smb_stream::items::MAX_ITEM_LEN];
        while let Some(len) = stream.next_into(&mut buf) {
            flat.extend_from_slice(&buf[..len]);
        }
        ItemBuffer {
            flat,
            item_len: spec.item_len,
        }
    }

    /// Materialise the spec, then tile (repeat) it until the buffer
    /// holds at least `min_items` items. Tiling makes rows of a
    /// throughput sweep comparable: every row walks the same number of
    /// bytes regardless of its distinct-item count, so cache residency
    /// of the *item buffer* stops confounding the measurement.
    /// Repeats are duplicates, which every estimator must absorb
    /// cheaply anyway (Theorem 2 for SMB).
    pub fn tiled(spec: StreamSpec, min_items: usize) -> Self {
        let mut one = Self::from_spec(spec);
        let base_items = one.len().max(1);
        let reps = min_items.div_ceil(base_items);
        if reps > 1 {
            let pattern = one.flat.clone();
            one.flat.reserve(pattern.len() * (reps - 1));
            for _ in 1..reps {
                one.flat.extend_from_slice(&pattern);
            }
        }
        one
    }

    /// Number of items in the buffer.
    pub fn len(&self) -> usize {
        self.flat.len() / self.item_len
    }

    /// True when the buffer holds no items.
    pub fn is_empty(&self) -> bool {
        self.flat.is_empty()
    }

    /// Iterate item byte-slices.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = &[u8]> + '_ {
        self.flat.chunks_exact(self.item_len)
    }
}

/// Recording throughput in million items per second (the paper's
/// Mdps): time recording the buffer into fresh estimators, repeating
/// until `MIN_MEASURE` (200 ms) of wall clock accumulates.
pub fn recording_throughput_mdps(
    algo: Algo,
    m: usize,
    n_max: f64,
    items: &ItemBuffer,
) -> f64 {
    let mut total_items = 0u64;
    let mut elapsed = Duration::ZERO;
    let mut round = 0u64;
    while elapsed < MIN_MEASURE {
        let mut est = build_estimator(algo, m, n_max, round);
        let start = Instant::now();
        for item in items.iter() {
            est.record(item);
        }
        elapsed += start.elapsed();
        black_box(est.estimate());
        total_items += items.len() as u64;
        round += 1;
    }
    (total_items as f64 / elapsed.as_secs_f64()) / 1e6
}

/// Query throughput in queries per second: load the estimator with
/// `items`, then time repeated `estimate()` calls.
pub fn query_throughput_qps(algo: Algo, m: usize, n_max: f64, items: &ItemBuffer) -> f64 {
    let mut est = build_estimator(algo, m, n_max, 7);
    for item in items.iter() {
        est.record(item);
    }
    // Warm-up + batch sizing: aim for MIN_MEASURE of querying.
    let probe = Instant::now();
    for _ in 0..100 {
        black_box(est.estimate());
    }
    let per_query = probe.elapsed().as_secs_f64() / 100.0;
    let batch = ((MIN_MEASURE.as_secs_f64() / per_query.max(1e-9)) as u64).clamp(1000, 500_000_000);
    let start = Instant::now();
    for _ in 0..batch {
        black_box(est.estimate());
    }
    batch as f64 / start.elapsed().as_secs_f64()
}

/// Recording throughput under the paper's *two-hash* cost model.
///
/// The paper's Algorithm 1 performs the geometric hash `G(d)` and the
/// uniform hash `H(d)` as separate operations, and its Table I counts
/// them separately; SMB's recording-throughput growth (its Table IV)
/// comes from skipping the H-hash (and the memory access) for items
/// the G-test drops. This workspace's estimators normally split one
/// 64-bit hash instead — faster for everyone, but it makes recording
/// hash-bound and hides the adaptivity. This function measures the
/// paper-faithful variant: `h1` (geometric lane) always, `h2` (index
/// lane) only when the item survives SMB's sampling test; baselines
/// pay both hashes on every item, exactly as the paper accounts.
pub fn recording_throughput_two_hash_mdps(
    algo: Algo,
    m: usize,
    n_max: f64,
    items: &ItemBuffer,
) -> f64 {
    let mut total_items = 0u64;
    let mut elapsed = Duration::ZERO;
    let mut round = 0u64;
    while elapsed < MIN_MEASURE {
        let scheme_g = HashScheme::with_seed(round);
        let scheme_h = scheme_g.derive(1);
        if algo == Algo::Smb {
            let t = smb_theory::optimal_threshold(m, n_max).t;
            let mut est =
                smb_core::Smb::with_scheme(m, t, scheme_g).expect("valid SMB params");
            let start = Instant::now();
            black_box(smb_record_two_hash(&mut est, items, scheme_g, scheme_h));
            elapsed += start.elapsed();
            black_box(est.estimate());
        } else {
            let mut est = build_estimator(algo, m, n_max, round);
            let start = Instant::now();
            for item in items.iter() {
                let g_lane = (scheme_g.hash64(item) >> 32) as u32;
                let h_lane = scheme_h.hash64(item) as u32;
                est.record_hash(ItemHash::new(((g_lane as u64) << 32) | h_lane as u64));
            }
            elapsed += start.elapsed();
            black_box(est.estimate());
        }
        total_items += items.len() as u64;
        round += 1;
    }
    (total_items as f64 / elapsed.as_secs_f64()) / 1e6
}

/// Record `items` into `est` under the two-hash cost model of
/// [`recording_throughput_two_hash_mdps`]: the G-hash (`scheme_g`'s
/// geometric lane) for every item, the H-hash (`scheme_h`'s index
/// lane) only for items that pass SMB's sampling test. Returns how
/// many items paid the H-hash — the work that shrinks as `n` grows.
pub fn smb_record_two_hash(
    est: &mut smb_core::Smb,
    items: &ItemBuffer,
    scheme_g: HashScheme,
    scheme_h: HashScheme,
) -> u64 {
    let mut h_hashes = 0;
    for item in items.iter() {
        let g_lane = (scheme_g.hash64(item) >> 32) as u32;
        // SMB's Step 1: drop before paying for H(d).
        if smb_hash::geometric_rank_capped(g_lane) >= est.round() {
            h_hashes += 1;
            let h_lane = scheme_h.hash64(item) as u32;
            est.record_hash(ItemHash::new(((g_lane as u64) << 32) | h_lane as u64));
        }
    }
    h_hashes
}

/// Per-packet record-then-query throughput (the online detector loop).
pub fn online_throughput_mdps(algo: Algo, m: usize, n_max: f64, items: &ItemBuffer) -> f64 {
    let mut total = 0u64;
    let mut elapsed = Duration::ZERO;
    let mut round = 0u64;
    while elapsed < MIN_MEASURE {
        let mut est = build_estimator(algo, m, n_max, round);
        let start = Instant::now();
        for item in items.iter() {
            est.record(item);
            black_box(est.estimate());
        }
        elapsed += start.elapsed();
        total += items.len() as u64;
        round += 1;
    }
    (total as f64 / elapsed.as_secs_f64()) / 1e6
}

/// Run `runs` independent trials of `algo` on streams of cardinality
/// `n` and return the estimates.
pub fn estimates_over_runs(algo: Algo, m: usize, n_max: f64, n: u64, runs: u64, seed0: u64) -> Vec<f64> {
    let mut out = Vec::with_capacity(runs as usize);
    let mut buf = [0u8; smb_stream::items::MAX_ITEM_LEN];
    for run in 0..runs {
        let mut est = build_estimator(algo, m, n_max, seed0 + run * 1009 + 1);
        let mut stream = StreamSpec::distinct(n, seed0 ^ (run.wrapping_mul(0x9E37_79B9))).stream();
        while let Some(len) = stream.next_into(&mut buf) {
            est.record(&buf[..len]);
        }
        out.push(est.estimate());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn item_buffer_roundtrip() {
        let spec = StreamSpec::distinct(100, 1).item_len(16);
        let buf = ItemBuffer::from_spec(spec);
        assert_eq!(buf.len(), 100);
        let items: Vec<&[u8]> = buf.iter().collect();
        assert_eq!(items.len(), 100);
        assert_eq!(items[0].len(), 16);
        assert_ne!(items[0], items[1]);
    }

    #[test]
    fn throughputs_are_positive_and_sane() {
        let buf = ItemBuffer::from_spec(StreamSpec::distinct(20_000, 2));
        let rec = recording_throughput_mdps(Algo::Smb, 5000, 1e6, &buf);
        assert!(rec > 0.1, "{rec} Mdps is implausibly slow");
        let q = query_throughput_qps(Algo::Smb, 5000, 1e6, &buf);
        assert!(q > 1e5, "{q} qps is implausibly slow for an O(1) query");
    }

    #[test]
    fn estimates_over_runs_are_independent() {
        let ests = estimates_over_runs(Algo::Smb, 5000, 1e6, 50_000, 4, 0);
        assert_eq!(ests.len(), 4);
        // Different seeds → different estimates (w.h.p.).
        assert!(ests.windows(2).any(|w| w[0] != w[1]));
        for e in ests {
            assert!((e - 50_000.0).abs() / 50_000.0 < 0.3, "{e}");
        }
    }
}
