//! Differential property suites for the tiered [`FlowCell`] path.
//!
//! The tier ladder (inline small set → heap hash array → materialized
//! estimator) is a pure storage optimisation: a tiered `FlowTable`
//! must be observationally identical — estimates bit-for-bit — to an
//! eager table that materializes every flow up front, at every point
//! in every flow's life, including the exact promotion boundaries and
//! under duplicate-heavy streams where the tiers dedup and the
//! estimator does not. Each suite drives both implementations with
//! the same inputs and compares after every step.
//!
//! Reproduce a failure with `SMB_PROP_SEED=<seed printed on failure>`.

use std::cell::Cell;
use std::rc::Rc;
use std::sync::Arc;

use smb_core::{CardinalityEstimator, Smb, SmbParams};
use smb_devtools::prop::gens;
use smb_devtools::rng::{Rng, Xoshiro256pp};
use smb_devtools::{forall, prop_assert, prop_assert_eq};
use smb_hash::{HashScheme, ItemHash};
use smb_sketch::{FlowFactory, FlowTable, Tier, ARRAY_CAP, SMALL_CAP};

/// One shared scheme for the table and every estimator — the engine's
/// deployment shape, and the precondition for tiered bit-identity
/// (stored raw hashes replay through the same hash mapping).
fn scheme() -> HashScheme {
    HashScheme::with_seed(0x7153)
}

/// A deliberately tiny SMB (m=256, T=32) so streams of a few hundred
/// items cross morph boundaries after materialization. Tier dedup does
/// not rely on T > ARRAY_CAP: SMB ignores a repeat in every round
/// (Theorem 2), morphs or not; specs whose T fits inside the array
/// tier are covered by `small_threshold_specs_dedup_bit_identically`.
fn make() -> Smb {
    Smb::with_scheme(256, 32, scheme()).expect("valid params")
}

fn tiered() -> FlowTable<Smb> {
    FlowTable::tiered(scheme(), |_| make())
}

/// The tier a cell must occupy after seeing `distinct` distinct hashes.
fn expected_tier(distinct: usize) -> Tier {
    if distinct <= SMALL_CAP {
        Tier::Small
    } else if distinct <= ARRAY_CAP {
        Tier::Array
    } else {
        Tier::Full
    }
}

/// Exact physical equality of two SMB estimators: bitmap, round,
/// fresh counter, and morph-attribution counter.
fn smb_state_eq(a: &Smb, b: &Smb) -> bool {
    a.as_bits() == b.as_bits()
        && a.round() == b.round()
        && a.fresh_ones() == b.fresh_ones()
        && a.items_since_last_morph() == b.items_since_last_morph()
        && a.estimate().to_bits() == b.estimate().to_bits()
}

/// The tier ladder, one item at a time: after every single record the
/// tiered estimate matches an eager estimator bit-for-bit, the cell
/// sits on exactly the tier its distinct count dictates, and once
/// materialized the full physical state (not just the estimate) is
/// identical — promotion replayed the stream exactly.
#[test]
fn tier_ladder_is_bit_identical_to_eager_at_every_step() {
    let sch = scheme();
    let mut table = tiered();
    let mut eager = make();
    let total = 3 * ARRAY_CAP as u64;
    for i in 0..total {
        let h = sch.item_hash(&i.to_le_bytes());
        table.record_hash(7, h);
        eager.record_hash(h);
        let distinct = (i + 1) as usize;
        let cell = table.cell(7).expect("flow exists");
        assert_eq!(cell.tier(), expected_tier(distinct), "after {distinct} items");
        assert_eq!(
            table.estimate(7).map(f64::to_bits),
            Some(eager.estimate().to_bits()),
            "estimate after {distinct} items"
        );
    }
    let materialized = table.cell(7).unwrap().estimator().expect("past ARRAY_CAP");
    assert!(
        smb_state_eq(materialized, &eager),
        "materialized state must be the eager state, bit for bit"
    );
}

/// Random batch chunkings slice the stream arbitrarily across both
/// promotion boundaries (…|1→2|… and …|16→17|…); the batched tiered
/// path must track a sequential eager estimator bit-for-bit after
/// every chunk.
#[test]
fn random_chunkings_cross_promotions_bit_identically() {
    forall!(cases = 48, (chunks in gens::vecs(gens::u64s(1..24), 1..24)) => {
        let sch = scheme();
        let mut table = tiered();
        let mut eager = make();
        let mut next = 0u64;
        for (i, &n) in chunks.iter().enumerate() {
            let hashes: Vec<ItemHash> = (0..n)
                .map(|_| {
                    next += 1;
                    sch.item_hash(&next.to_le_bytes())
                })
                .collect();
            table.record_hashes(9, &hashes);
            // The reference records one item at a time: this also pins
            // batched == sequential through the tier ladder.
            for &h in &hashes {
                eager.record_hash(h);
            }
            prop_assert_eq!(
                table.estimate(9).map(f64::to_bits),
                Some(eager.estimate().to_bits()),
                "after chunk {} ({} items total)", i, next
            );
            prop_assert_eq!(
                table.cell(9).unwrap().tier(),
                expected_tier(next as usize),
                "tier after {} distinct items", next
            );
        }
    });
}

/// Duplicate-heavy streams: the small and array tiers store *distinct*
/// hashes and silently drop repeats, while an eager estimator records
/// every repeat. That dedup must be estimate-invisible — a repeated
/// hash before any morph sets an already-set bit and never advances
/// the fresh-bit trigger — and the tier must be decided by the
/// distinct count, not the op count.
#[test]
fn duplicate_heavy_streams_estimate_identically() {
    forall!(cases = 32, (items in gens::vecs(gens::u64s(0..40), 1..200)) => {
        let sch = scheme();
        let mut table = tiered();
        let mut eager = make();
        for (i, &item) in items.iter().enumerate() {
            let h = sch.item_hash(&item.to_le_bytes());
            table.record_hash(11, h);
            eager.record_hash(h);
            prop_assert_eq!(
                table.estimate(11).map(f64::to_bits),
                Some(eager.estimate().to_bits()),
                "estimate after op {}", i
            );
        }
        let distinct: std::collections::HashSet<u64> = items.iter().copied().collect();
        prop_assert_eq!(
            table.cell(11).unwrap().tier(),
            expected_tier(distinct.len()),
            "{} ops over {} distinct items", items.len(), distinct.len()
        );
    });
}

/// The factory's own small budgets: at `n_max = 1e6` it resolves
/// m = 64, 128 and 256 to T = 3, 6 and 12, all at or below ARRAY_CAP.
/// There a tiered cell's query probe morphs during its replay, and
/// promotion replays a history whose repeats the tiers dropped across
/// morphs. Neither may show: estimates match an eager SMB bit-for-bit
/// after every op, and a materialized cell holds the eager bitmap,
/// round and fresh count (only the morph-attribution item counter,
/// pure telemetry, sees the dropped repeats).
#[test]
fn small_threshold_specs_dedup_bit_identically() {
    for (m, t) in [(64, 3), (128, 6), (256, 12)] {
        assert!(t <= ARRAY_CAP);
        let make = move || Smb::with_scheme(m, t, scheme()).expect("valid params");
        forall!(cases = 48, (items in gens::vecs(gens::u64s(0..24), 1..160)) => {
            let sch = scheme();
            let mut table = FlowTable::tiered(sch, move |_| make());
            let mut eager = make();
            for (i, &item) in items.iter().enumerate() {
                let h = sch.item_hash(&item.to_le_bytes());
                table.record_hash(5, h);
                eager.record_hash(h);
                prop_assert_eq!(
                    table.estimate(5).map(f64::to_bits),
                    Some(eager.estimate().to_bits()),
                    "m={} T={}: estimate after op {}", m, t, i
                );
            }
            if let Some(est) = table.cell(5).unwrap().estimator() {
                prop_assert!(
                    est.as_bits() == eager.as_bits()
                        && est.round() == eager.round()
                        && est.fresh_ones() == eager.fresh_ones(),
                    "m={} T={}: materialized state diverged from eager", m, t
                );
            }
        });
    }
}

/// The factory's `(m, T)` pairs at `n_max = 1e6` (pinned by
/// `smb-factory`'s `small_budgets_resolve_small_thresholds`): three
/// thresholds at or below `ARRAY_CAP`, where unmaterialized cells
/// morph, and the serve default m = 2048, where they cannot.
const FACTORY_PAIRS: [(usize, usize); 4] = [(64, 3), (128, 6), (256, 12), (2048, 157)];

/// A raw hash shaped to reach SMB's edge cases: the low (uniform) lane
/// comes from a small per-sequence pool, so distinct raws collide on
/// `index(m)`, and the high (geometric) lane carries 0–3 forced
/// trailing zeros, so items pass or fail the sampling test of the
/// first few rounds in every mix.
fn adversarial_raw(rng: &mut Xoshiro256pp, lows: &[u32]) -> u64 {
    let low = lows[rng.gen_range_usize(0..lows.len())];
    let high = (rng.next_u64() as u32) << rng.gen_range_u64(0..4);
    (u64::from(high) << 32) | u64::from(low)
}

/// `SmbParams::estimate_of_hashes` is the closed form the engine
/// answers unmaterialized SMB cells with. It must be bit-identical to
/// a fresh SMB replaying the same hashes, for every length a cell can
/// hold (0..=16), at every factory `(m, T)` pair — including distinct
/// raws that collide on `index(m)`, items sampled out after a morph,
/// and a morph fired by exactly the 16th item — and for longer lists.
/// The paper's Fig. 4 shape (m = 8, T = 2, four rounds) adds lists
/// that reach the final round, where `r` stops advancing.
#[test]
fn closed_form_estimates_match_replay_bit_for_bit() {
    let mut rng = Xoshiro256pp::seed_from_u64(0xC105ED);
    for (m, t) in FACTORY_PAIRS.into_iter().chain([(8, 2)]) {
        let params = Arc::new(SmbParams::new(m, t).expect("valid params"));
        let (mut collided, mut sampled_out, mut morph_on_last) = (false, false, false);
        let mut final_round = false;
        for trial in 0..4000 {
            let pool: Vec<u32> = (0..rng.gen_range_usize(2..24))
                .map(|_| rng.next_u64() as u32)
                .collect();
            let raws: Vec<u64> = (0..ARRAY_CAP)
                .map(|_| adversarial_raw(&mut rng, &pool))
                .collect();
            let mut reference = Smb::with_params(Arc::clone(&params), scheme());
            let mut sampled_in: Vec<(u64, usize)> = Vec::new();
            for len in 0..=raws.len() {
                assert_eq!(
                    params.estimate_of_hashes(&raws[..len]).to_bits(),
                    reference.estimate().to_bits(),
                    "m={m} T={t} trial {trial}: {len} hashes {:x?}",
                    &raws[..len]
                );
                let Some(&raw) = raws.get(len) else { break };
                let h = ItemHash::new(raw);
                let r = reference.round();
                let passes = r <= 32 && (raw >> 32) & ((1u64 << r) - 1) == 0;
                sampled_out |= r > 0 && !passes;
                if passes {
                    collided |= sampled_in
                        .iter()
                        .any(|&(prev, idx)| prev != raw && idx == h.index(m));
                    sampled_in.push((raw, h.index(m)));
                }
                reference.record_hash(h);
                morph_on_last |= len + 1 == ARRAY_CAP && reference.round() > r;
                final_round |= reference.round() + 1 == params.max_rounds();
            }
            if t > ARRAY_CAP {
                // Sixteen items cannot close a round of T > 16: the
                // state is (0, number of distinct indices).
                let mut indices: Vec<usize> = sampled_in.iter().map(|&(_, i)| i).collect();
                indices.sort_unstable();
                indices.dedup();
                assert_eq!(
                    (reference.round(), reference.fresh_ones()),
                    (0, indices.len())
                );
            }
        }
        assert!(collided, "m={m}: no distinct raws collided on index(m)");
        if t <= ARRAY_CAP {
            assert!(sampled_out, "m={m}: no item was sampled out after a morph");
            assert!(morph_on_last, "m={m}: no morph fired on the 16th item");
        }
        assert_eq!(final_round, m == 8, "m={m}: final round reached");
        // Lists longer than any cell holds leave the stack path.
        for len in [17, 64, 1000] {
            let pool: Vec<u32> = (0..len).map(|_| rng.next_u64() as u32).collect();
            let raws: Vec<u64> = (0..len).map(|_| adversarial_raw(&mut rng, &pool)).collect();
            let mut reference = Smb::with_params(Arc::clone(&params), scheme());
            for &raw in &raws {
                reference.record_hash(ItemHash::new(raw));
            }
            assert_eq!(
                params.estimate_of_hashes(&raws).to_bits(),
                reference.estimate().to_bits(),
                "m={m} T={t}: {len} hashes"
            );
        }
    }
}

/// A tiered-table factory that answers unmaterialized cells in closed
/// form and counts the estimators it builds.
struct ClosedFormFactory {
    params: Arc<SmbParams>,
    builds: Rc<Cell<usize>>,
}

impl FlowFactory<Smb> for ClosedFormFactory {
    fn build(&self, _flow: u64) -> Smb {
        self.builds.set(self.builds.get() + 1);
        Smb::with_params(Arc::clone(&self.params), scheme())
    }

    fn estimate_unmaterialized(&self, _flow: u64, raws: &[u64]) -> f64 {
        self.params.estimate_of_hashes(raws)
    }
}

/// With the hook overridden, the query path (`estimate`, `estimates`,
/// `flows_over`) over 1,000 Small/Array flows builds no estimator and
/// answers bit-identically to a plain closure factory, which builds
/// one probe per unmaterialized flow per query.
#[test]
fn query_path_builds_nothing_with_a_closed_form_factory() {
    const FLOWS: u64 = 1000;
    for (m, t) in FACTORY_PAIRS {
        let params = Arc::new(SmbParams::new(m, t).expect("valid params"));
        let hook_builds = Rc::new(Cell::new(0));
        let mut hooked = FlowTable::with_factory_tiered(
            scheme(),
            ClosedFormFactory {
                params: Arc::clone(&params),
                builds: Rc::clone(&hook_builds),
            },
        );
        let closure_builds = Rc::new(Cell::new(0));
        let counter = Rc::clone(&closure_builds);
        let probe_params = Arc::clone(&params);
        let mut replayed = FlowTable::tiered(scheme(), move |_| {
            counter.set(counter.get() + 1);
            Smb::with_params(Arc::clone(&probe_params), scheme())
        });
        let mut next = 0u64;
        for flow in 0..FLOWS {
            // 1..=16 distinct items with repeats: every flow stays in
            // the Small or Array tier.
            let distinct = 1 + flow % ARRAY_CAP as u64;
            for i in 0..2 * distinct {
                let h = scheme().item_hash(&(next + i % distinct).to_le_bytes());
                hooked.record_hash(flow, h);
                replayed.record_hash(flow, h);
            }
            next += distinct;
        }
        let stats = hooked.tier_stats();
        assert_eq!((stats.full, stats.small + stats.array), (0, FLOWS as usize));
        assert_eq!((hook_builds.get(), closure_builds.get()), (0, 0));

        for flow in 0..FLOWS {
            assert_eq!(
                hooked.estimate(flow).map(f64::to_bits),
                replayed.estimate(flow).map(f64::to_bits),
                "m={m} flow {flow}"
            );
        }
        assert_eq!(hook_builds.get(), 0, "m={m}: estimate built a probe");
        assert_eq!(closure_builds.get(), FLOWS as usize);

        let mut a: Vec<(u64, u64)> = hooked.estimates().map(|(f, e)| (f, e.to_bits())).collect();
        let mut b: Vec<(u64, u64)> = replayed
            .estimates()
            .map(|(f, e)| (f, e.to_bits()))
            .collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "m={m}");
        assert_eq!(hook_builds.get(), 0, "m={m}: estimates built a probe");
        assert_eq!(closure_builds.get(), 2 * FLOWS as usize);

        let over = hooked.flows_over(2.0);
        assert_eq!(over.len(), replayed.flows_over(2.0).len(), "m={m}");
        assert!(!over.is_empty());
        assert_eq!(hook_builds.get(), 0, "m={m}: flows_over built a probe");
        assert_eq!(closure_builds.get(), 3 * FLOWS as usize);
    }
}

/// Whole-table differential: a tiered table and an eager table driven
/// by the same random multi-flow op sequence (batch record / estimate
/// sweep / remove / clear) agree on every observable after every op.
#[test]
fn tiered_table_matches_eager_table_under_random_sequences() {
    // Op codes: 0-5 record a batch, 6 compare all estimates,
    // 7 remove, 8 clear. Recording dominates so flows actually climb
    // the ladder.
    forall!(cases = 24, (ops in gens::vecs(
        (gens::u8s(0..9), gens::u64s(0..6), gens::u64s(1..24)),
        1..80,
    )) => {
        let sch = scheme();
        let mut tiered_table = tiered();
        let mut eager_table: FlowTable<Smb> = FlowTable::new(|_| make());
        let mut next = 0u64;
        for (i, &(op, flow, count)) in ops.iter().enumerate() {
            match op {
                0..=5 => {
                    let hashes: Vec<ItemHash> = (0..count)
                        .map(|_| {
                            next += 1;
                            sch.item_hash(&next.to_le_bytes())
                        })
                        .collect();
                    tiered_table.record_hashes(flow, &hashes);
                    eager_table.record_hashes(flow, &hashes);
                }
                6 => {
                    let mut a: Vec<(u64, u64)> = tiered_table
                        .estimates()
                        .map(|(f, e)| (f, e.to_bits()))
                        .collect();
                    let mut b: Vec<(u64, u64)> = eager_table
                        .estimates()
                        .map(|(f, e)| (f, e.to_bits()))
                        .collect();
                    a.sort_unstable();
                    b.sort_unstable();
                    prop_assert_eq!(a, b, "estimate sweep at op {}", i);
                }
                7 => {
                    let a = tiered_table.remove(flow);
                    let b = eager_table.remove(flow);
                    prop_assert_eq!(a.is_some(), b.is_some(), "remove at op {}", i);
                    if let (Some(a), Some(b)) = (a, b) {
                        // Removal materializes by replay; the stream
                        // was duplicate-free, so the physical state
                        // must match, not just the estimate.
                        prop_assert!(
                            smb_state_eq(&a, &b),
                            "removed flow {} diverged at op {}", flow, i
                        );
                    }
                }
                _ => {
                    tiered_table.clear();
                    eager_table.clear();
                }
            }
            prop_assert_eq!(tiered_table.len(), eager_table.len(), "len after op {}", i);
        }
        let finals: Vec<(u64, f64)> = eager_table.estimates().collect();
        for (flow, est) in finals {
            prop_assert_eq!(
                tiered_table.estimate(flow).map(f64::to_bits),
                Some(est.to_bits()),
                "final estimate of flow {}", flow
            );
        }
    });
}

/// Every tier round-trips through its checkpoint state: small and
/// array cells come back *on their tier* with the same pending hashes,
/// materialized cells restore from the estimator's own (pre-tier,
/// wrapper-free) state — and all of them estimate bit-identically. The
/// typed state decoded from the cell's bytes is the one its JSON state
/// reads as.
#[cfg(feature = "snapshot")]
#[test]
fn every_tier_round_trips_through_its_snapshot_state() {
    use smb_sketch::codec::{decode_cell, encode_cell, CellState};
    use smb_sketch::FlowCell;

    let sch = scheme();
    for n in [0usize, 1, 2, 9, ARRAY_CAP, ARRAY_CAP + 1, 100] {
        let mut cell: FlowCell<Smb> = FlowCell::new();
        for i in 0..n {
            cell.record_hash(sch.item_hash(&(i as u64).to_le_bytes()), make);
        }
        assert_eq!(cell.tier(), expected_tier(n), "{n} items");
        let bytes = encode_cell(&cell).expect("SMB supports snapshots");
        let state = decode_cell(&bytes).expect("own bytes decode");
        let json = cell.snapshot_state().expect("SMB supports snapshots");
        assert_eq!(
            CellState::from_json(json),
            state,
            "{n} items: JSON and bytes agree"
        );
        let restored = match state {
            CellState::Small(hashes) => FlowCell::from_hashes(Tier::Small, &hashes),
            CellState::Array(hashes) => FlowCell::from_hashes(Tier::Array, &hashes),
            // A materialized cell's state is the bare estimator state.
            CellState::Smb {
                scheme,
                t,
                r,
                v,
                bits,
            } => {
                let params = Arc::clone(make().params());
                assert_eq!(t, params.threshold() as u64);
                let smb = Smb::from_parts(params, scheme, r as u32, v as usize, bits);
                Some(FlowCell::from_estimator(smb.expect("reachable state")))
            }
            other => panic!("{n} items: unexpected state {other:?}"),
        }
        .expect("within tier capacity");
        assert_eq!(restored.tier(), cell.tier(), "{n} items: tier must survive");
        assert_eq!(
            restored.pending_hashes(),
            cell.pending_hashes(),
            "{n} items: pending hashes must survive in arrival order"
        );
        // Estimates as production reads them: through a tiered table,
        // whose factory answers unmaterialized cells.
        let estimate = |cell| {
            let mut table = tiered();
            table.insert_cell(0, cell);
            table.estimate(0).expect("inserted flow")
        };
        assert_eq!(
            estimate(restored).to_bits(),
            estimate(cell).to_bits(),
            "{n} items: restored estimate must be bit-identical"
        );
    }
}
