//! Property suites for the compressed cell-state / flow-block codec.
//!
//! The codec's contract is *unconditional losslessness*: for every
//! JSON state — canonical tier wrappers, canonical estimator states,
//! or arbitrary objects that fall back to the JSON frame —
//! `decode(encode(state)) == state` bit-for-bit, and no input bytes,
//! however hostile, make the decoder panic or allocate unboundedly.
//! Each suite drives the codec with randomized states and adversarial
//! byte-level corruptions of their encodings.
//!
//! Reproduce a failure with `SMB_PROP_SEED=<seed printed on failure>`.

use smb_devtools::prop::gens;
use smb_devtools::{forall, prop_assert, prop_assert_eq, Json};
use smb_sketch::codec::{
    decode_cell, decode_cell_state, decode_flow_block, encode_cell_state, encode_flow_block,
    read_varint, write_varint, zigzag_decode, zigzag_encode, CellState,
};

/// Build a canonical hash scheme object (`{"algorithm", "seed"}`).
fn scheme_json(alg: u8, seed: u64) -> Json {
    let name = match alg % 3 {
        0 => "xxh64",
        1 => "murmur3_128_low",
        _ => "fnv1a_mixed",
    };
    Json::Obj(vec![
        ("algorithm".into(), Json::str(name)),
        ("seed".into(), Json::Int(seed as i128)),
    ])
}

/// Build a canonical tier wrapper from raw draws: dedups and truncates
/// to the tier's capacity so the shape is exactly what
/// `FlowCell::snapshot_state` emits.
fn tier_json(small: bool, raw: &[u64]) -> Json {
    let cap = if small { 1 } else { 16 };
    let mut hashes: Vec<u64> = Vec::new();
    for &h in raw {
        if hashes.len() == cap {
            break;
        }
        if !hashes.contains(&h) {
            hashes.push(h);
        }
    }
    Json::Obj(vec![
        (
            "tier".into(),
            Json::str(if small { "small" } else { "array" }),
        ),
        (
            "hashes".into(),
            Json::Arr(hashes.iter().map(|&h| Json::Int(h as i128)).collect()),
        ),
    ])
}

/// Build a canonical SMB state from raw draws: `ones` become a sorted,
/// deduplicated, in-range ascending index list as `BitVec::to_json`
/// would emit.
fn smb_json(alg: u8, seed: u64, m: usize, t: u64, r: u64, v: u64, raw_ones: &[u64]) -> Json {
    let mut ones: Vec<usize> = raw_ones.iter().map(|&o| (o as usize) % m.max(1)).collect();
    ones.sort_unstable();
    ones.dedup();
    Json::Obj(vec![
        ("scheme".into(), scheme_json(alg, seed)),
        ("m".into(), Json::Int(m as i128)),
        ("t".into(), Json::Int(t as i128)),
        ("r".into(), Json::Int(r as i128)),
        ("v".into(), Json::Int(v as i128)),
        (
            "bits".into(),
            Json::Obj(vec![
                ("len".into(), Json::Int(m as i128)),
                (
                    "ones".into(),
                    Json::Arr(ones.iter().map(|&i| Json::Int(i as i128)).collect()),
                ),
            ]),
        ),
    ])
}

/// A non-canonical state: field order / names the strict readers must
/// refuse, forcing the JSON fallback frame.
fn oddball_json(tag: u64, payload: u64) -> Json {
    match tag % 4 {
        0 => Json::Obj(vec![
            // tier wrapper fields in the wrong order
            ("hashes".into(), Json::Arr(vec![Json::Int(payload as i128)])),
            ("tier".into(), Json::str("small")),
        ]),
        1 => Json::Obj(vec![
            ("tier".into(), Json::str("giant")), // unknown tier name
            ("hashes".into(), Json::Arr(vec![])),
        ]),
        2 => Json::Obj(vec![
            ("estimate".into(), Json::Float(payload as f64 * 0.5)),
            ("note".into(), Json::str("free-form estimator state")),
        ]),
        _ => Json::Arr(vec![Json::Int(payload as i128), Json::Null, Json::Bool(true)]),
    }
}

#[test]
fn varint_and_zigzag_round_trip() {
    forall!(cases = 256, (value in gens::u64s(0..u64::MAX)) => {
        let mut buf = Vec::new();
        write_varint(&mut buf, value);
        prop_assert!(buf.len() <= 10, "varint never exceeds 10 bytes");
        let mut pos = 0;
        let back = match read_varint(&buf, &mut pos) {
            Ok(v) => v,
            Err(e) => return Err(smb_devtools::prop::PropError::fail(format!("{e}"))),
        };
        prop_assert_eq!(back, value);
        prop_assert_eq!(pos, buf.len(), "read consumes exactly what write produced");

        let signed = value as i64;
        prop_assert_eq!(zigzag_decode(zigzag_encode(signed)), signed);
    });
}

#[test]
fn cell_states_round_trip_across_all_tiers() {
    forall!(cases = 128, (kind in gens::u8s(0..5),
                          raw in gens::vecs(gens::u64s(0..u64::MAX), 0..24),
                          alg in gens::u8s(0..3),
                          seed in gens::u64s(0..u64::MAX),
                          ) => {
        let m = 64 + (seed % 4096) as usize;
        let t = 1 + seed % 1024;
        let state = match kind {
            0 => tier_json(true, &raw),
            1 => tier_json(false, &raw),
            2 => smb_json(alg, seed, m, t, seed % 32, seed % t, &raw),
            3 => Json::Obj(vec![
                ("scheme".into(), scheme_json(alg, seed)),
                ("bits".into(), Json::Obj(vec![
                    ("len".into(), Json::Int(m as i128)),
                    ("ones".into(), Json::Arr(
                        raw.iter().map(|&o| (o as usize) % m).collect::<std::collections::BTreeSet<_>>()
                            .into_iter().map(|i| Json::Int(i as i128)).collect(),
                    )),
                ])),
            ]),
            _ => oddball_json(seed, raw.first().copied().unwrap_or(0)),
        };
        let bytes = encode_cell_state(&state);
        let back = match decode_cell_state(&bytes) {
            Ok(j) => j,
            Err(e) => return Err(smb_devtools::prop::PropError::fail(format!("decode: {e}"))),
        };
        prop_assert_eq!(&back, &state, "decode(encode(state)) must be identity");
        // The typed reader of the bytes and the typed reading of the
        // JSON agree: a v1 state and its v2 bytes restore alike.
        prop_assert_eq!(
            decode_cell(&bytes).ok(),
            Some(CellState::from_json(state)),
            "typed state of the bytes vs of the JSON"
        );
    });
}

#[test]
fn canonical_states_compress_against_their_json_text() {
    // Representative of real workloads: a dense SMB register state
    // must encode far below its JSON text; the 0.5x checkpoint gate in
    // verify.sh rests on this holding per-cell.
    forall!(cases = 64, (seed in gens::u64s(0..u64::MAX),
                         raw in gens::vecs(gens::u64s(0..u64::MAX), 64..256)) => {
        let m = 1024usize;
        let state = smb_json(0, seed, m, 600, 3, 17, &raw);
        let bytes = encode_cell_state(&state);
        let json_len = state.to_string().len();
        prop_assert!(
            bytes.len() * 2 <= json_len,
            "binary {} bytes vs JSON {} bytes",
            bytes.len(),
            json_len
        );
    });
}

#[test]
fn flow_blocks_round_trip() {
    forall!(cases = 96, (keys in gens::vecs(gens::u64s(0..u64::MAX), 0..40),
                         kinds in gens::vecs(gens::u8s(0..5), 40..41),
                         seed in gens::u64s(0..u64::MAX)) => {
        let mut sorted: Vec<u64> = keys.clone();
        sorted.sort_unstable();
        sorted.dedup();
        let flows: Vec<(u64, Json)> = sorted
            .iter()
            .enumerate()
            .map(|(i, &flow)| {
                let state = match kinds[i % kinds.len()] {
                    0 => tier_json(true, &[flow]),
                    1 => tier_json(false, &[flow, seed, seed ^ flow]),
                    2 => smb_json(0, seed, 128, 40, 1, 7, &[flow % 128, seed % 128]),
                    _ => oddball_json(seed.wrapping_add(flow), flow),
                };
                (flow, state)
            })
            .collect();
        let block = match encode_flow_block(&flows) {
            Ok(b) => b,
            Err(e) => return Err(smb_devtools::prop::PropError::fail(format!("encode: {e}"))),
        };
        prop_assert!(block[..4] == *b"SMB2", "flow blocks start with the magic");
        let back = match decode_flow_block(&block) {
            Ok(f) => f,
            Err(e) => return Err(smb_devtools::prop::PropError::fail(format!("decode: {e}"))),
        };
        prop_assert_eq!(back, flows);
    });
}

#[test]
fn truncated_encodings_error_instead_of_panicking() {
    forall!(cases = 96, (kind in gens::u8s(0..5),
                         raw in gens::vecs(gens::u64s(0..u64::MAX), 1..24),
                         seed in gens::u64s(0..u64::MAX),
                         cut in gens::usizes(0..10_000)) => {
        let state = match kind {
            0 => tier_json(true, &raw),
            1 => tier_json(false, &raw),
            2 => smb_json(kind, seed, 256, 80, 2, 11, &raw),
            _ => oddball_json(seed, raw[0]),
        };
        let bytes = encode_cell_state(&state);
        // Every proper prefix must fail cleanly: the decoder demands
        // exact consumption and validates every length field it reads.
        let len = cut % bytes.len();
        prop_assert!(
            decode_cell_state(&bytes[..len]).is_err(),
            "prefix of {} / {} bytes decoded",
            len,
            bytes.len()
        );

        // Same for a flow block wrapping the state.
        let block = encode_flow_block(&[(seed, state)]).expect("encode is total");
        let len = cut % block.len();
        prop_assert!(decode_flow_block(&block[..len]).is_err());
    });
}

#[test]
fn corrupted_and_random_bytes_never_panic() {
    forall!(cases = 256, (garbage in gens::bytes(0..300),
                          raw in gens::vecs(gens::u64s(0..u64::MAX), 1..20),
                          seed in gens::u64s(0..u64::MAX),
                          flips in gens::vecs(gens::usizes(0..10_000), 1..8)) => {
        // Pure random bytes: must return, never panic or hang.
        let _ = decode_cell_state(&garbage);
        let _ = decode_flow_block(&garbage);

        // Targeted corruption of a valid encoding: flip a few bytes
        // and decode. Any Ok result must itself round-trip (a decoded
        // state is always canonical enough to re-encode losslessly).
        let state = tier_json(false, &raw);
        let mut bytes = encode_cell_state(&state);
        for &flip in &flips {
            let idx = flip % bytes.len();
            bytes[idx] ^= (1 << (flip % 8)) as u8;
        }
        if let Ok(back) = decode_cell_state(&bytes) {
            let again = decode_cell_state(&encode_cell_state(&back)).ok();
            prop_assert_eq!(again, Some(back));
        }

        let mut block = encode_flow_block(&[(seed % 1024, state)]).expect("encode is total");
        for &flip in &flips {
            let idx = flip % block.len();
            block[idx] ^= (1 << (flip % 8)) as u8;
        }
        if let Ok(back) = decode_flow_block(&block) {
            for (_, cell) in &back {
                let again = decode_cell_state(&encode_cell_state(cell)).ok();
                prop_assert_eq!(again, Some(cell.clone()));
            }
        }
    });
}

#[test]
fn flow_block_rejects_unsorted_and_duplicate_keys() {
    let state = tier_json(true, &[42]);
    // encode_flow_block demands strictly ascending keys.
    assert!(encode_flow_block(&[(5, state.clone()), (5, state.clone())]).is_err());
    assert!(encode_flow_block(&[(9, state.clone()), (3, state.clone())]).is_err());
    assert!(encode_flow_block(&[(3, state.clone()), (9, state)]).is_ok());
}

/// Builders filled apart and merged frame the same bytes as one
/// builder holding every cell, whatever the split (empty parts too),
/// and the merge rejects what a single block would: a repeated key
/// and a part left unsorted.
#[test]
fn merged_builders_frame_the_single_builder_bytes() {
    use smb_sketch::codec::FlowBlockBuilder;

    forall!(cases = 96, (keys in gens::vecs(gens::u64s(0..u64::MAX), 0..60),
                         parts in gens::usizes(1..6),
                         seed in gens::u64s(0..u64::MAX)) => {
        let mut keys = keys;
        keys.sort_unstable();
        keys.dedup();
        let state = |flow: u64| match flow % 3 {
            0 => tier_json(true, &[flow]),
            1 => tier_json(false, &[flow, seed, seed ^ flow]),
            _ => oddball_json(seed.wrapping_add(flow), flow),
        };
        let mut whole = FlowBlockBuilder::default();
        let mut split: Vec<FlowBlockBuilder> =
            (0..parts).map(|_| FlowBlockBuilder::default()).collect();
        // Push in descending order so every part needs its sort.
        for &flow in keys.iter().rev() {
            whole.push_state(flow, &state(flow));
            split[(flow ^ seed) as usize % parts].push_state(flow, &state(flow));
        }
        for part in &mut split {
            part.sort();
        }
        let want = whole.finish_sorted().expect("distinct keys frame");
        prop_assert_eq!(FlowBlockBuilder::finish_merged(&split).ok(), Some(want));
    });

    let state = tier_json(true, &[42]);
    let part = |flows: &[u64]| {
        let mut b = FlowBlockBuilder::default();
        for &flow in flows {
            b.push_state(flow, &state);
        }
        b
    };
    assert!(FlowBlockBuilder::finish_merged(&[part(&[1, 5]), part(&[5, 9])]).is_err());
    assert!(FlowBlockBuilder::finish_merged(&[part(&[9, 3]), part(&[4])]).is_err());
    let merged = FlowBlockBuilder::finish_merged(&[part(&[3, 9]), part(&[]), part(&[4])]);
    let flows: Vec<(u64, Json)> = [3, 4, 9].iter().map(|&f| (f, state.clone())).collect();
    assert_eq!(merged.unwrap(), encode_flow_block(&flows).unwrap());
    assert_eq!(
        FlowBlockBuilder::finish_merged(&[]).unwrap(),
        encode_flow_block(&[]).unwrap()
    );
}

/// The server and checkpoint writer encode live cells directly
/// (`encode_cell`, `FlowBlockBuilder::push_cell`) instead of
/// transcoding their JSON snapshot state. For every cell a tiered
/// table can hold — both unmaterialized tiers, SMB under every hash
/// algorithm from its first round to saturation, a plain bitmap, and
/// an estimator with no binary tag — the direct bytes must equal
/// `encode_cell_state(&cell.snapshot_state())`, and a block assembled
/// from live cells must equal `encode_flow_block` of the JSON cells.
#[test]
fn cell_encoder_matches_json_transcoder_bit_for_bit() {
    use smb_core::{CardinalityEstimator, Smb};
    use smb_devtools::prop::{PropError, PropResult};
    use smb_devtools::rng::{Rng, Xoshiro256pp};
    use smb_factory::{Algo, AlgoSpec, DynEstimator};
    use smb_hash::{HashAlgorithm, HashScheme, ItemHash};
    use smb_sketch::codec::{
        encode_cell, FlowBlockBuilder, TAG_ARRAY, TAG_BITMAP, TAG_JSON, TAG_SMALL, TAG_SMB,
    };
    use smb_sketch::{FlowCell, FlowTable, Tier};

    /// The tag the JSON transcoder gives `cell`, checked against what
    /// the cell is, so every branch of the direct encoder is exercised.
    fn expected_tag(cell: &FlowCell<DynEstimator>) -> u8 {
        match cell.tier() {
            Tier::Small => TAG_SMALL,
            Tier::Array => TAG_ARRAY,
            Tier::Full => match cell.estimator().expect("full cell").name() {
                "SMB" => TAG_SMB,
                "Bitmap" => TAG_BITMAP,
                _ => TAG_JSON,
            },
        }
    }

    fn check_cell(flow: u64, cell: &FlowCell<DynEstimator>) -> PropResult {
        let state = cell.snapshot_state().expect("factory estimators snapshot");
        let want = encode_cell_state(&state);
        prop_assert_eq!(want[0], expected_tag(cell), "flow {} tag", flow);
        let tier = cell.tier();
        prop_assert_eq!(
            encode_cell(cell),
            Some(want),
            "flow {} ({:?}) bytes",
            flow,
            tier
        );
        Ok(())
    }

    fn check_table(table: &FlowTable<DynEstimator>) -> PropResult {
        let mut live = FlowBlockBuilder::default();
        let mut json: Vec<(u64, Json)> = Vec::new();
        for (flow, cell) in table.cells() {
            check_cell(flow, cell)?;
            live.push_cell(flow, cell)
                .expect("factory estimators snapshot");
            json.push((
                flow,
                cell.snapshot_state().expect("factory estimators snapshot"),
            ));
        }
        json.sort_unstable_by_key(|&(flow, _)| flow);
        let want = encode_flow_block(&json).expect("sorted keys");
        prop_assert_eq!(live.finish_sorted().expect("distinct keys"), want);
        Ok(())
    }

    let algorithms = [
        HashAlgorithm::Xxh64,
        HashAlgorithm::Murmur3_128Low,
        HashAlgorithm::Fnv1aMixed,
    ];
    forall!(cases = 4, (seed in gens::u64s(0..u64::MAX)) => {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        // (name, factory, m): SMB at three (m, T) points under every
        // hash algorithm, then factory-built Bitmap and HLL.
        type Make = std::rc::Rc<dyn Fn() -> DynEstimator>;
        let mut configs: Vec<(String, Make, usize)> = Vec::new();
        for alg in algorithms {
            for (m, t) in [(64usize, 3usize), (256, 12), (2048, 157)] {
                let scheme = HashScheme::new(alg, seed);
                let make = move || -> DynEstimator {
                    Box::new(Smb::with_scheme(m, t, scheme).expect("valid SMB"))
                };
                configs.push((format!("SMB {alg:?} m={m} T={t}"), std::rc::Rc::new(make), m));
            }
        }
        for algo in [Algo::Bitmap, Algo::Hll] {
            let spec = AlgoSpec::new(algo).memory_bits(640).seed(seed);
            let make = move || spec.build().expect("valid spec");
            configs.push((format!("{algo:?}"), std::rc::Rc::new(make), 640));
        }

        for (name, make, m) in configs {
            let mut table: FlowTable<DynEstimator> =
                FlowTable::tiered(HashScheme::with_seed(seed), move |_| make());
            // One flow per tier boundary: empty and singleton small
            // cells, array cells up to capacity, just-promoted and
            // well-filled estimators.
            table.insert_cell(0, FlowCell::new());
            for (flow, distinct) in [(1u64, 1usize), (2, 2), (3, 9), (4, 16), (5, 17), (6, 300)] {
                for _ in 0..distinct {
                    table.record_hash(flow, ItemHash::new(rng.next_u64()));
                }
            }
            check_table(&table).map_err(|e| PropError::fail(format!("{name}: {e:?}")))?;

            // Drive one flow through every morph round into saturation
            // with hashes whose geometric lane is all zeros, so every
            // item passes every round's sampling; check the cell after
            // each chunk and the whole table at the end.
            let hot = 7u64;
            let mut rounds_seen = std::collections::BTreeSet::new();
            for _ in 0..(64 * m) {
                for _ in 0..(m / 16).max(4) {
                    table.record_hash(hot, ItemHash::new(rng.next_u64() & 0xFFFF_FFFF));
                }
                let cell = table.cell(hot).expect("hot flow present");
                check_cell(hot, cell).map_err(|e| PropError::fail(format!("{name}: {e:?}")))?;
                if let Some(state) = cell.snapshot_state() {
                    if let Ok(r) = state.field("r").and_then(|r| r.as_u64()) {
                        rounds_seen.insert(r);
                    }
                }
                if cell.estimator().is_some_and(|est| est.is_saturated()) {
                    break;
                }
            }
            let hot_est = table
                .cell(hot)
                .and_then(FlowCell::estimator)
                .expect("hot flow materialized");
            prop_assert!(hot_est.is_saturated(), "{}: hot flow never saturated", name);
            if name.starts_with("SMB") {
                prop_assert!(rounds_seen.len() > 2, "{}: only rounds {:?} checked", name, rounds_seen);
            }
            check_table(&table).map_err(|e| PropError::fail(format!("{name}: {e:?}")))?;
        }
    });
}

/// PROTOCOL.md §5.5's worked flow-block example, written both from
/// its JSON states and from the live cells those states describe.
#[test]
fn protocol_flow_block_example_from_json_and_live_cells() {
    use smb_core::Smb;
    use smb_hash::ItemHash;
    use smb_sketch::codec::FlowBlockBuilder;
    use smb_sketch::FlowCell;

    let want = [
        0x53, 0x4D, 0x42, 0x32, 0x02, 0x07, 0x03, 0x01, 0x01, 0x2A, 0x0C, 0x02, 0x01, 0x00,
    ];
    let flows = vec![
        (
            7u64,
            Json::parse(r#"{"tier":"small","hashes":[42]}"#).unwrap(),
        ),
        (
            19u64,
            Json::parse(r#"{"tier":"small","hashes":[]}"#).unwrap(),
        ),
    ];
    assert_eq!(encode_flow_block(&flows).unwrap(), want);

    let mut hot: FlowCell<Smb> = FlowCell::new();
    hot.record_hash(ItemHash::new(42), || Smb::new(256, 16).unwrap());
    let mut block = FlowBlockBuilder::default();
    block.push_cell(19, &FlowCell::<Smb>::new()).unwrap();
    block.push_cell(7, &hot).unwrap();
    assert_eq!(block.finish_sorted().unwrap(), want);
}

/// PROTOCOL.md §5.4's worked SMB cell, pinned three ways: transcoded
/// from its JSON, encoded from a live SMB in that state, and decoded
/// back to the typed state and to the JSON.
#[test]
fn protocol_smb_cell_example_from_json_live_smb_and_back() {
    use std::sync::Arc;

    use smb_core::{BitVec, Smb, SmbParams};
    use smb_hash::{HashAlgorithm, HashScheme};
    use smb_sketch::codec::{decode_cell, encode_cell, CellState};
    use smb_sketch::FlowCell;

    #[rustfmt::skip]
    let want: [u8; 24] = [
        0x03, 0x00, 0x07, 0x80, 0x01, 0x02, 0x01, 0x01,
        0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80,
    ];
    let json = Json::parse(concat!(
        r#"{"scheme":{"algorithm":"xxh64","seed":7},"m":128,"t":2,"r":1,"v":1,"#,
        r#""bits":{"len":128,"ones":[0,64,127]}}"#,
    ))
    .unwrap();
    assert_eq!(json.to_string().len(), 104);
    assert_eq!(encode_cell_state(&json), want);

    let scheme = HashScheme::new(HashAlgorithm::Xxh64, 7);
    let mut bits = BitVec::new(128);
    bits.set_all([0, 64, 127]);
    let params = Arc::new(SmbParams::new(128, 2).unwrap());
    let smb = Smb::from_parts(params, scheme, 1, 1, bits.clone()).expect("reachable state");
    assert_eq!(
        encode_cell(&FlowCell::from_estimator(smb)),
        Some(want.to_vec())
    );

    let state = CellState::Smb {
        scheme,
        t: 2,
        r: 1,
        v: 1,
        bits,
    };
    assert_eq!(decode_cell(&want).unwrap(), state);
    assert_eq!(CellState::from_json(json.clone()), state);
    assert_eq!(state.into_json(), json);
    assert_eq!(decode_cell_state(&want).unwrap(), json);
}
