//! Compressed binary codec for per-flow estimator state.
//!
//! Checkpoint shards and wire snapshots originally shipped the JSON
//! produced by [`FlowCell::snapshot_state`] verbatim. That format is
//! diffable but fat: a 4096-bit SMB bitmap serializes as a list of
//! decimal bit indices, and even an empty tier wrapper costs ~30 bytes
//! of punctuation. HyperLogLogLog (Karppa & Pagh, KDD '22) and the
//! Huffman-Bucket Sketch both show that sketch register state
//! compresses several-fold losslessly; this module applies the same
//! idea to SMB state with two techniques:
//!
//! * **varint + zigzag delta lists** for hash/key sequences — nearby
//!   values collapse to 1–2 bytes each, and the encoding preserves
//!   *arrival order*, which the tier-promotion replay depends on for
//!   bit-identical restores.
//! * **bit-packed bitmaps** for materialized [`Smb`]/Bitmap state —
//!   `ceil(m/64)` little-endian words instead of a decimal index list,
//!   an 8× (dense) to 30× (sparse-decimal) size cut.
//!
//! One reader interprets the bytes: it decodes each cell into an owned
//! [`CellState`] — hashes, SMB `(r, v)` plus bitmap words, plain
//! bitmap words, or JSON — the owned twin of [`PackedState`].
//! Checkpoint restore builds cells straight from it
//! ([`decode_flow_states`]). [`decode_cell_state`] and
//! [`decode_flow_block`] are the JSON view of the same states
//! ([`CellState::into_json`]): the bytes are a *lossless encoding of
//! the canonical v1 JSON state*, and the view rebuilds exactly the
//! [`Json`] value they stand for. States the binary tags cannot
//! express round-trip through an escape-hatch tag carrying literal
//! JSON text, so *any* estimator's state survives, just without the
//! compression win.
//!
//! There are two writers of the same bytes. [`encode_cell`] and
//! [`FlowBlockBuilder::push_cell`] encode a live [`FlowCell`] directly
//! — hash lists from its pending hashes, SMB and bitmap state from the
//! estimator's [`PackedState`] words — and are what `SNAPSHOT` and v2
//! checkpoints use. [`encode_cell_state`] and [`encode_flow_block`]
//! transcode JSON states; they are the reference the direct writer is
//! tested against, byte for byte, and serve callers that hold JSON.
//! [`CellState::from_json`] reads JSON states through the same strict
//! shape matchers the transcoder uses, so a v1 checkpoint's JSON and
//! its v2 bytes become the same typed state.
//!
//! Every decoder is hardened: hostile or truncated input returns
//! [`CodecError`], never panics, and every length field is validated
//! against the actual remaining input *before* any allocation.
//!
//! The byte-level format is specified normatively in `PROTOCOL.md` §5;
//! the tag registry and worked hex examples there describe exactly the
//! bytes this module emits.
//!
//! [`FlowCell::snapshot_state`]: crate::flow_cell::FlowCell::snapshot_state
//! [`FlowCell`]: crate::flow_cell::FlowCell
//! [`PackedState`]: smb_core::PackedState
//! [`Smb`]: smb_core::Smb

use std::fmt;
use std::ops::Range;

use smb_core::BitVec;
#[cfg(feature = "snapshot")]
use smb_core::{CardinalityEstimator, PackedState};
use smb_devtools::{Json, Snapshot};
use smb_hash::{HashAlgorithm, HashScheme};

#[cfg(feature = "snapshot")]
use crate::flow_cell::FlowCell;
use crate::flow_cell::{ARRAY_CAP, SMALL_CAP};

/// Cell-state tag: literal JSON text fallback (any estimator state).
pub const TAG_JSON: u8 = 0x00;
/// Cell-state tag: small-tier hash list (≤ [`SMALL_CAP`] hashes).
pub const TAG_SMALL: u8 = 0x01;
/// Cell-state tag: array-tier hash list (≤ [`ARRAY_CAP`] hashes).
pub const TAG_ARRAY: u8 = 0x02;
/// Cell-state tag: bit-packed SMB estimator state.
pub const TAG_SMB: u8 = 0x03;
/// Cell-state tag: bit-packed plain-bitmap estimator state.
pub const TAG_BITMAP: u8 = 0x04;

/// Magic prefix of a flow block (and of a v2 checkpoint shard file).
pub const FLOW_BLOCK_MAGIC: [u8; 4] = *b"SMB2";

/// Error from decoding (or strict encoding of) codec input.
///
/// Carries a human-readable message; hostile input always surfaces
/// here — the codec never panics on malformed bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    msg: String,
}

impl CodecError {
    fn new(msg: impl Into<String>) -> Self {
        CodecError { msg: msg.into() }
    }
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "codec: {}", self.msg)
    }
}

impl std::error::Error for CodecError {}

// ---------------------------------------------------------------------
// Primitives: varint + zigzag
// ---------------------------------------------------------------------

/// Append `value` as an LEB128 varint: little-endian base-128 groups,
/// high bit set on every byte except the last. A `u64` takes 1–10
/// bytes; values below 128 take exactly one.
pub fn write_varint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7F) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Read one LEB128 varint from `bytes` starting at `*pos`, advancing
/// `*pos` past it. The slice-level entry point for consumers outside
/// this module (the wire protocol's payload decoders); truncated or
/// over-long input errors, never panics.
///
/// ```
/// use smb_sketch::codec::{read_varint, write_varint};
///
/// let mut buf = Vec::new();
/// write_varint(&mut buf, 300);
/// assert_eq!(buf, [0xAC, 0x02]);
/// let mut pos = 0;
/// assert_eq!(read_varint(&buf, &mut pos).unwrap(), 300);
/// assert_eq!(pos, 2);
/// assert!(read_varint(&buf, &mut pos).is_err(), "input exhausted");
/// ```
pub fn read_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, CodecError> {
    let mut r = Reader {
        bytes,
        pos: (*pos).min(bytes.len()),
    };
    let value = r.varint()?;
    *pos = r.pos;
    Ok(value)
}

/// Map a signed delta onto an unsigned varint-friendly value:
/// `0 → 0, -1 → 1, 1 → 2, -2 → 3, …` — small magnitudes of either
/// sign stay small.
pub fn zigzag_encode(value: i64) -> u64 {
    ((value << 1) ^ (value >> 63)) as u64
}

/// Inverse of [`zigzag_encode`].
pub fn zigzag_decode(value: u64) -> i64 {
    ((value >> 1) as i64) ^ -((value & 1) as i64)
}

/// A bounds-checked cursor over encoded bytes. All reads advance the
/// cursor and error (never panic) on truncation.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn byte(&mut self) -> Result<u8, CodecError> {
        let b = *self
            .bytes
            .get(self.pos)
            .ok_or_else(|| CodecError::new("truncated input"))?;
        self.pos += 1;
        Ok(b)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if n > self.remaining() {
            return Err(CodecError::new(format!(
                "need {n} bytes, {} remain",
                self.remaining()
            )));
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn varint(&mut self) -> Result<u64, CodecError> {
        let mut value: u64 = 0;
        for shift in (0..64).step_by(7) {
            let byte = self.byte()?;
            let group = (byte & 0x7F) as u64;
            // The 10th byte (shift 63) may only carry the final bit.
            if shift == 63 && group > 1 {
                return Err(CodecError::new("varint overflows u64"));
            }
            value |= group << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
        }
        Err(CodecError::new("varint longer than 10 bytes"))
    }

    fn done(&self) -> Result<(), CodecError> {
        if self.remaining() != 0 {
            return Err(CodecError::new(format!(
                "{} trailing bytes after value",
                self.remaining()
            )));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Hash lists (small / array tiers)
// ---------------------------------------------------------------------

/// Append an arrival-ordered hash list: varint count, first hash as a
/// raw varint, then each subsequent hash as
/// `varint(zigzag(hash[i] − hash[i−1]))` (wrapping 64-bit difference).
/// Order is preserved exactly — tier promotion replays hashes in
/// arrival order, so the codec must not sort.
pub fn write_hash_list(out: &mut Vec<u8>, hashes: &[u64]) {
    write_varint(out, hashes.len() as u64);
    let mut prev = 0u64;
    for (i, &h) in hashes.iter().enumerate() {
        if i == 0 {
            write_varint(out, h);
        } else {
            write_varint(out, zigzag_encode(h.wrapping_sub(prev) as i64));
        }
        prev = h;
    }
}

fn read_hash_list(r: &mut Reader<'_>, cap: usize) -> Result<Vec<u64>, CodecError> {
    let count = r.varint()?;
    if count as usize > cap {
        return Err(CodecError::new(format!(
            "hash list of {count} exceeds tier capacity {cap}"
        )));
    }
    let count = count as usize;
    let mut hashes = Vec::with_capacity(count);
    let mut prev = 0u64;
    for i in 0..count {
        let v = r.varint()?;
        let h = if i == 0 {
            v
        } else {
            prev.wrapping_add(zigzag_decode(v) as u64)
        };
        // Cells hold *distinct* hashes by construction; rejecting
        // duplicates here keeps hostile input from fabricating states
        // the restore path would refuse anyway.
        if hashes.contains(&h) {
            return Err(CodecError::new(format!("duplicate hash {h:#x} in list")));
        }
        hashes.push(h);
        prev = h;
    }
    Ok(hashes)
}

// ---------------------------------------------------------------------
// Packed bitmaps
// ---------------------------------------------------------------------

/// Pack ascending bit indices into `ceil(len/64)` little-endian words
/// (bit `i` lives in word `i / 64`, bit position `i % 64`), appended
/// as `8 × words` bytes.
fn write_packed_bits(out: &mut Vec<u8>, len: usize, ones: &[usize]) {
    let words = len.div_ceil(64);
    let mut packed = vec![0u64; words];
    for &idx in ones {
        packed[idx / 64] |= 1u64 << (idx % 64);
    }
    for word in packed {
        out.extend_from_slice(&word.to_le_bytes());
    }
}

/// Read `ceil(len/64)` packed words as a `len`-bit [`BitVec`]. The
/// byte count is validated against the remaining input before any
/// allocation, so a hostile `len` cannot force a huge reservation.
fn read_packed_bits(r: &mut Reader<'_>, len: u64) -> Result<BitVec, CodecError> {
    let len =
        usize::try_from(len).map_err(|_| CodecError::new("bitmap length out of usize range"))?;
    let bytes = r.take(len.div_ceil(64) * 8)?;
    let words = bytes
        .chunks_exact(8)
        .map(|chunk| u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")))
        .collect();
    // Bits at or above `len` in the final word are padding and must be
    // zero — anything else is a forgery the bit-identity guarantee
    // cannot absorb.
    BitVec::from_words(len, words)
        .ok_or_else(|| CodecError::new(format!("padding bits set beyond bitmap length {len}")))
}

// ---------------------------------------------------------------------
// Hash schemes
// ---------------------------------------------------------------------

/// The hash-algorithm registry: an algorithm's wire code is its index
/// here, next to the name its JSON scheme object carries.
const ALGORITHMS: [(HashAlgorithm, &str); 3] = [
    (HashAlgorithm::Xxh64, "xxh64"),
    (HashAlgorithm::Murmur3_128Low, "murmur3_128_low"),
    (HashAlgorithm::Fnv1aMixed, "fnv1a_mixed"),
];

fn algorithm_code(name: &str) -> Option<u8> {
    ALGORITHMS.iter().position(|&(_, n)| n == name).map(|i| i as u8)
}

/// The scheme an SMB or bitmap cell body starts with: the algorithm's
/// code byte, then its seed.
fn read_scheme(r: &mut Reader<'_>) -> Result<HashScheme, CodecError> {
    let code = r.byte()?;
    let seed = r.varint()?;
    let &(algorithm, _) = ALGORITHMS
        .get(usize::from(code))
        .ok_or_else(|| CodecError::new(format!("unknown hash algorithm code {code}")))?;
    Ok(HashScheme::new(algorithm, seed))
}

/// The scheme whose JSON object carries algorithm `code` and `seed`.
fn scheme_of(code: u8, seed: u64) -> HashScheme {
    HashScheme::new(ALGORITHMS[usize::from(code)].0, seed)
}

/// Strict read of a `{"algorithm", "seed"}` scheme object. `None`
/// means "shape mismatch — fall back to the JSON tag", not an error.
fn scheme_parts(scheme: &Json) -> Option<(u8, u64)> {
    let Json::Obj(fields) = scheme else {
        return None;
    };
    match fields.as_slice() {
        [(k_a, Json::Str(alg)), (k_s, Json::Int(seed))]
            if k_a == "algorithm" && k_s == "seed" =>
        {
            let code = algorithm_code(alg)?;
            let seed = u64::try_from(*seed).ok()?;
            Some((code, seed))
        }
        _ => None,
    }
}

/// Strict read of a `{"len", "ones"}` bits object with ascending
/// in-range indices (the canonical `BitVec::to_json` output). `None`
/// on any mismatch.
fn bits_parts(bits: &Json) -> Option<(usize, Vec<usize>)> {
    let Json::Obj(fields) = bits else {
        return None;
    };
    let [(k_l, Json::Int(len)), (k_o, Json::Arr(ones))] = fields.as_slice() else {
        return None;
    };
    if k_l != "len" || k_o != "ones" {
        return None;
    }
    let len = usize::try_from(*len).ok()?;
    let mut indices = Vec::with_capacity(ones.len());
    let mut prev: Option<usize> = None;
    for one in ones {
        let Json::Int(idx) = one else { return None };
        let idx = usize::try_from(*idx).ok()?;
        if idx >= len || prev.is_some_and(|p| idx <= p) {
            return None;
        }
        indices.push(idx);
        prev = Some(idx);
    }
    Some((len, indices))
}

/// A bits object in the canonical `BitVec::to_json` shape.
fn bits_json(bits: &BitVec) -> Json {
    // Indices first, then one exact-size pass into `Json` values: on
    // dense bitmaps this beats pushing `Json` values one by one.
    let mut idx = Vec::with_capacity(bits.count_ones());
    idx.extend(bits.iter_ones());
    let ones = idx.into_iter().map(|i| Json::Int(i as i128)).collect();
    Json::Obj(vec![
        ("len".into(), Json::Int(bits.len() as i128)),
        ("ones".into(), Json::Arr(ones)),
    ])
}

// ---------------------------------------------------------------------
// Cell states
// ---------------------------------------------------------------------

/// Strict read of a `{"tier", "hashes"}` wrapper with distinct u64
/// hashes within the tier's capacity. `None` on any mismatch.
fn tier_parts(state: &Json) -> Option<(u8, Vec<u64>)> {
    let Json::Obj(fields) = state else {
        return None;
    };
    let [(k_t, Json::Str(tier)), (k_h, Json::Arr(raw))] = fields.as_slice() else {
        return None;
    };
    if k_t != "tier" || k_h != "hashes" {
        return None;
    }
    let (tag, cap) = match tier.as_str() {
        "small" => (TAG_SMALL, SMALL_CAP),
        "array" => (TAG_ARRAY, ARRAY_CAP),
        _ => return None,
    };
    if raw.len() > cap {
        return None;
    }
    let mut hashes = Vec::with_capacity(raw.len());
    for v in raw {
        let Json::Int(h) = v else { return None };
        let h = u64::try_from(*h).ok()?;
        if hashes.contains(&h) {
            return None;
        }
        hashes.push(h);
    }
    Some((tag, hashes))
}

/// Strict read of a canonical SMB state object
/// (`scheme, m, t, r, v, bits` in exactly that order, bitmap length
/// equal to `m`). `None` on any mismatch.
fn smb_parts(state: &Json) -> Option<(u8, u64, u64, u64, u64, u64, Vec<usize>)> {
    let Json::Obj(fields) = state else {
        return None;
    };
    let [(k_s, scheme), (k_m, Json::Int(m)), (k_t, Json::Int(t)), (k_r, Json::Int(r)), (k_v, Json::Int(v)), (k_b, bits)] =
        fields.as_slice()
    else {
        return None;
    };
    if k_s != "scheme" || k_m != "m" || k_t != "t" || k_r != "r" || k_v != "v" || k_b != "bits" {
        return None;
    }
    let (alg, seed) = scheme_parts(scheme)?;
    let m = u64::try_from(*m).ok()?;
    let t = u64::try_from(*t).ok()?;
    let r = u64::try_from(*r).ok()?;
    let v = u64::try_from(*v).ok()?;
    let (len, ones) = bits_parts(bits)?;
    if len as u64 != m {
        return None;
    }
    Some((alg, seed, m, t, r, v, ones))
}

/// Strict read of a canonical plain-bitmap state (`scheme, bits`).
fn bitmap_parts(state: &Json) -> Option<(u8, u64, usize, Vec<usize>)> {
    let Json::Obj(fields) = state else {
        return None;
    };
    let [(k_s, scheme), (k_b, bits)] = fields.as_slice() else {
        return None;
    };
    if k_s != "scheme" || k_b != "bits" {
        return None;
    }
    let (alg, seed) = scheme_parts(scheme)?;
    let (len, ones) = bits_parts(bits)?;
    Some((alg, seed, len, ones))
}

/// Encode one per-flow cell state (the [`Json`] produced by
/// `FlowCell::snapshot_state` / estimator `to_json`) into the tagged
/// binary form. Canonical tier wrappers, SMB states, and plain-bitmap
/// states get the compressed tags; anything else is carried as literal
/// JSON text under [`TAG_JSON`], so the encoding is total and
/// [`decode_cell_state`] always rebuilds the exact input value.
///
/// ```
/// use smb_devtools::Json;
/// use smb_sketch::codec::{decode_cell_state, encode_cell_state, TAG_ARRAY};
///
/// // An array-tier cell holding three arrival-ordered hashes.
/// let state = Json::parse(r#"{"tier":"array","hashes":[96,32,64]}"#).unwrap();
/// let bytes = encode_cell_state(&state);
/// assert_eq!(bytes[0], TAG_ARRAY);
/// assert!(bytes.len() < state.to_string().len());
/// // Lossless: the decoder rebuilds the exact JSON, order included.
/// assert_eq!(decode_cell_state(&bytes).unwrap(), state);
/// ```
pub fn encode_cell_state(state: &Json) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    write_cell_state(&mut out, state);
    out
}

/// Append [`encode_cell_state`]'s bytes for `state` to `out`.
fn write_cell_state(out: &mut Vec<u8>, state: &Json) {
    if let Some((tag, hashes)) = tier_parts(state) {
        out.push(tag);
        write_hash_list(out, &hashes);
        return;
    }
    if let Some((alg, seed, m, t, r, v, ones)) = smb_parts(state) {
        out.push(TAG_SMB);
        out.push(alg);
        write_varint(out, seed);
        write_varint(out, m);
        write_varint(out, t);
        write_varint(out, r);
        write_varint(out, v);
        write_packed_bits(out, m as usize, &ones);
        return;
    }
    if let Some((alg, seed, len, ones)) = bitmap_parts(state) {
        out.push(TAG_BITMAP);
        out.push(alg);
        write_varint(out, seed);
        write_varint(out, len as u64);
        write_packed_bits(out, len, &ones);
        return;
    }
    // Escape hatch: literal JSON text. Still smaller than the JSON
    // shard line in most cases (no field-name repetition savings, but
    // no loss either) and guarantees the codec is total.
    let text = state.to_string();
    out.push(TAG_JSON);
    write_varint(out, text.len() as u64);
    out.extend_from_slice(text.as_bytes());
}

/// Encode one live cell into exactly the bytes
/// `encode_cell_state(&cell.snapshot_state()?)` produces, without
/// building the JSON state. Unmaterialized cells write their hash list
/// straight from [`FlowCell::pending_hashes`]; SMB and plain-bitmap
/// estimators write their [`PackedState`] words; any other estimator
/// goes through its JSON snapshot and [`encode_cell_state`]. Returns
/// `None` when a materialized estimator does not support snapshots.
#[cfg(feature = "snapshot")]
pub fn encode_cell<E: CardinalityEstimator>(cell: &FlowCell<E>) -> Option<Vec<u8>> {
    let mut out = Vec::with_capacity(32);
    write_cell(&mut out, cell)?;
    Some(out)
}

/// Append [`encode_cell`]'s bytes for `cell` to `out`; `None` (with
/// nothing appended) when the cell's estimator has no snapshot.
#[cfg(feature = "snapshot")]
fn write_cell<E: CardinalityEstimator>(out: &mut Vec<u8>, cell: &FlowCell<E>) -> Option<()> {
    let tag = match cell {
        FlowCell::Small { .. } => TAG_SMALL,
        FlowCell::Array(_) => TAG_ARRAY,
        FlowCell::Full(est) => {
            if !est
                .packed_state()
                .is_some_and(|state| write_packed_state(out, state))
            {
                write_cell_state(out, &est.snapshot_state()?);
            }
            return Some(());
        }
    };
    out.push(tag);
    write_hash_list(out, cell.pending_hashes().expect("unmaterialized cell"));
    Some(())
}

/// Append the [`TAG_SMB`] / [`TAG_BITMAP`] encoding of a borrowed
/// estimator state, words copied as they lie. Returns `false` with
/// nothing appended when the JSON transcoder would not give the state
/// that tag (an unregistered hash algorithm, a bitmap whose length is
/// not `m`, or stray bits past its length), so the caller's JSON
/// fallback keeps the bytes identical.
#[cfg(feature = "snapshot")]
fn write_packed_state(out: &mut Vec<u8>, state: PackedState<'_>) -> bool {
    let (scheme, bits) = match state {
        PackedState::Smb { m, bits, .. } if bits.len() != m => return false,
        PackedState::Smb { scheme, bits, .. } | PackedState::Bitmap { scheme, bits } => {
            (scheme, bits)
        }
    };
    let Some(alg) = ALGORITHMS
        .iter()
        .position(|&(a, _)| a == scheme.algorithm())
    else {
        return false;
    };
    let tail = bits.len() % 64;
    if tail != 0 && bits.words().last().is_some_and(|&w| w >> tail != 0) {
        return false;
    }
    if let PackedState::Smb { m, t, r, v, .. } = state {
        out.push(TAG_SMB);
        out.push(alg as u8);
        write_varint(out, scheme.seed());
        write_varint(out, m as u64);
        write_varint(out, t as u64);
        write_varint(out, u64::from(r));
        write_varint(out, v as u64);
    } else {
        out.push(TAG_BITMAP);
        out.push(alg as u8);
        write_varint(out, scheme.seed());
        write_varint(out, bits.len() as u64);
    }
    out.reserve(bits.words().len() * 8);
    for word in bits.words() {
        out.extend_from_slice(&word.to_le_bytes());
    }
    true
}

/// One decoded cell state, owned: what a cell's bytes (or its v1 JSON
/// state) say, before any estimator is built from it. The owned twin
/// of [`PackedState`], plus the hash-list tiers and the JSON escape
/// hatch. The codec checks only structure (capacities, distinct
/// hashes, zero padding); whether an SMB state is one Algorithm 1 can
/// reach, and whether it fits an engine's spec, is checked where it is
/// restored.
///
/// [`PackedState`]: smb_core::PackedState
#[derive(Debug, Clone, PartialEq)]
pub enum CellState {
    /// A small-tier cell: at most [`SMALL_CAP`] distinct hashes, in
    /// arrival order ([`TAG_SMALL`]).
    Small(Vec<u64>),
    /// An array-tier cell: at most [`ARRAY_CAP`] distinct hashes, in
    /// arrival order ([`TAG_ARRAY`]).
    Array(Vec<u64>),
    /// A self-morphing bitmap ([`TAG_SMB`]); `m` is `bits.len()`. The
    /// counters are the raw values the bytes carry.
    Smb {
        /// The hash scheme items were recorded under.
        scheme: HashScheme,
        /// Morphing threshold `T`.
        t: u64,
        /// Current round.
        r: u64,
        /// Fresh bits set in the current round.
        v: u64,
        /// The physical bitmap.
        bits: BitVec,
    },
    /// A plain bitmap estimator ([`TAG_BITMAP`]).
    Bitmap {
        /// The hash scheme items were recorded under.
        scheme: HashScheme,
        /// The bitmap.
        bits: BitVec,
    },
    /// Any other estimator state, carried as JSON ([`TAG_JSON`]).
    Json(Json),
}

impl CellState {
    /// Read a JSON cell state (a v1 checkpoint's, or
    /// `FlowCell::snapshot_state`'s) with the strict shape matchers
    /// [`encode_cell_state`] uses: a state gets the typed variant
    /// exactly when the transcoder would give it that tag, and
    /// anything else stays [`CellState::Json`].
    pub fn from_json(state: Json) -> CellState {
        if let Some((tag, hashes)) = tier_parts(&state) {
            return if tag == TAG_SMALL {
                CellState::Small(hashes)
            } else {
                CellState::Array(hashes)
            };
        }
        if let Some((alg, seed, m, t, r, v, ones)) = smb_parts(&state) {
            let mut bits = BitVec::new(m as usize);
            bits.set_all(ones);
            return CellState::Smb {
                scheme: scheme_of(alg, seed),
                t,
                r,
                v,
                bits,
            };
        }
        if let Some((alg, seed, len, ones)) = bitmap_parts(&state) {
            let mut bits = BitVec::new(len);
            bits.set_all(ones);
            return CellState::Bitmap {
                scheme: scheme_of(alg, seed),
                bits,
            };
        }
        CellState::Json(state)
    }

    /// The canonical JSON state this cell stands for — what
    /// `FlowCell::snapshot_state` gives for the cell it describes.
    pub fn into_json(self) -> Json {
        let tier = |name: &str, hashes: Vec<u64>| {
            Json::Obj(vec![
                ("tier".into(), Json::Str(name.into())),
                (
                    "hashes".into(),
                    Json::Arr(hashes.iter().map(|&h| Json::Int(h as i128)).collect()),
                ),
            ])
        };
        match self {
            CellState::Small(hashes) => tier("small", hashes),
            CellState::Array(hashes) => tier("array", hashes),
            CellState::Smb {
                scheme,
                t,
                r,
                v,
                bits,
            } => Json::Obj(vec![
                ("scheme".into(), scheme.to_json()),
                ("m".into(), Json::Int(bits.len() as i128)),
                ("t".into(), Json::Int(t as i128)),
                ("r".into(), Json::Int(r as i128)),
                ("v".into(), Json::Int(v as i128)),
                ("bits".into(), bits_json(&bits)),
            ]),
            CellState::Bitmap { scheme, bits } => Json::Obj(vec![
                ("scheme".into(), scheme.to_json()),
                ("bits".into(), bits_json(&bits)),
            ]),
            CellState::Json(state) => state,
        }
    }
}

/// Read one tagged cell state — the only code that interprets tag
/// bytes.
#[inline]
fn read_cell(r: &mut Reader<'_>) -> Result<CellState, CodecError> {
    match r.byte()? {
        TAG_JSON => {
            let len = r.varint()?;
            let len = usize::try_from(len)
                .map_err(|_| CodecError::new("JSON payload length out of range"))?;
            let bytes = r.take(len)?;
            let text = std::str::from_utf8(bytes)
                .map_err(|_| CodecError::new("JSON payload is not UTF-8"))?;
            let state =
                Json::parse(text).map_err(|e| CodecError::new(format!("embedded JSON: {e}")))?;
            Ok(CellState::Json(state))
        }
        TAG_SMALL => Ok(CellState::Small(read_hash_list(r, SMALL_CAP)?)),
        TAG_ARRAY => Ok(CellState::Array(read_hash_list(r, ARRAY_CAP)?)),
        TAG_SMB => {
            let scheme = read_scheme(r)?;
            let m = r.varint()?;
            let t = r.varint()?;
            let round = r.varint()?;
            let v = r.varint()?;
            let bits = read_packed_bits(r, m)?;
            Ok(CellState::Smb {
                scheme,
                t,
                r: round,
                v,
                bits,
            })
        }
        TAG_BITMAP => {
            let scheme = read_scheme(r)?;
            let len = r.varint()?;
            let bits = read_packed_bits(r, len)?;
            Ok(CellState::Bitmap { scheme, bits })
        }
        other => Err(CodecError::new(format!("unknown cell-state tag {other:#04x}"))),
    }
}

/// Decode one tagged cell state, requiring the input to be exactly one
/// encoded value (trailing bytes are an error). Hostile or truncated
/// input errors, never panics.
#[inline]
pub fn decode_cell(bytes: &[u8]) -> Result<CellState, CodecError> {
    let mut r = Reader::new(bytes);
    let state = read_cell(&mut r)?;
    r.done()?;
    Ok(state)
}

/// [`decode_cell`] as JSON: the inverse of [`encode_cell_state`].
///
/// ```
/// use smb_sketch::codec::decode_cell_state;
///
/// // Truncated and garbage frames must error, not panic.
/// assert!(decode_cell_state(&[]).is_err());
/// assert!(decode_cell_state(&[0xFF]).is_err());
/// assert!(decode_cell_state(&[0x03, 0x00, 0x07]).is_err());
/// ```
pub fn decode_cell_state(bytes: &[u8]) -> Result<Json, CodecError> {
    decode_cell(bytes).map(CellState::into_json)
}

// ---------------------------------------------------------------------
// Flow blocks (checkpoint shards, SNAPSHOT responses)
// ---------------------------------------------------------------------

/// Encode a sorted flow→state table as one self-delimiting block:
/// the [`FLOW_BLOCK_MAGIC`] prefix, a varint flow count, then per flow
/// a varint key delta (first key raw; keys must be strictly
/// ascending, so deltas stay positive) followed by a varint-length-
/// prefixed [`encode_cell_state`] payload. This is both the v2
/// checkpoint shard body and the wire `SNAPSHOT` response payload;
/// the server and checkpoint writer produce the same bytes from live
/// cells through [`FlowBlockBuilder::push_cell`].
///
/// # Errors
/// [`CodecError`] when `flows` is not strictly ascending by key — the
/// delta encoding requires the caller to sort (checkpoint writers and
/// snapshot sweeps already emit sorted tables).
///
/// ```
/// use smb_devtools::Json;
/// use smb_sketch::codec::{decode_flow_block, encode_flow_block};
///
/// let flows = vec![
///     (7u64, Json::parse(r#"{"tier":"small","hashes":[42]}"#).unwrap()),
///     (19u64, Json::parse(r#"{"tier":"small","hashes":[]}"#).unwrap()),
/// ];
/// let block = encode_flow_block(&flows).unwrap();
/// assert_eq!(&block[..4], b"SMB2");
/// assert_eq!(decode_flow_block(&block).unwrap(), flows);
/// ```
pub fn encode_flow_block(flows: &[(u64, Json)]) -> Result<Vec<u8>, CodecError> {
    let mut block = FlowBlockBuilder::default();
    for (flow, state) in flows {
        block.push_state(*flow, state);
    }
    block.finish()
}

/// A flow block assembled from cells encoded one at a time, in any
/// order: every cell's bytes go back to back into one arena, each
/// tagged with its flow key and byte range, and [`FlowBlockBuilder::finish`]
/// frames them. Callers sweeping several tables push every cell and
/// let [`FlowBlockBuilder::finish_sorted`] order them by key.
#[derive(Debug, Default)]
pub struct FlowBlockBuilder {
    /// Every pushed cell's encoding, back to back.
    arena: Vec<u8>,
    /// `(flow, arena range)` per pushed cell, in push order.
    spans: Vec<(u64, Range<usize>)>,
}

impl FlowBlockBuilder {
    /// Add `flow`'s cell as its JSON state ([`encode_cell_state`]).
    pub fn push_state(&mut self, flow: u64, state: &Json) {
        let start = self.arena.len();
        write_cell_state(&mut self.arena, state);
        self.spans.push((flow, start..self.arena.len()));
    }

    /// Add `flow`'s live cell ([`encode_cell`]).
    ///
    /// # Errors
    /// [`CodecError`] when the cell's estimator does not support
    /// snapshots; nothing is added.
    #[cfg(feature = "snapshot")]
    pub fn push_cell<E: CardinalityEstimator>(
        &mut self,
        flow: u64,
        cell: &FlowCell<E>,
    ) -> Result<(), CodecError> {
        let start = self.arena.len();
        write_cell(&mut self.arena, cell).ok_or_else(|| {
            CodecError::new(format!(
                "estimator for flow {flow} does not support snapshots"
            ))
        })?;
        self.spans.push((flow, start..self.arena.len()));
        Ok(())
    }

    /// Frame the pushed cells, in push order, as one flow block (the
    /// format [`encode_flow_block`] documents).
    ///
    /// # Errors
    /// [`CodecError`] when the keys are not strictly ascending.
    pub fn finish(self) -> Result<Vec<u8>, CodecError> {
        Self::finish_merged(std::slice::from_ref(&self))
    }

    /// Sort the pushed cells by flow key, in place — the form
    /// [`FlowBlockBuilder::finish_merged`] takes its parts in.
    pub fn sort(&mut self) {
        self.spans.sort_unstable_by_key(|&(flow, _)| flow);
    }

    /// Sort the pushed cells by flow key, then [`FlowBlockBuilder::finish`].
    ///
    /// # Errors
    /// [`CodecError`] when a flow key was pushed twice.
    pub fn finish_sorted(mut self) -> Result<Vec<u8>, CodecError> {
        self.sort();
        self.finish()
    }

    /// Frame the cells of several builders, each already sorted
    /// ([`FlowBlockBuilder::sort`]), as one flow block: a k-way merge
    /// by flow key. The bytes equal those of a single builder that
    /// every cell was pushed into, finished with
    /// [`FlowBlockBuilder::finish_sorted`]. Builders filled on separate
    /// threads (one per table) meet here.
    ///
    /// # Errors
    /// [`CodecError`] when a part is not sorted or a flow key appears
    /// in two parts.
    pub fn finish_merged(parts: &[FlowBlockBuilder]) -> Result<Vec<u8>, CodecError> {
        let count: usize = parts.iter().map(|p| p.spans.len()).sum();
        let payload: usize = parts.iter().map(|p| p.arena.len()).sum();
        let mut out = Vec::with_capacity(16 + count * 12 + payload);
        out.extend_from_slice(&FLOW_BLOCK_MAGIC);
        write_varint(&mut out, count as u64);
        // Each part's next unread cell. Parts are few (one per table),
        // so a scan finds the smallest head. Parts are read in their
        // own order, so an unsorted part or a repeated key shows up
        // below as a non-ascending key.
        let mut next = vec![0usize; parts.len()];
        let mut prev = 0u64;
        for i in 0..count {
            let (part, (flow, range)) = parts
                .iter()
                .zip(&next)
                .enumerate()
                .filter_map(|(part, (p, &at))| Some((part, p.spans.get(at)?)))
                .min_by_key(|&(_, &(flow, _))| flow)
                .expect("a part has cells left while the count is not reached");
            next[part] += 1;
            let flow = *flow;
            if i == 0 {
                write_varint(&mut out, flow);
            } else {
                let delta = flow
                    .checked_sub(prev)
                    .filter(|&d| d > 0)
                    .ok_or_else(|| {
                        CodecError::new(format!(
                            "flow keys must be strictly ascending ({prev:#x} then {flow:#x})"
                        ))
                    })?;
                write_varint(&mut out, delta);
            }
            prev = flow;
            write_varint(&mut out, range.len() as u64);
            out.extend_from_slice(&parts[part].arena[range.clone()]);
        }
        Ok(out)
    }
}

/// Decode a flow block produced by [`encode_flow_block`] (or
/// [`FlowBlockBuilder`]) into typed cell states, in their encoded
/// (ascending) key order. All counts and lengths are validated
/// against the remaining input before allocation; trailing bytes are
/// an error.
pub fn decode_flow_states(bytes: &[u8]) -> Result<Vec<(u64, CellState)>, CodecError> {
    read_flow_block(bytes, |state| state)
}

/// [`decode_flow_states`] as JSON: every cell through
/// [`CellState::into_json`].
pub fn decode_flow_block(bytes: &[u8]) -> Result<Vec<(u64, Json)>, CodecError> {
    read_flow_block(bytes, CellState::into_json)
}

/// Walk a flow block, handing each decoded cell to `cell`.
fn read_flow_block<T>(
    bytes: &[u8],
    mut cell: impl FnMut(CellState) -> T,
) -> Result<Vec<(u64, T)>, CodecError> {
    let mut r = Reader::new(bytes);
    let magic = r.take(4)?;
    if magic != FLOW_BLOCK_MAGIC {
        return Err(CodecError::new("bad flow block magic"));
    }
    let count = r.varint()?;
    // Each flow costs at least 2 bytes (key varint + length varint),
    // so a count claim beyond half the remaining bytes is a forgery —
    // reject before reserving anything.
    if count > (r.remaining() as u64) / 2 + 1 {
        return Err(CodecError::new(format!(
            "flow count {count} impossible for {} remaining bytes",
            r.remaining()
        )));
    }
    let count = count as usize;
    let mut flows = Vec::with_capacity(count);
    let mut prev = 0u64;
    for i in 0..count {
        let v = r.varint()?;
        let flow = if i == 0 {
            v
        } else {
            if v == 0 {
                return Err(CodecError::new("zero flow-key delta"));
            }
            prev.checked_add(v)
                .ok_or_else(|| CodecError::new("flow key overflows u64"))?
        };
        prev = flow;
        let len = r.varint()?;
        let len = usize::try_from(len)
            .map_err(|_| CodecError::new("cell length out of range"))?;
        flows.push((flow, cell(decode_cell(r.take(len)?)?)));
    }
    r.done()?;
    Ok(flows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trips_boundaries() {
        for v in [
            0u64,
            1,
            127,
            128,
            16383,
            16384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let mut r = Reader::new(&buf);
            assert_eq!(r.varint().unwrap(), v);
            r.done().unwrap();
        }
    }

    #[test]
    fn varint_rejects_overflow_and_truncation() {
        // 10 continuation bytes with a large final group: > u64.
        let too_big = [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F];
        assert!(Reader::new(&too_big).varint().is_err());
        // Endless continuation bits.
        let endless = [0x80u8; 11];
        assert!(Reader::new(&endless).varint().is_err());
        // Truncated mid-varint.
        assert!(Reader::new(&[0x80]).varint().is_err());
    }

    #[test]
    fn zigzag_is_order_preserving_near_zero() {
        assert_eq!(zigzag_encode(0), 0);
        assert_eq!(zigzag_encode(-1), 1);
        assert_eq!(zigzag_encode(1), 2);
        assert_eq!(zigzag_encode(i64::MIN), u64::MAX);
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(zigzag_decode(zigzag_encode(v)), v);
        }
    }

    #[test]
    fn hash_list_preserves_arrival_order() {
        let hashes = [0xDEAD_BEEFu64, 0x0000_0001, u64::MAX, 0x8000_0000_0000_0000];
        let mut buf = Vec::new();
        write_hash_list(&mut buf, &hashes);
        let mut r = Reader::new(&buf);
        assert_eq!(read_hash_list(&mut r, 16).unwrap(), hashes);
        r.done().unwrap();
    }

    #[test]
    fn clustered_hashes_compress() {
        // Sorted, nearby values: 1-2 bytes per delta.
        let hashes: Vec<u64> = (0..16u64).map(|i| 1_000_000 + 17 * i).collect();
        let mut buf = Vec::new();
        write_hash_list(&mut buf, &hashes);
        assert!(buf.len() < 16 * 8 / 2, "got {} bytes", buf.len());
    }

    #[test]
    fn smb_state_round_trips_exactly() {
        let state = Json::parse(concat!(
            r#"{"scheme":{"algorithm":"xxh64","seed":12345},"#,
            r#""m":256,"t":16,"r":2,"v":5,"#,
            r#""bits":{"len":256,"ones":[0,3,64,65,127,128,200,255]}}"#,
        ))
        .unwrap();
        let bytes = encode_cell_state(&state);
        assert_eq!(bytes[0], TAG_SMB);
        assert_eq!(decode_cell_state(&bytes).unwrap(), state);
        // 256-bit bitmap: 32 packed bytes + small header, far below the
        // ~90-byte JSON.
        assert!(bytes.len() < state.to_string().len() / 2);
    }

    #[test]
    fn bitmap_state_round_trips_exactly() {
        let state = Json::parse(concat!(
            r#"{"scheme":{"algorithm":"fnv1a_mixed","seed":7},"#,
            r#""bits":{"len":64,"ones":[1,63]}}"#,
        ))
        .unwrap();
        let bytes = encode_cell_state(&state);
        assert_eq!(bytes[0], TAG_BITMAP);
        assert_eq!(decode_cell_state(&bytes).unwrap(), state);
    }

    #[test]
    fn unknown_states_fall_back_to_json_tag() {
        for text in [
            r#"{"kind":"hll","registers":[1,2,3]}"#,
            r#"{"scheme":{"algorithm":"sha999","seed":1},"bits":{"len":8,"ones":[]}}"#,
            // SMB shape but with unordered ones — not canonical.
            concat!(
                r#"{"scheme":{"algorithm":"xxh64","seed":1},"m":64,"t":4,"#,
                r#""r":0,"v":2,"bits":{"len":64,"ones":[9,3]}}"#,
            ),
            "null",
            "[1,2]",
        ] {
            let state = Json::parse(text).unwrap();
            let bytes = encode_cell_state(&state);
            assert_eq!(bytes[0], TAG_JSON, "state {text}");
            assert_eq!(decode_cell_state(&bytes).unwrap(), state, "state {text}");
        }
    }

    #[test]
    fn tier_states_round_trip() {
        for text in [
            r#"{"tier":"small","hashes":[]}"#,
            r#"{"tier":"small","hashes":[18446744073709551615]}"#,
            r#"{"tier":"array","hashes":[5,1,9,3]}"#,
        ] {
            let state = Json::parse(text).unwrap();
            let bytes = encode_cell_state(&state);
            assert!(bytes[0] == TAG_SMALL || bytes[0] == TAG_ARRAY);
            assert_eq!(decode_cell_state(&bytes).unwrap(), state, "state {text}");
        }
    }

    #[test]
    fn overfull_tier_wrapper_uses_json_fallback() {
        // 2 hashes in a small tier violates SMALL_CAP — the strict
        // reader refuses the compressed tag, but the state still
        // round-trips through the JSON escape hatch.
        let state = Json::parse(r#"{"tier":"small","hashes":[1,2]}"#).unwrap();
        let bytes = encode_cell_state(&state);
        assert_eq!(bytes[0], TAG_JSON);
        assert_eq!(decode_cell_state(&bytes).unwrap(), state);
    }

    #[test]
    fn hostile_inputs_error_not_panic() {
        let cases: Vec<Vec<u8>> = vec![
            vec![],                       // empty
            vec![0xEE],                   // unknown tag
            vec![TAG_SMALL, 0x05],        // count over capacity
            vec![TAG_ARRAY, 0x02, 0x01],  // truncated hash list
            vec![TAG_ARRAY, 0x02, 0x01, 0x00], // duplicate (1 then Δ0)
            vec![TAG_SMB, 0x09],          // unknown algorithm code
            vec![TAG_SMB, 0x00, 0x01, 0x80], // truncated varint
            // SMB claiming a 2^40-bit bitmap with no payload: the
            // byte-count check fires before any allocation.
            {
                let mut b = vec![TAG_SMB, 0x00];
                write_varint(&mut b, 1); // seed
                write_varint(&mut b, 1u64 << 40); // m
                write_varint(&mut b, 4); // t
                write_varint(&mut b, 0); // r
                write_varint(&mut b, 0); // v
                b
            },
            vec![TAG_JSON, 0x02, b'{', b'!'], // garbage JSON text
            vec![TAG_JSON, 0x7F],             // JSON length > remaining
            // Padding bits set beyond the bitmap length.
            {
                let mut b = vec![TAG_BITMAP, 0x00];
                write_varint(&mut b, 0); // seed
                write_varint(&mut b, 4); // len 4 → 1 word
                b.extend_from_slice(&u64::MAX.to_le_bytes());
                b
            },
        ];
        for bytes in cases {
            assert!(
                decode_cell_state(&bytes).is_err(),
                "input {bytes:02x?} must error"
            );
        }
        // Trailing garbage after a valid value.
        let mut ok = encode_cell_state(&Json::parse(r#"{"tier":"small","hashes":[]}"#).unwrap());
        ok.push(0x00);
        assert!(decode_cell_state(&ok).is_err());
    }

    #[test]
    fn flow_block_round_trips_and_validates() {
        let flows: Vec<(u64, Json)> = vec![
            (3, Json::parse(r#"{"tier":"small","hashes":[77]}"#).unwrap()),
            (4, Json::parse(r#"{"tier":"array","hashes":[9,2]}"#).unwrap()),
            (1000, Json::parse("null").unwrap()),
        ];
        let block = encode_flow_block(&flows).unwrap();
        assert_eq!(decode_flow_block(&block).unwrap(), flows);

        // Unsorted input is a caller bug, reported not mangled.
        let unsorted = vec![(5u64, Json::Null), (2u64, Json::Null)];
        assert!(encode_flow_block(&unsorted).is_err());
        let dup = vec![(5u64, Json::Null), (5u64, Json::Null)];
        assert!(encode_flow_block(&dup).is_err());

        // Hostile blocks error.
        assert!(decode_flow_block(b"SMB1").is_err());
        assert!(decode_flow_block(b"SMB2").is_err());
        let mut forged = FLOW_BLOCK_MAGIC.to_vec();
        write_varint(&mut forged, u64::MAX); // absurd count, no payload
        assert!(decode_flow_block(&forged).is_err());
        let mut truncated = block.clone();
        truncated.truncate(block.len() - 1);
        assert!(decode_flow_block(&truncated).is_err());
        let mut trailing = block;
        trailing.push(0);
        assert!(decode_flow_block(&trailing).is_err());
    }

    #[test]
    fn empty_flow_block_is_valid() {
        let block = encode_flow_block(&[]).unwrap();
        assert_eq!(block.len(), 5);
        assert_eq!(decode_flow_block(&block).unwrap(), Vec::new());
    }
}
