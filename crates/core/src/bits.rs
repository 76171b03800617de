//! Packed bit-array substrate.
//!
//! A [`BitVec`] is a fixed-length array of bits stored in `u64` words.
//! It is the physical storage behind [`crate::Bitmap`], [`crate::Smb`]
//! and the MRB baseline. The length is fixed at construction — the
//! "morphing" of the self-morphing bitmap is purely logical and never
//! reallocates.

/// A fixed-length packed bit array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

impl BitVec {
    /// A bit vector of `len` zero bits.
    pub fn new(len: usize) -> Self {
        BitVec {
            words: vec![0u64; len.div_ceil(64)],
            len,
        }
    }

    /// A bit vector of `len` bits over packed `words` (the layout
    /// [`BitVec::words`] describes). `None` unless there are exactly
    /// `ceil(len/64)` words and every bit at or above `len` is zero.
    pub fn from_words(len: usize, words: Vec<u64>) -> Option<Self> {
        let tail = len % 64;
        let clean = tail == 0 || words.last().is_none_or(|&w| w >> tail == 0);
        (words.len() == len.div_ceil(64) && clean).then_some(BitVec { words, len })
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the vector has zero bits of capacity.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Read bit `idx`.
    ///
    /// # Panics
    /// Panics if `idx >= len` (in debug and release builds — the word
    /// index is bounds-checked by the underlying `Vec`).
    #[inline]
    pub fn get(&self, idx: usize) -> bool {
        debug_assert!(idx < self.len);
        (self.words[idx / 64] >> (idx % 64)) & 1 == 1
    }

    /// Set bit `idx` to one. Returns `true` if the bit was previously
    /// zero (i.e. this call changed it) — the "fresh bit" signal that
    /// drives SMB's round counter.
    #[inline]
    pub fn set(&mut self, idx: usize) -> bool {
        debug_assert!(idx < self.len);
        let word = &mut self.words[idx / 64];
        let mask = 1u64 << (idx % 64);
        let fresh = *word & mask == 0;
        *word |= mask;
        fresh
    }

    /// Clear bit `idx` to zero. Returns `true` if the bit was
    /// previously one.
    #[inline]
    pub fn clear_bit(&mut self, idx: usize) -> bool {
        debug_assert!(idx < self.len);
        let word = &mut self.words[idx / 64];
        let mask = 1u64 << (idx % 64);
        let was_set = *word & mask != 0;
        *word &= !mask;
        was_set
    }

    /// Reset every bit to zero.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Population count: the number of one bits (the paper's `U`).
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of zero bits.
    pub fn count_zeros(&self) -> usize {
        self.len - self.count_ones()
    }

    /// Set every index yielded by `idxs`, returning how many bits were
    /// fresh (previously zero). The batched counterpart of
    /// [`BitVec::set`] for callers that already know no side effect
    /// hangs off an individual fresh bit: the loop is branchless —
    /// freshness folds into the count as an arithmetic carry instead of
    /// a conditional — and each set is a single word OR.
    pub fn set_all(&mut self, idxs: impl IntoIterator<Item = usize>) -> usize {
        let mut fresh = 0usize;
        for idx in idxs {
            debug_assert!(idx < self.len);
            let word = &mut self.words[idx / 64];
            let mask = 1u64 << (idx % 64);
            fresh += usize::from(*word & mask == 0);
            *word |= mask;
        }
        fresh
    }

    /// Bitwise OR with another vector of the same length (bitmap
    /// union). Returns the number of bits newly set by the union.
    ///
    /// # Panics
    /// Panics if lengths differ.
    pub fn union_with(&mut self, other: &BitVec) -> usize {
        assert_eq!(self.len, other.len, "BitVec union requires equal lengths");
        let mut newly = 0usize;
        for (w, o) in self.words.iter_mut().zip(other.words.iter()) {
            let before = w.count_ones();
            *w |= o;
            newly += (w.count_ones() - before) as usize;
        }
        newly
    }

    /// Iterate over the indices of one bits, ascending.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let bit = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(wi * 64 + bit)
                }
            })
        })
    }

    /// The packed storage words: bit `i` lives in word `i / 64` at bit
    /// position `i % 64`, and bits at or above [`BitVec::len`] in the
    /// last word are zero.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Heap + inline memory consumed by the bit storage, in bits.
    /// (Used by the experiment harness to report memory parity.)
    pub fn storage_bits(&self) -> usize {
        self.words.len() * 64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_all_zero() {
        let b = BitVec::new(130);
        assert_eq!(b.len(), 130);
        assert_eq!(b.count_ones(), 0);
        assert_eq!(b.count_zeros(), 130);
        for i in 0..130 {
            assert!(!b.get(i));
        }
    }

    #[test]
    fn set_reports_freshness() {
        let mut b = BitVec::new(100);
        assert!(b.set(63));
        assert!(!b.set(63), "second set of same bit is not fresh");
        assert!(b.set(64), "word-boundary neighbour is independent");
        assert_eq!(b.count_ones(), 2);
    }

    #[test]
    fn set_all_counts_fresh_like_sequential_set() {
        let idxs = [0usize, 63, 64, 0, 65, 63, 129, 2];
        let mut batched = BitVec::new(130);
        let mut sequential = BitVec::new(130);
        let fresh_batched = batched.set_all(idxs.iter().copied());
        let fresh_sequential: usize = idxs
            .iter()
            .map(|&i| usize::from(sequential.set(i)))
            .sum();
        assert_eq!(fresh_batched, fresh_sequential);
        assert_eq!(fresh_batched, 6, "two duplicates in the batch");
        assert_eq!(batched, sequential);
        // A second pass sets nothing new.
        assert_eq!(batched.set_all(idxs.iter().copied()), 0);
    }

    #[test]
    fn clear_bit_roundtrip() {
        let mut b = BitVec::new(10);
        b.set(3);
        assert!(b.clear_bit(3));
        assert!(!b.clear_bit(3));
        assert!(!b.get(3));
    }

    #[test]
    fn clear_resets_everything() {
        let mut b = BitVec::new(200);
        for i in (0..200).step_by(3) {
            b.set(i);
        }
        b.clear();
        assert_eq!(b.count_ones(), 0);
    }

    #[test]
    fn union_counts_new_bits() {
        let mut a = BitVec::new(128);
        let mut b = BitVec::new(128);
        a.set(1);
        a.set(70);
        b.set(70);
        b.set(100);
        let newly = a.union_with(&b);
        assert_eq!(newly, 1); // only bit 100 was new to `a`
        assert_eq!(a.count_ones(), 3);
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn union_length_mismatch_panics() {
        let mut a = BitVec::new(10);
        let b = BitVec::new(11);
        a.union_with(&b);
    }

    #[test]
    fn iter_ones_ascending() {
        let mut b = BitVec::new(300);
        let idxs = [0usize, 1, 63, 64, 65, 127, 128, 255, 299];
        for &i in &idxs {
            b.set(i);
        }
        let got: Vec<usize> = b.iter_ones().collect();
        assert_eq!(got, idxs);
    }

    #[test]
    fn non_multiple_of_64_lengths() {
        for len in [1usize, 5, 63, 64, 65, 1000] {
            let mut b = BitVec::new(len);
            b.set(len - 1);
            assert!(b.get(len - 1));
            assert_eq!(b.count_ones(), 1);
        }
    }

    #[test]
    fn from_words_checks_word_count_and_padding() {
        let mut b = BitVec::new(70);
        b.set(0);
        b.set(69);
        let back = BitVec::from_words(70, b.words().to_vec()).expect("valid words");
        assert_eq!(back, b);
        assert!(BitVec::from_words(70, vec![1]).is_none(), "one word short");
        assert!(
            BitVec::from_words(70, vec![0, 0, 0]).is_none(),
            "one word over"
        );
        assert!(
            BitVec::from_words(70, vec![0, 1 << 6]).is_none(),
            "padding bit 70 set"
        );
        assert_eq!(BitVec::from_words(0, Vec::new()), Some(BitVec::new(0)));
        assert_eq!(
            BitVec::from_words(128, vec![u64::MAX; 2])
                .unwrap()
                .count_ones(),
            128
        );
    }

    #[test]
    fn storage_is_word_rounded() {
        assert_eq!(BitVec::new(1).storage_bits(), 64);
        assert_eq!(BitVec::new(64).storage_bits(), 64);
        assert_eq!(BitVec::new(65).storage_bits(), 128);
    }
}

mod snapshot_impl {
    use super::BitVec;
    use smb_devtools::{Json, JsonError, Snapshot};

    impl Snapshot for BitVec {
        fn to_json(&self) -> Json {
            Json::Obj(vec![
                ("len".into(), Json::Int(self.len() as i128)),
                (
                    "ones".into(),
                    Json::Arr(self.iter_ones().map(|i| Json::Int(i as i128)).collect()),
                ),
            ])
        }

        fn from_json(v: &Json) -> Result<Self, JsonError> {
            let len = v.field("len")?.as_usize()?;
            let mut bits = BitVec::new(len);
            for item in v.field("ones")?.as_arr()? {
                let idx = item.as_usize()?;
                if idx >= len {
                    return Err(JsonError::new(format!(
                        "bit index {idx} out of range for len {len}"
                    )));
                }
                bits.set(idx);
            }
            Ok(bits)
        }
    }
}
