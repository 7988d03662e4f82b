//! Delegate visited bitmasks (§IV-A, §V-A).
//!
//! "The visited status of delegates are maintained by bitmasks, with each
//! delegate only occupying 1 bit. This is an effective way to store and
//! communicate the status of high out-degree vertices." The masks are what
//! the two-phase global reduction moves: `d/8` bytes per message.

/// A bitmask over the `d` delegates.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DelegateMask {
    words: Vec<u64>,
    num_bits: u32,
}

impl DelegateMask {
    /// An all-zero mask over `num_bits` delegates.
    pub fn new(num_bits: u32) -> Self {
        Self { words: vec![0u64; (num_bits as usize).div_ceil(64)], num_bits }
    }

    /// Number of delegates covered.
    pub fn num_bits(&self) -> u32 {
        self.num_bits
    }

    /// Size in bytes when communicated — the `d/8` of the paper's volume
    /// analysis (rounded up to whole words, as an implementation would).
    pub fn byte_size(&self) -> u64 {
        (self.words.len() * 8) as u64
    }

    /// The backing words (for reduction via `gcbfs_cluster::collectives`).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Number of backing words (`ceil(num_bits / 64)`).
    #[inline]
    pub fn num_words(&self) -> usize {
        self.words.len()
    }

    /// Word `wi` of the backing store.
    #[inline]
    pub fn word(&self, wi: usize) -> u64 {
        self.words[wi]
    }

    /// Iterates `(word_index, self & !other)` over the non-zero result
    /// words: the unvisited-candidate view of the bottom-up kernels.
    pub fn andnot_words<'a>(&'a self, other: &'a Self) -> impl Iterator<Item = (usize, u64)> + 'a {
        debug_assert_eq!(self.num_bits, other.num_bits);
        self.words.iter().zip(&other.words).enumerate().filter_map(|(wi, (&a, &b))| {
            let w = a & !b;
            (w != 0).then_some((wi, w))
        })
    }

    /// Population count of `self & !other` — one `popcount` per word
    /// instead of a per-bit probe loop.
    pub fn andnot_count(&self, other: &Self) -> u64 {
        debug_assert_eq!(self.num_bits, other.num_bits);
        self.words.iter().zip(&other.words).map(|(&a, &b)| (a & !b).count_ones() as u64).sum()
    }

    /// Iterates the bit indices set in `word` (word index `wi`), lowest
    /// first — the trailing-zeros scan all word-parallel kernels share.
    pub fn word_bits(wi: usize, mut word: u64) -> impl Iterator<Item = u32> {
        std::iter::from_fn(move || {
            if word == 0 {
                None
            } else {
                let bit = word.trailing_zeros();
                word &= word - 1;
                Some(wi as u32 * 64 + bit)
            }
        })
    }

    /// Wraps an already-populated word vector (consuming a reduced mask).
    ///
    /// # Panics
    /// Panics if `words` is not exactly the width `num_bits` requires.
    pub fn from_words(num_bits: u32, words: Vec<u64>) -> Self {
        assert_eq!(
            words.len(),
            (num_bits as usize).div_ceil(64),
            "word count must match the mask width"
        );
        DelegateMask { num_bits, words }
    }

    /// Tests bit `i`.
    #[inline]
    pub fn get(&self, i: u32) -> bool {
        debug_assert!(i < self.num_bits);
        self.words[(i / 64) as usize] >> (i % 64) & 1 == 1
    }

    /// Sets bit `i`; returns whether it was newly set.
    #[inline]
    pub fn set(&mut self, i: u32) -> bool {
        debug_assert!(i < self.num_bits);
        let word = &mut self.words[(i / 64) as usize];
        let bit = 1u64 << (i % 64);
        let newly = *word & bit == 0;
        *word |= bit;
        newly
    }

    /// Overwrites `self` with `other`'s contents without reallocating —
    /// the hot-path alternative to `clone()` when a mask buffer is reused
    /// across iterations.
    pub fn copy_from(&mut self, other: &Self) {
        debug_assert_eq!(self.num_bits, other.num_bits);
        self.words.copy_from_slice(&other.words);
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// True if no bit is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Iterates over the indices of bits set in `self` but not in `prev` —
    /// the *newly visited* delegates after a reduction.
    pub fn new_bits<'a>(&'a self, prev: &'a Self) -> impl Iterator<Item = u32> + 'a {
        self.andnot_words(prev).flat_map(|(wi, diff)| Self::word_bits(wi, diff))
    }

    /// True if `self` differs from `prev` (an update worth reducing).
    pub fn differs_from(&self, prev: &Self) -> bool {
        self.words != prev.words
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip() {
        let mut m = DelegateMask::new(130);
        assert!(!m.get(0));
        assert!(m.set(0));
        assert!(!m.set(0), "second set reports not-new");
        assert!(m.set(64));
        assert!(m.set(129));
        assert!(m.get(0) && m.get(64) && m.get(129));
        assert!(!m.get(1));
        assert_eq!(m.count_ones(), 3);
    }

    #[test]
    fn byte_size_rounds_to_words() {
        assert_eq!(DelegateMask::new(1).byte_size(), 8);
        assert_eq!(DelegateMask::new(64).byte_size(), 8);
        assert_eq!(DelegateMask::new(65).byte_size(), 16);
        assert_eq!(DelegateMask::new(0).byte_size(), 0);
    }

    #[test]
    fn new_bits_finds_exactly_the_delta() {
        let mut prev = DelegateMask::new(200);
        prev.set(5);
        prev.set(100);
        let mut cur = prev.clone();
        cur.set(6);
        cur.set(199);
        let new: Vec<u32> = cur.new_bits(&prev).collect();
        assert_eq!(new, vec![6, 199]);
        assert!(cur.differs_from(&prev));
        assert!(!prev.differs_from(&prev.clone()));
    }

    #[test]
    fn empty_and_zero_width() {
        let m = DelegateMask::new(0);
        assert!(m.is_empty());
        assert_eq!(m.count_ones(), 0);
        let none: Vec<u32> = m.new_bits(&DelegateMask::new(0)).collect();
        assert!(none.is_empty());
    }

    #[test]
    fn from_words_wraps_the_words_as_set_bits() {
        let direct = DelegateMask::from_words(100, vec![0b1011u64, 1 << 35]);
        let mut staged = DelegateMask::new(100);
        for i in [0, 1, 3, 99] {
            staged.set(i);
        }
        assert_eq!(direct, staged);
        assert_eq!(direct.count_ones(), 4);
    }

    #[test]
    #[should_panic(expected = "width")]
    fn from_words_rejects_wrong_width() {
        DelegateMask::from_words(100, vec![0u64]);
    }

    #[test]
    fn word_level_views_agree_with_per_bit_probes() {
        let mut a = DelegateMask::new(300);
        let mut b = DelegateMask::new(300);
        for i in [0u32, 1, 63, 64, 65, 128, 200, 299] {
            a.set(i);
        }
        for i in [1u32, 64, 200, 250] {
            b.set(i);
        }
        // andnot_count equals the brute-force per-bit count.
        let brute = (0..300).filter(|&i| a.get(i) && !b.get(i)).count() as u64;
        assert_eq!(a.andnot_count(&b), brute);
        // andnot_words + word_bits enumerate exactly those bits in order.
        let via_words: Vec<u32> =
            a.andnot_words(&b).flat_map(|(wi, w)| DelegateMask::word_bits(wi, w)).collect();
        let expected: Vec<u32> = (0..300).filter(|&i| a.get(i) && !b.get(i)).collect();
        assert_eq!(via_words, expected);
        assert_eq!(a.num_words(), 5);
        assert_eq!(a.word(0) & 1, 1);
    }

    #[test]
    fn word_bits_enumerates_lowest_first() {
        let bits: Vec<u32> = DelegateMask::word_bits(2, 0b1001_0001).collect();
        assert_eq!(bits, vec![128, 132, 135]);
        assert_eq!(DelegateMask::word_bits(0, 0).count(), 0);
    }
}
