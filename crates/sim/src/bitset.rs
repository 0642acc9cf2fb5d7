//! The fixed-capacity bit vector that the wakeup logic's ready and PRIO
//! vectors (paper Figure 6), keyed by ROB position, are made of.

/// A fixed-capacity bitset over window positions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    capacity: usize,
}

impl BitSet {
    /// Creates an empty bitset over `capacity` slots.
    pub fn new(capacity: usize) -> BitSet {
        BitSet {
            words: vec![0; capacity.div_ceil(64)],
            capacity,
        }
    }

    /// The number of addressable slots.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Sets bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= capacity`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        assert!(i < self.capacity);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Clears bit `i`.
    #[inline]
    pub fn clear(&mut self, i: usize) {
        assert!(i < self.capacity);
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    /// Tests bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        i < self.capacity && self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// The backing words: bit `i` is bit `i % 64` of word `i / 64`, and
    /// bits at or beyond the capacity are clear.
    #[inline]
    pub(crate) fn as_words(&self) -> &[u64] {
        &self.words
    }

    /// Whether any bit is set.
    pub fn any(&self) -> bool {
        self.words.iter().any(|&w| w != 0)
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterates over set bit indices in ascending order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(wi * 64 + b)
                }
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitset_basic_ops() {
        let mut b = BitSet::new(130);
        assert!(!b.any());
        b.set(0);
        b.set(64);
        b.set(129);
        assert_eq!(b.count(), 3);
        assert!(b.get(64));
        assert!(!b.get(63));
        b.clear(64);
        assert!(!b.get(64));
        let ones: Vec<usize> = b.iter_ones().collect();
        assert_eq!(ones, vec![0, 129]);
    }
}
