//! # crisp-words
//!
//! The value codec of the CRISP reproduction. A simulation's result —
//! `SimResult` and its sections: memory and cache statistics, per-PC
//! tables, the UPC timeline, the flight recorder, the stall table and the
//! telemetry log — encodes as a flat `Vec<u64>` through the [`Snapshot`]
//! trait. Those words are the byte-identity witness that output digests
//! and the engine oracle hash and compare.
//!
//! The codec only encodes: nothing decodes the words, so the layout is
//! pinned by what the writers emit (length and count words included),
//! not by a reader.
//!
//! Most values name their fields once with [`fields!`]; enums with a
//! stable numeric code use [`codes!`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Word-vector serialisation of a structure's complete state. The trait
/// is object-safe.
pub trait Snapshot {
    /// Appends the state to `out`.
    fn put(&self, out: &mut Vec<u64>);

    /// The state as a word vector.
    fn snapshot_words(&self) -> Vec<u64> {
        let mut out = Vec::new();
        self.put(&mut out);
        out
    }
}

macro_rules! unsigned {
    ($($t:ty),*) => {$(
        impl Snapshot for $t {
            fn put(&self, out: &mut Vec<u64>) {
                out.push(*self as u64);
            }
        }
    )*};
}
unsigned!(u8, u32, usize);

impl Snapshot for u64 {
    fn put(&self, out: &mut Vec<u64>) {
        out.push(*self);
    }
}

/// A presence flag, then the value — or, when absent, the default value's
/// words, so the layout does not depend on presence.
impl<T: Snapshot + Default> Snapshot for Option<T> {
    fn put(&self, out: &mut Vec<u64>) {
        out.push(u64::from(self.is_some()));
        match self {
            Some(v) => v.put(out),
            None => T::default().put(out),
        }
    }
}

/// Elements in order; no length word.
impl<T: Snapshot> Snapshot for [T] {
    fn put(&self, out: &mut Vec<u64>) {
        self.iter().for_each(|v| v.put(out));
    }
}

impl<T: Snapshot, const N: usize> Snapshot for [T; N] {
    fn put(&self, out: &mut Vec<u64>) {
        self.as_slice().put(out);
    }
}

/// Variable-length sequences (`Vec`, `VecDeque`): a count, then each item.
pub mod list {
    use super::Snapshot;

    /// Appends the count and every item.
    pub fn put<'a, C, T>(items: &'a C, out: &mut Vec<u64>)
    where
        &'a C: IntoIterator<Item = &'a T, IntoIter: ExactSizeIterator>,
        T: Snapshot + 'a,
    {
        let items = items.into_iter();
        out.push(items.len() as u64);
        items.for_each(|v| v.put(out));
    }
}

/// Maps (`HashMap`, `BTreeMap`): a count, then `(key, value)` pairs in
/// ascending key order, so equal maps encode identically whatever their
/// iteration order.
pub mod map {
    use super::Snapshot;

    /// Appends the count and the pairs, sorted by key.
    pub fn put<'a, C, K, V>(map: &'a C, out: &mut Vec<u64>)
    where
        &'a C: IntoIterator<Item = (&'a K, &'a V)>,
        K: Snapshot + Ord + 'a,
        V: Snapshot + 'a,
    {
        let mut pairs: Vec<(&K, &V)> = map.into_iter().collect();
        pairs.sort_unstable_by(|a, b| a.0.cmp(b.0));
        out.push(pairs.len() as u64);
        for (k, v) in pairs {
            k.put(out);
            v.put(out);
        }
    }
}

/// A nested structure behind its length: the word count, then the
/// structure's words.
pub mod section {
    use super::Snapshot;

    /// Appends the length-prefixed words of `v`.
    pub fn put<T: Snapshot + ?Sized>(v: &T, out: &mut Vec<u64>) {
        let at = out.len();
        out.push(0);
        v.put(out);
        out[at] = (out.len() - at - 1) as u64;
    }
}

/// Implements [`Snapshot`] for a struct by listing its fields once, in
/// layout order.
///
/// Each field is written with its own `Snapshot` impl, or with a helper
/// module named after `as`: [`list`], [`map`] or [`section`]. Invoke it
/// with braces, as an item, so formatters leave the list on as few lines
/// as it needs.
///
/// ```
/// use crisp_words::{fields, Snapshot};
///
/// struct Queue {
///     capacity: usize,
///     items: std::collections::VecDeque<u32>,
/// }
/// fields! { Queue { capacity, items as list } }
///
/// let q = Queue { capacity: 4, items: [5, 6].into() };
/// assert_eq!(q.snapshot_words(), [4, 2, 5, 6]);
/// ```
#[macro_export]
macro_rules! fields {
    ($t:ty { $($f:ident $(as $via:ident)?),* $(,)? }) => {
        impl $crate::Snapshot for $t {
            fn put(&self, out: &mut Vec<u64>) {
                $($crate::fields!(@put self.$f, out $(, $via)?);)*
            }
        }
    };
    (@put $v:expr, $out:ident) => { $crate::Snapshot::put(&$v, $out) };
    (@put $v:expr, $out:ident, $via:ident) => { $crate::$via::put(&$v, $out) };
}

/// Gives a fieldless enum stable numeric codes: a `code` method and a
/// one-word [`Snapshot`] impl. The first variant is the enum's `Default`
/// (the payload of an absent `Option`).
///
/// ```
/// use crisp_words::{codes, Snapshot};
///
/// #[derive(Clone, Copy, Debug, PartialEq)]
/// enum Level { L1, Llc, Dram }
/// codes! { Level { L1 = 0, Llc = 1, Dram = 2 } }
///
/// assert_eq!(Level::Dram.code(), 2);
/// assert_eq!(Level::Llc.snapshot_words(), [1]);
/// assert_eq!(Level::default(), Level::L1);
/// ```
#[macro_export]
macro_rules! codes {
    ($t:ident { $first:ident = $c0:literal $(, $v:ident = $c:literal)* $(,)? }) => {
        impl $t {
            /// Stable numeric code used by the value codec.
            pub fn code(self) -> u64 {
                match self {
                    $t::$first => $c0,
                    $($t::$v => $c,)*
                }
            }
        }

        impl Default for $t {
            fn default() -> $t {
                $t::$first
            }
        }

        impl $crate::Snapshot for $t {
            fn put(&self, out: &mut Vec<u64>) {
                out.push(self.code());
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, HashMap, VecDeque};

    #[test]
    fn absent_options_still_write_their_payload() {
        assert_eq!(Some(9u64).snapshot_words(), [1, 9]);
        assert_eq!(None::<u32>.snapshot_words(), [0, 0]);
    }

    #[test]
    fn arrays_and_slices_have_no_length_word() {
        assert_eq!([1u32, 2].snapshot_words(), [1, 2]);
        assert_eq!([5u8, 6][..].snapshot_words(), [5, 6]);
    }

    #[test]
    fn lists_write_their_count() {
        let q: VecDeque<u8> = [1, 2, 3].into();
        let mut w = Vec::new();
        list::put(&q, &mut w);
        assert_eq!(w, [3, 1, 2, 3]);
    }

    #[test]
    fn maps_write_their_count_then_sorted_keys() {
        let m: HashMap<u64, u32> = [(9, 1), (2, 7)].into();
        let mut w = Vec::new();
        map::put(&m, &mut w);
        assert_eq!(w, [2, 2, 7, 9, 1]);
        let mut b = Vec::new();
        map::put(&m.into_iter().collect::<BTreeMap<_, _>>(), &mut b);
        assert_eq!(b, w);
    }

    #[test]
    fn sections_bound_their_contents() {
        let mut w = vec![1];
        section::put(&[7u64, 8], &mut w);
        assert_eq!(w, [1, 2, 7, 8]);
    }

    #[test]
    fn the_trait_is_object_safe() {
        let v: &dyn Snapshot = &[1u64, 2];
        assert_eq!(v.snapshot_words(), [1, 2]);
    }
}
