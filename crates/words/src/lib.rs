//! # crisp-words
//!
//! The value codec of the CRISP reproduction. A simulation's result —
//! `SimResult` and its sections: memory and cache statistics, per-PC
//! tables, the UPC timeline, the flight recorder, the stall table and the
//! telemetry log — encodes as a flat `Vec<u64>` through the [`Snapshot`]
//! trait and decodes, in place, into an identically configured value.
//! Those words are the byte-identity witness that output digests and the
//! engine oracle compare.
//!
//! Where the words carry a configuration value (a capacity), decoding
//! compares it with the live value and rejects a mismatch. Every read is
//! bounds-checked and every count is bounded by the words remaining
//! before anything is allocated, so malformed input is an `Err`, never a
//! panic.
//!
//! Most values name their fields once with [`fields!`]; enums with a
//! stable numeric code use [`codes!`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Debug;

/// A bounds-checked cursor over snapshot words.
#[derive(Debug)]
pub struct Reader<'a> {
    words: &'a [u64],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the first word.
    pub fn new(words: &'a [u64]) -> Reader<'a> {
        Reader { words, pos: 0 }
    }

    /// The next word.
    /// Fails when the input is exhausted.
    pub fn u64(&mut self) -> Result<u64, String> {
        let w = *self
            .words
            .get(self.pos)
            .ok_or_else(|| format!("truncated at word {}", self.pos))?;
        self.pos += 1;
        Ok(w)
    }

    /// A fresh value of a type whose state is self-contained, read from
    /// its default.
    /// As the type's [`Snapshot::take`].
    pub fn read<T: Snapshot + Default>(&mut self) -> Result<T, String> {
        let mut v = T::default();
        v.take(self)?;
        Ok(v)
    }

    /// A length that prefixes per-item payloads. Bounding it by the words
    /// remaining rejects a forged length before anything is allocated.
    /// Fails when the count exceeds the remaining input.
    pub fn count(&mut self) -> Result<usize, String> {
        let n = self.u64()?;
        let left = self.words.len() - self.pos;
        usize::try_from(n)
            .ok()
            .filter(|&n| n <= left)
            .ok_or_else(|| format!("count {n} exceeds the {left} words remaining"))
    }

    /// A length-prefixed section, as a reader of its own.
    /// Fails when the section overruns the input.
    pub fn section(&mut self) -> Result<Reader<'a>, String> {
        let n = self.count()?;
        let words = &self.words[self.pos..self.pos + n];
        self.pos += n;
        Ok(Reader::new(words))
    }

    /// Requires the whole input to have been read.
    /// Fails on trailing words.
    pub fn finish(self) -> Result<(), String> {
        match self.words.len() - self.pos {
            0 => Ok(()),
            n => Err(format!("{n} trailing words")),
        }
    }
}

/// Word-vector serialisation of a structure's complete mutable state.
///
/// `take` reads what `put` wrote back into an identically configured
/// instance, in place: `restore_words(snapshot_words())` is an exact
/// state transfer, after which a second `snapshot_words` is
/// byte-identical and all future behaviour matches the original. On error
/// the target's state is unspecified; callers restore into fresh
/// instances and discard them on failure. The trait is object-safe.
pub trait Snapshot {
    /// Appends the state to `out`.
    fn put(&self, out: &mut Vec<u64>);

    /// Reads the state `put` wrote, validating it against this instance's
    /// configuration.
    /// Rejects malformed input and state from a differently configured
    /// instance.
    fn take(&mut self, r: &mut Reader<'_>) -> Result<(), String>;

    /// The state as a word vector.
    fn snapshot_words(&self) -> Vec<u64> {
        let mut out = Vec::new();
        self.put(&mut out);
        out
    }

    /// Restores state captured by [`Snapshot::snapshot_words`], requiring
    /// every word to be consumed.
    /// As [`Snapshot::take`], plus trailing words.
    fn restore_words(&mut self, words: &[u64]) -> Result<(), String> {
        let mut r = Reader::new(words);
        self.take(&mut r)?;
        r.finish()
    }
}

macro_rules! unsigned {
    ($($t:ty),*) => {$(
        impl Snapshot for $t {
            fn put(&self, out: &mut Vec<u64>) {
                out.push(*self as u64);
            }
            fn take(&mut self, r: &mut Reader<'_>) -> Result<(), String> {
                let w = r.u64()?;
                *self = <$t>::try_from(w)
                    .map_err(|_| format!("{w} overflows {}", stringify!($t)))?;
                Ok(())
            }
        }
    )*};
}
unsigned!(u8, u16, u32, usize);

/// Signed integers are stored sign-extended to 64 bits.
macro_rules! signed {
    ($($t:ty),*) => {$(
        impl Snapshot for $t {
            fn put(&self, out: &mut Vec<u64>) {
                out.push(i64::from(*self) as u64);
            }
            fn take(&mut self, r: &mut Reader<'_>) -> Result<(), String> {
                let w = r.u64()? as i64;
                *self = <$t>::try_from(w)
                    .map_err(|_| format!("{w} overflows {}", stringify!($t)))?;
                Ok(())
            }
        }
    )*};
}
signed!(i16, i64);

impl Snapshot for u64 {
    fn put(&self, out: &mut Vec<u64>) {
        out.push(*self);
    }
    fn take(&mut self, r: &mut Reader<'_>) -> Result<(), String> {
        *self = r.u64()?;
        Ok(())
    }
}

impl Snapshot for bool {
    fn put(&self, out: &mut Vec<u64>) {
        out.push(u64::from(*self));
    }
    fn take(&mut self, r: &mut Reader<'_>) -> Result<(), String> {
        *self = match r.u64()? {
            0 => false,
            1 => true,
            v => return Err(format!("bad flag {v}")),
        };
        Ok(())
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
    fn take(&mut self, r: &mut Reader<'_>) -> Result<(), String> {
        let (present, v): (bool, T) = r.read()?;
        *self = present.then_some(v);
        Ok(())
    }
}

macro_rules! tuple {
    ($($n:tt $t:ident),*) => {
        impl<$($t: Snapshot),*> Snapshot for ($($t,)*) {
            fn put(&self, out: &mut Vec<u64>) {
                $(self.$n.put(out);)*
            }
            fn take(&mut self, r: &mut Reader<'_>) -> Result<(), String> {
                $(self.$n.take(r)?;)*
                Ok(())
            }
        }
    };
}
tuple!(0 A, 1 B);
tuple!(0 A, 1 B, 2 C);

/// Elements in order, each restored in place; no length word.
impl<T: Snapshot> Snapshot for [T] {
    fn put(&self, out: &mut Vec<u64>) {
        self.iter().for_each(|v| v.put(out));
    }
    fn take(&mut self, r: &mut Reader<'_>) -> Result<(), String> {
        self.iter_mut().try_for_each(|v| v.take(r))
    }
}

impl<T: Snapshot, const N: usize> Snapshot for [T; N] {
    fn put(&self, out: &mut Vec<u64>) {
        self.as_slice().put(out);
    }
    fn take(&mut self, r: &mut Reader<'_>) -> Result<(), String> {
        self.as_mut_slice().take(r)
    }
}

/// A fixed-size table: its length, checked against the live table on
/// restore, then every element in place. Variable-length sequences use
/// [`list`] instead.
impl<T: Snapshot> Snapshot for Vec<T> {
    fn put(&self, out: &mut Vec<u64>) {
        out.push(self.len() as u64);
        self.as_slice().put(out);
    }
    fn take(&mut self, r: &mut Reader<'_>) -> Result<(), String> {
        let n = r.u64()?;
        if n != self.len() as u64 {
            return Err(format!("{n} entries, expected {}", self.len()));
        }
        self.as_mut_slice().take(r)
    }
}

/// Variable-length sequences (`Vec`, `VecDeque`): a count, then each item;
/// restore rebuilds the sequence from default items. Capacity limits are
/// the owner's post-restore check.
pub mod list {
    use super::{Reader, Snapshot};

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

    /// Replaces `items` with the sequence [`put`] wrote.
    /// Fails on malformed input or an item's own check.
    pub fn take<C>(items: &mut C, r: &mut Reader<'_>) -> Result<(), String>
    where
        C: IntoIterator + FromIterator<C::Item>,
        C::Item: Snapshot + Default,
    {
        let n = r.count()?;
        *items = (0..n).map(|_| r.read()).collect::<Result<C, String>>()?;
        Ok(())
    }
}

/// Maps (`HashMap`, `BTreeMap`): a count, then `(key, value)` pairs in
/// ascending key order, so equal maps encode identically whatever their
/// iteration order. Restore rejects duplicate and out-of-order keys.
pub mod map {
    use super::{Debug, Reader, Snapshot};

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

    /// Replaces `map` with the pairs [`put`] wrote.
    /// Fails on malformed input or a duplicate or out-of-order key.
    pub fn take<C, K, V>(map: &mut C, r: &mut Reader<'_>) -> Result<(), String>
    where
        C: IntoIterator<Item = (K, V)> + FromIterator<(K, V)>,
        K: Snapshot + Default + Ord + Debug,
        V: Snapshot + Default,
    {
        let n = r.count()?;
        let mut pairs: Vec<(K, V)> = Vec::with_capacity(n);
        for _ in 0..n {
            let kv: (K, V) = r.read()?;
            if pairs.last().is_some_and(|(prev, _)| *prev >= kv.0) {
                return Err(format!("key {:?} is a duplicate or out of order", kv.0));
            }
            pairs.push(kv);
        }
        *map = pairs.into_iter().collect();
        Ok(())
    }
}

/// A nested structure behind its length, so a reader can skip or bound
/// it: the word count, then the structure's words, all of which its
/// `take` must consume.
pub mod section {
    use super::{Reader, Snapshot};

    /// Appends the length-prefixed words of `v`.
    pub fn put<T: Snapshot + ?Sized>(v: &T, out: &mut Vec<u64>) {
        let at = out.len();
        out.push(0);
        v.put(out);
        out[at] = (out.len() - at - 1) as u64;
    }

    /// Restores `v` from a section.
    /// Fails on an overrun, on `v`'s own errors, or if `v` leaves words
    /// of its section unread.
    pub fn take<T: Snapshot + ?Sized>(v: &mut T, r: &mut Reader<'_>) -> Result<(), String> {
        let mut s = r.section()?;
        v.take(&mut s)?;
        s.finish()
    }
}

/// A configuration echo: written like the value, and on restore compared
/// with the live value instead of overwriting it.
pub mod echo {
    use super::{Debug, Reader, Snapshot};

    /// Appends the value.
    pub fn put<T: Snapshot>(v: &T, out: &mut Vec<u64>) {
        v.put(out);
    }

    /// Reads a value and requires it to equal `v`.
    /// Fails on a mismatch or malformed input.
    pub fn take<T: Snapshot + Clone + PartialEq + Debug>(
        v: &mut T,
        r: &mut Reader<'_>,
    ) -> Result<(), String> {
        let mut got = v.clone();
        got.take(r)?;
        if got == *v {
            Ok(())
        } else {
            Err(format!("{got:?}, expected {v:?}"))
        }
    }
}

/// Implements [`Snapshot`] for a struct by listing its fields once, in
/// layout order.
///
/// Each field is written with its own `Snapshot` impl, or with a helper
/// module named after `as`: [`list`], [`map`], [`section`] or [`echo`]. Restore errors are prefixed with the field's name. An
/// optional `check` closure runs after every field is restored and
/// rejects states the words alone cannot rule out (index ranges, widths,
/// capacities). Invoke it with braces, as an item, so formatters leave the
/// list on as few lines as it needs.
///
/// ```
/// use crisp_words::{fields, Snapshot};
///
/// struct Queue {
///     capacity: usize,
///     items: std::collections::VecDeque<u32>,
/// }
/// fields! { Queue { capacity as echo, items as list } check |q| match q.items.len() {
///     n if n > q.capacity => Err(format!("{n} items exceed capacity {}", q.capacity)),
///     _ => Ok(()),
/// } }
///
/// let mut q = Queue { capacity: 2, items: Default::default() };
/// q.restore_words(&[2, 2, 5, 6]).unwrap();
/// assert_eq!(q.items, [5, 6]);
/// assert!(q.restore_words(&[3, 0]).unwrap_err().starts_with("capacity:"));
/// assert!(q.restore_words(&[2, 3, 5, 6, 7]).is_err());
/// ```
#[macro_export]
macro_rules! fields {
    ($t:ty { $($f:ident $(as $via:ident)?),* $(,)? } $(check $check:expr)?) => {
        impl $crate::Snapshot for $t {
            fn put(&self, out: &mut Vec<u64>) {
                $($crate::fields!(@put self.$f, out $(, $via)?);)*
            }
            fn take(&mut self, r: &mut $crate::Reader<'_>) -> Result<(), String> {
                $(
                    $crate::fields!(@take self.$f, r $(, $via)?)
                        .map_err(|e| format!(concat!(stringify!($f), ": {}"), e))?;
                )*
                $(
                    let check: fn(&Self) -> Result<(), String> = $check;
                    check(self)?;
                )?
                Ok(())
            }
        }
    };
    (@put $v:expr, $out:ident) => { $crate::Snapshot::put(&$v, $out) };
    (@put $v:expr, $out:ident, $via:ident) => { $crate::$via::put(&$v, $out) };
    (@take $v:expr, $r:ident) => { $crate::Snapshot::take(&mut $v, $r) };
    (@take $v:expr, $r:ident, $via:ident) => { $crate::$via::take(&mut $v, $r) };
}

/// Gives a fieldless enum stable numeric codes: a `code`/`from_code` pair
/// and a one-word [`Snapshot`] impl. The first variant is the enum's
/// `Default` (the payload of an absent `Option`).
///
/// ```
/// use crisp_words::{codes, Snapshot};
///
/// #[derive(Clone, Copy, Debug, PartialEq)]
/// enum Level { L1, Llc, Dram }
/// codes! { Level { L1 = 0, Llc = 1, Dram = 2 } }
///
/// assert_eq!(Level::Dram.code(), 2);
/// assert_eq!(Level::from_code(1), Ok(Level::Llc));
/// assert!(Level::from_code(3).is_err());
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

            /// Inverse of `code`.
            /// Returns a message naming the bad code.
            pub fn from_code(code: u64) -> Result<$t, String> {
                match code {
                    $c0 => Ok($t::$first),
                    $($c => Ok($t::$v),)*
                    v => Err(format!(concat!("bad ", stringify!($t), " code {}"), v)),
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
            fn take(&mut self, r: &mut $crate::Reader<'_>) -> Result<(), String> {
                *self = $t::from_code(r.u64()?)?;
                Ok(())
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, HashMap, VecDeque};

    fn round_trip<T: Snapshot>(v: &T, mut fresh: T) -> Vec<u64> {
        let words = v.snapshot_words();
        fresh.restore_words(&words).unwrap();
        assert_eq!(fresh.snapshot_words(), words);
        words
    }

    fn err<T: Snapshot>(mut v: T, words: &[u64]) -> String {
        v.restore_words(words).unwrap_err()
    }

    #[test]
    fn integers_are_sign_extended_and_range_checked() {
        assert_eq!(round_trip(&-3i64, 0), [(-3i64) as u64]);
        assert_eq!(round_trip(&-2i16, 0), [u64::MAX - 1]);
        assert_eq!(round_trip(&7u32, 0), [7]);
        assert!(err(0u8, &[256]).contains("overflows u8"));
        assert!(err(0i16, &[1 << 20]).contains("overflows i16"));
    }

    #[test]
    fn flags_must_be_zero_or_one() {
        assert_eq!(round_trip(&true, false), [1]);
        assert!(err(false, &[2]).contains("bad flag"));
    }

    #[test]
    fn absent_options_still_write_their_payload() {
        assert_eq!(round_trip(&Some(9u64), None), [1, 9]);
        assert_eq!(round_trip(&None::<(u64, usize)>, Some((1, 2))), [0, 0, 0]);
        assert!(err(None::<u8>, &[0, 300]).contains("overflows"));
    }

    #[test]
    fn tuples_and_arrays_have_no_length_word() {
        let v = (true, 5u8, [1u32, 2]);
        assert_eq!(round_trip(&v, (false, 0, [0; 2])), [1, 5, 1, 2]);
    }

    #[test]
    fn fixed_tables_echo_their_length() {
        assert_eq!(round_trip(&vec![4u64, 5], vec![0; 2]), [2, 4, 5]);
        assert!(err(vec![0u64; 3], &[2, 4, 5]).contains("2 entries, expected 3"));
    }

    #[test]
    fn lists_rebuild_variable_length_sequences() {
        let q: VecDeque<u8> = [1, 2, 3].into();
        let mut w = Vec::new();
        list::put(&q, &mut w);
        assert_eq!(w, [3, 1, 2, 3]);
        let mut back = VecDeque::from([9]);
        list::take(&mut back, &mut Reader::new(&w)).unwrap();
        assert_eq!(back, q);
    }

    #[test]
    fn maps_sort_their_keys_and_reject_duplicates() {
        let m: HashMap<u64, u32> = [(9, 1), (2, 7)].into();
        let mut w = Vec::new();
        map::put(&m, &mut w);
        assert_eq!(w, [2, 2, 7, 9, 1]);
        let mut back: BTreeMap<u64, u32> = BTreeMap::new();
        map::take(&mut back, &mut Reader::new(&w)).unwrap();
        assert_eq!(back, m.into_iter().collect());
        let dup = [2, 5, 0, 5, 1];
        let e = map::take(&mut back, &mut Reader::new(&dup)).unwrap_err();
        assert!(e.contains("duplicate"), "{e}");
    }

    #[test]
    fn sections_bound_their_contents() {
        let mut w = vec![1];
        section::put(&vec![7u64], &mut w);
        assert_eq!(w, [1, 2, 1, 7]);
        let mut v = vec![0u64];
        let mut r = Reader::new(&w[1..]);
        section::take(&mut v, &mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(v, [7]);
        // Words a section's owner leaves unread are an error.
        let mut short = 0u64;
        assert!(section::take(&mut short, &mut Reader::new(&[2, 1, 7])).is_err());
        assert!(Reader::new(&[9, 1]).section().is_err());
    }

    #[test]
    fn echoes_compare_instead_of_restoring() {
        let mut e = 4usize;
        echo::take(&mut e, &mut Reader::new(&[4])).unwrap();
        assert_eq!(
            echo::take(&mut e, &mut Reader::new(&[5])).unwrap_err(),
            "5, expected 4"
        );
        assert_eq!(e, 4);
    }

    #[test]
    fn truncation_forged_counts_and_trailing_words_are_rejected() {
        assert!(err(0u64, &[]).contains("truncated at word 0"));
        assert!(err(0u64, &[1, 2]).contains("1 trailing words"));
        assert!(Reader::new(&[100, 0])
            .count()
            .unwrap_err()
            .contains("exceeds"));
        let mut v: Vec<u64> = Vec::new();
        assert!(list::take(&mut v, &mut Reader::new(&[u64::MAX])).is_err());
    }

    #[derive(Debug, Default)]
    struct Ring {
        head: usize,
        slots: Vec<u64>,
    }

    fields! { Ring { head, slots } check |r| {
        if r.head < r.slots.len() {
            Ok(())
        } else {
            Err(format!("head {} out of range", r.head))
        }
    } }

    #[test]
    fn field_lists_name_failing_fields_and_run_their_check() {
        let ring = Ring {
            head: 1,
            slots: vec![7, 8],
        };
        let fresh = || Ring {
            head: 0,
            slots: vec![0; 2],
        };
        assert_eq!(round_trip(&ring, fresh()).len(), 4);
        assert!(err(fresh(), &[1, 3, 7, 8, 9]).starts_with("slots: 3 entries"));
        assert_eq!(err(fresh(), &[5, 2, 7, 8]), "head 5 out of range");
    }

    #[test]
    fn the_trait_is_object_safe() {
        let v = vec![1u64, 2];
        let dyn_v: &dyn Snapshot = &v;
        let mut fresh = vec![0u64; 2];
        (&mut fresh as &mut dyn Snapshot)
            .restore_words(&dyn_v.snapshot_words())
            .unwrap();
        assert_eq!(fresh, v);
    }
}
