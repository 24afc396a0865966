//! What a process keeps once per distinct value, for its whole life.
//!
//! A held connection names its transport config and its protocol token
//! by a one-byte place in a table of the process's, not by a handle of
//! its own: a process runs its connections under a handful of configs
//! and speaks a handful of tokens, and ten thousand connections held for
//! days would each carry eight or sixteen bytes of the same handles. A
//! [`Table`] is filled under a lock the first time a value is named and
//! read without one after, from any thread; it never lets a value go, so
//! a place, once given, names the same value for good. Places are given
//! in the order values are first named, which nothing observes: only the
//! values are read back.

use std::sync::{Mutex, OnceLock, PoisonError};

/// How many values a table holds: a place is a byte, and `u8::MAX` is
/// left to callers as "none".
pub(crate) const PLACES: usize = u8::MAX as usize;

/// Up to [`PLACES`] distinct values, each at its one-byte place.
pub(crate) struct Table<T: 'static> {
    places: [OnceLock<T>; PLACES],
    /// Held while a value is added, so two threads naming the same new
    /// value give it one place.
    adding: Mutex<()>,
}

impl<T> Table<T> {
    /// An empty table, for a `static`.
    pub(crate) const fn new() -> Table<T> {
        Table {
            places: [const { OnceLock::new() }; PLACES],
            adding: Mutex::new(()),
        }
    }

    /// The place of the first value `is` picks, if the table holds one.
    fn find(&self, is: &impl Fn(&T) -> bool) -> Option<u8> {
        let mut held = self.places.iter().map_while(OnceLock::get);
        held.position(is).map(|place| place as u8)
    }

    /// The place of the value `is` picks, given to `make()` if the table
    /// holds none; `None` once the table is full.
    pub(crate) fn place(&self, is: impl Fn(&T) -> bool, make: impl FnOnce() -> T) -> Option<u8> {
        if let Some(place) = self.find(&is) {
            return Some(place);
        }
        let _adding = self.adding.lock().unwrap_or_else(PoisonError::into_inner);
        self.find(&is).or_else(|| {
            let free = self.places.iter().position(|p| p.get().is_none())?;
            self.places[free].get_or_init(make);
            Some(free as u8)
        })
    }

    /// The value at `place`, if the table holds one there.
    pub(crate) fn get(&self, place: u8) -> Option<&T> {
        self.places.get(usize::from(place))?.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_value_keeps_its_place_and_a_full_table_gives_none() {
        static WORDS: Table<u32> = Table::new();
        let a = WORDS.place(|w| *w == 7, || 7);
        assert_eq!(WORDS.place(|w| *w == 7, || unreachable!()), a);
        let b = WORDS.place(|w| *w == 8, || 8);
        assert_ne!(a, b);
        assert_eq!(a.and_then(|p| WORDS.get(p)), Some(&7));
        for w in 9.. {
            if WORDS.place(|x| *x == w, || w).is_none() {
                break;
            }
        }
        assert_eq!(
            WORDS.places.iter().filter(|p| p.get().is_some()).count(),
            PLACES
        );
        assert_eq!(
            WORDS.get(u8::MAX),
            None,
            "no value at the place left for none"
        );
        assert_eq!(b.and_then(|p| WORDS.get(p)), Some(&8));
    }
}
