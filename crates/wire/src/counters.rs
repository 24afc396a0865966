//! One counter vocabulary: a count is declared once, under one dotted
//! name, and everything that reads counts is written here once.
//!
//! A count lives in one of two shapes:
//!
//! - a **family** of named counts, declared with
//!   [`counters!`](crate::counters!): one line per count — field, dotted
//!   name, doc. A call site keeps a plain field increment
//!   (`stats.fetch_coalesced += 1`); the name is looked up only at
//!   readout. A family may embed others (`with { … }`), which sum and
//!   list with it.
//! - [`Counts`], one count per variant of an enum that already lists its
//!   variants (`ALL`) and their texts (`as_str`) — the rax25 idiom of
//!   SNIPPETS.md snippet 1, where each occurrence is one variant:
//!   `counts[Reason::StreamLimit] += 1`. A variant's name is its enum's
//!   prefix ([`counted!`](crate::counted!)) and its text, lowercased,
//!   every run of other characters one `_`:
//!   `moqt.reason.stream_limit_reached`. The texts themselves stay as
//!   they are: some ride in CONNECTION_CLOSE.
//!
//! Both are [`Counters`]: an element-wise sum and a `(name, value)` row
//! list, built on one walk, [`Counters::each`]; a family's `Display` is
//! every non-zero count as `name=value`, space-separated. A name is
//! lowercase ASCII, dotted, the layer first (`relay.fetch.coalesced`,
//! `quic.endpoint.dropped.…`, `dns.cache.hits`), and unique across the
//! workspace: `crates/wire/tests/counter_names.rs` holds every family to
//! it.

use std::fmt;
use std::marker::PhantomData;
use std::ops::{Index, IndexMut};

/// What every shape of count offers; a shape implements the first three.
pub trait Counters: Default {
    /// Calls `f` with each count's name and value, in declaration order.
    fn each(&self, f: &mut dyn FnMut(&str, u64));

    /// Element-wise sum.
    fn add(&mut self, other: &Self);

    /// The counts with each set to `value(its name)` — [`each`](Self::each)
    /// the other way round.
    fn from_fn(value: &mut dyn FnMut(&str) -> u64) -> Self;

    /// Every count as `(name, value)`, in declaration order.
    fn rows(&self) -> Vec<(String, u64)> {
        let mut rows = Vec::new();
        self.each(&mut |name, n| rows.push((name.to_string(), n)));
        rows
    }
}

/// The one `Display` of every shape: each non-zero count as
/// `name=value`, space-separated; nothing when all are zero.
pub fn write_nonzero(counts: &impl Counters, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    let (mut out, mut sep) = (Ok(()), "");
    counts.each(&mut |name, n| {
        if n > 0 && out.is_ok() {
            out = write!(f, "{sep}{name}={n}");
            sep = " ";
        }
    });
    out
}

/// Declares a family of named counts: the struct, and its [`Counters`]
/// and `Display` from the same list (module docs).
#[macro_export]
macro_rules! counters {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $( $(#[$fmeta:meta])* $field:ident = $label:literal, )*
        }
        $( with {
            $( $(#[$nmeta:meta])* $nested:ident: $nty:ty, )*
        } )?
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct $name {
            $( $(#[$fmeta])* pub $field: u64, )*
            $($( $(#[$nmeta])* pub $nested: $nty, )*)?
        }

        impl $crate::counters::Counters for $name {
            fn each(&self, _f: &mut dyn FnMut(&str, u64)) {
                $( _f($label, self.$field); )*
                $($( $crate::counters::Counters::each(&self.$nested, _f); )*)?
            }

            fn add(&mut self, _other: &$name) {
                $( self.$field += _other.$field; )*
                $($( $crate::counters::Counters::add(&mut self.$nested, &_other.$nested); )*)?
            }

            fn from_fn(_value: &mut dyn FnMut(&str) -> u64) -> $name {
                $name {
                    $( $field: _value($label), )*
                    $($( $nested: <$nty as $crate::counters::Counters>::from_fn(_value), )*)?
                }
            }
        }

        impl ::std::fmt::Display for $name {
            fn fmt(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {
                $crate::counters::write_nonzero(self, f)
            }
        }
    };
}

/// An enum a [`Counts`] counts by: implemented by
/// [`counted!`](crate::counted!) from the enum's own `ALL` and `as_str`.
pub trait Counted: Copy + 'static {
    /// The dotted prefix of every variant's name: `moqt.reason`.
    const FAMILY: &'static str;

    /// Every variant, in declaration order: a variant's count sits at its
    /// place here.
    fn all() -> &'static [Self];

    /// The variant's text.
    fn text(self) -> &'static str;

    /// The variant's place in [`all`](Self::all).
    fn index(self) -> usize;
}

/// Makes an enum with `ALL` (in declaration order) and `as_str` a
/// [`Counted`] under the dotted prefix `family`.
#[macro_export]
macro_rules! counted {
    ($ty:ty, $family:literal) => {
        impl $crate::counters::Counted for $ty {
            const FAMILY: &'static str = $family;

            fn all() -> &'static [$ty] {
                let all: &'static [$ty] = &<$ty>::ALL;
                all
            }

            fn text(self) -> &'static str {
                self.as_str()
            }

            fn index(self) -> usize {
                self as usize
            }
        }
    };
}

/// One count per variant of `E`, `N` of them (`{ Reason::ALL.len() }`):
/// `counts[Reason::StreamLimit] += 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counts<E, const N: usize>([u64; N], PhantomData<E>);

impl<E, const N: usize> Default for Counts<E, N> {
    fn default() -> Self {
        Counts([0; N], PhantomData)
    }
}

/// `family.text`, the text lowercased and every run of other characters
/// than ASCII letters and digits one `_`.
fn name(family: &str, text: &str) -> String {
    let words = text.split(|c: char| !c.is_ascii_alphanumeric());
    let words: Vec<&str> = words.filter(|w| !w.is_empty()).collect();
    format!("{family}.{}", words.join("_").to_ascii_lowercase())
}

impl<E: Counted, const N: usize> Counters for Counts<E, N> {
    fn each(&self, f: &mut dyn FnMut(&str, u64)) {
        for &e in E::all() {
            f(&name(E::FAMILY, e.text()), self[e]);
        }
    }

    fn add(&mut self, other: &Self) {
        for (mine, theirs) in self.0.iter_mut().zip(other.0) {
            *mine += theirs;
        }
    }

    fn from_fn(value: &mut dyn FnMut(&str) -> u64) -> Self {
        let mut counts = Counts::default();
        for &e in E::all() {
            counts[e] = value(&name(E::FAMILY, e.text()));
        }
        counts
    }
}

impl<E: Counted, const N: usize> Index<E> for Counts<E, N> {
    type Output = u64;
    fn index(&self, e: E) -> &u64 {
        &self.0[e.index()]
    }
}

impl<E: Counted, const N: usize> IndexMut<E> for Counts<E, N> {
    fn index_mut(&mut self, e: E) -> &mut u64 {
        &mut self.0[e.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Light {
        Red,
        AmberBlinking,
    }

    impl Light {
        const ALL: [Light; 2] = [Light::Red, Light::AmberBlinking];

        const fn as_str(self) -> &'static str {
            match self {
                Light::Red => "red",
                Light::AmberBlinking => "amber (BLINKING)",
            }
        }
    }

    crate::counted!(Light, "test.light");

    crate::counters! {
        /// A family embedding an enum-indexed count.
        pub struct Crossing {
            /// People who crossed.
            walkers = "test.crossing.walkers",
        }
        with {
            /// What the light showed.
            lights: Counts<Light, { Light::ALL.len() }>,
        }
    }

    #[test]
    fn a_variants_name_is_its_prefix_and_its_text() {
        let names: Vec<String> = Crossing::default()
            .rows()
            .into_iter()
            .map(|r| r.0)
            .collect();
        assert_eq!(
            names,
            [
                "test.crossing.walkers",
                "test.light.red",
                "test.light.amber_blinking"
            ]
        );
    }

    #[test]
    fn sum_rows_and_display_agree() {
        let mut a = Crossing::default();
        a.walkers += 2;
        a.lights[Light::AmberBlinking] += 1;
        let mut i = 0;
        let b = Crossing::from_fn(&mut |_| {
            i += 1;
            i * 10
        });
        assert_eq!(
            (
                b.walkers,
                b.lights[Light::Red],
                b.lights[Light::AmberBlinking]
            ),
            (10, 20, 30)
        );
        a.add(&b);
        let rows: Vec<u64> = a.rows().into_iter().map(|r| r.1).collect();
        assert_eq!(rows, [12, 20, 31]);
        assert_eq!(
            a.to_string(),
            "test.crossing.walkers=12 test.light.red=20 test.light.amber_blinking=31"
        );
        let mut one = Crossing::default();
        assert_eq!(one.to_string(), "");
        one.lights[Light::Red] = 1;
        assert_eq!(one.to_string(), "test.light.red=1", "zeros are left out");
    }
}
