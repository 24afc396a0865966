//! A counter is declared once.
//!
//! `counters!` turns one list — field, table label, doc — into the struct
//! (`stats.fetch_coalesced += 1` stays what a call site writes) and, from
//! the same list, its element-wise sum (`add`) and its `name → value`
//! view (`rows`, `get`). Adding a counter is one line in its family's
//! declaration: every fold and every table that shows the family follows.
//! A family may embed others (`with { … }`), which sum and list with it.

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

        impl $name {
            /// Element-wise sum.
            pub fn add(&mut self, other: &$name) {
                $( self.$field += other.$field; )*
                $($( self.$nested.add(&other.$nested); )*)?
            }

            /// Every counter as `(field name, table label, value)`,
            /// embedded families included.
            pub fn rows(&self) -> Vec<(&'static str, &'static str, u64)> {
                #[allow(unused_mut)]
                let mut rows = vec![$( (stringify!($field), $label, self.$field) ),*];
                $($( rows.extend(self.$nested.rows()); )*)?
                rows
            }

            /// The family with every counter set to `value(field name)` —
            /// [`rows`](Self::rows) the other way round.
            pub fn from_fn(value: &mut impl FnMut(&'static str) -> u64) -> $name {
                $name {
                    $( $field: value(stringify!($field)), )*
                    $($( $nested: <$nty>::from_fn(value), )*)?
                }
            }

            /// The counter called `name` — its field name or its table
            /// label — if the family declares one.
            pub fn get(&self, name: &str) -> Option<u64> {
                let named = |(field, label, _): &(&str, &str, u64)| *field == name || *label == name;
                self.rows().into_iter().find(named).map(|row| row.2)
            }
        }
    };
}
