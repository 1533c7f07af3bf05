//! One declaration per counter: the [`counter_table!`](crate::counter_table)
//! macro.
//!
//! A counter appears in many places — the atomic field, its recorder, the
//! snapshot struct, the checkpoint state, the restore path, the Prometheus
//! page — and hand-kept copies drift: a new counter can silently miss a
//! checkpoint or a scrape. The table declares each counter once and
//! generates every one of those copies from the same row.
//!
//! Each row reads
//!
//! ```text
//! field: "prometheus_name", "Help text.", [flags] => recorder(), recorder_n(n);
//! ```
//!
//! with an optional recorder list after `=>`. A row `field: stamp = init;`
//! declares a logical-time stamp instead: stored, checkpointed and
//! restored like a counter, but written only by hand-written recorders and
//! kept out of the snapshot and the Prometheus page.
//!
//! Flags:
//!
//! - `fault` — summed into the generated `fault_signal()`, the monotone
//!   count a circuit breaker watches;
//! - `series` — copied into a windowed [`SeriesSample`](crate::SeriesSample)
//!   by the generated `series_counters()`.
//!
//! From the table the macro generates:
//!
//! - the storage struct: one `AtomicU64` per row plus any extra fields the
//!   invocation lists, with a `Default` that starts every stamp at its
//!   `init` and every extra field at its own default;
//! - one single-add recorder per name after `=>`: `name()` adds one,
//!   `name(n)` adds `n` (and skips the atomic when `n == 0`). Each is a
//!   single relaxed `fetch_add` on a fixed field — no lookup, no heap;
//! - the snapshot struct: one `pub u64` per counter row (stamps excluded),
//!   documented with its help text, followed by the hand-written derived
//!   fields; a private `load_counters()` fills the counters and leaves the
//!   derived fields at `Default` for the hand-written `snapshot()` to set;
//! - `prometheus_counters()` on the snapshot: one `counter` family per
//!   counter row, in table order;
//! - `series_counters()` on the snapshot, if any row is flagged `series`;
//! - `fault_signal()` on the storage, if any row is flagged `fault`;
//! - if the invocation names a state struct: that struct (every row,
//!   stamps included, in table order) with `checkpoint_counters()` and
//!   `restore_counters()` on the storage, and the row walk a checkpoint
//!   codec uses: `rows()`, every value in table order, and its inverse
//!   `from_rows()`, which refuses a slice of the wrong length;
//! - under `cfg(test)`, `counter_cells()`: every counter row's field name,
//!   Prometheus name and cell, for table-wide tests.
//!
//! Anything that reads or writes more than one counter — derived rates,
//! multi-counter recorders, histograms — stays hand-written next to the
//! table.

/// Declares a counter table; see the [module docs](crate::counters) for
/// the row format and what is generated.
///
/// ```
/// use serde::Serialize;
///
/// harvest_obs::counter_table! {
///     /// Counters for a toy pipeline.
///     pub struct Toy {
///         /// A field the table does not manage.
///         label: String,
///     }
///     /// A reading of [`Toy`].
///     #[derive(Debug, Default, Serialize)]
///     pub struct ToySnapshot {
///         /// `failed / seen`.
///         pub failure_rate: f64,
///     }
///     /// What a checkpoint of [`Toy`] carries.
///     #[derive(Debug, Default, PartialEq)]
///     pub struct ToyState;
///     rows {
///         seen: "toy_seen_total", "Items seen.", [series] => record_seen();
///         failed: "toy_failed_total", "Items failed.", [fault] => record_failed_n(n);
///         last_seen_ns: stamp = u64::MAX;
///     }
/// }
///
/// let toy = Toy::default();
/// toy.record_seen();
/// toy.record_failed_n(1);
/// assert_eq!(toy.fault_signal(), 1);
/// let snap = toy.load_counters();
/// assert_eq!((snap.seen, snap.failed), (1, 1));
/// let state = toy.checkpoint_counters();
/// assert_eq!(state.rows(), [1, 1, u64::MAX]);
/// assert_eq!(ToyState::from_rows(&state.rows()), Some(state));
/// assert_eq!(ToyState::from_rows(&[1, 1]), None);
/// let mut page = harvest_obs::PromText::new();
/// snap.prometheus_counters(&mut page);
/// assert!(page.finish().contains("toy_failed_total 1\n"));
/// ```
#[macro_export]
macro_rules! counter_table {
    // Entry: bundle the three struct headers, then sort the rows.
    (
        $(#[$storage_meta:meta])*
        pub struct $Storage:ident { $($storage_body:tt)* }
        $(#[$snap_meta:meta])*
        pub struct $Snap:ident { $($snap_body:tt)* }
        $( $(#[$state_meta:meta])* pub struct $State:ident; )?
        rows { $($rows:tt)* }
    ) => {
        $crate::counter_table!(@rows
            {
                [$(#[$storage_meta])* $Storage { $($storage_body)* }]
                [$(#[$snap_meta])* $Snap { $($snap_body)* }]
                [$( $(#[$state_meta])* $State )?]
            }
            [] [] [] []
            $($rows)*
        );
    };

    // Every row sorted into: all rows (storage, state), counter rows
    // (snapshot, Prometheus, recorders), `fault` rows and `series` rows.
    (@rows
        {
            [$(#[$storage_meta:meta])* $Storage:ident {
                $( $(#[$extra_meta:meta])* $extra:ident : $extra_ty:ty ),* $(,)?
            }]
            [$(#[$snap_meta:meta])* $Snap:ident { $($snap_body:tt)* }]
            $state:tt
        }
        [$( { $f:ident $init:expr } )*]
        [$( { $c:ident $prom:literal $help:literal [$($rec:ident($($n:ident)?))*] } )*]
        [$($fault:ident)*]
        [$($series:ident)*]
    ) => {
        $(#[$storage_meta])*
        pub struct $Storage {
            $( $f: ::std::sync::atomic::AtomicU64, )*
            $( $(#[$extra_meta])* $extra: $extra_ty, )*
        }

        impl ::std::default::Default for $Storage {
            fn default() -> Self {
                $Storage {
                    $( $f: ::std::sync::atomic::AtomicU64::new($init), )*
                    $( $extra: ::std::default::Default::default(), )*
                }
            }
        }

        impl $Storage {
            $( $( $crate::counter_table!(@recorder $c $help $rec($($n)?)); )* )*

            $crate::counter_table!(@fault_signal [$($fault)*]);

            /// Every counter read at one instant; derived fields stay at
            /// their defaults.
            fn load_counters(&self) -> $Snap {
                $Snap {
                    $( $c: self.$c.load(::std::sync::atomic::Ordering::Relaxed), )*
                    ..::std::default::Default::default()
                }
            }

            /// Field name, Prometheus family and cell of every counter row.
            #[cfg(test)]
            fn counter_cells(
                &self,
            ) -> ::std::vec::Vec<(&'static str, &'static str, &::std::sync::atomic::AtomicU64)> {
                ::std::vec![$( (stringify!($c), $prom, &self.$c) ),*]
            }
        }

        $(#[$snap_meta])*
        pub struct $Snap {
            $( #[doc = $help] pub $c: u64, )*
            $($snap_body)*
        }

        impl $Snap {
            /// Writes one `counter` family per table row, in table order.
            pub fn prometheus_counters(&self, p: &mut $crate::PromText) {
                $( p.counter($prom, $help, self.$c); )*
            }

            $crate::counter_table!(@series [$($series)*]);
        }

        $crate::counter_table!(@state $state $Storage [$($f)*]);
    };
    (@rows $hdr:tt [$($all:tt)*] $ctr:tt $fault:tt $series:tt
        $f:ident: stamp = $init:expr;
        $($rest:tt)*
    ) => {
        $crate::counter_table!(@rows $hdr [$($all)* { $f $init }] $ctr $fault $series
            $($rest)*);
    };
    (@rows $hdr:tt [$($all:tt)*] [$($ctr:tt)*] $fault:tt $series:tt
        $f:ident: $prom:literal, $help:literal, [$($flag:ident),*]
            $(=> $($rec:ident($($n:ident)?)),+)?;
        $($rest:tt)*
    ) => {
        $crate::counter_table!(@flags $hdr
            [$($all)* { $f 0 }]
            [$($ctr)* { $f $prom $help [$($($rec($($n)?))+)?] }]
            $fault $series $f [$($flag)*]
            $($rest)*);
    };
    // Moves a row's flags, one per step, into the `fault` and `series` lists.
    (@flags $hdr:tt $all:tt $ctr:tt [$($fault:ident)*] $series:tt $f:ident
        [fault $($flag:ident)*] $($rest:tt)*
    ) => {
        $crate::counter_table!(@flags $hdr $all $ctr [$($fault)* $f] $series $f [$($flag)*]
            $($rest)*);
    };
    (@flags $hdr:tt $all:tt $ctr:tt $fault:tt [$($series:ident)*] $f:ident
        [series $($flag:ident)*] $($rest:tt)*
    ) => {
        $crate::counter_table!(@flags $hdr $all $ctr $fault [$($series)* $f] $f [$($flag)*]
            $($rest)*);
    };
    (@flags $hdr:tt $all:tt $ctr:tt $fault:tt $series:tt $f:ident [] $($rest:tt)*) => {
        $crate::counter_table!(@rows $hdr $all $ctr $fault $series $($rest)*);
    };

    (@recorder $c:ident $help:literal $rec:ident()) => {
        #[doc = concat!("Adds one to `", stringify!($c), "`: ", $help)]
        pub fn $rec(&self) {
            self.$c.fetch_add(1, ::std::sync::atomic::Ordering::Relaxed);
        }
    };
    (@recorder $c:ident $help:literal $rec:ident($n:ident)) => {
        #[doc = concat!("Adds `", stringify!($n), "` to `", stringify!($c), "`: ", $help)]
        pub fn $rec(&self, $n: u64) {
            if $n > 0 {
                self.$c.fetch_add($n, ::std::sync::atomic::Ordering::Relaxed);
            }
        }
    };

    (@fault_signal []) => {};
    (@fault_signal [$($fault:ident)+]) => {
        /// The fault signal a circuit breaker watches: the sum of every
        /// row flagged `fault`. Healthy operation keeps it flat.
        pub fn fault_signal(&self) -> u64 {
            0 $( + self.$fault.load(::std::sync::atomic::Ordering::Relaxed) )+
        }
    };

    (@series []) => {};
    (@series [$($series:ident)+]) => {
        /// Appends every row flagged `series` to a window-series sample.
        pub fn series_counters(&self, sample: &mut $crate::SeriesSample) {
            $( sample.counter(stringify!($series), self.$series); )+
        }
    };

    (@state [] $Storage:ident $all:tt) => {};
    (@state [$(#[$state_meta:meta])* $State:ident] $Storage:ident [$($f:ident)*]) => {
        $(#[$state_meta])*
        pub struct $State {
            $(
                #[doc = concat!("`", stringify!($f), "` as checkpointed.")]
                pub $f: u64,
            )*
        }

        impl $State {
            /// Every row's value, in table order: what a checkpoint encodes.
            pub fn rows(&self) -> ::std::vec::Vec<u64> {
                ::std::vec![$(self.$f),*]
            }

            /// The state [`rows`](Self::rows) came from; `None` unless
            /// `rows` holds exactly one value per row.
            pub fn from_rows(rows: &[u64]) -> ::std::option::Option<Self> {
                let mut rows = rows.iter().copied();
                let state = $State { $( $f: rows.next()?, )* };
                rows.next().is_none().then_some(state)
            }
        }

        impl $Storage {
            /// Every row's value, for the control-plane checkpoint.
            pub fn checkpoint_counters(&self) -> $State {
                $State {
                    $( $f: self.$f.load(::std::sync::atomic::Ordering::Relaxed), )*
                }
            }

            /// Stores checkpointed values verbatim: the ledger resumes
            /// exactly where the checkpoint left it.
            pub fn restore_counters(&self, s: &$State) {
                $( self.$f.store(s.$f, ::std::sync::atomic::Ordering::Relaxed); )*
            }
        }
    };
}
