//! Names the repo benchmark (`benchmark/`) compiles against, at their old
//! paths. The engine uses none of them; they go when the harness measures
//! through stable entry points.
//!
//! * [`SortCmp`] is a marker for the key's own `Ord`, the one order the
//!   engine sorts by, so no comparator can name another.
//! * [`run::sort_and_combine`] and `MergeStream::new` forward to
//!   [`crate::run::sort_combine`] and [`MergeStream::open`].
//! * [`shuffle::bounded`] is `std`'s bounded channel.
//! * `BackendKind::Sharded` is the in-process backend.

use std::marker::PhantomData;

use crate::backend::BackendKind;
use crate::error::Result;
use crate::kv::{Key, Value};
use crate::run::{MergeStream, Run};

/// The order intermediate keys sort in: the key's own `Ord`.
pub struct SortCmp<K>(PhantomData<fn(&K)>);

/// The one [`SortCmp`].
pub fn natural_sort<K: Key>() -> SortCmp<K> {
    SortCmp(PhantomData)
}

impl<K: Key, V: Value> MergeStream<K, V> {
    /// [`MergeStream::open`] over runs sorted in `_order`: the key's `Ord`.
    pub fn new(runs: Vec<Run>, _order: SortCmp<K>) -> Result<Self> {
        Self::open(runs)
    }
}

impl BackendKind {
    /// The in-process backend, under the deleted channel backend's name.
    #[allow(non_upper_case_globals)]
    pub const Sharded: BackendKind = BackendKind::Simulated;
}

/// `crate::run`'s comparator form.
pub mod run {
    use super::SortCmp;
    use crate::kv::{Key, Value};
    use crate::reducer::CombineFn;

    /// [`crate::run::sort_combine`], which sorts in `_order`: the key's `Ord`.
    pub fn sort_and_combine<K: Key, V: Value>(
        pairs: Vec<(K, V)>,
        _order: &SortCmp<K>,
        combiner: Option<&CombineFn<K, V>>,
        combine_in: &mut u64,
        combine_out: &mut u64,
    ) -> Vec<(K, V)> {
        crate::run::sort_combine(pairs, combiner, combine_in, combine_out)
    }
}

/// A bounded channel with the interface of the deleted channel transport.
pub mod shuffle {
    use std::sync::mpsc;

    /// A channel that queues up to `capacity` items; `send` blocks while
    /// it is full.
    pub fn bounded<T>(capacity: usize) -> (mpsc::SyncSender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::sync_channel(capacity);
        (tx, Receiver(rx))
    }

    /// The receiving half.
    pub struct Receiver<T>(mpsc::Receiver<T>);

    impl<T> Receiver<T> {
        /// The next item; `None` once every sender is gone and the queue
        /// is drained.
        pub fn recv(&self) -> Option<T> {
            self.0.recv().ok()
        }
    }
}
