//! Marker traits bundling the bounds required of shuffle keys and values.

use std::fmt::Debug;
use std::hash::Hash;

use crate::codec::Codec;

/// A value that can flow through the engine: serializable, clonable, and
/// movable across and shareable between task threads.
pub trait Value: Codec + Clone + Send + Sync + Debug + 'static {}
impl<T: Codec + Clone + Send + Sync + Debug + 'static> Value for T {}

/// A map-output key: a [`Value`] that can additionally be hash-partitioned
/// and sorted. The shuffle sorts keys by their `Ord`; a job that needs
/// another order (Hadoop's `setSortComparatorClass`) picks a key type whose
/// `Ord` is that order.
pub trait Key: Value + Ord + Hash {}
impl<T: Value + Ord + Hash> Key for T {}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_key<K: Key>() {}
    fn assert_value<V: Value>() {}

    #[test]
    fn common_types_satisfy_bounds() {
        assert_key::<u64>();
        assert_key::<(u32, u32)>();
        assert_key::<String>();
        assert_key::<(String, u8, u32)>();
        assert_value::<f64>();
        assert_value::<Vec<u32>>();
        assert_value::<(u64, Vec<u32>)>();
    }
}
