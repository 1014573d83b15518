//! The `Reducer` trait, combiners, and adapters.

use std::marker::PhantomData;
use std::sync::Arc;

use crate::error::Result;
use crate::kv::{Key, Value};
use crate::task::{Emit, TaskContext};

/// A reduce function: `reduce(k2, list(v2)) -> list(k3, v3)`.
///
/// `values` streams the group's records as `(key, value)` pairs. The key is
/// repeated per record because with a grouping comparator coarser than the
/// key's sort order (Hadoop "secondary sort") every record in the group can
/// carry a *different* full key — the paper's PK kernel reads the length
/// component of the composite `(group, length)` key as values stream by.
///
/// Like a [`crate::Mapper`], the job's instance is a prototype every
/// attempt runs its own clone of.
pub trait Reducer: Clone + Send + Sync + 'static {
    /// Intermediate key type (must match the mapper's `OutKey`).
    type Key: Key;
    /// Intermediate value type (must match the mapper's `OutValue`).
    type InValue: Value;
    /// Output key type.
    type OutKey: Value;
    /// Output value type.
    type OutValue: Value;

    /// Called once per task before the first group.
    fn setup(&mut self, _ctx: &TaskContext) -> Result<()> {
        Ok(())
    }

    /// Called once per group (as defined by the job's grouping comparator).
    /// `key` is the first key of the group.
    fn reduce(
        &mut self,
        key: &Self::Key,
        values: &mut dyn Iterator<Item = (Self::Key, Self::InValue)>,
        out: &mut dyn Emit<Self::OutKey, Self::OutValue>,
        ctx: &TaskContext,
    ) -> Result<()>;

    /// Called once per task after the last group (OPTO sorts and emits the
    /// token list here).
    fn cleanup(
        &mut self,
        _out: &mut dyn Emit<Self::OutKey, Self::OutValue>,
        _ctx: &TaskContext,
    ) -> Result<()> {
        Ok(())
    }
}

/// Wrap a closure as a [`Reducer`].
pub struct ClosureReducer<K, IV, OK, OV, F> {
    f: F,
    #[allow(clippy::type_complexity)]
    _t: PhantomData<fn(K, IV) -> (OK, OV)>,
}

impl<K, IV, OK, OV, F: Clone> Clone for ClosureReducer<K, IV, OK, OV, F> {
    fn clone(&self) -> Self {
        ClosureReducer {
            f: self.f.clone(),
            _t: PhantomData,
        }
    }
}

impl<K, IV, OK, OV, F> ClosureReducer<K, IV, OK, OV, F>
where
    F: FnMut(
        &K,
        &mut dyn Iterator<Item = (K, IV)>,
        &mut dyn Emit<OK, OV>,
        &TaskContext,
    ) -> Result<()>,
{
    /// Build a reducer from the given closure.
    pub fn new(f: F) -> Self {
        ClosureReducer { f, _t: PhantomData }
    }
}

impl<K, IV, OK, OV, F> Reducer for ClosureReducer<K, IV, OK, OV, F>
where
    K: Key,
    IV: Value,
    OK: Value,
    OV: Value,
    F: FnMut(
            &K,
            &mut dyn Iterator<Item = (K, IV)>,
            &mut dyn Emit<OK, OV>,
            &TaskContext,
        ) -> Result<()>
        + Clone
        + Send
        + Sync
        + 'static,
{
    type Key = K;
    type InValue = IV;
    type OutKey = OK;
    type OutValue = OV;

    fn reduce(
        &mut self,
        key: &K,
        values: &mut dyn Iterator<Item = (K, IV)>,
        out: &mut dyn Emit<OK, OV>,
        ctx: &TaskContext,
    ) -> Result<()> {
        (self.f)(key, values, out, ctx)
    }
}

/// The identity reducer: emits every `(key, value)` of every group. Used by
/// sort-only jobs (BTO phase 2 with a single reducer).
pub struct IdentityReducer<K, V> {
    _t: PhantomData<fn(K, V)>,
}

impl<K, V> IdentityReducer<K, V> {
    /// Construct the identity reducer.
    pub fn new() -> Self {
        IdentityReducer { _t: PhantomData }
    }
}

impl<K, V> Default for IdentityReducer<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V> Clone for IdentityReducer<K, V> {
    fn clone(&self) -> Self {
        Self::new()
    }
}

impl<K: Key, V: Value> Reducer for IdentityReducer<K, V> {
    type Key = K;
    type InValue = V;
    type OutKey = K;
    type OutValue = V;

    fn reduce(
        &mut self,
        _key: &K,
        values: &mut dyn Iterator<Item = (K, V)>,
        out: &mut dyn Emit<K, V>,
        _ctx: &TaskContext,
    ) -> Result<()> {
        for (k, v) in values {
            out.emit(k, v)?;
        }
        Ok(())
    }
}

/// A combiner: a local reducer run over each spill's groups on the map side,
/// `combine(k2, list(v2)) -> list(v2)`. It must be an algebraic function —
/// applying it zero or more times must not change the reduce result.
pub type CombineFn<K, V> = Arc<dyn Fn(&K, Vec<V>) -> Vec<V> + Send + Sync>;

/// A summing combiner for numeric counts — the combiner BTO and OPTO use to
/// pre-aggregate `(token, 1)` pairs before the shuffle.
pub fn sum_combiner<K: Key>() -> CombineFn<K, u64> {
    Arc::new(|_k, values| vec![values.iter().sum()])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::Cache;
    use crate::counters::Counters;
    use crate::dfs::Dfs;
    use crate::memory::MemoryGauge;
    use crate::task::{Phase, VecEmitter};

    fn ctx() -> TaskContext {
        TaskContext::new(
            Phase::Reduce,
            0,
            0,
            1,
            Counters::new(),
            MemoryGauge::unlimited("t"),
            Cache::new(),
            Dfs::new(1, 64).unwrap(),
        )
    }

    #[test]
    fn closure_reducer_sums() {
        let mut r = ClosureReducer::new(
            |k: &String,
             values: &mut dyn Iterator<Item = (String, u64)>,
             out: &mut dyn Emit<String, u64>,
             _ctx: &TaskContext| {
                let total: u64 = values.map(|(_, v)| v).sum();
                out.emit(k.clone(), total)
            },
        );
        let mut out = VecEmitter::new();
        let key = "tok".to_string();
        let mut vals = vec![(key.clone(), 1u64), (key.clone(), 2), (key.clone(), 3)].into_iter();
        r.reduce(&key, &mut vals, &mut out, &ctx()).unwrap();
        assert_eq!(out.pairs, vec![("tok".to_string(), 6)]);
    }

    #[test]
    fn identity_reducer_echoes_group() {
        let mut r = IdentityReducer::<u32, String>::new();
        let mut out = VecEmitter::new();
        let mut vals = vec![(5u32, "a".to_string()), (5, "b".to_string())].into_iter();
        r.reduce(&5, &mut vals, &mut out, &ctx()).unwrap();
        assert_eq!(out.pairs.len(), 2);
    }

    #[test]
    fn sum_combiner_sums() {
        let c = sum_combiner::<String>();
        assert_eq!(c(&"k".to_string(), vec![1, 2, 3]), vec![6]);
        assert_eq!(c(&"k".to_string(), vec![]), vec![0]);
    }
}
