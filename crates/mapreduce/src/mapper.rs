//! The `Mapper` trait and adapters.

use std::marker::PhantomData;

use crate::error::Result;
use crate::kv::{Key, Value};
use crate::task::{Emit, TaskContext};

/// A map function: `map(k1, v1) -> list(k2, v2)`.
///
/// The job's instance is a prototype shared by every attempt, each of which
/// runs its own clone; `setup`/`cleanup` bracket the attempt exactly as in
/// Hadoop (the paper's stage-2 mappers load the token ordering in an
/// initialization function; OPTO's reducer emits in tear-down).
pub trait Mapper: Clone + Send + Sync + 'static {
    /// Input key type (byte offset for text inputs).
    type InKey: Value;
    /// Input value type (the line for text inputs).
    type InValue: Value;
    /// Intermediate key.
    type OutKey: Key;
    /// Intermediate value.
    type OutValue: Value;

    /// Called once per task before any input record.
    fn setup(&mut self, _ctx: &TaskContext) -> Result<()> {
        Ok(())
    }

    /// Called for every input record.
    fn map(
        &mut self,
        key: &Self::InKey,
        value: &Self::InValue,
        out: &mut dyn Emit<Self::OutKey, Self::OutValue>,
        ctx: &TaskContext,
    ) -> Result<()>;

    /// Called once per task after the last input record.
    fn cleanup(
        &mut self,
        _out: &mut dyn Emit<Self::OutKey, Self::OutValue>,
        _ctx: &TaskContext,
    ) -> Result<()> {
        Ok(())
    }
}

/// Wrap a closure as a [`Mapper`].
pub struct ClosureMapper<IK, IV, OK, OV, F> {
    f: F,
    #[allow(clippy::type_complexity)]
    _t: PhantomData<fn(IK, IV) -> (OK, OV)>,
}

impl<IK, IV, OK, OV, F: Clone> Clone for ClosureMapper<IK, IV, OK, OV, F> {
    fn clone(&self) -> Self {
        ClosureMapper {
            f: self.f.clone(),
            _t: PhantomData,
        }
    }
}

impl<IK, IV, OK, OV, F> ClosureMapper<IK, IV, OK, OV, F>
where
    F: FnMut(&IK, &IV, &mut dyn Emit<OK, OV>, &TaskContext) -> Result<()>,
{
    /// Build a mapper from the given closure.
    pub fn new(f: F) -> Self {
        ClosureMapper { f, _t: PhantomData }
    }
}

impl<IK, IV, OK, OV, F> Mapper for ClosureMapper<IK, IV, OK, OV, F>
where
    IK: Value,
    IV: Value,
    OK: Key,
    OV: Value,
    F: FnMut(&IK, &IV, &mut dyn Emit<OK, OV>, &TaskContext) -> Result<()>
        + Clone
        + Send
        + Sync
        + 'static,
{
    type InKey = IK;
    type InValue = IV;
    type OutKey = OK;
    type OutValue = OV;

    fn map(
        &mut self,
        key: &IK,
        value: &IV,
        out: &mut dyn Emit<OK, OV>,
        ctx: &TaskContext,
    ) -> Result<()> {
        (self.f)(key, value, out, ctx)
    }
}

/// The identity mapper: passes `(k, v)` through unchanged. Used by sort jobs
/// such as the second phase of BTO and BRJ.
pub struct IdentityMapper<K, V> {
    _t: PhantomData<fn(K, V)>,
}

impl<K, V> IdentityMapper<K, V> {
    /// Construct the identity mapper.
    pub fn new() -> Self {
        IdentityMapper { _t: PhantomData }
    }
}

impl<K, V> Default for IdentityMapper<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V> Clone for IdentityMapper<K, V> {
    fn clone(&self) -> Self {
        Self::new()
    }
}

impl<K: Key, V: Value> Mapper for IdentityMapper<K, V> {
    type InKey = K;
    type InValue = V;
    type OutKey = K;
    type OutValue = V;

    fn map(
        &mut self,
        key: &K,
        value: &V,
        out: &mut dyn Emit<K, V>,
        _ctx: &TaskContext,
    ) -> Result<()> {
        out.emit(key.clone(), value.clone())
    }
}

/// A mapper that swaps key and value — the map phase of BTO's sort job,
/// which routes `(token, count)` pairs as `(count, token)` so the framework
/// sorts tokens by frequency.
pub struct SwapMapper<K, V> {
    _t: PhantomData<fn(K, V)>,
}

impl<K, V> SwapMapper<K, V> {
    /// Construct the swapping mapper.
    pub fn new() -> Self {
        SwapMapper { _t: PhantomData }
    }
}

impl<K, V> Default for SwapMapper<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V> Clone for SwapMapper<K, V> {
    fn clone(&self) -> Self {
        Self::new()
    }
}

impl<K: Value, V: Key> Mapper for SwapMapper<K, V> {
    type InKey = K;
    type InValue = V;
    type OutKey = V;
    type OutValue = K;

    fn map(
        &mut self,
        key: &K,
        value: &V,
        out: &mut dyn Emit<V, K>,
        _ctx: &TaskContext,
    ) -> Result<()> {
        out.emit(value.clone(), key.clone())
    }
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
            Phase::Map,
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
    fn closure_mapper_maps() {
        let mut m = ClosureMapper::new(
            |k: &u64, v: &String, out: &mut dyn Emit<String, u64>, _ctx: &TaskContext| {
                out.emit(v.clone(), *k)
            },
        );
        let mut out = VecEmitter::new();
        m.map(&7, &"x".to_string(), &mut out, &ctx()).unwrap();
        assert_eq!(out.pairs, vec![("x".to_string(), 7)]);
    }

    #[test]
    fn identity_mapper_passes_through() {
        let mut m = IdentityMapper::<u32, String>::new();
        let mut out = VecEmitter::new();
        m.map(&1, &"v".to_string(), &mut out, &ctx()).unwrap();
        assert_eq!(out.pairs, vec![(1, "v".to_string())]);
    }

    #[test]
    fn swap_mapper_swaps() {
        let mut m = SwapMapper::<String, u64>::new();
        let mut out = VecEmitter::new();
        m.map(&"token".to_string(), &3, &mut out, &ctx()).unwrap();
        assert_eq!(out.pairs, vec![(3, "token".to_string())]);
    }
}
