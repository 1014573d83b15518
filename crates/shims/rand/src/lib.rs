//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no crates.io access, so this vendors the
//! API surface the workspace actually uses: [`rngs::StdRng`] seeded with
//! [`SeedableRng::seed_from_u64`], and the [`Rng`] sampling methods
//! `random`, `random_range`, and `random_bool`. The generator is
//! xoshiro256++ seeded via SplitMix64 — deterministic per seed, with
//! statistical quality far beyond what the synthetic-data generators and
//! property tests need.

/// Core random source: a stream of `u64`s.
pub trait RngCore {
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Next 32 random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }

    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
}

/// Construction from seeds.
pub trait SeedableRng: Sized {
    /// Build a generator from a 64-bit seed (deterministic).
    fn seed_from_u64(seed: u64) -> Self;
}

/// Sampling conveniences over any [`RngCore`].
pub trait Rng: RngCore {
    /// A uniformly random value of `T` (`f64` in `[0, 1)`, integers over
    /// their full range, `bool` fair).
    fn random<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// A uniformly random value in `range` (`a..b` or `a..=b`).
    ///
    /// # Panics
    /// Panics when the range is empty.
    fn random_range<T, R>(&mut self, range: R) -> T
    where
        R: SampleRange<T>,
    {
        range.sample_from(self)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    fn random_bool(&mut self, p: f64) -> bool {
        f64::sample(self) < p
    }
}

impl<T: RngCore + ?Sized> Rng for T {}

/// Alias of [`Rng`] matching the extension-trait import some modules use.
pub use Rng as RngExt;

/// Types with a canonical uniform distribution.
pub trait Standard {
    /// Draw one value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 high bits -> [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Ranges a value can be drawn from.
pub trait SampleRange<T> {
    /// Draw one value from the range.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Element types uniform ranges can be built over. A single generic
/// `SampleRange` impl hangs off this trait (rather than one impl per
/// integer type) so that integer-literal ranges unify with the use site —
/// e.g. `slice[rng.random_range(0..n)]` infers `usize`.
pub trait SampleUniform: PartialOrd + Copy {
    /// Uniform value in `lo..hi` (`hi` exclusive unless `inclusive`).
    fn sample_uniform<R: RngCore + ?Sized>(
        rng: &mut R,
        lo: Self,
        hi: Self,
        inclusive: bool,
    ) -> Self;
}

macro_rules! impl_sample_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_uniform<R: RngCore + ?Sized>(
                rng: &mut R,
                lo: Self,
                hi: Self,
                inclusive: bool,
            ) -> Self {
                let span = (hi as i128 - lo as i128) as u128 + u128::from(inclusive);
                let v = uniform_u128_below(rng, span);
                (lo as i128 + v as i128) as $t
            }
        }
    )*};
}

impl_sample_uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleUniform for f64 {
    fn sample_uniform<R: RngCore + ?Sized>(
        rng: &mut R,
        lo: Self,
        hi: Self,
        _inclusive: bool,
    ) -> Self {
        lo + f64::sample(rng) * (hi - lo)
    }
}

impl<T: SampleUniform> SampleRange<T> for std::ops::Range<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        assert!(self.start < self.end, "empty range");
        T::sample_uniform(rng, self.start, self.end, false)
    }
}

impl<T: SampleUniform> SampleRange<T> for std::ops::RangeInclusive<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (lo, hi) = self.into_inner();
        assert!(lo <= hi, "empty range");
        T::sample_uniform(rng, lo, hi, true)
    }
}

/// Uniform value in `0..span` by rejection sampling (no modulo bias).
fn uniform_u128_below<R: RngCore + ?Sized>(rng: &mut R, span: u128) -> u128 {
    debug_assert!(span > 0);
    if span == 1 {
        return 0;
    }
    // All spans in practice fit u64; sample 64 bits and reject the biased
    // tail of the modulus.
    let span64 = span as u64;
    let zone = u64::MAX - (u64::MAX % span64);
    loop {
        let v = rng.next_u64();
        if v < zone {
            return u128::from(v % span64);
        }
    }
}

/// Named generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The standard deterministic generator: xoshiro256++.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 expansion of the seed into the full state.
            let mut x = seed;
            let mut next = || {
                x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            };
            StdRng {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let a: Vec<u64> = {
            let mut r = StdRng::seed_from_u64(42);
            (0..10).map(|_| r.random()).collect()
        };
        let b: Vec<u64> = {
            let mut r = StdRng::seed_from_u64(42);
            (0..10).map(|_| r.random()).collect()
        };
        let c: Vec<u64> = {
            let mut r = StdRng::seed_from_u64(43);
            (0..10).map(|_| r.random()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut r = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = r.random_range(3usize..17);
            assert!((3..17).contains(&v));
            let w = r.random_range(-3i64..=3);
            assert!((-3..=3).contains(&w));
            let f: f64 = r.random();
            assert!((0.0..1.0).contains(&f));
        }
        assert_eq!(r.random_range(5u32..6), 5);
        assert_eq!(r.random_range(9usize..=9), 9);
    }

    #[test]
    fn range_sampling_is_roughly_uniform() {
        let mut r = StdRng::seed_from_u64(11);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            counts[r.random_range(0usize..10)] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "skewed: {counts:?}");
        }
    }

    #[test]
    fn random_bool_tracks_probability() {
        let mut r = StdRng::seed_from_u64(5);
        let hits = (0..100_000).filter(|_| r.random_bool(0.25)).count();
        assert!((23_000..27_000).contains(&hits), "got {hits}");
        assert!((0..1000).all(|_| !r.random_bool(0.0)));
        assert!((0..1000).all(|_| r.random_bool(1.0)));
    }
}
