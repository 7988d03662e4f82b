//! Deterministic drop-in for the subset of the `rand` 0.9 API this
//! workspace uses (`StdRng::seed_from_u64`, `Rng::random`,
//! `Rng::random_range`).
//!
//! The build environment has no network access to crates.io, so the real
//! `rand` cannot be vendored. The workspace only ever uses *seeded*
//! generators (every graph generator takes an explicit seed and the same
//! seed must reproduce the same graph), so a small, fast, well-understood
//! PRNG is sufficient: `StdRng` here is SplitMix64 feeding a
//! xoshiro256**-style scramble. The stream differs from upstream
//! `StdRng` (ChaCha12) — generated graphs differ from ones generated with
//! the real crate, but all tests compare against references computed on
//! the *same* generated graph, so determinism, not the exact stream, is
//! the contract.

/// Core trait: a source of random `u64` words.
pub trait RngCore {
    /// Next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;
}

/// Seeding trait mirroring `rand::SeedableRng`.
pub trait SeedableRng: Sized {
    /// Creates a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Sampling of a value of `Self` from raw random bits (the shim's stand-in
/// for `rand::distr::StandardUniform`).
pub trait Standard {
    /// Draws one value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    /// Uniform in `[0, 1)` with 24 bits of precision.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Types usable as `random_range` bounds (integer uniform sampling).
pub trait UniformInt: Copy {
    /// Uniform draw from `[lo, hi)`; `hi > lo` required.
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self;
}

macro_rules! impl_uniform_int {
    ($($t:ty),*) => {$(
        impl UniformInt for $t {
            fn sample_range<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                let span = (hi as u128).wrapping_sub(lo as u128);
                debug_assert!(span > 0, "random_range requires a non-empty range");
                lo.wrapping_add((rng.next_u64() as u128 % span) as $t)
            }
        }
    )*};
}

impl_uniform_int!(u8, u16, u32, u64, usize);

/// User-facing convenience methods, mirroring `rand::Rng`.
pub trait Rng: RngCore {
    /// Draws a value of any [`Standard`]-samplable type.
    fn random<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// Draws uniformly from a half-open integer range.
    fn random_range<T: UniformInt>(&mut self, range: std::ops::Range<T>) -> T
    where
        Self: Sized,
    {
        T::sample_range(self, range.start, range.end)
    }

    /// Draws a bool that is `true` with probability `p`.
    fn random_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        f64::sample(self) < p
    }
}

impl<R: RngCore> Rng for R {}

/// Named generators, mirroring `rand::rngs`.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard seeded generator: SplitMix64-seeded
    /// xoshiro256** (public-domain construction by Blackman & Vigna).
    #[derive(Clone, Debug)]
    pub struct StdRng {
        s: [u64; 4],
    }

    #[inline]
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            let s = [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ];
            Self { s }
        }
    }

    impl RngCore for StdRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
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
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let mut c = StdRng::seed_from_u64(8);
        let xs: Vec<u64> = (0..8).map(|_| a.random()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.random()).collect();
        let zs: Vec<u64> = (0..8).map(|_| c.random()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..1000 {
            let x: f64 = rng.random();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen = [false; 10];
        for _ in 0..500 {
            let x = rng.random_range(2u64..9);
            assert!((2..9).contains(&x));
            seen[x as usize] = true;
        }
        assert!(seen[2..9].iter().all(|&s| s), "all values of a small range appear");
    }
}
