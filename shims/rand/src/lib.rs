//! Offline stand-in for the small slice of the `rand` crate API this
//! workspace uses: `rngs::StdRng`, `SeedableRng::seed_from_u64`, and
//! `Rng::gen_range` over primitive ranges.
//!
//! The container image has no crates.io access, so the workspace vendors
//! this shim as a path dependency. The generator is SplitMix64 — not the
//! ChaCha stream of the real `StdRng`, but every consumer in this
//! repository only relies on *seeded determinism* (same seed ⇒ same
//! stream), never on matching the upstream byte stream.

use std::ops::{Range, RangeInclusive};

/// Core source of randomness: a 64-bit output stream.
pub trait RngCore {
    /// Next raw 64-bit word of the stream.
    fn next_u64(&mut self) -> u64;
}

/// Construction of a generator from a seed.
pub trait SeedableRng: Sized {
    /// Builds the generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// User-facing sampling helpers (blanket-implemented for every
/// [`RngCore`], mirroring the upstream design).
pub trait Rng: RngCore {
    /// Uniform sample from `range`.
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample_from(self)
    }

    /// Uniform sample of the whole type (only `f64` in `[0,1)` and
    /// integer types are supported).
    fn gen<T: Standard>(&mut self) -> T {
        T::sample_standard(self)
    }
}

impl<G: RngCore + ?Sized> Rng for G {}

/// Types samplable without an explicit range.
pub trait Standard: Sized {
    fn sample_standard<G: RngCore + ?Sized>(rng: &mut G) -> Self;
}

impl Standard for f64 {
    fn sample_standard<G: RngCore + ?Sized>(rng: &mut G) -> Self {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for u64 {
    fn sample_standard<G: RngCore + ?Sized>(rng: &mut G) -> Self {
        rng.next_u64()
    }
}

/// Ranges a uniform sample can be drawn from.
pub trait SampleRange<T> {
    fn sample_from<G: RngCore + ?Sized>(self, rng: &mut G) -> T;
}

impl SampleRange<f64> for Range<f64> {
    fn sample_from<G: RngCore + ?Sized>(self, rng: &mut G) -> f64 {
        assert!(self.start < self.end, "empty f64 sample range");
        let u = f64::sample_standard(rng);
        self.start + u * (self.end - self.start)
    }
}

impl SampleRange<f64> for RangeInclusive<f64> {
    fn sample_from<G: RngCore + ?Sized>(self, rng: &mut G) -> f64 {
        let (lo, hi) = self.into_inner();
        assert!(lo <= hi, "empty f64 sample range");
        f64_in_inclusive(rng.next_u64(), lo, hi)
    }
}

/// The map `gen_range(lo..=hi)` applies to one raw word: its top 53
/// bits as `2^53` buckets over `[lo, hi]`, both ends included. Not part
/// of the upstream `rand` API; callers that draw many words at once
/// apply it lane by lane and get the bits `gen_range` would.
#[inline(always)]
pub fn f64_in_inclusive(word: u64, lo: f64, hi: f64) -> f64 {
    // Below 2^53, so the signed conversion (one instruction on every
    // x86-64 copy) is exact.
    let u = ((word >> 11) as i64) as f64 * (1.0 / ((1u64 << 53) - 1) as f64);
    lo + u * (hi - lo)
}

macro_rules! int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<G: RngCore + ?Sized>(self, rng: &mut G) -> $t {
                assert!(self.start < self.end, "empty integer sample range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let draw = (rng.next_u64() as u128) % span;
                (self.start as i128 + draw as i128) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_from<G: RngCore + ?Sized>(self, rng: &mut G) -> $t {
                let (lo, hi) = self.into_inner();
                assert!(lo <= hi, "empty integer sample range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                let draw = (rng.next_u64() as u128) % span;
                (lo as i128 + draw as i128) as $t
            }
        }
    )*};
}

int_sample_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The SplitMix64 state increment per draw.
    pub const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

    /// The state draw `k` of `seed`'s stream is mixed from: `seed + (k +
    /// 1)·γ`, wrapping. SplitMix64 is counter-based, so any position of
    /// the stream is one multiply away, and `splitmix64_mix` of this is
    /// the word [`StdRng`]'s `(k + 1)`-th `next_u64` returns. Not part of
    /// the upstream `rand` API.
    #[inline(always)]
    pub fn splitmix64_state(seed: u64, k: u64) -> u64 {
        seed.wrapping_add(GAMMA.wrapping_mul(k.wrapping_add(1)))
    }

    /// SplitMix64's output function of one state: the one definition
    /// [`StdRng`] and the lane-wise drawers share. Not part of the
    /// upstream `rand` API.
    #[inline(always)]
    pub fn splitmix64_mix(state: u64) -> u64 {
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// SplitMix64 generator standing in for the upstream `StdRng`.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        state: u64,
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(GAMMA);
            splitmix64_mix(self.state)
        }
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            StdRng { state: seed }
        }
    }

    pub mod mock {
        use super::super::RngCore;

        /// Deterministic arithmetic-progression generator matching the
        /// upstream `rand::rngs::mock::StepRng` semantics: yields
        /// `initial`, `initial + increment`, ... with wrapping.
        #[derive(Debug, Clone)]
        pub struct StepRng {
            next: u64,
            increment: u64,
        }

        impl StepRng {
            /// A generator starting at `initial`, stepping by `increment`.
            pub fn new(initial: u64, increment: u64) -> Self {
                StepRng {
                    next: initial,
                    increment,
                }
            }
        }

        impl RngCore for StepRng {
            fn next_u64(&mut self) -> u64 {
                let out = self.next;
                self.next = self.next.wrapping_add(self.increment);
                out
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_for_equal_seeds() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen_range(0usize..1000), b.gen_range(0usize..1000));
        }
    }

    #[test]
    fn f64_ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x = rng.gen_range(-1.0..1.0);
            assert!((-1.0..1.0).contains(&x));
            let y = rng.gen_range(-0.5..=0.5);
            assert!((-0.5..=0.5).contains(&y));
        }
    }

    #[test]
    fn integer_ranges_cover_span() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[rng.gen_range(0usize..8)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn the_counter_form_is_the_stream() {
        use super::rngs::{splitmix64_mix, splitmix64_state, GAMMA};
        use super::{f64_in_inclusive, RngCore};
        // u64::MAX wraps the state on its first draw.
        for seed in [0, 2015, u64::MAX] {
            let mut stepped = StdRng::seed_from_u64(seed);
            let mut same = StdRng::seed_from_u64(seed);
            for k in 0..5000u64 {
                let word = stepped.next_u64();
                assert_eq!(
                    splitmix64_mix(splitmix64_state(seed, k)),
                    word,
                    "seed {seed} k {k}"
                );
                let x = f64_in_inclusive(word, -1.0, 1.0);
                assert_eq!(x.to_bits(), same.gen_range(-1.0..=1.0).to_bits());
            }
            // Far positions wrap the multiplication: draw k is draw 0 of
            // the stream seeded k·γ further on (mod 2^64, taken in u128).
            for k in [1u64 << 40, (1 << 63) + 5, u64::MAX - 1] {
                let skip = (u128::from(GAMMA) * u128::from(k)) as u64;
                let mut there = StdRng::seed_from_u64(seed.wrapping_add(skip));
                let word = splitmix64_mix(splitmix64_state(seed, k));
                assert_eq!(word, there.next_u64(), "seed {seed} k {k}");
            }
        }
    }

    #[test]
    fn streams_differ_across_seeds() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let va: Vec<u64> = (0..8).map(|_| a.gen::<u64>()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.gen::<u64>()).collect();
        assert_ne!(va, vb);
    }
}
