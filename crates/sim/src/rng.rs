//! Seeded deterministic RNG for fault injection and randomized workloads.
//!
//! `rand` and wall-clock entropy are unavailable by design — every draw must
//! be reproducible from a seed so a failing chaos run can be replayed
//! bit-for-bit. The generator is xorshift64* over a splitmix64-conditioned
//! seed: tiny state, good enough statistics for schedule perturbation, and
//! trivially forkable into independent per-entity streams.

/// Deterministic pseudo-random generator (splitmix64 seeding, xorshift64*
/// stream).
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

/// splitmix64 output function: conditions arbitrary (even all-zero) seeds
/// into well-mixed xorshift state.
#[inline]
fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    /// Create a generator from `seed`. Any seed value is fine, including 0.
    pub fn new(seed: u64) -> Self {
        let mut s = seed;
        let mut state = splitmix64(&mut s);
        if state == 0 {
            state = 0x853C_49E6_748F_EA9B; // xorshift state must be nonzero
        }
        Self { state }
    }

    /// Derive an independent stream for sub-entity `salt` (e.g. one stream
    /// per NIC from a cluster-wide seed). Streams with different salts are
    /// decorrelated; the parent is not advanced.
    pub fn fork(&self, salt: u64) -> Rng {
        let mut s = self
            .state
            .wrapping_mul(0xA076_1D64_78BD_642F)
            .wrapping_add(salt);
        let _ = splitmix64(&mut s);
        Rng::new(s)
    }

    /// Next raw 64-bit draw (xorshift64*).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform draw in `[0, n)`. `n` must be nonzero. The modulo bias is
    /// negligible for the fault-schedule ranges used here (`n << 2^64`).
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0, "Rng::below(0)");
        self.next_u64() % n
    }

    /// Uniform draw in `[lo, hi)`.
    #[inline]
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo < hi, "Rng::range empty ({lo}..{hi})");
        lo + self.below(hi - lo)
    }

    /// Bernoulli trial with probability `num_ppm / 1_000_000`. Integer
    /// parts-per-million keep fault probabilities exactly reproducible in
    /// config files (no float rounding).
    #[inline]
    pub fn chance_ppm(&mut self, num_ppm: u32) -> bool {
        if num_ppm == 0 {
            return false;
        }
        self.below(1_000_000) < num_ppm as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn zero_seed_is_usable() {
        let mut r = Rng::new(0);
        let v: Vec<u64> = (0..8).map(|_| r.next_u64()).collect();
        assert!(v.iter().any(|&x| x != 0));
    }

    #[test]
    fn below_and_range_stay_in_bounds() {
        let mut r = Rng::new(7);
        for _ in 0..10_000 {
            assert!(r.below(13) < 13);
            let v = r.range(100, 110);
            assert!((100..110).contains(&v));
        }
    }

    #[test]
    fn forks_are_decorrelated_and_deterministic() {
        let root = Rng::new(99);
        let mut a1 = root.fork(1);
        let mut a2 = root.fork(1);
        let mut b = root.fork(2);
        let mut matches = 0;
        for _ in 0..256 {
            let x = a1.next_u64();
            assert_eq!(x, a2.next_u64());
            if x == b.next_u64() {
                matches += 1;
            }
        }
        assert_eq!(matches, 0);
    }

    #[test]
    fn chance_ppm_extremes_and_rate() {
        let mut r = Rng::new(3);
        assert!(!(0..1000).any(|_| r.chance_ppm(0)));
        assert!((0..1000).all(|_| r.chance_ppm(1_000_000)));
        // 10% should land within a loose band over 100k trials.
        let hits = (0..100_000).filter(|_| r.chance_ppm(100_000)).count();
        assert!(hits > 8_000 && hits < 12_000, "hits={hits}");
    }

    #[test]
    fn rough_uniformity() {
        let mut r = Rng::new(11);
        let mut buckets = [0u32; 16];
        for _ in 0..160_000 {
            buckets[(r.next_u64() >> 60) as usize] += 1;
        }
        for b in buckets {
            assert!((8_000..12_000).contains(&b), "bucket {b}");
        }
    }
}
