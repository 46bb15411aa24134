//! Lookup key streams (§5.3).
//!
//! * [`uniform`] — addresses uniform on the space, the paper's "rand." row
//!   of Table 2 (no cache locality at all);
//! * [`ZipfTrace`] — a CAIDA-trace stand-in: destination prefixes drawn
//!   Zipf-distributed over the FIB's own prefixes with random host bits.
//!   Real packet traces are heavily skewed toward popular destinations,
//!   which is exactly what lets a big-but-cached structure like `fib_trie`
//!   keep its hot paths resident; the Zipf model reproduces that effect.

use fib_trie::{Address, BinaryTrie, Prefix};

use crate::rng::Rng;

/// Uniform random addresses.
pub fn uniform<A: Address, R: Rng + ?Sized>(rng: &mut R, count: usize) -> Vec<A> {
    (0..count)
        .map(|_| A::from_u128(rng.random::<u128>() >> (128 - u32::from(A::WIDTH))))
        .collect()
}

/// Zipf-over-prefixes trace generator.
#[derive(Clone, Debug)]
pub struct ZipfTrace<A: Address> {
    prefixes: Vec<Prefix<A>>,
    /// Cumulative Zipf weights aligned with `prefixes`.
    cumulative: Vec<f64>,
}

impl<A: Address> ZipfTrace<A> {
    /// Prepares a trace model over the FIB's prefixes with Zipf exponent
    /// `s` (≈ 1.0 matches measured traffic skew). Prefix popularity ranks
    /// are assigned pseudo-randomly (by iteration order), not by prefix
    /// value, so popular destinations scatter across the table.
    ///
    /// # Panics
    /// Panics if the FIB is empty or `s` is not finite and positive.
    #[must_use]
    pub fn new(fib: &BinaryTrie<A>, s: f64) -> Self {
        assert!(s.is_finite() && s > 0.0, "zipf exponent must be positive");
        let prefixes: Vec<Prefix<A>> = fib.iter().map(|(p, _)| p).collect();
        assert!(
            !prefixes.is_empty(),
            "cannot build a trace over an empty FIB"
        );
        let mut cumulative = Vec::with_capacity(prefixes.len());
        let mut acc = 0.0;
        for rank in 1..=prefixes.len() {
            acc += 1.0 / (rank as f64).powf(s);
            cumulative.push(acc);
        }
        Self {
            prefixes,
            cumulative,
        }
    }

    /// Draws one destination address: a Zipf-ranked prefix filled with
    /// random host bits.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> A {
        let total = *self.cumulative.last().expect("non-empty");
        let x: f64 = rng.random::<f64>() * total;
        let idx = self
            .cumulative
            .partition_point(|&c| c < x)
            .min(self.prefixes.len() - 1);
        let prefix = self.prefixes[idx];
        // Random host bits below the prefix length.
        let host_bits = u32::from(A::WIDTH - prefix.len());
        let noise = if host_bits == 0 {
            0u128
        } else if host_bits >= 128 {
            // A default route leaves every bit free; `1 << 128` would
            // overflow, so take the whole word.
            rng.random::<u128>()
        } else {
            rng.random::<u128>() & ((1u128 << host_bits) - 1)
        };
        A::from_u128(prefix.addr().to_u128() | noise)
    }

    /// Draws a whole trace.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R, count: usize) -> Vec<A> {
        (0..count).map(|_| self.sample(rng)).collect()
    }
}

/// A flow-locality ("bursty") key stream: real packet arrivals come in
/// flows — several packets to the same destination back to back — rather
/// than as i.i.d. draws. Flows are drawn from a [`ZipfTrace`] popularity
/// model and each emits a geometrically-distributed burst of packets to
/// one address, so the stream has *temporal* locality (same line touched
/// again immediately) on top of Zipf's *popularity* locality.
#[derive(Clone, Debug)]
pub struct BurstyTrace<A: Address> {
    zipf: ZipfTrace<A>,
    /// P(burst continues with another packet); mean burst = 1/(1−p).
    continue_p: f64,
    current: Option<A>,
}

impl<A: Address> BurstyTrace<A> {
    /// A bursty stream over `fib`'s prefixes: Zipf exponent `s` for flow
    /// popularity, `mean_burst ≥ 1` packets per flow on average.
    ///
    /// # Panics
    /// Panics as [`ZipfTrace::new`], or if `mean_burst < 1` or not
    /// finite.
    #[must_use]
    pub fn new(fib: &BinaryTrie<A>, s: f64, mean_burst: f64) -> Self {
        assert!(
            mean_burst.is_finite() && mean_burst >= 1.0,
            "mean burst length must be ≥ 1"
        );
        Self {
            zipf: ZipfTrace::new(fib, s),
            continue_p: 1.0 - 1.0 / mean_burst,
            current: None,
        }
    }

    /// Draws the next packet's destination address.
    pub fn next_addr<R: Rng + ?Sized>(&mut self, rng: &mut R) -> A {
        if let Some(addr) = self.current {
            if rng.random::<f64>() < self.continue_p {
                return addr;
            }
        }
        let addr = self.zipf.sample(rng);
        self.current = Some(addr);
        addr
    }

    /// Draws a whole trace.
    pub fn generate<R: Rng + ?Sized>(&mut self, rng: &mut R, count: usize) -> Vec<A> {
        (0..count).map(|_| self.next_addr(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::genfib::FibSpec;
    use crate::rng::Xoshiro256;
    use std::collections::HashMap;

    fn rng(seed: u64) -> Xoshiro256 {
        Xoshiro256::seed_from_u64(seed)
    }

    #[test]
    fn uniform_covers_the_space() {
        let addrs: Vec<u32> = uniform(&mut rng(1), 10_000);
        assert_eq!(addrs.len(), 10_000);
        let top_set = addrs.iter().filter(|&&a| a >= 0x8000_0000).count();
        assert!(
            (4000..6000).contains(&top_set),
            "unbiased halves: {top_set}"
        );
    }

    #[test]
    fn zipf_samples_fall_inside_their_prefix() {
        let fib: BinaryTrie<u32> = FibSpec::dfz_like(2000).generate(&mut rng(2));
        let trace = ZipfTrace::new(&fib, 1.0);
        let mut r = rng(3);
        for _ in 0..3000 {
            let addr = trace.sample(&mut r);
            assert!(fib.lookup(addr).is_some(), "partition FIB always matches");
        }
    }

    #[test]
    fn zipf_is_skewed_uniform_is_not() {
        let fib: BinaryTrie<u32> = FibSpec::dfz_like(1000).generate(&mut rng(4));
        let trace = ZipfTrace::new(&fib, 1.2);
        let mut r = rng(5);
        // Count hits per /8 bucket for a crude skew measure.
        let mut zipf_hits: HashMap<u32, u32> = HashMap::new();
        for _ in 0..20_000 {
            *zipf_hits.entry(trace.sample(&mut r) >> 24).or_insert(0) += 1;
        }
        let zipf_max = *zipf_hits.values().max().unwrap();
        let mut uni_hits: HashMap<u32, u32> = HashMap::new();
        for addr in uniform::<u32, _>(&mut r, 20_000) {
            *uni_hits.entry(addr >> 24).or_insert(0) += 1;
        }
        let uni_max = *uni_hits.values().max().unwrap();
        assert!(
            zipf_max > uni_max * 2,
            "zipf max bucket {zipf_max} should dominate uniform {uni_max}"
        );
    }

    #[test]
    fn bursty_trace_bursts_and_stays_in_fib() {
        let fib: BinaryTrie<u32> = FibSpec::dfz_like(800).generate(&mut rng(50));
        let mut bursty = BurstyTrace::new(&fib, 1.0, 4.0);
        let mut r = rng(51);
        let trace = bursty.generate(&mut r, 10_000);
        let repeats = trace.windows(2).filter(|w| w[0] == w[1]).count();
        let frac = repeats as f64 / (trace.len() - 1) as f64;
        // Mean burst 4 → P(repeat) = 3/4.
        assert!((0.70..0.80).contains(&frac), "repeat fraction {frac}");
        for addr in trace.iter().take(500) {
            assert!(fib.lookup(*addr).is_some());
        }
    }

    #[test]
    fn trace_is_deterministic_per_seed() {
        let fib: BinaryTrie<u32> = FibSpec::dfz_like(100).generate(&mut rng(6));
        let trace = ZipfTrace::new(&fib, 1.0);
        let a = trace.generate(&mut rng(7), 50);
        let b = trace.generate(&mut rng(7), 50);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "empty FIB")]
    fn empty_fib_panics() {
        let fib: BinaryTrie<u32> = BinaryTrie::new();
        let _ = ZipfTrace::new(&fib, 1.0);
    }

    #[test]
    fn ipv6_traces() {
        let spec = FibSpec {
            n_prefixes: 200,
            max_len: 48,
            depth_bias: 0.2,
            labels: crate::labels::LabelModel::Uniform { delta: 3 },
            spatial_correlation: 0.0,
            default_route: false,
        };
        let fib: BinaryTrie<u128> = spec.generate(&mut rng(8));
        let trace = ZipfTrace::new(&fib, 1.0);
        let addr = trace.sample(&mut rng(9));
        assert!(fib.lookup(addr).is_some());
    }
}
