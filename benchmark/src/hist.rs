//! A log-linear histogram: 16 sub-buckets per octave (every bucket is at
//! most 1/16 wide relative to its lower edge), fixed size, nothing
//! allocated on the record path. It replaces
//! `fib_router::LatencyHistogram`'s power-of-two buckets for the
//! benchmark's percentiles; quantiles interpolate by rank inside the
//! bucket, so a steady distribution does not read as one repeated value.

/// Sub-buckets per octave, as a bit count.
const SUB_BITS: u32 = 4;
const SUB: usize = 1 << SUB_BITS;
/// Octaves above the linear region cover every `u64`.
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB;

/// Histogram over non-negative values recorded at `1 / scale` resolution.
#[derive(Clone, Debug)]
pub struct LogLinearHist {
    scale: f64,
    buckets: Vec<u64>,
    count: u64,
}

impl LogLinearHist {
    /// An empty histogram; `scale` fixed-point units per unit of value
    /// (256 for ns/lookup keeps sub-nanosecond batch means resolvable).
    #[must_use]
    pub fn new(scale: f64) -> Self {
        Self {
            scale,
            buckets: vec![0; BUCKETS],
            count: 0,
        }
    }

    #[inline]
    fn index(fixed: u64) -> usize {
        if fixed < SUB as u64 {
            return fixed as usize;
        }
        let msb = 63 - fixed.leading_zeros();
        let sub = (fixed >> (msb - SUB_BITS)) as usize & (SUB - 1);
        (msb - SUB_BITS + 1) as usize * SUB + sub
    }

    /// `(lower edge, width)` of bucket `index`, in fixed-point units.
    fn edges(index: usize) -> (u64, u64) {
        if index < SUB {
            return (index as u64, 1);
        }
        let shift = (index / SUB - 1) as u32;
        (((SUB + index % SUB) as u64) << shift, 1 << shift)
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, value: f64) {
        let fixed = (value * self.scale).max(0.0) as u64;
        self.buckets[Self::index(fixed)] += 1;
        self.count += 1;
    }

    /// Samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Forgets every sample.
    pub fn clear(&mut self) {
        self.buckets.fill(0);
        self.count = 0;
    }

    /// The `q`-quantile (`0 < q <= 1`), interpolated by rank inside the
    /// bucket holding it; 0.0 when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (self.count as f64 * q).clamp(1.0, self.count as f64);
        let mut seen = 0u64;
        for (index, &n) in self.buckets.iter().enumerate() {
            if n > 0 && (seen + n) as f64 >= rank {
                let (lo, width) = Self::edges(index);
                let within = (rank - seen as f64) / n as f64;
                return (lo as f64 + width as f64 * within) / self.scale;
            }
            seen += n;
        }
        unreachable!("rank within count")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_range_without_gaps() {
        let mut next = 0u64;
        for index in 0..BUCKETS - SUB {
            let (lo, width) = LogLinearHist::edges(index);
            assert_eq!(lo, next, "bucket {index} starts where the last ended");
            assert_eq!(LogLinearHist::index(lo), index);
            assert_eq!(LogLinearHist::index(lo + width - 1), index);
            next = lo + width;
        }
        assert_eq!(LogLinearHist::index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn relative_error_is_within_a_sixteenth() {
        let mut h = LogLinearHist::new(256.0);
        for v in [0.3, 4.0, 9.7, 181.0, 12_345.6] {
            h.clear();
            for _ in 0..100 {
                h.record(v);
            }
            assert_eq!(h.count(), 100);
            let p = h.quantile(0.5);
            assert!((p - v).abs() <= v / 16.0 + 1.0 / 256.0, "{v} read {p}");
        }
    }

    #[test]
    fn quantiles_separate_a_tail() {
        let mut a = LogLinearHist::new(256.0);
        for _ in 0..985 {
            a.record(10.0);
        }
        for _ in 0..15 {
            a.record(900.0);
        }
        assert_eq!(a.count(), 1000);
        assert!((9.0..11.0).contains(&a.quantile(0.5)));
        assert!((800.0..1000.0).contains(&a.quantile(0.99)));
        assert!(a.quantile(0.5) <= a.quantile(0.99));
    }

    #[test]
    fn interpolation_moves_with_the_rank() {
        let mut h = LogLinearHist::new(1.0);
        for _ in 0..10 {
            h.record(1000.0);
        }
        assert!(h.quantile(0.2) < h.quantile(0.9));
        assert_eq!(LogLinearHist::new(1.0).quantile(0.5), 0.0);
    }
}
