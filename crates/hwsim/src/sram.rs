//! Synchronous-SRAM / FPGA lookup pipeline model.
//!
//! The paper's hardware prototype stores the serialized prefix DAG in
//! SRAM clocked synchronously with the lookup logic, so every hop of the
//! traversal costs exactly one clock. An IP lookup therefore takes
//! `pipeline overhead + number of memory words touched` cycles; the paper
//! measures 7.1 cycles on average for taz (λ = 11, average folded depth
//! ≈ 3.7, plus the root-array fetch and pipeline stages).

use fib_core::FibLookup;
use fib_trie::Address;

/// Parameters of the modeled hardware.
#[derive(Clone, Copy, Debug)]
pub struct SramModel {
    /// Clock frequency in MHz (the paper's Virtex-II Pro ran around
    /// 100 MHz; modern parts reach GHz — §5.3's scaling argument).
    pub clock_mhz: f64,
    /// Fixed pipeline cycles per lookup (input registration, bit slicing,
    /// output mux).
    pub pipeline_cycles: f64,
    /// Clocks per SRAM word fetch (1 for true synchronous SRAM).
    pub cycles_per_access: f64,
}

impl Default for SramModel {
    fn default() -> Self {
        Self {
            clock_mhz: 100.0,
            pipeline_cycles: 2.0,
            cycles_per_access: 1.0,
        }
    }
}

/// Result of replaying a trace through the model.
#[derive(Clone, Copy, Debug)]
pub struct SramReport {
    /// Mean cycles per lookup.
    pub avg_cycles: f64,
    /// Worst-case cycles observed.
    pub max_cycles: f64,
    /// Million lookups per second at the configured clock.
    pub mlps: f64,
    /// Number of lookups replayed.
    pub lookups: u64,
}

impl SramModel {
    /// Replays `addrs` through a memory-traced engine and aggregates the
    /// cycle counts.
    ///
    /// # Panics
    /// Panics if the engine does not produce memory traces (the model
    /// would silently report pipeline-only numbers otherwise).
    pub fn replay<A: Address, E: FibLookup<A> + ?Sized>(
        &self,
        engine: &E,
        addrs: impl IntoIterator<Item = A>,
    ) -> SramReport {
        assert!(
            engine.traces_memory(),
            "engine '{}' has no memory instrumentation",
            engine.name()
        );
        let mut total = 0.0;
        let mut max: f64 = 0.0;
        let mut lookups = 0u64;
        for addr in addrs {
            let mut accesses = 0u64;
            engine.lookup_traced(addr, &mut |_, _| accesses += 1);
            let cycles = self.pipeline_cycles + self.cycles_per_access * accesses as f64;
            total += cycles;
            max = max.max(cycles);
            lookups += 1;
        }
        let avg = if lookups == 0 {
            0.0
        } else {
            total / lookups as f64
        };
        SramReport {
            avg_cycles: avg,
            max_cycles: max,
            mlps: if avg == 0.0 {
                0.0
            } else {
                self.clock_mhz / avg
            },
            lookups,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fib_core::{PrefixDag, SerializedDag};
    use fib_trie::{BinaryTrie, NextHop, Prefix4};
    use fib_workload::rng::Xoshiro256;
    use fib_workload::FibSpec;

    fn sample_fib() -> BinaryTrie<u32> {
        let mut rng = Xoshiro256::seed_from_u64(11);
        FibSpec::dfz_like(20_000).generate(&mut rng)
    }

    #[test]
    fn cycles_track_depth_plus_overhead() {
        let trie = sample_fib();
        let dag = PrefixDag::from_trie(&trie, 11);
        let ser = SerializedDag::from_dag(&dag);
        let mut rng = Xoshiro256::seed_from_u64(12);
        let addrs = fib_workload::traces::uniform::<u32, _>(&mut rng, 2000);
        let (avg_depth, _) = ser.depth_stats(addrs.iter().copied());
        let report = SramModel::default().replay(&ser, addrs.iter().copied());
        // accesses = 1 (root entry) + depth; cycles = 2 + accesses.
        let expected = 2.0 + 1.0 + avg_depth;
        assert!(
            (report.avg_cycles - expected).abs() < 1e-9,
            "avg {} vs expected {expected}",
            report.avg_cycles
        );
        assert!(report.mlps > 0.0);
        assert_eq!(report.lookups, 2000);
    }

    #[test]
    fn single_level_fib_is_near_pipeline_floor() {
        // Default route only: the root-array fetch answers immediately.
        let mut trie: BinaryTrie<u32> = BinaryTrie::new();
        trie.insert("0.0.0.0/0".parse::<Prefix4>().unwrap(), NextHop::new(1));
        let ser = SerializedDag::from_dag(&PrefixDag::from_trie(&trie, 11));
        let report = SramModel::default().replay(&ser, [0u32, 1, 2, u32::MAX]);
        assert!(
            (report.avg_cycles - 3.0).abs() < 1e-9,
            "2 pipeline + 1 fetch"
        );
        assert!((report.max_cycles - 3.0).abs() < 1e-9);
    }

    #[test]
    fn faster_clock_scales_mlps_linearly() {
        let trie = sample_fib();
        let ser = SerializedDag::from_dag(&PrefixDag::from_trie(&trie, 11));
        let addrs: Vec<u32> = (0..500u32).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
        let slow = SramModel {
            clock_mhz: 100.0,
            ..SramModel::default()
        }
        .replay(&ser, addrs.iter().copied());
        let fast = SramModel {
            clock_mhz: 1000.0,
            ..SramModel::default()
        }
        .replay(&ser, addrs.iter().copied());
        assert!((fast.mlps / slow.mlps - 10.0).abs() < 1e-9);
    }

    #[test]
    fn multibit_dag_cuts_cycles_as_conjectured() {
        // The paper's §7: multibit DAGs should improve lookup time. In the
        // SRAM cycle model the stride-8 DAG must beat the stride-1 DAG by
        // several cycles on average.
        let trie = sample_fib();
        let narrow = fib_core::MultibitDag::from_trie(&trie, 1);
        let wide = fib_core::MultibitDag::from_trie(&trie, 8);
        let addrs: Vec<u32> = (0..2000u32).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
        let model = SramModel::default();
        let slow = model.replay(&narrow, addrs.iter().copied());
        let fast = model.replay(&wide, addrs.iter().copied());
        assert!(
            fast.avg_cycles + 2.0 < slow.avg_cycles,
            "stride 8 ({:.1} cyc) must beat stride 1 ({:.1} cyc)",
            fast.avg_cycles,
            slow.avg_cycles
        );
        assert!(fast.mlps > slow.mlps);
    }

    #[test]
    #[should_panic(expected = "no memory instrumentation")]
    fn untraced_engine_is_rejected() {
        let trie = sample_fib();
        let dag = PrefixDag::from_trie(&trie, 11);
        // The pointer-machine DAG has no trace; only the serialized one does.
        let _ = SramModel::default().replay(&dag, [0u32]);
    }
}
