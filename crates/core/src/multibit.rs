//! Unit tests of the fixed-stride plans (`MultibitDag::from_trie`).
//!
//! The multibit prefix DAG of the paper's §7 is [`crate::VarStrideDag`]
//! with one constant stride at every node ([`crate::StridePlan::Fixed`]);
//! there is no structure, view, kernel or codec of its own left here. The
//! tests stay in this module so they keep the ids they are tracked under:
//! every assertion the stride-`s` structure was held to now runs against
//! the vsdag emitter, walk and kernels.

#[cfg(test)]
mod tests {
    use crate::{FibLookup, MultibitDag};
    use fib_trie::{BinaryTrie, NextHop, Prefix4};

    fn nh(i: u32) -> NextHop {
        NextHop::new(i)
    }

    fn p(s: &str) -> Prefix4 {
        s.parse().unwrap()
    }

    fn fig1_trie() -> BinaryTrie<u32> {
        [
            (p("0.0.0.0/0"), nh(2)),
            (p("0.0.0.0/1"), nh(3)),
            (p("0.0.0.0/2"), nh(3)),
            (p("32.0.0.0/3"), nh(2)),
            (p("64.0.0.0/2"), nh(2)),
            (p("96.0.0.0/3"), nh(1)),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn equivalence_across_strides() {
        let trie = fig1_trie();
        for stride in [1u8, 2, 3, 4, 5, 8, 11, 16] {
            let mb = MultibitDag::from_trie(&trie, stride);
            for i in 0..3000u32 {
                let addr = i.wrapping_mul(0x9E37_79B9);
                assert_eq!(
                    mb.lookup(addr),
                    trie.lookup(addr),
                    "s={stride} addr {addr:#x}"
                );
            }
        }
    }

    #[test]
    fn stride_one_matches_binary_dag_node_count() {
        // Stride 1 is a binary DAG over the normal form: its interior
        // count equals the λ=0 PrefixDag's folded interiors.
        let trie = fig1_trie();
        let mb = MultibitDag::from_trie(&trie, 1);
        let dag = crate::pdag::PrefixDag::from_trie(&trie, 0);
        assert_eq!(mb.node_count(), dag.stats().folded_interior);
    }

    #[test]
    fn deeper_strides_reduce_depth() {
        let mut trie: BinaryTrie<u32> = BinaryTrie::new();
        trie.insert(p("0.0.0.0/0"), nh(0));
        for i in 0..512u32 {
            trie.insert(Prefix4::new(i << 15, 17), nh(1 + i % 3));
        }
        let (d1, m1) = MultibitDag::from_trie(&trie, 1).depth_stats();
        let (d4, m4) = MultibitDag::from_trie(&trie, 4).depth_stats();
        let (d8, m8) = MultibitDag::from_trie(&trie, 8).depth_stats();
        assert!(d4 < d1 && d8 < d4, "avg depth must fall: {d1} {d4} {d8}");
        assert!(m4 <= m1 && m8 <= m4, "max depth must fall: {m1} {m4} {m8}");
        assert!(m8 <= 3, "17-bit prefixes in ≤3 byte-wide hops, got {m8}");
    }

    #[test]
    fn identical_subtries_share_across_strides() {
        let mut trie: BinaryTrie<u32> = BinaryTrie::new();
        for base in 0..32u32 {
            trie.insert(Prefix4::new(base << 27, 5), nh(1));
            trie.insert(Prefix4::new(base << 27 | (1 << 26), 6), nh(2));
        }
        // All 32 /5-subtries are identical; with stride 5 the level below
        // the root must be one shared node (or leaf refs).
        let mb = MultibitDag::from_trie(&trie, 5);
        assert!(
            mb.node_count() <= 3,
            "expected heavy sharing, got {} nodes",
            mb.node_count()
        );
    }

    #[test]
    fn bottom_resolves_to_none() {
        let mut trie: BinaryTrie<u32> = BinaryTrie::new();
        trie.insert(p("128.0.0.0/1"), nh(1));
        for stride in [1u8, 4, 7] {
            let mb = MultibitDag::from_trie(&trie, stride);
            assert_eq!(mb.lookup(0x0000_0001), None, "s={stride}");
            assert_eq!(mb.lookup(0xF000_0000), Some(nh(1)), "s={stride}");
        }
    }

    #[test]
    fn empty_fib() {
        let mb = MultibitDag::from_trie(&BinaryTrie::<u32>::new(), 4);
        assert_eq!(mb.lookup(42), None);
        assert_eq!(mb.node_count(), 0);
        assert_eq!(mb.size_bytes(), 0);
    }

    #[test]
    fn host_routes_at_full_width() {
        let mut trie: BinaryTrie<u32> = BinaryTrie::new();
        trie.insert(p("0.0.0.0/0"), nh(1));
        trie.insert(p("10.0.0.1/32"), nh(2));
        for stride in [3u8, 8, 16] {
            let mb = MultibitDag::from_trie(&trie, stride);
            assert_eq!(mb.lookup(0x0A00_0001), Some(nh(2)), "s={stride}");
            assert_eq!(mb.lookup(0x0A00_0002), Some(nh(1)), "s={stride}");
            let (_, max) = mb.depth_stats();
            assert!(max <= 32u32.div_ceil(u32::from(stride)));
        }
    }

    #[test]
    fn traced_lookup_matches_plain() {
        let trie = fig1_trie();
        let mb = MultibitDag::from_trie(&trie, 4);
        // Each hop is a directory read and a block read (8 bytes each)
        // and one run read (2: four labels and a handful of nodes).
        let mut touches = 0;
        let result = mb.lookup_traced(0x6000_0000, &mut |_, size| touches += u32::from(size == 2));
        assert_eq!(result, mb.lookup(0x6000_0000));
        let (_, hops) = mb.lookup_with_depth(0x6000_0000);
        assert_eq!(touches, hops);
    }

    #[test]
    fn batch_lookup_matches_scalar_across_strides() {
        let trie = fig1_trie();
        for stride in [1u8, 3, 4, 8] {
            let mb = MultibitDag::from_trie(&trie, stride);
            for n in [0usize, 2, 4, 5, 9, 64] {
                let addrs: Vec<u32> = (0..n as u32).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
                let mut out = vec![None; n];
                mb.lookup_batch(&addrs, &mut out);
                for (a, got) in addrs.iter().zip(&out) {
                    assert_eq!(*got, mb.lookup(*a), "s={stride} addr {a:#x}");
                }
                // Oversized output buffer: every addressed slot must still
                // be written (the tails of both chunk streams must align).
                let mut big = vec![Some(NextHop::new(u32::MAX - 1)); n + 5];
                mb.lookup_batch(&addrs, &mut big);
                for (a, got) in addrs.iter().zip(&big) {
                    assert_eq!(*got, mb.lookup(*a), "s={stride} oversized at {a:#x}");
                }
            }
        }
    }

    #[test]
    fn ipv6_multibit() {
        let mut trie: BinaryTrie<u128> = BinaryTrie::new();
        let p1: fib_trie::Prefix6 = "2001:db8::/32".parse().unwrap();
        trie.insert(p1, nh(1));
        let mb = MultibitDag::from_trie(&trie, 8);
        let a: u128 = "2001:db8::1".parse::<std::net::Ipv6Addr>().unwrap().into();
        assert_eq!(mb.lookup(a), Some(nh(1)));
        let (_, max) = mb.depth_stats();
        assert!(max <= 5, "a /32 route needs ≤ 4 byte-hops, got {max}");
    }
}
