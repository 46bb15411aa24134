//! End-to-end pipeline test: a FIB travels through every interchange
//! format in the workspace — text routes → trie → aggregation →
//! compression → binary image → decode — and still forwards identically.

use fibcomp::core::{write_image, FibImage, ImageCodec, PrefixDag, SerializedDag};
use fibcomp::trie::{io, ortc, BinaryTrie};
use fibcomp::workload::rng::Xoshiro256;
use fibcomp::workload::{traces, FibSpec};

#[test]
fn text_to_wire_image_roundtrip() {
    let mut rng = Xoshiro256::seed_from_u64(99);
    let original: BinaryTrie<u32> = FibSpec::dfz_like(5_000).generate(&mut rng);

    // 1. Export to the tabular text format and re-import.
    let text = io::format_routes(original.iter());
    let reimported: BinaryTrie<u32> = io::parse_routes::<u32>(&text)
        .expect("own output parses")
        .into_iter()
        .collect();

    // 2. Aggregate with ORTC, rebuild a trie from the minimal route set.
    let aggregated = ortc::compress(&reimported);
    let minimal = aggregated
        .to_trie()
        .expect("partition FIBs need no blackhole entries");
    assert!(minimal.len() <= reimported.len());

    // 3. Fold, serialize to the wire image, encode to bytes, decode.
    let dag = PrefixDag::from_trie(&minimal, 11);
    let bytes = write_image(&SerializedDag::from_dag(&dag), None, 0).expect("image encodes");
    let image = FibImage::from_bytes(&bytes).expect("image decodes");
    let wire = <SerializedDag<u32> as ImageCodec<u32>>::view(&image).expect("view assembles");

    // 4. The decoded image forwards exactly like the original FIB.
    let keys = traces::uniform::<u32, _>(&mut rng, 5_000);
    for k in keys {
        assert_eq!(
            wire.lookup(k),
            original.lookup(k),
            "divergence at {k:#010x}"
        );
    }
}

#[test]
fn updates_survive_the_pipeline() {
    // Updates applied to the DAG must be visible after image export.
    let mut rng = Xoshiro256::seed_from_u64(100);
    let base: BinaryTrie<u32> = FibSpec::dfz_like(2_000).generate(&mut rng);
    let mut dag = PrefixDag::from_trie(&base, 11);
    let updates = fibcomp::workload::updates::bgp_sequence(&mut rng, &base, 1_000);
    for op in &updates {
        match *op {
            fibcomp::workload::updates::UpdateOp::Announce(p, nh) => {
                dag.insert(p, nh);
            }
            fibcomp::workload::updates::UpdateOp::Withdraw(p) => {
                dag.remove(p);
            }
        }
    }
    let bytes = write_image(&SerializedDag::from_dag(&dag), None, 0).expect("image encodes");
    let image = FibImage::from_bytes(&bytes).expect("image decodes");
    let wire = <SerializedDag<u32> as ImageCodec<u32>>::view(&image).expect("view assembles");
    for k in traces::uniform::<u32, _>(&mut rng, 3_000) {
        assert_eq!(wire.lookup(k), dag.control().lookup(k), "at {k:#010x}");
    }
}
