//! The storage subsystem end to end: persist an instance's CSR snapshot,
//! reload it, evaluate protector candidates over a zero-clone overlay, and
//! run the greedy planner through the snapshot evaluator.
//!
//! ```sh
//! cargo run --release --example snapshot_store
//! ```

use tpp::prelude::*;
use tpp_store::{format, CsrGraph, DeltaView, NeighborAccess, VerifyMode};

fn main() {
    // A social graph with two sensitive links to hide.
    let g = tpp::datasets::karate_club();
    let targets = vec![Edge::new(0, 1), Edge::new(32, 33)];
    let instance = TppInstance::new(g, targets).unwrap();

    // The released (phase-1) graph is an overlay over the original
    // snapshot; write it out as a snapshot of its own and round-trip it
    // through the binary format.
    let snapshot = CsrGraph::from_access(instance.released());
    let path = std::env::temp_dir().join("karate.csr");
    format::save(&snapshot, None, &path).expect("save snapshot");
    let loaded = format::load_mapped(&path, VerifyMode::Full).expect("load snapshot");
    std::fs::remove_file(&path).ok();
    assert_eq!(snapshot, loaded);
    println!(
        "snapshot: {} nodes / {} edges, round-tripped through {:?}",
        loaded.node_count(),
        loaded.edge_count(),
        path.file_name().unwrap()
    );

    // What-if evaluation over an overlay: no clone, no base mutation.
    let mut view = DeltaView::new(&loaded);
    let probe = Edge::new(0, 2);
    let before = view.common_neighbor_count(0, 1);
    view.delete_edge(probe);
    let after = view.common_neighbor_count(0, 1);
    view.restore_edge(probe);
    println!("deleting {probe} would cut triangle evidence on (0,1): {before} -> {after}");
    assert!(!view.is_dirty());

    // The greedy planner over the snapshot evaluator matches the coverage
    // index path pick for pick.
    let k = 8;
    let via_snapshot = sgb_greedy(&instance, k, &GreedyConfig::snapshot(Motif::Triangle));
    let via_index = sgb_greedy(&instance, k, &GreedyConfig::scalable(Motif::Triangle));
    assert_eq!(via_snapshot.protectors, via_index.protectors);
    println!(
        "sgb over snapshot overlay: similarity {} -> {} with {} deletions (identical to index path)",
        via_snapshot.initial_similarity,
        via_snapshot.final_similarity,
        via_snapshot.deletions()
    );
}
