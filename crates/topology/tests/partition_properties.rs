//! Property-based tests of the switch-graph partitioner: every
//! partitioner output must be a total, disjoint cover of the switch
//! set, and its boundary-link enumeration must match the ground-truth
//! cut edges — on meshes, tori and rings of random sizes and random
//! shard counts.

use nocem_common::choice::check;
use nocem_topology::builders::{mesh, ring, star, torus};
use nocem_topology::graph::Topology;
use nocem_topology::partition::{grid_stripes, PartitionMap};
use std::collections::HashSet;

/// The cover property: every switch is owned by exactly one shard,
/// shard lists are disjoint, their union is the full switch set, and
/// no shard is empty.
fn assert_total_disjoint_cover(topo: &Topology, map: &PartitionMap) {
    let mut owner_count = vec![0usize; topo.switch_count()];
    for k in 0..map.shards() {
        let switches = map.switches_of(k);
        assert!(!switches.is_empty(), "shard {k} owns no switch");
        for s in switches {
            assert_eq!(
                map.shard_of(s),
                k,
                "{s} listed under shard {k} but assigned elsewhere"
            );
            owner_count[s.index()] += 1;
        }
    }
    assert!(
        owner_count.iter().all(|&c| c == 1),
        "cover is not total and disjoint: ownership counts {owner_count:?}"
    );
}

/// The boundary property: the partitioner's enumeration (driven by the
/// per-switch neighbour tables) equals an independent scan of the raw
/// link list for inter-switch links whose ends live in different
/// shards — and contains no duplicates.
fn assert_boundary_matches_ground_truth(topo: &Topology, map: &PartitionMap) {
    let enumerated = map.boundary_links(topo);
    let as_set: HashSet<_> = enumerated.iter().copied().collect();
    assert_eq!(as_set.len(), enumerated.len(), "duplicate boundary links");
    let ground_truth: HashSet<_> = topo
        .links()
        .filter(|l| match (l.from_switch(), l.to_switch()) {
            (Some(a), Some(b)) => map.shard_of(a) != map.shard_of(b),
            _ => false,
        })
        .map(|l| l.id)
        .collect();
    assert_eq!(as_set, ground_truth, "boundary enumeration != cut edges");
    // Injection/ejection links never cross (endpoints follow their
    // switch into its shard).
    for e in topo.endpoint_ids() {
        assert!(!as_set.contains(&topo.endpoint(e).link));
    }
}

fn stripes_cover_and_cut(topo: &Topology, shards: usize) {
    let shards = shards.clamp(1, topo.switch_count());
    let map = grid_stripes(topo, shards).expect("feasible request");
    assert_eq!(map.shards(), shards);
    assert_total_disjoint_cover(topo, &map);
    assert_boundary_matches_ground_truth(topo, &map);
}

/// Meshes of any size partition into any feasible shard count.
#[test]
fn mesh_partitions_cover_and_cut() {
    check("mesh_partitions_cover_and_cut", 0..24, |c| {
        let (w, h, k) = (c.range(1u32..9), c.range(1u32..9), c.range(1usize..8));
        stripes_cover_and_cut(&mesh(w, h).unwrap(), k);
        Ok(())
    });
}

/// Tori too — their wrap-around links join the cut whenever the
/// stripes split the wrapped dimension.
#[test]
fn torus_partitions_cover_and_cut() {
    check("torus_partitions_cover_and_cut", 0..24, |c| {
        let (w, h, k) = (c.range(2u32..8), c.range(2u32..8), c.range(1usize..8));
        stripes_cover_and_cut(&torus(w, h).unwrap(), k);
        Ok(())
    });
}

/// Rings (no grid metadata: contiguous index striping).
#[test]
fn ring_partitions_cover_and_cut() {
    check("ring_partitions_cover_and_cut", 0..24, |c| {
        let (n, k) = (c.range(2u32..24), c.range(1usize..8));
        stripes_cover_and_cut(&ring(n).unwrap(), k);
        Ok(())
    });
}

/// Stars: the pathological non-grid case (every leaf adjacent to
/// the hub), where almost every link is a cut edge.
#[test]
fn star_partitions_cover_and_cut() {
    check("star_partitions_cover_and_cut", 0..24, |c| {
        let (leaves, k) = (c.range(2u32..16), c.range(1usize..8));
        stripes_cover_and_cut(&star(leaves).unwrap(), k);
        Ok(())
    });
}
