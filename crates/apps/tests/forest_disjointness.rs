//! Soundness of the static disjointness test on real region forests.
//!
//! `RegionForest::provably_disjoint` walks both regions up to their
//! lowest common ancestor without allocating. On every region pair of
//! the stencil, pennant and circuit forests — as the applications build
//! them and after control replication adds its own partitions — it must
//! (1) be sound: a static `true` on two regions of one tree implies
//! their domains really are disjoint, and (2) agree exactly with the
//! reference formulation below, which materializes both root-to-region
//! paths and compares them level by level.

use regent_apps::{circuit, pennant, stencil};
use regent_cr::{control_replicate, CrOptions};
use regent_ir::Program;
use regent_region::{Disjointness, PartitionId, RegionForest, RegionId};

/// Reference: the root-to-region path of `(partition, color, region)`
/// links, compared position by position until the paths diverge.
fn reference_disjoint(f: &RegionForest, a: RegionId, b: RegionId) -> bool {
    if a == b {
        return false;
    }
    if f.root_of(a) != f.root_of(b) {
        return true;
    }
    let path = |mut r: RegionId| {
        let mut out: Vec<(PartitionId, regent_region::Color, RegionId)> = Vec::new();
        while let Some((p, c)) = f.region(r).parent {
            out.push((p, c, r));
            r = f.partition(p).parent;
        }
        out.reverse();
        out
    };
    let (pa, pb) = (path(a), path(b));
    let mut i = 0;
    while i < pa.len() && i < pb.len() && pa[i].2 == pb[i].2 {
        i += 1;
    }
    if i >= pa.len() || i >= pb.len() {
        return false;
    }
    let ((p1, c1, _), (p2, c2, _)) = (pa[i], pb[i]);
    p1 == p2 && c1 != c2 && f.partition(p1).disjointness == Disjointness::Disjoint
}

/// Checks every ordered region pair of `f`; returns how many same-tree
/// pairs the static test proved disjoint.
fn check_forest(label: &str, f: &RegionForest) -> usize {
    let n = f.num_regions() as u32;
    let mut proven = 0;
    for a in (0..n).map(RegionId) {
        for b in (0..n).map(RegionId) {
            let fast = f.provably_disjoint(a, b);
            assert_eq!(
                fast,
                reference_disjoint(f, a, b),
                "{label}: {a:?} vs {b:?} disagrees with the reference"
            );
            // Different trees are separate index spaces: their domains
            // may coincide numerically without sharing elements.
            if fast && f.root_of(a) == f.root_of(b) {
                assert!(
                    f.dynamically_disjoint(a, b),
                    "{label}: {a:?} and {b:?} proven disjoint but their domains overlap"
                );
                proven += 1;
            }
        }
    }
    proven
}

/// Checks the application's forest and its control-replicated forest.
fn check_program(label: &str, prog: Program) {
    let proven = check_forest(label, &prog.forest);
    assert!(proven > 0, "{label}: no pair was proven disjoint");
    let spmd = control_replicate(prog, &CrOptions::new(3)).expect("replicable");
    check_forest(&format!("{label} (replicated)"), &spmd.forest);
}

#[test]
fn stencil_forest_disjointness_is_sound() {
    let cfg = stencil::StencilConfig {
        n: 40,
        ntx: 4,
        nty: 2,
        radius: 2,
        steps: 1,
    };
    check_program("stencil", stencil::stencil_program(cfg).0);
}

#[test]
fn pennant_forest_disjointness_is_sound() {
    let cfg = pennant::PennantConfig {
        nzx: 10,
        nzy: 5,
        pieces: 3,
        tstop: 3e-2,
        dtmax: 2e-2,
    };
    let mesh = pennant::build_mesh(&cfg);
    check_program("pennant", pennant::pennant_program(cfg, &mesh).0);
}

#[test]
fn circuit_forest_disjointness_is_sound() {
    let cfg = circuit::CircuitConfig {
        pieces: 6,
        nodes_per_piece: 30,
        wires_per_piece: 90,
        cross_fraction: 0.12,
        steps: 1,
        substeps: 1,
        seed: 3,
    };
    let g = circuit::generate_graph(&cfg);
    check_program("circuit", circuit::circuit_program(cfg, &g).0);
}
