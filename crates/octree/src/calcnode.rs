//! Bottom-up node summaries — the `calcNode` kernel of Table 2.
//!
//! Computes, for every tree node, the total mass, the centre of mass and
//! the bounding radius `b_J` of its matter (the "size of the group of
//! distant particles" in the MAC, Eq. 2). GOTHIC processes the tree level
//! by level from the leaves upward, separating levels with grid-wide
//! synchronizations (21 per step on the M31 model — Appendix A); we
//! mirror that: each level is one parallel pass, and the pass count is
//! recorded as `grid_syncs`.

use crate::tree::Octree;
use gpu_model::CalcNodeEvents;
use nbody::{Real, Vec3};

/// Size `tree.com`, `tree.mass` and `tree.bmax` to the node count and
/// fill every entry. `pos`/`mass` must be the Morton-ordered particle
/// arrays the tree was built over. Returns the event counts for the
/// performance model.
pub fn calc_node(tree: &mut Octree, pos: &[Vec3], mass: &[Real]) -> CalcNodeEvents {
    assert_eq!(pos.len(), tree.keys.len());
    let nodes = tree.n_nodes();
    tree.com.resize(nodes, Vec3::ZERO);
    tree.mass.resize(nodes, 0.0);
    tree.bmax.resize(nodes, 0.0);
    let mut events = CalcNodeEvents {
        nodes: nodes as u64,
        child_accumulations: 0,
        levels: tree.n_levels() as u64,
        // One grid barrier after every level pass, plus the initial leaf
        // pass — matching GOTHIC's per-step count (~ tree depth).
        grid_syncs: tree.n_levels() as u64 + 1,
    };

    // Per-level bottom-up passes. Within a level, nodes only read their
    // children (strictly deeper level) or their own particles, so each
    // pass parallelises freely.
    let mut accum = 0u64;
    for l in (0..tree.n_levels()).rev() {
        let lo = tree.level_start[l] as usize;
        let hi = tree.level_start[l + 1] as usize;

        // Split borrows: children of level-l nodes live at indices >= hi.
        let (com_lo, com_hi) = tree.com.split_at_mut(hi);
        let (mass_lo, mass_hi) = tree.mass.split_at_mut(hi);
        let (bmax_lo, bmax_hi) = tree.bmax.split_at_mut(hi);
        let child_start = &tree.child_start;
        let child_count = &tree.child_count;
        let pstart = &tree.pstart;
        let pcount = &tree.pcount;

        // Parallel map over the level's nodes (children are read-only),
        // then a serial chunk-ordered write-back — bit-identical at any
        // thread count because each node's summary is self-contained.
        let com_hi = &com_hi[..];
        let mass_hi = &mass_hi[..];
        let bmax_hi = &bmax_hi[..];
        let summaries: Vec<(Vec3, Real, Real, u64)> = parallel::map_range(lo..hi, |v| {
            let leaf = child_start[v] == crate::tree::NO_CHILD;
            let mut m = 0.0f64;
            let mut c = [0.0f64; 3];
            let mut pairs = 0u64;
            if leaf {
                for p in pstart[v] as usize..(pstart[v] + pcount[v]) as usize {
                    let pm = mass[p] as f64;
                    m += pm;
                    c[0] += pm * pos[p].x as f64;
                    c[1] += pm * pos[p].y as f64;
                    c[2] += pm * pos[p].z as f64;
                    pairs += 1;
                }
            } else {
                let s = child_start[v] as usize;
                for ci in s..s + child_count[v] as usize {
                    // Children are below `hi` in index? No: children
                    // have larger ids (BFS layout) — they live in the
                    // `_hi` halves.
                    let cm = mass_hi[ci - hi] as f64;
                    let cc = com_hi[ci - hi];
                    m += cm;
                    c[0] += cm * cc.x as f64;
                    c[1] += cm * cc.y as f64;
                    c[2] += cm * cc.z as f64;
                    pairs += 1;
                }
            }
            let com = if m > 0.0 {
                Vec3::new((c[0] / m) as Real, (c[1] / m) as Real, (c[2] / m) as Real)
            } else {
                Vec3::ZERO
            };
            // Bounding radius of the node's matter around the COM.
            let mut b: Real = 0.0;
            if leaf {
                let range = pstart[v] as usize..(pstart[v] + pcount[v]) as usize;
                for pp in &pos[range] {
                    b = b.max((*pp - com).norm());
                }
            } else {
                let s = child_start[v] as usize;
                for ci in s..s + child_count[v] as usize {
                    b = b.max((com_hi[ci - hi] - com).norm() + bmax_hi[ci - hi]);
                }
            }
            (com, m as Real, b, pairs)
        });
        for (off, &(com, m, b, pairs)) in summaries.iter().enumerate() {
            com_lo[lo + off] = com;
            mass_lo[lo + off] = m;
            bmax_lo[lo + off] = b;
            accum += pairs;
        }
    }
    events.child_accumulations = accum;
    events
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::morton::cell_size;
    use crate::tree::{build_tree, BuildConfig};
    use nbody::ParticleSet;
    use prng::prelude::*;

    fn tree_fixture(n: usize, seed: u64) -> (ParticleSet, Octree, CalcNodeEvents) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ps = ParticleSet::with_capacity(n);
        for _ in 0..n {
            let p = Vec3::new(rng.random(), rng.random(), rng.random());
            ps.push(p, Vec3::ZERO, rng.random::<Real>() + 0.1);
        }
        let mut tree = build_tree(&mut ps, &BuildConfig::default());
        let ev = calc_node(&mut tree, &ps.pos, &ps.mass);
        (ps, tree, ev)
    }

    #[test]
    fn root_mass_equals_total_mass() {
        let (ps, tree, _) = tree_fixture(3000, 1);
        let total = ps.total_mass();
        assert!(
            ((tree.mass[0] as f64 - total) / total).abs() < 1e-5,
            "root {} vs total {}",
            tree.mass[0],
            total
        );
    }

    #[test]
    fn root_com_matches_direct_computation() {
        let (ps, tree, _) = tree_fixture(2000, 2);
        let mut c = [0.0f64; 3];
        let mut m = 0.0f64;
        for i in 0..ps.len() {
            let pm = ps.mass[i] as f64;
            m += pm;
            c[0] += pm * ps.pos[i].x as f64;
            c[1] += pm * ps.pos[i].y as f64;
            c[2] += pm * ps.pos[i].z as f64;
        }
        for (k, want) in c.iter().enumerate() {
            let got = tree.com[0][k] as f64 * m;
            assert!((got - want).abs() / want.abs().max(1e-9) < 1e-4);
        }
    }

    #[test]
    fn every_internal_node_mass_is_sum_of_children() {
        let (_, tree, _) = tree_fixture(4000, 3);
        for v in 0..tree.n_nodes() {
            if tree.is_leaf(v) {
                continue;
            }
            let kids_mass: f64 = tree.children(v).map(|c| tree.mass[c] as f64).sum();
            let rel = ((tree.mass[v] as f64 - kids_mass) / kids_mass).abs();
            assert!(rel < 1e-5, "node {v}");
        }
    }

    #[test]
    fn bmax_bounds_all_subtree_particles() {
        let (ps, tree, _) = tree_fixture(2500, 4);
        for v in 0..tree.n_nodes() {
            let com = tree.com[v];
            let b = tree.bmax[v];
            for p in tree.particles(v) {
                let d = (ps.pos[p] - com).norm();
                assert!(
                    d <= b * (1.0 + 1e-4) + 1e-6,
                    "particle {p} at {d} beyond bmax {b} of node {v}"
                );
            }
        }
    }

    #[test]
    fn bmax_is_within_cell_diagonal() {
        // The bounding radius never exceeds (much) the cell diagonal —
        // sanity against runaway accumulation.
        let (_, tree, _) = tree_fixture(2500, 5);
        for v in 0..tree.n_nodes() {
            let diag = cell_size(tree.level[v] as u32, &tree.cube) * 3.0f32.sqrt();
            assert!(tree.bmax[v] <= diag * 1.01, "node {v}");
        }
    }

    #[test]
    fn events_count_levels_and_pairs() {
        let (_, tree, ev) = tree_fixture(3000, 6);
        assert_eq!(ev.levels as usize, tree.n_levels());
        assert_eq!(ev.grid_syncs as usize, tree.n_levels() + 1);
        assert_eq!(ev.nodes, tree.n_nodes() as u64);
        // Pairs: every particle counted once at its leaf + every child
        // link once.
        let internal_links: u64 = (0..tree.n_nodes())
            .filter(|&v| !tree.is_leaf(v))
            .map(|v| tree.child_count[v] as u64)
            .sum();
        assert_eq!(ev.child_accumulations, 3000 + internal_links);
    }

    #[test]
    fn singleton_leaf_has_zero_bmax() {
        let mut ps = ParticleSet::with_capacity(2);
        ps.push(Vec3::ZERO, Vec3::ZERO, 1.0);
        ps.push(Vec3::splat(1.0), Vec3::ZERO, 1.0);
        let mut tree = build_tree(&mut ps, &BuildConfig { leaf_cap: 1 });
        calc_node(&mut tree, &ps.pos, &ps.mass);
        for v in 0..tree.n_nodes() {
            if tree.is_leaf(v) && tree.pcount[v] == 1 {
                assert_eq!(tree.bmax[v], 0.0);
            }
        }
    }
}
