//! Bottom-up node summaries — the `calcNode` kernel of Table 2.
//!
//! Computes, for every tree node, the total mass, the centre of mass and
//! the bounding radius `b_J` of its matter (the "size of the group of
//! distant particles" in the MAC, Eq. 2). GOTHIC processes the tree level
//! by level from the leaves upward, separating levels with grid-wide
//! synchronizations (21 per step on the M31 model — Appendix A); we
//! mirror that: each level is one parallel pass, and the pass count is
//! recorded as `grid_syncs`.

use crate::fit;
use crate::tree::{Octree, NO_CHILD};
use gpu_model::CalcNodeEvents;
use nbody::{Real, Vec3};
use parallel::{DisjointSlice, DEFAULT_CHUNK};

/// Size `tree.com`, `tree.mass` and `tree.bmax` to the node count and
/// fill every entry. `pos`/`mass` must be the Morton-ordered particle
/// arrays the tree was built over. Returns the event counts for the
/// performance model.
pub fn calc_node(tree: &mut Octree, pos: &[Vec3], mass: &[Real]) -> CalcNodeEvents {
    assert_eq!(pos.len(), tree.keys.len());
    let nodes = tree.n_nodes();
    fit(&mut tree.com, nodes, Vec3::ZERO);
    fit(&mut tree.mass, nodes, 0.0);
    fit(&mut tree.bmax, nodes, 0.0);

    // Per-level bottom-up passes. Within a level, nodes only read their
    // children (strictly deeper level) or their own particles, so each
    // pass parallelises freely and writes its own nodes in place.
    for l in (0..tree.n_levels()).rev() {
        let lo = tree.level_start[l] as usize;
        let hi = tree.level_start[l + 1] as usize;

        // Split borrows: children of level-l nodes live at indices >= hi
        // (BFS layout), read-only; the level's own nodes are written.
        let (com_lo, com_hi) = tree.com.split_at_mut(hi);
        let (mass_lo, mass_hi) = tree.mass.split_at_mut(hi);
        let (bmax_lo, bmax_hi) = tree.bmax.split_at_mut(hi);
        let (com_hi, mass_hi, bmax_hi) = (&com_hi[..], &mass_hi[..], &bmax_hi[..]);
        let com_out = DisjointSlice::new(&mut com_lo[lo..]);
        let mass_out = DisjointSlice::new(&mut mass_lo[lo..]);
        let bmax_out = DisjointSlice::new(&mut bmax_lo[lo..]);
        let (child_start, child_count) = (&tree.child_start, &tree.child_count);
        let (pstart, pcount) = (&tree.pstart, &tree.pcount);

        let summary = |v: usize| -> (Vec3, Real, Real) {
            if child_start[v] == NO_CHILD {
                let ps = pstart[v] as usize..(pstart[v] + pcount[v]) as usize;
                let (m, com) = mass_centre(pos[ps.clone()].iter().zip(&mass[ps.clone()]));
                let b = pos[ps]
                    .iter()
                    .fold(0.0, |b: Real, p| b.max((*p - com).norm()));
                (com, m, b)
            } else {
                let first = child_start[v] as usize - hi;
                let kids = first..first + child_count[v] as usize;
                let (m, com) = mass_centre(com_hi[kids.clone()].iter().zip(&mass_hi[kids.clone()]));
                let b = com_hi[kids.clone()]
                    .iter()
                    .zip(&bmax_hi[kids])
                    .fold(0.0, |b: Real, (c, cb)| b.max((*c - com).norm() + cb));
                (com, m, b)
            }
        };
        // Each node's summary is self-contained, so the level is
        // bit-identical at any thread count.
        parallel::run_chunked((hi - lo).div_ceil(DEFAULT_CHUNK), |c| {
            let first = c * DEFAULT_CHUNK;
            for k in first..(first + DEFAULT_CHUNK).min(hi - lo) {
                let (com, m, b) = summary(lo + k);
                // SAFETY: `k` lies in chunk `c`'s own range of the level,
                // which is inside all three outputs; chunk ranges are
                // disjoint and each chunk is claimed once.
                unsafe {
                    com_out.write(k, com);
                    mass_out.write(k, m);
                    bmax_out.write(k, b);
                }
            }
        });
    }
    CalcNodeEvents {
        nodes: nodes as u64,
        // Every particle is accumulated once, at its leaf, and every node
        // but the root once, into its parent.
        child_accumulations: (pos.len() + nodes - 1) as u64,
        levels: tree.n_levels() as u64,
        // One grid barrier after every level pass, plus the initial leaf
        // pass — matching GOTHIC's per-step count (~ tree depth).
        grid_syncs: tree.n_levels() as u64 + 1,
    }
}

/// Total mass and centre of mass of `(position, mass)` points, summed in
/// f64 in order; the centre is zero for zero mass.
fn mass_centre<'a>(points: impl Iterator<Item = (&'a Vec3, &'a Real)>) -> (Real, Vec3) {
    let mut m = 0.0f64;
    let mut c = [0.0f64; 3];
    for (p, &pm) in points {
        let pm = pm as f64;
        m += pm;
        c[0] += pm * p.x as f64;
        c[1] += pm * p.y as f64;
        c[2] += pm * p.z as f64;
    }
    let com = if m > 0.0 {
        Vec3::new((c[0] / m) as Real, (c[1] / m) as Real, (c[2] / m) as Real)
    } else {
        Vec3::ZERO
    };
    (m as Real, com)
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
