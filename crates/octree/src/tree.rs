//! Octree construction — the `makeTree` kernel of Table 2.
//!
//! GOTHIC builds a breadth-first linear octree: particles are sorted along
//! the Morton curve (radix sort of the 63-bit keys, via `devsort`), then
//! nodes are created level by level; each node owns a *contiguous* range
//! of the sorted particle array, and the children of one node are
//! contiguous in the node array. The breadth-first (level-ordered) layout
//! is what makes the per-level bottom-up `calcNode` passes and the
//! per-level grid synchronizations of Appendix A meaningful.

use crate::morton::{self, MAX_DEPTH};
use gpu_model::MakeTreeEvents;
use nbody::{Aabb, ParticleSet, Real, Vec3};

/// Sentinel for "no children".
pub const NO_CHILD: u32 = u32::MAX;

/// A breadth-first linear octree over a Morton-sorted particle set.
///
/// All per-node arrays are indexed by node id; node 0 is the root. The
/// tree holds only what the walk reads: the topology from the build and
/// the node summaries (`com`, `mass`, `bmax`) that
/// [`crate::calcnode::calc_node`] sizes and fills; they stay empty until
/// its first call. A cell's geometric centre and edge follow from its
/// first key and level ([`morton::cell_center`], [`morton::cell_size`]).
#[derive(Clone, Debug, PartialEq)]
pub struct Octree {
    /// Root cube (cubic AABB enclosing all particles).
    pub cube: Aabb,
    /// Morton keys of the (sorted) particles.
    pub keys: Vec<u64>,
    /// Tree depth of each node (root = 0).
    pub level: Vec<u8>,
    /// First particle (index into the sorted particle arrays).
    pub pstart: Vec<u32>,
    /// Number of particles in the node's subtree.
    pub pcount: Vec<u32>,
    /// First child node id, or [`NO_CHILD`] for leaves.
    pub child_start: Vec<u32>,
    /// Number of children (0..=8).
    pub child_count: Vec<u8>,
    /// Centre of mass (from `calc_node`).
    pub com: Vec<Vec3>,
    /// Total mass (from `calc_node`).
    pub mass: Vec<Real>,
    /// Bounding radius of the node's matter around `com` (from
    /// `calc_node`); plays the `b_J` role in the MAC (Eq. 2).
    pub bmax: Vec<Real>,
    /// Node id ranges per level: nodes of level `l` are
    /// `level_start[l]..level_start[l + 1]`.
    pub level_start: Vec<u32>,
    /// Build-phase event counts for the performance model.
    pub events: MakeTreeEvents,
    /// Digit passes the key sort applied; the rest of the 8 were
    /// identity passes the host sort skipped. The model still prices all
    /// 8 (`events.sort_passes`): CUB runs every pass.
    pub radix_passes: u64,
}

impl Default for Octree {
    /// An empty tree, for [`Octree::rebuild`] to build into.
    fn default() -> Self {
        Octree {
            cube: Aabb::EMPTY,
            keys: Vec::new(),
            level: Vec::new(),
            pstart: Vec::new(),
            pcount: Vec::new(),
            child_start: Vec::new(),
            child_count: Vec::new(),
            com: Vec::new(),
            mass: Vec::new(),
            bmax: Vec::new(),
            level_start: Vec::new(),
            events: MakeTreeEvents::default(),
            radix_passes: 0,
        }
    }
}

impl Octree {
    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.level.len()
    }

    /// Number of levels (root level included).
    pub fn n_levels(&self) -> usize {
        self.level_start.len() - 1
    }

    /// True when the node has no children.
    #[inline(always)]
    pub fn is_leaf(&self, node: usize) -> bool {
        self.child_start[node] == NO_CHILD
    }

    /// Child node id range of an internal node.
    #[inline(always)]
    pub fn children(&self, node: usize) -> std::ops::Range<usize> {
        let s = self.child_start[node] as usize;
        s..s + self.child_count[node] as usize
    }

    /// Particle index range of a node.
    #[inline(always)]
    pub fn particles(&self, node: usize) -> std::ops::Range<usize> {
        let s = self.pstart[node] as usize;
        s..s + self.pcount[node] as usize
    }

    /// Validate the tree; `Err` names the first violation. Index bounds
    /// come first, because the structural checks and calcNode index
    /// through them: node levels within the key depth, particle ranges
    /// inside `keys`, children after their parent and inside the node
    /// array, and `level_start` spanning every node (so calcNode refreshes
    /// them all). A corrupt tree whose node arrays share one length, as
    /// the build and the snapshot reader make them, is thus an `Err`,
    /// never a panic. Then the structure: every node's particle range is
    /// the exact union of its children's, leaves are within capacity (or
    /// at max depth), and the level layout is breadth-first.
    pub fn check_invariants(&self, leaf_cap: u32) -> Result<(), String> {
        let n = self.n_nodes();
        if n == 0 {
            return Err("empty tree".into());
        }
        if self.level_start.first() != Some(&0)
            || self.level_start.last().map(|&l| l as usize) != Some(n)
        {
            return Err(format!("level_start does not span the {n} nodes"));
        }
        for v in 0..n {
            if self.level[v] as u32 > MAX_DEPTH {
                return Err(format!("node {v} deeper than the key depth"));
            }
            if self.pstart[v] as u64 + self.pcount[v] as u64 > self.keys.len() as u64 {
                return Err(format!("node {v} particle range out of bounds"));
            }
            let (first, count) = (self.child_start[v] as usize, self.child_count[v] as usize);
            if !self.is_leaf(v) && (first <= v || count > 8 || first + count > n) {
                return Err(format!("node {v} children out of bounds"));
            }
        }
        if self.pstart[0] != 0 || self.pcount[0] as usize != self.keys.len() {
            return Err("root does not cover all particles".into());
        }
        for v in 0..n {
            if self.is_leaf(v) {
                if self.pcount[v] > leaf_cap && (self.level[v] as u32) < MAX_DEPTH {
                    return Err(format!("leaf {v} overfull: {}", self.pcount[v]));
                }
                continue;
            }
            let kids = self.children(v);
            if kids.is_empty() {
                return Err(format!("internal node {v} has zero children"));
            }
            let mut cursor = self.pstart[v];
            let mut total = 0;
            for c in kids {
                if self.level[c] != self.level[v] + 1 {
                    return Err(format!("child {c} level mismatch under {v}"));
                }
                if self.pstart[c] != cursor {
                    return Err(format!("child {c} range not contiguous under {v}"));
                }
                if self.pcount[c] == 0 {
                    return Err(format!("empty child {c} stored under {v}"));
                }
                cursor += self.pcount[c];
                total += self.pcount[c];
            }
            if total != self.pcount[v] {
                return Err(format!(
                    "node {v} children cover {total} of {} particles",
                    self.pcount[v]
                ));
            }
        }
        // Level layout monotone.
        for w in self.level_start.windows(2) {
            if w[0] > w[1] {
                return Err("level_start not monotone".into());
            }
        }
        for (l, w) in self.level_start.windows(2).enumerate() {
            for v in w[0]..w[1] {
                if self.level[v as usize] as usize != l {
                    return Err(format!("node {v} misfiled in level {l}"));
                }
            }
        }
        Ok(())
    }
}

/// Tree-build parameters.
#[derive(Clone, Copy, Debug)]
pub struct BuildConfig {
    /// Maximum particles per leaf before splitting.
    pub leaf_cap: u32,
}

impl Default for BuildConfig {
    fn default() -> Self {
        BuildConfig { leaf_cap: 16 }
    }
}

/// Build the octree keyed on `ps.pos`. The particle set is permuted into
/// Morton order (`ps.id` keeps the original indices) — exactly what
/// GOTHIC's tree rebuild does to keep traversal memory access coalesced.
pub fn build_tree(ps: &mut ParticleSet, cfg: &BuildConfig) -> Octree {
    let mut tree = Octree::default();
    let perm = tree.rebuild(&ps.pos, cfg);
    ps.permute(&perm);
    tree
}

/// Build the octree keyed on an external position array (GOTHIC keys the
/// rebuild on the *predicted* positions while the committed block-step
/// state stays untouched). Returns the tree and the applied permutation
/// so the caller can reorder its own per-particle arrays (predicted
/// positions, block-step levels, …) consistently.
pub fn build_tree_with_positions(
    ps: &mut ParticleSet,
    positions: &[Vec3],
    cfg: &BuildConfig,
) -> (Octree, Vec<u32>) {
    assert_eq!(positions.len(), ps.len());
    let mut tree = Octree::default();
    let perm = tree.rebuild(positions, cfg);
    ps.permute(&perm);
    (tree, perm)
}

/// The child particle ranges of one splitting node, inline: `(pstart,
/// pcount)` of each non-empty octant, in octant order.
#[derive(Clone, Copy)]
struct Split {
    ranges: [(u32, u32); 8],
    count: u8,
}

impl Split {
    const NONE: Split = Split {
        ranges: [(0, 0); 8],
        count: 0,
    };

    /// Split the node covering the sorted `keys[s..s + c]` at `level` by
    /// binary searches for its octant boundaries.
    fn of(keys: &[u64], s: usize, c: usize, level: u32) -> Split {
        let slice = &keys[s..s + c];
        let mut split = Split::NONE;
        let mut lo = 0usize;
        for oct in 0..8u32 {
            let hi = if oct == 7 {
                c
            } else {
                lo + slice[lo..].partition_point(|&k| morton::octant_at_level(k, level) <= oct)
            };
            if hi > lo {
                split.ranges[split.count as usize] = ((s + lo) as u32, (hi - lo) as u32);
                split.count += 1;
            }
            lo = hi;
        }
        split
    }
}

impl Octree {
    /// Rebuild this tree keyed on `positions`, into its own arrays: the
    /// keys are computed into `keys` and sorted there, and the node arrays
    /// are cleared and refilled in their buffers, which grow level by
    /// level only as far as needed and end sized exactly to the new tree.
    /// Returns the permutation the sort applied (element `i` of the Morton
    /// order is element `perm[i]` of `positions`), for the caller to
    /// reorder its per-particle arrays with. The node summaries are
    /// emptied, keeping their buffers, for [`crate::calcnode::calc_node`]
    /// to refill.
    pub fn rebuild(&mut self, positions: &[Vec3], cfg: &BuildConfig) -> Vec<u32> {
        assert!(
            !positions.is_empty(),
            "cannot build a tree over zero particles"
        );
        let n = positions.len() as u32;
        self.cube = Aabb::from_points(positions).bounding_cube();

        // Key + sort (the radix sort is the dominant cost in GOTHIC's
        // makeTree; see §4.1).
        morton::morton_keys_into(positions, &self.cube, &mut self.keys);
        let mut perm: Vec<u32> = (0..n).collect();
        self.radix_passes = devsort::sort_pairs(&mut self.keys, &mut perm).into();

        // The root, then breadth-first splitting.
        self.level.clear();
        self.pstart.clear();
        self.pcount.clear();
        self.child_start.clear();
        self.child_count.clear();
        self.level_start.clear();
        self.com.clear();
        self.mass.clear();
        self.bmax.clear();
        self.reserve_nodes(1);
        self.push_nodes(0, std::iter::once((0, n)));
        self.level_start.extend([0, 1]);
        // Per-level scratch: the level's nodes that split, and their
        // child ranges.
        let mut too_big: Vec<u32> = Vec::new();
        let mut splits: Vec<Split> = Vec::new();
        let mut level = 0u32;
        while level < MAX_DEPTH {
            // The nodes of this level are its frontier: every child the
            // previous level created, in id order.
            let (lo, hi) = (
                self.level_start[level as usize],
                self.level_start[level as usize + 1],
            );
            // The serial pre-filter keeps the work list (and thus the
            // chunk decomposition) thread-count-independent.
            too_big.clear();
            too_big.extend((lo..hi).filter(|&v| self.pcount[v as usize] > cfg.leaf_cap));
            if too_big.is_empty() {
                break;
            }
            // Find each splitting node's child ranges in parallel, by
            // binary searches in the sorted key array.
            splits.clear();
            splits.resize(too_big.len(), Split::NONE);
            let (keys, pstart, pcount) = (&self.keys, &self.pstart, &self.pcount);
            parallel::for_each_mut(&mut splits, |i, split| {
                let v = too_big[i] as usize;
                *split = Split::of(keys, pstart[v] as usize, pcount[v] as usize, level);
            });

            // Append children in breadth-first order (serial; cheap
            // relative to the searches).
            let children = splits.iter().map(|s| s.count as usize).sum();
            self.reserve_nodes(children);
            for (&v, split) in too_big.iter().zip(&splits) {
                self.child_start[v as usize] = self.level.len() as u32;
                self.child_count[v as usize] = split.count;
                let ranges = &split.ranges[..split.count as usize];
                self.push_nodes(level + 1, ranges.iter().copied());
            }
            self.level_start.push(self.level.len() as u32);
            level += 1;
        }
        self.events = MakeTreeEvents {
            particles: n as u64,
            sort_passes: 8,
            nodes_created: self.n_nodes() as u64,
        };
        self.shrink_nodes();
        perm
    }

    /// Make room for `k` more nodes in every topology array, growing an
    /// array only to the exact size it needs.
    fn reserve_nodes(&mut self, k: usize) {
        self.level.reserve_exact(k);
        self.pstart.reserve_exact(k);
        self.pcount.reserve_exact(k);
        self.child_start.reserve_exact(k);
        self.child_count.reserve_exact(k);
    }

    /// Release the topology arrays' capacity past the last node.
    fn shrink_nodes(&mut self) {
        self.level.shrink_to_fit();
        self.pstart.shrink_to_fit();
        self.pcount.shrink_to_fit();
        self.child_start.shrink_to_fit();
        self.child_count.shrink_to_fit();
    }

    /// Append leaves at `level` covering the `(pstart, pcount)` ranges.
    fn push_nodes(&mut self, level: u32, ranges: impl Iterator<Item = (u32, u32)>) {
        for (s, c) in ranges {
            self.level.push(level as u8);
            self.pstart.push(s);
            self.pcount.push(c);
            self.child_start.push(NO_CHILD);
            self.child_count.push(0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prng::prelude::*;

    fn random_particles(n: usize, seed: u64) -> ParticleSet {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ps = ParticleSet::with_capacity(n);
        for _ in 0..n {
            let p = Vec3::new(
                rng.random::<Real>() * 2.0 - 1.0,
                rng.random::<Real>() * 2.0 - 1.0,
                rng.random::<Real>() * 2.0 - 1.0,
            );
            ps.push(p, Vec3::ZERO, 1.0 / n as Real);
        }
        ps
    }

    #[test]
    fn build_covers_all_particles_once() {
        let mut ps = random_particles(5000, 1);
        let tree = build_tree(&mut ps, &BuildConfig::default());
        tree.check_invariants(16).unwrap();
        // Sum of leaf particle counts equals N.
        let total: u32 = (0..tree.n_nodes())
            .filter(|&v| tree.is_leaf(v))
            .map(|v| tree.pcount[v])
            .sum();
        assert_eq!(total, 5000);
    }

    #[test]
    fn keys_are_sorted_after_build() {
        let mut ps = random_particles(3000, 2);
        let tree = build_tree(&mut ps, &BuildConfig::default());
        assert!(tree.keys.windows(2).all(|w| w[0] <= w[1]));
        ps.check_invariants().unwrap();
    }

    #[test]
    fn particles_live_inside_their_leaf_cells() {
        let mut ps = random_particles(2000, 3);
        let tree = build_tree(&mut ps, &BuildConfig::default());
        for v in 0..tree.n_nodes() {
            if !tree.is_leaf(v) {
                continue;
            }
            let depth = tree.level[v] as u32;
            let c = morton::cell_center(tree.keys[tree.pstart[v] as usize], depth, &tree.cube);
            // Tolerance: cell boundaries are quantised to the Morton
            // lattice, not to exact float positions.
            let h = morton::cell_size(depth, &tree.cube) * 0.5 * (1.0 + 1e-4) + 1e-6;
            for p in tree.particles(v) {
                let d = ps.pos[p] - c;
                assert!(
                    d.x.abs() <= h && d.y.abs() <= h && d.z.abs() <= h,
                    "particle {p} outside leaf {v}"
                );
            }
        }
    }

    #[test]
    fn out_of_range_child_is_an_error_not_a_panic() {
        let mut ps = random_particles(500, 7);
        let mut tree = build_tree(&mut ps, &BuildConfig::default());
        tree.check_invariants(16).unwrap();
        tree.child_start[0] = tree.n_nodes() as u32 + 1;
        let err = tree.check_invariants(16).unwrap_err();
        assert!(err.contains("children out of bounds"), "{err}");
    }

    #[test]
    fn single_particle_tree_is_root_leaf() {
        let mut ps = ParticleSet::with_capacity(1);
        ps.push(Vec3::new(0.5, -0.2, 0.1), Vec3::ZERO, 2.0);
        let tree = build_tree(&mut ps, &BuildConfig::default());
        assert_eq!(tree.n_nodes(), 1);
        assert!(tree.is_leaf(0));
        tree.check_invariants(16).unwrap();
    }

    #[test]
    fn coincident_particles_stop_at_max_depth() {
        // All particles at the same location can never split below one
        // Morton cell; the build must terminate via the depth cap.
        let mut ps = ParticleSet::with_capacity(64);
        for _ in 0..64 {
            ps.push(Vec3::splat(0.25), Vec3::ZERO, 1.0);
        }
        // Add one far particle so the cube is non-degenerate.
        ps.push(Vec3::splat(1.0), Vec3::ZERO, 1.0);
        let tree = build_tree(&mut ps, &BuildConfig { leaf_cap: 4 });
        tree.check_invariants(4).unwrap();
        let deepest = tree.level.iter().copied().max().unwrap() as u32;
        assert!(deepest <= MAX_DEPTH);
    }

    #[test]
    fn leaf_cap_controls_node_count() {
        let mut ps1 = random_particles(4000, 9);
        let mut ps2 = random_particles(4000, 9);
        let coarse = build_tree(&mut ps1, &BuildConfig { leaf_cap: 64 });
        let fine = build_tree(&mut ps2, &BuildConfig { leaf_cap: 4 });
        assert!(fine.n_nodes() > coarse.n_nodes());
        coarse.check_invariants(64).unwrap();
        fine.check_invariants(4).unwrap();
    }

    #[test]
    fn clustered_distribution_builds_deeper_tree() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut ps = ParticleSet::with_capacity(4000);
        for _ in 0..4000 {
            // Tight Gaussian cluster in a unit domain.
            let p = Vec3::new(
                rng.random::<Real>() * 0.01,
                rng.random::<Real>() * 0.01,
                rng.random::<Real>() * 0.01,
            );
            ps.push(p, Vec3::ZERO, 1.0);
        }
        ps.push(Vec3::splat(1.0), Vec3::ZERO, 1.0);
        let tree = build_tree(&mut ps, &BuildConfig::default());
        let mut ps_u = random_particles(4001, 5);
        let uniform = build_tree(&mut ps_u, &BuildConfig::default());
        let deep = tree.level.iter().copied().max().unwrap();
        let deep_u = uniform.level.iter().copied().max().unwrap();
        assert!(deep > deep_u, "clustered {deep} vs uniform {deep_u}");
    }

    /// calcNode's arithmetic, node by node in reverse id order (children
    /// have larger ids than their parent), with no parallelism.
    fn serial_summaries(tree: &Octree, pos: &[Vec3], mass: &[Real]) -> Vec<[u32; 5]> {
        let n = tree.n_nodes();
        let (mut com, mut m_node, mut bmax) = (vec![Vec3::ZERO; n], vec![0.0; n], vec![0.0; n]);
        for v in (0..n).rev() {
            let mut m = 0.0f64;
            let mut c = [0.0f64; 3];
            let points: Vec<(Vec3, Real)> = if tree.is_leaf(v) {
                tree.particles(v).map(|p| (pos[p], mass[p])).collect()
            } else {
                tree.children(v).map(|k| (com[k], m_node[k])).collect()
            };
            for &(p, pm) in &points {
                m += pm as f64;
                c[0] += pm as f64 * p.x as f64;
                c[1] += pm as f64 * p.y as f64;
                c[2] += pm as f64 * p.z as f64;
            }
            if m > 0.0 {
                com[v] = Vec3::new((c[0] / m) as Real, (c[1] / m) as Real, (c[2] / m) as Real);
            }
            let mut b: Real = 0.0;
            if tree.is_leaf(v) {
                for &(p, _) in &points {
                    b = b.max((p - com[v]).norm());
                }
            } else {
                for k in tree.children(v) {
                    b = b.max((com[k] - com[v]).norm() + bmax[k]);
                }
            }
            (m_node[v], bmax[v]) = (m as Real, b);
        }
        summary_bits(&com, &m_node, &bmax)
    }

    fn summary_bits(com: &[Vec3], mass: &[Real], bmax: &[Real]) -> Vec<[u32; 5]> {
        (0..com.len())
            .map(|v| {
                let c = com[v];
                let (m, b) = (mass[v], bmax[v]);
                [c.x, c.y, c.z, m, b].map(Real::to_bits)
            })
            .collect()
    }

    #[test]
    fn rebuild_in_place_matches_a_fresh_build() {
        let with_masses = |mut ps: ParticleSet, seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            ps.mass
                .iter_mut()
                .for_each(|m| *m = rng.random::<Real>() + 0.1);
            ps
        };
        let small = with_masses(random_particles(1000, 11), 13);
        let large = with_masses(random_particles(6000, 12), 14);
        let cfg = BuildConfig::default();
        for threads in [1, 4] {
            // Into more nodes, then fewer, and the reverse.
            for order in [[&small, &large, &small], [&large, &small, &large]] {
                let mut tree = Octree::default();
                for set in order {
                    let (mut fresh_ps, mut ps) = (set.clone(), set.clone());
                    let (fresh, fresh_perm) = parallel::with_thread_count(threads, || {
                        build_tree_with_positions(&mut fresh_ps, &set.pos, &cfg)
                    });
                    let perm =
                        parallel::with_thread_count(threads, || tree.rebuild(&set.pos, &cfg));
                    assert_eq!(perm, fresh_perm);
                    assert_eq!(tree, fresh, "threads {threads}");

                    ps.permute(&perm);
                    assert_eq!(ps, fresh_ps);
                    let want = serial_summaries(&tree, &ps.pos, &ps.mass);
                    parallel::with_thread_count(threads, || {
                        crate::calcnode::calc_node(&mut tree, &ps.pos, &ps.mass)
                    });
                    assert!(
                        summary_bits(&tree.com, &tree.mass, &tree.bmax) == want,
                        "calcNode differs from the serial reference at {threads} threads"
                    );
                }
            }
        }
    }

    #[test]
    fn events_record_build_size() {
        let mut ps = random_particles(1000, 6);
        let tree = build_tree(&mut ps, &BuildConfig::default());
        assert_eq!(tree.events.particles, 1000);
        assert_eq!(tree.events.nodes_created, tree.n_nodes() as u64);
        assert_eq!(tree.events.sort_passes, 8);
    }
}
