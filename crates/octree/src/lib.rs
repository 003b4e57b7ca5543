//! # octree — the Barnes–Hut octree of GOTHIC
//!
//! Morton keys ([`morton`]), breadth-first linear octree construction
//! ([`tree`], the `makeTree` kernel), bottom-up node summaries
//! ([`calcnode`], the `calcNode` kernel), multipole acceptance criteria
//! ([`mac`], Eq. 2 of the paper) and the warp-group traversal with shared
//! interaction lists ([`walk`], the `walkTree` kernel).

pub mod calcnode;
pub mod mac;
pub mod morton;
pub mod tree;
pub mod walk;

pub use calcnode::calc_node;
pub use mac::Mac;
pub use morton::{morton_key, morton_keys};
pub use tree::{build_tree, build_tree_with_positions, BuildConfig, Octree, NO_CHILD};
pub use walk::{walk_tree, walk_tree_individual, WalkConfig, WalkResult, WARP_SIZE};

/// Resize `v` to `n` in its own buffer, which grows or shrinks to hold
/// exactly `n`: the tree's arrays carry no slack between rebuilds.
fn fit<T: Clone>(v: &mut Vec<T>, n: usize, fill: T) {
    v.truncate(n);
    v.reserve_exact(n - v.len());
    v.resize(n, fill);
    v.shrink_to_fit();
}
