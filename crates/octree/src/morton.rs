//! 63-bit Morton (Z-order) keys.
//!
//! GOTHIC builds its octree by sorting particles along a space-filling
//! Morton curve (the keys are then radix-sorted by the `devsort` crate,
//! standing in for `cub::DeviceRadixSort`). Each coordinate is quantised
//! to 21 bits inside the root cube and the three axes are interleaved,
//! giving one octant triplet per tree level: bits `[62:60]` select the
//! level-1 octant, `[59:57]` the level-2 octant, and so on.

use nbody::{Aabb, Real, Vec3};

/// Quantisation bits per axis.
pub const BITS_PER_AXIS: u32 = 21;

/// Maximum tree depth representable by one key.
pub const MAX_DEPTH: u32 = BITS_PER_AXIS;

/// Spread the low 21 bits of `v` so consecutive bits land 3 apart
/// (the classic parallel-prefix bit trick, as used in GPU tree codes).
#[inline]
fn expand_bits(v: u64) -> u64 {
    let mut x = v & 0x1f_ffff; // 21 bits
    x = (x | (x << 32)) & 0x1f00000000ffff;
    x = (x | (x << 16)) & 0x1f0000ff0000ff;
    x = (x | (x << 8)) & 0x100f00f00f00f00f;
    x = (x | (x << 4)) & 0x10c30c30c30c30c3;
    x = (x | (x << 2)) & 0x1249249249249249;
    x
}

/// Inverse of [`expand_bits`].
#[inline]
fn compact_bits(v: u64) -> u64 {
    let mut x = v & 0x1249249249249249;
    x = (x | (x >> 2)) & 0x10c30c30c30c30c3;
    x = (x | (x >> 4)) & 0x100f00f00f00f00f;
    x = (x | (x >> 8)) & 0x1f0000ff0000ff;
    x = (x | (x >> 16)) & 0x1f00000000ffff;
    x = (x | (x >> 32)) & 0x1f_ffff;
    x
}

/// Quantise one coordinate into `[0, 2²¹)` within the root cube.
#[inline]
fn quantize(x: Real, min: Real, inv_extent: Real) -> u64 {
    let scaled = ((x - min) * inv_extent).clamp(0.0, 1.0 - Real::EPSILON);
    let q = (scaled * (1u64 << BITS_PER_AXIS) as Real) as u64;
    q.min((1u64 << BITS_PER_AXIS) - 1)
}

/// Compute the Morton key of `p` inside the root cube `cube`.
/// The cube must be cubic (see [`Aabb::bounding_cube`]).
#[inline]
pub fn morton_key(p: Vec3, cube: &Aabb) -> u64 {
    let extent = cube.extent().x;
    debug_assert!(extent > 0.0);
    let inv = 1.0 / extent;
    let xq = quantize(p.x, cube.min.x, inv);
    let yq = quantize(p.y, cube.min.y, inv);
    let zq = quantize(p.z, cube.min.z, inv);
    (expand_bits(xq) << 2) | (expand_bits(yq) << 1) | expand_bits(zq)
}

/// Decode a key back to the quantised lattice coordinates.
pub fn morton_decode(key: u64) -> (u64, u64, u64) {
    (
        compact_bits(key >> 2),
        compact_bits(key >> 1),
        compact_bits(key),
    )
}

/// The octant index (0..8) a key selects at tree `level` (level 0 children
/// of the root are selected by the top triplet).
#[inline(always)]
pub fn octant_at_level(key: u64, level: u32) -> u32 {
    debug_assert!(level < MAX_DEPTH);
    ((key >> (3 * (MAX_DEPTH - 1 - level))) & 0b111) as u32
}

/// Geometric centre of the cell a key prefix addresses at `depth` levels
/// below the root of `cube`.
pub fn cell_center(key: u64, depth: u32, cube: &Aabb) -> Vec3 {
    let mut c = cube.center();
    let mut half = cube.extent().x * 0.25;
    for l in 0..depth {
        let oct = octant_at_level(key, l);
        c.x += if oct & 0b100 != 0 { half } else { -half };
        c.y += if oct & 0b010 != 0 { half } else { -half };
        c.z += if oct & 0b001 != 0 { half } else { -half };
        half *= 0.5;
    }
    c
}

/// Edge length of a cell `depth` levels below the root.
#[inline(always)]
pub fn cell_size(depth: u32, cube: &Aabb) -> Real {
    cube.extent().x / (1u64 << depth) as Real
}

/// Compute keys for a batch of positions (pool-parallel; element-wise
/// and order-preserving, so the key vector is bit-identical at any
/// thread count).
pub fn morton_keys(pos: &[Vec3], cube: &Aabb) -> Vec<u64> {
    let mut keys = Vec::new();
    morton_keys_into(pos, cube, &mut keys);
    keys
}

/// [`morton_keys`] into `keys`, resized to exactly `pos.len()` and
/// overwritten.
pub fn morton_keys_into(pos: &[Vec3], cube: &Aabb, keys: &mut Vec<u64>) {
    crate::fit(keys, pos.len(), 0);
    parallel::for_each_mut(keys, |i, k| *k = morton_key(pos[i], cube));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_cube() -> Aabb {
        Aabb::new(Vec3::ZERO, Vec3::splat(1.0))
    }

    #[test]
    fn expand_compact_roundtrip() {
        for v in [0u64, 1, 5, 0x155555, 0x1f_ffff, 0xabcde] {
            assert_eq!(compact_bits(expand_bits(v)), v);
        }
    }

    #[test]
    fn key_fits_in_63_bits() {
        let k = morton_key(Vec3::splat(1.0 - 1e-7), &unit_cube());
        assert!(k < (1u64 << 63));
    }

    #[test]
    fn octant_ordering_of_corners() {
        let cube = unit_cube();
        // Low corner keys sort before high corner keys.
        let lo = morton_key(Vec3::splat(0.01), &cube);
        let hi = morton_key(Vec3::splat(0.99), &cube);
        assert!(lo < hi);
        // The top octant triplet identifies the half-space per axis
        // (x is the most significant bit of the triplet).
        assert_eq!(octant_at_level(lo, 0), 0);
        assert_eq!(octant_at_level(hi, 0), 7);
        let x_only = morton_key(Vec3::new(0.9, 0.1, 0.1), &cube);
        assert_eq!(octant_at_level(x_only, 0), 0b100);
    }

    #[test]
    fn decode_matches_quantisation() {
        let cube = unit_cube();
        let p = Vec3::new(0.25, 0.5, 0.75);
        let k = morton_key(p, &cube);
        let (x, y, z) = morton_decode(k);
        let n = (1u64 << BITS_PER_AXIS) as f64;
        assert!((x as f64 / n - 0.25).abs() < 1e-5);
        assert!((y as f64 / n - 0.5).abs() < 1e-5);
        assert!((z as f64 / n - 0.75).abs() < 1e-5);
    }

    #[test]
    fn nearby_points_share_prefixes() {
        let cube = unit_cube();
        let a = morton_key(Vec3::new(0.500001, 0.500001, 0.500001), &cube);
        let b = morton_key(Vec3::new(0.500002, 0.500002, 0.500002), &cube);
        let far = morton_key(Vec3::new(0.9, 0.1, 0.3), &cube);
        let shared_ab = (a ^ b).leading_zeros();
        let shared_afar = (a ^ far).leading_zeros();
        assert!(shared_ab > shared_afar);
    }

    #[test]
    fn cell_center_walks_octants() {
        let cube = unit_cube();
        let p = Vec3::new(0.1, 0.6, 0.9);
        let k = morton_key(p, &cube);
        // With increasing depth the cell centre converges to the point.
        let mut last = f32::INFINITY;
        for depth in [1, 3, 6, 10] {
            let c = cell_center(k, depth, &cube);
            let d = (c - p).norm();
            assert!(d <= last + 1e-6, "depth {depth}: {d} > {last}");
            assert!(
                d <= cell_size(depth, &cube) * 0.87,
                "centre outside cell at depth {depth}"
            );
            last = d;
        }
    }

    #[test]
    fn cell_size_halves_with_depth() {
        let cube = unit_cube();
        assert_eq!(cell_size(0, &cube), 1.0);
        assert_eq!(cell_size(1, &cube), 0.5);
        assert_eq!(cell_size(4, &cube), 0.0625);
    }

    #[test]
    fn points_out_of_cube_clamp_instead_of_wrapping() {
        let cube = unit_cube();
        let inside = morton_key(Vec3::splat(0.999), &cube);
        let outside = morton_key(Vec3::splat(1.5), &cube);
        assert!(outside >= inside);
        assert!(outside < (1u64 << 63));
    }

    #[test]
    fn batch_matches_scalar() {
        let cube = unit_cube();
        let pts: Vec<Vec3> = (0..100).map(|i| Vec3::splat(i as Real / 100.0)).collect();
        let keys = morton_keys(&pts, &cube);
        for (i, &p) in pts.iter().enumerate() {
            assert_eq!(keys[i], morton_key(p, &cube));
        }
        // Diagonal points are already in Morton order.
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));
    }
}
