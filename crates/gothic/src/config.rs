//! Run configuration for the GOTHIC pipeline.

use gpu_model::{ExecMode, GpuArch, GridBarrier};
use nbody::Real;
use octree::Mac;

/// When to rebuild the tree (§4.1: GOTHIC auto-tunes the interval to
/// minimise gravity + construction time; the nvprof runs of Fig. 6 pin a
/// fixed interval instead).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RebuildPolicy {
    /// Rebuild when the accumulated walk-time excess since the last build
    /// exceeds the build cost (GOTHIC's auto-tuning).
    Auto,
    /// Rebuild every `n` block steps.
    Fixed(u32),
}

/// Full pipeline configuration.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Multipole acceptance criterion (the paper sweeps
    /// `Mac::Acceleration { delta_acc }` from 2⁻¹ to 2⁻²⁰).
    pub mac: Mac,
    /// Plummer softening length ε.
    pub eps: Real,
    /// Time-step accuracy η (dt = η√(ε/|a|)).
    pub eta: Real,
    /// Largest block time step.
    pub dt_max: Real,
    /// Block-step refinement levels below `dt_max`.
    pub max_depth: u32,
    /// Octree leaf capacity.
    pub leaf_cap: u32,
    /// Interaction-list capacity per warp-group.
    pub list_cap: usize,
    /// Opening angle used to bootstrap the first force evaluation (the
    /// acceleration MAC needs |a| from a previous step).
    pub theta_bootstrap: Real,
    /// GPU whose cost model prices the kernels (and drives auto-tuning).
    pub arch: GpuArch,
    /// Execution mode on Volta hardware (§2.1).
    pub mode: ExecMode,
    /// Grid-barrier implementation (Appendix A).
    pub barrier: GridBarrier,
    /// Tree rebuild policy.
    pub rebuild: RebuildPolicy,
}

impl Default for RunConfig {
    /// The paper's fiducial setup: Δacc = 2⁻⁹, V100 in the Pascal mode
    /// (which §3 adopts as fiducial), lock-free grid barrier, auto-tuned
    /// rebuilds.
    fn default() -> Self {
        RunConfig {
            mac: Mac::fiducial(),
            eps: 0.015625, // ~16 pc in simulation units, a typical galaxy-sim softening
            eta: 0.5,
            dt_max: 0.25,
            max_depth: 24,
            leaf_cap: 16,
            list_cap: 256,
            theta_bootstrap: 0.7,
            arch: GpuArch::tesla_v100(),
            mode: ExecMode::PascalMode,
            barrier: GridBarrier::LockFree,
            rebuild: RebuildPolicy::Auto,
        }
    }
}

impl RunConfig {
    /// Fiducial config with a given accuracy parameter Δacc.
    pub fn with_delta_acc(delta_acc: Real) -> Self {
        RunConfig {
            mac: Mac::Acceleration { delta_acc },
            ..RunConfig::default()
        }
    }

    /// Canonical byte serialization of the configuration — the preimage
    /// of [`RunConfig::digest`].
    ///
    /// Every field is emitted as `tag byte + fixed-width little-endian
    /// payload`; floats contribute their exact IEEE-754 bit patterns.
    /// The encoding therefore depends only on the *values* the config
    /// holds — never on how a request spelled them (JSON key order,
    /// `0.5` vs `5e-1`, trailing zeros), which is what makes the digest
    /// usable as a content-addressed cache key.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(96);
        let f32_field = |b: &mut Vec<u8>, tag: u8, v: f32| {
            b.push(tag);
            b.extend_from_slice(&v.to_bits().to_le_bytes());
        };
        match self.mac {
            Mac::OpeningAngle { theta } => {
                b.push(0x01);
                b.push(0);
                b.extend_from_slice(&theta.to_bits().to_le_bytes());
            }
            Mac::Acceleration { delta_acc } => {
                b.push(0x01);
                b.push(1);
                b.extend_from_slice(&delta_acc.to_bits().to_le_bytes());
            }
        }
        f32_field(&mut b, 0x02, self.eps);
        f32_field(&mut b, 0x03, self.eta);
        f32_field(&mut b, 0x04, self.dt_max);
        b.push(0x05);
        b.extend_from_slice(&self.max_depth.to_le_bytes());
        b.push(0x06);
        b.extend_from_slice(&self.leaf_cap.to_le_bytes());
        b.push(0x07);
        b.extend_from_slice(&(self.list_cap as u64).to_le_bytes());
        f32_field(&mut b, 0x08, self.theta_bootstrap);
        // The architecture catalog is static; the name identifies the
        // entry, and the headline numbers guard against a silently
        // re-tuned catalog aliasing an old digest.
        b.push(0x09);
        b.extend_from_slice(&(self.arch.name.len() as u32).to_le_bytes());
        b.extend_from_slice(self.arch.name.as_bytes());
        b.extend_from_slice(&self.arch.n_sm.to_le_bytes());
        b.extend_from_slice(&self.arch.clock_ghz.to_bits().to_le_bytes());
        b.extend_from_slice(&self.arch.mem_bw_gbs.to_bits().to_le_bytes());
        b.push(0x0A);
        b.push(match self.mode {
            ExecMode::PascalMode => 0,
            ExecMode::VoltaMode => 1,
        });
        b.push(0x0B);
        b.push(match self.barrier {
            GridBarrier::LockFree => 0,
            GridBarrier::CooperativeGroups => 1,
        });
        match self.rebuild {
            RebuildPolicy::Auto => {
                b.push(0x0C);
                b.push(0);
                b.extend_from_slice(&0u32.to_le_bytes());
            }
            RebuildPolicy::Fixed(k) => {
                b.push(0x0C);
                b.push(1);
                b.extend_from_slice(&k.to_le_bytes());
            }
        }
        b
    }

    /// Stable 64-bit FNV-1a hash of [`RunConfig::canonical_bytes`] — the
    /// content-addressed cache key used by the `gothicd` result cache.
    /// Two configs digest equal iff their canonical bytes are equal; the
    /// value is pinned by tests so it cannot drift silently across PRs.
    pub fn digest(&self) -> u64 {
        fnv1a64(&self.canonical_bytes())
    }
}

/// 64-bit FNV-1a over a byte string (offset basis 0xcbf29ce484222325,
/// prime 0x100000001b3). Not cryptographic — a fast, dependency-free,
/// stable content hash for cache keys.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        h ^= byte as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_fiducials() {
        let c = RunConfig::default();
        match c.mac {
            Mac::Acceleration { delta_acc } => {
                assert!((delta_acc - 2.0f32.powi(-9)).abs() < 1e-9)
            }
            _ => panic!("fiducial MAC must be the acceleration MAC"),
        }
        assert_eq!(c.mode, ExecMode::PascalMode);
        assert_eq!(c.barrier, GridBarrier::LockFree);
        assert_eq!(c.rebuild, RebuildPolicy::Auto);
        assert_eq!(c.arch.name, "Tesla V100 (SXM2)");
    }

    #[test]
    fn with_delta_acc_overrides_only_the_mac() {
        let c = RunConfig::with_delta_acc(0.25);
        assert_eq!(c.mac, Mac::Acceleration { delta_acc: 0.25 });
        assert_eq!(c.leaf_cap, RunConfig::default().leaf_cap);
    }

    /// Pinned digest of the fiducial config. If this changes, every
    /// cached `gothicd` result silently misses — bump deliberately, and
    /// only with a canonical-encoding change worth invalidating caches
    /// for.
    #[test]
    fn fiducial_digest_is_pinned() {
        assert_eq!(RunConfig::default().digest(), PINNED_FIDUCIAL_DIGEST);
    }

    const PINNED_FIDUCIAL_DIGEST: u64 = 0x811e_d951_c7dc_4727;

    #[test]
    fn digest_is_insensitive_to_float_formatting() {
        // The same numeric value reached through different textual
        // spellings (what a JSON request may contain) digests equal:
        // only the IEEE-754 bits enter the preimage.
        let spellings = ["0.5", "5e-1", "0.50000", ".5", "5.0e-1"];
        let digests: Vec<u64> = spellings
            .iter()
            .map(|s| {
                let eta: f32 = s.parse().unwrap();
                RunConfig {
                    eta,
                    ..RunConfig::default()
                }
                .digest()
            })
            .collect();
        assert!(digests.windows(2).all(|w| w[0] == w[1]), "{digests:x?}");
    }

    #[test]
    fn digest_separates_every_field() {
        let base = RunConfig::default();
        let variants = [
            RunConfig {
                mac: Mac::OpeningAngle { theta: 0.7 },
                ..base.clone()
            },
            RunConfig {
                mac: Mac::Acceleration {
                    delta_acc: 2.0f32.powi(-10),
                },
                ..base.clone()
            },
            RunConfig {
                eps: 0.03,
                ..base.clone()
            },
            RunConfig {
                eta: 0.25,
                ..base.clone()
            },
            RunConfig {
                dt_max: 0.125,
                ..base.clone()
            },
            RunConfig {
                max_depth: 20,
                ..base.clone()
            },
            RunConfig {
                leaf_cap: 32,
                ..base.clone()
            },
            RunConfig {
                list_cap: 512,
                ..base.clone()
            },
            RunConfig {
                theta_bootstrap: 0.6,
                ..base.clone()
            },
            RunConfig {
                arch: GpuArch::tesla_p100(),
                ..base.clone()
            },
            RunConfig {
                mode: ExecMode::VoltaMode,
                ..base.clone()
            },
            RunConfig {
                barrier: GridBarrier::CooperativeGroups,
                ..base.clone()
            },
            RunConfig {
                rebuild: RebuildPolicy::Fixed(8),
                ..base.clone()
            },
        ];
        let mut digests: Vec<u64> = variants.iter().map(|c| c.digest()).collect();
        digests.push(base.digest());
        let before = digests.len();
        digests.sort_unstable();
        digests.dedup();
        assert_eq!(digests.len(), before, "every field must perturb the digest");
    }

    #[test]
    fn equal_values_digest_equal_regardless_of_construction_path() {
        let a = RunConfig::with_delta_acc(2.0f32.powi(-9));
        let b = RunConfig::default(); // fiducial MAC is the same value
        assert_eq!(a.digest(), b.digest());
        // Fixed(k) distinguishes k.
        let f4 = RunConfig {
            rebuild: RebuildPolicy::Fixed(4),
            ..RunConfig::default()
        };
        let f5 = RunConfig {
            rebuild: RebuildPolicy::Fixed(5),
            ..RunConfig::default()
        };
        assert_ne!(f4.digest(), f5.digest());
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Reference values of the canonical FNV-1a 64 test suite.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
