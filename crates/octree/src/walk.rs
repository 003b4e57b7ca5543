//! The warp-group tree traversal — the `walkTree` kernel, GOTHIC's
//! dominant cost (Figs. 3 and 4).
//!
//! GOTHIC assigns 32 Morton-adjacent particles to the 32 threads of a
//! warp. The warp traverses the tree *breadth-first*, keeping a queue of
//! candidate cells in a per-SM buffer: each round, the 32 lanes test 32
//! candidates against the MAC in parallel; accepted cells append their
//! pseudo-particle to a shared **interaction list**, rejected internal
//! cells append their children back to the queue, and rejected leaves
//! append their particles to the list. When the list reaches capacity it
//! is *flushed*: every lane integrates Eq. 1 over all list entries for
//! its own sink particle (raising arithmetic intensity — the listed
//! sources are shared by 32 sinks). The procedure repeats until the queue
//! drains (§1 of the paper).
//!
//! This module reproduces that traversal on the host, one pool task per
//! warp-group, and records the event counts ([`WalkEvents`]) the
//! performance model consumes.

use crate::mac::Mac;
use crate::tree::Octree;
use gpu_model::WalkEvents;
use nbody::kernel::Source;
use nbody::{Real, Vec3};

/// Lanes per warp — fixed by the hardware the paper targets.
pub const WARP_SIZE: usize = 32;

/// Tree-walk parameters.
#[derive(Clone, Copy, Debug)]
pub struct WalkConfig {
    /// Acceptance criterion.
    pub mac: Mac,
    /// Squared Plummer softening.
    pub eps2: Real,
    /// Interaction-list capacity (shared-memory entries per warp in
    /// GOTHIC; flushing granularity here).
    pub list_cap: usize,
    /// Candidates examined per queue round (warp width).
    pub round_width: usize,
}

impl Default for WalkConfig {
    fn default() -> Self {
        WalkConfig {
            mac: Mac::fiducial(),
            eps2: 1e-4,
            list_cap: 256,
            round_width: WARP_SIZE,
        }
    }
}

/// Acceleration + potential of the walked sinks, plus event counts.
#[derive(Clone, Debug)]
pub struct WalkResult {
    /// Acceleration per entry of `active` (same order).
    pub acc: Vec<Vec3>,
    /// Potential per entry of `active`.
    pub pot: Vec<Real>,
    pub events: WalkEvents,
}

/// Walk the tree for the sinks listed in `active` (indices into the
/// Morton-ordered particle arrays `pos` / `mass_arr`; `acc_old` provides
/// |a⁽ᵒˡᵈ⁾| for the acceleration MAC). `active` should be ascending so
/// that groups of 32 consecutive entries are spatially coherent — the
/// pipeline guarantees this by construction.
pub fn walk_tree(
    tree: &Octree,
    pos: &[Vec3],
    mass_arr: &[Real],
    acc_old: &[Real],
    active: &[u32],
    cfg: &WalkConfig,
) -> WalkResult {
    walk_groups(tree, pos, mass_arr, acc_old, active, cfg, WARP_SIZE)
}

/// Per-particle traversal — the ablation baseline against the warp-group
/// walk. Each sink traverses alone: its MAC uses its own position and
/// previous acceleration (no group-conservative pivot), so it evaluates
/// *more* MACs per accepted cell but needs *fewer* interactions in total;
/// GOTHIC chooses the group walk anyway because sharing one interaction
/// list across 32 lanes is what raises arithmetic intensity on a GPU
/// (§1 of the paper). `bench/bin/ablation_group_walk` quantifies the
/// trade-off.
///
/// This is the group walk with groups of one: the pivot is then the sink
/// itself (`(p + p) * 0.5 = p`, radius 0), so the MAC sees exactly the
/// per-sink distance.
pub fn walk_tree_individual(
    tree: &Octree,
    pos: &[Vec3],
    mass_arr: &[Real],
    acc_old: &[Real],
    active: &[u32],
    cfg: &WalkConfig,
) -> WalkResult {
    walk_groups(tree, pos, mass_arr, acc_old, active, cfg, 1)
}

/// Walk `active` in consecutive groups of `group_size` (≤ [`WARP_SIZE`])
/// sinks that share one traversal and one interaction list.
fn walk_groups(
    tree: &Octree,
    pos: &[Vec3],
    mass_arr: &[Real],
    acc_old: &[Real],
    active: &[u32],
    cfg: &WalkConfig,
    group_size: usize,
) -> WalkResult {
    assert_eq!(pos.len(), tree.keys.len());
    assert!(group_size <= WARP_SIZE);
    // One pool task per group; the fixed chunking and the serial
    // chunk-ordered merge below keep the result bit-identical at any
    // thread count.
    let group_results: Vec<(Vec<Vec3>, Vec<Real>, WalkEvents)> =
        parallel::map_chunks(active, group_size, |_, group| {
            walk_group(tree, pos, mass_arr, acc_old, group, cfg)
        });

    let n = active.len();
    let mut acc = Vec::with_capacity(n);
    let mut pot = Vec::with_capacity(n);
    let mut events = WalkEvents::default();
    for (ga, gp, ge) in group_results {
        acc.extend_from_slice(&ga);
        pot.extend_from_slice(&gp);
        events.merge(&ge);
    }
    WalkResult { acc, pot, events }
}

/// One warp-group's traversal.
fn walk_group(
    tree: &Octree,
    pos: &[Vec3],
    mass_arr: &[Real],
    acc_old: &[Real],
    group: &[u32],
    cfg: &WalkConfig,
) -> (Vec<Vec3>, Vec<Real>, WalkEvents) {
    let mut events = WalkEvents {
        groups: 1,
        sinks: group.len() as u64,
        ..WalkEvents::default()
    };

    // Group pivot: bounding sphere of the sink positions, plus the
    // group-minimum previous acceleration (the warp shares one list, so
    // the MAC must hold for the *most demanding* member).
    let mut bb_min = Vec3::splat(Real::INFINITY);
    let mut bb_max = Vec3::splat(Real::NEG_INFINITY);
    let mut a_min = Real::INFINITY;
    for &i in group {
        let p = pos[i as usize];
        bb_min = bb_min.min(p);
        bb_max = bb_max.max(p);
        a_min = a_min.min(acc_old[i as usize]);
    }
    let center = (bb_min + bb_max) * 0.5;
    let mut radius: Real = 0.0;
    for &i in group {
        radius = radius.max((pos[i as usize] - center).norm());
    }

    let sinks = SinkLanes::stage(group, pos);
    let mut acc = vec![Vec3::ZERO; group.len()];
    let mut pot = vec![0.0 as Real; group.len()];
    let mut list: Vec<Source> = Vec::with_capacity(cfg.list_cap);

    // Breadth-first queue over node ids; `head` advances instead of
    // popping so `queue.len() - head` is the live buffer occupancy the
    // capacity model of §3 cares about.
    let mut queue: Vec<u32> = Vec::with_capacity(256);
    let mut head = 0usize;
    if tree.is_leaf(0) {
        // Degenerate tree: root is a single leaf.
        queue.push(0);
    } else {
        queue.extend(tree.children(0).map(|c| c as u32));
    }

    while head < queue.len() {
        let round_end = (head + cfg.round_width).min(queue.len());
        events.queue_rounds += 1;
        for qi in head..round_end {
            let v = queue[qi] as usize;
            events.mac_evals += 1;
            let com = tree.com[v];
            let b = tree.bmax[v];
            let dvec = com - center;
            let dist = dvec.norm();
            // Worst-case sink distance to the node COM, and a separation
            // guard: the node's matter sphere must clear the group sphere
            // before a multipole is trusted at all.
            let d = dist - radius;
            let separated = d > b && d > 0.0;
            if separated && cfg.mac.accepts(tree.mass[v], b, d * d, a_min) {
                push_source(
                    Source {
                        pos: com,
                        mass: tree.mass[v],
                    },
                    &mut list,
                    cfg,
                    &sinks,
                    &mut acc,
                    &mut pot,
                    &mut events,
                );
            } else if tree.is_leaf(v) {
                for p in tree.particles(v) {
                    push_source(
                        Source {
                            pos: pos[p],
                            mass: mass_arr[p],
                        },
                        &mut list,
                        cfg,
                        &sinks,
                        &mut acc,
                        &mut pot,
                        &mut events,
                    );
                }
            } else {
                events.opens += 1;
                queue.extend(tree.children(v).map(|c| c as u32));
            }
        }
        head = round_end;
        events.peak_queue_len = events.peak_queue_len.max((queue.len() - head) as u64);
    }

    // Final (partial) flush.
    if !list.is_empty() {
        flush(&list, &sinks, &mut acc, &mut pot, cfg.eps2, &mut events);
        list.clear();
    }
    record_walk_counters(&events);
    (acc, pot, events)
}

/// Publish one group's event counts to the telemetry registry. Runs on
/// the pool worker that walked the group; the counters are sharded, so
/// concurrent groups do not contend.
#[inline]
fn record_walk_counters(events: &WalkEvents) {
    use telemetry::metrics::counters as tm;
    tm::WALK_GROUPS.add(events.groups);
    tm::WALK_INTERACTIONS.add(events.interactions);
    tm::WALK_MAC_EVALS.add(events.mac_evals);
    tm::WALK_LIST_PUSHES.add(events.list_pushes);
    tm::WALK_OPENS.add(events.opens);
    tm::WALK_FLUSHES.add(events.flushes);
}

/// Append one source, flushing the shared list at capacity.
#[inline]
fn push_source(
    src: Source,
    list: &mut Vec<Source>,
    cfg: &WalkConfig,
    sinks: &SinkLanes,
    acc: &mut [Vec3],
    pot: &mut [Real],
    events: &mut WalkEvents,
) {
    list.push(src);
    events.list_pushes += 1;
    if list.len() == cfg.list_cap {
        flush(list, sinks, acc, pot, cfg.eps2, events);
        list.clear();
    }
}

/// The group's sink positions, one lane per warp thread. Lanes past the
/// group size hold zeros; their sums are computed and discarded.
#[derive(Default)]
struct SinkLanes {
    x: [Real; WARP_SIZE],
    y: [Real; WARP_SIZE],
    z: [Real; WARP_SIZE],
}

impl SinkLanes {
    fn stage(group: &[u32], pos: &[Vec3]) -> SinkLanes {
        let mut s = SinkLanes::default();
        for (l, &i) in group.iter().enumerate() {
            let p = pos[i as usize];
            (s.x[l], s.y[l], s.z[l]) = (p.x, p.y, p.z);
        }
        s
    }
}

/// One flush's Eq. 1 sums per lane, each started at +0.0.
#[derive(Default)]
struct LaneSums {
    ax: [Real; WARP_SIZE],
    ay: [Real; WARP_SIZE],
    az: [Real; WARP_SIZE],
    pot: [Real; WARP_SIZE],
}

/// Flush: every sink accumulates Eq. 1 over all list entries, then adds
/// that partial to its running total — the order `accumulate` + `+=`
/// fixes, so the result is bit-identical to the scalar oracle.
fn flush(
    list: &[Source],
    sinks: &SinkLanes,
    acc: &mut [Vec3],
    pot: &mut [Real],
    eps2: Real,
    events: &mut WalkEvents,
) {
    events.flushes += 1;
    events.interactions += (acc.len() * list.len()) as u64;
    let s = lane_sums(list, sinks, eps2);
    for (k, (a, p)) in acc.iter_mut().zip(pot.iter_mut()).enumerate() {
        *a += Vec3::new(s.ax[k], s.ay[k], s.az[k]);
        *p += s.pot[k];
    }
}

/// Run [`lane_sums_body`] in its AVX2 build when the CPU has AVX2, else
/// in the baseline build. Both builds give the same bits: the body uses
/// only IEEE add/mul/div/sqrt and rustc never contracts to FMA.
fn lane_sums(list: &[Source], sinks: &SinkLanes, eps2: Real) -> LaneSums {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the running CPU supports AVX2, checked just above.
        return unsafe { lane_sums_avx2(list, sinks, eps2) };
    }
    lane_sums_body(list, sinks, eps2)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn lane_sums_avx2(list: &[Source], sinks: &SinkLanes, eps2: Real) -> LaneSums {
    lane_sums_body(list, sinks, eps2)
}

/// The lane kernel: source-outer (the warp-shared list is broadcast),
/// lane-inner (one warp thread per sink). Each lane repeats
/// `nbody::kernel::interact` operation for operation and adds the
/// sources in list order, as `accumulate` does.
#[inline(always)]
#[allow(
    clippy::needless_range_loop,
    reason = "one index walks seven lane arrays in step"
)]
fn lane_sums_body(list: &[Source], sinks: &SinkLanes, eps2: Real) -> LaneSums {
    let mut out = LaneSums::default();
    for s in list {
        for l in 0..WARP_SIZE {
            let dx = s.pos.x - sinks.x[l];
            let dy = s.pos.y - sinks.y[l];
            let dz = s.pos.z - sinks.z[l];
            let r2 = eps2 + (dx * dx + dy * dy + dz * dz);
            let rinv = 1.0 / r2.sqrt();
            let rinv2 = rinv * rinv;
            let m_rinv = s.mass * rinv;
            let m_rinv3 = m_rinv * rinv2;
            // `interact` returns +0.0 for r² <= 0; a bit mask keeps the
            // loop branch-free (a select here does not vectorize). NaN
            // r² compares false and so propagates, as in `interact`.
            let keep: u32 = if r2 <= 0.0 { 0 } else { !0 };
            let masked = |v: Real| Real::from_bits(v.to_bits() & keep);
            out.ax[l] += masked(dx * m_rinv3);
            out.ay[l] += masked(dy * m_rinv3);
            out.az[l] += masked(dz * m_rinv3);
            out.pot[l] += masked(-m_rinv);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calcnode::calc_node;
    use crate::tree::{build_tree, BuildConfig};
    use nbody::direct::direct_parallel;
    use nbody::kernel::accumulate;
    use nbody::ParticleSet;
    use prng::prelude::*;

    fn plummer_like(n: usize, seed: u64) -> ParticleSet {
        // Centrally-concentrated cloud (r ~ uniform³ gives a steep cusp).
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ps = ParticleSet::with_capacity(n);
        for _ in 0..n {
            let r = rng.random::<Real>().powi(3) * 2.0 + 1e-3;
            let th = (rng.random::<Real>() * 2.0 - 1.0).acos();
            let ph = rng.random::<Real>() * std::f32::consts::TAU;
            let p = Vec3::new(
                r * th.sin() * ph.cos(),
                r * th.sin() * ph.sin(),
                r * th.cos(),
            );
            ps.push(p, Vec3::ZERO, 1.0 / n as Real);
        }
        ps
    }

    fn forces_fixture(n: usize, mac: Mac) -> (ParticleSet, WalkResult, Vec<Vec3>, Vec<Real>) {
        let mut ps = plummer_like(n, 42);
        let mut tree = build_tree(&mut ps, &BuildConfig::default());
        calc_node(&mut tree, &ps.pos, &ps.mass);
        let eps2 = 1e-6;
        let cfg = WalkConfig {
            mac,
            eps2,
            ..WalkConfig::default()
        };
        let active: Vec<u32> = (0..n as u32).collect();
        // Bootstrap a_old with 1 (irrelevant for OpeningAngle).
        let a_old = vec![1.0; n];
        let res = walk_tree(&tree, &ps.pos, &ps.mass, &a_old, &active, &cfg);
        let sources: Vec<Source> = ps
            .pos
            .iter()
            .zip(&ps.mass)
            .map(|(&p, &m)| Source { pos: p, mass: m })
            .collect();
        let (dacc, dpot) = direct_parallel(&ps.pos, &sources, eps2);
        (ps, res, dacc, dpot)
    }

    fn median_acc_error(res: &WalkResult, dacc: &[Vec3]) -> f64 {
        let mut errs: Vec<f64> = (0..dacc.len())
            .map(|i| ((res.acc[i] - dacc[i]).norm() / dacc[i].norm().max(1e-12)) as f64)
            .collect();
        errs.sort_by(|a, b| a.total_cmp(b));
        errs[errs.len() / 2]
    }

    #[test]
    fn opening_angle_walk_approximates_direct() {
        let (_, res, dacc, _) = forces_fixture(2048, Mac::OpeningAngle { theta: 0.5 });
        let err = median_acc_error(&res, &dacc);
        assert!(err < 5e-3, "median relative error {err}");
    }

    #[test]
    fn acceleration_mac_error_tracks_delta_acc() {
        let mut last_err = f64::INFINITY;
        for exp in [-3, -6, -9, -12] {
            let mac = Mac::Acceleration {
                delta_acc: 2.0f32.powi(exp),
            };
            let (_, res, dacc, _) = forces_fixture(2048, mac);
            let err = median_acc_error(&res, &dacc);
            assert!(
                err < last_err * 1.05,
                "error must not grow as Δacc tightens: {err} after {last_err} (2^{exp})"
            );
            last_err = err;
        }
        // The tightest setting must be very accurate.
        assert!(last_err < 1e-4, "2^-12 error {last_err}");
    }

    #[test]
    fn fewer_interactions_at_looser_accuracy() {
        let loose = forces_fixture(2048, Mac::Acceleration { delta_acc: 0.25 }).1;
        let tight = forces_fixture(
            2048,
            Mac::Acceleration {
                delta_acc: 2.0f32.powi(-12),
            },
        )
        .1;
        assert!(
            loose.events.interactions < tight.events.interactions,
            "loose {} vs tight {}",
            loose.events.interactions,
            tight.events.interactions
        );
        // Both are far below the direct-sum pair count.
        assert!(tight.events.interactions < 2048 * 2048);
    }

    #[test]
    fn potential_matches_direct_sum() {
        let (_, res, _, dpot) = forces_fixture(1024, Mac::OpeningAngle { theta: 0.4 });
        let mut errs: Vec<f64> = (0..dpot.len())
            .map(|i| ((res.pot[i] - dpot[i]).abs() / dpot[i].abs()) as f64)
            .collect();
        errs.sort_by(|a, b| a.total_cmp(b));
        assert!(
            errs[errs.len() / 2] < 2e-3,
            "median pot error {}",
            errs[errs.len() / 2]
        );
    }

    #[test]
    fn subset_walk_touches_only_active_sinks() {
        let mut ps = plummer_like(1024, 7);
        let mut tree = build_tree(&mut ps, &BuildConfig::default());
        calc_node(&mut tree, &ps.pos, &ps.mass);
        let cfg = WalkConfig {
            mac: Mac::OpeningAngle { theta: 0.6 },
            ..Default::default()
        };
        let a_old = vec![1.0; 1024];
        let active: Vec<u32> = (0..1024).step_by(3).map(|i| i as u32).collect();
        let res = walk_tree(&tree, &ps.pos, &ps.mass, &a_old, &active, &cfg);
        assert_eq!(res.acc.len(), active.len());
        assert_eq!(res.events.sinks, active.len() as u64);
        assert_eq!(res.events.groups, active.len().div_ceil(WARP_SIZE) as u64);
    }

    #[test]
    fn event_accounting_is_consistent() {
        let (_, res, _, _) = forces_fixture(4096, Mac::fiducial());
        let ev = &res.events;
        // Every MAC eval either accepted (list push), opened, or expanded
        // a leaf (pushes ≥ evals − opens because leaves push many).
        assert!(ev.mac_evals >= ev.opens);
        assert!(ev.list_pushes > 0);
        assert!(ev.flushes > 0);
        // Interactions = Σ group_size × pushes (all sinks see all pushes).
        assert_eq!(ev.interactions, 32 * ev.list_pushes);
        assert!(ev.queue_rounds >= ev.groups);
        assert!(ev.peak_queue_len > 0);
    }

    /// FNV-1a 64 over the `acc`/`pot` bit patterns of a walk.
    fn walk_digest(res: &WalkResult) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for (a, &p) in res.acc.iter().zip(&res.pot) {
            for v in [a.x, a.y, a.z, p] {
                for b in v.to_bits().to_le_bytes() {
                    h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        h
    }

    #[test]
    fn walk_digest_is_pinned() {
        // Uniform cube from the integer PRNG; the tree, MAC and Eq. 1 use
        // only IEEE arithmetic and sqrt, so these bits are the same on
        // every platform, vector width and thread count.
        let n = 4096;
        let mut rng = StdRng::seed_from_u64(2019);
        let mut ps = ParticleSet::with_capacity(n);
        for _ in 0..n {
            let mut c = || rng.random::<Real>() * 2.0 - 1.0;
            ps.push(Vec3::new(c(), c(), c()), Vec3::ZERO, 1.0 / n as Real);
        }
        let mut tree = build_tree(&mut ps, &BuildConfig::default());
        calc_node(&mut tree, &ps.pos, &ps.mass);
        let active: Vec<u32> = (0..n as u32).collect();
        let a_old = vec![1.0; n];
        for threads in [1, 4] {
            let res = parallel::with_thread_count(threads, || {
                walk_tree(
                    &tree,
                    &ps.pos,
                    &ps.mass,
                    &a_old,
                    &active,
                    &WalkConfig::default(),
                )
            });
            assert_eq!(
                walk_digest(&res),
                0x883c_4259_2b5a_925d,
                "walk digest at {threads} threads"
            );
        }
    }

    /// Bit equality, with any NaN equal to any NaN (payloads are not
    /// specified by IEEE arithmetic).
    fn same_bits(a: Real, b: Real) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    #[test]
    fn lane_flush_matches_scalar_oracle_bit_for_bit() {
        type Kernel = fn(&[Source], &SinkLanes, Real) -> LaneSums;
        let mut kernels: Vec<(&str, Kernel)> = vec![("portable", lane_sums_body)];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the running CPU supports AVX2, checked just above.
            kernels.push(("avx2", |l, s, e| unsafe { lane_sums_avx2(l, s, e) }));
        }
        let list_cap = WalkConfig::default().list_cap;
        let mut rng = StdRng::seed_from_u64(1106);
        let point = |rng: &mut StdRng| {
            let mut c = || rng.random::<Real>() * 2.0 - 1.0;
            Vec3::new(c(), c(), c())
        };
        let mut cases = 0;
        // Every list length 1..=list_cap, cycling through every group
        // size 1..=WARP_SIZE; each case flushes three lists into one
        // accumulator that starts at -0.0.
        for len in 1..=list_cap {
            let n = (len - 1) % WARP_SIZE + 1;
            let eps2: Real = if len % 2 == 1 { 0.0 } else { 1e-4 };
            let pos: Vec<Vec3> = (0..n).map(|_| point(&mut rng)).collect();
            let group: Vec<u32> = (0..n as u32).collect();
            let sinks = SinkLanes::stage(&group, &pos);
            let lists: Vec<Vec<Source>> = (0..3)
                .map(|f| {
                    let mut list: Vec<Source> = (0..len)
                        .map(|_| Source {
                            pos: point(&mut rng),
                            mass: rng.random::<Real>(),
                        })
                        .collect();
                    // A source on a sink: r² = 0 when ε² = 0, which must
                    // contribute +0.0 even after a -0.0 start.
                    list[len / 2].pos = pos[len % n];
                    // NaN sources: a NaN mass gives NaN in every lane but
                    // one whose r² = 0 masks it; a NaN position gives NaN
                    // r², which must propagate, not be masked.
                    if f == 2 && len % 7 == 0 {
                        list[0].mass = Real::NAN;
                    }
                    if f == 1 && len % 5 == 0 {
                        list[len - 1].pos.x = Real::NAN;
                    }
                    list
                })
                .collect();

            let mut want_acc = vec![Vec3::splat(-0.0); n];
            let mut want_pot = vec![-0.0 as Real; n];
            for list in &lists {
                for k in 0..n {
                    let out = accumulate(pos[k], list, eps2);
                    want_acc[k] += out.acc;
                    want_pot[k] += out.pot;
                }
            }
            let check = |name: &str, acc: &[Vec3], pot: &[Real]| {
                for k in 0..n {
                    let (a, w) = (acc[k], want_acc[k]);
                    assert!(
                        same_bits(a.x, w.x)
                            && same_bits(a.y, w.y)
                            && same_bits(a.z, w.z)
                            && same_bits(pot[k], want_pot[k]),
                        "{name}: len {len}, group {n}, lane {k}: \
                         {a:?}/{} vs oracle {w:?}/{}",
                        pot[k],
                        want_pot[k]
                    );
                }
            };

            for (name, kernel) in &kernels {
                let mut acc = vec![Vec3::splat(-0.0); n];
                let mut pot = vec![-0.0 as Real; n];
                for list in &lists {
                    let s = kernel(list, &sinks, eps2);
                    for k in 0..n {
                        acc[k] += Vec3::new(s.ax[k], s.ay[k], s.az[k]);
                        pot[k] += s.pot[k];
                    }
                }
                check(name, &acc, &pot);
            }
            // The production flush (dispatching) into the same start.
            let mut acc = vec![Vec3::splat(-0.0); n];
            let mut pot = vec![-0.0 as Real; n];
            let mut events = WalkEvents::default();
            for list in &lists {
                flush(list, &sinks, &mut acc, &mut pot, eps2, &mut events);
            }
            check("flush", &acc, &pot);
            assert_eq!(events.interactions, (3 * n * len) as u64);
            cases += 1;
        }
        assert_eq!(cases, list_cap);
    }

    #[test]
    fn forces_antisymmetric_enough_for_momentum() {
        // Tree forces are not exactly antisymmetric, but the net force
        // must be small relative to the typical force magnitude.
        let (ps, res, _, _) = forces_fixture(2048, Mac::fiducial());
        let mut net = [0.0f64; 3];
        let mut scale = 0.0f64;
        for i in 0..ps.len() {
            let f = (res.acc[i] * ps.mass[i]).as_f64();
            for k in 0..3 {
                net[k] += f[k];
            }
            scale += (res.acc[i].norm() * ps.mass[i]) as f64;
        }
        let mag = (net[0].powi(2) + net[1].powi(2) + net[2].powi(2)).sqrt();
        assert!(mag < 1e-2 * scale, "net {mag} vs scale {scale}");
    }
}

#[cfg(test)]
mod individual_tests {
    use super::*;
    use crate::calcnode::calc_node;
    use crate::tree::{build_tree, BuildConfig};
    use nbody::direct::direct_parallel;
    use nbody::ParticleSet;
    use prng::prelude::*;

    fn fixture(n: usize) -> (ParticleSet, Octree) {
        let mut rng = StdRng::seed_from_u64(99);
        let mut ps = ParticleSet::with_capacity(n);
        for _ in 0..n {
            let r = rng.random::<Real>().powi(2) * 3.0 + 1e-3;
            let th = (rng.random::<Real>() * 2.0 - 1.0).acos();
            let phi = rng.random::<Real>() * std::f32::consts::TAU;
            ps.push(
                Vec3::new(
                    r * th.sin() * phi.cos(),
                    r * th.sin() * phi.sin(),
                    r * th.cos(),
                ),
                Vec3::ZERO,
                1.0 / n as Real,
            );
        }
        let mut tree = build_tree(&mut ps, &BuildConfig::default());
        calc_node(&mut tree, &ps.pos, &ps.mass);
        (ps, tree)
    }

    #[test]
    fn individual_walk_matches_direct() {
        let n = 2048;
        let (ps, tree) = fixture(n);
        let cfg = WalkConfig {
            mac: Mac::Acceleration {
                delta_acc: 2.0f32.powi(-10),
            },
            eps2: 1e-5,
            ..WalkConfig::default()
        };
        let active: Vec<u32> = (0..n as u32).collect();
        let a_old = vec![1.0; n];
        let res = walk_tree_individual(&tree, &ps.pos, &ps.mass, &a_old, &active, &cfg);
        let sources: Vec<Source> = ps
            .pos
            .iter()
            .zip(&ps.mass)
            .map(|(&p, &m)| Source { pos: p, mass: m })
            .collect();
        let (dacc, _) = direct_parallel(&ps.pos, &sources, 1e-5);
        let mut errs: Vec<f64> = (0..n)
            .map(|i| ((res.acc[i] - dacc[i]).norm() / dacc[i].norm().max(1e-12)) as f64)
            .collect();
        errs.sort_by(|a, b| a.total_cmp(b));
        assert!(errs[n / 2] < 2e-3, "median error {}", errs[n / 2]);
    }

    #[test]
    fn group_walk_trades_interactions_for_shared_lists() {
        // The design trade-off of §1: the group walk evaluates fewer MACs
        // (one traversal per 32 sinks) but performs more interactions
        // (every accepted cell hits all 32 sinks); the individual walk is
        // the mirror image.
        let n = 4096;
        let (ps, tree) = fixture(n);
        let cfg = WalkConfig {
            mac: Mac::fiducial(),
            eps2: 1e-5,
            ..WalkConfig::default()
        };
        let active: Vec<u32> = (0..n as u32).collect();
        let a_old = vec![1.0; n];
        let group = walk_tree(&tree, &ps.pos, &ps.mass, &a_old, &active, &cfg);
        let indiv = walk_tree_individual(&tree, &ps.pos, &ps.mass, &a_old, &active, &cfg);
        assert!(
            group.events.mac_evals < indiv.events.mac_evals,
            "group {} vs individual {} MAC evals",
            group.events.mac_evals,
            indiv.events.mac_evals
        );
        assert!(
            group.events.interactions > indiv.events.interactions,
            "group {} vs individual {} interactions",
            group.events.interactions,
            indiv.events.interactions
        );
    }

    #[test]
    fn both_walks_agree_with_each_other() {
        let n = 1024;
        let (ps, tree) = fixture(n);
        let cfg = WalkConfig {
            mac: Mac::Acceleration {
                delta_acc: 2.0f32.powi(-12),
            },
            eps2: 1e-5,
            ..WalkConfig::default()
        };
        let active: Vec<u32> = (0..n as u32).collect();
        let a_old = vec![1.0; n];
        let g = walk_tree(&tree, &ps.pos, &ps.mass, &a_old, &active, &cfg);
        let i = walk_tree_individual(&tree, &ps.pos, &ps.mass, &a_old, &active, &cfg);
        for k in 0..n {
            let rel = (g.acc[k] - i.acc[k]).norm() / g.acc[k].norm().max(1e-12);
            // Both are approximations with *independent* acceptance sets;
            // they agree to the MAC error scale, not bitwise.
            assert!(rel < 2e-2, "sink {k}: group vs individual differ by {rel}");
        }
    }
}
