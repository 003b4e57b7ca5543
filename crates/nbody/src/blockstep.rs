//! Hierarchical block time steps (McMillan 1986), the `block time step`
//! scheme GOTHIC adopts alongside the tree method.
//!
//! Each particle carries an individual step `dt_i = dt_max / 2^{k_i}`
//! quantised to a power-of-two hierarchy. The system advances from one
//! *block step* to the next: the global time moves to the earliest pending
//! particle deadline, the particles whose sub-step ends there are *active*
//! (their forces are re-evaluated and their velocities corrected), and all
//! other particles are merely drifted to the new time as force sources.
//!
//! Time is tracked in integer **ticks** (`dt_max = 2^max_depth` ticks) so
//! block alignment is exact — no floating-point "is this time aligned?"
//! comparisons, which are the classic source of broken block hierarchies.

use crate::vec3::Real;

/// Per-particle block time-step state.
#[derive(Clone, Debug)]
pub struct BlockSteps {
    /// Global time in ticks.
    pub tick: u64,
    /// dt_max expressed in ticks (`2^max_depth`).
    pub ticks_per_dtmax: u64,
    /// The top-level (largest) time step in simulation units.
    pub dt_max: Real,
    /// Number of refinement levels below `dt_max`.
    pub max_depth: u32,
    /// Per-particle refinement level `k` (dt = dt_max / 2^k).
    pub level: Vec<u8>,
    /// Per-particle committed time in ticks.
    pub ptick: Vec<u64>,
}

impl BlockSteps {
    /// Create the hierarchy for `n` particles, all starting at level 0.
    pub fn new(n: usize, dt_max: Real, max_depth: u32) -> Self {
        assert!(max_depth < 63, "max_depth must leave room in 64-bit ticks");
        BlockSteps {
            tick: 0,
            ticks_per_dtmax: 1u64 << max_depth,
            dt_max,
            max_depth,
            level: vec![0; n],
            ptick: vec![0; n],
        }
    }

    /// Number of particles tracked.
    pub fn len(&self) -> usize {
        self.level.len()
    }

    /// True when no particles are tracked.
    pub fn is_empty(&self) -> bool {
        self.level.is_empty()
    }

    /// Step size in ticks at refinement level `k`.
    #[inline(always)]
    pub fn ticks_of_level(&self, k: u8) -> u64 {
        self.ticks_per_dtmax >> k
    }

    /// Step size in simulation units at refinement level `k`.
    #[inline(always)]
    pub fn dt_of_level(&self, k: u8) -> Real {
        self.dt_max / (1u64 << k) as Real
    }

    /// Convert ticks to simulation time units.
    #[inline(always)]
    pub fn ticks_to_time(&self, ticks: u64) -> f64 {
        self.dt_max as f64 * ticks as f64 / self.ticks_per_dtmax as f64
    }

    /// Current global time in simulation units.
    pub fn time(&self) -> f64 {
        self.ticks_to_time(self.tick)
    }

    /// The earliest pending deadline: `min_i (ptick_i + dt_i)`.
    /// Panics on an empty set.
    pub fn next_tick(&self) -> u64 {
        self.ptick
            .iter()
            .zip(&self.level)
            .map(|(&t, &k)| t + self.ticks_of_level(k))
            .min()
            .expect("next_tick on empty BlockSteps")
    }

    /// Begin a block step: advance the global clock to the next deadline
    /// and return `(active, drift_dt)` where `active[i]` flags particles
    /// whose sub-step ends now and `drift_dt[i]` is the prediction interval
    /// from each particle's committed time to the new global time.
    pub fn begin_step(&mut self) -> (Vec<bool>, Vec<Real>) {
        let t_next = self.next_tick();
        debug_assert!(t_next > self.tick);
        self.tick = t_next;
        let n = self.len();
        let mut active = vec![false; n];
        let mut drift = vec![0.0; n];
        for i in 0..n {
            let deadline = self.ptick[i] + self.ticks_of_level(self.level[i]);
            active[i] = deadline == t_next;
            debug_assert!(deadline >= t_next, "particle {i} missed its deadline");
            drift[i] = self.ticks_to_time(t_next - self.ptick[i]) as Real;
        }
        (active, drift)
    }

    /// Finish a block step: commit the active particles to the new time and
    /// update their levels from the desired time steps `dt_want[i]`
    /// (typically from [`crate::integrator::timestep_criterion`]).
    ///
    /// Level transitions follow the standard block-step rules: a particle
    /// may *refine* (shrink its step) freely, but may *coarsen* (double its
    /// step) only by one level at a time and only when its new time is
    /// aligned with the coarser block boundary.
    pub fn end_step(&mut self, active: &[bool], dt_want: &[Real]) {
        assert_eq!(active.len(), self.len());
        assert_eq!(dt_want.len(), self.len());
        for i in 0..self.len() {
            if !active[i] {
                continue;
            }
            self.ptick[i] = self.tick;
            let k = self.level[i];
            let want = self.level_for_dt(dt_want[i]);
            if want > k {
                // Refine immediately (but never below the finest level).
                self.level[i] = want.min(self.max_depth as u8);
            } else if want < k {
                // Coarsen one level, only when aligned to the coarser block.
                let coarser_ticks = self.ticks_of_level(k - 1);
                if self.tick.is_multiple_of(coarser_ticks) {
                    self.level[i] = k - 1;
                }
            }
        }
    }

    /// The level whose step is the largest power-of-two step ≤ `dt`.
    pub fn level_for_dt(&self, dt: Real) -> u8 {
        if dt >= self.dt_max {
            return 0;
        }
        if dt <= 0.0 {
            return self.max_depth as u8;
        }
        let k = (self.dt_max / dt).log2().ceil() as u32;
        k.min(self.max_depth) as u8
    }

    /// Apply the same permutation the particle set received (tree rebuilds
    /// reorder particles into Morton order): element `i` of the result is
    /// element `perm[i]` of the original.
    pub fn permute(&mut self, perm: &[u32]) {
        assert_eq!(perm.len(), self.len());
        self.level = perm.iter().map(|&p| self.level[p as usize]).collect();
        self.ptick = perm.iter().map(|&p| self.ptick[p as usize]).collect();
    }

    /// Validate hierarchy invariants: particle times never exceed the
    /// global time, every particle time is aligned to its own block size.
    pub fn check_invariants(&self) -> Result<(), String> {
        for i in 0..self.len() {
            if self.ptick[i] > self.tick {
                return Err(format!("particle {i} is ahead of global time"));
            }
            let step = self.ticks_of_level(self.level[i]);
            if !self.ptick[i].is_multiple_of(step) {
                return Err(format!(
                    "particle {i} time {} not aligned to its block size {}",
                    self.ptick[i], step
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_levels_make_everyone_active() {
        let mut bs = BlockSteps::new(8, 1.0, 8);
        let (active, drift) = bs.begin_step();
        assert!(active.iter().all(|&a| a));
        assert!(drift.iter().all(|&d| (d - 1.0).abs() < 1e-6));
        assert_eq!(bs.time(), 1.0);
    }

    #[test]
    fn two_level_hierarchy_alternates_activity() {
        let mut bs = BlockSteps::new(2, 1.0, 8);
        bs.level[1] = 1; // particle 1 takes half steps
                         // First block step: t -> 0.5, only particle 1 active.
        let (active, drift) = bs.begin_step();
        assert_eq!(active, vec![false, true]);
        assert!((drift[0] - 0.5).abs() < 1e-6);
        assert!((drift[1] - 0.5).abs() < 1e-6);
        bs.end_step(&active, &[1.0, 0.5]);
        // Second block step: t -> 1.0, both active.
        let (active, _) = bs.begin_step();
        assert_eq!(active, vec![true, true]);
        bs.end_step(&active, &[1.0, 0.5]);
        assert_eq!(bs.time(), 1.0);
        bs.check_invariants().unwrap();
    }

    #[test]
    fn refinement_is_immediate_coarsening_waits_for_alignment() {
        let mut bs = BlockSteps::new(1, 1.0, 8);
        bs.level[0] = 0;
        let (active, _) = bs.begin_step(); // t = 1.0
        bs.end_step(&active, &[0.24]); // wants level 3 (dt = 0.125)
        assert_eq!(bs.level[0], 3);
        // Now ask for a big step: t=1.125 is not aligned to level-2 blocks
        // (0.25), so coarsening is deferred.
        let (active, _) = bs.begin_step(); // t = 1.125
        bs.end_step(&active, &[10.0]);
        assert_eq!(bs.level[0], 3);
        // March until the time aligns; level must step up by exactly one
        // per aligned boundary.
        let (active, _) = bs.begin_step(); // t = 1.25, aligned to 0.25
        bs.end_step(&active, &[10.0]);
        assert_eq!(bs.level[0], 2);
        bs.check_invariants().unwrap();
    }

    #[test]
    fn level_for_dt_rounds_down_to_power_of_two() {
        let bs = BlockSteps::new(1, 1.0, 10);
        assert_eq!(bs.level_for_dt(1.5), 0);
        assert_eq!(bs.level_for_dt(1.0), 0);
        assert_eq!(bs.level_for_dt(0.5), 1);
        assert_eq!(bs.level_for_dt(0.3), 2); // 0.25 ≤ 0.3 < 0.5
        assert_eq!(bs.level_for_dt(0.125), 3);
        assert_eq!(bs.level_for_dt(0.0), 10);
        assert_eq!(bs.level_for_dt(1e-12), 10); // clamped at max depth
    }

    #[test]
    fn dt_of_level_halves_per_level() {
        let bs = BlockSteps::new(1, 2.0, 8);
        assert_eq!(bs.dt_of_level(0), 2.0);
        assert_eq!(bs.dt_of_level(1), 1.0);
        assert_eq!(bs.dt_of_level(3), 0.25);
    }

    #[test]
    fn mixed_hierarchy_step_counts() {
        // 4 particles at levels 0..3: over one dt_max there are 8 block
        // steps (driven by the level-3 particle) and the total number of
        // (particle, activation) pairs is 1 + 2 + 4 + 8 = 15.
        let mut bs = BlockSteps::new(4, 1.0, 8);
        for i in 0..4 {
            bs.level[i] = i as u8;
        }
        let mut steps = 0;
        let mut activations = 0;
        while bs.time() < 1.0 - 1e-9 {
            let (active, _) = bs.begin_step();
            activations += active.iter().filter(|&&a| a).count();
            // keep levels fixed: request each particle's own dt
            let wants: Vec<Real> = (0..4).map(|i| bs.dt_of_level(bs.level[i])).collect();
            bs.end_step(&active, &wants);
            steps += 1;
        }
        assert_eq!(steps, 8);
        assert_eq!(activations, 15);
        bs.check_invariants().unwrap();
    }

    #[test]
    fn invariants_catch_misalignment() {
        let mut bs = BlockSteps::new(1, 1.0, 4);
        bs.level[0] = 0;
        bs.ptick[0] = 3; // not aligned to 16-tick blocks
        bs.tick = 8;
        assert!(bs.check_invariants().is_err());
    }
}
