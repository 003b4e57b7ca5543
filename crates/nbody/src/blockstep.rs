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

    /// Particle `i`'s deadline: the tick its current sub-step ends at.
    #[inline(always)]
    fn deadline(&self, i: usize) -> u64 {
        self.ptick[i] + self.ticks_of_level(self.level[i])
    }

    /// The earliest pending deadline: `min_i (ptick_i + dt_i)`.
    /// Panics on an empty set.
    pub fn next_tick(&self) -> u64 {
        (0..self.len())
            .map(|i| self.deadline(i))
            .min()
            .expect("next_tick on empty BlockSteps")
    }

    /// Begin a block step: move the global clock to the next deadline.
    pub fn advance(&mut self) {
        let t_next = self.next_tick();
        debug_assert!(t_next > self.tick);
        self.tick = t_next;
    }

    /// The particles whose sub-step ends at the current tick, in
    /// ascending order: their forces are re-evaluated this block step.
    pub fn active(&self) -> Vec<u32> {
        (0..self.len())
            .filter(|&i| {
                debug_assert!(
                    self.deadline(i) >= self.tick,
                    "particle {i} missed its deadline"
                );
                self.deadline(i) == self.tick
            })
            .map(|i| i as u32)
            .collect()
    }

    /// The prediction interval of particle `i`: from its committed time to
    /// the global time.
    #[inline(always)]
    pub fn drift(&self, i: usize) -> Real {
        self.ticks_to_time(self.tick - self.ptick[i]) as Real
    }

    /// Finish particle `i`'s sub-step: commit it to the global time and
    /// update its level from the desired time step `dt_want` (typically
    /// from [`crate::integrator::timestep_criterion`]).
    ///
    /// Level transitions follow the standard block-step rules: a particle
    /// may *refine* (shrink its step) freely, but may *coarsen* (double its
    /// step) only by one level at a time and only when its new time is
    /// aligned with the coarser block boundary. At tick 0 and level 0 this
    /// seeds the level as [`BlockSteps::level_for_dt`]`(dt_want)`.
    pub fn commit(&mut self, i: usize, dt_want: Real) {
        self.ptick[i] = self.tick;
        let k = self.level[i];
        let want = self.level_for_dt(dt_want);
        if want > k {
            // Refine immediately (`level_for_dt` never exceeds the finest level).
            self.level[i] = want;
        } else if want < k {
            // Coarsen one level, only when aligned to the coarser block.
            let coarser_ticks = self.ticks_of_level(k - 1);
            if self.tick.is_multiple_of(coarser_ticks) {
                self.level[i] = k - 1;
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
        crate::particles::permute_each(perm, [&mut self.level]);
        crate::particles::permute_each(perm, [&mut self.ptick]);
    }

    /// Validate hierarchy invariants: levels within the hierarchy,
    /// particle times never past the global time and aligned to their own
    /// block size, and every deadline still ahead of the global time.
    pub fn check_invariants(&self) -> Result<(), String> {
        for i in 0..self.len() {
            if self.level[i] as u32 > self.max_depth {
                return Err(format!("particle {i} level {} > max_depth", self.level[i]));
            }
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
            if self.ptick[i]
                .checked_add(step)
                .is_none_or(|d| d <= self.tick)
            {
                return Err(format!("particle {i} is past its block-step deadline"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One block step with every active particle asking for `want(i)`;
    /// returns the active list.
    fn step(bs: &mut BlockSteps, want: impl Fn(usize) -> Real) -> Vec<u32> {
        bs.advance();
        let active = bs.active();
        for &i in &active {
            bs.commit(i as usize, want(i as usize));
        }
        active
    }

    #[test]
    fn uniform_levels_make_everyone_active() {
        let mut bs = BlockSteps::new(8, 1.0, 8);
        bs.advance();
        assert_eq!(bs.active(), (0..8).collect::<Vec<u32>>());
        assert!((0..8).all(|i| (bs.drift(i) - 1.0).abs() < 1e-6));
        assert_eq!(bs.time(), 1.0);
    }

    #[test]
    fn two_level_hierarchy_alternates_activity() {
        let mut bs = BlockSteps::new(2, 1.0, 8);
        bs.level[1] = 1; // particle 1 takes half steps
        let want = |i: usize| [1.0, 0.5][i];
        // First block step: t -> 0.5, only particle 1 active.
        bs.advance();
        assert_eq!(bs.active(), vec![1]);
        assert!((bs.drift(0) - 0.5).abs() < 1e-6);
        assert!((bs.drift(1) - 0.5).abs() < 1e-6);
        bs.commit(1, want(1));
        assert_eq!(
            bs.drift(1),
            0.0,
            "a committed particle is at the global time"
        );
        // Second block step: t -> 1.0, both active.
        assert_eq!(step(&mut bs, want), vec![0, 1]);
        assert_eq!(bs.time(), 1.0);
        bs.check_invariants().unwrap();
    }

    #[test]
    fn refinement_is_immediate_coarsening_waits_for_alignment() {
        let mut bs = BlockSteps::new(1, 1.0, 8);
        step(&mut bs, |_| 0.24); // t = 1.0; wants level 3 (dt = 0.125)
        assert_eq!(bs.level[0], 3);
        // Now ask for a big step: t=1.125 is not aligned to level-2 blocks
        // (0.25), so coarsening is deferred.
        step(&mut bs, |_| 10.0); // t = 1.125
        assert_eq!(bs.level[0], 3);
        // March until the time aligns; level must step up by exactly one
        // per aligned boundary.
        step(&mut bs, |_| 10.0); // t = 1.25, aligned to 0.25
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
                                                // Committing at tick 0 from level 0 seeds exactly that level.
        let mut seeded = BlockSteps::new(3, 1.0, 10);
        for (i, dt) in [0.3, 1e-12, 2.0].into_iter().enumerate() {
            seeded.commit(i, dt);
        }
        assert_eq!(seeded.level, vec![2, 10, 0]);
        assert_eq!(seeded.ptick, vec![0; 3]);
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
            // keep levels fixed: particle i asks for its own dt = 2^-i
            activations += step(&mut bs, |i| 1.0 / (1u64 << i) as Real).len();
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
        bs.ptick[0] = 0; // aligned, but its deadline (16) has passed
        bs.tick = 16;
        assert!(bs.check_invariants().unwrap_err().contains("deadline"));
        bs.level[0] = 5; // finer than the hierarchy
        assert!(bs.check_invariants().unwrap_err().contains("max_depth"));
    }
}
