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
///
/// A particle's committed tick (the start of its current sub-step) is not
/// stored. Between block steps it is the latest multiple of the
/// particle's step not after the global tick, so it follows from `tick`
/// and `level`. Inside a step, after [`BlockSteps::advance`], a particle
/// whose step ends at the new tick has committed either the step before
/// (still pending) or this one; one parity bit per particle tells the two
/// apart.
#[derive(Clone, Debug)]
pub struct BlockSteps {
    /// Global time in ticks.
    tick: u64,
    /// dt_max expressed in ticks (`2^max_depth`).
    pub ticks_per_dtmax: u64,
    /// The top-level (largest) time step in simulation units.
    pub dt_max: Real,
    /// Number of refinement levels below `dt_max`.
    pub max_depth: u32,
    /// Per-particle refinement level `k` (dt = dt_max / 2^k).
    level: Vec<u8>,
    /// Bit `i % 64` of word `i / 64` is the parity of particle `i`'s
    /// committed block, `(ptick / step) mod 2`.
    parity: Vec<u64>,
    /// Entry `k`: the drift of a level-`k` particle that has not committed
    /// since the last [`BlockSteps::advance`].
    level_drift: [Real; 64],
    /// Active particles not yet committed: counted by `advance` (every
    /// particle whose step ends at the new tick), decremented by `commit`.
    pending: usize,
}

impl BlockSteps {
    /// Create the hierarchy for `n` particles, all starting at level 0.
    pub fn new(n: usize, dt_max: Real, max_depth: u32) -> Self {
        Self::at_tick(0, dt_max, max_depth, vec![0; n])
    }

    /// The hierarchy at the block-step boundary `tick`, with every
    /// particle committed at the latest multiple of its step not after
    /// `tick` (the state a snapshot stores). Levels are taken as given;
    /// [`BlockSteps::check_invariants`] rejects one past `max_depth`.
    pub fn at_tick(tick: u64, dt_max: Real, max_depth: u32, level: Vec<u8>) -> Self {
        assert!(max_depth < 63, "max_depth must leave room in 64-bit ticks");
        let mut blocks = BlockSteps {
            tick,
            ticks_per_dtmax: 1u64 << max_depth,
            dt_max,
            max_depth,
            parity: Vec::new(),
            level,
            level_drift: [0.0; 64],
            pending: 0,
        };
        blocks.parity = blocks
            .level
            .chunks(64)
            .map(|ks| pack(ks.iter().map(|&k| blocks.block_parity(k))))
            .collect();
        blocks
    }

    /// Global time in ticks.
    #[inline(always)]
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Per-particle refinement level `k` (dt = dt_max / 2^k). `commit`
    /// changes a level together with the parity bit that depends on it.
    #[inline(always)]
    pub fn levels(&self) -> &[u8] {
        &self.level
    }

    /// Number of particles tracked.
    pub fn len(&self) -> usize {
        self.level.len()
    }

    /// True when no particles are tracked.
    pub fn is_empty(&self) -> bool {
        self.level.is_empty()
    }

    /// Step size in ticks at refinement level `k` (no panic for a level
    /// past `max_depth`; [`BlockSteps::check_invariants`] rejects one).
    #[inline(always)]
    pub fn ticks_of_level(&self, k: u8) -> u64 {
        self.ticks_per_dtmax.wrapping_shr(k.into())
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

    /// The parity of the level-`k` block that holds the global tick,
    /// `(tick / step) mod 2`.
    #[inline(always)]
    fn block_parity(&self, k: u8) -> bool {
        self.tick
            .wrapping_shr(self.max_depth.wrapping_sub(u32::from(k)))
            & 1
            == 1
    }

    #[inline(always)]
    fn parity(&self, i: usize) -> bool {
        self.parity[i / 64] >> (i % 64) & 1 == 1
    }

    /// The coarsest level whose step ends at the global tick,
    /// `max_depth − min(trailing_zeros(tick), max_depth)`; every finer
    /// level's step ends there too.
    fn first_due_level(&self) -> u8 {
        (self.max_depth - self.tick.trailing_zeros().min(self.max_depth)) as u8
    }

    /// Particle `i`'s committed tick: the start of its current sub-step.
    #[inline]
    pub fn ptick(&self, i: usize) -> u64 {
        let k = self.level[i];
        let step = self.ticks_of_level(k);
        let start = self.tick & !step.wrapping_sub(1);
        // A particle whose step ends at the global tick and that has not
        // committed there still has the previous block's parity.
        if start == self.tick && self.parity(i) != self.block_parity(k) {
            start - step
        } else {
            start
        }
    }

    /// The earliest pending deadline, `min_i (ptick_i + dt_i)`: the global
    /// tick while an active particle has not committed, otherwise the next
    /// multiple of the finest occupied level's step. Panics on an empty
    /// set.
    pub fn next_tick(&self) -> u64 {
        assert!(!self.is_empty(), "next_tick on empty BlockSteps");
        if self.pending > 0 {
            return self.tick;
        }
        // A fold, not `max()`, so that it compiles to vector code.
        let finest = self.level.iter().fold(0, |m, &k| m.max(k));
        let step = self.ticks_of_level(finest);
        (self.tick & !(step - 1)) + step
    }

    /// Begin a block step: move the global clock to the next deadline,
    /// count the particles whose step ends there and tabulate the drift of
    /// each level from its committed tick.
    pub fn advance(&mut self) {
        let t_next = self.next_tick();
        debug_assert!(t_next > self.tick);
        self.tick = t_next;
        let first = self.first_due_level();
        // Counted in byte lanes, 255 levels at a time.
        self.pending = self
            .level
            .chunks(255)
            .map(|ks| ks.iter().fold(0u8, |c, &k| c + u8::from(k >= first)) as usize)
            .sum();
        for k in 0..=self.max_depth as u8 {
            let step = self.ticks_of_level(k);
            let since = match self.tick & (step - 1) {
                0 => step,
                r => r,
            };
            self.level_drift[k as usize] = self.ticks_to_time(since) as Real;
        }
    }

    /// The particles whose sub-step ends at the current tick and that have
    /// not committed there, in ascending order: their forces are
    /// re-evaluated this block step. The list is allocated at its exact
    /// size, which `advance` counted.
    pub fn active(&self) -> Vec<u32> {
        let mut active = Vec::with_capacity(self.pending);
        let first = self.first_due_level();
        let parity_now =
            (0..=self.max_depth as u8).fold(0u64, |m, k| m | u64::from(self.block_parity(k)) << k);
        for (w, levels) in self.level.chunks(64).enumerate() {
            if active.len() == self.pending {
                break;
            }
            if levels.iter().fold(0, |m, &k| m.max(k)) < first {
                continue;
            }
            let stored = self.parity[w];
            for (j, &k) in levels.iter().enumerate() {
                if k >= first && (stored >> j ^ parity_now.wrapping_shr(k.into())) & 1 == 1 {
                    active.push((64 * w + j) as u32);
                }
            }
        }
        debug_assert_eq!(active.len(), self.pending);
        active
    }

    /// The prediction interval of particle `i`: from its committed time to
    /// the global time.
    #[inline(always)]
    pub fn drift(&self, i: usize) -> Real {
        self.ticks_to_time(self.tick - self.ptick(i)) as Real
    }

    /// [`BlockSteps::drift`] of a level-`k` particle that has not committed
    /// since the last [`BlockSteps::advance`]: every particle in predict,
    /// and every active one until it commits. Read from a table the
    /// advance fills, one entry per level.
    #[inline(always)]
    pub fn drift_of_level(&self, k: u8) -> Real {
        self.level_drift[k as usize]
    }

    /// Finish particle `i`'s sub-step, which must end at the global tick
    /// (or any particle's at tick 0): commit it to the global time and
    /// update its level from the desired time step `dt_want` (typically
    /// from [`crate::integrator::timestep_criterion`]).
    ///
    /// Level transitions follow the standard block-step rules: a particle
    /// may *refine* (shrink its step) freely, but may *coarsen* (double its
    /// step) only by one level at a time and only when its new time is
    /// aligned with the coarser block boundary. At tick 0 and level 0 this
    /// seeds the level as [`BlockSteps::level_for_dt`]`(dt_want)`.
    pub fn commit(&mut self, i: usize, dt_want: Real) {
        let k = self.level[i];
        debug_assert!(
            self.tick.is_multiple_of(self.ticks_of_level(k)),
            "particle {i} committed off its block boundary"
        );
        // On its block boundary, a particle is pending while its parity
        // is the previous block's.
        self.pending -= usize::from(self.parity(i) != self.block_parity(k));
        let want = self.level_for_dt(dt_want);
        if want > k {
            // Refine immediately (`level_for_dt` never exceeds the finest level).
            self.level[i] = want;
        } else if want < k {
            // Coarsen one level, only when aligned to the coarser block.
            let coarser_ticks = self.ticks_of_level(k - 1);
            if self.tick & (coarser_ticks - 1) == 0 {
                self.level[i] = k - 1;
            }
        }
        let parity = u64::from(self.block_parity(self.level[i]));
        let word = &mut self.parity[i / 64];
        *word = *word & !(1 << (i % 64)) | parity << (i % 64);
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
        self.parity = perm
            .chunks(64)
            .map(|ps| pack(ps.iter().map(|&p| self.parity(p as usize))))
            .collect();
    }

    /// Validate hierarchy invariants: levels within the hierarchy and
    /// every deadline still ahead of the global time. A committed tick is
    /// derived from the clock and the level, so it is aligned to its block
    /// and never past the global time by construction.
    pub fn check_invariants(&self) -> Result<(), String> {
        (0..self.len()).try_for_each(|i| self.check_committed(i, self.ptick(i)))
    }

    /// Check particle `i` against a committed tick `p` read from outside
    /// (a snapshot): its level must lie within the hierarchy, `p` must be
    /// the committed tick the clock and the level give, and its deadline
    /// must still be ahead of the global time. The error names the
    /// particle and says how `p` is wrong.
    #[inline]
    pub fn check_committed(&self, i: usize, p: u64) -> Result<(), String> {
        let k = self.level[i];
        let deadline = p.checked_add(self.ticks_of_level(k));
        if u32::from(k) <= self.max_depth
            && p == self.ptick(i)
            && deadline.is_some_and(|d| d > self.tick)
        {
            return Ok(());
        }
        Err(self.refusal(i, p))
    }

    /// What is wrong with particle `i` and committed tick `p`.
    #[cold]
    fn refusal(&self, i: usize, p: u64) -> String {
        let k = self.level[i];
        if u32::from(k) > self.max_depth {
            return format!("particle {i} level {k} > max_depth");
        }
        let (step, derived) = (self.ticks_of_level(k), self.ptick(i));
        if p == derived {
            return format!("particle {i} is past its block-step deadline");
        }
        let why = if p > self.tick {
            "is ahead of the global tick"
        } else if p & (step - 1) != 0 {
            "is not aligned to its block size"
        } else {
            "is past its block-step deadline"
        };
        format!(
            "particle {i} committed tick {p} {why}: tick {} and level {k} give {derived}",
            self.tick
        )
    }
}

/// Pack up to 64 flags into a word, the first in bit 0.
#[inline(always)]
fn pack(flags: impl Iterator<Item = bool>) -> u64 {
    flags.enumerate().fold(0, |w, (j, f)| w | u64::from(f) << j)
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
        assert!((0..3).all(|i| seeded.ptick(i) == 0));
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
        // A misaligned committed tick cannot be represented; the snapshot
        // reader refuses one (`snapshot::tests`).
        let mut bs = BlockSteps::new(1, 1.0, 4);
        bs.level[0] = 0;
        bs.tick = 16; // committed at 0, so its deadline (16) has passed
        assert_eq!(bs.ptick(0), 0);
        assert!(bs.check_invariants().unwrap_err().contains("deadline"));
        bs.level[0] = 5; // finer than the hierarchy
        assert!(bs.check_invariants().unwrap_err().contains("max_depth"));
    }

    #[test]
    fn drift_table_matches_drift_until_commit() {
        let mut bs = BlockSteps::new(4, 1.0, 8);
        bs.level.copy_from_slice(&[0, 1, 2, 3]);
        for _ in 0..8 {
            bs.advance();
            for i in 0..4 {
                assert_eq!(bs.drift(i), bs.drift_of_level(bs.level[i]));
            }
            for i in bs.active() {
                let i = i as usize;
                bs.commit(i, bs.dt_of_level(bs.level[i]));
                assert_eq!(bs.drift(i), 0.0);
            }
        }
    }

    /// The committed-tick bookkeeping `BlockSteps` replaced: one `u64` per
    /// particle, a min over every deadline and a filter over all of them.
    struct Oracle {
        blocks: BlockSteps,
        ptick: Vec<u64>,
    }

    impl Oracle {
        fn deadline(&self, i: usize) -> u64 {
            self.ptick[i] + self.blocks.ticks_of_level(self.blocks.level[i])
        }

        fn next_tick(&self) -> u64 {
            (0..self.ptick.len())
                .map(|i| self.deadline(i))
                .min()
                .unwrap()
        }

        fn active(&self) -> Vec<u32> {
            (0..self.ptick.len())
                .filter(|&i| self.deadline(i) == self.blocks.tick)
                .map(|i| i as u32)
                .collect()
        }

        fn drift(&self, i: usize) -> Real {
            self.blocks.ticks_to_time(self.blocks.tick - self.ptick[i]) as Real
        }

        fn advance(&mut self) {
            self.blocks.tick = self.next_tick();
        }

        fn commit(&mut self, i: usize, dt_want: Real) {
            self.ptick[i] = self.blocks.tick;
            let b = &mut self.blocks;
            let (k, want) = (b.level[i], b.level_for_dt(dt_want));
            if want > k {
                b.level[i] = want;
            } else if want < k && b.tick.is_multiple_of(b.ticks_of_level(k - 1)) {
                b.level[i] = k - 1;
            }
        }

        fn permute(&mut self, perm: &[u32]) {
            crate::particles::permute_each(perm, [&mut self.blocks.level]);
            crate::particles::permute_each(perm, [&mut self.ptick]);
        }

        fn check_invariants(&self) -> Result<(), String> {
            let b = &self.blocks;
            for i in 0..self.ptick.len() {
                if b.level[i] as u32 > b.max_depth {
                    return Err(format!("particle {i} level {} > max_depth", b.level[i]));
                }
                let step = b.ticks_of_level(b.level[i]);
                if self.ptick[i] > b.tick || !self.ptick[i].is_multiple_of(step) {
                    return Err(format!("particle {i} is misaligned or ahead"));
                }
                if self.ptick[i].checked_add(step).is_none_or(|d| d <= b.tick) {
                    return Err(format!("particle {i} is past its block-step deadline"));
                }
            }
            Ok(())
        }

        /// Every public answer of `bs` equals the oracle's.
        fn agrees(&self, bs: &BlockSteps, at: &str) {
            assert_eq!(bs.tick, self.blocks.tick, "{at}: tick");
            assert_eq!(bs.level, self.blocks.level, "{at}: levels");
            assert_eq!(bs.next_tick(), self.next_tick(), "{at}: next_tick");
            assert_eq!(bs.active(), self.active(), "{at}: active");
            for i in 0..self.ptick.len() {
                assert_eq!(bs.ptick(i), self.ptick[i], "{at}: ptick({i})");
                assert_eq!(bs.drift(i), self.drift(i), "{at}: drift({i})");
            }
            assert_eq!(bs.check_invariants(), self.check_invariants(), "{at}");
        }
    }

    #[test]
    fn derived_committed_ticks_match_the_stored_oracle() {
        use prng::prelude::*;
        for seed in 0..48 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.random_range(1..96usize);
            let max_depth = rng.random_range(1..12u32);
            let mut bs = BlockSteps::new(n, 1.0, max_depth);
            let mut oracle = Oracle {
                blocks: bs.clone(),
                ptick: vec![0; n],
            };
            // Requests around every level's step: refinements, and
            // coarsening requests that are aligned or not.
            let dt_want = |rng: &mut StdRng| {
                let k = rng.random_range(0..max_depth + 2);
                let f = [0.0, 0.6, 1.0, 1.4, 2.5, 40.0][rng.random_range(0..6usize)];
                f / (1u64 << k) as Real
            };
            for i in 0..n {
                let dt = dt_want(&mut rng);
                bs.commit(i, dt);
                oracle.commit(i, dt);
            }
            oracle.agrees(&bs, &format!("seed {seed} at set-up"));
            // A rebuild permutes between steps or, as in the pipeline,
            // after the advance.
            let permute = |rng: &mut StdRng, bs: &mut BlockSteps, oracle: &mut Oracle| {
                if rng.random_range(0..4u32) == 0 {
                    let mut perm: Vec<u32> = (0..n as u32).collect();
                    for j in (1..n).rev() {
                        perm.swap(j, rng.random_range(0..j + 1));
                    }
                    bs.permute(&perm);
                    oracle.permute(&perm);
                    oracle.agrees(bs, &format!("seed {seed} permuted at {}", bs.tick));
                }
            };
            for step in 0..40 {
                permute(&mut rng, &mut bs, &mut oracle);
                bs.advance();
                oracle.advance();
                oracle.agrees(&bs, &format!("seed {seed} step {step} advanced"));
                permute(&mut rng, &mut bs, &mut oracle);
                for i in 0..n {
                    assert_eq!(bs.drift_of_level(bs.level[i]), oracle.drift(i));
                }
                // Commit in a random order, so later particles see
                // earlier ones committed.
                let mut active = oracle.active();
                for j in (1..active.len()).rev() {
                    active.swap(j, rng.random_range(0..j + 1));
                }
                for i in active {
                    let dt = dt_want(&mut rng);
                    bs.commit(i as usize, dt);
                    oracle.commit(i as usize, dt);
                    oracle.agrees(&bs, &format!("seed {seed} step {step} commit {i}"));
                }
                let restored = BlockSteps::at_tick(bs.tick, 1.0, max_depth, bs.level.clone());
                oracle.agrees(&restored, &format!("seed {seed} step {step} restored"));
            }
        }
    }
}
