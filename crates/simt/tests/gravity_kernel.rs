//! Cross-validation of the performance model's instruction-mix table
//! against an actual execution of the gravity flush kernel in the SIMT
//! interpreter — the closest this reproduction comes to re-running the
//! paper's nvprof experiment end to end.

use simt::microbench::gravity_flush_kernel;
use simt::{ExecEnv, PipeCounts, Scheduler, StepOutcome, Warp};

const N_SOURCES: u32 = 64;
const EPS2: f32 = 1e-4;

fn run() -> (PipeCounts, Vec<f32>) {
    let p = gravity_flush_kernel(N_SOURCES, EPS2);
    let mut shared = vec![0u32; (4 * N_SOURCES + 64) as usize];
    // Fill the interaction list: sources on a shifted diagonal.
    for j in 0..N_SOURCES as usize {
        let f = j as f32;
        shared[4 * j] = (1.0 + 0.3 * f).to_bits();
        shared[4 * j + 1] = (-2.0 + 0.25 * f).to_bits();
        shared[4 * j + 2] = (0.5 * f).to_bits();
        shared[4 * j + 3] = (0.5 + 0.01 * f).to_bits(); // mass
    }
    let mut global = vec![0u32; 4];
    let mut w = Warp::new(0, &p);
    let mut env = ExecEnv::new(&mut shared, &mut global, 0, 1);
    loop {
        if w.step(&p, Scheduler::Independent, &mut env).unwrap() == StepOutcome::Done {
            break;
        }
    }
    let az: Vec<f32> = (0..32)
        .map(|l| f32::from_bits(shared[(4 * N_SOURCES) as usize + l]))
        .collect();
    (w.counts, az)
}

/// The interpreter-computed accelerations match a host-side reference
/// evaluation of Eq. 1 over the same list.
#[test]
fn flush_kernel_computes_correct_forces() {
    let (_, az) = run();
    for (lane, &got) in az.iter().enumerate() {
        let s = (0.1 * lane as f32, 0.2 * lane as f32, -0.1 * lane as f32);
        let mut expect = 0.0f32;
        for j in 0..N_SOURCES as usize {
            let f = j as f32;
            let (jx, jy, jz, jm) = (1.0 + 0.3 * f, -2.0 + 0.25 * f, 0.5 * f, 0.5 + 0.01 * f);
            let (dx, dy, dz) = (jx - s.0, jy - s.1, jz - s.2);
            let r2 = EPS2 + dx * dx + dy * dy + dz * dz;
            let rinv = 1.0 / r2.sqrt();
            expect += dz * (jm * rinv * rinv * rinv);
        }
        let rel = ((got - expect) / expect.abs().max(1e-6)).abs();
        assert!(rel < 1e-3, "lane {lane}: az = {got} vs reference {expect}");
    }
}

/// The per-interaction FP mix retired by the interpreter matches the
/// `gpu-model` events table (6 FMA, 3 mul, 4 add/sub, 1 rsqrt per
/// interaction) exactly, and the INT side lands within the table's
/// 5-per-interaction budget once the one-time prologue is amortised out.
#[test]
fn retired_mix_matches_the_events_table() {
    let (counts, _) = run();
    let interactions = 32 * N_SOURCES as u64;
    // FMA: exactly 6 per interaction (3 for r², 3 for the accumulate).
    assert_eq!(counts.fp_fma, 6 * interactions, "FMA per interaction");
    // Special: exactly 1 rsqrt per interaction.
    assert_eq!(counts.fp_special, interactions, "rsqrt per interaction");
    // FP core adds/subs/muls: 3 subs + 1 φ-sub + 3 muls = 7, plus the
    // per-lane prologue (the ε² constant load counts as control).
    let fp = counts.fp_add + counts.fp_mul + counts.fp_cmp;
    let fp_per_interaction = fp as f64 / interactions as f64;
    assert!(
        (7.0..9.5).contains(&fp_per_interaction),
        "FP core per interaction: {fp_per_interaction}"
    );
    // INT (address arithmetic): 5 ConstI per unrolled source in this
    // kernel; the events table charges 5 per interaction — same scale.
    let int_per_interaction = counts.int_ops as f64 / interactions as f64;
    assert!(
        (3.0..8.0).contains(&int_per_interaction),
        "INT per interaction: {int_per_interaction}"
    );
    // Memory: exactly 4 shared loads per interaction + the result store.
    assert_eq!(
        counts.shared_ld + counts.shared_st,
        4 * interactions + 32,
        "shared accesses"
    );
    // Figure 6's headline shape: FMA ≈ 6× the rsqrt count.
    assert_eq!(counts.fp_fma / counts.fp_special, 6);
}

/// Scheduler equivalence for the real kernel: identical results and
/// identical retired instruction mix under both scheduling models. Only
/// the reconvergence depth differs, by design: Lockstep merges the lanes
/// leaving the staging loop as they exit, Independent keeps each exit a
/// fragment of its own.
#[test]
fn flush_kernel_is_scheduler_equivalent() {
    let p = gravity_flush_kernel(16, EPS2);
    let mut results = Vec::new();
    for sched in [Scheduler::Lockstep, Scheduler::Independent] {
        let mut shared = vec![0u32; 4 * 16 + 64];
        for j in 0..16usize {
            shared[4 * j] = (j as f32).to_bits();
            shared[4 * j + 1] = (1.0 + j as f32).to_bits();
            shared[4 * j + 2] = 2.0f32.to_bits();
            shared[4 * j + 3] = 1.0f32.to_bits();
        }
        let mut global = vec![0u32; 4];
        let mut w = Warp::new(0, &p);
        let mut env = ExecEnv::new(&mut shared, &mut global, 0, 1);
        while w.step(&p, sched, &mut env).unwrap() != StepOutcome::Done {}
        let counts = PipeCounts {
            max_reconv_depth: 0,
            ..w.counts
        };
        results.push((counts, shared.clone()));
    }
    assert_eq!(results[0].0, results[1].0, "identical retired mixes");
    assert_eq!(results[0].1, results[1].1, "identical shared memory");
}
