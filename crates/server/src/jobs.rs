//! Job execution: the work behind `simulate`, `predict`, and
//! `racecheck` requests, decoupled from sockets and queues so it can be
//! tested directly.

use std::sync::OnceLock;

use gothic::galaxy::{plummer_model, M31Model};
use gothic::gpu_model::ExecMode;
use gothic::telemetry::json::JsonObject;
use gothic::telemetry::Histogram;
use gothic::{price_step, CancelReason, CancelToken, Function, Gothic, StepEvents};

use crate::protocol::{PredictJob, SimJob};

/// Why a job produced no result payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobError {
    /// The deadline passed; `steps_done` block steps had completed.
    DeadlineExceeded { steps_done: u64 },
    /// The run was cancelled (drain or client gone).
    Cancelled { steps_done: u64 },
}

/// JSON keys for the Table-2 breakdown: the paper's camelCase kernel
/// names (`Function::name` uses spaced display names for the figures).
fn function_key(f: Function) -> &'static str {
    match f {
        Function::WalkTree => "walkTree",
        Function::CalcNode => "calcNode",
        Function::MakeTree => "makeTree",
        Function::Predict => "predict",
        Function::Correct => "correct",
    }
}

fn sample(model: &str, n: usize, seed: u64) -> gothic::nbody::ParticleSet {
    match model {
        "m31" => M31Model::paper_model().sample(n, seed),
        // protocol::parse_request only admits the two models; default to
        // Plummer for direct callers.
        _ => plummer_model(n, 100.0, 1.0, seed),
    }
}

/// Run the GOTHIC pipeline for a request and render the result payload.
///
/// Cancellation is cooperative at block-step boundaries: a fired token
/// stops the run before the next step and reports how many completed.
/// The initial-condition sampling and bootstrap force evaluation run
/// before the first check, so the floor on a cancelled request's cost is
/// one bootstrap, not zero.
///
/// The payload's counters, breakdown and walls come from the job's own
/// [`gothic::RunSummary`], so concurrent jobs never see each other's
/// work; so does the run's step-wall histogram, returned beside it.
pub fn run_simulate(job: &SimJob, token: &CancelToken) -> Result<(String, Histogram), JobError> {
    let ps = sample(&job.model, job.n, job.seed);
    let mut sim = Gothic::new(ps, job.cfg.clone());
    let e0 = sim.diagnostics();
    if let Err(c) = sim.run_cancellable(job.steps, token) {
        let steps_done = c.completed.len() as u64;
        return Err(match c.cancelled.reason {
            CancelReason::DeadlineExceeded => JobError::DeadlineExceeded { steps_done },
            CancelReason::Requested => JobError::Cancelled { steps_done },
        });
    }
    let e1 = sim.diagnostics();
    let run = sim.summary();
    let total = &run.profile;
    let steps = run.steps.max(1) as f64;

    // The Table-2 breakdown: modeled seconds per step for each of the
    // five representative kernels on the requested architecture.
    let mut breakdown = JsonObject::new();
    for f in Function::ALL {
        breakdown.f64(function_key(f), total.get(f).seconds / steps);
    }

    let mut o = JsonObject::new();
    o.str("model", &job.model)
        .u64("n", job.n as u64)
        .u64("steps", run.steps)
        .u64("seed", job.seed)
        .u64("rebuilds", run.rebuilds)
        .f64("t_final", sim.time())
        .f64("e_initial", e0.total_energy())
        .f64("e_final", e1.total_energy())
        .f64("energy_drift", e1.relative_energy_drift(&e0))
        .str("arch", job.cfg.arch.name)
        .f64("model_seconds_per_step", total.total_seconds() / steps)
        .raw("breakdown", &breakdown.finish())
        .f64("setup_seconds", run.setup_wall.total())
        .f64("wall_seconds", run.wall.total());

    let mut counters = JsonObject::new();
    for (name, value) in run.counters() {
        counters.u64(name, value);
    }
    o.raw("counters", &counters.finish());
    Ok((o.finish(), run.step_wall.clone()))
}

/// The reference step the GPU-model-only `predict` endpoint scales from:
/// one rebuild step of a small fiducial Plummer run, computed once per
/// process. ~10 ms to produce, then every predict is pure arithmetic.
fn baseline_events() -> &'static (u64, StepEvents) {
    static BASELINE: OnceLock<(u64, StepEvents)> = OnceLock::new();
    BASELINE.get_or_init(|| {
        const BASE_N: usize = 2048;
        let ps = plummer_model(BASE_N, 100.0, 1.0, 42);
        let mut sim = Gothic::new(ps, gothic::RunConfig::default());
        let r = sim.step(); // the first step always builds the tree
        debug_assert!(r.events.make.is_some());
        (BASE_N as u64, r.events)
    })
}

/// Price one rebuild block step at the requested N on the requested
/// architecture/mode — the cheap endpoint: no particles are integrated,
/// only the performance model runs.
pub fn run_predict(job: &PredictJob) -> String {
    let (base_n, ev) = baseline_events();
    let scaled = ev.scaled_to(*base_n, job.n as u64);
    let profile = price_step(&scaled, &job.cfg.arch, job.cfg.mode, job.cfg.barrier);
    let mut breakdown = JsonObject::new();
    for f in Function::ALL {
        breakdown.f64(function_key(f), profile.get(f).seconds);
    }
    let mut o = JsonObject::new();
    o.u64("n", job.n as u64)
        .str("arch", job.cfg.arch.name)
        .str("mode", job.cfg.mode.key())
        .f64("model_seconds_per_step", profile.total_seconds())
        .raw("breakdown", &breakdown.finish())
        .u64("interactions", scaled.walk.interactions);
    o.finish()
}

/// A quick happens-before sweep of the interpreter kernels (a subset of
/// the `gothic_sim --racecheck` preflight, sized for a service request).
pub fn run_racecheck(mode: ExecMode) -> String {
    let runs = gothic::simt::microbench::racecheck_sweep(
        mode == ExecMode::VoltaMode,
        &[128, 256],
        &[4, 8, 32],
    );
    let hazards: u64 = runs.iter().map(|(_, _, rep)| rep.total).sum();
    let wrong = runs.iter().filter(|(_, b, _)| !b.correct).count() as u64;
    let mut o = JsonObject::new();
    o.str("mode", mode.key())
        .u64("runs", runs.len() as u64)
        .u64("hazards", hazards)
        .u64("wrong_results", wrong)
        .bool("clean", hazards == 0 && wrong == 0);
    o.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{parse_request, Request};
    use gothic::telemetry::json::parse;

    fn sim_job(line: &str) -> SimJob {
        match parse_request(line).unwrap().1 {
            Request::Simulate(j) => j,
            other => panic!("expected simulate, got {other:?}"),
        }
    }

    #[test]
    fn simulate_payload_has_energies_and_the_table2_breakdown() {
        let job = sim_job(r#"{"type":"simulate","model":"plummer","n":1024,"steps":3,"seed":5}"#);
        let (payload, step_wall) = run_simulate(&job, &CancelToken::new()).unwrap();
        let v = parse(&payload).unwrap();
        assert_eq!(v.get("steps").unwrap().as_u64(), Some(3));
        assert_eq!(step_wall.count, 3);
        assert!(
            v.get("e_initial").unwrap().as_f64().unwrap() < 0.0,
            "bound system"
        );
        let bd = v.get("breakdown").unwrap();
        for k in ["walkTree", "calcNode", "makeTree", "predict", "correct"] {
            assert!(bd.get(k).is_some(), "breakdown must include {k}");
        }
        assert!(
            v.get("model_seconds_per_step").unwrap().as_f64().unwrap() > 0.0,
            "modeled time must be positive"
        );
        assert!(v.get("setup_seconds").unwrap().as_f64().unwrap() > 0.0);
        let counters = v.get("counters").unwrap();
        assert_eq!(counters.get("pipeline.steps").unwrap().as_u64(), Some(3));
        assert_eq!(
            counters.get("galaxy.sampled_particles").unwrap().as_u64(),
            Some(1024)
        );
    }

    #[test]
    fn simulate_respects_an_expired_deadline() {
        let job = sim_job(r#"{"type":"simulate","model":"plummer","n":1024,"steps":64}"#);
        let token = CancelToken::with_deadline(std::time::Duration::ZERO);
        match run_simulate(&job, &token) {
            Err(JobError::DeadlineExceeded { steps_done }) => assert_eq!(steps_done, 0),
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }

    #[test]
    fn identical_jobs_render_identical_payloads() {
        // The cache contract: digest equality implies the *results* are
        // interchangeable. Everything but the measured wall clocks must
        // be bit-identical, the per-job counters included.
        let a = sim_job(r#"{"type":"simulate","n":512,"steps":2,"seed":3}"#);
        let b = sim_job(r#"{"steps":2,"seed":3,"n":512,"type":"simulate"}"#);
        assert_eq!(a.digest(), b.digest());
        let strip_wall = |payload: &str| {
            let v = parse(payload).unwrap();
            let mut m = v.as_obj().unwrap().clone();
            assert!(m.remove("wall_seconds").is_some());
            assert!(m.remove("setup_seconds").is_some());
            m
        };
        let (pa, _) = run_simulate(&a, &CancelToken::new()).unwrap();
        let (pb, _) = run_simulate(&b, &CancelToken::new()).unwrap();
        assert_eq!(strip_wall(&pa), strip_wall(&pb));
    }

    #[test]
    fn predict_is_cheap_and_scales_with_n() {
        let pj = |n: u64| match parse_request(&format!(r#"{{"type":"predict","n":{n}}}"#))
            .unwrap()
            .1
        {
            Request::Predict(j) => j,
            other => panic!("expected predict, got {other:?}"),
        };
        let small = parse(&run_predict(&pj(1 << 14))).unwrap();
        let large = parse(&run_predict(&pj(1 << 20))).unwrap();
        let ts = small
            .get("model_seconds_per_step")
            .unwrap()
            .as_f64()
            .unwrap();
        let tl = large
            .get("model_seconds_per_step")
            .unwrap()
            .as_f64()
            .unwrap();
        // 64x the particles costs clearly more, though sublinearly at
        // these sizes: the GPU model credits larger grids with better SM
        // utilization.
        assert!(
            tl > ts * 2.0,
            "64x the particles must cost more: {ts} vs {tl}"
        );
    }

    #[test]
    fn racecheck_sweep_is_clean_in_both_modes() {
        for mode in [ExecMode::PascalMode, ExecMode::VoltaMode] {
            let v = parse(&run_racecheck(mode)).unwrap();
            assert_eq!(v.get("clean").unwrap().as_bool(), Some(true));
            assert!(v.get("runs").unwrap().as_u64().unwrap() > 0);
        }
    }
}
