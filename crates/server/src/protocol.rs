//! The gothicd wire protocol: newline-delimited JSON over TCP.
//!
//! Each line the client sends is one JSON object with a `"type"` field;
//! each line the server answers is one JSON object echoing the request's
//! optional `"id"`. Requests:
//!
//! | type        | work                                            | cost   |
//! |-------------|--------------------------------------------------|--------|
//! | `simulate`  | run the GOTHIC pipeline, return energies/timing | heavy  |
//! | `predict`   | price a scaled step on the GPU model only       | cheap  |
//! | `racecheck` | happens-before sweep of the SIMT kernels        | medium |
//! | `status`    | queue/cache/stats snapshot                      | free   |
//! | `metrics`   | Prometheus-style counter/histogram exposition   | free   |
//! | `shutdown`  | begin graceful drain                            | free   |
//!
//! Parsing is strict where it matters (unknown types, malformed values
//! are `bad_request`) and canonicalizing where it must be: a `simulate`
//! request's cache identity is [`SimJob::digest`], built from the
//! *parsed* values — JSON key order and float spelling never change it.

use gothic::gpu_model::{ExecMode, GpuArch, GridBarrier};
use gothic::octree::Mac;
use gothic::telemetry::json::Value;
use gothic::{fnv1a64, RebuildPolicy, RunConfig};

/// Hard particle-count ceiling per request: keeps a single hostile
/// request from exhausting daemon memory (2²¹ particles ≈ 100 MB of
/// working state).
pub const MAX_N: usize = 1 << 21;

/// Hard step ceiling per request, same rationale in time.
pub const MAX_STEPS: u64 = 4096;

/// Ceiling for `predict` requests. Predict never allocates particles —
/// it scales a cached baseline through the analytic GPU model — so the
/// limit only guards the arithmetic against nonsense inputs and covers
/// the paper's full range (N up to ~2²³) with headroom.
pub const MAX_PREDICT_N: usize = 1 << 30;

/// A fully-validated `simulate` request.
#[derive(Clone, Debug)]
pub struct SimJob {
    /// Initial conditions: `"plummer"` or `"m31"`.
    pub model: String,
    pub n: usize,
    pub steps: u64,
    pub seed: u64,
    pub cfg: RunConfig,
    /// Per-request time budget; `None` means the server default applies.
    pub deadline_ms: Option<u64>,
    /// Whether the result may come from / go into the result cache.
    pub cache: bool,
}

impl SimJob {
    /// Content digest of everything that determines the result:
    /// model, N, steps, seed, and the full canonical [`RunConfig`]
    /// encoding. Deadline and cache policy are delivery options, not
    /// content — they stay out of the key.
    pub fn digest(&self) -> u64 {
        let mut b = Vec::with_capacity(128);
        b.extend_from_slice(b"simulate\x00");
        b.extend_from_slice(self.model.as_bytes());
        b.push(0);
        b.extend_from_slice(&(self.n as u64).to_le_bytes());
        b.extend_from_slice(&self.steps.to_le_bytes());
        b.extend_from_slice(&self.seed.to_le_bytes());
        b.extend_from_slice(&self.cfg.digest().to_le_bytes());
        fnv1a64(&b)
    }
}

/// A validated `predict` request: price one scaled block step on the
/// configured architecture without running the pipeline.
#[derive(Clone, Debug)]
pub struct PredictJob {
    pub n: usize,
    pub cfg: RunConfig,
}

/// A parsed request line.
#[derive(Clone, Debug)]
pub enum Request {
    Simulate(SimJob),
    Predict(PredictJob),
    Racecheck {
        /// Sweep with Volta-mode syncs under both schedulers, or under
        /// the Pascal-mode lockstep assumption.
        mode: ExecMode,
    },
    Status,
    /// Prometheus-style text exposition of this server's counters and
    /// histograms (with p50/p95/p99 summary quantiles) and the registry's
    /// counters.
    Metrics,
    Shutdown,
}

fn get_u64(obj: &Value, key: &str, default: u64) -> Result<u64, String> {
    match obj.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_u64()
            .ok_or_else(|| format!("{key} must be a non-negative integer")),
    }
}

fn get_f32(obj: &Value, key: &str, default: f32) -> Result<f32, String> {
    match obj.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_f64()
            .map(|x| x as f32)
            .ok_or_else(|| format!("{key} must be a number")),
    }
}

fn get_bool(obj: &Value, key: &str, default: bool) -> Result<bool, String> {
    match obj.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_bool()
            .ok_or_else(|| format!("{key} must be a boolean")),
    }
}

fn get_str<'a>(obj: &'a Value, key: &str, default: &'a str) -> Result<&'a str, String> {
    match obj.get(key) {
        None => Ok(default),
        Some(v) => v.as_str().ok_or_else(|| format!("{key} must be a string")),
    }
}

/// Build a [`RunConfig`] from a request object's optional fields.
fn parse_config(obj: &Value) -> Result<RunConfig, String> {
    let positive = |name: &str, v: f32| -> Result<f32, String> {
        if !v.is_finite() || v <= 0.0 {
            return Err(format!("{name} must be a finite positive number"));
        }
        Ok(v)
    };
    let dflt = RunConfig::default();
    let dacc = positive("dacc", get_f32(obj, "dacc", 2.0f32.powi(-9))?)?;
    let eta = positive("eta", get_f32(obj, "eta", dflt.eta)?)?;
    let eps = positive("eps", get_f32(obj, "eps", dflt.eps)?)?;
    let arch = GpuArch::by_key(get_str(obj, "arch", "v100")?)?;
    let mode = ExecMode::by_key(get_str(obj, "mode", "pascal")?)?;
    let barrier = match get_str(obj, "barrier", "lockfree")? {
        "lockfree" => GridBarrier::LockFree,
        "coop" | "cooperative" => GridBarrier::CooperativeGroups,
        other => return Err(format!("unknown barrier {other}")),
    };
    let rebuild = match obj.get("rebuild") {
        None => RebuildPolicy::Auto,
        Some(v) => match (v.as_str(), v.as_u64()) {
            (Some("auto"), _) => RebuildPolicy::Auto,
            (_, Some(k)) if k >= 1 => RebuildPolicy::Fixed(k as u32),
            _ => return Err("rebuild must be \"auto\" or an interval >= 1".into()),
        },
    };
    Ok(RunConfig {
        mac: Mac::Acceleration { delta_acc: dacc },
        eps,
        eta,
        arch,
        mode,
        barrier,
        rebuild,
        ..dflt
    })
}

fn parse_n(obj: &Value, default: u64, max: usize) -> Result<usize, String> {
    let n = get_u64(obj, "n", default)? as usize;
    if n == 0 {
        return Err("n must be at least 1".into());
    }
    if n > max {
        return Err(format!("n exceeds the per-request limit of {max}"));
    }
    Ok(n)
}

/// Parse one request line. Returns the client-supplied `id` (echoed in
/// the response) and the validated request.
pub fn parse_request(line: &str) -> Result<(Option<String>, Request), String> {
    let v = gothic::telemetry::json::parse(line).map_err(|e| format!("malformed JSON: {e}"))?;
    if v.as_obj().is_none() {
        return Err("request must be a JSON object".into());
    }
    let id = v.get("id").and_then(|x| x.as_str()).map(|s| s.to_string());
    let req =
        match v.get("type").and_then(|t| t.as_str()) {
            Some("status") => Request::Status,
            Some("metrics") => Request::Metrics,
            Some("shutdown") => Request::Shutdown,
            Some("racecheck") => Request::Racecheck {
                mode: ExecMode::by_key(get_str(&v, "mode", "volta")?)?,
            },
            Some("predict") => Request::Predict(PredictJob {
                n: parse_n(&v, 1 << 23, MAX_PREDICT_N)?,
                cfg: parse_config(&v)?,
            }),
            Some("simulate") => {
                let steps = get_u64(&v, "steps", 8)?;
                if steps == 0 {
                    return Err("steps must be at least 1".into());
                }
                if steps > MAX_STEPS {
                    return Err(format!(
                        "steps exceeds the per-request limit of {MAX_STEPS}"
                    ));
                }
                let model = get_str(&v, "model", "plummer")?;
                if !matches!(model, "plummer" | "m31") {
                    return Err(format!("unknown model {model} (plummer|m31)"));
                }
                Request::Simulate(SimJob {
                    model: model.to_string(),
                    n: parse_n(&v, 16_384, MAX_N)?,
                    steps,
                    seed: get_u64(&v, "seed", 42)?,
                    cfg: parse_config(&v)?,
                    deadline_ms: match v.get("deadline_ms") {
                        None => None,
                        Some(d) => Some(d.as_u64().ok_or_else(|| {
                            "deadline_ms must be a non-negative integer".to_string()
                        })?),
                    },
                    cache: get_bool(&v, "cache", true)?,
                })
            }
            Some(other) => return Err(format!("unknown request type {other}")),
            None => return Err("request needs a \"type\" field".into()),
        };
    Ok((id, req))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_requests_parse_with_defaults() {
        let (id, req) = parse_request(r#"{"type":"simulate"}"#).unwrap();
        assert!(id.is_none());
        match req {
            Request::Simulate(j) => {
                assert_eq!(j.model, "plummer");
                assert_eq!(j.n, 16_384);
                assert_eq!(j.steps, 8);
                assert!(j.cache);
                assert!(j.deadline_ms.is_none());
            }
            other => panic!("expected simulate, got {other:?}"),
        }
        let (id, req) = parse_request(r#"{"id":"r1","type":"status"}"#).unwrap();
        assert_eq!(id.as_deref(), Some("r1"));
        assert!(matches!(req, Request::Status));
        let (_, req) = parse_request(r#"{"type":"metrics"}"#).unwrap();
        assert!(matches!(req, Request::Metrics));
    }

    #[test]
    fn predict_admits_paper_scale_n_that_simulate_rejects() {
        // The predict default (2²³, the paper's largest run) sits above
        // the simulate memory ceiling: predict never allocates
        // particles, so it gets its own, far larger limit.
        match parse_request(r#"{"type":"predict"}"#).unwrap().1 {
            Request::Predict(j) => assert_eq!(j.n, 1 << 23),
            other => panic!("expected predict, got {other:?}"),
        }
        assert!(parse_request(r#"{"type":"predict","n":8388608}"#).is_ok());
        let err = parse_request(r#"{"type":"simulate","n":8388608}"#).unwrap_err();
        assert!(err.contains("per-request limit"), "{err}");
        let err = parse_request(&format!(
            r#"{{"type":"predict","n":{}}}"#,
            MAX_PREDICT_N + 1
        ))
        .unwrap_err();
        assert!(err.contains("per-request limit"), "{err}");
    }

    #[test]
    fn digest_ignores_key_order_and_float_spelling() {
        // The same job spelled three ways — shuffled keys, exponent
        // notation, trailing zeros — must be one cache entry.
        let spellings = [
            r#"{"type":"simulate","n":4096,"steps":4,"seed":7,"eta":0.5,"dacc":0.001953125}"#,
            r#"{"steps":4,"eta":5e-1,"n":4096,"type":"simulate","dacc":1.953125e-3,"seed":7}"#,
            r#"{"seed":7,"dacc":0.0019531250000,"type":"simulate","eta":0.50,"steps":4,"n":4096}"#,
        ];
        let digests: Vec<u64> = spellings
            .iter()
            .map(|s| match parse_request(s).unwrap().1 {
                Request::Simulate(j) => j.digest(),
                other => panic!("expected simulate, got {other:?}"),
            })
            .collect();
        assert_eq!(digests[0], digests[1]);
        assert_eq!(digests[1], digests[2]);
    }

    #[test]
    fn digest_separates_content_but_not_delivery_options() {
        let base = r#"{"type":"simulate","n":4096,"steps":4}"#;
        let job = |s: &str| match parse_request(s).unwrap().1 {
            Request::Simulate(j) => j,
            other => panic!("expected simulate, got {other:?}"),
        };
        let b = job(base);
        // Content changes move the digest…
        assert_ne!(
            b.digest(),
            job(r#"{"type":"simulate","n":8192,"steps":4}"#).digest()
        );
        assert_ne!(
            b.digest(),
            job(r#"{"type":"simulate","n":4096,"steps":5}"#).digest()
        );
        assert_ne!(
            b.digest(),
            job(r#"{"type":"simulate","n":4096,"steps":4,"seed":9}"#).digest()
        );
        assert_ne!(
            b.digest(),
            job(r#"{"type":"simulate","n":4096,"steps":4,"mode":"volta"}"#).digest()
        );
        // …delivery options do not.
        assert_eq!(
            b.digest(),
            job(r#"{"type":"simulate","n":4096,"steps":4,"deadline_ms":50,"cache":false}"#)
                .digest()
        );
    }

    #[test]
    fn malformed_requests_are_rejected_with_reasons() {
        for (line, needle) in [
            ("not json", "malformed JSON"),
            ("[1,2,3]", "must be a JSON object"),
            (r#"{"type":"frobnicate"}"#, "unknown request type"),
            (r#"{"n":4096}"#, "needs a \"type\""),
            (r#"{"type":"simulate","n":0}"#, "n must be at least 1"),
            (r#"{"type":"simulate","n":99999999}"#, "per-request limit"),
            (
                r#"{"type":"simulate","steps":0}"#,
                "steps must be at least 1",
            ),
            (
                r#"{"type":"simulate","model":"hernquist"}"#,
                "unknown model",
            ),
            (r#"{"type":"simulate","dacc":-1.0}"#, "finite positive"),
            (r#"{"type":"simulate","arch":"h100"}"#, "unknown arch"),
            (r#"{"type":"simulate","rebuild":0}"#, "rebuild must be"),
            (r#"{"type":"racecheck","mode":"turing"}"#, "unknown mode"),
        ] {
            let err = parse_request(line).unwrap_err();
            assert!(
                err.contains(needle),
                "{line}: expected {needle:?} in {err:?}"
            );
        }
    }

    #[test]
    fn rebuild_policy_accepts_auto_and_fixed_intervals() {
        let job = |s: &str| match parse_request(s).unwrap().1 {
            Request::Simulate(j) => j,
            other => panic!("expected simulate, got {other:?}"),
        };
        let auto = job(r#"{"type":"simulate","rebuild":"auto"}"#);
        assert_eq!(auto.cfg.rebuild, RebuildPolicy::Auto);
        let fixed = job(r#"{"type":"simulate","rebuild":6}"#);
        assert_eq!(fixed.cfg.rebuild, RebuildPolicy::Fixed(6));
        assert_ne!(auto.digest(), fixed.digest());
    }
}
