//! The serving phase: a closed loop of Standard windows and Realtime
//! single shots through one [`FleetEngine`], plus the malformed-window
//! phase that keeps a known fault visible as counted failures.

use std::sync::Arc;
use std::time::{Duration, Instant};

use exec::Executor;
use mlr_core::{
    Discriminator, EngineConfig, EngineStats, FleetConfig, FleetEngine, Qos, TrainedModel,
};
use mlr_num::Complex;

use crate::stats::{median, quantile};

/// How hard one serving round drives the fleet.
pub struct Shape {
    /// Shots per Standard window.
    pub window: usize,
    /// Standard sessions per tenant, each with one window in flight.
    pub sessions: usize,
    /// Windows each Standard session submits per round.
    pub windows: usize,
    /// Realtime single shots per round, alternating over the tenants.
    pub realtime: usize,
    /// Direct `predict_batch` windows per tenant per round.
    pub direct_windows: usize,
}

/// One served model and the verdicts its direct `predict_batch` gives
/// for every shot of the pool — what every fleet verdict must equal.
#[derive(Clone)]
pub struct Tenant {
    pub fingerprint: u64,
    pub model: TrainedModel,
    pub expected: Arc<Vec<Vec<usize>>>,
}

impl Tenant {
    pub fn new(fingerprint: u64, model: TrainedModel, pool: &[Arc<[Complex]>]) -> Self {
        let shots: Vec<&[Complex]> = pool.iter().map(|s| &s[..]).collect();
        let expected = Arc::new(model.predict_batch(&shots));
        Self {
            fingerprint,
            model,
            expected,
        }
    }
}

/// What the serving rounds of one run measured.
#[derive(Default)]
pub struct ServeLog {
    /// Submit-to-verdict latency of each Standard window, µs.
    pub window_us: Vec<f64>,
    /// Submit-to-verdict latency, µs, by tenant, of each Realtime shot
    /// that completed while the Standard load was still running.
    pub realtime_us: Vec<Vec<f64>>,
    /// Realtime shots that completed after the Standard load had drained:
    /// checked, but left out of the latencies and the rate.
    pub realtime_late: u64,
    /// Shots submitted to the fleet in the timed serving phases.
    pub submitted: u64,
    /// Verdicts the fleet delivered while the Standard load was running.
    pub verdicts: u64,
    /// Wall time of the Standard load, summed over rounds, s.
    pub seconds: f64,
    /// Direct `predict_batch` cost per window, µs/shot, by tenant.
    pub direct_us: Vec<Vec<f64>>,
    /// Fleet or direct verdicts that differ from the expected ones.
    pub mismatches: u64,
    /// Good shots of the malformed-window phase submitted / not served.
    pub malformed_attempted: u64,
    pub malformed_failed: u64,
}

impl ServeLog {
    /// Direct `predict_batch` cost per shot averaged over the tenants:
    /// the mean of each tenant's median window.
    pub fn direct_us(&self) -> f64 {
        let medians: Vec<f64> = self.direct_us.iter().map(|v| median(v)).collect();
        medians.iter().sum::<f64>() / medians.len() as f64
    }

    /// Realtime latency quantile `q`, µs, averaged over the tenants (each
    /// tenant's latencies form one mode; pooled, the quantile could sit
    /// between modes).
    pub fn realtime_quantile(&self, q: f64) -> f64 {
        let per_tenant: Vec<f64> = self.realtime_us.iter().map(|v| quantile(v, q)).collect();
        per_tenant.iter().sum::<f64>() / per_tenant.len() as f64
    }

    /// Realtime shots that completed under the Standard load.
    pub fn realtime_shots(&self) -> usize {
        self.realtime_us.iter().map(Vec::len).sum()
    }

    /// Shots classified by direct `predict_batch` windows.
    pub fn direct_shots(&self, window: usize) -> u64 {
        (self.direct_us.iter().map(Vec::len).sum::<usize>() * window) as u64
    }
}

/// The engine of every tenant: a queue deep enough that the closed loop
/// never sheds, batches of up to 64 shots.
fn engine_config() -> EngineConfig {
    EngineConfig::with_queue(256)
}

/// A fleet with one shared worker and the tenants registered.
pub fn fleet(tenants: &[Tenant]) -> Result<FleetEngine, String> {
    let fleet = FleetEngine::new(FleetConfig {
        engine: engine_config(),
        max_models: tenants.len() + 1,
        workers: 1,
        ..FleetConfig::default()
    });
    for tenant in tenants {
        fleet
            .register(tenant.fingerprint, Box::new(tenant.model.clone()))
            .map_err(|e| format!("register tenant {:x}: {e}", tenant.fingerprint))?;
    }
    Ok(fleet)
}

/// Times `shape.direct_windows` direct `predict_batch` windows of each
/// tenant on the pool, checks their verdicts, and returns each tenant's
/// median cost of this round, µs/shot.
fn direct(
    tenants: &[Tenant],
    pool: &[Arc<[Complex]>],
    shape: &Shape,
    round: usize,
    log: &mut ServeLog,
) -> Vec<f64> {
    let n = pool.len();
    log.direct_us.resize_with(tenants.len(), Vec::new);
    let mut medians = Vec::new();
    for (tenant, direct_us) in tenants.iter().zip(&mut log.direct_us) {
        let mut this_round = Vec::new();
        for d in 0..shape.direct_windows {
            let first = (round * shape.direct_windows + d) * shape.window;
            let shots: Vec<&[Complex]> = (first..first + shape.window)
                .map(|k| &pool[k % n][..])
                .collect();
            let sent = Instant::now();
            let verdicts = tenant.model.predict_batch(&shots);
            this_round.push(sent.elapsed().as_secs_f64() * 1e6 / shape.window as f64);
            log.mismatches += (first..first + shape.window)
                .zip(&verdicts)
                .filter(|(k, v)| tenant.expected[k % n] != **v)
                .count() as u64;
        }
        medians.push(median(&this_round));
        direct_us.extend(this_round);
    }
    medians
}

/// One serving round. Each tenant's direct `predict_batch` is timed on
/// windows of the pool first; then every tenant's Standard sessions run as
/// tasks on `executor` while this thread drives the Realtime lane.
///
/// Before each Realtime shot the lane pauses for a share of one worker
/// cycle — a full batch of every tenant at this round's direct cost —
/// drawn from a fixed, evenly spread sequence, so shots reach the worker
/// at any phase of its cycle rather than in step with it. The round's
/// span ends when the last Standard session has its last verdict; a
/// Realtime shot that completes later is checked but left out of the
/// latencies and the rate, as it met an idle fleet.
pub fn round(
    fleet: &FleetEngine,
    executor: &Executor,
    tenants: &[Tenant],
    pool: &Arc<Vec<Arc<[Complex]>>>,
    shape: &Shape,
    round: usize,
    log: &mut ServeLog,
) -> Result<(), String> {
    let n = pool.len();
    let batch = engine_config().max_batch as f64;
    let cycle_us: f64 = direct(tenants, pool, shape, round, log)
        .iter()
        .map(|per_shot| per_shot * batch)
        .sum();
    let session = |t: &Tenant, qos| {
        fleet
            .session_by_fingerprint(t.fingerprint, qos)
            .map_err(|e| format!("open {qos} session on {:x}: {e}", t.fingerprint))
    };
    let realtime: Vec<_> = tenants
        .iter()
        .map(|t| session(t, Qos::Realtime))
        .collect::<Result<_, _>>()?;

    let started = Instant::now();
    let mut handles = Vec::new();
    for (ti, tenant) in tenants.iter().enumerate() {
        for s in 0..shape.sessions {
            let session = session(tenant, Qos::Standard)?;
            let pool = Arc::clone(pool);
            let expected = Arc::clone(&tenant.expected);
            let (window, windows) = (shape.window, shape.windows);
            let offset = (round * 7 + ti * 3 + s) * windows * window;
            handles.push(executor.spawn(async move {
                let mut latencies = Vec::with_capacity(windows);
                let mut mismatches = 0u64;
                for w in 0..windows {
                    let first = offset + w * window;
                    let refs: Vec<Arc<[Complex]>> = (first..first + window)
                        .map(|k| Arc::clone(&pool[k % n]))
                        .collect();
                    let sent = Instant::now();
                    let verdicts = session.submit_all_shared(&refs).await;
                    latencies.push(sent.elapsed().as_secs_f64() * 1e6);
                    let Ok(verdicts) = verdicts else {
                        return Err("a Standard window failed".to_owned());
                    };
                    mismatches += (first..first + window)
                        .zip(&verdicts)
                        .filter(|(k, v)| expected[k % n] != **v)
                        .count() as u64;
                }
                Ok((latencies, mismatches, Instant::now()))
            }));
        }
    }

    // (tenant, sent, done) of each Realtime shot.
    let mut lane = Vec::with_capacity(shape.realtime);
    let mut outcome = Ok(());
    for i in 0..shape.realtime {
        let t = i % tenants.len();
        let k = (round * shape.realtime + i) * 131 % n;
        // Knuth's multiplicative hash of the shot number: a fixed,
        // evenly spread sequence of pauses.
        let draw = ((round * shape.realtime + i) as u64).wrapping_mul(2_654_435_761) % 1024;
        std::thread::sleep(Duration::from_secs_f64(
            cycle_us * 1e-6 * draw as f64 / 1024.0,
        ));
        let sent = Instant::now();
        let verdict = realtime[t]
            .try_submit(&pool[k])
            .map_err(|e| format!("Realtime shot refused: {e}"))
            .and_then(|ticket| {
                ticket
                    .outcome()
                    .map_err(|_| "a Realtime shot failed".to_owned())
            });
        lane.push((t, sent, Instant::now()));
        match verdict {
            Ok(v) => log.mismatches += u64::from(tenants[t].expected[k] != v),
            Err(e) => {
                outcome = Err(e);
                break;
            }
        }
    }
    let mut drained = started;
    for handle in handles {
        let (latencies, mismatches, ended) = handle.join()?;
        log.window_us.extend(latencies);
        log.mismatches += mismatches;
        drained = drained.max(ended);
    }
    outcome?;

    let standard = tenants.len() * shape.sessions * shape.windows * shape.window;
    log.realtime_us.resize_with(tenants.len(), Vec::new);
    let mut on_time = 0;
    for (t, sent, done) in lane {
        if done <= drained {
            log.realtime_us[t].push((done - sent).as_secs_f64() * 1e6);
            on_time += 1;
        } else {
            log.realtime_late += 1;
        }
    }
    log.submitted += (standard + shape.realtime) as u64;
    log.verdicts += (standard + on_time) as u64;
    log.seconds += (drained - started).as_secs_f64();
    Ok(())
}

/// Median latency, µs, of `shots` Realtime shots sent one at a time to an
/// otherwise idle fleet.
pub fn lone_realtime(
    fleet: &FleetEngine,
    tenant: &Tenant,
    pool: &[Arc<[Complex]>],
    shots: usize,
) -> Result<f64, String> {
    let session = fleet
        .session_by_fingerprint(tenant.fingerprint, Qos::Realtime)
        .map_err(|e| format!("open Realtime session: {e}"))?;
    let mut latencies = Vec::with_capacity(shots);
    for k in 0..shots {
        let sent = Instant::now();
        let ticket = session
            .try_submit(&pool[k % pool.len()])
            .map_err(|e| format!("lone Realtime shot refused: {e}"))?;
        ticket
            .outcome()
            .map_err(|_| "a lone Realtime shot failed".to_owned())?;
        latencies.push(sent.elapsed().as_secs_f64() * 1e6);
    }
    Ok(median(&latencies))
}

/// The malformed-window phase: a fresh tenant serving `model` gets one
/// window of `window - 1` good shots plus one 10-sample trace, then
/// `good_windows` windows of good shots. Every good shot counts as one
/// attempted operation; one that gets no verdict counts as failed. A
/// verdict that is delivered must equal the expected one.
pub fn malformed(
    fleet: &FleetEngine,
    tenant: &Tenant,
    pool: &[Arc<[Complex]>],
    window: usize,
    good_windows: usize,
    log: &mut ServeLog,
) -> Result<(), String> {
    fleet
        .register(tenant.fingerprint, Box::new(tenant.model.clone()))
        .map_err(|e| format!("register malformed-window tenant: {e}"))?;
    let session = fleet
        .session_by_fingerprint(tenant.fingerprint, Qos::Standard)
        .map_err(|e| format!("open malformed-window session: {e}"))?;
    let short: Arc<[Complex]> = Arc::from(&pool[0][..10]);
    for w in 0..=good_windows {
        let mut refs: Vec<Arc<[Complex]>> = (0..window).map(|k| Arc::clone(&pool[k])).collect();
        let good = if w == 0 {
            refs[window - 1] = Arc::clone(&short);
            window - 1
        } else {
            window
        };
        log.malformed_attempted += good as u64;
        let (ticket, admitted) = match session.try_submit_all_shared(&refs) {
            Ok(ticket) => (Some(ticket), window),
            Err(shed) => (shed.admitted, shed.admitted_count),
        };
        let served = match ticket.map(|t| t.outcome()) {
            Some(Ok(verdicts)) => {
                for (k, v) in verdicts.iter().enumerate().take(good) {
                    log.mismatches += u64::from(tenant.expected[k] != *v);
                }
                admitted.min(good)
            }
            _ => 0,
        };
        log.malformed_failed += (good - served) as u64;
    }
    fleet.retire(tenant.fingerprint);
    Ok(())
}

/// Counters of every tenant the fleet served, retired ones included,
/// checked for conservation: each accepted shot completed or failed.
pub fn drained_stats(fleet: &FleetEngine) -> Result<EngineStats, String> {
    let stats = fleet.aggregate_stats();
    if stats.total_submitted() != stats.completed + stats.failed {
        return Err(format!(
            "fleet lost tickets: accepted {} != completed {} + failed {}",
            stats.total_submitted(),
            stats.completed,
            stats.failed
        ));
    }
    Ok(stats)
}
