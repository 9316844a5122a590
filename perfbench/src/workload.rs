//! The three workloads and the run they share: set-up, timed rounds of
//! calibration, classification and serving, then the output checks.

use std::sync::Arc;
use std::time::Instant;

use exec::Executor;
use mlr_core::{
    evaluate, gather_shots, registry, Discriminator, DiscriminatorSpec, EvalReport,
    FeatureExtractor, FleetEngine, OursConfig, TrainedModel,
};
use mlr_nn::{inverse_frequency_weights, Mlp, Standardizer, TrainData};
use mlr_num::Complex;
use mlr_sim::{ChipConfig, DatasetSpec, DatasetSplit, FeedlineSpec, MultiplexedChip, TraceDataset};

use crate::reference::NearestCentroid;
use crate::serve::{self, ServeLog, Shape, Tenant};
use crate::spans::Tracer;
use crate::stats::{median, quantile};

/// Shots of the held-out set that the serving pool copies.
const POOL_SHOTS: usize = 2048;

/// Where a workload's shots come from.
enum Inputs {
    /// The paper's five-qubit chip, natural-leakage method: the 32
    /// computational states, labelled by true initial level, split 30/70.
    /// `held_out` test shots, evenly spread over the test split, are
    /// classified: the split's size moves with the seed (leaked shots form
    /// label groups of their own, each rounded apart), and a fixed count
    /// keeps every round the same operations.
    Paper {
        shots_per_state: usize,
        held_out: usize,
    },
    /// One crowded feedline of `tones` qubits: `states` sampled
    /// preparations for training and validation (`split(0.8, 0.2)`) and
    /// `eval_states` freshly sampled ones held out.
    Crowded {
        tones: usize,
        states: usize,
        shots: usize,
        eval_states: usize,
        eval_shots: usize,
    },
}

/// A workload: its inputs, design, thread budget and load shape.
pub struct Workload {
    pub name: &'static str,
    /// Compute threads (`MLR_THREADS`) for generation and batch maps.
    pub threads: usize,
    /// Set-ups per run; `setup_s` is their median.
    setups: usize,
    inputs: Inputs,
    design: OursConfig,
    /// Also fit the per-qubit arm (`joint_neighbors = 0`) and print its
    /// held-out assignment error beside the design's. Not a gate: on
    /// some seeds the joint arm loses by a few thousandths.
    compare_per_qubit: bool,
    /// Serve an LDA tenant beside OURS, fitted at set-up, and run the
    /// malformed-window phase with this many good windows after it.
    mixed: Option<usize>,
    /// `predict_batch` passes over the held-out set per round.
    classify_passes: usize,
    shape: Shape,
}

pub fn workload(name: &str) -> Option<Workload> {
    let paper = Inputs::Paper {
        shots_per_state: 600,
        held_out: 13_000,
    };
    Some(match name {
        "paper5q" => Workload {
            name: "paper5q",
            threads: 1,
            setups: 3,
            inputs: paper,
            design: paper_design(),
            compare_per_qubit: false,
            mixed: None,
            classify_passes: 6,
            shape: Shape {
                window: 64,
                sessions: 2,
                windows: 600,
                realtime: 500,
                direct_windows: 4,
            },
        },
        "mux40" => {
            let mut design = OursConfig {
                joint_neighbors: 2,
                ..OursConfig::default()
            };
            // The crowded-feedline recipe of `mlr multiplex sweep`, at
            // 10 epochs.
            design.train.epochs = 10;
            design.train.learning_rate = 1e-2;
            design.train.weight_decay = 2e-2;
            Workload {
                name: "mux40",
                threads: 2,
                // Five: a crowded-line set-up is short and moves most.
                setups: 5,
                inputs: Inputs::Crowded {
                    tones: 40,
                    states: 256,
                    shots: 4,
                    eval_states: 256,
                    eval_shots: 2,
                },
                design,
                compare_per_qubit: true,
                mixed: None,
                classify_passes: 3,
                shape: Shape {
                    window: 64,
                    sessions: 2,
                    windows: 48,
                    realtime: 36,
                    direct_windows: 2,
                },
            }
        }
        "serve-mix" => Workload {
            name: "serve-mix",
            threads: 1,
            setups: 3,
            inputs: paper,
            design: paper_design(),
            compare_per_qubit: false,
            mixed: Some(4),
            classify_passes: 3,
            shape: Shape {
                window: 64,
                sessions: 2,
                windows: 400,
                realtime: 400,
                direct_windows: 4,
            },
        },
        _ => return None,
    })
}

/// The paper's design, trained for a fixed number of epochs: without
/// early stopping the work of a fit does not depend on the seed, so fit
/// times of runs with different seeds compare.
fn paper_design() -> OursConfig {
    let mut design = OursConfig::default();
    design.train.epochs = 30;
    design.train.early_stop_patience = None;
    design
}

/// The generated shots of one set-up.
struct Data {
    fit: TraceDataset,
    split: DatasetSplit,
    /// Held-out shots from fresh preparations; `None` means the test
    /// split of `fit`.
    held: Option<TraceDataset>,
    held_idx: Vec<usize>,
}

impl Data {
    fn held(&self) -> &TraceDataset {
        self.held.as_ref().unwrap_or(&self.fit)
    }

    fn held_shots(&self) -> Vec<&[Complex]> {
        gather_shots(self.held(), &self.held_idx)
    }
}

/// A metric as printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// What a run hands back to `main`.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// The failed output checks; empty when every check passed.
    pub faults: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

fn ours(design: &OursConfig) -> DiscriminatorSpec {
    DiscriminatorSpec::Ours(design.clone())
}

impl Workload {
    fn generate(&self, seed: u64) -> Data {
        match self.inputs {
            Inputs::Paper {
                shots_per_state,
                held_out,
            } => {
                let fit =
                    DatasetSpec::natural(ChipConfig::five_qubit_paper(), shots_per_state, seed)
                        .generate();
                let split = fit.paper_split(seed);
                let test = &split.test;
                assert!(
                    test.len() >= held_out,
                    "the test split has {} shots, fewer than {held_out}",
                    test.len()
                );
                let held_idx = (0..held_out)
                    .map(|k| test[k * test.len() / held_out])
                    .collect();
                Data {
                    fit,
                    split,
                    held: None,
                    held_idx,
                }
            }
            Inputs::Crowded {
                tones,
                states,
                shots,
                eval_states,
                eval_shots,
            } => {
                let line = FeedlineSpec::crowded(tones);
                let fit = MultiplexedChip::homogeneous(1, line.clone())
                    .generate(3, states, shots, seed)
                    .remove(0);
                let split = fit.split(0.8, 0.2, seed);
                let held =
                    DatasetSpec::sampled(line.chip(), 3, eval_states, eval_shots, seed ^ 0xABCD)
                        .generate();
                let held_idx = (0..held.len()).collect();
                Data {
                    fit,
                    split,
                    held: Some(held),
                    held_idx,
                }
            }
        }
    }

    /// Runs the workload for about `seconds` of timed rounds.
    pub fn run(&self, seed: u64, seconds: f64, tracer: &mut Tracer) -> Result<Outcome, String> {
        // Set-up, several times: simulation, plus the LDA tenant's fit
        // when it is served.
        let mut setup_s = Vec::new();
        let mut generate_s = Vec::new();
        let mut data = None;
        let mut lda_model = None;
        for k in 0..self.setups {
            tracer.set_phase(k as u32);
            let setup = tracer.enter("setup");
            drop(data.take());
            drop(lda_model.take());
            let (generated, t) = tracer.time("sim.generate", || self.generate(seed));
            generate_s.push(t);
            if self.mixed.is_some() {
                let (lda, _) = tracer.time("registry.fit", || {
                    let lda: DiscriminatorSpec = "LDA".parse().expect("LDA is a registry family");
                    registry::fit(&lda, &generated.fit, &generated.split, seed)
                });
                lda_model = Some(lda);
            }
            data = Some(generated);
            setup_s.push(tracer.exit(setup));
        }
        let data = data.expect("at least one set-up");
        let held_shots = data.held_shots();
        let pool: Arc<Vec<Arc<[Complex]>>> = Arc::new(
            held_shots
                .iter()
                .take(POOL_SHOTS)
                .map(|s| Arc::from(*s))
                .collect(),
        );
        eprintln!(
            "[{}] set-up: {} fit shots ({} train, {} val), {} held out; median set-up {:.3} s",
            self.name,
            data.fit.len(),
            data.split.train.len(),
            data.split.val.len(),
            held_shots.len(),
            median(&setup_s)
        );

        let executor = Executor::new(1);
        let mut log = ServeLog::default();
        let mut fit_s = Vec::new();
        let mut classify_us = Vec::new();
        let mut layers = LayerLog::default();
        let mut attempted = 0u64;
        let mut model: Option<TrainedModel> = None;
        let mut verdicts = Vec::new();

        // The LDA tenant, fixed for the whole run, and the fleet, rebuilt
        // after each fit of the design.
        let lda = lda_model.map(|m| Tenant::new(2, m, &pool));
        let mut serving: Option<(Vec<Tenant>, FleetEngine)> = None;

        let timed = Instant::now();
        let mut round = 0;
        loop {
            let started = Instant::now();
            tracer.set_phase((self.setups + round) as u32);
            let span = tracer.enter("round");
            // The previous model and fleet go first, so the peak resident
            // set does not depend on the number of rounds.
            if let Some((_, fleet)) = serving.take() {
                layers.engine(serve::drained_stats(&fleet)?);
            }
            drop(model.take());
            let (fitted, t) = tracer.time("registry.fit", || {
                registry::fit(&ours(&self.design), &data.fit, &data.split, seed)
            });
            fit_s.push(t);
            let mut tenants = vec![Tenant::new(1, fitted.clone(), &pool)];
            tenants.extend(lda.clone());
            let fleet = serve::fleet(&tenants)?;
            serving = Some((tenants, fleet));
            model = Some(fitted);
            let model = model.as_ref().expect("a fitted design");
            for _ in 0..self.classify_passes {
                let (v, t) = tracer.time("predict_batch", || model.predict_batch(&held_shots));
                classify_us.push(t * 1e6 / held_shots.len() as f64);
                attempted += held_shots.len() as u64;
                verdicts = v;
            }
            if tracer.enabled() {
                layers.plan_round(tracer, model, &held_shots)?;
                if round == 0 {
                    layers.fit_once(tracer, &self.design, &data, seed)?;
                }
            }

            let (tenants, fleet) = serving.as_ref().expect("a serving fleet");
            let span_serve = tracer.enter("serve");
            serve::round(
                fleet,
                &executor,
                tenants,
                &pool,
                &self.shape,
                round,
                &mut log,
            )?;
            tracer.exit(span_serve);
            if let (Some(lda), Some(good_windows)) = (&lda, self.mixed) {
                let phase = tracer.enter("malformed window");
                let fresh = Tenant {
                    fingerprint: 1000 + round as u64,
                    ..lda.clone()
                };
                serve::malformed(
                    fleet,
                    &fresh,
                    &pool,
                    self.shape.window,
                    good_windows,
                    &mut log,
                )?;
                tracer.exit(phase);
            }
            tracer.exit(span);
            round += 1;
            // Stop before a round that would end more than half a round
            // past `seconds`, judging its length by this one's.
            let next = started.elapsed().as_secs_f64();
            if timed.elapsed().as_secs_f64() + next / 2.0 > seconds {
                break;
            }
        }
        attempted += log.submitted + log.direct_shots(self.shape.window) + log.malformed_attempted;
        if let Some((tenants, fleet)) = serving.take() {
            if tracer.enabled() {
                let floor = serve::lone_realtime(&fleet, &tenants[0], &pool, 50)?;
                eprintln!(
                    "[{}] realtime floor: a lone Realtime shot completes in {:.0} us (median of 50)",
                    self.name, floor
                );
            }
            layers.engine(serve::drained_stats(&fleet)?);
        }
        drop(executor);
        eprintln!(
            "[{}] {round} round(s) in {:.2} s: {} fleet verdicts under the Standard load, {} Standard windows, {} Realtime shots",
            self.name,
            timed.elapsed().as_secs_f64(),
            log.verdicts,
            log.window_us.len(),
            log.realtime_shots()
        );
        println!(
            "{}: {} Realtime shot(s) completed after the Standard load drained (checked, left out of rt_p90_us and serve_shots_per_s)",
            self.name, log.realtime_late
        );

        // Output checks, untimed.
        let model = model.expect("a fitted design");
        let mut faults = Vec::new();
        let quality = Quality::check(&model, &data, &verdicts, &mut faults);
        if let Some(layered) = check_plan(&model, &held_shots, &verdicts) {
            faults.push(layered);
        }
        if self.compare_per_qubit {
            let per_qubit = OursConfig {
                joint_neighbors: 0,
                ..self.design.clone()
            };
            let arm = registry::fit(&ours(&per_qubit), &data.fit, &data.split, seed);
            let arm_error =
                assignment_error(data.held(), &data.held_idx, &arm.predict_batch(&held_shots));
            println!(
                "{}: held-out assignment error {:.4} (joint_neighbors = {}) against {:.4} (per-qubit)",
                self.name, quality.assignment_error, self.design.joint_neighbors, arm_error
            );
        }
        if log.mismatches > 0 {
            faults.push(format!(
                "{} fleet or direct verdicts differ from the tenant's direct predict_batch",
                log.mismatches
            ));
        }
        let reference = NearestCentroid::fit(&data.fit, &data.split.train);
        let reference_fid = reference.balanced_fidelity(data.held(), &data.held_idx);
        println!(
            "{}: fidelity_gm {:.4} per qubit {:?}; nearest-centroid reference {:.4} per qubit {:?} (reference, not a gate)",
            self.name,
            quality.fidelity_gm,
            round4(&quality.per_qubit),
            mlr_nn::geometric_mean(&reference_fid),
            round4(&reference_fid)
        );
        if log.malformed_attempted > 0 {
            println!(
                "{}: malformed-window phase: {} of {} good shots got no verdict",
                self.name, log.malformed_failed, log.malformed_attempted
            );
        }

        let end_to_end = vec![
            ("setup_s", median(&setup_s), "s"),
            ("peak_rss_mb", peak_rss_mb()?, "MB"),
            ("fit_s", median(&fit_s), "s"),
            ("classify_us", median(&classify_us), "us/shot"),
            ("fidelity_gm", quality.fidelity_gm, "fraction"),
            ("leak_recall", quality.leak_recall, "fraction"),
            (
                "serve_shots_per_s",
                log.verdicts as f64 / log.seconds,
                "shots/s",
            ),
            ("rt_p90_us", log.realtime_quantile(0.9), "us"),
        ];
        // Printed for reading, not reported: on a shared host these
        // quantiles move more between runs than any bound allows (see
        // README.md).
        println!(
            "{}: Standard window latency p50 {:.0} us, p99 {:.0} us ({} windows); Realtime p50 {:.0} us, p99 {:.0} us ({} shots)",
            self.name,
            quantile(&log.window_us, 0.5),
            quantile(&log.window_us, 0.99),
            log.window_us.len(),
            log.realtime_quantile(0.5),
            log.realtime_quantile(0.99),
            log.realtime_shots()
        );
        eprintln!(
            "[{}] samples: set-up s {:.3?}, fit s {:.3?}, {} classify passes (q1 {:.3}, q3 {:.3} us/shot), {} windows, {} realtime shots",
            self.name,
            setup_s,
            fit_s,
            classify_us.len(),
            quantile(&classify_us, 0.25),
            quantile(&classify_us, 0.75),
            log.window_us.len(),
            log.realtime_shots()
        );
        let per_layer = if tracer.enabled() {
            layers.metrics(&model, &generate_s, &log)
        } else {
            Vec::new()
        };
        Ok(Outcome {
            attempted,
            failed: log.malformed_failed,
            faults,
            end_to_end,
            per_layer,
        })
    }
}

fn round4(values: &[f64]) -> Vec<f64> {
    values.iter().map(|v| (v * 1e4).round() / 1e4).collect()
}

/// Peak resident set of this process, from `VmHWM`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}

/// Readout quality recounted from the verdicts and true labels.
struct Quality {
    per_qubit: Vec<f64>,
    fidelity_gm: f64,
    leak_recall: f64,
    assignment_error: f64,
}

impl Quality {
    /// Recounts balanced fidelity, |2⟩ recall and assignment error from
    /// `verdicts`, and checks them against what `evaluate` reports and
    /// against chance.
    fn check(
        model: &TrainedModel,
        data: &Data,
        verdicts: &[Vec<usize>],
        faults: &mut Vec<String>,
    ) -> Self {
        let held = data.held();
        let levels = held.levels();
        let n_qubits = model.n_qubits();
        let mut hits = vec![vec![0usize; levels]; n_qubits];
        let mut counts = vec![vec![0usize; levels]; n_qubits];
        for (&i, decided) in data.held_idx.iter().zip(verdicts) {
            for q in 0..n_qubits {
                let truth = held.label(i, q);
                counts[q][truth] += 1;
                hits[q][truth] += usize::from(decided[q] == truth);
            }
        }
        let recall = |q: usize, l: usize| hits[q][l] as f64 / counts[q][l] as f64;
        let per_qubit: Vec<f64> = (0..n_qubits)
            .map(|q| {
                let present: Vec<usize> = (0..levels).filter(|&l| counts[q][l] > 0).collect();
                present.iter().map(|&l| recall(q, l)).sum::<f64>() / present.len() as f64
            })
            .collect();
        let leaked: Vec<usize> = (0..n_qubits).filter(|&q| counts[q][2] > 0).collect();
        let leak_recall = leaked.iter().map(|&q| recall(q, 2)).sum::<f64>() / leaked.len() as f64;
        let wrong: usize = (0..n_qubits)
            .map(|q| counts[q].iter().sum::<usize>() - hits[q].iter().sum::<usize>())
            .sum();
        let assignment_error = wrong as f64 / (verdicts.len() * n_qubits) as f64;

        let report: EvalReport = evaluate(model, held, &data.held_idx);
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-12;
        for q in 0..n_qubits {
            if !close(per_qubit[q], report.per_qubit_fidelity[q]) {
                faults.push(format!(
                    "qubit {q}: recounted fidelity {} != evaluate's {}",
                    per_qubit[q], report.per_qubit_fidelity[q]
                ));
            }
            if counts[q][2] > 0 && !close(recall(q, 2), report.per_level_recall[q][2]) {
                faults.push(format!(
                    "qubit {q}: recounted |2> recall {} != evaluate's {}",
                    recall(q, 2),
                    report.per_level_recall[q][2]
                ));
            }
            if per_qubit[q] <= 1.0 / 3.0 {
                faults.push(format!(
                    "qubit {q}: fidelity {} is not above chance",
                    per_qubit[q]
                ));
            }
        }
        let reported_error = 1.0 - report.per_qubit_micro.iter().sum::<f64>() / n_qubits as f64;
        if !close(assignment_error, reported_error) {
            faults.push(format!(
                "recounted assignment error {assignment_error} != evaluate's {reported_error}"
            ));
        }
        Self {
            fidelity_gm: mlr_nn::geometric_mean(&per_qubit),
            per_qubit,
            leak_recall,
            assignment_error,
        }
    }
}

/// Fraction of (shot, qubit) verdicts that miss the true label.
fn assignment_error(held: &TraceDataset, idx: &[usize], verdicts: &[Vec<usize>]) -> f64 {
    let n_qubits = held.config().n_qubits();
    let wrong: usize = idx
        .iter()
        .zip(verdicts)
        .map(|(&i, v)| (0..n_qubits).filter(|&q| v[q] != held.label(i, q)).count())
        .sum();
    wrong as f64 / (idx.len() * n_qubits) as f64
}

/// The compiled plan's verdicts must match the layered reference path on
/// at least 99.9 % of shots.
fn check_plan(
    model: &TrainedModel,
    shots: &[&[Complex]],
    verdicts: &[Vec<usize>],
) -> Option<String> {
    let layered = model.predict_batch_layered(shots);
    let differ = layered.iter().zip(verdicts).filter(|(a, b)| a != b).count();
    (differ * 1000 > shots.len()).then(|| {
        format!(
            "plan verdicts differ from predict_batch_layered on {differ} of {} shots",
            shots.len()
        )
    })
}

/// Per-layer samples of a traced run.
#[derive(Default)]
struct LayerLog {
    features_us: Vec<f64>,
    heads_us: Vec<f64>,
    layered_us: Vec<f64>,
    features_fit_s: f64,
    head_train_s: f64,
    epochs: usize,
    engine: Option<mlr_core::EngineStats>,
}

impl LayerLog {
    /// One pass each of the plan's bank stage, the whole plan and the
    /// layered path over the held-out shots.
    fn plan_round(
        &mut self,
        tracer: &mut Tracer,
        model: &TrainedModel,
        shots: &[&[Complex]],
    ) -> Result<(), String> {
        let plan = model
            .as_ours()
            .ok_or("the design is not an OURS model")?
            .plan();
        let per_shot = 1e6 / shots.len() as f64;
        let (_, features) = tracer.time("plan.features_batch", || plan.features_batch(shots));
        let (_, whole) = tracer.time("plan.predict_batch", || plan.predict_batch(shots));
        let (_, layered) = tracer.time("predict_batch_layered", || {
            model.predict_batch_layered(shots)
        });
        self.features_us.push(features * per_shot);
        self.heads_us.push((whole - features) * per_shot);
        self.layered_us.push(layered * per_shot);
        Ok(())
    }

    /// The fit's two layers, called apart: the matched-filter bank fit,
    /// and training qubit 0's head on standardised features with the
    /// design's topology and configuration.
    fn fit_once(
        &mut self,
        tracer: &mut Tracer,
        design: &OursConfig,
        data: &Data,
        seed: u64,
    ) -> Result<(), String> {
        let (ds, split) = (&data.fit, &data.split);
        let (extractor, t) = tracer.time("features.fit_joint", || {
            FeatureExtractor::fit_joint(
                ds,
                &split.train,
                design.include_emf,
                design.mf_kind,
                design.joint_neighbors,
            )
        });
        self.features_fit_s = t;
        let extractor = extractor.ok_or("a qubit lacks a level in the training split")?;
        let raw = extractor.extract_batch(ds, &split.train);
        let standardizer = Standardizer::fit(&raw).ok_or("empty training batch")?;
        let levels = ds.levels();
        let labels = |idx: &[usize]| idx.iter().map(|&i| ds.label(i, 0)).collect::<Vec<_>>();
        let train = TrainData::from_f64(
            &standardizer.transform_batch(&raw),
            labels(&split.train),
            levels,
        )
        .map_err(|e| format!("training batch: {e:?}"))?;
        let val_x = standardizer.transform_batch(&extractor.extract_batch(ds, &split.val));
        let val = TrainData::from_f64(&val_x, labels(&split.val), levels)
            .map_err(|e| format!("validation batch: {e:?}"))?;
        let p = extractor.feature_dim();
        let sizes = [p, (p / 2).max(levels), (p / 4).max(levels), levels];
        let mut head = Mlp::new(&sizes, seed);
        let mut config = design.train.clone();
        config.seed = seed.wrapping_add(1000);
        config.class_weights = Some(inverse_frequency_weights(
            train.labels(),
            levels,
            design.class_weight_cap,
        ));
        let (report, t) = tracer.time("nn.train", || head.train(&train, Some(&val), &config));
        self.head_train_s = t;
        self.epochs = report.train_losses.len();
        Ok(())
    }

    fn engine(&mut self, stats: mlr_core::EngineStats) {
        self.engine = Some(match &self.engine {
            Some(previous) => previous.merge(&stats),
            None => stats,
        });
    }

    fn metrics(&self, model: &TrainedModel, generate_s: &[f64], log: &ServeLog) -> Vec<Metric> {
        let plan = model.as_ours().expect("an OURS design").plan();
        let rows = plan.n_kernel_rows() as f64;
        let engine = self.engine.unwrap_or_default();
        vec![
            ("sim.generate_s", median(generate_s), "s"),
            ("features.fit_s", self.features_fit_s, "s"),
            ("nn.head_train_s", self.head_train_s, "s"),
            ("nn.epochs", self.epochs as f64, "count"),
            ("plan.features_us", median(&self.features_us), "us/shot"),
            ("plan.heads_us", median(&self.heads_us), "us/shot"),
            ("plan.layered_us", median(&self.layered_us), "us/shot"),
            ("plan.kernel_rows", rows, "count"),
            (
                "plan.bank_bytes",
                rows * plan.n_samples() as f64 * 2.0 * 4.0,
                "B",
            ),
            ("engine.flushes", engine.flushes as f64, "count"),
            ("engine.batch_mean", engine.mean_batch(), "shots"),
            ("engine.shed", engine.total_shed() as f64, "count"),
            ("engine.mean_latency_us", engine.mean_latency_us, "us"),
            ("engine.direct_us", log.direct_us(), "us/shot"),
        ]
    }
}
