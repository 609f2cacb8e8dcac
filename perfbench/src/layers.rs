//! The traced run: per-layer numbers from spans the benchmark records
//! around its own calls into each layer's public functions, fed with the
//! workload's own inputs, plus the exact counts of the program's
//! `Telemetry::recording` counters. No span sits inside the program.

use crate::bench::tally_of_batch;
use crate::check::{digest, mission_matches, Reference, Tally};
use crate::report::Outcome;
use crate::spans::Spans;
use crate::workload::{prepare_with, train_bank, Batch, Inputs, Mission, Prepared, Workload};
use eecs_core::camera_node::CameraNode;
use eecs_core::checkpoint::{CheckpointFaultPlan, CheckpointStore, SimulationCheckpoint};
use eecs_core::controller::Controller;
use eecs_core::features::FeatureExtractor;
use eecs_core::metadata::CameraReport;
use eecs_core::reid::fuse_reports;
use eecs_core::selection::AssessmentData;
use eecs_core::simulation::SimulationConfig;
use eecs_core::telemetry::Telemetry;
use eecs_core::training::train_record;
use eecs_detect::detection::AlgorithmId;
use eecs_detect::health::DetectorHealth;
use eecs_energy::budget::{BatteryState, EnergyBudget};
use eecs_net::message::{decode_frame, encode_frame, Message};
use eecs_scene::rig::{camera_rig, rig_calibrations};
use eecs_scene::sensor_fault::SensorFaultPlan;
use eecs_scene::sequence::{FrameData, VideoFeed};
use eecs_serve::{plan_schedule, BatchOptions, MissionRequest, MissionService, ServiceConfig};
use std::collections::BTreeMap;
use std::time::Instant;

/// Flight-recorder capacity of each recording telemetry handle.
const TRACE_CAPACITY: usize = 1 << 16;

/// The traced run: per-layer metrics, the spans behind them, and the
/// correctness tally of every mission the run executed.
pub struct Traced {
    /// Per-layer metrics and the tally.
    pub outcome: Outcome,
    /// Every span recorded.
    pub spans: Spans,
}

/// Runs `workload` traced.
///
/// # Errors
///
/// Returns an error when set-up fails.
pub fn traced(workload: Workload, inputs: &Inputs, workers: usize) -> Result<Traced, String> {
    let mut spans = Spans::new();
    let mut out = Outcome::default();
    let p = spans.span("setup", None, |s| {
        traced_setup(s, &mut out, workload, inputs, workers)
    })?;
    let mut counts = Counts::default();
    let replayed = match inputs {
        Inputs::Missions(missions) => {
            traced_missions(&mut spans, &mut out, &mut counts, &p, missions)?;
            missions[0].clone()
        }
        Inputs::Batches(batches) => {
            traced_batches(&mut spans, &mut out, &mut counts, &p, batches)?;
            // Replay the first request with a sensor plan, so the sensor
            // fault layer runs on a mission that has one.
            let requests = &batches[0].requests;
            let id = requests
                .iter()
                .position(|r| r.spec.sensor_plan.is_some())
                .unwrap_or(0);
            Mission {
                id,
                spec: requests[id].spec.clone(),
                checkpoint_faults: CheckpointFaultPlan::none(),
            }
        }
    };
    spans.span("replay", Some(replayed.id), |s| {
        replay_layers(s, &mut out, &p, workload, &replayed)
    })?;
    if let Inputs::Missions(missions) = inputs {
        // The mission workloads run no service; the planner still prices
        // their mission list, so its cost is comparable across workloads.
        let requests: Vec<MissionRequest> = missions
            .iter()
            .map(|m| MissionRequest::new("client").with_spec(m.spec.clone()))
            .collect();
        spans.span("serve.plan", None, |_| {
            plan_schedule(&ServiceConfig::new(0), &requests)
        });
    }
    finish(&spans, &mut out, &counts);
    Ok(Traced {
        outcome: out,
        spans,
    })
}

/// Set-up, split into the layers `Simulation::prepare` runs, each replayed
/// through its public function with the rig's inputs; then the real
/// `prepare`, whose matching must agree with the replay.
fn traced_setup(
    s: &mut Spans,
    out: &mut Outcome,
    workload: Workload,
    inputs: &Inputs,
    workers: usize,
) -> Result<Prepared, String> {
    let bank = s.span("bank.train", None, |_| train_bank())?;
    let config: SimulationConfig = workload.config(workers);
    let profile = &config.profile;
    let feeds: Vec<VideoFeed> = (0..config.cameras)
        .map(|j| VideoFeed::open(profile.clone(), j))
        .collect();
    let train_end = profile.train_frames.min(config.start_frame);
    let train: Vec<Vec<FrameData>> = s.span("scene.train_render", None, |_| {
        feeds
            .iter()
            .map(|f| {
                let mut frames = f.annotated_frames(0, train_end.max(profile.gt_interval + 1));
                frames.truncate(config.max_training_frames.max(2));
                frames
            })
            .collect()
    });
    let vocab: Vec<_> = train
        .iter()
        .flat_map(|f| f.iter().take(3).map(|fd| fd.image.clone()))
        .collect();
    let extractor = s
        .span("features.vocab", None, |_| {
            FeatureExtractor::build(&vocab, config.feature_words, 17)
        })
        .map_err(|e| e.to_string())?;
    let mut records = Vec::new();
    for (j, frames) in train.iter().enumerate() {
        let name = format!("T_{}.{}", profile.id.number(), j + 1);
        let record = s
            .span("training.record", None, |_| {
                train_record(&name, frames, frames, &extractor, &bank, &config.eecs)
            })
            .map_err(|e| e.to_string())?;
        records.push(record);
    }
    let calibrations = rig_calibrations(profile, &camera_rig(profile));
    let controller =
        Controller::new(records, calibrations, config.eecs.clone()).map_err(|e| e.to_string())?;
    let mut matched = Vec::new();
    for (j, feed) in feeds.iter().enumerate() {
        let end = (config.start_frame + 5 * profile.gt_interval + 1).min(config.end_frame);
        let images: Vec<_> = feed
            .annotated_frames(config.start_frame, end)
            .into_iter()
            .map(|f| f.image)
            .collect();
        let best = s
            .span("manifold.match", None, |_| {
                let item = extractor.extract_video(format!("V_cam{j}"), &images)?;
                controller.match_feed(&item).map(|(m, _)| m.best_index)
            })
            .map_err(|e| e.to_string())?;
        matched.push(best);
    }
    let p = s.span("prepare", None, |_| {
        prepare_with(workload, inputs, workers, bank)
    })?;
    if matched != p.base.matched_records() {
        out.check_failures.push(format!(
            "set-up replay matched {matched:?}, prepare matched {:?}",
            p.base.matched_records()
        ));
    }
    Ok(p)
}

/// Program counters summed over every mission of the run.
#[derive(Default)]
struct Counts {
    counters: BTreeMap<String, u64>,
    max_queue_depth: usize,
    /// Summed wall time of the timed executions (parallel missions or
    /// service batches), of the telemetry-off and recording runs that
    /// `telemetry.overhead_share` compares, and of the serial references.
    parallel_s: f64,
    recorded_s: f64,
    null_s: f64,
    serial_s: f64,
}

impl Counts {
    fn absorb(&mut self, telemetry: &Telemetry) {
        for (name, value) in telemetry.metrics().counters() {
            *self.counters.entry(name.to_string()).or_default() += value;
        }
    }

    fn get(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// The program's own telemetry counters over the run's inputs, summed:
/// every mission once under a recording handle, or every batch once
/// through a recording service.
///
/// # Errors
///
/// Returns the first mission or batch error.
pub fn program_counters(p: &Prepared, inputs: &Inputs) -> Result<BTreeMap<String, u64>, String> {
    let mut counts = Counts::default();
    match inputs {
        Inputs::Missions(missions) => {
            for m in missions {
                let telemetry = Telemetry::recording(TRACE_CAPACITY);
                m.build(&p.base)?
                    .with_telemetry(telemetry.clone())
                    .run()
                    .map_err(|e| e.to_string())?;
                counts.absorb(&telemetry);
            }
        }
        Inputs::Batches(batches) => {
            for b in batches {
                let telemetry = Telemetry::recording(TRACE_CAPACITY);
                MissionService::new(p.base.clone(), b.config.clone())
                    .with_telemetry(telemetry.clone())
                    .run_batch(&b.requests, &BatchOptions::default())?;
                counts.absorb(&telemetry);
            }
        }
    }
    Ok(counts.counters)
}

/// Each mission three times, back to back: parallel with telemetry off
/// (timing), parallel recording (counts) and serial (the reference).
fn traced_missions(
    s: &mut Spans,
    out: &mut Outcome,
    counts: &mut Counts,
    p: &Prepared,
    missions: &[Mission],
) -> Result<(), String> {
    for (k, mission) in missions.iter().enumerate() {
        let sim = mission.build(&p.base)?;
        let telemetry = Telemetry::recording(TRACE_CAPACITY);
        let recorded = sim.with_telemetry(telemetry.clone());
        let (plain, plain_s) = timed(|| s.span("mission", Some(k), |_| sim.run()));
        let (traced, traced_s) = timed(|| s.span("mission.recorded", Some(k), |_| recorded.run()));
        let (reference, serial_s) =
            timed(|| s.span("mission.serial", Some(k), |_| Reference::of(&sim)));
        counts.null_s += plain_s;
        counts.parallel_s += plain_s;
        counts.recorded_s += traced_s;
        counts.serial_s += serial_s;
        counts.absorb(&telemetry);
        for got in [plain, traced] {
            let got = got.map_err(|e| e.to_string()).and_then(|r| digest(&r));
            out.tally.add(Tally {
                attempted: 1,
                failed: u64::from(
                    !reference
                        .as_ref()
                        .is_ok_and(|want| mission_matches(&got, want)),
                ),
                refused: 0,
            });
        }
    }
    Ok(())
}

/// Each batch planned and executed once through a recording service; then
/// each admitted mission twice, serially and back to back: with telemetry
/// off (the reference) and recording (the mission-level counts, which the
/// service's own null handle does not publish).
fn traced_batches(
    s: &mut Spans,
    out: &mut Outcome,
    counts: &mut Counts,
    p: &Prepared,
    batches: &[Batch],
) -> Result<(), String> {
    let mut runs = Vec::new();
    for (b, batch) in batches.iter().enumerate() {
        let (config, requests) = (&batch.config, &batch.requests);
        let telemetry = Telemetry::recording(TRACE_CAPACITY);
        let recording =
            MissionService::new(p.base.clone(), config.clone()).with_telemetry(telemetry.clone());
        let run = s.span("batch", Some(b), |s| {
            let plan = s.span("serve.plan", Some(b), |_| plan_schedule(config, requests));
            counts.max_queue_depth = counts.max_queue_depth.max(plan.max_queue_depth);
            let (run, wall) = timed(|| {
                s.span("serve.execute", Some(b), |_| {
                    recording.run_batch(requests, &BatchOptions::default())
                })
            });
            counts.parallel_s += wall;
            run
        });
        counts.absorb(&telemetry);
        runs.push((
            b,
            run.and_then(|o| o.run.ok_or_else(|| "batch aborted".into())),
        ));
    }
    let mut references = BTreeMap::new();
    for (b, batch) in batches.iter().enumerate() {
        for m in plan_schedule(&batch.config, &batch.requests).admitted() {
            let sim = batch.requests[m].spec.apply(&p.base)?;
            let telemetry = Telemetry::recording(TRACE_CAPACITY);
            let recorded = sim.with_telemetry(telemetry.clone());
            let (reference, serial_s) =
                timed(|| s.span("mission.serial", Some(m), |_| Reference::of(&sim)));
            let (traced, traced_s) =
                timed(|| s.span("mission.recorded", Some(m), |_| recorded.run()));
            counts.serial_s += serial_s;
            counts.null_s += serial_s;
            counts.recorded_s += traced_s;
            counts.absorb(&telemetry);
            let got = traced.map_err(|e| e.to_string()).and_then(|r| digest(&r));
            out.tally.add(Tally {
                attempted: 1,
                failed: u64::from(
                    !reference
                        .as_ref()
                        .is_ok_and(|want| mission_matches(&got, want)),
                ),
                refused: 0,
            });
            if let Ok(reference) = reference {
                references.insert((b, m), reference);
            }
        }
    }
    for (b, run) in &runs {
        out.tally
            .add(tally_of_batch(*b, &batches[*b], run, &references));
    }
    Ok(())
}

/// `f`'s result and its wall time in seconds.
fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Replays one mission's per-frame layers through their public functions:
/// render, sensor faults, every detector, the shared-cache assessment,
/// health checks, report ingestion and the wire codec, fusion, selection
/// and the checkpoint store.
fn replay_layers(
    s: &mut Spans,
    out: &mut Outcome,
    p: &Prepared,
    workload: Workload,
    mission: &Mission,
) -> Result<(), String> {
    let sim = mission.build(&p.base)?;
    let spec = &mission.spec;
    let id = Some(mission.id);
    let config = workload.config(1);
    let cams = config.cameras;
    let mut frames: Vec<Vec<FrameData>> = (0..cams)
        .map(|j| {
            let feed = VideoFeed::open(config.profile.clone(), j);
            s.span("scene.render", id, |_| {
                feed.annotated_frames(config.start_frame, config.end_frame)
            })
        })
        .collect();
    let rendered: usize = frames.iter().map(Vec::len).sum();
    let sensor = spec
        .sensor_plan
        .clone()
        .unwrap_or_else(SensorFaultPlan::ideal);
    let mut dropped = vec![Vec::new(); cams];
    for (j, cam_frames) in frames.iter_mut().enumerate() {
        for fd in cam_frames.iter_mut() {
            let imp = s.span("scene.sensor_fault", id, |_| {
                sensor.corrupt(j, fd.frame, &mut fd.image)
            });
            dropped[j].push(imp.dropped);
        }
    }

    let gt = config.profile.gt_interval;
    let per_round = (config.eecs.recalibration_interval / gt).max(1);
    let assess = (config.eecs.assessment_period / gt).clamp(1, per_round);
    let rounds = frames[0].len().div_ceil(per_round);
    let budget_j = spec.budget_j_per_frame.unwrap_or(config.budget_j_per_frame);
    let budget = EnergyBudget::per_frame(budget_j).map_err(|e| e.to_string())?;
    let controller = sim.controller();
    let reid = controller.reid_config(None);
    let policy = config.eecs.health;
    let (mut windows, mut rejected) = (0u64, 0u64);
    for round in 0..rounds {
        let mut data = AssessmentData {
            reports: vec![BTreeMap::new(); cams],
        };
        let mut fused_inputs: Vec<Vec<CameraReport>> = vec![Vec::new(); assess];
        for j in 0..cams {
            let record = sim.record_for_camera(j);
            let feasible: Vec<AlgorithmId> = record
                .feasible_ranked(&budget)
                .iter()
                .map(|p| p.algorithm)
                .collect();
            let mut node = CameraNode::new(
                j,
                p.bank.clone(),
                BatteryState::new(1e12).map_err(|e| e.to_string())?,
                budget,
            );
            let device = sim.fleet()[j].device;
            for (fi, fused) in fused_inputs.iter_mut().enumerate() {
                let f = round * per_round + fi;
                if f >= frames[j].len() {
                    break;
                }
                let image = &frames[j][f].image;
                if dropped[j][f] {
                    for &alg in &feasible {
                        data.reports[j]
                            .entry(alg)
                            .or_default()
                            .push(CameraReport::default());
                    }
                    continue;
                }
                for (alg, detector) in p.bank.all() {
                    let name = match alg {
                        AlgorithmId::Hog => "detect.hog",
                        AlgorithmId::Acf => "detect.acf",
                        AlgorithmId::C4 => "detect.c4",
                        AlgorithmId::Lsvm => "detect.lsvm",
                    };
                    let output = s.span(name, id, |_| detector.detect(image));
                    s.span("detect.health", id, |_| {
                        DetectorHealth::check(alg, &output, &policy)
                    });
                    if !feasible.contains(&alg) {
                        continue;
                    }
                    let profile = record.profile(alg).ok_or("feasible algorithm unprofiled")?;
                    let report = node
                        .ingest_detection(image, output, profile, &device)
                        .map_err(|e| e.to_string())?;
                    let message = Message::DetectionMetadata {
                        objects: report.len(),
                    };
                    let decoded =
                        s.span("net.codec", id, |_| decode_frame(&encode_frame(&message)));
                    if decoded.as_ref() != Ok(&message) {
                        out.check_failures
                            .push(format!("codec round trip: {decoded:?}"));
                    }
                    if Some(&alg) == feasible.first() {
                        fused.push(report.clone());
                    }
                    data.reports[j].entry(alg).or_default().push(report);
                }
                s.span("detect.assess", id, |_| {
                    p.bank.run_algorithms(&feasible, image, true)
                });
                s.span("detect.assess_unshared", id, |_| {
                    p.bank.run_algorithms(&feasible, image, false)
                });
                let (w, r) = p.bank.c4().cascade_stats(image);
                windows += w;
                rejected += r;
            }
        }
        for reports in &fused_inputs {
            s.span("reid.fuse", id, |_| {
                fuse_reports(reports, controller.calibrations(), &reid)
            });
        }
        let budgets = vec![budget; cams];
        s.span("controller.select", id, |_| {
            controller.select(&data, sim.matched_records(), &budgets, &reid, true)
        })
        .map_err(|e| e.to_string())?;
    }

    let mut store = CheckpointStore::new(mission.checkpoint_faults);
    let payload = SimulationCheckpoint::initial(cams).to_json();
    for _ in 0..=rounds {
        s.span("checkpoint.commit", id, |_| store.commit(&payload));
        s.span("checkpoint.restore", id, |_| store.restore())
            .map_err(|e| format!("checkpoint restore: {e:?}"))?;
    }

    out.put(
        "scene.render_ms",
        1e3 * s.total_self_s("scene.render") / rendered.max(1) as f64,
        rendered,
    );
    out.put(
        "detect.c4.cascade_reject_share",
        rejected as f64 / windows.max(1) as f64,
        windows as usize,
    );
    Ok(())
}

/// Turns spans and counts into the per-layer metrics.
fn finish(s: &Spans, out: &mut Outcome, counts: &Counts) {
    let times = s.self_times();
    let n = |name: &str| times.get(name).map_or(0, |(n, _)| *n);
    let mean = |name: &str, scale: f64| (scale * s.mean_self_s(name), n(name));
    let total = |name: &str| (s.total_self_s(name), n(name));
    for (metric, (value, samples)) in [
        ("bank.train_s", total("bank.train")),
        ("features.vocab_s", total("features.vocab")),
        ("training.record_s", total("training.record")),
        ("manifold.match_s", total("manifold.match")),
        ("scene.train_render_s", total("scene.train_render")),
        ("detect.hog.ms", mean("detect.hog", 1e3)),
        ("detect.acf.ms", mean("detect.acf", 1e3)),
        ("detect.c4.ms", mean("detect.c4", 1e3)),
        ("detect.lsvm.ms", mean("detect.lsvm", 1e3)),
        ("detect.assess.ms", mean("detect.assess", 1e3)),
        ("detect.health.us", mean("detect.health", 1e6)),
        ("reid.fuse_us", mean("reid.fuse", 1e6)),
        ("controller.select_ms", mean("controller.select", 1e3)),
        ("scene.sensor_fault_ms", mean("scene.sensor_fault", 1e3)),
        ("net.codec_us", mean("net.codec", 1e6)),
        ("checkpoint.commit_us", mean("checkpoint.commit", 1e6)),
        ("checkpoint.restore_us", mean("checkpoint.restore", 1e6)),
        ("serve.plan_us", mean("serve.plan", 1e6)),
    ] {
        out.put(metric, value, samples);
    }
    let executed = if n("serve.execute") > 0 {
        mean("serve.execute", 1.0)
    } else {
        (counts.parallel_s, n("mission"))
    };
    out.put("serve.execute_s", executed.0, executed.1);
    let saving = 1.0 - s.total_self_s("detect.assess") / s.total_self_s("detect.assess_unshared");
    out.put(
        "detect.feature_cache_saving_share",
        saving,
        n("detect.assess"),
    );

    for alg in ["hog", "acf", "c4", "lsvm"] {
        let runs = counts.get(&format!("detect.runs.{alg}"));
        out.put(&format!("detect.{alg}.runs"), runs as f64, 1);
    }
    for alg in ["hog", "acf", "c4", "lsvm"] {
        let ops = counts.get(&format!("detect.ops.{alg}"));
        out.put(&format!("detect.{alg}.ops"), ops as f64, 1);
    }
    for (metric, counter) in [
        ("net.attempts", "net.attempts"),
        ("net.retransmits", "net.retransmits"),
        ("net.undelivered", "net.undelivered"),
        ("net.corrupted", "transport.corrupted"),
        ("checkpoint.taken", "checkpoint.taken"),
        ("checkpoint.rollbacks", "checkpoint.rollbacks"),
        ("quarantine.strikes", "quarantine.strikes"),
        ("failover.count", "failover.count"),
        ("churn.leaves", "churn.leaves"),
        ("serve.admitted", "serve.admitted"),
        ("serve.rejected", "serve.rejected"),
        ("serve.deadline_missed", "serve.deadline_missed"),
    ] {
        out.put(metric, counts.get(counter) as f64, 1);
    }
    out.put("serve.max_queue_depth", counts.max_queue_depth as f64, 1);
    // Every delivery's first attempt is useful unless it never arrived;
    // retransmissions never are.
    let attempts = counts.get("net.attempts");
    let useful = attempts
        .saturating_sub(counts.get("net.retransmits"))
        .saturating_sub(counts.get("net.undelivered"));
    out.put(
        "net.delivery_share",
        useful as f64 / attempts.max(1) as f64,
        attempts as usize,
    );
    out.put(
        "par.serial_over_parallel",
        counts.serial_s / counts.parallel_s,
        n("mission").max(n("serve.execute")),
    );
    out.put(
        "telemetry.overhead_share",
        counts.recorded_s / counts.null_s - 1.0,
        n("mission.recorded"),
    );
    // Keep the output in table order.
    out.metrics.sort_by_key(|m| {
        crate::report::PER_LAYER
            .iter()
            .position(|(name, _)| *name == m.name)
    });
}
