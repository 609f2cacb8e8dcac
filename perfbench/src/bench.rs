//! The end-to-end run: telemetry off (`Telemetry::null`), a closed loop
//! with one client that submits the next mission (or batch) only when the
//! previous one has returned, for the run's `--seconds`.

use crate::check::{batch_tally, digest, mission_matches, Reference, Tally};
use crate::report::{median, peak_rss_mb, Outcome};
use crate::workload::{prepare, Batch, Inputs, Mission, Prepared, Workload};
use eecs_core::simulation::Simulation;
use eecs_serve::{plan_schedule, BatchOptions, ServiceRun};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// Runs `workload` end to end and returns its end-to-end metrics.
///
/// # Errors
///
/// Returns an error when set-up fails; mission failures are counted in
/// the outcome instead.
pub fn end_to_end(
    workload: Workload,
    inputs: &Inputs,
    workers: usize,
    seconds: f64,
) -> Result<Outcome, String> {
    let mut setup = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let p = prepare(workload, inputs, workers)?;
        setup.push(t.elapsed().as_secs_f64());
        prepared = Some(p);
    }
    let p = prepared.expect("SETUP_REPEATS > 0");
    let mut out = Outcome::default();
    out.put("setup_s", median(&setup), setup.len());
    let frames = workload.camera_frames() as f64;
    let phase = match inputs {
        Inputs::Missions(missions) => missions_phase(&p, missions, seconds)?,
        Inputs::Batches(batches) => batches_phase(&p, batches, seconds)?,
    };
    let busy: f64 = phase.walls.iter().sum();
    let completed = phase.tally.completed() as f64;
    out.put(
        "mission_p50_s",
        median(&phase.per_mission),
        phase.per_mission.len(),
    );
    out.put(
        "camera_frames_per_s",
        completed * frames / busy,
        phase.walls.len(),
    );
    out.put("missions_per_s", completed / busy, phase.walls.len());
    out.put(
        "completed_share",
        completed / phase.tally.attempted as f64,
        phase.tally.attempted as usize,
    );
    let paper = PaperMetrics::of(phase.references.values(), frames);
    out.put("recall", paper.recall, paper.missions);
    out.put(
        "energy_j_per_camera_frame",
        paper.energy_j_per_camera_frame,
        paper.missions,
    );
    out.put("peak_rss_mb", peak_rss_mb(), 1);
    out.tally = phase.tally;
    Ok(out)
}

/// What the timed phase measured.
struct Phase {
    /// Wall time of each timed unit (a mission or a batch).
    walls: Vec<f64>,
    /// Per-mission wall time of each unit: the mission's own time, or a
    /// batch's time divided by the missions it executed.
    per_mission: Vec<f64>,
    tally: Tally,
    /// The serial reference of every distinct mission, keyed by
    /// `(batch, mission)` (`batch` is 0 for mission workloads).
    references: BTreeMap<(usize, usize), Reference>,
}

fn missions_phase(p: &Prepared, missions: &[Mission], seconds: f64) -> Result<Phase, String> {
    let sims: Vec<Simulation> = missions
        .iter()
        .map(|m| m.build(&p.base))
        .collect::<Result<_, _>>()?;
    let mut walls = Vec::new();
    let mut results = Vec::new();
    closed_loop(seconds, sims.len(), |i| {
        let k = i % sims.len();
        let t = Instant::now();
        let report = sims[k].run();
        let wall = t.elapsed();
        walls.push(wall.as_secs_f64());
        results.push((
            k,
            report.map_err(|e| e.to_string()).and_then(|r| digest(&r)),
        ));
        wall
    });
    let references = mission_references(&sims);
    let mut tally = Tally::default();
    for (k, got) in &results {
        tally.attempted += 1;
        if !references
            .get(&(0, *k))
            .is_some_and(|want| mission_matches(got, want))
        {
            tally.failed += 1;
        }
    }
    Ok(Phase {
        per_mission: walls.clone(),
        walls,
        tally,
        references,
    })
}

fn batches_phase(p: &Prepared, batches: &[Batch], seconds: f64) -> Result<Phase, String> {
    let mut walls = Vec::new();
    let mut per_mission = Vec::new();
    let mut runs = Vec::new();
    closed_loop(seconds, batches.len(), |i| {
        let b = i % batches.len();
        let t = Instant::now();
        let outcome = p.services[b].run_batch(&batches[b].requests, &BatchOptions::default());
        let wall = t.elapsed();
        walls.push(wall.as_secs_f64());
        let executed = outcome.as_ref().map_or(0, |o| o.executed);
        per_mission.push(wall.as_secs_f64() / executed.max(1) as f64);
        runs.push((
            b,
            outcome.and_then(|o| o.run.ok_or_else(|| "batch aborted".into())),
        ));
        wall
    });
    let references = batch_references(&p.base, batches);
    let mut tally = Tally::default();
    for (b, run) in &runs {
        tally.add(tally_of_batch(*b, &batches[*b], run, &references));
    }
    Ok(Phase {
        walls,
        per_mission,
        tally,
        references,
    })
}

/// Calls `unit(i)` for `i = 0, 1, …` until the units' summed wall time
/// reaches `seconds`, rounded up to whole cycles of `cycle` units so every
/// distinct input weighs the same in the run's aggregates.
fn closed_loop(seconds: f64, cycle: usize, mut unit: impl FnMut(usize) -> Duration) {
    let budget = Duration::from_secs_f64(seconds);
    let mut spent = Duration::ZERO;
    let mut i = 0;
    while i == 0 || spent < budget || i % cycle != 0 {
        spent += unit(i);
        i += 1;
    }
}

/// Serial references of every mission; a mission whose reference run
/// fails has none, so every measured run of it counts as failed.
pub fn mission_references(sims: &[Simulation]) -> BTreeMap<(usize, usize), Reference> {
    sims.iter()
        .enumerate()
        .filter_map(|(k, sim)| Reference::of(sim).ok().map(|r| ((0, k), r)))
        .collect()
}

/// Serial references of every admitted mission of every batch, built the
/// way the service builds them (`MissionSpec::apply` on the base).
pub fn batch_references(
    base: &Simulation,
    batches: &[Batch],
) -> BTreeMap<(usize, usize), Reference> {
    let mut out = BTreeMap::new();
    for (b, batch) in batches.iter().enumerate() {
        for m in plan_schedule(&batch.config, &batch.requests).admitted() {
            let spec = &batch.requests[m].spec;
            if let Ok(r) = spec.apply(base).and_then(|s| Reference::of(&s)) {
                out.insert((b, m), r);
            }
        }
    }
    out
}

/// The tally of one batch run against the references and the plan.
pub fn tally_of_batch(
    b: usize,
    batch: &Batch,
    run: &Result<ServiceRun, String>,
    references: &BTreeMap<(usize, usize), Reference>,
) -> Tally {
    let requests = &batch.requests;
    let plan = plan_schedule(&batch.config, requests);
    let planned: Vec<usize> = plan.rejections().iter().map(|(m, _)| *m).collect();
    match run {
        Ok(run) => {
            let refs: BTreeMap<usize, Reference> = references
                .range((b, 0)..(b + 1, 0))
                .map(|((_, m), r)| (*m, r.clone()))
                .collect();
            batch_tally(requests, run, &planned, &refs)
        }
        Err(_) => Tally {
            attempted: requests.len() as u64,
            failed: (requests.len() - planned.len()) as u64,
            refused: planned.len() as u64,
        },
    }
}

/// The paper's two numbers over a set of mission reports.
pub struct PaperMetrics {
    /// Σ correctly detected / Σ ground-truth objects.
    pub recall: f64,
    /// Σ energy / Σ annotated camera-frames.
    pub energy_j_per_camera_frame: f64,
    /// Missions summed.
    pub missions: usize,
}

impl PaperMetrics {
    /// Sums the references' reports; `frames` is the camera-frames of one
    /// mission.
    pub fn of<'a>(refs: impl Iterator<Item = &'a Reference>, frames: f64) -> PaperMetrics {
        let (mut correct, mut gt, mut energy, mut missions) = (0usize, 0usize, 0.0, 0usize);
        for r in refs {
            correct += r.report.correctly_detected;
            gt += r.report.gt_objects;
            energy += r.report.total_energy_j;
            missions += 1;
        }
        PaperMetrics {
            recall: correct as f64 / gt.max(1) as f64,
            energy_j_per_camera_frame: energy / (missions.max(1) as f64 * frames),
            missions,
        }
    }
}
