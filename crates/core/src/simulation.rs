//! The closed-loop testbed simulation (Section VI-E).
//!
//! Drives a dataset's four feeds through rounds of
//! assessment → selection → operation, with every Joule of processing and
//! communication charged to the camera batteries. The three operating
//! modes are the three bars of Figs. 5–6:
//!
//! * [`OperatingMode::AllBest`] — every camera always runs its best
//!   budget-feasible algorithm (the paper's baseline),
//! * [`OperatingMode::CameraSubset`] — EECS chooses a sufficient camera
//!   subset but keeps best algorithms,
//! * [`OperatingMode::FullEecs`] — subset choice plus algorithm
//!   downgrades (the complete framework).
//!
//! As in the paper, only ground-truth-annotated frames are processed
//! ("we only process frames that have ground truth information",
//! Section VI-E), so a 100-frame assessment period spans 4 annotated
//! frames on datasets #1/#3 and 10 on dataset #2.

use crate::camera_node::CameraNode;
use crate::checkpoint::{CheckpointFaultPlan, CheckpointStore, SimulationCheckpoint};
use crate::config::{ConfigError, EecsConfig};
use crate::controller::{AssessmentCache, CameraAssessment, Controller, QuarantineLedger};
use crate::features::FeatureExtractor;
use crate::metadata::CameraReport;
use crate::profile::TrainingRecord;
use crate::reconcile::{reconcile, SeatSnapshot};
use crate::reid::ReidConfig;
use crate::selection::AssessmentData;
use crate::telemetry::{Telemetry, TraceEvent};
use crate::training::train_record;
use crate::{EecsError, Result};
use eecs_detect::bank::DetectorBank;
use eecs_detect::detection::{AlgorithmId, DetectionOutput};
use eecs_detect::health::DetectorHealth;
use eecs_energy::budget::{BatteryState, EnergyBudget};
use eecs_energy::comm::JPEG_BYTES_PER_PIXEL;
use eecs_energy::profile::DeviceProfile;
use eecs_net::fault::{ChurnPlan, ControllerFaultPlan, Endpoint, FaultPlan, PartitionPlan};
use eecs_net::message::Message;
use eecs_net::reliable::Delivery;
use eecs_net::transport::{Network, TransportStats};
use eecs_scene::dataset::DatasetProfile;
use eecs_scene::rig::{rig_calibrations, FleetView};
use eecs_scene::sensor_fault::{FrameImpairment, SensorFaultPlan};
use eecs_scene::sequence::{FrameData, VideoFeed};
use std::collections::{BTreeMap, BTreeSet};

/// Ground-distance tolerance when scoring fused objects against ground
/// truth (meters).
const GT_MATCH_GATE_M: f64 = 1.2;

/// Telemetry histogram buckets for per-detection object counts.
const DETECT_OBJECTS_BOUNDS: &[f64] = &[0.0, 1.0, 2.0, 4.0, 8.0, 16.0];

/// Telemetry histogram buckets for per-round energy (J).
const ROUND_ENERGY_BOUNDS: &[f64] = &[5.0, 10.0, 25.0, 50.0, 100.0, 250.0];

/// Host-side execution settings: how the simulator schedules the pure
/// detection work of a round. These knobs change wall-clock time only —
/// detections, op counters, and every Joule of modeled energy are
/// bit-identical across all settings (the stateful battery/network
/// effects always replay serially in the original order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism {
    /// Worker threads for the per-round detection fan-out. `0` means
    /// auto (the host's available parallelism); `1` runs inline.
    pub workers: usize,
    /// Share per-frame features (pyramid levels, channel stacks) across
    /// the algorithms assessed on the same frame. Host speedup only: the
    /// modeled cameras run each algorithm in isolation, so per-algorithm
    /// `ops` counters and `processing_energy` charges are not reduced.
    pub feature_cache: bool,
}

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism {
            workers: 0,
            feature_cache: true,
        }
    }
}

impl Parallelism {
    /// Fully serial reference settings: one worker, no feature sharing.
    pub fn serial() -> Parallelism {
        Parallelism {
            workers: 1,
            feature_cache: false,
        }
    }
}

/// Which coordination strategy to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OperatingMode {
    /// All cameras, best algorithms (baseline of Figs. 5–6).
    AllBest,
    /// EECS camera subset, best algorithms.
    CameraSubset,
    /// Full EECS: subset + algorithm downgrades.
    FullEecs,
}

/// Simulation parameters.
#[derive(Debug, Clone)]
pub struct SimulationConfig {
    /// The dataset to run.
    pub profile: DatasetProfile,
    /// Number of cameras to use (≤ 4; the paper uses all 4).
    pub cameras: usize,
    /// First test frame (inclusive; the paper starts at frame 1000).
    pub start_frame: usize,
    /// Last test frame (exclusive).
    pub end_frame: usize,
    /// Per-frame energy budget `B_j` (Joules) — the knob of Fig. 5a vs 5b.
    pub budget_j_per_frame: f64,
    /// Coordination strategy.
    pub mode: OperatingMode,
    /// Framework configuration.
    pub eecs: EecsConfig,
    /// Visual-word vocabulary size for the feature extractor.
    pub feature_words: usize,
    /// Cap on annotated training frames per camera used for offline
    /// training (controls preparation cost; the paper used the full
    /// 1000-frame segment).
    pub max_training_frames: usize,
    /// Section VII extension: every `boost_every`-th recalibration round
    /// runs with the all-cameras/best-algorithms configuration to catch
    /// objects missed during energy-saving rounds ("EECS would then
    /// periodically enforce higher accuracy requirements in other
    /// rounds"). `0` disables boosting.
    pub boost_every: usize,
    /// Deterministic network-fault schedule. [`FaultPlan::ideal`] (no
    /// faults) reproduces the idealized pre-chaos energy numbers exactly.
    pub fault_plan: FaultPlan,
    /// Deterministic sensor-fault schedule: per-camera frame corruption
    /// (noise, blur, occlusion, exposure drift, stuck rows, dropped
    /// frames). [`SensorFaultPlan::ideal`] leaves every pixel untouched
    /// and reproduces the clean-sensor reports exactly.
    pub sensor_plan: SensorFaultPlan,
    /// Deterministic controller-crash schedule. While a crash window is
    /// open the hub is dark; the surviving cameras elect a replacement
    /// from their own ranks and restore its state from the last
    /// checkpoint. [`ControllerFaultPlan::none`] keeps the mains-powered
    /// controller immortal and the run bit-identical to pre-chaos.
    pub controller_plan: ControllerFaultPlan,
    /// Host-side execution settings (worker pool, feature cache). Affects
    /// wall-clock only; reports are bit-identical across settings.
    pub parallel: Parallelism,
}

impl SimulationConfig {
    /// Structural validation, before any feed is opened or detector run.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`]: no cameras, more cameras than
    /// the 4-camera rigs support, an empty frame range, or a NaN/infinite/
    /// negative per-frame budget.
    pub fn validate(&self) -> std::result::Result<(), ConfigError> {
        if self.cameras == 0 {
            return Err(ConfigError::NoCameras);
        }
        if self.cameras > 4 {
            return Err(ConfigError::TooManyCameras {
                requested: self.cameras,
                max: 4,
            });
        }
        if self.start_frame >= self.end_frame {
            return Err(ConfigError::EmptyFrameRange {
                start: self.start_frame,
                end: self.end_frame,
            });
        }
        if !self.budget_j_per_frame.is_finite() {
            return Err(ConfigError::NonFiniteBudget(self.budget_j_per_frame));
        }
        if self.budget_j_per_frame < 0.0 {
            return Err(ConfigError::NegativeBudget(self.budget_j_per_frame));
        }
        Ok(())
    }
}

/// One controller failover, as it happened during a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailoverEvent {
    /// Round whose start the controller crashed at.
    pub round: usize,
    /// Camera elected as the replacement controller: the survivor that
    /// has spent the least energy (ties break to the lowest index).
    pub elected: usize,
    /// Round of the checkpoint the new controller restored from.
    pub checkpoint_round: usize,
    /// Peers that acknowledged the handover announcement.
    pub announced: usize,
}

/// One recalibration round's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundRecord {
    /// First annotated frame index of the round.
    pub first_frame: usize,
    /// Last annotated frame index of the round.
    pub last_frame: usize,
    /// Active cameras.
    pub active: Vec<usize>,
    /// Algorithm per active camera.
    pub assignment: BTreeMap<usize, AlgorithmId>,
    /// Energy spent in the round (J, all cameras).
    pub energy_j: f64,
    /// Correctly detected humans (fused objects matched to ground truth).
    pub correct: usize,
    /// Ground-truth humans present (visible to some camera).
    pub gt: usize,
}

/// Full-run results — the numbers behind one bar of Figs. 5–6.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationReport {
    /// Strategy that produced this report.
    pub mode: OperatingMode,
    /// Per-round details.
    pub rounds: Vec<RoundRecord>,
    /// Total energy over the run (J).
    pub total_energy_j: f64,
    /// Total correctly detected humans.
    pub correctly_detected: usize,
    /// Total ground-truth humans.
    pub gt_objects: usize,
    /// Energy per camera (J).
    pub per_camera_energy: Vec<f64>,
    /// Per-camera uplink transport statistics (attempts, drops, retries,
    /// timeouts, duplicates, …).
    pub transport: Vec<TransportStats>,
    /// Controller-side downlink statistics.
    pub downlink: TransportStats,
    /// Controller failovers, in order of occurrence. Empty unless a
    /// [`ControllerFaultPlan`] crash window opened during the run.
    pub failovers: Vec<FailoverEvent>,
    /// Frames the sensor-fault plan visibly corrupted (noise, blur,
    /// occlusion, exposure shift or stuck rows — drops counted
    /// separately).
    pub degraded_frames: usize,
    /// Frames the sensor-fault plan dropped entirely.
    pub dropped_frames: usize,
    /// Detector-health strikes the controller recorded (each one
    /// quarantined or extended the quarantine of a (camera, algorithm)
    /// pair).
    pub quarantine_strikes: usize,
    /// Network partitions that opened during the run (a contiguous span
    /// of partitioned rounds counts once). Zero without a
    /// [`PartitionPlan`].
    pub partitions: usize,
    /// Acting controllers elected by orphaned islands (epoch-fenced;
    /// does not count [`Self::failovers`] from controller crashes).
    pub elections: usize,
    /// Deterministic seat merges performed when islands healed.
    pub reconciliations: usize,
    /// Rounds that planned with more than one controller seat alive.
    pub split_brain_rounds: usize,
    /// Reliable-send attempts whose frame arrived bit-corrupted and was
    /// rejected by the receiver's checksum (uplink + downlink + peer).
    /// Zero without a [`eecs_net::CorruptionPlan`].
    pub corrupted_frames: u64,
    /// Checkpoint generations skipped by failover/election restores
    /// because they failed verification. Zero without a
    /// [`CheckpointFaultPlan`].
    pub checkpoint_rollbacks: u64,
    /// Cameras admitted (or re-admitted) to the fleet mid-run. Zero
    /// without a [`ChurnPlan`].
    pub camera_joins: usize,
    /// Cameras that left the fleet mid-run (absence windows, permanent
    /// departures, or random churn). Zero without a [`ChurnPlan`].
    pub camera_leaves: usize,
}

impl SimulationReport {
    /// Aggregate uplink statistics across all cameras.
    pub fn total_transport(&self) -> TransportStats {
        let mut total = TransportStats::default();
        for s in &self.transport {
            total.merge(s);
        }
        total
    }
}

/// A prepared simulation: trained records, matched feeds, calibrated rig.
#[derive(Debug, Clone)]
pub struct Simulation {
    config: SimulationConfig,
    bank: DetectorBank,
    feeds: Vec<VideoFeed>,
    controller: Controller,
    /// Matched training-record index per camera.
    matched: Vec<usize>,
    budgets: Vec<EnergyBudget>,
    /// Storage faults injected into the checkpoint store at commit time.
    checkpoint_faults: CheckpointFaultPlan,
    /// Per-camera device profiles. A uniform fleet (the default) is
    /// bit-identical to the legacy homogeneous simulation.
    fleet: Vec<DeviceProfile>,
    /// Deterministic join/leave/rejoin schedule. [`ChurnPlan::ideal`]
    /// keeps every camera present every round.
    churn: ChurnPlan,
}

impl Simulation {
    /// Prepares a simulation: opens the feeds, calibrates the rig, runs
    /// offline training on each camera's training segment, and matches
    /// each camera's segment to the training library (Section IV-B.2).
    ///
    /// # Errors
    ///
    /// Propagates training/feature failures and invalid configurations.
    pub fn prepare(bank: DetectorBank, config: SimulationConfig) -> Result<Simulation> {
        config.eecs.validate()?;
        config.validate()?;
        let feeds: Vec<VideoFeed> = (0..config.cameras)
            .map(|j| VideoFeed::open(config.profile.clone(), j))
            .collect();
        let rig = eecs_scene::rig::camera_rig(&config.profile);
        let calibrations = rig_calibrations(&config.profile, &rig);

        // Training segments (the first `train_frames` of each feed).
        let train_end = config.profile.train_frames.min(config.start_frame);
        let train_frames: Vec<Vec<FrameData>> = feeds
            .iter()
            .map(|f| {
                let mut frames =
                    f.annotated_frames(0, train_end.max(config.profile.gt_interval + 1));
                frames.truncate(config.max_training_frames.max(2));
                frames
            })
            .collect();
        if train_frames.iter().any(|f| f.len() < 2) {
            return Err(EecsError::InvalidArgument(
                "training segment too short for this ground-truth cadence".into(),
            ));
        }

        // The feature extractor's vocabulary comes from training frames of
        // all cameras (the paper: 400 words from the 12 training feeds).
        let vocab_frames: Vec<_> = train_frames
            .iter()
            .flat_map(|f| f.iter().take(3).map(|fd| fd.image.clone()))
            .collect();
        let extractor = FeatureExtractor::build(&vocab_frames, config.feature_words, 17)?;

        let mut records = Vec::new();
        for (j, frames) in train_frames.iter().enumerate() {
            let name = format!("T_{}.{}", config.profile.id.number(), j + 1);
            records.push(train_record(
                &name,
                frames,
                frames,
                &extractor,
                &bank,
                &config.eecs,
            )?);
        }
        let controller = Controller::new(records, calibrations, config.eecs.clone())?;

        // Match each camera's (test-segment) feed to the library.
        let mut matched = Vec::new();
        for (j, feed) in feeds.iter().enumerate() {
            let sample = feed.annotated_frames(
                config.start_frame,
                (config.start_frame + 5 * config.profile.gt_interval + 1).min(config.end_frame),
            );
            let images: Vec<_> = sample.iter().map(|f| f.image.clone()).collect();
            if images.len() >= 2 {
                let item = extractor.extract_video(format!("V_cam{j}"), &images)?;
                let (m, _) = controller.match_feed(&item)?;
                matched.push(m.best_index);
            } else {
                matched.push(j);
            }
        }

        let budgets = vec![
            EnergyBudget::per_frame(config.budget_j_per_frame)
                .map_err(EecsError::from)?;
            config.cameras
        ];
        let fleet = vec![DeviceProfile::uniform(config.eecs.device); config.cameras];
        Ok(Simulation {
            config,
            bank,
            feeds,
            controller,
            matched,
            budgets,
            checkpoint_faults: CheckpointFaultPlan::none(),
            fleet,
            churn: ChurnPlan::ideal(),
        })
    }

    /// The controller (for inspection).
    pub fn controller(&self) -> &Controller {
        &self.controller
    }

    /// A copy of this prepared simulation running a different strategy —
    /// offline training and matching are mode-independent, so comparing the
    /// three bars of Figs. 5–6 needs only one `prepare`.
    pub fn with_mode(&self, mode: OperatingMode) -> Simulation {
        let mut sim = self.clone();
        sim.config.mode = mode;
        sim
    }

    /// A copy of this prepared simulation under a different per-frame
    /// budget (Fig. 5a vs 5b explore exactly this knob).
    ///
    /// # Errors
    ///
    /// Returns an error for a negative budget.
    pub fn with_budget(&self, budget_j_per_frame: f64) -> Result<Simulation> {
        let mut sim = self.clone();
        sim.config.budget_j_per_frame = budget_j_per_frame;
        sim.budgets = scaled_budgets(budget_j_per_frame, &sim.fleet, &sim.config.eecs.device)?;
        Ok(sim)
    }

    /// A copy of this prepared simulation under different host-side
    /// execution settings (worker pool size, feature cache). Reports are
    /// unaffected; only wall-clock time changes.
    pub fn with_parallelism(&self, parallel: Parallelism) -> Simulation {
        let mut sim = self.clone();
        sim.config.parallel = parallel;
        sim
    }

    /// A copy of this prepared simulation under different fault schedules
    /// (network, sensor, controller). Training and matching see only
    /// clean data, so one `prepare` serves a whole fault matrix.
    pub fn with_faults(
        &self,
        fault_plan: FaultPlan,
        sensor_plan: SensorFaultPlan,
        controller_plan: ControllerFaultPlan,
    ) -> Simulation {
        let mut sim = self.clone();
        sim.config.fault_plan = fault_plan;
        sim.config.sensor_plan = sensor_plan;
        sim.config.controller_plan = controller_plan;
        sim
    }

    /// A copy of this prepared simulation whose checkpoint store injects
    /// the given storage faults (torn writes, bit rot) at commit time.
    /// Restores then roll back to the newest generation that verifies
    /// instead of deserializing damaged state.
    pub fn with_checkpoint_faults(&self, plan: CheckpointFaultPlan) -> Simulation {
        let mut sim = self.clone();
        sim.checkpoint_faults = plan;
        sim
    }

    /// A copy of this prepared simulation over a heterogeneous fleet:
    /// one [`DeviceProfile`] per camera, each with its own energy
    /// constants, battery capacity, and resolution cap. Per-frame
    /// budgets are rescaled by each profile's
    /// [`DeviceProfile::cost_scale`] against the run's reference device
    /// so selection compares algorithms under each camera's *own* cost
    /// model. A fleet of [`DeviceProfile::uniform`] profiles leaves the
    /// budgets — and the whole run — bit-identical to the homogeneous
    /// default.
    ///
    /// # Errors
    ///
    /// Returns an error when the profile count does not match the camera
    /// count, a profile fails validation, or a profile's sensor cannot
    /// capture the dataset's resolution.
    pub fn with_fleet(&self, fleet: Vec<DeviceProfile>) -> Result<Simulation> {
        if fleet.len() != self.config.cameras {
            return Err(EecsError::InvalidArgument(format!(
                "fleet has {} profiles for {} cameras",
                fleet.len(),
                self.config.cameras
            )));
        }
        for (j, p) in fleet.iter().enumerate() {
            p.validate()
                .map_err(|e| EecsError::InvalidArgument(format!("fleet profile {j}: {e}")))?;
            let (w, h) = (self.config.profile.width, self.config.profile.height);
            if !p.supports_resolution(w, h) {
                return Err(EecsError::InvalidArgument(format!(
                    "fleet profile {j} ({}) caps at {}x{}, dataset needs {w}x{h}",
                    p.name, p.max_width, p.max_height
                )));
            }
        }
        let mut sim = self.clone();
        sim.budgets = scaled_budgets(
            self.config.budget_j_per_frame,
            &fleet,
            &self.config.eecs.device,
        )?;
        sim.fleet = fleet;
        Ok(sim)
    }

    /// A copy of this prepared simulation under a deterministic camera
    /// churn schedule: joins, absence windows, permanent departures and
    /// seeded random absences, all evaluated at round boundaries.
    /// [`ChurnPlan::ideal`] keeps the full fleet present every round and
    /// the run bit-identical to pre-churn builds.
    pub fn with_churn(&self, churn: ChurnPlan) -> Simulation {
        let mut sim = self.clone();
        sim.churn = churn;
        sim
    }

    /// The per-camera device profiles this simulation runs with.
    pub fn fleet(&self) -> &[DeviceProfile] {
        &self.fleet
    }

    /// The churn plan this simulation runs under.
    pub fn churn_plan(&self) -> &ChurnPlan {
        &self.churn
    }

    /// A copy of this prepared simulation publishing into `telemetry`.
    /// The simulation loop and the controller's config copy share the
    /// handle, so one stream sees the whole run. Attach a *fresh* handle
    /// per run when comparing executions — clones share recorded state.
    pub fn with_telemetry(&self, telemetry: Telemetry) -> Simulation {
        let mut sim = self.clone();
        sim.config.eecs.telemetry = telemetry.clone();
        sim.controller.set_telemetry(telemetry);
        sim
    }

    /// The trained per-camera records, in matched order (record `matched[j]`
    /// serves camera `j`).
    pub fn record_for_camera(&self, camera: usize) -> &TrainingRecord {
        &self.controller.records()[self.matched[camera]]
    }

    /// The matched training-record index per camera.
    pub fn matched_records(&self) -> &[usize] {
        &self.matched
    }

    /// Runs the configured strategy over the test range.
    ///
    /// Each round runs the phases of [`RoundState`] in a fixed order:
    /// membership → partition → crash failover → probe → assessment →
    /// planning → publication → operation → round record → checkpoint.
    /// The all-best baseline has no controller loop, so it replaces the
    /// partition-to-publication phases with its fixed assignment.
    ///
    /// # Errors
    ///
    /// Propagates selection failures (e.g. infeasible budgets).
    pub fn run(&self) -> Result<SimulationReport> {
        let (frames, impairments) = self.capture()?;
        let mut st = RoundState::new(self, &frames, &impairments);
        // One-time feature upload (Section IV-B.1). Cameras absent at
        // round 0 upload later, when they first join.
        for j in 0..self.config.cameras {
            if !self.churn.enabled() || self.churn.is_member(j, 0) {
                st.upload_features(0, j)?;
            }
        }
        let mut start = 0;
        while start < frames[0].len() {
            let mut round = st.begin_round(start);
            st.membership(round.index)?;
            let plan = if self.config.mode == OperatingMode::AllBest {
                st.plan_all_best()?
            } else {
                st.partition(round.index)?;
                st.crash_failover(round.index)?;
                st.probe(round.index)?;
                let assessment = st.assess(&round)?;
                let plan = st.plan(&mut round, assessment)?;
                st.publish(round.index, &plan)?;
                plan
            };
            st.operate(&mut round)?;
            st.end_round(&round, plan);
            st.checkpoint(round.index);
            st.net.advance_round();
            let _ = st.net.drain_inbox();
            start = round.end;
        }
        Ok(st.finish())
    }

    /// The test range's annotated frames per camera, as the sensors
    /// delivered them, with each frame's impairment.
    ///
    /// Sensor faults corrupt the captured frames before anything reads
    /// them — every consumer downstream (assessment, operation, feature
    /// caches, parallel workers) sees the same degraded pixels, so worker
    /// count cannot change what was "seen". With the ideal plan no pixel
    /// is touched.
    fn capture(&self) -> Result<Capture> {
        let mut frames: Vec<Vec<FrameData>> = self
            .feeds
            .iter()
            .map(|f| f.annotated_frames(self.config.start_frame, self.config.end_frame))
            .collect();
        if frames[0].is_empty() {
            return Err(EecsError::InvalidArgument(
                "no annotated frames in the requested range".into(),
            ));
        }
        let sensor_chaos = self.config.sensor_plan.enabled();
        let impairments = frames
            .iter_mut()
            .enumerate()
            .map(|(j, cam_frames)| {
                cam_frames
                    .iter_mut()
                    .map(|fd| {
                        if sensor_chaos {
                            self.config.sensor_plan.corrupt(j, fd.frame, &mut fd.image)
                        } else {
                            FrameImpairment::clean()
                        }
                    })
                    .collect()
            })
            .collect();
        Ok((frames, impairments))
    }

    /// The all-best baseline assignment: each camera's best
    /// budget-feasible algorithm. Cameras with none are left out.
    fn best_assignment(&self) -> BTreeMap<usize, AlgorithmId> {
        (0..self.config.cameras)
            .filter_map(|j| {
                let best = self
                    .record_for_camera(j)
                    .best_within_budget(&self.budgets[j]);
                best.map(|p| (j, p.algorithm))
            })
            .collect()
    }

    /// Selects a plan for the `live` cameras from `data`, under
    /// re-identification settings fitted to the same data. Returns those
    /// settings with the selection.
    fn select(&self, data: &AssessmentData, live: &[bool]) -> (ReidConfig, Result<Plan>) {
        let reid = self
            .controller
            .reid_config(self.controller.fit_color_metric(data));
        let full = self.config.mode == OperatingMode::FullEecs;
        let selected =
            self.controller
                .select_live(data, &self.matched, &self.budgets, &reid, full, live);
        (reid, selected.map(|o| (o.assignment, o.active)))
    }

    /// Fuses one frame's reports and scores against ground truth. Returns
    /// `(correct, gt_count)`.
    fn score_frame(
        &self,
        reports: &[CameraReport],
        frames: &[Vec<FrameData>],
        f: usize,
        reid: &ReidConfig,
    ) -> (usize, usize) {
        let fused = self.controller.fuse(reports, reid);
        // Ground truth: every person visible (≥ visibility floor) in at
        // least one camera, counted once.
        let mut gt_positions: BTreeMap<usize, eecs_geometry::point::Point2> = BTreeMap::new();
        for cam_frames in frames {
            for g in &cam_frames[f].gt {
                if g.visibility >= self.config.eecs.eval.min_visibility {
                    gt_positions.entry(g.human_id).or_insert(g.ground);
                }
            }
        }
        let positions: Vec<_> = gt_positions.values().copied().collect();
        let correct = crate::accuracy::count_correct(&fused, &positions, GT_MATCH_GATE_M);
        (correct, positions.len())
    }
}

/// Each camera's annotated frames, and what the sensor did to each.
type Capture = (Vec<Vec<FrameData>>, Vec<Vec<FrameImpairment>>);

/// A round's plan: the algorithm per assigned camera, and the active
/// cameras.
type Plan = (BTreeMap<usize, AlgorithmId>, Vec<usize>);

/// One round's frame span and running detection tally.
struct Round {
    index: usize,
    /// First annotated frame of the round.
    start: usize,
    /// First operation frame, which ends the assessment span. Equals
    /// `start` under the all-best baseline, which never assesses.
    op_start: usize,
    /// One past the round's last annotated frame.
    end: usize,
    /// Fleet energy spent before the round began (J).
    energy_before: f64,
    /// Correctly detected humans so far this round.
    correct: usize,
    /// Ground-truth humans so far this round.
    gt: usize,
}

/// What one round's fresh assessment produced, per camera.
struct Assessment {
    /// Reports per feasible algorithm, one per assessment frame; frames
    /// that were dropped, or whose upload did not arrive, hold an empty
    /// placeholder.
    fresh: Vec<CameraAssessment>,
    /// The camera tried to upload something this round.
    attempted: Vec<bool>,
    /// At least one upload arrived within the round.
    delivered: Vec<bool>,
}

/// The mutable state of one run, threaded through the round phases of
/// [`Simulation::run`]. Every telemetry publish goes through `tel`; with
/// the default null sink each call is one branch and nothing else,
/// keeping the run bit-identical to a build without the telemetry layer.
/// All emission sites sit on the serial effect-replay path, so the stream
/// is also bit-identical across [`Parallelism`] settings.
struct RoundState<'a> {
    sim: &'a Simulation,
    tel: &'a Telemetry,
    frames: &'a [Vec<FrameData>],
    impairments: &'a [Vec<FrameImpairment>],
    nodes: Vec<CameraNode>,
    /// The transport every flow goes through. With the ideal plan every
    /// reliable send costs exactly one idealized attempt, so the energy
    /// accounting matches the raw byte math. Each endpoint radios at its
    /// own profile's rates (all identical under a uniform fleet).
    net: Network,
    /// Live controller seats, each owning a quarantine ledger (tracking
    /// (camera, algorithm) pairs whose detector output failed the health
    /// checks) and an assessment cache. `seats[0]` is the official seat —
    /// the mains hub, or its crash-failover replacement; partitions can
    /// temporarily add acting island controllers. Everything stays inert
    /// — and the run bit-identical to pre-chaos — under ideal plans.
    seats: Vec<SeatState>,
    /// The seat each camera currently reports to.
    route: Vec<usize>,
    /// The highest handover epoch each camera has accepted.
    fenced: Vec<u64>,
    /// Rounds each camera's island has gone without a seat.
    orphan_age: Vec<usize>,
    /// Whether the previous round was partitioned, and into how many
    /// islands.
    was_partitioned: bool,
    prev_islands: usize,
    /// Fleet membership as of the current round. It mirrors the churn
    /// plan one round at a time so each transition fires its join/leave
    /// work exactly once; without churn every camera stays a member.
    members: Vec<bool>,
    /// Cameras that have made their one-time feature upload.
    uploaded: Vec<bool>,
    fleet_view: FleetView,
    /// Generation-chained, checksummed checkpoint storage. Generation 1
    /// is the empty initial state, so a crash before the first round-end
    /// snapshot still has something verified to restore.
    checkpoint_store: CheckpointStore,
    /// Re-identification settings of the latest plan, used for fusion.
    reid: ReidConfig,
    /// The report under construction: rounds and run counters
    /// accumulate here.
    report: SimulationReport,
}

impl<'a> RoundState<'a> {
    fn new(
        sim: &'a Simulation,
        frames: &'a [Vec<FrameData>],
        impairments: &'a [Vec<FrameImpairment>],
    ) -> RoundState<'a> {
        let cams = sim.config.cameras;
        let tel = &sim.config.eecs.telemetry;
        let all = || impairments.iter().flatten();
        let degraded_frames = all().filter(|i| i.degraded() && !i.dropped).count();
        let dropped_frames = all().filter(|i| i.dropped).count();
        tel.counter_add("sensor.degraded_frames", degraded_frames as u64);
        tel.counter_add("sensor.dropped_frames", dropped_frames as u64);

        let nodes = (0..cams)
            .map(|j| {
                CameraNode::new(
                    j,
                    sim.bank.clone(),
                    BatteryState::new(sim.fleet[j].battery_capacity_j).expect("positive capacity"),
                    sim.budgets[j],
                )
            })
            .collect();
        let net = Network::with_nodes(
            (0..cams)
                .map(|j| (sim.config.eecs.link, sim.fleet[j].device))
                .collect(),
        )
        .with_fault_plan(sim.config.fault_plan.clone())
        .with_retry_policy(sim.config.eecs.retry);
        let mut checkpoint_store = CheckpointStore::new(sim.checkpoint_faults);
        checkpoint_store.commit(&SimulationCheckpoint::initial(cams).to_json());
        RoundState {
            sim,
            tel,
            frames,
            impairments,
            nodes,
            net,
            seats: vec![SeatState::hub(cams)],
            route: vec![0; cams],
            fenced: vec![0; cams],
            orphan_age: vec![0; cams],
            was_partitioned: false,
            prev_islands: 1,
            members: vec![true; cams],
            uploaded: vec![false; cams],
            fleet_view: FleetView::new(cams),
            checkpoint_store,
            reid: sim.controller.reid_config(None),
            report: SimulationReport {
                mode: sim.config.mode,
                rounds: Vec::new(),
                total_energy_j: 0.0,
                correctly_detected: 0,
                gt_objects: 0,
                per_camera_energy: Vec::new(),
                transport: Vec::new(),
                downlink: TransportStats::default(),
                failovers: Vec::new(),
                degraded_frames,
                dropped_frames,
                quarantine_strikes: 0,
                partitions: 0,
                elections: 0,
                reconciliations: 0,
                split_brain_rounds: 0,
                corrupted_frames: 0,
                checkpoint_rollbacks: 0,
                camera_joins: 0,
                camera_leaves: 0,
            },
        }
    }

    fn cams(&self) -> usize {
        self.sim.config.cameras
    }

    /// Whether camera `j`'s sensor dropped frame `f` entirely.
    fn dropped(&self, j: usize, f: usize) -> bool {
        self.impairments[j][f].dropped
    }

    /// Energy each camera has spent so far (J).
    fn spent(&self) -> Vec<f64> {
        self.nodes.iter().map(|c| c.meter().total()).collect()
    }

    /// Energy the whole fleet has spent so far (J).
    fn fleet_energy(&self) -> f64 {
        self.nodes.iter().map(|c| c.meter().total()).sum()
    }

    /// Opens the round whose first annotated frame is `start`. The round
    /// index is the number of rounds already recorded.
    fn begin_round(&mut self, start: usize) -> Round {
        let cfg = &self.sim.config;
        let per_round = (cfg.eecs.recalibration_interval / cfg.profile.gt_interval).max(1);
        let assess_len = (cfg.eecs.assessment_period / cfg.profile.gt_interval).clamp(1, per_round);
        let end = (start + per_round).min(self.frames[0].len());
        let op_start = match cfg.mode {
            OperatingMode::AllBest => start,
            _ => (start + assess_len).min(end),
        };
        let index = self.report.rounds.len();
        let energy_before = self.fleet_energy();
        self.tel.event(|| TraceEvent::RoundStart {
            round: index,
            first_frame: self.frames[0][start].frame,
        });
        Round {
            index,
            start,
            op_start,
            end,
            energy_before,
            correct: 0,
            gt: 0,
        }
    }

    /// Sends camera `j`'s `message` to the seat at `seat` and observes
    /// the delivery. `None` targets the hub, `Some(s)` camera `s`; a
    /// camera that *holds* the seat it reports to (post-failover or as an
    /// acting island controller) never touches the radio, and its own
    /// traffic costs nothing.
    fn send_to(
        &mut self,
        round: usize,
        j: usize,
        seat: Option<usize>,
        message: Message,
    ) -> Result<Delivery> {
        let (battery, meter) = self.nodes[j].radio_mut();
        let d = match seat {
            Some(s) if s == j => Ok(Delivery::loopback()),
            Some(s) => self
                .net
                .send_reliable_to(j, Endpoint::Camera(s), message, battery, meter),
            None => self.net.send_reliable(j, message, battery, meter),
        }
        .map_err(EecsError::from)?;
        self.tel.observe_delivery(round, j, &d);
        Ok(d)
    }

    /// Sends camera `j`'s `message` to the seat it is routed to.
    fn send_up(&mut self, round: usize, j: usize, message: Message) -> Result<Delivery> {
        self.send_to(round, j, self.seats[self.route[j]].location, message)
    }

    /// Camera `j`'s one-time feature upload (Section IV-B.1).
    fn upload_features(&mut self, round: usize, j: usize) -> Result<()> {
        self.uploaded[j] = true;
        let msg = Message::FeatureUpload {
            frames: self.sim.config.eecs.key_frames,
            feature_dim: self.sim.controller.records()[0].video.feature_dim(),
        };
        self.send_up(round, j, msg)?;
        Ok(())
    }

    /// One energy-report probe from camera `j` to its seat. A probe
    /// heard within the round marks the camera heard.
    fn probe_camera(&mut self, round: usize, j: usize) -> Result<()> {
        let d = self.send_up(round, j, Message::EnergyReport)?;
        let heard = d.delivered && d.delayed_rounds == 0;
        self.tel.event(|| TraceEvent::Probe {
            round,
            camera: j,
            delivered: heard,
        });
        if heard {
            self.seats[self.route[j]].cache.mark_heard(j, round);
        }
        Ok(())
    }

    /// Camera `j` reports a dropped frame: the sensor produced nothing,
    /// so a tiny `DegradedFrame` message goes up instead of detections.
    fn report_gap(&mut self, round: usize, j: usize) -> Result<Delivery> {
        let d = self.send_up(round, j, Message::DegradedFrame)?;
        self.tel.counter_add("sensor.gap_reports", 1);
        Ok(d)
    }

    /// The camera side of one detection by `alg` on frame `f` of camera
    /// `j`: health-checks `output`, charges its processing energy, and
    /// publishes the execution. An unhealthy output (NaNs, absurd counts)
    /// must not poison fusion: its energy is already spent, but the
    /// returned report is empty. Returns the report and whether the
    /// output was healthy.
    fn ingest(
        &mut self,
        round: usize,
        j: usize,
        f: usize,
        alg: AlgorithmId,
        output: DetectionOutput,
    ) -> Result<(CameraReport, bool)> {
        let (sim, frames) = (self.sim, self.frames);
        let fd = &frames[j][f];
        let profile = sim
            .record_for_camera(j)
            .profile(alg)
            .expect("feasible or assigned ⇒ profiled");
        let ops = output.ops;
        let health = DetectorHealth::check(alg, &output, &sim.config.eecs.health);
        let healthy = health.is_healthy();
        let mut report =
            self.nodes[j].ingest_detection(&fd.image, output, profile, &sim.fleet[j].device)?;
        if !healthy {
            report = CameraReport::default();
        }
        publish_detection(self.tel, round, j, fd.frame, &health, ops, report.len());
        Ok((report, healthy))
    }

    /// Records a detector-health strike against `(j, alg)` on camera
    /// `j`'s seat, quarantining the pair or extending its quarantine.
    fn strike(&mut self, round: usize, j: usize, alg: AlgorithmId) {
        let st = &mut self.seats[self.route[j]];
        let policy = &self.sim.config.eecs.quarantine;
        st.quarantine.report_unhealthy(j, alg, round, policy);
        self.report.quarantine_strikes += 1;
        self.tel.counter_add("quarantine.strikes", 1);
        let strikes = st.quarantine.strikes(j, alg);
        self.tel.event(|| TraceEvent::QuarantineStrike {
            round,
            camera: j,
            algorithm: alg,
            strikes,
        });
    }

    /// Fleet churn: diffs the plan's membership against last round's at
    /// the round boundary. Departures drain every index-keyed route to
    /// the camera (quarantine entries, sticky assignments, the radio
    /// endpoint); joins admit the newcomer through an incremental probe
    /// instead of a full fleet reassessment. Membership is a pure
    /// function of `(plan, camera, round)` — no shared RNG state — so an
    /// ideal plan consumes zero rolls and this phase does nothing.
    fn membership(&mut self, round: usize) -> Result<()> {
        let (sim, tel) = (self.sim, self.tel);
        if !sim.churn.enabled() {
            return Ok(());
        }
        let mut joined_now: Vec<usize> = Vec::new();
        for j in 0..self.cams() {
            let mut present = sim.churn.is_member(j, round);
            // Deferred leave: an acting controller cannot vanish without
            // a handover, so a seat-holding camera stays until the seat
            // moves off it (or the plan readmits it).
            if !present && self.members[j] && self.seats.iter().any(|st| st.location == Some(j)) {
                present = true;
            }
            if present == self.members[j] {
                continue;
            }
            self.members[j] = present;
            if present {
                self.report.camera_joins += 1;
                tel.counter_add("churn.joins", 1);
                tel.event(|| TraceEvent::CameraJoin { round, camera: j });
                self.net.set_attached(j, true).map_err(EecsError::from)?;
                // A rejoin restores identity, not stale state: cached
                // assessments past the staleness bound are evicted so
                // planning never trusts a scene the camera stopped
                // watching.
                for st in self.seats.iter_mut() {
                    if st
                        .cache
                        .evict_stale(j, round, sim.config.eecs.staleness_limit_rounds)
                    {
                        tel.counter_add("churn.cache_evictions", 1);
                    }
                }
                self.fleet_view.spawn(j);
                joined_now.push(j);
            } else {
                self.report.camera_leaves += 1;
                tel.counter_add("churn.leaves", 1);
                tel.event(|| TraceEvent::CameraLeave { round, camera: j });
                self.net.set_attached(j, false).map_err(EecsError::from)?;
                for st in self.seats.iter_mut() {
                    let purged = st.quarantine.purge_camera(j);
                    if purged > 0 {
                        tel.counter_add("churn.quarantine_purged", purged as u64);
                    }
                    st.last_plan.0.remove(&j);
                    st.last_plan.1.retain(|&x| x != j);
                }
                self.nodes[j].set_assignment(None);
                self.fleet_view.despawn(j);
            }
        }
        tel.gauge_set("fleet.size", self.fleet_view.active_count() as f64);
        // A newcomer introduces itself: the one-time feature upload
        // (first join only), then one incremental assessment probe — the
        // controller learns about the newcomer without re-probing the
        // standing fleet.
        for j in joined_now {
            if !self.uploaded[j] {
                self.upload_features(round, j)?;
            }
            self.probe_camera(round, j)?;
        }
        Ok(())
    }

    /// The all-best baseline's plan. It has no controller loop: the
    /// assignment is applied by fiat, not over the network.
    fn plan_all_best(&mut self) -> Result<Plan> {
        let mut assignment = self.sim.best_assignment();
        if assignment.is_empty() {
            return Err(EecsError::Infeasible(
                "no budget-feasible algorithm on any camera".into(),
            ));
        }
        assignment.retain(|&j, _| self.members[j]);
        for (j, node) in self.nodes.iter_mut().enumerate() {
            node.set_assignment(assignment.get(&j).copied());
        }
        let active = assignment.keys().copied().collect();
        Ok((assignment, active))
    }

    /// The partition control plane, a pure function of the round number:
    /// island layout, heal-time reconciliation, camera → seat routing and
    /// orphan elections. Does nothing (and `route` stays all-zero)
    /// without a partition plan.
    fn partition(&mut self, round: usize) -> Result<()> {
        let (sim, tel) = (self.sim, self.tel);
        let partition = sim.config.fault_plan.partition();
        if !partition.enabled() {
            return Ok(());
        }
        let island = partition_islands(partition, self.cams(), round);
        let n_islands = island.iter().collect::<BTreeSet<_>>().len();
        let now_partitioned = partition.is_partitioned(round);
        if now_partitioned && !self.was_partitioned {
            self.report.partitions += 1;
            tel.counter_add("partition.starts", 1);
            tel.event(|| TraceEvent::PartitionStart {
                round,
                islands: n_islands,
            });
        } else if !now_partitioned && self.was_partitioned {
            tel.counter_add("partition.heals", 1);
            tel.event(|| TraceEvent::PartitionHeal {
                round,
                islands: self.prev_islands,
            });
        }
        self.was_partitioned = now_partitioned;
        self.prev_islands = n_islands;
        tel.gauge_set("partition.islands", n_islands as f64);

        self.heal(round, &island);
        // Route every camera to the seat sharing its island; cameras on
        // seatless islands fall back to the official seat (their sends
        // die at the radio, which is exactly the probe-burn that starts
        // an election clock).
        for (j, route) in self.route.iter_mut().enumerate() {
            *route = self
                .seats
                .iter()
                .position(|st| island_of(&island, st.location) == island[j])
                .unwrap_or(0);
        }
        self.elect_orphans(round, &island)
    }

    /// Heal: seats that can see each other again merge into one via the
    /// commutative/associative reconcile join — the merged state is the
    /// same whichever side heals first.
    fn heal(&mut self, round: usize, island: &[usize]) {
        // Seats grouped by island, in order of each group's first seat.
        let mut groups: Vec<(usize, Vec<SeatState>)> = Vec::new();
        for st in self.seats.drain(..) {
            let i = island_of(island, st.location);
            match groups.iter_mut().find(|(gi, _)| *gi == i) {
                Some((_, group)) => group.push(st),
                None => groups.push((i, vec![st])),
            }
        }
        let cams = self.cams();
        for (_, mut group) in groups {
            if group.len() == 1 {
                self.seats.extend(group.pop());
                continue;
            }
            let mut snap = group[0].snapshot(cams, &self.members);
            for st in &group[1..] {
                snap = reconcile(&snap, &st.snapshot(cams, &self.members));
            }
            self.report.reconciliations += 1;
            self.tel.counter_add("reconcile.count", 1);
            let (epoch, demoted) = (snap.epoch, group.len() - 1);
            self.tel.event(|| TraceEvent::Reconcile {
                round,
                epoch,
                demoted,
            });
            self.seats.push(SeatState::from_snapshot(&snap, cams));
        }
    }

    /// Orphan elections: an island that has lost sight of every seat for
    /// `election_timeout_rounds` rounds elects its least-drained member
    /// as an acting controller at a fenced, strictly higher epoch than
    /// any member has seen.
    fn elect_orphans(&mut self, round: usize, island: &[usize]) -> Result<()> {
        let timeout = self.sim.config.eecs.partition.election_timeout_rounds;
        let mut orphans: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for j in 0..self.cams() {
            if self
                .seats
                .iter()
                .any(|st| island_of(island, st.location) == island[j])
            {
                self.orphan_age[j] = 0;
            } else {
                self.orphan_age[j] += 1;
                orphans.entry(island[j]).or_default().push(j);
            }
        }
        for orphaned in orphans.into_values() {
            let ripe = orphaned
                .iter()
                .map(|&j| self.orphan_age[j])
                .max()
                .unwrap_or(0)
                >= timeout;
            if !ripe {
                continue;
            }
            let candidates = orphaned.iter().copied();
            let Some(new_seat) = least_drained(&self.net, &self.spent(), candidates, None) else {
                continue;
            };
            let floor = orphaned.iter().map(|&j| self.fenced[j]).max().unwrap_or(0);
            let (seat, announced) = self.take_seat(round, new_seat, floor, &orphaned)?;
            let epoch = seat.epoch;
            self.report.elections += 1;
            self.tel.counter_add("election.count", 1);
            self.tel.event(|| TraceEvent::Election {
                round,
                elected: new_seat,
                epoch,
                announced,
            });
            let k = self.seats.len();
            self.seats.push(seat);
            for &j in &orphaned {
                self.route[j] = k;
                self.orphan_age[j] = 0;
            }
        }
        Ok(())
    }

    /// Controller crash: the hub (or the camera currently holding the
    /// seat) goes dark at the start of this round. Every survivor burns
    /// one failed probe discovering the silence, then the least-drained
    /// survivor takes the seat and restores the last checkpoint — within
    /// this same round it is planning again.
    fn crash_failover(&mut self, round: usize) -> Result<()> {
        let sim = self.sim;
        let plan = &sim.config.controller_plan;
        if !plan.enabled() || !plan.crash_starts(round) {
            return Ok(());
        }
        self.net.set_controller_down(true);
        let failed_seat = self.seats[0].location;
        self.seats[0].location = None;
        let cams = self.cams();
        for j in 0..cams {
            if !self.net.is_camera_down(j) && failed_seat != Some(j) {
                self.send_to(round, j, None, Message::EnergyReport)?;
            }
        }
        // With no survivor the hub stays dark: every send from here on
        // times out and the run degrades gracefully instead of aborting.
        let Some(new_seat) = least_drained(&self.net, &self.spent(), 0..cams, failed_seat) else {
            return Ok(());
        };
        self.net.set_controller_down(false);
        let peers: Vec<usize> = (0..cams).collect();
        let (seat, announced) = self.take_seat(round, new_seat, 0, &peers)?;
        let checkpoint_round = seat.plan_round;
        self.seats[0] = seat;
        self.report.failovers.push(FailoverEvent {
            round,
            elected: new_seat,
            checkpoint_round,
            announced,
        });
        self.tel.counter_add("failover.count", 1);
        self.tel.event(|| TraceEvent::Failover {
            round,
            elected: new_seat,
            checkpoint_round,
            announced,
        });
        Ok(())
    }

    /// Seats camera `new_seat` as a controller. It restores the newest
    /// checkpoint generation that verifies (skipped generations count as
    /// rollbacks), takes the seat at epoch `max(floor, checkpoint
    /// epoch) + 1`, and announces the handover to each live peer over
    /// its own radio; a peer adopts the epoch only under
    /// [`accepts_handover`]. Returns the seat (its `plan_round` is the
    /// restored checkpoint's round) and how many peers accepted.
    fn take_seat(
        &mut self,
        round: usize,
        new_seat: usize,
        floor: u64,
        peers: &[usize],
    ) -> Result<(SeatState, usize)> {
        let restored = self
            .checkpoint_store
            .restore()
            .map_err(|e| EecsError::Subsystem(format!("checkpoint restore: {e}")))?;
        if restored.rolled_back > 0 {
            self.report.checkpoint_rollbacks += restored.rolled_back;
            self.tel
                .counter_add("checkpoint.rollbacks", restored.rolled_back);
            self.tel.event(|| TraceEvent::CheckpointRollback {
                round,
                generation: restored.generation,
                rolled_back: restored.rolled_back,
            });
        }
        let ckpt = SimulationCheckpoint::from_json(&restored.payload)
            .map_err(|m| EecsError::Subsystem(format!("checkpoint restore: {m}")))?;
        let epoch = floor.max(ckpt.epoch) + 1;
        let seat = SeatState::from_snapshot(
            &SeatSnapshot {
                epoch,
                seat: Some(new_seat),
                plan_round: ckpt.round,
                assignment: ckpt.assignment,
                active: ckpt.active,
                cache: ckpt.cache,
                quarantine: ckpt.quarantine,
                members: ckpt.members,
            },
            self.cams(),
        );
        let max_skew = self.sim.config.eecs.partition.max_epoch_skew;
        let mut announced = 0usize;
        for &peer in peers {
            if peer == new_seat || self.net.is_camera_down(peer) {
                continue;
            }
            let msg = Message::ControllerHandover {
                controller: new_seat,
                epoch,
            };
            let (battery, meter) = self.nodes[new_seat].radio_mut();
            let d = self
                .net
                .send_peer(new_seat, peer, msg, battery, meter)
                .map_err(EecsError::from)?;
            self.tel.observe_delivery(round, new_seat, &d);
            if d.delivered && accepts_handover(self.fenced[peer], epoch, max_skew) {
                self.fenced[peer] = epoch;
                announced += 1;
            }
        }
        self.fenced[new_seat] = self.fenced[new_seat].max(epoch);
        Ok((seat, announced))
    }

    /// Liveness probe: lets the controller tell a silent-but-alive
    /// camera from a dead one. On an ideal network silence is impossible,
    /// so the probe (and its energy) is elided and the idealized
    /// accounting is unchanged.
    ///
    /// A quarantine re-probe that comes due in a round its camera is
    /// unreachable would burn silently: the backoff window closes, no
    /// detector gets to prove itself, and the next health failure
    /// escalates as if a real probe had failed. Those re-probes are
    /// deferred to the next round instead.
    fn probe(&mut self, round: usize) -> Result<()> {
        let sim = self.sim;
        let plan = &sim.config.fault_plan;
        let chaos = plan.enabled();
        if chaos
            || self.net.controller_down()
            || self.seats.len() > 1
            || self.seats[0].location.is_some()
        {
            for j in 0..self.cams() {
                // A departed camera is not silent — it is gone: no probe,
                // no phantom Probe event.
                if self.members[j] {
                    self.probe_camera(round, j)?;
                }
            }
        }
        if !chaos {
            return Ok(());
        }
        for j in 0..self.cams() {
            if !self.members[j] {
                continue;
            }
            let target = match self.seats[self.route[j]].location {
                Some(s) if s == j => continue,
                Some(s) => Endpoint::Camera(s),
                None => Endpoint::Hub,
            };
            let unreachable = self.net.is_camera_down(j)
                || plan.is_outage(j, round)
                || !plan
                    .partition()
                    .can_reach(Endpoint::Camera(j), target, round);
            if unreachable {
                let deferred = self.seats[self.route[j]].quarantine.defer_probes(j, round);
                if deferred > 0 {
                    self.tel.counter_add("quarantine.deferred", deferred as u64);
                }
            }
        }
        Ok(())
    }

    /// Fresh assessment: every feasible algorithm on every reachable
    /// camera, each report uploaded through the transport. Only what
    /// actually arrives this round reaches the controller; a lost upload
    /// leaves an empty placeholder (the header timestamps tell the
    /// controller a frame happened, not what it held).
    ///
    /// The detection work is pure (camera state is only touched by
    /// ingestion and the sends), and both the crash schedule and the
    /// feasible sets are constant within a round, so the per-(camera,
    /// frame) tasks are enumerated up front, fanned over the worker pool,
    /// and consumed serially in exactly the order a serial loop would run
    /// them — keeping battery drains, op counters and transport
    /// interactions bit-identical.
    fn assess(&mut self, round: &Round) -> Result<Assessment> {
        let (sim, frames) = (self.sim, self.frames);
        let (r, cams) = (round.index, self.cams());
        let span = round.start..round.op_start;
        let feasible_by_cam: Vec<Vec<AlgorithmId>> = (0..cams)
            .map(|j| {
                if self.net.is_camera_down(j) {
                    return Vec::new();
                }
                let quarantine = &self.seats[self.route[j]].quarantine;
                sim.record_for_camera(j)
                    .feasible_ranked(&sim.budgets[j])
                    .iter()
                    .map(|p| p.algorithm)
                    // Quarantined detectors sit out their backoff;
                    // `allows` turns true again at the re-probe round.
                    .filter(|&alg| quarantine.allows(j, alg, r))
                    .collect()
            })
            .collect();
        // Frames each camera's sensor actually produced — dropped frames
        // run no detector at all. Each task runs all of one camera's
        // feasible algorithms on one frame, sharing that frame's feature
        // cache across them when enabled.
        let mut task_of: Vec<(usize, usize)> = Vec::new();
        let mut cam_task_start = vec![usize::MAX; cams];
        for (j, feasible) in feasible_by_cam.iter().enumerate() {
            if !feasible.is_empty() {
                cam_task_start[j] = task_of.len();
                task_of.extend(
                    span.clone()
                        .filter(|&f| !self.dropped(j, f))
                        .map(|f| (j, f)),
                );
            }
        }
        let (bank, par) = (&sim.bank, sim.config.parallel);
        let outputs = crate::par::par_map_indexed(task_of.len(), par.workers, |t| {
            let (j, f) = task_of[t];
            bank.run_algorithms(&feasible_by_cam[j], &frames[j][f].image, par.feature_cache)
        });

        let mut fresh: Vec<CameraAssessment> = vec![BTreeMap::new(); cams];
        let mut attempted = vec![false; cams];
        let mut delivered = vec![false; cams];
        for j in 0..cams {
            if feasible_by_cam[j].is_empty() {
                continue;
            }
            for f in span.clone() {
                if self.dropped(j, f) {
                    attempted[j] = true;
                    let d = self.report_gap(r, j)?;
                    if d.delivered && d.delayed_rounds == 0 {
                        self.seats[self.route[j]].cache.mark_heard(j, r);
                    }
                }
            }
            for (ai, &alg) in feasible_by_cam[j].iter().enumerate() {
                let mut task = cam_task_start[j];
                let mut series = Vec::new();
                for f in span.clone() {
                    if self.dropped(j, f) {
                        series.push(CameraReport::default());
                        continue;
                    }
                    let output = outputs[task][ai].clone();
                    task += 1;
                    let (report, healthy) = self.ingest(r, j, f, alg, output)?;
                    attempted[j] = true;
                    let msg = Message::DetectionMetadata {
                        objects: report.len(),
                    };
                    let d = self.send_up(r, j, msg)?;
                    if !(d.delivered && d.delayed_rounds == 0) {
                        series.push(CameraReport::default());
                        continue;
                    }
                    delivered[j] = true;
                    let st = &mut self.seats[self.route[j]];
                    st.cache.mark_heard(j, r);
                    if healthy {
                        st.quarantine.report_healthy(j, alg);
                    } else {
                        self.strike(r, j, alg);
                    }
                    series.push(report);
                }
                fresh[j].insert(alg, series);
            }
        }
        Ok(Assessment {
            fresh,
            attempted,
            delivered,
        })
    }

    /// Graceful degradation: what the planner sees of each camera. Fresh
    /// data where it arrived, cached data (within the staleness cap) for
    /// cameras that are alive but unheard, exclusion for the rest.
    /// Returns the planning data and which cameras are live.
    fn planning_view(&self, round: usize, a: &Assessment) -> (AssessmentData, Vec<bool>) {
        let staleness = self.sim.config.eecs.staleness_limit_rounds;
        let (reports, live) = (0..self.cams())
            .map(|j| {
                // A departed camera contributes nothing to planning — not
                // even the "no feasible algorithm" liveness fallback.
                if !self.members[j] {
                    return (BTreeMap::new(), false);
                }
                if a.delivered[j] {
                    return (a.fresh[j].clone(), true);
                }
                if self.net.is_camera_down(j) || a.attempted[j] {
                    // Silent this round: crashed, or every upload was
                    // lost. Reuse the last-known assessment if the camera
                    // is still heard and the data is not too stale;
                    // otherwise exclude it.
                    let cache = &self.seats[self.route[j]].cache;
                    return match cache.usable(j, round, staleness) {
                        Some(cached) if cache.heard_in(j, round) => (cached.clone(), true),
                        _ => (BTreeMap::new(), false),
                    };
                }
                // Nothing feasible to send — a budget condition, not a
                // network one: keep the camera's real budget in play so
                // selection treats it exactly as the idealized model did.
                (BTreeMap::new(), true)
            })
            .unzip();
        (AssessmentData { reports }, live)
    }

    /// Selection: the round's plan from the assessment. Also scores the
    /// assessment frames (with the all-best reports that arrived) and
    /// records the delivered assessments in each camera's seat cache.
    fn plan(&mut self, round: &mut Round, a: Assessment) -> Result<Plan> {
        let sim = self.sim;
        let r = round.index;
        let (data, live) = self.planning_view(r, &a);
        let split = self.seats.len() > 1;
        let selected = if split {
            Some(self.plan_split(r, &data, &live)?)
        } else if live.iter().any(|&l| l) {
            let (reid, selected) = sim.select(&data, &live);
            self.reid = reid;
            Some(selected?)
        } else {
            // Every camera silent: nothing to plan with.
            None
        };

        let best = sim.best_assignment();
        for (fi, f) in (round.start..round.op_start).enumerate() {
            let reports: Vec<CameraReport> = best
                .iter()
                .filter_map(|(&j, alg)| a.fresh[j].get(alg).and_then(|v| v.get(fi)).cloned())
                .collect();
            let (c, g) = sim.score_frame(&reports, self.frames, f, &self.reid);
            round.correct += c;
            round.gt += g;
        }
        // Record the delivered assessments by move, now that scoring is
        // done reading them. `record` (delivered cameras) and `usable`
        // (silent cameras) touch disjoint camera sets within a round, and
        // `mark_heard` already fired during the uploads.
        for (j, fresh_j) in a.fresh.into_iter().enumerate() {
            if a.delivered[j] {
                let st = &mut self.seats[self.route[j]];
                st.cache.record(j, r, fresh_j);
                st.slot_epoch[j] = st.epoch;
            }
        }

        let boost = sim.config.boost_every > 0 && (r + 1).is_multiple_of(sim.config.boost_every);
        let plan = match selected {
            // Split-brain plans are already each seat's own.
            Some(plan) if split => plan,
            // Section VII: override the energy-saving choice with the
            // full-accuracy configuration this round.
            Some(_) if boost => {
                self.seats[0].plan_round = r;
                let active = best.keys().copied().collect();
                (best, active)
            }
            Some(plan) => {
                self.seats[0].plan_round = r;
                plan
            }
            // Keep the previous round's assignment (the cameras keep
            // whatever they last heard anyway).
            None => self.seats[0].last_plan.clone(),
        };
        // Whatever produced the plan, it must never name a departed
        // camera: sticky plans and index-keyed caches outlive membership.
        Ok(restrict(plan, |j| self.members[j]))
    }

    /// Split brain: every island seat plans locally against the cameras
    /// it can see, under those cameras' real budgets. The per-island
    /// plans are disjoint (routing partitions the cameras), so their
    /// union is the round's plan. Boost rounds are skipped mid-partition
    /// — no seat can see the whole network anyway.
    fn plan_split(&mut self, r: usize, data: &AssessmentData, live: &[bool]) -> Result<Plan> {
        let (sim, cams) = (self.sim, self.cams());
        self.report.split_brain_rounds += 1;
        self.tel.counter_add("partition.split_brain_rounds", 1);
        let mut merged = BTreeMap::new();
        let mut merged_active: Vec<usize> = Vec::new();
        for (k, seat) in self.seats.iter_mut().enumerate() {
            let seen: Vec<usize> = (0..cams).filter(|&j| self.route[j] == k).collect();
            let mut live_k = vec![false; cams];
            let mut data_k = AssessmentData {
                reports: vec![BTreeMap::new(); cams],
            };
            for &j in &seen {
                live_k[j] = live[j];
                data_k.reports[j] = data.reports[j].clone();
            }
            let plan_k = if live_k.iter().any(|&l| l) {
                let (reid_k, selected) = sim.select(&data_k, &live_k);
                if k == 0 {
                    self.reid = reid_k;
                }
                match selected {
                    Ok(plan) => Some(plan),
                    // An island too small to meet the accuracy target
                    // keeps its standing plan instead of killing the run.
                    Err(EecsError::Infeasible(_)) => None,
                    Err(e) => return Err(e),
                }
            } else {
                None
            };
            let (a_k, act_k) = match plan_k {
                Some(p) => {
                    seat.plan_round = r;
                    p
                }
                None => restrict(seat.last_plan.clone(), |j| seen.contains(&j)),
            };
            seat.last_plan = (a_k.clone(), act_k.clone());
            merged.extend(a_k);
            merged_active.extend(act_k);
        }
        merged_active.sort_unstable();
        merged_active.dedup();
        Ok((merged, merged_active))
    }

    /// Downlink: the new plan must actually reach each camera. A camera
    /// that misses its assignment keeps the previous one (sticky); one
    /// that misses a deactivation keeps burning energy — unreliability
    /// has a price on both ends.
    fn publish(&mut self, round: usize, (assignment, _): &Plan) -> Result<()> {
        for j in 0..self.cams() {
            if !self.members[j] {
                continue;
            }
            let intended = assignment.get(&j).copied();
            let msg = if intended.is_some() {
                Message::AlgorithmAssignment
            } else {
                Message::ActivationCommand
            };
            // A camera-held seat pays for its own downlinks: peer radio
            // sends charged to the seat's battery, a free loopback to
            // itself. The mains hub sends for free.
            let d = match self.seats[self.route[j]].location {
                Some(s) if s == j => Delivery::loopback(),
                Some(s) => {
                    let (battery, meter) = self.nodes[s].radio_mut();
                    self.net
                        .send_peer(s, j, msg, battery, meter)
                        .map_err(EecsError::from)?
                }
                None => self.net.send_downlink(j, msg).map_err(EecsError::from)?,
            };
            self.tel.event(|| TraceEvent::Assignment {
                round,
                camera: j,
                algorithm: intended,
                delivered: d.delivered,
            });
            if d.delivered {
                self.nodes[j].set_assignment(intended);
            }
        }
        Ok(())
    }

    /// Operation: every camera runs what it last heard from the
    /// controller — which under chaos may lag the plan the controller just
    /// computed — and ships metadata plus cropped object images
    /// (Section VI) for fusion.
    ///
    /// Assignments and the crash schedule are fixed for the whole span
    /// (the controller only re-plans at round boundaries), so the
    /// per-(frame, camera) detection tasks are known up front: they run
    /// on the pool, then the loop replays serially for the stateful
    /// effects. One algorithm runs per camera here, so there is nothing
    /// for a feature cache to share.
    fn operate(&mut self, round: &mut Round) -> Result<()> {
        let (sim, frames) = (self.sim, self.frames);
        let (r, cams) = (round.index, self.cams());
        let this = &*self;
        let tasks: Vec<(usize, usize, AlgorithmId)> = (round.op_start..round.end)
            .flat_map(|f| {
                (0..cams).filter_map(move |j| {
                    if this.net.is_camera_down(j) || this.dropped(j, f) {
                        return None;
                    }
                    this.nodes[j].assigned().map(|alg| (f, j, alg))
                })
            })
            .collect();
        let bank = &sim.bank;
        let outputs = crate::par::par_map_indexed(tasks.len(), sim.config.parallel.workers, |t| {
            let (f, j, alg) = tasks[t];
            bank.detector(alg).detect(&frames[j][f].image)
        });
        let mut outputs = tasks.into_iter().zip(outputs);
        for f in round.op_start..round.end {
            let mut reports = Vec::new();
            for j in 0..cams {
                if self.net.is_camera_down(j) {
                    continue;
                }
                let Some(alg) = self.nodes[j].assigned() else {
                    continue;
                };
                if self.dropped(j, f) {
                    self.report_gap(r, j)?;
                    continue;
                }
                let (task, output) = outputs.next().expect("one task per detection");
                debug_assert_eq!(task, (f, j, alg));
                let (report, healthy) = self.ingest(r, j, f, alg, output)?;
                let crop_bytes: u64 = report
                    .objects
                    .iter()
                    .map(|o| (o.bbox.area().max(0.0) * JPEG_BYTES_PER_PIXEL) as u64 + 100)
                    .sum();
                let msg = Message::ObjectDelivery {
                    objects: report.len(),
                    crop_bytes,
                };
                let d = self.send_up(r, j, msg)?;
                if d.delivered && d.delayed_rounds == 0 {
                    if !healthy {
                        self.strike(r, j, alg);
                    }
                    reports.push(report);
                }
            }
            let (c, g) = sim.score_frame(&reports, frames, f, &self.reid);
            round.correct += c;
            round.gt += g;
        }
        Ok(())
    }

    /// Closes the round: records it and publishes its totals. Outside a
    /// split brain the plan also becomes the official seat's sticky
    /// fallback for silent rounds; split-brain rounds set each seat's own
    /// plan during planning instead — the union is no single seat's view.
    fn end_round(&mut self, round: &Round, (assignment, active): Plan) {
        let energy_j = self.fleet_energy() - round.energy_before;
        if self.seats.len() == 1 {
            self.seats[0].last_plan = (assignment.clone(), active.clone());
        }
        self.report.rounds.push(RoundRecord {
            first_frame: self.frames[0][round.start].frame,
            last_frame: self.frames[0][round.end - 1].frame,
            active,
            assignment,
            energy_j,
            correct: round.correct,
            gt: round.gt,
        });
        self.report.correctly_detected += round.correct;
        self.report.gt_objects += round.gt;
        self.tel.counter_add("rounds.completed", 1);
        self.tel
            .histogram_record("round.energy_j", ROUND_ENERGY_BOUNDS, energy_j);
        self.tel.event(|| TraceEvent::RoundEnd {
            round: round.index,
            energy_j,
            correct: round.correct,
            gt: round.gt,
        });
    }

    /// Checkpoints the official seat's volatile state so the next
    /// failover loses at most `checkpoint_every` rounds of it. Every
    /// snapshot goes through real JSON: the restored state is exactly
    /// what a crash would recover.
    fn checkpoint(&mut self, round: usize) {
        let cfg = &self.sim.config;
        let armed = cfg.controller_plan.enabled() || cfg.fault_plan.partition().enabled();
        if !armed || self.net.controller_down() || !round.is_multiple_of(cfg.eecs.checkpoint_every)
        {
            return;
        }
        let snap = self.seats[0].snapshot(self.cams(), &self.members);
        let ckpt = SimulationCheckpoint {
            round,
            epoch: snap.epoch,
            assignment: snap.assignment,
            active: snap.active,
            battery_used_j: self.spent(),
            cache: snap.cache,
            quarantine: snap.quarantine,
            members: snap.members,
            profiles: self.sim.fleet.iter().map(|p| p.name.clone()).collect(),
        };
        self.checkpoint_store.commit(&ckpt.to_json());
        self.tel.counter_add("checkpoint.taken", 1);
        self.tel.event(|| TraceEvent::Checkpoint { round });
    }

    /// Completes the report with the energy and transport totals, after a
    /// final telemetry scrape of the meters and transport statistics
    /// (guarded so the null sink never pays for the metric-name
    /// formatting).
    fn finish(mut self) -> SimulationReport {
        let (tel, cams) = (self.tel, self.cams());
        let transport: Vec<TransportStats> = (0..cams)
            .map(|j| self.net.stats(j).expect("node exists"))
            .collect();
        let downlink = self.net.downlink_stats();
        if tel.enabled() {
            for (j, node) in self.nodes.iter().enumerate() {
                tel.observe_meter(&format!("camera.{j}"), node.meter());
            }
            for (j, stats) in transport.iter().enumerate() {
                tel.observe_transport(&format!("transport.cam{j}"), stats);
            }
            tel.observe_transport("transport.downlink", &downlink);
            tel.gauge_set("run.total_energy_j", self.fleet_energy());
            tel.counter_add("run.correct", self.report.correctly_detected as u64);
            tel.counter_add("run.gt_objects", self.report.gt_objects as u64);
        }
        self.report.corrupted_frames =
            transport.iter().map(|s| s.corrupted).sum::<u64>() + downlink.corrupted;
        self.report.transport = transport;
        self.report.downlink = downlink;
        self.report.total_energy_j = self.fleet_energy();
        self.report.per_camera_energy = self.spent();
        self.report
    }
}

/// Publishes one detector execution: the structured trace event, the
/// per-algorithm run/op counters, per-issue health counters, and the
/// object-count histogram. One branch and out on the null sink — nothing
/// below allocates unless telemetry is recording.
fn publish_detection(
    tel: &Telemetry,
    round: usize,
    camera: usize,
    frame: usize,
    health: &DetectorHealth,
    ops: u64,
    objects: usize,
) {
    if !tel.enabled() {
        return;
    }
    let alg = health.algorithm;
    let healthy = health.is_healthy();
    tel.event(|| TraceEvent::Detection {
        round,
        camera,
        frame,
        algorithm: alg,
        objects,
        healthy,
    });
    tel.counter_add(&format!("detect.runs.{}", alg.name()), 1);
    tel.counter_add(&format!("detect.ops.{}", alg.name()), ops);
    tel.histogram_record("detect.objects", DETECT_OBJECTS_BOUNDS, objects as f64);
    if !healthy {
        tel.counter_add(&format!("health.unhealthy.{}", alg.name()), 1);
        for issue in &health.issues {
            tel.counter_add(&format!("health.issue.{}", issue.kind()), 1);
        }
    }
}

/// One live controller seat: the mains hub, a crash-failover replacement,
/// or an island's acting controller during a partition. Without partition
/// or controller chaos exactly one of these exists for the whole run and
/// it behaves exactly like the pre-partition flat state.
struct SeatState {
    /// Where the seat runs: `None` = the mains hub, `Some(j)` = camera
    /// `j` acting as controller.
    location: Option<usize>,
    /// Fencing epoch. The hub starts at 0; every election announces a
    /// strictly higher epoch, so stale seats are recognizable.
    epoch: u64,
    cache: AssessmentCache,
    /// Epoch under which each camera's cache slot was last written —
    /// reconciliation prefers the (epoch, round)-freshest slot, so an
    /// acting seat's restored-from-checkpoint copies never beat the
    /// entries a fresher seat recorded itself.
    slot_epoch: Vec<u64>,
    quarantine: QuarantineLedger,
    /// Sticky fallback for rounds where every visible camera is silent.
    last_plan: Plan,
    /// Round the seat last computed a fresh plan in.
    plan_round: usize,
}

impl SeatState {
    /// The mains-powered hub seat every run starts with.
    fn hub(cams: usize) -> SeatState {
        SeatState {
            location: None,
            epoch: 0,
            cache: AssessmentCache::new(cams),
            slot_epoch: vec![0; cams],
            quarantine: QuarantineLedger::new(),
            last_plan: Default::default(),
            plan_round: 0,
        }
    }

    /// Everything reconciliation needs to merge this seat with another.
    /// `members` is the fleet membership the seat currently sees — the
    /// snapshot carries the member *indices* so heals union them.
    fn snapshot(&self, cams: usize, members: &[bool]) -> SeatSnapshot {
        let mut cache = SimulationCheckpoint::capture_cache(&self.cache, cams);
        for (slot, &e) in cache.iter_mut().zip(&self.slot_epoch) {
            slot.epoch = e;
        }
        SeatSnapshot {
            epoch: self.epoch,
            seat: self.location,
            plan_round: self.plan_round,
            assignment: self.last_plan.0.clone(),
            active: self.last_plan.1.clone(),
            cache,
            quarantine: self.quarantine.export(),
            members: (0..cams)
                .filter(|&j| members.get(j) == Some(&true))
                .collect(),
        }
    }

    /// Rebuilds a live seat from a snapshot (a reconciliation result, or
    /// a checkpoint recast as one).
    fn from_snapshot(s: &SeatSnapshot, cams: usize) -> SeatState {
        let mut cache = AssessmentCache::new(cams);
        for (j, slot) in s.cache.iter().enumerate().take(cams) {
            cache.restore_entry(j, slot.heard, slot.entry.clone());
        }
        SeatState {
            location: s.seat,
            epoch: s.epoch,
            cache,
            slot_epoch: (0..cams)
                .map(|j| s.cache.get(j).map_or(0, |c| c.epoch))
                .collect(),
            quarantine: QuarantineLedger::from_entries(s.quarantine.clone()),
            last_plan: (s.assignment.clone(), s.active.clone()),
            plan_round: s.plan_round,
        }
    }
}

/// Connected components of the node graph under `plan` at `round`:
/// returns an island id per node, where nodes `0..cams` are the cameras
/// and node `cams` is the hub. Two nodes share an island when they can
/// reach each other in *both* directions (a one-way cut separates its
/// endpoints); components are closed transitively as usual.
fn partition_islands(plan: &PartitionPlan, cams: usize, round: usize) -> Vec<usize> {
    let n = cams + 1;
    let ep = |i: usize| {
        if i == cams {
            Endpoint::Hub
        } else {
            Endpoint::Camera(i)
        }
    };
    let mut id: Vec<usize> = (0..n).collect();
    for a in 0..n {
        for b in a + 1..n {
            if plan.can_reach(ep(a), ep(b), round) && plan.can_reach(ep(b), ep(a), round) {
                let (keep, drop) = (id[a].min(id[b]), id[a].max(id[b]));
                if keep != drop {
                    for x in id.iter_mut() {
                        if *x == drop {
                            *x = keep;
                        }
                    }
                }
            }
        }
    }
    id
}

/// `plan` without the cameras `keep` rejects.
fn restrict((mut assignment, mut active): Plan, keep: impl Fn(usize) -> bool) -> Plan {
    assignment.retain(|&j, _| keep(j));
    active.retain(|&j| keep(j));
    (assignment, active)
}

/// Island of the seat at `seat` in a [`partition_islands`] layout
/// (`None` is the hub, the layout's last node).
fn island_of(island: &[usize], seat: Option<usize>) -> usize {
    island[seat.unwrap_or(island.len() - 1)]
}

/// Epoch fencing: a peer accepts a handover only to an epoch strictly
/// newer than `fence`, the highest it has accepted, and never to one
/// implausibly far — more than `max_skew` — ahead of it.
fn accepts_handover(fence: u64, epoch: u64, max_skew: u64) -> bool {
    epoch > fence && epoch <= fence + max_skew
}

/// The candidate that has spent the least energy so far (`spent`, J per
/// camera), skipping cameras that are down and `failed_seat`. Ties go to
/// the earliest candidate, so ascending candidates break them to the
/// lowest index. Under a heterogeneous fleet this is not the camera with
/// the most battery left: a small battery can run low having spent
/// little.
fn least_drained(
    net: &Network,
    spent: &[f64],
    candidates: impl IntoIterator<Item = usize>,
    failed_seat: Option<usize>,
) -> Option<usize> {
    let mut elected: Option<(usize, f64)> = None;
    for j in candidates {
        if net.is_camera_down(j) || failed_seat == Some(j) {
            continue;
        }
        if elected.is_none_or(|(_, best)| spent[j] < best) {
            elected = Some((j, spent[j]));
        }
    }
    elected.map(|(j, _)| j)
}

/// Per-camera budgets under a fleet: each camera's per-frame allowance is
/// the configured budget divided by its profile's cost scale against the
/// reference device, so a slower class is asked to do proportionally less
/// work. A scale of exactly 1.0 (every uniform or flagship profile) takes
/// the untouched configured value — bit-identical to the homogeneous
/// budget math.
fn scaled_budgets(
    budget_j_per_frame: f64,
    fleet: &[DeviceProfile],
    reference: &eecs_energy::model::DeviceEnergyModel,
) -> Result<Vec<EnergyBudget>> {
    fleet
        .iter()
        .map(|p| {
            let scale = p.cost_scale(reference);
            let b = if scale == 1.0 {
                budget_j_per_frame
            } else {
                budget_j_per_frame / scale
            };
            EnergyBudget::per_frame(b).map_err(EecsError::from)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use eecs_scene::dataset::DatasetId;

    fn sim_config(mode: OperatingMode) -> SimulationConfig {
        let mut profile = DatasetProfile::miniature(DatasetId::Lab);
        profile.num_people = 4;
        // Miniature cadence: gt every 5 frames; assess 2 frames, rounds of
        // 6 annotated frames.
        let eecs = EecsConfig {
            assessment_period: 10,
            recalibration_interval: 30,
            key_frames: 8,
            ..EecsConfig::default()
        };
        SimulationConfig {
            profile,
            cameras: 2,
            start_frame: 40,
            end_frame: 100,
            budget_j_per_frame: 10.0,
            mode,
            eecs,
            feature_words: 12,
            max_training_frames: 8,
            boost_every: 0,
            fault_plan: FaultPlan::ideal(),
            sensor_plan: SensorFaultPlan::ideal(),
            controller_plan: ControllerFaultPlan::none(),
            parallel: Parallelism::default(),
        }
    }

    fn shared_bank() -> DetectorBank {
        DetectorBank::train_quick(42).unwrap()
    }

    #[test]
    fn handover_fencing_accepts_only_strictly_newer_plausible_epochs() {
        let (fence, skew) = (4, 3);
        assert!(!accepts_handover(fence, fence - 1, skew), "stale epoch");
        assert!(!accepts_handover(fence, fence, skew), "replayed epoch");
        assert!(accepts_handover(fence, fence + 1, skew));
        assert!(
            accepts_handover(fence, fence + skew, skew),
            "edge of the skew"
        );
        assert!(
            !accepts_handover(fence, fence + skew + 1, skew),
            "too far ahead"
        );
    }

    #[test]
    fn least_drained_pick_breaks_ties_low_and_skips_down_and_failed_cameras() {
        let eecs = EecsConfig::default();
        let mut net = Network::new(4, eecs.link, eecs.device);
        let spent = [2.0, 1.0, 1.0, 1.0];
        // Cameras 1..=3 tie: the lowest index wins.
        assert_eq!(least_drained(&net, &spent, 0..4, None), Some(1));
        // The failed seat never qualifies, however little it spent.
        assert_eq!(least_drained(&net, &spent, 0..4, Some(1)), Some(2));
        // Neither does a camera that is down.
        net.set_attached(2, false).unwrap();
        assert_eq!(least_drained(&net, &spent, 0..4, Some(1)), Some(3));
        // Only the given candidates are considered.
        assert_eq!(least_drained(&net, &spent, [0, 2], Some(1)), Some(0));
        assert_eq!(least_drained(&net, &spent, [1, 2], Some(1)), None);
    }

    #[test]
    fn all_best_runs_and_accounts_energy() {
        let sim = Simulation::prepare(shared_bank(), sim_config(OperatingMode::AllBest)).unwrap();
        let report = sim.run().unwrap();
        assert!(report.total_energy_j > 0.0);
        assert_eq!(report.per_camera_energy.len(), 2);
        assert!(!report.rounds.is_empty());
        assert!(report.gt_objects > 0);
        let round_sum: f64 = report.rounds.iter().map(|r| r.energy_j).sum();
        // Rounds cover all but the one-time feature upload.
        assert!(round_sum <= report.total_energy_j + 1e-9);
    }

    #[test]
    fn full_eecs_not_more_expensive_than_all_best_operation() {
        let bank = shared_bank();
        // Derive a Fig-5b-style budget from the trained profiles: feasible
        // for the cheapest algorithm only, so assessment is not inflated by
        // algorithms the paper's budget would exclude.
        let probe = Simulation::prepare(bank.clone(), sim_config(OperatingMode::AllBest)).unwrap();
        let cheapest = probe.controller.records()[0]
            .ranked()
            .iter()
            .map(|p| p.energy_per_frame_j)
            .fold(f64::INFINITY, f64::min);
        let budget = cheapest * 1.3;

        let mut all_cfg = sim_config(OperatingMode::AllBest);
        all_cfg.budget_j_per_frame = budget;
        let mut eecs_cfg = sim_config(OperatingMode::FullEecs);
        eecs_cfg.budget_j_per_frame = budget;
        let all = Simulation::prepare(bank.clone(), all_cfg)
            .unwrap()
            .run()
            .unwrap();
        let eecs = Simulation::prepare(bank, eecs_cfg).unwrap().run().unwrap();
        // The paper's headline (Fig 5b): EECS spends no more energy than
        // the all-cameras baseline while keeping most of its detections.
        assert!(eecs.gt_objects > 0);
        assert!(
            eecs.total_energy_j <= all.total_energy_j * 1.05,
            "EECS {} J vs all-best {} J",
            eecs.total_energy_j,
            all.total_energy_j
        );
    }

    #[test]
    fn boost_rounds_restore_full_configuration() {
        // Section VII: with boost_every = 1 every round is a boost round,
        // so full EECS operates exactly like the all-best baseline.
        let mut cfg = sim_config(OperatingMode::FullEecs);
        cfg.boost_every = 1;
        let sim = Simulation::prepare(shared_bank(), cfg).unwrap();
        let report = sim.run().unwrap();
        // Every feasible camera is active in every round.
        for round in &report.rounds {
            assert_eq!(round.active.len(), 2, "boost round dropped a camera");
        }
        // And boosting costs at least as much as un-boosted full EECS.
        let mut cfg2 = sim_config(OperatingMode::FullEecs);
        cfg2.boost_every = 0;
        let plain_report = Simulation::prepare(shared_bank(), cfg2)
            .unwrap()
            .run()
            .unwrap();
        assert!(report.total_energy_j >= plain_report.total_energy_j - 1e-9);
    }

    #[test]
    fn rejects_bad_configs() {
        let mut cfg = sim_config(OperatingMode::AllBest);
        cfg.cameras = 0;
        assert!(Simulation::prepare(shared_bank(), cfg).is_err());
        let mut cfg2 = sim_config(OperatingMode::AllBest);
        cfg2.start_frame = 100;
        cfg2.end_frame = 100;
        assert!(Simulation::prepare(shared_bank(), cfg2).is_err());
    }

    #[test]
    fn infeasible_budget_surfaces() {
        let mut cfg = sim_config(OperatingMode::AllBest);
        cfg.budget_j_per_frame = 1e-9;
        let sim = Simulation::prepare(shared_bank(), cfg).unwrap();
        assert!(matches!(sim.run(), Err(EecsError::Infeasible(_))));
    }

    #[test]
    fn uniform_fleet_and_inert_churn_are_bit_identical() {
        let base = Simulation::prepare(shared_bank(), sim_config(OperatingMode::FullEecs)).unwrap();
        let plain = base.run().unwrap();
        let dressed = base
            .with_fleet(base.fleet().to_vec())
            .unwrap()
            .with_churn(ChurnPlan::ideal())
            .run()
            .unwrap();
        assert_eq!(plain, dressed, "inert fleet/churn must not perturb a run");
    }

    #[test]
    fn heterogeneous_fleet_scales_per_camera_costs() {
        let base = Simulation::prepare(shared_bank(), sim_config(OperatingMode::AllBest)).unwrap();
        let uniform = base.run().unwrap();
        let het = base
            .with_fleet(vec![DeviceProfile::flagship(), DeviceProfile::midrange()])
            .unwrap()
            .run()
            .unwrap();
        // The flagship is the calibrated reference device: its camera is
        // untouched, bit for bit. The midrange camera pays 1.6x per
        // operation, so its meter cannot read the same.
        assert_eq!(het.per_camera_energy[0], uniform.per_camera_energy[0]);
        assert_ne!(het.per_camera_energy[1], uniform.per_camera_energy[1]);
        assert_eq!(het.camera_joins, 0);
        assert_eq!(het.camera_leaves, 0);
    }

    #[test]
    fn with_fleet_rejects_broken_fleets() {
        let base = Simulation::prepare(shared_bank(), sim_config(OperatingMode::AllBest)).unwrap();
        // Wrong arity.
        assert!(base.with_fleet(vec![DeviceProfile::flagship()]).is_err());
        // A sensor too small for the dataset.
        let mut tiny = DeviceProfile::flagship();
        tiny.max_width = 8;
        assert!(base
            .with_fleet(vec![DeviceProfile::flagship(), tiny])
            .is_err());
        // An invalid battery.
        let dead = DeviceProfile::flagship().with_capacity(0.0);
        assert!(base
            .with_fleet(vec![DeviceProfile::flagship(), dead])
            .is_err());
    }

    #[test]
    fn churn_departure_never_dangles_in_plans() {
        // Three rounds; camera 1 leaves for round 1 and rejoins at round 2.
        let mut cfg = sim_config(OperatingMode::FullEecs);
        cfg.end_frame = 130;
        let sim = Simulation::prepare(shared_bank(), cfg).unwrap();
        let plan = ChurnPlan::seeded(5).with_leave(1, 1, 2);
        let report = sim.with_churn(plan.clone()).run().unwrap();
        assert_eq!(report.rounds.len(), 3);
        assert_eq!(report.camera_leaves, 1);
        assert_eq!(report.camera_joins, 1);
        // Regression: sticky fallbacks and index-keyed caches must not
        // keep a departed camera in the round's plan.
        let absent = &report.rounds[1];
        assert!(
            !absent.assignment.contains_key(&1),
            "departed camera still assigned: {:?}",
            absent.assignment
        );
        assert!(
            !absent.active.contains(&1),
            "departed camera still active: {:?}",
            absent.active
        );
        // The same plan replays bit-identically.
        let again = sim.with_churn(plan).run().unwrap();
        assert_eq!(report, again);
    }
}
