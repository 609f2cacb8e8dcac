//! The three workloads: their fixed rigs, their set-up, and the mission
//! lists generated from the workload seed.
//!
//! The rig (dataset, camera count, frame range, bank seed) is fixed per
//! workload, so set-up cost does not depend on the seed. The seed only
//! generates what the program receives as input: per-mission budgets and
//! the seeds of every chaos plan, and for `service_batch` the requests.

use eecs_core::checkpoint::CheckpointFaultPlan;
use eecs_core::config::EecsConfig;
use eecs_core::simulation::{OperatingMode, Parallelism, Simulation, SimulationConfig};
use eecs_detect::bank::DetectorBank;
use eecs_detect::health::HealthPolicy;
use eecs_net::fault::{ChurnPlan, ControllerFaultPlan, CorruptionPlan, FaultPlan, LinkFaults};
use eecs_scene::dataset::{DatasetId, DatasetProfile};
use eecs_scene::sensor_fault::{SensorFaultPlan, SensorImpairments};
use eecs_serve::{MissionRequest, MissionService, MissionSpec, Priority, ServiceConfig};

/// Seed of the quick-trained detector bank every workload uses. Part of
/// the rig, not of the workload input.
pub const BANK_SEED: u64 = 5;

/// Distinct missions per mission workload run, and requests per batch.
const DETECT_MISSIONS: usize = 4;
const CHAOS_MISSIONS: usize = 12;
const SERVICE_BATCHES: usize = 6;
const BATCH_REQUESTS: usize = 12;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Ideal 4-camera missions whose budgets admit C4: detection-bound.
    MissionDetect,
    /// The same rig under every chaos layer, budgets below C4's cost.
    MissionChaos,
    /// Mixed-priority batches of short 2-camera missions through
    /// `MissionService`.
    ServiceBatch,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::MissionDetect,
        Workload::MissionChaos,
        Workload::ServiceBatch,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MissionDetect => "mission_detect",
            Workload::MissionChaos => "mission_chaos",
            Workload::ServiceBatch => "service_batch",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Cameras in the rig.
    pub fn cameras(self) -> usize {
        match self {
            Workload::ServiceBatch => 2,
            _ => 4,
        }
    }

    /// The rig's prepared configuration. `workers` is the per-round
    /// detection fan-out; service missions run serially because the
    /// service parallelizes across missions instead.
    pub fn config(self, workers: usize) -> SimulationConfig {
        let mut profile = DatasetProfile::miniature(DatasetId::Lab);
        profile.num_people = 4;
        let mut eecs = EecsConfig {
            assessment_period: 10,
            recalibration_interval: 30,
            key_frames: 8,
            ..EecsConfig::default()
        };
        if self == Workload::MissionChaos {
            // The lenient default cap (512) never trips on miniature
            // frames. Four people never justify more than 12 raw
            // detections, so under harsh sensors the quarantine layer
            // gets real work.
            eecs.health = HealthPolicy {
                max_detections: 12,
                ..HealthPolicy::lenient()
            };
        }
        let (end_frame, parallel) = match self {
            Workload::ServiceBatch => (70, Parallelism::serial()),
            _ => (
                100,
                Parallelism {
                    workers,
                    feature_cache: true,
                },
            ),
        };
        SimulationConfig {
            profile,
            cameras: self.cameras(),
            start_frame: 40,
            end_frame,
            budget_j_per_frame: 10.0,
            mode: OperatingMode::FullEecs,
            eecs,
            feature_words: 12,
            max_training_frames: 8,
            boost_every: 0,
            fault_plan: FaultPlan::ideal(),
            sensor_plan: SensorFaultPlan::ideal(),
            controller_plan: ControllerFaultPlan::none(),
            parallel,
        }
    }

    /// Annotated camera-frames one mission simulates.
    pub fn camera_frames(self) -> usize {
        let c = self.config(1);
        let per_camera = (c.start_frame..c.end_frame)
            .filter(|f| f % c.profile.gt_interval == 0)
            .count();
        per_camera * c.cameras
    }
}

/// One mission of a mission workload: a service-style spec plus the
/// checkpoint storage faults, which `MissionSpec` does not carry.
#[derive(Debug, Clone, PartialEq)]
pub struct Mission {
    /// Position in the mission list.
    pub id: usize,
    /// Budget and chaos plans.
    pub spec: MissionSpec,
    /// Storage faults injected into the checkpoint store.
    pub checkpoint_faults: CheckpointFaultPlan,
}

impl Mission {
    /// The prepared base under this mission's inputs.
    ///
    /// # Errors
    ///
    /// Returns the error message when the spec is rejected.
    pub fn build(&self, base: &Simulation) -> Result<Simulation, String> {
        Ok(self
            .spec
            .apply(base)?
            .with_checkpoint_faults(self.checkpoint_faults))
    }
}

/// What one workload run feeds the program.
#[derive(Debug, Clone, PartialEq)]
pub enum Inputs {
    /// Missions run one at a time through `Simulation::run`.
    Missions(Vec<Mission>),
    /// Request batches run one at a time through `MissionService::run_batch`,
    /// each on a service whose arrival clock has its own seed.
    Batches(Vec<Batch>),
}

impl Inputs {
    /// Generates the workload's inputs from `seed`. Equal seeds give
    /// equal inputs; `workers` only sets the service's worker count.
    pub fn generate(workload: Workload, seed: u64, workers: usize) -> Inputs {
        let mut rng = SplitMix::new(seed ^ 0x6565_6373_6265_6e63);
        match workload {
            Workload::MissionDetect => {
                // Above C4's 1.975 J/frame on this rig's calibration, so
                // every assessment runs C4.
                let budgets = rng.stratified(DETECT_MISSIONS, 2.5, 12.0);
                Inputs::Missions(
                    budgets
                        .into_iter()
                        .enumerate()
                        .map(|(id, b)| Mission {
                            id,
                            spec: MissionSpec {
                                budget_j_per_frame: Some(b),
                                ..MissionSpec::default()
                            },
                            checkpoint_faults: CheckpointFaultPlan::none(),
                        })
                        .collect(),
                )
            }
            Workload::MissionChaos => {
                // Below C4's cost and above LSVM's 0.331 J/frame: C4 is
                // never feasible, every other detector always is.
                let budgets = rng.stratified(CHAOS_MISSIONS, 0.5, 1.9);
                Inputs::Missions(
                    budgets
                        .into_iter()
                        .enumerate()
                        .map(|(id, b)| Mission {
                            id,
                            spec: MissionSpec {
                                budget_j_per_frame: Some(b),
                                fault_plan: Some(
                                    FaultPlan::seeded(rng.next_u64())
                                        .with_default_faults(LinkFaults::lossy(0.3))
                                        .with_corruption(CorruptionPlan::with_rate(0.2)),
                                ),
                                // One harsh sensor per mission, cycling
                                // over the cameras: enough for quarantine
                                // strikes without letting blind frames
                                // swamp the mission's recall.
                                sensor_plan: Some(
                                    SensorFaultPlan::seeded(rng.next_u64())
                                        .with_camera_impairments(
                                            id % 4,
                                            SensorImpairments::harsh(),
                                        ),
                                ),
                                controller_plan: Some(ControllerFaultPlan::none().with_crash(1, 2)),
                                // Another camera leaves for round 1.
                                churn: Some(ChurnPlan::seeded(rng.next_u64()).with_leave(
                                    (id + 2) % 4,
                                    1,
                                    2,
                                )),
                                ..MissionSpec::default()
                            },
                            checkpoint_faults: CheckpointFaultPlan::seeded(rng.next_u64())
                                .with_bit_rot(2),
                        })
                        .collect(),
                )
            }
            Workload::ServiceBatch => Inputs::Batches(
                (0..SERVICE_BATCHES)
                    .map(|b| Batch {
                        // The arrival clock is part of the rig, one per
                        // batch: a single draw of 12 arrival gaps moves
                        // the refused share by about 10%, which would
                        // measure the draw rather than the service.
                        config: ServiceConfig::new(b as u64 + 1)
                            .with_slots(2)
                            .with_queue_capacity(2)
                            .with_tenant_cap(3)
                            .with_workers(workers),
                        requests: requests(&mut rng),
                    })
                    .collect(),
            ),
        }
    }

    /// The byte-stable text of the inputs, for identity checks.
    pub fn text(&self) -> String {
        format!("{self:?}")
    }
}

/// One service batch: the requests and the service that runs them.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    /// Service configuration, arrival-clock seed included.
    pub config: ServiceConfig,
    /// The requests, in arrival order.
    pub requests: Vec<MissionRequest>,
}

/// One mixed-priority batch: tenants, priorities, declared work and chaos
/// kinds cycle so every batch mixes all of them; the seed picks budgets,
/// deadlines and plan seeds.
fn requests(rng: &mut SplitMix) -> Vec<MissionRequest> {
    const TENANTS: [&str; 3] = ["alpha", "beta", "gamma"];
    const PRIORITIES: [Priority; 3] = [Priority::Low, Priority::Normal, Priority::High];
    // Below C4's cost, like `mission_chaos`: short missions.
    let budgets = rng.stratified(BATCH_REQUESTS, 0.5, 1.9);
    budgets
        .into_iter()
        .enumerate()
        .map(|(i, budget)| {
            let mut spec = MissionSpec {
                budget_j_per_frame: Some(budget),
                ..MissionSpec::default()
            };
            match i % 4 {
                1 => {
                    spec.fault_plan = Some(
                        FaultPlan::seeded(rng.next_u64())
                            .with_default_faults(LinkFaults::lossy(0.2))
                            .with_corruption(CorruptionPlan::with_rate(0.2)),
                    )
                }
                2 => {
                    spec.churn = Some(ChurnPlan::seeded(rng.next_u64()).with_leave(i / 4 % 2, 0, 1))
                }
                3 => {
                    spec.sensor_plan = Some(
                        SensorFaultPlan::seeded(rng.next_u64())
                            .with_camera_impairments(i / 4 % 2, SensorImpairments::harsh()),
                    )
                }
                _ => {}
            }
            MissionRequest::new(TENANTS[i % 3])
                .with_priority(PRIORITIES[(i / 3) % 3])
                .with_work(5 + (i as u64 % 5))
                .with_deadline(6 + rng.below(10))
                .with_spec(spec)
        })
        .collect()
}

/// The prepared state every mission of a run reuses.
pub struct Prepared {
    /// The trained bank (kept for the per-layer replay).
    pub bank: DetectorBank,
    /// The prepared rig.
    pub base: Simulation,
    /// One service over `base` per batch, on `service_batch`.
    pub services: Vec<MissionService>,
}

/// Trains the bank, prepares the rig and, for batch inputs, builds the
/// service: everything a run does before its first mission.
///
/// # Errors
///
/// Returns the training or preparation error.
pub fn prepare(workload: Workload, inputs: &Inputs, workers: usize) -> Result<Prepared, String> {
    prepare_with(workload, inputs, workers, train_bank()?)
}

/// The rig's quick-trained detector bank.
///
/// # Errors
///
/// Returns the training error.
pub fn train_bank() -> Result<DetectorBank, String> {
    DetectorBank::train_quick(BANK_SEED).map_err(|e| format!("train: {e}"))
}

/// [`prepare`] with an already trained bank.
///
/// # Errors
///
/// Returns the preparation error.
pub fn prepare_with(
    workload: Workload,
    inputs: &Inputs,
    workers: usize,
    bank: DetectorBank,
) -> Result<Prepared, String> {
    let base = Simulation::prepare(bank.clone(), workload.config(workers))
        .map_err(|e| format!("prepare: {e}"))?;
    let services = match inputs {
        Inputs::Batches(batches) => batches
            .iter()
            .map(|b| MissionService::new(base.clone(), b.config.clone()))
            .collect(),
        Inputs::Missions(_) => Vec::new(),
    };
    Ok(Prepared {
        bank,
        base,
        services,
    })
}

/// SplitMix64: the benchmark's own input generator, kept here so the
/// mission lists never change with the program's generators.
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// `n` values in `[lo, hi)`, one from each of `n` equal strata, in a
    /// seeded order: the seed moves every value but not their spread.
    pub fn stratified(&mut self, n: usize, lo: f64, hi: f64) -> Vec<f64> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = self.below(i as u64 + 1) as usize;
            order.swap(i, j);
        }
        order
            .into_iter()
            .map(|k| lo + (k as f64 + self.unit()) / n as f64 * (hi - lo))
            .collect()
    }
}
