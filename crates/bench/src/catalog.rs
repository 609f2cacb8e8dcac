//! The scenario catalog: the miniature rigs every harness runs on, and
//! the named chaos scenarios layered on top of them.
//!
//! The paper evaluates one rig, a 4-camera lab deployment, under many
//! operating conditions. The test suite, the golden masters and the CI
//! smoke do the same at miniature scale, so the rig is built here once:
//! [`Rig`] is a closed set of miniature-lab configurations that differ
//! only in bank seed, camera count, frame range, base budget and (for the
//! quarantine rig) the health policy, and [`Rig::simulation`] prepares
//! each at most once per process. `Simulation::prepare` reads neither
//! fault plans nor host parallelism, so every scenario is a cheap
//! `with_*` copy of a shared prepared base.
//!
//! Each named scenario ([`SCENARIOS`]) is written once, as a function
//! of the rig (and, where call sites run it under different seeds or
//! links, of those too), and [`expect_path`] states the recovery path or
//! chaos layer it exists to exercise — so a scenario whose plan silently
//! stops firing fails wherever it runs instead of pinning a quiet run.

use crate::artifacts::Memo;
use eecs_core::checkpoint::CheckpointFaultPlan;
use eecs_core::config::EecsConfig;
use eecs_core::simulation::{
    OperatingMode, Parallelism, Simulation, SimulationConfig, SimulationReport,
};
use eecs_detect::bank::DetectorBank;
use eecs_detect::health::HealthPolicy;
use eecs_energy::profile::DeviceProfile;
use eecs_net::fault::{
    ChurnPlan, ControllerFaultPlan, CorruptionPlan, Endpoint, FaultPlan, LinkFaults, PartitionPlan,
};
use eecs_scene::dataset::{DatasetId, DatasetProfile};
use eecs_scene::sensor_fault::{SensorFaultPlan, SensorImpairments};
use std::sync::Arc;

/// First test frame of every rig; training reads the frames before it.
const START_FRAME: usize = 40;

/// Round the scheduled controller crash of the `crash`, `integrity` and
/// smoke churn scenarios opens at (the last round of a two-round rig).
pub const CRASH_ROUND: usize = 1;

/// One miniature lab rig: 4 people in the miniature Lab world, a
/// quick-trained detector bank, full EECS, assessment every 10 frames
/// and recalibration every 30 (rounds of 30 frames), 8 key frames, 12
/// visual words and 8 training frames per camera.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rig {
    /// 4 cameras over frames 40–100 (two rounds), bank seed 23,
    /// 5 J/frame: the chaos rig of the integration tests and the
    /// crash and integrity smokes.
    Mission,
    /// [`Rig::Mission`] over frames 40–160 (four rounds): room to split
    /// and heal, or leave and rejoin, mid-mission.
    LongMission,
    /// 2 cameras over frames 40–100, bank seed 23, 5 J/frame.
    Pair,
    /// 3 cameras over frames 40–130 (three rounds), bank seed 23,
    /// 5 J/frame.
    Trio,
    /// 2 cameras over frames 40–100, bank seed 42, 10 J/frame: the
    /// golden masters' base.
    GoldenPair,
    /// 3 cameras over frames 40–160, bank seed 42, 10 J/frame: the
    /// golden heterogeneous-fleet base.
    GoldenTrio,
    /// [`Rig::GoldenPair`] with a detection cap low enough that noisy
    /// frames trip the health checks. The health policy is part of the
    /// prepared controller, so this rig is prepared on its own.
    Quarantine,
    /// 2 cameras over frames 40–70 (one round), bank seed 9,
    /// 10 J/frame: the sweep-engine rig.
    Sweep,
}

impl Rig {
    /// `(bank seed, cameras, end frame, budget J/frame)`.
    fn spec(self) -> (u64, usize, usize, f64) {
        match self {
            Rig::Mission => (23, 4, 100, 5.0),
            Rig::LongMission => (23, 4, 160, 5.0),
            Rig::Pair => (23, 2, 100, 5.0),
            Rig::Trio => (23, 3, 130, 5.0),
            Rig::GoldenPair | Rig::Quarantine => (42, 2, 100, 10.0),
            Rig::GoldenTrio => (42, 3, 160, 10.0),
            Rig::Sweep => (9, 2, 70, 10.0),
        }
    }

    /// Seed of the quick-trained detector bank.
    pub fn bank_seed(self) -> u64 {
        self.spec().0
    }

    /// Number of cameras.
    pub fn cameras(self) -> usize {
        self.spec().1
    }

    /// Last test frame (exclusive).
    pub fn end_frame(self) -> usize {
        self.spec().2
    }

    /// The exact configuration [`Rig::simulation`] prepares: ideal
    /// plans, default parallelism.
    pub fn config(self) -> SimulationConfig {
        let (_, cameras, end_frame, budget) = self.spec();
        let mut config = miniature_config(cameras, end_frame);
        config.budget_j_per_frame = budget;
        if self == Rig::Quarantine {
            config.eecs.health = HealthPolicy {
                max_detections: 12,
                ..HealthPolicy::lenient()
            };
        }
        config
    }

    /// The prepared rig, built on first use and shared for the rest of
    /// the process.
    ///
    /// # Panics
    ///
    /// Panics if bank training or preparation fails (deterministic;
    /// cannot fail for the catalog's configurations).
    pub fn simulation(self) -> Arc<Simulation> {
        static RIGS: Memo<Rig, Simulation> = Memo::new();
        RIGS.get_or_build(self, || {
            Simulation::prepare(bank(self.bank_seed()), self.config())
                .expect("catalog rig prepares")
        })
    }
}

/// A quick-trained bank, trained once per seed per process.
fn bank(seed: u64) -> DetectorBank {
    static BANKS: Memo<u64, DetectorBank> = Memo::new();
    let bank = BANKS.get_or_build(seed, || {
        DetectorBank::train_quick(seed).expect("quick bank training is deterministic")
    });
    bank.as_ref().clone()
}

/// The miniature-lab mission every rig (and the mission service's
/// base) starts from: `cameras` cameras over frames `40..end_frame`
/// under full EECS at 5 J/frame, with ideal plans.
pub fn miniature_config(cameras: usize, end_frame: usize) -> SimulationConfig {
    let mut profile = DatasetProfile::miniature(DatasetId::Lab);
    profile.num_people = 4;
    SimulationConfig {
        profile,
        cameras,
        start_frame: START_FRAME,
        end_frame,
        budget_j_per_frame: 5.0,
        mode: OperatingMode::FullEecs,
        eecs: EecsConfig {
            assessment_period: 10,
            recalibration_interval: 30,
            key_frames: 8,
            ..EecsConfig::default()
        },
        feature_words: 12,
        max_training_frames: 8,
        boost_every: 0,
        fault_plan: FaultPlan::ideal(),
        sensor_plan: SensorFaultPlan::ideal(),
        controller_plan: ControllerFaultPlan::none(),
        parallel: Parallelism::default(),
    }
}

// ---------------------------------------------------------------------------
// Plan building blocks.
// ---------------------------------------------------------------------------

/// Every link loses a `loss` share of its attempts, seeded by `seed`.
pub fn lossy_links(seed: u64, loss: f64) -> FaultPlan {
    FaultPlan::seeded(seed).with_default_faults(LinkFaults::lossy(loss))
}

/// Lossy links (10%) with a bit-flip storm corrupting a `rate` share of
/// the frames on every wire path.
pub fn corruption_storm(seed: u64, rate: f64) -> FaultPlan {
    lossy_links(seed, 0.1).with_corruption(CorruptionPlan::with_rate(rate))
}

/// The links of `net_chaos`: 25% loss under seed 7.
pub fn net_chaos_links() -> FaultPlan {
    lossy_links(7, 0.25)
}

/// A harsh sensor on every camera, plus debris over a quarter of camera
/// 1's lens for the rig's whole test range.
pub fn harsh_sensor(rig: Rig, seed: u64) -> SensorFaultPlan {
    SensorFaultPlan::seeded(seed)
        .with_default_impairments(SensorImpairments::harsh())
        .with_occlusion(1, START_FRAME, rig.end_frame(), 0.25)
}

/// The sensor plan of `sensor_chaos` (and `quarantine`): the harsh
/// sensor under seed 11.
pub fn sensor_chaos_plan(rig: Rig) -> SensorFaultPlan {
    harsh_sensor(rig, 11)
}

/// The controller dies at the start of [`CRASH_ROUND`] for one round.
pub fn controller_crash() -> ControllerFaultPlan {
    ControllerFaultPlan::none().with_crash(CRASH_ROUND, CRASH_ROUND + 1)
}

/// Two network islands: the hub keeps cameras 0 and 1, cameras 2 and 3
/// go dark together.
pub fn two_islands() -> Vec<Vec<Endpoint>> {
    vec![
        vec![Endpoint::Hub, Endpoint::Camera(0), Endpoint::Camera(1)],
        vec![Endpoint::Camera(2), Endpoint::Camera(3)],
    ]
}

/// A heterogeneous fleet of `cameras` devices: one flagship, one lowend,
/// and midrange phones in between — every cost table distinct.
pub fn hetero_fleet(cameras: usize) -> Vec<DeviceProfile> {
    (0..cameras)
        .map(|j| match j {
            0 => DeviceProfile::flagship(),
            j if j + 1 == cameras => DeviceProfile::lowend(),
            _ => DeviceProfile::midrange(),
        })
        .collect()
}

/// The rig's last camera sits out rounds `[1, 3)` and rejoins.
pub fn leave_and_rejoin(rig: Rig, seed: u64) -> ChurnPlan {
    ChurnPlan::seeded(seed).with_leave(rig.cameras() - 1, 1, 3)
}

/// The churn plan of `churn` (and of the invariant battery's
/// `churn_hetero`): the last camera leaves and rejoins, and camera 1
/// departs for good at round 2. Camera 0 is left alone so a controller
/// seat always has a stable home.
pub fn churn_plan(rig: Rig) -> ChurnPlan {
    leave_and_rejoin(rig, 5).with_depart(1, 2)
}

// ---------------------------------------------------------------------------
// The named scenarios.
// ---------------------------------------------------------------------------

/// Every named scenario, in catalog order.
pub const SCENARIOS: [&str; 12] = [
    "ideal",
    "net_chaos",
    "sensor_chaos",
    "partition",
    "flapping",
    "integrity",
    "crash",
    "churn",
    "churn_hetero",
    "failover_rot",
    "partition_heal",
    "quarantine",
];

/// `ideal`: the rig as prepared — no faults anywhere.
pub fn ideal(rig: Rig) -> Simulation {
    rig.simulation().as_ref().clone()
}

/// `net_chaos`: 25% link loss.
pub fn net_chaos(rig: Rig) -> Simulation {
    rig.simulation().with_faults(
        net_chaos_links(),
        SensorFaultPlan::ideal(),
        ControllerFaultPlan::none(),
    )
}

/// `sensor_chaos`: harsh sensors and an occluded lens over the rig's
/// whole test range.
pub fn sensor_chaos(rig: Rig) -> Simulation {
    rig.simulation().with_faults(
        FaultPlan::ideal(),
        sensor_chaos_plan(rig),
        ControllerFaultPlan::none(),
    )
}

/// `partition`: [`two_islands`] split over rounds `[1, 3)` on top of
/// `links`. The orphaned island elects an acting seat; the heal
/// reconciles it.
pub fn partition(rig: Rig, links: FaultPlan) -> Simulation {
    partitioned(
        rig,
        links.with_partition(PartitionPlan::none().with_split(two_islands(), 1, 3)),
    )
}

/// `flapping`: the [`two_islands`] split on for round 1, off for round
/// 2, on again from round 3, on top of `links`.
pub fn flapping(rig: Rig, links: FaultPlan) -> Simulation {
    partitioned(
        rig,
        links.with_partition(PartitionPlan::none().with_flapping(two_islands(), 1, 4, 1)),
    )
}

fn partitioned(rig: Rig, links: FaultPlan) -> Simulation {
    rig.simulation()
        .with_faults(links, SensorFaultPlan::ideal(), ControllerFaultPlan::none())
}

/// `integrity`: a corruption `storm` on the wire plus a torn write of
/// checkpoint generation 2 under the scheduled controller crash.
/// Generation 1 is the initial checkpoint and the round-0 snapshot lands
/// as generation 2, so the crash restore falls back exactly one
/// generation.
pub fn integrity(rig: Rig, storm: FaultPlan, checkpoint_seed: u64) -> Simulation {
    rig.simulation()
        .with_faults(storm, SensorFaultPlan::ideal(), controller_crash())
        .with_checkpoint_faults(CheckpointFaultPlan::seeded(checkpoint_seed).with_torn_write(2))
}

/// `crash`: combined chaos — 20% link loss, the harsh sensor, and the
/// scheduled controller crash, all under `seed`.
pub fn crash(rig: Rig, seed: u64) -> Simulation {
    rig.simulation().with_faults(
        lossy_links(seed, 0.2),
        harsh_sensor(rig, seed),
        controller_crash(),
    )
}

/// `churn`: the uniform fleet under [`churn_plan`].
pub fn churn(rig: Rig) -> Simulation {
    rig.simulation().with_churn(churn_plan(rig))
}

/// `churn_hetero`: a [`hetero_fleet`] under `churn`. Callers layer link
/// and controller faults on top with `with_faults`.
pub fn churn_hetero(rig: Rig, churn: ChurnPlan) -> Simulation {
    hetero(rig).with_churn(churn)
}

fn hetero(rig: Rig) -> Simulation {
    rig.simulation()
        .with_fleet(hetero_fleet(rig.cameras()))
        .expect("the heterogeneous fleet captures the miniature resolution")
}

/// `failover_rot`: the golden heterogeneous fleet over a corruption
/// storm, with the controller crashing at round 2 and the newest
/// checkpoint generation rotted: one failover, one rollback.
pub fn failover_rot() -> Simulation {
    hetero(Rig::GoldenTrio)
        .with_faults(
            corruption_storm(17, 0.3),
            SensorFaultPlan::ideal(),
            ControllerFaultPlan::none().with_crash(2, 3),
        )
        .with_checkpoint_faults(CheckpointFaultPlan::seeded(5).with_bit_rot(3))
}

/// `partition_heal`: the golden heterogeneous fleet over a corruption
/// storm; the hub keeps cameras 0 and 1 while camera 2 is orphaned over
/// rounds `[1, 3)`, elects itself, and is reconciled on heal.
pub fn partition_heal() -> Simulation {
    let islands = vec![
        vec![Endpoint::Hub, Endpoint::Camera(0), Endpoint::Camera(1)],
        vec![Endpoint::Camera(2)],
    ];
    hetero(Rig::GoldenTrio).with_faults(
        corruption_storm(17, 0.3).with_partition(PartitionPlan::none().with_split(islands, 1, 3)),
        SensorFaultPlan::ideal(),
        ControllerFaultPlan::none(),
    )
}

/// `quarantine`: `sensor_chaos` on the [`Rig::Quarantine`] rig, whose
/// noisy frames trip the health checks: the quarantine strike path.
pub fn quarantine() -> Simulation {
    sensor_chaos(Rig::Quarantine)
}

fn ensure(cond: bool, msg: impl FnOnce() -> String) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(msg())
    }
}

/// Exactly one failover, at [`CRASH_ROUND`].
fn one_failover_at_crash_round(r: &SimulationReport) -> Result<(), String> {
    ensure(r.failovers.len() == 1, || {
        format!("expected exactly one failover, got {:?}", r.failovers)
    })?;
    ensure(r.failovers[0].round == CRASH_ROUND, || {
        format!(
            "failover in round {}, not {CRASH_ROUND}",
            r.failovers[0].round
        )
    })
}

/// An island election, a heal and split-brain rounds, and no crash
/// failover.
fn elected_and_healed(r: &SimulationReport) -> Result<(), String> {
    ensure(r.partitions >= 1, || "partition plan never fired".into())?;
    ensure(r.elections >= 1, || {
        "no island ever elected an acting seat".into()
    })?;
    ensure(r.reconciliations >= 1, || "no heal ever reconciled".into())?;
    ensure(r.split_brain_rounds >= 1, || {
        "no split-brain round recorded".into()
    })?;
    ensure(r.failovers.is_empty(), || {
        format!("island election leaked a crash failover {:?}", r.failovers)
    })
}

/// The last camera left and rejoined, and planning routed around it.
fn left_and_rejoined(r: &SimulationReport) -> Result<(), String> {
    let last = r.per_camera_energy.len().saturating_sub(1);
    ensure(r.camera_leaves >= 1, || {
        "churn plan never removed a camera".into()
    })?;
    ensure(r.camera_joins >= 1, || {
        "the absent camera never rejoined".into()
    })?;
    ensure(
        r.rounds
            .iter()
            .any(|round| !round.active.contains(&last) && !round.assignment.contains_key(&last)),
        || {
            format!(
                "camera {last} never left the plan — sticky assignments leaked \
                 across the departure"
            )
        },
    )
}

/// Checks that `report`, a run of the named scenario, reached the path
/// the scenario exists for — and that the mission ran at all: rounds
/// were played, none lost every camera, and the energy is physical.
/// Returns the first unmet expectation.
///
/// # Errors
///
/// Returns the unmet expectation, or an error for an unknown name.
pub fn expect_path(name: &str, r: &SimulationReport) -> Result<(), String> {
    ensure(!r.rounds.is_empty(), || "no rounds".into())?;
    ensure(
        r.rounds.iter().all(|round| !round.active.is_empty()),
        || "a round lost every camera".into(),
    )?;
    ensure(
        r.total_energy_j.is_finite() && r.total_energy_j > 0.0,
        || format!("unphysical total energy {}", r.total_energy_j),
    )?;
    match name {
        "ideal" => {
            let t = r.total_transport();
            ensure(
                t.drops == 0
                    && t.retries == 0
                    && r.failovers.is_empty()
                    && r.partitions == 0
                    && r.corrupted_frames == 0
                    && r.checkpoint_rollbacks == 0
                    && r.degraded_frames == 0
                    && r.camera_joins + r.camera_leaves == 0,
                || "a fault-free run recorded a fault".into(),
            )
        }
        "net_chaos" => {
            let t = r.total_transport();
            ensure(t.drops > 0 && t.retries > 0, || {
                "lossy links never dropped or retried".into()
            })
        }
        "sensor_chaos" => ensure(r.degraded_frames > 0, || "sensor plan never fired".into()),
        "partition" | "flapping" => elected_and_healed(r),
        "integrity" => {
            ensure(r.corrupted_frames > 0, || {
                "corruption plan never fired".into()
            })?;
            one_failover_at_crash_round(r)?;
            ensure(r.checkpoint_rollbacks == 1, || {
                format!(
                    "torn newest generation should roll back exactly once, got {}",
                    r.checkpoint_rollbacks
                )
            })
        }
        "crash" => {
            ensure(r.degraded_frames > 0, || "sensor plan never fired".into())?;
            one_failover_at_crash_round(r)
        }
        "churn" | "churn_hetero" => left_and_rejoined(r),
        "failover_rot" => ensure(
            r.failovers.len() == 1 && r.checkpoint_rollbacks == 1,
            || {
                format!(
                    "expected one failover and one rollback, got {} and {}",
                    r.failovers.len(),
                    r.checkpoint_rollbacks
                )
            },
        ),
        "partition_heal" => ensure(
            (
                r.partitions,
                r.elections,
                r.reconciliations,
                r.split_brain_rounds,
            ) == (1, 1, 1, 2),
            || {
                format!(
                    "expected 1 partition, 1 election, 1 reconciliation and 2 split-brain \
                     rounds, got {}, {}, {} and {}",
                    r.partitions, r.elections, r.reconciliations, r.split_brain_rounds
                )
            },
        ),
        "quarantine" => ensure(r.quarantine_strikes == 10 && r.dropped_frames == 3, || {
            format!(
                "expected 10 quarantine strikes and 3 dropped frames, got {} and {}",
                r.quarantine_strikes, r.dropped_frames
            )
        }),
        other => Err(format!("unknown scenario {other}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_bit_identical(a: &SimulationReport, b: &SimulationReport) {
        assert_eq!(a, b);
        assert_eq!(a.total_energy_j.to_bits(), b.total_energy_j.to_bits());
        for (x, y) in a.per_camera_energy.iter().zip(&b.per_camera_energy) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    /// Sharing one prepared base changes nothing: the rig is prepared
    /// once, and a scenario on it — run again after the first use —
    /// replays a fresh `prepare` of the same config, bit for bit.
    #[test]
    fn memoized_rig_runs_bit_identical_to_a_fresh_prepare() {
        let rig = Rig::Sweep;
        let memoized = rig.simulation();
        assert!(Arc::ptr_eq(&memoized, &rig.simulation()));
        let fresh = Simulation::prepare(
            DetectorBank::train_quick(rig.bank_seed()).expect("bank"),
            rig.config(),
        )
        .expect("prepare");
        assert_eq!(fresh.matched_records(), memoized.matched_records());
        let run = |sim: &Simulation| {
            sim.with_faults(
                lossy_links(3, 0.25),
                SensorFaultPlan::ideal(),
                ControllerFaultPlan::none(),
            )
            .run()
            .expect("run")
        };
        let first = run(&memoized);
        assert_bit_identical(&first, &run(&memoized));
        assert_bit_identical(&first, &run(&fresh));
    }

    #[test]
    fn hetero_fleets_span_flagship_to_lowend() {
        let names = |n| {
            hetero_fleet(n)
                .into_iter()
                .map(|p| p.name)
                .collect::<Vec<_>>()
        };
        assert_eq!(names(3), ["flagship", "midrange", "lowend"]);
        assert_eq!(names(4), ["flagship", "midrange", "midrange", "lowend"]);
    }

    #[test]
    fn unknown_scenarios_are_rejected() {
        let report = ideal(Rig::Sweep).run().expect("run");
        expect_path("ideal", &report).expect("the ideal rig is quiet");
        assert!(expect_path("no_such_scenario", &report).is_err());
        assert!(
            expect_path("net_chaos", &report).is_err(),
            "an ideal run must not pass for a chaos scenario"
        );
    }
}
