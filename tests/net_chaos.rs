//! Chaos end-to-end: a four-camera EECS round under packet loss with one
//! crashed camera must complete, select only live cameras, pay the
//! reliability tax in energy, and replay byte-for-byte from its seed.

use eecs::core::simulation::Simulation;
use eecs::net::fault::{ControllerFaultPlan, FaultPlan, LinkFaults};
use eecs::scene::sensor_fault::SensorFaultPlan;
use eecs_bench::catalog::Rig;

/// The camera whose device is crashed for the whole run.
const CRASHED: usize = 3;

fn chaos_plan() -> FaultPlan {
    FaultPlan::seeded(42)
        .with_default_faults(LinkFaults::lossy(0.3))
        .with_crash(CRASHED, 0, usize::MAX)
}

/// The catalog's four-camera, two-round rig under `fault_plan`.
fn simulation(fault_plan: FaultPlan) -> Simulation {
    Rig::Mission.simulation().with_faults(
        fault_plan,
        SensorFaultPlan::ideal(),
        ControllerFaultPlan::none(),
    )
}

#[test]
fn chaos_round_completes_and_excludes_the_crashed_camera() {
    let report = simulation(chaos_plan()).run().expect("chaos run completes");
    assert!(!report.rounds.is_empty());
    assert!(report.gt_objects > 0);

    // The controller never selects the dead camera.
    for round in &report.rounds {
        assert!(
            !round.active.contains(&CRASHED),
            "round {round:?} selected the crashed camera"
        );
        assert!(
            !round.active.is_empty(),
            "live cameras keep the round going"
        );
    }

    // A crashed device spends nothing — and its sends are refused as
    // timeouts without a single radio attempt.
    assert_eq!(report.per_camera_energy[CRASHED], 0.0);
    assert_eq!(report.transport[CRASHED].attempts, 0);
    assert!(report.transport[CRASHED].timeouts > 0);

    // 30% loss on the live links shows up in the counters.
    let total = report.total_transport();
    assert!(total.drops > 0, "loss must drop some attempts");
    assert!(total.retries > 0, "drops must force retries");
    assert!(
        report.downlink.attempts > 0,
        "assignments travel the downlink"
    );
}

#[test]
fn chaos_reliability_tax_exceeds_the_fault_free_baseline() {
    let chaos = simulation(chaos_plan()).run().expect("chaos run");
    let ideal = simulation(FaultPlan::ideal()).run().expect("ideal run");

    // The ideal network never drops, retries, or times out.
    let ideal_total = ideal.total_transport();
    assert_eq!(ideal_total.drops, 0);
    assert_eq!(ideal_total.retries, 0);
    assert_eq!(ideal_total.timeouts, 0);
    assert_eq!(ideal_total.duplicates, 0);

    // The crashed camera spends nothing, so compare the cameras that
    // actually lived through the chaos: retries and liveness probes make
    // each of them strictly more expensive than its idealized self.
    let live_chaos: f64 = (0..CRASHED).map(|j| chaos.per_camera_energy[j]).sum();
    let live_ideal: f64 = (0..CRASHED).map(|j| ideal.per_camera_energy[j]).sum();
    assert!(
        live_chaos > live_ideal,
        "chaos {live_chaos} J must exceed fault-free {live_ideal} J"
    );
}

#[test]
fn chaos_run_replays_byte_for_byte() {
    let sim = simulation(chaos_plan());
    let a = sim.run().expect("first run");
    let b = sim.run().expect("second run");
    assert_eq!(a, b, "same seed, same report");
    assert_eq!(
        a.total_energy_j.to_bits(),
        b.total_energy_j.to_bits(),
        "bit-identical energy"
    );
    for (x, y) in a.per_camera_energy.iter().zip(&b.per_camera_energy) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
}
