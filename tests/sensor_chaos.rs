//! Combined chaos end-to-end: corrupted sensors, a lossy radio network,
//! and a controller that dies mid-run. The self-healing stack must keep
//! the mission going — degraded, never aborted — and the whole disaster
//! must replay bit-for-bit from its seeds.

use eecs::core::simulation::Simulation;
use eecs::net::fault::{ControllerFaultPlan, FaultPlan};
use eecs::scene::sensor_fault::{SensorFaultPlan, SensorImpairments};
use eecs_bench::catalog::{self, Rig, CRASH_ROUND};

fn sensor_plan(seed: u64) -> SensorFaultPlan {
    // Moderate corruption everywhere, debris on camera 1's lens, and a
    // harsh camera 2 — every impairment class fires somewhere.
    let moderate = SensorImpairments {
        noise_amp: 0.12,
        noise_prob: 0.35,
        blur_radius: 2,
        blur_prob: 0.2,
        exposure_drift: 0.3,
        exposure_prob: 0.25,
        low_light_bias: true,
        stuck_rows: 6,
        stuck_prob: 0.15,
        drop_prob: 0.1,
    };
    SensorFaultPlan::seeded(seed)
        .with_default_impairments(moderate)
        .with_camera_impairments(2, SensorImpairments::harsh())
        .with_occlusion(1, 40, 100, 0.2)
}

/// The catalog's four-camera, two-round rig (the crash window opens at
/// its last round, so the recovery has no later round to hide in) under
/// lossy links, the sensor plan above, and the scheduled controller
/// crash.
fn chaos_simulation(seed: u64) -> Simulation {
    Rig::Mission.simulation().with_faults(
        catalog::lossy_links(seed, 0.2),
        sensor_plan(seed),
        catalog::controller_crash(),
    )
}

#[test]
fn combined_chaos_degrades_gracefully_instead_of_aborting() {
    let report = chaos_simulation(42).run().expect("chaos run completes");

    // The sensor plan actually bit: frames were corrupted and dropped.
    assert!(report.degraded_frames > 0, "no frame was visibly degraded");
    assert!(report.dropped_frames > 0, "no frame was dropped");

    // The mission still produced results in every round.
    assert!(!report.rounds.is_empty());
    assert!(report.gt_objects > 0);
    for round in &report.rounds {
        assert!(
            !round.active.is_empty(),
            "round {round:?} lost every camera"
        );
    }

    // Energy stays physical: non-negative, finite, consistent.
    assert!(report.total_energy_j.is_finite() && report.total_energy_j > 0.0);
    for (j, e) in report.per_camera_energy.iter().enumerate() {
        assert!(e.is_finite() && *e >= 0.0, "camera {j} energy {e}");
    }
    let per_cam: f64 = report.per_camera_energy.iter().sum();
    assert!((per_cam - report.total_energy_j).abs() < 1e-9);
}

#[test]
fn controller_crash_recovers_within_the_same_round() {
    let report = chaos_simulation(42).run().expect("chaos run completes");

    // Exactly one crash window ⇒ exactly one failover, in that round.
    assert_eq!(report.failovers.len(), 1, "{:?}", report.failovers);
    let f = &report.failovers[0];
    assert_eq!(f.round, CRASH_ROUND);
    // The new controller restored the checkpoint of an earlier round…
    assert!(f.checkpoint_round < CRASH_ROUND);
    // …and told at least one surviving peer about the handover.
    assert!(f.announced >= 1, "nobody heard the handover");

    // Recovery within the same assessment round: the crash round still
    // planned and ran — cameras stayed active and the round cost energy.
    let crash_round = &report.rounds[CRASH_ROUND];
    assert!(
        !crash_round.active.is_empty(),
        "the crash round lost every camera: {crash_round:?}"
    );
    assert!(crash_round.energy_j > 0.0);
}

#[test]
fn combined_chaos_replays_bit_for_bit() {
    let sim = chaos_simulation(42);
    let a = sim.run().expect("first run");
    let b = sim.run().expect("second run");
    assert_eq!(a, b, "same seeds, same disaster");
    assert_eq!(a.total_energy_j.to_bits(), b.total_energy_j.to_bits());
    for (x, y) in a.per_camera_energy.iter().zip(&b.per_camera_energy) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
}

#[test]
fn ideal_plans_leave_the_clean_run_bit_identical() {
    // `with_faults` with all-ideal plans must be indistinguishable — to
    // the last bit — from a run that never heard of fault injection.
    let sim = chaos_simulation(42).with_faults(
        FaultPlan::ideal(),
        SensorFaultPlan::ideal(),
        ControllerFaultPlan::none(),
    );
    let clean = sim.run().expect("clean run");
    assert_eq!(clean.degraded_frames, 0);
    assert_eq!(clean.dropped_frames, 0);
    assert_eq!(clean.quarantine_strikes, 0);
    assert!(clean.failovers.is_empty());

    let again = sim.run().expect("clean rerun");
    assert_eq!(clean, again);
    assert_eq!(
        clean.total_energy_j.to_bits(),
        again.total_energy_j.to_bits()
    );
}
