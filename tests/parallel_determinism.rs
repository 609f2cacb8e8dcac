//! The parallel detection pipeline is a wall-clock optimization only:
//! a full EECS run under a chaotic fault plan must produce byte-identical
//! reports for every combination of worker-pool size and feature-cache
//! setting. Detection outputs are precomputed in parallel but consumed in
//! the exact serial order, so every battery drain, meter record, and
//! radio send replays identically.

use eecs::core::simulation::{Parallelism, Simulation};
use eecs::net::fault::{ControllerFaultPlan, FaultPlan, LinkFaults};
use eecs::scene::sensor_fault::{SensorFaultPlan, SensorImpairments};
use eecs_bench::catalog::Rig;

/// The camera whose device is crashed for the whole run.
const CRASHED: usize = 3;

fn chaos_plan() -> FaultPlan {
    FaultPlan::seeded(42)
        .with_default_faults(LinkFaults::lossy(0.3))
        .with_crash(CRASHED, 0, usize::MAX)
}

fn sensor_plan() -> SensorFaultPlan {
    // Sensor corruption happens serially before the worker fan-out, so
    // degraded pixels (and dropped frames) must not break invariance.
    SensorFaultPlan::seeded(7)
        .with_default_impairments(SensorImpairments::harsh())
        .with_occlusion(1, 40, 80, 0.25)
}

/// The catalog's four-camera, two-round rig (prepared once for every
/// variant) under the chaos above and a controller crash at round 1.
fn simulation(parallel: Parallelism) -> Simulation {
    Rig::Mission
        .simulation()
        .with_faults(
            chaos_plan(),
            sensor_plan(),
            ControllerFaultPlan::none().with_crash(1, 2),
        )
        .with_parallelism(parallel)
}

#[test]
fn worker_pool_size_and_feature_cache_never_change_the_report() {
    // Serial reference: one worker, every detector computing its own
    // features, exactly the pre-parallelism pipeline.
    let reference = simulation(Parallelism::serial()).run().expect("serial run");
    assert!(!reference.rounds.is_empty());
    assert!(
        reference.total_transport().drops > 0,
        "the chaotic fault plan must actually exercise the network"
    );

    let variants = [
        (
            "1 worker + cache",
            Parallelism {
                workers: 1,
                feature_cache: true,
            },
        ),
        (
            "auto workers, no cache",
            Parallelism {
                workers: 0,
                feature_cache: false,
            },
        ),
        ("auto workers + cache (default)", Parallelism::default()),
        (
            "3 workers + cache",
            Parallelism {
                workers: 3,
                feature_cache: true,
            },
        ),
    ];
    for (label, parallel) in variants {
        let report = simulation(parallel).run().expect(label);
        assert_eq!(report, reference, "{label}: report differs from serial");

        // PartialEq on f64 treats -0.0 == 0.0; energy must match to the
        // last bit, so compare the raw representations too.
        assert_eq!(
            report.total_energy_j.to_bits(),
            reference.total_energy_j.to_bits(),
            "{label}: total energy not bit-identical"
        );
        for (j, (a, b)) in report
            .per_camera_energy
            .iter()
            .zip(&reference.per_camera_energy)
            .enumerate()
        {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{label}: camera {j} energy not bit-identical"
            );
        }
        assert_eq!(
            report.transport, reference.transport,
            "{label}: transport stats differ"
        );
    }
}
