//! End-to-end integration: the complete EECS loop through the facade
//! crate, comparing the three operating modes of Figs. 5–6.

use eecs::core::simulation::{OperatingMode, Simulation};
use eecs::detect::detection::AlgorithmId;
use eecs_bench::catalog::Rig;

/// The catalog's two-camera rig under the all-best baseline.
fn base_simulation() -> Simulation {
    Rig::Pair.simulation().with_mode(OperatingMode::AllBest)
}

#[test]
fn all_three_modes_run_and_account_consistently() {
    let base = base_simulation();
    for mode in [
        OperatingMode::AllBest,
        OperatingMode::CameraSubset,
        OperatingMode::FullEecs,
    ] {
        let report = base.with_mode(mode).run().expect("run");
        assert_eq!(report.mode, mode);
        assert!(report.gt_objects > 0, "{mode:?}: no ground truth seen");
        assert!(report.total_energy_j > 0.0);
        // Per-camera energies sum to the total.
        let sum: f64 = report.per_camera_energy.iter().sum();
        assert!(
            (sum - report.total_energy_j).abs() < 1e-6,
            "{mode:?}: per-camera sum {sum} != total {}",
            report.total_energy_j
        );
        // Round energy (plus the one-time feature upload) equals the total.
        let rounds: f64 = report.rounds.iter().map(|r| r.energy_j).sum();
        assert!(rounds <= report.total_energy_j + 1e-9);
        // Detection counts aggregate over rounds.
        let correct: usize = report.rounds.iter().map(|r| r.correct).sum();
        assert_eq!(correct, report.correctly_detected);
        // Detections never exceed ground truth.
        assert!(report.correctly_detected <= report.gt_objects);
    }
}

#[test]
fn subset_mode_never_uses_more_cameras_than_baseline() {
    let base = base_simulation();
    let subset = base.with_mode(OperatingMode::CameraSubset).run().unwrap();
    for round in &subset.rounds {
        assert!(round.active.len() <= 2);
        assert!(!round.active.is_empty());
        // Every active camera has an assignment from the bank's algorithms.
        for cam in &round.active {
            assert!(AlgorithmId::ALL.contains(&round.assignment[cam]));
        }
    }
}

#[test]
fn budget_change_shifts_the_feasible_set() {
    let base = base_simulation();
    // Find the cheapest measured algorithm cost.
    let cheapest = base
        .record_for_camera(0)
        .ranked()
        .iter()
        .map(|p| p.energy_per_frame_j)
        .fold(f64::INFINITY, f64::min);
    // A budget between cheapest and 2×cheapest forces that algorithm
    // everywhere.
    let tight = base
        .with_budget(cheapest * 1.2)
        .unwrap()
        .with_mode(OperatingMode::AllBest)
        .run()
        .unwrap();
    let cheapest_alg = base
        .record_for_camera(0)
        .ranked()
        .iter()
        .min_by(|a, b| {
            a.energy_per_frame_j
                .partial_cmp(&b.energy_per_frame_j)
                .unwrap()
        })
        .map(|p| p.algorithm)
        .unwrap();
    for round in &tight.rounds {
        for alg in round.assignment.values() {
            assert_eq!(*alg, cheapest_alg, "tight budget must force {cheapest_alg}");
        }
    }
}
