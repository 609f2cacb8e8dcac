//! Partition-tolerance end-to-end: the network splits into islands, each
//! island that loses sight of the controller elects its own epoch-fenced
//! acting seat, planning continues locally, and the heal merges every
//! seat back into one through the deterministic reconciliation join.
//! The whole episode must replay bit-for-bit, across worker counts, and
//! an inert partition plan must change nothing at all.

use eecs::core::simulation::{Parallelism, Simulation};
use eecs::core::telemetry::{summary, Telemetry};
use eecs::net::fault::{ControllerFaultPlan, FaultPlan, PartitionPlan};
use eecs::scene::sensor_fault::SensorFaultPlan;
use eecs_bench::catalog::{self, two_islands, Rig};

/// Four cameras over four rounds, prepared once for the whole binary.
const RIG: Rig = Rig::LongMission;

/// Rounds `[SPLIT_START, SPLIT_END)` of the catalog's `partition`
/// scenario run with the network split into {hub, cam 0, cam 1} and
/// {cam 2, cam 3}.
const SPLIT_START: usize = 1;
const SPLIT_END: usize = 3;

/// The rig over ideal links under an arbitrary partition plan.
fn partition_simulation(plan: PartitionPlan) -> Simulation {
    RIG.simulation().with_faults(
        FaultPlan::ideal().with_partition(plan),
        SensorFaultPlan::ideal(),
        ControllerFaultPlan::none(),
    )
}

/// The catalog's `partition` scenario over ideal links.
fn split_simulation() -> Simulation {
    catalog::partition(RIG, FaultPlan::ideal())
}

#[test]
fn two_island_split_elects_one_acting_seat_and_heals_to_one() {
    let tel = Telemetry::recording(8192);
    let report = split_simulation()
        .with_telemetry(tel.clone())
        .run()
        .expect("partitioned run completes");

    // One partition episode, exactly one election (the hub island keeps
    // its official seat; the orphaned island elects one acting seat),
    // one reconciliation on heal, and two rounds of split brain.
    assert_eq!(report.partitions, 1);
    assert_eq!(report.elections, 1);
    assert_eq!(report.reconciliations, 1);
    assert_eq!(report.split_brain_rounds, SPLIT_END - SPLIT_START);
    assert!(
        report.failovers.is_empty(),
        "an island election is not a controller-crash failover"
    );

    // The mission never stopped: every round planned and scored.
    assert_eq!(report.rounds.len(), 4);
    assert!(report.gt_objects > 0);
    for round in &report.rounds {
        assert!(!round.active.is_empty(), "a round planned nobody");
    }

    // The trace agrees with the report, field for field.
    let count = |kind: &str| tel.events().iter().filter(|e| e.kind() == kind).count();
    assert_eq!(count("partition_start"), report.partitions);
    assert_eq!(count("partition_heal"), report.partitions);
    assert_eq!(count("election"), report.elections);
    assert_eq!(count("reconcile"), report.reconciliations);

    // The elected acting seat lives on the orphaned island, announced a
    // positive fencing epoch, and the heal-round merge kept it or the
    // hub — never a phantom seat.
    let election = tel
        .events()
        .iter()
        .find(|e| e.kind() == "election")
        .cloned()
        .expect("election event");
    let elected = election.camera().expect("election names its seat");
    assert!(elected == 2 || elected == 3, "elected {elected}");
    assert_eq!(election.round(), SPLIT_START);
    let reconcile = tel
        .events()
        .iter()
        .find(|e| e.kind() == "reconcile")
        .cloned()
        .expect("reconcile event");
    assert_eq!(reconcile.round(), SPLIT_END);
}

#[test]
fn partitioned_run_replays_bit_exactly() {
    let sim = split_simulation();
    let run = || {
        let tel = Telemetry::recording(8192);
        let report = sim
            .with_telemetry(tel.clone())
            .run()
            .expect("partitioned run completes");
        let doc = summary::golden_document("partition", &report, &tel).expect("golden doc");
        (report, doc)
    };
    let (report_a, doc_a) = run();
    let (report_b, doc_b) = run();
    // The replay exercises the same mid-partition checkpoint restore the
    // first run did — reports and the full golden document (metrics
    // included) must match byte for byte.
    assert_eq!(report_a, report_b);
    assert_eq!(doc_a, doc_b);
}

#[test]
fn serial_and_parallel_partition_runs_are_identical() {
    let sim = split_simulation();
    let parallel = sim.run().expect("parallel run");
    let serial = sim
        .with_parallelism(Parallelism::serial())
        .run()
        .expect("serial run");
    assert_eq!(parallel, serial);
}

#[test]
fn inert_partition_plans_change_nothing() {
    let baseline = partition_simulation(PartitionPlan::none())
        .run()
        .expect("baseline run");
    assert_eq!(baseline.partitions, 0);
    assert_eq!(baseline.elections, 0);
    assert_eq!(baseline.reconciliations, 0);
    assert_eq!(baseline.split_brain_rounds, 0);

    // An empty window schedules nothing: the plan is disabled, the
    // partition control plane never runs, and the report is bit-identical
    // to the no-plan run.
    let empty_window = PartitionPlan::none().with_split(two_islands(), 2, 2);
    let report = partition_simulation(empty_window).run().expect("runs");
    assert_eq!(report, baseline);
}

#[test]
fn flapping_split_elects_once_per_dark_window() {
    // On for round 1, off for round 2, on again for round 3 (the last
    // round of the run — the second episode never heals).
    let report = catalog::flapping(RIG, FaultPlan::ideal())
        .run()
        .expect("flapping run");
    // Each on-window orphans somebody afresh: round 1 elects an acting
    // seat for {2, 3}; the round-2 heal adopts its higher epoch (demoting
    // the hub), so the round-3 flap orphans the *hub* island, which
    // elects again at a yet-higher epoch. Only the first episode heals.
    assert_eq!(report.partitions, 2);
    assert_eq!(report.elections, 2);
    assert_eq!(report.reconciliations, 1);
    assert_eq!(report.split_brain_rounds, 2);
}
