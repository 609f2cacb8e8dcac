//! Checkpoint/failover invariant: a run whose controller dies mid-chaos
//! and restores from its checkpoint replays to the same final report —
//! and the same telemetry stream — every single time. Exact equality,
//! down to the bits and the bytes.

use eecs::core::simulation::Simulation;
use eecs::core::telemetry::{Telemetry, TraceEvent};
use eecs::scene::sensor_fault::{SensorFaultPlan, SensorImpairments};
use eecs_bench::catalog::{self, Rig, CRASH_ROUND};

/// The catalog's four-camera, two-round rig under lossy links, harsh
/// sensors, and a controller crash at [`CRASH_ROUND`].
fn crash_simulation(seed: u64) -> Simulation {
    Rig::Mission.simulation().with_faults(
        catalog::lossy_links(seed, 0.2),
        SensorFaultPlan::seeded(seed).with_default_impairments(SensorImpairments::harsh()),
        catalog::controller_crash(),
    )
}

#[test]
fn checkpoint_restore_replays_to_identical_report_and_telemetry() {
    let sim = crash_simulation(42);
    let run = || {
        let tel = Telemetry::recording(8192);
        let report = sim
            .with_telemetry(tel.clone())
            .run()
            .expect("crash run completes");
        (report, tel)
    };
    let (report_a, tel_a) = run();
    let (report_b, tel_b) = run();

    // The disaster actually happened, and recovery restored an earlier
    // checkpoint.
    assert_eq!(report_a.failovers.len(), 1, "{:?}", report_a.failovers);
    let failover = &report_a.failovers[0];
    assert_eq!(failover.round, CRASH_ROUND);
    assert!(failover.checkpoint_round < CRASH_ROUND);

    // Replay invariant: the restored run is not merely "close" — it is
    // the same run. Report bits and telemetry bytes, both.
    assert_eq!(report_a, report_b);
    assert_eq!(
        report_a.total_energy_j.to_bits(),
        report_b.total_energy_j.to_bits()
    );
    assert_eq!(
        tel_a.metrics_json().expect("metrics"),
        tel_b.metrics_json().expect("metrics")
    );
    assert_eq!(
        tel_a.trace_json().expect("trace"),
        tel_b.trace_json().expect("trace")
    );
    assert_eq!(
        tel_a.tail_json(2).expect("tail"),
        tel_b.tail_json(2).expect("tail")
    );
}

#[test]
fn failover_round_appears_in_the_telemetry_tail() {
    let sim = crash_simulation(42);
    let tel = Telemetry::recording(8192);
    let report = sim
        .with_telemetry(tel.clone())
        .run()
        .expect("crash run completes");
    let reported = &report.failovers[0];

    // The trace carries a Failover event whose fields agree with the
    // report's own record of the disaster.
    let events = tel.events();
    let trace_failovers: Vec<&TraceEvent> = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::Failover { .. }))
        .collect();
    assert_eq!(trace_failovers.len(), 1);
    match trace_failovers[0] {
        TraceEvent::Failover {
            round,
            elected,
            checkpoint_round,
            announced,
        } => {
            assert_eq!(*round, reported.round);
            assert_eq!(*elected, reported.elected);
            assert_eq!(*checkpoint_round, reported.checkpoint_round);
            assert_eq!(*announced, reported.announced);
        }
        other => panic!("unexpected event {other:?}"),
    }

    // A tail slice anchored at the crash covers the failover round itself
    // — the "last N rounds before the failure" dump a post-mortem needs.
    let tail = tel.tail_events(report.rounds.len() - CRASH_ROUND);
    assert!(
        tail.iter()
            .any(|e| matches!(e, TraceEvent::Failover { round, .. } if *round == CRASH_ROUND)),
        "tail slice missed the failover round"
    );
    // And the JSON tail dump mentions it too.
    let json = tel
        .tail_json(report.rounds.len() - CRASH_ROUND)
        .expect("tail json");
    assert!(json.contains("\"failover\""), "{json}");
}
