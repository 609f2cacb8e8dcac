//! Integrity end-to-end: a four-camera EECS mission under a seeded
//! bit-flip corruption storm must detect every corrupt frame at the
//! checksum trailer (never consume one), pay for the wasted attempts in
//! energy, and stay bit-for-bit deterministic; a torn checkpoint write
//! must roll the crash restore back exactly one generation; and inert
//! integrity plans must leave every report byte-identical to runs that
//! never heard of them.

use eecs::core::checkpoint::CheckpointFaultPlan;
use eecs::core::simulation::{Parallelism, Simulation};
use eecs::core::telemetry::summary::golden_document;
use eecs::core::telemetry::Telemetry;
use eecs::net::fault::{ControllerFaultPlan, CorruptionPlan, FaultPlan};
use eecs::scene::sensor_fault::SensorFaultPlan;
use eecs_bench::catalog::{self, Rig, CRASH_ROUND};

/// Four cameras over two rounds, prepared once for the whole binary.
const RIG: Rig = Rig::Mission;

/// Lossy links plus a heavy corruption storm on every wire path.
fn storm_simulation() -> Simulation {
    RIG.simulation().with_faults(
        catalog::corruption_storm(17, 0.3),
        SensorFaultPlan::ideal(),
        ControllerFaultPlan::none(),
    )
}

#[test]
fn corruption_storm_completes_with_graceful_degradation() {
    let storm = storm_simulation().run().expect("storm run completes");
    let clean = catalog::ideal(RIG).run().expect("clean run completes");

    // The storm actually fired, and every corrupt frame was caught at the
    // checksum — counted, retransmitted, never consumed.
    assert!(storm.corrupted_frames > 0, "corruption plan never fired");
    let total = storm.total_transport();
    assert_eq!(
        total.corrupted, total.rejected,
        "every corrupt uplink frame is rejected, none admitted"
    );
    assert!(total.retries > 0, "rejected frames must force retries");

    // Degradation is graceful: the mission still completes every round
    // with live cameras and real detections.
    assert!(!storm.rounds.is_empty());
    assert!(storm.rounds.iter().all(|r| !r.active.is_empty()));
    assert!(storm.correctly_detected > 0, "storm run still detects");

    // The wasted attempts are charged: a corrupted mission costs strictly
    // more energy than the same mission on clean links.
    assert!(
        storm.total_energy_j > clean.total_energy_j,
        "corruption tax {} J must exceed clean {} J",
        storm.total_energy_j,
        clean.total_energy_j
    );
}

#[test]
fn corruption_storm_replays_bit_for_bit_serial_and_parallel() {
    let sim = storm_simulation();
    let a = sim.run().expect("first run");
    let b = sim.run().expect("replay");
    assert_eq!(a, b, "same seed, same report");
    assert_eq!(a.total_energy_j.to_bits(), b.total_energy_j.to_bits());

    // Worker count must not leak into anything — report, metrics, trace.
    let tel_serial = Telemetry::recording(65536);
    let serial = sim
        .with_parallelism(Parallelism::serial())
        .with_telemetry(tel_serial.clone())
        .run()
        .expect("serial run");
    let tel_parallel = Telemetry::recording(65536);
    let parallel = sim
        .with_parallelism(Parallelism::default())
        .with_telemetry(tel_parallel.clone())
        .run()
        .expect("parallel run");
    assert_eq!(serial, parallel, "serial and parallel reports diverged");
    let doc_serial = golden_document("storm", &serial, &tel_serial).expect("serial doc");
    let doc_parallel = golden_document("storm", &parallel, &tel_parallel).expect("parallel doc");
    assert_eq!(doc_serial, doc_parallel, "golden documents diverged");
    assert_eq!(
        tel_serial.trace_json().expect("serial trace"),
        tel_parallel.trace_json().expect("parallel trace"),
        "trace streams diverged"
    );
}

#[test]
fn torn_checkpoint_rolls_back_one_generation_and_replays() {
    // Generation 1 is the initial checkpoint; the round-0 snapshot lands
    // as generation 2 and is torn mid-write, so the crash restore must
    // fall back exactly one generation — and the whole recovery must
    // itself be deterministic.
    let sim = catalog::integrity(RIG, catalog::corruption_storm(5, 0.2), 5);

    let report = sim.run().expect("torn-checkpoint run completes");
    assert_eq!(
        report.checkpoint_rollbacks, 1,
        "torn newest generation must roll back exactly once"
    );
    assert_eq!(report.failovers.len(), 1, "crash must fail over once");
    assert_eq!(report.failovers[0].round, CRASH_ROUND);
    // The fallback generation is the initial checkpoint of round 0.
    assert_eq!(report.failovers[0].checkpoint_round, 0);
    assert!(!report.rounds.is_empty());
    assert!(report.rounds.iter().all(|r| !r.active.is_empty()));

    // Post-failover determinism: the run that recovered through the torn
    // store replays bit-for-bit, telemetry included.
    let tel_a = Telemetry::recording(65536);
    let a = sim.with_telemetry(tel_a.clone()).run().expect("run a");
    let tel_b = Telemetry::recording(65536);
    let b = sim.with_telemetry(tel_b.clone()).run().expect("run b");
    assert_eq!(a, b, "recovery is not deterministic");
    assert_eq!(
        tel_a.trace_json().expect("trace a"),
        tel_b.trace_json().expect("trace b"),
        "recovery telemetry is not deterministic"
    );
    assert_eq!(
        tel_a.metrics_json().expect("metrics a"),
        tel_b.metrics_json().expect("metrics b"),
    );
}

/// The three canonical golden scenarios of the catalog, on this rig.
fn scenario(name: &str) -> Simulation {
    match name {
        "ideal" => catalog::ideal(RIG),
        "net_chaos" => catalog::net_chaos(RIG),
        "sensor_chaos" => catalog::sensor_chaos(RIG),
        other => panic!("unknown scenario {other}"),
    }
}

/// Re-attaches a scenario's own fault plan with an explicit no-op
/// corruption plan bolted on.
fn with_inert_plans(name: &str) -> Simulation {
    let (links, sensor) = match name {
        "ideal" => (FaultPlan::ideal(), SensorFaultPlan::ideal()),
        "net_chaos" => (catalog::net_chaos_links(), SensorFaultPlan::ideal()),
        "sensor_chaos" => (FaultPlan::ideal(), catalog::sensor_chaos_plan(RIG)),
        other => panic!("unknown scenario {other}"),
    };
    RIG.simulation()
        .with_faults(
            links.with_corruption(CorruptionPlan::none()),
            sensor,
            ControllerFaultPlan::none(),
        )
        .with_checkpoint_faults(CheckpointFaultPlan::none())
}

#[test]
fn inert_integrity_plans_leave_reports_byte_identical() {
    // A disabled corruption plan and a disabled checkpoint fault plan
    // must consume zero RNG rolls and emit zero new fields: the golden
    // document of every canonical scenario is byte-for-byte the same
    // whether the plans are attached or the run never heard of them.
    for name in ["ideal", "net_chaos", "sensor_chaos"] {
        let tel_plain = Telemetry::recording(65536);
        let plain = scenario(name)
            .with_telemetry(tel_plain.clone())
            .run()
            .expect("plain run");
        let tel_inert = Telemetry::recording(65536);
        let inert = with_inert_plans(name)
            .with_telemetry(tel_inert.clone())
            .run()
            .expect("inert run");

        assert_eq!(plain, inert, "{name}: inert plans changed the report");
        assert_eq!(plain.corrupted_frames, 0);
        assert_eq!(plain.checkpoint_rollbacks, 0);
        let doc_plain = golden_document(name, &plain, &tel_plain).expect("plain doc");
        let doc_inert = golden_document(name, &inert, &tel_inert).expect("inert doc");
        assert_eq!(
            doc_plain, doc_inert,
            "{name}: inert plans changed the golden document bytes"
        );
        assert!(
            !doc_plain.contains("corrupted_frames") && !doc_plain.contains("checkpoint_rollbacks"),
            "{name}: zero counters must not appear in the document"
        );
        assert_eq!(
            tel_plain.trace_json().expect("plain trace"),
            tel_inert.trace_json().expect("inert trace"),
            "{name}: inert plans changed the trace stream"
        );
    }
}
