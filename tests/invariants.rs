//! Invariant battery: every scenario of the catalog
//! ([`eecs_bench::catalog::SCENARIOS`]) — ideal, lossy links, sensor
//! degradation, a partition and a flapping partition, a corruption storm
//! with a torn checkpoint, combined chaos with a controller crash, two
//! churn variants, and the golden failover, partition-heal and
//! quarantine paths — is run serial *and* parallel. Each finished run
//! must reach the path its scenario exists for
//! ([`eecs_bench::catalog::expect_path`]) and pass
//! [`eecs::core::testkit::InvariantChecker`]'s default rules: energy
//! conservation against per-camera capacities, assignment and
//! quarantine membership against the event-derived join/leave timeline,
//! and counter/event agreement. A final test proves replay bit-identity
//! through [`eecs::core::testkit::verify_replay`] on the richest
//! scenario. The rigs come prepared from the catalog, once per binary.

use eecs::core::simulation::{Parallelism, Simulation};
use eecs::core::telemetry::Telemetry;
use eecs::core::testkit::{verify_replay, InvariantChecker, InvariantContext};
use eecs::net::fault::{ControllerFaultPlan, FaultPlan};
use eecs::scene::sensor_fault::SensorFaultPlan;
use eecs_bench::catalog::{self, Rig};

/// Large enough that no scenario here ever evicts a trace event; the
/// harness asserts `trace_evicted() == 0` so a silent truncation can
/// never masquerade as a passing audit.
const TRACE_CAPACITY: usize = 16384;

/// Four cameras over four rounds gives churn a window to leave *and*
/// rejoin, and a partition room to split and heal.
const RIG: Rig = Rig::LongMission;

/// The battery's instance of every catalog scenario, by name.
fn scenario(name: &str) -> Simulation {
    match name {
        "ideal" => catalog::ideal(RIG),
        "net_chaos" => catalog::net_chaos(RIG),
        "sensor_chaos" => catalog::sensor_chaos(RIG),
        "partition" => catalog::partition(RIG, FaultPlan::ideal()),
        "flapping" => catalog::flapping(RIG, FaultPlan::ideal()),
        "integrity" => catalog::integrity(RIG, catalog::corruption_storm(17, 0.2), 5),
        "crash" => catalog::crash(RIG, 1),
        "churn" => catalog::churn(RIG),
        "churn_hetero" => catalog::churn_hetero(RIG, catalog::churn_plan(RIG)).with_faults(
            catalog::lossy_links(7, 0.15),
            SensorFaultPlan::ideal(),
            ControllerFaultPlan::none(),
        ),
        "failover_rot" => catalog::failover_rot(),
        "partition_heal" => catalog::partition_heal(),
        "quarantine" => catalog::quarantine(),
        other => panic!("unknown scenario {other}"),
    }
}

/// Run `name` under `parallel`, check it reached its path, then put the
/// finished run in front of the default rule set.
fn audit(name: &str, parallel: Parallelism) {
    let sim = scenario(name).with_parallelism(parallel);
    let tel = Telemetry::recording(TRACE_CAPACITY);
    let report = sim
        .with_telemetry(tel.clone())
        .run()
        .unwrap_or_else(|e| panic!("{name} run completes: {e}"));
    assert_eq!(
        tel.trace_evicted(),
        0,
        "{name}: trace capacity too small for a trustworthy audit"
    );
    if let Err(unmet) = catalog::expect_path(name, &report) {
        panic!("{name}: {unmet}");
    }
    let events = tel.events();
    let capacities: Vec<f64> = sim.fleet().iter().map(|p| p.battery_capacity_j).collect();
    let ctx = InvariantContext {
        report: &report,
        events: &events,
        capacities: &capacities,
    };
    InvariantChecker::with_defaults().assert_clean(&ctx);
}

#[test]
fn all_scenarios_hold_invariants_serially() {
    for name in catalog::SCENARIOS {
        audit(name, Parallelism::serial());
    }
}

#[test]
fn all_scenarios_hold_invariants_in_parallel() {
    for name in catalog::SCENARIOS {
        audit(name, Parallelism::default());
    }
}

/// The churn scenarios actually churned — otherwise the membership
/// rules above were vacuously auditing a fixed fleet.
#[test]
fn churn_scenarios_exercise_joins_and_leaves() {
    for name in ["churn", "churn_hetero"] {
        let report = scenario(name).run().expect("churn run completes");
        assert!(
            report.camera_leaves >= 2,
            "{name}: expected both scheduled departures, saw {}",
            report.camera_leaves
        );
        assert!(
            report.camera_joins >= 1,
            "{name}: camera 3 should have rejoined, saw {} joins",
            report.camera_joins
        );
    }
}

/// The richest scenario replays bit-identically — `verify_replay` runs
/// it twice and demands equality before handing the report back.
#[test]
fn churn_hetero_replays_bit_identically() {
    let report = verify_replay(&scenario("churn_hetero")).expect("replay is bit-identical");
    assert!(
        report.rounds.len() >= 2,
        "needs multiple rounds to mean anything"
    );
}

/// A deliberately broken rule reports; the defaults never do. Guards
/// against `assert_clean` silently passing because no rules loaded.
#[test]
fn checker_is_actually_armed() {
    let checker = InvariantChecker::with_defaults();
    assert!(
        checker.rule_names().len() >= 4,
        "default rule set lost rules: {:?}",
        checker.rule_names()
    );
    let sim = scenario("ideal");
    let report = sim.run().expect("run");
    let capacities: Vec<f64> = sim.fleet().iter().map(|p| p.battery_capacity_j).collect();
    let ctx = InvariantContext {
        report: &report,
        events: &[],
        capacities: &capacities,
    };
    let mut checker = InvariantChecker::with_defaults();
    checker.add_rule("always-fires", |_ctx| vec!["sentinel violation".into()]);
    let violations = checker.check(&ctx);
    assert!(
        violations.iter().any(|v| v.contains("sentinel violation")),
        "custom rule did not run: {violations:?}"
    );
    assert_eq!(
        violations.len(),
        1,
        "default rules flagged a clean run: {violations:?}"
    );
}
