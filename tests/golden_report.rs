//! Golden-master snapshots: seven canonical runs (ideal, net-chaos,
//! sensor-chaos, churn-fleet, and the failover, partition-heal and
//! quarantine paths) serialized — report + final metrics registry —
//! through `eecs_core::jsonio` and compared byte-for-byte against
//! checked-in `tests/golden/*.json`. The CRC32 of each run's full trace
//! is pinned in `tests/golden/trace_crc.json`, so a reordered event
//! fails even when the report and metrics are unchanged.
//!
//! Regenerate after an intentional behavior change with:
//!
//! ```sh
//! EECS_BLESS=1 cargo test --test golden_report
//! ```
//!
//! Every scenario runs under both serial and default (parallel)
//! execution and must produce the same bytes — the snapshot doubles as
//! the determinism regression net for the telemetry layer. The runs are
//! scenarios of `eecs_bench::catalog` on its golden rigs, and each must
//! reach the path its scenario exists for.

use eecs::core::jsonio::Json;
use eecs::core::simulation::{Parallelism, Simulation, SimulationReport};
use eecs::core::telemetry::summary::golden_document;
use eecs::core::telemetry::Telemetry;
use eecs::net::checksum::crc32;
use eecs::net::fault::{ControllerFaultPlan, FaultPlan, LinkFaults};
use eecs::scene::sensor_fault::{SensorFaultPlan, SensorImpairments};
use eecs_bench::catalog::{self, Rig};
use std::path::PathBuf;

/// Flight-recorder capacity for golden runs — large enough that nothing
/// is evicted, so the trace comparisons see the whole run.
const TRACE_CAPACITY: usize = 4096;

/// The seven golden files and the catalog scenario each one pins.
const SCENARIOS: [(&str, &str); 7] = [
    ("ideal", "ideal"),
    ("net_chaos", "net_chaos"),
    ("sensor_chaos", "sensor_chaos"),
    ("churn_fleet", "churn_hetero"),
    ("failover_rot", "failover_rot"),
    ("partition_heal", "partition_heal"),
    ("quarantine", "quarantine"),
];

/// The golden instance of each scenario: the 2-camera golden rig, or
/// its 3-camera heterogeneous fleet with the lowend camera leaving at
/// round 1 and rejoining at round 3.
fn scenario(name: &str) -> Simulation {
    match name {
        "ideal" => catalog::ideal(Rig::GoldenPair),
        "net_chaos" => catalog::net_chaos(Rig::GoldenPair),
        "sensor_chaos" => catalog::sensor_chaos(Rig::GoldenPair),
        "churn_fleet" => catalog::churn_hetero(
            Rig::GoldenTrio,
            catalog::leave_and_rejoin(Rig::GoldenTrio, 13),
        ),
        "failover_rot" => catalog::failover_rot(),
        "partition_heal" => catalog::partition_heal(),
        "quarantine" => catalog::quarantine(),
        other => panic!("unknown scenario {other}"),
    }
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.json"))
}

/// Runs one scenario under the given parallelism with a fresh recording
/// telemetry handle; returns `(report, golden document, full trace JSON)`.
fn run_scenario(name: &str, parallel: Parallelism) -> (SimulationReport, String, String) {
    let tel = Telemetry::recording(TRACE_CAPACITY);
    let sim = scenario(name)
        .with_telemetry(tel.clone())
        .with_parallelism(parallel);
    let report = sim.run().expect("scenario run");
    let doc = golden_document(name, &report, &tel).expect("golden document");
    let trace = tel.trace_json().expect("trace dump");
    assert_eq!(
        tel.trace_evicted(),
        0,
        "{name}: raise TRACE_CAPACITY, the recorder overflowed"
    );
    (report, doc, trace)
}

/// Compares `actual` byte-for-byte with `tests/golden/<name>.json`, or
/// rewrites that file under `EECS_BLESS=1`.
fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("EECS_BLESS").is_some_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e}\nrun `EECS_BLESS=1 cargo test --test golden_report` to generate",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "{name}: golden mismatch — if the change is intentional, re-bless with \
         EECS_BLESS=1 cargo test --test golden_report"
    );
}

#[test]
fn golden_reports_match_byte_for_byte() {
    let mut trace_crcs = Vec::new();
    for (name, catalog_name) in SCENARIOS {
        let (report, serial_doc, serial_trace) = run_scenario(name, Parallelism::serial());
        let (_, parallel_doc, parallel_trace) = run_scenario(name, Parallelism::default());

        // Same seed + config ⇒ same bytes, regardless of worker count.
        assert_eq!(
            serial_doc, parallel_doc,
            "{name}: serial and parallel documents diverged"
        );
        assert_eq!(
            serial_trace, parallel_trace,
            "{name}: serial and parallel trace streams diverged"
        );
        // The document is real JSON and re-encoding it is a fixed point.
        let reparsed = eecs::core::jsonio::parse(&serial_doc).expect("valid JSON");
        assert_eq!(reparsed.write().expect("re-encode"), serial_doc);

        // The path the scenario exists to pin must actually fire —
        // otherwise its golden would silently stop covering it.
        if let Err(unmet) = catalog::expect_path(catalog_name, &report) {
            panic!("{name}: {unmet}");
        }
        check_golden(name, &serial_doc);
        trace_crcs.push((
            name.to_string(),
            Json::Num(f64::from(crc32(serial_trace.as_bytes()))),
        ));
    }
    // The report and metrics do not see event order; the trace does.
    check_golden("trace_crc", &Json::Obj(trace_crcs).write().expect("encode"));
}

/// The 3×2 (fault-seed × budget) micro-sweep behind `sweep_tiny.json`.
fn tiny_sweep_shard() -> eecs_bench::sweep::Shard<'static> {
    let spec = eecs_bench::sweep::SweepSpec::new("sweep_tiny")
        .axis("fault_seed", ["1", "2", "3"])
        .axis("budget", ["9.0", "12.0"]);
    eecs_bench::sweep::Shard::new(spec, |job| {
        let seed: u64 = job.value("fault_seed").unwrap().parse().unwrap();
        let budget: f64 = job.value("budget").unwrap().parse().unwrap();
        let report = Rig::GoldenPair
            .simulation()
            .with_budget(budget)
            .map_err(|e| e.to_string())?
            .with_faults(
                FaultPlan::seeded(seed).with_default_faults(LinkFaults::lossy(0.25)),
                SensorFaultPlan::ideal(),
                ControllerFaultPlan::none(),
            )
            .with_parallelism(Parallelism::serial())
            .run()
            .map_err(|e| e.to_string())?;
        Ok(Json::Obj(vec![
            (
                "detected".into(),
                Json::Num(report.correctly_detected as f64),
            ),
            ("gt".into(), Json::Num(report.gt_objects as f64)),
            ("energy_j".into(), Json::Num(report.total_energy_j)),
            (
                "retries".into(),
                Json::Num(report.total_transport().retries as f64),
            ),
        ]))
    })
}

#[test]
fn golden_sweep_tiny_matches_byte_for_byte() {
    use eecs_bench::sweep::{run_sweep, SweepOptions};
    let shard = tiny_sweep_shard();
    let sweep = |workers: usize| {
        run_sweep(
            &shard,
            &SweepOptions {
                workers,
                ..Default::default()
            },
        )
        .expect("tiny sweep")
        .merged
        .expect("tiny sweep merge")
    };
    let serial = sweep(1);
    assert_eq!(
        serial,
        sweep(2),
        "sweep_tiny: one and two workers must merge to the same bytes"
    );
    // The merged document is real JSON and re-encoding it is a fixed point.
    let reparsed = eecs::core::jsonio::parse(&serial).expect("valid JSON");
    assert_eq!(reparsed.write().expect("re-encode"), serial);

    check_golden("sweep_tiny", &serial);
}

#[test]
fn null_telemetry_is_bit_identical_to_untelemetered_runs() {
    // The base simulation carries the default `Telemetry::null()` — the
    // exact HEAD configuration. Attaching a recording handle must not
    // change a single bit of the report, and an explicit null handle
    // must be indistinguishable from never touching telemetry at all.
    let base = scenario("ideal");
    let untouched = base.run().expect("untelemetered run");
    let null = base
        .with_telemetry(Telemetry::null())
        .run()
        .expect("null-sink run");
    let recorded_tel = Telemetry::recording(TRACE_CAPACITY);
    let recorded = base
        .with_telemetry(recorded_tel.clone())
        .run()
        .expect("recording run");

    for report in [&null, &recorded] {
        assert_eq!(&untouched, report);
        assert_eq!(
            untouched.total_energy_j.to_bits(),
            report.total_energy_j.to_bits()
        );
        for (a, b) in untouched
            .per_camera_energy
            .iter()
            .zip(&report.per_camera_energy)
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
    // And the recording run actually recorded something.
    assert!(!recorded_tel.metrics().is_empty());
    assert!(!recorded_tel.events().is_empty());
}

/// Long-run telemetry soak: 4 cameras, every chaos layer armed, and a
/// deliberately tiny flight recorder. Run with `EECS_SOAK=1 ci.sh` or
/// `cargo test -- --ignored`.
#[test]
#[ignore]
fn telemetry_soak_bounded_memory_and_determinism() {
    let sim = Rig::LongMission.simulation().with_faults(
        FaultPlan::seeded(42).with_default_faults(LinkFaults::lossy(0.2)),
        SensorFaultPlan::seeded(42).with_default_impairments(SensorImpairments::harsh()),
        ControllerFaultPlan::none().with_crash(1, 2),
    );

    const SMALL: usize = 128;
    let run = |parallel: Parallelism| {
        let tel = Telemetry::recording(SMALL);
        let report = sim
            .with_telemetry(tel.clone())
            .with_parallelism(parallel)
            .run()
            .expect("soak run");
        (report, tel)
    };
    let (report_a, tel_a) = run(Parallelism::serial());
    let (report_b, tel_b) = run(Parallelism::default());

    // Memory stays bounded and the ring actually wrapped.
    assert!(tel_a.events().len() <= SMALL);
    assert!(tel_a.trace_evicted() > 0, "soak too short to wrap the ring");
    // The tail still covers the newest rounds, including the last one.
    let last_round = report_a.rounds.len() - 1;
    assert!(tel_a.tail_events(1).iter().all(|e| e.round() == last_round));
    // Bit-identical across executions, even under chaos + failover.
    assert_eq!(report_a, report_b);
    assert_eq!(report_a.failovers.len(), 1);
    assert_eq!(
        tel_a.metrics_json().expect("metrics"),
        tel_b.metrics_json().expect("metrics")
    );
    assert_eq!(
        tel_a.trace_json().expect("trace"),
        tel_b.trace_json().expect("trace")
    );
}
