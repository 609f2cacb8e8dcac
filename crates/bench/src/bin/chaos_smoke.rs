//! Chaos smoke: the chaos scenarios of `eecs_bench::catalog` that CI
//! gates, each run once per seed given on the command line (default:
//! 1 2 3), all in one process with each rig prepared once.
//!
//! ```bash
//! cargo run --release -p eecs-bench --bin chaos_smoke -- 1 2 3
//! cargo run --release -p eecs-bench --bin chaos_smoke -- --telemetry 7
//! ```
//!
//! Per seed:
//! - `crash`: lossy links, harsh sensors and a controller crash on the
//!   two-round rig;
//! - `partition` and `flapping`: a clean and a flapping two-island split
//!   over lossy links on the four-round rig;
//! - `integrity`: a wire corruption storm plus a torn checkpoint write
//!   under the controller crash, on the two-round rig;
//! - `churn_hetero`: a flagship/midrange/lowend fleet over lossy links
//!   with the controller crash, whose last camera leaves for two rounds
//!   and rejoins, on the four-round rig.
//!
//! Every run must replay bit-for-bit (report, trace and metrics), pass
//! the default invariant audit, reach the path its scenario exists for
//! (`catalog::expect_path`), and fail over exactly when its plan
//! crashes the controller. Any violation prints the flight-recorder tail
//! of every round, failover round included, and exits non-zero. With
//! `--telemetry` each passing run also prints the full summary table and
//! the metrics registry.

use eecs_bench::catalog::{self, Rig, CRASH_ROUND};
use eecs_core::simulation::Simulation;
use eecs_core::telemetry::summary::render_summary;
use eecs_core::telemetry::Telemetry;
use eecs_core::testkit::{InvariantChecker, InvariantContext};
use eecs_scene::sensor_fault::SensorFaultPlan;

/// Rounds of trace dumped on a failed check: every round of the
/// four-round rig (`tail_rounds` is inclusive of the newest round), so
/// the dump always holds the failover round.
const POSTMORTEM_ROUNDS: usize = 4;

/// Flight-recorder capacity: no scenario here evicts, so the invariant
/// audit sees every event.
const TRACE_CAPACITY: usize = 16384;

/// One smoke scenario: its catalog name, its run under a seed, and
/// whether its plan crashes the controller.
struct Smoke {
    name: &'static str,
    build: fn(u64) -> Simulation,
    crashes: bool,
}

const MATRIX: [Smoke; 5] = [
    Smoke {
        name: "crash",
        build: |seed| catalog::crash(Rig::Mission, seed),
        crashes: true,
    },
    Smoke {
        name: "partition",
        build: |seed| catalog::partition(Rig::LongMission, catalog::lossy_links(seed, 0.2)),
        crashes: false,
    },
    Smoke {
        name: "flapping",
        build: |seed| catalog::flapping(Rig::LongMission, catalog::lossy_links(seed, 0.2)),
        crashes: false,
    },
    Smoke {
        name: "integrity",
        build: |seed| catalog::integrity(Rig::Mission, catalog::corruption_storm(seed, 0.25), seed),
        crashes: true,
    },
    Smoke {
        name: "churn_hetero",
        build: |seed| {
            let rig = Rig::LongMission;
            catalog::churn_hetero(rig, catalog::leave_and_rejoin(rig, seed)).with_faults(
                catalog::lossy_links(seed, 0.2),
                SensorFaultPlan::ideal(),
                catalog::controller_crash(),
            )
        },
        crashes: true,
    },
];

fn ensure(cond: bool, msg: impl FnOnce() -> String) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(msg())
    }
}

/// Runs one scenario under one seed, recording into `tel`; `Err`
/// carries the violation.
fn check(smoke: &Smoke, seed: u64, tel: &Telemetry, show_telemetry: bool) -> Result<(), String> {
    let sim = (smoke.build)(seed);
    let report = sim
        .with_telemetry(tel.clone())
        .run()
        .map_err(|e| format!("run failed: {e}"))?;
    // The replay records into its own handle so `tel` stays a single run
    // — and the two streams must match byte-for-byte.
    let replay_tel = Telemetry::recording(TRACE_CAPACITY);
    let replay = sim
        .with_telemetry(replay_tel.clone())
        .run()
        .map_err(|e| format!("replay failed: {e}"))?;
    ensure(report == replay, || "run is not deterministic".into())?;
    ensure(
        tel.trace_json().ok() == replay_tel.trace_json().ok()
            && tel.metrics_json().ok() == replay_tel.metrics_json().ok(),
        || "telemetry stream is not deterministic".into(),
    )?;
    ensure(tel.trace_evicted() == 0, || {
        "flight recorder overflowed; the audit would be partial".into()
    })?;

    let events = tel.events();
    let capacities: Vec<f64> = sim.fleet().iter().map(|p| p.battery_capacity_j).collect();
    let violations = InvariantChecker::with_defaults().check(&InvariantContext {
        report: &report,
        events: &events,
        capacities: &capacities,
    });
    ensure(violations.is_empty(), || {
        format!("invariant violations:\n  {}", violations.join("\n  "))
    })?;
    catalog::expect_path(smoke.name, &report)?;
    let failover_rounds: Vec<usize> = report.failovers.iter().map(|f| f.round).collect();
    let expected: &[usize] = if smoke.crashes { &[CRASH_ROUND] } else { &[] };
    ensure(failover_rounds == expected, || {
        format!("expected failovers in rounds {expected:?}, got {failover_rounds:?}")
    })?;

    println!(
        "seed {seed} [{}]: OK — found {}/{}, {:.2} J, degraded {} dropped {} corrupted {}, \
         failovers {} rollbacks {}, partitions {} elections {} reconciliations {}, \
         leaves {} joins {}",
        smoke.name,
        report.correctly_detected,
        report.gt_objects,
        report.total_energy_j,
        report.degraded_frames,
        report.dropped_frames,
        report.corrupted_frames,
        report.failovers.len(),
        report.checkpoint_rollbacks,
        report.partitions,
        report.elections,
        report.reconciliations,
        report.camera_leaves,
        report.camera_joins,
    );
    if show_telemetry {
        println!("{}", render_summary(&report, tel));
        println!(
            "metrics: {}",
            tel.metrics_json()
                .map_err(|e| format!("metrics dump failed: {e}"))?
        );
    }
    Ok(())
}

fn main() {
    let mut show_telemetry = false;
    let mut seeds: Vec<u64> = Vec::new();
    for arg in std::env::args().skip(1) {
        if arg == "--telemetry" {
            show_telemetry = true;
        } else {
            seeds.push(arg.parse().unwrap_or_else(|_| panic!("bad seed {arg:?}")));
        }
    }
    if seeds.is_empty() {
        seeds = vec![1, 2, 3];
    }
    eprintln!(
        "chaos smoke: {} scenarios over seeds {seeds:?}",
        MATRIX.len()
    );

    for smoke in &MATRIX {
        for &seed in &seeds {
            // Always record: on a failed check the flight recorder is the
            // post-mortem, and the miniature missions are cheap to trace.
            let tel = Telemetry::recording(TRACE_CAPACITY);
            if let Err(violation) = check(smoke, seed, &tel, show_telemetry) {
                eprintln!("FAIL: seed {seed} [{}]: {violation}", smoke.name);
                eprintln!("flight recorder, last {POSTMORTEM_ROUNDS} rounds:");
                match tel.tail_json(POSTMORTEM_ROUNDS) {
                    Ok(tail) => eprintln!("{tail}"),
                    Err(e) => eprintln!("(tail dump failed: {e})"),
                }
                std::process::exit(1);
            }
        }
    }
    println!(
        "chaos smoke OK ({} scenarios x {} seeds)",
        MATRIX.len(),
        seeds.len()
    );
}
