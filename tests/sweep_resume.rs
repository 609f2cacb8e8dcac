//! Kill/resume semantics of the sweep engine: a sweep aborted after N
//! cells and resumed from its manifest produces a merge byte-identical to
//! an uninterrupted run, and — proven by the per-cell `sweep.runs.<cell>`
//! telemetry counters accumulated across both runs — no completed cell
//! ever re-executes.

use eecs::core::jsonio::Json;
use eecs::core::simulation::Parallelism;
use eecs::core::telemetry::Telemetry;
use eecs_bench::catalog::Rig;
use eecs_bench::sweep::{run_sweep, JobOrder, Shard, SweepOptions, SweepSpec};
use std::collections::BTreeMap;
use std::path::PathBuf;

fn spec() -> SweepSpec {
    SweepSpec::new("resume_grid")
        .axis("budget", ["9.0", "12.0"])
        .axis("fault_seed", ["3", "4", "5"])
}

fn grid_shard() -> Shard<'static> {
    Shard::new(spec(), |job| {
        let budget: f64 = job.value("budget").unwrap().parse().unwrap();
        let seed: u64 = job.value("fault_seed").unwrap().parse().unwrap();
        // The catalog's sweep rig (one prepare per binary), each cell
        // run serially inside the sweep's own worker pool.
        let report = Rig::Sweep
            .simulation()
            .with_parallelism(Parallelism::serial())
            .with_budget(budget)
            .map_err(|e| e.to_string())?
            .with_faults(
                eecs::net::fault::FaultPlan::seeded(seed),
                eecs::scene::sensor_fault::SensorFaultPlan::ideal(),
                eecs::net::fault::ControllerFaultPlan::none(),
            )
            .run()
            .map_err(|e| e.to_string())?;
        Ok(Json::Obj(vec![
            (
                "detected".into(),
                Json::Num(report.correctly_detected as f64),
            ),
            ("energy_j".into(), Json::Num(report.total_energy_j)),
        ]))
    })
}

fn counters(telemetry: &Telemetry) -> BTreeMap<String, u64> {
    telemetry
        .metrics()
        .counters()
        .map(|(k, v)| (k.to_owned(), v))
        .collect()
}

#[test]
fn aborted_sweep_resumes_to_identical_bytes_without_reexecution() {
    let shard = grid_shard();
    let total = spec().cell_count();
    let reference = run_sweep(
        &shard,
        &SweepOptions {
            workers: 1,
            ..Default::default()
        },
    )
    .expect("uninterrupted sweep")
    .merged
    .expect("uninterrupted merge");

    let manifest = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("sweep_resume_manifest.jsonl");
    let _ = std::fs::remove_file(&manifest);
    // One telemetry handle across kill + resume, so the per-cell run
    // counters accumulate over the whole history.
    let telemetry = Telemetry::recording(64);

    let killed = run_sweep(
        &shard,
        &SweepOptions {
            workers: 2,
            manifest_path: Some(manifest.clone()),
            order: JobOrder::Shuffled(23),
            stop_after: Some(2),
            telemetry: telemetry.clone(),
            ..Default::default()
        },
    )
    .expect("aborted sweep still succeeds");
    assert!(killed.merged.is_none(), "aborted sweep must not merge");
    assert_eq!(killed.executed, 2);

    let mid = counters(&telemetry);
    assert_eq!(mid.get("sweep.executed"), Some(&2));

    let resumed = run_sweep(
        &shard,
        &SweepOptions {
            workers: 2,
            manifest_path: Some(manifest.clone()),
            telemetry: telemetry.clone(),
            ..Default::default()
        },
    )
    .expect("resumed sweep");
    let _ = std::fs::remove_file(&manifest);

    assert_eq!(resumed.skipped, 2, "manifest-complete cells are skipped");
    assert_eq!(resumed.executed, total - 2);
    let merged = resumed.merged.expect("resumed merge");
    assert_eq!(
        merged.as_bytes(),
        reference.as_bytes(),
        "kill/resume history must not reach the merged bytes"
    );

    // No completed cell re-executed: every per-cell counter is exactly 1.
    let finals = counters(&telemetry);
    for job in spec().jobs() {
        let key = format!("sweep.runs.{}", job.cell_id());
        assert_eq!(finals.get(&key), Some(&1), "{key}");
    }
    assert_eq!(finals.get("sweep.executed"), Some(&(total as u64)));
    assert_eq!(finals.get("sweep.skipped"), Some(&2));
}

#[test]
fn foreign_manifest_is_rejected_not_resumed() {
    let shard = grid_shard();
    let manifest = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("sweep_foreign_manifest.jsonl");
    std::fs::write(
        &manifest,
        "{\"schema\":\"eecs-sweep-manifest/1\",\"sweep\":\"other\",\"shards\":[]}\n",
    )
    .expect("write foreign manifest");
    let err = run_sweep(
        &shard,
        &SweepOptions {
            workers: 1,
            manifest_path: Some(manifest.clone()),
            ..Default::default()
        },
    )
    .expect_err("foreign manifest must not be resumed from");
    let _ = std::fs::remove_file(&manifest);
    assert!(err.contains("different sweep"), "{err}");
}
