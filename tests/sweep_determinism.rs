//! The sweep engine's headline guarantee: the merged document is
//! **byte-identical** regardless of worker count or job execution order.
//!
//! A small (budget × fault-seed) grid over a real miniature simulation is
//! swept with workers ∈ {1, 2, 8} and with the job list shuffled; every
//! merge must match the single-worker reference byte for byte, and every
//! f64 inside must match bit for bit.

use eecs::core::jsonio::{self, Json};
use eecs::core::simulation::Parallelism;
use eecs_bench::catalog::Rig;
use eecs_bench::sweep::{run_sweep, JobOrder, Shard, SweepOptions, SweepSpec};

fn grid_shard() -> Shard<'static> {
    let spec = SweepSpec::new("det_grid")
        .axis("budget", ["9.0", "12.0"])
        .axis("fault_seed", ["3", "4"]);
    Shard::new(spec, |job| {
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
            ("gt".into(), Json::Num(report.gt_objects as f64)),
            ("energy_j".into(), Json::Num(report.total_energy_j)),
        ]))
    })
}

/// Every f64 leaf of a JSON value, in document order, as raw bits.
fn f64_bits(v: &Json, out: &mut Vec<u64>) {
    match v {
        Json::Num(n) => out.push(n.to_bits()),
        Json::Arr(items) => items.iter().for_each(|i| f64_bits(i, out)),
        Json::Obj(members) => members.iter().for_each(|(_, m)| f64_bits(m, out)),
        _ => {}
    }
}

#[test]
fn merged_sweep_is_byte_identical_across_workers_and_order() {
    let shard = grid_shard();
    let reference = run_sweep(
        &shard,
        &SweepOptions {
            workers: 1,
            ..Default::default()
        },
    )
    .expect("reference sweep")
    .merged
    .expect("reference merge");

    let mut ref_bits = Vec::new();
    f64_bits(
        &jsonio::parse(&reference).expect("reference parses"),
        &mut ref_bits,
    );
    assert!(!ref_bits.is_empty(), "grid cells carry f64 data");

    for (workers, order) in [
        (2, JobOrder::InOrder),
        (8, JobOrder::InOrder),
        (1, JobOrder::Shuffled(41)),
        (8, JobOrder::Shuffled(1234)),
    ] {
        let merged = run_sweep(
            &shard,
            &SweepOptions {
                workers,
                order,
                ..Default::default()
            },
        )
        .expect("sweep")
        .merged
        .expect("merge");

        // Raw bytes, the strongest form…
        assert_eq!(
            merged.as_bytes(),
            reference.as_bytes(),
            "workers={workers} order={order:?}"
        );
        // …and explicitly the f64 payloads bit for bit.
        let mut bits = Vec::new();
        f64_bits(&jsonio::parse(&merged).expect("merge parses"), &mut bits);
        assert_eq!(bits, ref_bits, "workers={workers} order={order:?}");
    }
}
