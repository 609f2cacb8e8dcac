//! End-to-end pipeline benchmarks: cross-camera re-identification fusion,
//! single-frame detection per algorithm, and a full assessment →
//! selection → operation round on the miniature dataset, run both serial
//! and parallel.
//!
//! Unlike the other bench targets this one has a custom `main`: after the
//! benches run it computes the serial-vs-parallel speedup of the full
//! round and writes `BENCH_pipeline.json` at the repository root — the
//! machine-readable trajectory CI smoke-checks (`check_bench`) and future
//! PRs regress against. `EECS_BENCH_ITERS=1` keeps smoke runs short.

use criterion::{black_box, Criterion};
use eecs_bench::artifacts::Artifacts;
use eecs_bench::report::{self, BenchEntry};
use eecs_bench::serving::{mixed_batch, service_base};
use eecs_bench::sweep::{run_sweep, Shard, SweepOptions, SweepSpec};
use eecs_bench::Scale;
use eecs_core::config::EecsConfig;
use eecs_core::metadata::{CameraReport, ObjectMetadata};
use eecs_core::reid::{fuse_reports, ReidConfig};
use eecs_core::simulation::{OperatingMode, Parallelism, Simulation, SimulationConfig};
use eecs_detect::bank::DetectorBank;
use eecs_detect::c4_detector::census_transform;
use eecs_detect::detection::BBox;
use eecs_detect::pyramid::ScaleSchedule;
use eecs_detect::{CensusCodePlane, Detector, FrameFeatures};
use eecs_geometry::calibration::{landmark_grid, GroundCalibration};
use eecs_geometry::camera::Camera;
use eecs_geometry::point::{Point2, Point3};
use eecs_scene::dataset::{DatasetId, DatasetProfile};
use eecs_scene::sequence::VideoFeed;
use eecs_vision::image::GrayImage;
use eecs_vision::resize::{resize_gray, resize_gray_reference};

fn reid_bench(c: &mut Criterion) {
    // 4 cameras × 8 people per frame.
    let lm = landmark_grid(10.0, 5);
    let mut cams = Vec::new();
    let mut cals = Vec::new();
    for k in 0..4 {
        let angle = k as f64 / 4.0 * std::f64::consts::TAU;
        let cam = Camera::new(
            Point3::new(5.0 + 8.0 * angle.cos(), 5.0 + 8.0 * angle.sin(), 2.8),
            angle + std::f64::consts::PI,
            0.33,
            320.0,
            360,
            288,
        );
        cals.push(GroundCalibration::from_camera(&cam, &lm).unwrap());
        cams.push(cam);
    }
    let reports: Vec<CameraReport> = cams
        .iter()
        .enumerate()
        .map(|(j, cam)| CameraReport {
            objects: (0..8)
                .filter_map(|i| {
                    let a = i as f64 / 8.0 * std::f64::consts::TAU;
                    let t = Point2::new(5.0 + 2.5 * a.cos(), 5.0 + 2.5 * a.sin());
                    cam.person_bbox(&t, 1.7, 0.5)
                        .ok()
                        .map(|(x0, y0, x1, y1)| ObjectMetadata {
                            camera: j,
                            bbox: BBox::new(x0, y0, x1, y1),
                            probability: 0.8,
                            color: vec![i as f64 * 0.1; 8],
                        })
                })
                .collect(),
        })
        .collect();
    let reid = ReidConfig {
        ground_gate_m: 0.9,
        color_gate: 8.0,
        color_metric: None,
    };
    c.bench_function("reid_fuse_4cams_8people", |b| {
        b.iter(|| black_box(fuse_reports(black_box(&reports), &cals, &reid)))
    });
}

/// One miniature-resolution frame through each of the four detectors.
fn detect_bench(c: &mut Criterion) {
    let bank = DetectorBank::train_quick(5).expect("bank");
    let profile = DatasetProfile::miniature(DatasetId::Lab);
    let frame = VideoFeed::open(profile, 0)
        .annotated_frames(40, 46)
        .into_iter()
        .next()
        .expect("annotated frame")
        .image;
    let mut group = c.benchmark_group("detect_single_frame");
    for (alg, det) in bank.all() {
        group.bench_function(format!("{alg}"), |b| {
            b.iter(|| black_box(det.detect(black_box(&frame))))
        });
    }
    group.finish();
}

/// Per-kernel microbenches: the optimized detect path against the kept
/// pre-optimization reference of each algorithm, plus precompute-only and
/// cached-scan slices of the C4 pipeline and the census and resize
/// kernels against their oracles. Before any timing, each pair is
/// asserted bit-identical on the bench frame, so a speedup can never be
/// reported for a path that drifted. Returns the C4 cascade reject ratio
/// (computed outside the timing loops).
fn kernel_bench(c: &mut Criterion) -> f64 {
    let bank = DetectorBank::train_quick(5).expect("bank");
    let profile = DatasetProfile::miniature(DatasetId::Lab);
    let frame = VideoFeed::open(profile, 0)
        .annotated_frames(40, 46)
        .into_iter()
        .next()
        .expect("annotated frame")
        .image;

    let assert_same = |got: &eecs_detect::detection::DetectionOutput,
                       want: &eecs_detect::detection::DetectionOutput,
                       alg: &str| {
        assert_eq!(got.ops, want.ops, "{alg}: ops diverged from reference");
        assert_eq!(got.detections.len(), want.detections.len(), "{alg}: count");
        for (a, b) in got.detections.iter().zip(&want.detections) {
            assert_eq!(a.score.to_bits(), b.score.to_bits(), "{alg}: score bits");
            assert_eq!(a.bbox, b.bbox, "{alg}: bbox");
        }
    };
    assert_same(
        &bank.c4().detect(&frame),
        &bank.c4().detect_reference(&frame),
        "C4",
    );
    assert_same(
        &bank.hog().detect(&frame),
        &bank.hog().detect_reference(&frame),
        "HOG",
    );
    assert_same(
        &bank.lsvm().detect(&frame),
        &bank.lsvm().detect_reference(&frame),
        "LSVM",
    );
    assert_same(
        &bank.acf().detect(&frame),
        &bank.acf().detect_reference(&frame),
        "ACF",
    );

    let mut group = c.benchmark_group("kernels");
    group.bench_function("c4_optimized", |b| {
        b.iter(|| black_box(bank.c4().detect(black_box(&frame))))
    });
    group.bench_function("c4_reference", |b| {
        b.iter(|| black_box(bank.c4().detect_reference(black_box(&frame))))
    });
    group.bench_function("hog_optimized", |b| {
        b.iter(|| black_box(bank.hog().detect(black_box(&frame))))
    });
    group.bench_function("hog_reference", |b| {
        b.iter(|| black_box(bank.hog().detect_reference(black_box(&frame))))
    });
    group.bench_function("lsvm_optimized", |b| {
        b.iter(|| black_box(bank.lsvm().detect(black_box(&frame))))
    });
    group.bench_function("lsvm_reference", |b| {
        b.iter(|| black_box(bank.lsvm().detect_reference(black_box(&frame))))
    });
    group.bench_function("acf_optimized", |b| {
        b.iter(|| black_box(bank.acf().detect(black_box(&frame))))
    });
    group.bench_function("acf_reference", |b| {
        b.iter(|| black_box(bank.acf().detect_reference(black_box(&frame))))
    });
    // Pipeline slices: per-level precompute alone (fresh cache every
    // iteration, so each level's code plane is rebuilt) and the scan alone
    // (cache warmed once, so iterations measure pure window scoring).
    let c4_cfg = bank.c4().config().clone();
    group.bench_function("c4_precompute_levels", |b| {
        b.iter(|| {
            let cache = FrameFeatures::new(&frame);
            let (iw, ih) = (c4_cfg.internal_w, c4_cfg.internal_h);
            for scale in c4_cfg.scales.usable_scales(iw, ih) {
                let (sw, sh) = ScaleSchedule::level_dims(scale, iw, ih);
                let _ = black_box(cache.census_codes(iw, ih, sw, sh));
            }
        })
    });
    let warmed = FrameFeatures::new(&frame);
    let _ = bank.c4().detect_with_cache(&frame, &warmed);
    group.bench_function("c4_scan_cached", |b| {
        b.iter(|| black_box(bank.c4().detect_with_cache(black_box(&frame), &warmed)))
    });
    // The shared kernels under the C4 precompute, each against its oracle
    // on the C4 pyramid of the bench frame: census codes straight from a
    // level vs the f32 census transform then the cast, and the tap-table
    // resize vs per-pixel bilinear sampling (frame → internal → levels).
    let (iw, ih) = (c4_cfg.internal_w, c4_cfg.internal_h);
    let gray = frame.to_gray();
    let level_dims: Vec<(usize, usize)> = c4_cfg
        .scales
        .usable_scales(iw, ih)
        .into_iter()
        .map(|scale| ScaleSchedule::level_dims(scale, iw, ih))
        .collect();
    let resize_all = |resize: fn(&GrayImage, usize, usize) -> eecs_vision::Result<GrayImage>| {
        let internal = resize(&gray, iw, ih).expect("internal resize");
        let levels: Vec<GrayImage> = level_dims
            .iter()
            .map(|&(sw, sh)| resize(&internal, sw, sh).expect("level resize"))
            .collect();
        (internal, levels)
    };
    assert!(
        resize_all(resize_gray) == resize_all(resize_gray_reference),
        "resize: pixels diverged from reference"
    );
    let (_, levels) = resize_all(resize_gray);
    for level in &levels {
        assert_eq!(
            CensusCodePlane::census(level),
            CensusCodePlane::from_census(&census_transform(level)),
            "census: codes diverged from reference"
        );
    }
    group.bench_function("census_optimized", |b| {
        b.iter(|| {
            for level in &levels {
                black_box(CensusCodePlane::census(black_box(level)));
            }
        })
    });
    group.bench_function("census_reference", |b| {
        b.iter(|| {
            for level in &levels {
                black_box(CensusCodePlane::from_census(&census_transform(black_box(
                    level,
                ))));
            }
        })
    });
    group.bench_function("resize_optimized", |b| {
        b.iter(|| black_box(resize_all(resize_gray)))
    });
    group.bench_function("resize_reference", |b| {
        b.iter(|| black_box(resize_all(resize_gray_reference)))
    });
    group.finish();

    let (windows, rejected) = bank.c4().cascade_stats(&frame);
    if windows == 0 {
        0.0
    } else {
        rejected as f64 / windows as f64
    }
}

fn round_sim(parallel: Parallelism) -> Simulation {
    let mut profile = DatasetProfile::miniature(DatasetId::Lab);
    profile.num_people = 4;
    let eecs = EecsConfig {
        assessment_period: 10,
        recalibration_interval: 30,
        key_frames: 8,
        ..EecsConfig::default()
    };
    Simulation::prepare(
        DetectorBank::train_quick(5).expect("bank"),
        SimulationConfig {
            profile,
            cameras: 4,
            start_frame: 40,
            end_frame: 70,
            budget_j_per_frame: 10.0,
            mode: OperatingMode::FullEecs,
            eecs,
            feature_words: 12,
            max_training_frames: 8,
            boost_every: 0,
            fault_plan: eecs_net::fault::FaultPlan::ideal(),
            sensor_plan: eecs_scene::sensor_fault::SensorFaultPlan::ideal(),
            controller_plan: eecs_net::fault::ControllerFaultPlan::none(),
            parallel,
        },
    )
    .expect("prepare")
}

/// The full round, serial (1 worker, no cache) vs parallel (auto workers,
/// shared frame-feature cache). Both must produce the identical report —
/// the parallel pipeline only changes wall-clock.
fn round_bench(c: &mut Criterion) {
    let serial = round_sim(Parallelism::serial());
    let parallel = round_sim(Parallelism::default());
    assert_eq!(
        serial.run().expect("serial run"),
        parallel.run().expect("parallel run"),
        "parallelism must not change the report"
    );
    let mut group = c.benchmark_group("simulation");
    group.sample_size(10);
    group.bench_function("full_eecs_round_serial", |b| {
        b.iter(|| black_box(serial.run().expect("run")))
    });
    group.bench_function("full_eecs_round_parallel", |b| {
        b.iter(|| black_box(parallel.run().expect("run")))
    });
    group.finish();
}

/// A 2×2×2 (budget × fault-seed × churn) grid over the miniature round
/// simulation, run through the sweep engine. Cells pin
/// `Parallelism::serial()` — under the engine the cell is the unit of
/// parallelism. The churn axis removes camera 3 for the (single) round,
/// so half the grid plans around a three-camera fleet.
fn sweep_shard(base: &Simulation) -> Shard<'_> {
    let spec = SweepSpec::new("bench_grid")
        .axis("budget", ["8.0", "12.0"])
        .axis("fault_seed", ["1", "2"])
        .axis("churn", ["0", "1"]);
    Shard::new(spec, move |job| {
        let budget: f64 = job.value("budget").unwrap().parse().unwrap();
        let seed: u64 = job.value("fault_seed").unwrap().parse().unwrap();
        let churn = match job.value("churn").unwrap() {
            "1" => eecs_net::fault::ChurnPlan::seeded(seed).with_leave(3, 0, 1),
            _ => eecs_net::fault::ChurnPlan::ideal(),
        };
        let report = base
            .with_budget(budget)
            .map_err(|e| e.to_string())?
            .with_faults(
                eecs_net::fault::FaultPlan::seeded(seed),
                eecs_scene::sensor_fault::SensorFaultPlan::ideal(),
                eecs_net::fault::ControllerFaultPlan::none(),
            )
            .with_churn(churn)
            .run()
            .map_err(|e| e.to_string())?;
        Ok(report::Json::Obj(vec![
            (
                "detected".into(),
                report::Json::Num(report.correctly_detected as f64),
            ),
            ("energy_j".into(), report::Json::Num(report.total_energy_j)),
            (
                "leaves".into(),
                report::Json::Num(report.camera_leaves as f64),
            ),
        ]))
    })
}

/// The elastic-fleet benches. The end-to-end side: a three-round
/// mission whose churn plan takes camera 3 out for round 1 and brings
/// it back at round 2, timed next to the fixed-fleet mission. The
/// microbench side: `churn_replan` times exactly the controller
/// bookkeeping one departure + rejoin costs — quarantine purge, sticky
/// plan retain, and stale assessment-cache eviction — which is what
/// `churn_replan_ns` reports.
fn churn_bench(c: &mut Criterion) {
    let sim = Simulation::prepare(
        DetectorBank::train_quick(5).expect("bank"),
        sim_config_three_rounds(),
    )
    .expect("prepare");
    let churned = sim.with_churn(eecs_net::fault::ChurnPlan::seeded(3).with_leave(3, 1, 2));
    // The plan fired, and the run replays bit-identically — a perf
    // number for a nondeterministic path would be meaningless.
    let probe = churned.run().expect("churn mission");
    assert_eq!(probe.camera_leaves, 1, "churn plan never fired");
    assert_eq!(probe.camera_joins, 1, "camera 3 never rejoined");
    assert_eq!(probe, churned.run().expect("churn replay"));

    let mut group = c.benchmark_group("simulation");
    group.sample_size(10);
    group.bench_function("full_eecs_mission_3rounds", |b| {
        b.iter(|| black_box(sim.run().expect("run")))
    });
    group.bench_function("full_eecs_mission_3rounds_churn", |b| {
        b.iter(|| black_box(churned.run().expect("run")))
    });
    group.finish();

    // Controller-state bookkeeping for one departure + rejoin, on state
    // sized like a busy 4-camera mission.
    use eecs_core::controller::{AssessmentCache, QuarantineLedger, QuarantinePolicy};
    use eecs_core::metadata::CameraReport;
    use eecs_detect::detection::AlgorithmId;
    let policy = QuarantinePolicy::default();
    let algs = [
        AlgorithmId::Hog,
        AlgorithmId::Acf,
        AlgorithmId::C4,
        AlgorithmId::Lsvm,
    ];
    c.bench_function("churn_replan", |b| {
        b.iter(|| {
            let mut ledger = QuarantineLedger::new();
            let mut cache = AssessmentCache::new(4);
            let mut plan: std::collections::BTreeMap<usize, AlgorithmId> =
                (0..4).map(|j| (j, algs[j])).collect();
            let mut active: Vec<usize> = (0..4).collect();
            for cam in 0..4 {
                for &alg in &algs {
                    ledger.report_unhealthy(cam, alg, 0, &policy);
                }
                let mut assessment = eecs_core::controller::CameraAssessment::new();
                assessment.insert(algs[cam], vec![CameraReport { objects: vec![] }]);
                cache.record(cam, 0, assessment);
            }
            // Departure: purge quarantine, drop sticky plan entries.
            let purged = ledger.purge_camera(3);
            plan.remove(&3);
            active.retain(|&j| j != 3);
            // Rejoin two rounds later: evict what went stale meanwhile.
            let evicted = cache.evict_stale(3, 2, 1);
            black_box((purged, evicted, plan.len(), active.len()))
        })
    });
}

/// The three-round variant of the miniature mission config.
fn sim_config_three_rounds() -> SimulationConfig {
    let mut profile = DatasetProfile::miniature(DatasetId::Lab);
    profile.num_people = 4;
    let eecs = EecsConfig {
        assessment_period: 10,
        recalibration_interval: 30,
        key_frames: 8,
        ..EecsConfig::default()
    };
    SimulationConfig {
        profile,
        cameras: 4,
        start_frame: 40,
        end_frame: 130,
        budget_j_per_frame: 10.0,
        mode: OperatingMode::FullEecs,
        eecs,
        feature_words: 12,
        max_training_frames: 8,
        boost_every: 0,
        fault_plan: eecs_net::fault::FaultPlan::ideal(),
        sensor_plan: eecs_scene::sensor_fault::SensorFaultPlan::ideal(),
        controller_plan: eecs_net::fault::ControllerFaultPlan::none(),
        parallel: Parallelism::default(),
    }
}

/// The same sweep at 1 worker vs 4 workers. The engine guarantees the
/// merged bytes are identical (asserted here once, outside the timing
/// loop); the worker count only changes wall-clock.
fn sweep_bench(c: &mut Criterion) {
    let base = round_sim(Parallelism::serial());
    let shard = sweep_shard(&base);
    let sweep = |workers: usize| {
        run_sweep(
            &shard,
            &SweepOptions {
                workers,
                ..Default::default()
            },
        )
        .expect("bench sweep")
        .merged
        .expect("bench sweep merge")
    };
    assert_eq!(
        sweep(1),
        sweep(4),
        "worker count must not change the merged bytes"
    );
    let mut group = c.benchmark_group("sweep");
    group.sample_size(10);
    group.bench_function("grid2x2_serial", |b| b.iter(|| black_box(sweep(1))));
    group.bench_function("grid2x2_4workers", |b| b.iter(|| black_box(sweep(4))));
    group.finish();
}

/// Mission-service throughput: one 4-mission batch through the service
/// at 1 worker vs 4 workers. The schedule is a pure function of the
/// seed, so both produce the identical service trace — asserted once
/// here, outside the timing loop — and the worker count only changes
/// wall-clock. The `Artifacts` cache means both services (and every
/// timed iteration) reuse one training pass.
fn serve_bench(c: &mut Criterion) {
    use eecs_serve::{BatchOptions, MissionService, ServiceConfig};
    let artifacts = Artifacts::quick_trained(Scale::Quick, 5);
    let base = service_base(&artifacts);
    let batch = mixed_batch(4, &["acme", "zenith"], false);
    let config = ServiceConfig::new(11).with_slots(2).with_queue_capacity(4);
    let run = |workers: usize| {
        MissionService::new(base.clone(), config.clone().with_workers(workers))
            .run_batch(&batch, &BatchOptions::default())
            .expect("service batch")
            .run
            .expect("assembled run")
            .trace_bytes()
    };
    assert_eq!(
        run(1),
        run(4),
        "worker count must not change the service trace"
    );
    let mut group = c.benchmark_group("serve");
    group.sample_size(10);
    group.bench_function("batch4_serial", |b| b.iter(|| black_box(run(1))));
    group.bench_function("batch4_4workers", |b| b.iter(|| black_box(run(4))));
    group.finish();
}

/// Repo-root path of the machine-readable report.
const REPORT_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pipeline.json");

fn main() {
    // `cargo bench` passes --bench; anything else (notably this target
    // executed during `cargo test`) is a smoke invocation and must stay
    // fast.
    if !std::env::args().any(|a| a == "--bench") {
        println!("pipeline bench: pass --bench (cargo bench) to run");
        return;
    }
    let mut c = Criterion::new();
    reid_bench(&mut c);
    detect_bench(&mut c);
    let cascade_reject_ratio = kernel_bench(&mut c);
    round_bench(&mut c);
    churn_bench(&mut c);
    sweep_bench(&mut c);
    serve_bench(&mut c);

    let entries: Vec<BenchEntry> = c
        .results()
        .iter()
        .map(|(name, mean_ns)| BenchEntry {
            name: name.clone(),
            mean_ns: *mean_ns,
        })
        .collect();
    let serial_ns = c
        .mean_ns("simulation/full_eecs_round_serial")
        .expect("serial round ran");
    let parallel_ns = c
        .mean_ns("simulation/full_eecs_round_parallel")
        .expect("parallel round ran")
        .max(1);
    let speedup = serial_ns as f64 / parallel_ns as f64;
    let sweep_serial_ns = c.mean_ns("sweep/grid2x2_serial").expect("serial sweep ran");
    let sweep_parallel_ns = c
        .mean_ns("sweep/grid2x2_4workers")
        .expect("4-worker sweep ran")
        .max(1);
    let sweep_speedup = sweep_serial_ns as f64 / sweep_parallel_ns as f64;
    // Interpretation key for the speedups: the parallel round / 4-worker
    // sweep fan out over this many cores. On a single-core host both
    // reduce to ~1× (the round keeps its feature-cache gain); a 4-core
    // host is where the ≥2× sweep expectation applies.
    let host = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut metrics = vec![
        ("round_speedup".to_string(), speedup),
        ("sweep_speedup".to_string(), sweep_speedup),
    ];
    // Kernel speedups: optimized vs reference of the SAME run — the ratio
    // is host-independent, which is what lets `check_bench --baseline`
    // compare it across runs where absolute ns are incomparable.
    for alg in ["c4", "hog", "lsvm", "acf", "census", "resize"] {
        let opt = c
            .mean_ns(&format!("kernels/{alg}_optimized"))
            .expect("kernel optimized ran")
            .max(1);
        let reference = c
            .mean_ns(&format!("kernels/{alg}_reference"))
            .expect("kernel reference ran");
        let ratio = reference as f64 / opt as f64;
        println!("kernel speedup {alg} (reference/optimized): {ratio:.2}x");
        metrics.push((format!("kernel_speedup_{alg}"), ratio));
    }
    metrics.push(("c4_cascade_reject_ratio".into(), cascade_reject_ratio));
    metrics.push(("host_parallelism".into(), host as f64));
    // The controller-side cost of one departure + rejoin (quarantine
    // purge, sticky-plan retain, stale-cache eviction), straight from
    // the microbench — unlike a mission-level difference this is not
    // noise-dominated (a departed camera makes the mission *cheaper*).
    let churn_replan_ns = c.mean_ns("churn_replan").expect("churn_replan ran") as f64;
    println!("churn replan bookkeeping: {churn_replan_ns:.0} ns");
    metrics.push(("churn_replan_ns".into(), churn_replan_ns));
    // Service throughput: same batch, 1 worker vs 4 — like the sweep
    // speedup, a host-relative ratio over byte-identical outputs.
    let serve_serial_ns = c.mean_ns("serve/batch4_serial").expect("serial serve ran");
    let serve_parallel_ns = c
        .mean_ns("serve/batch4_4workers")
        .expect("4-worker serve ran")
        .max(1);
    let serve_speedup = serve_serial_ns as f64 / serve_parallel_ns as f64;
    println!("serve speedup (1 worker / 4 workers): {serve_speedup:.2}x");
    metrics.push(("serve_speedup".into(), serve_speedup));
    let text = report::render(&entries, &metrics);
    report::validate_pipeline_report(&text).expect("generated report validates");
    std::fs::write(REPORT_PATH, &text).expect("write BENCH_pipeline.json");
    println!("round speedup (serial/parallel): {speedup:.2}x");
    println!("sweep speedup (1 worker / 4 workers): {sweep_speedup:.2}x");
    println!("C4 cascade reject ratio: {cascade_reject_ratio:.3}");
    println!("wrote {REPORT_PATH}");
}
