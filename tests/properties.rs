//! Property-based tests over the core invariants, spanning crates.

use eecs::core::accuracy::combined_probability;
use eecs::core::checkpoint::CacheSlot;
use eecs::core::controller::{CameraAssessment, QuarantineLedger, QuarantinePolicy};
use eecs::core::jsonio::{self, Json};
use eecs::core::metadata::CameraReport;
use eecs::core::reconcile::{reconcile, SeatSnapshot};
use eecs::core::simulation::{Parallelism, Simulation, SimulationReport};
use eecs::core::telemetry::{FlightRecorder, MetricsRegistry, TraceEvent};
use eecs::detect::detection::AlgorithmId;
use eecs::detect::detection::BBox;
use eecs::detect::detection::Detection;
use eecs::detect::nms::non_maximum_suppression;
use eecs::energy::budget::BatteryState;
use eecs::geometry::homography::Homography;
use eecs::geometry::point::Point2;
use eecs::linalg::svd::thin_svd;
use eecs::linalg::Mat;
use eecs::manifold::gfk::GeodesicFlowKernel;
use eecs::manifold::subspace::Subspace;
use eecs::manifold::video::VideoItem;
use eecs::net::fault::{ChurnPlan, CorruptionPlan, Endpoint, FaultPlan, LinkFaults, PartitionPlan};
use eecs::scene::sensor_fault::{SensorFaultPlan, SensorImpairments};
use eecs::vision::image::RgbImage;
use eecs_bench::artifacts::Artifacts;
use eecs_bench::catalog::Rig;
use eecs_bench::serving::service_base;
use eecs_bench::Scale;
use eecs_serve::{
    plan_schedule, BatchOptions, MissionRequest, MissionService, MissionSpec, MissionVerdict,
    Priority, ServiceConfig,
};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

fn bbox_strategy() -> impl Strategy<Value = BBox> {
    (0.0..100.0f64, 0.0..100.0f64, 1.0..50.0f64, 1.0..50.0f64)
        .prop_map(|(x, y, w, h)| BBox::new(x, y, x + w, y + h))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn iou_symmetric_bounded(a in bbox_strategy(), b in bbox_strategy()) {
        let ab = a.iou(&b);
        let ba = b.iou(&a);
        prop_assert!((ab - ba).abs() < 1e-12);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&ab));
        prop_assert!((a.iou(&a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn eq6_bounded_and_monotone(ps in prop::collection::vec(0.0..1.0f64, 1..6), extra in 0.0..1.0f64) {
        let p = combined_probability(&ps);
        prop_assert!((0.0..=1.0).contains(&p));
        prop_assert!(p >= ps.iter().cloned().fold(0.0, f64::max) - 1e-12);
        // Adding a camera never lowers the fused probability.
        let mut more = ps.clone();
        more.push(extra);
        prop_assert!(combined_probability(&more) >= p - 1e-12);
    }

    #[test]
    fn nms_output_is_subset_and_conflict_free(
        xs in prop::collection::vec((0.0..200.0f64, 0.0..5.0f64), 0..20),
        threshold in 0.05..0.9f64,
    ) {
        let dets: Vec<Detection> = xs
            .iter()
            .map(|&(x, s)| Detection { bbox: BBox::new(x, 0.0, x + 20.0, 40.0), score: s })
            .collect();
        let kept = non_maximum_suppression(dets.clone(), threshold);
        prop_assert!(kept.len() <= dets.len());
        // Survivors are pairwise below the IoU threshold.
        for i in 0..kept.len() {
            for j in (i + 1)..kept.len() {
                prop_assert!(kept[i].bbox.iou(&kept[j].bbox) <= threshold + 1e-12);
            }
        }
        // Idempotence.
        let again = non_maximum_suppression(kept.clone(), threshold);
        prop_assert_eq!(again.len(), kept.len());
    }

    #[test]
    fn homography_roundtrip_random_affine(
        a in 0.5..2.0f64, b in -0.5..0.5f64, c in -20.0..20.0f64,
        d in -0.5..0.5f64, e in 0.5..2.0f64, f in -20.0..20.0f64,
        px in 0.0..50.0f64, py in 0.0..50.0f64,
    ) {
        let src: Vec<Point2> = [(0.0, 0.0), (40.0, 0.0), (40.0, 40.0), (0.0, 40.0), (13.0, 27.0)]
            .iter().map(|&(x, y)| Point2::new(x, y)).collect();
        let dst: Vec<Point2> = src
            .iter()
            .map(|p| Point2::new(a * p.x + b * p.y + c, d * p.x + e * p.y + f))
            .collect();
        let h = Homography::estimate(&src, &dst).unwrap();
        let p = Point2::new(px, py);
        let q = h.apply(&p).unwrap();
        let expected = Point2::new(a * p.x + b * p.y + c, d * p.x + e * p.y + f);
        prop_assert!(q.distance(&expected) < 1e-5, "{q:?} vs {expected:?}");
        let back = h.inverse().unwrap().apply(&q).unwrap();
        prop_assert!(back.distance(&p) < 1e-5);
    }

    #[test]
    fn svd_reconstructs_random_matrices(
        rows in 2..7usize, cols in 2..7usize, seed in 0..1000u64,
    ) {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let m = Mat::from_fn(rows, cols, |_, _| rng.random_range(-3.0..3.0));
        let svd = thin_svd(&m);
        let sigma = Mat::from_diag(&svd.singular_values);
        let recon = svd.u.matmul(&sigma).matmul(&svd.v.transpose());
        prop_assert!(recon.approx_eq(&m, 1e-8));
        for w in svd.singular_values.windows(2) {
            prop_assert!(w[0] >= w[1] - 1e-12);
        }
    }

    #[test]
    fn gfk_distance_nonnegative_and_zero_on_self(
        seed in 0..500u64,
    ) {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mk = |rng: &mut rand::rngs::StdRng| {
            let frames: Vec<Vec<f64>> = (0..6)
                .map(|_| (0..8).map(|_| rng.random_range(0.0..1.0)).collect())
                .collect();
            VideoItem::from_frames("p", &frames).unwrap()
        };
        let t = mk(&mut rng);
        let v = mk(&mut rng);
        let x = Subspace::from_video(&t, 3).unwrap();
        let z = Subspace::from_video(&v, 3).unwrap();
        let gfk = GeodesicFlowKernel::between(&x, &z).unwrap();
        let u: Vec<f64> = (0..8).map(|_| rng.random_range(-1.0..1.0)).collect();
        let w: Vec<f64> = (0..8).map(|_| rng.random_range(-1.0..1.0)).collect();
        prop_assert!(gfk.sq_distance(&u, &w) >= 0.0);
        prop_assert!(gfk.sq_distance(&u, &u) < 1e-10);
        // Symmetry of the metric.
        prop_assert!((gfk.sq_distance(&u, &w) - gfk.sq_distance(&w, &u)).abs() < 1e-9);
    }

    #[test]
    fn battery_never_goes_negative(draws in prop::collection::vec(0.0..5.0f64, 1..20)) {
        let mut bat = BatteryState::new(10.0).unwrap();
        for d in draws {
            let _ = bat.drain(d);
            prop_assert!(bat.residual() >= 0.0);
            prop_assert!(bat.used() <= 10.0 + 1e-9);
        }
    }

    #[test]
    fn sensor_corruption_is_bit_identical_per_seed(
        seed in 0..500u64,
        camera in 0..4usize,
        frame in 0..200usize,
    ) {
        let plan = || {
            SensorFaultPlan::seeded(seed)
                .with_default_impairments(SensorImpairments::harsh())
                .with_occlusion(camera, 0, 1_000, 0.3)
        };
        let mut a = gradient_image(seed);
        let mut b = gradient_image(seed);
        let ia = plan().corrupt(camera, frame, &mut a);
        let ib = plan().corrupt(camera, frame, &mut b);
        prop_assert_eq!(ia, ib);
        prop_assert_eq!(pixel_bits(&a), pixel_bits(&b));

        // The ideal plan never touches a pixel.
        let mut c = gradient_image(seed);
        let ic = SensorFaultPlan::ideal().corrupt(camera, frame, &mut c);
        prop_assert!(ic.is_clean());
        prop_assert_eq!(pixel_bits(&c), pixel_bits(&gradient_image(seed)));
    }

    #[test]
    fn quarantine_backoff_monotone_and_bounded(
        base in 1..5usize,
        factor in 1..5usize,
        cap in 1..30usize,
        strikes in 1..20u32,
    ) {
        let policy = QuarantinePolicy {
            base_backoff_rounds: base,
            backoff_factor: factor,
            max_backoff_rounds: cap.max(base),
        };
        policy.validate().unwrap();
        // Monotone in strikes, bounded by the cap.
        let mut prev = 0usize;
        for s in 1..=strikes {
            let b = QuarantineLedger::backoff_rounds(&policy, s);
            prop_assert!(b >= prev, "backoff shrank at strike {s}");
            prop_assert!(b <= policy.max_backoff_rounds);
            prop_assert!(b >= policy.base_backoff_rounds);
            prev = b;
        }
    }

    #[test]
    fn quarantine_reprobe_is_always_scheduled(
        rounds in prop::collection::vec(0..2u8, 1..24),
        base in 1..4usize,
        cap in 1..10usize,
    ) {
        let policy = QuarantinePolicy {
            base_backoff_rounds: base,
            backoff_factor: 2,
            max_backoff_rounds: cap.max(base),
        };
        let mut ledger = QuarantineLedger::new();
        let (cam, alg) = (1, AlgorithmId::Hog);
        for (round, healthy) in rounds.iter().enumerate() {
            if !ledger.allows(cam, alg, round) {
                // While quarantined, the re-probe round is at most
                // `1 + max_backoff` past the last strike — the pair can
                // never be locked out forever.
                let eligible_again = (round..)
                    .take(policy.max_backoff_rounds + 2)
                    .any(|r| ledger.allows(cam, alg, r));
                prop_assert!(eligible_again, "re-probe unbounded at round {round}");
                continue;
            }
            if *healthy == 1 {
                ledger.report_healthy(cam, alg);
                prop_assert!(ledger.allows(cam, alg, round + 1));
            } else {
                ledger.report_unhealthy(cam, alg, round, &policy);
                // A strike always quarantines the next round…
                prop_assert!(!ledger.allows(cam, alg, round + 1));
                // …and re-admits exactly at round + 1 + backoff.
                let backoff = QuarantineLedger::backoff_rounds(&policy, ledger.strikes(cam, alg));
                prop_assert!(!ledger.allows(cam, alg, round + backoff));
                prop_assert!(ledger.allows(cam, alg, round + 1 + backoff));
            }
        }
    }

    #[test]
    fn json_number_roundtrip_is_bit_exact(bits in 0..u64::MAX) {
        let n = f64::from_bits(bits);
        if n.is_finite() {
            // encode → decode → encode: bit-exact value, fixed-point text.
            let text = Json::Num(n).write().unwrap();
            let back = jsonio::parse(&text).unwrap();
            let m = back.as_num().unwrap();
            prop_assert_eq!(m.to_bits(), n.to_bits());
            prop_assert_eq!(back.write().unwrap(), text);
        } else {
            // NaN / ±∞ are unrepresentable: a clean error, never a panic,
            // no matter how deep the value hides.
            prop_assert!(Json::Num(n).write().is_err());
            let nested = Json::Obj(vec![("x".into(), Json::Arr(vec![Json::Num(n)]))]);
            prop_assert!(nested.write().is_err());
        }
    }

    #[test]
    fn json_string_escapes_roundtrip(codes in prop::collection::vec(0..0x250u32, 0..24)) {
        // The range covers ASCII controls, quotes, backslashes, and a slab
        // of non-ASCII — every escaping path in the writer.
        let s: String = codes.iter().filter_map(|&c| char::from_u32(c)).collect();
        let text = Json::Str(s.clone()).write().unwrap();
        let back = jsonio::parse(&text).unwrap();
        prop_assert_eq!(back.as_str().unwrap(), s.as_str());
        prop_assert_eq!(back.write().unwrap(), text);
    }

    #[test]
    fn json_deep_nesting_roundtrips(depth in 0..48usize, n in -1e6..1e6f64) {
        let mut v = Json::Num(n);
        for level in 0..depth {
            v = if level % 2 == 0 {
                Json::Arr(vec![v])
            } else {
                Json::Obj(vec![("k".into(), v), ("flag".into(), Json::Bool(true))])
            };
        }
        let text = v.write().unwrap();
        let back = jsonio::parse(&text).unwrap();
        prop_assert_eq!(back.write().unwrap(), text);
    }

    #[test]
    fn json_parser_never_panics(raw in prop::collection::vec(0..256u32, 0..48)) {
        // Arbitrary bytes (lossily decoded) and truncated prefixes of a
        // valid document: `parse` may reject, it must never panic.
        let bytes: Vec<u8> = raw.iter().map(|&b| b as u8).collect();
        let _ = jsonio::parse(&String::from_utf8_lossy(&bytes));

        let valid = r#"{"a":[1,-0.5,"x\n"],"b":{"c":null,"d":[true,false]}}"#;
        let cut = raw.first().map_or(0, |&b| b as usize % (valid.len() + 1));
        let _ = jsonio::parse(&valid[..cut]);
    }

    #[test]
    fn flight_recorder_bounded_with_inclusive_tail(
        capacity in 1..64usize,
        per_round in prop::collection::vec(1..5usize, 1..24),
        tail in 1..8usize,
    ) {
        let mut rec = FlightRecorder::new(capacity);
        let mut total = 0u64;
        for (round, &events) in per_round.iter().enumerate() {
            for _ in 0..events {
                rec.record(TraceEvent::Checkpoint { round });
                total += 1;
            }
        }
        let last = per_round.len() - 1;
        // Bounded memory, exact eviction accounting.
        prop_assert!(rec.len() <= capacity);
        prop_assert_eq!(rec.evicted(), total.saturating_sub(capacity as u64));
        prop_assert_eq!(rec.last_round(), Some(last));
        // The tail slice always includes the newest round itself and never
        // reaches further back than `tail` rounds.
        let cutoff = (last + 1).saturating_sub(tail);
        let slice = rec.tail_rounds(tail);
        prop_assert!(slice.iter().any(|e| e.round() == last));
        prop_assert!(slice.iter().all(|e| e.round() >= cutoff));
    }

    #[test]
    fn metrics_registry_is_order_independent(
        ops in prop::collection::vec((0..5usize, 1..100u64), 0..40),
    ) {
        const NAMES: [&str; 5] = ["net.attempts", "detect.runs.hog", "a", "z.z", "mid"];
        const BOUNDS: [f64; 3] = [10.0, 50.0, 90.0];
        let apply = |registry: &mut MetricsRegistry, &(name, delta): &(usize, u64)| {
            registry.counter_add(NAMES[name], delta);
            registry.histogram_record("values", &BOUNDS, delta as f64);
        };
        let mut forward = MetricsRegistry::new();
        let mut reverse = MetricsRegistry::new();
        ops.iter().for_each(|op| apply(&mut forward, op));
        ops.iter().rev().for_each(|op| apply(&mut reverse, op));
        // Counter and histogram publishes commute, and the dump is sorted:
        // any arrival order yields the same bytes.
        prop_assert_eq!(forward.to_json().unwrap(), reverse.to_json().unwrap());
    }
}

// ---------------------------------------------------------------------------
// Sweep-engine invariants: the pure merge algebra behind the byte-identity
// guarantee of `eecs_bench::sweep` (see tests/sweep_determinism.rs for the
// end-to-end form).
// ---------------------------------------------------------------------------

/// The canonical cell of index `i`: data is a pure function of the index,
/// exactly as sweep runners are required to be.
fn sweep_cell(i: usize) -> eecs_bench::sweep::CellRecord {
    let x = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    eecs_bench::sweep::CellRecord {
        index: i,
        cell: format!("p:axis={i}"),
        data: Json::Obj(vec![
            ("value".into(), Json::Num(f64::from_bits(x >> 12))),
            ("index".into(), Json::Num(i as f64)),
        ]),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sweep_combine_is_order_independent_and_associative(
        a in prop::collection::vec(0..40usize, 0..20),
        b in prop::collection::vec(0..40usize, 0..20),
        c in prop::collection::vec(0..40usize, 0..20),
    ) {
        use eecs_bench::sweep::combine;
        let cells = |s: &[usize]| -> Vec<_> {
            let set: std::collections::BTreeSet<usize> = s.iter().copied().collect();
            set.into_iter().map(sweep_cell).collect()
        };
        let (a, b, c) = (cells(&a), cells(&b), cells(&c));
        // Commutative and associative on consistent inputs…
        prop_assert_eq!(combine(&a, &b), combine(&b, &a));
        prop_assert_eq!(
            combine(&combine(&a, &b), &c),
            combine(&a, &combine(&b, &c))
        );
        // …and idempotent: merging a set with itself changes nothing.
        prop_assert_eq!(combine(&a, &a), combine(&a, &[]));
        // The result is sorted and duplicate-free.
        let merged = combine(&a, &b);
        prop_assert!(merged.windows(2).all(|w| w[0].index < w[1].index));
    }

    #[test]
    fn sweep_cell_counts_conserved_under_any_partition(
        rows in 1..4usize,
        cols in 1..5usize,
        cuts in prop::collection::vec(0..100usize, 0..4),
        order_seed in 0..u64::MAX,
    ) {
        use eecs_bench::sweep::{combine, merge_cells, CellRecord, SweepSpec};
        let spec = SweepSpec::new("p")
            .axis("r", (0..rows).map(|r| r.to_string()))
            .axis("c", (0..cols).map(|c| c.to_string()));
        let jobs = spec.jobs();
        let all: Vec<CellRecord> = jobs
            .iter()
            .map(|j| CellRecord {
                index: j.index,
                cell: j.cell_id(),
                data: Json::Num(j.index as f64),
            })
            .collect();

        // Split the job list at arbitrary points, then merge the parts
        // back in an arbitrary order.
        let mut bounds: Vec<usize> = cuts.iter().map(|c| c % (all.len() + 1)).collect();
        bounds.push(0);
        bounds.push(all.len());
        bounds.sort_unstable();
        let mut parts: Vec<&[CellRecord]> =
            bounds.windows(2).map(|w| &all[w[0]..w[1]]).collect();
        if order_seed % 2 == 0 {
            parts.reverse();
        }
        let k = (order_seed as usize) % parts.len().max(1);
        parts.rotate_left(k);

        let mut merged: Vec<CellRecord> = Vec::new();
        for part in parts {
            merged = combine(&merged, part);
        }
        // Conservation: every cell exactly once, nothing invented.
        prop_assert_eq!(merged.len(), jobs.len());
        prop_assert!(merged.iter().enumerate().all(|(i, r)| r.index == i));
        // And the merged document equals the in-order merge byte for byte.
        let specs = [&spec];
        prop_assert_eq!(
            merge_cells("p", &specs, &merged).unwrap(),
            merge_cells("p", &specs, &all).unwrap()
        );
    }

    #[test]
    fn sweep_manifest_record_roundtrips_bit_exactly(
        index in 0..100_000usize,
        raw in prop::collection::vec(0..u64::MAX, 0..8),
    ) {
        use eecs_bench::sweep::CellRecord;
        let nums: Vec<Json> = raw
            .iter()
            .map(|&b| {
                let v = f64::from_bits(b);
                Json::Num(if v.is_finite() { v } else { b as f64 })
            })
            .collect();
        let rec = CellRecord {
            index,
            cell: format!("p:axis={index}"),
            data: Json::Arr(nums),
        };
        // render → parse → rebuild → render: a fixed point, bit for bit.
        let line = rec.to_json().write().unwrap();
        let back = CellRecord::from_json(&jsonio::parse(&line).unwrap()).unwrap();
        prop_assert_eq!(back.index, rec.index);
        prop_assert_eq!(&back.cell, &rec.cell);
        let bits = |v: &Json| -> Vec<u64> {
            v.as_arr().unwrap().iter().map(|n| n.as_num().unwrap().to_bits()).collect()
        };
        prop_assert_eq!(bits(&back.data), bits(&rec.data));
        prop_assert_eq!(back.to_json().write().unwrap(), line);
    }
}

/// A deterministic test image whose content depends on the seed.
fn gradient_image(seed: u64) -> RgbImage {
    let mut img = RgbImage::new(32, 24);
    for y in 0..24 {
        for x in 0..32 {
            let v = ((x as u64 * 31 + y as u64 * 17 + seed) % 97) as f32 / 96.0;
            img.r.set(x, y, v);
            img.g.set(x, y, (v * 0.5) + 0.1);
            img.b.set(x, y, 1.0 - v);
        }
    }
    img
}

/// Every channel value of every pixel, as raw bits.
fn pixel_bits(img: &RgbImage) -> Vec<u32> {
    let mut bits = Vec::new();
    for y in 0..img.r.height() {
        for x in 0..img.r.width() {
            for c in [&img.r, &img.g, &img.b] {
                bits.push(c.get(x, y).to_bits());
            }
        }
    }
    bits
}

// ---- partition reconciliation algebra ----

const ALGS: [AlgorithmId; 4] = [
    AlgorithmId::Hog,
    AlgorithmId::Acf,
    AlgorithmId::C4,
    AlgorithmId::Lsvm,
];

/// A cache payload that is a pure function of the slot key — mirroring
/// the system invariant that a seat at a given epoch records a round's
/// assessment exactly once, so equal keys always carry equal payloads.
fn assessment_for(epoch: u64, round: usize) -> CameraAssessment {
    let mut m = CameraAssessment::new();
    if (epoch as usize + round) % 2 == 1 {
        m.insert(
            AlgorithmId::Hog,
            vec![CameraReport {
                objects: Vec::new(),
            }],
        );
    }
    m
}

fn seat_snapshot_strategy() -> impl Strategy<Value = SeatSnapshot> {
    let slot = (
        0u64..3,
        prop::option::of(0usize..5),
        prop::option::of(0usize..5),
    )
        .prop_map(|(epoch, entry_round, heard)| CacheSlot {
            epoch,
            heard,
            entry: entry_round.map(|r| (r, assessment_for(epoch, r))),
        });
    let quarantine =
        prop::collection::btree_map((0usize..4, 0usize..4), (1u32..5, 0usize..12), 0..5).prop_map(
            |m| {
                m.into_iter()
                    .map(|((cam, alg), (strikes, until))| (cam, ALGS[alg], strikes, until))
                    .collect::<Vec<_>>()
            },
        );
    (
        0u64..4,
        prop::option::of(0usize..4),
        0usize..6,
        prop::collection::vec(slot, 3),
        quarantine,
    )
        .prop_map(|(epoch, seat, plan_round, cache, quarantine)| {
            // The standing plan is likewise derived from the priority key
            // (epoch, plan_round, seat): priority ties carry equal plans,
            // as they do in the real system.
            let cam = (plan_round + seat.unwrap_or(0)) % 4;
            // Membership is likewise key-derived, pre-sorted and deduped
            // as the runtime maintains it, so the union join stays
            // idempotent on these inputs.
            let members: Vec<usize> = [cam, seat.unwrap_or(0), (epoch as usize) % 4]
                .into_iter()
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .collect();
            SeatSnapshot {
                epoch,
                seat,
                plan_round,
                members,
                assignment: [(cam, ALGS[(epoch as usize) % 4])].into(),
                active: vec![cam],
                cache,
                quarantine,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn reconcile_is_commutative_and_epoch_is_max(
        a in seat_snapshot_strategy(),
        b in seat_snapshot_strategy(),
    ) {
        let ab = reconcile(&a, &b);
        let ba = reconcile(&b, &a);
        prop_assert_eq!(&ab, &ba);
        prop_assert_eq!(ab.epoch, a.epoch.max(b.epoch));
    }

    #[test]
    fn reconcile_is_associative(
        a in seat_snapshot_strategy(),
        b in seat_snapshot_strategy(),
        c in seat_snapshot_strategy(),
    ) {
        let left = reconcile(&reconcile(&a, &b), &c);
        let right = reconcile(&a, &reconcile(&b, &c));
        prop_assert_eq!(left, right);
    }

    #[test]
    fn reconcile_is_idempotent(a in seat_snapshot_strategy()) {
        prop_assert_eq!(reconcile(&a, &a), a);
    }

    #[test]
    fn empty_partition_windows_are_inert(
        start in 0usize..20,
        a in 0usize..6,
        b in 0usize..6,
        round in 0usize..40,
    ) {
        let islands = vec![
            vec![Endpoint::Hub, Endpoint::Camera(0)],
            vec![Endpoint::Camera(1), Endpoint::Camera(2)],
        ];
        let plan = PartitionPlan::none()
            .with_split(islands, start, start)
            .with_one_way(Endpoint::Camera(3), Endpoint::Hub, start, start);
        prop_assert!(!plan.enabled(), "an empty window must schedule nothing");
        prop_assert!(!plan.is_partitioned(round));
        let ep = |i: usize| if i == 5 { Endpoint::Hub } else { Endpoint::Camera(i) };
        prop_assert!(plan.can_reach(ep(a), ep(b), round));
        prop_assert!(!FaultPlan::ideal().with_partition(plan).enabled());
    }

    // ---- churn-plan membership algebra (pure, no simulation) ----

    #[test]
    fn churn_leave_rejoin_roundtrips_membership(
        seed in 0..u64::MAX,
        cam in 0..6usize,
        start in 1..30usize,
        len in 1..10usize,
    ) {
        let plan = ChurnPlan::seeded(seed).with_leave(cam, start, start + len);
        prop_assert!(plan.enabled());
        // Member before, absent over the half-open window, member again
        // from the rejoin round on — the round-trip restores identity.
        prop_assert!(plan.is_member(cam, 0));
        prop_assert!(plan.is_member(cam, start - 1));
        for r in start..start + len {
            prop_assert!(!plan.is_member(cam, r), "round {r} should be absent");
        }
        for r in start + len..start + len + 8 {
            prop_assert!(plan.is_member(cam, r), "round {r} should have rejoined");
        }
        // Neighbours are untouched by another camera's schedule.
        prop_assert!(plan.is_member(cam + 1, start));
    }

    #[test]
    fn churn_join_and_depart_partition_the_timeline(
        seed in 0..u64::MAX,
        cam in 0..6usize,
        join in 1..10usize,
        tenure in 1..10usize,
    ) {
        let depart = join + tenure;
        let plan = ChurnPlan::seeded(seed)
            .with_join(cam, join)
            .with_depart(cam, depart);
        for r in 0..join {
            prop_assert!(!plan.is_member(cam, r), "round {r}: not yet joined");
        }
        for r in join..depart {
            prop_assert!(plan.is_member(cam, r), "round {r}: inside tenure");
        }
        for r in depart..depart + 8 {
            prop_assert!(!plan.is_member(cam, r), "round {r}: departed for good");
        }
    }

    #[test]
    fn churn_inert_plans_are_roll_free(
        seed in 0..u64::MAX,
        cam in 0..8usize,
        round in 0..64usize,
    ) {
        // A seeded plan with no schedules is structurally inert: it is
        // not `enabled()` (so the round loop skips churn bookkeeping
        // entirely — zero draws), and membership is the constant `true`,
        // matching [`ChurnPlan::ideal`] for every key.
        let plan = ChurnPlan::seeded(seed);
        prop_assert!(!plan.enabled());
        prop_assert!(plan.is_member(cam, round));
        prop_assert_eq!(
            plan.is_member(cam, round),
            ChurnPlan::ideal().is_member(cam, round)
        );
    }

    #[test]
    fn churn_random_absence_is_order_independent(
        seed in 0..u64::MAX,
        rate in 0.01..0.9f64,
        queries in prop::collection::vec((0..6usize, 1..40usize), 1..32),
    ) {
        // Membership draws are keyed on (seed, camera, round) with no
        // counter, so two identically-built plans agree no matter how
        // many queries ran before, or in what order.
        let a = ChurnPlan::seeded(seed).with_random_absence(rate, 1);
        let b = ChurnPlan::seeded(seed).with_random_absence(rate, 1);
        let forward: Vec<bool> =
            queries.iter().map(|&(c, r)| a.is_member(c, r)).collect();
        let mut backward: Vec<bool> =
            queries.iter().rev().map(|&(c, r)| b.is_member(c, r)).collect();
        backward.reverse();
        prop_assert_eq!(forward, backward);
        // Randomness starting at round 1 leaves round 0 deterministic.
        prop_assert!(a.is_member(0, 0));
    }
}

// ---------------------------------------------------------------------------
// Churn end-to-end laws: arbitrary plans replay bit-identically across
// worker counts, and inert plans are invisible in the report. Each case
// runs full miniature simulations, so the case counts stay deliberately
// tiny — breadth comes from the pure membership algebra above.
// ---------------------------------------------------------------------------

/// Three cameras over three rounds: enough surface for joins, leaves,
/// and departures to all land mid-run. Prepared once by the catalog.
fn churn_base() -> Arc<Simulation> {
    Rig::Trio.simulation()
}

/// The churn-free reference run, computed once.
fn churn_baseline() -> &'static SimulationReport {
    static REPORT: OnceLock<SimulationReport> = OnceLock::new();
    REPORT.get_or_init(|| churn_base().run().expect("baseline run"))
}

/// Arbitrary plans over the three-camera, three-round window: scheduled
/// leaves, permanent departures, late joins, and sometimes a random
/// absence lottery on top.
fn churn_plan_strategy() -> impl Strategy<Value = ChurnPlan> {
    let op = (0..3usize, 1..3usize, 1..2usize, 0..3u8);
    (
        0..u64::MAX,
        prop::collection::vec(op, 0..4),
        0.0..0.35f64,
        0..2u8,
    )
        .prop_map(|(seed, ops, rate, random)| {
            let random = random == 1;
            let mut plan = ChurnPlan::seeded(seed);
            for (cam, at, len, kind) in ops {
                plan = match kind {
                    0 => plan.with_leave(cam, at, at + len),
                    1 => plan.with_depart(cam, at),
                    _ => plan.with_join(cam, at),
                };
            }
            if random {
                plan = plan.with_random_absence(rate, 1);
            }
            plan
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn churn_runs_bit_identical_across_worker_counts(plan in churn_plan_strategy()) {
        // The full outcome — including an identical error, should the
        // plan shrink the fleet into infeasibility — must not depend on
        // the host's thread count.
        let outcome = |workers: usize| {
            churn_base()
                .with_churn(plan.clone())
                .with_parallelism(Parallelism {
                    workers,
                    feature_cache: workers != 1,
                })
                .run()
        };
        let one = outcome(1);
        let two = outcome(2);
        let eight = outcome(8);
        prop_assert_eq!(&one, &two);
        prop_assert_eq!(&one, &eight);
    }

    #[test]
    fn churn_inert_seeded_plans_are_invisible(seed in 0..u64::MAX) {
        // Any seed, no schedules: the run must be byte-identical to one
        // that never heard of churn, and report zero membership events.
        let plan = ChurnPlan::seeded(seed);
        prop_assert!(!plan.enabled());
        let report = churn_base().with_churn(plan).run().expect("inert churn run");
        prop_assert_eq!(report.camera_joins, 0);
        prop_assert_eq!(report.camera_leaves, 0);
        prop_assert_eq!(&report, churn_baseline());
    }
}

// ---------------------------------------------------------------------------
// Mission-service laws. The scheduler is a pure function over (seed,
// request list), so the admission properties get full proptest breadth
// without running a single simulation; only the end-to-end trace
// bit-identity property pays for real mission runs, with tiny case
// counts (mirroring the churn laws above).
// ---------------------------------------------------------------------------

/// Arbitrary mission requests over four tenants: mixed priorities,
/// zero-work clamps, optional (sometimes infeasible) deadlines, and a
/// 1-in-12 invalid-budget lottery so every admission verdict fires.
fn mission_request_strategy() -> impl Strategy<Value = MissionRequest> {
    (
        0..4usize,
        0..3u8,
        0..6u64,
        prop::option::of(0..12u64),
        0..12u8,
    )
        .prop_map(|(tenant, priority, work, deadline, lottery)| {
            let tenants = ["acme", "zenith", "orbit", "kite"];
            let priority = match priority {
                0 => Priority::Low,
                1 => Priority::Normal,
                _ => Priority::High,
            };
            let mut request = MissionRequest::new(tenants[tenant])
                .with_priority(priority)
                .with_work(work);
            if let Some(d) = deadline {
                request = request.with_deadline(d);
            }
            if lottery == 0 {
                request.spec.budget_j_per_frame = Some(-1.0);
            }
            request
        })
}

/// Arbitrary service shapes: tight and roomy slots, queues and caps.
fn service_config_strategy() -> impl Strategy<Value = ServiceConfig> {
    (0..u64::MAX, 1..4usize, 0..5usize, 1..4usize).prop_map(|(seed, slots, queue, cap)| {
        ServiceConfig::new(seed)
            .with_slots(slots)
            .with_queue_capacity(queue)
            .with_tenant_cap(cap)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn admission_is_a_pure_function_of_seed_and_requests(
        config in service_config_strategy(),
        requests in prop::collection::vec(mission_request_strategy(), 0..20),
    ) {
        // Bit-for-bit: two plannings of the same (seed, request order)
        // agree on every verdict, tick, event and queue-depth bound.
        prop_assert_eq!(
            plan_schedule(&config, &requests),
            plan_schedule(&config, &requests)
        );
    }

    #[test]
    fn admission_conserves_every_submission(
        config in service_config_strategy(),
        requests in prop::collection::vec(mission_request_strategy(), 0..20),
    ) {
        // rejections + completions == submitted, with each mission index
        // appearing exactly once.
        let schedule = plan_schedule(&config, &requests);
        prop_assert_eq!(schedule.outcomes.len(), requests.len());
        let mut seen: Vec<usize> = schedule.outcomes.iter().map(|o| o.mission).collect();
        seen.sort_unstable();
        prop_assert_eq!(seen, (0..requests.len()).collect::<Vec<_>>());
        prop_assert_eq!(
            schedule.admitted().len() + schedule.rejections().len(),
            requests.len()
        );
    }

    #[test]
    fn no_priority_inversion_between_same_tenant_requests(
        config in service_config_strategy(),
        requests in prop::collection::vec(mission_request_strategy(), 0..20),
    ) {
        // A higher-priority request already waiting when a same-tenant
        // lower-priority one starts must itself have started no later.
        let schedule = plan_schedule(&config, &requests);
        let starts: Vec<(usize, u64, u64)> = schedule
            .outcomes
            .iter()
            .filter_map(|o| match o.verdict {
                MissionVerdict::Admitted { start_tick, .. } => {
                    Some((o.mission, o.arrival_tick, start_tick))
                }
                _ => None,
            })
            .collect();
        for &(hi, hi_arrival, hi_start) in &starts {
            for &(lo, _, lo_start) in &starts {
                let same_tenant = requests[hi].tenant == requests[lo].tenant;
                if same_tenant
                    && requests[hi].priority > requests[lo].priority
                    && hi_arrival < lo_start
                {
                    prop_assert!(
                        hi_start <= lo_start,
                        "mission {} (high) started at {} after mission {} (low) at {}",
                        hi, hi_start, lo, lo_start
                    );
                }
            }
        }
    }
}

/// The shared service base — one training pass for this binary, via the
/// same memoized artifact cache the service shares across missions.
fn serve_base() -> &'static Simulation {
    static SIM: OnceLock<Simulation> = OnceLock::new();
    SIM.get_or_init(|| service_base(&Artifacts::quick_trained(Scale::Quick, 5)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    #[test]
    fn service_trace_bit_identical_across_worker_counts(
        seed in 0..u64::MAX,
        chaos_seed in 0..u64::MAX,
    ) {
        // Three missions — one clean, one under lossy+corrupting links,
        // one under scheduled churn — planned on an arbitrary virtual
        // clock: the full service trace and every completed report must
        // not depend on the host's worker count.
        let batch = vec![
            MissionRequest::new("acme").with_priority(Priority::High).with_work(2),
            MissionRequest::new("zenith").with_spec(MissionSpec {
                budget_j_per_frame: Some(8.0),
                fault_plan: Some(
                    FaultPlan::seeded(chaos_seed)
                        .with_default_faults(LinkFaults::lossy(0.25))
                        .with_corruption(CorruptionPlan::with_rate(0.2)),
                ),
                ..MissionSpec::default()
            }),
            MissionRequest::new("zenith").with_deadline(9).with_spec(MissionSpec {
                churn: Some(ChurnPlan::seeded(chaos_seed).with_leave(1, 1, 2)),
                ..MissionSpec::default()
            }),
        ];
        let outcome = |workers: usize| {
            let config = ServiceConfig::new(seed).with_slots(2).with_workers(workers);
            MissionService::new(serve_base().clone(), config)
                .run_batch(&batch, &BatchOptions::default())
                .expect("batch runs")
                .run
                .expect("uninterrupted batch assembles")
        };
        let one = outcome(1);
        let two = outcome(2);
        let eight = outcome(8);
        prop_assert_eq!(one.trace_bytes(), two.trace_bytes());
        prop_assert_eq!(one.trace_bytes(), eight.trace_bytes());
        prop_assert_eq!(&one.completed, &two.completed);
        prop_assert_eq!(&one.completed, &eight.completed);
    }
}
