//! Equivalence battery for the kernel-optimization pass.
//!
//! Every optimized detector hot path (precomputed census code planes, the
//! C4 early-reject cascade, precomputed HOG block grids, flattened ACF
//! lookups, shared scratch buffers) must reproduce the pre-optimization
//! `detect()` semantics **bit for bit**: same candidate set, every score
//! and bbox coordinate identical under `f64::to_bits`, and the exact same
//! `ops` counter (the energy model's input). The pre-optimization loops
//! are kept verbatim as `detect_reference` on each detector; these
//! properties drive both paths over randomized models, frames, strides,
//! floors and scale schedules.
//!
//! The C4 cascade additionally carries a soundness obligation: its
//! conservative remaining-contribution bound may only reject windows whose
//! true score is below `keep_floor` — a rejected window must never be one
//! the reference path would have kept. The band-sum screen in front of it
//! carries the same obligation, checked through `detect` at every row
//! length and stride.
//!
//! The shared kernels under the detectors have their own oracles: census
//! codes built straight from a level equal the `f32` census transform
//! cast to codes, and the tap-table resize equals per-pixel bilinear
//! sampling.

use eecs::detect::c4_detector::{
    census_transform, C4Detector, C4DetectorConfig, C4_FEATURE_DIM, CENSUS_MARGIN,
};
use eecs::detect::hog_detector::{HogDetectorConfig, HogSvmDetector};
use eecs::detect::lsvm_detector::{LsvmDetector, LsvmDetectorConfig};
use eecs::detect::pyramid::ScaleSchedule;
use eecs::detect::pyramid::{WINDOW_H, WINDOW_W};
use eecs::detect::{CensusCodePlane, DetectionOutput, Detector, DetectorBank, FrameFeatures};
use eecs::learn::svm::LinearSvm;
use eecs::vision::draw;
use eecs::vision::image::{GrayImage, RgbImage};
use eecs::vision::resize::{resize_gray, resize_gray_reference};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::OnceLock;

/// HOG root-filter dimension for the default 4-px cell / 2-cell block /
/// 9-bin layout over the 16×48 window: (4-2+1)·(12-2+1)·2·2·9.
const HOG_ROOT_DIM: usize = 3 * 11 * 2 * 2 * 9;
/// LSVM part-filter dimension: 2×2-cell parts under the same block layout
/// hold a single 2×2-cell block: (2-2+1)²·2·2·9.
const LSVM_PART_DIM: usize = 2 * 2 * 9;

fn random_weights(rng: &mut StdRng, dim: usize, amp: f64) -> Vec<f64> {
    (0..dim).map(|_| rng.random_range(-amp..amp)).collect()
}

/// A deterministic synthetic frame: gradient background, up to two humans,
/// sensor noise. Exercises both dense-texture and flat regions.
fn random_frame(seed: u64, w: usize, h: usize) -> RgbImage {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut img = RgbImage::new(w, h);
    draw::vertical_gradient(
        &mut img,
        [
            rng.random_range(0.1..0.6),
            rng.random_range(0.1..0.6),
            rng.random_range(0.1..0.6),
        ],
        [
            rng.random_range(0.3..0.9),
            rng.random_range(0.3..0.9),
            rng.random_range(0.3..0.9),
        ],
    );
    for _ in 0..rng.random_range(0..3usize) {
        let hw = rng.random_range(0.12..0.3) * w as f64;
        let hh = 3.0 * hw;
        let x0 = rng.random_range(0.0..(w as f64 - hw).max(1.0));
        let y0 = rng.random_range(0.0..(h as f64 - hh).max(1.0));
        draw::draw_human(
            &mut img,
            x0,
            y0,
            x0 + hw,
            y0 + hh,
            [
                rng.random_range(0.0..1.0),
                rng.random_range(0.0..1.0),
                rng.random_range(0.0..1.0),
            ],
            [0.8, 0.65, 0.55],
        );
    }
    draw::add_noise(&mut img, 0.04, &mut rng);
    img
}

/// Bit-exact comparison of two detector outputs: `ops`, candidate count,
/// and every score / bbox coordinate under `to_bits`.
fn assert_bit_identical(opt: &DetectionOutput, reference: &DetectionOutput) {
    assert_eq!(opt.ops, reference.ops, "ops diverged");
    assert_eq!(
        opt.detections.len(),
        reference.detections.len(),
        "candidate set diverged"
    );
    for (a, b) in opt.detections.iter().zip(&reference.detections) {
        assert_eq!(a.score.to_bits(), b.score.to_bits(), "score bits diverged");
        for (pa, pb) in [
            (a.bbox.x0, b.bbox.x0),
            (a.bbox.y0, b.bbox.y0),
            (a.bbox.x1, b.bbox.x1),
            (a.bbox.y1, b.bbox.y1),
        ] {
            assert_eq!(pa.to_bits(), pb.to_bits(), "bbox bits diverged");
        }
    }
}

/// A narrow scale schedule keeps debug-mode runtime sane while still
/// spanning several pyramid levels.
fn random_schedule(rng: &mut StdRng) -> ScaleSchedule {
    ScaleSchedule {
        min_scale: rng.random_range(0.45..0.7),
        max_scale: rng.random_range(0.9..1.25),
        ratio: rng.random_range(1.25..1.6),
    }
}

/// Quick-trained bank shared by the trained-model properties.
fn bank() -> &'static DetectorBank {
    static BANK: OnceLock<DetectorBank> = OnceLock::new();
    BANK.get_or_init(|| DetectorBank::train_quick(7).expect("bank"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// C4: random SVM, stride, floor, schedule and frame — the cascade +
    /// code-plane path equals the pre-PR loop bit for bit.
    #[test]
    fn c4_detect_matches_reference(
        seed in 0..10_000u64,
        stride in 1..5usize,
        keep_floor in -1.0..0.5f64,
    ) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xc4);
        let config = C4DetectorConfig {
            internal_w: rng.random_range(100..160),
            internal_h: rng.random_range(90..140),
            scales: random_schedule(&mut rng),
            stride,
            keep_floor,
            ..C4DetectorConfig::default()
        };
        let svm = LinearSvm::from_parts(
            random_weights(&mut rng, C4_FEATURE_DIM, 0.02),
            rng.random_range(-0.4..0.4),
        );
        let det = C4Detector::from_svm(config, svm).expect("from_svm");
        let frame = random_frame(seed, rng.random_range(90..170), rng.random_range(90..150));
        assert_bit_identical(&det.detect(&frame), &det.detect_reference(&frame));
    }

    /// C4 cascade soundness: over every window of a random census plane,
    /// a `None` from the cascaded scan implies the reference score is
    /// below `keep_floor`, and a `Some` carries bit-identical score.
    #[test]
    fn c4_cascade_bound_is_sound(
        seed in 0..10_000u64,
        keep_floor in -1.0..0.5f64,
    ) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x50);
        let config = C4DetectorConfig {
            keep_floor,
            ..C4DetectorConfig::default()
        };
        // Larger weights than the detect property: the bound only bites
        // when scores spread well past the floor.
        let svm = LinearSvm::from_parts(
            random_weights(&mut rng, C4_FEATURE_DIM, 0.6),
            rng.random_range(-0.4..0.4),
        );
        let det = C4Detector::from_svm(config, svm).expect("from_svm");
        let (w, h) = (rng.random_range(24..56), rng.random_range(56..90));
        let census = GrayImage::from_fn(w, h, |_, _| rng.random_range(0..256u32) as f32);
        let codes = CensusCodePlane::from_census(&census);
        let mut windows = 0usize;
        let mut rejected = 0usize;
        let mut y0 = 0;
        while y0 + 48 <= h {
            let mut x0 = 0;
            while x0 + 16 <= w {
                windows += 1;
                let want = det.score_window_reference(&census, x0, y0);
                match det.scan_window(&codes, x0, y0) {
                    Some(got) => prop_assert_eq!(got.to_bits(), want.to_bits()),
                    None => {
                        rejected += 1;
                        prop_assert!(
                            want < keep_floor,
                            "cascade rejected a window scoring {} >= floor {}",
                            want,
                            keep_floor
                        );
                    }
                }
                x0 += 3;
            }
            y0 += 5;
        }
        prop_assert!(windows > 0);
        let _ = rejected;
    }

    /// HOG: random root filter over the precomputed block grid equals the
    /// per-window descriptor-assembly loop bit for bit.
    #[test]
    fn hog_detect_matches_reference(
        seed in 0..10_000u64,
        stride_cells in 1..3usize,
        keep_floor in -1.0..0.5f64,
    ) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x806);
        let config = HogDetectorConfig {
            scales: random_schedule(&mut rng),
            stride_cells,
            keep_floor,
            ..HogDetectorConfig::default()
        };
        let svm = LinearSvm::from_parts(
            random_weights(&mut rng, HOG_ROOT_DIM, 0.05),
            rng.random_range(-0.4..0.4),
        );
        let det = HogSvmDetector::from_svm(config, svm).expect("from_svm");
        let frame = random_frame(seed, rng.random_range(80..150), rng.random_range(80..140));
        assert_bit_identical(&det.detect(&frame), &det.detect_reference(&frame));
    }

    /// LSVM: random root + part filters — block-grid part scoring with
    /// displacement search equals the reference loop bit for bit.
    #[test]
    fn lsvm_detect_matches_reference(
        seed in 0..10_000u64,
        keep_floor in -1.0..0.5f64,
    ) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x157);
        let config = LsvmDetectorConfig {
            scales: random_schedule(&mut rng),
            part_gate: rng.random_range(-1.0..0.0),
            deformation: rng.random_range(0.05..0.5),
            part_weight: rng.random_range(0.1..0.6),
            keep_floor,
            ..LsvmDetectorConfig::default()
        };
        let root = LinearSvm::from_parts(
            random_weights(&mut rng, HOG_ROOT_DIM, 0.05),
            rng.random_range(-0.4..0.4),
        );
        let parts = (0..4)
            .map(|_| {
                LinearSvm::from_parts(
                    random_weights(&mut rng, LSVM_PART_DIM, 0.1),
                    rng.random_range(-0.2..0.2),
                )
            })
            .collect();
        let det = LsvmDetector::from_filters(config, root, parts).expect("from_filters");
        let frame = random_frame(seed, rng.random_range(80..150), rng.random_range(80..140));
        assert_bit_identical(&det.detect(&frame), &det.detect_reference(&frame));
    }

    /// ACF: the flattened channel-lookup path on a trained boosted forest
    /// equals the reference cascade bit for bit.
    #[test]
    fn acf_detect_matches_reference(seed in 0..10_000u64) {
        let det = bank().acf();
        let frame = random_frame(seed, 120, 100);
        assert_bit_identical(&det.detect(&frame), &det.detect_reference(&frame));
    }
}

/// A random `w × h` level in `[0, 1)` where about a third of the pixels
/// sit exactly `CENSUS_MARGIN` below their left neighbour, so the census
/// test `n < c - CENSUS_MARGIN` meets its boundary (equal, not below).
fn threshold_level(rng: &mut StdRng, w: usize, h: usize) -> GrayImage {
    let mut level = GrayImage::new(w, h);
    for y in 0..h {
        for x in 0..w {
            let v = if x > 0 && rng.random_bool(0.35) {
                level.get(x - 1, y) - CENSUS_MARGIN
            } else {
                rng.random_range(0.0..1.0f32)
            };
            level.set(x, y, v);
        }
    }
    level
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Census codes built straight from a level equal the `f32` census
    /// transform cast to codes, on degenerate 1×N, N×1 and 2×2 levels as
    /// well as a random one.
    #[test]
    fn direct_census_codes_match_transform(
        seed in 0..10_000u64,
        n in 1..24usize,
        w in 1..40usize,
        h in 1..40usize,
    ) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xce5);
        for (lw, lh) in [(1, n), (n, 1), (2, 2), (w, h)] {
            let level = threshold_level(&mut rng, lw, lh);
            prop_assert_eq!(
                CensusCodePlane::census(&level),
                CensusCodePlane::from_census(&census_transform(&level))
            );
        }
    }

    /// The tap-table resize equals per-pixel bilinear sampling bit for bit
    /// for upscales, downscales, the identity and 1×1 sources and targets.
    #[test]
    fn resize_matches_bilinear_oracle(
        seed in 0..10_000u64,
        w in 1..48usize,
        h in 1..48usize,
        nw in 1..64usize,
        nh in 1..64usize,
    ) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x2e5);
        let src = GrayImage::from_fn(w, h, |_, _| rng.random_range(0.0..1.0f32));
        let tiny = GrayImage::filled(1, 1, rng.random_range(0.0..1.0f32));
        for (img, tw, th) in [
            (&src, nw, nh),
            (&src, w, h),
            (&src, 2 * w + 1, h.div_ceil(3)),
            (&src, 1, 1),
            (&tiny, nw, nh),
        ] {
            let got = resize_gray(img, tw, th).expect("resize");
            let want = resize_gray_reference(img, tw, th).expect("reference resize");
            prop_assert_eq!((got.width(), got.height()), (tw, th));
            for (a, b) in got.as_slice().iter().zip(want.as_slice()) {
                prop_assert!(
                    a.to_bits() == b.to_bits(),
                    "{}x{} -> {}x{}: {} vs {}",
                    w,
                    h,
                    tw,
                    th,
                    a,
                    b
                );
            }
        }
    }

    /// C4 row lengths: single-level schedules whose rows hold 1, 7, 8 and
    /// 9 windows at strides 1–4, with a few spare rows and columns that no
    /// window reaches. `detect` (band-sum screen, then the cascaded scan)
    /// equals `detect_reference`, and `cascade_stats` counts exactly the
    /// windows and rejections of the window-at-a-time scan.
    #[test]
    fn c4_row_lengths_match_reference(
        seed in 0..10_000u64,
        keep_floor in -0.5..0.5f64,
    ) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1a4e);
        let svm = LinearSvm::from_parts(
            random_weights(&mut rng, C4_FEATURE_DIM, 0.6),
            rng.random_range(-0.4..0.4),
        );
        let frame = random_frame(seed, rng.random_range(60..140), rng.random_range(60..140));
        for per_row in [1, 7, 8, 9] {
            for stride in 1..=4 {
                let iw = WINDOW_W + (per_row - 1) * stride + rng.random_range(0..stride);
                let ih = WINDOW_H + rng.random_range(0..3 * stride);
                let config = C4DetectorConfig {
                    internal_w: iw,
                    internal_h: ih,
                    scales: ScaleSchedule {
                        min_scale: 1.0,
                        max_scale: 1.0,
                        ratio: 1.5,
                    },
                    stride,
                    keep_floor,
                    ..C4DetectorConfig::default()
                };
                let det = C4Detector::from_svm(config, svm.clone()).expect("from_svm");
                assert_bit_identical(&det.detect(&frame), &det.detect_reference(&frame));

                let codes = FrameFeatures::new(&frame)
                    .census_codes(iw, ih, iw, ih)
                    .expect("census codes");
                let (mut windows, mut rejected) = (0u64, 0u64);
                for y0 in (0..=ih - WINDOW_H).step_by(stride) {
                    for x0 in (0..=iw - WINDOW_W).step_by(stride) {
                        windows += 1;
                        rejected += u64::from(det.scan_window(&codes, x0, y0).is_none());
                    }
                }
                prop_assert_eq!(windows % per_row as u64, 0);
                prop_assert_eq!(det.cascade_stats(&frame), (windows, rejected));
            }
        }
    }
}

/// The trained bank end to end on one deterministic frame: all four
/// detectors through both paths (a seatbelt on top of the random-model
/// properties, using realistic trained weights).
#[test]
fn trained_bank_detectors_match_reference() {
    let frame = random_frame(99, 160, 130);
    let b = bank();
    assert_bit_identical(&b.c4().detect(&frame), &b.c4().detect_reference(&frame));
    assert_bit_identical(&b.hog().detect(&frame), &b.hog().detect_reference(&frame));
    assert_bit_identical(&b.lsvm().detect(&frame), &b.lsvm().detect_reference(&frame));
    assert_bit_identical(&b.acf().detect(&frame), &b.acf().detect_reference(&frame));
}
