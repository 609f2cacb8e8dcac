//! Shared kernel-optimization primitives for the detector hot paths.
//!
//! The sliding-window scans dominate the whole simulator. C4 was the
//! costliest detector: about 50 ms per miniature frame on a 2-core x86
//! host when every window was scored, about 15 ms behind the band-sum
//! screen, just under LSVM. Two constant-factor sinks recur across all
//! four detectors:
//!
//! 1. **Redundant per-window recomputation** — every pixel of a census
//!    level was re-fetched as `f32` and re-cast/clamped to a code by each
//!    of the ~(W/stride)·(H/stride) overlapping windows covering it.
//!    [`CensusCodePlane::census`] writes each level's codes once, straight
//!    from the level's pixels.
//! 2. **Per-window allocations** — HOG descriptors, census histograms and
//!    NMS buffers were freshly `Vec`-allocated in the innermost loops.
//!    [`DetectScratch`] owns those buffers; detectors check one out of the
//!    [`FrameFeatures`](crate::FrameFeatures) pool per `detect` call and
//!    reuse it across every window and scale.
//!
//! Everything here is **output-preserving by construction**: the same
//! integer codes, the same `f64` values in the same order, so scores,
//! boxes, and `ops` counters stay bit-identical to the unoptimized
//! reference paths (enforced by `tests/kernel_equivalence.rs`).

use eecs_vision::image::GrayImage;

use crate::c4_detector::{CENSUS_BINS as CODE_BINS, CENSUS_MARGIN};

/// A census level as a dense `u8` code plane.
///
/// `census_transform` stores codes as `f32` pixels in a [`GrayImage`]
/// (exact integers in `[0, 255]`). Scoring reads them as
/// `(pixel as usize).min(255)`; this plane applies that cast/clamp once
/// per pixel instead of once per covering window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CensusCodePlane {
    width: usize,
    height: usize,
    codes: Vec<u8>,
}

impl CensusCodePlane {
    /// Casts a census-transformed level into codes. Each code equals
    /// `(census.get(x, y) as usize).min(255)` — the exact expression the
    /// reference scoring path evaluates per window pixel.
    pub fn from_census(census: &GrayImage) -> CensusCodePlane {
        let codes = census
            .as_slice()
            .iter()
            .map(|&v| (v as usize).min(CODE_BINS - 1) as u8)
            .collect();
        CensusCodePlane {
            width: census.width(),
            height: census.height(),
            codes,
        }
    }

    /// The census transform of `level`, built straight into codes: equal
    /// to `CensusCodePlane::from_census(&census_transform(level))` without
    /// the intermediate `f32` image.
    ///
    /// Each pixel evaluates the same eight `f32` tests
    /// `n < c - CENSUS_MARGIN` against the same clamp-to-edge neighbours,
    /// setting bits in the same order (row above left to right, then left,
    /// right, then row below left to right). Codes fit in 8 bits, so the
    /// `(code as usize).min(255)` cast of `from_census` is the identity.
    pub fn census(level: &GrayImage) -> CensusCodePlane {
        let (w, h) = (level.width(), level.height());
        let mut codes = Vec::with_capacity(w * h);
        for y in 0..h {
            let (up, mid, dn) = (
                level.row(y.saturating_sub(1)),
                level.row(y),
                level.row((y + 1).min(h - 1)),
            );
            for x in 0..w {
                let (l, r) = (x.saturating_sub(1), (x + 1).min(w - 1));
                let t = mid[x] - CENSUS_MARGIN;
                let neighbours = [up[l], up[x], up[r], mid[l], mid[r], dn[l], dn[x], dn[r]];
                let code = neighbours
                    .iter()
                    .enumerate()
                    .fold(0u8, |code, (bit, &n)| code | (u8::from(n < t) << bit));
                codes.push(code);
            }
        }
        CensusCodePlane {
            width: w,
            height: h,
            codes,
        }
    }

    /// Plane width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Plane height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Code at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are outside the plane.
    #[inline]
    pub fn code(&self, x: usize, y: usize) -> usize {
        self.codes[y * self.width + x] as usize
    }

    /// The codes of row `y` from column `x0`, `len` wide.
    ///
    /// # Panics
    ///
    /// Panics if the span exceeds the plane.
    #[inline]
    pub fn row(&self, x0: usize, y: usize, len: usize) -> &[u8] {
        let start = y * self.width + x0;
        &self.codes[start..start + len]
    }

    /// Raw row-major code slice.
    pub fn as_slice(&self) -> &[u8] {
        &self.codes
    }
}

/// Reusable scratch buffers for one detector scan.
///
/// Checked out of the per-frame pool via
/// [`FrameFeatures::with_scratch`](crate::FrameFeatures::with_scratch);
/// buffers keep their capacity between windows, scales, detectors, and
/// frames, so the steady-state hot loop performs no heap allocation.
/// Contents are transient — every user clears (or overwrites) a buffer
/// before reading it.
#[derive(Debug, Default)]
pub struct DetectScratch {
    /// HOG window / root descriptors (`window_descriptor_into`).
    pub descriptor: Vec<f64>,
    /// LSVM part descriptors (kept separate from `descriptor` so the root
    /// descriptor could still be alive while parts are probed).
    pub part_descriptor: Vec<f64>,
    /// Census window histograms (`window_census_histogram_into`).
    pub histogram: Vec<f64>,
    /// Per-level flattened lookup offsets (ACF stump positions).
    pub offsets: Vec<usize>,
    /// C4 band row sums of one tile band over a level.
    pub band_row_sums: Vec<f64>,
    /// C4 per-window sums of one level (the band-sum screen).
    pub window_sums: Vec<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_plane_matches_reference_cast() {
        // Include out-of-range and fractional values: the plane must apply
        // exactly the `(v as usize).min(255)` cast the scorer used.
        let census = GrayImage::from_fn(7, 5, |x, y| match (x + y) % 4 {
            0 => (x * 37 + y) as f32,
            1 => 255.9,
            2 => 300.0,
            _ => 12.5,
        });
        let plane = CensusCodePlane::from_census(&census);
        assert_eq!(plane.width(), 7);
        assert_eq!(plane.height(), 5);
        for y in 0..5 {
            for x in 0..7 {
                let want = (census.get(x, y) as usize).min(255);
                assert_eq!(plane.code(x, y), want, "at ({x},{y})");
            }
        }
        let row = plane.row(2, 3, 4);
        assert_eq!(row.len(), 4);
        for (i, &c) in row.iter().enumerate() {
            assert_eq!(c as usize, plane.code(2 + i, 3));
        }
    }

    #[test]
    fn scratch_buffers_keep_capacity() {
        let mut s = DetectScratch::default();
        s.descriptor.extend([1.0; 64]);
        let cap = s.descriptor.capacity();
        s.descriptor.clear();
        assert!(s.descriptor.capacity() >= cap);
    }
}
