//! Image gradients: Sobel filters, magnitude and orientation.

use crate::image::GrayImage;

/// Per-pixel gradient magnitude and orientation of an image.
///
/// Orientation is *unsigned* (mapped into `[0, π)`), the convention used by
/// both HOG and ACF channel features.
#[derive(Debug, Clone)]
pub struct GradientField {
    /// Gradient magnitude per pixel.
    pub magnitude: GrayImage,
    /// Unsigned orientation per pixel, radians in `[0, π)`.
    pub orientation: GrayImage,
}

impl GradientField {
    /// Computes Sobel gradients of `img` with clamp-to-edge borders.
    pub fn compute(img: &GrayImage) -> GradientField {
        let w = img.width();
        let h = img.height();
        let mut magnitude = Vec::with_capacity(w * h);
        let mut orientation = Vec::with_capacity(w * h);
        for y in 0..h {
            // The three clamped rows of the 3×3 stencil; columns clamp the
            // same way, so each tap is the pixel `get_clamped` would read.
            let (up, mid, dn) = (
                img.row(y.saturating_sub(1)),
                img.row(y),
                img.row((y + 1).min(h - 1)),
            );
            for x in 0..w {
                let (l, r) = (x.saturating_sub(1), (x + 1).min(w - 1));
                // Same terms in the same order as the per-pixel stencil.
                let gx = (up[r] + 2.0 * mid[r] + dn[r]) - (up[l] + 2.0 * mid[l] + dn[l]);
                let gy = (dn[l] + 2.0 * dn[x] + dn[r]) - (up[l] + 2.0 * up[x] + up[r]);
                let (mag, theta) = polar(gx, gy);
                magnitude.push(mag);
                orientation.push(theta);
            }
        }
        GradientField {
            magnitude: GrayImage::from_vec(w, h, magnitude),
            orientation: GrayImage::from_vec(w, h, orientation),
        }
    }

    /// Quantizes the orientation at `(x, y)` into one of `bins` equal
    /// sectors of `[0, π)`.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or the coordinates are out of bounds.
    pub fn orientation_bin(&self, x: usize, y: usize, bins: usize) -> usize {
        assert!(bins > 0, "bins must be positive");
        let theta = self.orientation.get(x, y);
        let bin = (theta / std::f32::consts::PI * bins as f32) as usize;
        bin.min(bins - 1)
    }
}

/// Magnitude and unsigned orientation (`[0, π)`) of the gradient `(gx, gy)`.
fn polar(gx: f32, gy: f32) -> (f32, f32) {
    let mag = (gx * gx + gy * gy).sqrt();
    let mut theta = (gy).atan2(gx); // [-π, π]
    if theta < 0.0 {
        theta += std::f32::consts::PI; // unsigned: [0, π)
    }
    if theta >= std::f32::consts::PI {
        theta -= std::f32::consts::PI;
    }
    (mag, theta)
}

/// Sum of gradient magnitude over the whole image — a cheap "edge energy"
/// statistic used by scene-difference heuristics.
pub fn edge_energy(img: &GrayImage) -> f64 {
    let g = GradientField::compute(img);
    g.magnitude.as_slice().iter().map(|&m| m as f64).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sobel response at a pixel, clamped borders. Returns `(gx, gy)`.
    fn sobel_at(img: &GrayImage, x: isize, y: isize) -> (f32, f32) {
        let p = |dx: isize, dy: isize| img.get_clamped(x + dx, y + dy);
        let gx = (p(1, -1) + 2.0 * p(1, 0) + p(1, 1)) - (p(-1, -1) + 2.0 * p(-1, 0) + p(-1, 1));
        let gy = (p(-1, 1) + 2.0 * p(0, 1) + p(1, 1)) - (p(-1, -1) + 2.0 * p(0, -1) + p(1, -1));
        (gx, gy)
    }

    /// The row-slice stencil equals the per-pixel `get_clamped` stencil bit
    /// for bit, borders and degenerate 1-pixel-wide/high images included.
    #[test]
    fn compute_matches_per_pixel_stencil() {
        for (w, h) in [(1, 1), (1, 7), (9, 1), (2, 2), (13, 11)] {
            let img = GrayImage::from_fn(w, h, |x, y| ((x * 37 + y * 101) % 53) as f32 / 53.0);
            let g = GradientField::compute(&img);
            for y in 0..h {
                for x in 0..w {
                    let (gx, gy) = sobel_at(&img, x as isize, y as isize);
                    let (mag, theta) = polar(gx, gy);
                    assert_eq!(g.magnitude.get(x, y).to_bits(), mag.to_bits());
                    assert_eq!(g.orientation.get(x, y).to_bits(), theta.to_bits());
                }
            }
        }
    }

    #[test]
    fn flat_image_has_zero_gradient() {
        let img = GrayImage::filled(8, 8, 0.4);
        let g = GradientField::compute(&img);
        assert!(g.magnitude.as_slice().iter().all(|&m| m.abs() < 1e-6));
    }

    #[test]
    fn vertical_edge_has_horizontal_gradient() {
        // Left half dark, right half bright → gradient along x (θ ≈ 0).
        let img = GrayImage::from_fn(8, 8, |x, _| if x < 4 { 0.0 } else { 1.0 });
        let g = GradientField::compute(&img);
        // At the edge column the magnitude is large...
        assert!(g.magnitude.get(4, 4) > 1.0);
        // ...and the orientation is near 0 or π (unsigned horizontal).
        let theta = g.orientation.get(4, 4);
        assert!(
            !(0.2..=std::f32::consts::PI - 0.2).contains(&theta),
            "theta={theta}"
        );
    }

    #[test]
    fn horizontal_edge_has_vertical_gradient() {
        let img = GrayImage::from_fn(8, 8, |_, y| if y < 4 { 0.0 } else { 1.0 });
        let g = GradientField::compute(&img);
        let theta = g.orientation.get(4, 4);
        assert!(
            (theta - std::f32::consts::FRAC_PI_2).abs() < 0.2,
            "theta={theta}"
        );
    }

    #[test]
    fn orientation_in_range() {
        let img = GrayImage::from_fn(16, 16, |x, y| ((x * 3 + y * 7) % 5) as f32 / 5.0);
        let g = GradientField::compute(&img);
        for &theta in g.orientation.as_slice() {
            assert!((0.0..std::f32::consts::PI).contains(&theta));
        }
    }

    #[test]
    fn orientation_bins_cover_all_indices() {
        let img = GrayImage::from_fn(8, 8, |x, y| if x + y < 8 { 0.0 } else { 1.0 });
        let g = GradientField::compute(&img);
        for y in 0..8 {
            for x in 0..8 {
                let b = g.orientation_bin(x, y, 6);
                assert!(b < 6);
            }
        }
    }

    #[test]
    fn diagonal_edge_in_diagonal_bin() {
        // Anti-diagonal edge: gradient direction 45°, bin index ~ bins/4.
        let img = GrayImage::from_fn(16, 16, |x, y| if x + y < 16 { 0.0 } else { 1.0 });
        let g = GradientField::compute(&img);
        let b = g.orientation_bin(8, 8, 4);
        assert_eq!(b, 1, "45° should fall in the second of four bins");
    }

    #[test]
    fn edge_energy_orders_images() {
        let flat = GrayImage::filled(16, 16, 0.5);
        let busy = GrayImage::from_fn(16, 16, |x, _| (x % 2) as f32);
        assert!(edge_energy(&busy) > edge_energy(&flat));
    }
}
