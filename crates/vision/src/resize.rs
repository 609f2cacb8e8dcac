//! Bilinear image resampling.

use crate::image::{GrayImage, RgbImage};
use crate::{Result, VisionError};

/// Resizes a grayscale image to `(new_w, new_h)` with bilinear
/// interpolation.
///
/// # Errors
///
/// Returns [`VisionError::InvalidArgument`] if either target dimension is
/// zero or the source image is empty.
pub fn resize_gray(src: &GrayImage, new_w: usize, new_h: usize) -> Result<GrayImage> {
    check_resize(src, new_w, new_h)?;
    // Identity resize is exact under center-aligned bilinear sampling
    // (fx = x, so every tap lands on the source pixel): skip the sampling
    // loop entirely.
    if new_w == src.width() && new_h == src.height() {
        return Ok(src.clone());
    }
    // Each output column (row) samples the same two source columns (rows)
    // with the same weight, so the taps are resolved once per axis and the
    // inner loop only reads four pixels out of two row slices. Every tap
    // uses the exact `f32` expressions of `bilinear`, so outputs are
    // bit-identical to the per-pixel form (`resize_gray_reference`).
    let cols = taps(src.width(), new_w);
    let rows = taps(src.height(), new_h);
    let mut data = Vec::with_capacity(new_w * new_h);
    for &(y0, y1, ty) in &rows {
        let (top_row, bot_row) = (src.row(y0), src.row(y1));
        data.extend(cols.iter().map(|&(x0, x1, tx)| {
            let (p00, p10) = (top_row[x0], top_row[x1]);
            let (p01, p11) = (bot_row[x0], bot_row[x1]);
            let top = p00 + tx * (p10 - p00);
            let bot = p01 + tx * (p11 - p01);
            top + ty * (bot - top)
        }));
    }
    Ok(GrayImage::from_vec(new_w, new_h, data))
}

/// The argument checks shared by both resize paths.
fn check_resize(src: &GrayImage, new_w: usize, new_h: usize) -> Result<()> {
    if new_w == 0 || new_h == 0 {
        return Err(VisionError::InvalidArgument(
            "target dimensions must be positive".into(),
        ));
    }
    if src.width() == 0 || src.height() == 0 {
        return Err(VisionError::InvalidArgument("empty source image".into()));
    }
    Ok(())
}

/// One axis of the bilinear tap table: for each of the `dst` output
/// positions, the clamped source indices `(i0, i1)` and the weight `t` of
/// `i1`, computed exactly as [`bilinear`] computes them per pixel.
fn taps(src: usize, dst: usize) -> Vec<(usize, usize, f32)> {
    let s = src as f32 / dst as f32;
    let last = src as isize - 1;
    (0..dst)
        .map(|i| {
            let f = (i as f32 + 0.5) * s - 0.5;
            let i0 = f.floor() as isize;
            let t = f - i0 as f32;
            (
                i0.clamp(0, last) as usize,
                (i0 + 1).clamp(0, last) as usize,
                t,
            )
        })
        .collect()
}

/// The per-pixel form of [`resize_gray`]: every output pixel evaluates its
/// own sample position and four clamped taps. Kept as the oracle
/// the tap-table path must match bit for bit (and as the reference side of
/// the resize kernel benchmark).
///
/// # Errors
///
/// Same conditions as [`resize_gray`].
pub fn resize_gray_reference(src: &GrayImage, new_w: usize, new_h: usize) -> Result<GrayImage> {
    check_resize(src, new_w, new_h)?;
    let sx = src.width() as f32 / new_w as f32;
    let sy = src.height() as f32 / new_h as f32;
    Ok(GrayImage::from_fn(new_w, new_h, |x, y| {
        let fx = (x as f32 + 0.5) * sx - 0.5;
        let fy = (y as f32 + 0.5) * sy - 0.5;
        bilinear(src, fx, fy)
    }))
}

/// Resizes an RGB image channel-wise.
///
/// # Errors
///
/// Same conditions as [`resize_gray`].
pub fn resize_rgb(src: &RgbImage, new_w: usize, new_h: usize) -> Result<RgbImage> {
    Ok(RgbImage {
        r: resize_gray(&src.r, new_w, new_h)?,
        g: resize_gray(&src.g, new_w, new_h)?,
        b: resize_gray(&src.b, new_w, new_h)?,
    })
}

/// Downsamples by integer factor `shrink` using box averaging — the
/// aggregation step of ACF ("aggregated channel features").
///
/// Trailing pixels that do not fill a complete `shrink × shrink` block are
/// dropped, matching Dollár's implementation.
///
/// # Errors
///
/// Returns [`VisionError::InvalidArgument`] for `shrink == 0` and
/// [`VisionError::TooSmall`] if the image is smaller than one block.
pub fn box_downsample(src: &GrayImage, shrink: usize) -> Result<GrayImage> {
    if shrink == 0 {
        return Err(VisionError::InvalidArgument(
            "shrink must be positive".into(),
        ));
    }
    let out_w = src.width() / shrink;
    let out_h = src.height() / shrink;
    if out_w == 0 || out_h == 0 {
        return Err(VisionError::TooSmall(format!(
            "{}x{} with shrink {}",
            src.width(),
            src.height(),
            shrink
        )));
    }
    let norm = 1.0 / (shrink * shrink) as f32;
    Ok(GrayImage::from_fn(out_w, out_h, |x, y| {
        let mut sum = 0.0;
        for dy in 0..shrink {
            for dx in 0..shrink {
                sum += src.get(x * shrink + dx, y * shrink + dy);
            }
        }
        sum * norm
    }))
}

fn bilinear(src: &GrayImage, fx: f32, fy: f32) -> f32 {
    let x0 = fx.floor() as isize;
    let y0 = fy.floor() as isize;
    let tx = fx - x0 as f32;
    let ty = fy - y0 as f32;
    let p00 = src.get_clamped(x0, y0);
    let p10 = src.get_clamped(x0 + 1, y0);
    let p01 = src.get_clamped(x0, y0 + 1);
    let p11 = src.get_clamped(x0 + 1, y0 + 1);
    let top = p00 + tx * (p10 - p00);
    let bot = p01 + tx * (p11 - p01);
    top + ty * (bot - top)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_resize_preserves_pixels() {
        let src = GrayImage::from_fn(5, 4, |x, y| (x * 7 + y) as f32 / 40.0);
        let out = resize_gray(&src, 5, 4).unwrap();
        for y in 0..4 {
            for x in 0..5 {
                assert!((out.get(x, y) - src.get(x, y)).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn constant_image_stays_constant() {
        let src = GrayImage::filled(8, 8, 0.37);
        let out = resize_gray(&src, 3, 13).unwrap();
        for p in out.as_slice() {
            assert!((p - 0.37).abs() < 1e-5);
        }
    }

    #[test]
    fn upscale_preserves_mean_roughly() {
        let src = GrayImage::from_fn(4, 4, |x, _| if x < 2 { 0.0 } else { 1.0 });
        let out = resize_gray(&src, 16, 16).unwrap();
        assert!((out.mean() - src.mean()).abs() < 0.05);
    }

    #[test]
    fn rejects_zero_target() {
        let src = GrayImage::new(4, 4);
        assert!(resize_gray(&src, 0, 4).is_err());
        assert!(resize_gray(&src, 4, 0).is_err());
    }

    #[test]
    fn box_downsample_averages_blocks() {
        let src = GrayImage::from_vec(2, 2, vec![0.0, 1.0, 1.0, 0.0]);
        let out = box_downsample(&src, 2).unwrap();
        assert_eq!(out.width(), 1);
        assert!((out.get(0, 0) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn box_downsample_drops_partial_blocks() {
        let src = GrayImage::filled(5, 5, 1.0);
        let out = box_downsample(&src, 2).unwrap();
        assert_eq!((out.width(), out.height()), (2, 2));
    }

    #[test]
    fn box_downsample_rejects_degenerate() {
        let src = GrayImage::filled(3, 3, 1.0);
        assert!(box_downsample(&src, 0).is_err());
        assert!(box_downsample(&src, 4).is_err());
    }

    #[test]
    fn rgb_resize_channels_independent() {
        let mut src = RgbImage::new(2, 2);
        src.set(0, 0, [1.0, 0.0, 0.5]);
        src.set(1, 0, [1.0, 0.0, 0.5]);
        src.set(0, 1, [1.0, 0.0, 0.5]);
        src.set(1, 1, [1.0, 0.0, 0.5]);
        let out = resize_rgb(&src, 4, 4).unwrap();
        let px = out.get(2, 2);
        assert!((px[0] - 1.0).abs() < 1e-5);
        assert!(px[1].abs() < 1e-5);
        assert!((px[2] - 0.5).abs() < 1e-5);
    }
}
