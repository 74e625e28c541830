//! Batched and multi-dimensional FFT helpers built on [`Fft1d`].
//!
//! The engine transforms lines stored as the columns of an `[n][b]` array.
//! Lines that are already columns (every axis but the fastest) are
//! transformed where they lie, in column blocks; lines that are contiguous
//! rows go through small transposed tiles.

use crate::complex::Complex64;
use crate::plan::Fft1d;

/// Transform direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Forward (`exp(-ikx)` convention, unnormalized).
    Forward,
    /// Inverse (with `1/n` normalization per transformed axis).
    Inverse,
}

/// Rows per transposed tile in [`transform_rows`] and the real row transforms.
pub(crate) const ROW_TILE: usize = 16;

/// Widest column batch [`transform_columns`] transforms in place; wider
/// arrays are copied through `[n][COL_BLOCK]` tiles so a block's working
/// set stays in cache across the engine's stages.
const COL_BLOCK: usize = 32;

/// Reusable buffers for the batched helpers: a transposed tile and the
/// engine's scratch. Pass one per thread; the helpers allocate nothing
/// once it has grown to the largest size they need.
#[derive(Debug, Default, Clone)]
pub struct FftScratch {
    pub(crate) tile: Vec<Complex64>,
    pub(crate) work: Vec<Complex64>,
}

/// Applies `plan` to every contiguous row of `data` (`[count][n]`).
pub fn transform_rows(plan: &Fft1d, data: &mut [Complex64], dir: Direction, ws: &mut FftScratch) {
    let n = plan.len();
    assert_eq!(data.len() % n, 0, "data length must be a multiple of line length");
    for rows in data.chunks_mut(ROW_TILE * n) {
        let t = rows.len() / n;
        ws.tile.resize(n * t, Complex64::ZERO);
        for (l, row) in rows.chunks_exact(n).enumerate() {
            for (j, &v) in row.iter().enumerate() {
                ws.tile[j * t + l] = v;
            }
        }
        plan.process(&mut ws.tile, t, dir, &mut ws.work);
        for (l, row) in rows.chunks_exact_mut(n).enumerate() {
            for (j, v) in row.iter_mut().enumerate() {
                *v = ws.tile[j * t + l];
            }
        }
    }
}

/// Applies `plan` to every column of `data`, a stack of `[n][width]`
/// row-major slabs: element `j` of column `c` in slab `s` is
/// `data[(s * n + j) * width + c]`.
pub fn transform_columns(
    plan: &Fft1d,
    data: &mut [Complex64],
    width: usize,
    dir: Direction,
    ws: &mut FftScratch,
) {
    let n = plan.len();
    let slab_len = n * width;
    if slab_len == 0 {
        assert!(data.is_empty(), "zero-width columns hold no data");
        return;
    }
    assert_eq!(data.len() % slab_len, 0, "data must be a stack of [n][width] slabs");
    for slab in data.chunks_exact_mut(slab_len) {
        if width <= COL_BLOCK {
            plan.process(slab, width, dir, &mut ws.work);
            continue;
        }
        for c0 in (0..width).step_by(COL_BLOCK) {
            let bw = COL_BLOCK.min(width - c0);
            ws.tile.resize(n * bw, Complex64::ZERO);
            for (t, s) in ws.tile.chunks_exact_mut(bw).zip(slab.chunks_exact(width)) {
                t.copy_from_slice(&s[c0..c0 + bw]);
            }
            plan.process(&mut ws.tile, bw, dir, &mut ws.work);
            for (t, s) in ws.tile.chunks_exact(bw).zip(slab.chunks_exact_mut(width)) {
                s[c0..c0 + bw].copy_from_slice(t);
            }
        }
    }
}

/// A serial 3D FFT plan for a row-major array of shape `[n0, n1, n2]`
/// (axis 2 fastest).
#[derive(Debug, Clone)]
pub struct Fft3d {
    shape: [usize; 3],
    plans: [Fft1d; 3],
}

impl Fft3d {
    /// Plans a 3D transform for the given shape.
    pub fn new(shape: [usize; 3]) -> Self {
        Self { shape, plans: [Fft1d::new(shape[0]), Fft1d::new(shape[1]), Fft1d::new(shape[2])] }
    }

    /// Array shape `[n0, n1, n2]`.
    pub fn shape(&self) -> [usize; 3] {
        self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.shape.iter().product()
    }

    /// Always false for a constructed plan.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Transforms along a single axis only.
    pub fn transform_axis(&self, data: &mut [Complex64], axis: usize, dir: Direction) {
        let [_, n1, n2] = self.shape;
        assert_eq!(data.len(), self.len());
        let ws = &mut FftScratch::default();
        match axis {
            2 => transform_rows(&self.plans[2], data, dir, ws),
            // Each axis-0 index holds one [n1][n2] slab of axis-1 columns.
            1 => transform_columns(&self.plans[1], data, n2, dir, ws),
            0 => transform_columns(&self.plans[0], data, n1 * n2, dir, ws),
            // diffreg-allow(no-unwrap-in-lib): axis is an internal index in 0..3; the match above handles 1 and 2 exhaustively
            _ => panic!("axis out of range"),
        }
    }

    /// Full 3D forward transform (unnormalized).
    pub fn forward(&self, data: &mut [Complex64]) {
        self.transform_axis(data, 2, Direction::Forward);
        self.transform_axis(data, 1, Direction::Forward);
        self.transform_axis(data, 0, Direction::Forward);
    }

    /// Full 3D inverse transform (normalized by `1/(n0*n1*n2)` overall).
    pub fn inverse(&self, data: &mut [Complex64]) {
        self.transform_axis(data, 0, Direction::Inverse);
        self.transform_axis(data, 1, Direction::Inverse);
        self.transform_axis(data, 2, Direction::Inverse);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_3d(input: &[Complex64], shape: [usize; 3]) -> Vec<Complex64> {
        use crate::dft::dft_forward;
        let [n0, n1, n2] = shape;
        let mut a = input.to_vec();
        // axis 2
        for line in a.chunks_exact_mut(n2) {
            let t = dft_forward(line);
            line.copy_from_slice(&t);
        }
        // axis 1
        for i0 in 0..n0 {
            for i2 in 0..n2 {
                let line: Vec<Complex64> = (0..n1).map(|i1| a[(i0 * n1 + i1) * n2 + i2]).collect();
                let t = dft_forward(&line);
                for i1 in 0..n1 {
                    a[(i0 * n1 + i1) * n2 + i2] = t[i1];
                }
            }
        }
        // axis 0
        for i1 in 0..n1 {
            for i2 in 0..n2 {
                let line: Vec<Complex64> = (0..n0).map(|i0| a[(i0 * n1 + i1) * n2 + i2]).collect();
                let t = dft_forward(&line);
                for i0 in 0..n0 {
                    a[(i0 * n1 + i1) * n2 + i2] = t[i0];
                }
            }
        }
        a
    }

    #[test]
    fn matches_naive_3d() {
        for shape in [[4, 4, 4], [2, 3, 5], [7, 4, 3], [6, 1, 8]] {
            let n: usize = shape.iter().product();
            let input: Vec<Complex64> = (0..n)
                .map(|i| Complex64::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
                .collect();
            let expect = naive_3d(&input, shape);
            let plan = Fft3d::new(shape);
            let mut data = input.clone();
            plan.forward(&mut data);
            for (a, b) in data.iter().zip(expect.iter()) {
                assert!((*a - *b).abs() < 1e-8 * n as f64, "shape {shape:?}");
            }
            plan.inverse(&mut data);
            for (a, b) in data.iter().zip(input.iter()) {
                assert!((*a - *b).abs() < 1e-9 * n as f64);
            }
        }
    }
}
