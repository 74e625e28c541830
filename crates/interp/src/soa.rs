//! Compact-stencil structure-of-arrays interpolation.
//!
//! A [`crate::ScatterPlan`] evaluates one set of points against many fields
//! (every field and time step of a transport solve), so the per-point work
//! that does not depend on the field is done once per plan. [`SoaStencils`]
//! keeps, per point, the extended-array row and column of the stencil
//! origin and the axis-2 base index (three `u32`), and the three cell
//! fractions `t`: 36 B. The cubic weights are recomputed at evaluation time
//! instead of being stored (96 B per point), which keeps the plan small and
//! its build cheap.
//!
//! Tricubic evaluation is fused over the fields of one call. Axes 0 and 1
//! are contracted first, into four lanes per field (one per axis-2 node),
//! and the lanes are then dotted with the axis-2 weights. Where the axis-2
//! stencil does not wrap, its four nodes are one contiguous slice, so the
//! loads and multiply-adds vectorise. This sums in a different order from
//! the per-point reference [`crate::tricubic`]: the two agree to rounding,
//! not bitwise. Trilinear evaluation from the same stencils keeps the
//! reference's order and is bit-identical to [`crate::trilinear`].

use diffreg_grid::{GhostField, Grid};

use crate::kernel::{base_and_frac, cubic_weights, Kernel};

/// Per-point stencil data for a fixed set of points, valid for any ghost
/// field exchanged on the same decomposition with
/// [`crate::GHOST_WIDTH`] (the extended-array geometry is a function of
/// the decomposition alone).
#[derive(Debug, Clone)]
pub(crate) struct SoaStencils {
    /// Extended-array row and column of stencil node (−1, −1), and the
    /// axis-2 base grid index.
    base: Vec<[u32; 3]>,
    /// Fractional offset of the point within its base cell, per axis.
    frac: Vec<[f64; 3]>,
}

impl SoaStencils {
    /// Stencils for the concatenated `batches` of points, interpolated on
    /// `grid` with ghost origin `origin` (axes 0 and 1; `start -
    /// GHOST_WIDTH`).
    pub(crate) fn build(grid: &Grid, origin: [isize; 2], batches: &[Vec<[f64; 3]>]) -> Self {
        let n = grid.n;
        let count = batches.iter().map(Vec::len).sum();
        let mut base = Vec::with_capacity(count);
        let mut frac = Vec::with_capacity(count);
        for &x in batches.iter().flatten() {
            let (b0, t0) = base_and_frac(x[0], n[0]);
            let (b1, t1) = base_and_frac(x[1], n[1]);
            let (b2, t2) = base_and_frac(x[2], n[2]);
            let r0 = b0 as isize - origin[0] - 1;
            let c0 = b1 as isize - origin[1] - 1;
            debug_assert!(r0 >= 0 && c0 >= 0, "stencil origin outside extended array");
            base.push([r0 as u32, c0 as u32, b2 as u32]);
            frac.push([t0, t1, t2]);
        }
        Self { base, frac }
    }

    /// Number of points.
    pub(crate) fn len(&self) -> usize {
        self.base.len()
    }

    /// Evaluates points `lo..hi` against every field of `ghosts`, writing
    /// the values interleaved per point: `out[(p - lo) * nf + f]`.
    pub(crate) fn eval(
        &self,
        kernel: Kernel,
        ghosts: &[&GhostField],
        lo: usize,
        hi: usize,
        out: &mut [f64],
    ) {
        let nf = ghosts.len();
        assert_eq!(out.len(), (hi - lo) * nf, "output length must be points × fields");
        debug_assert!(ghosts.iter().all(|g| g.ext() == ghosts[0].ext()), "mixed decompositions");
        match kernel {
            Kernel::Trilinear => self.trilinear(ghosts, lo, hi, out),
            // Up to three fields share one pass over the points; more are
            // taken three at a time.
            Kernel::Tricubic => {
                for (c, group) in ghosts.chunks(3).enumerate() {
                    let at = 3 * c;
                    match *group {
                        [a] => self.tricubic([a], lo, hi, out, nf, at),
                        [a, b] => self.tricubic([a, b], lo, hi, out, nf, at),
                        [a, b, d] => self.tricubic([a, b, d], lo, hi, out, nf, at),
                        _ => unreachable!("chunks(3) yields one to three fields"),
                    }
                }
            }
        }
    }

    /// Fused tricubic evaluation of `NF` fields into
    /// `out[(p - lo) * stride + at + f]`.
    fn tricubic<const NF: usize>(
        &self,
        ghosts: [&GhostField; NF],
        lo: usize,
        hi: usize,
        out: &mut [f64],
        stride: usize,
        at: usize,
    ) {
        let [_, e1, n2] = ghosts[0].ext();
        let data = ghosts.map(GhostField::data);
        let points = self.base[lo..hi].iter().zip(&self.frac[lo..hi]);
        for ((base, &[t0, t1, t2]), dst) in points.zip(out.chunks_exact_mut(stride)) {
            let [r0, c0, b2] = base.map(|b| b as usize);
            let (w0, w1, w2) = (cubic_weights(t0), cubic_weights(t1), cubic_weights(t2));
            // Offset of axis-0/1 node (i, j)'s axis-2 line in the extended array.
            let line_at = |i: usize, j: usize| ((r0 + i) * e1 + c0 + j) * n2;
            let acc = if b2 >= 1 && b2 + 2 < n2 {
                let k0 = b2 - 1;
                contract(&data, &w0, &w1, line_at, |d, s| {
                    let l = &d[s + k0..s + k0 + 4];
                    [l[0], l[1], l[2], l[3]]
                })
            } else {
                let k = [(b2 + n2 - 1) % n2, b2, (b2 + 1) % n2, (b2 + 2) % n2];
                contract(&data, &w0, &w1, line_at, |d, s| {
                    [d[s + k[0]], d[s + k[1]], d[s + k[2]], d[s + k[3]]]
                })
            };
            for (v, a) in dst[at..at + NF].iter_mut().zip(&acc) {
                *v = a[0] * w2[0] + a[1] * w2[1] + a[2] * w2[2] + a[3] * w2[3];
            }
        }
    }

    /// Trilinear evaluation of every field, in the reference kernel's
    /// summation order (nodes at stencil offsets 1 and 2).
    fn trilinear(&self, ghosts: &[&GhostField], lo: usize, hi: usize, out: &mut [f64]) {
        let [_, e1, n2] = ghosts[0].ext();
        let points = self.base[lo..hi].iter().zip(&self.frac[lo..hi]);
        for ((base, &[t0, t1, t2]), dst) in points.zip(out.chunks_exact_mut(ghosts.len())) {
            let [r0, c0, b2] = base.map(|b| b as usize);
            let (w0, w1, w2) = ([1.0 - t0, t0], [1.0 - t1, t1], [1.0 - t2, t2]);
            let k = [b2, (b2 + 1) % n2];
            for (v, g) in dst.iter_mut().zip(ghosts) {
                let d = g.data();
                let mut acc = 0.0;
                for (i, &wi) in w0.iter().enumerate() {
                    for (j, &wj) in w1.iter().enumerate() {
                        let s = ((r0 + 1 + i) * e1 + c0 + 1 + j) * n2;
                        for (&wk, &kk) in w2.iter().zip(&k) {
                            acc += wi * wj * wk * d[s + kk];
                        }
                    }
                }
                *v = acc;
            }
        }
    }
}

/// Contracts axes 0 and 1 of one point's stencil for every field: lane `k`
/// of field `f` is `Σ_ij w0[i]·w1[j]·field_f(i, j, k)`. `line(d, s)` reads
/// the four axis-2 nodes of the line starting at offset `s` of `d`.
#[inline(always)]
fn contract<const NF: usize>(
    data: &[&[f64]; NF],
    w0: &[f64; 4],
    w1: &[f64; 4],
    line_at: impl Fn(usize, usize) -> usize,
    line: impl Fn(&[f64], usize) -> [f64; 4],
) -> [[f64; 4]; NF] {
    let mut acc = [[0.0; 4]; NF];
    for (i, &wi) in w0.iter().enumerate() {
        for (j, &wj) in w1.iter().enumerate() {
            let wij = wi * wj;
            let s = line_at(i, j);
            for (a, d) in acc.iter_mut().zip(data) {
                for (ak, lk) in a.iter_mut().zip(line(d, s)) {
                    *ak += wij * lk;
                }
            }
        }
    }
    acc
}
