//! Bluestein's algorithm: FFT of arbitrary (e.g. large prime) length via a
//! zero-padded power-of-two circular convolution.
//!
//! This is what lets the registration solver handle any grid extent (the
//! paper's brain grid is 256 x 300 x 256; scaled variants can contain large
//! prime extents). Batches use the same `[n][b]` column layout as the
//! Stockham engine, which also runs the two padded convolution transforms.

use crate::complex::Complex64;
use crate::factor::next_pow2;
use crate::stockham::StockhamPlan;

/// A plan for a batched DFT of arbitrary length `n` using Bluestein's
/// chirp-z reformulation.
#[derive(Debug, Clone)]
pub(crate) struct BluesteinPlan {
    n: usize,
    m: usize,
    inner: StockhamPlan,
    /// Forward chirp `c[j] = exp(-i pi j^2 / n)`, length `n`; the inverse
    /// direction uses its conjugate.
    chirp: Vec<Complex64>,
    /// Forward FFT (length m) of the padded conjugate-chirp kernel, premultiplied
    /// by `1/m` so the inverse convolution transform needs no extra scaling pass.
    /// The kernel is even, so the inverse direction's spectrum is the conjugate.
    kernel_hat: Vec<Complex64>,
}

impl BluesteinPlan {
    /// Plans a Bluestein transform of length `n > 0`.
    pub(crate) fn new(n: usize) -> Self {
        assert!(n > 0);
        let m = next_pow2(2 * n - 1).max(1);
        let inner = StockhamPlan::new(m);
        // j^2 mod 2n keeps the phase argument bounded for large j.
        let w = -std::f64::consts::PI / n as f64;
        let chirp: Vec<Complex64> =
            (0..n).map(|j| Complex64::cis(w * ((j * j) % (2 * n)) as f64)).collect();
        // Kernel b[j] = conj(chirp[|j|]) arranged circularly on length m.
        let mut kernel_hat = vec![Complex64::ZERO; m];
        kernel_hat[0] = chirp[0].conj();
        for j in 1..n {
            let c = chirp[j].conj();
            kernel_hat[j] = c;
            kernel_hat[m - j] = c;
        }
        inner.process(
            &mut kernel_hat,
            1,
            false,
            Some(1.0 / m as f64),
            &mut vec![Complex64::ZERO; m],
        );
        Self { n, m, inner, chirp, kernel_hat }
    }

    /// Length of the `work` buffer [`Self::process`] needs for `batch` lines.
    pub(crate) fn work_len(&self, batch: usize) -> usize {
        2 * self.m * batch
    }

    /// Transforms the `batch` columns of `data` (`[n][batch]`) in place,
    /// then multiplies by `scale` if one is given. `work` holds the padded
    /// lines and the engine's ping-pong buffer, at least `2 m batch` long.
    pub(crate) fn process(
        &self,
        data: &mut [Complex64],
        batch: usize,
        inverse: bool,
        scale: Option<f64>,
        work: &mut [Complex64],
    ) {
        assert_eq!(data.len(), self.n * batch, "data must hold n * batch elements");
        let (n, m, b) = (self.n, self.m, batch);
        let dir = |z: Complex64| if inverse { z.conj() } else { z };
        let (a, work) = work[..2 * m * b].split_at_mut(m * b);
        for (j, (row, x)) in a.chunks_exact_mut(b).zip(data.chunks_exact(b)).enumerate() {
            let c = dir(self.chirp[j]);
            row.iter_mut().zip(x).for_each(|(o, &v)| *o = v * c);
        }
        a[n * b..].fill(Complex64::ZERO);
        self.inner.process(a, b, false, None, work);
        for (row, &k) in a.chunks_exact_mut(b).zip(&self.kernel_hat) {
            let k = dir(k);
            row.iter_mut().for_each(|o| *o *= k);
        }
        self.inner.process(a, b, true, None, work);
        for (j, (x, row)) in data.chunks_exact_mut(b).zip(a.chunks_exact(b)).enumerate() {
            let c = dir(self.chirp[j]);
            match scale {
                None => x.iter_mut().zip(row).for_each(|(o, &v)| *o = v * c),
                Some(s) => x.iter_mut().zip(row).for_each(|(o, &v)| *o = (v * c).scale(s)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft::{dft_forward, dft_inverse};

    fn test_size(n: usize) {
        let b = 3;
        let data: Vec<Complex64> = (0..n * b)
            .map(|i| Complex64::new((i as f64 * 0.7).sin(), (i as f64 * 1.3).cos()))
            .collect();
        let plan = BluesteinPlan::new(n);
        for inverse in [false, true] {
            let mut got = data.clone();
            plan.process(&mut got, b, inverse, None, &mut vec![Complex64::ZERO; plan.work_len(b)]);
            for l in 0..b {
                let line: Vec<Complex64> = (0..n).map(|j| data[j * b + l]).collect();
                let expect = if inverse { dft_inverse(&line) } else { dft_forward(&line) };
                for (j, e) in expect.iter().enumerate() {
                    let z = got[j * b + l];
                    assert!(
                        (z - *e).abs() < 1e-8 * (n as f64).max(1.0),
                        "size {n}: {z:?} vs {e:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn matches_naive_dft_for_awkward_sizes() {
        for n in [1, 2, 7, 11, 17, 19, 23, 31, 37, 53, 97, 101, 127, 211] {
            test_size(n);
        }
    }

    #[test]
    fn also_correct_for_smooth_sizes() {
        for n in [4, 12, 30, 64] {
            test_size(n);
        }
    }
}
