//! The user-facing 1D FFT plan, dispatching between the batched Stockham
//! engine and the Bluestein fallback.

use crate::bluestein::BluesteinPlan;
use crate::complex::Complex64;
use crate::factor::is_smooth;
use crate::nd::Direction;
use crate::stockham::StockhamPlan;

#[derive(Debug, Clone)]
enum Kind {
    Stockham(StockhamPlan),
    Bluestein(BluesteinPlan),
}

/// A reusable plan for forward/inverse complex FFTs of one fixed length.
///
/// Plans are immutable and `Sync`; per-call scratch is passed in by the
/// caller so that one plan can be shared across ranks/threads.
#[derive(Debug, Clone)]
pub struct Fft1d {
    n: usize,
    kind: Kind,
}

impl Fft1d {
    /// Plans a transform of length `n > 0`. Smooth sizes (largest prime
    /// factor <= 13) use the Stockham engine; everything else uses
    /// Bluestein.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "FFT length must be positive");
        let kind = if is_smooth(n) {
            Kind::Stockham(StockhamPlan::new(n))
        } else {
            Kind::Bluestein(BluesteinPlan::new(n))
        };
        Self { n, kind }
    }

    /// Transform length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always false; plans of length zero cannot be constructed.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Transforms a batch of `batch` lines in place. The lines are the
    /// columns of `data`, an `[n][batch]` row-major array: element `j` of
    /// line `l` is `data[j * batch + l]`. Forward uses the
    /// `exp(-2*pi*i*j*k/n)` convention with no normalization; inverse
    /// carries the `1/n` factor. `scratch` is resized as needed.
    ///
    /// Each line's result is bitwise independent of `batch` and of its
    /// position in the batch.
    pub fn process(
        &self,
        data: &mut [Complex64],
        batch: usize,
        dir: Direction,
        scratch: &mut Vec<Complex64>,
    ) {
        assert_eq!(data.len(), self.n * batch, "data must hold n * batch elements");
        if batch == 0 {
            return;
        }
        let inverse = dir == Direction::Inverse;
        let scale = inverse.then(|| 1.0 / self.n as f64);
        match &self.kind {
            Kind::Stockham(p) => {
                scratch.resize(data.len(), Complex64::ZERO);
                p.process(data, batch, inverse, scale, scratch);
            }
            Kind::Bluestein(p) => {
                scratch.resize(p.work_len(batch), Complex64::ZERO);
                p.process(data, batch, inverse, scale, scratch);
            }
        }
    }

    /// Out-of-place forward transform: `out = DFT(input)` with the
    /// `exp(-2*pi*i*j*k/n)` convention and no normalization.
    pub fn forward_into(&self, input: &[Complex64], out: &mut [Complex64]) {
        out.copy_from_slice(input);
        self.process(out, 1, Direction::Forward, &mut Vec::new());
    }

    /// In-place forward transform of one line; `scratch` is resized as needed.
    pub fn forward(&self, buf: &mut [Complex64], scratch: &mut Vec<Complex64>) {
        self.process(buf, 1, Direction::Forward, scratch);
    }

    /// In-place inverse transform of one line with `1/n` normalization, so
    /// that `inverse(forward(x)) == x`.
    pub fn inverse(&self, buf: &mut [Complex64], scratch: &mut Vec<Complex64>) {
        self.process(buf, 1, Direction::Inverse, scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft::dft_forward;

    #[test]
    fn dispatch_matches_naive() {
        for n in [1, 2, 3, 8, 17, 30, 97, 128, 300] {
            let input: Vec<Complex64> =
                (0..n).map(|i| Complex64::new((i as f64).sin(), (i as f64 * 0.5).cos())).collect();
            let expect = dft_forward(&input);
            let plan = Fft1d::new(n);
            let mut out = vec![Complex64::ZERO; n];
            plan.forward_into(&input, &mut out);
            for (a, b) in out.iter().zip(expect.iter()) {
                assert!((*a - *b).abs() < 1e-8 * n as f64);
            }
        }
    }

    #[test]
    fn roundtrip_in_place() {
        for n in [4, 7, 48, 101] {
            let orig: Vec<Complex64> =
                (0..n).map(|i| Complex64::new(i as f64, -(i as f64) * 0.25)).collect();
            let mut buf = orig.clone();
            let mut scratch = Vec::new();
            let plan = Fft1d::new(n);
            plan.forward(&mut buf, &mut scratch);
            plan.inverse(&mut buf, &mut scratch);
            for (a, b) in buf.iter().zip(orig.iter()) {
                assert!((*a - *b).abs() < 1e-9 * n as f64);
            }
        }
    }
}
