//! Naive O(n^2) discrete Fourier transform.
//!
//! The correctness oracle the fast transforms are tested against.

use crate::complex::Complex64;

/// Computes the forward DFT `X[k] = sum_j x[j] exp(-2*pi*i*j*k/n)` naively.
pub fn dft_forward(input: &[Complex64]) -> Vec<Complex64> {
    dft(input, -1.0)
}

/// Computes the unnormalized inverse DFT `x[j] = sum_k X[k] exp(+2*pi*i*j*k/n)`.
///
/// Divide by `n` to invert [`dft_forward`].
pub fn dft_inverse(input: &[Complex64]) -> Vec<Complex64> {
    dft(input, 1.0)
}

fn dft(input: &[Complex64], sign: f64) -> Vec<Complex64> {
    let n = input.len();
    let mut out = vec![Complex64::ZERO; n];
    if n == 0 {
        return out;
    }
    let w = sign * std::f64::consts::TAU / n as f64;
    for (k, o) in out.iter_mut().enumerate() {
        let mut acc = Complex64::ZERO;
        for (j, &x) in input.iter().enumerate() {
            // Reduce j*k mod n before the trig call to keep the argument small.
            let phase = w * ((j * k) % n) as f64;
            acc = acc.mul_add(x, Complex64::cis(phase));
        }
        *o = acc;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dft_of_delta_is_flat() {
        let mut x = vec![Complex64::ZERO; 8];
        x[0] = Complex64::ONE;
        let y = dft_forward(&x);
        for v in y {
            assert!((v - Complex64::ONE).abs() < 1e-12);
        }
    }

    #[test]
    fn dft_of_constant_is_delta() {
        let x = vec![Complex64::ONE; 6];
        let y = dft_forward(&x);
        assert!((y[0] - Complex64::from_real(6.0)).abs() < 1e-12);
        for v in &y[1..] {
            assert!(v.abs() < 1e-12);
        }
    }

    #[test]
    fn roundtrip() {
        let x: Vec<Complex64> = (0..7)
            .map(|i| Complex64::new(i as f64 * 0.3 - 1.0, (i * i) as f64 * 0.1))
            .collect();
        let y = dft_forward(&x);
        let z = dft_inverse(&y);
        for (a, b) in x.iter().zip(z.iter()) {
            assert!((*a - b.scale(1.0 / 7.0)).abs() < 1e-12);
        }
    }
}
