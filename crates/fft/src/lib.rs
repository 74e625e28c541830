//! # diffreg-fft
//!
//! Serial FFT stack for the diffeomorphic registration solver: a minimal
//! complex type, a naive DFT oracle, a batched Stockham autosort engine
//! (radix-4/2/3 butterflies plus a generic stage for primes up to 13), a
//! Bluestein fallback for arbitrary lengths on the same engine, and row,
//! column and 3D helpers.
//!
//! The engine transforms a batch of lines stored as the columns of an
//! `[n][b]` array in one pass, the inner loops running across lines. This
//! replaces FFTW/AccFFT's node-local batched transforms in the paper's
//! stack; the distributed pencil transform lives in `diffreg-pfft` and
//! drives whole pencils through the column and row helpers defined here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bluestein;
mod complex;
mod dft;
mod factor;
mod nd;
mod plan;
mod real;
mod stockham;

pub use complex::Complex64;
pub use dft::{dft_forward, dft_inverse};
pub use factor::{factorize, is_smooth, next_pow2, MAX_RADIX};
pub use nd::{transform_columns, transform_rows, Direction, Fft3d, FftScratch};
pub use plan::Fft1d;
pub use real::{half_len, pack_half_spectrum, unpack_half_spectrum, RealFft1d, RealFft3d};

/// Estimated floating-point operation count of one complex FFT of length `n`
/// (the standard `5 n log2 n` model used in the paper's complexity analysis).
pub fn fft_flops(n: usize) -> f64 {
    let n = n as f64;
    5.0 * n * n.log2().max(1.0)
}
