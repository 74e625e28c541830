//! Seeded property tests of the FFT stack (via `testkit::prop_check!`): the
//! algebraic identities that must hold for every transform length, including
//! primes (Bluestein) and mixed composites, plus analytic plane-wave oracles,
//! and bitwise batch determinism of the batched engine and its row/column helpers.

use diffreg_fft::{
    dft_forward, transform_columns, transform_rows, Complex64, Direction, Fft1d, FftScratch,
    RealFft1d,
};
use diffreg_testkit::{prop_check, Rng};

fn random_signal(rng: &mut Rng, max_len: usize) -> Vec<Complex64> {
    let n = rng.len_scaled(1, max_len);
    (0..n).map(|_| Complex64::new(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))).collect()
}

#[test]
fn roundtrip_is_identity() {
    prop_check!(|rng| {
        let x = random_signal(rng, 96);
        let n = x.len();
        let plan = Fft1d::new(n);
        let mut buf = x.clone();
        let mut scratch = Vec::new();
        plan.forward(&mut buf, &mut scratch);
        plan.inverse(&mut buf, &mut scratch);
        for (a, b) in buf.iter().zip(&x) {
            assert!((*a - *b).abs() < 1e-9 * (n as f64), "{a:?} vs {b:?}");
        }
    });
}

#[test]
fn forward_matches_naive_dft() {
    prop_check!(|rng| {
        let x = random_signal(rng, 48);
        let n = x.len();
        let plan = Fft1d::new(n);
        let mut out = vec![Complex64::ZERO; n];
        plan.forward_into(&x, &mut out);
        let expect = dft_forward(&x);
        for (a, b) in out.iter().zip(&expect) {
            assert!((*a - *b).abs() < 1e-8 * (n as f64));
        }
    });
}

#[test]
fn linearity() {
    prop_check!(|rng| {
        let x = random_signal(rng, 64);
        let alpha = rng.uniform(-3.0, 3.0);
        let n = x.len();
        let plan = Fft1d::new(n);
        // FFT(alpha x) == alpha FFT(x)
        let mut fx = vec![Complex64::ZERO; n];
        plan.forward_into(&x, &mut fx);
        let scaled: Vec<Complex64> = x.iter().map(|z| z.scale(alpha)).collect();
        let mut fsx = vec![Complex64::ZERO; n];
        plan.forward_into(&scaled, &mut fsx);
        for (a, b) in fsx.iter().zip(&fx) {
            assert!((*a - b.scale(alpha)).abs() < 1e-8 * n as f64);
        }
    });
}

#[test]
fn parseval_energy_is_preserved() {
    prop_check!(|rng| {
        let x = random_signal(rng, 64);
        let n = x.len();
        let plan = Fft1d::new(n);
        let mut fx = vec![Complex64::ZERO; n];
        plan.forward_into(&x, &mut fx);
        let e_time: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let e_freq: f64 = fx.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        assert!((e_time - e_freq).abs() < 1e-8 * (1.0 + e_time) * n as f64);
    });
}

#[test]
fn circular_shift_theorem() {
    prop_check!(cases = 48, |rng| {
        let x = random_signal(rng, 48);
        let n = x.len();
        let shift = rng.index(n);
        let plan = Fft1d::new(n);
        let mut fx = vec![Complex64::ZERO; n];
        plan.forward_into(&x, &mut fx);
        // y[j] = x[(j - shift) mod n]  =>  Y[k] = X[k] * exp(-2πi k shift / n)
        let y: Vec<Complex64> = (0..n).map(|j| x[(j + n - shift) % n]).collect();
        let mut fy = vec![Complex64::ZERO; n];
        plan.forward_into(&y, &mut fy);
        let w = -std::f64::consts::TAU * shift as f64 / n as f64;
        for (k, (a, b)) in fy.iter().zip(&fx).enumerate() {
            let phase = Complex64::cis(w * k as f64);
            assert!((*a - *b * phase).abs() < 1e-8 * n as f64);
        }
    });
}

#[test]
fn real_input_has_hermitian_spectrum() {
    prop_check!(|rng| {
        let n = rng.len_scaled(2, 64);
        let x: Vec<Complex64> =
            (0..n).map(|_| Complex64::from_real(rng.uniform(-1.0, 1.0))).collect();
        let plan = Fft1d::new(n);
        let mut fx = vec![Complex64::ZERO; n];
        plan.forward_into(&x, &mut fx);
        for k in 1..n {
            let conj = fx[n - k].conj();
            assert!((fx[k] - conj).abs() < 1e-8 * n as f64, "bin {k}");
        }
    });
}

/// Edge lengths that exercise every code path of the plan selector: N=1 and
/// N=2 (trivial), primes 17 and 97 (Bluestein), a prime square 49, and the
/// highly composite 60 and 96 (mixed radix). Round-trip and Parseval must
/// hold for each, on seeded random signals.
#[test]
fn edge_lengths_roundtrip_and_parseval() {
    for n in [1usize, 2, 17, 49, 60, 96, 97] {
        prop_check!(cases = 12, |rng| {
            let x: Vec<Complex64> = (0..n)
                .map(|_| Complex64::new(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)))
                .collect();
            let plan = Fft1d::new(n);
            let mut fx = vec![Complex64::ZERO; n];
            plan.forward_into(&x, &mut fx);
            // Parseval at this exact length.
            let e_time: f64 = x.iter().map(|z| z.norm_sqr()).sum();
            let e_freq: f64 = fx.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
            assert!(
                (e_time - e_freq).abs() < 1e-8 * (1.0 + e_time) * n as f64,
                "Parseval broke at N={n}"
            );
            // Round trip at this exact length.
            let mut buf = x.clone();
            let mut scratch = Vec::new();
            plan.forward(&mut buf, &mut scratch);
            plan.inverse(&mut buf, &mut scratch);
            for (a, b) in buf.iter().zip(&x) {
                assert!((*a - *b).abs() < 1e-9 * (1 + n) as f64, "roundtrip broke at N={n}");
            }
            // And against the O(N²) DFT oracle.
            let naive = dft_forward(&x);
            for (a, b) in fx.iter().zip(&naive) {
                assert!((*a - *b).abs() < 1e-8 * (1 + n) as f64, "DFT mismatch at N={n}");
            }
        });
    }
}

/// Analytic oracle: the DFT of a pure complex exponential
/// `x_j = exp(2πi k j / N)` is exactly `N·δ(bin − k)`.
#[test]
fn complex_exponential_hits_single_bin() {
    prop_check!(cases = 32, |rng| {
        let n = rng.len_scaled(4, 80);
        let k = rng.index(n);
        let w = std::f64::consts::TAU * k as f64 / n as f64;
        let x: Vec<Complex64> = (0..n).map(|j| Complex64::cis(w * j as f64)).collect();
        let plan = Fft1d::new(n);
        let mut fx = vec![Complex64::ZERO; n];
        plan.forward_into(&x, &mut fx);
        for (bin, v) in fx.iter().enumerate() {
            let expect = if bin == k { Complex64::from_real(n as f64) } else { Complex64::ZERO };
            assert!(
                (*v - expect).abs() < 1e-8 * n as f64,
                "N={n} k={k}: bin {bin} = {v:?}, expected {expect:?}"
            );
        }
    });
}

fn bits(z: Complex64) -> (u64, u64) {
    (z.re.to_bits(), z.im.to_bits())
}

/// A random length for the batch-determinism tests: a product of radices
/// from {2, 3, 4, 5, 7, 11, 13} (the Stockham stages), or one in four a
/// length with a prime factor above 13 (the Bluestein path).
fn random_engine_len(rng: &mut Rng) -> usize {
    if rng.index(4) == 0 {
        return [17, 19, 37, 2 * 23, 97][rng.index(5)];
    }
    let mut n = 1;
    for _ in 0..1 + rng.index(4) {
        let r = [2, 3, 4, 5, 7, 11, 13][rng.index(7)];
        if n * r <= 600 {
            n *= r;
        }
    }
    n
}

/// The batched engine transforms each line bitwise as it transforms the
/// line alone, whatever the batch width and wherever the line sits in the
/// batch, in both directions.
#[test]
fn batched_line_is_bitwise_its_batch_of_one() {
    prop_check!(cases = 96, |rng| {
        let n = random_engine_len(rng);
        let batch = 1 + rng.index(40);
        let lane = rng.index(batch);
        let data: Vec<Complex64> = (0..n * batch)
            .map(|_| Complex64::new(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)))
            .collect();
        let plan = Fft1d::new(n);
        let mut scratch = Vec::new();
        for dir in [Direction::Forward, Direction::Inverse] {
            let mut batched = data.clone();
            plan.process(&mut batched, batch, dir, &mut scratch);
            let mut line: Vec<Complex64> = (0..n).map(|j| data[j * batch + lane]).collect();
            plan.process(&mut line, 1, dir, &mut scratch);
            for (j, z) in line.iter().enumerate() {
                assert_eq!(
                    bits(batched[j * batch + lane]),
                    bits(*z),
                    "n={n} batch={batch} lane={lane} {dir:?} bin {j}"
                );
            }
        }
    });
}

/// The row, column and real-row helpers tile and block the batch; each
/// line still comes out bitwise equal to its batch-of-one transform.
#[test]
fn row_and_column_helpers_match_batch_of_one_bitwise() {
    prop_check!(cases = 32, |rng| {
        let n = random_engine_len(rng).min(96);
        let count = 1 + rng.index(80);
        let pick = rng.index(count);
        let data: Vec<Complex64> = (0..n * count)
            .map(|_| Complex64::new(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)))
            .collect();
        let plan = Fft1d::new(n);
        let ws = &mut FftScratch::default();
        let mut scratch = Vec::new();
        for dir in [Direction::Forward, Direction::Inverse] {
            // Rows: data is [count][n].
            let mut rows = data.clone();
            transform_rows(&plan, &mut rows, dir, ws);
            let mut line = data[pick * n..(pick + 1) * n].to_vec();
            plan.process(&mut line, 1, dir, &mut scratch);
            for (a, b) in rows[pick * n..(pick + 1) * n].iter().zip(&line) {
                assert_eq!(bits(*a), bits(*b), "rows n={n} count={count} {dir:?}");
            }
            // Columns: data is [n][count].
            let mut cols = data.clone();
            transform_columns(&plan, &mut cols, count, dir, ws);
            let mut line: Vec<Complex64> = (0..n).map(|j| data[j * count + pick]).collect();
            plan.process(&mut line, 1, dir, &mut scratch);
            for (j, b) in line.iter().enumerate() {
                assert_eq!(
                    bits(cols[j * count + pick]),
                    bits(*b),
                    "cols n={n} width={count} {dir:?}"
                );
            }
        }
        // Real rows: forward_rows / inverse_rows against one-line calls.
        let rplan = RealFft1d::new(n);
        let h = rplan.half_len();
        let x: Vec<f64> = data.iter().map(|z| z.re).collect();
        let mut spec = vec![Complex64::ZERO; count * h];
        rplan.forward_rows(&x, &mut spec, ws);
        let mut one = vec![Complex64::ZERO; h];
        rplan.forward(&x[pick * n..(pick + 1) * n], &mut one, ws);
        for (a, b) in spec[pick * h..(pick + 1) * h].iter().zip(&one) {
            assert_eq!(bits(*a), bits(*b), "r2c rows n={n} count={count}");
        }
        let mut back = vec![0.0; count * n];
        rplan.inverse_rows(&spec, &mut back, ws);
        let mut line = vec![0.0; n];
        rplan.inverse(&one, &mut line, ws);
        for (a, b) in back[pick * n..(pick + 1) * n].iter().zip(&line) {
            assert_eq!(a.to_bits(), b.to_bits(), "c2r rows n={n} count={count}");
        }
    });
}
