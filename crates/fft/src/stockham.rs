//! Batched Stockham autosort FFT for smooth sizes.
//!
//! A batch of `b` lines of length `n` is stored as the columns of an
//! `[n][b]` array: element `j` of line `l` sits at `j * b + l`. Every stage
//! reads one buffer and writes the other (the autosort ping-pong), so no
//! bit-reversal pass is needed and the result comes out in natural order.
//!
//! Stage `radix r`, with `s` the product of the radices already applied and
//! `m = n / (s r)` the length still to split (decimation in frequency):
//!
//! ```text
//! y[q + s (r p + t)] = w_{m r}^{p t} * sum_j w_r^{j t} x[q + s (p + j m)]
//! ```
//!
//! for `p in 0..m`, `q in 0..s`, `t in 0..r`. With the batch as the fastest
//! axis the `(q, lane)` pairs of one `(p, j)` form one contiguous run of
//! `s * b` elements, so every butterfly's inner loop streams across lines.
//! Each lane sees the same operations in the same order whatever the batch
//! width, so a batched transform is bitwise equal to its batch-of-one.
//!
//! Radix 4 (pairs of factors 2), 2, and 3 have hand-written butterflies;
//! every other prime up to [`MAX_RADIX`] uses the generic radix-`r` stage.
//! The transform is unnormalized in both directions.

use crate::complex::Complex64;
use crate::factor::{factorize, MAX_RADIX};

/// One radix pass of the plan.
#[derive(Debug, Clone)]
struct Stage {
    radix: usize,
    /// Length still to split after this stage, `n / (s * radix)`.
    m: usize,
    /// Product of the radices applied before this stage.
    s: usize,
    /// Forward twiddles `w_{m r}^{p t}` at `p * (r - 1) + t - 1`.
    tw: Vec<Complex64>,
    /// Forward roots of unity `w_r^k`, `k in 0..r` (generic radix only).
    roots: Vec<Complex64>,
}

/// A batched complex FFT plan for one smooth length.
#[derive(Debug, Clone)]
pub(crate) struct StockhamPlan {
    n: usize,
    stages: Vec<Stage>,
}

/// `exp(-2 pi i k / n)`, with the angle reduced to `k mod n` first.
fn root(k: usize, n: usize) -> Complex64 {
    Complex64::cis(-std::f64::consts::TAU * (k % n) as f64 / n as f64)
}

/// The radix sequence of `n`: factors 2 paired into 4s, then the odd primes.
fn radices(n: usize) -> Vec<usize> {
    let factors = factorize(n);
    let twos = factors.iter().filter(|&&p| p == 2).count();
    let mut out = vec![4; twos / 2];
    if twos % 2 == 1 {
        out.push(2);
    }
    out.extend(factors.into_iter().filter(|&p| p != 2));
    out
}

impl StockhamPlan {
    /// Plans a transform of length `n`. Panics if `n` has a prime factor
    /// larger than [`MAX_RADIX`]; such sizes must go through Bluestein.
    pub(crate) fn new(n: usize) -> Self {
        assert!(n > 0);
        let radices = radices(n);
        assert!(
            radices.iter().all(|&r| r <= MAX_RADIX),
            "size {n} is not smooth; use the Bluestein plan"
        );
        let mut s = 1;
        let mut stages = Vec::with_capacity(radices.len());
        for radix in radices {
            let len = n / s;
            let m = len / radix;
            let tw = (0..m).flat_map(|p| (1..radix).map(move |t| root(p * t, len))).collect();
            let roots =
                if radix > 4 { (0..radix).map(|k| root(k, radix)).collect() } else { Vec::new() };
            stages.push(Stage { radix, m, s, tw, roots });
            s *= radix;
        }
        Self { n, stages }
    }

    /// Transforms the `batch` columns of `data` (`[n][batch]`) in place,
    /// then multiplies by `scale` if one is given. `work` is the ping-pong
    /// buffer, at least `n * batch` long.
    pub(crate) fn process(
        &self,
        data: &mut [Complex64],
        batch: usize,
        inverse: bool,
        scale: Option<f64>,
        work: &mut [Complex64],
    ) {
        assert_eq!(data.len(), self.n * batch, "data must hold n * batch elements");
        let work = &mut work[..data.len()];
        let mut in_data = true;
        for stage in &self.stages {
            let (src, dst): (&[Complex64], &mut [Complex64]) =
                if in_data { (&*data, &mut *work) } else { (&*work, &mut *data) };
            if inverse {
                stage.run::<true>(src, dst, batch);
            } else {
                stage.run::<false>(src, dst, batch);
            }
            in_data = !in_data;
        }
        match (in_data, scale) {
            (true, None) => {}
            (true, Some(s)) => data.iter_mut().for_each(|z| *z = z.scale(s)),
            (false, None) => data.copy_from_slice(work),
            (false, Some(s)) => data.iter_mut().zip(work.iter()).for_each(|(d, z)| *d = z.scale(s)),
        }
    }
}

/// `w` for the forward transform, `conj(w)` for the inverse.
#[inline(always)]
fn dir<const INV: bool>(w: Complex64) -> Complex64 {
    if INV {
        w.conj()
    } else {
        w
    }
}

/// `z * (-i)` forward, `z * i` inverse.
#[inline(always)]
fn rot<const INV: bool>(z: Complex64) -> Complex64 {
    if INV {
        Complex64::new(-z.im, z.re)
    } else {
        Complex64::new(z.im, -z.re)
    }
}

impl Stage {
    fn run<const INV: bool>(&self, src: &[Complex64], dst: &mut [Complex64], b: usize) {
        let (r, m) = (self.radix, self.m);
        let sb = self.s * b;
        let x = |p: usize, j: usize| &src[(p + j * m) * sb..][..sb];
        for p in 0..m {
            let out = &mut dst[r * p * sb..(r * p + r) * sb];
            let tw = &self.tw[p * (r - 1)..(p + 1) * (r - 1)];
            match r {
                2 => radix2::<INV>(x(p, 0), x(p, 1), out, tw, p > 0),
                3 => radix3::<INV>(x(p, 0), x(p, 1), x(p, 2), out, tw, p > 0),
                4 => radix4::<INV>([x(p, 0), x(p, 1), x(p, 2), x(p, 3)], out, tw, p > 0),
                _ => {
                    for (t, y) in out.chunks_exact_mut(sb).enumerate() {
                        y.copy_from_slice(x(p, 0));
                        for j in 1..r {
                            let xj = x(p, j);
                            if t == 0 {
                                y.iter_mut().zip(xj).for_each(|(o, &v)| *o += v);
                            } else {
                                let c = dir::<INV>(self.roots[(j * t) % r]);
                                y.iter_mut().zip(xj).for_each(|(o, &v)| *o = o.mul_add(v, c));
                            }
                        }
                        if p > 0 && t > 0 {
                            let w = dir::<INV>(tw[t - 1]);
                            y.iter_mut().for_each(|o| *o *= w);
                        }
                    }
                }
            }
        }
    }
}

fn radix2<const INV: bool>(
    x0: &[Complex64],
    x1: &[Complex64],
    out: &mut [Complex64],
    tw: &[Complex64],
    twiddle: bool,
) {
    let (y0, y1) = out.split_at_mut(x0.len());
    let w = dir::<INV>(tw[0]);
    for (((a, b), o0), o1) in x0.iter().zip(x1).zip(y0.iter_mut()).zip(y1.iter_mut()) {
        *o0 = *a + *b;
        *o1 = if twiddle { (*a - *b) * w } else { *a - *b };
    }
}

fn radix3<const INV: bool>(
    x0: &[Complex64],
    x1: &[Complex64],
    x2: &[Complex64],
    out: &mut [Complex64],
    tw: &[Complex64],
    twiddle: bool,
) {
    const SQ3_2: f64 = 0.866_025_403_784_438_6;
    let sb = x0.len();
    let (x1, x2) = (&x1[..sb], &x2[..sb]);
    let (y0, rest) = out.split_at_mut(sb);
    let (y1, y2) = rest.split_at_mut(sb);
    let (w1, w2) = (dir::<INV>(tw[0]), dir::<INV>(tw[1]));
    for i in 0..sb {
        let (a, b, c) = (x0[i], x1[i], x2[i]);
        let s = b + c;
        let d = rot::<INV>(b - c).scale(SQ3_2);
        let h = a - s.scale(0.5);
        y0[i] = a + s;
        if twiddle {
            y1[i] = (h + d) * w1;
            y2[i] = (h - d) * w2;
        } else {
            y1[i] = h + d;
            y2[i] = h - d;
        }
    }
}

fn radix4<const INV: bool>(
    x: [&[Complex64]; 4],
    out: &mut [Complex64],
    tw: &[Complex64],
    twiddle: bool,
) {
    let sb = x[0].len();
    let (y0, rest) = out.split_at_mut(sb);
    let (y1, rest) = rest.split_at_mut(sb);
    let (y2, y3) = rest.split_at_mut(sb);
    let (x0, x1, x2, x3) = (x[0], &x[1][..sb], &x[2][..sb], &x[3][..sb]);
    let (w1, w2, w3) = (dir::<INV>(tw[0]), dir::<INV>(tw[1]), dir::<INV>(tw[2]));
    for i in 0..sb {
        let t0 = x0[i] + x2[i];
        let t1 = x0[i] - x2[i];
        let t2 = x1[i] + x3[i];
        let t3 = rot::<INV>(x1[i] - x3[i]);
        y0[i] = t0 + t2;
        if twiddle {
            y1[i] = (t1 + t3) * w1;
            y2[i] = (t0 - t2) * w2;
            y3[i] = (t1 - t3) * w3;
        } else {
            y1[i] = t1 + t3;
            y2[i] = t0 - t2;
            y3[i] = t1 - t3;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft::{dft_forward, dft_inverse};

    fn signal(n: usize, b: usize) -> Vec<Complex64> {
        (0..n * b).map(|i| Complex64::new((i as f64 * 0.7).sin(), (i as f64 * 1.3).cos())).collect()
    }

    #[test]
    fn matches_naive_dft_for_smooth_sizes_and_batches() {
        let sizes = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 15, 16, 21, 24, 25, 27, 32, 36, 49];
        for n in sizes.into_iter().chain([64, 75, 100, 128, 143, 169, 300]) {
            for b in [1, 3, 8] {
                let data = signal(n, b);
                let plan = StockhamPlan::new(n);
                for inverse in [false, true] {
                    let mut got = data.clone();
                    plan.process(&mut got, b, inverse, None, &mut vec![Complex64::ZERO; n * b]);
                    for l in 0..b {
                        let line: Vec<Complex64> = (0..n).map(|j| data[j * b + l]).collect();
                        let expect = if inverse { dft_inverse(&line) } else { dft_forward(&line) };
                        for (j, e) in expect.iter().enumerate() {
                            let z = got[j * b + l];
                            assert!((z - *e).abs() < 1e-9 * n as f64, "n={n} b={b} inv={inverse}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn radix_sequence_pairs_twos() {
        assert_eq!(radices(64), vec![4, 4, 4]);
        assert_eq!(radices(32), vec![4, 4, 2]);
        assert_eq!(radices(48), vec![4, 4, 3]);
        assert_eq!(radices(1), Vec::<usize>::new());
        assert_eq!(radices(2 * 5 * 13), vec![2, 5, 13]);
    }

    #[test]
    #[should_panic]
    fn rejects_large_prime() {
        StockhamPlan::new(34); // 2 * 17
    }
}
