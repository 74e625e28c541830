//! Integer factorization helpers for FFT planning.

/// Largest radix the Stockham engine handles directly.
/// Larger prime factors are delegated to the Bluestein algorithm.
pub const MAX_RADIX: usize = 13;

/// Factorizes `n` into primes in nondecreasing order.
pub fn factorize(n: usize) -> Vec<usize> {
    assert!(n > 0, "cannot factorize zero");
    let mut n = n;
    let mut factors = Vec::new();
    let mut p = 2;
    while p * p <= n {
        while n.is_multiple_of(p) {
            factors.push(p);
            n /= p;
        }
        p += if p == 2 { 1 } else { 2 };
    }
    if n > 1 {
        factors.push(n);
    }
    factors
}

/// Returns `true` if all prime factors of `n` are at most [`MAX_RADIX`],
/// i.e. the size can be handled by the Stockham engine without Bluestein.
pub fn is_smooth(n: usize) -> bool {
    factorize(n).into_iter().all(|p| p <= MAX_RADIX)
}

/// Smallest power of two `>= n`.
pub fn next_pow2(n: usize) -> usize {
    n.next_power_of_two()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factorize_small() {
        assert_eq!(factorize(1), Vec::<usize>::new());
        assert_eq!(factorize(2), vec![2]);
        assert_eq!(factorize(12), vec![2, 2, 3]);
        assert_eq!(factorize(300), vec![2, 2, 3, 5, 5]);
        assert_eq!(factorize(97), vec![97]);
    }

    #[test]
    fn smoothness() {
        assert!(is_smooth(1));
        assert!(is_smooth(1024));
        assert!(is_smooth(300));
        assert!(is_smooth(13 * 13 * 4));
        assert!(!is_smooth(97));
        assert!(!is_smooth(2 * 19));
    }

    #[test]
    fn factor_product_reconstructs() {
        for n in 1..500usize {
            let prod: usize = factorize(n).iter().product();
            assert_eq!(prod.max(1), n.max(1));
        }
    }
}
