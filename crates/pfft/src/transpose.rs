//! Pencil transposes: the alltoallv data rearrangements between the three
//! layouts of the distributed FFT (paper Fig. 4 b/c).
//!
//! All four functions take one rank's local array of `Complex64` and
//! exchange sub-boxes within a row or column sub-communicator. Memory order
//! is always row-major with the last listed axis fastest. On a one-rank
//! group the input and output layouts coincide, so the input is returned
//! as it is: no pack, no self-exchange, no unpack.

use diffreg_comm::Comm;
use diffreg_fft::Complex64;
use diffreg_grid::slab;

/// Spatial -> Mid: input `(a, b_me, NC)` with axis *b* split over the group
/// and axis *c* full; output `(a, NB, c_me)` with axis *b* full and axis *c*
/// split. The untouched axis *a* is slowest.
///
/// For the forward FFT this is the D0 -> D1 transpose within a row group
/// (`a` = local axis-0 extent, `b` = axis 1, `c` = axis 2).
pub fn fwd_mid<C: Comm>(
    comm: &C,
    data: Vec<Complex64>,
    a: usize,
    nb: usize,
    nc: usize,
) -> Vec<Complex64> {
    let p = comm.size();
    if p == 1 {
        return data;
    }
    let me = comm.rank();
    let (_, b_me) = slab(nb, p, me);
    let (_, c_me) = slab(nc, p, me);
    debug_assert_eq!(data.len(), a * b_me * nc);

    let mut parts: Vec<Vec<Complex64>> = Vec::with_capacity(p);
    for d in 0..p {
        let (sc, cc) = slab(nc, p, d);
        let mut part = Vec::with_capacity(a * b_me * cc);
        for i0 in 0..a {
            for i1 in 0..b_me {
                let base = (i0 * b_me + i1) * nc + sc;
                part.extend_from_slice(&data[base..base + cc]);
            }
        }
        parts.push(part);
    }
    let recvd = diffreg_telemetry::with_span("fft.transpose", || comm.alltoallv(parts));
    let mut out = vec![Complex64::ZERO; a * nb * c_me];
    for (s, part) in recvd.iter().enumerate() {
        let (sb, cb) = slab(nb, p, s);
        let mut off = 0usize;
        for i0 in 0..a {
            for i1 in 0..cb {
                let base = (i0 * nb + sb + i1) * c_me;
                out[base..base + c_me].copy_from_slice(&part[off..off + c_me]);
                off += c_me;
            }
        }
        debug_assert_eq!(off, part.len());
    }
    out
}

/// Mid -> Spatial: inverse of [`fwd_mid`]. Input `(a, NB, c_me)`, output
/// `(a, b_me, NC)`.
pub fn inv_mid<C: Comm>(
    comm: &C,
    data: Vec<Complex64>,
    a: usize,
    nb: usize,
    nc: usize,
) -> Vec<Complex64> {
    let p = comm.size();
    if p == 1 {
        return data;
    }
    let me = comm.rank();
    let (_, b_me) = slab(nb, p, me);
    let (_, c_me) = slab(nc, p, me);
    debug_assert_eq!(data.len(), a * nb * c_me);

    let mut parts: Vec<Vec<Complex64>> = Vec::with_capacity(p);
    for d in 0..p {
        let (sb, cb) = slab(nb, p, d);
        let mut part = Vec::with_capacity(a * cb * c_me);
        for i0 in 0..a {
            for i1 in 0..cb {
                let base = (i0 * nb + sb + i1) * c_me;
                part.extend_from_slice(&data[base..base + c_me]);
            }
        }
        parts.push(part);
    }
    let recvd = diffreg_telemetry::with_span("fft.transpose", || comm.alltoallv(parts));
    let mut out = vec![Complex64::ZERO; a * b_me * nc];
    for (s, part) in recvd.iter().enumerate() {
        let (sc, cc) = slab(nc, p, s);
        let mut off = 0usize;
        for i0 in 0..a {
            for i1 in 0..b_me {
                let base = (i0 * b_me + i1) * nc + sc;
                out[base..base + cc].copy_from_slice(&part[off..off + cc]);
                off += cc;
            }
        }
        debug_assert_eq!(off, part.len());
    }
    out
}

/// Mid -> Spectral: input `(a_me, NB, c)` with axis *a* split and axis *b*
/// full; output `(NA, b_me, c)` with axis *a* full and axis *b* split. The
/// untouched axis *c* is fastest.
///
/// For the forward FFT this is the D1 -> D2 transpose within a column group
/// (`a` = axis 0, `b` = axis 1, `c` = local axis-2 extent).
pub fn fwd_spec<C: Comm>(
    comm: &C,
    data: Vec<Complex64>,
    na: usize,
    nb: usize,
    c: usize,
) -> Vec<Complex64> {
    let p = comm.size();
    if p == 1 {
        return data;
    }
    let me = comm.rank();
    let (_, a_me) = slab(na, p, me);
    let (_, b_me) = slab(nb, p, me);
    debug_assert_eq!(data.len(), a_me * nb * c);

    let mut parts: Vec<Vec<Complex64>> = Vec::with_capacity(p);
    for d in 0..p {
        let (sb, cb) = slab(nb, p, d);
        let mut part = Vec::with_capacity(a_me * cb * c);
        for i0 in 0..a_me {
            for i1 in 0..cb {
                let base = (i0 * nb + sb + i1) * c;
                part.extend_from_slice(&data[base..base + c]);
            }
        }
        parts.push(part);
    }
    let recvd = diffreg_telemetry::with_span("fft.transpose", || comm.alltoallv(parts));
    let mut out = vec![Complex64::ZERO; na * b_me * c];
    for (s, part) in recvd.iter().enumerate() {
        let (sa, ca) = slab(na, p, s);
        let mut off = 0usize;
        for i0 in 0..ca {
            for i1 in 0..b_me {
                let base = ((sa + i0) * b_me + i1) * c;
                out[base..base + c].copy_from_slice(&part[off..off + c]);
                off += c;
            }
        }
        debug_assert_eq!(off, part.len());
    }
    out
}

/// Spectral -> Mid: inverse of [`fwd_spec`]. Input `(NA, b_me, c)`, output
/// `(a_me, NB, c)`.
pub fn inv_spec<C: Comm>(
    comm: &C,
    data: Vec<Complex64>,
    na: usize,
    nb: usize,
    c: usize,
) -> Vec<Complex64> {
    let p = comm.size();
    if p == 1 {
        return data;
    }
    let me = comm.rank();
    let (_, a_me) = slab(na, p, me);
    let (_, b_me) = slab(nb, p, me);
    debug_assert_eq!(data.len(), na * b_me * c);

    let mut parts: Vec<Vec<Complex64>> = Vec::with_capacity(p);
    for d in 0..p {
        let (sa, ca) = slab(na, p, d);
        let mut part = Vec::with_capacity(ca * b_me * c);
        for i0 in 0..ca {
            for i1 in 0..b_me {
                let base = ((sa + i0) * b_me + i1) * c;
                part.extend_from_slice(&data[base..base + c]);
            }
        }
        parts.push(part);
    }
    let recvd = diffreg_telemetry::with_span("fft.transpose", || comm.alltoallv(parts));
    let mut out = vec![Complex64::ZERO; a_me * nb * c];
    for (s, part) in recvd.iter().enumerate() {
        let (sb, cb) = slab(nb, p, s);
        let mut off = 0usize;
        for i0 in 0..a_me {
            for i1 in 0..cb {
                let base = (i0 * nb + sb + i1) * c;
                out[base..base + c].copy_from_slice(&part[off..off + c]);
                off += c;
            }
        }
        debug_assert_eq!(off, part.len());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use diffreg_comm::run_threaded;

    fn tag(v: f64) -> Complex64 {
        Complex64::new(v, -v)
    }

    #[test]
    fn mid_transpose_roundtrip_and_placement() {
        // Global logical array (A=2, NB=5, NC=6) distributed over 3 ranks.
        let (a, nb, nc) = (2usize, 5usize, 6usize);
        run_threaded(3, move |comm| {
            let p = comm.size();
            let me = comm.rank();
            let (sb, cb) = slab(nb, p, me);
            // Input: (a, cb, nc) block of the global array, value = global index.
            let mut input = Vec::with_capacity(a * cb * nc);
            for i0 in 0..a {
                for i1 in 0..cb {
                    for i2 in 0..nc {
                        input.push(tag(((i0 * nb + sb + i1) * nc + i2) as f64));
                    }
                }
            }
            let mid = fwd_mid(comm, input.clone(), a, nb, nc);
            // Check mid layout: (a, nb, cc_me) with axis-c offset sc.
            let (sc, cc) = slab(nc, p, me);
            for i0 in 0..a {
                for i1 in 0..nb {
                    for i2 in 0..cc {
                        let expect = tag(((i0 * nb + i1) * nc + sc + i2) as f64);
                        assert_eq!(mid[(i0 * nb + i1) * cc + i2], expect);
                    }
                }
            }
            let back = inv_mid(comm, mid, a, nb, nc);
            assert_eq!(back, input);
        });
    }

    #[test]
    fn spec_transpose_roundtrip_and_placement() {
        let (na, nb, c) = (7usize, 5usize, 3usize);
        run_threaded(2, move |comm| {
            let p = comm.size();
            let me = comm.rank();
            let (sa, ca) = slab(na, p, me);
            // Input: (ca, nb, c), value = global index over (na, nb, c).
            let mut input = Vec::with_capacity(ca * nb * c);
            for i0 in 0..ca {
                for i1 in 0..nb {
                    for i2 in 0..c {
                        input.push(tag((((sa + i0) * nb + i1) * c + i2) as f64));
                    }
                }
            }
            let spec = fwd_spec(comm, input.clone(), na, nb, c);
            let (sb, cb) = slab(nb, p, me);
            for i0 in 0..na {
                for i1 in 0..cb {
                    for i2 in 0..c {
                        let expect = tag(((i0 * nb + sb + i1) * c + i2) as f64);
                        assert_eq!(spec[(i0 * cb + i1) * c + i2], expect);
                    }
                }
            }
            let back = inv_spec(comm, spec, na, nb, c);
            assert_eq!(back, input);
        });
    }

    /// On one rank all four transposes hand their input back as it is: the
    /// same buffer, so nothing was packed, exchanged or unpacked.
    #[test]
    fn single_rank_transposes_return_their_input() {
        use diffreg_comm::SerialComm;
        let comm = SerialComm::new();
        let (a, b, c) = (2usize, 3usize, 4usize);
        let input: Vec<Complex64> = (0..a * b * c).map(|i| tag(i as f64)).collect();
        let mut data = input.clone();
        let p0 = data.as_ptr();
        data = fwd_mid(&comm, data, a, b, c);
        data = inv_mid(&comm, data, a, b, c);
        data = fwd_spec(&comm, data, a, b, c);
        data = inv_spec(&comm, data, a, b, c);
        assert_eq!(data.as_ptr(), p0);
        assert_eq!(data, input);
    }
}
