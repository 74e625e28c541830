//! Seeded property tests of the distributed FFT against the serial oracle
//! and against analytic plane waves, over random grids, process layouts,
//! and band-limited fields; and bitwise agreement of the transform pair
//! across process grids.

use std::collections::BTreeMap;

use diffreg_comm::{run_threaded, Comm, SerialComm, Timers};
use diffreg_grid::{Decomp, Grid, Layout, ScalarField};
use diffreg_pfft::PencilFft;
use diffreg_spectral::SerialSpectral;
use diffreg_testkit::oracle::PlaneWave;
use diffreg_testkit::prop_check;

fn field_from_seed(grid: &Grid, block: diffreg_grid::Block, seed: u64) -> ScalarField {
    ScalarField::from_fn(grid, block, |x| {
        let s = seed as f64 * 0.01;
        (x[0] + s).sin() + ((2.0 + (seed % 3) as f64) * x[1]).cos() * (x[2] - s).sin() + 0.1 * s
    })
}

#[test]
fn distributed_roundtrip_any_layout() {
    prop_check!(cases = 12, |rng| {
        let n = [4 + rng.index(6), 4 + rng.index(6), 4 + rng.index(6)];
        let p1 = 1 + rng.index(2.min(n[0]).min(n[1]));
        let p2 = 1 + rng.index(2.min(n[1]).min(n[2]));
        let seed = rng.next_u64() % 1000;
        let grid = Grid::new(n);
        run_threaded(p1 * p2, move |comm| {
            let decomp = Decomp::with_process_grid(grid, p1, p2);
            let plan = PencilFft::new(comm, decomp);
            let field = field_from_seed(&grid, plan.spatial_block(), seed);
            let timers = Timers::new();
            let spec = plan.forward(&field, &timers);
            let back = plan.inverse(&spec, &timers);
            for (a, b) in back.data().iter().zip(field.data()) {
                assert!((a - b).abs() < 1e-9, "roundtrip broke: {a} vs {b}");
            }
        });
    });
}

#[test]
fn distributed_derivative_matches_serial() {
    prop_check!(cases = 12, |rng| {
        let axis = rng.index(3);
        let seed = rng.next_u64() % 1000;
        let grid = Grid::new([8, 6, 10]);
        // Serial oracle.
        let oracle = {
            let d = Decomp::new(grid, 1);
            let f = field_from_seed(&grid, d.block(0, Layout::Spatial), seed);
            SerialSpectral::new(grid.n).derivative(f.data(), axis)
        };
        run_threaded(4, move |comm| {
            let decomp = Decomp::with_process_grid(grid, 2, 2);
            let plan = PencilFft::new(comm, decomp);
            let field = field_from_seed(&grid, plan.spatial_block(), seed);
            let timers = Timers::new();
            let got = plan.derivative(&field, axis, &timers);
            let block = plan.spatial_block();
            for (l, v) in got.data().iter().enumerate() {
                let gi = block.global_of_local(l);
                let want = oracle[grid.flatten(gi)];
                assert!((v - want).abs() < 1e-9, "axis {axis} at {gi:?}");
            }
        });
    });
}

/// Analytic oracle: plane waves are exact eigenfunctions of the spectral
/// derivative — the distributed gradient of `cos(k·x + φ)` must equal
/// `−k_a sin(k·x + φ)` per axis, on every process layout tested.
#[test]
fn distributed_gradient_matches_plane_wave_analytic() {
    prop_check!(cases = 12, |rng| {
        let wave = PlaneWave::random(rng, 3);
        let grid = Grid::cubic(8);
        for p in [1usize, 2, 4] {
            run_threaded(p, move |comm| {
                let decomp = Decomp::new(grid, comm.size());
                let plan = PencilFft::new(comm, decomp);
                let block = plan.spatial_block();
                let f = ScalarField::from_fn(&grid, block, |x| wave.eval(x));
                let timers = Timers::new();
                for axis in 0..3 {
                    let got = plan.derivative(&f, axis, &timers);
                    for (l, v) in got.data().iter().enumerate() {
                        let gi = block.global_of_local(l);
                        let x = [grid.coord(0, gi[0]), grid.coord(1, gi[1]), grid.coord(2, gi[2])];
                        let want = wave.grad(x)[axis];
                        assert!(
                            (v - want).abs() < 1e-9,
                            "plane-wave derivative axis {axis}: {v} vs {want}"
                        );
                    }
                }
            });
        }
    });
}

#[test]
fn parseval_holds_distributed() {
    prop_check!(cases = 12, |rng| {
        let seed = rng.next_u64() % 1000;
        let p = 1 + rng.index(4);
        let grid = Grid::new([8, 8, 8]);
        run_threaded(p, move |comm| {
            let decomp = Decomp::new(grid, p);
            let plan = PencilFft::new(comm, decomp);
            let field = field_from_seed(&grid, plan.spatial_block(), seed);
            let timers = Timers::new();
            let spec = plan.forward(&field, &timers);
            let e_time = comm.sum_f64(field.data().iter().map(|v| v * v).sum());
            // Each stored bin with 0 < k2 < n2/2 also stands for its
            // conjugate partner in the omitted half.
            let n2 = grid.n[2];
            let e_half: f64 = spec
                .data
                .iter()
                .enumerate()
                .map(|(l, z)| {
                    let i2 = spec.block.global_of_local(l)[2];
                    let w = if i2 > 0 && 2 * i2 < n2 { 2.0 } else { 1.0 };
                    w * z.norm_sqr()
                })
                .sum();
            let e_freq = comm.sum_f64(e_half) / grid.total() as f64;
            assert!((e_time - e_freq).abs() < 1e-7 * (1.0 + e_time));
        });
    });
}

#[test]
fn translate_shifts_bandlimited_fields_exactly() {
    prop_check!(cases = 24, |rng| {
        let s = [rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)];
        let grid = Grid::cubic(8);
        let comm = SerialComm::new();
        let plan = PencilFft::new(&comm, Decomp::new(grid, 1));
        let timers = Timers::new();
        let block = plan.spatial_block();
        let f = ScalarField::from_fn(&grid, block, |x| x[0].sin() + (2.0 * x[1]).cos());
        let shifted = plan.translate(&f, s, &timers);
        let expect = ScalarField::from_fn(&grid, block, |x| {
            (x[0] - s[0]).sin() + (2.0 * (x[1] - s[1])).cos()
        });
        for (a, b) in shifted.data().iter().zip(expect.data()) {
            assert!((a - b).abs() < 1e-9);
        }
    });
}

/// Every global half-spectrum bin of `forward`, and every grid value of
/// `inverse` applied to it, as bit patterns, on a `p1 x p2` grid.
#[allow(clippy::type_complexity)]
fn half_transform_bits(
    grid: Grid,
    p1: usize,
    p2: usize,
    seed: u64,
) -> (BTreeMap<[usize; 3], (u64, u64)>, BTreeMap<[usize; 3], u64>) {
    let per_rank = run_threaded(p1 * p2, move |comm| {
        let decomp = Decomp::with_process_grid(grid, p1, p2);
        let plan = PencilFft::new(comm, decomp);
        let field = field_from_seed(&grid, plan.spatial_block(), seed);
        let timers = Timers::new();
        let spec = plan.forward(&field, &timers);
        let back = plan.inverse(&spec, &timers);
        let bins: Vec<_> = spec
            .data
            .iter()
            .enumerate()
            .map(|(l, z)| (spec.block.global_of_local(l), (z.re.to_bits(), z.im.to_bits())))
            .collect();
        let block = plan.spatial_block();
        let values: Vec<_> = back
            .data()
            .iter()
            .enumerate()
            .map(|(l, v)| (block.global_of_local(l), v.to_bits()))
            .collect();
        (bins, values)
    });
    let mut bins = BTreeMap::new();
    let mut values = BTreeMap::new();
    for (b, v) in per_rank {
        bins.extend(b);
        values.extend(v);
    }
    (bins, values)
}

/// Each 1D line goes through the same engine operations however the
/// pencils are cut, so the r2c forward and c2r inverse give bitwise the
/// same value at every global bin and grid point on 1x1, 1x2 and 2x2
/// process grids (odd, smooth and Bluestein extents included).
#[test]
fn half_transforms_are_bitwise_equal_across_process_grids() {
    prop_check!(cases = 8, |rng| {
        let extents = [6, 8, 9, 12, 16, 17];
        let n = [0, 1, 2].map(|_| extents[rng.index(extents.len())]);
        let seed = rng.next_u64() % 1000;
        let grid = Grid::new(n);
        let serial = half_transform_bits(grid, 1, 1, seed);
        for (p1, p2) in [(1, 2), (2, 2)] {
            let got = half_transform_bits(grid, p1, p2, seed);
            assert!(got.0 == serial.0, "forward bins differ on {p1}x{p2}, n={n:?}");
            assert!(got.1 == serial.1, "inverse values differ on {p1}x{p2}, n={n:?}");
        }
    });
}
