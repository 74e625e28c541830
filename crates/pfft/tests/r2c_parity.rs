//! Oracle-parity tier for the distributed r2c transform pair: the
//! half-spectrum plan must round-trip to near machine precision and every
//! operator must match the serial c2c oracle point-for-point on seeded
//! random real fields.

use diffreg_comm::{run_threaded, Timers};
use diffreg_grid::{Decomp, Grid, Layout, ScalarField, VectorField};
use diffreg_pfft::PencilFft;
use diffreg_spectral::SerialSpectral;
use diffreg_testkit::{prop_check, Rng};

/// A smooth but symmetry-free scalar field parameterized by a seed.
fn seeded_scalar(grid: &Grid, block: diffreg_grid::Block, seed: u64) -> ScalarField {
    let mut rng = Rng::new(seed.wrapping_mul(0x9e37_79b9).wrapping_add(7));
    let amps: Vec<f64> = (0..6).map(|_| rng.uniform(-1.0, 1.0)).collect();
    ScalarField::from_fn(grid, block, move |x| {
        amps[0] * x[0].sin()
            + amps[1] * (2.0 * x[1]).cos()
            + amps[2] * (x[2] + 0.3).sin()
            + amps[3] * (x[0] + x[1]).cos() * x[2].sin()
            + amps[4] * (2.0 * x[2] - x[0]).cos()
            + amps[5]
    })
}

fn seeded_vector(grid: &Grid, block: diffreg_grid::Block, seed: u64) -> VectorField {
    VectorField {
        comps: [
            seeded_scalar(grid, block, seed),
            seeded_scalar(grid, block, seed + 101),
            seeded_scalar(grid, block, seed + 202),
        ],
    }
}

fn assert_fields_close(a: &ScalarField, b: &ScalarField, tol: f64, what: &str) {
    for (x, y) in a.data().iter().zip(b.data()) {
        assert!((x - y).abs() < tol, "{what}: {x} vs {y}");
    }
}

/// Compares a distributed field with a full-grid oracle at the same global
/// indices.
fn assert_matches_oracle(got: &ScalarField, oracle: &[f64], grid: &Grid, tol: f64, what: &str) {
    let block = got.block();
    for (l, x) in got.data().iter().enumerate() {
        let gi = block.global_of_local(l);
        let y = oracle[grid.flatten(gi)];
        assert!((x - y).abs() < tol, "{what} at {gi:?}: {x} vs {y}");
    }
}

/// Forward∘inverse on the half-spectrum plan is the identity to 1e-12,
/// including odd extents (full-c2c axis-2 fallback) and prime extents.
#[test]
fn r2c_roundtrip_is_identity() {
    for (n, p1, p2) in [
        ([8, 8, 8], 2, 2),
        ([6, 9, 5], 3, 1),
        ([8, 12, 10], 2, 4),
        ([7, 6, 17], 1, 2),
        ([4, 5, 13], 2, 1),
    ] {
        let grid = Grid::new(n);
        run_threaded(p1 * p2, move |comm| {
            let decomp = Decomp::with_process_grid(grid, p1, p2);
            let plan = PencilFft::new(comm, decomp);
            let field = seeded_scalar(&grid, plan.spatial_block(), 42);
            let timers = Timers::new();
            let spec = plan.forward(&field, &timers);
            assert_eq!(spec.data.len(), plan.half_block().len());
            let back = plan.inverse(&spec, &timers);
            assert_fields_close(&back, &field, 1e-12, "r2c roundtrip");
        });
    }
}

/// Every distributed operator matches the serial c2c oracle
/// ([`SerialSpectral`]) on seeded random fields, across serial and
/// distributed layouts. (`translate` is pinned by its analytic oracle in
/// `properties.rs`.)
#[test]
fn r2c_operators_match_serial_oracle() {
    prop_check!(cases = 8, |rng| {
        let seed = rng.next_u64() % 10_000;
        let (n, p1, p2) = match rng.index(4) {
            0 => ([8, 8, 8], 2, 2),
            1 => ([6, 9, 5], 3, 1),
            2 => ([8, 12, 10], 2, 4),
            _ => ([7, 6, 4], 1, 2),
        };
        let grid = Grid::new(n);
        let oracle = SerialSpectral::new(n);
        let full = Decomp::new(grid, 1).block(0, Layout::Spatial);
        let f = seeded_scalar(&grid, full, seed);
        let v = seeded_vector(&grid, full, seed);
        let v_full = [v.comps[0].data(), v.comps[1].data(), v.comps[2].data()];
        let grad = oracle.gradient(f.data());
        let smooth = oracle.gaussian_smooth(f.data(), 0.5);
        let div = oracle.divergence(v_full);
        let leray = oracle.leray(v_full);
        run_threaded(p1 * p2, |comm| {
            let decomp = Decomp::with_process_grid(grid, p1, p2);
            let plan = PencilFft::new(comm, decomp);
            let timers = Timers::new();
            let tol = 1e-10 * grid.total() as f64;

            let f = seeded_scalar(&grid, plan.spatial_block(), seed);
            let g = plan.gradient(&f, &timers);
            for (axis, (got, want)) in g.comps.iter().zip(&grad).enumerate() {
                assert_matches_oracle(got, want, &grid, tol, &format!("gradient axis {axis}"));
            }

            let s = plan.gaussian_smooth(&f, 0.5, &timers);
            assert_matches_oracle(&s, &smooth, &grid, tol, "gaussian_smooth");

            let v = seeded_vector(&grid, plan.spatial_block(), seed);
            let d = plan.divergence(&v, &timers);
            assert_matches_oracle(&d, &div, &grid, tol, "divergence");

            let l = plan.leray(&v, &timers);
            for (axis, (got, want)) in l.comps.iter().zip(&leray).enumerate() {
                assert_matches_oracle(got, want, &grid, tol, &format!("leray axis {axis}"));
            }
            // The projection must actually be divergence-free.
            let div = plan.divergence(&l, &timers);
            assert!(div.max_abs(comm) < tol, "projected divergence");
        });
    });
}

/// The distributed gradient costs one forward + three inverse transforms —
/// the `fft_3d` counter must read exactly 4.
#[test]
fn distributed_gradient_costs_four_transforms() {
    let grid = Grid::new([8, 8, 8]);
    run_threaded(4, move |comm| {
        let decomp = Decomp::with_process_grid(grid, 2, 2);
        let plan = PencilFft::new(comm, decomp);
        let f = seeded_scalar(&grid, plan.spatial_block(), 7);
        let timers = Timers::new();
        let _ = plan.gradient(&f, &timers);
        assert_eq!(timers.get_count("fft_3d"), 4, "gradient must reuse one forward transform");
        let v = seeded_vector(&grid, plan.spatial_block(), 9);
        let _ = plan.divergence(&v, &timers);
        assert_eq!(timers.get_count("fft_3d"), 8, "divergence must use 3 forward + 1 inverse");
    });
}
