//! The distributed interpolation plan (paper Algorithm 1 and the
//! "interpolation planner" of §III-C2).
//!
//! Departure points computed by the semi-Lagrangian scheme can land in any
//! rank's subdomain. Building a [`ScatterPlan`] performs the *scatter phase*
//! once per velocity field: each point is routed to the rank that owns its
//! base grid cell (one alltoallv of coordinates). Evaluating the plan then
//! costs one alltoallv of values per field per time step: owners interpolate
//! the points they received against their ghosted local data and send the
//! results back, which the requester scatters into original point order.

use diffreg_comm::{Comm, Timers};
use diffreg_grid::{exchange_ghost, Decomp, GhostField, Layout, ScalarField};

use crate::kernel::{base_and_frac, Kernel, GHOST_WIDTH};
use crate::soa::SoaStencils;

/// A built communication plan for one set of departure points.
#[derive(Debug, Clone)]
pub struct ScatterPlan {
    /// Number of points this rank requested.
    n_local: usize,
    /// For each owner rank: the local indices of the points sent to it, in
    /// the order the owner returns their values.
    routes: Vec<Vec<u32>>,
    /// Start of each requesting rank's batch within `stencils`, plus the
    /// total.
    batch_off: Vec<usize>,
    /// Stencils of the points this rank interpolates, batches concatenated.
    stencils: SoaStencils,
}

impl ScatterPlan {
    /// Builds the plan (collective): routes `points` (physical coordinates,
    /// any values — they are wrapped periodically) to their owner ranks.
    pub fn build<C: Comm>(
        comm: &C,
        decomp: &Decomp,
        points: &[[f64; 3]],
        timers: &Timers,
    ) -> Self {
        let _span = diffreg_telemetry::span("interp.plan");
        let grid = decomp.grid;
        let p = comm.size();
        assert!(u32::try_from(points.len()).is_ok(), "more than 2^32 points on one rank");
        let mut routes: Vec<Vec<u32>> = vec![Vec::new(); p];
        let mut outgoing: Vec<Vec<[f64; 3]>> = vec![Vec::new(); p];
        for (i, &x) in points.iter().enumerate() {
            let (b0, _) = base_and_frac(x[0], grid.n[0]);
            let (b1, _) = base_and_frac(x[1], grid.n[1]);
            let owner = decomp.owner_spatial([b0, b1, 0]);
            routes[owner].push(i as u32);
            outgoing[owner].push(x);
        }
        let assigned = timers.time("interp_comm", || {
            diffreg_telemetry::with_span("interp.scatter", || comm.alltoallv(outgoing))
        });
        timers.count("interp_points_routed", points.len() as u64);
        diffreg_telemetry::observe_global(
            "diffreg_interp_scatter_points",
            points.len() as f64,
        );
        diffreg_telemetry::observe_global(
            "diffreg_interp_scatter_bytes",
            std::mem::size_of_val(points) as f64,
        );
        // Hoist the per-point stencil math out of the evaluation loops: the
        // plan is reused across every field and time step of a transport
        // solve, so the precompute amortizes to nothing.
        let mut batch_off = Vec::with_capacity(assigned.len() + 1);
        let mut off = 0;
        for pts in &assigned {
            batch_off.push(off);
            off += pts.len();
        }
        batch_off.push(off);
        let stencils = timers.time("interp_exec", || {
            let block = decomp.block(comm.rank(), Layout::Spatial);
            let origin = [
                block.start[0] as isize - GHOST_WIDTH as isize,
                block.start[1] as isize - GHOST_WIDTH as isize,
            ];
            SoaStencils::build(&grid, origin, &assigned)
        });
        Self { n_local: points.len(), routes, batch_off, stencils }
    }

    /// Number of points this rank requested.
    pub fn len(&self) -> usize {
        self.n_local
    }

    /// True if this rank requested no points.
    pub fn is_empty(&self) -> bool {
        self.n_local == 0
    }

    /// Number of points this rank will interpolate for others (and itself).
    pub fn assigned_len(&self) -> usize {
        self.stencils.len()
    }

    /// Global fraction of requested points that had to be routed to another
    /// rank — the "leak" of the performance model's scatter term, and a
    /// direct measure of how far departure points travel (CFL-dependent).
    pub fn off_rank_fraction<C: Comm>(&self, comm: &C) -> f64 {
        let mut counts = [self.n_local - self.routes[comm.rank()].len(), self.n_local];
        comm.allreduce_usize(&mut counts, diffreg_comm::ReduceOp::Sum);
        if counts[1] == 0 {
            0.0
        } else {
            counts[0] as f64 / counts[1] as f64
        }
    }

    /// Interpolates several fields at the planned points with one value
    /// exchange (values of all fields are batched per point).
    ///
    /// `ghosts` are the ghosted local fields; the result contains one value
    /// vector per field, each in the original point order.
    pub fn interpolate_many<C: Comm>(
        &self,
        comm: &C,
        ghosts: &[&GhostField],
        kernel: Kernel,
        timers: &Timers,
    ) -> Vec<Vec<f64>> {
        let _span = diffreg_telemetry::span("interp.eval");
        let nf = ghosts.len();
        assert!(nf > 0, "need at least one field");
        // Owners evaluate; values interleaved per point: [f0, f1, ..] per point.
        let values: Vec<Vec<f64>> = timers.time("interp_exec", || {
            self.batch_off
                .windows(2)
                .map(|b| {
                    // diffreg-allow(alloc-in-hot-path): per-batch send buffers are moved into alltoallv — ownership transfer precludes arena pooling
                    let mut vals = vec![0.0; (b[1] - b[0]) * nf];
                    self.stencils.eval(kernel, ghosts, b[0], b[1], &mut vals);
                    vals
                })
                // diffreg-allow(alloc-in-hot-path): collects the per-batch send buffers moved into alltoallv — ownership transfer precludes arena pooling
                .collect()
        });
        timers.count("interp_points_evaluated", (self.assigned_len() * nf) as u64);
        diffreg_telemetry::observe_global(
            "diffreg_interp_scatter_values",
            (self.assigned_len() * nf) as f64,
        );
        let returned = timers.time("interp_comm", || {
            diffreg_telemetry::with_span("interp.scatter", || comm.alltoallv(values))
        });
        // Unscatter into original order.
        // diffreg-allow(alloc-in-hot-path): result buffers are returned to the caller — ownership transfer precludes arena pooling
        let mut out = vec![vec![0.0; self.n_local]; nf];
        for (route, vals) in self.routes.iter().zip(&returned) {
            for (&i, v) in route.iter().zip(vals.chunks_exact(nf)) {
                for (o, &x) in out.iter_mut().zip(v) {
                    o[i as usize] = x;
                }
            }
        }
        out
    }

    /// Interpolates a single field at the planned points.
    pub fn interpolate<C: Comm>(
        &self,
        comm: &C,
        ghost: &GhostField,
        kernel: Kernel,
        timers: &Timers,
    ) -> Vec<f64> {
        // diffreg-allow(no-unwrap-in-lib): interpolate_many returns exactly one Vec per ghost field passed in
        self.interpolate_many(comm, &[ghost], kernel, timers).pop().unwrap()
    }
}

/// Convenience: ghost-exchanges `field` with the kernel's required width.
pub fn ghosted<C: Comm>(comm: &C, decomp: &Decomp, field: &ScalarField) -> GhostField {
    exchange_ghost(comm, decomp, field, GHOST_WIDTH)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{tricubic, trilinear};
    use diffreg_comm::{run_threaded, SerialComm};
    use diffreg_grid::{Grid, Layout};
    use std::f64::consts::TAU;

    fn probe(x: [f64; 3]) -> f64 {
        x[0].sin() * (2.0 * x[1]).cos() + 0.3 * x[2].sin()
    }

    fn probe2(x: [f64; 3]) -> f64 {
        (x[0] + x[2]).cos() - 0.5 * x[1].sin()
    }

    fn test_points(count: usize) -> Vec<[f64; 3]> {
        (0..count)
            .map(|s| {
                [
                    (0.61 * s as f64 + 0.3).rem_euclid(TAU),
                    (1.17 * s as f64 - 0.8).rem_euclid(TAU),
                    (0.29 * s as f64 + 2.0).rem_euclid(TAU),
                ]
            })
            .collect()
    }

    fn serial_reference(grid: Grid, points: &[[f64; 3]], f: impl Fn([f64; 3]) -> f64) -> Vec<f64> {
        let comm = SerialComm::new();
        let d = Decomp::new(grid, 1);
        let field = ScalarField::from_fn(&grid, d.block(0, Layout::Spatial), f);
        let ghost = ghosted(&comm, &d, &field);
        let timers = Timers::new();
        let plan = ScatterPlan::build(&comm, &d, points, &timers);
        plan.interpolate(&comm, &ghost, Kernel::Tricubic, &timers)
    }

    #[test]
    fn distributed_scatter_matches_serial() {
        let grid = Grid::new([12, 8, 6]);
        let points = test_points(200);
        let reference = serial_reference(grid, &points, probe);
        for (p1, p2) in [(2, 2), (4, 1), (1, 2), (3, 2)] {
            let pts = points.clone();
            let refr = reference.clone();
            run_threaded(p1 * p2, move |comm| {
                let d = Decomp::with_process_grid(grid, p1, p2);
                let field =
                    ScalarField::from_fn(&grid, d.block(comm.rank(), Layout::Spatial), probe);
                let ghost = ghosted(comm, &d, &field);
                let timers = Timers::new();
                // Each rank requests a distinct chunk of the points.
                let chunk = pts.len() / comm.size();
                let mine = &pts[comm.rank() * chunk..(comm.rank() + 1) * chunk];
                let plan = ScatterPlan::build(comm, &d, mine, &timers);
                let vals = plan.interpolate(comm, &ghost, Kernel::Tricubic, &timers);
                for (i, v) in vals.iter().enumerate() {
                    let want = refr[comm.rank() * chunk + i];
                    assert!((v - want).abs() < 1e-12, "p=({p1},{p2}) point {i}: {v} vs {want}");
                }
            });
        }
    }

    #[test]
    fn batched_multi_field_matches_single() {
        let grid = Grid::new([8, 8, 8]);
        let points = test_points(77);
        run_threaded(4, move |comm| {
            let d = Decomp::with_process_grid(grid, 2, 2);
            let b = d.block(comm.rank(), Layout::Spatial);
            let f1 = ScalarField::from_fn(&grid, b, probe);
            let f2 = ScalarField::from_fn(&grid, b, probe2);
            let g1 = ghosted(comm, &d, &f1);
            let g2 = ghosted(comm, &d, &f2);
            let timers = Timers::new();
            let mine: Vec<[f64; 3]> = points
                .iter()
                .skip(comm.rank())
                .step_by(comm.size())
                .copied()
                .collect();
            let plan = ScatterPlan::build(comm, &d, &mine, &timers);
            let both = plan.interpolate_many(comm, &[&g1, &g2], Kernel::Tricubic, &timers);
            let only1 = plan.interpolate(comm, &g1, Kernel::Tricubic, &timers);
            let only2 = plan.interpolate(comm, &g2, Kernel::Tricubic, &timers);
            assert_eq!(both[0], only1);
            assert_eq!(both[1], only2);
        });
    }

    #[test]
    fn points_far_from_home_are_routed() {
        // Departure points deliberately on the other side of the domain —
        // exercising CFL > 1 transport where ghost layers alone cannot help.
        let grid = Grid::cubic(8);
        run_threaded(4, move |comm| {
            let d = Decomp::with_process_grid(grid, 2, 2);
            let field = ScalarField::from_fn(&grid, d.block(comm.rank(), Layout::Spatial), probe);
            let ghost = ghosted(comm, &d, &field);
            let timers = Timers::new();
            // All ranks request the same far-away points.
            let far = vec![[0.1, 0.1, 0.1], [3.0, 3.0, 3.0], [6.0, 0.5, 5.0]];
            let plan = ScatterPlan::build(comm, &d, &far, &timers);
            let vals = plan.interpolate(comm, &ghost, Kernel::Tricubic, &timers);
            for (x, v) in far.iter().zip(&vals) {
                assert!((v - probe(*x)).abs() < 0.05, "{v} vs {}", probe(*x));
            }
        });
    }

    #[test]
    fn empty_point_set() {
        let grid = Grid::cubic(4);
        let comm = SerialComm::new();
        let d = Decomp::new(grid, 1);
        let field = ScalarField::from_fn(&grid, d.block(0, Layout::Spatial), probe);
        let ghost = ghosted(&comm, &d, &field);
        let timers = Timers::new();
        let plan = ScatterPlan::build(&comm, &d, &[], &timers);
        assert!(plan.is_empty());
        let vals = plan.interpolate(&comm, &ghost, Kernel::Tricubic, &timers);
        assert!(vals.is_empty());
    }

    /// Fields with different magnitudes for the kernel oracle test.
    const ORACLE_FIELDS: [fn([f64; 3]) -> f64; 4] = [
        probe,
        probe2,
        |x| 3.0 * (x[0] + 2.0 * x[2]).cos() - 1.0,
        |x| (x[0] * x[1]).cos() + 0.1 * x[2],
    ];

    #[test]
    fn evaluation_matches_per_point_kernel() {
        // The fused tricubic loop sums in its own order, so it agrees with
        // the per-point kernel to |Δ| ≤ 1e-13·max|f|; trilinear keeps the
        // kernel's order and must agree bitwise.
        let cases = [([7, 5, 9], 1, 1), ([12, 8, 6], 1, 1), ([8, 8, 8], 2, 2), ([12, 8, 6], 2, 2)];
        for (n, p1, p2) in cases {
            let grid = Grid::new(n);
            // Spread points, plus every wrapping axis-2 cell (base 0,
            // n2 − 2, n2 − 1) for every axis-0 cell.
            let h = grid.spacing();
            let mut points = test_points(120);
            for b0 in 0..n[0] {
                for b2 in [0, n[2] - 2, n[2] - 1] {
                    points.push([(b0 as f64 + 0.7) * h[0], 1.9, (b2 as f64 + 0.43) * h[2]]);
                }
            }
            let comm = SerialComm::new();
            let d = Decomp::new(grid, 1);
            let block = d.block(0, Layout::Spatial);
            let serial: Vec<GhostField> = ORACLE_FIELDS
                .iter()
                .map(|f| ghosted(&comm, &d, &ScalarField::from_fn(&grid, block, f)))
                .collect();
            let max_abs = |g: &GhostField| g.data().iter().fold(0.0f64, |m, v| m.max(v.abs()));
            let scale: Vec<f64> = serial.iter().map(max_abs).collect();
            let reference = |k: fn(&GhostField, &Grid, [f64; 3]) -> f64| -> Vec<Vec<f64>> {
                serial.iter().map(|g| points.iter().map(|&x| k(g, &grid, x)).collect()).collect()
            };
            let (want_cubic, want_lin) = (reference(tricubic), reference(trilinear));
            let pts = points.clone();
            run_threaded(p1 * p2, move |comm| {
                let d = Decomp::with_process_grid(grid, p1, p2);
                let b = d.block(comm.rank(), Layout::Spatial);
                let ghosts: Vec<GhostField> = ORACLE_FIELDS
                    .iter()
                    .map(|f| ghosted(comm, &d, &ScalarField::from_fn(&grid, b, f)))
                    .collect();
                let mine: Vec<usize> = (comm.rank()..pts.len()).step_by(comm.size()).collect();
                let xs: Vec<[f64; 3]> = mine.iter().map(|&i| pts[i]).collect();
                let timers = Timers::new();
                let plan = ScatterPlan::build(comm, &d, &xs, &timers);
                for nf in 1..=4 {
                    let refs: Vec<&GhostField> = ghosts[..nf].iter().collect();
                    let cubic = plan.interpolate_many(comm, &refs, Kernel::Tricubic, &timers);
                    let lin = plan.interpolate_many(comm, &refs, Kernel::Trilinear, &timers);
                    for f in 0..nf {
                        for (q, &i) in mine.iter().enumerate() {
                            let diff = (cubic[f][q] - want_cubic[f][i]).abs();
                            assert!(
                                diff <= 1e-13 * scale[f],
                                "{n:?} on {p1}x{p2}, nf={nf}, field {f} at {:?}: {diff:e}",
                                pts[i]
                            );
                            assert_eq!(lin[f][q], want_lin[f][i], "trilinear at {:?}", pts[i]);
                        }
                    }
                }
            });
        }
    }

    #[test]
    fn plan_reuse_is_consistent() {
        // The paper reuses one plan across all time steps of a transport
        // solve; interpolating twice must give identical answers.
        let grid = Grid::cubic(8);
        let comm = SerialComm::new();
        let d = Decomp::new(grid, 1);
        let field = ScalarField::from_fn(&grid, d.block(0, Layout::Spatial), probe);
        let ghost = ghosted(&comm, &d, &field);
        let timers = Timers::new();
        let points = test_points(31);
        let plan = ScatterPlan::build(&comm, &d, &points, &timers);
        let a = plan.interpolate(&comm, &ghost, Kernel::Tricubic, &timers);
        let b = plan.interpolate(&comm, &ghost, Kernel::Tricubic, &timers);
        assert_eq!(a, b);
    }
}
