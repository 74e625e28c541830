//! Digest manifest of a pinned solve set: the bitwise oracle that a
//! refactor preserved behaviour.
//!
//! Each case solves the paper's synthetic problem (§IV-A1) on a 16³ grid
//! with Newton capped at 2 iterations and pins three values: the FNV-1a
//! digest of the velocity bits (gathered in global grid order, components
//! 0, 1, 2), the Hessian matvec count, and `final_mismatch.to_bits()`.
//! A change that alters arithmetic on purpose re-pins the constants from
//! the actual values the failing assert prints.

use diffreg_comm::{run_threaded, Comm, SerialComm, Timers};
use diffreg_core::{register, register_with_continuation, RegistrationConfig, RegistrationOutcome};
use diffreg_grid::{Decomp, Grid, Layout, ScalarField, VectorField};
use diffreg_interp::Kernel;
use diffreg_optim::NewtonOptions;
use diffreg_pfft::PencilFft;
use diffreg_transport::{SemiLagrangian, Workspace};

const N: usize = 16;

/// `(velocity digest, matvecs, final_mismatch bits)` of one solve.
type Pin = (u64, usize, u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(values: impl Iterator<Item = f64>) -> u64 {
    let mut h = FNV_OFFSET;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
    }
    h
}

/// Template: sin² bump sum; reference: the template transported by a
/// known velocity (the construction of the resilience drills).
fn synthetic_pair<C: Comm>(ws: &Workspace<C>) -> (ScalarField, ScalarField) {
    let grid = ws.grid();
    let rho_t = ScalarField::from_fn(&grid, ws.block(), |x| {
        (x[0].sin().powi(2) + x[1].sin().powi(2) + x[2].sin().powi(2)) / 3.0
    });
    let a = 0.4;
    let v_star = VectorField::from_fn(&grid, ws.block(), |x| {
        [a * x[0].cos() * x[1].sin(), a * x[1].cos() * x[0].sin(), a * x[0].cos() * x[2].sin()]
    });
    let sl = SemiLagrangian::new(ws, &v_star, 4);
    let rho_r = sl.solve_state(ws, &rho_t).pop().unwrap();
    (rho_t, rho_r)
}

fn capped(cfg: RegistrationConfig) -> RegistrationConfig {
    RegistrationConfig { newton: NewtonOptions { max_iter: 2, ..Default::default() }, ..cfg }
}

/// Digests the velocity in global grid order, so the value does not depend
/// on how the field is split over ranks.
fn pin_of<C: Comm>(comm: &C, decomp: &Decomp, out: &RegistrationOutcome) -> Pin {
    let grid = decomp.grid;
    let mut full = vec![0.0; 3 * grid.total()];
    for (c, comp) in out.velocity.comps.iter().enumerate() {
        for (r, part) in comm.allgather(comp.data().to_vec()).iter().enumerate() {
            let b = decomp.block(r, Layout::Spatial);
            for (l, &v) in part.iter().enumerate() {
                full[c * grid.total() + grid.flatten(b.global_of_local(l))] = v;
            }
        }
    }
    (fnv1a(full.into_iter()), out.hessian_matvecs, out.final_mismatch.to_bits())
}

/// Solves the synthetic problem on one rank: plain `register`, or the
/// continuation driver over `betas` when given.
fn solve_on<C: Comm>(
    comm: &C,
    decomp: Decomp,
    cfg: RegistrationConfig,
    betas: Option<&[f64]>,
) -> Pin {
    let fft = PencilFft::new(comm, decomp);
    let timers = Timers::new();
    let ws = Workspace::new(comm, &decomp, &fft, &timers);
    let (t, r) = synthetic_pair(&ws);
    let cfg = capped(cfg);
    let out = match betas {
        None => register(&ws, &t, &r, cfg),
        Some(betas) => register_with_continuation(&ws, &t, &r, cfg, betas).0,
    };
    pin_of(comm, &decomp, &out)
}

fn serial(cfg: RegistrationConfig) -> Pin {
    solve_on(&SerialComm::new(), Decomp::new(Grid::cubic(N), 1), cfg, None)
}

/// Runs the solve on a `p1 x p2` thread-rank grid; every rank must report
/// the same pin.
fn threaded(p1: usize, p2: usize, cfg: RegistrationConfig, betas: Option<&'static [f64]>) -> Pin {
    let pins = run_threaded(p1 * p2, move |comm| {
        solve_on(comm, Decomp::with_process_grid(Grid::cubic(N), p1, p2), cfg, betas)
    });
    assert!(pins.iter().all(|p| *p == pins[0]), "ranks disagree: {pins:x?}");
    pins[0]
}

fn check(name: &str, got: Pin, want: Pin) {
    assert!(
        got == want,
        "{name}: digest manifest changed\n  actual: ({:#018x}, {}, {:#018x})\n  pinned: ({:#018x}, {}, {:#018x})",
        got.0,
        got.1,
        got.2,
        want.0,
        want.1,
        want.2
    );
}

#[test]
fn serial_tricubic() {
    let got = serial(RegistrationConfig { kernel: Kernel::Tricubic, ..Default::default() });
    check("serial tricubic", got, (0x4b1c_b105_f1b8_ff90, 9, 0x3fc1_ed2a_6a75_7e87));
}

#[test]
fn serial_trilinear() {
    let got = serial(RegistrationConfig { kernel: Kernel::Trilinear, ..Default::default() });
    check("serial trilinear", got, (0xc4a1_495c_05b3_a389, 8, 0x3fc4_b637_8c56_cc8d));
}

#[test]
fn ranks_1x2() {
    let got = threaded(1, 2, RegistrationConfig::default(), None);
    check("1x2 ranks", got, (0x9e79_b058_b65b_ffee, 9, 0x3fc1_ed2a_6a75_7e72));
}

#[test]
fn ranks_2x2() {
    let got = threaded(2, 2, RegistrationConfig::default(), None);
    check("2x2 ranks", got, (0x5ea4_3578_7d07_f9cc, 9, 0x3fc1_ed2a_6a75_7e65));
}

#[test]
fn serial_incompressible() {
    let got = serial(RegistrationConfig::default().with_incompressible(true));
    check("serial incompressible", got, (0xafda_56f5_7402_1f11, 5, 0x3fe0_3181_95f6_5be0));
}

#[test]
fn two_rank_beta_continuation() {
    let got = threaded(1, 2, RegistrationConfig::default(), Some(&[1e-2, 1e-3]));
    check("2-rank beta continuation", got, (0xd959_fb4e_47ee_eef1, 8, 0x3f94_1cc6_a98c_79fd));
}
