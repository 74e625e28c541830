//! The benchmark's workloads: problem definitions, seeded input generation,
//! and the correctness check every solve must pass.

use diffreg_comm::{Comm, Timers};
use diffreg_core::{register, register_with_continuation, RegistrationConfig, RegistrationOutcome};
use diffreg_grid::{Decomp, Grid, ScalarField, VectorField};
use diffreg_imgsim::{
    template_fn, velocity_divfree_fn, velocity_fn, BrainSubject, SUBJECT_A_SEED, SUBJECT_B_SEED,
};
use diffreg_optim::{NewtonReport, NewtonStatus};
use diffreg_pfft::PencilFft;
use diffreg_testkit::Rng;
use diffreg_transport::{SemiLagrangian, Workspace};
use std::time::Instant;

/// Which input problem a workload registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Problem {
    /// The paper's synthetic problem (Fig. 5): sin² template transported by v*.
    Synthetic,
    /// The same problem with a divergence-free v*, solved incompressibly.
    Incompressible,
    /// Two brain phantoms of different subjects (the NIREP substitute).
    Brain,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub grid: [usize; 3],
    /// Simulated MPI ranks (threads of `run_threaded`; 1 runs `SerialComm`).
    pub ranks: usize,
    pub problem: Problem,
    /// β schedule; more than one level solves through
    /// `register_with_continuation`, one level through `register`.
    pub betas: &'static [f64],
    /// Highest final ‖ρ(1)−ρ_R‖/‖ρ_T−ρ_R‖ a solve may reach and still pass.
    pub rel_mismatch_ceiling: f64,
}

/// The three workloads, chosen to stress different layers (see README.md).
/// The rel_mismatch ceilings are about 5% above the worst seed seen at the
/// commit that defined the benchmark (README.md lists the values).
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "syn64-p2",
        grid: [64, 64, 64],
        ranks: 2,
        problem: Problem::Synthetic,
        betas: &[1e-3],
        rel_mismatch_ceiling: 0.065,
    },
    Workload {
        name: "brain37-serial",
        grid: [32, 37, 32],
        ranks: 1,
        problem: Problem::Brain,
        betas: &[1e-2],
        rel_mismatch_ceiling: 0.47,
    },
    Workload {
        name: "iso48-p2-cont",
        grid: [48, 48, 48],
        ranks: 2,
        problem: Problem::Incompressible,
        betas: &[1e-2, 1e-3],
        rel_mismatch_ceiling: 0.127,
    },
];

/// |det∇y − 1| allowed on an incompressible solve.
pub const DET_TOLERANCE: f64 = 1e-2;

impl Workload {
    pub fn find(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    pub fn config(&self) -> RegistrationConfig {
        RegistrationConfig {
            beta: self.betas[0],
            incompressible: self.problem == Problem::Incompressible,
            ..RegistrationConfig::default()
        }
    }
}

/// The seeded part of a workload's inputs. Seed 0 gives the repository's
/// default inputs (v* amplitude 0.5, no phase shift; brain subjects 1 and 2
/// unshifted, as `imgsim::two_subject_pair` samples them).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InputParams {
    /// v*(x) = amplitude·v(x + phase); the template is shifted by the same
    /// phase, so every seed poses the same problem, translated and slightly
    /// rescaled.
    Synthetic { amplitude: f64, phase: [f64; 3] },
    /// Both subjects (`BrainSubject` seeds 1 and 2) sampled at x + shift,
    /// a sub-voxel placement of the pair in the field of view. Drawing other
    /// subjects would change the problem itself: over seeds 1–5 the matvec
    /// count ranged 95–170 (see README.md).
    Brain { shift: [f64; 3] },
}

impl InputParams {
    pub fn draw(w: &Workload, seed: u64) -> Self {
        let (problem, grid) = (w.problem, w.grid);
        let mut rng = Rng::new(seed);
        match problem {
            Problem::Brain if seed == 0 => InputParams::Brain { shift: [0.0; 3] },
            Problem::Brain => {
                let h = Grid::new(grid).spacing();
                let shift = [0, 1, 2].map(|a| h[a] * (rng.next_f64() - 0.5));
                InputParams::Brain { shift }
            }
            _ if seed == 0 => InputParams::Synthetic {
                amplitude: 0.5,
                phase: [0.0; 3],
            },
            _ => {
                let amplitude = 0.5 * (1.0 + 0.04 * (rng.next_f64() - 0.5));
                let tau = 2.0 * std::f64::consts::PI;
                let phase = [
                    tau * rng.next_f64(),
                    tau * rng.next_f64(),
                    tau * rng.next_f64(),
                ];
                InputParams::Synthetic { amplitude, phase }
            }
        }
    }
}

pub struct Inputs {
    pub template: ScalarField,
    pub reference: ScalarField,
}

/// Generates the images on this rank's block. The solver receives only these.
pub fn make_inputs<C: Comm>(ws: &Workspace<C>, w: &Workload, params: InputParams) -> Inputs {
    let grid = ws.grid();
    match params {
        InputParams::Brain { shift } => {
            let image = |subject: u64| {
                let s = BrainSubject::new(subject);
                ScalarField::from_fn(&grid, ws.block(), |x| {
                    s.intensity([x[0] + shift[0], x[1] + shift[1], x[2] + shift[2]])
                })
            };
            Inputs {
                reference: image(SUBJECT_A_SEED),
                template: image(SUBJECT_B_SEED),
            }
        }
        InputParams::Synthetic { amplitude, phase } => {
            let shift = |x: [f64; 3]| [x[0] + phase[0], x[1] + phase[1], x[2] + phase[2]];
            let template = ScalarField::from_fn(&grid, ws.block(), |x| template_fn(shift(x)));
            let v_star = VectorField::from_fn(&grid, ws.block(), |x| match w.problem {
                Problem::Incompressible => velocity_divfree_fn(shift(x), amplitude),
                _ => velocity_fn(shift(x), amplitude),
            });
            let sl = SemiLagrangian::new(ws, &v_star, w.config().nt);
            let reference = sl
                .solve_state(ws, &template)
                .pop()
                .expect("state history is never empty");
            Inputs {
                template,
                reference,
            }
        }
    }
}

/// Hypervisor steal time of each CPU of this machine, in seconds, from
/// `/proc/stat` (its eighth counter, in USER_HZ = 100 ticks). Empty where the
/// file is unavailable.
fn steal_per_cpu() -> Vec<f64> {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return Vec::new();
    };
    stat.lines()
        .filter(|l| l.starts_with("cpu") && l.as_bytes().get(3).is_some_and(u8::is_ascii_digit))
        .filter_map(|l| l.split_whitespace().nth(8)?.parse::<f64>().ok())
        .map(|ticks| ticks / 100.0)
        .collect()
}

/// A timed interval: wall time, and the part of it the hypervisor gave this
/// machine's CPUs to other guests.
#[derive(Debug, Clone, Copy, Default)]
pub struct Elapsed {
    pub wall_s: f64,
    pub steal_s: f64,
}

impl Elapsed {
    /// Wall time less steal: what the interval takes on a host whose other
    /// guests leave this one's CPUs alone. On a shared host, minutes-long
    /// steal episodes otherwise slow whole runs (up to 1.8× seen).
    pub fn secs(&self) -> f64 {
        self.wall_s - self.steal_s
    }
}

/// Measures [`Elapsed`] on one rank.
struct Stopwatch {
    t0: Instant,
    steal0: Vec<f64>,
}

impl Stopwatch {
    fn start() -> Self {
        Stopwatch {
            steal0: steal_per_cpu(),
            t0: Instant::now(),
        }
    }

    /// Ends the interval. Busy CPUs accrue steal and idle ones do not, so the
    /// time lost is at least the most any one CPU lost, and at least the
    /// total spread over the `ranks` busy CPUs; the larger bound is taken.
    fn stop(&self, ranks: usize) -> Elapsed {
        let wall_s = self.t0.elapsed().as_secs_f64();
        let lost: Vec<f64> = steal_per_cpu()
            .iter()
            .zip(&self.steal0)
            .map(|(b, a)| b - a)
            .collect();
        let most = lost.iter().copied().fold(0.0, f64::max);
        let spread = lost.iter().sum::<f64>() / ranks as f64;
        Elapsed {
            wall_s,
            steal_s: most.max(spread).min(wall_s),
        }
    }
}

/// [`Elapsed`] from a barrier before `f` to a barrier after it; the
/// steal-corrected time is the maximum over ranks.
pub fn timed<C: Comm, R>(comm: &C, f: impl FnOnce() -> R) -> (Elapsed, R) {
    comm.barrier();
    let watch = Stopwatch::start();
    let r = f();
    comm.barrier();
    (max_over_ranks(comm, watch.stop(comm.size())), r)
}

fn max_over_ranks<C: Comm>(comm: &C, e: Elapsed) -> Elapsed {
    let mut buf = [e.secs(), e.steal_s];
    comm.allreduce(&mut buf, diffreg_comm::ReduceOp::Max);
    Elapsed {
        wall_s: buf[0] + buf[1],
        steal_s: buf[1],
    }
}

/// Builds the `Decomp`, `PencilFft` plan, `Workspace` and input images (the
/// set-up the `setup_s` metric times), then hands them to `f`. Returns the
/// set-up seconds, the plan and image parts of it, and `f`'s result.
pub fn with_setup<C: Comm, R>(
    comm: &C,
    w: &Workload,
    params: InputParams,
    f: impl FnOnce(&Workspace<C>, &Inputs) -> R,
) -> (SetupTimes, R) {
    comm.barrier();
    let watch = Stopwatch::start();
    let decomp = Decomp::new(Grid::new(w.grid), comm.size());
    let t_plan = Instant::now();
    let fft = PencilFft::new(comm, decomp);
    let plan_s = t_plan.elapsed().as_secs_f64();
    let timers = Timers::new();
    let ws = Workspace::new(comm, &decomp, &fft, &timers);
    let t_images = Instant::now();
    let inputs = make_inputs(&ws, w, params);
    let images_s = t_images.elapsed().as_secs_f64();
    comm.barrier();
    let total = max_over_ranks(comm, watch.stop(comm.size()));
    let mut buf = [plan_s, images_s];
    comm.allreduce(&mut buf, diffreg_comm::ReduceOp::Max);
    let times = SetupTimes {
        total,
        plan_s: buf[0],
        images_s: buf[1],
    };
    (times, f(&ws, &inputs))
}

#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub total: Elapsed,
    /// `PencilFft::new` seconds, max over ranks.
    pub plan_s: f64,
    /// Input-image seconds, max over ranks.
    pub images_s: f64,
}

/// Solves through the public entry point with the program's defaults:
/// `register` for one β level, `register_with_continuation` for several.
pub fn solve<C: Comm>(
    ws: &Workspace<C>,
    w: &Workload,
    inputs: &Inputs,
) -> (RegistrationOutcome, Vec<NewtonReport>) {
    let cfg = w.config();
    if w.betas.len() > 1 {
        register_with_continuation(ws, &inputs.template, &inputs.reference, cfg, w.betas)
    } else {
        let out = register(ws, &inputs.template, &inputs.reference, cfg);
        let reports = vec![out.report.clone()];
        (out, reports)
    }
}

/// What the correctness check and the metrics need from one solve.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveSummary {
    /// Status of every β level.
    pub statuses: Vec<NewtonStatus>,
    /// Newton iterations summed over every level's report.
    pub newton_iters: usize,
    /// Hessian matvecs summed over every level's report
    /// (`RegistrationOutcome::hessian_matvecs` counts the last level only).
    pub matvecs: usize,
    /// Final objective J of the last level.
    pub objective: f64,
    pub rel_mismatch: f64,
    pub det_min: f64,
    pub det_max: f64,
    pub diffeomorphic: bool,
    /// FNV-1a digest of the velocity's bits, over all ranks in rank order.
    pub velocity_digest: u64,
}

impl SolveSummary {
    /// Collective over `comm`.
    pub fn new<C: Comm>(comm: &C, out: &RegistrationOutcome, reports: &[NewtonReport]) -> Self {
        let mut h = Fnv::new();
        for c in &out.velocity.comps {
            for x in c.data() {
                h.write(x.to_bits());
            }
        }
        let mut global = Fnv::new();
        for d in comm.allgather(vec![h.0]) {
            global.write(d[0]);
        }
        SolveSummary {
            statuses: reports.iter().map(|r| r.status).collect(),
            newton_iters: reports.iter().map(|r| r.outer_iterations()).sum(),
            matvecs: reports.iter().map(|r| r.total_matvecs).sum(),
            objective: out.report.objective,
            rel_mismatch: out.relative_mismatch(),
            det_min: out.det_grad.min,
            det_max: out.det_grad.max,
            diffeomorphic: out.det_grad.diffeomorphic,
            velocity_digest: global.0,
        }
    }

    /// The correctness check. Collective over `comm`; every rank returns the
    /// same verdict.
    pub fn check<C: Comm>(&self, comm: &C, w: &Workload) -> Result<(), String> {
        let mine = vec![self.objective.to_bits(), self.matvecs as u64];
        let all = comm.allgather(mine.clone());
        if all.iter().any(|r| *r != mine) {
            return Err(format!("ranks disagree on (J bits, matvecs): {all:?}"));
        }
        if let Some(s) = self
            .statuses
            .iter()
            .find(|s| **s != NewtonStatus::Converged)
        {
            return Err(format!("solve ended {s:?}, not Converged"));
        }
        if !self.diffeomorphic {
            return Err(format!("map not diffeomorphic: det∇y min {}", self.det_min));
        }
        if w.problem == Problem::Incompressible {
            let dev = (self.det_min - 1.0).abs().max((self.det_max - 1.0).abs());
            if dev > DET_TOLERANCE {
                return Err(format!(
                    "det∇y ∈ [{}, {}] deviates {dev:.3e} from 1 (limit {DET_TOLERANCE:e})",
                    self.det_min, self.det_max
                ));
            }
        }
        if self.rel_mismatch.is_nan() || self.rel_mismatch > w.rel_mismatch_ceiling {
            return Err(format!(
                "rel_mismatch {} above the workload's ceiling {}",
                self.rel_mismatch, w.rel_mismatch_ceiling
            ));
        }
        Ok(())
    }
}

/// 64-bit FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}
