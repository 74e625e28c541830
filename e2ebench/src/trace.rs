//! The traced run: per-layer numbers for one solve, measured from outside the
//! crates. Spans are recorded in memory around every call the benchmark makes
//! into a layer; the work counters come from the `Timers` on the `Workspace`
//! and from `Comm::stats()`, which the program already keeps.
//!
//! `core` and `optim` are split through [`Traced`], an adapter that
//! implements `GaussNewtonProblem` by wrapping `core::RegProblem` and times
//! each trait call while `optim::gauss_newton_observed` drives it. The solve
//! it runs mirrors `core::register_from` step by step, so it must reproduce
//! the entry point's outcome bitwise; the run checks that.

use crate::workload::{
    solve, timed, with_setup, InputParams, Inputs, SetupTimes, SolveSummary, Workload,
};
use diffreg_comm::{Comm, CommStats};
use diffreg_core::{
    det_deformation_gradient, det_stats, displacement, RegProblem, RegistrationConfig,
    RegistrationOutcome,
};
use diffreg_grid::VectorField;
use diffreg_optim::{gauss_newton_observed, GaussNewtonProblem, NewtonReport};
use diffreg_transport::{SemiLagrangian, Workspace};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Calls timed per replayed operation; the metric is their median.
const REPLAYS: usize = 3;

/// One recorded span: a call from the benchmark into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Index of the enclosing span in the same rank's list.
    pub parent: Option<usize>,
    pub start_s: f64,
    pub end_s: f64,
}

/// In-memory span recorder of one rank.
pub struct Tracer {
    t0: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let parent = self.open.borrow().last().copied();
        let idx = {
            let mut spans = self.spans.borrow_mut();
            let start_s = self.t0.elapsed().as_secs_f64();
            spans.push(Span {
                name,
                parent,
                start_s,
                end_s: f64::NAN,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let r = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[idx].end_s = self.t0.elapsed().as_secs_f64();
        r
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner()
    }
}

/// Per span name: (total seconds, self seconds). A span's self time is its
/// duration minus the part its child spans cover.
pub fn fold(spans: &[Span]) -> BTreeMap<&'static str, (f64, f64)> {
    let mut child = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p] += s.end_s - s.start_s;
        }
    }
    let mut out: BTreeMap<&'static str, (f64, f64)> = BTreeMap::new();
    for (s, c) in spans.iter().zip(child) {
        let e = out.entry(s.name).or_default();
        e.0 += s.end_s - s.start_s;
        e.1 += s.end_s - s.start_s - c;
    }
    out
}

/// `GaussNewtonProblem` adapter that spans every call into the problem.
struct Traced<'t, P> {
    inner: P,
    tracer: &'t Tracer,
    objective_evals: usize,
}

impl<P: GaussNewtonProblem> GaussNewtonProblem for Traced<'_, P> {
    type Vec = P::Vec;
    type Ops = P::Ops;

    fn ops(&self) -> &P::Ops {
        self.inner.ops()
    }

    fn objective(&mut self, v: &P::Vec) -> f64 {
        self.objective_evals += 1;
        self.tracer
            .span("core.objective", || self.inner.objective(v))
    }

    fn linearize(&mut self, v: &P::Vec) -> (f64, P::Vec) {
        self.tracer
            .span("core.linearize", || self.inner.linearize(v))
    }

    fn hessian_vec(&mut self, d: &P::Vec) -> P::Vec {
        self.tracer
            .span("core.matvec", || self.inner.hessian_vec(d))
    }

    fn precondition(&mut self, r: &P::Vec) -> P::Vec {
        self.tracer
            .span("core.precond", || self.inner.precondition(r))
    }
}

/// The entry point's solve (`register_from` per β level, warm-started from
/// the previous level as `register_with_continuation` does), assembled from
/// the public layer calls with a span around each.
fn traced_solve<C: Comm>(
    ws: &Workspace<C>,
    w: &Workload,
    inputs: &Inputs,
    tracer: &Tracer,
) -> (RegistrationOutcome, Vec<NewtonReport>, usize) {
    let mut v = VectorField::zeros(ws.block());
    let mut reports = Vec::new();
    let mut objective_evals = 0;
    let mut outcome = None;
    for &beta in w.betas {
        let cfg = RegistrationConfig { beta, ..w.config() };
        let ws = &Workspace {
            kernel: cfg.kernel,
            ..*ws
        };
        let (prob, initial_mismatch, v0) = tracer.span("core.problem_new", || {
            let prob = RegProblem::new(ws, &inputs.template, &inputs.reference, cfg);
            let initial = prob.initial_data_term();
            let v0 = prob.project(&v);
            (prob, initial, v0)
        });
        let mut traced = Traced {
            inner: prob,
            tracer,
            objective_evals: 0,
        };
        let (velocity, report) = tracer.span("optim.newton", || {
            gauss_newton_observed(&mut traced, v0, &cfg.newton, None, |_, _| {})
        });
        objective_evals += traced.objective_evals;
        let mut prob = traced.inner;
        let out = tracer.span("core.post", || {
            let _ = prob.linearize(&velocity);
            let deformed_template = prob
                .deformed_template()
                .expect("linearize caches ρ(1)")
                .clone();
            let mut resid = deformed_template.clone();
            resid.axpy(-1.0, prob.reference());
            let final_mismatch = 0.5 * resid.inner(&resid, &ws.grid(), ws.comm);
            let displacement = displacement(ws, &velocity, cfg.nt);
            let det_grad = det_stats(ws, &det_deformation_gradient(ws, &displacement));
            RegistrationOutcome {
                hessian_matvecs: prob.hessian_matvecs,
                report: report.clone(),
                velocity,
                initial_mismatch,
                final_mismatch,
                deformed_template,
                displacement,
                det_grad,
            }
        });
        v = out.velocity.clone();
        reports.push(report);
        outcome = Some(out);
    }
    (
        outcome.expect("every workload has a β level"),
        reports,
        objective_evals,
    )
}

/// Median seconds of [`REPLAYS`] calls of `f`, each barrier to barrier, max
/// over ranks.
fn per_call<C: Comm, R>(comm: &C, mut f: impl FnMut() -> R) -> f64 {
    let mut t: Vec<f64> = (0..REPLAYS)
        .map(|_| timed(comm, || black_box(f())).0.secs())
        .collect();
    crate::report::median(&mut t)
}

/// One rank's raw numbers from the traced run.
#[derive(Debug, Clone)]
pub struct RankTrace {
    pub spans: Vec<Span>,
    pub setup: SetupTimes,
    pub traced: SolveSummary,
    /// Barrier-to-barrier steal-corrected seconds, max over ranks.
    pub untraced_solve_s: f64,
    pub traced_solve_s: f64,
    /// This rank's traffic during the traced solve.
    pub comm: CommStats,
    /// This rank's `Timers` phases and counters after the traced solve.
    pub phases: BTreeMap<&'static str, f64>,
    pub counters: BTreeMap<&'static str, u64>,
    pub objective_evals: usize,
    /// Replayed per-call seconds at the converged velocity, max over ranks.
    pub replay: BTreeMap<&'static str, f64>,
    pub untraced_check: Result<(), String>,
    pub check: Result<(), String>,
    pub parity: Result<(), String>,
}

/// One untraced entry-point solve, then the traced solve of the same inputs,
/// then per-call replays at the converged velocity. Collective over `comm`.
pub fn run_traced<C: Comm>(comm: &C, w: &Workload, params: InputParams) -> RankTrace {
    let (setup, mut rt) = with_setup(comm, w, params, |ws, inputs| {
        let (untraced_solve, (out, reports)) = timed(comm, || solve(ws, w, inputs));
        let untraced = SolveSummary::new(comm, &out, &reports);
        let untraced_check = untraced.check(comm, w);
        drop(out);

        let tracer = Tracer::new();
        ws.timers.reset();
        comm.barrier();
        comm.reset_stats();
        let (traced_solve, (out, reports, objective_evals)) = timed(comm, || {
            tracer.span("solve", || traced_solve(ws, w, inputs, &tracer))
        });
        let stats = comm.stats();
        let phases = ws.timers.snapshot();
        let counters = ws.timers.counters();
        let traced = SolveSummary::new(comm, &out, &reports);
        let check = traced.check(comm, w);
        let parity = if (
            traced.velocity_digest,
            traced.matvecs,
            traced.rel_mismatch.to_bits(),
        ) == (
            untraced.velocity_digest,
            untraced.matvecs,
            untraced.rel_mismatch.to_bits(),
        ) {
            Ok(())
        } else {
            Err(format!(
                "traced solve differs from the entry point: {traced:?} vs {untraced:?}"
            ))
        };

        let nt = w.config().nt;
        let v = &out.velocity;
        let sl = SemiLagrangian::new(ws, v, nt);
        let mut lambda1 = inputs.reference.clone();
        lambda1.axpy(-1.0, &out.deformed_template);
        let replay = BTreeMap::from([
            (
                "transport.setup_call_s",
                per_call(comm, || SemiLagrangian::new(ws, v, nt)),
            ),
            (
                "transport.state_call_s",
                per_call(comm, || sl.solve_state(ws, &inputs.template)),
            ),
            (
                "transport.adjoint_call_s",
                per_call(comm, || sl.solve_adjoint(ws, &lambda1)),
            ),
            (
                "pfft.gradient_call_s",
                per_call(comm, || ws.fft.gradient(&inputs.template, ws.timers)),
            ),
        ]);
        RankTrace {
            spans: tracer.into_spans(),
            setup: SetupTimes::default(),
            traced,
            untraced_solve_s: untraced_solve.secs(),
            traced_solve_s: traced_solve.secs(),
            comm: stats,
            phases,
            counters,
            objective_evals,
            replay,
            untraced_check,
            check,
            parity,
        }
    });
    rt.setup = setup;
    rt
}
