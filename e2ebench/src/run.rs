//! Untraced runs: full registrations through the public entry point with the
//! program's default settings, timed end to end.

use crate::workload::{solve, timed, with_setup, Elapsed, InputParams, SolveSummary, Workload};
use diffreg_comm::Comm;
use std::time::Instant;

/// Set-ups timed per run, at least, so `setup_s` is a median even when one
/// solve fills the run.
pub const SETUP_SAMPLES: usize = 5;

/// Cheap set-ups repeat until they have taken this long, for a steadier median.
const SETUP_BUDGET_S: f64 = 1.0;

#[derive(Debug)]
pub struct UntracedRun {
    /// Steal-corrected seconds per set-up, max over ranks.
    pub setup_s: Vec<f64>,
    /// Each solve, barrier to barrier.
    pub solve: Vec<Elapsed>,
    pub solves: Vec<SolveSummary>,
    /// One message per solve that failed its correctness check.
    pub failures: Vec<String>,
    /// Peak resident set after set-ups and the first solve: what one
    /// registration needs, before later solves fragment the heap.
    pub peak_rss_mb: f64,
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?.to_string();
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Sets up and solves until the next solve would end after `seconds`; always
/// solves at least once. Collective over `comm`.
pub fn run_untraced<C: Comm>(
    comm: &C,
    w: &Workload,
    params: InputParams,
    seconds: f64,
) -> UntracedRun {
    let start = Instant::now();
    let mut run = UntracedRun {
        setup_s: Vec::new(),
        solve: Vec::new(),
        solves: Vec::new(),
        failures: Vec::new(),
        peak_rss_mb: f64::NAN,
    };
    while run.setup_s.len() + 1 < SETUP_SAMPLES || run.setup_s.iter().sum::<f64>() < SETUP_BUDGET_S
    {
        let (t, ()) = with_setup(comm, w, params, |_, _| ());
        run.setup_s.push(t.total.secs());
    }
    loop {
        let (t, (solved, summary)) = with_setup(comm, w, params, |ws, inputs| {
            let (e, (out, reports)) = timed(comm, || solve(ws, w, inputs));
            (e, SolveSummary::new(comm, &out, &reports))
        });
        if run.solve.is_empty() {
            run.peak_rss_mb = peak_rss_mb();
        }
        run.setup_s.push(t.total.secs());
        if let Err(e) = summary.check(comm, w) {
            run.failures.push(e);
        }
        run.solve.push(solved);
        run.solves.push(summary);
        let elapsed = comm.max_f64(start.elapsed().as_secs_f64());
        if elapsed + solved.wall_s > seconds {
            return run;
        }
    }
}
