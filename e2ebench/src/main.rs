//! End-to-end registration benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload syn64-p2 --seed 0 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` times full registrations through the public entry point
//! (`core::register` / `core::register_with_continuation`) and prints the
//! end-to-end metrics; `--trace 1` runs one traced solve and prints the
//! per-layer metrics. Every solve passes a correctness check or is counted as
//! failed. The last line of standard output is one JSON object. See README.md.

mod report;
mod run;
mod trace;
mod workload;

use diffreg_comm::{run_threaded, SerialComm};
use report::{layer_metrics, median, result_line, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::process::ExitCode;
use workload::{InputParams, Workload, WORKLOADS};

/// Environment knobs that change the measured program; a run refuses to start
/// while any is set, so every number describes the default program.
const PINNED_KNOBS: [&str; 6] = [
    "DIFFREG_SPECTRAL",
    "DIFFREG_INTERP",
    "DIFFREG_PRECISION",
    "DIFFREG_TRACE",
    "DIFFREG_COMM_EAGER_LIMIT_BYTES",
    "DIFFREG_COMM_CONTRACT",
];

#[derive(Debug, Clone, Copy)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0;
    let mut seconds: f64 = 30.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::find(value).ok_or_else(|| {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value:?}; one of {names:?}")
                })?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad("seconds"))?;
                if !seconds.is_finite() || seconds <= 0.0 {
                    return Err(bad("a positive number of seconds"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Reasons this host or environment would not measure the default program.
fn environment_problems(w: &Workload, is_set: impl Fn(&str) -> bool, nproc: usize) -> Vec<String> {
    let mut problems: Vec<String> = PINNED_KNOBS
        .iter()
        .filter(|k| is_set(k))
        .map(|k| format!("{k} is set; unset it to measure the default program"))
        .collect();
    if w.ranks > nproc {
        problems.push(format!(
            "{} needs {} ranks but this host has {nproc} cores",
            w.name, w.ranks
        ));
    }
    problems
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Host, toolchain and source revision, recorded with every result.
fn provenance() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    format!(
        "host: nproc={} cpu={cpu:?} rustc={rustc:?} commit={}",
        nproc(),
        commit()
    )
}

/// The checked-out commit, read from `.git` beside the benchmark's directory
/// (no `git` process, and nothing outside the checkout is read).
fn commit() -> String {
    let git = concat!(env!("CARGO_MANIFEST_DIR"), "/../.git");
    let read = |p: &str| std::fs::read_to_string(format!("{git}/{p}")).ok();
    let Some(head) = read("HEAD") else {
        return "unknown (not a git checkout)".into();
    };
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(r)
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split(' ').next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| format!("unknown ({r})"))
}

/// [`run::run_untraced`] on the workload's ranks; rank 0's record (its times
/// are already maxima over ranks).
fn untraced_on_ranks(w: &Workload, params: InputParams, seconds: f64) -> run::UntracedRun {
    if w.ranks == 1 {
        run::run_untraced(&SerialComm::new(), w, params, seconds)
    } else {
        run_threaded(w.ranks, |c| run::run_untraced(c, w, params, seconds)).swap_remove(0)
    }
}

/// [`trace::run_traced`] on the workload's ranks; one record per rank.
fn traced_on_ranks(w: &Workload, params: InputParams) -> Vec<trace::RankTrace> {
    if w.ranks == 1 {
        vec![trace::run_traced(&SerialComm::new(), w, params)]
    } else {
        run_threaded(w.ranks, |c| trace::run_traced(c, w, params))
    }
}

/// Untraced run: prints the sample counts, returns the result line.
fn untraced(args: &Args, params: InputParams) -> String {
    let w = args.workload;
    let run = untraced_on_ranks(&w, params, args.seconds);
    for (i, (s, e)) in run.solves.iter().zip(&run.solve).enumerate() {
        println!(
            "solve {i}: {:.3} s ({:.3} s wall, {:.3} s stolen), {} Newton iterations, {} matvecs, rel_mismatch {:.6}, det∇y [{:.4}, {:.4}]",
            e.secs(), e.wall_s, e.steal_s, s.newton_iters, s.matvecs, s.rel_mismatch, s.det_min, s.det_max
        );
    }
    for f in &run.failures {
        println!("FAILED: {f}");
    }
    println!(
        "samples: solve_s {} solves, setup_s {} set-ups",
        run.solve.len(),
        run.setup_s.len()
    );
    let mut rel: Vec<f64> = run.solves.iter().map(|s| s.rel_mismatch).collect();
    let values = BTreeMap::from([
        (
            "solve_s",
            median(&mut run.solve.iter().map(|e| e.secs()).collect::<Vec<_>>()),
        ),
        ("setup_s", median(&mut run.setup_s.clone())),
        ("peak_rss_mb", run.peak_rss_mb),
        ("rel_mismatch", median(&mut rel)),
    ]);
    let failed = run.failures.len();
    result_line(&END_TO_END, &values, failed == 0, run.solves.len(), failed)
}

/// Traced run: writes the spans, returns the result line.
fn traced(args: &Args, params: InputParams) -> String {
    let w = args.workload;
    let ranks = traced_on_ranks(&w, params);
    let r0 = &ranks[0];
    println!(
        "untraced {:.3} s, traced {:.3} s; {} Newton iterations, {} matvecs, rel_mismatch {:.6}",
        r0.untraced_solve_s,
        r0.traced_solve_s,
        r0.traced.newton_iters,
        r0.traced.matvecs,
        r0.traced.rel_mismatch
    );
    for f in [&r0.untraced_check, &r0.check, &r0.parity]
        .into_iter()
        .filter_map(|r| r.as_ref().err())
    {
        println!("FAILED: {f}");
    }
    match write_spans(&args.workload, args.seed, &ranks) {
        Ok(path) => println!("spans: {path}"),
        Err(e) => println!("FAILED: cannot write spans: {e}"),
    }
    let failed = usize::from(r0.untraced_check.is_err())
        + usize::from(r0.check.is_err() || r0.parity.is_err());
    result_line(
        &PER_LAYER,
        &layer_metrics(&w, &ranks),
        failed == 0,
        2,
        failed,
    )
}

/// Writes every rank's spans as JSON lines under the benchmark's `out/`.
fn write_spans(w: &Workload, seed: u64, ranks: &[trace::RankTrace]) -> std::io::Result<String> {
    use std::io::Write;
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    std::fs::create_dir_all(dir)?;
    let path = format!("{dir}/spans-{}-seed{seed}.jsonl", w.name);
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
    for (rank, r) in ranks.iter().enumerate() {
        for (i, s) in r.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                f,
                "{{\"rank\": {rank}, \"id\": {i}, \"parent\": {parent}, \"name\": \"{}\", \"start_s\": {}, \"end_s\": {}}}",
                s.name, s.start_s, s.end_s
            )?;
        }
    }
    f.flush()?;
    Ok(path)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!("usage: e2ebench --workload <name> [--seed N] [--seconds S] [--trace 0|1]");
            return ExitCode::from(2);
        }
    };
    let problems = environment_problems(&args.workload, |k| std::env::var_os(k).is_some(), nproc());
    if !problems.is_empty() {
        for p in problems {
            eprintln!("e2ebench: refusing to run: {p}");
        }
        return ExitCode::from(2);
    }
    let params = InputParams::draw(&args.workload, args.seed);
    println!("{}", provenance());
    println!(
        "workload: {} seed {} inputs {params:?}",
        args.workload.name, args.seed
    );
    let line = if args.trace {
        traced(&args, params)
    } else {
        untraced(&args, params)
    };
    println!("{line}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::Problem;

    /// A workload's code path at a reduced grid, where any converged,
    /// diffeomorphic solve passes.
    fn reduced(w: Workload) -> Workload {
        let grid = if w.problem == Problem::Brain {
            [12, 14, 12]
        } else {
            [16; 3]
        };
        Workload {
            grid,
            rel_mismatch_ceiling: 1.0,
            ..w
        }
    }

    fn is_count(unit: &str) -> bool {
        matches!(unit, "count" | "B" | "flop")
    }

    #[test]
    fn counts_repeat_exactly_and_traced_solve_matches_entry_point() {
        for w in WORKLOADS.map(reduced) {
            let params = InputParams::draw(&w, 7);
            let runs: Vec<_> = (0..2)
                .map(|_| {
                    let ranks = traced_on_ranks(&w, params);
                    for r in &ranks {
                        assert_eq!(r.untraced_check, Ok(()), "{}", w.name);
                        assert_eq!(r.check, Ok(()), "{}", w.name);
                        assert_eq!(r.parity, Ok(()), "{}", w.name);
                    }
                    layer_metrics(&w, &ranks)
                })
                .collect();
            for (name, _) in PER_LAYER.iter().filter(|(_, u)| is_count(u)) {
                assert_eq!(
                    runs[0][name], runs[1][name],
                    "{}: {name} differs between runs",
                    w.name
                );
            }
            assert!(runs[0]["optim.matvecs"] > 0.0 && runs[0]["pfft.fft3d"] > 0.0);
            assert_eq!(runs[0]["comm.bytes_sent"] > 0.0, w.ranks > 1, "{}", w.name);

            let untraced = untraced_on_ranks(&w, params, 1e-3);
            assert_eq!(untraced.failures, Vec::<String>::new(), "{}", w.name);
            assert_eq!(untraced.solves.len(), 1);
            assert!(untraced.setup_s.len() >= run::SETUP_SAMPLES);
            assert_eq!(
                untraced.solves[0].matvecs as f64, runs[0]["optim.matvecs"],
                "{}",
                w.name
            );
        }
    }

    #[test]
    fn every_metric_is_printed_with_its_unit() {
        let w = reduced(WORKLOADS[1]);
        let ranks = traced_on_ranks(&w, InputParams::draw(&w, 0));
        let values = layer_metrics(&w, &ranks);
        let e2e = BTreeMap::from(END_TO_END.map(|(n, _)| (n, 1.5)));
        for (table, values) in [(&PER_LAYER[..], &values), (&END_TO_END[..], &e2e)] {
            let line = result_line(table, values, true, 1, 0);
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0, "),
                "{line}"
            );
            for (name, unit) in table {
                let v = values[name];
                assert!(v.is_finite(), "{name} = {v}");
                let field = format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
                assert!(line.contains(&field), "{field} missing from {line}");
            }
        }
        // A metric without a value makes the run incorrect rather than vanish.
        let line = result_line(&END_TO_END, &BTreeMap::new(), true, 1, 0);
        assert!(line.starts_with("{\"correct\": false"), "{line}");
    }

    #[test]
    fn benchmark_json_declares_every_metric_and_known_workloads() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark directory");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed =
            &json[json.find("\"workloads\"").unwrap()..json.find("\"end_to_end\"").unwrap()];
        let names: Vec<&str> = listed
            .split("\"name\": \"")
            .skip(1)
            .map(|s| &s[..s.find('"').unwrap()])
            .collect();
        assert!(names.len() >= 2, "{names:?}");
        for name in names {
            assert!(
                Workload::find(name).is_some(),
                "BENCHMARK.json names unknown workload {name}"
            );
        }
    }

    #[test]
    fn pinned_knobs_and_oversubscription_refuse_to_run() {
        let w = WORKLOADS[0];
        assert!(environment_problems(&w, |_| false, 2).is_empty());
        for knob in PINNED_KNOBS {
            let problems = environment_problems(&w, |k| k == knob, 2);
            assert_eq!(problems.len(), 1);
            assert!(problems[0].starts_with(knob));
        }
        assert_eq!(
            environment_problems(&w, |_| false, 1).len(),
            1,
            "2 ranks on 1 core"
        );
    }

    #[test]
    fn seeds_give_the_same_inputs_and_seed_zero_the_defaults() {
        for w in WORKLOADS {
            assert_eq!(InputParams::draw(&w, 5), InputParams::draw(&w, 5));
            assert_ne!(InputParams::draw(&w, 5), InputParams::draw(&w, 6));
        }
        assert_eq!(
            InputParams::draw(&WORKLOADS[0], 0),
            InputParams::Synthetic {
                amplitude: 0.5,
                phase: [0.0; 3]
            }
        );
        assert_eq!(
            InputParams::draw(&WORKLOADS[1], 0),
            InputParams::Brain { shift: [0.0; 3] }
        );
    }

    #[test]
    fn arguments_parse_and_reject_bad_values() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let a = parse_args(&args(
            "--workload brain37-serial --seed 4 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.name, a.seed, a.seconds, a.trace),
            ("brain37-serial", 4, 10.0, true)
        );
        for bad in [
            "--workload nope",
            "--seed 4",
            "--workload syn64-p2 --trace 2",
            "--workload syn64-p2 --seconds 0",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }
}
