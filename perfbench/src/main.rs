//! The IRIS benchmark: one command, four workloads, every output checked.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload campaign|guided|replay|fleet --seed N --seconds S --trace 0|1
//! ```
//!
//! A run sets the workload up several times (recording, plan and engine
//! build, fleet start, warm-up repetitions) and reports the median as
//! `setup_s`, then repeats the workload for `--seconds` seconds. With
//! `--trace 0` it prints the end-to-end metrics; with `--trace 1` it
//! runs half the time untraced and half through the instrumented seams
//! and prints the per-layer metrics, the share of time the layers
//! account for, and the tracing overhead. The last line of standard
//! output is the JSON result; the lines before it are the same numbers
//! for people, plus the host facts. See NOTES.md.

#![forbid(unsafe_code)]
// The repository's clippy.toml bans the wall clock from program code
// (it would break report determinism); measuring wall time is this
// benchmark's job, and no clock reading reaches a report.
#![allow(clippy::disallowed_methods)]

mod layers;
mod relay;
mod spans;
mod timed;
mod workloads;

use layers::TracedRep;
use spans::{median, Sink, Span};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;
use workloads::{Bench, Rep, SetupInfo};

/// Set-up rounds per run; `setup_s` is their median.
const SETUP_ROUNDS: usize = 3;
/// Untimed repetitions at the end of each set-up round: the first
/// passes over fresh state run slower than later ones.
const WARMUP_REPS: usize = 2;
/// Timed repetitions per phase even when one outlasts the phase.
const MIN_REPS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?
            .parse()
            .map_err(|_| format!("{flag} takes a whole number"))
    };
    let workload = value("--workload")?.to_owned();
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' ({})",
            workloads::NAMES.join(" | ")
        ));
    }
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_owned());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
    };
    Ok(Args {
        workload,
        seed: number("--seed")?,
        seconds,
        trace,
    })
}

/// Output checks and operation counts.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    first_report: Option<String>,
}

impl Checks {
    /// Count one operation; a repetition must succeed and produce the
    /// same report bytes as every other repetition of the run, traced or
    /// not.
    fn record(&mut self, outcome: Result<Rep, String>) -> Option<Rep> {
        self.attempted += 1;
        let rep = match outcome {
            Ok(rep) => rep,
            Err(e) => {
                self.fail(e);
                return None;
            }
        };
        match &self.first_report {
            None => self.first_report = Some(rep.report.clone()),
            Some(first) if *first != rep.report => {
                self.fail("a repetition's report bytes differ from the first repetition's".into());
                return None;
            }
            Some(_) => {}
        }
        Some(rep)
    }

    fn fail(&mut self, e: String) {
        self.failed += 1;
        eprintln!("perfbench: check failed: {e}");
    }
}

/// Run one repetition, turning a panic into a failed operation.
fn attempt(bench: &mut dyn Bench, sink: Option<&Arc<Sink>>) -> Result<Rep, String> {
    catch_unwind(AssertUnwindSafe(|| bench.rep(sink)))
        .unwrap_or_else(|_| Err("the repetition panicked".to_owned()))
}

fn rep_rate(rep: &Rep) -> f64 {
    rep.execs as f64 / rep.wall.as_secs_f64()
}

/// Repeat the workload for `seconds` (at least [`MIN_REPS`] times).
fn timed_phase(
    bench: &mut dyn Bench,
    sink: Option<&Arc<Sink>>,
    seconds: f64,
    checks: &mut Checks,
    traced: &mut Vec<TracedRep>,
) -> Vec<Rep> {
    let phase = Instant::now();
    let mut done = Vec::new();
    let mut run = 0u64;
    while phase.elapsed().as_secs_f64() < seconds || (run as usize) < MIN_REPS {
        run += 1;
        if let Some(sink) = sink {
            sink.set_run(run);
        }
        if let Some(rep) = checks.record(attempt(bench, sink)) {
            if let Some(sink) = sink {
                let start_ns = sink.ns_of(rep.started);
                traced.push(TracedRep {
                    run,
                    start_ns,
                    end_ns: start_ns + u64::try_from(rep.wall.as_nanos()).unwrap_or(u64::MAX),
                    execs: rep.execs,
                    samples: rep.samples.clone(),
                });
            }
            done.push(rep);
        }
    }
    done
}

fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

fn json_str(s: &str) -> String {
    serde_json::to_string(s).unwrap_or_else(|_| "\"?\"".to_owned())
}

/// The host facts every result record carries.
fn host_facts(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_owned());
    // Only ask git inside a checkout's own repository, never a parent's.
    let commit = if std::path::Path::new(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"])
    } else {
        None
    }
    .unwrap_or_else(|| "none (not a git checkout)".to_owned());
    format!(
        r#"{{"workload":{},"seed":{},"seconds":{},"tracing":{},"nproc":{nproc},"cpu_model":{},"rustc":{},"git_commit":{}}}"#,
        json_str(&args.workload),
        args.seed,
        args.seconds,
        args.trace,
        json_str(&cpu),
        json_str(&rustc),
        json_str(&commit),
    )
}

/// Where the traced run's spans are written: the build directory.
fn spans_path(args: &Args) -> std::path::PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| std::path::PathBuf::from("perfbench/target"), Into::into);
    dir.join("perfbench-spans")
        .join(format!("{}-seed{}.jsonl", args.workload, args.seed))
}

fn number(v: f64) -> String {
    if v.is_finite() {
        // `+ 0.0` turns an empty sum's -0 into 0.
        format!("{}", v + 0.0)
    } else {
        "0".to_owned()
    }
}

/// Everything one run measured.
#[derive(Default)]
struct Run {
    checks: Checks,
    jobs: usize,
    setups: Vec<SetupInfo>,
    setup_s: Vec<f64>,
    /// Peak memory of one fresh session (set-up plus warm-up), read
    /// before later rounds inherit the allocator's retained memory.
    peak_rss: f64,
    untraced: Vec<Rep>,
    traced: Vec<Rep>,
    traced_reps: Vec<TracedRep>,
    spans: Vec<Span>,
    /// Layer samples taken after the run (fleet codec timings).
    after: Vec<(&'static str, f64)>,
}

fn measure(args: &Args, host: &str) -> Run {
    let mut run = Run {
        jobs: 1,
        ..Run::default()
    };
    let checks = &mut run.checks;
    let mut bench: Option<Box<dyn Bench>> = None;
    for round in 0..SETUP_ROUNDS {
        if let Some(previous) = bench.take() {
            if let Err(e) = previous.finish() {
                checks.fail(e);
            }
        }
        let t = Instant::now();
        let built = catch_unwind(|| workloads::setup(&args.workload, args.seed))
            .unwrap_or_else(|_| Err("set-up panicked".to_owned()));
        let (mut b, info) = match built {
            Ok(built) => built,
            Err(e) => {
                checks.attempted += 1;
                checks.fail(e);
                break;
            }
        };
        for _ in 0..WARMUP_REPS {
            checks.record(attempt(b.as_mut(), None));
        }
        run.setup_s.push(t.elapsed().as_secs_f64());
        if round == 0 {
            run.peak_rss = peak_rss_mib();
        }
        run.setups.push(info);
        bench = Some(b);
    }
    let Some(mut b) = bench else {
        return run;
    };
    run.jobs = b.jobs();
    let seconds = args.seconds as f64;
    let untraced_s = if args.trace { seconds / 2.0 } else { seconds };
    run.untraced = timed_phase(b.as_mut(), None, untraced_s, checks, &mut Vec::new());
    let sink = Arc::new(Sink::new());
    if args.trace {
        match b.start_tracing(&sink) {
            Ok(()) => {
                sink.drain();
                run.traced = timed_phase(
                    b.as_mut(),
                    Some(&sink),
                    seconds / 2.0,
                    checks,
                    &mut run.traced_reps,
                );
            }
            Err(e) => {
                checks.attempted += 1;
                checks.fail(e);
            }
        }
    }
    match b.finish() {
        Ok(samples) => run.after = samples,
        Err(e) => checks.fail(e),
    }
    run.spans = sink.drain();
    // The wrapper must keep the forest on: a guided run through it that
    // pins nothing has silently fallen back to prefix replay.
    if args.trace && args.workload == "guided" && !run.spans.iter().any(|s| s.name == "target.pin")
    {
        checks.attempted += 1;
        checks.fail("the traced guided run pinned no forest state".to_owned());
    }
    if let Some(last) = run.traced_reps.last() {
        let kept: Vec<Span> = run
            .spans
            .iter()
            .filter(|s| s.run == last.run)
            .copied()
            .collect();
        let window = (last.run, last.start_ns, last.end_ns);
        if let Err(e) = spans::write_jsonl(&spans_path(args), host, window, &kept) {
            eprintln!("perfbench: spans not written: {e}");
        }
    }
    run
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let host = host_facts(&args);
    println!("host {host}");
    let run = measure(&args, &host);
    if !report(&args, &run) {
        std::process::exit(1);
    }
}

/// Print the metrics and the result line; `false` when a check failed.
fn report(args: &Args, run: &Run) -> bool {
    let checks = &run.checks;
    let rate = |reps: &[Rep]| median(&reps.iter().map(rep_rate).collect::<Vec<_>>());
    let last = run.untraced.last();
    let execs_per_s = rate(&run.untraced);
    let correct =
        checks.failed == 0 && !run.untraced.is_empty() && (!args.trace || !run.traced.is_empty());

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if args.trace {
        let overhead_pct = if execs_per_s > 0.0 {
            (execs_per_s - rate(&run.traced)) / execs_per_s * 100.0
        } else {
            0.0
        };
        let layer = layers::per_layer(
            &args.workload,
            run.jobs,
            &run.traced_reps,
            &run.spans,
            &run.setups,
            &run.after,
            overhead_pct,
        );
        for (name, unit) in layers::METRICS {
            metrics.push((name, layer.get(name).copied().unwrap_or(0.0), unit));
        }
    } else {
        metrics.push(("execs_per_s", execs_per_s, "1/s"));
        metrics.push(("setup_s", median(&run.setup_s), "s"));
        metrics.push(("peak_rss_mib", run.peak_rss, "MiB"));
        metrics.push((
            "coverage_lines",
            last.map_or(0.0, |r| r.coverage_lines as f64),
            "count",
        ));
    }

    // The workload's own figures under their workload-specific names,
    // for people only.
    let throughput = if args.workload == "replay" {
        "replay_exits_per_s"
    } else {
        "mutants_per_s"
    };
    let rates: Vec<f64> = run.untraced.iter().map(rep_rate).collect();
    let mut extra = vec![
        (throughput, execs_per_s, "1/s"),
        ("repetitions", rates.len() as f64, "count"),
        ("execs_per_s.p25", spans::quantile(&rates, 0.25), "1/s"),
        ("execs_per_s.p75", spans::quantile(&rates, 0.75), "1/s"),
    ];
    match (args.workload.as_str(), last) {
        ("replay", Some(r)) => {
            extra.push(("coverage_fit_pct", r.fit_pct, "%"));
            extra.push(("sim_replay_speedup", r.sim_speedup, "x"));
        }
        (_, Some(r)) => extra.push(("unique_crashes", r.unique_crashes as f64, "count")),
        _ => {}
    }
    extra.push((
        "failed_share",
        checks.failed as f64 / checks.attempted.max(1) as f64,
        "ratio",
    ));
    for (name, value, unit) in metrics.iter().chain(&extra) {
        println!("{name:<34} {:>22} {unit}", number(*value));
    }

    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(r#""{name}":{{"value":{},"unit":"{unit}"}}"#, number(*value))
        })
        .collect();
    println!(
        r#"{{"correct":{correct},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
        checks.attempted.max(1),
        checks.failed,
        body.join(",")
    );
    correct
}
