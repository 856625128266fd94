//! The four workloads, each driven through the crates' public APIs in
//! the shape of the CLI run it stands for (see NOTES.md for why each is
//! here):
//!
//! * `campaign` — `iris campaign os_boot --jobs 2`: boot-to-`s1` and
//!   crash recovery;
//! * `guided` — `iris guided os_boot --mode shared --forest --jobs 2
//!   --budget 8000`: forest positioning and generation barriers;
//! * `replay` — `iris replay <guest>` for all five guests, unmutated,
//!   again and again: per-exit dispatch;
//! * `fleet` — `iris submit campaign os_boot --chunk 16` to an
//!   in-process coordinator with one worker: the `iris_dist` wire.
//!
//! Every input is derived from the workload seed: it is the trace
//! generator's seed and the mutation/scheduling seed, as `--seed` is for
//! the CLI.

use crate::relay::Relay;
use crate::spans::{Sink, Span};
use crate::timed::TimedFactory;
use iris_core::forest::ForestConfig;
use iris_core::manager::{IrisManager, Mode};
use iris_core::metrics;
use iris_core::record::RecordConfig;
use iris_core::replay::ReplayEngine;
use iris_core::seed::VmSeed;
use iris_core::trace::RecordedTrace;
use iris_dist::coordinator::{ServeOptions, Server};
use iris_dist::job::{JobKind, JobSpec};
use iris_dist::worker::{run_worker, WorkerOptions};
use iris_fuzzer::guided::{run_guided_shared_session, GuidedConfig, SharedRunOptions};
use iris_fuzzer::parallel::{CampaignRunOptions, ParallelCampaign};
use iris_fuzzer::table1::Table1;
use iris_fuzzer::target::{Backend, ConfiguredBackend, TargetFactory};
use iris_fuzzer::testcase::TestCase;
use iris_guest::workloads::Workload;
use iris_hv::coverage::CoverageMap;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Exits per recorded trace (the CLI default).
const EXITS: usize = 5_000;
/// Mutants per Table I cell (the CLI default).
const MUTANTS: usize = 200;
/// Worker threads for the in-process drivers: the host's two CPUs.
const JOBS: usize = 2;
/// Guided executions per run. Large enough that coverage and the crash
/// mix settle, so seeds differ little from each other.
const GUIDED_BUDGET: u64 = 8_000;
/// Fleet lease size: well below mutants per cell, so every cell is
/// split over many leases and the wire is exercised.
const FLEET_CHUNK: usize = 16;

pub const NAMES: [&str; 4] = ["campaign", "guided", "replay", "fleet"];

/// What one repetition produced.
#[derive(Debug)]
pub struct Rep {
    /// When the timed work started.
    pub started: Instant,
    /// Time spent in the driver calls proper; result checks and report
    /// serialization are left out.
    pub wall: Duration,
    /// Mutants executed, or seeds replayed.
    pub execs: u64,
    /// The run's report bytes; repetitions must agree byte for byte.
    pub report: String,
    pub coverage_lines: u64,
    pub unique_crashes: u64,
    /// Replay only: the minimum Fig. 6 coverage fitting over the guests.
    pub fit_pct: f64,
    /// Replay only: geometric mean of the Fig. 9 simulated speed-ups.
    pub sim_speedup: f64,
    /// Layer samples the workload measures itself (observer callbacks).
    pub samples: Vec<(&'static str, f64)>,
}

impl Rep {
    /// A repetition whose timed work started at `started` and ends now.
    fn timed(started: Instant, execs: u64) -> Self {
        Self {
            started,
            wall: started.elapsed(),
            execs,
            report: String::new(),
            coverage_lines: 0,
            unique_crashes: 0,
            fit_pct: 0.0,
            sim_speedup: 0.0,
            samples: Vec::new(),
        }
    }
}

/// Set-up facts reported under `record.*`.
#[derive(Debug, Clone, Copy)]
pub struct SetupInfo {
    pub record_ms: f64,
    pub record_exits: u64,
}

pub trait Bench {
    /// Busy worker threads, for the driver's self time.
    fn jobs(&self) -> usize;

    /// Run the workload once; with `sink`, through the instrumented seams.
    fn rep(&mut self, sink: Option<&Arc<Sink>>) -> Result<Rep, String>;

    /// Switch to the traced topology before the traced phase.
    fn start_tracing(&mut self, _sink: &Arc<Sink>) -> Result<(), String> {
        Ok(())
    }

    /// Tear down, returning layer samples measured after the run.
    fn finish(self: Box<Self>) -> Result<Vec<(&'static str, f64)>, String> {
        Ok(Vec::new())
    }
}

/// Build a workload's state: record, plan, and (fleet) start the service.
pub fn setup(name: &str, seed: u64) -> Result<(Box<dyn Bench>, SetupInfo), String> {
    match name {
        "campaign" => {
            let (_, trace, info) = record(Workload::OsBoot, seed);
            let mut traces = BTreeMap::new();
            traces.insert(Workload::OsBoot, trace);
            let plan = Table1::plan(&traces, MUTANTS, seed);
            Ok((Box::new(Campaign { traces, plan }), info))
        }
        "guided" => {
            let (_, trace, info) = record(Workload::OsBoot, seed);
            let config = GuidedConfig {
                budget: GUIDED_BUDGET,
                rng_seed: seed,
                ..GuidedConfig::default()
            };
            Ok((Box::new(Guided { trace, config }), info))
        }
        "replay" => {
            let (replay, info) = Replay::setup(seed)?;
            Ok((Box::new(replay), info))
        }
        "fleet" => {
            let spec = JobSpec {
                target: Backend::Iris.name().to_owned(),
                workload: Workload::OsBoot.label().to_owned(),
                exits: EXITS,
                seed,
                kind: JobKind::Campaign {
                    mutants: MUTANTS,
                    chunk: FLEET_CHUNK,
                },
            };
            let t = Instant::now();
            let trace = spec.record_trace().map_err(|e| e.to_string())?;
            let info = SetupInfo {
                record_ms: t.elapsed().as_secs_f64() * 1e3,
                record_exits: trace.len() as u64,
            };
            let plan = spec.plan(&trace).map_err(|e| e.to_string())?;
            // The fleet's contract: its report bytes equal the
            // in-process run's for the same spec.
            let reference = ParallelCampaign::with_factory(JOBS, Backend::Iris)
                .with_chunk(FLEET_CHUNK)
                .run_trace(&trace, &plan);
            let bytes = serde_json::to_string_pretty(&reference).map_err(|e| e.to_string())?;
            let fleet = Fleet::start(None)?;
            Ok((
                Box::new(FleetBench {
                    spec,
                    reference: bytes,
                    execs: reference.failures.submitted,
                    coverage_lines: reference.coverage.lines(),
                    unique_crashes: reference.corpus.unique() as u64,
                    fleet: Some(fleet),
                }),
                info,
            ))
        }
        other => Err(format!("unknown workload '{other}'")),
    }
}

/// Record one guest workload the way the CLI's `campaign`, `guided` and
/// `replay` commands do; the manager keeps the recording baseline.
fn record(w: Workload, seed: u64) -> (IrisManager, RecordedTrace, SetupInfo) {
    let t = Instant::now();
    let mut mgr = IrisManager::new(64 << 20);
    if w != Workload::OsBoot {
        mgr.boot_test_vm();
    }
    let trace = mgr
        .record(w.label(), w.generate(EXITS, seed), RecordConfig::default())
        .clone();
    let info = SetupInfo {
        record_ms: t.elapsed().as_secs_f64() * 1e3,
        record_exits: trace.len() as u64,
    };
    (mgr, trace, info)
}

fn to_json<T: serde::Serialize>(value: &T) -> Result<String, String> {
    serde_json::to_string_pretty(value).map_err(|e| e.to_string())
}

struct Campaign {
    traces: BTreeMap<Workload, RecordedTrace>,
    plan: Vec<TestCase>,
}

impl Campaign {
    fn run<F: TargetFactory>(&self, factory: F) -> Result<Rep, String> {
        let mut chunks = 0u64;
        let started = Instant::now();
        let report = ParallelCampaign::with_factory(JOBS, factory)
            .run_session(
                &self.traces,
                &self.plan,
                CampaignRunOptions::default(),
                |_, _| chunks += 1,
            )
            .map_err(|e| e.to_string())?;
        let mut rep = Rep::timed(started, report.failures.submitted);
        let expected = (self.plan.len() * MUTANTS) as u64;
        if report.failures.submitted != expected {
            return Err(format!(
                "campaign submitted {} mutants, plan asks for {expected}",
                report.failures.submitted
            ));
        }
        rep.report = to_json(&report)?;
        rep.coverage_lines = report.coverage.lines();
        rep.unique_crashes = report.corpus.unique() as u64;
        rep.samples.push(("campaign.chunks", chunks as f64));
        Ok(rep)
    }
}

impl Bench for Campaign {
    fn jobs(&self) -> usize {
        JOBS
    }

    fn rep(&mut self, sink: Option<&Arc<Sink>>) -> Result<Rep, String> {
        // The CLI defaults: stock backend, default chunk, forest off.
        let backend = ConfiguredBackend::new(Backend::Iris);
        match sink {
            None => self.run(backend),
            Some(sink) => self.run(TimedFactory::new(backend, Arc::clone(sink))),
        }
    }
}

struct Guided {
    trace: RecordedTrace,
    config: GuidedConfig,
}

impl Guided {
    fn run<F: TargetFactory>(&self, factory: &F) -> Result<Rep, String> {
        let mut marks = vec![Instant::now()];
        let result = run_guided_shared_session(
            factory,
            &self.trace,
            self.config,
            JOBS,
            SharedRunOptions::default(),
            |_| marks.push(Instant::now()),
        )
        .map_err(|e| e.to_string())?;
        let mut rep = Rep::timed(marks[0], result.executions);
        if result.executions != self.config.budget {
            return Err(format!(
                "guided run executed {} of its {} budget",
                result.executions, self.config.budget
            ));
        }
        rep.samples
            .push(("guided.generations", (marks.len() - 1) as f64));
        rep.samples.extend(
            marks
                .windows(2)
                .map(|w| ("guided.generation_ms", (w[1] - w[0]).as_secs_f64() * 1e3)),
        );
        rep.report = to_json(&result)?;
        rep.coverage_lines = result.total_lines;
        rep.unique_crashes = result.crashes.unique() as u64;
        Ok(rep)
    }
}

impl Bench for Guided {
    fn jobs(&self) -> usize {
        JOBS
    }

    fn rep(&mut self, sink: Option<&Arc<Sink>>) -> Result<Rep, String> {
        let backend =
            ConfiguredBackend::new(Backend::Iris).with_forest(Some(ForestConfig::default()));
        match sink {
            None => self.run(&backend),
            Some(sink) => self.run(&TimedFactory::new(backend, Arc::clone(sink))),
        }
    }
}

struct Guest {
    workload: Workload,
    mgr: IrisManager,
    seeds: Vec<VmSeed>,
    /// Lines the manager's replay of the trace covered.
    replayed_lines: u64,
}

struct Replay {
    guests: Vec<Guest>,
    fit_pct: f64,
    sim_speedup: f64,
}

/// Simulated milliseconds per TSC tick (the 3.6 GHz model clock).
const TSC_TICKS_PER_MS: f64 = 3.6e6;

impl Replay {
    /// Record every guest workload and replay each trace once through
    /// `IrisManager::replay` from the recording baseline: the paper's
    /// record→replay path, giving the Fig. 6 coverage fitting and the
    /// Fig. 9 speed-up in simulated time.
    fn setup(seed: u64) -> Result<(Self, SetupInfo), String> {
        let mut info = SetupInfo {
            record_ms: 0.0,
            record_exits: 0,
        };
        let (mut fit_pct, mut log_speedup) = (f64::INFINITY, 0.0);
        // Record every guest before replaying any: the replays' large
        // transient traces then reuse the same freed memory, which keeps
        // `peak_rss_mib` from depending on the allocator's layout.
        let recordings: Vec<_> = Workload::ALL
            .into_iter()
            .map(|w| (w, record(w, seed)))
            .collect();
        let mut guests = Vec::new();
        for (workload, (mut mgr, recorded, one)) in recordings {
            info.record_ms += one.record_ms;
            info.record_exits += one.record_exits;
            let tsc0 = mgr.hv.tsc.now();
            let replayed = mgr.replay(workload.label(), Mode::ReplayWithMetrics, true);
            let sim_ms = (mgr.hv.tsc.now() - tsc0) as f64 / TSC_TICKS_PER_MS;
            if replayed.metrics.len() != recorded.len() {
                return Err(format!(
                    "{}: replayed {} of {} seeds",
                    workload.label(),
                    replayed.metrics.len(),
                    recorded.len()
                ));
            }
            let fit = metrics::coverage_fitting(&recorded, &replayed);
            fit_pct = fit_pct.min(fit.fitting_percent);
            log_speedup += metrics::efficiency(&recorded, sim_ms).speedup.ln();
            guests.push(Guest {
                workload,
                mgr,
                seeds: recorded.seeds,
                replayed_lines: fit.replayed_lines,
            });
        }
        let sim_speedup = (log_speedup / guests.len() as f64).exp();
        Ok((
            Self {
                guests,
                fit_pct,
                sim_speedup,
            },
            info,
        ))
    }
}

fn pass_span(w: Workload) -> &'static str {
    match w {
        Workload::OsBoot => "replay.pass.os_boot",
        Workload::CpuBound => "replay.pass.cpu_bound",
        Workload::MemBound => "replay.pass.mem_bound",
        Workload::IoBound => "replay.pass.io_bound",
        Workload::Idle => "replay.pass.idle",
    }
}

impl Bench for Replay {
    fn jobs(&self) -> usize {
        1
    }

    /// Replay every trace again from its baseline: the revert and the
    /// per-seed submissions `IrisManager::replay` makes, without
    /// collecting a replay-side trace. That trace is ~18 MB per
    /// 5,000-exit pass. Whether the allocator hands it back to the OS
    /// between passes depends on the seed, and when it does, a pass
    /// pays ~9K page faults and runs 2.5× slower.
    fn rep(&mut self, sink: Option<&Arc<Sink>>) -> Result<Rep, String> {
        let mut rep = Rep::timed(Instant::now(), 0);
        rep.wall = Duration::ZERO;
        rep.fit_pct = self.fit_pct;
        rep.sim_speedup = self.sim_speedup;
        let mut summary = Vec::new();
        for g in &mut self.guests {
            let label = g.workload.label();
            let baseline = g.mgr.baseline.as_ref().ok_or("no recording baseline")?;
            let (tsc0, t) = (g.mgr.hv.tsc.now(), Instant::now());
            baseline.restore_into(&mut g.mgr.hv, g.mgr.dummy_vm);
            let restored = t.elapsed();
            let mut engine = ReplayEngine::new(&mut g.mgr.hv, g.mgr.dummy_vm);
            let mut coverage = CoverageMap::default();
            for seed in &g.seeds {
                let out = engine.submit(&mut g.mgr.hv, seed);
                if out.exit.crash.is_some() {
                    return Err(format!("{label}: a recorded seed crashed on replay"));
                }
                coverage.merge(&out.metrics.coverage);
            }
            let wall = t.elapsed();
            rep.wall += wall;
            if let Some(sink) = sink {
                let start_ns = sink.ns_of(t);
                let restored_ns = start_ns + restored.as_nanos() as u64;
                for (name, start_ns, end_ns) in [
                    ("replay.restore", start_ns, restored_ns),
                    (
                        pass_span(g.workload),
                        restored_ns,
                        start_ns + wall.as_nanos() as u64,
                    ),
                ] {
                    sink.push(Span {
                        name,
                        run: sink.run(),
                        start_ns,
                        end_ns,
                        bytes: 0,
                    });
                }
            }
            if coverage.lines() != g.replayed_lines {
                return Err(format!(
                    "{label}: replay covered {} lines, IrisManager::replay {}",
                    coverage.lines(),
                    g.replayed_lines
                ));
            }
            rep.execs += g.seeds.len() as u64;
            rep.coverage_lines += coverage.lines();
            summary.push((
                label,
                g.seeds.len(),
                coverage.lines(),
                g.mgr.hv.tsc.now() - tsc0,
            ));
        }
        rep.report = to_json(&summary)?;
        Ok(rep)
    }
}

/// An in-process coordinator with one loopback worker thread, the worker
/// connecting directly or through a [`Relay`].
struct Fleet {
    server: Option<Server>,
    stop: &'static AtomicBool,
    worker: Option<JoinHandle<Result<(), String>>>,
    relay: Option<Relay>,
}

impl Fleet {
    fn start(sink: Option<&Arc<Sink>>) -> Result<Self, String> {
        let server = Server::start(ServeOptions::default()).map_err(|e| e.to_string())?;
        let coordinator = server.addr().to_string();
        let relay = match sink {
            Some(sink) => Some(
                Relay::start(coordinator.clone(), Arc::clone(sink)).map_err(|e| e.to_string())?,
            ),
            None => None,
        };
        // The worker API takes a `'static` stop flag (it is built for
        // the SIGINT handler's); one small flag per fleet is leaked.
        let stop: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(false)));
        let opts = WorkerOptions {
            connect: relay.as_ref().map_or(coordinator, |r| r.addr().to_owned()),
            stop: Some(stop),
            ..WorkerOptions::default()
        };
        let worker =
            std::thread::spawn(move || run_worker(&opts).map(|_| ()).map_err(|e| e.to_string()));
        Ok(Self {
            server: Some(server),
            stop,
            worker: Some(worker),
            relay,
        })
    }

    fn addr(&self) -> Result<String, String> {
        self.server
            .as_ref()
            .map(|s| s.addr().to_string())
            .ok_or_else(|| "fleet already stopped".to_owned())
    }

    /// Stop the worker and the coordinator, wait for every thread, and
    /// return the relay's captured frames.
    fn shutdown(&mut self) -> Result<Vec<(&'static str, Vec<u8>)>, String> {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(server) = self.server.take() {
            server.stop();
        }
        let worker = match self.worker.take().map(JoinHandle::join) {
            Some(Ok(result)) => result,
            Some(Err(_)) => Err("fleet worker panicked".to_owned()),
            None => Ok(()),
        };
        let captured = match self.relay.take() {
            Some(relay) => {
                let frames = relay.captured();
                relay.join()?;
                frames
            }
            None => Vec::new(),
        };
        worker.map(|()| captured)
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

struct FleetBench {
    spec: JobSpec,
    reference: String,
    execs: u64,
    coverage_lines: u64,
    unique_crashes: u64,
    fleet: Option<Fleet>,
}

impl Bench for FleetBench {
    fn jobs(&self) -> usize {
        1
    }

    fn rep(&mut self, sink: Option<&Arc<Sink>>) -> Result<Rep, String> {
        let addr = self.fleet.as_ref().ok_or("fleet not running")?.addr()?;
        let started = Instant::now();
        let outcome = iris_dist::client::submit(&addr, &self.spec, |_, _, _| {})
            .map_err(|e| e.to_string())?;
        let mut rep = Rep::timed(started, self.execs);
        if let Some(sink) = sink {
            // The client's view of the job's end, for the job tail.
            let at = sink.now_ns();
            sink.push(Span {
                name: "dist.job.done",
                run: sink.run(),
                start_ns: at,
                end_ns: at,
                bytes: 0,
            });
        }
        if outcome.report != self.reference {
            return Err("fleet report differs from the in-process report of the same spec".into());
        }
        rep.report = outcome.report;
        rep.coverage_lines = self.coverage_lines;
        rep.unique_crashes = self.unique_crashes;
        Ok(rep)
    }

    fn start_tracing(&mut self, sink: &Arc<Sink>) -> Result<(), String> {
        if let Some(mut fleet) = self.fleet.take() {
            fleet.shutdown()?;
        }
        self.fleet = Some(Fleet::start(Some(sink))?);
        // Warm the relayed worker (trace re-derivation, first leases)
        // outside the timed phase.
        self.rep(Some(sink)).map(|_| ())
    }

    fn finish(mut self: Box<Self>) -> Result<Vec<(&'static str, f64)>, String> {
        let captured = match self.fleet.take() {
            Some(mut fleet) => fleet.shutdown()?,
            None => Vec::new(),
        };
        crate::layers::codec_samples(&captured)
    }
}
