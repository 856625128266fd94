//! Per-job overhead of the distributed coordinator/worker path: the
//! same small campaign submitted over a loopback fleet (1 and 2
//! workers) versus run in-process at `--jobs 1`.
//!
//! Every arm produces byte-identical report bytes (the dist
//! conformance suite asserts it), so the deltas isolate the service's
//! per-job cost: frame codec round trips, lease grants, heartbeats,
//! the coordinator's ordered fold, and each side's trace/plan
//! re-derivation from the spec (the wire ships specs, never traces).
//! The `chunk` axis prices per-lease wire
//! overhead — `chunk = MUTANTS` is one lease per test case (the fewest
//! round trips), `chunk = 2` splits each cell into several leases and
//! pays a grant/result exchange for each (workers keep warm targets
//! per job, so a lease boots nothing). `--json <path>`
//! (conventionally `BENCH_dist_fleet.json`) emits every arm, with the
//! host's CPU count, machine-readably for perf-trajectory tracking.

use criterion::{criterion_group, BenchmarkId, Criterion, Throughput};
use iris_dist::coordinator::{ServeOptions, Server};
use iris_dist::job::{JobKind, JobSpec};
use iris_dist::worker::{run_worker, WorkerOptions};
use iris_fuzzer::parallel::ParallelCampaign;
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread::JoinHandle;

const EXITS: usize = 120;
const MUTANTS: usize = 6;

fn spec(chunk: usize) -> JobSpec {
    JobSpec {
        target: "iris".to_owned(),
        workload: "OS BOOT".to_owned(),
        exits: EXITS,
        seed: 42,
        kind: JobKind::Campaign {
            mutants: MUTANTS,
            chunk,
        },
    }
}

/// A loopback fleet: one coordinator plus `workers` worker threads,
/// torn down via the cooperative stop flag when dropped.
struct Fleet {
    server: Option<Server>,
    stop: &'static AtomicBool,
    handles: Vec<JoinHandle<()>>,
}

impl Fleet {
    fn start(workers: usize) -> Self {
        let server = Server::start(ServeOptions {
            listen: "127.0.0.1:0".to_owned(),
            ..ServeOptions::default()
        })
        .expect("bind loopback coordinator");
        let addr = server.addr().to_string();
        let stop: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(false)));
        let handles = (0..workers)
            .map(|_| {
                let opts = WorkerOptions {
                    connect: addr.clone(),
                    heartbeat_ms: 200,
                    stop: Some(stop),
                    ..WorkerOptions::default()
                };
                std::thread::spawn(move || {
                    let _ = run_worker(&opts);
                })
            })
            .collect();
        Self {
            server: Some(server),
            stop,
            handles,
        }
    }

    fn addr(&self) -> String {
        self.server
            .as_ref()
            .map(|s| s.addr().to_string())
            .unwrap_or_default()
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(server) = self.server.take() {
            server.stop();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn bench_dist_fleet(c: &mut Criterion) {
    // Plan length drives throughput units: total mutants executed per
    // submitted job. Derive it once from the spec's own plan.
    let probe = spec(MUTANTS);
    let trace = probe.record_trace().expect("record trace");
    let plan_len = probe.plan(&trace).expect("plan").len();
    let total_mutants = (plan_len * MUTANTS) as u64;

    let mut group = c.benchmark_group("dist_fleet");
    group.throughput(Throughput::Elements(total_mutants));

    // The in-process floor every fleet arm is measured against.
    let executor = ParallelCampaign::new(1);
    group.bench_function("inprocess/jobs/1", |b| {
        let plan = probe.plan(&trace).expect("plan");
        b.iter(|| executor.run_trace(&trace, &plan));
    });

    for workers in [1usize, 2] {
        for chunk in [2usize, MUTANTS] {
            let fleet = Fleet::start(workers);
            let addr = fleet.addr();
            let job = spec(chunk);
            group.bench_with_input(
                BenchmarkId::new("workers", format!("{workers}/chunk/{chunk}")),
                &job,
                |b, job| {
                    b.iter(|| {
                        iris_dist::client::submit(&addr, job, |_, _, _| {}).expect("fleet job")
                    });
                },
            );
            drop(fleet);
        }
    }
    group.finish();
}

criterion_group!(benches, bench_dist_fleet);

fn main() {
    benches();
    iris_bench::bench_json::emit_if_requested();
}
