//! Throughput of the generational shared-corpus guided engine across a
//! (workers × generation size) grid — the scaling curve of
//! `iris_fuzzer::guided::run_guided_shared`.
//!
//! Every arm runs the same budget over the same OS BOOT trace, so the
//! execs/s differences isolate the engine's two knobs: `jobs` (how many
//! private booted targets serve a generation's slot batch) and
//! `generation` (how many executions sit between sync points — smaller
//! generations pay more per-worker boots and barrier merges per
//! execution, larger ones expose more parallelism between barriers).
//! Results are byte-identical across arms with equal generation size by
//! construction, so the grid measures pure scheduling cost. On a
//! single-core container the `jobs` axis is flat (see the PERFORMANCE.md
//! caveat); `--json <path>` (conventionally `BENCH_guided_scaling.json`)
//! emits every arm machine-readably for perf-trajectory tracking.

use criterion::{criterion_group, BenchmarkId, Criterion, Throughput};
use iris_bench::experiments::record_workload;
use iris_fuzzer::guided::{run_guided_shared_with, GuidedConfig};
use iris_fuzzer::target::Backend;
use iris_guest::workloads::Workload;

const BUDGET: u64 = 1200;

fn bench_guided_scaling(c: &mut Criterion) {
    let (_, trace) = record_workload(Workload::OsBoot, 300, 42);
    let factory = Backend::Iris;

    let mut group = c.benchmark_group("guided_scaling");
    group.throughput(Throughput::Elements(BUDGET));
    // gen=1200 ≥ BUDGET is the single-generation arm (one barrier, the
    // whole budget schedules over the initial corpus); gen=64 prices
    // frequent sync points and per-generation worker boots.
    for jobs in [1usize, 2, 4] {
        for generation in [64u64, 256, BUDGET] {
            let config = GuidedConfig {
                budget: BUDGET,
                generation,
                ..GuidedConfig::default()
            };
            group.bench_with_input(
                BenchmarkId::new("jobs", format!("{jobs}/gen/{generation}")),
                &config,
                |b, config| {
                    b.iter(|| run_guided_shared_with(&factory, &trace, *config, jobs));
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_guided_scaling);

fn main() {
    benches();
    iris_bench::bench_json::emit_if_requested();
}
