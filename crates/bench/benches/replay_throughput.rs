//! Wall-clock throughput of the IRIS replay engine (how fast the
//! *reproduction* submits seeds, complementing the simulated-cycle
//! numbers of Fig. 9).
//!
//! Four variants per workload:
//!
//! * `snapshot/…` — the real replay loop: hypervisor, dummy domain, and
//!   engine are built **once**; each iteration restores the post-boot
//!   snapshot in place (`Snapshot::restore_into`) and replays the trace.
//!   This measures replay, not allocation.
//! * `rebuild/…` — builds the whole stack (`Hypervisor::new()` +
//!   domain + boot fast-forward + engine) inside `b.iter()`. With RAM
//!   mapped as EPT extents a build costs microseconds, so this arm now
//!   prices a freshly built stack against the in-place restore rather
//!   than the old multi-millisecond reboot; PERFORMANCE.md records the
//!   ratio.
//! * `direct/…` vs `target/…` — the same restore+submit loop driven
//!   through the raw `ReplayEngine` and through the `FuzzTarget` trait
//!   respectively. The drivers are generic over the factory (static
//!   dispatch), so these two arms must coincide — the number
//!   PERFORMANCE.md's "the trait adds no per-exit dispatch cost" claim
//!   rests on.
//!
//! A fifth pair measures the deep-prefix workload the snapshot forest
//! exists for (PERFORMANCE.md §snapshot forest): a mutation base that
//! sits behind a 200-seed replay prefix.
//!
//! * `prefix_replay/…` — the classic reset path: restore s1, replay the
//!   whole 200-seed prefix, then submit the one probe seed. Per-probe
//!   cost is O(prefix).
//! * `forest/…` — the copy-on-write forest path: the post-prefix state
//!   was pinned once as a forest node; each iteration restores that
//!   leaf in O(delta) and submits the probe.
//!
//! Both arms declare ONE element per iteration (the probe — the only
//! useful execution), so their seeds/s ratio is exactly the per-mutant
//! speedup a deep-prefix guided run sees.
//!
//! `--json <path>` (conventionally `BENCH_replay_throughput.json`)
//! emits every arm's seeds/s and ns/exit machine-readably for
//! perf-trajectory tracking.

use criterion::{criterion_group, BenchmarkId, Criterion, Throughput};
use iris_bench::experiments::record_workload;
use iris_core::replay::ReplayEngine;
use iris_core::snapshot::Snapshot;
use iris_fuzzer::target::{Backend, BootPlan, FuzzTarget, TargetFactory};
use iris_guest::runner::fast_forward_boot;
use iris_guest::workloads::Workload;
use iris_hv::hypervisor::Hypervisor;

/// The deep-prefix arms' replay depth: the mutation base sits behind
/// this many recorded seeds (the acceptance floor is 200).
const DEEP_PREFIX: usize = 200;

fn bench_replay(c: &mut Criterion) {
    let mut group = c.benchmark_group("replay_throughput");
    for workload in [Workload::OsBoot, Workload::CpuBound, Workload::Idle] {
        let (_, trace) = record_workload(workload, 300, 42);
        group.throughput(Throughput::Elements(trace.seeds.len() as u64));

        // Snapshot path: construction happens once, outside the timed
        // loop; every iteration restores the captured state in place.
        {
            let mut hv = Hypervisor::new();
            hv.log.set_min_level(Some(iris_hv::log::Level::Warning));
            let dummy = hv.create_hvm_domain(16 << 20);
            if workload != Workload::OsBoot {
                fast_forward_boot(&mut hv, dummy);
            }
            let mut engine = ReplayEngine::new(&mut hv, dummy);
            let start = Snapshot::take(&hv, dummy);
            group.bench_with_input(
                BenchmarkId::new("snapshot", workload.label()),
                &trace,
                |b, trace| {
                    b.iter(|| {
                        start.restore_into(&mut hv, dummy);
                        engine.replay_trace(&mut hv, trace)
                    });
                },
            );
        }

        // Rebuild-per-iteration baseline.
        group.bench_with_input(
            BenchmarkId::new("rebuild", workload.label()),
            &trace,
            |b, trace| {
                b.iter(|| {
                    let mut hv = Hypervisor::new();
                    let dummy = hv.create_hvm_domain(16 << 20);
                    if workload != Workload::OsBoot {
                        fast_forward_boot(&mut hv, dummy);
                    }
                    let mut engine = ReplayEngine::new(&mut hv, dummy);
                    engine.replay_trace(&mut hv, trace)
                });
            },
        );

        // Dispatch-cost pair: raw engine submission...
        {
            let mut hv = Hypervisor::new();
            hv.log.set_min_level(Some(iris_hv::log::Level::Warning));
            let dummy = hv.create_hvm_domain(16 << 20);
            if workload != Workload::OsBoot {
                fast_forward_boot(&mut hv, dummy);
            }
            let mut engine = ReplayEngine::new(&mut hv, dummy);
            let start = Snapshot::take(&hv, dummy);
            group.bench_with_input(
                BenchmarkId::new("direct", workload.label()),
                &trace,
                |b, trace| {
                    b.iter(|| {
                        start.restore_into(&mut hv, dummy);
                        let mut crashes = 0u64;
                        for seed in &trace.seeds {
                            let out = engine.submit(&mut hv, seed);
                            crashes += u64::from(out.exit.crash.is_some());
                        }
                        crashes
                    });
                },
            );
        }

        // ...vs the identical loop through the FuzzTarget trait (the
        // drivers' statically-dispatched path).
        {
            let factory = Backend::Iris;
            let mut target = factory.build(BootPlan {
                trace: &trace,
                fast_forward: workload != Workload::OsBoot,
            });
            target.boot();
            group.bench_with_input(
                BenchmarkId::new("target", workload.label()),
                &trace,
                |b, trace| {
                    b.iter(|| {
                        target.reset();
                        let mut crashes = 0u64;
                        for seed in &trace.seeds {
                            crashes += u64::from(target.submit(seed).crash.is_some());
                        }
                        crashes
                    });
                },
            );
        }
    }

    // Deep-prefix pair: one probe submission per iteration, positioned
    // 200 seeds into an OS-boot trace. `prefix_replay` pays the whole
    // prefix every time; `forest` restores a pinned leaf in O(delta).
    {
        let (_, trace) = record_workload(Workload::OsBoot, 250, 42);
        assert!(
            trace.seeds.len() > DEEP_PREFIX,
            "deep-prefix workload needs more than {DEEP_PREFIX} seeds"
        );
        let probe = &trace.seeds[DEEP_PREFIX];
        group.throughput(Throughput::Elements(1));

        {
            let factory = Backend::Iris;
            let mut target = factory.build(BootPlan {
                trace: &trace,
                fast_forward: false,
            });
            target.boot();
            group.bench_with_input(
                BenchmarkId::new("prefix_replay", Workload::OsBoot.label()),
                &trace,
                |b, trace| {
                    b.iter(|| {
                        target.reset();
                        for seed in &trace.seeds[..DEEP_PREFIX] {
                            target.submit(seed);
                        }
                        u64::from(target.submit(probe).crash.is_some())
                    });
                },
            );
        }

        {
            let factory = Backend::Iris;
            let mut target = factory.build(BootPlan {
                trace: &trace,
                fast_forward: false,
            });
            target.boot();
            for seed in &trace.seeds[..DEEP_PREFIX] {
                target.submit(seed);
            }
            let leaf = target.pin_state().expect("forest targets pin state");
            group.bench_with_input(
                BenchmarkId::new("forest", Workload::OsBoot.label()),
                &trace,
                |b, _| {
                    b.iter(|| {
                        assert!(target.reset_to(leaf), "pinned leaf restores");
                        u64::from(target.submit(probe).crash.is_some())
                    });
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_replay);

fn main() {
    benches();
    iris_bench::bench_json::emit_if_requested();
}
