//! The §IX coverage-guided fuzzer: AFL-style feedback over IRIS seeds,
//! on the generational shared-corpus engine.
//!
//! `guided_fuzzing [budget] [instances] [target]` — `target` selects the
//! fuzz-target backend (`iris` or `faulty`). The headline run is the
//! engine's `jobs=1` reference; `instances > 1` adds an ensemble of
//! independent runs at distinct RNG seeds, then the same total budget
//! spent on one shared corpus.

use iris_bench::experiments::record_workload;
use iris_fuzzer::guided::{run_guided_shared_with, GuidedConfig};
use iris_fuzzer::parallel::available_jobs;
use iris_fuzzer::target::{Backend, TargetFactory};
use iris_guest::workloads::Workload;

fn main() {
    let budget: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(3000);
    let instances: usize = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    let backend = std::env::args()
        .nth(3)
        .map(|s| Backend::parse(&s).expect("unknown target (iris|faulty)"))
        .unwrap_or(Backend::Iris);
    let (_, trace) = record_workload(Workload::OsBoot, 800, 42);
    let config = GuidedConfig {
        budget,
        ..GuidedConfig::default()
    };
    let r = run_guided_shared_with(&backend, &trace, config, 1);
    println!(
        "Coverage-guided fuzzing over OS BOOT seeds ({budget} executions, target {})\n",
        backend.name()
    );
    println!("baseline corpus coverage : {} lines", r.baseline_lines);
    println!(
        "final coverage           : {} lines (+{})",
        r.total_lines,
        r.total_lines - r.baseline_lines
    );
    println!(
        "corpus                   : {} seeds ({} promoted)",
        r.corpus_size, r.promotions
    );
    println!(
        "crashes                  : {} VM ({:.2}%), {} hypervisor ({:.2}%)",
        r.failures.vm_crashes,
        r.failures.vm_crash_percent(),
        r.failures.hv_crashes,
        r.failures.hv_crash_percent()
    );
    print!("coverage growth          :");
    for g in &r.growth {
        print!(" {g}");
    }
    println!();

    if instances > 1 {
        // An ensemble: independent runs at distinct RNG seeds, each on
        // every core (results are the same for any worker count).
        let jobs = available_jobs();
        println!("\nensemble: {instances} independent guided runs, {jobs} workers each");
        let mut best = 0;
        for i in 0..instances as u64 {
            let rng_seed = config.rng_seed + i;
            let r =
                run_guided_shared_with(&backend, &trace, GuidedConfig { rng_seed, ..config }, jobs);
            println!(
                "  seed {rng_seed:>3}: {} -> {} lines, {} promotions, {} crashes",
                r.baseline_lines,
                r.total_lines,
                r.promotions,
                r.failures.vm_crashes + r.failures.hv_crashes
            );
            best = best.max(r.total_lines);
        }
        println!("  best instance coverage: {best} lines");

        // The contrast: the same total budget on ONE shared corpus.
        let total = budget * instances as u64;
        let shared = run_guided_shared_with(
            &backend,
            &trace,
            GuidedConfig {
                budget: total,
                ..config
            },
            jobs,
        );
        println!(
            "\nshared corpus: {total} executions across {jobs} workers (generational sync points)"
        );
        println!(
            "  {} -> {} lines, {} promotions, corpus {}, {} crashes",
            shared.baseline_lines,
            shared.total_lines,
            shared.promotions,
            shared.corpus_size,
            shared.failures.vm_crashes + shared.failures.hv_crashes
        );
    }
}
