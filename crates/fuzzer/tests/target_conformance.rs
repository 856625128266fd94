//! The backend-conformance suite: every backend registered in
//! [`Backend`] must honour the [`FuzzTarget`] contract the drivers rely
//! on — deterministic boot, exact `s1` restoration on reset, reproducible
//! coverage — and must aggregate deterministically under the sharded
//! executor (jobs=1/2 byte-identical reports).
//!
//! The `for_every_backend!` macro matches exhaustively on [`Backend`], so
//! registering a new backend fails this file until the suite covers it.

use iris_core::forest::{ForestConfig, StateId};
use iris_core::trace::RecordedTrace;
use iris_fuzzer::campaign::{assemble_test_case, run_mutant_range_with};
use iris_fuzzer::checkpoint::GuidedCheckpoint;
use iris_fuzzer::executor::{quiet_injected_faults, FaultPlan, RunPolicy};
use iris_fuzzer::guided::{
    run_guided_shared_session, run_guided_shared_with, GuidedConfig, SharedRunOptions,
};
use iris_fuzzer::mutation::SeedArea;
use iris_fuzzer::parallel::{CampaignReport, ParallelCampaign};
use iris_fuzzer::table1::Table1;
use iris_fuzzer::target::{
    record_trace, replay_seeds, Backend, BootPlan, ConfiguredBackend, FuzzTarget, HvTarget,
    TargetFactory,
};
use iris_fuzzer::testcase::TestCase;
use iris_guest::workloads::Workload;
use iris_vtx::exit::ExitReason;
use iris_vtx::fields::VmcsField;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Run `$body` once per registered backend with `$factory` bound to that
/// backend's factory. Exhaustive over [`Backend`] by construction.
macro_rules! for_every_backend {
    (|$factory:ident, $backend:ident| $body:block) => {
        for $backend in Backend::ALL {
            match $backend {
                Backend::Iris => {
                    let $factory = Backend::Iris;
                    $body
                }
                Backend::Faulty => {
                    let $factory = Backend::Faulty;
                    $body
                }
            }
        }
    };
}

fn boot_trace(n: usize) -> RecordedTrace {
    record_trace(Workload::OsBoot, n, 42)
}

/// A target booted to `s1` and replayed up to (excluding)
/// `trace.seeds[idx]` — a test case's `VM_seed_R` state, reached the
/// pin-free way.
fn booted_at<'t, F: TargetFactory>(
    factory: &F,
    trace: &'t RecordedTrace,
    idx: usize,
) -> F::Target<'t> {
    let mut target = factory.build(BootPlan::for_test_case(trace));
    target.boot();
    replay_seeds(&mut target, &trace.seeds[..idx]);
    target
}

/// Back to the `VM_seed_R` state after a crash: reset to `s1`, replay
/// the prefix again.
fn reset_to_prefix<T: FuzzTarget>(target: &mut T, trace: &RecordedTrace, idx: usize) {
    target.reset();
    replay_seeds(target, &trace.seeds[..idx]);
}

fn find_seed(trace: &RecordedTrace, reason: ExitReason) -> usize {
    trace
        .seeds
        .iter()
        .position(|s| s.reason == reason)
        .expect("reason present in trace")
}

/// A mutant that reliably kills the whole SUT on any backend: steering
/// the interposed exit reason into the never-configured range hits the
/// dispatcher's BUG arm.
fn hv_fatal_mutant(trace: &RecordedTrace, idx: usize) -> iris_core::seed::VmSeed {
    let mut mutant = trace.seeds[idx].clone();
    for pair in &mut mutant.reads {
        if pair.0 == VmcsField::VmExitReason {
            pair.1 = 11; // GETSEC
        }
    }
    mutant
}

#[test]
fn boot_and_submit_are_deterministic_across_instances() {
    let trace = boot_trace(120);
    let idx = find_seed(&trace, ExitReason::CrAccess);
    for_every_backend!(|factory, backend| {
        let mut a = booted_at(&factory, &trace, idx);
        let mut b = booted_at(&factory, &trace, idx);
        for seed in [&trace.seeds[idx], &trace.seeds[0]] {
            let out_a = a.submit(seed);
            let out_b = b.submit(seed);
            assert_eq!(
                out_a.coverage, out_b.coverage,
                "{backend:?}: twin instances diverged on coverage"
            );
            assert_eq!(
                out_a.crash, out_b.crash,
                "{backend:?}: crash verdicts diverged"
            );
            assert_eq!(
                out_a.cycles, out_b.cycles,
                "{backend:?}: cycle costs diverged"
            );
        }
    });
}

#[test]
fn reset_restores_s1_after_a_domain_crash() {
    let trace = boot_trace(120);
    let idx = find_seed(&trace, ExitReason::CrAccess);
    for_every_backend!(|factory, backend| {
        let mut target = booted_at(&factory, &trace, idx);
        let baseline = target.submit(&trace.seeds[idx]);
        assert!(
            baseline.crash.is_none(),
            "{backend:?}: recorded seed crashed"
        );

        // A guest RIP in the canonical hole is a domain crash (the SUT
        // survives, so reset takes the snapshot-restore path).
        let mut mutant = trace.seeds[idx].clone();
        for pair in &mut mutant.reads {
            if pair.0 == VmcsField::GuestRip {
                pair.1 ^= 1u64 << 62;
            }
        }
        let crashed = target.submit(&mutant);
        assert!(
            crashed.crash.is_some(),
            "{backend:?}: bad-RIP mutant must crash the domain"
        );
        reset_to_prefix(&mut target, &trace, idx);
        let again = target.submit(&trace.seeds[idx]);
        assert_eq!(
            baseline.coverage, again.coverage,
            "{backend:?}: reset did not restore s1 (coverage diverged)"
        );
        assert!(again.crash.is_none(), "{backend:?}: restored s1 crashed");
    });
}

#[test]
fn reset_rebuilds_after_a_sut_fatal_crash() {
    let trace = boot_trace(120);
    let idx = find_seed(&trace, ExitReason::CrAccess);
    for_every_backend!(|factory, backend| {
        let mut target = booted_at(&factory, &trace, idx);
        let baseline = target.submit(&trace.seeds[idx]);

        let crashed = target.submit(&hv_fatal_mutant(&trace, idx));
        assert_eq!(
            crashed.crash.map(|v| v.kind),
            Some(iris_fuzzer::failure::FailureKind::HypervisorCrash),
            "{backend:?}: unhandled exit reason must be SUT-fatal"
        );
        reset_to_prefix(&mut target, &trace, idx); // restores the hypervisor globals too
        let again = target.submit(&trace.seeds[idx]);
        assert_eq!(
            baseline.coverage, again.coverage,
            "{backend:?}: crash recovery did not reproduce s1"
        );
        assert!(again.crash.is_none());
    });
}

#[test]
fn coverage_is_reproducible_and_monotone_over_a_sequence() {
    let trace = boot_trace(120);
    let idx = find_seed(&trace, ExitReason::Cpuid);
    for_every_backend!(|factory, backend| {
        let mut target = booted_at(&factory, &trace, idx);
        // Same seed from the same state touches the same blocks.
        let first = target.submit(&trace.seeds[idx]);
        let second = target.submit(&trace.seeds[idx]);
        assert_eq!(
            first.coverage, second.coverage,
            "{backend:?}: identical submissions diverged"
        );

        // The union over a crash-free sequence grows monotonically.
        let mut seen = iris_hv::coverage::CoverageMap::new();
        let mut last_lines = 0u64;
        for seed in trace.seeds.iter().take(30) {
            let out = target.submit(seed);
            if out.crash.is_some() {
                reset_to_prefix(&mut target, &trace, idx);
            }
            seen.merge(&out.coverage);
            assert!(
                seen.lines() >= last_lines,
                "{backend:?}: coverage union shrank"
            );
            last_lines = seen.lines();
        }
        assert!(last_lines > 0, "{backend:?}: sequence covered nothing");
    });
}

#[test]
fn sharded_reports_are_byte_identical_for_jobs_1_and_2() {
    let trace = boot_trace(150);
    let mut plan = Vec::new();
    let mut seen = Vec::new();
    for (idx, seed) in trace.seeds.iter().enumerate() {
        if seen.contains(&seed.reason) {
            continue;
        }
        seen.push(seed.reason);
        for area in SeedArea::ALL {
            plan.push(TestCase {
                mutants: 30,
                ..TestCase::new(
                    Workload::OsBoot,
                    idx,
                    seed.reason,
                    area,
                    0xC0FFEE ^ idx as u64,
                )
            });
        }
    }
    assert!(plan.len() >= 6, "plan too small to shard meaningfully");

    for_every_backend!(|factory, backend| {
        let one = ParallelCampaign::with_factory(1, factory).run_trace(&trace, &plan);
        let two = ParallelCampaign::with_factory(2, factory).run_trace(&trace, &plan);
        assert_eq!(
            serde_json::to_string(&one).unwrap(),
            serde_json::to_string(&two).unwrap(),
            "{backend:?}: jobs=2 report diverged from jobs=1"
        );
    });
}

#[test]
fn chunked_reports_are_byte_identical_across_jobs_and_chunks() {
    // The chunked twin of the jobs=1/2 determinism case: for every
    // registered backend, the report must be byte-identical whatever
    // the (jobs, chunk) combination — chunk=1 makes every mutant its
    // own steal, chunk=usize::MAX is the whole-cell pre-chunking
    // behavior. The per-range RNG law (`rng_seed ⊕ mutant_index`) plus
    // the `(test_case_index, range_start)` merge order are what every
    // backend must therefore honour: deterministic boot and
    // history-independent submissions from the canonical state.
    let trace = boot_trace(120);
    let mut plan = Vec::new();
    for (reason, area) in [
        (ExitReason::CrAccess, SeedArea::Vmcs), // crashy cell
        (ExitReason::Cpuid, SeedArea::Gpr),
        (ExitReason::IoInstruction, SeedArea::Vmcs),
    ] {
        plan.push(TestCase {
            mutants: 45,
            ..TestCase::new(
                Workload::OsBoot,
                find_seed(&trace, reason),
                reason,
                area,
                0xFEED,
            )
        });
    }

    for_every_backend!(|factory, backend| {
        let reference = ParallelCampaign::with_factory(1, factory).run_trace(&trace, &plan);
        let baseline = serde_json::to_string(&reference).unwrap();
        for jobs in [1usize, 2] {
            for chunk in [1usize, 7, usize::MAX] {
                let report = ParallelCampaign::with_factory(jobs, factory)
                    .with_chunk(chunk)
                    .run_trace(&trace, &plan);
                assert_eq!(
                    serde_json::to_string(&report).unwrap(),
                    baseline,
                    "{backend:?}: jobs={jobs} chunk={chunk} diverged"
                );
            }
        }
    });
}

#[test]
fn guided_shared_reports_are_byte_identical_across_jobs() {
    // The generational shared-corpus engine's acceptance cross product:
    // for every registered backend, jobs ∈ {1, 2, 8} must serialize a
    // byte-identical GuidedResult (promotions, corpus order, coverage,
    // growth curve, failures, crash corpus) — jobs=1 is the reference.
    let trace = boot_trace(150);
    for_every_backend!(|factory, backend| {
        let cfg = GuidedConfig {
            budget: 250,
            generation: 48,
            rng_seed: 7,
            ..GuidedConfig::default()
        };
        let reference = run_guided_shared_with(&factory, &trace, cfg, 1);
        assert!(
            reference.promotions > 0,
            "{backend:?}: the reference run must exercise promotion"
        );
        assert!(
            reference.failures.vm_crashes + reference.failures.hv_crashes > 0,
            "{backend:?}: the reference run must exercise crash recovery"
        );
        let baseline = serde_json::to_string(&reference).unwrap();
        for jobs in [2usize, 8] {
            let r = run_guided_shared_with(&factory, &trace, cfg, jobs);
            assert_eq!(
                serde_json::to_string(&r).unwrap(),
                baseline,
                "{backend:?}: jobs={jobs} diverged from the jobs=1 reference"
            );
        }
    });
}

#[test]
fn guided_shared_forest_caps_are_byte_identical_to_the_default_cap() {
    // The snapshot-forest acceptance cross product: under tight node
    // caps, jobs ∈ {1, 2, 8} must serialize byte-identically to the
    // jobs=1 reference at the default cap on every registered backend —
    // the cap changes replay cost, never report bytes. cap=3 and cap=1
    // keep the LRU eviction path under pressure while doing it.
    let trace = boot_trace(150);
    for_every_backend!(|factory, backend| {
        let cfg = GuidedConfig {
            budget: 250,
            generation: 48,
            rng_seed: 7,
            ..GuidedConfig::default()
        };
        let reference = run_guided_shared_with(&factory, &trace, cfg, 1);
        assert!(
            reference.promotions > 0,
            "{backend:?}: the reference run must exercise promotion"
        );
        let baseline = serde_json::to_string(&reference).unwrap();
        for (jobs, cap) in [(1usize, 3), (2, 3), (8, 1)] {
            let forest = ConfiguredBackend::new(backend).with_forest(Some(ForestConfig { cap }));
            let r = run_guided_shared_with(&forest, &trace, cfg, jobs);
            assert_eq!(
                serde_json::to_string(&r).unwrap(),
                baseline,
                "{backend:?}: forest jobs={jobs} cap={cap} diverged from the default-cap reference"
            );
        }
    });
}

/// The campaign reference that never positions through the forest:
/// every test case replays its own prefix on a fresh target
/// ([`run_mutant_range_with`] over the whole cell), assembled and folded
/// in plan order.
fn pin_free_report<F: TargetFactory>(
    factory: &F,
    trace: &RecordedTrace,
    plan: &[TestCase],
) -> CampaignReport {
    let mut report = CampaignReport::new();
    for tc in plan {
        let cell = tc
            .chunks(usize::MAX)
            .map(|range| run_mutant_range_with(factory, trace, tc, range));
        let (result, coverage) = assemble_test_case(tc, cell, &mut report.corpus);
        report.fold_assembled(result, &coverage);
    }
    report
}

#[test]
fn campaign_forest_reports_are_byte_identical_to_forest_off() {
    // The campaign twin: prefix servers, which position every chunk
    // through pinned forest nodes, must fold to the same report bytes
    // as the "forest off" reference — a fresh target per test case that
    // replays its prefix and never pins or restores a node — for
    // jobs ∈ {1, 2, 8}, on every
    // registered backend, eviction pressure included.
    let trace = boot_trace(120);
    let mut plan = Vec::new();
    for (reason, area) in [
        (ExitReason::CrAccess, SeedArea::Vmcs), // crashy cell
        (ExitReason::Cpuid, SeedArea::Gpr),
        (ExitReason::IoInstruction, SeedArea::Vmcs),
    ] {
        plan.push(TestCase {
            mutants: 45,
            ..TestCase::new(
                Workload::OsBoot,
                find_seed(&trace, reason),
                reason,
                area,
                0xFEED,
            )
        });
    }

    for_every_backend!(|factory, backend| {
        let baseline = serde_json::to_string(&pin_free_report(&factory, &trace, &plan)).unwrap();
        for (jobs, cap) in [(1usize, ForestConfig::DEFAULT_CAP), (2, 2), (8, 1)] {
            let forest = ConfiguredBackend::new(backend).with_forest(Some(ForestConfig { cap }));
            let report = ParallelCampaign::with_factory(jobs, forest)
                .with_chunk(7)
                .run_trace(&trace, &plan);
            assert_eq!(
                serde_json::to_string(&report).unwrap(),
                baseline,
                "{backend:?}: forest jobs={jobs} cap={cap} diverged from the pin-free reference"
            );
        }
    });
}

/// A factory wrapper counting the positioning calls the campaign
/// engine makes on the targets it builds.
struct CountingFactory<F> {
    inner: F,
    boots: Arc<AtomicUsize>,
    pins: Arc<AtomicUsize>,
}

struct CountingTarget<T> {
    inner: T,
    boots: Arc<AtomicUsize>,
    pins: Arc<AtomicUsize>,
}

impl<T: FuzzTarget> FuzzTarget for CountingTarget<T> {
    fn boot(&mut self) {
        self.boots.fetch_add(1, Ordering::Relaxed);
        self.inner.boot();
    }

    fn submit(&mut self, seed: &iris_core::seed::VmSeed) -> iris_fuzzer::target::SubmitOutcome {
        self.inner.submit(seed)
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn pin_state(&mut self) -> Option<StateId> {
        self.pins.fetch_add(1, Ordering::Relaxed);
        self.inner.pin_state()
    }

    fn reset_to(&mut self, id: StateId) -> bool {
        self.inner.reset_to(id)
    }
}

impl<F: TargetFactory> TargetFactory for CountingFactory<F> {
    type Target<'t> = CountingTarget<F::Target<'t>>;

    fn build<'t>(&self, plan: BootPlan<'t>) -> Self::Target<'t> {
        CountingTarget {
            inner: self.inner.build(plan),
            boots: Arc::clone(&self.boots),
            pins: Arc::clone(&self.pins),
        }
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn description(&self) -> &'static str {
        self.inner.description()
    }

    fn forest(&self) -> Option<ForestConfig> {
        self.inner.forest()
    }
}

#[test]
fn whole_cell_campaign_boots_once_per_workload_and_pins_at_most_once_per_chunk() {
    // Positioning cost as a count: a jobs=1 whole-cell Table I campaign
    // boots one target per workload and positions every cell through
    // it, pinning a cell's prefix at most once. Booting per chunk, or
    // pinning every replayed prefix seed, fails here.
    let mut traces = BTreeMap::new();
    for workload in [Workload::OsBoot, Workload::CpuBound] {
        traces.insert(workload, record_trace(workload, 300, 42));
    }
    let plan = Table1::plan(&traces, 10, 7);
    for_every_backend!(|factory, backend| {
        let (boots, pins) = (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0)));
        let counting = CountingFactory {
            inner: factory,
            boots: Arc::clone(&boots),
            pins: Arc::clone(&pins),
        };
        let report = ParallelCampaign::with_factory(1, counting)
            .with_chunk(usize::MAX)
            .run(&traces, &plan);
        assert_eq!(report.results.len(), plan.len());
        let (boots, pins) = (boots.load(Ordering::Relaxed), pins.load(Ordering::Relaxed));
        assert_eq!(
            boots,
            traces.len(),
            "{backend:?}: one boot per workload, not per chunk"
        );
        assert!(
            pins <= plan.len(),
            "{backend:?}: {pins} pins for {} whole-cell chunks",
            plan.len()
        );
    });
}

#[test]
fn forest_resume_across_a_cap_change_is_byte_identical() {
    // Checkpoint fingerprints deliberately exclude the forest cap
    // (RELIABILITY.md): a run interrupted at the default cap must
    // resume under a tight one to the same bytes as the uninterrupted
    // reference — the promotion lineage in the v2 checkpoint is what
    // lets the resumed workers rebuild seed paths and re-pin them.
    use std::sync::atomic::AtomicBool;

    let trace = boot_trace(150);
    for_every_backend!(|factory, backend| {
        let cfg = GuidedConfig {
            budget: 250,
            generation: 48,
            rng_seed: 7,
            ..GuidedConfig::default()
        };
        let reference = run_guided_shared_with(&factory, &trace, cfg, 1);
        let baseline = serde_json::to_string(&reference).unwrap();

        // Interrupt a default-cap jobs=2 run at its second barrier…
        let stop = AtomicBool::new(false);
        let mut captured: Option<GuidedCheckpoint> = None;
        run_guided_shared_session(
            &factory,
            &trace,
            cfg,
            2,
            SharedRunOptions {
                policy: RunPolicy {
                    stop: Some(&stop),
                    ..RunPolicy::default()
                },
                resume: None,
            },
            |p| {
                captured = Some(p.checkpoint("forest-interop"));
                if p.generation >= 2 {
                    stop.store(true, Ordering::Relaxed);
                }
            },
        )
        .expect("interruption is not an error");

        // …and resume it under eviction pressure.
        let forest = ConfiguredBackend::new(backend).with_forest(Some(ForestConfig { cap: 2 }));
        let resumed = run_guided_shared_session(
            &forest,
            &trace,
            cfg,
            2,
            SharedRunOptions {
                policy: RunPolicy::default(),
                resume: captured,
            },
            |_| {},
        )
        .expect("resumed run completes");
        assert_eq!(
            serde_json::to_string(&resumed).unwrap(),
            baseline,
            "{backend:?}: cap-2 resume of a default-cap checkpoint diverged"
        );
    });
}

#[test]
fn injected_worker_panics_leave_guided_results_byte_identical() {
    // The re-lease law: a worker panicking mid-generation loses its
    // claimed slot to the re-lease list, a fresh context re-runs it,
    // and — because submissions are derived from canonical target
    // state, not worker history — the jobs=2 run with three injected
    // panics still serializes byte-identically to the clean jobs=1
    // reference on every registered backend.
    quiet_injected_faults();
    let trace = boot_trace(150);
    for_every_backend!(|factory, backend| {
        let cfg = GuidedConfig {
            budget: 250,
            generation: 48,
            rng_seed: 7,
            ..GuidedConfig::default()
        };
        let reference = run_guided_shared_with(&factory, &trace, cfg, 1);
        let baseline = serde_json::to_string(&reference).unwrap();

        // Two slot-indexed faults (tripping in the first batch that
        // reaches them) plus one claim-ordinal fault mid-batch.
        let faults = FaultPlan::new()
            .panic_once_at(3)
            .panic_once_at(17)
            .panic_at_claim(10);
        let options = SharedRunOptions {
            policy: RunPolicy {
                faults: Some(&faults),
                ..RunPolicy::default()
            },
            resume: None,
        };
        let r = run_guided_shared_session(&factory, &trace, cfg, 2, options, |_| {})
            .expect("panics within the restart budget are absorbed");
        assert_eq!(
            serde_json::to_string(&r).unwrap(),
            baseline,
            "{backend:?}: injected worker panics changed the guided result"
        );
    });
}

/// One shared trace for the proptest cases — recording is the expensive
/// part, and every case reads it immutably.
fn proptest_trace() -> &'static RecordedTrace {
    static TRACE: OnceLock<RecordedTrace> = OnceLock::new();
    TRACE.get_or_init(|| boot_trace(120))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The generational promotion-merge protocol is
    /// partition-independent: for arbitrary (jobs, generation size,
    /// budget, rng seed) — generation=1 makes every slot its own sync
    /// point, budgets that are not generation multiples exercise the
    /// ragged final generation — the shared-mode GuidedResult
    /// serializes byte-identically to the jobs=1 reference on every
    /// registered backend.
    #[test]
    fn generational_promotion_merge_is_partition_independent(
        jobs in 2usize..6,
        generation in 1u64..40,
        budget in 0u64..120,
        rng_seed in any::<u64>(),
    ) {
        let trace = proptest_trace();
        for_every_backend!(|factory, backend| {
            let cfg = GuidedConfig {
                budget,
                generation,
                rng_seed,
                ..GuidedConfig::default()
            };
            let reference = run_guided_shared_with(&factory, trace, cfg, 1);
            let sharded = run_guided_shared_with(&factory, trace, cfg, jobs);
            let sharded = serde_json::to_string(&sharded).expect("serializes");
            let reference = serde_json::to_string(&reference).expect("serializes");
            prop_assert!(
                sharded == reference,
                "{backend:?}: jobs={jobs} generation={generation} budget={budget} \
                 diverged from the jobs=1 reference"
            );
        });
    }

    /// Arbitrary forest shapes restore byte-identically to a fresh
    /// rebuild from s1: a random walk of submissions, pins, and
    /// restores — depth and branching driven by the action list, LRU
    /// eviction by the tight cap — must leave every surviving node
    /// restoring to exactly the state a freshly booted target reaches by
    /// replaying that node's seed path from s1, on every registered
    /// backend. (Node state is pure in the path; the delta encoding is
    /// invisible.)
    #[test]
    fn forest_shapes_restore_byte_identically_to_rebuild_from_s1(
        actions in proptest::collection::vec(any::<u8>(), 1..24),
        cap in 1usize..5,
    ) {
        let trace = proptest_trace();
        for_every_backend!(|factory, backend| {
            let forest_factory =
                ConfiguredBackend::new(backend).with_forest(Some(ForestConfig { cap }));
            let mut target = forest_factory.build(BootPlan {
                trace,
                fast_forward: false,
            });
            target.boot();
            // The model: each pin's seed path from s1, mirrored by the
            // walk. A crash resets to the root (the empty path), like
            // the drivers do.
            let mut path: Vec<usize> = Vec::new();
            let mut pins: Vec<(StateId, Vec<usize>)> = Vec::new();
            for &a in &actions {
                match a % 3 {
                    0 => {
                        let k = (a as usize / 3) % trace.seeds.len().min(40);
                        if target.submit(&trace.seeds[k]).crash.is_some() {
                            target.reset();
                            path.clear();
                        } else {
                            path.push(k);
                        }
                    }
                    1 => {
                        if let Some(id) = target.pin_state() {
                            pins.push((id, path.clone()));
                        }
                    }
                    _ => {
                        if pins.is_empty() {
                            target.reset();
                            path.clear();
                        } else {
                            let pick = (a as usize / 3) % pins.len();
                            let (id, p) = pins[pick].clone();
                            if target.reset_to(id) {
                                path = p;
                            } else {
                                // Evicted under the tight cap — fall
                                // back to the root, dropping the stale
                                // pin from the model.
                                pins.remove(pick);
                                target.reset();
                                path.clear();
                            }
                        }
                    }
                }
            }
            // Every pin that still restores must match the fresh
            // rebuild-from-s1 reference for its path, probed by a
            // submission from the restored state.
            for (id, p) in pins {
                if !target.reset_to(id) {
                    continue; // evicted — nothing to compare
                }
                let probe = target.submit(&trace.seeds[0]);

                let mut fresh = factory.build(BootPlan {
                    trace,
                    fast_forward: false,
                });
                fresh.boot();
                for &k in &p {
                    let out = fresh.submit(&trace.seeds[k]);
                    prop_assert!(
                        out.crash.is_none(),
                        "{backend:?}: model path replay crashed — walk bookkeeping is wrong"
                    );
                }
                let reference = fresh.submit(&trace.seeds[0]);
                prop_assert!(
                    probe.coverage == reference.coverage
                        && probe.crash == reference.crash
                        && probe.cycles == reference.cycles,
                    "{backend:?}: cap={cap} node {id:?} (path {p:?}) diverged from \
                     the rebuild-from-s1 reference"
                );
            }
        });
    }

    /// Interrupt-then-resume is exact at every generation barrier: for
    /// arbitrary (jobs, generation size, budget, interruption point) —
    /// including stops after the final barrier, i.e. resuming an
    /// already-complete checkpoint — capturing the barrier checkpoint,
    /// stopping cooperatively, and resuming from it serializes
    /// byte-identically to the uninterrupted jobs=1 reference on every
    /// registered backend.
    #[test]
    fn interrupt_at_any_barrier_then_resume_is_byte_identical(
        jobs in 1usize..4,
        generation in 1u64..24,
        budget in 1u64..80,
        stop_after in 0usize..6,
        rng_seed in any::<u64>(),
    ) {
        use std::sync::atomic::AtomicBool;

        let trace = proptest_trace();
        for_every_backend!(|factory, backend| {
            let cfg = GuidedConfig {
                budget,
                generation,
                rng_seed,
                ..GuidedConfig::default()
            };
            let reference = run_guided_shared_with(&factory, trace, cfg, 1);
            let reference = serde_json::to_string(&reference).expect("serializes");

            // First leg: capture the checkpoint at every barrier (the
            // newest one mirrors what a durable writer would hold) and
            // trip the stop flag once `stop_after` generations are in.
            let stop = AtomicBool::new(false);
            let mut captured: Option<GuidedCheckpoint> = None;
            let first = run_guided_shared_session(
                &factory,
                trace,
                cfg,
                jobs,
                SharedRunOptions {
                    policy: RunPolicy { stop: Some(&stop), ..RunPolicy::default() },
                    resume: None,
                },
                |p| {
                    captured = Some(p.checkpoint("prop-fingerprint"));
                    if p.generation >= stop_after {
                        stop.store(true, Ordering::Relaxed);
                    }
                },
            )
            .expect("interruption is not an error");
            prop_assert!(
                first.executions <= budget,
                "{backend:?}: interrupted leg overran its budget"
            );

            // Second leg: resume from the captured barrier state.
            let resumed = run_guided_shared_session(
                &factory,
                trace,
                cfg,
                jobs,
                SharedRunOptions { policy: RunPolicy::default(), resume: captured },
                |_| {},
            )
            .expect("resumed run completes");
            let resumed = serde_json::to_string(&resumed).expect("serializes");
            prop_assert!(
                resumed == reference,
                "{backend:?}: jobs={jobs} generation={generation} budget={budget} \
                 stop_after={stop_after} — interrupt+resume diverged from the \
                 uninterrupted jobs=1 reference"
            );
        });
    }
}

/// One step of the reboot≡restore walk.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Submit recorded seed `k`.
    Recorded(usize),
    /// Submit a VM-fatal mutant (guest RIP in the canonical hole).
    VmFatal,
    /// Submit the GETSEC reason flip: hypervisor-fatal on every backend.
    GetsecFlip,
    /// Submit a CPUID seed querying a reserved leaf: the `faulty`
    /// backend's planted `BUG_ON`.
    PlantedCpuid,
    /// Submit a CR access with qualification bits 63:32 set: the
    /// `faulty` backend's planted host #PF.
    PlantedCr,
    /// Pin the current state.
    Pin,
    /// Recover with `reset`.
    Reset,
    /// Recover with `reset_to` on pin `i` (mod the pin count).
    ResetTo(usize),
}

impl Step {
    fn decode(op: u8, arg: u8) -> Step {
        match op % 8 {
            0 | 1 => Step::Recorded(usize::from(arg)),
            2 => Step::VmFatal,
            3 => Step::GetsecFlip,
            4 => Step::PlantedCpuid,
            5 => Step::PlantedCr,
            6 => Step::Pin,
            _ => Step::recovery(arg),
        }
    }

    /// `reset` or `reset_to`, by the argument's low bit.
    fn recovery(arg: u8) -> Step {
        if arg.is_multiple_of(2) {
            Step::Reset
        } else {
            Step::ResetTo(usize::from(arg))
        }
    }
}

/// The mutant a fatal [`Step`] submits, built from recorded seeds so
/// only the planted field differs.
fn fatal_mutant(trace: &RecordedTrace, step: Step) -> Option<iris_core::seed::VmSeed> {
    match step {
        Step::VmFatal => {
            let mut m = trace.seeds[find_seed(trace, ExitReason::CrAccess)].clone();
            for pair in &mut m.reads {
                if pair.0 == VmcsField::GuestRip {
                    pair.1 ^= 1u64 << 62;
                }
            }
            Some(m)
        }
        Step::GetsecFlip => Some(hv_fatal_mutant(
            trace,
            find_seed(trace, ExitReason::CrAccess),
        )),
        Step::PlantedCpuid => {
            let mut m = trace.seeds[find_seed(trace, ExitReason::Cpuid)].clone();
            m.gprs.set32(
                iris_vtx::gpr::Gpr::Rax,
                iris_hv::faults::FAULT_LEAF_RANGE.start,
            );
            Some(m)
        }
        Step::PlantedCr => {
            let mut m = trace.seeds[find_seed(trace, ExitReason::CrAccess)].clone();
            for pair in &mut m.reads {
                if pair.0 == VmcsField::ExitQualification {
                    pair.1 |= 1u64 << 40;
                }
            }
            Some(m)
        }
        _ => None,
    }
}

/// What the reboot≡restore walk compares of the hypervisor globals:
/// clock, console, cumulative coverage, crash state, IRIS toggles.
fn globals(target: &HvTarget) -> String {
    let hv = target.hypervisor().expect("booted");
    let console: Vec<&str> = hv.log.lines().map(|l| l.message.as_str()).collect();
    format!(
        "tsc={} console={console:?} coverage={} crashed={:?} ctl={:?}",
        hv.tsc.now(),
        hv.coverage.lines(),
        hv.crashed,
        hv.fuzzing_ctl
    )
}

/// After a recovery: the target must be indistinguishable from a fresh
/// `build()` + `boot()` replayed along `path`. Right after a `reset`
/// that includes the hypervisor globals; after a `reset_to` the globals
/// are `s1`'s by design, so only the submissions are compared. The
/// probes advance both sides; returns whether the target is still clean
/// afterwards.
fn check_recovery(
    factory: &ConfiguredBackend,
    plan: BootPlan<'_>,
    target: &mut HvTarget,
    path: &mut Vec<usize>,
    probes: &[usize],
    after_reset: bool,
) -> Result<bool, TestCaseError> {
    let (backend, cap) = (factory.backend, factory.forest.cap);
    let trace = plan.trace;
    let mut fresh = factory.build(plan);
    fresh.boot();
    for &k in path.iter() {
        let out = fresh.submit(&trace.seeds[k]);
        prop_assert!(
            out.crash.is_none(),
            "{backend:?}: model path replay crashed — walk bookkeeping is wrong"
        );
    }
    if after_reset {
        let (got, want) = (globals(target), globals(&fresh));
        prop_assert!(
            got == want,
            "{backend:?} cap={cap}: hypervisor globals after reset differ from a \
             fresh boot: {got} vs {want}"
        );
    }
    for &k in probes {
        let got = target.submit(&trace.seeds[k]);
        let want = fresh.submit(&trace.seeds[k]);
        prop_assert!(
            got.coverage == want.coverage && got.crash == want.crash && got.cycles == want.cycles,
            "{backend:?} cap={cap}: probe seed {k} after recovery to path {path:?} \
             diverged from the fresh reference: {:?}/{} vs {:?}/{}",
            got.crash,
            got.cycles,
            want.crash,
            want.cycles
        );
        if got.crash.is_some() {
            return Ok(false);
        }
        path.push(k);
    }
    Ok(true)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Reboot ≡ restore: arbitrary interleavings of recorded seeds,
    /// VM-fatal and hypervisor-fatal mutants (the GETSEC reason flip on
    /// every backend, plus `faulty`'s planted CPUID `BUG_ON` and
    /// CR-qualification host #PF), pins and `reset`/`reset_to`
    /// recoveries. After every recovery the next submissions' coverage,
    /// crash verdict (console included) and cycles — and, after a
    /// `reset`, the hypervisor globals — must equal those of a freshly
    /// built and booted reference at the same logical state, on every
    /// backend at the default forest cap and under a tight one.
    #[test]
    fn crash_recovery_by_restore_matches_a_fresh_boot(
        steps in proptest::collection::vec((any::<u8>(), any::<u8>()), 1..28),
        prefix in 0usize..100,
        probe_pick in any::<u64>(),
    ) {
        let trace = proptest_trace();
        let plan = BootPlan::for_test_case(trace);
        let limit = trace.seeds.len().min(60);
        // Probes: two recorded seeds, drawn once per case.
        let probes = [
            (probe_pick % limit as u64) as usize,
            ((probe_pick >> 32) % limit as u64) as usize,
        ];
        for backend in Backend::ALL {
            for cap in [ForestConfig::DEFAULT_CAP, 3] {
                let factory = ConfiguredBackend::new(backend).with_forest(Some(ForestConfig { cap }));
                let mut target = factory.build(plan);
                target.boot();
                // The walk starts at the seed prefix, reached by replay;
                // the model path carries it until the first reset.
                replay_seeds(&mut target, &trace.seeds[..prefix]);
                let mut path: Vec<usize> = (0..prefix).collect();
                let mut pins: Vec<(StateId, Vec<usize>)> = Vec::new();
                let mut clean = true;
                for &(op, arg) in &steps {
                    let mut step = Step::decode(op, arg);
                    if !clean && !matches!(step, Step::Reset | Step::ResetTo(_)) {
                        // A crashed target must recover before anything
                        // else; pick the recovery from the step's bits.
                        step = Step::recovery(arg);
                    }
                    match step {
                        Step::Recorded(k) => {
                            let k = k % limit;
                            if target.submit(&trace.seeds[k]).crash.is_some() {
                                clean = false;
                            } else {
                                path.push(k);
                            }
                        }
                        Step::Pin => {
                            if let Some(id) = target.pin_state() {
                                pins.push((id, path.clone()));
                            }
                        }
                        Step::Reset | Step::ResetTo(_) => {
                            let mut after_reset = true;
                            path.clear();
                            if let (Step::ResetTo(i), false) = (step, pins.is_empty()) {
                                let pick = i % pins.len();
                                let (id, p) = pins[pick].clone();
                                if target.reset_to(id) {
                                    path = p;
                                    after_reset = false;
                                } else {
                                    pins.remove(pick); // evicted under the tight cap
                                }
                            }
                            if after_reset {
                                target.reset();
                            }
                            clean = check_recovery(
                                &factory, plan, &mut target, &mut path, &probes, after_reset,
                            )?;
                        }
                        fatal => {
                            let mutant = fatal_mutant(trace, fatal).expect("a mutant step");
                            let out = target.submit(&mutant);
                            if matches!(fatal, Step::GetsecFlip) {
                                prop_assert_eq!(
                                    out.crash.as_ref().map(|c| c.kind),
                                    Some(iris_fuzzer::failure::FailureKind::HypervisorCrash)
                                );
                            }
                            if backend == Backend::Faulty
                                && matches!(fatal, Step::PlantedCpuid | Step::PlantedCr)
                            {
                                prop_assert!(
                                    out.crash.as_ref().is_some_and(|c| c.console.contains("planted")),
                                    "{backend:?}: planted fault did not fire: {:?}", out.crash
                                );
                            }
                            // Mutants leave the recorded path either way.
                            clean = false;
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn planted_faults_fire_only_on_the_faulty_backend() {
    let trace = boot_trace(200);
    // One cell per planted defect: (CPUID, GPR) reaches the reserved-leaf
    // BUG, (CR ACCESS, VMCS) the qualification pointer, (I/O, VMCS) the
    // DMA window.
    let plan = vec![
        TestCase {
            mutants: 150,
            ..TestCase::new(
                Workload::OsBoot,
                find_seed(&trace, ExitReason::Cpuid),
                ExitReason::Cpuid,
                SeedArea::Gpr,
                7,
            )
        },
        TestCase {
            mutants: 150,
            ..TestCase::new(
                Workload::OsBoot,
                find_seed(&trace, ExitReason::CrAccess),
                ExitReason::CrAccess,
                SeedArea::Vmcs,
                7,
            )
        },
        TestCase {
            mutants: 150,
            ..TestCase::new(
                Workload::OsBoot,
                find_seed(&trace, ExitReason::IoInstruction),
                ExitReason::IoInstruction,
                SeedArea::Vmcs,
                7,
            )
        },
    ];

    let faulty = ParallelCampaign::with_factory(2, Backend::Faulty).run_trace(&trace, &plan);
    let detections = iris_fuzzer::target::detect_planted_faults(&faulty.corpus);
    for (fault, hit) in &detections {
        assert!(
            hit.is_some(),
            "faulty backend: campaign missed the planted fault {:?}",
            fault.name
        );
    }

    let stock = ParallelCampaign::with_factory(2, Backend::Iris).run_trace(&trace, &plan);
    assert!(
        stock
            .corpus
            .crashes
            .iter()
            .all(|c| !c.console.contains("planted")),
        "stock backend must not exhibit planted-fault banners"
    );
}
