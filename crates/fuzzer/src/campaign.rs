//! Campaign execution (§VII, Fig. 11).
//!
//! A campaign runs test cases: each replays the recorded behavior up to
//! `VM_seed_R` through the IRIS replay mechanism (moving the hypervisor
//! into the valid state `s1`), measures the coverage baseline of the
//! un-mutated `VM_seed_R`, then submits the fuzzing sequence
//! `C(VM_seed_R)_1..M` and reports the newly discovered coverage and the
//! failure statistics — one Table I cell per test case.
//!
//! This module holds the per-chunk core of that loop
//! ([`run_mutant_range_on`]) and the assembly of a test case's chunks
//! ([`assemble_test_case`]). Every driver — the one campaign engine,
//! [`crate::parallel::ParallelCampaign`], and the distributed workers
//! (`crates/dist`) — runs the core on a long-lived target positioned
//! through the snapshot forest ([`crate::parallel::PrefixServer`]);
//! [`run_mutant_range_with`] is the pin-free reference the tests hold
//! it against. The SUT lifecycle (reach `s1`, submit, reset after a
//! crash) lives behind the
//! [`FuzzTarget`] trait, so the same core fuzzes any registered backend
//! ([`crate::target::Backend`]); it is generic over the
//! [`TargetFactory`], keeping submission statically dispatched.

use crate::corpus::{Corpus, CrashRecord};
use crate::failure::FailureStats;
use crate::mutation::{mutant_rng, mutate};
use crate::target::{replay_seeds, BootPlan, FuzzTarget, TargetFactory};
use crate::testcase::{MutantRange, TestCase};
use iris_core::trace::RecordedTrace;
use iris_hv::coverage::CoverageMap;
use serde::{Deserialize, Serialize};

/// The result of one test case — one Table I cell contribution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TestCaseResult {
    /// The test case that ran.
    pub testcase: TestCase,
    /// Coverage lines of the un-mutated `VM_seed_R` (the baseline).
    pub baseline_lines: u64,
    /// New lines the fuzzing sequence discovered on top of the baseline.
    pub new_lines: u64,
    /// The paper's "% new code coverage discovered".
    pub coverage_increase_percent: f64,
    /// Failure statistics over the sequence.
    pub failures: FailureStats,
}

/// Default dummy-VM RAM for the campaign and guided drivers:
/// the seeds carry the state, so RAM only matters for the
/// guest-memory-dependent paths.
pub const DEFAULT_RAM_BYTES: u64 = 16 << 20;

/// Partial output of one mutant-range run — everything the aggregator
/// needs to reassemble the test case's [`TestCaseResult`]. One value is
/// produced per chunk, so the parallel executor's channel carries one
/// message per chunk, not per seed. Serializable because `crates/dist`
/// ships exactly this value over the wire as a `ChunkDone` frame — the
/// wire protocol adds nothing to what the in-process channel carries.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChunkOutput {
    /// The mutant range this output covers.
    pub range: MutantRange,
    /// Coverage of the un-mutated `VM_seed_R` — identical for every
    /// chunk of a test case (boot is deterministic; the conformance
    /// suite asserts it), carried so any chunk can supply the baseline.
    pub baseline: CoverageMap,
    /// Blocks the range's mutants touched beyond the baseline.
    pub discovered: CoverageMap,
    /// Failure counters over the range (`submitted == range.len`).
    pub failures: FailureStats,
    /// Chunk-local crash corpus (records carry absolute mutant indices).
    pub corpus: Corpus,
}

/// The pin-free test reference for one mutant range: a fresh target
/// that replays the seed prefix by plain submission, then runs the
/// chunk core with a reset to `s1` plus a re-replay as crash recovery.
/// It never pins or restores a forest node; no driver runs it.
///
/// The mutant stream follows the per-range RNG law
/// ([`crate::mutation::mutant_rng`]), so the outcome stream is
/// invariant under the partition of `0..mutants` into chunks.
///
/// # Panics
/// Panics if `range` reaches beyond `testcase.mutants` or
/// `testcase.seed_index` beyond the trace — a malformed chunk list, not
/// a runtime condition.
pub fn run_mutant_range_with<F: TargetFactory>(
    factory: &F,
    trace: &RecordedTrace,
    testcase: &TestCase,
    range: MutantRange,
) -> ChunkOutput {
    // An out-of-trace seed index replays nothing here and trips the
    // core's bounds assert.
    let prefix = trace.seeds.get(..testcase.seed_index).unwrap_or_default();
    let mut target = factory.build(BootPlan::for_test_case(trace));
    target.boot();
    replay_seeds(&mut target, prefix);
    run_mutant_range_on(
        &mut target,
        &mut |t: &mut _| {
            t.reset();
            replay_seeds(t, prefix);
        },
        trace,
        testcase,
        range,
    )
}

/// The chunk core over an **already-positioned** target: `target` must
/// sit in the test case's `s1` (the state right before `VM_seed_R`),
/// and `restore_s1` must re-establish exactly that state — it is
/// invoked after every crashing mutant, before the driver re-submits
/// `VM_seed_R`. [`crate::parallel::PrefixServer`] passes a long-lived
/// target positioned via a pinned
/// [`iris_core::forest::SnapshotForest`] node, with a `restore_s1`
/// that restores that node in O(delta); [`run_mutant_range_with`]
/// passes a fresh target and a reset plus prefix replay. Because the
/// positioned state is the same in both cases (a forest node's state
/// is a pure function of the replayed prefix), the chunk output is
/// byte-identical either way.
///
/// # Panics
/// Panics if `range` reaches beyond `testcase.mutants` or
/// `testcase.seed_index` beyond the trace — a malformed chunk list, not
/// a runtime condition.
pub fn run_mutant_range_on<T: FuzzTarget + ?Sized>(
    target: &mut T,
    restore_s1: &mut dyn FnMut(&mut T),
    trace: &RecordedTrace,
    testcase: &TestCase,
    range: MutantRange,
) -> ChunkOutput {
    assert!(
        range.end() <= testcase.mutants,
        "chunk {range:?} beyond the test case's {} mutants",
        testcase.mutants
    );
    assert!(
        testcase.seed_index < trace.seeds.len(),
        "test case seed index {} beyond the trace's {} seeds",
        testcase.seed_index,
        trace.seeds.len()
    );
    // lint:allow(panic-path-audit) -- seed_index asserted in range just above
    let target_seed = &trace.seeds[testcase.seed_index];
    let baseline = target.submit(target_seed).coverage;

    // The fuzzing (sub-)sequence.
    let mut discovered = CoverageMap::new();
    let mut failures = FailureStats::default();
    let mut corpus = Corpus::new();
    for i in range.indices() {
        let (mutant, applied) = mutate(
            target_seed,
            testcase.area,
            &mut mutant_rng(testcase.rng_seed, i as u64),
        );
        let out = target.submit(&mutant);
        failures.record_kind(out.crash.as_ref().map(|v| v.kind));
        for (b, l) in out.coverage.iter() {
            if !baseline.contains(b) {
                discovered.hit(b, l);
            }
        }
        if let Some(verdict) = out.crash {
            corpus.push(CrashRecord {
                testcase: testcase.clone(),
                mutant_index: i,
                seed: mutant,
                mutation: applied,
                kind: verdict.kind,
                console: verdict.console,
            });
            // Back to s1 (the paper's test-case restart after a
            // failure — a forest-node restore, also when the SUT
            // itself died), then re-establish the post-target state.
            restore_s1(target);
            let _ = target.submit(target_seed);
        }
    }

    ChunkOutput {
        range,
        baseline,
        discovered,
        failures,
        corpus,
    }
}

/// Reassemble a test case's [`TestCaseResult`] from its chunk outputs.
///
/// `chunks` must arrive in ascending `range.start` order and partition
/// `0..testcase.mutants` exactly (debug-asserted) — the defined merge
/// order that keeps the assembled result byte-identical however the
/// chunks were scheduled. Coverage merges word-wise, failure counters
/// fold, and chunk-local corpora are absorbed **by move** into `corpus`
/// (no crash-seed re-cloning), preserving absolute-mutant-index
/// discovery order so the dedup keeps the same first-reproducer
/// whatever the chunk size.
///
/// Returns the result plus the coverage the test case touched
/// (baseline ∪ discovered).
///
/// # Panics
/// Panics if `chunks` is empty — every test case produces at least one
/// chunk ([`TestCase::chunks`]).
pub fn assemble_test_case(
    testcase: &TestCase,
    chunks: impl IntoIterator<Item = ChunkOutput>,
    corpus: &mut Corpus,
) -> (TestCaseResult, CoverageMap) {
    let mut baseline: Option<CoverageMap> = None;
    let mut discovered = CoverageMap::new();
    let mut failures = FailureStats::default();
    let mut next = 0usize;
    for chunk in chunks {
        debug_assert_eq!(
            chunk.range.start, next,
            "chunks must be ordered by range start and partition the mutant range"
        );
        next = chunk.range.end();
        match &baseline {
            None => baseline = Some(chunk.baseline),
            Some(first) => debug_assert_eq!(
                first, &chunk.baseline,
                "per-chunk baselines diverged — the target's boot is not deterministic"
            ),
        }
        discovered.merge(&chunk.discovered);
        failures.merge(&chunk.failures);
        corpus.absorb(chunk.corpus);
    }
    debug_assert_eq!(next, testcase.mutants, "chunks must cover 0..mutants");
    // lint:allow(panic-path-audit) -- TestCase::chunks always yields at least one chunk (debug-asserted above), so the first chunk set the baseline
    let baseline = baseline.expect("every test case yields at least one chunk");

    let baseline_lines = baseline.lines();
    let new_lines = discovered.lines();
    let result = TestCaseResult {
        testcase: testcase.clone(),
        baseline_lines,
        new_lines,
        // One percent rule for the whole crate (failure.rs): a
        // zero-line baseline with discoveries is 100% new, not 0%.
        coverage_increase_percent: crate::failure::percent(new_lines, baseline_lines),
        failures,
    };
    let mut touched = baseline;
    touched.merge(&discovered);
    (result, touched)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mutation::SeedArea;
    use crate::parallel::{CampaignReport, ParallelCampaign};
    use crate::target::{record_trace, Backend};
    use crate::testcase::TestCase;
    use iris_guest::workloads::Workload;
    use iris_vtx::exit::ExitReason;

    fn boot_trace(n: usize) -> RecordedTrace {
        record_trace(Workload::OsBoot, n, 42)
    }

    /// One test case on the campaign engine's reference configuration:
    /// one worker, one chunk spanning the whole cell.
    fn run_cell<F: TargetFactory>(
        factory: F,
        trace: &RecordedTrace,
        tc: &TestCase,
    ) -> CampaignReport {
        ParallelCampaign::with_factory(1, factory)
            .with_chunk(usize::MAX)
            .run_trace(trace, std::slice::from_ref(tc))
    }

    fn find_seed(trace: &RecordedTrace, reason: ExitReason) -> usize {
        trace
            .seeds
            .iter()
            .position(|s| s.reason == reason)
            .expect("reason present in trace")
    }

    #[test]
    fn vmcs_mutation_discovers_new_coverage_and_crashes() {
        let trace = boot_trace(120);
        let idx = find_seed(&trace, ExitReason::CrAccess);
        let tc = TestCase {
            mutants: 150,
            ..TestCase::new(
                Workload::OsBoot,
                idx,
                ExitReason::CrAccess,
                SeedArea::Vmcs,
                3,
            )
        };
        let report = run_cell(Backend::Iris, &trace, &tc);
        let r = &report.results[0];
        assert!(r.baseline_lines > 0);
        assert!(r.new_lines > 0, "bit flips must open new paths");
        assert!(r.coverage_increase_percent > 0.0);
        // Flipping VMCS values (incl. the exit reason) produces crashes.
        assert!(
            r.failures.hv_crashes + r.failures.vm_crashes > 0,
            "{:?}",
            r.failures
        );
        assert_eq!(
            report.corpus.observed(),
            r.failures.hv_crashes + r.failures.vm_crashes
        );
        // 150 VMCS flips hammer a handful of mutation sites; dedup keeps
        // one reproducer per (kind, site, console) signature.
        let unique = report.corpus.unique();
        assert!(unique > 0);
        assert!(
            (unique as u64) < report.corpus.observed(),
            "a crashy site must not flood the corpus: {unique} unique of {}",
            report.corpus.observed()
        );
    }

    #[test]
    fn gpr_mutation_is_mostly_harmless() {
        let trace = boot_trace(120);
        let idx = find_seed(&trace, ExitReason::Cpuid);
        let tc = TestCase {
            mutants: 100,
            ..TestCase::new(Workload::OsBoot, idx, ExitReason::Cpuid, SeedArea::Gpr, 4)
        };
        let report = run_cell(Backend::Iris, &trace, &tc);
        let r = &report.results[0];
        // The paper: "In all other cases, the hypervisor is not affected
        // by the mutation" (GPR mutations outside CR ACCESS).
        assert_eq!(r.failures.hv_crashes, 0);
        // But different CPUID leaves do reveal new leaf-handler coverage.
        assert!(r.new_lines > 0);
    }

    #[test]
    fn crash_recovery_restores_the_target_state() {
        let trace = boot_trace(60);
        let idx = find_seed(&trace, ExitReason::CrAccess);
        let tc = TestCase {
            mutants: 60,
            ..TestCase::new(
                Workload::OsBoot,
                idx,
                ExitReason::CrAccess,
                SeedArea::Vmcs,
                5,
            )
        };
        let report = run_cell(Backend::Iris, &trace, &tc);
        let r = &report.results[0];
        // Even with crashes along the way, all mutants were submitted.
        assert_eq!(r.failures.submitted, 60);
    }

    #[test]
    fn chunked_ranges_reassemble_the_unchunked_result() {
        let trace = boot_trace(80);
        let idx = find_seed(&trace, ExitReason::CrAccess);
        let tc = TestCase {
            mutants: 45,
            ..TestCase::new(
                Workload::OsBoot,
                idx,
                ExitReason::CrAccess,
                SeedArea::Vmcs,
                11,
            )
        };
        let factory = Backend::Iris;
        let run = |chunk: usize| {
            let outputs: Vec<ChunkOutput> = tc
                .chunks(chunk)
                .map(|r| run_mutant_range_with(&factory, &trace, &tc, r))
                .collect();
            let mut corpus = Corpus::new();
            let (result, cov) = assemble_test_case(&tc, outputs, &mut corpus);
            (result, cov, corpus)
        };
        // The reference: one chunk spanning the whole cell (one boot,
        // one baseline measurement).
        let (ref_result, ref_cov, ref_corpus) = run(usize::MAX);
        assert!(
            ref_result.failures.hv_crashes + ref_result.failures.vm_crashes > 0,
            "the reference run must exercise crash recovery"
        );

        for chunk in [1usize, 7, 16, 45, 100] {
            let (result, cov, corpus) = run(chunk);
            assert_eq!(
                serde_json::to_string(&result).unwrap(),
                serde_json::to_string(&ref_result).unwrap(),
                "chunk={chunk} diverged from the whole-cell run"
            );
            assert_eq!(cov, ref_cov, "chunk={chunk}: touched coverage diverged");
            assert_eq!(
                serde_json::to_string(&corpus).unwrap(),
                serde_json::to_string(&ref_corpus).unwrap(),
                "chunk={chunk}: corpus diverged"
            );
        }
    }

    #[test]
    #[should_panic(expected = "beyond the test case")]
    fn out_of_range_chunk_is_a_driver_bug() {
        let trace = boot_trace(40);
        let tc = TestCase {
            mutants: 5,
            ..TestCase::new(Workload::OsBoot, 0, trace.seeds[0].reason, SeedArea::Gpr, 1)
        };
        let _ = run_mutant_range_with(
            &Backend::Iris,
            &trace,
            &tc,
            MutantRange { start: 4, len: 2 },
        );
    }

    #[test]
    fn faulty_backend_detects_the_planted_cpuid_bug_under_gpr_mutation() {
        // The ground-truth scenario: the same GPR fuzzing sequence that
        // is harmless on the stock backend finds the planted reserved-
        // leaf BUG on the faulty one.
        let trace = boot_trace(120);
        let idx = find_seed(&trace, ExitReason::Cpuid);
        let tc = TestCase {
            mutants: 150,
            ..TestCase::new(Workload::OsBoot, idx, ExitReason::Cpuid, SeedArea::Gpr, 4)
        };
        let report = run_cell(Backend::Faulty, &trace, &tc);
        let r = &report.results[0];
        assert!(
            r.failures.hv_crashes > 0,
            "planted CPUID bug must fire under GPR mutation: {:?}",
            r.failures
        );
        assert!(report
            .corpus
            .crashes
            .iter()
            .any(|c| c.console.contains("Xen BUG at cpuid.c")));
    }
}
