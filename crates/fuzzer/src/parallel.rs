//! Parallel sharded campaign execution with sub-test-case work stealing.
//!
//! The paper's PoC fuzzer (§VII) submits test cases strictly
//! sequentially. A campaign plan, however, is embarrassingly parallel —
//! and since the per-range RNG law ([`crate::mutation::mutant_rng`])
//! made the mutant stream partition-invariant, so is every test case's
//! mutant range.
//! [`ParallelCampaign`] therefore steals work at **chunk** granularity
//! ([`TestCase::chunks`], default [`crate::testcase::DEFAULT_CHUNK`]):
//! the plan is precomputed into a flat chunk list in
//! `(test_case_index, range_start)` order and handed to the shared
//! work-stealing executor ([`crate::executor`]) — N worker threads
//! claim chunks off an **atomic cursor** (one `fetch_add` per claim —
//! no lock on the hot path), each worker runs its chunk on a private
//! long-lived target (see below), and the executor delivers one
//! [`ChunkOutput`] per chunk (not per seed) back in chunk-index order.
//! The aggregator therefore sees each test case's chunks contiguously
//! and in `range_start` order, assembles them
//! ([`crate::campaign::assemble_test_case`]) and folds completed test
//! cases into the report in **plan order** — coverage word-merged,
//! [`FailureStats`] folded, chunk-local [`Corpus`] shards absorbed by
//! move.
//!
//! Chunking is what keeps one huge-`M` cell (the paper's 10 000-mutant
//! test cases) from pinning a single worker while the rest of the pool
//! idles: wall-clock is bounded by total mutants, not by the largest
//! cell.
//!
//! Each worker keeps **one long-lived target per workload** (a
//! [`PrefixServer`]) and boots it once, to the forest root; the boot
//! replays no seeds. Positioning at a test case's seed prefix restores
//! the deepest pinned [`iris_core::forest::SnapshotForest`] node and
//! replays only the remaining seeds — O(delta) instead of O(prefix) —
//! then pins the reached prefix once, so crash recovery inside the
//! chunk and later chunks of the same cell restore it directly. Pins
//! are pure accelerators (an evicted node is re-derived by replay), so
//! a positioned target is in exactly the state plain replay from `s1`
//! reaches ([`crate::campaign::run_mutant_range_with`], the pin-free
//! test reference). The distributed workers (`crates/dist`) keep one
//! prefix server per job across leases the same way.
//!
//! Determinism is a hard requirement: the mutant stream is a pure
//! function of `(rng_seed, mutant_index)`, chunk outputs merge in a
//! defined order, and folding is ordered by plan index — so the report
//! (results, merged coverage, folded stats, deduplicated corpus) is
//! byte-identical for **any** `(jobs, chunk)` combination and forest
//! cap. [`ParallelCampaign`] is the only campaign engine: `jobs=1` is
//! the reference (`with_chunk(usize::MAX)` makes it the paper's
//! one-position-per-test-case loop), and the committed goldens under
//! `tests/golden/` pin its report bytes.

use crate::campaign::{assemble_test_case, run_mutant_range_on, ChunkOutput, TestCaseResult};
use crate::checkpoint::CampaignCheckpoint;
use crate::corpus::Corpus;
use crate::executor::{ExecutorError, RunPolicy};
use crate::failure::FailureStats;
use crate::target::{replay_seeds, Backend, BootPlan, FuzzTarget, TargetFactory};
use crate::testcase::{MutantRange, TestCase, DEFAULT_CHUNK};
use iris_core::forest::StateId;
use iris_core::trace::RecordedTrace;
use iris_guest::workloads::Workload;
use iris_hv::coverage::CoverageMap;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

pub use crate::executor::available_jobs;

/// Aggregated outcome of a campaign plan — everything Table I needs,
/// plus the merged coverage and the deduplicated crash corpus.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignReport {
    /// One result per planned test case, in plan order.
    pub results: Vec<TestCaseResult>,
    /// Union of every test case's touched coverage (baseline ∪
    /// discovered), merged word-wise.
    pub coverage: CoverageMap,
    /// Folded failure counters over the whole plan.
    pub failures: FailureStats,
    /// Deduplicated crash corpus over the whole plan.
    pub corpus: Corpus,
}

impl CampaignReport {
    /// An empty report — the fold's starting state. Public so external
    /// aggregators (the `crates/dist` coordinator) can run the same
    /// fold the in-process driver runs.
    #[must_use]
    pub fn new() -> Self {
        Self {
            results: Vec::new(),
            coverage: CoverageMap::new(),
            failures: FailureStats::default(),
            corpus: Corpus::new(),
        }
    }

    /// Fold one assembled test case in. Must be called in plan order —
    /// the corpus dedup keeps the *first* record per signature, and plan
    /// order is what makes that choice schedule-independent. (The corpus
    /// itself is absorbed chunk-by-chunk in `self.corpus` by
    /// [`assemble_test_case`] before this runs.) Public for the same
    /// reason as [`CampaignReport::new`]: the distributed coordinator
    /// folds wire-delivered chunks through this exact path.
    pub fn fold_assembled(&mut self, result: TestCaseResult, coverage: &CoverageMap) {
        self.failures.merge(&result.failures);
        self.coverage.merge(coverage);
        self.results.push(result);
    }
}

impl Default for CampaignReport {
    fn default() -> Self {
        Self::new()
    }
}

/// Worker state for one workload: a long-lived target plus the pinned
/// snapshot-forest node for each seed-prefix length served so far.
/// Kept for the worker's whole run (an in-process executor worker, or
/// a distributed worker's job), so successive chunks over the same
/// trace restore a pinned prefix instead of rebuilding the stack and
/// replaying from scratch.
#[derive(Debug)]
pub struct PrefixServer<T> {
    /// The long-lived target, booted to the trace's replay start state
    /// (the forest root).
    target: T,
    /// `nodes[k]` pins the state after replaying `seeds[..k]` (`None`
    /// where no test case has asked for prefix `k`); `nodes[0]` is the
    /// forest root. Every entry is a pure accelerator: an evicted pin
    /// is a clean miss and the state is re-derived by replaying from
    /// the deepest surviving ancestor.
    nodes: Vec<Option<StateId>>,
}

impl<T: FuzzTarget> PrefixServer<T> {
    /// Boot a freshly built target into a server. Build it from
    /// [`BootPlan::for_test_case`] over the trace whose chunks it will
    /// serve, so the forest root is the state right before `seeds[0]`.
    pub fn new(mut target: T) -> PrefixServer<T> {
        target.boot();
        PrefixServer {
            target,
            nodes: vec![Some(StateId::ROOT)],
        }
    }

    /// Run one chunk: position at the test case's seed prefix (pinned
    /// node restore + remainder replay), then run the shared chunk core
    /// with a `restore_s1` that re-positions the same way after a
    /// crash. Byte-identical to
    /// [`crate::campaign::run_mutant_range_with`], which reaches the
    /// same state by plain replay.
    ///
    /// # Panics
    /// Panics if the test case's seed index or `range` is beyond the
    /// trace or the test case — a malformed plan, not a runtime
    /// condition.
    pub fn run_chunk(
        &mut self,
        trace: &RecordedTrace,
        testcase: &TestCase,
        range: MutantRange,
    ) -> ChunkOutput {
        let Self { target, nodes } = self;
        position(target, nodes, trace, testcase.seed_index);
        run_mutant_range_on(
            target,
            &mut |t: &mut T| position(t, nodes, trace, testcase.seed_index),
            trace,
            testcase,
            range,
        )
    }
}

/// Put `target` in the state right before `trace.seeds[prefix]`:
/// restore the deepest surviving pinned ancestor and replay the rest,
/// then pin the requested prefix — once, and only if anything was
/// replayed — so later work (crash recovery within this chunk, later
/// chunks of the cell, deeper cells of the same trace) restores in
/// O(delta). Pinning every replayed step instead would cost one delta
/// capture and one LRU collapse per prefix seed.
/// The positioned state is byte-identical to replaying `seeds[..prefix]`
/// on a fresh [`BootPlan::for_test_case`] boot — a forest node's state
/// is a pure function of the replayed prefix.
///
/// # Panics
/// Panics if `prefix` is beyond the trace — a malformed plan, not a
/// runtime condition.
fn position<T: FuzzTarget>(
    target: &mut T,
    nodes: &mut Vec<Option<StateId>>,
    trace: &RecordedTrace,
    prefix: usize,
) {
    assert!(
        prefix < trace.seeds.len(),
        "seed prefix {prefix} beyond the trace's {} seeds",
        trace.seeds.len()
    );
    if nodes.len() <= prefix {
        nodes.resize(prefix + 1, None);
    }
    let mut from = prefix;
    loop {
        // lint:allow(panic-path-audit) -- nodes was resized to prefix+1 entries above and `from` only descends from prefix
        if let Some(id) = nodes[from] {
            if target.reset_to(id) {
                break;
            }
            // Evicted under cap pressure (or a backend with no
            // forest): forget the stale pin and fall back one level.
            // lint:allow(panic-path-audit) -- same bound as the read above
            nodes[from] = None;
        }
        if from == 0 {
            // The root itself: a plain reset *is* the prefix-0 state.
            target.reset();
            break;
        }
        from -= 1;
    }
    // lint:allow(panic-path-audit) -- from <= prefix, asserted in range against trace.seeds above
    replay_seeds(target, &trace.seeds[from..prefix]);
    if from < prefix {
        // lint:allow(panic-path-audit) -- nodes was resized to prefix+1 entries above
        nodes[prefix] = target.pin_state();
    }
}

/// Progress snapshot handed to [`ParallelCampaign::run_observed`]'s
/// observer after every aggregated chunk — **mutant-granular**, so a
/// huge-`M` cell shows progress long before its test case completes.
#[derive(Debug, Clone, Copy)]
pub struct CampaignProgress {
    /// Mutants whose chunks have been aggregated so far.
    pub mutants_done: u64,
    /// Total mutants the plan submits.
    pub mutants_total: u64,
    /// Test cases fully assembled and folded into the report so far.
    pub results_folded: usize,
}

/// Options for [`ParallelCampaign::run_session`]: where to resume from
/// and how to react to worker panics and stop requests. The default is
/// a fresh, uninterruptible run under the executor's default restart
/// budget — exactly [`ParallelCampaign::run_observed`]'s behavior.
#[derive(Debug, Default)]
pub struct CampaignRunOptions<'a> {
    /// Executor fault policy: restart budget, cooperative stop flag,
    /// fault injection.
    pub policy: RunPolicy<'a>,
    /// Resume from a fold-boundary checkpoint (validate it with
    /// [`CampaignCheckpoint::load`] and [`CampaignCheckpoint::check`]
    /// first — the engine asserts the structural check).
    pub resume: Option<CampaignCheckpoint>,
}

/// A campaign executor that shards the planned test cases' mutant
/// ranges across worker threads at chunk granularity, generic over the
/// fuzz-target backend: every worker builds one private
/// [`crate::target::FuzzTarget`] instance per workload through the
/// shared factory and positions it for each chunk it steals.
#[derive(Debug, Clone, Copy)]
pub struct ParallelCampaign<F: TargetFactory = Backend> {
    /// Worker thread count (≥ 1).
    pub jobs: usize,
    /// Mutants per work-stealing chunk (≥ 1); the report is
    /// byte-identical for every value, only the stealing granularity —
    /// and so the load balance — changes.
    pub chunk: usize,
    /// The backend factory workers build their instances from.
    pub factory: F,
}

impl ParallelCampaign {
    /// A stock-backend executor with an explicit worker count (clamped
    /// to ≥ 1) and the default dummy-VM sizing
    /// ([`crate::campaign::DEFAULT_RAM_BYTES`]).
    #[must_use]
    pub fn new(jobs: usize) -> Self {
        Self::with_factory(jobs, Backend::Iris)
    }
}

impl<F: TargetFactory> ParallelCampaign<F> {
    /// An executor over an explicit backend factory, stealing at the
    /// default chunk granularity ([`DEFAULT_CHUNK`]).
    #[must_use]
    pub fn with_factory(jobs: usize, factory: F) -> Self {
        Self {
            jobs: jobs.max(1),
            chunk: DEFAULT_CHUNK,
            factory,
        }
    }

    /// Override the work-stealing chunk size (clamped to ≥ 1).
    #[must_use]
    pub fn with_chunk(mut self, chunk: usize) -> Self {
        self.chunk = chunk.max(1);
        self
    }

    /// Run a plan whose test cases may span several workloads; each test
    /// case runs against the trace recorded for its workload.
    ///
    /// # Panics
    /// Panics if a planned test case names a workload with no trace in
    /// `traces` — a malformed plan, not a runtime condition.
    #[must_use]
    pub fn run(
        &self,
        traces: &BTreeMap<Workload, RecordedTrace>,
        plan: &[TestCase],
    ) -> CampaignReport {
        self.run_observed(traces, plan, |_, _| {})
    }

    /// [`ParallelCampaign::run`] with an observer called on the
    /// aggregator thread after every aggregated chunk: drive progress
    /// lines (mutant-granular, so huge-`M` cells show movement) or
    /// persist corpus snapshots (`report.corpus` grows as test cases
    /// fold — pair with [`crate::corpus::CorpusWriter`] to keep the
    /// JSON I/O off this thread).
    ///
    /// # Panics
    /// Panics if a planned test case names a workload with no trace in
    /// `traces` — a malformed plan, not a runtime condition.
    #[must_use]
    pub fn run_observed<O>(
        &self,
        traces: &BTreeMap<Workload, RecordedTrace>,
        plan: &[TestCase],
        observe: O,
    ) -> CampaignReport
    where
        O: FnMut(CampaignProgress, &CampaignReport),
    {
        for tc in plan {
            assert!(
                traces.contains_key(&tc.workload),
                "plan references workload {:?} with no recorded trace",
                tc.workload
            );
        }
        match self.run_with(
            plan,
            // lint:allow(panic-path-audit) -- the loop above asserts every plan workload has a recorded trace
            |tc| &traces[&tc.workload],
            0,
            CampaignReport::new(),
            &RunPolicy::default(),
            observe,
        ) {
            Ok(report) => report,
            // The default policy carries no stop flag, so the only
            // reachable error is restart-budget exhaustion.
            // lint:allow(panic-path-audit) -- infallible wrapper by contract: the default policy carries no stop flag, so the only error is restart-budget exhaustion, a crash loop worth a panic
            Err(err) => panic!("campaign run failed: {err}"),
        }
    }

    /// The fault-tolerant form of [`ParallelCampaign::run_observed`]:
    /// resume from a fold-boundary checkpoint, absorb worker panics
    /// under an explicit restart budget, and honour a cooperative stop
    /// flag.
    ///
    /// Interruption semantics: when the stop flag trips, the test case
    /// being assembled is **discarded** (folding is all-or-nothing per
    /// test case) and the run returns `Ok` with the report over the
    /// folded plan prefix — `report.results.len() < plan.len()` then
    /// marks the run as partial, and a [`CampaignCheckpoint`] built
    /// from it resumes the remainder. A resumed run's final report is
    /// byte-identical to an uninterrupted one.
    ///
    /// # Errors
    /// [`ExecutorError::RestartBudgetExhausted`] when worker panics
    /// exceed the policy's budget.
    ///
    /// # Panics
    /// Panics on a malformed plan (a workload with no trace) or a
    /// checkpoint that fails [`CampaignCheckpoint::check`] —
    /// configuration errors, not runtime conditions.
    pub fn run_session<O>(
        &self,
        traces: &BTreeMap<Workload, RecordedTrace>,
        plan: &[TestCase],
        options: CampaignRunOptions<'_>,
        observe: O,
    ) -> Result<CampaignReport, ExecutorError>
    where
        O: FnMut(CampaignProgress, &CampaignReport),
    {
        for tc in plan {
            assert!(
                traces.contains_key(&tc.workload),
                "plan references workload {:?} with no recorded trace",
                tc.workload
            );
        }
        let (skip, report) = match options.resume {
            Some(cp) => {
                // The fingerprint was validated at load, and callers run
                // the structural check there too; a checkpoint that
                // still fails it here is a driver bug.
                let checked = cp.check(plan);
                assert!(checked.is_ok(), "{checked:?}");
                (cp.folded, cp.report)
            }
            None => (0, CampaignReport::new()),
        };
        self.run_with(
            plan,
            // lint:allow(panic-path-audit) -- run_resumable asserts every plan workload has a recorded trace before this call
            |tc| &traces[&tc.workload],
            skip,
            report,
            &options.policy,
            observe,
        )
    }

    /// Run a single-trace plan (every test case targets `trace`).
    #[must_use]
    pub fn run_trace(&self, trace: &RecordedTrace, plan: &[TestCase]) -> CampaignReport {
        match self.run_with(
            plan,
            |_| trace,
            0,
            CampaignReport::new(),
            &RunPolicy::default(),
            |_, _| {},
        ) {
            Ok(report) => report,
            // lint:allow(panic-path-audit) -- infallible wrapper by contract: the default policy carries no stop flag, so the only error is restart-budget exhaustion, a crash loop worth a panic
            Err(err) => panic!("campaign run failed: {err}"),
        }
    }

    /// The executor core: flatten `plan` into the precomputed chunk
    /// list, run it on the shared work-stealing executor
    /// ([`crate::executor::run_ordered`] — atomic-cursor claim,
    /// chunk-index-ordered delivery), and fold on this (aggregator)
    /// thread: because the chunk list is in `(test_case_index,
    /// range_start)` order and delivery follows it, each test case's
    /// chunks arrive contiguously and in `range_start` order, so a
    /// completed test case assembles and folds eagerly — its chunk
    /// outputs are dropped instead of accumulating for the whole plan.
    /// (Out-of-order completions park inside the executor, bounded by
    /// the out-of-order window, not the chunk-list length — each
    /// `ChunkOutput` carries two ~3.5 KB inline coverage maps.)
    fn run_with<'t, G, O>(
        &self,
        plan: &[TestCase],
        trace_of: G,
        skip: usize,
        mut report: CampaignReport,
        policy: &RunPolicy<'_>,
        mut observe: O,
    ) -> Result<CampaignReport, ExecutorError>
    where
        G: Fn(&TestCase) -> &'t RecordedTrace + Sync,
        O: FnMut(CampaignProgress, &CampaignReport),
    {
        // The chunk list is in (test_case_index, range_start) order, so
        // each test case's chunks occupy one contiguous span of job
        // indices. `skip` drops the test cases already folded into the
        // resumed `report`; mutant range RNG seeding depends only on
        // the test case itself, so the remainder runs identically.
        let jobs_list: Vec<(usize, MutantRange)> = plan
            .iter()
            .enumerate()
            .skip(skip)
            .flat_map(|(tc_idx, tc)| tc.chunks(self.chunk).map(move |r| (tc_idx, r)))
            .collect();
        let mut span = vec![0usize; plan.len()]; // chunk count per test case
        for &(tc_idx, _) in &jobs_list {
            // lint:allow(panic-path-audit) -- span has plan.len() entries and tc_idx comes from enumerate() over plan
            span[tc_idx] += 1;
        }
        let mutants_total: u64 = plan.iter().map(|tc| tc.mutants as u64).sum();

        let factory = &self.factory;
        let mut pending: Vec<ChunkOutput> = Vec::new();
        // lint:allow(panic-path-audit) -- skip is asserted <= plan.len() when the checkpoint is validated
        let mut mutants_done: u64 = plan[..skip].iter().map(|tc| tc.mutants as u64).sum();
        let mut sink = |job: usize, out: ChunkOutput| {
            mutants_done += out.range.len as u64;
            // lint:allow(panic-path-audit) -- job is an index run_ordered_with issues over jobs_list
            let tc_idx = jobs_list[job].0;
            pending.push(out);
            // lint:allow(panic-path-audit) -- span has plan.len() entries and tc_idx comes from enumerate() over plan
            if pending.len() == span[tc_idx] {
                let (result, coverage) =
                    // lint:allow(panic-path-audit) -- tc_idx comes from enumerate() over plan
                    assemble_test_case(&plan[tc_idx], pending.drain(..), &mut report.corpus);
                report.fold_assembled(result, &coverage);
            }
            observe(
                CampaignProgress {
                    mutants_done,
                    mutants_total,
                    results_folded: report.results.len(),
                },
                &report,
            );
        };
        // Persistent per-worker servers (one per workload) position
        // via pinned nodes instead of booting a fresh stack per chunk;
        // the conformance suite holds them against the pin-free
        // reference.
        let outcome = crate::executor::run_ordered_with(
            &jobs_list,
            self.jobs,
            policy,
            BTreeMap::new,
            |servers: &mut BTreeMap<Workload, PrefixServer<F::Target<'t>>>, _, &(tc_idx, range)| {
                // lint:allow(panic-path-audit) -- tc_idx comes from enumerate() over plan
                let tc = &plan[tc_idx];
                let trace = trace_of(tc);
                servers
                    .entry(tc.workload)
                    .or_insert_with(|| {
                        PrefixServer::new(factory.build(BootPlan::for_test_case(trace)))
                    })
                    .run_chunk(trace, tc, range)
            },
            &mut sink,
        );
        match outcome {
            Ok(()) => Ok(report),
            // Folding is all-or-nothing per test case: the partial
            // chunk outputs of the test case in flight are discarded,
            // so the report covers exactly the folded plan prefix.
            Err(ExecutorError::Interrupted { .. }) => Ok(report),
            Err(err) => Err(err),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mutation::SeedArea;
    use crate::target::record_trace;
    use iris_vtx::exit::ExitReason;

    fn boot_trace(n: usize) -> RecordedTrace {
        record_trace(iris_guest::workloads::Workload::OsBoot, n, 42)
    }

    fn plan_over(trace: &RecordedTrace, mutants: usize) -> Vec<TestCase> {
        let mut plan = Vec::new();
        let mut seen = Vec::new();
        for (idx, seed) in trace.seeds.iter().enumerate() {
            if seen.contains(&seed.reason) {
                continue;
            }
            seen.push(seed.reason);
            for area in SeedArea::ALL {
                plan.push(TestCase {
                    mutants,
                    ..TestCase::new(
                        iris_guest::workloads::Workload::OsBoot,
                        idx,
                        seed.reason,
                        area,
                        0xC0FFEE ^ idx as u64,
                    )
                });
            }
        }
        plan
    }

    #[test]
    fn parallel_report_is_byte_identical_across_worker_counts() {
        let trace = boot_trace(150);
        let plan = plan_over(&trace, 40);
        assert!(plan.len() >= 6, "plan too small to shard meaningfully");
        let mut traces = BTreeMap::new();
        traces.insert(iris_guest::workloads::Workload::OsBoot, trace);

        // The reference: jobs=1 with one chunk per test case — one boot
        // and one baseline per cell, folded in plan order. (The CLI
        // goldens under tests/golden/ pin the same engine's bytes across
        // commits.)
        let reference = ParallelCampaign::new(1)
            .with_chunk(usize::MAX)
            .run(&traces, &plan);
        let baseline = serde_json::to_string(&reference).unwrap();
        for jobs in [1usize, 2, 8] {
            let report = ParallelCampaign::new(jobs).run(&traces, &plan);
            assert_eq!(
                serde_json::to_string(&report).unwrap(),
                baseline,
                "jobs={jobs} diverged from the jobs=1 reference"
            );
        }
    }

    #[test]
    fn report_is_byte_identical_across_jobs_and_chunk_sizes() {
        // The acceptance cross product: jobs × chunk, including chunk=1
        // (every mutant its own steal) and whole-cell chunks, against
        // the jobs=1 whole-cell reference. The plan keeps seed indices
        // small so the per-chunk boot prefix stays cheap.
        let trace = boot_trace(120);
        let mut plan = Vec::new();
        for (reason, area) in [
            (ExitReason::CrAccess, SeedArea::Vmcs), // crashy cell
            (ExitReason::Cpuid, SeedArea::Gpr),     // harmless cell
            (ExitReason::IoInstruction, SeedArea::Vmcs),
        ] {
            let idx = trace
                .seeds
                .iter()
                .position(|s| s.reason == reason)
                .expect("reason present in boot trace");
            plan.push(TestCase {
                mutants: 90,
                ..TestCase::new(
                    iris_guest::workloads::Workload::OsBoot,
                    idx,
                    reason,
                    area,
                    0xBEEF ^ idx as u64,
                )
            });
        }
        let mut traces = BTreeMap::new();
        traces.insert(iris_guest::workloads::Workload::OsBoot, trace);

        let reference = ParallelCampaign::new(1)
            .with_chunk(usize::MAX)
            .run(&traces, &plan);
        let baseline = serde_json::to_string(&reference).unwrap();
        assert!(
            reference.corpus.observed() > 0,
            "the cross-product plan must exercise crash recovery"
        );
        for jobs in [1usize, 2, 8] {
            for chunk in [1usize, 64, usize::MAX] {
                let report = ParallelCampaign::new(jobs)
                    .with_chunk(chunk)
                    .run(&traces, &plan);
                assert_eq!(
                    serde_json::to_string(&report).unwrap(),
                    baseline,
                    "jobs={jobs} chunk={chunk} diverged from the jobs=1 reference"
                );
            }
        }
    }

    #[test]
    fn forest_mode_report_is_byte_identical_to_forest_off() {
        use crate::target::ConfiguredBackend;
        use iris_core::forest::ForestConfig;

        // "Forest off" is the pin-free reference: one fresh target per
        // cell that replays its prefix and never pins or restores a
        // forest node.
        let trace = boot_trace(100);
        let plan = plan_over(&trace, 25);
        let factory = Backend::Iris;
        let mut plain = CampaignReport::new();
        for tc in &plan {
            let cell = tc
                .chunks(usize::MAX)
                .map(|range| crate::campaign::run_mutant_range_with(&factory, &trace, tc, range));
            let (result, coverage) = assemble_test_case(tc, cell, &mut plain.corpus);
            plain.fold_assembled(result, &coverage);
        }
        let baseline = serde_json::to_string(&plain).unwrap();
        assert!(
            plain.corpus.observed() > 0,
            "the plan must exercise crash recovery"
        );
        let mut traces = BTreeMap::new();
        traces.insert(iris_guest::workloads::Workload::OsBoot, trace);
        // Tight node caps keep eviction pressure on: a stale pin must
        // be a clean miss (re-derived by replay), never a wrong state.
        for (jobs, cap) in [(1usize, ForestConfig::DEFAULT_CAP), (2, 3), (8, 1)] {
            let forest = ParallelCampaign::with_factory(
                jobs,
                ConfiguredBackend::new(Backend::Iris).with_forest(Some(ForestConfig { cap })),
            )
            .run(&traces, &plan);
            assert_eq!(
                serde_json::to_string(&forest).unwrap(),
                baseline,
                "forest jobs={jobs} cap={cap} diverged from the pin-free reference"
            );
        }
    }

    #[test]
    fn observer_sees_monotone_chunk_granular_progress() {
        let trace = boot_trace(100);
        let plan = plan_over(&trace, 30);
        let mut traces = BTreeMap::new();
        traces.insert(iris_guest::workloads::Workload::OsBoot, trace);
        let total: u64 = plan.iter().map(|tc| tc.mutants as u64).sum();

        let mut seen = Vec::new();
        let report =
            ParallelCampaign::new(2)
                .with_chunk(8)
                .run_observed(&traces, &plan, |p, partial| {
                    assert_eq!(p.mutants_total, total);
                    assert_eq!(p.results_folded, partial.results.len());
                    seen.push((p.mutants_done, p.results_folded));
                });
        assert!(!seen.is_empty(), "observer must fire per chunk");
        assert!(
            seen.windows(2).all(|w| w[0] <= w[1]),
            "progress must be monotone"
        );
        let &(last_mutants, last_folded) = seen.last().unwrap();
        assert_eq!(last_mutants, total, "every mutant reported");
        assert_eq!(last_folded, plan.len(), "every test case folded");
        assert!(
            seen.len() > plan.len(),
            "chunk granularity: more observations than test cases"
        );
        assert_eq!(report.results.len(), plan.len());
    }

    #[test]
    fn merged_coverage_matches_sequential_union() {
        let trace = boot_trace(120);
        let plan = plan_over(&trace, 25);
        let report = ParallelCampaign::new(4).run_trace(&trace, &plan);

        // Re-run each test case alone at jobs=1, unioning the per-test-
        // case maps by hand.
        let maps: Vec<CoverageMap> = plan
            .iter()
            .map(|tc| {
                ParallelCampaign::new(1)
                    .run_trace(&trace, std::slice::from_ref(tc))
                    .coverage
            })
            .collect();
        assert_eq!(report.coverage, CoverageMap::merged(maps.iter()));
        assert!(report.coverage.lines() > 0);
    }

    #[test]
    fn aggregated_stats_fold_every_test_case() {
        let trace = boot_trace(100);
        let plan = plan_over(&trace, 30);
        let report = ParallelCampaign::new(3).run_trace(&trace, &plan);
        assert_eq!(report.results.len(), plan.len());
        assert_eq!(
            report.failures.submitted,
            plan.iter().map(|tc| tc.mutants as u64).sum::<u64>()
        );
        assert_eq!(
            report.corpus.observed(),
            report.failures.vm_crashes + report.failures.hv_crashes,
            "every observed crash is counted"
        );
        assert!(report.corpus.unique() as u64 <= report.corpus.observed());
        // Results come back in plan order, not completion order.
        for (tc, r) in plan.iter().zip(&report.results) {
            assert_eq!(tc, &r.testcase);
        }
    }

    #[test]
    fn more_workers_than_work_is_fine() {
        let trace = boot_trace(80);
        let idx = trace
            .seeds
            .iter()
            .position(|s| s.reason == ExitReason::CrAccess)
            .expect("boot trace has CR accesses");
        let plan = vec![TestCase {
            mutants: 10,
            ..TestCase::new(
                iris_guest::workloads::Workload::OsBoot,
                idx,
                ExitReason::CrAccess,
                SeedArea::Vmcs,
                7,
            )
        }];
        let report = ParallelCampaign::new(64).run_trace(&trace, &plan);
        assert_eq!(report.results.len(), 1);
        assert_eq!(report.failures.submitted, 10);
    }

    #[test]
    fn empty_plan_yields_an_empty_report() {
        let trace = boot_trace(40);
        let report = ParallelCampaign::new(4).run_trace(&trace, &[]);
        assert!(report.results.is_empty());
        assert_eq!(report.failures, FailureStats::default());
        assert!(report.corpus.is_empty());
        assert_eq!(report.coverage, CoverageMap::new());
    }

    #[test]
    fn interrupted_campaign_resumes_byte_identically() {
        use crate::checkpoint::{CampaignCheckpoint, CHECKPOINT_VERSION};
        use std::sync::atomic::{AtomicBool, Ordering};

        let trace = boot_trace(100);
        let plan = plan_over(&trace, 20);
        assert!(plan.len() >= 6, "plan too small to interrupt meaningfully");
        let mut traces = BTreeMap::new();
        traces.insert(iris_guest::workloads::Workload::OsBoot, trace);

        let reference = ParallelCampaign::new(2).run(&traces, &plan);
        let baseline = serde_json::to_string(&reference).unwrap();

        // Trip the stop flag from the observer after the first fold;
        // with one worker the claim loop sees it before the plan runs
        // dry, so the partial report is a strict prefix.
        let stop = AtomicBool::new(false);
        let partial = ParallelCampaign::new(1)
            .run_session(
                &traces,
                &plan,
                CampaignRunOptions {
                    policy: RunPolicy {
                        stop: Some(&stop),
                        ..RunPolicy::default()
                    },
                    resume: None,
                },
                |p, _| {
                    if p.results_folded >= 1 {
                        stop.store(true, Ordering::Relaxed);
                    }
                },
            )
            .expect("interruption is not an error");
        assert!(
            !partial.results.is_empty() && partial.results.len() < plan.len(),
            "expected a strict prefix, folded {} of {}",
            partial.results.len(),
            plan.len()
        );

        let checkpoint = CampaignCheckpoint {
            version: CHECKPOINT_VERSION,
            fingerprint: String::from("test-fingerprint"),
            folded: partial.results.len(),
            report: partial,
        };
        let resumed = ParallelCampaign::new(2)
            .run_session(
                &traces,
                &plan,
                CampaignRunOptions {
                    policy: RunPolicy::default(),
                    resume: Some(checkpoint),
                },
                |_, _| {},
            )
            .expect("resumed run completes");
        assert_eq!(
            serde_json::to_string(&resumed).unwrap(),
            baseline,
            "interrupt + resume diverged from the uninterrupted reference"
        );
    }

    #[test]
    fn campaign_survives_injected_worker_panics_byte_identically() {
        use crate::executor::{quiet_injected_faults, FaultPlan};

        quiet_injected_faults();
        let trace = boot_trace(100);
        let plan = plan_over(&trace, 20);
        let mut traces = BTreeMap::new();
        traces.insert(iris_guest::workloads::Workload::OsBoot, trace);

        let reference = ParallelCampaign::new(2).with_chunk(8).run(&traces, &plan);
        let baseline = serde_json::to_string(&reference).unwrap();

        // Small chunks so the job list is long enough for faults in the
        // middle; each tripped index is re-leased and re-run clean.
        let faults = FaultPlan::new()
            .panic_once_at(1)
            .panic_once_at(5)
            .panic_once_at(9);
        let report = ParallelCampaign::new(2)
            .with_chunk(8)
            .run_session(
                &traces,
                &plan,
                CampaignRunOptions {
                    policy: RunPolicy {
                        faults: Some(&faults),
                        ..RunPolicy::default()
                    },
                    resume: None,
                },
                |_, _| {},
            )
            .expect("panics within budget are absorbed");
        assert_eq!(
            serde_json::to_string(&report).unwrap(),
            baseline,
            "injected worker panics changed the report"
        );
    }

    #[test]
    fn campaign_restart_budget_exhaustion_is_a_typed_error() {
        use crate::executor::{quiet_injected_faults, FaultPlan};

        quiet_injected_faults();
        let trace = boot_trace(80);
        let plan = plan_over(&trace, 10);
        let mut traces = BTreeMap::new();
        traces.insert(iris_guest::workloads::Workload::OsBoot, trace);

        let faults = FaultPlan::new().panic_always_at(0);
        let err = ParallelCampaign::new(2)
            .run_session(
                &traces,
                &plan,
                CampaignRunOptions {
                    policy: RunPolicy {
                        max_worker_restarts: Some(1),
                        faults: Some(&faults),
                        ..RunPolicy::default()
                    },
                    resume: None,
                },
                |_, _| {},
            )
            .expect_err("a persistent fault must exhaust the budget");
        match err {
            ExecutorError::RestartBudgetExhausted { budget, panics, .. } => {
                assert_eq!(budget, 1);
                assert!(panics > budget);
            }
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    #[should_panic(expected = "no recorded trace")]
    fn malformed_plan_panics_up_front() {
        let traces = BTreeMap::new();
        let plan = vec![TestCase::new(
            iris_guest::workloads::Workload::Idle,
            0,
            ExitReason::Hlt,
            SeedArea::Gpr,
            1,
        )];
        let _ = ParallelCampaign::new(2).run(&traces, &plan);
    }
}
