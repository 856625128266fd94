//! The pluggable fuzz-target API.
//!
//! The paper's core claim is that record/replay fuzzing is
//! *hypervisor-agnostic*: the vmread/vmwrite interposition surface (§V-A)
//! is the only contract between the fuzzer and the system under test.
//! [`FuzzTarget`] is that contract as a trait — it owns the whole SUT
//! lifecycle the campaign drivers used to hand-roll:
//!
//! * [`FuzzTarget::boot`] — bring the SUT up and reach the fuzzing start
//!   state `s1` of Fig. 11, the root of the target's snapshot forest
//!   (build the stack, optionally fast-forward the dummy VM's boot,
//!   snapshot — no seed replay);
//! * [`FuzzTarget::submit`] — submit one VM seed and report what happened
//!   (coverage touched, crash verdict, cycle cost);
//! * [`FuzzTarget::reset`] — restore `s1` in O(dirty state), whether
//!   the previous submission left the SUT clean, crashed the VM, or
//!   killed the hypervisor;
//! * [`FuzzTarget::pin_state`] / [`FuzzTarget::reset_to`] — pin the
//!   current state as a snapshot-forest node and come back to it in
//!   O(delta). This is how drivers position a target at a seed prefix
//!   or a corpus entry's state.
//!
//! [`HvTarget`] has exactly one reset mechanism: a copy-on-write
//! [`SnapshotForest`] rooted at `s1`. `reset` is a restore to the root,
//! `reset_to` a restore to a pinned node; [`ForestConfig::cap`] only
//! bounds how many pins survive.
//!
//! A [`TargetFactory`] builds private target instances. Every driver
//! boots one per worker and workload and keeps it for the whole run:
//! a test case's seed prefix, or a corpus entry's seed path, is reached
//! from `s1` the one way there is — restore the deepest pinned forest
//! node and replay the rest
//! ([`crate::parallel::PrefixServer`], [`crate::guided::SlotContext`]).
//! Because a node's state is a pure function of its seed path, that
//! keeps the byte-identical jobs=1/2/8 guarantee whatever thread or
//! host a chunk lands on.
//!
//! Drivers are **generic** over the factory, so the per-exit hot path is
//! statically dispatched — the trait adds no per-exit cost over calling
//! the replay engine directly (see PERFORMANCE.md and the `target` arm of
//! the `replay_throughput` bench).
//!
//! [`Backend`] enumerates the two in-tree backends — `iris`, the stock
//! hypervisor model, and `faulty`, the same hypervisor built with
//! [`FaultInjection::planted`] defects, which gives Table I campaigns a
//! ground truth: [`detect_planted_faults`] states exactly which known
//! bugs a crash corpus found. [`ConfiguredBackend`] adds RAM sizing and
//! the forest cap; both build [`HvTarget`]s.

use crate::corpus::{Corpus, CrashRecord};
use crate::failure::{classify, FailureKind};
use iris_core::forest::{ForestConfig, SnapshotForest, StateId};
use iris_core::record::Recorder;
use iris_core::replay::ReplayEngine;
use iris_core::seed::VmSeed;
use iris_core::trace::RecordedTrace;
use iris_guest::runner::fast_forward_boot;
use iris_guest::workloads::Workload;
use iris_hv::coverage::CoverageMap;
use iris_hv::faults::{FaultInjection, PlantedFault};
use iris_hv::hypervisor::{HvGlobals, Hypervisor};
use iris_hv::log::Level;

/// How a target reaches the fuzzing start state `s1`, the root of its
/// snapshot forest: the recorded trace it serves, and whether the
/// dummy VM boots first. A boot replays no seeds; drivers reach a seed
/// prefix from `s1` by forest restore plus replay of the rest
/// ([`crate::parallel::PrefixServer`], [`crate::guided::SlotContext`]).
#[derive(Debug, Clone, Copy)]
pub struct BootPlan<'t> {
    /// The recorded trace the target serves.
    pub trace: &'t RecordedTrace,
    /// Fast-forward the dummy VM's boot. Campaigns set this for
    /// post-boot workload traces (§VII-1: `s0` is the booted
    /// snapshot); OS BOOT traces boot themselves.
    pub fast_forward: bool,
}

impl<'t> BootPlan<'t> {
    /// The campaign plan for a trace's test cases: boot first unless
    /// the trace is itself a boot.
    #[must_use]
    pub fn for_test_case(trace: &'t RecordedTrace) -> Self {
        Self {
            trace,
            fast_forward: !trace.label.contains("BOOT"),
        }
    }

    /// The guided-loop plan: a booted SUT (`s1` is the post-boot
    /// snapshot).
    #[must_use]
    pub fn post_boot(trace: &'t RecordedTrace) -> Self {
        Self {
            trace,
            fast_forward: true,
        }
    }
}

/// The crash half of a submission verdict. Serializable so distributed
/// workers can ship slot/chunk outcomes over the wire (`crates/dist`).
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CrashVerdict {
    /// VM crash or hypervisor crash (the paper's §VII-3 taxonomy).
    pub kind: FailureKind,
    /// The console line the crash left — the corpus dedup signature
    /// component the paper's log-grepping scripts read.
    pub console: String,
}

/// What one [`FuzzTarget::submit`] produced.
#[derive(Debug, Clone)]
pub struct SubmitOutcome {
    /// Coverage the submission touched (framework hits stripped, the
    /// paper's "cleaned up" bitmap).
    pub coverage: CoverageMap,
    /// Crash verdict, if the submission crashed the VM or the SUT.
    pub crash: Option<CrashVerdict>,
    /// Virtual cycles the exit→entry round trip cost.
    pub cycles: u64,
}

/// A system under test that accepts replayed VM seeds.
///
/// The contract every backend must honour (checked by the conformance
/// suite in `tests/target_conformance.rs` for all [`Backend`]s):
///
/// * `boot` is deterministic: two instances built from the same plan are
///   indistinguishable through `submit`;
/// * `reset` restores `s1` exactly — submitting the same seed after a
///   reset reproduces the pre-reset outcome;
/// * submission coverage is reproducible: the same seed from the same
///   state touches the same blocks.
pub trait FuzzTarget {
    /// Bring the SUT up and reach `s1` per the boot plan. Calling it
    /// again builds a fresh stack; crash recovery never needs to (see
    /// [`FuzzTarget::reset`]).
    fn boot(&mut self);

    /// Submit one VM seed through the replay interposition surface.
    ///
    /// # Panics
    /// Panics if the target was never booted.
    fn submit(&mut self, seed: &VmSeed) -> SubmitOutcome;

    /// Restore `s1` — a restore, not a reboot, even after a SUT-fatal
    /// submission: the state is indistinguishable from a fresh
    /// [`FuzzTarget::boot`].
    ///
    /// # Panics
    /// Panics if the target was never booted.
    fn reset(&mut self);

    /// Pin the current state as a snapshot-forest node and return its
    /// id, so a later [`FuzzTarget::reset_to`] can come back to it in
    /// O(delta) instead of O(prefix) replay. `None` when the backend
    /// has no forest (the trait default; every in-tree backend has
    /// one).
    ///
    /// Drivers must treat pinned nodes as a **pure accelerator**: a
    /// node's state is by construction the state reached by replaying
    /// its seed path from `s1`, so any pin may be dropped (eviction)
    /// and re-derived without changing results.
    fn pin_state(&mut self) -> Option<StateId> {
        None
    }

    /// Restore a previously pinned state in place. Returns `false` —
    /// leaving the target untouched — when the backend has no forest or
    /// the node was evicted; the caller then re-derives the state via
    /// [`FuzzTarget::reset`] + seed replay (slower, never wrong). A
    /// SUT-fatal crash is recovered by the same restore, like
    /// [`FuzzTarget::reset`]. This seam is what lets a future
    /// `RemoteTarget` adopt the forest protocol without new driver
    /// code.
    fn reset_to(&mut self, _id: StateId) -> bool {
        false
    }
}

/// Replay recorded seeds on `target` from its current state: how a
/// positioning miss walks the rest of a seed prefix, and how the
/// pin-free test references reach one from `s1`. Recorded seeds replay
/// clean (debug-asserted).
pub fn replay_seeds<T: FuzzTarget + ?Sized>(target: &mut T, seeds: &[VmSeed]) {
    for seed in seeds {
        let out = target.submit(seed);
        debug_assert!(
            out.crash.is_none(),
            "prefix replay must be clean: {:?}",
            out.crash
        );
    }
}

/// Builds private [`FuzzTarget`] instances — the seam the sharded
/// executor fans out over (`Send + Sync` so worker threads can share the
/// factory by reference).
pub trait TargetFactory: Send + Sync {
    /// The target type this factory builds; it may borrow the plan's
    /// trace (the in-tree [`HvTarget`] does not).
    type Target<'t>: FuzzTarget + 't;

    /// Build an instance for one boot plan. The instance is not yet
    /// booted — drivers call [`FuzzTarget::boot`] explicitly.
    fn build<'t>(&self, plan: BootPlan<'t>) -> Self::Target<'t>;

    /// The backend's registry name (what `--target` selects).
    fn name(&self) -> &'static str;

    /// One-line description for the `targets` listing.
    fn description(&self) -> &'static str;

    /// The snapshot-forest configuration instances built by this
    /// factory use (`None` = the backend has no forest, the trait
    /// default). Informational only: no driver branches on it. Every
    /// driver positions through [`FuzzTarget::reset_to`] and
    /// [`FuzzTarget::pin_state`], which a forest-less backend answers
    /// with clean misses, so it falls back to reset plus replay.
    fn forest(&self) -> Option<ForestConfig> {
        None
    }
}

struct HvStack {
    hv: Hypervisor,
    /// Built once per boot: its per-seed hook state resets in every
    /// submission, and rebuilding it would re-arm the preemption timer.
    engine: ReplayEngine,
    /// The hypervisor globals at `s1`, restored before the domain on
    /// every reset.
    globals: HvGlobals,
    /// The copy-on-write forest rooted at `s1`: every reset, pin and
    /// positioning restore goes through it.
    forest: SnapshotForest,
}

/// A fuzz target over the in-tree hypervisor model: a dummy VM driven by
/// the [`ReplayEngine`], with `s1` captured as hypervisor globals plus
/// the root of a [`SnapshotForest`]. Resets, pins and positioning
/// restores all go through that forest in O(delta) — crash recovery
/// included. Every [`Backend`] builds this type; backends differ only
/// in the [`FaultInjection`] configuration baked into the build.
pub struct HvTarget {
    fast_forward: bool,
    ram_bytes: u64,
    faults: FaultInjection,
    forest: ForestConfig,
    state: Option<HvStack>,
}

impl std::fmt::Debug for HvTarget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HvTarget")
            .field("fast_forward", &self.fast_forward)
            .field("ram_bytes", &self.ram_bytes)
            .field("faults", &self.faults)
            .field("forest", &self.forest)
            .field("booted", &self.state.is_some())
            .finish()
    }
}

impl HvTarget {
    /// The live hypervisor, for inspection (`None` before
    /// [`FuzzTarget::boot`]).
    #[must_use]
    pub fn hypervisor(&self) -> Option<&Hypervisor> {
        self.state.as_ref().map(|st| &st.hv)
    }
}

impl FuzzTarget for HvTarget {
    fn boot(&mut self) {
        let mut hv = Hypervisor::new();
        hv.faults = self.faults;
        // Campaign drivers only consume Err/Crit console lines (the
        // failure classifier's grep); the threshold keeps info-level
        // messages on the submission loop from even being formatted.
        hv.log.set_min_level(Some(Level::Warning));
        let dummy = hv.create_hvm_domain(self.ram_bytes);
        if self.fast_forward {
            fast_forward_boot(&mut hv, dummy);
        }
        let engine = ReplayEngine::new(&mut hv, dummy);
        let globals = hv.capture_globals();
        let forest = SnapshotForest::new(&hv, dummy, self.forest)
            .expect("the dummy domain was created above");
        // Tracking starts *after* the root capture so the dirty set
        // measures divergence from `s1`.
        hv.domains[dummy as usize]
            .memory
            .set_page_dirty_tracking(true);
        self.state = Some(HvStack {
            hv,
            engine,
            globals,
            forest,
        });
    }

    // Inlined so the per-submission `SubmitOutcome` move (the coverage
    // map is a ~3.5 KB value type) can be elided into the caller's slot
    // across the crate boundary — see the `direct` vs `target` arms of
    // the `replay_throughput` bench.
    #[inline]
    fn submit(&mut self, seed: &VmSeed) -> SubmitOutcome {
        let st = self.state.as_mut().expect("boot() the target first");
        let out = st.engine.submit(&mut st.hv, seed);
        let crash = classify(out.exit.crash.as_ref(), &st.hv.log).map(|kind| CrashVerdict {
            kind,
            console: st
                .hv
                .log
                .lines()
                .last()
                .map(|l| l.message.clone())
                .unwrap_or_default(),
        });
        SubmitOutcome {
            coverage: out.metrics.coverage,
            crash,
            cycles: out.exit.cycles,
        }
    }

    fn reset(&mut self) {
        let ok = self.reset_to(StateId::ROOT);
        debug_assert!(ok, "the forest root is never evicted");
    }

    fn pin_state(&mut self) -> Option<StateId> {
        let st = self.state.as_mut().expect("boot() the target first");
        let id = st.forest.take_delta(&mut st.hv, st.engine.domain);
        st.forest.evict_excess(&[id]);
        Some(id)
    }

    fn reset_to(&mut self, id: StateId) -> bool {
        let st = self.state.as_mut().expect("boot() the target first");
        if !st.forest.contains(id) {
            return false;
        }
        // The globals first (this also undoes a hypervisor crash), then
        // the dummy domain back to the node in O(delta).
        st.hv.restore_globals(&st.globals);
        st.forest.restore_to(&mut st.hv, st.engine.domain, id)
    }
}

/// The registered backends, selectable by name (`--target`).
///
/// `Backend` itself implements [`TargetFactory`] (with the default
/// sizing), so runtime backend selection is just passing the parsed
/// value to a driver — no per-call-site dispatch match needed:
///
/// ```
/// use iris_fuzzer::parallel::ParallelCampaign;
/// use iris_fuzzer::target::Backend;
///
/// let backend = Backend::parse("faulty").unwrap();
/// let executor = ParallelCampaign::with_factory(2, backend);
/// # let _ = executor;
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The stock hypervisor model (registry name `iris`).
    Iris,
    /// The same hypervisor with [`FaultInjection::planted`] defects
    /// (registry name `faulty`), so campaigns have known bugs to
    /// detect.
    Faulty,
}

impl Backend {
    /// Every registered backend, in listing order.
    pub const ALL: [Backend; 2] = [Backend::Iris, Backend::Faulty];

    /// Look a backend up by its registry name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Backend> {
        Backend::ALL.iter().copied().find(|b| b.name() == name)
    }

    /// The fault configuration this backend's hypervisor is built with.
    #[must_use]
    pub fn faults(self) -> FaultInjection {
        match self {
            Backend::Iris => FaultInjection::NONE,
            Backend::Faulty => FaultInjection::planted(),
        }
    }
}

impl TargetFactory for Backend {
    type Target<'t> = HvTarget;

    fn build(&self, plan: BootPlan<'_>) -> HvTarget {
        ConfiguredBackend::new(*self).build(plan)
    }

    fn name(&self) -> &'static str {
        match self {
            Backend::Iris => "iris",
            Backend::Faulty => "faulty",
        }
    }

    fn description(&self) -> &'static str {
        match self {
            Backend::Iris => "stock hypervisor model (the paper's SUT)",
            Backend::Faulty => {
                "fault-injection build with planted handler bugs (ground-truth detection)"
            }
        }
    }

    fn forest(&self) -> Option<ForestConfig> {
        Some(ForestConfig::default())
    }
}

/// A [`Backend`] plus runtime tuning — dummy-VM sizing and the
/// snapshot-forest node cap. This is what the CLI hands to drivers once
/// `--target`/`--forest-cap` are parsed; at the defaults it builds
/// byte-for-byte the same targets as the bare [`Backend`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConfiguredBackend {
    /// Which registered backend to build.
    pub backend: Backend,
    /// Guest RAM for the dummy domain.
    pub ram_bytes: u64,
    /// Snapshot-forest configuration.
    pub forest: ForestConfig,
}

impl ConfiguredBackend {
    /// Default tuning for a backend: default RAM, default forest cap.
    #[must_use]
    pub fn new(backend: Backend) -> Self {
        Self {
            backend,
            ram_bytes: crate::campaign::DEFAULT_RAM_BYTES,
            forest: ForestConfig::default(),
        }
    }

    /// Set the snapshot-forest configuration (`None` = the default).
    #[must_use]
    pub fn with_forest(mut self, forest: Option<ForestConfig>) -> Self {
        self.forest = forest.unwrap_or_default();
        self
    }
}

impl TargetFactory for ConfiguredBackend {
    type Target<'t> = HvTarget;

    fn build(&self, plan: BootPlan<'_>) -> HvTarget {
        HvTarget {
            fast_forward: plan.fast_forward,
            ram_bytes: self.ram_bytes,
            faults: self.backend.faults(),
            forest: self.forest,
            state: None,
        }
    }

    fn name(&self) -> &'static str {
        self.backend.name()
    }

    fn description(&self) -> &'static str {
        self.backend.description()
    }

    fn forest(&self) -> Option<ForestConfig> {
        Some(self.forest)
    }
}

/// Match a crash corpus against the planted-fault ground truth: for each
/// defect [`FaultInjection::planted`] arms, the first corpus record whose
/// console carries its banner (or `None` if the campaign missed it).
#[must_use]
pub fn detect_planted_faults(
    corpus: &Corpus,
) -> Vec<(&'static PlantedFault, Option<&CrashRecord>)> {
    FaultInjection::descriptors()
        .iter()
        .map(|fault| {
            (
                fault,
                corpus
                    .crashes
                    .iter()
                    .find(|c| c.console.contains(fault.banner)),
            )
        })
        .collect()
}

/// Render the ground-truth detection report for a crash corpus — the
/// one format the CLI, the bench bins, and the CI smoke's
/// `planted faults: 3/3 detected` grep contract all share.
#[must_use]
pub fn render_planted_fault_report(corpus: &Corpus) -> String {
    let detections = detect_planted_faults(corpus);
    let found = detections.iter().filter(|(_, hit)| hit.is_some()).count();
    let mut out = format!("planted faults: {found}/{} detected\n", detections.len());
    for (fault, hit) in &detections {
        match hit {
            Some(c) => out.push_str(&format!(
                "  {:<34} detected — \"{}\"\n",
                fault.name, c.console
            )),
            None => out.push_str(&format!("  {:<34} MISSED\n", fault.name)),
        }
    }
    out
}

/// Record a workload trace on a throwaway stock stack — the recording
/// half of the paper's pipeline, shared by tests, benches and examples.
/// (Post-boot workloads record from the booted snapshot, like §VII-1's
/// `s0`.)
#[must_use]
pub fn record_trace(workload: Workload, exits: usize, rng_seed: u64) -> RecordedTrace {
    let mut hv = Hypervisor::new();
    let dom = hv.create_hvm_domain(crate::campaign::DEFAULT_RAM_BYTES);
    if workload != Workload::OsBoot {
        fast_forward_boot(&mut hv, dom);
    }
    Recorder::new().record_workload(
        &mut hv,
        dom,
        workload.label(),
        workload.generate(exits, rng_seed),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use iris_vtx::exit::ExitReason;

    fn boot_trace(n: usize) -> RecordedTrace {
        record_trace(Workload::OsBoot, n, 42)
    }

    #[test]
    fn backend_registry_round_trips() {
        for b in Backend::ALL {
            assert_eq!(Backend::parse(b.name()), Some(b));
            assert!(!b.description().is_empty());
        }
        assert_eq!(Backend::parse("martian"), None);
    }

    #[test]
    fn boot_reaches_s1_and_submit_reports_coverage() {
        let trace = boot_trace(80);
        let idx = trace
            .seeds
            .iter()
            .position(|s| s.reason == ExitReason::CrAccess)
            .expect("boot trace has CR accesses");
        let mut target = Backend::Iris.build(BootPlan::for_test_case(&trace));
        target.boot();
        replay_seeds(&mut target, &trace.seeds[..idx]);
        let out = target.submit(&trace.seeds[idx]);
        assert!(out.coverage.lines() > 0);
        assert!(out.crash.is_none(), "recorded seed replays cleanly");
        assert!(out.cycles > 0);
    }

    #[test]
    fn reset_after_crash_reproduces_the_baseline() {
        let trace = boot_trace(80);
        let idx = trace
            .seeds
            .iter()
            .position(|s| s.reason == ExitReason::CrAccess)
            .unwrap();
        let mut target = Backend::Iris.build(BootPlan::for_test_case(&trace));
        target.boot();
        replay_seeds(&mut target, &trace.seeds[..idx]);
        let baseline = target.submit(&trace.seeds[idx]);

        // Crash the SUT with a mutant flipping the exit reason into the
        // unhandled range, then reset and re-check the baseline.
        let mut mutant = trace.seeds[idx].clone();
        for pair in &mut mutant.reads {
            if pair.0 == iris_vtx::fields::VmcsField::VmExitReason {
                pair.1 = 11; // GETSEC: never configured to exit
            }
        }
        let crashed = target.submit(&mutant);
        assert!(crashed.crash.is_some(), "mutant must crash");
        target.reset();
        replay_seeds(&mut target, &trace.seeds[..idx]);
        let again = target.submit(&trace.seeds[idx]);
        assert_eq!(baseline.coverage, again.coverage);
        assert!(again.crash.is_none());
    }

    #[test]
    fn faulty_backend_is_clean_on_recorded_seeds() {
        let trace = boot_trace(100);
        let mut target = Backend::Faulty.build(BootPlan::for_test_case(&trace));
        target.boot();
        let last = trace.seeds.len() - 1;
        replay_seeds(&mut target, &trace.seeds[..last]); // debug asserts on
        let out = target.submit(&trace.seeds[last]);
        assert!(
            out.crash.is_none(),
            "planted faults stay dormant: {:?}",
            out.crash
        );
    }

    #[test]
    #[should_panic(expected = "boot() the target first")]
    fn submitting_before_boot_is_a_driver_bug() {
        let trace = boot_trace(10);
        let mut target = Backend::Iris.build(BootPlan::post_boot(&trace));
        let _ = target.submit(&trace.seeds[0]);
    }

    #[test]
    fn forest_target_pins_and_restores_states() {
        let trace = boot_trace(60);
        let factory = ConfiguredBackend::new(Backend::Iris);
        assert!(factory.forest().is_some());
        let mut target = factory.build(BootPlan::post_boot(&trace));
        target.boot();
        assert!(
            target.reset_to(StateId::ROOT),
            "the forest root is always restorable"
        );

        // Advance two seeds, pin, diverge, come back: the pinned state
        // must reproduce the continuation byte-for-byte.
        let _ = target.submit(&trace.seeds[0]);
        let _ = target.submit(&trace.seeds[1]);
        let pinned = target.pin_state().expect("every HvTarget pins states");
        let expected = target.submit(&trace.seeds[2]);
        target.reset();
        let _ = target.submit(&trace.seeds[5]);
        assert!(target.reset_to(pinned), "pinned node restores");
        let again = target.submit(&trace.seeds[2]);
        assert_eq!(expected.coverage, again.coverage);
        assert_eq!(expected.crash, again.crash);
    }

    #[test]
    fn forest_survives_a_sut_fatal_reboot() {
        let trace = boot_trace(60);
        let factory = ConfiguredBackend::new(Backend::Iris);
        let mut target = factory.build(BootPlan::post_boot(&trace));
        target.boot();
        let _ = target.submit(&trace.seeds[0]);
        let pinned = target.pin_state().unwrap();
        let expected = target.submit(&trace.seeds[1]);

        // Kill the whole stack with an unhandled-exit mutant.
        let mut fatal = trace.seeds[0].clone();
        for pair in &mut fatal.reads {
            if pair.0 == iris_vtx::fields::VmcsField::VmExitReason {
                pair.1 = 11; // GETSEC: never configured to exit
            }
        }
        let _ = target.submit(&fatal);
        assert!(
            target.reset_to(pinned),
            "crash recovery keeps the forest and the pin survives"
        );
        let again = target.submit(&trace.seeds[1]);
        assert_eq!(expected.coverage, again.coverage);
    }

    #[test]
    fn detect_planted_faults_reports_misses_on_an_empty_corpus() {
        let empty = Corpus::new();
        let report = detect_planted_faults(&empty);
        assert_eq!(report.len(), FaultInjection::descriptors().len());
        assert!(report.iter().all(|(_, hit)| hit.is_none()));
    }
}
