//! # iris-fuzzer — the IRIS-based fuzzer prototype (§VII)
//!
//! The paper's proof of concept: use IRIS replay to move the hypervisor
//! into a valid VM state by replaying recorded seeds, pick a target
//! `VM_seed_R`, generate `M` single-bit-flip mutants of its VMCS or GPR
//! area, submit them as a *fuzzing sequence*, and observe new coverage
//! and crashes.
//!
//! * [`target`] — the pluggable [`FuzzTarget`]/[`TargetFactory`] API:
//!   the SUT lifecycle (boot to `s1`, submit, reset, pin and restore
//!   forest nodes) behind a trait, with the stock and fault-injection
//!   backends registered under [`Backend`].
//! * [`mutation`] — the bit-flip rules over the two seed areas.
//! * [`strategies`] — extended greybox mutations (havoc, arith,
//!   interesting values, splice) per the paper's §IX future work.
//! * [`guided`] — the §IX coverage-guided feedback loop over the
//!   replay engine: the generational shared-corpus engine
//!   ([`guided::run_guided_shared`]), whose `jobs=1` run is the
//!   reference.
//! * [`testcase`] — `(W, VM_seed_R, A, M)` test-case planning.
//! * [`campaign`] — the per-chunk core: baseline, fuzzing sequence,
//!   crash recovery, all through [`FuzzTarget`].
//! * [`executor`] — the shared work-stealing executor (atomic-cursor
//!   claim, per-worker context, index-ordered delivery) every parallel
//!   driver runs on.
//! * [`parallel`] — the campaign engine: sharded multi-worker
//!   execution with deterministic (worker-count-independent)
//!   aggregation, `jobs=1` being the reference; each worker boots one
//!   private target per workload and positions it per chunk.
//! * [`failure`] — VM-crash vs hypervisor-crash classification.
//! * [`corpus`] — reproducible, signature-deduplicated crash records.
//! * [`table1`] — assembly of the paper's Table I.
//!
//! A fuzzing sequence against a backend, by hand — boot to `s1`, replay
//! up to `VM_seed_R` and pin that state, submit the baseline, mutate,
//! restore the pin on a crash:
//!
//! ```
//! use iris_fuzzer::mutation::{mutate, SeedArea};
//! use iris_fuzzer::target::{record_trace, replay_seeds, Backend, BootPlan, FuzzTarget, TargetFactory};
//! use iris_guest::workloads::Workload;
//! use iris_vtx::exit::ExitReason;
//! use rand::rngs::SmallRng;
//! use rand::SeedableRng;
//!
//! let trace = record_trace(Workload::OsBoot, 80, 42);
//! let idx = trace.seeds.iter().position(|s| s.reason == ExitReason::CrAccess).unwrap();
//!
//! let factory = Backend::Iris; // or Backend::Faulty, or your own
//! let mut target = factory.build(BootPlan::for_test_case(&trace));
//! target.boot(); // s1, the snapshot forest's root
//! replay_seeds(&mut target, &trace.seeds[..idx]);
//! let before_seed = target.pin_state().expect("HvTarget has a forest");
//! let baseline = target.submit(&trace.seeds[idx]);
//! assert!(baseline.coverage.lines() > 0);
//!
//! let mut rng = SmallRng::seed_from_u64(7);
//! for _ in 0..25 {
//!     let (mutant, _) = mutate(&trace.seeds[idx], SeedArea::Vmcs, &mut rng);
//!     if target.submit(&mutant).crash.is_some() {
//!         target.reset_to(before_seed); // O(delta) restore, keep fuzzing
//!     }
//! }
//! ```
//!
//! Two drivers wrap exactly this loop (plus corpus bookkeeping), one
//! engine each: [`ParallelCampaign`] (which [`Table1`] plans for) and
//! the [`guided`] shared-corpus engine. Both accept any factory, so a
//! new backend only implements the trait pair.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod checkpoint;
pub mod corpus;
pub mod executor;
pub mod failure;
pub mod guided;
pub mod mutation;
pub mod parallel;
pub mod strategies;
pub mod table1;
pub mod target;
pub mod testcase;

pub use campaign::TestCaseResult;
pub use checkpoint::{atomic_write_json, CampaignCheckpoint, GuidedCheckpoint, JsonWriter};
pub use corpus::{Corpus, CrashRecord};
pub use executor::{ExecutorError, FaultPlan, RunPolicy};
pub use failure::{FailureKind, FailureStats};
pub use guided::{
    run_guided_shared, run_guided_shared_session, run_guided_shared_with, GenerationProgress,
    GuidedConfig, GuidedResult, SharedRunOptions,
};
pub use mutation::{mutate, AppliedMutation, SeedArea};
pub use parallel::{available_jobs, CampaignReport, CampaignRunOptions, ParallelCampaign};
pub use strategies::{mutate_with, Strategy};
pub use table1::Table1;
pub use target::{
    detect_planted_faults, record_trace, render_planted_fault_report, replay_seeds, Backend,
    BootPlan, ConfiguredBackend, CrashVerdict, FuzzTarget, HvTarget, SubmitOutcome, TargetFactory,
};
pub use testcase::TestCase;
