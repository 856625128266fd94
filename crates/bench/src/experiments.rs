//! Experiment runners regenerating the paper's tables and figures.
//!
//! Every runner is deterministic in its `(exits, seed)` inputs and
//! returns structured data; the `src/bin/` regenerators render it.

use iris_core::manager::{IrisManager, Mode};
use iris_core::metrics::{self, DiffByReason, Efficiency};
use iris_core::record::{RecordConfig, Recorder};
use iris_core::replay::ReplayEngine;
use iris_core::trace::RecordedTrace;
use iris_fuzzer::parallel::{CampaignReport, ParallelCampaign};
use iris_fuzzer::table1::Table1;
use iris_fuzzer::target::TargetFactory;
use iris_guest::runner::{fast_forward_boot, GuestRunner};
use iris_guest::workloads::{os_boot, Workload};
use iris_hv::hooks::NoHooks;
use iris_hv::hypervisor::Hypervisor;
use iris_vtx::cr::OperatingMode;
use iris_vtx::exit::ExitReason;
use serde::Serialize;
use std::collections::BTreeMap;

/// Record `exits` of a workload on a fresh stack (booting the test VM
/// first for non-boot workloads). Returns the hypervisor too, so callers
/// can keep replaying on the same clock.
#[must_use]
pub fn record_workload(workload: Workload, exits: usize, seed: u64) -> (Hypervisor, RecordedTrace) {
    let mut hv = Hypervisor::new();
    let dom = hv.create_hvm_domain(64 << 20);
    if workload != Workload::OsBoot {
        fast_forward_boot(&mut hv, dom);
    }
    let ops = workload.generate(exits, seed);
    let trace = Recorder::new().record_workload(&mut hv, dom, workload.label(), ops);
    (hv, trace)
}

/// Replay a recorded trace into a fresh dummy VM; returns the replay
/// trace and the replay wall time in ms.
#[must_use]
pub fn replay_trace(trace: &RecordedTrace) -> (RecordedTrace, f64) {
    let mut hv = Hypervisor::new();
    let dummy = hv.create_hvm_domain(64 << 20);
    let mut engine = ReplayEngine::new(&mut hv, dummy);
    let t0 = hv.tsc.now();
    let replayed = engine.replay_trace(&mut hv, trace);
    let ms = (hv.tsc.now() - t0) as f64 / 3.6e6;
    (replayed, ms)
}

// ---------------------------------------------------------------------
// Fig. 4 — VM-exit reasons over time during OS BOOT.
// ---------------------------------------------------------------------

/// One Fig. 4 sample: for each reason, the exit indices where it occurs
/// (bucketed).
#[derive(Debug, Clone, Serialize)]
pub struct Fig4 {
    /// Total exits (BIOS + kernel).
    pub total_exits: usize,
    /// Exits in the BIOS prefix.
    pub bios_exits: usize,
    /// reason label → per-bucket counts.
    pub buckets: BTreeMap<String, Vec<usize>>,
    /// Bucket width in exits.
    pub bucket_width: usize,
}

/// Run the Fig. 4 timeline: a full boot of `bios + kernel` exits.
/// (The paper's full boot is ≈10K BIOS + ≈510K kernel ≈ 520K exits;
/// scale down with the arguments for quick runs.)
#[must_use]
pub fn fig4_timeline(bios: usize, kernel: usize, bucket_width: usize, seed: u64) -> Fig4 {
    let ops = os_boot::generate_full(bios, kernel, seed);
    let total = ops.len();
    let n_buckets = total.div_ceil(bucket_width);
    let mut buckets: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for (i, op) in ops.iter().enumerate() {
        let reason = ExitReason::from_number(op.event.reason_number)
            .map_or("OTHER", ExitReason::figure_label);
        buckets
            .entry(reason.to_owned())
            .or_insert_with(|| vec![0; n_buckets])[i / bucket_width] += 1;
    }
    Fig4 {
        total_exits: total,
        bios_exits: bios,
        buckets,
        bucket_width,
    }
}

// ---------------------------------------------------------------------
// Fig. 5 — exit-reason distribution per workload.
// ---------------------------------------------------------------------

/// Fig. 5: per workload, the probability of each exit reason.
#[must_use]
pub fn fig5_distribution(exits: usize, seed: u64) -> BTreeMap<Workload, BTreeMap<String, f64>> {
    let mut out = BTreeMap::new();
    for w in Workload::ALL {
        let ops = w.generate(exits, seed);
        let mut hist: BTreeMap<String, f64> = BTreeMap::new();
        for op in &ops {
            let label = ExitReason::from_number(op.event.reason_number)
                .map_or("OTHER", ExitReason::figure_label);
            *hist.entry(label.to_owned()).or_insert(0.0) += 1.0;
        }
        for v in hist.values_mut() {
            *v /= exits as f64;
        }
        out.insert(w, hist);
    }
    out
}

// ---------------------------------------------------------------------
// Fig. 6 — cumulative coverage, record vs replay.
// ---------------------------------------------------------------------

/// Fig. 6 data for one workload.
#[derive(Debug, Clone, Serialize)]
pub struct Fig6 {
    /// Workload label.
    pub workload: String,
    /// Cumulative recorded coverage per exit.
    pub recording: Vec<u64>,
    /// Cumulative replayed coverage per exit.
    pub replaying: Vec<u64>,
    /// End-of-trace fitting percentage.
    pub fitting_percent: f64,
}

/// Run Fig. 6 for one workload.
#[must_use]
pub fn fig6_coverage(workload: Workload, exits: usize, seed: u64) -> Fig6 {
    let (_, recorded) = record_workload(workload, exits, seed);
    let (replayed, _) = if workload == Workload::OsBoot {
        replay_trace(&recorded)
    } else {
        // Post-boot workloads replay on a dummy VM that replayed the
        // boot first (the paper starts both sides from the same
        // snapshot; see §VI-B).
        let (_, boot) = record_workload(Workload::OsBoot, exits.min(1500), seed);
        let mut hv = Hypervisor::new();
        let dummy = hv.create_hvm_domain(64 << 20);
        let mut engine = ReplayEngine::new(&mut hv, dummy);
        engine.replay_trace(&mut hv, &boot);
        let t0 = hv.tsc.now();
        let rp = engine.replay_trace(&mut hv, &recorded);
        (rp, (hv.tsc.now() - t0) as f64 / 3.6e6)
    };
    let fit = metrics::coverage_fitting(&recorded, &replayed);
    Fig6 {
        workload: workload.label().to_owned(),
        recording: recorded.cumulative_coverage(),
        replaying: replayed.cumulative_coverage(),
        fitting_percent: fit.fitting_percent,
    }
}

// ---------------------------------------------------------------------
// Fig. 7 — coverage differences by exit reason.
// ---------------------------------------------------------------------

/// Run Fig. 7 for one workload: the per-reason diff ranges and the
/// frequency of >30-LOC divergences.
#[must_use]
pub fn fig7_diffs(workload: Workload, exits: usize, seed: u64) -> DiffByReason {
    let (_, recorded) = record_workload(workload, exits, seed);
    let (replayed, _) = replay_with_boot_prefix(workload, &recorded, exits, seed);
    metrics::diff_by_reason(&recorded, &replayed)
}

fn replay_with_boot_prefix(
    workload: Workload,
    recorded: &RecordedTrace,
    exits: usize,
    seed: u64,
) -> (RecordedTrace, f64) {
    if workload == Workload::OsBoot {
        replay_trace(recorded)
    } else {
        let (_, boot) = record_workload(Workload::OsBoot, exits.min(1500), seed);
        let mut hv = Hypervisor::new();
        let dummy = hv.create_hvm_domain(64 << 20);
        let mut engine = ReplayEngine::new(&mut hv, dummy);
        engine.replay_trace(&mut hv, &boot);
        let t0 = hv.tsc.now();
        let rp = engine.replay_trace(&mut hv, recorded);
        (rp, (hv.tsc.now() - t0) as f64 / 3.6e6)
    }
}

// ---------------------------------------------------------------------
// Fig. 8 — the CR0 operating-mode ladder.
// ---------------------------------------------------------------------

/// Fig. 8 data: the mode per exit for recording and replay, plus the
/// guest-state VMWRITE fitting percentage (the paper reports 100%).
#[derive(Debug, Clone, Serialize)]
pub struct Fig8 {
    /// Mode index (0-based) per exit, recorded execution.
    pub recorded_modes: Vec<u8>,
    /// Mode index per exit, replayed execution.
    pub replayed_modes: Vec<u8>,
    /// Guest-state VMWRITE fitting (%).
    pub vmwrite_fitting_percent: f64,
    /// Distinct modes visited, in first-visit order.
    pub modes_visited: Vec<String>,
}

/// Run Fig. 8 over an OS_BOOT trace.
#[must_use]
pub fn fig8_modes(exits: usize, seed: u64) -> Fig8 {
    let (_, recorded) = record_workload(Workload::OsBoot, exits, seed);
    let (replayed, _) = replay_trace(&recorded);
    let rec_modes = metrics::mode_ladder(&recorded);
    let rep_modes = metrics::mode_ladder(&replayed);
    let mut visited: Vec<OperatingMode> = Vec::new();
    for m in &rec_modes {
        if !visited.contains(m) {
            visited.push(*m);
        }
    }
    Fig8 {
        recorded_modes: rec_modes.iter().map(|m| m.index()).collect(),
        replayed_modes: rep_modes.iter().map(|m| m.index()).collect(),
        vmwrite_fitting_percent: metrics::vmwrite_fitting(&recorded, &replayed),
        modes_visited: visited
            .iter()
            .map(|m| m.figure_label().to_owned())
            .collect(),
    }
}

// ---------------------------------------------------------------------
// Fig. 9 — replay efficiency.
// ---------------------------------------------------------------------

/// Fig. 9 data for one workload.
#[derive(Debug, Clone, Serialize)]
pub struct Fig9 {
    /// Workload label.
    pub workload: String,
    /// Cumulative real-VM time per exit (ms), including guest-local time.
    pub real_vm_ms: Vec<f64>,
    /// Cumulative IRIS replay time per exit (ms).
    pub iris_vm_ms: Vec<f64>,
    /// Summary numbers.
    pub efficiency: Efficiency,
    /// The ideal replay throughput of §VI-C (empty preemption-timer
    /// exits), exits/s.
    pub ideal_exits_per_sec: f64,
}

/// Run Fig. 9 for one workload.
#[must_use]
pub fn fig9_efficiency(workload: Workload, exits: usize, seed: u64) -> Fig9 {
    let (_, recorded) = record_workload(workload, exits, seed);
    let (replayed, replay_ms) = replay_with_boot_prefix(workload, &recorded, exits, seed);

    // Real-VM cumulative wall time: start-to-start deltas include the
    // guest-local burn.
    let base = recorded.metrics.first().map_or(0, |m| m.start_tsc);
    let real_vm_ms: Vec<f64> = recorded
        .metrics
        .iter()
        .map(|m| (m.start_tsc + m.handling_cycles - base) as f64 / 3.6e6)
        .collect();
    let rbase = replayed.metrics.first().map_or(0, |m| m.start_tsc);
    let iris_vm_ms: Vec<f64> = replayed
        .metrics
        .iter()
        .map(|m| (m.start_tsc + m.handling_cycles - rbase) as f64 / 3.6e6)
        .collect();

    Fig9 {
        workload: workload.label().to_owned(),
        real_vm_ms,
        iris_vm_ms,
        efficiency: metrics::efficiency(&recorded, replay_ms),
        ideal_exits_per_sec: ideal_replay_throughput(exits.min(2000)),
    }
}

/// Measure the ideal replay ceiling: raw preemption-timer exits with no
/// seed submission (§VI-C's 50K exits/s).
#[must_use]
pub fn ideal_replay_throughput(exits: usize) -> f64 {
    let mut hv = Hypervisor::new();
    let dummy = hv.create_hvm_domain(16 << 20);
    let _engine = ReplayEngine::new(&mut hv, dummy);
    let t0 = hv.tsc.now();
    for _ in 0..exits {
        let ev = iris_hv::hypervisor::ExitEvent::new(ExitReason::PreemptionTimer);
        let _ = hv.vm_exit(dummy, &ev, &mut NoHooks);
    }
    let secs = (hv.tsc.now() - t0) as f64 / 3.6e9;
    exits as f64 / secs
}

// ---------------------------------------------------------------------
// Fig. 10 — recording overhead per exit reason.
// ---------------------------------------------------------------------

/// Per-reason handling-time statistics, with and without recording.
#[derive(Debug, Clone, Serialize)]
pub struct Fig10 {
    /// reason label → (median µs without recording, median µs with).
    pub medians_us: BTreeMap<String, (f64, f64)>,
    /// Overall overhead percentage.
    pub overhead_percent: f64,
}

/// Run Fig. 10 over one workload (`runs` repetitions, median taken).
#[must_use]
pub fn fig10_overhead(workload: Workload, exits: usize, runs: usize, seed: u64) -> Fig10 {
    let mut plain: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    let mut recorded: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    let mut total_plain = 0u64;
    let mut total_rec = 0u64;

    for r in 0..runs {
        let ops = workload.generate(exits, seed + r as u64);

        // Without recording.
        let mut hv = Hypervisor::new();
        let dom = hv.create_hvm_domain(64 << 20);
        if workload != Workload::OsBoot {
            fast_forward_boot(&mut hv, dom);
        }
        let mut runner = GuestRunner::new(dom);
        for op in &ops {
            let o = runner.step(&mut hv, op, &mut NoHooks);
            if let Some(reason) = o.handled_reason {
                plain
                    .entry(reason.figure_label().to_owned())
                    .or_default()
                    .push(o.cycles);
                total_plain += o.cycles;
            }
        }

        // With recording.
        let (_, trace) = {
            let mut hv = Hypervisor::new();
            let dom = hv.create_hvm_domain(64 << 20);
            if workload != Workload::OsBoot {
                fast_forward_boot(&mut hv, dom);
            }
            let t = Recorder::new().record_workload(
                &mut hv,
                dom,
                workload.label(),
                workload.generate(exits, seed + r as u64),
            );
            (hv, t)
        };
        for m in &trace.metrics {
            recorded
                .entry(m.reason.figure_label().to_owned())
                .or_default()
                .push(m.handling_cycles);
            total_rec += m.handling_cycles;
        }
    }

    let median = |v: &mut Vec<u64>| -> f64 {
        v.sort_unstable();
        if v.is_empty() {
            0.0
        } else {
            v[v.len() / 2] as f64 / 3600.0 // cycles → µs
        }
    };
    let mut medians_us = BTreeMap::new();
    for (label, mut p) in plain {
        let m_plain = median(&mut p);
        let m_rec = recorded.get_mut(&label).map_or(0.0, median);
        medians_us.insert(label, (m_plain, m_rec));
    }
    Fig10 {
        medians_us,
        overhead_percent: (total_rec as f64 / total_plain as f64 - 1.0) * 100.0,
    }
}

// ---------------------------------------------------------------------
// Table I + §VI-B + §VI-D.
// ---------------------------------------------------------------------

/// Record the Table I workload traces — the input of
/// [`table1_parallel_with`].
#[must_use]
pub fn table1_traces(exits: usize, seed: u64) -> BTreeMap<Workload, RecordedTrace> {
    let mut traces = BTreeMap::new();
    for w in iris_fuzzer::table1::TABLE1_WORKLOADS {
        let (_, t) = record_workload(*w, exits, seed);
        traces.insert(*w, t);
    }
    traces
}

/// Run Table I on the sharded executor against fuzz-target backend
/// `factory` (e.g. `Backend::Faulty` for a ground-truth detection run of
/// the whole table), with `jobs` workers stealing mutant ranges of
/// `chunk` mutants. The cells (and the crash corpus) are byte-identical
/// to the `jobs=1` run's for any `(jobs, chunk)`; only the wall clock
/// changes.
#[must_use]
pub fn table1_parallel_with<F: TargetFactory>(
    factory: F,
    exits: usize,
    mutants: usize,
    seed: u64,
    jobs: usize,
    chunk: usize,
) -> (Table1, CampaignReport) {
    let traces = table1_traces(exits, seed);
    Table1::run_parallel(
        &ParallelCampaign::with_factory(jobs, factory).with_chunk(chunk),
        &traces,
        mutants,
        seed,
    )
}

/// §VI-B boot-state experiment result.
#[derive(Debug, Clone, Serialize)]
pub struct BootStateExperiment {
    /// Cold replay: seeds completed before the crash, and the log line.
    pub cold_completed: usize,
    /// The `bad RIP for mode 0` console message.
    pub cold_crash_message: String,
    /// Seeds completed when the boot trace was replayed first.
    pub warm_completed: usize,
    /// Total seeds attempted.
    pub total: usize,
}

/// Run the §VI-B experiment for one post-boot workload.
#[must_use]
pub fn boot_state_experiment(workload: Workload, exits: usize, seed: u64) -> BootStateExperiment {
    let (_, trace) = record_workload(workload, exits, seed);
    let (_, boot) = record_workload(Workload::OsBoot, 1000, seed);

    // Cold: fresh dummy VM, no boot replay.
    let mut hv = Hypervisor::new();
    let dummy = hv.create_hvm_domain(16 << 20);
    let mut engine = ReplayEngine::new(&mut hv, dummy);
    let cold = engine.replay_trace(&mut hv, &trace);
    let msg = hv
        .log
        .grep("bad RIP")
        .last()
        .map(|l| l.message.clone())
        .unwrap_or_default();

    // Warm: boot replay first.
    let mut hv2 = Hypervisor::new();
    let dummy2 = hv2.create_hvm_domain(16 << 20);
    let mut engine2 = ReplayEngine::new(&mut hv2, dummy2);
    engine2.replay_trace(&mut hv2, &boot);
    let warm = engine2.replay_trace(&mut hv2, &trace);

    BootStateExperiment {
        cold_completed: cold.metrics.iter().filter(|m| !m.crashed).count(),
        cold_crash_message: msg,
        warm_completed: warm.metrics.iter().filter(|m| !m.crashed).count(),
        total: trace.seeds.len(),
    }
}

/// §VI-D seed-memory statistics.
#[derive(Debug, Clone, Serialize)]
pub struct SeedMemory {
    /// Worst-case VMCS ops observed in any seed.
    pub max_vmcs_ops: usize,
    /// Mean VMCS ops.
    pub mean_vmcs_ops: f64,
    /// Worst-case seed payload bytes observed.
    pub max_seed_bytes: usize,
    /// The pre-allocation size the paper derives (470 B).
    pub prealloc_bytes: usize,
}

/// Run the §VI-D seed-size measurement across all workloads.
#[must_use]
pub fn seed_memory(exits: usize, seed: u64) -> SeedMemory {
    let mut max_ops = 0usize;
    let mut sum_ops = 0usize;
    let mut count = 0usize;
    let mut max_bytes = 0usize;
    for w in Workload::ALL {
        let (_, t) = record_workload(w, exits, seed);
        for s in &t.seeds {
            max_ops = max_ops.max(s.reads.len());
            sum_ops += s.reads.len();
            max_bytes = max_bytes.max(s.payload_bytes());
            count += 1;
        }
    }
    SeedMemory {
        max_vmcs_ops: max_ops,
        mean_vmcs_ops: sum_ops as f64 / count as f64,
        max_seed_bytes: max_bytes,
        prealloc_bytes: iris_core::seed::WORST_CASE_SEED_BYTES,
    }
}

/// Run a full record+replay accuracy/efficiency summary through the
/// manager (used by the quickstart example and smoke tests).
#[must_use]
pub fn quick_summary(workload: Workload, exits: usize, seed: u64) -> String {
    let mut mgr = IrisManager::new(64 << 20);
    if workload != Workload::OsBoot {
        mgr.boot_test_vm();
    }
    let ops = workload.generate(exits, seed);
    mgr.record(workload.label(), ops, RecordConfig::default());
    let recorded = mgr.db.get(workload.label()).expect("recorded").clone();
    let t0 = mgr.hv.tsc.now();
    let replayed = mgr.replay(workload.label(), Mode::ReplayWithMetrics, true);
    let ms = (mgr.hv.tsc.now() - t0) as f64 / 3.6e6;
    let fit = metrics::coverage_fitting(&recorded, &replayed);
    let eff = metrics::efficiency(&recorded, ms);
    format!(
        "{}: fitting {:.1}%, real {:.1} ms vs replay {:.1} ms ({:.1}% decrease)",
        workload.label(),
        fit.fitting_percent,
        eff.real_ms,
        eff.replay_ms,
        eff.decrease_percent
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4_buckets_cover_all_exits() {
        let f = fig4_timeline(200, 300, 50, 1);
        assert_eq!(f.total_exits, 500);
        let sum: usize = f.buckets.values().flatten().sum();
        assert_eq!(sum, 500);
        // BIOS prefix is I/O-heavy: the I/O row dominates early buckets.
        let io = &f.buckets["I/O INST."];
        assert!(io[0] > 25);
    }

    #[test]
    fn fig5_probabilities_sum_to_one() {
        let d = fig5_distribution(400, 2);
        for (w, hist) in &d {
            let sum: f64 = hist.values().sum();
            assert!((sum - 1.0).abs() < 1e-9, "{w:?} sums to {sum}");
        }
        assert!(d[&Workload::CpuBound]["RDTSC"] > 0.7);
        assert!(d[&Workload::OsBoot]["I/O INST."] > 0.3);
    }

    #[test]
    fn fig6_curves_are_monotone_and_fit() {
        let f = fig6_coverage(Workload::OsBoot, 400, 3);
        assert!(f.recording.windows(2).all(|w| w[0] <= w[1]));
        assert!(f.replaying.windows(2).all(|w| w[0] <= w[1]));
        assert!(f.fitting_percent > 80.0, "fitting {}", f.fitting_percent);
    }

    #[test]
    fn fig8_visits_the_ladder_and_fits_writes() {
        let f = fig8_modes(600, 4);
        assert!(f.modes_visited.len() >= 4, "visited {:?}", f.modes_visited);
        assert!(f.modes_visited.contains(&"Mode1".to_owned()));
        assert!(
            f.vmwrite_fitting_percent > 99.0,
            "VMWRITE fitting {}",
            f.vmwrite_fitting_percent
        );
    }

    #[test]
    fn fig9_idle_speedup_is_large() {
        let f = fig9_efficiency(Workload::Idle, 150, 5);
        assert!(f.efficiency.speedup > 20.0, "{:?}", f.efficiency);
        assert!(f.ideal_exits_per_sec > 30_000.0);
    }

    #[test]
    fn boot_state_experiment_matches_paper() {
        let e = boot_state_experiment(Workload::CpuBound, 40, 6);
        assert!(e.cold_completed < e.total);
        assert!(e.cold_crash_message.contains("for mode 0"));
        assert_eq!(e.warm_completed, e.total);
    }

    #[test]
    fn seed_memory_within_prealloc() {
        let m = seed_memory(150, 7);
        assert!(m.max_vmcs_ops <= 32);
        assert!(m.max_seed_bytes <= m.prealloc_bytes);
        assert_eq!(m.prealloc_bytes, 470);
    }
}
