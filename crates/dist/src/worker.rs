//! The worker loop behind `iris worker --connect`.
//!
//! A worker re-derives the job's trace, plan, and initial corpus from
//! the [`JobSpec`] the coordinator's `Assign` frame carries
//! (determinism makes the derivation byte-identical on every host) and
//! keeps **warm targets per job** across leases ([`JobTargets`]: a
//! `PrefixServer` for campaign chunks, a `SlotContext` for guided
//! slots), each booted once. [`execute_range`] runs the exact
//! in-process cores on them, so a range's bytes match the
//! single-process run's, and the coordinator's cold re-execution, by
//! construction. Leases and epochs are checked against the job first.
//!
//! Liveness: while a lease computes, a sibling thread owns nothing but
//! the heartbeat cadence, writing `Heartbeat` frames that renew the
//! coordinator-side lease; the sibling is woken and joined the moment
//! the compute finishes, so no heartbeat thread outlives its lease.
//! Workers survive a coordinator restart by reconnecting — under the
//! bounded exponential [`BackoffPolicy`] with deterministic jitter —
//! with the last job fingerprint in `Hello`, and accepting a fresh
//! `Assign`. A coordinator that stays unreachable past the backoff
//! budget surfaces as a typed [`DistError::RetriesExhausted`].

use crate::backoff::BackoffPolicy;
use crate::job::{JobKind, JobSpec};
use crate::proto::{
    read_frame, write_frame, ErrorCode, Frame, LeaseKind, LeaseRange, RangeOutput, PROTO_VERSION,
};
use crate::verify::{execute_range, ExecDetail, GuidedEpoch, JobTargets};
use crate::DistError;
use iris_core::seed::VmSeed;
use iris_core::trace::RecordedTrace;
use iris_fuzzer::guided::{corpus_paths, initial_corpus, lineage_problem};
use iris_fuzzer::target::{Backend, FuzzTarget, HvTarget, TargetFactory};
use iris_fuzzer::testcase::TestCase;
use iris_hv::coverage::CoverageMap;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::Duration;

/// Configuration for [`run_worker`].
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// Coordinator address, e.g. `127.0.0.1:7331`.
    pub connect: String,
    /// Backend registry name this worker serves (`iris` | `faulty`) —
    /// the coordinator only leases matching jobs to it.
    pub target: String,
    /// Exit after the first completed job instead of waiting for more.
    pub once: bool,
    /// Heartbeat cadence while a lease computes. Must be comfortably
    /// below the coordinator's lease timeout.
    pub heartbeat_ms: u64,
    /// Reconnect schedule after connection loss: bounded exponential
    /// delays with deterministic jitter, then a typed give-up
    /// ([`DistError::RetriesExhausted`]). The attempt counter resets
    /// whenever a connection makes progress (a frame arrives).
    pub backoff: BackoffPolicy,
    /// Cooperative stop flag (SIGINT wiring — `sigint::install`'s
    /// static flag plugs in directly); checked between frames and
    /// during backoff sleeps.
    pub stop: Option<&'static AtomicBool>,
    /// Test hook simulating a SIGKILL'd worker: after this many
    /// completed chunks, the next granted lease is abandoned and the
    /// connection dropped abruptly — the coordinator must re-lease the
    /// range and the run must stay byte-identical.
    pub fail_after_chunks: Option<u64>,
    /// Test hook simulating a byzantine worker: after this many honest
    /// chunks, every subsequent result is deterministically falsified
    /// (wrong but well-formed) before delivery — the coordinator's
    /// `--redundancy`/spot-check validation must quarantine this worker
    /// and keep the report byte-identical.
    pub corrupt_after: Option<u64>,
}

impl Default for WorkerOptions {
    fn default() -> Self {
        Self {
            connect: String::new(),
            target: "iris".to_owned(),
            once: false,
            heartbeat_ms: 1_000,
            backoff: BackoffPolicy::default(),
            stop: None,
            fail_after_chunks: None,
            corrupt_after: None,
        }
    }
}

/// What a worker did before returning.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerSummary {
    /// Leases computed and delivered.
    pub chunks_done: u64,
    /// Jobs this worker saw complete.
    pub jobs_done: u64,
    /// True when the `fail_after_chunks` test hook fired.
    pub fault_injected: bool,
    /// Results the `corrupt_after` test hook falsified before delivery.
    pub results_corrupted: u64,
}

/// The job state a worker keeps per `Assign` — everything re-derived
/// locally from the spec, plus the warm targets its leases run on.
struct WorkerJob<F = Backend, T: FuzzTarget = HvTarget> {
    id: u64,
    fingerprint: String,
    trace: RecordedTrace,
    plan: Vec<TestCase>,
    corpus0: Vec<VmSeed>,
    /// The guided slot budget (0 for a campaign job): no slot lease
    /// may reach past it.
    budget: u64,
    /// The guided generation `guided` belongs to, and the promotion
    /// lineage its corpus was assembled with.
    epoch: Option<u64>,
    lineage: Vec<(usize, bool)>,
    guided: GuidedEpoch,
    /// The targets every lease of this job runs on, booted once.
    targets: JobTargets<F, T>,
}

enum Served {
    /// Connection lost or coordinator shutting down — reconnect.
    Lost(DistError),
    /// `--once` satisfied.
    Once,
    /// Cooperative stop requested.
    Stop,
    /// The `fail_after_chunks` hook fired.
    FaultInjected,
}

fn stop_requested(opts: &WorkerOptions) -> bool {
    opts.stop.is_some_and(|s| s.load(Ordering::SeqCst))
}

/// Errors that reconnecting cannot fix: speaking to an incompatible
/// coordinator, a protocol bug on either side, or being quarantined
/// (the divergence is deterministic — reconnecting reproduces it).
fn is_fatal(e: &DistError) -> bool {
    match e {
        DistError::VersionMismatch { .. }
        | DistError::FingerprintMismatch { .. }
        | DistError::Protocol(_)
        | DistError::FrameTooLarge { .. }
        | DistError::RetriesExhausted { .. } => true,
        DistError::Remote { code, .. } => !matches!(code, ErrorCode::Shutdown),
        DistError::Disconnected { .. } | DistError::Io(_) | DistError::Busy { .. } => false,
    }
}

/// Sleep `total_ms`, waking early when the stop flag trips.
fn sleep_with_stop(total_ms: u64, opts: &WorkerOptions) {
    let mut remaining = total_ms;
    while remaining > 0 {
        if stop_requested(opts) {
            return;
        }
        let step = remaining.min(50);
        std::thread::sleep(Duration::from_millis(step));
        remaining -= step;
    }
}

/// Run the worker loop: connect, serve leases, reconnect on loss under
/// the backoff policy, until stopped, `--once` is satisfied, or the
/// coordinator stays unreachable past the backoff budget.
///
/// # Errors
/// Terminal protocol failures (version mismatch, protocol violations,
/// quarantine) and [`DistError::RetriesExhausted`] when the reconnect
/// budget is spent.
pub fn run_worker(opts: &WorkerOptions) -> Result<WorkerSummary, DistError> {
    let backend = Backend::parse(&opts.target)
        .ok_or_else(|| DistError::Protocol(format!("unknown target '{}'", opts.target)))?;
    let mut summary = WorkerSummary::default();
    let mut job: Option<WorkerJob> = None;
    let mut attempt: u32 = 0;
    loop {
        if stop_requested(opts) {
            return Ok(summary);
        }
        let last = match TcpStream::connect(&opts.connect) {
            Ok(stream) => {
                let mut progressed = false;
                match serve(
                    stream,
                    opts,
                    backend,
                    &mut job,
                    &mut summary,
                    &mut progressed,
                ) {
                    Ok(Served::Once | Served::Stop) => return Ok(summary),
                    Ok(Served::FaultInjected) => {
                        summary.fault_injected = true;
                        return Ok(summary);
                    }
                    Ok(Served::Lost(e)) => {
                        if progressed {
                            // The coordinator was alive this connection:
                            // a fresh outage gets the full budget.
                            attempt = 0;
                        }
                        e
                    }
                    Err(e) => return Err(e),
                }
            }
            Err(e) => DistError::Io(e),
        };
        attempt += 1;
        if opts.backoff.exhausted(attempt) {
            return Err(DistError::RetriesExhausted {
                attempts: attempt.saturating_sub(1),
                last: Box::new(last),
            });
        }
        sleep_with_stop(opts.backoff.delay_ms(attempt), opts);
    }
}

/// Serve one connection until it ends. `Err` is fatal for the whole
/// worker; `Ok(Served::Lost)` asks the caller to reconnect.
/// `progressed` flips once any frame arrives — the caller's signal to
/// reset the backoff attempt counter.
fn serve(
    mut stream: TcpStream,
    opts: &WorkerOptions,
    backend: Backend,
    job: &mut Option<WorkerJob>,
    summary: &mut WorkerSummary,
    progressed: &mut bool,
) -> Result<Served, DistError> {
    let _ = stream.set_nodelay(true);
    let hello = Frame::Hello {
        proto_version: PROTO_VERSION,
        job_fingerprint: job
            .as_ref()
            .map(|j| j.fingerprint.clone())
            .unwrap_or_default(),
        target: opts.target.clone(),
    };
    if let Err(e) = write_frame(&mut stream, &hello) {
        return Ok(Served::Lost(e));
    }
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    loop {
        if stop_requested(opts) {
            return Ok(Served::Stop);
        }
        let frame = match read_frame(&mut stream) {
            Ok(f) => f,
            Err(e) if e.is_poll_timeout() => continue,
            Err(e) if is_fatal(&e) => return Err(e),
            Err(e) => return Ok(Served::Lost(e)),
        };
        *progressed = true;
        match frame {
            Frame::Assign {
                job_id,
                fingerprint,
                spec,
            } => {
                if spec.target != opts.target {
                    return Err(DistError::Protocol(format!(
                        "assigned job targets '{}' but this worker serves '{}'",
                        spec.target, opts.target
                    )));
                }
                *job = Some(derive_job(job_id, fingerprint, &spec, backend)?);
            }
            Frame::Epoch {
                job_id,
                epoch,
                promoted,
                lineage,
                seen,
            } => {
                let Some(j) = job.as_mut().filter(|j| j.id == job_id) else {
                    return Err(DistError::Protocol(
                        "epoch update for a job this worker was never assigned".to_owned(),
                    ));
                };
                j.apply_epoch(epoch, promoted, lineage, *seen)?;
            }
            Frame::Lease {
                job_id,
                kind,
                range,
                rng_seed,
                epoch,
            } => {
                let Some(j) = job.as_mut().filter(|j| j.id == job_id) else {
                    return Err(DistError::Protocol(
                        "lease for a job this worker was never assigned".to_owned(),
                    ));
                };
                if opts
                    .fail_after_chunks
                    .is_some_and(|n| summary.chunks_done >= n)
                {
                    // Simulated SIGKILL: drop the socket while holding
                    // the lease. The coordinator re-leases the range.
                    return Ok(Served::FaultInjected);
                }
                let mut output = match compute_with_heartbeats(
                    &mut stream,
                    opts,
                    j,
                    &kind,
                    range,
                    rng_seed,
                    epoch,
                ) {
                    Ok(out) => out,
                    Err(e) if is_fatal(&e) => return Err(e),
                    Err(e) => return Ok(Served::Lost(e)),
                };
                if opts.corrupt_after.is_some_and(|n| summary.chunks_done >= n) {
                    corrupt_output(&mut output);
                    summary.results_corrupted += 1;
                }
                let done = Frame::ChunkDone {
                    job_id,
                    range_start: range.start,
                    output,
                };
                match write_frame(&mut stream, &done) {
                    Ok(()) => summary.chunks_done += 1,
                    Err(e) => return Ok(Served::Lost(e)),
                }
            }
            Frame::JobDone { .. } => {
                summary.jobs_done += 1;
                *job = None;
                if opts.once {
                    return Ok(Served::Once);
                }
            }
            Frame::Error { code, detail } => {
                let e = DistError::Remote { code, detail };
                if is_fatal(&e) {
                    return Err(e);
                }
                return Ok(Served::Lost(e));
            }
            Frame::Heartbeat | Frame::Progress { .. } => {}
            Frame::Hello { .. } | Frame::Submit { .. } | Frame::ChunkDone { .. } => {
                return Err(DistError::Protocol(
                    "coordinator sent a client/worker-bound frame".to_owned(),
                ));
            }
        }
    }
}

/// The byzantine test hook's falsification: wrong but well-formed, so
/// it passes every structural check and only the content digest can
/// catch it. Deterministic — the corrupted bytes are reproducible.
fn corrupt_output(output: &mut RangeOutput) {
    match output {
        RangeOutput::Campaign(chunk) => {
            // One phantom VM crash: counts stay plausible, digest flips.
            chunk.failures.vm_crashes = chunk.failures.vm_crashes.wrapping_add(1);
        }
        RangeOutput::Guided(outcomes) => {
            // Shift every outcome's scheduled base — outcome count (the
            // structural invariant) is preserved.
            for o in outcomes.iter_mut() {
                o.base_index = o.base_index.wrapping_add(1);
            }
        }
    }
}

/// Re-derive a job's local state from its spec; its targets start cold.
fn derive_job<F, T: FuzzTarget>(
    id: u64,
    fingerprint: String,
    spec: &JobSpec,
    factory: F,
) -> Result<WorkerJob<F, T>, DistError> {
    let trace = spec.record_trace()?;
    let plan = spec.plan(&trace)?;
    let (corpus0, budget) = match spec.kind {
        JobKind::Guided { budget, .. } => (initial_corpus(&trace), budget),
        JobKind::Campaign { .. } => (Vec::new(), 0),
    };
    Ok(WorkerJob {
        id,
        fingerprint,
        trace,
        plan,
        corpus0,
        budget,
        epoch: None,
        lineage: Vec::new(),
        guided: GuidedEpoch::default(),
        targets: JobTargets::cold(factory),
    })
}

impl<F, T> WorkerJob<F, T>
where
    F: for<'t> TargetFactory<Target<'t> = T>,
    T: FuzzTarget,
{
    /// Install a guided generation: corpus `initial ++ promoted`, as
    /// `SharedEngine` keeps it, and seed paths from a lineage that must
    /// pass [`lineage_problem`]. The warm slot context survives only if
    /// the new corpus and lineage extend the old ones.
    fn apply_epoch(
        &mut self,
        epoch: u64,
        promoted: Vec<VmSeed>,
        lineage: Vec<(usize, bool)>,
        seen: CoverageMap,
    ) -> Result<(), DistError> {
        if let Some(problem) = lineage_problem(self.corpus0.len(), &lineage, promoted.len()) {
            return Err(DistError::Protocol(format!("epoch {epoch}: {problem}")));
        }
        let mut corpus = self.corpus0.clone();
        corpus.extend(promoted);
        if !(corpus.starts_with(&self.guided.corpus) && lineage.starts_with(&self.lineage)) {
            self.targets.forget_slots();
        }
        self.guided = GuidedEpoch {
            paths: corpus_paths(self.corpus0.len(), &lineage),
            corpus,
            seen,
        };
        self.lineage = lineage;
        self.epoch = Some(epoch);
        Ok(())
    }

    /// Check a lease against the locally derived job before running
    /// any of it.
    fn validate_lease(
        &self,
        kind: &LeaseKind,
        range: LeaseRange,
        rng_seed: u64,
        epoch: u64,
    ) -> Result<(), DistError> {
        match *kind {
            LeaseKind::CampaignChunk { testcase_index } => {
                let Some(tc) = self.plan.get(testcase_index) else {
                    return Err(DistError::Protocol(format!(
                        "lease names test case {testcase_index} outside the {}-entry plan",
                        self.plan.len()
                    )));
                };
                if tc.rng_seed != rng_seed {
                    return Err(DistError::Protocol(
                        "lease rng seed disagrees with the locally derived plan".to_owned(),
                    ));
                }
                if range.start.saturating_add(range.len) > tc.mutants as u64 {
                    return Err(DistError::Protocol(format!(
                        "lease range {}..{} beyond the test case's {} mutants",
                        range.start,
                        range.start.saturating_add(range.len),
                        tc.mutants
                    )));
                }
                Ok(())
            }
            LeaseKind::GuidedSlotRange => {
                if self.epoch != Some(epoch) {
                    return Err(DistError::Protocol(format!(
                        "guided lease for epoch {epoch} but worker holds {:?}",
                        self.epoch
                    )));
                }
                if self.guided.corpus.is_empty() {
                    return Err(DistError::Protocol(
                        "guided lease with an empty scheduling corpus".to_owned(),
                    ));
                }
                if range
                    .start
                    .checked_add(range.len)
                    .is_none_or(|end| end > self.budget)
                {
                    return Err(DistError::Protocol(format!(
                        "guided lease of {} slots at {} beyond the job's {}-slot budget",
                        range.len, range.start, self.budget
                    )));
                }
                Ok(())
            }
        }
    }

    /// Run one validated lease on the job's warm targets —
    /// [`execute_range`], the same core the coordinator's adjudicating
    /// re-execution runs on a cold instance.
    fn compute_lease(
        &mut self,
        kind: &LeaseKind,
        range: LeaseRange,
        rng_seed: u64,
    ) -> Result<RangeOutput, DistError> {
        let detail = match *kind {
            LeaseKind::CampaignChunk { testcase_index } => {
                let Some(tc) = self.plan.get(testcase_index) else {
                    return Err(DistError::Protocol("lease outran the plan".to_owned()));
                };
                ExecDetail::Campaign(tc)
            }
            LeaseKind::GuidedSlotRange => ExecDetail::Guided(&self.guided),
        };
        Ok(execute_range(
            &mut self.targets,
            &self.trace,
            &detail,
            range,
            rng_seed,
        ))
    }
}

/// Run `compute` on the calling thread while a sibling thread writes
/// `Heartbeat` frames every `heartbeat`, keeping the coordinator-side
/// lease alive however long the compute takes. The sibling is woken by
/// the channel sender dropping and **joined before this returns** — it
/// cannot linger past the lease (or past `--once`).
fn run_with_heartbeats<T, F>(
    stream: &TcpStream,
    heartbeat: Duration,
    compute: F,
) -> Result<T, DistError>
where
    F: FnOnce() -> T,
{
    let (done_tx, done_rx) = mpsc::channel::<()>();
    let link_lost = AtomicBool::new(false);
    let link_lost_ref = &link_lost;
    std::thread::scope(|scope| {
        let sibling = scope.spawn(move || loop {
            match done_rx.recv_timeout(heartbeat) {
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    let mut w = stream;
                    if write_frame(&mut w, &Frame::Heartbeat).is_err() {
                        link_lost_ref.store(true, Ordering::SeqCst);
                        return;
                    }
                }
                Ok(()) | Err(mpsc::RecvTimeoutError::Disconnected) => return,
            }
        });
        let out = compute();
        drop(done_tx);
        let _ = sibling.join();
        if link_lost.load(Ordering::SeqCst) {
            // The result is computed but undeliverable; the coordinator
            // will re-lease and the re-run is byte-identical, so
            // dropping it is safe.
            Err(DistError::Disconnected {
                during: "heartbeat delivery",
                mid_frame: false,
            })
        } else {
            Ok(out)
        }
    })
}

/// Validate and execute one lease under heartbeats.
fn compute_with_heartbeats(
    stream: &mut TcpStream,
    opts: &WorkerOptions,
    job: &mut WorkerJob,
    kind: &LeaseKind,
    range: LeaseRange,
    rng_seed: u64,
    epoch: u64,
) -> Result<RangeOutput, DistError> {
    job.validate_lease(kind, range, rng_seed, epoch)?;
    let heartbeat = Duration::from_millis(opts.heartbeat_ms.max(1));
    run_with_heartbeats(stream, heartbeat, || {
        job.compute_lease(kind, range, rng_seed)
    })?
}

#[cfg(test)]
mod tests {
    use super::*;
    use iris_core::forest::StateId;
    use iris_fuzzer::guided::{measure_baseline, GuidedConfig, SharedEngine};
    use iris_fuzzer::target::{BootPlan, SubmitOutcome};
    use iris_guest::workloads::Workload;
    use std::net::TcpListener;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    fn loopback_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (peer, _) = listener.accept().unwrap();
        (client, peer)
    }

    #[test]
    fn heartbeat_sibling_shuts_down_promptly_after_compute() {
        let (client, _peer) = loopback_pair();
        // A 60 s cadence: if the join waited out the timer, this test
        // would hang far past its assertion window.
        #[allow(clippy::disallowed_methods)] // test-local stopwatch
        let t0 = std::time::Instant::now();
        let out = run_with_heartbeats(&client, Duration::from_secs(60), || 42u32).unwrap();
        assert_eq!(out, 42);
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "heartbeat sibling lingered past the lease: {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn heartbeats_flow_while_compute_runs() {
        let (client, mut peer) = loopback_pair();
        let out = run_with_heartbeats(&client, Duration::from_millis(20), || {
            std::thread::sleep(Duration::from_millis(200));
            7u32
        })
        .unwrap();
        assert_eq!(out, 7);
        drop(client);
        peer.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut beats = 0u32;
        while let Ok(Frame::Heartbeat) = read_frame(&mut peer) {
            beats += 1;
        }
        assert!(
            beats >= 2,
            "expected heartbeats during compute, saw {beats}"
        );
    }

    #[test]
    fn heartbeat_link_loss_surfaces_as_disconnect() {
        let (client, peer) = loopback_pair();
        drop(peer);
        // Give the socket a moment to observe the close, then compute
        // long enough for several heartbeat attempts.
        let result = run_with_heartbeats(&client, Duration::from_millis(10), || {
            std::thread::sleep(Duration::from_millis(300));
            0u32
        });
        match result {
            Err(DistError::Disconnected { during, .. }) => {
                assert_eq!(during, "heartbeat delivery");
            }
            other => panic!("expected heartbeat-delivery disconnect, got {other:?}"),
        }
    }

    /// Counts the boots of every target a job builds (the stock
    /// backend underneath).
    struct CountingFactory {
        boots: Arc<AtomicUsize>,
    }

    struct CountingTarget {
        inner: HvTarget,
        boots: Arc<AtomicUsize>,
    }

    impl FuzzTarget for CountingTarget {
        fn boot(&mut self) {
            self.boots.fetch_add(1, Ordering::Relaxed);
            self.inner.boot();
        }

        fn submit(&mut self, seed: &VmSeed) -> SubmitOutcome {
            self.inner.submit(seed)
        }

        fn reset(&mut self) {
            self.inner.reset();
        }

        fn pin_state(&mut self) -> Option<StateId> {
            self.inner.pin_state()
        }

        fn reset_to(&mut self, id: StateId) -> bool {
            self.inner.reset_to(id)
        }
    }

    impl TargetFactory for CountingFactory {
        type Target<'t> = CountingTarget;

        fn build(&self, plan: BootPlan<'_>) -> CountingTarget {
            CountingTarget {
                inner: Backend::Iris.build(plan),
                boots: Arc::clone(&self.boots),
            }
        }

        fn name(&self) -> &'static str {
            Backend::Iris.name()
        }

        fn description(&self) -> &'static str {
            Backend::Iris.description()
        }
    }

    fn spec(kind: JobKind) -> JobSpec {
        JobSpec {
            target: "iris".to_owned(),
            workload: Workload::OsBoot.label().to_owned(),
            exits: 150,
            seed: 42,
            kind,
        }
    }

    fn counting_job(
        kind: JobKind,
    ) -> (WorkerJob<CountingFactory, CountingTarget>, Arc<AtomicUsize>) {
        let boots = Arc::new(AtomicUsize::new(0));
        let factory = CountingFactory {
            boots: Arc::clone(&boots),
        };
        let job = derive_job(1, "fp".to_owned(), &spec(kind), factory).unwrap();
        (job, boots)
    }

    /// The same range on a freshly built, cold instance — what the
    /// coordinator's adjudication runs.
    fn cold(
        trace: &RecordedTrace,
        detail: &ExecDetail<'_>,
        range: LeaseRange,
        rng_seed: u64,
    ) -> RangeOutput {
        execute_range(
            &mut JobTargets::cold(Backend::Iris),
            trace,
            detail,
            range,
            rng_seed,
        )
    }

    #[test]
    fn warm_targets_boot_once_per_campaign_job_in_any_lease_order() {
        let (mut job, boots) = counting_job(JobKind::Campaign {
            mutants: 12,
            chunk: 4,
        });
        // Two test cases at different seed prefixes, three leases each,
        // served deepest prefix first and interleaved.
        let mut cells: Vec<usize> = Vec::new();
        for (i, tc) in job.plan.iter().enumerate() {
            if cells
                .iter()
                .all(|&c| job.plan[c].seed_index != tc.seed_index)
            {
                cells.push(i);
            }
        }
        cells.truncate(2);
        assert_eq!(cells.len(), 2, "plan needs two distinct seed prefixes");
        cells.sort_by_key(|&c| std::cmp::Reverse(job.plan[c].seed_index));
        let mut leases = Vec::new();
        for start in [8u64, 0, 4] {
            for &c in &cells {
                leases.push((c, LeaseRange { start, len: 4 }));
            }
        }
        for (c, range) in leases {
            let kind = LeaseKind::CampaignChunk { testcase_index: c };
            let rng_seed = job.plan[c].rng_seed;
            job.validate_lease(&kind, range, rng_seed, 0).unwrap();
            let warm = job.compute_lease(&kind, range, rng_seed).unwrap();
            let tc = &job.plan[c];
            let want = cold(&job.trace, &ExecDetail::Campaign(tc), range, rng_seed);
            assert_eq!(warm, want, "test case {c} range {range:?}: warm != cold");
        }
        assert_eq!(
            boots.load(Ordering::Relaxed),
            1,
            "one boot per job, not per lease"
        );
    }

    /// Drive a guided job through `epochs` generations the way the
    /// coordinator does, leasing each batch to `job` in two halves and
    /// checking every output against a cold instance. Returns the
    /// coordinator-side engine.
    fn serve_guided_epochs(
        job: &mut WorkerJob<CountingFactory, CountingTarget>,
        epochs: u64,
    ) -> SharedEngine {
        let config = GuidedConfig {
            budget: job.budget,
            generation: 32,
            rng_seed: 42,
            ..GuidedConfig::default()
        };
        let baseline = measure_baseline(&Backend::Iris, &job.trace, &job.corpus0);
        let mut engine = SharedEngine::fresh(&job.trace, config, baseline);
        for epoch in 0..epochs {
            let batch = engine.batch().expect("budget covers every epoch");
            job.apply_epoch(
                epoch,
                engine.promoted().to_vec(),
                engine.lineage().to_vec(),
                engine.seen().clone(),
            )
            .unwrap();
            let half = batch.len / 2;
            let mut outcomes = Vec::new();
            for range in [
                LeaseRange {
                    start: batch.start,
                    len: half,
                },
                LeaseRange {
                    start: batch.start + half,
                    len: batch.len - half,
                },
            ] {
                let kind = LeaseKind::GuidedSlotRange;
                job.validate_lease(&kind, range, 42, epoch).unwrap();
                let warm = job.compute_lease(&kind, range, 42).unwrap();
                let reference = GuidedEpoch {
                    corpus: engine.corpus().to_vec(),
                    paths: engine.paths().to_vec(),
                    seen: engine.seen().clone(),
                };
                let want = cold(&job.trace, &ExecDetail::Guided(&reference), range, 42);
                assert_eq!(warm, want, "epoch {epoch}");
                match warm {
                    RangeOutput::Guided(out) => outcomes.extend(out),
                    RangeOutput::Campaign(_) => panic!("guided lease ran a campaign chunk"),
                }
            }
            engine.fold_generation(outcomes);
        }
        engine
    }

    #[test]
    fn warm_targets_boot_once_per_guided_job_across_epochs() {
        let (mut job, boots) = counting_job(JobKind::Guided {
            budget: 96,
            generation: 32,
        });
        let engine = serve_guided_epochs(&mut job, 3);
        assert!(
            !engine.lineage().is_empty(),
            "the run must promote, so later epochs position at promoted paths"
        );
        assert_eq!(boots.load(Ordering::Relaxed), 1, "one boot across epochs");
    }

    #[test]
    fn warm_targets_drop_the_slot_cache_on_a_non_extending_lineage() {
        let (mut job, boots) = counting_job(JobKind::Guided {
            budget: 96,
            generation: 32,
        });
        let engine = serve_guided_epochs(&mut job, 2);
        assert_eq!(boots.load(Ordering::Relaxed), 1);
        // Same corpus indices, one promotion's path changed: the cached
        // node for that index is stale, so the context must go.
        let mut lineage = engine.lineage().to_vec();
        assert!(!lineage.is_empty(), "the run must promote");
        lineage[0].1 = !lineage[0].1;
        let promoted = engine.promoted().to_vec();
        let seen = engine.seen().clone();
        job.apply_epoch(2, promoted.clone(), lineage.clone(), seen.clone())
            .unwrap();
        let range = LeaseRange { start: 64, len: 32 };
        let kind = LeaseKind::GuidedSlotRange;
        job.validate_lease(&kind, range, 42, 2).unwrap();
        let warm = job.compute_lease(&kind, range, 42).unwrap();
        assert_eq!(
            boots.load(Ordering::Relaxed),
            2,
            "the slot context was rebuilt"
        );
        let mut corpus = job.corpus0.clone();
        corpus.extend(promoted);
        let reference = GuidedEpoch {
            paths: corpus_paths(job.corpus0.len(), &lineage),
            corpus,
            seen,
        };
        let want = cold(&job.trace, &ExecDetail::Guided(&reference), range, 42);
        assert_eq!(warm, want);
    }

    /// A guided job holding its first epoch (the initial corpus).
    fn guided_job_at_epoch_zero() -> WorkerJob<CountingFactory, CountingTarget> {
        let (mut job, _) = counting_job(JobKind::Guided {
            budget: 96,
            generation: 32,
        });
        job.apply_epoch(0, Vec::new(), Vec::new(), CoverageMap::default())
            .unwrap();
        job
    }

    fn is_protocol<T: std::fmt::Debug>(result: Result<T, DistError>) -> bool {
        matches!(result, Err(DistError::Protocol(_)))
    }

    #[test]
    fn a_guided_lease_whose_end_overflows_is_refused() {
        let job = guided_job_at_epoch_zero();
        let range = LeaseRange {
            start: 1,
            len: u64::MAX,
        };
        assert!(is_protocol(job.validate_lease(
            &LeaseKind::GuidedSlotRange,
            range,
            42,
            0
        )));
    }

    #[test]
    fn a_guided_lease_past_the_budget_is_refused() {
        let job = guided_job_at_epoch_zero();
        let ok = LeaseRange { start: 64, len: 32 };
        assert!(job
            .validate_lease(&LeaseKind::GuidedSlotRange, ok, 42, 0)
            .is_ok());
        let past = LeaseRange { start: 95, len: 2 };
        assert!(is_protocol(job.validate_lease(
            &LeaseKind::GuidedSlotRange,
            past,
            42,
            0
        )));
    }

    #[test]
    fn an_epoch_whose_lineage_names_a_later_base_is_refused() {
        let mut job = guided_job_at_epoch_zero();
        let seed = job.corpus0[0].clone();
        // The first promotion is corpus entry `initial_len`; naming
        // itself as its base is not an earlier entry.
        let lineage = vec![(job.corpus0.len(), true)];
        assert!(is_protocol(job.apply_epoch(
            1,
            vec![seed],
            lineage,
            CoverageMap::default()
        )));
    }

    #[test]
    fn an_epoch_whose_lineage_misses_a_promotion_is_refused() {
        let mut job = guided_job_at_epoch_zero();
        let seed = job.corpus0[0].clone();
        assert!(is_protocol(job.apply_epoch(
            1,
            vec![seed],
            Vec::new(),
            CoverageMap::default()
        )));
    }

    #[test]
    fn corruption_is_well_formed_and_digest_visible() {
        use crate::verify::digest_output;
        use iris_fuzzer::campaign::ChunkOutput;
        use iris_fuzzer::testcase::MutantRange;
        use iris_hv::coverage::CoverageMap;
        let chunk = ChunkOutput {
            range: MutantRange { start: 0, len: 8 },
            baseline: CoverageMap::default(),
            discovered: CoverageMap::default(),
            failures: iris_fuzzer::failure::FailureStats::default(),
            corpus: iris_fuzzer::corpus::Corpus::default(),
        };
        let honest = RangeOutput::Campaign(Box::new(chunk));
        let mut forged = honest.clone();
        corrupt_output(&mut forged);
        // Structure intact (same range), content digest flipped.
        match (&honest, &forged) {
            (RangeOutput::Campaign(a), RangeOutput::Campaign(b)) => {
                assert_eq!(a.range, b.range);
            }
            _ => panic!("corruption changed the output kind"),
        }
        assert_ne!(
            digest_output(&honest).unwrap(),
            digest_output(&forged).unwrap()
        );
    }
}
