//! The coordinator daemon behind `iris serve`.
//!
//! One job runs at a time (submitters queue on the job slot); its work
//! is a [`LeaseTable`] of campaign chunks or guided slot sub-ranges.
//! Per-connection handler threads claim leases in fold order, ship them
//! to workers, and fold the returned [`RangeOutput`]s through the
//! **existing in-process merge** — [`assemble_test_case`] +
//! [`CampaignReport::fold_assembled`] in `(test_case_index,
//! range_start)` order for campaigns, [`SharedEngine::fold_generation`]
//! in slot order at generation barriers for guided runs — so the final
//! report is byte-identical to `iris campaign|guided --jobs 1`.
//!
//! Fault model (DISTRIBUTED.md): a worker that stops heartbeating has
//! its connection dropped and its leases returned; re-execution is
//! byte-identical by the per-range RNG law, and duplicate results from
//! re-lease races fold once ([`LeaseTable::complete`]). The coordinator
//! itself checkpoints through `iris_fuzzer::checkpoint` at every fold /
//! generation boundary (background [`JsonWriter`], atomic writes), so a
//! killed coordinator restarted with `--resume` continues the job from
//! the last boundary — same law, same artifacts, as the in-process
//! `--checkpoint`/`--resume` flow.

use crate::job::{JobKind, JobSpec};
use crate::lease::{LeaseTable, VoteOutcome};
use crate::proto::{
    read_frame_polled, read_frame_within, write_frame, ErrorCode, Frame, LeaseKind, LeaseRange,
    RangeOutput, PROTO_VERSION,
};
use crate::verify::{
    digest_output, disagreeing_holders, execute_range, spot_check_due, Candidate, ExecDetail,
    Submission, Verifier,
};
use iris_core::seed::VmSeed;
use iris_core::trace::RecordedTrace;
use iris_fuzzer::campaign::{assemble_test_case, ChunkOutput};
use iris_fuzzer::checkpoint::{
    CampaignCheckpoint, GuidedCheckpoint, JsonWriter, CHECKPOINT_VERSION,
};
use iris_fuzzer::guided::{
    initial_corpus, measure_baseline, GuidedResult, SharedEngine, SlotOutcome, SlotRange,
};
use iris_fuzzer::parallel::CampaignReport;
use iris_fuzzer::target::Backend;
use iris_fuzzer::testcase::{MutantRange, TestCase};
use iris_hv::coverage::CoverageMap;
use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Slots per guided lease: small enough to balance a fleet, large
/// enough that frame traffic stays negligible next to slot execution.
/// Any value is byte-identical (the slot law); this only shapes load.
const GUIDED_LEASE_SLOTS: u64 = 32;

/// How long handler threads sleep between shutdown/lease polls.
const TICK: Duration = Duration::from_millis(100);

/// Completed-job results kept for submitters that have not collected
/// them yet (a submitter that vanished mid-job leaves its entry behind;
/// the cap bounds that leak).
const FINISHED_BACKLOG: usize = 16;

/// Configuration for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Bind address, e.g. `127.0.0.1:7331` (`:0` for an ephemeral
    /// port — [`Server::addr`] reports the bound one).
    pub listen: String,
    /// Checkpoint artifact path: every fold/generation boundary
    /// persists the active job's checkpoint here (atomic background
    /// writes via [`JsonWriter`]).
    pub checkpoint: Option<PathBuf>,
    /// Resume path: when a submitted job's fingerprint matches the
    /// checkpoint stored here, the job continues from it; a
    /// non-matching checkpoint rejects the submission
    /// ([`ErrorCode::FingerprintMismatch`]).
    pub resume: Option<PathBuf>,
    /// Progress artifact path: a small JSON snapshot of the active
    /// job's progress, refreshed at every fold.
    pub progress: Option<PathBuf>,
    /// Lease expiry: a worker silent for this long loses its lease (and
    /// its connection).
    pub lease_timeout_ms: u64,
    /// Untrusted-worker redundancy: each range is leased to this many
    /// **distinct** workers and folds only when all their content
    /// digests agree; on divergence the coordinator re-executes the
    /// range itself and quarantines the workers whose digest disagrees
    /// with the local truth. `1` (the default) trusts single results.
    pub redundancy: u32,
    /// Spot-check rate: a deterministic 1-in-`spot_check` sample of
    /// accepted ranges is re-executed on the coordinator and compared by
    /// digest ([`crate::verify::spot_check_due`]); a mismatch
    /// quarantines the worker and folds the local result. `0` disables
    /// sampling.
    pub spot_check: u64,
    /// Submissions allowed to wait behind the active job before new
    /// ones are refused with a typed [`ErrorCode::Busy`] — bounding the
    /// memory a submission flood can pin.
    pub max_queue: u64,
    /// Slowloris defense: total wall time a peer may spend inside one
    /// frame (handshake or result) before its connection is dropped.
    /// Plain read timeouts cannot catch a byte-dripping peer — every
    /// read succeeds — so this bounds the whole frame.
    pub read_deadline_ms: u64,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            listen: "127.0.0.1:0".to_owned(),
            checkpoint: None,
            resume: None,
            progress: None,
            lease_timeout_ms: 10_000,
            redundancy: 1,
            spot_check: 0,
            max_queue: 4,
            read_deadline_ms: 10_000,
        }
    }
}

/// A typed operational event recorded in the progress artifact — the
/// audit trail of the coordinator's trust decisions.
#[derive(Debug, Clone, Serialize)]
pub enum ServeEvent {
    /// A worker's result digest disagreed with the adjudicated truth:
    /// the coordinator stopped leasing to it, voided its pending votes,
    /// and re-leased its outstanding ranges.
    WorkerQuarantined {
        /// The job the divergence surfaced in.
        job_id: u64,
        /// The quarantined worker's connection-scoped holder id (see
        /// DISTRIBUTED.md "Failure and trust model" on identity).
        holder: u64,
        /// The lease entry whose result diverged.
        lease_index: u64,
        /// Human-readable divergence detail.
        detail: String,
    },
}

/// The progress artifact `--progress` persists at every fold.
#[derive(Debug, Clone, Serialize)]
pub struct ServeProgress {
    /// The active job.
    pub job_id: u64,
    /// Its configuration fingerprint.
    pub fingerprint: String,
    /// Work units folded so far (mutants / slots).
    pub done: u64,
    /// Total work units.
    pub total: u64,
    /// Fold boundaries completed (test cases / generations).
    pub folded: u64,
    /// Operational events so far (quarantines), oldest first.
    pub events: Vec<ServeEvent>,
}

struct FinishedJob {
    fingerprint: String,
    report: String,
}

struct CampaignJob {
    fingerprint: String,
    plan: Vec<TestCase>,
    /// Remaining chunks in plan order (the resumed prefix is skipped).
    chunks: Vec<(usize, MutantRange)>,
    /// Chunk count per plan test case, over `chunks`.
    span: Vec<usize>,
    table: LeaseTable,
    /// Out-of-order results parked until the contiguous fold reaches
    /// them. Ordered map: draining happens in chunk-index order.
    parked: BTreeMap<usize, ChunkOutput>,
    next_fold: usize,
    /// The current test case's folded chunks, in range order.
    pending: Vec<ChunkOutput>,
    report: CampaignReport,
    /// Test cases fully folded (including the resumed prefix).
    folded: usize,
    mutants_done: u64,
    mutants_total: u64,
    writer: Option<JsonWriter<CampaignCheckpoint>>,
    verifier: Verifier,
}

impl CampaignJob {
    /// Fold one completed chunk; `Ok(true)` when this completed the
    /// whole job. Duplicates (re-lease races) drop silently.
    fn fold(&mut self, index: usize, output: ChunkOutput) -> Result<bool, &'static str> {
        let Some(&(_, range)) = self.chunks.get(index) else {
            return Err("result for an unknown campaign lease");
        };
        if output.range != range {
            return Err("campaign chunk range does not match its lease");
        }
        if !self.table.complete(index) {
            return Ok(false);
        }
        self.parked.insert(index, output);
        // Drain the contiguous prefix: chunks fold strictly in plan
        // order whatever order workers returned them in.
        while let Some(out) = self.parked.remove(&self.next_fold) {
            let Some(&(tc_idx, _)) = self.chunks.get(self.next_fold) else {
                return Err("fold cursor escaped the chunk list");
            };
            self.mutants_done += out.range.len as u64;
            self.pending.push(out);
            if self.pending.len() == self.span.get(tc_idx).copied().unwrap_or(0) {
                let Some(tc) = self.plan.get(tc_idx) else {
                    return Err("chunk list references a test case outside the plan");
                };
                let chunks = std::mem::take(&mut self.pending);
                let (result, coverage) = assemble_test_case(tc, chunks, &mut self.report.corpus);
                self.report.fold_assembled(result, &coverage);
                self.folded += 1;
                if let Some(w) = &self.writer {
                    w.persist(CampaignCheckpoint {
                        version: CHECKPOINT_VERSION,
                        fingerprint: self.fingerprint.clone(),
                        folded: self.folded,
                        report: self.report.clone(),
                    });
                }
            }
            self.next_fold += 1;
        }
        Ok(self.table.all_done())
    }

    fn progress(&self) -> (u64, u64, u64) {
        (self.mutants_done, self.mutants_total, self.folded as u64)
    }
}

struct GuidedJob {
    fingerprint: String,
    engine: SharedEngine,
    /// Generation counter — the wire protocol's epoch.
    epoch: u64,
    /// The frozen generation's lease sub-ranges, in slot order.
    leases: Vec<SlotRange>,
    table: LeaseTable,
    /// Completed lease outcomes parked until the generation barrier.
    /// Ordered map keyed by lease index: the barrier drains in slot
    /// order.
    parked: BTreeMap<usize, Vec<SlotOutcome>>,
    timeout_ms: u64,
    redundancy: u32,
    /// The trace-derived initial corpus — the epoch scheduling corpus
    /// is `corpus0 ++ promoted`, cloned for adjudicating re-execution.
    corpus0: Vec<VmSeed>,
    writer: Option<JsonWriter<GuidedCheckpoint>>,
    verifier: Verifier,
}

impl GuidedJob {
    /// Carve the engine's frozen batch into lease sub-ranges and reset
    /// the lease table for the new generation.
    fn freeze(&mut self, batch: SlotRange) {
        let mut leases = Vec::new();
        let mut start = batch.start;
        let end = batch.start + batch.len;
        while start < end {
            let len = GUIDED_LEASE_SLOTS.min(end - start);
            leases.push(SlotRange { start, len });
            start += len;
        }
        self.table = LeaseTable::with_redundancy(leases.len(), self.timeout_ms, self.redundancy);
        self.leases = leases;
        self.parked = BTreeMap::new();
        // Lease indices restart each generation; so does the quorum
        // bookkeeping (the barrier guarantees nothing was pending).
        self.verifier = Verifier::new(self.redundancy);
    }

    /// Fold one completed slot range; at the generation barrier the
    /// whole batch folds through [`SharedEngine::fold_generation`] and
    /// the next generation freezes. `Ok(true)` when the budget is
    /// spent.
    fn fold(&mut self, index: usize, outcomes: Vec<SlotOutcome>) -> Result<bool, &'static str> {
        let Some(&range) = self.leases.get(index) else {
            return Err("result for an unknown guided lease");
        };
        if outcomes.len() as u64 != range.len {
            return Err("guided outcome count does not match its lease range");
        }
        if !self.table.complete(index) {
            return Ok(false);
        }
        self.parked.insert(index, outcomes);
        if !self.table.all_done() {
            return Ok(false);
        }
        // The generation barrier: every lease of the batch is in;
        // BTreeMap iteration order is lease-index order, which is slot
        // order by construction.
        let parked = std::mem::take(&mut self.parked);
        let mut generation = Vec::new();
        for (_, outs) in parked {
            generation.extend(outs);
        }
        self.engine.fold_generation(generation);
        self.epoch += 1;
        if let Some(w) = &self.writer {
            w.persist(self.engine.progress().checkpoint(&self.fingerprint));
        }
        match self.engine.batch() {
            Some(batch) => {
                self.freeze(batch);
                Ok(false)
            }
            None => Ok(true),
        }
    }

    fn progress(&self) -> (u64, u64, u64) {
        (self.engine.executed(), self.engine.budget(), self.epoch)
    }
}

enum JobBody {
    Campaign(Box<CampaignJob>),
    Guided(Box<GuidedJob>),
}

struct Job {
    id: u64,
    fingerprint: String,
    spec: JobSpec,
    /// For adjudicating re-execution ([`execute_range`]) — shared with
    /// the exec contexts handed out to connection handlers.
    backend: Backend,
    trace: Arc<RecordedTrace>,
    body: JobBody,
}

/// Everything an adjudicating re-execution needs, cloned out of the
/// job so the actual execution runs **outside** the state lock.
struct ExecCtx {
    backend: Backend,
    trace: Arc<RecordedTrace>,
    detail: VerifyDetail,
}

enum VerifyDetail {
    Campaign(TestCase),
    Guided {
        corpus: Vec<VmSeed>,
        /// Per-entry seed paths (the slot law's mutation-base
        /// positioning), rebuilt from the engine's promotion lineage.
        paths: Vec<Vec<usize>>,
        // Boxed: the dense coverage bitmap is ~3.5 KB and would
        // dominate the Campaign arm's size.
        seen: Box<CoverageMap>,
    },
}

impl ExecCtx {
    fn run(&self, range: LeaseRange, rng_seed: u64) -> RangeOutput {
        let detail = match &self.detail {
            VerifyDetail::Campaign(tc) => ExecDetail::Campaign(tc),
            VerifyDetail::Guided {
                corpus,
                paths,
                seen,
            } => ExecDetail::Guided {
                corpus,
                paths,
                seen,
            },
        };
        execute_range(&self.backend, &self.trace, &detail, range, rng_seed)
    }
}

impl Job {
    fn progress(&self) -> (u64, u64, u64) {
        match &self.body {
            JobBody::Campaign(c) => c.progress(),
            JobBody::Guided(g) => g.progress(),
        }
    }

    /// Claim a lease for `holder` and stage the frames the connection
    /// must send: `Assign` when the connection has not seen this job,
    /// `Epoch` when its guided generation state is stale, then the
    /// `Lease` itself. Returns the lease index alongside the expected
    /// result range for validation.
    fn try_lease(
        &mut self,
        holder: u64,
        now_ms: u64,
        conn_job: u64,
        conn_epoch: Option<u64>,
    ) -> Option<LeaseGrant> {
        let mut frames = Vec::new();
        if conn_job != self.id {
            frames.push(Frame::Assign {
                job_id: self.id,
                fingerprint: self.fingerprint.clone(),
                spec: self.spec.clone(),
            });
        }
        match &mut self.body {
            JobBody::Campaign(c) => {
                let index = c.table.claim(holder, now_ms)?;
                let &(tc_idx, range) = c.chunks.get(index)?;
                let wire = LeaseRange {
                    start: range.start as u64,
                    len: range.len as u64,
                };
                let rng_seed = c.plan.get(tc_idx).map_or(0, |tc| tc.rng_seed);
                frames.push(Frame::Lease {
                    job_id: self.id,
                    kind: LeaseKind::CampaignChunk {
                        testcase_index: tc_idx,
                    },
                    range: wire,
                    rng_seed,
                    epoch: 0,
                });
                Some(LeaseGrant {
                    frames,
                    index,
                    job_id: self.id,
                    epoch: 0,
                    range: wire,
                    rng_seed,
                })
            }
            JobBody::Guided(g) => {
                let index = g.table.claim(holder, now_ms)?;
                let &range = g.leases.get(index)?;
                if conn_epoch != Some(g.epoch) {
                    frames.push(Frame::Epoch {
                        job_id: self.id,
                        epoch: g.epoch,
                        promoted: g.engine.promoted().to_vec(),
                        lineage: g.engine.lineage().to_vec(),
                        seen: Box::new(g.engine.seen().clone()),
                    });
                }
                let wire = LeaseRange {
                    start: range.start,
                    len: range.len,
                };
                let rng_seed = g.engine.rng_seed();
                frames.push(Frame::Lease {
                    job_id: self.id,
                    kind: LeaseKind::GuidedSlotRange,
                    range: wire,
                    rng_seed,
                    epoch: g.epoch,
                });
                Some(LeaseGrant {
                    frames,
                    index,
                    job_id: self.id,
                    epoch: g.epoch,
                    range: wire,
                    rng_seed,
                })
            }
        }
    }

    fn release(&mut self, holder: u64) {
        match &mut self.body {
            JobBody::Campaign(c) => {
                c.table.release_holder(holder);
            }
            JobBody::Guided(g) => {
                g.table.release_holder(holder);
            }
        }
    }

    /// Structural validation of a delivered result against its lease —
    /// **before** any vote is recorded, so a malformed result costs the
    /// sender its connection without poisoning the quorum bookkeeping.
    fn validate_output(&self, index: usize, output: &RangeOutput) -> Result<(), &'static str> {
        match (&self.body, output) {
            (JobBody::Campaign(c), RangeOutput::Campaign(chunk)) => {
                let Some(&(_, range)) = c.chunks.get(index) else {
                    return Err("result for an unknown campaign lease");
                };
                if chunk.range != range {
                    return Err("campaign chunk range does not match its lease");
                }
                Ok(())
            }
            (JobBody::Guided(g), RangeOutput::Guided(outcomes)) => {
                let Some(&range) = g.leases.get(index) else {
                    return Err("result for an unknown guided lease");
                };
                if outcomes.len() as u64 != range.len {
                    return Err("guided outcome count does not match its lease range");
                }
                Ok(())
            }
            _ => Err("result kind does not match the lease kind"),
        }
    }

    /// Convert `holder`'s lease on `index` into a vote (distinctness is
    /// the lease table's guarantee).
    fn record_vote(&mut self, index: usize, holder: u64) -> VoteOutcome {
        match &mut self.body {
            JobBody::Campaign(c) => c.table.record_vote(index, holder),
            JobBody::Guided(g) => g.table.record_vote(index, holder),
        }
    }

    /// Feed a digested result into the quorum bookkeeping.
    fn verifier_submit(
        &mut self,
        index: usize,
        holder: u64,
        digest: u64,
        output: RangeOutput,
    ) -> Submission {
        match &mut self.body {
            JobBody::Campaign(c) => c.verifier.submit(index, holder, digest, output),
            JobBody::Guided(g) => g.verifier.submit(index, holder, digest, output),
        }
    }

    /// Quarantine `holder` inside this job: drop its leases and void
    /// its not-yet-folded votes so honest workers re-earn those slots.
    fn disqualify(&mut self, holder: u64) {
        match &mut self.body {
            JobBody::Campaign(c) => {
                c.table.disqualify(holder);
                c.verifier.disqualify(holder);
            }
            JobBody::Guided(g) => {
                g.table.disqualify(holder);
                g.verifier.disqualify(holder);
            }
        }
    }

    /// Clone out what an adjudicating re-execution of `index` needs, so
    /// the execution itself can run outside the state lock.
    fn exec_ctx(&self, index: usize) -> Option<ExecCtx> {
        let detail = match &self.body {
            JobBody::Campaign(c) => {
                let &(tc_idx, _) = c.chunks.get(index)?;
                VerifyDetail::Campaign(c.plan.get(tc_idx)?.clone())
            }
            JobBody::Guided(g) => {
                let mut corpus = g.corpus0.clone();
                corpus.extend_from_slice(g.engine.promoted());
                VerifyDetail::Guided {
                    corpus,
                    paths: g.engine.paths().to_vec(),
                    seen: Box::new(g.engine.seen().clone()),
                }
            }
        };
        Some(ExecCtx {
            backend: self.backend,
            trace: Arc::clone(&self.trace),
            detail,
        })
    }

    /// The finished job's report JSON — byte-identical to the
    /// in-process `--jobs 1` run's `--json` artifact.
    fn report_json(&self) -> Result<String, &'static str> {
        let json = match &self.body {
            JobBody::Campaign(c) => serde_json::to_string_pretty(&c.report),
            JobBody::Guided(g) => serde_json::to_string_pretty(&g.engine.result()),
        };
        json.map_err(|_| "report serialization failed")
    }
}

struct LeaseGrant {
    frames: Vec<Frame>,
    index: usize,
    job_id: u64,
    epoch: u64,
    range: LeaseRange,
    rng_seed: u64,
}

struct State {
    next_job_id: u64,
    next_holder_id: u64,
    job: Option<Job>,
    finished: BTreeMap<u64, FinishedJob>,
    /// Highest completed job id — lets worker connections learn their
    /// job ended even after its report was collected.
    completed_through: u64,
    jobs_completed: u64,
    progress_writer: Option<JsonWriter<ServeProgress>>,
    /// Holders whose results diverged from adjudicated truth: no new
    /// leases, votes voided, connections refused with
    /// [`ErrorCode::Quarantined`]. Holder ids are per-connection — see
    /// DISTRIBUTED.md on the identity caveat.
    quarantined: BTreeSet<u64>,
    /// Submissions admitted but not yet installed as the active job —
    /// bounded by [`ServeOptions::max_queue`].
    queued: u64,
    /// Operational events (quarantines), mirrored into every progress
    /// artifact snapshot.
    events: Vec<ServeEvent>,
}

struct Shared {
    state: Mutex<State>,
    cv: Condvar,
    shutdown: AtomicBool,
    checkpoint: Option<PathBuf>,
    resume: Option<PathBuf>,
    lease_timeout_ms: u64,
    redundancy: u32,
    spot_check: u64,
    max_queue: u64,
    read_deadline: Duration,
    started: Instant,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        match self.state.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn wait_tick<'a>(&self, guard: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
        match self.cv.wait_timeout(guard, TICK) {
            Ok((guard, _)) => guard,
            Err(poisoned) => poisoned.into_inner().0,
        }
    }

    fn now_ms(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    fn down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

/// A running coordinator. Dropping it (or calling [`Server::stop`])
/// shuts the accept loop and every connection handler down; `stop`
/// additionally joins the accept thread and flushes checkpoint writers,
/// so a stopped server's on-disk checkpoint is its last fold boundary —
/// exactly what `--resume` wants.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Bind `opts.listen` and start accepting workers and submitters.
    ///
    /// # Errors
    /// Socket bind/configuration failures.
    pub fn start(opts: ServeOptions) -> io::Result<Server> {
        let listener = TcpListener::bind(&opts.listen)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                next_job_id: 1,
                next_holder_id: 0,
                job: None,
                finished: BTreeMap::new(),
                completed_through: 0,
                jobs_completed: 0,
                progress_writer: opts.progress.as_ref().map(|p| JsonWriter::spawn(p.clone())),
                quarantined: BTreeSet::new(),
                queued: 0,
                events: Vec::new(),
            }),
            cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            checkpoint: opts.checkpoint,
            resume: opts.resume,
            lease_timeout_ms: opts.lease_timeout_ms.max(1),
            redundancy: opts.redundancy.max(1),
            spot_check: opts.spot_check,
            max_queue: opts.max_queue,
            read_deadline: Duration::from_millis(opts.read_deadline_ms.max(1)),
            // Wall-clock here drives lease deadlines and liveness only;
            // the determinism laws make fold results schedule-independent,
            // so timing never reaches the report bytes.
            #[allow(clippy::disallowed_methods)]
            started: Instant::now(),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::spawn(move || accept_loop(&accept_shared, &listener));
        Ok(Server {
            addr,
            shared,
            accept: Some(accept),
        })
    }

    /// The bound address (resolves `:0` to the ephemeral port).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Jobs completed since start.
    #[must_use]
    pub fn jobs_completed(&self) -> u64 {
        self.shared.lock().jobs_completed
    }

    /// Operational events so far (quarantines), oldest first.
    #[must_use]
    pub fn events(&self) -> Vec<ServeEvent> {
        self.shared.lock().events.clone()
    }

    /// Holder ids currently quarantined.
    #[must_use]
    pub fn quarantined(&self) -> Vec<u64> {
        self.shared.lock().quarantined.iter().copied().collect()
    }

    /// Stop the daemon: connections drop, an in-flight job is abandoned
    /// **at its last fold boundary** (already checkpointed — a restart
    /// with `--resume` continues it), and checkpoint/progress writers
    /// flush. Returns the number of jobs completed.
    pub fn stop(mut self) -> u64 {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.cv.notify_all();
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        let (jobs, writers) = {
            let mut st = self.shared.lock();
            let mut writers: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
            if let Some(w) = st.progress_writer.take() {
                writers.push(Box::new(move || log_writer_result("progress", w.finish())));
            }
            if let Some(job) = st.job.take() {
                match job.body {
                    JobBody::Campaign(mut c) => {
                        if let Some(w) = c.writer.take() {
                            writers.push(Box::new(move || {
                                log_writer_result("checkpoint", w.finish())
                            }));
                        }
                    }
                    JobBody::Guided(mut g) => {
                        if let Some(w) = g.writer.take() {
                            writers.push(Box::new(move || {
                                log_writer_result("checkpoint", w.finish())
                            }));
                        }
                    }
                }
            }
            (st.jobs_completed, writers)
        };
        for finish in writers {
            finish();
        }
        jobs
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.cv.notify_all();
    }
}

fn log_writer_result(what: &str, result: io::Result<u64>) {
    if let Err(e) = result {
        eprintln!("iris serve: {what} writer: {e}");
    }
}

fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    loop {
        if shared.down() {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nonblocking(false);
                let _ = stream.set_nodelay(true);
                let conn_shared = Arc::clone(shared);
                std::thread::spawn(move || handle_connection(&conn_shared, stream));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(25)),
        }
    }
}

fn send_error(stream: &mut TcpStream, code: ErrorCode, detail: String) {
    let _ = write_frame(stream, &Frame::Error { code, detail });
}

/// Dispatch a fresh connection by its first frame: `Hello` is a worker,
/// `Submit` is a client. The handshake read is deadline-bounded
/// ([`read_frame_within`]) so silent, garbage-spewing, byte-dripping,
/// or oversized-frame connections cost one handler thread for at most
/// `read_deadline_ms` and die without touching job state — the daemon
/// itself never goes down with a connection.
fn handle_connection(shared: &Arc<Shared>, mut stream: TcpStream) {
    match read_frame_within(&mut stream, shared.read_deadline) {
        Ok(Frame::Hello {
            proto_version,
            job_fingerprint,
            target,
        }) => {
            if proto_version != PROTO_VERSION {
                send_error(
                    &mut stream,
                    ErrorCode::VersionMismatch,
                    format!("coordinator speaks v{PROTO_VERSION}, worker spoke v{proto_version}"),
                );
                return;
            }
            let _ = job_fingerprint; // advisory: workers revalidate via Assign
            handle_worker(shared, stream, &target);
        }
        Ok(Frame::Submit {
            proto_version,
            spec,
        }) => {
            if proto_version != PROTO_VERSION {
                send_error(
                    &mut stream,
                    ErrorCode::VersionMismatch,
                    format!("coordinator speaks v{PROTO_VERSION}, client spoke v{proto_version}"),
                );
                return;
            }
            handle_submit(shared, stream, spec);
        }
        Ok(_) => send_error(
            &mut stream,
            ErrorCode::Protocol,
            "connections open with Hello (worker) or Submit (client)".to_owned(),
        ),
        Err(_) => {}
    }
}

/// Everything a job needs, prepared outside the state lock (trace
/// recording and the guided baseline are seconds of work).
enum PreparedJob {
    /// A job with outstanding work.
    Run {
        fingerprint: String,
        backend: Backend,
        trace: Arc<RecordedTrace>,
        body: JobBody,
    },
    /// A job that is already complete at install time (fully-resumed
    /// checkpoint, or a guided trace with an empty corpus — mirroring
    /// the in-process drivers' outputs byte-for-byte).
    Instant { fingerprint: String, report: String },
}

/// Load the `--resume` checkpoint, if one exists: a version or
/// fingerprint mismatch is a typed [`ErrorCode::FingerprintMismatch`],
/// and a checkpoint that fails its structural `check` (or cannot be
/// read) a [`ErrorCode::Protocol`] error.
fn load_resume_checkpoint<T>(
    shared: &Shared,
    fingerprint: &str,
    load: impl FnOnce(&std::path::Path, &str) -> io::Result<T>,
    check: impl FnOnce(&T) -> io::Result<()>,
) -> Result<Option<T>, (ErrorCode, String)> {
    let Some(path) = &shared.resume else {
        return Ok(None);
    };
    if !path.exists() {
        return Ok(None);
    }
    match load(path, fingerprint) {
        Ok(cp) => match check(&cp) {
            Ok(()) => Ok(Some(cp)),
            Err(e) => Err((
                ErrorCode::Protocol,
                format!("resume checkpoint {}: {e}", path.display()),
            )),
        },
        Err(e) if e.kind() == io::ErrorKind::InvalidData => {
            Err((ErrorCode::FingerprintMismatch, e.to_string()))
        }
        Err(e) => Err((ErrorCode::Protocol, e.to_string())),
    }
}

fn prepare_job(shared: &Shared, spec: &JobSpec) -> Result<PreparedJob, (ErrorCode, String)> {
    let backend = spec
        .backend()
        .map_err(|e| (ErrorCode::BadSpec, e.to_string()))?;
    let trace = spec
        .record_trace()
        .map_err(|e| (ErrorCode::BadSpec, e.to_string()))?;
    match spec.kind {
        JobKind::Campaign { chunk, .. } => {
            let plan = spec
                .plan(&trace)
                .map_err(|e| (ErrorCode::BadSpec, e.to_string()))?;
            if plan.is_empty() {
                return Err((
                    ErrorCode::BadSpec,
                    "trace contains no Table I exit reasons to fuzz".to_owned(),
                ));
            }
            let fingerprint = spec.fingerprint(plan.len());
            let resume =
                load_resume_checkpoint(shared, &fingerprint, CampaignCheckpoint::load, |cp| {
                    cp.check(&plan)
                })?;
            let folded0 = resume.as_ref().map_or(0, |cp| cp.folded);
            let report = resume.map_or_else(CampaignReport::new, |cp| cp.report);
            let chunk = chunk.max(1);
            let chunks: Vec<(usize, MutantRange)> = plan
                .iter()
                .enumerate()
                .skip(folded0)
                .flat_map(|(tc_idx, tc)| tc.chunks(chunk).map(move |r| (tc_idx, r)))
                .collect();
            if chunks.is_empty() {
                // Fully resumed: the checkpointed report is the report.
                let json = serde_json::to_string_pretty(&report)
                    .map_err(|e| (ErrorCode::Protocol, e.to_string()))?;
                return Ok(PreparedJob::Instant {
                    fingerprint,
                    report: json,
                });
            }
            let mut span = vec![0usize; plan.len()];
            for &(tc_idx, _) in &chunks {
                if let Some(s) = span.get_mut(tc_idx) {
                    *s += 1;
                }
            }
            let mutants_total = plan.iter().map(|tc| tc.mutants as u64).sum();
            let mutants_done = plan.iter().take(folded0).map(|tc| tc.mutants as u64).sum();
            let table = LeaseTable::with_redundancy(
                chunks.len(),
                shared.lease_timeout_ms,
                shared.redundancy,
            );
            let writer = shared
                .checkpoint
                .as_ref()
                .map(|p| JsonWriter::spawn(p.clone()));
            Ok(PreparedJob::Run {
                fingerprint: fingerprint.clone(),
                backend,
                trace: Arc::new(trace),
                body: JobBody::Campaign(Box::new(CampaignJob {
                    fingerprint,
                    plan,
                    chunks,
                    span,
                    table,
                    parked: BTreeMap::new(),
                    next_fold: 0,
                    pending: Vec::new(),
                    report,
                    folded: folded0,
                    mutants_done,
                    mutants_total,
                    writer,
                    verifier: Verifier::new(shared.redundancy),
                })),
            })
        }
        JobKind::Guided { .. } => {
            let config = spec.guided_config().unwrap_or_default();
            let fingerprint = spec.fingerprint(0);
            let corpus0 = initial_corpus(&trace);
            if corpus0.is_empty() {
                // Mirrors the in-process drivers: an empty corpus is
                // the derived zero result.
                let json = serde_json::to_string_pretty(&GuidedResult::default())
                    .map_err(|e| (ErrorCode::Protocol, e.to_string()))?;
                return Ok(PreparedJob::Instant {
                    fingerprint,
                    report: json,
                });
            }
            let resume =
                load_resume_checkpoint(shared, &fingerprint, GuidedCheckpoint::load, |cp| {
                    cp.check(&config, corpus0.len())
                })?;
            let engine = match resume {
                Some(cp) => SharedEngine::resume(&trace, config, cp),
                None => {
                    let baseline = measure_baseline(&backend, &trace, &corpus0);
                    SharedEngine::fresh(&trace, config, baseline)
                }
            };
            let writer = shared
                .checkpoint
                .as_ref()
                .map(|p| JsonWriter::spawn(p.clone()));
            let mut job = GuidedJob {
                fingerprint: fingerprint.clone(),
                engine,
                epoch: 0,
                leases: Vec::new(),
                table: LeaseTable::new(0, shared.lease_timeout_ms),
                parked: BTreeMap::new(),
                timeout_ms: shared.lease_timeout_ms,
                redundancy: shared.redundancy,
                corpus0,
                writer,
                verifier: Verifier::new(shared.redundancy),
            };
            match job.engine.batch() {
                Some(batch) => {
                    job.freeze(batch);
                    Ok(PreparedJob::Run {
                        fingerprint,
                        backend,
                        trace: Arc::new(trace),
                        body: JobBody::Guided(Box::new(job)),
                    })
                }
                None => {
                    let json = serde_json::to_string_pretty(&job.engine.result())
                        .map_err(|e| (ErrorCode::Protocol, e.to_string()))?;
                    Ok(PreparedJob::Instant {
                        fingerprint,
                        report: json,
                    })
                }
            }
        }
    }
}

/// Record a finished job in the state and return anything that must run
/// outside the lock (writer joins).
fn finish_job(st: &mut State, job: Job) -> Vec<Box<dyn FnOnce() + Send>> {
    let mut after: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
    let report = match job.report_json() {
        Ok(json) => json,
        Err(msg) => format!("{{\"error\":\"{msg}\"}}"),
    };
    let (done, total, folded) = job.progress();
    if let Some(w) = &st.progress_writer {
        w.persist(ServeProgress {
            job_id: job.id,
            fingerprint: job.fingerprint.clone(),
            done,
            total,
            folded,
            events: st.events.clone(),
        });
    }
    st.finished.insert(
        job.id,
        FinishedJob {
            fingerprint: job.fingerprint.clone(),
            report,
        },
    );
    while st.finished.len() > FINISHED_BACKLOG {
        st.finished.pop_first();
    }
    st.completed_through = st.completed_through.max(job.id);
    st.jobs_completed += 1;
    match job.body {
        JobBody::Campaign(mut c) => {
            if let Some(w) = c.writer.take() {
                after.push(Box::new(move || {
                    log_writer_result("checkpoint", w.finish())
                }));
            }
        }
        JobBody::Guided(mut g) => {
            if let Some(w) = g.writer.take() {
                after.push(Box::new(move || {
                    log_writer_result("checkpoint", w.finish())
                }));
            }
        }
    }
    after
}

fn handle_submit(shared: &Arc<Shared>, mut stream: TcpStream, spec: JobSpec) {
    // Admission control FIRST — before the expensive prepare (trace
    // recording, baselines), so a submission flood is refused with a
    // typed Busy at the cost of one frame, not pinned preparation work.
    {
        let mut st = shared.lock();
        if shared.down() {
            drop(st);
            send_error(
                &mut stream,
                ErrorCode::Shutdown,
                "coordinator is shutting down".to_owned(),
            );
            return;
        }
        let waiting = st.queued;
        if (st.job.is_some() || waiting > 0) && waiting >= shared.max_queue {
            drop(st);
            send_error(
                &mut stream,
                ErrorCode::Busy { queued: waiting },
                format!("submission queue is full ({waiting} waiting) — retry later"),
            );
            return;
        }
        st.queued += 1;
    }
    let prepared = match prepare_job(shared, &spec) {
        Ok(p) => p,
        Err((code, detail)) => {
            {
                let mut st = shared.lock();
                st.queued = st.queued.saturating_sub(1);
            }
            send_error(&mut stream, code, detail);
            return;
        }
    };
    // Install the job (or its instant result), queueing behind any
    // active job.
    let job_id = {
        let mut st = shared.lock();
        loop {
            if shared.down() {
                st.queued = st.queued.saturating_sub(1);
                drop(st);
                send_error(
                    &mut stream,
                    ErrorCode::Shutdown,
                    "coordinator is shutting down".to_owned(),
                );
                return;
            }
            if st.job.is_none() {
                break;
            }
            st = shared.wait_tick(st);
        }
        st.queued = st.queued.saturating_sub(1);
        let id = st.next_job_id;
        st.next_job_id += 1;
        match prepared {
            PreparedJob::Instant {
                fingerprint,
                report,
            } => {
                st.finished.insert(
                    id,
                    FinishedJob {
                        fingerprint,
                        report,
                    },
                );
                st.completed_through = st.completed_through.max(id);
                st.jobs_completed += 1;
            }
            PreparedJob::Run {
                fingerprint,
                backend,
                trace,
                body,
            } => {
                st.job = Some(Job {
                    id,
                    fingerprint,
                    spec,
                    backend,
                    trace,
                    body,
                });
            }
        }
        shared.cv.notify_all();
        id
    };
    // Stream progress until the job completes.
    let _ = stream.set_read_timeout(None);
    let mut last = None;
    loop {
        enum Outcome {
            Done(FinishedJob),
            Running(u64, u64, u64),
            Down,
        }
        let outcome = {
            let mut st = shared.lock();
            if let Some(fin) = st.finished.remove(&job_id) {
                Outcome::Done(fin)
            } else if shared.down() {
                Outcome::Down
            } else {
                st = shared.wait_tick(st);
                if let Some(fin) = st.finished.remove(&job_id) {
                    Outcome::Done(fin)
                } else {
                    match &st.job {
                        Some(job) if job.id == job_id => {
                            let (done, total, folded) = job.progress();
                            Outcome::Running(done, total, folded)
                        }
                        _ if shared.down() => Outcome::Down,
                        _ => continue,
                    }
                }
            }
        };
        match outcome {
            Outcome::Done(fin) => {
                let _ = write_frame(
                    &mut stream,
                    &Frame::JobDone {
                        job_id,
                        fingerprint: fin.fingerprint,
                        report: fin.report,
                    },
                );
                return;
            }
            Outcome::Down => {
                send_error(
                    &mut stream,
                    ErrorCode::Shutdown,
                    "coordinator stopped before the job completed".to_owned(),
                );
                return;
            }
            Outcome::Running(done, total, folded) => {
                if last != Some((done, total, folded)) {
                    last = Some((done, total, folded));
                    if write_frame(
                        &mut stream,
                        &Frame::Progress {
                            done,
                            total,
                            folded,
                        },
                    )
                    .is_err()
                    {
                        // Submitter vanished; the job runs on and its
                        // report waits in the finished backlog.
                        return;
                    }
                }
            }
        }
    }
}

fn handle_worker(shared: &Arc<Shared>, mut stream: TcpStream, target: &str) {
    let holder = {
        let mut st = shared.lock();
        st.next_holder_id += 1;
        st.next_holder_id
    };
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let mut conn_job = 0u64;
    let mut conn_fingerprint = String::new();
    let mut conn_epoch: Option<u64> = None;
    'leases: loop {
        // Phase 1: claim a lease (or learn the connection's job ended).
        let grant = {
            let mut st = shared.lock();
            loop {
                if shared.down() {
                    return;
                }
                if st.quarantined.contains(&holder) {
                    drop(st);
                    send_error(
                        &mut stream,
                        ErrorCode::Quarantined,
                        "this worker's results diverged from adjudicated truth".to_owned(),
                    );
                    return;
                }
                let active = st.job.as_ref().map(|j| j.id);
                if conn_job != 0 && st.completed_through >= conn_job && active != Some(conn_job) {
                    // Tell the worker its job finished, outside the
                    // lock, then keep serving.
                    let done = Frame::JobDone {
                        job_id: conn_job,
                        fingerprint: conn_fingerprint.clone(),
                        report: String::new(),
                    };
                    conn_job = 0;
                    conn_epoch = None;
                    drop(st);
                    if write_frame(&mut stream, &done).is_err() {
                        return;
                    }
                    st = shared.lock();
                    continue;
                }
                let now = shared.now_ms();
                if let Some(job) = st.job.as_mut() {
                    if job.spec.target == target {
                        if let Some(grant) = job.try_lease(holder, now, conn_job, conn_epoch) {
                            conn_job = job.id;
                            conn_fingerprint = job.fingerprint.clone();
                            conn_epoch = Some(grant.epoch);
                            break grant;
                        }
                    }
                }
                st = shared.wait_tick(st);
            }
        };
        for frame in &grant.frames {
            if write_frame(&mut stream, frame).is_err() {
                release_lease(shared, holder);
                return;
            }
        }
        // Phase 2: await the result, renewing the lease on heartbeats
        // and dropping the connection after prolonged silence. Each
        // frame, once started, must complete within the read deadline —
        // a byte-dripping worker cannot pin this handler (slowloris).
        // (Wall-clock is liveness-only: a slow worker is released and
        // its range re-leased byte-identically, so timing never reaches
        // the report bytes.)
        #[allow(clippy::disallowed_methods)]
        let mut last_heard = Instant::now();
        let silence_limit = Duration::from_millis(shared.lease_timeout_ms);
        loop {
            match read_frame_polled(&mut stream, TICK, shared.read_deadline) {
                Ok(Frame::Heartbeat) => {
                    #[allow(clippy::disallowed_methods)]
                    {
                        last_heard = Instant::now();
                    }
                    let mut st = shared.lock();
                    let now = shared.now_ms();
                    if let Some(job) = st.job.as_mut().filter(|j| j.id == grant.job_id) {
                        match &mut job.body {
                            JobBody::Campaign(c) => {
                                c.table.renew(grant.index, holder, now);
                            }
                            JobBody::Guided(g) => {
                                g.table.renew(grant.index, holder, now);
                            }
                        }
                    }
                }
                Ok(Frame::ChunkDone {
                    job_id,
                    range_start,
                    output,
                }) => {
                    if job_id != grant.job_id || range_start != grant.range.start {
                        release_lease(shared, holder);
                        send_error(
                            &mut stream,
                            ErrorCode::Protocol,
                            "result does not match the outstanding lease".to_owned(),
                        );
                        return;
                    }
                    if !apply_result(shared, &grant, holder, output, &mut stream) {
                        return;
                    }
                    continue 'leases;
                }
                Err(e) if e.is_poll_timeout() => {
                    if shared.down() {
                        return;
                    }
                    if last_heard.elapsed() >= silence_limit {
                        // The worker went silent mid-lease: return its
                        // work to the pool and drop the connection.
                        release_lease(shared, holder);
                        return;
                    }
                }
                Ok(_) | Err(_) => {
                    release_lease(shared, holder);
                    return;
                }
            }
        }
    }
}

fn release_lease(shared: &Arc<Shared>, holder: u64) {
    let mut st = shared.lock();
    if let Some(job) = st.job.as_mut() {
        job.release(holder);
    }
    shared.cv.notify_all();
}

/// Quarantine `holder` under the lock: record the typed event, stop
/// leasing to it, void its pending votes so honest workers re-earn
/// those slots, and snapshot the progress artifact so the event is
/// durable even if nothing folds afterwards.
fn quarantine_holder(st: &mut State, job_id: u64, holder: u64, lease_index: usize, detail: String) {
    st.quarantined.insert(holder);
    st.events.push(ServeEvent::WorkerQuarantined {
        job_id,
        holder,
        lease_index: lease_index as u64,
        detail,
    });
    let snapshot = st.job.as_mut().filter(|j| j.id == job_id).map(|job| {
        job.disqualify(holder);
        (job.progress(), job.fingerprint.clone())
    });
    if let (Some(((done, total, folded), fingerprint)), Some(w)) = (snapshot, &st.progress_writer) {
        w.persist(ServeProgress {
            job_id,
            fingerprint,
            done,
            total,
            folded,
            events: st.events.clone(),
        });
    }
}

/// Fold an accepted output under the (held) lock and finish the job if
/// it completed. Returns false when the connection must close.
fn fold_accepted(
    shared: &Arc<Shared>,
    mut st: MutexGuard<'_, State>,
    grant: &LeaseGrant,
    holder: u64,
    output: RangeOutput,
    stream: &mut TcpStream,
) -> bool {
    let Some(job) = st.job.as_mut().filter(|j| j.id == grant.job_id) else {
        shared.cv.notify_all();
        return true;
    };
    let folded = match (&mut job.body, output) {
        (JobBody::Campaign(c), RangeOutput::Campaign(chunk)) => c.fold(grant.index, *chunk),
        (JobBody::Guided(g), RangeOutput::Guided(outcomes)) => g.fold(grant.index, outcomes),
        _ => Err("result kind does not match the lease kind"),
    };
    let complete = match folded {
        Ok(complete) => complete,
        Err(detail) => {
            job.release(holder);
            drop(st);
            send_error(stream, ErrorCode::Protocol, detail.to_owned());
            release_lease(shared, holder);
            return false;
        }
    };
    let (done, total, folded_units) = job.progress();
    let (job_id, fingerprint) = (job.id, job.fingerprint.clone());
    if let Some(w) = &st.progress_writer {
        w.persist(ServeProgress {
            job_id,
            fingerprint,
            done,
            total,
            folded: folded_units,
            events: st.events.clone(),
        });
    }
    let after = if complete {
        match st.job.take() {
            Some(job) => finish_job(&mut st, job),
            None => Vec::new(),
        }
    } else {
        Vec::new()
    };
    shared.cv.notify_all();
    drop(st);
    for finish in after {
        finish();
    }
    true
}

/// What a delivered result needs beyond the fast path: an adjudicating
/// re-execution outside the lock.
struct Adjudication {
    candidates: Vec<Candidate>,
    ctx: ExecCtx,
}

/// Validate, vote, and fold (or adjudicate) a delivered result; returns
/// false when the connection must close (protocol violation or a
/// quarantined sender).
fn apply_result(
    shared: &Arc<Shared>,
    grant: &LeaseGrant,
    holder: u64,
    output: RangeOutput,
    stream: &mut TcpStream,
) -> bool {
    let digest = match digest_output(&output) {
        Ok(d) => d,
        Err(e) => {
            send_error(stream, ErrorCode::Protocol, e.to_string());
            release_lease(shared, holder);
            return false;
        }
    };
    // Phase 1 (locked): structural validation, the distinctness vote,
    // and the digest quorum. The common path — quorum of one, no spot
    // check — folds right here and returns.
    let adjudication = {
        let mut st = shared.lock();
        if st.quarantined.contains(&holder) {
            drop(st);
            send_error(
                stream,
                ErrorCode::Quarantined,
                "this worker's results diverged from adjudicated truth".to_owned(),
            );
            return false;
        }
        let Some(job) = st.job.as_mut().filter(|j| j.id == grant.job_id) else {
            // The job completed without this result (a re-lease race):
            // drop the duplicate.
            shared.cv.notify_all();
            return true;
        };
        if let Err(detail) = job.validate_output(grant.index, &output) {
            job.release(holder);
            drop(st);
            send_error(stream, ErrorCode::Protocol, detail.to_owned());
            release_lease(shared, holder);
            return false;
        }
        if matches!(job.record_vote(grant.index, holder), VoteOutcome::Duplicate) {
            // A re-lease race duplicate — byte-identical by the RNG
            // law, so dropping it is safe.
            shared.cv.notify_all();
            return true;
        }
        match job.verifier_submit(grant.index, holder, digest, output) {
            Submission::Pending { .. } => {
                // Quorum open: the range stays out with other workers.
                shared.cv.notify_all();
                return true;
            }
            Submission::Accepted(out) => {
                let audit = shared.spot_check != 0
                    && spot_check_due(shared.spot_check, &job.fingerprint, grant.index as u64);
                if !audit {
                    return fold_accepted(shared, st, grant, holder, *out, stream);
                }
                match job.exec_ctx(grant.index) {
                    Some(ctx) => Adjudication {
                        candidates: vec![Candidate {
                            digest,
                            holders: vec![holder],
                            output: *out,
                        }],
                        ctx,
                    },
                    None => return fold_accepted(shared, st, grant, holder, *out, stream),
                }
            }
            Submission::Divergent(candidates) => {
                let Some(ctx) = job.exec_ctx(grant.index) else {
                    // Unreachable in practice (the lease exists); treat
                    // as a protocol failure rather than guessing.
                    job.release(holder);
                    drop(st);
                    send_error(
                        stream,
                        ErrorCode::Protocol,
                        "divergent result for an unknown lease".to_owned(),
                    );
                    release_lease(shared, holder);
                    return false;
                };
                Adjudication { candidates, ctx }
            }
        }
    };
    // Phase 2 (unlocked): the adjudicating re-execution. Expensive, but
    // rare — only digest divergence or a sampled audit lands here — and
    // exact: the per-range RNG law makes the local bytes ground truth.
    let local = adjudication.ctx.run(grant.range, grant.rng_seed);
    let truth = match digest_output(&local) {
        Ok(d) => d,
        Err(e) => {
            send_error(stream, ErrorCode::Protocol, e.to_string());
            release_lease(shared, holder);
            return false;
        }
    };
    let liars = disagreeing_holders(&adjudication.candidates, truth);
    // Phase 3 (locked): quarantine the disagreeing holders and fold the
    // locally verified output.
    let st = {
        let mut st = shared.lock();
        if st.job.as_ref().is_none_or(|j| j.id != grant.job_id) {
            // The job ended while we re-executed; nothing to fold, and
            // with it gone the votes are moot.
            shared.cv.notify_all();
            return true;
        }
        for &liar in &liars {
            quarantine_holder(
                &mut st,
                grant.job_id,
                liar,
                grant.index,
                format!(
                    "result digest {:#018x} diverged from adjudicated truth {truth:#018x}",
                    adjudication
                        .candidates
                        .iter()
                        .find(|c| c.holders.contains(&liar))
                        .map_or(0, |c| c.digest)
                ),
            );
        }
        st
    };
    let folded_ok = fold_accepted(shared, st, grant, holder, local, stream);
    if !folded_ok {
        return false;
    }
    if liars.contains(&holder) {
        // This very connection delivered a forged result: tell it, then
        // drop it. (Its vote already folded as the local truth.)
        send_error(
            stream,
            ErrorCode::Quarantined,
            "this worker's results diverged from adjudicated truth".to_owned(),
        );
        return false;
    }
    true
}
