//! Untrusted-worker result validation: content digests, redundancy
//! quorums, and coordinator-side re-execution.
//!
//! The paper's determinism laws make every lease a pure function of its
//! spec — which turns trust into arithmetic. A worker's `ChunkDone` is
//! summarized by a dependency-free FNV-1a digest over its canonical
//! JSON serialization; with `--redundancy K` the coordinator leases
//! each range to K **distinct** workers and folds only when all K
//! digests agree. On divergence the coordinator re-executes the range
//! itself (cheap: one range, not the job) — the local digest is ground
//! truth by the per-range RNG law — and quarantines every worker whose
//! digest disagrees with it. Independently, a deterministic sample of
//! accepted ranges is spot-checked the same way, so even `--redundancy
//! 1` fleets get probabilistic byzantine detection.
//!
//! Nothing here consults a clock or ambient randomness: the spot-check
//! sample is a pure function of `(fingerprint, lease index, rate)`, so
//! which ranges get audited is itself reproducible.

use crate::proto::{LeaseRange, RangeOutput};
use crate::DistError;
use iris_core::seed::VmSeed;
use iris_core::trace::RecordedTrace;
use iris_fuzzer::guided::SlotContext;
use iris_fuzzer::parallel::PrefixServer;
use iris_fuzzer::target::{Backend, BootPlan, FuzzTarget, HvTarget, TargetFactory};
use iris_fuzzer::testcase::{MutantRange, TestCase};
use iris_hv::coverage::CoverageMap;
use std::collections::BTreeMap;

/// FNV-1a 64-bit over `bytes` — the workspace's dependency-free content
/// digest. Not cryptographic: it defends against wrong results and bit
/// rot, not against an adversary engineering collisions (DISTRIBUTED.md
/// "Failure and trust model" spells out that boundary).
#[must_use]
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The content digest of a lease result: FNV-1a over its canonical
/// serialized form (the same serde_json encoding the wire uses, which
/// is deterministic — the workspace bans unordered containers).
///
/// # Errors
/// [`DistError::Protocol`] when the output cannot be serialized.
pub fn digest_output(output: &RangeOutput) -> Result<u64, DistError> {
    let bytes = serde_json::to_vec(output)
        .map_err(|e| DistError::Protocol(format!("digesting result: {e}")))?;
    Ok(fnv1a_64(&bytes))
}

/// The spot-check sampling law: lease `index` of the job with this
/// `fingerprint` is audited iff `fnv1a(fingerprint ‖ index) % rate ==
/// 0`. `rate == 0` disables sampling; `rate == 1` audits everything. A
/// pure function — re-running the job audits the same ranges.
#[must_use]
pub fn spot_check_due(rate: u64, fingerprint: &str, index: u64) -> bool {
    if rate == 0 {
        return false;
    }
    let mut bytes = fingerprint.as_bytes().to_vec();
    bytes.extend_from_slice(&index.to_le_bytes());
    fnv1a_64(&bytes).is_multiple_of(rate)
}

/// One distinct result for a slot: who vouched for this digest, and the
/// first delivered copy of the output (duplicate-digest deliveries are
/// not stored twice).
#[derive(Debug)]
pub struct Candidate {
    /// The content digest all these holders produced.
    pub digest: u64,
    /// The workers that delivered this digest, in delivery order.
    pub holders: Vec<u64>,
    /// The output behind the digest.
    pub output: RangeOutput,
}

/// What a vote did to its slot's quorum.
#[derive(Debug)]
pub enum Submission {
    /// Quorum not yet reached; the slot stays leased out.
    Pending {
        /// Votes in so far.
        votes: u32,
    },
    /// All `redundancy` digests agree: fold this output.
    Accepted(Box<RangeOutput>),
    /// Digests diverged: re-execute locally and quarantine the workers
    /// whose digest disagrees with the verified one.
    Divergent(Vec<Candidate>),
}

/// Per-job vote bookkeeping for `--redundancy K`: collects `(holder,
/// digest, output)` votes per lease index and reports when a quorum
/// agrees or splits. Ordered map — iteration and memory stay
/// deterministic like every other fold structure.
#[derive(Debug)]
pub struct Verifier {
    redundancy: u32,
    pending: BTreeMap<usize, Vec<Candidate>>,
}

impl Verifier {
    /// A verifier requiring `redundancy` matching digests per slot
    /// (clamped to at least 1).
    #[must_use]
    pub fn new(redundancy: u32) -> Self {
        Self {
            redundancy: redundancy.max(1),
            pending: BTreeMap::new(),
        }
    }

    /// The quorum size.
    #[must_use]
    pub fn redundancy(&self) -> u32 {
        self.redundancy
    }

    /// Record `holder`'s result for slot `index`. The caller (the lease
    /// table) guarantees one vote per holder per slot. On quorum the
    /// slot's votes are consumed.
    pub fn submit(
        &mut self,
        index: usize,
        holder: u64,
        digest: u64,
        output: RangeOutput,
    ) -> Submission {
        let candidates = self.pending.entry(index).or_default();
        match candidates.iter_mut().find(|c| c.digest == digest) {
            Some(c) => c.holders.push(holder),
            None => candidates.push(Candidate {
                digest,
                holders: vec![holder],
                output,
            }),
        }
        let votes = candidates.iter().map(|c| c.holders.len()).sum::<usize>();
        if (votes as u32) < self.redundancy {
            return Submission::Pending {
                votes: votes as u32,
            };
        }
        let mut candidates = self.pending.remove(&index).unwrap_or_default();
        if candidates.len() == 1 {
            match candidates.pop() {
                Some(c) => Submission::Accepted(Box::new(c.output)),
                None => Submission::Pending { votes: 0 },
            }
        } else {
            Submission::Divergent(candidates)
        }
    }

    /// Drop every pending vote `holder` cast (quarantine): other slots
    /// it voted on must reopen their quorum. Empty candidate lists are
    /// pruned.
    pub fn disqualify(&mut self, holder: u64) {
        for candidates in self.pending.values_mut() {
            for c in candidates.iter_mut() {
                c.holders.retain(|&h| h != holder);
            }
            candidates.retain(|c| !c.holders.is_empty());
        }
        self.pending.retain(|_, candidates| !candidates.is_empty());
    }

    /// Votes currently pending for `index` (test/introspection).
    #[must_use]
    pub fn votes(&self, index: usize) -> u32 {
        self.pending.get(&index).map_or(0, |c| {
            c.iter().map(|c| c.holders.len()).sum::<usize>() as u32
        })
    }
}

/// The holders among `candidates` whose digest disagrees with the
/// locally verified `truth` — the quarantine set after an adjudicating
/// re-execution.
#[must_use]
pub fn disagreeing_holders(candidates: &[Candidate], truth: u64) -> Vec<u64> {
    let mut out = Vec::new();
    for c in candidates {
        if c.digest != truth {
            out.extend_from_slice(&c.holders);
        }
    }
    out
}

/// A guided generation's scheduling state: with the rng seed and the
/// slot index, all a slot's outcome depends on.
#[derive(Debug, Clone, Default)]
pub struct GuidedEpoch {
    /// The scheduling corpus (`initial ++ promoted`).
    pub corpus: Vec<VmSeed>,
    /// Seed path per corpus entry (rebuilt from the promotion lineage
    /// by [`iris_fuzzer::guided::corpus_paths`]): where each slot
    /// positions its target before submitting.
    pub paths: Vec<Vec<usize>>,
    /// The generation-start coverage map.
    pub seen: CoverageMap,
}

/// What a range execution needs beyond the trace: the campaign test
/// case, or the guided epoch's scheduling state.
#[derive(Debug, Clone, Copy)]
pub enum ExecDetail<'a> {
    /// A campaign chunk of this test case.
    Campaign(&'a TestCase),
    /// A guided slot range against this epoch.
    Guided(&'a GuidedEpoch),
}

/// The long-lived targets one job's ranges execute on: a
/// [`PrefixServer`] for campaign chunks and a [`SlotContext`] for
/// guided slots, each booted at its first range and kept until the job
/// ends. Workers keep one per job across leases; adjudication and
/// spot-checks run on a cold one. Warm and cold give the same bytes:
/// both position through the snapshot forest, whose node states are
/// pure functions of their seed paths. Generic only so tests can count
/// boots.
#[derive(Debug)]
pub struct JobTargets<F = Backend, T: FuzzTarget = HvTarget> {
    factory: F,
    campaign: Option<PrefixServer<T>>,
    guided: Option<SlotContext<T>>,
}

impl<F, T: FuzzTarget> JobTargets<F, T> {
    /// No target built yet: the first range of each kind boots one.
    #[must_use]
    pub fn cold(factory: F) -> Self {
        Self {
            factory,
            campaign: None,
            guided: None,
        }
    }

    /// Drop the guided slot context. Its node cache is keyed by corpus
    /// index, so it is valid only while every index keeps its seed
    /// path: call this when a new epoch does not extend the last one.
    pub fn forget_slots(&mut self) {
        self.guided = None;
    }
}

/// Execute one lease range — the single implementation behind worker
/// leases, divergence adjudication, and spot-checks, so "re-execute and
/// compare" compares like with like by construction. Campaign chunks
/// run on `targets`' [`PrefixServer`], guided slots on its
/// [`SlotContext`], exactly as the in-process drivers run them.
/// `trace` must be the trace `targets` was first used with.
#[must_use]
pub fn execute_range<F, T>(
    targets: &mut JobTargets<F, T>,
    trace: &RecordedTrace,
    detail: &ExecDetail<'_>,
    range: LeaseRange,
    rng_seed: u64,
) -> RangeOutput
where
    F: for<'t> TargetFactory<Target<'t> = T>,
    T: FuzzTarget,
{
    let factory = &targets.factory;
    match detail {
        ExecDetail::Campaign(tc) => {
            let mutant_range = MutantRange {
                start: range.start as usize,
                len: range.len as usize,
            };
            let server = targets.campaign.get_or_insert_with(|| {
                PrefixServer::new(factory.build(BootPlan::for_test_case(trace)))
            });
            RangeOutput::Campaign(Box::new(server.run_chunk(trace, tc, mutant_range)))
        }
        ExecDetail::Guided(GuidedEpoch {
            corpus,
            paths,
            seen,
        }) => {
            let ctx = targets
                .guided
                .get_or_insert_with(|| SlotContext::new(factory.build(BootPlan::post_boot(trace))));
            // No preallocation from `range.len`: the caller bounds the
            // range (a worker against the job's budget), not this loop.
            let mut outcomes = Vec::new();
            for slot in range.start..range.start.saturating_add(range.len) {
                outcomes.push(ctx.run_slot(corpus, paths, seen, rng_seed, slot));
            }
            RangeOutput::Guided(outcomes)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iris_fuzzer::campaign::ChunkOutput;

    fn sample_output(tag: u64) -> RangeOutput {
        let mut chunk = ChunkOutput {
            range: MutantRange { start: 0, len: 4 },
            baseline: CoverageMap::default(),
            discovered: CoverageMap::default(),
            failures: iris_fuzzer::failure::FailureStats::default(),
            corpus: iris_fuzzer::corpus::Corpus::default(),
        };
        chunk.failures.submitted = tag;
        RangeOutput::Campaign(Box::new(chunk))
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn digests_separate_distinct_outputs_and_match_equal_ones() {
        let a = digest_output(&sample_output(1)).unwrap();
        let b = digest_output(&sample_output(1)).unwrap();
        let c = digest_output(&sample_output(2)).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn spot_check_law_is_pure_and_rate_shaped() {
        assert!(!spot_check_due(0, "fp", 3), "rate 0 disables sampling");
        for i in 0..64 {
            assert!(spot_check_due(1, "fp", i), "rate 1 audits everything");
            assert_eq!(spot_check_due(8, "fp", i), spot_check_due(8, "fp", i));
        }
        // Rate 8 samples some but not all of a reasonable window.
        let hits = (0..256).filter(|&i| spot_check_due(8, "fp", i)).count();
        assert!(hits > 0 && hits < 256, "rate 8 hit {hits}/256");
    }

    #[test]
    fn unanimous_quorum_accepts_the_output() {
        let mut v = Verifier::new(2);
        let d = digest_output(&sample_output(1)).unwrap();
        assert!(matches!(
            v.submit(0, 11, d, sample_output(1)),
            Submission::Pending { votes: 1 }
        ));
        match v.submit(0, 12, d, sample_output(1)) {
            Submission::Accepted(out) => assert_eq!(*out, sample_output(1)),
            other => panic!("expected acceptance, got {other:?}"),
        }
        assert_eq!(v.votes(0), 0, "quorum consumed the slot's votes");
    }

    #[test]
    fn split_quorum_is_divergent_and_names_the_minority() {
        let mut v = Verifier::new(2);
        let good = digest_output(&sample_output(1)).unwrap();
        let bad = digest_output(&sample_output(2)).unwrap();
        let _ = v.submit(3, 11, good, sample_output(1));
        match v.submit(3, 66, bad, sample_output(2)) {
            Submission::Divergent(cands) => {
                assert_eq!(cands.len(), 2);
                assert_eq!(disagreeing_holders(&cands, good), vec![66]);
                assert_eq!(disagreeing_holders(&cands, bad), vec![11]);
                // Truth matching neither quarantines both.
                assert_eq!(disagreeing_holders(&cands, 0), vec![11, 66]);
            }
            other => panic!("expected divergence, got {other:?}"),
        }
    }

    #[test]
    fn disqualification_reopens_pending_quorums() {
        let mut v = Verifier::new(2);
        let d = digest_output(&sample_output(1)).unwrap();
        let _ = v.submit(0, 11, d, sample_output(1));
        let _ = v.submit(1, 11, d, sample_output(1));
        assert_eq!(v.votes(0), 1);
        v.disqualify(11);
        assert_eq!(v.votes(0), 0);
        assert_eq!(v.votes(1), 0);
        // The slot is votable again and completes with honest workers.
        let _ = v.submit(0, 12, d, sample_output(1));
        assert!(matches!(
            v.submit(0, 13, d, sample_output(1)),
            Submission::Accepted(_)
        ));
    }
}
