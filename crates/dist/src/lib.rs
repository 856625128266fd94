//! Distributed fuzzing service: a coordinator/worker fleet over a wire
//! protocol — the cross-host half of the ROADMAP's "distributed
//! fuzzing service" item (DISTRIBUTED.md).
//!
//! The paper's campaigns are embarrassingly parallel, and the
//! determinism laws earlier PRs pinned make the *distribution* free of
//! semantics: any partition of a campaign's mutant ranges or a guided
//! generation's slot ranges produces a byte-identical report, because
//!
//! * each range re-derives its RNG stream locally (the per-range RNG
//!   law, `iris_fuzzer::mutation::mutant_rng`; the slot law,
//!   `iris_fuzzer::strategies::scheduled_mutant`),
//! * traces re-record deterministically from `(workload, exits, seed)`,
//!   so the wire ships job *specs*, never traces, plans, or corpora,
//! * the fold runs in defined `(test_case_index, range_start)` / slot
//!   order whatever order results arrive in.
//!
//! Three layers:
//!
//! * [`proto`] — a versioned, length-prefixed JSON frame codec over
//!   `std::net::TcpStream` (vendored serde only): [`proto::Frame`],
//!   with [`DistError`] typing version/fingerprint mismatch and
//!   mid-frame disconnects.
//! * [`coordinator`] — the `iris serve` daemon: accepts campaign and
//!   guided submissions, leases chunk/slot ranges out of a
//!   [`lease::LeaseTable`] with heartbeat-driven expiry, re-leases
//!   ranges lost to worker death, folds [`proto::RangeOutput`]s through
//!   the existing in-process merge, checkpoints at fold/generation
//!   boundaries via `iris_fuzzer::checkpoint`, and streams progress to
//!   submitters.
//! * [`worker`] / [`client`] — `iris worker` keeps one warm target
//!   set per job across leases and runs the in-process
//!   `PrefixServer`/`run_slot` cores on it; `iris submit` delivers a
//!   spec and receives the final report, byte-identical to
//!   `iris campaign|guided --jobs 1`.
//!
//! Plus the adversarial-robustness layer (DISTRIBUTED.md "Failure and
//! trust model"): [`chaos`] is a seeded in-process TCP proxy that turns
//! network failure into reproducible test cases; [`verify`] digests and
//! cross-checks untrusted worker results (`--redundancy K`, spot-check
//! re-execution, quarantine); [`backoff`] is the workers' bounded
//! exponential reconnect policy with deterministic jitter.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backoff;
pub mod chaos;
pub mod client;
pub mod coordinator;
pub mod job;
pub mod lease;
pub mod proto;
pub mod verify;
pub mod worker;

use std::fmt;
use std::io;

/// Typed wire-protocol failure — what a peer that cannot proceed
/// reports, and what connection-level faults surface as.
#[derive(Debug)]
pub enum DistError {
    /// The peer speaks a different protocol version.
    VersionMismatch {
        /// The version this build speaks ([`proto::PROTO_VERSION`]).
        ours: u32,
        /// The version the peer announced.
        theirs: u32,
    },
    /// A job fingerprint disagreed — e.g. a submission against a
    /// coordinator whose `--resume` checkpoint belongs to a different
    /// run configuration.
    FingerprintMismatch {
        /// The fingerprint the rejecting side holds.
        expected: String,
        /// The fingerprint the other side presented.
        got: String,
    },
    /// The peer went away. `mid_frame` distinguishes a connection cut
    /// inside a length-prefixed frame (truncation — the stream is
    /// unusable) from a clean close at a frame boundary.
    Disconnected {
        /// What the reader was waiting for when the stream ended.
        during: &'static str,
        /// True when the cut landed inside a frame.
        mid_frame: bool,
    },
    /// A frame announced a body larger than [`proto::MAX_FRAME_BYTES`]
    /// — refused before allocation.
    FrameTooLarge {
        /// The announced body length.
        len: u64,
        /// The codec's cap.
        max: u32,
    },
    /// The peer violated the protocol (bad JSON, an unexpected frame
    /// kind, a result for a range it does not hold).
    Protocol(String),
    /// The peer reported a typed error frame.
    Remote {
        /// The peer's error code.
        code: proto::ErrorCode,
        /// The peer's human-readable detail.
        detail: String,
    },
    /// The coordinator's submission queue is full — the job was never
    /// accepted. Retry after the active job drains.
    Busy {
        /// How many submissions were already queued when this one was
        /// refused.
        queued: u64,
    },
    /// The reconnect budget is spent: the peer stayed unreachable
    /// through every backoff attempt ([`backoff::BackoffPolicy`]).
    RetriesExhausted {
        /// Attempts made before giving up.
        attempts: u32,
        /// The error the final attempt died on.
        last: Box<DistError>,
    },
    /// Transport-level I/O failure (including read timeouts used for
    /// polling — see [`DistError::is_poll_timeout`]).
    Io(io::Error),
}

impl DistError {
    /// True when this is a read-timeout "no frame yet" condition from a
    /// socket with a read timeout — the caller's poll loop continues;
    /// every other error is terminal for the connection.
    #[must_use]
    pub fn is_poll_timeout(&self) -> bool {
        matches!(
            self,
            DistError::Io(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
        )
    }
}

impl fmt::Display for DistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistError::VersionMismatch { ours, theirs } => write!(
                f,
                "protocol version mismatch: we speak v{ours}, peer speaks v{theirs}"
            ),
            DistError::FingerprintMismatch { expected, got } => write!(
                f,
                "job fingerprint mismatch: expected '{expected}', got '{got}'"
            ),
            DistError::Disconnected { during, mid_frame } => {
                if *mid_frame {
                    write!(f, "peer disconnected mid-frame while reading {during}")
                } else {
                    write!(f, "peer disconnected while waiting for {during}")
                }
            }
            DistError::FrameTooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte cap")
            }
            DistError::Protocol(detail) => write!(f, "protocol violation: {detail}"),
            DistError::Remote { code, detail } => {
                write!(f, "peer reported {code:?}: {detail}")
            }
            DistError::Busy { queued } => write!(
                f,
                "coordinator is busy: submission queue is full ({queued} queued) — retry later"
            ),
            DistError::RetriesExhausted { attempts, last } => {
                write!(f, "gave up after {attempts} reconnect attempts: {last}")
            }
            DistError::Io(e) => write!(f, "transport error: {e}"),
        }
    }
}

impl std::error::Error for DistError {}

impl From<io::Error> for DistError {
    fn from(e: io::Error) -> Self {
        DistError::Io(e)
    }
}
