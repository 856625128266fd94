//! Per-layer metrics of the traced run, derived from the spans.
//!
//! Counts are per repetition (median over the traced repetitions, so
//! they do not depend on how many repetitions fit in the run), busy
//! times are per repetition too, and latency percentiles pool every
//! span of the traced phase. A metric whose layer the workload does not
//! exercise reads 0.

use crate::spans::{median, quantile, Span};
use crate::workloads::SetupInfo;
use iris_dist::proto::{read_frame, write_frame};
use std::collections::BTreeMap;
use std::time::Instant;

/// Every per-layer metric, with its unit, in report order.
pub const METRICS: &[(&str, &str)] = &[
    ("record.trace_ms", "ms"),
    ("record.exits", "count"),
    ("target.boot.count", "count"),
    ("target.boot.busy_ms", "ms"),
    ("target.boot.p50_us", "us"),
    ("target.boot.p99_us", "us"),
    ("target.reset_hv.count", "count"),
    ("target.reset_hv.busy_ms", "ms"),
    ("target.reset_hv.p50_us", "us"),
    ("target.reset_vm.count", "count"),
    ("target.reset_vm.busy_ms", "ms"),
    ("target.reset_vm.p50_us", "us"),
    ("target.reset_to.count", "count"),
    ("target.reset_to.miss", "count"),
    ("target.reset_to.busy_ms", "ms"),
    ("target.reset_to.p50_us", "us"),
    ("target.pin.count", "count"),
    ("target.pin.busy_ms", "ms"),
    ("target.positioning_replays", "count"),
    ("target.submit.count", "count"),
    ("target.submit.busy_ms", "ms"),
    ("target.submit.p50_ns", "ns"),
    ("crash.vm", "count"),
    ("crash.hv", "count"),
    ("campaign.chunks", "count"),
    ("campaign.driver_self_ms", "ms"),
    ("guided.generations", "count"),
    ("guided.generation_p50_ms", "ms"),
    ("guided.driver_self_ms", "ms"),
    ("replay.restore_us", "us"),
    ("replay.pass_ms.os_boot", "ms"),
    ("replay.pass_ms.cpu_bound", "ms"),
    ("replay.pass_ms.mem_bound", "ms"),
    ("replay.pass_ms.io_bound", "ms"),
    ("replay.pass_ms.idle", "ms"),
    ("dist.frames.Hello", "count"),
    ("dist.frames.Assign", "count"),
    ("dist.frames.Lease", "count"),
    ("dist.frames.ChunkDone", "count"),
    ("dist.frames.Heartbeat", "count"),
    ("dist.frames.JobDone", "count"),
    ("dist.bytes.Hello", "B"),
    ("dist.bytes.Assign", "B"),
    ("dist.bytes.Lease", "B"),
    ("dist.bytes.ChunkDone", "B"),
    ("dist.bytes.Heartbeat", "B"),
    ("dist.bytes.JobDone", "B"),
    ("dist.lease.count", "count"),
    ("dist.lease.worker_p50_ms", "ms"),
    ("dist.lease.turnaround_p50_ms", "ms"),
    ("dist.codec.encode_us.Lease", "us"),
    ("dist.codec.encode_us.ChunkDone", "us"),
    ("dist.codec.encode_us.Assign", "us"),
    ("dist.codec.decode_us.Lease", "us"),
    ("dist.codec.decode_us.ChunkDone", "us"),
    ("dist.codec.decode_us.Assign", "us"),
    ("dist.job.tail_ms", "ms"),
    ("attributed_share", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// Target-layer calls (markers excluded): their busy time is what the
/// in-process drivers spend inside the `FuzzTarget` seam.
const TARGET_CALLS: [&str; 6] = [
    "target.boot",
    "target.reset_hv",
    "target.reset_vm",
    "target.reset_to",
    "target.pin",
    "target.submit",
];

/// Frame types on the worker connection: (relay span, frame count
/// metric, wire bytes metric).
const FRAME_METRICS: [(&str, &str, &str); 6] = [
    ("dist.frame.Hello", "dist.frames.Hello", "dist.bytes.Hello"),
    (
        "dist.frame.Assign",
        "dist.frames.Assign",
        "dist.bytes.Assign",
    ),
    ("dist.frame.Lease", "dist.frames.Lease", "dist.bytes.Lease"),
    (
        "dist.frame.ChunkDone",
        "dist.frames.ChunkDone",
        "dist.bytes.ChunkDone",
    ),
    (
        "dist.frame.Heartbeat",
        "dist.frames.Heartbeat",
        "dist.bytes.Heartbeat",
    ),
    (
        "dist.frame.JobDone",
        "dist.frames.JobDone",
        "dist.bytes.JobDone",
    ),
];

/// One traced repetition.
#[derive(Debug)]
pub struct TracedRep {
    pub run: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub execs: u64,
    pub samples: Vec<(&'static str, f64)>,
}

impl TracedRep {
    fn wall_ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

fn count(spans: &[&Span], name: &str) -> f64 {
    spans.iter().filter(|s| s.name == name).count() as f64
}

fn busy_ms(spans: &[&Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64)
        .sum::<f64>()
        / 1e6
}

fn bytes(spans: &[&Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.bytes as f64)
        .sum()
}

/// Lease round trips seen by the relay in one repetition: the worker's
/// time per lease (Lease forwarded → ChunkDone back) and the
/// coordinator's turnaround (ChunkDone → the next Lease).
fn lease_times(spans: &[&Span]) -> (Vec<f64>, Vec<f64>) {
    let mut frames: Vec<&&Span> = spans
        .iter()
        .filter(|s| s.name == "dist.frame.Lease" || s.name == "dist.frame.ChunkDone")
        .collect();
    frames.sort_by_key(|s| s.start_ns);
    let mut outstanding = std::collections::VecDeque::new();
    let (mut worker, mut turnaround) = (Vec::new(), Vec::new());
    let mut last_done = None;
    for f in frames {
        if f.name == "dist.frame.Lease" {
            if let Some(done) = last_done.take() {
                turnaround.push((f.start_ns - done) as f64 / 1e6);
            }
            outstanding.push_back(f.start_ns);
        } else if let Some(leased) = outstanding.pop_front() {
            worker.push((f.start_ns - leased) as f64 / 1e6);
            last_done = outstanding.is_empty().then_some(f.start_ns);
        }
    }
    (worker, turnaround)
}

/// Compute every metric of [`METRICS`] for one workload's traced phase.
pub fn per_layer(
    workload: &str,
    jobs: usize,
    reps: &[TracedRep],
    spans: &[Span],
    setups: &[SetupInfo],
    after: &[(&'static str, f64)],
    overhead_pct: f64,
) -> BTreeMap<&'static str, f64> {
    let mut by_run: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        by_run.entry(s.run).or_default().push(s);
    }
    let empty = Vec::new();
    let of = |rep: &TracedRep| by_run.get(&rep.run).unwrap_or(&empty);
    let per_rep = |f: &dyn Fn(&TracedRep, &[&Span]) -> f64| {
        median(&reps.iter().map(|r| f(r, of(r))).collect::<Vec<_>>())
    };
    let durs = |name: &str, scale: f64| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / scale)
            .collect()
    };
    let samples = |name: &str| -> Vec<f64> {
        reps.iter()
            .flat_map(|r| r.samples.iter())
            .chain(after.iter())
            .filter(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .collect()
    };
    let target_busy = |s: &[&Span]| TARGET_CALLS.iter().map(|n| busy_ms(s, n)).sum::<f64>();

    let mut m: BTreeMap<&'static str, f64> = METRICS.iter().map(|(n, _)| (*n, 0.0)).collect();
    let mut set = |name: &'static str, value: f64| {
        debug_assert!(m.contains_key(name), "{name} missing from METRICS");
        m.insert(name, if value.is_finite() { value } else { 0.0 });
    };

    set(
        "record.trace_ms",
        median(&setups.iter().map(|s| s.record_ms).collect::<Vec<_>>()),
    );
    set(
        "record.exits",
        setups.first().map_or(0.0, |s| s.record_exits as f64),
    );

    set(
        "target.boot.p50_us",
        quantile(&durs("target.boot", 1e3), 0.5),
    );
    set(
        "target.boot.p99_us",
        quantile(&durs("target.boot", 1e3), 0.99),
    );
    set(
        "target.reset_hv.p50_us",
        quantile(&durs("target.reset_hv", 1e3), 0.5),
    );
    set(
        "target.reset_vm.p50_us",
        quantile(&durs("target.reset_vm", 1e3), 0.5),
    );
    set(
        "target.reset_to.p50_us",
        quantile(&durs("target.reset_to", 1e3), 0.5),
    );
    for (span, calls, busy) in [
        ("target.boot", "target.boot.count", "target.boot.busy_ms"),
        (
            "target.reset_hv",
            "target.reset_hv.count",
            "target.reset_hv.busy_ms",
        ),
        (
            "target.reset_vm",
            "target.reset_vm.count",
            "target.reset_vm.busy_ms",
        ),
        ("target.pin", "target.pin.count", "target.pin.busy_ms"),
        (
            "target.submit",
            "target.submit.count",
            "target.submit.busy_ms",
        ),
    ] {
        set(calls, per_rep(&|_, s| count(s, span)));
        set(busy, per_rep(&|_, s| busy_ms(s, span)));
    }
    set(
        "target.reset_to.count",
        per_rep(&|_, s| count(s, "target.reset_to") + count(s, "target.reset_to.rebooted")),
    );
    set(
        "target.reset_to.miss",
        per_rep(&|_, s| count(s, "target.reset_to.miss")),
    );
    set(
        "target.reset_to.busy_ms",
        per_rep(&|_, s| busy_ms(s, "target.reset_to")),
    );
    set(
        "target.submit.p50_ns",
        quantile(&durs("target.submit", 1.0), 0.5),
    );
    set("crash.vm", per_rep(&|_, s| count(s, "crash.vm")));
    set("crash.hv", per_rep(&|_, s| count(s, "crash.hv")));

    let driver_self = per_rep(&|r, s| r.wall_ms() * jobs as f64 - target_busy(s));
    if matches!(workload, "campaign" | "guided") {
        set(
            "target.positioning_replays",
            per_rep(&|r, s| count(s, "target.submit") - r.execs as f64),
        );
    }
    match workload {
        "campaign" => {
            set("campaign.chunks", median(&samples("campaign.chunks")));
            set("campaign.driver_self_ms", driver_self);
        }
        "guided" => {
            set("guided.generations", median(&samples("guided.generations")));
            set(
                "guided.generation_p50_ms",
                quantile(&samples("guided.generation_ms"), 0.5),
            );
            set("guided.driver_self_ms", driver_self);
        }
        _ => {}
    }
    let attributed = match workload {
        "campaign" | "guided" => per_rep(&|r, s| target_busy(s) / (r.wall_ms() * jobs as f64)),
        "replay" => per_rep(&|r, s| {
            s.iter()
                .filter(|x| x.name.starts_with("replay."))
                .map(|x| x.dur_ns() as f64 / 1e6)
                .sum::<f64>()
                / r.wall_ms()
        }),
        _ => per_rep(&|r, s| lease_times(s).0.iter().sum::<f64>() / r.wall_ms()),
    };
    set("attributed_share", attributed);

    set("replay.restore_us", median(&durs("replay.restore", 1e3)));
    for (span, metric) in [
        ("replay.pass.os_boot", "replay.pass_ms.os_boot"),
        ("replay.pass.cpu_bound", "replay.pass_ms.cpu_bound"),
        ("replay.pass.mem_bound", "replay.pass_ms.mem_bound"),
        ("replay.pass.io_bound", "replay.pass_ms.io_bound"),
        ("replay.pass.idle", "replay.pass_ms.idle"),
    ] {
        set(metric, median(&durs(span, 1e6)));
    }

    for (span, frames, wire_bytes) in FRAME_METRICS {
        set(frames, per_rep(&|_, s| count(s, span)));
        set(wire_bytes, per_rep(&|_, s| bytes(s, span)));
    }
    if workload == "fleet" {
        set(
            "dist.lease.count",
            per_rep(&|_, s| count(s, "dist.frame.Lease")),
        );
        let (mut worker, mut turnaround) = (Vec::new(), Vec::new());
        for r in reps {
            let (w, t) = lease_times(of(r));
            worker.extend(w);
            turnaround.extend(t);
        }
        set("dist.lease.worker_p50_ms", quantile(&worker, 0.5));
        set("dist.lease.turnaround_p50_ms", quantile(&turnaround, 0.5));
        set(
            "dist.job.tail_ms",
            per_rep(&|_, s| {
                let last = |name: &str| {
                    s.iter()
                        .filter(|x| x.name == name)
                        .map(|x| x.start_ns)
                        .max()
                        .unwrap_or(0)
                };
                last("dist.job.done").saturating_sub(last("dist.frame.ChunkDone")) as f64 / 1e6
            }),
        );
    }
    for (name, _) in METRICS.iter().filter(|(n, _)| n.starts_with("dist.codec.")) {
        set(name, median(&samples(name)));
    }
    set("trace.overhead_pct", overhead_pct);
    m
}

/// Time the codec on frames the relay captured: decode each with
/// `read_frame`, re-encode it with `write_frame`, and check that the
/// re-encoding reproduces the wire bytes exactly.
pub fn codec_samples(
    captured: &[(&'static str, Vec<u8>)],
) -> Result<Vec<(&'static str, f64)>, String> {
    let mut out = Vec::new();
    for (kind, wire) in captured {
        let (encode, decode) = match *kind {
            "Lease" => ("dist.codec.encode_us.Lease", "dist.codec.decode_us.Lease"),
            "ChunkDone" => (
                "dist.codec.encode_us.ChunkDone",
                "dist.codec.decode_us.ChunkDone",
            ),
            "Assign" => ("dist.codec.encode_us.Assign", "dist.codec.decode_us.Assign"),
            _ => continue,
        };
        let t = Instant::now();
        let frame = read_frame(&mut wire.as_slice()).map_err(|e| e.to_string())?;
        out.push((decode, t.elapsed().as_secs_f64() * 1e6));
        let mut again = Vec::with_capacity(wire.len());
        let t = Instant::now();
        write_frame(&mut again, &frame).map_err(|e| e.to_string())?;
        out.push((encode, t.elapsed().as_secs_f64() * 1e6));
        if &again != wire {
            return Err(format!(
                "a relayed {kind} frame does not re-encode to its wire bytes"
            ));
        }
    }
    Ok(out)
}
