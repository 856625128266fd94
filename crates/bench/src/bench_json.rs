//! Machine-readable bench output — the perf-trajectory plumbing.
//!
//! The prose tables in PERFORMANCE.md cannot be diffed by tooling, so
//! the `parallel_campaign` and `replay_throughput` bench bins accept a
//! `--json <path>` flag and write their measurements as a JSON list of
//! [`BenchRecord`]s (conventionally `BENCH_parallel_campaign.json` /
//! `BENCH_replay_throughput.json`). Future sessions diff those files to
//! catch seeds/s regressions instead of re-reading prose.

use criterion::Measurement;
use serde::Serialize;
use std::io;
use std::path::{Path, PathBuf};

/// One bench arm's published numbers.
#[derive(Debug, Clone, Serialize)]
pub struct BenchRecord {
    /// The arm's `group/id` label, e.g. `parallel_campaign/jobs/2/chunk/64`.
    pub arm: String,
    /// Mean wall-clock nanoseconds per iteration.
    pub mean_ns_per_iter: f64,
    /// Seed submissions per second (0.0 when the arm declared no
    /// element throughput or ran in `--test` mode).
    pub seeds_per_sec: f64,
    /// Nanoseconds per submitted seed/exit (0.0 likewise).
    pub ns_per_exit: f64,
    /// Worker count, for arms parameterized by `jobs`.
    pub jobs: Option<usize>,
    /// Work-stealing chunk size, for arms parameterized by `chunk`.
    pub chunk: Option<usize>,
    /// Guided generation size, for arms parameterized by `gen`
    /// (the `guided_scaling` bench's sync-point axis).
    pub generation: Option<usize>,
    /// CPUs the measuring host offered (`available_parallelism`), so a
    /// jobs axis can be read against the hardware it ran on.
    pub host_cpus: usize,
}

impl BenchRecord {
    /// Derive a record from a harness measurement, parsing optional
    /// `…/jobs/N/…` and `…/chunk/N/…` label segments into fields.
    #[must_use]
    pub fn from_measurement(m: &Measurement) -> Self {
        let rate = |elements: u64| {
            if m.mean_ns > 0.0 {
                elements as f64 / (m.mean_ns / 1e9)
            } else {
                0.0
            }
        };
        let per_exit = |elements: u64| {
            if elements > 0 {
                m.mean_ns / elements as f64
            } else {
                0.0
            }
        };
        BenchRecord {
            arm: m.label.clone(),
            mean_ns_per_iter: m.mean_ns,
            seeds_per_sec: m.elements.map_or(0.0, rate),
            ns_per_exit: m.elements.map_or(0.0, per_exit),
            jobs: label_segment(&m.label, "jobs"),
            chunk: label_segment(&m.label, "chunk"),
            generation: label_segment(&m.label, "gen"),
            host_cpus: std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
        }
    }
}

/// Parse the numeric segment following `key` in a `/`-separated label.
fn label_segment(label: &str, key: &str) -> Option<usize> {
    let mut parts = label.split('/');
    while let Some(part) = parts.next() {
        if part == key {
            return parts.next().and_then(|v| v.parse().ok());
        }
    }
    None
}

/// The `--json <path>` flag of a bench bin's argument list, if present.
/// (Cargo's own flags, like the `--bench` it appends, pass through the
/// custom mains untouched.)
#[must_use]
pub fn json_arg() -> Option<PathBuf> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from)
}

/// Convert the harness registry's measurements and write them to
/// `path` — atomically (tmp-file + rename), so an interrupted bench bin
/// never leaves a torn trajectory file for a later session to diff.
pub fn write_records(path: &Path, measurements: &[Measurement]) -> io::Result<()> {
    let records: Vec<BenchRecord> = measurements
        .iter()
        .map(BenchRecord::from_measurement)
        .collect();
    iris_fuzzer::checkpoint::atomic_write_json(
        path,
        serde_json::to_string_pretty(&records)
            .expect("bench records serialize")
            .as_bytes(),
    )
}

/// The shared tail of every JSON-emitting bench bin: if `--json` was
/// passed, drain the measurement registry and write the file.
pub fn emit_if_requested() {
    if let Some(path) = json_arg() {
        let measurements = criterion::take_measurements();
        write_records(&path, &measurements).expect("writing bench JSON");
        println!(
            "bench JSON written to {} ({} arms)",
            path.display(),
            measurements.len()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_derive_rates_and_label_segments() {
        let m = Measurement {
            label: "parallel_campaign/jobs/2/chunk/64".to_owned(),
            mean_ns: 2_000_000.0,
            elements: Some(1000),
        };
        let r = BenchRecord::from_measurement(&m);
        assert_eq!(r.jobs, Some(2));
        assert_eq!(r.chunk, Some(64));
        assert_eq!(r.generation, None);
        assert!(
            (r.seeds_per_sec - 500_000.0).abs() < 1e-6,
            "{}",
            r.seeds_per_sec
        );
        assert!((r.ns_per_exit - 2000.0).abs() < 1e-9);
        assert!(r.host_cpus >= 1);
    }

    #[test]
    fn test_mode_measurements_yield_zero_rates() {
        let m = Measurement {
            label: "replay_throughput/target/IDLE".to_owned(),
            mean_ns: 0.0,
            elements: Some(300),
        };
        let r = BenchRecord::from_measurement(&m);
        assert_eq!(r.seeds_per_sec, 0.0);
        assert_eq!(r.ns_per_exit, 0.0);
        assert_eq!(r.jobs, None);
        assert_eq!(r.chunk, None);
        assert_eq!(r.generation, None);
    }

    #[test]
    fn guided_scaling_labels_parse_the_generation_axis() {
        let m = Measurement {
            label: "guided_scaling/jobs/4/gen/256".to_owned(),
            mean_ns: 1e6,
            elements: Some(1200),
        };
        let r = BenchRecord::from_measurement(&m);
        assert_eq!(r.jobs, Some(4));
        assert_eq!(r.generation, Some(256));
        assert_eq!(r.chunk, None);
    }

    #[test]
    fn records_round_trip_through_the_file() {
        let p = std::env::temp_dir().join("iris-bench-json-test.json");
        let ms = vec![Measurement {
            label: "g/jobs/1".to_owned(),
            mean_ns: 1e6,
            elements: Some(10),
        }];
        write_records(&p, &ms).unwrap();
        let text = std::fs::read_to_string(&p).unwrap();
        assert!(text.contains("\"arm\""), "{text}");
        assert!(text.contains("g/jobs/1"), "{text}");
        assert!(text.contains("\"host_cpus\""), "{text}");
        std::fs::remove_file(&p).ok();
    }
}
