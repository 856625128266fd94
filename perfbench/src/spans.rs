//! In-memory span recording and the statistics the report is built from.
//!
//! A span is one call into a layer, timed from outside the program:
//! name, start, end, the repetition (run id) it belongs to, and a
//! payload (frame bytes for wire spans, 0 otherwise). Every span's
//! parent is its repetition's root span; the root spans are implied by
//! the run ids and materialised only when the spans are written out.
//! Markers (crash verdicts, `reset_to` misses) are spans with
//! `start == end`.

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub run: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub bytes: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The span store shared by every instrumented seam of one process.
/// Recorders buffer spans locally and hand them over in batches, so the
/// lock is not taken on the per-exit path.
#[derive(Debug)]
pub struct Sink {
    epoch: Instant,
    run: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Sink {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            run: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the sink was created.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn ns_of(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// The repetition new spans belong to.
    pub fn run(&self) -> u64 {
        self.run.load(Ordering::Relaxed)
    }

    pub fn set_run(&self, run: u64) {
        self.run.store(run, Ordering::Relaxed);
    }

    pub fn push(&self, span: Span) {
        self.extend(&mut vec![span]);
    }

    pub fn extend(&self, batch: &mut Vec<Span>) {
        self.spans
            .lock()
            .expect("span store poisoned by a panicking recorder")
            .append(batch);
    }

    /// Remove and return every span recorded so far.
    pub fn drain(&self) -> Vec<Span> {
        std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("span store poisoned by a panicking recorder"),
        )
    }
}

/// Write one repetition's spans as JSON lines: the header, the
/// repetition's root span (id 1, covering `[start_ns, end_ns]`), then
/// every layer span with the root as parent. Ids are line numbers.
pub fn write_jsonl(
    path: &std::path::Path,
    header: &str,
    (run, start_ns, end_ns): (u64, u64, u64),
    spans: &[Span],
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{header}")?;
    writeln!(
        out,
        r#"{{"id":1,"parent":null,"run":{run},"name":"repetition","start_ns":{start_ns},"end_ns":{end_ns}}}"#
    )?;
    for (id, s) in (2u64..).zip(spans) {
        writeln!(
            out,
            r#"{{"id":{id},"parent":1,"run":{},"name":"{}","start_ns":{},"end_ns":{},"bytes":{}}}"#,
            s.run, s.name, s.start_ns, s.end_ns, s.bytes
        )?;
    }
    out.flush()
}

/// The `q`-quantile (0..=1) of `values` by nearest rank; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * (v.len() - 1) as f64).round() as usize;
    v[rank.min(v.len() - 1)]
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}
