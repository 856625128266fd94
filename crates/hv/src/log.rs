//! The hypervisor console ring buffer.
//!
//! Xen reports crashes and diagnostics on its console (`xl dmesg`); the
//! paper's PoC fuzzer classifies failures *"by using scripts that analyze
//! hypervisor behavior and logs"*. [`LogRing`] is that console: a bounded
//! ring of structured lines the fuzzer's failure detector greps.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Severity of a log line (Xen's `XENLOG_*` levels).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum Level {
    Debug,
    Info,
    Warning,
    Err,
    /// Fatal — accompanies hypervisor crashes (BUG/panic).
    Crit,
}

/// One console line.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LogLine {
    /// TSC timestamp at emission.
    pub tsc: u64,
    /// Severity.
    pub level: Level,
    /// Message text.
    pub message: String,
}

/// Bounded console ring buffer with a severity threshold (Xen's
/// `loglvl=` boot parameter): lines below the threshold are dropped at
/// the door, and callers on hot paths use [`LogRing::enabled`] or
/// [`LogRing::push_with`] to avoid even *formatting* suppressed
/// messages.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LogRing {
    capacity: usize,
    lines: VecDeque<LogLine>,
    #[serde(default)]
    min_level: Option<Level>,
}

impl Default for LogRing {
    fn default() -> Self {
        Self::new(4096)
    }
}

impl LogRing {
    /// Ring holding at most `capacity` lines, accepting every level.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            lines: VecDeque::new(),
            min_level: None,
        }
    }

    /// Drop lines below `level` (`None` accepts everything).
    pub fn set_min_level(&mut self, level: Option<Level>) {
        self.min_level = level;
    }

    /// Whether a line at `level` would be retained. Callers formatting
    /// expensive messages check this first so suppressed lines cost
    /// nothing.
    #[must_use]
    #[inline]
    pub fn enabled(&self, level: Level) -> bool {
        match self.min_level {
            None => true,
            Some(min) => level >= min,
        }
    }

    /// Append a line, evicting the oldest if full.
    pub fn push(&mut self, tsc: u64, level: Level, message: impl Into<String>) {
        if !self.enabled(level) {
            return;
        }
        if self.lines.len() == self.capacity {
            self.lines.pop_front();
        }
        self.lines.push_back(LogLine {
            tsc,
            level,
            message: message.into(),
        });
    }

    /// Append a lazily formatted line: the closure runs only when the
    /// level passes the threshold, so `format!` work for suppressed
    /// messages is skipped entirely.
    pub fn push_with<F: FnOnce() -> String>(&mut self, tsc: u64, level: Level, message: F) {
        if self.enabled(level) {
            self.push(tsc, level, message());
        }
    }

    /// All retained lines, oldest first.
    pub fn lines(&self) -> impl Iterator<Item = &LogLine> {
        self.lines.iter()
    }

    /// Lines whose message contains `needle` (the fuzzer's grep).
    pub fn grep<'a>(&'a self, needle: &'a str) -> impl Iterator<Item = &'a LogLine> {
        self.lines
            .iter()
            .filter(move |l| l.message.contains(needle))
    }

    /// Number of retained lines.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// Whether the ring is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// Drop all lines.
    pub fn clear(&mut self) {
        self.lines.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_grep() {
        let mut r = LogRing::new(10);
        r.push(1, Level::Info, "domain 1 created");
        r.push(2, Level::Err, "bad RIP for mode 0");
        assert_eq!(r.len(), 2);
        assert_eq!(r.grep("bad RIP").count(), 1);
        assert_eq!(r.grep("nothing").count(), 0);
    }

    #[test]
    fn ring_evicts_oldest() {
        let mut r = LogRing::new(3);
        for i in 0..5u64 {
            r.push(i, Level::Debug, format!("line {i}"));
        }
        assert_eq!(r.len(), 3);
        let first = r.lines().next().unwrap();
        assert_eq!(first.message, "line 2");
    }

    #[test]
    fn levels_order() {
        assert!(Level::Crit > Level::Err);
        assert!(Level::Err > Level::Warning);
    }

    #[test]
    fn min_level_drops_lines_and_skips_formatting() {
        let mut r = LogRing::new(10);
        r.set_min_level(Some(Level::Warning));
        assert!(!r.enabled(Level::Info));
        assert!(r.enabled(Level::Err));
        r.push(1, Level::Debug, "dropped");
        r.push(2, Level::Err, "kept");
        let mut formatted = false;
        r.push_with(3, Level::Info, || {
            formatted = true;
            "never built".to_owned()
        });
        assert!(!formatted, "suppressed messages must not be formatted");
        r.push_with(4, Level::Crit, || "built".to_owned());
        assert_eq!(r.len(), 2);
        assert_eq!(r.grep("kept").count(), 1);
        assert_eq!(r.grep("built").count(), 1);
        r.set_min_level(None);
        r.push(5, Level::Debug, "accepted again");
        assert_eq!(r.len(), 3);
    }
}
