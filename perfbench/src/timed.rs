//! A transparent timing wrapper at the `TargetFactory`/`FuzzTarget`
//! seam.
//!
//! Every trait method is forwarded, including the ones with defaults
//! (`forest`, `pin_state`, `reset_to`): relying on the defaults would
//! silently turn the snapshot forest off for the wrapped backend.
//! A reset is attributed to the crash kind of the submit before it —
//! `target.reset_hv` after a hypervisor crash (the target reboots),
//! `target.reset_vm` otherwise (a snapshot restore); a `reset_to` after
//! a hypervisor crash also reboots and is timed under `target.reset_hv`.

use crate::spans::{Sink, Span};
use iris_core::forest::{ForestConfig, StateId};
use iris_core::seed::VmSeed;
use iris_fuzzer::failure::FailureKind;
use iris_fuzzer::target::{BootPlan, FuzzTarget, SubmitOutcome, TargetFactory};
use std::sync::Arc;

/// Wraps a factory so every target it builds records spans into `sink`.
#[derive(Debug, Clone)]
pub struct TimedFactory<F> {
    inner: F,
    sink: Arc<Sink>,
}

impl<F> TimedFactory<F> {
    pub fn new(inner: F, sink: Arc<Sink>) -> Self {
        Self { inner, sink }
    }
}

impl<F: TargetFactory> TargetFactory for TimedFactory<F> {
    type Target<'t> = TimedTarget<F::Target<'t>>;

    fn build<'t>(&self, plan: BootPlan<'t>) -> Self::Target<'t> {
        TimedTarget {
            inner: self.inner.build(plan),
            run: self.sink.run(),
            sink: Arc::clone(&self.sink),
            spans: Vec::new(),
            last_hv_crash: false,
        }
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn description(&self) -> &'static str {
        self.inner.description()
    }

    fn forest(&self) -> Option<ForestConfig> {
        self.inner.forest()
    }
}

/// A target that times each call and hands its spans to the sink when
/// dropped (targets live for one chunk or one generation, so the sink's
/// lock is taken once per target, not once per call).
pub struct TimedTarget<T> {
    inner: T,
    run: u64,
    sink: Arc<Sink>,
    spans: Vec<Span>,
    last_hv_crash: bool,
}

impl<T> TimedTarget<T> {
    fn timed<R>(&mut self, name: &'static str, call: impl FnOnce(&mut T) -> R) -> R {
        let start_ns = self.sink.now_ns();
        let out = call(&mut self.inner);
        self.spans.push(Span {
            name,
            run: self.run,
            start_ns,
            end_ns: self.sink.now_ns(),
            bytes: 0,
        });
        out
    }

    fn marker(&mut self, name: &'static str) {
        let at = self.sink.now_ns();
        self.spans.push(Span {
            name,
            run: self.run,
            start_ns: at,
            end_ns: at,
            bytes: 0,
        });
    }

    fn reset_name(&self) -> &'static str {
        if self.last_hv_crash {
            "target.reset_hv"
        } else {
            "target.reset_vm"
        }
    }
}

impl<T> Drop for TimedTarget<T> {
    fn drop(&mut self) {
        self.sink.extend(&mut self.spans);
    }
}

impl<T: FuzzTarget> FuzzTarget for TimedTarget<T> {
    fn boot(&mut self) {
        self.timed("target.boot", T::boot);
        self.last_hv_crash = false;
    }

    fn submit(&mut self, seed: &VmSeed) -> SubmitOutcome {
        let out = self.timed("target.submit", |t| t.submit(seed));
        self.last_hv_crash = false;
        match out.crash.as_ref().map(|c| &c.kind) {
            Some(FailureKind::HypervisorCrash) => {
                self.last_hv_crash = true;
                self.marker("crash.hv");
            }
            Some(FailureKind::VmCrash) => self.marker("crash.vm"),
            None => {}
        }
        out
    }

    fn reset(&mut self) {
        let name = self.reset_name();
        self.timed(name, T::reset);
        self.last_hv_crash = false;
    }

    fn pin_state(&mut self) -> Option<StateId> {
        self.timed("target.pin", T::pin_state)
    }

    fn reset_to(&mut self, id: StateId) -> bool {
        // After a hypervisor crash the target reboots before restoring
        // the node; that call is timed as a reboot and counted as a
        // `reset_to` through a marker.
        let name = if self.last_hv_crash {
            self.marker("target.reset_to.rebooted");
            "target.reset_hv"
        } else {
            "target.reset_to"
        };
        let hit = self.timed(name, |t| t.reset_to(id));
        if !hit {
            self.marker("target.reset_to.miss");
        }
        self.last_hv_crash = false;
        hit
    }
}
