//! The observability handle threaded through the pipeline.
//!
//! [`Obs`] bundles a [`MetricsRegistry`] and a [`Tracer`] so every
//! instrumentation seam takes exactly one `&Obs` parameter.
//! [`Obs::off`] disables both — the default for every pre-existing
//! entry point, which is what keeps unobserved report bytes identical
//! to the uninstrumented binary.

use crate::metrics::{MetricsRegistry, Stage};
use crate::trace::{SpanGuard, Tracer};

/// Metrics + tracing for one observed run.
#[derive(Debug)]
pub struct Obs {
    /// Counter/histogram sink (deterministic render).
    pub metrics: MetricsRegistry,
    /// Span/event recorder (deterministic view + JSONL).
    pub trace: Tracer,
}

impl Obs {
    /// Both subsystems disabled; all instrumentation is a no-op.
    pub fn off() -> Obs {
        Obs {
            metrics: MetricsRegistry::off(),
            trace: Tracer::off(),
        }
    }

    /// Both subsystems enabled.
    pub fn on() -> Obs {
        Obs {
            metrics: MetricsRegistry::on(),
            trace: Tracer::on(),
        }
    }

    /// Enables each subsystem independently (`--metrics` without
    /// `--trace` and vice versa).
    pub fn with(metrics: bool, trace: bool) -> Obs {
        Obs {
            metrics: if metrics {
                MetricsRegistry::on()
            } else {
                MetricsRegistry::off()
            },
            trace: if trace { Tracer::on() } else { Tracer::off() },
        }
    }

    /// True when either subsystem records anything.
    pub fn is_on(&self) -> bool {
        self.metrics.is_on() || self.trace.is_on()
    }

    /// Opens a trace span (no-op guard when tracing is off).
    pub fn span(&self, name: &str) -> SpanGuard<'_> {
        self.trace.span(name)
    }

    /// Runs `f` under a top-level span named after `stage`. The span's
    /// wall time is the stage's time: the `taster profile` tree prints
    /// it and `BENCH_pipeline.json` stores it, so the two can never
    /// disagree. With tracing off this is `f()`, untimed.
    pub fn stage<T>(&self, stage: Stage, f: impl FnOnce() -> T) -> T {
        let _span = self.trace.span(stage.name());
        f()
    }
}

impl Default for Obs {
    fn default() -> Obs {
        Obs::off()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_opens_a_top_level_span() {
        let obs = Obs::on();
        let v = obs.stage(Stage::Collect, || 7);
        assert_eq!(v, 7);
        let spans = obs.trace.span_timings();
        assert_eq!(spans.len(), 1);
        assert_eq!((spans[0].name.as_str(), spans[0].depth), ("collect", 0));
        assert!(obs.trace.deterministic_view().contains("span collect"));
    }

    #[test]
    fn off_is_fully_silent() {
        let obs = Obs::off();
        let v = obs.stage(Stage::Collect, || 7);
        assert_eq!(v, 7);
        assert!(!obs.is_on());
        assert!(obs.metrics.render().is_empty());
        assert!(obs.trace.deterministic_view().is_empty());
    }

    #[test]
    fn with_enables_independently() {
        let m = Obs::with(true, false);
        assert!(m.metrics.is_on() && !m.trace.is_on() && m.is_on());
        let t = Obs::with(false, true);
        assert!(!t.metrics.is_on() && t.trace.is_on() && t.is_on());
    }
}
