//! Deterministic tracing: nested per-stage spans plus point events.
//!
//! A [`Tracer`] records a tree of spans on the driver thread.
//! Each span carries a name, optional string attributes and a
//! wall-clock duration. Worker threads never open spans — parallel
//! shards contribute only commutative metrics — so span ids, nesting
//! and order are a pure function of `(scenario, seed)`.
//!
//! Two renderings exist:
//!
//! * [`Tracer::to_jsonl`] — the full log (one JSON object per line,
//!   spans and events interleaved in record order) **including**
//!   `wall_ns`. This is what `--trace <path>` writes; wall times make
//!   consecutive runs differ, by design.
//! * [`Tracer::deterministic_view`] — an indented span tree with
//!   attributes but **no wall times**. This view is bit-identical at
//!   any worker count and is what determinism tests snapshot.

#![allow(
    clippy::disallowed_types,
    reason = "spans carry wall-clock durations by design; the deterministic view leaves them out"
)]

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded trace entry: a completed span or a point event.
#[derive(Debug, Clone)]
enum Entry {
    Span {
        id: u64,
        parent: Option<u64>,
        depth: usize,
        name: String,
        attrs: Vec<(String, String)>,
        wall_nanos: u128,
        /// Position in the record stream at which the span *opened* —
        /// used to render the tree in execution order.
        opened_at: u64,
    },
    Event {
        parent: Option<u64>,
        name: String,
        attrs: Vec<(String, String)>,
        opened_at: u64,
    },
}

#[derive(Debug, Default)]
struct TracerInner {
    entries: Vec<Entry>,
    /// Stack of open span ids (driver thread only).
    stack: Vec<u64>,
    next_id: u64,
    next_seq: u64,
}

/// A deterministic span/event recorder. Disabled tracers
/// ([`Tracer::off`]) make every operation a no-op.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    inner: Mutex<TracerInner>,
}

impl Tracer {
    /// A disabled tracer: every operation is a no-op.
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            inner: Mutex::new(TracerInner::default()),
        }
    }

    /// An enabled tracer.
    pub fn on() -> Tracer {
        Tracer {
            on: true,
            inner: Mutex::new(TracerInner::default()),
        }
    }

    /// Whether recording is enabled.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, TracerInner> {
        // Spans only record on the driver thread; a poisoned lock can
        // only come from a panicking span guard mid-drop, and the span
        // tree is still structurally sound — recover it.
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Opens a span named `name`, nested under the currently open span
    /// (if any). The span records on drop of the returned guard. Only
    /// call from the driver thread — nesting is tracked by a stack.
    pub fn span(&self, name: &str) -> SpanGuard<'_> {
        if !self.on {
            return SpanGuard {
                tracer: self,
                state: None,
            };
        }
        let mut inner = self.lock();
        let id = inner.next_id;
        inner.next_id += 1;
        let seq = inner.next_seq;
        inner.next_seq += 1;
        let parent = inner.stack.last().copied();
        let depth = inner.stack.len();
        inner.stack.push(id);
        SpanGuard {
            tracer: self,
            state: Some(SpanState {
                id,
                parent,
                depth,
                name: name.to_string(),
                attrs: Vec::new(),
                started: Instant::now(),
                opened_at: seq,
            }),
        }
    }

    /// Records a point event under the currently open span.
    /// Attributes are `(key, value)` string pairs.
    pub fn event(&self, name: &str, attrs: &[(&str, &str)]) {
        if !self.on {
            return;
        }
        let mut inner = self.lock();
        let parent = inner.stack.last().copied();
        let seq = inner.next_seq;
        inner.next_seq += 1;
        inner.entries.push(Entry::Event {
            parent,
            name: name.to_string(),
            attrs: attrs
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            opened_at: seq,
        });
    }

    fn close_span(&self, state: SpanState) {
        let wall_nanos = state.started.elapsed().as_nanos();
        let mut inner = self.lock();
        debug_assert_eq!(
            inner.stack.last(),
            Some(&state.id),
            "span drop out of order"
        );
        inner.stack.retain(|&id| id != state.id);
        inner.entries.push(Entry::Span {
            id: state.id,
            parent: state.parent,
            depth: state.depth,
            name: state.name,
            attrs: state.attrs,
            wall_nanos,
            opened_at: state.opened_at,
        });
    }

    /// The full trace as JSON lines, in record-stream order, including
    /// wall-clock nanoseconds. Not deterministic across runs.
    pub fn to_jsonl(&self) -> String {
        let inner = self.lock();
        let mut ordered: Vec<&Entry> = inner.entries.iter().collect();
        ordered.sort_by_key(|e| match e {
            Entry::Span { opened_at, .. } | Entry::Event { opened_at, .. } => *opened_at,
        });
        let mut out = String::new();
        for entry in ordered {
            match entry {
                Entry::Span {
                    id,
                    parent,
                    name,
                    attrs,
                    wall_nanos,
                    ..
                } => {
                    let _ = write!(out, "{{\"kind\":\"span\",\"id\":{id},\"parent\":");
                    match parent {
                        Some(p) => {
                            let _ = write!(out, "{p}");
                        }
                        None => out.push_str("null"),
                    }
                    let _ = write!(out, ",\"name\":{}", json_string(name));
                    write_attrs(&mut out, attrs);
                    let _ = writeln!(out, ",\"wall_ns\":{wall_nanos}}}");
                }
                Entry::Event {
                    parent,
                    name,
                    attrs,
                    ..
                } => {
                    out.push_str("{\"kind\":\"event\",\"parent\":");
                    match parent {
                        Some(p) => {
                            let _ = write!(out, "{p}");
                        }
                        None => out.push_str("null"),
                    }
                    let _ = write!(out, ",\"name\":{}", json_string(name));
                    write_attrs(&mut out, attrs);
                    out.push_str("}\n");
                }
            }
        }
        out
    }

    /// The deterministic view: the span/event tree in execution order,
    /// with attributes but no wall times. Bit-identical at any worker
    /// count.
    pub fn deterministic_view(&self) -> String {
        let inner = self.lock();
        let mut ordered: Vec<&Entry> = inner.entries.iter().collect();
        ordered.sort_by_key(|e| match e {
            Entry::Span { opened_at, .. } | Entry::Event { opened_at, .. } => *opened_at,
        });
        // Events don't carry a depth; derive it from their parent span.
        let depth_of = |parent: Option<u64>| -> usize {
            match parent {
                None => 0,
                Some(pid) => inner
                    .entries
                    .iter()
                    .find_map(|e| match e {
                        Entry::Span { id, depth, .. } if *id == pid => Some(depth + 1),
                        _ => None,
                    })
                    .unwrap_or(0),
            }
        };
        let mut out = String::new();
        for entry in ordered {
            match entry {
                Entry::Span {
                    depth, name, attrs, ..
                } => {
                    let _ = write!(out, "{:indent$}span {name}", "", indent = depth * 2);
                    for (k, v) in attrs {
                        let _ = write!(out, " {k}={v}");
                    }
                    out.push('\n');
                }
                Entry::Event {
                    parent,
                    name,
                    attrs,
                    ..
                } => {
                    let d = depth_of(*parent);
                    let _ = write!(out, "{:indent$}event {name}", "", indent = d * 2);
                    for (k, v) in attrs {
                        let _ = write!(out, " {k}={v}");
                    }
                    out.push('\n');
                }
            }
        }
        out
    }

    /// Completed spans as `(name, depth, wall_secs, self_secs)` in
    /// execution order. Self time is the span's wall time minus the
    /// wall time of its direct children.
    pub fn span_timings(&self) -> Vec<SpanTiming> {
        let inner = self.lock();
        let mut spans: Vec<(&Entry, u128)> = Vec::new();
        for entry in &inner.entries {
            if let Entry::Span { id, .. } = entry {
                let child_nanos: u128 = inner
                    .entries
                    .iter()
                    .filter_map(|e| match e {
                        Entry::Span {
                            parent: Some(p),
                            wall_nanos,
                            ..
                        } if p == id => Some(*wall_nanos),
                        _ => None,
                    })
                    .sum();
                spans.push((entry, child_nanos));
            }
        }
        spans.sort_by_key(|(e, _)| match e {
            Entry::Span { opened_at, .. } | Entry::Event { opened_at, .. } => *opened_at,
        });
        spans
            .into_iter()
            .filter_map(|(e, child_nanos)| match e {
                Entry::Span {
                    name,
                    depth,
                    wall_nanos,
                    ..
                } => Some(SpanTiming {
                    name: name.clone(),
                    depth: *depth,
                    wall_secs: *wall_nanos as f64 / 1e9,
                    self_secs: wall_nanos.saturating_sub(child_nanos) as f64 / 1e9,
                }),
                _ => None,
            })
            .collect()
    }
}

/// One completed span's timing, for the `taster profile` tree.
#[derive(Debug, Clone)]
pub struct SpanTiming {
    /// Span name.
    pub name: String,
    /// Nesting depth (0 = root).
    pub depth: usize,
    /// Total wall time in seconds.
    pub wall_secs: f64,
    /// Wall time minus direct children's wall time.
    pub self_secs: f64,
}

#[derive(Debug)]
struct SpanState {
    id: u64,
    parent: Option<u64>,
    depth: usize,
    name: String,
    attrs: Vec<(String, String)>,
    started: Instant,
    opened_at: u64,
}

/// RAII guard for an open span; records the span on drop.
#[derive(Debug)]
pub struct SpanGuard<'t> {
    tracer: &'t Tracer,
    state: Option<SpanState>,
}

impl SpanGuard<'_> {
    /// Attaches an integer attribute to the span.
    pub fn attr_u64(&mut self, key: &str, value: u64) {
        if let Some(s) = self.state.as_mut() {
            s.attrs.push((key.to_string(), value.to_string()));
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(state) = self.state.take() {
            self.tracer.close_span(state);
        }
    }
}

fn write_attrs(out: &mut String, attrs: &[(String, String)]) {
    if attrs.is_empty() {
        return;
    }
    out.push_str(",\"attrs\":{");
    for (i, (k, v)) in attrs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}:{}", json_string(k), json_string(v));
    }
    out.push('}');
}

/// Minimal JSON string escaping (quotes, backslash, control chars).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_render_in_execution_order() {
        let t = Tracer::on();
        {
            let mut outer = t.span("pipeline");
            outer.attr_u64("seed", 7);
            {
                let mut inner = t.span("collect");
                inner.attr_u64("events", 42);
                t.event("gap", &[("feed", "Hu")]);
            }
            let _classify = t.span("classify");
        }
        let view = t.deterministic_view();
        let expected = [
            "span pipeline seed=7",
            "  span collect events=42",
            "    event gap feed=Hu",
            "  span classify",
            "",
        ]
        .join("\n");
        assert_eq!(view, expected);
    }

    #[test]
    fn deterministic_view_has_no_wall_times() {
        let t = Tracer::on();
        {
            let _s = t.span("stage");
        }
        let view = t.deterministic_view();
        assert!(!view.contains("wall"), "wall time leaked: {view}");
        assert!(
            t.to_jsonl().contains("\"wall_ns\":"),
            "jsonl keeps wall time"
        );
    }

    #[test]
    fn off_tracer_records_nothing() {
        let t = Tracer::off();
        {
            let mut s = t.span("x");
            s.attr_u64("a", 1);
            t.event("e", &[]);
        }
        assert!(t.deterministic_view().is_empty());
        assert!(t.to_jsonl().is_empty());
        assert!(t.span_timings().is_empty());
    }

    #[test]
    fn jsonl_escapes_strings() {
        let t = Tracer::on();
        t.event("quote\"and\\slash", &[("k\n", "v\t")]);
        let line = t.to_jsonl();
        assert!(line.contains("quote\\\"and\\\\slash"));
        assert!(line.contains("\"k\\n\":\"v\\t\""));
    }

    #[test]
    fn self_time_excludes_children() {
        let t = Tracer::on();
        {
            let _outer = t.span("outer");
            {
                let _inner = t.span("inner");
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
        }
        let timings = t.span_timings();
        assert_eq!(timings.len(), 2);
        let outer = timings
            .iter()
            .find(|s| s.name == "outer")
            .expect("outer span recorded");
        let inner = timings
            .iter()
            .find(|s| s.name == "inner")
            .expect("inner span recorded");
        assert!(outer.wall_secs >= inner.wall_secs);
        assert!(outer.self_secs <= outer.wall_secs - inner.wall_secs + 1e-9);
    }
}
