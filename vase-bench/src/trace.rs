//! In-memory span recorder, written at exit as Chrome trace-event JSON.
//!
//! Spans are taken from the benchmark's side of each layer boundary: a
//! span wraps one call into a layer's public function. Nothing here
//! runs inside the program under test, and a disabled recorder records
//! nothing and reads no clock.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::{Duration, Instant};

use vase::diag::json::Json;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `frontend.parse`.
    pub name: &'static str,
    /// The workload unit (or serve request id) the span belongs to.
    pub unit: u64,
    /// Display lane: serve requests in flight overlap, so each in-flight
    /// slot gets its own lane.
    pub lane: u32,
    /// Offset of the start from the recorder's origin.
    pub start: Duration,
    /// Offset of the end from the recorder's origin.
    pub end: Duration,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

/// Per-name totals of the recorded spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotal {
    /// Spans recorded under the name.
    pub count: u64,
    /// Sum of span durations minus the parts their child spans cover.
    pub self_time: Duration,
}

/// The span recorder plus the counters taken at the same boundaries.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counters: BTreeMap<&'static str, f64>,
}

impl Tracer {
    /// A recorder; when `on` is false every call is a no-op.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counters: BTreeMap::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Run `f` under a span nested in the innermost open span.
    pub fn span<T>(&mut self, name: &'static str, unit: u64, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let index = self.open_span(name, unit);
        let out = f();
        self.close_span(index);
        out
    }

    /// Open a span that encloses the spans recorded until
    /// [`Tracer::close_span`].
    pub fn open_span(&mut self, name: &'static str, unit: u64) -> usize {
        if !self.on {
            return usize::MAX;
        }
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            unit,
            lane: 0,
            start: now,
            end: now,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Close a span opened with [`Tracer::open_span`].
    pub fn close_span(&mut self, index: usize) {
        if !self.on {
            return;
        }
        self.spans[index].end = self.origin.elapsed();
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(index), "spans must close innermost first");
    }

    /// Record an interval measured elsewhere (serve requests, whose
    /// inner phases are rebuilt from the response's own timings).
    /// Returns the span's index for use as a parent.
    pub fn record(
        &mut self,
        name: &'static str,
        unit: u64,
        lane: u32,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        let offset = |t: Instant| t.saturating_duration_since(self.origin);
        self.spans.push(Span {
            name,
            unit,
            lane,
            start: offset(start),
            end: offset(end),
            parent,
        });
        Some(self.spans.len() - 1)
    }

    /// Add `by` to a named counter (recorded only when tracing).
    pub fn count(&mut self, name: &'static str, by: f64) {
        if self.on {
            *self.counters.entry(name).or_insert(0.0) += by;
        }
    }

    /// A counter's value (0 when never incremented).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// All recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_times(&self) -> Vec<Duration> {
        let mut own: Vec<Duration> = self
            .spans
            .iter()
            .map(|s| s.end.saturating_sub(s.start))
            .collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end.saturating_sub(s.start));
            }
        }
        own
    }

    /// Count and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, LayerTotal> {
        let mut totals: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            let t = totals.entry(s.name).or_default();
            t.count += 1;
            t.self_time += own;
        }
        totals
    }

    /// Write the spans as a Chrome trace-event document (loadable in
    /// Perfetto or `chrome://tracing`) with the per-layer summary and
    /// `extra` appended under `summary`. Events are streamed: a traced
    /// run can hold hundreds of thousands of spans.
    pub fn write_chrome(
        &self,
        path: &Path,
        extra: Vec<(&'static str, Json)>,
    ) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(File::create(path)?);
        out.write_all(b"{\"traceEvents\":[")?;
        let us = |d: Duration| d.as_secs_f64() * 1e6;
        for (i, s) in self.spans.iter().enumerate() {
            // Span names are static identifiers: no JSON escaping needed.
            let category = s.name.split('.').next().unwrap_or(s.name);
            write!(
                out,
                "{}{{\"name\":\"{}\",\"cat\":\"{category}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{},\"args\":{{\"unit\":{},\"index\":{i}",
                if i == 0 { "" } else { "," },
                s.name,
                us(s.start),
                us(s.end.saturating_sub(s.start)),
                s.lane + 1,
                s.unit,
            )?;
            if let Some(p) = s.parent {
                write!(out, ",\"parent\":{p}")?;
            }
            out.write_all(b"}}")?;
        }
        let layers = self
            .totals()
            .into_iter()
            .map(|(name, t)| {
                (
                    name.to_owned(),
                    Json::obj([
                        ("count", Json::Int(i128::from(t.count))),
                        ("self_ms", Json::Num(t.self_time.as_secs_f64() * 1e3)),
                    ]),
                )
            })
            .collect();
        let counters = self
            .counters
            .iter()
            .map(|(k, v)| ((*k).to_owned(), Json::Num(*v)))
            .collect();
        let mut summary = vec![
            ("layers", Json::Obj(layers)),
            ("counters", Json::Obj(counters)),
        ];
        summary.extend(extra);
        write!(
            out,
            "],\"displayTimeUnit\":\"ms\",\"summary\":{}}}",
            Json::obj(summary).to_line()
        )?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_off_records_nothing() {
        let mut tr = Tracer::new(true);
        let outer = tr.open_span("core.unit", 7);
        tr.span("frontend.parse", 7, || {
            std::thread::sleep(Duration::from_millis(2))
        });
        tr.close_span(outer);
        let own = tr.self_times();
        assert_eq!(tr.spans()[1].parent, Some(0));
        assert!(own[1] >= Duration::from_millis(2));
        assert!(own[0] < own[1], "parent self time excludes the child");
        assert_eq!(tr.totals()["frontend.parse"].count, 1);

        let path =
            std::env::temp_dir().join(format!("vase-bench-trace-{}.json", std::process::id()));
        tr.write_chrome(&path, vec![("workload", Json::str("test"))])
            .expect("written");
        let doc =
            Json::parse(&std::fs::read_to_string(&path).expect("read back")).expect("valid JSON");
        let _ = std::fs::remove_file(&path);
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("events");
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[1]
                .get("args")
                .and_then(|a| a.get("parent"))
                .and_then(Json::as_int),
            Some(0)
        );
        assert!(doc.get("summary").and_then(|s| s.get("layers")).is_some());

        let mut off = Tracer::new(false);
        assert_eq!(off.span("frontend.parse", 1, || 3), 3);
        off.count("x", 1.0);
        assert!(off.spans().is_empty());
        assert_eq!(off.counter("x"), 0.0);
    }
}
