//! Harness-side spans: name, start, end and the span that caused it, kept
//! in memory and written out as Chrome trace-event JSON when a traced run
//! ends. The spans wrap calls into the layers' public APIs; nothing inside
//! the program is instrumented.

use crate::json::escape;
use std::time::Instant;

struct Span {
    name: String,
    start_us: f64,
    end_us: f64,
    parent: Option<usize>,
}

/// An in-memory span recorder for one run.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Runs `f` inside a span named `name`, a child of the span open at
    /// the call. Returns what `f` returned and the span's length in seconds.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let id = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            name: name.to_string(),
            start_us,
            end_us: start_us,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end_us = self.now_us();
        self.spans[id].end_us = end_us;
        (out, (end_us - start_us) / 1e6)
    }

    /// Seconds spent in all spans named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_us - s.start_us)
            .sum::<f64>()
            / 1e6
    }

    /// The trace as Chrome trace-event JSON (complete events; `args` holds
    /// the end, the parent's id, and the self time: the span minus the part
    /// of it its children cover).
    pub fn to_chrome_json(&self) -> String {
        let mut child_us = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.end_us - s.start_us;
            }
        }
        let events: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let dur = s.end_us - s.start_us;
                format!(
                    "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \"dur\": {:.3}, \
                     \"args\": {{\"id\": {}, \"parent\": {}, \"end\": {:.3}, \"self_us\": {:.3}}}}}",
                    escape(&s.name),
                    s.start_us,
                    dur,
                    id,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.end_us,
                    dur - child_us[id],
                )
            })
            .collect();
        format!(
            "{{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n{}\n]}}\n",
            events.join(",\n")
        )
    }
}
