//! # trace_export — Chrome trace-event rendering for span records
//!
//! Converts drained [`SpanRecord`]s into the
//! Chrome trace-event JSON format, loadable in Perfetto
//! (<https://ui.perfetto.dev>) or `chrome://tracing`. The export is a pure
//! function of the records, so it compiles in both feature modes (a
//! disabled build just never has records to export).
//!
//! # Format
//!
//! The document is `{"traceEvents": [...], "displayTimeUnit": "ns"}`.
//! Every span becomes a `B` (begin) and matching `E` (end) duration event
//! with microsecond `ts` values; `pid` is constant 1, `tid` is the
//! span's dense thread id, and the span operand rides in
//! `args.arg`. Within one `tid` the events are emitted stack-ordered
//! (every `B` has its `E`, properly nested, with non-decreasing `ts`) —
//! this module's tests check exactly these properties.
//!
//! RAII spans on one thread nest by construction (an inner span is
//! dropped before the guard that encloses it), so the per-thread records
//! form a forest of intervals; the writer walks that forest pre-order
//! with an explicit stack to serialize it.

use crate::spans::SpanRecord;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// Escapes a label for a JSON string literal. Labels are `&'static str`
/// identifiers, but the writer still guards the JSON-breaking characters.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Microsecond timestamp with nanosecond fraction, as Chrome expects.
fn ts_us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

fn push_event(out: &mut String, ph: char, label: &str, ts_ns: u64, tid: u64, arg: Option<u64>) {
    if !out.ends_with('[') {
        out.push(',');
    }
    let _ = write!(
        out,
        "\n    {{\"name\": \"{}\", \"ph\": \"{}\", \"ts\": {}, \"pid\": 1, \"tid\": {}",
        escape(label),
        ph,
        ts_us(ts_ns),
        tid
    );
    if let Some(a) = arg {
        let _ = write!(out, ", \"args\": {{\"arg\": {a}}}");
    }
    out.push('}');
}

/// Renders `records` as a Chrome trace-event JSON document.
///
/// Records are grouped per thread and sorted pre-order (begin ascending,
/// end descending), then serialized as properly nested `B`/`E` pairs via
/// an explicit span stack. Records from different threads never nest
/// into each other — trace viewers give each `tid` its own track.
pub fn chrome_trace_json(records: &[SpanRecord]) -> String {
    let mut sorted: Vec<&SpanRecord> = records.iter().collect();
    // Per-thread pre-order: outer spans (earlier begin, later end) first.
    sorted.sort_by(|a, b| {
        (a.tid, a.begin_ns, std::cmp::Reverse(a.end_ns)).cmp(&(
            b.tid,
            b.begin_ns,
            std::cmp::Reverse(b.end_ns),
        ))
    });

    let mut out = String::from("{\n  \"displayTimeUnit\": \"ns\",\n  \"traceEvents\": [");
    let mut stack: Vec<&SpanRecord> = Vec::new();
    let mut cur_tid = u64::MAX;
    let flush = |out: &mut String, stack: &mut Vec<&SpanRecord>| {
        while let Some(open) = stack.pop() {
            push_event(out, 'E', open.label, open.end_ns, open.tid, None);
        }
    };
    for rec in sorted {
        if rec.tid != cur_tid {
            flush(&mut out, &mut stack);
            cur_tid = rec.tid;
        }
        // Close every open span that does not contain this one. Same-thread
        // RAII spans either nest or are disjoint, so "not containing" means
        // the open span ended at or before this begin.
        while let Some(open) = stack.last() {
            if rec.begin_ns >= open.begin_ns && rec.end_ns <= open.end_ns {
                break;
            }
            push_event(&mut out, 'E', open.label, open.end_ns, open.tid, None);
            stack.pop();
        }
        push_event(
            &mut out,
            'B',
            rec.label,
            rec.begin_ns,
            rec.tid,
            Some(rec.arg),
        );
        stack.push(rec);
    }
    flush(&mut out, &mut stack);
    out.push_str("\n  ]\n}\n");
    out
}

/// Writes `records` to `path` as Chrome trace-event JSON (see
/// [`chrome_trace_json`]).
pub fn write_chrome_trace(path: &Path, records: &[SpanRecord]) -> io::Result<()> {
    std::fs::write(path, chrome_trace_json(records))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(label: &'static str, begin: u64, end: u64, tid: u64) -> SpanRecord {
        SpanRecord {
            label,
            arg: 7,
            begin_ns: begin,
            end_ns: end,
            tid,
        }
    }

    /// Per-tid monotone timestamps and balanced, label-matched B/E
    /// nesting; returns the number of events.
    fn check_nesting(doc: &str) -> usize {
        let mut stacks: std::collections::HashMap<u64, Vec<String>> = Default::default();
        let mut last_ts: std::collections::HashMap<u64, f64> = Default::default();
        let mut events = 0;
        for line in doc
            .lines()
            .filter(|l| l.trim_start().starts_with("{\"name\""))
        {
            let grab = |key: &str| {
                let at = line.find(&format!("\"{key}\": ")).unwrap() + key.len() + 4;
                line[at..]
                    .split([',', '}'])
                    .next()
                    .unwrap()
                    .trim()
                    .trim_matches('"')
                    .to_string()
            };
            let (name, ph) = (grab("name"), grab("ph"));
            let ts: f64 = grab("ts").parse().unwrap();
            let tid: u64 = grab("tid").parse().unwrap();
            let prev = last_ts.insert(tid, ts).unwrap_or(0.0);
            assert!(ts >= prev, "tid {tid} time went backwards: {prev} -> {ts}");
            let stack = stacks.entry(tid).or_default();
            match ph.as_str() {
                "B" => stack.push(name),
                "E" => assert_eq!(stack.pop().as_deref(), Some(name.as_str())),
                other => panic!("unexpected ph {other}"),
            }
            events += 1;
        }
        assert!(stacks.values().all(|s| s.is_empty()), "unclosed B events");
        events
    }

    #[test]
    fn empty_records_render_valid_document() {
        let doc = chrome_trace_json(&[]);
        assert!(doc.contains("\"traceEvents\": ["));
        assert_eq!(check_nesting(&doc), 0);
    }

    #[test]
    fn nested_and_sibling_spans_emit_balanced_pairs() {
        // Thread 1: outer [0, 100] containing [10, 20] and [20, 90],
        // which itself contains [30, 40]. Thread 2: one disjoint span.
        let records = vec![
            rec("inner.b", 20, 90, 1),
            rec("outer", 0, 100, 1),
            rec("inner.a", 10, 20, 1),
            rec("leaf", 30, 40, 1),
            rec("other", 5, 50, 2),
        ];
        let doc = chrome_trace_json(&records);
        assert_eq!(check_nesting(&doc), 10, "5 spans -> 5 B + 5 E");
        assert!(doc.contains("\"args\": {\"arg\": 7}"));
        // Pre-order: outer's B comes before inner.a's B.
        assert!(doc.find("outer").unwrap() < doc.find("inner.a").unwrap());
    }

    #[test]
    fn zero_length_and_identical_spans_stay_balanced() {
        let records = vec![
            rec("a", 50, 50, 3),
            rec("a", 50, 50, 3),
            rec("b", 50, 60, 3),
        ];
        let doc = chrome_trace_json(&records);
        assert_eq!(check_nesting(&doc), 6);
    }

    #[test]
    fn timestamps_are_microseconds_with_nanos_fraction() {
        assert_eq!(ts_us(0), "0.000");
        assert_eq!(ts_us(1_234), "1.234");
        assert_eq!(ts_us(1_000_007), "1000.007");
    }
}
