//! Per-bin observability session: span-trace export.
//!
//! Every harness binary brackets its work in an [`ObsSession`]:
//!
//! ```no_run
//! # let args = bench_suite::Args::default();
//! let obs = bench_suite::obs::ObsSession::start(&args);
//! // ... run the benchmark ...
//! obs.finish();
//! ```
//!
//! `finish` drains the telemetry span buffers and writes a Chrome
//! trace-event file when `--trace-out PATH` was given. It is a silent
//! no-op when the `telemetry` feature is off — in particular, **no trace
//! file is created** on a feature-off build, so a missing file is always
//! distinguishable from an empty timeline.

use crate::Args;

/// One binary run's observability scope: the trace file named by the
/// shared `--trace-out` flag (see module docs).
pub struct ObsSession {
    trace_out: Option<String>,
}

impl ObsSession {
    /// Opens the session. With telemetry off tracing is disabled (with a
    /// notice when the flag asked for it).
    pub fn start(args: &Args) -> ObsSession {
        if !telemetry::ENABLED && args.trace_out.is_some() {
            eprintln!(
                "note: --trace-out needs the `telemetry` feature; \
                 rebuild with --features telemetry (no file will be written)"
            );
        }
        ObsSession {
            trace_out: args.trace_out.clone().filter(|_| telemetry::ENABLED),
        }
    }

    /// Drains every thread's spans and writes the Chrome trace to
    /// `--trace-out`.
    pub fn finish(self) {
        if let Some(path) = &self.trace_out {
            let records = telemetry::spans::drain_all();
            let dropped = telemetry::spans::dropped();
            telemetry::trace_export::write_chrome_trace(std::path::Path::new(path), &records)
                .unwrap_or_else(|e| panic!("write {path}: {e}"));
            print!("wrote {path} ({} spans", records.len());
            if dropped > 0 {
                print!(", {dropped} dropped by ring wrap — trace is a truncated window");
            }
            println!(")");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_without_flags_is_inert() {
        ObsSession::start(&Args::default()).finish(); // must not write any file or panic
    }

    fn session_tracing_to(file: &str) -> (ObsSession, std::path::PathBuf) {
        let dir = std::env::temp_dir().join("bench_suite_obs_test");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join(file);
        let _ = std::fs::remove_file(&path);
        let args = Args {
            trace_out: path.to_str().map(str::to_string),
            ..Args::default()
        };
        (ObsSession::start(&args), path)
    }

    #[test]
    fn feature_off_session_never_writes_a_trace() {
        if telemetry::ENABLED {
            return;
        }
        let (obs, path) = session_tracing_to("should_not_exist.json");
        obs.finish();
        assert!(
            !path.exists(),
            "feature-off build must not create trace files"
        );
    }

    #[test]
    fn feature_on_session_writes_the_spans_it_drained() {
        if !telemetry::ENABLED {
            return;
        }
        let (obs, path) = session_tracing_to("trace.json");
        drop(telemetry::span("obs.unit", 0));
        obs.finish();
        let doc = std::fs::read_to_string(&path).expect("trace written");
        assert!(doc.contains("traceEvents") && doc.contains("obs.unit"));
        let _ = std::fs::remove_file(&path);
    }
}
