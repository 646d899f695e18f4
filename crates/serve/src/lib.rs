//! # vase-serve
//!
//! Fault-tolerant service substrate for `vase serve`: a long-lived
//! daemon loop that reads newline-delimited JSON requests, schedules
//! them across a fixed worker pool, and degrades *per request* rather
//! than per process.
//!
//! The crate is deliberately flow-agnostic — it knows about requests,
//! deadlines, queues, and panics, but not about VHDL-AMS. The `vase`
//! core crate plugs the synthesis flow in through [`JobHandler`]; the
//! tests here drive the substrate with toy handlers, which is exactly
//! how the soak harness (`vase-fuzz --soak`) drives the real one.
//!
//! Resilience contract (DESIGN.md §14):
//!
//! * a panicking job degrades one response to `panicked` — the pool
//!   keeps serving (`catch_unwind` isolation);
//! * a job past its `deadline_ms` is cancelled cooperatively and
//!   answers `deadline-exceeded` with diagnostic `A220` plus whatever
//!   best-so-far results the handler salvaged;
//! * requests beyond `--queue-depth` are shed immediately as
//!   `overloaded` with diagnostic `A221` and a retry-after hint;
//! * a malformed line answers `malformed` without touching the pool,
//!   and a line longer than [`MAX_LINE_BYTES`] is skipped unbuffered;
//! * warm state is snapshotted crash-safely (write-temp-then-rename)
//!   on a cadence and at shutdown.
//!
//! # Examples
//!
//! ```
//! use vase_serve::{serve, JobHandler, JobOutput, Request, ServerConfig};
//! use vase_budget::CancelToken;
//!
//! struct Echo;
//! impl JobHandler for Echo {
//!     fn handle(&self, req: &Request, _: &CancelToken, _: Option<u64>) -> JobOutput {
//!         let mut out = JobOutput::ok();
//!         out.designs.push(vase_diag::json::Json::str(format!("{}", req.op)));
//!         out
//!     }
//! }
//!
//! let input = b"{\"id\": 1, \"op\": \"synth\", \"source\": \"\"}\n" as &[u8];
//! let mut output = Vec::new();
//! let stats = serve(input, &mut output, &Echo, ServerConfig::default()).unwrap();
//! assert_eq!(stats.responses, 1);
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod inject;
pub mod proto;
pub mod server;

pub use inject::{Fault, FaultPlan};
pub use proto::{exit_for_status, Op, Request, RequestError, Response};
pub use server::{
    serve, JobHandler, JobOutput, ServeError, ServeStats, ServerConfig, MAX_LINE_BYTES,
};

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    use vase_budget::CancelToken;
    use vase_diag::json::Json;

    use super::*;

    /// A toy handler whose behavior is scripted by the request's
    /// `source` field — the same way the soak harness stresses the
    /// real flow handler.
    #[derive(Default)]
    struct Scripted {
        snapshots: AtomicU64,
        handled: AtomicU64,
    }

    impl JobHandler for Scripted {
        fn handle(&self, req: &Request, token: &CancelToken, _: Option<u64>) -> JobOutput {
            self.handled.fetch_add(1, Ordering::Relaxed);
            match req.source.as_deref() {
                Some("panic") => panic!("scripted handler panic"),
                Some("spin") => {
                    // Cooperative long-running job: salvages a partial
                    // result when the watchdog trips the token.
                    for _ in 0..5_000 {
                        if token.is_cancelled() {
                            let mut out = JobOutput::ok();
                            out.designs.push(Json::str("best-so-far"));
                            return out;
                        }
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    JobOutput::ok()
                }
                Some("sleep") => {
                    std::thread::sleep(Duration::from_millis(25));
                    JobOutput::ok()
                }
                Some("fail") => JobOutput::error("scripted failure"),
                _ => JobOutput::ok(),
            }
        }

        fn snapshot(&self) {
            self.snapshots.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn run(input: impl AsRef<[u8]>, config: ServerConfig) -> (ServeStats, Vec<Json>, Scripted) {
        let handler = Scripted::default();
        let mut out = Vec::new();
        let stats =
            serve(input.as_ref(), &mut out, &handler, config).expect("in-process serve");
        let responses = String::from_utf8(out)
            .expect("responses are UTF-8")
            .lines()
            .map(|l| Json::parse(l).expect("every response line is valid JSON"))
            .collect();
        (stats, responses, handler)
    }

    fn status_of(r: &Json) -> &str {
        r.get("status").and_then(Json::as_str).expect("status field")
    }

    #[test]
    fn one_response_per_request_with_ids_echoed() {
        let input = r#"
            {"id": "a", "op": "ping"}
            {"id": "b", "op": "synth", "source": ""}
            {"id": "c", "op": "lint", "source": ""}
        "#;
        let (stats, responses, _) = run(input, ServerConfig::default());
        assert_eq!(stats.requests, 3);
        assert_eq!(stats.responses, 3);
        assert!(!stats.shutdown, "EOF, not shutdown");
        let mut ids: Vec<&str> = responses
            .iter()
            .map(|r| r.get("id").and_then(Json::as_str).expect("id echoed"))
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, ["a", "b", "c"]);
        assert!(responses.iter().all(|r| status_of(r) == "ok"));
        assert!(responses.iter().all(|r| r.get("exit").and_then(Json::as_int) == Some(0)));
    }

    #[test]
    fn a_panicking_job_degrades_one_response_never_the_daemon() {
        let input = r#"
            {"id": 1, "op": "synth", "source": "panic"}
            {"id": 2, "op": "synth", "source": ""}
            {"id": 3, "op": "synth", "source": "panic"}
            {"id": 4, "op": "synth", "source": ""}
        "#;
        let (stats, responses, _) = run(input, ServerConfig::default());
        assert_eq!(stats.responses, 4, "the daemon outlives every panic");
        assert_eq!(stats.panicked, 2);
        let by_id = |n: i128| {
            responses
                .iter()
                .find(|r| r.get("id").and_then(Json::as_int) == Some(n))
                .expect("response present")
        };
        for id in [1, 3] {
            let r = by_id(id);
            assert_eq!(status_of(r), "panicked");
            assert_eq!(r.get("exit").and_then(Json::as_int), Some(1));
            assert!(
                r.get("error").and_then(Json::as_str).expect("panic message").contains("panic"),
            );
        }
        for id in [2, 4] {
            assert_eq!(status_of(by_id(id)), "ok");
        }
    }

    #[test]
    fn deadline_trips_the_token_and_answers_a220_best_so_far() {
        let input = r#"{"id": 1, "op": "synth", "source": "spin", "deadline_ms": 30}"#;
        let (stats, responses, _) = run(input, ServerConfig::default());
        assert_eq!(stats.deadline_hits, 1);
        let r = &responses[0];
        assert_eq!(status_of(r), "deadline-exceeded");
        assert_eq!(r.get("exit").and_then(Json::as_int), Some(3));
        let diags = r.get("diagnostics").and_then(Json::as_arr).expect("diagnostics");
        assert!(
            diags.iter().any(|d| d.get("code").and_then(Json::as_str) == Some("A220")),
            "deadline must surface as A220"
        );
        let designs = r.get("designs").and_then(Json::as_arr).expect("designs");
        assert_eq!(
            designs.first().and_then(Json::as_str),
            Some("best-so-far"),
            "partial results survive the deadline"
        );
    }

    #[test]
    fn overload_sheds_with_a221_and_a_retry_hint() {
        let mut lines = String::new();
        for i in 0..8 {
            lines.push_str(&format!(
                "{{\"id\": {i}, \"op\": \"synth\", \"source\": \"sleep\"}}\n"
            ));
        }
        let config =
            ServerConfig { workers: 1, queue_depth: 1, ..ServerConfig::default() };
        let (stats, responses, _) = run(&lines, config);
        assert_eq!(stats.responses, 8, "shed requests still get answers");
        assert!(stats.shed >= 1, "an 8-deep burst over a 1-deep queue must shed");
        assert_eq!(stats.shed + stats.completed, 8);
        let shed: Vec<&Json> =
            responses.iter().filter(|r| status_of(r) == "overloaded").collect();
        assert_eq!(shed.len() as u64, stats.shed);
        for r in shed {
            assert_eq!(r.get("exit").and_then(Json::as_int), Some(3));
            assert!(r.get("retry_after_ms").and_then(Json::as_int).expect("hint") > 0);
            let diags = r.get("diagnostics").and_then(Json::as_arr).expect("diagnostics");
            assert!(diags
                .iter()
                .any(|d| d.get("code").and_then(Json::as_str) == Some("A221")));
        }
    }

    #[test]
    fn malformed_lines_answer_malformed_without_reaching_the_pool() {
        let input = "this is not json\n{\"id\": 1, \"op\": \"ping\"}\n{\"op\": \"warp\"}\n";
        let (stats, responses, handler) = run(input, ServerConfig::default());
        assert_eq!(stats.malformed, 2);
        assert_eq!(stats.responses, 3);
        assert_eq!(handler.handled.load(Ordering::Relaxed), 0, "no job ever ran");
        let statuses: Vec<&str> = responses.iter().map(status_of).collect();
        assert_eq!(statuses.iter().filter(|s| **s == "malformed").count(), 2);
        assert_eq!(statuses.iter().filter(|s| **s == "ok").count(), 1);
    }

    #[test]
    fn a_line_that_is_not_utf8_answers_malformed_and_serving_goes_on() {
        let input = b"{\"id\": 1, \"op\": \"ping\"}\n\xff\xfe bad\n{\"id\": 2, \"op\": \"ping\"}\n";
        let (stats, responses, _) = run(input, ServerConfig::default());
        assert_eq!(stats.requests, 3);
        assert_eq!(stats.malformed, 1);
        let answers: Vec<(Option<i128>, &str)> = responses
            .iter()
            .map(|r| (r.get("id").and_then(Json::as_int), status_of(r)))
            .collect();
        assert_eq!(answers, [(Some(1), "ok"), (None, "malformed"), (Some(2), "ok")]);
    }

    #[test]
    fn a_line_past_the_cap_answers_malformed_and_serving_goes_on() {
        let mut input = b"{\"id\": 1, \"op\": \"ping\"}\n".to_vec();
        input.resize(input.len() + MAX_LINE_BYTES, b'a');
        input.extend_from_slice(b"\n{\"id\": 2, \"op\": \"ping\"}\n");
        let (stats, responses, _) = run(input, ServerConfig::default());
        assert_eq!(stats.requests, 3);
        assert_eq!(stats.malformed, 1);
        let answers: Vec<(Option<i128>, &str)> = responses
            .iter()
            .map(|r| (r.get("id").and_then(Json::as_int), status_of(r)))
            .collect();
        assert_eq!(answers, [(Some(1), "ok"), (None, "malformed"), (Some(2), "ok")]);
    }

    #[test]
    fn a_reader_error_keeps_the_counts_up_to_it() {
        /// A stream that breaks after its first line, like a reset.
        struct Reset(&'static [u8]);
        impl std::io::Read for Reset {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.0.is_empty() {
                    return Err(std::io::ErrorKind::ConnectionReset.into());
                }
                let n = self.0.len().min(buf.len());
                buf[..n].copy_from_slice(&self.0[..n]);
                self.0 = &self.0[n..];
                Ok(n)
            }
        }
        let reader = std::io::BufReader::new(Reset(b"{\"id\": 1, \"op\": \"ping\"}\n"));
        let mut out = Vec::new();
        let err = serve(reader, &mut out, &Scripted::default(), ServerConfig::default())
            .expect_err("the reset ends the session");
        assert_eq!(err.error.kind(), std::io::ErrorKind::ConnectionReset);
        assert_eq!((err.stats.requests, err.stats.responses), (1, 1));
        let mut total = ServeStats { shutdown: true, ..ServeStats::default() };
        total.merge(&err.stats);
        total.merge(&err.stats);
        assert_eq!((total.requests, total.responses, total.shutdown), (2, 2, true));
    }

    #[test]
    fn shutdown_drains_and_snapshots() {
        let input = r#"
            {"id": 1, "op": "synth", "source": ""}
            {"id": 2, "op": "shutdown"}
            {"id": 3, "op": "synth", "source": "never read"}
        "#;
        let (stats, responses, handler) = run(input, ServerConfig::default());
        assert!(stats.shutdown);
        assert_eq!(stats.requests, 2, "reading stops at the shutdown op");
        assert_eq!(responses.len(), 2);
        assert!(handler.snapshots.load(Ordering::Relaxed) >= 1, "final snapshot ran");
    }

    #[test]
    fn snapshot_cadence_counts_completed_jobs() {
        let mut lines = String::new();
        for i in 0..6 {
            lines.push_str(&format!("{{\"id\": {i}, \"op\": \"synth\", \"source\": \"\"}}\n"));
        }
        let config = ServerConfig { workers: 1, snapshot_every: 2, ..ServerConfig::default() };
        let (_, _, handler) = run(&lines, config);
        // 6 jobs / every 2 = 3 cadence snapshots + 1 final.
        assert_eq!(handler.snapshots.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn injected_faults_are_deterministic_and_all_answered() {
        // Each fault lane is drawn with probability 1/4 per request,
        // so 96 requests drain a 2-per-kind budget with certainty for
        // this fixed seed (checked: all six faults fire).
        let mut lines = String::new();
        for i in 0..96 {
            lines.push_str(&format!("{{\"id\": {i}, \"op\": \"synth\", \"source\": \"\"}}\n"));
        }
        let run_once = || {
            let config = ServerConfig {
                workers: 1,
                // Deep enough that the instant 96-request burst never
                // sheds — only injected faults may perturb a status.
                queue_depth: 4096,
                inject: Some(
                    FaultPlan::parse("panic:2,timeout:2,malformed:2", 0xF00D).expect("spec"),
                ),
                ..ServerConfig::default()
            };
            let (stats, responses, _) = run(&lines, config);
            assert_eq!(stats.responses, 96, "every faulted request is still answered");
            let mut statuses: Vec<String> =
                responses.iter().map(|r| status_of(r).to_owned()).collect();
            statuses.sort_unstable();
            statuses
        };
        let first = run_once();
        assert_eq!(first, run_once(), "same seed, same fault schedule");
        assert_eq!(first.iter().filter(|s| *s == "panicked").count(), 2);
        assert_eq!(first.iter().filter(|s| *s == "deadline-exceeded").count(), 2);
        assert_eq!(first.iter().filter(|s| *s == "malformed").count(), 2);
        assert_eq!(first.iter().filter(|s| *s == "ok").count(), 90);
    }
}
