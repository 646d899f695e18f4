//! The service loop: a bounded job queue feeding a fixed worker pool,
//! with a deadline watchdog and per-job panic isolation.
//!
//! The failure model (DESIGN.md §14) in one paragraph: every job runs
//! under `catch_unwind`, so a panicking handler degrades exactly one
//! response to `panicked` and the pool keeps serving; every job
//! carries a [`CancelToken`] that a watchdog thread trips when the
//! job's wall-clock deadline passes, turning the response into
//! `deadline-exceeded` (A220) with whatever best-so-far results the
//! handler salvaged; and requests beyond the bounded queue's depth are
//! shed immediately as `overloaded` (A221) with a retry-after hint
//! instead of growing the queue without bound.

use std::borrow::Cow;
use std::collections::VecDeque;
use std::fmt;
use std::io::{self, BufRead, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use vase_budget::CancelToken;
use vase_diag::json::Json;
use vase_diag::{Code, Diagnostic};

use crate::inject::{Fault, FaultPlan};
use crate::proto::{exit_for_status, Op, Request, Response};

/// What one job produced. The server owns status → exit mapping and
/// the deadline/panic overrides; handlers only describe their result.
#[derive(Debug, Clone)]
pub struct JobOutput {
    /// `ok`, `budget-exhausted`, or `error` (empty means `ok`).
    pub status: String,
    /// Hard-failure description when `status` is `error`.
    pub error: Option<String>,
    /// Flow diagnostics, in report order.
    pub diagnostics: Vec<Diagnostic>,
    /// Per-design result objects (op-specific shape).
    pub designs: Vec<Json>,
    /// Per-phase timings object, [`Json::Null`] when not measured.
    pub timings: Json,
}

impl JobOutput {
    /// An empty `ok` output.
    pub fn ok() -> JobOutput {
        JobOutput {
            status: "ok".into(),
            error: None,
            diagnostics: Vec::new(),
            designs: Vec::new(),
            timings: Json::Null,
        }
    }

    /// An `error` output with a description.
    pub fn error(message: impl Into<String>) -> JobOutput {
        JobOutput { status: "error".into(), error: Some(message.into()), ..JobOutput::ok() }
    }
}

/// What the server runs per request. Implementations must be
/// panic-tolerant in aggregate (the server isolates each call) and
/// check the token cooperatively so deadlines actually stop work.
pub trait JobHandler: Sync {
    /// Run one job. `deadline_ms` is the effective deadline (request
    /// override or server default) so handlers can derive an internal
    /// [`vase_budget::Budget`] from it; the `token` is tripped by the
    /// watchdog when that deadline passes.
    fn handle(&self, request: &Request, token: &CancelToken, deadline_ms: Option<u64>)
        -> JobOutput;

    /// Persist warm state (caches). Called between jobs on the
    /// snapshot cadence and once at shutdown; must be atomic against
    /// `kill -9` (write-temp-then-rename).
    fn snapshot(&self) {}
}

/// Service tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Maximum queued (not yet running) jobs before shedding.
    pub queue_depth: usize,
    /// Default per-job deadline when a request does not set one.
    pub default_deadline_ms: Option<u64>,
    /// Call [`JobHandler::snapshot`] every N completed jobs
    /// (0 = only at shutdown).
    pub snapshot_every: u64,
    /// Armed fault schedule (tests and `--inject`).
    pub inject: Option<FaultPlan>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 2,
            queue_depth: 16,
            default_deadline_ms: None,
            snapshot_every: 0,
            inject: None,
        }
    }
}

/// What happened over one [`serve`] session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Request lines read (including malformed and shed ones).
    pub requests: u64,
    /// Response lines written.
    pub responses: u64,
    /// Jobs that ran to completion on a worker.
    pub completed: u64,
    /// Requests shed with `overloaded` (A221).
    pub shed: u64,
    /// Jobs whose handler panicked (isolated to their response).
    pub panicked: u64,
    /// Jobs stopped by the deadline watchdog (A220).
    pub deadline_hits: u64,
    /// Lines that failed to parse as requests (not UTF-8, not JSON, or
    /// not a request object).
    pub malformed: u64,
    /// Whether a `shutdown` op (rather than EOF) ended the session.
    pub shutdown: bool,
}

impl ServeStats {
    /// Accumulate `other` into `self`: every count is summed, and a
    /// shutdown in either session counts.
    pub fn merge(&mut self, other: &ServeStats) {
        self.requests += other.requests;
        self.responses += other.responses;
        self.completed += other.completed;
        self.shed += other.shed;
        self.panicked += other.panicked;
        self.deadline_hits += other.deadline_hits;
        self.malformed += other.malformed;
        self.shutdown |= other.shutdown;
    }
}

/// A [`serve`] session that a reader I/O error ended, with what it had
/// done by then.
#[derive(Debug)]
pub struct ServeError {
    /// The session's counts up to the error.
    pub stats: ServeStats,
    /// The reader's error.
    pub error: io::Error,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.error.fmt(f)
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// How often the watchdog rescans active jobs for expired deadlines.
const WATCHDOG_TICK: Duration = Duration::from_millis(2);

/// Deterministic backpressure hint: long enough for one queue depth's
/// worth of typical jobs to drain.
fn retry_after_ms(queue_depth: usize) -> u64 {
    25 * (queue_depth as u64 + 1)
}

struct Job {
    request: Request,
    fault: Option<Fault>,
}

struct QueueState {
    jobs: VecDeque<Job>,
    closed: bool,
}

struct ActiveJob {
    token: CancelToken,
    deadline: Option<Instant>,
    fired: Arc<AtomicBool>,
}

struct Counters {
    completed: AtomicU64,
    shed: AtomicU64,
    panicked: AtomicU64,
    deadline_hits: AtomicU64,
    responses: AtomicU64,
}

struct Shared<'h, W: Write> {
    handler: &'h dyn JobHandler,
    writer: Mutex<W>,
    queue: Mutex<QueueState>,
    ready: Condvar,
    active: Mutex<Vec<Option<ActiveJob>>>,
    counters: Counters,
    workers_done: AtomicBool,
    default_deadline_ms: Option<u64>,
    snapshot_every: u64,
}

/// Poison-proof lock: a worker panic is already isolated by
/// `catch_unwind`, so a poisoned mutex only means "a panic happened
/// nearby", never that the data is torn.
fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl<W: Write> Shared<'_, W> {
    /// Write one response line. Client-side write failures (a hung-up
    /// pipe) are swallowed: a dead client must not kill the daemon.
    fn respond(&self, response: &Response) {
        let line = response.to_json().to_line();
        let mut w = relock(&self.writer);
        if writeln!(w, "{line}").is_ok() {
            let _ = w.flush();
        }
        self.counters.responses.fetch_add(1, Ordering::Relaxed);
    }

    /// [`JobHandler::snapshot`] under `catch_unwind`: persistence
    /// trouble degrades the snapshot, never the daemon.
    fn snapshot_guarded(&self) {
        let _ = catch_unwind(AssertUnwindSafe(|| self.handler.snapshot()));
    }
}

/// The answer to a line that is not a request.
fn malformed(id: Json, error: String) -> Response {
    let mut r = Response::bare(id, "malformed");
    r.error = Some(error);
    r
}

/// The longest request line the reader buffers, line end included:
/// 1 MiB, far above any real request (the largest shipped spec is
/// under 2 KB). A longer line answers `malformed`.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// One line as [`read_line`] reads it.
enum Line {
    /// End of the stream.
    Eof,
    /// A line of at most `cap` bytes, line end included.
    Read(Vec<u8>),
    /// A longer line, consumed through its `\n` without buffering it.
    TooLong,
}

/// Read the next `\n`-terminated line of at most `cap` bytes from
/// `reader`. Past the cap the bytes read so far are dropped and the
/// rest of the line is skipped chunk by chunk, so memory stays bounded
/// by the cap whatever the line's length.
fn read_line(reader: &mut impl BufRead, cap: usize) -> io::Result<Line> {
    let mut line = Vec::new();
    let (mut read_any, mut too_long) = (false, false);
    loop {
        let chunk = match reader.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        let (len, done) = match chunk.iter().position(|&b| b == b'\n') {
            Some(i) => (i + 1, true),
            None if chunk.is_empty() && !read_any => return Ok(Line::Eof),
            None => (chunk.len(), chunk.is_empty()),
        };
        read_any = true;
        if !too_long && line.len() + len > cap {
            too_long = true;
            line = Vec::new();
        }
        if !too_long {
            line.extend_from_slice(&chunk[..len]);
        }
        reader.consume(len);
        if done {
            return Ok(if too_long { Line::TooLong } else { Line::Read(line) });
        }
    }
}

/// A line read by [`read_line`] without its `\n` or `\r\n`, as
/// [`BufRead::lines`] returns it.
fn strip_line_end(line: &[u8]) -> &[u8] {
    match line.strip_suffix(b"\n") {
        Some(line) => line.strip_suffix(b"\r").unwrap_or(line),
        None => line,
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_owned()
    }
}

fn run_job<W: Write>(shared: &Shared<'_, W>, slot: usize, job: Job) -> Response {
    let started = Instant::now();
    let token = CancelToken::new();
    let fired = Arc::new(AtomicBool::new(false));
    let deadline_ms = job.request.deadline_ms.or(shared.default_deadline_ms);
    if job.fault == Some(Fault::Timeout) {
        // Injected timeout: behave exactly as if the watchdog had
        // already fired, without waiting out a real deadline.
        token.cancel();
        fired.store(true, Ordering::Relaxed);
    }
    relock(&shared.active)[slot] = Some(ActiveJob {
        token: token.clone(),
        deadline: deadline_ms.map(|ms| started + Duration::from_millis(ms)),
        fired: Arc::clone(&fired),
    });
    let inject_panic = job.fault == Some(Fault::Panic);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if inject_panic {
            panic!("injected fault: worker panic");
        }
        shared.handler.handle(&job.request, &token, deadline_ms)
    }));
    relock(&shared.active)[slot] = None;

    let mut response = match outcome {
        Ok(output) => {
            let status = if output.status.is_empty() { "ok".to_owned() } else { output.status };
            Response {
                id: job.request.id.clone(),
                exit: exit_for_status(&status),
                status,
                retry_after_ms: None,
                error: output.error,
                diagnostics: output.diagnostics,
                designs: output.designs,
                timings: output.timings,
                elapsed_ms: 0.0,
            }
        }
        Err(payload) => {
            shared.counters.panicked.fetch_add(1, Ordering::Relaxed);
            let mut r = Response::bare(job.request.id.clone(), "panicked");
            r.error = Some(panic_message(payload));
            r
        }
    };
    // A fired deadline downgrades an otherwise-successful job to
    // best-so-far (A220). A panic stays a panic: it is the harder
    // failure and its response must say so.
    if fired.load(Ordering::Relaxed) && response.status != "panicked" {
        shared.counters.deadline_hits.fetch_add(1, Ordering::Relaxed);
        response.status = "deadline-exceeded".into();
        response.exit = exit_for_status(&response.status);
        response.diagnostics.push(Diagnostic::new(
            Code::A220,
            format!(
                "job deadline of {} ms exceeded; returning best-so-far partial results",
                deadline_ms.unwrap_or(0)
            ),
        ));
    }
    response.elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
    response
}

fn worker<W: Write>(shared: &Shared<'_, W>, slot: usize) {
    loop {
        let job = {
            let mut q = relock(&shared.queue);
            loop {
                if let Some(job) = q.jobs.pop_front() {
                    break job;
                }
                if q.closed {
                    return;
                }
                q = shared.ready.wait(q).unwrap_or_else(|e| e.into_inner());
            }
        };
        let response = run_job(shared, slot, job);
        shared.respond(&response);
        let done = shared.counters.completed.fetch_add(1, Ordering::Relaxed) + 1;
        if shared.snapshot_every > 0 && done.is_multiple_of(shared.snapshot_every) {
            shared.snapshot_guarded();
        }
    }
}

fn watchdog<W: Write>(shared: &Shared<'_, W>) {
    while !shared.workers_done.load(Ordering::Relaxed) {
        std::thread::sleep(WATCHDOG_TICK);
        let now = Instant::now();
        for slot in relock(&shared.active).iter() {
            let Some(active) = slot else { continue };
            let Some(deadline) = active.deadline else { continue };
            if now >= deadline && !active.fired.swap(true, Ordering::Relaxed) {
                active.token.cancel();
            }
        }
    }
}

/// Run the service loop over a newline-delimited JSON request stream
/// until EOF or a `shutdown` op, answering on `writer`. Responses are
/// id-correlated and may complete out of order. Designed to run
/// equally over stdin/stdout, a Unix-socket connection, or in-process
/// byte buffers (tests and the soak harness).
///
/// # Errors
///
/// Only reader I/O errors propagate, as a [`ServeError`] that keeps
/// the session's counts up to the error; handler panics, deadline hits,
/// malformed lines (bytes that are not UTF-8 and lines longer than
/// [`MAX_LINE_BYTES`] included), and client write failures each
/// degrade exactly one response.
pub fn serve<R, W, H>(
    mut reader: R,
    writer: W,
    handler: &H,
    config: ServerConfig,
) -> Result<ServeStats, ServeError>
where
    R: BufRead,
    W: Write + Send,
    H: JobHandler,
{
    let mut stats = ServeStats::default();
    let mut inject = config.inject.clone();
    let shared = Shared {
        handler,
        writer: Mutex::new(writer),
        queue: Mutex::new(QueueState { jobs: VecDeque::new(), closed: false }),
        ready: Condvar::new(),
        active: Mutex::new((0..config.workers.max(1)).map(|_| None).collect()),
        counters: Counters {
            completed: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            panicked: AtomicU64::new(0),
            deadline_hits: AtomicU64::new(0),
            responses: AtomicU64::new(0),
        },
        workers_done: AtomicBool::new(false),
        default_deadline_ms: config.default_deadline_ms,
        snapshot_every: config.snapshot_every,
    };

    let mut read_result: io::Result<()> = Ok(());
    std::thread::scope(|scope| {
        let shared = &shared;
        let workers: Vec<_> = (0..config.workers.max(1))
            .map(|slot| scope.spawn(move || worker(shared, slot)))
            .collect();
        let dog = scope.spawn(move || watchdog(shared));

        loop {
            // A fresh buffer per line, so one long line is not kept
            // for the rest of the session.
            let buf = match read_line(&mut reader, MAX_LINE_BYTES) {
                Ok(Line::Eof) => break,
                Ok(Line::Read(buf)) => buf,
                Ok(Line::TooLong) => {
                    stats.requests += 1;
                    stats.malformed += 1;
                    shared.respond(&malformed(
                        Json::Null,
                        format!("malformed request: longer than {MAX_LINE_BYTES} bytes"),
                    ));
                    continue;
                }
                Err(e) => {
                    read_result = Err(e);
                    break;
                }
            };
            let Ok(line) = std::str::from_utf8(strip_line_end(&buf)) else {
                // Bad bytes are one bad request, not a dead stream.
                stats.requests += 1;
                stats.malformed += 1;
                shared.respond(&malformed(
                    Json::Null,
                    "malformed request: not UTF-8".to_owned(),
                ));
                continue;
            };
            if line.trim().is_empty() {
                continue;
            }
            stats.requests += 1;
            let fault = inject.as_mut().and_then(FaultPlan::draw);
            let effective = if fault == Some(Fault::Malformed) {
                Cow::Owned(FaultPlan::corrupt(line))
            } else {
                Cow::Borrowed(line)
            };
            let request = match Request::parse(&effective) {
                Ok(r) => r,
                Err(e) => {
                    stats.malformed += 1;
                    shared.respond(&malformed(e.id, e.message));
                    continue;
                }
            };
            match request.op {
                // Control ops are answered by the reader itself: a
                // probe must succeed even when every worker is busy.
                Op::Ping => shared.respond(&Response::bare(request.id, "ok")),
                Op::Shutdown => {
                    stats.shutdown = true;
                    shared.respond(&Response::bare(request.id, "ok"));
                    break;
                }
                _ => {
                    let mut q = relock(&shared.queue);
                    if q.jobs.len() >= config.queue_depth {
                        drop(q);
                        shared.counters.shed.fetch_add(1, Ordering::Relaxed);
                        let mut r = Response::bare(request.id, "overloaded");
                        let hint = retry_after_ms(config.queue_depth);
                        r.retry_after_ms = Some(hint);
                        r.diagnostics.push(Diagnostic::new(
                            Code::A221,
                            format!(
                                "service overloaded: queue depth {} reached; \
                                 retry in {hint} ms",
                                config.queue_depth
                            ),
                        ));
                        shared.respond(&r);
                    } else {
                        q.jobs.push_back(Job { request, fault });
                        drop(q);
                        shared.ready.notify_one();
                    }
                }
            }
        }

        relock(&shared.queue).closed = true;
        shared.ready.notify_all();
        for w in workers {
            let _ = w.join();
        }
        shared.workers_done.store(true, Ordering::Relaxed);
        let _ = dog.join();
    });

    // Warm state survives restarts: one last crash-safe snapshot on
    // every clean exit path (EOF and shutdown alike).
    shared.snapshot_guarded();
    stats.responses = shared.counters.responses.load(Ordering::Relaxed);
    stats.completed = shared.counters.completed.load(Ordering::Relaxed);
    stats.shed = shared.counters.shed.load(Ordering::Relaxed);
    stats.panicked = shared.counters.panicked.load(Ordering::Relaxed);
    stats.deadline_hits = shared.counters.deadline_hits.load(Ordering::Relaxed);
    match read_result {
        Ok(()) => Ok(stats),
        Err(error) => Err(ServeError { stats, error }),
    }
}
