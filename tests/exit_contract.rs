//! E2e exit-code contract of the `vase` binary: `0` ok, `1` hard
//! failure, `3` degraded-but-usable — asserted over mixed CLI batches
//! (per-design JSON statuses included), over flags a subcommand does
//! not accept, and over a spawned `vase serve` daemon round trip, warm
//! cache and all.

use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Stdio};

use vase::diag::json::Json;

const VASE: &str = env!("CARGO_BIN_EXE_vase");

fn spec(name: &str) -> String {
    format!("{}/specs/{name}", env!("CARGO_MANIFEST_DIR"))
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vase-exit-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Run `vase synth --format json` over the given inputs; return
/// (exit code, per-file statuses).
fn synth_json(args: &[&str]) -> (i32, Vec<String>) {
    let output = Command::new(VASE)
        .arg("synth")
        .args(["--format", "json"])
        .args(args)
        .output()
        .expect("vase synth runs");
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 output");
    let reports = Json::parse(stdout.trim()).expect("synth JSON parses");
    let statuses = reports
        .as_arr()
        .expect("report array")
        .iter()
        .map(|r| r.get("status").and_then(Json::as_str).expect("status").to_owned())
        .collect();
    (output.status.code().expect("exit code"), statuses)
}

#[test]
fn clean_batch_exits_zero_with_all_ok() {
    let (code, statuses) = synth_json(&[&spec("receiver.vhd"), &spec("biquad.vhd")]);
    assert_eq!(code, 0);
    assert_eq!(statuses, ["ok", "ok"]);
}

#[test]
fn budget_exhausted_batch_degrades_to_exit_three() {
    // --max-nodes 1 cannot finish any branch-and-bound search, so the
    // second design keeps a best-so-far incumbent and the whole batch
    // reports degraded success.
    let (code, statuses) =
        synth_json(&[&spec("receiver.vhd"), &spec("funcgen.vhd"), "--max-nodes", "1"]);
    assert_eq!(code, 3, "degraded success must exit 3");
    assert!(statuses.iter().any(|s| s == "budget-exhausted"), "statuses: {statuses:?}");
    assert!(!statuses.iter().any(|s| s == "error" || s == "panicked"));
}

#[test]
fn a_hard_failure_anywhere_in_the_batch_exits_one() {
    let dir = scratch_dir("hard");
    let broken = dir.join("broken.vhd");
    std::fs::write(&broken, "entity broken is port(q: quantity").expect("write");
    let (code, statuses) = synth_json(&[
        &spec("receiver.vhd"),
        broken.to_str().expect("path"),
        &spec("biquad.vhd"),
        "--max-nodes",
        "1",
    ]);
    assert_eq!(code, 1, "a hard failure outranks degraded statuses");
    assert!(statuses.contains(&"error".to_owned()), "statuses: {statuses:?}");
    assert!(statuses.contains(&"ok".to_owned()) || statuses.contains(&"budget-exhausted".to_owned()));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_flags_are_usage_errors_naming_the_flag() {
    let funcgen = spec("funcgen.vhd");
    for (args, flag) in [
        (vec!["synth", &funcgen, "--bogus"], "--bogus"),
        (vec!["analyze", &funcgen, "--bogus"], "--bogus"),
        (vec!["table1", "--jobs", "0", "--bogus"], "--bogus"),
        // A misspelled value flag is named, not read as an input file.
        (vec!["synth", &funcgen, "--strategey", "guided"], "--strategey"),
        // A flag of another subcommand is not accepted either.
        (vec!["parse", &funcgen, "--jobs", "2"], "--jobs"),
        // The mapper is sequential: `synth` has no worker count.
        (vec!["synth", &funcgen, "--jobs", "2"], "--jobs"),
        // A value flag needs its operand.
        (vec!["synth", &funcgen, "--strategy"], "--strategy"),
        // `opt` runs one fixed pipeline: there is no pass list.
        (vec!["opt", &funcgen, "--passes", "a"], "--passes"),
    ] {
        let output = Command::new(VASE).args(&args).output().expect("vase runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(&format!("`{flag}`")), "{args:?} must name `{flag}`: {stderr}");
    }
}

#[test]
fn sim_windows_that_cannot_be_recorded_are_errors() {
    let receiver = spec("receiver.vhd");
    let base = ["sim", &receiver, "--input", "line=sine:0.5,1000", "--input", "local=const:0"];
    for window in [
        // 10^10 steps: far more samples than a run may record.
        ["--dt", "1e-9", "--tend", "10"],
        ["--dt", "NaN", "--tend", "5e-3"],
        ["--dt", "1e-6", "--tend", "NaN"],
        ["--dt", "1e-6", "--tend", "inf"],
    ] {
        let output = Command::new(VASE).args(base).args(window).output().expect("vase runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{window:?}: {stderr}");
        assert!(stderr.contains("error:"), "{window:?} must report an error: {stderr}");
    }
}

/// Spawn `vase serve`, feed it request lines on stdin, and collect the
/// parsed response lines plus the daemon's exit code.
fn serve_round_trip(requests: &[String], cache: &std::path::Path) -> (i32, Vec<Json>) {
    let mut input = Vec::new();
    for line in requests {
        writeln!(input, "{line}").expect("request buffered");
    }
    serve_bytes(&input, cache)
}

/// [`serve_round_trip`] over raw stdin bytes.
fn serve_bytes(input: &[u8], cache: &std::path::Path) -> (i32, Vec<Json>) {
    let mut child = Command::new(VASE)
        .args(["serve", "--workers", "2", "--cache-file"])
        .arg(cache)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("vase serve spawns");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(input)
        .expect("requests written");
    let output = child.wait_with_output().expect("daemon exits");
    let responses = String::from_utf8(output.stdout)
        .expect("UTF-8 responses")
        .lines()
        .map(|l| Json::parse(l).expect("response line parses"))
        .collect();
    (output.status.code().expect("exit code"), responses)
}

#[test]
fn serve_round_trip_mixes_statuses_and_warms_the_cache() {
    let dir = scratch_dir("serve");
    let cache = dir.join("covers.bin");
    let broken = dir.join("broken.vhd");
    std::fs::write(&broken, "entity broken is port(q: quantity").expect("write");
    let requests = vec![
        r#"{"id": 1, "op": "ping"}"#.to_owned(),
        format!(r#"{{"id": 2, "op": "synth", "path": "{}"}}"#, spec("receiver.vhd")),
        format!(r#"{{"id": 3, "op": "synth", "path": "{}"}}"#, broken.display()),
        "not even json".to_owned(),
        r#"{"id": 5, "op": "shutdown"}"#.to_owned(),
    ];

    let (code, responses) = serve_round_trip(&requests, &cache);
    assert_eq!(code, 0, "a clean shutdown exits 0 whatever the per-request outcomes");
    assert_eq!(responses.len(), 5);
    let status_of = |id: i128| {
        responses
            .iter()
            .find(|r| r.get("id").and_then(Json::as_int) == Some(id))
            .map(|r| r.get("status").and_then(Json::as_str).expect("status").to_owned())
    };
    assert_eq!(status_of(1).as_deref(), Some("ok"));
    assert_eq!(status_of(2).as_deref(), Some("ok"));
    assert_eq!(status_of(3).as_deref(), Some("error"));
    assert_eq!(status_of(5).as_deref(), Some("ok"));
    assert!(
        responses.iter().any(|r| r.get("status").and_then(Json::as_str) == Some("malformed")),
        "the garbage line answers malformed"
    );
    // Per-request exit codes follow the CLI contract.
    for r in &responses {
        let status = r.get("status").and_then(Json::as_str).expect("status");
        let exit = r.get("exit").and_then(Json::as_int).expect("exit");
        let expected = match status {
            "ok" => 0,
            "budget-exhausted" | "deadline-exceeded" | "overloaded" => 3,
            _ => 1,
        };
        assert_eq!(exit, expected, "status {status}");
    }
    assert!(cache.exists(), "shutdown snapshot persisted the warm cache");

    // Restart the daemon over the persisted cache: the same design
    // must now hit warm covers and say so with A211.
    let requests = vec![
        format!(r#"{{"id": 1, "op": "synth", "path": "{}"}}"#, spec("receiver.vhd")),
        r#"{"id": 2, "op": "shutdown"}"#.to_owned(),
    ];
    let (code, responses) = serve_round_trip(&requests, &cache);
    assert_eq!(code, 0);
    let diags = responses
        .iter()
        .find(|r| r.get("id").and_then(Json::as_int) == Some(1))
        .and_then(|r| r.get("diagnostics"))
        .and_then(Json::as_arr)
        .expect("diagnostics");
    assert!(
        diags.iter().any(|d| d.get("code").and_then(Json::as_str) == Some("A211")),
        "warm-cache serve round trip must report A211 hits"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_deadline_and_timings_ride_the_wire() {
    let dir = scratch_dir("deadline");
    let requests = vec![
        format!(
            r#"{{"id": 1, "op": "synth", "path": "{}", "deadline_ms": 120000}}"#,
            spec("receiver.vhd")
        ),
        r#"{"id": 2, "op": "shutdown"}"#.to_owned(),
    ];
    let (code, responses) = serve_round_trip(&requests, &dir.join("covers.bin"));
    assert_eq!(code, 0);
    let r = responses
        .iter()
        .find(|r| r.get("id").and_then(Json::as_int) == Some(1))
        .expect("synth response");
    assert_eq!(r.get("status").and_then(Json::as_str), Some("ok"));
    let timings = r.get("timings").expect("timings");
    for phase in ["parse_ms", "opt_ms", "verify_ms", "synth_ms", "sim_ms", "total_ms"] {
        assert!(timings.get(phase).and_then(Json::as_f64).is_some(), "missing {phase}");
    }
    assert!(r.get("elapsed_ms").and_then(Json::as_f64).expect("elapsed") > 0.0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_answers_a_window_too_large_to_record_with_an_error() {
    let dir = scratch_dir("window");
    let source = "entity src is port (quantity vout : out real is voltage range -2.0 to 2.0); \
                  end entity; architecture a of src is begin vout == 0.75; end architecture;";
    let requests = vec![
        format!(r#"{{"id": 2, "op": "sim", "source": "{source}", "dt": 1e-9, "tend": 10}}"#),
        r#"{"id": 3, "op": "ping"}"#.to_owned(),
        r#"{"id": 4, "op": "shutdown"}"#.to_owned(),
    ];
    let (code, responses) = serve_round_trip(&requests, &dir.join("covers.bin"));
    assert_eq!(code, 0, "the daemon survives the request and shuts down cleanly");
    let status_of = |id: i128| {
        responses
            .iter()
            .find(|r| r.get("id").and_then(Json::as_int) == Some(id))
            .and_then(|r| r.get("status").and_then(Json::as_str))
            .map(str::to_owned)
    };
    assert_eq!(status_of(2).as_deref(), Some("error"));
    assert_eq!(status_of(3).as_deref(), Some("ok"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_answers_a_line_that_is_not_utf8_and_keeps_serving() {
    let dir = scratch_dir("utf8");
    let input = b"{\"id\":1,\"op\":\"ping\"}\n\xff\xfe bad\n{\"id\":2,\"op\":\"ping\"}\n";
    let (code, responses) = serve_bytes(input, &dir.join("covers.bin"));
    assert_eq!(code, 0, "bad bytes never end the daemon");
    let statuses: Vec<(Option<i128>, &str)> = responses
        .iter()
        .map(|r| {
            (
                r.get("id").and_then(Json::as_int),
                r.get("status").and_then(Json::as_str).expect("status"),
            )
        })
        .collect();
    assert_eq!(
        statuses,
        [(Some(1), "ok"), (None, "malformed"), (Some(2), "ok")]
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A request line far past the serve cap answers `malformed` and is
/// skipped without being buffered: the daemon then answers a ping, and
/// its peak resident set stays far below the line's 32 MiB.
#[cfg(target_os = "linux")]
#[test]
fn serve_skips_an_overlong_line_in_bounded_memory() {
    use std::io::{BufRead, BufReader};

    let dir = scratch_dir("long-line");
    let mut child = Command::new(VASE)
        .args(["serve", "--workers", "2", "--cache-file"])
        .arg(dir.join("covers.bin"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("vase serve spawns");
    let mut stdin = child.stdin.take().expect("stdin piped");
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout piped"));
    let mut line = vec![b'a'; 32 << 20];
    line.push(b'\n');
    stdin.write_all(&line).expect("long line written");
    stdin.write_all(b"{\"id\": 1, \"op\": \"ping\"}\n").expect("ping written");
    stdin.flush().expect("flushed");
    let mut statuses = Vec::new();
    for _ in 0..2 {
        let mut response = String::new();
        stdout.read_line(&mut response).expect("response read");
        let r = Json::parse(&response).expect("response parses");
        statuses.push(r.get("status").and_then(Json::as_str).expect("status").to_owned());
    }
    let status = std::fs::read_to_string(format!("/proc/{}/status", child.id()))
        .expect("daemon status readable");
    let peak_kib: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("VmHWM");
    writeln!(stdin, r#"{{"id": 2, "op": "shutdown"}}"#).expect("shutdown written");
    drop(stdin);
    let code = child.wait().expect("daemon exits").code();
    assert_eq!(statuses, ["malformed", "ok"]);
    assert_eq!(code, Some(0));
    assert!(peak_kib < 16 * 1024, "daemon peaked at {peak_kib} KiB for a 32 MiB line");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A client that resets its connection ends only that connection: the
/// daemon logs the error, answers the next client, counts both clients'
/// requests in its summary, and still exits 0 on `shutdown`.
#[cfg(target_os = "linux")]
#[test]
fn serve_socket_outlives_a_client_reset() {
    use std::io::{BufRead, BufReader, Read};
    use std::os::unix::net::UnixStream;
    use std::time::Duration;

    let dir = scratch_dir("reset");
    let socket = dir.join("vase.sock");
    let child = Command::new(VASE)
        .args(["serve", "--workers", "2", "--socket"])
        .arg(&socket)
        .arg("--cache-file")
        .arg(dir.join("covers.bin"))
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("vase serve spawns");
    let connect = || {
        for _ in 0..500 {
            if let Ok(stream) = UnixStream::connect(&socket) {
                stream.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout set");
                return stream;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("daemon never listened on {}", socket.display());
    };

    // Client A reads one byte of its reply and closes with the rest
    // unread, so the kernel resets the daemon's end of the connection.
    let mut a = connect();
    a.write_all(b"{\"id\":1,\"op\":\"ping\"}\n").expect("ping written");
    a.read_exact(&mut [0u8; 1]).expect("reply readable");
    drop(a);

    let b = connect();
    let mut reader = BufReader::new(b.try_clone().expect("stream clones"));
    let mut writer = b;
    let mut statuses = Vec::new();
    for request in [r#"{"id":2,"op":"ping"}"#, r#"{"id":3,"op":"shutdown"}"#] {
        writeln!(writer, "{request}").expect("request written");
        let mut line = String::new();
        reader.read_line(&mut line).expect("response read");
        let r = Json::parse(&line).expect("response parses");
        statuses.push((
            r.get("id").and_then(Json::as_int),
            r.get("status").and_then(Json::as_str).expect("status").to_owned(),
        ));
    }
    let output = child.wait_with_output().expect("daemon exits");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(statuses, [(Some(2), "ok".to_owned()), (Some(3), "ok".to_owned())]);
    assert_eq!(output.status.code(), Some(0), "{stderr}");
    assert!(stderr.contains("connection dropped"), "the reset was not exercised: {stderr}");
    // The dropped connection's ping counts in the summary.
    assert!(stderr.contains("serve: 3 request(s), 3 response(s)"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}
