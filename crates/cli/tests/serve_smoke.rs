//! End-to-end tests of the `ja serve` daemon: a real child process, real
//! TCP, and the two guarantees the service is built on — a served report
//! is **byte-identical** to the offline subcommand's output for the same
//! request, and an identical repeat is answered from the
//! content-addressed cache with the identical bytes (observable via the
//! opt-in `X-Ja-Cache` marker). Graceful shutdown (POST /v1/shutdown and
//! SIGTERM) must drain to exit status 0.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn ja(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ja"))
        .args(args)
        .output()
        .expect("spawn ja")
}

fn ja_ok(args: &[&str]) -> String {
    let output = ja(args);
    assert!(
        output.status.success(),
        "ja {args:?} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("stdout is UTF-8")
}

/// A `ja serve` child on an ephemeral port, discovered via `--port-file`.
struct Server {
    child: Child,
    addr: SocketAddr,
    port_file: PathBuf,
}

impl Server {
    fn spawn(tag: &str) -> Server {
        let port_file =
            std::env::temp_dir().join(format!("ja-serve-smoke-{}-{tag}.port", std::process::id()));
        let _ = std::fs::remove_file(&port_file);
        let mut child = Command::new(env!("CARGO_BIN_EXE_ja"))
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--port-file",
                port_file.to_str().unwrap(),
                "--eval-workers",
                "2",
            ])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn ja serve");
        let deadline = Instant::now() + Duration::from_secs(30);
        let addr = loop {
            if let Some(status) = child.try_wait().expect("try_wait") {
                panic!("ja serve exited before binding: {status}");
            }
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                if let Ok(addr) = text.trim().parse::<SocketAddr>() {
                    break addr;
                }
            }
            assert!(
                Instant::now() < deadline,
                "server never wrote the port file"
            );
            std::thread::sleep(Duration::from_millis(20));
        };
        Server {
            child,
            addr,
            port_file,
        }
    }

    /// Drains the server via `POST /v1/shutdown` and asserts a clean exit.
    fn shutdown(mut self) {
        let response = request(self.addr, "POST", "/v1/shutdown", None);
        assert_eq!(response.status, 200, "{}", response.body);
        assert!(response.body.contains("\"draining\": true"));
        let status = self.child.wait().expect("wait for ja serve");
        assert_eq!(status.code(), Some(0), "drain must exit 0");
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Only reached on panic or signal tests: don't leak the daemon.
        if self.child.try_wait().map_or(true, |s| s.is_none()) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        let _ = std::fs::remove_file(&self.port_file);
    }
}

struct Response {
    status: u16,
    headers: Vec<(String, String)>,
    body: String,
}

impl Response {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(key, _)| key.eq_ignore_ascii_case(name))
            .map(|(_, value)| value.as_str())
    }
}

/// A minimal HTTP/1.1 client matching the server's one-request,
/// `Connection: close` framing.
fn request(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> Response {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    let body = body.unwrap_or("");
    stream
        .write_all(
            format!(
                "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
        .expect("write request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
    let mut lines = head.lines();
    let status = lines
        .next()
        .and_then(|line| line.split(' ').nth(1))
        .and_then(|code| code.parse::<u16>().ok())
        .expect("status line");
    let headers = lines
        .filter_map(|line| line.split_once(": "))
        .map(|(key, value)| (key.to_owned(), value.to_owned()))
        .collect();
    Response {
        status,
        headers,
        body: body.to_owned(),
    }
}

/// Posts a request document twice and asserts the cache contract: first a
/// miss, then a hit, both byte-identical to `offline`.
fn assert_served_matches_offline(server: &Server, request_body: &str, offline: &str) {
    let first = request(server.addr, "POST", "/v1/eval", Some(request_body));
    assert_eq!(first.status, 200, "{}", first.body);
    assert_eq!(first.header("X-Ja-Cache"), Some("miss"));
    let key = first
        .header("X-Ja-Cache-Key")
        .expect("cache key")
        .to_owned();
    assert_eq!(key.len(), 32, "cache key is 128 bits of hex: {key}");
    assert_eq!(
        first.body, offline,
        "served report must be byte-identical to the offline CLI"
    );

    let second = request(server.addr, "POST", "/v1/eval", Some(request_body));
    assert_eq!(second.status, 200);
    assert_eq!(second.header("X-Ja-Cache"), Some("hit"));
    assert_eq!(second.header("X-Ja-Cache-Key"), Some(key.as_str()));
    assert_eq!(
        second.body, offline,
        "cache hit must return the identical bytes"
    );
}

#[test]
fn served_batch_report_is_byte_identical_to_offline_and_cached() {
    // The fixture request mirrors grid.conf axis by axis, so the offline
    // run is the ground truth for the exact same 8 scenarios.
    let config = fixture("grid.conf");
    let offline = ja_ok(&[
        "batch",
        "--config",
        config.to_str().unwrap(),
        "--workers",
        "1",
    ]);
    let request_body = std::fs::read_to_string(fixture("serve_batch.json")).unwrap();

    let server = Server::spawn("batch");
    assert_served_matches_offline(&server, &request_body, &offline);

    // The cache key is content-addressed: reordering JSON fields must
    // land on the same entry (still a hit, still the same bytes).
    let doc = ja_hysteresis::json::JsonValue::parse(&request_body).unwrap();
    let reordered = reorder_fields(&doc).to_pretty_string();
    assert_ne!(reordered, request_body.trim_end());
    let third = request(server.addr, "POST", "/v1/eval", Some(&reordered));
    assert_eq!(third.status, 200, "{}", third.body);
    assert_eq!(third.header("X-Ja-Cache"), Some("hit"));
    assert_eq!(third.body, offline);

    server.shutdown();
}

#[test]
fn served_thermal_pwm_batch_matches_the_offline_grid_config() {
    // serve_thermal.json mirrors grid_thermal.conf axis by axis — the PWM
    // circuit drive, the degauss sweep, the temperature axis and the
    // laminated core geometry — so the served report must be
    // byte-identical to the offline run of the same four operating-point
    // scenarios (and the repeat must be a cache hit with the same bytes).
    let config = fixture("grid_thermal.conf");
    let offline = ja_ok(&[
        "batch",
        "--config",
        config.to_str().unwrap(),
        "--workers",
        "1",
    ]);
    for needle in [
        "pwm(amplitude=30,frequency=50,duty=0.25)",
        "degauss(h_start=10000,h_stop=500,decay=0.5,step=100)",
        "/t-40\"",
        "/t125\"",
        "\"temperature_c\": -40",
        "\"eddy_w\":",
    ] {
        assert!(offline.contains(needle), "offline report lacks {needle:?}");
    }
    let request_body = std::fs::read_to_string(fixture("serve_thermal.json")).unwrap();

    let server = Server::spawn("thermal");
    assert_served_matches_offline(&server, &request_body, &offline);
    server.shutdown();
}

#[test]
fn served_single_scenario_requests_match_the_offline_reports() {
    // Each fixture names the same one-cell spec as its offline command
    // line: material, backend and ΔH_max default alike on both surfaces.
    let server = Server::spawn("single");
    for (fixture_name, offline_args) in [
        (
            "serve_sweep_major.json",
            &[
                "sweep", "--peak", "5000", "--step", "250", "--cycles", "1", "--format", "json",
            ][..],
        ),
        (
            "serve_sweep_fig1.json",
            &["sweep", "--fig1", "--step", "50", "--format", "json"],
        ),
        (
            "serve_transient.json",
            &[
                "transient",
                "--adaptive",
                "--t-end",
                "0.02",
                "--material",
                "hard-steel",
                "--backend",
                "ams",
                "--dh-max",
                "25",
                "--format",
                "json",
            ],
        ),
    ] {
        let offline = ja_ok(offline_args);
        let request_body = std::fs::read_to_string(fixture(fixture_name)).unwrap();
        assert_served_matches_offline(&server, &request_body, &offline);
    }
    server.shutdown();
}

/// Recursively reverses every object's field order — different bytes,
/// same content address.
fn reorder_fields(value: &ja_hysteresis::json::JsonValue) -> ja_hysteresis::json::JsonValue {
    use ja_hysteresis::json::JsonValue;
    match value {
        JsonValue::Object(fields) => JsonValue::Object(
            fields
                .iter()
                .rev()
                .map(|(key, value)| (key.clone(), reorder_fields(value)))
                .collect(),
        ),
        JsonValue::Array(items) => JsonValue::Array(items.iter().map(reorder_fields).collect()),
        other => other.clone(),
    }
}

#[test]
fn served_ndjson_stream_matches_the_offline_ndjson_file() {
    let config = fixture("grid.conf");
    let offline = ja_ok(&[
        "batch",
        "--config",
        config.to_str().unwrap(),
        "--format",
        "ndjson",
        "--workers",
        "1",
    ]);
    // The fixture mirrors grid.conf; swapping the options in turns the
    // buffered request into a streamed one.
    let request_body = std::fs::read_to_string(fixture("serve_batch.json"))
        .unwrap()
        .replace("{\"cache_info\": true}", "{\"stream\": true}");
    assert!(request_body.contains("\"stream\": true"), "{request_body}");

    let server = Server::spawn("stream");
    let response = request(server.addr, "POST", "/v1/eval", Some(&request_body));
    assert_eq!(response.status, 200, "{}", response.body);
    assert_eq!(
        response.header("Content-Type"),
        Some("application/x-ndjson")
    );
    assert_eq!(
        response.header("Content-Length"),
        None,
        "streamed bodies are EOF-delimited"
    );
    assert_eq!(
        response.body, offline,
        "streamed bytes must equal the offline `ja batch --format ndjson` file"
    );

    // Streaming bypasses the result cache: an identical repeat evaluates
    // again and still produces the identical bytes.
    let again = request(server.addr, "POST", "/v1/eval", Some(&request_body));
    assert_eq!(again.header("X-Ja-Cache"), None);
    assert_eq!(again.body, offline);

    server.shutdown();
}

#[test]
fn served_fit_report_is_byte_identical_to_offline_and_cached() {
    // serve_fit.json carries measured_loop.csv's h/b columns verbatim
    // (same number tokens → same f64s), so this offline invocation is
    // the ground truth for the same four-start fit.
    let input = fixture("measured_loop.csv");
    let offline = ja_ok(&[
        "fit",
        "--input",
        input.to_str().unwrap(),
        "--starts",
        "4",
        "--seed",
        "42",
    ]);
    let request_body = std::fs::read_to_string(fixture("serve_fit.json")).unwrap();

    let server = Server::spawn("fit");
    assert_served_matches_offline(&server, &request_body, &offline);
    server.shutdown();
}

#[test]
fn health_errors_and_shutdown_speak_the_report_schema() {
    let server = Server::spawn("errors");

    let health = request(server.addr, "GET", "/v1/health", None);
    assert_eq!(health.status, 200);
    assert!(health.body.contains("\"kind\": \"health\""));
    assert!(health.body.contains("\"status\": \"ok\""));

    // Every failure is a kind:"error" document whose `status` mirrors the
    // HTTP status code.
    for (method, path, body, status, fragment) in [
        ("POST", "/v1/eval", Some("{not json"), 400, "invalid JSON"),
        (
            "POST",
            "/v1/eval",
            Some("{\"schema_version\": 1, \"kind\": \"guess\"}"),
            400,
            "unknown request kind",
        ),
        ("GET", "/v1/nope", None, 404, "unknown path"),
        ("DELETE", "/v1/health", None, 405, "not allowed"),
        // An oversized field schedule is refused before any allocation,
        // so the daemon keeps serving (the health check below).
        (
            "POST",
            "/v1/eval",
            Some(
                r#"{"schema_version": 1, "kind": "batch_request",
                    "grid": {"excitation": [{"kind": "major", "peak": 10000, "step": 1e-12}]}}"#,
            ),
            400,
            "2^24 samples",
        ),
    ] {
        let response = request(server.addr, method, path, body);
        assert_eq!(
            response.status, status,
            "{method} {path}: {}",
            response.body
        );
        assert!(
            response.body.contains("\"kind\": \"error\""),
            "{method} {path}: {}",
            response.body
        );
        assert!(
            response.body.contains(&format!("\"status\": {status}")),
            "{method} {path}: {}",
            response.body
        );
        assert!(
            response.body.contains(fragment),
            "{method} {path}: {} should mention {fragment:?}",
            response.body
        );
    }
    assert_eq!(request(server.addr, "GET", "/v1/health", None).status, 200);

    server.shutdown();
}

#[test]
fn oversized_circuit_drive_is_an_error_entry_not_a_dead_daemon() {
    // A drive of 1e18 fixed steps is refused before any buffer is sized
    // from t_end/dt, so it is an ordinary failed entry in a 200 response,
    // and the daemon keeps serving.
    let server = Server::spawn("circuit-ceiling");
    let response = request(
        server.addr,
        "POST",
        "/v1/eval",
        Some(
            r#"{"schema_version": 1, "kind": "batch_request",
                "grid": {"excitation": [{"kind": "circuit", "source": "sine",
                    "amplitude": 30, "frequency": 50, "r": 1, "turns": 200,
                    "area": 1e-4, "path": 0.1, "t_end": 1e12, "dt": 1e-6,
                    "control": "fixed"}]}}"#,
        ),
    );
    assert_eq!(response.status, 200, "{}", response.body);
    assert!(
        response.body.contains("\"status\": \"error\""),
        "{}",
        response.body
    );
    assert!(response.body.contains("`t_end`"), "{}", response.body);
    assert_eq!(request(server.addr, "GET", "/v1/health", None).status, 200);
    server.shutdown();
}

#[cfg(unix)]
#[test]
fn sigterm_drains_to_a_clean_exit() {
    let mut server = Server::spawn("sigterm");
    let status = Command::new("kill")
        .args(["-s", "TERM", &server.child.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(status.success());
    let status = server.child.wait().expect("wait after SIGTERM");
    assert_eq!(status.code(), Some(0), "SIGTERM must drain, not abort");
}

#[test]
fn bench_serve_smoke_reports_both_phases() {
    let out =
        std::env::temp_dir().join(format!("ja-serve-smoke-{}-bench.json", std::process::id()));
    let table = ja_ok(&["bench-serve", "--smoke", "--json", out.to_str().unwrap()]);
    assert!(table.contains("batch_miss"), "{table}");
    assert!(table.contains("batch_hit"), "{table}");
    let doc = std::fs::read_to_string(&out).unwrap();
    let _ = std::fs::remove_file(&out);
    let doc = ja_hysteresis::json::JsonValue::parse(&doc).unwrap();
    assert_eq!(
        doc.get("kind")
            .and_then(ja_hysteresis::json::JsonValue::as_str),
        Some("bench")
    );
    let benches = doc.get("benches").expect("benches object");
    for id in ["serve/batch_miss", "serve/batch_hit"] {
        let median = benches
            .get(id)
            .and_then(ja_hysteresis::json::JsonValue::as_f64)
            .unwrap_or_else(|| panic!("missing bench id {id}"));
        assert!(median > 0.0, "{id} median {median}");
    }
}
