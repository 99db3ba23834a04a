//! End-to-end tests of the `ja` binary and its machine-readable reports.
//!
//! Every JSON document the CLI emits is validated against the report
//! schema (`schema_version`, `kind`, required keys) using the library's
//! own parser, and the batch report is asserted byte-identical across
//! worker counts — the determinism guarantee of the scenario engine must
//! extend through the CLI.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

use ja_hysteresis::json::{JsonValue, SCHEMA_VERSION, SCHEMA_VERSION_KEY};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ja-cli-tests-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir.join(name)
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

fn parse_report(text: &str, kind: &str) -> JsonValue {
    let doc = JsonValue::parse(text).expect("report parses as JSON");
    assert_eq!(
        doc.get(SCHEMA_VERSION_KEY).and_then(JsonValue::as_i64),
        Some(SCHEMA_VERSION),
        "schema_version present and current"
    );
    assert_eq!(doc.get("kind").and_then(JsonValue::as_str), Some(kind));
    doc
}

const METRIC_KEYS: [&str; 6] = [
    "b_max_t",
    "h_max_a_per_m",
    "coercivity_a_per_m",
    "remanence_t",
    "loop_area_j_per_m3",
    "negative_slope_samples",
];

const STATS_KEYS: [&str; 5] = [
    "samples",
    "updates",
    "slope_evaluations",
    "negative_slope_events",
    "rejected_updates",
];

#[test]
fn batch_reports_are_byte_identical_across_worker_counts() {
    let config = fixture("grid.conf");
    let config = config.to_str().unwrap();
    let one = ja_ok(&["batch", "--config", config, "--workers", "1"]);
    let eight = ja_ok(&["batch", "--config", config, "--workers", "8"]);
    assert_eq!(one, eight, "batch report must not depend on --workers");

    let doc = parse_report(&one, "batch");
    assert_eq!(doc.get("scenarios").and_then(JsonValue::as_i64), Some(8));
    assert_eq!(doc.get("succeeded").and_then(JsonValue::as_i64), Some(8));
    assert_eq!(doc.get("failed").and_then(JsonValue::as_i64), Some(0));
    assert!(doc.get("timing").is_none(), "timing is opt-in");
    let entries = doc.get("entries").unwrap().as_array().unwrap();
    assert_eq!(entries.len(), 8);
    for entry in entries {
        assert_eq!(entry.get("status").and_then(JsonValue::as_str), Some("ok"));
        let scenario = entry.get("scenario").and_then(JsonValue::as_str).unwrap();
        assert_eq!(scenario.split('/').count(), 4, "{scenario}");
        assert!(entry.get("samples").and_then(JsonValue::as_i64).unwrap() > 0);
        let metrics = entry.get("metrics").unwrap().as_object().unwrap();
        let keys: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, METRIC_KEYS);
        let stats = entry.get("stats").unwrap().as_object().unwrap();
        let keys: Vec<&str> = stats.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, STATS_KEYS);
    }
}

const TRANSIENT_KEYS: [&str; 5] = [
    "accepted_steps",
    "rejected_steps",
    "newton_iterations",
    "lu_solves",
    "non_converged_steps",
];

#[test]
fn mixed_batch_reports_are_byte_identical_across_worker_counts() {
    // The acceptance gate of the circuit-scenario work: a grid mixing
    // field-driven and circuit-driven (fixed + adaptive) scenarios must
    // stay byte-identical across worker counts, with the deterministic
    // transient counters present on circuit entries only.
    let config = fixture("grid_mixed.conf");
    let config = config.to_str().unwrap();
    let one = ja_ok(&["batch", "--config", config, "--workers", "1"]);
    let eight = ja_ok(&["batch", "--config", config, "--workers", "8"]);
    assert_eq!(
        one, eight,
        "mixed batch report must not depend on --workers"
    );

    let doc = parse_report(&one, "batch");
    assert_eq!(doc.get("scenarios").and_then(JsonValue::as_i64), Some(3));
    assert_eq!(doc.get("succeeded").and_then(JsonValue::as_i64), Some(3));
    let entries = doc.get("entries").unwrap().as_array().unwrap();
    let field_entry = &entries[0];
    assert!(field_entry
        .get("scenario")
        .and_then(JsonValue::as_str)
        .unwrap()
        .starts_with("major("));
    assert!(
        field_entry.get("transient").is_none(),
        "field-driven entries carry no transient object"
    );
    let mut accepted = Vec::new();
    for entry in &entries[1..] {
        assert!(entry
            .get("scenario")
            .and_then(JsonValue::as_str)
            .unwrap()
            .starts_with("circuit("));
        let transient = entry.get("transient").unwrap().as_object().unwrap();
        let keys: Vec<&str> = transient.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, TRANSIENT_KEYS);
        accepted.push(
            entry
                .get("transient")
                .and_then(|t| t.get("accepted_steps"))
                .and_then(JsonValue::as_i64)
                .unwrap(),
        );
    }
    // grid_mixed.conf runs the same circuit fixed then adaptive: the
    // adaptive controller must finish in fewer accepted steps.
    assert!(
        accepted[1] < accepted[0],
        "adaptive {} vs fixed {}",
        accepted[1],
        accepted[0]
    );
}

#[test]
fn circuit_grid_reports_are_byte_identical_across_routing() {
    // Under --routing auto the scenarios of one (material, circuit) cell
    // share one transient solve across the four backends; --routing scalar
    // solves each on its own.  Both formats must not tell them apart.
    let config = fixture("grid_circuits.conf");
    let config = config.to_str().unwrap();
    for format in ["json", "ndjson"] {
        let shared = ja_ok(&[
            "batch",
            "--config",
            config,
            "--format",
            format,
            "--routing",
            "auto",
            "--workers",
            "2",
        ]);
        let scalar = ja_ok(&[
            "batch",
            "--config",
            config,
            "--format",
            format,
            "--routing",
            "scalar",
            "--workers",
            "1",
        ]);
        assert_eq!(shared, scalar, "{format} report depends on circuit sharing");
    }
    let doc = parse_report(
        &ja_ok(&["batch", "--config", config, "--workers", "2"]),
        "batch",
    );
    assert_eq!(doc.get("scenarios").and_then(JsonValue::as_i64), Some(16));
    assert_eq!(doc.get("succeeded").and_then(JsonValue::as_i64), Some(16));
}

#[test]
fn closed_stdout_is_a_clean_failure_not_a_panic() {
    // A reader that exits early (`ja sweep ... | head -1`): the CSV is
    // larger than a pipe buffer, so the write fails on the closed pipe
    // whenever it happens.
    let mut child = Command::new(env!("CARGO_BIN_EXE_ja"))
        .args(["sweep", "--fig1", "--step", "50", "--format", "csv"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn ja");
    drop(child.stdout.take());
    let output = child.wait_with_output().expect("wait for ja");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(stderr.starts_with("ja: "), "stderr: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "stderr: {stderr}");
}

#[test]
fn oversized_field_schedules_fail_cleanly() {
    // Field schedules refuse more than 2^24 samples when they are built,
    // so a vanishing step, a huge cycle count or a decay that never
    // reaches `h_stop` is a clean exit: no abort, no panic, no hang.
    let mut cases: Vec<Vec<String>> = [
        "major peak=10000 step=1e-12",
        "major step=1e-300",
        "major cycles=9223372036854775807",
        "major peak=1e300 step=1",
        "biased cycles=4611686018427387904",
        "degauss h_start=1e300 h_stop=1e-300 decay=0.9999999999 step=1e299",
    ]
    .iter()
    .enumerate()
    .map(|(index, excitation)| {
        let config = scratch(&format!("oversized_{index}.conf"));
        std::fs::write(&config, format!("excitation = {excitation}\n")).unwrap();
        vec![
            "batch".to_owned(),
            "--config".to_owned(),
            config.to_str().unwrap().to_owned(),
        ]
    })
    .collect();
    let input = fixture("measured_loop.csv");
    cases.push(
        [
            "fit",
            "--input",
            input.to_str().unwrap(),
            "--starts",
            "2",
            "--sweep-step",
            "1e-12",
        ]
        .map(str::to_owned)
        .to_vec(),
    );
    for args in &cases {
        let args: Vec<&str> = args.iter().map(String::as_str).collect();
        let output = ja(&args);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            matches!(output.status.code(), Some(1 | 2)),
            "ja {args:?}: {:?} {stderr}",
            output.status
        );
        assert!(!stderr.contains("panicked"), "ja {args:?}: {stderr}");
        assert!(stderr.starts_with("ja: "), "ja {args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "ja {args:?}: {stderr}");
    }
}

#[test]
fn oversized_circuit_drives_fail_cleanly() {
    // A transient run refuses more than 2^24 time steps up front, so a
    // drive that would size its buffers from 1e18 steps, overflow the step
    // count, or need 1e9 adaptive steps is an error entry, not an abort or
    // a hang.
    let run = |args: &[&str]| {
        let started = std::time::Instant::now();
        let output = ja(args);
        let elapsed = started.elapsed();
        let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
        assert_eq!(output.status.code(), Some(1), "ja {args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "ja {args:?}: {stderr}");
        assert!(
            elapsed < std::time::Duration::from_secs(1),
            "ja {args:?} took {elapsed:?}"
        );
        stderr
    };
    for (index, drive) in [
        "t_end=1e12 dt=1e-6 control=fixed",
        "t_end=1e300 dt=1e-300 control=fixed",
        "t_end=1e6 control=adaptive",
    ]
    .iter()
    .enumerate()
    {
        let config = scratch(&format!("oversized_circuit_{index}.conf"));
        let out = scratch(&format!("oversized_circuit_{index}.json"));
        std::fs::write(
            &config,
            format!(
                "excitation = circuit source=sine amplitude=30 frequency=50 r=1 \
                 turns=200 area=1e-4 path=0.1 {drive}\n"
            ),
        )
        .unwrap();
        run(&[
            "batch",
            "--config",
            config.to_str().unwrap(),
            "--out",
            out.to_str().unwrap(),
        ]);
        let report = parse_report(&std::fs::read_to_string(&out).unwrap(), "batch");
        let entries = report.get("entries").and_then(JsonValue::as_array).unwrap();
        assert!(!entries.is_empty(), "{drive}");
        for entry in entries {
            assert_eq!(
                entry.get("status").and_then(JsonValue::as_str),
                Some("error")
            );
            let error = entry.get("error").and_then(JsonValue::as_str).unwrap();
            assert!(error.contains("`t_end`"), "{drive}: {error}");
        }
    }
    for args in [
        ["transient", "--t-end", "1e12", "--dt", "1e-6"].as_slice(),
        ["transient", "--adaptive", "--t-end", "1e6"].as_slice(),
    ] {
        let stderr = run(args);
        assert!(stderr.starts_with("ja: "), "ja {args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "ja {args:?}: {stderr}");
    }
}

#[test]
fn transient_emits_all_three_formats() {
    let json = ja_ok(&["transient", "--t-end", "0.02", "--format", "json"]);
    let doc = parse_report(&json, "transient");
    assert_eq!(doc.get("status").and_then(JsonValue::as_str), Some("ok"));
    let transient = doc.get("transient").unwrap().as_object().unwrap();
    let keys: Vec<&str> = transient.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, TRANSIENT_KEYS);
    assert!(
        doc.get("scenario")
            .and_then(JsonValue::as_str)
            .unwrap()
            .starts_with("circuit(sine(amplitude=30,frequency=50)"),
        "stable scenario key"
    );

    let adaptive = ja_ok(&[
        "transient",
        "--adaptive",
        "--t-end",
        "0.02",
        "--format",
        "json",
    ]);
    let adaptive_doc = parse_report(&adaptive, "transient");
    let steps = |doc: &JsonValue| {
        doc.get("transient")
            .and_then(|t| t.get("accepted_steps"))
            .and_then(JsonValue::as_i64)
            .unwrap()
    };
    assert!(
        steps(&adaptive_doc) < steps(&doc),
        "adaptive {} vs fixed {}",
        steps(&adaptive_doc),
        steps(&doc)
    );

    let csv = ja_ok(&["transient", "--t-end", "0.02", "--format", "csv"]);
    assert_eq!(csv.lines().next(), Some("h,b,m"));
    assert!(csv.lines().count() > 100);

    let ascii = ja_ok(&["transient", "--t-end", "0.02"]);
    assert!(ascii.contains('*'));
    assert!(ascii.contains("accepted_steps"));
}

#[test]
fn transient_usage_errors() {
    for args in [
        &["transient", "--source", "square"] as &[&str],
        &["transient", "--rel-tol", "0.5"],
        &["transient", "--dt", "0"],
        &["transient", "--adaptive", "--abs-tol", "0"],
        &["transient", "--adaptive", "--max-step", "1e-15"],
        &["transient", "--format", "xml", "--t-end", "0.001"],
    ] {
        let output = ja(args);
        assert_eq!(output.status.code(), Some(2), "ja {args:?}");
        assert!(!output.stderr.is_empty());
    }
}

#[test]
fn batch_timings_flag_adds_the_timing_block() {
    let config = fixture("grid.conf");
    let out = ja_ok(&[
        "batch",
        "--config",
        config.to_str().unwrap(),
        "--workers",
        "2",
        "--timings",
    ]);
    let doc = parse_report(&out, "batch");
    let timing = doc.get("timing").expect("timing present with --timings");
    assert_eq!(timing.get("workers").and_then(JsonValue::as_i64), Some(2));
    assert!(
        timing
            .get("elapsed_ns")
            .and_then(JsonValue::as_i64)
            .unwrap()
            > 0
    );
    let entries = doc.get("entries").unwrap().as_array().unwrap();
    assert!(entries[0].get("wall_clock_ns").is_some());
    assert!(entries[0].get("runtime_ns").is_some());
}

#[test]
fn batch_ndjson_streams_identically_across_workers_and_resume() {
    let config = fixture("grid.conf");
    let config = config.to_str().unwrap();
    let one = ja_ok(&["batch", "--config", config, "--format", "ndjson"]);
    let eight = ja_ok(&[
        "batch",
        "--config",
        config,
        "--format",
        "ndjson",
        "--workers",
        "8",
    ]);
    assert_eq!(one, eight, "NDJSON stream must not depend on --workers");

    let lines: Vec<&str> = one.lines().collect();
    assert_eq!(lines.len(), 9, "8 records + 1 manifest line");
    for (index, line) in lines[..8].iter().enumerate() {
        let record = JsonValue::parse(line).expect("record parses");
        assert_eq!(
            record.get("index").and_then(JsonValue::as_i64),
            Some(index as i64)
        );
        assert_eq!(record.get("status").and_then(JsonValue::as_str), Some("ok"));
        assert!(record.get("wall_clock_ns").is_none(), "no timings, ever");
    }
    let manifest = JsonValue::parse(lines[8]).expect("manifest parses");
    assert_eq!(
        manifest.get("kind").and_then(JsonValue::as_str),
        Some("batch_manifest")
    );
    assert_eq!(
        manifest.get("succeeded").and_then(JsonValue::as_i64),
        Some(8)
    );

    // --output writes the same bytes and cleans its checkpoint up.
    let out = scratch("stream.ndjson");
    let out_path = out.to_str().unwrap();
    ja_ok(&[
        "batch",
        "--config",
        config,
        "--format",
        "ndjson",
        "--output",
        out_path,
        "--checkpoint-every",
        "1",
    ]);
    assert_eq!(std::fs::read_to_string(&out).unwrap(), one);
    let checkpoint = format!("{out_path}.checkpoint");
    assert!(
        !Path::new(&checkpoint).exists(),
        "completed runs delete their checkpoint"
    );

    // Kill a checkpointing run mid-grid, resume it, and demand the final
    // file be byte-identical to the uninterrupted stream. If the run wins
    // the race and completes before the kill, its checkpoint is already
    // gone and the file must stand on its own.
    let out = scratch("stream_resumed.ndjson");
    let out_path = out.to_str().unwrap();
    let checkpoint = format!("{out_path}.checkpoint");
    let _ = std::fs::remove_file(&checkpoint);
    let mut child = Command::new(env!("CARGO_BIN_EXE_ja"))
        .args([
            "batch",
            "--config",
            config,
            "--format",
            "ndjson",
            "--workers",
            "1",
            "--output",
            out_path,
            "--checkpoint-every",
            "1",
        ])
        .spawn()
        .expect("spawn ja");
    for _ in 0..5000 {
        if Path::new(&checkpoint).exists() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let _ = child.kill();
    let _ = child.wait();
    if Path::new(&checkpoint).exists() {
        ja_ok(&[
            "batch",
            "--config",
            config,
            "--format",
            "ndjson",
            "--workers",
            "8",
            "--output",
            out_path,
            "--resume",
            &checkpoint,
        ]);
    }
    assert_eq!(
        std::fs::read_to_string(&out).unwrap(),
        one,
        "resumed file diverged from the uninterrupted stream"
    );
    assert!(!Path::new(&checkpoint).exists());
}

#[test]
fn batch_ndjson_usage_errors() {
    let config = fixture("grid.conf");
    let config = config.to_str().unwrap();
    for args in [
        &["batch", "--config", config, "--format", "xml"] as &[&str],
        &[
            "batch",
            "--config",
            config,
            "--format",
            "ndjson",
            "--timings",
        ],
        &[
            "batch",
            "--config",
            config,
            "--format",
            "ndjson",
            "--resume",
            "x.checkpoint",
        ],
        &[
            "batch",
            "--config",
            config,
            "--format",
            "ndjson",
            "--checkpoint-every",
            "4",
        ],
        &["batch", "--config", config, "--resume", "x.checkpoint"],
        &["batch", "--config", config, "--out", "a", "--output", "b"],
    ] {
        let output = ja(args);
        assert_eq!(output.status.code(), Some(2), "ja {args:?}");
        assert!(!output.stderr.is_empty(), "ja {args:?} explains itself");
    }
}

#[test]
fn sweep_emits_all_three_formats() {
    let json = ja_ok(&["sweep", "--step", "250", "--format", "json"]);
    let doc = parse_report(&json, "sweep");
    assert_eq!(doc.get("status").and_then(JsonValue::as_str), Some("ok"));
    assert_eq!(
        doc.get("backend").and_then(JsonValue::as_str),
        Some("direct-timeless")
    );
    assert_eq!(
        doc.get("scenario").and_then(JsonValue::as_str),
        Some("major(peak=10000,step=250,cycles=1)/direct-timeless/dh10/date2006")
    );
    let b_max = doc
        .get("metrics")
        .and_then(|m| m.get("b_max_t"))
        .and_then(JsonValue::as_f64)
        .unwrap();
    assert!(b_max > 1.2, "B_max = {b_max} T");

    let csv = ja_ok(&["sweep", "--step", "250", "--format", "csv"]);
    let mut lines = csv.lines();
    assert_eq!(lines.next(), Some("h,b,m"));
    assert!(lines.clone().count() > 100);
    // Lossless round-trip: every value parses back to a finite f64.
    for line in lines {
        for field in line.split(',') {
            let v: f64 = field.parse().expect(field);
            assert!(v.is_finite());
        }
    }

    let ascii = ja_ok(&["sweep", "--step", "250", "--format", "ascii"]);
    assert!(ascii.contains('*'));
    assert!(ascii.contains("b_max_t"));
}

#[test]
fn fit_recovers_the_fixture_loop() {
    let input = fixture("measured_loop.csv");
    let out = ja_ok(&["fit", "--input", input.to_str().unwrap()]);
    let doc = parse_report(&out, "fit");
    assert_eq!(
        doc.get("h_peak_a_per_m").and_then(JsonValue::as_f64),
        Some(10_000.0),
        "h_peak defaults to the input's max |H|"
    );
    let measured = doc.get("measured").unwrap().as_object().unwrap();
    let keys: Vec<&str> = measured.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, METRIC_KEYS);
    let params = doc.get("params").unwrap().as_object().unwrap();
    let keys: Vec<&str> = params.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "m_sat_a_per_m",
            "a_a_per_m",
            "a2_a_per_m",
            "k_a_per_m",
            "alpha",
            "c"
        ]
    );
    let cost = doc.get("cost").and_then(JsonValue::as_f64).unwrap();
    assert!(cost < 0.15, "residual cost {cost}");
    assert!(doc.get("evaluations").and_then(JsonValue::as_i64).unwrap() > 10);
}

#[test]
fn fit_multistart_reports_are_byte_identical_across_worker_counts() {
    let input = fixture("measured_loop.csv");
    let input = input.to_str().unwrap();
    let run = |workers: &str| {
        ja_ok(&[
            "fit",
            "--input",
            input,
            "--starts",
            "4",
            "--seed",
            "42",
            "--passes",
            "3",
            "--workers",
            workers,
        ])
    };
    let one = run("1");
    let eight = run("8");
    assert_eq!(one, eight, "fit report must not depend on --workers");

    let doc = parse_report(&one, "fit");
    assert_eq!(doc.get("starts").and_then(JsonValue::as_i64), Some(4));
    assert_eq!(doc.get("seed").and_then(JsonValue::as_i64), Some(42));
    assert!(doc.get("timing").is_none(), "timing is opt-in");
    let entries = doc.get("entries").unwrap().as_array().unwrap();
    assert_eq!(entries.len(), 4);
    let cost = |v: &JsonValue| v.get("cost").and_then(JsonValue::as_f64).unwrap();
    let best = doc.get("best_start").and_then(JsonValue::as_i64).unwrap() as usize;
    // Start 0 is the plain initial guess (the single-start fit), so the
    // best-of selection can only match or improve on it.
    assert!(cost(&entries[best]) <= cost(&entries[0]));
    assert_eq!(
        doc.get("cost").and_then(JsonValue::as_f64),
        Some(cost(&entries[best]))
    );
}

#[test]
fn fit_config_fits_a_library_in_one_batch() {
    let config = fixture("fit_library.conf");
    let out = ja_ok(&[
        "fit",
        "--config",
        config.to_str().unwrap(),
        "--starts",
        "2",
        "--passes",
        "2",
        "--sweep-step",
        "10",
    ]);
    let doc = parse_report(&out, "fit");
    let loops = doc.get("loops").unwrap().as_array().unwrap();
    assert_eq!(loops.len(), 2);
    assert_eq!(
        loops[0].get("loop").and_then(JsonValue::as_str),
        Some("measured_loop")
    );
    assert_eq!(
        loops[1].get("loop").and_then(JsonValue::as_str),
        Some("soft-ferrite")
    );
    for loop_fit in loops {
        assert!(loop_fit
            .get("best_start")
            .and_then(JsonValue::as_i64)
            .is_some());
        assert_eq!(
            loop_fit.get("entries").unwrap().as_array().unwrap().len(),
            2
        );
        let params = loop_fit.get("params").unwrap().as_object().unwrap();
        assert_eq!(params.len(), 6);
    }
}

/// Report bytes pinned across commits.  Every other identity check in
/// this suite compares two runs of one binary (workers, routing, served vs
/// offline), so a change that moved a metric's bits on every path at once
/// would pass them all; each command here must reproduce the report
/// committed under `tests/fixtures/golden/` byte for byte.  Between them
/// they cover the loop metrics of a grid, a loss beside `metrics: null`
/// and a two-lane degauss lockstep job, the event-kernel backend across
/// two thresholds, all four backends side by side with their worst
/// pairwise |ΔB|, the lane fold of the fit objective, a library fit,
/// four loss lanes with their Steinmetz fit, and the soft-ferrite inrush
/// circuit under fixed and adaptive steps, whose Newton solves cycle
/// between iterates in hundreds of steps.  The NDJSON files pin the
/// streamed records of the field, thermal and circuit grids, and
/// `grid_partial.conf` pins an `ok` entry, a `metrics: null` entry and an
/// `error` entry in both formats; that grid exits 1 after writing its
/// report, so its stdout is compared.
///
/// The bytes are pinned for x86-64 Linux, where CI runs, so the test runs
/// only there: thermal scaling (`powf`), the fits' starting points and the
/// Steinmetz fit (`ln`, `exp`) call the platform's libm, whose last-ulp
/// results may differ on other targets.  These files change only in a
/// change that says why its reports change.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
#[test]
fn reports_match_the_golden_files() {
    /// The line number and both texts of the first line where `actual`
    /// departs from `expected`, or `None` when the two are byte-identical.
    fn first_difference(expected: &str, actual: &str) -> Option<String> {
        if expected == actual {
            return None;
        }
        let mut want = expected.split_inclusive('\n');
        let mut got = actual.split_inclusive('\n');
        for line in 1.. {
            match (want.next(), got.next()) {
                (Some(w), Some(g)) if w == g => continue,
                (w, g) => {
                    return Some(format!(
                        "line {line}: expected {:?}, got {:?}",
                        w.unwrap_or("<end of report>"),
                        g.unwrap_or("<end of report>")
                    ))
                }
            }
        }
        unreachable!("unequal texts differ at some line")
    }

    let path = |name: &str| fixture(name).to_str().unwrap().to_owned();
    let (grid, thermal) = (path("grid.conf"), path("grid_thermal.conf"));
    let (systemc, mixed) = (path("grid_systemc.conf"), path("grid_mixed.conf"));
    let partial = path("grid_partial.conf");
    let (measured, library) = (path("measured_loop.csv"), path("fit_library.conf"));
    let targets = path("flux_targets.csv");
    let cases: [(&str, &[&str]); 16] = [
        ("batch_grid.json", &["batch", "--config", &grid]),
        ("batch_grid_thermal.json", &["batch", "--config", &thermal]),
        ("batch_grid_systemc.json", &["batch", "--config", &systemc]),
        (
            "batch_grid.ndjson",
            &["batch", "--config", &grid, "--format", "ndjson"],
        ),
        (
            "batch_grid_thermal.ndjson",
            &["batch", "--config", &thermal, "--format", "ndjson"],
        ),
        (
            "batch_grid_mixed.ndjson",
            &["batch", "--config", &mixed, "--format", "ndjson"],
        ),
        ("batch_grid_partial.json", &["batch", "--config", &partial]),
        (
            "batch_grid_partial.ndjson",
            &["batch", "--config", &partial, "--format", "ndjson"],
        ),
        (
            "sweep_fig1.json",
            &["sweep", "--fig1", "--step", "50", "--format", "json"],
        ),
        (
            "inverse_flux_targets.json",
            &["inverse", "--input", &targets, "--format", "json"],
        ),
        ("compare.json", &["compare", "--format", "json"]),
        (
            "fit_measured_loop.json",
            &["fit", "--input", &measured, "--starts", "4", "--seed", "42"],
        ),
        (
            "fit_library.json",
            &[
                "fit",
                "--config",
                &library,
                "--starts",
                "2",
                "--sweep-step",
                "10",
            ],
        ),
        (
            "lossmap.json",
            &[
                "lossmap",
                "--materials",
                "date2006",
                "--frequencies",
                "50:100",
                "--amplitudes",
                "10000",
                "--temperatures",
                "25:75",
                "--laminated",
            ],
        ),
        (
            "transient_soft_ferrite.json",
            &[
                "transient",
                "--material",
                "soft-ferrite",
                "--format",
                "json",
            ],
        ),
        (
            "transient_soft_ferrite_adaptive.json",
            &[
                "transient",
                "--material",
                "soft-ferrite",
                "--format",
                "json",
                "--adaptive",
            ],
        ),
    ];
    for (golden, args) in cases {
        let expected = std::fs::read_to_string(fixture(&format!("golden/{golden}")))
            .unwrap_or_else(|err| panic!("golden/{golden}: {err}"));
        let output = ja(args);
        let exit = if golden.starts_with("batch_grid_partial") {
            1
        } else {
            0
        };
        assert_eq!(
            output.status.code(),
            Some(exit),
            "ja {args:?}: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        let actual = String::from_utf8(output.stdout).expect("stdout is UTF-8");
        if let Some(difference) = first_difference(&expected, &actual) {
            panic!(
                "`ja {}` departs from golden/{golden} at {difference}",
                args.join(" ")
            );
        }
    }
}

#[test]
fn inverse_follows_the_fixture_flux_targets() {
    let input = fixture("flux_targets.csv");
    let input = input.to_str().unwrap();
    let csv = ja_ok(&["inverse", "--input", input]);
    let mut lines = csv.lines();
    assert_eq!(lines.next(), Some("h,b,m"));
    assert_eq!(lines.count(), 97, "one output row per target");

    let json = ja_ok(&["inverse", "--input", input, "--format", "json"]);
    let doc = parse_report(&json, "inverse");
    assert_eq!(doc.get("samples").and_then(JsonValue::as_i64), Some(97));
    let b_peak = doc.get("b_peak_t").and_then(JsonValue::as_f64).unwrap();
    assert!((b_peak - 1.2).abs() < 1e-3, "b_peak = {b_peak}");
    assert!(
        doc.get("h_peak_a_per_m")
            .and_then(JsonValue::as_f64)
            .unwrap()
            > 0.0
    );
}

#[test]
fn compare_reports_timeless_agreement() {
    let out = ja_ok(&[
        "compare",
        "--backends",
        "timeless",
        "--step",
        "250",
        "--format",
        "json",
    ]);
    let doc = parse_report(&out, "compare");
    let outcomes = doc.get("outcomes").unwrap().as_array().unwrap();
    assert_eq!(outcomes.len(), 3);
    let relative = doc
        .get("relative_diff")
        .and_then(JsonValue::as_f64)
        .unwrap();
    assert!(
        relative < 0.05,
        "timeless backends agree to 1% of peak B on fine steps; got {relative}"
    );
    let table = ja_ok(&["compare", "--backends", "timeless", "--step", "250"]);
    assert!(table.contains("direct-timeless"));
    assert!(table.contains("worst pairwise"));
}

#[test]
fn bench_gate_passes_within_tolerance_and_fails_on_regression() {
    let baseline = scratch("baseline.json");
    std::fs::write(
        &baseline,
        "{\"schema_version\": 1, \"kind\": \"bench\", \
         \"benches\": {\"a\": 100.0, \"b\": 200.0}}",
    )
    .unwrap();
    let ok_current = scratch("current_ok.json");
    std::fs::write(
        &ok_current,
        "{\"schema_version\": 1, \"kind\": \"bench\", \
         \"benches\": {\"a\": 180.0, \"b\": 150.0, \"c\": 5.0}}",
    )
    .unwrap();
    let summary = scratch("summary.md");
    let _ = std::fs::remove_file(&summary);
    let table = ja_ok(&[
        "bench-gate",
        "--baseline",
        baseline.to_str().unwrap(),
        "--current",
        ok_current.to_str().unwrap(),
        "--summary",
        summary.to_str().unwrap(),
    ]);
    assert!(
        table.contains("| a | 100.0 | 180.0 | 1.80 | ok |"),
        "{table}"
    );
    assert!(table.contains("| c | - | 5.0 | - | new |"), "{table}");
    assert!(table.contains("0 gate failures"), "{table}");
    let written = std::fs::read_to_string(&summary).unwrap();
    assert_eq!(written, table, "summary file gets the same markdown");

    let bad_current = scratch("current_bad.json");
    std::fs::write(
        &bad_current,
        "{\"schema_version\": 1, \"kind\": \"bench\", \"benches\": {\"a\": 300.0}}",
    )
    .unwrap();
    let output = ja(&[
        "bench-gate",
        "--baseline",
        baseline.to_str().unwrap(),
        "--current",
        bad_current.to_str().unwrap(),
    ]);
    assert_eq!(
        output.status.code(),
        Some(1),
        "regression + missing => exit 1"
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("a (REGRESSION)"), "{stderr}");
    assert!(stderr.contains("b (missing)"), "{stderr}");
}

#[test]
fn bench_gate_rejects_schema_drift() {
    let future = scratch("future.json");
    std::fs::write(
        &future,
        "{\"schema_version\": 99, \"kind\": \"bench\", \"benches\": {}}",
    )
    .unwrap();
    let output = ja(&[
        "bench-gate",
        "--baseline",
        future.to_str().unwrap(),
        "--current",
        future.to_str().unwrap(),
    ]);
    assert_eq!(output.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&output.stderr).contains("schema_version"),
        "schema mismatch must be reported"
    );
}

#[test]
fn usage_errors_exit_with_code_2() {
    for args in [
        &["transmogrify"] as &[&str],
        &["batch"],
        &["sweep", "--nope"],
        &["sweep", "--format", "xml"],
        &["sweep", "--fig1", "--peak", "5000"],
        &["compare", "--fig1", "--peak", "5000"],
        &["fit"],
        &["bench-gate", "--max-ratio", "2.5"],
        &[],
    ] {
        let output = ja(args);
        assert_eq!(output.status.code(), Some(2), "ja {args:?}");
        assert!(!output.stderr.is_empty(), "ja {args:?} explains itself");
    }
    // Invalid fit *options* are a bad invocation too, even with valid input.
    let input = fixture("measured_loop.csv");
    let input = input.to_str().unwrap();
    for args in [
        &["fit", "--input", input, "--passes", "0"] as &[&str],
        &["fit", "--input", input, "--starts", "0"],
        &["fit", "--input", input, "--starts", "65537"],
        &["fit", "--input", input, "--starts", "1099511627776"],
        &["fit", "--input", input, "--config", "x.conf"],
    ] {
        let output = ja(args);
        assert_eq!(
            output.status.code(),
            Some(2),
            "ja {args:?} is a usage error, not a runtime failure"
        );
    }
}

#[test]
fn help_prints_the_schema_and_exits_zero() {
    let help = ja_ok(&["--help"]);
    assert!(help.contains("REPORT SCHEMA"));
    assert!(help.contains("schema_version"));
    assert!(help.contains("bench-gate"));
    for sub in [
        "sweep",
        "transient",
        "batch",
        "fit",
        "inverse",
        "compare",
        "bench-gate",
    ] {
        let text = ja_ok(&["help", sub]);
        assert!(text.contains(sub), "help for {sub}");
    }
    let version = ja_ok(&["--version"]);
    assert!(version.starts_with("ja "));
}

#[test]
fn batch_failures_are_reported_and_exit_nonzero() {
    // A grid whose SystemC scenarios run fine but whose config the AMS/
    // direct backends reject is hard to build; instead use fail-fast on a
    // config file whose grid is valid but empty of excitations.
    let empty = scratch("empty_grid.conf");
    std::fs::write(&empty, "material = date2006\n").unwrap();
    let output = ja(&["batch", "--config", empty.to_str().unwrap()]);
    assert_eq!(output.status.code(), Some(2), "empty grid is a usage error");
    assert!(String::from_utf8_lossy(&output.stderr).contains("excitations"));
}
