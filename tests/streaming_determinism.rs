//! Determinism of the streaming NDJSON path: the byte stream written by
//! `report::write_ndjson_batch` must be identical across 1/2/8 worker
//! counts, and an interrupted run resumed from its checkpoint must
//! reproduce the uninterrupted bytes exactly — including the final
//! manifest line and its entries digest.  The stored report, rendered on
//! the workers by `report::run_batch_report`, must agree with the stream
//! entry for entry, byte for byte.

use std::io::{self, Write};

use ja_repro::hdl_models::exec::{BatchRunner, SoaRouting};
use ja_repro::hdl_models::report::{
    batch_report_value, run_batch_report, write_ndjson_batch, StreamCheckpoint,
};
use ja_repro::hdl_models::scenario::{
    BackendKind, CircuitExcitation, Excitation, OperatingPoint, Scenario, ScenarioGrid,
};
use ja_repro::ja_hysteresis::config::JaConfig;
use ja_repro::ja_hysteresis::json::JsonValue;
use ja_repro::magnetics::geometry::CoreGeometry;
use ja_repro::magnetics::losses::LaminationSpec;
use ja_repro::magnetics::material::JaParameters;
use ja_repro::magnetics::thermal::ThermalCoefficients;

fn grid() -> ScenarioGrid {
    ScenarioGrid::new()
        .backends(BackendKind::ALL)
        .config("dh10", JaConfig::default())
        .config("dh25", JaConfig::default().with_dh_max(25.0))
        .excitation("fig1", Excitation::fig1(500.0).expect("excitation"))
        .excitation(
            "major",
            Excitation::major_loop(10_000.0, 250.0, 1).expect("excitation"),
        )
}

fn stream_with_workers(workers: usize) -> (Vec<u8>, StreamCheckpoint) {
    let scenarios = grid().scenarios().expect("non-empty grid");
    let runner = BatchRunner::new().workers(workers);
    let mut bytes = Vec::new();
    let state = write_ndjson_batch(&runner, &scenarios, None, &mut bytes, |_, _| Ok(()))
        .expect("in-memory stream cannot fail");
    (bytes, state)
}

#[test]
fn ndjson_stream_is_byte_identical_across_worker_counts() {
    let (reference, state) = stream_with_workers(1);
    assert_eq!(state.entries, 16); // 4 backends x 2 configs x 2 excitations
    assert_eq!(state.failed, 0);

    let text = String::from_utf8(reference.clone()).expect("NDJSON is UTF-8");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 17, "16 records + 1 manifest line");
    for (index, line) in lines[..16].iter().enumerate() {
        let record = JsonValue::parse(line).expect("record parses");
        assert_eq!(
            record.get("index").and_then(JsonValue::as_i64),
            Some(index as i64),
            "records are emitted in grid order"
        );
    }
    let manifest = JsonValue::parse(lines[16]).expect("manifest parses");
    assert_eq!(
        manifest.get("kind").and_then(JsonValue::as_str),
        Some("batch_manifest")
    );
    assert_eq!(
        manifest.get("scenarios").and_then(JsonValue::as_i64),
        Some(16)
    );
    assert_eq!(
        manifest
            .get("entries_digest")
            .and_then(JsonValue::as_str)
            .map(str::to_owned),
        Some(format!("{:032x}", state.digest_state))
    );

    for workers in [2, 8] {
        let (bytes, _) = stream_with_workers(workers);
        assert_eq!(
            bytes, reference,
            "{workers}-worker NDJSON stream diverged from the single-worker stream"
        );
    }
}

#[test]
fn interrupted_and_resumed_stream_is_byte_identical_to_uninterrupted() {
    let (reference, _) = stream_with_workers(2);
    let scenarios = grid().scenarios().expect("non-empty grid");

    // Interrupt after the fifth record, with the last durable checkpoint
    // taken at the third — exactly the window a crash leaves behind.
    let mut bytes = Vec::new();
    let mut durable: Option<StreamCheckpoint> = None;
    let runner = BatchRunner::new().workers(2);
    let result = write_ndjson_batch(&runner, &scenarios, None, &mut bytes, |state, _| {
        if state.entries == 3 {
            durable = Some(*state);
        }
        if state.entries == 5 {
            return Err(io::Error::other("simulated crash"));
        }
        Ok(())
    });
    assert!(result.is_err(), "the interrupt must surface");
    let checkpoint = durable.expect("checkpoint was taken");
    assert_eq!(checkpoint.entries, 3);

    // The resume protocol: truncate to the checkpointed offset (the CLI's
    // `set_len`), discarding the two records — and any torn tail — that
    // landed after the checkpoint.
    bytes.truncate(checkpoint.byte_offset as usize);
    write!(bytes, "{{\"index\":99,\"scen").expect("vec write");
    bytes.truncate(checkpoint.byte_offset as usize);

    let resumed_state = write_ndjson_batch(
        &runner,
        &scenarios,
        Some(&checkpoint),
        &mut bytes,
        |_, _| Ok(()),
    )
    .expect("resume succeeds");
    assert_eq!(resumed_state.entries, scenarios.len());
    assert_eq!(
        bytes, reference,
        "resumed stream diverged from the uninterrupted stream"
    );
}

#[test]
fn resume_refuses_a_checkpoint_from_a_different_grid() {
    let (_, finished) = stream_with_workers(1);
    let other = ScenarioGrid::new()
        .backend(BackendKind::DirectTimeless)
        .config("dh10", JaConfig::default())
        .excitation("fig1", Excitation::fig1(500.0).expect("excitation"))
        .scenarios()
        .expect("non-empty grid");
    let runner = BatchRunner::new().workers(1);
    let mut bytes = Vec::new();
    let err = write_ndjson_batch(&runner, &other, Some(&finished), &mut bytes, |_, _| Ok(()))
        .expect_err("grid mismatch must be rejected");
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    assert!(bytes.is_empty(), "nothing may be written on a refusal");
}

/// A thermal loss grid: two materials at three laminated 50 Hz operating
/// points, so auto routing forms one two-lane lockstep group per point and
/// every entry carries temperature, frequency and a loss object.
fn thermal_loss_grid() -> Vec<Scenario> {
    let mut grid = ScenarioGrid::new()
        .material_with_thermal(
            "date2006",
            JaParameters::date2006(),
            ThermalCoefficients::date2006(),
        )
        .material_with_thermal(
            "hard-steel",
            JaParameters::hard_steel(),
            ThermalCoefficients::hard_steel(),
        )
        .backend(BackendKind::DirectTimeless)
        .excitation(
            "major",
            Excitation::major_loop(10_000.0, 250.0, 1).expect("excitation"),
        );
    for t_c in [-40.0, 25.0, 125.0] {
        grid = grid.operating_point(
            format!("t{t_c}"),
            OperatingPoint::at_temperature(t_c)
                .with_frequency(50.0)
                .with_geometry(CoreGeometry::demo())
                .with_lamination(LaminationSpec::silicon_steel_0p35mm()),
        );
    }
    grid.scenarios().expect("non-empty grid")
}

/// Every backend over a field-driven loop and a circuit-driven inrush, so
/// entries carry event-kernel counters and transient statistics.
fn mixed_backend_circuit_grid() -> Vec<Scenario> {
    let mut inrush = CircuitExcitation::inrush();
    inrush.t_end = 0.02;
    ScenarioGrid::new()
        .material("date2006", JaParameters::date2006())
        .material("hard-steel", JaParameters::hard_steel())
        .backends(BackendKind::ALL)
        .excitation(
            "major",
            Excitation::major_loop(10_000.0, 250.0, 1).expect("excitation"),
        )
        .excitation("inrush", Excitation::Circuit(inrush))
        .scenarios()
        .expect("non-empty grid")
}

const ROUTINGS: [SoaRouting; 3] = [
    SoaRouting::Auto,
    SoaRouting::ForceSoa,
    SoaRouting::ForceScalar,
];

#[test]
fn stored_entries_are_byte_equal_to_ndjson_records() {
    for (label, scenarios) in [
        ("thermal", thermal_loss_grid()),
        ("mixed", mixed_backend_circuit_grid()),
    ] {
        let mut reference: Option<String> = None;
        for workers in [1, 2, 8] {
            for routing in ROUTINGS {
                let runner = BatchRunner::new().workers(workers).soa_routing(routing);
                let (stored, summary) = run_batch_report(&runner, &scenarios, false);
                assert_eq!(summary.failed, 0, "{label}");
                let entries = stored.get("entries").and_then(JsonValue::as_array).unwrap();

                let mut stream = Vec::new();
                write_ndjson_batch(&runner, &scenarios, None, &mut stream, |_, _| Ok(()))
                    .expect("in-memory stream");
                let stream = String::from_utf8(stream).expect("NDJSON is UTF-8");
                let records: Vec<&str> = stream.lines().collect();
                assert_eq!(records.len(), entries.len() + 1, "records + manifest");
                for (index, (entry, record)) in entries.iter().zip(&records).enumerate() {
                    // The record is `{"index":i,` followed by the entry's
                    // own compact bytes.
                    let prefix = format!("{{\"index\":{index},");
                    let tail = record
                        .strip_prefix(&prefix)
                        .expect("records lead with index");
                    assert_eq!(
                        format!("{{{tail}"),
                        entry.to_compact_string(),
                        "{label} entry {index}, {workers} workers, {routing:?}"
                    );
                }

                // The stored report is byte-identical across workers and
                // routing, and to the document built from a `BatchReport`.
                let pretty = stored.to_pretty_string();
                match &reference {
                    None => {
                        let report = runner.run(scenarios.clone());
                        assert_eq!(
                            pretty,
                            batch_report_value(&report, false).to_pretty_string()
                        );
                        reference = Some(pretty);
                    }
                    Some(reference) => {
                        assert_eq!(
                            &pretty, reference,
                            "{label}, {workers} workers, {routing:?}"
                        )
                    }
                }
            }
        }
    }
}

/// The keys of a JSON object, in document order.
fn keys(value: &JsonValue) -> Vec<&str> {
    value
        .as_object()
        .expect("object")
        .iter()
        .map(|(key, _)| key.as_str())
        .collect()
}

#[test]
fn timings_report_keeps_its_exact_key_set() {
    let outcome_keys = [
        "scenario", "status", "backend", "samples", "metrics", "stats",
    ];
    let loss_keys = ["temperature_c", "frequency_hz", "loss"];
    let expected_keys = |entry: &JsonValue| -> Vec<String> {
        let backend = entry.get("backend").and_then(JsonValue::as_str).unwrap();
        let mut expected: Vec<&str> = outcome_keys.to_vec();
        if entry.get("transient").is_some() {
            expected.push("transient");
        }
        if entry.get("loss").is_some() {
            expected.extend(loss_keys);
        }
        expected.push("runtime_ns");
        if entry.get("backend_routing").is_some() {
            expected.extend(["backend_routing", "lockstep_lanes"]);
        }
        if backend == BackendKind::SystemC.label() {
            expected.push("kernel");
        }
        expected.push("wall_clock_ns");
        expected.into_iter().map(str::to_owned).collect()
    };

    for (scenarios, thermal) in [
        (thermal_loss_grid(), true),
        (mixed_backend_circuit_grid(), false),
    ] {
        let runner = BatchRunner::new().workers(2);
        let (timed, _) = run_batch_report(&runner, &scenarios, true);
        assert_eq!(
            keys(&timed),
            [
                "schema_version",
                "kind",
                "scenarios",
                "succeeded",
                "failed",
                "entries",
                "timing"
            ]
        );
        let timing = timed.get("timing").unwrap();
        assert_eq!(
            keys(timing),
            ["workers", "elapsed_ns", "serial_ns", "speedup"]
        );
        assert_eq!(timing.get("workers").and_then(JsonValue::as_i64), Some(2));

        let entries = timed.get("entries").and_then(JsonValue::as_array).unwrap();
        for entry in entries {
            assert_eq!(keys(entry), expected_keys(entry), "{entry:?}");
        }
        let count = |key: &str| entries.iter().filter(|e| e.get(key).is_some()).count();
        if thermal {
            // Every point is a two-lane lockstep group carrying a loss.
            assert_eq!(count("backend_routing"), entries.len());
            assert_eq!(count("loss"), entries.len());
        } else {
            // Only the direct field-driven pair groups; the event-kernel
            // and circuit entries carry their own counters.
            assert_eq!(count("backend_routing"), 2);
            assert!(count("kernel") > 0);
            assert!(count("transient") > 0);
        }

        // Same shape as the document built from a stored `BatchReport`.
        let stored = batch_report_value(&runner.run(scenarios.clone()), true);
        let stored_entries = stored.get("entries").and_then(JsonValue::as_array).unwrap();
        for (entry, stored) in entries.iter().zip(stored_entries) {
            assert_eq!(keys(entry), keys(stored));
        }
    }
}
