//! Offline stand-in for the crates.io `criterion` crate.
//!
//! Provides the API subset used by the workspace's bench targets
//! (`Criterion::default().configure_from_args()`, `benchmark_group`,
//! `sample_size`, `bench_function`, `Bencher::iter`, `finish`,
//! `final_summary`, [`black_box`]) backed by a simple wall-clock timing
//! loop: each benchmark runs `sample_size` samples and reports min /
//! median / max per-iteration time.  There is no statistical analysis,
//! outlier rejection or HTML report generation.
//!
//! Two harness flags extend the real crate's CLI for CI use:
//!
//! * `--smoke` — caps every benchmark at 2 samples (overriding group
//!   `sample_size` settings), so a full bench run completes in seconds and
//!   merely proves the targets still execute;
//! * `--json <path>` — when [`Criterion::final_summary`] runs, writes the
//!   collected medians in the workspace's versioned report format
//!
//!   ```json
//!   {
//!     "schema_version": 1,
//!     "kind": "bench",
//!     "benches": {"bench id": median_ns, ...}
//!   }
//!   ```
//!
//!   seeding the perf-trajectory artifact the CI pipeline uploads and the
//!   `ja bench-gate` regression gate consumes.

use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Version of the shared report schema the `--json` output follows.
///
/// This crate is an offline stand-in and must not depend on the workspace's
/// library crates, so the constant is replicated here; it MUST match
/// `ja_hysteresis::json::SCHEMA_VERSION`.  Drift is caught at consumption
/// time: `ja bench-gate` rejects bench reports whose `schema_version`
/// differs from the library's.
pub const BENCH_SCHEMA_VERSION: u64 = 1;

/// Opaque value barrier preventing the optimiser from deleting benchmarked
/// work.
pub fn black_box<T>(value: T) -> T {
    std::hint::black_box(value)
}

/// Entry point of the timing harness.
#[derive(Debug, Clone)]
pub struct Criterion {
    sample_size: usize,
    filter: Option<String>,
    smoke: bool,
    json_path: Option<PathBuf>,
    results: Vec<(String, f64)>,
}

impl Default for Criterion {
    fn default() -> Self {
        Self {
            sample_size: 20,
            filter: None,
            smoke: false,
            json_path: None,
            results: Vec::new(),
        }
    }
}

impl Criterion {
    /// Applies command-line arguments: the first free argument (as passed by
    /// `cargo bench -- <filter>`) is used as a substring filter on benchmark
    /// names, `--smoke` and `--json <path>` are honoured as described in the
    /// crate docs, and other harness flags like `--bench` are ignored.
    pub fn configure_from_args(self) -> Self {
        self.apply_args(std::env::args().skip(1))
    }

    fn apply_args<I: IntoIterator<Item = String>>(mut self, args: I) -> Self {
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            if arg == "--smoke" {
                self.smoke = true;
            } else if arg == "--json" {
                // A missing path must not silently drop the perf artifact
                // (the CI pipeline depends on the file existing).
                let path = args.next().expect("--json requires a path argument");
                self.json_path = Some(PathBuf::from(path));
            } else if let Some(path) = arg.strip_prefix("--json=") {
                self.json_path = Some(PathBuf::from(path));
            } else if arg.starts_with('-') {
                // Other harness flags (--bench, --exact, ...) are ignored.
            } else if self.filter.is_none() {
                self.filter = Some(arg);
            }
        }
        self
    }

    /// Default number of samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(1);
        self
    }

    /// Starts a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        println!("\nbenchmark group: {name}");
        BenchmarkGroup {
            criterion: self,
            name,
            sample_size: None,
        }
    }

    /// Benchmarks a function outside any group.
    pub fn bench_function<F>(&mut self, id: impl Into<String>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let sample_size = self.sample_size;
        self.run_one(&id, sample_size, f);
        self
    }

    /// Prints the closing line of a run (report generation in the real
    /// crate) and, when `--json <path>` was given, writes the collected
    /// medians as a flat JSON object.  I/O failures panic: a CI pipeline
    /// must not silently lose its perf artifact.
    pub fn final_summary(&mut self) {
        if let Some(path) = &self.json_path {
            if let Some(parent) = path.parent() {
                if !parent.as_os_str().is_empty() {
                    std::fs::create_dir_all(parent).expect("create --json parent directory");
                }
            }
            std::fs::write(path, self.results_json()).expect("write --json results file");
            println!("\nbench medians written to {}", path.display());
        }
        println!("\nbenchmarks complete (offline criterion stub: wall-clock timing only)");
    }

    /// The collected results in the versioned report envelope
    /// (`schema_version`, `kind: "bench"`, then a `benches` object mapping
    /// bench id to median nanoseconds per iteration, sorted by id).
    fn results_json(&self) -> String {
        let mut sorted: Vec<&(String, f64)> = self.results.iter().collect();
        sorted.sort_by(|a, b| a.0.cmp(&b.0));
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"schema_version\": {BENCH_SCHEMA_VERSION},\n  \"kind\": \"bench\",\n  \"benches\": {{"
        ));
        for (i, (id, median_ns)) in sorted.iter().enumerate() {
            let comma = if i + 1 < sorted.len() { "," } else { "" };
            out.push_str(&format!(
                "\n    \"{}\": {:.1}{comma}",
                json_escape(id),
                median_ns
            ));
        }
        if !sorted.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("}\n}\n");
        out
    }

    fn run_one<F>(&mut self, id: &str, sample_size: usize, mut f: F)
    where
        F: FnMut(&mut Bencher),
    {
        if let Some(filter) = &self.filter {
            if !id.contains(filter.as_str()) {
                return;
            }
        }
        let sample_size = if self.smoke {
            sample_size.min(2)
        } else {
            sample_size
        };
        let mut samples = Vec::with_capacity(sample_size);
        // One warm-up call outside the measurement.
        let mut bencher = Bencher {
            elapsed: Duration::ZERO,
            iterations: 0,
        };
        f(&mut bencher);
        for _ in 0..sample_size {
            let mut bencher = Bencher {
                elapsed: Duration::ZERO,
                iterations: 0,
            };
            f(&mut bencher);
            if bencher.iterations > 0 {
                samples.push(bencher.elapsed.as_secs_f64() / bencher.iterations as f64);
            }
        }
        if samples.is_empty() {
            println!("  {id:<44} (no measurements)");
            return;
        }
        samples.sort_by(f64::total_cmp);
        let min = samples[0];
        let max = samples[samples.len() - 1];
        let median = median_of_sorted(&samples);
        self.results.push((id.to_owned(), median * 1e9));
        println!(
            "  {id:<44} time: [{} {} {}]",
            format_time(min),
            format_time(median),
            format_time(max)
        );
    }
}

fn median_of_sorted(sorted: &[f64]) -> f64 {
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            '\n' => "\\n".chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// A named collection of benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: Option<usize>,
}

impl BenchmarkGroup<'_> {
    /// Overrides the number of samples for this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = Some(n.max(1));
        self
    }

    /// Benchmarks a function within the group.
    pub fn bench_function<F>(&mut self, id: impl Into<String>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = format!("{}/{}", self.name, id.into());
        let sample_size = self.sample_size.unwrap_or(self.criterion.sample_size);
        self.criterion.run_one(&id, sample_size, f);
        self
    }

    /// Ends the group.
    pub fn finish(self) {}
}

/// Passed to the benchmarked closure; measures the hot loop.
#[derive(Debug)]
pub struct Bencher {
    elapsed: Duration,
    iterations: u64,
}

impl Bencher {
    /// Times one execution of `routine` (the real crate runs many
    /// iterations per sample; the stub times a single call per sample).
    pub fn iter<O, F>(&mut self, mut routine: F)
    where
        F: FnMut() -> O,
    {
        let start = Instant::now();
        black_box(routine());
        self.elapsed += start.elapsed();
        self.iterations += 1;
    }
}

fn format_time(seconds: f64) -> String {
    if seconds >= 1.0 {
        format!("{seconds:.3} s")
    } else if seconds >= 1e-3 {
        format!("{:.3} ms", seconds * 1e3)
    } else if seconds >= 1e-6 {
        format!("{:.3} µs", seconds * 1e6)
    } else {
        format!("{:.1} ns", seconds * 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_runs_and_times() {
        let mut criterion = Criterion::default().sample_size(3);
        let mut calls = 0u32;
        criterion.bench_function("smoke", |b| {
            b.iter(|| {
                calls += 1;
                black_box(calls)
            })
        });
        // warm-up + 3 samples
        assert_eq!(calls, 4);
    }

    #[test]
    fn groups_apply_sample_size_and_prefix() {
        let mut criterion = Criterion::default();
        let mut group = criterion.benchmark_group("g");
        group.sample_size(2);
        let mut calls = 0u32;
        group.bench_function(String::from("inner"), |b| {
            b.iter(|| {
                calls += 1;
            })
        });
        group.finish();
        assert_eq!(calls, 3);
    }

    #[test]
    fn smoke_flag_caps_sample_size_even_for_groups() {
        let mut criterion = Criterion::default().apply_args(["--smoke".to_owned()]);
        let mut group = criterion.benchmark_group("g");
        group.sample_size(50);
        let mut calls = 0u32;
        group.bench_function("inner", |b| {
            b.iter(|| {
                calls += 1;
            })
        });
        group.finish();
        // warm-up + 2 smoke samples instead of 50.
        assert_eq!(calls, 3);
    }

    #[test]
    fn args_parse_json_path_smoke_and_filter() {
        let c = Criterion::default().apply_args(
            ["--bench", "--json", "out/bench.json", "--smoke", "fig1"].map(str::to_owned),
        );
        assert_eq!(
            c.json_path.as_deref(),
            Some(std::path::Path::new("out/bench.json"))
        );
        assert!(c.smoke);
        assert_eq!(c.filter.as_deref(), Some("fig1"));
        let c = Criterion::default().apply_args(["--json=x.json".to_owned()]);
        assert_eq!(c.json_path.as_deref(), Some(std::path::Path::new("x.json")));
    }

    #[test]
    #[should_panic(expected = "--json requires a path argument")]
    fn json_flag_without_a_path_panics_instead_of_dropping_the_artifact() {
        let _ = Criterion::default().apply_args(["--json".to_owned()]);
    }

    #[test]
    fn filtered_out_benchmarks_do_not_run_or_record() {
        let mut criterion = Criterion::default()
            .sample_size(2)
            .apply_args(["only_this".to_owned()]);
        let mut calls = 0u32;
        criterion.bench_function("something_else", |b| b.iter(|| calls += 1));
        criterion.bench_function("only_this_one", |b| b.iter(|| calls += 1));
        assert_eq!(calls, 3); // warm-up + 2 samples, second bench only
        assert_eq!(criterion.results.len(), 1);
        assert_eq!(criterion.results[0].0, "only_this_one");
    }

    #[test]
    fn median_handles_odd_and_even_sample_counts() {
        assert_eq!(median_of_sorted(&[1.0, 2.0, 5.0]), 2.0);
        assert_eq!(median_of_sorted(&[1.0, 2.0, 3.0, 5.0]), 2.5);
        assert_eq!(median_of_sorted(&[4.0]), 4.0);
    }

    #[test]
    fn json_output_is_sorted_escaped_and_enveloped() {
        let mut criterion = Criterion::default();
        criterion.results.push(("z/bench".to_owned(), 1234.56));
        criterion.results.push(("a\"quote".to_owned(), 7.0));
        let json = criterion.results_json();
        let a = json.find("a\\\"quote").expect("escaped id present");
        let z = json.find("z/bench").expect("second id present");
        assert!(a < z, "entries must be sorted by id:\n{json}");
        assert!(json.trim_start().starts_with('{') && json.trim_end().ends_with('}'));
        // Versioned envelope, in order: schema_version, kind, benches.
        let version = json
            .find(&format!("\"schema_version\": {BENCH_SCHEMA_VERSION}"))
            .expect("schema_version present");
        let kind = json.find("\"kind\": \"bench\"").expect("kind present");
        let benches = json.find("\"benches\"").expect("benches present");
        assert!(version < kind && kind < benches, "{json}");
    }

    #[test]
    fn empty_results_still_emit_a_valid_envelope() {
        let criterion = Criterion::default();
        let json = criterion.results_json();
        assert!(json.contains("\"benches\": {}\n"), "{json}");
    }

    #[test]
    fn final_summary_writes_json_file() {
        let path = std::env::temp_dir().join("criterion_stub_test_bench.json");
        let _ = std::fs::remove_file(&path);
        let mut criterion = Criterion::default()
            .sample_size(3)
            .apply_args([format!("--json={}", path.display())]);
        criterion.bench_function("write_me", |b| b.iter(|| black_box(2 + 2)));
        criterion.final_summary();
        let written = std::fs::read_to_string(&path).expect("json file written");
        assert!(written.contains("\"write_me\":"), "{written}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn format_time_scales_units() {
        assert!(format_time(2.0).ends_with(" s"));
        assert!(format_time(2e-3).ends_with(" ms"));
        assert!(format_time(2e-6).ends_with(" µs"));
        assert!(format_time(2e-9).ends_with(" ns"));
    }
}
