//! Parallel scenario execution.
//!
//! [`BatchRunner`] is the engine behind [`crate::scenario::run_batch`] and
//! every report writer: it distributes a scenario list over a pool of
//! scoped worker threads (`std::thread::scope`, no external dependencies),
//! with chunked work stealing over an atomic cursor and a configurable
//! error policy.  There is one executor, [`BatchRunner::run_in_order`]: a
//! caller-supplied **reduce** step runs on the worker right after each
//! scenario finishes and shrinks the outcome (curve included) to what the
//! caller keeps — a rendered entry, an NDJSON record, or the whole outcome
//! for [`BatchRunner::run`] — and an **emit** step receives the reduced
//! values on the calling thread in input index order.  Results are
//! therefore **deterministic**: bit-identical floating-point content in
//! input order regardless of the worker count (each scenario's computation
//! is sequential and self-contained; the executor only changes *where* it
//! runs).  The one exception is fail-fast cancellation, which depends on
//! timing — see [`ErrorPolicy::FailFast`].
//!
//! Workers keep a [`RunScratch`] alive across the scenarios they execute:
//! consecutive scenarios sharing a (backend, material, configuration)
//! triple reuse the constructed backend through
//! [`HysteresisBackend::reset`] instead of rebuilding it, and the flattened
//! sample vector of the current excitation is cached by excitation
//! identity, so the parallel win is not eaten by per-scenario construction
//! and allocator traffic.
//!
//! Direct-timeless scenarios that share a (configuration, excitation,
//! operating point) triple are additionally routed — per [`SoaRouting`],
//! default on — through the structure-of-arrays lockstep batch
//! ([`SoaBatch`]): the whole group runs as one SoA sweep, one lane per
//! scenario, and the per-lane results fan back into ordinary per-entry
//! report slots.  Lane parameters are the scenarios' **resolved**
//! (thermally derived) parameters, the same values the scalar path runs,
//! so SoA `f64` lanes stay bit-identical to the scalar model and routing
//! never changes report content, only throughput.
//!
//! The distribution machinery itself (chunked claims over an atomic
//! cursor, worker-local state, an in-order reorder buffer) is one private
//! worker loop; the generic [`parallel_map`] is a collect over it and
//! powers the multi-start fitting batches of [`crate::fit`] — any
//! deterministic per-job workload with reusable worker scratch can ride
//! the same pool.

use std::collections::BTreeMap;
use std::convert::Infallible;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use ja_hysteresis::backend::HysteresisBackend;
use ja_hysteresis::config::JaConfig;
use ja_hysteresis::error::JaError;
use ja_hysteresis::soa::{SoaBatch, SoaPrecision};
use magnetics::bh::BhCurve;
use magnetics::loop_analysis;
use magnetics::material::JaParameters;

use crate::scenario::{
    BackendKind, BatchEntry, BatchReport, Excitation, Scenario, ScenarioOutcome,
};

/// How a batch reacts to a failing scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ErrorPolicy {
    /// Run every scenario and record failures alongside successes (the
    /// historical `run_batch` behaviour).  Reports are fully deterministic.
    #[default]
    CollectAll,
    /// Stop scheduling new work once any scenario fails; scenarios that
    /// were not yet executed are recorded as [`JaError::Cancelled`].  Which
    /// scenarios get cancelled depends on worker timing, so fail-fast
    /// reports are only deterministic for a single worker.
    FailFast,
}

/// How the runner maps [`BackendKind::DirectTimeless`] scenarios onto the
/// structure-of-arrays lockstep batch ([`SoaBatch`]).
///
/// Scenarios are **groupable** when they share a (configuration,
/// excitation, operating point) triple, use the direct-timeless backend
/// and have a prescribed (non-circuit) stimulus; a group runs as one SoA
/// sweep with one lane per scenario.  In `f64` column mode every lane is bit-identical to the
/// scalar run of the same scenario, so the routing decision never changes
/// report content — only the timing fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SoaRouting {
    /// Route every groupable set of two or more scenarios through the
    /// lockstep batch; everything else runs scalar.  The default.
    #[default]
    Auto,
    /// Route every groupable scenario through the lockstep batch, even
    /// alone in its group (useful for exercising the SoA path).
    ForceSoa,
    /// Run every scenario through the scalar path.
    ForceScalar,
}

/// Builder-style executor for scenario batches.
///
/// ```
/// use hdl_models::exec::BatchRunner;
/// use hdl_models::scenario::{BackendKind, Excitation, ScenarioGrid};
///
/// let grid = ScenarioGrid::new()
///     .backends(BackendKind::TIMELESS)
///     .excitation("major", Excitation::major_loop(10_000.0, 100.0, 1).unwrap());
/// let report = BatchRunner::new()
///     .workers(2)
///     .run(grid.scenarios().unwrap());
/// assert_eq!(report.entries.len(), 3);
/// assert_eq!(report.workers, 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct BatchRunner {
    workers: Option<NonZeroUsize>,
    chunk_size: Option<NonZeroUsize>,
    policy: ErrorPolicy,
    routing: SoaRouting,
}

impl BatchRunner {
    /// An executor with the default knobs: one worker per available core,
    /// chunk size 1 (best load balance for uneven scenario runtimes),
    /// collect-all error policy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the worker count; `0` restores the default
    /// (`std::thread::available_parallelism`).  The effective count never
    /// exceeds the number of scenarios.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = NonZeroUsize::new(workers);
        self
    }

    /// Sets how many scenarios a worker claims from the shared cursor at a
    /// time; `0` restores the default of 1.  Larger chunks reduce cursor
    /// contention but can leave workers idle at the tail of uneven grids.
    #[must_use]
    pub fn chunk_size(mut self, chunk_size: usize) -> Self {
        self.chunk_size = NonZeroUsize::new(chunk_size);
        self
    }

    /// Sets the error policy.
    #[must_use]
    pub fn error_policy(mut self, policy: ErrorPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Shorthand for [`ErrorPolicy::FailFast`].
    #[must_use]
    pub fn fail_fast(self) -> Self {
        self.error_policy(ErrorPolicy::FailFast)
    }

    /// Sets how direct-timeless scenario groups are executed (see
    /// [`SoaRouting`]; the default is [`SoaRouting::Auto`]).
    #[must_use]
    pub fn soa_routing(mut self, routing: SoaRouting) -> Self {
        self.routing = routing;
        self
    }

    /// The worker count the runner would use for `jobs` scenarios.
    pub fn resolved_workers(&self, jobs: usize) -> usize {
        resolved_workers(self.workers.map_or(0, NonZeroUsize::get), jobs)
    }

    /// Runs every scenario and collects a [`BatchReport`] with one entry
    /// per scenario, in input order — a [`run_reduced`](Self::run_reduced)
    /// whose reduce step keeps the whole outcome, curve included.
    ///
    /// Under the default [`SoaRouting::Auto`], scenarios sharing a
    /// (configuration, excitation, operating point) triple on the
    /// direct-timeless backend run as one structure-of-arrays lockstep
    /// sweep instead of one scalar sweep each — with bit-identical
    /// per-entry results, since the SoA `f64` lanes reproduce the scalar
    /// operation sequence exactly.
    pub fn run(&self, scenarios: impl IntoIterator<Item = Scenario>) -> BatchReport {
        let scenarios: Vec<Scenario> = scenarios.into_iter().collect();
        let started = Instant::now();
        let (results, summary) =
            self.run_reduced(&scenarios, |_, outcome, wall_clock| (outcome, wall_clock));
        let entries = scenarios
            .into_iter()
            .zip(results)
            .map(|(scenario, (outcome, wall_clock))| BatchEntry {
                scenario,
                outcome,
                wall_clock,
            })
            .collect();
        BatchReport {
            entries,
            workers: summary.workers,
            elapsed: started.elapsed(),
        }
    }

    /// Runs every scenario, reduces each outcome with `reduce` on its
    /// worker, and returns the reduced values in input order — the collect
    /// form of [`run_in_order`](Self::run_in_order).
    pub fn run_reduced<R: Send>(
        &self,
        scenarios: &[Scenario],
        reduce: impl Fn(usize, Result<ScenarioOutcome, JaError>, Duration) -> R + Sync,
    ) -> (Vec<R>, StreamSummary) {
        let mut reduced = Vec::with_capacity(scenarios.len());
        let summary = self
            .run_in_order(scenarios, 0, reduce, |_, value| {
                reduced.push(value);
                Ok::<(), Infallible>(())
            })
            .unwrap_or_else(|never| match never {});
        (reduced, summary)
    }

    /// Runs `scenarios[skip..]`, reduces each outcome **on its worker**, and
    /// hands the reduced values to `emit` **in input index order** — the one
    /// scenario executor every batch path is built on.
    ///
    /// `reduce` receives `(index, outcome, wall_clock)` right after the
    /// scenario (or its lockstep lane) finishes, where `wall_clock` is the
    /// time the entry spent on its worker (backend construction, sweep and
    /// metric extraction; an equal share of the group for lockstep lanes;
    /// zero for cancelled entries).  It returns something small — a
    /// rendered entry, an NDJSON record — so the outcome and the
    /// [`BhCurve`] inside it are dropped on the worker.  `emit` runs on the
    /// calling thread as soon as an entry and all its predecessors have
    /// been reduced.  Peak memory is therefore bounded by the jobs in
    /// flight plus the reorder buffer of reduced values, not by grid size.
    /// Because each scenario's computation is sequential and
    /// self-contained, the emitted sequence is **bit-identical for any
    /// worker count** — the property the report writers' byte-determinism
    /// rests on.
    ///
    /// `skip` supports checkpoint/resume: entries `0..skip` are neither run
    /// nor emitted.  Skipping cannot change the remaining outcomes — every
    /// scenario is independent, and SoA lockstep regrouping is
    /// result-neutral by the lane/scalar bit-equality invariant.
    ///
    /// # Errors
    ///
    /// Returns the first error produced by `emit`; remaining outcomes are
    /// still computed (workers drain) but no longer emitted.
    pub fn run_in_order<R: Send, E>(
        &self,
        scenarios: &[Scenario],
        skip: usize,
        reduce: impl Fn(usize, Result<ScenarioOutcome, JaError>, Duration) -> R + Sync,
        mut emit: impl FnMut(usize, R) -> Result<(), E>,
    ) -> Result<StreamSummary, E> {
        let skip = skip.min(scenarios.len());
        let pending = &scenarios[skip..];
        let workers = self.resolved_workers(pending.len());
        let chunk = self.chunk_size.map_or(1, NonZeroUsize::get);
        let jobs = route_jobs(pending, self.routing);
        let abort = AtomicBool::new(false);
        let mut succeeded = 0_usize;
        let mut failed = 0_usize;
        in_order(
            &jobs,
            workers,
            chunk,
            RunScratch::new,
            |_, job, scratch, sink| {
                let mut deliver = |index: usize,
                                   outcome: Result<ScenarioOutcome, JaError>,
                                   wall_clock: Duration| {
                    let ok = outcome.is_ok();
                    if !ok {
                        abort.store(true, Ordering::Relaxed);
                    }
                    sink(index, (ok, reduce(skip + index, outcome, wall_clock)));
                };
                let cancelled =
                    self.policy == ErrorPolicy::FailFast && abort.load(Ordering::Relaxed);
                match job {
                    Job::Scalar(index) if cancelled => {
                        deliver(*index, Err(JaError::Cancelled), Duration::ZERO);
                    }
                    Job::Scalar(index) => {
                        let t0 = Instant::now();
                        let outcome = pending[*index].run_with_scratch(scratch);
                        deliver(*index, outcome, t0.elapsed());
                    }
                    Job::Lockstep(members) if cancelled => {
                        for &index in members {
                            deliver(index, Err(JaError::Cancelled), Duration::ZERO);
                        }
                    }
                    Job::Lockstep(members) => {
                        run_lockstep_group(pending, members, scratch, &mut deliver);
                    }
                }
            },
            |index, (ok, value)| {
                if ok {
                    succeeded += 1;
                } else {
                    failed += 1;
                }
                emit(skip + index, value)
            },
        )?;
        debug_assert_eq!(succeeded + failed, pending.len());
        Ok(StreamSummary {
            scenarios: scenarios.len(),
            emitted: pending.len(),
            succeeded,
            failed,
            workers,
        })
    }
}

/// What a [`BatchRunner::run_in_order`] call did, counted over the entries
/// it emitted (a resumed run reports only its own tail; the caller folds in
/// the checkpointed counts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamSummary {
    /// Total grid size, including entries skipped by resume.
    pub scenarios: usize,
    /// Entries emitted by this run (`scenarios - skip`).
    pub emitted: usize,
    /// Emitted entries whose outcome was `Ok`.
    pub succeeded: usize,
    /// Emitted entries whose outcome was an error or cancellation.
    pub failed: usize,
    /// Resolved worker count.
    pub workers: usize,
}

/// One unit of parallel work: a single scenario on the scalar path, or a
/// group of scenario indices sharing one SoA lockstep sweep.
#[derive(Debug)]
enum Job {
    Scalar(usize),
    Lockstep(Vec<usize>),
}

/// Partitions the scenario list into jobs according to the routing policy.
/// Jobs are ordered by their first scenario index, so a single-worker
/// fail-fast run still cancels in input order.
fn route_jobs(scenarios: &[Scenario], routing: SoaRouting) -> Vec<Job> {
    if routing == SoaRouting::ForceScalar {
        return (0..scenarios.len()).map(Job::Scalar).collect();
    }
    let mut scalar: Vec<usize> = Vec::new();
    // (representative index, members): few distinct (config, excitation,
    // operating point) triples per grid, so a linear scan beats hashing
    // the float-laden keys.
    let mut groups: Vec<(usize, Vec<usize>)> = Vec::new();
    for (index, scenario) in scenarios.iter().enumerate() {
        let groupable = scenario.backend == BackendKind::DirectTimeless
            && !matches!(scenario.excitation, Excitation::Circuit(_));
        if !groupable {
            scalar.push(index);
            continue;
        }
        match groups.iter_mut().find(|(representative, _)| {
            let other = &scenarios[*representative];
            other.config == scenario.config
                && other.excitation == scenario.excitation
                && other.operating_point == scenario.operating_point
        }) {
            Some((_, members)) => members.push(index),
            None => groups.push((index, vec![index])),
        }
    }
    let mut jobs: Vec<Job> = scalar.into_iter().map(Job::Scalar).collect();
    for (_, members) in groups {
        if members.len() >= 2 || routing == SoaRouting::ForceSoa {
            jobs.push(Job::Lockstep(members));
        } else {
            jobs.extend(members.into_iter().map(Job::Scalar));
        }
    }
    jobs.sort_by_key(|job| match job {
        Job::Scalar(index) => *index,
        Job::Lockstep(members) => members[0],
    });
    jobs
}

/// Where a lockstep group hands each member's `(index, outcome,
/// wall_clock)` as soon as it is ready.
type Deliver<'a> = &'a mut dyn FnMut(usize, Result<ScenarioOutcome, JaError>, Duration);

/// Runs one groupable scenario set as a single SoA lockstep sweep, one lane
/// per scenario, and delivers the per-lane results in member order.
///
/// Lane outcomes are bit-identical to the scalar path (the batch runs `f64`
/// columns); only the timing fields differ — each member is attributed an
/// equal share of the group's wall clock, since the lanes genuinely ran
/// together.  A group whose shared configuration fails validation, or one
/// of whose members has an operating point that does not resolve, falls
/// back to the scalar path, which reports the exact per-scenario error the
/// group would have masked (and still succeeds the valid members).
fn run_lockstep_group(
    scenarios: &[Scenario],
    members: &[usize],
    scratch: &mut RunScratch,
    deliver: Deliver<'_>,
) {
    let first = &scenarios[members[0]];
    let reusable = scratch
        .soa
        .as_ref()
        .is_some_and(|batch| *batch.config() == first.config);
    if !reusable {
        match SoaBatch::new(first.config, SoaPrecision::F64) {
            Ok(batch) => scratch.soa = Some(batch),
            Err(_) => return run_members_scalar(scenarios, members, scratch, deliver),
        }
    }

    // Thermal derivation happens here through the same `resolved_params`
    // the scalar path runs — the lanes and the scalar model must consume
    // bit-identical parameters.
    scratch.lane_params.clear();
    for &index in members {
        match scenarios[index].resolved_params() {
            Ok(params) => scratch.lane_params.push(params),
            Err(_) => return run_members_scalar(scenarios, members, scratch, deliver),
        }
    }

    let t0 = Instant::now();
    let RunScratch {
        samples,
        soa,
        lane_params,
        lane_curves,
        ..
    } = scratch;
    let hit = samples
        .as_ref()
        .is_some_and(|(key, _)| key == &first.excitation);
    if !hit {
        *samples = Some((first.excitation.clone(), first.excitation.to_samples()));
    }
    let samples = &samples.as_ref().expect("cached above").1;
    let batch = soa.as_mut().expect("constructed above");

    batch.assign(lane_params);
    lane_curves.resize_with(members.len(), BhCurve::new);
    lane_curves.truncate(members.len());
    batch.run_samples_into_curves(samples, &mut lane_curves[..members.len()]);
    let share = t0.elapsed() / members.len() as u32;

    for (lane, &index) in members.iter().enumerate() {
        let outcome = match batch.lane_error(lane) {
            Some(err) => Err(err.clone()),
            None => {
                let curve = std::mem::take(&mut lane_curves[lane]);
                let metrics = loop_analysis::loop_metrics(&curve).ok();
                let loss = scenarios[index].loss_breakdown(&curve);
                Ok(ScenarioOutcome {
                    name: scenarios[index].name.clone(),
                    backend: scenarios[index].backend,
                    curve,
                    metrics,
                    loss,
                    operating_point: scenarios[index].operating_point,
                    stats: batch.lane_statistics(lane),
                    // Lockstep groups run on the direct backend only, which
                    // has no simulation kernel.
                    kernel: None,
                    transient: None,
                    runtime: share,
                    lockstep_lanes: Some(members.len()),
                })
            }
        };
        deliver(index, outcome, share);
    }
}

/// The lockstep fallback: runs every group member on the scalar path, one
/// at a time, timing each like a scalar job.
fn run_members_scalar(
    scenarios: &[Scenario],
    members: &[usize],
    scratch: &mut RunScratch,
    deliver: Deliver<'_>,
) {
    for &index in members {
        let t0 = Instant::now();
        let outcome = scenarios[index].run_with_scratch(scratch);
        deliver(index, outcome, t0.elapsed());
    }
}

/// Resolves a configured worker count for `jobs` units of work: `0` means
/// one worker per available core, and the result is clamped to the job
/// count with a floor of 1.  The single worker-resolution policy shared by
/// [`BatchRunner`] and the fitting batches of [`crate::fit`].
pub fn resolved_workers(configured: usize, jobs: usize) -> usize {
    let configured = if configured == 0 {
        thread::available_parallelism().map_or(1, NonZeroUsize::get)
    } else {
        configured
    };
    configured.min(jobs).max(1)
}

/// Aggregate speedup estimate of a parallel run: the summed per-job wall
/// clocks over the run's elapsed time (0 when the run was too fast to
/// measure).  Shared by the batch and fit reports.
pub(crate) fn speedup_estimate(serial: Duration, elapsed: Duration) -> f64 {
    let elapsed = elapsed.as_secs_f64();
    if elapsed > 0.0 {
        serial.as_secs_f64() / elapsed
    } else {
        0.0
    }
}

/// Runs `run` over every job on a pool of `workers` scoped threads and
/// returns the results **in job order** — a collect over the in-order pool
/// that also powers [`BatchRunner`], used by the multi-start fitting
/// batches of [`crate::fit`].
///
/// Each worker claims `chunk` jobs at a time from a shared atomic cursor
/// and keeps one instance of worker-local state (built by `make_state`)
/// alive across all the jobs it executes — the scratch-reuse pattern that
/// keeps per-job construction and allocator traffic off the hot path.
/// As long as `run` is a pure function of the job (plus state that `run`
/// fully resets or overwrites per job), the output is **deterministic**:
/// identical for any worker count, including the inline `workers <= 1`
/// path that spawns no threads at all.
///
/// Cross-job coordination (e.g. fail-fast abort) lives in the closure:
/// capture an [`AtomicBool`] and consult it per job, as
/// [`BatchRunner::run_in_order`] does.
pub fn parallel_map<T, S, R, FS, F>(
    jobs: &[T],
    workers: usize,
    chunk: usize,
    make_state: FS,
    run: F,
) -> Vec<R>
where
    T: Sync,
    R: Send,
    FS: Fn() -> S + Sync,
    F: Fn(&T, &mut S) -> R + Sync,
{
    let mut results = Vec::with_capacity(jobs.len());
    in_order(
        jobs,
        workers,
        chunk,
        make_state,
        |index, job, state, sink| sink(index, run(job, state)),
        |_, result| {
            results.push(result);
            Ok::<(), Infallible>(())
        },
    )
    .unwrap_or_else(|never| match never {});
    results
}

/// The worker pool under every executor in this module.
///
/// Workers claim `chunk` jobs at a time from a shared atomic cursor, keep
/// one `make_state` instance alive across their jobs, and pass
/// `run(job_index, job, state, sink)` a `sink` that accepts
/// `(output_index, value)` pairs — a job may produce any number of
/// outputs, and the output indices of all jobs together must be exactly
/// `0..n`.  Values travel over a channel to the calling thread, which
/// parks them in a reorder buffer and hands them to `emit` in output-index
/// order.  With `workers <= 1` everything runs inline, no threads spawned.
///
/// After the first `emit` error, remaining values are still collected (the
/// workers drain) but no longer emitted; that error is returned.
fn in_order<T, S, R, E>(
    jobs: &[T],
    workers: usize,
    chunk: usize,
    make_state: impl Fn() -> S + Sync,
    run: impl Fn(usize, &T, &mut S, &mut dyn FnMut(usize, R)) + Sync,
    mut emit: impl FnMut(usize, R) -> Result<(), E>,
) -> Result<(), E>
where
    T: Sync,
    R: Send,
{
    let chunk = chunk.max(1);
    let mut buffered: BTreeMap<usize, R> = BTreeMap::new();
    let mut next = 0_usize;
    let mut result = Ok(());
    let mut collect = |index: usize, value: R| {
        buffered.insert(index, value);
        while let Some(value) = buffered.remove(&next) {
            if result.is_ok() {
                result = emit(next, value);
            }
            next += 1;
        }
    };

    if workers <= 1 {
        let mut state = make_state();
        for (index, job) in jobs.iter().enumerate() {
            run(index, job, &mut state, &mut collect);
        }
    } else {
        let (tx, rx) = mpsc::channel::<(usize, R)>();
        let cursor = AtomicUsize::new(0);
        thread::scope(|scope| {
            for _ in 0..workers {
                let tx = tx.clone();
                let (cursor, make_state, run) = (&cursor, &make_state, &run);
                scope.spawn(move || {
                    let mut state = make_state();
                    let mut closed = false;
                    loop {
                        let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                        if start >= jobs.len() {
                            break;
                        }
                        let end = start.saturating_add(chunk).min(jobs.len());
                        for (index, job) in jobs.iter().enumerate().take(end).skip(start) {
                            run(index, job, &mut state, &mut |output, value| {
                                closed |= tx.send((output, value)).is_err();
                            });
                            if closed {
                                return;
                            }
                        }
                    }
                });
            }
            drop(tx);
            for (index, value) in rx {
                collect(index, value);
            }
        });
    }
    debug_assert!(buffered.is_empty(), "every output index was produced");
    result
}

/// Worker-local reusable state for running scenarios.
///
/// Holds the most recently constructed backend; when the next scenario uses
/// the same (backend kind, material, configuration) triple, the backend is
/// [`reset`](HysteresisBackend::reset) and reused instead of rebuilt.
/// Reset returns a backend to the demagnetised state with cleared
/// statistics, so a reused run is bit-identical to a fresh one (asserted by
/// the executor's tests).
///
/// The scratch also caches the flattened sample vector of the most recent
/// prescribed excitation (grids repeat one excitation across many
/// scenarios, so re-flattening per run was pure waste), the worker's SoA
/// lockstep batch and its lane parameter/curve buffers.
#[derive(Default)]
pub struct RunScratch {
    cached: Option<CachedBackend>,
    samples: Option<(Excitation, Vec<f64>)>,
    soa: Option<SoaBatch>,
    lane_params: Vec<JaParameters>,
    lane_curves: Vec<BhCurve>,
}

struct CachedBackend {
    kind: BackendKind,
    params: JaParameters,
    config: JaConfig,
    backend: Box<dyn HysteresisBackend>,
}

/// The backend-cache lookup of [`RunScratch::backend_for`], free-standing so
/// callers can keep borrowing the scratch's other fields alongside the
/// returned backend.
fn cached_backend_for<'s>(
    cached: &'s mut Option<CachedBackend>,
    scenario: &Scenario,
) -> Result<&'s mut dyn HysteresisBackend, JaError> {
    // The cache is keyed on the *resolved* (thermally derived) parameters:
    // two scenarios at different operating temperatures run different
    // materials even when their reference parameter sets match.
    let params = scenario.resolved_params()?;
    let reusable = cached.as_ref().is_some_and(|cached| {
        cached.kind == scenario.backend
            && cached.params == params
            && cached.config == scenario.config
    });
    let cached = if reusable {
        let cached = cached.as_mut().expect("checked above");
        cached.backend.reset()?;
        cached
    } else {
        let backend = scenario.backend.build(params, scenario.config)?;
        cached.insert(CachedBackend {
            kind: scenario.backend,
            params,
            config: scenario.config,
            backend,
        })
    };
    Ok(cached.backend.as_mut())
}

impl RunScratch {
    /// An empty scratch (no cached backend).
    pub fn new() -> Self {
        Self::default()
    }

    /// A demagnetised backend for the scenario: the cached one when the
    /// scenario matches it, a freshly built one otherwise.
    ///
    /// # Errors
    ///
    /// Propagates backend construction or reset failures.
    pub fn backend_for(
        &mut self,
        scenario: &Scenario,
    ) -> Result<&mut dyn HysteresisBackend, JaError> {
        cached_backend_for(&mut self.cached, scenario)
    }

    /// Like [`RunScratch::backend_for`], plus the scenario's flattened
    /// sample vector from the excitation cache (recomputed only when the
    /// excitation changed; empty for circuit-driven excitations, whose
    /// field sequence is material-dependent and solver-determined).
    ///
    /// # Errors
    ///
    /// Propagates backend construction or reset failures.
    pub fn backend_and_samples(
        &mut self,
        scenario: &Scenario,
    ) -> Result<(&mut dyn HysteresisBackend, &[f64]), JaError> {
        if matches!(scenario.excitation, Excitation::Circuit(_)) {
            let backend = cached_backend_for(&mut self.cached, scenario)?;
            return Ok((backend, &[]));
        }
        let hit = self
            .samples
            .as_ref()
            .is_some_and(|(key, _)| key == &scenario.excitation);
        if !hit {
            self.samples = Some((
                scenario.excitation.clone(),
                scenario.excitation.to_samples(),
            ));
        }
        let backend = cached_backend_for(&mut self.cached, scenario)?;
        Ok((backend, &self.samples.as_ref().expect("cached above").1))
    }
}

impl std::fmt::Debug for RunScratch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunScratch")
            .field("cached", &self.cached.as_ref().map(|c| c.kind))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Excitation, ScenarioGrid};

    fn small_grid() -> ScenarioGrid {
        ScenarioGrid::new()
            .backends(BackendKind::ALL)
            .config("dh10", JaConfig::default())
            .config("dh25", JaConfig::default().with_dh_max(25.0))
            .excitation(
                "major",
                Excitation::major_loop(10_000.0, 250.0, 1).expect("excitation"),
            )
    }

    fn assert_outcomes_bitwise_equal(a: &BatchReport, b: &BatchReport) {
        assert_eq!(a.entries.len(), b.entries.len());
        for (x, y) in a.entries.iter().zip(&b.entries) {
            assert_eq!(x.scenario.name, y.scenario.name);
            match (&x.outcome, &y.outcome) {
                (Ok(ox), Ok(oy)) => {
                    assert_eq!(ox.stats, oy.stats, "{}", x.scenario.name);
                    assert_eq!(ox.curve.len(), oy.curve.len(), "{}", x.scenario.name);
                    for (p, q) in ox.curve.points().iter().zip(oy.curve.points()) {
                        assert_eq!(p.h.value().to_bits(), q.h.value().to_bits());
                        assert_eq!(p.b.as_tesla().to_bits(), q.b.as_tesla().to_bits());
                        assert_eq!(p.m.value().to_bits(), q.m.value().to_bits());
                    }
                }
                (Err(ex), Err(ey)) => assert_eq!(ex, ey, "{}", x.scenario.name),
                (ox, oy) => panic!(
                    "{}: outcome kinds differ: {ox:?} vs {oy:?}",
                    x.scenario.name
                ),
            }
        }
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let scenarios = small_grid().scenarios().expect("grid");
        let serial = BatchRunner::new().workers(1).run(scenarios.clone());
        let parallel = BatchRunner::new().workers(4).run(scenarios);
        assert_eq!(serial.workers, 1);
        assert_eq!(parallel.workers, 4);
        assert_outcomes_bitwise_equal(&serial, &parallel);
    }

    #[test]
    fn chunked_distribution_covers_every_scenario() {
        let scenarios = small_grid().scenarios().expect("grid");
        let expected = scenarios.len();
        let report = BatchRunner::new().workers(3).chunk_size(2).run(scenarios);
        assert_eq!(report.entries.len(), expected);
        assert_eq!(report.successes().count(), expected);
        assert!(report.elapsed > Duration::ZERO);
        assert!(report.serial_runtime() >= report.total_runtime());
        assert!(report.speedup() > 0.0);
    }

    #[test]
    fn resolved_workers_clamps_to_jobs_and_floor() {
        let runner = BatchRunner::new().workers(8);
        assert_eq!(runner.resolved_workers(3), 3);
        assert_eq!(runner.resolved_workers(100), 8);
        assert_eq!(runner.resolved_workers(0), 1);
        // workers(0) restores the auto default, which is at least 1.
        assert!(BatchRunner::new().workers(0).resolved_workers(100) >= 1);
    }

    #[test]
    fn fail_fast_cancels_scenarios_after_a_failure() {
        let bad = Scenario::new(
            "bad",
            JaParameters::date2006(),
            JaConfig::default().with_dh_max(-1.0),
            BackendKind::DirectTimeless,
            Excitation::major_loop(10_000.0, 250.0, 1).expect("excitation"),
        );
        let good = Scenario::fig1(BackendKind::DirectTimeless, 500.0).expect("scenario");
        let report = BatchRunner::new()
            .workers(1)
            .fail_fast()
            .run([bad, good.clone(), good]);
        assert_eq!(report.entries.len(), 3);
        assert!(report.entries[0].outcome.is_err());
        for entry in &report.entries[1..] {
            assert_eq!(entry.outcome.as_ref().err(), Some(&JaError::Cancelled));
        }
        // Collect-all keeps running after the failure.
        let report = BatchRunner::new().workers(1).run([
            Scenario::new(
                "bad",
                JaParameters::date2006(),
                JaConfig::default().with_dh_max(-1.0),
                BackendKind::DirectTimeless,
                Excitation::major_loop(10_000.0, 250.0, 1).expect("excitation"),
            ),
            Scenario::fig1(BackendKind::DirectTimeless, 500.0).expect("scenario"),
        ]);
        assert_eq!(report.failures().count(), 1);
        assert_eq!(report.successes().count(), 1);
    }

    #[test]
    fn fail_fast_multi_worker_still_reports_every_entry() {
        let bad = Scenario::new(
            "bad",
            JaParameters::date2006(),
            JaConfig::default().with_dh_max(-1.0),
            BackendKind::DirectTimeless,
            Excitation::major_loop(10_000.0, 250.0, 1).expect("excitation"),
        );
        let mut scenarios = small_grid().scenarios().expect("grid");
        scenarios.insert(0, bad);
        let expected = scenarios.len();
        let report = BatchRunner::new().workers(4).fail_fast().run(scenarios);
        assert_eq!(report.entries.len(), expected);
        assert!(report.failures().count() >= 1);
    }

    #[test]
    fn scratch_reuse_is_bit_identical_to_fresh_runs() {
        let scenario = Scenario::fig1(BackendKind::DirectTimeless, 250.0).expect("scenario");
        let mut scratch = RunScratch::new();
        let first = scenario.run_with_scratch(&mut scratch).expect("run");
        // Second run hits the cached backend (reset path).
        let second = scenario.run_with_scratch(&mut scratch).expect("run");
        assert_eq!(first.stats, second.stats);
        assert_eq!(first.curve, second.curve);
        let fresh = scenario.run().expect("run");
        assert_eq!(first.curve, fresh.curve);
        assert!(format!("{scratch:?}").contains("DirectTimeless"));
    }

    #[test]
    fn scratch_rebuilds_when_the_scenario_changes() {
        let mut scratch = RunScratch::new();
        for kind in BackendKind::ALL {
            let scenario = Scenario::fig1(kind, 500.0).expect("scenario");
            let outcome = scenario.run_with_scratch(&mut scratch).expect("run");
            assert_eq!(outcome.backend, kind);
            assert!(outcome.stats.samples > 0);
        }
    }

    #[test]
    fn parallel_map_orders_results_and_keeps_worker_state() {
        let jobs: Vec<usize> = (0..100).collect();
        let double = |job: &usize, seen: &mut usize| {
            *seen += 1;
            (*job * 2, *seen)
        };
        let serial = parallel_map(&jobs, 1, 1, || 0usize, double);
        let parallel = parallel_map(&jobs, 4, 3, || 0usize, double);
        // Job-order results regardless of worker count or chunking...
        let values = |r: &[(usize, usize)]| r.iter().map(|(v, _)| *v).collect::<Vec<_>>();
        assert_eq!(values(&serial), values(&parallel));
        assert_eq!(serial[7].0, 14);
        // ...with worker-local state alive across a worker's jobs: the lone
        // serial worker saw all 100, every parallel worker at most 100.
        assert_eq!(serial.last().unwrap().1, 100);
        assert!(parallel.iter().all(|(_, seen)| (1..=100).contains(seen)));
        // Degenerate inputs.
        assert!(parallel_map(&[] as &[usize], 4, 1, || (), |_, ()| ()).is_empty());
        assert_eq!(parallel_map(&jobs, 8, 0, || (), |job, ()| *job).len(), 100);
    }

    fn multi_material_grid() -> ScenarioGrid {
        ScenarioGrid::new()
            .material("date2006", JaParameters::date2006())
            .material("ja1984", JaParameters::jiles_atherton_1984())
            .material("hard-steel", JaParameters::hard_steel())
            .backend(BackendKind::DirectTimeless)
            .config("dh10", JaConfig::default())
            .excitation(
                "major",
                Excitation::major_loop(10_000.0, 250.0, 1).expect("excitation"),
            )
    }

    #[test]
    fn soa_routing_is_bit_identical_to_scalar() {
        let scenarios = multi_material_grid().scenarios().expect("grid");
        let scalar = BatchRunner::new()
            .workers(1)
            .soa_routing(SoaRouting::ForceScalar)
            .run(scenarios.clone());
        let auto = BatchRunner::new().workers(1).run(scenarios.clone());
        let forced = BatchRunner::new()
            .workers(2)
            .soa_routing(SoaRouting::ForceSoa)
            .run(scenarios);
        assert_outcomes_bitwise_equal(&scalar, &auto);
        assert_outcomes_bitwise_equal(&scalar, &forced);
        // Auto groups the three same-shaped scenarios into one lockstep
        // sweep; the forced-scalar run never does.
        for entry in &auto.entries {
            assert_eq!(entry.outcome.as_ref().expect("ok").lockstep_lanes, Some(3));
        }
        for entry in &scalar.entries {
            assert_eq!(entry.outcome.as_ref().expect("ok").lockstep_lanes, None);
        }
    }

    #[test]
    fn thermal_operating_points_route_soa_and_stay_bit_identical() {
        use crate::scenario::OperatingPoint;
        // Two temperatures over three materials: each operating point is
        // its own lockstep group (the routing key includes the operating
        // point), each lane runs the thermally derived parameters, and
        // the results stay bit-identical to the scalar path.
        let grid = multi_material_grid()
            .operating_point("t-40", OperatingPoint::at_temperature(-40.0))
            .operating_point("t125", OperatingPoint::at_temperature(125.0));
        let scenarios = grid.scenarios().expect("grid");
        assert_eq!(scenarios.len(), 6);
        let scalar = BatchRunner::new()
            .workers(1)
            .soa_routing(SoaRouting::ForceScalar)
            .run(scenarios.clone());
        let auto = BatchRunner::new().workers(2).run(scenarios);
        assert_outcomes_bitwise_equal(&scalar, &auto);
        for entry in &auto.entries {
            let outcome = entry.outcome.as_ref().expect("ok");
            assert_eq!(
                outcome.lockstep_lanes,
                Some(3),
                "one group per operating point: {}",
                entry.scenario.name
            );
        }
        // The derived parameters genuinely differ across the temperature
        // axis: cold and hot runs of the same material disagree.
        let cold = &auto.entries[0].outcome.as_ref().expect("ok").curve;
        let hot = &auto.entries[1].outcome.as_ref().expect("ok").curve;
        assert_ne!(cold, hot, "temperature must change the trace");
    }

    #[test]
    fn auto_routing_keeps_singleton_groups_scalar() {
        // Each (config, excitation) cell of the small grid has exactly one
        // DirectTimeless member — nothing to batch under Auto, but
        // ForceSoa runs even singleton groups in lockstep.
        let scenarios = small_grid().scenarios().expect("grid");
        let auto = BatchRunner::new().workers(1).run(scenarios.clone());
        for entry in &auto.entries {
            assert_eq!(entry.outcome.as_ref().expect("ok").lockstep_lanes, None);
        }
        let forced = BatchRunner::new()
            .workers(1)
            .soa_routing(SoaRouting::ForceSoa)
            .run(scenarios);
        assert_outcomes_bitwise_equal(&auto, &forced);
        for entry in &forced.entries {
            let outcome = entry.outcome.as_ref().expect("ok");
            let expected = match outcome.backend {
                BackendKind::DirectTimeless => Some(1),
                _ => None,
            };
            assert_eq!(outcome.lockstep_lanes, expected, "{}", entry.scenario.name);
        }
    }

    #[test]
    fn lockstep_fan_back_preserves_input_order() {
        // Mixed grid: every backend over three materials.  Only the
        // DirectTimeless scenarios group into lockstep sweeps; the report
        // must still come back in exact input order.
        let scenarios = multi_material_grid()
            .backends(BackendKind::ALL)
            .scenarios()
            .expect("grid");
        let names: Vec<String> = scenarios.iter().map(|s| s.name.clone()).collect();
        let report = BatchRunner::new().workers(3).run(scenarios);
        let reported: Vec<String> = report
            .entries
            .iter()
            .map(|e| e.scenario.name.clone())
            .collect();
        assert_eq!(names, reported);
        assert_eq!(report.successes().count(), names.len());
    }

    #[test]
    fn empty_batch_produces_an_empty_report() {
        let report = BatchRunner::new().run(std::iter::empty::<Scenario>());
        assert!(report.entries.is_empty());
        assert_eq!(report.workers, 1);
        assert_eq!(report.serial_runtime(), Duration::ZERO);
        assert_eq!(report.speedup(), 0.0);
    }

    /// A streamed run's emissions: `(index, outcome)` pairs in emit order.
    type Emitted = Vec<(usize, Result<ScenarioOutcome, JaError>)>;

    /// Collects a streamed run into `(index, outcome)` pairs.
    fn streamed(
        runner: &BatchRunner,
        scenarios: &[Scenario],
        skip: usize,
    ) -> (Emitted, StreamSummary) {
        let mut collected = Vec::new();
        let summary = runner
            .run_in_order(
                scenarios,
                skip,
                |index, outcome, _| {
                    // The reduce step sees the absolute grid index.
                    if let Ok(ok) = &outcome {
                        assert_eq!(ok.name, scenarios[index].name);
                    }
                    outcome
                },
                |index, outcome| {
                    collected.push((index, outcome));
                    Ok::<(), Infallible>(())
                },
            )
            .unwrap_or_else(|never| match never {});
        (collected, summary)
    }

    #[test]
    fn streamed_run_emits_in_index_order_and_matches_run() {
        let scenarios = multi_material_grid()
            .backends(BackendKind::ALL)
            .scenarios()
            .expect("grid");
        let stored = BatchRunner::new().workers(1).run(scenarios.clone());
        for workers in [1, 2, 8] {
            let (collected, summary) =
                streamed(&BatchRunner::new().workers(workers), &scenarios, 0);
            assert_eq!(summary.scenarios, scenarios.len());
            assert_eq!(summary.emitted, scenarios.len());
            assert_eq!(summary.succeeded, scenarios.len());
            assert_eq!(summary.failed, 0);
            let indices: Vec<usize> = collected.iter().map(|(i, _)| *i).collect();
            assert_eq!(indices, (0..scenarios.len()).collect::<Vec<_>>());
            for ((_, outcome), entry) in collected.iter().zip(&stored.entries) {
                let streamed = outcome.as_ref().expect("ok");
                let stored = entry.outcome.as_ref().expect("ok");
                assert_eq!(streamed.name, stored.name);
                assert_eq!(streamed.stats, stored.stats);
                assert_eq!(streamed.curve, stored.curve);
            }
        }
    }

    #[test]
    fn streamed_run_skip_resumes_mid_grid_with_identical_outcomes() {
        let scenarios = multi_material_grid().scenarios().expect("grid");
        let (full, _) = streamed(&BatchRunner::new().workers(2), &scenarios, 0);
        let skip = 1;
        let (tail, summary) = streamed(&BatchRunner::new().workers(2), &scenarios, skip);
        assert_eq!(summary.emitted, scenarios.len() - skip);
        assert_eq!(tail.len(), full.len() - skip);
        for ((index, outcome), (full_index, full_outcome)) in tail.iter().zip(&full[skip..]) {
            assert_eq!(index, full_index);
            let a = outcome.as_ref().expect("ok");
            let b = full_outcome.as_ref().expect("ok");
            assert_eq!(a.curve, b.curve);
            assert_eq!(a.stats, b.stats);
        }
        // Skipping everything emits nothing.
        let (none, summary) = streamed(&BatchRunner::new().workers(2), &scenarios, scenarios.len());
        assert!(none.is_empty());
        assert_eq!(summary.emitted, 0);
    }

    #[test]
    fn streamed_run_propagates_the_first_emit_error() {
        let scenarios = small_grid().scenarios().expect("grid");
        for workers in [1, 4] {
            let mut emitted = 0_usize;
            let result = BatchRunner::new().workers(workers).run_in_order(
                &scenarios,
                0,
                |_, _, _| (),
                |index, ()| {
                    if index >= 2 {
                        return Err("sink full");
                    }
                    emitted += 1;
                    Ok(())
                },
            );
            assert_eq!(result.unwrap_err(), "sink full");
            assert_eq!(emitted, 2, "{workers} workers");
        }
    }

    #[test]
    fn streamed_run_records_failures_like_run() {
        let bad = Scenario::new(
            "bad",
            JaParameters::date2006(),
            JaConfig::default().with_dh_max(-1.0),
            BackendKind::DirectTimeless,
            Excitation::major_loop(10_000.0, 250.0, 1).expect("excitation"),
        );
        let good = Scenario::fig1(BackendKind::DirectTimeless, 500.0).expect("scenario");
        let (collected, summary) = streamed(
            &BatchRunner::new().workers(2),
            &[bad, good.clone(), good],
            0,
        );
        assert_eq!(summary.succeeded, 2);
        assert_eq!(summary.failed, 1);
        assert!(collected[0].1.is_err());
        assert!(collected[1].1.is_ok());
    }
}
