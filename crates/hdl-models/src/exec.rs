//! Parallel scenario execution.
//!
//! [`BatchRunner`] is the engine behind [`crate::scenario::run_batch`] and
//! every report writer: it distributes a scenario list over a pool of
//! scoped worker threads (`std::thread::scope`, no external dependencies),
//! where each worker claims the next job from a shared atomic cursor, and
//! a configurable error policy.  There is one executor,
//! [`BatchRunner::run_in_order`]: a caller-supplied **reduce** step runs
//! on the worker right after each scenario finishes and shrinks the
//! outcome to what the caller keeps — a rendered entry, an NDJSON record,
//! or the whole outcome for [`BatchRunner::run`] — and an **emit** step
//! receives the reduced values on the calling thread in input index
//! order.  Results are therefore **deterministic**: bit-identical
//! floating-point content in input order regardless of the worker count
//! (each scenario's computation is sequential and self-contained; the
//! executor only changes *where* it runs).  The one exception is
//! fail-fast cancellation, which depends on timing — see
//! [`ErrorPolicy::FailFast`].
//!
//! Reduce never sees a trace: every report needs only what a trace folds
//! into (loop metrics, loss, sample count), so lockstep lanes fold inside
//! the SoA kernel and build no curve, and scalar and circuit-job curves
//! are dropped once folded.  Only [`BatchRunner::run`] keeps every curve.
//!
//! Workers keep a [`RunScratch`] alive across the scenarios they execute:
//! consecutive scenarios sharing a (backend, material, configuration)
//! triple reuse the constructed backend through
//! [`HysteresisBackend::reset`] instead of rebuilding it, and the flattened
//! sample vector of the current excitation is cached by excitation
//! identity, so the parallel win is not eaten by per-scenario construction
//! and allocator traffic.
//!
//! Direct-timeless scenarios that share a (configuration, excitation) pair
//! are additionally routed — per [`SoaRouting`], default on — through the
//! structure-of-arrays lockstep batch ([`SoaBatch`]): the group is split,
//! in input order, into jobs of at most [`LOCKSTEP_LANES`] lanes, each job
//! runs as one SoA sweep with one lane per scenario, and the per-lane
//! results fan back into ordinary per-entry report slots.  The operating
//! point is not part of the key: it only feeds the per-lane resolved
//! parameters and the per-member loss, so a grid's temperatures share a
//! group, and since [`ScenarioGrid`](crate::scenario::ScenarioGrid) puts
//! the operating point innermost, a job's lanes are one material at
//! neighbouring temperatures.  The kernel runs its widest build the CPU
//! has: AVX-512, then AVX2, then portable.  Lane parameters are the
//! scenarios' **resolved** (thermally derived) parameters, the same values
//! the scalar path runs, so SoA `f64` lanes stay bit-identical to the
//! scalar model and routing never changes report content, only
//! throughput.  The batch runs the paper's configuration only (one
//! forward-Euler step per increment, modified Langevin law): a job whose
//! configuration it refuses runs its members on the scalar path, so such a
//! group reports exactly what `ForceScalar` does, and its entries carry no
//! `lockstep_lanes`.
//!
//! Circuit-driven scenarios are routed — under the same [`SoaRouting`]
//! modes — into **circuit jobs**.  A scenario's transient solve
//! ([`CircuitExcitation::simulate`](crate::scenario::CircuitExcitation::simulate))
//! depends only on its resolved parameters, configuration and circuit,
//! never on its backend (the in-circuit core is always the direct model),
//! so the scenarios of a grid that differ only in backend (or in an
//! operating point that resolves to the same parameters) share one solve:
//! the job solves the circuit once and replays its field samples through
//! each member's backend, and every member still carries its own copy of
//! the transient statistics, so the report is byte-identical to solving
//! per scenario.
//!
//! The distribution machinery itself (one-job claims over an atomic
//! cursor, worker-local state, an in-order reorder buffer) is one private
//! worker loop; the generic [`parallel_map`] is a collect over it and
//! powers the multi-start fitting batches of [`crate::fit`] — any
//! deterministic per-job workload can ride the same pool.

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
    /// Stop scheduling new jobs once any scenario fails; scenarios whose
    /// job had not yet started are recorded as [`JaError::Cancelled`], while
    /// the rest of a started job (a lockstep or circuit job's other members)
    /// still runs.  Which scenarios get cancelled depends on worker timing,
    /// so fail-fast reports are only deterministic for a single worker.
    FailFast,
}

/// How the runner maps [`BackendKind::DirectTimeless`] scenarios onto the
/// structure-of-arrays lockstep batch ([`SoaBatch`]).
///
/// Scenarios are **groupable** when they share a (configuration,
/// excitation) pair, use the direct-timeless backend and have a prescribed
/// (non-circuit) stimulus — whatever their material and operating point.
/// A group is split, in input order, into jobs of at most
/// [`LOCKSTEP_LANES`] scenarios, and each job runs as one SoA sweep with
/// one lane per scenario, on the kernel's widest build the CPU has.
/// Every `f64` lane is bit-identical to the scalar run of the same
/// scenario, so the routing decision never changes report content — only
/// the timing fields.  A job whose configuration the batch refuses (any
/// but the paper's forward Euler on the modified Langevin law) runs its
/// members scalar under every mode.
///
/// The same modes decide circuit-driven scenarios on any backend: those
/// sharing bit-identical resolved parameters, a configuration and a circuit
/// would run the identical transient solve, so a group of two or more
/// becomes one circuit job that solves once and replays the field samples
/// through each member's backend.  Solving is backend-independent, so this
/// too changes only the timing fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SoaRouting {
    /// Run every lockstep job of two or more lanes through the lockstep
    /// batch and every circuit group of two or more as one shared solve;
    /// everything else runs scalar.  The default.
    #[default]
    Auto,
    /// Run every groupable direct-timeless scenario through the lockstep
    /// batch, even alone in its job (useful for exercising the SoA path);
    /// circuit groups are shared exactly as under `Auto`.
    ForceSoa,
    /// Run every scenario through the scalar path, one at a time: every
    /// circuit scenario solves its own circuit.  The reference path.
    ForceScalar,
}

impl SoaRouting {
    /// Whether `lanes` parameter sets that could step together run as
    /// lanes of one lockstep sweep: under `Auto` two or more do, under
    /// `ForceSoa` any number does, under `ForceScalar` none does.  The one
    /// rule behind both lockstep jobs and multi-start fits
    /// ([`crate::fit::fit_batch`]).
    pub fn lockstep(self, lanes: usize) -> bool {
        match self {
            SoaRouting::Auto => lanes >= 2,
            SoaRouting::ForceSoa => true,
            SoaRouting::ForceScalar => false,
        }
    }
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
    policy: ErrorPolicy,
    routing: SoaRouting,
    /// Outcomes keep their curves: set by [`run`](Self::run) alone, so
    /// every report path folds without one.
    keep_curves: bool,
}

impl BatchRunner {
    /// An executor with the default knobs: one worker per available core,
    /// collect-all error policy.  Workers claim one job at a time, the best
    /// load balance for uneven scenario runtimes.
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
    /// whose reduce step keeps the whole outcome, and the one executor
    /// path whose outcomes keep their curves (lockstep lanes rebuild theirs
    /// from a recorded trajectory).
    ///
    /// Under the default [`SoaRouting::Auto`], scenarios sharing a
    /// (configuration, excitation) pair on the direct-timeless backend run
    /// as structure-of-arrays lockstep sweeps of up to [`LOCKSTEP_LANES`]
    /// lanes instead of one scalar sweep each — with bit-identical
    /// per-entry results, since the SoA `f64` lanes reproduce the scalar
    /// operation sequence exactly — and circuit scenarios that would run
    /// the identical transient solve share one, with the same per-entry
    /// results as solving per scenario.
    pub fn run(&self, scenarios: impl IntoIterator<Item = Scenario>) -> BatchReport {
        let scenarios: Vec<Scenario> = scenarios.into_iter().collect();
        let started = Instant::now();
        let keeping = Self {
            keep_curves: true,
            ..self.clone()
        };
        let (results, summary) =
            keeping.run_reduced(&scenarios, |_, outcome, wall_clock| (outcome, wall_clock));
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
    /// scenario (or its lockstep lane, or its circuit-job member) finishes,
    /// where `wall_clock` is the time the entry spent on its worker
    /// (backend construction, sweep, metric extraction and loss; for a
    /// lockstep lane, an equal share of the job's sweep, in which the lane
    /// was folded, plus the lane's own metrics and loss; for a circuit-job
    /// member, an equal share of the job's circuit solve plus the member's
    /// own backend construction, sweep, metrics and loss; zero for
    /// cancelled entries).  Reduce never sees a trace: the outcome's
    /// `curve` is empty for every job kind — a lockstep lane never builds
    /// one, and a scalar or circuit-job member's is dropped once folded —
    /// while `metrics`, `loss` and `stats.samples` carry what a report
    /// keeps.  It returns something small — a rendered entry, an NDJSON
    /// record — so the outcome is dropped on the worker.  `emit` runs on
    /// the calling thread as soon as an entry and all its predecessors have
    /// been reduced.  Peak memory is therefore bounded by the jobs in
    /// flight (the workers' shared sample vectors, and one scalar curve per
    /// worker at a time) plus the reorder buffer of reduced values, not by
    /// grid size or by lanes × samples.
    /// Because each scenario's computation is sequential and
    /// self-contained, the emitted sequence is **bit-identical for any
    /// worker count** — the property the report writers' byte-determinism
    /// rests on.
    ///
    /// `skip` supports checkpoint/resume: entries `0..skip` are neither run
    /// nor emitted.  Skipping cannot change the remaining outcomes — every
    /// scenario is independent, SoA lockstep regrouping is result-neutral
    /// by the lane/scalar bit-equality invariant, and circuit regrouping by
    /// the backend independence of the transient solve.
    ///
    /// # Errors
    ///
    /// Returns the first error produced by `emit`.  After it no new job
    /// starts and nothing more is emitted; jobs already running finish and
    /// their outcomes are dropped.  A stream whose reader has gone away
    /// therefore stops evaluating its grid.
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
        let jobs = route_jobs(pending, self.routing);
        let abort = AtomicBool::new(false);
        let mut succeeded = 0_usize;
        let mut failed = 0_usize;
        in_order(
            &jobs,
            workers,
            RunScratch::new,
            |_, job, scratch, sink| {
                let mut deliver = |index: usize,
                                   mut outcome: Result<ScenarioOutcome, JaError>,
                                   wall_clock: Duration| {
                    if let (false, Ok(outcome)) = (self.keep_curves, &mut outcome) {
                        outcome.curve = BhCurve::new();
                    }
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
                    Job::Lockstep(members) | Job::Circuit(members) if cancelled => {
                        for &index in members {
                            deliver(index, Err(JaError::Cancelled), Duration::ZERO);
                        }
                    }
                    Job::Lockstep(members) => {
                        run_lockstep_group(
                            pending,
                            members,
                            scratch,
                            self.keep_curves,
                            &mut deliver,
                        );
                    }
                    Job::Circuit(members) => {
                        run_circuit_group(pending, members, scratch, &mut deliver);
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

/// The most lanes one lockstep job steps together: one register block of
/// the kernel's AVX-512 copy (two blocks of 8 on AVX2 and on the portable
/// copy).  On a
/// 2-core AVX-512 Xeon, 16-lane jobs on register blocks cut the
/// `thermal_grid` benchmark's `wall_s` by 29% against 8-lane jobs on the
/// memory-column kernel; with only the AVX2 copy, `ja batch --workers 2`
/// on the same grid ran 12% faster.  The costs: a lone group of 9–16
/// members runs as one job, so on 2 workers it no longer splits across
/// both; and in the `serve_mix` benchmark, cache hits and misses served
/// alongside a stream's 16-lane jobs took about 10% longer than beside
/// 8-lane ones, which moved its median request latency by about 5%.
pub const LOCKSTEP_LANES: usize = 16;

/// One unit of parallel work: a single scenario on the scalar path, the
/// scenario indices of one SoA lockstep sweep, or the scenario indices of
/// one shared circuit solve.
#[derive(Debug, PartialEq, Eq)]
enum Job {
    Scalar(usize),
    Lockstep(Vec<usize>),
    Circuit(Vec<usize>),
}

/// Partitions the scenario list into jobs according to the routing policy:
/// each direct-timeless (configuration, excitation) group splits, in input
/// order, into lockstep jobs of at most [`LOCKSTEP_LANES`] lanes, and each
/// group of circuit scenarios that would run the identical transient solve
/// becomes one circuit job, however large (its members only replay the
/// shared samples).  Jobs are ordered by their first scenario index, so a
/// single-worker fail-fast run cancels in job order: a job that starts
/// after the failure is cancelled whole, while the members of a job that
/// had already started — which may sit far apart in the input — still run.
fn route_jobs(scenarios: &[Scenario], routing: SoaRouting) -> Vec<Job> {
    if routing == SoaRouting::ForceScalar {
        return (0..scenarios.len()).map(Job::Scalar).collect();
    }
    let mut scalar: Vec<usize> = Vec::new();
    // (representative index, members): few distinct (config, excitation)
    // pairs per grid, so a linear scan beats hashing the float-laden keys.
    let mut lockstep: Vec<(usize, Vec<usize>)> = Vec::new();
    // (resolved parameter bits, members), scanned the same way; the first
    // member stands in for the shared configuration and circuit.
    let mut circuits: Vec<([u64; 6], Vec<usize>)> = Vec::new();
    for (index, scenario) in scenarios.iter().enumerate() {
        if matches!(scenario.excitation, Excitation::Circuit(_)) {
            // A scenario whose parameters do not resolve runs scalar, which
            // reports its own error.
            let Ok(params) = scenario.resolved_params() else {
                scalar.push(index);
                continue;
            };
            let bits = param_bits(&params);
            match circuits.iter_mut().find(|(key, members)| {
                let other = &scenarios[members[0]];
                *key == bits
                    && other.config == scenario.config
                    && other.excitation == scenario.excitation
            }) {
                Some((_, members)) => members.push(index),
                None => circuits.push((bits, vec![index])),
            }
        } else if scenario.backend == BackendKind::DirectTimeless {
            match lockstep.iter_mut().find(|(representative, _)| {
                let other = &scenarios[*representative];
                other.config == scenario.config && other.excitation == scenario.excitation
            }) {
                Some((_, members)) => members.push(index),
                None => lockstep.push((index, vec![index])),
            }
        } else {
            scalar.push(index);
        }
    }
    let mut jobs: Vec<Job> = scalar.into_iter().map(Job::Scalar).collect();
    for (_, members) in lockstep {
        for lanes in members.chunks(LOCKSTEP_LANES) {
            if routing.lockstep(lanes.len()) {
                jobs.push(Job::Lockstep(lanes.to_vec()));
            } else {
                jobs.extend(lanes.iter().copied().map(Job::Scalar));
            }
        }
    }
    for (_, members) in circuits {
        jobs.push(match members[..] {
            [single] => Job::Scalar(single),
            _ => Job::Circuit(members),
        });
    }
    jobs.sort_by_key(|job| match job {
        Job::Scalar(index) => *index,
        Job::Lockstep(members) | Job::Circuit(members) => members[0],
    });
    jobs
}

/// The bit patterns of a parameter set: two sets share a circuit solve
/// only when every field is the same float, so `0.0` and `-0.0` never do.
/// The exhaustive destructuring fails to compile when a field is added.
fn param_bits(params: &JaParameters) -> [u64; 6] {
    let JaParameters {
        m_sat,
        a,
        a2,
        k,
        alpha,
        c,
    } = *params;
    [m_sat.value(), a, a2, k, alpha, c].map(f64::to_bits)
}

/// Where a lockstep job hands each member's `(index, outcome,
/// wall_clock)` as soon as it is ready.
type Deliver<'a> = &'a mut dyn FnMut(usize, Result<ScenarioOutcome, JaError>, Duration);

/// Runs one lockstep job as a single SoA sweep, one lane per scenario, and
/// delivers the per-lane results in member order.  The sweep folds every
/// lane as it steps, so a lane's outcome comes from its fold and no
/// trajectory or curve exists — unless `keep_curves` is set, when the
/// sweep also records the trajectory and every lane's curve is rebuilt
/// into its outcome.
///
/// Lane outcomes are bit-identical to the scalar path (the batch runs `f64`
/// columns); only the timing fields differ — each member's `runtime` is an
/// equal share of the job's sweep, since the lanes genuinely ran together,
/// and its `wall_clock` adds the lane's own metrics and loss.  A job
/// whose shared configuration the batch refuses — an invalid one, or one
/// the kernel does not run (see [`SoaBatch::new`]) — or one of whose
/// members has an operating point that does not resolve, falls back to
/// the scalar path, which runs the refused configuration or reports the
/// exact per-scenario error the job would have masked (and still succeeds
/// the valid members).
fn run_lockstep_group(
    scenarios: &[Scenario],
    members: &[usize],
    scratch: &mut RunScratch,
    keep_curves: bool,
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
        ..
    } = scratch;
    let samples = cached_samples(samples, &first.excitation);
    let batch = soa.as_mut().expect("constructed above");

    batch.assign(lane_params);
    let mut curves = Vec::new();
    if keep_curves {
        curves.resize_with(members.len(), BhCurve::new);
        batch.run_samples_into_curves(samples, &mut curves);
    } else {
        batch.run_samples(samples);
    }
    let share = t0.elapsed() / members.len() as u32;

    for (lane, &index) in members.iter().enumerate() {
        let t_lane = Instant::now();
        let outcome = match batch.lane_error(lane) {
            Some(err) => Err(err.clone()),
            None => {
                // Lockstep groups run on the direct backend only, which has
                // no simulation kernel, and field-driven excitations only.
                let mut outcome = scenarios[index].outcome(
                    batch.lane_fold(lane),
                    batch.lane_statistics(lane),
                    None,
                    None,
                    share,
                    Some(members.len()),
                );
                if let Some(curve) = curves.get_mut(lane) {
                    outcome.curve = std::mem::take(curve);
                }
                Ok(outcome)
            }
        };
        deliver(index, outcome, share + t_lane.elapsed());
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

/// Runs one circuit job: solves the shared drive circuit once, with the
/// first member's resolved parameters and configuration (bit-identical to
/// every member's, by the routing key), then replays its field samples
/// through each member's backend in member order.
///
/// Outcomes are those of the scalar path: each member builds (or reuses)
/// its backend from the scratch, sweeps the shared samples, computes its
/// own metrics and loss, and carries its own copy of the transient
/// statistics; a failed solve reaches a member only after its backend
/// builds, exactly as its own solve would have failed.  Each member's
/// `runtime` is an equal share of the solve plus its own sweep, and its
/// `wall_clock` that share plus its own backend construction, sweep,
/// metrics and loss.
fn run_circuit_group(
    scenarios: &[Scenario],
    members: &[usize],
    scratch: &mut RunScratch,
    deliver: Deliver<'_>,
) {
    let first = &scenarios[members[0]];
    let Excitation::Circuit(spec) = &first.excitation else {
        unreachable!("route_jobs groups circuit scenarios only");
    };
    let t0 = Instant::now();
    let solved = first
        .resolved_params()
        .and_then(|params| spec.simulate(params, first.config));
    let share = t0.elapsed() / members.len() as u32;
    for &index in members {
        let t_member = Instant::now();
        let outcome = scenarios[index]
            .run_with_solve(scratch, Some(&solved))
            .map(|mut outcome| {
                outcome.runtime += share;
                outcome
            });
        deliver(index, outcome, share + t_member.elapsed());
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
/// Each worker claims one job at a time from a shared atomic cursor.  As
/// long as `run` is a pure function of the job, the output is
/// **deterministic**: identical for any worker count, including the inline
/// `workers <= 1` path that spawns no threads at all.
///
/// Cross-job coordination (e.g. fail-fast abort) lives in the closure:
/// capture an [`AtomicBool`] and consult it per job, as
/// [`BatchRunner::run_in_order`] does.
pub fn parallel_map<T, R, F>(jobs: &[T], workers: usize, run: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let mut results = Vec::with_capacity(jobs.len());
    in_order(
        jobs,
        workers,
        || (),
        |index, job, (), sink| sink(index, run(job)),
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
/// Workers claim one job at a time from a shared atomic cursor, keep
/// one `make_state` instance alive across their jobs, and pass
/// `run(job_index, job, state, sink)` a `sink` that accepts
/// `(output_index, value)` pairs — a job may produce any number of
/// outputs, and the output indices of all jobs together must be exactly
/// `0..n`.  Values travel over a channel to the calling thread, which
/// parks them in a reorder buffer and hands them to `emit` in output-index
/// order.  With `workers <= 1` everything runs inline, no threads spawned.
///
/// After the first `emit` error no new job starts: the inline loop stops,
/// and each worker checks a shared flag before claiming.  Jobs already
/// running finish, their values are dropped unemitted, and that error is
/// returned.
fn in_order<T, S, R, E>(
    jobs: &[T],
    workers: usize,
    make_state: impl Fn() -> S + Sync,
    run: impl Fn(usize, &T, &mut S, &mut dyn FnMut(usize, R)) + Sync,
    mut emit: impl FnMut(usize, R) -> Result<(), E>,
) -> Result<(), E>
where
    T: Sync,
    R: Send,
{
    let mut buffered: BTreeMap<usize, R> = BTreeMap::new();
    let mut next = 0_usize;
    let mut result = Ok(());
    // Set once `emit` has failed; it publishes nothing else.
    let stopped = AtomicBool::new(false);
    let mut collect = |index: usize, value: R| {
        buffered.insert(index, value);
        while let Some(value) = buffered.remove(&next) {
            if result.is_ok() {
                result = emit(next, value);
                if result.is_err() {
                    stopped.store(true, Ordering::Relaxed);
                }
            }
            next += 1;
        }
    };

    if workers <= 1 {
        let mut state = make_state();
        for (index, job) in jobs.iter().enumerate() {
            if stopped.load(Ordering::Relaxed) {
                break;
            }
            run(index, job, &mut state, &mut collect);
        }
    } else {
        let (tx, rx) = mpsc::channel::<(usize, R)>();
        let cursor = AtomicUsize::new(0);
        thread::scope(|scope| {
            for _ in 0..workers {
                let tx = tx.clone();
                let (cursor, stopped, make_state, run) = (&cursor, &stopped, &make_state, &run);
                scope.spawn(move || {
                    let mut state = make_state();
                    let mut closed = false;
                    while !stopped.load(Ordering::Relaxed) {
                        let index = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(job) = jobs.get(index) else {
                            break;
                        };
                        run(index, job, &mut state, &mut |output, value| {
                            closed |= tx.send((output, value)).is_err();
                        });
                        if closed {
                            return;
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
    debug_assert!(
        result.is_err() || buffered.is_empty(),
        "every output index was produced"
    );
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
/// lockstep batch and its lane parameter buffer.
#[derive(Default)]
pub struct RunScratch {
    cached: Option<CachedBackend>,
    samples: Option<(Excitation, Vec<f64>)>,
    soa: Option<SoaBatch>,
    lane_params: Vec<JaParameters>,
}

struct CachedBackend {
    kind: BackendKind,
    params: JaParameters,
    config: JaConfig,
    backend: Box<dyn HysteresisBackend>,
}

/// The excitation-sample cache lookup shared by the scalar and lockstep
/// paths: the flattened samples of `excitation`, recomputed only when it
/// differs from the cached one.
fn cached_samples<'s>(
    samples: &'s mut Option<(Excitation, Vec<f64>)>,
    excitation: &Excitation,
) -> &'s [f64] {
    let hit = samples.as_ref().is_some_and(|(key, _)| key == excitation);
    if !hit {
        *samples = Some((excitation.clone(), excitation.to_samples()));
    }
    &samples.as_ref().expect("cached above").1
}

impl RunScratch {
    /// An empty scratch (no cached backend).
    pub fn new() -> Self {
        Self::default()
    }

    /// A demagnetised backend for the scenario — the cached one when the
    /// scenario matches it, a freshly built one otherwise — and the
    /// scenario's flattened sample vector from the excitation cache
    /// (recomputed only when the excitation changed; empty for
    /// circuit-driven excitations, whose field sequence is
    /// material-dependent and solver-determined).
    ///
    /// # Errors
    ///
    /// Propagates backend construction or reset failures.
    pub fn backend_and_samples(
        &mut self,
        scenario: &Scenario,
    ) -> Result<(&mut dyn HysteresisBackend, &[f64]), JaError> {
        let RunScratch {
            cached, samples, ..
        } = self;
        let samples: &[f64] = match scenario.excitation {
            Excitation::Circuit(_) => &[],
            _ => cached_samples(samples, &scenario.excitation),
        };
        // The backend cache is keyed on the *resolved* (thermally derived)
        // parameters: two scenarios at different operating temperatures
        // run different materials even when their reference parameter
        // sets match.
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
        Ok((cached.backend.as_mut(), samples))
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
    use std::sync::{Condvar, Mutex};

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
    fn distribution_covers_every_scenario() {
        let scenarios = small_grid().scenarios().expect("grid");
        let expected = scenarios.len();
        let report = BatchRunner::new().workers(3).run(scenarios);
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
        // Two backends on one circuit: a circuit job, which checks the
        // cancel flag at its start like every other job.
        let circuit = Scenario::new(
            "circuit",
            JaParameters::date2006(),
            JaConfig::default(),
            BackendKind::AmsTimeless,
            Excitation::Circuit(short_inrush()),
        );
        let mut other_backend = circuit.clone();
        other_backend.backend = BackendKind::TimeDomainBaseline;
        let report = BatchRunner::new().workers(1).fail_fast().run([
            bad,
            good.clone(),
            good,
            circuit,
            other_backend,
        ]);
        assert_eq!(report.entries.len(), 5);
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
    fn parallel_map_orders_results() {
        let jobs: Vec<usize> = (0..100).collect();
        let double = |job: &usize| *job * 2;
        let serial = parallel_map(&jobs, 1, double);
        // Job-order results regardless of worker count.
        assert_eq!(serial, parallel_map(&jobs, 4, double));
        assert_eq!(serial[7], 14);
        // Degenerate inputs.
        assert!(parallel_map(&[] as &[usize], 4, |_| ()).is_empty());
        assert_eq!(parallel_map(&jobs, 8, |job| *job).len(), 100);
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
        // sweep; the forced-scalar run never does.  A lane's wall clock is
        // its share of the sweep plus its own curve, metrics and loss; its
        // runtime is the sweep share alone.
        for entry in &auto.entries {
            let outcome = entry.outcome.as_ref().expect("ok");
            assert_eq!(outcome.lockstep_lanes, Some(3));
            assert!(
                entry.wall_clock > outcome.runtime,
                "{}: wall clock {:?} vs runtime {:?}",
                entry.scenario.name,
                entry.wall_clock,
                outcome.runtime
            );
        }
        for entry in &scalar.entries {
            assert_eq!(entry.outcome.as_ref().expect("ok").lockstep_lanes, None);
        }

        // The same grid under each configuration the lockstep batch
        // refuses: the job falls back to the scalar path, so every routing
        // produces the reference outcomes and no entry ran as a lane.
        use ja_hysteresis::config::SlopeIntegration;
        use ja_hysteresis::params::AnhystereticChoice;
        for config in [
            JaConfig::default().with_integration(SlopeIntegration::Heun),
            JaConfig::default().with_integration(SlopeIntegration::RungeKutta4),
            JaConfig::default().with_subdivision(),
            JaConfig::default().with_anhysteretic(AnhystereticChoice::Langevin),
            JaConfig::default().with_anhysteretic(AnhystereticChoice::DoubleArctan),
        ] {
            let mut scenarios = multi_material_grid().scenarios().expect("grid");
            for scenario in &mut scenarios {
                scenario.config = config;
            }
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
            for entry in auto.entries.iter().chain(&forced.entries) {
                let outcome = entry.outcome.as_ref().expect("ok");
                assert_eq!(outcome.lockstep_lanes, None, "{config:?}");
            }
        }
    }

    #[test]
    fn thermal_operating_points_route_soa_and_stay_bit_identical() {
        use crate::scenario::OperatingPoint;
        // Two temperatures over three materials: the operating point is
        // not part of the routing key, so all six scenarios are one
        // lockstep job, each lane runs the thermally derived parameters,
        // and the results stay bit-identical to the scalar path.
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
                Some(6),
                "one job across both operating points: {}",
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
    fn route_jobs_splits_groups_into_sixteen_lane_jobs_in_input_order() {
        use crate::scenario::OperatingPoint;
        // 4 materials × 34 temperatures: one (config, excitation) group of
        // 136 members, which splits into 8 jobs of 16 and one of 8, in
        // input order.
        let grid = (0..34).fold(
            multi_material_grid().material("ferrite", JaParameters::soft_ferrite()),
            |grid, step| {
                let t_c = -40.0 + 5.0 * f64::from(step);
                grid.operating_point(format!("t{step}"), OperatingPoint::at_temperature(t_c))
            },
        );
        let scenarios = grid.scenarios().expect("grid");
        assert_eq!(scenarios.len(), 136);
        let expected: Vec<Job> = (0..136)
            .step_by(LOCKSTEP_LANES)
            .map(|first| Job::Lockstep((first..136.min(first + LOCKSTEP_LANES)).collect()))
            .collect();
        assert_eq!(expected.len(), 9);
        assert_eq!(expected[8], Job::Lockstep((128..136).collect()));
        assert_eq!(route_jobs(&scenarios, SoaRouting::Auto), expected);

        // A job's tail shorter than two lanes runs scalar under Auto.
        let jobs = route_jobs(&scenarios[..17], SoaRouting::Auto);
        assert_eq!(jobs, [Job::Lockstep((0..16).collect()), Job::Scalar(16)]);

        // ForceSoa keeps singleton groups as 1-lane lockstep jobs.
        let scenarios = small_grid().scenarios().expect("grid");
        for (index, job) in route_jobs(&scenarios, SoaRouting::ForceSoa)
            .iter()
            .enumerate()
        {
            let expected = match scenarios[index].backend {
                BackendKind::DirectTimeless => Job::Lockstep(vec![index]),
                _ => Job::Scalar(index),
            };
            assert_eq!(*job, expected);
        }
    }

    /// A short inrush drive: the exec tests need a real solve, not a long
    /// one.
    fn short_inrush() -> crate::scenario::CircuitExcitation {
        let mut spec = crate::scenario::CircuitExcitation::inrush();
        spec.t_end = 0.005;
        spec
    }

    #[test]
    fn route_jobs_shares_each_circuit_solve_across_backends() {
        use crate::scenario::{CircuitExcitation, OperatingPoint, StepControl};
        // The mixed_backends shape: 3 materials × systemc/ams/time-domain ×
        // 2 configs × {2 field excitations, 2 circuits} = 72 scenarios.
        // Each circuit block of 18 holds 6 (config, material) cells whose
        // 3 backends sit 6 indices apart: 12 circuit jobs of 3.
        let grid = ScenarioGrid::new()
            .material("date2006", JaParameters::date2006())
            .material("hard-steel", JaParameters::hard_steel())
            .material("ferrite", JaParameters::soft_ferrite())
            .backends([
                BackendKind::SystemC,
                BackendKind::AmsTimeless,
                BackendKind::TimeDomainBaseline,
            ])
            .config("dh10", JaConfig::default())
            .config("dh25", JaConfig::default().with_dh_max(25.0))
            .excitation(
                "major",
                Excitation::major_loop(8_000.0, 250.0, 1).expect("excitation"),
            )
            .excitation(
                "biased",
                Excitation::biased_minor_loop(1_500.0, 750.0, 1, 50.0).expect("excitation"),
            )
            .excitation("sine", Excitation::Circuit(CircuitExcitation::inrush()))
            .excitation(
                "adaptive",
                Excitation::Circuit(CircuitExcitation::inrush().with_step_control(
                    StepControl::Adaptive(CircuitExcitation::adaptive_defaults()),
                )),
            );
        let scenarios = grid.scenarios().expect("grid");
        assert_eq!(scenarios.len(), 72);
        let mut expected: Vec<Job> = (0..36).map(Job::Scalar).collect();
        for block in [36, 54] {
            expected.extend(
                (block..block + 6).map(|first| Job::Circuit(vec![first, first + 6, first + 12])),
            );
        }
        for routing in [SoaRouting::Auto, SoaRouting::ForceSoa] {
            assert_eq!(route_jobs(&scenarios, routing), expected, "{routing:?}");
        }
        let scalar = route_jobs(&scenarios, SoaRouting::ForceScalar);
        assert_eq!(scalar, (0..72).map(Job::Scalar).collect::<Vec<_>>());

        // A circuit cell with one member has nothing to share.
        let lone = &scenarios[36..37];
        assert_eq!(route_jobs(lone, SoaRouting::Auto), [Job::Scalar(0)]);
        assert_eq!(route_jobs(lone, SoaRouting::ForceSoa), [Job::Scalar(0)]);

        // An operating point whose temperature does not resolve (above the
        // Curie point) stays scalar and reports its own error.
        let unresolvable: Vec<Scenario> = [&scenarios[36], &scenarios[42]]
            .into_iter()
            .map(|scenario| {
                scenario
                    .clone()
                    .with_operating_point(OperatingPoint::at_temperature(5_000.0))
            })
            .collect();
        assert!(unresolvable[0].resolved_params().is_err());
        assert_eq!(
            route_jobs(&unresolvable, SoaRouting::Auto),
            [Job::Scalar(0), Job::Scalar(1)]
        );
    }

    #[test]
    fn circuit_job_members_carry_a_solve_share_and_their_own_work() {
        // Every backend over two materials on one short circuit: the direct
        // scenarios join the circuit jobs too (circuits never run in
        // lockstep), giving two jobs of four.  Bit-equality with the scalar
        // path is asserted across routing modes in
        // tests/batch_determinism.rs; here, the timing fields.
        let grid = ScenarioGrid::new()
            .material("date2006", JaParameters::date2006())
            .material("hard-steel", JaParameters::hard_steel())
            .backends(BackendKind::ALL)
            .excitation("inrush", Excitation::Circuit(short_inrush()));
        let scenarios = grid.scenarios().expect("grid");
        assert_eq!(
            route_jobs(&scenarios, SoaRouting::Auto),
            [
                Job::Circuit(vec![0, 2, 4, 6]),
                Job::Circuit(vec![1, 3, 5, 7])
            ]
        );
        let report = BatchRunner::new().workers(2).run(scenarios);
        for entry in &report.entries {
            let outcome = entry.outcome.as_ref().expect("ok");
            assert!(outcome.transient.is_some(), "{}", entry.scenario.name);
            assert_eq!(outcome.lockstep_lanes, None);
            // A member's runtime is its solve share plus its own sweep; its
            // wall clock adds its own backend build, metrics and loss.
            assert!(outcome.runtime > Duration::ZERO, "{}", entry.scenario.name);
            assert!(
                entry.wall_clock >= outcome.runtime,
                "{}",
                entry.scenario.name
            );
        }
    }

    #[test]
    fn a_failed_shared_solve_reaches_every_member_as_its_scalar_error() {
        // dt > t_end passes CircuitExcitation::new but fails the transient
        // engine.  Under the non-paper config the SystemC member fails to
        // build first, exactly as on the scalar path, which never reaches
        // the solve.
        let mut spec = short_inrush();
        spec.t_end = 1e-4;
        spec.dt = 5e-4;
        let config = JaConfig::default().with_subdivision();
        let grid = ScenarioGrid::new()
            .backends(BackendKind::ALL)
            .config("paper", JaConfig::default())
            .config("unguarded", config)
            .excitation("too-coarse", Excitation::Circuit(spec));
        let scenarios = grid.scenarios().expect("grid");
        assert!(route_jobs(&scenarios, SoaRouting::Auto)
            .iter()
            .any(|job| matches!(job, Job::Circuit(members) if members.len() == 4)));
        let scalar = BatchRunner::new()
            .workers(1)
            .soa_routing(SoaRouting::ForceScalar)
            .run(scenarios.clone());
        let shared = BatchRunner::new().workers(2).run(scenarios);
        assert_eq!(shared.failures().count(), 8);
        assert_outcomes_bitwise_equal(&scalar, &shared);
        let errors: Vec<&JaError> = shared.failures().map(|(_, err)| err).collect();
        assert!(errors.iter().any(|err| matches!(err, JaError::Solver(_))));
        assert!(errors
            .iter()
            .any(|err| matches!(err, JaError::Backend { .. })));
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

    /// Collects a streamed run into `(index, outcome)` pairs, asserting
    /// that reduce never sees a curve.
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
                    // The reduce step sees the absolute grid index, and an
                    // outcome without its trace.
                    if let Ok(ok) = &outcome {
                        assert_eq!(ok.name, scenarios[index].name);
                        assert!(ok.curve.is_empty(), "{}: reduce saw a curve", ok.name);
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

    /// Three materials on every backend, under a field excitation and a
    /// short circuit drive, at an operating point that carries a loss: the
    /// field-driven direct-timeless entries are one lockstep job, the other
    /// field-driven entries scalar jobs, and each material's circuit
    /// entries one circuit job.
    fn every_job_kind() -> Vec<Scenario> {
        use crate::scenario::OperatingPoint;
        use magnetics::geometry::CoreGeometry;
        let scenarios = multi_material_grid()
            .backends([
                BackendKind::SystemC,
                BackendKind::AmsTimeless,
                BackendKind::TimeDomainBaseline,
            ])
            .excitation("inrush", Excitation::Circuit(short_inrush()))
            .operating_point(
                "50hz",
                OperatingPoint::new()
                    .with_frequency(50.0)
                    .with_geometry(CoreGeometry::demo()),
            )
            .scenarios()
            .expect("grid");
        let jobs = route_jobs(&scenarios, SoaRouting::Auto);
        assert!(jobs.contains(&Job::Lockstep(vec![0, 1, 2])));
        assert!(jobs.contains(&Job::Scalar(3)));
        assert!(jobs.contains(&Job::Circuit(vec![12, 15, 18, 21])));
        scenarios
    }

    /// The bits of what a report keeps of an outcome: metrics and loss.
    fn result_bits(outcome: &ScenarioOutcome) -> (Option<[u64; 6]>, Option<[u64; 4]>) {
        (
            outcome
                .metrics
                .map(|metrics| metrics.named_values().map(|(_, value)| value.to_bits())),
            outcome.loss.map(|loss| {
                [
                    loss.hysteresis_w,
                    loss.eddy_w,
                    loss.total_w,
                    loss.energy_per_cycle_j,
                ]
                .map(f64::to_bits)
            }),
        )
    }

    /// Asserts that a streamed outcome, which has no curve, carries what a
    /// report keeps of the same entry of [`BatchRunner::run`]: the
    /// statistics, a `stats.samples` equal to the kept curve's length, and
    /// bit-identical metrics and loss.
    fn assert_streamed_matches_run(streamed: &ScenarioOutcome, kept: &ScenarioOutcome) {
        let name = &kept.name;
        assert_eq!(&streamed.name, name);
        assert!(!kept.curve.is_empty(), "{name}: run keeps the curve");
        assert_eq!(streamed.stats, kept.stats, "{name}");
        assert_eq!(streamed.stats.samples, kept.curve.len() as u64, "{name}");
        assert!(kept.loss.is_some(), "{name}: the grid carries a loss");
        assert_eq!(result_bits(streamed), result_bits(kept), "{name}");
        assert_eq!(streamed.transient, kept.transient, "{name}");
        assert_eq!(streamed.lockstep_lanes, kept.lockstep_lanes, "{name}");
    }

    #[test]
    fn streamed_run_emits_in_index_order_and_matches_run() {
        let scenarios = every_job_kind();
        let stored = BatchRunner::new().workers(1).run(scenarios.clone());
        let runners = [1, 2, 8]
            .map(|workers| BatchRunner::new().workers(workers))
            .into_iter()
            .chain([BatchRunner::new()
                .workers(2)
                .soa_routing(SoaRouting::ForceScalar)]);
        for runner in runners {
            let (collected, summary) = streamed(&runner, &scenarios, 0);
            assert_eq!(summary.scenarios, scenarios.len());
            assert_eq!(summary.emitted, scenarios.len());
            assert_eq!(summary.succeeded, scenarios.len());
            assert_eq!(summary.failed, 0);
            let indices: Vec<usize> = collected.iter().map(|(i, _)| *i).collect();
            assert_eq!(indices, (0..scenarios.len()).collect::<Vec<_>>());
            for ((_, outcome), entry) in collected.iter().zip(&stored.entries) {
                let mut kept = entry.outcome.clone().expect("ok");
                if runner.routing == SoaRouting::ForceScalar {
                    kept.lockstep_lanes = None;
                }
                assert_streamed_matches_run(outcome.as_ref().expect("ok"), &kept);
            }
        }
    }

    #[test]
    fn streamed_run_skip_resumes_mid_grid_with_identical_outcomes() {
        let scenarios = every_job_kind();
        let stored = BatchRunner::new().workers(2).run(scenarios.clone());
        // Skipping 1 splits the lockstep job; skipping 16 splits every
        // circuit job.
        for skip in [1, 16] {
            let (tail, summary) = streamed(&BatchRunner::new().workers(2), &scenarios, skip);
            assert_eq!(summary.emitted, scenarios.len() - skip);
            assert_eq!(tail.len(), scenarios.len() - skip);
            for ((index, outcome), entry) in tail.iter().zip(&stored.entries[skip..]) {
                assert_eq!(scenarios[*index].name, entry.scenario.name);
                let mut kept = entry.outcome.clone().expect("ok");
                if skip == 1 && *index < 3 {
                    kept.lockstep_lanes = Some(2);
                }
                assert_streamed_matches_run(outcome.as_ref().expect("ok"), &kept);
            }
        }
        // Skipping everything emits nothing.
        let (none, summary) = streamed(&BatchRunner::new().workers(2), &scenarios, scenarios.len());
        assert!(none.is_empty());
        assert_eq!(summary.emitted, 0);
    }

    /// The reduced value of the entry after the failing one.  The executor
    /// drops it unemitted only after it has recorded the failure, so its drop
    /// is what releases the jobs waiting in `reduce`.
    struct DropSignal<'a>(Option<&'a (Mutex<bool>, Condvar)>);

    impl Drop for DropSignal<'_> {
        fn drop(&mut self) {
            if let Some((dropped, wake)) = self.0 {
                *dropped.lock().unwrap() = true;
                wake.notify_all();
            }
        }
    }

    #[test]
    fn streamed_run_propagates_the_first_emit_error() {
        const FAILING: usize = 2;
        let scenario = Scenario::fig1(BackendKind::DirectTimeless, 500.0).expect("scenario");
        let scenarios = vec![scenario; 36];
        for workers in [1, 4] {
            let reduced = AtomicUsize::new(0);
            let signal = (Mutex::new(false), Condvar::new());
            let mut emitted = 0_usize;
            let result = BatchRunner::new()
                .workers(workers)
                .soa_routing(SoaRouting::ForceScalar)
                .run_in_order(
                    &scenarios,
                    0,
                    |index, _, _| {
                        reduced.fetch_add(1, Ordering::SeqCst);
                        if index > FAILING + 1 {
                            let (dropped, wake) = &signal;
                            let mut dropped = dropped.lock().unwrap();
                            while !*dropped {
                                dropped = wake.wait(dropped).unwrap();
                            }
                        }
                        DropSignal((index == FAILING + 1).then_some(&signal))
                    },
                    |index, _| {
                        if index == FAILING {
                            return Err("sink full");
                        }
                        emitted += 1;
                        Ok(())
                    },
                );
            assert_eq!(result.unwrap_err(), "sink full");
            assert_eq!(emitted, FAILING, "{workers} workers");
            let reduced = reduced.into_inner();
            if workers == 1 {
                assert_eq!(reduced, FAILING + 1, "no job starts after the failing one");
            } else {
                // Jobs up to the signalling one run freely; past it, each
                // worker holds at most the one job it claimed before the
                // failure was recorded.
                assert!(
                    reduced <= FAILING + 2 + workers,
                    "{reduced} of {} jobs ran",
                    scenarios.len()
                );
            }
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
