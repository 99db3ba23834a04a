//! Structure-of-arrays lockstep execution of many parameter sets.
//!
//! A [`SoaBatch`] steps N Jiles–Atherton parameter sets ("lanes") through
//! the **same** applied-field sequence, holding every state and parameter
//! field in a flat column (one `Vec` per field) instead of N independent
//! model objects.  Each lane advances through exactly the per-step
//! increment math of the scalar model, in `f64` columns, so every lane is
//! **bit-identical** to a scalar
//! [`JilesAtherton`](crate::model::JilesAtherton) run of the same
//! parameters, configuration and samples.
//!
//! Two kernels implement that contract:
//!
//! * the **lockstep kernel** (arctangent anhysteretic laws, i.e. the
//!   paper's modified Langevin and the two-parameter blend): all lanes walk
//!   the sample sequence together, and both steps of each sample run as
//!   branch-light lane-inner loops over the flat columns.  The monitorH
//!   gate and the forward-Euler update are masked per lane and evaluate
//!   the scalar model's own `euler_substep` (Heun, RK4 and subdivided
//!   increments fall back to a per-lane [`integrate_field_increment`]
//!   call); the self-consistency fixed point runs under a convergence mask
//!   and stops as soon as every live lane has converged.  The heavy
//!   arctangents go through the shared polynomial
//!   [`magnetics::fastmath::atan`], a fixed inlineable operation sequence,
//!   so independent lanes pipeline and auto-vectorise instead of
//!   serialising on an opaque libm call — this is where the SoA speedup
//!   comes from.  Per lane the operation order is exactly the scalar
//!   model's ([`advance_state`] shares the same constants and increment
//!   functions), which keeps `f64` lanes bitwise equal;
//! * the **per-lane fallback** (classic Langevin law): each lane walks the
//!   whole sequence delegating every step to
//!   [`advance_state`] itself — trivially
//!   bit-identical, without the lane-parallel throughput.
//!
//! On top of the kernel win, the batch removes everything around the math:
//! per-sample dynamic dispatch, per-sample `Result`/sample-struct plumbing,
//! per-lane schedule re-iteration and per-lane model construction.
//!
//! The lockstep kernel exists twice: the portable build, and the same
//! source compiled with AVX2 enabled, which [`SoaBatch::run_samples`] picks
//! at run time when the CPU has it.  The two are bit-identical: the kernel
//! uses only operations IEEE 754 defines exactly (`+ − × ÷`, `abs`,
//! `copysign`, compares), and Rust never contracts a multiply and an add
//! into one FMA unless asked to, so wider registers change how many lanes
//! one instruction steps, never a lane's result.
//!
//! A run builds no curves and, by default, keeps no trajectory: right
//! after a lane's sample passes the finite-state check, the kernel feeds
//! its `(H, B)` point — the scalar model's own expression — to that lane's
//! [`IncrementalLoopMetrics`], the one fold behind the loop metrics and
//! the core loss.  [`SoaBatch::lane_fold`] hands each lane's fold to the
//! caller, so a lockstep job reduces straight to metrics and loss, and the
//! fit objective to a cost.  [`SoaBatch::run_samples_into_curves`]
//! additionally records each lane's stored `m_total` after every sample
//! (8 bytes per lane-sample) and rebuilds the lanes' B–H curves from it.
//!
//! Lanes are fully independent: a lane whose parameters fail validation or
//! whose state diverges records its [`JaError`] and goes inactive without
//! disturbing the other lanes — mirroring how each scenario of a scalar
//! batch fails on its own.

use magnetics::anhysteretic::AnhystereticKind;
use magnetics::bh::BhCurve;
use magnetics::constants::MU0;
use magnetics::fastmath;
use magnetics::loop_analysis::IncrementalLoopMetrics;
use magnetics::material::JaParameters;
use magnetics::units::Magnetisation;

use crate::config::{JaConfig, SlopeIntegration};
use crate::error::JaError;
use crate::model::JaStatistics;
use crate::params::AnhystereticChoice;
use crate::state::JaState;
use crate::timeless::{
    advance_state, euler_substep, integrate_field_increment, total_magnetisation,
    FIXED_POINT_ITERATIONS, FIXED_POINT_TOLERANCE,
};

/// Numeric storage of the per-lane state columns.  `f64` is the only
/// storage: it is what keeps every lane bit-identical to the scalar model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SoaPrecision {
    /// `f64` state columns — bit-identical to the scalar model.
    #[default]
    F64,
}

/// The six state fields of [`JaState`] as flat columns, plus the per-lane
/// update counter.
#[derive(Debug, Clone, Default)]
struct StateColumns {
    m_irr: Vec<f64>,
    m_rev: Vec<f64>,
    m_total: Vec<f64>,
    m_an: Vec<f64>,
    h: Vec<f64>,
    h_last_update: Vec<f64>,
    updates: Vec<u64>,
}

impl StateColumns {
    /// Resets every column to `lanes` demagnetised entries, reusing the
    /// existing allocations.
    fn reset(&mut self, lanes: usize) {
        for column in [
            &mut self.m_irr,
            &mut self.m_rev,
            &mut self.m_total,
            &mut self.m_an,
            &mut self.h,
            &mut self.h_last_update,
        ] {
            column.clear();
            column.resize(lanes, 0.0);
        }
        self.updates.clear();
        self.updates.resize(lanes, 0);
    }

    /// Gathers one lane into a scalar [`JaState`].
    #[inline]
    fn load(&self, lane: usize) -> JaState {
        JaState {
            m_irr: self.m_irr[lane],
            m_rev: self.m_rev[lane],
            m_total: self.m_total[lane],
            m_an: self.m_an[lane],
            h: self.h[lane],
            h_last_update: self.h_last_update[lane],
            updates: self.updates[lane],
        }
    }

    /// Scatters a scalar [`JaState`] back into one lane.
    #[inline]
    fn store(&mut self, lane: usize, state: &JaState) {
        self.m_irr[lane] = state.m_irr;
        self.m_rev[lane] = state.m_rev;
        self.m_total[lane] = state.m_total;
        self.m_an[lane] = state.m_an;
        self.h[lane] = state.h;
        self.h_last_update[lane] = state.h_last_update;
        self.updates[lane] = state.updates;
    }
}

/// A batch of Jiles–Atherton lanes sharing one configuration and one
/// applied-field sequence, laid out as structure-of-arrays columns.
///
/// Lifecycle: construct once per configuration, then
/// repeatedly [`assign`](SoaBatch::assign) parameter sets,
/// [`run_samples`](SoaBatch::run_samples) and read each lane's
/// [`lane_fold`](SoaBatch::lane_fold) (or
/// [`run_samples_into_curves`](SoaBatch::run_samples_into_curves) when the
/// curves themselves are needed).  All columns reuse their allocations
/// across assignments, so steady-state re-evaluation (the multi-start
/// fitting inner loop) performs no per-call allocation.
#[derive(Debug, Clone)]
pub struct SoaBatch {
    config: JaConfig,
    m_sat: Vec<f64>,
    a: Vec<f64>,
    a2: Vec<f64>,
    k: Vec<f64>,
    alpha: Vec<f64>,
    c: Vec<f64>,
    anhysteretic: Vec<AnhystereticKind>,
    columns: StateColumns,
    stats: Vec<JaStatistics>,
    errors: Vec<Option<JaError>>,
    scratch: LockstepScratch,
    /// Each lane's fold of the last run.
    folds: Vec<IncrementalLoopMetrics>,
    /// The last recording run's `m_total` trajectory, sample-major (row `s`
    /// holds every lane's value after sample `s`); a lane's rows past its
    /// fold's length may hold stale values.
    trajectory: Vec<f64>,
}

/// One run's view of a batch: the shared configuration and sample-invariant
/// lane columns, and the per-lane state, statistics, errors and folds the
/// kernels write, plus the trajectory when the run records one.
struct Sweep<'x> {
    config: &'x JaConfig,
    anhysteretic: &'x [AnhystereticKind],
    /// `m_sat, a, a2, k, alpha, c`.
    params: [&'x [f64]; 6],
    columns: &'x mut StateColumns,
    work: &'x mut LockstepScratch,
    stats: &'x mut [JaStatistics],
    errors: &'x mut [Option<JaError>],
    folds: &'x mut [IncrementalLoopMetrics],
    /// The sample-major `m_total` rows to record, sized for the samples, or
    /// `None` to record nothing.
    trajectory: Option<&'x mut [f64]>,
}

/// Reusable working buffers of the lockstep kernel: the `f64` state fields
/// every lane carries across one sample, plus the per-lane masks of the
/// update phase and of the fixed point.  Kept on the batch so steady-state
/// re-runs allocate nothing.
#[derive(Debug, Clone, Default)]
struct LockstepScratch {
    m_irr: Vec<f64>,
    m_total: Vec<f64>,
    m_an: Vec<f64>,
    h_last: Vec<f64>,
    /// The lane has no error yet.
    live: Vec<bool>,
    /// The lane passed this sample's monitorH gate.
    due: Vec<bool>,
    /// This sample's update saw a negative raw slope.
    negative: Vec<bool>,
    /// This sample's update was rejected by the opposing-sign guard.
    rejected: Vec<bool>,
    /// The lane's fixed point has converged (or the lane is not live).
    done: Vec<bool>,
}

impl SoaBatch {
    /// Creates an empty batch for the given configuration; `f64` state
    /// columns are the only [`SoaPrecision`].
    ///
    /// # Errors
    ///
    /// Returns [`JaError::InvalidConfig`] for an invalid configuration —
    /// the same check (and error) a scalar
    /// [`JilesAtherton::with_config`](crate::model::JilesAtherton::with_config)
    /// performs.
    pub fn new(config: JaConfig, _precision: SoaPrecision) -> Result<Self, JaError> {
        config.validate()?;
        Ok(Self {
            config,
            m_sat: Vec::new(),
            a: Vec::new(),
            a2: Vec::new(),
            k: Vec::new(),
            alpha: Vec::new(),
            c: Vec::new(),
            anhysteretic: Vec::new(),
            columns: StateColumns::default(),
            stats: Vec::new(),
            errors: Vec::new(),
            scratch: LockstepScratch::default(),
            folds: Vec::new(),
            trajectory: Vec::new(),
        })
    }

    /// The shared configuration.
    pub fn config(&self) -> &JaConfig {
        &self.config
    }

    /// Number of lanes currently assigned.
    pub fn lanes(&self) -> usize {
        self.m_sat.len()
    }

    /// Assigns one lane per parameter set, resetting every lane to the
    /// demagnetised state and clearing its statistics.  Column capacity is
    /// reused, so re-assigning the same lane count allocates nothing.
    ///
    /// A parameter set that fails validation marks its lane with the same
    /// [`JaError::Material`] a scalar model construction would return; the
    /// lane stays inactive for the following runs.
    pub fn assign(&mut self, params: &[JaParameters]) {
        let lanes = params.len();
        for column in [
            &mut self.m_sat,
            &mut self.a,
            &mut self.a2,
            &mut self.k,
            &mut self.alpha,
            &mut self.c,
        ] {
            column.clear();
            column.reserve(lanes);
        }
        self.anhysteretic.clear();
        self.anhysteretic.reserve(lanes);
        self.stats.clear();
        self.stats.resize(lanes, JaStatistics::default());
        self.errors.clear();
        self.errors.resize(lanes, None);
        for (lane, p) in params.iter().enumerate() {
            self.m_sat.push(p.m_sat.value());
            self.a.push(p.a);
            self.a2.push(p.a2);
            self.k.push(p.k);
            self.alpha.push(p.alpha);
            self.c.push(p.c);
            match p.validate() {
                Ok(()) => self.anhysteretic.push(self.config.anhysteretic.build(p)),
                Err(err) => {
                    // The lane is inactive; park a law built from the
                    // (always valid) paper preset so the column stays
                    // aligned without evaluating the invalid shape.
                    self.errors[lane] = Some(JaError::Material(err));
                    self.anhysteretic
                        .push(self.config.anhysteretic.build(&JaParameters::date2006()));
                }
            }
        }
        self.columns.reset(lanes);
        self.folds.clear();
        self.folds.resize(lanes, IncrementalLoopMetrics::new());
    }

    /// Steps every active lane through `samples` in lockstep, folding each
    /// lane's `(H, B)` points into its [`lane_fold`](SoaBatch::lane_fold);
    /// no trajectory is recorded and no curve is built.  A lane whose state
    /// diverges records its error and stops; the remaining lanes continue.
    pub fn run_samples(&mut self, samples: &[f64]) {
        self.run(samples, false);
    }

    /// [`run_samples`](SoaBatch::run_samples), also recording the
    /// trajectory, then each lane's B–H curve rebuilt from it: `curves` must
    /// hold exactly [`lanes`](SoaBatch::lanes) curves, each cleared first
    /// and its capacity reused.  A curve holds one `(h, b, m)` point per
    /// sample its lane stepped, from the same expressions as the scalar
    /// model: a lane that failed keeps the points before its failure, and a
    /// lane that never ran has an empty curve.
    ///
    /// # Panics
    ///
    /// Panics when `curves.len()` differs from the assigned lane count.
    pub fn run_samples_into_curves(&mut self, samples: &[f64], curves: &mut [BhCurve]) {
        assert_eq!(
            curves.len(),
            self.lanes(),
            "one output curve per lane is required"
        );
        self.run(samples, true);
        for (lane, curve) in curves.iter_mut().enumerate() {
            self.lane_curve_into(lane, samples, curve);
        }
    }

    /// One lane's fold of the last run: one `(H, B)` point per sample the
    /// lane stepped, so a lane that failed holds the points before its
    /// failure, and a lane that never ran (or was re-assigned since) holds
    /// none.  Bit for bit the fold of the lane's rebuilt curve
    /// ([`IncrementalLoopMetrics::of`]).
    ///
    /// # Panics
    ///
    /// Panics when `lane` is out of range.
    pub fn lane_fold(&self, lane: usize) -> &IncrementalLoopMetrics {
        &self.folds[lane]
    }

    /// Steps every active lane through `samples`, folding each lane afresh
    /// and, when `record` is set, recording the trajectory.
    fn run(&mut self, samples: &[f64], record: bool) {
        let Self {
            config,
            m_sat,
            a,
            a2,
            k,
            alpha,
            c,
            anhysteretic,
            columns,
            stats,
            errors,
            scratch,
            folds,
            trajectory,
        } = self;
        let lanes = stats.len();
        folds.fill(IncrementalLoopMetrics::new());
        if record {
            trajectory.resize(lanes * samples.len(), 0.0);
        }
        if lanes == 0 {
            return;
        }
        let law = lockstep_law(config, anhysteretic, a, a2, errors);
        run_columns(
            &mut Sweep {
                config,
                anhysteretic,
                params: [m_sat, a, a2, k, alpha, c],
                columns,
                work: scratch,
                stats,
                errors,
                folds,
                trajectory: record.then_some(&mut trajectory[..]),
            },
            law.as_ref(),
            samples,
        );
    }

    /// Rebuilds one lane's B–H curve of the last recording run into
    /// `curve`, which is cleared first and keeps its capacity.  `samples`
    /// must be the sequence the run stepped.
    fn lane_curve_into(&self, lane: usize, samples: &[f64], curve: &mut BhCurve) {
        let lanes = self.lanes();
        let sat = self.m_sat[lane];
        let end = self.folds[lane].len();
        curve.clear();
        curve.reserve(end);
        for (row, &h) in samples[..end].iter().enumerate() {
            let m_total = self.trajectory[row * lanes + lane];
            curve.push_raw(h, MU0 * (h + m_total * sat), m_total * sat);
        }
    }

    /// The cumulative statistics of one lane.
    ///
    /// # Panics
    ///
    /// Panics when `lane` is out of range.
    pub fn lane_statistics(&self, lane: usize) -> JaStatistics {
        self.stats[lane]
    }

    /// The error that deactivated a lane, if any.
    ///
    /// # Panics
    ///
    /// Panics when `lane` is out of range.
    pub fn lane_error(&self, lane: usize) -> Option<&JaError> {
        self.errors[lane].as_ref()
    }
}

/// The per-lane normalised anhysteretic evaluation of the lockstep kernel.
/// Implementations must reproduce the corresponding
/// [`Anhysteretic::normalised`](magnetics::anhysteretic::Anhysteretic)
/// operation sequence exactly — that equivalence is what keeps the kernel
/// bit-identical to the scalar model, and [`lockstep_law`] verifies the
/// lane shapes against the built laws before selecting a kernel.
trait LockstepMan {
    /// Number of lanes the law's shape columns cover; the kernel asserts
    /// this equals the batch width so lane indexing is provably in bounds.
    fn lanes(&self) -> usize;
    fn m_an(&self, lane: usize, h_effective: f64) -> f64;
}

/// The paper's modified Langevin, `(2/π)·atan(H_e/a)`, over a lane column.
struct SingleAtanLanes<'x> {
    a: &'x [f64],
}

impl LockstepMan for SingleAtanLanes<'_> {
    #[inline(always)]
    fn lanes(&self) -> usize {
        self.a.len()
    }

    #[inline(always)]
    fn m_an(&self, lane: usize, h_effective: f64) -> f64 {
        std::f64::consts::FRAC_2_PI * fastmath::atan(h_effective / self.a[lane])
    }
}

/// The two-parameter arctangent blend over lane columns.
struct BlendAtanLanes<'x> {
    a: &'x [f64],
    a2: &'x [f64],
    weight: f64,
}

impl LockstepMan for BlendAtanLanes<'_> {
    #[inline(always)]
    fn lanes(&self) -> usize {
        self.a.len().min(self.a2.len())
    }

    #[inline(always)]
    fn m_an(&self, lane: usize, h_effective: f64) -> f64 {
        let t1 = fastmath::atan(h_effective / self.a[lane]);
        let t2 = fastmath::atan(h_effective / self.a2[lane]);
        std::f64::consts::FRAC_2_PI * (self.weight * t1 + (1.0 - self.weight) * t2)
    }
}

/// The anhysteretic law the lockstep kernel will use, or `None` when the
/// batch must take the per-lane fallback (classic Langevin, or any lane
/// whose built law does not match its parameter columns — impossible for
/// batches built by [`SoaBatch::assign`], but checked rather than assumed
/// because bit-identity rides on it).
enum LockstepLaw<'x> {
    Single(SingleAtanLanes<'x>),
    Blend(BlendAtanLanes<'x>),
}

fn lockstep_law<'x>(
    config: &JaConfig,
    anhysteretic: &[AnhystereticKind],
    a: &'x [f64],
    a2: &'x [f64],
    errors: &[Option<JaError>],
) -> Option<LockstepLaw<'x>> {
    match config.anhysteretic {
        AnhystereticChoice::ModifiedLangevin => {
            for (lane, kind) in anhysteretic.iter().enumerate() {
                let matches = matches!(kind, AnhystereticKind::ModifiedLangevin(f)
                    if f.a().to_bits() == a[lane].to_bits());
                if !matches && errors[lane].is_none() {
                    return None;
                }
            }
            Some(LockstepLaw::Single(SingleAtanLanes { a }))
        }
        AnhystereticChoice::DoubleArctan => {
            let weight = 0.5_f64;
            for (lane, kind) in anhysteretic.iter().enumerate() {
                let matches = matches!(kind, AnhystereticKind::DoubleArctan(f)
                    if f.a().to_bits() == a[lane].to_bits()
                        && f.a2().to_bits() == a2[lane].to_bits()
                        && f.weight().to_bits() == weight.to_bits());
                if !matches && errors[lane].is_none() {
                    return None;
                }
            }
            Some(LockstepLaw::Blend(BlendAtanLanes { a, a2, weight }))
        }
        AnhystereticChoice::Langevin => None,
    }
}

/// Runs the columns through the kernel selected by [`lockstep_law`].
fn run_columns(sweep: &mut Sweep<'_>, law: Option<&LockstepLaw<'_>>, samples: &[f64]) {
    match law {
        Some(LockstepLaw::Single(man)) => run_lockstep(sweep, man, samples),
        Some(LockstepLaw::Blend(man)) => run_lockstep(sweep, man, samples),
        None => run_lanes(sweep, samples),
    }
}

/// Runs the lockstep kernel's AVX2 copy when the CPU has AVX2, and its
/// portable copy otherwise.
fn run_lockstep<M: LockstepMan>(sweep: &mut Sweep<'_>, man: &M, samples: &[f64]) {
    if !run_lanes_lockstep_avx2(sweep, man, samples) {
        run_lanes_lockstep(sweep, man, samples);
    }
}

/// Runs [`run_lanes_lockstep`] compiled with AVX2 enabled and returns
/// `true`, or returns `false` without running anything on a CPU without
/// AVX2 (every non-x86-64 target included).
///
/// The copy is bit-identical to the portable one (see the module docs): the
/// same source, with twice the `f64` lanes per vector instruction.  This is
/// the crate's only `unsafe` code — the call of a `#[target_feature]`
/// function, which is undefined behaviour on a CPU without the feature —
/// so the crate denies `unsafe_code` instead of forbidding it, and allows
/// it here, right beside the run-time check that makes the call sound.
fn run_lanes_lockstep_avx2<M: LockstepMan>(
    sweep: &mut Sweep<'_>,
    man: &M,
    samples: &[f64],
) -> bool {
    #[cfg(target_arch = "x86_64")]
    #[allow(unsafe_code)]
    {
        /// The lockstep kernel, compiled for AVX2.
        ///
        /// # Safety
        ///
        /// The CPU running it must support AVX2.
        #[target_feature(enable = "avx2")]
        unsafe fn kernel<M: LockstepMan>(sweep: &mut Sweep<'_>, man: &M, samples: &[f64]) {
            run_lanes_lockstep(sweep, man, samples);
        }

        if is_x86_feature_detected!("avx2") {
            // SAFETY: the check above found AVX2 on this CPU, which is the
            // only requirement of `kernel`; its body is safe code.
            unsafe { kernel(sweep, man, samples) };
            return true;
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (sweep, man, samples);
    false
}

/// The lockstep kernel: all lanes advance through each sample together.
///
/// Per sample, three phases mirror [`advance_state`] exactly:
///
/// 1. **gate + irreversible update**: when the shared field has moved by
///    `ΔH_max` since a lane's last update, the lane's irreversible
///    magnetisation advances.  For single-step forward Euler (the paper's
///    method and the default configuration) this phase is lane-inner: the
///    gate is a mask, and every due sample evaluates the shared
///    [`euler_substep`] — slope, clamp, `ΔH·slope` and the opposing-sign
///    guard — over the flat columns, then bumps the per-lane counters.
///    Heun, RK4 and subdivided increments fall back to a per-lane call of
///    [`integrate_field_increment`], the routine the scalar model calls;
/// 2. **self-consistency fixed point** (lane-inner, branch-light): the
///    [`FIXED_POINT_ITERATIONS`]-capped iteration runs over the flat
///    columns with a per-lane convergence mask replacing the scalar early
///    `break` — converged lanes keep their values through selects, so per
///    lane the applied operation sequence is unchanged while the loop body
///    stays free of data-dependent branches and the polynomial arctangents
///    of adjacent lanes pipeline/vectorise.  Lanes with an error start out
///    done, and the iteration stops as soon as every lane is done: a done
///    lane's values no longer change, so stopping early changes no bits;
/// 3. **finalise** (per live lane): count the sample, rebuild the
///    reversible part, store the state in the columns, detect divergence,
///    fold the sample's `(H, B)` point and, when recording, store
///    `m_total` in the sample's trajectory row.
///
/// Always inlined, so each caller — the portable dispatch and the AVX2
/// `#[target_feature]` function — compiles its own copy with its own
/// instruction set.  Expects at least one lane, and a trajectory, if any,
/// sized for `samples`.
#[inline(always)]
fn run_lanes_lockstep<M: LockstepMan>(sweep: &mut Sweep<'_>, man: &M, samples: &[f64]) {
    let config = sweep.config;
    let anhysteretic = sweep.anhysteretic;
    let columns = &mut *sweep.columns;
    let work = &mut *sweep.work;
    let stats = &mut *sweep.stats;
    let errors = &mut *sweep.errors;
    let lanes = stats.len();
    let folds = &mut sweep.folds[..lanes];
    let mut rows = sweep
        .trajectory
        .as_deref_mut()
        .map(|rows| rows.chunks_exact_mut(lanes));
    assert_eq!(man.lanes(), lanes, "lockstep law must cover every lane");
    // Exactly-sized slices let the optimiser prove every `[lane]` access in
    // the hot lane-inner loops is in bounds, which is what allows it to
    // vectorise them across lanes.
    let [m_sat, a, a2, k, alpha, c] = sweep.params;
    let m_sat = &m_sat[..lanes];
    let a = &a[..lanes];
    let a2 = &a2[..lanes];
    let k = &k[..lanes];
    let alpha = &alpha[..lanes];
    let c = &c[..lanes];
    let lane_params = |lane: usize| JaParameters {
        m_sat: Magnetisation::new(m_sat[lane]),
        a: a[lane],
        a2: a2[lane],
        k: k[lane],
        alpha: alpha[lane],
        c: c[lane],
    };
    let lane_inner_update =
        config.integration == SlopeIntegration::ForwardEuler && !config.subdivide_increment;

    for buffer in [
        &mut work.m_irr,
        &mut work.m_total,
        &mut work.m_an,
        &mut work.h_last,
    ] {
        buffer.clear();
        buffer.reserve(lanes);
    }
    for lane in 0..lanes {
        work.m_irr.push(columns.m_irr[lane]);
        work.m_total.push(columns.m_total[lane]);
        work.m_an.push(columns.m_an[lane]);
        work.h_last.push(columns.h_last_update[lane]);
    }
    work.live.clear();
    work.live.extend(errors.iter().map(Option::is_none));
    for mask in [
        &mut work.due,
        &mut work.negative,
        &mut work.rejected,
        &mut work.done,
    ] {
        mask.clear();
        mask.resize(lanes, false);
    }
    let LockstepScratch {
        m_irr: w_m_irr,
        m_total: w_m_total,
        m_an: w_m_an,
        h_last: w_h_last,
        live: w_live,
        due: w_due,
        negative: w_negative,
        rejected: w_rejected,
        done: w_done,
    } = work;
    let w_m_irr = &mut w_m_irr[..lanes];
    let w_m_total = &mut w_m_total[..lanes];
    let w_m_an = &mut w_m_an[..lanes];
    let w_h_last = &mut w_h_last[..lanes];
    let w_live = &mut w_live[..lanes];
    let w_due = &mut w_due[..lanes];
    let w_negative = &mut w_negative[..lanes];
    let w_rejected = &mut w_rejected[..lanes];
    let w_done = &mut w_done[..lanes];

    for &h in samples {
        if !h.is_finite() {
            // Every live lane fails this sample exactly like the scalar
            // model: no statistics, no state change, fold truncated here.
            for error in errors.iter_mut() {
                if error.is_none() {
                    *error = Some(JaError::NonFiniteField { value: h });
                }
            }
            break;
        }
        let mut m_totals = rows.as_mut().and_then(Iterator::next);

        // Phase 1 — the paper's monitorH gate and irreversible update.
        if lane_inner_update {
            let mut any_due = false;
            for lane in 0..lanes {
                let due = w_live[lane] && (h - w_h_last[lane]).abs() >= config.dh_max;
                w_due[lane] = due;
                any_due |= due;
            }
            if any_due {
                for lane in 0..lanes {
                    let h_last = w_h_last[lane];
                    let m_irr = w_m_irr[lane];
                    // A due lane's increment is never zero (`ΔH_max > 0`),
                    // so its sign is the scalar model's `FieldDirection`.
                    let dh = h - h_last;
                    let delta = if dh > 0.0 { 1.0 } else { -1.0 };
                    let step = euler_substep(
                        |h_effective| man.m_an(lane, h_effective),
                        &lane_params(lane),
                        config,
                        delta,
                        h_last,
                        dh,
                        m_irr,
                        w_m_total[lane],
                    );
                    // The same `m_irr + (m_irr' − m_irr)` round trip as
                    // `advance_state` adding `IncrementResult::dm_irr`.
                    let due = w_due[lane];
                    w_m_irr[lane] = if due {
                        m_irr + (step.m_irr - m_irr)
                    } else {
                        m_irr
                    };
                    w_h_last[lane] = if due { h } else { h_last };
                    w_negative[lane] = step.negative_slope;
                    w_rejected[lane] = step.rejected;
                }
                for lane in 0..lanes {
                    if !w_due[lane] {
                        continue;
                    }
                    columns.updates[lane] += 1;
                    let lane_stats = &mut stats[lane];
                    lane_stats.updates += 1;
                    lane_stats.slope_evaluations += 1;
                    lane_stats.negative_slope_events += u64::from(w_negative[lane]);
                    lane_stats.rejected_updates += u64::from(w_rejected[lane]);
                }
            }
        } else {
            for lane in 0..lanes {
                let h_last = w_h_last[lane];
                if !w_live[lane] || (h - h_last).abs() < config.dh_max {
                    continue;
                }
                let result = integrate_field_increment(
                    &lane_params(lane),
                    &anhysteretic[lane],
                    config,
                    w_m_irr[lane],
                    w_m_total[lane],
                    h_last,
                    h,
                );
                w_m_irr[lane] += result.dm_irr;
                w_h_last[lane] = h;
                columns.updates[lane] += 1;
                let lane_stats = &mut stats[lane];
                lane_stats.updates += 1;
                lane_stats.slope_evaluations += u64::from(result.slope_evaluations);
                lane_stats.negative_slope_events += u64::from(result.negative_slope_events);
                lane_stats.rejected_updates += u64::from(result.rejected_updates);
            }
        }

        // Phase 2 — the paper's core(): the self-consistency fixed point,
        // in lockstep.  The convergence mask replaces the scalar early
        // break; a converged lane carries its values unchanged, so the
        // per-lane operation sequence matches `advance_state` bit for bit,
        // and the sweep ends once no lane is left to converge.
        for (done, &live) in w_done.iter_mut().zip(w_live.iter()) {
            *done = !live;
        }
        for _ in 0..FIXED_POINT_ITERATIONS {
            let mut all_done = true;
            for lane in 0..lanes {
                let m_total = w_m_total[lane];
                let h_effective = h + alpha[lane] * m_sat[lane] * m_total;
                let m_an = man.m_an(lane, h_effective);
                let next = total_magnetisation(config.formulation, c[lane], m_an, w_m_irr[lane]);
                let converged = (next - m_total).abs() < FIXED_POINT_TOLERANCE;
                let done = w_done[lane];
                w_m_an[lane] = if done { w_m_an[lane] } else { m_an };
                w_m_total[lane] = if done { m_total } else { next };
                w_done[lane] = done || converged;
                all_done &= done || converged;
            }
            if all_done {
                break;
            }
        }

        // Phase 3 — finalise, store, fold, record.
        for lane in 0..lanes {
            if !w_live[lane] {
                continue;
            }
            stats[lane].samples += 1;
            let state = JaState {
                m_irr: w_m_irr[lane],
                m_rev: w_m_total[lane] - w_m_irr[lane],
                m_total: w_m_total[lane],
                m_an: w_m_an[lane],
                h,
                h_last_update: w_h_last[lane],
                updates: columns.updates[lane],
            };
            columns.store(lane, &state);
            if !state.is_finite() {
                errors[lane] = Some(JaError::StateDiverged { at_field: h });
                w_live[lane] = false;
                continue;
            }
            folds[lane].push(h, MU0 * (h + state.m_total * m_sat[lane]));
            if let Some(m_totals) = &mut m_totals {
                m_totals[lane] = state.m_total;
            }
        }
    }
}

/// The per-lane fallback sweep: every active lane walks the whole sample
/// sequence with its state held in locals, delegating each step to the
/// shared [`advance_state`].  Lane-major order keeps the per-lane state
/// hot; the per-lane operation sequence is exactly the scalar model's,
/// which is what makes the lanes bit-identical.  Each stepped sample is
/// folded, and recorded into a trajectory, if any, sized for `samples`.
fn run_lanes(sweep: &mut Sweep<'_>, samples: &[f64]) {
    let Sweep {
        config,
        anhysteretic,
        params: [m_sat, a, a2, k, alpha, c],
        columns,
        stats,
        errors,
        folds,
        trajectory,
        ..
    } = sweep;
    let lanes = stats.len();
    for lane in 0..lanes {
        if errors[lane].is_some() {
            continue;
        }
        let lane_params = JaParameters {
            m_sat: magnetics::units::Magnetisation::new(m_sat[lane]),
            a: a[lane],
            a2: a2[lane],
            k: k[lane],
            alpha: alpha[lane],
            c: c[lane],
        };
        let lane_anhysteretic = &anhysteretic[lane];
        let mut lane_stats = stats[lane];
        let mut state = columns.load(lane);
        for (row, &h) in samples.iter().enumerate() {
            let step = advance_state(
                &lane_params,
                lane_anhysteretic,
                config,
                &mut state,
                &mut lane_stats,
                h,
            );
            if let Err(err) = step {
                errors[lane] = Some(err);
                break;
            }
            folds[lane].push(h, MU0 * (h + state.m_total * m_sat[lane]));
            if let Some(rows) = trajectory {
                rows[row * lanes + lane] = state.m_total;
            }
        }
        columns.store(lane, &state);
        stats[lane] = lane_stats;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::HysteresisBackend;
    use crate::config::Formulation;
    use crate::model::JilesAtherton;
    use magnetics::error::MagneticsError;
    use magnetics::geometry::CoreGeometry;
    use magnetics::losses::{core_loss_of, LaminationSpec};
    use waveform::schedule::FieldSchedule;

    fn materials() -> Vec<JaParameters> {
        vec![
            JaParameters::date2006(),
            JaParameters::jiles_atherton_1984(),
            JaParameters::soft_ferrite(),
            JaParameters::hard_steel(),
        ]
    }

    fn curve_bits(curve: &BhCurve) -> Vec<(u64, u64, u64)> {
        curve
            .points()
            .iter()
            .map(|p| {
                (
                    p.h.value().to_bits(),
                    p.b.as_tesla().to_bits(),
                    p.m.value().to_bits(),
                )
            })
            .collect()
    }

    /// What a report keeps of a fold, as bits: its length, its loop
    /// metrics and its core loss, errors included.
    type FoldBits = (
        usize,
        Result<[u64; 6], MagneticsError>,
        Result<[u64; 4], MagneticsError>,
    );

    fn fold_bits(fold: &IncrementalLoopMetrics) -> FoldBits {
        let lamination = Some(LaminationSpec::silicon_steel_0p35mm());
        let loss = core_loss_of(fold, &CoreGeometry::demo(), 50.0, lamination);
        (
            fold.len(),
            fold.finish()
                .map(|metrics| metrics.named_values().map(|(_, value)| value.to_bits())),
            loss.map(|loss| {
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

    #[test]
    fn f64_lanes_are_bit_identical_to_scalar_models() {
        let schedule = FieldSchedule::major_loop(10_000.0, 100.0, 2).expect("schedule");
        let samples = schedule.to_samples();
        let params = materials();
        let config = JaConfig::default();

        let mut batch = SoaBatch::new(config, SoaPrecision::F64).expect("valid config");
        batch.assign(&params);
        let mut curves = vec![BhCurve::new(); params.len()];
        batch.run_samples_into_curves(&samples, &mut curves);

        for (lane, p) in params.iter().enumerate() {
            let mut scalar = JilesAtherton::with_config(*p, config).expect("valid");
            let reference = scalar.run_samples(&samples).expect("scalar run");
            assert!(batch.lane_error(lane).is_none());
            assert_eq!(
                curve_bits(&curves[lane]),
                curve_bits(&reference),
                "lane {lane} diverges from scalar bitwise"
            );
            assert_eq!(batch.lane_statistics(lane), scalar.statistics());
        }
    }

    #[test]
    fn reassignment_reuses_lanes_and_resets_state() {
        let schedule = FieldSchedule::major_loop(5_000.0, 100.0, 1).expect("schedule");
        let samples = schedule.to_samples();
        let mut batch = SoaBatch::new(JaConfig::default(), SoaPrecision::F64).expect("config");
        let mut curves = vec![BhCurve::new(); 2];

        batch.assign(&[JaParameters::date2006(), JaParameters::hard_steel()]);
        batch.run_samples_into_curves(&samples, &mut curves);
        let first = curve_bits(&curves[0]);

        // Re-assigning the same parameters must reproduce the run exactly
        // (the state reset is part of `assign`).
        batch.assign(&[JaParameters::date2006(), JaParameters::hard_steel()]);
        batch.run_samples_into_curves(&samples, &mut curves);
        assert_eq!(curve_bits(&curves[0]), first);
        assert_eq!(batch.lanes(), 2);
    }

    #[test]
    fn invalid_lane_reports_material_error_and_others_run() {
        let mut bad = JaParameters::date2006();
        bad.k = -1.0;
        let mut batch = SoaBatch::new(JaConfig::default(), SoaPrecision::F64).expect("config");
        batch.assign(&[JaParameters::date2006(), bad]);
        let samples = [0.0, 100.0, 200.0];
        let mut curves = vec![BhCurve::new(); 2];
        batch.run_samples_into_curves(&samples, &mut curves);
        assert!(batch.lane_error(0).is_none());
        assert!(matches!(batch.lane_error(1), Some(JaError::Material(_))));
        assert_eq!(curves[0].len(), 3);
        assert!(curves[1].is_empty());
    }

    #[test]
    fn lane_folds_and_curves_match_the_scalar_model_up_to_each_lanes_failure() {
        // Without pinning coupling and with a vanishing `k`, the slope
        // overflows and the lane diverges early; an invalid lane never
        // runs; a NaN sample mid-sweep fails every live lane like the
        // scalar model.  Each rebuilt curve is the scalar model's, and each
        // lane's fold — recorded or not — is the fold of that curve, on
        // the lockstep kernel (Euler lane-inner, Heun, RK4, subdivided) and
        // on the classic-Langevin per-lane fallback alike.
        let mut diverging = JaParameters::date2006();
        diverging.k = 1e-300;
        diverging.alpha = 0.0;
        let mut invalid = JaParameters::date2006();
        invalid.k = -1.0;
        let params = [
            JaParameters::date2006(),
            diverging,
            invalid,
            JaParameters::hard_steel(),
        ];
        let mut samples = FieldSchedule::major_loop(2_000.0, 100.0, 1)
            .expect("schedule")
            .to_samples();
        let cut = samples.len() * 3 / 4;
        samples[cut] = f64::NAN;
        let mut configs = Vec::new();
        for law in [
            AnhystereticChoice::ModifiedLangevin,
            AnhystereticChoice::Langevin,
        ] {
            for integration in [
                SlopeIntegration::ForwardEuler,
                SlopeIntegration::Heun,
                SlopeIntegration::RungeKutta4,
            ] {
                let config = JaConfig::default()
                    .with_anhysteretic(law)
                    .with_integration(integration);
                configs.extend([config, config.with_subdivision()]);
            }
        }
        configs.push(JaConfig::default().with_formulation(Formulation::Classic));

        let mut curves = vec![BhCurve::new(); params.len()];
        for config in configs {
            let mut batch = SoaBatch::new(config, SoaPrecision::F64).expect("config");
            batch.assign(&params);
            batch.run_samples_into_curves(&samples, &mut curves);
            let mut unrecorded = SoaBatch::new(config, SoaPrecision::F64).expect("config");
            unrecorded.assign(&params);
            unrecorded.run_samples(&samples);

            assert!(matches!(batch.lane_error(2), Some(JaError::Material(_))));
            for (lane, p) in params.iter().enumerate() {
                let label = format!("{config:?} lane {lane}");
                let mut reference = BhCurve::new();
                let error = JilesAtherton::with_config(*p, config)
                    .and_then(|mut scalar| {
                        let error = scalar.run_samples_into(&samples, &mut reference);
                        assert_eq!(batch.lane_statistics(lane), scalar.statistics());
                        error
                    })
                    .expect_err("every lane fails");
                // Debug text, because a NaN field never compares equal.
                assert_eq!(
                    format!("{:?}", batch.lane_error(lane)),
                    format!("{:?}", Some(error)),
                    "{label}"
                );
                assert_eq!(curve_bits(&curves[lane]), curve_bits(&reference), "{label}");
                let folded = fold_bits(&IncrementalLoopMetrics::of(&curves[lane]));
                assert_eq!(fold_bits(batch.lane_fold(lane)), folded, "{label}");
                assert_eq!(fold_bits(unrecorded.lane_fold(lane)), folded, "{label}");
                assert_eq!(
                    format!("{:?}", unrecorded.lane_error(lane)),
                    format!("{:?}", batch.lane_error(lane)),
                    "{label}"
                );
                assert_eq!(
                    unrecorded.lane_statistics(lane),
                    batch.lane_statistics(lane)
                );
            }
            assert_eq!(curves[0].len(), cut, "{config:?}");
            assert!(curves[2].is_empty());
            assert_eq!(batch.lane_statistics(2), JaStatistics::default());
        }
        let mut batch = SoaBatch::new(JaConfig::default(), SoaPrecision::F64).expect("config");
        batch.assign(&params);
        batch.run_samples(&samples);
        assert!(matches!(
            batch.lane_error(1),
            Some(JaError::StateDiverged { .. })
        ));
        let diverged_at = batch.lane_fold(1).len();
        assert!(diverged_at > 0 && diverged_at < cut);
        assert!(batch.lane_fold(1).finish().is_err());

        // Re-assigning empties every lane's fold until the next run, as
        // does a batch that never ran.
        batch.assign(&params);
        assert!(batch.lane_fold(3).is_empty());
        let mut fresh = SoaBatch::new(JaConfig::default(), SoaPrecision::F64).expect("config");
        fresh.assign(&params);
        assert!(fresh.lane_fold(3).is_empty());
    }

    /// `lanes` lanes shaped like the thermal grid's: the presets in turn,
    /// each at its own temperature, with lane 5 invalid and lane 6 pinned
    /// so weakly that it diverges, so both error paths are compared too.
    fn thermal_lanes(lanes: usize) -> Vec<JaParameters> {
        use magnetics::thermal::ThermalCoefficients;
        let presets = [
            (JaParameters::date2006(), ThermalCoefficients::date2006()),
            (
                JaParameters::jiles_atherton_1984(),
                ThermalCoefficients::jiles_atherton_1984(),
            ),
            (
                JaParameters::soft_ferrite(),
                ThermalCoefficients::soft_ferrite(),
            ),
            (
                JaParameters::hard_steel(),
                ThermalCoefficients::hard_steel(),
            ),
        ];
        (0..lanes)
            .map(|lane| {
                let (params, thermal) = &presets[lane % presets.len()];
                let t_c = -40.0 + 10.0 * lane as f64;
                let mut params = params
                    .at_temperature(t_c, thermal)
                    .expect("below the Curie point");
                if lane == 5 {
                    params.k = -1.0;
                }
                if lane == 6 {
                    params.k = 1e-300;
                    params.alpha = 0.0;
                }
                params
            })
            .collect()
    }

    /// Runs a batch's assigned lanes through the portable copy of
    /// the lockstep kernel, or through the AVX2 copy, recording the
    /// trajectory when `record` is set; `false` when the AVX2 copy cannot
    /// run on this CPU.
    fn run_kernel_copy(batch: &mut SoaBatch, samples: &[f64], avx2: bool, record: bool) -> bool {
        let SoaBatch {
            config,
            m_sat,
            a,
            a2,
            k,
            alpha,
            c,
            anhysteretic,
            columns,
            stats,
            errors,
            scratch,
            folds,
            trajectory,
        } = batch;
        trajectory.resize(stats.len() * samples.len(), 0.0);
        let man = SingleAtanLanes { a };
        let sweep = &mut Sweep {
            config,
            anhysteretic,
            params: [m_sat, a, a2, k, alpha, c],
            columns,
            work: scratch,
            stats,
            errors,
            folds,
            trajectory: record.then_some(&mut trajectory[..]),
        };
        if avx2 {
            run_lanes_lockstep_avx2(sweep, &man, samples)
        } else {
            run_lanes_lockstep(sweep, &man, samples);
            true
        }
    }

    #[test]
    fn avx2_copy_of_the_lockstep_kernel_is_bit_identical_to_the_portable_copy() {
        let whole = FieldSchedule::major_loop(2_000.0, 5.0, 1)
            .expect("schedule")
            .to_samples();
        let mut truncated = whole.clone();
        truncated[whole.len() * 7 / 8] = f64::NAN;
        // 1 to 17 lanes: an AVX2 vector body plus every remainder length,
        // over the whole sweep and one a NaN field truncates.
        for samples in [&whole, &truncated] {
            for lanes in 1..=17 {
                let params = thermal_lanes(lanes);
                let mut portable =
                    SoaBatch::new(JaConfig::default(), SoaPrecision::F64).expect("ok");
                portable.assign(&params);
                let mut avx2 = portable.clone();
                let mut unrecorded = portable.clone();
                assert!(run_kernel_copy(&mut portable, samples, false, true));
                if !run_kernel_copy(&mut avx2, samples, true, true) {
                    eprintln!("note: this CPU has no AVX2, so only the portable copy ran");
                    return;
                }
                assert!(run_kernel_copy(&mut unrecorded, samples, true, false));
                let bits = |batch: &SoaBatch| -> Vec<u64> {
                    batch
                        .trajectory
                        .iter()
                        .map(|value| value.to_bits())
                        .collect()
                };
                assert_eq!(bits(&avx2), bits(&portable), "{lanes} lanes: trajectory");
                // Debug text, because a NaN field never compares equal.
                let errors = |batch: &SoaBatch| format!("{:?}", batch.errors);
                assert_eq!(avx2.stats, portable.stats, "{lanes} lanes: statistics");
                assert_eq!(errors(&avx2), errors(&portable), "{lanes} lanes: errors");
                assert_eq!(unrecorded.stats, avx2.stats, "{lanes} lanes: statistics");
                assert_eq!(errors(&unrecorded), errors(&avx2), "{lanes} lanes: errors");
                // Each copy's folds are the folds of the curves it rebuilds.
                let mut curve = BhCurve::new();
                for lane in 0..lanes {
                    portable.lane_curve_into(lane, samples, &mut curve);
                    let folded = fold_bits(&IncrementalLoopMetrics::of(&curve));
                    let label = format!("{lanes} lanes: lane {lane}");
                    assert_eq!(fold_bits(portable.lane_fold(lane)), folded, "{label}");
                    assert_eq!(fold_bits(avx2.lane_fold(lane)), folded, "{label}");
                    assert_eq!(fold_bits(unrecorded.lane_fold(lane)), folded, "{label}");
                }
                if lanes > 6 {
                    assert!(matches!(
                        avx2.lane_error(6),
                        Some(JaError::StateDiverged { .. })
                    ));
                }
            }
        }
    }

    #[test]
    fn invalid_config_is_rejected_at_construction() {
        let bad = JaConfig::default().with_dh_max(0.0);
        assert!(matches!(
            SoaBatch::new(bad, SoaPrecision::F64),
            Err(JaError::InvalidConfig { .. })
        ));
    }
}
