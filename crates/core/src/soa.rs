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
//! The batch runs the paper's configuration only: one forward-Euler step
//! per field increment, on the modified (arctangent) Langevin law.
//! [`SoaBatch::new`] refuses any other integration method, sub-division
//! or anhysteretic law; the formulation, `ΔH_max` and the guards stay free.
//!
//! One kernel implements that contract.  All lanes walk the sample
//! sequence together.  Per sample, the monitorH gate and the update run as
//! branch-light lane-inner loops over the flat columns: the gate is a
//! per-lane mask, and the update evaluates the scalar model's own
//! `euler_substep`.  The self-consistency fixed point then runs in
//! **register blocks**: each block loads its lanes' state and parameters
//! into locals, iterates under a per-lane convergence mask, stops as soon
//! as every lane of that block has converged, and stores the result back.
//! A converged lane never changes again, so a block that stops before its
//! neighbours changes no bits.  The anhysteretic law is
//! [`magnetics::anhysteretic::modified_langevin`], the function the scalar
//! law calls, and its arctangent is the shared polynomial
//! [`magnetics::fastmath::atan`], a fixed inlineable operation sequence, so
//! a block's lanes run in vector registers instead of serialising on an
//! opaque libm call — this is where the SoA speedup comes from.  Per lane
//! the operation order is exactly the scalar model's
//! ([`advance_state`](crate::timeless::advance_state) shares the same
//! constants and increment functions), which keeps the lanes bitwise equal.
//! Last, the sample's finite-state check, B and loop-metrics fold run as
//! two more lane-inner passes.
//!
//! On top of the kernel win, the batch removes everything around the math:
//! per-sample dynamic dispatch, per-sample `Result`/sample-struct plumbing,
//! per-lane schedule re-iteration and per-lane model construction.
//!
//! One source, compiled three times: the portable build and an AVX2 build,
//! both in register blocks of 8 lanes, and an AVX-512 build in blocks of
//! 16.  Each copy settles a block in packed vector registers, divisions
//! included: 2 lanes to a register in the portable (SSE2) copy, 4 with
//! AVX2 and 8 with AVX-512.  The AVX-512 copy also keeps the convergence
//! mask in a mask register, divides `1 / |x|` under it, and reads the
//! arctangent's polynomial constants as broadcast memory operands, which
//! the AVX2 copy loads into a register before each use (rustc 1.95, read
//! from `objdump -d` of the release `ja`).  A batch of more than 8 lanes
//! runs on the widest copy the CPU has; one of at most 8 lanes, which the
//! AVX-512 copy steps no faster, stops at AVX2.  That one dispatch holds
//! the crate's only `unsafe` code.  The copies are bit-identical: the
//! kernel uses only operations IEEE 754 defines exactly (`+ − × ÷`,
//! `abs`, `copysign`, compares), and Rust never contracts a multiply and
//! an add into one FMA unless asked to, so the instruction set and the
//! block width change how the operations are scheduled, never a lane's
//! result.
//!
//! A lane's state is the four columns the kernel steps (`m_irr`, `m_total`,
//! `m_an` and the field of the last update); they persist from one run to
//! the next, so a second run continues each lane like a second sweep of a
//! scalar model, until [`SoaBatch::assign`] resets them.
//!
//! A run builds no curves and, by default, keeps no trajectory: once a
//! sample has passed the finite-state check, the kernel folds every lane's
//! `(H, B)` point — the scalar model's own expression — into a
//! [`LaneLoopMetrics`], the column form of [`IncrementalLoopMetrics`], the
//! one fold behind the loop metrics and the core loss.  When a lane fails,
//! and when the run ends, the kernel copies the lane's fold out, and
//! [`SoaBatch::lane_fold`] hands it to the caller, so a lockstep job
//! reduces straight to metrics and loss, and the fit objective to a cost.
//! [`SoaBatch::run_samples_into_curves`] additionally records each lane's
//! `m_total` after every sample (8 bytes per lane-sample) and rebuilds the
//! lanes' B–H curves from it.
//!
//! Lanes are fully independent: a lane whose parameters fail validation or
//! whose state diverges records its [`JaError`] and goes inactive without
//! disturbing the other lanes — mirroring how each scenario of a scalar
//! batch fails on its own.

use magnetics::anhysteretic::modified_langevin;
use magnetics::bh::BhCurve;
use magnetics::constants::MU0;
use magnetics::loop_analysis::{IncrementalLoopMetrics, LaneLoopMetrics};
use magnetics::material::JaParameters;
use magnetics::units::Magnetisation;

use crate::config::{Formulation, JaConfig, SlopeIntegration};
use crate::error::JaError;
use crate::model::JaStatistics;
use crate::params::AnhystereticChoice;
use crate::state::JaState;
use crate::timeless::{
    euler_substep, total_magnetisation, FIXED_POINT_ITERATIONS, FIXED_POINT_TOLERANCE,
};

/// Numeric storage of the per-lane state columns.  `f64` is the only
/// storage: it is what keeps every lane bit-identical to the scalar model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SoaPrecision {
    /// `f64` state columns — bit-identical to the scalar model.
    #[default]
    F64,
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
    /// The lanes' state: normalised irreversible, total and anhysteretic
    /// magnetisation, and the field of the last irreversible update.
    m_irr: Vec<f64>,
    m_total: Vec<f64>,
    m_an: Vec<f64>,
    h_last: Vec<f64>,
    stats: Vec<JaStatistics>,
    errors: Vec<Option<JaError>>,
    masks: LaneMasks,
    /// This run's per-lane counters, added to `stats` when a lane fails or
    /// the run ends.
    counters: RunCounters,
    /// Every lane's B at the current sample.
    flux: Vec<f64>,
    /// Every lane's running fold in this run, copied to `folds` when the
    /// lane fails or the run ends.
    running: LaneLoopMetrics,
    /// Each lane's fold of the last run.
    folds: Vec<IncrementalLoopMetrics>,
    /// The last recording run's `m_total` trajectory, sample-major (row `s`
    /// holds every lane's value after sample `s`); a lane's rows past its
    /// fold's length may hold stale values.
    trajectory: Vec<f64>,
}

/// The kernel's per-lane masks, kept on the batch so steady-state re-runs
/// allocate nothing.
#[derive(Debug, Clone, Default)]
struct LaneMasks {
    /// The lane has no error yet.
    live: Vec<bool>,
    /// The lane passed this sample's monitorH gate.
    due: Vec<bool>,
}

/// One run's per-lane [`JaStatistics`] counters of phase 1, as columns
/// the kernel bumps without a branch; the samples a lane steps are the
/// run's, so they need no column.
#[derive(Debug, Clone, Default)]
struct RunCounters {
    /// Irreversible updates, each one slope evaluation.
    updates: Vec<u64>,
    negative_slope_events: Vec<u64>,
    rejected_updates: Vec<u64>,
}

impl RunCounters {
    /// Zeroes every counter of `lanes` lanes, reusing the columns.
    fn reset(&mut self, lanes: usize) {
        for column in [
            &mut self.updates,
            &mut self.negative_slope_events,
            &mut self.rejected_updates,
        ] {
            column.clear();
            column.resize(lanes, 0);
        }
    }

    /// Adds `lane`'s counts and the `samples` it stepped to its
    /// cumulative statistics.
    fn add_to(&self, lane: usize, samples: u64, stats: &mut JaStatistics) {
        stats.samples += samples;
        stats.updates += self.updates[lane];
        stats.slope_evaluations += self.updates[lane];
        stats.negative_slope_events += self.negative_slope_events[lane];
        stats.rejected_updates += self.rejected_updates[lane];
    }
}

/// The compiled copies of the lockstep kernel, narrowest first; see
/// [`SoaBatch::run`].  Only x86-64 builds run the two wider copies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum KernelCopy {
    /// The portable build, in register blocks of 8 lanes.
    Portable,
    /// Compiled with AVX2, in register blocks of 8 lanes.
    Avx2,
    /// Compiled with AVX-512 (`avx512f` + `avx512vl`), in register blocks
    /// of 16 lanes.
    Avx512,
}

impl KernelCopy {
    /// The widest copy worth running `lanes` lanes on.  The AVX-512 copy
    /// gains only on blocks of 16: on a 2-lane batch (126 samples of a
    /// 5 kA/m loop, 2-core AVX-512 Xeon) it took 87 µs where the AVX2 copy
    /// took 72, and on 8 lanes the two ran alike.
    fn widest_for(lanes: usize) -> Self {
        if lanes > 8 {
            Self::Avx512
        } else {
            Self::Avx2
        }
    }
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
    /// performs — and [`JaError::Backend`] for a valid configuration the
    /// kernel does not run: any integration method but single-step
    /// forward Euler, or any anhysteretic law but the modified Langevin.
    pub fn new(config: JaConfig, _precision: SoaPrecision) -> Result<Self, JaError> {
        config.validate()?;
        if config.integration != SlopeIntegration::ForwardEuler
            || config.subdivide_increment
            || config.anhysteretic != AnhystereticChoice::ModifiedLangevin
        {
            return Err(JaError::Backend {
                backend: "soa-lockstep",
                reason: "the lockstep kernel runs the paper's discretisation only (one forward \
                         Euler step per increment, modified Langevin law); run other \
                         configurations on the scalar model"
                    .to_owned(),
            });
        }
        Ok(Self {
            config,
            m_sat: Vec::new(),
            a: Vec::new(),
            a2: Vec::new(),
            k: Vec::new(),
            alpha: Vec::new(),
            c: Vec::new(),
            m_irr: Vec::new(),
            m_total: Vec::new(),
            m_an: Vec::new(),
            h_last: Vec::new(),
            stats: Vec::new(),
            errors: Vec::new(),
            masks: LaneMasks::default(),
            counters: RunCounters::default(),
            flux: Vec::new(),
            running: LaneLoopMetrics::new(),
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
        for p in params {
            self.m_sat.push(p.m_sat.value());
            self.a.push(p.a);
            self.a2.push(p.a2);
            self.k.push(p.k);
            self.alpha.push(p.alpha);
            self.c.push(p.c);
        }
        for column in [
            &mut self.m_irr,
            &mut self.m_total,
            &mut self.m_an,
            &mut self.h_last,
        ] {
            column.clear();
            column.resize(lanes, 0.0);
        }
        self.stats.clear();
        self.stats.resize(lanes, JaStatistics::default());
        self.errors.clear();
        self.errors.extend(
            params
                .iter()
                .map(|p| p.validate().err().map(JaError::Material)),
        );
        self.folds.clear();
        self.folds.resize(lanes, IncrementalLoopMetrics::new());
    }

    /// Steps every active lane through `samples` in lockstep, folding each
    /// lane's `(H, B)` points into its [`lane_fold`](SoaBatch::lane_fold);
    /// no trajectory is recorded and no curve is built.  A lane whose state
    /// diverges records its error and stops; the remaining lanes continue.
    pub fn run_samples(&mut self, samples: &[f64]) {
        self.run(samples, false, KernelCopy::widest_for(self.lanes()));
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
        self.run(samples, true, KernelCopy::widest_for(self.lanes()));
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
    /// and, when `record` is set, recording the trajectory, on the widest
    /// copy of the kernel that is no wider than `widest` and that this CPU
    /// runs, which it returns: the AVX-512 copy, then the AVX2 copy (both
    /// on x86-64 only), then the portable one.
    ///
    /// The copies are bit-identical (see the module docs).  This is the
    /// crate's only `unsafe` code — each call of a `#[target_feature]`
    /// function, which is undefined behaviour on a CPU without the
    /// feature — so the crate denies `unsafe_code` instead of forbidding
    /// it, and allows it here, each call right beside the run-time check
    /// that makes it sound.
    fn run(&mut self, samples: &[f64], record: bool, widest: KernelCopy) -> KernelCopy {
        self.folds.fill(IncrementalLoopMetrics::new());
        if record {
            self.trajectory.resize(self.lanes() * samples.len(), 0.0);
        }
        #[cfg(target_arch = "x86_64")]
        #[allow(unsafe_code)]
        {
            /// The lockstep kernel compiled for AVX-512, in register blocks
            /// of 16 lanes.
            #[target_feature(enable = "avx512f,avx512vl")]
            fn avx512(batch: &mut SoaBatch, samples: &[f64], record: bool) {
                run_lanes_lockstep::<16>(batch, samples, record);
            }
            /// The lockstep kernel compiled for AVX2, in register blocks of
            /// 8 lanes.
            #[target_feature(enable = "avx2")]
            fn avx2(batch: &mut SoaBatch, samples: &[f64], record: bool) {
                run_lanes_lockstep::<8>(batch, samples, record);
            }

            if widest >= KernelCopy::Avx512
                && is_x86_feature_detected!("avx512f")
                && is_x86_feature_detected!("avx512vl")
            {
                // SAFETY: the checks above found both features `avx512`
                // enables on this CPU; its body is safe code.
                unsafe { avx512(self, samples, record) };
                return KernelCopy::Avx512;
            }
            if widest >= KernelCopy::Avx2 && is_x86_feature_detected!("avx2") {
                // SAFETY: the check above found AVX2 on this CPU, the one
                // feature `avx2` enables; its body is safe code.
                unsafe { avx2(self, samples, record) };
                return KernelCopy::Avx2;
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = widest;
        run_lanes_lockstep::<8>(self, samples, record);
        KernelCopy::Portable
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

/// The lockstep kernel: all lanes advance through each sample together.
///
/// Per sample, three phases mirror
/// [`advance_state`](crate::timeless::advance_state) exactly:
///
/// 1. **gate + irreversible update** (lane-inner): when the shared field
///    has moved by `ΔH_max` since a lane's last update, the lane's
///    irreversible magnetisation advances.  The gate is a mask, and every
///    due sample evaluates the shared [`euler_substep`] — slope, clamp,
///    `ΔH·slope` and the opposing-sign guard — over the flat columns, then
///    bumps the per-lane counters;
/// 2. **self-consistency fixed point** (register blocks): the lanes settle
///    in blocks of `W`, one [`FixedPoint::settle_block`] each, which holds
///    its lanes' state and parameters in locals for the whole
///    [`FIXED_POINT_ITERATIONS`]-capped iteration, so the polynomial
///    arctangents of a block's lanes run as independent chains.  The
///    lanes left after the full blocks run as one more block: of their own
///    width when 1 or 2 remain, else of 8 when at most 8 remain, else of
///    `W`, whose spare slots are inert;
/// 3. **finalise** (lane-inner): pass A checks every lane's state the
///    way the scalar model does (the reversible part rebuilt as
///    `m_total − m_irr`) and computes its B.  A lane that has just
///    diverged (rare) keeps its fold of the samples before and its
///    statistics, and goes inactive.  Pass B folds every lane's `(H, B)`
///    point into the run's [`LaneLoopMetrics`]; when recording, each live
///    lane's `m_total` goes into the sample's trajectory row.
///
/// The statistics' counters run as per-run columns, phase 1 bumping them
/// without a branch; they reach each lane's [`JaStatistics`], as its fold
/// reaches [`SoaBatch::lane_fold`], when it fails or when the run ends.
///
/// Always inlined, so each caller — the portable dispatch and the two
/// `#[target_feature]` functions of [`SoaBatch::run`] — compiles
/// its own copy with its own instruction set and block width.  Expects a
/// trajectory, when `record` is set, sized for `samples`.
#[inline(always)]
fn run_lanes_lockstep<const W: usize>(batch: &mut SoaBatch, samples: &[f64], record: bool) {
    let SoaBatch {
        config,
        m_sat,
        a,
        a2,
        k,
        alpha,
        c,
        m_irr,
        m_total,
        m_an,
        h_last,
        stats,
        errors,
        masks,
        counters,
        flux,
        running,
        folds,
        trajectory,
    } = batch;
    let lanes = stats.len();
    if lanes == 0 {
        return;
    }
    let mut rows = record.then(|| trajectory.chunks_exact_mut(lanes));
    masks.live.clear();
    masks.live.extend(errors.iter().map(Option::is_none));
    masks.due.clear();
    masks.due.resize(lanes, false);
    counters.reset(lanes);
    flux.clear();
    flux.resize(lanes, 0.0);
    running.reset(lanes);
    // Exactly-sized slices let the optimiser prove every `[lane]` access in
    // the hot lane-inner loops is in bounds, which is what allows it to
    // vectorise them across lanes.
    let m_sat = &m_sat[..lanes];
    let a = &a[..lanes];
    let a2 = &a2[..lanes];
    let k = &k[..lanes];
    let alpha = &alpha[..lanes];
    let c = &c[..lanes];
    let m_irr = &mut m_irr[..lanes];
    let m_total = &mut m_total[..lanes];
    let m_an = &mut m_an[..lanes];
    let h_last = &mut h_last[..lanes];
    let stats = &mut stats[..lanes];
    let folds = &mut folds[..lanes];
    let live = &mut masks.live[..lanes];
    let due = &mut masks.due[..lanes];
    let flux = &mut flux[..lanes];
    let lane_params = |lane: usize| JaParameters {
        m_sat: Magnetisation::new(m_sat[lane]),
        a: a[lane],
        a2: a2[lane],
        k: k[lane],
        alpha: alpha[lane],
        c: c[lane],
    };
    // Samples every live lane has stepped in this run.
    let mut stepped = 0;

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
        stepped += 1;
        let mut row = rows.as_mut().and_then(Iterator::next);

        // Phase 1 — the paper's monitorH gate and irreversible update.
        let mut any_due = false;
        for lane in 0..lanes {
            let is_due = live[lane] && (h - h_last[lane]).abs() >= config.dh_max;
            due[lane] = is_due;
            any_due |= is_due;
        }
        if any_due {
            let updates = &mut counters.updates[..lanes];
            let negative = &mut counters.negative_slope_events[..lanes];
            let rejected = &mut counters.rejected_updates[..lanes];
            for lane in 0..lanes {
                let last = h_last[lane];
                let before = m_irr[lane];
                // A due lane's increment is never zero (`ΔH_max > 0`), so
                // its sign is the scalar model's `FieldDirection`.
                let dh = h - last;
                let delta = if dh > 0.0 { 1.0 } else { -1.0 };
                let step = euler_substep(
                    |h_effective| modified_langevin(h_effective, a[lane]),
                    &lane_params(lane),
                    config,
                    delta,
                    last,
                    dh,
                    before,
                    m_total[lane],
                );
                // The same `m_irr + (m_irr' − m_irr)` round trip as
                // `advance_state` adding `IncrementResult::dm_irr`.
                let is_due = due[lane];
                m_irr[lane] = if is_due {
                    before + (step.m_irr - before)
                } else {
                    before
                };
                h_last[lane] = if is_due { h } else { last };
                updates[lane] += u64::from(is_due);
                negative[lane] += u64::from(is_due & step.negative_slope);
                rejected[lane] += u64::from(is_due & step.rejected);
            }
        }

        // Phase 2 — the paper's core(): the self-consistency fixed point,
        // one register block at a time.
        let mut fixed_point = FixedPoint {
            h,
            formulation: config.formulation,
            m_sat,
            alpha,
            a,
            c,
            m_irr,
            live,
            m_total,
            m_an,
        };
        let mut first = 0;
        while lanes - first >= W {
            fixed_point.settle_block::<W>(first, W);
            first += W;
        }
        // A last block of exactly 8 lanes (the fit objective's starts, the
        // last job of a thermal grid's group), 2 (a served request's pair
        // of materials) or 1 gets its own arm: with the count a constant,
        // the block compiles without spare slots.
        match lanes - first {
            0 => {}
            1 => fixed_point.settle_block::<1>(first, 1),
            2 => fixed_point.settle_block::<2>(first, 2),
            8 => fixed_point.settle_block::<8>(first, 8),
            rest @ 3..=7 => fixed_point.settle_block::<8>(first, rest),
            rest => fixed_point.settle_block::<W>(first, rest),
        }

        // Phase 3 — finalise, fold, record.  Pass A checks every lane's
        // state the way the scalar model does (the reversible part rebuilt
        // as `m_total − m_irr`; `is_finite` reads no counter) and computes
        // its B, the scalar model's expression.
        let diverged = |lane: usize| {
            !JaState {
                m_irr: m_irr[lane],
                m_rev: m_total[lane] - m_irr[lane],
                m_total: m_total[lane],
                m_an: m_an[lane],
                h,
                h_last_update: h_last[lane],
                updates: 0,
            }
            .is_finite()
        };
        let mut any_diverged = false;
        for lane in 0..lanes {
            flux[lane] = MU0 * (h + m_total[lane] * m_sat[lane]);
            any_diverged |= live[lane] & diverged(lane);
        }
        // A lane that has just diverged keeps, as the scalar model does, its
        // fold of the samples before this one and statistics that count
        // this one, and goes inactive.
        if any_diverged {
            for lane in 0..lanes {
                if live[lane] && diverged(lane) {
                    folds[lane] = running.lane(lane);
                    counters.add_to(lane, stepped, &mut stats[lane]);
                    errors[lane] = Some(JaError::StateDiverged { at_field: h });
                    live[lane] = false;
                }
            }
        }
        // Pass B folds every lane, a failed one's into columns nothing
        // reads again.
        running.push(h, flux);
        if let Some(row) = &mut row {
            for lane in 0..lanes {
                if live[lane] {
                    row[lane] = m_total[lane];
                }
            }
        }
    }
    for lane in 0..lanes {
        if live[lane] {
            folds[lane] = running.lane(lane);
            counters.add_to(lane, stepped, &mut stats[lane]);
        }
    }
}

/// Phase 2's view of the lane columns at one sample: the parameters and
/// the irreversible magnetisation it reads, the live flags, and the total
/// and anhysteretic magnetisation it settles.
struct FixedPoint<'a> {
    /// The sample's applied field.
    h: f64,
    formulation: Formulation,
    m_sat: &'a [f64],
    alpha: &'a [f64],
    a: &'a [f64],
    c: &'a [f64],
    m_irr: &'a [f64],
    live: &'a [bool],
    m_total: &'a mut [f64],
    m_an: &'a mut [f64],
}

impl FixedPoint<'_> {
    /// Settles lanes `first..first + count`, `1 ≤ count ≤ W`, as one
    /// register block: loads their state and parameters into `[f64; W]`
    /// locals, runs the [`FIXED_POINT_ITERATIONS`]-capped iteration on
    /// them, and stores `m_total` and `m_an` back.
    ///
    /// Per lane the expressions are [`advance_state`]'s, in its order
    /// (`alpha * m_sat * m_total` rounds `α·M_sat` first, so loading it
    /// once changes no bits).  A converged lane carries its values through
    /// selects in place of the scalar early `break`, and the block stops
    /// once all of its own lanes are done; a done lane never changes, so
    /// that changes no bits either.  A spare slot (`slot ≥ count`) repeats
    /// the last lane's inputs, starts done and is never stored.
    ///
    /// [`advance_state`]: crate::timeless::advance_state
    #[inline(always)]
    fn settle_block<const W: usize>(&mut self, first: usize, count: usize) {
        let lanes = first..first + count;
        let (m_sat, alpha) = (&self.m_sat[lanes.clone()], &self.alpha[lanes.clone()]);
        let (a, c) = (&self.a[lanes.clone()], &self.c[lanes.clone()]);
        let (m_irr, live) = (&self.m_irr[lanes.clone()], &self.live[lanes.clone()]);
        let m_total = &mut self.m_total[lanes.clone()];
        let m_an = &mut self.m_an[lanes];
        let mut block_alpha_m_sat = [0.0; W];
        let mut block_a = [0.0; W];
        let mut block_c = [0.0; W];
        let mut block_m_irr = [0.0; W];
        let mut block_m_total = [0.0; W];
        let mut block_m_an = [0.0; W];
        let mut done = [true; W];
        for slot in 0..W {
            let lane = slot.min(count - 1);
            block_alpha_m_sat[slot] = alpha[lane] * m_sat[lane];
            block_a[slot] = a[lane];
            block_c[slot] = c[lane];
            block_m_irr[slot] = m_irr[lane];
            block_m_total[slot] = m_total[lane];
            block_m_an[slot] = m_an[lane];
            done[slot] = slot >= count || !live[lane];
        }
        for _ in 0..FIXED_POINT_ITERATIONS {
            let mut all_done = true;
            for slot in 0..W {
                let current = block_m_total[slot];
                let h_effective = self.h + block_alpha_m_sat[slot] * current;
                let law = modified_langevin(h_effective, block_a[slot]);
                let next =
                    total_magnetisation(self.formulation, block_c[slot], law, block_m_irr[slot]);
                let converged = (next - current).abs() < FIXED_POINT_TOLERANCE;
                let was_done = done[slot];
                block_m_an[slot] = if was_done { block_m_an[slot] } else { law };
                block_m_total[slot] = if was_done { current } else { next };
                done[slot] = was_done || converged;
                all_done &= was_done || converged;
            }
            if all_done {
                break;
            }
        }
        // Every loop over the block runs all `W` slots, even where only
        // `count` matter, so each local is indexed by constants only; a
        // store loop to `count` ran `soa_thermal16` 15 % slower.
        for slot in 0..W {
            if slot < count {
                m_total[slot] = block_m_total[slot];
                m_an[slot] = block_m_an[slot];
            }
        }
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
    fn a_second_run_continues_each_lane_like_the_scalar_model() {
        // Run A stops mid-branch, and both runs step 7 A/m at ΔH_max 10,
        // so run B's first gate reads run A's last update field: each lane
        // must carry its whole state, not just its magnetisation, across
        // runs without an `assign`.
        let mut first = FieldSchedule::major_loop(3_000.0, 7.0, 1)
            .expect("schedule")
            .to_samples();
        first.truncate(first.len() * 2 / 3);
        let second = FieldSchedule::biased_minor_loop(600.0, 400.0, 2, 7.0)
            .expect("schedule")
            .to_samples();
        let params = materials();
        let config = JaConfig::default();

        let mut batch = SoaBatch::new(config, SoaPrecision::F64).expect("valid config");
        batch.assign(&params);
        batch.run_samples(&first);
        let mut curves = vec![BhCurve::new(); params.len()];
        batch.run_samples_into_curves(&second, &mut curves);

        for (lane, p) in params.iter().enumerate() {
            let mut scalar = JilesAtherton::with_config(*p, config).expect("valid");
            scalar.run_samples(&first).expect("scalar run A");
            let reference = scalar.run_samples(&second).expect("scalar run B");
            assert!(batch.lane_error(lane).is_none());
            assert_eq!(
                curve_bits(&curves[lane]),
                curve_bits(&reference),
                "lane {lane}: run B diverges from scalar bitwise"
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
        // lane's fold — recorded or not — is the fold of that curve, with
        // the guards on or off and in either formulation.
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
        let configs = [
            JaConfig::default(),
            JaConfig::default().without_guards(),
            JaConfig::default().with_formulation(Formulation::Classic),
        ];

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
    /// each at its own temperature 10 °C above the last lane's (from lane
    /// 24 on the temperatures repeat, so every lane stays below soft
    /// ferrite's 220 °C Curie point), with lane 5 invalid, and lanes 6 and
    /// 21 pinned so weakly that they diverge, in different 16-lane register
    /// blocks and at different samples (the first and the second field
    /// reversal of the 2 kA/m sweep), so both error paths are compared too.
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
                let t_c = -40.0 + 10.0 * (lane % 24) as f64;
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
                if lane == 21 {
                    params.k = 1e-150;
                    params.alpha = 0.0;
                }
                params
            })
            .collect()
    }

    /// Runs a batch's assigned lanes through the `copy` of the lockstep
    /// kernel, recording the trajectory when `record` is set; `false` when
    /// this CPU cannot run that copy (a narrower one ran instead).
    fn run_kernel_copy(
        batch: &mut SoaBatch,
        samples: &[f64],
        copy: KernelCopy,
        record: bool,
    ) -> bool {
        batch.run(samples, record, copy) == copy
    }

    #[test]
    fn every_copy_of_the_lockstep_kernel_is_bit_identical_to_the_portable_copy() {
        let whole = FieldSchedule::major_loop(2_000.0, 5.0, 1)
            .expect("schedule")
            .to_samples();
        let mut truncated = whole.clone();
        truncated[whole.len() * 7 / 8] = f64::NAN;
        let bits = |batch: &SoaBatch| -> Vec<u64> {
            batch
                .trajectory
                .iter()
                .map(|value| value.to_bits())
                .collect()
        };
        // Debug text, because a NaN field never compares equal.
        let errors = |batch: &SoaBatch| format!("{:?}", batch.errors);
        let mut skipped = Vec::new();
        // 1 to 40 lanes: full register blocks of 8 and of 16, every length
        // of a last block, short ones with spare slots, over the whole
        // sweep and one a NaN field truncates.
        for samples in [&whole, &truncated] {
            for lanes in 1..=40 {
                let params = thermal_lanes(lanes);
                let mut reference =
                    SoaBatch::new(JaConfig::default(), SoaPrecision::F64).expect("ok");
                reference.assign(&params);
                let assigned = reference.clone();
                assert!(run_kernel_copy(
                    &mut reference,
                    samples,
                    KernelCopy::Portable,
                    true
                ));
                let mut curve = BhCurve::new();
                let folded: Vec<FoldBits> = (0..lanes)
                    .map(|lane| {
                        reference.lane_curve_into(lane, samples, &mut curve);
                        fold_bits(&IncrementalLoopMetrics::of(&curve))
                    })
                    .collect();
                for diverging in [6, 21].into_iter().filter(|&lane| lane < lanes) {
                    assert!(matches!(
                        reference.lane_error(diverging),
                        Some(JaError::StateDiverged { .. })
                    ));
                }
                if lanes > 21 {
                    let stepped = |lane| reference.lane_statistics(lane).samples;
                    assert!(stepped(6) < stepped(21), "lane 21 diverges later");
                }
                for copy in [KernelCopy::Portable, KernelCopy::Avx2, KernelCopy::Avx512] {
                    if skipped.contains(&copy) {
                        continue;
                    }
                    let mut unrecorded = assigned.clone();
                    if !run_kernel_copy(&mut unrecorded, samples, copy, false) {
                        eprintln!("note: this CPU cannot run the {copy:?} copy, so it was skipped");
                        skipped.push(copy);
                        continue;
                    }
                    let recorded = if copy == KernelCopy::Portable {
                        reference.clone()
                    } else {
                        let mut recorded = assigned.clone();
                        assert!(run_kernel_copy(&mut recorded, samples, copy, true));
                        recorded
                    };
                    let label = format!("{copy:?}, {lanes} lanes");
                    assert_eq!(bits(&recorded), bits(&reference), "{label}: trajectory");
                    for batch in [&recorded, &unrecorded] {
                        assert_eq!(batch.stats, reference.stats, "{label}: statistics");
                        assert_eq!(errors(batch), errors(&reference), "{label}: errors");
                        // Each run's folds are the folds of the curves the
                        // portable copy rebuilds.
                        for (lane, folded) in folded.iter().enumerate() {
                            let fold = fold_bits(batch.lane_fold(lane));
                            assert_eq!(&fold, folded, "{label}: lane {lane}");
                        }
                    }
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
        // Valid configurations the kernel does not run are refused too,
        // with the typed error that sends a caller to the scalar model.
        for config in [
            JaConfig::default().with_integration(SlopeIntegration::Heun),
            JaConfig::default().with_integration(SlopeIntegration::RungeKutta4),
            JaConfig::default().with_subdivision(),
            JaConfig::default().with_anhysteretic(AnhystereticChoice::Langevin),
            JaConfig::default().with_anhysteretic(AnhystereticChoice::DoubleArctan),
        ] {
            assert!(
                matches!(
                    SoaBatch::new(config, SoaPrecision::F64),
                    Err(JaError::Backend {
                        backend: "soa-lockstep",
                        ..
                    })
                ),
                "{config:?}"
            );
        }
    }
}
