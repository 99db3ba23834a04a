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
//! sequence together, and both steps of each sample run as branch-light
//! lane-inner loops over the flat columns: the monitorH gate is a per-lane
//! mask, and the update evaluates the scalar model's own `euler_substep`;
//! the self-consistency fixed point runs under a convergence mask and stops
//! as soon as every live lane has converged.  The anhysteretic law is
//! [`magnetics::anhysteretic::modified_langevin`], the function the scalar
//! law calls, and its arctangent is the shared polynomial
//! [`magnetics::fastmath::atan`], a fixed inlineable operation sequence, so
//! independent lanes pipeline and auto-vectorise instead of serialising on
//! an opaque libm call — this is where the SoA speedup comes from.  Per
//! lane the operation order is exactly the scalar model's
//! ([`advance_state`](crate::timeless::advance_state) shares the same
//! constants and increment functions), which keeps the lanes bitwise equal.
//!
//! On top of the kernel win, the batch removes everything around the math:
//! per-sample dynamic dispatch, per-sample `Result`/sample-struct plumbing,
//! per-lane schedule re-iteration and per-lane model construction.
//!
//! The kernel exists twice: the portable build, and the same source
//! compiled with AVX2 enabled, which [`SoaBatch::run_samples`] picks at run
//! time when the CPU has it.  The two are bit-identical: the kernel uses
//! only operations IEEE 754 defines exactly (`+ − × ÷`, `abs`, `copysign`,
//! compares), and Rust never contracts a multiply and an add into one FMA
//! unless asked to, so wider registers change how many lanes one
//! instruction steps, never a lane's result.
//!
//! A lane's state is the four columns the kernel steps (`m_irr`, `m_total`,
//! `m_an` and the field of the last update); they persist from one run to
//! the next, so a second run continues each lane like a second sweep of a
//! scalar model, until [`SoaBatch::assign`] resets them.
//!
//! A run builds no curves and, by default, keeps no trajectory: right
//! after a lane's sample passes the finite-state check, the kernel feeds
//! its `(H, B)` point — the scalar model's own expression — to that lane's
//! [`IncrementalLoopMetrics`], the one fold behind the loop metrics and
//! the core loss.  [`SoaBatch::lane_fold`] hands each lane's fold to the
//! caller, so a lockstep job reduces straight to metrics and loss, and the
//! fit objective to a cost.  [`SoaBatch::run_samples_into_curves`]
//! additionally records each lane's `m_total` after every sample (8 bytes
//! per lane-sample) and rebuilds the lanes' B–H curves from it.
//!
//! Lanes are fully independent: a lane whose parameters fail validation or
//! whose state diverges records its [`JaError`] and goes inactive without
//! disturbing the other lanes — mirroring how each scenario of a scalar
//! batch fails on its own.

use magnetics::anhysteretic::modified_langevin;
use magnetics::bh::BhCurve;
use magnetics::constants::MU0;
use magnetics::loop_analysis::IncrementalLoopMetrics;
use magnetics::material::JaParameters;
use magnetics::units::Magnetisation;

use crate::config::{JaConfig, SlopeIntegration};
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
    /// and, when `record` is set, recording the trajectory: on the kernel's
    /// AVX2 copy when the CPU has AVX2, and on its portable copy otherwise.
    fn run(&mut self, samples: &[f64], record: bool) {
        self.folds.fill(IncrementalLoopMetrics::new());
        if record {
            self.trajectory.resize(self.lanes() * samples.len(), 0.0);
        }
        if !run_lanes_lockstep_avx2(self, samples, record) {
            run_lanes_lockstep(self, samples, record);
        }
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
fn run_lanes_lockstep_avx2(batch: &mut SoaBatch, samples: &[f64], record: bool) -> bool {
    #[cfg(target_arch = "x86_64")]
    #[allow(unsafe_code)]
    {
        /// The lockstep kernel, compiled for AVX2.
        ///
        /// # Safety
        ///
        /// The CPU running it must support AVX2.
        #[target_feature(enable = "avx2")]
        unsafe fn kernel(batch: &mut SoaBatch, samples: &[f64], record: bool) {
            run_lanes_lockstep(batch, samples, record);
        }

        if is_x86_feature_detected!("avx2") {
            // SAFETY: the check above found AVX2 on this CPU, which is the
            // only requirement of `kernel`; its body is safe code.
            unsafe { kernel(batch, samples, record) };
            return true;
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (batch, samples, record);
    false
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
/// 2. **self-consistency fixed point** (lane-inner, branch-light): the
///    [`FIXED_POINT_ITERATIONS`]-capped iteration runs over the flat
///    columns with a per-lane convergence mask replacing the scalar early
///    `break` — converged lanes keep their values through selects, so per
///    lane the applied operation sequence is unchanged while the loop body
///    stays free of data-dependent branches and the polynomial arctangents
///    of adjacent lanes pipeline/vectorise.  Lanes with an error start out
///    done, and the iteration stops as soon as every lane is done: a done
///    lane's values no longer change, so stopping early changes no bits;
/// 3. **finalise** (per live lane): count the sample, detect divergence on
///    the scalar model's state (the reversible part rebuilt as
///    `m_total − m_irr`), fold the sample's `(H, B)` point and, when
///    recording, store `m_total` in the sample's trajectory row.
///
/// Always inlined, so each caller — the portable dispatch and the AVX2
/// `#[target_feature]` function — compiles its own copy with its own
/// instruction set.  Expects a trajectory, when `record` is set, sized for
/// `samples`.
#[inline(always)]
fn run_lanes_lockstep(batch: &mut SoaBatch, samples: &[f64], record: bool) {
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
    for mask in [
        &mut masks.due,
        &mut masks.negative,
        &mut masks.rejected,
        &mut masks.done,
    ] {
        mask.clear();
        mask.resize(lanes, false);
    }
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
    let negative = &mut masks.negative[..lanes];
    let rejected = &mut masks.rejected[..lanes];
    let done = &mut masks.done[..lanes];
    let lane_params = |lane: usize| JaParameters {
        m_sat: Magnetisation::new(m_sat[lane]),
        a: a[lane],
        a2: a2[lane],
        k: k[lane],
        alpha: alpha[lane],
        c: c[lane],
    };

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
        let mut row = rows.as_mut().and_then(Iterator::next);

        // Phase 1 — the paper's monitorH gate and irreversible update.
        let mut any_due = false;
        for lane in 0..lanes {
            let is_due = live[lane] && (h - h_last[lane]).abs() >= config.dh_max;
            due[lane] = is_due;
            any_due |= is_due;
        }
        if any_due {
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
                negative[lane] = step.negative_slope;
                rejected[lane] = step.rejected;
            }
            for lane in 0..lanes {
                if !due[lane] {
                    continue;
                }
                let lane_stats = &mut stats[lane];
                lane_stats.updates += 1;
                lane_stats.slope_evaluations += 1;
                lane_stats.negative_slope_events += u64::from(negative[lane]);
                lane_stats.rejected_updates += u64::from(rejected[lane]);
            }
        }

        // Phase 2 — the paper's core(): the self-consistency fixed point,
        // in lockstep.  The convergence mask replaces the scalar early
        // break; a converged lane carries its values unchanged, so the
        // per-lane operation sequence matches `advance_state` bit for bit,
        // and the sweep ends once no lane is left to converge.
        for (is_done, &is_live) in done.iter_mut().zip(live.iter()) {
            *is_done = !is_live;
        }
        for _ in 0..FIXED_POINT_ITERATIONS {
            let mut all_done = true;
            for lane in 0..lanes {
                let current = m_total[lane];
                let h_effective = h + alpha[lane] * m_sat[lane] * current;
                let law = modified_langevin(h_effective, a[lane]);
                let next = total_magnetisation(config.formulation, c[lane], law, m_irr[lane]);
                let converged = (next - current).abs() < FIXED_POINT_TOLERANCE;
                let was_done = done[lane];
                m_an[lane] = if was_done { m_an[lane] } else { law };
                m_total[lane] = if was_done { current } else { next };
                done[lane] = was_done || converged;
                all_done &= was_done || converged;
            }
            if all_done {
                break;
            }
        }

        // Phase 3 — finalise, fold, record.
        for lane in 0..lanes {
            if !live[lane] {
                continue;
            }
            stats[lane].samples += 1;
            let state = JaState {
                m_irr: m_irr[lane],
                m_rev: m_total[lane] - m_irr[lane],
                m_total: m_total[lane],
                m_an: m_an[lane],
                h,
                h_last_update: h_last[lane],
                updates: stats[lane].updates,
            };
            if !state.is_finite() {
                errors[lane] = Some(JaError::StateDiverged { at_field: h });
                live[lane] = false;
                continue;
            }
            folds[lane].push(h, MU0 * (h + state.m_total * m_sat[lane]));
            if let Some(row) = &mut row {
                row[lane] = state.m_total;
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

    /// Runs a fresh batch's assigned lanes through the portable copy of
    /// the lockstep kernel, or through the AVX2 copy, recording the
    /// trajectory when `record` is set; `false` when the AVX2 copy cannot
    /// run on this CPU.
    fn run_kernel_copy(batch: &mut SoaBatch, samples: &[f64], avx2: bool, record: bool) -> bool {
        batch.trajectory.resize(batch.lanes() * samples.len(), 0.0);
        if avx2 {
            run_lanes_lockstep_avx2(batch, samples, record)
        } else {
            run_lanes_lockstep(batch, samples, record);
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
