//! The discrete-event kernel: signals + processes + scheduler.

use crate::error::KernelError;
use crate::process::{Process, ProcessContext, ProcessId};
use crate::scheduler::{Event, EventQueue};
use crate::signal::{SignalId, SignalStore};
use crate::time::SimTime;
use crate::value::Value;

/// Default limit on delta cycles within a single settle phase.
pub const DEFAULT_DELTA_LIMIT: usize = 10_000;

/// A single-threaded discrete-event simulation kernel with SystemC-like
/// evaluate/update semantics.
///
/// Typical use:
///
/// 1. [`add_signal`](Kernel::add_signal) for every signal;
/// 2. [`add_process`](Kernel::add_process) for every method process with its
///    static sensitivity list;
/// 3. drive inputs with [`write_initial`](Kernel::write_initial) /
///    [`schedule_write`](Kernel::schedule_write);
/// 4. run with [`settle`](Kernel::settle) (untimed, delta cycles only) or
///    [`run_until`](Kernel::run_until) (timed).
///
/// A warm delta cycle allocates nothing: the ready sets, the changed-signal
/// buffer and the timed-event drain buffer are all kernel-owned scratch that
/// is reused cycle to cycle.  [`reset`](Kernel::reset) returns the kernel to
/// its construction-time state without dropping processes or sensitivity
/// lists, so one instance can run many scenarios back to back.
pub struct Kernel {
    signals: SignalStore,
    processes: Vec<Process>,
    sensitivity: Vec<Vec<ProcessId>>,
    // CSR mirror of `sensitivity` (offsets + one flat id array), rebuilt on
    // every registration: the per-cycle commit walk reads it without the
    // nested-Vec indirection, and registration is construction-time only.
    sens_offsets: Vec<u32>,
    sens_flat: Vec<ProcessId>,
    queue: EventQueue,
    now: SimTime,
    delta_limit: usize,
    initialized: bool,
    delta_cycles_run: u64,
    activations: u64,
    events_scheduled: u64,
    // Reused scratch for the delta-cycle loop.  `next_ready` accumulates the
    // processes triggered for the coming cycle, deduplicated by per-process
    // epoch marks (`queued_epoch[p] == epoch` means "already queued for this
    // cycle"); at the cycle boundary it is sorted and swapped into `ready`.
    // The epoch counter only ever grows — across settles and resets — so a
    // stale mark can never alias a future cycle.
    ready: Vec<ProcessId>,
    next_ready: Vec<ProcessId>,
    queued_epoch: Vec<u64>,
    epoch: u64,
    timed_events: Vec<Event>,
}

impl Default for Kernel {
    fn default() -> Self {
        Self::new()
    }
}

impl Kernel {
    /// Creates an empty kernel.
    pub fn new() -> Self {
        Self {
            signals: SignalStore::new(),
            processes: Vec::new(),
            sensitivity: Vec::new(),
            sens_offsets: vec![0],
            sens_flat: Vec::new(),
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            delta_limit: DEFAULT_DELTA_LIMIT,
            initialized: false,
            delta_cycles_run: 0,
            activations: 0,
            events_scheduled: 0,
            ready: Vec::new(),
            next_ready: Vec::new(),
            queued_epoch: Vec::new(),
            epoch: 1,
            timed_events: Vec::new(),
        }
    }

    /// Overrides the delta-cycle limit used to detect non-settling feedback.
    pub fn with_delta_limit(mut self, limit: usize) -> Self {
        self.delta_limit = limit.max(1);
        self
    }

    /// Adds a signal and returns its id.
    pub fn add_signal(&mut self, name: impl Into<String>, initial: Value) -> SignalId {
        let id = self.signals.add(name, initial);
        self.sensitivity.push(Vec::new());
        self.sens_offsets.push(self.sens_flat.len() as u32);
        id
    }

    /// Rebuilds the flat CSR view of the sensitivity lists.
    fn rebuild_sensitivity_index(&mut self) {
        self.sens_offsets.clear();
        self.sens_flat.clear();
        self.sens_offsets.push(0);
        for list in &self.sensitivity {
            self.sens_flat.extend_from_slice(list);
            self.sens_offsets.push(self.sens_flat.len() as u32);
        }
    }

    /// Registers a method process sensitive to the given signals.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::UnknownSignal`] if any sensitivity entry does
    /// not refer to a signal of this kernel.
    pub fn add_process(
        &mut self,
        name: impl Into<String>,
        sensitive_to: &[SignalId],
        body: impl FnMut(&mut ProcessContext<'_>) -> Result<(), KernelError> + 'static,
    ) -> Result<ProcessId, KernelError> {
        for &sig in sensitive_to {
            if sig.index() >= self.signals.len() {
                return Err(KernelError::UnknownSignal { id: sig });
            }
        }
        let id = ProcessId(self.processes.len());
        self.processes.push(Process::new(name, body));
        self.queued_epoch.push(0);
        for &sig in sensitive_to {
            self.sensitivity[sig.index()].push(id);
        }
        self.rebuild_sensitivity_index();
        Ok(id)
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of delta cycles executed so far.
    pub fn delta_cycles_run(&self) -> u64 {
        self.delta_cycles_run
    }

    /// Number of process activations executed so far — the event-driven
    /// cost metric reported by the runtime benches.
    pub fn activations(&self) -> u64 {
        self.activations
    }

    /// Number of timed signal writes scheduled so far (the testbench
    /// stimulus).
    pub fn events_scheduled(&self) -> u64 {
        self.events_scheduled
    }

    /// Reads a signal's committed value.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::UnknownSignal`] for a foreign id.
    pub fn read(&self, id: SignalId) -> Result<Value, KernelError> {
        self.signals.read(id)
    }

    /// Reads a real-valued signal.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::UnknownSignal`] or
    /// [`KernelError::TypeMismatch`].
    pub fn read_real(&self, id: SignalId) -> Result<f64, KernelError> {
        self.signals.read(id)?.as_real()
    }

    /// Writes a value that will be committed (and will trigger sensitive
    /// processes) on the next [`settle`](Kernel::settle) call.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::UnknownSignal`] for a foreign id.
    pub fn write_initial(&mut self, id: SignalId, value: Value) -> Result<(), KernelError> {
        self.signals.write(id, value)
    }

    /// Schedules a timed write (testbench stimulus).
    pub fn schedule_write(&mut self, at: SimTime, id: SignalId, value: Value) {
        self.events_scheduled += 1;
        self.queue.push(at, Event { signal: id, value });
    }

    /// Runs delta cycles at the current time until no more signal changes
    /// occur.  Returns the number of delta cycles executed.
    ///
    /// On the very first call every process is executed once
    /// (initialisation), as in SystemC.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::DeltaCycleLimit`] if the system does not
    /// settle, or propagates the first process failure.
    pub fn settle(&mut self) -> Result<usize, KernelError> {
        if !self.initialized {
            self.initialized = true;
            for idx in 0..self.processes.len() {
                self.mark_ready(ProcessId(idx));
            }
        }
        self.settle_ready()
    }

    /// Queues a process for the coming delta cycle, deduplicated by its
    /// epoch mark.
    fn mark_ready(&mut self, pid: ProcessId) {
        if self.queued_epoch[pid.index()] != self.epoch {
            self.queued_epoch[pid.index()] = self.epoch;
            self.next_ready.push(pid);
        }
    }

    /// Commits pending signal writes and queues the processes sensitive to
    /// the signals that actually changed — one pass over the written
    /// signals, no intermediate changed-id buffer.
    fn commit_and_mark(&mut self) {
        let epoch = self.epoch;
        let offsets = &self.sens_offsets;
        let flat = &self.sens_flat;
        let queued_epoch = &mut self.queued_epoch;
        let next_ready = &mut self.next_ready;
        self.signals.commit_dirty(|sig| {
            let deps = &flat[offsets[sig.index()] as usize..offsets[sig.index() + 1] as usize];
            for &pid in deps {
                let mark = &mut queued_epoch[pid.index()];
                if *mark != epoch {
                    *mark = epoch;
                    next_ready.push(pid);
                }
            }
        });
    }

    /// Runs delta cycles until the queued ready set drains, starting from
    /// whatever [`mark_ready`](Kernel::mark_ready) has accumulated.
    fn settle_ready(&mut self) -> Result<usize, KernelError> {
        let result = self.settle_ready_inner();
        if result.is_err() {
            // Leave the scratch state clean so the kernel stays usable: a
            // later settle must not re-run processes queued by the failed
            // phase (matching the previous implementation, which dropped
            // its per-call ready set on error).
            self.ready.clear();
            self.next_ready.clear();
            self.epoch += 1;
        }
        result
    }

    fn settle_ready_inner(&mut self) -> Result<usize, KernelError> {
        // Commit anything written from outside (write_initial / timed
        // writes) and add the processes sensitive to those changes.
        self.commit_and_mark();

        // One counter serves both the running total and this phase's cycle
        // count, so the loop pays a single increment per cycle.
        let start = self.delta_cycles_run;
        while !self.next_ready.is_empty() {
            if (self.delta_cycles_run - start) as usize >= self.delta_limit {
                return Err(KernelError::DeltaCycleLimit {
                    limit: self.delta_limit,
                });
            }
            // Evaluate phase.  Processes run in ascending id order — the
            // determinism invariant the bit-identical BH curves rest on.
            self.epoch += 1;
            if self.next_ready.len() == 1 {
                // Dominant shape in practice (a signal-feedback loop
                // re-triggering one process per cycle): skip the sort and
                // the double-buffer swap entirely.
                let pid = self.next_ready[0];
                self.next_ready.clear();
                self.run_process(pid)?;
            } else {
                self.next_ready.sort_unstable();
                std::mem::swap(&mut self.ready, &mut self.next_ready);
                self.next_ready.clear();
                // Move the ready list out to iterate it while running the
                // processes (which borrow `self` mutably).  On the error
                // path the moved list is dropped and `ready` re-grows on
                // the next settle; the warm happy path keeps its capacity.
                let ready = std::mem::take(&mut self.ready);
                for &pid in &ready {
                    self.run_process(pid)?;
                }
                self.ready = ready;
            }
            // Update phase.
            self.commit_and_mark();
            self.delta_cycles_run += 1;
        }
        Ok((self.delta_cycles_run - start) as usize)
    }

    #[inline]
    fn run_process(&mut self, pid: ProcessId) -> Result<(), KernelError> {
        self.activations += 1;
        let process = &mut self.processes[pid.index()];
        let mut ctx = ProcessContext::new(&mut self.signals);
        (process.body)(&mut ctx).map_err(|err| KernelError::ProcessFailure {
            process: process.name.clone(),
            message: err.to_string(),
        })
    }

    /// Advances simulated time, processing every queued event up to and
    /// including `end`, settling delta cycles after each timed event.
    /// Returns the number of timed events processed.
    ///
    /// # Errors
    ///
    /// Propagates any settle failure ([`KernelError::DeltaCycleLimit`],
    /// [`KernelError::ProcessFailure`]) and rejects an `end` before the
    /// current time with [`KernelError::ScheduleInPast`].
    pub fn run_until(&mut self, end: SimTime) -> Result<usize, KernelError> {
        if end < self.now {
            return Err(KernelError::ScheduleInPast {
                now: self.now,
                requested: end,
            });
        }
        // Make sure initial state is settled first.
        self.settle()?;
        let mut processed = 0usize;
        while let Some(t) = self.queue.next_time() {
            if t > end {
                break;
            }
            self.now = t;
            self.timed_events.clear();
            processed += self.queue.pop_into(t, &mut self.timed_events);
            for i in 0..self.timed_events.len() {
                let Event { signal, value } = self.timed_events[i];
                self.signals.write(signal, value)?;
            }
            self.settle_ready()?;
        }
        self.now = end;
        Ok(processed)
    }

    /// Returns the kernel to its construction-time state — signals back at
    /// their initial values, event queue empty, time zero, counters zeroed,
    /// initialisation pending — while keeping every process and sensitivity
    /// list.  The next [`settle`](Kernel::settle) re-runs all processes
    /// once, exactly as on a fresh kernel, so a reset instance produces
    /// bit-identical results to a newly built one without re-boxing process
    /// closures or re-declaring signals.
    pub fn reset(&mut self) {
        self.signals.reset();
        self.queue.clear();
        self.now = SimTime::ZERO;
        self.initialized = false;
        self.delta_cycles_run = 0;
        self.activations = 0;
        self.events_scheduled = 0;
        self.ready.clear();
        self.next_ready.clear();
        // Keep the epoch monotonic instead of clearing the per-process
        // marks: bumping it invalidates every stale mark in O(1).
        self.epoch += 1;
    }
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel")
            .field("signals", &self.signals.len())
            .field("processes", &self.processes.len())
            .field("now", &self.now)
            .field("delta_cycles_run", &self.delta_cycles_run)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combinational_chain_settles() {
        let mut k = Kernel::new();
        let a = k.add_signal("a", Value::Real(0.0));
        let b = k.add_signal("b", Value::Real(0.0));
        let c = k.add_signal("c", Value::Real(0.0));
        k.add_process("double", &[a], move |ctx| {
            let x = ctx.read_real(a)?;
            ctx.write_real(b, 2.0 * x)
        })
        .unwrap();
        k.add_process("add_one", &[b], move |ctx| {
            let x = ctx.read_real(b)?;
            ctx.write_real(c, x + 1.0)
        })
        .unwrap();

        k.write_initial(a, Value::Real(10.0)).unwrap();
        k.settle().unwrap();
        assert_eq!(k.read_real(c).unwrap(), 21.0);
        assert!(k.activations() >= 3);
    }

    #[test]
    fn identical_write_does_not_retrigger() {
        let mut k = Kernel::new();
        let a = k.add_signal("a", Value::Real(1.0));
        let count = k.add_signal("count", Value::Int(0));
        k.add_process("counter", &[a], move |ctx| {
            let n = ctx.read_int(count)?;
            ctx.write_int(count, n + 1)
        })
        .unwrap();
        k.settle().unwrap(); // initialisation: runs once
        let first = k.read(count).unwrap().as_int().unwrap();
        k.write_initial(a, Value::Real(1.0)).unwrap(); // same value: no event
        k.settle().unwrap();
        assert_eq!(k.read(count).unwrap().as_int().unwrap(), first);
    }

    #[test]
    fn feedback_loop_hits_delta_limit() {
        let mut k = Kernel::new().with_delta_limit(50);
        let a = k.add_signal("a", Value::Int(0));
        k.add_process("osc", &[a], move |ctx| {
            let v = ctx.read_int(a)?;
            ctx.write_int(a, v + 1)
        })
        .unwrap();
        let err = k.settle().unwrap_err();
        assert!(matches!(err, KernelError::DeltaCycleLimit { limit: 50 }));
    }

    #[test]
    fn timed_stimulus_drives_process() {
        let mut k = Kernel::new();
        let h = k.add_signal("h", Value::Real(0.0));
        let b = k.add_signal("b", Value::Real(0.0));
        k.add_process("follow", &[h], move |ctx| {
            let x = ctx.read_real(h)?;
            ctx.write_real(b, x * 0.5)
        })
        .unwrap();
        for i in 1..=10 {
            k.schedule_write(SimTime::from_micros(i), h, Value::Real(i as f64));
        }
        assert_eq!(k.events_scheduled(), 10);
        let events = k.run_until(SimTime::from_micros(5)).unwrap();
        assert_eq!(events, 5);
        assert_eq!(k.read_real(b).unwrap(), 2.5);
        assert_eq!(k.now(), SimTime::from_micros(5));
        // Continue to the end.
        k.run_until(SimTime::from_micros(10)).unwrap();
        assert_eq!(k.read_real(b).unwrap(), 5.0);
        // The queue is drained: running on processes no further event.
        assert_eq!(k.run_until(SimTime::from_micros(20)).unwrap(), 0);
    }

    #[test]
    fn run_until_rejects_time_travel() {
        let mut k = Kernel::new();
        k.run_until(SimTime::from_micros(10)).unwrap();
        assert!(matches!(
            k.run_until(SimTime::from_micros(5)),
            Err(KernelError::ScheduleInPast { .. })
        ));
    }

    #[test]
    fn process_failure_is_reported_with_name() {
        let mut k = Kernel::new();
        let a = k.add_signal("a", Value::Real(0.0));
        k.add_process("broken", &[a], move |ctx| {
            // Read the real signal as a bit to force a type error.
            ctx.read_bit(a).map(|_| ())
        })
        .unwrap();
        let err = k.settle().unwrap_err();
        match err {
            KernelError::ProcessFailure { process, .. } => assert_eq!(process, "broken"),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn add_process_rejects_unknown_sensitivity() {
        let mut k = Kernel::new();
        let foreign = SignalId(42);
        assert!(k.add_process("p", &[foreign], |_| Ok(())).is_err());
    }

    /// Builds the little combinational chain used by the reuse tests and
    /// runs a short sweep, returning the observed outputs.
    fn chain_outputs(k: &mut Kernel, a: SignalId, c: SignalId) -> Vec<f64> {
        let mut outputs = Vec::new();
        for i in 0..5 {
            k.write_initial(a, Value::Real(f64::from(i))).unwrap();
            k.settle().unwrap();
            outputs.push(k.read_real(c).unwrap());
        }
        outputs
    }

    #[test]
    fn reset_restores_construction_time_behaviour() {
        let mut k = Kernel::new();
        let a = k.add_signal("a", Value::Real(0.0));
        let b = k.add_signal("b", Value::Real(0.0));
        let c = k.add_signal("c", Value::Real(0.0));
        k.add_process("double", &[a], move |ctx| {
            let x = ctx.read_real(a)?;
            ctx.write_real(b, 2.0 * x)
        })
        .unwrap();
        k.add_process("add_one", &[b], move |ctx| {
            let x = ctx.read_real(b)?;
            ctx.write_real(c, x + 1.0)
        })
        .unwrap();

        let first = chain_outputs(&mut k, a, c);
        k.reset();
        assert_eq!(k.now(), SimTime::ZERO);
        assert_eq!(k.delta_cycles_run(), 0);
        assert_eq!(k.activations(), 0);
        assert_eq!(k.events_scheduled(), 0);
        assert_eq!(k.read_real(a).unwrap(), 0.0, "signals back at initial");
        let second = chain_outputs(&mut k, a, c);
        assert_eq!(first, second, "reset kernel must replay bit-identically");
    }

    #[test]
    fn reset_clears_the_timed_queue_and_time() {
        let mut k = Kernel::new();
        let h = k.add_signal("h", Value::Real(0.0));
        k.add_process("idle", &[h], |_| Ok(())).unwrap();
        k.schedule_write(SimTime::from_micros(50), h, Value::Real(1.0));
        k.run_until(SimTime::from_micros(10)).unwrap();
        k.reset();
        // Time travel back to zero is legal again after reset.
        k.run_until(SimTime::from_micros(1)).unwrap();
        assert_eq!(k.now(), SimTime::from_micros(1));
        // The write queued before the reset is gone.
        assert_eq!(k.run_until(SimTime::from_micros(100)).unwrap(), 0);
        assert_eq!(k.read_real(h).unwrap(), 0.0);
    }

    #[test]
    fn debug_output_mentions_counts() {
        let mut k = Kernel::new();
        k.add_signal("a", Value::Real(0.0));
        let text = format!("{k:?}");
        assert!(text.contains("signals"));
    }
}
