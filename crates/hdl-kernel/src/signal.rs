//! Signals with evaluate/update (delta-cycle) semantics.

use crate::error::KernelError;
use crate::value::Value;

/// Identifier of a signal within a [`SignalStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SignalId(pub(crate) usize);

impl SignalId {
    /// The raw index of the signal.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Storage for all signals of a kernel.
///
/// Writes performed during process evaluation are *pending* until
/// [`SignalStore::commit_dirty`] commits them — the core of the delta-cycle
/// semantics the SystemC model relies on: `JA::core()` can read `H` and
/// write `hchanged` without the write being observed in the same
/// evaluation.
///
/// The store keeps its fields as parallel arrays rather than an
/// array-of-slots: the update phase touches only `currents` and
/// `pendings`, which this layout packs densely, while the cold `names`
/// and `initials` stay out of the hot cache lines.
#[derive(Debug, Default, Clone)]
pub struct SignalStore {
    names: Vec<String>,
    /// Construction-time values, kept so [`SignalStore::reset`] can
    /// restore the store without re-declaring every signal.
    initials: Vec<Value>,
    currents: Vec<Value>,
    pendings: Vec<Option<Value>>,
    /// Ids with a pending write, in first-write order, so the update phase
    /// only touches slots that were actually written instead of scanning the
    /// whole store every delta cycle.  Deduplicated by the pending `Option`
    /// itself: a second write to the same slot finds `pending` already set
    /// and does not push again.
    dirty: Vec<SignalId>,
}

impl SignalStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a signal with a display name and an initial value.
    pub fn add(&mut self, name: impl Into<String>, initial: Value) -> SignalId {
        let id = SignalId(self.names.len());
        self.names.push(name.into());
        self.initials.push(initial);
        self.currents.push(initial);
        self.pendings.push(None);
        id
    }

    /// Number of signals.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// `true` when the store holds no signals.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Current (committed) value of a signal.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::UnknownSignal`] for a foreign id.
    #[inline]
    pub fn read(&self, id: SignalId) -> Result<Value, KernelError> {
        self.currents
            .get(id.0)
            .copied()
            .ok_or(KernelError::UnknownSignal { id })
    }

    /// Reads a real-valued signal in one bounds check and one match —
    /// the hot path of every process evaluation.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::UnknownSignal`] or
    /// [`KernelError::TypeMismatch`].
    #[inline]
    pub fn read_real(&self, id: SignalId) -> Result<f64, KernelError> {
        self.currents
            .get(id.0)
            .ok_or(KernelError::UnknownSignal { id })?
            .as_real()
    }

    /// Reads a bit-valued signal (see [`read_real`](Self::read_real)).
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::UnknownSignal`] or
    /// [`KernelError::TypeMismatch`].
    #[inline]
    pub fn read_bit(&self, id: SignalId) -> Result<bool, KernelError> {
        self.currents
            .get(id.0)
            .ok_or(KernelError::UnknownSignal { id })?
            .as_bit()
    }

    /// Reads an integer-valued signal (see [`read_real`](Self::read_real)).
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::UnknownSignal`] or
    /// [`KernelError::TypeMismatch`].
    #[inline]
    pub fn read_int(&self, id: SignalId) -> Result<i64, KernelError> {
        self.currents
            .get(id.0)
            .ok_or(KernelError::UnknownSignal { id })?
            .as_int()
    }

    /// Schedules a new value for the next update phase.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::UnknownSignal`] for a foreign id.
    #[inline]
    pub fn write(&mut self, id: SignalId, value: Value) -> Result<(), KernelError> {
        let pending = self
            .pendings
            .get_mut(id.0)
            .ok_or(KernelError::UnknownSignal { id })?;
        if pending.is_none() {
            self.dirty.push(id);
        }
        *pending = Some(value);
        Ok(())
    }

    /// Commits every pending write, invoking `on_changed` for each signal
    /// whose committed value actually changed (writes of an identical value
    /// do not generate events).  The kernel's delta-cycle loop reacts to
    /// each change in place, so the update phase needs no changed-id
    /// buffer.
    ///
    /// Signals are reported in first-write order, not id order; the kernel
    /// sorts its ready set before every evaluate phase, so this order never
    /// reaches process execution.
    #[inline]
    pub fn commit_dirty(&mut self, mut on_changed: impl FnMut(SignalId)) {
        // Indexed loop, not an iterator: the dirty list and the value
        // arrays live in the same struct, and indexing keeps the borrows
        // disjoint without moving the list out and back.
        for i in 0..self.dirty.len() {
            let id = self.dirty[i];
            if let Some(next) = self.pendings[id.0].take() {
                let current = &mut self.currents[id.0];
                if next.differs_from(current) {
                    *current = next;
                    on_changed(id);
                }
            }
        }
        self.dirty.clear();
    }

    /// Restores every signal to its construction-time initial value and
    /// discards pending writes, keeping the signals themselves (names and
    /// ids stay valid).
    pub fn reset(&mut self) {
        self.currents.copy_from_slice(&self.initials);
        for pending in &mut self.pendings {
            *pending = None;
        }
        self.dirty.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn update(store: &mut SignalStore) -> Vec<SignalId> {
        let mut changed = Vec::new();
        store.commit_dirty(|id| changed.push(id));
        changed
    }

    #[test]
    fn add_read_write_update_cycle() {
        let mut store = SignalStore::new();
        let a = store.add("a", Value::Real(0.0));
        assert_eq!(store.len(), 1);
        assert!(!store.is_empty());

        store.write(a, Value::Real(5.0)).unwrap();
        // Not yet visible.
        assert_eq!(store.read(a).unwrap(), Value::Real(0.0));

        let changed = update(&mut store);
        assert_eq!(changed, vec![a]);
        assert_eq!(store.read(a).unwrap(), Value::Real(5.0));
    }

    #[test]
    fn commit_reports_each_write_once() {
        let mut store = SignalStore::new();
        let a = store.add("a", Value::Int(0));
        store.write(a, Value::Int(1)).unwrap();
        assert_eq!(update(&mut store), vec![a]);
        assert!(update(&mut store).is_empty(), "no pending writes left");
    }

    #[test]
    fn identical_write_is_not_an_event() {
        let mut store = SignalStore::new();
        let a = store.add("a", Value::Bit(false));
        store.write(a, Value::Bit(false)).unwrap();
        assert!(update(&mut store).is_empty());
    }

    #[test]
    fn last_write_wins_within_a_delta() {
        let mut store = SignalStore::new();
        let a = store.add("a", Value::Int(0));
        store.write(a, Value::Int(1)).unwrap();
        store.write(a, Value::Int(2)).unwrap();
        let changed = update(&mut store);
        assert_eq!(changed.len(), 1);
        assert_eq!(store.read(a).unwrap(), Value::Int(2));
    }

    #[test]
    fn reset_restores_initial_values_and_drops_pending() {
        let mut store = SignalStore::new();
        let a = store.add("a", Value::Real(1.5));
        let b = store.add("b", Value::Bit(true));
        store.write(a, Value::Real(9.0)).unwrap();
        update(&mut store);
        store.write(b, Value::Bit(false)).unwrap(); // still pending
        store.reset();
        assert_eq!(store.read(a).unwrap(), Value::Real(1.5));
        assert_eq!(store.read(b).unwrap(), Value::Bit(true));
        assert!(update(&mut store).is_empty(), "pending write dropped");
        assert_eq!(store.len(), 2, "signals survive reset");
    }

    #[test]
    fn unknown_signal_rejected() {
        let mut store = SignalStore::new();
        let foreign = SignalId(17);
        assert!(store.read(foreign).is_err());
        assert!(store.write(foreign, Value::Bit(true)).is_err());
    }

    #[test]
    fn signal_id_index() {
        let mut store = SignalStore::new();
        let a = store.add("a", Value::Real(0.0));
        let b = store.add("b", Value::Real(0.0));
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
    }
}
