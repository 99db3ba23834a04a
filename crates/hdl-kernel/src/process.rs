//! Method processes and their execution context.

use crate::error::KernelError;
use crate::signal::{SignalId, SignalStore};
use crate::value::Value;

/// Identifier of a process within a kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcessId(pub(crate) usize);

impl ProcessId {
    /// The raw index of the process.
    pub fn index(self) -> usize {
        self.0
    }
}

/// The view of the kernel a process body receives while it executes.
///
/// Mirrors what a SystemC method process can do: read signals and write
/// signals (visible after the next delta cycle).
#[derive(Debug)]
pub struct ProcessContext<'a> {
    signals: &'a mut SignalStore,
}

impl<'a> ProcessContext<'a> {
    pub(crate) fn new(signals: &'a mut SignalStore) -> Self {
        Self { signals }
    }

    /// Reads a signal's committed value.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::UnknownSignal`] for a foreign id.
    #[inline]
    pub fn read(&self, id: SignalId) -> Result<Value, KernelError> {
        self.signals.read(id)
    }

    /// Reads a real-valued signal.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::UnknownSignal`] or
    /// [`KernelError::TypeMismatch`].
    #[inline]
    pub fn read_real(&self, id: SignalId) -> Result<f64, KernelError> {
        self.signals.read_real(id)
    }

    /// Reads a bit-valued signal.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::UnknownSignal`] or
    /// [`KernelError::TypeMismatch`].
    #[inline]
    pub fn read_bit(&self, id: SignalId) -> Result<bool, KernelError> {
        self.signals.read_bit(id)
    }

    /// Reads an integer-valued signal.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::UnknownSignal`] or
    /// [`KernelError::TypeMismatch`].
    #[inline]
    pub fn read_int(&self, id: SignalId) -> Result<i64, KernelError> {
        self.signals.read_int(id)
    }

    /// Writes a signal; the new value becomes visible after the next delta
    /// cycle.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::UnknownSignal`] for a foreign id.
    #[inline]
    pub fn write(&mut self, id: SignalId, value: Value) -> Result<(), KernelError> {
        self.signals.write(id, value)
    }

    /// Writes a real value (see [`write`](Self::write)).
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::UnknownSignal`] for a foreign id.
    #[inline]
    pub fn write_real(&mut self, id: SignalId, value: f64) -> Result<(), KernelError> {
        self.signals.write(id, Value::Real(value))
    }

    /// Writes a bit value (see [`write`](Self::write)).
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::UnknownSignal`] for a foreign id.
    #[inline]
    pub fn write_bit(&mut self, id: SignalId, value: bool) -> Result<(), KernelError> {
        self.signals.write(id, Value::Bit(value))
    }

    /// Writes an integer value (see [`write`](Self::write)).
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::UnknownSignal`] for a foreign id.
    #[inline]
    pub fn write_int(&mut self, id: SignalId, value: i64) -> Result<(), KernelError> {
        self.signals.write(id, Value::Int(value))
    }
}

/// The boxed body of a method process.
pub type ProcessBody = Box<dyn FnMut(&mut ProcessContext<'_>) -> Result<(), KernelError>>;

/// A registered method process.
pub struct Process {
    pub(crate) name: String,
    pub(crate) body: ProcessBody,
}

impl Process {
    /// Creates a process from a name and a body closure.
    pub fn new(
        name: impl Into<String>,
        body: impl FnMut(&mut ProcessContext<'_>) -> Result<(), KernelError> + 'static,
    ) -> Self {
        Self {
            name: name.into(),
            body: Box::new(body),
        }
    }
}

impl std::fmt::Debug for Process {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Process").field("name", &self.name).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_reads_and_writes_are_delta_separated() {
        let mut store = SignalStore::new();
        let a = store.add("a", Value::Real(1.0));
        let mut ctx = ProcessContext::new(&mut store);
        assert_eq!(ctx.read_real(a).unwrap(), 1.0);
        ctx.write_real(a, 2.0).unwrap();
        // Still the old value inside the same evaluation.
        assert_eq!(ctx.read_real(a).unwrap(), 1.0);
        store.commit_dirty(|_| {});
        assert_eq!(store.read(a).unwrap(), Value::Real(2.0));
    }

    #[test]
    fn context_typed_accessors() {
        let mut store = SignalStore::new();
        let b = store.add("b", Value::Bit(true));
        let i = store.add("i", Value::Int(7));
        let mut ctx = ProcessContext::new(&mut store);
        assert!(ctx.read_bit(b).unwrap());
        assert_eq!(ctx.read_int(i).unwrap(), 7);
        assert!(ctx.read_real(b).is_err());
        ctx.write_bit(b, false).unwrap();
        ctx.write_int(i, 9).unwrap();
        ctx.write(i, Value::Int(10)).unwrap();
        assert_eq!(ctx.read(i).unwrap(), Value::Int(7));
    }

    #[test]
    fn process_debug_shows_the_name() {
        let p = Process::new("core", |_ctx| Ok(()));
        assert!(format!("{p:?}").contains("core"));
    }
}
