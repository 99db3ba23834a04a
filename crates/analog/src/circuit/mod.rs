//! Modified nodal analysis (MNA) circuit simulation.
//!
//! A deliberately small SPICE-like transient engine: enough to embed a
//! hysteretic core in a realistic drive circuit (voltage source, series
//! resistor, wound core, optional secondary load) and to reproduce the
//! "model inside an analogue solver" setting the paper contrasts its
//! timeless technique against.
//!
//! * [`Node`] / [`Circuit`] — netlist construction;
//! * [`elements`] — resistors, capacitors, inductors, independent voltage
//!   sources and the behavioural [`elements::NonlinearInductor`];
//! * [`MagneticCoreModel`] — the hook a hysteresis model implements to sit
//!   inside the nonlinear inductor;
//! * [`transient`] — transient analysis with per-step Newton iteration,
//!   convergence statistics and a pluggable step controller
//!   ([`StepControl`]): index-arithmetic fixed stepping or an adaptive
//!   LTE-controlled variable step.

pub mod core_model;
pub mod elements;
pub mod transient;

pub use core_model::{LinearCore, MagneticCoreModel};
pub use elements::{Capacitor, Element, Inductor, NonlinearInductor, Resistor, VoltageSource};
pub use transient::{StepControl, TransientAnalysis, TransientResult, TransientStats};

use crate::error::SolverError;

/// A circuit node.  Node 0 is always ground.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Node(pub usize);

impl Node {
    /// The ground (reference) node.
    pub const GROUND: Node = Node(0);

    /// `true` for the ground node.
    pub fn is_ground(self) -> bool {
        self.0 == 0
    }
}

/// A netlist: a set of nodes and the elements connecting them.
pub struct Circuit {
    node_count: usize,
    elements: Vec<Box<dyn Element>>,
    labels: Vec<String>,
}

impl Default for Circuit {
    fn default() -> Self {
        Self::new()
    }
}

impl Circuit {
    /// Creates an empty circuit containing only the ground node.
    pub fn new() -> Self {
        Self {
            node_count: 1,
            elements: Vec::new(),
            labels: Vec::new(),
        }
    }

    /// Allocates a new node and returns it.
    pub fn node(&mut self) -> Node {
        let n = Node(self.node_count);
        self.node_count += 1;
        n
    }

    /// Number of nodes including ground.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of elements.
    pub fn element_count(&self) -> usize {
        self.elements.len()
    }

    /// Adds an element with a display label, returning its index.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::InvalidCircuit`] when the element references a
    /// node that has not been allocated.
    pub fn add(
        &mut self,
        label: impl Into<String>,
        element: impl Element + 'static,
    ) -> Result<usize, SolverError> {
        for node in element.nodes() {
            if node.0 >= self.node_count {
                return Err(SolverError::InvalidCircuit {
                    reason: format!("element references unknown node {}", node.0),
                });
            }
        }
        self.elements.push(Box::new(element));
        self.labels.push(label.into());
        Ok(self.elements.len() - 1)
    }

    /// Element labels in insertion order.
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    pub(crate) fn elements(&self) -> &[Box<dyn Element>] {
        &self.elements
    }

    pub(crate) fn elements_mut(&mut self) -> &mut [Box<dyn Element>] {
        &mut self.elements
    }
}

impl std::fmt::Debug for Circuit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Circuit")
            .field("nodes", &self.node_count)
            .field("elements", &self.labels)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::elements::Resistor;

    #[test]
    fn ground_node_properties() {
        assert!(Node::GROUND.is_ground());
        assert!(!Node(1).is_ground());
    }

    #[test]
    fn node_allocation_is_sequential() {
        let mut c = Circuit::new();
        assert_eq!(c.node_count(), 1);
        let a = c.node();
        let b = c.node();
        assert_eq!(a, Node(1));
        assert_eq!(b, Node(2));
        assert_eq!(c.node_count(), 3);
    }

    #[test]
    fn add_rejects_unknown_node() {
        let mut c = Circuit::new();
        let err = c
            .add("R1", Resistor::new(Node(5), Node::GROUND, 100.0).unwrap())
            .unwrap_err();
        assert!(matches!(err, SolverError::InvalidCircuit { .. }));
    }

    #[test]
    fn add_registers_label() {
        let mut c = Circuit::new();
        let n = c.node();
        c.add("R1", Resistor::new(n, Node::GROUND, 100.0).unwrap())
            .unwrap();
        assert_eq!(c.labels(), &["R1".to_string()]);
        assert_eq!(c.element_count(), 1);
        assert!(format!("{c:?}").contains("R1"));
    }
}
