//! Circuit elements and the MNA stamping interface.
//!
//! Every element implements [`Element`]: it declares its nodes and the
//! number of extra branch-current unknowns it needs, stamps its linearised
//! contribution into the MNA system on every Newton iteration, and commits
//! its internal state once the step is accepted.
//!
//! Sign conventions:
//!
//! * node equations state "sum of currents *leaving* the node through
//!   elements equals the sum of known currents *injected* into the node";
//! * a branch current is positive when it flows from the element's first
//!   node (`a`) through the element to its second node (`b`).

use crate::circuit::core_model::MagneticCoreModel;
use crate::circuit::Node;
use crate::linalg::Matrix;
use waveform::Waveform;

/// Mutable view of the MNA system handed to elements during stamping.
pub struct StampContext<'a> {
    pub(crate) matrix: &'a mut Matrix,
    pub(crate) rhs: &'a mut [f64],
    pub(crate) x_guess: &'a [f64],
    pub(crate) x_prev: &'a [f64],
    pub(crate) node_count: usize,
    pub(crate) branch_offset: usize,
    pub(crate) time: f64,
    pub(crate) dt: f64,
}

impl StampContext<'_> {
    fn node_var(&self, node: Node) -> Option<usize> {
        if node.is_ground() {
            None
        } else {
            Some(node.0 - 1)
        }
    }

    fn branch_var(&self, local: usize) -> usize {
        self.node_count - 1 + self.branch_offset + local
    }

    /// The time at the end of the step being assembled.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// The time-step size.
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// Node voltage at the current Newton iterate.
    pub fn voltage(&self, node: Node) -> f64 {
        self.node_var(node).map_or(0.0, |i| self.x_guess[i])
    }

    /// Node voltage at the previous accepted time point.
    pub fn prev_voltage(&self, node: Node) -> f64 {
        self.node_var(node).map_or(0.0, |i| self.x_prev[i])
    }

    /// Branch current (local index) at the current Newton iterate.
    pub fn branch_current(&self, local: usize) -> f64 {
        self.x_guess[self.branch_var(local)]
    }

    /// Branch current (local index) at the previous accepted time point.
    pub fn prev_branch_current(&self, local: usize) -> f64 {
        self.x_prev[self.branch_var(local)]
    }

    /// Stamps a conductance `g` between nodes `a` and `b`.
    pub fn stamp_conductance(&mut self, a: Node, b: Node, g: f64) {
        if let Some(i) = self.node_var(a) {
            self.matrix.add(i, i, g);
            if let Some(j) = self.node_var(b) {
                self.matrix.add(i, j, -g);
            }
        }
        if let Some(j) = self.node_var(b) {
            self.matrix.add(j, j, g);
            if let Some(i) = self.node_var(a) {
                self.matrix.add(j, i, -g);
            }
        }
    }

    /// Records a known current `i` injected *into* `node`.
    pub fn stamp_injection(&mut self, node: Node, i: f64) {
        if let Some(row) = self.node_var(node) {
            self.rhs[row] += i;
        }
    }

    /// Couples a branch current into the KCL equations: the branch current
    /// (local index) leaves node `a` and enters node `b`.
    pub fn stamp_branch_kcl(&mut self, local: usize, a: Node, b: Node) {
        let col = self.branch_var(local);
        if let Some(row) = self.node_var(a) {
            self.matrix.add(row, col, 1.0);
        }
        if let Some(row) = self.node_var(b) {
            self.matrix.add(row, col, -1.0);
        }
    }

    /// Adds `coeff · v(node)` to the branch equation `local`.
    pub fn stamp_branch_voltage(&mut self, local: usize, node: Node, coeff: f64) {
        if let Some(col) = self.node_var(node) {
            let row = self.branch_var(local);
            self.matrix.add(row, col, coeff);
        }
    }

    /// Adds `coeff · i(branch)` to the branch equation `local`.
    pub fn stamp_branch_current(&mut self, local: usize, coeff: f64) {
        let row = self.branch_var(local);
        let col = self.branch_var(local);
        self.matrix.add(row, col, coeff);
    }

    /// Adds a constant to the right-hand side of the branch equation.
    pub fn stamp_branch_rhs(&mut self, local: usize, value: f64) {
        let row = self.branch_var(local);
        self.rhs[row] += value;
    }
}

/// Read-only view of the accepted solution handed to elements at commit
/// time.
pub struct CommitContext<'a> {
    pub(crate) x: &'a [f64],
    pub(crate) node_count: usize,
    pub(crate) branch_offset: usize,
    pub(crate) time: f64,
    pub(crate) dt: f64,
}

impl CommitContext<'_> {
    /// The time at the end of the accepted step.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// The time-step size.
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// Accepted node voltage.
    pub fn voltage(&self, node: Node) -> f64 {
        if node.is_ground() {
            0.0
        } else {
            self.x[node.0 - 1]
        }
    }

    /// Accepted branch current (local index).
    pub fn branch_current(&self, local: usize) -> f64 {
        self.x[self.node_count - 1 + self.branch_offset + local]
    }
}

/// A circuit element that can stamp itself into the MNA system.
pub trait Element {
    /// The nodes this element is connected to (used for validation).
    fn nodes(&self) -> Vec<Node>;

    /// Number of extra branch-current unknowns this element introduces.
    fn branch_count(&self) -> usize {
        0
    }

    /// Stamps the element's linearised contribution for the step being
    /// assembled.  The stamp must be a pure function of the context (no
    /// interior mutability): the transient engine settles a Newton solve
    /// whose iterate repeats an earlier one bit for bit, on the assumption
    /// that the iteration would cycle.
    fn stamp(&self, ctx: &mut StampContext<'_>);

    /// Commits internal state after the step has been accepted.
    fn commit(&mut self, _ctx: &CommitContext<'_>) {}
}

/// An ideal resistor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Resistor {
    a: Node,
    b: Node,
    ohms: f64,
}

impl Resistor {
    /// Creates a resistor between `a` and `b`.
    ///
    /// # Errors
    ///
    /// Returns [`crate::SolverError::InvalidCircuit`] for a non-finite or
    /// non-positive resistance.
    pub fn new(a: Node, b: Node, ohms: f64) -> Result<Self, crate::SolverError> {
        if !ohms.is_finite() || ohms <= 0.0 {
            return Err(crate::SolverError::InvalidCircuit {
                reason: format!("resistance must be finite and positive, got {ohms}"),
            });
        }
        Ok(Self { a, b, ohms })
    }
}

impl Element for Resistor {
    fn nodes(&self) -> Vec<Node> {
        vec![self.a, self.b]
    }

    fn stamp(&self, ctx: &mut StampContext<'_>) {
        ctx.stamp_conductance(self.a, self.b, 1.0 / self.ohms);
    }
}

/// An ideal capacitor, discretised with backward Euler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Capacitor {
    a: Node,
    b: Node,
    farads: f64,
}

impl Capacitor {
    /// Creates a capacitor between `a` and `b`.
    ///
    /// # Errors
    ///
    /// Returns [`crate::SolverError::InvalidCircuit`] for a non-finite or
    /// non-positive capacitance.
    pub fn new(a: Node, b: Node, farads: f64) -> Result<Self, crate::SolverError> {
        if !farads.is_finite() || farads <= 0.0 {
            return Err(crate::SolverError::InvalidCircuit {
                reason: format!("capacitance must be finite and positive, got {farads}"),
            });
        }
        Ok(Self { a, b, farads })
    }
}

impl Element for Capacitor {
    fn nodes(&self) -> Vec<Node> {
        vec![self.a, self.b]
    }

    fn stamp(&self, ctx: &mut StampContext<'_>) {
        let g = self.farads / ctx.dt();
        let v_prev = ctx.prev_voltage(self.a) - ctx.prev_voltage(self.b);
        ctx.stamp_conductance(self.a, self.b, g);
        // Companion current source: i = g·v − g·v_prev; the constant term is
        // a known injection of +g·v_prev into `a` and −g·v_prev into `b`.
        ctx.stamp_injection(self.a, g * v_prev);
        ctx.stamp_injection(self.b, -g * v_prev);
    }
}

/// An ideal linear inductor, discretised with backward Euler.  Uses one
/// branch-current unknown.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Inductor {
    a: Node,
    b: Node,
    henries: f64,
}

impl Inductor {
    /// Creates an inductor between `a` and `b`.
    ///
    /// # Errors
    ///
    /// Returns [`crate::SolverError::InvalidCircuit`] for a non-finite or
    /// non-positive inductance.
    pub fn new(a: Node, b: Node, henries: f64) -> Result<Self, crate::SolverError> {
        if !henries.is_finite() || henries <= 0.0 {
            return Err(crate::SolverError::InvalidCircuit {
                reason: format!("inductance must be finite and positive, got {henries}"),
            });
        }
        Ok(Self { a, b, henries })
    }
}

impl Element for Inductor {
    fn nodes(&self) -> Vec<Node> {
        vec![self.a, self.b]
    }

    fn branch_count(&self) -> usize {
        1
    }

    fn stamp(&self, ctx: &mut StampContext<'_>) {
        // Branch equation: v_a − v_b − (L/dt)·i = −(L/dt)·i_prev
        let l_over_dt = self.henries / ctx.dt();
        let i_prev = ctx.prev_branch_current(0);
        ctx.stamp_branch_kcl(0, self.a, self.b);
        ctx.stamp_branch_voltage(0, self.a, 1.0);
        ctx.stamp_branch_voltage(0, self.b, -1.0);
        ctx.stamp_branch_current(0, -l_over_dt);
        ctx.stamp_branch_rhs(0, -l_over_dt * i_prev);
    }
}

/// An independent voltage source driven by a [`Waveform`].  Uses one
/// branch-current unknown; the positive terminal is node `a`.
pub struct VoltageSource<W> {
    a: Node,
    b: Node,
    waveform: W,
}

impl<W: Waveform> VoltageSource<W> {
    /// Creates a voltage source whose positive terminal is `a`.
    pub fn new(a: Node, b: Node, waveform: W) -> Self {
        Self { a, b, waveform }
    }
}

impl<W: Waveform> Element for VoltageSource<W> {
    fn nodes(&self) -> Vec<Node> {
        vec![self.a, self.b]
    }

    fn branch_count(&self) -> usize {
        1
    }

    fn stamp(&self, ctx: &mut StampContext<'_>) {
        ctx.stamp_branch_kcl(0, self.a, self.b);
        ctx.stamp_branch_voltage(0, self.a, 1.0);
        ctx.stamp_branch_voltage(0, self.b, -1.0);
        let v = self.waveform.value(ctx.time());
        ctx.stamp_branch_rhs(0, v);
    }
}

/// A wound magnetic core: `N` turns on a core of cross-section `area` and
/// magnetic path length `path_length`, whose material behaviour is supplied
/// by a [`MagneticCoreModel`].
///
/// The element keeps one branch-current unknown.  Its branch equation links
/// the terminal voltage to the rate of change of core flux:
/// `v_a − v_b = N·A·(B(H) − B_prev)/dt`, with `H = N·i / l`.
pub struct NonlinearInductor<M> {
    a: Node,
    b: Node,
    turns: f64,
    area: f64,
    path_length: f64,
    core: M,
    b_prev: f64,
}

impl<M: MagneticCoreModel> NonlinearInductor<M> {
    /// Creates a wound core element.
    ///
    /// # Errors
    ///
    /// Returns [`crate::SolverError::InvalidCircuit`] when turns, area or
    /// path length are not finite and positive.
    pub fn new(
        a: Node,
        b: Node,
        turns: f64,
        area: f64,
        path_length: f64,
        core: M,
    ) -> Result<Self, crate::SolverError> {
        for (name, v) in [
            ("turns", turns),
            ("area", area),
            ("path_length", path_length),
        ] {
            if !v.is_finite() || v <= 0.0 {
                return Err(crate::SolverError::InvalidCircuit {
                    reason: format!("{name} must be finite and positive, got {v}"),
                });
            }
        }
        let b_prev = core.flux_density();
        Ok(Self {
            a,
            b,
            turns,
            area,
            path_length,
            core,
            b_prev,
        })
    }

    /// Field strength corresponding to a winding current.
    pub fn field_for_current(&self, current: f64) -> f64 {
        self.turns * current / self.path_length
    }
}

impl<M: MagneticCoreModel> Element for NonlinearInductor<M> {
    fn nodes(&self) -> Vec<Node> {
        vec![self.a, self.b]
    }

    fn branch_count(&self) -> usize {
        1
    }

    fn stamp(&self, ctx: &mut StampContext<'_>) {
        let i_guess = ctx.branch_current(0);
        let h_guess = self.field_for_current(i_guess);
        let (b_flux, db_dh) = self.core.evaluate(h_guess);
        let na_over_dt = self.turns * self.area / ctx.dt();
        // dV/di of the flux term.
        let r_eq = na_over_dt * db_dh * self.turns / self.path_length;

        // Branch equation, linearised about i_guess:
        //   v_a − v_b − r_eq·i = N·A/dt·(B(h_guess) − B_prev) − r_eq·i_guess
        ctx.stamp_branch_kcl(0, self.a, self.b);
        ctx.stamp_branch_voltage(0, self.a, 1.0);
        ctx.stamp_branch_voltage(0, self.b, -1.0);
        ctx.stamp_branch_current(0, -r_eq);
        ctx.stamp_branch_rhs(0, na_over_dt * (b_flux - self.b_prev) - r_eq * i_guess);
    }

    fn commit(&mut self, ctx: &CommitContext<'_>) {
        let i = ctx.branch_current(0);
        let h = self.field_for_current(i);
        self.core.commit(h);
        self.b_prev = self.core.flux_density();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::core_model::LinearCore;

    #[test]
    fn element_constructors_validate() {
        assert!(Resistor::new(Node(1), Node::GROUND, -1.0).is_err());
        assert!(Resistor::new(Node(1), Node::GROUND, 100.0).is_ok());
        assert!(Capacitor::new(Node(1), Node::GROUND, 0.0).is_err());
        assert!(Inductor::new(Node(1), Node::GROUND, f64::NAN).is_err());
        assert!(NonlinearInductor::new(
            Node(1),
            Node::GROUND,
            0.0,
            1e-4,
            0.1,
            LinearCore::new(1000.0)
        )
        .is_err());
    }

    #[test]
    fn branch_counts() {
        let r = Resistor::new(Node(1), Node::GROUND, 1.0).unwrap();
        let l = Inductor::new(Node(1), Node::GROUND, 1.0).unwrap();
        let n =
            NonlinearInductor::new(Node(1), Node::GROUND, 10.0, 1e-4, 0.1, LinearCore::new(1.0))
                .unwrap();
        assert_eq!(r.branch_count(), 0);
        assert_eq!(l.branch_count(), 1);
        assert_eq!(n.branch_count(), 1);
        assert_eq!(r.nodes(), vec![Node(1), Node::GROUND]);
    }

    #[test]
    fn nonlinear_inductor_field_conversion() {
        let n = NonlinearInductor::new(
            Node(1),
            Node::GROUND,
            100.0,
            1e-4,
            0.1,
            LinearCore::new(1.0),
        )
        .unwrap();
        assert!((n.field_for_current(2.0) - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn resistor_stamp_produces_symmetric_conductance() {
        let r = Resistor::new(Node(1), Node(2), 2.0).unwrap();
        let mut matrix = Matrix::zeros(2, 2);
        let mut rhs = vec![0.0; 2];
        let x = vec![0.0; 2];
        let mut ctx = StampContext {
            matrix: &mut matrix,
            rhs: &mut rhs,
            x_guess: &x,
            x_prev: &x,
            node_count: 3,
            branch_offset: 0,
            time: 0.0,
            dt: 1e-6,
        };
        r.stamp(&mut ctx);
        assert!((matrix[(0, 0)] - 0.5).abs() < 1e-12);
        assert!((matrix[(1, 1)] - 0.5).abs() < 1e-12);
        assert!((matrix[(0, 1)] + 0.5).abs() < 1e-12);
        assert!((matrix[(1, 0)] + 0.5).abs() < 1e-12);
    }
}
