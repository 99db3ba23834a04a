//! Magnetic core geometry.
//!
//! The paper's SystemC model multiplies the flux density by a core area to
//! report flux (`B = MU0*area*(ms*mtotal + H)` in the listing is actually a
//! flux, Φ = B·A).  When the core is embedded in a circuit (the analogue
//! solver substrate), its path length converts winding current into field
//! strength (`H = N·I / l_m`) and its area turns flux-density change into
//! induced voltage (`v = N·A·dB/dt`).

use crate::error::MagneticsError;

/// Geometry of a magnetic core: effective cross-section area and effective
/// magnetic path length.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreGeometry {
    area_m2: f64,
    path_length_m: f64,
}

impl CoreGeometry {
    /// Creates a core geometry from an effective area (m²) and an effective
    /// magnetic path length (m).
    ///
    /// # Errors
    ///
    /// Returns [`MagneticsError::InvalidGeometry`] when either value is not
    /// finite and strictly positive.
    pub fn new(area_m2: f64, path_length_m: f64) -> Result<Self, MagneticsError> {
        if !area_m2.is_finite() || area_m2 <= 0.0 {
            return Err(MagneticsError::InvalidGeometry {
                name: "area_m2",
                value: area_m2,
            });
        }
        if !path_length_m.is_finite() || path_length_m <= 0.0 {
            return Err(MagneticsError::InvalidGeometry {
                name: "path_length_m",
                value: path_length_m,
            });
        }
        Ok(Self {
            area_m2,
            path_length_m,
        })
    }

    /// A small demonstration core (1 cm² area, 10 cm path) used by the
    /// examples and benches.
    pub fn demo() -> Self {
        Self {
            area_m2: 1.0e-4,
            path_length_m: 0.1,
        }
    }

    /// Effective cross-section area in m².
    pub fn area_m2(&self) -> f64 {
        self.area_m2
    }

    /// Effective magnetic path length in m.
    pub fn path_length_m(&self) -> f64 {
        self.path_length_m
    }

    /// Core volume in m³ (area × path length); multiplying the loop area
    /// (J/m³) by this gives the energy lost per cycle in joules.
    pub fn volume_m3(&self) -> f64 {
        self.area_m2 * self.path_length_m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_non_positive_dimensions() {
        assert!(CoreGeometry::new(0.0, 0.1).is_err());
        assert!(CoreGeometry::new(1e-4, -1.0).is_err());
        assert!(CoreGeometry::new(f64::NAN, 0.1).is_err());
        assert!(CoreGeometry::new(1e-4, 0.1).is_ok());
    }
}
