//! Physical constants used throughout the magnetic models.

/// Permeability of free space, µ0, in henry per metre (T·m/A).
///
/// The paper's SystemC code uses the same constant (`MU0`) to convert the
/// total magnetisation and applied field into flux density:
/// `B = µ0 · (H + M)`.
pub const MU0: f64 = 4.0e-7 * std::f64::consts::PI;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mu0_matches_si_value() {
        assert!((MU0 - 1.256_637_061_4e-6).abs() < 1e-15);
    }

    #[test]
    fn saturation_flux_density_of_paper_material_is_about_two_tesla() {
        // Msat = 1.6 MA/m  =>  Bsat ~ µ0 * Msat ~ 2.01 T, matching the ±2 T
        // extent of Fig. 1 in the paper.
        let b_sat = MU0 * 1.6e6;
        assert!(b_sat > 1.9 && b_sat < 2.1);
    }
}
