//! Integration test for the blocked kernel at the paper's widths inside
//! the production solver.

use kpm_repro::core::solver::{kpm_moments, KpmParams, KpmVariant};
use kpm_repro::topo::{ScaleFactors, TopoHamiltonian};

#[test]
fn specialized_dispatch_active_in_solver_for_paper_widths() {
    // The register-panel sweep specializes every width: R = 32 (the
    // paper's production width) is four 8-wide panels, R = 12 an 8 and
    // a 4. Both must give moments identical to the parallel kernel path.
    let h = TopoHamiltonian::clean(4, 4, 2).assemble();
    let sf = ScaleFactors::from_gershgorin(&h, 0.01);
    for r in [12usize, 32] {
        let serial = kpm_moments(
            &h,
            sf,
            &KpmParams {
                num_moments: 16,
                num_random: r,
                seed: 9,
                parallel: false,
                threads: 0,
                power: 1,
                first_touch: false,
            },
            KpmVariant::AugSpmmv,
        )
        .unwrap();
        let parallel = kpm_moments(
            &h,
            sf,
            &KpmParams {
                num_moments: 16,
                num_random: r,
                seed: 9,
                parallel: true,
                threads: 0,
                power: 1,
                first_touch: false,
            },
            KpmVariant::AugSpmmv,
        )
        .unwrap();
        assert!(serial.max_abs_diff(&parallel) < 1e-9, "R={r}");
    }
}
