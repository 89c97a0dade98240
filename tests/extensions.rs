//! Integration tests for the Section VII (outlook) extensions: the
//! automatic weight tuner feeding the distributed solver, the pipelined
//! cluster model, the multi-level ECM roofline driven by simulated
//! traffic, and the blocked kernel at the paper's widths inside the
//! production solver.

use kpm_repro::core::solver::{kpm_moments, KpmParams, KpmVariant};
use kpm_repro::hetsim::autotune::{balance_with_model, imbalance, weights_from_rates};
use kpm_repro::hetsim::cluster::{ClusterModel, Domain};
use kpm_repro::hetsim::dist::distributed_kpm;
use kpm_repro::hetsim::node::{cpu_performance, gpu_performance, Stage};
use kpm_repro::perfmodel::ecm::{levels_from_traffic, predict};
use kpm_repro::perfmodel::machine::{IVB, SNB};
use kpm_repro::simgpu::GpuDevice;
use kpm_repro::topo::{ScaleFactors, TopoHamiltonian};

#[test]
fn auto_weights_from_modelled_rates_balance_the_distributed_solver() {
    // The full outlook workflow: model the per-device rates, derive
    // weights automatically, run the functional distributed solver with
    // them, and verify the physics is untouched.
    let h = TopoHamiltonian::clean(4, 4, 3).assemble();
    let sf = ScaleFactors::from_gershgorin(&h, 0.01);
    let bench = TopoHamiltonian::clean(16, 8, 4).assemble();

    let cpu_rate = cpu_performance(&SNB, Stage::Stage2, 32, SNB.cores - 1, 1.3);
    let gpu_rate = gpu_performance(&GpuDevice::k20x(), Stage::Stage2, 32, &bench);
    let weights = weights_from_rates(&[cpu_rate, gpu_rate]);
    assert!(weights[1] > weights[0], "GPU must get the larger share");

    let p = KpmParams {
        num_moments: 24,
        num_random: 2,
        seed: 42,
        parallel: false,
        threads: 0,
        power: 1,
        first_touch: false,
    };
    let reference = kpm_moments(&h, sf, &p, KpmVariant::AugSpmmv).unwrap();
    let dist = distributed_kpm(&h, sf, &p, &weights, false).unwrap();
    assert!(reference.max_abs_diff(&dist.moments) < 1e-9);
}

#[test]
fn refinement_balances_the_modelled_heterogeneous_node() {
    // Iterative refinement against the node model's own cost function:
    // converges to < 0.5% imbalance within a few steps.
    let bench = TopoHamiltonian::clean(16, 8, 4).assemble();
    let cpu_rate = cpu_performance(&SNB, Stage::Stage2, 32, SNB.cores - 1, 1.3);
    let gpu_rate = gpu_performance(&GpuDevice::k20x(), Stage::Stage2, 32, &bench);
    let model = move |w: f64, rank: usize| -> f64 {
        let speed = [cpu_rate, gpu_rate][rank];
        w / speed
    };
    let (weights, trace) = balance_with_model(&[1.0, 1.0], model, 5e-3, 20);
    assert!(trace.last().unwrap() < &5e-3);
    let times = [weights[0] / cpu_rate, weights[1] / gpu_rate];
    assert!(imbalance(&times) < 5e-3);
}

#[test]
fn pipelined_cluster_beats_blocking_cluster_everywhere() {
    let bench = TopoHamiltonian::clean(32, 16, 8).assemble();
    let plain = ClusterModel::piz_daint(&bench, 32);
    let piped = ClusterModel::piz_daint(&bench, 32).with_pipelining();
    for nodes in [4usize, 64, 1024] {
        let sq_plain = plain.weak_scaling_square(nodes).expect("optimized stage");
        let sq_piped = piped.weak_scaling_square(nodes).expect("optimized stage");
        let (a, b) = (sq_plain.last().unwrap(), sq_piped.last().unwrap());
        assert!(
            b.tflops >= a.tflops,
            "{nodes} nodes: {} vs {}",
            b.tflops,
            a.tflops
        );
    }
}

#[test]
fn ecm_model_agrees_with_custom_roofline_in_the_single_level_limit() {
    use kpm_repro::perfmodel::cachesim::TrafficReport;
    use kpm_repro::perfmodel::roofline::custom_roofline;
    // Build a traffic report equivalent to B = 2.23 B/F at 1 Gflop.
    let flops = 1_000_000_000u64;
    let bytes = (2.2318840579710146_f64 * flops as f64) as u64;
    let report = TrafficReport {
        level_bytes: vec![],
        memory_bytes: bytes,
    };
    let levels = levels_from_traffic(&IVB, &report, &[], &[]);
    let ecm = predict(IVB.peak_gflops, &levels, flops);
    let classic = custom_roofline(&IVB, 13.0, 1, 1.0);
    assert!((ecm.p_star - classic.p_mem).abs() < 0.1);
    assert_eq!(ecm.binding, "MEM");
}

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

#[test]
fn phi_outlook_prediction_is_llc_bound() {
    // The question the paper leaves open ("we still have to carry out
    // detailed model-driven performance engineering for [Xeon Phi]"):
    // the model answers that blocked KPM on KNC is LLC-bound.
    use kpm_repro::perfmodel::balance::min_code_balance;
    use kpm_repro::perfmodel::machine::PHI;
    use kpm_repro::perfmodel::roofline::{memory_bound, roofline_llc};
    let b32 = min_code_balance(13.0, 32);
    assert!(memory_bound(&PHI, b32) > PHI.llc_ceiling_gflops);
    assert_eq!(roofline_llc(&PHI, b32), PHI.llc_ceiling_gflops);
}

#[test]
fn domain_row_accounting() {
    let d = Domain {
        nx: 400,
        ny: 100,
        nz: 40,
    };
    assert_eq!(d.rows(), 6_400_000);
}
