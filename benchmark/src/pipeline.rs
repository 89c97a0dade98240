//! In-process replica of what `kpm dos` does between argument parsing
//! and the CSV, one span per layer call. The traced run compares its
//! sum against the real binary's wall time (`cli.residual_s`), and the
//! service workload uses the first half to get a matrix to register.

use kpm_core::dos::{reconstruct, DosCurve};
use kpm_core::kernels::Kernel;
use kpm_core::moments::MomentSet;
use kpm_core::solver::{kpm_moments, starting_vectors};
use kpm_core::{KpmParams, KpmVariant};
use kpm_sparse::KpmMatrix;
use kpm_topo::{ScaleFactors, TopoHamiltonian};

use crate::trace::{SpanId, Tracer};
use crate::workloads::Workload;

/// Energy samples of every reconstructed curve: `kpm dos`'s default.
pub const POINTS: usize = 1024;

/// A workload's matrix in its storage format, with the time each layer
/// took to produce it.
pub struct Built {
    pub matrix: KpmMatrix,
    pub sf: ScaleFactors,
    pub n: f64,
    pub nnz: f64,
    pub assemble_s: f64,
    pub scale_s: f64,
    pub format_s: f64,
}

/// Assembly, spectral bounds and format build, as `cmd_dos` orders
/// them: the CRS matrix is assembled and bounded even when the
/// matrix-free stencil then replaces it.
pub fn build(w: &Workload, tracer: &mut Tracer, parent: SpanId) -> Built {
    let (nx, ny, nz) = w.lattice;
    let (ham, h, assemble_s) = {
        let ((ham, h), s) = tracer.timed("topo.assemble", parent, || {
            let ham = TopoHamiltonian::clean(nx, ny, nz);
            let h = ham.assemble();
            (ham, h)
        });
        (ham, h, s)
    };
    let (n, nnz) = (h.nrows() as f64, h.nnz() as f64);
    let (sf, scale_s) = tracer.timed("topo.scale", parent, || {
        ScaleFactors::from_gershgorin(&h, 0.01)
    });
    let (matrix, format_s) = tracer.timed("sparse.format", parent, || {
        if w.stencil {
            KpmMatrix::stencil(ham.stencil_matrix())
        } else {
            KpmMatrix::crs(h)
        }
    });
    Built {
        matrix,
        sf,
        n,
        nnz,
        assemble_s,
        scale_s,
        format_s,
    }
}

pub fn params(w: &Workload, moments: usize, threads: usize, seed: u64) -> KpmParams {
    KpmParams {
        num_moments: moments,
        num_random: w.random,
        seed,
        parallel: true,
        threads,
        power: 1,
        first_touch: false,
    }
}

/// One timed `kpm_moments` call.
pub fn solve(
    built: &Built,
    params: &KpmParams,
    variant: KpmVariant,
    name: &str,
    tracer: &mut Tracer,
    parent: SpanId,
) -> Result<(MomentSet, f64), String> {
    let (moments, s) = tracer.timed(name, parent, || {
        kpm_moments(&built.matrix, built.sf, params, variant)
    });
    moments.map(|m| (m, s)).map_err(|e| format!("{name}: {e}"))
}

/// The starting vectors alone: the part of a solve that is serial in R.
pub fn startvec_s(built: &Built, params: &KpmParams, tracer: &mut Tracer, parent: SpanId) -> f64 {
    let (vectors, s) = tracer.timed("core.startvec", parent, || {
        starting_vectors(built.n as usize, params)
    });
    std::hint::black_box(vectors);
    s
}

pub fn reconstruct_curve(
    moments: &MomentSet,
    sf: ScaleFactors,
    tracer: &mut Tracer,
    parent: SpanId,
) -> (DosCurve, f64) {
    tracer.timed("core.reconstruct", parent, || {
        reconstruct(moments, Kernel::Jackson, sf, POINTS)
    })
}
