//! Plain SpMV benchmarks on the topological-insulator matrix.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use kpm_num::{Complex64, Vector};
use kpm_sparse::SparseKernels;
use kpm_topo::TopoHamiltonian;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_spmv(c: &mut Criterion) {
    let h = TopoHamiltonian::clean(16, 16, 8).assemble();
    let n = h.nrows();
    let mut rng = StdRng::seed_from_u64(2);
    let x = Vector::random(n, &mut rng).into_vec();
    let mut y = vec![Complex64::default(); n];
    let bytes = (h.nnz() * 20 + 2 * n * 16) as u64;

    let mut g = c.benchmark_group("spmv");
    g.throughput(Throughput::Bytes(bytes));
    g.bench_function(BenchmarkId::new("crs", n), |b| {
        b.iter(|| h.spmv(&x, &mut y))
    });
    g.bench_function(BenchmarkId::new("crs_par", n), |b| {
        b.iter(|| h.spmv_par(&x, &mut y))
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15);
    targets = bench_spmv
}
criterion_main!(benches);
