//! Matrix assembly benchmarks: direct CRS assembly of the
//! topological-insulator Hamiltonian and COO round-trips.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use kpm_num::Complex64;
use kpm_sparse::CooMatrix;
use kpm_topo::TopoHamiltonian;

fn bench_assembly(c: &mut Criterion) {
    let mut g = c.benchmark_group("assembly");
    for (nx, ny, nz) in [(8usize, 8usize, 4usize), (16, 16, 8)] {
        let ham = TopoHamiltonian::clean(nx, ny, nz);
        let n = ham.dim();
        g.throughput(Throughput::Elements(n as u64));
        g.bench_function(BenchmarkId::new("hamiltonian", n), |b| {
            b.iter(|| ham.assemble())
        });
    }
    g.bench_function("coo_to_crs_10k_triplets", |b| {
        b.iter(|| {
            let mut coo = CooMatrix::new(1000, 1000);
            for i in 0..10_000usize {
                coo.push(i % 1000, (i * 7) % 1000, Complex64::real(i as f64));
            }
            coo.to_crs().unwrap()
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_assembly
}
criterion_main!(benches);
