//! The paper's central sweep: augmented SpMMV performance vs block
//! width R (the measured curve of Fig. 8), plus the fused vs separate
//! dot products ablation (Fig. 10 b vs c).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use kpm_num::BlockVector;
use kpm_sparse::SparseKernels;
use kpm_topo::TopoHamiltonian;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_sweep(c: &mut Criterion) {
    let h = TopoHamiltonian::clean(16, 16, 8).assemble();
    let n = h.nrows();
    let mut rng = StdRng::seed_from_u64(3);

    let mut g = c.benchmark_group("aug_spmmv_r_sweep");
    for r in [1usize, 2, 4, 8, 16, 32] {
        let v = BlockVector::random(n, r, &mut rng);
        let mut w = BlockVector::random(n, r, &mut rng);
        let flops = kpm_num::accounting::Sweep::Aug.flops(n, h.nnz(), r) as u64;
        g.throughput(Throughput::Elements(flops));
        g.bench_function(BenchmarkId::new("fused", r), |b| {
            b.iter(|| h.aug_spmmv(0.3, 0.1, &v, &mut w))
        });
        g.bench_function(BenchmarkId::new("fused_baseline_body", r), |b| {
            kpm_sparse::simd::set_cap(kpm_sparse::simd::Body::Baseline);
            b.iter(|| h.aug_spmmv(0.3, 0.1, &v, &mut w));
            kpm_sparse::simd::set_cap(kpm_sparse::simd::Body::Avx512);
        });
        g.bench_function(BenchmarkId::new("nodot_plus_separate_dots", r), |b| {
            b.iter(|| {
                h.aug_spmmv_nodot(0.3, 0.1, &v, &mut w);
                let even = v.columnwise_nrm2();
                let odd = w.columnwise_dot(&v);
                (even, odd)
            })
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(12);
    targets = bench_sweep
}
criterion_main!(benches);
