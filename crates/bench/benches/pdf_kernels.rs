//! Criterion benches for the numerical PDF kernels: the `O(QUALITY²)`
//! convolution of §3.2 and the `O(QUALITY³)` separable inter-die kernel,
//! over a range of discretizations — the run-time side of the paper's
//! QUALITY trade-off study.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use statim_core::correlation::LayerModel;
use statim_core::inter::inter_pdf;
use statim_process::{GateKind, Load, Technology, Variations};
use statim_stats::convolve::{sum_pdf_with, ConvolveBackend};
use statim_stats::gaussian::gaussian_pdf;
use statim_stats::Marginal;
use std::hint::black_box;

fn bench_convolution(c: &mut Criterion) {
    let mut group = c.benchmark_group("convolution");
    for &quality in &[50usize, 100, 200, 400] {
        let a = gaussian_pdf(0.0, 10.0, 6.0, quality);
        let b = gaussian_pdf(250.0, 25.0, 6.0, quality).resample(*a.grid());
        group.bench_with_input(
            BenchmarkId::from_parameter(quality),
            &quality,
            |bench, _| {
                bench.iter(|| {
                    sum_pdf_with(ConvolveBackend::Grid, black_box(&a), black_box(&b))
                        .expect("convolve")
                });
            },
        );
    }
    group.finish();
}

fn bench_convolution_backends(c: &mut Criterion) {
    // Grid (O(Q²) cell pairs) vs FFT (O(Q log Q) spectral) on identical
    // operands; `kernel_backends` records the same sweep into
    // BENCH_kernels.json.
    let mut group = c.benchmark_group("convolution_backend");
    for &quality in &[50usize, 100, 200, 400, 800] {
        let a = gaussian_pdf(0.0, 10.0, 6.0, quality);
        let b = gaussian_pdf(250.0, 25.0, 6.0, quality).resample(*a.grid());
        for backend in [ConvolveBackend::Grid, ConvolveBackend::Fft] {
            group.bench_with_input(
                BenchmarkId::new(backend.name(), quality),
                &backend,
                |bench, &backend| {
                    bench.iter(|| {
                        sum_pdf_with(backend, black_box(&a), black_box(&b)).expect("convolve")
                    });
                },
            );
        }
    }
    group.finish();
}

fn bench_inter_kernel(c: &mut Criterion) {
    let tech = Technology::cmos130();
    let vars = Variations::date05();
    let layers = LayerModel::date05();
    let one = tech.alpha_beta(GateKind::Nand(2), &Load::fanout(2));
    let ab = statim_process::tech::AlphaBeta {
        alpha: one.alpha * 20.0,
        beta: one.beta * 20.0,
    };
    // `inter_pdf` keeps its settings-only basis (marginals, W = tox·Leff,
    // the voltage tables) per thread, so past the first iteration this
    // group times a warm basis: the range pass, the Q³ binning and W·Z.
    let mut group = c.benchmark_group("inter_pdf_separable");
    group.sample_size(20);
    for &quality in &[25usize, 50, 80] {
        group.bench_with_input(
            BenchmarkId::from_parameter(quality),
            &quality,
            |bench, &q| {
                bench.iter(|| {
                    inter_pdf(black_box(&ab), &tech, &vars, &layers, Marginal::Gaussian, q)
                        .expect("inter")
                });
            },
        );
    }
    group.finish();
}

fn bench_direct_vs_separable(c: &mut Criterion) {
    // Ablation 2: the O(Q⁵) direct enumeration vs the O(Q³) separable
    // kernel at equal quality.
    let tech = Technology::cmos130();
    let vars = Variations::date05();
    let layers = LayerModel::date05();
    let one = tech.alpha_beta(GateKind::Nand(2), &Load::fanout(2));
    let ab = statim_process::tech::AlphaBeta {
        alpha: one.alpha * 20.0,
        beta: one.beta * 20.0,
    };
    let mut group = c.benchmark_group("inter_pdf_q14");
    group.sample_size(10);
    group.bench_function("separable", |bench| {
        bench.iter(|| {
            inter_pdf(
                black_box(&ab),
                &tech,
                &vars,
                &layers,
                Marginal::Gaussian,
                14,
            )
            .expect("sep")
        });
    });
    group.bench_function("direct", |bench| {
        bench.iter(|| {
            statim_core::inter::inter_pdf_direct(
                black_box(&ab),
                &tech,
                &vars,
                &layers,
                Marginal::Gaussian,
                14,
            )
            .expect("direct")
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_convolution,
    bench_convolution_backends,
    bench_inter_kernel,
    bench_direct_vs_separable
);
criterion_main!(benches);
