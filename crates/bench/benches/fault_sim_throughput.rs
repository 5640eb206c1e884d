//! Throughput of the fault-simulation kernel: seed-style baseline vs. the
//! shared-walk / bit-packed / early-exit / parallel sweep.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use bench::throughput::baseline_evaluate_coverage;
use march_test::address_order::WordLineAfterWordLine;
use march_test::coverage::{evaluate_coverage_interned_on_walk, SweepBackend, SweepOptions};
use march_test::executor::MarchWalk;
use march_test::fault_sim::DetectionMode;
use march_test::faults::standard_fault_list;
use march_test::library;
use sram_model::config::ArrayOrganization;

fn fault_sim_benches(c: &mut Criterion) {
    let organization = ArrayOrganization::new(32, 32).expect("valid organization");
    let faults = standard_fault_list(&organization);
    let mut group = c.benchmark_group("fault_sim_throughput");
    group.sample_size(10);

    for test in [library::mats_plus(), library::march_g()] {
        let walk = MarchWalk::new(&test, &WordLineAfterWordLine, &organization);
        group.bench_with_input(
            BenchmarkId::new("baseline_seed_style", test.name()),
            &test,
            |b, test| {
                b.iter(|| {
                    baseline_evaluate_coverage(test, &WordLineAfterWordLine, &organization, &faults)
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("kernel_serial_early_exit", test.name()),
            &walk,
            |b, walk| {
                b.iter(|| {
                    evaluate_coverage_interned_on_walk(
                        walk,
                        &faults,
                        SweepOptions {
                            background: false,
                            mode: DetectionMode::FirstMismatch,
                            parallel: false,
                            backend: SweepBackend::PerFault,
                        },
                    )
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("lane_batched_serial", test.name()),
            &walk,
            |b, walk| {
                b.iter(|| {
                    evaluate_coverage_interned_on_walk(
                        walk,
                        &faults,
                        SweepOptions {
                            background: false,
                            mode: DetectionMode::FirstMismatch,
                            parallel: false,
                            backend: SweepBackend::LaneBatched,
                        },
                    )
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("lane_batched_parallel", test.name()),
            &walk,
            |b, walk| {
                b.iter(|| evaluate_coverage_interned_on_walk(walk, &faults, SweepOptions::fast()))
            },
        );
    }
    group.finish();
}

criterion_group!(benches, fault_sim_benches);
criterion_main!(benches);
