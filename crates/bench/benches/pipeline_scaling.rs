//! Worker-count scaling of the parallel pipeline stages.
//!
//! Times feed collection and crawl/classification at 1, 2, 4 and 8
//! workers over one shared world. All four runs per stage produce
//! bit-identical output (enforced by the determinism tests); only the
//! wall-clock should move. On a single-core host the curve is flat —
//! the absolute numbers are only meaningful relative to
//! `available_parallelism`. The `taster bench-json` CLI command writes
//! the same measurements to `BENCH_pipeline.json`.

#![allow(clippy::unwrap_used, clippy::expect_used)]
#![allow(clippy::print_stdout, clippy::print_stderr)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use taster_analysis::classify::Classified;
use taster_bench::bench_scenario;
use taster_ecosystem::GroundTruth;
use taster_feeds::{collect_all, try_collect_all_observed};
use taster_mailsim::MailWorld;
use taster_sim::{FaultPlan, Obs, Parallelism};

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn collect_scaling(c: &mut Criterion) {
    let s = bench_scenario();
    let truth = GroundTruth::generate(&s.ecosystem, s.seed).unwrap();
    let world = MailWorld::build(truth, s.mail.clone()).unwrap();
    let plan = FaultPlan::off(s.seed);
    let mut group = c.benchmark_group("pipeline_scaling/collect_feeds");
    group.sample_size(10);
    for workers in WORKER_COUNTS {
        let par = Parallelism::fixed(workers);
        group.bench_with_input(BenchmarkId::from_parameter(workers), &par, |b, par| {
            b.iter(|| {
                let feeds = try_collect_all_observed(&world, &s.feeds, &plan, par, &Obs::off());
                black_box(feeds.unwrap())
            })
        });
    }
    group.finish();
}

fn classify_scaling(c: &mut Criterion) {
    let s = bench_scenario();
    let truth = GroundTruth::generate(&s.ecosystem, s.seed).unwrap();
    let world = MailWorld::build(truth, s.mail.clone()).unwrap();
    let feeds = collect_all(&world, &s.feeds);
    let mut group = c.benchmark_group("pipeline_scaling/crawl_classify");
    group.sample_size(10);
    for workers in WORKER_COUNTS {
        let par = Parallelism::fixed(workers);
        group.bench_with_input(BenchmarkId::from_parameter(workers), &par, |b, par| {
            b.iter(|| {
                black_box(Classified::build_with(
                    &world.truth,
                    &feeds,
                    s.classify,
                    par,
                ))
            })
        });
    }
    group.finish();
}

criterion_group!(pipeline_scaling, collect_scaling, classify_scaling);
criterion_main!(pipeline_scaling);
