//! Multiplexed sessions, measured: one session at a time against three in
//! flight on one worker, with and without injected executor latency.
//!
//! The in-process [`WebExecutor`] answers in microseconds, so the
//! zero-latency pair prices the multiplexer itself: the hop to each
//! executor's thread and the worker's idle poll. The interesting rows wrap
//! the executor in a [`LatencyExecutor`] (a fixed per-message delay, the
//! shape of a real browser or remote executor): a worker multiplexing
//! several sessions (`CheckOptions::multiplex`) steps whichever session
//! has replies while the others wait, so with N sessions in flight the
//! per-step latency amortizes toward `delay / N` instead of summing into
//! every step.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use quickstrom::prelude::*;
use quickstrom::quickstrom_apps::Counter;
use std::time::Duration;

/// A small fixed workload: enough runs for multiplexing to matter, short
/// enough that the latency-injected rows stay in benchmark budget.
fn options() -> CheckOptions {
    CheckOptions::default()
        .with_tests(6)
        .with_max_actions(15)
        .with_default_demand(20)
        .with_seed(7)
        .with_shrink(false)
}

fn check(options: &CheckOptions, delay: Duration) -> bool {
    let spec = quickstrom::specstrom::load(quickstrom::specs::COUNTER).expect("spec compiles");
    let report = check_spec(&spec, options, &move || {
        Box::new(LatencyExecutor::new(WebExecutor::new(Counter::new), delay))
    })
    .expect("no protocol errors");
    report.passed()
}

/// The zero-latency pair: prices the multiplexer's thread hop and poll
/// (one session at a time should win or tie).
fn bench_inprocess(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline_inprocess");
    let configs = [
        ("sequential", options()),
        ("multiplex3", options().with_multiplex(3)),
    ];
    for (label, options) in configs {
        group.bench_with_input(BenchmarkId::new(label, "0ms"), &options, |b, options| {
            b.iter(|| std::hint::black_box(check(options, Duration::ZERO)));
        });
    }
    group.finish();
}

/// The latency-injected rows: 1 ms per executor message, the regime
/// multiplexing is for. `multiplex 3` overlaps three sessions' delays on
/// one worker and should land near a third of the sequential row.
fn bench_latency_hiding(c: &mut Criterion) {
    let delay = Duration::from_millis(1);
    let mut group = c.benchmark_group("pipeline_latency");
    let configs = [
        ("sequential", options()),
        ("multiplex3", options().with_multiplex(3)),
    ];
    for (label, options) in configs {
        group.bench_with_input(BenchmarkId::new(label, "1ms"), &options, |b, options| {
            b.iter(|| std::hint::black_box(check(options, delay)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_inprocess, bench_latency_hiding);
criterion_main!(benches);
