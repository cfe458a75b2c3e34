//! The evaluation harness: regenerates every table and figure of the
//! paper's evaluation (§4), plus the ablations from DESIGN.md.
//!
//! ```text
//! cargo run --release -p quickstrom-bench --bin evalharness -- table1 [--tests 100] [--jobs 4] [--json BENCH_table1.json] [--full-snapshots] [--strategy least-tried] [--atom-memo-capacity N] [--pipeline on|off] [--pipeline-depth N] [--multiplex M] [--progress] [--metrics] [--metrics-out metrics.prom]
//! cargo run --release -p quickstrom-bench --bin evalharness -- table2 [--jobs 4]
//! cargo run --release -p quickstrom-bench --bin evalharness -- obs-smoke [--trace-out trace.json] [--trace-timeline timeline.txt] [--metrics-out metrics.prom] [--explain-out explain.json]
//! cargo run --release -p quickstrom-bench --bin evalharness -- figure13 [--sessions 10] [--runs 3] [--csv fig13.csv]
//! cargo run --release -p quickstrom-bench --bin evalharness -- delta-compare [--tests 10] [--jobs 4] [--json BENCH_delta_compare.json]
//! cargo run --release -p quickstrom-bench --bin evalharness -- coverage-compare [--tests 30] [--jobs 4] [--json BENCH_coverage_compare.json]
//! cargo run --release -p quickstrom-bench --bin evalharness -- lint [--json lint.json] [--deny-warnings]
//! cargo run --release -p quickstrom-bench --bin evalharness -- ablation-rvltl
//! cargo run --release -p quickstrom-bench --bin evalharness -- ablation-simplify
//! cargo run --release -p quickstrom-bench --bin evalharness -- all [--jobs 4]
//! ```
//!
//! `--jobs N` fans the registry sweep out over N worker threads. Every
//! verdict, fault attribution and state count is identical for every N
//! (see DESIGN.md, *Parallel runtime*); only the timing columns vary —
//! per-entry wall times are measured under whatever contention the worker
//! count creates, so compare `wall_s` values only between runs with the
//! same `--jobs`. `--json PATH` writes the per-entry wall-time JSON used
//! for perf-trajectory tracking — since the incremental snapshot pipeline
//! it also carries per-entry transport accounting (bytes shipped, the
//! full-snapshot counterfactual, delta counts, changed selectors).
//! `--full-snapshots` runs the sweep over the pre-incremental protocol
//! (every message a complete snapshot); `delta-compare` runs both modes
//! on TodoMVC and the BigTable grid, asserts they agree bit-for-bit, and
//! writes a comparison JSON. `--strategy uniform|least-tried|novelty`
//! selects the action-selection strategy (see DESIGN.md, *Exploration
//! engine*); `coverage-compare` sweeps all three strategies over the
//! TodoMVC, BigTable and Wizard workloads at an equal step budget and
//! reports distinct-fingerprint coverage per strategy — under both the
//! spec-agnostic shape fingerprint and the spec-aware projection
//! fingerprint derived from the compiled spec's static analysis.
//! There is one evaluation path — the shared evaluation automaton stepped
//! through the value-keyed atom memo and the step memo (see DESIGN.md,
//! *Evaluation automata*) — so no flag selects an engine.
//! `--atom-memo-capacity N` bounds the atom memo's entry count (FIFO
//! eviction; the default 65,536 never evicts on the bundled sweep).
//! `--pipeline on|off` selects the session runtime (the two-stage
//! pipelined engine — the default — or the sequential engine; see
//! DESIGN.md, *Pipelined runtime*). Verdicts, state counts and atom
//! counters are identical in both modes (pinned by
//! `differential_pipeline`); the timing columns change — and under
//! pipelining `executor_s`/`eval_s` overlap, so they no longer sum to
//! `wall_s`.
//! `--pipeline-depth N` bounds the speculation window (states the
//! executor may run ahead of the evaluator); `--multiplex M` lets every
//! worker interleave M in-flight sessions to hide executor latency.
//! `--progress` keeps a single live line (done/running/ETA) on the
//! terminal during the sweep; it is silent when stdout is not a TTY, so
//! redirected logs stay clean. `--metrics` collects the observability
//! histograms (step latency, executor send latency, pipeline stalls,
//! memo probe depth) during the sweep and adds the p50/p95/p99 columns
//! to the JSON; `--metrics-out PATH` also writes the merged registry in
//! the Prometheus text exposition format (and implies `--metrics`).
//! `obs-smoke` checks a known-faulty registry implementation with
//! tracing and metrics fully enabled on the pipelined, multiplexed
//! runtime, asserts the artifacts are structurally sound — every span
//! track well-formed, driver/evaluator stages on separate tracks, the
//! failure explanation naming the injected fault's atom — and writes the
//! chrome://tracing JSON, the human-readable timeline, the Prometheus
//! metrics and the explanation JSON (the CI observability smoke).
//! `lint` runs the spec static analysis over every bundled specification
//! and prints its diagnostics (vacuous implications, tautological or
//! unsatisfiable properties, unused bindings/actions/selectors) with
//! source positions; `--deny-warnings` exits non-zero on any finding
//! (the CI smoke), `--json PATH` writes the machine-readable report.
//!
//! An unknown command or flag, a flag missing its value, or a number that
//! does not parse exits with code 2 before any work starts.

use quickstrom::prelude::*;
use quickstrom::quickstrom_apps::registry::{Maturity, REGISTRY};
use quickstrom::quickstrom_apps::MenuApp;
use quickstrom::quickstrom_obs::metrics::{SEND_LATENCY, STEP_LATENCY};
use quickstrom_bench::{
    check_entry_observed, fault_description, figure13_point, quantile_us, sweep_entries_mode,
    sweep_entries_observed, sweep_to_json, ImplResult, SnapshotMode,
};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{IsTerminal, Write as _};

/// Flags that take a value.
const VALUE_FLAGS: &[&str] = &[
    "--atom-memo-capacity",
    "--csv",
    "--explain-out",
    "--jobs",
    "--json",
    "--metrics-out",
    "--multiplex",
    "--pipeline",
    "--pipeline-depth",
    "--runs",
    "--sessions",
    "--strategy",
    "--tests",
    "--trace-out",
    "--trace-timeline",
];

/// Flags that stand alone.
const SWITCHES: &[&str] = &[
    "--deny-warnings",
    "--full-snapshots",
    "--metrics",
    "--progress",
];

/// Reports a command-line mistake and exits with code 2.
fn usage_error(message: &str) -> ! {
    eprintln!("evalharness: {message}");
    std::process::exit(2);
}

/// The flags after the command: values by flag name, and the switches
/// given. Parsing rejects anything it does not know.
#[derive(Default)]
struct Flags {
    values: BTreeMap<&'static str, String>,
    switches: Vec<&'static str>,
}

impl Flags {
    fn parse(tokens: &[String]) -> Flags {
        let mut flags = Flags::default();
        let mut tokens = tokens.iter();
        while let Some(token) = tokens.next() {
            if let Some(&name) = VALUE_FLAGS.iter().find(|f| **f == token) {
                match tokens.next() {
                    // The next token being another flag means the value is
                    // missing — `--json --jobs 4` must not write a file
                    // named `--jobs` after a multi-minute sweep.
                    Some(value) if !value.starts_with("--") => {
                        flags.values.insert(name, value.clone());
                    }
                    _ => usage_error(&format!("flag {name} requires a value")),
                }
            } else if let Some(&name) = SWITCHES.iter().find(|f| **f == token) {
                flags.switches.push(name);
            } else {
                usage_error(&format!("unknown argument {token:?}"));
            }
        }
        flags
    }

    fn value(&self, name: &str) -> Option<String> {
        self.values.get(name).cloned()
    }

    fn number(&self, name: &str) -> Option<usize> {
        self.values.get(name).map(|v| {
            v.parse().unwrap_or_else(|_| {
                usage_error(&format!(
                    "flag {name} expects a non-negative integer, got {v:?}"
                ))
            })
        })
    }

    fn switch(&self, name: &str) -> bool {
        self.switches.contains(&name)
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = args.first().map(String::as_str).unwrap_or("all");
    let flags = Flags::parse(args.get(1..).unwrap_or_default());
    let sessions = flags.number("--sessions").unwrap_or(10);
    let runs = flags.number("--runs").unwrap_or(3);
    let tests = flags.number("--tests").unwrap_or(100);
    let jobs = flags.number("--jobs").unwrap_or(1);
    let csv = flags.value("--csv");
    let json = flags.value("--json");
    let mode = if flags.switch("--full-snapshots") {
        SnapshotMode::Full
    } else {
        SnapshotMode::Delta
    };
    let strategy = match flags.value("--strategy") {
        Some(name) => SelectionStrategy::parse(&name).unwrap_or_else(|| {
            usage_error(&format!(
                "unknown strategy {name:?} (expected uniform, least-tried or novelty)"
            ))
        }),
        None => SelectionStrategy::default(),
    };
    let pipeline = match flags.value("--pipeline") {
        Some(name) => PipelineMode::parse(&name).unwrap_or_else(|| {
            usage_error(&format!(
                "unknown pipeline mode {name:?} (expected on or off)"
            ))
        }),
        None => PipelineMode::default(),
    };
    let atom_memo_capacity = flags.number("--atom-memo-capacity");
    let pipeline_depth = flags.number("--pipeline-depth");
    let multiplex = flags.number("--multiplex");
    let progress = flags.switch("--progress");
    let metrics = flags.switch("--metrics");
    let metrics_out = flags.value("--metrics-out");
    let trace_out = flags.value("--trace-out");
    let trace_timeline = flags.value("--trace-timeline");
    let explain_out = flags.value("--explain-out");
    let engine_options = move |options: CheckOptions| {
        let mut options = options.with_pipeline(pipeline);
        if let Some(capacity) = atom_memo_capacity {
            options = options.with_atom_memo_capacity(capacity);
        }
        if let Some(depth) = pipeline_depth {
            options = options.with_pipeline_depth(depth);
        }
        if let Some(m) = multiplex {
            options = options.with_multiplex(m);
        }
        options
    };

    match command {
        "table1" => {
            table1_and_2(
                tests,
                false,
                jobs,
                json.as_deref(),
                mode,
                strategy,
                &engine_options,
                progress,
                metrics,
                metrics_out.as_deref(),
            );
        }
        "table2" => {
            table1_and_2(
                tests,
                true,
                jobs,
                json.as_deref(),
                mode,
                strategy,
                &engine_options,
                progress,
                metrics,
                metrics_out.as_deref(),
            );
        }
        "obs-smoke" => obs_smoke(
            trace_out.as_deref(),
            trace_timeline.as_deref(),
            metrics_out.as_deref(),
            explain_out.as_deref(),
        ),
        "figure13" => figure13(sessions, runs, csv.as_deref()),
        "delta-compare" => delta_compare(tests, jobs, json.as_deref()),
        "coverage-compare" => coverage_compare(tests, jobs, json.as_deref()),
        "lint" => lint_specs(json.as_deref(), flags.switch("--deny-warnings")),
        "ablation-rvltl" => ablation_rvltl(),
        "ablation-simplify" => ablation_simplify(),
        "ablation-strategy" => ablation_strategy(),
        "all" => {
            table1_and_2(
                tests,
                true,
                jobs,
                json.as_deref(),
                mode,
                strategy,
                &engine_options,
                progress,
                metrics,
                metrics_out.as_deref(),
            );
            obs_smoke(None, None, None, None);
            figure13(sessions.min(3), runs, csv.as_deref());
            delta_compare(tests.min(10), jobs, None);
            coverage_compare(tests.min(30), jobs, None);
            lint_specs(None, false);
            ablation_rvltl();
            ablation_simplify();
            ablation_strategy();
        }
        other => {
            eprintln!("unknown command {other:?}");
            eprintln!(
                "commands: table1 table2 obs-smoke figure13 delta-compare \
                 coverage-compare lint ablation-rvltl ablation-simplify \
                 ablation-strategy all"
            );
            std::process::exit(2);
        }
    }
}

/// Runs the registry sweep and prints Table 1 (and optionally Table 2).
/// `engine_options` applies the `--atom-memo-capacity` / `--pipeline` /
/// `--pipeline-depth` / `--multiplex` flags on top of the base options.
#[allow(clippy::fn_params_excessive_bools, clippy::too_many_arguments)]
fn table1_and_2(
    tests: usize,
    with_table2: bool,
    jobs: usize,
    json: Option<&str>,
    mode: SnapshotMode,
    strategy: SelectionStrategy,
    engine_options: &dyn Fn(CheckOptions) -> CheckOptions,
    progress: bool,
    metrics: bool,
    metrics_out: Option<&str>,
) {
    println!("═══ Table 1: Summary of Results (TodoMVC registry sweep) ═══");
    println!(
        "    ({} implementations, {} runs each, subscript 100 — the paper's default, {} job(s), {} snapshots, {} strategy)",
        REGISTRY.len(),
        tests,
        jobs.max(1),
        match mode {
            SnapshotMode::Delta => "incremental",
            SnapshotMode::Full => "full",
        },
        strategy,
    );
    let options = engine_options(
        CheckOptions::default()
            .with_tests(tests)
            .with_max_actions(120)
            .with_default_demand(100)
            .with_seed(20220322) // the paper's arXiv date
            .with_shrink(false)
            .with_strategy(strategy),
    );
    println!(
        "    (pipeline {}, depth {}, multiplex {}, atom memo capacity {})",
        options.pipeline, options.pipeline_depth, options.multiplex, options.atom_memo_capacity
    );
    let print_line = |result: &ImplResult| {
        println!(
            "  {:>22}  {}  ({:5.2}s, {} states){}",
            result.name,
            if result.passed { "passed" } else { "FAILED" },
            result.wall_s,
            result.states,
            if result.agrees_with_paper() {
                ""
            } else {
                "  ⚠ disagrees with Table 1"
            }
        );
    };
    let started = std::time::Instant::now();
    let entries: Vec<&'static quickstrom::quickstrom_apps::registry::Entry> =
        REGISTRY.iter().collect();
    let obs = if metrics || metrics_out.is_some() {
        ObsOptions {
            tracing: None,
            metrics: true,
        }
    } else {
        ObsOptions::disabled()
    };
    // The live progress line needs a terminal: carriage-return rewrites
    // are noise in a redirected log, so a non-TTY stdout silences it.
    let live = progress && std::io::stdout().is_terminal();
    let total = entries.len();
    let finished = std::sync::atomic::AtomicUsize::new(0);
    let on_done = |_: usize, result: &ImplResult| {
        let done = finished.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
        if live {
            let elapsed = started.elapsed().as_secs_f64();
            #[allow(clippy::cast_precision_loss)]
            let eta = elapsed / done as f64 * (total - done) as f64;
            print!(
                "\r  [{done:>2}/{total}] {:<22} done  ({elapsed:5.1}s elapsed, ~{eta:.0}s left)   ",
                result.name
            );
            let _ = std::io::stdout().flush();
        } else if jobs <= 1 {
            // Sequential, no live line: stream each entry's line as it
            // completes, so the multi-minute default sweep shows progress.
            print_line(result);
        }
    };
    let results: Vec<ImplResult> =
        sweep_entries_observed(&entries, &options, jobs.max(1), mode, &obs, Some(&on_done))
            .into_iter()
            .map(|(result, _)| result)
            .collect();
    if live {
        print!("\r{:78}\r", "");
    }
    if live || jobs > 1 {
        // Entries finished out of order (pool) or behind the progress
        // line; print the canonical registry-order listing now.
        results.iter().for_each(&print_line);
    }

    let maturity = |name: &str| {
        REGISTRY
            .iter()
            .find(|e| e.name == name)
            .map(|e| e.maturity)
            .expect("registry name")
    };
    let passed: Vec<&ImplResult> = results.iter().filter(|r| r.passed).collect();
    let failed: Vec<&ImplResult> = results.iter().filter(|r| !r.passed).collect();
    let count_beta = |rs: &[&ImplResult]| {
        rs.iter()
            .filter(|r| maturity(r.name) == Maturity::Beta)
            .count()
    };

    let render = |rs: &[&ImplResult]| {
        let mut line = String::new();
        for (i, r) in rs.iter().enumerate() {
            if i > 0 {
                line.push_str(", ");
            }
            line.push_str(r.name);
            if !r.fault_numbers.is_empty() && !r.passed {
                let nums: Vec<String> = r.fault_numbers.iter().map(ToString::to_string).collect();
                let _ = write!(line, "^{}", nums.join(","));
            }
        }
        line
    };

    println!();
    println!(
        "Passed — {} ({} beta, {} mature)",
        passed.len(),
        count_beta(&passed),
        passed.len() - count_beta(&passed)
    );
    println!("  {}", render(&passed));
    println!(
        "Failed — {} ({} beta, {} mature)",
        failed.len(),
        count_beta(&failed),
        failed.len() - count_beta(&failed)
    );
    println!("  {}", render(&failed));
    let agreement = results.iter().filter(|r| r.agrees_with_paper()).count();
    println!(
        "agreement with the paper's Table 1: {agreement}/{} ({:.1}s total)",
        results.len(),
        started.elapsed().as_secs_f64()
    );
    println!("paper: Passed — 23 (9 beta, 14 mature); Failed — 20 (8 beta, 12 mature)");
    let mut transport = TransportStats::default();
    for r in &results {
        transport.absorb(r.transport);
    }
    println!(
        "snapshot transport: {} bytes shipped vs {} full-snapshot bytes \
         (ratio {:.3}, {} deltas, {} changed selectors)",
        transport.shipped_bytes,
        transport.full_bytes,
        transport.delta_ratio(),
        transport.delta_states,
        transport.changed_selectors
    );
    let mut coverage = CoverageStats::default();
    for r in &results {
        coverage.absorb(r.coverage);
    }
    println!(
        "state coverage: {} distinct fingerprints, {} transitions \
         (summed per entry; strategy {})",
        coverage.distinct_states, coverage.distinct_edges, strategy
    );
    let atoms_total: u64 = results.iter().map(|r| r.atoms_total).sum();
    let atoms_reevaluated: u64 = results.iter().map(|r| r.atoms_reevaluated).sum();
    #[allow(clippy::cast_precision_loss)]
    let reeval_pct = 100.0 * atoms_reevaluated as f64 / (atoms_total.max(1)) as f64;
    println!(
        "atom evaluation: {atoms_reevaluated} of {atoms_total} requested expansions \
         re-evaluated ({reeval_pct:.1}%; the rest served from the expansion cache)"
    );
    let memo_hits: u64 = results.iter().map(|r| r.atom_memo_hits).sum();
    let memo_misses: u64 = results.iter().map(|r| r.atom_memo_misses).sum();
    let memo_evictions: u64 = results.iter().map(|r| r.atom_memo_evictions).sum();
    #[allow(clippy::cast_precision_loss)]
    let hit_pct = 100.0 * memo_hits as f64 / (memo_hits + memo_misses).max(1) as f64;
    println!(
        "expansion memo: {memo_hits} hits, {memo_misses} misses \
         ({hit_pct:.1}% hit rate, {memo_evictions} evictions; value-keyed, \
         shared per property)"
    );
    let ltl_states = results.iter().map(|r| r.ltl_states).max().unwrap_or(0);
    let ltl_table_hits: u64 = results.iter().map(|r| r.ltl_table_hits).sum();
    let step_memo_hits: u64 = results.iter().map(|r| r.step_memo_hits).sum();
    println!(
        "evaluation automaton: {ltl_states} residual state(s) interned, \
         {ltl_table_hits} progression steps answered by table lookup, \
         {step_memo_hits} answered wholesale by the step memo"
    );
    if obs.metrics {
        let mut merged = MetricsRegistry::new();
        for r in &results {
            merged.merge(&r.metrics);
        }
        let us = |histogram: &str, q: f64| {
            quantile_us(&merged, histogram, q)
                .map_or_else(|| "n/a".to_owned(), |v| format!("{v:.1}"))
        };
        println!(
            "latency quantiles: step p50/p95/p99 {}/{}/{} µs, \
             send p50/p95/p99 {}/{}/{} µs",
            us(STEP_LATENCY, 0.50),
            us(STEP_LATENCY, 0.95),
            us(STEP_LATENCY, 0.99),
            us(SEND_LATENCY, 0.50),
            us(SEND_LATENCY, 0.95),
            us(SEND_LATENCY, 0.99),
        );
        if let Some(path) = metrics_out {
            std::fs::write(path, merged.to_prometheus("quickstrom_")).expect("write metrics");
            println!("wrote {path}");
        }
    }

    if let Some(path) = json {
        let doc = sweep_to_json(&results, jobs.max(1), started.elapsed().as_secs_f64());
        std::fs::write(path, doc).expect("write JSON");
        println!("wrote {path}");
    }

    if with_table2 {
        println!();
        println!("═══ Table 2: Problems found in TodoMVC implementations ═══");
        let mut counts: BTreeMap<u8, usize> = BTreeMap::new();
        for r in &failed {
            for n in &r.fault_numbers {
                *counts.entry(*n).or_default() += 1;
            }
        }
        println!("   #  {:<72} Count", "Description");
        for n in 1..=14u8 {
            let count = counts.get(&n).copied().unwrap_or(0);
            println!("  {:>2}  {:<72} {}", n, fault_description(n), count);
        }
        println!(
            "paper row counts: 1,2,1,1,1,1,4,2,1,1,1,1,2,1 (problem 4 is 2 here; see\n\
             DESIGN.md on reconciling Table 1's superscripts with Table 2's counts)"
        );
    }
}

/// The observability smoke: checks a known-faulty registry entry (the
/// `angular2_es2015` build, whose injected fault removes the completion
/// checkboxes the `checkboxInv` property reads through `.toggle`) with
/// tracing and metrics fully enabled on the pipelined, multiplexed
/// runtime. Asserts the artifacts are structurally sound — every span
/// track well-formed with nothing dropped, driver/evaluator stages on
/// separate tracks, the failure explanation naming the faulty atom — then
/// writes the requested outputs. Any violated invariant panics, so CI can
/// run this as a hard gate.
fn obs_smoke(
    trace_out: Option<&str>,
    timeline_out: Option<&str>,
    metrics_out: Option<&str>,
    explain_out: Option<&str>,
) {
    use quickstrom::quickstrom_apps::registry;
    use quickstrom::quickstrom_obs::{chrome_trace_json, render_timeline};

    println!("═══ Observability smoke: faulty TodoMVC under full tracing ═══");
    let entry = registry::by_name("angular2_es2015").expect("registry name");
    let options = CheckOptions::default()
        .with_tests(20)
        .with_max_actions(60)
        .with_default_demand(50)
        .with_seed(20220322)
        .with_jobs(2)
        .with_multiplex(3);
    let obs = ObsOptions::all();
    let (result, artifacts) = check_entry_observed(entry, &options, SnapshotMode::Delta, &obs);
    assert!(!result.passed, "the injected fault must be found");

    // The pipelined stages must land on separate tracks, every track must
    // nest properly, and the ring buffers must not have overflowed.
    let tracks = &artifacts.trace.tracks;
    assert!(
        tracks.iter().any(|t| t.name.contains("driver")),
        "driver track missing"
    );
    assert!(
        tracks.iter().any(|t| t.name.contains("evaluator")),
        "evaluator track missing"
    );
    assert!(
        tracks.iter().any(|t| t.name.contains("shrink")),
        "shrink track missing"
    );
    for track in tracks {
        track
            .check_well_formed()
            .unwrap_or_else(|e| panic!("track {:?}: {e}", track.name));
        assert_eq!(track.dropped, 0, "track {:?} overflowed", track.name);
    }
    println!(
        "  trace: {} tracks, {} events, all well-formed",
        tracks.len(),
        artifacts.trace.event_count()
    );

    // The explanation must blame the atom the fault actually breaks: the
    // checkbox invariant reads the implementation through `.toggle`.
    let explanation = artifacts
        .explanations
        .first()
        .expect("a failure explanation");
    let names_toggle =
        explanation.steps.iter().flat_map(|s| &s.flips).any(|f| {
            f.atom.contains(".toggle") || f.selectors.iter().any(|s| s.contains(".toggle"))
        });
    assert!(
        names_toggle,
        "explanation must name the `.toggle` atom:\n{explanation}"
    );
    assert!(
        explanation.failed_at_step.is_some(),
        "explanation must locate the step where the residual became False"
    );
    let step_count = artifacts
        .metrics
        .histograms
        .get(STEP_LATENCY)
        .map_or(0, |h| h.count);
    assert!(step_count > 0, "step-latency histogram must be populated");
    println!();
    println!("{explanation}");

    if let Some(path) = trace_out {
        std::fs::write(path, chrome_trace_json(&artifacts.trace)).expect("write trace");
        println!("wrote {path}");
    }
    if let Some(path) = timeline_out {
        std::fs::write(path, render_timeline(&artifacts.trace)).expect("write timeline");
        println!("wrote {path}");
    }
    if let Some(path) = metrics_out {
        std::fs::write(path, artifacts.metrics.to_prometheus("quickstrom_"))
            .expect("write metrics");
        println!("wrote {path}");
    }
    if let Some(path) = explain_out {
        let mut doc = String::from("[\n");
        for (i, e) in artifacts.explanations.iter().enumerate() {
            doc.push_str(&e.to_json());
            doc.push_str(if i + 1 < artifacts.explanations.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        doc.push_str("]\n");
        std::fs::write(path, doc).expect("write explanations");
        println!("wrote {path}");
    }
}

/// Runs TodoMVC (the whole registry) and the BigTable grid in both
/// snapshot modes, asserts the reports agree bit-for-bit, and reports the
/// wall-time and bytes-shipped comparison.
fn delta_compare(tests: usize, jobs: usize, json: Option<&str>) {
    use quickstrom::quickstrom_apps::BigTable;
    use std::fmt::Write as _;

    println!("═══ Delta vs full-snapshot comparison ═══");
    let options = CheckOptions::default()
        .with_tests(tests)
        .with_max_actions(120)
        .with_default_demand(100)
        .with_seed(20220322)
        .with_shrink(false);

    // TodoMVC: the whole 43-entry registry, both modes.
    let entries: Vec<&'static quickstrom::quickstrom_apps::registry::Entry> =
        REGISTRY.iter().collect();
    let run_sweep = |mode: SnapshotMode| {
        let started = std::time::Instant::now();
        let results = sweep_entries_mode(&entries, &options, jobs.max(1), mode);
        (results, started.elapsed().as_secs_f64())
    };
    let (delta_results, delta_wall) = run_sweep(SnapshotMode::Delta);
    let (full_results, full_wall) = run_sweep(SnapshotMode::Full);
    for (d, f) in delta_results.iter().zip(&full_results) {
        assert_eq!(
            (d.name, d.passed, d.states),
            (f.name, f.passed, f.states),
            "delta mode must be bit-identical to full mode"
        );
    }
    let sum = |rs: &[ImplResult], f: &dyn Fn(&ImplResult) -> u64| rs.iter().map(f).sum::<u64>();
    let delta_shipped = sum(&delta_results, &|r| r.transport.shipped_bytes);
    let full_shipped = sum(&full_results, &|r| r.transport.shipped_bytes);
    println!(
        "  TodoMVC registry ({} entries, {} runs each): verdicts and state counts identical",
        entries.len(),
        tests
    );
    println!("    wall: delta {delta_wall:.2}s vs full {full_wall:.2}s");
    println!("    bytes shipped: delta {delta_shipped} vs full {full_shipped}");

    // BigTable: the large-DOM grid, both modes.
    let bt_spec =
        quickstrom::specstrom::load(quickstrom::specs::BIGTABLE).expect("bundled spec compiles");
    let bt_options = CheckOptions::default()
        .with_tests(tests)
        .with_max_actions(25)
        .with_default_demand(20)
        .with_seed(2026)
        .with_shrink(false)
        .with_jobs(jobs.max(1));
    let run_bt = |mode: SnapshotMode| {
        let config = mode.config();
        let started = std::time::Instant::now();
        let report = check_spec(&bt_spec, &bt_options, &move || {
            Box::new(WebExecutor::with_config(
                || BigTable::with_rows(250),
                config.clone(),
            ))
        })
        .expect("no protocol errors");
        (report, started.elapsed().as_secs_f64())
    };
    let (bt_delta, bt_delta_wall) = run_bt(SnapshotMode::Delta);
    let (bt_full, bt_full_wall) = run_bt(SnapshotMode::Full);
    assert_eq!(bt_delta, bt_full, "bigtable reports must be identical");
    let bt_delta_t = bt_delta.transport();
    let bt_full_t = bt_full.transport();
    println!("  BigTable (250 rows, {tests} runs): reports identical");
    println!("    wall: delta {bt_delta_wall:.2}s vs full {bt_full_wall:.2}s");
    println!(
        "    bytes shipped: delta {} vs full {} (ratio {:.3})",
        bt_delta_t.shipped_bytes,
        bt_full_t.shipped_bytes,
        bt_delta_t.delta_ratio()
    );

    if let Some(path) = json {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"benchmark\": \"delta_vs_full\",");
        let _ = writeln!(out, "  \"tests\": {tests},");
        let _ = writeln!(out, "  \"jobs\": {},", jobs.max(1));
        let _ = writeln!(out, "  \"workloads\": {{");
        let _ = writeln!(
            out,
            "    \"todomvc_registry\": {{\"identical\": true, \
             \"delta_wall_s\": {delta_wall:.4}, \"full_wall_s\": {full_wall:.4}, \
             \"delta_shipped_bytes\": {delta_shipped}, \
             \"full_shipped_bytes\": {full_shipped}}},"
        );
        let _ = writeln!(
            out,
            "    \"bigtable\": {{\"identical\": true, \
             \"delta_wall_s\": {bt_delta_wall:.4}, \"full_wall_s\": {bt_full_wall:.4}, \
             \"delta_shipped_bytes\": {}, \"full_shipped_bytes\": {}, \
             \"delta_ratio\": {:.4}}}",
            bt_delta_t.shipped_bytes,
            bt_full_t.shipped_bytes,
            bt_delta_t.delta_ratio()
        );
        let _ = writeln!(out, "  }}");
        out.push_str("}\n");
        std::fs::write(path, out).expect("write JSON");
        println!("wrote {path}");
    }
}

/// The coverage comparison: every strategy over the TodoMVC, BigTable
/// and Wizard workloads at an equal step budget, aggregated over a few
/// seeds. Reports distinct state fingerprints (the headline), distinct
/// transitions, and corpus usage, and writes the comparison JSON the CI
/// smoke uploads as `BENCH_coverage_compare.json`.
fn coverage_compare(tests: usize, jobs: usize, json: Option<&str>) {
    use quickstrom::quickstrom_apps::{BigTable, TodoMvc, Wizard};

    println!("═══ Coverage comparison: uniform vs least-tried vs novelty ═══");
    println!(
        "    ({tests} runs × 40 actions per seed, seeds 11/7/2026, equal budget \
         for every strategy)"
    );
    const SEEDS: [u64; 3] = [11, 7, 2026];
    struct Workload {
        name: &'static str,
        source: &'static str,
        factory: &'static (dyn Fn() -> Box<dyn Executor> + Sync),
    }
    let workloads = [
        Workload {
            name: "todomvc",
            source: quickstrom::specs::TODOMVC,
            factory: &|| Box::new(WebExecutor::new(TodoMvc::correct)),
        },
        Workload {
            name: "bigtable",
            source: quickstrom::specs::BIGTABLE,
            factory: &|| Box::new(WebExecutor::new(|| BigTable::with_rows(250))),
        },
        Workload {
            name: "wizard",
            source: quickstrom::specs::WIZARD,
            factory: &|| Box::new(WebExecutor::new(Wizard::new)),
        },
    ];

    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"benchmark\": \"coverage_compare\",");
    let _ = writeln!(out, "  \"tests\": {tests},");
    let _ = writeln!(out, "  \"max_actions\": 40,");
    let _ = writeln!(out, "  \"seeds\": [11, 7, 2026],");
    let _ = writeln!(out, "  \"workloads\": {{");
    println!(
        "  {:>9}  {:>12}  {:>16}  {:>12}  {:>14}",
        "workload", "strategy", "distinct states", "transitions", "corpus replays"
    );
    for (w_index, workload) in workloads.iter().enumerate() {
        let spec = quickstrom::specstrom::load(workload.source).expect("bundled spec compiles");
        let run_total = |strategy: SelectionStrategy, fingerprint: FingerprintMode| {
            let mut total = CoverageStats::default();
            for seed in SEEDS {
                let options = CheckOptions::default()
                    .with_tests(tests)
                    .with_max_actions(40)
                    .with_default_demand(30)
                    .with_seed(seed)
                    .with_shrink(false)
                    .with_strategy(strategy)
                    .with_fingerprint(fingerprint)
                    .with_jobs(jobs.max(1));
                let report =
                    check_spec(&spec, &options, workload.factory).expect("no protocol errors");
                assert!(
                    report.passed(),
                    "{}: correct workload flagged under {strategy}: {report}",
                    workload.name
                );
                total.absorb(report.coverage());
            }
            total
        };
        let mut per_strategy = Vec::new();
        for strategy in SelectionStrategy::ALL {
            let total = run_total(strategy, FingerprintMode::Shape);
            println!(
                "  {:>9}  {:>12}  {:>16}  {:>12}  {:>14}",
                workload.name,
                strategy.name(),
                total.distinct_states,
                total.distinct_edges,
                total.corpus_replays
            );
            per_strategy.push((strategy, total));
        }
        // The spec-aware fingerprint column: the same uniform-vs-novelty
        // comparison, but with both the novelty signal and the coverage
        // accounting using the projection hash derived from the compiled
        // spec's static analysis (exact texts on atom-read fields,
        // nothing else) — the abstraction the properties actually
        // distinguish states by.
        let spec_uniform = run_total(SelectionStrategy::UniformRandom, FingerprintMode::SpecAware);
        let spec_novelty = run_total(SelectionStrategy::Novelty, FingerprintMode::SpecAware);
        for (label, total) in [
            ("uniform/spec", &spec_uniform),
            ("novelty/spec", &spec_novelty),
        ] {
            println!(
                "  {:>9}  {:>12}  {:>16}  {:>12}  {:>14}",
                workload.name,
                label,
                total.distinct_states,
                total.distinct_edges,
                total.corpus_replays
            );
        }
        let uniform = per_strategy[0].1.distinct_states;
        let novelty = per_strategy[2].1.distinct_states;
        #[allow(clippy::cast_precision_loss)]
        let gain = novelty as f64 / uniform.max(1) as f64;
        #[allow(clippy::cast_precision_loss)]
        let spec_gain =
            spec_novelty.distinct_states as f64 / spec_uniform.distinct_states.max(1) as f64;
        println!(
            "  {:>9}  novelty reaches {gain:.2}× the distinct fingerprints of uniform \
             (shape), {spec_gain:.2}× (spec-aware)",
            workload.name
        );
        let _ = writeln!(out, "    \"{}\": {{", workload.name);
        for (strategy, total) in &per_strategy {
            let _ = writeln!(
                out,
                "      \"{}\": {{\"distinct_states\": {}, \"distinct_edges\": {}, \
                 \"corpus_size\": {}, \"corpus_replays\": {}}},",
                strategy.name(),
                total.distinct_states,
                total.distinct_edges,
                total.corpus_size,
                total.corpus_replays,
            );
        }
        for (key, total) in [
            ("uniform_spec_aware", &spec_uniform),
            ("novelty_spec_aware", &spec_novelty),
        ] {
            let _ = writeln!(
                out,
                "      \"{key}\": {{\"distinct_states\": {}, \"distinct_edges\": {}, \
                 \"corpus_size\": {}, \"corpus_replays\": {}}},",
                total.distinct_states,
                total.distinct_edges,
                total.corpus_size,
                total.corpus_replays,
            );
        }
        let _ = writeln!(
            out,
            "      \"novelty_over_uniform\": {gain:.4},\n      \
             \"spec_novelty_over_uniform\": {spec_gain:.4}\n    }}{}",
            if w_index + 1 < workloads.len() {
                ","
            } else {
                ""
            }
        );
    }
    let _ = writeln!(out, "  }}");
    out.push_str("}\n");
    println!(
        "reading: at the same budget, coverage-guided selection with corpus \
         replay-then-extend visits more distinct application states — the \
         exploration-engine headline (DESIGN.md, *Exploration engine*)."
    );
    if let Some(path) = json {
        std::fs::write(path, out).expect("write JSON");
        println!("wrote {path}");
    }
}

/// Escapes a string for embedding in a JSON document.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Runs the spec static analysis over every bundled specification and
/// reports its diagnostics with `file:line:col` positions. With
/// `deny_warnings` any finding makes the process exit non-zero — the CI
/// lint smoke. With `json` a machine-readable report is written.
fn lint_specs(json: Option<&str>, deny_warnings: bool) {
    use quickstrom::specstrom::{compile, line_col, parse_spec};

    println!("═══ Spec lint: static analysis diagnostics over the bundled specs ═══");
    let bundled = [
        ("specs/todomvc.strom", quickstrom::specs::TODOMVC),
        ("specs/egg_timer.strom", quickstrom::specs::EGG_TIMER),
        ("specs/counter.strom", quickstrom::specs::COUNTER),
        ("specs/menu.strom", quickstrom::specs::MENU),
        ("specs/bigtable.strom", quickstrom::specs::BIGTABLE),
        ("specs/wizard.strom", quickstrom::specs::WIZARD),
    ];
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"benchmark\": \"lint\",");
    let _ = writeln!(out, "  \"specs\": {{");
    let mut total = 0usize;
    for (i, (path, source)) in bundled.iter().enumerate() {
        let spec = parse_spec(source).expect("bundled spec parses");
        let compiled = compile(&spec).expect("bundled spec compiles");
        let diagnostics = quickstrom::specstrom::lint(&spec, &compiled);
        let _ = writeln!(out, "    \"{path}\": [");
        for (j, d) in diagnostics.iter().enumerate() {
            let (line, col) = line_col(source, d.span.start);
            println!("  {path}:{line}:{col}: warning[{}]: {}", d.code, d.message);
            let _ = writeln!(
                out,
                "      {{\"code\": \"{}\", \"line\": {line}, \"col\": {col}, \
                 \"message\": \"{}\"}}{}",
                d.code,
                json_escape(&d.message),
                if j + 1 < diagnostics.len() { "," } else { "" }
            );
        }
        let _ = writeln!(out, "    ]{}", if i + 1 < bundled.len() { "," } else { "" });
        total += diagnostics.len();
    }
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"total\": {total}");
    out.push_str("}\n");
    println!(
        "  {total} diagnostic(s) across {} bundled spec(s)",
        bundled.len()
    );
    if let Some(path) = json {
        std::fs::write(path, out).expect("write JSON");
        println!("wrote {path}");
    }
    if deny_warnings && total > 0 {
        eprintln!("--deny-warnings: failing on {total} diagnostic(s)");
        std::process::exit(1);
    }
}

/// The Figure 13 sweep: false-negative rate and running time vs subscript.
fn figure13(sessions: usize, runs: usize, csv: Option<&str>) {
    println!("═══ Figure 13: false negative rate and running time vs subscript ═══");
    println!("    ({sessions} sessions × {runs} runs per faulty implementation and subscript)");
    let subscripts = [10u32, 25, 50, 100, 200, 300, 400, 500];
    println!(
        "  {:>9}  {:>14}  {:>16}  {:>18}",
        "subscript", "false neg (%)", "passing wall (s)", "passing virt (ms)"
    );
    let mut rows = String::from("subscript,false_negative_pct,passing_wall_s,passing_virtual_ms\n");
    for &n in &subscripts {
        let point = figure13_point(n, sessions, runs);
        println!(
            "  {:>9}  {:>14.1}  {:>16.3}  {:>18.0}",
            point.subscript,
            point.false_negative_pct,
            point.passing_wall_s,
            point.passing_virtual_ms
        );
        let _ = writeln!(
            rows,
            "{},{:.2},{:.4},{:.0}",
            point.subscript,
            point.false_negative_pct,
            point.passing_wall_s,
            point.passing_virtual_ms
        );
    }
    println!(
        "expected shape (paper): time grows linearly with the subscript; accuracy\n\
         improves steeply up to ~100 and logarithmically after (diminishing returns)."
    );
    if let Some(path) = csv {
        std::fs::write(path, rows).expect("write CSV");
        println!("wrote {path}");
    }
}

/// Ablation A2: RV-LTL (all demands zero) vs QuickLTL demands on the §2.1
/// menu example — spurious counterexample rate on a *correct* application.
fn ablation_rvltl() {
    println!("═══ Ablation A2: RV-LTL (demand 0) vs QuickLTL demands ═══");
    println!("    (correct menu app; any reported failure is spurious)");
    let spec_with = |always_d: u32, event_d: u32| {
        format!(
            "let ~menuEnabled = `#menu`.enabled;\n\
             action open! = click!(`#menu`) when menuEnabled;\n\
             action wait! = noop! timeout 600;\n\
             action woke? = changed?(`#menu`);\n\
             let ~p = always[{always_d}] eventually[{event_d}] menuEnabled;\n\
             check p;"
        )
    };
    println!(
        "  {:>22}  {:>22}  {:>12}",
        "always subscript", "eventually subscript", "spurious (%)"
    );
    for (always_d, event_d) in [(0u32, 0u32), (10, 0), (0, 4), (10, 4), (30, 4)] {
        let source = spec_with(always_d, event_d);
        let spec = quickstrom::specstrom::load(&source).expect("spec compiles");
        let mut spurious = 0usize;
        let total = 40usize;
        for seed in 0..total {
            let report = check_spec(
                &spec,
                &CheckOptions::default()
                    .with_tests(2)
                    .with_max_actions(6)
                    .with_default_demand(0)
                    .with_seed(seed as u64)
                    .with_shrink(false),
                &|| Box::new(WebExecutor::new(|| MenuApp::new(500))),
            )
            .expect("no protocol errors");
            if !report.passed() {
                spurious += 1;
            }
        }
        #[allow(clippy::cast_precision_loss)]
        let pct = 100.0 * spurious as f64 / total as f64;
        println!("  {always_d:>22}  {event_d:>22}  {pct:>12.1}");
    }
    println!(
        "expected shape: demand 0 (RV-LTL) flags the correct app whenever a trace\n\
         ends inside the busy window; the eventually-demand eliminates this."
    );
}

/// Ablation A1: formula-size growth with and without the idempotence dedup
/// of the simplifier (the Roşu–Havelund blow-up of §2.3).
fn ablation_simplify() {
    use quickstrom::quickltl::{Evaluator, Formula, SimplifyMode};
    println!("═══ Ablation A1: simplification vs formula growth (§2.3) ═══");
    // □₀ (p → ◇₀ (q ∧ ◇₀ r)) over a trace where p holds but q, r never do:
    // every state spawns a new eventuality; without dedup they accumulate.
    let formula = Formula::always(
        0u32,
        Formula::atom('p').implies(Formula::eventually(
            0u32,
            Formula::atom('q').and(Formula::eventually(0u32, Formula::atom('r'))),
        )),
    );
    println!(
        "  {:>6}  {:>18}  {:>18}",
        "steps", "size (full)", "size (no dedup)"
    );
    for steps in [10usize, 50, 100, 200, 400] {
        let mut sizes = Vec::new();
        for mode in [SimplifyMode::Full, SimplifyMode::NoDedup] {
            let mut ev = Evaluator::with_mode(formula.clone(), mode);
            for _ in 0..steps {
                ev.observe::<std::convert::Infallible>(&mut |p| Ok(*p == 'p'))
                    .expect("infallible");
            }
            sizes.push(ev.residual().map_or(0, Formula::size));
        }
        println!("  {:>6}  {:>18}  {:>18}", steps, sizes[0], sizes[1]);
    }
    println!(
        "expected shape: with the paper's simplification the residual stays\n\
         constant-size; without idempotence dedup it grows with the trace —\n\
         the blow-up Roşu and Havelund warn about, avoided in practice (§2.3)."
    );
}

/// Ablation A4 (extension, §5.1 future work): uniform-random vs
/// least-tried action selection — mean runs-to-first-failure on the
/// paper's "involved" faults.
fn ablation_strategy() {
    use quickstrom::quickstrom_apps::todomvc::{Fault, TodoMvc};

    println!("═══ Ablation A4: action selection strategy (§5.1 future work) ═══");
    println!("    (mean runs until first failure over 20 seeds; cap 200 runs)");
    let spec = quickstrom::specstrom::load(quickstrom::specs::TODOMVC).expect("spec compiles");
    println!(
        "  {:>28}  {:>16}  {:>16}",
        "fault", "uniform (runs)", "least-tried (runs)"
    );
    for fault in [
        Fault::ToggleAllIgnoresHidden,
        Fault::EmptyEditZombie,
        Fault::PendingCleared,
    ] {
        let mut means = Vec::new();
        for strategy in [
            SelectionStrategy::UniformRandom,
            SelectionStrategy::LeastTried,
        ] {
            let mut total_runs = 0usize;
            let seeds = 20u64;
            for seed in 0..seeds {
                let options = CheckOptions::default()
                    .with_tests(200)
                    .with_max_actions(60)
                    .with_default_demand(50)
                    .with_seed(seed * 7919)
                    .with_shrink(false)
                    .with_strategy(strategy);
                let report = check_spec(&spec, &options, &|| {
                    Box::new(WebExecutor::new(move || TodoMvc::with_faults([fault])))
                })
                .expect("no protocol errors");
                total_runs += report.properties[0].runs.len();
            }
            #[allow(clippy::cast_precision_loss)]
            means.push(total_runs as f64 / seeds as f64);
        }
        println!(
            "  {:>28}  {:>16.1}  {:>16.1}",
            format!("{} ({})", fault.number(), short_name(fault)),
            means[0],
            means[1]
        );
    }
    println!(
        "reading: fewer runs = the bug is found sooner. Least-tried keeps rare\n\
         actions (toggle-all, edit commits) in rotation instead of drowning them\n\
         in input typing — the \"more targeted\" selection §5.1 anticipates."
    );
}

fn short_name(fault: quickstrom::quickstrom_apps::todomvc::Fault) -> &'static str {
    use quickstrom::quickstrom_apps::todomvc::Fault;
    match fault {
        Fault::ToggleAllIgnoresHidden => "toggle-all vs filters",
        Fault::EmptyEditZombie => "empty-edit zombie",
        Fault::PendingCleared => "pending cleared",
        _ => "other",
    }
}
