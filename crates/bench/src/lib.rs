//! # quickstrom-bench
//!
//! Shared machinery for the evaluation harness (`evalharness` binary) and
//! the Criterion benchmarks: running the TodoMVC registry sweep (Tables 1
//! and 2), the subscript sweep (Figure 13), and the ablations of
//! DESIGN.md.
//!
//! The registry sweep is the project's hottest end-to-end path, and it
//! parallelises at entry granularity: [`sweep_registry_jobs`] fans the 43
//! implementations out over the checker's worker pool
//! ([`pool`]). Verdicts and state counts are
//! byte-identical for every job count — only wall-clock time changes —
//! because each entry's check is self-contained and seeded independently.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use quickstrom::prelude::*;
use quickstrom::quickstrom_apps::registry::{Entry, REGISTRY};
use quickstrom::quickstrom_checker::pool;
use quickstrom::quickstrom_obs::metrics::{SEND_LATENCY, STEP_LATENCY};
use std::fmt::Write as _;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// How executors ship states over the checker protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SnapshotMode {
    /// Incremental: one full snapshot, then `SnapshotDelta`s (the
    /// default).
    #[default]
    Delta,
    /// Every message carries a complete snapshot (the pre-incremental
    /// protocol, kept for differential comparison).
    Full,
}

impl SnapshotMode {
    /// The executor configuration for this mode.
    #[must_use]
    pub fn config(self) -> WebExecutorConfig {
        match self {
            SnapshotMode::Delta => WebExecutorConfig::default(),
            SnapshotMode::Full => WebExecutorConfig::full_snapshots(),
        }
    }
}

/// The bundled TodoMVC specification, compiled once per process and shared
/// (`Arc`) across sweep entries, worker threads, and Criterion iterations —
/// benches and sweeps measure *checking*, not parsing. The one-off compile
/// cost is recorded so the harness can still report it
/// ([`todomvc_spec_compile_s`]).
static TODOMVC_SPEC: OnceLock<(Arc<CompiledSpec>, f64)> = OnceLock::new();

fn todomvc_spec_entry() -> &'static (Arc<CompiledSpec>, f64) {
    TODOMVC_SPEC.get_or_init(|| {
        let started = Instant::now();
        let spec =
            quickstrom::specstrom::load(quickstrom::specs::TODOMVC).expect("bundled spec compiles");
        (Arc::new(spec), started.elapsed().as_secs_f64())
    })
}

/// The shared, once-compiled TodoMVC specification.
#[must_use]
pub fn todomvc_spec() -> Arc<CompiledSpec> {
    Arc::clone(&todomvc_spec_entry().0)
}

/// Wall-clock seconds the one-off TodoMVC spec compile took (the
/// sweep-level "spec compile" phase; per-entry timings cover the executor
/// and formula-evaluation phases).
#[must_use]
pub fn todomvc_spec_compile_s() -> f64 {
    todomvc_spec_entry().1
}

/// The result of checking one registry implementation.
#[derive(Debug, Clone)]
pub struct ImplResult {
    /// Implementation name.
    pub name: &'static str,
    /// Did the whole check pass?
    pub passed: bool,
    /// Table 1's expectation.
    pub expected_to_fail: bool,
    /// Wall-clock seconds spent checking.
    pub wall_s: f64,
    /// Of `wall_s`: seconds inside `Executor::send` (driving the app).
    pub executor_s: f64,
    /// Of `wall_s`: seconds in formula evaluation/progression and guards.
    pub eval_s: f64,
    /// Atom expansions the evaluator requested across all runs.
    pub atoms_total: u64,
    /// Of `atoms_total`: expansions actually re-evaluated (the rest were
    /// served from the value-keyed expansion memo).
    pub atoms_reevaluated: u64,
    /// Memo lookups served without re-evaluation.
    pub atom_memo_hits: u64,
    /// Memo lookups that had to expand the atom.
    pub atom_memo_misses: u64,
    /// Memo entries evicted by the capacity bound.
    pub atom_memo_evictions: u64,
    /// Residual formulae interned by the property evaluation automata at
    /// the end of the check. The transition table is owned by the
    /// compiled spec and shared across entries, so this reports the table
    /// size *as of* this entry, not a per-entry increment.
    pub ltl_states: u64,
    /// Formula-progression steps answered by a transition-table lookup
    /// instead of unroll+simplify.
    pub ltl_table_hits: u64,
    /// Of those, steps answered wholesale by the state-value step memo
    /// (no atom expansion or observation at all).
    pub step_memo_hits: u64,
    /// Total states observed.
    pub states: usize,
    /// Fault numbers injected into this implementation.
    pub fault_numbers: Vec<u8>,
    /// Snapshot-transport accounting: bytes shipped, the full-snapshot
    /// counterfactual, delta counts and changed selectors.
    pub transport: TransportStats,
    /// Coverage accounting: distinct state fingerprints, fingerprint
    /// transitions, and trace-corpus usage summed over the checked
    /// properties.
    pub coverage: CoverageStats,
    /// Observability metrics aggregated over the check's runs in run-index
    /// order (empty unless the entry was checked through
    /// [`check_entry_observed`] with metrics enabled).
    pub metrics: MetricsRegistry,
}

/// A latency quantile of `histogram` in `metrics`, in microseconds;
/// `None` when the latency was not measured (metrics off, or an empty
/// histogram).
#[must_use]
pub fn quantile_us(metrics: &MetricsRegistry, histogram: &str, q: f64) -> Option<f64> {
    metrics
        .histograms
        .get(histogram)
        .and_then(|h| h.quantile(q))
        .map(|v| v * 1e6)
}

/// Renders an optional measurement as JSON: `null` when it was not
/// measured, never a made-up `0.0`.
fn json_measure(value: Option<f64>) -> String {
    value.map_or_else(|| "null".to_owned(), |v| format!("{v:.3}"))
}

impl ImplResult {
    /// A latency quantile from the entry's observability metrics, in
    /// microseconds; `None` when metrics were off or the histogram is
    /// empty.
    #[must_use]
    pub fn latency_quantile_us(&self, histogram: &str, q: f64) -> Option<f64> {
        quantile_us(&self.metrics, histogram, q)
    }

    /// Does the observed verdict agree with Table 1?
    #[must_use]
    pub fn agrees_with_paper(&self) -> bool {
        self.passed != self.expected_to_fail
    }
}

/// Checks one registry entry against the bundled TodoMVC specification.
///
/// # Panics
///
/// Panics if the bundled specification fails to compile or the checker
/// reports a protocol error — both indicate a build problem, not a test
/// failure.
#[must_use]
pub fn check_entry(entry: &'static Entry, options: &CheckOptions) -> ImplResult {
    check_entry_mode(entry, options, SnapshotMode::Delta)
}

/// Checks one registry entry with an explicit snapshot-shipping mode.
/// Everything but the timing and transport columns is mode-independent
/// (pinned by the differential suite).
///
/// # Panics
///
/// See [`check_entry`].
#[must_use]
pub fn check_entry_mode(
    entry: &'static Entry,
    options: &CheckOptions,
    mode: SnapshotMode,
) -> ImplResult {
    check_entry_observed(entry, options, mode, &ObsOptions::disabled()).0
}

/// [`check_entry_mode`] through the observed checker entry point: returns
/// the usual [`ImplResult`] plus the run's observability artifacts (trace
/// tracks, metrics registry, failure explanations). With
/// [`ObsOptions::disabled`] the artifacts are empty and the result is
/// bit-identical to the plain path (pinned by `differential_obs`).
///
/// # Panics
///
/// See [`check_entry`].
#[must_use]
pub fn check_entry_observed(
    entry: &'static Entry,
    options: &CheckOptions,
    mode: SnapshotMode,
    obs: &ObsOptions,
) -> (ImplResult, ObsArtifacts) {
    let spec = todomvc_spec();
    let started = Instant::now();
    let config = mode.config();
    let (report, artifacts) = check_spec_observed(
        &spec,
        options,
        &move || Box::new(WebExecutor::with_config(|| entry.build(), config.clone())),
        obs,
    )
    .expect("no protocol errors");
    let states = report.properties.iter().map(|p| p.states_total).sum();
    let timings = report.timings();
    let result = ImplResult {
        name: entry.name,
        passed: report.passed(),
        expected_to_fail: entry.expected_to_fail(),
        wall_s: started.elapsed().as_secs_f64(),
        executor_s: timings.executor_s,
        eval_s: timings.eval_s,
        atoms_total: timings.atoms_total,
        atoms_reevaluated: timings.atoms_reevaluated,
        atom_memo_hits: timings.atom_memo_hits,
        atom_memo_misses: timings.atom_memo_misses,
        atom_memo_evictions: timings.atom_memo_evictions,
        ltl_states: timings.ltl_states,
        ltl_table_hits: timings.ltl_table_hits,
        step_memo_hits: timings.step_memo_hits,
        states,
        fault_numbers: entry.faults.iter().map(|f| f.number()).collect(),
        transport: report.transport(),
        coverage: report.coverage(),
        metrics: artifacts.metrics.clone(),
    };
    (result, artifacts)
}

/// Checks the entire registry, in order.
#[must_use]
pub fn sweep_registry(options: &CheckOptions) -> Vec<ImplResult> {
    sweep_registry_jobs(options, 1)
}

/// Checks a set of registry entries on up to `jobs` worker threads.
///
/// Results come back in input order, and every field except the wall-clock
/// time is independent of `jobs`: the entries don't share any state, so
/// this is the embarrassingly parallel outer level of the Table 1 sweep
/// (the inner level — the runs within one check — is governed by
/// [`CheckOptions::jobs`]).
#[must_use]
pub fn sweep_entries(
    entries: &[&'static Entry],
    options: &CheckOptions,
    jobs: usize,
) -> Vec<ImplResult> {
    sweep_entries_mode(entries, options, jobs, SnapshotMode::Delta)
}

/// [`sweep_entries`] with an explicit snapshot-shipping mode.
#[must_use]
pub fn sweep_entries_mode(
    entries: &[&'static Entry],
    options: &CheckOptions,
    jobs: usize,
    mode: SnapshotMode,
) -> Vec<ImplResult> {
    sweep_entries_observed(entries, options, jobs, mode, &ObsOptions::disabled(), None)
        .into_iter()
        .map(|(result, _)| result)
        .collect()
}

/// The per-entry completion hook for [`sweep_entries_observed`]: called
/// with the entry's registry index and its result.
pub type OnEntryDone<'a> = &'a (dyn Fn(usize, &ImplResult) + Sync);

/// [`sweep_entries_mode`] through the observed entry point, with an
/// optional completion callback.
///
/// `on_done` fires on the worker thread as each entry finishes (in
/// completion order, not input order) — the hook behind the harness's
/// `--progress` line and its streaming per-entry output. Results still
/// come back in input order.
#[must_use]
pub fn sweep_entries_observed(
    entries: &[&'static Entry],
    options: &CheckOptions,
    jobs: usize,
    mode: SnapshotMode,
    obs: &ObsOptions,
    on_done: Option<OnEntryDone<'_>>,
) -> Vec<(ImplResult, ObsArtifacts)> {
    pool::run_ordered(jobs, entries.len(), |i| {
        let pair = check_entry_observed(entries[i], options, mode, obs);
        if let Some(callback) = on_done {
            callback(i, &pair.0);
        }
        pair
    })
}

/// Checks the entire registry on up to `jobs` worker threads, in registry
/// order.
#[must_use]
pub fn sweep_registry_jobs(options: &CheckOptions, jobs: usize) -> Vec<ImplResult> {
    let entries: Vec<&'static Entry> = REGISTRY.iter().collect();
    sweep_entries(&entries, options, jobs)
}

/// The latency histograms behind the sweep JSON's quantile columns.
const LATENCY_COLUMNS: [(&str, &str); 2] = [
    ("step_latency", STEP_LATENCY),
    ("send_latency", SEND_LATENCY),
];

/// The quantiles each latency column reports.
const QUANTILES: [(&str, f64); 3] = [("p50", 0.50), ("p95", 0.95), ("p99", 0.99)];

/// Renders sweep results as a JSON document with per-entry, per-phase wall
/// times — the machine-readable output behind `evalharness table1 --json`,
/// meant for perf-trajectory tracking (`BENCH_*.json`).
///
/// The schema is one object with sweep-level metadata (including the
/// one-off `spec_compile_s` phase — the spec is compiled once and shared
/// across entries — the transport totals `shipped_bytes` / `full_bytes` /
/// `delta_ratio`, the coverage totals `distinct_states` /
/// `distinct_edges`, the atom-evaluation totals `atoms_total` /
/// `atoms_reevaluated` plus the expansion-memo totals
/// `atom_memo_hits` / `atom_memo_misses` / `atom_memo_evictions` — the
/// work the value-keyed memo saved — and the
/// automaton counters `ltl_states` / `ltl_table_hits`: the interned
/// residual-state count of the shared transition table and the
/// progression steps it answered by lookup, and `step_memo_hits`; and the
/// latency quantile columns `step_latency_p{50,95,99}_us` /
/// `send_latency_p{50,95,99}_us`, estimated from the merged fixed-bucket
/// histograms when the sweep ran with metrics enabled and `null` — not
/// measured — on a metrics-off sweep) and an
/// `entries` array; every entry carries `name`,
/// `passed`, `expected_to_fail`, `wall_s`, the phase attribution
/// `executor_s`/`eval_s`, the atom counters
/// `atoms_total`/`atoms_reevaluated` and the memo counters
/// `atom_memo_hits`/`atom_memo_misses`/`atom_memo_evictions`, the automaton counters
/// `ltl_states`/`ltl_table_hits`, `states`, `faults`, its snapshot-transport
/// accounting (`shipped_bytes`, `full_bytes`, `delta_states`,
/// `changed_selectors`), its coverage accounting (`distinct_states`,
/// `distinct_edges`) and its latency quantile columns (`null` when not
/// measured), so a regression can be blamed on a phase — or on the wire,
/// or on lost exploration breadth — instead of only recorded as wall
/// time.
#[must_use]
pub fn sweep_to_json(results: &[ImplResult], jobs: usize, total_wall_s: f64) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"benchmark\": \"table1_registry_sweep\",");
    let _ = writeln!(out, "  \"jobs\": {jobs},");
    let _ = writeln!(out, "  \"total_wall_s\": {total_wall_s:.4},");
    let _ = writeln!(
        out,
        "  \"spec_compile_s\": {:.6},",
        todomvc_spec_compile_s()
    );
    let _ = writeln!(
        out,
        "  \"states_total\": {},",
        results.iter().map(|r| r.states).sum::<usize>()
    );
    let _ = writeln!(
        out,
        "  \"atoms_total\": {},",
        results.iter().map(|r| r.atoms_total).sum::<u64>()
    );
    let _ = writeln!(
        out,
        "  \"atoms_reevaluated\": {},",
        results.iter().map(|r| r.atoms_reevaluated).sum::<u64>()
    );
    let _ = writeln!(
        out,
        "  \"atom_memo_hits\": {},",
        results.iter().map(|r| r.atom_memo_hits).sum::<u64>()
    );
    let _ = writeln!(
        out,
        "  \"atom_memo_misses\": {},",
        results.iter().map(|r| r.atom_memo_misses).sum::<u64>()
    );
    let _ = writeln!(
        out,
        "  \"atom_memo_evictions\": {},",
        results.iter().map(|r| r.atom_memo_evictions).sum::<u64>()
    );
    // The transition table is shared across entries (it hangs off the
    // once-compiled spec), so the sweep-level state count is the maximum
    // snapshot, not a per-entry sum; hits are genuinely additive.
    let _ = writeln!(
        out,
        "  \"ltl_states\": {},",
        results.iter().map(|r| r.ltl_states).max().unwrap_or(0)
    );
    let _ = writeln!(
        out,
        "  \"ltl_table_hits\": {},",
        results.iter().map(|r| r.ltl_table_hits).sum::<u64>()
    );
    let _ = writeln!(
        out,
        "  \"step_memo_hits\": {},",
        results.iter().map(|r| r.step_memo_hits).sum::<u64>()
    );
    // Latency quantiles from the merged metrics registries (`null` when
    // the sweep ran with metrics off — the merged histograms are empty).
    let mut merged = MetricsRegistry::new();
    for r in results {
        merged.merge(&r.metrics);
    }
    for (column, histogram) in LATENCY_COLUMNS {
        for (suffix, q) in QUANTILES {
            let _ = writeln!(
                out,
                "  \"{column}_{suffix}_us\": {},",
                json_measure(quantile_us(&merged, histogram, q))
            );
        }
    }
    let mut transport = TransportStats::default();
    for r in results {
        transport.absorb(r.transport);
    }
    let _ = writeln!(out, "  \"shipped_bytes\": {},", transport.shipped_bytes);
    let _ = writeln!(out, "  \"full_bytes\": {},", transport.full_bytes);
    let _ = writeln!(out, "  \"delta_ratio\": {:.4},", transport.delta_ratio());
    let mut coverage = CoverageStats::default();
    for r in results {
        coverage.absorb(r.coverage);
    }
    let _ = writeln!(out, "  \"distinct_states\": {},", coverage.distinct_states);
    let _ = writeln!(out, "  \"distinct_edges\": {},", coverage.distinct_edges);
    let _ = writeln!(out, "  \"entries\": [");
    for (i, r) in results.iter().enumerate() {
        let faults: Vec<String> = r.fault_numbers.iter().map(ToString::to_string).collect();
        let _ = write!(
            out,
            "    {{\"name\": \"{}\", \"passed\": {}, \"expected_to_fail\": {}, \
             \"wall_s\": {:.4}, \"executor_s\": {:.4}, \"eval_s\": {:.4}, \
             \"atoms_total\": {}, \"atoms_reevaluated\": {}, \
             \"atom_memo_hits\": {}, \"atom_memo_misses\": {}, \
             \"atom_memo_evictions\": {}, \
             \"ltl_states\": {}, \"ltl_table_hits\": {}, \
             \"step_memo_hits\": {}, \
             \"states\": {}, \"faults\": [{}], \
             \"shipped_bytes\": {}, \"full_bytes\": {}, \"delta_states\": {}, \
             \"changed_selectors\": {}, \
             \"distinct_states\": {}, \"distinct_edges\": {}",
            r.name,
            r.passed,
            r.expected_to_fail,
            r.wall_s,
            r.executor_s,
            r.eval_s,
            r.atoms_total,
            r.atoms_reevaluated,
            r.atom_memo_hits,
            r.atom_memo_misses,
            r.atom_memo_evictions,
            r.ltl_states,
            r.ltl_table_hits,
            r.step_memo_hits,
            r.states,
            faults.join(", "),
            r.transport.shipped_bytes,
            r.transport.full_bytes,
            r.transport.delta_states,
            r.transport.changed_selectors,
            r.coverage.distinct_states,
            r.coverage.distinct_edges,
        );
        for (column, histogram) in LATENCY_COLUMNS {
            for (suffix, q) in QUANTILES {
                let _ = write!(
                    out,
                    ", \"{column}_{suffix}_us\": {}",
                    json_measure(r.latency_quantile_us(histogram, q))
                );
            }
        }
        out.push('}');
        out.push_str(if i + 1 < results.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// One point of the Figure 13 sweep.
#[derive(Debug, Clone)]
pub struct SubscriptPoint {
    /// The temporal-operator subscript (trace length), Figure 13's x axis.
    pub subscript: u32,
    /// Percentage of checking sessions on faulty implementations that
    /// unexpectedly passed.
    pub false_negative_pct: f64,
    /// Mean wall-clock seconds per session on passing implementations.
    pub passing_wall_s: f64,
    /// Mean virtual milliseconds of "user interaction" per passing run —
    /// the deterministic analogue of the paper's running time, dominated
    /// (as in the paper) by waiting for the application rather than by
    /// hardware speed.
    pub passing_virtual_ms: f64,
    /// Sessions run against faulty implementations.
    pub faulty_sessions: usize,
}

/// Runs the Figure 13 sweep for one subscript value.
///
/// Each *session* checks one implementation with `runs_per_session` test
/// runs at demand `subscript` (the run length the formula demands). The
/// false-negative rate counts sessions on faulty implementations that
/// found nothing; the running time is measured on passing implementations
/// only — exactly the paper's methodology (§4.3: failing runs exit early,
/// so passing cases dominate the time, and only false *negatives* are
/// possible for a safety-only specification).
#[must_use]
pub fn figure13_point(subscript: u32, sessions: usize, runs_per_session: usize) -> SubscriptPoint {
    let mut faulty_sessions = 0usize;
    let mut false_negatives = 0usize;
    for entry in REGISTRY.iter().filter(|e| e.expected_to_fail()) {
        for session in 0..sessions {
            let options = CheckOptions::default()
                .with_tests(runs_per_session)
                .with_max_actions(subscript as usize + 10)
                .with_default_demand(subscript)
                .with_seed(0xF16 ^ ((session as u64) << 8) ^ u64::from(subscript))
                .with_shrink(false);
            let result = check_entry(entry, &options);
            faulty_sessions += 1;
            if result.passed {
                false_negatives += 1;
            }
        }
    }

    // Running time on (a sample of) passing implementations.
    let mut wall = Vec::new();
    let mut virtual_ms = Vec::new();
    for entry in REGISTRY.iter().filter(|e| !e.expected_to_fail()).take(5) {
        let spec = todomvc_spec();
        let options = CheckOptions::default()
            .with_tests(runs_per_session)
            .with_max_actions(subscript as usize + 10)
            .with_default_demand(subscript)
            .with_seed(u64::from(subscript))
            .with_shrink(false);
        let started = Instant::now();
        // Track virtual time by keeping the last executor alive per run.
        let report = check_spec(&spec, &options, &|| {
            Box::new(WebExecutor::new(|| entry.build()))
        })
        .expect("no protocol errors");
        assert!(report.passed(), "{}: {report}", entry.name);
        wall.push(started.elapsed().as_secs_f64());
        // Virtual interaction time: one deliberation millisecond per
        // action plus waits; approximate from states (1ms per message).
        let states: usize = report.properties.iter().map(|p| p.states_total).sum();
        virtual_ms.push(states as f64);
    }
    #[allow(clippy::cast_precision_loss)]
    SubscriptPoint {
        subscript,
        false_negative_pct: if faulty_sessions == 0 {
            0.0
        } else {
            100.0 * false_negatives as f64 / faulty_sessions as f64
        },
        passing_wall_s: wall.iter().sum::<f64>() / wall.len().max(1) as f64,
        passing_virtual_ms: virtual_ms.iter().sum::<f64>() / virtual_ms.len().max(1) as f64,
        faulty_sessions,
    }
}

/// The Table 2 fault descriptions, for printing.
#[must_use]
pub fn fault_description(number: u8) -> &'static str {
    quickstrom::quickstrom_apps::Fault::all()
        .iter()
        .find(|f| f.number() == number)
        .map_or("?", |f| f.description())
}

#[cfg(test)]
mod tests {
    use super::*;
    use quickstrom::quickstrom_apps::registry;

    fn quick_options() -> CheckOptions {
        CheckOptions::default()
            .with_tests(25)
            .with_max_actions(50)
            .with_default_demand(40)
            .with_seed(1)
            .with_shrink(false)
    }

    #[test]
    fn passing_entry_checks_clean() {
        let result = check_entry(registry::by_name("vue").unwrap(), &quick_options());
        assert!(result.passed);
        assert!(result.agrees_with_paper());
        assert!(result.states > 0);
    }

    #[test]
    fn failing_entry_is_flagged() {
        let result = check_entry(registry::by_name("elm").unwrap(), &quick_options());
        assert!(!result.passed);
        assert!(result.agrees_with_paper());
        assert_eq!(result.fault_numbers, vec![7]);
    }

    #[test]
    fn figure13_point_runs() {
        // A tiny configuration just to exercise the plumbing.
        let point = figure13_point(8, 1, 1);
        assert_eq!(point.subscript, 8);
        assert_eq!(point.faulty_sessions, 20);
        assert!(point.false_negative_pct >= 0.0);
    }

    /// Latency that was not measured is `null` in the sweep JSON — at the
    /// sweep level and per entry — never a made-up `0.0`; a metrics-on
    /// sweep fills every quantile column with a number.
    #[test]
    fn unmeasured_latency_is_null_in_sweep_json() {
        let entry = registry::by_name("vue").unwrap();
        let options = quick_options().with_tests(2).with_max_actions(10);
        let sweep = |metrics: bool| {
            let obs = ObsOptions {
                tracing: None,
                metrics,
            };
            let results: Vec<ImplResult> =
                sweep_entries_observed(&[entry], &options, 1, SnapshotMode::Delta, &obs, None)
                    .into_iter()
                    .map(|(result, _)| result)
                    .collect();
            sweep_to_json(&results, 1, 0.0)
        };
        let off = sweep(false);
        let on = sweep(true);
        for (column, _) in LATENCY_COLUMNS {
            for (suffix, _) in QUANTILES {
                let key = format!("\"{column}_{suffix}_us\": ");
                let values = |doc: &str| -> Vec<String> {
                    doc.match_indices(&key)
                        .map(|(at, _)| {
                            doc[at + key.len()..]
                                .chars()
                                .take_while(|c| !matches!(c, ',' | '}' | '\n'))
                                .collect()
                        })
                        .collect()
                };
                assert_eq!(values(&off), ["null", "null"], "{key} in {off}");
                let measured = values(&on);
                assert_eq!(measured.len(), 2, "{key} in {on}");
                for value in measured {
                    assert!(value.parse::<f64>().is_ok(), "{key}{value} in {on}");
                }
            }
        }
    }

    #[test]
    fn fault_descriptions_resolve() {
        assert!(fault_description(7).contains("pending input"));
        assert_eq!(fault_description(99), "?");
    }
}
