//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <registry_warm|registry_cold|remote_latency> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run repeats one workload until its repetitions have taken
//! `--seconds`, checks every verdict against Table 1 and the digests of
//! repetitions under the same checker seed against each other, and prints
//! as its last line one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. With `--trace 0` the metrics are the end-to-end ones,
//! taken from untraced repetitions; with `--trace 1` traced and untraced
//! repetitions alternate and the metrics are the per-layer ones, taken from
//! the traced repetitions. The line before it is the full record: run
//! settings, every metric (`null` where nothing was measured), the digest
//! and the failing checks. The record, and the spans of the last traced
//! repetition, are also written to `perfbench/out/`.
//!
//! Every workload runs with `CheckOptions::default()` engine settings and
//! one job; it sets only the test budget, the seed and its own inputs
//! (`remote_latency` also sets `multiplex`). Which layer metric should move
//! which end-to-end metric is recorded in `perfbench/layers.json`.

mod heap;
mod json;
mod probe;
mod stats;

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

use json::Json;
use probe::{Kind, Log, Span, ROOT};
use quickstrom::prelude::*;
use quickstrom::quickstrom_apps::registry::{by_name, Entry, REGISTRY};
use quickstrom::quickstrom_checker::{derive_run_seed, CheckError, RunResult};
use stats::{median, percentile, secs};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Table 1's action budget and default demand (§4.3).
const MAX_ACTIONS: usize = 120;
const DEMAND: u32 = 100;
/// Timed repetitions every run makes, however short `--seconds` is.
const MIN_REPS: usize = 2;
/// Candidate checker seeds tried per benchmark seed (see [`Seeds`]).
const SEED_ATTEMPTS: u64 = 256;

/// Checker seeds an untraced run cycles through, one per repetition, so
/// its figures do not hang on one seed's luck.
const SEEDS: usize = 6;

/// How a workload checks its entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Setting {
    /// One spec per sweep, shared across entries (warm memos); no
    /// shrinking.
    Warm,
    /// The spec loaded afresh for every entry (cold memos), as one
    /// `quickstrom check` run would; shrinking on.
    Cold,
    /// One spec per sweep; every message round-trips through the wire
    /// codec and waits [`probe::REMOTE_DELAY`], with two sessions in flight.
    Remote,
}

/// One named workload.
#[derive(Debug)]
struct Workload {
    name: &'static str,
    setting: Setting,
    entries: Vec<&'static Entry>,
    tests: usize,
}

const WORKLOADS: [&str; 3] = ["registry_warm", "registry_cold", "remote_latency"];

/// The remote workload's entries: passing implementations, whose runs go
/// to the full action budget, so waiting on the executor dominates.
const REMOTE_ENTRIES: [&str; 4] = ["react", "vue", "backbone", "typescript-angular"];

fn workload(name: &str) -> Option<Workload> {
    let registry = || REGISTRY.iter().collect();
    let (name, setting, entries, tests) = match name {
        "registry_warm" => ("registry_warm", Setting::Warm, registry(), 10),
        "registry_cold" => ("registry_cold", Setting::Cold, registry(), 20),
        "remote_latency" => (
            "remote_latency",
            Setting::Remote,
            REMOTE_ENTRIES
                .iter()
                .map(|n| by_name(n).expect("a Table 1 entry"))
                .collect(),
            4,
        ),
        _ => return None,
    };
    Some(Workload {
        name,
        setting,
        entries,
        tests,
    })
}

impl Workload {
    fn options(&self, seed: u64) -> CheckOptions {
        let options = CheckOptions::default()
            .with_tests(self.tests)
            .with_max_actions(MAX_ACTIONS)
            .with_default_demand(DEMAND)
            .with_seed(seed)
            .with_jobs(1);
        match self.setting {
            Setting::Warm => options.with_shrink(false),
            Setting::Cold => options,
            Setting::Remote => options.with_multiplex(2),
        }
    }

    fn spec_per_entry(&self) -> bool {
        self.setting == Setting::Cold
    }

    fn remote(&self) -> bool {
        self.setting == Setting::Remote
    }

    /// Untraced repetitions needed before `check_s_p75` has ten samples
    /// beyond it.
    fn min_reps(&self) -> usize {
        MIN_REPS.max((4 * stats::MIN_BEYOND).div_ceil(self.entries.len()))
    }

    fn settings(&self) -> Json {
        let options = self.options(0);
        Json::obj([
            (
                "entries",
                Json::Arr(self.entries.iter().map(|e| Json::str(e.name)).collect()),
            ),
            ("seeds", Json::Int(SEEDS as u64)),
            ("tests", Json::Int(self.tests as u64)),
            ("max_actions", Json::Int(MAX_ACTIONS as u64)),
            ("demand", Json::Int(u64::from(DEMAND))),
            ("shrink", Json::Bool(options.shrink)),
            (
                "spec",
                Json::str(if self.spec_per_entry() {
                    "loaded per entry"
                } else {
                    "loaded once per repetition"
                }),
            ),
            ("jobs", Json::Int(options.jobs as u64)),
            ("multiplex", Json::Int(options.multiplex as u64)),
            ("pipeline", Json::str(options.pipeline.name())),
            ("wire_codec", Json::Bool(self.remote())),
            (
                "latency_ms",
                Json::Num(if self.remote() {
                    probe::REMOTE_DELAY.as_secs_f64() * 1e3
                } else {
                    0.0
                }),
            ),
        ])
    }
}

fn load_spec() -> CompiledSpec {
    quickstrom::specstrom::load(quickstrom::specs::TODOMVC).expect("the bundled spec compiles")
}

/// The checker seeds of one benchmark seed: the `derive_run_seed(seed, 0..)`
/// candidates under which every faulty entry of the workload is caught
/// within its test budget, found in order as repetitions need them.
///
/// A random tester may miss a fault at a small budget — `backbone_marionette`
/// needs about 40 runs at the median seed — so a verdict is only a correct
/// output to check against Table 1 for seeds that find every fault. The
/// search checks faulty entries only, without shrinking, and moves an entry
/// that was missed to the front so later candidates try it first. The
/// measured repetitions still check every verdict.
struct Seeds<'a> {
    w: &'a Workload,
    seed: u64,
    spec: CompiledSpec,
    faulty: Vec<&'static Entry>,
    found: Vec<u64>,
    /// Candidates tried so far.
    attempts: u64,
    /// Wall time spent searching, in seconds.
    search_s: f64,
}

impl<'a> Seeds<'a> {
    fn new(w: &'a Workload, seed: u64) -> Seeds<'a> {
        Seeds {
            w,
            seed,
            spec: load_spec(),
            faulty: w
                .entries
                .iter()
                .copied()
                .filter(|e| e.expected_to_fail())
                .collect(),
            found: Vec::new(),
            attempts: 0,
            search_s: 0.0,
        }
    }

    /// The `i`-th checker seed. Should the search run dry, the next
    /// candidate is used unchecked and its misses count as failed checks.
    fn get(&mut self, i: usize) -> u64 {
        let started = Instant::now();
        while self.found.len() <= i {
            let candidate = derive_run_seed(self.seed, self.attempts);
            self.attempts += 1;
            if self.attempts > SEED_ATTEMPTS || self.catches_every_fault(candidate) {
                self.found.push(candidate);
            }
        }
        self.search_s += started.elapsed().as_secs_f64();
        self.found[i]
    }

    fn catches_every_fault(&mut self, candidate: u64) -> bool {
        let options = self.w.options(candidate).with_shrink(false);
        let spec = &self.spec;
        let missed = self.faulty.iter().position(|&entry| {
            check_spec(spec, &options, &move || {
                Box::new(WebExecutor::new(move || entry.build()))
            })
            .map_or(true, |report| report.passed())
        });
        if let Some(i) = missed {
            let entry = self.faulty.remove(i);
            self.faulty.insert(0, entry);
        }
        missed.is_none()
    }
}

/// Counters the checker's reports return, summed over one repetition.
#[derive(Debug, Default, Clone, Copy)]
struct Counters {
    states: u64,
    runs: u64,
    eval_s: f64,
    atoms_total: u64,
    atoms_reevaluated: u64,
    atom_memo_hits: u64,
    atom_memo_misses: u64,
    /// Interned residual states, summed over the repetition's specs.
    ltl_states: u64,
    ltl_table_hits: u64,
    step_memo_hits: u64,
    shipped_bytes: u64,
    full_bytes: u64,
    distinct_states: u64,
    distinct_edges: u64,
}

impl Counters {
    fn absorb(&mut self, report: &Report) {
        let t = report.timings();
        let transport = report.transport();
        let coverage = report.coverage();
        self.states += report
            .properties
            .iter()
            .map(|p| p.states_total as u64)
            .sum::<u64>();
        self.runs += report
            .properties
            .iter()
            .map(|p| p.runs.len() as u64)
            .sum::<u64>();
        self.eval_s += t.eval_s;
        self.atoms_total += t.atoms_total;
        self.atoms_reevaluated += t.atoms_reevaluated;
        self.atom_memo_hits += t.atom_memo_hits;
        self.atom_memo_misses += t.atom_memo_misses;
        self.ltl_table_hits += t.ltl_table_hits;
        self.step_memo_hits += t.step_memo_hits;
        self.shipped_bytes += transport.shipped_bytes;
        self.full_bytes += transport.full_bytes;
        self.distinct_states += coverage.distinct_states as u64;
        self.distinct_edges += coverage.distinct_edges as u64;
    }
}

/// What one repetition measured.
#[derive(Debug)]
struct Rep {
    seed: u64,
    traced: bool,
    warmup: bool,
    wall_s: f64,
    counters: Counters,
    check_s: Vec<f64>,
    counterexample_s: Vec<f64>,
    load_s: Vec<f64>,
    /// Peak live heap of the sweep, in MiB (warm-up repetition only).
    heap_mb: Option<f64>,
    step_p50_s: Option<f64>,
    step_p99_s: Option<f64>,
    digest: u64,
    /// Entries whose check errored or whose verdict disagrees with Table 1.
    failed: Vec<String>,
    /// Per-layer metrics (traced repetitions only).
    layers: Vec<Metric>,
    /// Spans (traced repetitions only).
    spans: Vec<Span>,
}

/// FNV-1a, folded over the canonical text of each check's outcome.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn add(&mut self, text: &str) {
        for byte in text.bytes().chain([0xff]) {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// The canonical text of one check's outcome: verdicts, state totals,
/// (shrunk) counterexample scripts and coverage counts.
fn outcome_text(entry: &Entry, result: &Result<Report, CheckError>) -> String {
    let mut out = format!("{}:", entry.name);
    match result {
        Err(e) => {
            let _ = write!(out, "error {e}");
        }
        Ok(report) => {
            for p in &report.properties {
                let _ = write!(
                    out,
                    "{} states={} actions={} distinct={}/{} runs=[",
                    p.property,
                    p.states_total,
                    p.actions_total,
                    p.coverage.distinct_states,
                    p.coverage.distinct_edges
                );
                for run in &p.runs {
                    match run {
                        RunResult::Passed(v) => {
                            let _ = write!(out, "pass {v:?};");
                        }
                        RunResult::Failed(cx) => {
                            let _ = write!(out, "fail {:?} shrunk={} [", cx.verdict, cx.shrunk);
                            for action in &cx.script {
                                let _ = write!(out, "{action}|");
                            }
                            out.push_str("];");
                        }
                        RunResult::Inconclusive { reason } => {
                            let _ = write!(out, "inconclusive {reason};");
                        }
                    }
                }
                out.push(']');
            }
        }
    }
    out
}

/// One repetition: a Table 1 style sweep over the workload's entries under
/// one checker seed. The warm-up repetition also counts the sweep's peak
/// heap; the others are timed.
fn run_rep(w: &Workload, seed: u64, traced: bool, warmup: bool) -> Rep {
    let log = Arc::new(Log::new(traced));
    let options = w.options(seed);
    let mut counters = Counters::default();
    let mut digest = Digest::new();
    let mut check_s = Vec::new();
    let mut counterexample_s = Vec::new();
    let mut load_s = Vec::new();
    let mut failed = Vec::new();
    let mut load = |parent: u64| {
        let id = log.new_id();
        let start = log.now();
        let spec = load_spec();
        let end = log.now();
        log.push(Span {
            id,
            parent,
            kind: Kind::Load,
            start,
            end,
        });
        load_s.push(secs(end - start));
        spec
    };
    if warmup {
        heap::start();
    }
    let shared = (!w.spec_per_entry()).then(|| load(ROOT));
    for &entry in &w.entries {
        let check_id = log.new_id();
        log.set_current_check(check_id);
        let start = log.now();
        let own;
        let spec = if let Some(spec) = &shared {
            spec
        } else {
            own = load(check_id);
            &own
        };
        let remote = w.remote();
        let result = check_spec(spec, &options, &|| {
            probe::make_executor(entry, remote, &log)
        });
        let end = log.now();
        log.push(Span {
            id: check_id,
            parent: ROOT,
            kind: Kind::Check,
            start,
            end,
        });
        check_s.push(secs(end - start));
        digest.add(&outcome_text(entry, &result));
        match &result {
            Ok(report) => {
                counters.absorb(report);
                // A shared spec's automaton keeps growing across entries:
                // count its final size once.
                let states = report.timings().ltl_states;
                if w.spec_per_entry() {
                    counters.ltl_states += states;
                } else {
                    counters.ltl_states = counters.ltl_states.max(states);
                }
                if report.passed() == entry.expected_to_fail() {
                    failed.push(format!("{} (checker seed {seed})", entry.name));
                } else if !report.passed() {
                    counterexample_s.push(secs(end - start));
                }
            }
            Err(e) => failed.push(format!("{} (checker seed {seed}): {e}", entry.name)),
        }
    }
    drop(shared);
    let heap_mb = warmup.then(heap::stop_mb);
    let wall = log.now();
    log.push(Span {
        id: ROOT,
        parent: 0,
        kind: Kind::Rep,
        start: 0,
        end: wall,
    });
    let collected = log.take();
    let steps: Vec<f64> = collected.steps_ns.iter().map(|&ns| secs(ns)).collect();
    let mut rep = Rep {
        seed,
        traced,
        warmup,
        wall_s: secs(wall),
        counters,
        check_s,
        counterexample_s,
        load_s,
        heap_mb,
        step_p50_s: percentile(&steps, 0.50),
        step_p99_s: percentile(&steps, 0.99),
        digest: digest.0,
        failed,
        layers: Vec::new(),
        spans: Vec::new(),
    };
    if traced {
        rep.layers = layer_metrics(&rep, &collected.spans, collected.wire_bytes);
        rep.spans = collected.spans;
    }
    rep
}

#[allow(clippy::cast_precision_loss)]
fn ratio(num: u64, den: u64) -> Option<f64> {
    (den > 0).then(|| num as f64 / den as f64)
}

/// A metric: name, unit and value (`None` when nothing was measured).
type Metric = (&'static str, &'static str, Option<f64>);

/// The per-layer metrics of one traced repetition, named by crate.
#[allow(clippy::cast_precision_loss)]
fn layer_metrics(rep: &Rep, spans: &[Span], wire_bytes: u64) -> Vec<Metric> {
    let l = stats::ledger(spans);
    let c = &rep.counters;
    let sends = l.count(Kind::Send);
    let builds = l.count(Kind::Build);
    let think = stats::think_gaps(spans);
    let us = |x: Option<f64>| x.map(|s| s * 1e6);
    vec![
        ("executor.sends", "count", Some(sends as f64)),
        ("executor.busy_s", "s", Some(l.total(Kind::Send))),
        (
            "executor.send_us_p50",
            "us",
            us(percentile(&stats::durations(spans, Kind::Send), 0.5)),
        ),
        ("executor.builds", "count", Some(builds as f64)),
        ("executor.build_s", "s", Some(l.total(Kind::Build))),
        ("executor.wait_s", "s", Some(l.self_time(Kind::Step))),
        ("checker.eval_s", "s", Some(c.eval_s)),
        ("checker.runs", "count", Some(c.runs as f64)),
        (
            "checker.shrink_replays",
            "count",
            Some(builds.saturating_sub(c.runs) as f64),
        ),
        (
            "checker.states_per_send",
            "ratio",
            ratio(c.states, l.count(Kind::Step)),
        ),
        (
            "checker.step_memo_hit_ratio",
            "ratio",
            ratio(c.step_memo_hits, c.states),
        ),
        ("checker.think_us_p50", "us", us(percentile(&think, 0.50))),
        ("checker.think_us_p99", "us", us(percentile(&think, 0.99))),
        ("checker.check_self_s", "s", Some(l.self_time(Kind::Check))),
        ("checker.run_self_s", "s", Some(l.self_time(Kind::Run))),
        ("specstrom.load_s", "s", Some(l.total(Kind::Load))),
        ("specstrom.atoms_total", "count", Some(c.atoms_total as f64)),
        (
            "specstrom.atoms_reevaluated",
            "count",
            Some(c.atoms_reevaluated as f64),
        ),
        (
            "specstrom.atom_memo_hit_ratio",
            "ratio",
            ratio(c.atom_memo_hits, c.atom_memo_hits + c.atom_memo_misses),
        ),
        ("quickltl.ltl_states", "count", Some(c.ltl_states as f64)),
        (
            "quickltl.table_hit_ratio",
            "ratio",
            ratio(c.ltl_table_hits, c.states),
        ),
        ("protocol.wire_s", "s", Some(l.total(Kind::Wire))),
        ("protocol.wire_bytes", "bytes", Some(wire_bytes as f64)),
        (
            "protocol.shipped_bytes",
            "bytes",
            Some(c.shipped_bytes as f64),
        ),
        (
            "protocol.delta_ratio",
            "ratio",
            ratio(c.shipped_bytes, c.full_bytes),
        ),
        (
            "explore.distinct_states",
            "count",
            Some(c.distinct_states as f64),
        ),
        (
            "explore.distinct_edges",
            "count",
            Some(c.distinct_edges as f64),
        ),
        ("bench.rep_self_s", "s", Some(l.self_time(Kind::Rep))),
    ]
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits inside the repository")
        .to_path_buf()
}

/// The commit under test, when the tree is a git checkout.
fn git_commit() -> Json {
    let root = repo_root();
    if !root.join(".git").exists() {
        return Json::Null;
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(&root)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or(Json::Null, |o| {
            Json::str(String::from_utf8_lossy(&o.stdout).trim())
        })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The median, over repetitions, of each named per-layer metric.
fn median_layers(reps: &[&Rep]) -> Vec<Metric> {
    let Some(first) = reps.first() else {
        return Vec::new();
    };
    first
        .layers
        .iter()
        .enumerate()
        .map(|(i, (name, unit, _))| {
            let values: Vec<f64> = reps.iter().filter_map(|r| r.layers[i].2).collect();
            (*name, *unit, median(&values))
        })
        .collect()
}

/// Time to a (shrunk) counterexample, over the checks of faulty entries.
/// It is recorded but not bounded: it hangs on where each seed's runs hit
/// the fault and how far shrinking gets, so it spreads across seeds more
/// widely than any bound a regression check could use.
fn counterexample_metric(reps: &[&Rep]) -> Metric {
    let samples: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.counterexample_s.iter().copied())
        .collect();
    ("counterexample_s_p50", "s", percentile(&samples, 0.50))
}

/// The end-to-end metrics of the timed untraced repetitions.
fn end_to_end(reps: &[&Rep], heap_mb: Option<f64>) -> Vec<Metric> {
    let walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    #[allow(clippy::cast_precision_loss)]
    let rates: Vec<f64> = reps
        .iter()
        .map(|r| r.counters.states as f64 / r.wall_s)
        .collect();
    let pooled = |f: fn(&Rep) -> &Vec<f64>| -> Vec<f64> {
        reps.iter().flat_map(|r| f(r).iter().copied()).collect()
    };
    let checks = pooled(|r| &r.check_s);
    let loads = pooled(|r| &r.load_s);
    let step = |f: fn(&Rep) -> Option<f64>| {
        let values: Vec<f64> = reps.iter().filter_map(|r| f(r)).collect();
        median(&values).map(|s| s * 1e3)
    };
    vec![
        ("wall_s", "s", median(&walls)),
        ("states_per_s", "1/s", median(&rates)),
        ("check_s_p50", "s", percentile(&checks, 0.50)),
        ("check_s_p75", "s", percentile(&checks, 0.75)),
        ("step_ms_p50", "ms", step(|r| r.step_p50_s)),
        ("step_ms_p99", "ms", step(|r| r.step_p99_s)),
        ("setup_s", "s", median(&loads)),
        ("peak_heap_mb", "MiB", heap_mb),
    ]
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::obj(metrics.iter().map(|(name, unit, value)| {
        (
            *name,
            Json::obj([("value", Json::opt(*value)), ("unit", Json::str(*unit))]),
        )
    }))
}

/// The spans of one repetition as JSON: one `[id, parent, kind, start_ns,
/// end_ns]` row per span, times relative to the repetition's start.
fn spans_json(spans: &[Span]) -> String {
    let mut out = String::from(
        "{\"columns\": [\"id\", \"parent\", \"kind\", \"start_ns\", \"end_ns\"], \"spans\": [\n",
    );
    for (i, s) in spans.iter().enumerate() {
        let _ = write!(
            out,
            "{}[{}, {}, \"{}\", {}, {}]",
            if i == 0 { "" } else { ",\n" },
            s.id,
            s.parent,
            s.kind.name(),
            s.start,
            s.end
        );
    }
    out.push_str("\n]}\n");
    out
}

fn write_out(name: &str, contents: &str) {
    let dir = repo_root().join("perfbench").join("out");
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(dir.join(name), contents));
    if let Err(e) = written {
        eprintln!("perfbench: could not write {name}: {e}");
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let Some(w) = workload(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload {} (one of {})",
            args.workload,
            WORKLOADS.join(", ")
        );
        std::process::exit(2);
    };
    let mut seeds = Seeds::new(&w, args.seed);
    // The budget counts repetitions only, not the seed search between them.
    let budget = std::time::Duration::from_secs(args.seconds).as_secs_f64();
    // The first repetition lets caches fill and counts the sweep's peak
    // heap; it is checked like the others but not timed.
    let mut reps: Vec<Rep> = vec![run_rep(&w, seeds.get(0), false, true)];
    let min_reps = 1 + if args.trace { MIN_REPS } else { w.min_reps() };
    while reps.len() < min_reps || reps.iter().map(|r| r.wall_s).sum::<f64>() < budget {
        let i = reps.len() - 1;
        // Untraced runs cycle through the seeds, starting with the
        // warm-up's. A traced run repeats the first seed, alternating
        // untraced and traced repetitions, so its per-layer counts are
        // deterministic and its walls compare like for like.
        let (seed, traced) = if args.trace {
            (seeds.get(0), i % 2 == 1)
        } else {
            (seeds.get(i % SEEDS), false)
        };
        let rep = run_rep(&w, seed, traced, false);
        if rep.traced {
            // Only the last traced repetition's spans are written out.
            for earlier in &mut reps {
                earlier.spans = Vec::new();
            }
        }
        reps.push(rep);
    }

    let untraced: Vec<&Rep> = reps.iter().filter(|r| !r.traced && !r.warmup).collect();
    let traced: Vec<&Rep> = reps.iter().filter(|r| r.traced).collect();
    let e2e = end_to_end(&untraced, reps[0].heap_mb);
    let mut layers = median_layers(&traced);
    if !traced.is_empty() {
        // The codec pass that traced in-process repetitions add is not
        // tracing overhead; take it out before comparing walls.
        let net: Vec<f64> = traced
            .iter()
            .map(|r| {
                let wire_s = r
                    .layers
                    .iter()
                    .find(|(name, _, _)| *name == "protocol.wire_s")
                    .and_then(|(_, _, value)| *value);
                match wire_s {
                    Some(wire_s) if !w.remote() => r.wall_s - wire_s,
                    _ => r.wall_s,
                }
            })
            .collect();
        let walls: Vec<f64> = untraced.iter().map(|r| r.wall_s).collect();
        let overhead = median(&net)
            .zip(median(&walls))
            .map(|(t, u)| (t / u - 1.0) * 100.0);
        layers.push(("bench.trace_overhead_pct", "%", overhead));
    }

    // Repetitions of one seed must agree; the warm-up's seed always recurs.
    let digest_of = |seed: u64| {
        reps.iter()
            .find(|r| r.seed == seed)
            .map(|r| r.digest)
            .expect("every seed used has a repetition")
    };
    let digests_agree = reps.iter().all(|r| r.digest == digest_of(r.seed));
    let digest = digest_of(reps[0].seed);
    let attempted: usize = reps.iter().map(|r| r.check_s.len()).sum();
    let failed: usize = reps.iter().map(|r| r.failed.len()).sum();
    let mut failing: Vec<String> = reps.iter().flat_map(|r| r.failed.clone()).collect();
    failing.sort();
    failing.dedup();
    let correct = digests_agree && failed == 0;

    let record = Json::obj([
        ("benchmark", Json::str("perfbench")),
        ("workload", Json::str(w.name)),
        ("seed", Json::Int(args.seed)),
        (
            "checker_seeds",
            Json::Arr(seeds.found.iter().map(|&s| Json::Int(s)).collect()),
        ),
        ("seed_attempts", Json::Int(seeds.attempts)),
        ("seed_search_s", Json::Num(seeds.search_s)),
        ("seconds", Json::Int(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        (
            "nproc",
            std::thread::available_parallelism().map_or(Json::Null, |n| Json::Int(n.get() as u64)),
        ),
        (
            "profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("git_commit", git_commit()),
        ("settings", w.settings()),
        ("reps", Json::Int(untraced.len() as u64)),
        (
            "rep_walls_s",
            Json::Arr(reps.iter().map(|r| Json::Num(r.wall_s)).collect()),
        ),
        ("traced_reps", Json::Int(traced.len() as u64)),
        ("digest", Json::str(format!("{digest:016x}"))),
        ("digests_agree", Json::Bool(digests_agree)),
        (
            "checks_failed",
            Json::Arr(failing.iter().map(|f| Json::str(f.clone())).collect()),
        ),
        ("end_to_end", metrics_json(&e2e)),
        (
            "recorded_only",
            metrics_json(&[counterexample_metric(&untraced)]),
        ),
        ("per_layer", metrics_json(&layers)),
    ]);
    let stem = format!("{}-seed{}-trace{}", w.name, args.seed, u8::from(args.trace));
    write_out(&format!("{stem}.json"), &format!("{record}\n"));
    if let Some(last) = reps.iter().rev().find(|r| r.traced) {
        write_out(&format!("{stem}.spans.json"), &spans_json(&last.spans));
    }
    println!("{record}");
    let metrics = if args.trace { &layers } else { &e2e };
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(attempted as u64)),
        ("failed", Json::Int(failed as u64)),
        ("metrics", metrics_json(metrics)),
    ]);
    println!("{result}");
}
