//! Checker configuration.

/// How the checker picks among enabled action instances.
///
/// The paper's checker "makes a completely random selection from the set
/// of allowable actions" and names more targeted selection as future work
/// (§5.1). The strategies themselves — uniform, least-tried, and the
/// coverage-guided novelty strategy with its trace corpus — live in the
/// `quickstrom-explore` crate; this re-export keeps the checker API
/// stable. Every strategy produces reports that are bit-identical for
/// `jobs = 1` and `jobs = N` at a fixed seed (see DESIGN.md,
/// *Exploration engine*).
pub use quickstrom_explore::SelectionStrategy;

/// Which state abstraction the coverage fingerprint uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FingerprintMode {
    /// The spec-agnostic shape hash: every selector, bucketed text sizes
    /// (`quickstrom_protocol::fingerprint_state`).
    #[default]
    Shape,
    /// The spec-aware projection hash: only the selectors and element
    /// projections the compiled spec's static analysis says its atoms can
    /// read, with exact text
    /// (`quickstrom_protocol::fingerprint_state_masked` over
    /// `CompiledSpec::analysis` masks).
    SpecAware,
}

/// Whether each run executes as two overlapped pipeline stages or as the
/// classic sequential loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PipelineMode {
    /// Two-stage pipelined runtime: a *driver* stage owns the executor and
    /// the action strategy (selection needs only the snapshot/delta and
    /// coverage fingerprints, never the LTL verdict) and streams state
    /// updates into a bounded per-run channel; an *evaluator* stage
    /// consumes them — atom memo, automaton step, trace bookkeeping —
    /// lagging by up to [`CheckOptions::pipeline_depth`] states. A
    /// definitive verdict reached mid-pipeline cancels the driver and
    /// truncates the speculative tail, so reports stay bit-identical to
    /// [`PipelineMode::Off`] (pinned by the `differential_pipeline`
    /// suite).
    #[default]
    On,
    /// The sequential engine: perform → ingest → LTL-step before the next
    /// action fires. Always used for shrink replays, whose runs are short
    /// and verdict-bound, and by the reference checker
    /// ([`crate::oracle`]).
    Off,
}

impl PipelineMode {
    /// The mode's display name (also the `--pipeline` flag syntax).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            PipelineMode::On => "on",
            PipelineMode::Off => "off",
        }
    }

    /// Parses a `--pipeline` flag value.
    #[must_use]
    pub fn parse(s: &str) -> Option<PipelineMode> {
        match s {
            "on" | "pipelined" => Some(PipelineMode::On),
            "off" | "sequential" => Some(PipelineMode::Off),
            _ => None,
        }
    }
}

impl std::fmt::Display for PipelineMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Options controlling a checking session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckOptions {
    /// Number of test runs per property (each run is one generated
    /// interaction sequence).
    pub tests: usize,
    /// Action budget per run. Runs may exceed it only while required-next
    /// demands are outstanding (the formula determines the minimum trace
    /// length, §2.2).
    pub max_actions: usize,
    /// The demand subscript used for temporal operators without an
    /// explicit annotation. The paper's default is 100 (§4.3).
    pub default_demand: u32,
    /// RNG seed for action selection and input generation; runs are
    /// deterministic given a seed and a deterministic executor.
    pub seed: u64,
    /// Whether to minimise counterexamples by replaying sub-scripts.
    pub shrink: bool,
    /// How to pick among enabled actions (§5.1 extension).
    pub strategy: SelectionStrategy,
    /// Worker threads for the runs of one property. `0` and `1` both mean
    /// sequential. Any value produces a report identical to `jobs = 1`:
    /// run seeds derive from `(seed, run index)` alone and results merge
    /// in run-index order (see DESIGN.md, *Parallel runtime*).
    pub jobs: usize,
    /// Which state abstraction coverage fingerprints use.
    pub fingerprint: FingerprintMode,
    /// Maximum `(atom, projection-hash)` entries a property's shared
    /// expansion memo may hold before deterministic FIFO eviction.
    /// Clamped to at least 1.
    pub atom_memo_capacity: usize,
    /// Maximum residual states a property's evaluation automaton may
    /// intern before runs fall back to the plain stepper mid-run. The
    /// fallback is verdict-invisible; the cap only bounds memory and is
    /// exposed mainly so tests can force the fallback path.
    pub automaton_state_cap: usize,
    /// Whether runs execute as two overlapped stages (driver + evaluator,
    /// the default) or as the classic sequential loop. See
    /// [`PipelineMode`].
    pub pipeline: PipelineMode,
    /// How many states the driver stage may run ahead of the evaluator
    /// stage under [`PipelineMode::On`] — the bound of the per-run state
    /// channel. Larger depths hide more executor latency but speculate
    /// further past a mid-pipeline verdict (the speculative tail is always
    /// truncated, so the depth is report-invisible). Clamped to at least
    /// 1.
    pub pipeline_depth: usize,
    /// How many in-flight pipelined sessions each worker multiplexes
    /// (poll-driven, retired in run-index order so `jobs = N` determinism
    /// is preserved). `1` means one session at a time per worker; larger
    /// values help when the executor has real latency (remote executors,
    /// browsers). Report-invisible. Clamped to at least 1.
    pub multiplex: usize,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions {
            tests: 20,
            max_actions: 100,
            default_demand: 100,
            seed: 0,
            shrink: true,
            strategy: SelectionStrategy::UniformRandom,
            jobs: 1,
            fingerprint: FingerprintMode::Shape,
            atom_memo_capacity: 65_536,
            automaton_state_cap: 4096,
            pipeline: PipelineMode::On,
            pipeline_depth: 16,
            multiplex: 1,
        }
    }
}

impl CheckOptions {
    /// Returns the options with the given number of runs.
    #[must_use]
    pub fn with_tests(mut self, tests: usize) -> Self {
        self.tests = tests;
        self
    }

    /// Returns the options with the given action budget per run.
    #[must_use]
    pub fn with_max_actions(mut self, max_actions: usize) -> Self {
        self.max_actions = max_actions;
        self
    }

    /// Returns the options with the given default demand subscript.
    #[must_use]
    pub fn with_default_demand(mut self, demand: u32) -> Self {
        self.default_demand = demand;
        self
    }

    /// Returns the options with the given RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns the options with shrinking switched on or off.
    #[must_use]
    pub fn with_shrink(mut self, shrink: bool) -> Self {
        self.shrink = shrink;
        self
    }

    /// Returns the options with the given action-selection strategy.
    #[must_use]
    pub fn with_strategy(mut self, strategy: SelectionStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Returns the options with the given worker-thread count (`0` and `1`
    /// both mean sequential; the report is the same for every value).
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Returns the options with the given fingerprint abstraction.
    #[must_use]
    pub fn with_fingerprint(mut self, fingerprint: FingerprintMode) -> Self {
        self.fingerprint = fingerprint;
        self
    }

    /// Returns the options with the given atom-memo capacity (clamped to
    /// at least 1).
    #[must_use]
    pub fn with_atom_memo_capacity(mut self, capacity: usize) -> Self {
        self.atom_memo_capacity = capacity.max(1);
        self
    }

    /// Returns the options with the given automaton state cap (clamped to
    /// at least 1).
    #[must_use]
    pub fn with_automaton_state_cap(mut self, cap: usize) -> Self {
        self.automaton_state_cap = cap.max(1);
        self
    }

    /// Returns the options with the given pipeline mode.
    #[must_use]
    pub fn with_pipeline(mut self, pipeline: PipelineMode) -> Self {
        self.pipeline = pipeline;
        self
    }

    /// Returns the options with the given pipeline depth (clamped to at
    /// least 1 — a zero-capacity channel would be a rendezvous, i.e. no
    /// pipelining at all).
    #[must_use]
    pub fn with_pipeline_depth(mut self, depth: usize) -> Self {
        self.pipeline_depth = depth.max(1);
        self
    }

    /// Returns the options with the given per-worker session multiplexing
    /// factor (clamped to at least 1).
    #[must_use]
    pub fn with_multiplex(mut self, multiplex: usize) -> Self {
        self.multiplex = multiplex.max(1);
        self
    }

    /// The hard cap on actions in one run: the budget plus headroom for
    /// outstanding demands (a nested demand can require up to twice the
    /// default subscript in additional states).
    #[must_use]
    pub fn hard_action_cap(&self) -> usize {
        self.max_actions + 2 * self.default_demand as usize + 16
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let o = CheckOptions::default();
        assert_eq!(o.default_demand, 100);
        assert!(o.shrink);
        assert_eq!(o.fingerprint, FingerprintMode::Shape);
        assert_eq!(o.atom_memo_capacity, 65_536);
        assert_eq!(o.automaton_state_cap, 4096);
        assert_eq!(o.pipeline, PipelineMode::On);
        assert_eq!(o.pipeline_depth, 16);
        assert_eq!(o.multiplex, 1);
    }

    #[test]
    fn builder_methods() {
        let o = CheckOptions::default()
            .with_tests(5)
            .with_max_actions(30)
            .with_default_demand(10)
            .with_seed(42)
            .with_shrink(false)
            .with_strategy(SelectionStrategy::LeastTried)
            .with_jobs(4)
            .with_fingerprint(FingerprintMode::SpecAware)
            .with_atom_memo_capacity(0)
            .with_automaton_state_cap(0)
            .with_pipeline(PipelineMode::Off)
            .with_pipeline_depth(0)
            .with_multiplex(0);
        assert_eq!(o.pipeline, PipelineMode::Off);
        assert_eq!(o.pipeline_depth, 1, "pipeline depth clamps to at least 1");
        assert_eq!(o.multiplex, 1, "multiplex clamps to at least 1");
        assert_eq!(
            o.atom_memo_capacity, 1,
            "memo capacity clamps to at least 1"
        );
        assert_eq!(o.automaton_state_cap, 1, "cap clamps to at least 1");
        assert_eq!(o.fingerprint, FingerprintMode::SpecAware);
        assert_eq!(o.tests, 5);
        assert_eq!(o.max_actions, 30);
        assert_eq!(o.default_demand, 10);
        assert_eq!(o.seed, 42);
        assert!(!o.shrink);
        assert_eq!(o.strategy, SelectionStrategy::LeastTried);
        assert_eq!(o.jobs, 4);
        assert_eq!(o.hard_action_cap(), 30 + 20 + 16);
    }

    #[test]
    fn pipeline_mode_names_round_trip() {
        for mode in [PipelineMode::On, PipelineMode::Off] {
            assert_eq!(PipelineMode::parse(mode.name()), Some(mode));
            assert_eq!(mode.to_string(), mode.name());
        }
        assert_eq!(PipelineMode::parse("pipelined"), Some(PipelineMode::On));
        assert_eq!(PipelineMode::parse("sequential"), Some(PipelineMode::Off));
        assert_eq!(PipelineMode::parse("nope"), None);
    }
}
