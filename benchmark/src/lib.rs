//! Host-time benchmark for the CaRDS workspace.
//!
//! Every layer is measured from outside, by timing calls into its public
//! functions: `cards_passes::compile` and each pass, `Vm::new`/`Vm::run`,
//! `FarMemRuntime::guard`, and every `Transport` method (through
//! [`timed::TimedTransport`], which sits between the runtime and the real
//! transport inside VM runs). Nothing in the measured crates knows it is
//! being measured.
//!
//! A run is: set up (several times, for a steady `setup_s`), check outputs,
//! one warm-up round, then timed rounds of a fixed unit of work until the
//! time budget is spent. A traced run spends half of its budget untraced
//! and half recording spans, and adds the per-layer probes.

pub mod compare;
pub mod json;
mod layers;
mod micro;
pub mod output;
pub mod spans;
mod stats;
mod timed;
mod workloads;

use std::collections::BTreeMap;
use std::time::Instant;

use spans::SpanLog;
use workloads::{compile_workload, exec_workload, serve_workload};

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Compile a seeded program corpus; no VM, runtime or net work is timed.
    Compile,
    /// Seven paper programs with every structure pinned in local memory.
    Local,
    /// The same seven programs at the paper's operating point (25% local).
    Remote,
    /// Closed-loop GET requests from two client VMs over the sharded tier.
    Serve,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Compile,
        Workload::Local,
        Workload::Remote,
        Workload::Serve,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Compile => "compile",
            Workload::Local => "local",
            Workload::Remote => "remote",
            Workload::Serve => "serve",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// One run's settings.
#[derive(Clone, Debug)]
pub struct Config {
    pub workload: Workload,
    /// Seeds every input the workload generates.
    pub seed: u64,
    /// Time budget of the timed rounds.
    pub seconds: f64,
    /// Record spans and report the per-layer metrics.
    pub trace: bool,
    /// Test-sized inputs (each workload finishes in well under a second of
    /// work beyond its time budget).
    pub tiny: bool,
    /// Corrupt one expected output, so the checks must report failures.
    pub plant_wrong_reference: bool,
}

/// Default time budget of a run, in seconds: `BENCHMARK.json`'s
/// `run_seconds`, at which the bounds there were measured.
pub const DEFAULT_SECONDS: f64 = 20.0;

impl Config {
    pub fn new(workload: Workload, seed: u64) -> Self {
        Config {
            workload,
            seed,
            seconds: DEFAULT_SECONDS,
            trace: false,
            tiny: false,
            plant_wrong_reference: false,
        }
    }
}

/// Name and unit of one reported metric. Directions and bounds live in
/// `BENCHMARK.json`, which must list these tables in this order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec { name, unit }
}

/// End-to-end metrics, reported by every untraced run. An *op* is the
/// workload's unit of user-visible work: one program compiled (compile),
/// one program built into a VM and run (local, remote), one request
/// (serve). A *round* is the workload's fixed batch of ops. The tail
/// reported here is p90: on local and remote p99 would be the slowest
/// program's worst run, so it is a per-layer diagnostic.
pub const END_TO_END: [MetricSpec; 5] = [
    m("setup_s", "s"),
    m("round_ms", "ms"),
    m("op_p50_us", "us"),
    m("op_p90_us", "us"),
    m("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by every traced run. Names are
/// `<module>.<quantity>` for the crate that does the work.
pub const PER_LAYER: [MetricSpec; 53] = [
    // compile pipeline, per compile of the workload's program set
    m("ir.verify_ms", "ms"),
    m("dsa.analyze_ms", "ms"),
    m("passes.prefetch_ms", "ms"),
    m("passes.pool_alloc_ms", "ms"),
    m("passes.guards_ms", "ms"),
    m("passes.elide_ms", "ms"),
    m("passes.versioning_ms", "ms"),
    m("passes.compile_ms", "ms"),
    m("passes.residual_ms", "ms"),
    m("ir.insts_in", "count"),
    m("ir.insts_out", "count"),
    m("dsa.instances", "count"),
    m("passes.guards_inserted", "count"),
    m("passes.guards_elided", "count"),
    m("passes.elide_ratio", "ratio"),
    m("passes.versioned_loops", "count"),
    // VM, per round of VM work
    m("vm.self_ms", "ms"),
    m("vm.ns_per_inst", "ns"),
    m("vm.self_us_per_run", "us"),
    m("vm.instructions", "count"),
    m("vm.guards", "count"),
    m("vm.fast_path_ratio", "ratio"),
    m("vm.modeled_gcycles", "Gcycles"),
    m("vm.modeled_run_p99_kcycles", "kcycles"),
    // far-memory runtime
    m("runtime.guard_hit_ns", "ns"),
    m("runtime.guard_miss_ns", "ns"),
    m("runtime.obs_overhead_frac", "ratio"),
    m("runtime.hit_ratio", "ratio"),
    m("runtime.misses", "count"),
    m("runtime.evictions", "count"),
    m("runtime.prefetch_accuracy", "ratio"),
    m("runtime.retries", "count"),
    m("runtime.remote_run_ratio", "ratio"),
    // transport
    m("net.self_ms", "ms"),
    m("net.wait_us_per_run", "us"),
    m("net.calls", "count"),
    m("net.ns_per_call", "ns"),
    m("net.fetches", "count"),
    m("net.writebacks", "count"),
    m("net.mb_moved", "MB"),
    m("net.modeled_frac", "ratio"),
    m("net.sim_fetch_ns", "ns"),
    m("net.sharded_fetch_us", "us"),
    m("net.coalesced_ratio", "ratio"),
    m("net.train_fill", "ratio"),
    m("net.wire_fetches", "count"),
    m("net.failovers", "count"),
    // whole run
    m("op_p99_us", "us"),
    m("op_p999_us", "us"),
    m("trace.round_ms", "ms"),
    m("trace.overhead_frac", "ratio"),
    m("trace.spans", "count"),
    m("trace.spans_dropped", "count"),
];

/// A measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Counters and modeled quantities that must repeat exactly: across the
/// rounds of a run, between traced and untraced runs, and across runs of
/// one seed.
pub type Fingerprint = BTreeMap<&'static str, u64>;

/// Everything a run produced.
#[derive(Clone, Debug)]
pub struct Report {
    pub workload: Workload,
    pub seed: u64,
    pub trace: bool,
    /// Ops and output checks performed.
    pub attempted: u64,
    /// Ops that failed or whose output was wrong, plus failed checks.
    pub failed: u64,
    /// Why each failure was counted (first few).
    pub problems: Vec<String>,
    /// `END_TO_END` (untraced) or `PER_LAYER` (traced), in table order.
    pub metrics: Vec<Metric>,
    /// Workload-specific diagnostics (per-program times, sample counts).
    pub extra: Vec<Metric>,
    /// The warm-up round's fingerprint.
    pub fingerprint: Fingerprint,
    pub spans: Option<SpanLog>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Failure bookkeeping shared by every phase of a run.
#[derive(Clone, Debug, Default)]
pub(crate) struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Tally {
    /// Count `n` attempts, failing all of them when `ok` is false.
    pub fn check(&mut self, n: u64, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += n;
        if !ok {
            self.failed += n;
            if self.problems.len() < 16 {
                self.problems.push(what());
            }
        }
    }

    /// Require two fingerprints to match exactly.
    pub fn same(&mut self, what: &str, want: &Fingerprint, got: &Fingerprint) {
        self.check(1, want == got, || {
            let diff: Vec<String> = want
                .iter()
                .filter(|(k, v)| got.get(*k) != Some(v))
                .map(|(k, v)| format!("{k}: {v} vs {:?}", got.get(k)))
                .chain(
                    got.keys()
                        .filter(|k| !want.contains_key(*k))
                        .map(|k| format!("{k}: missing vs {}", got[k])),
                )
                .collect();
            format!("determinism: {what} differs: {}", diff.join(", "))
        });
    }
}

/// One round of a workload.
#[derive(Clone, Debug, Default)]
pub(crate) struct Round {
    pub wall_ns: u64,
    /// Latency of every op in the round.
    pub ops_ns: Vec<u64>,
    pub fingerprint: Fingerprint,
}

/// Run rounds of `round` until `seconds` have passed and at least
/// `min_rounds` ran.
pub(crate) fn rounds_for(
    seconds: f64,
    min_rounds: usize,
    mut round: impl FnMut() -> Result<Round, String>,
) -> Result<Vec<Round>, String> {
    let t0 = Instant::now();
    let mut out = Vec::new();
    while out.len() < min_rounds || t0.elapsed().as_secs_f64() < seconds {
        out.push(round()?);
    }
    Ok(out)
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 where the
/// kernel does not report it.
pub(crate) fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Threads this machine runs in parallel; recorded with every result,
/// since the serve workload's numbers depend on it.
pub(crate) fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Run one workload.
pub fn run(cfg: &Config) -> Result<Report, String> {
    match cfg.workload {
        Workload::Compile => compile_workload(cfg),
        Workload::Local | Workload::Remote => exec_workload(cfg),
        Workload::Serve => serve_workload(cfg),
    }
}
