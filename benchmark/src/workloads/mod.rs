//! The four workloads and what they share: running a VM under spans,
//! its deterministic counters, the untraced/traced measuring schedule,
//! and the assembly of the metric tables.

mod compile;
mod exec;
mod paper;
mod serve;

use std::collections::BTreeMap;
use std::time::Instant;

use cards_ir::Module;
use cards_net::Transport;
use cards_runtime::{RemotingPolicy, RuntimeConfig, TelemetryConfig, TraceConfig};
use cards_vm::Vm;

pub use compile::compile_workload;
pub use exec::exec_workload;
pub use serve::serve_workload;

use crate::layers::{metric, CompileTimes};
use crate::spans::{next_id, now_ns, timed, Span, SpanLog, Total};
use crate::stats::{median, percentile_sorted};
use crate::timed::TimedTransport;
use crate::{
    micro, parallelism, rounds_for, Config, Fingerprint, Metric, Report, Round, Tally, END_TO_END,
    PER_LAYER,
};

/// Spans a traced run keeps for `spans.json`; totals stay exact past it.
pub const SPAN_CAP: usize = 50_000;

/// Fewest set-ups per run; `setup_s` is their median. Cheap set-ups are
/// repeated until they have taken [`SETUP_SECONDS`] (at most
/// [`SETUP_MAX_REPS`] times), so their median is steady too.
pub(crate) const SETUP_REPS: usize = 3;
const SETUP_SECONDS: f64 = 2.0;
const SETUP_MAX_REPS: usize = 200;

/// Fewest timed rounds an untraced run makes, whatever its time budget;
/// each half of a traced run makes at least two.
const MIN_ROUNDS: usize = 3;

/// The runtime's recorders (telemetry ring, causal tracer) switched off:
/// the "observability off" side of `runtime.obs_overhead_frac`.
pub fn recorders_off(cfg: RuntimeConfig) -> RuntimeConfig {
    cfg.with_telemetry(TelemetryConfig::disabled())
        .with_trace(TraceConfig::disabled())
}

/// Counters of one VM since it was built (or, through [`RunStats::minus`],
/// of one call).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    pub ret: u64,
    /// The program's `@digest` global, where [`exec_main`] reads it.
    pub digest: u64,
    pub instructions: u64,
    pub guards: u64,
    pub fast_paths: u64,
    pub slow_paths: u64,
    pub cycles: u64,
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub prefetch_issued: u64,
    pub prefetch_useful: u64,
    pub retries: u64,
    pub fetches: u64,
    pub writebacks: u64,
    pub bytes: u64,
    pub net_cycles: u64,
}

impl RunStats {
    pub fn of<T: Transport>(vm: &Vm<T>, ret: u64) -> Self {
        let m = vm.metrics();
        let rt = vm.runtime();
        let mut s = RunStats {
            ret,
            instructions: m.instructions,
            guards: m.guards,
            fast_paths: m.fast_path_taken,
            slow_paths: m.slow_path_taken,
            cycles: m.cycles,
            retries: rt.stats().retries,
            ..RunStats::default()
        };
        for h in 0..rt.ds_count() {
            if let Some(d) = rt.ds_stats(h as u16) {
                s.hits += d.hits;
                s.misses += d.misses;
                s.evictions += d.evictions;
                s.prefetch_issued += d.prefetch_issued;
                s.prefetch_useful += d.prefetch_useful;
            }
        }
        let n = rt.net_stats();
        s.fetches = n.fetches;
        s.writebacks = n.writebacks;
        s.bytes = n.total_bytes();
        s.net_cycles = n.cycles;
        s
    }

    /// The counters accumulated since `earlier`, keeping this call's `ret`.
    pub fn minus(&self, e: &RunStats) -> RunStats {
        RunStats {
            ret: self.ret,
            digest: self.digest,
            instructions: self.instructions - e.instructions,
            guards: self.guards - e.guards,
            fast_paths: self.fast_paths - e.fast_paths,
            slow_paths: self.slow_paths - e.slow_paths,
            cycles: self.cycles - e.cycles,
            hits: self.hits - e.hits,
            misses: self.misses - e.misses,
            evictions: self.evictions - e.evictions,
            prefetch_issued: self.prefetch_issued - e.prefetch_issued,
            prefetch_useful: self.prefetch_useful - e.prefetch_useful,
            retries: self.retries - e.retries,
            fetches: self.fetches - e.fetches,
            writebacks: self.writebacks - e.writebacks,
            bytes: self.bytes - e.bytes,
            net_cycles: self.net_cycles - e.net_cycles,
        }
    }

    pub fn touched_remote(&self) -> bool {
        self.fetches + self.writebacks > 0
    }
}

/// Deterministic summary of a set of VM calls.
pub fn exec_fingerprint(runs: &[RunStats]) -> Fingerprint {
    let sum = |f: fn(&RunStats) -> u64| runs.iter().map(f).sum::<u64>();
    let mut cycles: Vec<u64> = runs.iter().map(|r| r.cycles).collect();
    cycles.sort_unstable();
    Fingerprint::from([
        ("vm.runs", runs.len() as u64),
        ("vm.instructions", sum(|r| r.instructions)),
        ("vm.guards", sum(|r| r.guards)),
        ("vm.fast_paths", sum(|r| r.fast_paths)),
        ("vm.slow_paths", sum(|r| r.slow_paths)),
        ("vm.cycles", sum(|r| r.cycles)),
        ("vm.run_p99_cycles", percentile_sorted(&cycles, 0.99)),
        (
            "vm.remote_runs",
            runs.iter().filter(|r| r.touched_remote()).count() as u64,
        ),
        ("runtime.hits", sum(|r| r.hits)),
        ("runtime.misses", sum(|r| r.misses)),
        ("runtime.evictions", sum(|r| r.evictions)),
        ("runtime.prefetch_issued", sum(|r| r.prefetch_issued)),
        ("runtime.prefetch_useful", sum(|r| r.prefetch_useful)),
        ("runtime.retries", sum(|r| r.retries)),
        ("net.fetches", sum(|r| r.fetches)),
        ("net.writebacks", sum(|r| r.writebacks)),
        ("net.bytes", sum(|r| r.bytes)),
        ("net.cycles", sum(|r| r.net_cycles)),
        (
            "checksum",
            runs.iter().fold(0u64, |a, r| a.wrapping_add(r.ret)),
        ),
        (
            "digest",
            runs.iter().fold(0u64, |a, r| a.wrapping_add(r.digest)),
        ),
    ])
}

/// Build a transport with `make` and a VM over it for `module`, run
/// `main`, drop the VM. With `log`, the steps are `vm.new` (containing
/// `net.new`, the transport's construction), `vm.run` and `vm.drop` spans
/// of request `req`, and every transport call inside the run is a `net.*`
/// span under `vm.run`.
pub fn exec_main<T: Transport>(
    module: Module,
    cfg: RuntimeConfig,
    make: impl FnOnce() -> T,
    (policy, k): (RemotingPolicy, u32),
    log: Option<&mut SpanLog>,
    req: u64,
) -> Result<RunStats, String> {
    let Some(log) = log else {
        let mut vm = Vm::new(module, cfg, TimedTransport::new(make()), policy, k);
        let ret = vm.run("main", &[]).map_err(|e| e.to_string())?;
        return Ok(RunStats {
            digest: vm.global_u64("digest").unwrap_or(0),
            ..RunStats::of(&vm, ret.unwrap_or(0))
        });
    };
    let new_id = next_id();
    let t0 = now_ns();
    let mut t = TimedTransport::new(make());
    let t1 = now_ns();
    t.start(log.child());
    let mut vm = Vm::new(module, cfg, t, policy, k);
    let t2 = now_ns();
    log.record(Span {
        name: "net.new",
        start_ns: t0,
        end_ns: t1,
        id: next_id(),
        parent: new_id,
        req,
        thread: log.thread(),
    });
    log.record(Span {
        name: "vm.new",
        start_ns: t0,
        end_ns: t2,
        id: new_id,
        parent: 0,
        req,
        thread: log.thread(),
    });
    let ret = timed(log, "vm.run", 0, req, |id| {
        vm.runtime_mut().transport_mut().set_parent(id, req);
        vm.run("main", &[])
    })
    .map_err(|e| e.to_string())?;
    let stats = RunStats {
        digest: vm.global_u64("digest").unwrap_or(0),
        ..RunStats::of(&vm, ret.unwrap_or(0))
    };
    let net = vm.runtime_mut().transport_mut().stop();
    timed(log, "vm.drop", 0, req, |_| drop(vm));
    log.absorb(net);
    Ok(stats)
}

/// Time `setup` repeatedly (see [`SETUP_REPS`]; twice when tiny) and keep
/// the last result.
pub fn repeated_setup<S>(
    cfg: &Config,
    mut setup: impl FnMut() -> Result<S, String>,
) -> Result<(Vec<f64>, S), String> {
    let again = |secs: &[f64]| {
        if cfg.tiny {
            secs.len() < 2
        } else {
            secs.len() < SETUP_REPS
                || (secs.len() < SETUP_MAX_REPS && secs.iter().sum::<f64>() < SETUP_SECONDS)
        }
    };
    let mut secs: Vec<f64> = Vec::new();
    let mut last = None;
    while again(&secs) {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup()?);
        secs.push(t0.elapsed().as_secs_f64());
    }
    Ok((secs, last.expect("at least one set-up")))
}

/// Rounds measured by one run.
pub struct Measured {
    pub untraced: Vec<Round>,
    pub traced: Vec<Round>,
    /// Span totals of each traced round.
    pub traced_spans: Vec<RoundSpans>,
    /// Spans of the traced rounds.
    pub log: SpanLog,
}

/// Untraced rounds for the whole budget; or, in a traced run, for half of
/// it followed by traced rounds for the other half.
pub fn measure(
    cfg: &Config,
    mut round: impl FnMut(Option<&mut SpanLog>) -> Result<Round, String>,
) -> Result<Measured, String> {
    let mut log = SpanLog::new(SPAN_CAP);
    let min = if cfg.tiny { 2 } else { MIN_ROUNDS };
    if !cfg.trace {
        let untraced = rounds_for(cfg.seconds, min, || round(None))?;
        return Ok(Measured {
            untraced,
            traced: Vec::new(),
            traced_spans: Vec::new(),
            log,
        });
    }
    let half = cfg.seconds / 2.0;
    let untraced = rounds_for(half, 2, || round(None))?;
    let mut traced_spans = Vec::new();
    let traced = rounds_for(half, 2, || {
        let mut rl = log.child();
        let r = round(Some(&mut rl))?;
        let instructions = r.fingerprint.get("vm.instructions").copied().unwrap_or(0);
        traced_spans.push(RoundSpans::of(&rl, instructions));
        log.absorb(rl);
        Ok(r)
    })?;
    Ok(Measured {
        untraced,
        traced,
        traced_spans,
        log,
    })
}

/// Every measured round, traced or not, must reproduce the warm-up
/// round's fingerprint.
pub fn check_rounds(tally: &mut Tally, warm: &Fingerprint, m: &Measured) {
    for (i, r) in m.untraced.iter().chain(&m.traced).enumerate() {
        tally.same(&format!("round {i} vs warm-up"), warm, &r.fingerprint);
    }
}

fn round_ms(rounds: &[Round]) -> f64 {
    median(
        &rounds
            .iter()
            .map(|r| r.wall_ns as f64 / 1e6)
            .collect::<Vec<_>>(),
    )
}

fn sorted_ops(rounds: &[Round]) -> Vec<u64> {
    let mut ops: Vec<u64> = rounds
        .iter()
        .flat_map(|r| r.ops_ns.iter().copied())
        .collect();
    ops.sort_unstable();
    ops
}

/// The `END_TO_END` table from the set-up times, the peak resident set
/// once set up and warmed up (the memory one round needs; read before the
/// timed rounds, because the VM does not reclaim a call's stack
/// allocations, so on `serve` the peak keeps growing with every request by
/// an amount set by how fast the machine ran), and the untraced rounds.
pub fn end_to_end(setup_s: &[f64], peak_rss_mb: f64, m: &Measured) -> Vec<Metric> {
    let ops = sorted_ops(&m.untraced);
    let us = |q: f64| percentile_sorted(&ops, q) as f64 / 1e3;
    let out = vec![
        metric("setup_s", median(setup_s), "s"),
        metric("round_ms", round_ms(&m.untraced), "ms"),
        metric("op_p50_us", us(0.50), "us"),
        metric("op_p90_us", us(0.90), "us"),
        metric("peak_rss_mb", peak_rss_mb, "MiB"),
    ];
    debug_assert!(out.iter().zip(END_TO_END).all(|(m, s)| m.name == s.name));
    out
}

/// One round of VM work as its spans saw it; the per-layer VM and net
/// times are medians of these over the traced rounds.
#[derive(Clone, Copy, Debug, Default)]
pub struct RoundSpans {
    /// `vm.*` spans (they contain every `net.*` span).
    pub vm: Total,
    pub net: Total,
    /// `vm.run` calls.
    pub runs: u64,
    /// Instructions the VMs executed.
    pub instructions: u64,
}

impl RoundSpans {
    pub fn of(log: &SpanLog, instructions: u64) -> Self {
        RoundSpans {
            vm: log.total_prefix("vm."),
            net: log.total_prefix("net."),
            runs: log.total("vm.run").count,
            instructions,
        }
    }
}

/// The sharded tier's interleaving-dependent counters (serve only).
#[derive(Clone, Copy, Debug, Default)]
pub struct TierStats {
    pub coalesced_ratio: f64,
    pub train_fill: f64,
    pub wire_fetches: u64,
    pub failovers: u64,
}

/// Everything a traced run measured, turned into the `PER_LAYER` table.
pub struct LayerInputs<'a> {
    pub compile: &'a CompileTimes,
    pub compile_fp: &'a Fingerprint,
    /// The traced rounds of VM work.
    pub exec: &'a [RoundSpans],
    /// Deterministic counters of one round of VM work
    /// ([`exec_fingerprint`] keys).
    pub exec_fp: &'a Fingerprint,
    /// Wall time with the runtime's recorders on over off, minus one.
    pub obs_overhead_frac: f64,
    pub tier: TierStats,
    pub measured: &'a Measured,
}

pub fn per_layer(cfg: &Config, t: LayerInputs) -> Result<Vec<Metric>, String> {
    let mut out: BTreeMap<String, Metric> = BTreeMap::new();
    let mut put = |m: Metric| {
        out.insert(m.name.clone(), m);
    };
    for m in t.compile.metrics(t.compile_fp) {
        put(m);
    }

    let med = |f: &dyn Fn(&RoundSpans) -> f64| median(&t.exec.iter().map(f).collect::<Vec<_>>());
    let self_ns = |r: &RoundSpans| r.vm.ns.saturating_sub(r.net.ns) as f64;
    let per = |a: f64, b: u64| if b == 0 { 0.0 } else { a / b as f64 };
    put(metric("vm.self_ms", med(&|r| self_ns(r) / 1e6), "ms"));
    put(metric(
        "vm.ns_per_inst",
        med(&|r| per(self_ns(r), r.instructions)),
        "ns",
    ));
    put(metric(
        "vm.self_us_per_run",
        med(&|r| per(self_ns(r), r.runs) / 1e3),
        "us",
    ));
    put(metric("net.self_ms", med(&|r| r.net.ns as f64 / 1e6), "ms"));
    put(metric(
        "net.wait_us_per_run",
        med(&|r| per(r.net.ns as f64, r.runs) / 1e3),
        "us",
    ));
    put(metric("net.calls", med(&|r| r.net.count as f64), "count"));
    put(metric(
        "net.ns_per_call",
        med(&|r| per(r.net.ns as f64, r.net.count)),
        "ns",
    ));

    let c = |k: &str| t.exec_fp.get(k).copied().unwrap_or(0) as f64;
    let ratio = |a: f64, b: f64, none: f64| if b == 0.0 { none } else { a / b };
    put(metric("vm.instructions", c("vm.instructions"), "count"));
    put(metric("vm.guards", c("vm.guards"), "count"));
    put(metric(
        "vm.fast_path_ratio",
        ratio(
            c("vm.fast_paths"),
            c("vm.fast_paths") + c("vm.slow_paths"),
            0.0,
        ),
        "ratio",
    ));
    put(metric(
        "vm.modeled_gcycles",
        c("vm.cycles") / 1e9,
        "Gcycles",
    ));
    put(metric(
        "vm.modeled_run_p99_kcycles",
        c("vm.run_p99_cycles") / 1e3,
        "kcycles",
    ));
    put(metric(
        "runtime.hit_ratio",
        ratio(
            c("runtime.hits"),
            c("runtime.hits") + c("runtime.misses"),
            1.0,
        ),
        "ratio",
    ));
    put(metric("runtime.misses", c("runtime.misses"), "count"));
    put(metric("runtime.evictions", c("runtime.evictions"), "count"));
    put(metric(
        "runtime.prefetch_accuracy",
        ratio(
            c("runtime.prefetch_useful"),
            c("runtime.prefetch_issued"),
            1.0,
        ),
        "ratio",
    ));
    put(metric("runtime.retries", c("runtime.retries"), "count"));
    put(metric(
        "runtime.remote_run_ratio",
        ratio(c("vm.remote_runs"), c("vm.runs"), 0.0),
        "ratio",
    ));
    put(metric(
        "runtime.obs_overhead_frac",
        t.obs_overhead_frac,
        "ratio",
    ));
    put(metric("net.fetches", c("net.fetches"), "count"));
    put(metric("net.writebacks", c("net.writebacks"), "count"));
    put(metric("net.mb_moved", c("net.bytes") / 1e6, "MB"));
    put(metric(
        "net.modeled_frac",
        ratio(c("net.cycles"), c("vm.cycles"), 0.0),
        "ratio",
    ));
    put(metric(
        "net.coalesced_ratio",
        t.tier.coalesced_ratio,
        "ratio",
    ));
    put(metric("net.train_fill", t.tier.train_fill, "ratio"));
    put(metric(
        "net.wire_fetches",
        t.tier.wire_fetches as f64,
        "count",
    ));
    put(metric("net.failovers", t.tier.failovers as f64, "count"));

    let (hit, miss, fetch, sharded) = if cfg.tiny {
        (2_000, 300, 2_000, 200)
    } else {
        (200_000, 20_000, 100_000, 5_000)
    };
    put(metric(
        "runtime.guard_hit_ns",
        micro::guard_hit_ns(hit)?,
        "ns",
    ));
    put(metric(
        "runtime.guard_miss_ns",
        micro::guard_miss_ns(miss)?,
        "ns",
    ));
    put(metric(
        "net.sim_fetch_ns",
        micro::sim_fetch_ns(fetch)?,
        "ns",
    ));
    put(metric(
        "net.sharded_fetch_us",
        micro::sharded_fetch_us(sharded)?,
        "us",
    ));

    let m = t.measured;
    let ops = sorted_ops(&m.untraced);
    for (name, q) in [("op_p99_us", 0.99), ("op_p999_us", 0.999)] {
        put(metric(name, percentile_sorted(&ops, q) as f64 / 1e3, "us"));
    }
    let traced_ms = round_ms(&m.traced);
    put(metric("trace.round_ms", traced_ms, "ms"));
    put(metric(
        "trace.overhead_frac",
        traced_ms / round_ms(&m.untraced) - 1.0,
        "ratio",
    ));
    put(metric("trace.spans", m.log.recorded() as f64, "count"));
    put(metric(
        "trace.spans_dropped",
        m.log.dropped() as f64,
        "count",
    ));

    PER_LAYER
        .iter()
        .map(|s| {
            out.remove(s.name)
                .ok_or_else(|| format!("per-layer metric {} was not measured", s.name))
        })
        .collect()
}

/// Package a finished run.
pub fn report(
    cfg: &Config,
    tally: Tally,
    metrics: Vec<Metric>,
    mut extra: Vec<Metric>,
    fingerprint: Fingerprint,
    measured: Measured,
) -> Report {
    extra.push(metric("rounds", measured.untraced.len() as f64, "count"));
    extra.push(metric(
        "ops",
        measured
            .untraced
            .iter()
            .map(|r| r.ops_ns.len())
            .sum::<usize>() as f64,
        "count",
    ));
    extra.push(metric(
        "available_parallelism",
        parallelism() as f64,
        "count",
    ));
    Report {
        workload: cfg.workload,
        seed: cfg.seed,
        trace: cfg.trace,
        attempted: tally.attempted,
        failed: tally.failed,
        problems: tally.problems,
        metrics,
        extra,
        fingerprint,
        spans: cfg.trace.then_some(measured.log),
    }
}
