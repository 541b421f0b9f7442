//! # cards-difftest
//!
//! Differential-testing oracle for the CaRDS pass pipeline and runtime.
//!
//! [`cards_ir::testgen`] produces seeded programs that exercise the
//! far-memory surface (DS-rooted allocation chains, pointer chasing, strided
//! loops, calls, frees, phis over DS pointers). Each seed is first executed
//! on an uninstrumented all-local VM — the *oracle* — and then under every
//! cell of a matrix. A cell ([`RunConfig`]) picks a pipeline (optimizer
//! only, TrackFM guard-all, full CaRDS), one of the paper's four remoting
//! policies, the local-memory budgets, and two fault axes that compose:
//!
//! - the **transport** axis ([`TransportSpec`]): clean, Bernoulli transient
//!   faults, or a phase-scripted chaos schedule (storm, crash loop);
//! - the **pressure** axis ([`PressureSpec`]): a budget schedule answered by
//!   the memory-pressure governor, on top of any transport.
//!
//! Two observables are compared:
//!
//! - the program's final return value (a checksum over everything computed),
//! - the heap digest the program accumulates in its `@digest` global (a
//!   rolling `hash64` over every heap cell it touches — sensitive to heap
//!   *contents*, not just the returned scalar).
//!
//! Any mismatch is a miscompile (or a runtime/VM bug) by construction: the
//! transformations are supposed to be semantics-preserving under every
//! policy, budget and fault schedule. One campaign loop ([`run_campaign`])
//! drives any matrix; [`config_matrix`], [`chaos_matrix`] and
//! [`pressure_matrix`] are the presets behind `cards difftest`, `cards
//! chaos` and `cards pressure`. It sums each cell's runtime counters and
//! its modeled-cycle overhead over a clean twin, shrinks divergent seeds by
//! delta debugging ([`minimize()`]), and persists them as reproducers.

pub mod minimize;

pub use minimize::minimize;

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use cards_ir::testgen::{generate, GenConfig};
use cards_ir::{print_module, verify_module, Module};
use cards_net::{ChaosSchedule, ChaosTransport, FaultyTransport, SimTransport, Transport};
use cards_passes::{compile, optimize, CompileOptions};
use cards_runtime::{
    PressureConfig, PressureSchedule, RemotingPolicy, RuntimeConfig, RuntimeStats,
};
use cards_vm::Vm;

/// What one execution of a program looks like from the outside. Two runs of
/// the same program are behaviourally equal iff their observations are equal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Observation {
    /// Final return value of `main` (`None` for void).
    pub ret: Option<u64>,
    /// Value of the program's `@digest` global after the run, if present.
    pub digest: Option<u64>,
    /// Trap/compile failure, rendered to a string. A trapping program must
    /// trap identically in every configuration.
    pub error: Option<String>,
}

impl Observation {
    fn failed(error: String) -> Self {
        Observation {
            ret: None,
            digest: None,
            error: Some(error),
        }
    }
}

impl fmt::Display for Observation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.error {
            Some(e) => write!(f, "error: {e}"),
            None => write!(f, "ret={:?} digest={:?}", self.ret, self.digest),
        }
    }
}

/// Which slice of the compilation pipeline a configuration runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pipeline {
    /// `optimize` only — no far-memory transformation, all-local execution.
    /// Flushes out folder/DCE/branch-simplification miscompiles in
    /// isolation.
    OptOnly,
    /// `optimize` + the TrackFM baseline pipeline (guard everything).
    TrackFm,
    /// `optimize` + the full CaRDS pipeline (DSA-pruned guards, selective
    /// remoting, versioned loops).
    Cards,
}

/// The transport axis: what the network does to a cell's remote traffic.
/// Bernoulli noise fails operations independently; the chaos schedules
/// drive *correlated* failure phases (loss bursts, latency spikes,
/// partitions, payload corruption, server crash/restart), and their
/// crashes actually lose unacknowledged server state — the runtime's
/// journal must win it back.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TransportSpec {
    /// A reliable transport.
    Clean,
    /// Independent transient faults ([`FaultyTransport`]).
    Faulty {
        /// Probability in `[0, 1]` that a fetch/put fails with `Transient`.
        rate: f64,
        /// Seed for the fault PRNG.
        seed: u64,
    },
    /// [`ChaosSchedule::storm`]: every phase kind including one
    /// crash/restart per lap.
    Storm(u64),
    /// [`ChaosSchedule::crash_loop`]: a crash/restart every ~78 ops.
    Crash(u64),
}

impl TransportSpec {
    fn build(self) -> Box<dyn Transport> {
        match self {
            TransportSpec::Clean => Box::new(SimTransport::default()),
            TransportSpec::Faulty { rate, seed } => {
                Box::new(FaultyTransport::new(SimTransport::default(), rate, seed))
            }
            TransportSpec::Storm(seed) => Box::new(ChaosTransport::new(ChaosSchedule::storm(seed))),
            TransportSpec::Crash(seed) => {
                Box::new(ChaosTransport::new(ChaosSchedule::crash_loop(seed)))
            }
        }
    }
}

const CLEAN: TransportSpec = TransportSpec::Clean;
/// The Bernoulli schedule the difftest matrix crosses every far cell with:
/// a deterministic 20% transient-fault storm the runtime must retry through.
const FAULTY: TransportSpec = TransportSpec::Faulty {
    rate: 0.2,
    seed: 0xfa17,
};
const STORM: TransportSpec = TransportSpec::Storm(0xca05);
const CRASH: TransportSpec = TransportSpec::Crash(0xca05);

/// The pressure axis: a deterministic memory-pressure schedule on the
/// runtime's local tier. Budgets shrink and recover mid-run, the governor
/// evicts, spills, and re-solves — and none of it may change observable
/// behaviour.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PressureSpec {
    /// Full budgets throughout, governor off.
    None,
    /// [`PressureSchedule::squeeze`]: staircase down to 25% pinned, then
    /// recovery.
    Squeeze,
    /// [`PressureSchedule::cliff`]: one sudden collapse to 10%, then
    /// recovery.
    Cliff,
    /// [`PressureSchedule::sawtooth`]: repeating shrink/restore ramps.
    Sawtooth,
}

impl PressureSpec {
    fn schedule(self) -> Option<PressureSchedule> {
        match self {
            PressureSpec::None => None,
            PressureSpec::Squeeze => Some(PressureSchedule::squeeze()),
            PressureSpec::Cliff => Some(PressureSchedule::cliff()),
            PressureSpec::Sawtooth => Some(PressureSchedule::sawtooth()),
        }
    }

    fn name(self) -> &'static str {
        match self {
            PressureSpec::None => "none",
            PressureSpec::Squeeze => "squeeze",
            PressureSpec::Cliff => "cliff",
            PressureSpec::Sawtooth => "sawtooth",
        }
    }
}

/// One cell of a differential matrix.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RunConfig {
    /// Pipeline slice under test.
    pub pipeline: Pipeline,
    /// Remoting policy handed to the VM.
    pub policy: RemotingPolicy,
    /// What the transport does to remote traffic.
    pub transport: TransportSpec,
    /// Memory-pressure schedule (enables the governor when set); applies on
    /// top of any transport.
    pub pressure: PressureSpec,
    /// Pinned-memory budget in bytes.
    pub pinned: u64,
    /// Remotable cache budget in bytes (small, to force eviction churn).
    pub cache: u64,
    /// Policy threshold `k` (percent).
    pub k: u32,
}

impl RunConfig {
    /// Short human-readable label, used in reports and file names:
    /// `pipeline/policy[/transport][/pressure-KIND][/pinnedNk]`. A far cell
    /// spells its pinned budget out unless it is the default for its kind:
    /// nothing pinned, or four objects under a pressure schedule (which
    /// needs something to shrink).
    pub fn label(&self) -> String {
        let pipe = match self.pipeline {
            Pipeline::OptOnly => "opt-only",
            Pipeline::TrackFm => "trackfm",
            Pipeline::Cards => "cards",
        };
        let pol = match self.policy {
            RemotingPolicy::AllRemotable => "all-remotable".to_string(),
            RemotingPolicy::Linear => "linear".to_string(),
            RemotingPolicy::Random { seed } => format!("random{seed}"),
            RemotingPolicy::MaxReach => "max-reach".to_string(),
            RemotingPolicy::MaxUse => "max-use".to_string(),
        };
        let mut label = format!("{pipe}/{pol}");
        match self.transport {
            TransportSpec::Clean => {}
            TransportSpec::Faulty { rate, seed } => label += &format!("/fault{rate:.2}@{seed}"),
            TransportSpec::Storm(seed) => label += &format!("/chaos-storm@{seed}"),
            TransportSpec::Crash(seed) => label += &format!("/chaos-crash@{seed}"),
        }
        let default_pinned = if self.pressure == PressureSpec::None {
            0
        } else {
            label += &format!("/pressure-{}", self.pressure.name());
            FOUR_PINNED.0
        };
        if self.pinned != default_pinned && self.pipeline != Pipeline::OptOnly {
            label += &format!("/pinned{}k", self.pinned / 1024);
        }
        label
    }

    /// The same cell with a clean transport and no pressure: the baseline
    /// a degraded cell's cycle overhead is measured against.
    pub fn clean(&self) -> RunConfig {
        RunConfig {
            transport: TransportSpec::Clean,
            pressure: PressureSpec::None,
            ..*self
        }
    }

    /// A VM running `module` (already prepared for this cell's pipeline)
    /// under this cell's budgets, policy, transport and pressure schedule.
    fn vm(&self, module: Module) -> Vm<Box<dyn Transport>> {
        let mut rt = RuntimeConfig::new(self.pinned, self.cache);
        if matches!(
            self.transport,
            TransportSpec::Storm(_) | TransportSpec::Crash(_)
        ) {
            // The retry budget must cover the schedule's longest all-fail
            // window (bounded at <= 12 ops by a cards-net test).
            rt = rt.with_max_retries(32);
        }
        if self.pressure != PressureSpec::None {
            rt = rt.with_pressure(PressureConfig::governed());
        }
        let mut vm = Vm::new(module, rt, self.transport.build(), self.policy, self.k);
        if let Some(sched) = self.pressure.schedule() {
            vm.runtime_mut().set_pressure_schedule(sched);
        }
        vm
    }
}

/// The paper's four remoting policies.
pub fn policies() -> [RemotingPolicy; 4] {
    [
        RemotingPolicy::Linear,
        RemotingPolicy::Random { seed: 9 },
        RemotingPolicy::MaxReach,
        RemotingPolicy::MaxUse,
    ]
}

const FAR: [Pipeline; 2] = [Pipeline::TrackFm, Pipeline::Cards];

/// The oracle's configuration, which is also every matrix's optimizer-only
/// cell: all-local budgets on a clean transport.
const ALL_LOCAL: RunConfig = RunConfig {
    pipeline: Pipeline::OptOnly,
    policy: RemotingPolicy::Linear,
    transport: TransportSpec::Clean,
    pressure: PressureSpec::None,
    pinned: 1 << 30,
    cache: 1 << 30,
    k: 100,
};

/// Local-memory budgets `(pinned, cache)` in bytes. Every far cell runs
/// under a deliberately tiny cache so data churns through the remote side.
type Budget = (u64, u64);
/// Nothing pinned, six objects cached: the Bernoulli-fault cells.
const SIX_CACHED: Budget = (0, 6 * 4096);
/// Nothing pinned, two objects cached: chaos phases only matter if data
/// actually moves, so force churn even on small programs.
const TWO_CACHED: Budget = (0, 2 * 4096);
/// Four objects pinned, four cached: a pinned budget for pressure schedules
/// to shrink, and a cache small enough that watermark sweeps fire.
const FOUR_PINNED: Budget = (4 * 4096, 4 * 4096);

/// The cell the replay-determinism check runs — one of [`config_matrix`]'s:
/// full CaRDS under max-use with Bernoulli faults, so a program whose data
/// leaves the cache puts retries into every export. Difftest's adversarial
/// programs mostly stay cache-resident; the chaos generator's do not.
const REPLAY_CELL: RunConfig = far(
    Pipeline::Cards,
    RemotingPolicy::MaxUse,
    FAULTY,
    PressureSpec::None,
    SIX_CACHED,
);

/// A far-memory cell at policy threshold 50.
const fn far(
    pipeline: Pipeline,
    policy: RemotingPolicy,
    transport: TransportSpec,
    pressure: PressureSpec,
    (pinned, cache): Budget,
) -> RunConfig {
    RunConfig {
        pipeline,
        policy,
        transport,
        pressure,
        pinned,
        cache,
        k: 50,
    }
}

/// The differential matrix behind `cards difftest` (25 cells): the
/// all-local optimizer-only cell, {TrackFM, CaRDS} × four policies ×
/// {clean, 20% Bernoulli faults}, and a sample of four chaos and four
/// pressure cells ([`chaos_matrix`] and [`pressure_matrix`] widen those).
pub fn config_matrix() -> Vec<RunConfig> {
    use PressureSpec::{Cliff, Sawtooth, Squeeze};
    let mut v = vec![ALL_LOCAL];
    for pipeline in FAR {
        for policy in policies() {
            for transport in [CLEAN, FAULTY] {
                v.push(far(
                    pipeline,
                    policy,
                    transport,
                    PressureSpec::None,
                    SIX_CACHED,
                ));
            }
        }
    }
    for (pipeline, transport, policy) in [
        (Pipeline::TrackFm, STORM, RemotingPolicy::Linear),
        (Pipeline::TrackFm, CRASH, RemotingPolicy::MaxUse),
        (Pipeline::Cards, STORM, RemotingPolicy::MaxUse),
        (Pipeline::Cards, CRASH, RemotingPolicy::Linear),
    ] {
        v.push(far(
            pipeline,
            policy,
            transport,
            PressureSpec::None,
            TWO_CACHED,
        ));
    }
    for (pipeline, pressure, policy) in [
        (Pipeline::Cards, Squeeze, RemotingPolicy::MaxUse),
        (Pipeline::Cards, Sawtooth, RemotingPolicy::Linear),
        (Pipeline::Cards, Cliff, RemotingPolicy::Random { seed: 9 }),
        (Pipeline::TrackFm, Squeeze, RemotingPolicy::MaxReach),
    ] {
        v.push(far(pipeline, policy, CLEAN, pressure, FOUR_PINNED));
    }
    v
}

/// The chaos preset behind `cards chaos` (20 cells): {TrackFM, CaRDS} × the
/// four policies × {storm, crash loop} with nothing pinned, plus {TrackFM,
/// CaRDS} × {storm, crash loop} with four objects pinned. With nothing
/// pinned every policy places alike; a pinned budget splits the structures
/// between the pinned set and a small cache, and that is where crashes land
/// on flushes and re-puts the journal must still cover. Chaos may cost
/// cycles, never correctness.
pub fn chaos_matrix() -> Vec<RunConfig> {
    let mut v = Vec::new();
    for pipeline in FAR {
        for policy in policies() {
            for transport in [STORM, CRASH] {
                v.push(far(
                    pipeline,
                    policy,
                    transport,
                    PressureSpec::None,
                    TWO_CACHED,
                ));
            }
        }
    }
    // At this budget TrackFM keeps nearly everything local; max-use is the
    // placement that still leaves it remote traffic.
    for (pipeline, policy) in [
        (Pipeline::TrackFm, RemotingPolicy::MaxUse),
        (Pipeline::Cards, RemotingPolicy::Linear),
    ] {
        for transport in [STORM, CRASH] {
            v.push(far(
                pipeline,
                policy,
                transport,
                PressureSpec::None,
                FOUR_PINNED,
            ));
        }
    }
    v
}

/// The pressure preset behind `cards pressure` (36 cells): {TrackFM,
/// CaRDS} × the four policies × {squeeze, cliff, sawtooth} on a clean
/// transport, plus the composed cells — {TrackFM, CaRDS} × {storm, crash
/// loop} × the three schedules, one policy per cell rotating through the
/// four — where the network fails while the local tier starves. Pressure
/// may cost cycles, never correctness.
pub fn pressure_matrix() -> Vec<RunConfig> {
    use PressureSpec::{Cliff, Sawtooth, Squeeze};
    let mut v = Vec::new();
    for pipeline in FAR {
        for policy in policies() {
            for pressure in [Squeeze, Cliff, Sawtooth] {
                v.push(far(pipeline, policy, CLEAN, pressure, FOUR_PINNED));
            }
        }
    }
    let mut rotation = policies().into_iter().cycle();
    for pipeline in FAR {
        for transport in [STORM, CRASH] {
            for pressure in [Squeeze, Cliff, Sawtooth] {
                let policy = rotation.next().expect("an endless rotation");
                v.push(far(pipeline, policy, transport, pressure, FOUR_PINNED));
            }
        }
    }
    v
}

/// Counters harvested from one cell run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CellStats {
    /// The runtime's own counters: retries, timeouts, crashes, journal
    /// replays, governor activity, modeled cycles.
    pub runtime: RuntimeStats,
    /// Circuit-breaker trips summed over every data structure.
    pub breaker_trips: u64,
}

/// Optimize and re-verify `m` (a pass that emits malformed IR is reported
/// as an error observation rather than crashing the VM), then compile it
/// for the far pipelines.
fn prepare(m: &Module, pipeline: Pipeline) -> Result<Module, String> {
    let mut module = m.clone();
    optimize(&mut module);
    if let Some(e) = verify_module(&module).first() {
        return Err(format!("post-optimize verify failed: {e:?}"));
    }
    let opts = match pipeline {
        Pipeline::OptOnly => return Ok(module),
        Pipeline::TrackFm => CompileOptions::trackfm(),
        Pipeline::Cards => CompileOptions::cards(),
    };
    compile(module, opts)
        .map(|c| c.module)
        .map_err(|e| format!("compile failed: {e}"))
}

fn run(mut vm: Vm<Box<dyn Transport>>) -> (Observation, CellStats) {
    let obs = match vm.run("main", &[]) {
        Ok(ret) => Observation {
            ret,
            digest: vm.global_u64("digest"),
            error: None,
        },
        Err(e) => Observation::failed(e.to_string()),
    };
    let rt = vm.runtime();
    let stats = CellStats {
        runtime: rt.stats(),
        breaker_trips: (0..rt.ds_count() as u16)
            .filter_map(|h| rt.ds_stats(h))
            .map(|s| s.breaker_trips)
            .sum(),
    };
    (obs, stats)
}

/// Run `m` untransformed and unoptimized on plain local memory — the ground
/// truth every configuration is compared against.
pub fn observe_oracle(m: &Module) -> Observation {
    run(ALL_LOCAL.vm(m.clone())).0
}

/// Run `m` under one matrix cell: optimized, re-verified, compiled for the
/// cell's pipeline, then executed under its budgets, transport and pressure
/// schedule. Returns what the program computed and the run's counters.
pub fn observe(m: &Module, cfg: &RunConfig) -> (Observation, CellStats) {
    match prepare(m, cfg.pipeline) {
        Ok(module) => run(cfg.vm(module)),
        Err(e) => (Observation::failed(e), CellStats::default()),
    }
}

/// The replay-determinism cell: compiling the same program twice must yield
/// an identical attribution-site table (site IDs are a function of the
/// program, not of compile order), and running each compile once under
/// one fixed cell (full CaRDS, max-use, Bernoulli faults) must emit byte-identical profile JSON and causal-trace
/// export (`cards-ttrace-v1`), with the trace cross-sums intact. Profiles
/// and spans are keyed off the modeled clock and deterministic ids, so a
/// wall-clock or iteration-order leak shows up here as a byte diff — which
/// would poison every cross-run diff.
pub fn check_replay_determinism(m: &Module) -> Result<(), String> {
    let cfg = REPLAY_CELL;
    // Uncompilable programs have nothing to destabilize.
    let Ok(first) = prepare(m, cfg.pipeline) else {
        return Ok(());
    };
    let second = prepare(m, cfg.pipeline).map_err(|e| format!("recompile: {e}"))?;
    if first.sites != second.sites {
        return Err(format!(
            "site table unstable across recompiles: {} vs {} sites",
            first.sites.len(),
            second.sites.len()
        ));
    }
    let export = |module: Module| {
        let mut vm = cfg.vm(module);
        // A trapping program must profile and trace identically too.
        let _ = vm.run("main", &[]);
        cards_vm::check_traces(&vm)?;
        Ok::<_, String>((cards_vm::profile_json(&vm), cards_vm::ttrace_json(&vm)))
    };
    let ((profile_a, trace_a), (profile_b, trace_b)) = (export(first)?, export(second)?);
    if profile_a != profile_b {
        return Err("profile output not byte-identical under same-seed replay".into());
    }
    if trace_a != trace_b {
        return Err("trace export not byte-identical under same-seed replay".into());
    }
    Ok(())
}

/// One configuration disagreeing with the oracle.
#[derive(Clone, Debug, PartialEq)]
pub struct Divergence {
    /// The matrix cell that disagreed.
    pub config: RunConfig,
    /// What it observed instead.
    pub got: Observation,
}

/// Differential result for one program.
#[derive(Clone, Debug, PartialEq)]
pub struct SeedReport {
    /// The testgen seed (0 for hand-supplied modules).
    pub seed: u64,
    /// Ground-truth observation.
    pub oracle: Observation,
    /// Every matrix cell that diverged from the oracle.
    pub divergences: Vec<Divergence>,
}

/// Remove the `"counters":{...}` span (the single interleaving-dependent
/// region of the fleet export), brace-matched, so two runs can be
/// byte-compared.
fn strip_fleet_counters(s: &str) -> String {
    let key = "\"counters\":";
    let start = match s.find(key) {
        Some(i) => i,
        None => return s.to_string(),
    };
    let bytes = s.as_bytes();
    let open = start + key.len();
    if bytes.get(open) != Some(&b'{') {
        return s.to_string();
    }
    let mut depth = 0usize;
    let mut end = open;
    for (i, &b) in bytes.iter().enumerate().skip(open) {
        if b == b'{' {
            depth += 1;
        } else if b == b'}' {
            depth -= 1;
            if depth == 0 {
                end = i + 1;
                break;
            }
        }
    }
    format!("{}{}", &s[..start], &s[end..])
}

/// The fleet-determinism cell: two identical fault-free replicated serving
/// runs must emit byte-identical `cards-fleet-v2` exports once the
/// trailing `"counters"` subobject (shared tier tallies and cumulative
/// per-shard event counts, the one interleaving-dependent region) is
/// stripped. Any wall-clock timestamp,
/// thread-id, or map-iteration-order leak in the fleet collector shows up
/// here as a byte diff.
pub fn check_fleet_determinism() -> Result<(), String> {
    use cards_ir::{BinOp, FunctionBuilder, Intrinsic, Type, Value};
    use cards_net::{NetworkModel, ShardedConfig};
    use cards_vm::{fleet_json, run_serving, ServeSpec};

    // A tiny split serving workload (the workloads crate would be a
    // dependency cycle): `setup` fills two 4 KiB arrays; `request` reads a
    // hashed slot of both. Starved of cache, the serve phase
    // localize-thrashes and produces the traced wire traffic the fleet
    // plane joins.
    let n = 512i64;
    let mut m = Module::new("fleet-mini");
    let ga = m.add_global("arr_a", Type::Ptr, None);
    let gb = m.add_global("arr_b", Type::Ptr, None);
    {
        let mut b = FunctionBuilder::new("setup", vec![], Type::I64);
        let total = b.iconst(n * 8);
        let a = b.alloc(total, Type::I64);
        let c = b.alloc(total, Type::I64);
        let (z, one) = (b.iconst(0), b.iconst(1));
        b.counted_loop(z, b.iconst(n), one, |b, i| {
            let pa = b.gep_index(a, Type::I64, i);
            let va = b.mul(i, b.iconst(7));
            b.store(pa, va, Type::I64);
            let pb = b.gep_index(c, Type::I64, i);
            let vb = b.mul(i, b.iconst(11));
            b.store(pb, vb, Type::I64);
        });
        b.store(Value::Global(ga), a, Type::Ptr);
        b.store(Value::Global(gb), c, Type::Ptr);
        b.ret(b.iconst(n));
        m.add_function(b.finish());
    }
    {
        let mut b = FunctionBuilder::new("request", vec![Type::I64, Type::I64], Type::I64);
        let a = b.load(Value::Global(ga), Type::Ptr);
        let c = b.load(Value::Global(gb), Type::Ptr);
        let (t, i) = (b.arg(0), b.arg(1));
        let x = b.bin(BinOp::Xor, t, i, Type::I64);
        let h = b.intrin(Intrinsic::Hash64, vec![x]);
        let mask = b.iconst(n - 1);
        let k = b.bin(BinOp::And, h, mask, Type::I64);
        let pa = b.gep_index(a, Type::I64, k);
        let va = b.load(pa, Type::I64);
        let pb = b.gep_index(c, Type::I64, k);
        let vb = b.load(pb, Type::I64);
        let v = b.add(va, vb);
        b.ret(v);
        m.add_function(b.finish());
    }
    if !verify_module(&m).is_empty() {
        return Err("fleet-mini module fails verification".into());
    }
    let c = compile(m, CompileOptions::cards()).map_err(|e| format!("compile: {e}"))?;
    let mut net = ShardedConfig {
        shards: 2,
        train_len: 4,
        window: 2,
        ..ShardedConfig::default()
    };
    net.replica.replicas = 2;
    let spec = ServeSpec {
        workers: 2,
        tenants: 8,
        ops_per_tenant: 16,
        net,
        model: NetworkModel::default(),
    };
    let cfg = RuntimeConfig::new(0, 4096);
    let mut exports = Vec::new();
    for run in 0..2 {
        let r = run_serving(&c.module, spec, cfg, RemotingPolicy::AllRemotable, 0)
            .map_err(|e| format!("serving run {run}: {e}"))?;
        cards_vm::check_fleet(&r).map_err(|e| format!("fleet invariants (run {run}): {e}"))?;
        exports.push(fleet_json("fleet-mini", &spec, &r));
    }
    let (a, b) = (
        strip_fleet_counters(&exports[0]),
        strip_fleet_counters(&exports[1]),
    );
    if a.len() >= exports[0].len() {
        return Err("fleet export carries no counters region to strip".into());
    }
    if a != b {
        return Err(
            "fleet export not byte-identical across identical runs outside counters".into(),
        );
    }
    Ok(())
}

/// Compare `m` against the oracle under every cell of `matrix`, plus the
/// replay-determinism cell; also returns each cell's counters, in matrix
/// order.
fn check_cells(m: &Module, seed: u64, matrix: &[RunConfig]) -> (SeedReport, Vec<CellStats>) {
    let oracle = observe_oracle(m);
    let mut divergences = Vec::new();
    let mut stats = Vec::with_capacity(matrix.len());
    for cfg in matrix {
        let (got, s) = observe(m, cfg);
        if got != oracle {
            divergences.push(Divergence { config: *cfg, got });
        }
        stats.push(s);
    }
    if let Err(e) = check_replay_determinism(m) {
        divergences.push(Divergence {
            config: REPLAY_CELL,
            got: Observation::failed(format!("replay determinism: {e}")),
        });
    }
    (
        SeedReport {
            seed,
            oracle,
            divergences,
        },
        stats,
    )
}

/// Compare `m` against the oracle under every cell of [`config_matrix`],
/// plus the replay-determinism cell.
pub fn check_module(m: &Module, seed: u64) -> SeedReport {
    check_cells(m, seed, &config_matrix()).0
}

/// Generate the program for `seed` and compare it across the matrix.
pub fn check_seed(seed: u64, gen: GenConfig) -> SeedReport {
    check_module(&generate(seed, gen), seed)
}

/// Shrink a diverging module while it still diverges from its own oracle
/// under at least one of `cfgs` (the originally-failing cells — re-checking
/// only those keeps minimization cheap).
pub fn minimize_divergence(m: &Module, cfgs: &[RunConfig]) -> Module {
    minimize(
        m,
        &|cand| {
            let oracle = observe_oracle(cand);
            if oracle.error.is_some() {
                // A shrink that makes the oracle itself trap is not the
                // same bug; reject it.
                return false;
            }
            cfgs.iter().any(|c| observe(cand, c).0 != oracle)
        },
        8,
    )
}

/// Campaign parameters for [`run_campaign`].
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Number of seeds to fuzz.
    pub seeds: u64,
    /// First seed (seeds are `start_seed..start_seed + seeds`).
    pub start_seed: u64,
    /// Program-shape knobs handed to testgen.
    pub gen: GenConfig,
    /// Delta-debug diverging seeds down to minimal reproducers.
    pub minimize: bool,
    /// Where to persist reproducers (`None` disables persistence).
    pub out_dir: Option<PathBuf>,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            seeds: 50,
            start_seed: 1,
            gen: GenConfig::adversarial(),
            minimize: false,
            out_dir: None,
        }
    }
}

/// Aggregated outcome of one matrix cell across a whole campaign.
#[derive(Clone, Debug, Default)]
pub struct CellReport {
    /// The cell's [`RunConfig::label`].
    pub label: String,
    /// Seeds that diverged from the all-local oracle in this cell.
    pub divergent: Vec<u64>,
    /// The cell's counters, summed over every seed.
    pub stats: CellStats,
    /// Modeled cycles of the cell's clean twin ([`RunConfig::clean`]),
    /// summed over every seed.
    pub clean_cycles: u64,
}

impl CellReport {
    /// Modeled cycles relative to the clean twin: what the cell's faults
    /// cost (1.0 for a clean cell).
    pub fn overhead(&self) -> f64 {
        if self.clean_cycles == 0 {
            1.0
        } else {
            self.stats.runtime.cycles as f64 / self.clean_cycles as f64
        }
    }
}

/// Campaign outcome.
#[derive(Clone, Debug, Default)]
pub struct CampaignReport {
    /// Seeds executed.
    pub seeds_run: u64,
    /// Per-cell aggregates, in matrix order.
    pub cells: Vec<CellReport>,
    /// Seeds with at least one divergence.
    pub divergent: Vec<u64>,
    /// One human-readable line per divergence.
    pub log: Vec<String>,
    /// Reproducer files written under `out_dir`.
    pub artifacts: Vec<PathBuf>,
}

fn persist_reproducer(
    dir: &Path,
    report: &SeedReport,
    module: &Module,
    minimized: Option<&Module>,
    artifacts: &mut Vec<PathBuf>,
) -> std::io::Result<()> {
    fs::create_dir_all(dir)?;
    let orig = dir.join(format!("seed_{}.orig.cir", report.seed));
    fs::write(&orig, print_module(module))?;
    artifacts.push(orig);
    if let Some(min) = minimized {
        let minp = dir.join(format!("seed_{}.min.cir", report.seed));
        fs::write(&minp, print_module(min))?;
        artifacts.push(minp);
    }
    let mut txt = format!(
        "seed: {}\noracle: {}\ndivergences: {}\n",
        report.seed,
        report.oracle,
        report.divergences.len()
    );
    for d in &report.divergences {
        txt.push_str(&format!("  [{}] {}\n", d.config.label(), d.got));
    }
    let rep = dir.join(format!("seed_{}.report.txt", report.seed));
    fs::write(&rep, txt)?;
    artifacts.push(rep);
    Ok(())
}

/// Fuzz `cfg.seeds` generated programs through `matrix`, summing each
/// cell's counters and its clean twin's cycles, and persisting (optionally
/// minimized) reproducers for every divergence found.
pub fn run_campaign(matrix: &[RunConfig], cfg: &CampaignConfig) -> std::io::Result<CampaignReport> {
    let mut report = CampaignReport {
        cells: matrix
            .iter()
            .map(|c| CellReport {
                label: c.label(),
                ..Default::default()
            })
            .collect(),
        ..Default::default()
    };
    for seed in cfg.start_seed..cfg.start_seed + cfg.seeds {
        let module = generate(seed, cfg.gen);
        let (sr, stats) = check_cells(&module, seed, matrix);
        report.seeds_run += 1;
        // Cells that share a clean twin, or are their own, run it once.
        let mut twins: Vec<(RunConfig, u64)> = matrix
            .iter()
            .zip(&stats)
            .filter(|(c, _)| c.clean() == **c)
            .map(|(c, s)| (*c, s.runtime.cycles))
            .collect();
        for ((c, cell), s) in matrix.iter().zip(&mut report.cells).zip(&stats) {
            let twin = c.clean();
            let clean_cycles = match twins.iter().find(|(t, _)| *t == twin) {
                Some(&(_, cycles)) => cycles,
                None => {
                    let cycles = observe(&module, &twin).1.runtime.cycles;
                    twins.push((twin, cycles));
                    cycles
                }
            };
            cell.stats.runtime += s.runtime;
            cell.stats.breaker_trips += s.breaker_trips;
            cell.clean_cycles += clean_cycles;
        }
        if sr.divergences.is_empty() {
            continue;
        }
        report.divergent.push(seed);
        for d in &sr.divergences {
            if let Some(cell) = matrix
                .iter()
                .position(|c| *c == d.config)
                .map(|i| &mut report.cells[i])
            {
                if cell.divergent.last() != Some(&seed) {
                    cell.divergent.push(seed);
                }
            }
            report.log.push(format!(
                "seed {seed} [{}]: oracle {} vs {}",
                d.config.label(),
                sr.oracle,
                d.got
            ));
        }
        let minimized = cfg.minimize.then(|| {
            let cfgs: Vec<RunConfig> = sr.divergences.iter().map(|d| d.config).collect();
            minimize_divergence(&module, &cfgs)
        });
        if let Some(dir) = &cfg.out_dir {
            persist_reproducer(dir, &sr, &module, minimized.as_ref(), &mut report.artifacts)?;
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cards_ir::{BinOp, CastOp, FunctionBuilder, Inst, Type, Value};

    #[test]
    fn matrix_covers_policies_pipelines_and_fault_schedules() {
        let m = config_matrix();
        assert_eq!(m.len(), 25);
        let far: Vec<&RunConfig> = m
            .iter()
            .filter(|c| c.pipeline != Pipeline::OptOnly)
            .collect();
        for p in policies() {
            assert!(far.iter().any(|c| c.policy == p), "missing policy {p:?}");
        }
        let faulty = far
            .iter()
            .filter(|c| matches!(c.transport, TransportSpec::Faulty { rate, .. } if rate > 0.0))
            .count();
        let clean = far.iter().filter(|c| c.clean() == ***c).count();
        let chaos = far
            .iter()
            .filter(|c| {
                matches!(
                    c.transport,
                    TransportSpec::Storm(_) | TransportSpec::Crash(_)
                )
            })
            .count();
        let pressure = far
            .iter()
            .filter(|c| c.pressure != PressureSpec::None)
            .count();
        assert_eq!(faulty, 8, "each far cell pairs with a faulty twin");
        assert_eq!(clean, 8);
        assert_eq!(chaos, 4, "both pipelines see storm and crash chaos");
        assert_eq!(pressure, 4, "both pipelines see pressure schedules");
        for pipeline in [Pipeline::TrackFm, Pipeline::Cards] {
            assert!(far
                .iter()
                .any(|c| c.pipeline == pipeline && c.transport == STORM));
            assert!(far
                .iter()
                .any(|c| c.pipeline == pipeline && c.transport == CRASH));
            assert!(far
                .iter()
                .any(|c| c.pipeline == pipeline && c.pressure != PressureSpec::None));
        }
        // Every pressure schedule kind appears somewhere in the sample.
        for spec in [
            PressureSpec::Squeeze,
            PressureSpec::Cliff,
            PressureSpec::Sawtooth,
        ] {
            assert!(far.iter().any(|c| c.pressure == spec), "missing {spec:?}");
        }
        assert!(m.iter().any(|c| c.pipeline == Pipeline::OptOnly));
        assert!(m.iter().any(|c| c.pipeline == Pipeline::TrackFm));
        assert!(m.iter().any(|c| c.pipeline == Pipeline::Cards));
    }

    #[test]
    fn chaos_matrix_is_the_full_cross_product() {
        let m = chaos_matrix();
        assert_eq!(
            m.len(),
            20,
            "2 pipelines x 4 policies x 2 chaos kinds, plus 2 x 2 pinned"
        );
        assert!(m
            .iter()
            .all(|c| c.transport == STORM || c.transport == CRASH));
        assert!(m.iter().all(|c| c.pressure == PressureSpec::None));
        let pinned: Vec<&RunConfig> = m.iter().filter(|c| c.pinned > 0).collect();
        assert_eq!(pinned.len(), 4, "both pipelines x both kinds, pinned");
        for pipeline in FAR {
            for transport in [STORM, CRASH] {
                assert!(pinned
                    .iter()
                    .any(|c| c.pipeline == pipeline && c.transport == transport));
            }
        }
        let labels: std::collections::HashSet<String> = m.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), m.len());
    }

    #[test]
    fn pressure_matrix_is_the_full_cross_product() {
        let m = pressure_matrix();
        assert_eq!(
            m.len(),
            36,
            "2 pipelines x 4 policies x 3 schedules, plus 2 x 2 chaos x 3 composed"
        );
        assert!(m.iter().all(|c| c.pressure != PressureSpec::None));
        let clean = m
            .iter()
            .filter(|c| c.transport == TransportSpec::Clean)
            .count();
        assert_eq!(clean, 24);
        let composed: Vec<&RunConfig> = m
            .iter()
            .filter(|c| c.transport == STORM || c.transport == CRASH)
            .collect();
        assert_eq!(composed.len(), 12, "every other cell composes both axes");
        for p in policies() {
            let n = composed.iter().filter(|c| c.policy == p).count();
            assert_eq!(n, 3, "composed cells rotate through the policies");
        }
        assert!(
            m.iter().all(|c| c.pinned > 0),
            "schedules need a pinned budget to shrink"
        );
        let labels: std::collections::HashSet<String> = m.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), m.len());
    }

    /// A slice of the acceptance bar (the CI campaign runs the full seed
    /// range): a starving, recovering local tier — watermark sweeps,
    /// spills, forced re-solves — must never change observable behaviour,
    /// and the schedules must actually fire so the governor is exercised,
    /// not skipped.
    fn chaos_sample(matrix: &[RunConfig]) -> CampaignReport {
        let cfg = CampaignConfig {
            seeds: 3,
            gen: GenConfig::chaos(),
            ..Default::default()
        };
        run_campaign(matrix, &cfg).expect("no reproducers are persisted")
    }

    #[test]
    fn pressure_campaign_sample_matches_oracle() {
        let r = chaos_sample(&pressure_matrix());
        assert_eq!(r.seeds_run, 3);
        assert!(
            r.divergent.is_empty(),
            "pressure must not change results: {:?}\n{}",
            r.divergent,
            r.log.join("\n")
        );
        let phases: u64 = r
            .cells
            .iter()
            .map(|c| c.stats.runtime.pressure_phase_changes)
            .sum();
        assert!(phases > 0, "pressure phases must fire across the campaign");
        let activity: u64 = r
            .cells
            .iter()
            .map(|c| {
                let s = &c.stats.runtime;
                s.pressure_high_crossings
                    + s.proactive_evictions
                    + s.spill_reads
                    + s.spill_writes
                    + s.resolves
            })
            .sum();
        assert!(activity > 0, "the governor must actually do something");
        // The composed cells run both axes at once: crashes fire while the
        // pressure schedule walks its phases.
        for c in r.cells.iter().filter(|c| c.label.contains("chaos-crash")) {
            let s = &c.stats.runtime;
            assert!(s.crashes_detected > 0, "{}: no crash fired", c.label);
            assert!(s.pressure_phase_changes > 0, "{}: no phase fired", c.label);
        }
    }

    #[test]
    fn oracle_runs_adversarial_programs_clean() {
        for seed in [1, 2, 3] {
            let m = generate(seed, GenConfig::adversarial());
            let o = observe_oracle(&m);
            assert!(o.error.is_none(), "seed {seed}: {o}");
            assert!(o.digest.is_some(), "generated programs carry @digest");
        }
    }

    #[test]
    fn observations_are_deterministic() {
        let a = check_seed(5, GenConfig::adversarial());
        let b = check_seed(5, GenConfig::adversarial());
        assert_eq!(a, b);
    }

    /// The replay-determinism cell holds on fuzzed programs: recompiling
    /// and replaying under the same fault seed emits byte-identical profile
    /// and cards-ttrace-v1 exports. The chaos generator's programs outgrow
    /// the cell's cache, so those exports carry retries.
    #[test]
    fn trace_exports_are_replay_deterministic() {
        for gen in [GenConfig::adversarial(), GenConfig::chaos()] {
            for seed in [1, 2, 3] {
                let m = generate(seed, gen);
                check_replay_determinism(&m).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            }
        }
        let retries: u64 = (1..=3)
            .map(|seed| {
                let m = generate(seed, GenConfig::chaos());
                observe(&m, &REPLAY_CELL).1.runtime.retries
            })
            .sum();
        assert!(retries > 0, "the replayed exports never saw a retry");
    }

    /// The fleet-determinism cell holds: two identical replicated serving
    /// runs emit byte-identical cards-fleet-v2 exports outside the stripped
    /// counters region.
    #[test]
    fn fleet_exports_are_replay_deterministic() {
        check_fleet_determinism().expect("fleet determinism");
    }

    #[test]
    fn fleet_counter_strip_is_brace_matched() {
        let doc = r#"{"a":1,"counters":{"x":{"y":[1,2]},"z":3},"b":2}"#;
        assert_eq!(strip_fleet_counters(doc), r#"{"a":1,,"b":2}"#);
        assert_eq!(strip_fleet_counters("{}"), "{}");
    }

    /// A semantic corruption of the program (swapped branch targets) must be
    /// visible through the (ret, digest) observation on at least some seeds —
    /// otherwise the oracle would be too weak to catch real miscompiles.
    #[test]
    fn oracle_detects_planted_branch_swap() {
        let mut caught = 0;
        for seed in 1..12u64 {
            let m = generate(seed, GenConfig::adversarial());
            let base = observe_oracle(&m);
            assert!(base.error.is_none());
            let mut bad = m.clone();
            let mut swapped = false;
            for f in &mut bad.functions {
                for inst in &mut f.insts {
                    if let Inst::CondBr { then_b, else_b, .. } = inst {
                        if then_b != else_b && !swapped {
                            std::mem::swap(then_b, else_b);
                            swapped = true;
                        }
                    }
                }
            }
            assert!(verify_module(&bad).is_empty(), "swap keeps IR well-formed");
            if swapped && observe_oracle(&bad) != base {
                caught += 1;
            }
        }
        assert!(caught >= 3, "branch swaps went unnoticed ({caught}/11)");
    }

    /// End-to-end folder↔VM pin for the arithmetic corners: a one-instruction
    /// program per corner, run unoptimized (VM evaluator) and under the
    /// optimizer-only cell (constant folder). Both sides must agree — this is
    /// the differential form of the `consteval` unit tests.
    #[test]
    fn folder_matches_vm_on_corner_ops() {
        let corners: &[(BinOp, i64, i64, Type)] = &[
            (BinOp::Shl, 1, 63, Type::I64),
            (BinOp::Shl, 1, 64, Type::I64),
            (BinOp::Shl, 1, 65, Type::I64),
            (BinOp::Shl, -1, 1, Type::I32),
            (BinOp::LShr, -1, 1, Type::I64),
            (BinOp::LShr, -1, 64, Type::I64),
            (BinOp::AShr, i64::MIN, 1, Type::I64),
            (BinOp::AShr, -8, 2, Type::I8),
            (BinOp::AShr, 1, -1, Type::I64),
            (BinOp::SDiv, i64::MIN, -1, Type::I64),
            (BinOp::SRem, i64::MIN, -1, Type::I64),
            (BinOp::SDiv, 7, 0, Type::I64),
            (BinOp::UDiv, -1, 3, Type::I64),
            (BinOp::URem, -1, 10, Type::I64),
            (BinOp::UDiv, -1, 0, Type::I64),
            (BinOp::Add, i64::MAX, 1, Type::I64),
            (BinOp::Add, 127, 1, Type::I8),
            (BinOp::Mul, i64::MIN, -1, Type::I64),
            (BinOp::Sub, -0x8000_0000, 1, Type::I32),
        ];
        let opt_only = config_matrix()[0];
        assert_eq!(opt_only.pipeline, Pipeline::OptOnly);
        for &(op, a, b, ty) in corners {
            let mut m = Module::new("corner");
            let mut bld = FunctionBuilder::new("main", vec![], Type::I64);
            let r = bld.bin(op, Value::ConstInt(a), Value::ConstInt(b), ty);
            let wide = bld.cast(CastOp::IntResize, r, Type::I64);
            bld.ret(wide);
            m.add_function(bld.finish());
            let oracle = observe_oracle(&m);
            let folded = observe(&m, &opt_only).0;
            assert_eq!(
                oracle, folded,
                "{op:?} {a} {b} {ty:?}: vm {oracle} vs folder {folded}"
            );
        }
    }

    /// Reproducer persistence, driven directly (the campaign only reaches it
    /// on a divergence, which a healthy pipeline never produces): original +
    /// minimized IR parse back, and the report names the failing cell.
    #[test]
    fn reproducers_round_trip_through_disk() {
        let m = generate(2, GenConfig::adversarial());
        let sr = SeedReport {
            seed: 2,
            oracle: observe_oracle(&m),
            divergences: vec![Divergence {
                config: config_matrix()[3],
                got: Observation {
                    ret: Some(1),
                    digest: Some(2),
                    error: None,
                },
            }],
        };
        let dir = std::env::temp_dir().join("cards_difftest_persist");
        let mut artifacts = Vec::new();
        persist_reproducer(&dir, &sr, &m, Some(&m), &mut artifacts).unwrap();
        assert_eq!(artifacts.len(), 3);
        for p in &artifacts {
            assert!(p.exists(), "{} missing", p.display());
        }
        let orig = fs::read_to_string(dir.join("seed_2.orig.cir")).unwrap();
        let parsed = cards_ir::parse_module(&orig).expect("reproducer parses back");
        assert!(verify_module(&parsed).is_empty());
        let report = fs::read_to_string(dir.join("seed_2.report.txt")).unwrap();
        assert!(report.contains(&config_matrix()[3].label()));
        assert!(report.contains("divergences: 1"));
    }

    /// A slice of the acceptance bar (the CI campaign runs the full seed
    /// range): chaos — including mid-run server crash/restart — must never
    /// change observable behaviour, and the crash phases must actually
    /// fire so the journal recovery path is exercised, not skipped.
    #[test]
    fn chaos_campaign_sample_matches_oracle() {
        let r = chaos_sample(&chaos_matrix());
        assert_eq!(r.seeds_run, 3);
        assert!(
            r.divergent.is_empty(),
            "chaos must not change results: {:?}\n{}",
            r.divergent,
            r.log.join("\n")
        );
        let crashes: u64 = r
            .cells
            .iter()
            .map(|c| c.stats.runtime.crashes_detected)
            .sum();
        let retries: u64 = r.cells.iter().map(|c| c.stats.runtime.retries).sum();
        assert!(crashes > 0, "crash phases must fire across the campaign");
        assert!(retries > 0, "chaos must force retries");
        for c in &r.cells {
            assert!(
                c.stats.runtime.cycles >= c.clean_cycles,
                "{}: chaos may cost cycles, never save them",
                c.label
            );
        }
    }

    #[test]
    fn labels_are_distinct() {
        for m in [config_matrix(), chaos_matrix(), pressure_matrix()] {
            let labels: std::collections::HashSet<String> = m.iter().map(|c| c.label()).collect();
            assert_eq!(labels.len(), m.len());
        }
        // The budget is read off the cell, not assumed from a preset.
        let squeeze = far(
            Pipeline::Cards,
            RemotingPolicy::Linear,
            CLEAN,
            PressureSpec::Squeeze,
            FOUR_PINNED,
        );
        let wider = RunConfig {
            pinned: 8 * 4096,
            ..squeeze
        };
        assert_eq!(squeeze.label(), "cards/linear/pressure-squeeze");
        assert_eq!(wider.label(), "cards/linear/pressure-squeeze/pinned32k");
    }
}
