//! `serve`: the split serving program over a sharded, replicated tier,
//! driven closed-loop by two client threads.
//!
//! Set-up follows `cards_vm::run_serving`'s protocol: each client VM runs
//! `setup` and quiesces under a lock, and serving starts once both are
//! loaded. Each client owns a `Vm<ShardedClient>` with half of a quarter of
//! the working set as its remotable cache (Max Use, k = 50). A client
//! thread is a single caller: it issues its next request when the previous
//! one returns, and every `run("request", [tenant, i])` is timed. A round
//! is one batch of whole tenant sessions per client; the tenants each
//! client serves are a seeded shuffle. This is the only workload that
//! exercises the sharded tier, fetch coalescing and wall-clock tails. The
//! serve phase is GET-only, after a write-heavy set-up.
//!
//! Checks: every session's sum equals the native `reference_tenant`; after
//! a final drain the tier's digest equals that of a set-up-only serial run
//! (a GET-only serve must not move it); no failover happens. Modeled
//! quantities are per-client deterministic, so every set-up's warm-up
//! batch must produce the same fingerprint — one of them traced in a
//! traced run, and again with the runtime's recorders off.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use cards_ir::Module;
use cards_net::{NetworkModel, ShardedClient, ShardedConfig, ShardedServer, SplitMix64};
use cards_passes::{compile, CompileOptions};
use cards_runtime::{RemotingPolicy, RuntimeConfig};
use cards_vm::{run_serial_replay, ServeSpec, Vm};
use cards_workloads::serving::{self, ServingParams};

use super::{
    end_to_end, exec_fingerprint, measure, per_layer, recorders_off, report, LayerInputs, RunStats,
    TierStats, SETUP_REPS,
};
use crate::layers::{compile_probe, compiled_counts, inst_count};
use crate::spans::{timed, SpanLog};
use crate::stats::median;
use crate::timed::TimedTransport;
use crate::{peak_rss_mb, Config, Fingerprint, Report, Round, Tally};

const CLIENTS: usize = 2;
/// Tenant sessions each client serves per round.
const BATCH: usize = 16;

fn params(tiny: bool) -> ServingParams {
    if tiny {
        ServingParams::test()
    } else {
        ServingParams {
            keys: 4096,
            tenants: 4000,
            ops_per_tenant: 200,
        }
    }
}

fn tier_config() -> ShardedConfig {
    ShardedConfig {
        shards: 2,
        ..ShardedConfig::default()
    }
}

/// Each client's remotable cache: half of a quarter of the working set.
fn client_config(p: ServingParams) -> RuntimeConfig {
    RuntimeConfig::new(0, (p.working_set_bytes() / 4 / CLIENTS as u64).max(4096))
}

type ClientVm = Vm<TimedTransport<ShardedClient>>;

enum Cmd {
    /// Serve these tenants' sessions; with a span capacity, traced.
    Serve(Vec<u64>, Option<usize>),
    /// Push every resident object to the tier.
    Drain,
}

#[derive(Default)]
struct Batch {
    ops_ns: Vec<u64>,
    runs: Vec<RunStats>,
    /// (tenant, wrapping sum of its session's results)
    sums: Vec<(u64, i64)>,
    errors: Vec<String>,
    log: Option<SpanLog>,
}

struct Worker {
    cmds: Sender<Cmd>,
    replies: Receiver<Batch>,
    join: JoinHandle<()>,
}

/// One client thread: load, then serve batches until its command channel
/// closes.
#[allow(clippy::too_many_arguments)]
fn client_loop(
    w: usize,
    module: Module,
    cfg: RuntimeConfig,
    client: ShardedClient,
    ops: u64,
    setup_lock: &Mutex<()>,
    ready: Sender<Result<(), String>>,
    cmds: Receiver<Cmd>,
    replies: Sender<Batch>,
) {
    let mut vm: ClientVm = Vm::new(
        module,
        cfg,
        TimedTransport::new(client),
        RemotingPolicy::MaxUse,
        50,
    );
    let loaded = (|| {
        let _load = setup_lock.lock().expect("setup lock poisoned");
        vm.run("setup", &[])
            .map_err(|e| format!("client {w} setup: {e}"))?;
        vm.runtime_mut()
            .quiesce()
            .map(|_| ())
            .map_err(|e| format!("client {w} setup quiesce: {e}"))
    })();
    let failed = loaded.is_err();
    let _ = ready.send(loaded);
    if failed {
        return;
    }
    let mut prev = RunStats::of(&vm, 0);
    for cmd in cmds {
        let mut b = Batch::default();
        match cmd {
            Cmd::Drain => {
                if let Err(e) = vm.runtime_mut().quiesce() {
                    b.errors.push(format!("client {w} drain: {e}"));
                }
            }
            Cmd::Serve(tenants, trace) => {
                let mut log = trace.map(|cap| SpanLog::for_thread(cap, w as u32 + 1));
                if let Some(cap) = trace {
                    vm.runtime_mut()
                        .transport_mut()
                        .start(SpanLog::for_thread(cap, w as u32 + 1));
                }
                for t in tenants {
                    let mut sum = 0i64;
                    for i in 0..ops {
                        let req = t * ops + i;
                        let s = Instant::now();
                        let r = match log.as_mut() {
                            Some(log) => timed(log, "vm.run", 0, req, |id| {
                                vm.runtime_mut().transport_mut().set_parent(id, req);
                                vm.run("request", &[t, i])
                            }),
                            None => vm.run("request", &[t, i]),
                        };
                        b.ops_ns.push(s.elapsed().as_nanos() as u64);
                        match r {
                            Ok(v) => {
                                let v = v.unwrap_or(0);
                                sum = sum.wrapping_add(v as i64);
                                let now = RunStats::of(&vm, v);
                                b.runs.push(now.minus(&prev));
                                prev = now;
                            }
                            Err(e) => b.errors.push(format!("request({t}, {i}): {e}")),
                        }
                    }
                    b.sums.push((t, sum));
                }
                if let Some(log) = log.as_mut() {
                    log.absorb(vm.runtime_mut().transport_mut().stop());
                }
                b.log = log;
            }
        }
        if replies.send(b).is_err() {
            return;
        }
    }
}

/// A running tier: the sharded server and one thread per client VM.
struct Tier {
    server: ShardedServer,
    workers: Vec<Worker>,
}

impl Tier {
    /// Spawn the server and the clients and wait until both are loaded.
    fn spawn(module: &Module, cfg: RuntimeConfig, ops: u64) -> Result<Tier, String> {
        let server = ShardedServer::spawn(tier_config(), NetworkModel::default());
        let setup_lock = Arc::new(Mutex::new(()));
        let (ready_tx, ready_rx) = channel();
        let mut workers = Vec::new();
        for w in 0..CLIENTS {
            let (module, client) = (module.clone(), server.client());
            let (cmd_tx, cmd_rx) = channel();
            let (rep_tx, rep_rx) = channel();
            let (lock, ready) = (Arc::clone(&setup_lock), ready_tx.clone());
            let join = std::thread::spawn(move || {
                client_loop(w, module, cfg, client, ops, &lock, ready, cmd_rx, rep_tx)
            });
            workers.push(Worker {
                cmds: cmd_tx,
                replies: rep_rx,
                join,
            });
        }
        let tier = Tier { server, workers };
        for _ in 0..CLIENTS {
            ready_rx
                .recv()
                .map_err(|_| "a client thread died while loading".to_string())??;
        }
        Ok(tier)
    }

    /// Send one command to every client and collect their replies.
    fn each(&self, mut cmd: impl FnMut(usize) -> Cmd) -> Result<Vec<Batch>, String> {
        for (w, worker) in self.workers.iter().enumerate() {
            worker
                .cmds
                .send(cmd(w))
                .map_err(|_| format!("client {w} is gone"))?;
        }
        self.workers
            .iter()
            .enumerate()
            .map(|(w, worker)| {
                worker
                    .replies
                    .recv()
                    .map_err(|_| format!("client {w} died"))
            })
            .collect()
    }

    /// Stop the client threads, waiting for each; true if one panicked.
    fn join_clients(&mut self) -> bool {
        let mut panicked = false;
        for worker in self.workers.drain(..) {
            drop(worker.cmds);
            panicked |= worker.join.join().is_err();
        }
        panicked
    }

    /// Stop the client threads and the server.
    fn shutdown(mut self) -> Result<(), String> {
        if self.join_clients() {
            Err("a client thread panicked".into())
        } else {
            Ok(())
        }
    }
}

/// On an error path the tier is dropped without [`Tier::shutdown`]: still
/// wait for the client threads (the server joins its own on drop).
impl Drop for Tier {
    fn drop(&mut self) {
        self.join_clients();
    }
}

/// The tenants each client serves, in order: a seeded shuffle dealt
/// round-robin.
fn tenant_lists(seed: u64, tenants: u64) -> Vec<Vec<u64>> {
    let mut all: Vec<u64> = (0..tenants).collect();
    SplitMix64::new(seed).shuffle(&mut all);
    (0..CLIENTS)
        .map(|w| all.iter().copied().skip(w).step_by(CLIENTS).collect())
        .collect()
}

/// Serves batch `index` of every client's tenant list.
struct Server<'a> {
    lists: &'a [Vec<u64>],
    refs: &'a [i64],
    batch: usize,
    next: usize,
}

impl Server<'_> {
    fn round(
        &mut self,
        tier: &Tier,
        trace: Option<&mut SpanLog>,
        tally: &mut Tally,
    ) -> Result<Round, String> {
        let index = self.next;
        self.next += 1;
        let cap = trace.as_ref().map(|l| l.room() / CLIENTS);
        let t0 = Instant::now();
        let batches = tier.each(|w| {
            let list = &self.lists[w];
            let tenants = (0..self.batch)
                .map(|j| list[(index * self.batch + j) % list.len()])
                .collect();
            Cmd::Serve(tenants, cap)
        })?;
        let wall_ns = t0.elapsed().as_nanos() as u64;
        let mut round = Round {
            wall_ns,
            ..Round::default()
        };
        let mut runs = Vec::new();
        let mut trace = trace;
        for b in batches {
            for (t, sum) in &b.sums {
                let want = self.refs[*t as usize];
                let n = b.ops_ns.len() as u64 / b.sums.len() as u64;
                tally.check(n, *sum == want, || {
                    format!("tenant {t}: session sum {sum} != reference {want}")
                });
            }
            for e in b.errors {
                tally.check(1, false, || e);
            }
            round.ops_ns.extend(b.ops_ns);
            runs.extend(b.runs);
            if let (Some(log), Some(b_log)) = (trace.as_deref_mut(), b.log) {
                log.absorb(b_log);
            }
        }
        round.fingerprint = exec_fingerprint(&runs);
        Ok(round)
    }
}

pub fn serve_workload(cfg: &Config) -> Result<Report, String> {
    let p = params(cfg.tiny);
    let ops = p.ops_per_tenant as u64;
    let batch = if cfg.tiny { 2 } else { BATCH };
    let source = serving::build_split(p);
    let client_cfg = client_config(p);

    let mut tally = Tally::default();
    let lists = tenant_lists(cfg.seed, p.tenants as u64);
    let mut refs: Vec<i64> = (0..p.tenants as u64)
        .map(|t| serving::reference_tenant(p, t))
        .collect();
    if cfg.plant_wrong_reference {
        refs[lists[0][0] as usize] ^= 1;
    }
    let mut server = Server {
        lists: &lists,
        refs: &refs,
        batch,
        next: 0,
    };

    // Set up several times; every set-up's warm-up batch (batch 0) must
    // give the same fingerprint. In a traced run the first one is traced.
    let reps = if cfg.tiny { 2 } else { SETUP_REPS };
    let mut setup_s = Vec::new();
    let mut warm: Option<Fingerprint> = None;
    let mut kept: Option<(Tier, Module)> = None;
    let mut rss = None;
    let mut compile_fp = Fingerprint::new();
    for rep in 0..reps {
        if let Some((t, _)) = kept.take() {
            t.shutdown()?;
        }
        let t0 = Instant::now();
        let c = compile(source.clone(), CompileOptions::cards()).map_err(|e| e.to_string())?;
        compile_fp = compiled_counts(inst_count(&source), &c);
        let t = Tier::spawn(&c.module, client_cfg, ops)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        let mut warm_log = SpanLog::new(0);
        let traced = cfg.trace && rep == 0;
        server.next = 0;
        let w = server.round(&t, traced.then_some(&mut warm_log), &mut tally)?;
        match &warm {
            None => warm = Some(w.fingerprint),
            Some(first) => tally.same(
                &format!("warm-up batch of set-up {rep}"),
                first,
                &w.fingerprint,
            ),
        }
        // Read after the first set-up: each further one retires six
        // threads, and how much of their memory the allocator keeps
        // varies from run to run.
        rss.get_or_insert_with(peak_rss_mb);
        kept = Some((t, c.module));
    }
    let warm = warm.expect("at least one set-up");
    let (tier, module) = kept.expect("last set-up kept");

    let s0 = tier.server.sharded_stats();
    let mut measured = measure(cfg, |log| server.round(&tier, log, &mut tally))?;
    let s1 = tier.server.sharded_stats();
    // Interleaving-dependent, so over every measured round, not just the
    // traced ones.
    let rounds = (measured.untraced.len() + measured.traced.len()) as u64;
    let (coalesced, wire) = (
        s1.coalesced_hits - s0.coalesced_hits,
        s1.wire_fetches - s0.wire_fetches,
    );
    let tier_stats = TierStats {
        coalesced_ratio: coalesced as f64 / (coalesced + wire).max(1) as f64,
        train_fill: (s1.train_objects - s0.train_objects) as f64
            / ((s1.trains - s0.trains) * tier_config().train_len as u64).max(1) as f64,
        wire_fetches: wire / rounds,
        failovers: s1.failovers - s0.failovers,
    };

    // Drain, then the tier must hold exactly what set-up wrote.
    for b in tier.each(|_| Cmd::Drain)? {
        for e in b.errors {
            tally.check(1, false, || e);
        }
    }
    let digest = tier.server.digest();
    let failovers = tier.server.sharded_stats().failovers;
    tier.shutdown()?;
    // A serial replay of no sessions is set-up alone.
    let serial = run_serial_replay(
        &module,
        ServeSpec {
            workers: 1,
            tenants: 0,
            ops_per_tenant: 0,
            net: tier_config(),
            model: NetworkModel::default(),
        },
        client_cfg,
        RemotingPolicy::MaxUse,
        50,
    )?;
    tally.check(1, digest == serial.digest, || {
        "tier digest after serving differs from the set-up-only serial run".into()
    });
    tally.check(1, failovers == 0, || {
        format!("{failovers} failovers in a fault-free run")
    });

    let metrics = if !cfg.trace {
        end_to_end(&setup_s, rss.unwrap_or_default(), &measured)
    } else {
        // Recorders off: a fresh tier whose warm-up batch must match, then
        // a few rounds for the host-time comparison.
        let off = Tier::spawn(&module, recorders_off(client_cfg), ops)?;
        server.next = 0;
        let w = server.round(&off, None, &mut tally)?;
        tally.same("warm-up batch, recorders off vs on", &warm, &w.fingerprint);
        let off_ns: Vec<f64> = (0..3)
            .map(|_| {
                server
                    .round(&off, None, &mut tally)
                    .map(|r| r.wall_ns as f64)
            })
            .collect::<Result<_, _>>()?;
        off.shutdown()?;
        let on_ns: Vec<f64> = measured.untraced.iter().map(|r| r.wall_ns as f64).collect();

        let mut probe_log = measured.log.child();
        let (times, fps) = compile_probe(
            std::slice::from_ref(&source),
            if cfg.tiny { 1 } else { 5 },
            &mut probe_log,
        )?;
        for fp in &fps {
            tally.same("compile probe vs set-up", &compile_fp, fp);
        }
        let layers = per_layer(
            cfg,
            LayerInputs {
                compile: &times,
                compile_fp: &compile_fp,
                exec: &measured.traced_spans,
                exec_fp: &warm,
                obs_overhead_frac: median(&on_ns) / median(&off_ns) - 1.0,
                tier: tier_stats,
                measured: &measured,
            },
        )?;
        measured.log.absorb(probe_log);
        layers
    };
    Ok(report(cfg, tally, metrics, Vec::new(), warm, measured))
}
