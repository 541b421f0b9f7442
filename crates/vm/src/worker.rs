//! Concurrent serving harness: N worker VMs over one sharded remote tier.
//!
//! Each worker runs its own deterministic [`Vm`] (own address space, own
//! modeled clock) against a [`cards_net::ShardedClient`] of one shared
//! [`ShardedServer`]. Tenants are partitioned round-robin across workers;
//! every worker executes the workload's `setup` entry *serialized* (a
//! cache-starved setup evicts byte-different intermediate states, so
//! racing load phases could leak a half-built object to another worker;
//! each runs setup + quiesce under a lock, leaving the server holding the
//! final, byte-identical content) and then — past a barrier — serves its
//! tenants' sessions through the GET-only `request` entry, recording a
//! modeled cycle latency per request.
//!
//! Determinism contract (DESIGN.md §13): everything derived from the
//! modeled clocks — per-request latencies, percentiles, makespan, the
//! checksum, the quiescence digest — is a pure function of the program and
//! is asserted byte-identical across runs. Interleaving-dependent truth
//! (coalesced hits, wire fetch counts, train counts) lives only in the
//! server's shared atomic counters and is reported, never asserted equal.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use cards_ir::Module;
use cards_net::{NetworkModel, ShardEvents, ShardedConfig, ShardedServer, ShardedStats};
use cards_runtime::{RemotingPolicy, RuntimeConfig};

use crate::fleet::{extract_fleet, permille, WorkerFleet};
use crate::interp::Vm;

/// Shape of a concurrent serving run.
#[derive(Clone, Copy, Debug)]
pub struct ServeSpec {
    /// Worker VM count (threads).
    pub workers: usize,
    /// Total simulated sessions, partitioned round-robin across workers.
    pub tenants: u64,
    /// Operations per session.
    pub ops_per_tenant: u64,
    /// Sharded-tier shape (shards, train length, request window).
    pub net: ShardedConfig,
    /// Cycle-cost model shared by every client and shard.
    pub model: NetworkModel,
}

impl Default for ServeSpec {
    fn default() -> Self {
        ServeSpec {
            workers: 4,
            tenants: 2_000,
            ops_per_tenant: 20,
            net: ShardedConfig::default(),
            model: NetworkModel::default(),
        }
    }
}

/// A fault the campaign controller injects into the live tier while
/// workers are serving.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Kill the shard's active (primary) replica. Clients detect the dead
    /// channel and perform an epoch-fenced failover to the backup.
    KillPrimary,
    /// Kill the shard's standby replica. Invisible to clients; journal
    /// shipping to the dead peer is dropped.
    KillBackup,
    /// Crash/restart the active replica: unacked train objects drop, the
    /// generation bumps, and runtimes replay their write journals.
    CrashRestart,
    /// Stall the active replica until `hold_requests` further requests
    /// have been issued tier-wide, then release it. With a health timeout
    /// configured, clients demote the zombie and fail over under the
    /// stall; with `hedge_after`, reads race the backup meanwhile.
    Stall {
        /// Requests to hold the stall across before releasing.
        hold_requests: u64,
    },
    /// Stall the active replica until some client *begins* a takeover,
    /// then release the stall and kill the demoted primary — the kill
    /// lands in the middle of the epoch handshake, and the zombie's
    /// queued writes must bounce off the fencing epoch.
    KillDuringFailover,
}

/// One scheduled fault: fires once `after_requests` requests have been
/// issued tier-wide (phase 0 = before the first serve-phase request).
#[derive(Clone, Copy, Debug)]
pub struct ScriptedFault {
    /// Tier-wide issued-request threshold that triggers the fault.
    pub after_requests: u64,
    /// Shard the fault targets.
    pub shard: usize,
    /// What to do to it.
    pub kind: FaultKind,
}

/// A deterministic-phase fault schedule, applied in order.
pub type FaultScript = Vec<ScriptedFault>;

/// One worker's deterministic slice of a serving run.
#[derive(Clone, Debug)]
pub struct WorkerReport {
    /// Worker index.
    pub worker: usize,
    /// Tenants this worker served.
    pub tenants: u64,
    /// Requests this worker served.
    pub requests: u64,
    /// Requests this worker issued (attempted), including failures.
    pub issued: u64,
    /// Serve-phase instructions (setup excluded).
    pub serve_instructions: u64,
    /// Serve-phase modeled cycles (setup excluded).
    pub serve_cycles: u64,
    /// Wrapping sum of this worker's request return values.
    pub checksum: i64,
    /// Modeled cycle latency of each request, in issue order.
    pub request_cycles: Vec<u64>,
    /// Whether each request touched the remote tier (any completed fetch,
    /// writeback, or flush), aligned with `request_cycles`. Drives the
    /// per-request-class SLO split; deterministic per worker.
    pub request_remote: Vec<bool>,
    /// Epoch-fenced takeovers this worker's runtime performed.
    pub failovers: u64,
    /// Hedged fetches raced against a backup replica.
    pub hedged_fetches: u64,
    /// Hedges the primary won anyway.
    pub hedge_wasted: u64,
    /// Fence-bounced writes transparently retried.
    pub fenced_retries: u64,
    /// Train departures that found the request window saturated.
    pub queue_buildup_events: u64,
    /// Replication-lag bound breaches observed (interleaving-dependent;
    /// reported, never asserted).
    pub lag_breaches: u64,
    /// Fleet-plane extraction: trace trees, server span log, incidents.
    pub fleet: WorkerFleet,
}

/// Aggregate result of a concurrent serving run. All fields except `net`
/// are deterministic across runs.
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// Worker VM count.
    pub workers: usize,
    /// Total requests served.
    pub requests: u64,
    /// Total requests issued (attempted), including failures. Equal to
    /// `ok` on fault-free runs; availability is `ok / issued`.
    pub issued: u64,
    /// Requests that completed successfully (== `requests`).
    pub ok: u64,
    /// Serve-phase instructions summed across workers.
    pub instructions: u64,
    /// Slowest worker's serve-phase modeled cycles (the modeled
    /// wall-clock of the run; aggregate throughput divides by this).
    pub makespan_cycles: u64,
    /// Wrapping sum of every request's return value; equals the serial
    /// `main` checksum when the partition covers every tenant once.
    pub checksum: i64,
    /// Median modeled request latency (exact, over all requests).
    pub p50_cycles: u64,
    /// 99th-percentile modeled request latency (exact nearest-rank).
    pub p99_cycles: u64,
    /// Per-DS server digest after drain + quiesce + flush.
    pub digest: BTreeMap<u32, u64>,
    /// Shared server counters (interleaving-dependent; never asserted).
    pub net: ShardedStats,
    /// Per-shard replica-lifecycle event tallies over the whole run
    /// (interleaving-dependent; never asserted).
    pub fleet_events: BTreeMap<u32, ShardEvents>,
    /// Per-worker breakdowns.
    pub per_worker: Vec<WorkerReport>,
}

/// Result of the serial replay the quiescence oracle compares against.
#[derive(Clone, Debug)]
pub struct SerialReport {
    /// `main`'s checksum.
    pub checksum: i64,
    /// Per-DS server digest after quiesce + flush.
    pub digest: BTreeMap<u32, u64>,
}

/// Run the serving workload concurrently: spawn `spec.workers` VMs over
/// one sharded server, serve every tenant's session, then drain, quiesce,
/// and digest. `module` must be a *split* build (host-callable `setup` and
/// `request` entries with no internal caller, e.g.
/// `cards_workloads::serving::build_split`) — functions with callers grow
/// threaded DS-handle parameters under pool allocation and cannot be
/// driven from the host. `base_cfg.remotable_bytes` is the *total*
/// serving budget — each worker gets an equal slice (the per-tenant
/// budget of DESIGN.md §13), so N workers contend for the same aggregate
/// cache a single VM would get.
pub fn run_serving(
    module: &Module,
    spec: ServeSpec,
    base_cfg: RuntimeConfig,
    policy: RemotingPolicy,
    k_percent: u32,
) -> Result<ServeReport, String> {
    run_serving_with_faults(module, spec, base_cfg, policy, k_percent, &[])
}

/// Bumps a shared counter when dropped — workers signal completion to the
/// fault controller even on an error or panic path, so the controller can
/// never strand the scope.
struct CountOnDrop<'a>(&'a AtomicUsize);

impl Drop for CountOnDrop<'_> {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

/// Opens the request gate for good when dropped — the controller ungates
/// the workers even on a panic path, so they can never wait forever.
struct OpenOnDrop<'a>(&'a AtomicU64);

impl Drop for OpenOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(u64::MAX, Ordering::SeqCst);
    }
}

/// Spin until `served` reaches `target`, every worker is done, or the
/// optional real-time `deadline` passes. Returns whether the target was
/// actually reached (vs. bailed out).
fn wait_served(
    served: &AtomicU64,
    finished: &AtomicUsize,
    workers: usize,
    target: u64,
    deadline: Option<Instant>,
) -> bool {
    let mut spins = 0u32;
    loop {
        if served.load(Ordering::SeqCst) >= target {
            return true;
        }
        if finished.load(Ordering::SeqCst) >= workers {
            return false;
        }
        if let Some(d) = deadline {
            if Instant::now() >= d {
                return false;
            }
        }
        spins = spins.wrapping_add(1);
        if spins > 1 << 12 {
            thread::sleep(Duration::from_micros(50));
        } else {
            thread::yield_now();
        }
    }
}

/// The fault controller: waits at the serve barrier with the workers, so
/// no fault lands during setup; then applies each scripted fault once the
/// tier-wide issued-request counter crosses its threshold, and raises
/// `gate` to the next fault's threshold. Stalls are held for their
/// scripted span (with a real-time escape hatch so a fully blocked tier
/// can never deadlock the harness) and always released here.
fn drive_faults(
    server: &ShardedServer,
    script: &[ScriptedFault],
    served: &AtomicU64,
    gate: &AtomicU64,
    finished: &AtomicUsize,
    workers: usize,
    serve_gate: &Barrier,
) {
    // A stalled tier with no health timeout stops issuing requests, so
    // every hold also carries a wall-clock bound.
    const STALL_ESCAPE: Duration = Duration::from_secs(5);
    let _open = OpenOnDrop(gate);
    serve_gate.wait();
    for (i, f) in script.iter().enumerate() {
        wait_served(served, finished, workers, f.after_requests, None);
        // Holds below need requests flowing, so they ungate first.
        let next = script.get(i + 1).map_or(u64::MAX, |n| n.after_requests);
        let ungate = || gate.store(next, Ordering::SeqCst);
        match f.kind {
            FaultKind::KillPrimary => server.kill_shard(f.shard),
            FaultKind::KillBackup => server.kill_backup(f.shard),
            FaultKind::CrashRestart => server.crash_shard(f.shard),
            FaultKind::Stall { hold_requests } => {
                let stall = server.stall_shard(f.shard);
                ungate();
                let base = served.load(Ordering::SeqCst);
                wait_served(
                    served,
                    finished,
                    workers,
                    base.saturating_add(hold_requests),
                    Some(Instant::now() + STALL_ESCAPE),
                );
                stall.release();
            }
            FaultKind::KillDuringFailover => {
                let old = server.active_replica(f.shard);
                let stall = server.stall_replica(f.shard, old);
                let base = server.sharded_stats().failover_attempts;
                ungate();
                // Wait for some client to *begin* the takeover (needs a
                // health timeout in the replica config to ever happen).
                let t0 = Instant::now();
                while server.sharded_stats().failover_attempts == base
                    && finished.load(Ordering::SeqCst) < workers
                    && t0.elapsed() < STALL_ESCAPE
                {
                    thread::yield_now();
                }
                let attempted = server.sharded_stats().failover_attempts > base;
                // Release first: a stalled replica cannot drain its
                // queue, and kill() joins the serve thread.
                stall.release();
                if attempted {
                    server.kill_replica(f.shard, old);
                }
            }
        }
        ungate();
    }
}

/// [`run_serving`] plus a scripted fault campaign: a controller thread
/// watches the tier-wide issued-request counter and injects each
/// [`ScriptedFault`] at its phase. With a non-empty script, request
/// failures are tolerated and counted (`issued` vs `ok`) instead of
/// aborting the worker — availability under faults is part of the report.
/// Quiescence failures stay fatal: the digest oracle requires a fully
/// drained tier.
pub fn run_serving_with_faults(
    module: &Module,
    spec: ServeSpec,
    base_cfg: RuntimeConfig,
    policy: RemotingPolicy,
    k_percent: u32,
    script: &[ScriptedFault],
) -> Result<ServeReport, String> {
    let workers = spec.workers.max(1);
    let tolerate = !script.is_empty();
    let served = AtomicU64::new(0);
    // No worker issues a request while the tier has served as many as the
    // next fault's threshold and the controller has not injected it yet:
    // each fault lands at its phase however the threads are scheduled,
    // instead of after the workers finished when the controller runs late.
    let gate = AtomicU64::new(script.first().map_or(u64::MAX, |f| f.after_requests));
    let finished = AtomicUsize::new(0);
    let server = ShardedServer::spawn(spec.net, spec.model);
    // Clients are handed out before spawning so worker i always gets
    // client i (deterministic construction order).
    let clients: Vec<_> = (0..workers).map(|_| server.client()).collect();
    // Load phases are serialized: setup writes objects through *evolving*
    // intermediate states (hash-table construction is multi-pass), and a
    // cache-starved worker evicts those intermediates to the shared tier.
    // Two racing setups could therefore serve one worker another's older
    // intermediate bytes. Holding the lock through setup + quiesce means
    // every worker leaves the server holding final (byte-identical)
    // content; the barrier then keeps the GET-only serve phase from
    // reading the tier while a later setup is rewriting it.
    let setup_lock = Mutex::new(());
    // The fault controller, when there is one, waits at the barrier too.
    let serve_gate = Barrier::new(workers + usize::from(tolerate));

    let mut reports: Vec<WorkerReport> = thread::scope(|scope| {
        if tolerate {
            let (server, served, gate) = (&server, &served, &gate);
            let (finished, serve_gate) = (&finished, &serve_gate);
            scope.spawn(move || {
                drive_faults(server, script, served, gate, finished, workers, serve_gate)
            });
        }
        let mut handles = Vec::with_capacity(workers);
        for (w, client) in clients.into_iter().enumerate() {
            let module = module.clone();
            let mut cfg = base_cfg;
            // Per-worker budget slice: the governor inside each runtime
            // manages its share; the sum never exceeds the total budget.
            cfg.remotable_bytes = (base_cfg.remotable_bytes / workers as u64).max(4096);
            let (setup_lock, serve_gate) = (&setup_lock, &serve_gate);
            let (served, gate, finished) = (&served, &gate, &finished);
            handles.push(scope.spawn(move || -> Result<WorkerReport, String> {
                // Signals the fault controller even on error or panic.
                let _done = CountOnDrop(finished);
                let mut vm = Vm::new(module, cfg, client, policy, k_percent);
                let loaded = (|| {
                    let _load = setup_lock.lock().expect("setup lock");
                    vm.run("setup", &[])
                        .map_err(|e| format!("worker {w} setup: {e:?}"))?;
                    vm.runtime_mut()
                        .quiesce()
                        .map_err(|e| format!("worker {w} setup quiesce: {e:?}"))
                })();
                // Reach the gate even on a failed load — an early return
                // here would strand every other worker on the barrier.
                serve_gate.wait();
                loaded?;
                let mut request_cycles = Vec::new();
                let mut request_remote = Vec::new();
                let mut checksum = 0i64;
                let mut tenants = 0u64;
                let mut issued = 0u64;
                let serve_i0 = vm.metrics().instructions;
                let serve_c0 = vm.metrics().cycles;
                for t in (w as u64..spec.tenants).step_by(workers) {
                    tenants += 1;
                    for i in 0..spec.ops_per_tenant {
                        while served.load(Ordering::SeqCst) >= gate.load(Ordering::SeqCst) {
                            thread::yield_now();
                        }
                        issued += 1;
                        let c0 = vm.metrics().cycles;
                        let n0 = vm.runtime().net_stats();
                        let r = vm.run("request", &[t, i]);
                        served.fetch_add(1, Ordering::SeqCst);
                        match r {
                            Ok(v) => {
                                checksum = checksum.wrapping_add(v.unwrap_or(0) as i64);
                                request_cycles.push(vm.metrics().cycles - c0);
                                let n1 = vm.runtime().net_stats();
                                request_remote
                                    .push(n1.fetches + n1.writebacks > n0.fetches + n0.writebacks);
                            }
                            // Under a fault script a lost request is an
                            // availability data point, not a run failure.
                            Err(_) if tolerate => {}
                            Err(e) => return Err(format!("worker {w} request({t},{i}): {e:?}")),
                        }
                    }
                }
                let serve_instructions = vm.metrics().instructions - serve_i0;
                let serve_cycles = vm.metrics().cycles - serve_c0;
                // Drain: push all resident state so the server digest is
                // independent of this worker's eviction history.
                vm.runtime_mut()
                    .quiesce()
                    .map_err(|e| format!("worker {w} quiesce: {e:?}"))?;
                // Fleet-plane extraction happens here, while the VM still
                // owns its traced runtime and sharded client.
                let rt = vm.runtime().stats();
                let fleet = extract_fleet(&vm);
                Ok(WorkerReport {
                    worker: w,
                    tenants,
                    requests: request_cycles.len() as u64,
                    issued,
                    serve_instructions,
                    serve_cycles,
                    checksum,
                    request_cycles,
                    request_remote,
                    failovers: rt.failovers,
                    hedged_fetches: rt.hedged_fetches,
                    hedge_wasted: rt.hedge_wasted,
                    fenced_retries: rt.fenced_retries,
                    queue_buildup_events: rt.queue_buildup_events,
                    lag_breaches: rt.lag_breaches,
                    fleet,
                })
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "worker panicked".to_string())?)
            .collect::<Result<Vec<_>, _>>()
    })?;
    reports.sort_by_key(|r| r.worker);

    let digest = server.digest();
    let net = server.sharded_stats();
    let fleet_events = server.fleet_events();
    let mut all: Vec<u64> = reports
        .iter()
        .flat_map(|r| r.request_cycles.iter().copied())
        .collect();
    all.sort_unstable();
    let ok = all.len() as u64;
    Ok(ServeReport {
        workers,
        requests: ok,
        issued: reports.iter().map(|r| r.issued).sum(),
        ok,
        instructions: reports.iter().map(|r| r.serve_instructions).sum(),
        makespan_cycles: reports.iter().map(|r| r.serve_cycles).max().unwrap_or(0),
        checksum: reports.iter().fold(0i64, |a, r| a.wrapping_add(r.checksum)),
        p50_cycles: permille(&all, 500),
        p99_cycles: permille(&all, 990),
        digest,
        net,
        fleet_events,
        per_worker: reports,
    })
}

/// Serial replay for the quiescence oracle: one VM over a fresh sharded
/// server runs `setup` plus every session in tenant order (the same
/// host-driven loop `run_serving` partitions across workers), then
/// quiesces. Shard count may differ from the concurrent run — the digest
/// is shard-count independent. The serial VM gets the whole
/// `base_cfg.remotable_bytes` budget (it is the N=1 baseline).
pub fn run_serial_replay(
    module: &Module,
    spec: ServeSpec,
    base_cfg: RuntimeConfig,
    policy: RemotingPolicy,
    k_percent: u32,
) -> Result<SerialReport, String> {
    let server = ShardedServer::spawn(spec.net, spec.model);
    let mut vm = Vm::new(module.clone(), base_cfg, server.client(), policy, k_percent);
    vm.run("setup", &[])
        .map_err(|e| format!("serial setup: {e:?}"))?;
    let mut checksum = 0i64;
    for t in 0..spec.tenants {
        for i in 0..spec.ops_per_tenant {
            let v = vm
                .run("request", &[t, i])
                .map_err(|e| format!("serial request({t},{i}): {e:?}"))?
                .unwrap_or(0);
            checksum = checksum.wrapping_add(v as i64);
        }
    }
    vm.runtime_mut()
        .quiesce()
        .map_err(|e| format!("serial quiesce: {e:?}"))?;
    drop(vm);
    Ok(SerialReport {
        checksum,
        digest: server.digest(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    // A tiny split serving workload (the workloads crate would be a
    // dependency cycle): `setup` fills one shared array and publishes it
    // through a global; `request` hashes (tenant, op) into a slot. Both
    // are DSA entries (no internal caller), so neither grows handle
    // params and the host can drive them.
    fn serving_module() -> Module {
        use cards_ir::{FunctionBuilder, Type, Value};
        let n = 512i64;
        let mut m = Module::new("mini-serve");
        let g = m.add_global("arr", Type::Ptr, None);
        let setup_f = {
            let mut b = FunctionBuilder::new("setup", vec![], Type::I64);
            let total = b.iconst(n * 8);
            let arr = b.alloc(total, Type::I64);
            let (z, one) = (b.iconst(0), b.iconst(1));
            b.counted_loop(z, b.iconst(n), one, |b, i| {
                let p = b.gep_index(arr, Type::I64, i);
                let v = b.mul(i, b.iconst(7));
                b.store(p, v, Type::I64);
            });
            b.store(Value::Global(g), arr, Type::Ptr);
            b.ret(b.iconst(n));
            m.add_function(b.finish())
        };
        let _ = setup_f;
        {
            let mut b = FunctionBuilder::new("request", vec![Type::I64, Type::I64], Type::I64);
            let arr = b.load(Value::Global(g), Type::Ptr);
            let (t, i) = (b.arg(0), b.arg(1));
            let x = b.bin(cards_ir::BinOp::Xor, t, i, Type::I64);
            let h = b.intrin(cards_ir::Intrinsic::Hash64, vec![x]);
            let mask = b.iconst(n - 1);
            let k = b.bin(cards_ir::BinOp::And, h, mask, Type::I64);
            let p = b.gep_index(arr, Type::I64, k);
            let v = b.load(p, Type::I64);
            b.ret(v);
            m.add_function(b.finish());
        }
        m
    }

    fn compiled() -> Module {
        let m = serving_module();
        assert!(cards_ir::verify_module(&m).is_empty());
        cards_passes::compile(m, cards_passes::CompileOptions::cards())
            .unwrap()
            .module
    }

    // Two 4 KiB arrays that cannot both fit a starved per-worker budget:
    // every request touches both, so the serve phase localize-thrashes and
    // generates traced wire traffic for the fleet join to assemble.
    fn fleet_module() -> Module {
        use cards_ir::{FunctionBuilder, Type, Value};
        let n = 512i64;
        let mut m = Module::new("fleet-serve");
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
            let x = b.bin(cards_ir::BinOp::Xor, t, i, Type::I64);
            let h = b.intrin(cards_ir::Intrinsic::Hash64, vec![x]);
            let mask = b.iconst(n - 1);
            let k = b.bin(cards_ir::BinOp::And, h, mask, Type::I64);
            let pa = b.gep_index(a, Type::I64, k);
            let va = b.load(pa, Type::I64);
            let pb = b.gep_index(c, Type::I64, k);
            let vb = b.load(pb, Type::I64);
            let v = b.add(va, vb);
            b.ret(v);
            m.add_function(b.finish());
        }
        assert!(cards_ir::verify_module(&m).is_empty());
        cards_passes::compile(m, cards_passes::CompileOptions::cards())
            .unwrap()
            .module
    }

    fn spec(workers: usize) -> ServeSpec {
        ServeSpec {
            workers,
            tenants: 8,
            ops_per_tenant: 16,
            net: ShardedConfig {
                shards: 2,
                train_len: 4,
                window: 2,
                ..ShardedConfig::default()
            },
            model: NetworkModel::default(),
        }
    }

    fn cfg() -> RuntimeConfig {
        RuntimeConfig::new(1 << 20, 1 << 20)
    }

    #[test]
    fn concurrent_matches_serial_replay() {
        let m = compiled();
        let r = run_serving(&m, spec(4), cfg(), RemotingPolicy::AllRemotable, 0).unwrap();
        // Different shard count on the serial side: the digest is
        // shard-count independent, so the oracle still compares.
        let mut serial_spec = spec(1);
        serial_spec.net = ShardedConfig::default();
        let s = run_serial_replay(&m, serial_spec, cfg(), RemotingPolicy::AllRemotable, 0).unwrap();
        assert_eq!(r.checksum, s.checksum, "partitioned sessions must sum");
        assert_eq!(r.digest, s.digest, "quiesced server state must match");
        assert_eq!(r.requests, 8 * 16);
        assert!(r.p99_cycles >= r.p50_cycles);
    }

    #[test]
    fn serving_report_is_deterministic() {
        let m = compiled();
        let run = || run_serving(&m, spec(3), cfg(), RemotingPolicy::AllRemotable, 0).unwrap();
        let (a, b) = (run(), run());
        assert_eq!(a.checksum, b.checksum);
        assert_eq!(a.makespan_cycles, b.makespan_cycles);
        assert_eq!(a.p50_cycles, b.p50_cycles);
        assert_eq!(a.p99_cycles, b.p99_cycles);
        assert_eq!(a.instructions, b.instructions);
        assert_eq!(a.digest, b.digest);
        for (x, y) in a.per_worker.iter().zip(b.per_worker.iter()) {
            assert_eq!(x.request_cycles, y.request_cycles);
        }
    }

    #[test]
    fn fleet_plane_joins_and_checks() {
        let m = fleet_module();
        let starved = RuntimeConfig::new(0, 4096);
        let r = run_serving(&m, spec(2), starved, RemotingPolicy::AllRemotable, 0).unwrap();
        crate::fleet::check_fleet(&r).expect("fleet invariants");
        for w in &r.per_worker {
            assert_eq!(w.request_cycles.len(), w.request_remote.len());
            assert!(w.fleet.net_cycles > 0, "serving must touch the tier");
            assert!(!w.fleet.trees.is_empty(), "tracer must retain trees");
        }
        let json = crate::fleet::fleet_json("fleet-serve", &spec(2), &r);
        assert!(json.contains("\"schema\":\"cards-fleet-v2\""));
        assert!(
            json.contains("\"joined\":true"),
            "at least one fully joined end-to-end timeline: {json}"
        );
        assert!(json.contains("\"incidents\":[]"), "fault-free run");
        assert!(json.ends_with("]}}"), "counters must be the last key");
        let txt = crate::fleet::render_fleet_report("fleet-serve", &spec(2), &r);
        assert!(txt.contains("== fleet: fleet-serve"));
        assert!(txt.contains("slo all"));
    }

    #[test]
    fn percentile_is_exact_nearest_rank() {
        // The report's p50/p99 are `permille` at 500/990: the same exact
        // nearest rank a percentile helper gives at 50/99.
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(permille(&v, 500), 50);
        assert_eq!(permille(&v, 990), 99);
        assert_eq!(permille(&v, 0), 1);
        assert_eq!(permille(&v, 1000), 100);
        assert_eq!(permille(&[], 500), 0);
    }
}
