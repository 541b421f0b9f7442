//! Concurrent sharded-tier integration: worker VMs racing over one
//! remote tier must coalesce duplicate in-flight misses, survive shard
//! crash/restart through the write journal, quiesce to the serial-replay
//! digest regardless of worker count or shard count, and surface server
//! death as a deterministic `Disconnected` — never a hang.

use cards_core::net::{NetError, NetworkModel, ShardedConfig, ShardedServer};
use cards_core::passes::{compile, CompileOptions};
use cards_core::runtime::{RemotingPolicy, RtError, RuntimeConfig};
use cards_core::vm::{run_serial_replay, run_serving, ServeSpec, Vm, VmError};
use cards_core::workloads::serving::{self, ServingParams};

/// The CaRDS-compiled split serving module (host-callable `setup` and
/// `request` entries).
fn split_module(p: ServingParams) -> cards_core::ir::Module {
    let m = serving::build_split(p);
    assert!(cards_core::ir::verify_module(&m).is_empty());
    compile(m, CompileOptions::cards()).expect("compile").module
}

/// Two worker VMs with identical histories run the same session against a
/// stalled single shard: the first blocks as the coalescing leader, the
/// second — whose deterministic cache state makes it miss on the *same*
/// key — must piggyback as a follower instead of issuing a second wire
/// fetch. The handshake is counter-driven, so the test is deterministic:
/// either the follower coalesces (always) or it would hang (never flake).
#[test]
fn duplicate_inflight_misses_coalesce_across_worker_vms() {
    let p = ServingParams::test();
    let module = split_module(p);
    let server = ShardedServer::spawn(
        ShardedConfig {
            shards: 1,
            train_len: 8,
            // Huge window: queued writeback trains behind the stall must
            // never block a worker before it reaches the follower path.
            window: 1 << 20,
            ..ShardedConfig::default()
        },
        NetworkModel::default(),
    );
    // Cache-starved so the session stream is guaranteed to miss.
    let ws = p.working_set_bytes();
    let cfg = RuntimeConfig::new(ws / 16, ws / 16);

    // Setups run serialized from the orchestrator (racing load phases
    // would leak intermediate bytes — the harness serializes them too);
    // quiescing leaves both caches in the same deterministic state.
    let mut vm_a = Vm::new(
        module.clone(),
        cfg,
        server.client(),
        RemotingPolicy::MaxUse,
        50,
    );
    vm_a.run("setup", &[]).expect("setup A");
    vm_a.runtime_mut().quiesce().expect("quiesce A");
    let mut vm_b = Vm::new(
        module.clone(),
        cfg,
        server.client(),
        RemotingPolicy::MaxUse,
        50,
    );
    vm_b.run("setup", &[]).expect("setup B");
    vm_b.runtime_mut().quiesce().expect("quiesce B");

    let session = |vm: &mut Vm<cards_core::net::ShardedClient>| -> i64 {
        let mut sum = 0i64;
        for t in 0..p.tenants as u64 {
            for i in 0..p.ops_per_tenant as u64 {
                let v = vm.run("request", &[t, i]).expect("request").unwrap_or(0);
                sum = sum.wrapping_add(v as i64);
            }
        }
        sum
    };

    let s0 = server.sharded_stats();
    let gate = server.stall_shard(0);
    let (sum_a, sum_b) = std::thread::scope(|scope| {
        let a = scope.spawn(|| session(&mut vm_a)); // leader: blocks on its first miss
        let b = scope.spawn(|| {
            // Wait until A is committed as the leader (its wire fetch is
            // counted before the request queues behind the stall).
            while vm_b.runtime().transport().sharded_stats().wire_fetches <= s0.wire_fetches {
                std::thread::yield_now();
            }
            // Identical module + config + history = identical cache state:
            // B's first miss is A's in-flight key, so B must follow.
            session(&mut vm_b)
        });
        while server.sharded_stats().coalesced_hits <= s0.coalesced_hits {
            std::thread::yield_now();
        }
        gate.release();
        (a.join().expect("worker A"), b.join().expect("worker B"))
    });

    let expected = serving::reference(p);
    assert_eq!(sum_a, expected, "leader's full session checksum");
    assert_eq!(sum_b, expected, "follower's full session checksum");
    let s = server.sharded_stats();
    assert!(
        s.coalesced_hits > 0,
        "duplicate in-flight miss must dedup into one transfer: {s:?}"
    );
    assert!(s.wire_fetches > 0);
}

/// Batched writebacks ride the journal across a crash/restart of every
/// shard: unacked train objects are dropped by the crash, the runtime
/// notices the generation bump, replays the journal, and the final
/// quiesced digest and checksum match an uncrashed run exactly.
#[test]
fn batched_writeback_survives_crash_restart_via_journal() {
    let p = ServingParams::test();
    let run = |crash: bool| {
        let module = split_module(p);
        let server = ShardedServer::spawn(
            ShardedConfig {
                shards: 2,
                train_len: 4,
                window: 4,
                ..ShardedConfig::default()
            },
            NetworkModel::default(),
        );
        let ws = p.working_set_bytes();
        let cfg = RuntimeConfig::new(ws / 16, ws / 16)
            .with_journal(8)
            .with_max_retries(8);
        let mut vm = Vm::new(module, cfg, server.client(), RemotingPolicy::MaxUse, 50);
        vm.run("setup", &[]).expect("setup");
        let mut sum = 0i64;
        for t in 0..p.tenants as u64 {
            if crash && t == p.tenants as u64 / 2 {
                // Mid-serve crash of the whole tier: both shards drop
                // their unacked objects and bump their generations.
                server.crash_shard(0);
                server.crash_shard(1);
            }
            for i in 0..p.ops_per_tenant as u64 {
                let v = vm.run("request", &[t, i]).expect("request").unwrap_or(0);
                sum = sum.wrapping_add(v as i64);
            }
        }
        vm.runtime_mut().quiesce().expect("quiesce");
        let detected = vm.runtime().stats().crashes_detected;
        let replays = vm.runtime().stats().journal_replays;
        drop(vm);
        (
            sum,
            server.digest(),
            detected,
            replays,
            server.sharded_stats(),
        )
    };

    let (clean_sum, clean_digest, _, _, _) = run(false);
    let (sum, digest, detected, replays, stats) = run(true);
    assert_eq!(stats.crashes, 2, "both shards must have crashed");
    assert!(detected >= 1, "generation bump must be noticed");
    assert_eq!(sum, clean_sum, "crash must not change any answer");
    assert_eq!(
        digest, clean_digest,
        "journal replay must restore the dropped train objects \
         (replays={replays}, dropped={})",
        stats.dropped_objects
    );
}

/// The checksum-quiescence oracle: concurrent serving over the sharded
/// tier must quiesce to the byte-exact per-DS digests and checksum of a
/// serial replay, across parameter seeds and shard counts (the serial
/// side deliberately uses a third shard count — digests are shard-count
/// independent).
#[test]
fn quiescence_oracle_matches_serial_replay_across_seeds_and_shards() {
    let seeds = [
        ServingParams {
            keys: 128,
            tenants: 12,
            ops_per_tenant: 10,
        },
        ServingParams {
            keys: 256,
            tenants: 9,
            ops_per_tenant: 14,
        },
        ServingParams {
            keys: 64,
            tenants: 10,
            ops_per_tenant: 8,
        },
    ];
    for p in seeds {
        let module = split_module(p);
        let ws = p.working_set_bytes();
        let cfg = RuntimeConfig::new(ws / 8, ws / 8);
        let serial_spec = ServeSpec {
            workers: 1,
            tenants: p.tenants as u64,
            ops_per_tenant: p.ops_per_tenant as u64,
            net: ShardedConfig {
                shards: 3,
                ..ShardedConfig::default()
            },
            model: NetworkModel::default(),
        };
        let serial = run_serial_replay(&module, serial_spec, cfg, RemotingPolicy::MaxUse, 50)
            .expect("serial replay");
        assert_eq!(serial.checksum, serving::reference(p), "serial oracle");
        for shards in [2usize, 5] {
            let spec = ServeSpec {
                workers: 3,
                net: ShardedConfig {
                    shards,
                    train_len: 4,
                    window: 2,
                    ..ShardedConfig::default()
                },
                ..serial_spec
            };
            let conc = run_serving(&module, spec, cfg, RemotingPolicy::MaxUse, 50)
                .expect("concurrent serve");
            assert_eq!(
                conc.requests,
                (p.tenants * p.ops_per_tenant) as u64,
                "partition must cover every session once"
            );
            assert_eq!(conc.checksum, serial.checksum, "{p:?} shards={shards}");
            assert_eq!(
                conc.digest, serial.digest,
                "quiesced server state must equal serial replay \
                 ({p:?} shards={shards})"
            );
        }
    }
}

/// Acceptance: at equal total work, eight workers must sustain at least
/// 4x the aggregate modeled instruction throughput of one worker
/// (instructions / modeled makespan; setup excluded on both sides).
#[test]
fn eight_workers_sustain_4x_aggregate_throughput() {
    let p = ServingParams {
        keys: 256,
        tenants: 64,
        ops_per_tenant: 10,
    };
    let module = split_module(p);
    // Comfortable aggregate budget: contention, not capacity, is under test.
    let cfg = RuntimeConfig::new(p.working_set_bytes(), 2 * p.working_set_bytes());
    let spec = |workers| ServeSpec {
        workers,
        tenants: p.tenants as u64,
        ops_per_tenant: p.ops_per_tenant as u64,
        net: ShardedConfig::default(),
        model: NetworkModel::default(),
    };
    let one = run_serving(&module, spec(1), cfg, RemotingPolicy::MaxUse, 50).expect("N=1");
    let eight = run_serving(&module, spec(8), cfg, RemotingPolicy::MaxUse, 50).expect("N=8");
    assert_eq!(one.requests, eight.requests, "equal total work");
    assert_eq!(one.checksum, eight.checksum);
    let tput = |r: &cards_core::vm::ServeReport| r.instructions as f64 / r.makespan_cycles as f64;
    let (t1, t8) = (tput(&one), tput(&eight));
    assert!(
        t8 >= 4.0 * t1,
        "8 workers must sustain >= 4x aggregate instruction throughput: \
         N=1 {t1:.6} vs N=8 {t8:.6} instr/cycle \
         (makespans {} vs {})",
        one.makespan_cycles,
        eight.makespan_cycles
    );
}

/// Server death is a deterministic `Disconnected`, not a hang: the same
/// kill point yields the same error at the same request, twice, on the
/// sharded tier (killed shard with writeback trains still in the window).
#[test]
fn server_death_yields_deterministic_disconnected() {
    let p = ServingParams::test();
    let ws = p.working_set_bytes();

    // Drive sessions until the first error; return (requests served, err).
    fn until_error<T: cards_core::net::Transport>(
        vm: &mut Vm<T>,
        p: ServingParams,
    ) -> (u64, VmError) {
        let mut served = 0u64;
        for t in 0..p.tenants as u64 {
            for i in 0..p.ops_per_tenant as u64 {
                match vm.run("request", &[t, i]) {
                    Ok(_) => served += 1,
                    Err(e) => return (served, e),
                }
            }
        }
        panic!("cache-starved run must eventually touch the dead server");
    }

    let sharded_run = || {
        let module = split_module(p);
        let server = ShardedServer::spawn(
            ShardedConfig {
                shards: 1,
                train_len: 4,
                window: 2,
                ..ShardedConfig::default()
            },
            NetworkModel::default(),
        );
        let cfg = RuntimeConfig::new(ws / 16, ws / 16).with_max_retries(8);
        let mut vm = Vm::new(module, cfg, server.client(), RemotingPolicy::MaxUse, 50);
        vm.run("setup", &[]).expect("setup");
        // Killing only the primary would fail over to the backup; this
        // test wants total shard death, so take out both replicas.
        server.kill_backup(0);
        server.kill_shard(0);
        let (served, err) = until_error(&mut vm, p);
        // Quiescing against the dead tier fails the same way.
        let q = vm.runtime_mut().quiesce();
        (served, err, q)
    };
    let (served_a, err_a, q_a) = sharded_run();
    let (served_b, err_b, q_b) = sharded_run();
    assert!(
        matches!(
            err_a,
            VmError::Runtime(RtError::Net(NetError::Disconnected))
        ),
        "dead shard must surface Disconnected, got {err_a:?}"
    );
    assert_eq!(served_a, served_b, "failure point must be deterministic");
    assert_eq!(format!("{err_a:?}"), format!("{err_b:?}"));
    assert!(matches!(q_a, Err(RtError::Net(NetError::Disconnected))));
    assert_eq!(format!("{q_a:?}"), format!("{q_b:?}"));
}
