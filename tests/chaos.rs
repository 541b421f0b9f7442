//! Chaos-transport integration: a workload driven through phase-scripted
//! failure schedules (loss bursts, latency spikes, partitions, payload
//! corruption, server crash/restart) must still compute the clean-run
//! answer, replay to byte-identical telemetry, and leave a coherent
//! resilience trail in the exports.

use std::collections::BTreeSet;

use cards_core::difftest::observe_oracle;
use cards_core::ir::testgen::{generate, GenConfig};
use cards_core::net::{ChaosPhase, ChaosSchedule, ChaosTransport, NetworkModel, ScheduledPhase};
use cards_core::passes::{compile, optimize, CompileOptions};
use cards_core::runtime::telemetry::{export_chrome_trace, export_json, HistPath, TelemetryConfig};
use cards_core::runtime::{render_report, PressureConfig, RemotingPolicy, RuntimeConfig};
use cards_core::vm::Vm;
use cards_core::workloads::kvstore::{self, KvParams};

/// Cache-starved kvstore over a chaos schedule: plenty of transport churn,
/// so every phase kind sees traffic.
fn run_chaos(sched: ChaosSchedule) -> Vm<ChaosTransport> {
    let (m, _) = kvstore::build(KvParams {
        keys: 128,
        ops: 600,
    });
    let c = compile(m, CompileOptions::cards()).expect("compile");
    let cfg = RuntimeConfig::new(0, 8192)
        // Budget must cover the longest all-fail window of the schedules
        // (bounded at <= 12 ops by a cards-net test).
        .with_max_retries(32)
        .with_telemetry(TelemetryConfig {
            enabled: true,
            ring_capacity: 1 << 16,
            epoch_every: 64,
        });
    let mut vm = Vm::new(
        c.module,
        cfg,
        ChaosTransport::new(sched),
        RemotingPolicy::AllRemotable,
        0,
    );
    vm.run("main", &[]).expect("run under chaos");
    vm
}

fn run_clean() -> u64 {
    let (m, _) = kvstore::build(KvParams {
        keys: 128,
        ops: 600,
    });
    let c = compile(m, CompileOptions::cards()).expect("compile");
    let mut vm = Vm::new(
        c.module,
        RuntimeConfig::new(0, 8192),
        cards_core::net::SimTransport::default(),
        RemotingPolicy::AllRemotable,
        0,
    );
    vm.run("main", &[]).expect("clean run").expect("checksum")
}

/// The regression the telemetry layer promises: replaying the same chaos
/// run twice — crashes, corrupt fetches, breaker trips and all — exports
/// byte-identical traces in both formats.
#[test]
fn chaos_replay_exports_identical_bytes() {
    for sched in [ChaosSchedule::storm(3), ChaosSchedule::crash_loop(3)] {
        let (a, b) = (run_chaos(sched.clone()), run_chaos(sched));
        let (ja, jb) = (export_json(a.runtime()), export_json(b.runtime()));
        assert_eq!(ja, jb, "JSON export must be byte-reproducible");
        let (ca, cb) = (
            export_chrome_trace(a.runtime()),
            export_chrome_trace(b.runtime()),
        );
        assert_eq!(ca, cb, "chrome trace must be byte-reproducible");
    }
}

/// Chaos may cost cycles but never correctness: the crash-restart schedule
/// computes the same checksum as a clean transport, with the recovery
/// machinery visibly engaged.
#[test]
fn crash_restart_matches_clean_run() {
    let expected = run_clean();
    let vm = run_chaos(ChaosSchedule::crash_loop(11));
    let rt = vm.runtime();
    let got = rt.transport();
    assert!(got.chaos_stats().crashes >= 1, "crash phases must fire");
    let g = rt.stats();
    assert!(g.timeouts > 0, "crash windows present as timeouts");
    assert!(g.crashes_detected >= 1, "generation bumps must be noticed");
    // The same program under chaos computes the same answer.
    let (m, _) = kvstore::build(KvParams {
        keys: 128,
        ops: 600,
    });
    let c = compile(m, CompileOptions::cards()).expect("compile");
    let mut vm2 = Vm::new(
        c.module,
        RuntimeConfig::new(0, 8192).with_max_retries(32),
        ChaosTransport::new(ChaosSchedule::crash_loop(11)),
        RemotingPolicy::AllRemotable,
        0,
    );
    let got = vm2.run("main", &[]).expect("run").expect("checksum");
    assert_eq!(got, expected, "crash/restart must not change the result");
}

/// The degraded-run trail shows up in every export surface: typed events
/// in the JSON trace, ds-scoped tracks in the chrome trace, and the
/// resilience section of the human report.
#[test]
fn chaos_trail_reaches_every_export_surface() {
    let vm = run_chaos(ChaosSchedule::storm(5));
    let rt = vm.runtime();
    let json = export_json(rt);
    let kinds: BTreeSet<&str> = [
        "retry",
        "net_abort",
        "breaker",
        "crash_detected",
        "journal_replay",
    ]
    .into_iter()
    .filter(|k| json.contains(&format!("\"kind\":\"{k}\"")))
    .collect();
    assert!(
        kinds.contains("retry"),
        "storm run must log retries: saw {kinds:?}"
    );
    assert!(
        json.contains("\"timeouts\""),
        "totals must carry the resilience counters"
    );
    let report = render_report(rt);
    assert!(
        report.contains("resilience:"),
        "degraded run must render the resilience section:\n{report}"
    );
    assert!(report.contains("recovery:"), "{report}");
}

/// Regression for the phase-blind `ChaosTransport::rtt_cost`: a retry
/// priced while a latency spike is in force must charge the spiked RTT,
/// and that price has to reach the runtime's resilience trail (the
/// retry-attempt histogram), not just the transport's internal costing.
#[test]
fn resilience_trail_prices_retries_at_spiked_rtt() {
    // Two guaranteed losses, then a long latency spike. The retry of the
    // second loss is priced under the spike (the op counter has moved into
    // the spike window), so the histogram must record `mult * base`; the
    // first loss's retry is still priced inside the lossy window at `base`.
    const MULT: u64 = 6;
    let spiked = ChaosSchedule {
        phases: vec![
            ScheduledPhase {
                phase: ChaosPhase::LossyBurst { rate: 1.0 },
                ops: 2,
            },
            ScheduledPhase {
                phase: ChaosPhase::LatencySpike { mult: MULT },
                ops: 1 << 30,
            },
        ],
        repeat: false,
        seed: 7,
    };
    let model = NetworkModel::default();
    let base = model.base_latency + model.per_msg_cpu;
    let vm = run_chaos(spiked);
    let rt = vm.runtime();
    assert!(rt.stats().retries >= 2, "both losses must retry");
    let h = rt.telemetry().hist(HistPath::RetryAttempt);
    assert_eq!(
        h.max(),
        MULT * base,
        "a retry priced inside the spike must charge the spiked RTT"
    );
    assert_eq!(h.min(), base, "pre-spike retry stays at the plain RTT");
    let report = render_report(rt);
    assert!(report.contains("resilience:"), "{report}");

    // Control: the same losses followed by a healthy window never price a
    // retry above the plain RTT.
    let control = ChaosSchedule {
        phases: vec![
            ScheduledPhase {
                phase: ChaosPhase::LossyBurst { rate: 1.0 },
                ops: 2,
            },
            ScheduledPhase {
                phase: ChaosPhase::Healthy,
                ops: 1 << 30,
            },
        ],
        repeat: false,
        seed: 7,
    };
    let vm = run_chaos(control);
    let h = vm.runtime().telemetry().hist(HistPath::RetryAttempt);
    assert_eq!(h.max(), base, "healthy-phase retries are never spiked");
}

/// Testgen seed 1 under crash-loop chaos with four objects pinned and four
/// cached, compiled by `opts` and run under `cfg`: the run must compute
/// exactly what the all-local oracle computes.
fn pinned_crash_loop_matches_oracle(opts: CompileOptions, cfg: RuntimeConfig) {
    let m = generate(1, GenConfig::chaos());
    let oracle = observe_oracle(&m);
    let mut module = m;
    optimize(&mut module);
    let c = compile(module, opts).expect("compile");
    let mut vm = Vm::new(
        c.module,
        cfg,
        ChaosTransport::new(ChaosSchedule::crash_loop(0xca05)),
        RemotingPolicy::Linear,
        50,
    );
    let ret = vm
        .run("main", &[])
        .unwrap_or_else(|e| panic!("run under crash loop: {e}"));
    assert_eq!(
        (ret, vm.global_u64("digest")),
        (oracle.ret, oracle.digest),
        "crash loop must not change the result"
    );
}

/// Regression: a re-put journaled *after* the generation check let crash
/// recovery overwrite the new bytes with the key's stale journal entry. The
/// governor's evictions re-put the same objects often enough to hit it.
#[test]
fn governed_reput_across_crash_matches_oracle() {
    pinned_crash_loop_matches_oracle(
        CompileOptions::trackfm(),
        RuntimeConfig::new(4 * 4096, 4 * 4096)
            .with_max_retries(32)
            .with_pressure(PressureConfig::governed()),
    );
}

/// Regression: a flush whose retries rode out a crash cleared the journal
/// although the crash had dropped every put it was meant to acknowledge,
/// so a later fetch found the object gone (`NotFound`).
#[test]
fn flush_across_crash_matches_oracle() {
    pinned_crash_loop_matches_oracle(
        CompileOptions::cards(),
        RuntimeConfig::new(4 * 4096, 4 * 4096).with_max_retries(32),
    );
}
