//! Memory-pressure integration: a workload driven through phase-scripted
//! budget schedules (squeeze, cliff, sawtooth) must still compute the
//! clean-run answer, replay to byte-identical telemetry, and leave a
//! coherent governor trail (re-solves, hint demotions, spills,
//! pin-starvation relief) in the exports.

use cards_core::ir::testgen::{generate, GenConfig};
use cards_core::net::SimTransport;
use cards_core::passes::{compile, optimize, CompileOptions};
use cards_core::runtime::telemetry::{export_chrome_trace, export_json, TelemetryConfig};
use cards_core::runtime::{
    render_report, Access, DsSpec, EventKind, FarMemRuntime, PressureConfig, PressureSchedule,
    RemotingPolicy, RuntimeConfig, StaticHint,
};
use cards_core::vm::Vm;
use cards_core::workloads::kvstore::{self, KvParams};

/// Pinned-and-cache-starved kvstore under a pressure schedule: enough DSes
/// on both sides of the hint split that squeezes force the governor's hand.
fn run_pressured(sched: PressureSchedule) -> Vm<SimTransport> {
    let (m, _) = kvstore::build(KvParams {
        keys: 128,
        ops: 600,
    });
    let c = compile(m, CompileOptions::cards()).expect("compile");
    let cfg = RuntimeConfig::new(4 * 4096, 4 * 4096)
        .with_pressure(PressureConfig::governed())
        .with_telemetry(TelemetryConfig {
            enabled: true,
            ring_capacity: 1 << 16,
            epoch_every: 64,
        });
    let mut vm = Vm::new(
        c.module,
        cfg,
        SimTransport::default(),
        RemotingPolicy::MaxUse,
        50,
    );
    vm.runtime_mut().set_pressure_schedule(sched);
    vm.run("main", &[]).expect("run under pressure");
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
        RuntimeConfig::new(4 * 4096, 4 * 4096),
        SimTransport::default(),
        RemotingPolicy::MaxUse,
        50,
    );
    vm.run("main", &[]).expect("clean run").expect("checksum")
}

/// The regression the telemetry layer promises: replaying the same
/// pressure run twice — phase changes, sweeps, re-solves and all — exports
/// byte-identical traces in both formats.
#[test]
fn pressure_replay_exports_identical_bytes() {
    for sched in [PressureSchedule::squeeze(), PressureSchedule::sawtooth()] {
        let (a, b) = (run_pressured(sched.clone()), run_pressured(sched));
        let (ja, jb) = (export_json(a.runtime()), export_json(b.runtime()));
        assert_eq!(ja, jb, "JSON export must be byte-reproducible");
        let (ca, cb) = (
            export_chrome_trace(a.runtime()),
            export_chrome_trace(b.runtime()),
        );
        assert_eq!(ca, cb, "chrome trace must be byte-reproducible");
    }
}

/// Pressure may cost cycles but never correctness — and the squeeze must
/// demonstrably push the governor through at least one online re-solve
/// whose hint demotion shows up in the human report.
#[test]
fn squeeze_matches_clean_run_and_resolves_online() {
    let expected = run_clean();
    let vm = run_pressured(PressureSchedule::squeeze());
    let rt = vm.runtime();
    let g = rt.stats();
    assert!(g.pressure_phase_changes >= 3, "squeeze phases must fire");
    assert!(g.resolves >= 1, "squeeze must trigger an online re-solve");
    assert!(g.hint_demotions >= 1, "the re-solve must demote a hint");
    let report = render_report(rt);
    assert!(report.contains("pressure:"), "{report}");
    assert!(report.contains("re-solve:"), "{report}");
    assert!(
        report.lines().any(|l| l.contains("demote ds")),
        "demotion must appear in the re-solve trail:\n{report}"
    );
    // The same program under pressure computes the same answer.
    let (m, _) = kvstore::build(KvParams {
        keys: 128,
        ops: 600,
    });
    let c = compile(m, CompileOptions::cards()).expect("compile");
    let mut vm2 = Vm::new(
        c.module,
        RuntimeConfig::new(4 * 4096, 4 * 4096).with_pressure(PressureConfig::governed()),
        SimTransport::default(),
        RemotingPolicy::MaxUse,
        50,
    );
    vm2.runtime_mut()
        .set_pressure_schedule(PressureSchedule::squeeze());
    let got = vm2.run("main", &[]).expect("run").expect("checksum");
    assert_eq!(got, expected, "a squeeze must not change the result");
}

/// Every pressure schedule agrees with the clean run, and the pressure
/// trail reaches every export surface: typed events in the JSON trace and
/// the pressure section of the human report.
#[test]
fn pressure_trail_reaches_every_export_surface() {
    let expected = run_clean();
    for sched in [
        PressureSchedule::squeeze(),
        PressureSchedule::cliff(),
        PressureSchedule::sawtooth(),
    ] {
        let vm = run_pressured(sched);
        let rt = vm.runtime();
        let json = export_json(rt);
        assert!(
            json.contains("\"kind\":\"pressure_phase\""),
            "phase changes must be logged: {json:.>128}"
        );
        assert!(
            json.contains("\"proactive_evictions\""),
            "totals must carry the pressure counters"
        );
        let report = render_report(rt);
        assert!(
            report.contains("pressure:"),
            "pressured run must render the pressure section:\n{report}"
        );
        assert!(report.contains("spills:"), "{report}");
        // Re-check the checksum on a fresh VM of the same cell.
        let mut vm2 = {
            let (m, _) = kvstore::build(KvParams {
                keys: 128,
                ops: 600,
            });
            let c = compile(m, CompileOptions::cards()).expect("compile");
            Vm::new(
                c.module,
                RuntimeConfig::new(4 * 4096, 4 * 4096).with_pressure(PressureConfig::governed()),
                SimTransport::default(),
                RemotingPolicy::MaxUse,
                50,
            )
        };
        let got = vm2.run("main", &[]).expect("run").expect("checksum");
        assert_eq!(got, expected);
    }
}

/// An object bigger than the whole remotable budget can never be
/// localized; the runtime must serve it by spilling (direct remote
/// access), not by wedging in `failed_localize` or silently
/// overcommitting — and the data read back must be exact.
#[test]
fn oversize_object_spills_instead_of_dead_ending() {
    // 8 KiB objects against a 4 KiB cache, default (ungoverned) config.
    let spec = DsSpec::simple("oversize").with_object_bytes(8192);
    let mut rt = FarMemRuntime::new(RuntimeConfig::new(0, 4096), SimTransport::default());
    let h = rt.register_ds(spec, StaticHint::Remotable);
    let (p, _) = rt.ds_alloc(h, 4 * 8192).unwrap();
    for i in 0..4u64 {
        rt.guard(p.add(i * 8192), Access::Write, 8).unwrap();
        rt.write_u64(p.add(i * 8192), 0xC0DE + i).unwrap();
    }
    for i in 0..4u64 {
        rt.evacuate(p.add(i * 8192)).unwrap();
    }
    // Strict mode, objects remote, every access guarded: each guard takes
    // the spill path because the object cannot fit.
    for i in 0..4u64 {
        rt.guard(p.add(i * 8192), Access::Read, 8).unwrap();
        let (v, _) = rt.read_u64(p.add(i * 8192)).unwrap();
        assert_eq!(v, 0xC0DE + i, "spilled read must see the written bytes");
    }
    let g = rt.stats();
    assert!(g.spill_reads >= 4, "oversize reads must spill: {g:?}");
    assert_eq!(
        rt.remotable_used(),
        0,
        "an oversize object must never be force-fitted into the cache"
    );
    // Spilled writes round-trip too.
    rt.guard(p, Access::Write, 8).unwrap();
    rt.write_u64(p, 0xBEEF).unwrap();
    rt.guard(p, Access::Read, 8).unwrap();
    assert_eq!(rt.read_u64(p).unwrap().0, 0xBEEF);
    assert!(rt.stats().spill_writes >= 1);
}

/// Scope pins plus a tiny cache wedge the eviction sweep. Under the
/// governor the runtime relieves pin starvation (shrinks the recent-guard
/// window) and reports every wedge in telemetry — while scope-pinned
/// residents stay readable without re-guarding.
#[test]
fn scope_pin_starvation_relieves_and_stays_correct() {
    let cfg = RuntimeConfig::new(0, 2 * 4096)
        .with_pressure(PressureConfig::governed())
        .with_telemetry(TelemetryConfig {
            enabled: true,
            ring_capacity: 1 << 12,
            epoch_every: 64,
        });
    let mut rt = FarMemRuntime::new(cfg, SimTransport::default());
    let h = rt.register_ds(DsSpec::simple("s"), StaticHint::Remotable);
    let (p, _) = rt.ds_alloc(h, 16 * 4096).unwrap();
    for i in 0..16u64 {
        rt.guard(p.add(i * 4096), Access::Write, 8).unwrap();
        rt.write_u64(p.add(i * 4096), i).unwrap();
    }
    for i in 0..16u64 {
        rt.evacuate(p.add(i * 4096)).unwrap();
    }
    // Pin more than the cache holds inside one scope, then keep going.
    rt.begin_scope();
    for i in 0..6u64 {
        rt.guard(p.add(i * 4096), Access::Read, 8).unwrap();
    }
    for i in 0..6u64 {
        let (v, _) = rt.read_u64(p.add(i * 4096)).unwrap();
        assert_eq!(v, i, "scope-pinned reads must stay correct");
    }
    rt.end_scope();
    let g = rt.stats();
    assert!(
        g.pin_starvations >= 1,
        "the wedged sweep must be reported as pin starvation: {g:?}"
    );
    assert!(
        rt.telemetry()
            .events()
            .any(|e| matches!(e.kind, EventKind::PinStarvation { .. })),
        "pin_starvation must reach the event ring"
    );
    let report = render_report(&rt);
    assert!(report.contains("pin starvations"), "{report}");
}

/// Clock eviction gives referenced objects a second chance: an object
/// touched since the last sweep survives the next one; the untouched
/// object at the clock hand is evicted instead.
#[test]
fn clock_eviction_honours_second_chance() {
    // Remotable cache of exactly 3 objects, plus a pinned filler DS whose
    // guards age victims out of the recent-guard pin window without
    // touching the clock.
    let mut rt = FarMemRuntime::new(
        RuntimeConfig::new(8 * 4096, 3 * 4096),
        SimTransport::default(),
    );
    let v = rt.register_ds(DsSpec::simple("victims"), StaticHint::Remotable);
    let f = rt.register_ds(DsSpec::simple("filler"), StaticHint::Pinned);
    let (pv, _) = rt.ds_alloc(v, 6 * 4096).unwrap();
    let (pf, _) = rt.ds_alloc(f, 8 * 4096).unwrap();
    for i in 0..6u64 {
        rt.guard(pv.add(i * 4096), Access::Write, 8).unwrap();
        rt.write_u64(pv.add(i * 4096), i).unwrap();
    }
    for i in 0..6u64 {
        rt.evacuate(pv.add(i * 4096)).unwrap();
    }
    // Guards on 8 distinct pinned objects flush the recent-guard window.
    let flush_window = |rt: &mut FarMemRuntime<SimTransport>| {
        for i in 0..8u64 {
            rt.guard(pf.add(i * 4096), Access::Read, 8).unwrap();
        }
    };
    // Fill the cache: V0..V2 resident, all with the reference bit set.
    for i in 0..3u64 {
        rt.guard(pv.add(i * 4096), Access::Read, 8).unwrap();
    }
    flush_window(&mut rt);
    // First sweep second-chances everyone (clearing their bits) and
    // evicts V0. Residents: {V1, V2, V3}, V1/V2 unreferenced.
    rt.guard(pv.add(3 * 4096), Access::Read, 8).unwrap();
    // Touch V2: it alone regains the reference bit.
    rt.guard(pv.add(2 * 4096), Access::Read, 8).unwrap();
    flush_window(&mut rt);
    // Next sweep: V1 (hand position, unreferenced) goes; V2 survives on
    // its second chance even though V1 is no more recently inserted.
    rt.guard(pv.add(4 * 4096), Access::Read, 8).unwrap();
    flush_window(&mut rt);
    let misses_before = rt.ds_stats(v).unwrap().misses;
    rt.guard(pv.add(2 * 4096), Access::Read, 8).unwrap();
    assert_eq!(
        rt.ds_stats(v).unwrap().misses,
        misses_before,
        "touched V2 must have survived the sweep"
    );
    assert_eq!(rt.read_u64(pv.add(2 * 4096)).unwrap().0, 2);
    rt.guard(pv.add(4096), Access::Read, 8).unwrap();
    assert_eq!(
        rt.ds_stats(v).unwrap().misses,
        misses_before + 1,
        "unreferenced V1 must have been the victim"
    );
}

/// A dirty eviction writes back to the server *before* the writeback is
/// journaled as unacknowledged: the data is immediately re-fetchable
/// without any flush, and the journal drains only when one succeeds.
#[test]
fn dirty_eviction_writes_back_before_journal_ack() {
    // Cache of one object; big flush interval so the journal holds.
    let mut rt = FarMemRuntime::new(
        RuntimeConfig::new(8 * 4096, 4096).with_journal(1_000),
        SimTransport::default(),
    );
    let v = rt.register_ds(DsSpec::simple("kv"), StaticHint::Remotable);
    let f = rt.register_ds(DsSpec::simple("filler"), StaticHint::Pinned);
    let (pv, _) = rt.ds_alloc(v, 2 * 4096).unwrap();
    let (pf, _) = rt.ds_alloc(f, 8 * 4096).unwrap();
    rt.guard(pv, Access::Write, 8).unwrap();
    rt.write_u64(pv, 0xFEED).unwrap();
    rt.evacuate(pv).unwrap();
    rt.guard(pv.add(4096), Access::Write, 8).unwrap();
    rt.write_u64(pv.add(4096), 0xD1B7).unwrap();
    // Age V1 out of the recent-guard window, then fault V0 back in: the
    // only frame is V1's, and V1 is dirty. Flush first so the journal
    // growth below is attributable to that one eviction.
    for i in 0..8u64 {
        rt.guard(pf.add(i * 4096), Access::Read, 8).unwrap();
    }
    rt.flush_writebacks();
    assert_eq!(rt.journal_len(), 0);
    rt.guard(pv, Access::Read, 8).unwrap();
    assert_eq!(rt.read_u64(pv).unwrap().0, 0xFEED);
    assert_eq!(
        rt.journal_len(),
        1,
        "a dirty eviction must journal its writeback"
    );
    // The writeback itself already happened: the evicted dirty object is
    // re-fetchable with the journal still unflushed.
    for i in 0..8u64 {
        rt.guard(pf.add(i * 4096), Access::Read, 8).unwrap();
    }
    rt.guard(pv.add(4096), Access::Read, 8).unwrap();
    assert_eq!(
        rt.read_u64(pv.add(4096)).unwrap().0,
        0xD1B7,
        "dirty data must be on the server before the flush"
    );
    rt.flush_writebacks();
    assert_eq!(rt.journal_len(), 0, "a successful flush drains the journal");
}

/// Switching telemetry off must not change what the governor does: its
/// thrash detector rides the guard-event epoch clock, which keeps running
/// with recording off. Testgen seed 1 under TrackFM/linear with a sawtooth
/// schedule re-solves several times, so a stalled clock shows.
#[test]
fn governor_is_blind_to_the_telemetry_switch() {
    let run = |telemetry: TelemetryConfig| {
        let mut m = generate(1, GenConfig::chaos());
        optimize(&mut m);
        let c = compile(m, CompileOptions::trackfm()).expect("compile");
        let cfg = RuntimeConfig::new(4 * 4096, 4 * 4096)
            .with_pressure(PressureConfig::governed())
            .with_telemetry(telemetry);
        let mut vm = Vm::new(
            c.module,
            cfg,
            SimTransport::default(),
            RemotingPolicy::Linear,
            50,
        );
        vm.runtime_mut()
            .set_pressure_schedule(PressureSchedule::sawtooth());
        vm.run("main", &[]).expect("governed run");
        (*vm.metrics(), vm.runtime().stats())
    };
    let on = run(TelemetryConfig::default());
    let off = run(TelemetryConfig::disabled());
    assert!(on.1.resolves > 1, "the thrash detector must re-solve");
    assert_eq!(on, off, "telemetry must observe the governor, not steer it");
}
