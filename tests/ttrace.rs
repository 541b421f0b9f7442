//! End-to-end checks for the causal request tracer: span trees are
//! properly nested with valid parents, per-phase self-cycles sum to each
//! operation's total, chaos runs account wire/backoff/retry/journal-replay
//! phases separately, the flight recorder dumps on anomaly triggers, and
//! the trace export is byte-identical across recompile + faulty replay.

use cards_core::ir::{FunctionBuilder, Module, Type};
use cards_core::net::{ChaosSchedule, ChaosTransport, FaultyTransport, SimTransport, Transport};
use cards_core::passes::{compile, CompileOptions};
use cards_core::runtime::{RemotingPolicy, RuntimeConfig, SpanKind, TraceConfig};
use cards_core::vm::{check_traces, flight_json, render_ttrace_report, ttrace_json, Vm};
use cards_core::workloads::kvstore::{self, KvParams};

fn kv_module() -> Module {
    kvstore::build(KvParams {
        keys: 128,
        ops: 600,
    })
    .0
}

/// Write-then-scan kernel big enough to outlast a storm schedule's crash
/// window under a 2-object cache.
fn churn_module() -> Module {
    let mut m = Module::new("churn");
    let mut b = FunctionBuilder::new("main", vec![], Type::I64);
    let n = 32 * 1024i64;
    let arr = b.alloc(b.iconst(n * 8), Type::I64);
    let (z, one) = (b.iconst(0), b.iconst(1));
    b.counted_loop(z, b.iconst(n), one, |b, i| {
        let p = b.gep_index(arr, Type::I64, i);
        b.store(p, i, Type::I64);
    });
    let acc = b.alloca(Type::I64);
    b.store(acc, b.iconst(0), Type::I64);
    b.counted_loop(z, b.iconst(n), one, |b, i| {
        let p = b.gep_index(arr, Type::I64, i);
        let v = b.load(p, Type::I64);
        let cur = b.load(acc, Type::I64);
        let nx = b.add(cur, v);
        b.store(acc, nx, Type::I64);
    });
    let out = b.load(acc, Type::I64);
    b.ret(out);
    m.add_function(b.finish());
    m
}

fn run_traced<T: Transport>(m: Module, transport: T, cfg: RuntimeConfig) -> Vm<T> {
    let c = compile(m, CompileOptions::cards()).expect("compile");
    let mut vm = Vm::new(c.module, cfg, transport, RemotingPolicy::AllRemotable, 0);
    vm.run("main", &[]).expect("run");
    vm
}

#[test]
fn spans_have_valid_parents_and_nest_properly() {
    let vm = run_traced(
        kv_module(),
        SimTransport::default(),
        RuntimeConfig::new(0, 8192),
    );
    let tr = vm.runtime().tracer();
    assert!(tr.remote_ops() > 0, "run must trace remote operations");
    let mut checked = 0usize;
    for t in tr.trees() {
        // Root is span 0 with no parent; every other span names a parent
        // with a smaller index, so trees are acyclic by construction.
        assert_eq!(t.root().parent, None, "trace {}", t.trace);
        for (i, sp) in t.spans.iter().enumerate().skip(1) {
            let p = sp
                .parent
                .unwrap_or_else(|| panic!("trace {}: span {} has no parent", t.trace, i));
            assert!(
                (p as usize) < i,
                "trace {}: span {} points forward to {}",
                t.trace,
                i,
                p
            );
        }
        // Proper nesting: a parent's cycles bound the sum of its children.
        for i in 0..t.spans.len() as u32 {
            let child_sum: u64 = t.children(i).map(|(_, s)| s.cycles).sum();
            assert!(
                child_sum <= t.spans[i as usize].cycles,
                "trace {}: children of span {} sum to {} > parent {}",
                t.trace,
                i,
                child_sum,
                t.spans[i as usize].cycles
            );
        }
        t.validate().expect("structural invariants");
        checked += 1;
    }
    assert!(checked > 0, "the ring must retain trees");
}

#[test]
fn per_phase_cycles_sum_to_operation_total() {
    let vm = run_traced(
        kv_module(),
        SimTransport::default(),
        RuntimeConfig::new(0, 8192),
    );
    for t in vm.runtime().tracer().trees() {
        let phase_sum: u64 = t.phase_breakdown().iter().map(|(_, c)| c).sum();
        assert_eq!(
            phase_sum,
            t.root().cycles,
            "trace {}: phases must sum to the operation total",
            t.trace
        );
    }
    // And the cumulative invariant over the whole run.
    check_traces(&vm).expect("cross-sum invariants");
}

#[test]
fn chaos_storm_accounts_failure_phases_and_dumps_flight() {
    let cfg = RuntimeConfig::new(0, 2 * 4096)
        .with_max_retries(32)
        .with_trace(TraceConfig {
            retry_storm_threshold: 4,
            ..TraceConfig::default()
        });
    let vm = run_traced(
        churn_module(),
        ChaosTransport::new(ChaosSchedule::storm(7)),
        cfg,
    );
    let tr = vm.runtime().tracer();
    // The failure-path phases are separately accounted, not folded into
    // the wire cost.
    let phase = |k: SpanKind| {
        tr.phase_totals()
            .find(|(kind, _)| *kind == k)
            .map(|(_, c)| c)
            .unwrap_or(0)
    };
    assert!(phase(SpanKind::Wire) > 0, "wire cycles");
    assert!(phase(SpanKind::Retry) > 0, "failed-attempt cycles");
    assert!(phase(SpanKind::Backoff) > 0, "backoff sleep cycles");
    check_traces(&vm).expect("phases still sum to operation totals");
    // The storm trips an anomaly trigger and the flight recorder dumps.
    assert!(!tr.triggers().is_empty(), "storm must fire a trigger");
    assert!(!tr.snapshots().is_empty(), "trigger must snapshot the ring");
    let flight = flight_json(&vm, 0).expect("snapshot 0 exists");
    assert!(flight.starts_with("{\"schema\":\"cards-flight-v1\""));
    assert!(flight.contains("\"trigger\":{\"reason\":\""));
    // The rendered report names the failure phases separately.
    let report = render_ttrace_report(&vm, 5);
    assert!(report.contains("backoff"), "report: {report}");
    assert!(report.contains("retry"), "report: {report}");
}

#[test]
fn journal_replay_phase_is_accounted_under_crash_loop() {
    let cfg = RuntimeConfig::new(0, 2 * 4096).with_max_retries(32);
    let vm = run_traced(
        churn_module(),
        ChaosTransport::new(ChaosSchedule::crash_loop(7)),
        cfg,
    );
    let tr = vm.runtime().tracer();
    let replay = tr
        .phase_totals()
        .find(|(k, _)| *k == SpanKind::JournalReplay)
        .map(|(_, c)| c)
        .unwrap_or(0);
    assert!(
        vm.runtime().stats().journal_replays > 0,
        "crash loop must force journal replays"
    );
    assert!(replay > 0, "journal-replay cycles must be attributed");
    check_traces(&vm).expect("invariants under crash loop");
}

#[test]
fn trace_export_is_byte_identical_across_recompile_and_faulty_replay() {
    let run = || {
        let c = compile(kv_module(), CompileOptions::cards()).expect("compile");
        let mut vm = Vm::new(
            c.module,
            RuntimeConfig::new(0, 8192),
            FaultyTransport::new(SimTransport::default(), 0.2, 0xfa17),
            RemotingPolicy::AllRemotable,
            0,
        );
        vm.run("main", &[]).expect("run");
        ttrace_json(&vm)
    };
    let (a, b) = (run(), run());
    assert_eq!(a, b, "trace export must replay byte-for-byte");
    assert!(a.starts_with("{\"schema\":\"cards-ttrace-v1\""));
    // Faulty replay produces retry spans, so the export carries attempts.
    assert!(a.contains("\"retry\":"), "phases must include retry");
}

#[test]
fn disabled_tracer_records_nothing() {
    let cfg = RuntimeConfig::new(0, 8192).with_trace(TraceConfig::disabled());
    let vm = run_traced(kv_module(), SimTransport::default(), cfg);
    let tr = vm.runtime().tracer();
    assert_eq!(tr.remote_ops(), 0);
    assert_eq!(tr.trees().count(), 0);
    assert!(tr.triggers().is_empty());
}
