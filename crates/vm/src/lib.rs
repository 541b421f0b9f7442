//! # cards-vm
//!
//! Deterministic interpreter for `cards-ir` programs, executing the
//! far-memory extension instructions against `cards-runtime` and charging a
//! calibrated cycle model (see DESIGN.md §5.5–5.6). It runs both
//! *untransformed* modules (plain local memory — the all-local reference
//! and correctness oracle) and *transformed* ones (pool-allocated, guarded,
//! versioned), so pipeline effects are measured end to end.

mod decode;
pub mod failover;
pub mod fleet;
pub mod interp;
pub mod metrics;
pub mod profile;
pub mod ttrace;
pub mod worker;

pub use failover::{run_failover_campaign, CampaignReport, CellReport, Phase};
pub use fleet::{
    check_fleet, check_worker, extract_fleet, fleet_json, join_worker, render_fleet_report,
    slo_fields, JoinGroup, Timeline, WorkerFleet,
};
pub use interp::{spec_from_meta, splitmix64, Vm, VmError};
pub use metrics::{CpuModel, VmMetrics};
pub use profile::{check_attribution, profile_folded, profile_json, render_profile_report};
pub use ttrace::{check_traces, flight_json, render_ttrace_report, ttrace_json};
pub use worker::{
    run_serial_replay, run_serving, run_serving_with_faults, FaultKind, FaultScript, ScriptedFault,
    SerialReport, ServeReport, ServeSpec, WorkerReport,
};

#[cfg(test)]
mod tests {
    use super::*;
    use cards_ir::{FunctionBuilder, Module, Type, Value};
    use cards_net::SimTransport;
    use cards_passes::{compile, CompileOptions};
    use cards_runtime::{RemotingPolicy, RuntimeConfig};

    fn vm_for(m: Module) -> Vm<SimTransport> {
        Vm::new(
            m,
            RuntimeConfig::new(64 << 20, 64 << 20),
            SimTransport::default(),
            RemotingPolicy::Linear,
            100,
        )
    }

    /// sum 0..n on native memory.
    fn sum_module() -> Module {
        let mut m = Module::new("sum");
        let mut b = FunctionBuilder::new("sum_to_n", vec![Type::I64], Type::I64);
        let acc = b.alloca(Type::I64);
        b.store(acc, b.iconst(0), Type::I64);
        let (z, one) = (b.iconst(0), b.iconst(1));
        let n = b.arg(0);
        b.counted_loop(z, n, one, |b, i| {
            let cur = b.load(acc, Type::I64);
            let nxt = b.add(cur, i);
            b.store(acc, nxt, Type::I64);
        });
        let out = b.load(acc, Type::I64);
        b.ret(out);
        m.add_function(b.finish());
        m
    }

    #[test]
    fn runs_simple_arithmetic() {
        let mut vm = vm_for(sum_module());
        let r = vm.run("sum_to_n", &[100]).unwrap();
        assert_eq!(r, Some(4950));
        assert!(vm.metrics().instructions > 100);
        assert!(vm.metrics().cycles > 0);
    }

    #[test]
    fn float_math_works() {
        let mut m = Module::new("f");
        let mut b = FunctionBuilder::new("poly", vec![], Type::F64);
        let x = b.fconst(1.5);
        let y = b.fmul(x, b.fconst(4.0));
        let z = b.fadd(y, b.fconst(0.25));
        b.ret(z);
        m.add_function(b.finish());
        let mut vm = vm_for(m);
        let r = vm.run("poly", &[]).unwrap().unwrap();
        assert_eq!(f64::from_bits(r), 6.25);
    }

    #[test]
    fn struct_gep_and_memory() {
        let mut m = Module::new("s");
        let s = m.types.add_struct("P", vec![Type::I32, Type::I64]);
        let mut b = FunctionBuilder::new("main", vec![], Type::I64);
        let p = b.alloca(Type::Struct(s));
        let f0 = b.gep_field(p, Type::Struct(s), 0);
        let f1 = b.gep_field(p, Type::Struct(s), 1);
        b.store(f0, b.iconst(-7), Type::I32);
        b.store(f1, b.iconst(1000), Type::I64);
        let a = b.load(f0, Type::I32);
        let c = b.load(f1, Type::I64);
        let r = b.add(a, c);
        b.ret(r);
        m.add_function(b.finish());
        let mut vm = vm_for(m);
        assert_eq!(vm.run("main", &[]).unwrap(), Some(993));
    }

    #[test]
    fn div_by_zero_traps() {
        let mut m = Module::new("d");
        let mut b = FunctionBuilder::new("main", vec![Type::I64], Type::I64);
        let r = b.bin(cards_ir::BinOp::SDiv, b.iconst(1), b.arg(0), Type::I64);
        b.ret(r);
        m.add_function(b.finish());
        let mut vm = vm_for(m);
        assert_eq!(vm.run("main", &[0]), Err(VmError::DivByZero));
        let mut vm2 = vm_for({
            let mut m = Module::new("d");
            let mut b = FunctionBuilder::new("main", vec![Type::I64], Type::I64);
            let r = b.bin(cards_ir::BinOp::SDiv, b.iconst(10), b.arg(0), Type::I64);
            b.ret(r);
            m.add_function(b.finish());
            m
        });
        assert_eq!(vm2.run("main", &[2]).unwrap(), Some(5));
    }

    #[test]
    fn indirect_call_dispatch() {
        let mut m = Module::new("i");
        let double = {
            let mut b = FunctionBuilder::new("double", vec![Type::I64], Type::I64);
            let r = b.mul(b.arg(0), b.iconst(2));
            b.ret(r);
            m.add_function(b.finish())
        };
        let mut b = FunctionBuilder::new("main", vec![], Type::I64);
        let slot = b.alloca(Type::Ptr);
        b.store(slot, Value::Func(double), Type::Ptr);
        let fp = b.load(slot, Type::Ptr);
        let r = b.call_indirect(fp, vec![Type::I64], Type::I64, vec![b.iconst(21)]);
        b.ret(r);
        m.add_function(b.finish());
        let mut vm = vm_for(m);
        assert_eq!(vm.run("main", &[]).unwrap(), Some(42));
    }

    #[test]
    fn recursion_depth_limited() {
        let mut m = Module::new("r");
        let f = m.add_function(cards_ir::Function::new("inf", vec![], Type::Void));
        {
            let mut b = FunctionBuilder::new("inf", vec![], Type::Void);
            b.call(f, vec![]);
            b.ret_void();
            *m.func_mut(f) = b.finish();
        }
        let mut vm = vm_for(m);
        assert_eq!(vm.run("inf", &[]), Err(VmError::StackOverflow));
    }

    #[test]
    fn native_oob_detected() {
        let mut m = Module::new("o");
        let mut b = FunctionBuilder::new("main", vec![], Type::I64);
        let bad = b.cast(cards_ir::CastOp::IntToPtr, b.iconst(64), Type::Ptr);
        let v = b.load(bad, Type::I64);
        b.ret(v);
        m.add_function(b.finish());
        let mut vm = vm_for(m);
        assert!(matches!(
            vm.run("main", &[]),
            Err(VmError::NativeOob { .. })
        ));
    }

    /// An allocation whose end would overflow, or pass the 2^48 bytes
    /// native addresses have before they read as tagged, fails without
    /// touching native memory: the global allocated before it still reads
    /// back, and a later allocation starts where it would have.
    #[test]
    fn native_alloc_past_the_address_space_fails() {
        let mut m = Module::new("a");
        let g = m.add_global("g", Type::I64, Some(Value::ConstInt(42)));
        let mut b = FunctionBuilder::new("main", vec![Type::I64], Type::I64);
        let p = b.alloc(b.arg(0), Type::I64);
        let v = b.load(Value::Global(g), Type::I64);
        let q = b.cast(cards_ir::CastOp::PtrToInt, p, Type::I64);
        let r = b.add(v, q);
        b.ret(r);
        m.add_function(b.finish());
        let mut vm = vm_for(m);
        // The global sits at the native base; the heap starts after it.
        let next = 0x1_0000 + 16;
        for n in [u64::MAX, 0xffff_ffff_fffe_ffff, (1 << 48) - next + 1] {
            assert_eq!(
                vm.run("main", &[n]),
                Err(VmError::NativeOob {
                    addr: next,
                    bytes: n
                }),
                "size {n:#x}"
            );
        }
        assert_eq!(vm.global_u64("g"), Some(42));
        assert_eq!(vm.run("main", &[16]), Ok(Some(42 + next)));
    }

    /// The central correctness property: the transformed (far-memory)
    /// program computes the same results as the untransformed one.
    #[test]
    fn transformed_equals_native_on_heap_kernel() {
        // heap array: a[i] = i*3; then sum it.
        let build = || {
            let mut m = Module::new("k");
            let mut b = FunctionBuilder::new("main", vec![], Type::I64);
            let n = 2048i64;
            let arr = b.alloc(b.iconst(n * 8), Type::I64);
            let (z, one) = (b.iconst(0), b.iconst(1));
            b.counted_loop(z, b.iconst(n), one, |b, i| {
                let p = b.gep_index(arr, Type::I64, i);
                let v = b.mul(i, b.iconst(3));
                b.store(p, v, Type::I64);
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
        };
        let expected = {
            let mut vm = vm_for(build());
            vm.run("main", &[]).unwrap().unwrap()
        };
        let compiled = compile(build(), CompileOptions::cards()).unwrap();
        // Tiny cache (2 objects for a 4-object array): data must churn.
        let mut vm = Vm::new(
            compiled.module,
            RuntimeConfig::new(0, 2 * 4096),
            SimTransport::default(),
            RemotingPolicy::AllRemotable,
            0,
        );
        let got = vm.run("main", &[]).unwrap().unwrap();
        assert_eq!(got, expected);
        assert!(vm.metrics().guards > 0);
        let rt = vm.runtime();
        assert!(rt.net_stats().fetches > 0, "data must have moved remotely");
    }

    /// Versioned loops take the fast path when the policy pins everything,
    /// and the slow path when everything is remotable.
    #[test]
    fn fast_path_dispatch_follows_policy() {
        let build = || {
            let mut m = Module::new("k");
            let mut b = FunctionBuilder::new("main", vec![], Type::Void);
            let arr = b.alloc(b.iconst(512 * 8), Type::I64);
            let (z, one) = (b.iconst(0), b.iconst(1));
            b.counted_loop(z, b.iconst(512), one, |b, i| {
                let p = b.gep_index(arr, Type::I64, i);
                b.store(p, i, Type::I64);
            });
            b.ret_void();
            m.add_function(b.finish());
            m
        };
        let pinned = {
            let c = compile(build(), CompileOptions::cards()).unwrap();
            assert!(c.versioned_loops >= 1);
            let mut vm = Vm::new(
                c.module,
                RuntimeConfig::new(64 << 20, 1 << 20),
                SimTransport::default(),
                RemotingPolicy::MaxUse,
                100, // pin everything
            );
            vm.run("main", &[]).unwrap();
            (
                vm.metrics().fast_path_taken,
                vm.metrics().slow_path_taken,
                vm.metrics().guards,
            )
        };
        assert!(pinned.0 >= 1, "pinned run must take the fast path");
        assert_eq!(pinned.1, 0);
        assert_eq!(pinned.2, 0, "fast path executes zero guards");

        let remote = {
            let c = compile(build(), CompileOptions::cards()).unwrap();
            let mut vm = Vm::new(
                c.module,
                RuntimeConfig::new(0, 1 << 20),
                SimTransport::default(),
                RemotingPolicy::AllRemotable,
                0,
            );
            vm.run("main", &[]).unwrap();
            (
                vm.metrics().fast_path_taken,
                vm.metrics().slow_path_taken,
                vm.metrics().guards,
            )
        };
        assert_eq!(remote.0, 0);
        assert!(remote.1 >= 1, "remotable run must stay instrumented");
        assert!(remote.2 > 0);
    }

    /// Listing 1 under CaRDS executes and the per-DS stats show ds2 hotter
    /// than ds1.
    #[test]
    fn listing1_runs_with_per_ds_stats() {
        let (m, _) = cards_passes::testutil::listing1();
        let c = compile(m, CompileOptions::cards()).unwrap();
        let mut vm = Vm::new(
            c.module,
            RuntimeConfig::new(4 << 20, 1 << 20),
            SimTransport::default(),
            RemotingPolicy::MaxUse,
            50,
        );
        vm.run("main", &[]).unwrap();
        let rt = vm.runtime();
        assert_eq!(rt.ds_count(), 2);
        let s0 = rt.ds_stats(0).unwrap();
        let s1 = rt.ds_stats(1).unwrap();
        // one of them (ds2) sees an order of magnitude more guard traffic
        let (lo, hi) = if s0.guard_checks < s1.guard_checks {
            (s0, s1)
        } else {
            (s1, s0)
        };
        assert!(hi.guard_checks > 2 * lo.guard_checks.max(1));
    }

    /// End-to-end robustness: the transformed program still computes the
    /// native answer when the transport is running a chaos schedule —
    /// loss bursts, latency spikes, partitions, payload corruption, and a
    /// mid-run server crash/restart.
    #[test]
    fn transformed_survives_chaos_schedules() {
        use cards_net::{ChaosSchedule, ChaosTransport};
        let build = || {
            let mut m = Module::new("k");
            let mut b = FunctionBuilder::new("main", vec![], Type::I64);
            // 64 objects of 4 KiB against a 2-object cache: enough remote
            // churn to run well past the storm schedule's crash window.
            let n = 32 * 1024i64;
            let arr = b.alloc(b.iconst(n * 8), Type::I64);
            let (z, one) = (b.iconst(0), b.iconst(1));
            b.counted_loop(z, b.iconst(n), one, |b, i| {
                let p = b.gep_index(arr, Type::I64, i);
                let v = b.mul(i, b.iconst(7));
                b.store(p, v, Type::I64);
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
        };
        let expected = {
            let mut vm = vm_for(build());
            vm.run("main", &[]).unwrap().unwrap()
        };
        for sched in [ChaosSchedule::storm(7), ChaosSchedule::crash_loop(7)] {
            let c = compile(build(), CompileOptions::cards()).unwrap();
            // The retry budget must cover the longest all-fail window of
            // the schedule (bounded by a cards-net test at <= 12 ops).
            let mut vm = Vm::new(
                c.module,
                RuntimeConfig::new(0, 2 * 4096).with_max_retries(32),
                ChaosTransport::new(sched),
                RemotingPolicy::AllRemotable,
                0,
            );
            let got = vm.run("main", &[]).unwrap().unwrap();
            assert_eq!(got, expected, "chaos must not change results");
            let rt = vm.runtime();
            let g = rt.stats();
            assert!(g.retries > 0, "chaos run should have retried");
            let t = rt.transport();
            assert!(t.chaos_stats().crashes >= 1, "crash phase must fire");
        }
    }

    /// Causal traces survive the chaos kvstore-style kernel: every retained
    /// tree validates, phases sum to operation totals, and the retry storm
    /// shows up as wire/backoff phases plus anomaly triggers.
    #[test]
    fn ttrace_report_and_invariants_under_chaos() {
        use cards_net::{ChaosSchedule, ChaosTransport};
        use cards_runtime::TraceConfig;
        let build = || {
            let mut m = Module::new("k");
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
        };
        let c = compile(build(), CompileOptions::cards()).unwrap();
        let mut vm = Vm::new(
            c.module,
            RuntimeConfig::new(0, 2 * 4096)
                .with_max_retries(32)
                .with_trace(TraceConfig {
                    retry_storm_threshold: 4,
                    ..TraceConfig::default()
                }),
            ChaosTransport::new(ChaosSchedule::storm(7)),
            RemotingPolicy::AllRemotable,
            0,
        );
        vm.run("main", &[]).unwrap();
        let tr = vm.runtime().tracer();
        assert!(tr.remote_ops() > 0, "chaos run must trace remote ops");
        assert!(tr.trees().count() > 0, "ring must retain trees");
        check_traces(&vm).unwrap();
        let report = render_ttrace_report(&vm, 5);
        assert!(report.contains("phase breakdown"));
        assert!(report.contains("wire"), "wire phase must be accounted");
        assert!(report.contains("backoff"), "chaos run must show backoff");
        assert!(report.contains("critical path:"));
        // The storm schedule reliably trips at least one anomaly trigger
        // (breaker_open or retry_storm), capturing a flight snapshot.
        assert!(!tr.triggers().is_empty(), "storm must fire a trigger");
        assert!(!tr.snapshots().is_empty());
        assert!(flight_json(&vm, 0)
            .unwrap()
            .starts_with("{\"schema\":\"cards-flight-v1\""));
    }

    /// Identical runs export byte-identical trace JSON (the difftest
    /// oracle), and the export carries the versioned schema tag.
    #[test]
    fn ttrace_json_is_deterministic() {
        let build = || {
            let mut m = Module::new("k");
            let mut b = FunctionBuilder::new("main", vec![], Type::I64);
            let n = 1024i64;
            let arr = b.alloc(b.iconst(n * 8), Type::I64);
            let (z, one) = (b.iconst(0), b.iconst(1));
            b.counted_loop(z, b.iconst(n), one, |b, i| {
                let p = b.gep_index(arr, Type::I64, i);
                b.store(p, i, Type::I64);
            });
            let out = b.iconst(0);
            b.ret(out);
            m.add_function(b.finish());
            m
        };
        let run = || {
            let c = compile(build(), CompileOptions::cards()).unwrap();
            let mut vm = Vm::new(
                c.module,
                RuntimeConfig::new(0, 2 * 4096),
                SimTransport::default(),
                RemotingPolicy::AllRemotable,
                0,
            );
            vm.run("main", &[]).unwrap();
            ttrace_json(&vm)
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "trace export must be byte-identical across runs");
        assert!(a.starts_with("{\"schema\":\"cards-ttrace-v1\""));
        assert!(a.contains("\"phases\":{"));
        assert!(a.contains("\"trees\":["));
    }

    /// hash64 intrinsic is the documented splitmix64.
    #[test]
    fn hash_intrinsic_matches_reference() {
        let mut m = Module::new("h");
        let mut b = FunctionBuilder::new("main", vec![Type::I64], Type::I64);
        let h = b.intrin(cards_ir::Intrinsic::Hash64, vec![b.arg(0)]);
        b.ret(h);
        m.add_function(b.finish());
        let mut vm = vm_for(m);
        let r = vm.run("main", &[12345]).unwrap().unwrap();
        assert_eq!(r, splitmix64(12345));
        assert_ne!(r, 12345);
    }
}
