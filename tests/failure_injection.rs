//! Failure injection: the runtime must retry transient transport faults
//! and keep every workload's results exactly correct.

use cards_core::net::{FaultyTransport, NetworkModel, SimTransport};
use cards_core::passes::{compile, CompileOptions};
use cards_core::runtime::{RemotingPolicy, RuntimeConfig};
use cards_core::vm::Vm;
use cards_core::workloads::{bfs, listing1, micro, taxi};

fn run_faulty(m: cards_core::ir::Module, cache: u64, rate: f64, seed: u64) -> i64 {
    let c = compile(m, CompileOptions::cards()).expect("compile");
    let transport = FaultyTransport::new(SimTransport::new(NetworkModel::default()), rate, seed);
    let mut vm = Vm::new(
        c.module,
        RuntimeConfig::new(0, cache),
        transport,
        RemotingPolicy::AllRemotable,
        0,
    );
    let r = vm.run("main", &[]).expect("run under faults").unwrap() as i64;
    assert!(
        vm.runtime().stats().retries > 0,
        "fault rate {rate} should have forced retries"
    );
    r
}

#[test]
fn listing1_survives_30pct_faults() {
    let p = listing1::Listing1Params::test();
    let (m, _) = listing1::build(p);
    let got = run_faulty(m, 4096, 0.3, 11);
    assert_eq!(got, listing1::reference(p));
}

#[test]
fn taxi_survives_faults() {
    let p = taxi::TaxiParams { trips: 1_000 };
    let (m, _) = taxi::build(p);
    let got = run_faulty(m, 8 * 4096, 0.2, 22);
    assert_eq!(got, taxi::reference(p));
}

#[test]
fn bfs_survives_faults() {
    let p = bfs::BfsParams {
        nodes: 300,
        degree: 5,
    };
    let (m, _) = bfs::build(p);
    let got = run_faulty(m, 2 * 4096, 0.2, 33);
    assert_eq!(got, bfs::reference(p));
}

#[test]
fn pointer_chasing_list_survives_faults() {
    let p = micro::MicroParams {
        elems: 128,
        reps: 2,
    };
    let (m, _) = micro::build(micro::MicroKind::List, p);
    let got = run_faulty(m, 4096, 0.25, 44);
    assert_eq!(got, micro::reference(micro::MicroKind::List, p));
}

#[test]
fn retries_are_priced() {
    // The same run with faults must cost strictly more cycles than without.
    let p = listing1::Listing1Params::test();
    let run = |rate: f64| {
        let (m, _) = listing1::build(p);
        let c = compile(m, CompileOptions::cards()).unwrap();
        let transport = FaultyTransport::new(SimTransport::new(NetworkModel::default()), rate, 5);
        let mut vm = Vm::new(
            c.module,
            RuntimeConfig::new(0, 4096),
            transport,
            RemotingPolicy::AllRemotable,
            0,
        );
        vm.run("main", &[]).unwrap();
        vm.metrics().cycles
    };
    let clean = run(0.0);
    let faulty = run(0.4);
    assert!(faulty > clean, "faulty {faulty} vs clean {clean}");
}
