//! Golden pins on modeled behaviour: the six applications plus the four
//! Figure-9 micro kinds at test sizes, each run all-pinned and at
//! `run_far_memory`'s 25% operating point. Every case pins the full
//! `VmMetrics`, a digest of the per-DS and global runtime counters, and
//! FNV-1a digests of the causal-trace, profile and telemetry exports.
//!
//! Host-side changes to the interpreter or the runtime's data structures
//! must leave every row untouched: modeled cycles, counters and exports
//! are the deterministic figure of merit, and only host time may move.
//! On a mismatch the test prints the observed table as Rust source.

use cards_core::baselines::MemoryBudget;
use cards_core::ir::Module;
use cards_core::net::envelope::{fnv1a, fnv1a_init};
use cards_core::net::{NetworkModel, SimTransport};
use cards_core::passes::{compile, CompileOptions};
use cards_core::runtime::telemetry::export_json;
use cards_core::runtime::{CostModel, RemotingPolicy, RuntimeConfig};
use cards_core::vm::{profile_json, ttrace_json, Vm, VmMetrics};
use cards_core::workloads::{bfs, fdtd, kvstore, listing1, micro, pagerank, taxi};

/// What one case pins.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Golden {
    checksum: u64,
    metrics: VmMetrics,
    /// Digest of every DS's `DsStats` plus the global `RuntimeStats` and
    /// the transport's `NetStats`.
    stats: u64,
    ttrace: u64,
    profile: u64,
    telemetry: u64,
}

fn digest(s: &str) -> u64 {
    fnv1a(fnv1a_init(), s.as_bytes())
}

fn programs() -> Vec<(&'static str, Module, u64)> {
    let mut v = vec![
        {
            let p = kvstore::KvParams::test();
            ("kvstore", kvstore::build(p).0, p.working_set_bytes())
        },
        {
            let p = bfs::BfsParams::test();
            ("bfs", bfs::build(p).0, p.working_set_bytes())
        },
        {
            let p = taxi::TaxiParams::test();
            ("taxi", taxi::build(p).0, p.working_set_bytes())
        },
        {
            let p = fdtd::FdtdParams::test();
            ("fdtd", fdtd::build(p).0, p.working_set_bytes())
        },
        {
            let p = pagerank::PagerankParams::test();
            ("pagerank", pagerank::build(p).0, p.working_set_bytes())
        },
        {
            let p = listing1::Listing1Params::test();
            ("listing1", listing1::build(p).0, p.working_set_bytes())
        },
    ];
    let p = micro::MicroParams::test();
    for (kind, name) in micro::MicroKind::all()
        .into_iter()
        .zip(["array", "vector", "list", "map"])
    {
        v.push((name, micro::build(kind, p).0, p.working_set_bytes()));
    }
    v
}

/// Compile with the CaRDS pipeline and run `main` with `frac` of the
/// working set pinned plus a 10% remotable cache, Max Use at `k`.
fn run(module: Module, ws: u64, frac: f64, k: u32) -> Golden {
    let c = compile(module, CompileOptions::cards()).unwrap();
    let b = MemoryBudget::fraction_of(ws, frac, 0.1);
    let cfg = RuntimeConfig::new(b.local_bytes - b.remotable_reserve, b.remotable_reserve)
        .with_costs(CostModel::cards());
    let mut vm = Vm::new(
        c.module,
        cfg,
        SimTransport::new(NetworkModel::default()),
        RemotingPolicy::MaxUse,
        k,
    );
    let checksum = vm.run("main", &[]).unwrap().unwrap();
    let rt = vm.runtime();
    let mut stats = String::new();
    for h in 0..rt.ds_count() {
        stats += &format!("{:?};", rt.ds_stats(h as u16).unwrap());
    }
    stats += &format!("{:?};{:?}", rt.stats(), rt.net_stats());
    Golden {
        checksum,
        metrics: *vm.metrics(),
        stats: digest(&stats),
        ttrace: digest(&ttrace_json(&vm)),
        profile: digest(&profile_json(&vm)),
        telemetry: digest(&export_json(rt)),
    }
}

fn row(name: &str, mode: &str, g: &Golden) -> String {
    let m = &g.metrics;
    format!(
        "    (\"{name}\", \"{mode}\", Golden {{ checksum: {:#x}, metrics: VmMetrics {{ cycles: {}, \
         instructions: {}, loads: {}, stores: {}, guards: {}, remotable_checks: {}, \
         fast_path_taken: {}, slow_path_taken: {}, calls: {} }}, stats: {:#x}, ttrace: {:#x}, \
         profile: {:#x}, telemetry: {:#x} }}),\n",
        g.checksum,
        m.cycles,
        m.instructions,
        m.loads,
        m.stores,
        m.guards,
        m.remotable_checks,
        m.fast_path_taken,
        m.slow_path_taken,
        m.calls,
        g.stats,
        g.ttrace,
        g.profile,
        g.telemetry,
    )
}

#[rustfmt::skip]
const EXPECTED: &[(&str, &str, Golden)] = &[
    ("kvstore", "pinned", Golden { checksum: 0x302a3c4e, metrics: VmMetrics { cycles: 190367, instructions: 79159, loads: 13662, stores: 7708, guards: 0, remotable_checks: 5, fast_path_taken: 5, slow_path_taken: 0, calls: 0 }, stats: 0xb38bfe32c6cee4b6, ttrace: 0x6ad0f20a75e8af1b, profile: 0x80c6db5b19d2f004, telemetry: 0x5f423c362ec0484a }),
    ("kvstore", "remote", Golden { checksum: 0x302a3c4e, metrics: VmMetrics { cycles: 5423839, instructions: 88906, loads: 13662, stores: 7708, guards: 9747, remotable_checks: 5, fast_path_taken: 1, slow_path_taken: 4, calls: 0 }, stats: 0x6bf53b4a0d96b5cb, ttrace: 0xba0bd3767e7b66e7, profile: 0xd3b02948b88d0cf4, telemetry: 0x8bc0121621d2e665 }),
    ("bfs", "pinned", Golden { checksum: 0x8fd, metrics: VmMetrics { cycles: 177684, instructions: 92641, loads: 10158, stores: 7161, guards: 2, remotable_checks: 7, fast_path_taken: 7, slow_path_taken: 0, calls: 0 }, stats: 0x571f7519687192e8, ttrace: 0x5111167400f33f76, profile: 0xb2c0599371f38681, telemetry: 0x72609cbd83d3f94f }),
    ("bfs", "remote", Golden { checksum: 0x8fd, metrics: VmMetrics { cycles: 60515130, instructions: 106112, loads: 10158, stores: 7161, guards: 13473, remotable_checks: 7, fast_path_taken: 4, slow_path_taken: 3, calls: 0 }, stats: 0x776c952a490f0311, ttrace: 0x16f78bf9023b4e9f, profile: 0x70a2720cca11cfbc, telemetry: 0xc0911ee65db1129d }),
    ("taxi", "pinned", Golden { checksum: 0x52e0c6a, metrics: VmMetrics { cycles: 761947, instructions: 361650, loads: 49075, stores: 40263, guards: 0, remotable_checks: 29, fast_path_taken: 29, slow_path_taken: 0, calls: 0 }, stats: 0xf503d1c46380eb37, ttrace: 0x5e6d3b0a6cdc5346, profile: 0x846a3e190c1674c9, telemetry: 0xdf60ef04e35563a3 }),
    ("taxi", "remote", Golden { checksum: 0x52e0c6a, metrics: VmMetrics { cycles: 32470497, instructions: 431126, loads: 49075, stores: 40263, guards: 69476, remotable_checks: 29, fast_path_taken: 22, slow_path_taken: 7, calls: 0 }, stats: 0xf46756bcacf4e2d4, ttrace: 0x5054900c1e9a6490, profile: 0x5b1d331147daa046, telemetry: 0x923adaa3a70e81e7 }),
    ("fdtd", "pinned", Golden { checksum: 0x89faf, metrics: VmMetrics { cycles: 571177, instructions: 297937, loads: 41503, stores: 21320, guards: 1, remotable_checks: 21, fast_path_taken: 21, slow_path_taken: 0, calls: 0 }, stats: 0xd30e3840a6cca8a4, ttrace: 0xe35aba627f37d34d, profile: 0x1dc767eb5ce7eabe, telemetry: 0x44cd3d752ea290de }),
    ("fdtd", "remote", Golden { checksum: 0x89faf, metrics: VmMetrics { cycles: 34617773, instructions: 352693, loads: 41503, stores: 21320, guards: 54757, remotable_checks: 21, fast_path_taken: 4, slow_path_taken: 17, calls: 0 }, stats: 0x810b6e5c86e39282, ttrace: 0xc156ace8485f52c5, profile: 0x36f9de257537d7fb, telemetry: 0x3548fc441f20a423 }),
    ("pagerank", "pinned", Golden { checksum: 0xff505, metrics: VmMetrics { cycles: 213676, instructions: 122511, loads: 14014, stores: 10410, guards: 0, remotable_checks: 5, fast_path_taken: 5, slow_path_taken: 0, calls: 0 }, stats: 0xa1a18b253443f103, ttrace: 0xbd44e3b54b5c8dbd, profile: 0xa2e419ef1eb88219, telemetry: 0x7784e8ab0b08ce87 }),
    ("pagerank", "remote", Golden { checksum: 0xff505, metrics: VmMetrics { cycles: 9036806, instructions: 145312, loads: 14014, stores: 10410, guards: 22801, remotable_checks: 5, fast_path_taken: 2, slow_path_taken: 3, calls: 0 }, stats: 0x7c071056de0eccff, ttrace: 0x758a6fb2d381ca0, profile: 0x6b4ddf5138f8b193, telemetry: 0xb9b18d0706fc6f16 }),
    ("listing1", "pinned", Golden { checksum: 0x6, metrics: VmMetrics { cycles: 132434, instructions: 86118, loads: 11, stores: 12290, guards: 3, remotable_checks: 6, fast_path_taken: 6, slow_path_taken: 0, calls: 8 }, stats: 0x9df5c553e6d2e336, ttrace: 0x434ea70da302271b, profile: 0x4d90edc8f8b8c483, telemetry: 0xe70a6fe69e3691bb }),
    ("listing1", "remote", Golden { checksum: 0x6, metrics: VmMetrics { cycles: 5628862, instructions: 98406, loads: 11, stores: 12290, guards: 12291, remotable_checks: 6, fast_path_taken: 0, slow_path_taken: 6, calls: 8 }, stats: 0x8398f21c4a5fb8be, ttrace: 0xd92a9d8dc824f957, profile: 0x994e1feeccfb3831, telemetry: 0xa45bc381a7ee2c6e }),
    ("array", "pinned", Golden { checksum: 0x1da72060, metrics: VmMetrics { cycles: 25103, instructions: 11560, loads: 1537, stores: 1537, guards: 0, remotable_checks: 2, fast_path_taken: 2, slow_path_taken: 0, calls: 0 }, stats: 0x32a2533118d8b728, ttrace: 0xbe7602358a3ce18a, profile: 0xb1e6f51983a35d08, telemetry: 0xe6bdd11f16a9e709 }),
    ("array", "remote", Golden { checksum: 0x1da72060, metrics: VmMetrics { cycles: 805391, instructions: 13608, loads: 1537, stores: 1537, guards: 2048, remotable_checks: 2, fast_path_taken: 0, slow_path_taken: 2, calls: 0 }, stats: 0xd78a2c6ae64a4186, ttrace: 0xaa3680205f4057c3, profile: 0x7abf0439172c598d, telemetry: 0xac25ce2cf1adaf68 }),
    ("vector", "pinned", Golden { checksum: 0x1da72060, metrics: VmMetrics { cycles: 37265, instructions: 15677, loads: 3585, stores: 1543, guards: 3, remotable_checks: 2, fast_path_taken: 2, slow_path_taken: 0, calls: 0 }, stats: 0x6322091d8e4892ae, ttrace: 0xe4a9977600dc493f, profile: 0xf071159c9c312727, telemetry: 0x535e63ecc82eaa12 }),
    ("vector", "remote", Golden { checksum: 0x1da72060, metrics: VmMetrics { cycles: 1780571, instructions: 19773, loads: 3585, stores: 1543, guards: 4099, remotable_checks: 2, fast_path_taken: 0, slow_path_taken: 2, calls: 0 }, stats: 0x5bf5a3c8063c85a6, ttrace: 0xa9d99174c0caca80, profile: 0x373e880f71bace9f, telemetry: 0x234e04e16463c48b }),
    ("list", "pinned", Golden { checksum: 0x1da72060, metrics: VmMetrics { cycles: 157431, instructions: 19250, loads: 3588, stores: 2563, guards: 257, remotable_checks: 2, fast_path_taken: 2, slow_path_taken: 0, calls: 0 }, stats: 0xa9a0617086c8a5d0, ttrace: 0xe98e80acdce5c821, profile: 0xf12984792bf5f72e, telemetry: 0x4d51097ea8f7d4be }),
    ("list", "remote", Golden { checksum: 0x1da72060, metrics: VmMetrics { cycles: 642807, instructions: 20530, loads: 3588, stores: 2563, guards: 1537, remotable_checks: 2, fast_path_taken: 0, slow_path_taken: 2, calls: 0 }, stats: 0x3d911be93c4b3c4f, ttrace: 0x4c4af34f20b5413, profile: 0x79831a2bee5f6e73, telemetry: 0x6662609eef9d5986 }),
    ("map", "pinned", Golden { checksum: 0x1da72060, metrics: VmMetrics { cycles: 75158, instructions: 28162, loads: 5056, stores: 3478, guards: 0, remotable_checks: 3, fast_path_taken: 3, slow_path_taken: 0, calls: 0 }, stats: 0x1c8b4ef3271f1ab7, ttrace: 0xc23ccacc254776ee, profile: 0xb063793e0d6fcd2b, telemetry: 0xb760d39992cf0c0 }),
    ("map", "remote", Golden { checksum: 0x1da72060, metrics: VmMetrics { cycles: 16429724, instructions: 31639, loads: 5056, stores: 3478, guards: 3477, remotable_checks: 3, fast_path_taken: 1, slow_path_taken: 2, calls: 0 }, stats: 0x8609980f14b8d170, ttrace: 0x9c4b6db7e7c205d9, profile: 0xd7e615dabbe1218b, telemetry: 0x389dea675215453 }),
];

#[test]
fn modeled_behaviour_matches_golden_table() {
    let mut observed = String::new();
    let mut mismatches = Vec::new();
    for (name, module, ws) in programs() {
        for (mode, frac, k) in [("pinned", 2.0, 100), ("remote", 0.25, 50)] {
            let g = run(module.clone(), ws, frac, k);
            observed += &row(name, mode, &g);
            let want = EXPECTED
                .iter()
                .find(|(n, md, _)| *n == name && *md == mode)
                .map(|(_, _, w)| *w);
            if want != Some(g) {
                mismatches.push(format!("{name}/{mode}: want {want:?}\n  got {g:?}"));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} golden rows differ:\n{}\nobserved table:\n{observed}",
        mismatches.len(),
        mismatches.join("\n")
    );
}
