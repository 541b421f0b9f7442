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
//!
//! A second table pins seeded `testgen` programs, which reach what the
//! paper programs do not: `free`, narrow-width arithmetic on corner
//! operands, helper calls and pointer-chased chains, untransformed as well
//! as under both far-memory pipelines.
//!
//! A third table pins the compiler's output itself under both pipelines:
//! the printed module, the site table, guard counts and versioned loops of
//! every program above, the split serving program and the benchmark's
//! ~1k-instruction generator config. Host-side changes to the passes must
//! leave it untouched.
//!
//! A fourth table pins the runtime's recovery paths, which clean
//! `SimTransport` runs never reach: the cache-starved kvstore and two
//! `GenConfig::chaos()` programs (with frees) under Bernoulli faults, a
//! chaos storm, a crash loop, and a governed squeeze composed with the
//! storm. Its rows must keep reaching retries, crash detection, journal
//! replay, breaker trips and proactive eviction.

use cards_core::baselines::MemoryBudget;
use cards_core::ir::testgen::{generate, GenConfig};
use cards_core::ir::{print_module, Module};
use cards_core::net::envelope::{fnv1a, fnv1a_init};
use cards_core::net::{
    ChaosSchedule, ChaosTransport, FaultyTransport, NetworkModel, SimTransport, Transport,
};
use cards_core::passes::{compile, CompileOptions};
use cards_core::runtime::telemetry::export_json;
use cards_core::runtime::{
    CostModel, PressureConfig, PressureSchedule, RemotingPolicy, RuntimeConfig, RuntimeStats,
};
use cards_core::vm::{profile_json, ttrace_json, Vm, VmMetrics};
use cards_core::workloads::{bfs, fdtd, kvstore, listing1, micro, pagerank, serving, taxi};

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

/// What one generated-program case pins.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct GenGolden {
    ret: Option<u64>,
    digest: Option<u64>,
    metrics: VmMetrics,
    /// Digest of the per-DS, global runtime and transport counters.
    stats: u64,
}

/// Run `module` compiled by `opts` (untransformed when `None`) with
/// `frac` of `ws` pinned plus a 10% remotable cache, Max Use at `k`.
fn run_generated(
    module: Module,
    opts: Option<CompileOptions>,
    ws: u64,
    frac: f64,
    k: u32,
) -> GenGolden {
    let module = match opts {
        Some(o) => compile(module, o).unwrap().module,
        None => module,
    };
    let b = MemoryBudget::fraction_of(ws, frac, 0.1);
    let cfg = RuntimeConfig::new(b.local_bytes - b.remotable_reserve, b.remotable_reserve)
        .with_costs(CostModel::cards());
    let mut vm = Vm::new(
        module,
        cfg,
        SimTransport::new(NetworkModel::default()),
        RemotingPolicy::MaxUse,
        k,
    );
    let ret = vm.run("main", &[]).unwrap();
    let rt = vm.runtime();
    let mut stats = String::new();
    for h in 0..rt.ds_count() {
        stats += &format!("{:?};", rt.ds_stats(h as u16).unwrap());
    }
    stats += &format!("{:?};{:?}", rt.stats(), rt.net_stats());
    GenGolden {
        ret,
        digest: vm.global_u64("digest"),
        metrics: *vm.metrics(),
        stats: digest(&stats),
    }
}

fn gen_row(cfg: &str, seed: u64, pipe: &str, mode: &str, g: &GenGolden) -> String {
    let m = &g.metrics;
    let hex = |v: Option<u64>| v.map_or("None".to_string(), |v| format!("Some({v:#x})"));
    format!(
        "    (\"{cfg}\", {seed}, \"{pipe}\", \"{mode}\", GenGolden {{ ret: {}, digest: {}, \
         metrics: VmMetrics {{ cycles: {}, instructions: {}, loads: {}, stores: {}, guards: {}, \
         remotable_checks: {}, fast_path_taken: {}, slow_path_taken: {}, calls: {} }}, \
         stats: {:#x} }}),\n",
        hex(g.ret),
        hex(g.digest),
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
    )
}

#[rustfmt::skip]
const GENERATED: &[(&str, u64, &str, &str, GenGolden)] = &[
    ("default", 1, "untransformed", "pinned", GenGolden { ret: Some(0x620), digest: Some(0x643c78e73354ae59), metrics: VmMetrics { cycles: 9935, instructions: 5186, loads: 641, stores: 513, guards: 0, remotable_checks: 0, fast_path_taken: 0, slow_path_taken: 0, calls: 32 }, stats: 0xb606e6a5d6186bfe }),
    ("default", 1, "untransformed", "remote", GenGolden { ret: Some(0x620), digest: Some(0x643c78e73354ae59), metrics: VmMetrics { cycles: 9935, instructions: 5186, loads: 641, stores: 513, guards: 0, remotable_checks: 0, fast_path_taken: 0, slow_path_taken: 0, calls: 32 }, stats: 0xb606e6a5d6186bfe }),
    ("default", 1, "cards", "pinned", GenGolden { ret: Some(0x620), digest: Some(0x643c78e73354ae59), metrics: VmMetrics { cycles: 253897, instructions: 5840, loads: 641, stores: 513, guards: 640, remotable_checks: 6, fast_path_taken: 0, slow_path_taken: 6, calls: 32 }, stats: 0x38352dfecef86f3f }),
    ("default", 1, "cards", "remote", GenGolden { ret: Some(0x620), digest: Some(0x643c78e73354ae59), metrics: VmMetrics { cycles: 253897, instructions: 5840, loads: 641, stores: 513, guards: 640, remotable_checks: 6, fast_path_taken: 0, slow_path_taken: 6, calls: 32 }, stats: 0x6351f18458e8abea }),
    ("default", 1, "trackfm", "pinned", GenGolden { ret: Some(0x620), digest: Some(0x643c78e73354ae59), metrics: VmMetrics { cycles: 254167, instructions: 6086, loads: 641, stores: 513, guards: 898, remotable_checks: 0, fast_path_taken: 0, slow_path_taken: 0, calls: 32 }, stats: 0x690304dc221caa88 }),
    ("default", 1, "trackfm", "remote", GenGolden { ret: Some(0x620), digest: Some(0x643c78e73354ae59), metrics: VmMetrics { cycles: 254167, instructions: 6086, loads: 641, stores: 513, guards: 898, remotable_checks: 0, fast_path_taken: 0, slow_path_taken: 0, calls: 32 }, stats: 0xedd03e2ceb17aded }),
    ("default", 2, "untransformed", "pinned", GenGolden { ret: Some(0xffffffffffc56bba), digest: Some(0x201fae9d12ecffb8), metrics: VmMetrics { cycles: 8491, instructions: 4192, loads: 517, stores: 451, guards: 0, remotable_checks: 0, fast_path_taken: 0, slow_path_taken: 0, calls: 44 }, stats: 0xb606e6a5d6186bfe }),
    ("default", 2, "untransformed", "remote", GenGolden { ret: Some(0xffffffffffc56bba), digest: Some(0x201fae9d12ecffb8), metrics: VmMetrics { cycles: 8491, instructions: 4192, loads: 517, stores: 451, guards: 0, remotable_checks: 0, fast_path_taken: 0, slow_path_taken: 0, calls: 44 }, stats: 0xb606e6a5d6186bfe }),
    ("default", 2, "cards", "pinned", GenGolden { ret: Some(0xffffffffffc56bba), digest: Some(0x201fae9d12ecffb8), metrics: VmMetrics { cycles: 181772, instructions: 4658, loads: 517, stores: 451, guards: 454, remotable_checks: 5, fast_path_taken: 0, slow_path_taken: 5, calls: 44 }, stats: 0x4151ecee27f450af }),
    ("default", 2, "cards", "remote", GenGolden { ret: Some(0xffffffffffc56bba), digest: Some(0x201fae9d12ecffb8), metrics: VmMetrics { cycles: 181772, instructions: 4658, loads: 517, stores: 451, guards: 454, remotable_checks: 5, fast_path_taken: 0, slow_path_taken: 5, calls: 44 }, stats: 0xf2a0d811618a6606 }),
    ("default", 2, "trackfm", "pinned", GenGolden { ret: Some(0xffffffffffc56bba), digest: Some(0x201fae9d12ecffb8), metrics: VmMetrics { cycles: 182043, instructions: 4906, loads: 517, stores: 451, guards: 712, remotable_checks: 0, fast_path_taken: 0, slow_path_taken: 0, calls: 44 }, stats: 0xca226fe051bc14f2 }),
    ("default", 2, "trackfm", "remote", GenGolden { ret: Some(0xffffffffffc56bba), digest: Some(0x201fae9d12ecffb8), metrics: VmMetrics { cycles: 182043, instructions: 4906, loads: 517, stores: 451, guards: 712, remotable_checks: 0, fast_path_taken: 0, slow_path_taken: 0, calls: 44 }, stats: 0x843e34af5b4d3087 }),
    ("default", 3, "untransformed", "pinned", GenGolden { ret: Some(0x40272900), digest: Some(0x79677913899f7595), metrics: VmMetrics { cycles: 11263, instructions: 5830, loads: 685, stores: 535, guards: 0, remotable_checks: 0, fast_path_taken: 0, slow_path_taken: 0, calls: 86 }, stats: 0xb606e6a5d6186bfe }),
    ("default", 3, "untransformed", "remote", GenGolden { ret: Some(0x40272900), digest: Some(0x79677913899f7595), metrics: VmMetrics { cycles: 11263, instructions: 5830, loads: 685, stores: 535, guards: 0, remotable_checks: 0, fast_path_taken: 0, slow_path_taken: 0, calls: 86 }, stats: 0xb606e6a5d6186bfe }),
    ("default", 3, "cards", "pinned", GenGolden { ret: Some(0x40272900), digest: Some(0x79677913899f7595), metrics: VmMetrics { cycles: 280264, instructions: 6548, loads: 685, stores: 535, guards: 706, remotable_checks: 5, fast_path_taken: 0, slow_path_taken: 5, calls: 86 }, stats: 0x7e4375352ab583db }),
    ("default", 3, "cards", "remote", GenGolden { ret: Some(0x40272900), digest: Some(0x79677913899f7595), metrics: VmMetrics { cycles: 280264, instructions: 6548, loads: 685, stores: 535, guards: 706, remotable_checks: 5, fast_path_taken: 0, slow_path_taken: 5, calls: 86 }, stats: 0x1fe4df188e71ec2e }),
    ("default", 3, "trackfm", "pinned", GenGolden { ret: Some(0x40272900), digest: Some(0x79677913899f7595), metrics: VmMetrics { cycles: 280575, instructions: 6796, loads: 685, stores: 535, guards: 964, remotable_checks: 0, fast_path_taken: 0, slow_path_taken: 0, calls: 86 }, stats: 0x9a174fa77d55bf95 }),
    ("default", 3, "trackfm", "remote", GenGolden { ret: Some(0x40272900), digest: Some(0x79677913899f7595), metrics: VmMetrics { cycles: 280575, instructions: 6796, loads: 685, stores: 535, guards: 964, remotable_checks: 0, fast_path_taken: 0, slow_path_taken: 0, calls: 86 }, stats: 0x519b9112b33379a0 }),
    ("adversarial", 1, "untransformed", "pinned", GenGolden { ret: Some(0x738118c28605b8f1), digest: Some(0x32eb309ddcf8146a), metrics: VmMetrics { cycles: 5144, instructions: 2168, loads: 273, stores: 237, guards: 0, remotable_checks: 0, fast_path_taken: 0, slow_path_taken: 0, calls: 36 }, stats: 0xb606e6a5d6186bfe }),
    ("adversarial", 1, "untransformed", "remote", GenGolden { ret: Some(0x738118c28605b8f1), digest: Some(0x32eb309ddcf8146a), metrics: VmMetrics { cycles: 5144, instructions: 2168, loads: 273, stores: 237, guards: 0, remotable_checks: 0, fast_path_taken: 0, slow_path_taken: 0, calls: 36 }, stats: 0xb606e6a5d6186bfe }),
    ("adversarial", 1, "cards", "pinned", GenGolden { ret: Some(0x738118c28605b8f1), digest: Some(0x32eb309ddcf8146a), metrics: VmMetrics { cycles: 87275, instructions: 2395, loads: 273, stores: 237, guards: 214, remotable_checks: 5, fast_path_taken: 1, slow_path_taken: 4, calls: 36 }, stats: 0x70a801fecf443e8e }),
    ("adversarial", 1, "cards", "remote", GenGolden { ret: Some(0x738118c28605b8f1), digest: Some(0x32eb309ddcf8146a), metrics: VmMetrics { cycles: 91055, instructions: 2405, loads: 273, stores: 237, guards: 224, remotable_checks: 5, fast_path_taken: 0, slow_path_taken: 5, calls: 36 }, stats: 0x68d43b11732396c6 }),
    ("adversarial", 1, "trackfm", "pinned", GenGolden { ret: Some(0x738118c28605b8f1), digest: Some(0x32eb309ddcf8146a), metrics: VmMetrics { cycles: 91052, instructions: 2526, loads: 273, stores: 237, guards: 355, remotable_checks: 0, fast_path_taken: 0, slow_path_taken: 0, calls: 36 }, stats: 0xd3fe4d91aff60b90 }),
    ("adversarial", 1, "trackfm", "remote", GenGolden { ret: Some(0x738118c28605b8f1), digest: Some(0x32eb309ddcf8146a), metrics: VmMetrics { cycles: 91052, instructions: 2526, loads: 273, stores: 237, guards: 355, remotable_checks: 0, fast_path_taken: 0, slow_path_taken: 0, calls: 36 }, stats: 0x65b3ab465ff62038 }),
    ("adversarial", 2, "untransformed", "pinned", GenGolden { ret: Some(0xfe9a3efc437c9782), digest: Some(0xac29dce433af1b80), metrics: VmMetrics { cycles: 4886, instructions: 2048, loads: 267, stores: 233, guards: 0, remotable_checks: 0, fast_path_taken: 0, slow_path_taken: 0, calls: 24 }, stats: 0xb606e6a5d6186bfe }),
    ("adversarial", 2, "untransformed", "remote", GenGolden { ret: Some(0xfe9a3efc437c9782), digest: Some(0xac29dce433af1b80), metrics: VmMetrics { cycles: 4886, instructions: 2048, loads: 267, stores: 233, guards: 0, remotable_checks: 0, fast_path_taken: 0, slow_path_taken: 0, calls: 24 }, stats: 0xb606e6a5d6186bfe }),
    ("adversarial", 2, "cards", "pinned", GenGolden { ret: Some(0xfe9a3efc437c9782), digest: Some(0xac29dce433af1b80), metrics: VmMetrics { cycles: 82538, instructions: 2265, loads: 267, stores: 233, guards: 202, remotable_checks: 6, fast_path_taken: 1, slow_path_taken: 5, calls: 24 }, stats: 0x5fb7023647e019cf }),
    ("adversarial", 2, "cards", "remote", GenGolden { ret: Some(0xfe9a3efc437c9782), digest: Some(0xac29dce433af1b80), metrics: VmMetrics { cycles: 86318, instructions: 2275, loads: 267, stores: 233, guards: 212, remotable_checks: 6, fast_path_taken: 0, slow_path_taken: 6, calls: 24 }, stats: 0x87d446e8f572bc0e }),
    ("adversarial", 2, "trackfm", "pinned", GenGolden { ret: Some(0xfe9a3efc437c9782), digest: Some(0xac29dce433af1b80), metrics: VmMetrics { cycles: 86238, instructions: 2396, loads: 267, stores: 233, guards: 345, remotable_checks: 0, fast_path_taken: 0, slow_path_taken: 0, calls: 24 }, stats: 0x2f2e89a2dc00231b }),
    ("adversarial", 2, "trackfm", "remote", GenGolden { ret: Some(0xfe9a3efc437c9782), digest: Some(0xac29dce433af1b80), metrics: VmMetrics { cycles: 86238, instructions: 2396, loads: 267, stores: 233, guards: 345, remotable_checks: 0, fast_path_taken: 0, slow_path_taken: 0, calls: 24 }, stats: 0xc6e58aa175aa81ff }),
    ("adversarial", 3, "untransformed", "pinned", GenGolden { ret: Some(0xe700e0fb8b0fa0df), digest: Some(0xf69676b3bd2fcc75), metrics: VmMetrics { cycles: 5586, instructions: 2409, loads: 295, stores: 246, guards: 0, remotable_checks: 0, fast_path_taken: 0, slow_path_taken: 0, calls: 48 }, stats: 0xb606e6a5d6186bfe }),
    ("adversarial", 3, "untransformed", "remote", GenGolden { ret: Some(0xe700e0fb8b0fa0df), digest: Some(0xf69676b3bd2fcc75), metrics: VmMetrics { cycles: 5586, instructions: 2409, loads: 295, stores: 246, guards: 0, remotable_checks: 0, fast_path_taken: 0, slow_path_taken: 0, calls: 48 }, stats: 0xb606e6a5d6186bfe }),
    ("adversarial", 3, "cards", "pinned", GenGolden { ret: Some(0xe700e0fb8b0fa0df), digest: Some(0xf69676b3bd2fcc75), metrics: VmMetrics { cycles: 101397, instructions: 2672, loads: 295, stores: 246, guards: 250, remotable_checks: 5, fast_path_taken: 1, slow_path_taken: 4, calls: 48 }, stats: 0x602f4028d630e750 }),
    ("adversarial", 3, "cards", "remote", GenGolden { ret: Some(0xe700e0fb8b0fa0df), digest: Some(0xf69676b3bd2fcc75), metrics: VmMetrics { cycles: 105177, instructions: 2682, loads: 295, stores: 246, guards: 260, remotable_checks: 5, fast_path_taken: 0, slow_path_taken: 5, calls: 48 }, stats: 0xf5067c18f0511cb7 }),
    ("adversarial", 3, "trackfm", "pinned", GenGolden { ret: Some(0xe700e0fb8b0fa0df), digest: Some(0xf69676b3bd2fcc75), metrics: VmMetrics { cycles: 105176, instructions: 2804, loads: 295, stores: 246, guards: 392, remotable_checks: 0, fast_path_taken: 0, slow_path_taken: 0, calls: 48 }, stats: 0xad55180b6599381f }),
    ("adversarial", 3, "trackfm", "remote", GenGolden { ret: Some(0xe700e0fb8b0fa0df), digest: Some(0xf69676b3bd2fcc75), metrics: VmMetrics { cycles: 105176, instructions: 2804, loads: 295, stores: 246, guards: 392, remotable_checks: 0, fast_path_taken: 0, slow_path_taken: 0, calls: 48 }, stats: 0xf61177e4784dc6d3 }),
    ("chaos", 1, "untransformed", "pinned", GenGolden { ret: Some(0xd8e58bd8185c42d4), digest: Some(0x2c57de28275c1908), metrics: VmMetrics { cycles: 428930, instructions: 211384, loads: 26069, stores: 22314, guards: 0, remotable_checks: 0, fast_path_taken: 0, slow_path_taken: 0, calls: 3072 }, stats: 0xb606e6a5d6186bfe }),
    ("chaos", 1, "untransformed", "remote", GenGolden { ret: Some(0xd8e58bd8185c42d4), digest: Some(0x2c57de28275c1908), metrics: VmMetrics { cycles: 428930, instructions: 211384, loads: 26069, stores: 22314, guards: 0, remotable_checks: 0, fast_path_taken: 0, slow_path_taken: 0, calls: 3072 }, stats: 0xb606e6a5d6186bfe }),
    ("chaos", 1, "cards", "pinned", GenGolden { ret: Some(0xd8e58bd8185c42d4), digest: Some(0x2c57de28275c1908), metrics: VmMetrics { cycles: 3941524, instructions: 220644, loads: 26069, stores: 22314, guards: 9240, remotable_checks: 8, fast_path_taken: 8, slow_path_taken: 0, calls: 3072 }, stats: 0xd932204122c4b611 }),
    ("chaos", 1, "cards", "remote", GenGolden { ret: Some(0xd8e58bd8185c42d4), digest: Some(0x2c57de28275c1908), metrics: VmMetrics { cycles: 10130212, instructions: 235005, loads: 26069, stores: 22314, guards: 23601, remotable_checks: 8, fast_path_taken: 0, slow_path_taken: 8, calls: 3072 }, stats: 0xd9abe10479073b9f }),
    ("chaos", 1, "trackfm", "pinned", GenGolden { ret: Some(0xd8e58bd8185c42d4), digest: Some(0x2c57de28275c1908), metrics: VmMetrics { cycles: 9435196, instructions: 247354, loads: 26069, stores: 22314, guards: 35966, remotable_checks: 0, fast_path_taken: 0, slow_path_taken: 0, calls: 3072 }, stats: 0x89dd64a0d85b31e6 }),
    ("chaos", 1, "trackfm", "remote", GenGolden { ret: Some(0xd8e58bd8185c42d4), digest: Some(0x2c57de28275c1908), metrics: VmMetrics { cycles: 10068216, instructions: 247354, loads: 26069, stores: 22314, guards: 35966, remotable_checks: 0, fast_path_taken: 0, slow_path_taken: 0, calls: 3072 }, stats: 0xc1fabb63edbc18e7 }),
    ("chaos", 2, "untransformed", "pinned", GenGolden { ret: Some(0xa72b2d0fe563b510), digest: Some(0xa25ae22574434e38), metrics: VmMetrics { cycles: 414604, instructions: 206268, loads: 26071, stores: 22314, guards: 0, remotable_checks: 0, fast_path_taken: 0, slow_path_taken: 0, calls: 2048 }, stats: 0xb606e6a5d6186bfe }),
    ("chaos", 2, "untransformed", "remote", GenGolden { ret: Some(0xa72b2d0fe563b510), digest: Some(0xa25ae22574434e38), metrics: VmMetrics { cycles: 414604, instructions: 206268, loads: 26071, stores: 22314, guards: 0, remotable_checks: 0, fast_path_taken: 0, slow_path_taken: 0, calls: 2048 }, stats: 0xb606e6a5d6186bfe }),
    ("chaos", 2, "cards", "pinned", GenGolden { ret: Some(0xa72b2d0fe563b510), digest: Some(0xa25ae22574434e38), metrics: VmMetrics { cycles: 2759959, instructions: 212458, loads: 26071, stores: 22314, guards: 6168, remotable_checks: 9, fast_path_taken: 9, slow_path_taken: 0, calls: 2048 }, stats: 0x3fc24d87951fcf3e }),
    ("chaos", 2, "cards", "remote", GenGolden { ret: Some(0xa72b2d0fe563b510), digest: Some(0xa25ae22574434e38), metrics: VmMetrics { cycles: 10116007, instructions: 229891, loads: 26071, stores: 22314, guards: 23601, remotable_checks: 9, fast_path_taken: 0, slow_path_taken: 9, calls: 2048 }, stats: 0xfe4b612cf5703f31 }),
    ("chaos", 2, "trackfm", "pinned", GenGolden { ret: Some(0xa72b2d0fe563b510), digest: Some(0xa25ae22574434e38), metrics: VmMetrics { cycles: 9420874, instructions: 242240, loads: 26071, stores: 22314, guards: 35968, remotable_checks: 0, fast_path_taken: 0, slow_path_taken: 0, calls: 2048 }, stats: 0x5c8db6d5b4022b89 }),
    ("chaos", 2, "trackfm", "remote", GenGolden { ret: Some(0xa72b2d0fe563b510), digest: Some(0xa25ae22574434e38), metrics: VmMetrics { cycles: 10053894, instructions: 242240, loads: 26071, stores: 22314, guards: 35968, remotable_checks: 0, fast_path_taken: 0, slow_path_taken: 0, calls: 2048 }, stats: 0x16fdba3e5af9d006 }),
    ("chaos", 3, "untransformed", "pinned", GenGolden { ret: Some(0x61cb61da5d3903cb), digest: Some(0x75dcb0c4a2e16a86), metrics: VmMetrics { cycles: 468840, instructions: 232877, loads: 28115, stores: 23335, guards: 0, remotable_checks: 0, fast_path_taken: 0, slow_path_taken: 0, calls: 4096 }, stats: 0xb606e6a5d6186bfe }),
    ("chaos", 3, "untransformed", "remote", GenGolden { ret: Some(0x61cb61da5d3903cb), digest: Some(0x75dcb0c4a2e16a86), metrics: VmMetrics { cycles: 468840, instructions: 232877, loads: 28115, stores: 23335, guards: 0, remotable_checks: 0, fast_path_taken: 0, slow_path_taken: 0, calls: 4096 }, stats: 0xb606e6a5d6186bfe }),
    ("chaos", 3, "cards", "pinned", GenGolden { ret: Some(0x61cb61da5d3903cb), digest: Some(0x75dcb0c4a2e16a86), metrics: VmMetrics { cycles: 5148794, instructions: 245209, loads: 28115, stores: 23335, guards: 12312, remotable_checks: 8, fast_path_taken: 8, slow_path_taken: 0, calls: 4096 }, stats: 0x34c5a9b06a7cb7da }),
    ("chaos", 3, "cards", "remote", GenGolden { ret: Some(0x61cb61da5d3903cb), digest: Some(0x75dcb0c4a2e16a86), metrics: VmMetrics { cycles: 11190674, instructions: 259570, loads: 28115, stores: 23335, guards: 26673, remotable_checks: 8, fast_path_taken: 0, slow_path_taken: 8, calls: 4096 }, stats: 0x40f4c511e8e8915a }),
    ("chaos", 3, "trackfm", "pinned", GenGolden { ret: Some(0x61cb61da5d3903cb), digest: Some(0x75dcb0c4a2e16a86), metrics: VmMetrics { cycles: 10642468, instructions: 271920, loads: 28115, stores: 23335, guards: 39039, remotable_checks: 0, fast_path_taken: 0, slow_path_taken: 0, calls: 4096 }, stats: 0x5f4476e82d31fd1b }),
    ("chaos", 3, "trackfm", "remote", GenGolden { ret: Some(0x61cb61da5d3903cb), digest: Some(0x75dcb0c4a2e16a86), metrics: VmMetrics { cycles: 11195840, instructions: 271920, loads: 28115, stores: 23335, guards: 39039, remotable_checks: 0, fast_path_taken: 0, slow_path_taken: 0, calls: 4096 }, stats: 0x86ae9ba4e0c83b76 }),
];

#[test]
fn generated_programs_match_golden_table() {
    let configs = [
        ("default", GenConfig::default()),
        ("adversarial", GenConfig::adversarial()),
        ("chaos", GenConfig::chaos()),
    ];
    let pipelines = [
        ("untransformed", None),
        ("cards", Some(CompileOptions::cards())),
        ("trackfm", Some(CompileOptions::trackfm())),
    ];
    let mut observed = String::new();
    let mut mismatches = Vec::new();
    for (cname, cfg) in configs {
        // Arrays of i64 plus the chain's 16-byte nodes.
        let ws = (cfg.arrays.max(1) as i64 * cfg.elems * 8 + cfg.chain_len * 16) as u64;
        for seed in 1..=3 {
            let module = generate(seed, cfg);
            for (pname, opts) in pipelines {
                for (mode, frac, k) in [("pinned", 2.0, 100), ("remote", 0.25, 50)] {
                    let g = run_generated(module.clone(), opts, ws, frac, k);
                    observed += &gen_row(cname, seed, pname, mode, &g);
                    let want = GENERATED
                        .iter()
                        .find(|(c, s, p, md, _)| {
                            *c == cname && *s == seed && *p == pname && *md == mode
                        })
                        .map(|(_, _, _, _, w)| *w);
                    if want != Some(g) {
                        mismatches.push(format!(
                            "{cname}/{seed}/{pname}/{mode}: want {want:?}\n  got {g:?}"
                        ));
                    }
                }
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} generated rows differ:\n{}\nobserved table:\n{observed}",
        mismatches.len(),
        mismatches.join("\n")
    );
}

/// What one compiled-program case pins: the compiler's output itself,
/// independent of what the VM does with it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct IrGolden {
    /// FNV-1a of the printed module.
    ir: u64,
    /// FNV-1a of the site table: kind, function, instruction, block and
    /// covering site of every site, in id order.
    sites: u64,
    inserted: usize,
    elided: usize,
    versioned: usize,
}

/// The benchmark's large generator config: ~1k instructions per program.
fn large() -> GenConfig {
    GenConfig {
        arrays: 8,
        elems: 256,
        loops: 24,
        body_ops: 16,
        with_calls: true,
        chain_len: 32,
        const_branches: true,
        narrow_ops: true,
        with_frees: true,
    }
}

fn compile_golden(module: Module, opts: CompileOptions) -> IrGolden {
    let c = compile(module, opts).unwrap();
    let mut sites = String::new();
    for s in c.module.sites.iter() {
        sites += &format!(
            "{:?},{},{:?},{:?},{:?};",
            s.kind,
            s.func.0,
            s.inst.map(|i| i.0),
            s.block.map(|b| b.0),
            s.covered_by.map(|c| c.0)
        );
    }
    IrGolden {
        ir: digest(&print_module(&c.module)),
        sites: digest(&sites),
        inserted: c.guard_stats.inserted,
        elided: c.guard_stats.elided,
        versioned: c.versioned_loops,
    }
}

fn ir_row(name: &str, pipe: &str, g: &IrGolden) -> String {
    format!(
        "    (\"{name}\", \"{pipe}\", IrGolden {{ ir: {:#x}, sites: {:#x}, inserted: {}, \
         elided: {}, versioned: {} }}),\n",
        g.ir, g.sites, g.inserted, g.elided, g.versioned,
    )
}

#[rustfmt::skip]
const COMPILED: &[(&str, &str, IrGolden)] = &[
    ("kvstore", "cards", IrGolden { ir: 0x1b8b618112b9e2d8, sites: 0x83c2b3283dbd99a3, inserted: 14, elided: 0, versioned: 5 }),
    ("kvstore", "trackfm", IrGolden { ir: 0x82e9666a0f6a10cc, sites: 0x9c469ea3f65dbbc4, inserted: 37, elided: 8, versioned: 0 }),
    ("bfs", "cards", IrGolden { ir: 0x8dbc6effb8abce35, sites: 0x1652798d4aabfc63, inserted: 20, elided: 0, versioned: 7 }),
    ("bfs", "trackfm", IrGolden { ir: 0x16ed9074a8ddd601, sites: 0x5cbe5e1565df647c, inserted: 49, elided: 9, versioned: 0 }),
    ("taxi", "cards", IrGolden { ir: 0x37d5a0cd16bd8a43, sites: 0x865605a56c93563c, inserted: 67, elided: 0, versioned: 29 }),
    ("taxi", "trackfm", IrGolden { ir: 0xc62267dcbdc38dc3, sites: 0x2472293f128ee18d, inserted: 121, elided: 23, versioned: 0 }),
    ("fdtd", "cards", IrGolden { ir: 0x72200be1e067c959, sites: 0x105fdc143d2ba855, inserted: 49, elided: 0, versioned: 21 }),
    ("fdtd", "trackfm", IrGolden { ir: 0xa80696f5b2f8e1d4, sites: 0x12e3952a8088dcbd, inserted: 61, elided: 5, versioned: 0 }),
    ("pagerank", "cards", IrGolden { ir: 0xdd24df411691d553, sites: 0xd10769afee7c86d1, inserted: 9, elided: 0, versioned: 5 }),
    ("pagerank", "trackfm", IrGolden { ir: 0xa7ae13dfc4b1787f, sites: 0xea2b4fb731e28850, inserted: 22, elided: 3, versioned: 0 }),
    ("listing1", "cards", IrGolden { ir: 0x823239ab2f3b51c1, sites: 0x1e1625b8fd6876a5, inserted: 4, elided: 0, versioned: 1 }),
    ("listing1", "trackfm", IrGolden { ir: 0x2ed2013bdefa3dc6, sites: 0x221a09e219009632, inserted: 11, elided: 0, versioned: 0 }),
    ("array", "cards", IrGolden { ir: 0x404e970b3535b816, sites: 0x430a188381383ce1, inserted: 5, elided: 0, versioned: 2 }),
    ("array", "trackfm", IrGolden { ir: 0x99d550091e23027f, sites: 0x85753466c1c3a39c, inserted: 9, elided: 1, versioned: 0 }),
    ("vector", "cards", IrGolden { ir: 0xa33d7bf9852bca44, sites: 0xa97a28894087028b, inserted: 16, elided: 3, versioned: 2 }),
    ("vector", "trackfm", IrGolden { ir: 0xd6ea99bd6e80a490, sites: 0xfd321655f14b883b, inserted: 20, elided: 4, versioned: 0 }),
    ("list", "cards", IrGolden { ir: 0xa0d85700fc2eedc8, sites: 0xfe0d3065d59f4f65, inserted: 11, elided: 5, versioned: 2 }),
    ("list", "trackfm", IrGolden { ir: 0xb1926854bbd5274b, sites: 0x26247e8203bed07c, inserted: 19, elided: 7, versioned: 0 }),
    ("map", "cards", IrGolden { ir: 0xf68503a64dcedf92, sites: 0x5d3076facc01bbe9, inserted: 9, elided: 0, versioned: 3 }),
    ("map", "trackfm", IrGolden { ir: 0x62fbc72cf49a6bd2, sites: 0xa97feee1275291c9, inserted: 23, elided: 3, versioned: 0 }),
    ("serving", "cards", IrGolden { ir: 0x4b5e0cb02c4e9056, sites: 0x5707b7dc8fb370be, inserted: 8, elided: 0, versioned: 2 }),
    ("serving", "trackfm", IrGolden { ir: 0xf7cbd634dcc7062c, sites: 0xc6475921c04d1eeb, inserted: 24, elided: 2, versioned: 0 }),
    ("default/1", "cards", IrGolden { ir: 0x3d07f0d1d24edb0a, sites: 0x879f1fdd5fa21469, inserted: 13, elided: 0, versioned: 6 }),
    ("default/1", "trackfm", IrGolden { ir: 0x2248e7518a5bacbe, sites: 0x3d04b284066b353c, inserted: 23, elided: 4, versioned: 0 }),
    ("default/2", "cards", IrGolden { ir: 0x4f0e63524a8e4c81, sites: 0xd5ff6c66f1255c6d, inserted: 13, elided: 0, versioned: 5 }),
    ("default/2", "trackfm", IrGolden { ir: 0x8301c6164a26b4e7, sites: 0x8223a438bfa3c7ab, inserted: 23, elided: 4, versioned: 0 }),
    ("default/3", "cards", IrGolden { ir: 0x756d6c6555ec3fa2, sites: 0xd5ff6c66f1255c6d, inserted: 13, elided: 0, versioned: 5 }),
    ("default/3", "trackfm", IrGolden { ir: 0x3d9b77d33c6cbf92, sites: 0x8223a438bfa3c7ab, inserted: 23, elided: 4, versioned: 0 }),
    ("adversarial/1", "cards", IrGolden { ir: 0x5855c8e5280abd2d, sites: 0x65f3e1356dcc4c37, inserted: 14, elided: 2, versioned: 5 }),
    ("adversarial/1", "trackfm", IrGolden { ir: 0xff55ed3354abd710, sites: 0x70db851b74565664, inserted: 42, elided: 18, versioned: 0 }),
    ("adversarial/2", "cards", IrGolden { ir: 0x10653746c97c6257, sites: 0x246abbd93d77fca, inserted: 14, elided: 2, versioned: 6 }),
    ("adversarial/2", "trackfm", IrGolden { ir: 0x3bbe88bc4186a43f, sites: 0x8ddff19069c27c34, inserted: 44, elided: 18, versioned: 0 }),
    ("adversarial/3", "cards", IrGolden { ir: 0x45322e4ed96a8fcc, sites: 0xd82bb35407a456a2, inserted: 14, elided: 2, versioned: 5 }),
    ("adversarial/3", "trackfm", IrGolden { ir: 0xf29d412144c4f258, sites: 0x28f1adc85646f96, inserted: 37, elided: 12, versioned: 0 }),
    ("chaos/1", "cards", IrGolden { ir: 0x81b6ca861683ddf3, sites: 0x5f2f9dba3485177a, inserted: 19, elided: 2, versioned: 8 }),
    ("chaos/1", "trackfm", IrGolden { ir: 0x2415ea7388d75b79, sites: 0x3caf48039e3c224, inserted: 51, elided: 20, versioned: 0 }),
    ("chaos/2", "cards", IrGolden { ir: 0x6bd2bf04fa812790, sites: 0x7c56fa7fb95e0b2e, inserted: 19, elided: 2, versioned: 9 }),
    ("chaos/2", "trackfm", IrGolden { ir: 0x43ef852c72d8a807, sites: 0xf6459cf499f005e9, inserted: 53, elided: 20, versioned: 0 }),
    ("chaos/3", "cards", IrGolden { ir: 0x5894b8208ee09783, sites: 0xd84e73b2b9e03eea, inserted: 19, elided: 2, versioned: 8 }),
    ("chaos/3", "trackfm", IrGolden { ir: 0x6e414c8977a49950, sites: 0x2206a0037ad774c3, inserted: 46, elided: 14, versioned: 0 }),
    ("large/1", "cards", IrGolden { ir: 0xbb9c2094c079e30f, sites: 0xba1f02a067ebace4, inserted: 92, elided: 2, versioned: 28 }),
    ("large/1", "trackfm", IrGolden { ir: 0xb55f55708f6c15c3, sites: 0xe6edbc49557beca5, inserted: 144, elided: 30, versioned: 0 }),
    ("large/2", "cards", IrGolden { ir: 0x4d61fcd554f4eccf, sites: 0xd8dd81b5cb4eef65, inserted: 92, elided: 2, versioned: 28 }),
    ("large/2", "trackfm", IrGolden { ir: 0xd7a56e8ee9cd8628, sites: 0xc9487d79f0e671cc, inserted: 146, elided: 30, versioned: 0 }),
    ("large/3", "cards", IrGolden { ir: 0xd4916e21ba428bdd, sites: 0xeef0ae99e5e2432e, inserted: 92, elided: 2, versioned: 34 }),
    ("large/3", "trackfm", IrGolden { ir: 0x2e1b58675b72b102, sites: 0xdb9f1bd37b98cf45, inserted: 139, elided: 24, versioned: 0 }),
];

#[test]
fn compiled_ir_matches_golden_table() {
    let mut cases: Vec<(String, Module)> = programs()
        .into_iter()
        .map(|(name, m, _)| (name.to_string(), m))
        .collect();
    cases.push((
        "serving".to_string(),
        serving::build_split(serving::ServingParams::test()),
    ));
    for (cname, cfg) in [
        ("default", GenConfig::default()),
        ("adversarial", GenConfig::adversarial()),
        ("chaos", GenConfig::chaos()),
        ("large", large()),
    ] {
        for seed in 1..=3 {
            cases.push((format!("{cname}/{seed}"), generate(seed, cfg)));
        }
    }
    let mut observed = String::new();
    let mut mismatches = Vec::new();
    for (name, module) in cases {
        for (pipe, opts) in [
            ("cards", CompileOptions::cards()),
            ("trackfm", CompileOptions::trackfm()),
        ] {
            let g = compile_golden(module.clone(), opts);
            observed += &ir_row(&name, pipe, &g);
            let want = COMPILED
                .iter()
                .find(|(n, p, _)| *n == name && *p == pipe)
                .map(|(_, _, w)| *w);
            if want != Some(g) {
                mismatches.push(format!("{name}/{pipe}: want {want:?}\n  got {g:?}"));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} compiled rows differ:\n{}\nobserved table:\n{observed}",
        mismatches.len(),
        mismatches.join("\n")
    );
}

/// What one fault-path case pins: the first table's fields, with the
/// program's return value and `digest` global in place of its checksum.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct FaultGolden {
    ret: Option<u64>,
    digest: Option<u64>,
    metrics: VmMetrics,
    /// Digest of the per-DS, global runtime and transport counters.
    stats: u64,
    ttrace: u64,
    profile: u64,
    telemetry: u64,
}

/// The fault schedules every fault-path program runs under.
const FAULTS: [&str; 4] = ["fault0.2", "storm", "crash-loop", "squeeze+storm"];

/// Run `module` compiled by the CaRDS pipeline on the cache-starved
/// configuration of `tests/chaos.rs` (nothing pinned, two objects cached,
/// every structure remotable) over the transport `fault` names. Returns
/// the row and the counters the coverage check sums.
fn run_faulted(module: Module, fault: &str) -> (FaultGolden, RuntimeStats, u64) {
    let c = compile(module, CompileOptions::cards()).unwrap();
    let mut cfg = RuntimeConfig::new(0, 8192).with_max_retries(32);
    let transport: Box<dyn Transport> = match fault {
        "fault0.2" => Box::new(FaultyTransport::new(SimTransport::default(), 0.2, 0xfa17)),
        "storm" | "squeeze+storm" => Box::new(ChaosTransport::new(ChaosSchedule::storm(0xca05))),
        "crash-loop" => Box::new(ChaosTransport::new(ChaosSchedule::crash_loop(0xca05))),
        _ => unreachable!("unknown fault {fault}"),
    };
    if fault == "squeeze+storm" {
        cfg = cfg.with_pressure(PressureConfig::governed());
    }
    let mut vm = Vm::new(c.module, cfg, transport, RemotingPolicy::AllRemotable, 0);
    if fault == "squeeze+storm" {
        vm.runtime_mut()
            .set_pressure_schedule(PressureSchedule::squeeze());
    }
    let ret = vm.run("main", &[]).unwrap();
    let rt = vm.runtime();
    let mut stats = String::new();
    let mut trips = 0;
    for h in 0..rt.ds_count() {
        let s = rt.ds_stats(h as u16).unwrap();
        trips += s.breaker_trips;
        stats += &format!("{s:?};");
    }
    stats += &format!("{:?};{:?}", rt.stats(), rt.net_stats());
    let g = FaultGolden {
        ret,
        digest: vm.global_u64("digest"),
        metrics: *vm.metrics(),
        stats: digest(&stats),
        ttrace: digest(&ttrace_json(&vm)),
        profile: digest(&profile_json(&vm)),
        telemetry: digest(&export_json(rt)),
    };
    (g, rt.stats(), trips)
}

fn fault_row(name: &str, fault: &str, g: &FaultGolden) -> String {
    let m = &g.metrics;
    let hex = |v: Option<u64>| v.map_or("None".to_string(), |v| format!("Some({v:#x})"));
    format!(
        "    (\"{name}\", \"{fault}\", FaultGolden {{ ret: {}, digest: {}, metrics: VmMetrics {{ \
         cycles: {}, instructions: {}, loads: {}, stores: {}, guards: {}, remotable_checks: {}, \
         fast_path_taken: {}, slow_path_taken: {}, calls: {} }}, stats: {:#x}, ttrace: {:#x}, \
         profile: {:#x}, telemetry: {:#x} }}),\n",
        hex(g.ret),
        hex(g.digest),
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
const FAULTED: &[(&str, &str, FaultGolden)] = &[
    ("kvstore", "fault0.2", FaultGolden { ret: Some(0x12c48305), digest: None, metrics: VmMetrics { cycles: 5692742, instructions: 37760, loads: 5679, stores: 3330, guards: 4322, remotable_checks: 5, fast_path_taken: 0, slow_path_taken: 5, calls: 0 }, stats: 0xe7c447fda6c2ae66, ttrace: 0x79cb6be7b78a9d97, profile: 0x36029dc88f056086, telemetry: 0x781289ec3fab1a71 }),
    ("kvstore", "storm", FaultGolden { ret: Some(0x12c48305), digest: None, metrics: VmMetrics { cycles: 8054264, instructions: 37760, loads: 5679, stores: 3330, guards: 4322, remotable_checks: 5, fast_path_taken: 0, slow_path_taken: 5, calls: 0 }, stats: 0xb5055edd424238b, ttrace: 0x734db2783d4dd754, profile: 0x669393c97086be52, telemetry: 0xa35ee6afcb89069c }),
    ("kvstore", "crash-loop", FaultGolden { ret: Some(0x12c48305), digest: None, metrics: VmMetrics { cycles: 8549083, instructions: 37760, loads: 5679, stores: 3330, guards: 4322, remotable_checks: 5, fast_path_taken: 0, slow_path_taken: 5, calls: 0 }, stats: 0xf7369c71d69abd3e, ttrace: 0xde59250406f45219, profile: 0x2bca1887b755f1fb, telemetry: 0xae7d774a07318aa }),
    ("kvstore", "squeeze+storm", FaultGolden { ret: Some(0x12c48305), digest: None, metrics: VmMetrics { cycles: 6112546, instructions: 37760, loads: 5679, stores: 3330, guards: 4322, remotable_checks: 5, fast_path_taken: 0, slow_path_taken: 5, calls: 0 }, stats: 0xb3038394cc80bb4, ttrace: 0x87b6f2abd4fa0b4a, profile: 0x5c5b102fa7940ede, telemetry: 0xb76a6dc1deff7419 }),
    ("chaos/1", "fault0.2", FaultGolden { ret: Some(0xd8e58bd8185c42d4), digest: Some(0x2c57de28275c1908), metrics: VmMetrics { cycles: 11596385, instructions: 235005, loads: 26069, stores: 22314, guards: 23601, remotable_checks: 8, fast_path_taken: 0, slow_path_taken: 8, calls: 3072 }, stats: 0x488e02d2c3d16959, ttrace: 0xd7b86c0c2927429b, profile: 0x4f2427bc93d9a430, telemetry: 0xb6c3b2edb2f5fe14 }),
    ("chaos/1", "storm", FaultGolden { ret: Some(0xd8e58bd8185c42d4), digest: Some(0x2c57de28275c1908), metrics: VmMetrics { cycles: 14327689, instructions: 235005, loads: 26069, stores: 22314, guards: 23601, remotable_checks: 8, fast_path_taken: 0, slow_path_taken: 8, calls: 3072 }, stats: 0x190f4fe1fc247586, ttrace: 0x557acd82735b889d, profile: 0xd06659ead90e6b93, telemetry: 0x6b18a39e96d2f705 }),
    ("chaos/1", "crash-loop", FaultGolden { ret: Some(0xd8e58bd8185c42d4), digest: Some(0x2c57de28275c1908), metrics: VmMetrics { cycles: 10745785, instructions: 235005, loads: 26069, stores: 22314, guards: 23601, remotable_checks: 8, fast_path_taken: 0, slow_path_taken: 8, calls: 3072 }, stats: 0x429b0185b6a76d39, ttrace: 0x2df2baed6c1f326c, profile: 0xcebdd373836756bf, telemetry: 0xe05273f4e6cc1901 }),
    ("chaos/1", "squeeze+storm", FaultGolden { ret: Some(0xd8e58bd8185c42d4), digest: Some(0x2c57de28275c1908), metrics: VmMetrics { cycles: 16037041, instructions: 235005, loads: 26069, stores: 22314, guards: 23601, remotable_checks: 8, fast_path_taken: 0, slow_path_taken: 8, calls: 3072 }, stats: 0x5ba696f704b8b18b, ttrace: 0xde88e9716f58dc25, profile: 0x3eb7035f3c6b872e, telemetry: 0x9a0973ccb283c24f }),
    ("chaos/2", "fault0.2", FaultGolden { ret: Some(0xa72b2d0fe563b510), digest: Some(0xa25ae22574434e38), metrics: VmMetrics { cycles: 11428278, instructions: 229891, loads: 26071, stores: 22314, guards: 23601, remotable_checks: 9, fast_path_taken: 0, slow_path_taken: 9, calls: 2048 }, stats: 0x542b802e03d0bde1, ttrace: 0x18a843c1dde952e8, profile: 0x3340e443cfa6590d, telemetry: 0x5c861aed9f2ec2f1 }),
    ("chaos/2", "storm", FaultGolden { ret: Some(0xa72b2d0fe563b510), digest: Some(0xa25ae22574434e38), metrics: VmMetrics { cycles: 13420353, instructions: 229891, loads: 26071, stores: 22314, guards: 23601, remotable_checks: 9, fast_path_taken: 0, slow_path_taken: 9, calls: 2048 }, stats: 0x6cf471ea6805ed36, ttrace: 0xf7fb43d4fccbaad5, profile: 0xccc7f9553ca237b9, telemetry: 0x9598e864a289885f }),
    ("chaos/2", "crash-loop", FaultGolden { ret: Some(0xa72b2d0fe563b510), digest: Some(0xa25ae22574434e38), metrics: VmMetrics { cycles: 10664259, instructions: 229891, loads: 26071, stores: 22314, guards: 23601, remotable_checks: 9, fast_path_taken: 0, slow_path_taken: 9, calls: 2048 }, stats: 0x25f45dd32b4ba571, ttrace: 0x12285a41067fa605, profile: 0x3162353c7cffd5b8, telemetry: 0xb11380a7858b82a7 }),
    ("chaos/2", "squeeze+storm", FaultGolden { ret: Some(0xa72b2d0fe563b510), digest: Some(0xa25ae22574434e38), metrics: VmMetrics { cycles: 16949833, instructions: 229891, loads: 26071, stores: 22314, guards: 23601, remotable_checks: 9, fast_path_taken: 0, slow_path_taken: 9, calls: 2048 }, stats: 0xe89338e4b351b8d4, ttrace: 0x57e1dca964550902, profile: 0xe943e35f51addca8, telemetry: 0x44cf0e9efe364ddb }),
];

#[test]
fn fault_paths_match_golden_table() {
    let mut cases = vec![(
        "kvstore".to_string(),
        kvstore::build(kvstore::KvParams {
            keys: 128,
            ops: 600,
        })
        .0,
    )];
    for seed in 1..=2 {
        cases.push((format!("chaos/{seed}"), generate(seed, GenConfig::chaos())));
    }
    let mut observed = String::new();
    let mut mismatches = Vec::new();
    let mut reached = RuntimeStats::default();
    let mut breaker_trips = 0;
    for (name, module) in cases {
        for fault in FAULTS {
            let (g, s, trips) = run_faulted(module.clone(), fault);
            reached.retries += s.retries;
            reached.crashes_detected += s.crashes_detected;
            reached.journal_replays += s.journal_replays;
            reached.proactive_evictions += s.proactive_evictions;
            breaker_trips += trips;
            observed += &fault_row(&name, fault, &g);
            let want = FAULTED
                .iter()
                .find(|(n, f, _)| *n == name && *f == fault)
                .map(|(_, _, w)| *w);
            if want != Some(g) {
                mismatches.push(format!("{name}/{fault}: want {want:?}\n  got {g:?}"));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} fault-path rows differ:\n{}\nobserved table:\n{observed}",
        mismatches.len(),
        mismatches.join("\n")
    );
    // The rows must keep reaching every recovery path they guard.
    for (what, n) in [
        ("retries", reached.retries),
        ("crashes_detected", reached.crashes_detected),
        ("journal_replays", reached.journal_replays),
        ("breaker_trips", breaker_trips),
        ("proactive_evictions", reached.proactive_evictions),
    ] {
        assert!(n > 0, "no fault-path row reaches {what}");
    }
}
