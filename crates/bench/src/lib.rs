//! # cards-bench
//!
//! Benchmark harness reproducing every table and figure of the CaRDS
//! paper's evaluation. One `repro_*` binary per exhibit prints the same
//! rows/series the paper reports (in simulated cycles — see DESIGN.md §5.6
//! for why cycles, not wall time); `repro_all` runs everything and emits
//! the summary recorded in EXPERIMENTS.md. Host time of the same
//! primitives and of the compile passes is the standalone `benchmark/`
//! package's business: its traced runs (`--trace 1`) report
//! `runtime.guard_hit_ns`, `runtime.guard_miss_ns`, `net.sim_fetch_ns` and
//! `passes.*_ms`.

use cards_baselines::{run_system, MemoryBudget, RunResult, System};
use cards_ir::{FuncId, Module};
use cards_runtime::RemotingPolicy;

/// The five remoting policies compared in Figures 4–7.
pub fn all_policies() -> Vec<RemotingPolicy> {
    vec![
        RemotingPolicy::AllRemotable,
        RemotingPolicy::Linear,
        RemotingPolicy::Random { seed: 42 },
        RemotingPolicy::MaxReach,
        RemotingPolicy::MaxUse,
    ]
}

/// The k sweep used by the figures (percent of DSes localized).
pub const K_SWEEP: [u32; 4] = [25, 50, 75, 100];

/// Print a formatted table: `rows[label] -> one value per column`.
pub fn print_table(title: &str, columns: &[String], rows: &[(String, Vec<f64>)]) {
    println!("\n== {title} ==");
    print!("{:<16}", "");
    for c in columns {
        print!(" {:>16}", c);
    }
    println!();
    for (label, vals) in rows {
        print!("{label:<16}");
        for v in vals {
            if *v >= 1000.0 {
                print!(" {:>16.0}", v);
            } else {
                print!(" {:>16.3}", v);
            }
        }
        println!();
    }
}

/// Run a policy × k sweep for one workload (the Figure 5–7 setup): pinned
/// memory is generous and *fixed* (the paper's testbed has more RAM than
/// any working set; only the remotable cache is scarce — 256 MB / 1 GB),
/// and the sweep varies only `k`, the percentage of structures each policy
/// may mark non-remotable. This is why the paper's "linear" and
/// "all-remotable" curves are flat: neither consults `k`.
pub fn policy_k_sweep(
    build: &dyn Fn() -> (Module, FuncId),
    ws: u64,
    reserve_frac: f64,
    expect: i64,
) -> Vec<(String, Vec<f64>)> {
    let budget = MemoryBudget::fraction_of(ws, 1.1, reserve_frac);
    let mut rows = Vec::new();
    for policy in all_policies() {
        let mut vals = Vec::new();
        for &k in &K_SWEEP {
            let r = run_system(build, System::Cards { policy, k }, budget).expect("run");
            assert_eq!(r.checksum, expect, "{} k={k}", policy.name());
            vals.push(r.cycles as f64);
        }
        rows.push((policy.name().to_string(), vals));
    }
    rows
}

/// Run the Figure-8 system comparison: systems × local-memory fraction.
pub fn system_sweep(
    build: &dyn Fn() -> (Module, FuncId),
    ws: u64,
    fracs: &[f64],
    expect: i64,
) -> Vec<(String, Vec<f64>)> {
    let labels = ["local-only", "trackfm", "cards", "mira"];
    let mut rows = Vec::new();
    for label in labels {
        let mut vals = Vec::new();
        for &f in fracs {
            // CaRDS ties k to the available memory, as the paper describes
            // ("this parameter is set higher when more local memory is
            // available and lower when memory is limited").
            let sys = match label {
                "local-only" => System::LocalOnly,
                "trackfm" => System::TrackFm,
                "mira" => System::Mira,
                _ => System::Cards {
                    policy: RemotingPolicy::MaxUse,
                    k: (f * 100.0) as u32,
                },
            };
            let budget = MemoryBudget::fraction_of(ws, f, 0.08);
            let r = run_system(build, sys, budget).expect("run");
            assert_eq!(r.checksum, expect, "{label} @ {f}");
            vals.push(r.cycles as f64);
        }
        rows.push((label.to_string(), vals));
    }
    rows
}

/// Convenience: one run, asserting the checksum.
pub fn run_checked(
    build: &dyn Fn() -> (Module, FuncId),
    sys: System,
    budget: MemoryBudget,
    expect: i64,
) -> RunResult {
    let r = run_system(build, sys, budget).expect("run");
    assert_eq!(r.checksum, expect, "{}", r.system);
    r
}

/// Speedup helper for Figure 9.
pub fn speedup(baseline_cycles: u64, cycles: u64) -> f64 {
    baseline_cycles as f64 / cycles.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_helpers_cover_all_policies() {
        assert_eq!(all_policies().len(), 5);
        assert_eq!(K_SWEEP, [25, 50, 75, 100]);
    }

    #[test]
    fn speedup_math() {
        assert!((speedup(200, 100) - 2.0).abs() < 1e-12);
        assert!(speedup(100, 0) > 0.0);
    }
}

pub mod core;
pub mod figures;
pub mod profile;
pub mod telemetry;
