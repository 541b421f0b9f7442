//! Differential-oracle integration test: seeded generated programs must
//! behave identically under every pipeline × policy × fault-schedule cell
//! of the matrix, and the harness itself must be deterministic.
//!
//! This is the tier-1 form of `cards difftest` — small enough to run in
//! every `cargo test`, while CI additionally runs the 200-seed smoke
//! campaign through the CLI.

use cards_core::difftest::{check_seed, config_matrix, Pipeline, TransportSpec};
use cards_core::ir::testgen::GenConfig;

/// Seeds chosen to cover both the default and the adversarial program
/// shapes (chains, const diamonds, narrow corner arithmetic, frees).
const SEEDS: std::ops::Range<u64> = 1..13;

#[test]
fn matrix_spans_the_required_surface() {
    let m = config_matrix();
    let policies: std::collections::HashSet<String> = m
        .iter()
        .filter(|c| c.pipeline != Pipeline::OptOnly)
        .map(|c| format!("{:?}", c.policy))
        .collect();
    assert_eq!(
        policies.len(),
        4,
        "all four remoting policies: {policies:?}"
    );
    let schedules: std::collections::HashSet<u64> = m
        .iter()
        .map(|c| match c.transport {
            TransportSpec::Faulty { rate, .. } => (rate * 100.0) as u64,
            _ => 0,
        })
        .collect();
    assert!(schedules.len() >= 2, "at least two fault schedules");
}

#[test]
fn generated_programs_agree_across_the_matrix() {
    for seed in SEEDS {
        let gen = if seed % 2 == 0 {
            GenConfig::adversarial()
        } else {
            GenConfig {
                loops: 2,
                with_calls: true,
                ..GenConfig::default()
            }
        };
        let report = check_seed(seed, gen);
        assert!(
            report.oracle.error.is_none(),
            "seed {seed}: oracle must run clean, got {}",
            report.oracle
        );
        assert!(
            report.divergences.is_empty(),
            "seed {seed} diverged: {:?}",
            report
                .divergences
                .iter()
                .map(|d| format!("[{}] {}", d.config.label(), d.got))
                .collect::<Vec<_>>()
        );
    }
}

#[test]
fn harness_is_deterministic_across_runs() {
    let a = check_seed(7, GenConfig::adversarial());
    let b = check_seed(7, GenConfig::adversarial());
    assert_eq!(a, b, "same seed + config must observe identical behaviour");
    assert!(
        a.oracle.digest.is_some(),
        "heap digest is part of the oracle"
    );
}
