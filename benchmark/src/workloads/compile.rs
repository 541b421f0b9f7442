//! `compile`: a round compiles a corpus with `CompileOptions::cards()`.
//!
//! The corpus is the paper's programs at their default sizes (kvstore,
//! bfs, taxi, fdtd, pagerank, listing1, the split serving program and the
//! four Figure-9 micro kinds) plus seeded `testgen` programs: equal shares
//! of the default, adversarial and chaos generator configs and of a large
//! config (~1k instructions each) that exposes superlinear pass cost. The
//! ir, dsa and passes layers do all of the timed work and the vm, runtime
//! and net layers none, so this is the workload on which a VM or runtime
//! change should change nothing.
//!
//! Outputs are checked once per run, outside the timed rounds: the paper
//! programs at their test sizes against their native references, and
//! each generated program's compiled `main` result and `@digest` against
//! an untransformed run. Those checking runs are this workload's only VM
//! work, and a traced run measures the vm and net layers on them.

use std::time::Instant;

use cards_ir::testgen::{generate, GenConfig};
use cards_ir::Module;
use cards_net::{SimTransport, SplitMix64};
use cards_passes::{compile, CompileOptions};
use cards_runtime::{RemotingPolicy, RuntimeConfig};
use cards_workloads::{micro, serving};

use super::paper::{Paper, APPS};
use super::{
    check_rounds, end_to_end, exec_fingerprint, exec_main, measure, per_layer, recorders_off,
    repeated_setup, report, LayerInputs, RoundSpans, TierStats,
};
use crate::layers::{add_counts, compile_probe, compile_whole, compiled_counts, inst_count};
use crate::spans::SpanLog;
use crate::{peak_rss_mb, Config, Fingerprint, Report, Round, Tally};

/// Generated programs per generator config (four configs).
const PER_CONFIG: usize = 60;

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

/// Seeds of the generated programs, by config.
fn testgen_plan(seed: u64, per_config: usize) -> Vec<(u64, GenConfig)> {
    let mut rng = SplitMix64::new(seed);
    [
        GenConfig::default(),
        GenConfig::adversarial(),
        GenConfig::chaos(),
        large(),
    ]
    .into_iter()
    .flat_map(|c| (0..per_config).map(move |_| c))
    .map(|c| (rng.next_u64(), c))
    .collect()
}

fn build_corpus(plan: &[(u64, GenConfig)], tiny: bool) -> Vec<Module> {
    let mut corpus: Vec<Module> = APPS
        .iter()
        .map(|n| Paper::scaled(n, 1.0, tiny).build())
        .collect();
    let (serve, micro_p) = if tiny {
        (serving::ServingParams::test(), micro::MicroParams::test())
    } else {
        (
            serving::ServingParams::default(),
            micro::MicroParams::default(),
        )
    };
    corpus.push(serving::build_split(serve));
    corpus.extend(
        micro::MicroKind::all()
            .into_iter()
            .map(|k| micro::build(k, micro_p).0),
    );
    corpus.extend(plan.iter().map(|&(s, c)| generate(s, c)));
    corpus
}

/// A compiled program and the answer it must give.
struct Check {
    name: String,
    module: Module,
    cfg: RuntimeConfig,
    policy: RemotingPolicy,
    k: u32,
    want_ret: u64,
    /// Generated programs also fold their heap into `@digest`.
    want_digest: Option<u64>,
}

/// Compile the checked programs and compute their expected answers: the
/// native reference for paper programs, an untransformed VM run for
/// generated ones.
fn prepare_checks(plan: &[(u64, GenConfig)], plant: bool) -> Result<Vec<Check>, String> {
    let mut checks = Vec::new();
    for (i, p) in Paper::test_set().into_iter().enumerate() {
        let ws = p.working_set();
        let b = cards_baselines::MemoryBudget::fraction_of(ws, 0.25, 0.1);
        let c = compile(p.build(), CompileOptions::cards()).map_err(|e| e.to_string())?;
        let mut want = p.reference() as u64;
        if plant && i == 0 {
            want ^= 1;
        }
        checks.push(Check {
            name: p.name(),
            module: c.module,
            cfg: RuntimeConfig::new(b.local_bytes - b.remotable_reserve, b.remotable_reserve),
            policy: RemotingPolicy::MaxUse,
            k: 50,
            want_ret: want,
            want_digest: None,
        });
    }
    for &(seed, gc) in plan {
        let m = generate(seed, gc);
        let oracle = exec_main(
            m.clone(),
            RuntimeConfig::new(1 << 30, 1 << 30),
            SimTransport::default,
            (RemotingPolicy::Linear, 100),
            None,
            0,
        )?;
        let c = compile(m, CompileOptions::cards()).map_err(|e| e.to_string())?;
        checks.push(Check {
            name: format!("gen_{seed:x}"),
            module: c.module,
            // A cache of four objects: every generated program's data
            // churns through the transport.
            cfg: RuntimeConfig::new(0, 4 * 4096),
            policy: RemotingPolicy::AllRemotable,
            k: 0,
            want_ret: oracle.ret,
            want_digest: Some(oracle.digest),
        });
    }
    Ok(checks)
}

/// Run every check once; returns the wall time and the runs' fingerprint.
fn check_pass(
    checks: &[Check],
    recorders: bool,
    mut log: Option<&mut SpanLog>,
    tally: &mut Tally,
) -> Result<(u64, Fingerprint), String> {
    let t0 = Instant::now();
    let mut runs = Vec::with_capacity(checks.len());
    for (i, c) in checks.iter().enumerate() {
        let cfg = if recorders {
            c.cfg
        } else {
            recorders_off(c.cfg)
        };
        let r = exec_main(
            c.module.clone(),
            cfg,
            SimTransport::default,
            (c.policy, c.k),
            log.as_deref_mut(),
            i as u64,
        );
        match r {
            Ok(r) => {
                let ok = r.ret == c.want_ret && c.want_digest.is_none_or(|d| d == r.digest);
                tally.check(1, ok, || {
                    format!(
                        "{}: got ({}, {}) want ({}, {:?})",
                        c.name, r.ret, r.digest, c.want_ret, c.want_digest
                    )
                });
                runs.push(r);
            }
            Err(e) => tally.check(1, false, || format!("{}: {e}", c.name)),
        }
    }
    Ok((t0.elapsed().as_nanos() as u64, exec_fingerprint(&runs)))
}

/// One round: compile every program, each under a `passes.compile` span
/// when traced.
fn round(corpus: &[Module], mut log: Option<&mut SpanLog>, tally: &mut Tally) -> Round {
    let t0 = Instant::now();
    let mut ops_ns = Vec::with_capacity(corpus.len());
    let mut fp = Fingerprint::new();
    for (i, m) in corpus.iter().enumerate() {
        let m = m.clone();
        let insts_in = inst_count(&m);
        let s = Instant::now();
        let r = match log.as_deref_mut() {
            Some(log) => compile_whole(m, log, i as u64).map(|(_, fp)| fp),
            None => compile(m, CompileOptions::cards())
                .map(|c| compiled_counts(insts_in, &c))
                .map_err(|e| e.to_string()),
        };
        ops_ns.push(s.elapsed().as_nanos() as u64);
        match r {
            Ok(one) => {
                tally.check(1, true, String::new);
                add_counts(&mut fp, &one);
            }
            Err(e) => tally.check(1, false, || format!("program {i}: {e}")),
        }
    }
    Round {
        wall_ns: t0.elapsed().as_nanos() as u64,
        ops_ns,
        fingerprint: fp,
    }
}

pub fn compile_workload(cfg: &Config) -> Result<Report, String> {
    let plan = testgen_plan(cfg.seed, if cfg.tiny { 2 } else { PER_CONFIG });
    let (setup_s, corpus) = repeated_setup(cfg, || Ok(build_corpus(&plan, cfg.tiny)))?;

    let mut tally = Tally::default();
    let checks = prepare_checks(&plan, cfg.plant_wrong_reference)?;
    let mut check_log = SpanLog::new(super::SPAN_CAP);
    let (_, check_fp) = check_pass(
        &checks,
        true,
        cfg.trace.then_some(&mut check_log),
        &mut tally,
    )?;

    let warm = round(&corpus, None, &mut tally).fingerprint;
    let rss = peak_rss_mb();
    let mut measured = measure(cfg, |log| Ok(round(&corpus, log, &mut tally)))?;
    check_rounds(&mut tally, &warm, &measured);

    let metrics = if !cfg.trace {
        end_to_end(&setup_s, rss, &measured)
    } else {
        let mut probe_log = measured.log.child();
        let (times, fps) = compile_probe(&corpus, if cfg.tiny { 1 } else { 5 }, &mut probe_log)?;
        for fp in &fps {
            tally.same("compile probe vs rounds", &warm, fp);
        }
        // Recorders on and off, both untraced: same answers, same modeled
        // cycles.
        let (on_ns, on_fp) = check_pass(&checks, true, None, &mut tally)?;
        let (off_ns, off_fp) = check_pass(&checks, false, None, &mut tally)?;
        tally.same("check runs, traced vs untraced", &check_fp, &on_fp);
        tally.same("check runs, recorders off vs on", &check_fp, &off_fp);
        let layers = per_layer(
            cfg,
            LayerInputs {
                compile: &times,
                compile_fp: &warm,
                exec: &[RoundSpans::of(&check_log, check_fp["vm.instructions"])],
                exec_fp: &check_fp,
                obs_overhead_frac: on_ns as f64 / off_ns as f64 - 1.0,
                tier: TierStats::default(),
                measured: &measured,
            },
        )?;
        measured.log.absorb(probe_log);
        measured.log.absorb(check_log);
        layers
    };
    Ok(report(cfg, tally, metrics, Vec::new(), warm, measured))
}
