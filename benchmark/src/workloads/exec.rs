//! `local` and `remote`: the seven programs kvstore, bfs, taxi, fdtd,
//! pagerank, listing1 and the Figure-9 linked list, compiled once during
//! set-up; a round builds a VM for each and runs `main`.
//!
//! `local` pins every structure (Max Use, k = 100, a pinned budget twice
//! the working set): versioned loops take their fast paths, guards are
//! nearly free, and almost all of the time is VM dispatch — runtime and net
//! changes should not move it. `remote` runs the same instructions at the
//! paper's operating point (25% of the working set pinned plus a 10%
//! remotable cache, Max Use k = 50, the simulated transport: what
//! `cards_core::run_far_memory` does), so the difference between the two
//! isolates the runtime and net layers.

use std::time::Instant;

use cards_baselines::MemoryBudget;
use cards_ir::Module;
use cards_net::{SimTransport, SplitMix64};
use cards_runtime::{CostModel, RemotingPolicy, RuntimeConfig};

use super::paper::{Paper, EXEC_PROGRAMS};
use super::{
    check_rounds, end_to_end, exec_fingerprint, exec_main, measure, per_layer, recorders_off,
    repeated_setup, report, LayerInputs, TierStats,
};
use crate::layers::{add_counts, compile_probe, compile_whole, metric};
use crate::spans::SpanLog;
use crate::stats::median;
use crate::{peak_rss_mb, Config, Fingerprint, Report, Round, Tally, Workload};

/// Programs run at this share of their default sizes, so a round is short
/// (about 0.35 s local, 0.9 s remote) and a run's median is taken over
/// many rounds: host noise comes in episodes of seconds.
const SIZE_SCALE: f64 = 0.25;

/// Seeded per-program size factors lie in 1 ± this. Kept narrow so that
/// the spread of whole-round times across seeds stays well inside the
/// end-to-end bounds; the seed also shuffles the run order.
const SIZE_JITTER: f64 = 0.05;

struct Prog {
    name: String,
    source: Module,
    module: Module,
    cfg: RuntimeConfig,
    k: u32,
}

/// The seeded run order and sizes.
fn plan(seed: u64, tiny: bool) -> Vec<Paper> {
    let mut rng = SplitMix64::new(seed);
    let mut names = EXEC_PROGRAMS;
    rng.shuffle(&mut names);
    names
        .iter()
        .map(|n| {
            let f = 1.0 + SIZE_JITTER * (2.0 * rng.next_f64() - 1.0);
            Paper::scaled(n, if tiny { f } else { SIZE_SCALE * f }, tiny)
        })
        .collect()
}

fn runtime_config(ws: u64, remote: bool) -> (RuntimeConfig, u32) {
    let (frac, k) = if remote { (0.25, 50) } else { (2.0, 100) };
    let b = MemoryBudget::fraction_of(ws, frac, 0.1);
    let cfg = RuntimeConfig::new(b.local_bytes - b.remotable_reserve, b.remotable_reserve)
        .with_costs(CostModel::cards());
    (cfg, k)
}

fn setup(plan: &[Paper], remote: bool) -> Result<(Vec<Prog>, Fingerprint), String> {
    let mut counts = Fingerprint::new();
    let mut progs = Vec::new();
    for (i, p) in plan.iter().enumerate() {
        let source = p.build();
        let (c, fp) = compile_whole(source.clone(), &mut SpanLog::new(0), i as u64)?;
        add_counts(&mut counts, &fp);
        let (cfg, k) = runtime_config(p.working_set(), remote);
        progs.push(Prog {
            name: p.name(),
            source,
            module: c.module,
            cfg,
            k,
        });
    }
    Ok((progs, counts))
}

/// One round: every program once, in plan order. Checksums are checked
/// against the native references.
fn round(
    progs: &[Prog],
    refs: &[i64],
    recorders: bool,
    mut log: Option<&mut SpanLog>,
    tally: &mut Tally,
) -> Result<Round, String> {
    let t0 = Instant::now();
    let mut ops_ns = Vec::with_capacity(progs.len());
    let mut runs = Vec::with_capacity(progs.len());
    for (i, p) in progs.iter().enumerate() {
        let module = p.module.clone();
        let cfg = if recorders {
            p.cfg
        } else {
            recorders_off(p.cfg)
        };
        let s = Instant::now();
        let r = exec_main(
            module,
            cfg,
            SimTransport::default,
            (RemotingPolicy::MaxUse, p.k),
            log.as_deref_mut(),
            i as u64,
        );
        ops_ns.push(s.elapsed().as_nanos() as u64);
        match r {
            Ok(r) => {
                tally.check(1, r.ret as i64 == refs[i], || {
                    format!(
                        "{}: checksum {} != reference {}",
                        p.name, r.ret as i64, refs[i]
                    )
                });
                runs.push(r);
            }
            Err(e) => tally.check(1, false, || format!("{}: {e}", p.name)),
        }
    }
    Ok(Round {
        wall_ns: t0.elapsed().as_nanos() as u64,
        ops_ns,
        fingerprint: exec_fingerprint(&runs),
    })
}

pub fn exec_workload(cfg: &Config) -> Result<Report, String> {
    let remote = cfg.workload == Workload::Remote;
    let plan = plan(cfg.seed, cfg.tiny);
    let (setup_s, (progs, compile_fp)) = repeated_setup(cfg, || setup(&plan, remote))?;

    let mut refs: Vec<i64> = plan.iter().map(Paper::reference).collect();
    if cfg.plant_wrong_reference {
        refs[0] ^= 1;
    }
    let mut tally = Tally::default();
    let warm = round(&progs, &refs, true, None, &mut tally)?.fingerprint;
    let rss = peak_rss_mb();
    let measured = measure(cfg, |log| round(&progs, &refs, true, log, &mut tally))?;
    check_rounds(&mut tally, &warm, &measured);

    let mut extra = Vec::new();
    for (i, p) in progs.iter().enumerate() {
        let ms: Vec<f64> = measured
            .untraced
            .iter()
            .map(|r| r.ops_ns[i] as f64 / 1e6)
            .collect();
        extra.push(metric(&format!("vm.exec_ms.{}", p.name), median(&ms), "ms"));
    }

    let mut measured = measured;
    let metrics = if !cfg.trace {
        end_to_end(&setup_s, rss, &measured)
    } else {
        // Recorders off: same modeled cycles and checksums, less host time.
        let off = round(&progs, &refs, false, None, &mut tally)?;
        tally.same("recorders off vs on", &warm, &off.fingerprint);
        let on_ns = median(
            &measured
                .untraced
                .iter()
                .map(|r| r.wall_ns as f64)
                .collect::<Vec<_>>(),
        );
        let mut probe_log = measured.log.child();
        let sources: Vec<Module> = progs.iter().map(|p| p.source.clone()).collect();
        let (times, fps) = compile_probe(&sources, if cfg.tiny { 1 } else { 3 }, &mut probe_log)?;
        for fp in &fps {
            tally.same("compile probe vs set-up", &compile_fp, fp);
        }
        let layers = per_layer(
            cfg,
            LayerInputs {
                compile: &times,
                compile_fp: &compile_fp,
                exec: &measured.traced_spans,
                exec_fp: &warm,
                obs_overhead_frac: on_ns / off.wall_ns as f64 - 1.0,
                tier: TierStats::default(),
                measured: &measured,
            },
        )?;
        measured.log.absorb(probe_log);
        layers
    };
    Ok(report(cfg, tally, metrics, extra, warm, measured))
}
