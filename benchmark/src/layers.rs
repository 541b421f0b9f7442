//! The compile layers, timed pass by pass.
//!
//! [`compile_staged`] runs the same passes in the same order as
//! `cards_passes::compile`, each under its own span. The pipeline's private
//! last step (`annotate_sites`) cannot be called from outside, so the
//! pipeline's whole-compile time minus the sum of the stages is reported
//! as `passes.residual_ms`.

use cards_dsa::ModuleDsa;
use cards_ir::Module;
use cards_passes::{
    analyze_prefetch, compile, eliminate_redundant_guards, insert_guards, pool_allocate,
    rank_instances, version_loops, CompileOptions, Compiled,
};

use crate::spans::{timed, SpanLog};
use crate::stats::median;
use crate::{Fingerprint, Metric};

/// Stage span names, in pipeline order; each is a per-layer metric stem.
pub const STAGES: [&str; 7] = [
    "ir.verify",
    "dsa.analyze",
    "passes.prefetch",
    "passes.pool_alloc",
    "passes.guards",
    "passes.elide",
    "passes.versioning",
];

/// Span name of one whole `cards_passes::compile` call.
pub const WHOLE: &str = "passes.compile";

/// Instructions placed in blocks, over every function.
pub fn inst_count(m: &Module) -> u64 {
    m.functions
        .iter()
        .flat_map(|f| &f.blocks)
        .map(|b| b.insts.len() as u64)
        .sum()
}

/// What the pipeline did to one program; sums over a set with
/// [`add_counts`]. Must repeat exactly.
fn pass_counts(
    insts_in: u64,
    out: &Module,
    instances: usize,
    inserted: usize,
    elided: usize,
    versioned: usize,
) -> Fingerprint {
    Fingerprint::from([
        ("ir.insts_in", insts_in),
        ("ir.insts_out", inst_count(out)),
        ("dsa.instances", instances as u64),
        ("passes.guards_inserted", inserted as u64),
        ("passes.guards_elided", elided as u64),
        ("passes.versioned_loops", versioned as u64),
    ])
}

/// Add `more` into `acc` key by key (wrapping, for checksums).
pub fn add_counts(acc: &mut Fingerprint, more: &Fingerprint) {
    for (k, v) in more {
        let e = acc.entry(k).or_insert(0);
        *e = e.wrapping_add(*v);
    }
}

/// Compile `m` with the CaRDS options under a `passes.compile` span.
pub fn compile_whole(
    m: Module,
    log: &mut SpanLog,
    req: u64,
) -> Result<(Compiled, Fingerprint), String> {
    let insts_in = inst_count(&m);
    let c = timed(log, WHOLE, 0, req, |_| compile(m, CompileOptions::cards()))
        .map_err(|e| format!("compile: {e}"))?;
    let fp = compiled_counts(insts_in, &c);
    Ok((c, fp))
}

/// The counts of a `cards_passes::compile` result whose input had
/// `insts_in` instructions.
pub fn compiled_counts(insts_in: u64, c: &Compiled) -> Fingerprint {
    let g = c.guard_stats;
    pass_counts(
        insts_in,
        &c.module,
        c.ds_count(),
        g.inserted,
        g.elided,
        c.versioned_loops,
    )
}

/// The passes of `cards_passes::compile` one by one, each under its stage
/// span; returns the same counts as [`compile_whole`].
pub fn compile_staged(mut m: Module, log: &mut SpanLog, req: u64) -> Result<Fingerprint, String> {
    let opts = CompileOptions::cards();
    let insts_in = inst_count(&m);
    let errs = timed(log, STAGES[0], 0, req, |_| cards_ir::verify_module(&m));
    if !errs.is_empty() {
        return Err(format!("input verification failed: {errs:?}"));
    }
    let dsa = timed(log, STAGES[1], 0, req, |_| ModuleDsa::analyze(&m));
    let (prefetch, priorities) = timed(log, STAGES[2], 0, req, |_| {
        (
            analyze_prefetch(&m, &dsa, opts.prefetch),
            rank_instances(&dsa),
        )
    });
    let pool = timed(log, STAGES[3], 0, req, |_| {
        pool_allocate(&mut m, &dsa, &prefetch, &priorities)
    })
    .map_err(|e| format!("pool allocation: {e}"))?;
    let mut g = timed(log, STAGES[4], 0, req, |_| {
        insert_guards(&mut m, &dsa, opts.guard_all)
    });
    if opts.eliminate_redundant {
        g.elided = timed(log, STAGES[5], 0, req, |_| {
            eliminate_redundant_guards(&mut m, &dsa, &pool)
        });
    }
    let versioned = if opts.versioning {
        timed(log, STAGES[6], 0, req, |_| {
            version_loops(&mut m, &dsa, &pool)
        })
    } else {
        0
    };
    let errs = timed(log, STAGES[0], 0, req, |_| cards_ir::verify_module(&m));
    if !errs.is_empty() {
        return Err(format!("pass output verification failed: {errs:?}"));
    }
    Ok(pass_counts(
        insts_in,
        &m,
        dsa.instances.len(),
        g.inserted,
        g.elided,
        versioned,
    ))
}

/// Per-set stage and whole-compile times, gathered over repetitions.
#[derive(Clone, Debug, Default)]
pub struct CompileTimes {
    /// Per staged repetition: ns of each stage over the whole set.
    staged: Vec<[u64; STAGES.len()]>,
    /// Per whole repetition: ns of `compile` over the whole set.
    whole: Vec<u64>,
}

impl CompileTimes {
    /// Account one repetition's log (staged or whole).
    pub fn add(&mut self, rep: &SpanLog) {
        let whole = rep.total(WHOLE);
        if whole.count > 0 {
            self.whole.push(whole.ns);
        } else {
            self.staged.push(STAGES.map(|s| rep.total(s).ns));
        }
    }

    /// Median whole-compile time of the set, in ms.
    pub fn whole_ms(&self) -> f64 {
        median(
            &self
                .whole
                .iter()
                .map(|&n| n as f64 / 1e6)
                .collect::<Vec<_>>(),
        )
    }

    /// The compile-layer metrics, counts taken from `fp`.
    pub fn metrics(&self, fp: &Fingerprint) -> Vec<Metric> {
        let stage_ms: Vec<f64> = (0..STAGES.len())
            .map(|i| {
                median(
                    &self
                        .staged
                        .iter()
                        .map(|r| r[i] as f64 / 1e6)
                        .collect::<Vec<_>>(),
                )
            })
            .collect();
        let whole = self.whole_ms();
        let mut out: Vec<Metric> = STAGES
            .iter()
            .zip(&stage_ms)
            .map(|(s, &v)| metric(&format!("{s}_ms"), v, "ms"))
            .collect();
        out.push(metric("passes.compile_ms", whole, "ms"));
        out.push(metric(
            "passes.residual_ms",
            whole - stage_ms.iter().sum::<f64>(),
            "ms",
        ));
        let count = |k: &str| fp.get(k).copied().unwrap_or(0) as f64;
        for k in [
            "ir.insts_in",
            "ir.insts_out",
            "dsa.instances",
            "passes.guards_inserted",
            "passes.guards_elided",
        ] {
            out.push(metric(k, count(k), "count"));
        }
        out.push(metric(
            "passes.elide_ratio",
            count("passes.guards_elided") / count("passes.guards_inserted").max(1.0),
            "ratio",
        ));
        out.push(metric(
            "passes.versioned_loops",
            count("passes.versioned_loops"),
            "count",
        ));
        out
    }
}

/// Compile `programs` `reps` times whole and `reps` times staged,
/// alternating; the spans go to `log`. Returns the times and each
/// repetition's summed counts.
pub fn compile_probe(
    programs: &[Module],
    reps: usize,
    log: &mut SpanLog,
) -> Result<(CompileTimes, Vec<Fingerprint>), String> {
    let mut times = CompileTimes::default();
    let mut fps = Vec::new();
    for rep in 0..2 * reps {
        let mut rl = log.child();
        let mut fp = Fingerprint::new();
        for (i, m) in programs.iter().enumerate() {
            let one = if rep % 2 == 0 {
                compile_whole(m.clone(), &mut rl, i as u64)?.1
            } else {
                compile_staged(m.clone(), &mut rl, i as u64)?
            };
            add_counts(&mut fp, &one);
        }
        times.add(&rl);
        log.absorb(rl);
        fps.push(fp);
    }
    Ok((times, fps))
}

pub(crate) fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staged_pipeline_matches_compile_up_to_site_annotation() {
        let (m, _) =
            cards_workloads::listing1::build(cards_workloads::listing1::Listing1Params::test());
        let mut log = SpanLog::new(64);
        let (_, whole) = compile_whole(m.clone(), &mut log, 0).unwrap();
        let staged = compile_staged(m, &mut log, 0).unwrap();
        assert_eq!(log.total(WHOLE).count, 1);
        for s in STAGES {
            assert!(log.total(s).count >= 1, "stage {s} must be timed");
        }
        assert_eq!(log.total("ir.verify").count, 2, "input and output verify");
        assert_eq!(whole, staged, "same passes, same counts");
        assert!(whole["passes.guards_inserted"] > 0);
        assert!(whole["ir.insts_out"] > whole["ir.insts_in"]);
    }
}
