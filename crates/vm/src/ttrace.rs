//! Causal-trace reports: the observability layer behind `cards ttrace`.
//!
//! The runtime's [`cards_runtime::Tracer`] records span trees keyed
//! by `u32` guard-site index; the compiled module's
//! [`SiteTable`](cards_ir::SiteTable) holds the static context. Only this
//! crate sees both, so the joins live here:
//!
//! - [`render_ttrace_report`] — human-readable per-phase breakdown,
//!   per-site totals, rendered span trees for the slowest retained
//!   operations (with critical path), and the anomaly-trigger log;
//! - [`ttrace_json`] — the full trace export as deterministic JSON
//!   (schema `cards-ttrace-v1`), the `cards ttrace diff` input;
//! - [`flight_json`] — one flight-recorder snapshot as JSON
//!   (schema `cards-flight-v1`), the `FLIGHT_*.json` payload;
//! - [`check_traces`] — structural invariants over every retained tree
//!   (valid parents, proper nesting, cross-sum).
//!
//! Everything is derived from deterministic counters and the modeled
//! clock: identical runs render byte-identical output.

use std::fmt::Write as _;

use cards_net::{json, Transport};
use cards_runtime::ttrace::{tree_fields, trigger_fields};
use cards_runtime::{TraceTree, Tracer};

use crate::interp::Vm;

/// `func/block` site location, or `(no guard executing)` for `None`.
fn site_location<T: Transport>(vm: &Vm<T>, site: Option<u32>) -> String {
    let Some(sid) = site else {
        return "(no guard executing)".to_string();
    };
    let site = vm.module().sites.site(cards_ir::SiteId(sid));
    if site.block_name.is_empty() {
        site.func_name.clone()
    } else {
        format!("{}/{}", site.func_name, site.block_name)
    }
}

/// DS display name for a runtime handle, or `-` if never registered.
fn ds_label<T: Transport>(vm: &Vm<T>, ds: u16) -> String {
    match vm.runtime().ds_spec(ds) {
        Some(spec) => format!("ds{}[{}]", ds, truncate(&spec.name, 12)),
        None => format!("ds{ds}"),
    }
}

/// One rendered line per span, depth-first with indentation.
fn render_tree<T: Transport>(s: &mut String, vm: &Vm<T>, t: &TraceTree) {
    // (span index, depth) stack; children pushed in reverse so the
    // leftmost child renders first.
    let mut stack = vec![(0u32, 0usize)];
    while let Some((i, depth)) = stack.pop() {
        let sp = &t.spans[i as usize];
        let _ = write!(
            s,
            "  {:indent$}{} {}:{} {} cycles (self {})",
            "",
            sp.kind.name(),
            ds_label(vm, sp.ds),
            sp.index,
            sp.cycles,
            t.self_cycles(i),
            indent = depth * 2
        );
        if sp.attempt > 0 {
            let _ = write!(s, " attempt {}", sp.attempt);
        }
        if !sp.detail.is_empty() {
            let _ = write!(s, " [{}]", sp.detail);
        }
        s.push('\n');
        let kids: Vec<u32> = t.children(i).map(|(j, _)| j).collect();
        for j in kids.into_iter().rev() {
            stack.push((j, depth + 1));
        }
    }
    // Critical path: the chain of heaviest children from the root.
    let path = t.critical_path();
    let names: Vec<&str> = path
        .iter()
        .map(|&i| t.spans[i as usize].kind.name())
        .collect();
    let leaf = *path.last().expect("critical path includes the root");
    let _ = writeln!(
        s,
        "  critical path: {} = {}/{} cycles",
        names.join(" > "),
        t.spans[leaf as usize].cycles,
        t.root().cycles
    );
}

/// Render the causal-trace report.
///
/// Sections: operation counts and the rolling latency baseline, cumulative
/// per-phase self-cycle breakdown, per-site totals, span trees for the
/// `top_n` slowest retained operations, and the anomaly-trigger log.
pub fn render_ttrace_report<T: Transport>(vm: &Vm<T>, top_n: usize) -> String {
    let mut s = String::new();
    let module = vm.module();
    let tr: &Tracer = vm.runtime().tracer();
    let _ = writeln!(
        s,
        "== ttrace: {} ({} remote ops traced, {} local, {} abandoned) ==",
        module.name,
        tr.remote_ops(),
        tr.local_ops(),
        tr.abandoned_ops()
    );
    let base = tr.baseline();
    let _ = writeln!(
        s,
        "baseline: {} ops, p50 {} cycles, p99 {} cycles",
        base.count(),
        base.p50(),
        base.p99()
    );

    // ---- cumulative per-phase breakdown ----
    let total: u64 = tr.phase_totals().map(|(_, c)| c).sum();
    let _ = writeln!(s, "phase breakdown (self-cycles across all traced ops):");
    let _ = writeln!(s, "  {:<18} {:>14} {:>7}", "phase", "cycles", "%");
    for (kind, cycles) in tr.phase_totals() {
        if cycles == 0 {
            continue;
        }
        let pct = 100.0 * cycles as f64 / total.max(1) as f64;
        let _ = writeln!(s, "  {:<18} {:>14} {:>6.1}%", kind.name(), cycles, pct);
    }
    let _ = writeln!(s, "  {:<18} {:>14} {:>6.1}%", "total", total, 100.0);

    // ---- per-site totals ----
    let mut sites: Vec<(u32, u64, u64)> = tr.site_totals().collect();
    sites.sort_by_key(|(sid, _, cycles)| (std::cmp::Reverse(*cycles), *sid));
    if !sites.is_empty() || tr.unsited().0 > 0 {
        let _ = writeln!(s, "per-site totals (top {top_n} by cycles):");
        let _ = writeln!(
            s,
            "  {:<6} {:<24} {:>8} {:>14} {:>10}",
            "site", "location", "ops", "cycles", "avg"
        );
        for (sid, ops, cycles) in sites.iter().take(top_n) {
            let _ = writeln!(
                s,
                "  #{:<5} {:<24} {:>8} {:>14} {:>10}",
                sid,
                truncate(&site_location(vm, Some(*sid)), 24),
                ops,
                cycles,
                cycles / (*ops).max(1)
            );
        }
        let (uops, ucycles) = tr.unsited();
        if uops > 0 {
            let _ = writeln!(
                s,
                "  {:<6} {:<24} {:>8} {:>14} {:>10}",
                "-",
                "(no guard executing)",
                uops,
                ucycles,
                ucycles / uops.max(1)
            );
        }
    }

    // ---- slowest retained span trees ----
    let mut retained: Vec<&TraceTree> = tr.trees().collect();
    let kept = retained.len();
    retained.sort_by_key(|t| (std::cmp::Reverse(t.root().cycles), t.trace));
    if kept > 0 {
        let _ = writeln!(s, "slowest retained operations (top {top_n} of {kept}):");
        for t in retained.iter().take(top_n) {
            let _ = writeln!(
                s,
                "trace #{} @ site {} (start cycle {}):",
                t.trace,
                t.site
                    .map(|sid| format!("#{sid}"))
                    .unwrap_or_else(|| "-".to_string()),
                t.start
            );
            render_tree(&mut s, vm, t);
        }
    }

    // ---- anomaly triggers ----
    let trig = tr.triggers();
    if !trig.is_empty() {
        let _ = writeln!(s, "anomaly triggers ({}):", trig.len());
        for t in trig {
            let _ = writeln!(s, "  [cycle {}] {} (trace {})", t.cycle, t.reason, t.trace);
        }
        let _ = writeln!(
            s,
            "flight snapshots captured: {} (ring of {} trees each)",
            tr.snapshots().len(),
            tr.config().ring_capacity
        );
    }
    s
}

/// The full trace export as deterministic JSON (schema `cards-ttrace-v1`).
///
/// `phases` lists every span kind (zeros included) so two exports always
/// diff field-by-field; `sites` joins the cumulative per-site totals with
/// the module's static site context; `trees` is the retained ring.
pub fn ttrace_json<T: Transport>(vm: &Vm<T>) -> String {
    let module = vm.module();
    let tr = vm.runtime().tracer();
    let base = tr.baseline();
    let (uops, ucycles) = tr.unsited();
    json::object(|o| {
        o.field("schema", "cards-ttrace-v1")
            .field("module", &module.name)
            .field("cycles", vm.metrics().cycles)
            .obj("ops", |o| {
                o.field("remote", tr.remote_ops())
                    .field("local", tr.local_ops())
                    .field("abandoned", tr.abandoned_ops());
            })
            .obj("baseline", |o| {
                o.field("count", base.count())
                    .field("p50", base.p50())
                    .field("p99", base.p99());
            })
            .obj("phases", |o| {
                for (kind, cycles) in tr.phase_totals() {
                    o.field(kind.name(), cycles);
                }
            })
            .arr("sites", |a| {
                for (sid, ops, cycles) in tr.site_totals() {
                    let site = module.sites.site(cards_ir::SiteId(sid));
                    a.obj(|o| {
                        o.field("site", sid)
                            .field("func", &site.func_name)
                            .field("block", &site.block_name)
                            .field("ops", ops)
                            .field("cycles", cycles);
                    });
                }
            })
            .obj("unsited", |o| {
                o.field("ops", uops).field("cycles", ucycles);
            })
            .arr("trees", |a| {
                for t in tr.trees() {
                    a.obj(|o| tree_fields(o, t));
                }
            })
            .arr("triggers", |a| {
                for t in tr.triggers() {
                    a.obj(|o| trigger_fields(o, t));
                }
            });
    })
}

/// One flight-recorder snapshot as JSON (schema `cards-flight-v1`): the
/// trigger that fired plus the ring of recent span trees at that instant.
/// This is the payload `cards ttrace` writes to `FLIGHT_<n>.json`.
pub fn flight_json<T: Transport>(vm: &Vm<T>, snapshot: usize) -> Option<String> {
    let snap = vm.runtime().tracer().snapshots().get(snapshot)?;
    Some(json::object(|o| {
        o.field("schema", "cards-flight-v1")
            .field("module", &vm.module().name)
            .obj("trigger", |o| trigger_fields(o, &snap.trigger))
            .arr("trees", |a| {
                for t in &snap.trees {
                    a.obj(|o| tree_fields(o, t));
                }
            });
    }))
}

/// Structural invariants over every retained tree: valid parent indices,
/// acyclic proper nesting, and the cross-sum rule (children never exceed
/// their parent). Also checks that every tree's per-phase breakdown sums
/// back to its root total. Returns the first violation, if any.
pub fn check_traces<T: Transport>(vm: &Vm<T>) -> Result<(), String> {
    let tr = vm.runtime().tracer();
    for t in tr.trees() {
        t.validate()
            .map_err(|e| format!("trace {}: {e}", t.trace))?;
        let phase_sum: u64 = t.phase_breakdown().iter().map(|(_, c)| c).sum();
        if phase_sum != t.root().cycles {
            return Err(format!(
                "trace {}: phase breakdown sums to {} but root total is {}",
                t.trace,
                phase_sum,
                t.root().cycles
            ));
        }
    }
    // The cumulative phase totals must likewise sum to the cumulative
    // per-site + unsited operation totals.
    let phase_total: u64 = tr.phase_totals().map(|(_, c)| c).sum();
    let op_total: u64 = tr.site_totals().map(|(_, _, c)| c).sum::<u64>() + tr.unsited().1;
    if phase_total != op_total {
        return Err(format!(
            "cumulative phase self-cycles {phase_total} != cumulative op total {op_total}"
        ));
    }
    Ok(())
}

/// Char-safe prefix truncation for table cells.
fn truncate(s: &str, n: usize) -> String {
    if s.chars().count() <= n {
        s.to_string()
    } else {
        s.chars().take(n).collect()
    }
}
