//! Fleet observability plane: cross-worker trace assembly and the
//! `cards fleet` export (schema `cards-fleet-v2`).
//!
//! Each serving worker runs a traced VM over a [`ShardedClient`]; the
//! client keeps a deterministic [`ServerSpanLog`] decomposing every
//! modeled charge into server-side phases (queue, apply, transfer, train
//! flush, barrier) keyed by the `TraceContext` the runtime stamped before
//! the wire operation. This module is the collector: it extracts the
//! per-worker truth ([`extract_fleet`]), joins client span trees with the
//! server span log on (trace id, parent span index) into end-to-end
//! timelines ([`join_worker`]), reconstructs failover incident timelines,
//! verifies the cross-layer invariants ([`check_fleet`]), and renders the
//! cluster report and JSON export.
//!
//! ## Join keys and the bracket invariant
//!
//! The runtime stamps `TraceContext { trace, span }` *before* each wire
//! operation, where `span` is the innermost **open** client span — the
//! causal parent (`localize`, `writeback`, `flush_writebacks`, ...). The
//! `wire`/`flush` leaf recorded after the operation is a child of that
//! same parent carrying the full modeled charge. Hence for every join
//! group: **the sum of joined server span cycles never exceeds the sum of
//! the parent's wire/flush leaf cycles** (the difference is link latency,
//! recorded as residue). Journal-replay traffic runs with the tracer
//! paused, carries trace id 0, and deliberately joins nothing.
//!
//! ## Determinism contract (DESIGN.md §13, §15)
//!
//! Everything above the `"counters"` key in `cards-fleet-v2` is a pure
//! function of each worker's own op sequence and is byte-identical across
//! fault-free replays: span logs, per-shard gauges, SLO percentiles,
//! sampled timelines (sorted by root cycles, ties broken on worker then
//! trace id). Interleaving-dependent truth — shared tier counters, the
//! per-shard event counts, per-worker resilience counters — lives only under
//! `"counters"`, which diff tooling strips before comparing, exactly as
//! for `BENCH_core.json`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use cards_net::json::{self, Fixed, Obj};
use cards_net::{
    FailoverIncident, Histogram, ServerSpan, ServerSpanLog, ShardGauges, ShardedClient,
    INCIDENT_PHASES,
};
use cards_runtime::{SpanKind, TraceTree};

use crate::interp::Vm;
use crate::worker::{ServeReport, ServeSpec};

/// One worker's slice of the fleet plane, extracted from its live VM
/// after the final quiesce (while tracer and transport are still
/// attached). Everything here is deterministic per worker except the
/// failover incidents, which are empty on fault-free runs.
#[derive(Clone, Debug, Default)]
pub struct WorkerFleet {
    /// Retained trace trees from the worker's tracer ring.
    pub trees: Vec<TraceTree>,
    /// Remote operations the tracer materialized trees for.
    pub remote_ops: u64,
    /// Local (hit) operations observed without a tree.
    pub local_ops: u64,
    /// Cumulative per-phase self-cycles (nonzero kinds, stable order).
    pub phases: Vec<(SpanKind, u64)>,
    /// The client's server-side span log (exact charge decomposition).
    pub server: ServerSpanLog,
    /// Epoch-fenced takeovers this client performed, on its modeled clock.
    pub incidents: Vec<FailoverIncident>,
    /// The client's total modeled network cycles (cross-checks the log).
    pub net_cycles: u64,
}

/// Extract the fleet plane from a live serving VM. Must run while the VM
/// still owns its client (after the final quiesce, before teardown).
pub fn extract_fleet(vm: &Vm<ShardedClient>) -> WorkerFleet {
    let rt = vm.runtime();
    let tr = rt.tracer();
    let client = rt.transport();
    WorkerFleet {
        trees: tr.trees().cloned().collect(),
        remote_ops: tr.remote_ops(),
        local_ops: tr.local_ops(),
        phases: tr.phase_totals().filter(|&(_, c)| c > 0).collect(),
        server: client.server_span_log().clone(),
        incidents: client.incidents(),
        net_cycles: rt.net_stats().cycles,
    }
}

/// One joined group: a client-side parent span plus every server-side
/// span stamped with its context.
#[derive(Clone, Debug)]
pub struct JoinGroup {
    /// Parent span index within the tree.
    pub span: u32,
    /// Parent span kind (`localize`, `writeback`, ...).
    pub kind: SpanKind,
    /// Sum of the parent's `wire`/`flush` leaf children — the client-side
    /// bracket the joined server spans must fit inside.
    pub wire_cycles: u64,
    /// Joined server spans, in issue order.
    pub server: Vec<ServerSpan>,
}

impl JoinGroup {
    /// Total joined server span cycles.
    pub fn server_cycles(&self) -> u64 {
        self.server.iter().map(|s| s.cycles).sum()
    }
}

/// One end-to-end timeline: a client trace tree joined with the server
/// span log (guard → wire → shard queue/apply/transfer → reply).
#[derive(Clone, Debug)]
pub struct Timeline<'a> {
    /// Worker that owns the trace.
    pub worker: usize,
    /// The client-side span tree.
    pub tree: &'a TraceTree,
    /// Joined server-side groups, by parent span index.
    pub groups: Vec<JoinGroup>,
    /// True when at least one group joined and every group's server spans
    /// fit inside its client-side wire bracket.
    pub joined: bool,
}

/// Join one worker's retained trace trees against its server span log.
/// Server spans with trace id 0 (untraced or journal-replay traffic) and
/// traces whose trees were evicted from the ring join nothing.
pub fn join_worker(worker: usize, fleet: &WorkerFleet) -> Vec<Timeline<'_>> {
    let mut by_trace: BTreeMap<u64, BTreeMap<u32, Vec<ServerSpan>>> = BTreeMap::new();
    for s in fleet.server.spans() {
        if s.ctx.trace != 0 {
            by_trace
                .entry(s.ctx.trace)
                .or_default()
                .entry(s.ctx.span)
                .or_default()
                .push(*s);
        }
    }
    fleet
        .trees
        .iter()
        .map(|tree| {
            let mut groups = Vec::new();
            let mut bracketed = true;
            if let Some(per_span) = by_trace.get(&tree.trace) {
                for (&span, list) in per_span {
                    // A context can only name an open span, so the index
                    // is in range for any validly captured tree; guard
                    // anyway so a truncated tree degrades to "unjoined".
                    let (wire_cycles, kind) = match tree.spans.get(span as usize) {
                        Some(parent) => (
                            tree.children(span)
                                .filter(|(_, sp)| {
                                    matches!(sp.kind, SpanKind::Wire | SpanKind::Flush)
                                })
                                .map(|(_, sp)| sp.cycles)
                                .sum::<u64>(),
                            parent.kind,
                        ),
                        None => (0, SpanKind::Wire),
                    };
                    let g = JoinGroup {
                        span,
                        kind,
                        wire_cycles,
                        server: list.clone(),
                    };
                    if g.server_cycles() > g.wire_cycles {
                        bracketed = false;
                    }
                    groups.push(g);
                }
            }
            let joined = bracketed && !groups.is_empty();
            Timeline {
                worker,
                tree,
                groups,
                joined,
            }
        })
        .collect()
}

/// Verify one worker's cross-layer invariants: the span-log cross-sum
/// (`remote_cycles == span cycles + residue`), agreement between the log
/// and the client's own `NetStats` clock, and the bracket invariant on
/// every join group.
pub fn check_worker(worker: usize, fleet: &WorkerFleet) -> Result<(), String> {
    fleet
        .server
        .check()
        .map_err(|e| format!("worker {worker}: {e}"))?;
    if fleet.server.remote_cycles() != fleet.net_cycles {
        return Err(format!(
            "worker {worker}: span log accounts {} modeled cycles but the client charged {}",
            fleet.server.remote_cycles(),
            fleet.net_cycles
        ));
    }
    for tl in join_worker(worker, fleet) {
        for g in &tl.groups {
            if g.server_cycles() > g.wire_cycles {
                return Err(format!(
                    "worker {worker} trace {} span {}: joined server spans carry {} cycles, \
                     exceeding the client-side wire bracket of {}",
                    tl.tree.trace,
                    g.span,
                    g.server_cycles(),
                    g.wire_cycles
                ));
            }
        }
    }
    Ok(())
}

/// Verify the whole serving report: every worker's invariants plus the
/// request-class bookkeeping alignment.
pub fn check_fleet(report: &ServeReport) -> Result<(), String> {
    for w in &report.per_worker {
        if w.request_remote.len() != w.request_cycles.len() {
            return Err(format!(
                "worker {}: {} request classes for {} latencies",
                w.worker,
                w.request_remote.len(),
                w.request_cycles.len()
            ));
        }
        check_worker(w.worker, &w.fleet)?;
    }
    Ok(())
}

/// Exact nearest-rank quantile over a sorted slice, in permille
/// (`permille(v, 990)` is the p99; p999 needs the finer grain).
pub(crate) fn permille(sorted: &[u64], p: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[((p * (sorted.len() as u64 - 1)) / 1000) as usize]
}

/// Latency classes for the SLO section: every request, then split by
/// whether the request touched the remote tier.
fn slo_classes(report: &ServeReport) -> [(&'static str, Vec<u64>); 3] {
    let mut all = Vec::new();
    let mut local = Vec::new();
    let mut remote = Vec::new();
    for w in &report.per_worker {
        for (c, r) in w.request_cycles.iter().zip(w.request_remote.iter()) {
            all.push(*c);
            if *r {
                remote.push(*c);
            } else {
                local.push(*c);
            }
        }
    }
    all.sort_unstable();
    local.sort_unstable();
    remote.sort_unstable();
    [("all", all), ("local", local), ("remote", remote)]
}

/// Availability as served / issued (1.0 when nothing was issued).
fn availability(report: &ServeReport) -> f64 {
    if report.issued == 0 {
        1.0
    } else {
        report.ok as f64 / report.issued as f64
    }
}

/// Per-shard gauges merged across every worker's span log.
fn merged_shards(report: &ServeReport) -> BTreeMap<u32, ShardGauges> {
    let mut shards: BTreeMap<u32, ShardGauges> = BTreeMap::new();
    for w in &report.per_worker {
        for (s, g) in w.fleet.server.shards() {
            shards.entry(*s).or_default().merge(g);
        }
    }
    shards
}

/// The sampled timelines: every worker's trees joined, sorted by root
/// cycles (slowest first, ties on worker then trace id), truncated to
/// `top_n`. Fully deterministic.
fn sampled_timelines(report: &ServeReport, top_n: usize) -> Vec<Timeline<'_>> {
    let mut tls: Vec<Timeline> = report
        .per_worker
        .iter()
        .flat_map(|w| join_worker(w.worker, &w.fleet))
        .collect();
    tls.sort_by(|a, b| {
        b.tree
            .root()
            .cycles
            .cmp(&a.tree.root().cycles)
            .then(a.worker.cmp(&b.worker))
            .then(a.tree.trace.cmp(&b.tree.trace))
    });
    tls.truncate(top_n);
    tls
}

/// The SLO object's members — availability plus per-request-class latency
/// quantiles. Shared by the `cards-fleet-v2` export and the
/// `BENCH_core.json` serving section. Fully deterministic: request
/// latencies and their remote/local classification are pure functions of
/// each worker's op sequence.
pub fn slo_fields(o: &mut Obj<'_>, report: &ServeReport) {
    o.field("availability", Fixed(availability(report), 6))
        .arr("classes", |a| {
            for (name, v) in slo_classes(report).iter() {
                a.obj(|o| {
                    o.field("class", name)
                        .field("count", v.len())
                        .field("p50", permille(v, 500))
                        .field("p99", permille(v, 990))
                        .field("p999", permille(v, 999));
                });
            }
        });
}

/// A depth gauge's summary members.
fn gauge_fields(o: &mut Obj<'_>, h: &Histogram) {
    o.field("count", h.count())
        .field("p50", h.p50())
        .field("p99", h.p99());
}

/// Render the `cards-fleet-v2` export. Key order is fixed; `"counters"`
/// (the only interleaving-dependent region) comes last so diff tooling
/// can strip it with the same rule as `BENCH_core.json`.
pub fn fleet_json(module_name: &str, spec: &ServeSpec, report: &ServeReport) -> String {
    json::object(|o| {
        o.field("schema", "cards-fleet-v2")
            .field("module", module_name)
            .field("workers", report.workers)
            .field("shards", spec.net.shards)
            .field("replicas", spec.net.replica.replicas)
            .field("tenants", spec.tenants)
            .field("ops_per_tenant", spec.ops_per_tenant)
            .field("requests", report.ok)
            .field("issued", report.issued)
            // SLO: availability plus per-request-class latency quantiles.
            .obj("slo", |o| slo_fields(o, report))
            // Per-worker deterministic accounting.
            .arr("per_worker", |a| {
                for w in &report.per_worker {
                    let f = &w.fleet;
                    a.obj(|o| {
                        o.field("worker", w.worker)
                            .field("requests", w.requests)
                            .field("issued", w.issued)
                            .field("serve_cycles", w.serve_cycles)
                            .field("remote_cycles", f.net_cycles)
                            .field("server_span_cycles", f.server.span_cycles())
                            .field("residue", f.server.residue())
                            .field("spans", f.server.spans().len())
                            .field("spans_dropped", f.server.dropped())
                            .field("traced_remote_ops", f.remote_ops)
                            .field("traced_local_ops", f.local_ops)
                            .obj("phases", |o| {
                                for (kind, cycles) in &f.phases {
                                    o.field(kind.name(), cycles);
                                }
                            });
                    });
                }
            })
            // Per-shard gauges (merged across workers; deterministic).
            .arr("per_shard", |a| {
                for (shard, g) in &merged_shards(report) {
                    a.obj(|o| {
                        o.field("shard", shard)
                            .field("ops", g.ops)
                            .field("server_cycles", g.server_cycles)
                            .obj("queue_depth", |o| gauge_fields(o, &g.queue_depth))
                            .obj("train_size", |o| gauge_fields(o, &g.train_size));
                    });
                }
            })
            // Slowest sampled end-to-end timelines.
            .arr("timelines", |a| {
                for tl in &sampled_timelines(report, 8) {
                    a.obj(|o| timeline_fields(o, tl));
                }
            })
            // Failover incidents (client-recorded on the modeled clock;
            // empty on fault-free runs, so byte-identity holds where it is
            // asserted).
            .arr("incidents", |a| {
                for w in &report.per_worker {
                    for inc in &w.fleet.incidents {
                        a.obj(|o| {
                            o.field("worker", w.worker)
                                .field("shard", inc.shard)
                                .field("fence", inc.fence)
                                .field("from", inc.from)
                                .field("to", inc.to)
                                .field("at_cycles", inc.at_cycles)
                                .field("trace", inc.trace)
                                .arr("phases", |a| {
                                    for p in INCIDENT_PHASES {
                                        a.item(p);
                                    }
                                });
                        });
                    }
                }
            })
            // Interleaving-dependent region, last key: shared tier
            // counters, per-shard event counts, per-worker resilience
            // counters. Strip before byte-comparing runs.
            .obj("counters", |o| counters_fields(o, report));
    })
}

/// One sampled timeline's members: the root, its non-zero phases, and
/// every joined group with its server spans.
fn timeline_fields(o: &mut Obj<'_>, tl: &Timeline<'_>) {
    o.field("worker", tl.worker)
        .field("trace", tl.tree.trace)
        .field("start", tl.tree.start)
        .field("root", tl.tree.root().kind.name())
        .field("cycles", tl.tree.root().cycles)
        .field("joined", tl.joined)
        .obj("phases", |o| {
            for (kind, cycles) in tl.tree.phase_breakdown() {
                if cycles > 0 {
                    o.field(kind.name(), cycles);
                }
            }
        })
        .arr("groups", |a| {
            for g in &tl.groups {
                a.obj(|o| {
                    o.field("span", g.span)
                        .field("kind", g.kind.name())
                        .field("wire_cycles", g.wire_cycles)
                        .arr("server", |a| {
                            for sp in &g.server {
                                a.obj(|o| {
                                    o.field("kind", sp.kind.name())
                                        .field("shard", sp.shard)
                                        .field("cycles", sp.cycles)
                                        .field("bytes", sp.bytes)
                                        .field("depth", sp.depth);
                                });
                            }
                        });
                });
            }
        });
}

/// The interleaving-dependent `"counters"` members.
fn counters_fields(o: &mut Obj<'_>, report: &ServeReport) {
    let n = &report.net;
    let ev = &report.fleet_events;
    o.obj("net", |o| {
        o.field("coalesced_hits", n.coalesced_hits)
            .field("wire_fetches", n.wire_fetches)
            .field("trains", n.trains)
            .field("train_objects", n.train_objects)
            .field("crashes", n.crashes)
            .field("dropped_objects", n.dropped_objects)
            .field("failovers", n.failovers)
            .field("failover_attempts", n.failover_attempts)
            .field("fenced_writes", n.fenced_writes)
            .field("fenced_ships", n.fenced_ships)
            .field("hedged_fetches", n.hedged_fetches)
            .field("hedge_wasted", n.hedge_wasted)
            .field("shipped_epochs", n.shipped_epochs);
    })
    .obj("events", |o| {
        o.field("total", ev.values().map(|e| e.total()).sum::<u64>())
            .arr("per_shard", |a| {
                for (shard, e) in ev {
                    a.obj(|o| {
                        o.field("shard", shard)
                            .field("journal_ships", e.journal_ships)
                            .field("flush_barriers", e.flush_barriers)
                            .field("fence_rejects", e.fence_rejects)
                            .field("takeover_drains", e.takeover_drains)
                            .field("coalesce_joins", e.coalesce_joins)
                            .field("hedge_wins", e.hedge_wins)
                            .field("hedge_wastes", e.hedge_wastes);
                    });
                }
            });
    })
    .arr("resilience", |a| {
        for w in &report.per_worker {
            a.obj(|o| {
                o.field("worker", w.worker)
                    .field("failovers", w.failovers)
                    .field("hedged", w.hedged_fetches)
                    .field("hedge_wasted", w.hedge_wasted)
                    .field("fenced_retries", w.fenced_retries)
                    .field("queue_buildup", w.queue_buildup_events)
                    .field("lag_breaches", w.lag_breaches);
            });
        }
    });
}

/// Render the human-readable cluster report behind `cards fleet`.
pub fn render_fleet_report(module_name: &str, spec: &ServeSpec, report: &ServeReport) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "== fleet: {} ({} workers, {} shards x {} replicas) ==",
        module_name, report.workers, spec.net.shards, spec.net.replica.replicas
    );
    let _ = writeln!(
        s,
        "requests: {}/{} ok (availability {:.4}%), makespan {} cycles",
        report.ok,
        report.issued,
        availability(report) * 100.0,
        report.makespan_cycles
    );
    for (name, v) in slo_classes(report).iter() {
        let _ = writeln!(
            s,
            "slo {:6} n {:6}  p50 {:8}  p99 {:8}  p999 {:8} cycles",
            name,
            v.len(),
            permille(v, 500),
            permille(v, 990),
            permille(v, 999)
        );
    }
    s.push_str("per-shard gauges:\n");
    for (shard, g) in merged_shards(report).iter() {
        let _ = writeln!(
            s,
            "  shard {}: {} ops, {} server cycles, queue depth p50/p99 {}/{}, \
             train size p50/p99 {}/{}",
            shard,
            g.ops,
            g.server_cycles,
            g.queue_depth.p50(),
            g.queue_depth.p99(),
            g.train_size.p50(),
            g.train_size.p99()
        );
    }
    s.push_str("per-worker:\n");
    for w in &report.per_worker {
        let f = &w.fleet;
        let _ = writeln!(
            s,
            "  worker {}: {} req, remote {} cycles (spans {} + residue {}), \
             failovers {}, hedged {} (wasted {}), fenced retries {}",
            w.worker,
            w.requests,
            f.net_cycles,
            f.server.span_cycles(),
            f.server.residue(),
            w.failovers,
            w.hedged_fetches,
            w.hedge_wasted,
            w.fenced_retries
        );
    }
    let tls = sampled_timelines(report, 8);
    if !tls.is_empty() {
        s.push_str("slowest end-to-end timelines:\n");
        for tl in &tls {
            let _ = writeln!(
                s,
                "  [w{} t{}] {} {} cycles at {}, {}",
                tl.worker,
                tl.tree.trace,
                tl.tree.root().kind.name(),
                tl.tree.root().cycles,
                tl.tree.start,
                if tl.joined { "joined" } else { "unjoined" }
            );
            for g in &tl.groups {
                let kinds: Vec<String> = g
                    .server
                    .iter()
                    .map(|sp| format!("{} {}", sp.kind.name(), sp.cycles))
                    .collect();
                let _ = writeln!(
                    s,
                    "    {} wire {} >= server {} ({})",
                    g.kind.name(),
                    g.wire_cycles,
                    g.server_cycles(),
                    kinds.join(" + ")
                );
            }
        }
    }
    let mut any = false;
    for w in &report.per_worker {
        for inc in &w.fleet.incidents {
            if !any {
                s.push_str("failover incidents:\n");
                any = true;
            }
            let _ = writeln!(
                s,
                "  [w{}] shard {} fence {}: replica {} -> {} at {} cycles (trace {}) {}",
                w.worker,
                inc.shard,
                inc.fence,
                inc.from,
                inc.to,
                inc.at_cycles,
                inc.trace,
                INCIDENT_PHASES.join(" > ")
            );
        }
    }
    if !any {
        s.push_str("failover incidents: none\n");
    }
    let ev = &report.fleet_events;
    let _ = writeln!(
        s,
        "events (interleaving-dependent): {} total",
        ev.values().map(|e| e.total()).sum::<u64>()
    );
    for (shard, e) in ev {
        let _ = writeln!(
            s,
            "  shard {}: ships {}, barriers {}, fence rejects {}, takeover drains {}, \
             coalesce joins {}, hedge wins {}, hedge wastes {}",
            shard,
            e.journal_ships,
            e.flush_barriers,
            e.fence_rejects,
            e.takeover_drains,
            e.coalesce_joins,
            e.hedge_wins,
            e.hedge_wastes
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use cards_net::{ServerSpanKind, TraceContext};
    use cards_runtime::Span;

    fn leaf(parent: u32, kind: SpanKind, cycles: u64) -> Span {
        Span {
            parent: Some(parent),
            kind,
            ds: 0,
            index: 0,
            cycles,
            attempt: 0,
            detail: "",
        }
    }

    /// guard -> localize -> wire(80), with 75 server cycles joined at the
    /// localize span and 5 cycles of link-latency residue.
    fn mini_fleet(server_cycles: (u64, u64)) -> WorkerFleet {
        let tree = TraceTree {
            trace: 7,
            start: 0,
            site: None,
            spans: vec![
                Span {
                    parent: None,
                    kind: SpanKind::Guard,
                    ds: 0,
                    index: 0,
                    cycles: 100,
                    attempt: 0,
                    detail: "",
                },
                leaf(0, SpanKind::Localize, 90),
                leaf(1, SpanKind::Wire, 80),
            ],
        };
        let mut log = ServerSpanLog::new(64);
        log.charge(80);
        let ctx = TraceContext { trace: 7, span: 1 };
        log.record(ServerSpan {
            ctx,
            shard: 0,
            kind: ServerSpanKind::Apply,
            cycles: server_cycles.0,
            bytes: 0,
            depth: 0,
        });
        log.record(ServerSpan {
            ctx,
            shard: 0,
            kind: ServerSpanKind::Transfer,
            cycles: server_cycles.1,
            bytes: 512,
            depth: 0,
        });
        log.add_residue(80 - (server_cycles.0 + server_cycles.1).min(80));
        WorkerFleet {
            trees: vec![tree],
            server: log,
            net_cycles: 80,
            ..WorkerFleet::default()
        }
    }

    #[test]
    fn join_groups_bracket_inside_the_wire_leaf() {
        let f = mini_fleet((30, 45));
        let tls = join_worker(0, &f);
        assert_eq!(tls.len(), 1);
        let tl = &tls[0];
        assert!(tl.joined);
        assert_eq!(tl.groups.len(), 1);
        let g = &tl.groups[0];
        assert_eq!(g.span, 1);
        assert_eq!(g.kind, SpanKind::Localize);
        assert_eq!(g.wire_cycles, 80);
        assert_eq!(g.server_cycles(), 75);
        check_worker(0, &f).unwrap();
    }

    #[test]
    fn bracket_violation_is_detected() {
        // Server claims more cycles than the client's wire leaf carries.
        let mut f = mini_fleet((60, 45));
        // Rebalance the log so only the bracket (not the cross-sum) fails.
        f.net_cycles = 105;
        let mut log = ServerSpanLog::new(64);
        log.charge(105);
        for sp in f.server.spans() {
            log.record(*sp);
        }
        f.server = log;
        let tls = join_worker(0, &f);
        assert!(
            !tls[0].joined,
            "over-bracket group must not count as joined"
        );
        let err = check_worker(0, &f).unwrap_err();
        assert!(err.contains("wire bracket"), "{err}");
    }

    #[test]
    fn untraced_server_spans_join_nothing() {
        let mut f = mini_fleet((30, 45));
        // Journal-replay traffic carries trace 0.
        f.server.charge(10);
        f.server.record(ServerSpan {
            ctx: TraceContext::NONE,
            shard: 1,
            kind: ServerSpanKind::Apply,
            cycles: 10,
            bytes: 0,
            depth: 0,
        });
        f.net_cycles += 10;
        let tls = join_worker(0, &f);
        assert_eq!(tls[0].groups.len(), 1, "trace-0 spans must not join");
        check_worker(0, &f).unwrap();
    }

    #[test]
    fn net_cycle_disagreement_is_detected() {
        let mut f = mini_fleet((30, 45));
        f.net_cycles += 1;
        let err = check_worker(0, &f).unwrap_err();
        assert!(err.contains("charged"), "{err}");
    }

    #[test]
    fn permille_is_exact_nearest_rank() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(permille(&v, 500), 500);
        assert_eq!(permille(&v, 990), 990);
        assert_eq!(permille(&v, 999), 999);
        assert_eq!(permille(&v, 1000), 1000);
        assert_eq!(permille(&[], 500), 0);
    }
}
