//! Stable-schema core benchmark numbers (`BENCH_core.json`).
//!
//! Companion to [`crate::profile`]'s `BENCH_profile.json`: where the
//! profile document answers *which compiler decision moved*, this one
//! tracks the headline numbers CI charts across commits — per-workload
//! modeled instruction throughput, remote cycles, and guard-latency
//! percentiles. The schema is versioned (`cards-bench-core-v1`) and the
//! runs are fully deterministic: same build, same bytes.

use cards_net::json::{self, Fixed, Obj};
use cards_net::{NetworkModel, ShardedConfig, SimTransport};
use cards_passes::{compile, CompileOptions};
use cards_runtime::telemetry::HistPath;
use cards_runtime::{RemotingPolicy, RuntimeConfig};
use cards_vm::{run_failover_campaign, run_serving, ServeSpec, Vm};
use cards_workloads::serving;

use crate::profile::{run_starved, workload_modules};

/// Schema tag embedded in the document; bump when the layout changes.
pub const SCHEMA: &str = "cards-bench-core-v1";

/// The modeled CPU frequency used to express cycle counts as
/// instructions/sec (DESIGN.md §5.6: 3 GHz nominal clock).
pub const MODELED_HZ: u64 = 3_000_000_000;

/// Modeled instructions/sec: `instructions * MODELED_HZ / cycles`,
/// computed in u128 so large runs cannot overflow.
fn instructions_per_sec(instructions: u64, cycles: u64) -> u64 {
    (instructions as u128 * MODELED_HZ as u128 / cycles.max(1) as u128) as u64
}

/// Build the core document. `quick` shrinks workload sizes (CI smoke).
pub fn bench_core_json(quick: bool) -> String {
    json::object(|o| {
        o.field("schema", SCHEMA)
            .field("modeled_hz", MODELED_HZ)
            .arr("workloads", |a| {
                for (name, m) in workload_modules(quick) {
                    a.obj(|o| workload_fields(o, name, &run_starved(m)));
                }
            });
        serving_fields(o, quick);
        availability_fields(o, quick);
    })
}

/// One workload's modeled throughput, remote cycles and guard latency,
/// from the same runs as the profile document.
fn workload_fields(o: &mut Obj<'_>, name: &str, vm: &Vm<SimTransport>) {
    let metrics = vm.metrics();
    let rt = vm.runtime();
    let prof = rt.profiler();
    let remote_cycles: u64 = prof.sites().iter().map(|c| c.remote_cycles).sum::<u64>()
        + prof.unattributed().remote_cycles;
    let tel = rt.telemetry();
    let (hit, miss) = (
        tel.hist(HistPath::DerefLocal),
        tel.hist(HistPath::DerefRemote),
    );
    o.field("name", name)
        .field("instructions", metrics.instructions)
        .field("cycles", metrics.cycles)
        .field(
            "instructions_per_sec",
            instructions_per_sec(metrics.instructions, metrics.cycles),
        )
        .field("remote_cycles", remote_cycles)
        .obj("guard_latency", |o| {
            o.field("hit_p50", hit.p50())
                .field("hit_p99", hit.p99())
                .field("miss_p50", miss.p50())
                .field("miss_p99", miss.p99());
        });
}

/// The concurrent serving section: N worker VMs over the sharded tier,
/// reporting aggregate modeled instruction throughput and per-request
/// latency percentiles, followed by the fleet SLO section (availability
/// plus per-request-class p50/p99/p999). Only the deterministic fields of
/// the [`cards_vm::ServeReport`] are emitted — interleaving-dependent
/// counters (coalesced hits, wire fetches) would break the
/// byte-reproducibility contract of this document.
fn serving_fields(o: &mut Obj<'_>, quick: bool) {
    let (p, workers) = if quick {
        (
            serving::ServingParams {
                keys: 128,
                tenants: 200,
                ops_per_tenant: 10,
            },
            4usize,
        )
    } else {
        (
            serving::ServingParams {
                keys: 1_024,
                tenants: 2_000,
                ops_per_tenant: 20,
            },
            8usize,
        )
    };
    let m = serving::build_split(p);
    let c = compile(m, CompileOptions::cards()).expect("compile serving");
    let spec = ServeSpec {
        workers,
        tenants: p.tenants as u64,
        ops_per_tenant: p.ops_per_tenant as u64,
        net: ShardedConfig::default(),
        model: NetworkModel::default(),
    };
    let ws = p.working_set_bytes();
    let cfg = RuntimeConfig::new(0, ws / 4);
    let r = run_serving(&c.module, spec, cfg, RemotingPolicy::MaxUse, 50).expect("serve");
    o.obj("serving", |o| {
        o.field("workers", r.workers)
            .field("shards", spec.net.shards)
            .field("replicas", spec.net.replica.replica_count())
            .field("tenants", spec.tenants)
            .field("requests", r.requests)
            .field("instructions", r.instructions)
            .field("makespan_cycles", r.makespan_cycles)
            .field(
                "instructions_per_sec",
                instructions_per_sec(r.instructions, r.makespan_cycles),
            )
            .field("request_p50", r.p50_cycles)
            .field("request_p99", r.p99_cycles)
            // The trailing "counters" subobject is the one
            // interleaving-dependent region of the document (shared atomic
            // tier counters); consumers — and the determinism test — strip
            // it before byte-comparing.
            .obj("counters", |o| {
                o.field("coalesced_hits", r.net.coalesced_hits)
                    .field("wire_fetches", r.net.wire_fetches)
                    .field("trains", r.net.trains)
                    .field("failovers", r.net.failovers)
                    .field("hedged_fetches", r.net.hedged_fetches)
                    .field("hedge_wasted", r.net.hedge_wasted)
                    .field("fenced_writes", r.net.fenced_writes);
            });
    })
    .obj("slo", |o| cards_vm::slo_fields(o, &r));
}

/// The availability section: the deterministic fault-space campaign
/// (healthy + 5 fault kinds x 3 injection phases) with availability
/// (`ok / issued`) and the digest-oracle verdict per cell. Cell verdicts
/// are deterministic; the raw failover/hedge tallies inside each cell are
/// interleaving-dependent and live under the same strip-before-compare
/// convention as the serving counters.
fn availability_fields(o: &mut Obj<'_>, quick: bool) {
    let (p, workers) = if quick {
        (
            serving::ServingParams {
                keys: 128,
                tenants: 8,
                ops_per_tenant: 10,
            },
            4usize,
        )
    } else {
        (
            serving::ServingParams {
                keys: 256,
                tenants: 24,
                ops_per_tenant: 12,
            },
            8usize,
        )
    };
    let m = serving::build_split(p);
    let c = compile(m, CompileOptions::cards()).expect("compile serving");
    let spec = ServeSpec {
        workers,
        tenants: p.tenants as u64,
        ops_per_tenant: p.ops_per_tenant as u64,
        net: ShardedConfig {
            shards: 3,
            train_len: 4,
            window: 2,
            ..ShardedConfig::default()
        },
        model: NetworkModel::default(),
    };
    let ws = p.working_set_bytes();
    let cfg = RuntimeConfig::new(0, ws / 4)
        .with_journal(8)
        .with_max_retries(8);
    let rep = run_failover_campaign(&c.module, spec, cfg, RemotingPolicy::MaxUse, 50)
        .expect("failover campaign");
    o.obj("availability", |o| {
        o.field("cells", rep.cells.len())
            .field("passed", rep.passed())
            .field("pass", rep.pass)
            .arr("results", |a| {
                for cell in &rep.cells {
                    a.obj(|o| {
                        o.field("name", &cell.name)
                            .field("issued", cell.issued)
                            .field("ok", cell.ok)
                            .field("availability", Fixed(cell.availability(), 6))
                            .field("failovers", cell.failovers)
                            .field("digest_match", cell.digest_match)
                            .field("pass", cell.pass);
                    });
                }
            });
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Remove one `"key":...` span (object or array valued) from the
    /// document, brace-matched, so byte-comparison can skip the
    /// interleaving-dependent regions.
    fn strip_span(s: &str, key: &str) -> String {
        let start = match s.find(key) {
            Some(i) => i,
            None => return s.to_string(),
        };
        let bytes = s.as_bytes();
        let open = start + key.len();
        let (close_of, open_of) = match bytes[open] {
            b'{' => (b'}', b'{'),
            b'[' => (b']', b'['),
            _ => return s.to_string(),
        };
        let mut depth = 0usize;
        let mut end = open;
        for (i, &b) in bytes.iter().enumerate().skip(open) {
            if b == open_of {
                depth += 1;
            } else if b == close_of {
                depth -= 1;
                if depth == 0 {
                    end = i + 1;
                    break;
                }
            }
        }
        format!("{}{}", &s[..start], &s[end..])
    }

    /// Everything outside the shared-counter regions must be
    /// byte-identical across runs (the document's reproducibility
    /// contract; the stripped spans are interleaving-dependent tallies).
    fn strip_volatile(s: &str) -> String {
        let s = strip_span(s, "\"counters\":");
        strip_span(&s, "\"results\":")
    }

    #[test]
    fn bench_core_is_deterministic_and_schema_tagged() {
        let a = bench_core_json(true);
        let b = bench_core_json(true);
        assert_eq!(
            strip_volatile(&a),
            strip_volatile(&b),
            "same build must emit identical bytes outside shared counters"
        );
        assert!(a.contains("\"schema\":\"cards-bench-core-v1\""));
        assert!(a.contains("\"name\":\"kvstore\""));
        assert!(a.contains("\"instructions_per_sec\":"));
        assert!(a.contains("\"miss_p99\":"));
        assert!(a.contains("\"serving\":{\"workers\":4"));
        assert!(a.contains("\"request_p50\":"));
        assert!(a.contains("\"request_p99\":"));
        assert!(a.contains("\"counters\":{\"coalesced_hits\":"));
        assert!(a.contains("\"slo\":{\"availability\":"));
        assert!(a.contains("\"class\":\"remote\""));
        assert!(a.contains("\"p999\":"));
        assert!(a.contains("\"availability\":{\"cells\":16"));
        assert!(a.contains("\"name\":\"kill-primary/early\""));
        assert!(
            a.contains("\"pass\":true}]}"),
            "campaign must end green: {}",
            &a[a.find("\"availability\"").unwrap()..]
        );
    }

    #[test]
    fn throughput_math_uses_wide_arithmetic() {
        // A run big enough to overflow u64 multiplication must not panic.
        let ips = instructions_per_sec(u64::MAX / 2, u64::MAX / 3);
        assert!(ips > 0);
        assert_eq!(instructions_per_sec(300, 600), MODELED_HZ / 2);
        assert_eq!(instructions_per_sec(1, 0), MODELED_HZ);
    }
}
