//! Stable-schema bench profile (`BENCH_profile.json`).
//!
//! Runs a fixed set of representative workloads through the full CaRDS
//! pipeline under memory pressure and emits one JSON document with
//! per-workload cycles, miss rates and the hottest attribution sites. The
//! schema is versioned (`cards-bench-profile-v1`) so CI can diff artifacts
//! across commits: a regression shows up as cycles moving on a named
//! workload, and the embedded top sites say *which compiler decision*
//! moved. Runs are fully deterministic — same build, same bytes.

use cards_ir::SiteId;
use cards_net::json::{self, Fixed, Obj};
use cards_net::SimTransport;
use cards_passes::{compile, CompileOptions};
use cards_runtime::{RemotingPolicy, RuntimeConfig};
use cards_vm::Vm;
use cards_workloads::{bfs, kvstore, listing1};

/// Schema tag embedded in the document; bump when the layout changes.
pub const SCHEMA: &str = "cards-bench-profile-v1";

/// How many top sites each workload records.
const TOP_SITES: usize = 5;

/// The snapshot workloads; `quick` shrinks their sizes (CI smoke).
pub(crate) fn workload_modules(quick: bool) -> Vec<(&'static str, cards_ir::Module)> {
    let (kv_keys, kv_ops) = if quick { (128, 600) } else { (1_024, 10_000) };
    let (bfs_nodes, bfs_deg) = if quick { (256, 4) } else { (4_096, 8) };
    let (l1_elems, l1_ntimes) = if quick { (512, 2) } else { (8_192, 4) };
    vec![
        (
            "kvstore",
            kvstore::build(kvstore::KvParams {
                keys: kv_keys,
                ops: kv_ops,
            })
            .0,
        ),
        (
            "bfs",
            bfs::build(bfs::BfsParams {
                nodes: bfs_nodes,
                degree: bfs_deg,
            })
            .0,
        ),
        (
            "listing1",
            listing1::build(listing1::Listing1Params {
                elems: l1_elems,
                ntimes: l1_ntimes,
            })
            .0,
        ),
    ]
}

/// Compile `m` with CaRDS and run it cache-starved, so data actually
/// moves, with everything remotable, so the numbers reflect guard traffic
/// rather than policy choices. Both snapshot documents describe these
/// runs.
pub(crate) fn run_starved(m: cards_ir::Module) -> Vm<SimTransport> {
    let c = compile(m, CompileOptions::cards()).expect("compile");
    let mut vm = Vm::new(
        c.module,
        RuntimeConfig::new(0, 2 * 4096),
        SimTransport::default(),
        RemotingPolicy::AllRemotable,
        100,
    );
    vm.run("main", &[]).expect("run");
    vm
}

/// Build the profile document. `quick` shrinks workload sizes (CI smoke).
pub fn bench_profile_json(quick: bool) -> String {
    json::object(|o| {
        o.field("schema", SCHEMA).arr("workloads", |a| {
            for (name, m) in workload_modules(quick) {
                a.obj(|o| workload_fields(o, name, &run_starved(m)));
            }
        });
    })
}

/// One workload's run: totals plus its hottest sites.
fn workload_fields(o: &mut Obj<'_>, name: &str, vm: &Vm<SimTransport>) {
    let (mut hits, mut misses) = (0u64, 0u64);
    for h in 0..vm.runtime().ds_count() as u16 {
        if let Some(st) = vm.runtime().ds_stats(h) {
            hits += st.hits;
            misses += st.misses;
        }
    }
    let miss_rate = if hits + misses == 0 {
        0.0
    } else {
        misses as f64 / (hits + misses) as f64
    };
    let prof = vm.runtime().profiler();
    let mut hot: Vec<u32> = prof.active_sites().collect();
    hot.sort_by_key(|&sid| {
        let c = prof.site(sid);
        (
            std::cmp::Reverse(c.remote_cycles),
            std::cmp::Reverse(c.checks()),
            sid,
        )
    });
    o.field("name", name)
        .field("cycles", vm.metrics().cycles)
        .field("guards", vm.metrics().guards)
        .field("hits", hits)
        .field("misses", misses)
        .field("miss_rate", Fixed(miss_rate, 4))
        .arr("top_sites", |a| {
            for &sid in hot.iter().take(TOP_SITES) {
                let site = vm.module().sites.site(SiteId(sid));
                let cnt = prof.site(sid);
                a.obj(|o| {
                    o.field("site", sid)
                        .field("kind", site.kind.name())
                        .field("func", &site.func_name)
                        .field("block", &site.block_name)
                        .field("hits", cnt.hits)
                        .field("misses", cnt.misses)
                        .field("remote_cycles", cnt.remote_cycles);
                });
            }
        });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_profile_is_deterministic_and_schema_tagged() {
        let a = bench_profile_json(true);
        let b = bench_profile_json(true);
        assert_eq!(a, b, "same build must emit identical bytes");
        assert!(a.contains("\"schema\":\"cards-bench-profile-v1\""));
        assert!(a.contains("\"name\":\"kvstore\""));
        assert!(a.contains("\"top_sites\":[{"), "at least one hot site");
    }
}
