//! `cards fleet` — the fleet observability plane over the replicated
//! serving tier.
//!
//! Runs the Zipfian serving storm across N worker VMs (optionally killing
//! a shard primary partway through with `--kill SHARD`), joins each
//! worker's client-side trace trees with the server-side span log on
//! (trace id, parent span), and renders the cluster report: per-request
//! end-to-end timelines, per-shard gauges, SLO percentiles per request
//! class, and reconstructed failover incident timelines. `--json FILE`
//! writes the stable-schema `cards-fleet-v2` export. Exits non-zero if
//! any fleet invariant (cross-sum, wire bracket) is violated.

use std::fs;

use cards_net::{NetworkModel, ShardedConfig};
use cards_passes::{compile, CompileOptions};
use cards_runtime::{RemotingPolicy, RuntimeConfig};
use cards_vm::{run_serving_with_faults, FaultKind, ScriptedFault, ServeSpec};
use cards_workloads::serving;

use crate::args::Args;

/// Entry point for the `fleet` subcommand.
pub fn cmd_fleet(a: &Args) -> Result<(), String> {
    let p = serving::ServingParams {
        keys: a.opt_num("keys", 256i64)?,
        tenants: a.opt_num("tenants", 64i64)?,
        ops_per_tenant: a.opt_num("ops", 8i64)?,
    };
    let mut net = ShardedConfig {
        shards: a.opt_num("shards", 2usize)?,
        train_len: a.opt_num("train", 4usize)?,
        window: a.opt_num("window", 2usize)?,
        ..ShardedConfig::default()
    };
    net.replica.replicas = a.opt_num("replicas", 2usize)?;
    let spec = ServeSpec {
        workers: a.opt_num("workers", 4usize)?,
        tenants: p.tenants as u64,
        ops_per_tenant: p.ops_per_tenant as u64,
        net,
        model: NetworkModel::default(),
    };
    let m = serving::build_split(p);
    let c = compile(m, CompileOptions::cards()).map_err(|e| format!("compile: {e:?}"))?;

    // The starved budget (pinned pool empty, a quarter of the working set
    // remotable) is what drives traced wire traffic: a comfortable cache
    // would serve every request locally and there would be nothing to join.
    let mut cfg = RuntimeConfig::new(0, p.working_set_bytes() / 4);
    let kill: Option<usize> = match a.options.get("kill") {
        Some(v) => Some(
            v.parse()
                .map_err(|_| format!("--kill: cannot parse {v:?}"))?,
        ),
        None => None,
    };
    let script: Vec<ScriptedFault> = match kill {
        Some(shard) => {
            if shard >= spec.net.shards {
                return Err(format!(
                    "--kill {shard}: tier only has {} shard(s)",
                    spec.net.shards
                ));
            }
            // Failover needs a journal to replay and headroom to retry
            // through the takeover window, same as the failover campaign.
            cfg = cfg.with_journal(8).with_max_retries(8);
            vec![ScriptedFault {
                after_requests: spec.tenants * spec.ops_per_tenant / 4,
                shard,
                kind: FaultKind::KillPrimary,
            }]
        }
        None => Vec::new(),
    };
    let r = run_serving_with_faults(&c.module, spec, cfg, RemotingPolicy::MaxUse, 50, &script)?;

    if let Some(path) = a.options.get("json") {
        let json = cards_vm::fleet_json("serving", &spec, &r);
        fs::write(path, &json).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("fleet export written to {path} ({} bytes)", json.len());
    }
    let report = cards_vm::render_fleet_report("serving", &spec, &r);
    match a.options.get("out") {
        Some(path) => fs::write(path, report).map_err(|e| format!("{path}: {e}"))?,
        None => println!("{report}"),
    }
    cards_vm::check_fleet(&r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cards_net::json;

    fn args(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from)).unwrap()
    }

    #[test]
    fn fleet_run_exports_joined_timelines() {
        let dir = std::env::temp_dir().join("cards_cli_fleet_test");
        std::fs::create_dir_all(&dir).unwrap();
        let j = dir.join("fleet.json").to_string_lossy().to_string();
        let o = dir.join("fleet.txt").to_string_lossy().to_string();
        cmd_fleet(&args(&format!(
            "fleet --workers 2 --shards 2 --keys 128 --tenants 16 --ops 4 \
             --json {j} --out {o}"
        )))
        .expect("fleet run");
        let export = std::fs::read_to_string(dir.join("fleet.json")).unwrap();
        assert!(export.contains("\"schema\":\"cards-fleet-v2\""));
        assert!(export.contains("\"joined\":true"));
        let parsed = json::parse(&export).expect("valid json");
        assert_eq!(parsed.str_of("schema"), "cards-fleet-v2");
        assert!(!parsed.arr_of("timelines").is_empty());
        let report = std::fs::read_to_string(dir.join("fleet.txt")).unwrap();
        assert!(report.contains("== fleet: serving"));
        assert!(report.contains("slo all"));
    }

    #[test]
    fn fleet_kill_reconstructs_an_incident() {
        let dir = std::env::temp_dir().join("cards_cli_fleet_kill_test");
        std::fs::create_dir_all(&dir).unwrap();
        let j = dir.join("fleet.json").to_string_lossy().to_string();
        let o = dir.join("fleet.txt").to_string_lossy().to_string();
        cmd_fleet(&args(&format!(
            "fleet --workers 3 --shards 2 --keys 128 --tenants 16 --ops 6 \
             --replicas 2 --kill 0 --json {j} --out {o}"
        )))
        .expect("fleet kill run");
        let export = std::fs::read_to_string(dir.join("fleet.json")).unwrap();
        assert!(
            export.contains("\"incidents\":[{"),
            "kill must log an incident"
        );
        let parsed = json::parse(&export).expect("valid json");
        let inc = parsed.arr_of("incidents");
        assert!(!inc.is_empty());
        assert_eq!(inc[0].u64_of("shard"), 0);
        let report = std::fs::read_to_string(dir.join("fleet.txt")).unwrap();
        assert!(report.contains("failover incidents:"));
        assert!(!report.contains("failover incidents: none"));
    }

    #[test]
    fn fleet_rejects_out_of_range_kill() {
        assert!(cmd_fleet(&args("fleet --shards 2 --kill 5")).is_err());
        assert!(cmd_fleet(&args("fleet --kill banana")).is_err());
    }
}
