//! Deterministic fault-space campaign over the replicated serving tier.
//!
//! The campaign sweeps every fault kind the tier defends against —
//! primary kill, backup kill, crash/restart, stall, and a kill landing in
//! the middle of a failover handshake — across scripted injection phases
//! (early / mid / late in the request stream), and holds **every** cell
//! to the same oracle the fault-free path uses: after drain + quiesce,
//! the per-DS server digest must be byte-identical to a serial replay of
//! the same workload, and when every issued request completed, the
//! checksum must match too. Availability (`ok / issued`) is recorded per
//! cell; counters (failovers, hedges, fenced writes) are evidence that
//! the cell actually exercised the machinery it claims to.

use std::collections::BTreeMap;
use std::time::Duration;

use cards_ir::Module;
use cards_runtime::{RemotingPolicy, RuntimeConfig};

use crate::worker::{
    run_serial_replay, run_serving_with_faults, FaultKind, ScriptedFault, ServeSpec,
};

/// Where in the request stream a fault is injected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Before the first serve-phase request (may land during setup).
    Early,
    /// Halfway through the issued-request stream.
    Mid,
    /// At 90% of the issued-request stream.
    Late,
}

impl Phase {
    /// All phases, in injection order.
    pub const ALL: [Phase; 3] = [Phase::Early, Phase::Mid, Phase::Late];

    fn name(self) -> &'static str {
        match self {
            Phase::Early => "early",
            Phase::Mid => "mid",
            Phase::Late => "late",
        }
    }

    fn threshold(self, total_requests: u64) -> u64 {
        match self {
            Phase::Early => 0,
            Phase::Mid => total_requests / 2,
            Phase::Late => total_requests.saturating_mul(9) / 10,
        }
    }
}

/// Outcome of one campaign cell.
#[derive(Clone, Debug)]
pub struct CellReport {
    /// "fault/phase" label, e.g. `kill-primary/mid`.
    pub name: String,
    /// Requests issued (attempted) by the cell's workers.
    pub issued: u64,
    /// Requests that completed successfully.
    pub ok: u64,
    /// Epoch-fenced takeovers the tier performed.
    pub failovers: u64,
    /// Hedged fetches raced against backups.
    pub hedged: u64,
    /// Writes bounced by the fencing epoch.
    pub fenced_writes: u64,
    /// Active-replica crash/restarts.
    pub crashes: u64,
    /// Quiesced digest matched the serial replay byte-for-byte.
    pub digest_match: bool,
    /// Checksum matched the serial replay (only meaningful — and only
    /// required — when `ok == issued`).
    pub checksum_match: bool,
    /// Harness-level failure, if the cell could not even complete.
    pub error: Option<String>,
    /// Overall verdict for the cell.
    pub pass: bool,
}

impl CellReport {
    /// Availability in `[0, 1]`: completed / issued (1.0 when none issued).
    pub fn availability(&self) -> f64 {
        if self.issued == 0 {
            1.0
        } else {
            self.ok as f64 / self.issued as f64
        }
    }
}

/// Aggregate campaign result.
#[derive(Clone, Debug)]
pub struct CampaignReport {
    /// Per-cell outcomes, in sweep order (healthy cell first).
    pub cells: Vec<CellReport>,
    /// The serial-replay oracle checksum every cell is held to.
    pub serial_checksum: i64,
    /// The serial-replay oracle digest every cell is held to.
    pub serial_digest: BTreeMap<u32, u64>,
    /// True iff every cell passed.
    pub pass: bool,
}

impl CampaignReport {
    /// Number of passing cells.
    pub fn passed(&self) -> usize {
        self.cells.iter().filter(|c| c.pass).count()
    }
}

/// The fault kinds the campaign sweeps (paired with display names).
fn fault_kinds(total_requests: u64) -> Vec<(&'static str, FaultKind)> {
    vec![
        ("kill-primary", FaultKind::KillPrimary),
        ("kill-backup", FaultKind::KillBackup),
        ("crash-restart", FaultKind::CrashRestart),
        (
            "stall",
            FaultKind::Stall {
                hold_requests: (total_requests / 10).max(8),
            },
        ),
        ("kill-during-failover", FaultKind::KillDuringFailover),
    ]
}

/// Per-fault replica-config adjustments: stalls need a health timeout to
/// make progress (and get hedging so reads race the backup meanwhile);
/// kill-during-failover needs the timeout so a client *starts* the
/// takeover while the primary is still a stalled zombie.
fn tune_replica(spec: &mut ServeSpec, kind: FaultKind) {
    match kind {
        FaultKind::Stall { .. } => {
            spec.net.replica.health_timeout = Some(Duration::from_millis(50));
            spec.net.replica.hedge_after = Some(Duration::from_millis(5));
        }
        FaultKind::KillDuringFailover => {
            spec.net.replica.health_timeout = Some(Duration::from_millis(50));
        }
        _ => {}
    }
}

/// Run the full fault-space campaign: one healthy cell plus every fault
/// kind at every phase (16 cells total at the default sweep), all over
/// `spec.workers` concurrent VMs, each compared against one serial
/// replay. Returns `Err` only if the *oracle* replay itself fails; cell
/// failures are recorded in the report (`pass == false`).
pub fn run_failover_campaign(
    module: &Module,
    spec: ServeSpec,
    base_cfg: RuntimeConfig,
    policy: RemotingPolicy,
    k_percent: u32,
) -> Result<CampaignReport, String> {
    let total = spec.tenants * spec.ops_per_tenant;
    // One serial oracle for the whole sweep: the digest is shard-count,
    // replica-count, and fault independent by construction.
    let serial = run_serial_replay(module, spec, base_cfg, policy, k_percent)
        .map_err(|e| format!("campaign oracle replay: {e}"))?;

    let mut cells = Vec::new();

    // Healthy baseline cell: no faults, failures not tolerated.
    cells.push(run_cell(
        "healthy".into(),
        module,
        spec,
        base_cfg,
        policy,
        k_percent,
        &[],
        &serial.digest,
        serial.checksum,
        None,
    ));

    for phase in Phase::ALL {
        for (fname, kind) in fault_kinds(total) {
            let mut cell_spec = spec;
            tune_replica(&mut cell_spec, kind);
            // Rotate the victim shard with the phase so the sweep doesn't
            // only ever exercise shard 0.
            let shard = match phase {
                Phase::Early => 0,
                Phase::Mid => 1 % cell_spec.net.shards.max(1),
                Phase::Late => 2 % cell_spec.net.shards.max(1),
            };
            let script = [ScriptedFault {
                after_requests: phase.threshold(total),
                shard,
                kind,
            }];
            cells.push(run_cell(
                format!("{fname}/{}", phase.name()),
                module,
                cell_spec,
                base_cfg,
                policy,
                k_percent,
                &script,
                &serial.digest,
                serial.checksum,
                Some(kind),
            ));
        }
    }

    let pass = cells.iter().all(|c| c.pass);
    Ok(CampaignReport {
        cells,
        serial_checksum: serial.checksum,
        serial_digest: serial.digest,
        pass,
    })
}

#[allow(clippy::too_many_arguments)]
fn run_cell(
    name: String,
    module: &Module,
    spec: ServeSpec,
    cfg: RuntimeConfig,
    policy: RemotingPolicy,
    k_percent: u32,
    script: &[ScriptedFault],
    oracle_digest: &BTreeMap<u32, u64>,
    oracle_checksum: i64,
    kind: Option<FaultKind>,
) -> CellReport {
    match run_serving_with_faults(module, spec, cfg, policy, k_percent, script) {
        Ok(r) => {
            let digest_match = &r.digest == oracle_digest;
            let checksum_match = r.checksum == oracle_checksum;
            // A fully available cell must also have the right answers; a
            // degraded cell is judged on the digest alone (its checksum
            // is missing the failed requests' contributions).
            let answers_ok = r.ok < r.issued || checksum_match;
            // Machinery evidence: an early-killed primary *must* have
            // failed over via the epoch-fenced path (every later write
            // finds the dead channel), a dead backup must be invisible,
            // and a crash must have been a real crash. Mid/late kills may
            // legitimately go unnoticed — if no request touches the shard
            // after the kill there is nothing to fail over, and the
            // digest oracle (which reads the surviving replica) is the
            // arbiter of correctness.
            let injected_at_start = script.first().is_some_and(|f| f.after_requests == 0);
            let machinery_ok = match kind {
                Some(FaultKind::KillPrimary) => r.net.failovers >= 1 || !injected_at_start,
                Some(FaultKind::KillBackup) => r.net.failovers == 0,
                Some(FaultKind::CrashRestart) => r.net.crashes >= 1,
                _ => true,
            };
            CellReport {
                name,
                issued: r.issued,
                ok: r.ok,
                failovers: r.net.failovers,
                hedged: r.net.hedged_fetches,
                fenced_writes: r.net.fenced_writes,
                crashes: r.net.crashes,
                digest_match,
                checksum_match,
                error: None,
                pass: digest_match && answers_ok && machinery_ok,
            }
        }
        Err(e) => CellReport {
            name,
            issued: 0,
            ok: 0,
            failovers: 0,
            hedged: 0,
            fenced_writes: 0,
            crashes: 0,
            digest_match: false,
            checksum_match: false,
            error: Some(e),
            pass: false,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cards_net::{NetworkModel, ShardedConfig};

    // Reuse the tiny split serving module from the worker tests via a
    // fresh build here (the workloads crate would be a dependency cycle).
    fn serving_module() -> Module {
        use cards_ir::{FunctionBuilder, Type, Value};
        let n = 256i64;
        let mut m = Module::new("mini-serve");
        let g = m.add_global("arr", Type::Ptr, None);
        {
            let mut b = FunctionBuilder::new("setup", vec![], Type::I64);
            let total = b.iconst(n * 8);
            let arr = b.alloc(total, Type::I64);
            let (z, one) = (b.iconst(0), b.iconst(1));
            b.counted_loop(z, b.iconst(n), one, |b, i| {
                let p = b.gep_index(arr, Type::I64, i);
                let v = b.mul(i, b.iconst(11));
                b.store(p, v, Type::I64);
            });
            b.store(Value::Global(g), arr, Type::Ptr);
            b.ret(b.iconst(n));
            m.add_function(b.finish());
        }
        {
            let mut b = FunctionBuilder::new("request", vec![Type::I64, Type::I64], Type::I64);
            let arr = b.load(Value::Global(g), Type::Ptr);
            let (t, i) = (b.arg(0), b.arg(1));
            let x = b.bin(cards_ir::BinOp::Xor, t, i, Type::I64);
            let h = b.intrin(cards_ir::Intrinsic::Hash64, vec![x]);
            let mask = b.iconst(n - 1);
            let k = b.bin(cards_ir::BinOp::And, h, mask, Type::I64);
            let p = b.gep_index(arr, Type::I64, k);
            let v = b.load(p, Type::I64);
            b.ret(v);
            m.add_function(b.finish());
        }
        m
    }

    fn compiled() -> Module {
        let m = serving_module();
        assert!(cards_ir::verify_module(&m).is_empty());
        cards_passes::compile(m, cards_passes::CompileOptions::cards())
            .unwrap()
            .module
    }

    /// A reduced sweep (one phase, every fault kind) must go green: every
    /// cell digest-identical to the serial oracle, kills recording
    /// failovers, backup kills invisible.
    #[test]
    fn reduced_campaign_is_green() {
        let m = compiled();
        let spec = ServeSpec {
            workers: 4,
            tenants: 8,
            ops_per_tenant: 12,
            net: ShardedConfig {
                shards: 3,
                train_len: 4,
                window: 2,
                ..ShardedConfig::default()
            },
            model: NetworkModel::default(),
        };
        let cfg = RuntimeConfig::new(1 << 18, 1 << 18)
            .with_journal(8)
            .with_max_retries(8);
        let rep =
            run_failover_campaign(&m, spec, cfg, RemotingPolicy::AllRemotable, 0).expect("oracle");
        assert_eq!(rep.cells.len(), 16, "healthy + 5 faults x 3 phases");
        for c in &rep.cells {
            assert!(
                c.pass,
                "cell {} failed: digest_match={} checksum_match={} ok={}/{} \
                 failovers={} error={:?}",
                c.name, c.digest_match, c.checksum_match, c.ok, c.issued, c.failovers, c.error
            );
            assert_eq!(c.ok, c.issued, "cell {}: failover must mask faults", c.name);
        }
        assert!(rep.pass);
        assert_eq!(rep.passed(), rep.cells.len());
        let kp_early = rep
            .cells
            .iter()
            .find(|c| c.name == "kill-primary/early")
            .expect("early kill cell");
        assert!(
            kp_early.failovers >= 1,
            "an early primary kill is always noticed: {kp_early:?}"
        );
    }
}
