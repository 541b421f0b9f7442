//! Fleet observability plane: server-side span log, per-shard gauges,
//! failover incidents, and per-shard replica-lifecycle event counts.
//!
//! The serving tier of [`crate::sharded`] charges every client a fully
//! deterministic modeled cost per operation (see the determinism contract
//! in that module's docs). This module *decomposes* those charges into
//! server-side spans — queue wait, apply, wire transfer, writeback-train
//! flush, durability barrier — keyed by the [`TraceContext`] in force when
//! the client issued the operation, so a per-worker `Tracer` export can be
//! joined with the tier's own accounting into end-to-end timelines.
//!
//! ## Determinism contract
//!
//! Two kinds of truth live here, mirroring DESIGN.md §13:
//!
//! - [`ServerSpanLog`] (one per client) is **deterministic**: every span
//!   is an exact decomposition of the modeled charge the client assessed
//!   for its own operation, independent of which thread led a coalesced
//!   fetch or which replica won a hedge race. The log maintains the
//!   cross-sum invariant `remote_cycles == span cycles + residue`
//!   *exactly*, where `residue` is the modeled link latency (and
//!   read-your-writes buffer hits) that no server-side phase accounts
//!   for. On fault-free runs the log is byte-identical across replays.
//! - [`ShardEvents`] (counted by clients and replica threads alike) are
//!   **interleaving-dependent**: coalesce joins, hedge wins/wastes,
//!   journal ships, flush barriers, fence rejects and TakeOver drains as
//!   they actually happened, cumulative since the tier spawned. They are
//!   only ever exported under the strippable `"counters"` region of
//!   `cards-fleet-v2` documents.
//!
//! [`FailoverIncident`]s sit in between: they are recorded client-side on
//! the modeled clock and are empty on fault-free runs (so byte-identity
//! holds exactly where it is asserted), while under fault injection they
//! reconstruct the takeover timeline demote → fence bump → handshake →
//! drain → resume.

use std::collections::BTreeMap;

use crate::histogram::Histogram;
use crate::wiretap::TraceContext;

/// Which server-side phase a [`ServerSpan`] covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum ServerSpanKind {
    /// Time spent queued at the shard. The cost model charges no queue
    /// wait, so these spans carry zero cycles but record the client's
    /// outstanding-train depth at issue time (the queue-depth gauge).
    Queue,
    /// Per-message CPU on the serving replica (demarshalling + store op).
    Apply,
    /// Wire serialization of the payload (bytes / bandwidth).
    Transfer,
    /// Writeback-train departure: one message CPU for the whole batch;
    /// `depth` is the train's member count.
    TrainFlush,
    /// Durability/replication barrier CPU at flush.
    Barrier,
}

impl ServerSpanKind {
    /// Every kind, in export order.
    pub const ALL: [ServerSpanKind; 5] = [
        ServerSpanKind::Queue,
        ServerSpanKind::Apply,
        ServerSpanKind::Transfer,
        ServerSpanKind::TrainFlush,
        ServerSpanKind::Barrier,
    ];

    /// Stable snake_case name for exports.
    pub fn name(&self) -> &'static str {
        match self {
            ServerSpanKind::Queue => "queue",
            ServerSpanKind::Apply => "apply",
            ServerSpanKind::Transfer => "transfer",
            ServerSpanKind::TrainFlush => "train_flush",
            ServerSpanKind::Barrier => "barrier",
        }
    }
}

/// One server-side span: a deterministic slice of the modeled charge one
/// client operation carried, keyed by the causal context that issued it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServerSpan {
    /// Causal context in force when the client issued the operation
    /// (joins against the worker's `Tracer` trees on trace/span id).
    pub ctx: TraceContext,
    /// Shard that served (or buffered) the operation.
    pub shard: u32,
    /// Which server-side phase.
    pub kind: ServerSpanKind,
    /// Modeled cycles of this phase.
    pub cycles: u64,
    /// Payload bytes involved (transfers and train flushes).
    pub bytes: u64,
    /// Phase-specific depth: outstanding trains for `Queue`, member count
    /// for `TrainFlush`, 0 otherwise.
    pub depth: u64,
}

/// Deterministic per-shard gauges kept by each client's span log.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardGauges {
    /// Operations this client charged against the shard (wire fetches,
    /// buffered puts, removes, train departures).
    pub ops: u64,
    /// Server-side span cycles attributed to the shard.
    pub server_cycles: u64,
    /// Outstanding-train (request window) depth observed per operation.
    pub queue_depth: Histogram,
    /// Writeback-train sizes at departure.
    pub train_size: Histogram,
}

impl ShardGauges {
    /// Merge another shard's gauges (cross-worker aggregation).
    pub fn merge(&mut self, other: &ShardGauges) {
        self.ops += other.ops;
        self.server_cycles += other.server_cycles;
        self.queue_depth.merge(&other.queue_depth);
        self.train_size.merge(&other.train_size);
    }
}

/// One reconstructed epoch-fenced takeover, recorded by the client that
/// performed it on its own modeled clock. The phase sequence is fixed by
/// the handshake protocol (DESIGN.md §14): demote (suspect marked dead) →
/// fence bump → handshake (TakeOver sent) → drain (FIFO journal replayed
/// by ack time) → resume (active flipped, generation bumped).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FailoverIncident {
    /// Shard that failed over.
    pub shard: u32,
    /// Fencing epoch after the bump (old writes below this bounce).
    pub fence: u64,
    /// Replica demoted.
    pub from: u32,
    /// Replica promoted.
    pub to: u32,
    /// Client modeled clock (its `NetStats::cycles`) at detection.
    pub at_cycles: u64,
    /// Trace id in force when the failover ran (0 = untraced).
    pub trace: u64,
}

/// The canonical phase names of a takeover incident, in protocol order.
pub const INCIDENT_PHASES: [&str; 5] = ["demote", "fence_bump", "handshake", "drain", "resume"];

/// Bounded, deterministic (per client) server span log. At capacity the
/// overflowing span's cycles fold into `residue` — the cross-sum
/// invariant survives truncation exactly.
#[derive(Clone, Debug, Default)]
pub struct ServerSpanLog {
    spans: Vec<ServerSpan>,
    capacity: usize,
    dropped: u64,
    remote_cycles: u64,
    residue: u64,
    shards: BTreeMap<u32, ShardGauges>,
}

/// Default server-span-log capacity (spans retained per client).
pub const DEFAULT_SPAN_LOG_CAPACITY: usize = 1 << 16;

impl ServerSpanLog {
    /// Create a log retaining at most `capacity` spans.
    pub fn new(capacity: usize) -> Self {
        ServerSpanLog {
            capacity,
            ..ServerSpanLog::default()
        }
    }

    /// Account one modeled charge the client assessed (mirror of every
    /// `NetStats::cycles` increment).
    pub fn charge(&mut self, cycles: u64) {
        self.remote_cycles += cycles;
    }

    /// Account modeled cycles no server-side phase covers (link latency,
    /// read-your-writes buffer hits).
    pub fn add_residue(&mut self, cycles: u64) {
        self.residue += cycles;
    }

    /// Append one span; at capacity its cycles fold into the residue so
    /// the cross-sum stays exact.
    pub fn record(&mut self, span: ServerSpan) {
        if self.spans.len() >= self.capacity {
            self.dropped += 1;
            self.residue += span.cycles;
            return;
        }
        self.spans.push(span);
    }

    /// Deterministic per-shard gauges (created on first touch).
    pub fn gauges(&mut self, shard: u32) -> &mut ShardGauges {
        self.shards.entry(shard).or_default()
    }

    /// Retained spans, in issue order.
    pub fn spans(&self) -> &[ServerSpan] {
        &self.spans
    }

    /// Spans dropped at capacity (their cycles live in the residue).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total modeled cycles charged to this client by the tier.
    pub fn remote_cycles(&self) -> u64 {
        self.remote_cycles
    }

    /// Modeled cycles not attributed to any server-side span.
    pub fn residue(&self) -> u64 {
        self.residue
    }

    /// Per-shard gauge map.
    pub fn shards(&self) -> &BTreeMap<u32, ShardGauges> {
        &self.shards
    }

    /// Sum of retained span cycles.
    pub fn span_cycles(&self) -> u64 {
        self.spans.iter().map(|s| s.cycles).sum()
    }

    /// The cross-sum invariant: every charged cycle is either a server
    /// span or residue.
    pub fn check(&self) -> Result<(), String> {
        let sum = self.span_cycles() + self.residue;
        if sum != self.remote_cycles {
            return Err(format!(
                "server span log cross-sum: spans+residue {} != remote cycles {}",
                sum, self.remote_cycles
            ));
        }
        Ok(())
    }
}

/// Per-shard event tallies since the tier spawned (interleaving-dependent).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardEvents {
    /// Journal epochs shipped primary → backup.
    pub journal_ships: u64,
    /// Flush barriers completed.
    pub flush_barriers: u64,
    /// Writes bounced off the fencing epoch.
    pub fence_rejects: u64,
    /// TakeOver handshakes drained on a standby.
    pub takeover_drains: u64,
    /// Fetches that piggybacked on another client's transfer.
    pub coalesce_joins: u64,
    /// Hedged reads the backup won.
    pub hedge_wins: u64,
    /// Hedged reads the primary won anyway.
    pub hedge_wastes: u64,
}

impl ShardEvents {
    /// Events of every kind.
    pub fn total(&self) -> u64 {
        self.journal_ships
            + self.flush_barriers
            + self.fence_rejects
            + self.takeover_drains
            + self.coalesce_joins
            + self.hedge_wins
            + self.hedge_wastes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_log_cross_sum_holds_through_truncation() {
        let mut log = ServerSpanLog::new(2);
        for i in 0..5u64 {
            log.charge(10);
            log.record(ServerSpan {
                ctx: TraceContext { trace: i, span: 0 },
                shard: 0,
                kind: ServerSpanKind::Apply,
                cycles: 7,
                bytes: 0,
                depth: 0,
            });
            log.add_residue(3);
        }
        assert_eq!(log.spans().len(), 2);
        assert_eq!(log.dropped(), 3);
        assert_eq!(log.remote_cycles(), 50);
        // 2 retained spans x 7 + residue (5x3 + 3 folded spans x 7).
        assert_eq!(log.span_cycles(), 14);
        assert_eq!(log.residue(), 15 + 21);
        log.check().unwrap();
    }

    #[test]
    fn span_log_detects_unbalanced_charge() {
        let mut log = ServerSpanLog::new(16);
        log.charge(100);
        log.add_residue(10);
        assert!(log.check().is_err());
        log.add_residue(90);
        log.check().unwrap();
    }

    #[test]
    fn depth_hist_buckets_and_quantiles() {
        let mut g = ShardGauges::default();
        for v in [0u64, 1, 1, 2, 3, 4, 8, 100] {
            g.queue_depth.record(v);
        }
        let h = &g.queue_depth;
        assert_eq!(h.count(), 8);
        let b = h.nonzero_buckets();
        assert_eq!(b[0], (0, 1), "zero lands in bucket 0");
        assert_eq!(b[1], (1, 2), "ones in bucket 1");
        assert_eq!(h.p50(), 2, "4th of 8 values sits in [2,4)");
        assert_eq!(h.p99(), 64, "the 100 sits in [64,128)");
        assert_eq!(h.percentile(1.0), 100, "max rank is the exact max");
        assert_eq!(ShardGauges::default().queue_depth.p50(), 0);
    }

    #[test]
    fn gauges_merge_across_workers() {
        let mut a = ShardGauges {
            ops: 3,
            server_cycles: 10,
            ..ShardGauges::default()
        };
        a.queue_depth.record(2);
        let mut b = ShardGauges {
            ops: 5,
            server_cycles: 7,
            ..ShardGauges::default()
        };
        b.queue_depth.record(2);
        a.merge(&b);
        assert_eq!(a.ops, 8);
        assert_eq!(a.server_cycles, 17);
        assert_eq!(a.queue_depth.count(), 2);
    }
}
