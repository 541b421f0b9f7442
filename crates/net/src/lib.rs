//! # cards-net
//!
//! Simulated far-memory interconnect for the CaRDS reproduction.
//!
//! The paper runs over a 25 Gb/s ConnectX-4 NIC with DPDK between two
//! CloudLab machines. This crate substitutes a deterministic cycle-cost
//! model ([`NetworkModel`], calibrated against the paper's Table 1) plus a
//! remote memory server reachable through the [`Transport`] trait:
//!
//! - [`SimTransport`] — in-process hash-map server; deterministic, used by
//!   all benchmarks and figure reproductions.
//! - [`FaultyTransport`] — deterministic fault injection for failure tests.
//! - [`ChaosTransport`] — a server driven through a deterministic schedule
//!   of failure phases (loss bursts, latency spikes, partitions, payload
//!   corruption, crash/restart) storing checksummed [`envelope`]s.
//! - [`ShardedServer`]/[`ShardedClient`] — N shard replica sets behind one
//!   transport facade serving many concurrent worker VMs, with fetch
//!   coalescing, batched windowed writeback trains, primary→backup journal
//!   shipping, epoch-fenced failover and hedged reads ([`replica`]). Its
//!   replica threads are the cross-thread server every serving path runs.
//!
//! It also holds what every layer above shares: the one log2
//! [`Histogram`] and the [`json`] writer and reader behind every export.

pub mod chaos;
pub mod envelope;
pub mod fault;
pub mod fleet;
pub mod histogram;
pub mod json;
pub mod model;
pub mod prng;
pub mod replica;
pub mod sharded;
pub mod stats;
pub mod transport;
pub mod wiretap;

pub use chaos::{ChaosPhase, ChaosSchedule, ChaosStats, ChaosTransport, ScheduledPhase};
pub use fault::FaultyTransport;
pub use fleet::{
    FailoverIncident, ServerSpan, ServerSpanKind, ServerSpanLog, ShardEvents, ShardGauges,
    INCIDENT_PHASES,
};
pub use histogram::Histogram;
pub use model::NetworkModel;
pub use prng::SplitMix64;
pub use replica::ReplicaConfig;
pub use sharded::{ShardedClient, ShardedConfig, ShardedServer, ShardedStats, StallGuard};
pub use stats::NetStats;
pub use transport::{FaultEvents, Fetched, NetError, ObjKey, SimTransport, Transport};
pub use wiretap::{TraceContext, WireTap};
