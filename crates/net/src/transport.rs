//! Transport abstraction between the CaRDS runtime and the remote memory
//! server, plus the in-process simulated implementation.

use std::collections::HashMap;
use std::fmt;

use crate::model::NetworkModel;
use crate::stats::NetStats;
use crate::wiretap::{TraceContext, WireTap};

/// Key identifying one far-memory object: (data-structure id, object index).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjKey {
    /// Data-structure id assigned by the runtime.
    pub ds: u32,
    /// Object index within the DS's virtual range.
    pub index: u64,
}

/// Transport-level failures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NetError {
    /// The server has no bytes for this key (never evicted there).
    NotFound(ObjKey),
    /// Transient fault (injected or simulated loss); the caller may retry.
    Transient,
    /// The operation timed out (partition or server-down window); the caller
    /// may retry — the link itself is still up.
    Timeout,
    /// The fetched envelope failed checksum/shape verification (torn read or
    /// in-flight bit flip); the caller may retry.
    Corrupt,
    /// The remote side is gone (channel closed). Terminal: retrying cannot
    /// help.
    Disconnected,
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::NotFound(k) => {
                write!(f, "object ds{}:{} not on remote server", k.ds, k.index)
            }
            NetError::Transient => write!(f, "transient network fault"),
            NetError::Timeout => write!(f, "remote operation timed out"),
            NetError::Corrupt => write!(f, "fetched object failed verification"),
            NetError::Disconnected => write!(f, "remote server disconnected"),
        }
    }
}

impl std::error::Error for NetError {}

/// Fault-handling events a transport accumulated since the last drain:
/// failovers it initiated, hedges it sent, fences it bounced off. The
/// runtime drains these after each operation to attribute them to spans
/// (`SpanKind::Failover`/`SpanKind::Hedge` in `cards-runtime`) and
/// stats. Counts are per-client (this transport's own actions), not the
/// cluster-wide totals.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultEvents {
    /// Takeovers this client performed (backup promoted to primary).
    pub failovers: u64,
    /// Hedged fetches this client sent to a backup.
    pub hedged: u64,
    /// Hedges where the primary answered first anyway.
    pub hedge_wasted: u64,
    /// Writes bounced by a fencing epoch and retried.
    pub fenced: u64,
    /// Train departures that found the request window already over its
    /// configured bound (back-pressure stalls on an outstanding train).
    pub queue_buildup: u64,
    /// Train departures that observed the primary→backup journal lag over
    /// the configured `max_ship_lag` (replication falling behind).
    pub lag_breach: u64,
}

impl FaultEvents {
    /// True when nothing happened since the last drain.
    pub fn is_empty(&self) -> bool {
        *self == FaultEvents::default()
    }

    /// Accumulate another batch of events.
    pub fn merge(&mut self, other: &FaultEvents) {
        self.failovers += other.failovers;
        self.hedged += other.hedged;
        self.hedge_wasted += other.hedge_wasted;
        self.fenced += other.fenced;
        self.queue_buildup += other.queue_buildup;
        self.lag_breach += other.lag_breach;
    }
}

/// Result of a successful fetch: payload plus modeled cycle cost.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fetched {
    /// Object bytes (length = object size registered at eviction time).
    pub bytes: Vec<u8>,
    /// Modeled cycles the fetch cost.
    pub cycles: u64,
}

/// A link to the remote memory server.
///
/// All methods are synchronous; costs are *returned* as modeled cycles so
/// the single caller (the runtime) can account them on its own clock.
pub trait Transport {
    /// Fetch the object stored under `key`.
    fn fetch(&mut self, key: ObjKey) -> Result<Fetched, NetError>;

    /// Fetch as part of a batch whose link latency is overlapped with an
    /// in-flight demand fetch: only wire serialization + marshalling cycles
    /// are charged. Used by prefetchers.
    fn fetch_batched(&mut self, key: ObjKey) -> Result<Fetched, NetError> {
        self.fetch(key)
    }

    /// Cycles wasted by one failed round trip (used to price retries after
    /// transient faults).
    fn rtt_cost(&self) -> u64;

    /// Store (evict) `data` under `key`, overwriting any prior contents.
    /// Returns modeled cycles.
    fn put(&mut self, key: ObjKey, data: &[u8]) -> Result<u64, NetError>;

    /// Drop the object under `key` (freed by the application). Returns
    /// modeled cycles.
    fn remove(&mut self, key: ObjKey) -> Result<u64, NetError>;

    /// Acknowledge all puts since the last flush, making them durable across
    /// a server crash/restart. Transports without crash semantics acknowledge
    /// implicitly and report zero cost. Returns modeled cycles.
    fn flush(&mut self) -> Result<u64, NetError> {
        Ok(0)
    }

    /// Server incarnation number. Bumps on every crash/restart; transports
    /// that never crash stay at 0. The runtime compares this across
    /// operations to detect restarts and trigger journal replay.
    fn generation(&self) -> u64 {
        0
    }

    /// Whether the server currently holds `key`.
    fn contains(&self, key: ObjKey) -> bool;

    /// Accumulated traffic statistics.
    fn stats(&self) -> NetStats;

    /// Total bytes currently resident on the remote server.
    fn remote_bytes(&self) -> u64;

    /// Drain fault-handling events (failovers, hedges, fence bounces)
    /// accumulated since the last call. Transports without replication
    /// report nothing.
    fn take_fault_events(&mut self) -> FaultEvents {
        FaultEvents::default()
    }

    /// Set the causal context stamped on subsequent operations (envelopes
    /// and server spans). Transports without either ignore it.
    fn set_trace_context(&mut self, _ctx: TraceContext) {}

    /// The causal context currently in force.
    fn trace_context(&self) -> TraceContext {
        TraceContext::NONE
    }

    /// Always `None`: no transport keeps a wire tap (see [`WireTap`]).
    fn wire_tap(&self) -> Option<&WireTap> {
        None
    }
}

/// A boxed transport is a transport, so a caller can pick one at run time
/// (the differential matrix does, per cell) and still drive a single VM type.
impl<T: Transport + ?Sized> Transport for Box<T> {
    fn fetch(&mut self, key: ObjKey) -> Result<Fetched, NetError> {
        (**self).fetch(key)
    }

    fn fetch_batched(&mut self, key: ObjKey) -> Result<Fetched, NetError> {
        (**self).fetch_batched(key)
    }

    fn rtt_cost(&self) -> u64 {
        (**self).rtt_cost()
    }

    fn put(&mut self, key: ObjKey, data: &[u8]) -> Result<u64, NetError> {
        (**self).put(key, data)
    }

    fn remove(&mut self, key: ObjKey) -> Result<u64, NetError> {
        (**self).remove(key)
    }

    fn flush(&mut self) -> Result<u64, NetError> {
        (**self).flush()
    }

    fn generation(&self) -> u64 {
        (**self).generation()
    }

    fn contains(&self, key: ObjKey) -> bool {
        (**self).contains(key)
    }

    fn stats(&self) -> NetStats {
        (**self).stats()
    }

    fn remote_bytes(&self) -> u64 {
        (**self).remote_bytes()
    }

    fn take_fault_events(&mut self) -> FaultEvents {
        (**self).take_fault_events()
    }

    fn set_trace_context(&mut self, ctx: TraceContext) {
        (**self).set_trace_context(ctx)
    }

    fn trace_context(&self) -> TraceContext {
        (**self).trace_context()
    }
}

/// In-process simulated transport: a hash map "server" plus the cycle model.
/// Deterministic and allocation-conscious (payloads move, not copy, on put).
pub struct SimTransport {
    model: NetworkModel,
    store: HashMap<ObjKey, Vec<u8>>,
    stats: NetStats,
    resident_bytes: u64,
}

impl SimTransport {
    /// Create a transport with the given cost model.
    pub fn new(model: NetworkModel) -> Self {
        SimTransport {
            model,
            store: HashMap::new(),
            stats: NetStats::default(),
            resident_bytes: 0,
        }
    }

    /// The cost model in use.
    pub fn model(&self) -> &NetworkModel {
        &self.model
    }

    /// Number of objects resident on the server.
    pub fn object_count(&self) -> usize {
        self.store.len()
    }
}

impl Default for SimTransport {
    fn default() -> Self {
        Self::new(NetworkModel::default())
    }
}

impl SimTransport {
    fn fetch_inner(&mut self, key: ObjKey, batched: bool) -> Result<Fetched, NetError> {
        let data = self.store.get(&key).ok_or(NetError::NotFound(key))?;
        let cycles = if batched {
            self.model.per_msg_cpu + self.model.wire_cycles(data.len() as u64)
        } else {
            self.model.fetch_cost(data.len() as u64)
        };
        self.stats.fetches += 1;
        self.stats.bytes_fetched += data.len() as u64;
        self.stats.cycles += cycles;
        Ok(Fetched {
            bytes: data.clone(),
            cycles,
        })
    }
}

impl Transport for SimTransport {
    fn fetch(&mut self, key: ObjKey) -> Result<Fetched, NetError> {
        self.fetch_inner(key, false)
    }

    fn fetch_batched(&mut self, key: ObjKey) -> Result<Fetched, NetError> {
        self.fetch_inner(key, true)
    }

    fn rtt_cost(&self) -> u64 {
        self.model.base_latency + self.model.per_msg_cpu
    }

    fn put(&mut self, key: ObjKey, data: &[u8]) -> Result<u64, NetError> {
        let cycles = self.model.writeback_cost(data.len() as u64);
        self.stats.writebacks += 1;
        self.stats.bytes_written += data.len() as u64;
        self.stats.cycles += cycles;
        if let Some(old) = self.store.insert(key, data.to_vec()) {
            self.resident_bytes -= old.len() as u64;
        }
        self.resident_bytes += data.len() as u64;
        Ok(cycles)
    }

    fn remove(&mut self, key: ObjKey) -> Result<u64, NetError> {
        if let Some(old) = self.store.remove(&key) {
            self.resident_bytes -= old.len() as u64;
        }
        // Frees piggyback on other traffic; charge one message's CPU cost.
        self.stats.cycles += self.model.per_msg_cpu;
        Ok(self.model.per_msg_cpu)
    }

    fn contains(&self, key: ObjKey) -> bool {
        self.store.contains_key(&key)
    }

    fn stats(&self) -> NetStats {
        self.stats
    }

    fn remote_bytes(&self) -> u64 {
        self.resident_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(ds: u32, index: u64) -> ObjKey {
        ObjKey { ds, index }
    }

    #[test]
    fn put_then_fetch_round_trips() {
        let mut t = SimTransport::default();
        let data = vec![7u8; 4096];
        t.put(key(1, 0), &data).unwrap();
        let f = t.fetch(key(1, 0)).unwrap();
        assert_eq!(f.bytes, data);
        assert!(f.cycles > 40_000);
    }

    #[test]
    fn fetch_missing_is_not_found() {
        let mut t = SimTransport::default();
        assert_eq!(t.fetch(key(2, 9)), Err(NetError::NotFound(key(2, 9))));
    }

    #[test]
    fn stats_accumulate() {
        let mut t = SimTransport::default();
        t.put(key(0, 0), &[1, 2, 3]).unwrap();
        t.put(key(0, 1), &[4; 100]).unwrap();
        t.fetch(key(0, 0)).unwrap();
        let s = t.stats();
        assert_eq!(s.writebacks, 2);
        assert_eq!(s.fetches, 1);
        assert_eq!(s.bytes_written, 103);
        assert_eq!(s.bytes_fetched, 3);
        assert!(s.cycles > 0);
    }

    #[test]
    fn resident_bytes_tracked_through_overwrite_and_remove() {
        let mut t = SimTransport::default();
        t.put(key(0, 0), &[0u8; 128]).unwrap();
        assert_eq!(t.remote_bytes(), 128);
        t.put(key(0, 0), &[0u8; 64]).unwrap(); // overwrite shrinks
        assert_eq!(t.remote_bytes(), 64);
        t.put(key(0, 1), &[0u8; 32]).unwrap();
        assert_eq!(t.remote_bytes(), 96);
        t.remove(key(0, 0)).unwrap();
        assert_eq!(t.remote_bytes(), 32);
        assert_eq!(t.object_count(), 1);
    }

    #[test]
    fn remove_missing_is_ok() {
        let mut t = SimTransport::default();
        assert!(t.remove(key(9, 9)).is_ok());
    }

    #[test]
    fn remove_cost_lands_in_stats_cycles() {
        let mut t = SimTransport::default();
        t.put(key(0, 0), &[1u8; 64]).unwrap();
        let before = t.stats().cycles;
        let cost = t.remove(key(0, 0)).unwrap();
        assert!(cost > 0);
        assert_eq!(t.stats().cycles, before + cost);
    }

    #[test]
    fn default_flush_and_generation_are_inert() {
        let mut t = SimTransport::default();
        assert_eq!(t.flush(), Ok(0));
        assert_eq!(t.generation(), 0);
    }
}
