//! Primary/backup replication for the sharded tier: journal shipping,
//! fencing epochs, and the takeover handshake.
//!
//! Each shard of [`crate::sharded::ShardedServer`] is a *replica set*:
//! one active primary plus (by default) one standby backup. The primary
//! applies every write locally and *ships* it to the backup as an
//! epoch-numbered `ShipDelta` before acknowledging the client — the
//! shipped stream is exactly the primary's dirty-writeback journal
//! (trains, removes, durability barriers), so the backup replays the
//! same envelope trains the writeback path batches. Shipping is
//! asynchronous but bounded: the primary stalls once
//! `shipped - applied` exceeds [`ReplicaConfig::max_ship_lag`], and a
//! flush barrier waits for the backup to fully catch up before acking —
//! so an acked flush means both replicas hold the data, and the
//! client-side runtime journal always covers the un-replicated window.
//!
//! ## Fencing epochs
//!
//! Failover must make late writes from a deposed primary harmless. The
//! client that detects a dead/stalled primary bumps the shard's
//! *fencing epoch* **before** the takeover handshake; every write
//! carries the fence its client read at send time, and a replica
//! rejects writes whose fence is stale or that arrive while it is not
//! the active replica. Ships are fenced by sender: a replica applies a
//! `ReplicaRequest::Replicate` only if the sender is still the active
//! replica — a zombie ship from a deposed primary still bumps the
//! applied epoch (so replication barriers cannot wedge) but never
//! touches the store.
//!
//! ## Takeover handshake
//!
//! Failover is client-driven and serialized per shard by a lock:
//! 1. mark the suspect replica dead, take the failover lock, re-check
//!    (another client may have already completed the takeover);
//! 2. bump `fencing_epoch` — writes stamped with the old fence bounce
//!    from every replica from this point on;
//! 3. send `ReplicaRequest::TakeOver` to the standby. FIFO channel
//!    order guarantees every delta the old primary shipped before dying
//!    is applied before the ack — the backup replays its shipped
//!    journal as part of the handshake;
//! 4. flip `active`, bump the shard generation: the runtime's existing
//!    crash-detection path (generation diff → journal replay) re-puts
//!    the client journal, covering the bounded lag window the backup
//!    may still miss.

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::fleet::ShardEvents;
use crate::transport::ObjKey;

/// Replication knobs for the sharded tier.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReplicaConfig {
    /// Replicas per shard (1 = unreplicated, 2 = primary + backup; values
    /// above 2 are clamped — shipping is pairwise, not chained).
    pub replicas: usize,
    /// Max ship epochs the backup may lag before the primary blocks new
    /// writes on it catching up.
    pub max_ship_lag: u64,
    /// Race a hedged read against the backup if the primary has not
    /// answered within this window (None = never hedge). First response
    /// wins; a primary win counts as `hedge_wasted`.
    pub hedge_after: Option<Duration>,
    /// Declare the active replica suspect if a request gets no response
    /// within this window and start failover (None = wait forever; kills
    /// are then detected by channel disconnect only).
    pub health_timeout: Option<Duration>,
}

impl Default for ReplicaConfig {
    fn default() -> Self {
        ReplicaConfig {
            replicas: 2,
            max_ship_lag: 8,
            hedge_after: None,
            health_timeout: None,
        }
    }
}

impl ReplicaConfig {
    /// Effective replica count (clamped to the supported 1..=2 range).
    pub fn replica_count(&self) -> usize {
        self.replicas.clamp(1, 2)
    }
}

/// Per-shard state shared between every replica thread and every client:
/// the fencing epoch, the active-replica pointer, ship progress, and
/// liveness flags.
pub(crate) struct ReplicaShared {
    /// Fencing epoch: bumped by the failover initiator *before* the
    /// takeover handshake. Writes stamped with an older fence bounce.
    pub fencing_epoch: AtomicU64,
    /// Index of the replica currently serving the key range.
    pub active: AtomicU64,
    /// Shard incarnation: bumps on crash *and* on failover, so the
    /// runtime's generation watch triggers journal replay after takeover.
    pub generation: AtomicU64,
    /// Ship epochs the active replica has sent.
    pub shipped: AtomicU64,
    /// Ship epochs the standby has consumed (fenced ships count too, so
    /// barriers cannot wedge on rejected zombies).
    pub applied: AtomicU64,
    /// Liveness per replica: cleared by kills and by clients that
    /// observed a disconnect or health timeout.
    pub alive: Vec<AtomicBool>,
    /// Serializes the takeover handshake across clients.
    pub failover_lock: Mutex<()>,
    /// Interleaving-dependent event tallies for this shard.
    pub events: EventCounters,
}

impl ReplicaShared {
    pub(crate) fn new(replicas: usize) -> Self {
        ReplicaShared {
            fencing_epoch: AtomicU64::new(0),
            active: AtomicU64::new(0),
            generation: AtomicU64::new(0),
            shipped: AtomicU64::new(0),
            applied: AtomicU64::new(0),
            alive: (0..replicas).map(|_| AtomicBool::new(true)).collect(),
            failover_lock: Mutex::new(()),
            events: EventCounters::default(),
        }
    }

    pub(crate) fn active_idx(&self) -> usize {
        self.active.load(Ordering::SeqCst) as usize
    }

    /// True while the backup has consumed every shipped epoch — the gate a
    /// hedged read must pass (plus fence == 0) before trusting the backup.
    pub(crate) fn backup_caught_up(&self) -> bool {
        let shipped = self.shipped.load(Ordering::SeqCst);
        self.applied.load(Ordering::SeqCst) >= shipped
    }
}

/// One unit of the primary's shipped journal.
pub(crate) enum ShipDelta {
    /// A writeback train applied atomically in arrival order.
    Train(Vec<(ObjKey, Vec<u8>)>),
    Remove(ObjKey),
    /// Durability barrier: the backup clears its unacked set too.
    FlushAck,
}

pub(crate) enum ReplicaRequest {
    Fetch(ObjKey, SyncSender<ReplicaResponse>),
    Train {
        objs: Vec<(ObjKey, Vec<u8>)>,
        fence: u64,
        reply: SyncSender<ReplicaResponse>,
    },
    Remove {
        key: ObjKey,
        fence: u64,
        reply: SyncSender<ReplicaResponse>,
    },
    Contains(ObjKey, SyncSender<ReplicaResponse>),
    ResidentBytes(SyncSender<ReplicaResponse>),
    /// Durability barrier: waits for the backup to consume every shipped
    /// epoch before acking, so an acked flush is replicated.
    FlushAck {
        fence: u64,
        reply: SyncSender<ReplicaResponse>,
    },
    Digest(SyncSender<ReplicaResponse>),
    Crash(SyncSender<ReplicaResponse>),
    /// Hold the replica unresponsive until the paired sender drops.
    Stall(Receiver<()>),
    /// Journal shipping from the active replica to its standby.
    Replicate {
        from: usize,
        delta: ShipDelta,
    },
    /// Takeover handshake: by FIFO order every prior ship is applied
    /// before this is acked.
    TakeOver {
        reply: SyncSender<ReplicaResponse>,
    },
    Shutdown,
}

pub(crate) enum ReplicaResponse {
    /// Fetch result, stamped with the answering replica (hedge wins are
    /// attributed by this field).
    Data {
        from: usize,
        bytes: Option<Vec<u8>>,
    },
    Done,
    Bool(bool),
    Bytes(u64),
    Digest(Vec<(ObjKey, u64)>),
    /// Write rejected: stale fence or not the active replica.
    Fenced,
}

/// Cross-client counters (shared, atomic) — lives here so replica threads
/// can bump them; snapshotted into `sharded::ShardedStats`.
#[derive(Default)]
pub(crate) struct SharedCounters {
    pub coalesced_hits: AtomicU64,
    pub wire_fetches: AtomicU64,
    pub trains: AtomicU64,
    pub train_objects: AtomicU64,
    pub crashes: AtomicU64,
    pub dropped_objects: AtomicU64,
    pub failovers: AtomicU64,
    pub failover_attempts: AtomicU64,
    pub fenced_writes: AtomicU64,
    pub fenced_ships: AtomicU64,
    pub hedged_fetches: AtomicU64,
    pub hedge_wasted: AtomicU64,
    pub shipped_epochs: AtomicU64,
}

/// Per-shard event counters (shared, atomic), bumped where replica
/// threads and clients observe each event; snapshotted into
/// [`ShardEvents`].
#[derive(Default)]
pub(crate) struct EventCounters {
    pub journal_ships: AtomicU64,
    pub flush_barriers: AtomicU64,
    pub fence_rejects: AtomicU64,
    pub takeover_drains: AtomicU64,
    pub coalesce_joins: AtomicU64,
    pub hedge_wins: AtomicU64,
    pub hedge_wastes: AtomicU64,
}

impl EventCounters {
    pub(crate) fn snapshot(&self) -> ShardEvents {
        ShardEvents {
            journal_ships: self.journal_ships.load(Ordering::Relaxed),
            flush_barriers: self.flush_barriers.load(Ordering::Relaxed),
            fence_rejects: self.fence_rejects.load(Ordering::Relaxed),
            takeover_drains: self.takeover_drains.load(Ordering::Relaxed),
            coalesce_joins: self.coalesce_joins.load(Ordering::Relaxed),
            hedge_wins: self.hedge_wins.load(Ordering::Relaxed),
            hedge_wastes: self.hedge_wastes.load(Ordering::Relaxed),
        }
    }
}

/// Handles for one shard's replica set: request channels, shared state,
/// and join handles (mutexed so kills work through `&self`).
pub(crate) struct ReplicaSet {
    pub txs: Vec<SyncSender<ReplicaRequest>>,
    pub shared: Arc<ReplicaShared>,
    pub joins: Vec<Mutex<Option<JoinHandle<()>>>>,
}

impl ReplicaSet {
    /// Kill replica `r`: mark it dead (clients stop routing to it), then
    /// shut the thread down. Killing a stalled replica requires releasing
    /// its stall guard first — the join waits for the loop to drain.
    pub(crate) fn kill(&self, r: usize) {
        self.shared.alive[r].store(false, Ordering::SeqCst);
        let _ = self.txs[r].send(ReplicaRequest::Shutdown);
        if let Ok(mut slot) = self.joins[r].lock() {
            if let Some(h) = slot.take() {
                let _ = h.join();
            }
        }
    }
}

pub(crate) fn replica_loop(
    my_idx: usize,
    rx: Receiver<ReplicaRequest>,
    mut peer: Option<(usize, SyncSender<ReplicaRequest>)>,
    shared: Arc<ReplicaShared>,
    counters: Arc<SharedCounters>,
    cfg: ReplicaConfig,
) {
    let mut store: HashMap<ObjKey, Vec<u8>> = HashMap::new();
    let mut resident = 0u64;
    // Keys put since the last durability barrier (BTreeSet: deterministic
    // drop order on crash, mirroring ChaosTransport).
    let mut unacked: BTreeSet<ObjKey> = BTreeSet::new();

    // Ship one journal delta to the standby, bounded by max_ship_lag.
    // Only the active replica ships; a send failure retires the peer and
    // closes the epoch gap so barriers stay consistent.
    let ship = |peer: &mut Option<(usize, SyncSender<ReplicaRequest>)>, delta: ShipDelta| {
        let Some((peer_idx, tx)) = peer.as_ref() else {
            return;
        };
        if shared.active.load(Ordering::SeqCst) as usize != my_idx {
            return;
        }
        let peer_idx = *peer_idx;
        if !shared.alive[peer_idx].load(Ordering::SeqCst) {
            // The standby was killed or demoted-suspect: stop shipping so
            // queues cannot wedge behind a corpse.
            *peer = None;
            return;
        }
        shared.shipped.fetch_add(1, Ordering::SeqCst);
        if tx
            .send(ReplicaRequest::Replicate {
                from: my_idx,
                delta,
            })
            .is_err()
        {
            shared.applied.fetch_add(1, Ordering::SeqCst);
            *peer = None;
            return;
        }
        counters.shipped_epochs.fetch_add(1, Ordering::Relaxed);
        shared.events.journal_ships.fetch_add(1, Ordering::Relaxed);
        while shared.shipped.load(Ordering::SeqCst) - shared.applied.load(Ordering::SeqCst)
            > cfg.max_ship_lag
        {
            if !shared.alive[peer_idx].load(Ordering::SeqCst) {
                break;
            }
            std::thread::yield_now();
        }
    };

    let fenced = |fence: u64| -> bool {
        shared.active.load(Ordering::SeqCst) as usize != my_idx
            || fence < shared.fencing_epoch.load(Ordering::SeqCst)
    };

    let apply_train = |store: &mut HashMap<ObjKey, Vec<u8>>,
                       resident: &mut u64,
                       unacked: &mut BTreeSet<ObjKey>,
                       objs: &[(ObjKey, Vec<u8>)]| {
        for (k, data) in objs {
            *resident += data.len() as u64;
            if let Some(old) = store.insert(*k, data.clone()) {
                *resident -= old.len() as u64;
            }
            unacked.insert(*k);
        }
    };

    while let Ok(req) = rx.recv() {
        match req {
            ReplicaRequest::Fetch(k, reply) => {
                let _ = reply.send(ReplicaResponse::Data {
                    from: my_idx,
                    bytes: store.get(&k).cloned(),
                });
            }
            ReplicaRequest::Train { objs, fence, reply } => {
                if fenced(fence) {
                    counters.fenced_writes.fetch_add(1, Ordering::Relaxed);
                    shared.events.fence_rejects.fetch_add(1, Ordering::Relaxed);
                    let _ = reply.send(ReplicaResponse::Fenced);
                    continue;
                }
                counters.trains.fetch_add(1, Ordering::Relaxed);
                counters
                    .train_objects
                    .fetch_add(objs.len() as u64, Ordering::Relaxed);
                apply_train(&mut store, &mut resident, &mut unacked, &objs);
                ship(&mut peer, ShipDelta::Train(objs));
                let _ = reply.send(ReplicaResponse::Done);
            }
            ReplicaRequest::Remove { key, fence, reply } => {
                if fenced(fence) {
                    counters.fenced_writes.fetch_add(1, Ordering::Relaxed);
                    shared.events.fence_rejects.fetch_add(1, Ordering::Relaxed);
                    let _ = reply.send(ReplicaResponse::Fenced);
                    continue;
                }
                if let Some(old) = store.remove(&key) {
                    resident -= old.len() as u64;
                }
                unacked.remove(&key);
                ship(&mut peer, ShipDelta::Remove(key));
                let _ = reply.send(ReplicaResponse::Done);
            }
            ReplicaRequest::Contains(k, reply) => {
                let _ = reply.send(ReplicaResponse::Bool(store.contains_key(&k)));
            }
            ReplicaRequest::ResidentBytes(reply) => {
                let _ = reply.send(ReplicaResponse::Bytes(resident));
            }
            ReplicaRequest::FlushAck { fence, reply } => {
                if fenced(fence) {
                    counters.fenced_writes.fetch_add(1, Ordering::Relaxed);
                    shared.events.fence_rejects.fetch_add(1, Ordering::Relaxed);
                    let _ = reply.send(ReplicaResponse::Fenced);
                    continue;
                }
                unacked.clear();
                ship(&mut peer, ShipDelta::FlushAck);
                // Replication barrier: an acked flush means the standby has
                // consumed every shipped epoch (or is dead). The runtime
                // clears its client journal on flush, so the journal must
                // only ever need to cover un-replicated writes.
                if let Some((peer_idx, _)) = peer.as_ref() {
                    let peer_idx = *peer_idx;
                    while !shared.backup_caught_up() {
                        if !shared.alive[peer_idx].load(Ordering::SeqCst) {
                            break;
                        }
                        std::thread::yield_now();
                    }
                }
                shared.events.flush_barriers.fetch_add(1, Ordering::Relaxed);
                let _ = reply.send(ReplicaResponse::Done);
            }
            ReplicaRequest::Digest(reply) => {
                let v: Vec<(ObjKey, u64)> = store
                    .iter()
                    .map(|(k, b)| (*k, crate::sharded::fnv64(b)))
                    .collect();
                let _ = reply.send(ReplicaResponse::Digest(v));
            }
            ReplicaRequest::Crash(reply) => {
                counters.crashes.fetch_add(1, Ordering::Relaxed);
                shared.generation.fetch_add(1, Ordering::SeqCst);
                for k in std::mem::take(&mut unacked) {
                    if let Some(old) = store.remove(&k) {
                        resident -= old.len() as u64;
                        counters.dropped_objects.fetch_add(1, Ordering::Relaxed);
                    }
                }
                let _ = reply.send(ReplicaResponse::Done);
            }
            ReplicaRequest::Stall(gate) => {
                // Blocks until every sender for the gate is dropped.
                let _ = gate.recv();
            }
            ReplicaRequest::Replicate { from, delta } => {
                // Sender fencing: apply only if the shipper is still the
                // active replica; a zombie ship from a deposed primary is
                // discarded but still bumps `applied` so barriers and the
                // hedge gate stay consistent.
                if shared.active.load(Ordering::SeqCst) as usize == from {
                    match delta {
                        ShipDelta::Train(objs) => {
                            apply_train(&mut store, &mut resident, &mut unacked, &objs);
                        }
                        ShipDelta::Remove(key) => {
                            if let Some(old) = store.remove(&key) {
                                resident -= old.len() as u64;
                            }
                            unacked.remove(&key);
                        }
                        ShipDelta::FlushAck => unacked.clear(),
                    }
                } else {
                    counters.fenced_ships.fetch_add(1, Ordering::Relaxed);
                }
                shared.applied.fetch_add(1, Ordering::SeqCst);
            }
            ReplicaRequest::TakeOver { reply } => {
                // FIFO order means every ship the old primary enqueued
                // before dying has already been applied above — the shipped
                // journal is replayed by the time this ack leaves.
                shared
                    .events
                    .takeover_drains
                    .fetch_add(1, Ordering::Relaxed);
                let _ = reply.send(ReplicaResponse::Done);
            }
            ReplicaRequest::Shutdown => break,
        }
    }
}
