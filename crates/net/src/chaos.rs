//! Phase-scripted chaos transport: a memory server driven through a
//! deterministic schedule of failure regimes.
//!
//! Where [`crate::fault::FaultyTransport`] injects i.i.d. Bernoulli faults,
//! `ChaosTransport` scripts *correlated* pathologies — the conditions a
//! production far-memory data plane actually dies on:
//!
//! - **Healthy** — normal modeled costs.
//! - **LossyBurst** — a window where each op fails `Transient` with high
//!   probability (correlated loss, not background noise).
//! - **LatencySpike** — ops succeed but cost a multiple of their modeled
//!   cycles (incast / congestion).
//! - **Partition** — every op times out ([`NetError::Timeout`]).
//! - **Corruption** — fetched payloads suffer deterministic in-flight bit
//!   flips; the envelope checksum turns them into [`NetError::Corrupt`]
//!   instead of silent garbage.
//! - **CrashRestart** — the server is down (ops time out) and, at the
//!   moment of the crash, every object **not yet acknowledged** by a
//!   [`Transport::flush`] is dropped; the server restarts with a bumped
//!   generation so the runtime can detect the incarnation change and
//!   replay its writeback journal.
//!
//! Phases advance on an *operation counter*, not wall time, so a schedule
//! interleaves identically with any deterministic workload: same seed, same
//! run, byte for byte. Each retry the runtime issues is itself one op, which
//! is what lets a bounded retry budget ride out a bounded partition window.
//!
//! Objects are stored as checksummed, generation-tagged envelopes
//! ([`crate::envelope`]); the client side of the transport verifies them on
//! every fetch.

use std::collections::{BTreeSet, HashMap};

use crate::envelope;
use crate::model::NetworkModel;
use crate::prng::SplitMix64;
use crate::stats::NetStats;
use crate::transport::{Fetched, NetError, ObjKey, Transport};
use crate::wiretap::TraceContext;

/// One failure regime.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ChaosPhase {
    /// Normal operation.
    Healthy,
    /// Each op fails `Transient` with probability `rate`.
    LossyBurst {
        /// Loss probability in `[0, 1]`.
        rate: f64,
    },
    /// Ops succeed but cycle costs are multiplied by `mult`.
    LatencySpike {
        /// Cost multiplier (≥ 1).
        mult: u64,
    },
    /// Every op fails with [`NetError::Timeout`].
    Partition,
    /// Each fetch suffers an in-flight bit flip with probability `rate`,
    /// surfacing as [`NetError::Corrupt`] via the envelope checksum.
    Corruption {
        /// Corruption probability in `[0, 1]`.
        rate: f64,
    },
    /// Server down (ops time out); unacknowledged objects are dropped at
    /// crash time and the generation is bumped for the restart.
    CrashRestart,
}

impl ChaosPhase {
    /// Stable snake_case name for reports and telemetry.
    pub fn name(&self) -> &'static str {
        match self {
            ChaosPhase::Healthy => "healthy",
            ChaosPhase::LossyBurst { .. } => "lossy_burst",
            ChaosPhase::LatencySpike { .. } => "latency_spike",
            ChaosPhase::Partition => "partition",
            ChaosPhase::Corruption { .. } => "corruption",
            ChaosPhase::CrashRestart => "crash_restart",
        }
    }
}

/// One schedule entry: a phase held for `ops` transport operations.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScheduledPhase {
    /// The failure regime.
    pub phase: ChaosPhase,
    /// How many transport ops the phase lasts.
    pub ops: u64,
}

/// A deterministic script of failure phases.
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosSchedule {
    /// The phases, in order.
    pub phases: Vec<ScheduledPhase>,
    /// Cycle back to the first phase when the script ends (otherwise the
    /// transport stays healthy forever after the last phase).
    pub repeat: bool,
    /// Seed for the loss/corruption PRNG.
    pub seed: u64,
}

impl ChaosSchedule {
    /// The canonical full storm: loss burst, latency spike, partition,
    /// corruption, and a crash/restart, with healthy recovery windows. The
    /// longest all-fail window is 8 ops, so a retry budget of a few tens of
    /// attempts rides it out.
    pub fn storm(seed: u64) -> Self {
        use ChaosPhase::*;
        ChaosSchedule {
            phases: vec![
                ScheduledPhase {
                    phase: Healthy,
                    ops: 40,
                },
                ScheduledPhase {
                    phase: LossyBurst { rate: 0.5 },
                    ops: 25,
                },
                ScheduledPhase {
                    phase: LatencySpike { mult: 8 },
                    ops: 20,
                },
                ScheduledPhase {
                    phase: Healthy,
                    ops: 10,
                },
                ScheduledPhase {
                    phase: Partition,
                    ops: 8,
                },
                ScheduledPhase {
                    phase: Healthy,
                    ops: 15,
                },
                ScheduledPhase {
                    phase: Corruption { rate: 0.5 },
                    ops: 20,
                },
                ScheduledPhase {
                    phase: CrashRestart,
                    ops: 6,
                },
                ScheduledPhase {
                    phase: Healthy,
                    ops: 20,
                },
            ],
            repeat: true,
            seed,
        }
    }

    /// A crash-focused script: repeated mid-run server crash/restarts with
    /// healthy windows in between. Exercises unacked-object loss, generation
    /// detection, and journal replay in isolation.
    pub fn crash_loop(seed: u64) -> Self {
        use ChaosPhase::*;
        ChaosSchedule {
            phases: vec![
                ScheduledPhase {
                    phase: Healthy,
                    ops: 30,
                },
                ScheduledPhase {
                    phase: CrashRestart,
                    ops: 8,
                },
                ScheduledPhase {
                    phase: Healthy,
                    ops: 40,
                },
            ],
            repeat: true,
            seed,
        }
    }

    /// A schedule that never leaves the healthy phase (baseline).
    pub fn quiet() -> Self {
        ChaosSchedule {
            phases: vec![ScheduledPhase {
                phase: ChaosPhase::Healthy,
                ops: 1,
            }],
            repeat: true,
            seed: 0,
        }
    }

    fn total_ops(&self) -> u64 {
        self.phases.iter().map(|p| p.ops).sum::<u64>().max(1)
    }

    /// Phase in force at operation `op`, plus a *phase instance id* that is
    /// distinct for every dynamic occurrence (so a repeated crash phase
    /// crashes once per occurrence, not once ever).
    fn phase_at(&self, op: u64) -> (u64, ChaosPhase) {
        let total = self.total_ops();
        let (lap, mut within) = if self.repeat {
            (op / total, op % total)
        } else if op >= total {
            // Past the end of a non-repeating script: healthy forever.
            return (u64::MAX, ChaosPhase::Healthy);
        } else {
            (0, op)
        };
        for (i, p) in self.phases.iter().enumerate() {
            if within < p.ops {
                return (lap * self.phases.len() as u64 + i as u64, p.phase);
            }
            within -= p.ops;
        }
        (u64::MAX, ChaosPhase::Healthy)
    }
}

/// Chaos-specific counters (beyond [`NetStats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// `Transient` faults injected by loss bursts.
    pub injected_loss: u64,
    /// `Timeout`s injected by partitions and crash windows.
    pub injected_timeouts: u64,
    /// `Corrupt` results injected by bit flips.
    pub injected_corrupt: u64,
    /// Server crashes (generation bumps).
    pub crashes: u64,
    /// Unacknowledged objects dropped by crashes.
    pub dropped_objects: u64,
}

/// A memory server driven through a [`ChaosSchedule`].
///
/// Put/acknowledge semantics: a successful `put` means the server buffered
/// the object, but it only becomes durable (crash-safe) once a subsequent
/// [`Transport::flush`] succeeds. A crash drops every buffered-but-unacked
/// object and bumps the server generation.
pub struct ChaosTransport {
    model: NetworkModel,
    schedule: ChaosSchedule,
    rng: SplitMix64,
    /// Operation counter driving the schedule.
    op: u64,
    /// Phase instance that has already had its crash applied.
    crashed_instance: Option<u64>,
    store: HashMap<ObjKey, Vec<u8>>,
    /// Payload bytes resident (envelope overhead excluded, matching
    /// `SimTransport::remote_bytes` semantics).
    resident_bytes: u64,
    /// Keys put since the last successful flush (BTreeSet: deterministic
    /// drop order, deterministic accounting).
    unacked: BTreeSet<ObjKey>,
    generation: u64,
    stats: NetStats,
    chaos: ChaosStats,
    ctx: TraceContext,
}

impl ChaosTransport {
    /// Create a chaos server with the default cost model.
    pub fn new(schedule: ChaosSchedule) -> Self {
        Self::with_model(schedule, NetworkModel::default())
    }

    /// Create a chaos server with an explicit cost model.
    pub fn with_model(schedule: ChaosSchedule, model: NetworkModel) -> Self {
        let rng = SplitMix64::new(schedule.seed ^ 0xc4a0_5c4a_05c4_a05c);
        ChaosTransport {
            model,
            schedule,
            rng,
            op: 0,
            crashed_instance: None,
            store: HashMap::new(),
            resident_bytes: 0,
            unacked: BTreeSet::new(),
            generation: 0,
            stats: NetStats::default(),
            chaos: ChaosStats::default(),
            ctx: TraceContext::NONE,
        }
    }

    /// Chaos counters.
    pub fn chaos_stats(&self) -> ChaosStats {
        self.chaos
    }

    /// Operations processed so far.
    pub fn ops(&self) -> u64 {
        self.op
    }

    /// Name of the phase the *next* operation will run under.
    pub fn current_phase(&self) -> &'static str {
        self.schedule.phase_at(self.op).1.name()
    }

    /// Number of objects currently buffered but not yet acknowledged.
    pub fn unacked_len(&self) -> usize {
        self.unacked.len()
    }

    fn crash_now(&mut self) {
        self.chaos.crashes += 1;
        self.generation += 1;
        let dropped: Vec<ObjKey> = self.unacked.iter().copied().collect();
        for key in dropped {
            if let Some(env) = self.store.remove(&key) {
                self.resident_bytes -= (env.len() - envelope::HEADER_LEN) as u64;
                self.chaos.dropped_objects += 1;
            }
        }
        self.unacked.clear();
    }

    /// Tick the op counter, apply any pending crash, and return the phase
    /// governing this operation.
    fn tick(&mut self) -> ChaosPhase {
        let (instance, phase) = self.schedule.phase_at(self.op);
        self.op += 1;
        if phase == ChaosPhase::CrashRestart && self.crashed_instance != Some(instance) {
            self.crashed_instance = Some(instance);
            self.crash_now();
        }
        phase
    }

    /// Phase gate shared by all ops. `Ok(mult)` carries the cost multiplier.
    fn gate(&mut self) -> Result<u64, NetError> {
        match self.tick() {
            ChaosPhase::Healthy | ChaosPhase::Corruption { .. } => Ok(1),
            ChaosPhase::LossyBurst { rate } => {
                if self.rng.next_f64() < rate {
                    self.chaos.injected_loss += 1;
                    Err(NetError::Transient)
                } else {
                    Ok(1)
                }
            }
            ChaosPhase::LatencySpike { mult } => Ok(mult.max(1)),
            ChaosPhase::Partition | ChaosPhase::CrashRestart => {
                self.chaos.injected_timeouts += 1;
                Err(NetError::Timeout)
            }
        }
    }

    /// Whether the phase that just gated this op corrupts fetches, and with
    /// what probability.
    fn corruption_rate(&self) -> f64 {
        // `op` was already ticked; the governing phase is at op-1.
        match self.schedule.phase_at(self.op.saturating_sub(1)).1 {
            ChaosPhase::Corruption { rate } => rate,
            _ => 0.0,
        }
    }

    fn fetch_inner(&mut self, key: ObjKey, batched: bool) -> Result<Fetched, NetError> {
        let mult = self.gate()?;
        let Some(env) = self.store.get(&key) else {
            return Err(NetError::NotFound(key));
        };
        let mut env = env.clone();
        let rate = self.corruption_rate();
        if rate > 0.0 && self.rng.next_f64() < rate {
            // In-flight bit flip on the response; the stored copy is intact,
            // so a retry fetches a clean envelope.
            let bit = self.rng.next_below(env.len() as u64 * 8);
            env[(bit / 8) as usize] ^= 1 << (bit % 8);
        }
        let payload = match envelope::decode(key, &env) {
            Ok((_generation, _ctx, payload)) => payload,
            Err(_) => {
                self.chaos.injected_corrupt += 1;
                return Err(NetError::Corrupt);
            }
        };
        let wire = env.len() as u64;
        let cycles = mult
            * if batched {
                self.model.per_msg_cpu + self.model.wire_cycles(wire)
            } else {
                self.model.fetch_cost(wire)
            };
        self.stats.fetches += 1;
        self.stats.bytes_fetched += payload.len() as u64;
        self.stats.cycles += cycles;
        Ok(Fetched {
            bytes: payload,
            cycles,
        })
    }
}

impl Transport for ChaosTransport {
    fn fetch(&mut self, key: ObjKey) -> Result<Fetched, NetError> {
        self.fetch_inner(key, false)
    }

    fn fetch_batched(&mut self, key: ObjKey) -> Result<Fetched, NetError> {
        self.fetch_inner(key, true)
    }

    fn rtt_cost(&self) -> u64 {
        // Phase-aware: a failed round trip during a latency spike wastes
        // `mult` times the healthy RTT. `rtt_cost` is consulted *between*
        // ops (when pricing a retry), so the governing phase is the one the
        // next op runs under — `phase_at(self.op)` without ticking.
        let base = self.model.base_latency + self.model.per_msg_cpu;
        match self.schedule.phase_at(self.op).1 {
            ChaosPhase::LatencySpike { mult } => mult.max(1) * base,
            _ => base,
        }
    }

    fn put(&mut self, key: ObjKey, data: &[u8]) -> Result<u64, NetError> {
        let mult = self.gate()?;
        let env = envelope::encode(self.generation, key, self.ctx, data);
        let cycles = mult * self.model.writeback_cost(env.len() as u64);
        self.stats.writebacks += 1;
        self.stats.bytes_written += data.len() as u64;
        self.stats.cycles += cycles;
        if let Some(old) = self.store.insert(key, env) {
            self.resident_bytes -= (old.len() - envelope::HEADER_LEN) as u64;
        }
        self.resident_bytes += data.len() as u64;
        self.unacked.insert(key);
        Ok(cycles)
    }

    fn remove(&mut self, key: ObjKey) -> Result<u64, NetError> {
        let mult = self.gate()?;
        if let Some(old) = self.store.remove(&key) {
            self.resident_bytes -= (old.len() - envelope::HEADER_LEN) as u64;
        }
        self.unacked.remove(&key);
        let cycles = mult * self.model.per_msg_cpu;
        self.stats.cycles += cycles;
        Ok(cycles)
    }

    fn flush(&mut self) -> Result<u64, NetError> {
        let mult = self.gate()?;
        self.unacked.clear();
        let cycles = mult * (self.model.base_latency + self.model.per_msg_cpu);
        self.stats.cycles += cycles;
        Ok(cycles)
    }

    fn generation(&self) -> u64 {
        self.generation
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

    fn set_trace_context(&mut self, ctx: TraceContext) {
        self.ctx = ctx;
    }

    fn trace_context(&self) -> TraceContext {
        self.ctx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(index: u64) -> ObjKey {
        ObjKey { ds: 1, index }
    }

    fn phases(v: Vec<(ChaosPhase, u64)>, repeat: bool) -> ChaosSchedule {
        ChaosSchedule {
            phases: v
                .into_iter()
                .map(|(phase, ops)| ScheduledPhase { phase, ops })
                .collect(),
            repeat,
            seed: 7,
        }
    }

    #[test]
    fn healthy_round_trip_matches_envelope_overhead() {
        let mut t = ChaosTransport::new(ChaosSchedule::quiet());
        t.put(key(0), &[9u8; 4096]).unwrap();
        let f = t.fetch(key(0)).unwrap();
        assert_eq!(f.bytes, vec![9u8; 4096]);
        assert_eq!(t.remote_bytes(), 4096);
        assert_eq!(t.current_phase(), "healthy");
    }

    #[test]
    fn partition_times_out_then_recovers() {
        let mut t = ChaosTransport::new(phases(
            vec![
                (ChaosPhase::Healthy, 1),
                (ChaosPhase::Partition, 3),
                (ChaosPhase::Healthy, 10),
            ],
            false,
        ));
        t.put(key(0), &[1]).unwrap(); // op 0: healthy
        for _ in 0..3 {
            assert_eq!(t.fetch(key(0)).unwrap_err(), NetError::Timeout);
        }
        assert_eq!(t.fetch(key(0)).unwrap().bytes, vec![1]);
        assert_eq!(t.chaos_stats().injected_timeouts, 3);
    }

    #[test]
    fn latency_spike_multiplies_cost() {
        let sched = phases(
            vec![
                (ChaosPhase::Healthy, 1),
                (ChaosPhase::LatencySpike { mult: 8 }, 1),
                (ChaosPhase::Healthy, 1),
            ],
            false,
        );
        let mut t = ChaosTransport::new(sched);
        t.put(key(0), &[2u8; 64]).unwrap();
        let spiked = t.fetch(key(0)).unwrap().cycles;
        let normal = t.fetch(key(0)).unwrap().cycles;
        assert_eq!(spiked, 8 * normal);
    }

    #[test]
    fn rtt_cost_tracks_latency_phase() {
        let sched = phases(
            vec![
                (ChaosPhase::Healthy, 1),
                (ChaosPhase::LatencySpike { mult: 8 }, 2),
                (ChaosPhase::Healthy, 1),
            ],
            false,
        );
        let mut t = ChaosTransport::new(sched);
        let base = NetworkModel::default().base_latency + NetworkModel::default().per_msg_cpu;
        assert_eq!(t.rtt_cost(), base, "healthy phase: plain RTT");
        t.put(key(0), &[1]).unwrap(); // consumes the healthy op
        assert_eq!(
            t.rtt_cost(),
            8 * base,
            "a retry priced inside the spike must cost the spiked RTT"
        );
        t.put(key(0), &[1]).unwrap();
        t.put(key(0), &[1]).unwrap(); // consumes the spike window
        assert_eq!(t.rtt_cost(), base, "recovery: plain RTT again");
    }

    #[test]
    fn corruption_surfaces_as_corrupt_and_retry_succeeds() {
        let mut t = ChaosTransport::new(phases(
            vec![
                (ChaosPhase::Healthy, 1),
                (ChaosPhase::Corruption { rate: 1.0 }, 2),
                (ChaosPhase::Healthy, 4),
            ],
            false,
        ));
        t.put(key(0), &[3u8; 256]).unwrap();
        assert_eq!(t.fetch(key(0)).unwrap_err(), NetError::Corrupt);
        assert_eq!(t.fetch(key(0)).unwrap_err(), NetError::Corrupt);
        // Stored copy is intact: the retry after the phase gets clean bytes.
        assert_eq!(t.fetch(key(0)).unwrap().bytes, vec![3u8; 256]);
        assert_eq!(t.chaos_stats().injected_corrupt, 2);
    }

    #[test]
    fn crash_drops_unacked_but_keeps_acked() {
        let mut t = ChaosTransport::new(phases(
            vec![
                (ChaosPhase::Healthy, 3),
                (ChaosPhase::CrashRestart, 2),
                (ChaosPhase::Healthy, 10),
            ],
            false,
        ));
        t.put(key(0), &[1]).unwrap();
        t.flush().unwrap(); // key 0 is now durable
        t.put(key(1), &[2]).unwrap(); // unacked
        assert_eq!(t.unacked_len(), 1);
        assert_eq!(t.generation(), 0);
        // Op 3 enters the crash window: unacked key 1 is dropped.
        assert_eq!(t.fetch(key(0)).unwrap_err(), NetError::Timeout);
        assert_eq!(t.fetch(key(0)).unwrap_err(), NetError::Timeout);
        assert_eq!(t.generation(), 1);
        assert_eq!(t.fetch(key(0)).unwrap().bytes, vec![1]);
        assert_eq!(t.fetch(key(1)).unwrap_err(), NetError::NotFound(key(1)));
        let cs = t.chaos_stats();
        assert_eq!(cs.crashes, 1);
        assert_eq!(cs.dropped_objects, 1);
    }

    #[test]
    fn repeat_schedules_crash_once_per_occurrence() {
        let mut t = ChaosTransport::new(phases(
            vec![(ChaosPhase::Healthy, 2), (ChaosPhase::CrashRestart, 1)],
            true,
        ));
        for lap in 1..=3u64 {
            let _ = t.put(key(0), &[0]);
            let _ = t.put(key(1), &[1]);
            let _ = t.put(key(2), &[2]); // lands in the crash window
            assert_eq!(t.generation(), lap);
        }
        assert_eq!(t.chaos_stats().crashes, 3);
    }

    #[test]
    fn schedule_is_deterministic() {
        let run = || {
            let mut t = ChaosTransport::new(ChaosSchedule::storm(5));
            let mut trace = Vec::new();
            for i in 0..300u64 {
                let r = t.put(key(i % 8), &[i as u8; 32]);
                trace.push((r.is_ok(), r.err()));
            }
            (trace, t.stats(), t.chaos_stats(), t.generation())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn non_repeating_schedule_goes_healthy_after_end() {
        let mut t = ChaosTransport::new(phases(vec![(ChaosPhase::Partition, 2)], false));
        assert!(t.put(key(0), &[1]).is_err());
        assert!(t.put(key(0), &[1]).is_err());
        for _ in 0..20 {
            assert!(t.put(key(0), &[1]).is_ok());
        }
    }

    #[test]
    fn storm_longest_all_fail_window_is_bounded() {
        // The runtime's retry budget must be able to ride out any all-fail
        // window; pin the storm's worst case here so edits to the script
        // keep the invariant.
        let s = ChaosSchedule::storm(0);
        let mut worst = 0u64;
        let mut run = 0u64;
        for p in &s.phases {
            match p.phase {
                ChaosPhase::Partition | ChaosPhase::CrashRestart => run += p.ops,
                _ => {
                    worst = worst.max(run);
                    run = 0;
                }
            }
        }
        worst = worst.max(run);
        assert!(worst <= 12, "all-fail window {worst} too long for retries");
    }
}
