//! Structured telemetry: typed event tracing, latency histograms, and
//! per-epoch time-series over the runtime's *modeled* cycle clock.
//!
//! Three pillars, all dependency-free and fully deterministic (no wall
//! time, no allocation-order effects), so two identical runs export
//! byte-identical traces:
//!
//! 1. **Event ring buffer** — a bounded [`VecDeque`] of typed [`Event`]s
//!    (guard hit/miss, fetch, eviction, writeback, prefetch issue/confirm,
//!    retry, policy decision, demotion, scope begin/end, …), each stamped
//!    with the runtime's modeled cycle clock at emission. When the ring is
//!    full the oldest event is dropped and counted, never silently.
//! 2. **Latency histograms** — log2-bucketed cycle histograms for the hot
//!    paths ([`HistPath`]): local deref, remote deref, fetch, writeback,
//!    plus per-attempt retry cost and backoff sleeps, with p50/p95/p99
//!    accessors.
//! 3. **Epoch time-series** — every `epoch_every` guard events the runtime
//!    snapshots the *delta* of every [`DsStats`] and the transport's
//!    [`NetStats`] since the previous epoch, yielding a time-series of
//!    per-structure behaviour (which DS started thrashing, and when).
//!
//! Exporters ([`export_json`], [`export_chrome_trace`]) render the whole
//! state as deterministic JSON — the Chrome variant loads directly into
//! `chrome://tracing` / Perfetto with one track per data structure.

use std::collections::{BTreeMap, VecDeque};

use cards_net::json::{self, Fixed, Obj};
pub use cards_net::Histogram;
use cards_net::{NetStats, Transport};

use crate::runtime::FarMemRuntime;
use crate::spec::StaticHint;
use crate::stats::DsStats;

/// Telemetry knobs, carried inside
/// [`RuntimeConfig`](crate::config::RuntimeConfig).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Master switch; when false nothing is recorded (the guard-event epoch
    /// clock still runs under the governor, which rides it).
    pub enabled: bool,
    /// Max events retained in the ring buffer (oldest dropped first).
    pub ring_capacity: usize,
    /// Take an epoch snapshot every this many guard (deref) events.
    pub epoch_every: u64,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            enabled: true,
            ring_capacity: 8192,
            epoch_every: 256,
        }
    }
}

impl TelemetryConfig {
    /// Telemetry fully off (no events, histograms, or epochs).
    pub fn disabled() -> Self {
        TelemetryConfig {
            enabled: false,
            ..Default::default()
        }
    }
}

/// What happened. One variant per instrumented runtime transition.
#[derive(Clone, Debug, PartialEq)]
pub enum EventKind {
    /// A guarded deref found the object resident.
    GuardHit {
        /// DS handle.
        ds: u16,
        /// Object index within the DS.
        index: u64,
    },
    /// A guarded deref had to localize the object.
    GuardMiss {
        /// DS handle.
        ds: u16,
        /// Object index within the DS.
        index: u64,
    },
    /// An object was fetched over the network (demand or prefetch).
    Fetch {
        /// DS handle.
        ds: u16,
        /// Object index within the DS.
        index: u64,
        /// Payload bytes.
        bytes: u64,
        /// Modeled cycles the fetch cost (including retries).
        cycles: u64,
        /// True when issued speculatively by a prefetcher.
        prefetch: bool,
    },
    /// An object was evicted from local remotable memory.
    Eviction {
        /// DS handle.
        ds: u16,
        /// Object index within the DS.
        index: u64,
        /// Whether the eviction needed a write-back.
        dirty: bool,
    },
    /// A dirty (or never-uploaded) object was written back.
    Writeback {
        /// DS handle.
        ds: u16,
        /// Object index within the DS.
        index: u64,
        /// Payload bytes.
        bytes: u64,
        /// Modeled cycles the write-back cost (including retries).
        cycles: u64,
    },
    /// A prefetcher speculatively pulled an object.
    PrefetchIssue {
        /// DS handle.
        ds: u16,
        /// Object index within the DS.
        index: u64,
    },
    /// A previously prefetched object was demanded while still resident.
    PrefetchConfirm {
        /// DS handle.
        ds: u16,
        /// Object index within the DS.
        index: u64,
    },
    /// A transient transport fault forced a retry.
    Retry {
        /// DS handle.
        ds: u16,
        /// Object index within the DS.
        index: u64,
        /// Retry attempt number (1-based).
        attempt: u32,
        /// True for write-back retries, false for fetch retries.
        write: bool,
        /// Modeled cycles spent backing off before this retry.
        backoff: u64,
    },
    /// A remote operation exhausted its retries (or hit a terminal error)
    /// and surfaced to the application.
    NetAbort {
        /// DS handle.
        ds: u16,
        /// Object index within the DS.
        index: u64,
        /// Attempts made before giving up (1-based; 1 = no retries).
        attempts: u32,
        /// True for write-backs, false for fetches.
        write: bool,
    },
    /// A DS circuit breaker changed state
    /// (closed → open → half_open → closed).
    Breaker {
        /// DS handle.
        ds: u16,
        /// State before the transition.
        from: &'static str,
        /// State after the transition.
        to: &'static str,
    },
    /// A server crash/restart was detected (generation bump).
    CrashDetected {
        /// The server generation observed after the restart.
        generation: u64,
    },
    /// A journaled writeback was replayed to the server after loss or a
    /// detected restart.
    JournalReplay {
        /// DS handle.
        ds: u16,
        /// Object index within the DS.
        index: u64,
        /// Payload bytes replayed.
        bytes: u64,
    },
    /// A remoting policy pinned (or declined to pin) a data structure.
    PolicyDecision {
        /// DS meta index the decision applies to.
        ds: u16,
        /// Whether the DS was pinned.
        pinned: bool,
        /// Human-readable explanation of why.
        why: String,
    },
    /// The runtime overrode a pinned hint (pinned budget exhausted).
    Demotion {
        /// DS handle.
        ds: u16,
    },
    /// A data structure was registered with the runtime.
    DsRegister {
        /// DS handle.
        ds: u16,
        /// The static hint it was registered with.
        hint: StaticHint,
    },
    /// A pool allocation was served.
    DsAlloc {
        /// DS handle.
        ds: u16,
        /// Bytes allocated.
        bytes: u64,
    },
    /// An allocation was freed.
    Free {
        /// DS handle.
        ds: u16,
        /// Bytes freed.
        bytes: u64,
    },
    /// A deref scope opened (`depth` scopes now open).
    ScopeBegin {
        /// Nesting depth after opening.
        depth: usize,
    },
    /// A deref scope closed (`depth` scopes remain open).
    ScopeEnd {
        /// Nesting depth after closing.
        depth: usize,
    },
    /// The VM dispatched a versioned region (fast = no DS remotable).
    Dispatch {
        /// True when the slow (guarded) version was taken.
        slow: bool,
    },
    /// An epoch snapshot was taken.
    Epoch {
        /// Epoch sequence number.
        seq: u64,
    },
    /// A pressure schedule moved to a new phase (budgets rescaled).
    PressurePhase {
        /// Phase instance id (unique across schedule laps).
        phase: u64,
        /// New pinned budget as a percent of the base budget.
        pinned_pct: u32,
        /// New remotable budget as a percent of the base budget.
        remotable_pct: u32,
    },
    /// Remotable residency crossed the high watermark.
    PressureHigh {
        /// Remotable bytes resident at the crossing.
        used: u64,
        /// Effective remotable budget at the crossing.
        budget: u64,
    },
    /// A batched watermark sweep evicted objects proactively.
    ProactiveEvict {
        /// Objects evicted by this sweep.
        evicted: u64,
        /// Bytes freed by this sweep.
        bytes: u64,
    },
    /// Guard/scope pins covered the whole budget; the recent-guard window
    /// was shrunk (or the runtime fell back to overcommit/spill).
    PinStarvation {
        /// Remotable bytes resident when starvation was detected.
        used: u64,
        /// Recent-guard window size after relief.
        window: usize,
    },
    /// An access was served directly from the remote tier because the
    /// object could not be localized.
    Spill {
        /// DS handle.
        ds: u16,
        /// Object index within the DS.
        index: u64,
        /// True for writes (read-modify-write-back), false for reads.
        write: bool,
    },
    /// The governor demoted a DS's hint (pinned residency released).
    HintDemoted {
        /// DS handle.
        ds: u16,
        /// Human-readable explanation from the re-solver.
        why: String,
    },
    /// The governor soft-pinned a thrashing DS's resident set.
    HintPromoted {
        /// DS handle.
        ds: u16,
        /// Human-readable explanation from the re-solver.
        why: String,
    },
    /// An online policy re-solve changed at least one hint.
    Resolve {
        /// Governor epoch the re-solve ran in.
        epoch: u64,
        /// Hints demoted by this pass.
        demoted: u64,
        /// Hints promoted by this pass.
        promoted: u64,
    },
}

impl EventKind {
    /// Stable snake_case name used by the exporters.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::GuardHit { .. } => "guard_hit",
            EventKind::GuardMiss { .. } => "guard_miss",
            EventKind::Fetch { .. } => "fetch",
            EventKind::Eviction { .. } => "eviction",
            EventKind::Writeback { .. } => "writeback",
            EventKind::PrefetchIssue { .. } => "prefetch_issue",
            EventKind::PrefetchConfirm { .. } => "prefetch_confirm",
            EventKind::Retry { .. } => "retry",
            EventKind::NetAbort { .. } => "net_abort",
            EventKind::Breaker { .. } => "breaker",
            EventKind::CrashDetected { .. } => "crash_detected",
            EventKind::JournalReplay { .. } => "journal_replay",
            EventKind::PolicyDecision { .. } => "policy_decision",
            EventKind::Demotion { .. } => "demotion",
            EventKind::DsRegister { .. } => "ds_register",
            EventKind::DsAlloc { .. } => "ds_alloc",
            EventKind::Free { .. } => "free",
            EventKind::ScopeBegin { .. } => "scope_begin",
            EventKind::ScopeEnd { .. } => "scope_end",
            EventKind::Dispatch { .. } => "dispatch",
            EventKind::Epoch { .. } => "epoch",
            EventKind::PressurePhase { .. } => "pressure_phase",
            EventKind::PressureHigh { .. } => "pressure_high",
            EventKind::ProactiveEvict { .. } => "proactive_evict",
            EventKind::PinStarvation { .. } => "pin_starvation",
            EventKind::Spill { .. } => "spill",
            EventKind::HintDemoted { .. } => "hint_demoted",
            EventKind::HintPromoted { .. } => "hint_promoted",
            EventKind::Resolve { .. } => "resolve",
        }
    }
}

/// One trace event: what happened and when (modeled cycles).
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    /// Modeled cycle clock at emission.
    pub cycle: u64,
    /// What happened.
    pub kind: EventKind,
}

/// The latency paths tracked with histograms.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HistPath {
    /// Guarded deref that hit locally.
    DerefLocal,
    /// Guarded deref that missed and localized.
    DerefRemote,
    /// Network fetch (demand or prefetch), including retries.
    Fetch,
    /// Network write-back, including retries.
    Writeback,
    /// One failed transport attempt (the wasted RTT it cost), recorded
    /// per attempt rather than folded into the whole-op latency.
    RetryAttempt,
    /// One backoff sleep between retry attempts, in modeled cycles.
    BackoffSleep,
}

impl HistPath {
    /// All paths, in export order.
    pub const ALL: [HistPath; 6] = [
        HistPath::DerefLocal,
        HistPath::DerefRemote,
        HistPath::Fetch,
        HistPath::Writeback,
        HistPath::RetryAttempt,
        HistPath::BackoffSleep,
    ];

    /// Stable snake_case name used by the exporters.
    pub fn name(&self) -> &'static str {
        match self {
            HistPath::DerefLocal => "deref_local",
            HistPath::DerefRemote => "deref_remote",
            HistPath::Fetch => "fetch",
            HistPath::Writeback => "writeback",
            HistPath::RetryAttempt => "retry_attempt",
            HistPath::BackoffSleep => "backoff_sleep",
        }
    }

    fn idx(&self) -> usize {
        match self {
            HistPath::DerefLocal => 0,
            HistPath::DerefRemote => 1,
            HistPath::Fetch => 2,
            HistPath::Writeback => 3,
            HistPath::RetryAttempt => 4,
            HistPath::BackoffSleep => 5,
        }
    }
}

/// Per-DS counter deltas for one epoch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DsEpochDelta {
    /// DS handle.
    pub ds: u16,
    /// Hits this epoch.
    pub hits: u64,
    /// Misses this epoch.
    pub misses: u64,
    /// Evictions this epoch.
    pub evictions: u64,
    /// Write-backs this epoch.
    pub writebacks: u64,
    /// Prefetches issued this epoch.
    pub prefetch_issued: u64,
    /// Prefetches confirmed useful this epoch.
    pub prefetch_useful: u64,
}

/// One point of the per-epoch time-series: every counter's delta since the
/// previous epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct EpochSnapshot {
    /// Epoch sequence number (0-based).
    pub seq: u64,
    /// Modeled cycle clock when the snapshot was taken.
    pub cycle: u64,
    /// Per-DS deltas, indexed by handle order.
    pub ds: Vec<DsEpochDelta>,
    /// Network counter deltas.
    pub net: NetStats,
}

/// The telemetry sink owned by [`crate::runtime::FarMemRuntime`].
#[derive(Debug)]
pub struct Telemetry {
    cfg: TelemetryConfig,
    ring: VecDeque<Event>,
    dropped: u64,
    /// Drops broken down by the *dropped* event's kind name (BTreeMap for
    /// deterministic export order). A saturated ring skews profiles
    /// non-uniformly; this shows which signal was lost.
    dropped_by_kind: BTreeMap<&'static str, u64>,
    hists: [Histogram; 6],
    epochs: Vec<EpochSnapshot>,
    guard_events: u64,
    epoch_seq: u64,
    prev_ds: Vec<DsStats>,
    prev_net: NetStats,
}

impl Telemetry {
    /// Create a sink with the given knobs.
    pub fn new(cfg: TelemetryConfig) -> Self {
        Telemetry {
            cfg,
            ring: VecDeque::new(),
            dropped: 0,
            dropped_by_kind: BTreeMap::new(),
            hists: Default::default(),
            epochs: Vec::new(),
            guard_events: 0,
            epoch_seq: 0,
            prev_ds: Vec::new(),
            prev_net: NetStats::default(),
        }
    }

    /// Whether telemetry is collecting.
    pub fn enabled(&self) -> bool {
        self.cfg.enabled
    }

    /// The configuration this sink was built with.
    pub fn config(&self) -> TelemetryConfig {
        self.cfg
    }

    /// Append an event stamped `cycle` to the ring (oldest dropped when
    /// full). No-op when disabled.
    pub fn emit(&mut self, cycle: u64, kind: EventKind) {
        if !self.cfg.enabled || self.cfg.ring_capacity == 0 {
            return;
        }
        if self.ring.len() >= self.cfg.ring_capacity {
            if let Some(old) = self.ring.pop_front() {
                // Saturating: long-lived serving workers tick these for
                // the whole process lifetime; pin at the ceiling rather
                // than wrapping back past zero.
                let e = self.dropped_by_kind.entry(old.kind.name()).or_insert(0);
                *e = e.saturating_add(1);
            }
            self.dropped = self.dropped.saturating_add(1);
        }
        self.ring.push_back(Event { cycle, kind });
    }

    /// Record a latency sample for `path`. No-op when disabled.
    pub fn record(&mut self, path: HistPath, cycles: u64) {
        if self.cfg.enabled {
            self.hists[path.idx()].record(cycles);
        }
    }

    /// Count one guard event; true when an epoch snapshot is now due. The
    /// clock ticks even while recording is disabled: the governor's epochs
    /// ride it, and the runtime only ticks it when someone listens.
    pub(crate) fn guard_tick(&mut self) -> bool {
        if self.cfg.epoch_every == 0 {
            return false;
        }
        self.guard_events += 1;
        self.guard_events.is_multiple_of(self.cfg.epoch_every)
    }

    /// Take an epoch snapshot from cumulative per-DS and network counters,
    /// storing deltas against the previous snapshot.
    pub(crate) fn snapshot(&mut self, cycle: u64, ds: &[DsStats], net: NetStats) {
        if !self.cfg.enabled {
            return;
        }
        self.prev_ds.resize(ds.len(), DsStats::default());
        let deltas = ds
            .iter()
            .zip(self.prev_ds.iter())
            .enumerate()
            .map(|(i, (cur, prev))| DsEpochDelta {
                ds: i as u16,
                hits: cur.hits.saturating_sub(prev.hits),
                misses: cur.misses.saturating_sub(prev.misses),
                evictions: cur.evictions.saturating_sub(prev.evictions),
                writebacks: cur.writebacks.saturating_sub(prev.writebacks),
                prefetch_issued: cur.prefetch_issued.saturating_sub(prev.prefetch_issued),
                prefetch_useful: cur.prefetch_useful.saturating_sub(prev.prefetch_useful),
            })
            .collect();
        let net_delta = NetStats {
            fetches: net.fetches.saturating_sub(self.prev_net.fetches),
            writebacks: net.writebacks.saturating_sub(self.prev_net.writebacks),
            bytes_fetched: net
                .bytes_fetched
                .saturating_sub(self.prev_net.bytes_fetched),
            bytes_written: net
                .bytes_written
                .saturating_sub(self.prev_net.bytes_written),
            retries: net.retries.saturating_sub(self.prev_net.retries),
            cycles: net.cycles.saturating_sub(self.prev_net.cycles),
        };
        let seq = self.epoch_seq;
        self.epoch_seq += 1;
        self.prev_ds.copy_from_slice(ds);
        self.prev_net = net;
        self.epochs.push(EpochSnapshot {
            seq,
            cycle,
            ds: deltas,
            net: net_delta,
        });
        self.emit(cycle, EventKind::Epoch { seq });
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.ring.iter()
    }

    /// Events dropped because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Drops broken down by the dropped event's kind, in name order.
    pub fn dropped_by_kind(&self) -> &BTreeMap<&'static str, u64> {
        &self.dropped_by_kind
    }

    /// The histogram for one latency path.
    pub fn hist(&self, path: HistPath) -> &Histogram {
        &self.hists[path.idx()]
    }

    /// The epoch time-series, oldest first.
    pub fn epochs(&self) -> &[EpochSnapshot] {
        &self.epochs
    }

    /// Total guard events counted (drives the epoch clock).
    pub fn guard_events(&self) -> u64 {
        self.guard_events
    }
}

// ---- exporters ----

/// The event's kind-specific fields, written into the enclosing object.
fn event_fields(o: &mut Obj<'_>, kind: &EventKind) {
    match kind {
        EventKind::GuardHit { ds, index }
        | EventKind::GuardMiss { ds, index }
        | EventKind::PrefetchIssue { ds, index }
        | EventKind::PrefetchConfirm { ds, index } => {
            o.field("ds", ds).field("index", index);
        }
        EventKind::Fetch {
            ds,
            index,
            bytes,
            cycles,
            prefetch,
        } => {
            o.field("ds", ds)
                .field("index", index)
                .field("bytes", bytes)
                .field("cycles", cycles)
                .field("prefetch", prefetch);
        }
        EventKind::Eviction { ds, index, dirty } => {
            o.field("ds", ds)
                .field("index", index)
                .field("dirty", dirty);
        }
        EventKind::Writeback {
            ds,
            index,
            bytes,
            cycles,
        } => {
            o.field("ds", ds)
                .field("index", index)
                .field("bytes", bytes)
                .field("cycles", cycles);
        }
        EventKind::Retry {
            ds,
            index,
            attempt,
            write,
            backoff,
        } => {
            o.field("ds", ds)
                .field("index", index)
                .field("attempt", attempt)
                .field("write", write)
                .field("backoff", backoff);
        }
        EventKind::NetAbort {
            ds,
            index,
            attempts,
            write,
        } => {
            o.field("ds", ds)
                .field("index", index)
                .field("attempts", attempts)
                .field("write", write);
        }
        EventKind::Breaker { ds, from, to } => {
            o.field("ds", ds).field("from", from).field("to", to);
        }
        EventKind::CrashDetected { generation } => {
            o.field("generation", generation);
        }
        EventKind::JournalReplay { ds, index, bytes } => {
            o.field("ds", ds)
                .field("index", index)
                .field("bytes", bytes);
        }
        EventKind::PolicyDecision { ds, pinned, why } => {
            o.field("ds", ds).field("pinned", pinned).field("why", why);
        }
        EventKind::Demotion { ds } => {
            o.field("ds", ds);
        }
        EventKind::DsRegister { ds, hint } => {
            o.field("ds", ds).field("hint", format!("{hint:?}"));
        }
        EventKind::DsAlloc { ds, bytes } | EventKind::Free { ds, bytes } => {
            o.field("ds", ds).field("bytes", bytes);
        }
        EventKind::ScopeBegin { depth } | EventKind::ScopeEnd { depth } => {
            o.field("depth", depth);
        }
        EventKind::Dispatch { slow } => {
            o.field("slow", slow);
        }
        EventKind::Epoch { seq } => {
            o.field("seq", seq);
        }
        EventKind::PressurePhase {
            phase,
            pinned_pct,
            remotable_pct,
        } => {
            o.field("phase", phase)
                .field("pinned_pct", pinned_pct)
                .field("remotable_pct", remotable_pct);
        }
        EventKind::PressureHigh { used, budget } => {
            o.field("used", used).field("budget", budget);
        }
        EventKind::ProactiveEvict { evicted, bytes } => {
            o.field("evicted", evicted).field("bytes", bytes);
        }
        EventKind::PinStarvation { used, window } => {
            o.field("used", used).field("window", window);
        }
        EventKind::Spill { ds, index, write } => {
            o.field("ds", ds)
                .field("index", index)
                .field("write", write);
        }
        EventKind::HintDemoted { ds, why } | EventKind::HintPromoted { ds, why } => {
            o.field("ds", ds).field("why", why);
        }
        EventKind::Resolve {
            epoch,
            demoted,
            promoted,
        } => {
            o.field("epoch", epoch)
                .field("demoted", demoted)
                .field("promoted", promoted);
        }
    }
}

fn hist_fields(o: &mut Obj<'_>, h: &Histogram) {
    o.field("count", h.count())
        .field("min", h.min())
        .field("max", h.max())
        .field("mean", Fixed(h.mean(), 1))
        .field("p50", h.p50())
        .field("p95", h.p95())
        .field("p99", h.p99())
        .arr("buckets", |a| {
            for (lo, n) in h.nonzero_buckets() {
                a.arr(|a| {
                    a.item(lo).item(n);
                });
            }
        });
}

fn net_fields(o: &mut Obj<'_>, n: &NetStats) {
    o.field("fetches", n.fetches)
        .field("writebacks", n.writebacks)
        .field("bytes_fetched", n.bytes_fetched)
        .field("bytes_written", n.bytes_written)
        .field("retries", n.retries)
        .field("cycles", n.cycles);
}

/// Export the runtime's full telemetry state (events, histograms, epochs,
/// cumulative stats) as deterministic JSON: same run → same bytes.
pub fn export_json<T: Transport>(rt: &FarMemRuntime<T>) -> String {
    let tel = rt.telemetry();
    let g = rt.stats();
    json::object(|o| {
        o.field("clock_cycles", g.cycles)
            .field("guard_events", tel.guard_events())
            .field("dropped_events", tel.dropped())
            .obj("dropped_by_kind", |o| {
                for (k, n) in tel.dropped_by_kind() {
                    o.field(k, n);
                }
            })
            .arr("events", |a| {
                for e in tel.events() {
                    a.obj(|o| {
                        o.field("cycle", e.cycle).field("kind", e.kind.name());
                        event_fields(o, &e.kind);
                    });
                }
            })
            .obj("histograms", |o| {
                for p in HistPath::ALL {
                    o.obj(p.name(), |o| hist_fields(o, tel.hist(p)));
                }
            })
            .arr("epochs", |a| {
                for ep in tel.epochs() {
                    a.obj(|o| {
                        o.field("seq", ep.seq)
                            .field("cycle", ep.cycle)
                            .obj("net", |o| net_fields(o, &ep.net))
                            .arr("ds", |a| {
                                for d in &ep.ds {
                                    a.obj(|o| {
                                        o.field("ds", d.ds)
                                            .field("hits", d.hits)
                                            .field("misses", d.misses)
                                            .field("evictions", d.evictions)
                                            .field("writebacks", d.writebacks)
                                            .field("prefetch_issued", d.prefetch_issued)
                                            .field("prefetch_useful", d.prefetch_useful);
                                    });
                                }
                            });
                    });
                }
            })
            .arr("ds", |a| {
                for h in 0..rt.ds_count() as u16 {
                    let (Some(st), Some(spec)) = (rt.ds_stats(h), rt.ds_spec(h)) else {
                        continue;
                    };
                    a.obj(|o| {
                        o.field("handle", h)
                            .field("name", &spec.name)
                            .field("remotable", rt.is_remotable(h))
                            .field("hits", st.hits)
                            .field("misses", st.misses)
                            .field("miss_ratio", Fixed(st.miss_ratio(), 4))
                            .field("evictions", st.evictions)
                            .field("writebacks", st.writebacks)
                            .field("prefetch_issued", st.prefetch_issued)
                            .field("prefetch_useful", st.prefetch_useful)
                            .field("demotions", st.demotions)
                            .field("breaker_trips", st.breaker_trips)
                            .field("spills", st.spills)
                            .field("hint_demotions", st.hint_demotions)
                            .field("hint_promotions", st.hint_promotions)
                            .field("bytes_allocated", st.bytes_allocated);
                    });
                }
            })
            .obj("totals", |o| {
                o.field("custody_checks", g.custody_checks)
                    .field("derefs_local", g.derefs_local)
                    .field("derefs_remote", g.derefs_remote)
                    .field("remotable_checks", g.remotable_checks)
                    .field("retries", g.retries)
                    .field("overcommits", g.overcommits)
                    .field("timeouts", g.timeouts)
                    .field("corrupt_fetches", g.corrupt_fetches)
                    .field("backoff_cycles", g.backoff_cycles)
                    .field("journal_replays", g.journal_replays)
                    .field("crashes_detected", g.crashes_detected)
                    .field("flush_failures", g.flush_failures)
                    .field("pressure_high_crossings", g.pressure_high_crossings)
                    .field("proactive_evictions", g.proactive_evictions)
                    .field("pressure_phase_changes", g.pressure_phase_changes)
                    .field("resolves", g.resolves)
                    .field("hint_demotions", g.hint_demotions)
                    .field("hint_promotions", g.hint_promotions)
                    .field("spill_reads", g.spill_reads)
                    .field("spill_writes", g.spill_writes)
                    .field("pin_starvations", g.pin_starvations)
                    .field("cycles", g.cycles);
            })
            .obj("net", |o| net_fields(o, &rt.net_stats()))
            .obj("profile", |o| profile_fields(o, rt.profiler()));
    })
}

/// One site's counters as object members (shared with the VM's
/// site-joined profile exporter).
pub fn site_counters_fields(o: &mut Obj<'_>, c: &crate::profile::SiteCounters) {
    o.field("hits", c.hits)
        .field("misses", c.misses)
        .field("remote_cycles", c.remote_cycles)
        .field("evictions", c.evictions)
        .field("prefetch_issued", c.prefetch_issued)
        .field("prefetch_useful", c.prefetch_useful)
        .field("spills", c.spills)
        .field("slow_entries", c.slow_entries)
        .field("fast_entries", c.fast_entries)
        .obj("remote_hist", |o| hist_fields(o, &c.remote_hist));
}

/// The profiler's per-site counters as object members.
fn profile_fields(o: &mut Obj<'_>, p: &crate::profile::SiteProfiler) {
    o.obj("unattributed", |o| {
        site_counters_fields(o, p.unattributed())
    })
    .arr("sites", |a| {
        for sid in p.active_sites() {
            a.obj(|o| {
                o.field("site", sid)
                    .obj("counters", |o| site_counters_fields(o, &p.site(sid)));
            });
        }
    });
}

/// Export the event ring in Chrome `trace_event` JSON (array-of-events
/// format): load in `chrome://tracing` or Perfetto. Cycles are mapped 1:1
/// to microseconds on the trace timeline; each DS gets its own track
/// (`tid`), with runtime-global events on track 0.
pub fn export_chrome_trace<T: Transport>(rt: &FarMemRuntime<T>) -> String {
    let tel = rt.telemetry();
    // One named track per DS, plus the runtime track.
    let track = |a: &mut json::Arr<'_>, tid: u32, name: &str| {
        a.obj(|o| {
            o.field("ph", "M")
                .field("pid", 1u32)
                .field("tid", tid)
                .field("name", "thread_name")
                .obj("args", |o| {
                    o.field("name", name);
                });
        });
    };
    json::object(|o| {
        o.field("displayTimeUnit", "ms").arr("traceEvents", |a| {
            track(a, 0, "runtime");
            for h in 0..rt.ds_count() as u16 {
                let Some(spec) = rt.ds_spec(h) else { continue };
                track(a, h as u32 + 1, &format!("ds{h} {}", spec.name));
            }
            for e in tel.events() {
                let (tid, dur): (u32, u64) = match &e.kind {
                    EventKind::GuardHit { ds, .. }
                    | EventKind::GuardMiss { ds, .. }
                    | EventKind::Eviction { ds, .. }
                    | EventKind::PrefetchIssue { ds, .. }
                    | EventKind::PrefetchConfirm { ds, .. }
                    | EventKind::Retry { ds, .. }
                    | EventKind::NetAbort { ds, .. }
                    | EventKind::Breaker { ds, .. }
                    | EventKind::JournalReplay { ds, .. }
                    | EventKind::Demotion { ds }
                    | EventKind::DsRegister { ds, .. }
                    | EventKind::DsAlloc { ds, .. }
                    | EventKind::Free { ds, .. }
                    | EventKind::PolicyDecision { ds, .. }
                    | EventKind::Spill { ds, .. }
                    | EventKind::HintDemoted { ds, .. }
                    | EventKind::HintPromoted { ds, .. } => (*ds as u32 + 1, 0),
                    EventKind::Fetch { ds, cycles, .. }
                    | EventKind::Writeback { ds, cycles, .. } => (*ds as u32 + 1, *cycles),
                    _ => (0, 0),
                };
                a.obj(|o| {
                    if dur > 0 {
                        // Complete (duration) event, placed so it *ends*
                        // at the stamp.
                        o.field("ph", "X")
                            .field("pid", 1u32)
                            .field("tid", tid)
                            .field("ts", e.cycle.saturating_sub(dur))
                            .field("dur", dur);
                    } else {
                        o.field("ph", "i")
                            .field("s", "t")
                            .field("pid", 1u32)
                            .field("tid", tid)
                            .field("ts", e.cycle);
                    }
                    o.field("name", e.kind.name())
                        .obj("args", |o| event_fields(o, &e.kind));
                });
            }
        });
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles() {
        let mut h = Histogram::default();
        for _ in 0..90 {
            h.record(100); // bucket [64,128)
        }
        for _ in 0..10 {
            h.record(60_000); // bucket [32768,65536)
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.min(), 100);
        assert_eq!(h.max(), 60_000);
        assert_eq!(h.p50(), 100); // clamped up to min
        assert_eq!(h.p95(), 32_768);
        assert_eq!(h.p99(), 32_768);
        assert!(h.mean() > 100.0 && h.mean() < 60_000.0);
    }

    #[test]
    fn histogram_empty_and_zero() {
        let h = Histogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.min(), 0);
        let mut h = Histogram::default();
        h.record(0);
        assert_eq!(h.p99(), 0);
        assert_eq!(h.nonzero_buckets(), vec![(0, 1)]);
    }

    #[test]
    fn histogram_extreme_values_do_not_overflow() {
        let mut h = Histogram::default();
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.sum(), u64::MAX); // saturated, not wrapped
                                       // single-value histogram: clamping to observed min makes p50 exact
        assert_eq!(h.p50(), u64::MAX);
    }

    #[test]
    fn histogram_q1_returns_exact_max() {
        // q=1.0 used to return the max *bucket floor* (32768 here) instead
        // of the observed maximum.
        let mut h = Histogram::default();
        for _ in 0..90 {
            h.record(100);
        }
        for _ in 0..10 {
            h.record(60_000);
        }
        assert_eq!(h.percentile(1.0), 60_000);
        assert_eq!(h.percentile(1.5), 60_000); // clamped, not garbage
        assert_eq!(h.percentile(0.99), 32_768); // sub-1 quantiles unchanged
    }

    #[test]
    fn histogram_empty_q1_is_zero() {
        let h = Histogram::default();
        assert_eq!(h.percentile(1.0), 0);
        assert_eq!(h.percentile(0.5), 0);
    }

    #[test]
    fn ring_drop_counts_are_per_kind() {
        let mut t = Telemetry::new(TelemetryConfig {
            enabled: true,
            ring_capacity: 2,
            epoch_every: 0,
        });
        t.emit(1, EventKind::Dispatch { slow: false });
        t.emit(2, EventKind::Epoch { seq: 0 });
        t.emit(3, EventKind::Epoch { seq: 1 }); // drops the dispatch
        t.emit(4, EventKind::Epoch { seq: 2 }); // drops epoch 0
        assert_eq!(t.dropped(), 2);
        assert_eq!(t.dropped_by_kind().get("dispatch"), Some(&1));
        assert_eq!(t.dropped_by_kind().get("epoch"), Some(&1));
        assert_eq!(t.dropped_by_kind().values().sum::<u64>(), t.dropped());
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let mut t = Telemetry::new(TelemetryConfig {
            enabled: true,
            ring_capacity: 2,
            epoch_every: 0,
        });
        t.emit(1, EventKind::Dispatch { slow: false });
        t.emit(2, EventKind::Dispatch { slow: true });
        t.emit(3, EventKind::Epoch { seq: 0 });
        assert_eq!(t.dropped(), 1);
        let cycles: Vec<u64> = t.events().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![2, 3]);
    }

    #[test]
    fn disabled_sink_is_inert() {
        let mut t = Telemetry::new(TelemetryConfig::disabled());
        t.emit(1, EventKind::Dispatch { slow: false });
        t.record(HistPath::Fetch, 99);
        assert!(!t.guard_tick());
        t.snapshot(5, &[DsStats::default()], NetStats::default());
        assert_eq!(t.events().count(), 0);
        assert_eq!(t.hist(HistPath::Fetch).count(), 0);
        assert!(t.epochs().is_empty());
    }

    #[test]
    fn epoch_snapshots_are_deltas() {
        let mut t = Telemetry::new(TelemetryConfig::default());
        let s1 = DsStats {
            hits: 10,
            misses: 4,
            ..Default::default()
        };
        t.snapshot(
            100,
            &[s1],
            NetStats {
                fetches: 4,
                ..Default::default()
            },
        );
        let s2 = DsStats {
            hits: 25,
            misses: 5,
            ..Default::default()
        };
        t.snapshot(
            200,
            &[s2],
            NetStats {
                fetches: 9,
                ..Default::default()
            },
        );
        assert_eq!(t.epochs().len(), 2);
        assert_eq!(t.epochs()[0].ds[0].hits, 10);
        assert_eq!(t.epochs()[1].ds[0].hits, 15);
        assert_eq!(t.epochs()[1].ds[0].misses, 1);
        assert_eq!(t.epochs()[1].net.fetches, 5);
        assert_eq!(t.epochs()[1].seq, 1);
    }

    #[test]
    fn json_escaping() {
        let s = json::object(|o| {
            o.field("why", "a\"b\\c\nd\u{1}");
        });
        assert_eq!(s, "{\"why\":\"a\\\"b\\\\c\\nd\\u0001\"}");
    }
}
