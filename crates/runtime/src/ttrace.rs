//! Causal request tracing: span lifecycles from guard to wire, plus an
//! always-on bounded flight recorder.
//!
//! Every remote operation the runtime performs (a guarded deref that
//! misses, a direct access that spills, an allocation that evicts, an
//! explicit flush) becomes one **span tree**: a root span for the
//! operation, interior spans for each runtime phase it passed through
//! (localize, evict-for-space, writeback, journal replay, spill), and leaf
//! spans for every wire interaction (successful transfers, failed attempts,
//! backoff sleeps, breaker transitions). Span cycles are the runtime's
//! *modeled* cycle deltas, so two identical runs produce byte-identical
//! trees — trace exports are a difftest oracle, exactly like the PR 5
//! attribution profile.
//!
//! Design constraints, in order:
//!
//! 1. **Zero-allocation hit path.** `op_begin` only stages a pending root
//!    (a handful of field writes); the tree is materialized lazily on the
//!    first child span. A guarded deref that hits locally stages and
//!    discards its pending root without ever allocating.
//! 2. **Cross-sum invariant by construction.** A span's *self* cycles are
//!    its total minus its children's totals; the per-phase breakdown sums
//!    self cycles by span kind, so phases sum exactly to the root total.
//!    A child sum exceeding its parent's total is an attribution bug and
//!    fires the `cross_sum_violation` anomaly trigger.
//! 3. **Bounded always-on recording.** Completed trees land in a ring of
//!    the last [`TraceConfig::ring_capacity`] trees — that ring *is* the
//!    flight recorder. When an anomaly trigger fires (retry storm, breaker
//!    open, thrash re-solve, cross-sum violation, p99 spike) the ring is
//!    snapshotted into a [`FlightSnapshot`]; embedders (the CLI) render
//!    snapshots to `FLIGHT_*.json` files. The runtime itself never touches
//!    the filesystem.

use std::collections::VecDeque;

use cards_net::json::Obj;
use cards_net::{Histogram, TraceContext};

/// Tracing knobs, carried inside
/// [`RuntimeConfig`](crate::config::RuntimeConfig).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceConfig {
    /// Master switch; when false every tracer call is a no-op.
    pub enabled: bool,
    /// Completed span trees retained in the flight-recorder ring.
    pub ring_capacity: usize,
    /// Retry leaves in one operation at (or above) which the
    /// `retry_storm` anomaly fires.
    pub retry_storm_threshold: u32,
    /// An operation whose total is at least this multiple of the rolling
    /// p99 baseline fires the `p99_spike` anomaly.
    pub p99_spike_mult: u64,
    /// Failover leaves across the last [`TraceConfig::failover_storm_window`]
    /// completed remote operations at (or above) which the `failover_storm`
    /// anomaly fires — a shard ping-ponging through takeovers.
    pub failover_storm_threshold: u32,
    /// Rolling window (in completed remote operations) over which failover
    /// leaves are summed for storm detection.
    pub failover_storm_window: u64,
    /// Minimum completed remote operations before the p99 baseline is
    /// considered meaningful (no spike detection below this).
    pub p99_window: u64,
    /// Max flight snapshots retained (first-N; later triggers are counted
    /// but not snapshotted, keeping memory bounded under a trigger storm).
    pub max_snapshots: usize,
    /// Max spans recorded in one operation's tree. Spans past the cap are
    /// counted ([`Tracer::dropped_spans`]) and swallowed with their `end`s,
    /// bounding per-operation memory under a retry storm and keeping the
    /// `u32` span ids from ever truncating.
    pub max_spans_per_tree: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            enabled: true,
            ring_capacity: 64,
            retry_storm_threshold: 8,
            p99_spike_mult: 8,
            failover_storm_threshold: 3,
            failover_storm_window: 32,
            p99_window: 64,
            max_snapshots: 4,
            max_spans_per_tree: 4096,
        }
    }
}

impl TraceConfig {
    /// Tracing fully off.
    pub fn disabled() -> Self {
        TraceConfig {
            enabled: false,
            ..Default::default()
        }
    }
}

/// What one span covers. Root kinds are the runtime's public entry points;
/// interior kinds are the fault-path phases; leaf kinds are wire-level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanKind {
    /// Root: a guarded deref (`cards_deref`) that went remote.
    Guard,
    /// Root: a direct read/write that localized or spilled.
    Access,
    /// Root: a pool allocation that had to evict or place remotely.
    Alloc,
    /// Root: a free that removed remote objects.
    Free,
    /// Root: an explicit evacuation.
    Evacuate,
    /// Root: an explicit writeback flush.
    FlushWritebacks,
    /// Interior: fetching a missed object into local memory.
    Localize,
    /// Interior: evicting a resident object to make room.
    Evict,
    /// Interior: writing a dirty object back to the server.
    Writeback,
    /// Interior: speculative prefetch of one object.
    Prefetch,
    /// Interior: serving an access directly against the remote tier.
    Spill,
    /// Interior: re-putting a journaled payload the server lost.
    JournalReplay,
    /// Leaf: one successful wire transfer (fetch/put/remove).
    Wire,
    /// Leaf: one journal flush acknowledged by the server.
    Flush,
    /// Leaf: one failed transport attempt (costs a wasted RTT).
    Retry,
    /// Leaf: one backoff sleep between attempts.
    Backoff,
    /// Leaf: a circuit-breaker state transition observed mid-operation.
    Breaker,
    /// Leaf: an epoch-fenced takeover (backup promoted to primary) this
    /// client performed while the operation was in flight.
    Failover,
    /// Leaf: a hedged fetch raced against the backup replica.
    Hedge,
}

impl SpanKind {
    /// All kinds, in stable export/breakdown order.
    pub const ALL: [SpanKind; 19] = [
        SpanKind::Guard,
        SpanKind::Access,
        SpanKind::Alloc,
        SpanKind::Free,
        SpanKind::Evacuate,
        SpanKind::FlushWritebacks,
        SpanKind::Localize,
        SpanKind::Evict,
        SpanKind::Writeback,
        SpanKind::Prefetch,
        SpanKind::Spill,
        SpanKind::JournalReplay,
        SpanKind::Wire,
        SpanKind::Flush,
        SpanKind::Retry,
        SpanKind::Backoff,
        SpanKind::Breaker,
        SpanKind::Failover,
        SpanKind::Hedge,
    ];

    /// Stable snake_case name used by exporters and phase tables.
    pub fn name(&self) -> &'static str {
        match self {
            SpanKind::Guard => "guard",
            SpanKind::Access => "access",
            SpanKind::Alloc => "alloc",
            SpanKind::Free => "free",
            SpanKind::Evacuate => "evacuate",
            SpanKind::FlushWritebacks => "flush_writebacks",
            SpanKind::Localize => "localize",
            SpanKind::Evict => "evict",
            SpanKind::Writeback => "writeback",
            SpanKind::Prefetch => "prefetch",
            SpanKind::Spill => "spill",
            SpanKind::JournalReplay => "journal_replay",
            SpanKind::Wire => "wire",
            SpanKind::Flush => "flush",
            SpanKind::Retry => "retry",
            SpanKind::Backoff => "backoff",
            SpanKind::Breaker => "breaker",
            SpanKind::Failover => "failover",
            SpanKind::Hedge => "hedge",
        }
    }

    fn idx(&self) -> usize {
        Self::ALL.iter().position(|k| k == self).unwrap()
    }
}

/// One node of a span tree. Spans are stored in creation order inside
/// their [`TraceTree`]; `parent` indexes into that vector (the root is
/// span 0 and has no parent).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Index of the parent span within the tree; `None` only for the root.
    pub parent: Option<u32>,
    /// What this span covers.
    pub kind: SpanKind,
    /// DS handle the span concerns.
    pub ds: u16,
    /// Object index the span concerns.
    pub index: u64,
    /// Total modeled cycles, including children (set when the span ends).
    pub cycles: u64,
    /// Retry attempt number for `Retry`/`Backoff` leaves (1-based), else 0.
    pub attempt: u32,
    /// Static detail (breaker transitions: `"closed->open"` etc.).
    pub detail: &'static str,
}

/// One completed causal span tree: a single remote operation from its
/// guard (or other entry point) down to every wire interaction it caused.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceTree {
    /// Trace id (unique, monotonically assigned per materialized tree).
    pub trace: u64,
    /// Modeled cycle clock when the operation began.
    pub start: u64,
    /// Compiler guard site that issued the operation, when known.
    pub site: Option<u32>,
    /// Spans in creation order; `spans[0]` is the root.
    pub spans: Vec<Span>,
}

impl TraceTree {
    /// The root span.
    pub fn root(&self) -> &Span {
        &self.spans[0]
    }

    /// Direct children of span `i`, in creation order.
    pub fn children(&self, i: u32) -> impl Iterator<Item = (u32, &Span)> {
        self.spans
            .iter()
            .enumerate()
            .filter(move |(_, s)| s.parent == Some(i))
            .map(|(j, s)| (j as u32, s))
    }

    /// Self cycles of span `i`: its total minus its children's totals
    /// (saturating, so a cross-sum violation reads as 0 self, not wrap).
    pub fn self_cycles(&self, i: u32) -> u64 {
        let child_sum: u64 = self.children(i).map(|(_, s)| s.cycles).sum();
        self.spans[i as usize].cycles.saturating_sub(child_sum)
    }

    /// Per-phase cycle breakdown: self cycles summed by span kind, in
    /// [`SpanKind::ALL`] order, zero-kinds skipped. Sums exactly to the
    /// root total by construction (when the cross-sum invariant holds).
    pub fn phase_breakdown(&self) -> Vec<(SpanKind, u64)> {
        let mut by_kind = [0u64; SpanKind::ALL.len()];
        for i in 0..self.spans.len() as u32 {
            by_kind[self.spans[i as usize].kind.idx()] += self.self_cycles(i);
        }
        SpanKind::ALL
            .iter()
            .zip(by_kind)
            .filter(|(_, c)| *c > 0)
            .map(|(k, c)| (*k, c))
            .collect()
    }

    /// The critical path: from the root, repeatedly descend into the most
    /// expensive child. Returns span indices, root first.
    pub fn critical_path(&self) -> Vec<u32> {
        let mut path = vec![0u32];
        let mut cur = 0u32;
        loop {
            let next = self
                .children(cur)
                .max_by_key(|(j, s)| (s.cycles, std::cmp::Reverse(*j)));
            match next {
                Some((j, s)) if s.cycles > 0 => {
                    path.push(j);
                    cur = j;
                }
                _ => return path,
            }
        }
    }

    /// Count spans of one kind.
    pub fn count_kind(&self, kind: SpanKind) -> usize {
        self.spans.iter().filter(|s| s.kind == kind).count()
    }

    /// Validate structural invariants: every non-root span has a valid
    /// earlier parent, the root has none, and no span's children sum to
    /// more than its own total (the cross-sum invariant).
    pub fn validate(&self) -> Result<(), String> {
        if self.spans.is_empty() {
            return Err("empty tree".into());
        }
        if self.spans[0].parent.is_some() {
            return Err("root has a parent".into());
        }
        for (i, s) in self.spans.iter().enumerate().skip(1) {
            match s.parent {
                None => return Err(format!("span {i} has no parent")),
                Some(p) if (p as usize) >= i => {
                    return Err(format!("span {i} parent {p} not earlier"));
                }
                Some(_) => {}
            }
        }
        for i in 0..self.spans.len() as u32 {
            let child_sum: u64 = self.children(i).map(|(_, s)| s.cycles).sum();
            if child_sum > self.spans[i as usize].cycles {
                return Err(format!(
                    "span {i} children sum {child_sum} > total {}",
                    self.spans[i as usize].cycles
                ));
            }
        }
        Ok(())
    }
}

/// One fired anomaly trigger.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceTrigger {
    /// Stable reason name (`retry_storm`, `failover_storm`, `breaker_open`,
    /// `thrash_resolve`,
    /// `cross_sum_violation`, `p99_spike`).
    pub reason: &'static str,
    /// Modeled cycle clock when the trigger fired.
    pub cycle: u64,
    /// Trace id of the operation that fired it (0 for external triggers
    /// that fire between operations).
    pub trace: u64,
}

/// A flight-recorder snapshot: the trigger that fired it plus a clone of
/// the recent-tree ring at that moment. Rendered to `FLIGHT_*.json` by the
/// CLI; the runtime only assembles it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlightSnapshot {
    /// Why the snapshot was taken.
    pub trigger: TraceTrigger,
    /// The last completed span trees at trigger time, oldest first.
    pub trees: Vec<TraceTree>,
}

/// A staged root that has not allocated yet (hit-path fast case).
#[derive(Clone, Copy)]
struct PendingRoot {
    kind: SpanKind,
    ds: u16,
    index: u64,
    site: Option<u32>,
    start: u64,
}

/// The causal tracer owned by
/// [`FarMemRuntime`](crate::runtime::FarMemRuntime).
#[derive(Default)]
pub struct Tracer {
    cfg: TraceConfig,
    next_trace: u64,
    /// Root staged by `op_begin`, not yet materialized.
    pending: Option<PendingRoot>,
    /// The tree under construction, if any child span materialized it.
    cur: Option<TraceTree>,
    /// Open span indices into `cur.spans` (innermost last).
    stack: Vec<u32>,
    /// `begin` calls arriving with no active operation (paired `end`s are
    /// swallowed too); happens only for code paths outside any root.
    skip_depth: u32,
    /// While > 0, spans and leaves are swallowed even inside an operation.
    /// Used for work whose cycles are charged out-of-band (not part of the
    /// operation's total), which would otherwise break the cross-sum
    /// invariant.
    paused: u32,
    /// Nested `op_begin` depth guard (roots never nest in practice).
    op_depth: u32,
    /// Last-N completed trees: the flight recorder.
    ring: VecDeque<TraceTree>,
    /// Operations that completed without any remote activity (their
    /// pending root was discarded unallocated).
    local_ops: u64,
    /// Materialized (remote) operations completed.
    remote_ops: u64,
    /// Operations abandoned mid-flight (error unwound past `op_end`).
    abandoned: u64,
    /// Rolling baseline of root totals for p99-spike detection.
    root_hist: Histogram,
    /// Failover-leaf counts of the last `failover_storm_window` completed
    /// remote operations (storm detection), plus their running sum.
    recent_failovers: VecDeque<u32>,
    recent_failover_sum: u64,
    /// Cumulative self-cycles by span kind across ALL completed remote
    /// operations (not just the retained ring) — the `ttrace diff` input.
    phase_totals: [u64; SpanKind::ALL.len()],
    /// Per guard-site (ops, cycles) across all completed remote operations.
    site_totals: std::collections::BTreeMap<u32, (u64, u64)>,
    /// (ops, cycles) of remote operations with no attributed site.
    unsited: (u64, u64),
    /// All fired triggers, in order.
    triggers: Vec<TraceTrigger>,
    /// Snapshots taken for the first `max_snapshots` triggers.
    snapshots: Vec<FlightSnapshot>,
    /// Spans swallowed because a tree hit `max_spans_per_tree`.
    dropped_spans: u64,
}

impl Tracer {
    /// Create a tracer with the given knobs.
    pub fn new(cfg: TraceConfig) -> Self {
        Tracer {
            cfg,
            ..Default::default()
        }
    }

    /// Whether tracing is collecting.
    pub fn enabled(&self) -> bool {
        self.cfg.enabled
    }

    /// The configuration this tracer was built with.
    pub fn config(&self) -> TraceConfig {
        self.cfg
    }

    /// Stage a new operation root. Stages only — no allocation happens
    /// until a child span (or leaf) materializes the tree. An `op_begin`
    /// arriving while an operation is still open (an error unwound past
    /// its `op_end`) abandons the stale operation first.
    pub fn op_begin(&mut self, kind: SpanKind, ds: u16, index: u64, site: Option<u32>, now: u64) {
        if !self.cfg.enabled {
            return;
        }
        if self.op_depth > 0 {
            self.abandon();
        }
        // Stale skip entries from an error that unwound outside any
        // operation must not swallow this operation's `end`s.
        self.skip_depth = 0;
        self.op_depth = 1;
        self.pending = Some(PendingRoot {
            kind,
            ds,
            index,
            site,
            start: now,
        });
    }

    /// Complete the current operation with its total modeled cycles. A
    /// still-pending (never materialized) root is discarded as a local
    /// operation; a materialized tree is finalized, checked for anomalies,
    /// and pushed into the flight-recorder ring.
    pub fn op_end(&mut self, total_cycles: u64, now: u64) {
        if !self.cfg.enabled || self.op_depth == 0 {
            return;
        }
        self.op_depth = 0;
        self.skip_depth = 0;
        if self.cur.is_none() {
            self.pending = None;
            self.local_ops += 1;
            return;
        }
        let mut tree = self.cur.take().expect("checked above");
        self.stack.clear();
        tree.spans[0].cycles = total_cycles;
        self.remote_ops += 1;
        // Cumulative aggregates survive ring eviction (diff/export input).
        // Saturating: a long-lived serving worker must degrade to a pinned
        // ceiling, never wrap and corrupt the diff baseline.
        for i in 0..tree.spans.len() as u32 {
            let slot = &mut self.phase_totals[tree.spans[i as usize].kind.idx()];
            *slot = slot.saturating_add(tree.self_cycles(i));
        }
        match tree.site {
            Some(s) => {
                let e = self.site_totals.entry(s).or_insert((0, 0));
                e.0 = e.0.saturating_add(1);
                e.1 = e.1.saturating_add(total_cycles);
            }
            None => {
                self.unsited.0 = self.unsited.0.saturating_add(1);
                self.unsited.1 = self.unsited.1.saturating_add(total_cycles);
            }
        }
        // Anomaly checks, then fold the total into the rolling baseline.
        let trace = tree.trace;
        let retries = tree.count_kind(SpanKind::Retry) as u32;
        let failovers = tree.count_kind(SpanKind::Failover) as u32;
        let cross_sum_ok = tree.validate().is_ok();
        let spike = self.root_hist.count() >= self.cfg.p99_window
            && self.cfg.p99_spike_mult > 0
            && total_cycles >= self.root_hist.p99().saturating_mul(self.cfg.p99_spike_mult);
        self.root_hist.record(total_cycles);
        self.push_tree(tree);
        if self.cfg.retry_storm_threshold > 0 && retries >= self.cfg.retry_storm_threshold {
            self.fire("retry_storm", now, trace);
        }
        if !cross_sum_ok {
            self.fire("cross_sum_violation", now, trace);
        }
        if spike {
            self.fire("p99_spike", now, trace);
        }
        // Failover storm: takeovers summed over a rolling window of recent
        // operations — one failover is recovery, repeated failovers are a
        // shard ping-ponging and worth a flight snapshot.
        if self.cfg.failover_storm_threshold > 0 && self.cfg.failover_storm_window > 0 {
            self.recent_failovers.push_back(failovers);
            self.recent_failover_sum += failovers as u64;
            while self.recent_failovers.len() as u64 > self.cfg.failover_storm_window {
                let old = self.recent_failovers.pop_front().expect("nonempty");
                self.recent_failover_sum -= old as u64;
            }
            if failovers > 0 && self.recent_failover_sum >= self.cfg.failover_storm_threshold as u64
            {
                self.fire("failover_storm", now, trace);
            }
        }
    }

    /// Count an operation that completes without remote activity, exactly
    /// as `op_begin` followed at once by `op_end` would: a dangling
    /// operation is abandoned first, and no root is staged.
    #[inline]
    pub fn local_op(&mut self) {
        if !self.cfg.enabled {
            return;
        }
        if self.op_depth > 0 {
            self.abandon();
        }
        self.skip_depth = 0;
        self.local_ops += 1;
    }

    /// Open a child span under the current operation. Materializes the
    /// pending root on first use. A `begin` with no operation active is
    /// swallowed (its matching `end` too).
    pub fn begin(&mut self, kind: SpanKind, ds: u16, index: u64) {
        if !self.cfg.enabled {
            return;
        }
        if self.op_depth == 0 || self.paused > 0 {
            self.skip_depth += 1;
            return;
        }
        self.materialize();
        let tree = self.cur.as_mut().expect("materialized above");
        if tree.spans.len() >= self.cfg.max_spans_per_tree {
            // Swallow this span and its matching `end` — same mechanism as
            // an out-of-operation begin.
            self.dropped_spans = self.dropped_spans.saturating_add(1);
            self.skip_depth += 1;
            return;
        }
        let parent = self.stack.last().copied().unwrap_or(0);
        let id = tree.spans.len() as u32;
        tree.spans.push(Span {
            parent: Some(parent),
            kind,
            ds,
            index,
            cycles: 0,
            attempt: 0,
            detail: "",
        });
        self.stack.push(id);
    }

    /// Close the innermost open span with its total modeled cycles.
    pub fn end(&mut self, cycles: u64) {
        if !self.cfg.enabled {
            return;
        }
        if self.skip_depth > 0 {
            self.skip_depth -= 1;
            return;
        }
        let Some(id) = self.stack.pop() else { return };
        if let Some(tree) = self.cur.as_mut() {
            tree.spans[id as usize].cycles = cycles;
        }
    }

    /// Record a leaf span (opened and closed in one step).
    pub fn leaf(&mut self, kind: SpanKind, ds: u16, index: u64, cycles: u64, attempt: u32) {
        self.leaf_detail(kind, ds, index, cycles, attempt, "");
    }

    /// Record a leaf span carrying a static detail string.
    pub fn leaf_detail(
        &mut self,
        kind: SpanKind,
        ds: u16,
        index: u64,
        cycles: u64,
        attempt: u32,
        detail: &'static str,
    ) {
        if !self.cfg.enabled || self.op_depth == 0 || self.paused > 0 {
            return;
        }
        self.materialize();
        let tree = self.cur.as_mut().expect("materialized above");
        if tree.spans.len() >= self.cfg.max_spans_per_tree {
            self.dropped_spans = self.dropped_spans.saturating_add(1);
            return;
        }
        let parent = self.stack.last().copied().unwrap_or(0);
        tree.spans.push(Span {
            parent: Some(parent),
            kind,
            ds,
            index,
            cycles,
            attempt,
            detail,
        });
    }

    /// The wire-level trace context for the operation in flight: the trace
    /// id plus the innermost open span (the causal parent of whatever the
    /// transport is about to do). [`TraceContext::NONE`] when idle — but a
    /// staged root is materialized first, so every wire op under a traced
    /// operation is attributable.
    pub fn context(&mut self) -> TraceContext {
        if !self.cfg.enabled || self.op_depth == 0 || self.paused > 0 {
            return TraceContext::NONE;
        }
        self.materialize();
        let tree = self.cur.as_ref().expect("materialized above");
        TraceContext {
            trace: tree.trace,
            span: self.stack.last().copied().unwrap_or(0),
        }
    }

    /// Suspend span collection: until the matching [`Self::unpause`],
    /// `begin`/`end`/`leaf` are swallowed and `context` reports untraced.
    /// For work whose cycles are charged outside the current operation's
    /// total (it would break the cross-sum invariant if recorded). Nests.
    pub fn pause(&mut self) {
        self.paused += 1;
    }

    /// Resume span collection after [`Self::pause`].
    pub fn unpause(&mut self) {
        self.paused = self.paused.saturating_sub(1);
    }

    /// Fire an external anomaly trigger (breaker open, thrash re-solve).
    pub fn trigger(&mut self, reason: &'static str, now: u64) {
        if !self.cfg.enabled {
            return;
        }
        let trace = self.cur.as_ref().map_or(0, |t| t.trace);
        self.fire(reason, now, trace);
    }

    fn fire(&mut self, reason: &'static str, cycle: u64, trace: u64) {
        let trig = TraceTrigger {
            reason,
            cycle,
            trace,
        };
        if self.snapshots.len() < self.cfg.max_snapshots {
            self.snapshots.push(FlightSnapshot {
                trigger: trig.clone(),
                trees: self.ring.iter().cloned().collect(),
            });
        }
        self.triggers.push(trig);
    }

    fn materialize(&mut self) {
        if self.cur.is_some() {
            return;
        }
        let root = self.pending.take().expect("op_begin stages a root first");
        // Trace id 0 is `TraceContext::NONE` (untraced); ids start at 1.
        self.next_trace += 1;
        let trace = self.next_trace;
        self.cur = Some(TraceTree {
            trace,
            start: root.start,
            site: root.site,
            spans: vec![Span {
                parent: None,
                kind: root.kind,
                ds: root.ds,
                index: root.index,
                cycles: 0,
                attempt: 0,
                detail: "",
            }],
        });
        self.stack.clear();
    }

    fn abandon(&mut self) {
        self.pending = None;
        if self.cur.take().is_some() {
            self.abandoned += 1;
        }
        self.stack.clear();
        self.skip_depth = 0;
        self.op_depth = 0;
    }

    fn push_tree(&mut self, tree: TraceTree) {
        if self.cfg.ring_capacity == 0 {
            return;
        }
        if self.ring.len() >= self.cfg.ring_capacity {
            self.ring.pop_front();
        }
        self.ring.push_back(tree);
    }

    // ---- introspection ----

    /// Completed span trees still in the flight-recorder ring, oldest
    /// first.
    pub fn trees(&self) -> impl Iterator<Item = &TraceTree> {
        self.ring.iter()
    }

    /// Operations that completed without remote activity.
    pub fn local_ops(&self) -> u64 {
        self.local_ops
    }

    /// Remote (materialized) operations completed.
    pub fn remote_ops(&self) -> u64 {
        self.remote_ops
    }

    /// Operations abandoned mid-flight by error unwinding.
    pub fn abandoned_ops(&self) -> u64 {
        self.abandoned
    }

    /// Spans swallowed because a tree hit
    /// [`TraceConfig::max_spans_per_tree`].
    pub fn dropped_spans(&self) -> u64 {
        self.dropped_spans
    }

    /// All fired anomaly triggers, in firing order.
    pub fn triggers(&self) -> &[TraceTrigger] {
        &self.triggers
    }

    /// Flight snapshots (first [`TraceConfig::max_snapshots`] triggers).
    pub fn snapshots(&self) -> &[FlightSnapshot] {
        &self.snapshots
    }

    /// The rolling baseline histogram of remote-operation totals.
    pub fn baseline(&self) -> &Histogram {
        &self.root_hist
    }

    /// Cumulative per-phase self-cycles across all completed remote
    /// operations, in [`SpanKind::ALL`] order.
    pub fn phase_totals(&self) -> impl Iterator<Item = (SpanKind, u64)> + '_ {
        SpanKind::ALL
            .iter()
            .map(|k| (*k, self.phase_totals[k.idx()]))
    }

    /// Cumulative (ops, cycles) per guard site, sorted by site id.
    pub fn site_totals(&self) -> impl Iterator<Item = (u32, u64, u64)> + '_ {
        self.site_totals.iter().map(|(s, (o, c))| (*s, *o, *c))
    }

    /// (ops, cycles) of remote operations with no attributed guard site.
    pub fn unsited(&self) -> (u64, u64) {
        self.unsited
    }
}

// ---- JSON fragments (shared by the VM's trace and flight exporters) ----

/// One span tree as object members.
pub fn tree_fields(o: &mut Obj<'_>, t: &TraceTree) {
    o.field("trace", t.trace)
        .field("start", t.start)
        .field("site", t.site)
        .arr("spans", |a| {
            for (i, s) in t.spans.iter().enumerate() {
                a.obj(|o| {
                    o.field("id", i)
                        .field("parent", s.parent)
                        .field("kind", s.kind.name())
                        .field("ds", s.ds)
                        .field("index", s.index)
                        .field("cycles", s.cycles)
                        .field("self", t.self_cycles(i as u32));
                    if s.attempt > 0 {
                        o.field("attempt", s.attempt);
                    }
                    if !s.detail.is_empty() {
                        o.field("detail", s.detail);
                    }
                });
            }
        })
        .obj("phases", |o| {
            for (k, c) in t.phase_breakdown() {
                o.field(k.name(), c);
            }
        })
        .arr("critical_path", |a| {
            for id in t.critical_path() {
                a.item(id);
            }
        });
}

/// One trigger as object members.
pub fn trigger_fields(o: &mut Obj<'_>, t: &TraceTrigger) {
    o.field("reason", t.reason)
        .field("cycle", t.cycle)
        .field("trace", t.trace);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traced() -> Tracer {
        Tracer::new(TraceConfig::default())
    }

    #[test]
    fn hit_path_discards_pending_without_allocating() {
        let mut t = traced();
        t.op_begin(SpanKind::Guard, 1, 2, Some(7), 100);
        t.op_end(378, 478);
        assert_eq!(t.local_ops(), 1);
        assert_eq!(t.remote_ops(), 0);
        assert_eq!(t.trees().count(), 0);
    }

    /// `local_op` is `op_begin` + `op_end` without staging a root, from
    /// every state a tracer can be in between operations.
    #[test]
    fn local_op_matches_an_empty_operation() {
        let counts = |t: &Tracer| (t.local_ops(), t.remote_ops(), t.abandoned_ops());
        let states: [fn(&mut Tracer); 4] = [
            |_| {},
            // A staged root left dangling by an error.
            |t| t.op_begin(SpanKind::Access, 1, 2, None, 5),
            // A materialized tree left dangling by an error.
            |t| {
                t.op_begin(SpanKind::Guard, 1, 2, Some(3), 5);
                t.begin(SpanKind::Localize, 1, 2);
            },
            // A `begin` outside any operation, whose `end` never came.
            |t| t.begin(SpanKind::Spill, 1, 2),
        ];
        for cfg in [TraceConfig::default(), TraceConfig::disabled()] {
            for setup in states {
                let (mut a, mut b) = (Tracer::new(cfg), Tracer::new(cfg));
                setup(&mut a);
                setup(&mut b);
                a.local_op();
                b.op_begin(SpanKind::Access, 1, 2, None, 9);
                b.op_end(0, 9);
                assert_eq!(counts(&a), counts(&b));
                // The next operation sees the same tracer either way.
                for t in [&mut a, &mut b] {
                    t.op_begin(SpanKind::Guard, 0, 1, None, 10);
                    t.begin(SpanKind::Localize, 0, 1);
                    t.leaf(SpanKind::Wire, 0, 1, 7, 0);
                    t.end(7);
                    t.op_end(9, 19);
                }
                assert_eq!(counts(&a), counts(&b));
                assert_eq!(a.trees().collect::<Vec<_>>(), b.trees().collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn miss_materializes_a_tree_with_phases_summing_to_total() {
        let mut t = traced();
        t.op_begin(SpanKind::Guard, 1, 2, Some(7), 0);
        t.begin(SpanKind::Localize, 1, 2);
        t.leaf(SpanKind::Retry, 1, 2, 1_000, 1);
        t.leaf(SpanKind::Backoff, 1, 2, 500, 1);
        t.leaf(SpanKind::Wire, 1, 2, 46_000, 0);
        t.end(47_500);
        t.op_end(60_500, 60_500);
        let tree = t.trees().next().unwrap().clone();
        tree.validate().unwrap();
        assert_eq!(tree.root().cycles, 60_500);
        assert_eq!(tree.site, Some(7));
        let phases: u64 = tree.phase_breakdown().iter().map(|(_, c)| c).sum();
        assert_eq!(phases, 60_500, "phase self-cycles sum to the root total");
        // guard self = 60500-47500, localize self = 47500-47500
        let guard_self = tree
            .phase_breakdown()
            .iter()
            .find(|(k, _)| *k == SpanKind::Guard)
            .unwrap()
            .1;
        assert_eq!(guard_self, 13_000);
        // Critical path descends into the most expensive child chain.
        let cp = tree.critical_path();
        assert_eq!(cp[0], 0);
        assert_eq!(tree.spans[cp[1] as usize].kind, SpanKind::Localize);
        assert_eq!(
            tree.spans[*cp.last().unwrap() as usize].kind,
            SpanKind::Wire
        );
    }

    #[test]
    fn ring_is_bounded() {
        let mut t = Tracer::new(TraceConfig {
            ring_capacity: 2,
            ..Default::default()
        });
        for i in 0..5u64 {
            t.op_begin(SpanKind::Guard, 0, i, None, i);
            t.leaf(SpanKind::Wire, 0, i, 10, 0);
            t.op_end(10, i);
        }
        assert_eq!(t.trees().count(), 2);
        assert_eq!(t.remote_ops(), 5);
        let ids: Vec<u64> = t.trees().map(|tr| tr.trace).collect();
        assert_eq!(ids, vec![4, 5], "oldest trees dropped first");
    }

    #[test]
    fn span_cap_swallows_overflow_and_counts_drops() {
        let mut t = Tracer::new(TraceConfig {
            max_spans_per_tree: 4,
            ..Default::default()
        });
        t.op_begin(SpanKind::Guard, 0, 0, None, 0);
        // Root + 3 children fill the tree; everything past is dropped.
        t.begin(SpanKind::Localize, 0, 0);
        t.leaf(SpanKind::Wire, 0, 0, 10, 0);
        t.leaf(SpanKind::Retry, 0, 0, 5, 1); // 4th span: at cap
        for a in 0..20 {
            t.leaf(SpanKind::Retry, 0, 0, 5, a); // dropped
        }
        t.begin(SpanKind::Evict, 0, 1); // dropped, with its end
        t.end(3);
        t.end(40);
        t.op_end(50, 50);
        assert_eq!(t.dropped_spans(), 21);
        let tree = t.trees().next().unwrap();
        assert_eq!(tree.spans.len(), 4);
        // The swallowed Evict's `end` must not have closed Localize early:
        // Localize keeps the cycles from its own `end`.
        assert_eq!(tree.spans[1].kind, SpanKind::Localize);
        assert_eq!(tree.spans[1].cycles, 40);
        tree.validate().unwrap();
    }

    #[test]
    fn retry_storm_fires_and_snapshots() {
        let mut t = Tracer::new(TraceConfig {
            retry_storm_threshold: 3,
            ..Default::default()
        });
        t.op_begin(SpanKind::Guard, 0, 0, None, 0);
        for a in 1..=3 {
            t.leaf(SpanKind::Retry, 0, 0, 100, a);
        }
        t.leaf(SpanKind::Wire, 0, 0, 46_000, 0);
        t.op_end(50_000, 50_000);
        assert_eq!(t.triggers().len(), 1);
        assert_eq!(t.triggers()[0].reason, "retry_storm");
        assert_eq!(t.snapshots().len(), 1);
        assert_eq!(
            t.snapshots()[0].trees.len(),
            1,
            "snapshot sees the tree that fired it"
        );
    }

    #[test]
    fn failover_storm_fires_over_a_rolling_window() {
        let mut t = Tracer::new(TraceConfig {
            failover_storm_threshold: 3,
            failover_storm_window: 8,
            ..Default::default()
        });
        // One failover per op: recovery, not a storm — until the rolling
        // sum reaches the threshold.
        for i in 0..2u64 {
            t.op_begin(SpanKind::Guard, 0, i, None, 0);
            t.leaf(SpanKind::Failover, 0, i, 0, 0);
            t.leaf(SpanKind::Wire, 0, i, 100, 0);
            t.op_end(100, 0);
        }
        assert!(t.triggers().is_empty(), "two takeovers in-window: no storm");
        t.op_begin(SpanKind::Guard, 0, 2, None, 0);
        t.leaf(SpanKind::Failover, 0, 2, 0, 0);
        t.leaf(SpanKind::Wire, 0, 2, 100, 0);
        t.op_end(100, 0);
        assert_eq!(t.triggers().len(), 1);
        assert_eq!(t.triggers()[0].reason, "failover_storm");
        // Quiet ops slide the window until the storm clears; the next
        // lone failover must not re-fire.
        for i in 3..12u64 {
            t.op_begin(SpanKind::Guard, 0, i, None, 0);
            t.leaf(SpanKind::Wire, 0, i, 100, 0);
            t.op_end(100, 0);
        }
        t.op_begin(SpanKind::Guard, 0, 12, None, 0);
        t.leaf(SpanKind::Failover, 0, 12, 0, 0);
        t.leaf(SpanKind::Wire, 0, 12, 100, 0);
        t.op_end(100, 0);
        assert_eq!(t.triggers().len(), 1, "window slid past the old storm");
    }

    #[test]
    fn p99_spike_needs_a_baseline() {
        let mut t = Tracer::new(TraceConfig {
            p99_window: 4,
            p99_spike_mult: 4,
            ..Default::default()
        });
        for i in 0..4u64 {
            t.op_begin(SpanKind::Guard, 0, i, None, 0);
            t.leaf(SpanKind::Wire, 0, i, 100, 0);
            t.op_end(100, 0);
        }
        assert!(t.triggers().is_empty());
        // 100x the baseline p99: spike.
        t.op_begin(SpanKind::Guard, 0, 9, None, 0);
        t.leaf(SpanKind::Wire, 0, 9, 10_000, 0);
        t.op_end(10_000, 0);
        assert_eq!(t.triggers().len(), 1);
        assert_eq!(t.triggers()[0].reason, "p99_spike");
    }

    #[test]
    fn context_carries_trace_and_parent_span() {
        let mut t = traced();
        assert_eq!(t.context(), TraceContext::NONE);
        t.op_begin(SpanKind::Guard, 0, 0, None, 0);
        t.begin(SpanKind::Localize, 0, 0);
        let ctx = t.context();
        assert!(ctx.is_traced());
        assert_eq!(ctx.span, 1, "innermost open span is the causal parent");
        t.end(10);
        t.op_end(10, 10);
    }

    #[test]
    fn orphan_begin_end_are_swallowed() {
        let mut t = traced();
        t.begin(SpanKind::Evict, 0, 0);
        t.end(50);
        assert_eq!(t.trees().count(), 0);
        // and a following real op is unaffected
        t.op_begin(SpanKind::Guard, 0, 0, None, 0);
        t.leaf(SpanKind::Wire, 0, 0, 10, 0);
        t.op_end(10, 10);
        assert_eq!(t.remote_ops(), 1);
    }

    #[test]
    fn disabled_tracer_is_inert() {
        let mut t = Tracer::new(TraceConfig::disabled());
        t.op_begin(SpanKind::Guard, 0, 0, None, 0);
        t.leaf(SpanKind::Wire, 0, 0, 10, 0);
        t.op_end(10, 10);
        t.trigger("breaker_open", 10);
        assert_eq!(t.remote_ops(), 0);
        assert!(t.triggers().is_empty());
        assert_eq!(t.context(), TraceContext::NONE);
    }

    #[test]
    fn tree_json_is_stable_and_wellformed() {
        let mut t = traced();
        t.op_begin(SpanKind::Guard, 1, 2, Some(3), 5);
        t.begin(SpanKind::Localize, 1, 2);
        t.leaf_detail(SpanKind::Breaker, 1, 0, 0, 0, "closed->open");
        t.leaf(SpanKind::Wire, 1, 2, 40, 0);
        t.end(40);
        t.op_end(60, 65);
        let tree = t.trees().next().unwrap();
        let s = cards_net::json::object(|o| tree_fields(o, tree));
        assert!(s.starts_with("{\"trace\":1,\"start\":5,\"site\":3,"));
        assert!(s.contains("\"kind\":\"localize\""));
        assert!(s.contains("\"detail\":\"closed->open\""));
        // Zero-cycle kinds are filtered from the breakdown.
        assert!(s.contains("\"phases\":{\"guard\":20,\"wire\":40}"));
        let s2 = cards_net::json::object(|o| tree_fields(o, tree));
        assert_eq!(s, s2);
    }
}
