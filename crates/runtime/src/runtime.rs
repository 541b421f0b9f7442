//! The CaRDS far-memory runtime: object-granular remote memory managed per
//! data structure (a reimplementation of the paper's modified-AIFM runtime).
//!
//! Responsibilities, mirroring §4.2 of the paper:
//! - `ds_init`/`ds_alloc`: register compiler-identified data structures and
//!   serve pool allocations, tagging pointers with the DS handle.
//! - `guard` (= `cards_deref`, Listing 4): custody check, handle → DS →
//!   object mapping, localization of remote objects, per-DS hit/miss stats.
//! - pinned vs. remotable local memory with clock eviction, plus the
//!   runtime-override rule (a pinned DS that outgrows pinned memory is
//!   demoted to remotable and its instrumented path is used from then on).
//! - per-DS prefetchers fed on the miss path, with batched fetches.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::ops::Range;

use cards_net::{NetError, ObjKey, SplitMix64, Transport};

use crate::config::RuntimeConfig;
use crate::farptr::FarPtr;
use crate::policy::{reassign_hints_online, DsLoad, HintChange};
use crate::prefetch::{build_prefetcher, PrefetchTarget, Prefetcher};
use crate::pressure::PressureSchedule;
use crate::profile::SiteProfiler;
use crate::spec::{DsSpec, StaticHint};
use crate::stats::{DsStats, RuntimeStats};
use crate::telemetry::{EventKind, HistPath, Telemetry};
use crate::ttrace::{SpanKind, Tracer};

/// Read or write access, for fault-cost selection and dirty tracking.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Access {
    /// Read access.
    Read,
    /// Write access.
    Write,
}

/// Runtime errors.
#[derive(Clone, Debug, PartialEq)]
pub enum RtError {
    /// Pointer is untagged but was used where a DS pointer is required.
    BadPointer(u64),
    /// Tag does not correspond to a registered DS.
    UnknownHandle(u16),
    /// Access beyond the DS's allocated range.
    OutOfRange {
        /// DS handle.
        ds: u16,
        /// Offending byte offset.
        offset: u64,
    },
    /// Strict mode: an unguarded access reached a non-resident object —
    /// the compiler failed to insert a required guard.
    MissingGuard {
        /// DS handle.
        ds: u16,
        /// Object index that was not resident.
        index: u64,
    },
    /// Transport failure that survived all retries.
    Net(NetError),
}

impl std::fmt::Display for RtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RtError::BadPointer(p) => write!(f, "untagged pointer {p:#x} passed to runtime"),
            RtError::UnknownHandle(h) => write!(f, "unknown DS handle {h}"),
            RtError::OutOfRange { ds, offset } => {
                write!(f, "offset {offset:#x} out of range for ds{ds}")
            }
            RtError::MissingGuard { ds, index } => write!(
                f,
                "unguarded access to non-resident object ds{ds}:{index} (compiler bug)"
            ),
            RtError::Net(e) => write!(f, "network: {e}"),
        }
    }
}

impl std::error::Error for RtError {}

/// State of one object within a DS.
enum ObjState {
    Local {
        data: Box<[u8]>,
        dirty: bool,
        pinned: bool,
        ref_bit: bool,
        /// Brought in by the prefetcher and not yet demanded.
        prefetched: bool,
        /// A (possibly stale) copy exists on the remote server.
        remote_copy: bool,
        /// Pinned by the circuit breaker (degraded mode), not by policy;
        /// released when the breaker closes again.
        breaker_pinned: bool,
    },
    Remote,
}

/// Per-DS circuit breaker: repeated remote failures demote the DS to
/// pinned-local operation until a cooldown re-probe succeeds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum BreakerState {
    /// Normal operation.
    Closed,
    /// Tripped: localized objects are pinned, prefetch is off, until the
    /// cycle clock passes `until` and a half-open probe runs.
    Open {
        /// Cycle at which the next remote op becomes a half-open probe.
        until: u64,
    },
    /// Cooldown expired: the next remote op's outcome decides
    /// (success → closed, failure → open again).
    HalfOpen,
}

impl BreakerState {
    fn name(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open { .. } => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }
}

struct DsState {
    spec: DsSpec,
    hint: StaticHint,
    /// Dynamic remotability: true once any object may live remotely.
    remotable: bool,
    /// Bump allocator frontier (bytes).
    next_offset: u64,
    /// Live allocations: offset -> size.
    allocations: HashMap<u64, u64>,
    /// Object states indexed by object index. Allocation grows it; a free
    /// empties its slots. Iterating it visits objects in index order.
    objects: Vec<Option<ObjState>>,
    prefetcher: Box<dyn Prefetcher>,
    stats: DsStats,
    /// Counter for accuracy-throttled probe prefetches.
    probe_counter: u32,
    /// Circuit-breaker state for this DS.
    breaker: BreakerState,
    /// Consecutive failed transport attempts (resets on any success).
    breaker_failures: u32,
    /// Soft-pinned by the pressure governor (promotion): objects it
    /// localizes are held in pinned memory while room remains, but the DS
    /// stays `remotable` so guard dispatch is unchanged.
    pressure_pinned: bool,
    /// Demoted by the pressure governor: evictions of this DS's objects
    /// enter the spill set, so accesses whose guards were compiled away
    /// while the DS looked non-remotable stay sound (served remotely).
    pressure_demoted: bool,
}

impl DsState {
    fn obj_index(&self, offset: u64) -> u64 {
        offset >> self.spec.obj_shift()
    }

    fn obj(&self, idx: u64) -> Option<&ObjState> {
        self.objects.get(idx as usize)?.as_ref()
    }

    fn obj_mut(&mut self, idx: u64) -> Option<&mut ObjState> {
        self.objects.get_mut(idx as usize)?.as_mut()
    }

    fn set_obj(&mut self, idx: u64, st: ObjState) {
        let i = idx as usize;
        if i >= self.objects.len() {
            self.objects.resize_with(i + 1, || None);
        }
        self.objects[i] = Some(st);
    }

    fn take_obj(&mut self, idx: u64) -> Option<ObjState> {
        self.objects.get_mut(idx as usize)?.take()
    }

    /// Present objects with their indices, in index order.
    fn objects_mut(&mut self) -> impl Iterator<Item = (u64, &mut ObjState)> {
        self.objects
            .iter_mut()
            .enumerate()
            .filter_map(|(i, o)| Some((i as u64, o.as_mut()?)))
    }

    /// Highest valid object index + 1.
    fn obj_frontier(&self) -> u64 {
        if self.next_offset == 0 {
            0
        } else {
            ((self.next_offset - 1) >> self.spec.obj_shift()) + 1
        }
    }
}

/// The far-memory runtime over an arbitrary transport.
pub struct FarMemRuntime<T: Transport> {
    cfg: RuntimeConfig,
    transport: T,
    ds: Vec<DsState>,
    pinned_used: u64,
    remotable_used: u64,
    /// Clock queue over resident remotable objects (may contain stale
    /// entries; validated on pop).
    clock: VecDeque<(u16, u64)>,
    /// The last few guarded objects, excluded from eviction (the DerefScope
    /// analog that makes the compiler's redundant-guard elimination sound:
    /// an object stays resident between a dominating guard and the accesses
    /// it covers).
    recent_guards: VecDeque<(u16, u64)>,
    /// Explicit deref scopes (AIFM's DerefScope): while a scope is open,
    /// every object guarded within it is pinned against eviction until the
    /// scope closes. Nested scopes stack.
    scopes: Vec<Vec<(u16, u64)>>,
    stats: RuntimeStats,
    telemetry: Telemetry,
    /// Per-site attribution counters (the `cards profile` data source).
    profiler: SiteProfiler,
    /// Causal tracer: span trees per remote operation, flight recorder,
    /// anomaly triggers (`cards ttrace`). Charges zero modeled cycles.
    tracer: Tracer,
    /// Writeback journal: payloads put to the server but not yet
    /// acknowledged by a successful flush. Invariant: every `Remote` object
    /// is either durable on the server or present here, so a server
    /// crash/restart loses no data. BTreeMap for deterministic replay order.
    journal: BTreeMap<ObjKey, Vec<u8>>,
    /// Journaled puts since the last successful flush.
    puts_since_flush: u32,
    /// Last server generation observed; a bump means a crash/restart
    /// happened and the journal must be replayed.
    last_generation: u64,
    /// The last [`GUARD_PIN_WINDOW`] guarded objects, independent of any
    /// pressure-driven shrink of `recent_guards`. When one of these is
    /// evicted anyway (starvation relief, proactive sweep), it enters
    /// `spill_ok` so elided guards stay sound.
    guard_history: VecDeque<(u16, u64)>,
    /// Objects that may be accessed directly against the remote tier even
    /// in strict mode: a guard ran but localization could not fit them, or
    /// their DS was governor-demoted after guards were compiled away.
    /// Only membership is queried (never iterated), so HashSet order
    /// cannot leak into behaviour.
    spill_ok: HashSet<(u16, u64)>,
    /// Active pressure fault-injection schedule, if any.
    pressure_sched: Option<PressureSchedule>,
    /// Guard events since the schedule was installed.
    pressure_tick: u64,
    /// Current schedule phase instance (`u64::MAX` = none applied yet).
    pressure_phase: u64,
    /// Budgets captured when the schedule was installed; phases rescale
    /// these, not the live (already rescaled) values.
    base_pinned: u64,
    base_remotable: u64,
    /// Governor pressure level: true between a high-watermark crossing and
    /// the drain back below the low watermark (hysteresis).
    pressure_high: bool,
    /// Governor epochs elapsed (ticks with the telemetry epoch clock).
    gov_epochs: u64,
    /// Per-DS cumulative stats at the previous governor epoch (for deltas).
    prev_epoch_stats: Vec<DsStats>,
    /// Per-DS decayed per-epoch velocities (miss / eviction / hit).
    miss_vel: Vec<u64>,
    evict_vel: Vec<u64>,
    hit_vel: Vec<u64>,
    /// Governor epoch of each DS's last hint change (`u64::MAX` = never);
    /// drives the per-DS re-solve cooldown.
    last_change_epoch: Vec<u64>,
    /// Governor epoch of the last applied re-solve.
    last_resolve_epoch: u64,
}

/// How many recently-guarded objects are pinned against eviction. The
/// redundant-guard-elimination pass must keep its reuse window smaller than
/// this.
pub const GUARD_PIN_WINDOW: usize = 8;

impl<T: Transport> FarMemRuntime<T> {
    /// Create a runtime with `cfg` budgets over `transport`.
    pub fn new(cfg: RuntimeConfig, transport: T) -> Self {
        let telemetry = Telemetry::new(cfg.telemetry);
        let last_generation = transport.generation();
        FarMemRuntime {
            cfg,
            transport,
            ds: Vec::new(),
            pinned_used: 0,
            remotable_used: 0,
            clock: VecDeque::new(),
            recent_guards: VecDeque::new(),
            scopes: Vec::new(),
            stats: RuntimeStats::default(),
            telemetry,
            profiler: SiteProfiler::default(),
            tracer: Tracer::new(cfg.trace),
            journal: BTreeMap::new(),
            puts_since_flush: 0,
            last_generation,
            guard_history: VecDeque::new(),
            spill_ok: HashSet::new(),
            pressure_sched: None,
            pressure_tick: 0,
            pressure_phase: u64::MAX,
            base_pinned: cfg.pinned_bytes,
            base_remotable: cfg.remotable_bytes,
            pressure_high: false,
            gov_epochs: 0,
            prev_epoch_stats: Vec::new(),
            miss_vel: Vec::new(),
            evict_vel: Vec::new(),
            hit_vel: Vec::new(),
            last_change_epoch: Vec::new(),
            last_resolve_epoch: 0,
        }
    }

    /// Open a deref scope (AIFM's `DerefScope`): objects guarded while the
    /// scope is open cannot be evicted until [`Self::end_scope`]. Scopes
    /// nest; each `begin_scope` must be matched by one `end_scope`.
    pub fn begin_scope(&mut self) {
        self.scopes.push(Vec::new());
        let (cycle, depth) = (self.stats.cycles, self.scopes.len());
        self.telemetry.emit(cycle, EventKind::ScopeBegin { depth });
    }

    /// Close the innermost deref scope, releasing its pins.
    ///
    /// # Panics
    /// Panics if no scope is open.
    pub fn end_scope(&mut self) {
        self.scopes.pop().expect("end_scope without begin_scope");
        let (cycle, depth) = (self.stats.cycles, self.scopes.len());
        self.telemetry.emit(cycle, EventKind::ScopeEnd { depth });
    }

    /// Number of currently open deref scopes.
    pub fn open_scopes(&self) -> usize {
        self.scopes.len()
    }

    /// Whether an object is pinned by any open scope.
    fn scope_pinned(&self, handle: u16, idx: u64) -> bool {
        self.scopes
            .iter()
            .any(|s| s.iter().any(|&(h, i)| h == handle && i == idx))
    }

    /// Record that (handle, idx) was just guarded; pinned against eviction
    /// for the next [`GUARD_PIN_WINDOW`] guards.
    fn note_guarded(&mut self, handle: u16, idx: u64) {
        if let Some(pos) = self
            .recent_guards
            .iter()
            .position(|&(h, i)| h == handle && i == idx)
        {
            self.recent_guards.remove(pos);
        }
        self.recent_guards.push_back((handle, idx));
        if self.recent_guards.len() > GUARD_PIN_WINDOW {
            self.recent_guards.pop_front();
        }
        // Shadow history that never shrinks under pressure: the soundness
        // record of "a guard ran recently", consulted on eviction.
        if let Some(pos) = self
            .guard_history
            .iter()
            .position(|&(h, i)| h == handle && i == idx)
        {
            self.guard_history.remove(pos);
        }
        self.guard_history.push_back((handle, idx));
        if self.guard_history.len() > GUARD_PIN_WINDOW {
            self.guard_history.pop_front();
        }
        if let Some(scope) = self.scopes.last_mut() {
            if !scope.contains(&(handle, idx)) {
                scope.push((handle, idx));
            }
        }
    }

    // ---- registration & allocation ----

    /// Register a data structure (the `ds_init` runtime call inserted by
    /// pool allocation). Returns the DS handle embedded in far pointers.
    pub fn register_ds(&mut self, spec: DsSpec, hint: StaticHint) -> u16 {
        let handle = self.ds.len() as u16;
        let prefetcher = build_prefetcher(&spec);
        self.ds.push(DsState {
            spec,
            hint,
            remotable: hint == StaticHint::Remotable,
            next_offset: 0,
            allocations: HashMap::new(),
            objects: Vec::new(),
            prefetcher,
            stats: DsStats::default(),
            probe_counter: 0,
            breaker: BreakerState::Closed,
            breaker_failures: 0,
            pressure_pinned: false,
            pressure_demoted: false,
        });
        self.prev_epoch_stats.push(DsStats::default());
        self.miss_vel.push(0);
        self.evict_vel.push(0);
        self.hit_vel.push(0);
        self.last_change_epoch.push(u64::MAX);
        let cycle = self.stats.cycles;
        self.telemetry
            .emit(cycle, EventKind::DsRegister { ds: handle, hint });
        handle
    }

    /// Pool allocation (`dsalloc`): carve `size` bytes out of DS `handle`.
    /// Returns the tagged pointer and the cycles charged.
    pub fn ds_alloc(&mut self, handle: u16, size: u64) -> Result<(FarPtr, u64), RtError> {
        let size = size.max(1);
        let dsi = handle as usize;
        if dsi >= self.ds.len() {
            return Err(RtError::UnknownHandle(handle));
        }
        let (start, first_new, last_new, obj_bytes) = {
            let ds = &mut self.ds[dsi];
            let start = crate::align_up(ds.next_offset, 16);
            ds.next_offset = start + size;
            ds.allocations.insert(start, size);
            ds.stats.bytes_allocated += size;
            let shift = ds.spec.obj_shift();
            (
                start,
                start >> shift,
                (start + size - 1) >> shift,
                ds.spec.object_bytes,
            )
        };

        let mut cycles = 0u64;
        self.tracer
            .op_begin(SpanKind::Alloc, handle, first_new, None, self.stats.cycles);
        for idx in first_new..=last_new {
            if self.ds[dsi].obj(idx).is_some() {
                continue;
            }
            cycles += 30; // allocator bookkeeping per new object
            cycles += self.place_new_object(handle, idx, obj_bytes)?;
        }
        self.stats.cycles += cycles;
        self.tracer.op_end(cycles, self.stats.cycles);
        let cycle = self.stats.cycles;
        self.telemetry.emit(
            cycle,
            EventKind::DsAlloc {
                ds: handle,
                bytes: size,
            },
        );
        Ok((FarPtr::encode(handle, start), cycles))
    }

    /// Place a newly allocated (zeroed) object according to the DS's hint,
    /// applying the runtime-override rule when pinned memory is exhausted.
    fn place_new_object(&mut self, handle: u16, idx: u64, obj_bytes: u64) -> Result<u64, RtError> {
        let dsi = handle as usize;
        self.spill_ok.remove(&(handle, idx));
        let hint = self.ds[dsi].hint;
        let want_pinned = (matches!(hint, StaticHint::Pinned | StaticHint::PinnedIfRoom)
            && !self.ds[dsi].pressure_demoted)
            || self.ds[dsi].pressure_pinned;
        if want_pinned && self.pinned_used + obj_bytes <= self.cfg.pinned_bytes {
            self.pinned_used += obj_bytes;
            // The cache may have borrowed this headroom; shrink it back.
            // The shrink is charged out-of-band (straight to the global
            // clock, not this allocation's total), so its eviction spans
            // must not land in the Alloc tree.
            self.tracer.pause();
            let room = self.ensure_room(0, false);
            self.tracer.unpause();
            let (cycles, fits) = room?;
            if !fits {
                self.stats.overcommits += 1;
            }
            self.stats.cycles += cycles;
            self.ds[dsi].set_obj(
                idx,
                ObjState::Local {
                    data: vec![0u8; obj_bytes as usize].into_boxed_slice(),
                    dirty: true,
                    pinned: true,
                    ref_bit: true,
                    prefetched: false,
                    remote_copy: false,
                    breaker_pinned: false,
                },
            );
            return Ok(0);
        }
        if want_pinned && !self.ds[dsi].pressure_pinned {
            // Runtime override: the DS no longer fits in pinned memory.
            let ds = &mut self.ds[dsi];
            if !ds.remotable {
                ds.remotable = true;
                ds.stats.demotions += 1;
                let cycle = self.stats.cycles;
                self.telemetry
                    .emit(cycle, EventKind::Demotion { ds: handle });
            }
        }
        // Remotable placement: make room, then insert locally. While the
        // DS's breaker is tripped, new objects are pinned instead so the
        // degraded DS generates no further remote traffic.
        if self.breaker_degraded(dsi) {
            self.pinned_used += obj_bytes;
            self.ds[dsi].set_obj(
                idx,
                ObjState::Local {
                    data: vec![0u8; obj_bytes as usize].into_boxed_slice(),
                    dirty: true,
                    pinned: true,
                    ref_bit: true,
                    prefetched: false,
                    remote_copy: false,
                    breaker_pinned: true,
                },
            );
            return Ok(0);
        }
        // Fresh data exists nowhere else, so a full cache must overcommit
        // rather than spill: there is nothing remote to spill against yet.
        let (cycles, fits) = self.ensure_room(obj_bytes, false)?;
        if !fits {
            self.stats.overcommits += 1;
        }
        self.remotable_used += obj_bytes;
        self.ds[dsi].set_obj(
            idx,
            ObjState::Local {
                data: vec![0u8; obj_bytes as usize].into_boxed_slice(),
                dirty: true,
                pinned: false,
                ref_bit: true,
                prefetched: false,
                remote_copy: false,
                breaker_pinned: false,
            },
        );
        self.clock.push_back((handle, idx));
        Ok(cycles)
    }

    /// Free an allocation previously returned by [`Self::ds_alloc`].
    /// Releases all objects fully covered by the freed range.
    pub fn free(&mut self, ptr: FarPtr) -> Result<u64, RtError> {
        let Some(handle) = ptr.handle() else {
            return Err(RtError::BadPointer(ptr.bits()));
        };
        let dsi = handle as usize;
        if dsi >= self.ds.len() {
            return Err(RtError::UnknownHandle(handle));
        }
        let offset = ptr.offset();
        let Some(size) = self.ds[dsi].allocations.remove(&offset) else {
            return Err(RtError::OutOfRange { ds: handle, offset });
        };
        let obj_bytes = self.ds[dsi].spec.object_bytes;
        let first = crate::align_up(offset, obj_bytes) >> self.ds[dsi].spec.obj_shift();
        let end = (offset + size) / obj_bytes; // exclusive frontier of fully-covered objs
        let mut cycles = 10;
        self.tracer
            .op_begin(SpanKind::Free, handle, first, None, self.stats.cycles);
        for idx in first..end {
            let key = ObjKey {
                ds: handle as u32,
                index: idx,
            };
            // The object no longer exists; whatever the journal held for it
            // must never be replayed (or spill-accessed).
            self.journal.remove(&key);
            self.spill_ok.remove(&(handle, idx));
            if let Some(state) = self.ds[dsi].take_obj(idx) {
                match state {
                    ObjState::Local { pinned, data, .. } => {
                        if pinned {
                            self.pinned_used -= data.len() as u64;
                        } else {
                            self.remotable_used -= data.len() as u64;
                        }
                    }
                    ObjState::Remote => {
                        self.remove_with_retry(key, &mut cycles)?;
                    }
                }
            }
        }
        self.stats.cycles += cycles;
        self.tracer.op_end(cycles, self.stats.cycles);
        let cycle = self.stats.cycles;
        self.telemetry.emit(
            cycle,
            EventKind::Free {
                ds: handle,
                bytes: size,
            },
        );
        Ok(cycles)
    }

    // ---- the deref path ----

    /// Execute a guard (`cards_deref`) for an access of `bytes` bytes at
    /// `ptr`. Returns cycles charged. Untagged pointers cost only the
    /// inline custody check, as in Figure 3.
    pub fn guard(&mut self, ptr: FarPtr, access: Access, bytes: u64) -> Result<u64, RtError> {
        self.stats.custody_checks += 1;
        let Some(handle) = ptr.handle() else {
            // Untagged: only the inline shr+je of Figure 3.
            let cycles = self.cfg.costs.custody_check;
            self.stats.cycles += cycles;
            return Ok(cycles);
        };
        // Tagged: the fault costs below already include the inline check
        // (Table 1 reports whole-deref costs).
        let mut cycles = 0;
        let dsi = handle as usize;
        if dsi >= self.ds.len() {
            return Err(RtError::UnknownHandle(handle));
        }
        let offset = ptr.offset();
        let bytes = bytes.max(1);
        if offset + bytes > self.ds[dsi].next_offset {
            return Err(RtError::OutOfRange { ds: handle, offset });
        }
        let shift = self.ds[dsi].spec.obj_shift();
        let first = offset >> shift;
        let last = (offset + bytes - 1) >> shift;
        for idx in first..=last {
            cycles += self.deref_object(handle, idx, access)?;
        }
        self.stats.cycles += cycles;
        Ok(cycles)
    }

    /// The per-object body of `cards_deref` (Listing 4).
    fn deref_object(&mut self, handle: u16, idx: u64, access: Access) -> Result<u64, RtError> {
        // The pulse runs before the operation root: proactive-sweep work is
        // charged straight to the global clock, outside this guard's total.
        self.pressure_pulse()?;
        let site = self.profiler.current();
        self.tracer
            .op_begin(SpanKind::Guard, handle, idx, site, self.stats.cycles);
        let dsi = handle as usize;
        self.ds[dsi].stats.guard_checks += 1;
        self.note_guarded(handle, idx);
        let resident = match self.ds[dsi].obj(idx) {
            Some(ObjState::Local { prefetched, .. }) => Some(*prefetched),
            _ => None,
        };
        if let Some(was_prefetched) = resident {
            self.ds[dsi].stats.hits += 1;
            self.profiler.on_hit();
            self.stats.derefs_local += 1;
            self.touch(dsi, idx, access);
            // Prefetchers are trained on the full access stream: predicting
            // an already-resident object is free (the prefetcher skips it),
            // while training only on misses makes learned chains decay as
            // residency shifts between passes.
            self.ds[dsi].prefetcher.record(idx);
            let mut c = match access {
                Access::Read => self.cfg.costs.read_fault_local,
                Access::Write => self.cfg.costs.write_fault_local,
            };
            if was_prefetched {
                // First touch of a prefetched object re-arms the prefetcher
                // (streaming behaviour): the chain extends ahead of the
                // access stream instead of dying after one hop. Narrow
                // depth: the wide fan-out belongs to demand misses only,
                // otherwise every consumed prefetch floods the cache.
                c += self.run_prefetch_depth(handle, idx, 2)?;
            }
            let cycle = self.stats.cycles;
            self.telemetry.emit(
                cycle,
                EventKind::GuardHit {
                    ds: handle,
                    index: idx,
                },
            );
            self.telemetry.record(HistPath::DerefLocal, c);
            self.tracer.op_end(c, self.stats.cycles);
            self.epoch_tick();
            return Ok(c);
        }
        // Miss: localize over the network, then prefetch. Prefetchers are
        // trained on the *miss* stream (classic jump-pointer/stride
        // behaviour): hit transitions would teach them to predict objects
        // that are already resident.
        self.ds[dsi].stats.misses += 1;
        self.stats.derefs_remote += 1;
        let cycle = self.stats.cycles;
        self.telemetry.emit(
            cycle,
            EventKind::GuardMiss {
                ds: handle,
                index: idx,
            },
        );
        let (mut cycles, resident) = self.localize(handle, idx)?;
        self.ds[dsi].prefetcher.record(idx);
        if resident {
            self.touch(dsi, idx, access);
            cycles += self.run_prefetch(handle, idx)?;
        }
        // Non-resident after localize = spill: the access itself will move
        // the bytes; speculation into a cache with no room is pointless.
        self.profiler.on_miss(cycles);
        self.telemetry.record(HistPath::DerefRemote, cycles);
        self.tracer.op_end(cycles, self.stats.cycles);
        self.epoch_tick();
        Ok(cycles)
    }

    /// Count one guard event on the epoch clock and snapshot an epoch when
    /// one is due. The clock runs whenever telemetry *or* the governor is
    /// on — the governor's thrash detector rides it — so switching
    /// telemetry off never changes what the governor does.
    fn epoch_tick(&mut self) {
        if (self.telemetry.config().enabled || self.cfg.pressure.enabled)
            && self.telemetry.guard_tick()
        {
            self.snapshot_epoch();
        }
    }

    /// Snapshot every DS's and the transport's cumulative counters into the
    /// telemetry epoch time-series (deltas are computed by the sink).
    fn snapshot_epoch(&mut self) {
        let ds_stats: Vec<DsStats> = self.ds.iter().map(|d| d.stats).collect();
        let net = self.transport.stats();
        let cycle = self.stats.cycles;
        self.telemetry.snapshot(cycle, &ds_stats, net);
        self.governor_epoch(&ds_stats);
    }

    /// Mark a resident object referenced (clock bit), dirty on writes, and
    /// account prefetch usefulness.
    fn touch(&mut self, dsi: usize, idx: u64, access: Access) {
        self.access_resident(dsi, idx, access, |_| {});
    }

    /// [`Self::touch`] a resident object and run `f` on its bytes, with one
    /// object-table access. Returns false (doing nothing) when the object
    /// is not resident.
    fn access_resident(
        &mut self,
        dsi: usize,
        idx: u64,
        access: Access,
        f: impl FnOnce(&mut [u8]),
    ) -> bool {
        let Some(ObjState::Local {
            data,
            dirty,
            ref_bit,
            prefetched,
            ..
        }) = self.ds[dsi].obj_mut(idx)
        else {
            return false;
        };
        *ref_bit = true;
        if access == Access::Write {
            *dirty = true;
        }
        let first_touch = std::mem::take(prefetched);
        f(data);
        if first_touch {
            self.ds[dsi].stats.prefetch_useful += 1;
            self.ds[dsi].stats.window_useful += 1;
            self.profiler.on_prefetch_useful();
            let cycle = self.stats.cycles;
            self.telemetry.emit(
                cycle,
                EventKind::PrefetchConfirm {
                    ds: dsi as u16,
                    index: idx,
                },
            );
        }
        true
    }

    /// Fetch object `idx` of DS `handle` from the remote server into local
    /// remotable memory (`LocalizeObject` in Listing 4). Returns
    /// `(cycles, resident)`: when eviction cannot make room (oversize
    /// object, pin starvation) and the access is neither scope-pinned nor
    /// breaker-degraded, the object is *not* fetched — it joins the spill
    /// set and `resident` comes back false, so the caller serves the access
    /// directly against the remote tier instead of overcommitting memory.
    fn localize(&mut self, handle: u16, idx: u64) -> Result<(u64, bool), RtError> {
        let dsi = handle as usize;
        let obj_bytes = self.ds[dsi].spec.object_bytes;
        let key = ObjKey {
            ds: handle as u32,
            index: idx,
        };
        self.tracer.begin(SpanKind::Localize, handle, idx);
        let (mut cycles, fits) = self.ensure_room(obj_bytes, true)?;
        if !fits
            && !self.breaker_degraded(dsi)
            && !self.scope_pinned(handle, idx)
            && (self.cfg.pressure.enabled || obj_bytes > self.effective_remotable_budget())
        {
            // With the governor on, any unfixable shortfall spills; with it
            // off, only objects that could never fit (oversize) do — a
            // merely pin-wedged cache overcommits as it always has.
            self.spill_ok.insert((handle, idx));
            cycles += self.cfg.costs.remote_extra;
            self.tracer.end(cycles);
            return Ok((cycles, false));
        }
        if !fits {
            // Scope-pinned, degraded, or legacy pin-wedged accesses end up
            // resident: overshoot the budget rather than break guarantees.
            self.stats.overcommits += 1;
        }
        let before_fetch = cycles;
        let fetched = self.fetch_with_retry(key, false, &mut cycles)?;
        let fetch_cycles = cycles - before_fetch;
        let cycle = self.stats.cycles;
        self.telemetry.record(HistPath::Fetch, fetch_cycles);
        self.telemetry.emit(
            cycle,
            EventKind::Fetch {
                ds: handle,
                index: idx,
                bytes: obj_bytes,
                cycles: fetch_cycles,
                prefetch: false,
            },
        );
        cycles += self.cfg.costs.remote_extra;
        // Greedy-recursive prefetchers inspect the payload for pointers.
        let chased = self.ds[dsi].prefetcher.observe_bytes(idx, &fetched.bytes);
        // Re-check the breaker *after* the fetch: it may have tripped during
        // the retries. Degraded DSs keep what they localize pinned; a
        // governor-promoted DS gets a soft pin while pinned room remains.
        let degraded = self.breaker_degraded(dsi);
        let soft_pin = !degraded
            && self.ds[dsi].pressure_pinned
            && self.pinned_used + obj_bytes <= self.cfg.pinned_bytes;
        let pinned = degraded || soft_pin;
        if pinned {
            self.pinned_used += obj_bytes;
        } else {
            self.remotable_used += obj_bytes;
        }
        self.ds[dsi].set_obj(
            idx,
            ObjState::Local {
                data: fetched.bytes.into_boxed_slice(),
                dirty: false,
                pinned,
                ref_bit: true,
                prefetched: false,
                remote_copy: true,
                breaker_pinned: degraded,
            },
        );
        if !pinned {
            self.clock.push_back((handle, idx));
        }
        self.spill_ok.remove(&(handle, idx));
        cycles += self.chase_targets(handle, chased)?;
        self.tracer.end(cycles);
        Ok((cycles, true))
    }

    /// Issue prefetches predicted by the DS's prefetcher after a miss on
    /// `idx`. Batched fetches overlap the link latency, so each costs only
    /// wire + marshalling cycles.
    fn run_prefetch(&mut self, handle: u16, idx: u64) -> Result<u64, RtError> {
        self.run_prefetch_depth(handle, idx, usize::MAX)
    }

    fn run_prefetch_depth(&mut self, handle: u16, idx: u64, cap: usize) -> Result<u64, RtError> {
        let dsi = handle as usize;
        // A degraded DS issues no speculative traffic.
        if self.breaker_degraded(dsi) {
            return Ok(0);
        }
        let max = self.prefetch_budget(dsi).min(cap);
        if max == 0 {
            return Ok(0);
        }
        let frontier = self.ds[dsi].obj_frontier();
        let preds = self.ds[dsi].prefetcher.predict(idx, max);
        let mut cycles = 0;
        for p in preds {
            if p >= frontier {
                continue;
            }
            cycles += self.prefetch_object(handle, p)?;
        }
        Ok(cycles)
    }

    /// Prefetch batch size for one DS, combining two limits:
    ///
    /// 1. capacity: a batch never floods more than half the (effective)
    ///    cache — with tiny caches aggressive prefetch would evict the
    ///    demand-fetched object it rode in with;
    /// 2. accuracy throttling (paper §4.2: "standard prefetching metrics,
    ///    such as accuracy and coverage, are used to evaluate the
    ///    effectiveness of each prefetching policy"): once enough
    ///    prefetches have been issued, an inaccurate prefetcher is throttled
    ///    to an occasional probe so it can still re-learn, and a mediocre
    ///    one runs at reduced depth.
    fn prefetch_budget(&mut self, dsi: usize) -> usize {
        let object_bytes = self.ds[dsi].spec.object_bytes;
        let cap = (self.effective_remotable_budget() / object_bytes.max(1) / 2) as usize;
        let base = self.cfg.prefetch_batch.min(cap);
        let s = &mut self.ds[dsi].stats;
        if s.prefetch_issued < 32 {
            return base;
        }
        // Exponentially decay the window so phase changes re-learn quickly.
        if s.window_issued > 512 {
            s.window_issued /= 2;
            s.window_useful /= 2;
        }
        let acc = s.recent_accuracy();
        if acc < 0.08 {
            // Nearly useless: probe periodically, at full fan-out width so
            // a multi-successor predictor can still demonstrate recovery.
            self.ds[dsi].probe_counter = self.ds[dsi].probe_counter.wrapping_add(1);
            if self.ds[dsi].probe_counter.is_multiple_of(8) {
                base.min(4)
            } else {
                0
            }
        } else if acc < 0.15 {
            // Keep at least the Markov fan-out: truncating below it breaks
            // coverage for multi-successor (hash-probe) patterns.
            base.min(4)
        } else {
            base
        }
    }

    /// Resolve pointer targets produced by a greedy-recursive prefetcher.
    fn chase_targets(&mut self, handle: u16, targets: Vec<PrefetchTarget>) -> Result<u64, RtError> {
        let mut cycles = 0;
        let mut budget = self.prefetch_budget(handle as usize);
        for t in targets {
            if budget == 0 {
                break;
            }
            let (h, idx) = match t {
                PrefetchTarget::SameDs(i) => (handle, i),
                PrefetchTarget::Pointer(p) => match p.handle() {
                    Some(h) if (h as usize) < self.ds.len() => {
                        let ds = &self.ds[h as usize];
                        (h, ds.obj_index(p.offset()))
                    }
                    _ => continue,
                },
            };
            if idx >= self.ds[h as usize].obj_frontier() {
                continue;
            }
            cycles += self.prefetch_object(h, idx)?;
            budget -= 1;
        }
        Ok(cycles)
    }

    /// Fetch one object speculatively (no demand access yet).
    fn prefetch_object(&mut self, handle: u16, idx: u64) -> Result<u64, RtError> {
        let dsi = handle as usize;
        if self.breaker_degraded(dsi) {
            return Ok(0);
        }
        if matches!(self.ds[dsi].obj(idx), Some(ObjState::Local { .. })) {
            return Ok(0);
        }
        let obj_bytes = self.ds[dsi].spec.object_bytes;
        let key = ObjKey {
            ds: handle as u32,
            index: idx,
        };
        // Speculative fetches keep the historical overcommit behaviour: a
        // prefetcher riding a fully-pinned cache is a tuning problem, not a
        // correctness one, and spilling speculation would defeat its point.
        self.tracer.begin(SpanKind::Prefetch, handle, idx);
        let (mut cycles, fits) = self.ensure_room(obj_bytes, false)?;
        if !fits {
            self.stats.overcommits += 1;
        }
        let before_fetch = cycles;
        let fetched = self.fetch_with_retry(key, true, &mut cycles)?;
        let fetch_cycles = cycles - before_fetch;
        self.remotable_used += obj_bytes;
        self.spill_ok.remove(&(handle, idx));
        self.ds[dsi].set_obj(
            idx,
            ObjState::Local {
                data: fetched.bytes.into_boxed_slice(),
                dirty: false,
                pinned: false,
                ref_bit: false,
                prefetched: true,
                remote_copy: true,
                breaker_pinned: false,
            },
        );
        self.clock.push_back((handle, idx));
        self.ds[dsi].stats.prefetch_issued += 1;
        self.ds[dsi].stats.window_issued += 1;
        self.profiler.on_prefetch_issued();
        let cycle = self.stats.cycles;
        self.telemetry.record(HistPath::Fetch, fetch_cycles);
        self.telemetry.emit(
            cycle,
            EventKind::PrefetchIssue {
                ds: handle,
                index: idx,
            },
        );
        self.telemetry.emit(
            cycle,
            EventKind::Fetch {
                ds: handle,
                index: idx,
                bytes: obj_bytes,
                cycles: fetch_cycles,
                prefetch: true,
            },
        );
        self.tracer.end(cycles);
        Ok(cycles)
    }

    // ---- hardened transport paths: backoff, breaker, journal ----

    /// Whether retrying this error can help.
    fn retryable(e: &NetError) -> bool {
        matches!(
            e,
            NetError::Transient | NetError::Timeout | NetError::Corrupt
        )
    }

    /// Count the error class in the runtime stats.
    fn classify_failure(&mut self, e: &NetError) {
        match e {
            NetError::Timeout => self.stats.timeouts += 1,
            NetError::Corrupt => self.stats.corrupt_fetches += 1,
            _ => {}
        }
    }

    /// Equal-jitter exponential backoff for retry `attempt` (1-based), in
    /// modeled cycles. Deterministic: the jitter is seeded by the op
    /// identity, so identical runs back off identically.
    fn backoff_for(&self, key: ObjKey, attempt: u32, write: bool) -> u64 {
        if self.cfg.backoff_base == 0 {
            return 0;
        }
        let exp = attempt.saturating_sub(1).min(32);
        let capped = self
            .cfg
            .backoff_base
            .checked_mul(1u64 << exp)
            .map_or(self.cfg.backoff_cap, |v| v.min(self.cfg.backoff_cap));
        let seed = (key.ds as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ key.index.rotate_left(17)
            ^ ((attempt as u64) << 1)
            ^ (write as u64);
        let mut rng = SplitMix64::new(seed);
        capped / 2 + rng.next_below(capped / 2 + 1)
    }

    /// Book-keep one failed attempt: error classification, breaker feed,
    /// retry pricing (wasted RTT + backoff wait), and the Retry event.
    fn account_retry(
        &mut self,
        key: ObjKey,
        e: &NetError,
        attempt: u32,
        write: bool,
        cycles: &mut u64,
    ) {
        self.classify_failure(e);
        self.breaker_on_failure(key.ds as u16);
        self.stats.retries += 1;
        let rtt = self.transport.rtt_cost();
        *cycles += rtt;
        let backoff = self.backoff_for(key, attempt, write);
        *cycles += backoff;
        self.stats.backoff_cycles += backoff;
        self.telemetry.record(HistPath::RetryAttempt, rtt);
        self.telemetry.record(HistPath::BackoffSleep, backoff);
        if let Some(d) = self.ds.get_mut(key.ds as usize) {
            d.stats.retry_attempts += 1;
        }
        self.tracer
            .leaf(SpanKind::Retry, key.ds as u16, key.index, rtt, attempt);
        self.tracer.leaf(
            SpanKind::Backoff,
            key.ds as u16,
            key.index,
            backoff,
            attempt,
        );
        let cycle = self.stats.cycles;
        self.telemetry.emit(
            cycle,
            EventKind::Retry {
                ds: key.ds as u16,
                index: key.index,
                attempt,
                write,
                backoff,
            },
        );
    }

    /// Drain fault-handling events the transport accumulated (failovers it
    /// performed, hedges it sent, fences it bounced off) into stats and
    /// zero-cycle trace leaves attributed to the operation in flight — the
    /// failover-storm anomaly and `ttrace diff` read these.
    fn drain_fault_events(&mut self, ds: u16, index: u64) {
        let ev = self.transport.take_fault_events();
        if ev.is_empty() {
            return;
        }
        self.stats.failovers += ev.failovers;
        self.stats.hedged_fetches += ev.hedged;
        self.stats.hedge_wasted += ev.hedge_wasted;
        self.stats.fenced_retries += ev.fenced;
        self.stats.queue_buildup_events += ev.queue_buildup;
        self.stats.lag_breaches += ev.lag_breach;
        for _ in 0..ev.failovers {
            self.tracer.leaf(SpanKind::Failover, ds, index, 0, 0);
        }
        for _ in 0..ev.hedged {
            self.tracer.leaf(SpanKind::Hedge, ds, index, 0, 0);
        }
        // Serving-tier anomalies arm the flight recorder: a saturated
        // writeback window or a replication-lag breach snapshots the
        // trace ring just like retry storms and p99 spikes do.
        if ev.queue_buildup > 0 {
            self.tracer.trigger("queue_buildup", self.stats.cycles);
        }
        if ev.lag_breach > 0 {
            self.tracer.trigger("lag_breach", self.stats.cycles);
        }
    }

    /// A remote op that succeeded after `attempts` tries: count it as
    /// retried when more than one attempt was needed.
    fn note_retried_op(&mut self, ds: u16, attempts: u32) {
        if attempts > 1 {
            if let Some(d) = self.ds.get_mut(ds as usize) {
                d.stats.retried_ops += 1;
            }
        }
    }

    /// A remote op gave up (retries exhausted or terminal error): emit the
    /// terminal-failure event before surfacing `RtError::Net`.
    fn emit_net_abort(&mut self, key: ObjKey, attempts: u32, write: bool) {
        let cycle = self.stats.cycles;
        self.telemetry.emit(
            cycle,
            EventKind::NetAbort {
                ds: key.ds as u16,
                index: key.index,
                attempts,
                write,
            },
        );
    }

    fn fetch_with_retry(
        &mut self,
        key: ObjKey,
        batched: bool,
        cycles: &mut u64,
    ) -> Result<cards_net::Fetched, RtError> {
        let ds = key.ds as u16;
        let ctx = self.tracer.context();
        self.transport.set_trace_context(ctx);
        let mut attempts: u32 = 0;
        loop {
            attempts += 1;
            self.breaker_pre_op(ds);
            let r = if batched {
                self.transport.fetch_batched(key)
            } else {
                self.transport.fetch(key)
            };
            self.drain_fault_events(ds, key.index);
            match r {
                Ok(f) => {
                    *cycles += f.cycles;
                    self.tracer.leaf(SpanKind::Wire, ds, key.index, f.cycles, 0);
                    self.note_retried_op(ds, attempts);
                    self.breaker_on_success(ds);
                    self.check_generation(cycles)?;
                    return Ok(f);
                }
                Err(NetError::NotFound(_)) => {
                    // Crash recovery: the server lost the object (dropped
                    // as unacknowledged in a restart) but the journal still
                    // has the bytes — re-put them and serve from the
                    // journal.
                    if let Some(data) = self.journal.get(&key).cloned() {
                        let before = *cycles;
                        // The replay span absorbs the recovery put's wire
                        // cost (paused: no child Wire leaf), so the
                        // journal-replay phase owns these cycles.
                        self.tracer.begin(SpanKind::JournalReplay, ds, key.index);
                        self.tracer.pause();
                        let put = self.raw_put_with_retry(key, &data, cycles);
                        self.tracer.unpause();
                        self.tracer.end(*cycles - before);
                        put?;
                        self.stats.journal_replays += 1;
                        let cycle = self.stats.cycles;
                        self.telemetry.emit(
                            cycle,
                            EventKind::JournalReplay {
                                ds,
                                index: key.index,
                                bytes: data.len() as u64,
                            },
                        );
                        self.breaker_on_success(ds);
                        // A lost-but-journaled object usually means the
                        // server restarted; record the crash and replay the
                        // rest of the journal now rather than lazily.
                        self.check_generation(cycles)?;
                        return Ok(cards_net::Fetched {
                            bytes: data,
                            cycles: 0,
                        });
                    }
                    self.emit_net_abort(key, attempts, false);
                    return Err(RtError::Net(NetError::NotFound(key)));
                }
                Err(e) if Self::retryable(&e) && attempts <= self.cfg.max_retries => {
                    self.account_retry(key, &e, attempts, false, cycles);
                }
                Err(e) => {
                    if Self::retryable(&e) {
                        self.classify_failure(&e);
                        self.breaker_on_failure(ds);
                    }
                    self.emit_net_abort(key, attempts, false);
                    return Err(RtError::Net(e));
                }
            }
        }
    }

    /// The bare put retry loop: no journaling, no generation check. Used
    /// both by [`Self::put_with_retry`] and by journal replay itself (which
    /// must not recurse into the journal).
    fn raw_put_with_retry(
        &mut self,
        key: ObjKey,
        data: &[u8],
        cycles: &mut u64,
    ) -> Result<(), RtError> {
        let ds = key.ds as u16;
        let ctx = self.tracer.context();
        self.transport.set_trace_context(ctx);
        let mut attempts: u32 = 0;
        loop {
            attempts += 1;
            self.breaker_pre_op(ds);
            let r = self.transport.put(key, data);
            self.drain_fault_events(ds, key.index);
            match r {
                Ok(c) => {
                    *cycles += c;
                    self.tracer.leaf(SpanKind::Wire, ds, key.index, c, 0);
                    self.note_retried_op(ds, attempts);
                    self.breaker_on_success(ds);
                    return Ok(());
                }
                Err(e) if Self::retryable(&e) && attempts <= self.cfg.max_retries => {
                    self.account_retry(key, &e, attempts, true, cycles);
                }
                Err(e) => {
                    if Self::retryable(&e) {
                        self.classify_failure(&e);
                        self.breaker_on_failure(ds);
                    }
                    self.emit_net_abort(key, attempts, true);
                    return Err(RtError::Net(e));
                }
            }
        }
    }

    fn put_with_retry(
        &mut self,
        key: ObjKey,
        data: &[u8],
        cycles: &mut u64,
    ) -> Result<(), RtError> {
        self.raw_put_with_retry(key, data, cycles)?;
        // Journal the payload until a flush acknowledges it as durable.
        // Journal *before* the generation check: a crash during this put's
        // retries replays the journal, and that replay must carry these
        // bytes, not this key's previous payload.
        let journaled = self.cfg.journal_flush_every > 0;
        if journaled {
            self.journal.insert(key, data.to_vec());
            self.puts_since_flush += 1;
        }
        self.check_generation(cycles)?;
        if journaled && self.puts_since_flush >= self.cfg.journal_flush_every {
            self.flush_journal(cycles);
        }
        Ok(())
    }

    /// Flush (acknowledge) outstanding writebacks. On success the journal
    /// is cleared — everything it held is durable. Failure is non-fatal:
    /// the journal is retained and recovery falls to generation detection.
    /// An acknowledgement only counts within one server generation: if a
    /// crash landed during this flush's own retries, it dropped every
    /// unacknowledged put, so the journal is replayed and flushed again
    /// before it is cleared.
    fn flush_journal(&mut self, cycles: &mut u64) {
        let ctx = self.tracer.context();
        self.transport.set_trace_context(ctx);
        let mut attempts: u32 = 0;
        loop {
            attempts += 1;
            let r = self.transport.flush();
            self.drain_fault_events(0, 0);
            match r {
                Ok(c) => {
                    *cycles += c;
                    self.tracer.leaf(SpanKind::Flush, 0, 0, c, 0);
                    if self.transport.generation() == self.last_generation {
                        self.journal.clear();
                        self.puts_since_flush = 0;
                        return;
                    }
                    // A crash dropped what this flush acknowledged: replay
                    // the journal, then loop to flush it again.
                    if attempts > self.cfg.max_retries || self.check_generation(cycles).is_err() {
                        self.stats.flush_failures += 1;
                        self.puts_since_flush = 0;
                        return;
                    }
                }
                Err(e) if Self::retryable(&e) && attempts <= self.cfg.max_retries => {
                    self.classify_failure(&e);
                    self.stats.retries += 1;
                    let rtt = self.transport.rtt_cost();
                    *cycles += rtt;
                    let backoff = self.backoff_for(ObjKey { ds: 0, index: 0 }, attempts, true);
                    *cycles += backoff;
                    self.stats.backoff_cycles += backoff;
                    self.telemetry.record(HistPath::RetryAttempt, rtt);
                    self.telemetry.record(HistPath::BackoffSleep, backoff);
                    self.tracer.leaf(SpanKind::Retry, 0, 0, rtt, attempts);
                    self.tracer.leaf(SpanKind::Backoff, 0, 0, backoff, attempts);
                }
                Err(e) => {
                    self.classify_failure(&e);
                    self.stats.flush_failures += 1;
                    self.puts_since_flush = 0;
                    return;
                }
            }
        }
    }

    /// Retry-tolerant server-side free.
    fn remove_with_retry(&mut self, key: ObjKey, cycles: &mut u64) -> Result<(), RtError> {
        let ds = key.ds as u16;
        let ctx = self.tracer.context();
        self.transport.set_trace_context(ctx);
        let mut attempts: u32 = 0;
        loop {
            attempts += 1;
            self.breaker_pre_op(ds);
            let r = self.transport.remove(key);
            self.drain_fault_events(ds, key.index);
            match r {
                Ok(c) => {
                    *cycles += c;
                    self.tracer.leaf(SpanKind::Wire, ds, key.index, c, 0);
                    self.note_retried_op(ds, attempts);
                    self.breaker_on_success(ds);
                    self.check_generation(cycles)?;
                    return Ok(());
                }
                Err(e) if Self::retryable(&e) && attempts <= self.cfg.max_retries => {
                    self.account_retry(key, &e, attempts, true, cycles);
                }
                Err(e) => {
                    if Self::retryable(&e) {
                        self.classify_failure(&e);
                        self.breaker_on_failure(ds);
                    }
                    self.emit_net_abort(key, attempts, true);
                    return Err(RtError::Net(e));
                }
            }
        }
    }

    /// Detect a server crash/restart (generation bump) and replay every
    /// journaled writeback the crash may have dropped.
    fn check_generation(&mut self, cycles: &mut u64) -> Result<(), RtError> {
        let g = self.transport.generation();
        if g == self.last_generation {
            return Ok(());
        }
        self.last_generation = g;
        self.stats.crashes_detected += 1;
        let cycle = self.stats.cycles;
        self.telemetry
            .emit(cycle, EventKind::CrashDetected { generation: g });
        let entries: Vec<(ObjKey, Vec<u8>)> =
            self.journal.iter().map(|(k, v)| (*k, v.clone())).collect();
        for (k, data) in entries {
            let before = *cycles;
            // As in the NotFound path: the replay span absorbs the wire
            // cost so journal-replay cycles are separately accounted.
            self.tracer
                .begin(SpanKind::JournalReplay, k.ds as u16, k.index);
            self.tracer.pause();
            let put = self.raw_put_with_retry(k, &data, cycles);
            self.tracer.unpause();
            self.tracer.end(*cycles - before);
            put?;
            self.stats.journal_replays += 1;
            let cycle = self.stats.cycles;
            self.telemetry.emit(
                cycle,
                EventKind::JournalReplay {
                    ds: k.ds as u16,
                    index: k.index,
                    bytes: data.len() as u64,
                },
            );
        }
        Ok(())
    }

    // ---- circuit breaker ----

    fn breaker_degraded(&self, dsi: usize) -> bool {
        self.ds
            .get(dsi)
            .is_some_and(|d| d.breaker != BreakerState::Closed)
    }

    /// Before each remote attempt: an expired open breaker becomes a
    /// half-open probe (this attempt decides its fate).
    fn breaker_pre_op(&mut self, handle: u16) {
        let dsi = handle as usize;
        if self.cfg.breaker_threshold == 0 || dsi >= self.ds.len() {
            return;
        }
        if let BreakerState::Open { until } = self.ds[dsi].breaker {
            if self.stats.cycles >= until {
                self.ds[dsi].breaker = BreakerState::HalfOpen;
                self.tracer
                    .leaf_detail(SpanKind::Breaker, handle, 0, 0, 0, "open->half_open");
                let cycle = self.stats.cycles;
                self.telemetry.emit(
                    cycle,
                    EventKind::Breaker {
                        ds: handle,
                        from: "open",
                        to: "half_open",
                    },
                );
            }
        }
    }

    fn breaker_on_success(&mut self, handle: u16) {
        let dsi = handle as usize;
        if self.cfg.breaker_threshold == 0 || dsi >= self.ds.len() {
            return;
        }
        self.ds[dsi].breaker_failures = 0;
        if self.ds[dsi].breaker == BreakerState::HalfOpen {
            self.ds[dsi].breaker = BreakerState::Closed;
            self.tracer
                .leaf_detail(SpanKind::Breaker, handle, 0, 0, 0, "half_open->closed");
            let cycle = self.stats.cycles;
            self.telemetry.emit(
                cycle,
                EventKind::Breaker {
                    ds: handle,
                    from: "half_open",
                    to: "closed",
                },
            );
            self.breaker_unpin(handle);
        }
    }

    fn breaker_on_failure(&mut self, handle: u16) {
        let dsi = handle as usize;
        if self.cfg.breaker_threshold == 0 || dsi >= self.ds.len() {
            return;
        }
        match self.ds[dsi].breaker {
            BreakerState::Closed => {
                self.ds[dsi].breaker_failures += 1;
                if self.ds[dsi].breaker_failures >= self.cfg.breaker_threshold {
                    self.ds[dsi].breaker = BreakerState::Open {
                        until: self.stats.cycles + self.cfg.breaker_cooldown,
                    };
                    self.ds[dsi].stats.breaker_trips += 1;
                    self.tracer
                        .leaf_detail(SpanKind::Breaker, handle, 0, 0, 0, "closed->open");
                    self.tracer.trigger("breaker_open", self.stats.cycles);
                    let cycle = self.stats.cycles;
                    self.telemetry.emit(
                        cycle,
                        EventKind::Breaker {
                            ds: handle,
                            from: "closed",
                            to: "open",
                        },
                    );
                    self.breaker_pin_resident(handle);
                }
            }
            BreakerState::HalfOpen => {
                // The probe failed: back to open for another cooldown.
                self.ds[dsi].breaker = BreakerState::Open {
                    until: self.stats.cycles + self.cfg.breaker_cooldown,
                };
                self.tracer
                    .leaf_detail(SpanKind::Breaker, handle, 0, 0, 0, "half_open->open");
                let cycle = self.stats.cycles;
                self.telemetry.emit(
                    cycle,
                    EventKind::Breaker {
                        ds: handle,
                        from: "half_open",
                        to: "open",
                    },
                );
            }
            BreakerState::Open { .. } => {}
        }
    }

    /// Open transition: pin every resident remotable object of the DS so
    /// the degraded structure stops generating writeback traffic. Clock
    /// entries go stale and are dropped on pop.
    fn breaker_pin_resident(&mut self, handle: u16) {
        let dsi = handle as usize;
        let mut moved = 0u64;
        for (_, st) in self.ds[dsi].objects_mut() {
            if let ObjState::Local {
                pinned: pinned @ false,
                breaker_pinned,
                data,
                ..
            } = st
            {
                *pinned = true;
                *breaker_pinned = true;
                moved += data.len() as u64;
            }
        }
        self.remotable_used -= moved;
        self.pinned_used += moved;
    }

    /// Close transition: release breaker pins and hand the objects back to
    /// the clock in index order.
    fn breaker_unpin(&mut self, handle: u16) {
        let dsi = handle as usize;
        let mut moved = 0u64;
        let mut indices = Vec::new();
        for (idx, st) in self.ds[dsi].objects_mut() {
            if let ObjState::Local {
                pinned,
                breaker_pinned: bp @ true,
                data,
                ..
            } = st
            {
                *pinned = false;
                *bp = false;
                moved += data.len() as u64;
                indices.push(idx);
            }
        }
        self.pinned_used -= moved;
        self.remotable_used += moved;
        for idx in indices {
            self.clock.push_back((handle, idx));
        }
    }

    /// Effective remotable budget: the configured cache plus any pinned
    /// memory not (yet) claimed by pinned allocations — local RAM is
    /// fungible, so an under-used pinned pool serves as extra cache. When
    /// pinned allocations arrive later, [`Self::place_new_object`] calls
    /// `ensure_room(0)` to shrink the cache back under the new budget.
    fn effective_remotable_budget(&self) -> u64 {
        self.cfg.remotable_bytes + self.cfg.pinned_bytes.saturating_sub(self.pinned_used)
    }

    /// Evict remotable objects (clock algorithm) until `need` more bytes
    /// fit in the remotable budget. Returns `(cycles, fits)`: `fits` is
    /// false when eviction could not free enough room (oversize object, or
    /// every resident object pinned). With `relief` set, a pin-blocked
    /// sweep may shrink the recent-guard window once (pin-starvation
    /// relief) before giving up; callers decide between overcommitting and
    /// spilling when `fits` comes back false.
    fn ensure_room(&mut self, need: u64, relief: bool) -> Result<(u64, bool), RtError> {
        let mut cycles = 0;
        let mut scanned = 0usize;
        // Relief (and its starvation telemetry) belongs to the governor;
        // with it disabled a wedged sweep reports !fits and the caller
        // overcommits exactly as the pre-governor runtime did.
        let relief = relief && self.cfg.pressure.enabled;
        let mut relieved = false;
        let mut starved_emitted = false;
        while self.remotable_used + need > self.effective_remotable_budget() {
            let mut stuck = false;
            match self.clock.pop_front() {
                None => stuck = true, // nothing evictable at all
                Some((h, idx)) => {
                    let dsi = h as usize;
                    // Recently guarded and scope-pinned objects are
                    // untouchable.
                    if self
                        .recent_guards
                        .iter()
                        .any(|&(rh, ri)| rh == h && ri == idx)
                        || self.scope_pinned(h, idx)
                    {
                        self.clock.push_back((h, idx));
                        scanned += 1;
                        if scanned > 2 * self.clock.len() + 4 {
                            stuck = true;
                        }
                    } else {
                        // Validate: entry may be stale.
                        let second_chance = match self.ds[dsi].obj_mut(idx) {
                            Some(ObjState::Local {
                                pinned: false,
                                ref_bit,
                                ..
                            }) => {
                                // Give one round of second chances, then
                                // force-evict to guarantee progress.
                                if *ref_bit && scanned < self.clock.len() + 1 {
                                    *ref_bit = false;
                                    true
                                } else {
                                    false
                                }
                            }
                            _ => continue, // stale entry (evicted, freed, pinned)
                        };
                        scanned += 1;
                        if second_chance {
                            self.clock.push_back((h, idx));
                        } else {
                            cycles += self.evict(h, idx)?;
                        }
                    }
                }
            }
            if !stuck {
                continue;
            }
            // Eviction is wedged. A guard-pin-saturated clock under real
            // pressure gets one round of relief: shrink the recent-guard
            // window (never below the soundness floor; evicted guards fall
            // into the spill set via the shadow history) and retry.
            let pin_blocked = !self.clock.is_empty();
            if relief
                && !relieved
                && pin_blocked
                && self.recent_guards.len() > self.cfg.pressure.min_guard_window
            {
                let floor = self.cfg.pressure.min_guard_window;
                while self.recent_guards.len() > floor {
                    self.recent_guards.pop_front();
                }
                self.stats.pin_starvations = self.stats.pin_starvations.saturating_add(1);
                let (cycle, used) = (self.stats.cycles, self.remotable_used);
                self.telemetry.emit(
                    cycle,
                    EventKind::PinStarvation {
                        used,
                        window: floor,
                    },
                );
                relieved = true;
                starved_emitted = true;
                scanned = 0;
                continue;
            }
            if self.cfg.pressure.enabled && pin_blocked && !starved_emitted {
                self.stats.pin_starvations = self.stats.pin_starvations.saturating_add(1);
                let (cycle, used) = (self.stats.cycles, self.remotable_used);
                self.telemetry.emit(
                    cycle,
                    EventKind::PinStarvation {
                        used,
                        window: self.recent_guards.len(),
                    },
                );
            }
            return Ok((cycles, false));
        }
        Ok((cycles, true))
    }

    /// Write back (if needed) and drop one resident remotable object.
    fn evict(&mut self, handle: u16, idx: u64) -> Result<u64, RtError> {
        let dsi = handle as usize;
        let Some(ObjState::Local {
            data,
            dirty,
            pinned: false,
            remote_copy,
            ..
        }) = self.ds[dsi].take_obj(idx)
        else {
            return Ok(0);
        };
        let mut cycles = 50; // eviction bookkeeping
        self.tracer.begin(SpanKind::Evict, handle, idx);
        self.remotable_used -= data.len() as u64;
        let needs_writeback = dirty || !remote_copy;
        if needs_writeback {
            let key = ObjKey {
                ds: handle as u32,
                index: idx,
            };
            let before_put = cycles;
            self.tracer.begin(SpanKind::Writeback, handle, idx);
            self.put_with_retry(key, &data, &mut cycles)?;
            let wb_cycles = cycles - before_put;
            self.tracer.end(wb_cycles);
            self.ds[dsi].stats.writebacks += 1;
            let cycle = self.stats.cycles;
            self.telemetry.record(HistPath::Writeback, wb_cycles);
            self.telemetry.emit(
                cycle,
                EventKind::Writeback {
                    ds: handle,
                    index: idx,
                    bytes: data.len() as u64,
                    cycles: wb_cycles,
                },
            );
        }
        self.ds[dsi].stats.evictions += 1;
        self.profiler.on_eviction();
        self.ds[dsi].set_obj(idx, ObjState::Remote);
        // Soundness shield: if a guard ran for this object recently (it may
        // have been elided downstream) or its DS was governor-demoted after
        // guards were compiled away, direct accesses must keep working —
        // route them to the remote tier instead of MissingGuard.
        if self.ds[dsi].pressure_demoted
            || self
                .guard_history
                .iter()
                .any(|&(h2, i2)| h2 == handle && i2 == idx)
        {
            self.spill_ok.insert((handle, idx));
        }
        let cycle = self.stats.cycles;
        self.telemetry.emit(
            cycle,
            EventKind::Eviction {
                ds: handle,
                index: idx,
                dirty: needs_writeback,
            },
        );
        self.tracer.end(cycles);
        Ok(cycles)
    }

    /// Explicitly evict the object containing `ptr` to the remote server
    /// (AIFM-style evacuation; used by benchmarks and tests to control
    /// residency). Pinned objects cannot be evacuated. Returns cycles.
    pub fn evacuate(&mut self, ptr: FarPtr) -> Result<u64, RtError> {
        let Some(handle) = ptr.handle() else {
            return Err(RtError::BadPointer(ptr.bits()));
        };
        let dsi = handle as usize;
        if dsi >= self.ds.len() {
            return Err(RtError::UnknownHandle(handle));
        }
        let idx = ptr.offset() >> self.ds[dsi].spec.obj_shift();
        // Remove any pin so the eviction is allowed. Explicit evacuation
        // also forgets the guard history and spill permit: callers asked
        // for the object to be strictly non-resident.
        self.recent_guards
            .retain(|&(h, i)| !(h == handle && i == idx));
        self.guard_history
            .retain(|&(h, i)| !(h == handle && i == idx));
        self.tracer
            .op_begin(SpanKind::Evacuate, handle, idx, None, self.stats.cycles);
        let cycles = self.evict(handle, idx)?;
        self.spill_ok.remove(&(handle, idx));
        self.stats.cycles += cycles;
        self.tracer.op_end(cycles, self.stats.cycles);
        Ok(cycles)
    }

    // ---- data access ----

    /// Read `buf.len()` bytes at `ptr`. The object(s) must be resident
    /// unless `strict_guards` is off (then they are localized on demand at
    /// full cost). Returns cycles charged (copying is free in the model;
    /// the VM charges its own per-access cost).
    #[inline(always)]
    pub fn read(&mut self, ptr: FarPtr, buf: &mut [u8]) -> Result<u64, RtError> {
        if let Some(obj) = self.resident_bytes(ptr, Access::Read, buf.len()) {
            buf.copy_from_slice(obj);
            return Ok(0);
        }
        let len = buf.len() as u64;
        self.access_bytes(ptr, Access::Read, len, |obj, r, b| {
            buf[b].copy_from_slice(&obj[r]);
        })
    }

    /// Write `data` at `ptr`. Residency rules as in [`Self::read`].
    #[inline(always)]
    pub fn write(&mut self, ptr: FarPtr, data: &[u8]) -> Result<u64, RtError> {
        if let Some(obj) = self.resident_bytes(ptr, Access::Write, data.len()) {
            obj.copy_from_slice(data);
            return Ok(0);
        }
        self.access_bytes(ptr, Access::Write, data.len() as u64, |obj, r, b| {
            obj[r].copy_from_slice(&data[b]);
        })
    }

    /// The fast path of [`Self::read`] and [`Self::write`]: a non-empty
    /// access of `len` bytes inside one resident object that is not a
    /// prefetched object's first touch. Does what [`Self::access_bytes`]
    /// does for it (reference and dirty bits, one local operation on the
    /// tracer, 0 cycles) and returns the accessed bytes; `None` leaves
    /// every other case, errors included, to `access_bytes`.
    #[inline]
    fn resident_bytes(&mut self, ptr: FarPtr, access: Access, len: usize) -> Option<&mut [u8]> {
        let ds = self.ds.get_mut(ptr.handle()? as usize)?;
        let (offset, len) = (ptr.offset(), len as u64);
        let obj_bytes = ds.spec.object_bytes;
        let within = offset & (obj_bytes - 1);
        if len == 0 || offset + len > ds.next_offset || within + len > obj_bytes {
            return None;
        }
        let Some(ObjState::Local {
            data,
            dirty,
            ref_bit,
            prefetched: false,
            ..
        }) = ds.obj_mut(offset >> ds.spec.obj_shift())
        else {
            return None;
        };
        *ref_bit = true;
        if access == Access::Write {
            *dirty = true;
        }
        self.tracer.local_op();
        Some(&mut data[within as usize..(within + len) as usize])
    }

    /// Access `len` bytes at `ptr` chunk by chunk (one chunk per object):
    /// `copy(object_bytes, range_in_object, range_in_caller_buffer)` moves
    /// each chunk between the object and the caller's buffer.
    fn access_bytes(
        &mut self,
        ptr: FarPtr,
        access: Access,
        len: u64,
        mut copy: impl FnMut(&mut [u8], Range<usize>, Range<usize>),
    ) -> Result<u64, RtError> {
        let Some(handle) = ptr.handle() else {
            return Err(RtError::BadPointer(ptr.bits()));
        };
        let dsi = handle as usize;
        if dsi >= self.ds.len() {
            return Err(RtError::UnknownHandle(handle));
        }
        let len = len.max(1);
        let offset = ptr.offset();
        if offset + len > self.ds[dsi].next_offset {
            return Err(RtError::OutOfRange { ds: handle, offset });
        }
        let obj_bytes = self.ds[dsi].spec.object_bytes;
        let shift = self.ds[dsi].spec.obj_shift();
        let mut cycles = 0;
        let mut done = 0u64;
        self.tracer.op_begin(
            SpanKind::Access,
            handle,
            offset >> shift,
            self.profiler.current(),
            self.stats.cycles,
        );
        while done < len {
            let cur = offset + done;
            let idx = cur >> shift;
            let within = cur & (obj_bytes - 1);
            let chunk = (obj_bytes - within).min(len - done);
            let r = within as usize..(within + chunk) as usize;
            let b = done as usize..(done + chunk) as usize;
            done += chunk;
            if self.access_resident(dsi, idx, access, |obj| copy(obj, r.clone(), b.clone())) {
                continue;
            }
            // Not resident. Objects with a spill permit (oversize,
            // pin-starved, or governor-demoted after guard elision) are
            // served directly against the remote tier — legal even in
            // strict mode, because a guard did run for them.
            let spill = if self.spill_ok.contains(&(handle, idx)) {
                true
            } else if self.cfg.strict_guards {
                return Err(RtError::MissingGuard {
                    ds: handle,
                    index: idx,
                });
            } else {
                self.ds[dsi].stats.misses += 1;
                self.stats.derefs_remote += 1;
                let (c, resident) = self.localize(handle, idx)?;
                // Usually unattributed (no guard ran); the profiler's
                // catch-all bucket keeps site sums == DS sums.
                self.profiler.on_miss(c);
                cycles += c;
                !resident
            };
            if !spill {
                let localized = self.access_resident(dsi, idx, access, |obj| copy(obj, r, b));
                assert!(localized, "object localized above");
                continue;
            }
            let key = ObjKey {
                ds: handle as u32,
                index: idx,
            };
            let write = access == Access::Write;
            let before = cycles;
            self.tracer.begin(SpanKind::Spill, handle, idx);
            let mut fetched = self.fetch_with_retry(key, false, &mut cycles)?;
            cycles += self.cfg.costs.remote_extra;
            copy(&mut fetched.bytes, r, b);
            if write {
                self.put_with_retry(key, &fetched.bytes, &mut cycles)?;
                self.stats.spill_writes = self.stats.spill_writes.saturating_add(1);
            } else {
                self.stats.spill_reads = self.stats.spill_reads.saturating_add(1);
            }
            self.ds[dsi].stats.spills = self.ds[dsi].stats.spills.saturating_add(1);
            self.profiler.on_spill();
            self.tracer.end(cycles - before);
            let cycle = self.stats.cycles;
            self.telemetry
                .record(HistPath::DerefRemote, cycles - before);
            self.telemetry.emit(
                cycle,
                EventKind::Spill {
                    ds: handle,
                    index: idx,
                    write,
                },
            );
        }
        self.stats.cycles += cycles;
        self.tracer.op_end(cycles, self.stats.cycles);
        Ok(cycles)
    }

    /// Read a little-endian u64 (convenience for the VM and prefetch tests).
    pub fn read_u64(&mut self, ptr: FarPtr) -> Result<(u64, u64), RtError> {
        let mut b = [0u8; 8];
        let c = self.read(ptr, &mut b)?;
        Ok((u64::from_le_bytes(b), c))
    }

    /// Write a little-endian u64.
    pub fn write_u64(&mut self, ptr: FarPtr, v: u64) -> Result<u64, RtError> {
        self.write(ptr, &v.to_le_bytes())
    }

    // ---- policy hooks ----

    /// The `RemotableCheck` runtime call: is any of `handles` currently
    /// remotable? Returns `(answer, cycles)`.
    pub fn remotable_check(&mut self, handles: &[u16]) -> (bool, u64) {
        self.stats.remotable_checks += 1;
        let cycles = self.cfg.costs.remotable_check * handles.len().max(1) as u64;
        self.stats.cycles += cycles;
        let any = handles
            .iter()
            .any(|&h| self.ds.get(h as usize).is_none_or(|d| d.remotable));
        (any, cycles)
    }

    /// Whether DS `handle` is currently remotable.
    pub fn is_remotable(&self, handle: u16) -> bool {
        self.ds.get(handle as usize).is_none_or(|d| d.remotable)
    }

    /// Current circuit-breaker state of DS `handle` as a stable name
    /// (`"closed"`, `"open"`, `"half_open"`).
    pub fn breaker_state(&self, handle: u16) -> Option<&'static str> {
        self.ds.get(handle as usize).map(|d| d.breaker.name())
    }

    /// Number of writebacks journaled but not yet acknowledged by a flush.
    pub fn journal_len(&self) -> usize {
        self.journal.len()
    }

    /// Force a journal flush now (acknowledge outstanding writebacks).
    /// Failure is non-fatal — entries are retained. Returns cycles charged.
    pub fn flush_writebacks(&mut self) -> u64 {
        let mut cycles = 0;
        if !self.journal.is_empty() {
            self.tracer
                .op_begin(SpanKind::FlushWritebacks, 0, 0, None, self.stats.cycles);
            self.flush_journal(&mut cycles);
            self.stats.cycles += cycles;
            self.tracer.op_end(cycles, self.stats.cycles);
        }
        cycles
    }

    /// Quiescence drain: push every locally resident object whose bytes
    /// are not known-current on the server, then flush. Afterward the
    /// server holds the complete current state of every data structure,
    /// so its per-DS checksums are a pure function of the program's
    /// logical state — independent of cache pressure, eviction history,
    /// or worker interleaving. The concurrent serving oracle calls this
    /// on each drained worker before comparing server digests against a
    /// serial replay (DESIGN.md §13). Objects stay resident (and clean);
    /// this is a push, not an eviction. Returns cycles charged.
    pub fn quiesce(&mut self) -> Result<u64, RtError> {
        let mut cycles = 0;
        for dsi in 0..self.ds.len() {
            for idx in 0..self.ds[dsi].objects.len() as u64 {
                let data = match self.ds[dsi].obj(idx) {
                    Some(ObjState::Local {
                        data,
                        dirty,
                        remote_copy,
                        ..
                    }) if *dirty || !*remote_copy => data.to_vec(),
                    _ => continue,
                };
                let key = ObjKey {
                    ds: dsi as u32,
                    index: idx,
                };
                self.put_with_retry(key, &data, &mut cycles)?;
                self.ds[dsi].stats.writebacks += 1;
                if let Some(ObjState::Local {
                    dirty, remote_copy, ..
                }) = self.ds[dsi].obj_mut(idx)
                {
                    *dirty = false;
                    *remote_copy = true;
                }
            }
        }
        self.flush_journal(&mut cycles);
        self.stats.cycles += cycles;
        Ok(cycles)
    }

    // ---- memory-pressure governor ----

    /// Install a pressure fault-injection schedule. Phases rescale the
    /// budgets captured *now*; ticks advance once per guard event, so
    /// replays of the same workload see identical pressure timelines.
    pub fn set_pressure_schedule(&mut self, sched: PressureSchedule) {
        self.base_pinned = self.cfg.pinned_bytes;
        self.base_remotable = self.cfg.remotable_bytes;
        self.pressure_phase = u64::MAX;
        self.pressure_tick = 0;
        self.pressure_sched = Some(sched);
    }

    /// Per-guard governor pulse: advance the fault-injection schedule (if
    /// any) and run the watermark logic (if the governor is enabled).
    fn pressure_pulse(&mut self) -> Result<(), RtError> {
        let at = self
            .pressure_sched
            .as_ref()
            .map(|s| s.at(self.pressure_tick));
        if let Some((instance, pinned_pct, remotable_pct)) = at {
            self.pressure_tick += 1;
            if instance != self.pressure_phase {
                self.pressure_phase = instance;
                self.cfg.pinned_bytes = self.base_pinned.saturating_mul(pinned_pct as u64) / 100;
                self.cfg.remotable_bytes =
                    self.base_remotable.saturating_mul(remotable_pct as u64) / 100;
                self.stats.pressure_phase_changes =
                    self.stats.pressure_phase_changes.saturating_add(1);
                let cycle = self.stats.cycles;
                self.telemetry.emit(
                    cycle,
                    EventKind::PressurePhase {
                        phase: instance,
                        pinned_pct,
                        remotable_pct,
                    },
                );
                if self.pinned_used > self.cfg.pinned_bytes {
                    // The pinned tier no longer fits its budget: a re-solve
                    // is a correctness matter, not a tuning one, so it runs
                    // even with the governor disabled.
                    self.run_resolve();
                }
                if self.cfg.pressure.enabled {
                    self.proactive_sweep()?;
                }
            }
        }
        if !self.cfg.pressure.enabled {
            return Ok(());
        }
        let budget = self.effective_remotable_budget();
        let high = budget.saturating_mul(self.cfg.pressure.high_watermark_pct as u64) / 100;
        let low = budget.saturating_mul(self.cfg.pressure.low_watermark_pct as u64) / 100;
        if !self.pressure_high && self.remotable_used > high {
            self.pressure_high = true;
            self.stats.pressure_high_crossings =
                self.stats.pressure_high_crossings.saturating_add(1);
            let (cycle, used) = (self.stats.cycles, self.remotable_used);
            self.telemetry
                .emit(cycle, EventKind::PressureHigh { used, budget });
            self.proactive_sweep()?;
        } else if self.pressure_high && self.remotable_used <= low {
            self.pressure_high = false;
        } else if self.pressure_high {
            self.proactive_sweep()?;
        }
        Ok(())
    }

    /// Batched proactive eviction: drain the remotable tier toward the low
    /// watermark, at most `evict_batch` evictions per sweep, using the same
    /// skip/second-chance rules as demand eviction.
    fn proactive_sweep(&mut self) -> Result<(), RtError> {
        let budget = self.effective_remotable_budget();
        let low = budget.saturating_mul(self.cfg.pressure.low_watermark_pct as u64) / 100;
        let mut cycles = 0u64;
        let mut evicted = 0u64;
        let mut freed = 0u64;
        let mut scanned = 0usize;
        while self.remotable_used > low && evicted < self.cfg.pressure.evict_batch as u64 {
            let Some((h, idx)) = self.clock.pop_front() else {
                break;
            };
            let dsi = h as usize;
            if self
                .recent_guards
                .iter()
                .any(|&(rh, ri)| rh == h && ri == idx)
                || self.scope_pinned(h, idx)
            {
                self.clock.push_back((h, idx));
                scanned += 1;
                if scanned > 2 * self.clock.len() + 4 {
                    break;
                }
                continue;
            }
            let second_chance = match self.ds[dsi].obj_mut(idx) {
                Some(ObjState::Local {
                    pinned: false,
                    ref_bit,
                    ..
                }) => {
                    if *ref_bit && scanned < self.clock.len() + 1 {
                        *ref_bit = false;
                        true
                    } else {
                        false
                    }
                }
                _ => continue, // stale entry
            };
            scanned += 1;
            if second_chance {
                self.clock.push_back((h, idx));
                continue;
            }
            let before = self.remotable_used;
            cycles += self.evict(h, idx)?;
            evicted += 1;
            freed += before.saturating_sub(self.remotable_used);
        }
        if evicted > 0 {
            self.stats.proactive_evictions = self.stats.proactive_evictions.saturating_add(evicted);
            self.stats.cycles += cycles;
            let cycle = self.stats.cycles;
            self.telemetry.emit(
                cycle,
                EventKind::ProactiveEvict {
                    evicted,
                    bytes: freed,
                },
            );
        }
        Ok(())
    }

    /// One governor epoch: refresh per-DS velocities from the epoch deltas
    /// and re-solve the placement policy if something is thrashing (and the
    /// global cooldown has expired). Rides the guard-event epoch clock
    /// ([`Self::epoch_tick`]), which keeps running with telemetry off.
    fn governor_epoch(&mut self, ds_stats: &[DsStats]) {
        if !self.cfg.pressure.enabled {
            return;
        }
        self.gov_epochs += 1;
        for (dsi, s) in ds_stats.iter().enumerate() {
            let prev = self.prev_epoch_stats[dsi];
            let dm = s.misses.saturating_sub(prev.misses);
            let de = s.evictions.saturating_sub(prev.evictions);
            let dh = s.hits.saturating_sub(prev.hits);
            // EWMA with alpha = 1/2: integer-only, decays in a few epochs.
            self.miss_vel[dsi] = (self.miss_vel[dsi] + dm) / 2;
            self.evict_vel[dsi] = (self.evict_vel[dsi] + de) / 2;
            self.hit_vel[dsi] = (self.hit_vel[dsi] + dh) / 2;
            self.prev_epoch_stats[dsi] = *s;
        }
        let cooldown = self.cfg.pressure.resolve_cooldown_epochs;
        if self.gov_epochs.saturating_sub(self.last_resolve_epoch) < cooldown {
            return;
        }
        let threshold = self.cfg.pressure.thrash_threshold.max(1);
        let thrashing = (0..self.ds.len())
            .any(|i| self.miss_vel[i].saturating_add(self.evict_vel[i]) >= threshold);
        if thrashing {
            self.run_resolve();
        }
    }

    /// Re-solve the placement policy against live load samples and apply
    /// whatever hint changes come back.
    fn run_resolve(&mut self) {
        let loads = self.build_loads();
        let changes = reassign_hints_online(
            &loads,
            self.cfg.pinned_bytes,
            self.cfg.pressure.thrash_threshold,
        );
        let (mut demoted, mut promoted) = (0u64, 0u64);
        for ch in changes {
            match ch {
                HintChange::Demote { handle, why } => {
                    if self.apply_demotion(handle, &why) {
                        demoted += 1;
                    }
                }
                HintChange::Promote { handle, why } => {
                    if self.apply_promotion(handle, &why) {
                        promoted += 1;
                    }
                }
            }
        }
        if demoted + promoted > 0 {
            self.stats.resolves = self.stats.resolves.saturating_add(1);
            self.last_resolve_epoch = self.gov_epochs;
            self.tracer.trigger("thrash_resolve", self.stats.cycles);
            let (cycle, epoch) = (self.stats.cycles, self.gov_epochs);
            self.telemetry.emit(
                cycle,
                EventKind::Resolve {
                    epoch,
                    demoted,
                    promoted,
                },
            );
        }
    }

    /// Sample every DS's live load for the online solver.
    fn build_loads(&self) -> Vec<DsLoad> {
        let mut loads = Vec::with_capacity(self.ds.len());
        for (dsi, ds) in self.ds.iter().enumerate() {
            let mut pinned_bytes = 0u64;
            let mut resident_bytes = 0u64;
            for st in ds.objects.iter().flatten() {
                if let ObjState::Local {
                    pinned,
                    breaker_pinned,
                    data,
                    ..
                } = st
                {
                    if *pinned && !*breaker_pinned {
                        pinned_bytes += data.len() as u64;
                    } else if !*pinned {
                        resident_bytes += data.len() as u64;
                    }
                }
            }
            loads.push(DsLoad {
                handle: dsi as u16,
                pinned_bytes,
                resident_bytes,
                miss_velocity: self.miss_vel[dsi],
                eviction_velocity: self.evict_vel[dsi],
                hit_velocity: self.hit_vel[dsi],
                use_score: ds.spec.priority.use_score,
                eligible: self.last_change_epoch[dsi] == u64::MAX
                    || self.gov_epochs.saturating_sub(self.last_change_epoch[dsi])
                        >= self.cfg.pressure.resolve_cooldown_epochs,
            });
        }
        loads
    }

    /// Apply a demotion: unpin the DS's policy-pinned residency onto the
    /// clock, flip it remotable, and mark it governor-demoted (future
    /// evictions of its objects enter the spill set). Breaker pins are
    /// untouched — degraded mode wins. Returns whether anything changed.
    fn apply_demotion(&mut self, handle: u16, why: &str) -> bool {
        let dsi = handle as usize;
        if dsi >= self.ds.len() {
            return false;
        }
        let changed_flags = !self.ds[dsi].remotable
            || self.ds[dsi].pressure_pinned
            || !self.ds[dsi].pressure_demoted;
        let mut moved = 0u64;
        let mut indices = Vec::new();
        for (idx, st) in self.ds[dsi].objects_mut() {
            if let ObjState::Local {
                pinned: pinned @ true,
                breaker_pinned: false,
                data,
                ..
            } = st
            {
                *pinned = false;
                moved += data.len() as u64;
                indices.push(idx);
            }
        }
        if moved == 0 && !changed_flags {
            return false;
        }
        self.pinned_used -= moved;
        self.remotable_used += moved;
        for idx in indices {
            self.clock.push_back((handle, idx));
        }
        let ds = &mut self.ds[dsi];
        ds.remotable = true;
        ds.pressure_pinned = false;
        ds.pressure_demoted = true;
        ds.stats.hint_demotions = ds.stats.hint_demotions.saturating_add(1);
        self.stats.hint_demotions = self.stats.hint_demotions.saturating_add(1);
        self.last_change_epoch[dsi] = self.gov_epochs;
        let cycle = self.stats.cycles;
        self.telemetry.emit(
            cycle,
            EventKind::HintDemoted {
                ds: handle,
                why: why.to_string(),
            },
        );
        true
    }

    /// Apply a promotion: soft-pin the DS's unpinned resident set (it stays
    /// `remotable` for dispatch, so no guard becomes unsound) if it fits
    /// the pinned budget. Returns whether anything changed.
    fn apply_promotion(&mut self, handle: u16, why: &str) -> bool {
        let dsi = handle as usize;
        if dsi >= self.ds.len() || self.breaker_degraded(dsi) {
            return false;
        }
        let mut bytes = 0u64;
        for st in self.ds[dsi].objects.iter().flatten() {
            if let ObjState::Local {
                pinned: false,
                data,
                ..
            } = st
            {
                bytes += data.len() as u64;
            }
        }
        if self.pinned_used.saturating_add(bytes) > self.cfg.pinned_bytes {
            return false;
        }
        let changed_flags = !self.ds[dsi].pressure_pinned || self.ds[dsi].pressure_demoted;
        if bytes == 0 && !changed_flags {
            return false;
        }
        for (_, st) in self.ds[dsi].objects_mut() {
            if let ObjState::Local {
                pinned: pinned @ false,
                ..
            } = st
            {
                *pinned = true;
            }
        }
        // Their clock entries go stale and are dropped on pop.
        self.remotable_used -= bytes;
        self.pinned_used += bytes;
        let ds = &mut self.ds[dsi];
        ds.pressure_pinned = true;
        ds.pressure_demoted = false;
        ds.stats.hint_promotions = ds.stats.hint_promotions.saturating_add(1);
        self.stats.hint_promotions = self.stats.hint_promotions.saturating_add(1);
        self.last_change_epoch[dsi] = self.gov_epochs;
        let cycle = self.stats.cycles;
        self.telemetry.emit(
            cycle,
            EventKind::HintPromoted {
                ds: handle,
                why: why.to_string(),
            },
        );
        true
    }

    // ---- introspection ----

    /// Per-DS statistics.
    pub fn ds_stats(&self, handle: u16) -> Option<&DsStats> {
        self.ds.get(handle as usize).map(|d| &d.stats)
    }

    /// Spec of a registered DS.
    pub fn ds_spec(&self, handle: u16) -> Option<&DsSpec> {
        self.ds.get(handle as usize).map(|d| &d.spec)
    }

    /// Number of registered data structures.
    pub fn ds_count(&self) -> usize {
        self.ds.len()
    }

    /// Global runtime statistics.
    pub fn stats(&self) -> RuntimeStats {
        self.stats
    }

    /// Network statistics from the transport.
    pub fn net_stats(&self) -> cards_net::NetStats {
        self.transport.stats()
    }

    /// Bytes of pinned local memory in use.
    pub fn pinned_used(&self) -> u64 {
        self.pinned_used
    }

    /// Bytes of remotable local memory in use.
    pub fn remotable_used(&self) -> u64 {
        self.remotable_used
    }

    /// The configuration.
    pub fn config(&self) -> &RuntimeConfig {
        &self.cfg
    }

    /// Borrow the transport (tests/diagnostics).
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// Mutable transport access — fault injection and recording wrappers
    /// in tests and harnesses.
    pub fn transport_mut(&mut self) -> &mut T {
        &mut self.transport
    }

    /// The telemetry sink: event ring, latency histograms, epoch series.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Mutable telemetry sink — lets embedders (e.g. the VM) emit their
    /// own events onto the same timeline.
    pub fn telemetry_mut(&mut self) -> &mut Telemetry {
        &mut self.telemetry
    }

    /// The per-site attribution profiler.
    pub fn profiler(&self) -> &SiteProfiler {
        &self.profiler
    }

    /// Mutable profiler — the VM sets the executing site through this.
    pub fn profiler_mut(&mut self) -> &mut SiteProfiler {
        &mut self.profiler
    }

    /// The causal tracer: recent span trees, anomaly triggers, flight
    /// snapshots (the `cards ttrace` data source).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Mutable tracer — embedders fire their own anomaly triggers.
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    /// Current modeled cycle clock (the stamp used for telemetry events).
    pub fn now(&self) -> u64 {
        self.stats.cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::PrefetchKind;
    use cards_net::envelope::{fnv1a, fnv1a_init};
    use cards_net::SimTransport;

    /// Everything an access can change that the fast path touches or
    /// must leave alone.
    fn state(rt: &FarMemRuntime<SimTransport>) -> String {
        let mut s = format!(
            "{:?} {:?} local={} remote={} abandoned={}",
            rt.stats,
            rt.net_stats(),
            rt.tracer.local_ops(),
            rt.tracer.remote_ops(),
            rt.tracer.abandoned_ops()
        );
        for d in &rt.ds {
            s += &format!(" {:?}", d.stats);
            for (i, o) in d.objects.iter().enumerate() {
                if let Some(ObjState::Local {
                    data,
                    dirty,
                    ref_bit,
                    prefetched,
                    ..
                }) = o
                {
                    let bytes = fnv1a(fnv1a_init(), data);
                    s += &format!(" {i}:{dirty}{ref_bit}{prefetched}{bytes:x}");
                }
            }
        }
        s
    }

    /// `read` and `write`, which try the resident fast path first, leave
    /// the runtime exactly as `access_bytes` alone does, on every kind of
    /// access: one resident object, several objects, a prefetched
    /// object's first touch, a non-resident object, out of range, unknown
    /// DS, untagged, and with a dangling traced operation.
    #[test]
    fn resident_fast_path_matches_access_bytes() {
        let mk = |strict: bool| {
            let mut rt = FarMemRuntime::new(
                RuntimeConfig::new(0, 6 * 4096).with_strict_guards(strict),
                SimTransport::default(),
            );
            let spec = DsSpec {
                prefetch: PrefetchKind::Stride,
                ..DsSpec::simple("a")
            };
            let h = rt.register_ds(spec, StaticHint::Remotable);
            let (p, _) = rt.ds_alloc(h, 16 * 4096).unwrap();
            for i in 0..16u64 {
                rt.guard(p.add(i * 4096 + 8), Access::Write, 8).unwrap();
                rt.write_u64(p.add(i * 4096 + 8), i).unwrap();
            }
            // Sequential misses train the stride prefetcher, so some
            // objects come in prefetched and not yet touched.
            for i in 0..4u64 {
                rt.guard(p.add(i * 4096), Access::Read, 8).unwrap();
            }
            (rt, p)
        };
        for strict in [true, false] {
            let (mut fast, p) = mk(strict);
            let (mut slow, _) = mk(strict);
            assert_eq!(state(&fast), state(&slow));
            let prefetched = (0..16u64)
                .find(|&i| {
                    matches!(
                        fast.ds[0].obj(i),
                        Some(ObjState::Local {
                            prefetched: true,
                            ..
                        })
                    )
                })
                .expect("the stride prefetcher ran ahead");
            let remote = (0..16u64)
                .find(|&i| !matches!(fast.ds[0].obj(i), Some(ObjState::Local { .. })))
                .expect("the cache holds fewer than 16 objects");
            // Cases 0 and 1 take the fast path.
            assert!(matches!(
                fast.ds[0].obj(3),
                Some(ObjState::Local {
                    prefetched: false,
                    ..
                })
            ));
            let cases: [(FarPtr, usize); 10] = [
                (p.add(3 * 4096 + 8), 8),
                (p.add(3 * 4096 + 4095), 1),
                (p.add(2 * 4096 + 4092), 8),
                (p.add(prefetched * 4096 + 16), 4),
                (p.add(prefetched * 4096 + 24), 8),
                (p.add(remote * 4096), 8),
                (p.add(16 * 4096 - 8), 8),
                (p.add(16 * 4096 - 4), 8),
                (FarPtr::encode(7, 0), 8),
                (FarPtr(0x1000), 8),
            ];
            for (k, &(ptr, len)) in cases.iter().enumerate() {
                for write in [false, true] {
                    // A dangling operation (an error unwound past its
                    // `op_end`) before some of the accesses.
                    if k % 3 == 0 {
                        for rt in [&mut fast, &mut slow] {
                            rt.tracer.op_begin(SpanKind::Guard, 0, 0, None, 0);
                        }
                    }
                    let data: Vec<u8> = (0..len as u8).map(|b| b ^ k as u8).collect();
                    let mut got = vec![0u8; len];
                    let mut want = vec![0u8; len];
                    let (a, b) = if write {
                        let b = slow.access_bytes(ptr, Access::Write, len as u64, |o, r, b| {
                            o[r].copy_from_slice(&data[b]);
                        });
                        (fast.write(ptr, &data), b)
                    } else {
                        let b = slow.access_bytes(ptr, Access::Read, len as u64, |o, r, b| {
                            want[b].copy_from_slice(&o[r]);
                        });
                        (fast.read(ptr, &mut got), b)
                    };
                    let what = format!("case {k} write={write} strict={strict}");
                    assert_eq!(a, b, "{what}");
                    assert_eq!(got, want, "{what}");
                    assert_eq!(state(&fast), state(&slow), "{what}");
                }
            }
        }
    }
}
