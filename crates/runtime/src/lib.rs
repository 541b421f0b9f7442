//! # cards-runtime
//!
//! The CaRDS far-memory runtime: a from-scratch reimplementation of the
//! paper's modified-AIFM runtime managing remote memory at *data structure*
//! granularity.
//!
//! Key pieces:
//! - [`FarPtr`] — tagged pointers carrying the DS handle in bits 48–63
//!   (the custody-check scheme of Figure 3 / Listing 2).
//! - [`DsSpec`] — the compiler → runtime contract describing one disjoint
//!   data structure (object size, element layout, prefetch policy, static
//!   priorities).
//! - [`RemotingPolicy`] / [`assign_hints`] — the Linear / Random /
//!   Max Reach / Max Use policies of §4.2 with tunable `k`.
//! - [`FarMemRuntime`] — pinned + remotable local memory, clock eviction,
//!   `cards_deref` guards, per-DS hit/miss statistics, runtime override of
//!   static hints, and per-DS prefetchers ([`prefetch`]).
//!
//! The runtime is IR-agnostic: `cards-vm` lowers IR-level metadata into
//! [`DsSpec`]s, and native Rust code can use the runtime directly (see the
//! `quickstart` example at the workspace root).

pub mod config;
pub mod farptr;
pub mod policy;
pub mod prefetch;
pub mod pressure;
pub mod profile;
pub mod report;
pub mod runtime;
pub mod spec;
pub mod stats;
pub mod telemetry;
pub mod ttrace;

pub use config::{CostModel, RuntimeConfig};
pub use farptr::{FarPtr, MAX_HANDLE, OFFSET_MASK, TAG_SHIFT};
pub use policy::{
    assign_hints, assign_hints_explained, reassign_hints_online, DsLoad, HintChange,
    PolicyDecision, RemotingPolicy,
};
pub use prefetch::{build_prefetcher, PrefetchTarget, Prefetcher};
pub use pressure::{PressureConfig, PressurePhase, PressureSchedule};
pub use profile::{SiteCounters, SiteProfiler};
pub use report::render_report;
pub use runtime::{Access, FarMemRuntime, RtError};
pub use spec::{DsPriority, DsSpec, PrefetchKind, StaticHint};
pub use stats::{DsStats, RuntimeStats};
pub use telemetry::{
    export_chrome_trace, export_json, Event, EventKind, HistPath, Histogram, Telemetry,
    TelemetryConfig,
};
pub use ttrace::{FlightSnapshot, Span, SpanKind, TraceConfig, TraceTree, TraceTrigger, Tracer};

/// Round `v` up to a multiple of `align` (power of two).
pub(crate) fn align_up(v: u64, align: u64) -> u64 {
    debug_assert!(align.is_power_of_two());
    (v + align - 1) & !(align - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cards_net::{NetworkModel, ObjKey, SimTransport, Transport};

    fn rt(pinned: u64, remotable: u64) -> FarMemRuntime<SimTransport> {
        FarMemRuntime::new(
            RuntimeConfig::new(pinned, remotable),
            SimTransport::new(NetworkModel::default()),
        )
    }

    #[test]
    fn pinned_alloc_stays_local_and_cheap() {
        let mut r = rt(1 << 20, 1 << 20);
        let h = r.register_ds(DsSpec::simple("a"), StaticHint::Pinned);
        let (p, _) = r.ds_alloc(h, 8192).unwrap();
        assert!(p.is_tagged());
        assert!(!r.is_remotable(h));
        assert_eq!(r.pinned_used(), 8192);
        // guard on a pinned object: local fault cost only
        let c = r.guard(p, Access::Read, 8).unwrap();
        assert_eq!(c, r.config().costs.read_fault_local);
        assert_eq!(r.ds_stats(h).unwrap().hits, 1);
        assert_eq!(r.net_stats().fetches, 0);
    }

    #[test]
    fn untagged_guard_costs_only_custody_check() {
        let mut r = rt(0, 1 << 20);
        let c = r.guard(FarPtr(0x1000), Access::Read, 8).unwrap();
        assert_eq!(c, r.config().costs.custody_check);
    }

    #[test]
    fn write_read_round_trip() {
        let mut r = rt(0, 1 << 20);
        let h = r.register_ds(DsSpec::simple("a"), StaticHint::Remotable);
        let (p, _) = r.ds_alloc(h, 64).unwrap();
        r.guard(p, Access::Write, 8).unwrap();
        r.write_u64(p, 0xdead_beef).unwrap();
        let (v, _) = r.read_u64(p).unwrap();
        assert_eq!(v, 0xdead_beef);
    }

    #[test]
    fn eviction_and_refetch_preserve_data() {
        // remotable budget of exactly 2 objects of 4K
        let mut r = rt(0, 8192);
        let h = r.register_ds(DsSpec::simple("a"), StaticHint::Remotable);
        let (p0, _) = r.ds_alloc(h, 4096).unwrap();
        r.write_u64(p0, 111).unwrap();
        let (p1, _) = r.ds_alloc(h, 4096).unwrap();
        r.write_u64(p1, 222).unwrap();
        // Third object forces eviction of one of the first two.
        let (p2, _) = r.ds_alloc(h, 4096).unwrap();
        r.write_u64(p2, 333).unwrap();
        assert!(r.ds_stats(h).unwrap().evictions >= 1);
        assert!(r.remotable_used() <= 8192);
        // All data still correct after localizing whatever was evicted.
        for (p, want) in [(p0, 111u64), (p1, 222), (p2, 333)] {
            r.guard(p, Access::Read, 8).unwrap();
            let (v, _) = r.read_u64(p).unwrap();
            assert_eq!(v, want);
        }
    }

    #[test]
    fn remote_guard_charges_network_cost() {
        let mut r = rt(0, 4096);
        let h = r.register_ds(DsSpec::simple("a"), StaticHint::Remotable);
        let (p0, _) = r.ds_alloc(h, 4096).unwrap();
        let (p1, _) = r.ds_alloc(h, 4096).unwrap(); // evicts p0's object
                                                    // Free the resident object so localizing p0 needs no eviction.
        r.free(p1).unwrap();
        let c = r.guard(p0, Access::Read, 8).unwrap();
        // remote fault ≈ 46K wire + 13K bookkeeping ≈ 59K (Table 1)
        assert!(c > 50_000, "remote guard cost {c}");
        assert!(c < 70_000, "remote guard cost {c}");
        assert_eq!(r.ds_stats(h).unwrap().misses, 1);
    }

    #[test]
    fn strict_mode_catches_missing_guard() {
        let mut r = rt(0, 4096);
        let h = r.register_ds(DsSpec::simple("a"), StaticHint::Remotable);
        let (p0, _) = r.ds_alloc(h, 4096).unwrap();
        let _ = r.ds_alloc(h, 4096).unwrap(); // evicts p0
        let mut buf = [0u8; 8];
        let e = r.read(p0, &mut buf).unwrap_err();
        assert!(matches!(e, RtError::MissingGuard { .. }));
    }

    #[test]
    fn non_strict_mode_localizes_on_demand() {
        let cfg = RuntimeConfig::new(0, 4096).with_strict_guards(false);
        let mut r = FarMemRuntime::new(cfg, SimTransport::default());
        let h = r.register_ds(DsSpec::simple("a"), StaticHint::Remotable);
        let (p0, _) = r.ds_alloc(h, 4096).unwrap();
        r.write_u64(p0, 7).unwrap();
        let _ = r.ds_alloc(h, 4096).unwrap(); // evicts p0
        let (v, c) = r.read_u64(p0).unwrap();
        assert_eq!(v, 7);
        assert!(c > 40_000); // paid the remote cost
    }

    #[test]
    fn pinned_overflow_demotes_ds() {
        // pinned budget: 1 object; DS wants 3.
        let mut r = rt(4096, 1 << 20);
        let h = r.register_ds(DsSpec::simple("big"), StaticHint::Pinned);
        let (_p, _) = r.ds_alloc(h, 3 * 4096).unwrap();
        assert!(r.is_remotable(h), "runtime override must demote");
        assert_eq!(r.ds_stats(h).unwrap().demotions, 1);
        assert_eq!(r.pinned_used(), 4096);
        let (any, _) = r.remotable_check(&[h]);
        assert!(any);
    }

    #[test]
    fn pinned_if_room_spills_then_marks_remotable() {
        let mut r = rt(8192, 1 << 20);
        let a = r.register_ds(DsSpec::simple("a"), StaticHint::PinnedIfRoom);
        let b = r.register_ds(DsSpec::simple("b"), StaticHint::PinnedIfRoom);
        r.ds_alloc(a, 8192).unwrap(); // fills pinned memory
        assert!(!r.is_remotable(a));
        r.ds_alloc(b, 4096).unwrap(); // must spill
        assert!(r.is_remotable(b));
        let (any, _) = r.remotable_check(&[a]);
        assert!(!any, "ds a is fully pinned");
    }

    #[test]
    fn stride_prefetcher_cuts_miss_count() {
        // Working set of 64 objects, cache of 16. Sequential scan.
        let run = |kind: PrefetchKind| {
            let mut r =
                FarMemRuntime::new(RuntimeConfig::new(0, 16 * 4096), SimTransport::default());
            let spec = DsSpec::simple("arr").with_prefetch(kind);
            let h = r.register_ds(spec, StaticHint::Remotable);
            let (p, _) = r.ds_alloc(h, 64 * 4096).unwrap();
            // Force everything remote first: allocate a second DS that
            // thrashes the cache.
            let h2 = r.register_ds(DsSpec::simple("thrash"), StaticHint::Remotable);
            let (q, _) = r.ds_alloc(h2, 16 * 4096).unwrap();
            for i in 0..16u64 {
                r.guard(q.add(i * 4096), Access::Write, 8).unwrap();
            }
            // Sequential scan of the 64 objects.
            let mut cycles = 0;
            for i in 0..64u64 {
                cycles += r.guard(p.add(i * 4096), Access::Read, 8).unwrap();
            }
            (cycles, r.ds_stats(h).unwrap().misses)
        };
        let (c_none, m_none) = run(PrefetchKind::None);
        let (c_stride, m_stride) = run(PrefetchKind::Stride);
        assert!(
            m_stride < m_none,
            "stride prefetch should cut misses: {m_stride} vs {m_none}"
        );
        assert!(
            c_stride < c_none,
            "stride prefetch should cut cycles: {c_stride} vs {c_none}"
        );
    }

    #[test]
    fn prefetch_usefulness_is_tracked() {
        let mut r = FarMemRuntime::new(RuntimeConfig::new(0, 8 * 4096), SimTransport::default());
        let spec = DsSpec::simple("arr").with_prefetch(PrefetchKind::Stride);
        let h = r.register_ds(spec, StaticHint::Remotable);
        let (p, _) = r.ds_alloc(h, 32 * 4096).unwrap();
        // Evict everything by touching the tail then scanning from the head.
        for i in 0..32u64 {
            r.guard(p.add(i * 4096), Access::Read, 8).unwrap();
        }
        let s = r.ds_stats(h).unwrap();
        assert!(s.prefetch_issued > 0);
        assert!(s.prefetch_useful > 0);
        assert!(s.prefetch_accuracy() > 0.0);
    }

    #[test]
    fn free_releases_local_memory() {
        let mut r = rt(1 << 20, 1 << 20);
        let h = r.register_ds(DsSpec::simple("a"), StaticHint::Pinned);
        let (p, _) = r.ds_alloc(h, 16384).unwrap();
        assert_eq!(r.pinned_used(), 16384);
        r.free(p).unwrap();
        assert_eq!(r.pinned_used(), 0);
    }

    /// Evacuating a pinned object is a no-op: its bytes stay local and
    /// counted, so the next guard and read still find them.
    #[test]
    fn evacuate_leaves_a_pinned_object_in_place() {
        let mut r = rt(1 << 20, 1 << 20);
        let h = r.register_ds(DsSpec::simple("a"), StaticHint::Pinned);
        let (p, _) = r.ds_alloc(h, 4096).unwrap();
        r.write_u64(p, 0xfeed).unwrap();
        assert_eq!(r.evacuate(p), Ok(0));
        assert_eq!(r.pinned_used(), 4096);
        assert_eq!(r.net_stats().writebacks, 0);
        r.guard(p, Access::Read, 8).unwrap();
        assert_eq!(r.read_u64(p).unwrap().0, 0xfeed);
    }

    /// Evacuating an object that is already remote is a no-op, so a later
    /// free still removes it from the server.
    #[test]
    fn evacuating_twice_then_free_removes_the_remote_copy() {
        let mut r = rt(0, 1 << 20);
        let h = r.register_ds(DsSpec::simple("a"), StaticHint::Remotable);
        let (p, _) = r.ds_alloc(h, 4096).unwrap();
        r.write_u64(p, 7).unwrap();
        assert!(r.evacuate(p).unwrap() > 0);
        assert_eq!(r.evacuate(p), Ok(0));
        assert_eq!(r.transport().remote_bytes(), 4096);
        r.free(p).unwrap();
        assert!(!r.transport().contains(ObjKey { ds: 0, index: 0 }));
        assert_eq!(r.transport().remote_bytes(), 0);
    }

    #[test]
    fn free_of_unknown_allocation_errors() {
        let mut r = rt(0, 1 << 20);
        let h = r.register_ds(DsSpec::simple("a"), StaticHint::Remotable);
        r.ds_alloc(h, 64).unwrap();
        let bogus = FarPtr::encode(h, 4096);
        assert!(matches!(r.free(bogus), Err(RtError::OutOfRange { .. })));
    }

    #[test]
    fn out_of_range_guard_rejected() {
        let mut r = rt(0, 1 << 20);
        let h = r.register_ds(DsSpec::simple("a"), StaticHint::Remotable);
        let (p, _) = r.ds_alloc(h, 64).unwrap();
        let e = r.guard(p.add(64), Access::Read, 8).unwrap_err();
        assert!(matches!(e, RtError::OutOfRange { .. }));
    }

    #[test]
    fn access_spanning_objects_works() {
        let mut r = rt(0, 1 << 20);
        let spec = DsSpec::simple("a").with_object_bytes(64);
        let h = r.register_ds(spec, StaticHint::Remotable);
        let (p, _) = r.ds_alloc(h, 256).unwrap();
        // write 16 bytes straddling the 64-byte boundary at offset 56
        let q = p.add(56);
        r.guard(q, Access::Write, 16).unwrap();
        let data: Vec<u8> = (0u8..16).collect();
        r.write(q, &data).unwrap();
        let mut back = [0u8; 16];
        r.guard(q, Access::Read, 16).unwrap();
        r.read(q, &mut back).unwrap();
        assert_eq!(&back[..], &data[..]);
    }

    #[test]
    fn transient_faults_are_retried() {
        use cards_net::FaultyTransport;
        let t = FaultyTransport::new(SimTransport::default(), 0.4, 99);
        let cfg = RuntimeConfig::new(0, 4096);
        let mut r = FarMemRuntime::new(cfg, t);
        let h = r.register_ds(DsSpec::simple("a"), StaticHint::Remotable);
        // Lots of evictions + refetches under 40% fault rate.
        let mut ptrs = Vec::new();
        for i in 0..8 {
            let (p, _) = r.ds_alloc(h, 4096).unwrap();
            r.write_u64(p, i as u64).unwrap();
            ptrs.push(p);
        }
        for (i, p) in ptrs.iter().enumerate() {
            r.guard(*p, Access::Read, 8).unwrap();
            let (v, _) = r.read_u64(*p).unwrap();
            assert_eq!(v, i as u64);
        }
        assert!(r.stats().retries > 0, "faults should have forced retries");
    }

    #[test]
    fn clock_evicts_under_pressure_but_respects_guard_pins() {
        // 16-object cache, 48-object working set, sequential scan: clock
        // must evict, but never one of the GUARD_PIN_WINDOW most recently
        // guarded objects, and stay within budget + pin overshoot.
        let budget = 16 * 4096u64;
        let mut r = rt(0, budget);
        let h = r.register_ds(DsSpec::simple("a"), StaticHint::Remotable);
        let (p, _) = r.ds_alloc(h, 48 * 4096).unwrap();
        for i in 0..48u64 {
            r.guard(p.add(i * 4096), Access::Read, 8).unwrap();
            // the just-guarded object must be readable (not evicted)
            r.read_u64(p.add(i * 4096)).unwrap();
        }
        let s = r.ds_stats(h).unwrap();
        assert!(s.evictions >= 1);
        let overshoot = (crate::runtime::GUARD_PIN_WINDOW as u64 + 1) * 4096;
        assert!(r.remotable_used() <= budget + overshoot);
    }

    #[test]
    fn remotable_check_cost_scales_with_handles() {
        let mut r = rt(0, 1 << 20);
        let a = r.register_ds(DsSpec::simple("a"), StaticHint::Remotable);
        let b = r.register_ds(DsSpec::simple("b"), StaticHint::Remotable);
        let (_, c1) = r.remotable_check(&[a]);
        let (_, c2) = r.remotable_check(&[a, b]);
        assert!(c2 > c1);
    }

    #[test]
    fn greedy_prefetcher_chases_linked_list() {
        // Linked list: 64-byte objects, node = {val u64, next ptr} (16B).
        let obj = 64u64;
        let n = 64u64;
        let build = |kind: PrefetchKind| {
            let mut r = FarMemRuntime::new(
                RuntimeConfig::new(0, 8 * obj).with_prefetch_batch(4),
                SimTransport::default(),
            );
            let spec = DsSpec::simple("list")
                .with_object_bytes(obj)
                .with_elem(16, vec![8])
                .with_recursive(true)
                .with_prefetch(kind);
            let h = r.register_ds(spec, StaticHint::Remotable);
            let (base, _) = r.ds_alloc(h, n * obj).unwrap();
            // node i lives at base + i*obj (one node per object to force
            // a miss per hop); next pointer -> node i+1
            for i in 0..n {
                let node = base.add(i * obj);
                r.guard(node, Access::Write, 16).unwrap();
                r.write_u64(node, i).unwrap();
                let next = if i + 1 < n {
                    base.add((i + 1) * obj).bits()
                } else {
                    0
                };
                r.write_u64(node.add(8), next).unwrap();
            }
            // thrash cache with another DS
            let h2 = r.register_ds(
                DsSpec::simple("x").with_object_bytes(obj),
                StaticHint::Remotable,
            );
            let (q, _) = r.ds_alloc(h2, 8 * obj).unwrap();
            for i in 0..8u64 {
                r.guard(q.add(i * obj), Access::Write, 8).unwrap();
            }
            // traverse
            let mut cycles = 0u64;
            let mut cur = base;
            loop {
                cycles += r.guard(cur, Access::Read, 16).unwrap();
                let (_v, _) = r.read_u64(cur).unwrap();
                let (nxt, _) = r.read_u64(cur.add(8)).unwrap();
                if nxt == 0 {
                    break;
                }
                cur = FarPtr(nxt);
            }
            (cycles, r.ds_stats(h).unwrap().misses)
        };
        let (c_none, m_none) = build(PrefetchKind::None);
        let (c_greedy, m_greedy) = build(PrefetchKind::GreedyRecursive);
        assert!(
            m_greedy < m_none,
            "greedy should cut misses: {m_greedy} vs {m_none}"
        );
        assert!(c_greedy < c_none);
    }

    #[test]
    fn align_up_is_correct() {
        assert_eq!(align_up(0, 16), 0);
        assert_eq!(align_up(1, 16), 16);
        assert_eq!(align_up(16, 16), 16);
        assert_eq!(align_up(17, 8), 24);
    }

    #[test]
    fn breaker_trail_closed_open_half_open_closed() {
        use cards_net::{ChaosPhase, ChaosSchedule, ChaosTransport, ScheduledPhase};
        // Two healthy ops (the evacuation puts), a 5-op partition that trips
        // the breaker mid-fetch, then healthy forever.
        let sched = ChaosSchedule {
            phases: vec![
                ScheduledPhase {
                    phase: ChaosPhase::Healthy,
                    ops: 2,
                },
                ScheduledPhase {
                    phase: ChaosPhase::Partition,
                    ops: 5,
                },
                ScheduledPhase {
                    phase: ChaosPhase::Healthy,
                    ops: 1000,
                },
            ],
            repeat: false,
            seed: 1,
        };
        let cfg = RuntimeConfig::new(0, 1 << 20)
            .with_breaker(3, 50_000)
            .with_max_retries(16)
            .with_journal(0);
        let mut r = FarMemRuntime::new(cfg, ChaosTransport::new(sched));
        let h = r.register_ds(DsSpec::simple("d"), StaticHint::Remotable);
        let (p, _) = r.ds_alloc(h, 2 * 4096).unwrap();
        let (p0, p1) = (p, p.add(4096));
        r.evacuate(p0).unwrap(); // op 0
        r.evacuate(p1).unwrap(); // op 1
        assert_eq!(r.breaker_state(h), Some("closed"));

        // Fetch of p0 rides out the partition; failures 1..=3 trip the
        // breaker, so the localized object lands pinned (degraded mode).
        r.guard(p0, Access::Read, 8).unwrap();
        assert_eq!(r.breaker_state(h), Some("open"));
        assert_eq!(r.ds_stats(h).unwrap().breaker_trips, 1);
        assert_eq!(r.pinned_used(), 4096, "degraded DS pins what it fetches");

        // By now the retry pricing has pushed the clock past the cooldown:
        // the next remote op is the half-open probe, it succeeds, and the
        // breaker closes and releases its pins.
        assert!(r.now() >= 50_000);
        r.guard(p1, Access::Read, 8).unwrap();
        assert_eq!(r.breaker_state(h), Some("closed"));
        assert_eq!(r.pinned_used(), 0, "breaker pins released on close");

        let trail: Vec<(String, String)> = r
            .telemetry()
            .events()
            .filter_map(|e| match &e.kind {
                EventKind::Breaker { from, to, .. } => Some((from.to_string(), to.to_string())),
                _ => None,
            })
            .collect();
        let want = [
            ("closed", "open"),
            ("open", "half_open"),
            ("half_open", "closed"),
        ];
        assert_eq!(
            trail,
            want.iter()
                .map(|(a, b)| (a.to_string(), b.to_string()))
                .collect::<Vec<_>>()
        );
    }

    /// A half-open probe that fails re-opens the breaker, and that edge is
    /// recorded like the other three.
    #[test]
    fn failed_half_open_probe_reopens_the_breaker() {
        use cards_net::{ChaosPhase, ChaosSchedule, ChaosTransport, ScheduledPhase};
        // The trail test's schedule, plus a one-op partition that fails the
        // probe: ops 0-1 evacuate, 2-6 trip the breaker, 7 serves p0, 8 is
        // the probe for p1, 9 serves it.
        let phase = |phase, ops| ScheduledPhase { phase, ops };
        let sched = ChaosSchedule {
            phases: vec![
                phase(ChaosPhase::Healthy, 2),
                phase(ChaosPhase::Partition, 5),
                phase(ChaosPhase::Healthy, 1),
                phase(ChaosPhase::Partition, 1),
                phase(ChaosPhase::Healthy, 1000),
            ],
            repeat: false,
            seed: 1,
        };
        let cfg = RuntimeConfig::new(0, 1 << 20)
            .with_breaker(3, 50_000)
            .with_max_retries(16)
            .with_journal(0);
        let mut r = FarMemRuntime::new(cfg, ChaosTransport::new(sched));
        let h = r.register_ds(DsSpec::simple("d"), StaticHint::Remotable);
        let (p, _) = r.ds_alloc(h, 2 * 4096).unwrap();
        r.evacuate(p).unwrap();
        r.evacuate(p.add(4096)).unwrap();
        r.guard(p, Access::Read, 8).unwrap();
        assert!(r.now() >= 50_000, "the cooldown has passed");
        r.guard(p.add(4096), Access::Read, 8).unwrap();
        assert_eq!(r.breaker_state(h), Some("open"));
        assert_eq!(r.ds_stats(h).unwrap().breaker_trips, 1);
        let trail: Vec<(&str, &str)> = r
            .telemetry()
            .events()
            .filter_map(|e| match e.kind {
                EventKind::Breaker { from, to, .. } => Some((from, to)),
                _ => None,
            })
            .collect();
        assert_eq!(
            trail,
            [
                ("closed", "open"),
                ("open", "half_open"),
                ("half_open", "open")
            ]
        );
    }

    #[test]
    fn crash_restart_loses_no_data_via_journal() {
        use cards_net::{ChaosPhase, ChaosSchedule, ChaosTransport, ScheduledPhase};
        // One healthy op (the evacuation put), then a crash window that
        // drops the unacknowledged object, then healthy.
        let sched = ChaosSchedule {
            phases: vec![
                ScheduledPhase {
                    phase: ChaosPhase::Healthy,
                    ops: 1,
                },
                ScheduledPhase {
                    phase: ChaosPhase::CrashRestart,
                    ops: 3,
                },
                ScheduledPhase {
                    phase: ChaosPhase::Healthy,
                    ops: 1000,
                },
            ],
            repeat: false,
            seed: 2,
        };
        let cfg = RuntimeConfig::new(0, 1 << 20)
            .with_max_retries(16)
            .with_journal(100); // journaled, but never auto-flushed
        let mut r = FarMemRuntime::new(cfg, ChaosTransport::new(sched));
        let h = r.register_ds(DsSpec::simple("d"), StaticHint::Remotable);
        let (p, _) = r.ds_alloc(h, 4096).unwrap();
        r.write_u64(p, 0xdead_beef).unwrap();
        r.evacuate(p).unwrap(); // op 0: put, journaled, unacked
        assert_eq!(r.journal_len(), 1);

        // The crash drops the object server-side; the fetch times out
        // through the window, then hits NotFound and replays the journal.
        r.guard(p, Access::Read, 8).unwrap();
        let (v, _) = r.read_u64(p).unwrap();
        assert_eq!(v, 0xdead_beef, "crash/restart must lose no data");
        let g = r.stats();
        assert!(g.journal_replays >= 1, "journal must have replayed");
        assert_eq!(g.crashes_detected, 1);
        assert!(g.timeouts > 0, "crash window presents as timeouts");
        assert!(r
            .telemetry()
            .events()
            .any(|e| matches!(e.kind, EventKind::JournalReplay { .. })));
        assert!(r
            .telemetry()
            .events()
            .any(|e| matches!(e.kind, EventKind::CrashDetected { .. })));
    }

    #[test]
    fn flushed_writebacks_survive_crash_without_replay() {
        use cards_net::{ChaosPhase, ChaosSchedule, ChaosTransport, ScheduledPhase};
        let sched = ChaosSchedule {
            phases: vec![
                ScheduledPhase {
                    phase: ChaosPhase::Healthy,
                    ops: 2,
                },
                ScheduledPhase {
                    phase: ChaosPhase::CrashRestart,
                    ops: 2,
                },
                ScheduledPhase {
                    phase: ChaosPhase::Healthy,
                    ops: 1000,
                },
            ],
            repeat: false,
            seed: 3,
        };
        let cfg = RuntimeConfig::new(0, 1 << 20)
            .with_max_retries(16)
            .with_journal(1); // flush after every put
        let mut r = FarMemRuntime::new(cfg, ChaosTransport::new(sched));
        let h = r.register_ds(DsSpec::simple("d"), StaticHint::Remotable);
        let (p, _) = r.ds_alloc(h, 4096).unwrap();
        r.write_u64(p, 77).unwrap();
        r.evacuate(p).unwrap(); // op 0: put; op 1: flush → acked, journal empty
        assert_eq!(r.journal_len(), 0);
        r.guard(p, Access::Read, 8).unwrap(); // rides out the crash window
        let (v, _) = r.read_u64(p).unwrap();
        assert_eq!(v, 77);
        assert_eq!(r.stats().journal_replays, 0, "acked data needs no replay");
    }

    /// Healthy for `before` ops, a crash window of `crash` ops, then healthy.
    fn crash_after(before: u64, crash: u64) -> cards_net::ChaosTransport {
        use cards_net::{ChaosPhase, ChaosSchedule, ChaosTransport, ScheduledPhase};
        ChaosTransport::new(ChaosSchedule {
            phases: vec![
                ScheduledPhase {
                    phase: ChaosPhase::Healthy,
                    ops: before,
                },
                ScheduledPhase {
                    phase: ChaosPhase::CrashRestart,
                    ops: crash,
                },
                ScheduledPhase {
                    phase: ChaosPhase::Healthy,
                    ops: 1000,
                },
            ],
            repeat: false,
            seed: 4,
        })
    }

    #[test]
    fn reput_across_crash_is_not_undone_by_its_stale_journal_entry() {
        let cfg = RuntimeConfig::new(0, 1 << 20)
            .with_max_retries(16)
            .with_journal(100); // journaled, but never auto-flushed
        let mut r = FarMemRuntime::new(cfg, crash_after(2, 3));
        let h = r.register_ds(DsSpec::simple("d"), StaticHint::Remotable);
        let (p, _) = r.ds_alloc(h, 4096).unwrap();
        r.write_u64(p, 1).unwrap();
        r.evacuate(p).unwrap(); // op 0: put 1, journaled, unacked
        r.guard(p, Access::Write, 8).unwrap(); // op 1: refetch
        r.write_u64(p, 2).unwrap();
        // Ops 2-5: the re-put retries through the crash window, which drops
        // the unacked object; the crash is detected once the put lands.
        r.evacuate(p).unwrap();
        assert_eq!(r.stats().crashes_detected, 1);
        r.guard(p, Access::Read, 8).unwrap();
        let (v, _) = r.read_u64(p).unwrap();
        assert_eq!(v, 2, "recovery must replay the re-put bytes, not the old");
    }

    #[test]
    fn flush_across_crash_replays_the_journal_before_clearing_it() {
        let cfg = RuntimeConfig::new(0, 1 << 20)
            .with_max_retries(16)
            .with_journal(2); // flush after every second put
        let mut r = FarMemRuntime::new(cfg, crash_after(2, 3));
        let h = r.register_ds(DsSpec::simple("d"), StaticHint::Remotable);
        let (p, _) = r.ds_alloc(h, 2 * 4096).unwrap();
        let (p0, p1) = (p, p.add(4096));
        r.write_u64(p0, 10).unwrap();
        r.write_u64(p1, 11).unwrap();
        r.evacuate(p0).unwrap(); // op 0: put
                                 // Op 1: put; ops 2-5: the flush retries through the crash window,
                                 // which drops both unacked puts before the flush lands.
        r.evacuate(p1).unwrap();
        assert_eq!(r.journal_len(), 0, "replayed, then flushed again");
        for (q, want) in [(p0, 10u64), (p1, 11)] {
            r.guard(q, Access::Read, 8).expect("no put may be lost");
            assert_eq!(r.read_u64(q).unwrap().0, want);
        }
        assert_eq!(r.stats().crashes_detected, 1);
    }

    #[test]
    fn disconnected_emits_terminal_failure_event() {
        use cards_net::{NetError, ShardedConfig, ShardedServer};
        // Kill a whole replica set out from under the runtime: the
        // write-back (a one-object train) must surface Disconnected (not
        // retry forever) and emit a net_abort carrying the attempt count.
        let server = ShardedServer::spawn(
            ShardedConfig {
                shards: 1,
                train_len: 1,
                ..ShardedConfig::default()
            },
            NetworkModel::default(),
        );
        server.kill_backup(0);
        server.kill_shard(0);
        let mut r = FarMemRuntime::new(RuntimeConfig::new(0, 1 << 20), server.client());
        let h = r.register_ds(DsSpec::simple("d"), StaticHint::Remotable);
        let (p, _) = r.ds_alloc(h, 4096).unwrap();
        let err = r.evacuate(p).unwrap_err();
        assert_eq!(err, RtError::Net(NetError::Disconnected));
        let aborts: Vec<u32> = r
            .telemetry()
            .events()
            .filter_map(|e| match e.kind {
                EventKind::NetAbort {
                    attempts, write, ..
                } => {
                    assert!(write);
                    Some(attempts)
                }
                _ => None,
            })
            .collect();
        assert_eq!(aborts, vec![1], "terminal failure on first attempt");
    }

    #[test]
    fn backoff_grows_and_is_deterministic() {
        use cards_net::FaultyTransport;
        let run = || {
            let mut r = FarMemRuntime::new(
                RuntimeConfig::new(0, 1 << 20).with_max_retries(64),
                FaultyTransport::new(SimTransport::default(), 0.5, 99),
            );
            let h = r.register_ds(DsSpec::simple("d"), StaticHint::Remotable);
            let (p, _) = r.ds_alloc(h, 16 * 4096).unwrap();
            for i in 0..16u64 {
                r.guard(p.add(i * 4096), Access::Write, 8).unwrap();
                r.evacuate(p.add(i * 4096)).unwrap();
            }
            for i in 0..16u64 {
                r.guard(p.add(i * 4096), Access::Read, 8).unwrap();
            }
            (r.stats().retries, r.stats().backoff_cycles, r.now())
        };
        let (retries, backoff, now) = run();
        assert!(retries > 0);
        assert!(backoff > 0, "retries must accrue backoff wait");
        assert_eq!(run(), (retries, backoff, now), "fully deterministic");
        // Per-retry backoff is visible in telemetry.
        let mut r = FarMemRuntime::new(
            RuntimeConfig::new(0, 1 << 20).with_max_retries(64),
            FaultyTransport::new(SimTransport::default(), 0.9, 5),
        );
        let h = r.register_ds(DsSpec::simple("d"), StaticHint::Remotable);
        let (p, _) = r.ds_alloc(h, 4096).unwrap();
        r.evacuate(p).unwrap();
        r.guard(p, Access::Read, 8).unwrap();
        let backoffs: Vec<(u32, u64)> = r
            .telemetry()
            .events()
            .filter_map(|e| match e.kind {
                EventKind::Retry {
                    attempt, backoff, ..
                } => Some((attempt, backoff)),
                _ => None,
            })
            .collect();
        assert!(!backoffs.is_empty());
        for (attempt, b) in &backoffs {
            let cap = r.config().backoff_cap;
            assert!(*b <= cap, "attempt {attempt}: backoff {b} over cap");
            assert!(*b >= r.config().backoff_base / 2, "equal-jitter floor");
        }
    }

    #[test]
    fn faulted_free_retries_and_succeeds() {
        use cards_net::FaultyTransport;
        // remove is now faultable: frees must retry through transient
        // faults instead of surfacing them.
        let mut r = FarMemRuntime::new(
            RuntimeConfig::new(0, 1 << 20).with_max_retries(64),
            FaultyTransport::new(SimTransport::default(), 0.5, 1234),
        );
        let h = r.register_ds(DsSpec::simple("d"), StaticHint::Remotable);
        for i in 0..8 {
            let (p, _) = r.ds_alloc(h, 4096).unwrap();
            r.write_u64(p, i).unwrap();
            r.evacuate(p).unwrap();
            r.free(p).unwrap();
        }
        assert_eq!(r.journal_len(), 0, "freed objects leave no journal entry");
    }
}
