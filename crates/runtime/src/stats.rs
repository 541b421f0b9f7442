//! Per-data-structure and global runtime statistics.
//!
//! CaRDS "monitors cache hits and misses for each memory object, leveraging
//! these statistics on a per-data structure basis to inform runtime policy
//! decisions" (paper §4.2). These counters are that mechanism, and also
//! feed the prefetch accuracy/coverage metrics the paper mentions.

/// Counters kept for each data structure.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DsStats {
    /// Guarded accesses that found the object local.
    pub hits: u64,
    /// Guarded accesses that had to fetch the object.
    pub misses: u64,
    /// Objects evicted from local remotable memory.
    pub evictions: u64,
    /// Dirty evictions that required a write-back.
    pub writebacks: u64,
    /// Objects brought in by the prefetcher.
    pub prefetch_issued: u64,
    /// Prefetched objects that were subsequently accessed while resident.
    pub prefetch_useful: u64,
    /// Bytes allocated from this DS.
    pub bytes_allocated: u64,
    /// Guard checks executed against this DS.
    pub guard_checks: u64,
    /// Times the runtime overrode this DS's static pinning hint.
    pub demotions: u64,
    /// Times this DS's circuit breaker opened (degraded to pinned-local).
    pub breaker_trips: u64,
    /// Decaying window of recent prefetches issued (throttling input).
    pub window_issued: u64,
    /// Decaying window of recent useful prefetches (throttling input).
    pub window_useful: u64,
    /// Accesses served directly from the remote tier because the object
    /// could not be localized (oversize or starved cache).
    pub spills: u64,
    /// Times the governor demoted this DS's hint under pressure.
    pub hint_demotions: u64,
    /// Times the governor soft-pinned this DS as a thrashing hot set.
    pub hint_promotions: u64,
    /// Failed transport attempts against this DS (each one retried).
    pub retry_attempts: u64,
    /// Remote operations against this DS that needed more than one
    /// attempt to complete.
    pub retried_ops: u64,
}

impl DsStats {
    /// Miss ratio in `[0, 1]`; 0 when no accesses. Saturating, so counters
    /// near `u64::MAX` cannot overflow the denominator.
    pub fn miss_ratio(&self) -> f64 {
        let total = self.hits.saturating_add(self.misses);
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }

    /// Prefetch accuracy: useful / issued (1.0 when none issued).
    pub fn prefetch_accuracy(&self) -> f64 {
        if self.prefetch_issued == 0 {
            1.0
        } else {
            self.prefetch_useful as f64 / self.prefetch_issued as f64
        }
    }

    /// Accuracy over the recent (decaying) window — adapts when a
    /// prefetcher's behaviour changes phase.
    pub fn recent_accuracy(&self) -> f64 {
        if self.window_issued == 0 {
            1.0
        } else {
            self.window_useful as f64 / self.window_issued as f64
        }
    }

    /// Prefetch coverage: fraction of would-be misses avoided,
    /// useful / (useful + misses). Saturating denominator.
    pub fn prefetch_coverage(&self) -> f64 {
        let denom = self.prefetch_useful.saturating_add(self.misses);
        if denom == 0 {
            0.0
        } else {
            self.prefetch_useful as f64 / denom as f64
        }
    }
}

/// Whole-runtime counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RuntimeStats {
    /// Total custody checks performed (tagged or not).
    pub custody_checks: u64,
    /// Derefs that resolved locally.
    pub derefs_local: u64,
    /// Derefs that fetched from remote.
    pub derefs_remote: u64,
    /// `RemotableCheck` calls serviced.
    pub remotable_checks: u64,
    /// Total cycles charged by the runtime (guards + network + eviction).
    pub cycles: u64,
    /// Transient-fault retries performed.
    pub retries: u64,
    /// Objects currently resident that exceeded the remotable budget
    /// because eviction could not make room (oversize objects).
    pub overcommits: u64,
    /// Operations that timed out (partition / server-down window).
    pub timeouts: u64,
    /// Fetches whose envelope failed verification (retried).
    pub corrupt_fetches: u64,
    /// Modeled cycles spent waiting in retry backoff.
    pub backoff_cycles: u64,
    /// Journal entries replayed to the server after loss or restart.
    pub journal_replays: u64,
    /// Server crash/restarts detected via generation bumps.
    pub crashes_detected: u64,
    /// Journal flushes that failed after retries (entries retained).
    pub flush_failures: u64,
    /// Times remotable residency crossed the high watermark (pressure
    /// level Normal -> High transitions).
    pub pressure_high_crossings: u64,
    /// Objects evicted by batched watermark sweeps (vs. demand eviction).
    pub proactive_evictions: u64,
    /// Budget changes applied by a pressure schedule.
    pub pressure_phase_changes: u64,
    /// Online policy re-solves that changed at least one hint.
    pub resolves: u64,
    /// Hints demoted (pinned -> remotable) by the governor.
    pub hint_demotions: u64,
    /// Structures soft-pinned (promoted) by the governor.
    pub hint_promotions: u64,
    /// Reads served directly from the remote tier (spill path).
    pub spill_reads: u64,
    /// Writes applied directly to the remote tier (spill path).
    pub spill_writes: u64,
    /// Times guard/scope pins covered the whole budget and eviction could
    /// make no progress (recent-guard window shrunk or overcommitted).
    pub pin_starvations: u64,
    /// Epoch-fenced takeovers this client performed (backup promoted to
    /// primary on a replicated shard).
    pub failovers: u64,
    /// Hedged fetches raced against a backup replica.
    pub hedged_fetches: u64,
    /// Hedges the primary won anyway (the extra request bought nothing).
    pub hedge_wasted: u64,
    /// Writes bounced by a fencing epoch and transparently retried.
    pub fenced_retries: u64,
    /// Writeback-train departures that found the outstanding-request
    /// window saturated (the put stalled on an unacked train).
    pub queue_buildup_events: u64,
    /// Train departures that observed primary→backup replication lag at
    /// or past its configured bound (interleaving-dependent observation).
    pub lag_breaches: u64,
}

/// Field-wise sum, for totals over many runs (the difftest campaigns sum a
/// cell's counters over every seed). The destructuring is exhaustive, so a
/// new counter cannot be left out of the sum.
impl std::ops::AddAssign for RuntimeStats {
    fn add_assign(&mut self, o: RuntimeStats) {
        let RuntimeStats {
            custody_checks,
            derefs_local,
            derefs_remote,
            remotable_checks,
            cycles,
            retries,
            overcommits,
            timeouts,
            corrupt_fetches,
            backoff_cycles,
            journal_replays,
            crashes_detected,
            flush_failures,
            pressure_high_crossings,
            proactive_evictions,
            pressure_phase_changes,
            resolves,
            hint_demotions,
            hint_promotions,
            spill_reads,
            spill_writes,
            pin_starvations,
            failovers,
            hedged_fetches,
            hedge_wasted,
            fenced_retries,
            queue_buildup_events,
            lag_breaches,
        } = o;
        self.custody_checks += custody_checks;
        self.derefs_local += derefs_local;
        self.derefs_remote += derefs_remote;
        self.remotable_checks += remotable_checks;
        self.cycles += cycles;
        self.retries += retries;
        self.overcommits += overcommits;
        self.timeouts += timeouts;
        self.corrupt_fetches += corrupt_fetches;
        self.backoff_cycles += backoff_cycles;
        self.journal_replays += journal_replays;
        self.crashes_detected += crashes_detected;
        self.flush_failures += flush_failures;
        self.pressure_high_crossings += pressure_high_crossings;
        self.proactive_evictions += proactive_evictions;
        self.pressure_phase_changes += pressure_phase_changes;
        self.resolves += resolves;
        self.hint_demotions += hint_demotions;
        self.hint_promotions += hint_promotions;
        self.spill_reads += spill_reads;
        self.spill_writes += spill_writes;
        self.pin_starvations += pin_starvations;
        self.failovers += failovers;
        self.hedged_fetches += hedged_fetches;
        self.hedge_wasted += hedge_wasted;
        self.fenced_retries += fenced_retries;
        self.queue_buildup_events += queue_buildup_events;
        self.lag_breaches += lag_breaches;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_handle_zero() {
        let s = DsStats::default();
        assert_eq!(s.miss_ratio(), 0.0);
        assert_eq!(s.prefetch_accuracy(), 1.0);
        assert_eq!(s.prefetch_coverage(), 0.0);
    }

    #[test]
    fn ratios_survive_near_max_counters() {
        // hits + misses would overflow u64; the ratio must still be sane.
        let s = DsStats {
            hits: u64::MAX - 3,
            misses: u64::MAX - 5,
            prefetch_useful: u64::MAX,
            prefetch_issued: u64::MAX,
            ..Default::default()
        };
        let r = s.miss_ratio();
        assert!((0.0..=1.0).contains(&r), "miss_ratio {r}");
        let c = s.prefetch_coverage();
        assert!((0.0..=1.0).contains(&c), "coverage {c}");
        assert!((s.prefetch_accuracy() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ratios_compute() {
        let s = DsStats {
            hits: 3,
            misses: 1,
            prefetch_issued: 4,
            prefetch_useful: 2,
            ..Default::default()
        };
        assert!((s.miss_ratio() - 0.25).abs() < 1e-9);
        assert!((s.prefetch_accuracy() - 0.5).abs() < 1e-9);
        assert!((s.prefetch_coverage() - 2.0 / 3.0).abs() < 1e-9);
    }
}
