//! Fault-injecting transport wrapper for failure testing.
//!
//! Wraps any [`Transport`] and makes `fetch`/`put`/`remove`/`flush` fail
//! transiently with a configured probability (seeded, deterministic). The
//! CaRDS runtime must retry transient faults and remain correct —
//! integration tests drive this.

use crate::prng::SplitMix64;
use crate::stats::NetStats;
use crate::transport::{Fetched, NetError, ObjKey, Transport};
use crate::wiretap::TraceContext;

/// Deterministic fault injector around an inner transport.
pub struct FaultyTransport<T: Transport> {
    inner: T,
    rng: SplitMix64,
    /// Probability in [0,1] that an operation fails with `Transient`.
    fault_rate: f64,
    /// Faults injected so far.
    pub injected: u64,
}

impl<T: Transport> FaultyTransport<T> {
    /// Wrap `inner`, failing operations with probability `fault_rate`,
    /// deterministically derived from `seed`.
    pub fn new(inner: T, fault_rate: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&fault_rate), "fault_rate out of range");
        FaultyTransport {
            inner,
            rng: SplitMix64::new(seed),
            fault_rate,
            injected: 0,
        }
    }

    /// Access the wrapped transport.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    fn maybe_fault(&mut self) -> Result<(), NetError> {
        if self.fault_rate > 0.0 && self.rng.next_f64() < self.fault_rate {
            self.injected += 1;
            Err(NetError::Transient)
        } else {
            Ok(())
        }
    }
}

impl<T: Transport> Transport for FaultyTransport<T> {
    fn fetch(&mut self, key: ObjKey) -> Result<Fetched, NetError> {
        self.maybe_fault()?;
        self.inner.fetch(key)
    }

    fn fetch_batched(&mut self, key: ObjKey) -> Result<Fetched, NetError> {
        self.maybe_fault()?;
        self.inner.fetch_batched(key)
    }

    fn rtt_cost(&self) -> u64 {
        self.inner.rtt_cost()
    }

    fn put(&mut self, key: ObjKey, data: &[u8]) -> Result<u64, NetError> {
        self.maybe_fault()?;
        self.inner.put(key, data)
    }

    fn remove(&mut self, key: ObjKey) -> Result<u64, NetError> {
        self.maybe_fault()?;
        self.inner.remove(key)
    }

    fn flush(&mut self) -> Result<u64, NetError> {
        self.maybe_fault()?;
        self.inner.flush()
    }

    fn generation(&self) -> u64 {
        self.inner.generation()
    }

    fn contains(&self, key: ObjKey) -> bool {
        self.inner.contains(key)
    }

    fn stats(&self) -> NetStats {
        self.inner.stats()
    }

    fn remote_bytes(&self) -> u64 {
        self.inner.remote_bytes()
    }

    fn set_trace_context(&mut self, ctx: TraceContext) {
        self.inner.set_trace_context(ctx);
    }

    fn trace_context(&self) -> TraceContext {
        self.inner.trace_context()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::SimTransport;

    #[test]
    fn zero_rate_never_faults() {
        let mut t = FaultyTransport::new(SimTransport::default(), 0.0, 1);
        for i in 0..100 {
            t.put(ObjKey { ds: 0, index: i }, &[1]).unwrap();
        }
        assert_eq!(t.injected, 0);
    }

    #[test]
    fn full_rate_always_faults() {
        let mut t = FaultyTransport::new(SimTransport::default(), 1.0, 1);
        assert_eq!(
            t.put(ObjKey { ds: 0, index: 0 }, &[1]),
            Err(NetError::Transient)
        );
        assert_eq!(t.injected, 1);
    }

    #[test]
    fn faults_are_deterministic_per_seed() {
        let run = |seed| {
            let mut t = FaultyTransport::new(SimTransport::default(), 0.3, seed);
            let mut pattern = Vec::new();
            for i in 0..50 {
                pattern.push(t.put(ObjKey { ds: 0, index: i }, &[0]).is_err());
            }
            pattern
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn remove_is_faultable() {
        let mut t = FaultyTransport::new(SimTransport::default(), 1.0, 3);
        assert_eq!(
            t.remove(ObjKey { ds: 0, index: 0 }),
            Err(NetError::Transient)
        );
        assert_eq!(t.injected, 1);
    }

    #[test]
    fn retry_eventually_succeeds() {
        let mut t = FaultyTransport::new(SimTransport::default(), 0.5, 7);
        let key = ObjKey { ds: 1, index: 1 };
        // retry loop as the runtime would do
        let mut tries = 0;
        loop {
            tries += 1;
            match t.put(key, &[9; 16]) {
                Ok(_) => break,
                Err(NetError::Transient) if tries < 64 => continue,
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(t.contains(key));
    }
}
