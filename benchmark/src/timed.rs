//! `TimedTransport`: a [`Transport`] wrapper that times every call which
//! can do work on the link, so the net layer is measured *inside* VM runs
//! without any hook in the program. It forwards every trait method — the
//! provided ones too, so an inner transport's overrides (batched fetches,
//! generations, fault events, trace contexts, the wire tap) stay in force.

use std::cell::RefCell;

use cards_net::{
    FaultEvents, Fetched, NetError, NetStats, ObjKey, TraceContext, Transport, WireTap,
};

use crate::spans::{next_id, now_ns, Span, SpanLog};

pub struct TimedTransport<T> {
    inner: T,
    /// `None` while not recording. A `RefCell` because `contains` and
    /// `remote_bytes` take `&self` but may cross the link.
    log: Option<RefCell<SpanLog>>,
    parent: u64,
    req: u64,
}

impl<T: Transport> TimedTransport<T> {
    /// Wrap `inner`, forwarding without recording until [`Self::start`].
    pub fn new(inner: T) -> Self {
        TimedTransport {
            inner,
            log: None,
            parent: 0,
            req: 0,
        }
    }

    /// Record every call that can do work on the link into `log`.
    pub fn start(&mut self, log: SpanLog) {
        self.log = Some(RefCell::new(log));
    }

    /// Stop recording and hand over the spans (an empty log if none).
    pub fn stop(&mut self) -> SpanLog {
        self.log
            .take()
            .map_or_else(|| SpanLog::new(0), RefCell::into_inner)
    }

    /// Parent span and request id for the calls that follow.
    pub fn set_parent(&mut self, parent: u64, req: u64) {
        self.parent = parent;
        self.req = req;
    }

    fn timed<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if self.log.is_none() {
            return f();
        }
        let start_ns = now_ns();
        let r = f();
        self.close(name, start_ns);
        r
    }

    fn timed_mut<R>(&mut self, name: &'static str, f: impl FnOnce(&mut T) -> R) -> R {
        if self.log.is_none() {
            return f(&mut self.inner);
        }
        let start_ns = now_ns();
        let r = f(&mut self.inner);
        self.close(name, start_ns);
        r
    }

    fn close(&self, name: &'static str, start_ns: u64) {
        let end_ns = now_ns();
        if let Some(log) = &self.log {
            let mut log = log.borrow_mut();
            let thread = log.thread();
            log.record(Span {
                name,
                start_ns,
                end_ns,
                id: next_id(),
                parent: self.parent,
                req: self.req,
                thread,
            });
        }
    }
}

impl<T: Transport> Transport for TimedTransport<T> {
    fn fetch(&mut self, key: ObjKey) -> Result<Fetched, NetError> {
        self.timed_mut("net.fetch", |t| t.fetch(key))
    }

    fn fetch_batched(&mut self, key: ObjKey) -> Result<Fetched, NetError> {
        self.timed_mut("net.fetch_batched", |t| t.fetch_batched(key))
    }

    fn rtt_cost(&self) -> u64 {
        self.inner.rtt_cost()
    }

    fn put(&mut self, key: ObjKey, data: &[u8]) -> Result<u64, NetError> {
        self.timed_mut("net.put", |t| t.put(key, data))
    }

    fn remove(&mut self, key: ObjKey) -> Result<u64, NetError> {
        self.timed_mut("net.remove", |t| t.remove(key))
    }

    fn flush(&mut self) -> Result<u64, NetError> {
        self.timed_mut("net.flush", |t| t.flush())
    }

    fn generation(&self) -> u64 {
        self.inner.generation()
    }

    fn contains(&self, key: ObjKey) -> bool {
        self.timed("net.contains", || self.inner.contains(key))
    }

    fn stats(&self) -> NetStats {
        self.inner.stats()
    }

    fn remote_bytes(&self) -> u64 {
        self.timed("net.remote_bytes", || self.inner.remote_bytes())
    }

    fn take_fault_events(&mut self) -> FaultEvents {
        self.inner.take_fault_events()
    }

    fn set_trace_context(&mut self, ctx: TraceContext) {
        self.inner.set_trace_context(ctx)
    }

    fn trace_context(&self) -> TraceContext {
        self.inner.trace_context()
    }

    fn wire_tap(&self) -> Option<&WireTap> {
        self.inner.wire_tap()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cards_net::SimTransport;
    use cards_passes::{compile, CompileOptions};
    use cards_runtime::{RemotingPolicy, RuntimeConfig};
    use cards_vm::Vm;
    use cards_workloads::kvstore;

    /// Modeled cycles, results and every counter are bit-identical with
    /// and without the wrapper recording.
    #[test]
    fn recording_leaves_modeled_behaviour_bit_identical() {
        let p = kvstore::KvParams::test();
        let m = compile(kvstore::build(p).0, CompileOptions::cards())
            .unwrap()
            .module;
        let cfg = RuntimeConfig::new(0, 4 * 4096);
        let run = |t: &mut dyn FnMut(
            Vm<TimedTransport<SimTransport>>,
        ) -> Vm<TimedTransport<SimTransport>>| {
            let vm = Vm::new(
                m.clone(),
                cfg,
                TimedTransport::new(SimTransport::default()),
                RemotingPolicy::AllRemotable,
                0,
            );
            let mut vm = t(vm);
            let ret = vm.run("main", &[]).unwrap();
            (ret, vm)
        };
        let mut plain = Vm::new(
            m.clone(),
            cfg,
            SimTransport::default(),
            RemotingPolicy::AllRemotable,
            0,
        );
        let want = plain.run("main", &[]).unwrap();
        assert_eq!(want.map(|v| v as i64), Some(kvstore::reference(p)));

        let (quiet_ret, quiet) = run(&mut |vm| vm);
        let (ret, mut traced) = run(&mut |mut vm| {
            vm.runtime_mut()
                .transport_mut()
                .start(SpanLog::new(1 << 20));
            vm
        });
        for (r, vm) in [(quiet_ret, &quiet), (ret, &traced)] {
            assert_eq!(r, want);
            assert_eq!(vm.metrics(), plain.metrics());
            assert_eq!(vm.runtime().stats(), plain.runtime().stats());
            assert_eq!(vm.runtime().net_stats(), plain.runtime().net_stats());
            assert_eq!(
                vm.runtime()
                    .transport()
                    .wire_tap()
                    .map(|t| t.records().count()),
                plain
                    .runtime()
                    .transport()
                    .wire_tap()
                    .map(|t| t.records().count()),
            );
        }
        let log = traced.runtime_mut().transport_mut().stop();
        let net = plain.runtime().net_stats();
        assert!(net.fetches > 0, "the run must cross the link");
        assert_eq!(
            log.total("net.fetch").count + log.total("net.fetch_batched").count,
            net.fetches
        );
        assert_eq!(log.total("net.put").count, net.writebacks);
        assert_eq!(quiet.runtime().transport().stats(), net);
    }
}
