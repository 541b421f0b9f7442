//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span has a name (`layer.operation`), start and end on one process
//! clock, an id, the id of the span that caused it, and a request id shared
//! by every span of one operation. The buffer is bounded; the per-name
//! totals are exact however many spans were dropped, so every per-layer
//! number is computed from the totals, not from the retained spans.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use crate::json::quote;

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A fresh span id, unique in the process (0 means "no parent").
pub fn next_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub id: u64,
    pub parent: u64,
    pub req: u64,
    /// Client thread that issued the span (Chrome trace `tid`).
    pub thread: u32,
}

/// Exact per-name aggregate.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Total {
    pub count: u64,
    pub ns: u64,
}

/// A bounded span buffer with exact per-name totals.
#[derive(Clone, Debug)]
pub struct SpanLog {
    cap: usize,
    /// Stamped on spans opened through [`timed`] on this log.
    thread: u32,
    spans: Vec<Span>,
    dropped: u64,
    totals: BTreeMap<&'static str, Total>,
}

impl SpanLog {
    /// An empty log that retains at most `cap` spans.
    pub fn new(cap: usize) -> Self {
        Self::for_thread(cap, 0)
    }

    /// An empty log for the client thread numbered `thread`.
    pub fn for_thread(cap: usize, thread: u32) -> Self {
        SpanLog {
            cap,
            thread,
            spans: Vec::new(),
            dropped: 0,
            totals: BTreeMap::new(),
        }
    }

    /// An empty log for one phase of work that will be absorbed into this
    /// one: it retains only as many spans as this log still has room for.
    pub fn child(&self) -> SpanLog {
        SpanLog::for_thread(self.room(), self.thread)
    }

    /// Spans this log can still retain.
    pub fn room(&self) -> usize {
        self.cap.saturating_sub(self.spans.len())
    }

    pub fn thread(&self) -> u32 {
        self.thread
    }

    pub fn record(&mut self, s: Span) {
        let t = self.totals.entry(s.name).or_default();
        t.count += 1;
        t.ns += s.end_ns.saturating_sub(s.start_ns);
        if self.spans.len() < self.cap {
            self.spans.push(s);
        } else {
            self.dropped += 1;
        }
    }

    /// Fold `other` in: totals add exactly, spans fill the remaining room.
    pub fn absorb(&mut self, other: SpanLog) {
        for (name, t) in other.totals {
            let mine = self.totals.entry(name).or_default();
            mine.count += t.count;
            mine.ns += t.ns;
        }
        let room = self.cap.saturating_sub(self.spans.len());
        let keep = other.spans.len().min(room);
        self.dropped += other.dropped + (other.spans.len() - keep) as u64;
        self.spans.extend(other.spans.into_iter().take(keep));
    }

    pub fn total(&self, name: &str) -> Total {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Sum of the totals of every name starting with `prefix`.
    pub fn total_prefix(&self, prefix: &str) -> Total {
        self.totals
            .iter()
            .filter(|(n, _)| n.starts_with(prefix))
            .fold(Total::default(), |a, (_, t)| Total {
                count: a.count + t.count,
                ns: a.ns + t.ns,
            })
    }

    pub fn recorded(&self) -> u64 {
        self.totals.values().map(|t| t.count).sum()
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The retained spans in Chrome trace-event format (complete `X`
    /// events, microsecond timestamps), which Perfetto and
    /// `chrome://tracing` open directly. Parent and request ids ride in
    /// `args`; the exact totals and the drop count ride in `otherData`.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{},\"req\":{}}}}}",
                quote(s.name),
                quote(s.name.split('.').next().unwrap_or(s.name)),
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                s.thread,
                s.id,
                s.parent,
                s.req,
            ));
        }
        out.push_str("],\"displayTimeUnit\":\"ns\",\"otherData\":{");
        out.push_str(&format!(
            "\"retained\":{},\"dropped\":{},\"totals\":{{",
            self.spans.len(),
            self.dropped
        ));
        for (i, (name, t)) in self.totals.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{}:{{\"count\":{},\"ns\":{}}}",
                quote(name),
                t.count,
                t.ns
            ));
        }
        out.push_str("}}}\n");
        out
    }
}

/// Time `f` as a span named `name` under `parent`. `f` receives the new
/// span's id so the spans it causes can name it as their parent.
pub fn timed<R>(
    log: &mut SpanLog,
    name: &'static str,
    parent: u64,
    req: u64,
    f: impl FnOnce(u64) -> R,
) -> R {
    let id = next_id();
    let start_ns = now_ns();
    let r = f(id);
    log.record(Span {
        name,
        start_ns,
        end_ns: now_ns(),
        id,
        parent,
        req,
        thread: log.thread,
    });
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{num_of, parse};

    fn span(name: &'static str, start: u64, end: u64) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            id: next_id(),
            parent: 0,
            req: 7,
            thread: 1,
        }
    }

    #[test]
    fn totals_stay_exact_past_the_cap() {
        let mut log = SpanLog::new(2);
        for i in 0..5 {
            log.record(span("net.fetch", i * 10, i * 10 + 4));
        }
        assert_eq!(log.spans().len(), 2);
        assert_eq!(log.dropped(), 3);
        assert_eq!(log.total("net.fetch"), Total { count: 5, ns: 20 });

        let mut big = SpanLog::new(3);
        big.record(span("vm.run", 0, 100));
        big.absorb(log);
        assert_eq!(big.spans().len(), 3);
        assert_eq!(big.dropped(), 3);
        assert_eq!(big.recorded(), 6);
        assert_eq!(big.total_prefix("net.").count, 5);
    }

    #[test]
    fn chrome_export_is_valid_trace_event_json() {
        let mut log = SpanLog::new(8);
        log.record(span("vm.run", 1_000, 9_000));
        log.record(span("net.fetch", 2_000, 3_500));
        let v = parse(&log.chrome_json()).expect("valid JSON");
        let ev = v.arr_of("traceEvents");
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[1].str_of("ph"), "X");
        assert_eq!(ev[1].str_of("cat"), "net");
        assert_eq!(num_of(&ev[1], "ts"), Some(2.0));
        assert_eq!(num_of(&ev[1], "dur"), Some(1.5));
        assert_eq!(ev[0].get("args").unwrap().u64_of("req"), 7);
    }
}
