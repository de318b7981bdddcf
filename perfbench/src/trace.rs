//! Benchmark-side tracing: a [`Transport`] decorator that records one
//! span per call (with the agent's `serve` as its child span), kept in
//! memory and written out only when the run ends.
//!
//! The decorator is transparent: it forwards every call, counter and
//! capability to the wrapped transport, and `fork` forks the wrapped
//! transport on the same lane, so the drop stream a lane sees is the
//! one it would see undecorated. Tracing on or off changes timings
//! only, never a round's report.

use std::cell::Cell;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use cia_keylime::{Transport, TransportError};
use serde::de::DeserializeOwned;
use serde::Serialize;

/// One transport call as the decorator saw it. Times are nanoseconds
/// since the tracer was created.
#[derive(Debug, Clone, Copy)]
pub struct CallSpan {
    pub lane: u64,
    pub thread: u64,
    pub start: u64,
    pub end: u64,
    /// The agent-side `serve` child span; `None` when the request was
    /// dropped before it reached the agent.
    pub serve: Option<(u64, u64)>,
    pub bytes: u64,
    pub drops: u64,
}

impl CallSpan {
    pub fn call_ns(&self) -> u64 {
        self.end - self.start
    }

    pub fn serve_ns(&self) -> u64 {
        self.serve.map_or(0, |(s, e)| e - s)
    }
}

/// A named span recorded by a workload around a call into a layer.
#[derive(Debug, Clone)]
pub struct StageSpan {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
}

/// The in-memory span store shared by every lane of one decorated
/// transport, plus the workload's own stage spans.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: AtomicBool,
    calls: Mutex<Vec<CallSpan>>,
    stages: Mutex<Vec<StageSpan>>,
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD: Cell<u64> = const { Cell::new(0) };
}

/// A small, never-reused number for the calling thread.
fn thread_number() -> u64 {
    THREAD.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_THREAD.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

impl Tracer {
    pub fn new(enabled: bool) -> Arc<Self> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            enabled: AtomicBool::new(enabled),
            calls: Mutex::new(Vec::new()),
            stages: Mutex::new(Vec::new()),
        })
    }

    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Nanoseconds since the tracer was created.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a stage span named `name` (recorded only while
    /// tracing is on) and returns its result with its duration in ms.
    pub fn stage<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let start = self.now();
        let out = f();
        let end = self.now();
        if self.enabled() {
            self.stages
                .lock()
                .expect("stage store poisoned by a panicking lane")
                .push(StageSpan { name, start, end });
        }
        (out, (end - start) as f64 / 1e6)
    }

    /// The call spans that started inside `[from, to]`.
    pub fn calls_between(&self, from: u64, to: u64) -> Vec<CallSpan> {
        self.calls
            .lock()
            .expect("call store poisoned by a panicking lane")
            .iter()
            .filter(|c| c.start >= from && c.start <= to)
            .copied()
            .collect()
    }

    #[cfg(test)]
    pub fn call_count(&self) -> usize {
        self.calls
            .lock()
            .expect("call store poisoned by a panicking lane")
            .len()
    }

    /// Writes every recorded span as one JSON object per line: stage
    /// spans, then call spans each followed by its `serve` child. At
    /// most `cap` call spans are written; the rest are counted.
    pub fn write_spans(&self, path: &Path, cap: usize) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let mut id = 0u64;
        for s in self
            .stages
            .lock()
            .expect("stage store poisoned by a panicking lane")
            .iter()
        {
            id += 1;
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":null,\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.start, s.end
            )?;
        }
        let calls = self
            .calls
            .lock()
            .expect("call store poisoned by a panicking lane");
        for c in calls.iter().take(cap) {
            id += 1;
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":null,\"name\":\"transport.call\",\"start_ns\":{},\"end_ns\":{},\"lane\":{},\"thread\":{},\"bytes\":{},\"drops\":{}}}",
                c.start, c.end, c.lane, c.thread, c.bytes, c.drops
            )?;
            if let Some((s, e)) = c.serve {
                writeln!(
                    out,
                    "{{\"id\":{},\"parent\":{id},\"name\":\"agent.serve\",\"start_ns\":{s},\"end_ns\":{e}}}",
                    id + 1
                )?;
                id += 1;
            }
        }
        if calls.len() > cap {
            writeln!(out, "{{\"omitted_call_spans\":{}}}", calls.len() - cap)?;
        }
        out.flush()
    }
}

/// The tracing decorator. See the module docs.
#[derive(Debug)]
pub struct Traced<T> {
    inner: T,
    tracer: Arc<Tracer>,
    lane: u64,
}

impl<T> Traced<T> {
    pub fn new(inner: T, tracer: Arc<Tracer>) -> Self {
        Traced {
            inner,
            tracer,
            lane: 0,
        }
    }
}

impl<T: Transport> Transport for Traced<T> {
    fn call<Req, Resp>(
        &mut self,
        request: &Req,
        serve: impl FnOnce(Req) -> Resp,
    ) -> Result<Resp, TransportError>
    where
        Req: Serialize + DeserializeOwned,
        Resp: Serialize + DeserializeOwned,
    {
        if !self.tracer.enabled() {
            return self.inner.call(request, serve);
        }
        let tracer = Arc::clone(&self.tracer);
        let bytes_before = self.inner.wire_bytes();
        let drops_before = self.inner.drops();
        let mut served = None;
        let start = tracer.now();
        let out = self.inner.call(request, |req| {
            let s = tracer.now();
            let resp = serve(req);
            served = Some((s, tracer.now()));
            resp
        });
        let end = tracer.now();
        let span = CallSpan {
            lane: self.lane,
            thread: thread_number(),
            start,
            end,
            serve: served,
            bytes: self.inner.wire_bytes() - bytes_before,
            drops: self.inner.drops() - drops_before,
        };
        tracer
            .calls
            .lock()
            .expect("call store poisoned by a panicking lane")
            .push(span);
        out
    }

    fn requests(&self) -> u64 {
        self.inner.requests()
    }

    fn drops(&self) -> u64 {
        self.inner.drops()
    }

    fn wire_bytes(&self) -> u64 {
        self.inner.wire_bytes()
    }

    fn supports_structured_excerpt(&self) -> bool {
        self.inner.supports_structured_excerpt()
    }

    fn supports_delta_push(&self) -> bool {
        self.inner.supports_delta_push()
    }

    fn fork(&self, lane: u64) -> Self {
        Traced {
            inner: self.inner.fork(lane),
            tracer: Arc::clone(&self.tracer),
            lane,
        }
    }
}

/// Per-round totals of the call spans of one round window, split by the
/// worker thread that made them.
#[derive(Debug, Default, Clone)]
pub struct RoundLedger {
    /// Round wall time, measured around the round call.
    pub round_ms: f64,
    /// Time inside `serve`, summed over every call.
    pub serve_ms: f64,
    /// `call` minus `serve`, summed over every call.
    pub codec_ms: f64,
    /// Per thread, time from one call's return to its next call's start.
    pub gap_ms: f64,
    /// Round start to the first call on any thread.
    pub head_ms: f64,
    /// Last call's return on any thread to round end.
    pub tail_ms: f64,
    /// Slowest thread's first-to-last-call span over the fastest's.
    pub thread_skew: f64,
    /// The critical path up to the last return: on the thread whose last
    /// call returned latest, round start to its first call, plus its
    /// calls, plus the gaps between them.
    pub critical_ms: f64,
    pub calls: u64,
    pub bytes: u64,
    pub drops: u64,
}

impl RoundLedger {
    /// Builds the ledger of the round that ran over `[start, end]`.
    pub fn of(calls: &[CallSpan], start: u64, end: u64) -> Self {
        let mut by_thread: std::collections::BTreeMap<u64, Vec<CallSpan>> =
            std::collections::BTreeMap::new();
        for c in calls {
            by_thread.entry(c.thread).or_default().push(*c);
        }
        let ms = |ns: u64| ns as f64 / 1e6;
        let mut ledger = RoundLedger {
            round_ms: ms(end - start),
            ..RoundLedger::default()
        };
        let mut first = u64::MAX;
        let mut last = 0u64;
        let mut spans: Vec<u64> = Vec::new();
        for thread_calls in by_thread.values_mut() {
            thread_calls.sort_by_key(|c| c.start);
            let t_first = thread_calls[0].start;
            let t_last = thread_calls.iter().map(|c| c.end).max().unwrap_or(t_first);
            let mut busy = 0u64;
            let mut gap = 0u64;
            let mut prev_end: Option<u64> = None;
            for c in thread_calls.iter() {
                busy += c.call_ns();
                ledger.serve_ms += ms(c.serve_ns());
                ledger.codec_ms += ms(c.call_ns() - c.serve_ns());
                ledger.calls += 1;
                ledger.bytes += c.bytes;
                ledger.drops += c.drops;
                if let Some(p) = prev_end {
                    gap += c.start.saturating_sub(p);
                }
                prev_end = Some(c.end);
            }
            ledger.gap_ms += ms(gap);
            if t_last >= last {
                ledger.critical_ms = ms((t_first - start) + busy + gap);
            }
            spans.push(t_last - t_first);
            first = first.min(t_first);
            last = last.max(t_last);
        }
        if !by_thread.is_empty() {
            ledger.head_ms = ms(first - start);
            ledger.tail_ms = ms(end.saturating_sub(last));
            let max = spans.iter().copied().max().unwrap_or(0) as f64;
            let min = spans.iter().copied().min().unwrap_or(0).max(1) as f64;
            ledger.thread_skew = max / min;
        }
        ledger
    }

    /// The share of the round the stages leave unaccounted for: the
    /// critical path's spans plus `post_call_ms`, the work after the last
    /// return (merge and commit) timed apart from the spans, against the
    /// round's wall time. Work after the last return that `post_call_ms`
    /// does not cover shows up here.
    pub fn unattributed_frac(&self, post_call_ms: f64) -> f64 {
        (self.round_ms - self.critical_ms - post_call_ms).abs() / self.round_ms
    }
}

/// Records the span-derived layer metrics of the traced rounds, one
/// sample per round, and the tracing overhead against the untraced
/// rounds of the same run.
pub fn record_transport(
    m: &mut crate::stats::Metrics,
    ledgers: &[RoundLedger],
    traced_ms: &[f64],
    untraced_ms: &[f64],
) {
    let per = |f: fn(&RoundLedger) -> f64| ledgers.iter().map(f).collect::<Vec<f64>>();
    m.samples("agent.quote_ms", "ms", per(|l| l.serve_ms));
    m.samples("transport.codec_ms", "ms", per(|l| l.codec_ms));
    m.samples("transport.bytes", "bytes", per(|l| l.bytes as f64));
    m.samples("transport.calls", "count", per(|l| l.calls as f64));
    m.samples("transport.drops", "count", per(|l| l.drops as f64));
    m.samples("scheduler.gap_ms", "ms", per(|l| l.gap_ms));
    m.samples("federation.head_ms", "ms", per(|l| l.head_ms));
    m.samples("federation.tail_ms", "ms", per(|l| l.tail_ms));
    m.samples("federation.shard_skew", "ratio", per(|l| l.thread_skew));
    let overhead = crate::stats::median(traced_ms) / crate::stats::median(untraced_ms) - 1.0;
    m.scalar("trace.overhead_frac", "frac", overhead);
}

/// Writes the run's spans when it ends: every stage span, and the first
/// 50,000 call spans (a few MB), so repeated traced runs stay small.
pub fn write_spans(tracer: &Tracer, workload: &str, seed: u64) {
    let path = crate::common::spans_path(workload, seed);
    if let Err(e) = tracer.write_spans(&path, 50_000) {
        eprintln!(
            "perfbench: could not write spans to {}: {e}",
            path.display()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cia_keylime::LossyTransport;

    fn pattern<T: Transport>(t: &mut T) -> Vec<Result<i32, TransportError>> {
        (0..64).map(|i| t.call(&i, |x: i32| x + 1)).collect()
    }

    #[test]
    fn decorator_keeps_each_lanes_drop_stream() {
        let base = LossyTransport::new(0.2, 99);
        let tracer = Tracer::new(true);
        let traced = Traced::new(LossyTransport::new(0.2, 99), Arc::clone(&tracer));
        for lane in [0u64, 1, 7] {
            let plain = pattern(&mut base.fork(lane));
            let mut lane_t = traced.fork(lane);
            assert_eq!(plain, pattern(&mut lane_t), "lane {lane}");
            assert_eq!(lane_t.requests(), 64);
        }
        let drops: u64 = tracer
            .calls_between(0, u64::MAX)
            .iter()
            .map(|c| c.drops)
            .sum();
        assert!(drops > 0, "a 20% loss rate drops some of 192 calls");
        assert_eq!(tracer.call_count(), 192);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        let mut t = Traced::new(LossyTransport::new(0.0, 1), Arc::clone(&tracer));
        assert_eq!(t.call(&20, |x: i32| x + 1), Ok(21));
        assert_eq!(tracer.call_count(), 0);
    }

    #[test]
    fn ledger_accounts_for_every_thread() {
        let span = |thread, start, end| CallSpan {
            lane: 0,
            thread,
            start,
            end,
            serve: Some((start + 1, end - 1)),
            bytes: 10,
            drops: 0,
        };
        let calls = [span(1, 10, 20), span(1, 30, 40), span(2, 15, 45)];
        let l = RoundLedger::of(&calls, 0, 50);
        assert_eq!(l.calls, 3);
        assert!((l.gap_ms - 10e-6).abs() < 1e-12);
        assert!((l.head_ms - 10e-6).abs() < 1e-12);
        assert!((l.tail_ms - 5e-6).abs() < 1e-12);
        // Thread 2 returns last: 15 ns to its call, 30 ns inside it.
        assert!((l.critical_ms - 45e-6).abs() < 1e-12);
        assert!((l.thread_skew - 1.0).abs() < 1e-12);
        // Post-call work timed at the 5 ns tail accounts for the round;
        // timed at 2 ns, it leaves 3 of 50 ns unaccounted for.
        assert!(l.unattributed_frac(5e-6) < 1e-9);
        assert!((l.unattributed_frac(2e-6) - 0.06).abs() < 1e-9);
    }
}
