//! Deterministic structured tracer on the virtual clock.
//!
//! Every span/instant is stamped with a **virtual-clock** timestamp
//! (`ts_ns`), so for a fixed request trace the recorded event set is a
//! pure function of the inputs — the same contract `benchdiff` enforces
//! for the aggregate reports, extended down to individual lifecycle
//! events. Host wall-clock never enters a [`TraceEvent`]; anything
//! host-dependent stays out of the tracer entirely (the `host*`
//! segregation rule).
//!
//! Events are recorded into per-stream bounded rings
//! ([`EventRing`](crate::EventRing)). Streams exist because the serving
//! scheduler's *per-partition* decision sequence is deterministic while
//! cross-partition interleaving is not: each partition records into its
//! own stream, and the exporter merges streams with a deterministic
//! sort, so the exported trace is byte-identical across reruns even
//! when worker threads race.
//!
//! [`TraceEvent`] is a fixed-size `Copy` value — `&'static str` names
//! and a bounded inline argument array — so a push is one ring-slot
//! write with no per-event heap allocation.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use crate::metrics::{Counter, Gauge, HistogramHandle, MetricsRegistry};
use crate::perfetto;
use crate::ring::EventRing;

/// Default per-stream ring capacity: large enough to hold every event
/// of a bench-sized run, small enough (~a few MiB per stream) that a
/// million-request streaming run keeps its fixed memory ceiling.
pub const DEFAULT_STREAM_CAPACITY: usize = 16_384;

/// A trace argument value. `Str` is `'static` so recording never
/// allocates; dynamic strings belong in track names, not per-event
/// args.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArgValue {
    /// Unsigned integer argument.
    U64(u64),
    /// Signed integer argument.
    I64(i64),
    /// Floating-point argument.
    F64(f64),
    /// Static string argument.
    Str(&'static str),
}

/// Chrome trace-event phase of a [`TraceEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// `ph:"X"` — a complete span with `ts` and `dur`.
    Complete,
    /// `ph:"b"` — async span begin, matched by `id`.
    AsyncBegin,
    /// `ph:"n"` — async instant inside an `id`-matched span.
    AsyncInstant,
    /// `ph:"e"` — async span end, matched by `id`.
    AsyncEnd,
    /// `ph:"i"` — a thread-scoped instant.
    Instant,
    /// `ph:"C"` — a counter sample; every arg is a numeric series value
    /// plotted on the `(pid, name)` counter track.
    Counter,
}

impl Phase {
    /// Tie-break rank for the deterministic export sort: begins before
    /// the spans they open, ends after. Counter samples sort after
    /// everything else at the same instant so a scrape boundary
    /// reflects the events at or before it.
    fn rank(self) -> u8 {
        match self {
            Phase::AsyncBegin => 0,
            Phase::Complete => 1,
            Phase::Instant => 2,
            Phase::AsyncInstant => 3,
            Phase::AsyncEnd => 4,
            Phase::Counter => 5,
        }
    }
}

/// Maximum inline arguments per event.
pub const MAX_ARGS: usize = 6;

/// One recorded trace event: fixed-size, heap-free, virtual-clock
/// stamped.
#[derive(Debug, Clone, Copy)]
pub struct TraceEvent {
    /// Event name (Perfetto slice title).
    pub name: &'static str,
    /// Event category.
    pub cat: &'static str,
    /// Chrome trace-event phase.
    pub ph: Phase,
    /// Virtual-clock timestamp in nanoseconds.
    pub ts_ns: u64,
    /// Span duration in nanoseconds (`Complete` only, else 0).
    pub dur_ns: u64,
    /// Track process id (see the track layout in `red-server`).
    pub pid: u32,
    /// Track thread id.
    pub tid: u32,
    /// Async correlation id (`AsyncBegin`/`AsyncInstant`/`AsyncEnd`).
    pub id: u64,
    /// Inline key/value arguments.
    pub args: [Option<(&'static str, ArgValue)>; MAX_ARGS],
}

impl TraceEvent {
    /// A new event with no arguments; fill in `args` via [`Self::arg`].
    pub fn new(name: &'static str, cat: &'static str, ph: Phase, ts_ns: u64) -> Self {
        Self {
            name,
            cat,
            ph,
            ts_ns,
            dur_ns: 0,
            pid: 0,
            tid: 0,
            id: 0,
            args: [None; MAX_ARGS],
        }
    }

    /// Sets the track (pid, tid).
    #[must_use]
    pub fn track(mut self, pid: u32, tid: u32) -> Self {
        self.pid = pid;
        self.tid = tid;
        self
    }

    /// Sets the span duration (meaningful for `Complete` events).
    #[must_use]
    pub fn dur(mut self, dur_ns: u64) -> Self {
        self.dur_ns = dur_ns;
        self
    }

    /// Sets the async correlation id.
    #[must_use]
    pub fn with_id(mut self, id: u64) -> Self {
        self.id = id;
        self
    }

    /// Appends an argument; silently ignored past [`MAX_ARGS`] (the
    /// fixed footprint wins over completeness in the flight recorder).
    #[must_use]
    pub fn arg(mut self, key: &'static str, value: ArgValue) -> Self {
        if let Some(slot) = self.args.iter_mut().find(|s| s.is_none()) {
            *slot = Some((key, value));
        }
        self
    }

    /// The deterministic export sort key. Events identical under this
    /// key are byte-identical in the export, so any stable order of
    /// ties yields the same output.
    pub(crate) fn sort_key(&self) -> impl Ord {
        (
            self.ts_ns,
            self.pid,
            self.tid,
            self.ph.rank(),
            self.id,
            self.name,
            self.dur_ns,
        )
    }
}

/// Human-readable names for trace tracks, registered once at startup by
/// whoever owns the pid/tid layout (single-threaded, so deterministic).
#[derive(Debug, Default)]
pub(crate) struct TrackLabels {
    pub(crate) processes: BTreeMap<u32, String>,
    pub(crate) threads: BTreeMap<(u32, u32), String>,
}

/// Shared tracer + metrics state behind an enabled [`Telemetry`].
#[derive(Debug)]
struct TelemetryInner {
    streams: Mutex<Vec<EventRing<TraceEvent>>>,
    stream_capacity: usize,
    labels: Mutex<TrackLabels>,
    metrics: MetricsRegistry,
    /// Scraped time-series published at end of run (one entry per
    /// series), kept sorted by `(partition, chart, key)` so JSON
    /// exports are deterministic regardless of publish order.
    timeseries: Mutex<Vec<crate::scrape::SeriesSnapshot>>,
}

/// Handle to the observability plane. `Telemetry::disabled()` (the
/// default) carries no state: every record call is a branch on a `None`
/// and returns — the zero-cost-when-disabled contract. Clones share
/// the same underlying recorder.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<TelemetryInner>>,
}

impl Telemetry {
    /// A disabled handle: records nothing, binds no-op metric handles.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// An enabled handle with the default per-stream ring capacity.
    pub fn enabled() -> Self {
        Self::with_stream_capacity(DEFAULT_STREAM_CAPACITY)
    }

    /// An enabled handle whose per-stream flight-recorder rings hold
    /// `capacity` events each.
    pub fn with_stream_capacity(capacity: usize) -> Self {
        Self {
            inner: Some(Arc::new(TelemetryInner {
                streams: Mutex::new(Vec::new()),
                stream_capacity: capacity.max(1),
                labels: Mutex::new(TrackLabels::default()),
                metrics: MetricsRegistry::new(),
                timeseries: Mutex::new(Vec::new()),
            })),
        }
    }

    /// `true` when this handle actually records.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Records `event` into stream `stream`. Streams are created on
    /// first use; use one stream per deterministic emission sequence
    /// (e.g. one per partition) so ring overflow is deterministic too.
    pub fn record(&self, stream: usize, event: TraceEvent) {
        let Some(inner) = &self.inner else { return };
        let mut streams = inner.streams.lock().expect("telemetry streams poisoned");
        while streams.len() <= stream {
            streams.push(EventRing::new(inner.stream_capacity));
        }
        streams[stream].push(event);
    }

    /// Names the Perfetto process track `pid`.
    pub fn name_process(&self, pid: u32, name: &str) {
        let Some(inner) = &self.inner else { return };
        let mut labels = inner.labels.lock().expect("telemetry labels poisoned");
        labels.processes.insert(pid, name.to_string());
    }

    /// Names the Perfetto thread track `(pid, tid)`.
    pub fn name_thread(&self, pid: u32, tid: u32, name: &str) {
        let Some(inner) = &self.inner else { return };
        let mut labels = inner.labels.lock().expect("telemetry labels poisoned");
        labels.threads.insert((pid, tid), name.to_string());
    }

    /// Total events currently retained across all streams.
    pub fn event_count(&self) -> usize {
        match &self.inner {
            None => 0,
            Some(inner) => {
                let streams = inner.streams.lock().expect("telemetry streams poisoned");
                streams.iter().map(EventRing::len).sum()
            }
        }
    }

    /// Exact total of events evicted by ring overflow across all
    /// streams.
    pub fn overflow_total(&self) -> u64 {
        match &self.inner {
            None => 0,
            Some(inner) => {
                let streams = inner.streams.lock().expect("telemetry streams poisoned");
                streams.iter().map(EventRing::overflow).sum()
            }
        }
    }

    /// Deterministically merged snapshot of all retained events: the
    /// per-stream sequences are concatenated and sorted by the export
    /// key, so the result is independent of stream creation order and
    /// cross-stream race outcomes.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let streams = inner.streams.lock().expect("telemetry streams poisoned");
        let mut events: Vec<TraceEvent> = streams.iter().flat_map(|s| s.iter().copied()).collect();
        events.sort_by_key(TraceEvent::sort_key);
        events
    }

    /// Renders the retained events as Chrome trace-event JSON, the
    /// format Perfetto and `chrome://tracing` load. Deterministic:
    /// byte-identical across reruns of the same virtual-clock event
    /// sequence.
    pub fn export_chrome_trace(&self) -> String {
        let events = self.snapshot();
        let overflow = self.overflow_total();
        match &self.inner {
            None => perfetto::render(&events, &TrackLabels::default(), overflow),
            Some(inner) => {
                let labels = inner.labels.lock().expect("telemetry labels poisoned");
                perfetto::render(&events, &labels, overflow)
            }
        }
    }

    /// Renders the metrics registry in Prometheus text exposition
    /// format. Deterministic for deterministic metric values.
    ///
    /// Per-stream flight-recorder overflow is synced into
    /// `red_trace_overflow_total{stream}` first, so truncated captures
    /// show up as a real (alertable) metric rather than only an
    /// `otherData` annotation in the trace document.
    pub fn export_prometheus(&self) -> String {
        match &self.inner {
            None => String::new(),
            Some(inner) => {
                {
                    let streams = inner.streams.lock().expect("telemetry streams poisoned");
                    for (i, s) in streams.iter().enumerate() {
                        let overflow = s.overflow();
                        if overflow > 0 {
                            let cell = inner.metrics.counter(
                                "red_trace_overflow_total",
                                "Trace events evicted by flight-recorder ring overflow",
                                &[("stream", &i.to_string())],
                            );
                            // Counters only move forward; publish the
                            // delta since the last export.
                            let published = cell.get();
                            if overflow > published {
                                cell.add(overflow - published);
                            }
                        }
                    }
                }
                inner.metrics.render()
            }
        }
    }

    /// Publishes scraped time-series (one [`crate::SeriesSnapshot`] per
    /// series) for later export; typically called once per partition
    /// at end of run. No-op on a disabled handle.
    pub fn publish_timeseries(&self, series: Vec<crate::scrape::SeriesSnapshot>) {
        let Some(inner) = &self.inner else { return };
        let mut all = inner
            .timeseries
            .lock()
            .expect("telemetry timeseries poisoned");
        all.extend(series);
        all.sort_by(|a, b| (a.partition, &a.chart, &a.key).cmp(&(b.partition, &b.chart, &b.key)));
    }

    /// The published time-series, sorted by `(partition, chart, key)`.
    pub fn timeseries_snapshot(&self) -> Vec<crate::scrape::SeriesSnapshot> {
        match &self.inner {
            None => Vec::new(),
            Some(inner) => inner
                .timeseries
                .lock()
                .expect("telemetry timeseries poisoned")
                .clone(),
        }
    }

    /// Binds a monotonically increasing counter. Disabled handles
    /// return a no-op counter; repeated binds of the same name+labels
    /// share one cell.
    pub fn counter(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&'static str, &str)],
    ) -> Counter {
        match &self.inner {
            None => Counter::noop(),
            Some(inner) => inner.metrics.counter(name, help, labels),
        }
    }

    /// Binds a gauge (set-to-latest semantics).
    pub fn gauge(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&'static str, &str)],
    ) -> Gauge {
        match &self.inner {
            None => Gauge::noop(),
            Some(inner) => inner.metrics.gauge(name, help, labels),
        }
    }

    /// Binds a latency histogram (exported as quantile summaries).
    pub fn histogram(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&'static str, &str)],
    ) -> HistogramHandle {
        match &self.inner {
            None => HistogramHandle::noop(),
            Some(inner) => inner.metrics.histogram(name, help, labels),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        t.record(0, TraceEvent::new("x", "c", Phase::Instant, 5));
        t.name_process(1, "p");
        assert_eq!(t.event_count(), 0);
        assert_eq!(t.snapshot().len(), 0);
        assert_eq!(t.export_prometheus(), "");
        let c = t.counter("a_total", "h", &[]);
        c.add(3); // must not panic
    }

    #[test]
    fn snapshot_merges_streams_deterministically() {
        // Record the same events with streams created in different
        // orders; snapshots must match event-for-event.
        let build = |order: &[usize]| {
            let t = Telemetry::with_stream_capacity(8);
            for &s in order {
                let ev =
                    TraceEvent::new("e", "c", Phase::Instant, 10 + s as u64).track(s as u32, 0);
                t.record(s, ev);
            }
            t.snapshot()
                .iter()
                .map(|e| (e.ts_ns, e.pid))
                .collect::<Vec<_>>()
        };
        assert_eq!(build(&[0, 1, 2]), build(&[2, 1, 0]));
    }

    #[test]
    fn ring_overflow_is_counted_per_stream() {
        let t = Telemetry::with_stream_capacity(2);
        for i in 0..5u64 {
            t.record(0, TraceEvent::new("e", "c", Phase::Instant, i));
        }
        assert_eq!(t.event_count(), 2);
        assert_eq!(t.overflow_total(), 3);
        // The retained window is the newest events.
        let ts: Vec<u64> = t.snapshot().iter().map(|e| e.ts_ns).collect();
        assert_eq!(ts, vec![3, 4]);
    }

    #[test]
    fn args_past_capacity_are_dropped_silently() {
        let mut ev = TraceEvent::new("e", "c", Phase::Instant, 0);
        for i in 0..(MAX_ARGS + 3) {
            ev = ev.arg("k", ArgValue::U64(i as u64));
        }
        assert_eq!(ev.args.iter().filter(|a| a.is_some()).count(), MAX_ARGS);
    }
}
