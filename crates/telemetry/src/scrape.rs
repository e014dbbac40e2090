//! Windowed time-series scraper on the virtual clock.
//!
//! A [`Scraper`] snapshots a set of registered metric handles at a
//! fixed virtual-clock interval. It is *pumped* by whoever owns the
//! deterministic clock (the serving scheduler's batch-close loop), so
//! scrape instants are a pure function of the request trace — the same
//! contract the tracer and metrics plane already obey — and the
//! resulting series are byte-identical across replays.
//!
//! Each registered series keeps a bounded ring of `(t_ns, value)`
//! samples (counter *window deltas*, gauge levels, or windowed latency
//! quantiles) plus exact eviction accounting: for a counter series,
//! `evicted_sum + Σ retained deltas == total` always, so conservation
//! against the end-of-run registry totals stays auditable even when
//! the ring wraps. Every scrape also emits Chrome-trace `"C"` counter
//! events so the series render as counter tracks interleaved with the
//! request spans in `ui.perfetto.dev`.

use std::collections::BTreeSet;
use std::sync::Mutex;

use crate::histogram::LatencyHistogram;
use crate::metrics::{Counter, Gauge};
use crate::ring::EventRing;
use crate::trace::{ArgValue, Phase, Telemetry, TraceEvent, MAX_ARGS};

/// Interns `s` into a process-lifetime string pool so dynamic names
/// (tenant classes, chart chunk suffixes) can ride in `&'static str`
/// slots of [`TraceEvent`]. The pool only ever holds the small, fixed
/// vocabulary of chart/series names, so the leak is bounded.
pub fn intern(s: &str) -> &'static str {
    static POOL: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());
    let mut pool = POOL.lock().expect("intern pool poisoned");
    if let Some(hit) = pool.get(s) {
        return hit;
    }
    let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
    pool.insert(leaked);
    leaked
}

/// Scrape cadence and per-series retention.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScrapeConfig {
    /// Virtual-clock width of one scrape window in nanoseconds.
    pub interval_ns: u64,
    /// Bounded ring capacity per series (oldest samples evicted, with
    /// exact eviction-sum accounting).
    pub ring_capacity: usize,
}

impl Default for ScrapeConfig {
    fn default() -> Self {
        Self {
            interval_ns: 500_000,
            ring_capacity: 4096,
        }
    }
}

#[derive(Debug)]
enum SeriesKind {
    /// Window deltas of a monotone counter.
    Counter { handle: Counter, last: u64 },
    /// Level of a gauge at each scrape instant.
    Gauge { handle: Gauge },
    /// Quantile of the scraper's windowed latency histogram (reset
    /// each window).
    Quantile { q: f64 },
}

impl SeriesKind {
    fn name(&self) -> &'static str {
        match self {
            SeriesKind::Counter { .. } => "counter",
            SeriesKind::Gauge { .. } => "gauge",
            SeriesKind::Quantile { .. } => "quantile",
        }
    }
}

#[derive(Debug)]
struct SeriesState {
    chart: &'static str,
    key: &'static str,
    kind: SeriesKind,
    samples: EventRing<(u64, i64)>,
    /// Exact sum of evicted sample values (conservation across
    /// ring wrap).
    evicted_sum: i64,
    /// Counter: cumulative sum of all window deltas. Gauge/quantile:
    /// the latest sampled value.
    total: i64,
}

/// One series, exported: identity, retained samples, and the exact
/// conservation ledger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeriesSnapshot {
    /// Owning partition (scraper identity).
    pub partition: usize,
    /// Chart this series plots on (e.g. `served`).
    pub chart: String,
    /// Series key within the chart (e.g. a tenant name).
    pub key: String,
    /// `counter`, `gauge`, or `quantile`.
    pub kind: &'static str,
    /// Counter: Σ of every window delta ever taken. Gauge/quantile:
    /// last sampled value.
    pub total: i64,
    /// Samples evicted from the bounded ring.
    pub evicted: u64,
    /// Exact Σ of evicted sample values, so
    /// `evicted_sum + Σ samples == total` for counter series.
    pub evicted_sum: i64,
    /// Retained `(t_ns, value)` samples, oldest first.
    pub samples: Vec<(u64, i64)>,
}

/// One scrape window: the boundary instant and every registered
/// series' value at it, in registration order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowSnapshot {
    /// Virtual-clock boundary this window closed at.
    pub t_ns: u64,
    /// Per-series values (counter deltas / gauge levels / window
    /// quantiles), indexed by the id returned at registration.
    pub values: Vec<i64>,
}

/// Deterministic registry scraper; see the module docs.
#[derive(Debug)]
pub struct Scraper {
    tele: Telemetry,
    stream: usize,
    pid: u32,
    partition: usize,
    interval_ns: u64,
    ring_capacity: usize,
    next_ns: u64,
    last_sample_ns: Option<u64>,
    series: Vec<SeriesState>,
    window_hist: LatencyHistogram,
}

impl Scraper {
    /// A scraper for `partition`, recording `"C"` events into trace
    /// stream `stream` on process track `pid`.
    pub fn new(
        cfg: ScrapeConfig,
        tele: Telemetry,
        partition: usize,
        stream: usize,
        pid: u32,
    ) -> Self {
        Self {
            tele,
            stream,
            pid,
            partition,
            interval_ns: cfg.interval_ns.max(1),
            ring_capacity: cfg.ring_capacity.max(1),
            next_ns: cfg.interval_ns.max(1),
            last_sample_ns: None,
            series: Vec::new(),
            window_hist: LatencyHistogram::new(),
        }
    }

    fn register(&mut self, chart: &str, key: &str, kind: SeriesKind) -> usize {
        self.series.push(SeriesState {
            chart: intern(chart),
            key: intern(key),
            kind,
            samples: EventRing::new(self.ring_capacity),
            evicted_sum: 0,
            total: 0,
        });
        self.series.len() - 1
    }

    /// Registers a counter-delta series; returns its index into
    /// [`WindowSnapshot::values`]. Deltas are relative to the
    /// counter's value *now* (normally zero at server construction).
    pub fn counter(&mut self, chart: &str, key: &str, handle: Counter) -> usize {
        let last = handle.get();
        self.register(chart, key, SeriesKind::Counter { handle, last })
    }

    /// Registers a gauge-level series.
    pub fn gauge(&mut self, chart: &str, key: &str, handle: Gauge) -> usize {
        self.register(chart, key, SeriesKind::Gauge { handle })
    }

    /// Registers a windowed latency-quantile series fed by
    /// [`Self::record_latency`].
    pub fn quantile(&mut self, chart: &str, key: &str, q: f64) -> usize {
        self.register(chart, key, SeriesKind::Quantile { q })
    }

    /// Feeds one latency sample into the current window's histogram.
    pub fn record_latency(&mut self, ns: u64) {
        self.window_hist.record(ns);
    }

    /// Advances the scrape clock to `now_ns`, taking one sample per
    /// crossed window boundary (several when the clock jumps; later
    /// boundaries then carry zero deltas). Returns the closed windows
    /// oldest-first — the alert engine's input sequence.
    pub fn pump(&mut self, now_ns: u64) -> Vec<WindowSnapshot> {
        let mut out = Vec::new();
        while self.next_ns <= now_ns {
            let t = self.next_ns;
            self.next_ns += self.interval_ns;
            out.push(self.sample(t));
        }
        out
    }

    /// Closes the final (possibly partial) window at `end_ns` after
    /// pumping any whole boundaries before it.
    pub fn finish(&mut self, end_ns: u64) -> Vec<WindowSnapshot> {
        let mut out = self.pump(end_ns);
        if self.last_sample_ns != Some(end_ns) {
            out.push(self.sample(end_ns));
        }
        out
    }

    fn sample(&mut self, t_ns: u64) -> WindowSnapshot {
        let mut values = Vec::with_capacity(self.series.len());
        for s in &mut self.series {
            let v = match &mut s.kind {
                SeriesKind::Counter { handle, last } => {
                    let cur = handle.get();
                    let delta = cur.saturating_sub(*last) as i64;
                    *last = cur;
                    s.total += delta;
                    delta
                }
                SeriesKind::Gauge { handle } => {
                    let v = handle.get();
                    s.total = v;
                    v
                }
                SeriesKind::Quantile { q } => {
                    let v = self.window_hist.quantile(*q) as i64;
                    s.total = v;
                    v
                }
            };
            if let Some((_, evicted)) = s.samples.push((t_ns, v)) {
                s.evicted_sum += evicted;
            }
            values.push(v);
        }
        self.window_hist = LatencyHistogram::new();
        self.last_sample_ns = Some(t_ns);
        self.emit_counter_events(t_ns, &values);
        WindowSnapshot { t_ns, values }
    }

    /// One `"C"` event per chart per scrape (chunked to [`MAX_ARGS`]
    /// series per event; overflow chunks are named `chart#2`, ...).
    fn emit_counter_events(&self, t_ns: u64, values: &[i64]) {
        if !self.tele.is_enabled() {
            return;
        }
        let mut i = 0;
        while i < self.series.len() {
            let chart = self.series[i].chart;
            let mut j = i;
            while j < self.series.len() && self.series[j].chart == chart {
                j += 1;
            }
            let mut chunk_start = i;
            let mut chunk_idx = 0usize;
            while chunk_start < j {
                let chunk_end = (chunk_start + MAX_ARGS).min(j);
                let name = if chunk_idx == 0 {
                    chart
                } else {
                    intern(&format!("{chart}#{}", chunk_idx + 1))
                };
                let mut ev =
                    TraceEvent::new(name, "scrape", Phase::Counter, t_ns).track(self.pid, 0);
                for (s, v) in self.series[chunk_start..chunk_end]
                    .iter()
                    .zip(&values[chunk_start..chunk_end])
                {
                    ev = ev.arg(s.key, ArgValue::I64(*v));
                }
                self.tele.record(self.stream, ev);
                chunk_start = chunk_end;
                chunk_idx += 1;
            }
            i = j;
        }
    }

    /// Exports every series with its conservation ledger, for the
    /// `timeseries` block of the JSON reports.
    pub fn export(&self) -> Vec<SeriesSnapshot> {
        self.series
            .iter()
            .map(|s| SeriesSnapshot {
                partition: self.partition,
                chart: s.chart.to_string(),
                key: s.key.to_string(),
                kind: s.kind.name(),
                total: s.total,
                evicted: s.samples.overflow(),
                evicted_sum: s.evicted_sum,
                samples: s.samples.iter().copied().collect(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scraper_with(tele: &Telemetry, interval_ns: u64, cap: usize) -> Scraper {
        Scraper::new(
            ScrapeConfig {
                interval_ns,
                ring_capacity: cap,
            },
            tele.clone(),
            0,
            0,
            100,
        )
    }

    #[test]
    fn counter_deltas_conserve_the_registry_total() {
        let tele = Telemetry::enabled();
        let c = tele.counter("served_total", "h", &[]);
        let mut s = scraper_with(&tele, 100, 4);
        let idx = s.counter("served", "all", c.clone());
        // Irregular increments across many windows; ring wraps.
        let mut expected = 0u64;
        for (i, n) in [3u64, 0, 7, 1, 0, 0, 11, 2, 5, 1].iter().enumerate() {
            c.add(*n);
            expected += *n;
            s.pump((i as u64 + 1) * 100);
        }
        let snap = &s.export()[idx];
        let retained: i64 = snap.samples.iter().map(|(_, v)| v).sum();
        assert_eq!(snap.evicted_sum + retained, snap.total);
        assert_eq!(snap.total as u64, expected);
        assert_eq!(snap.total as u64, c.get());
        assert!(snap.evicted > 0, "ring must have wrapped in this test");
    }

    #[test]
    fn boundaries_are_deterministic_and_gap_windows_carry_zero_deltas() {
        let tele = Telemetry::enabled();
        let c = tele.counter("x_total", "h", &[]);
        let mut s = scraper_with(&tele, 50, 64);
        s.counter("x", "all", c.clone());
        c.add(9);
        // One pump far past several boundaries: first window gets the
        // whole delta, later ones are zero.
        let windows = s.pump(175);
        assert_eq!(
            windows.iter().map(|w| w.t_ns).collect::<Vec<_>>(),
            vec![50, 100, 150]
        );
        assert_eq!(
            windows.iter().map(|w| w.values[0]).collect::<Vec<_>>(),
            vec![9, 0, 0]
        );
        let tail = s.finish(180);
        assert_eq!(tail.len(), 1);
        assert_eq!(tail[0].t_ns, 180);
    }

    #[test]
    fn windowed_quantiles_reset_each_window() {
        let tele = Telemetry::enabled();
        let mut s = scraper_with(&tele, 100, 64);
        let idx = s.quantile("latency", "p50", 0.5);
        s.record_latency(40);
        s.record_latency(60);
        let w1 = s.pump(100);
        assert!(w1[0].values[idx] > 0);
        let w2 = s.pump(200);
        assert_eq!(w2[0].values[idx], 0, "window histogram must reset");
    }

    #[test]
    fn charts_chunk_into_max_args_counter_events() {
        let tele = Telemetry::enabled();
        let mut s = scraper_with(&tele, 100, 8);
        for i in 0..(MAX_ARGS + 2) {
            let c = tele.counter("many_total", "h", &[("k", &i.to_string())]);
            s.counter("many", &format!("k{i}"), c);
        }
        s.pump(100);
        let events = tele.snapshot();
        let counters: Vec<_> = events.iter().filter(|e| e.ph == Phase::Counter).collect();
        assert_eq!(counters.len(), 2);
        assert_eq!(counters[0].name, "many");
        assert_eq!(counters[1].name, "many#2");
        assert_eq!(
            counters[0].args.iter().filter(|a| a.is_some()).count(),
            MAX_ARGS
        );
        assert_eq!(counters[1].args.iter().filter(|a| a.is_some()).count(), 2);
    }

    #[test]
    fn intern_returns_stable_pointers() {
        let a = intern("tenant-interactive");
        let b = intern("tenant-interactive");
        assert!(std::ptr::eq(a, b));
    }
}
