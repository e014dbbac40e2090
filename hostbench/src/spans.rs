//! In-memory spans recorded by the traced run around each call into a
//! layer, written out as a Chrome trace-event file when the run ends.

use std::time::Instant;

#[derive(Debug)]
struct Span {
    layer: &'static str,
    name: String,
    parent: Option<usize>,
    start_ns: f64,
    dur_ns: f64,
}

/// Span recorder: `open` starts a span, `close` ends it and returns its
/// duration.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Starts a span of `layer` named `name` under `parent`; returns its id.
    pub fn open(&mut self, layer: &'static str, name: String, parent: Option<usize>) -> usize {
        self.spans.push(Span {
            layer,
            name,
            parent,
            start_ns: self.origin.elapsed().as_nanos() as f64,
            dur_ns: 0.0,
        });
        self.spans.len() - 1
    }

    /// Ends span `id`; returns its duration in nanoseconds.
    pub fn close(&mut self, id: usize) -> f64 {
        let now = self.origin.elapsed().as_nanos() as f64;
        let span = &mut self.spans[id];
        span.dur_ns = now - span.start_ns;
        span.dur_ns
    }

    /// Self time of span `id`: its duration minus the part its direct
    /// children cover.
    pub fn self_ns(&self, id: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.dur_ns)
            .sum();
        self.spans[id].dur_ns - children
    }

    /// Chrome trace-event JSON (complete `X` events, microseconds).
    pub fn to_chrome_trace(&self) -> String {
        let events: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                format!(
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                     \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{id},\"parent\":{}}}}}",
                    red_bench::json_escape(&s.name),
                    s.layer,
                    s.start_ns / 1e3,
                    s.dur_ns / 1e3,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                )
            })
            .collect();
        format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut s = Spans::new();
        let root = s.open("runtime", "run".into(), None);
        let a = s.open("arch", "s0".into(), Some(root));
        std::thread::sleep(std::time::Duration::from_millis(2));
        let da = s.close(a);
        let total = s.close(root);
        assert!(da > 0.0 && total >= da);
        assert!((s.self_ns(root) - (total - da)).abs() < 1e-6);
        let json = s.to_chrome_trace();
        assert!(json.contains("\"parent\":0") && json.contains("\"cat\":\"arch\""));
    }
}
