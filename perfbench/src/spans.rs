//! In-memory spans for the traced run.
//!
//! A span is one call across a layer boundary, recorded by the
//! benchmark around its own calls into the program. Spans nest on one
//! thread, so a span's self time is its duration minus the durations of
//! its direct children.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer boundary, e.g. `cluster.advance`.
    pub name: &'static str,
    /// The workload run (one scenario run or one script) it belongs to.
    pub run: u32,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// Start and end, nanoseconds since the recorder was created.
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// Per-boundary totals derived from the spans.
#[derive(Clone, Debug, Default)]
pub struct Layer {
    pub calls: u64,
    pub self_ns: u64,
    /// Each call's full duration, in recording order.
    pub durations: Vec<u64>,
}

/// The recorder: every span of the process, kept until written out.
pub struct Spans {
    epoch: Instant,
    run: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            epoch: Instant::now(),
            run: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Spans {
    /// Start a new workload run: later spans carry its id.
    pub fn begin_run(&mut self) -> u32 {
        self.run += 1;
        self.run
    }

    pub fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            run: self.run,
            parent: self.open.last().copied(),
            start: self.now(),
            end: 0,
        });
        self.open.push(id);
        id
    }

    pub fn close(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close in the order they opened");
        self.spans[id].end = self.now();
    }

    /// Run `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Calls, self time and durations per boundary name.
    pub fn layers(&self) -> BTreeMap<&'static str, Layer> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration();
            }
        }
        let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let layer = out.entry(s.name).or_default();
            layer.calls += 1;
            layer.self_ns += s.duration().saturating_sub(children);
            layer.durations.push(s.duration());
        }
        out
    }

    /// Chrome trace-event JSON (complete events; open it in Perfetto).
    /// Each event's args carry its span id, parent id and run id.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 112 + 32);
        out.push_str("{\"traceEvents\":[");
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":{},\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{id},\"parent\":{parent},\"run\":{}}}}}",
                s.name,
                s.run,
                s.start as f64 / 1e3,
                s.duration() as f64 / 1e3,
                s.run,
            );
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut spans = Spans::default();
        spans.begin_run();
        let outer = spans.open("outer");
        let inner = spans.open("inner");
        let leaf = spans.open("leaf");
        std::thread::sleep(std::time::Duration::from_millis(2));
        spans.close(leaf);
        spans.close(inner);
        spans.close(outer);
        let layers = spans.layers();
        let total = spans.spans[outer].duration();
        let sum: u64 = layers.values().map(|l| l.self_ns).sum();
        assert_eq!(sum, total, "self times partition the root span");
        assert!(layers["leaf"].self_ns >= 2_000_000);
        assert!(spans.to_chrome_json().contains("\"parent\":1"));
    }
}
