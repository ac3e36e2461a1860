//! Host-time spans recorded by the benchmark around each public call
//! it makes into a simulator layer.
//!
//! Spans live in memory until the run ends; [`Tracer::chrome_json`]
//! then renders them as Chrome trace-event JSON (loadable in
//! Perfetto), and [`Tracer::self_times`] gives each span name's self
//! time: its duration minus the part its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A single-threaded span recorder; spans nest strictly.
pub struct Tracer {
    workload: &'static str,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(workload: &'static str) -> Self {
        Tracer {
            workload,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, child of the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of every span named `name`, nanoseconds.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum()
    }

    /// Self time per span name, nanoseconds, name-ordered.
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.duration_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(covered) {
            *out.entry(s.name).or_insert(0) += s.duration_ns().saturating_sub(c);
        }
        out
    }

    /// Chrome trace-event JSON: one complete (`"ph": "X"`) event per
    /// span, microsecond timestamps, the workload and parent in `args`.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\
                 \"workload\":\"{}\"}}}}{}\n",
                s.name,
                s.start_ns as f64 / 1e3,
                s.duration_ns() as f64 / 1e3,
                self.workload,
                if i + 1 < self.spans.len() { "," } else { "" },
            ));
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed(spans: Vec<Span>) -> Tracer {
        Tracer {
            workload: "test",
            origin: Instant::now(),
            spans,
            open: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_children_only() {
        let t = fixed(vec![
            Span {
                name: "run",
                start_ns: 0,
                end_ns: 100,
                parent: None,
            },
            Span {
                name: "a",
                start_ns: 10,
                end_ns: 40,
                parent: Some(0),
            },
            Span {
                name: "b",
                start_ns: 50,
                end_ns: 90,
                parent: Some(0),
            },
            Span {
                name: "leaf",
                start_ns: 60,
                end_ns: 70,
                parent: Some(2),
            },
        ]);
        let st = t.self_times();
        assert_eq!(st["run"], 30);
        assert_eq!(st["a"], 30);
        assert_eq!(st["b"], 30);
        assert_eq!(st["leaf"], 10);
        assert_eq!(
            st.values().sum::<u64>(),
            100,
            "self times partition the root"
        );
    }

    #[test]
    fn spans_nest_and_close() {
        let mut t = Tracer::new("test");
        let v = t.span("outer", |t| t.span("inner", |_| 7));
        assert_eq!(v, 7);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let json = t.chrome_json();
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
    }
}
