//! In-memory spans recorded from the benchmark's own files, around each
//! request to the real binaries and each call into a layer's public
//! function. Kept in a preallocated buffer and written out once, at the end.

use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span in the buffer; `NO_PARENT` for a root.
pub type SpanId = u32;
pub const NO_PARENT: SpanId = u32::MAX;

#[derive(Clone, Debug)]
pub struct Span {
    /// `<layer>.<what>`, e.g. `pec.task_keys` or `client.wait`.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    /// Spans of one request (or one probe call tree) share this.
    pub request: u64,
}

/// The span buffer. A disabled tracer records nothing and costs one branch,
/// which is how the same workload code runs untraced.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool, capacity: usize) -> Self {
        Tracer {
            epoch: Instant::now(),
            enabled,
            spans: Vec::with_capacity(if enabled { capacity } else { 0 }),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; `NO_PARENT` comes back when tracing is off.
    pub fn begin(&mut self, name: &'static str, parent: SpanId, request: u64) -> SpanId {
        if !self.enabled {
            return NO_PARENT;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            request,
        });
        (self.spans.len() - 1) as SpanId
    }

    pub fn end(&mut self, id: SpanId) {
        if id != NO_PARENT {
            self.spans[id as usize].end_ns = self.now_ns();
        }
    }

    /// A second buffer on the same clock, for another thread; merge it back
    /// with [`Tracer::absorb`].
    pub fn fork(&self) -> Tracer {
        Tracer {
            epoch: self.epoch,
            enabled: self.enabled,
            spans: Vec::with_capacity(self.spans.capacity() / 4),
        }
    }

    /// Append a forked buffer's spans, re-basing their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len() as SpanId;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += offset;
            }
            s
        }));
    }

    /// Self time per span (ns): its duration minus the part of that interval
    /// its child spans cover. Children of one parent are sequential here
    /// (each is opened after the previous closed), so covered time is the
    /// sum of the children's durations clipped to the parent.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent == NO_PARENT {
                continue;
            }
            let parent = &self.spans[span.parent as usize];
            let start = span.start_ns.max(parent.start_ns);
            let end = span.end_ns.min(parent.end_ns);
            covered[span.parent as usize] += end.saturating_sub(start);
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
            .collect()
    }

    /// The whole buffer as one JSON document (see README, "Reading trace.json").
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let self_ns = self.self_ns();
        let mut out = String::with_capacity(64 + self.spans.len() * 96);
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"time_unit\":\"ns\",\"spans\":["
        );
        for (i, (span, own)) in self.spans.iter().zip(&self_ns).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = if span.parent == NO_PARENT {
                "null".to_string()
            } else {
                span.parent.to_string()
            };
            let _ = write!(
                out,
                "\n{{\"id\":{i},\"name\":\"{}\",\"start\":{},\"end\":{},\"self\":{own},\"parent\":{parent},\"request\":{}}}",
                span.name, span.start_ns, span.end_ns, span.request
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        let mut t = Tracer::new(false, 16);
        let id = t.begin("a.b", NO_PARENT, 1);
        assert_eq!(id, NO_PARENT);
        t.end(id);
        assert!(t.spans.is_empty());
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Tracer::new(true, 16);
        let root = t.begin("client.request", NO_PARENT, 7);
        let a = t.begin("client.send", root, 7);
        t.end(a);
        let b = t.begin("client.wait", root, 7);
        t.end(b);
        t.end(root);
        // Pin the clock readings so the arithmetic is exact.
        t.spans[0].start_ns = 0;
        t.spans[0].end_ns = 100;
        t.spans[1].start_ns = 10;
        t.spans[1].end_ns = 30;
        t.spans[2].start_ns = 30;
        t.spans[2].end_ns = 90;
        assert_eq!(t.self_ns(), vec![20, 20, 60]);
        let json = t.to_json("w", 3);
        let doc: serde::Value = serde_json::from_str(&json).expect("trace.json parses");
        let serde::Value::Array(spans) = doc.get("spans").expect("spans") else {
            panic!("spans is an array");
        };
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[2].get("parent"), Some(&serde::Value::UInt(0)));
        assert_eq!(spans[0].get("parent"), Some(&serde::Value::Null));
        assert_eq!(spans[0].get("self"), Some(&serde::Value::UInt(20)));
    }
}
