//! Spans of the traced run, kept in memory and written out at the end.
//!
//! A span wraps a call the benchmark makes into a layer — never code inside
//! the program. One span per ladder, one per rung under it, and on the
//! served rungs one per client call under the rung.

use std::time::Instant;

use flash_bench::json::object;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index in the recorder; unique within a run.
    pub id: usize,
    /// The span that caused this one, `None` for a ladder.
    pub parent: Option<usize>,
    /// What ran: a ladder, a rung, or a client verb.
    pub name: String,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the op in its sequence, for per-call spans.
    pub op: Option<u64>,
}

/// The in-memory span store of one traced run.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    /// Switches per-call spans off, to measure what they cost.
    pub per_call: bool,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An empty recorder; time starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            per_call: true,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under `parent`; close it with [`Recorder::close`].
    pub fn open(&mut self, name: &str, parent: Option<usize>) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            op: None,
        });
        id
    }

    /// Ends span `id` now.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Records the finished call `op` of a sequence, which ran from `start`
    /// until now, under `parent`. Returns its duration in nanoseconds.
    pub fn call(&mut self, name: &str, parent: usize, op: u64, start: Instant) -> u64 {
        let end_ns = self.now_ns();
        let start_ns = u64::try_from(start.duration_since(self.origin).as_nanos())
            .unwrap_or(u64::MAX)
            .min(end_ns);
        if self.per_call {
            let id = self.spans.len();
            self.spans.push(Span {
                id,
                parent: Some(parent),
                name: name.to_string(),
                start_ns,
                end_ns,
                op: Some(op),
            });
        }
        end_ns - start_ns
    }

    /// Seconds span `id` lasted.
    pub fn seconds(&self, id: usize) -> f64 {
        let span = &self.spans[id];
        (span.end_ns - span.start_ns) as f64 / 1e9
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Whether every parent names an earlier span that encloses its child.
    pub fn parents_resolve(&self) -> bool {
        self.spans.iter().all(|s| match s.parent {
            None => true,
            Some(p) => {
                p < s.id && self.spans[p].start_ns <= s.start_ns && s.end_ns <= self.spans[p].end_ns
            }
        })
    }

    /// The trace file: `{"seed": .., "spans": [{id, parent, name, start_ns,
    /// end_ns, op}, ..]}`; `parent` and `op` are left out where a span has
    /// none.
    pub fn to_json(&self, seed: u64) -> String {
        object(|o| {
            o.u64("seed", seed).arr("spans", |spans| {
                for s in &self.spans {
                    spans.obj(|o| {
                        o.u64("id", s.id as u64);
                        if let Some(parent) = s.parent {
                            o.u64("parent", parent as u64);
                        }
                        o.str("name", &s.name)
                            .u64("start_ns", s.start_ns)
                            .u64("end_ns", s.end_ns);
                        if let Some(op) = s.op {
                            o.u64("op", op);
                        }
                    });
                }
            });
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_parents_resolve() {
        let mut rec = Recorder::new();
        let ladder = rec.open("ladder", None);
        let rung = rec.open("rung", Some(ladder));
        let start = Instant::now();
        let ns = rec.call("write", rung, 3, start);
        rec.close(rung);
        rec.close(ladder);
        assert!(rec.parents_resolve());
        assert_eq!(rec.spans().len(), 3);
        assert_eq!(rec.spans()[2].op, Some(3));
        assert_eq!(rec.spans()[2].end_ns - rec.spans()[2].start_ns, ns);
        let json = rec.to_json(7);
        assert!(json.starts_with(r#"{"seed":7,"spans":[{"id":0,"name":"ladder","#));
        assert!(json.contains(r#"{"id":2,"parent":1,"name":"write","#));
        assert!(json.ends_with(r#""op":3}]}"#));
    }

    #[test]
    fn per_call_spans_can_be_switched_off() {
        let mut rec = Recorder::new();
        let rung = rec.open("rung", None);
        rec.per_call = false;
        rec.call("read", rung, 0, Instant::now());
        rec.close(rung);
        assert_eq!(rec.spans().len(), 1);
    }
}
