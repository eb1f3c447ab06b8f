//! In-memory spans around the benchmark's own calls into each layer.
//!
//! Spans inside the libraries are a later change; until then the stage
//! budget comes from `replay.rs` and these spans give the share each
//! layer call takes of a pass. A disabled tracer never reads the clock,
//! so timed passes and traced passes run the same code.

use std::time::Instant;

use crate::json::Json;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Unique within a trace file.
    pub id: u32,
    /// Enclosing span, 0 for a root.
    pub parent: u32,
    /// `layer.call`, e.g. `cache.filter_batch`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// The operation (pass or served op) the span belongs to; spans of
    /// one operation share it.
    pub op: u64,
}

/// Handle returned by [`Tracer::enter`] (the span's id, if recording).
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<u32>);

/// A span recorder for one thread.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    id_base: u32,
    spans: Vec<Span>,
    /// Open spans, innermost last: (id, index into `spans`).
    stack: Vec<(u32, usize)>,
    /// Spans this tracer itself opened (absorbed ones do not count).
    opened: u32,
}

impl Tracer {
    /// A recording tracer. `epoch` is shared by every tracer of a run
    /// and `id_base` keeps ids of per-thread tracers disjoint.
    pub fn recording(epoch: Instant, id_base: u32) -> Tracer {
        Tracer {
            enabled: true,
            epoch,
            id_base,
            spans: Vec::new(),
            stack: Vec::new(),
            opened: 0,
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::recording(Instant::now(), 0)
        }
    }

    /// A tracer for another thread of the same run: same epoch and
    /// on/off state, ids offset by `thread << 24` so they stay unique
    /// once [`Tracer::absorb`]ed.
    pub fn for_thread(&self, thread: u32) -> Tracer {
        Tracer {
            enabled: self.enabled,
            ..Tracer::recording(self.epoch, thread << 24)
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, op: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        self.opened += 1;
        let id = self.id_base + self.opened;
        let parent = self.stack.last().map_or(0, |&(id, _)| id);
        self.stack.push((id, self.spans.len()));
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            op,
        });
        Open(Some(id))
    }

    /// Closes a span opened by [`Tracer::enter`], and with it any span
    /// still open inside it (an error path that returned early).
    pub fn exit(&mut self, open: Open) {
        let Open(Some(id)) = open else { return };
        let now = self.epoch.elapsed().as_nanos() as u64;
        while let Some((top, index)) = self.stack.pop() {
            self.spans[index].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Moves another thread's spans into this one, hanging its roots
    /// under the span currently open here.
    pub fn absorb(&mut self, other: Tracer) {
        let parent = self.stack.last().map_or(0, |&(id, _)| id);
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent == 0 {
                s.parent = parent;
            }
            s
        }));
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration in seconds of the spans called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .sum()
    }

    /// Self time per span name: a span's duration minus the part of it
    /// its child spans cover, summed by name, in seconds.
    pub fn self_times(&self) -> Vec<(&'static str, f64)> {
        let mut child_ns = std::collections::BTreeMap::<u32, u64>::new();
        for s in &self.spans {
            *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
        }
        let mut by_name = std::collections::BTreeMap::<&'static str, f64>::new();
        for s in &self.spans {
            let own = (s.end_ns - s.start_ns).saturating_sub(*child_ns.get(&s.id).unwrap_or(&0));
            *by_name.entry(s.name).or_default() += own as f64 / 1e9;
        }
        by_name.into_iter().collect()
    }

    /// The trace file: every span plus the self-time table.
    pub fn to_json(&self) -> Json {
        let spans: Vec<Json> = self
            .spans
            .iter()
            .map(|s| {
                let mut o = Json::obj();
                o.set("id", u64::from(s.id));
                o.set("parent", u64::from(s.parent));
                o.set("name", s.name);
                o.set("start_ns", s.start_ns);
                o.set("end_ns", s.end_ns);
                o.set("op", s.op);
                o
            })
            .collect();
        let mut self_s = Json::obj();
        for (name, secs) in self.self_times() {
            self_s.set(name, secs);
        }
        let mut o = Json::obj();
        o.set("self_time_s", self_s);
        o.set("spans", spans);
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_gives_parents_and_self_time() {
        let mut t = Tracer::recording(Instant::now(), 100);
        let root = t.enter("a.root", 7);
        let child = t.enter("b.child", 7);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit(child);
        t.exit(root);
        let spans = t.spans();
        assert_eq!((spans[0].id, spans[0].parent), (101, 0));
        assert_eq!((spans[1].id, spans[1].parent), (102, 101));
        let own: std::collections::BTreeMap<_, _> = t.self_times().into_iter().collect();
        assert!(own["b.child"] >= 0.002);
        assert!(own["a.root"] < own["b.child"]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        let s = t.enter("x.y", 0);
        t.exit(s);
        assert!(t.spans().is_empty());
    }
}
