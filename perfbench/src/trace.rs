//! In-memory spans recorded around the benchmark's calls into each
//! layer's public functions, written out when the run ends.
//!
//! A span has a name (the layer call, e.g. `parser.parse`), a start and
//! an end relative to the run's trace origin, the span that caused it,
//! and an operation id shared by every span of one benchmark operation.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Handle to an open span; pass it to [`Tracer::end`].
#[must_use]
pub struct Open(Option<u32>);

impl Open {
    /// The span's id, to name it as a parent (`None` when tracing is off).
    pub fn id(&self) -> Option<u32> {
        self.0
    }
}

/// Span recorder. With tracing off every call is a no-op, so the same
/// workload code serves the untraced and the traced run.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    /// Distinguishes ids of recorders that share an origin (one per
    /// load-generator thread).
    id_base: u32,
}

impl Tracer {
    pub fn new(on: bool, origin: Instant) -> Self {
        Tracer {
            on,
            origin,
            spans: Vec::new(),
            id_base: 0,
        }
    }

    /// A recorder for another thread: same origin and switch, ids in a
    /// disjoint range.
    pub fn fork(&self, index: u32) -> Tracer {
        Tracer {
            on: self.on,
            origin: self.origin,
            spans: Vec::new(),
            id_base: (index + 1) << 24,
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Switches recording on or off (traced and untraced operations can
    /// interleave in one run).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    pub fn start(&mut self, name: &'static str, op: u64, parent: Option<u32>) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.id_base + self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            op,
            name,
            start_ns: now,
            end_ns: now,
        });
        Open(Some(id))
    }

    pub fn end(&mut self, open: Open) {
        if let Some(id) = open.0 {
            let now = self.now_ns();
            let idx = (id - self.id_base) as usize;
            self.spans[idx].end_ns = now;
        }
    }

    /// Records an already-measured interval (e.g. a server-reported
    /// duration placed inside a client round trip).
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<u32>,
        start_ns: u64,
        end_ns: u64,
    ) {
        if self.on {
            let id = self.id_base + self.spans.len() as u32;
            self.spans.push(Span {
                id,
                parent,
                op,
                name,
                start_ns,
                end_ns,
            });
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Folds another recorder's spans into this one.
    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                f,
                r#"{{"id":{},"parent":{},"op":{},"name":"{}","start_ns":{},"end_ns":{}}}"#,
                s.id, parent, s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        f.flush()
    }

    /// Self time of every span, in nanoseconds, grouped by span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, Vec<u64>> {
        let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        for s in &self.spans {
            let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
            out.entry(s.name)
                .or_default()
                .push(self_time((s.start_ns, s.end_ns), kids));
        }
        out
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its children cover. Overlapping children (parallel work) count once;
/// child time outside the parent's interval does not count.
pub fn self_time(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (ps, pe) = parent;
    let mut iv: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(ps), e.min(pe)))
        .filter(|(s, e)| s < e)
        .collect();
    iv.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    (pe - ps).saturating_sub(covered)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_without_children_is_the_duration() {
        assert_eq!(self_time((10, 50), &[]), 40);
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        assert_eq!(self_time((0, 100), &[(10, 20), (50, 80)]), 60);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Two parallel children covering 10..40 and 30..60: 50 covered.
        assert_eq!(self_time((0, 100), &[(30, 60), (10, 40)]), 50);
        // A child nested inside another adds nothing.
        assert_eq!(self_time((0, 100), &[(10, 90), (20, 30)]), 20);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        assert_eq!(self_time((10, 20), &[(0, 15), (18, 40)]), 3);
        assert_eq!(self_time((10, 20), &[(30, 40)]), 10);
        assert_eq!(self_time((10, 20), &[(0, 40)]), 0);
    }

    #[test]
    fn tracer_groups_self_times_by_name() {
        let mut t = Tracer::new(true, Instant::now());
        t.record("op", 1, None, 0, 100);
        t.record("parse", 1, Some(0), 0, 30);
        t.record("exec", 1, Some(0), 40, 90);
        let st = t.self_times();
        assert_eq!(st["op"], vec![20]);
        assert_eq!(st["parse"], vec![30]);
        assert_eq!(st["exec"], vec![50]);
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let s = t.start("x", 0, None);
        assert!(s.id().is_none());
        t.end(s);
        t.record("y", 0, None, 0, 1);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn forked_recorders_use_disjoint_ids() {
        let origin = Instant::now();
        let mut a = Tracer::new(true, origin);
        let mut b = a.fork(0);
        let sa = a.start("a", 0, None);
        let sb = b.start("b", 0, None);
        assert_ne!(sa.id(), sb.id());
        a.end(sa);
        b.end(sb);
        a.absorb(b);
        assert_eq!(a.spans().len(), 2);
    }
}
