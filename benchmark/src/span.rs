//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A span is (name, start, end, parent, iteration id). The recorder keeps
//! them in a `Vec` and nothing is written until the run ends. A layer's
//! *self time* is its span's duration minus the time its direct children
//! cover, so `iteration` self time is the loop's own bookkeeping and the
//! self times of one iteration sum to its duration.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same recording.
    pub parent: Option<u32>,
    /// Which round trip the span belongs to.
    pub iter: u32,
}

/// Records spans when on; every call is one predictable branch when off,
/// so the untraced and traced passes run the same driver code.
pub struct Recorder {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    iter: u32,
}

impl Recorder {
    pub fn new(on: bool) -> Self {
        Recorder {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            iter: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    #[inline]
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        let parent = self.open.last().copied();
        self.open.push(self.spans.len() as u32);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            iter: self.iter,
        });
    }

    #[inline]
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        let idx = self.open.pop().expect("exit without enter");
        self.spans[idx as usize].end_ns = end_ns;
    }

    /// Later spans belong to round trip `iter`.
    #[inline]
    pub fn set_iter(&mut self, iter: u32) {
        self.iter = iter;
    }

    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "recording ended inside a span");
        self.spans
    }
}

#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Per span name: how many, their summed duration, their summed self time.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for (s, &children) in spans.iter().zip(&covered) {
        let dur = s.end_ns - s.start_ns;
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += dur;
        e.self_ns += dur.saturating_sub(children);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            iter: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // iteration [0,100) > send [10,30), poll [30,70) > inner [40,50), recv [70,90)
        let spans = vec![
            span("iteration", 0, 100, None),
            span("send", 10, 30, Some(0)),
            span("poll", 30, 70, Some(0)),
            span("inner", 40, 50, Some(2)),
            span("recv", 70, 90, Some(0)),
        ];
        let st = self_times(&spans);
        assert_eq!(
            st["iteration"],
            SelfTime {
                count: 1,
                total_ns: 100,
                self_ns: 20
            }
        );
        assert_eq!(st["send"].self_ns, 20);
        assert_eq!(
            st["poll"],
            SelfTime {
                count: 1,
                total_ns: 40,
                self_ns: 30
            }
        );
        assert_eq!(st["inner"].self_ns, 10);
        // Self times partition the root span.
        let total: u64 = st.values().map(|s| s.self_ns).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn recorder_nests_and_tags_iterations() {
        let mut r = Recorder::new(true);
        r.set_iter(7);
        r.enter("iteration");
        r.enter("send");
        r.exit();
        r.exit();
        let spans = r.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].iter, 7);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn recorder_off_records_nothing() {
        let mut r = Recorder::new(false);
        r.enter("iteration");
        r.exit();
        assert!(r.into_spans().is_empty());
    }
}
