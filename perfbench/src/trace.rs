//! In-memory spans recorded from the benchmark's side of each layer
//! boundary, and the attribution of a pass's wall clock to layers.
//!
//! A span opened on the owner thread becomes the parent of spans opened
//! anywhere else while it is open, so oracle calls on evaluation worker
//! threads hang under the stage that spawned them.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the recorder's epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// The (design, clock) point the span belongs to; 0 outside any point.
    pub point: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

pub struct Recorder {
    epoch: Instant,
    owner: ThreadId,
    next_id: AtomicU64,
    /// The innermost span open on the owner thread (0 = none).
    ambient: AtomicU64,
    point: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

impl Recorder {
    /// A recorder whose owner thread is the caller.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            owner: std::thread::current().id(),
            next_id: AtomicU64::new(1),
            ambient: AtomicU64::new(0),
            point: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Tags spans opened from now on with `point`.
    pub fn set_point(&self, point: u64) {
        self.point.store(point, Ordering::Relaxed);
    }

    /// Opens a span that closes when the guard drops.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let on_owner = std::thread::current().id() == self.owner;
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent =
                open.last().copied().unwrap_or_else(|| self.ambient.load(Ordering::SeqCst));
            open.push(id);
            parent
        });
        if on_owner {
            self.ambient.store(id, Ordering::SeqCst);
        }
        SpanGuard {
            rec: self,
            id,
            parent,
            name,
            point: self.point.load(Ordering::Relaxed),
            on_owner,
            start: self.now(),
        }
    }

    /// Takes every span closed so far, in closing order.
    pub fn drain(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("no span holder panics"))
    }
}

pub struct SpanGuard<'r> {
    rec: &'r Recorder,
    id: u64,
    parent: u64,
    name: &'static str,
    point: u64,
    on_owner: bool,
    start: u64,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end = self.rec.now();
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            if let Some(at) = open.iter().rposition(|&id| id == self.id) {
                open.remove(at);
            }
        });
        if self.on_owner {
            self.rec.ambient.store(self.parent, Ordering::SeqCst);
        }
        let span = Span {
            id: self.id,
            parent: self.parent,
            name: self.name,
            start: self.start,
            end,
            point: self.point,
        };
        // Drop must not panic: a poisoned buffer only loses this span.
        if let Ok(mut spans) = self.rec.spans.lock() {
            spans.push(span);
        }
    }
}

/// Total length of the union of `intervals`.
fn union_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    total + current.map_or(0, |(s, e)| e - s)
}

/// A span's self time: its duration minus the part of its interval that its
/// children cover. Children may overlap each other (parallel workers); the
/// covered part counts once.
pub fn self_ns(parent: &Span, children: &[&Span]) -> u64 {
    let covered = union_ns(
        children
            .iter()
            .map(|c| (c.start.max(parent.start), c.end.min(parent.end)))
            .filter(|(s, e)| s < e)
            .collect(),
    );
    parent.ns() - covered
}

/// Wall-clock self time per span name. Every instant covered by some span
/// goes to the deepest span open at that instant, so the values sum to the
/// union of all spans — for a pass wrapped in one root span, exactly the
/// pass's wall clock. Concurrent spans at equal depth (parallel oracle
/// calls) share the instant once. Without concurrency this equals
/// [`self_ns`] summed per name.
pub fn attribute(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let by_id: BTreeMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let depth = |s: &Span| {
        let mut d = 0usize;
        let mut parent = s.parent;
        while let Some(p) = by_id.get(&parent) {
            d += 1;
            parent = p.parent;
        }
        d
    };
    // (time, is_open, depth, name); closes sort before opens at one instant.
    let mut events: Vec<(u64, bool, usize, &'static str)> = Vec::with_capacity(2 * spans.len());
    for s in spans {
        let d = depth(s);
        events.push((s.start, true, d, s.name));
        events.push((s.end, false, d, s.name));
    }
    events.sort_unstable();
    let mut open: BTreeMap<(usize, &'static str), usize> = BTreeMap::new();
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut last = 0u64;
    for (t, is_open, d, name) in events {
        if let Some((&(_, deepest), _)) = open.iter().next_back() {
            *out.entry(deepest).or_default() += t - last;
        }
        last = t;
        let count = open.entry((d, name)).or_default();
        if is_open {
            *count += 1;
        } else {
            *count -= 1;
            if *count == 0 {
                open.remove(&(d, name));
            }
        }
    }
    out
}

/// Wall time attributed to no layer: the pass's wall clock minus the self
/// time of every layer (names outside `roots`), saturating at zero.
pub fn unattributed_ns(
    wall_ns: u64,
    self_times: &BTreeMap<&'static str, u64>,
    roots: &[&str],
) -> u64 {
    let attributed: u64 =
        self_times.iter().filter(|(name, _)| !roots.contains(name)).map(|(_, ns)| ns).sum();
    wall_ns.saturating_sub(attributed)
}

/// Renders spans as a JSON array, one object per line.
pub fn to_json(spans: &[Span]) -> String {
    let rows: Vec<String> = spans
        .iter()
        .map(|s| {
            format!(
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"point\":{}}}",
                s.id, s.parent, s.name, s.start, s.end, s.point
            )
        })
        .collect();
    format!("[\n{}\n]\n", rows.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start: u64, end: u64) -> Span {
        Span { id, parent, name, start, end, point: 0 }
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let evaluate = span(1, 0, "evaluate", 0, 100);
        // Two workers: [10, 50) and [30, 70) overlap on [30, 50).
        let a = span(2, 1, "oracle", 10, 50);
        let b = span(3, 1, "oracle", 30, 70);
        // A child poking past the parent's end counts only inside it.
        let c = span(4, 1, "oracle", 90, 120);
        assert_eq!(self_ns(&evaluate, &[&a, &b]), 100 - 60);
        assert_eq!(self_ns(&evaluate, &[&a, &b, &c]), 100 - 70);
        assert_eq!(self_ns(&evaluate, &[]), 100);
    }

    #[test]
    fn attribution_gives_each_instant_to_the_deepest_span() {
        let spans = vec![
            span(1, 0, "pass", 0, 1000),
            span(2, 1, "point", 10, 990),
            span(3, 2, "evaluate", 100, 400),
            span(4, 3, "oracle", 120, 300),
            span(5, 3, "oracle", 200, 380),
            span(6, 4, "synth", 150, 160),
            span(7, 2, "solve", 400, 900),
        ];
        let got = attribute(&spans);
        assert_eq!(got["synth"], 10);
        assert_eq!(got["oracle"], 260 - 10);
        assert_eq!(got["evaluate"], 300 - 260);
        assert_eq!(got["solve"], 500);
        assert_eq!(got["point"], 980 - 300 - 500);
        assert_eq!(got["pass"], 20);
        assert_eq!(got.values().sum::<u64>(), 1000);
        // Without concurrency the sweep agrees with per-span self time.
        assert_eq!(got["solve"], self_ns(&spans[6], &[]));
    }

    #[test]
    fn unattributed_is_wall_minus_layer_self_times() {
        let spans = vec![
            span(1, 0, "pass", 0, 1000),
            span(2, 1, "point", 0, 900),
            span(3, 2, "extract", 0, 300),
            span(4, 2, "solve", 300, 850),
        ];
        let selfs = attribute(&spans);
        let unattributed = unattributed_ns(1000, &selfs, &["pass", "point"]);
        assert_eq!(unattributed, 50 + 100);
        let layers: u64 = ["extract", "solve"].iter().map(|n| selfs[n]).sum();
        assert_eq!(layers + unattributed, 1000);
        // A wall clock shorter than the layers never underflows.
        assert_eq!(unattributed_ns(500, &selfs, &["pass", "point"]), 0);
    }

    #[test]
    fn worker_spans_hang_under_the_owner_threads_open_span() {
        let rec = Recorder::new();
        {
            let _evaluate = rec.span("evaluate");
            std::thread::scope(|s| {
                s.spawn(|| {
                    let _oracle = rec.span("oracle");
                    let _synth = rec.span("synth");
                });
            });
        }
        let spans = rec.drain();
        let find = |n: &str| spans.iter().find(|s| s.name == n).expect("span recorded");
        assert_eq!(find("oracle").parent, find("evaluate").id);
        assert_eq!(find("synth").parent, find("oracle").id);
        assert_eq!(find("evaluate").parent, 0);
    }
}
