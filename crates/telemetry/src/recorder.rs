//! The flight recorder: an always-on, bounded, per-track ring buffer of
//! the most recent span/note events.
//!
//! Full tracing ([`crate::set_enabled`]) is opt-in because it buffers an
//! unbounded event stream; the flight recorder is the complement — it is
//! **always live**, keeps only the last [`FLIGHT_CAPACITY`] events per
//! track, and never allocates on the record path, so a worker that dies
//! can always explain what it was doing. The batch engine snapshots the
//! failing worker's tail into its `JobError`; the CLI prints it and dumps
//! it to `<out>.flight.jsonl`.
//!
//! Cost model (the reason this can be always-on): recording one event is
//! a thread-local track lookup, one atomic fetch-add, one monotonic clock
//! read, and one uncontended per-track mutex — no heap allocation, which
//! the allocation-counting overhead guard in `tests/overhead.rs`
//! enforces. Entries store only `&'static str` names and scalar
//! arguments; string arguments from the full-trace API are dropped here.

use crate::trace::{current_track, now_ns, ArgValue, Event, EventKind};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Events retained per track. A shard run records dozens of events per
/// iteration, so 64 covers the last iteration or two — the part that
/// explains a failure.
pub const FLIGHT_CAPACITY: usize = 64;

/// Tracks with a ring. Track ids above this are not recorded (they would
/// need allocation to store); ids stay small because
/// [`crate::take_trace`]/[`crate::reset`] clear the track table.
const FLIGHT_TRACKS: usize = 64;

/// Flight-recorder sequence numbers are separate from the full-trace
/// sequence so always-on recording never perturbs trace output.
static FLIGHT_SEQ: AtomicU64 = AtomicU64::new(0);

static RINGS: [Mutex<Ring>; FLIGHT_TRACKS] = [const { Mutex::new(Ring::new()) }; FLIGHT_TRACKS];

/// A scalar argument attached to a flight event. Only `Copy` payloads
/// with `'static` keys are representable — the record path may not
/// allocate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FlightArg {
    /// Unsigned integer argument (ids, counts).
    U64(&'static str, u64),
    /// Signed integer argument.
    I64(&'static str, i64),
    /// Floating-point argument (clock periods).
    F64(&'static str, f64),
    /// Static string argument (fault sites).
    Str(&'static str, &'static str),
}

/// One event in a flight-recorder tail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlightEvent {
    /// Flight sequence number (its own counter, not the trace one).
    pub seq: u64,
    /// Track the event was recorded on.
    pub track: u32,
    /// Begin / End / Instant.
    pub kind: EventKind,
    /// Span or note name.
    pub name: &'static str,
    /// Monotonic nanoseconds since the process telemetry epoch.
    pub t_ns: u64,
    /// Optional scalar argument.
    pub arg: Option<FlightArg>,
}

impl FlightEvent {
    const EMPTY: FlightEvent =
        FlightEvent { seq: 0, track: 0, kind: EventKind::Instant, name: "", t_ns: 0, arg: None };

    /// Renders the event as one JSONL object line (no trailing newline),
    /// the same dialect as [`crate::render_jsonl`] event lines.
    pub fn render_jsonl_line(&self, out: &mut String) {
        let arg = self.arg.map(|arg| match arg {
            FlightArg::U64(k, v) => (k, ArgValue::U64(v)),
            FlightArg::I64(k, v) => (k, ArgValue::I64(v)),
            FlightArg::F64(k, v) => (k, ArgValue::F64(v)),
            FlightArg::Str(k, v) => (k, ArgValue::Str(v.to_string())),
        });
        let event = Event {
            seq: self.seq,
            track: self.track,
            kind: self.kind,
            name: self.name,
            t_ns: self.t_ns,
            args: arg.into_iter().collect(),
        };
        crate::export::push_event_line(out, &event);
    }
}

impl fmt::Display for FlightEvent {
    /// Compact single-token form for status tables:
    /// `name(B)`, `name(E)`, `name[k=v]`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            EventKind::Begin => write!(f, "{}(B", self.name)?,
            EventKind::End => write!(f, "{}(E", self.name)?,
            EventKind::Instant => write!(f, "{}(i", self.name)?,
        }
        match self.arg {
            Some(FlightArg::U64(k, v)) => write!(f, " {k}={v})"),
            Some(FlightArg::I64(k, v)) => write!(f, " {k}={v})"),
            Some(FlightArg::F64(k, v)) => write!(f, " {k}={v})"),
            Some(FlightArg::Str(k, v)) => write!(f, " {k}={v})"),
            None => write!(f, ")"),
        }
    }
}

/// Fixed-capacity ring: `entries[(head + i) % CAP]` for `i < len` is the
/// tail in chronological order.
struct Ring {
    entries: [FlightEvent; FLIGHT_CAPACITY],
    head: usize,
    len: usize,
}

impl Ring {
    const fn new() -> Self {
        Ring { entries: [FlightEvent::EMPTY; FLIGHT_CAPACITY], head: 0, len: 0 }
    }

    fn push(&mut self, event: FlightEvent) {
        let pos = (self.head + self.len) % FLIGHT_CAPACITY;
        self.entries[pos] = event;
        if self.len < FLIGHT_CAPACITY {
            self.len += 1;
        } else {
            self.head = (self.head + 1) % FLIGHT_CAPACITY;
        }
    }

    fn tail(&self) -> Vec<FlightEvent> {
        (0..self.len).map(|i| self.entries[(self.head + i) % FLIGHT_CAPACITY]).collect()
    }
}

/// Records one event into `track`'s ring. Never allocates; events on
/// tracks past the fixed ring table are dropped.
pub(crate) fn flight_record(
    track: u32,
    kind: EventKind,
    name: &'static str,
    arg: Option<FlightArg>,
) {
    let slot = track as usize;
    if slot >= FLIGHT_TRACKS {
        return;
    }
    let event = FlightEvent {
        seq: FLIGHT_SEQ.fetch_add(1, Ordering::Relaxed),
        track,
        kind,
        name,
        t_ns: now_ns(),
        arg,
    };
    RINGS[slot].lock().unwrap_or_else(|p| p.into_inner()).push(event);
}

/// Records an instantaneous `fault` event naming an injected-fault site
/// on the calling thread's track. Called by the fault-injection layer at
/// the moment a fault trips, so post-mortem tails name the exact site.
pub fn flight_fault(site: &'static str) {
    flight_record(current_track(), EventKind::Instant, "fault", Some(FlightArg::Str("site", site)));
}

/// Snapshots `track`'s event tail (oldest → newest). Allocates — this is
/// the post-mortem read path, not the record path.
pub fn flight_tail(track: u32) -> Vec<FlightEvent> {
    let slot = track as usize;
    if slot >= FLIGHT_TRACKS {
        return Vec::new();
    }
    RINGS[slot].lock().unwrap_or_else(|p| p.into_inner()).tail()
}

/// Snapshots the calling thread's own event tail — what the batch engine
/// attaches to a `JobError` right after catching a shard failure.
pub fn flight_tail_current() -> Vec<FlightEvent> {
    flight_tail(current_track())
}

/// Clears every ring. Called when the track table is cleared
/// ([`crate::take_trace`] / [`crate::reset`]) so reused track ids cannot
/// inherit a previous run's tail.
pub(crate) fn flight_clear() {
    for ring in &RINGS {
        let mut ring = ring.lock().unwrap_or_else(|p| p.into_inner());
        ring.head = 0;
        ring.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{set_thread_track, span, span_u64};

    #[test]
    fn ring_keeps_only_the_tail() {
        let mut ring = Ring::new();
        for i in 0..(FLIGHT_CAPACITY as u64 + 10) {
            ring.push(FlightEvent { seq: i, ..FlightEvent::EMPTY });
        }
        let tail = ring.tail();
        assert_eq!(tail.len(), FLIGHT_CAPACITY);
        assert_eq!(tail.first().unwrap().seq, 10);
        assert_eq!(tail.last().unwrap().seq, FLIGHT_CAPACITY as u64 + 9);
    }

    #[test]
    fn disabled_tracing_still_records_a_tail() {
        let _guard = crate::trace::TEST_LOCK.lock().unwrap();
        crate::set_enabled(false);
        // Runs on its own named thread so other tests' events (the
        // collector is global) cannot interleave into the ring under test.
        std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let id = set_thread_track("recorder-test");
                    {
                        let _outer = span("flight-outer");
                        let _inner = span_u64("flight-inner", "i", 7);
                    }
                    flight_fault("test/site");
                    let tail = flight_tail(id);
                    let names: Vec<&str> = tail.iter().map(|e| e.name).collect();
                    let outer = names.iter().position(|n| *n == "flight-outer").unwrap();
                    assert_eq!(
                        &names[outer..outer + 5],
                        &["flight-outer", "flight-inner", "flight-inner", "flight-outer", "fault"]
                    );
                    let fault = tail.last().unwrap();
                    assert_eq!(fault.arg, Some(FlightArg::Str("site", "test/site")));
                    assert_eq!(
                        tail[outer + 1].arg,
                        Some(FlightArg::U64("i", 7)),
                        "span argument survives into the ring"
                    );
                })
                .join()
                .unwrap();
        });
    }

    #[test]
    fn jsonl_line_shape() {
        let mut out = String::new();
        FlightEvent {
            seq: 3,
            track: 1,
            kind: EventKind::Instant,
            name: "fault",
            t_ns: 42,
            arg: Some(FlightArg::Str("site", "batch/shard")),
        }
        .render_jsonl_line(&mut out);
        assert_eq!(
            out,
            "{\"kind\":\"i\",\"seq\":3,\"track\":1,\"name\":\"fault\",\"t_ns\":42,\
             \"args\":{\"site\":\"batch/shard\"}}"
        );
    }
}
