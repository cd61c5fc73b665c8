//! Trace exporters and the JSONL re-importer.
//!
//! Two on-disk formats, both hand-rolled (this crate has zero deps):
//!
//! - **JSON-lines** ([`render_jsonl`]): one event per line, preceded by
//!   one `track` metadata line per registered track. Round-trippable via
//!   [`parse_jsonl`], which is what `isdc-cli trace check` uses.
//! - **Chrome `trace_event`** ([`render_chrome_trace`]): the JSON-array
//!   form understood by [Perfetto](https://ui.perfetto.dev) and
//!   `chrome://tracing`. Tracks map to threads (`tid`), so each batch
//!   worker renders as its own named row.

use crate::json::{self, escape, Value};
use crate::trace::{ArgValue, Event, EventKind, Trace};
use std::fmt::Write as _;

fn push_args(out: &mut String, args: &[(&'static str, ArgValue)]) {
    out.push('{');
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":", escape(k));
        let _ = match v {
            ArgValue::U64(n) => write!(out, "{n}"),
            ArgValue::I64(n) => write!(out, "{n}"),
            // Debug formatting keeps a trailing `.0` on integral floats so
            // a re-read classifies them as floats again (still valid JSON).
            ArgValue::F64(x) if x.is_finite() => write!(out, "{x:?}"),
            ArgValue::F64(_) => write!(out, "null"),
            ArgValue::Str(s) => write!(out, "\"{}\"", escape(s)),
        };
    }
    out.push('}');
}

fn kind_code(kind: EventKind) -> &'static str {
    match kind {
        EventKind::Begin => "B",
        EventKind::End => "E",
        EventKind::Instant => "i",
    }
}

/// Renders a trace as JSON-lines: first one `{"kind":"track",...}` line
/// per registered track, then one line per event in sequence order.
pub fn render_jsonl(trace: &Trace) -> String {
    let mut out = String::new();
    for (id, name) in trace.tracks.iter().enumerate() {
        let _ =
            writeln!(out, "{{\"kind\":\"track\",\"track\":{id},\"name\":\"{}\"}}", escape(name));
    }
    for e in &trace.events {
        push_event_line(&mut out, e);
        out.push('\n');
    }
    out
}

/// One JSONL event object (no newline): the line format shared by
/// [`render_jsonl`] and the flight recorder's dumps.
pub(crate) fn push_event_line(out: &mut String, e: &Event) {
    let _ = write!(
        out,
        "{{\"kind\":\"{}\",\"seq\":{},\"track\":{},\"name\":\"{}\",\"t_ns\":{}",
        kind_code(e.kind),
        e.seq,
        e.track,
        escape(e.name),
        e.t_ns
    );
    if !e.args.is_empty() {
        out.push_str(",\"args\":");
        push_args(out, &e.args);
    }
    out.push('}');
}

/// Renders a trace in Chrome `trace_event` JSON-array format. Load the
/// file in Perfetto or `chrome://tracing`; each track appears as a
/// named thread under one `isdc` process, and span arguments show in
/// the selection panel. Timestamps are microseconds with nanosecond
/// fraction preserved.
pub fn render_chrome_trace(trace: &Trace) -> String {
    let mut out = String::from("[\n");
    out.push_str(
        "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\
         \"args\":{\"name\":\"isdc\"}}",
    );
    for (id, name) in trace.tracks.iter().enumerate() {
        let _ = write!(
            out,
            ",\n{{\"ph\":\"M\",\"pid\":1,\"tid\":{id},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"{}\"}}}}",
            escape(name)
        );
    }
    for e in &trace.events {
        let ts_us = e.t_ns as f64 / 1000.0;
        let _ = write!(
            out,
            ",\n{{\"ph\":\"{}\",\"pid\":1,\"tid\":{},\"ts\":{ts_us:.3},\"name\":\"{}\"",
            kind_code(e.kind),
            e.track,
            escape(e.name)
        );
        // Instant events need a scope; "t" (thread) keeps them on their
        // track's row in Perfetto.
        if e.kind == EventKind::Instant {
            out.push_str(",\"s\":\"t\"");
        }
        if !e.args.is_empty() {
            out.push_str(",\"args\":");
            push_args(&mut out, &e.args);
        }
        out.push('}');
    }
    out.push_str("\n]\n");
    out
}

/// An argument value re-read from a JSONL trace file. JSON numbers do
/// not carry their Rust source type, so integers are normalized: a
/// number that fits `u64` parses as [`OwnedArg::U64`], a negative
/// integer as [`OwnedArg::I64`], anything else as [`OwnedArg::F64`].
/// Non-finite floats render as `null` and re-read as [`OwnedArg::Null`].
#[derive(Debug, Clone, PartialEq)]
pub enum OwnedArg {
    /// Non-negative integer.
    U64(u64),
    /// Negative integer.
    I64(i64),
    /// Fractional, exponent-form, or out-of-integer-range number.
    F64(f64),
    /// String argument.
    Str(String),
    /// JSON `null` (a non-finite float was rendered).
    Null,
}

impl OwnedArg {
    /// Classifies a JSON number from its raw text, mirroring how
    /// [`render_jsonl`] prints the typed [`ArgValue`]s.
    fn classify(raw: &str) -> Option<OwnedArg> {
        if let Ok(n) = raw.parse::<u64>() {
            Some(OwnedArg::U64(n))
        } else if let Ok(n) = raw.parse::<i64>() {
            Some(OwnedArg::I64(n))
        } else {
            raw.parse().ok().map(OwnedArg::F64)
        }
    }
}

/// An event re-read from a JSONL trace file (names and arguments owned).
#[derive(Debug, Clone, PartialEq)]
pub struct OwnedEvent {
    /// Global sequence number.
    pub seq: u64,
    /// Track id.
    pub track: u32,
    /// Begin / End / Instant.
    pub kind: EventKind,
    /// Span name.
    pub name: String,
    /// Nanoseconds since the trace epoch.
    pub t_ns: u64,
    /// Key/value arguments (empty when the line had none).
    pub args: Vec<(String, OwnedArg)>,
}

/// Parses a JSONL trace file produced by [`render_jsonl`] back into
/// events and the track-name table. Returns a line-tagged error for
/// anything malformed.
pub fn parse_jsonl(text: &str) -> Result<(Vec<OwnedEvent>, Vec<String>), String> {
    let mut events = Vec::new();
    let mut tracks: Vec<String> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let err = |msg: String| format!("line {}: {msg}", lineno + 1);
        let value = json::parse(line).map_err(err)?;
        let text_field =
            |key: &str| value[key].as_str().ok_or_else(|| err(format!("missing \"{key}\"")));
        let int_field =
            |key: &str| value[key].as_u64().ok_or_else(|| err(format!("missing \"{key}\"")));
        let kind = match text_field("kind")? {
            "track" => {
                let id = int_field("track")? as usize;
                if tracks.len() <= id {
                    tracks.resize(id + 1, String::new());
                }
                tracks[id] = text_field("name")?.to_string();
                continue;
            }
            "B" => EventKind::Begin,
            "E" => EventKind::End,
            "i" => EventKind::Instant,
            other => return Err(err(format!("unknown event kind {other:?}"))),
        };
        let args = match &value["args"] {
            Value::Null => Vec::new(),
            Value::Object(fields) => fields
                .iter()
                .map(|(key, v)| {
                    let arg = match v {
                        Value::String(s) => Some(OwnedArg::Str(s.clone())),
                        Value::Number(raw) => OwnedArg::classify(raw),
                        Value::Null => Some(OwnedArg::Null),
                        _ => None,
                    };
                    arg.map(|arg| (key.clone(), arg))
                        .ok_or_else(|| err(format!("unsupported arg value for \"{key}\"")))
                })
                .collect::<Result<_, _>>()?,
            _ => return Err(err("\"args\" must be an object".to_string())),
        };
        events.push(OwnedEvent {
            seq: int_field("seq")?,
            track: int_field("track")? as u32,
            kind,
            name: text_field("name")?.to_string(),
            t_ns: int_field("t_ns")?,
            args,
        });
    }
    events.sort_by_key(|e| e.seq);
    Ok((events, tracks))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
        Trace {
            events: vec![
                Event {
                    seq: 0,
                    track: 0,
                    kind: EventKind::Begin,
                    name: "run",
                    t_ns: 1000,
                    args: vec![
                        ("clock_ps", ArgValue::F64(2500.0)),
                        ("design", ArgValue::Str("crc\"32".into())),
                    ],
                },
                Event {
                    seq: 1,
                    track: 0,
                    kind: EventKind::Instant,
                    name: "mark",
                    t_ns: 1500,
                    args: vec![("n", ArgValue::U64(7))],
                },
                Event {
                    seq: 2,
                    track: 0,
                    kind: EventKind::End,
                    name: "run",
                    t_ns: 2000,
                    args: vec![],
                },
            ],
            tracks: vec!["main".into()],
        }
    }

    #[test]
    fn jsonl_round_trips() {
        let trace = sample_trace();
        let text = render_jsonl(&trace);
        let (events, tracks) = parse_jsonl(&text).expect("own output parses");
        assert_eq!(tracks, vec!["main".to_string()]);
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].name, "run");
        assert_eq!(events[0].kind, EventKind::Begin);
        assert_eq!(events[2].kind, EventKind::End);
        assert_eq!(events[1].t_ns, 1500);
        assert_eq!(
            events[0].args,
            vec![
                ("clock_ps".to_string(), OwnedArg::F64(2500.0)),
                ("design".to_string(), OwnedArg::Str("crc\"32".to_string())),
            ]
        );
        assert_eq!(events[1].args, vec![("n".to_string(), OwnedArg::U64(7))]);
        assert!(events[2].args.is_empty());
        crate::validate_events(events.iter().map(|e| (e.track, e.kind, e.name.as_str(), e.t_ns)))
            .expect("round-tripped trace is well-formed");
    }

    #[test]
    fn chrome_trace_is_loadable_json() {
        let trace = sample_trace();
        let text = render_chrome_trace(&trace);
        // Parse with our own JSON parser: array of objects, metadata
        // first, microsecond timestamps.
        let value = json::parse(&text).expect("valid JSON");
        let items = value.as_array().expect("chrome trace must be a JSON array");
        assert_eq!(items.len(), 2 + 3, "process meta + thread meta + 3 events");
        assert_eq!(items[0]["ph"].as_str(), Some("M"));
        let begin = &items[2];
        assert_eq!(begin["ph"].as_str(), Some("B"));
        let ts = begin["ts"].as_f64().expect("ts present");
        assert!((ts - 1.0).abs() < 1e-9, "1000ns = 1.0us");
        assert_ne!(begin["args"], Value::Null);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_jsonl("{\"kind\":\"B\"}").is_err());
        assert!(parse_jsonl("not json").is_err());
        assert!(parse_jsonl("{\"kind\":\"Z\",\"seq\":0}").is_err());
    }
}
