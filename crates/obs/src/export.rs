//! Trace exporters: chrome://tracing JSON and a human-readable timeline.
//!
//! The chrome exporter emits the [Trace Event Format]'s JSON array form:
//! one `"X"` (complete) event per recorded span with `ts`/`dur` in
//! microseconds, one `"i"` (instant) event per marker, plus `"M"` metadata
//! events naming each process and thread so runs, multiplexed or not, and
//! shrink searches appear as labelled swim lanes.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use std::collections::BTreeSet;
use std::fmt::Write as _;

use crate::trace::{AttrValue, TraceLog};

/// Escapes a string for embedding in a JSON string literal (same dialect as
/// the bench harness's hand-rolled writer).
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn write_attrs(out: &mut String, attrs: &[(&'static str, AttrValue)]) {
    out.push('{');
    for (i, (key, value)) in attrs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":", json_escape(key));
        match value {
            AttrValue::U64(v) => {
                let _ = write!(out, "{v}");
            }
            AttrValue::F64(v) => {
                if v.is_finite() {
                    let _ = write!(out, "{v}");
                } else {
                    out.push_str("null");
                }
            }
            AttrValue::Str(v) => {
                let _ = write!(out, "\"{}\"", json_escape(v));
            }
            AttrValue::Bool(v) => {
                let _ = write!(out, "{v}");
            }
        }
    }
    out.push('}');
}

/// Renders the trace in chrome://tracing's JSON array format. Load the
/// output in `chrome://tracing` or <https://ui.perfetto.dev>.
#[must_use]
pub fn chrome_trace_json(log: &TraceLog) -> String {
    let mut out = String::new();
    out.push_str("[\n");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if first {
            first = false;
        } else {
            out.push_str(",\n");
        }
    };
    // Metadata: name each process and thread. Sort indices keep swim lanes
    // in (run, stage) order regardless of close-order interleaving.
    let pids: BTreeSet<u32> = log.tracks.iter().map(|t| t.pid).collect();
    for pid in pids {
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"name\":\"process_name\",\
             \"args\":{{\"name\":\"quickstrom pid {pid}\"}}}}"
        );
    }
    for track in &log.tracks {
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"pid\":{},\"tid\":{},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"{}\"}}}}",
            track.pid,
            track.tid,
            json_escape(&track.name)
        );
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"pid\":{},\"tid\":{},\"name\":\"thread_sort_index\",\
             \"args\":{{\"sort_index\":{}}}}}",
            track.pid, track.tid, track.tid
        );
    }
    for track in &log.tracks {
        for ev in &track.events {
            sep(&mut out);
            if ev.instant {
                let _ = write!(
                    out,
                    "{{\"ph\":\"i\",\"s\":\"t\",\"pid\":{},\"tid\":{},\"ts\":{},\"name\":\"{}\",\"args\":",
                    track.pid,
                    track.tid,
                    ev.start_us,
                    ev.kind.as_str()
                );
            } else {
                let _ = write!(
                    out,
                    "{{\"ph\":\"X\",\"pid\":{},\"tid\":{},\"ts\":{},\"dur\":{},\"name\":\"{}\",\"args\":",
                    track.pid,
                    track.tid,
                    ev.start_us,
                    ev.dur_us,
                    ev.kind.as_str()
                );
            }
            write_attrs(&mut out, &ev.attrs);
            out.push('}');
        }
    }
    out.push_str("\n]\n");
    out
}

/// Renders a compact human-readable timeline: one section per track, one
/// line per event, indented by logical nesting depth.
#[must_use]
pub fn render_timeline(log: &TraceLog) -> String {
    let mut out = String::new();
    for track in &log.tracks {
        let _ = writeln!(
            out,
            "== {} (pid {}, tid {})",
            track.name, track.pid, track.tid
        );
        if track.dropped > 0 {
            let _ = writeln!(out, "   ({} earlier events dropped)", track.dropped);
        }
        // Events are stored in close order; re-derive nesting depth from the
        // logical clock the same way check_well_formed does.
        let mut ordered: Vec<&crate::trace::TraceEvent> = track.events.iter().collect();
        ordered.sort_by_key(|e| e.seq_open);
        let mut stack: Vec<u64> = Vec::new();
        for ev in ordered {
            while let Some(&close) = stack.last() {
                if close < ev.seq_open {
                    stack.pop();
                } else {
                    break;
                }
            }
            let indent = "  ".repeat(stack.len());
            if ev.instant {
                let _ = writeln!(
                    out,
                    "  {indent}@{:>9}µs  · {}{}",
                    ev.start_us,
                    ev.kind.as_str(),
                    render_attrs(&ev.attrs)
                );
            } else {
                let _ = writeln!(
                    out,
                    "  {indent}@{:>9}µs  {:>9}µs  {}{}",
                    ev.start_us,
                    ev.dur_us,
                    ev.kind.as_str(),
                    render_attrs(&ev.attrs)
                );
                stack.push(ev.seq_close);
            }
        }
    }
    out
}

fn render_attrs(attrs: &[(&'static str, AttrValue)]) -> String {
    if attrs.is_empty() {
        return String::new();
    }
    let mut out = String::from("  [");
    for (i, (key, value)) in attrs.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        match value {
            AttrValue::U64(v) => {
                let _ = write!(out, "{key}={v}");
            }
            AttrValue::F64(v) => {
                let _ = write!(out, "{key}={v:.6}");
            }
            AttrValue::Str(v) => {
                let _ = write!(out, "{key}={v}");
            }
            AttrValue::Bool(v) => {
                let _ = write!(out, "{key}={v}");
            }
        }
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{SpanKind, TraceSink};
    use std::time::Instant;

    fn sample_log() -> TraceLog {
        let origin = Instant::now();
        let mut first = TraceSink::enabled(origin, 1, 0, "run 0".into(), 256);
        let send = first.open(SpanKind::Send);
        first.close_with(send, |a| a.push(("bytes", AttrValue::U64(120))));
        let mut second = TraceSink::enabled(origin, 1, 1, "run 1".into(), 256);
        let step = second.open(SpanKind::Step);
        second.close(step);
        second.instant(SpanKind::Verdict, |a| {
            a.push(("value", AttrValue::Bool(false)));
            a.push(("note", AttrValue::Str("quote\"me".into())));
        });
        TraceLog {
            tracks: vec![first.finish().unwrap(), second.finish().unwrap()],
        }
    }

    #[test]
    fn chrome_json_is_balanced_and_named() {
        let json = chrome_trace_json(&sample_log());
        // Cheap structural validation without a JSON parser: balanced
        // brackets outside strings and the expected metadata present.
        let mut depth = 0i64;
        let mut in_str = false;
        let mut escaped = false;
        for c in json.chars() {
            if escaped {
                escaped = false;
                continue;
            }
            match c {
                '\\' if in_str => escaped = true,
                '"' => in_str = !in_str,
                '[' | '{' if !in_str => depth += 1,
                ']' | '}' if !in_str => depth -= 1,
                _ => {}
            }
        }
        assert_eq!(depth, 0, "unbalanced JSON");
        assert!(!in_str);
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("run 1"));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("quote\\\"me"));
    }

    #[test]
    fn timeline_mentions_all_tracks() {
        let text = render_timeline(&sample_log());
        assert!(text.contains("== run 0"));
        assert!(text.contains("== run 1"));
        assert!(text.contains("verdict"));
        assert!(text.contains("value=false"));
    }

    #[test]
    fn escape_handles_controls() {
        assert_eq!(json_escape("a\"b\\c\nd\u{1}"), "a\\\"b\\\\c\\nd\\u0001");
    }
}
