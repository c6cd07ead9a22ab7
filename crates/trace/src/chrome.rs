//! Chrome Trace Event Format export.
//!
//! Produces a JSON object with a `traceEvents` array loadable by
//! `chrome://tracing` and by Perfetto's legacy-trace importer. We use:
//!
//! * `M` metadata events to name the process and one thread per worker,
//! * `B`/`E` duration events for the long-lived worker phases — special
//!   sections (`SpecialBegin`/`SpecialEnd`), stolen-continuation
//!   execution (`Fsm idle→slow` / `slow→idle`) and sync waits
//!   (`SyncSuspend`/`SyncResume`) — which render as nested bars,
//! * `i` instant events (thread scope) for everything point-like: deque
//!   traffic, steal probes, FSM version switches, `need_task` signalling
//!   and the workspace handshake.
//!
//! Timestamps are microseconds (the format's unit) as fractional values,
//! so nanosecond resolution survives. The writer is hand-rolled — every
//! emitted string is a compile-time literal or a number, so no JSON
//! escaping is needed and the exporter stays dependency-free.

use crate::collector::Trace;
use crate::event::{EventKind, FsmState};
use std::fmt::Write as _;

fn us(ts: u64) -> f64 {
    ts as f64 / 1000.0
}

/// Append one `"key":value` argument pair.
fn push_arg(out: &mut String, key: &str, value: u64) {
    let _ = write!(out, "\"{key}\":{value}");
}

/// Render `trace` as a Chrome Trace Event Format JSON string.
pub fn to_chrome_json(trace: &Trace) -> String {
    let mut out = String::with_capacity(trace.len() * 96 + 1024);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    out.push_str(
        "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\
         \"args\":{\"name\":\"adaptivetc\"}}",
    );
    for w in &trace.workers {
        let _ = write!(
            out,
            ",\n{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"worker {id}\"}}}}",
            tid = w.worker,
            id = w.worker
        );
    }
    for w in &trace.workers {
        let tid = w.worker;
        for ev in &w.events {
            // (phase, name, optional args) per event.
            let (ph, name): (&str, &str) = match ev.kind {
                EventKind::SpecialBegin { .. } => ("B", "special section"),
                EventKind::SpecialEnd => ("E", "special section"),
                EventKind::SyncSuspend => ("B", "sync wait"),
                EventKind::SyncResume => ("E", "sync wait"),
                EventKind::Fsm {
                    from: FsmState::Idle,
                    to: FsmState::Slow,
                    ..
                } => ("B", "slow (stolen)"),
                EventKind::Fsm {
                    from: FsmState::Slow,
                    to: FsmState::Idle,
                    ..
                } => ("E", "slow (stolen)"),
                other => ("i", other.name()),
            };
            let _ = write!(
                out,
                ",\n{{\"ph\":\"{ph}\",\"pid\":1,\"tid\":{tid},\"ts\":{ts},\"name\":\"{name}\"",
                ts = us(ev.ts)
            );
            if ph == "i" {
                out.push_str(",\"s\":\"t\"");
            }
            // Arguments for the kinds that carry them.
            let mut args = String::new();
            match ev.kind {
                EventKind::Spawn { depth }
                | EventKind::FakeTask { depth }
                | EventKind::SpecialBegin { depth } => push_arg(&mut args, "depth", depth as u64),
                EventKind::StealAttempt { victim }
                | EventKind::StealOk { victim }
                | EventKind::StealEmpty { victim }
                | EventKind::NeedTaskSignal { victim } => {
                    push_arg(&mut args, "victim", victim as u64)
                }
                EventKind::SpecialConsume { reclaimed } => {
                    push_arg(&mut args, "reclaimed", reclaimed as u64)
                }
                EventKind::Fsm { from, to, depth } => {
                    let _ = write!(
                        args,
                        "\"from\":\"{}\",\"to\":\"{}\",\"depth\":{}",
                        from.name(),
                        to.name(),
                        depth
                    );
                }
                _ => {}
            }
            if !args.is_empty() {
                let _ = write!(out, ",\"args\":{{{args}}}");
            }
            out.push('}');
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::TraceCollector;
    use crate::event::{EventKind, FsmState};

    fn sample_trace() -> Trace {
        let c = TraceCollector::new(2, 256);
        c.emit_at(0, 100, EventKind::Spawn { depth: 1 });
        c.emit_at(0, 200, EventKind::Push);
        c.emit_at(
            0,
            300,
            EventKind::Fsm {
                from: FsmState::Fast,
                to: FsmState::Check,
                depth: 3,
            },
        );
        c.emit_at(0, 400, EventKind::SpecialBegin { depth: 3 });
        c.emit_at(0, 900, EventKind::SpecialEnd);
        c.emit_at(1, 150, EventKind::StealAttempt { victim: 0 });
        c.emit_at(1, 250, EventKind::StealOk { victim: 0 });
        c.emit_at(
            1,
            260,
            EventKind::Fsm {
                from: FsmState::Idle,
                to: FsmState::Slow,
                depth: 0,
            },
        );
        c.emit_at(
            1,
            800,
            EventKind::Fsm {
                from: FsmState::Slow,
                to: FsmState::Idle,
                depth: 0,
            },
        );
        c.finish()
    }

    /// A minimal structural JSON scan: balanced braces/brackets outside
    /// strings, and strings are all terminated. Enough to catch writer
    /// bugs without a JSON dependency.
    fn check_json_shape(s: &str) {
        let mut depth_obj = 0i64;
        let mut depth_arr = 0i64;
        let mut in_str = false;
        let mut prev = ' ';
        for ch in s.chars() {
            if in_str {
                if ch == '"' && prev != '\\' {
                    in_str = false;
                }
            } else {
                match ch {
                    '"' => in_str = true,
                    '{' => depth_obj += 1,
                    '}' => depth_obj -= 1,
                    '[' => depth_arr += 1,
                    ']' => depth_arr -= 1,
                    _ => {}
                }
                assert!(depth_obj >= 0 && depth_arr >= 0, "negative nesting");
            }
            prev = ch;
        }
        assert!(!in_str, "unterminated string");
        assert_eq!(depth_obj, 0, "unbalanced braces");
        assert_eq!(depth_arr, 0, "unbalanced brackets");
    }

    #[test]
    fn export_is_structurally_valid_json() {
        let json = to_chrome_json(&sample_trace());
        check_json_shape(&json);
        assert!(json.starts_with("{\"displayTimeUnit\":\"ns\",\"traceEvents\":["));
        assert!(json.trim_end().ends_with("]}"));
    }

    #[test]
    fn export_contains_expected_records() {
        let json = to_chrome_json(&sample_trace());
        // Thread metadata for both workers.
        assert!(json.contains("\"name\":\"worker 0\""));
        assert!(json.contains("\"name\":\"worker 1\""));
        // Span pairs.
        assert!(json
            .contains("\"ph\":\"B\",\"pid\":1,\"tid\":0,\"ts\":0.4,\"name\":\"special section\""));
        assert!(json
            .contains("\"ph\":\"E\",\"pid\":1,\"tid\":0,\"ts\":0.9,\"name\":\"special section\""));
        assert!(json.contains("\"name\":\"slow (stolen)\""));
        // Instants carry args.
        assert!(json.contains("\"name\":\"steal_ok\",\"s\":\"t\",\"args\":{\"victim\":0}"));
        assert!(json.contains("\"from\":\"fast\",\"to\":\"check\",\"depth\":3"));
    }

    #[test]
    fn event_count_matches() {
        let trace = sample_trace();
        let json = to_chrome_json(&trace);
        // metadata: 1 process + 2 threads; then one record per event.
        let records = json.matches("\"ph\":\"").count();
        assert_eq!(records, 3 + trace.len());
    }
}
