//! Tracing plumbing for the simulator, mirroring `adaptivetc-runtime`'s:
//! an optional collector reference, `None` unless `Config::trace` is set.

pub(crate) type SimTracer<'a> = Option<&'a adaptivetc_trace::TraceCollector>;

/// Emit a simulator trace event at the current virtual time:
/// `sev!(self, wid, <expr>)` inside `Sim` methods, where `<expr>`
/// evaluates to an `adaptivetc_trace::EventKind` (imported as `Ev`) and
/// is evaluated only when the run is traced.
macro_rules! sev {
    ($sim:expr, $wid:expr, $kind:expr) => {
        if let Some(t) = $sim.tracer {
            t.emit_at($wid, $sim.now, $kind);
        }
    };
}
pub(crate) use sev;
