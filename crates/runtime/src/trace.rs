//! Tracing plumbing for the engine: an optional `adaptivetc-trace`
//! collector / per-worker handle, `None` unless `Config::trace` is set.

pub(crate) type TracerRef<'a> = Option<&'a adaptivetc_trace::TraceCollector>;
pub(crate) type WorkerTracer<'a> = Option<adaptivetc_trace::WorkerHandle<'a>>;

/// The per-worker recording endpoint for worker `id`.
pub(crate) fn worker_tracer(tracer: TracerRef<'_>, id: usize) -> WorkerTracer<'_> {
    tracer.map(|c| c.handle(id))
}

/// Emit a trace event from a [`Worker`](crate::engine):
/// `tev!(self, <Category>, <expr>)` where `<Category>` is a bare
/// `adaptivetc_trace::Category` variant name and `<expr>` evaluates to an
/// `adaptivetc_trace::EventKind` (the engine imports it as `Ev`).
///
/// `<expr>` is evaluated only when the run is traced; an untraced run
/// pays the `None` test and a predicted branch, nothing else. The
/// category is named statically so the sampling test folds per site.
macro_rules! tev {
    ($worker:expr, $cat:ident, $kind:expr) => {
        if let Some(h) = $worker.tr.as_ref() {
            h.emit_in(adaptivetc_trace::Category::$cat, $kind);
        }
    };
}
pub(crate) use tev;
