//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span is a name, a start, an end, the span that was open when it
//! began (its parent) and the id of the sample or job it belongs to.
//! Spans are recorded from the benchmark's own thread only — nothing is
//! instrumented inside the product crates — kept in memory, and written
//! to `benchmark/out/spans-<workload>.json` when the run ends. With
//! tracing off the recorder is disabled and `enter` costs one branch.

use crate::json::Json;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// Spans kept per run; later ones are counted in `dropped` instead, so a
/// flood of jobs cannot turn the span file into the benchmark's own load.
const MAX_SPANS: usize = 60_000;

struct Span {
    name: &'static str,
    sample: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

struct Inner {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    dropped: u64,
}

pub struct Spans {
    inner: Option<RefCell<Inner>>,
}

/// Closes its span when dropped.
pub struct SpanGuard<'a> {
    owner: Option<&'a RefCell<Inner>>,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            inner: enabled.then(|| {
                RefCell::new(Inner {
                    epoch: Instant::now(),
                    spans: Vec::new(),
                    open: Vec::new(),
                    dropped: 0,
                })
            }),
        }
    }

    /// Open a span named after the layer function being called.
    pub fn enter(&self, name: &'static str, sample: u64) -> SpanGuard<'_> {
        let Some(cell) = &self.inner else {
            return SpanGuard { owner: None };
        };
        let mut s = cell.borrow_mut();
        if s.spans.len() >= MAX_SPANS {
            s.dropped += 1;
            return SpanGuard { owner: None };
        }
        let id = s.spans.len();
        let parent = s.open.last().copied();
        let start_ns = s.epoch.elapsed().as_nanos() as u64;
        s.spans.push(Span {
            name,
            sample,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        s.open.push(id);
        SpanGuard { owner: Some(cell) }
    }

    /// Run `f` inside a span.
    pub fn wrap<R>(&self, name: &'static str, sample: u64, f: impl FnOnce() -> R) -> R {
        let _g = self.enter(name, sample);
        f()
    }

    /// Self time per span name: duration minus the part child spans cover.
    /// Children of one parent never overlap (one recording thread), so
    /// the covered part is the sum of the children's durations.
    fn self_times(spans: &[Span]) -> Vec<u64> {
        let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// The span file, or `None` when recording was off.
    pub fn to_json(&self, workload: &str) -> Option<Json> {
        let s = self.inner.as_ref()?.borrow();
        let own = Self::self_times(&s.spans);
        let mut by_name: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        for (span, own_ns) in s.spans.iter().zip(&own) {
            let e = by_name.entry(span.name).or_default();
            e.0 += 1;
            e.1 += span.end_ns - span.start_ns;
            e.2 += own_ns;
        }
        let spans = s
            .spans
            .iter()
            .zip(&own)
            .enumerate()
            .map(|(id, (sp, own_ns))| {
                Json::obj(vec![
                    ("id", Json::num(id as f64)),
                    (
                        "parent",
                        sp.parent.map_or(Json::Null, |p| Json::num(p as f64)),
                    ),
                    ("name", Json::str(sp.name)),
                    ("sample", Json::num(sp.sample as f64)),
                    ("start_ns", Json::num(sp.start_ns as f64)),
                    ("end_ns", Json::num(sp.end_ns as f64)),
                    ("self_ns", Json::num(*own_ns as f64)),
                ])
            })
            .collect();
        let summary = by_name
            .into_iter()
            .map(|(name, (count, total, own_ns))| {
                (
                    name,
                    Json::obj(vec![
                        ("count", Json::num(count as f64)),
                        ("total_ns", Json::num(total as f64)),
                        ("self_ns", Json::num(own_ns as f64)),
                    ]),
                )
            })
            .collect();
        Some(Json::obj(vec![
            ("workload", Json::str(workload)),
            ("dropped", Json::num(s.dropped as f64)),
            ("by_name", Json::obj(summary)),
            ("spans", Json::Arr(spans)),
        ]))
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(cell) = self.owner {
            let mut s = cell.borrow_mut();
            let now = s.epoch.elapsed().as_nanos() as u64;
            if let Some(id) = s.open.pop() {
                s.spans[id].end_ns = now;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let spans = Spans::new(true);
        {
            let _outer = spans.enter("outer", 1);
            spans.wrap("inner", 1, || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        }
        let j = spans.to_json("t").unwrap();
        let by = j.get("by_name").unwrap();
        let outer = by.get("outer").unwrap();
        let inner = by.get("inner").unwrap();
        let total = outer.get("total_ns").unwrap().as_f64().unwrap();
        let own = outer.get("self_ns").unwrap().as_f64().unwrap();
        let child = inner.get("total_ns").unwrap().as_f64().unwrap();
        assert!(child >= 2e6 && (total - own - child).abs() < 1.0);
        assert_eq!(
            j.get("spans").unwrap().as_arr()[1]
                .get("parent")
                .unwrap()
                .as_f64(),
            Some(0.0)
        );
    }

    #[test]
    fn disabled_records_nothing() {
        let spans = Spans::new(false);
        spans.wrap("x", 0, || ());
        assert!(spans.to_json("t").is_none());
    }
}
