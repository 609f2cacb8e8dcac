//! Host-time spans recorded by the traced run around the benchmark's own
//! calls into each layer, written out as Chrome trace-event JSON (loadable
//! in Perfetto) and reduced to per-layer self times.

use eecs_core::jsonio::Json;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name, e.g. `detect.c4`.
    pub name: &'static str,
    /// Start, from the recorder's epoch.
    pub start: Duration,
    /// End, from the recorder's epoch.
    pub end: Duration,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The mission (or batch) the span worked for, if any.
    pub mission: Option<usize>,
}

impl Span {
    /// Wall time between start and end.
    pub fn duration(&self) -> Duration {
        self.end - self.start
    }
}

/// An in-memory span recorder. Spans nest by call order: a span opened
/// inside another's closure is its child.
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans::new()
    }
}

impl Spans {
    /// An empty recorder whose epoch is now.
    pub fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        mission: Option<usize>,
        f: impl FnOnce(&mut Spans) -> R,
    ) -> R {
        let index = self.spans.len();
        let start = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            mission,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end = self.epoch.elapsed();
        out
    }

    /// Every closed span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name: the number of spans and their summed self time (a
    /// span's duration minus the part its children cover).
    pub fn self_times(&self) -> BTreeMap<&'static str, (usize, Duration)> {
        let mut child_time = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.duration();
            }
        }
        let mut out: BTreeMap<&'static str, (usize, Duration)> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_time) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.duration().saturating_sub(children);
        }
        out
    }

    /// Mean self time of the spans named `name`, in seconds (0 if none).
    pub fn mean_self_s(&self, name: &str) -> f64 {
        self.self_times()
            .get(name)
            .map_or(0.0, |(n, t)| t.as_secs_f64() / *n as f64)
    }

    /// Total self time of the spans named `name`, in seconds.
    pub fn total_self_s(&self, name: &str) -> f64 {
        self.self_times()
            .get(name)
            .map_or(0.0, |(_, t)| t.as_secs_f64())
    }

    /// The spans as a Chrome trace-event document: one complete (`X`)
    /// event per span, timestamps in microseconds, with the span's id,
    /// parent and mission in `args`.
    ///
    /// # Errors
    ///
    /// Returns the JSON writer's error (never for finite times).
    pub fn chrome_trace(&self) -> Result<String, String> {
        let id = |i: Option<usize>| Json::Num(i.map_or(-1.0, |i| i as f64));
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(s.name.into())),
                    ("cat".into(), Json::Str("perfbench".into())),
                    ("ph".into(), Json::Str("X".into())),
                    ("ts".into(), Json::Num(micros(s.start))),
                    ("dur".into(), Json::Num(micros(s.duration()))),
                    ("pid".into(), Json::Num(1.0)),
                    ("tid".into(), Json::Num(1.0)),
                    (
                        "args".into(),
                        Json::Obj(vec![
                            ("id".into(), Json::Num(i as f64)),
                            ("parent".into(), id(s.parent)),
                            ("mission".into(), id(s.mission)),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("traceEvents".into(), Json::Arr(events)),
            ("displayTimeUnit".into(), Json::Str("ms".into())),
        ])
        .write()
    }
}

fn micros(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_trace_names_parents() {
        let mut spans = Spans::new();
        spans.span("outer", Some(3), |s| {
            s.span("inner", Some(3), |_| {
                std::thread::sleep(Duration::from_millis(5))
            });
            std::thread::sleep(Duration::from_millis(5));
        });
        let times = spans.self_times();
        let (outer, inner) = (times["outer"].1, times["inner"].1);
        assert!(inner >= Duration::from_millis(5));
        assert!(outer >= Duration::from_millis(5));
        assert!(outer < spans.spans()[0].duration());
        assert_eq!(spans.spans()[1].parent, Some(0));

        let doc = eecs_core::jsonio::parse(&spans.chrome_trace().unwrap()).unwrap();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 2);
        let args = events[1].get("args").unwrap();
        assert_eq!(args.get("parent").and_then(Json::as_num), Some(0.0));
        assert_eq!(args.get("mission").and_then(Json::as_num), Some(3.0));
    }
}
