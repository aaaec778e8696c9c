//! The traced run's span recorder.
//!
//! Spans are recorded by the benchmark's own code around each call into a
//! layer: name, start, end, parent span and the execution they belong to.
//! They stay in memory until the run ends and are then written out as one
//! JSON object per line. A disabled tracer still runs the wrapped call but
//! records nothing.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    /// Data-plane execution index (0 for simulator calls).
    pub exec: u64,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A fresh span id, to hand to children before the parent closes.
    pub fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a span whose id was taken earlier with [`Tracer::id`].
    pub fn record(
        &self,
        id: u64,
        parent: Option<u64>,
        name: &'static str,
        exec: u64,
        start_ns: u64,
    ) {
        if !self.enabled {
            return;
        }
        let span = Span {
            id,
            parent,
            name,
            exec,
            start_ns,
            end_ns: self.now_ns(),
        };
        self.spans
            .lock()
            .expect("a span writer panicked")
            .push(span);
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id so
    /// it can parent further spans.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        exec: u64,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        if !self.enabled {
            return f(0);
        }
        let id = self.id();
        let start = self.now_ns();
        let out = f(id);
        self.record(id, parent, name, exec, start);
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("a span writer panicked").clone()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"exec\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, parent, s.name, s.exec, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Durations of every span named `name`, in microseconds.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e3)
        .collect()
}

/// Self time of every span named `name`, in microseconds: its duration
/// minus the part of it that its child spans cover.
pub fn self_times_us(spans: &[Span], name: &str) -> Vec<f64> {
    let mut children: std::collections::HashMap<u64, Vec<(u64, u64)>> =
        std::collections::HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| {
            let mut kids = children.get(&s.id).cloned().unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.dur_ns() - covered) as f64 / 1e3
        })
        .collect()
}

/// For every span named `parent`, the gap between the earliest and the
/// latest end of its children named `child`, in microseconds.
pub fn child_end_skew_us(spans: &[Span], parent: &str, child: &str) -> Vec<f64> {
    let parents: std::collections::HashSet<u64> = spans
        .iter()
        .filter(|s| s.name == parent)
        .map(|s| s.id)
        .collect();
    let mut ends: std::collections::BTreeMap<u64, (u64, u64)> = std::collections::BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == child) {
        if let Some(p) = s.parent.filter(|p| parents.contains(p)) {
            let e = ends.entry(p).or_insert((u64::MAX, 0));
            e.0 = e.0.min(s.end_ns);
            e.1 = e.1.max(s.end_ns);
        }
    }
    ends.values()
        .map(|&(lo, hi)| (hi - lo) as f64 / 1e3)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, a: u64, b: u64) -> Span {
        Span {
            id,
            parent,
            name,
            exec: 1,
            start_ns: a,
            end_ns: b,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, None, "run", 0, 10_000),
            span(2, Some(1), "exec", 1_000, 6_000),
            span(3, Some(1), "exec", 2_000, 8_000),
        ];
        assert_eq!(self_times_us(&spans, "run"), vec![3.0]);
        assert_eq!(child_end_skew_us(&spans, "run", "exec"), vec![2.0]);
    }
}
