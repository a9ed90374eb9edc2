//! In-memory spans recorded by the benchmark around its own calls into
//! each layer, and the self-time table built from them.
//!
//! A span's self time is its duration minus the durations of its direct
//! children. Every root span is one end-to-end operation, so the self times
//! of all layers plus the roots' own self time (the `unattributed` row) sum
//! to the end-to-end time exactly. Spans are kept in memory while the
//! workload runs and written out once it ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval, nanoseconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name (`crate.module.call`), or the operation name for roots.
    pub name: &'static str,
    /// Index of the enclosing span; `None` for an end-to-end operation.
    pub parent: Option<usize>,
    /// Start, ns since the origin.
    pub start_ns: u64,
    /// End, ns since the origin.
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder; every method is a no-op when tracing is off.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records `[start, end]` under `parent`; returns the span's index.
    pub fn span(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        if !self.enabled {
            return 0;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        self.spans.len() - 1
    }

    /// Records a child whose duration was measured by a counter or by a
    /// replay rather than by a clock around the call; it is placed at its
    /// parent's start.
    pub fn child(&mut self, name: &'static str, parent: usize, duration_ns: u64) {
        if !self.enabled {
            return;
        }
        let start_ns = self.spans[parent].start_ns;
        self.spans.push(Span {
            name,
            parent: Some(parent),
            start_ns,
            end_ns: start_ns.saturating_add(duration_ns),
        });
    }

    /// Per-layer self times; the roots' self time is reported under
    /// `residual`, whose name starts with `unattributed`.
    pub fn table(&self, residual: &'static str) -> LayerTable {
        let mut children_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                children_ns[p] += span.duration_ns();
            }
        }
        let mut rows: BTreeMap<&'static str, i128> = BTreeMap::new();
        let mut end_to_end_ns = 0i128;
        let mut ops = 0usize;
        for (i, span) in self.spans.iter().enumerate() {
            let self_ns = span.duration_ns() as i128 - children_ns[i] as i128;
            let name = match span.parent {
                None => {
                    ops += 1;
                    end_to_end_ns += span.duration_ns() as i128;
                    residual
                }
                Some(_) => span.name,
            };
            *rows.entry(name).or_default() += self_ns;
        }
        LayerTable {
            rows: rows
                .into_iter()
                .map(|(n, ns)| (n.to_string(), ns))
                .collect(),
            end_to_end_ns,
            ops,
        }
    }

    /// Writes every span as `index parent name start_ns end_ns` lines.
    ///
    /// # Errors
    ///
    /// Propagates file errors.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "index\tparent\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time per layer over all recorded operations.
#[derive(Debug)]
pub struct LayerTable {
    /// `(layer, total self ns)`, the `unattributed` residual included.
    pub rows: Vec<(String, i128)>,
    /// Summed duration of every operation.
    pub end_to_end_ns: i128,
    /// Operations recorded.
    pub ops: usize,
}

impl LayerTable {
    /// Renders the table with per-operation means and shares.
    pub fn render(&self) -> String {
        let per_op = |ns: i128| ns as f64 / self.ops.max(1) as f64 / 1e6;
        let share = |ns: i128| 100.0 * ns as f64 / (self.end_to_end_ns as f64).max(1.0);
        let mut out = format!(
            "layer table: self time per operation over {} operations\n  {:<44} {:>12} {:>8}\n",
            self.ops, "layer", "ms/op", "share"
        );
        let residual = |name: &str| name.starts_with("unattributed");
        let (rest, layers): (Vec<_>, Vec<_>) = self.rows.iter().partition(|(n, _)| residual(n));
        for (name, ns) in layers.into_iter().chain(rest) {
            out.push_str(&format!(
                "  {name:<44} {:>12.6} {:>7.2}%\n",
                per_op(*ns),
                share(*ns)
            ));
        }
        let sum: i128 = self.rows.iter().map(|(_, ns)| ns).sum();
        out.push_str(&format!(
            "  {:<44} {:>12.6} {:>7.2}%   (rows sum to {:.6} ms/op)\n",
            "end-to-end",
            per_op(self.end_to_end_ns),
            100.0,
            per_op(sum)
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn rows_sum_to_the_end_to_end_time() {
        let mut t = Tracer::new(true);
        let base = Instant::now();
        let at = |us: u64| base + Duration::from_micros(us);
        let op = t.span("op", None, at(0), at(100));
        let call = t.span("core.call", Some(op), at(10), at(70));
        t.child("markov.replay", call, 25_000);
        t.span("profile.observe", Some(op), at(75), at(95));
        let op2 = t.span("op", None, at(200), at(250));
        t.child("core.call", op2, 40_000);
        let table = t.table("unattributed");
        let row = |name: &str| table.rows.iter().find(|(n, _)| *n == name).unwrap().1;
        assert_eq!(table.ops, 2);
        assert_eq!(table.end_to_end_ns, 150_000);
        assert_eq!(row("markov.replay"), 25_000);
        assert_eq!(row("core.call"), 35_000 + 40_000);
        assert_eq!(row("profile.observe"), 20_000);
        assert_eq!(row("unattributed"), 20_000 + 10_000);
        let sum: i128 = table.rows.iter().map(|r| r.1).sum();
        assert_eq!(sum, table.end_to_end_ns);
        assert!(table.render().contains("unattributed"));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let now = Instant::now();
        let op = t.span("op", None, now, now);
        t.child("x", op, 5);
        assert_eq!(t.table("unattributed").ops, 0);
    }
}
