//! In-memory span recorder for the traced run.
//!
//! A span is one timed call into a layer: its name, start, end, the
//! request it belongs to and the span that caused it. Spans are kept
//! in memory and summarised when the run ends. A layer's self time is
//! its span's duration minus the part of that interval its child
//! spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Requests (one batch, one query, one sweep) share this id.
    pub request: u64,
    /// Index of the parent span, if any.
    pub parent: Option<usize>,
    /// Units of work the span covered (records, calls).
    pub work: u64,
}

/// Per-layer totals derived from the recorded spans.
#[derive(Debug, Clone, Default)]
pub struct LayerSummary {
    pub spans: u64,
    pub work: u64,
    pub self_ns: u64,
    /// Self time of each span, for percentiles.
    pub self_each_ns: Vec<u64>,
}

impl LayerSummary {
    pub fn ns_per_work(&self) -> f64 {
        self.self_ns as f64 / self.work.max(1) as f64
    }

    pub fn p50_ns(&self) -> f64 {
        self.quantile_ns(0.50)
    }

    pub fn p99_ns(&self) -> f64 {
        self.quantile_ns(0.99)
    }

    fn quantile_ns(&self, q: f64) -> f64 {
        let v: Vec<f64> = self.self_each_ns.iter().map(|&x| x as f64).collect();
        crate::stats::quantile(&v, q)
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    next_request: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            next_request: 0,
        }
    }

    pub fn new_request(&mut self) -> u64 {
        self.next_request += 1;
        self.next_request
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, request: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            request,
            parent,
            work: 1,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, span: usize, work: u64) {
        let end_ns = self.now_ns();
        let s = &mut self.spans[span];
        s.end_ns = end_ns;
        s.work = work;
    }

    /// Time `f` as one span covering `work` units.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        work: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.begin(name, request, parent);
        let out = f();
        self.end(span, work);
        out
    }

    /// Write every span as tab-separated text: name, request, parent,
    /// start and end (ns since the tracer was made), work.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "name\trequest\tparent\tstart_ns\tend_ns\twork")?;
        for s in &self.spans {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}\t{}\t{parent}\t{}\t{}\t{}",
                s.name, s.request, s.start_ns, s.end_ns, s.work
            )?;
        }
        out.flush()
    }

    /// Self time per layer name.
    pub fn summarise(&self) -> BTreeMap<&'static str, LayerSummary> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut out: BTreeMap<&'static str, LayerSummary> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let total = s.end_ns.saturating_sub(s.start_ns);
            let covered = covered_ns(
                s,
                children[i]
                    .iter()
                    .map(|&c| (self.spans[c].start_ns, self.spans[c].end_ns)),
            );
            let own = total.saturating_sub(covered);
            let layer = out.entry(s.name).or_default();
            layer.spans += 1;
            layer.work += s.work;
            layer.self_ns += own;
            layer.self_each_ns.push(own);
        }
        out
    }
}

/// Length of the union of child intervals, clipped to the parent.
fn covered_ns(parent: &Span, children: impl Iterator<Item = (u64, u64)>) -> u64 {
    let mut iv: Vec<(u64, u64)> = children
        .map(|(a, b)| (a.max(parent.start_ns), b.min(parent.end_ns)))
        .filter(|(a, b)| a < b)
        .collect();
    iv.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((ca, cb)) = cur {
        covered += cb - ca;
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new();
        t.spans = vec![
            Span {
                name: "root",
                start_ns: 0,
                end_ns: 100,
                request: 1,
                parent: None,
                work: 1,
            },
            Span {
                name: "a",
                start_ns: 10,
                end_ns: 40,
                request: 1,
                parent: Some(0),
                work: 1,
            },
            Span {
                name: "b",
                start_ns: 30,
                end_ns: 50,
                request: 1,
                parent: Some(0),
                work: 1,
            },
            Span {
                name: "c",
                start_ns: 90,
                end_ns: 120,
                request: 1,
                parent: Some(0),
                work: 1,
            },
        ];
        let s = t.summarise();
        // Children cover 10..50 and 90..100: 50 ns of the root's 100.
        assert_eq!(s["root"].self_ns, 50);
        assert_eq!(s["a"].self_ns, 30);
        assert_eq!(s["c"].self_ns, 30);
    }
}
