//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each layer
//! (the program itself is not instrumented). Each span keeps its name,
//! start, end, parent and the iteration it belongs to; everything stays in
//! memory until the run ends and is then written out as TSV.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub iteration: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans while `on`; when off, [`Tracer::time`] only runs the call.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    iteration: u32,
    /// Ids of the iterations begun while recording.
    traced: Vec<u32>,
}

impl Tracer {
    /// A recorder that is off until [`Tracer::begin_iteration`] turns it on.
    pub fn new() -> Self {
        Self {
            on: false,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            iteration: 0,
            traced: Vec::new(),
        }
    }

    /// Starts a new iteration id for the spans that follow, recording
    /// while `on`.
    pub fn begin_iteration(&mut self, on: bool) {
        self.on = on;
        self.iteration += 1;
        if on {
            self.traced.push(self.iteration);
        }
    }

    /// Number of iterations recorded.
    pub fn traced_iterations(&self) -> usize {
        self.traced.len()
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            iteration: self.iteration,
        });
        self.stack.push(id);
    }

    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let id = self.stack.pop().expect("exit matches an enter");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Self time per span name, summed over all spans: a span's duration
    /// minus the part of it its children cover (children never overlap, as
    /// every span here is opened and closed on one thread).
    pub fn self_time_ns(&self) -> BTreeMap<&'static str, u64> {
        let child_ns = self.child_ns();
        let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&child_ns) {
            *out.entry(s.name).or_insert(0) += s.dur_ns().saturating_sub(*c);
        }
        out
    }

    /// Per span, the summed duration of its direct children.
    fn child_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        child_ns
    }

    /// Summed duration of the spans named `name` in each recorded
    /// iteration, in milliseconds (0 for an iteration without one).
    pub fn per_iteration_ms(&self, name: &str) -> Vec<f64> {
        let mut sums: BTreeMap<u32, u64> = self.traced.iter().map(|&i| (i, 0)).collect();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *sums.entry(s.iteration).or_insert(0) += s.dur_ns();
        }
        sums.values().map(|&ns| ns as f64 / 1e6).collect()
    }

    /// Share of the spans named `root` covered by their direct children.
    pub fn coverage(&self, root: &str) -> f64 {
        let child_ns = self.child_ns();
        let mut total = 0u64;
        let mut covered = 0u64;
        for (s, c) in self.spans.iter().zip(&child_ns) {
            if s.name == root {
                total += s.dur_ns();
                covered += c;
            }
        }
        if total == 0 {
            0.0
        } else {
            covered as f64 / total as f64
        }
    }

    /// Writes every span as one TSV line: iteration, id, parent, name,
    /// start and end in nanoseconds since the recorder started.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "iteration\tid\tparent\tname\tstart_ns\tend_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}\t{id}\t{parent}\t{}\t{}\t{}",
                s.iteration, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
