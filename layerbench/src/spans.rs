//! In-memory span and count recorder for the traced run.
//!
//! The benchmark wraps each call into a layer's public functions in a
//! span (name, start, end, parent, op id). Nothing is recorded while the
//! recorder is off, so the untraced run pays one branch per call site.
//! Spans are written out as JSON lines when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Op ids of the spans recorded during set-up repetition `r` start at
/// `SETUP_BASE + r`; those of post-run replays at `REPLAY_BASE + k`.
/// Timed ops are numbered from 0.
pub const SETUP_BASE: u64 = 1 << 40;
pub const REPLAY_BASE: u64 = 1 << 41;

/// One recorded span. Times are nanoseconds since the recorder's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The recorder. Spans nest: a span opened while another is open becomes
/// its child.
pub struct Spans {
    on: bool,
    origin: Instant,
    op: u64,
    open: Vec<usize>,
    spans: Vec<Span>,
    counts: Vec<(u64, &'static str, f64)>,
}

impl Spans {
    pub fn new(origin: Instant) -> Self {
        Spans {
            on: false,
            origin,
            op: SETUP_BASE,
            open: Vec::new(),
            spans: Vec::new(),
            counts: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, on: bool) {
        assert!(self.open.is_empty(), "tracing toggled inside a span");
        self.on = on;
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Tags every span and count recorded from now on with `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; returns its index for [`Spans::close`], or `None`
    /// while tracing is off.
    pub fn open(&mut self, name: &'static str) -> Option<usize> {
        if !self.on {
            return None;
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(idx);
        Some(idx)
    }

    pub fn close(&mut self, idx: Option<usize>) {
        let Some(idx) = idx else { return };
        assert_eq!(self.open.pop(), Some(idx), "spans closed out of order");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let idx = self.open(name);
        let out = f();
        self.close(idx);
        out
    }

    /// Records a count measured at a layer boundary (traced run only).
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.on {
            self.counts.push((self.op, name, value));
        }
    }

    /// Per op, the summed self time (milliseconds) of every span name:
    /// a span's duration minus the part its children cover.
    pub fn self_ms_by_op(&self) -> BTreeMap<u64, BTreeMap<&'static str, f64>> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<u64, BTreeMap<&'static str, f64>> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let self_ns = s.dur_ns().saturating_sub(child_ns[i]);
            *out.entry(s.op).or_default().entry(s.name).or_default() += self_ns as f64 / 1e6;
        }
        out
    }

    /// Per op, the summed value of every count name.
    pub fn counts_by_op(&self) -> BTreeMap<u64, BTreeMap<&'static str, f64>> {
        let mut out: BTreeMap<u64, BTreeMap<&'static str, f64>> = BTreeMap::new();
        for &(op, name, value) in &self.counts {
            *out.entry(op).or_default().entry(name).or_default() += value;
        }
        out
    }

    /// Writes every span and count as one JSON object per line.
    pub fn write_jsonl(&self, path: &str) -> std::io::Result<()> {
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let op_field = |op: u64| {
            if op >= REPLAY_BASE {
                format!("\"replay{}\"", op - REPLAY_BASE)
            } else if op >= SETUP_BASE {
                format!("\"setup{}\"", op - SETUP_BASE)
            } else {
                op.to_string()
            }
        };
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                op_field(s.op)
            )?;
        }
        for &(op, name, value) in &self.counts {
            writeln!(
                out,
                "{{\"count\":\"{name}\",\"value\":{value},\"op\":{}}}",
                op_field(op)
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_off_records_nothing() {
        let mut s = Spans::new(Instant::now());
        s.time("off", || ());
        s.count("off.count", 1.0);
        s.set_enabled(true);
        s.set_op(3);
        s.time("root", || ());
        let root = s.open("outer");
        s.time("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        s.close(root);
        s.count("n", 2.0);
        s.count("n", 3.0);
        let by_op = s.self_ms_by_op();
        let op = &by_op[&3];
        assert!(!op.contains_key("off"));
        assert!(op["inner"] >= 2.0);
        assert!(op["outer"] < op["inner"], "child time leaked into parent");
        assert_eq!(s.counts_by_op()[&3]["n"], 5.0);
        assert!(!s.counts_by_op()[&3].contains_key("off.count"));
    }
}
