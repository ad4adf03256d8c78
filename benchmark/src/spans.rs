//! In-memory spans recorded around each call into a layer, written at exit
//! in chrome trace-event format.
//!
//! A span's layer is its name up to the first `.`: `core`, `os`,
//! `workloads`, `obs`, `oracle`, or `bench` for the benchmark's own root
//! spans (one per unit of work). Children inherit their root's unit id, so
//! every span of one unit shares an id.

use std::fs;
use std::time::Instant;

/// Span events per document checked by `eeat_obs::validate_chrome_trace`.
const CHECK_EVENTS: usize = 100;

struct Span {
    name: &'static str,
    unit: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Records spans when enabled; every method is a no-op otherwise.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    next_unit: u64,
}

/// An open span (or nothing, when tracing is off).
#[must_use]
pub struct Token(Option<usize>);

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            next_unit: 0,
        }
    }

    pub fn off() -> Self {
        Self::new(false)
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Closes every open span (after a unit panicked inside them).
    pub fn close_all(&mut self) {
        let now = self.origin.elapsed().as_nanos() as u64;
        for index in self.open.drain(..) {
            self.spans[index].end_ns = now;
        }
    }

    /// Opens a span. A span opened with no span open is a root and starts
    /// a new unit id.
    pub fn begin(&mut self, name: &'static str) -> Token {
        if !self.enabled {
            return Token(None);
        }
        let parent = self.open.last().copied();
        let unit = match parent {
            Some(p) => self.spans[p].unit,
            None => {
                self.next_unit += 1;
                self.next_unit
            }
        };
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            unit,
            parent,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.open.push(index);
        Token(Some(index))
    }

    /// Closes the span `token` opened (spans close innermost first).
    pub fn end(&mut self, token: Token) {
        let Some(index) = token.0 else {
            return;
        };
        let top = self.open.pop();
        assert_eq!(top, Some(index), "spans must close innermost first");
        self.spans[index].end_ns = self.origin.elapsed().as_nanos() as u64;
    }

    /// Self time per layer in seconds: each span's duration minus the part
    /// its direct children cover, summed by layer, in first-seen order.
    pub fn self_seconds(&self) -> Vec<(&'static str, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: Vec<(&'static str, f64)> = Vec::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let layer = layer_of(s.name);
            let secs = (s.end_ns - s.start_ns - children) as f64 * 1e-9;
            match out.iter_mut().find(|(l, _)| *l == layer) {
                Some((_, total)) => *total += secs,
                None => out.push((layer, secs)),
            }
        }
        out
    }

    /// Writes the spans as a chrome trace-event document under
    /// `benchmark/out/`, checks it with `eeat_obs::validate_chrome_trace`,
    /// and returns its path.
    pub fn write_chrome(&self, workload: &str, seed: u64) -> Result<String, String> {
        const HEAD: &str = "{\"traceEvents\":[\n{\"name\":\"process_name\",\"ph\":\"M\",\
                            \"pid\":1,\"tid\":1,\"args\":{\"name\":\"benchmark\"}}";
        const TAIL: &str = "\n],\"displayTimeUnit\":\"ms\"}\n";
        let events: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                let parent = s.parent.map_or("", |p| self.spans[p].name);
                format!(
                    ",\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                     \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"unit\":{},\"parent\":\"{parent}\"}}}}",
                    s.name,
                    layer_of(s.name),
                    s.start_ns as f64 / 1e3,
                    (s.end_ns - s.start_ns) as f64 / 1e3,
                    s.unit,
                )
            })
            .collect();
        // The validator's JSON parser re-checks the rest of its input as
        // UTF-8 at every string character, so its time grows with the
        // square of the document's length (minutes for a run's trace).
        // Every event is checked, in documents of `CHECK_EVENTS` events.
        for (i, chunk) in events.chunks(CHECK_EVENTS).enumerate() {
            let problems =
                eeat_obs::validate_chrome_trace(&format!("{HEAD}{}{TAIL}", chunk.concat()));
            if !problems.is_empty() {
                return Err(format!(
                    "invalid chrome trace (events {} on): {problems:?}",
                    i * CHECK_EVENTS
                ));
            }
        }
        let dir = format!("{}/out", env!("CARGO_MANIFEST_DIR"));
        fs::create_dir_all(&dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
        let path = format!("{dir}/{workload}-seed{seed}.trace.json");
        fs::write(&path, format!("{HEAD}{}{TAIL}", events.concat()))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        Ok(path)
    }
}

fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}
