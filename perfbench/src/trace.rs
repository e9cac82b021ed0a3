//! Spans recorded around calls into each layer, kept in memory and
//! written out when the benchmark ends.
//!
//! Each thread owns a [`Recorder`], so recording takes no lock. A span
//! carries the request it belongs to (spans of one request share it),
//! the span that caused it, and start/end offsets from one epoch shared
//! by every recorder of a run.

use std::fmt::Write as _;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique within a run: the recorder's lane in the top bits, its
    /// span index in the rest (see [`Recorder::reserve`]).
    pub id: u64,
    /// The span that caused this one, if any.
    pub parent: Option<u64>,
    /// The request (signature, pool request or RPC) the span belongs to.
    pub request: u64,
    /// Layer-qualified name, e.g. `codec.encode_request`.
    pub name: &'static str,
    /// Start, in nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the run's epoch.
    pub end_ns: u64,
}

impl Span {
    /// The span's length in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span buffer. When off, recording is a no-op, which is
/// how the untraced passes run the same code.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    lane: u64,
    next: u64,
    on: bool,
    spans: Vec<Span>,
}

const LANE_SHIFT: u32 = 40;

impl Recorder {
    /// A recorder writing ids in `lane`; every recorder of one run must
    /// share `epoch` and use a distinct lane.
    pub fn new(epoch: Instant, lane: u64, on: bool) -> Self {
        Recorder {
            epoch,
            lane,
            next: 0,
            on,
            spans: Vec::new(),
        }
    }

    /// Allocates a span id before the span ends, so that children
    /// recorded first can name it as their parent.
    pub fn reserve(&mut self) -> u64 {
        self.next += 1;
        (self.lane << LANE_SHIFT) | self.next
    }

    /// Records a span under an id from [`reserve`](Self::reserve).
    pub fn record_as(
        &mut self,
        id: u64,
        name: &'static str,
        request: u64,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) {
        if self.on {
            self.spans.push(Span {
                id,
                parent,
                request,
                name,
                start_ns: self.offset(start),
                end_ns: self.offset(end),
            });
        }
    }

    /// Records a span under a fresh id.
    pub fn record(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) {
        if self.on {
            let id = self.reserve();
            self.record_as(id, name, request, parent, start, end);
        }
    }

    fn offset(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// The spans recorded so far.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// The durations, in nanoseconds, of every span called `name`.
pub fn durations_ns(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64)
        .collect()
}

/// Writes spans as JSON lines, one span per line.
///
/// # Errors
///
/// Any error creating or writing the file.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut text = String::with_capacity(spans.len() * 96);
    for s in spans {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        let _ = writeln!(
            text,
            "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, parent, s.request, s.name, s.start_ns, s.end_ns
        );
    }
    let mut file = std::fs::File::create(path)?;
    file.write_all(text.as_bytes())?;
    file.flush()
}
