//! Spans recorded by the benchmark's own loops, around the calls into
//! each layer. A batch (forwarding thread) or a burst (control thread)
//! is a parent span; each call boundary inside it is a child. Spans go
//! into a pre-faulted in-memory `Vec` and are written out, if asked for,
//! only after the run.

use std::io::Write;
use std::time::Instant;

/// `parent` of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// What a span covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanKind {
    /// One forwarding batch (parent).
    Batch,
    /// `AddressSource::fill` from the key ring.
    Fill,
    /// `SnapReader::get` / `DataPlane::current`.
    Get,
    /// `lookup_stream` / `lookup_batch` on the snapshot.
    Lookup,
    /// `HeatSketch::record` over the batch.
    Heat,
    /// One control burst (parent).
    Burst,
    /// The burst's `announce` / `withdraw` loop.
    Announce,
    /// `publish()`.
    Publish,
    /// The check that a fresh reader serves the burst.
    Visible,
}

impl SpanKind {
    /// Name written to the trace file.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Batch => "batch",
            Self::Fill => "fill",
            Self::Get => "get",
            Self::Lookup => "lookup",
            Self::Heat => "heat",
            Self::Burst => "burst",
            Self::Announce => "announce",
            Self::Publish => "publish",
            Self::Visible => "visible",
        }
    }
}

/// One recorded span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// What it covers.
    pub kind: SpanKind,
    /// Start, nanoseconds since the run's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the run's origin.
    pub end_ns: u64,
    /// Id of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// Unique within the run.
    pub id: u32,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One thread's span buffer. Tracers of one run share an `origin` and
/// take disjoint id ranges, so their spans merge without renumbering.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    capacity: usize,
    id_base: u32,
}

impl Tracer {
    /// A buffer for `capacity` spans whose ids start at `id_base`. The
    /// pages are touched here so the traced loop never page-faults.
    #[must_use]
    pub fn new(origin: Instant, id_base: u32, capacity: usize) -> Self {
        let filler = Span {
            kind: SpanKind::Batch,
            start_ns: 0,
            end_ns: 0,
            parent: NO_PARENT,
            id: 0,
        };
        let mut spans = vec![filler; capacity];
        spans.clear();
        Self {
            origin,
            spans,
            capacity,
            id_base,
        }
    }

    /// Nanoseconds since the origin.
    #[inline]
    #[must_use]
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Whether a parent and its children still fit.
    #[inline]
    #[must_use]
    pub fn has_room(&self) -> bool {
        self.spans.len() + 8 <= self.capacity
    }

    /// Records a span and returns its id. Dropped once the buffer is
    /// full (callers stop on [`Self::has_room`] before that happens).
    #[inline]
    pub fn push(&mut self, kind: SpanKind, start_ns: u64, end_ns: u64, parent: u32) -> u32 {
        let id = self.id_base + self.spans.len() as u32;
        if self.spans.len() < self.capacity {
            self.spans.push(Span {
                kind,
                start_ns,
                end_ns,
                parent,
                id,
            });
        }
        id
    }

    /// The recorded spans.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Takes the recorded spans out.
    #[must_use]
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Sum of durations and count of the spans of one kind.
#[must_use]
pub fn total(spans: &[Span], kind: SpanKind) -> (u64, u64) {
    spans
        .iter()
        .filter(|s| s.kind == kind)
        .fold((0, 0), |(ns, n), s| (ns + s.ns(), n + 1))
}

/// Checks that every child lies inside its parent and that the children
/// of one parent do not overlap; returns the first violation.
///
/// # Errors
/// A description of the offending span.
pub fn check_nesting(spans: &[Span]) -> Result<(), String> {
    let by_id: std::collections::HashMap<u32, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    if by_id.len() != spans.len() {
        return Err("duplicate span id".to_string());
    }
    let mut last_child_end: std::collections::HashMap<u32, u64> = std::collections::HashMap::new();
    for span in spans {
        if span.end_ns < span.start_ns {
            return Err(format!("span {} ends before it starts", span.id));
        }
        if span.parent == NO_PARENT {
            continue;
        }
        let Some(parent) = by_id.get(&span.parent) else {
            return Err(format!("span {} names a missing parent", span.id));
        };
        if span.start_ns < parent.start_ns || span.end_ns > parent.end_ns {
            return Err(format!("span {} leaves its parent {}", span.id, parent.id));
        }
        let end = last_child_end.entry(span.parent).or_insert(0);
        if span.start_ns < *end {
            return Err(format!("span {} overlaps a sibling", span.id));
        }
        *end = span.end_ns;
    }
    Ok(())
}

/// Writes spans as JSON lines.
///
/// # Errors
/// The underlying I/O failure.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = if s.parent == NO_PARENT {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        writeln!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"id\":{}}}",
            s.kind.name(),
            s.start_ns,
            s.end_ns,
            parent,
            s.id
        )?;
    }
    out.flush()
}
