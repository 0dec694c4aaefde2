//! In-memory spans for the traced run.
//!
//! A span is `(id, name, start, end, parent, request id)`, with times in
//! nanoseconds from the run's start. Spans are kept in memory and
//! written out once, when the run ends; recording one is a clock read
//! and a push into a pre-sized vector.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// Spans kept per tracer.
pub const CAP: usize = 1 << 20;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u64,
    pub req: u64,
}

/// One thread's span buffer. Disabled tracers record nothing, so the
/// same code path serves the untraced and the traced run. Past [`CAP`]
/// spans the buffer wraps and keeps the latest, so a long closed loop
/// pays for every span without holding them all.
pub struct Tracer {
    t0: Instant,
    on: bool,
    /// High bits of every id this tracer hands out, so per-thread
    /// buffers merge without clashes.
    tag: u64,
    next: u64,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(t0: Instant, on: bool, tag: u64) -> Tracer {
        Tracer {
            t0,
            on,
            tag: tag << 40,
            next: 1,
            spans: Vec::with_capacity(if on { 1 << 16 } else { 0 }),
        }
    }

    /// Nanoseconds since the run's start.
    #[inline]
    pub fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// An id for a span whose children are recorded before it ends.
    pub fn reserve(&mut self) -> u64 {
        self.next += 1;
        self.tag | (self.next - 1)
    }

    /// Records a finished span under a reserved id.
    #[inline]
    pub fn record_as(
        &mut self,
        id: u64,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: u64,
        req: u64,
    ) {
        if self.on {
            let span = Span { id, name, start_ns, end_ns, parent, req };
            if self.spans.len() < CAP {
                self.spans.push(span);
            } else {
                self.spans[(id & ((1 << 40) - 1)) as usize % CAP] = span;
            }
        }
    }

    /// Records a finished span; returns its id (0 when disabled).
    #[inline]
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: u64,
        req: u64,
    ) -> u64 {
        if !self.on {
            return 0;
        }
        let id = self.reserve();
        self.record_as(id, name, start_ns, end_ns, parent, req);
        id
    }
}

/// What recording one span costs, in ns: two clock reads and a push.
pub fn span_cost_ns() -> f64 {
    const N: u64 = 100_000;
    let mut tr = Tracer::new(Instant::now(), true, 0);
    tr.spans.reserve(N as usize);
    let t = Instant::now();
    for i in 0..N {
        let s = tr.now();
        tr.record("cost", s, tr.now(), 0, i);
    }
    let ns = t.elapsed().as_nanos() as f64 / N as f64;
    std::hint::black_box(&tr.spans);
    ns
}

/// Mean duration (ns) and count of the spans of each name.
pub fn mean_by_name(spans: &[Span]) -> BTreeMap<&'static str, (f64, u64)> {
    let mut acc: BTreeMap<&'static str, (u128, u64)> = BTreeMap::new();
    for s in spans {
        let e = acc.entry(s.name).or_default();
        e.0 += u128::from(s.end_ns.saturating_sub(s.start_ns));
        e.1 += 1;
    }
    acc.into_iter().map(|(k, (sum, n))| (k, (sum as f64 / n.max(1) as f64, n))).collect()
}

/// Writes spans as tab-separated `id name start_ns end_ns parent req`.
pub fn write_tsv(path: &Path, spans: &[Span]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "id\tname\tstart_ns\tend_ns\tparent\treq")?;
    for s in spans {
        writeln!(w, "{}\t{}\t{}\t{}\t{}\t{}", s.id, s.name, s.start_ns, s.end_ns, s.parent, s.req)?;
    }
    w.flush()
}
