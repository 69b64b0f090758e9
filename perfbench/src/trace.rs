//! In-memory span recording around calls into the library's layers.
//!
//! Every thread appends to its own buffer (registered once, on the
//! thread's first span), so recording never contends; [`drain`] collects
//! all buffers after the traced work has joined. A span carries its layer,
//! its own id, its parent's id (0 for a root), the batch or request id it
//! served, and its start and end in nanoseconds since a process-wide epoch.
//!
//! A layer's self time is its span's duration minus the part of that
//! interval its child spans cover ([`self_times`]); children that overlap
//! (parallel workers) are counted once.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// The benchmark's span names: one per layer boundary it wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Layer {
    /// One `asmcap::executor::run_tiled` call over a batch (root).
    Executor,
    /// One executor tile: read prep, seeds, record assembly (the glue the
    /// pipeline's own tile function does), parent of the calls below.
    Tile,
    /// One `PrefilterIndex::shortlist` call (one read).
    Shortlist,
    /// One `DeviceBackend::map_batch_shortlisted` call (one tile).
    Backend,
    /// The extension stage for one read: the candidate loop.
    Extension,
    /// One `align_packed` call inside the extension stage.
    Align,
    /// One serving request, send to reply, on the client (root).
    Request,
}

impl Layer {
    /// The span name written to the span file.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Executor => "executor.run_tiled",
            Self::Tile => "pipeline.tile",
            Self::Shortlist => "prefilter.shortlist",
            Self::Backend => "backend.map_batch_shortlisted",
            Self::Extension => "extension.read",
            Self::Align => "extension.align_packed",
            Self::Request => "serve.request",
        }
    }
}

/// One finished span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Which layer boundary it wraps.
    pub layer: Layer,
    /// Unique id (thread number in the high bits, never 0).
    pub id: u64,
    /// The enclosing span's id, or 0 for a root.
    pub parent: u64,
    /// The batch id or request id it served.
    pub key: u64,
    /// Start, in nanoseconds since the process epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the process epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

type Buffer = Arc<Mutex<Vec<Span>>>;

static REGISTRY: Mutex<Vec<Buffer>> = Mutex::new(Vec::new());
static THREADS: AtomicU64 = AtomicU64::new(1);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

struct Local {
    thread: u64,
    next: Cell<u64>,
    buffer: Buffer,
}

impl Local {
    fn register() -> Self {
        let buffer: Buffer = Arc::new(Mutex::new(Vec::with_capacity(1024)));
        REGISTRY
            .lock()
            .expect("span registry lock")
            .push(Arc::clone(&buffer));
        Self {
            thread: THREADS.fetch_add(1, Ordering::Relaxed),
            next: Cell::new(1),
            buffer,
        }
    }
}

thread_local! {
    static LOCAL: Local = Local::register();
}

/// A span that has started and not yet ended.
#[derive(Debug)]
pub struct Open {
    layer: Layer,
    id: u64,
    parent: u64,
    key: u64,
    start: Instant,
}

impl Open {
    /// This span's id, for its children's `parent`.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// Starts a span.
#[must_use]
pub fn open(layer: Layer, parent: u64, key: u64) -> Open {
    let id = LOCAL.with(|local| {
        let n = local.next.get();
        local.next.set(n + 1);
        (local.thread << 40) | n
    });
    epoch();
    Open {
        layer,
        id,
        parent,
        key,
        start: Instant::now(),
    }
}

/// Ends a span and appends it to this thread's buffer.
pub fn close(open: Open) {
    let end = Instant::now();
    let zero = epoch();
    let span = Span {
        layer: open.layer,
        id: open.id,
        parent: open.parent,
        key: open.key,
        start_ns: open.start.saturating_duration_since(zero).as_nanos() as u64,
        end_ns: end.saturating_duration_since(zero).as_nanos() as u64,
    };
    LOCAL.with(|local| local.buffer.lock().expect("span buffer lock").push(span));
}

/// Takes every recorded span out of every thread's buffer. Call only when
/// the traced work has joined; buffers of threads that have exited are
/// released.
#[must_use]
pub fn drain() -> Vec<Span> {
    let mut registry = REGISTRY.lock().expect("span registry lock");
    let mut spans = Vec::new();
    for buffer in registry.iter() {
        spans.append(&mut buffer.lock().expect("span buffer lock"));
    }
    registry.retain(|buffer| Arc::strong_count(buffer) > 1);
    spans.sort_by_key(|s| (s.start_ns, s.id));
    spans
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
#[must_use]
pub fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        let end = end.min(hi);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// Each span's self time: its duration minus the part of its interval
/// covered by its children. Returned in input order.
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for span in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(span.parent)
            .or_default()
            .push((span.start_ns, span.end_ns));
    }
    spans
        .iter()
        .map(|span| {
            let inner = children
                .get_mut(&span.id)
                .map_or(0, |c| covered(c, span.start_ns, span.end_ns));
            span.duration_ns() - inner
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            layer: Layer::Tile,
            id,
            parent,
            key: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        assert_eq!(self_times(&[span(1, 0, 10, 35)]), vec![25]);
    }

    #[test]
    fn disjoint_children_are_subtracted() {
        let spans = [span(1, 0, 0, 100), span(2, 1, 10, 30), span(3, 1, 50, 60)];
        assert_eq!(self_times(&spans), vec![70, 20, 10]);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Two workers' tiles overlap in [20, 40): the parent is covered by
        // [10, 60) only once.
        let spans = [span(1, 0, 0, 100), span(2, 1, 10, 40), span(3, 1, 20, 60)];
        assert_eq!(self_times(&spans)[0], 50);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = [
            span(1, 0, 100, 200),
            span(2, 1, 50, 120),
            span(3, 1, 190, 260),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 20 - 10);
    }

    #[test]
    fn grandchildren_only_reduce_their_own_parent() {
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 0, 50),
            span(3, 2, 10, 40),
            span(4, 2, 30, 45),
        ];
        assert_eq!(self_times(&spans), vec![50, 15, 30, 15]);
    }

    #[test]
    fn recorded_spans_nest_and_drain() {
        let root = open(Layer::Executor, 0, 7);
        let root_id = root.id();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let child = open(Layer::Tile, root_id, 7);
                close(child);
            });
        });
        close(root);
        let spans: Vec<Span> = drain().into_iter().filter(|s| s.key == 7).collect();
        assert_eq!(spans.len(), 2);
        let parent = spans.iter().find(|s| s.parent == 0).unwrap();
        let child = spans.iter().find(|s| s.parent == root_id).unwrap();
        assert_eq!(parent.id, root_id);
        assert_ne!(child.id, parent.id);
        assert!(parent.start_ns <= child.start_ns && child.end_ns <= parent.end_ns);
    }
}
