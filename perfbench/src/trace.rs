//! In-memory span recorder for the traced run.
//!
//! Spans wrap the benchmark's own calls into each layer (name, start, end,
//! parent span, op id). Self time is the span's duration minus the time its
//! child spans cover, computed as spans close, so per-layer totals are exact
//! even after the kept-span buffer is full. Each thread keeps its own stack
//! and totals and hands them to the global sink whenever its outermost span
//! closes, so the sweep workers never contend per span.
//!
//! With tracing off (the default) every entry point is one relaxed atomic
//! load followed by the wrapped call.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Spans kept verbatim for the JSONL dump; later spans still count toward
/// the per-layer totals.
const MAX_KEPT_SPANS: usize = 50_000;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static KEPT: AtomicUsize = AtomicUsize::new(0);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static SINK: Mutex<Sink> = Mutex::new(Sink::new());

/// Accumulated totals for one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanStat {
    /// Spans closed.
    pub calls: u64,
    /// Σ span duration, ns.
    pub total_ns: u64,
    /// Σ (duration − child coverage), ns.
    pub self_ns: u64,
}

impl SpanStat {
    fn merge(&mut self, o: &SpanStat) {
        self.calls += o.calls;
        self.total_ns += o.total_ns;
        self.self_ns += o.self_ns;
    }

    /// Self time, ms.
    pub fn self_ms(&self) -> f64 {
        self.self_ns as f64 / 1e6
    }
}

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    op: u64,
    id: u64,
    parent: u64,
    start_ns: u64,
    end_ns: u64,
}

#[derive(Debug)]
struct Sink {
    stats: BTreeMap<&'static str, SpanStat>,
    counters: BTreeMap<&'static str, f64>,
    spans: Vec<Span>,
}

impl Sink {
    const fn new() -> Self {
        Self {
            stats: BTreeMap::new(),
            counters: BTreeMap::new(),
            spans: Vec::new(),
        }
    }
}

struct Open {
    name: &'static str,
    id: u64,
    start_ns: u64,
    child_ns: u64,
}

#[derive(Default)]
struct Local {
    op: u64,
    stack: Vec<Open>,
    stats: BTreeMap<&'static str, SpanStat>,
    counters: BTreeMap<&'static str, f64>,
    spans: Vec<Span>,
}

impl Local {
    fn flush(&mut self) {
        let mut sink = SINK
            .lock()
            .expect("trace sink poisoned by a panicking span");
        for (name, s) in std::mem::take(&mut self.stats) {
            sink.stats.entry(name).or_default().merge(&s);
        }
        for (name, v) in std::mem::take(&mut self.counters) {
            *sink.counters.entry(name).or_default() += v;
        }
        sink.spans.append(&mut self.spans);
    }
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local::default());
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turn recording on for the rest of the process.
pub fn enable() {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Whether spans are being recorded.
fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Run `f` as the root span `name` of op `op`: every span opened inside it
/// on this thread carries the op id.
pub fn op<R>(op: u64, name: &'static str, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    LOCAL.with(|l| l.borrow_mut().op = op);
    span(name, f)
}

/// Run `f` inside the span `name`.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    LOCAL.with(|l| {
        l.borrow_mut().stack.push(Open {
            name,
            id,
            start_ns: now_ns(),
            child_ns: 0,
        })
    });
    let out = f();
    let end_ns = now_ns();
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let open = l.stack.pop().expect("span stack balanced");
        let dur = end_ns.saturating_sub(open.start_ns);
        let parent = match l.stack.last_mut() {
            Some(p) => {
                p.child_ns += dur;
                p.id
            }
            None => 0,
        };
        let st = l.stats.entry(open.name).or_default();
        st.calls += 1;
        st.total_ns += dur;
        st.self_ns += dur.saturating_sub(open.child_ns);
        if KEPT.fetch_add(1, Ordering::Relaxed) < MAX_KEPT_SPANS {
            let op = l.op;
            l.spans.push(Span {
                name: open.name,
                op,
                id: open.id,
                parent,
                start_ns: open.start_ns,
                end_ns,
            });
        }
        if l.stack.is_empty() {
            l.flush();
        }
    });
    out
}

/// Add `by` to the counter `name` (a count made at a layer boundary).
pub fn count(name: &'static str, by: f64) {
    if !enabled() {
        return;
    }
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        *l.counters.entry(name).or_default() += by;
        if l.stack.is_empty() {
            l.flush();
        }
    });
}

/// Drop every open span on this thread after a caught panic, so the next
/// op starts from an empty stack. The spans' totals are lost.
pub fn reset_thread() {
    if !enabled() {
        return;
    }
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.stack.clear();
        l.flush();
    });
}

/// Per-name span totals so far.
pub fn stat(name: &str) -> SpanStat {
    let sink = SINK
        .lock()
        .expect("trace sink poisoned by a panicking span");
    sink.stats.get(name).copied().unwrap_or_default()
}

/// A counter's value so far.
pub fn counter(name: &str) -> f64 {
    let sink = SINK
        .lock()
        .expect("trace sink poisoned by a panicking span");
    sink.counters.get(name).copied().unwrap_or(0.0)
}

/// Write every kept span as one JSON object per line, then one summary
/// line with the per-name totals and the number of spans not kept.
pub fn write_jsonl(path: &std::path::Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let sink = SINK
        .lock()
        .expect("trace sink poisoned by a panicking span");
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in &sink.spans {
        writeln!(
            w,
            "{{\"name\":\"{}\",\"op\":{},\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.op, s.id, s.parent, s.start_ns, s.end_ns
        )?;
    }
    let total: u64 = sink.stats.values().map(|s| s.calls).sum();
    let mut line = format!(
        "{{\"summary\":true,\"kept\":{},\"not_kept\":{},\"stats\":{{",
        sink.spans.len(),
        total.saturating_sub(sink.spans.len() as u64)
    );
    for (i, (name, s)) in sink.stats.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        line.push_str(&format!(
            "\"{name}\":{{\"calls\":{},\"total_ns\":{},\"self_ns\":{}}}",
            s.calls, s.total_ns, s.self_ns
        ));
    }
    line.push_str("}}");
    writeln!(w, "{line}")?;
    w.flush()
}
