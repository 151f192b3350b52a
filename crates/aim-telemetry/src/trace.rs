//! Cross-thread trace context and Chrome trace-event export.
//!
//! Span trees are thread-local ([`crate::span`](mod@crate::span)), so a scoped worker
//! thread's spans used to vanish when the thread joined: the parallel
//! ranking and validation paths showed an empty gap where the workers'
//! time went. This module fixes that with an explicit hand-off:
//!
//! 1. the spawning thread calls [`fork`] to mint a [`TraceContext`];
//! 2. each worker calls [`TraceContext::adopt`] as its *first* action —
//!    the returned guard, on drop (worker exit), drains the worker's
//!    finished span roots into a pending buffer keyed by the context;
//! 3. after joining, the parent calls [`TraceContext::stitch`], which
//!    merges the pending roots — sorted by span name, so the stitched
//!    shape is deterministic regardless of worker timing — into its own
//!    currently open span frame, exactly as if the work had run inline.
//!
//! Independently, [`start_recording`] arms a Chrome `trace_event` recorder:
//! every span close appends a complete (`"ph":"X"`) event with per-thread
//! track IDs, and [`chrome_trace_json`] renders the buffer in the format
//! `chrome://tracing` / Perfetto load directly.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::span::ProfileNode;

/// Pending worker profiles kept at most this many roots; beyond it the
/// oldest are evicted (a stitch that never happens must not leak).
const PENDING_CAP: usize = 4096;

/// Recorded Chrome events are capped; past the cap new events are counted
/// as dropped rather than growing without bound.
const EVENT_CAP: usize = 200_000;

static NEXT_CTX: AtomicU64 = AtomicU64::new(1);
static PENDING: Mutex<Vec<(u64, ProfileNode)>> = Mutex::new(Vec::new());

/// A fork point: identifies the spawning thread's position so worker span
/// subtrees can be stitched back in. Cheap to create and `Copy`-free on
/// purpose (stitch once).
#[derive(Debug)]
pub struct TraceContext {
    id: u64,
}

/// Minted by [`TraceContext::adopt`]; its drop ships the worker thread's
/// finished span roots to the fork point.
#[must_use = "hold the adopt guard for the worker's whole body"]
pub struct AdoptGuard {
    ctx_id: u64,
    active: bool,
}

/// Mints a context for a batch of scoped worker threads. Call on the
/// spawning thread before `std::thread::scope`.
pub fn fork() -> TraceContext {
    TraceContext {
        id: NEXT_CTX.fetch_add(1, Ordering::Relaxed),
    }
}

impl TraceContext {
    /// Adopts the context on a worker thread. Must be the worker's first
    /// action: the guard's drop drains *all* finished span roots of the
    /// thread, which is exactly the worker's own work only if the thread
    /// started clean (scoped threads always do).
    pub fn adopt(&self) -> AdoptGuard {
        AdoptGuard {
            ctx_id: self.id,
            active: crate::is_enabled(),
        }
    }

    /// Merges every pending worker profile for this context into the
    /// calling thread's current span frame (or its finished roots when no
    /// span is open). Roots merge in span-name order, so profiles stitched
    /// from racing workers are deterministic. Returns the number of roots
    /// stitched.
    pub fn stitch(&self) -> usize {
        let mut roots: Vec<ProfileNode> = {
            let mut pending = PENDING.lock().unwrap_or_else(|e| e.into_inner());
            let mut mine = Vec::new();
            pending.retain_mut(|(id, node)| {
                if *id == self.id {
                    mine.push(std::mem::take(node));
                    false
                } else {
                    true
                }
            });
            mine
        };
        if roots.is_empty() {
            return 0;
        }
        roots.sort_by(|a, b| a.name.cmp(&b.name));
        let n = roots.len();
        for root in roots {
            crate::span::graft(root);
        }
        crate::metrics::TRACE_SPANS_STITCHED.add(n as u64);
        n
    }
}

impl Drop for AdoptGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let profile = crate::span::take_profile();
        if profile.children.is_empty() {
            return;
        }
        let mut pending = PENDING.lock().unwrap_or_else(|e| e.into_inner());
        for root in profile.children {
            if pending.len() >= PENDING_CAP {
                pending.remove(0);
            }
            pending.push((self.ctx_id, root));
        }
    }
}

/// Number of worker profiles waiting to be stitched (diagnostics/tests).
pub fn pending_len() -> usize {
    PENDING.lock().unwrap_or_else(|e| e.into_inner()).len()
}

// ------------------------------------------------------- chrome recorder

static RECORDING: AtomicBool = AtomicBool::new(false);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

#[derive(Debug, Clone)]
struct ChromeEvent {
    name: &'static str,
    /// Microseconds since the recording epoch.
    ts_us: f64,
    dur_us: f64,
    tid: u64,
}

struct Recorder {
    epoch: Instant,
    events: Vec<ChromeEvent>,
    dropped: u64,
}

static RECORDER: Mutex<Option<Recorder>> = Mutex::new(None);

/// Arms the Chrome trace-event recorder: from now on every span close is
/// recorded as a complete event. Clears any previous recording.
pub fn start_recording() {
    let mut rec = RECORDER.lock().unwrap_or_else(|e| e.into_inner());
    *rec = Some(Recorder {
        epoch: Instant::now(),
        events: Vec::new(),
        dropped: 0,
    });
    RECORDING.store(true, Ordering::Relaxed);
}

/// Disarms the recorder, keeping the buffer for [`chrome_trace_json`].
/// Returns the number of events captured.
pub fn stop_recording() -> usize {
    RECORDING.store(false, Ordering::Relaxed);
    RECORDER
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .as_ref()
        .map(|r| r.events.len())
        .unwrap_or(0)
}

/// Called by the span layer on every close while recording is armed.
pub(crate) fn record_closed(name: &'static str, start: Instant, dur: Duration) {
    if !RECORDING.load(Ordering::Relaxed) {
        return;
    }
    let tid = TID.try_with(|t| *t).unwrap_or(0);
    let mut rec = RECORDER.lock().unwrap_or_else(|e| e.into_inner());
    let Some(rec) = rec.as_mut() else { return };
    if rec.events.len() >= EVENT_CAP {
        rec.dropped += 1;
        return;
    }
    let ts = start
        .checked_duration_since(rec.epoch)
        .unwrap_or(Duration::ZERO);
    rec.events.push(ChromeEvent {
        name,
        ts_us: ts.as_secs_f64() * 1e6,
        dur_us: dur.as_secs_f64() * 1e6,
        tid,
    });
}

/// Renders the recorded buffer in the Chrome `trace_event` JSON format
/// (object form). Loadable by `chrome://tracing` and Perfetto.
pub fn chrome_trace_json() -> String {
    let rec = RECORDER.lock().unwrap_or_else(|e| e.into_inner());
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    if let Some(rec) = rec.as_ref() {
        for (i, e) in rec.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"aim\",\"ph\":\"X\",\"ts\":{:.3},\
                 \"dur\":{:.3},\"pid\":1,\"tid\":{}}}",
                crate::report::json_escape(e.name),
                e.ts_us,
                e.dur_us,
                e.tid
            ));
        }
    }
    let dropped = rec.as_ref().map(|r| r.dropped).unwrap_or(0);
    out.push_str(&format!("],\"aimEventsDropped\":{dropped}}}"));
    out
}

/// Number of events currently buffered.
pub fn events_recorded() -> usize {
    RECORDER
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .as_ref()
        .map(|r| r.events.len())
        .unwrap_or(0)
}

/// Writes [`chrome_trace_json`] to `path`, creating parent directories.
pub fn write_chrome_trace(path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
    let path = path.as_ref();
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, chrome_trace_json())
}

/// Disarms the recorder and clears the event buffer and pending worker
/// profiles.
pub fn reset() {
    RECORDING.store(false, Ordering::Relaxed);
    *RECORDER.lock().unwrap_or_else(|e| e.into_inner()) = None;
    PENDING.lock().unwrap_or_else(|e| e.into_inner()).clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span;

    #[test]
    fn worker_spans_stitch_into_parent_tree() {
        let _g = crate::tests::lock();
        crate::reset();
        crate::enable();
        {
            let _outer = crate::span("parent_phase");
            let ctx = fork();
            std::thread::scope(|scope| {
                for i in 0..3 {
                    let ctx = &ctx;
                    scope.spawn(move || {
                        let _adopt = ctx.adopt();
                        let _w = crate::span("worker_unit");
                        if i == 0 {
                            let _n = crate::span("nested");
                        }
                    });
                }
            });
            let stitched = ctx.stitch();
            assert_eq!(stitched, 3, "one root per worker before merging");
        }
        crate::disable();
        let p = span::take_profile();
        let unit = p
            .descendant("parent_phase/worker_unit")
            .expect("worker spans merged under the open parent span");
        assert_eq!(unit.count, 3);
        assert_eq!(unit.child("nested").map(|n| n.count), Some(1));
        assert_eq!(pending_len(), 0);
        assert_eq!(crate::metrics::TRACE_SPANS_STITCHED.get(), 3);
        crate::reset();
    }

    #[test]
    fn stitch_without_open_span_lands_in_finished_roots() {
        let _g = crate::tests::lock();
        crate::reset();
        crate::enable();
        let ctx = fork();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let _adopt = ctx.adopt();
                let _w = crate::span("orphan_work");
            });
        });
        assert_eq!(ctx.stitch(), 1);
        crate::disable();
        let p = span::take_profile();
        assert_eq!(p.child("orphan_work").map(|n| n.count), Some(1));
        crate::reset();
    }

    #[test]
    fn adopt_is_inert_while_disabled_and_contexts_do_not_cross() {
        let _g = crate::tests::lock();
        crate::reset();
        crate::disable();
        let ctx = fork();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let _adopt = ctx.adopt();
                let _w = crate::span("invisible");
            });
        });
        assert_eq!(ctx.stitch(), 0);
        assert_eq!(pending_len(), 0);

        // Two contexts: each stitch only claims its own workers.
        crate::enable();
        let (a, b) = (fork(), fork());
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let _adopt = a.adopt();
                let _w = crate::span("a_work");
            });
            scope.spawn(|| {
                let _adopt = b.adopt();
                let _w = crate::span("b_work");
            });
        });
        assert_eq!(a.stitch(), 1);
        assert_eq!(pending_len(), 1, "b's profile still pending");
        assert_eq!(b.stitch(), 1);
        crate::disable();
        let p = span::take_profile();
        assert!(p.child("a_work").is_some() && p.child("b_work").is_some());
        crate::reset();
    }

    #[test]
    fn chrome_recording_captures_span_closes() {
        let _g = crate::tests::lock();
        crate::reset();
        crate::enable();
        start_recording();
        {
            let _a = crate::span("traced_outer");
            let _b = crate::span("traced_inner");
        }
        let n = stop_recording();
        assert_eq!(n, 2, "both spans recorded");
        crate::disable();
        let json = chrome_trace_json();
        let doc = crate::jsonv::parse(&json).expect("chrome trace parses");
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 2);
        // Inner closes first; complete events carry phase X and a tid.
        assert_eq!(events[0].get("name").unwrap().as_str(), Some("traced_inner"));
        assert_eq!(events[0].get("ph").unwrap().as_str(), Some("X"));
        assert!(events[0].get("tid").unwrap().as_f64().unwrap() >= 1.0);
        // Disarmed: further closes are not recorded.
        crate::enable();
        {
            let _c = crate::span("after_stop");
        }
        crate::disable();
        assert_eq!(events_recorded(), 2);
        crate::reset();
        assert_eq!(events_recorded(), 0);
        crate::span::reset();
    }
}
