//! Deterministic tracing and time-series telemetry for pagesim.
//!
//! This crate gives the simulator a temporal record to go with its
//! end-of-run scalars: the paper's headline results — aging-thread CPU
//! contention, refault bursts around working-set shifts, scheduling-phase
//! variance — are all stories about *when* things happen, and `RunMetrics`
//! alone cannot show them.
//!
//! Three pieces:
//!
//! - [`Tracer`] — an interval sampler plus bounded [`EventRing`], driven
//!   entirely by simulated time (never a wall clock; pagesim-lint rule L2
//!   is enforced on this crate). The kernel drains due sample boundaries
//!   before processing each event, so the trace is a pure function of the
//!   trial: byte-identical across hosts and `--jobs` settings.
//! - Exporters — [`TraceData::to_jsonl`] for line-oriented analysis and
//!   [`TraceData::to_chrome_trace`] for the Chrome `trace_event` format
//!   (loadable in Perfetto / `chrome://tracing`, with per-core scheduling
//!   tracks, VM counter tracks, and async major-fault spans).
//! - A validator — [`Schema`] / [`validate_jsonl`] and the
//!   `trace-validate` binary check exported JSONL against the checked-in
//!   schema (`schema/trace-jsonl.schema`) so CI can gate on it.
//!
//! `pagesim` always compiles its tracing hooks in and attaches a tracer
//! at run time: an untraced run takes one branch per hook, and a traced
//! run returns exactly the metrics an untraced one does.

mod event;
mod export;
mod schema;
mod tracer;

pub use event::{EventRing, ThreadKind, TraceEvent};
pub use schema::{validate_jsonl, RecordSpec, Schema, BUILTIN_SCHEMA};
pub use tracer::{CoreOcc, Sample, TraceConfig, TraceData, TraceMeta, Tracer};
