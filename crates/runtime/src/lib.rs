//! `mcqa-runtime` — a Parsl-style workflow runtime at node scale.
//!
//! The paper's pipeline runs on ALCF supercomputers under Parsl: stages are
//! fleets of independent tasks, dynamically load-balanced, with per-stage
//! accounting. This crate reproduces those semantics for a single node:
//!
//! * `executor` — a persistent thread pool over one shared queue
//!   (`Mutex<VecDeque>` + `Condvar`, std only): idle workers sleep until a
//!   submission wakes one, task panics are isolated per task, executions
//!   are counted per worker. The [`Executor`] handle is the `Arc`-backed
//!   view library crates accept so their batch APIs run on the caller's
//!   pool; [`Executor::global`] is the ambient default for call sites with
//!   no pipeline pool in scope.
//! * `stage` — [`run_stage`]: an ordered parallel map over a task list
//!   that returns the values and a [`metrics::StageMetrics`] record — the
//!   building block `mcqa-core`, `mcqa-eval` and every batch API assemble
//!   their workflows from. Items go to the pool in batches sized from the
//!   item and worker counts (about eight per worker); the calling thread
//!   keeps a stage's last batch and assists with the rest. A task that
//!   panics fails the stage: the panic resumes on the caller once every
//!   other batch has finished.
//! * `metrics` — stage metrics (items in, records out, seconds) and the
//!   run report printed by the Figure-1 reproduction.

pub(crate) mod executor;
pub(crate) mod metrics;
pub(crate) mod stage;

pub use executor::Executor;
pub use metrics::{RunReport, StageMetrics};
pub use stage::run_stage;
