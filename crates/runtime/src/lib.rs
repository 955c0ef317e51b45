//! `mcqa-runtime` — a Parsl-style workflow runtime at node scale.
//!
//! The paper's pipeline runs on ALCF supercomputers under Parsl: stages are
//! fleets of independent tasks, dynamically load-balanced, with per-stage
//! accounting. This crate reproduces those semantics for a single node:
//!
//! * [`executor`] — a persistent thread pool over one shared queue
//!   (`Mutex<VecDeque>` + `Condvar`, std only): idle workers sleep until a
//!   submission wakes one, task panics are isolated per task, executions
//!   are counted per worker. The [`Executor`] handle is the `Arc`-backed
//!   view library crates accept so their batch APIs run on the caller's
//!   pool; [`Executor::global`] is the ambient default for call sites with
//!   no pipeline pool in scope.
//! * [`stage`] — `run_stage` / `run_stage_batched`: ordered parallel maps
//!   over a task list with error isolation and a
//!   [`metrics::StageMetrics`] record — the building blocks `mcqa-core`
//!   and `mcqa-eval` assemble their workflows from. The batched variant
//!   submits chunks of items per pool task (granularity picked by
//!   [`auto_batch_size`]), the perf lever for high-item-count stages. The
//!   calling thread keeps a stage's last task and assists with the rest.
//! * [`metrics`] — stage metrics and the run report printed by the
//!   Figure-1 reproduction.

pub mod executor;
pub mod metrics;
pub mod stage;

pub use executor::{Executor, PoolStats};
pub use metrics::{RunReport, StageMetrics};
pub use stage::{auto_batch_size, run_stage, run_stage_batched, TaskError};
