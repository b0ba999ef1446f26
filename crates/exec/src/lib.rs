//! # emoleak-exec
//!
//! The deterministic parallel execution engine for the EmoLeak pipeline.
//!
//! Every paper artifact (Tables I–VII, Figures 2–7, the robustness sweep)
//! harvests accelerometer clips and trains classifier grids over them. Those
//! units of work are embarrassingly parallel — but the seed numbers in
//! EXPERIMENTS.md are the repo's regression baseline, so parallelism is only
//! shippable if it is **bit-for-bit deterministic**: the same scenario must
//! produce byte-identical feature matrices and confusion tables whether it
//! runs on 1 worker or 64.
//!
//! Three ingredients make that hold, and this crate provides all of them:
//!
//! 1. **Index-keyed RNG streams** ([`derive_seed`]): instead of one
//!    sequential RNG whose consumption order would depend on scheduling,
//!    every work item derives its own stream from `(campaign_seed, index)`
//!    via SplitMix64. Which worker runs the item is then irrelevant.
//! 2. **Index-ordered collection** ([`par_map_indexed`]): results are placed
//!    into their input slot, never appended in completion order.
//! 3. **Index-ordered reduction** ([`reduce::sum_ordered`]): floating-point
//!    addition is not associative, so parallel results are *combined* by a
//!    single sequential left fold over the index order — never by a
//!    scheduling-dependent reduction tree.
//!
//! The [`pool`] has two entry points that share one dealing and stealing
//! loop: [`par_map_vec_indexed`] runs owned items on a process-wide set of
//! parked workers (the fleet's shards with queued chunks, on a tick where
//! several have them), and [`par_map_indexed`] runs borrowed items on
//! scoped threads spawned for the call (campaign work). In both the caller
//! works as worker 0, and a panic in a work item
//! reaches the caller with its original payload. A region entered from
//! inside a running region runs serially, which bounds the threads
//! *running* a region's work at the worker count; parked workers sit idle.
//!
//! The worker count comes from `EMOLEAK_THREADS` (default:
//! `std::thread::available_parallelism()`), read once per process at the
//! first parallel region, and the determinism tests pin it per call with
//! [`with_threads`] to prove the count cannot affect results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cancel;
pub mod env;
pub mod pool;
pub mod reduce;
pub mod rng;

pub use cancel::Deadline;
pub use env::{parse_checked, parse_list_checked, EnvError};
pub use pool::{par_map_indexed, par_map_vec_indexed, threads, with_threads};
pub use reduce::sum_ordered;
pub use rng::{derive_seed, splitmix64};
