//! # hasp-bench — the wall-clock timing scaffold
//!
//! One module, [`scaffold`]: the warm-then-interleaved best-of-reps timing
//! discipline shared by the `bench-dispatch` and worker-pool (`serve`,
//! `mt`) wall-clock artifacts of the `experiments` driver. The paper's
//! tables and the ablation studies are printed by that driver; per-layer
//! timings come from `perfbench`.

#![warn(missing_docs)]

pub mod scaffold;

pub use scaffold::{best_of_interleaved, Interleaved};
