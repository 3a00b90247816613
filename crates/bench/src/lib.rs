//! # hasp-bench — the Criterion benchmark harness
//!
//! Three benches, all `cargo bench`-able individually with `--bench`:
//!
//! * `benches/paper.rs` — regenerates every table and figure of the
//!   paper's evaluation.
//! * `benches/ablations.rs` — the ablation studies for the design choices
//!   DESIGN.md calls out (region size target, cold threshold, SLE, partial
//!   inlining, §7 check elimination and adaptive recompilation).
//! * `benches/memmodel.rs` — micro-benchmarks isolating the three
//!   dynamic-access tiers of the cache model's memory path (way-predictor
//!   hit, full scan hit, install — DESIGN §16).
//!
//! The library itself exports [`scaffold`]: the warm-then-interleaved
//! best-of-reps timing discipline shared by the `bench-dispatch` and `mt`
//! wall-clock artifacts.

#![warn(missing_docs)]

pub mod scaffold;

pub use scaffold::{best_of_interleaved, Interleaved};
