//! # hasp-experiments — regenerating the paper's evaluation
//!
//! The §5 methodology (profile → compile → marker-bounded timing samples →
//! weighted per-phase reporting) and regenerators for every table and figure
//! of *Hardware Atomicity for Reliable Software Speculation* (ISCA 2007).
//! Every experiment run asserts bit-exact checksum equivalence between the
//! interpreter and the simulated machine, so the numbers can never come from
//! broken speculation.
//!
//! Run the `experiments` binary to print all tables:
//!
//! ```bash
//! cargo run --release -p hasp-experiments --bin experiments
//! ```

#![warn(missing_docs)]

pub mod adaptive;
pub mod dispatch_bench;
pub mod faults;
pub mod figures;
pub mod reform;
pub mod report;
pub mod runner;
pub mod service;
pub mod suite;

pub use dispatch_bench::{DispatchBenchReport, DispatchRow};
pub use faults::{
    run_campaign, run_knee, sweep_rates, CampaignReport, FaultCell, KneeReport, KneeRow,
    KNEE_RATE_CAP, KNEE_THRESHOLD,
};
pub use reform::{run_reform_quanta, ReformOutcome, ReformQuantum, MAX_QUANTA};
pub use runner::{
    compile_workload, execute_compiled, profile_workload, run_workload, try_execute_compiled,
    try_execute_compiled_with, CellError, CompiledWorkload, ProfiledWorkload, SampleMeasure,
    WorkloadRun,
};
pub use service::{
    build_schedule, build_service_cache, build_tenants, run_leg, run_mt, run_service,
    DirectoryCounters, LegOutcome, LegSummary, PoolReport, ServiceCache, Tenant, TenantClass,
    TenantShard, WorkerShard,
};
pub use suite::{hw_sweep, MatrixCell, Suite};
