//! The evaluation driver (§5 methodology): profile with the interpreter,
//! compile under a configuration, execute on the simulated machine, and
//! extract marker-bounded samples. Every run cross-checks the machine's
//! observable checksum against the interpreter's — a functional-equivalence
//! assertion built into the experiment harness itself.

use std::collections::HashMap;

use hasp_hw::{lower, CodeCache, HwConfig, Machine, MachineFault, RunStats};
use hasp_opt::{compile_program, CompiledMethod, CompilerConfig};
use hasp_vm::bytecode::MethodId;
use hasp_vm::interp::Interp;
use hasp_vm::profile::Profile;
use hasp_workloads::Workload;

/// Why one (workload × compiler × hardware) cell failed.
///
/// Cells fail as *values* so one malformed configuration degrades to a
/// recorded failure instead of killing its `Suite::run_all` worker thread.
#[derive(Debug, Clone, PartialEq)]
pub enum CellError {
    /// The machine faulted (VM trap, hardware misuse, invariant violation).
    Machine(MachineFault),
    /// The run completed but its checksum diverged from the interpreter's —
    /// speculation broke semantics.
    ChecksumDivergence {
        /// The interpreter's reference checksum.
        expected: i64,
        /// The machine's observed checksum.
        got: i64,
    },
    /// A sample's bounding marker never retired (ordinal 1 or 2 missing).
    MarkerMissing {
        /// The sample's marker id.
        marker: u32,
        /// Which hit ordinal was absent.
        ordinal: u64,
    },
}

impl std::fmt::Display for CellError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CellError::Machine(e) => write!(f, "machine fault: {e}"),
            CellError::ChecksumDivergence { expected, got } => write!(
                f,
                "checksum divergence: expected {expected}, got {got} — \
                 speculation broke semantics"
            ),
            CellError::MarkerMissing { marker, ordinal } => {
                write!(f, "marker {marker} hit #{ordinal} missing")
            }
        }
    }
}

impl std::error::Error for CellError {}

impl From<MachineFault> for CellError {
    fn from(e: MachineFault) -> Self {
        CellError::Machine(e)
    }
}

/// Profiling results for one workload.
#[derive(Debug)]
pub struct ProfiledWorkload {
    /// Interpreter-collected profile.
    pub profile: Profile,
    /// The reference checksum every compiled run must reproduce.
    pub reference_checksum: i64,
    /// Bytecode instructions the interpreter executed.
    pub interp_steps: u64,
}

/// Runs the profiling interpretation pass.
///
/// # Panics
/// Panics if the workload itself fails to execute.
pub fn profile_workload(w: &Workload) -> ProfiledWorkload {
    let mut interp = Interp::new(&w.program).with_profiling();
    interp.set_fuel(w.fuel);
    interp
        .run(&[])
        .unwrap_or_else(|e| panic!("workload {} failed to interpret: {e}", w.name));
    ProfiledWorkload {
        profile: interp.profile,
        reference_checksum: interp.env.checksum(),
        interp_steps: interp.steps,
    }
}

/// One marker-bounded sample measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleMeasure {
    /// Marker id bounding this sample.
    pub marker: u32,
    /// Phase weight.
    pub weight: f64,
    /// uops retired within the sample.
    pub uops: u64,
    /// Cycles within the sample.
    pub cycles: u64,
}

/// Results of one (workload × compiler × hardware) execution.
///
/// `PartialEq` is derived so parallel pipeline output can be asserted
/// bit-identical to a serial run.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadRun {
    /// Workload name.
    pub workload: &'static str,
    /// Compiler configuration name.
    pub compiler: &'static str,
    /// Hardware configuration name.
    pub hardware: &'static str,
    /// Full-run machine statistics.
    pub stats: RunStats,
    /// Per-sample measurements.
    pub samples: Vec<SampleMeasure>,
    /// Static uops in the code cache (code-size signal).
    pub static_uops: usize,
    /// Seal-site way-predictor counters (DESIGN §16). Deliberately outside
    /// [`RunStats`]: the predictor is architecturally transparent, so the
    /// equivalence gates compare `stats` field-for-field between predicted
    /// and unpredicted configurations — these counters are where the two
    /// runs are allowed to differ.
    pub pred: hasp_hw::PredStats,
}

impl WorkloadRun {
    /// Weighted sample uops.
    pub fn weighted_uops(&self) -> f64 {
        self.samples.iter().map(|s| s.weight * s.uops as f64).sum()
    }

    /// Weighted mean of per-sample speedups over a baseline run
    /// (§5: samples weighted by phase contribution). Returns percent.
    pub fn speedup_vs(&self, base: &WorkloadRun) -> f64 {
        let mut acc = 0.0;
        for (s, b) in self.samples.iter().zip(&base.samples) {
            debug_assert_eq!(s.marker, b.marker);
            if s.cycles > 0 {
                acc += s.weight * (b.cycles as f64 / s.cycles as f64);
            }
        }
        (acc - 1.0) * 100.0
    }

    /// Weighted uop reduction over a baseline run, in percent.
    pub fn uop_reduction_vs(&self, base: &WorkloadRun) -> f64 {
        let mut acc = 0.0;
        for (s, b) in self.samples.iter().zip(&base.samples) {
            if b.uops > 0 {
                acc += s.weight * (s.uops as f64 / b.uops as f64);
            }
        }
        (1.0 - acc) * 100.0
    }
}

/// A workload compiled and lowered under one compiler configuration.
///
/// Compilation depends only on (workload, compiler), so one product is
/// shared across every hardware configuration — and, being immutable, across
/// worker threads.
#[derive(Debug, Clone)]
pub struct CompiledWorkload {
    /// Compiler configuration name this product was built under.
    pub compiler: &'static str,
    /// Lowered machine code for every method.
    pub code: CodeCache,
    /// Static uops in the code cache (code-size signal).
    pub static_uops: usize,
}

/// Runs the compile + lower pipeline for one (workload × compiler) pair.
pub fn compile_workload(
    w: &Workload,
    profiled: &ProfiledWorkload,
    ccfg: &CompilerConfig,
) -> CompiledWorkload {
    lower_program(
        ccfg.name,
        &compile_program(&w.program, &profiled.profile, ccfg),
    )
}

/// Lowers and installs every method of a program compiled under the
/// configuration named `compiler`.
pub(crate) fn lower_program(
    compiler: &'static str,
    compiled: &HashMap<MethodId, CompiledMethod>,
) -> CompiledWorkload {
    let mut code = CodeCache::new();
    for (m, c) in compiled {
        code.install(*m, lower(&c.func));
    }
    let static_uops = code.static_uops();
    CompiledWorkload {
        compiler,
        code,
        static_uops,
    }
}

/// Extracts the marker-bounded sample measurements from a run's statistics.
///
/// # Errors
/// Returns [`CellError::MarkerMissing`] when a sample's bounding marker
/// never retired.
pub fn extract_samples(w: &Workload, stats: &RunStats) -> Result<Vec<SampleMeasure>, CellError> {
    w.samples
        .iter()
        .map(|s| {
            let snap = |ordinal: u64| {
                stats
                    .markers
                    .iter()
                    .find(|m| m.id == s.marker && m.ordinal == ordinal)
                    .ok_or(CellError::MarkerMissing {
                        marker: s.marker,
                        ordinal,
                    })
            };
            let start = snap(1)?;
            let end = snap(2)?;
            Ok(SampleMeasure {
                marker: s.marker,
                weight: s.weight,
                uops: end.uops - start.uops,
                cycles: end.cycles - start.cycles,
            })
        })
        .collect()
}

/// Executes an already-compiled workload on `hw`, returning failures as
/// values.
///
/// # Errors
/// Returns a [`CellError`] when the machine faults, the checksum diverges
/// from the interpreter's, or a sample marker is missing.
pub fn try_execute_compiled(
    w: &Workload,
    profiled: &ProfiledWorkload,
    compiled: &CompiledWorkload,
    hw: &HwConfig,
) -> Result<WorkloadRun, CellError> {
    try_execute_compiled_with(w, profiled, compiled, hw, |_| {}).map(|(run, _)| run)
}

/// [`try_execute_compiled`] with a pre-run machine hook — the entry point
/// for coherence-attached runs: `setup` typically calls
/// [`Machine::attach_core`], and the returned machine's detached state
/// (core link, stats) comes back alongside the run via the second tuple
/// element, the [`Machine`] itself having been consumed.
pub fn try_execute_compiled_with(
    w: &Workload,
    profiled: &ProfiledWorkload,
    compiled: &CompiledWorkload,
    hw: &HwConfig,
    setup: impl FnOnce(&mut Machine),
) -> Result<(WorkloadRun, Option<hasp_hw::CoreLink>), CellError> {
    let mut mach = Machine::new(&w.program, &compiled.code, hw.clone());
    mach.set_fuel(w.fuel.saturating_mul(4));
    setup(&mut mach);
    mach.run(&[])?;
    if mach.env.checksum() != profiled.reference_checksum {
        return Err(CellError::ChecksumDivergence {
            expected: profiled.reference_checksum,
            got: mach.env.checksum(),
        });
    }
    let stats = mach.stats().clone();
    let pred = mach.way_pred_stats();
    let link = mach.detach_core();
    let samples = extract_samples(w, &stats)?;
    Ok((
        WorkloadRun {
            workload: w.name,
            compiler: compiled.compiler,
            hardware: hw.name,
            stats,
            samples,
            static_uops: compiled.static_uops,
            pred,
        },
        link,
    ))
}

/// Executes an already-compiled workload on `hw`.
///
/// # Panics
/// Panics if the machine's checksum diverges from the interpreter's (a
/// compiler or hardware-model bug) or if a sample marker is missing.
pub fn execute_compiled(
    w: &Workload,
    profiled: &ProfiledWorkload,
    compiled: &CompiledWorkload,
    hw: &HwConfig,
) -> WorkloadRun {
    try_execute_compiled(w, profiled, compiled, hw).unwrap_or_else(|e| {
        panic!(
            "workload {} failed on {}/{}: {e}",
            w.name, compiled.compiler, hw.name
        )
    })
}

/// Compiles the workload under `ccfg` and executes it on `hw`.
///
/// One-shot convenience over [`compile_workload`] + [`execute_compiled`];
/// matrix sweeps should compile once and execute per hardware configuration
/// instead (see `Suite::run_all`).
///
/// # Panics
/// Panics if the machine's checksum diverges from the interpreter's or if a
/// sample marker is missing.
pub fn run_workload(
    w: &Workload,
    profiled: &ProfiledWorkload,
    ccfg: &CompilerConfig,
    hw: &HwConfig,
) -> WorkloadRun {
    execute_compiled(w, profiled, &compile_workload(w, profiled, ccfg), hw)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hasp_opt::CompilerConfig;
    use hasp_workloads::synthetic;

    #[test]
    fn sample_extraction_and_weighted_metrics() {
        let w = synthetic::add_element(1_000);
        let profiled = profile_workload(&w);
        assert!(profiled.interp_steps > 1_000);
        let base = run_workload(
            &w,
            &profiled,
            &CompilerConfig::no_atomic(),
            &HwConfig::baseline(),
        );
        assert_eq!(base.samples.len(), 1);
        let s = base.samples[0];
        assert_eq!(s.marker, 1);
        assert!(s.uops > 0 && s.uops <= base.stats.uops);
        assert!(s.cycles > 0 && s.cycles <= base.stats.cycles);
        assert!((base.weighted_uops() - s.uops as f64).abs() < 1e-9);

        // Self-comparison is exactly zero.
        assert_eq!(base.speedup_vs(&base), 0.0);
        assert_eq!(base.uop_reduction_vs(&base), 0.0);

        // The atomic config's metrics are internally consistent.
        let atom = run_workload(
            &w,
            &profiled,
            &CompilerConfig::atomic(),
            &HwConfig::baseline(),
        );
        let speedup = atom.speedup_vs(&base);
        let manual = (base.samples[0].cycles as f64 / atom.samples[0].cycles as f64 - 1.0) * 100.0;
        assert!((speedup - manual).abs() < 1e-9);
    }

    #[test]
    fn profiling_is_repeatable() {
        let w = synthetic::postdom_checks(1_000);
        let a = profile_workload(&w);
        let b = profile_workload(&w);
        assert_eq!(a.reference_checksum, b.reference_checksum);
        assert_eq!(a.interp_steps, b.interp_steps);
    }
}
