//! The experiment suite: memoized (workload × compiler × hardware) runs
//! shared by all figure/table generators, with a scoped-thread parallel
//! pipeline over the full evaluation matrix.
//!
//! The matrix factors as compile × execute: compilation depends only on
//! (workload, compiler), so each compile + lower product is built once and
//! shared — by reference — across every hardware configuration and worker
//! thread that executes it. Work is distributed by an atomic cursor over the
//! cell list; results are keyed by cell, so the cache contents are identical
//! whatever the thread interleaving (see `tests/determinism.rs`).

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};

use hasp_hw::HwConfig;
use hasp_opt::CompilerConfig;
use hasp_workloads::{all_workloads, Workload};

use crate::runner::{
    compile_workload, execute_compiled, profile_workload, try_execute_compiled, CellError,
    CompiledWorkload, ProfiledWorkload, WorkloadRun,
};

/// One cell of the evaluation matrix: workload index × compiler × hardware.
pub type MatrixCell = (usize, CompilerConfig, HwConfig);

/// Runs `f` over `items` on up to `threads` scoped worker threads pulling
/// from a shared atomic cursor, returning results in item order (so the
/// output is independent of scheduling).
pub(crate) fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = threads.min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut out: Vec<Option<R>> = Vec::with_capacity(items.len());
    out.resize_with(items.len(), || None);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let k = cursor.fetch_add(1, Ordering::Relaxed);
                        if k >= items.len() {
                            break;
                        }
                        local.push((k, f(&items[k])));
                    }
                    local
                })
            })
            .collect();
        for h in handles {
            for (k, r) in h.join().expect("suite worker panicked") {
                out[k] = Some(r);
            }
        }
    });
    out.into_iter()
        .map(|r| r.expect("every cell filled"))
        .collect()
}

/// Lazily-populated result cache over the benchmark suite.
pub struct Suite {
    workloads: Vec<Workload>,
    profiles: Vec<ProfiledWorkload>,
    /// Compile + lower products keyed by (workload, compiler) — each is
    /// reused by every hardware configuration that executes it.
    compiled: HashMap<(usize, &'static str), CompiledWorkload>,
    runs: HashMap<(usize, &'static str, &'static str), WorkloadRun>,
    /// Cells that failed during [`Suite::run_all`], recorded instead of
    /// killing the worker thread that hit them.
    failures: Vec<((usize, &'static str, &'static str), CellError)>,
    threads: usize,
}

impl Suite {
    /// Profiles every workload (the expensive interpreter pass) once, using
    /// every available core.
    pub fn new() -> Self {
        let threads = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        Suite::with_threads(threads)
    }

    /// As [`Suite::new`], but with an explicit worker-thread count for
    /// `run_all` (1 = fully serial).
    pub fn with_threads(threads: usize) -> Self {
        let workloads = all_workloads();
        let profiles = parallel_map(&workloads, threads, profile_workload);
        Suite {
            workloads,
            profiles,
            compiled: HashMap::new(),
            runs: HashMap::new(),
            failures: Vec::new(),
            threads: threads.max(1),
        }
    }

    /// The workloads, in Table 2 order.
    pub fn workloads(&self) -> &[Workload] {
        &self.workloads
    }

    /// Profiling results for workload `i`.
    pub fn profile(&self, i: usize) -> &ProfiledWorkload {
        &self.profiles[i]
    }

    /// The worker-thread count used by [`Suite::run_all`].
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Number of distinct compile + lower products built so far.
    pub fn compiled_products(&self) -> usize {
        self.compiled.len()
    }

    /// Cells that failed during [`Suite::run_all`], in matrix order.
    pub fn failures(&self) -> &[((usize, &'static str, &'static str), CellError)] {
        &self.failures
    }

    /// The cached run for a cell, if it has been executed.
    pub fn cached(&self, i: usize, compiler: &str, hardware: &str) -> Option<&WorkloadRun> {
        self.runs
            .iter()
            .find(|((wi, c, h), _)| *wi == i && *c == compiler && *h == hardware)
            .map(|(_, run)| run)
    }

    /// Returns (running and caching if needed) the run for workload index
    /// `i` under the given configurations.
    pub fn run(&mut self, i: usize, ccfg: &CompilerConfig, hw: &HwConfig) -> &WorkloadRun {
        // Destructured so each map is borrowed independently; `entry` gives
        // one lookup per map on both hit and miss paths.
        let Suite {
            workloads,
            profiles,
            compiled,
            runs,
            ..
        } = self;
        runs.entry((i, ccfg.name, hw.name)).or_insert_with(|| {
            let product = compiled
                .entry((i, ccfg.name))
                .or_insert_with(|| compile_workload(&workloads[i], &profiles[i], ccfg));
            execute_compiled(&workloads[i], &profiles[i], product, hw)
        })
    }

    /// The index of the named workload.
    ///
    /// # Panics
    /// Panics if the name is unknown.
    pub fn index_of(&self, name: &str) -> usize {
        self.workloads
            .iter()
            .position(|w| w.name == name)
            .unwrap_or_else(|| panic!("unknown workload {name}"))
    }

    /// Runs every not-yet-cached cell of `cells` on the suite's worker
    /// threads: all missing (workload, compiler) products are compiled
    /// first (in parallel), then every cell executes against the shared
    /// products. Subsequent [`Suite::run`] calls on these cells are cache
    /// hits.
    pub fn run_all(&mut self, cells: &[MatrixCell]) {
        self.run_all_on(cells, self.threads);
    }

    /// As [`Suite::run_all`] with an explicit thread count (1 = serial,
    /// same results bit-for-bit).
    pub fn run_all_on(&mut self, cells: &[MatrixCell], threads: usize) {
        let mut seen = HashSet::new();
        let pending: Vec<&MatrixCell> = cells
            .iter()
            .filter(|(i, c, h)| {
                !self.runs.contains_key(&(*i, c.name, h.name)) && seen.insert((*i, c.name, h.name))
            })
            .collect();
        if pending.is_empty() {
            return;
        }

        let workloads = &self.workloads;
        let profiles = &self.profiles;

        // Phase 1: compile each missing (workload, compiler) product once.
        let mut cseen = HashSet::new();
        let to_compile: Vec<(usize, &CompilerConfig)> = pending
            .iter()
            .filter(|(i, c, _)| {
                !self.compiled.contains_key(&(*i, c.name)) && cseen.insert((*i, c.name))
            })
            .map(|(i, c, _)| (*i, c))
            .collect();
        let products = parallel_map(&to_compile, threads, |&(i, c)| {
            compile_workload(&workloads[i], &profiles[i], c)
        });
        for ((i, c), product) in to_compile.into_iter().zip(products) {
            self.compiled.insert((i, c.name), product);
        }

        // Phase 2: execute every pending cell against the shared products.
        // Failures come back as values so one bad cell degrades to a
        // recorded failure instead of tearing down its worker thread.
        let compiled = &self.compiled;
        let runs = parallel_map(&pending, threads, |&&(i, ref c, ref h)| {
            try_execute_compiled(&workloads[i], &profiles[i], &compiled[&(i, c.name)], h)
        });
        for (&&(i, ref c, ref h), run) in pending.iter().zip(&runs) {
            match run {
                Ok(run) => {
                    self.runs.insert((i, c.name, h.name), run.clone());
                }
                Err(e) => self.failures.push(((i, c.name, h.name), e.clone())),
            }
        }
    }

    /// The full evaluation matrix: every workload × every paper compiler
    /// configuration × every hardware configuration the evaluation sweeps.
    pub fn full_matrix(&self) -> Vec<MatrixCell> {
        let mut cells = Vec::new();
        for i in 0..self.workloads.len() {
            for ccfg in CompilerConfig::paper_configs() {
                for hw in hw_sweep() {
                    cells.push((i, ccfg.clone(), hw));
                }
            }
        }
        cells
    }
}

/// The hardware configurations the evaluation sweeps (Figure 9 + §6.3).
pub fn hw_sweep() -> [HwConfig; 5] {
    [
        HwConfig::baseline(),
        HwConfig::with_begin_overhead(),
        HwConfig::single_inflight(),
        HwConfig::two_wide(),
        HwConfig::two_wide_half(),
    ]
}

impl Default for Suite {
    fn default() -> Self {
        Suite::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_item_order() {
        let items: Vec<usize> = (0..97).collect();
        let doubled = parallel_map(&items, 8, |&x| x * 2);
        assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        let serial = parallel_map(&items, 1, |&x| x * 2);
        assert_eq!(doubled, serial);
    }

    #[test]
    fn full_matrix_covers_every_cell_once() {
        // Shape-only check (no execution): the matrix is the cross product
        // and contains no duplicate cells.
        let n_w = all_workloads().len();
        let n_c = CompilerConfig::paper_configs().len();
        let n_h = hw_sweep().len();
        // Build the matrix without profiling via a shape-only Suite.
        let suite = Suite {
            workloads: all_workloads(),
            profiles: Vec::new(),
            compiled: HashMap::new(),
            runs: HashMap::new(),
            failures: Vec::new(),
            threads: 1,
        };
        let cells = suite.full_matrix();
        assert_eq!(cells.len(), n_w * n_c * n_h);
        let unique: HashSet<_> = cells.iter().map(|(i, c, h)| (*i, c.name, h.name)).collect();
        assert_eq!(unique.len(), cells.len());
    }
}
