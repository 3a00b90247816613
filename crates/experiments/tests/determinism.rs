//! The parallel pipeline must be an implementation detail: `run_all` on N
//! worker threads must produce bit-identical results to a fully serial
//! fill, for every cell of the matrix it is given.

use hasp_experiments::{MatrixCell, Suite};
use hasp_hw::HwConfig;
use hasp_opt::CompilerConfig;

/// A reduced but multi-dimensional matrix: two workloads × three compiler
/// configurations × two hardware configurations (kept small so the test
/// stays in tier-1 time budgets).
fn test_matrix(suite: &Suite) -> Vec<MatrixCell> {
    let workloads = [suite.index_of("antlr"), suite.index_of("fop")];
    let compilers = [
        CompilerConfig::no_atomic(),
        CompilerConfig::atomic(),
        CompilerConfig::atomic_aggressive(),
    ];
    let hws = [HwConfig::baseline(), HwConfig::single_inflight()];
    let mut cells = Vec::new();
    for &i in &workloads {
        for c in &compilers {
            for h in &hws {
                cells.push((i, c.clone(), h.clone()));
            }
        }
    }
    cells
}

#[test]
fn parallel_run_all_is_bit_identical_to_serial() {
    let mut serial = Suite::with_threads(1);
    let mut parallel = Suite::with_threads(4);
    let cells = test_matrix(&serial);

    serial.run_all_on(&cells, 1);
    parallel.run_all_on(&cells, 4);

    for (i, c, h) in &cells {
        let a = serial
            .cached(*i, c.name, h.name)
            .expect("serial cell executed");
        let b = parallel
            .cached(*i, c.name, h.name)
            .expect("parallel cell executed");
        assert_eq!(
            a, b,
            "cell ({i}, {}, {}) diverged across thread counts",
            c.name, h.name
        );
    }

    // The compile cache was shared: one product per (workload, compiler)
    // pair, not per cell.
    assert_eq!(serial.compiled_products(), 2 * 3);
    assert_eq!(parallel.compiled_products(), 2 * 3);
}

#[test]
fn run_all_results_match_run() {
    // A cell executed through the pipeline equals the same cell executed
    // through the serial `run` entry point on a fresh suite.
    let mut piped = Suite::with_threads(4);
    let i = piped.index_of("fop");
    let cfg = CompilerConfig::atomic();
    let hw = HwConfig::baseline();
    piped.run_all(&[(i, cfg.clone(), hw.clone())]);

    let mut direct = Suite::with_threads(1);
    let expect = direct.run(i, &cfg, &hw).clone();
    assert_eq!(piped.cached(i, cfg.name, hw.name), Some(&expect));
}
