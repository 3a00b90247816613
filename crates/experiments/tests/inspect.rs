//! `experiments -- inspect`: the text view names every region the compile
//! formed and finds the two dispatch engines bit-identical, `--dot` draws
//! one cluster per region, and unknown names are errors.

use hasp_experiments::{inspect::inspect, profile_workload};
use hasp_opt::{compile_program, CompilerConfig};
use hasp_workloads::all_workloads;

#[test]
fn inspect_explains_every_region() {
    let text = inspect("hsqldb", "atomic", false).expect("known names");
    assert!(text.contains("engines: bit-identical stats"), "{text}");
    // Compilation repeats exactly, so an independent compile forms the
    // regions `inspect` explains.
    let w = all_workloads()
        .into_iter()
        .find(|w| w.name == "hsqldb")
        .unwrap();
    let profile = profile_workload(&w).profile;
    let compiled = compile_program(&w.program, &profile, &CompilerConfig::atomic());
    for (m, c) in &compiled {
        for r in 0..c.func.regions.len() {
            let row = [format!("m{}:r{r}", m.0), c.func.name.clone()];
            let named = text.lines().any(|l| {
                l.split_whitespace()
                    .take(2)
                    .eq(row.iter().map(String::as_str))
            });
            assert!(named, "no row for region {} of {}:\n{text}", row[0], row[1]);
        }
    }
    let entry = &compiled[&w.program.entry()].func;
    let dot = inspect("hsqldb", "atomic", true).expect("known names");
    assert!(dot.starts_with("digraph ") && !entry.regions.is_empty());
    assert_eq!(
        dot.matches("subgraph cluster_").count(),
        entry.regions.len()
    );
}

#[test]
fn unknown_names_are_errors() {
    let e = inspect("nope", "atomic", false).unwrap_err();
    assert!(e.contains("hsqldb"), "lists the workloads: {e}");
    let e = inspect("hsqldb", "aggr", false).unwrap_err();
    assert!(e.contains("atomic+forced-mono"), "lists the configs: {e}");
}
