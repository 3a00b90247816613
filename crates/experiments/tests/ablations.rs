//! The ablation table's claims that EXPERIMENTS.md rests on: speculative
//! lock elision carries hsqldb, post-dominance check elimination removes
//! exactly one bounds check per iteration, and forced-monomorphic inlining
//! beats plain `atomic` on jython.

use hasp_experiments::{figures::ablations, Suite};

#[test]
fn ablation_claims_hold() {
    let (rows, table) = ablations(&mut Suite::new());
    // Title, header and rule, then one line per row.
    assert_eq!(table.lines().count(), 3 + rows.len());
    let row = |study: &str, variant: &str| {
        let r = rows
            .iter()
            .find(|r| r.study == study && r.variant == variant);
        r.unwrap_or_else(|| panic!("no ablation row {study} / {variant}"))
    };
    let sle = "SLE (hsqldb)";
    assert!(row(sle, "with SLE").gain > row(sle, "without SLE").gain);
    let ce = "§7 postdom check elim";
    assert_eq!(row(ce, "off").stats.uops - row(ce, "on").stats.uops, 30_000);
    let inl = "partial inlining (jython)";
    assert!(row(inl, "atomic+forced-mono").gain > row(inl, "atomic").gain);
}
