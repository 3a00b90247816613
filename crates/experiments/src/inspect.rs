//! `experiments -- inspect <workload> [config] [--dot]`: one workload under
//! one compiler configuration, explained. The text view shows the entry
//! method's compile (inline sites, regions, un-inlined sites, warm calls
//! left), the run on the Table 1 machine (the same code on both dispatch
//! engines, compared with [`hasp_hw::RunStats::diff`]; the uop mix; the top
//! mispredict sites; per-method code size), and one row per region of every
//! method, joining `Func::regions` and `Func::asserts` with the run's
//! `per_region` counters. The alternate target is also the region's
//! formation boundary, the identity re-formation requests name. `--dot` prints
//! the entry method's optimized CFG as Graphviz instead, one cluster per
//! atomic region (the Figure 1(d)/5(b) view).

use std::fmt::Write as _;

use hasp_hw::HwConfig;
use hasp_ir::Op;
use hasp_opt::{compile_program, CompilerConfig};
use hasp_workloads::all_workloads;

use crate::report::Table;
use crate::runner::{execute_compiled, lower_program, profile_workload};

/// The configurations `inspect` accepts, under the names reports print:
/// the four paper configurations and Figure 7's forced-monomorphic bar.
fn configs() -> Vec<CompilerConfig> {
    let mut cs = CompilerConfig::paper_configs();
    cs.push(CompilerConfig::atomic_forced_mono());
    cs
}

/// Renders the inspection of `workload` under the configuration named
/// `config` (a paper configuration or `atomic+forced-mono`): the text
/// view, or the entry method's Graphviz CFG when `dot` is set.
///
/// # Errors
/// Returns a message listing the valid names when `workload` or `config`
/// is unknown.
pub fn inspect(workload: &str, config: &str, dot: bool) -> Result<String, String> {
    let ws = all_workloads();
    let w = ws.iter().find(|w| w.name == workload).ok_or_else(|| {
        let names: Vec<_> = ws.iter().map(|w| w.name).collect();
        format!("unknown workload `{workload}`; one of: {}", names.join(" "))
    })?;
    let cs = configs();
    let cfg = cs.iter().find(|c| c.name == config).ok_or_else(|| {
        let names: Vec<_> = cs.iter().map(|c| c.name).collect();
        format!("unknown config `{config}`; one of: {}", names.join(" "))
    })?;
    let profiled = profile_workload(w);
    let compiled = compile_program(&w.program, &profiled.profile, cfg);
    let entry = &compiled[&w.program.entry()];
    if dot {
        return Ok(hasp_ir::dot::to_dot(&entry.func));
    }
    let name = |m| &w.program.method(m).name;
    let f = &entry.func;
    let mut out = format!("== inspect {workload} under {config} ==\n");
    let _ = writeln!(out, "-- compile: entry method {} --", f.name);
    let _ = writeln!(out, "inline sites: {}", entry.sites.len());
    for s in &entry.sites {
        let _ = writeln!(out, "  callee {} budget {:?}", name(s.callee), s.budget);
    }
    if let Some(fm) = &entry.formation {
        let (n, pruned, despec) = (fm.regions.len(), &fm.pruned_sites, &fm.despeculated_sites);
        let _ = writeln!(
            out,
            "regions: {n}, pruned sites: {pruned:?}, de-speculated sites: {despec:?}"
        );
    }
    for b in f.block_ids().into_iter().filter(|b| f.block(*b).freq > 0) {
        let freq = f.block(b).freq;
        for inst in &f.block(b).insts {
            match &inst.op {
                Op::Call { method, .. } => {
                    let _ = writeln!(out, "  warm call at {b} freq {freq} -> {}", name(*method));
                }
                Op::CallVirtual { .. } => {
                    let _ = writeln!(out, "  warm vcall at {b} freq {freq}");
                }
                _ => {}
            }
        }
    }
    let _ = writeln!(out, "func size {}", f.size());

    // The same code on both engines: any difference is a dispatch bug, not
    // a compiler one.
    let product = lower_program(cfg.name, &compiled);
    let run = execute_compiled(w, &profiled, &product, &HwConfig::baseline());
    let per_uop = execute_compiled(w, &profiled, &product, &HwConfig::per_uop());
    let s = &run.stats;
    let _ = writeln!(out, "-- run: {} --", run.hardware);
    let _ = writeln!(
        out,
        "uops {} cyc {} | br {} miss {} ind {}/{} | l1 {} l2 {} mem {} | commits {} aborts {} \
         cov {:.2} size {:.0} fp {:.0}/{} static {}",
        s.uops,
        s.cycles,
        s.branches,
        s.mispredicts,
        s.indirects,
        s.indirect_misses,
        s.l1_hits,
        s.l2_hits,
        s.mem_accesses - s.l1_hits - s.l2_hits,
        s.commits,
        s.total_aborts(),
        s.coverage(),
        s.avg_region_size(),
        s.region_footprint.mean(),
        s.region_footprint.max,
        run.static_uops,
    );
    if *s == per_uop.stats {
        out.push_str("engines: bit-identical stats (superblock vs per-uop)\n");
    } else {
        out.push_str("ENGINES DIVERGE (superblock vs per-uop):\n");
        let diff = s.diff(&per_uop.stats);
        diff.iter().for_each(|d| out.push_str(&format!("  {d}\n")));
    }
    let mix: Vec<_> = s
        .uop_classes
        .iter_nonzero()
        .map(|(c, n)| format!("{} {n}", c.name()))
        .collect();
    let _ = writeln!(out, "mix: {}", mix.join(" | "));
    let mut sites: Vec<_> = s.mispredict_sites.iter().collect();
    sites.sort_by_key(|&(site, n)| (std::cmp::Reverse(*n), *site));
    for ((m, pc), n) in sites.into_iter().take(4) {
        let _ = writeln!(out, "miss site m{m}:{pc} = {n}");
    }
    let mut methods: Vec<_> = compiled.iter().collect();
    methods.sort_by_key(|(m, _)| m.0);
    let code = |m| product.code.get(m).expect("installed");
    for (m, c) in &methods {
        let (uops, regs) = (code(**m).uops.len(), code(**m).regs);
        let (id, name) = (m.0, &c.func.name);
        let _ = writeln!(out, "method m{id} {name:24} uops {uops:5} regs {regs:4}");
    }

    let mut t = Table::new(
        &format!("regions of {workload} under {config}"),
        &[
            "region", "method", "begin", "alt", "size est", "asserts", "entries", "aborts",
            "gov-skip", "tier",
        ],
    );
    let mut origins = String::new();
    for (m, c) in methods {
        for (r, info) in c.func.regions.iter().enumerate() {
            let id = format!("m{}:r{r}", m.0);
            let asserts = c.func.asserts.iter().filter(|a| a.region.0 as usize == r);
            let asserts: Vec<&str> = asserts.map(|a| a.origin.as_str()).collect();
            if !asserts.is_empty() {
                let _ = writeln!(origins, "  {id} asserts: {}", asserts.join(", "));
            }
            let key = (*m, r as u32);
            let n = s.per_region.get(&key).copied().unwrap_or_default();
            t.row(&[
                id,
                c.func.name.clone(),
                info.begin.to_string(),
                info.abort_target.to_string(),
                info.size_estimate.to_string(),
                asserts.len().to_string(),
                n.entries.to_string(),
                n.aborts.to_string(),
                n.gov_skips.to_string(),
                n.tier.to_string(),
            ]);
        }
    }
    Ok(out + &t.render() + &origins)
}
