//! Worker-pool harness gates: a mid-stream code-cache install under real
//! threads, and conservation of the sharded statistics — each with the
//! coherence directory detached and attached.
//!
//! * `publication_mid_stream_*` — a worker pool serves requests while the
//!   producer compiles a *different* code product and swaps it into the
//!   work queue, mid-stream. Workers never stop; every request on either
//!   version must reproduce the interpreter's reference checksum (a torn or
//!   stale-mixed read would diverge), and both versions must actually be
//!   served. With coherence on, the same run also carries real directory
//!   traffic, and both directory identities must hold across the swap.
//! * `sharded_stats_conserve_*` — a proptest: for any request schedule, the
//!   merged per-worker shards of a 3-worker pool conserve the independent
//!   atomic tally. With coherence off, request results are order- and
//!   worker-independent, so the 3-worker shards also equal the single-worker
//!   totals exactly; with coherence on, real conflicts make counters vary,
//!   and the directory identities are asserted instead.

use std::sync::OnceLock;

use proptest::prelude::*;

use hasp_experiments::service::{build_service_cache, run_leg, LegOutcome, Tenant, TenantClass};
use hasp_opt::CompilerConfig;
use hasp_workloads::synthetic;

/// The synthetic tenant pair, profiled once: one clean, one whose big-
/// footprint regions abort under the contended line budget so aborts,
/// region tables, and governor tiers all carry nonzero freight through the
/// shard merge.
fn tenants() -> &'static Vec<Tenant> {
    static TENANTS: OnceLock<Vec<Tenant>> = OnceLock::new();
    TENANTS.get_or_init(|| {
        vec![
            Tenant::new(synthetic::add_element(2_000), TenantClass::Clean),
            Tenant::new(synthetic::footprint_split(600), TenantClass::Contended),
        ]
    })
}

/// The gates every coherence-on leg must pass: no failed request, shard
/// and directory conservation, no unsignaled conflict, and every delivered
/// conflict observed as a machine abort.
fn assert_coherent(out: &LegOutcome) {
    assert_eq!(out.failures(), 0, "a request diverged under coherence");
    assert!(
        out.conservation_ok(),
        "shard or directory conservation failed"
    );
    let link = out.link();
    let dir = out.directory.expect("directory counters with coherence on");
    assert_eq!(dir.signaled, link.sig_aborts + link.sig_raced);
    assert_eq!(
        link.unsignaled_conflicts, 0,
        "unsignaled conflict: {link:?}"
    );
    assert!(
        out.observation_ok(),
        "a delivered conflict was not observed"
    );
}

#[test]
fn publication_mid_stream_is_torn_read_free() {
    let tenants = tenants();
    let initial = build_service_cache(tenants, &CompilerConfig::atomic());
    for coherence in [false, true] {
        // 64 requests, alternating tenants; install a *different* compiler
        // configuration's product after request 32 is pushed — while the
        // pool is busy serving.
        let schedule: Vec<u32> = (0..64u32).map(|i| i % 2).collect();
        let out = run_leg(
            tenants,
            &schedule,
            2,
            &initial,
            &[32],
            &CompilerConfig::atomic_aggressive(),
            coherence,
        );

        // No torn or mixed reads: every request, on whichever code version
        // its batch was handed, reproduced the interpreter checksum.
        assert_eq!(out.failures(), 0, "a checksum diverged across the swap");
        assert!(out.conservation_ok(), "shard merge lost a request");
        assert_eq!(out.installs, 1);
        assert_eq!(out.directory.is_some(), coherence);
        if coherence {
            assert_coherent(&out);
            assert!(
                out.directory.is_some_and(|d| d.publishes > 0),
                "no directory traffic"
            );
        }

        // Both versions were genuinely exercised. The queue bound (smaller
        // than the pre-install half of the schedule) forces early batches to
        // be popped with version 1 before the install can happen; requests
        // pushed after the install can only be popped with version 2.
        let versions = out.versions_seen();
        assert!(versions.contains(&1), "pre-install version never served");
        assert!(versions.contains(&2), "installed version never served");

        // Both tenants actually aborted/committed through the swap (the
        // merge carried real freight, not zeros).
        let merged = out.merged_tenants();
        assert_eq!(merged.iter().map(|t| t.requests).sum::<u64>(), 64);
        assert!(
            merged[1].aborts.total() > 0,
            "contended tenant never aborted"
        );
        assert!(merged[0].commits > 0 && merged[1].commits > 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    #[test]
    fn sharded_stats_conserve_across_worker_counts(
        schedule in prop::collection::vec(0u32..2, 4..24),
        coherence in any::<bool>(),
    ) {
        let tenants = tenants();
        let ccfg = CompilerConfig::atomic_aggressive();
        let cache = build_service_cache(tenants, &ccfg);
        let pooled = run_leg(tenants, &schedule, 3, &cache, &[], &ccfg, coherence);
        let serial = run_leg(tenants, &schedule, 1, &cache, &[], &ccfg, coherence);

        prop_assert!(pooled.conservation_ok());
        prop_assert!(serial.conservation_ok());
        prop_assert_eq!(pooled.global[0], serial.global[0]);
        let p = pooled.merged_tenants();
        let s = serial.merged_tenants();
        prop_assert_eq!(p.len(), s.len());
        for (a, b) in p.iter().zip(&s) {
            prop_assert_eq!(a.requests, b.requests);
        }

        if coherence {
            // Real conflicts make cycle counts vary with the interleaving;
            // the gates are the identities, not equality with the serial run.
            assert_coherent(&pooled);
            assert_coherent(&serial);
        } else {
            prop_assert_eq!(pooled.global, serial.global);

            // Per-request timings are identical: results don't depend on
            // which worker served a request or in what order.
            prop_assert_eq!(pooled.request_timings(), serial.request_timings());

            // The merged shards agree field by field, including the
            // per-region tables (indexed by method and region, so merge
            // order cannot permute them).
            for (a, b) in p.iter().zip(&s) {
                prop_assert_eq!(a.failures, b.failures);
                prop_assert_eq!(a.uops, b.uops);
                prop_assert_eq!(a.cycles, b.cycles);
                prop_assert_eq!(a.commits, b.commits);
                prop_assert_eq!(a.aborts, b.aborts);
                prop_assert_eq!(a.tier_time, b.tier_time);
                prop_assert_eq!(a.tier_enters, b.tier_enters);
                prop_assert_eq!(&a.regions, &b.regions);
            }
        }
    }
}
