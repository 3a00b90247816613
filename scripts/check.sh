#!/usr/bin/env bash
# Pre-merge gauntlet: build, tests, lints, formatting, docs.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release =="
cargo build --release --workspace

echo "== cargo test -q =="
cargo test -q --workspace

# The repository benchmark's own suite (release: its smoke tests skip in
# debug builds): on every workload, no failed operation, traced and
# untraced digests equal, and the pass-by-pass compile equal to
# `compile_program`. Runs before the mt blocks, whose scaling floor can stop
# the script on small hosts.
echo "== perfbench suite (release) =="
cargo test --release --manifest-path perfbench/Cargo.toml

# The committed per-layer baseline: re-run every workload x seed traced for
# 1 s and require the digests (all three workloads) and the exact
# per-operation counts (cold_start and steady_sim) of BENCH_perfbench.json.
# Timings are never gated; they drift with the host.
echo "== perfbench baseline (digests and counts vs BENCH_perfbench.json) =="
python3 scripts/perfbench_baseline.py --check

# Lints, formatting and docs run before the host-dependent legs below, so a
# scaling floor that stops the script on a small host cannot skip them.
echo "== cargo clippy =="
cargo clippy --workspace --all-targets -- -D warnings
cargo clippy --release -q -- -D warnings

echo "== cargo fmt --check =="
cargo fmt --check

# Public docs must build without warnings, so a deleted or renamed item
# cannot leave a dangling or private intra-doc link behind.
echo "== cargo doc (rustdoc warnings denied) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== fault-campaign smoke (checksum equivalence under injected aborts) =="
cargo run --release -p hasp-experiments --bin experiments -- faults --smoke
# Governor-ladder gates on the smoke artifact: every cell checksum-clean,
# every commit and abort validated (validations == commits + aborts: a
# cell that ran without the invariant validator, or skipped it on some
# path, still balances its checksums and tiers), per-tier accounting
# balanced (enters == exits + live), and the adaptive re-formation loop
# demonstrably recovers (>=1 row re-forms a region AND keeps committing
# afterwards — the footprint-split adversary guarantees the shape exists;
# this gate catches the ladder or the reform loop rotting).
python3 - <<'PY'
import json
r = json.load(open("BENCH_faults_smoke.json"))
assert r["schema"] == "hasp-faults-v3", f"unexpected schema {r['schema']}"
bad = [c for c in r["matrix"] if not c["ok"]]
assert not bad, f"checksum/validator failures: {[(c['workload'], c['fault']) for c in bad]}"
unval = [c for c in r["matrix"] if c["validations"] != c["commits"] + c["aborts"]]
assert not unval, f"unvalidated commits/aborts: {[(c['workload'], c['fault']) for c in unval]}"
imbal = [c for c in r["matrix"] if not c.get("tier_consistent", False)]
assert not imbal, f"tier-counter imbalance: {[(c['workload'], c['fault']) for c in imbal]}"
assert r["tier_counters_consistent"], "aggregate tier-counter gate failed"
rec = [x for x in r["reforms"] if x["recovered"]]
assert rec, "no reform row recovered (reforms > 0 and post-reform commits > 0)"
assert all(x["ok"] for x in r["reforms"]), "a reform quantum failed"
print(f"ladder gates ok: {len(r['matrix'])} cells validated and tier-balanced, "
      f"{len(rec)} reform row(s) recovered")
PY

echo "== knee-sweep smoke (conflict-rate probes, checksums, governor online) =="
cargo run --release -p hasp-experiments --bin experiments -- faults --knee --smoke

# The committed fault artifacts must reproduce: a full campaign (~3 s) and a
# full knee sweep (~2 s), run in a temporary directory so no tracked file is
# rewritten, must equal BENCH_faults.json and BENCH_knee.json in every field
# but the host facts `threads` and `wall_s`. Every fault kind runs on the
# chained engine, so this also pins it to the injected aborts the committed
# cells record.
echo "== fault artifacts reproduce (full campaign and knee sweep vs committed) =="
root=$PWD
repro=$(mktemp -d)
trap 'rm -rf "$repro"' EXIT
(cd "$repro" \
  && cargo run --release -q --manifest-path "$root/Cargo.toml" -p hasp-experiments \
       --bin experiments -- faults > /dev/null \
  && cargo run --release -q --manifest-path "$root/Cargo.toml" -p hasp-experiments \
       --bin experiments -- faults --knee > /dev/null)
python3 - "$repro" <<'PY'
import json, sys
def diff(a, b, path=""):
    if isinstance(a, dict) and isinstance(b, dict):
        for k in sorted(a.keys() | b.keys()):
            if path == "" and k in ("threads", "wall_s"):
                continue
            if k not in a or k not in b:
                yield f"{path}.{k}: on one side only"
            else:
                yield from diff(a[k], b[k], f"{path}.{k}")
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from diff(x, y, f"{path}[{i}]")
    elif a != b:
        yield f"{path}: committed {a!r}, reproduced {b!r}"
for name in ("faults", "knee"):
    committed = json.load(open(f"BENCH_{name}.json"))
    fresh = json.load(open(f"{sys.argv[1]}/BENCH_{name}.json"))
    d = list(diff(committed, fresh))
    assert not d, f"BENCH_{name}.json does not reproduce ({len(d)} fields): {d[:10]}"
print("BENCH_faults.json and BENCH_knee.json reproduce in every field but threads and wall_s")
PY

echo "== dispatch equivalence (release: chained dispatch vs per-uop oracle) =="
cargo test --release -q --test dispatch_equivalence

echo "== predictor equivalence (debug: way-predicted path vs unpredicted model) =="
cargo test -q --test predictor_equivalence

echo "== predictor equivalence (release: way-predicted path vs unpredicted model) =="
cargo test --release -q --test predictor_equivalence

echo "== hardware property tests (release: predicted cache and directory vs references) =="
cargo test --release -q --test prop_hw

echo "== dispatch-bench smoke (superblock vs per-uop on the CI slice) =="
cargo run --release -p hasp-experiments --bin experiments -- bench-dispatch --smoke
# Two regression gates on the CI slice (fop + pmd). The shipped-geomean
# floor sits under the measured smoke geomean with headroom for scheduler
# noise — a drop below 1.40x means the block engine genuinely rotted, not
# that the machine was busy. The geomean is superblock over per-uop time:
# 2.0-2.4x smoke and 1.9-2.2x full on a 2-core x86-64 host. It was
# 1.6-1.9x and ~1.7x while the per-uop engine kept its own copy of each
# straight-line uop; sharing the interior executor slowed that leg, the
# block engine did not get faster.
python3 - <<'PY'
import json
r = json.load(open("BENCH_dispatch_smoke.json"))
assert r["schema"] == "hasp-bench-dispatch-v6", f"unexpected schema {r['schema']}"
g = r["geomean_speedup"]
assert g >= 1.40, f"superblock dispatch regressed: smoke geomean {g:.2f}x < 1.40x floor"
# Way-predictor sanity (DESIGN §16): under the shipped config every
# workload's dynamic heap accesses must both consult and sometimes hit the
# seal-site predictor — a zero here means the seal-site plumbing or the
# training path rotted, which the bit-exact equivalence gates cannot see.
cold = [w["workload"] for w in r["per_workload"]
        if w["pred_probes"] == 0 or w["pred_hits"] == 0]
assert not cold, f"way predictor dead on {cold}"
rates = {w["workload"]: w["pred_rate"] for w in r["per_workload"]}
print(f"smoke geomean {g:.2f}x >= 1.40 ok; pred hit-rates {rates}")
PY

echo "== worker-pool install test (release: mid-stream cache swap under threads, coherence off and on) =="
cargo test --release -q -p hasp-experiments --test service

echo "== service-mode smoke (pooled workers, one cache handed out by the work queue) =="
cargo run --release -p hasp-experiments --bin experiments -- serve --smoke
# Service gates on the smoke artifact: schema pinned (one schema for the
# serve and mt artifacts, told apart by the coherence flag), the
# shard-merge conservation flag true in every leg, and N-worker throughput
# at least the 1-worker floor (the scaling curve is computed over
# deterministic modeled cycles, so this is host-independent — a violation
# means the harness or the isolation property rotted, not that CI was slow).
python3 - <<'PY'
import json
r = json.load(open("BENCH_service_smoke.json"))
assert r["schema"] == "hasp-pool-v3", f"unexpected schema {r['schema']}"
assert r["coherence"] is False, "serve artifact ran with the directory attached"
legs = r["legs"]
assert legs, "no service legs"
bad = [l["workers"] for l in legs if not l["conservation"]]
assert not bad, f"shard-merge conservation failed at worker counts {bad}"
fail = [l["workers"] for l in legs if l["failures"]]
assert not fail, f"request failures at worker counts {fail}"
base = legs[0]["throughput_rps"]
low = [l["workers"] for l in legs if l["throughput_rps"] < base]
assert not low, f"worker scaling below the 1-worker floor at {low}"
assert r["deterministic"], "request timings varied across worker counts"
print(f"service gates ok: {len(legs)} legs conserved, top speedup "
      f"{r['top_speedup']:.2f}x, deterministic")
PY

echo "== coherence equivalence (release: directory-attached vs plain, both engines) =="
cargo test --release -q --test coherence_equivalence

# The directory's conservation identity on the benchmark's own contended
# workload: two clients on real threads over one directory, signaled
# messages against the victims' classifications summed over every round.
# perfbench reports the gap as a number instead of failing on it, so the
# gate reads it (and the failed share) off the report line. Runs before the
# mt blocks, whose scaling floor can stop the script on small hosts.
echo "== shared_asid directory identity (perfbench, 3 s) =="
cargo run --offline --quiet --release --manifest-path perfbench/Cargo.toml -- \
  --workload shared_asid --seed 7 --seconds 3 --trace 0 > target/shared_asid_check.out
python3 - <<'PY'
import json
line = next(l for l in open("target/shared_asid_check.out") if l.startswith("report shared_asid "))
r = json.loads(line.split(" ", 2)[2])
gap = r["directory_identity_gap"]["value"]
failed = r["failed_share"]["value"]
assert gap == 0, f"shared_asid directory identity off by {gap}"
assert failed == 0, f"shared_asid failed share {failed}"
print(f"shared_asid gates ok: identity gap 0, failed share 0, "
      f"{r['shared_rps']['value']:.1f} requests/s")
PY

echo "== mt stress (release: antagonist + two-machine conservation) =="
cargo test --release -q --test mt_coherence

echo "== mt smoke (the worker pool over the sharded coherence directory) =="
cargo run --release -p hasp-experiments --bin experiments -- mt --smoke
# Multi-core gates on the smoke artifact: schema pinned, zero failed
# requests, conservation (the shard merge and the directory's
# signaled == sig_aborts + sig_raced) true, the observation identity
# (machine Conflict aborts == sig_aborts; an Sle abort is the program's own
# elided-lock check, which no directory signal backs) true, and zero unsignaled
# conflicts (a live speculative bit with no directory claim, which release
# builds count instead of asserting) in every leg and the contention leg,
# emergent conflicts strictly positive with NO FaultPlan anywhere in
# the harness, and — only when the host actually has >= 2 CPUs — a 1.5x
# throughput floor at 2 workers. On a 1-core host the two workers time-slice
# one CPU, so wall-clock scaling is physically capped at ~1.0x and the
# floor is skipped (the artifact records host_cores for exactly this
# decision); the conservation and emergence gates are host-independent and
# always enforced.
python3 - <<'PY'
import json
r = json.load(open("BENCH_mt_smoke.json"))
assert r["schema"] == "hasp-pool-v3", f"unexpected schema {r['schema']}"
assert r["coherence"] is True, "mt artifact ran without the directory"
assert r["conservation_ok"], "directory conservation identity violated"
legs = r["legs"]
assert legs, "no mt legs"
bad = [l["workers"] for l in legs if not l["conservation"]]
assert not bad, f"conservation failed at worker counts {bad}"
uns = [l["workers"] for l in legs if l["unsignaled_conflicts"] != 0]
assert not uns, f"unsignaled conflicts at worker counts {uns}"
fail = [l["workers"] for l in legs if l["failures"]]
assert not fail, f"request failures at worker counts {fail}"
unobs = [l["workers"] for l in legs if not l["observation"]]
assert not unobs, f"observation identity failed at worker counts {unobs}"
c = r["contention"]
assert c["conservation"], "contention-phase conservation failed"
assert c["unsignaled_conflicts"] == 0, \
    f"{c['unsignaled_conflicts']} unsignaled conflicts under contention"
assert c["failures"] == 0, f"{c['failures']} request failures under contention"
assert c["observation"], "observation identity failed under contention"
assert c["emergent"] > 0, "no emergent conflicts under shared-tenant contention"
host = r["host_cores"]
if host >= 2:
    two = next(l for l in legs if l["workers"] == 2)
    assert two["scaling_x"] >= 1.5, \
        f"2-worker scaling {two['scaling_x']:.2f}x < 1.5x floor on a {host}-core host"
    scale_note = f"2-worker scaling {two['scaling_x']:.2f}x >= 1.5x"
else:
    scale_note = "scaling floor skipped (1-core host)"
print(f"mt gates ok: {len(legs)} legs conserved and observed, 0 failures, 0 unsignaled, "
      f"{c['emergent']} emergent conflicts under contention, {scale_note}")
PY

# Optional ThreadSanitizer leg for the directory stress tests: needs a
# nightly toolchain with -Zsanitizer AND the rust-src component (for
# -Zbuild-std, which TSan requires to instrument std); skipped quietly
# when the container lacks either (the stable suite above still runs the
# same tests race-hunting via assertions).
if rustup run nightly rustc -V >/dev/null 2>&1 \
   && [ -f "$(rustup run nightly rustc --print sysroot 2>/dev/null)/lib/rustlib/src/rust/library/Cargo.lock" ]; then
  echo "== mt stress under ThreadSanitizer (nightly) =="
  RUSTFLAGS="-Zsanitizer=thread" RUSTDOCFLAGS="-Zsanitizer=thread" \
    rustup run nightly cargo test -q --test mt_coherence \
      -Zbuild-std --target "$(rustc -vV | sed -n 's/host: //p')" \
    || { echo "TSan leg failed"; exit 1; }
else
  echo "== mt stress under ThreadSanitizer: skipped (no nightly toolchain with rust-src) =="
fi

echo "All checks passed."
