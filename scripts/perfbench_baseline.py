#!/usr/bin/env python3
"""The committed perfbench baseline, BENCH_perfbench.json.

Write mode (the default) runs every perfbench workload at seeds 7 and 4099
for SECONDS each, once untraced (the end-to-end metrics and the workload's
own report) and once traced (the per-layer metrics), and records both with
each run's digest and the host's core count:

    python3 scripts/perfbench_baseline.py

The artifact also says which tree it measured. `base_commit` is the commit
checked out (`git rev-parse HEAD`) and `dirty` says whether the working
tree had other uncommitted changes. A change regenerates the file before it
is committed, so `dirty: true` means the tree measured was `base_commit`
plus that change: the commit that adds the file, not `base_commit` itself.

Check mode re-runs each workload x seed traced for one second and compares
the counts that must not move with the host:

    python3 scripts/perfbench_baseline.py --check

- the digest, on every workload;
- vm.interp.steps, opt.ir_insts, core.form.regions and hw.machine.uops
  (per-operation means over whole rounds) and hw.cache.pred_hit_rate (the
  way predictor's hits per probe, which the digest does not cover), on
  cold_start and steady_sim.

Timings are recorded, never gated: they drift about 20% with the host.
shared_asid's traced hw.machine.uops is not gated either: it depends on how
its two client threads interleave.

Run it from anywhere; it works in the repository root.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ARTIFACT = os.path.join(ROOT, "BENCH_perfbench.json")
SCHEMA = "hasp-perfbench-baseline-v1"
WORKLOADS = ["cold_start", "steady_sim", "shared_asid"]
SEEDS = [7, 4099]
SECONDS = 5.0
GATED_COUNTS = ["vm.interp.steps", "opt.ir_insts", "core.form.regions", "hw.machine.uops",
                "hw.cache.pred_hit_rate"]
COUNT_WORKLOADS = ["cold_start", "steady_sim"]
CARGO = ["cargo", "--offline", "--quiet"]
MANIFEST = ["--release", "--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml")]


def perfbench(workload, seed, seconds, trace):
    """Runs perfbench once; returns its digest, report and final JSON line."""
    out = subprocess.run(
        CARGO + ["run"] + MANIFEST + ["--", "--workload", workload, "--seed", str(seed),
                                      "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout
    run = {"digest": None, "report": None, "result": None}
    for line in out.splitlines():
        if line.startswith("digest "):
            run["digest"] = line.split()[-1]
        elif line.startswith("report "):
            run["report"] = json.loads(line.split(" ", 2)[2])
        elif line.startswith("{"):
            run["result"] = json.loads(line)
    if run["digest"] is None or run["result"] is None:
        sys.exit(f"perfbench {workload} seed {seed}: no digest or result line in\n{out}")
    return run


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def write():
    runs = []
    for workload in WORKLOADS:
        for seed in SEEDS:
            plain = perfbench(workload, seed, SECONDS, trace=False)
            traced = perfbench(workload, seed, SECONDS, trace=True)
            if plain["digest"] != traced["digest"]:
                sys.exit(f"{workload} seed {seed}: traced digest {traced['digest']} "
                         f"!= untraced {plain['digest']}")
            failed = plain["result"]["failed"] + traced["result"]["failed"]
            if failed:
                sys.exit(f"{workload} seed {seed}: {failed} failed operations")
            runs.append({
                "workload": workload,
                "seed": seed,
                "digest": plain["digest"],
                "attempted": plain["result"]["attempted"],
                "failed": 0,
                "end_to_end": plain["result"]["metrics"],
                "report": plain["report"],
                "per_layer": traced["result"]["metrics"],
            })
            print(f"{workload} seed {seed}: digest {plain['digest']}, "
                  f"{plain['result']['attempted']} + {traced['result']['attempted']} ops")
    others = [l for l in git("status", "--porcelain").splitlines()
              if not l.endswith(os.path.basename(ARTIFACT))]
    artifact = {
        "schema": SCHEMA,
        "base_commit": git("rev-parse", "HEAD"),
        "dirty": bool(others),
        "host_cores": os.cpu_count(),
        "seconds": SECONDS,
        "runs": runs,
    }
    with open(ARTIFACT, "w") as f:
        json.dump(artifact, f, indent=2)
        f.write("\n")
    print(f"wrote {ARTIFACT}")


def check():
    with open(ARTIFACT) as f:
        base = json.load(f)
    if base["schema"] != SCHEMA:
        sys.exit(f"unexpected schema {base['schema']}")
    have = {(r["workload"], r["seed"]) for r in base["runs"]}
    missing = [(w, s) for w in WORKLOADS for s in SEEDS if (w, s) not in have]
    problems = [f"no baseline run for {w} seed {s}" for w, s in missing]
    for r in base["runs"]:
        name = f"{r['workload']} seed {r['seed']}"
        now = perfbench(r["workload"], r["seed"], 1, trace=True)
        if now["result"]["failed"]:
            problems.append(f"{name}: {now['result']['failed']} failed operations")
        if now["digest"] != r["digest"]:
            problems.append(f"{name}: digest {now['digest']} != baseline {r['digest']}")
        if r["workload"] in COUNT_WORKLOADS:
            metrics = now["result"]["metrics"]
            for k in GATED_COUNTS:
                got, want = metrics[k]["value"], r["per_layer"][k]["value"]
                if got != want:
                    problems.append(f"{name}: {k} {got} != baseline {want}")
    for p in problems:
        print(f"FAILED: {p}", file=sys.stderr)
    if problems:
        sys.exit(1)
    print(f"perfbench baseline ok: {len(base['runs'])} digests, "
          f"{len(GATED_COUNTS)} exact metrics on {' and '.join(COUNT_WORKLOADS)} match "
          f"BENCH_perfbench.json (base {base['base_commit'][:12]}"
          f"{', dirty' if base['dirty'] else ''})")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true",
                    help="re-run for 1 s each and compare with the committed baseline")
    args = ap.parse_args()
    subprocess.run(CARGO + ["build"] + MANIFEST, cwd=ROOT, check=True)
    if args.check:
        check()
    else:
        write()


if __name__ == "__main__":
    main()
