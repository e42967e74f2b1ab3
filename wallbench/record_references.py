#!/usr/bin/env python3
"""Records references.json: each campaign's ticks, covered blocks and unique
bugs, from monolithic runs of the same specs (wallbench --reference).

    python3 wallbench/record_references.py --seeds 1,2,3

run.py must have built the wallbench binary first. pbse_campaign's references
equal `pbse run <target> --seed-scale=<s> --budget=1000000` at rng seed 1 (the
CLI's only seed); serve_jobs' KLEE jobs equal a monolithic KleeRun of the same
spec, and its pbSE job a PbseDriver whose budget starts after prepare().
"""

import argparse
import json
import os
import subprocess

HERE = os.path.dirname(os.path.abspath(__file__))
EXE = os.path.join(os.path.dirname(HERE), ".bench_build", "wallbench",
                   "wallbench")
KEEP = ("id", "ticks", "covered", "bugs", "prepared", "phases", "seed_states")


def record(workload, seed, tiny):
    cmd = [EXE, workload, "--reference", "--rng-seed=%d" % seed]
    if tiny:
        cmd.append("--tiny")
    out = json.loads(subprocess.run(cmd, check=True, capture_output=True,
                                    text=True).stdout.strip().splitlines()[-1])
    for c in out["campaigns"]:
        assert not c["error"], c
    return [{k: c[k] for k in KEEP if k in c} for c in out["campaigns"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1,2")
    ap.add_argument("--out", default=os.path.join(HERE, "references.json"))
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    refs = {}
    for workload in ("pbse_campaign", "serve_jobs", "concolic_seeds"):
        refs[workload] = {}
        for size in ("tiny", "full"):
            entries = {}
            for seed in seeds:
                entries[str(seed)] = record(workload, seed, size == "tiny")
                print(workload, size, seed, flush=True)
            refs[workload][size] = entries
    with open(args.out, "w") as f:
        json.dump(refs, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
