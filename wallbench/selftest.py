#!/usr/bin/env python3
"""Quick self-test of the wall-clock benchmark.

For each workload it makes a tiny-budget run with --trace 0 and --trace 1
and checks that the result line is well formed, that every campaign passed
and that the metric set is exactly the one BENCHMARK.json declares. Then it
runs one workload against a tampered copy of the references and checks that
the run reports the tampered campaign as failed.

    python3 wallbench/selftest.py
"""

import copy
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def result(args):
    proc = subprocess.run([sys.executable, RUN] + args, cwd=ROOT,
                          capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit("selftest: run.py %s exited with %d" % (
            " ".join(args), proc.returncode))
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys()
    assert isinstance(res["attempted"], int) and res["attempted"] >= 1
    assert isinstance(res["failed"], int)
    for name, metric in res["metrics"].items():
        assert set(metric) == {"value", "unit"}, (name, metric)
        assert isinstance(metric["value"], (int, float)), (name, metric)
    return res


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            res = result(["--workload", workload, "--seed", "1",
                          "--seconds", "1", "--trace", str(trace), "--tiny"])
            assert res["correct"] and res["failed"] == 0, (workload, trace, res)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            assert got == expected[trace], (workload, trace,
                                             set(got) ^ set(expected[trace]))
            print("ok   %-15s trace=%d  %d metrics, %d campaigns" % (
                workload, trace, len(got), res["attempted"]))

    # A reference one block above what the program covers must fail.
    with open(os.path.join(HERE, "references.json")) as f:
        references = json.load(f)
    tampered = copy.deepcopy(references)
    entry = tampered["pbse_campaign"]["tiny"]["1"][0]
    entry["covered"] += 1
    path = os.path.join(ROOT, ".bench_build", "selftest-references.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(tampered, f)
    res = result(["--workload", "pbse_campaign", "--seed", "1",
                  "--seconds", "1", "--trace", "0", "--tiny",
                  "--references", path])
    assert not res["correct"] and res["failed"] == 1, res
    print("ok   tampered reference for %s reported as failed" % entry["id"])


if __name__ == "__main__":
    main()
