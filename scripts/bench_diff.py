#!/usr/bin/env python3
"""Compares two BENCH_pbse.json files on their deterministic fields.

Wall-clock fields (wall_seconds) vary run to run and are ignored; coverage,
ticks, bug counts, and solver-cache counters — including the incremental
pipeline's hit classes (partition_hits, model_reuse, model_replays,
domain_memo_hits), the barren-subsumption kill count (subsumed_barren) and
the static-analysis pruning counters (static_edge_kills, phase_targets,
pruned_phase_targets) — are virtual-clock-deterministic for a fixed bench
configuration, so any drift is a real behaviour change and
fails the check.
Usage: bench_diff.py <golden.json> <fresh.json>
"""
import json
import sys

# The solver_cache contract: every key the bench emits that is deterministic
# under fixed jobs + --no-share-cache. A key absent from an (older) file
# diffs as 0, so adding a counter forces a golden regeneration exactly once.
SOLVER_CACHE_KEYS = (
    "shared_hits",
    "shared_misses",
    "shared_hit_rate",
    "shard_contention",
    "shared_entries",
    "l1_hits",
    "partition_hits",
    "model_reuse",
    "model_replays",
    "domain_memo_hits",
    "subsumed_barren",
    "static_edge_kills",
    "phase_targets",
    "pruned_phase_targets",
    "states_forked",
    "queries",
)

# The multiproc section (written by scripts/multiproc_smoke.sh): transfer
# volume and requeue count of the fixed worker-tier workload are
# deterministic; wall_seconds and the RSS numbers are not and are ignored.
MULTIPROC_KEYS = (
    "worker_processes",
    "jobs_requeued",
    "frame_bytes",
)


def deterministic(d):
    out = {k: d[k] for k in ("bench", "jobs", "share_cache", "total_covered",
                             "total_bugs", "total_ticks")}
    out["solver_cache"] = {k: d["solver_cache"].get(k, 0)
                           for k in SOLVER_CACHE_KEYS}
    out["campaigns"] = [{k: c[k] for k in ("name", "covered", "ticks", "bugs")}
                        for c in d["campaigns"]]
    out["multiproc"] = {k: d.get("multiproc", {}).get(k, 0)
                        for k in MULTIPROC_KEYS}
    return out


def report_drift(key, old, new, indent="  "):
    if isinstance(old, dict) and isinstance(new, dict):
        for k in old:
            if old[k] != new.get(k):
                report_drift(f"{key}.{k}", old[k], new.get(k), indent)
        return
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            if a != b:
                report_drift(f"{key}[{i}]", a, b, indent)
        return
    print(f"{indent}{key}: {old!r} -> {new!r}", file=sys.stderr)


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    golden_path, fresh_path = sys.argv[1], sys.argv[2]
    with open(golden_path) as f:
        golden = deterministic(json.load(f))
    with open(fresh_path) as f:
        fresh = deterministic(json.load(f))
    if golden == fresh:
        print(f"bench_diff: {fresh_path} matches {golden_path}")
        return 0
    print(f"bench_diff: DRIFT between {golden_path} and {fresh_path}:",
          file=sys.stderr)
    for key in golden:
        if golden[key] != fresh[key]:
            report_drift(key, golden[key], fresh[key])
    print("If the change is intended, regenerate the golden with:\n"
          "  ./build/bench/table1_readelf_searchers --quick --jobs=2 "
          "--no-share-cache\n"
          "  bash scripts/multiproc_smoke.sh   # refills the multiproc "
          "section", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
