// Machine-readable bench output: every table bench writes BENCH_pbse.json
// (overwriting; the "bench" field says which harness produced it) so the
// perf trajectory — wall-clock, coverage, solver-cache hit-rate — can be
// tracked across PRs without scraping the text tables.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/parallel.h"

namespace pbse::bench {

inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

/// Writes the canonical BENCH_pbse.json for one bench run.
inline void write_bench_json(const std::string& path, const std::string& bench,
                             unsigned jobs, bool share_cache,
                             const core::ParallelCampaignRunner& runner,
                             const std::vector<core::CampaignOutcome>& outcomes) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::uint64_t covered = 0, bugs = 0, ticks = 0;
  for (const auto& o : outcomes) {
    covered += o.covered;
    bugs += o.bugs;
    ticks += o.ticks;
  }
  const Stats& agg = runner.aggregate_stats();
  const std::uint64_t shared_hits = agg.get("cache.shared_hits");
  const std::uint64_t shared_misses = agg.get("cache.shared_misses");
  const std::uint64_t l1_hits = agg.get("solver.cache_hits");
  const std::uint64_t queries = agg.get("solver.queries");
  // Incremental-pipeline hit classes (solver.h): queries resolved without
  // reaching the backtracking search. Deterministic under fixed jobs and
  // --no-share-cache, so bench_diff.py gates on them.
  const std::uint64_t partition_hits = agg.get("solver.partition_hits");
  const std::uint64_t model_reuse = agg.get("solver.model_reuse");
  const std::uint64_t model_replays = agg.get("solver.model_replays");
  const std::uint64_t domain_memo_hits = agg.get("solver.domain_memo_hits");
  // Barren subsumption (executor.cc): states terminated at block entry
  // without solver work, plus the denominator (forked states) the ≥15%
  // pruning target in EXPERIMENTS.md is measured against.
  const std::uint64_t subsumed_barren = agg.get("executor.subsumed_barren");
  const std::uint64_t states_forked = agg.get("executor.forks");
  // Static-analysis pruning (DESIGN.md §12): forks killed on statically-
  // infeasible edges (no solver query at all) and the phase scheduler's
  // target universe before/after dropping statically-unreachable blocks.
  const std::uint64_t static_edge_kills =
      agg.get("executor.static_edge_kills");
  const std::uint64_t phase_targets = agg.get("pbse.phase_targets");
  const std::uint64_t pruned_phase_targets =
      agg.get("pbse.pruned_phase_targets");
  const double denom = static_cast<double>(shared_hits + shared_misses);
  const double hit_rate = denom > 0 ? shared_hits / denom : 0.0;

  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"%s\",\n", json_escape(bench).c_str());
  std::fprintf(f, "  \"jobs\": %u,\n", jobs);
  std::fprintf(f, "  \"share_cache\": %s,\n", share_cache ? "true" : "false");
  std::fprintf(f, "  \"wall_seconds\": %.3f,\n", runner.wall_seconds());
  std::fprintf(f, "  \"total_covered\": %llu,\n",
               static_cast<unsigned long long>(covered));
  std::fprintf(f, "  \"total_bugs\": %llu,\n",
               static_cast<unsigned long long>(bugs));
  std::fprintf(f, "  \"total_ticks\": %llu,\n",
               static_cast<unsigned long long>(ticks));
  std::fprintf(f, "  \"solver_cache\": {\n");
  std::fprintf(f, "    \"shared_hits\": %llu,\n",
               static_cast<unsigned long long>(shared_hits));
  std::fprintf(f, "    \"shared_misses\": %llu,\n",
               static_cast<unsigned long long>(shared_misses));
  std::fprintf(f, "    \"shared_hit_rate\": %.4f,\n", hit_rate);
  std::fprintf(f, "    \"shard_contention\": %llu,\n",
               static_cast<unsigned long long>(agg.get("cache.shared_contention")));
  std::fprintf(f, "    \"shared_entries\": %llu,\n",
               static_cast<unsigned long long>(agg.get("cache.shared_entries")));
  std::fprintf(f, "    \"l1_hits\": %llu,\n",
               static_cast<unsigned long long>(l1_hits));
  std::fprintf(f, "    \"partition_hits\": %llu,\n",
               static_cast<unsigned long long>(partition_hits));
  std::fprintf(f, "    \"model_reuse\": %llu,\n",
               static_cast<unsigned long long>(model_reuse));
  std::fprintf(f, "    \"model_replays\": %llu,\n",
               static_cast<unsigned long long>(model_replays));
  std::fprintf(f, "    \"domain_memo_hits\": %llu,\n",
               static_cast<unsigned long long>(domain_memo_hits));
  std::fprintf(f, "    \"subsumed_barren\": %llu,\n",
               static_cast<unsigned long long>(subsumed_barren));
  std::fprintf(f, "    \"static_edge_kills\": %llu,\n",
               static_cast<unsigned long long>(static_edge_kills));
  std::fprintf(f, "    \"phase_targets\": %llu,\n",
               static_cast<unsigned long long>(phase_targets));
  std::fprintf(f, "    \"pruned_phase_targets\": %llu,\n",
               static_cast<unsigned long long>(pruned_phase_targets));
  std::fprintf(f, "    \"states_forked\": %llu,\n",
               static_cast<unsigned long long>(states_forked));
  std::fprintf(f, "    \"queries\": %llu\n",
               static_cast<unsigned long long>(queries));
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"campaigns\": [\n");
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const auto& o = outcomes[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"covered\": %llu, \"ticks\": %llu, "
                 "\"bugs\": %llu, \"wall_seconds\": %.3f}%s\n",
                 json_escape(o.name).c_str(),
                 static_cast<unsigned long long>(o.covered),
                 static_cast<unsigned long long>(o.ticks),
                 static_cast<unsigned long long>(o.bugs), o.wall_seconds,
                 i + 1 < outcomes.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s (wall %.2fs, %u jobs, cache hit-rate %.1f%%)\n",
              path.c_str(), runner.wall_seconds(), jobs, hit_rate * 100.0);
}

}  // namespace pbse::bench
