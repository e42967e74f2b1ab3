// Per-location barren interpolants: weakened constraint summaries that
// prove an incoming execution state redundant at basic-block entry without
// a solver query (the TracerX "half interpolation" direction — see
// DESIGN.md §10).
//
// When a state dies with its exploration exhausted, the path condition it
// held ON ENTRY to each recently-entered block (an entry-time prefix of its
// append-only constraint list — a weakening of the full death-time
// condition) is filed under that GLOBAL BASIC BLOCK, as sorted mixed
// constraint hashes (the representation CexStore uses for UNSAT cores). A
// later state whose constraint set is a SUPERSET of a filed prefix
// syntactically implies it — one std::includes per candidate: it is
// attempting a restriction of a suffix that already went nowhere. This
// weakening is heuristic (an entry prefix, not a weakest precondition —
// the dead state's memory is not part of the key), so the executor
// additionally requires the probed state to have stalled on coverage
// before it may be killed, and the subsumption ablation gates the net
// effect on covered blocks.
//
// Entries are per-campaign (single-threaded, deterministic). The table is
// bounded: per-key lists via cex_detail::bounded_add_core (small summaries
// first — they subsume the most supersets), and the key count by a
// deterministic wholesale clear, the same policy as the solver's domain
// memo.
#pragma once

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "solver/cache.h"

namespace pbse {

class InterpolantTable {
 public:
  /// Per-key summary bound (mirrors CexStore::kMaxPerKey).
  static constexpr std::size_t kMaxPerKey = 8;
  /// Keys retained before a deterministic wholesale clear.
  static constexpr std::size_t kMaxKeys = 1 << 16;

  /// Files a barren entry-prefix summary (sorted mixed hashes) under the
  /// global block `location` the dead state entered holding it.
  void add_barren(std::uint64_t location,
                  const std::vector<std::uint64_t>& hashes) {
    if (barren_.size() >= kMaxKeys && barren_.find(location) == barren_.end())
      barren_.clear();  // deterministic wholesale reset, like the domain memo
    cex_detail::bounded_add_core(barren_[location], hashes, kMaxPerKey);
  }

  /// True iff a barren summary at `location` is a subset of `hashes`
  /// (which must be ascending).
  bool barren_subsumes(std::uint64_t location,
                       const std::vector<std::uint64_t>& hashes) const {
    const auto it = barren_.find(location);
    if (it == barren_.end()) return false;
    for (const auto& summary : it->second) {
      if (summary.size() > hashes.size()) continue;
      if (std::includes(hashes.begin(), hashes.end(), summary.begin(),
                        summary.end()))
        return true;
    }
    return false;
  }

  std::size_t num_barren_keys() const { return barren_.size(); }
  void clear() { barren_.clear(); }

  using Map =
      std::unordered_map<std::uint64_t, std::vector<std::vector<std::uint64_t>>>;

  /// Raw map, for snapshot/restore (src/serialize). Restore writes
  /// per-key lists verbatim — list order is eviction state, and the
  /// kMaxKeys wholesale-clear trigger depends on exact key counts.
  const Map& raw_barren() const { return barren_; }
  std::vector<std::vector<std::uint64_t>>& mutable_barren(std::uint64_t key) {
    return barren_[key];
  }

 private:
  Map barren_;
};

}  // namespace pbse
