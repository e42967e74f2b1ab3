#include "solver/solver.h"

#include <algorithm>

#include "obs/trace.h"
#include "solver/search_solver.h"
#include "support/log.h"

namespace pbse {

namespace {

/// Counter / event names interned once — the hot path pays an indexed add,
/// never a string hash (see stats.h).
struct SolverIds {
  obs::MetricId queries = obs::intern_metric("solver.queries");
  obs::MetricId solve_all = obs::intern_metric("solver.solve_all");
  obs::MetricId hint_hits = obs::intern_metric("solver.hint_hits");
  obs::MetricId zero_hits = obs::intern_metric("solver.zero_hits");
  obs::MetricId cache_hits = obs::intern_metric("solver.cache_hits");
  obs::MetricId shared_cache_hits =
      obs::intern_metric("solver.shared_cache_hits");
  /// UNSAT proved by a cached core that is a subset of the current list.
  obs::MetricId partition_hits = obs::intern_metric("solver.partition_hits");
  /// SAT proved by replaying a partition-cached counterexample.
  obs::MetricId model_reuse = obs::intern_metric("solver.model_reuse");
  /// Replays attempted (successful or not) — replay cost denominator.
  obs::MetricId model_replays = obs::intern_metric("solver.model_replays");
  /// Queries whose domain propagation was seeded from the memo.
  obs::MetricId domain_memo_hits =
      obs::intern_metric("solver.domain_memo_hits");
  obs::MetricId propagation_unsat =
      obs::intern_metric("solver.propagation_unsat");
  obs::MetricId search_full_pass =
      obs::intern_metric("solver.search_full_pass");
  obs::MetricId search_restarts = obs::intern_metric("solver.search_restarts");
  obs::MetricId search_sat = obs::intern_metric("solver.search_sat");
  obs::MetricId search_unsat = obs::intern_metric("solver.search_unsat");
  obs::MetricId search_unknown = obs::intern_metric("solver.search_unknown");
  obs::MetricId deferred_eqs = obs::intern_metric("solver.deferred_eqs");
  obs::MetricId deferred_fallback =
      obs::intern_metric("solver.deferred_fallback");
  /// Log2 histogram: virtual ticks charged per top-level query.
  obs::MetricId query_ticks = obs::intern_metric("solver.query_ticks");
  // Trace event / argument names.
  obs::MetricId ev_query = obs::intern_metric("query");
  obs::MetricId ev_solve_all = obs::intern_metric("solve_all");
  obs::MetricId ev_cache_hit = obs::intern_metric("cache_hit");
  obs::MetricId ev_shared_cache_hit = obs::intern_metric("shared_cache_hit");
  obs::MetricId ev_partition_hit = obs::intern_metric("partition_hit");
  obs::MetricId ev_model_reuse = obs::intern_metric("model_reuse");
  obs::MetricId ev_domain_memo_hit = obs::intern_metric("domain_memo_hit");
  obs::MetricId arg_constraints = obs::intern_metric("constraints");
  obs::MetricId arg_result = obs::intern_metric("result");
};

const SolverIds& ids() {
  static const SolverIds s;
  return s;
}

/// Order-insensitive cache key over a constraint list. Uses the same
/// per-constraint mix as ConstraintSet's hash and partition hashes, so
/// prefix keys compose algebraically:
///   cache_key(list + q) == cache_key(list) ^ mix_constraint_hash(q).
std::uint64_t cache_key(const std::vector<ExprRef>& constraints) {
  std::uint64_t h = 0x452821e638d01377ULL;
  for (const auto& c : constraints) h ^= mix_constraint_hash(c->hash());
  return h;
}

bool satisfies_all(const std::vector<ExprRef>& constraints,
                   CachingEvaluator& eval, std::uint64_t& evals) {
  for (const auto& c : constraints) {
    evals += expr_cost(c);
    if (!eval.evaluate_bool(c)) return false;
  }
  return true;
}

/// Shared evaluator over the all-zeros assignment; its memo persists for
/// the thread (bounded by the thread-local interning table). Thread-local
/// because the memo mutates on every evaluation.
CachingEvaluator& zeros_evaluator() {
  thread_local auto* eval =
      new CachingEvaluator(std::make_shared<Assignment>());
  return *eval;
}

void copy_into(const Assignment& from, Assignment* to,
               const std::vector<ExprRef>& constraints) {
  if (to == nullptr) return;
  std::vector<ReadSite> reads;
  for (const auto& c : constraints) collect_reads(c, reads);
  for (const auto& r : reads)
    to->mutable_bytes(r.array)[r.index] = from.byte(r.array.get(), r.index);
}

/// The per-array byte vectors of `found` restricted to the arrays that
/// `constraints` read — the persistable model for cache entries and the
/// counterexample store.
ModelBytes collect_model_bytes(const std::vector<ExprRef>& constraints,
                               Assignment& found) {
  std::vector<ReadSite> reads;
  for (const auto& c : constraints) collect_reads(c, reads);
  std::vector<ArrayRef> arrays;
  for (const auto& r : reads) {
    bool seen = false;
    for (const auto& a : arrays) seen = seen || a.get() == r.array.get();
    if (!seen) arrays.push_back(r.array);
  }
  ModelBytes mb;
  mb.reserve(arrays.size());
  for (const auto& a : arrays)
    mb.emplace_back(a, std::vector<std::uint8_t>(found.mutable_bytes(a)));
  return mb;
}

/// Sorted mixed constraint hashes of the list — the representation used
/// for UNSAT cores (subset query via std::includes).
std::vector<std::uint64_t> sorted_mixed_hashes(
    const std::vector<ExprRef>& constraints) {
  std::vector<std::uint64_t> hashes;
  hashes.reserve(constraints.size());
  for (const auto& c : constraints)
    hashes.push_back(mix_constraint_hash(c->hash()));
  std::sort(hashes.begin(), hashes.end());
  return hashes;
}

}  // namespace

namespace {

/// A deferred "defined-by" equality: `constraint` is Eq(defined, <lanes>)
/// (or its negation) where every lane byte occurs in no other constraint
/// of the list, so the lane bytes can simply be back-computed from a model
/// of the remaining constraints. This is how checksum/CRC equalities stay
/// cheap: solve the data, then write the matching checksum.
struct DeferredEquality {
  ExprRef constraint;
  ExprRef defined;              // the non-assembly side
  std::vector<ByteLane> lanes;  // the free checksum bytes
  bool negated = false;         // Ne instead of Eq
};

std::uint64_t lane_site_key(const ByteLane& lane) {
  return (reinterpret_cast<std::uintptr_t>(lane.array.get()) << 20) ^
         lane.index;
}

std::uint64_t read_site_key(const ReadSite& site) {
  return (reinterpret_cast<std::uintptr_t>(site.array.get()) << 20) ^
         site.index;
}

/// Extracts deferrable equalities from `constraints` (removing them).
std::vector<DeferredEquality> extract_deferred(
    std::vector<ExprRef>& constraints) {
  // Occurrence count of every site across the list.
  std::unordered_map<std::uint64_t, unsigned> occurrences;
  for (const auto& c : constraints)
    for (const auto& r : cached_reads(c)) ++occurrences[read_site_key(r)];

  std::vector<DeferredEquality> deferred;
  std::vector<ExprRef> kept;
  kept.reserve(constraints.size());
  for (const auto& c : constraints) {
    // Accept Eq(a, b) and its Xor-with-true negation.
    ExprRef eq = c;
    bool negated = false;
    if (c->kind() == ExprKind::kXor && c->num_kids() == 2 &&
        c->kid(1)->is_true() && c->kid(0)->kind() == ExprKind::kEq) {
      eq = c->kid(0);
      negated = true;
    }
    bool taken = false;
    if (eq->kind() == ExprKind::kEq) {
      for (int side = 0; side < 2 && !taken; ++side) {
        const ExprRef& candidate = eq->kid(side);
        const ExprRef& other = eq->kid(1 - side);
        std::vector<ByteLane> lanes;
        if (!match_byte_assembly(candidate, lanes)) continue;
        // Every lane byte must be exclusive to this constraint and must
        // not feed the other side.
        bool exclusive = true;
        for (const auto& lane : lanes)
          exclusive = exclusive && occurrences[lane_site_key(lane)] == 1;
        if (!exclusive) continue;
        for (const auto& r : cached_reads(other))
          for (const auto& lane : lanes)
            if (r.array.get() == lane.array.get() && r.index == lane.index)
              exclusive = false;
        if (!exclusive) continue;
        deferred.push_back(DeferredEquality{c, other, lanes, negated});
        taken = true;
      }
    }
    if (!taken) kept.push_back(c);
  }
  constraints.swap(kept);
  return deferred;
}

}  // namespace

CachingEvaluator& Solver::hint_evaluator(const HintRef& hint) {
  if (hint_evaluators_.size() > 256) hint_evaluators_.clear();
  auto& slot = hint_evaluators_[hint.get()];
  if (slot == nullptr || slot->assignment().get() != hint.get())
    slot = std::make_shared<CachingEvaluator>(hint);
  return *slot;
}

void Solver::memo_store(std::uint64_t key, const DomainMap& domains,
                        std::uint32_t delta_depth) {
  if (domain_memo_.size() >= options_.max_domain_memo_entries)
    domain_memo_.clear();  // deterministic wholesale reset
  const auto [it, inserted] =
      domain_memo_.try_emplace(key, DomainMemoEntry{domains, delta_depth});
  if (!inserted && delta_depth < it->second.delta_depth)
    it->second = DomainMemoEntry{domains, delta_depth};
}

void Solver::publish_sat(const SliceCtx& ctx, const ModelBytes& model) {
  if (!options_.use_cache || !options_.use_cex_cache) return;
  // Region ids are stable while a partition grows (the min member-site
  // content hash only changes when a lower-hashing fresh site joins), so
  // filing under the touched partitions is enough: the path's next query
  // over these bytes probes the same ids. check_sat already folded the
  // post-add id (Slice::merged) into ctx.partitions, which covers the
  // fresh-site case too.
  for (const std::uint64_t k : ctx.partitions) {
    cex_.add_model(k, model);
    if (options_.shared_cache != nullptr)
      options_.shared_cache->publish_model(k, model);
  }
}

void Solver::publish_unsat(const SliceCtx& ctx,
                           const std::vector<std::uint64_t>& core) {
  // The one place UNSAT cores leave the pipeline. Every consumer of the
  // core representation (L1 cex store, shared L2) is fed here, so the
  // weakening — "the sliced list's sorted
  // mixed hashes stand in for the full path condition" — exists exactly
  // once.
  if (!options_.use_cache || !options_.use_cex_cache) return;
  // No predicted key: an UNSAT query is never added to the path.
  for (const std::uint64_t k : ctx.partitions) {
    cex_.add_unsat_core(k, core);
    if (options_.shared_cache != nullptr)
      options_.shared_cache->publish_unsat_core(k, core);
  }
}

SolverResult Solver::solve_list(const std::vector<ExprRef>& constraints,
                                const SliceCtx& ctx, Assignment* model,
                                const HintRef& hint) {
  std::vector<ExprRef> remaining = constraints;
  const std::vector<DeferredEquality> deferred = extract_deferred(remaining);
  if (!deferred.empty()) stats_.add(ids().deferred_eqs, deferred.size());

  const SolverResult result = solve_core(remaining, ctx, model, hint);
  if (result != SolverResult::kSat || deferred.empty()) return result;
  if (model == nullptr) return result;  // satisfiable either way: the lane
                                        // bytes are free

  // Back-compute the deferred checksum bytes against the final model.
  for (const auto& d : deferred) {
    std::uint64_t value = evaluate(d.defined, *model);
    if (d.negated) value += 1;  // any different value works
    for (const auto& lane : d.lanes) {
      model->mutable_bytes(lane.array)[lane.index] =
          static_cast<std::uint8_t>(value >> lane.bit_offset);
    }
  }
  // Verify (chained definitions would break the one-pass completion).
  for (const auto& d : deferred) {
    clock_.advance(expr_cost(d.constraint));
    if (!evaluate_bool(d.constraint, *model)) {
      stats_.add(ids().deferred_fallback);
      return solve_core(constraints, ctx, model, hint);
    }
  }
  return SolverResult::kSat;
}

SolverResult Solver::solve_core(const std::vector<ExprRef>& constraints,
                                const SliceCtx& ctx, Assignment* model,
                                const HintRef& hint) {
  if (constraints.empty()) return SolverResult::kSat;

  std::uint64_t evals = 0;

  // Fast path 1: the hint assignment already satisfies everything — the
  // concolic fast path that makes re-walking a seed path nearly free.
  // Evaluations are memoized per hint across queries.
  if (hint != nullptr && satisfies_all(constraints, hint_evaluator(hint), evals)) {
    charge(evals);
    stats_.add(ids().hint_hits);
    copy_into(*hint, model, constraints);
    return SolverResult::kSat;
  }

  // Fast path 2: the all-zeros assignment (memo shared process-wide).
  if (satisfies_all(constraints, zeros_evaluator(), evals)) {
    charge(evals);
    Assignment zeros;
    stats_.add(ids().zero_hits);
    copy_into(zeros, model, constraints);
    return SolverResult::kSat;
  }

  const std::uint64_t key = cache_key(constraints);
  const bool cex_enabled = options_.use_cache && options_.use_cex_cache &&
                           !ctx.partitions.empty();
  if (options_.use_cache) {
    if (const QueryCache::Entry* hit = cache_.lookup(key, constraints)) {
      stats_.add(ids().cache_hits);
      obs::trace_instant(obs::Category::kSolver, ids().ev_cache_hit,
                         clock_.now());
      if (hit->result == SolverResult::kSat && model != nullptr) {
        Assignment cached;
        for (const auto& [array, bytes] : hit->model) cached.set(array, bytes);
        copy_into(cached, model, constraints);
      }
      return hit->result;
    }
    // L2: the shared cross-campaign cache. A hit is promoted into the L1
    // (already remapped onto this campaign's arrays by lookup()).
    if (options_.shared_cache != nullptr) {
      if (auto hit = options_.shared_cache->lookup(key, constraints)) {
        stats_.add(ids().shared_cache_hits);
        obs::trace_instant(obs::Category::kSolver, ids().ev_shared_cache_hit,
                           clock_.now());
        const SolverResult shared_result = hit->result;
        if (shared_result == SolverResult::kSat && model != nullptr) {
          Assignment cached;
          for (const auto& [array, bytes] : hit->model)
            cached.set(array, bytes);
          copy_into(cached, model, constraints);
        }
        cache_.insert(key, std::move(*hit));
        return shared_result;
      }
    }
  }

  // Partition-keyed counterexample reuse (the exact caches above missed).
  // Cores/models are filed under the content hash of every independence
  // partition a solved query touched; this query's ctx.partitions name the
  // same regions, so overlapping past results are one hash lookup away.
  std::vector<std::uint64_t> mixed;  // sorted; also the core we'd publish
  if (cex_enabled) {
    mixed = sorted_mixed_hashes(constraints);

    // (a) UNSAT-by-subset: a cached core that is a subset of this list
    // proves this list UNSAT (adding constraints never makes an
    // unsatisfiable subset satisfiable). Hash-compare only — no
    // evaluation; trusted by content hash like exact UNSAT entries.
    const auto core_subsumes = [&](const std::vector<std::uint64_t>& core) {
      evals += core.size();
      return std::includes(mixed.begin(), mixed.end(), core.begin(),
                           core.end());
    };
    bool unsat_by_core = false;
    for (const std::uint64_t pkey : ctx.partitions) {
      const auto* own_cores = cex_.unsat_cores(pkey);
      if (own_cores != nullptr) {
        for (const auto& core : *own_cores)
          if ((unsat_by_core = core_subsumes(core))) break;
      }
      if (!unsat_by_core && options_.shared_cache != nullptr) {
        for (const auto& core :
             options_.shared_cache->partition_unsat_cores(pkey)) {
          // L1 already checked (and charged) this exact core: publishing
          // mirrors every L1 entry into L2, so skipping duplicates
          // uncharged is what keeps single-campaign shared-cache runs
          // tick-identical to --no-share-cache.
          if (own_cores != nullptr &&
              std::find(own_cores->begin(), own_cores->end(), core) !=
                  own_cores->end())
            continue;
          if ((unsat_by_core = core_subsumes(core))) break;
        }
      }
      if (unsat_by_core) break;
    }
    if (unsat_by_core) {
      charge(evals);
      stats_.add(ids().partition_hits);
      obs::trace_instant(obs::Category::kSolver, ids().ev_partition_hit,
                         clock_.now());
      cache_.insert(key, QueryCache::Entry{SolverResult::kUnsat, {}});
      if (options_.shared_cache != nullptr)
        options_.shared_cache->insert(
            key, QueryCache::Entry{SolverResult::kUnsat, {}});
      return SolverResult::kUnsat;
    }

    // (b) Model replay (KLEE's CexCachingSolver superset case): a cached
    // counterexample from an overlapping partition is replayed through the
    // evaluator; if it satisfies every constraint, the query is SAT
    // without search. Replays are verified evaluations — charged to the
    // virtual clock and bounded by max_model_replays per layer.
    const auto replay = [&](const ModelBytes& candidate) {
      stats_.add(ids().model_replays);
      auto assignment = std::make_shared<Assignment>();
      for (const auto& [array, bytes] : candidate)
        assignment->set(array, bytes);
      CachingEvaluator eval(assignment);
      if (!satisfies_all(constraints, eval, evals)) return false;
      charge(evals);
      stats_.add(ids().model_reuse);
      obs::trace_instant(obs::Category::kSolver, ids().ev_model_reuse,
                         clock_.now());
      copy_into(*assignment, model, constraints);
      QueryCache::Entry entry;
      entry.result = SolverResult::kSat;
      entry.model = collect_model_bytes(constraints, *assignment);
      publish_sat(ctx, entry.model);
      if (options_.shared_cache != nullptr)
        options_.shared_cache->insert(key, entry);
      cache_.insert(key, std::move(entry));
      return true;
    };
    std::size_t budget = options_.max_model_replays;
    for (const std::uint64_t pkey : ctx.partitions) {
      if (budget == 0) break;
      if (const auto* models = cex_.models(pkey)) {
        // Newest first: the latest path extensions replay best.
        for (auto it = models->rbegin(); it != models->rend() && budget > 0;
             ++it) {
          --budget;
          if (replay(*it)) return SolverResult::kSat;
        }
      }
    }
    if (options_.shared_cache != nullptr) {
      budget = options_.max_model_replays;
      for (const std::uint64_t pkey : ctx.partitions) {
        if (budget == 0) break;
        const auto* own_models = cex_.models(pkey);
        const auto already_in_l1 = [&](const ModelBytes& candidate) {
          if (own_models == nullptr) return false;
          for (const auto& m : *own_models)
            if (models_equal(m, candidate)) return true;
          return false;
        };
        for (const auto& candidate :
             options_.shared_cache->partition_models(pkey, constraints)) {
          if (budget == 0) break;
          // Same single-campaign parity rule as the core loop: models this
          // solver itself published are already replayed from L1, so a
          // verbatim L2 copy is skipped without charge.
          if (already_in_l1(candidate)) continue;
          --budget;
          if (replay(candidate)) return SolverResult::kSat;
        }
      }
    }
  }

  // Domain propagation, seeded from the per-partition memo when this
  // list extends a previously propagated prefix. The memo key composes
  // algebraically: memo[cache_key(prefix)] holds the prefix's propagated
  // domains, and cache_key(prefix) == key ^ mix(query) — no list
  // materialization needed to probe it. Sound because domains only ever
  // shrink: a prefix's domains over-approximate the full list's feasible
  // set, and propagate_delta re-checks the prefix against the narrowed
  // domains.
  DomainMap domains;
  bool feasible = false;
  std::uint32_t memo_depth = 0;  // delta layers behind `domains`
  if (options_.use_domain_memo && ctx.query != nullptr &&
      std::count(constraints.begin(), constraints.end(), ctx.query) == 1) {
    std::vector<ExprRef> prefix;
    prefix.reserve(constraints.size() - 1);
    for (const auto& c : constraints)
      if (c.get() != ctx.query.get()) prefix.push_back(c);
    const std::uint64_t prefix_key =
        key ^ mix_constraint_hash(ctx.query->hash());
    const std::vector<ExprRef> added{ctx.query};
    const auto it = domain_memo_.find(prefix_key);
    if (it != domain_memo_.end() &&
        it->second.delta_depth < options_.max_domain_memo_delta_depth) {
      domains = it->second.domains;  // copy: the memo entry stays pristine
      evals += domains.size();       // charged like any other solver work
      memo_depth = it->second.delta_depth + 1;
      stats_.add(ids().domain_memo_hits);
      obs::trace_instant(obs::Category::kSolver, ids().ev_domain_memo_hit,
                         clock_.now());
      feasible = propagate_delta(prefix, added, domains, evals);
    } else {
      // Miss — or the entry has exhausted its delta budget, in which case
      // full propagation is recomputed (and re-memoized at depth 0) so
      // one-pass delta imprecision cannot compound along a path.
      // Memoizing the prefix alone before layering the query on lets the
      // sibling query (the branch's other direction shares the exact
      // prefix) and the path's next query both hit.
      feasible = propagate_domains(prefix, domains, evals);
      if (feasible) {
        memo_store(prefix_key, domains, 0);
        memo_depth = 1;
        feasible = propagate_delta(prefix, added, domains, evals);
      }
    }
  } else {
    feasible = propagate_domains(constraints, domains, evals);
  }
  if (!feasible) {
    charge(evals);
    stats_.add(ids().propagation_unsat);
    if (options_.use_cache) {
      cache_.insert(key, QueryCache::Entry{SolverResult::kUnsat, {}});
      if (options_.shared_cache != nullptr)
        options_.shared_cache->insert(key,
                                      QueryCache::Entry{SolverResult::kUnsat, {}});
    }
    if (cex_enabled) publish_unsat(ctx, mixed);
    return SolverResult::kUnsat;
  }
  if (options_.use_domain_memo) {
    // Memoize the full list's domains: when the engine extends this path,
    // the next query's prefix IS this list and probes exactly this key.
    memo_store(key, domains, memo_depth);
  }

  // Bounded backtracking search, staged:
  //   A. candidates capped to hint+boundary values — exhaustively explores
  //      the small "interesting corners" tree (cheap, finds most models);
  //   B. full domains, hint values first (stays close to the model);
  //   C. full domains, boundary values first (escapes hint-poisoned
  //      subtrees).
  // A kUnsat from a CAPPED pass is not conclusive; only full passes may
  // report kUnsat.
  Assignment found;
  const Assignment* hint_raw = hint.get();
  SolverResult result = backtracking_search(
      constraints, domains, hint_raw, /*hint_first=*/true, /*candidate_cap=*/6,
      options_.max_search_nodes / 4, options_.max_search_evals / 4, evals,
      found);
  if (result == SolverResult::kUnsat) result = SolverResult::kUnknown;
  if (result == SolverResult::kUnknown) {
    stats_.add(ids().search_full_pass);
    result = backtracking_search(constraints, domains, hint_raw,
                                 /*hint_first=*/true, /*candidate_cap=*/0,
                                 options_.max_search_nodes / 2,
                                 options_.max_search_evals / 2, evals, found);
  }
  if (result == SolverResult::kUnknown && hint != nullptr) {
    stats_.add(ids().search_restarts);
    result = backtracking_search(constraints, domains, hint_raw,
                                 /*hint_first=*/false, /*candidate_cap=*/0,
                                 options_.max_search_nodes / 4,
                                 options_.max_search_evals / 4, evals, found);
  }
  charge(evals);

  switch (result) {
    case SolverResult::kSat: {
      stats_.add(ids().search_sat);
      copy_into(found, model, constraints);
      if (options_.use_cache) {
        QueryCache::Entry entry;
        entry.result = SolverResult::kSat;
        entry.model = collect_model_bytes(constraints, found);
        publish_sat(ctx, entry.model);
        if (options_.shared_cache != nullptr)
          options_.shared_cache->insert(key, entry);
        cache_.insert(key, std::move(entry));
      }
      return SolverResult::kSat;
    }
    case SolverResult::kUnsat:
      stats_.add(ids().search_unsat);
      if (options_.use_cache) {
        cache_.insert(key, QueryCache::Entry{SolverResult::kUnsat, {}});
        if (options_.shared_cache != nullptr)
          options_.shared_cache->insert(key,
                                        QueryCache::Entry{SolverResult::kUnsat, {}});
      }
      if (cex_enabled) publish_unsat(ctx, mixed);
      return SolverResult::kUnsat;
    case SolverResult::kUnknown:
      stats_.add(ids().search_unknown);
      if (log_level() >= LogLevel::kDebug) {
        PBSE_LOG_DEBUG << "solver unknown over " << constraints.size()
                       << " constraints:";
        for (std::size_t i = 0; i < constraints.size() && i < 8; ++i)
          PBSE_LOG_DEBUG << "  [" << i << "] " << constraints[i]->to_string();
      }
      // Unknown results are NOT cached: a later query with a different hint
      // might succeed within budget.
      return SolverResult::kUnknown;
  }
  return SolverResult::kUnknown;
}

SolverResult Solver::check_sat(const ConstraintSet& cs, const ExprRef& query,
                               Assignment* model, const HintRef& hint) {
  stats_.add(ids().queries);

  if (query->is_false()) return SolverResult::kUnsat;

  ConstraintSet::Slice slice =
      options_.use_independence ? cs.slice(query) : cs.whole();
  SliceCtx ctx;
  ctx.partitions = std::move(slice.partitions);
  if (!query->is_true()) {
    // The query may already be a member of `cs` (validate_model's repair
    // path re-checks a path constraint), in which case the slice already
    // contains it. Appending it again would double its hash in the
    // order-insensitive XOR cache key — the duplicate cancels and the key
    // collapses to the key of the list WITHOUT the query, filing
    // query-narrowed results (domain memo, exact caches, UNSAT cores)
    // under the weaker list's identity.
    const bool already_present =
        std::any_of(slice.constraints.begin(), slice.constraints.end(),
                    [&](const ExprRef& c) { return c.get() == query.get(); });
    if (!already_present) slice.constraints.push_back(query);
    ctx.query = query;
    // Also file/probe under the region id the touched partitions will
    // carry once the query joins the path (min over touched ids and the
    // query's fresh sites): a first query over fresh bytes publishes its
    // counterexample under the id the partition it CREATES will have.
    if (slice.merged != 0 &&
        std::find(ctx.partitions.begin(), ctx.partitions.end(),
                  slice.merged) == ctx.partitions.end()) {
      ctx.partitions.push_back(slice.merged);
      std::sort(ctx.partitions.begin(), ctx.partitions.end());
    }
  }

  const std::uint64_t t0 = clock_.now();
  obs::trace_begin(obs::Category::kSolver, ids().ev_query, t0,
                   slice.constraints.size(), ids().arg_constraints);
  const SolverResult result = solve_list(slice.constraints, ctx, model, hint);
  const std::uint64_t t1 = clock_.now();
  stats_.observe(ids().query_ticks, t1 - t0);
  obs::trace_end(obs::Category::kSolver, ids().ev_query, t1,
                 static_cast<std::uint64_t>(result), ids().arg_result);
  return result;
}

SolverResult Solver::solve_all(const ConstraintSet& cs, Assignment* model,
                               const HintRef& hint) {
  stats_.add(ids().solve_all);
  ConstraintSet::Slice slice = cs.whole();
  SliceCtx ctx;
  ctx.partitions = std::move(slice.partitions);
  const std::uint64_t t0 = clock_.now();
  obs::trace_begin(obs::Category::kSolver, ids().ev_solve_all, t0,
                   slice.constraints.size(), ids().arg_constraints);
  const SolverResult result = solve_list(slice.constraints, ctx, model, hint);
  const std::uint64_t t1 = clock_.now();
  stats_.observe(ids().query_ticks, t1 - t0);
  obs::trace_end(obs::Category::kSolver, ids().ev_solve_all, t1,
                 static_cast<std::uint64_t>(result), ids().arg_result);
  return result;
}

std::optional<std::uint64_t> Solver::get_value(const ConstraintSet& cs,
                                               const ExprRef& e,
                                               const HintRef& hint) {
  if (e->is_constant()) return e->constant_value();
  if (hint != nullptr) {
    // Prefer the hint's value when it is consistent with the constraints.
    CachingEvaluator& eval = hint_evaluator(hint);
    bool ok = true;
    for (const auto& c : cs.constraints()) {
      clock_.advance(options_.ticks_per_eval);
      if (!eval.evaluate_bool(c)) {
        ok = false;
        break;
      }
    }
    if (ok) return eval.evaluate(e);
  }
  Assignment model;
  if (solve_all(cs, &model, hint) != SolverResult::kSat) return std::nullopt;
  return evaluate(e, model);
}

}  // namespace pbse
