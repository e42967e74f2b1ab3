// Solver soundness properties, checked against exhaustive enumeration on
// small domains: kSat answers must come with genuinely satisfying models,
// kUnsat answers must have no solution at all — plus the subsumption
// layer's contracts (DESIGN.md §10): pruning may never change WHICH blocks
// get covered on an exhaustively-explored program, and the
// --no-subsumption path must be bit-identical to the pre-change engine.
#include <gtest/gtest.h>

#include "core/driver.h"
#include "expr/evaluator.h"
#include "solver/interpolant.h"
#include "solver/solver.h"
#include "support/rng.h"
#include "targets/targets.h"

namespace pbse {
namespace {

ArrayRef make_array() {
  static int counter = 0;
  return std::make_shared<Array>("p" + std::to_string(counter++), 4);
}

/// A random width-1 constraint over two chosen bytes of `array` (and
/// constants), built from a small grammar.
ExprRef random_constraint_on(const ArrayRef& array, std::uint32_t i0,
                             std::uint32_t i1, Rng& rng) {
  const ExprRef b0 = mk_zext(mk_read(array, i0), 16);
  const ExprRef b1 = mk_zext(mk_read(array, i1), 16);
  auto random_term = [&]() -> ExprRef {
    switch (rng.below(6)) {
      case 0: return b0;
      case 1: return b1;
      case 2: return mk_add(b0, b1);
      case 3: return mk_mul(b0, mk_const(rng.below(7) + 1, 16));
      case 4: return mk_xor(b0, b1);
      default: return mk_or(b0, mk_shl(b1, mk_const(8, 16)));
    }
  };
  const ExprRef lhs = random_term();
  const ExprRef rhs = rng.below(2) == 0
                          ? mk_const(rng.below(600), 16)
                          : random_term();
  switch (rng.below(4)) {
    case 0: return mk_eq(lhs, rhs);
    case 1: return mk_ult(lhs, rhs);
    case 2: return mk_ule(lhs, rhs);
    default: return mk_ne(lhs, rhs);
  }
}

ExprRef random_constraint(const ArrayRef& array, Rng& rng) {
  return random_constraint_on(array, 0, 1, rng);
}

/// Ground truth by brute force over a 2-byte domain.
bool exhaustively_satisfiable_on(const ArrayRef& array, std::uint32_t i0,
                                 std::uint32_t i1,
                                 const std::vector<ExprRef>& constraints) {
  Assignment a;
  auto& bytes = a.mutable_bytes(array);
  for (unsigned v0 = 0; v0 < 256; ++v0) {
    for (unsigned v1 = 0; v1 < 256; ++v1) {
      bytes[i0] = static_cast<std::uint8_t>(v0);
      bytes[i1] = static_cast<std::uint8_t>(v1);
      bool all = true;
      for (const auto& c : constraints) {
        if (!evaluate_bool(c, a)) {
          all = false;
          break;
        }
      }
      if (all) return true;
    }
  }
  return false;
}

bool exhaustively_satisfiable(const ArrayRef& array,
                              const std::vector<ExprRef>& constraints) {
  return exhaustively_satisfiable_on(array, 0, 1, constraints);
}

class SolverSoundness : public ::testing::TestWithParam<std::uint64_t> {};

// Replicates the executor's usage contract: the path constraint set always
// stays satisfiable, a current model satisfying it is maintained, and each
// new branch condition is queried with that model as the hint. check_sat's
// returned model only covers the independent slice, so — like the executor
// — we overlay it on the current model.
TEST_P(SolverSoundness, MatchesExhaustiveEnumeration) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 40; ++trial) {
    auto array = make_array();
    VClock clock;
    Stats stats;
    Solver solver(clock, stats);

    ConstraintSet cs;
    std::vector<ExprRef> accepted;
    auto current = std::make_shared<Assignment>();

    const std::size_t n = 2 + rng.below(4);
    for (std::size_t i = 0; i < n; ++i) {
      const ExprRef query = random_constraint(array, rng);

      std::vector<ExprRef> with_query = accepted;
      with_query.push_back(query);
      const bool truth = exhaustively_satisfiable(array, with_query);

      Assignment model(*current);  // overlay target, seeded from current
      const SolverResult result = solver.check_sat(cs, query, &model, current);

      if (result == SolverResult::kSat) {
        EXPECT_TRUE(truth) << "solver claimed SAT on an UNSAT extension of a "
                              "satisfiable path: "
                           << query->to_string();
        if (!truth) continue;
        // Take the branch: the overlaid model must satisfy everything.
        cs.add(query);
        accepted.push_back(query);
        current = std::make_shared<Assignment>(std::move(model));
        for (const auto& c : accepted)
          EXPECT_TRUE(evaluate_bool(c, *current))
              << "overlaid model violates " << c->to_string();
      } else if (result == SolverResult::kUnsat) {
        EXPECT_FALSE(truth) << "solver claimed UNSAT on a SAT extension: "
                            << query->to_string();
      }
      // kUnknown is always acceptable (budget exhaustion).
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverSoundness,
                         ::testing::Values(11ull, 22ull, 33ull, 44ull, 55ull));

// --- Slicing equivalence ----------------------------------------------------

class SlicingEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

// Independence slicing (and the whole partition-keyed reuse pipeline built
// on it) must never change a verdict. Two solvers — slicing on and off —
// walk the same random path over two DISJOINT byte pairs (two independence
// partitions); every definite answer from either solver must match the
// pairwise exhaustive ground truth. The path invariant "cs stays
// satisfiable" is maintained the same way the executor does: a query is
// added only when it keeps its pair satisfiable.
TEST_P(SlicingEquivalence, SlicingNeverChangesTheVerdict) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 25; ++trial) {
    auto array = make_array();
    VClock clock_a, clock_b;
    Stats stats_a, stats_b;
    SolverOptions unsliced;
    unsliced.use_independence = false;
    Solver sliced_solver(clock_a, stats_a);
    Solver unsliced_solver(clock_b, stats_b, unsliced);

    ConstraintSet cs_sliced, cs_unsliced;
    // Accepted constraints per byte pair: (0,1) and (2,3).
    std::vector<ExprRef> accepted[2];

    const std::size_t n = 3 + rng.below(4);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t pair = rng.below(2);
      const std::uint32_t i0 = pair * 2, i1 = pair * 2 + 1;
      const ExprRef query = random_constraint_on(array, i0, i1, rng);

      std::vector<ExprRef> with_query = accepted[pair];
      with_query.push_back(query);
      const bool truth =
          exhaustively_satisfiable_on(array, i0, i1, with_query);

      Assignment model_s, model_u;
      const SolverResult rs = sliced_solver.check_sat(cs_sliced, query,
                                                      &model_s);
      const SolverResult ru = unsliced_solver.check_sat(cs_unsliced, query,
                                                        &model_u);
      if (rs != SolverResult::kUnknown)
        EXPECT_EQ(rs == SolverResult::kSat, truth)
            << "sliced verdict wrong for " << query->to_string();
      if (ru != SolverResult::kUnknown)
        EXPECT_EQ(ru == SolverResult::kSat, truth)
            << "unsliced verdict wrong for " << query->to_string();
      if (rs != SolverResult::kUnknown && ru != SolverResult::kUnknown)
        EXPECT_EQ(rs, ru) << "slicing changed the verdict for "
                          << query->to_string();

      if (truth) {
        cs_sliced.add(query);
        cs_unsliced.add(query);
        accepted[pair].push_back(query);
      }
    }
    EXPECT_EQ(cs_sliced.hash(), cs_unsliced.hash());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SlicingEquivalence,
                         ::testing::Values(7ull, 17ull, 27ull, 37ull));

// --- Cross-partition expressions (Concat / Select) --------------------------

// A Concat whose operands read DIFFERENT byte regions must union those
// regions into one partition: a conflict reachable only through the concat
// constraint has to surface on a query that mentions just one side.
TEST(SolverCrossPartition, ConcatLinksItsOperandPartitions) {
  auto array = std::make_shared<Array>("xp", 8);
  const ExprRef b0 = mk_read(array, 0);
  const ExprRef b4 = mk_read(array, 4);
  ConstraintSet cs;
  // Bytes 0 and 4 start in separate partitions...
  cs.add(mk_ule(b0, mk_const(0x10, 8)));
  cs.add(mk_ule(b4, mk_const(0x10, 8)));
  ASSERT_EQ(cs.num_partitions(), 2u);
  // ...until a concat constraint spans both.
  cs.add(mk_eq(mk_concat(b0, b4), mk_const(0x0102, 16)));
  EXPECT_EQ(cs.num_partitions(), 1u);

  VClock clock;
  Stats stats;
  Solver solver(clock, stats);
  // SAT direction: b0 == 1 (and implicitly b4 == 2).
  Assignment model;
  ASSERT_EQ(solver.check_sat(cs, mk_eq(b0, mk_const(1, 8)), &model),
            SolverResult::kSat);
  EXPECT_EQ(model.byte(array.get(), 4), 2);
  // UNSAT direction: the conflict with b4 flows through the concat — the
  // slice for a b4-only query must include all three constraints.
  EXPECT_EQ(solver.check_sat(cs, mk_eq(b4, mk_const(3, 8))),
            SolverResult::kUnsat);
  const auto slice = cs.slice(mk_eq(b4, mk_const(3, 8)));
  EXPECT_EQ(slice.constraints.size(), 3u);
  EXPECT_EQ(slice.partitions.size(), 1u);
}

// Select reads BOTH branches' sites (its value can depend on any of them),
// so a select constraint must merge the condition's and both arms'
// partitions, and verdicts must account for either arm.
TEST(SolverCrossPartition, SelectMergesConditionAndArmPartitions) {
  auto array = std::make_shared<Array>("xps", 8);
  const ExprRef cond = mk_ult(mk_read(array, 0), mk_const(0x80, 8));
  const ExprRef then_e = mk_read(array, 2);
  const ExprRef else_e = mk_read(array, 4);
  ConstraintSet cs;
  cs.add(mk_eq(mk_read(array, 2), mk_const(5, 8)));
  cs.add(mk_eq(mk_read(array, 4), mk_const(9, 8)));
  ASSERT_EQ(cs.num_partitions(), 2u);
  cs.add(mk_eq(mk_select(cond, then_e, else_e), mk_const(5, 8)));
  EXPECT_EQ(cs.num_partitions(), 1u);

  VClock clock;
  Stats stats;
  Solver solver(clock, stats);
  // Feasible only via the THEN arm: byte0 < 0x80 must be derivable.
  Assignment model;
  ASSERT_EQ(solver.check_sat(cs, mk_ult(mk_read(array, 0), mk_const(0x80, 8)),
                             &model),
            SolverResult::kSat);
  EXPECT_EQ(model.byte(array.get(), 2), 5);
  // The ELSE arm would need select == 9, contradicting the select
  // constraint; byte0 >= 0x80 is therefore infeasible, and discovering
  // that requires the sliced query to drag in all three constraints.
  EXPECT_EQ(solver.check_sat(cs, mk_uge(mk_read(array, 0), mk_const(0x80, 8))),
            SolverResult::kUnsat);
}

// Re-querying after a partition's content changed must not resurrect stale
// partition-keyed results: the cached model for the OLD partition content
// fails replay verification, and the verdict stays correct.
TEST(SolverCrossPartition, PartitionReuseSurvivesContentChanges) {
  auto array = std::make_shared<Array>("xpr", 4);
  const ExprRef b0 = mk_read(array, 0);
  VClock clock;
  Stats stats;
  Solver solver(clock, stats);
  ConstraintSet cs;
  cs.add(mk_ult(mk_const(0x40, 8), b0));
  Assignment m1;
  ASSERT_EQ(solver.check_sat(cs, mk_ult(b0, mk_const(0x80, 8)), &m1),
            SolverResult::kSat);
  cs.add(mk_ult(b0, mk_const(0x80, 8)));
  // Narrow the same partition further; any model cached above that chose
  // a byte >= 0x60 must be rejected by replay, not trusted.
  cs.add(mk_ult(b0, mk_const(0x60, 8)));
  Assignment m2;
  ASSERT_EQ(solver.check_sat(cs, mk_ult(mk_const(0x50, 8), b0), &m2),
            SolverResult::kSat);
  EXPECT_GT(m2.byte(array.get(), 0), 0x50);
  EXPECT_LT(m2.byte(array.get(), 0), 0x60);
  EXPECT_EQ(solver.check_sat(cs, mk_ult(mk_const(0x60, 8), b0)),
            SolverResult::kUnsat);
}

TEST(SolverDeferredEquality, ChecksumBytesAreBackComputed) {
  // Eq(sum-of-data, stored-assembly) where the stored bytes appear nowhere
  // else: elimination must defer it and complete the model afterwards.
  auto array = std::make_shared<Array>("ck", 16);
  ExprRef sum = mk_const(0, 32);
  for (int i = 0; i < 4; ++i)
    sum = mk_add(sum, mk_zext(mk_read(array, i), 32));
  ExprRef stored = mk_zext(mk_read(array, 8), 32);
  for (int b = 1; b < 4; ++b)
    stored = mk_or(stored, mk_shl(mk_zext(mk_read(array, 8 + b), 32),
                                  mk_const(8 * b, 32)));
  ConstraintSet cs;
  cs.add(mk_eq(sum, stored));
  cs.add(mk_eq(mk_read(array, 0), mk_const(200, 8)));

  VClock clock;
  Stats stats;
  Solver solver(clock, stats);
  Assignment model;
  ASSERT_EQ(solver.check_sat(cs, mk_eq(mk_read(array, 1), mk_const(250, 8)),
                             &model),
            SolverResult::kSat);
  EXPECT_GE(stats.get("solver.deferred_eqs"), 1u);
  EXPECT_EQ(evaluate(sum, model), evaluate(stored, model))
      << "checksum must hold after back-computation";
  EXPECT_EQ(model.byte(array.get(), 0), 200);
  EXPECT_EQ(model.byte(array.get(), 1), 250);
}

TEST(SolverDeferredEquality, NegatedChecksumPicksDifferentValue) {
  auto array = std::make_shared<Array>("ck2", 16);
  const ExprRef data = mk_zext(mk_read(array, 0), 32);
  ExprRef stored = mk_zext(mk_read(array, 8), 32);
  for (int b = 1; b < 4; ++b)
    stored = mk_or(stored, mk_shl(mk_zext(mk_read(array, 8 + b), 32),
                                  mk_const(8 * b, 32)));
  ConstraintSet cs;
  cs.add(mk_ne(data, stored));  // "crc mismatch" path constraint

  VClock clock;
  Stats stats;
  Solver solver(clock, stats);
  Assignment model;
  ASSERT_EQ(solver.check_sat(cs, mk_eq(mk_read(array, 0), mk_const(7, 8)),
                             &model),
            SolverResult::kSat);
  EXPECT_NE(evaluate(data, model), evaluate(stored, model));
}

TEST(SolverDeferredEquality, SharedBytesAreNotDeferred) {
  // The "stored" bytes also appear in another constraint: deferring them
  // would be unsound, so the solver must keep the equality in the search.
  auto array = std::make_shared<Array>("ck3", 16);
  const ExprRef data =
      mk_or(mk_zext(mk_read(array, 0), 16),
            mk_shl(mk_zext(mk_read(array, 1), 16), mk_const(8, 16)));
  const ExprRef stored =
      mk_or(mk_zext(mk_read(array, 8), 16),
            mk_shl(mk_zext(mk_read(array, 9), 16), mk_const(8, 16)));
  ConstraintSet cs;
  cs.add(mk_eq(data, stored));
  cs.add(mk_ult(mk_const(0x1234, 16), stored));  // second use of the bytes

  VClock clock;
  Stats stats;
  Solver solver(clock, stats);
  Assignment model;
  const auto result =
      solver.check_sat(cs, mk_ule(data, mk_const(0xFFFE, 16)), &model);
  ASSERT_EQ(result, SolverResult::kSat);
  EXPECT_EQ(stats.get("solver.deferred_eqs"), 0u);
  EXPECT_EQ(evaluate(data, model), evaluate(stored, model));
  EXPECT_GT(evaluate(stored, model), 0x1234u);
}

// --- Interpolant subsumption (DESIGN.md §10) --------------------------------

// Bounded-table mechanics: per-key entries are capped and deduplicated,
// the key count is capped by a wholesale clear, and subset matching is
// exact (no false positive on a disjoint set).
TEST(InterpolantTable, BoundedAndExact) {
  InterpolantTable table;
  table.add_barren(7, {10, 20, 30});
  EXPECT_TRUE(table.barren_subsumes(7, {10, 20, 30, 40}));
  EXPECT_FALSE(table.barren_subsumes(7, {10, 20}));       // smaller than core
  EXPECT_FALSE(table.barren_subsumes(7, {11, 21, 31, 41}));  // disjoint
  EXPECT_FALSE(table.barren_subsumes(8, {10, 20, 30}));   // other location
  for (std::uint64_t i = 0; i < 100; ++i)
    table.add_barren(7, {i, i + 1, i + 2, i + 3});
  // kMaxPerKey bounds the per-location list; the first (smallest) core
  // must survive the bounded insertion policy.
  EXPECT_TRUE(table.barren_subsumes(7, {10, 20, 30, 99}));
  EXPECT_EQ(table.num_barren_keys(), 1u);
}

// The tentpole property, end to end: subsumption-killed states never cover
// a block their subsumer could not reach. Operational form: on this
// workload the pruned engine EXHAUSTS the state space (hundreds of barren
// kills, run ends well inside the budget) while the unpruned engine is
// still coasting at the full budget — and the two runs cover the IDENTICAL
// block set. Every kill therefore discarded only work whose coverage the
// surviving states delivered anyway. The stall gate is set conservatively
// here (256) because that is the regime where the heuristic class provably
// preserves the covered set on an exhausted space; the shipping default
// (16) trades kill aggressiveness against coverage and is gated
// empirically by the subsumption ablation, not by this test.
TEST(Subsumption, PrunedExhaustionCoversEverythingTheFullSearchFinds) {
  // Sized to the readelf module: at sym-32 the pruned space drains at
  // ~9.6M ticks with ~146 barren kills and the covered sets match. (The
  // §12 symbol_visibility guard grew the target; at the old sym-40 the
  // stall-256 regime now sacrifices one late decode_section_flags block,
  // so the conservative-regime claim is pinned at sym-32 instead.)
  constexpr std::uint64_t kBudget = 12'000'000;
  auto run = [&](bool pruning) {
    ir::Module module = targets::build_target(targets::readelf_source());
    core::KleeRunOptions options;
    options.sym_file_size = 32;
    options.executor.use_subsumption = pruning;
    options.executor.subsumption_min_stall = 256;
    core::KleeRun run(module, "main", options);
    run.run(kBudget);
    if (pruning) {
      // Non-vacuity: the kill path must actually fire, and firing must be
      // what lets the run drain the space inside the budget.
      EXPECT_LT(run.clock().now(), kBudget)
          << "pruned exploration must exhaust inside the budget";
      EXPECT_GT(run.stats().get("executor.subsumed_barren"), 100u);
    }
    return run.executor().covered();
  };
  EXPECT_EQ(run(true), run(false))
      << "pruning lost a block the unpruned search covered";
}

// Off-mode parity: with subsumption off the engine must not merely be
// deterministic, it must do ZERO subsumption work (no kills, no barren
// recording) — the committed golden then pins it to the pre-change engine
// tick for tick. And with subsumption ON but no kill ever firing (stall
// gate at infinity), the probes themselves must be tick-free: identical
// coverage, ticks and bugs.
TEST(Subsumption, NoSubsumptionRunsAreTickIdenticalToProbeOnlyRuns) {
  ir::Module module_a = targets::build_target(targets::readelf_source());
  ir::Module module_b = targets::build_target(targets::readelf_source());
  auto run = [](const ir::Module& module, bool subsumption) {
    core::KleeRunOptions options;
    options.sym_file_size = 200;
    options.executor.use_subsumption = subsumption;
    options.executor.subsumption_min_stall = ~std::uint64_t{0};
    core::KleeRun run(module, "main", options);
    run.run(400'000);
    EXPECT_EQ(run.stats().get("executor.term_subsumed"), 0u);
    if (!subsumption)
      EXPECT_EQ(run.stats().get("executor.barren_recorded"), 0u);
    return std::make_tuple(run.executor().num_covered(), run.clock().now(),
                           run.executor().bugs().size(),
                           run.executor().test_cases().size());
  };
  EXPECT_EQ(run(module_a, false), run(module_b, true))
      << "block-entry probes must never consume virtual time";
}

}  // namespace
}  // namespace pbse
