// Anytime-answers subsystem: differential validation of RunWithGuarantees.
//
//  (1) Bounds sandwich: on random (mostly unsafe) queries the returned
//      intervals satisfy lower <= P(q=a) <= upper against the exact WMC
//      ground truth, including chunk-seam table sizes.
//  (2) Safe queries short-circuit to the exact route: point intervals,
//      verdict kExact, no refinement.
//  (3) Certified top-k: every certified prefix position provably dominates
//      all later answers under the exact probabilities, and refinement
//      touches strictly fewer answers than the result holds.
//  (4) Deadlines: an already-expired deadline yields bounds-only answers
//      with no refinement work and no leaked workers; racing deadlines
//      never break the interval invariants (TSan coverage).
//      A deadline that fires inside a long exact-WMC task lands within a
//      bounded slack of it.
//  (5) Reproducibility: with exact escalation disabled the pure-MC
//      refinement path returns bit-identical intervals for 1 and 8 worker
//      threads; so does a mix of exact and MC refinement in which some
//      answers exceed their per-call WMC budget.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <limits>
#include <map>
#include <vector>

#include "src/anytime/anytime.h"
#include "src/dissociation/counting.h"
#include "src/engine/query_engine.h"
#include "src/infer/exact.h"
#include "src/infer/query_inference.h"
#include "src/lineage/lineage.h"
#include "src/workload/random_instance.h"
#include "src/workload/synthetic.h"
#include "tests/test_util.h"

namespace dissodb {
namespace {

using testing_util::AddTable;
using testing_util::ChunkCapOverride;
using testing_util::Q;

constexpr double kTol = 1e-12;

std::map<std::vector<Value>, double> ToMap(
    const std::vector<RankedAnswer>& answers) {
  std::map<std::vector<Value>, double> m;
  for (const auto& a : answers) m[a.tuple] = a.score;
  return m;
}

// Asserts the full sandwich for one result against exact ground truth and
// returns the number of answers checked.
size_t ExpectSandwich(const AnytimeResult& res,
                      const std::map<std::vector<Value>, double>& exact,
                      const std::string& context) {
  EXPECT_EQ(res.answers.size(), exact.size()) << context;
  size_t checked = 0;
  for (const auto& a : res.answers) {
    auto it = exact.find(a.tuple);
    if (it == exact.end()) {
      ADD_FAILURE() << context << ": bounded answer missing from exact";
      continue;
    }
    const double p = it->second;
    EXPECT_LE(a.lower, p + kTol) << context;
    EXPECT_GE(a.upper, p - kTol) << context;
    EXPECT_LE(a.lower, a.upper + kTol) << context;
    EXPECT_GE(a.point, a.lower - kTol) << context;
    EXPECT_LE(a.point, a.upper + kTol) << context;
    ++checked;
  }
  return checked;
}

// q(a) :- A(a,x), B(x,y), C(y) over a complete n x n bipartite B, answer a
// joining the first fanout[a] x values: answer a's lineage is the
// fanout[a] x n bipartite formula {A(a,x) B(x,y) C(y)}, whose exact-WMC
// call count grows exponentially in min(fanout[a], n) (~3.7k calls at
// 6 x 10, ~450k at 12 x 12).
Database BipartiteChainDatabase(const std::vector<int>& fanout, int n,
                                uint64_t seed) {
  Rng rng(seed);
  auto prob = [&rng] { return 0.2 + 0.6 * rng.NextDouble(); };
  std::vector<std::pair<std::vector<int64_t>, double>> a_rows, b_rows, c_rows;
  for (size_t a = 0; a < fanout.size(); ++a) {
    for (int x = 0; x < fanout[a]; ++x) {
      a_rows.push_back({{static_cast<int64_t>(a), x}, prob()});
    }
  }
  for (int x = 0; x < n; ++x) {
    for (int y = 0; y < n; ++y) b_rows.push_back({{x, y}, prob()});
  }
  for (int y = 0; y < n; ++y) c_rows.push_back({{y}, prob()});
  Database db;
  AddTable(&db, "A", 2, a_rows);
  AddTable(&db, "B", 2, b_rows);
  AddTable(&db, "C", 1, c_rows);
  return db;
}

constexpr const char* kBipartiteChain = "q(a) :- A(a,x), B(x,y), C(y)";

// ---------------------------------------------------------------------------
// (1) Bounds sandwich on random queries
// ---------------------------------------------------------------------------

TEST(AnytimeTest, BoundsSandwichOnRandomUnsafeQueries) {
  Rng rng(20150815);
  RandomQuerySpec qspec;
  qspec.min_atoms = 2;
  qspec.max_atoms = 4;
  qspec.max_vars = 5;
  qspec.head_var_prob = 0.35;
  size_t unsafe_checked = 0;
  size_t answers_checked = 0;
  for (int trial = 0; trial < 3000 && unsafe_checked < 120; ++trial) {
    ConjunctiveQuery q = RandomQuery(&rng, qspec);
    if (DissociationExponent(q) > 10) continue;

    // Every 4th eligible trial runs at chunk capacity 4 so table sizes
    // straddle chunk seams in the weight-column rewrite and the scans.
    std::unique_ptr<ChunkCapOverride> cap;
    if (trial % 4 == 0) cap = std::make_unique<ChunkCapOverride>(4);

    Database db = RandomDatabaseFor(q, &rng);
    auto exact = ExactProbabilities(db, q);
    if (!exact.ok()) continue;  // WMC budget exceeded: no ground truth

    QueryEngine engine = QueryEngine::Borrow(db);
    auto prepared = engine.Prepare(q);
    ASSERT_TRUE(prepared.ok()) << q.ToString();
    auto res = engine.RunWithGuarantees(*prepared);
    ASSERT_TRUE(res.ok()) << q.ToString() << ": " << res.status().ToString();

    answers_checked += ExpectSandwich(*res, ToMap(*exact), q.ToString());
    if (!prepared->exact()) {
      ++unsafe_checked;
      EXPECT_EQ(res->verdict == AnytimeVerdict::kExact, false) << q.ToString();
      // Default spec has no targets: bounds-only, nothing refined.
      EXPECT_EQ(res->refined_answers, 0u) << q.ToString();
    } else {
      EXPECT_EQ(res->verdict, AnytimeVerdict::kExact) << q.ToString();
    }
  }
  EXPECT_GE(unsafe_checked, 100u);
  EXPECT_GE(answers_checked, 200u);
}

TEST(AnytimeTest, SafeQueryShortCircuitsToExact) {
  Database db;
  AddTable(&db, "R", 1, {{{1}, 0.7}, {{2}, 0.5}});
  AddTable(&db, "S", 2, {{{1, 10}, 0.9}, {{1, 20}, 0.4}, {{2, 20}, 0.8}});
  ConjunctiveQuery q = Q("q(x) :- R(x), S(x,y)");

  auto exact = ExactProbabilities(db, q);
  ASSERT_TRUE(exact.ok());

  QueryEngine engine = QueryEngine::Borrow(db);
  auto prepared = engine.Prepare(q);
  ASSERT_TRUE(prepared.ok());
  ASSERT_TRUE(prepared->exact());
  auto res = engine.RunWithGuarantees(*prepared);
  ASSERT_TRUE(res.ok()) << res.status().ToString();

  EXPECT_EQ(res->verdict, AnytimeVerdict::kExact);
  EXPECT_EQ(res->refine_rounds, 0u);
  auto exact_map = ToMap(*exact);
  ASSERT_EQ(res->answers.size(), exact_map.size());
  for (const auto& a : res->answers) {
    EXPECT_TRUE(a.certified);
    EXPECT_EQ(a.source, BoundSource::kSafeExact);
    EXPECT_DOUBLE_EQ(a.lower, a.upper);
    EXPECT_NEAR(a.point, exact_map.at(a.tuple), kTol);
  }
}

// ---------------------------------------------------------------------------
// (3) Certified top-k against the exact ranking
// ---------------------------------------------------------------------------

TEST(AnytimeTest, CertifiedTopKMatchesExactRanking) {
  Rng rng(4242);
  RandomQuerySpec qspec;
  qspec.min_atoms = 2;
  qspec.max_atoms = 3;
  qspec.max_vars = 4;
  qspec.head_var_prob = 0.4;
  RandomInstanceSpec ispec;
  ispec.max_rows = 5;
  ispec.domain = 4;

  GuaranteeSpec spec;
  spec.top_k = 3;

  size_t certified_runs = 0;
  for (int trial = 0; trial < 1200 && certified_runs < 40; ++trial) {
    ConjunctiveQuery q = RandomQuery(&rng, qspec);
    if (DissociationExponent(q) > 10) continue;
    Database db = RandomDatabaseFor(q, &rng, ispec);
    auto exact = ExactProbabilities(db, q);
    if (!exact.ok()) continue;
    auto exact_map = ToMap(*exact);

    QueryEngine engine = QueryEngine::Borrow(db);
    auto prepared = engine.Prepare(q);
    ASSERT_TRUE(prepared.ok()) << q.ToString();
    if (prepared->exact()) continue;  // exercise the refinement ladder only
    auto res = engine.RunWithGuarantees(*prepared, {}, spec);
    ASSERT_TRUE(res.ok()) << q.ToString() << ": " << res.status().ToString();

    ExpectSandwich(*res, exact_map, q.ToString());
    if (res->verdict != AnytimeVerdict::kCertified) continue;
    ++certified_runs;

    const size_t prefix = res->certified_prefix;
    EXPECT_EQ(prefix, std::min(spec.top_k, res->answers.size()))
        << q.ToString();
    // Semantic check: each certified position dominates every later answer
    // under the exact probabilities (ties allowed).
    for (size_t i = 0; i < prefix; ++i) {
      EXPECT_TRUE(res->answers[i].certified) << q.ToString();
      const double pi = exact_map.at(res->answers[i].tuple);
      for (size_t j = i + 1; j < res->answers.size(); ++j) {
        const double pj = exact_map.at(res->answers[j].tuple);
        EXPECT_GE(pi, pj - 1e-9)
            << q.ToString() << " position " << i << " vs " << j;
      }
    }
  }
  EXPECT_GE(certified_runs, 20u);
}

TEST(AnytimeTest, RefinesOnlyContestedAnswers) {
  // 4-chain (unsafe beyond length 3): with ~40 well-separated answers only
  // the top-k boundary neighbourhood needs lineage work.
  ChainSpec cspec;
  cspec.k = 4;
  cspec.n = 120;
  cspec.target_answers = 40;
  cspec.seed = 77;
  // Small probabilities: dissociation bounds converge (Proposition 21), so
  // positions away from the top-k boundary settle without lineage work.
  cspec.pi_max = 0.12;
  Database db = MakeChainDatabase(cspec);
  ConjunctiveQuery q = MakeChainQuery(4);

  QueryEngine engine = QueryEngine::Borrow(db);
  auto prepared = engine.Prepare(q);
  ASSERT_TRUE(prepared.ok());
  ASSERT_FALSE(prepared->exact());

  GuaranteeSpec spec;
  spec.top_k = 5;
  // Refine incrementally: once the boundary answers collapse to exact
  // points, answers whose upper bound clears the boundary drop out of the
  // contested set without ever being refined.
  spec.max_refined_per_round = 4;
  auto res = engine.RunWithGuarantees(*prepared, {}, spec);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  ASSERT_GE(res->answers.size(), 10u);
  EXPECT_EQ(res->verdict, AnytimeVerdict::kCertified);
  // The certification counter-assert from the issue: uncontested answers
  // are never refined.
  EXPECT_LT(res->refined_answers, res->answers.size());
}

TEST(AnytimeTest, EpsilonTargetTightensEveryInterval) {
  // q(z) :- R(z,x), S(x,y), T(y): x and y form a non-hierarchical pattern
  // even with z fixed, so the query is unsafe for every answer.
  Database db;
  AddTable(&db, "R", 2, {{{1, 1}, 0.6}, {{1, 2}, 0.4}, {{2, 2}, 0.8}});
  AddTable(&db, "S", 2,
           {{{1, 10}, 0.9}, {{1, 20}, 0.5}, {{2, 20}, 0.7}, {{2, 10}, 0.3}});
  AddTable(&db, "T", 1, {{{10}, 0.6}, {{20}, 0.3}});
  ConjunctiveQuery q = Q("q(z) :- R(z,x), S(x,y), T(y)");

  QueryEngine engine = QueryEngine::Borrow(db);
  auto prepared = engine.Prepare(q);
  ASSERT_TRUE(prepared.ok());
  ASSERT_FALSE(prepared->exact());

  GuaranteeSpec spec;
  spec.epsilon = 1e-6;
  auto res = engine.RunWithGuarantees(*prepared, {}, spec);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res->verdict, AnytimeVerdict::kCertified);
  auto exact = ExactProbabilities(db, q);
  ASSERT_TRUE(exact.ok());
  auto exact_map = ToMap(*exact);
  for (const auto& a : res->answers) {
    EXPECT_LE(a.width(), spec.epsilon + kTol);
    EXPECT_TRUE(a.certified);
    EXPECT_NEAR(a.point, exact_map.at(a.tuple), spec.epsilon + 1e-9);
  }
}

// ---------------------------------------------------------------------------
// (4) Deadlines
// ---------------------------------------------------------------------------

TEST(AnytimeTest, ExpiredDeadlineReturnsBoundsOnlyWithoutRefinement) {
  ChainSpec cspec;
  cspec.k = 4;
  cspec.n = 400;
  cspec.target_answers = 60;
  cspec.seed = 9;
  Database db = MakeChainDatabase(cspec);
  ConjunctiveQuery q = MakeChainQuery(4);

  QueryEngine engine = QueryEngine::Borrow(db);
  auto prepared = engine.Prepare(q);
  ASSERT_TRUE(prepared.ok());
  ASSERT_FALSE(prepared->exact());

  GuaranteeSpec spec;
  spec.top_k = 5;
  spec.deadline = std::chrono::nanoseconds(1);  // expired before refinement
  auto res = engine.RunWithGuarantees(*prepared, {}, spec);
  ASSERT_TRUE(res.ok()) << res.status().ToString();

  // Bounds are the unconditional floor; refinement never started.
  EXPECT_EQ(res->verdict, AnytimeVerdict::kBoundsOnly);
  EXPECT_TRUE(res->deadline_hit);
  EXPECT_EQ(res->refine_rounds, 0u);
  EXPECT_EQ(res->refined_answers, 0u);
  EXPECT_EQ(res->mc_samples_drawn, 0u);
  ASSERT_FALSE(res->answers.empty());
  for (const auto& a : res->answers) {
    EXPECT_FALSE(a.certified);
    EXPECT_EQ(a.source, BoundSource::kBounds);
    EXPECT_LE(a.lower, a.upper);
  }
  // Engine (and its worker pool) destructs cleanly at scope exit — a
  // leaked refinement worker would hang or trip TSan here.
}

TEST(AnytimeTest, RacingDeadlinesPreserveIntervalInvariants) {
  // Deadlines from "already expired" to "comfortably enough": whatever the
  // race outcome, intervals must stay ordered and the verdict consistent.
  ChainSpec cspec;
  cspec.k = 4;
  cspec.n = 150;
  cspec.target_answers = 30;
  cspec.seed = 21;
  Database db = MakeChainDatabase(cspec);
  ConjunctiveQuery q = MakeChainQuery(4);

  QueryEngine engine = QueryEngine::Borrow(db);
  auto prepared = engine.Prepare(q);
  ASSERT_TRUE(prepared.ok());

  for (int64_t us : {1, 50, 200, 1000, 5000, 50000}) {
    GuaranteeSpec spec;
    spec.top_k = 4;
    spec.deadline = std::chrono::microseconds(us);
    auto res = engine.RunWithGuarantees(*prepared, {}, spec);
    ASSERT_TRUE(res.ok()) << "deadline " << us << "us";
    for (const auto& a : res->answers) {
      EXPECT_LE(a.lower, a.upper + kTol) << "deadline " << us << "us";
      EXPECT_GE(a.point, a.lower - kTol);
      EXPECT_LE(a.point, a.upper + kTol);
    }
    if (res->verdict == AnytimeVerdict::kCertified) {
      EXPECT_FALSE(res->deadline_hit) << "deadline " << us << "us";
    }
  }
}

TEST(AnytimeTest, DeadlineStopsALongExactWmcTask) {
  Database db = BipartiteChainDatabase({20, 20, 20, 20}, 20, 11);
  ConjunctiveQuery q = Q(kBipartiteChain);

  // Uncancelled, exact WMC of one answer runs well past the bound asserted
  // below (it is exponential in 20): stop it after 1 s to show as much.
  auto lineage = ComputeLineage(db.snapshot(), q);
  ASSERT_TRUE(lineage.ok());
  ASSERT_EQ(lineage->answers.size(), 4u);
  const auto stop = std::chrono::steady_clock::now() + std::chrono::seconds(1);
  WmcOptions wmc;
  wmc.max_calls = std::numeric_limits<size_t>::max();
  wmc.cancelled = [stop] { return std::chrono::steady_clock::now() >= stop; };
  auto p = ExactDnfProbability(lineage->ToDnf(lineage->answers[0]), wmc);
  ASSERT_EQ(p.status().code(), Status::Code::kCancelled);

  QueryEngine engine = QueryEngine::Borrow(db);
  auto prepared = engine.Prepare(q);
  ASSERT_TRUE(prepared.ok());
  ASSERT_FALSE(prepared->exact());
  auto bounds = engine.RunWithGuarantees(*prepared);  // no targets
  ASSERT_TRUE(bounds.ok());

  GuaranteeSpec spec;
  spec.epsilon = 1e-9;  // every answer contested: every one starts WMC
  spec.wmc_max_calls = std::numeric_limits<size_t>::max();
  spec.deadline = std::chrono::milliseconds(100);
  const auto t0 = std::chrono::steady_clock::now();
  auto res = engine.RunWithGuarantees(*prepared, {}, spec);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  ASSERT_TRUE(res.ok()) << res.status().ToString();

  EXPECT_LT(elapsed, spec.deadline + std::chrono::milliseconds(500));
  EXPECT_TRUE(res->deadline_hit);
  EXPECT_EQ(res->verdict, AnytimeVerdict::kBoundsOnly);
  EXPECT_EQ(res->refine_rounds, 1u);
  // A cancelled count folds nothing in and falls through to no MC batch:
  // no answer counts as refined, and the intervals are the sound bounds,
  // bit for bit.
  EXPECT_EQ(res->refined_answers, 0u);
  EXPECT_EQ(res->mc_samples_drawn, 0u);
  ASSERT_EQ(res->answers.size(), bounds->answers.size());
  for (size_t i = 0; i < res->answers.size(); ++i) {
    const BoundedAnswer& a = res->answers[i];
    EXPECT_EQ(a.tuple, bounds->answers[i].tuple) << i;
    EXPECT_EQ(a.lower, bounds->answers[i].lower) << i;
    EXPECT_EQ(a.upper, bounds->answers[i].upper) << i;
    EXPECT_LT(a.lower, a.upper) << i;
    EXPECT_EQ(a.source, BoundSource::kBounds) << i;
    EXPECT_FALSE(a.certified) << i;
  }
}

// ---------------------------------------------------------------------------
// (5) Pure-MC refinement is bit-reproducible across worker counts
// ---------------------------------------------------------------------------

// RunWithGuarantees on a fresh engine whose pool has `threads` workers.
AnytimeResult RunOnThreads(const Database& db, const ConjunctiveQuery& q,
                           const GuaranteeSpec& spec, int threads) {
  EngineOptions opts;
  opts.num_threads = threads;
  QueryEngine engine = QueryEngine::Borrow(db, opts);
  auto prepared = engine.Prepare(q);
  EXPECT_TRUE(prepared.ok());
  auto res = engine.RunWithGuarantees(*prepared, {}, spec);
  EXPECT_TRUE(res.ok());
  return std::move(*res);
}

// Bit-identical, not approximately equal: same rounds, same samples, same
// intervals, same rung per answer.
void ExpectBitIdentical(const AnytimeResult& a, const AnytimeResult& b) {
  EXPECT_EQ(a.refine_rounds, b.refine_rounds);
  EXPECT_EQ(a.mc_samples_drawn, b.mc_samples_drawn);
  ASSERT_EQ(a.answers.size(), b.answers.size());
  for (size_t i = 0; i < a.answers.size(); ++i) {
    EXPECT_EQ(a.answers[i].tuple, b.answers[i].tuple) << i;
    EXPECT_EQ(a.answers[i].lower, b.answers[i].lower) << i;
    EXPECT_EQ(a.answers[i].upper, b.answers[i].upper) << i;
    EXPECT_EQ(a.answers[i].point, b.answers[i].point) << i;
    EXPECT_EQ(a.answers[i].certified, b.answers[i].certified) << i;
    EXPECT_EQ(a.answers[i].source, b.answers[i].source) << i;
    EXPECT_EQ(a.answers[i].mc_samples, b.answers[i].mc_samples) << i;
  }
}

TEST(AnytimeTest, IntervalsReproducibleAcrossThreadCounts) {
  ChainSpec cspec;
  cspec.k = 4;
  cspec.n = 80;
  cspec.target_answers = 25;
  cspec.seed = 5;
  Database db = MakeChainDatabase(cspec);
  ConjunctiveQuery q = MakeChainQuery(4);

  GuaranteeSpec spec;
  spec.top_k = 4;
  spec.wmc_max_calls = 0;  // pure MC: the path whose determinism is at stake
  spec.mc_base_samples = 512;
  spec.mc_max_samples_per_answer = 1 << 16;
  spec.max_refine_rounds = 8;

  const auto one = RunOnThreads(db, q, spec, 1);
  EXPECT_GT(one.refine_rounds, 0u);
  ExpectBitIdentical(one, RunOnThreads(db, q, spec, 8));
}

TEST(AnytimeTest, WmcBudgetsAreReproducibleAcrossThreadCounts) {
  // Answers with fanout <= 6 fit the WMC budget (<= ~3.7k calls) and
  // collapse to points; fanout >= 8 exceeds it and falls through to MC.
  // Each count owns its budget, so which answers take which rung does not
  // depend on what runs beside them.
  Database db = BipartiteChainDatabase({2, 3, 4, 5, 6, 8, 10, 12}, 10, 3);
  ConjunctiveQuery q = Q(kBipartiteChain);

  GuaranteeSpec spec;
  spec.epsilon = 1e-9;  // no deadline; MC never gets this narrow
  spec.wmc_max_calls = 5000;
  spec.mc_base_samples = 256;
  spec.max_refine_rounds = 3;

  const auto one = RunOnThreads(db, q, spec, 1);
  size_t exact = 0, mc = 0;
  for (const auto& a : one.answers) {
    exact += a.source == BoundSource::kExactWmc;
    mc += a.source == BoundSource::kMc;
  }
  EXPECT_EQ(exact, 5u);
  EXPECT_EQ(mc, 3u);
  EXPECT_FALSE(one.deadline_hit);
  ExpectBitIdentical(one, RunOnThreads(db, q, spec, 4));
}

}  // namespace
}  // namespace dissodb
