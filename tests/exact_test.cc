// Tests for the exact WMC engine against hand-computed values and the
// brute-force reference on random formulas.
#include <gtest/gtest.h>

#include <cmath>
#include <thread>

#include "src/common/rng.h"
#include "src/infer/exact.h"
#include "src/lineage/formula.h"

namespace dissodb {
namespace {

Dnf RandomDnf(Rng* rng, int max_vars, int max_terms, int max_len) {
  Dnf f;
  const int n = 1 + static_cast<int>(rng->NextBounded(max_vars));
  for (int v = 0; v < n; ++v) f.probs.push_back(rng->NextDouble());
  const int t = 1 + static_cast<int>(rng->NextBounded(max_terms));
  for (int i = 0; i < t; ++i) {
    std::vector<int> term;
    const int len = 1 + static_cast<int>(rng->NextBounded(max_len));
    for (int j = 0; j < len; ++j) {
      term.push_back(static_cast<int>(rng->NextBounded(n)));
    }
    f.terms.push_back(std::move(term));
  }
  f.Normalize();
  return f;
}

// Lineage of the unsafe chain q :- R(x), S(x,y), T(y) over a complete
// d x n bipartite S: terms {x_i, y_j, s_ij}. Neither decomposition nor
// memoization tames it; the call count grows exponentially in min(d, n)
// (~450k calls at 12 x 12).
Dnf BipartiteDnf(int d, int n, Rng* rng) {
  Dnf f;
  for (int v = 0; v < d + n + d * n; ++v) {
    f.probs.push_back(0.2 + 0.6 * rng->NextDouble());
  }
  for (int i = 0; i < d; ++i) {
    for (int j = 0; j < n; ++j) f.terms.push_back({i, d + j, d + n + i * n + j});
  }
  f.Normalize();
  return f;
}

TEST(ExactTest, SingleTermIsProduct) {
  Dnf f;
  f.probs = {0.5, 0.25};
  f.terms = {{0, 1}};
  auto p = ExactDnfProbability(f);
  ASSERT_TRUE(p.ok());
  EXPECT_DOUBLE_EQ(*p, 0.125);
}

TEST(ExactTest, Example7) {
  Dnf f;
  f.probs = {0.5, 0.4, 0.3};
  f.terms = {{0, 1}, {0, 2}};
  auto p = ExactDnfProbability(f);
  ASSERT_TRUE(p.ok());
  EXPECT_NEAR(*p, 0.5 * 0.4 + 0.5 * 0.3 - 0.5 * 0.4 * 0.3, 1e-12);
}

TEST(ExactTest, IndependentTermsDecompose) {
  Dnf f;
  f.probs = {0.5, 0.5, 0.5, 0.5};
  f.terms = {{0, 1}, {2, 3}};
  auto p = ExactDnfProbability(f);
  ASSERT_TRUE(p.ok());
  EXPECT_NEAR(*p, 1.0 - (1.0 - 0.25) * (1.0 - 0.25), 1e-12);
  EXPECT_GE(LastWmcStats().components_split, 1u);
}

TEST(ExactTest, EmptyFormulaAndEmptyTerm) {
  Dnf f;
  auto p = ExactDnfProbability(f);
  ASSERT_TRUE(p.ok());
  EXPECT_DOUBLE_EQ(*p, 0.0);
  f.probs = {0.5};
  f.terms = {{}};
  p = ExactDnfProbability(f);
  ASSERT_TRUE(p.ok());
  EXPECT_DOUBLE_EQ(*p, 1.0);
}

TEST(ExactTest, ZeroAndOneProbabilitiesSimplify) {
  Dnf f;
  f.probs = {0.0, 1.0, 0.5};
  // First term dead (p=0 var); second term reduces to x2 alone.
  f.terms = {{0, 2}, {1, 2}};
  auto p = ExactDnfProbability(f);
  ASSERT_TRUE(p.ok());
  EXPECT_DOUBLE_EQ(*p, 0.5);
}

TEST(ExactTest, AbsorptionOfSubsumedTerms) {
  Dnf f;
  f.probs = {0.5, 0.5};
  f.terms = {{0}, {0, 1}};  // {0,1} absorbed by {0}
  auto p = ExactDnfProbability(f);
  ASSERT_TRUE(p.ok());
  EXPECT_DOUBLE_EQ(*p, 0.5);
}

TEST(ExactTest, MatchesBruteForceOnRandomFormulas) {
  Rng rng(987654);
  for (int trial = 0; trial < 300; ++trial) {
    Dnf f = RandomDnf(&rng, 10, 8, 4);
    auto exact = ExactDnfProbability(f);
    auto brute = BruteForceProbability(f);
    ASSERT_TRUE(exact.ok());
    ASSERT_TRUE(brute.ok());
    EXPECT_NEAR(*exact, *brute, 1e-10) << f.ToString();
  }
}

TEST(ExactTest, MatchesBruteForceOnWiderFormulas) {
  Rng rng(13579);
  for (int trial = 0; trial < 50; ++trial) {
    Dnf f = RandomDnf(&rng, 20, 20, 5);
    auto exact = ExactDnfProbability(f);
    auto brute = BruteForceProbability(f);
    ASSERT_TRUE(exact.ok());
    ASSERT_TRUE(brute.ok());
    EXPECT_NEAR(*exact, *brute, 1e-10);
  }
}

TEST(ExactTest, HandlesManyIndependentBlocksQuickly) {
  // 40 independent two-variable blocks: decomposition makes this linear,
  // Shannon alone would take 2^40 steps.
  Dnf f;
  for (int b = 0; b < 40; ++b) {
    f.probs.push_back(0.5);
    f.probs.push_back(0.5);
    f.terms.push_back({2 * b, 2 * b + 1});
  }
  WmcOptions opts;
  opts.max_calls = 100000;
  auto p = ExactDnfProbability(f, opts);
  ASSERT_TRUE(p.ok());
  EXPECT_NEAR(*p, 1.0 - std::pow(0.75, 40), 1e-9);
}

TEST(ExactTest, BudgetGuardTriggers) {
  // A dense random formula with a tiny budget must fail cleanly.
  Rng rng(5);
  Dnf f = RandomDnf(&rng, 24, 40, 3);
  WmcOptions opts;
  opts.max_calls = 3;
  auto p = ExactDnfProbability(f, opts);
  EXPECT_FALSE(p.ok());
  EXPECT_EQ(p.status().code(), Status::Code::kOutOfRange);
  EXPECT_EQ(LastWmcStats().calls, 3u);  // stops at exactly max_calls
}

TEST(ExactTest, FiredCancellationReturnsCancelledNeverANumber) {
  Rng rng(7);
  const Dnf wide = BipartiteDnf(12, 12, &rng);
  const Dnf empty;
  Dnf single_term;
  single_term.probs = {0.5};
  single_term.terms = {{0}};
  const Dnf& single = single_term;
  WmcOptions opts;
  opts.cancelled = [] { return true; };
  // Already fired: even the empty formula and a single term (one call
  // each) report Cancelled instead of their trivial values.
  for (const Dnf* f : {&empty, &single, &wide}) {
    auto p = ExactDnfProbability(*f, opts);
    ASSERT_FALSE(p.ok());
    EXPECT_EQ(p.status().code(), Status::Code::kCancelled);
    EXPECT_EQ(LastWmcStats().calls, 0u);
  }
  // Fires mid-count: polled on every call, so the count stops at once.
  size_t polls = 0;
  opts.cancelled = [&polls] { return ++polls > 100; };
  auto p = ExactDnfProbability(wide, opts);
  ASSERT_FALSE(p.ok());
  EXPECT_EQ(p.status().code(), Status::Code::kCancelled);
  EXPECT_EQ(polls, 101u);
  EXPECT_EQ(LastWmcStats().calls, 100u);
}

TEST(ExactTest, SilentCancellationCallbackChangesNothing) {
  Rng rng(2468);
  WmcOptions polled;
  polled.cancelled = [] { return false; };
  for (int trial = 0; trial < 100; ++trial) {
    Dnf f = RandomDnf(&rng, 20, 20, 5);
    auto plain = ExactDnfProbability(f);
    ASSERT_TRUE(plain.ok());
    const WmcStats plain_stats = LastWmcStats();
    auto with_callback = ExactDnfProbability(f, polled);
    ASSERT_TRUE(with_callback.ok());
    EXPECT_EQ(*plain, *with_callback) << f.ToString();
    EXPECT_EQ(plain_stats.calls, LastWmcStats().calls);
    EXPECT_EQ(plain_stats.memo_hits, LastWmcStats().memo_hits);
  }
}

TEST(ExactTest, ConcurrentCallsKeepTheirOwnBudgets) {
  // Two threads count wide formulas at once, each with its own budget:
  // each stops at exactly its own max_calls, and each thread's
  // LastWmcStats describes its own call.
  auto worker = [](uint64_t seed, size_t max_calls, size_t* bad) {
    Rng rng(seed);
    const Dnf f = BipartiteDnf(12, 12, &rng);
    WmcOptions opts;
    opts.max_calls = max_calls;
    for (int rep = 0; rep < 10; ++rep) {
      auto p = ExactDnfProbability(f, opts);
      if (p.status().code() != Status::Code::kOutOfRange ||
          LastWmcStats().calls != max_calls) {
        ++*bad;
      }
    }
  };
  size_t bad_a = 0, bad_b = 0;
  std::thread a(worker, 1, 20'000, &bad_a);
  std::thread b(worker, 2, 30'000, &bad_b);
  a.join();
  b.join();
  EXPECT_EQ(bad_a, 0u);
  EXPECT_EQ(bad_b, 0u);
}

TEST(ExactTest, MemoizationHitsOnRepeatedSubformulas) {
  // A ladder formula with heavy subformula sharing.
  Dnf f;
  const int n = 14;
  for (int i = 0; i < n; ++i) f.probs.push_back(0.5);
  for (int i = 0; i + 2 < n; ++i) f.terms.push_back({i, i + 1, i + 2});
  auto p = ExactDnfProbability(f);
  ASSERT_TRUE(p.ok());
  auto brute = BruteForceProbability(f);
  ASSERT_TRUE(brute.ok());
  EXPECT_NEAR(*p, *brute, 1e-10);
}

}  // namespace
}  // namespace dissodb
