// Tests for the deterministic semi-join reduction (Opt. 3).
#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_set>

#include "src/common/hash.h"
#include "src/dissociation/propagation.h"
#include "src/exec/bloom.h"
#include "src/exec/semijoin.h"
#include "src/workload/random_instance.h"
#include "tests/test_util.h"

namespace dissodb {
namespace {

using testing_util::AddTable;
using testing_util::Q;

TEST(SemiJoinTest, RemovesDanglingTuples) {
  auto q = Q("q() :- R(x), S(x,y), T(y)");
  Database db;
  AddTable(&db, "R", 1, {{{1}, 0.5}, {{2}, 0.5}, {{9}, 0.5}});
  AddTable(&db, "S", 2, {{{1, 4}, 0.5}, {{2, 5}, 0.5}, {{3, 6}, 0.5}});
  AddTable(&db, "T", 1, {{{4}, 0.5}, {{7}, 0.5}});
  SemiJoinStats stats;
  auto reduced = SemiJoinReduce(db.snapshot(), q, {}, &stats);
  ASSERT_TRUE(reduced.ok());
  // Only the path 1 -> 4 survives everywhere.
  EXPECT_EQ((*reduced)[0].NumRows(), 1u);  // R: {1}
  EXPECT_EQ((*reduced)[1].NumRows(), 1u);  // S: {(1,4)}
  EXPECT_EQ((*reduced)[2].NumRows(), 1u);  // T: {4}
  EXPECT_EQ(stats.rows_before[0], 3u);
  EXPECT_GE(stats.passes, 1);
}

TEST(SemiJoinTest, FullyJoinableInputUnchanged) {
  auto q = Q("q() :- R(x), S(x)");
  Database db;
  AddTable(&db, "R", 1, {{{1}, 0.5}, {{2}, 0.5}});
  AddTable(&db, "S", 1, {{{1}, 0.5}, {{2}, 0.5}});
  auto reduced = SemiJoinReduce(db.snapshot(), q);
  ASSERT_TRUE(reduced.ok());
  EXPECT_EQ((*reduced)[0].NumRows(), 2u);
  EXPECT_EQ((*reduced)[1].NumRows(), 2u);
}

TEST(SemiJoinTest, AppliesConstantSelections) {
  auto q = Q("q() :- R(x, 7)");
  Database db;
  AddTable(&db, "R", 2, {{{1, 7}, 0.5}, {{2, 8}, 0.5}});
  auto reduced = SemiJoinReduce(db.snapshot(), q);
  ASSERT_TRUE(reduced.ok());
  EXPECT_EQ((*reduced)[0].NumRows(), 1u);
}

TEST(SemiJoinTest, CascadingReductionNeedsMultiplePasses) {
  // Chain where dangling tuples cascade backwards: R1 -> R2 -> R3.
  auto q = Q("q() :- R1(x,y), R2(y,z), R3(z,u)");
  Database db;
  AddTable(&db, "R1", 2, {{{1, 2}, 0.5}});
  AddTable(&db, "R2", 2, {{{2, 3}, 0.5}, {{9, 9}, 0.5}});
  AddTable(&db, "R3", 2, {{{4, 5}, 0.5}});  // z=3 has no match!
  auto reduced = SemiJoinReduce(db.snapshot(), q);
  ASSERT_TRUE(reduced.ok());
  // Everything dies: R3 kills R2's (2,3), which kills R1's (1,2).
  EXPECT_EQ((*reduced)[0].NumRows(), 0u);
  EXPECT_EQ((*reduced)[1].NumRows(), 0u);
  EXPECT_EQ((*reduced)[2].NumRows(), 0u);
}

TEST(SemiJoinTest, LongChainsWithDanglingEndReduceToEmpty) {
  // R0(x0,x1), ..., R{k-1}(x{k-1},xk) over one path whose last table
  // breaks the join: a full reduction empties every atom, however long
  // the chain (a pass-capped pairwise loop leaves the far end standing).
  for (int k : {6, 8}) {
    std::string text = "q() :- ";
    Database db;
    for (int i = 0; i < k; ++i) {
      const std::string rel = "R" + std::to_string(i);
      text += (i ? ", " : "") + rel + "(x" + std::to_string(i) + ",x" +
              std::to_string(i + 1) + ")";
      const int64_t v = i + 1 < k ? 1 : 2;  // the last row misses x{k-1}=1
      AddTable(&db, rel, 2, {{{v, v}, 0.5}});
    }
    auto q = Q(text);
    const JoinTree tree = CompileJoinTree(q);
    EXPECT_TRUE(tree.acyclic);
    EXPECT_EQ(tree.edges.size(), static_cast<size_t>(k - 1));
    SemiJoinStats stats;
    auto reduced = SemiJoinReduce(db.snapshot(), q, tree, {}, &stats);
    ASSERT_TRUE(reduced.ok());
    for (int i = 0; i < k; ++i) {
      EXPECT_EQ((*reduced)[i].NumRows(), 0u) << "k=" << k << " atom " << i;
    }
    EXPECT_EQ(stats.passes, 2);
  }
}

TEST(SemiJoinTest, JoinTreeClassifiesQueries) {
  // Chains, stars and hierarchical queries are acyclic: a join forest with
  // one edge per atom beyond the first of each connected component.
  EXPECT_TRUE(CompileJoinTree(Q("q(z) :- R(z,x), S(x,y), T(y)")).acyclic);
  const JoinTree star = CompileJoinTree(Q("q() :- A(x), B(x,y), C(x,z), D(x)"));
  EXPECT_TRUE(star.acyclic);
  EXPECT_EQ(star.edges.size(), 3u);
  const JoinTree apart = CompileJoinTree(Q("q() :- R(x), S(x), T(y), U(y)"));
  EXPECT_TRUE(apart.acyclic);
  EXPECT_EQ(apart.edges.size(), 2u);
  // A triangle is not; its program is every sharing pair.
  const JoinTree tri = CompileJoinTree(Q("q() :- A(x,y), B(y,z), C(z,x)"));
  EXPECT_FALSE(tri.acyclic);
  EXPECT_EQ(tri.edges.size(), 3u);
  // A cycle covered by one atom is acyclic again.
  EXPECT_TRUE(
      CompileJoinTree(Q("q() :- A(x,y), B(y,z), C(z,x), D(x,y,z)")).acyclic);
  // A program compiled for another query is refused.
  Database db;
  AddTable(&db, "R", 1, {{{1}, 0.5}});
  AddTable(&db, "S", 1, {{{1}, 0.5}});
  EXPECT_FALSE(SemiJoinReduce(db.snapshot(), Q("q() :- R(x), S(x)"), tri).ok());
}

TEST(SemiJoinTest, PreservesAnswersAndScoresOnRandomInstances) {
  Rng rng(424242);
  RandomQuerySpec qspec;
  qspec.max_atoms = 4;
  qspec.max_vars = 4;
  for (int trial = 0; trial < 60; ++trial) {
    ConjunctiveQuery q = RandomQuery(&rng, qspec);
    Database db = RandomDatabaseFor(q, &rng);
    PropagationOptions plain;
    plain.opt3_semijoin_reduction = false;
    PropagationOptions with_sj;
    with_sj.opt3_semijoin_reduction = true;
    auto a = PropagationScore(db, q, plain);
    auto b = PropagationScore(db, q, with_sj);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_EQ(a->answers.size(), b->answers.size()) << q.ToString();
    for (size_t i = 0; i < a->answers.size(); ++i) {
      EXPECT_EQ(a->answers[i].tuple, b->answers[i].tuple) << q.ToString();
      EXPECT_NEAR(a->answers[i].score, b->answers[i].score, 1e-9)
          << q.ToString();
    }
  }
}

TEST(SemiJoinTest, RespectsOverrides) {
  auto q = Q("q() :- R(x), S(x)");
  Database db;
  AddTable(&db, "R", 1, {{{1}, 0.5}, {{2}, 0.5}});
  AddTable(&db, "S", 1, {{{1}, 0.5}, {{2}, 0.5}});
  Table small(RelationSchema::AllInt64("R", 1));
  small.AddRow({Value::Int64(2)}, 0.5);
  auto reduced = SemiJoinReduce(db.snapshot(), q, {{0, &small}});
  ASSERT_TRUE(reduced.ok());
  EXPECT_EQ((*reduced)[0].NumRows(), 1u);
  EXPECT_EQ((*reduced)[1].NumRows(), 1u);  // S reduced against override
}

// ---------------------------------------------------------------------------
// Blocked Bloom pre-filter: no false negatives ever, useful rejection on
// disjoint probes, and — consulted or not — identical reductions.
// ---------------------------------------------------------------------------

TEST(BlockedBloomFilterTest, NeverFalseNegative) {
  Rng rng(77);
  std::vector<uint64_t> keys;
  BlockedBloomFilter filter(10'000);
  for (int i = 0; i < 10'000; ++i) {
    keys.push_back(Mix64(rng.Next()));
    filter.Add(keys.back());
  }
  for (uint64_t h : keys) {
    ASSERT_TRUE(filter.MayContain(h));
  }
}

TEST(BlockedBloomFilterTest, RejectsMostDisjointProbes) {
  Rng rng(78);
  std::unordered_set<uint64_t> inserted;
  BlockedBloomFilter filter(10'000);
  while (inserted.size() < 10'000) {
    uint64_t h = Mix64(rng.Next());
    if (inserted.insert(h).second) filter.Add(h);
  }
  size_t passed = 0;
  const size_t probes = 20'000;
  for (size_t i = 0; i < probes;) {
    uint64_t h = Mix64(rng.Next());
    if (inserted.count(h)) continue;  // keep the probe set truly disjoint
    if (filter.MayContain(h)) ++passed;
    ++i;
  }
  // Sized at ~10 bits/key with k=2, the false-positive rate is a few
  // percent; 15% gives wide seed headroom while still proving the filter
  // short-circuits the overwhelming majority of dangling probes.
  EXPECT_LT(passed, probes * 15 / 100);
}

TEST(SemiJoinTest, BloomFilterDoesNotChangeReduction) {
  Rng rng(79);
  RandomQuerySpec qspec;
  qspec.max_atoms = 4;
  qspec.max_vars = 4;
  for (int trial = 0; trial < 20; ++trial) {
    ConjunctiveQuery q = RandomQuery(&rng, qspec);
    Database db = RandomDatabaseFor(q, &rng);

    SetSemiJoinBloomMinRowsForTesting(SIZE_MAX);
    SemiJoinStats off_stats;
    auto off = SemiJoinReduce(db.snapshot(), q, {}, &off_stats);
    SetSemiJoinBloomMinRowsForTesting(1);
    SemiJoinStats on_stats;
    auto on = SemiJoinReduce(db.snapshot(), q, {}, &on_stats);
    SetSemiJoinBloomMinRowsForTesting(4096);  // restore the default

    ASSERT_TRUE(off.ok());
    ASSERT_TRUE(on.ok());
    EXPECT_EQ(off_stats.bloom_filters_built, 0u);
    EXPECT_EQ(off_stats.bloom_probes_skipped, 0u);
    ASSERT_EQ(off->size(), on->size());
    for (size_t t = 0; t < off->size(); ++t) {
      const Table& a = (*off)[t];
      const Table& b = (*on)[t];
      ASSERT_EQ(a.NumRows(), b.NumRows()) << q.ToString() << " table " << t;
      for (size_t r = 0; r < a.NumRows(); ++r) {
        for (int c = 0; c < a.NumCols(); ++c) {
          ASSERT_EQ(a.At(r, c), b.At(r, c)) << q.ToString();
        }
        ASSERT_EQ(a.Weight(r), b.Weight(r)) << q.ToString();
      }
    }
  }
}

TEST(SemiJoinTest, ForcedBloomFiltersReportStats) {
  auto q = Q("q() :- R(x), S(x,y), T(y)");
  Database db;
  AddTable(&db, "R", 1, {{{1}, 0.5}, {{2}, 0.5}, {{9}, 0.5}});
  AddTable(&db, "S", 2, {{{1, 4}, 0.5}, {{2, 5}, 0.5}, {{3, 6}, 0.5}});
  AddTable(&db, "T", 1, {{{4}, 0.5}, {{7}, 0.5}});
  SetSemiJoinBloomMinRowsForTesting(1);
  SemiJoinStats stats;
  auto reduced = SemiJoinReduce(db.snapshot(), q, {}, &stats);
  SetSemiJoinBloomMinRowsForTesting(4096);
  ASSERT_TRUE(reduced.ok());
  // Same reduction as RemovesDanglingTuples, now through the filters.
  EXPECT_EQ((*reduced)[0].NumRows(), 1u);
  EXPECT_EQ((*reduced)[1].NumRows(), 1u);
  EXPECT_EQ((*reduced)[2].NumRows(), 1u);
  EXPECT_GT(stats.bloom_filters_built, 0u);
}

}  // namespace
}  // namespace dissodb
