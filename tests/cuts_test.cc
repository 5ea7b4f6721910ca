// Unit tests for cut-set enumeration (MinCuts / MinPCuts / all cut-sets)
// and the separator rule's side condition (SeparatorIsTheCut).
#include <gtest/gtest.h>

#include <algorithm>

#include "src/common/rng.h"
#include "src/query/cuts.h"
#include "src/workload/synthetic.h"
#include "tests/test_util.h"

namespace dissodb {
namespace {

using testing_util::Q;
using testing_util::Vars;

std::vector<WorkAtom> Atoms(const ConjunctiveQuery& q,
                            const std::vector<bool>& det = {}) {
  SchemaKnowledge sk = SchemaKnowledge::None(q);
  if (!det.empty()) sk.deterministic = det;
  return MakeWorkAtoms(q, sk);
}

TEST(MinCutsTest, ChainQueryHasOneCutPerInnerVariable) {
  // q() :- R(x), S(x,y), T(y): MinCuts = {{x},{y}}.
  auto q = Q("q() :- R(x), S(x,y), T(y)");
  auto atoms = Atoms(q);
  auto cuts = MinCuts(atoms, q.EVarMask());
  ASSERT_TRUE(cuts.ok());
  std::vector<VarMask> expected = {Vars(q, {"x"}), Vars(q, {"y"})};
  EXPECT_EQ(cuts->size(), 2u);
  for (VarMask e : expected) {
    EXPECT_NE(std::find(cuts->begin(), cuts->end(), e), cuts->end());
  }
}

TEST(MinCutsTest, HierarchicalQueryHasSingleCut) {
  // q1(z) :- R(z,x), S(x,y), K(x,y): only {x} disconnects (z is head).
  auto q = Q("q1(z) :- R(z,x), S(x,y), K(x,y)");
  auto atoms = Atoms(q);
  auto cuts = MinCuts(atoms, q.EVarMask());
  ASSERT_TRUE(cuts.ok());
  ASSERT_EQ(cuts->size(), 1u);
  EXPECT_EQ((*cuts)[0], Vars(q, {"x"}));
}

TEST(MinCutsTest, SingleAtomHasNoCut) {
  auto q = Q("q() :- R(x,y)");
  auto atoms = Atoms(q);
  auto cuts = MinCuts(atoms, q.EVarMask());
  ASSERT_TRUE(cuts.ok());
  EXPECT_TRUE(cuts->empty());
}

TEST(MinCutsTest, TwoAtomFullSharing) {
  // R(x,y), S(x,y): only {x,y} together disconnect.
  auto q = Q("q() :- R(x,y), S(x,y)");
  auto atoms = Atoms(q);
  auto cuts = MinCuts(atoms, q.EVarMask());
  ASSERT_TRUE(cuts.ok());
  ASSERT_EQ(cuts->size(), 1u);
  EXPECT_EQ((*cuts)[0], Vars(q, {"x", "y"}));
}

TEST(MinCutsTest, StarQueryEachPetalVariable) {
  // k-star: each single {x_i} is a min-cut.
  auto q = MakeStarQuery(3);
  auto atoms = Atoms(q);
  auto cuts = MinCuts(atoms, q.EVarMask());
  ASSERT_TRUE(cuts.ok());
  EXPECT_EQ(cuts->size(), 3u);
  for (VarMask c : *cuts) EXPECT_EQ(MaskCount(c), 1);
}

TEST(MinCutsTest, ChainLengthFour) {
  // 4-chain (existential x1,x2,x3): min-cuts {x1},{x2},{x3}.
  auto q = MakeChainQuery(4);
  auto atoms = Atoms(q);
  auto cuts = MinCuts(atoms, q.EVarMask());
  ASSERT_TRUE(cuts.ok());
  EXPECT_EQ(cuts->size(), 3u);
}

TEST(MinCutsTest, DisconnectedQueryHasEmptyCut) {
  auto q = Q("q() :- R(x), S(y)");
  auto atoms = Atoms(q);
  // The empty set already disconnects; minimal enumeration starts at size 1,
  // so callers must handle disconnected queries before calling MinCuts.
  auto comps = ConnectedComponents(atoms, q.EVarMask());
  EXPECT_EQ(comps.size(), 2u);
}

TEST(AllCutSetsTest, ChainCounts) {
  // 3-atom chain R(x),S(x,y),T(y): cut-sets {x},{y},{x,y}.
  auto q = Q("q() :- R(x), S(x,y), T(y)");
  auto atoms = Atoms(q);
  auto cuts = EnumerateCutSets(atoms, q.EVarMask());
  ASSERT_TRUE(cuts.ok());
  EXPECT_EQ(cuts->size(), 3u);
}

TEST(AllCutSetsTest, EveryMinCutIsACutSet) {
  auto q = MakeChainQuery(5);
  auto atoms = Atoms(q);
  auto all = EnumerateCutSets(atoms, q.EVarMask());
  auto min = MinCuts(atoms, q.EVarMask());
  ASSERT_TRUE(all.ok());
  ASSERT_TRUE(min.ok());
  for (VarMask m : *min) {
    EXPECT_NE(std::find(all->begin(), all->end(), m), all->end());
  }
  EXPECT_GE(all->size(), min->size());
}

TEST(AllCutSetsTest, MinCutsAreSubsetMinimal) {
  auto q = MakeStarQuery(4);
  auto atoms = Atoms(q);
  auto min = MinCuts(atoms, q.EVarMask());
  ASSERT_TRUE(min.ok());
  for (size_t i = 0; i < min->size(); ++i) {
    for (size_t j = 0; j < min->size(); ++j) {
      if (i == j) continue;
      EXPECT_NE(((*min)[i] & (*min)[j]), (*min)[i])
          << "cut " << i << " is a subset of cut " << j;
    }
  }
}

TEST(MinPCutsTest, PaperExampleWithDeterministicT) {
  // q :- R(x), S(x,y), T^d(y): MinCuts = {{x},{y}} but MinPCuts = {{x}}
  // (cutting y leaves only one probabilistic component). Section 3.3.1.
  auto q = Q("q() :- R(x), S(x,y), T(y)");
  auto atoms = Atoms(q, {false, false, true});
  auto pcuts = MinPCuts(atoms, q.EVarMask());
  ASSERT_TRUE(pcuts.ok());
  ASSERT_EQ(pcuts->size(), 1u);
  EXPECT_EQ((*pcuts)[0], Vars(q, {"x"}));
}

TEST(MinPCutsTest, AllDeterministicMeansNoPCut) {
  auto q = Q("q() :- R(x), S(x,y), T(y)");
  auto atoms = Atoms(q, {true, true, true});
  auto pcuts = MinPCuts(atoms, q.EVarMask());
  ASSERT_TRUE(pcuts.ok());
  EXPECT_TRUE(pcuts->empty());
}

TEST(MinPCutsTest, NoDeterministicMatchesMinCuts) {
  auto q = MakeChainQuery(4);
  auto atoms = Atoms(q);
  auto a = MinCuts(atoms, q.EVarMask());
  auto b = MinPCuts(atoms, q.EVarMask());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
}

TEST(MinPCutsTest, CanBeLargerThanAMinCut) {
  // q :- R(x), S^d(x,y), T(y), U(y): cutting {x} gives components {R},
  // {S,T,U}: 2 probabilistic comps? R probabilistic, {S,T,U} contains T,U.
  // Cutting {y}: {R,S} (prob R), {T}, {U} -> 3 prob comps. Both minimal.
  auto q = Q("q() :- R(x), S(x,y), T(y), U(y)");
  auto atoms = Atoms(q, {false, true, false, false});
  auto pcuts = MinPCuts(atoms, q.EVarMask());
  ASSERT_TRUE(pcuts.ok());
  EXPECT_EQ(pcuts->size(), 2u);
}

TEST(SeparatorCutTest, SeparatorRuleFiresIffCutsAreExactlyTheSeparator) {
  // The invariant behind the lifted compiler emitting Algorithm 2's plan:
  // on a connected level, the separator rule fires exactly when MinCuts
  // (MinPCuts under the deterministic refinement) returns the single cut
  // {sep}. MakeMin returns its only child, so a fired rule and a one-cut
  // Min emit the same node, and plan identity follows level by level.
  Rng rng(20151031);
  int sets = 0;
  int fired[2] = {0, 0};
  int stuck[2] = {0, 0};
  while (sets < 400) {
    const int nvars = static_cast<int>(rng.NextInt(2, 6));
    const int natoms = static_cast<int>(rng.NextInt(2, 5));
    // A shared core makes separators (and so fired rules) common.
    VarMask core = 0;
    if (rng.NextBernoulli(0.6)) {
      core = MaskOf(static_cast<VarId>(rng.NextInt(0, nvars - 1)));
    }
    std::vector<WorkAtom> atoms;
    for (int i = 0; i < natoms; ++i) {
      VarMask vars = core;
      for (int v = 0; v < nvars; ++v) {
        if (rng.NextBernoulli(0.4)) vars |= MaskOf(v);
      }
      if (vars == 0) {
        vars = MaskOf(static_cast<VarId>(rng.NextInt(0, nvars - 1)));
      }
      atoms.push_back(WorkAtom{i, vars, !rng.NextBernoulli(0.3)});
    }
    VarMask head = 0;
    for (int v = 0; v < nvars; ++v) {
      if (rng.NextBernoulli(0.15)) head |= MaskOf(v);
    }
    const VarMask evars = UnionVars(atoms) & ~head;
    // The rule is only consulted on a connected level.
    if (!IsConnected(atoms, evars)) continue;
    ++sets;
    for (bool use_dr : {false, true}) {
      const VarMask sep = use_dr ? ProbSeparatorVars(atoms, evars)
                                 : SeparatorVars(atoms, evars);
      const bool fires = SeparatorIsTheCut(atoms, evars, sep, use_dr);
      auto cuts = use_dr ? MinPCuts(atoms, evars) : MinCuts(atoms, evars);
      ASSERT_TRUE(cuts.ok());
      if (fires) {
        ++fired[use_dr];
        EXPECT_EQ(*cuts, std::vector<VarMask>{sep})
            << "set " << sets << " dr=" << use_dr;
      } else {
        ++stuck[use_dr];
        if (sep != 0) {
          EXPECT_NE(*cuts, std::vector<VarMask>{sep})
              << "set " << sets << " dr=" << use_dr;
        }
      }
    }
  }
  // Both outcomes, with and without the refinement, must be exercised.
  for (int dr : {0, 1}) {
    EXPECT_GE(fired[dr], 50) << "dr=" << dr;
    EXPECT_GE(stuck[dr], 50) << "dr=" << dr;
  }
}

TEST(CutsGuardTest, TooManyVariablesRejected) {
  ConjunctiveQuery q;
  Atom a;
  a.relation = "Big";
  for (int i = 0; i < 30; ++i) {
    a.terms.push_back(Term::Var(q.AddVar("v" + std::to_string(i))));
  }
  Atom b;
  b.relation = "Big2";
  for (int i = 0; i < 30; ++i) b.terms.push_back(Term::Var(i));
  ASSERT_TRUE(q.AddAtom(a).ok());
  ASSERT_TRUE(q.AddAtom(b).ok());
  auto atoms = MakeWorkAtoms(q, SchemaKnowledge::None(q));
  auto cuts = MinCuts(atoms, q.EVarMask());
  EXPECT_FALSE(cuts.ok());
  EXPECT_EQ(cuts.status().code(), Status::Code::kOutOfRange);
}

}  // namespace
}  // namespace dissodb
