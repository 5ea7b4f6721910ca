#include "src/dissociation/minimal_plans.h"

#include <algorithm>

#include "src/query/cuts.h"

namespace dissodb {

namespace {

class MinimalPlanEnumerator {
 public:
  MinimalPlanEnumerator(const ConjunctiveQuery& q, std::vector<WorkAtom> atoms,
                        bool use_dr)
      : q_(q), atoms_(std::move(atoms)), use_dr_(use_dr) {}

  Result<std::vector<PlanPtr>> Run() { return Rec(atoms_, q_.HeadMask()); }

 private:
  Result<std::vector<PlanPtr>> Rec(const std::vector<WorkAtom>& atoms,
                                   VarMask head) {
    VarMask all = UnionVars(atoms);
    head &= all;
    if (IsBaseCase(atoms, use_dr_)) {
      auto base = BaseCasePlan(q_, atoms, head);
      if (!base.ok()) return base.status();
      return std::vector<PlanPtr>{*base};
    }
    VarMask evars = all & ~head;
    auto comps = ConnectedComponents(atoms, evars);
    std::vector<PlanPtr> out;
    if (comps.size() > 1) {
      // Lines 3-6: cross product of component plan sets, joined.
      std::vector<std::vector<PlanPtr>> lists;
      for (const auto& comp : comps) {
        std::vector<WorkAtom> sub;
        for (int idx : comp) sub.push_back(atoms[idx]);
        VarMask sub_head = head & UnionVars(sub);
        auto plans = Rec(sub, sub_head);
        if (!plans.ok()) return plans.status();
        lists.push_back(std::move(*plans));
      }
      std::vector<size_t> idx(lists.size(), 0);
      for (;;) {
        std::vector<PlanPtr> children;
        children.reserve(lists.size());
        for (size_t i = 0; i < lists.size(); ++i) {
          children.push_back(lists[i][idx[i]]);
        }
        out.push_back(MakeJoin(std::move(children)));
        size_t i = 0;
        for (; i < lists.size(); ++i) {
          if (++idx[i] < lists[i].size()) break;
          idx[i] = 0;
        }
        if (i == lists.size()) break;
      }
    } else {
      // Lines 8-10: one projection per minimal cut-set.
      auto cuts = use_dr_ ? MinPCuts(atoms, evars) : MinCuts(atoms, evars);
      if (!cuts.ok()) return cuts.status();
      for (VarMask y : *cuts) {
        auto plans = Rec(atoms, head | y);
        if (!plans.ok()) return plans.status();
        for (auto& p : *plans) {
          out.push_back(MakeProject(head, std::move(p)));
        }
      }
    }
    return out;
  }

  const ConjunctiveQuery& q_;
  std::vector<WorkAtom> atoms_;
  bool use_dr_;
};

}  // namespace

Dissociation ChaseDissociation(const ConjunctiveQuery& q,
                               const SchemaKnowledge& sk) {
  Dissociation d = Dissociation::Empty(q);
  VarMask evars = q.EVarMask();
  for (int i = 0; i < q.num_atoms(); ++i) {
    VarMask vars = q.AtomMask(i);
    d.extra[i] = (FDClosure(vars, sk.fds) & ~vars) & evars;
  }
  return d;
}

std::vector<WorkAtom> WorkAtomsUnderKnowledge(const ConjunctiveQuery& q,
                                              const SchemaKnowledge& sk,
                                              const PlanEnumOptions& opts) {
  if (opts.use_fds && !sk.fds.empty()) {
    return ApplyDissociation(q, sk, ChaseDissociation(q, sk));
  }
  return MakeWorkAtoms(q, sk);
}

bool IsBaseCase(std::span<const WorkAtom> atoms, bool use_deterministic) {
  if (!use_deterministic) return atoms.size() <= 1;
  int n_prob = 0;
  for (const auto& a : atoms) n_prob += a.probabilistic ? 1 : 0;
  return n_prob <= 1;
}

Result<PlanPtr> BaseCasePlan(const ConjunctiveQuery& q,
                             std::vector<WorkAtom> atoms, VarMask head) {
  if (atoms.size() == 1) {
    const WorkAtom& a = atoms[0];
    PlanPtr p = MakeScan(a.atom_idx, q.AtomMask(a.atom_idx),
                         a.vars & ~q.AtomMask(a.atom_idx));
    if (p->head != head) p = MakeProject(head, p);
    return p;
  }
  VarMask evars = UnionVars(atoms) & ~head;
  for (auto& a : atoms) {
    if (!a.probabilistic) a.vars |= evars;
  }
  return SafePlanForWorkAtoms(q, std::move(atoms), head);
}

Result<std::vector<PlanPtr>> EnumerateMinimalPlans(
    const ConjunctiveQuery& q, const SchemaKnowledge& sk,
    const PlanEnumOptions& opts) {
  MinimalPlanEnumerator e(q, WorkAtomsUnderKnowledge(q, sk, opts),
                          opts.use_deterministic);
  return e.Run();
}

Result<std::vector<PlanPtr>> EnumerateMinimalPlans(const ConjunctiveQuery& q) {
  return EnumerateMinimalPlans(q, SchemaKnowledge::None(q), PlanEnumOptions{});
}

Result<bool> IsSafeQuery(const ConjunctiveQuery& q, const SchemaKnowledge& sk,
                         const PlanEnumOptions& opts) {
  auto plans = EnumerateMinimalPlans(q, sk, opts);
  if (!plans.ok()) return plans.status();
  return plans->size() == 1;
}

}  // namespace dissodb
