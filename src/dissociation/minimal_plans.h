// Algorithm 1: enumerate all minimal query plans (Theorem 20), with the
// schema-knowledge refinements of Section 3.3:
//  - deterministic relations: MinPCuts + the "at most one probabilistic
//    relation" stopping rule (Theorem 24);
//  - functional dependencies: chase the query through the FD closure
//    (Delta_Gamma) before enumeration (Theorem 27).
//
// For a safe query the result is a single plan, the safe plan, and its score
// equals the exact probability (conservativity; Corollary 28 generalizes the
// Dalvi-Suciu dichotomy).
#ifndef DISSODB_DISSOCIATION_MINIMAL_PLANS_H_
#define DISSODB_DISSOCIATION_MINIMAL_PLANS_H_

#include <span>
#include <vector>

#include "src/common/status.h"
#include "src/dissociation/dissociation.h"
#include "src/plan/plan.h"
#include "src/query/analysis.h"
#include "src/query/cq.h"

namespace dissodb {

/// Which schema knowledge Algorithm 1 may exploit.
struct PlanEnumOptions {
  bool use_deterministic = true;  ///< Section 3.3.1 (MinPCuts + stop rule)
  bool use_fds = true;            ///< Section 3.3.2 (chase Delta_Gamma)
};

/// Enumerates the minimal plans of q. With `sk` empty/None this is plain
/// Algorithm 1; with deterministic relations or FDs the returned set can be
/// strictly smaller (down to one plan when q is safe given the knowledge).
Result<std::vector<PlanPtr>> EnumerateMinimalPlans(
    const ConjunctiveQuery& q, const SchemaKnowledge& sk,
    const PlanEnumOptions& opts = {});

/// Convenience overload without schema knowledge.
Result<std::vector<PlanPtr>> EnumerateMinimalPlans(const ConjunctiveQuery& q);

/// The chase dissociation Delta_Gamma (Section 3.3.2): every atom absorbs
/// the existential variables functionally determined by its own variables.
Dissociation ChaseDissociation(const ConjunctiveQuery& q,
                               const SchemaKnowledge& sk);

/// The work atoms every plan recursion (Algorithms 1 and 2, the lifted
/// compiler, the safety analyzer) starts from: q chased through
/// Delta_Gamma when FDs are enabled and present, plain work atoms
/// otherwise.
std::vector<WorkAtom> WorkAtomsUnderKnowledge(const ConjunctiveQuery& q,
                                              const SchemaKnowledge& sk,
                                              const PlanEnumOptions& opts);

/// The stop rule: a single atom (Algorithm 1 line 1) or, under the
/// deterministic refinement, at most one probabilistic atom (Section 3.3.1
/// modification 2).
bool IsBaseCase(std::span<const WorkAtom> atoms, bool use_deterministic);

/// The unique plan of a base case with head `head`. With at most one
/// probabilistic atom left, dissociating every DETERMINISTIC atom on all
/// missing existential variables is free (Lemma 22) and always yields a
/// hierarchical query whose unique safe plan is exact. When the
/// probabilistic atom already contains every existential variable this
/// degenerates to the paper's single join-all-project plan; when it does
/// not, the literal join-all would dissociate the probabilistic relation
/// (not exact), so the safe plan of the DR-only dissociation is emitted
/// instead.
Result<PlanPtr> BaseCasePlan(const ConjunctiveQuery& q,
                             std::vector<WorkAtom> atoms, VarMask head);

/// Is q safe given schema knowledge, i.e. does Algorithm 1 return a single
/// plan whose score is exact (Corollary 28)?
Result<bool> IsSafeQuery(const ConjunctiveQuery& q, const SchemaKnowledge& sk,
                         const PlanEnumOptions& opts = {});

}  // namespace dissodb

#endif  // DISSODB_DISSOCIATION_MINIMAL_PLANS_H_
