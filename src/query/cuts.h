// Cut-set enumeration (Section 3.2 / 3.3.1).
//
// A cut-set of a connected query is a set of existential variables whose
// removal disconnects the atoms. MinCuts are the subset-minimal cut-sets;
// they are in 1-to-1 correspondence with the top-most projections of minimal
// plans. MinPCuts additionally require that at least two of the resulting
// components contain a probabilistic relation (deterministic-relation
// refinement, Theorem 24).
#ifndef DISSODB_QUERY_CUTS_H_
#define DISSODB_QUERY_CUTS_H_

#include <span>
#include <vector>

#include "src/common/status.h"
#include "src/query/analysis.h"

namespace dissodb {

/// All cut-sets (not only minimal) of `atoms` w.r.t. existential variables
/// `evars`: non-empty y ⊆ evars with atoms − y disconnected. Used by the
/// total-plan counting of Figure 2. Fails if |evars| > 24 (enumeration guard).
Result<std::vector<VarMask>> EnumerateCutSets(std::span<const WorkAtom> atoms,
                                              VarMask evars);

/// Subset-minimal cut-sets, smallest first. Empty result iff the query has
/// fewer than two atoms (a single atom can never be disconnected).
Result<std::vector<VarMask>> MinCuts(std::span<const WorkAtom> atoms,
                                     VarMask evars);

/// Minimal cut-sets that split the atoms into >= 2 components *each counted
/// only if it contains a probabilistic atom* (Section 3.3.1 modification 1).
Result<std::vector<VarMask>> MinPCuts(std::span<const WorkAtom> atoms,
                                      VarMask evars);

/// The separator rule's side condition (independent project): for atoms
/// connected through `evars` and their separator set `sep` (SeparatorVars,
/// or ProbSeparatorVars when `probabilistic_only`), true iff `sep` is
/// non-empty and itself a (p-)cut-set. Every (p-)cut-set contains all of
/// `sep` — while one of its variables remains, all (probabilistic) atoms
/// stay connected through it — so then {sep} is exactly what MinCuts
/// (MinPCuts) returns, without enumerating a single candidate.
bool SeparatorIsTheCut(std::span<const WorkAtom> atoms, VarMask evars,
                       VarMask sep, bool probabilistic_only);

}  // namespace dissodb

#endif  // DISSODB_QUERY_CUTS_H_
