// Optimization 3 (Section 4.3): deterministic semi-join reduction.
//
// Before any probabilistic evaluation, every input relation is reduced to
// the tuples that can participate in some full join of the query. Removed
// tuples appear in no lineage (of q or of any dissociation q^Delta, whose
// joins are strictly finer), so all plan scores are unchanged while the
// expensive probabilistic group-bys see far fewer rows.
//
// The reduction program is compiled once per query shape (CompileJoinTree,
// cached with the engine's compiled plans). An acyclic query gets a
// Yannakakis (VLDB'81) full reducer over a GYO join forest: one bottom-up
// and one top-down sweep, 2(m-1) semi-joins for m connected atoms, no
// repeat loop. A cyclic query keeps the pairwise semi-join loop, run to
// fixpoint. Both reach the same result — the largest pairwise-consistent
// sub-instance, which for acyclic queries is exactly the set of tuples in
// some full join of their connected component — and both work on ascending
// per-atom selection vectors, so each shrunken table is materialized with
// a single Select at the end.
#ifndef DISSODB_EXEC_SEMIJOIN_H_
#define DISSODB_EXEC_SEMIJOIN_H_

#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/query/cq.h"
#include "src/storage/snapshot.h"

namespace dissodb {

struct SemiJoinStats {
  /// Per atom: rows after the atom-local filters, and after the reduction.
  std::vector<size_t> rows_before;
  std::vector<size_t> rows_after;
  /// Sweeps over the program: 2 for a join forest (bottom-up, top-down),
  /// the number of pairwise passes to fixpoint for a cyclic query.
  int passes = 0;
  /// Build sides large enough to get a blocked Bloom pre-filter, and probe
  /// rows the filter rejected without touching the hash index. The filter
  /// has no false negatives, so it never changes which rows survive.
  size_t bloom_filters_built = 0;
  size_t bloom_probes_skipped = 0;
};

/// The semi-join program of a query shape. Depends only on which variables
/// each atom mentions, so one program serves every parameter binding and
/// every selection override of a prepared query.
struct JoinTree {
  /// Two atoms sharing variables, with the column positions (first
  /// occurrence) of their shared variables in each.
  struct Edge {
    int a = 0;
    int b = 0;
    std::vector<int> pos_a;
    std::vector<int> pos_b;
  };
  /// True iff GYO reduction eliminated every atom: `edges` is then an
  /// undirected join forest (running-intersection property) that the
  /// reducer roots per request. False: `edges` lists every atom pair that
  /// shares a variable, and the reducer loops over them to fixpoint.
  bool acyclic = true;
  std::vector<Edge> edges;
};

/// GYO-compiles the join forest of `q` (or, for a cyclic query, its
/// sharing pairs). Head variables count as join variables: answers group
/// on them, so tuples must agree on them too.
JoinTree CompileJoinTree(const ConjunctiveQuery& q);

/// Full semi-join reduction of `q`'s inputs under the precompiled `tree`.
/// Each atom reads its override table if any, else its relation in the
/// pinned snapshot `snap` (so a reduction is internally consistent no
/// matter how many commits run concurrently), after the atom's constant
/// and repeated-variable filters. Returns one reduced table per atom; rows
/// keep their source order. Each join-forest component is rooted at its
/// largest input, which is then probed but never indexed.
Result<std::vector<Table>> SemiJoinReduce(
    const Snapshot& snap, const ConjunctiveQuery& q, const JoinTree& tree,
    const std::unordered_map<int, const Table*>& overrides = {},
    SemiJoinStats* stats = nullptr);

/// Same, compiling the join tree on the fly.
Result<std::vector<Table>> SemiJoinReduce(
    const Snapshot& snap, const ConjunctiveQuery& q,
    const std::unordered_map<int, const Table*>& overrides = {},
    SemiJoinStats* stats = nullptr);

/// Overrides the build-side row count at which reductions add a Bloom
/// pre-filter (default 4096; env DISSODB_BLOOM_MIN_ROWS overrides the
/// default, DISSODB_DISABLE_BLOOM disables the filter entirely). Tests use
/// 1 to force filters onto tiny inputs and SIZE_MAX to force them off.
void SetSemiJoinBloomMinRowsForTesting(size_t rows);

}  // namespace dissodb

#endif  // DISSODB_EXEC_SEMIJOIN_H_
