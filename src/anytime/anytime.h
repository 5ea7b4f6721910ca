// Anytime-answer types: the GuaranteeSpec callers hand to
// QueryEngine::RunWithGuarantees and the bounded answers it streams back.
//
// The serving story of the paper, productized: dissociation gives every
// answer a cheap [lower, upper] probability interval (upper = the
// propagation score, Theorem 18 / Corollary 19; lower = the same plans over
// obliviously rescaled weights, see src/anytime/lower_bound.h), and exact
// or sampled probabilities are reserved for the few answers whose intervals
// still overlap a rank boundary. A GuaranteeSpec says when to stop: an
// interval-width budget, a top-k order to certify, a wall-clock deadline —
// or nothing, which means "bounds only".
#ifndef DISSODB_ANYTIME_ANYTIME_H_
#define DISSODB_ANYTIME_ANYTIME_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "src/common/value.h"

namespace dissodb {

/// What RunWithGuarantees must achieve before returning (deadline
/// permitting). Default-constructed: no targets — evaluate both bounds and
/// return immediately ("bounds only").
struct GuaranteeSpec {
  /// Per-answer interval-width budget: refine until upper - lower <= epsilon
  /// for every answer. Infinity (default) = no width target.
  double epsilon = std::numeric_limits<double>::infinity();

  /// Certify the order of the top k answers: terminate as soon as each of
  /// the first k positions provably beats every later answer (its lower
  /// bound >= the suffix max of later uppers). 0 = no ranking target.
  size_t top_k = 0;

  /// Wall-clock budget measured from the RunWithGuarantees call. The
  /// bounds stages always run (they are the cheap unconditional floor);
  /// the deadline gates refinement — a deadline that expires mid-round
  /// skips the round's queued tasks, stops the running ones within about
  /// one WMC call or MC poll stride, and returns the intervals accumulated
  /// so far. zero (default) = unbounded.
  std::chrono::nanoseconds deadline{0};

  /// Exact-WMC escalation budget per contested answer (recursive calls; see
  /// WmcOptions; each answer's count owns its budget). Small lineages
  /// collapse their interval to a point in one step; larger ones fall
  /// through to incremental MC. 0 disables exact escalation (pure-MC
  /// refinement, used by reproducibility tests).
  size_t wmc_max_calls = 200'000;

  /// MC batch size for round r is mc_base_samples << min(r, 10), capped at
  /// mc_max_samples_per_answer accumulated per answer.
  size_t mc_base_samples = 1024;
  size_t mc_max_samples_per_answer = size_t{1} << 20;

  /// Refinement rounds cap (MC intervals are statistical: two answers with
  /// genuinely equal probabilities would otherwise refine forever).
  size_t max_refine_rounds = 64;

  /// Contested answers refined per round, nearest-the-boundary first.
  /// Bounds per-round latency so the deadline is checked often.
  size_t max_refined_per_round = 64;

  /// True when the spec asks for anything beyond the bounds stages.
  bool HasTargets() const {
    return top_k > 0 || epsilon < std::numeric_limits<double>::infinity();
  }
};

/// How one answer's interval was obtained (the escalation rung it ended on).
enum class BoundSource : uint8_t {
  kSafeExact,   ///< safe-plan route: the score is exact, interval is a point
  kBounds,      ///< dissociation upper + oblivious lower bound only
  kExactWmc,    ///< refined by exact weighted model counting (point)
  kMc,          ///< refined by incremental MC (statistical interval)
};

/// One answer with its probability interval. Invariant: lower <= point <=
/// upper, and P(q = a) is in [lower, upper] (up to MC confidence for
/// kMc-refined answers).
struct BoundedAnswer {
  std::vector<Value> tuple;  ///< head values, caller variable order
  double lower = 0.0;
  double upper = 1.0;
  /// Serving score: the dissociation score until refinement replaces it
  /// with an exact probability or an MC estimate. Answers stream sorted by
  /// descending point (ties: ascending tuple).
  double point = 0.0;
  /// This answer met the caller's guarantee: its interval is (numerically)
  /// a point, its width is <= epsilon, or its top-k position is certified.
  bool certified = false;
  BoundSource source = BoundSource::kBounds;
  /// MC samples folded into this answer's estimate (kMc only).
  size_t mc_samples = 0;

  double width() const { return upper - lower; }
};

/// Escalation verdict for the whole query.
enum class AnytimeVerdict : uint8_t {
  kExact,      ///< safe plan (or every answer refined to a point): all exact
  kCertified,  ///< every requested guarantee met (top-k order / epsilon)
  kBoundsOnly, ///< bounds returned; guarantees not (fully) met — no targets
               ///< requested, deadline hit, or refinement budget exhausted
};

const char* AnytimeVerdictName(AnytimeVerdict v);

/// Controller-side telemetry for one RunWithGuarantees call.
struct AnytimeStats {
  size_t refine_rounds = 0;
  /// Distinct answers that received any refinement (exact or MC). The
  /// whole point of interval ranking: this stays well below the answer
  /// count on ranking workloads.
  size_t refined_answers = 0;
  size_t exact_refinements = 0;  ///< answers collapsed by exact WMC
  size_t mc_samples_drawn = 0;
  /// Answers whose intervals overlapped a rank boundary after the bounds
  /// stages (the initial contested set).
  size_t contested_initial = 0;
  size_t certified_prefix = 0;  ///< certified top positions (top-k target)
  bool deadline_hit = false;
};

}  // namespace dissodb

#endif  // DISSODB_ANYTIME_ANYTIME_H_
