// Monte Carlo estimators for DNF probability.
//
// NaiveDnfEstimate is the paper's MC(x): sample every variable, evaluate the
// formula, average. KarpLubyEstimate is the classical FPRAS coverage
// estimator — an extension beyond the paper's experiments, useful when the
// formula probability is tiny. McEstimator is the resumable form of the
// naive estimator the anytime controller refines incrementally: state is
// (hits, samples), batches fold in atomically, and the accumulated estimate
// is a deterministic function of the completed batches alone — which is
// what makes refinement bit-reproducible across worker counts when every
// batch draws from its own (plan fingerprint, answer key, round) seed.
#ifndef DISSODB_INFER_MC_H_
#define DISSODB_INFER_MC_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/hash.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/lineage/formula.h"

namespace dissodb {

/// Naive estimator: fraction of `samples` worlds satisfying F.
double NaiveDnfEstimate(const Dnf& f, size_t samples, Rng* rng);

/// Karp-Luby-Madras coverage estimator (unbiased; relative-error FPRAS).
/// A formula with no terms is an error (InvalidArgument), not 0.0: "no
/// lineage" and "probability exactly 0" are different answers, and callers
/// (e.g. the anytime refiner deciding whether an interval can collapse)
/// must be able to tell them apart. `samples == 0` is likewise an error.
/// A formula whose terms all have zero-probability variables returns a
/// true 0.
Result<double> KarpLubyEstimate(const Dnf& f, size_t samples, Rng* rng);

/// \brief Resumable naive-MC state for one DNF: fold in sample batches
/// across refinement rounds, read off the running estimate and a
/// confidence half-width at any point. The formula must outlive the
/// estimator.
class McEstimator {
 public:
  explicit McEstimator(const Dnf* f) : f_(f), world_(f->num_vars()) {}

  /// Draws `n` worlds with `rng` and folds them in. `cancelled`, when
  /// non-empty, is polled by work done (about every 16k variables drawn
  /// plus literals evaluated, at most ~0.3 ms apart); a cancelled batch is
  /// discarded *whole* (state stays exactly as before the call), so the
  /// accumulated state is a deterministic function of which batches
  /// completed — never of where a deadline landed inside one. Returns the
  /// samples actually folded in (n, or 0 when cancelled).
  size_t AddBatch(size_t n, Rng* rng,
                  const std::function<bool()>& cancelled = {});

  size_t samples() const { return samples_; }
  size_t hits() const { return hits_; }

  /// Running estimate hits/samples (0.0 before any batch).
  double Estimate() const {
    return samples_ == 0
               ? 0.0
               : static_cast<double>(hits_) / static_cast<double>(samples_);
  }

  /// Half-width of a ~4-sigma normal-approximation confidence interval
  /// around Estimate(), with a 1/samples floor so degenerate 0/n and n/n
  /// counts still report nonzero uncertainty. Infinite before any batch.
  double HalfWidth() const;

 private:
  const Dnf* f_;
  size_t samples_ = 0;
  size_t hits_ = 0;
  std::vector<bool> world_;  // scratch, reused across batches
};

/// Seed for one (plan, answer, round) refinement batch. Deriving every
/// batch's Rng from this — instead of drawing from one shared stream —
/// makes anytime MC refinement bit-reproducible across thread counts and
/// scheduling orders.
inline uint64_t RefinementSeed(uint64_t plan_fingerprint_hash,
                               uint64_t answer_key, uint64_t round) {
  uint64_t s = Mix64(plan_fingerprint_hash);
  s = Mix64(s ^ answer_key);
  return Mix64(s ^ (round + 0x9e3779b97f4a7c15ULL));
}

}  // namespace dissodb

#endif  // DISSODB_INFER_MC_H_
