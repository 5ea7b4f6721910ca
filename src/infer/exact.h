// Exact probability of monotone DNF formulas by weighted model counting:
// Shannon expansion + independent-component decomposition + memoization +
// absorption. This is the project's substitute for the paper's external
// exact solver (SampleSearch): both compute exact lineage probabilities and
// both degrade with formula treewidth, reproducing the "exact inference does
// not scale" behaviour of Figures 5e-5h.
#ifndef DISSODB_INFER_EXACT_H_
#define DISSODB_INFER_EXACT_H_

#include <functional>

#include "src/common/status.h"
#include "src/lineage/formula.h"

namespace dissodb {

struct WmcOptions {
  /// Abort (OutOfRange) instead of making recursive call max_calls + 1 —
  /// mirrors the paper's practice of computing ground truth only where
  /// feasible. The budget belongs to the call: concurrent calls on other
  /// threads never draw from it.
  size_t max_calls = 20'000'000;
  /// When non-empty, polled on every recursive call (one call near the
  /// top of a wide formula can cost ~0.5 ms, so a coarser stride lands
  /// far past a deadline); once it returns true the count stops with
  /// Cancelled and no number.
  std::function<bool()> cancelled;
};

/// Exact P(F) for a monotone DNF with independent variables.
Result<double> ExactDnfProbability(const Dnf& f, const WmcOptions& opts = {});

/// Statistics of the calling thread's last ExactDnfProbability call,
/// whatever its outcome (a thread_local copy: calls on other threads
/// never touch it).
struct WmcStats {
  size_t calls = 0;
  size_t memo_hits = 0;
  size_t components_split = 0;
};
const WmcStats& LastWmcStats();

}  // namespace dissodb

#endif  // DISSODB_INFER_EXACT_H_
