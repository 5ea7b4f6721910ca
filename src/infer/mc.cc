#include "src/infer/mc.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

namespace dissodb {

namespace {

/// Work (variables drawn + literals evaluated) between two polls of
/// AddBatch's `cancelled`. One sample costs ~100 ns on a small lineage and
/// ~0.3 ms on a 6k-variable one, so a fixed sample stride either polls
/// needlessly or lands far past a deadline; a work stride polls at most
/// ~0.3 ms apart on any formula.
constexpr size_t kPollWork = size_t{1} << 14;

}  // namespace

double NaiveDnfEstimate(const Dnf& f, size_t samples, Rng* rng) {
  if (f.terms.empty() || samples == 0) return 0.0;
  McEstimator est(&f);
  est.AddBatch(samples, rng);
  return est.Estimate();
}

size_t McEstimator::AddBatch(size_t n, Rng* rng,
                             const std::function<bool()>& cancelled) {
  if (n == 0) return 0;
  // Sample into locals; fold in only when the whole batch completed, so a
  // mid-batch cancellation leaves (hits_, samples_) untouched and the
  // accumulated state stays a pure function of the completed batches.
  const int nv = f_->num_vars();
  size_t work_per_sample = static_cast<size_t>(nv) + 1;
  for (const auto& t : f_->terms) work_per_sample += t.size();
  const size_t poll_stride = std::max<size_t>(1, kPollWork / work_per_sample);
  size_t until_poll = poll_stride;
  size_t batch_hits = 0;
  for (size_t s = 0; s < n; ++s) {
    if (cancelled && --until_poll == 0) {
      if (cancelled()) return 0;
      until_poll = poll_stride;
    }
    for (int v = 0; v < nv; ++v) world_[v] = rng->NextBernoulli(f_->probs[v]);
    if (f_->Evaluate(world_)) ++batch_hits;
  }
  hits_ += batch_hits;
  samples_ += n;
  return n;
}

double McEstimator::HalfWidth() const {
  if (samples_ == 0) return std::numeric_limits<double>::infinity();
  const double n = static_cast<double>(samples_);
  const double p = Estimate();
  // 4-sigma normal approximation, floored at 4/n: near p in {0, 1} the
  // binomial variance estimate collapses to zero while the estimator can
  // still be off by O(1/n) (rule-of-three regime).
  const double sigma = std::sqrt(std::max(p * (1.0 - p) / n, 0.0));
  return std::max(4.0 * sigma, 4.0 / n);
}

Result<double> KarpLubyEstimate(const Dnf& f, size_t samples, Rng* rng) {
  if (f.terms.empty()) {
    return Status::InvalidArgument(
        "Karp-Luby estimate of a formula with no terms (no lineage; "
        "distinct from a true probability of 0)");
  }
  if (samples == 0) {
    return Status::InvalidArgument("Karp-Luby estimate with zero samples");
  }
  const int n = f.num_vars();
  const size_t t = f.num_terms();

  // Term weights P(T_i) and their cumulative distribution.
  std::vector<double> weight(t);
  double total = 0.0;
  for (size_t i = 0; i < t; ++i) {
    double w = 1.0;
    for (int v : f.terms[i]) w *= f.probs[v];
    weight[i] = w;
    total += w;
  }
  // Every term contains a zero-probability variable: P(F) is truly 0.
  if (total <= 0.0) return 0.0;
  std::vector<double> cdf(t);
  double acc = 0.0;
  for (size_t i = 0; i < t; ++i) {
    acc += weight[i] / total;
    cdf[i] = acc;
  }

  std::vector<bool> world(n);
  std::vector<bool> forced(n);
  size_t hits = 0;
  for (size_t s = 0; s < samples; ++s) {
    // Choose a term proportionally to its probability.
    double u = rng->NextDouble();
    size_t i = static_cast<size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    if (i >= t) i = t - 1;
    // Sample a world conditioned on T_i true.
    std::fill(forced.begin(), forced.end(), false);
    for (int v : f.terms[i]) forced[v] = true;
    for (int v = 0; v < n; ++v) {
      world[v] = forced[v] ? true : rng->NextBernoulli(f.probs[v]);
    }
    // Count when T_i is the first satisfied term.
    bool first = true;
    for (size_t j = 0; j < i && first; ++j) {
      bool sat = true;
      for (int v : f.terms[j]) {
        if (!world[v]) {
          sat = false;
          break;
        }
      }
      if (sat) first = false;
    }
    if (first) ++hits;
  }
  return total * static_cast<double>(hits) / static_cast<double>(samples);
}

}  // namespace dissodb
