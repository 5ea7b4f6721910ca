#include "src/infer/exact.h"

#include <algorithm>
#include <numeric>
#include <string>
#include <unordered_map>
#include <vector>

namespace dissodb {

namespace {

thread_local WmcStats t_last_stats;

using Terms = std::vector<std::vector<int>>;

/// Memoization is keyed by an exact serialization of the (sorted) term list;
/// only small subformulas are memoized to bound memory.
constexpr size_t kMemoMaxTerms = 256;

/// Term lists packed into one buffer. A recursion level keeps the
/// subformulas it has yet to count (Shannon's negative branch, the later
/// independent components) in this form while it recurses, so unwinding a
/// cancelled count frees a few buffers per level instead of one vector per
/// term — on ~3,000-term lineages the per-term frees took 20-40 ms.
class PackedTerms {
 public:
  void Add(const std::vector<int>& term) {
    vars_.insert(vars_.end(), term.begin(), term.end());
    ends_.push_back(vars_.size());
  }
  size_t size() const { return ends_.size(); }
  /// Terms [first, last) as a term list.
  Terms Unpack(size_t first, size_t last) const {
    Terms terms(last - first);
    size_t begin = first == 0 ? 0 : ends_[first - 1];
    for (size_t i = first; i < last; ++i) {
      terms[i - first].assign(vars_.begin() + begin, vars_.begin() + ends_[i]);
      begin = ends_[i];
    }
    return terms;
  }

 private:
  std::vector<int> vars_;
  std::vector<size_t> ends_;
};

/// Groups terms into independent components (terms connected by shared
/// variables), keyed by an arbitrary representative.
std::unordered_map<int, Terms> Components(Terms terms) {
  std::unordered_map<int, int> var_group;
  std::vector<int> parent(terms.size());
  std::iota(parent.begin(), parent.end(), 0);
  auto find = [&](int x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  for (size_t i = 0; i < terms.size(); ++i) {
    for (int v : terms[i]) {
      auto [it, inserted] = var_group.try_emplace(v, static_cast<int>(i));
      if (!inserted) parent[find(static_cast<int>(i))] = find(it->second);
    }
  }
  std::unordered_map<int, Terms> groups;
  for (size_t i = 0; i < terms.size(); ++i) {
    groups[find(static_cast<int>(i))].push_back(std::move(terms[i]));
  }
  return groups;
}

/// The variable occurring in the most terms (ties: the smallest id).
int MostFrequentVar(const Terms& terms) {
  std::unordered_map<int, int> freq;
  for (const auto& t : terms) {
    for (int v : t) ++freq[v];
  }
  int var = -1, best = 0;
  for (auto [v, c] : freq) {
    if (c > best || (c == best && v < var)) {
      best = c;
      var = v;
    }
  }
  return var;
}

class Wmc {
 public:
  Wmc(const std::vector<double>& probs, const WmcOptions& opts)
      : probs_(probs), opts_(opts) {}

  Result<double> Run(Terms terms) { return Probability(std::move(terms)); }

  const WmcStats& stats() const { return stats_; }

 private:
  Result<double> Probability(Terms terms) {
    if (stats_.calls >= opts_.max_calls) {
      return Status::OutOfRange("WMC exceeded max_calls budget");
    }
    if (opts_.cancelled && opts_.cancelled()) {
      return Status::Cancelled("WMC cancelled");
    }
    ++stats_.calls;
    if (terms.empty()) return 0.0;
    for (const auto& t : terms) {
      if (t.empty()) return 1.0;  // an empty term is TRUE
    }
    if (terms.size() == 1) {
      double p = 1.0;
      for (int v : terms[0]) p *= probs_[v];
      return p;
    }

    // Absorption: sort by length; a term containing another term is
    // redundant. Cheap O(T^2 * len) — worth it for small/medium formulas.
    if (terms.size() <= 512) {
      std::sort(terms.begin(), terms.end(),
                [](const auto& a, const auto& b) { return a.size() < b.size(); });
      std::vector<bool> dead(terms.size(), false);
      for (size_t i = 0; i < terms.size(); ++i) {
        if (dead[i]) continue;
        for (size_t j = i + 1; j < terms.size(); ++j) {
          if (dead[j]) continue;
          if (std::includes(terms[j].begin(), terms[j].end(),
                            terms[i].begin(), terms[i].end())) {
            dead[j] = true;
          }
        }
      }
      Terms kept;
      for (size_t i = 0; i < terms.size(); ++i) {
        if (!dead[i]) kept.push_back(std::move(terms[i]));
      }
      terms = std::move(kept);
      if (terms.size() == 1) {
        double p = 1.0;
        for (int v : terms[0]) p *= probs_[v];
        return p;
      }
    }

    // Independent components: variables connect terms.
    {
      std::unordered_map<int, Terms> groups = Components(std::move(terms));
      if (groups.size() > 1) {
        ++stats_.components_split;
        PackedTerms pending;
        std::vector<size_t> component_ends;
        for (const auto& [root, comp] : groups) {
          for (const auto& t : comp) pending.Add(t);
          component_ends.push_back(pending.size());
        }
        groups.clear();
        double none_true = 1.0;
        size_t first = 0;
        for (size_t end : component_ends) {
          auto p = Probability(pending.Unpack(first, end));
          if (!p.ok()) return p.status();
          none_true *= 1.0 - *p;
          first = end;
        }
        return 1.0 - none_true;
      }
      terms = std::move(groups.begin()->second);
    }

    // Memo lookup.
    std::string key;
    const bool memoize = terms.size() <= kMemoMaxTerms;
    if (memoize) {
      std::sort(terms.begin(), terms.end());
      key.reserve(terms.size() * 8);
      for (const auto& t : terms) {
        for (int v : t) {
          key.append(reinterpret_cast<const char*>(&v), sizeof(v));
        }
        key.push_back('\x01');
      }
      auto it = memo_.find(key);
      if (it != memo_.end()) {
        ++stats_.memo_hits;
        return it->second;
      }
    }

    // Shannon expansion on the most frequent variable: `terms` becomes the
    // positive branch in place (var deleted), the negative branch keeps
    // the terms without var.
    const int var = MostFrequentVar(terms);
    PackedTerms neg;
    for (auto& t : terms) {
      auto it = std::lower_bound(t.begin(), t.end(), var);
      if (it != t.end() && *it == var) {
        t.erase(it);
      } else {
        neg.Add(t);
      }
    }
    auto p1 = Probability(std::move(terms));
    if (!p1.ok()) return p1.status();
    auto p0 = Probability(neg.Unpack(0, neg.size()));
    if (!p0.ok()) return p0.status();
    double p = probs_[var] * *p1 + (1.0 - probs_[var]) * *p0;
    if (memoize) memo_.emplace(std::move(key), p);
    return p;
  }

  const std::vector<double>& probs_;
  const WmcOptions& opts_;
  std::unordered_map<std::string, double> memo_;
  WmcStats stats_;
};

}  // namespace

Result<double> ExactDnfProbability(const Dnf& f, const WmcOptions& opts) {
  // Pre-simplify: drop p=0 variables' terms; strip p=1 variables.
  Terms terms;
  terms.reserve(f.terms.size());
  for (const auto& t : f.terms) {
    std::vector<int> keep;
    bool dead = false;
    for (int v : t) {
      if (f.probs[v] <= 0.0) {
        dead = true;
        break;
      }
      if (f.probs[v] < 1.0) keep.push_back(v);
    }
    if (dead) continue;
    std::sort(keep.begin(), keep.end());
    keep.erase(std::unique(keep.begin(), keep.end()), keep.end());
    terms.push_back(std::move(keep));
  }
  Wmc wmc(f.probs, opts);
  Result<double> p = wmc.Run(std::move(terms));
  t_last_stats = wmc.stats();
  return p;
}

const WmcStats& LastWmcStats() { return t_last_stats; }

}  // namespace dissodb
