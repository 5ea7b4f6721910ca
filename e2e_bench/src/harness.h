// Shared machinery of the end-to-end benchmark: command-line arguments,
// clocks and percentiles, the in-memory span recorder used by traced runs,
// the metric report, and the correctness oracle every workload checks its
// answers against.
#ifndef E2E_BENCH_HARNESS_H_
#define E2E_BENCH_HARNESS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/dissodb.h"

namespace e2e {

using dissodb::Bindings;
using dissodb::Database;
using dissodb::QueryEngine;
using dissodb::RankedAnswer;
using dissodb::Rng;
using dissodb::Table;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Where a traced run writes its spans (Chrome trace JSON); empty = none.
  std::string trace_out;
};

/// Monotonic nanoseconds.
inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Median of `v` (0 when empty).
double Median(std::vector<double> v);

/// The tail percentile the benchmark reports as p99: the highest rank that
/// still has at least ten samples beyond it (the true p99 once there are
/// >= 1000 samples); the maximum when there are fewer than 11 samples.
double TailP99(std::vector<double> v);

/// Percentile of the [0,1] rank `q` (nearest rank).
double Percentile(std::vector<double> v, double q);

/// Peak resident set size of this process, MB.
double PeakRssMb();

/// CPU time (user + system) this process has used, seconds.
double CpuSeconds();

/// Engine worker threads: the machine's cores, at most 4.
int EngineThreads();

// ---------------------------------------------------------------------------
// Span recorder
// ---------------------------------------------------------------------------

/// Spans recorded around calls into the engine's modules, kept in memory
/// and written out at exit. Disabled (untraced runs), every method is one
/// branch. Thread-safe.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  struct SpanRecord {
    std::string name;
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    uint32_t id = 0;
    uint32_t parent = 0;
    uint64_t request = 0;
  };

  /// RAII span; id() is the parent handle for nested spans.
  class Span {
   public:
    Span(Tracer* t, const char* name, uint32_t parent, uint64_t request);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    uint32_t id() const { return id_; }

   private:
    Tracer* t_;
    const char* name_;
    uint32_t id_ = 0;
    uint32_t parent_;
    uint64_t request_;
    uint64_t start_ = 0;
  };

  /// Runs `fn` under a span named `name` and returns its result.
  template <class F>
  auto Call(const char* name, uint64_t request, F&& fn, uint32_t parent = 0) {
    Span s(this, name, parent, request);
    return fn();
  }

  /// Fresh request identifier shared by the spans of one request.
  uint64_t NewRequest() { return next_request_.fetch_add(1) + 1; }

  /// Durations (microseconds) of every span called `name`.
  std::vector<double> DurationsUs(const std::string& name) const;

  /// Writes every span as Chrome trace JSON (Perfetto-loadable).
  bool WriteChromeJson(const std::string& path) const;

 private:
  friend class Span;
  const bool enabled_;
  std::atomic<uint32_t> next_id_{0};
  std::atomic<uint64_t> next_request_{0};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  // guarded by mu_
};

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

/// Every metric a run measured. The final JSON line carries exactly the
/// end-to-end set (untraced run) or the per-layer set (traced run); the
/// lines before it print everything, workload-specific metrics included.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  void Note(const std::string& line) { notes_.push_back(line); }

  size_t attempted = 0;
  size_t failed = 0;
  /// Correctness violations (wrong answers); any makes the run fail.
  size_t wrong = 0;

  /// Prints every metric, then the result line. Returns the exit code.
  int Finish(const Args& args) const;

 private:
  std::vector<std::string> order_;
  std::map<std::string, std::pair<double, std::string>> values_;
  std::vector<std::string> notes_;
};

// ---------------------------------------------------------------------------
// Requests and the correctness oracle
// ---------------------------------------------------------------------------

using Selection = std::pair<int, std::pair<const Table*, std::string>>;

/// Binds body atom `atom` to `table`; a non-empty `tag` makes the
/// selection fingerprintable (shareable through the engine's caches).
inline Selection Select(int atom, const Table* table, std::string tag = {}) {
  return {atom, {table, std::move(tag)}};
}

/// One (query text, bindings) request key with what it is checked against.
struct Request {
  std::string label;
  std::string text;
  std::vector<dissodb::Value> params;
  /// Atom selections in the text's body order, with their content tags.
  std::vector<Selection> selections;

  dissodb::PreparedQuery prepared;
  Bindings bindings;
  /// Sequential Execute answers, computed at setup.
  std::vector<RankedAnswer> reference;
  /// Whether the workload computes ground truth for this request: chosen
  /// per request class, so the checked set does not vary with the seed.
  bool ground_truth = false;
  /// Exact probabilities by lineage + WMC, when feasible within budget.
  std::optional<std::vector<RankedAnswer>> exact;

  Bindings MakeBindings() const;
};

/// Bit-identical comparison (tuples and scores, positionally).
bool SameRanking(const std::vector<RankedAnswer>& a,
                 const std::vector<RankedAnswer>& b);

/// Prepares `r` on `engine` (Prepare is traced as engine.prepare).
bool PrepareRequest(QueryEngine& engine, Request& r, Tracer& tr);

/// Computes ground truth for every flagged request, checks each reference
/// ranking upper-bounds it (violations count as wrong answers), and reports
/// ap10: mean AP@10 of the reference rankings against exact probabilities.
/// Also reports the oracle's own time and lineage/WMC counts.
void RunOracle(const Database& db, std::vector<Request>& requests, Tracer& tr,
               size_t max_calls, size_t max_lineage, Report* rep);

/// Checks an anytime result against r.exact (when computed): every
/// interval brackets the exact probability and the certified prefix is in
/// exact order.
bool AnytimeCorrect(const Request& r, const dissodb::AnytimeResult& a);

/// Splits each request into the engine's modules by calling their public
/// functions in the order Execute runs them: parse and canonicalize
/// (query), lifted compile (lift), minimal-plan enumeration (dissociation),
/// snapshot (storage), semi-join reduction (if `semijoin`), plan evaluation
/// and ranking (exec), and the oblivious lower bounds (anytime), with a
/// span around each call; then runs the anytime bounds stages alone (a
/// RunWithGuarantees without targets, checked by AnytimeCorrect). Reports
/// the median plan count and evaluator input rows; a failed replay counts
/// as a failed request, a wrong bounds-only answer as a wrong one.
void ReportReplay(QueryEngine& engine,
                  const std::vector<const Request*>& requests, Tracer& tr,
                  bool semijoin, Report* rep);

/// Engine counters and scheduler histograms captured at one instant; the
/// difference of two captures is the activity between them.
struct EngineCapture {
  dissodb::EngineStats stats;
  std::vector<uint64_t> queue_wait_buckets;
  std::vector<uint64_t> run_buckets;
};
EngineCapture Capture(const QueryEngine& engine);

/// Adds the engine-, exec- and serve-layer metrics of the activity between
/// `before` and `after` over `requests` requests.
void ReportEngineLayers(const EngineCapture& before,
                        const EngineCapture& after, size_t requests,
                        Report* rep);

/// Adds the span-derived per-layer metrics recorded in `tr`.
void ReportSpanLayers(const Tracer& tr, Report* rep);

/// Runs `setup` five times and reports the median wall time as setup_s;
/// the instance built by the last call is the one kept.
void TimeSetup(const std::function<void()>& setup, Report* rep);

}  // namespace e2e

#endif  // E2E_BENCH_HARNESS_H_
