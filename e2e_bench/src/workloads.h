// The four workloads and the timed phase they share.
#ifndef E2E_BENCH_WORKLOADS_H_
#define E2E_BENCH_WORKLOADS_H_

#include <functional>
#include <vector>

#include "harness.h"

namespace e2e {

int RunAdhocTpch(const Args& args);
int RunSharedServing(const Args& args);
int RunIngestServe(const Args& args);
int RunAnytimeTopk(const Args& args);

/// What the timed phase measured.
struct PhaseStats {
  std::vector<double> latency_ms;  ///< completed requests, in completion order
  std::vector<bool> traced;        ///< aligned with latency_ms
  double elapsed_s = 0;
  size_t attempted = 0;
  size_t failed = 0;  ///< errors, refusals and wrong answers
  size_t wrong = 0;   ///< wrong answers (also counted in failed)

  void Record(bool was_traced, double ms) {
    latency_ms.push_back(ms);
    traced.push_back(was_traced);
  }
};

enum class Outcome { kOk, kFailed, kWrong };

/// The spans of request `i`: in a traced run every other request is
/// traced, so traced and untraced requests share the same conditions and
/// the difference of their latencies is the tracing overhead.
class TracerPick {
 public:
  explicit TracerPick(Tracer* traced) : traced_(traced) {}
  bool traced(size_t i) const { return traced_ != nullptr && i % 2 == 1; }
  Tracer& operator()(size_t i) { return traced(i) ? *traced_ : off_; }
  /// Spans outside the request path (e.g. the writer's), recorded whenever
  /// the run is traced.
  Tracer& always() { return traced_ != nullptr ? *traced_ : off_; }

 private:
  Tracer* traced_;
  Tracer off_{false};
};

/// Closed loop with one client: issues `step(i, tracer)` for i = 0, 1, ...
/// until `seconds` have passed and i is a multiple of `cycle` (so every
/// run serves whole cycles of the workload's request mix). Each step is
/// timed from its call to its return.
PhaseStats ClosedLoop(double seconds, size_t cycle, TracerPick& pick,
                      const std::function<Outcome(size_t, Tracer&)>& step);

/// Runs the timed phase of args.seconds (`phase(seconds, pick)`) and
/// reports latency and throughput. latency_p99_ms is the median, over
/// consecutive windows of 1100 to 2199 requests, of each window's TailP99
/// (one window below 2200 requests): every window still yields a true p99,
/// and one stall does not decide the run's tail. A traced run
/// traces every other request and adds the engine/exec/serve layer metrics
/// of the phase's engine activity and the tracing overhead.
void RunTimedPhase(const Args& args, QueryEngine& engine, Tracer& tr,
                   const std::function<PhaseStats(double, TracerPick&)>& phase,
                   Report* rep);

/// Writes the trace file (traced runs) and finishes the report.
int Conclude(const Args& args, const Tracer& tr, Report* rep);

}  // namespace e2e

#endif  // E2E_BENCH_WORKLOADS_H_
