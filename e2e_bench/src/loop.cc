#include <algorithm>
#include <cstdio>
#include <thread>

#include "workloads.h"

namespace e2e {

PhaseStats ClosedLoop(double seconds, size_t cycle, TracerPick& pick,
                      const std::function<Outcome(size_t, Tracer&)>& step) {
  PhaseStats s;
  const uint64_t start = NowNs();
  const uint64_t end = start + static_cast<uint64_t>(seconds * 1e9);
  for (size_t i = 0;; ++i) {
    if (i % cycle == 0 && NowNs() >= end) break;
    const uint64_t t0 = NowNs();
    const Outcome o = step(i, pick(i));
    const uint64_t t1 = NowNs();
    ++s.attempted;
    if (o == Outcome::kOk) {
      s.Record(pick.traced(i), static_cast<double>(t1 - t0) / 1e6);
    } else {
      ++s.failed;
      if (o == Outcome::kWrong) ++s.wrong;
    }
  }
  s.elapsed_s = static_cast<double>(NowNs() - start) / 1e9;
  return s;
}

void RunTimedPhase(const Args& args, QueryEngine& engine, Tracer& tr,
                   const std::function<PhaseStats(double, TracerPick&)>& phase,
                   Report* rep) {
  TracerPick pick(args.trace ? &tr : nullptr);
  const EngineCapture before = Capture(engine);
  const double cpu0 = CpuSeconds();
  const PhaseStats s = phase(args.seconds, pick);
  const double cpu = CpuSeconds() - cpu0;
  const EngineCapture after = Capture(engine);
  rep->attempted += s.attempted;
  rep->failed += s.failed;
  rep->wrong += s.wrong;
  const std::vector<double>& all = s.latency_ms;
  const size_t windows = std::max<size_t>(all.size() / 1100, 1);
  std::vector<double> tails;
  for (size_t w = 0; w < windows; ++w) {
    tails.push_back(TailP99(std::vector<double>(
        all.begin() + w * all.size() / windows,
        all.begin() + (w + 1) * all.size() / windows)));
  }
  rep->Set("latency_p50_ms", Median(all), "ms");
  rep->Set("latency_p99_ms", Median(tails), "ms");
  rep->Set("latency_samples", static_cast<double>(all.size()), "count");
  rep->Set("throughput_qps", static_cast<double>(all.size()) / s.elapsed_s,
           "req/s");
  rep->Set("cpu_busy_frac",
           cpu / (s.elapsed_s * std::thread::hardware_concurrency()),
           "fraction");
  if (!args.trace) return;
  ReportEngineLayers(before, after, s.attempted, rep);
  std::vector<double> by_mode[2];
  for (size_t i = 0; i < all.size(); ++i) {
    by_mode[s.traced[i]].push_back(all[i]);
  }
  const double plain = Median(by_mode[0]);
  const double traced = Median(by_mode[1]);
  rep->Set("untraced.latency_p50_ms", plain, "ms");
  rep->Set("traced.latency_p50_ms", traced, "ms");
  rep->Set("trace.overhead_frac", plain > 0 ? (traced - plain) / plain : 0.0,
           "fraction");
}

int Conclude(const Args& args, const Tracer& tr, Report* rep) {
  rep->Set("peak_rss_mb", PeakRssMb(), "MB");
  if (tr.enabled()) {
    ReportSpanLayers(tr, rep);
    if (!args.trace_out.empty()) {
      if (tr.WriteChromeJson(args.trace_out)) {
        rep->Note("spans written to " + args.trace_out);
      } else {
        std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
      }
    }
  }
  return rep->Finish(args);
}

}  // namespace e2e
