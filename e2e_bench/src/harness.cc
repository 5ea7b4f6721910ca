#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <thread>

namespace e2e {

using namespace dissodb;  // NOLINT: the benchmark drives the whole engine

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// The untraced run's result line carries exactly these (BENCHMARK.json
// "end_to_end"), the traced run's exactly kPerLayer ("per_layer").
// kPerLayer leaves out the figures only shared_serving and ingest_serve
// produce (result cache, delta maintenance, commits): BENCHMARK.json does
// not run those two, and their runs print the figures as metric lines.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},           {"latency_p50_ms", "ms"},
    {"latency_p99_ms", "ms"},   {"throughput_qps", "req/s"},
    {"peak_rss_mb", "MB"},      {"ap10", "score"},
};

constexpr MetricDef kPerLayer[] = {
    {"query.parse_us", "us"},
    {"query.canonicalize_us", "us"},
    {"lift.compile_us", "us"},
    {"dissociation.enumerate_us", "us"},
    {"dissociation.num_plans", "count"},
    {"engine.prepare_us", "us"},
    {"engine.plan_cache_hit_rate", "fraction"},
    {"exec.evaluate_ms", "ms"},
    {"exec.semijoin_ms", "ms"},
    {"exec.rank_us", "us"},
    {"exec.rows_scanned", "count"},
    {"exec.chunks_pruned_frac", "fraction"},
    {"storage.snapshot_us", "us"},
    {"serve.queue_wait_ms.p50", "ms"},
    {"serve.queue_wait_ms.p99", "ms"},
    {"serve.task_run_ms.p50", "ms"},
    {"serve.task_run_ms.p99", "ms"},
    {"serve.tasks_executed", "count"},
    {"anytime.bounds_ms", "ms"},
    {"anytime.lower_bound_ms", "ms"},
    {"anytime.contested_initial", "count"},
    {"anytime.refined_frac", "fraction"},
    {"anytime.refine_rounds", "count"},
    {"lineage.compute_ms", "ms"},
    {"lineage.max_size", "count"},
    {"infer.wmc_ms", "ms"},
    {"infer.wmc_calls", "count"},
    {"infer.mc_samples", "count"},
    {"trace.overhead_frac", "fraction"},
};

// Scheduler task classes the engine submits under (src/serve/scheduler.h).
constexpr const char* kTaskClasses[] = {"query", "helper", "anytime-refine"};

std::vector<uint64_t> MergedBuckets(obs::MetricsRegistry& m,
                                    const char* prefix) {
  std::vector<uint64_t> out(obs::Histogram::kBuckets, 0);
  for (const char* cls : kTaskClasses) {
    auto snap = m.histogram(std::string(prefix) + cls)->Snapshot();
    for (size_t b = 0; b < snap.buckets.size() && b < out.size(); ++b) {
      out[b] += snap.buckets[b];
    }
  }
  return out;
}

/// Quantile (ms) of the samples recorded between two bucket captures.
double DiffQuantileMs(const std::vector<uint64_t>& before,
                      const std::vector<uint64_t>& after, double q) {
  obs::HistogramSnapshot s;
  s.buckets.resize(after.size());
  for (size_t b = 0; b < after.size(); ++b) {
    s.buckets[b] = after[b] - before[b];
    s.count += s.buckets[b];
    if (s.buckets[b] > 0) s.max = obs::Histogram::BucketUpperBound(b) - 1;
  }
  return s.Quantile(q) / 1e6;
}

}  // namespace

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t idx = std::min(
      v.size() - 1,
      static_cast<size_t>(std::llround(q * static_cast<double>(v.size() - 1))));
  return v[idx];
}

double TailP99(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  if (v.size() < 11) return v.back();
  const size_t p99 = static_cast<size_t>(
      std::ceil(0.99 * static_cast<double>(v.size()))) - 1;
  return v[std::min(p99, v.size() - 11)];
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

int EngineThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw, 1u, 4u));
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

Tracer::Span::Span(Tracer* t, const char* name, uint32_t parent,
                   uint64_t request)
    : t_(t), name_(name), parent_(parent), request_(request) {
  if (!t_->enabled_) return;
  id_ = t_->next_id_.fetch_add(1) + 1;
  start_ = NowNs();
}

Tracer::Span::~Span() {
  if (!t_->enabled_) return;
  const uint64_t end = NowNs();
  std::lock_guard lock(t_->mu_);
  t_->spans_.push_back(
      SpanRecord{name_, start_, end, id_, parent_, request_});
}

std::vector<double> Tracer::DurationsUs(const std::string& name) const {
  std::lock_guard lock(mu_);
  std::vector<double> out;
  for (const auto& s : spans_) {
    if (s.name == name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    }
  }
  return out;
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard lock(mu_);
  uint64_t t0 = UINT64_MAX;
  for (const auto& s : spans_) t0 = std::min(t0, s.start_ns);
  std::fprintf(f, "{\"traceEvents\":[");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%llu,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,"
                 "\"parent\":%u}}",
                 i ? "," : "", s.name.c_str(),
                 s.name.substr(0, s.name.find('.')).c_str(),
                 static_cast<unsigned long long>(s.request),
                 static_cast<double>(s.start_ns - t0) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.id,
                 s.parent);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  if (!values_.count(name)) order_.push_back(name);
  values_[name] = {value, unit};
}

int Report::Finish(const Args& args) const {
  std::printf("--- %s seed=%llu seconds=%g trace=%d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  for (const auto& n : notes_) std::printf("note: %s\n", n.c_str());
  for (const auto& name : order_) {
    const auto& [v, unit] = values_.at(name);
    std::printf("metric %-30s %.6g %s\n", name.c_str(), v, unit.c_str());
  }
  std::printf("attempted=%zu failed=%zu wrong=%zu error_rate=%.6g\n",
              attempted, failed, wrong,
              attempted ? static_cast<double>(failed) /
                              static_cast<double>(attempted)
                        : 0.0);

  bool complete = true;
  std::string metrics;
  auto emit = [&](const MetricDef& d, bool required) {
    auto it = values_.find(d.name);
    double v = 0.0;
    if (it != values_.end()) {
      v = it->second.first;
    } else if (required) {
      std::fprintf(stderr, "metric %s was not measured\n", d.name);
      complete = false;
    }
    if (!std::isfinite(v)) {
      std::fprintf(stderr, "metric %s is not finite\n", d.name);
      complete = false;
      v = 0.0;
    }
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", d.name, v, d.unit);
    metrics += buf;
  };
  if (args.trace) {
    // A layer the workload bypasses did no work: it reports 0.
    for (const auto& d : kPerLayer) emit(d, /*required=*/false);
  } else {
    for (const auto& d : kEndToEnd) emit(d, /*required=*/true);
  }
  const bool correct = wrong == 0 && complete && attempted > 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false", attempted, failed, metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Requests and oracle
// ---------------------------------------------------------------------------

Bindings Request::MakeBindings() const {
  Bindings b;
  for (size_t i = 0; i < params.size(); ++i) {
    b.Set(static_cast<int>(i), params[i]);
  }
  for (const auto& [atom, sel] : selections) {
    b.SetAtomTable(atom, sel.first, sel.second);
  }
  return b;
}

bool SameRanking(const std::vector<RankedAnswer>& a,
                 const std::vector<RankedAnswer>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].tuple != b[i].tuple) return false;
    // Bit-identical scores: compare representations, not values.
    if (std::memcmp(&a[i].score, &b[i].score, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

bool PrepareRequest(QueryEngine& engine, Request& r, Tracer& tr) {
  auto p = tr.Call("engine.prepare", 0, [&] { return engine.Prepare(r.text); });
  if (!p.ok()) {
    std::fprintf(stderr, "prepare %s: %s\n", r.label.c_str(),
                 p.status().ToString().c_str());
    return false;
  }
  r.prepared = *p;
  r.bindings = r.MakeBindings();
  return true;
}

namespace {

Result<ConjunctiveQuery> ExecutedQuery(const Database& db, const Request& r) {
  auto q = ParseQueryReadOnly(r.text, db.strings());
  if (!q.ok()) return q.status();
  if (r.params.empty()) return q;
  return SubstituteParams(*q, r.params);
}

struct GroundTruthStats {
  size_t feasible = 0;
  size_t infeasible = 0;
  size_t max_lineage = 0;
  size_t wmc_calls = 0;
};

/// Computes r.exact by grounding the query (lineage.compute) and per-answer
/// exact WMC (infer.wmc) within `max_calls` per answer; leaves it empty when
/// that budget is exceeded or some answer's lineage has more than
/// `max_lineage` terms (ground truth is computed only where feasible).
void ComputeGroundTruth(const Database& db, Request& r, Tracer& tr,
                        size_t max_calls, size_t max_lineage,
                        GroundTruthStats* stats) {
  r.exact.reset();
  auto q = ExecutedQuery(db, r);
  if (!q.ok()) {
    ++stats->infeasible;
    return;
  }
  std::unordered_map<int, const Table*> overrides;
  for (const auto& [atom, sel] : r.selections) overrides[atom] = sel.first;
  auto lineage = tr.Call("lineage.compute", 0, [&] {
    return ComputeLineage(db, *q, overrides);
  });
  if (!lineage.ok()) {
    ++stats->infeasible;
    return;
  }
  const size_t lineage_size = MaxLineageSize(*lineage);
  stats->max_lineage = std::max(stats->max_lineage, lineage_size);
  if (lineage_size > max_lineage) {
    ++stats->infeasible;
    return;
  }
  WmcOptions wo;
  wo.max_calls = max_calls;
  std::vector<RankedAnswer> exact;
  bool feasible = true;
  tr.Call("infer.wmc", 0, [&] {
    for (const auto& al : lineage->answers) {
      auto p = ExactDnfProbability(lineage->ToDnf(al), wo);
      stats->wmc_calls += LastWmcStats().calls;
      if (!p.ok()) {
        feasible = false;
        return;
      }
      exact.push_back(RankedAnswer{al.answer, *p});
    }
  });
  if (!feasible) {
    ++stats->infeasible;
    return;
  }
  ++stats->feasible;
  r.exact = std::move(exact);
}

/// Reference answers whose score is below the exact probability.
size_t CountUpperBoundViolations(const Request& r) {
  if (!r.exact) return 0;
  std::map<std::vector<Value>, double> scores;
  for (const auto& a : r.reference) scores[a.tuple] = a.score;
  size_t bad = 0;
  for (const auto& e : *r.exact) {
    auto it = scores.find(e.tuple);
    const double s = it == scores.end() ? 0.0 : it->second;
    if (s < e.score - 1e-9) ++bad;
  }
  return bad;
}

}  // namespace

void RunOracle(const Database& db, std::vector<Request>& requests, Tracer& tr,
               size_t max_calls, size_t max_lineage, Report* rep) {
  const uint64_t t0 = NowNs();
  GroundTruthStats gt;
  double ap_sum = 0;
  for (Request& r : requests) {
    if (!r.ground_truth) continue;
    ComputeGroundTruth(db, r, tr, max_calls, max_lineage, &gt);
    if (!r.exact) continue;
    rep->wrong += CountUpperBoundViolations(r);
    ap_sum += AveragePrecisionAtK(AlignScores(*r.exact, *r.exact),
                                  AlignScores(*r.exact, r.reference));
  }
  rep->Set("oracle_s", static_cast<double>(NowNs() - t0) / 1e9, "s");
  rep->Set("ap10", gt.feasible ? ap_sum / static_cast<double>(gt.feasible) : 0,
           "score");
  rep->Set("ground_truth_requests", static_cast<double>(gt.feasible), "count");
  rep->Set("ground_truth_infeasible", static_cast<double>(gt.infeasible),
           "count");
  rep->Set("lineage.max_size", static_cast<double>(gt.max_lineage), "count");
  rep->Set("infer.wmc_calls", static_cast<double>(gt.wmc_calls), "count");
}

namespace {

struct ReplayResult {
  bool ok = false;
  size_t num_plans = 0;
  /// Rows of the tables the plan evaluation reads (after the semi-join
  /// reduction, before zone-map pruning).
  size_t input_rows = 0;
};

ReplayResult ReplayLayers(const Database& db, const Request& r, Tracer& tr,
                          bool semijoin) {
  ReplayResult out;
  const uint64_t req = tr.NewRequest();
  Tracer::Span root(&tr, "replay", 0, req);
  const uint32_t p = root.id();
  auto q = tr.Call("query.parse", req,
                   [&] { return ParseQueryReadOnly(r.text, db.strings()); }, p);
  if (!q.ok()) return out;
  auto canon = tr.Call("query.canonicalize", req,
                       [&] { return CanonicalizeQuery(*q); }, p);
  if (!canon.ok()) return out;
  ConjunctiveQuery exec_q = canon->query;
  if (!r.params.empty()) {
    auto sub = SubstituteParams(canon->query, r.params);
    if (!sub.ok()) return out;
    exec_q = std::move(*sub);
  }
  Snapshot snap =
      tr.Call("storage.snapshot", req, [&] { return db.snapshot(); }, p);
  auto sk = tr.Call("query.analyze", req, [&] {
    return SchemaKnowledge::FromSnapshot(canon->query, snap);
  }, p);
  if (!sk.ok()) return out;
  auto lifted = tr.Call("lift.compile", req, [&] {
    return lift::CompileSafePlan(canon->query, *sk);
  }, p);
  if (!lifted.ok()) return out;
  auto plans = tr.Call("dissociation.enumerate", req, [&] {
    return EnumerateMinimalPlans(canon->query, *sk);
  }, p);
  if (!plans.ok()) return out;

  std::unordered_map<int, const Table*> raw;
  AtomOverrides canon_overrides;
  for (const auto& [atom, sel] : r.selections) {
    const int c = canon->atom_orig_to_canon[atom];
    raw[c] = sel.first;
    canon_overrides[c] = AtomOverride{sel.first, {}};
  }
  std::vector<Table> reduced;
  if (semijoin) {
    auto red = tr.Call("exec.semijoin", req,
                       [&] { return SemiJoinReduce(snap, exec_q, raw); }, p);
    if (!red.ok()) return out;
    reduced = std::move(*red);
  }
  PlanEvaluator ev(snap, exec_q);
  for (int i = 0; i < exec_q.num_atoms(); ++i) {
    const Table* t = nullptr;
    if (semijoin) {
      t = &reduced[i];
    } else if (raw.count(i)) {
      t = raw.at(i);
    } else {
      auto base = snap.GetTable(exec_q.atom(i).relation);
      if (!base.ok()) return out;
      t = *base;
    }
    if (semijoin || raw.count(i)) ev.SetAtomTable(i, t);
    out.input_rows += t->NumRows();
  }
  auto rel = tr.Call("exec.evaluate", req,
                     [&] { return ev.Evaluate(lifted->plan); }, p);
  if (!rel.ok()) return out;
  auto ranked = tr.Call("exec.rank", req, [&] { return RankAnswers(**rel); }, p);
  (void)ranked;

  CompiledPlans compiled;
  compiled.single_plan = lifted->plan;
  compiled.num_minimal_plans = plans->size();
  compiled.exact = lifted->exact;
  compiled.safe_routed = true;
  if (!lifted->exact) {
    auto lower = tr.Call("anytime.lower_bound", req, [&] {
      auto exps = ObliviousExponents(snap, exec_q, compiled, canon_overrides);
      return ObliviousLowerBounds(snap, exec_q, compiled, canon_overrides,
                                  exps);
    }, p);
    if (!lower.ok()) return out;
  }
  out.ok = true;
  out.num_plans = plans->size();
  return out;
}

}  // namespace

bool AnytimeCorrect(const Request& r, const AnytimeResult& a) {
  if (!r.exact) return true;
  std::map<std::vector<Value>, double> exact;
  for (const auto& e : *r.exact) exact[e.tuple] = e.score;
  auto p = [&](const BoundedAnswer& b) {
    auto it = exact.find(b.tuple);
    return it == exact.end() ? 0.0 : it->second;
  };
  for (const auto& b : a.answers) {
    const double pe = p(b);
    if (b.lower > pe + 1e-9 || b.upper < pe - 1e-9) return false;
  }
  for (size_t i = 0; i < a.certified_prefix && i < a.answers.size(); ++i) {
    const double pi = p(a.answers[i]);
    for (size_t j = i + 1; j < a.answers.size(); ++j) {
      if (pi < p(a.answers[j]) - 1e-9) return false;
    }
  }
  return true;
}

void ReportReplay(QueryEngine& engine,
                  const std::vector<const Request*>& requests, Tracer& tr,
                  bool semijoin, Report* rep) {
  std::vector<double> plans, rows;
  for (const Request* r : requests) {
    const ReplayResult res = ReplayLayers(engine.db(), *r, tr, semijoin);
    if (!res.ok) {
      ++rep->failed;
      continue;
    }
    plans.push_back(static_cast<double>(res.num_plans));
    rows.push_back(static_cast<double>(res.input_rows));
    auto bounds = tr.Call("anytime.bounds", 0, [&] {
      return engine.RunWithGuarantees(r->prepared, r->bindings);
    });
    if (!bounds.ok()) {
      ++rep->failed;
    } else if (!AnytimeCorrect(*r, *bounds)) {
      ++rep->wrong;
    }
  }
  rep->Set("dissociation.num_plans", Median(plans), "count");
  rep->Set("exec.rows_scanned", Median(rows), "count");
}

EngineCapture Capture(const QueryEngine& engine) {
  EngineCapture c;
  c.stats = engine.stats();
  c.queue_wait_buckets =
      MergedBuckets(engine.metrics(), "scheduler.queue_wait_ns.");
  c.run_buckets = MergedBuckets(engine.metrics(), "scheduler.run_ns.");
  return c;
}

void ReportEngineLayers(const EngineCapture& before,
                        const EngineCapture& after, size_t requests,
                        Report* rep) {
  const EngineStats& a = after.stats;
  const EngineStats& b = before.stats;
  auto d = [](size_t x, size_t y) { return static_cast<double>(x - y); };
  const double n = std::max<double>(1.0, static_cast<double>(requests));

  // Most workloads prepare during set-up only, so the plan-cache figures
  // cover the engine's whole life.
  const double plan_lookups =
      static_cast<double>(a.plan_cache_hits + a.plan_cache_misses);
  rep->Set("engine.plan_cache_hit_rate",
           plan_lookups > 0
               ? static_cast<double>(a.plan_cache_hits) / plan_lookups
               : 0.0,
           "fraction");
  rep->Set("engine.canonical_remap_hits",
           static_cast<double>(a.canonical_remap_hits), "count");

  const double chunks = d(a.scans.chunks_scanned, b.scans.chunks_scanned) +
                        d(a.scans.chunks_pruned, b.scans.chunks_pruned);
  rep->Set("exec.chunks_pruned_frac",
           chunks > 0 ? d(a.scans.chunks_pruned, b.scans.chunks_pruned) / chunks
                      : 0.0,
           "fraction");

  // Hits plus in-flight waits: under load the split between the two moves
  // from run to run with thread timing, their sum does not.
  const double served = d(a.result_cache_hits, b.result_cache_hits) +
                        d(a.result_cache_in_flight_waits,
                          b.result_cache_in_flight_waits);
  const double lookups =
      served + d(a.result_cache_misses, b.result_cache_misses);
  rep->Set("serve.rc_served_frac", lookups > 0 ? served / lookups : 0.0,
           "fraction");
  rep->Set("serve.rc_evictions",
           d(a.result_cache_evictions, b.result_cache_evictions), "count");
  rep->Set("serve.delta_maintained",
           d(a.result_cache_delta_maintained, b.result_cache_delta_maintained),
           "count");
  rep->Set("serve.swept", d(a.result_cache_swept, b.result_cache_swept),
           "count");
  rep->Set("serve.queue_wait_ms.p50",
           DiffQuantileMs(before.queue_wait_buckets, after.queue_wait_buckets,
                          0.50),
           "ms");
  rep->Set("serve.queue_wait_ms.p99",
           DiffQuantileMs(before.queue_wait_buckets, after.queue_wait_buckets,
                          0.99),
           "ms");
  rep->Set("serve.task_run_ms.p50",
           DiffQuantileMs(before.run_buckets, after.run_buckets, 0.50), "ms");
  rep->Set("serve.task_run_ms.p99",
           DiffQuantileMs(before.run_buckets, after.run_buckets, 0.99), "ms");
  rep->Set("serve.tasks_executed", d(a.tasks_executed, b.tasks_executed) / n,
           "count");
}

void ReportSpanLayers(const Tracer& tr, Report* rep) {
  struct SpanMetric {
    const char* span;
    const char* metric;
    double scale;  // microseconds -> metric unit
    const char* unit;
  };
  const SpanMetric kSpans[] = {
      {"query.parse", "query.parse_us", 1.0, "us"},
      {"query.canonicalize", "query.canonicalize_us", 1.0, "us"},
      {"lift.compile", "lift.compile_us", 1.0, "us"},
      {"dissociation.enumerate", "dissociation.enumerate_us", 1.0, "us"},
      {"engine.prepare", "engine.prepare_us", 1.0, "us"},
      {"exec.evaluate", "exec.evaluate_ms", 1e-3, "ms"},
      {"exec.semijoin", "exec.semijoin_ms", 1e-3, "ms"},
      {"exec.rank", "exec.rank_us", 1.0, "us"},
      {"storage.snapshot", "storage.snapshot_us", 1.0, "us"},
      {"storage.stage", "storage.stage_ms", 1e-3, "ms"},
      {"storage.commit", "storage.commit_ms", 1e-3, "ms"},
      {"anytime.bounds", "anytime.bounds_ms", 1e-3, "ms"},
      {"anytime.lower_bound", "anytime.lower_bound_ms", 1e-3, "ms"},
      {"lineage.compute", "lineage.compute_ms", 1e-3, "ms"},
      {"infer.wmc", "infer.wmc_ms", 1e-3, "ms"},
  };
  for (const auto& s : kSpans) {
    auto d = tr.DurationsUs(s.span);
    if (!d.empty()) rep->Set(s.metric, Median(std::move(d)) * s.scale, s.unit);
  }
}

void TimeSetup(const std::function<void()>& setup, Report* rep) {
  std::vector<double> secs;
  for (int i = 0; i < 5; ++i) {
    const uint64_t t0 = NowNs();
    setup();
    secs.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  rep->Set("setup_s", Median(secs), "s");
}

}  // namespace e2e
