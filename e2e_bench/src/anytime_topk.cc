// anytime_topk: RunWithGuarantees{top_k=10, deadline} in a closed loop with
// one client. The controlled-fanout 3-chain certifies after few
// refinements; the TPC-H '%red%' and '%' selections refine heavily and the
// deadline fires. This is the workload where anytime, lineage and infer do
// most of the work. Every request carries a deadline: without one, the '%'
// request ran for minutes and still returned bounds only.
#include <algorithm>
#include <chrono>
#include <cstdio>

#include "data.h"
#include "workloads.h"

namespace e2e {

using namespace dissodb;  // NOLINT

namespace {

constexpr double kScale = 0.1;
// The TPC-H instance is the same at every seed (the seed varies the fanout
// chain): how far the '%' requests overrun their deadline, and how much
// memory their refinement holds, depend on the instance's lineage shapes,
// and one fixed instance keeps runs with different seeds comparable.
constexpr uint64_t kTpchSeed = 42;
constexpr int kFanoutAnswers = 200;
constexpr double kDeadlineMs = 250;
// $1 of the '%' requests, as fractions of the suppkey range. How far a
// request overruns its deadline depends on which refinement tasks are in
// flight when it fires, so each run averages over several such requests.
const std::vector<double> kAllPatternDollar1 = {1.0, 0.85, 0.7};
// Request mix of one cycle, as indexes into the request list (0 = chain,
// 1 = '%red%', 2.. = the '%' requests): the chain 2/3, '%red%' 1/12, '%'
// 1/4, so both reported percentiles fall inside one class (p50 in the
// chain, the tail in '%').
constexpr size_t kCycle[] = {0, 0, 0, 0, 2, 1, 0, 0, 3, 0, 0, 4};

struct State {
  TpchCatalog cat;
  std::unique_ptr<QueryEngine> engine;
  std::vector<Request> requests;
};

GuaranteeSpec Spec() {
  GuaranteeSpec spec;
  spec.top_k = 10;
  spec.deadline = std::chrono::microseconds(
      static_cast<int64_t>(kDeadlineMs * 1000));
  return spec;
}

bool Setup(uint64_t seed, Tracer& tr, State* st) {
  st->requests.clear();
  st->engine.reset();
  st->cat = MakeTpchCatalog(kScale, kTpchSeed, kAllPatternDollar1);
  AddTables(st->cat.db.get(), MakeFanoutTables(kFanoutAnswers, seed + 7));
  EngineOptions opts;
  opts.num_threads = EngineThreads();
  st->engine = std::make_unique<QueryEngine>(st->cat.db, opts);

  const TpchCatalog& c = st->cat;
  Request chain;
  chain.label = "fanout-chain";
  chain.text = "q(a) :- A(a,x), B(x,y), C(y)";
  chain.ground_truth = true;
  st->requests.push_back(std::move(chain));
  auto tpch = [&](size_t i, size_t j) {
    Request r;
    r.label = "tpch $1=" + std::to_string(c.dollar1[i]) +
              " $2=" + TpchPatterns()[j];
    r.text = kTpchUnsafe;
    r.selections = {Select(0, c.suppliers[i].get(), c.SupplierTag(i)),
                    Select(2, c.parts[j].get(), c.PartTag(j))};
    // '%' is infeasible for exact WMC at any useful budget.
    r.ground_truth = j == 1;
    st->requests.push_back(std::move(r));
  };
  tpch(0, 1);
  for (size_t i = 0; i < c.dollar1.size(); ++i) tpch(i, 2);
  // Warm-up: the sequential Execute reference (dissociation scores), and
  // one anytime run, which starts the engine's worker pool.
  for (Request& r : st->requests) {
    if (!PrepareRequest(*st->engine, r, tr)) return false;
    auto res = st->engine->Execute(r.prepared, r.bindings);
    if (!res.ok()) {
      std::fprintf(stderr, "warm-up %s failed\n", r.label.c_str());
      return false;
    }
    r.reference = std::move(res->answers);
  }
  const Request& chain0 = st->requests[0];
  return st->engine->RunWithGuarantees(chain0.prepared, chain0.bindings, Spec())
      .ok();
}

}  // namespace

int RunAnytimeTopk(const Args& args) {
  Report rep;
  Tracer tr(args.trace);
  State st;
  bool ok = true;
  TimeSetup([&] { ok = ok && Setup(args.seed, tr, &st); }, &rep);
  if (!ok) return 2;
  RunOracle(*st.cat.db, st.requests, tr, /*max_calls=*/2'000'000,
            /*max_lineage=*/50'000, &rep);
  rep.Note("cycle: fanout-chain x8, tpch '%red%' x1, tpch '%' x3 ($1 at "
           "100/85/70% of the suppkey range); top_k=10, deadline=250ms; "
           "TPC-H scale 0.1 + fanout chain with " +
           std::to_string(kFanoutAnswers) + " answers");

  struct Sample {
    double latency_ms;
    bool certified;
    double refined_frac;
    size_t contested;
    size_t rounds;
    size_t mc_samples;
  };
  std::vector<Sample> samples;
  const GuaranteeSpec spec = Spec();
  auto phase = [&](double seconds, TracerPick& pick) {
    samples.clear();
    constexpr size_t kLen = sizeof(kCycle) / sizeof(kCycle[0]);
    return ClosedLoop(seconds, kLen, pick, [&](size_t i, Tracer& t2) {
      const Request& r = st.requests[kCycle[i % kLen]];
      const uint64_t req = t2.NewRequest();
      const uint64_t t0 = NowNs();
      auto a = t2.Call("engine.run_with_guarantees", req, [&] {
        return st.engine->RunWithGuarantees(r.prepared, r.bindings, spec);
      });
      const double ms = static_cast<double>(NowNs() - t0) / 1e6;
      if (!a.ok()) return Outcome::kFailed;
      if (!AnytimeCorrect(r, *a)) return Outcome::kWrong;
      samples.push_back(Sample{
          ms, a->verdict != AnytimeVerdict::kBoundsOnly,
          a->answers.empty() ? 0.0
                             : static_cast<double>(a->refined_answers) /
                                   static_cast<double>(a->answers.size()),
          a->contested_initial, a->refine_rounds, a->mc_samples_drawn});
      return Outcome::kOk;
    });
  };
  RunTimedPhase(args, *st.engine, tr, phase, &rep);

  // Anytime-specific metrics of the last phase (the traced one when
  // tracing).
  std::vector<double> overrun, refined, contested, rounds, mc;
  size_t certified = 0;
  for (const Sample& s : samples) {
    overrun.push_back(std::max(0.0, s.latency_ms - kDeadlineMs));
    certified += s.certified;
    refined.push_back(s.refined_frac);
    contested.push_back(static_cast<double>(s.contested));
    rounds.push_back(static_cast<double>(s.rounds));
    mc.push_back(static_cast<double>(s.mc_samples));
  }
  const double n = std::max<double>(1.0, static_cast<double>(samples.size()));
  rep.Set("certified_frac", static_cast<double>(certified) / n, "fraction");
  rep.Set("deadline_overrun_p50_ms", Median(overrun), "ms");
  rep.Set("deadline_overrun_p99_ms", TailP99(overrun), "ms");
  if (args.trace) {
    rep.Set("anytime.contested_initial", Median(contested), "count");
    rep.Set("anytime.refined_frac", Median(refined), "fraction");
    rep.Set("anytime.refine_rounds", Median(rounds), "count");
    rep.Set("infer.mc_samples", Median(mc), "count");
    std::vector<const Request*> all;
    for (const Request& r : st.requests) all.push_back(&r);
    ReportReplay(*st.engine, all, tr, /*semijoin=*/false, &rep);
  }
  return Conclude(args, tr, &rep);
}

}  // namespace e2e
