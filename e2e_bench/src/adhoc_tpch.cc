// adhoc_tpch: the paper's Setup 1. Each request arrives as query text and
// runs Prepare + synchronous Execute in a closed loop with one client, so
// nearly all time is in exec and storage scans and the result cache and
// scheduler are bypassed (the control workload for serve-layer changes).
#include <algorithm>
#include <cstdio>

#include "data.h"
#include "workloads.h"

namespace e2e {

using namespace dissodb;  // NOLINT

namespace {

// Scale 0.1 (~101k rows) keeps a request's working set near the size of a
// core's L2: at scale 0.5 the scans and hash probes live in the host's
// shared L3, and the run-to-run spread tracked the neighbours' load.
constexpr double kScale = 0.1;
// $1 as fractions of the suppkey range.
const std::vector<double> kDollar1 = {0.25, 0.5, 0.75, 1.0};

struct State {
  TpchCatalog cat;
  std::unique_ptr<QueryEngine> engine;
  std::vector<Request> requests;
};

bool Setup(uint64_t seed, Tracer& tr, State* st) {
  st->requests.clear();
  st->engine.reset();
  st->cat = MakeTpchCatalog(kScale, seed, kDollar1);
  EngineOptions opts;
  opts.propagation.opt3_semijoin_reduction = true;
  opts.num_threads = EngineThreads();
  st->engine = std::make_unique<QueryEngine>(st->cat.db, opts);

  const TpchCatalog& c = st->cat;
  // Ad hoc selections carry no content tag: nothing about them is shared
  // between requests.
  // The unsafe query over the full ($1, $2) grid.
  for (size_t i = 0; i < c.dollar1.size(); ++i) {
    for (size_t j = 0; j < TpchPatterns().size(); ++j) {
      Request r;
      r.label = "unsafe $1=" + std::to_string(c.dollar1[i]) +
                " $2=" + TpchPatterns()[j];
      r.text = kTpchUnsafe;
      r.selections = {Select(0, c.suppliers[i].get()),
                      Select(2, c.parts[j].get())};
      r.ground_truth = j < 2 || i == 0;
      st->requests.push_back(std::move(r));
    }
  }
  // Safe variants: nations by supplier selection alone, and suppliers of
  // the smallest $1 by part pattern.
  for (size_t i = 0; i < c.dollar1.size(); ++i) {
    Request r;
    r.label = "safe-nation $1=" + std::to_string(c.dollar1[i]);
    r.text = kTpchSafeNation;
    r.selections = {Select(0, c.suppliers[i].get())};
    r.ground_truth = i < 2;
    st->requests.push_back(std::move(r));
  }
  for (size_t j = 0; j < TpchPatterns().size(); ++j) {
    Request r;
    r.label = "safe-supplier $1=" + std::to_string(c.dollar1[0]) +
              " $2=" + TpchPatterns()[j];
    r.text = kTpchSafeSupplier;
    r.selections = {Select(0, c.suppliers[0].get()),
                    Select(2, c.parts[j].get())};
    r.ground_truth = true;
    st->requests.push_back(std::move(r));
  }
  // Warm-up: one Prepare + Execute per request; the answers are the
  // sequential reference every timed request must reproduce bit for bit.
  for (Request& r : st->requests) {
    if (!PrepareRequest(*st->engine, r, tr)) return false;
    auto res = st->engine->Execute(r.prepared, r.bindings);
    if (!res.ok()) {
      std::fprintf(stderr, "warm-up %s: %s\n", r.label.c_str(),
                   res.status().ToString().c_str());
      return false;
    }
    r.reference = std::move(res->answers);
  }
  return true;
}

}  // namespace

int RunAdhocTpch(const Args& args) {
  Report rep;
  Tracer tr(args.trace);
  State st;
  bool ok = true;
  TimeSetup([&] { ok = ok && Setup(args.seed, tr, &st); }, &rep);
  if (!ok) return 2;

  // Ground truth on the grid points where exact WMC stays feasible at
  // every seed: the two selective patterns everywhere, '%' at the smallest
  // $1, and the safe variants' smaller selections.
  RunOracle(*st.cat.db, st.requests, tr, /*max_calls=*/200'000,
            /*max_lineage=*/50'000, &rep);
  rep.Note(std::to_string(st.requests.size()) +
           " requests (12 unsafe grid points, 7 safe variants), each six "
           "times per cycle except the two heaviest; TPC-H scale 0.1");

  // One cycle serves every request six times, the two heaviest ('%' at the
  // two largest $1, about 13 ms each against 1-11 ms for the rest) once.
  // That puts the median mid-class and about 25 of the heaviest samples in
  // each p99 window, so the reported tail (the 11th-largest latency) sits
  // mid-class instead of in the jitter at a class's edge.
  const size_t np = TpchPatterns().size();
  const size_t heaviest[] = {(kDollar1.size() - 1) * np - 1,
                             kDollar1.size() * np - 1};
  std::vector<size_t> cycle;
  for (int round = 0; round < 6; ++round) {
    for (size_t k = 0; k < st.requests.size(); ++k) {
      if (round == 0 || (k != heaviest[0] && k != heaviest[1])) {
        cycle.push_back(k);
      }
    }
  }
  Rng order_rng(args.seed * 0x9e3779b97f4a7c15ULL + 1);
  std::vector<size_t> order = cycle;
  auto phase = [&](double seconds, TracerPick& pick) {
    return ClosedLoop(seconds, order.size(), pick, [&](size_t i, Tracer& t2) {
      if (i % order.size() == 0) {
        order = cycle;
        for (size_t k = order.size(); k > 1; --k) {
          std::swap(order[k - 1], order[order_rng.NextBounded(k)]);
        }
      }
      const Request& r = st.requests[order[i % order.size()]];
      const uint64_t req = t2.NewRequest();
      auto p = t2.Call("engine.prepare", req,
                       [&] { return st.engine->Prepare(r.text); });
      if (!p.ok()) return Outcome::kFailed;
      auto res = t2.Call("engine.execute", req,
                         [&] { return st.engine->Execute(*p, r.bindings); });
      if (!res.ok()) return Outcome::kFailed;
      return SameRanking(res->answers, r.reference) ? Outcome::kOk
                                                    : Outcome::kWrong;
    });
  };
  RunTimedPhase(args, *st.engine, tr, phase, &rep);

  if (args.trace) {
    std::vector<const Request*> all;
    for (const Request& r : st.requests) all.push_back(&r);
    ReportReplay(*st.engine, all, tr, /*semijoin=*/true, &rep);
  }
  return Conclude(args, tr, &rep);
}

}  // namespace e2e
