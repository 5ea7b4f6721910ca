// shared_serving: prepared, parameterized queries over one catalog —
// chains, stars, the TPC-H template with content-tagged selections, and an
// isomorphic respelling of the chain — drawn Zipf-skewed from a
// (template, binding) keyspace about 10x the result cache's capacity. One
// client sends 64-request ExecuteBatch batches in a closed loop; a request
// is one batch. Work concentrates in serve (result cache, in-flight dedup,
// scheduler) and engine canonicalization, and the hit rate is partial, so
// eviction, batching and sharding changes show here.
#include <algorithm>
#include <cstdio>

#include "data.h"
#include "workloads.h"

namespace e2e {

using namespace dissodb;  // NOLINT

namespace {

constexpr double kScale = 0.05;
constexpr int64_t kBindings = 1024;  // $0 values per parameterized template
constexpr size_t kBatch = 64;
constexpr double kZipfS = 1.0;
const std::vector<double> kDollar1 = {0.0625, 0.125, 0.1875, 0.25, 0.3125,
                                      0.375,  0.4375, 0.5,  0.5625, 0.625,
                                      0.6875, 0.75,  0.8125, 0.875, 0.9375,
                                      1.0};

struct Template {
  const char* name;
  const char* text;
};
// The chain and its respelling are isomorphic: canonicalization maps both
// to one plan and one set of cached results.
constexpr Template kChain = {"chain", "q(x) :- R1(x,y), R2(y,z), R3(z,$0)"};
constexpr Template kChainRespelled = {"chain-respelled",
                                      "q(u) :- R3(w,$0), R2(v,w), R1(u,v)"};
constexpr Template kStar = {"star", "q(h) :- H(h,a,b), P1(a), P2(b,$0)"};

struct State {
  TpchCatalog cat;
  std::unique_ptr<QueryEngine> engine;
  /// Keys in Zipf rank order (rank 0 = hottest).
  std::vector<Request> keys;
};

bool Setup(uint64_t seed, Tracer& tr, State* st) {
  st->keys.clear();
  st->engine.reset();
  st->cat = MakeTpchCatalog(kScale, seed, kDollar1);
  Rng rng(seed * 31 + 3);
  std::vector<Table> extra;
  extra.push_back(MakeRandomTable("R1", 8000, {2000, 2000}, 0.5, &rng));
  extra.push_back(MakeRandomTable("R2", 8000, {2000, 2000}, 0.5, &rng));
  extra.push_back(MakeRandomTable("R3", 8000, {2000, kBindings}, 0.5, &rng));
  extra.push_back(MakeRandomTable("H", 8000, {500, 1000, 1000}, 0.5, &rng));
  extra.push_back(MakeRandomTable("P1", 600, {1000}, 0.5, &rng));
  extra.push_back(MakeRandomTable("P2", 8000, {1000, kBindings}, 0.5, &rng));
  AddTables(st->cat.db.get(), std::move(extra));

  EngineOptions opts;
  opts.propagation.opt3_semijoin_reduction = true;
  // The client runs queued tasks itself while it waits for its batch, so
  // the workers leave it a core: one more runnable thread than cores put
  // the scheduler's timeslices into the batch-latency tail.
  opts.num_threads = std::max(1, EngineThreads() - 1);
  st->engine = std::make_unique<QueryEngine>(st->cat.db, opts);

  // Every template's keys, bindings shuffled by the seed.
  std::vector<std::vector<Request>> by_template;
  for (const Template& t : {kChain, kChainRespelled, kStar}) {
    std::vector<Request> keys;
    for (int64_t v = 1; v <= kBindings; ++v) {
      Request r;
      r.label = std::string(t.name) + " $0=" + std::to_string(v);
      r.text = t.text;
      r.params = {Value::Int64(v)};
      keys.push_back(std::move(r));
    }
    by_template.push_back(std::move(keys));
  }
  const TpchCatalog& c = st->cat;
  std::vector<Request> tpch;
  // The two selective patterns only: with '%' a few TPC-H keys would cost
  // far more than every other key, and batch latency would hinge on how
  // many of them a batch happens to draw.
  for (size_t i = 0; i < c.dollar1.size(); ++i) {
    for (size_t j = 0; j < 2; ++j) {
      Request r;
      r.label = "tpch $1=" + std::to_string(c.dollar1[i]) +
                " $2=" + TpchPatterns()[j];
      r.text = kTpchUnsafe;
      r.selections = {Select(0, c.suppliers[i].get(), c.SupplierTag(i)),
                      Select(2, c.parts[j].get(), c.PartTag(j))};
      tpch.push_back(std::move(r));
    }
  }
  by_template.push_back(std::move(tpch));
  for (auto& keys : by_template) {
    for (size_t k = keys.size(); k > 1; --k) {
      std::swap(keys[k - 1], keys[rng.NextBounded(k)]);
    }
  }
  // Interleave the templates evenly over the ranks, so each template's
  // share of the traffic is the same at every seed.
  struct Slot {
    double pos;
    size_t t, k;
  };
  std::vector<Slot> slots;
  for (size_t t = 0; t < by_template.size(); ++t) {
    const double n = static_cast<double>(by_template[t].size());
    for (size_t k = 0; k < by_template[t].size(); ++k) {
      slots.push_back({(static_cast<double>(k) + 0.5) / n, t, k});
    }
  }
  std::stable_sort(slots.begin(), slots.end(),
                   [](const Slot& a, const Slot& b) { return a.pos < b.pos; });
  for (const Slot& s : slots) {
    st->keys.push_back(std::move(by_template[s.t][s.k]));
  }
  // Ground truth for the hottest keys of each template.
  std::vector<size_t> flagged(by_template.size(), 0);
  for (size_t i = 0; i < slots.size(); ++i) {
    if (flagged[slots[i].t] < 6) {
      st->keys[i].ground_truth = true;
      ++flagged[slots[i].t];
    }
  }
  for (Request& r : st->keys) {
    if (!PrepareRequest(*st->engine, r, tr)) return false;
  }
  return true;
}

}  // namespace

int RunSharedServing(const Args& args) {
  Report rep;
  Tracer tr(args.trace);
  State st;
  bool ok = true;
  Zipf zipf(1, kZipfS);
  Rng rng(args.seed * 0x2545f4914f6cdd1dULL + 5);
  // Draws one batch: key indexes.
  auto draw = [&] {
    std::vector<size_t> idx(kBatch);
    for (auto& i : idx) i = zipf.Sample(&rng);
    return idx;
  };
  auto execute = [&](const std::vector<size_t>& idx, Tracer& t,
                     uint64_t req) {
    std::vector<PreparedQuery> prepared;
    std::vector<Bindings> bindings;
    for (size_t i : idx) {
      prepared.push_back(st.keys[i].prepared);
      bindings.push_back(st.keys[i].bindings);
    }
    return t.Call("engine.execute_batch", req, [&] {
      return st.engine->ExecuteBatch(prepared, bindings);
    });
  };
  TimeSetup(
      [&] {
        ok = ok && Setup(args.seed, tr, &st);
        if (!ok) return;
        zipf = Zipf(st.keys.size(), kZipfS);
        // Warm-up: fill the result cache before timing.
        for (int b = 0; b < 16; ++b) execute(draw(), tr, 0);
      },
      &rep);
  if (!ok) return 2;

  // Reference: a sequential Execute of every key.
  const uint64_t t_ref = NowNs();
  for (Request& r : st.keys) {
    auto res = st.engine->Execute(r.prepared, r.bindings);
    if (!res.ok()) {
      std::fprintf(stderr, "reference %s: %s\n", r.label.c_str(),
                   res.status().ToString().c_str());
      return 2;
    }
    r.reference = std::move(res->answers);
  }
  rep.Set("reference_s", static_cast<double>(NowNs() - t_ref) / 1e9, "s");
  RunOracle(*st.cat.db, st.keys, tr, /*max_calls=*/100'000,
            /*max_lineage=*/5'000, &rep);
  rep.Note("keyspace: " + std::to_string(st.keys.size()) +
           " (template, binding) keys, Zipf s=1, result cache capacity " +
           std::to_string(st.engine->options().result_cache_capacity) +
           "; one client, ExecuteBatch of " + std::to_string(kBatch));

  auto phase = [&](double seconds, TracerPick& pick) {
    return ClosedLoop(seconds, 1, pick, [&](size_t, Tracer& t2) {
      const auto idx = draw();
      auto results = execute(idx, t2, t2.NewRequest());
      for (size_t k = 0; k < idx.size(); ++k) {
        if (!results[k].ok()) return Outcome::kFailed;
        if (!SameRanking(results[k]->answers, st.keys[idx[k]].reference)) {
          return Outcome::kWrong;
        }
      }
      return Outcome::kOk;
    });
  };
  RunTimedPhase(args, *st.engine, tr, phase, &rep);

  if (args.trace) {
    // The hottest key of each template.
    std::vector<const Request*> firsts;
    for (const Request& r : st.keys) {
      if (std::none_of(firsts.begin(), firsts.end(), [&](const Request* f) {
            return f->text == r.text;
          })) {
        firsts.push_back(&r);
      }
    }
    ReportReplay(*st.engine, firsts, tr, /*semijoin=*/true, &rep);
  }
  return Conclude(args, tr, &rep);
}

}  // namespace e2e
