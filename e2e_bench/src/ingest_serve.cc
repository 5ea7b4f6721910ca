// ingest_serve: reads beside writes. An open-loop generator Submits a
// 64-binding prepared query (its keyspace fits in the result cache) at a
// fixed seeded Poisson rate, while one writer thread commits append-only
// batches on a fixed schedule. Cache hits here come from delta maintenance
// across commits rather than capacity, and the writer's commits load
// storage — a read-side gain that costs the writer shows up here.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <future>
#include <mutex>
#include <thread>

#include "data.h"
#include "workloads.h"

namespace e2e {

using namespace dissodb;  // NOLINT

namespace {

constexpr int64_t kKeys = 64;
constexpr size_t kRows = 20000;     // per base table
constexpr int64_t kDomain = 5000;   // join-column domain
constexpr double kRatePerSec = 350;  // reader arrivals
constexpr int kCommitPeriodMs = 100;
constexpr int kRowsPerCommit = 30;
constexpr const char* kQuery = "q(x) :- I1(x,y), I2(y,z), I3(z,$0)";
constexpr const char* kTables[] = {"I1", "I2", "I3"};

struct State {
  std::shared_ptr<Database> db;
  std::unique_ptr<QueryEngine> engine;
  std::vector<Request> keys;  // one per binding of $0
  /// Pinned before any writer runs; must keep returning the references.
  Snapshot pinned;
};

bool Setup(uint64_t seed, Tracer& tr, State* st) {
  st->keys.clear();
  st->pinned = Snapshot();
  st->engine.reset();
  st->db = std::make_shared<Database>();
  Rng rng(seed * 77 + 1);
  std::vector<Table> tables;
  tables.push_back(MakeRandomTable("I1", kRows, {kDomain, kDomain}, 0.5, &rng));
  tables.push_back(MakeRandomTable("I2", kRows, {kDomain, kDomain}, 0.5, &rng));
  tables.push_back(MakeRandomTable("I3", kRows, {kDomain, kKeys}, 0.5, &rng));
  AddTables(st->db.get(), std::move(tables));
  EngineOptions opts;
  // One core stays with the reader and the writer: an open-loop generator
  // that has to wait for a core would add its own lateness to every
  // request it is late for.
  opts.num_threads = std::max(1, EngineThreads() - 1);
  st->engine = std::make_unique<QueryEngine>(st->db, opts);
  for (int64_t v = 1; v <= kKeys; ++v) {
    Request r;
    r.label = "chain $0=" + std::to_string(v);
    r.text = kQuery;
    r.params = {Value::Int64(v)};
    r.ground_truth = v <= 4;
    if (!PrepareRequest(*st->engine, r, tr)) return false;
    st->keys.push_back(std::move(r));
  }
  // Warm-up: every key once through the pooled path, filling the cache.
  std::vector<PreparedQuery> prepared;
  std::vector<Bindings> bindings;
  for (const Request& r : st->keys) {
    prepared.push_back(r.prepared);
    bindings.push_back(r.bindings);
  }
  for (const auto& res : st->engine->ExecuteBatch(prepared, bindings)) {
    if (!res.ok()) return false;
  }
  st->pinned = st->db->snapshot();
  return true;
}

/// What one open-loop phase measured beyond PhaseStats.
struct WriterStats {
  std::vector<double> commit_ms;  // BeginWrite -> Commit returned
  size_t commits = 0;
  size_t pinned_checks = 0;
  size_t served_checks = 0;
  size_t mismatches = 0;
};

/// A served request to re-execute against the snapshot it was served
/// from; checked by the writer between commits, so at most a few
/// snapshots stay pinned for it.
struct Sample {
  Snapshot snap;
  size_t key = 0;
  std::vector<RankedAnswer> answers;
};

/// Served answers must equal a sequential Execute on the same snapshot.
/// Returns the number of mismatches.
size_t CheckSamples(QueryEngine& engine, const std::vector<Request>& keys,
                    std::deque<Sample>* samples) {
  size_t bad = 0;
  for (const Sample& s : *samples) {
    const Request& r = keys[s.key];
    auto res = engine.Execute(r.prepared, r.bindings, s.snap);
    if (!res.ok() || !SameRanking(res->answers, s.answers)) ++bad;
  }
  samples->clear();
  return bad;
}

}  // namespace

int RunIngestServe(const Args& args) {
  Report rep;
  Tracer tr(args.trace);
  State st;
  bool ok = true;
  TimeSetup([&] { ok = ok && Setup(args.seed, tr, &st); }, &rep);
  if (!ok) return 2;
  for (Request& r : st.keys) {
    auto res = st.engine->Execute(r.prepared, r.bindings, st.pinned);
    if (!res.ok()) return 2;
    r.reference = std::move(res->answers);
  }
  RunOracle(*st.db, st.keys, tr, /*max_calls=*/200'000,
            /*max_lineage=*/50'000, &rep);
  rep.Note("open loop: Poisson " + std::to_string(int(kRatePerSec)) +
           " req/s over " + std::to_string(kKeys) +
           " bindings; writer appends " +
           std::to_string(kRowsPerCommit) + " rows to one table every " +
           std::to_string(kCommitPeriodMs) + " ms; base tables " +
           std::to_string(kRows) + " rows each");

  WriterStats ws;
  std::vector<double> lateness_ms;
  Rng arrivals(args.seed * 0x9e3779b97f4a7c15ULL + 11);
  Rng writer_rng(args.seed * 0xbf58476d1ce4e5b9ULL + 13);

  auto phase = [&](double seconds, TracerPick& pick) {
    PhaseStats ps;
    ws = WriterStats();
    lateness_ms.clear();
    std::mutex sample_mu;
    std::deque<Sample> samples;  // guarded by sample_mu
    std::mutex snap_mu;
    Snapshot latest = st.db->snapshot();  // guarded by snap_mu
    std::atomic<bool> stop{false};

    const uint64_t start = NowNs();
    const uint64_t end = start + static_cast<uint64_t>(seconds * 1e9);
    std::thread writer([&] {
      Tracer& t = pick.always();
      uint64_t next = start;
      size_t check_key = 0;
      while (!stop.load()) {
        next += static_cast<uint64_t>(kCommitPeriodMs) * 1'000'000;
        while (NowNs() < next && !stop.load()) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        if (stop.load()) break;
        const uint64_t req = t.NewRequest();
        const uint64_t t0 = NowNs();
        std::optional<Database::Writer> w;
        {
          Tracer::Span s(&t, "storage.stage", 0, req);
          w.emplace(st.db->BeginWrite());
          // One table per commit, in turn: cached subplans over the other
          // two stay valid, and those reading it can be delta-maintained.
          const char* name = kTables[ws.commits % 3];
          Table* tb = *w->GetTableForWrite(name);
          const int64_t dom1 = name[1] == '3' ? kKeys : kDomain;
          for (int i = 0; i < kRowsPerCommit; ++i) {
            tb->AddRow({Value::Int64(writer_rng.NextInt(1, kDomain)),
                        Value::Int64(writer_rng.NextInt(1, dom1))},
                       writer_rng.NextDouble() * 0.5);
          }
        }
        t.Call("storage.commit", req, [&] { return w->Commit(); });
        ws.commit_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
        ++ws.commits;
        Snapshot fresh =
            t.Call("storage.snapshot", req, [&] { return st.db->snapshot(); });
        {
          std::lock_guard lock(snap_mu);
          latest = std::move(fresh);
        }
        // The snapshot pinned before any commit still reads the old state.
        const Request& r = st.keys[check_key++ % st.keys.size()];
        auto res = st.engine->Execute(r.prepared, r.bindings, st.pinned);
        ++ws.pinned_checks;
        if (!res.ok() || !SameRanking(res->answers, r.reference)) {
          ++ws.mismatches;
        }
        std::deque<Sample> ready;
        {
          std::lock_guard lock(sample_mu);
          ready.swap(samples);
        }
        ws.served_checks += ready.size();
        ws.mismatches += CheckSamples(*st.engine, st.keys, &ready);
      }
    });

    struct Pending {
      std::future<Result<QueryResult>> f;
      uint64_t due;
      bool traced;
      Snapshot snap;  // set when the request is sampled
      size_t key;
    };
    std::deque<Pending> pending;
    uint64_t due = start;
    size_t sent = 0;
    uint64_t last_sampled_version = UINT64_MAX;
    const double mean_gap_ns = 1e9 / kRatePerSec;
    while (true) {
      const uint64_t now = NowNs();
      for (auto it = pending.begin(); it != pending.end();) {
        if (it->f.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
          ++it;
          continue;
        }
        auto res = it->f.get();
        ++ps.attempted;
        if (!res.ok()) {
          ++ps.failed;
        } else {
          ps.Record(it->traced, static_cast<double>(now - it->due) / 1e6);
          if (it->snap.valid()) {
            std::lock_guard lock(sample_mu);
            samples.push_back(
                Sample{std::move(it->snap), it->key, std::move(res->answers)});
          }
        }
        it = pending.erase(it);
      }
      if (due >= end) {
        if (pending.empty()) break;
      } else if (now >= due) {
        lateness_ms.push_back(static_cast<double>(now - due) / 1e6);
        const size_t key = arrivals.NextBounded(kKeys);
        Snapshot snap;
        {
          std::lock_guard lock(snap_mu);
          snap = latest;
        }
        Snapshot sample;
        if (snap.version() != last_sampled_version) {
          // The first request served at each version is re-checked.
          last_sampled_version = snap.version();
          sample = snap;
        }
        const Request& r = st.keys[key];
        const size_t i = sent++;
        Tracer& t = pick(i);
        auto f = t.Call("engine.submit", t.NewRequest(), [&] {
          return st.engine->Submit(r.prepared, r.bindings, std::move(snap));
        });
        pending.push_back(
            Pending{std::move(f), due, pick.traced(i), std::move(sample), key});
        due += static_cast<uint64_t>(
            -std::log(1.0 - arrivals.NextDouble()) * mean_gap_ns);
        continue;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    ps.elapsed_s = static_cast<double>(NowNs() - start) / 1e9;
    stop.store(true);
    writer.join();

    ws.served_checks += samples.size();
    ws.mismatches += CheckSamples(*st.engine, st.keys, &samples);
    ps.wrong += ws.mismatches;
    ps.failed += ws.mismatches;
    return ps;
  };
  RunTimedPhase(args, *st.engine, tr, phase, &rep);

  rep.Set("commit_p50_ms", Median(ws.commit_ms), "ms");
  rep.Set("commit_p99_ms", TailP99(ws.commit_ms), "ms");
  rep.Set("commits", static_cast<double>(ws.commits), "count");
  rep.Set("pinned_snapshot_checks", static_cast<double>(ws.pinned_checks),
          "count");
  rep.Set("served_versions_rechecked", static_cast<double>(ws.served_checks),
          "count");
  rep.Set("generator_lateness_p50_ms", Median(lateness_ms), "ms");
  rep.Set("generator_lateness_p99_ms", TailP99(lateness_ms), "ms");
  rep.Set("generator_lateness_max_ms", Percentile(lateness_ms, 1.0), "ms");
  if (args.trace) {
    std::vector<double> ns_per_row;
    for (double us : tr.DurationsUs("storage.commit")) {
      ns_per_row.push_back(us * 1e3 / kRowsPerCommit);
    }
    rep.Set("storage.commit_ns_per_row", Median(ns_per_row), "ns");
    // The writer has moved the database past the set-up ground truth.
    Request live = st.keys[0];
    live.exact.reset();
    ReportReplay(*st.engine, {&live}, tr, /*semijoin=*/false, &rep);
  }
  return Conclude(args, tr, &rep);
}

}  // namespace e2e
