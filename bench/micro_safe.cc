// Safe-plan router benchmark: the same hierarchical workload compiled and
// served with Opt. 1 on (lift::CompileSafePlan, the single-plan compiler)
// vs. Opt. 1 off (Algorithm 1: EnumerateMinimalPlans, every minimal plan
// evaluated separately; PropagationOptions::opt1_single_plan = false).
//
// Workload: nested-containment chains
//   q() :- R1(x1), R2(x1,x2), ..., Rk(x1,...,xk)
// These are hierarchical (at-sets form a chain under containment), so the
// lifted compiler resolves every level with the separator rule in one
// linear walk. Algorithm 1 reaches the *same plan* — a safe query has one
// minimal plan — but discovers each separator by Gosper-enumerating all
// 2^|evars| candidate cut-sets per level while walking the dissociation
// lattice, so its compile cost grows exponentially in k while the lifted
// cost stays linear. Both routes evaluate that one plan, so execution
// cost and answers are identical, which the benchmark asserts.
//
// Instances: the timings run on random rows over a small domain. The
// correctness gates run on nested instances where each R_j row extends a
// random R_{j-1} row by a fresh value, so every chain has an answer and,
// on every k, P(q) sits strictly inside (0,1) — neither empty nor
// saturated to 1.0 — and the bit-identity gate compares real scores (the
// bench fails if that precondition breaks).
//
// Measurements (BENCH_micro_safe.json):
//   - compile_safe_k{4,8,12}     ns per lifted compile (what a cold
//                                Prepare with Opt. 1 on pays)
//   - compile_dissoc_k{4,8,12}   ns per EnumerateMinimalPlans alone (what
//                                a cold Prepare with Opt. 1 off pays)
//   - serve_safe_k12             ns per cold Prepare+Execute, Opt. 1 on
//   - serve_dissoc_k12           ns per cold Prepare+Execute, Opt. 1 off
//   - compile_speedup_k12        ratio (skipped by compare_bench)
//   - unsafe_residue_prepare     ns per Opt. 1-on compile of a 3-chain
//                                (lifted compile hitting the residue plus
//                                the enumeration the engine still runs)
//
// Unconditional acceptance gates:
//   - every gate instance has >= 1 answer with a score strictly inside
//     (0,1),
//   - both routes return bit-identical rankings on every chain,
//   - both routes report exact=true / 1 minimal plan on the chains,
//   - cold end-to-end latency (Prepare+Execute) with Opt. 1 on is
//     strictly below the Opt. 1-off latency at k=12.
//
//   $ ./micro_safe
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_common.h"

using namespace dissodb;         // NOLINT: bench brevity
using namespace dissodb::bench;  // NOLINT

namespace {

/// q() :- R1(x1), R2(x1,x2), ..., Rk(x1..xk).
std::string ChainOfContainmentQuery(int k) {
  std::string text = "q() :- ";
  for (int j = 1; j <= k; ++j) {
    if (j > 1) text += ", ";
    text += "R" + std::to_string(j) + "(";
    for (int v = 1; v <= j; ++v) {
      if (v > 1) text += ",";
      text += "x" + std::to_string(v);
    }
    text += ")";
  }
  return text;
}

/// Timing instance: tables R1..Rk with `rows` random rows each over a
/// small domain, so joins produce work without blowing up the answer set.
Database ChainDatabase(int k, size_t rows, uint64_t seed) {
  Rng rng(seed);
  Database db;
  for (int j = 1; j <= k; ++j) {
    Table t(RelationSchema::AllInt64("R" + std::to_string(j), j));
    for (size_t i = 0; i < rows; ++i) {
      std::vector<Value> row;
      row.reserve(j);
      for (int v = 0; v < j; ++v) row.push_back(Value::Int64(rng.NextInt(0, 2)));
      t.AddRow(row, 0.05 + 0.9 * rng.NextDouble());
    }
    if (!db.AddTable(std::move(t)).ok()) std::abort();
  }
  return db;
}

/// Gate instance: tables R1..Rk with `rows` distinct rows each. R1 holds
/// x1 = 0..rows-1 and every R_j row extends a random R_{j-1} row by its own
/// row index, so each R_k row completes a chain (the query has an answer
/// at every k) while most roots reach depth k through few rows (P(q)
/// stays below 1). The random-domain timing instance is degenerate as a
/// gate: it saturates to 1.0 at k=4 and has no answer at k=8 and k=12.
Database NestedChainDatabase(int k, size_t rows, uint64_t seed) {
  Rng rng(seed);
  Database db;
  std::vector<std::vector<Value>> prev;
  for (int j = 1; j <= k; ++j) {
    Table t(RelationSchema::AllInt64("R" + std::to_string(j), j));
    std::vector<std::vector<Value>> cur;
    cur.reserve(rows);
    for (size_t i = 0; i < rows; ++i) {
      std::vector<Value> row;
      if (!prev.empty()) row = prev[rng.NextBounded(prev.size())];
      row.push_back(Value::Int64(static_cast<int64_t>(i)));
      t.AddRow(row, 0.05 + 0.9 * rng.NextDouble());
      cur.push_back(std::move(row));
    }
    if (!db.AddTable(std::move(t)).ok()) std::abort();
    prev = std::move(cur);
  }
  return db;
}

/// Opt. 1 on: the lifted single-plan compiler. Off: Algorithm 1.
EngineOptions RouteOptions(bool single_plan) {
  EngineOptions o;
  o.propagation.opt1_single_plan = single_plan;
  return o;
}

/// Compile cost at the library level (no engine construction, no plan
/// cache): what one cold Prepare pays on each route.
double LiftedCompileNs(const ConjunctiveQuery& q) {
  SchemaKnowledge none = SchemaKnowledge::None(q);
  return TimeMs(
             [&] {
               auto r = lift::CompileSafePlan(q, none);
               if (!r.ok() || !r->exact) std::abort();
             },
             20.0, 2000, 3) *
         1e6;
}

double EnumerationCompileNs(const ConjunctiveQuery& q) {
  SchemaKnowledge none = SchemaKnowledge::None(q);
  return TimeMs(
             [&] {
               auto plans = EnumerateMinimalPlans(q, none);
               if (!plans.ok() || plans->size() != 1) std::abort();
             },
             20.0, 2000, 3) *
         1e6;
}

double ColdServeNs(Database& db, const ConjunctiveQuery& q, bool single_plan) {
  return TimeMs([&] {
           QueryEngine engine =
               QueryEngine::Borrow(db, RouteOptions(single_plan));
           if (!engine.Run(q).ok()) std::abort();
         }) *
         1e6;
}

}  // namespace

int main() {
  StringPool pool;
  const size_t rows = static_cast<size_t>(64 * BenchScale());

  // -- Non-degeneracy, bit-identity + exactness gates across the workload -
  for (int k : {4, 8, 12}) {
    auto q = ParseQuery(ChainOfContainmentQuery(k), &pool);
    if (!q.ok()) std::abort();
    Database db = NestedChainDatabase(k, rows, 1000 + k);
    QueryEngine single = QueryEngine::Borrow(db, RouteOptions(true));
    QueryEngine all_plans = QueryEngine::Borrow(db, RouteOptions(false));
    auto a = single.Run(*q);
    auto b = all_plans.Run(*q);
    if (!a.ok() || !b.ok()) {
      std::printf("FAIL: k=%d run failed\n", k);
      return 1;
    }
    bool interior = false;
    for (const auto& ans : a->answers) {
      interior = interior || (ans.score > 0.0 && ans.score < 1.0);
    }
    if (!interior) {
      std::printf("FAIL: k=%d instance is degenerate (%zu answers, none "
                  "with a score strictly inside (0,1))\n",
                  k, a->answers.size());
      return 1;
    }
    if (!a->exact || a->num_minimal_plans != 1 || !b->exact ||
        b->num_minimal_plans != 1) {
      std::printf("FAIL: k=%d not compiled to an exact safe plan\n", k);
      return 1;
    }
    if (a->answers.size() != b->answers.size()) {
      std::printf("FAIL: k=%d answer count diverges across routes\n", k);
      return 1;
    }
    for (size_t i = 0; i < a->answers.size(); ++i) {
      if (!(a->answers[i].tuple == b->answers[i].tuple) ||
          a->answers[i].score != b->answers[i].score) {
        std::printf("FAIL: k=%d rankings diverge across routes\n", k);
        return 1;
      }
    }
    std::printf("k=%-2d P(q) = %.17g on both routes\n", k,
                a->answers[0].score);
  }
  std::printf("bit-identity: single-plan == all-plans rankings "
              "(k=4,8,12), exact=true, 1 minimal plan\n\n");

  // -- Compile cost: lifted linear walk vs Gosper + lattice ---------------
  PrintHeader({"k", "safe ns", "dissoc ns", "speedup"});
  double safe12 = 0, dissoc12 = 0;
  for (int k : {4, 8, 12}) {
    auto q = ParseQuery(ChainOfContainmentQuery(k), &pool);
    if (!q.ok()) std::abort();
    const double safe_ns = LiftedCompileNs(*q);
    const double dissoc_ns = EnumerationCompileNs(*q);
    if (k == 12) {
      safe12 = safe_ns;
      dissoc12 = dissoc_ns;
    }
    BenchJsonRecord("compile_safe_k" + std::to_string(k), rows, safe_ns);
    BenchJsonRecord("compile_dissoc_k" + std::to_string(k), rows, dissoc_ns);
    PrintRow({std::to_string(k), Fmt(safe_ns), Fmt(dissoc_ns),
              Fmt(dissoc_ns / safe_ns)});
  }
  BenchJsonRecord("compile_speedup_k12", rows, dissoc12 / safe12);

  // -- End-to-end: cold Prepare+Execute at k=12 ---------------------------
  auto q12 = ParseQuery(ChainOfContainmentQuery(12), &pool);
  if (!q12.ok()) std::abort();
  Database db12 = ChainDatabase(12, rows, 2012);
  const double serve_safe = ColdServeNs(db12, *q12, true);
  const double serve_dissoc = ColdServeNs(db12, *q12, false);
  BenchJsonRecord("serve_safe_k12", rows, serve_safe);
  BenchJsonRecord("serve_dissoc_k12", rows, serve_dissoc);
  std::printf("\nend-to-end k=12 cold query: single plan %s, "
              "all plans %s (%.1fx)\n",
              FmtMs(serve_safe / 1e6).c_str(),
              FmtMs(serve_dissoc / 1e6).c_str(), serve_dissoc / serve_safe);

  // The acceptance gate: exact routing must be a strict latency win on the
  // hierarchical workload, not just a semantics win.
  if (serve_safe >= serve_dissoc) {
    std::printf("FAIL: single-plan latency (%.0f ns) not below "
                "all-plans latency (%.0f ns)\n",
                serve_safe, serve_dissoc);
    return 1;
  }

  // -- Unsafe residue: routing must not tax dissociated queries ----------
  {
    auto chain3 = ParseQuery("q() :- A(x), B(x,y), C(y)", &pool);
    if (!chain3.ok()) std::abort();
    SchemaKnowledge none = SchemaKnowledge::None(*chain3);
    // Opt. 1 on: lifted compile (hits the residue) + the enumeration the
    // engine still runs for the plan count. Opt. 1 off: enumeration only.
    const double residue_ns =
        TimeMs(
            [&] {
              auto r = lift::CompileSafePlan(*chain3, none);
              if (!r.ok() || r->exact) std::abort();
              auto plans = EnumerateMinimalPlans(*chain3, none);
              if (!plans.ok()) std::abort();
            },
            20.0, 2000, 3) *
        1e6;
    const double enum_ns =
        TimeMs(
            [&] {
              auto plans = EnumerateMinimalPlans(*chain3, none);
              if (!plans.ok()) std::abort();
            },
            20.0, 2000, 3) *
        1e6;
    BenchJsonRecord("unsafe_residue_prepare", rows, residue_ns);
    std::printf("unsafe 3-chain cold compile: opt1 on %.0f ns, "
                "opt1 off %.0f ns\n",
                residue_ns, enum_ns);
  }

  BenchJsonWrite("micro_safe");
  std::printf("\nOK\n");
  return 0;
}
