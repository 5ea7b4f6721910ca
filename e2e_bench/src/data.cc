#include "data.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace e2e {

using namespace dissodb;  // NOLINT

std::string TpchCatalog::SupplierTag(size_t i) const {
  return "supplier:suppkey<=" + std::to_string(dollar1[i]);
}

std::string TpchCatalog::PartTag(size_t i) const {
  return "part:name~" + TpchPatterns()[i];
}

TpchCatalog MakeTpchCatalog(double scale, uint64_t seed,
                            const std::vector<double>& fractions) {
  TpchCatalog c;
  TpchOptions opts;
  opts.scale = scale;
  opts.seed = seed;
  c.db = std::make_shared<Database>(MakeTpchDatabase(opts));
  const Table& supplier = **c.db->GetTable("Supplier");
  const Table& part = **c.db->GetTable("Part");
  c.num_suppliers = static_cast<int64_t>(supplier.NumRows());
  for (double f : fractions) {
    const int64_t d1 = std::clamp<int64_t>(
        std::llround(f * static_cast<double>(c.num_suppliers)), 1,
        c.num_suppliers);
    c.dollar1.push_back(d1);
    c.suppliers.push_back(std::make_unique<Table>(supplier.Filter(
        [d1](std::span<const Value> row) { return row[0].AsInt64() <= d1; })));
  }
  const StringPool& pool = std::as_const(*c.db).strings();
  for (const auto& pattern : TpchPatterns()) {
    c.parts.push_back(std::make_unique<Table>(
        part.Filter([&](std::span<const Value> row) {
          return LikeMatch(pool.Get(row[1].AsStringCode()), pattern);
        })));
  }
  return c;
}

void AddTables(Database* db, std::vector<Table> tables) {
  auto w = db->BeginWrite();
  for (auto& t : tables) (void)w.AddTable(std::move(t));
  w.Commit();
}

std::vector<Table> MakeFanoutTables(int answers, uint64_t seed) {
  constexpr int kSuppliersPerAnswer = 5;
  constexpr int kFanout = 20;
  constexpr int64_t kYDomain = 4000;
  constexpr double kPiMax = 0.2;
  Rng rng(seed);
  Table a(RelationSchema::AllInt64("A", 2));
  Table b(RelationSchema::AllInt64("B", 2));
  Table c(RelationSchema::AllInt64("C", 1));
  std::vector<bool> c_added(kYDomain + 1, false);
  int64_t next_x = 1;
  for (int ans = 1; ans <= answers; ++ans) {
    const int suppliers =
        1 + static_cast<int>(rng.NextBounded(2 * kSuppliersPerAnswer - 1));
    for (int s = 0; s < suppliers; ++s) {
      const int64_t x = next_x++;
      a.AddRow({Value::Int64(ans), Value::Int64(x)}, rng.NextDouble() * kPiMax);
      std::vector<bool> used(kYDomain + 1, false);
      for (int f = 0; f < kFanout; ++f) {
        int64_t y = rng.NextInt(1, kYDomain);
        for (int tries = 0; used[y] && tries < 64; ++tries) {
          y = rng.NextInt(1, kYDomain);
        }
        if (used[y]) break;
        used[y] = true;
        b.AddRow({Value::Int64(x), Value::Int64(y)}, rng.NextDouble() * kPiMax);
        if (!c_added[y]) {
          c_added[y] = true;
          c.AddRow({Value::Int64(y)}, rng.NextDouble() * kPiMax);
        }
      }
    }
  }
  std::vector<Table> out;
  out.push_back(std::move(a));
  out.push_back(std::move(b));
  out.push_back(std::move(c));
  return out;
}

Table MakeRandomTable(const std::string& name, size_t rows,
                      const std::vector<int64_t>& domains, double pi_max,
                      Rng* rng) {
  const int arity = static_cast<int>(domains.size());
  Table t(RelationSchema::AllInt64(name, arity));
  std::vector<std::vector<int64_t>> seen(rows, std::vector<int64_t>(arity));
  for (auto& row : seen) {
    for (int c = 0; c < arity; ++c) row[c] = rng->NextInt(1, domains[c]);
  }
  // A probabilistic relation is a set of tuples.
  std::sort(seen.begin(), seen.end());
  seen.erase(std::unique(seen.begin(), seen.end()), seen.end());
  std::vector<Value> vals(arity);
  for (const auto& row : seen) {
    for (int c = 0; c < arity; ++c) vals[c] = Value::Int64(row[c]);
    t.AddRow(vals, rng->NextDouble() * pi_max);
  }
  return t;
}

Zipf::Zipf(size_t n, double s) {
  cdf_.reserve(n);
  double total = 0;
  for (size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
}

size_t Zipf::Sample(Rng* rng) const {
  const double u = rng->NextDouble();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<size_t>(static_cast<size_t>(it - cdf_.begin()),
                          cdf_.size() - 1);
}

}  // namespace e2e
