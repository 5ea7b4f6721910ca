// Input generation for the benchmark's workloads. Everything derives from
// the run's --seed; the engine receives only the generated tables, the
// query texts and their bindings.
#ifndef E2E_BENCH_DATA_H_
#define E2E_BENCH_DATA_H_

#include <memory>
#include <string>
#include <vector>

#include "harness.h"

namespace e2e {

/// The paper's Setup 1 query and two safe variants of it.
inline constexpr const char* kTpchUnsafe =
    "Q(a) :- Supplier(s,a), Partsupp(s,u), Part(u,m)";
inline constexpr const char* kTpchSafeNation =
    "Q(a) :- Supplier(s,a), Partsupp(s,u)";
inline constexpr const char* kTpchSafeSupplier =
    "Q(s) :- Supplier(s,a), Partsupp(s,u), Part(u,m)";

/// The paper's $2 grid.
inline const std::vector<std::string>& TpchPatterns() {
  static const std::vector<std::string> k = {"%red%green%", "%red%", "%"};
  return k;
}

/// A TPC-H-style database plus pre-filtered selection tables: Supplier
/// rows with s_suppkey <= $1 and Part rows with p_name LIKE $2. Selections
/// are bound to queries as content-tagged atom tables.
struct TpchCatalog {
  std::shared_ptr<Database> db;
  int64_t num_suppliers = 0;
  std::vector<int64_t> dollar1;
  std::vector<std::unique_ptr<Table>> suppliers;  // aligned with dollar1
  std::vector<std::unique_ptr<Table>> parts;      // aligned with TpchPatterns()

  std::string SupplierTag(size_t i) const;
  std::string PartTag(size_t i) const;
};

/// Builds the database at `scale` and the selections for $1 at each of
/// `fractions` of the suppkey range.
TpchCatalog MakeTpchCatalog(double scale, uint64_t seed,
                            const std::vector<double>& fractions);

/// Integer tables added to `db` in one writer transaction.
void AddTables(Database* db, std::vector<Table> tables);

/// The controlled-fanout 3-chain q(a) :- A(a,x), B(x,y), C(y): `answers`
/// answers, ~5 x-partners each, 20 y-partners per x (the shape on which
/// certified top-k needs few refinements).
std::vector<Table> MakeFanoutTables(int answers, uint64_t seed);

/// A relation `name` of (up to, after de-duplication) `rows` random rows;
/// column i draws from [1, domains[i]], probabilities from U[0, pi_max].
Table MakeRandomTable(const std::string& name, size_t rows,
                      const std::vector<int64_t>& domains, double pi_max,
                      Rng* rng);

/// Zipf(s) sampler over ranks [0, n).
class Zipf {
 public:
  Zipf(size_t n, double s);
  size_t Sample(Rng* rng) const;

 private:
  std::vector<double> cdf_;
};

}  // namespace e2e

#endif  // E2E_BENCH_DATA_H_
