#include "src/exec/semijoin.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <limits>
#include <memory>
#include <numeric>

#include "src/exec/bloom.h"
#include "src/exec/hash_table.h"
#include "src/exec/operators.h"

namespace dissodb {

namespace {

/// Build-side row count at which a semi-join gets a blocked Bloom
/// pre-filter in front of the hash-index probes. Below it the index is
/// cache-resident and the filter is pure overhead.
std::atomic<size_t>& BloomMinBuildRows() {
  static std::atomic<size_t> threshold{[] {
    if (std::getenv("DISSODB_DISABLE_BLOOM") != nullptr) {
      return std::numeric_limits<size_t>::max();
    }
    if (const char* s = std::getenv("DISSODB_BLOOM_MIN_ROWS")) {
      const long long v = std::atoll(s);
      if (v >= 0) return static_cast<size_t>(v);
    }
    return size_t{4096};
  }()};
  return threshold;
}

/// Positions (column indices) of the variables `vars` in atom `atom_idx`,
/// using the first occurrence of each variable.
std::vector<int> VarPositions(const ConjunctiveQuery& q, int atom_idx,
                              const std::vector<VarId>& vars) {
  const Atom& a = q.atom(atom_idx);
  std::vector<int> pos;
  for (VarId v : vars) {
    for (int p = 0; p < a.arity(); ++p) {
      if (a.terms[p].is_var && a.terms[p].var == v) {
        pos.push_back(p);
        break;
      }
    }
  }
  return pos;
}

JoinTree::Edge MakeEdge(const ConjunctiveQuery& q, int a, int b) {
  const std::vector<VarId> vars = MaskToVars(q.AtomMask(a) & q.AtomMask(b));
  return JoinTree::Edge{a, b, VarPositions(q, a, vars),
                        VarPositions(q, b, vars)};
}

/// One atom's surviving rows: every row of `table`, or the ascending row
/// ids in `sel`.
struct AtomRows {
  const Table* table = nullptr;
  bool all = true;
  std::vector<uint32_t> sel;

  size_t size() const { return all ? table->NumRows() : sel.size(); }

  template <typename F>
  void ForEach(F&& f) const {
    if (all) {
      const size_t n = table->NumRows();
      for (size_t r = 0; r < n; ++r) f(static_cast<uint32_t>(r));
    } else {
      for (uint32_t r : sel) f(r);
    }
  }

  void Keep(std::vector<uint32_t> kept) {
    all = false;
    sel = std::move(kept);
  }
};

/// Hash index over one atom's surviving rows at its key columns: chain
/// heads in a flat index, chain links by row id, and a Bloom pre-filter
/// once the build side is large enough.
struct KeyIndex {
  explicit KeyIndex(size_t n) : index(n) {}
  FlatHashIndex index;
  std::unique_ptr<uint32_t[]> next;
  std::unique_ptr<BlockedBloomFilter> bloom;
};

std::unique_ptr<KeyIndex> BuildKeyIndex(const AtomRows& rows,
                                        const HashVector& h,
                                        SemiJoinStats* stats) {
  auto ki = std::make_unique<KeyIndex>(rows.size());
  ki->next.reset(new uint32_t[rows.table->NumRows()]);
  rows.ForEach([&](uint32_t r) {
    uint32_t& head = ki->index.HeadFor(h[r]);
    ki->next[r] = head;
    head = r;
  });
  if (rows.size() >= BloomMinBuildRows().load(std::memory_order_relaxed)) {
    ki->bloom = std::make_unique<BlockedBloomFilter>(rows.size());
    rows.ForEach([&](uint32_t r) { ki->bloom->Add(h[r]); });
    if (stats) ++stats->bloom_filters_built;
  }
  return ki;
}

/// One side of a semi-join: an atom's rows and its key columns.
struct Side {
  AtomRows* rows;
  const std::vector<int>* pos;
};

/// Key equality between rows of two sides. A single key column that is
/// type-uniform on both sides with the same type (every integer-coded join
/// key) compares raw payloads inline; anything else goes through
/// KeysEqual.
class KeyEq {
 public:
  KeyEq(const Side& a, const Side& b)
      : a_(*a.rows->table), ka_(*a.pos), b_(*b.rows->table), kb_(*b.pos) {
    if (ka_.size() == 1) {
      const Column* ca = a_.col(ka_[0]).get();
      const Column* cb = b_.col(kb_[0]).get();
      if (ca->uniform() && cb->uniform() && ca->type() == cb->type()) {
        ca_ = ca;
        cb_ = cb;
      }
    }
  }

  bool operator()(uint32_t ra, uint32_t rb) const {
    if (ca_ != nullptr) return ca_->RawBits(ra) == cb_->RawBits(rb);
    return KeysEqual(a_, ra, ka_, b_, rb, kb_);
  }

 private:
  const Table& a_;
  const std::vector<int>& ka_;
  const Table& b_;
  const std::vector<int>& kb_;
  const Column* ca_ = nullptr;
  const Column* cb_ = nullptr;
};

/// probe := probe ⋉ build, where `ki` indexes build's rows and `h` holds
/// the key hashes of every row of probe's table: keeps the probe rows with
/// a key partner. With `match`, also records for every kept row its first
/// partner on the chain — all build rows of that key follow it there.
/// Returns whether any row was dropped.
bool SemiJoinInto(const Side& probe, const HashVector& h, const Side& build,
                  const KeyIndex& ki, SemiJoinStats* stats,
                  uint32_t* match = nullptr) {
  const KeyEq eq(probe, build);
  std::vector<uint32_t> kept;
  kept.reserve(probe.rows->size());
  // Rows go through the Bloom filter first; survivors' index slots are
  // prefetched a block ahead of the chain walks, so the slot misses overlap
  // across the block. Rows stay in ascending order.
  constexpr size_t kProbeBlock = 64;
  uint32_t block[kProbeBlock];
  size_t nblock = 0;
  size_t bloom_skipped = 0;
  auto walk_block = [&] {
    for (size_t s = 0; s < nblock; ++s) {
      const uint32_t r = block[s];
      for (uint32_t br = ki.index.Find(h[r]); br != FlatHashIndex::kNil;
           br = ki.next[br]) {
        if (eq(r, br)) {
          kept.push_back(r);
          if (match != nullptr) match[r] = br;
          break;
        }
      }
    }
    nblock = 0;
  };
  probe.rows->ForEach([&](uint32_t r) {
    if (ki.bloom != nullptr && !ki.bloom->MayContain(h[r])) {
      ++bloom_skipped;
      return;
    }
    ki.index.PrefetchSlot(h[r]);
    block[nblock++] = r;
    if (nblock == kProbeBlock) walk_block();
  });
  walk_block();
  if (stats) stats->bloom_probes_skipped += bloom_skipped;
  if (kept.size() == probe.rows->size()) return false;
  probe.rows->Keep(std::move(kept));
  return true;
}

/// Yannakakis full reducer over the join forest. Each component is rooted
/// at its largest input. The bottom-up sweep reduces every parent by its
/// child (indexing the child, probing the parent) and records each parent
/// row's first partner; the top-down sweep then reduces every child by its
/// final parent from those records alone — no hashing, no index probes —
/// marking each surviving key's chain of child rows once.
void ReduceForest(const JoinTree& tree, std::vector<AtomRows>* rows,
                  const std::vector<double>& kept_frac, SemiJoinStats* stats) {
  const int m = static_cast<int>(rows->size());
  std::vector<std::vector<int>> adj(m);
  for (size_t e = 0; e < tree.edges.size(); ++e) {
    adj[tree.edges[e].a].push_back(static_cast<int>(e));
    adj[tree.edges[e].b].push_back(static_cast<int>(e));
  }
  std::vector<int> by_size(m);
  std::iota(by_size.begin(), by_size.end(), 0);
  std::stable_sort(by_size.begin(), by_size.end(), [&](int x, int y) {
    return (*rows)[x].size() > (*rows)[y].size();
  });
  // Breadth-first order from each component's root: parents precede their
  // children, so the reverse order is a valid bottom-up sweep. Siblings
  // enter least selective first, so the bottom-up sweep reduces a parent
  // by its most selective child first and later children probe fewer
  // parent rows.
  const auto other = [&](int e, int u) {
    return tree.edges[e].a == u ? tree.edges[e].b : tree.edges[e].a;
  };
  for (int u = 0; u < m; ++u) {
    std::stable_sort(adj[u].begin(), adj[u].end(), [&](int e, int f) {
      return kept_frac[other(e, u)] > kept_frac[other(f, u)];
    });
  }
  std::vector<int> order;
  order.reserve(m);
  std::vector<int> parent_edge(m, -1);
  std::vector<bool> seen(m, false);
  for (int root : by_size) {
    if (seen[root]) continue;
    seen[root] = true;
    order.push_back(root);
    for (size_t k = order.size() - 1; k < order.size(); ++k) {
      const int u = order[k];
      for (int e : adj[u]) {
        const int v = other(e, u);
        if (seen[v]) continue;
        seen[v] = true;
        parent_edge[v] = e;
        order.push_back(v);
      }
    }
  }

  // Per child atom: its side and its parent's side of the tree edge, the
  // chain links of the child's index, and each parent row's first partner.
  struct Link {
    Side child, parent;
    std::unique_ptr<uint32_t[]> next;
    std::unique_ptr<uint32_t[]> match;
  };
  std::vector<Link> links(m);
  for (auto k = order.rbegin(); k != order.rend(); ++k) {
    const int c = *k;
    if (parent_edge[c] < 0) continue;
    const JoinTree::Edge& e = tree.edges[parent_edge[c]];
    const bool c_is_a = e.a == c;
    Link& l = links[c];
    l.child = Side{&(*rows)[c], c_is_a ? &e.pos_a : &e.pos_b};
    l.parent = Side{&(*rows)[c_is_a ? e.b : e.a], c_is_a ? &e.pos_b : &e.pos_a};
    if (l.child.rows->size() == 0 || l.parent.rows->size() == 0) {
      // Nothing joins across this edge: the component's full join is
      // empty, and both ends already are at their final (empty) state.
      l.child.rows->Keep({});
      l.parent.rows->Keep({});
      continue;
    }
    const std::unique_ptr<KeyIndex> index = BuildKeyIndex(
        *l.child.rows, HashKeyColumns(*l.child.rows->table, *l.child.pos),
        stats);
    l.match.reset(new uint32_t[l.parent.rows->table->NumRows()]);
    SemiJoinInto(l.parent, HashKeyColumns(*l.parent.rows->table, *l.parent.pos),
                 l.child, *index, stats, l.match.get());
    l.next = std::move(index->next);
  }
  for (int c : order) {
    Link& l = links[c];
    if (l.match == nullptr) continue;  // a root, or emptied above
    const KeyEq eq(l.parent, l.child);
    std::vector<uint8_t> hit(l.child.rows->table->NumRows(), 0);
    l.parent.rows->ForEach([&](uint32_t r) {
      const uint32_t first = l.match[r];
      if (hit[first]) return;  // this key's rows are marked already
      for (uint32_t cr = first; cr != FlatHashIndex::kNil; cr = l.next[cr]) {
        if (eq(r, cr)) hit[cr] = 1;
      }
    });
    std::vector<uint32_t> kept;
    kept.reserve(l.child.rows->size());
    l.child.rows->ForEach([&](uint32_t r) {
      if (hit[r]) kept.push_back(r);
    });
    if (kept.size() != l.child.rows->size()) l.child.rows->Keep(std::move(kept));
    l.next.reset();
    l.match.reset();
  }
  if (stats) stats->passes = 2;
}

/// Pairwise semi-joins over every sharing atom pair, both directions,
/// until a whole pass drops nothing (cyclic queries). Key hashes are
/// computed once per edge side and reused by every pass.
void ReduceToFixpoint(const JoinTree& tree, std::vector<AtomRows>* rows,
                      SemiJoinStats* stats) {
  const size_t ne = tree.edges.size();
  std::vector<HashVector> ha(ne), hb(ne);
  for (size_t e = 0; e < ne; ++e) {
    const JoinTree::Edge& ed = tree.edges[e];
    ha[e] = HashKeyColumns(*(*rows)[ed.a].table, ed.pos_a);
    hb[e] = HashKeyColumns(*(*rows)[ed.b].table, ed.pos_b);
  }
  int passes = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    ++passes;
    for (size_t e = 0; e < ne; ++e) {
      const JoinTree::Edge& ed = tree.edges[e];
      const Side a{&(*rows)[ed.a], &ed.pos_a};
      const Side b{&(*rows)[ed.b], &ed.pos_b};
      changed |= SemiJoinInto(a, ha[e], b,
                              *BuildKeyIndex(*b.rows, hb[e], stats), stats);
      changed |= SemiJoinInto(b, hb[e], a,
                              *BuildKeyIndex(*a.rows, ha[e], stats), stats);
    }
  }
  if (stats) stats->passes = passes;
}

}  // namespace

JoinTree CompileJoinTree(const ConjunctiveQuery& q) {
  const int m = q.num_atoms();
  JoinTree tree;
  // GYO reduction: alternately drop the variables only one live atom still
  // mentions and the atoms whose remaining variables another live atom
  // covers (that atom becomes their join-tree neighbour). An atom left with
  // no variables closes its component. Acyclic iff every atom goes.
  std::vector<VarMask> left(m);
  std::vector<bool> live(m, true);
  int num_live = m;
  for (int i = 0; i < m; ++i) left[i] = q.AtomMask(i);
  for (bool progress = true; progress && num_live > 0;) {
    progress = false;
    for (int i = 0; i < m; ++i) {
      if (!live[i]) continue;
      VarMask others = 0;
      for (int j = 0; j < m; ++j) {
        if (j != i && live[j]) others |= left[j];
      }
      if (left[i] & ~others) {
        left[i] &= others;
        progress = true;
      }
    }
    for (int i = 0; i < m; ++i) {
      if (!live[i]) continue;
      int cover = -1;
      for (int j = 0; j < m && left[i] != 0; ++j) {
        if (j != i && live[j] && (left[i] & ~left[j]) == 0) {
          cover = j;
          break;
        }
      }
      if (left[i] != 0 && cover < 0) continue;
      if (cover >= 0) tree.edges.push_back(MakeEdge(q, cover, i));
      live[i] = false;
      --num_live;
      progress = true;
    }
  }
  if (num_live == 0) return tree;

  tree.acyclic = false;
  tree.edges.clear();
  for (int i = 0; i < m; ++i) {
    for (int j = i + 1; j < m; ++j) {
      if (q.AtomMask(i) & q.AtomMask(j)) tree.edges.push_back(MakeEdge(q, i, j));
    }
  }
  return tree;
}

void SetSemiJoinBloomMinRowsForTesting(size_t rows) {
  BloomMinBuildRows().store(rows, std::memory_order_relaxed);
}

Result<std::vector<Table>> SemiJoinReduce(
    const Snapshot& snap, const ConjunctiveQuery& q, const JoinTree& tree,
    const std::unordered_map<int, const Table*>& overrides,
    SemiJoinStats* stats) {
  const int m = q.num_atoms();
  for (const JoinTree::Edge& e : tree.edges) {
    if (e.a < 0 || e.a >= m || e.b < 0 || e.b >= m) {
      return Status::InvalidArgument("join tree does not match the query");
    }
  }
  std::vector<AtomRows> rows(m);
  // Fraction of its catalog relation each input keeps (selection override
  // and atom-local filters): orders the semi-joins, most selective first.
  std::vector<double> kept_frac(m, 1.0);
  for (int i = 0; i < m; ++i) {
    const Atom& a = q.atom(i);
    auto base = snap.GetTable(a.relation);
    if (auto it = overrides.find(i); it != overrides.end()) {
      rows[i].table = it->second;
    } else {
      if (!base.ok()) return base.status();
      rows[i].table = *base;
    }
    const Table& src = *rows[i].table;
    if (src.arity() != a.arity()) {
      return Status::InvalidArgument("atom " + a.relation + " arity mismatch");
    }
    // Constant selections and repeated-variable equalities (ScanAtom's
    // semantics) apply first, so they also prune join partners.
    const AtomBinding binding = BindAtom(a);
    if (!binding.checks.empty()) {
      std::vector<uint32_t> sel(src.NumRows());
      std::iota(sel.begin(), sel.end(), 0u);
      for (const auto& c : binding.checks) ApplyAtomCheck(src, c, &sel);
      rows[i].Keep(std::move(sel));
    }
    if (base.ok() && (*base)->NumRows() > 0) {
      kept_frac[i] = static_cast<double>(rows[i].size()) /
                     static_cast<double>((*base)->NumRows());
    }
    if (stats) stats->rows_before.push_back(rows[i].size());
  }

  if (tree.acyclic) {
    ReduceForest(tree, &rows, kept_frac, stats);
  } else {
    ReduceToFixpoint(tree, &rows, stats);
  }

  std::vector<Table> out;
  out.reserve(m);
  for (const AtomRows& r : rows) {
    // Untouched atoms share the source columns zero-copy.
    out.push_back(r.all ? *r.table : r.table->Select(r.sel));
    if (stats) stats->rows_after.push_back(r.size());
  }
  return out;
}

Result<std::vector<Table>> SemiJoinReduce(
    const Snapshot& snap, const ConjunctiveQuery& q,
    const std::unordered_map<int, const Table*>& overrides,
    SemiJoinStats* stats) {
  return SemiJoinReduce(snap, q, CompileJoinTree(q), overrides, stats);
}

}  // namespace dissodb
