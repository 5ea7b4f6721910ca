#include "src/query/cuts.h"

#include <algorithm>
#include <functional>

namespace dissodb {

namespace {

constexpr int kMaxEnumVars = 24;

/// Number of components after removing `cut`, counting either all components
/// or only those containing a probabilistic atom.
int ComponentCount(std::span<const WorkAtom> atoms, VarMask evars, VarMask cut,
                   bool probabilistic_only) {
  auto comps = ConnectedComponents(atoms, evars & ~cut);
  if (!probabilistic_only) return static_cast<int>(comps.size());
  int n = 0;
  for (const auto& comp : comps) {
    for (int i : comp) {
      if (atoms[i].probabilistic) {
        ++n;
        break;
      }
    }
  }
  return n;
}

/// Enumerates subsets of `evars` in order of increasing popcount, calling
/// `visit(mask)`; if visit returns true the subset is recorded and all its
/// supersets are skipped (when `skip_supersets`).
Result<std::vector<VarMask>> EnumerateMinimal(
    VarMask evars, bool skip_supersets,
    const std::function<bool(VarMask)>& is_member) {
  std::vector<VarId> vars = MaskToVars(evars);
  const int n = static_cast<int>(vars.size());
  if (n > kMaxEnumVars) {
    return Status::OutOfRange("cut enumeration limited to 24 variables, got " +
                              std::to_string(n));
  }
  std::vector<VarMask> found;
  // Enumerate by subset size using the combination-walk trick on local bits,
  // mapping local bit i -> variable vars[i].
  for (int size = 1; size <= n; ++size) {
    // Gosper's hack over local masks of `size` bits out of n.
    uint64_t local = (uint64_t{1} << size) - 1;
    const uint64_t limit = uint64_t{1} << n;
    while (local < limit) {
      VarMask mask = 0;
      uint64_t bits = local;
      while (bits) {
        int b = __builtin_ctzll(bits);
        mask |= MaskOf(vars[b]);
        bits &= bits - 1;
      }
      bool skip = false;
      if (skip_supersets) {
        for (VarMask f : found) {
          if ((f & mask) == f) {
            skip = true;
            break;
          }
        }
      }
      if (!skip && is_member(mask)) found.push_back(mask);
      // Next combination with the same popcount (Gosper).
      uint64_t c = local & (0 - local);
      uint64_t r = local + c;
      if (c == 0) break;
      local = (((r ^ local) >> 2) / c) | r;
    }
  }
  return found;
}

}  // namespace

Result<std::vector<VarMask>> EnumerateCutSets(std::span<const WorkAtom> atoms,
                                              VarMask evars) {
  return EnumerateMinimal(evars, /*skip_supersets=*/false, [&](VarMask cut) {
    return ComponentCount(atoms, evars, cut, /*probabilistic_only=*/false) >= 2;
  });
}

Result<std::vector<VarMask>> MinCuts(std::span<const WorkAtom> atoms,
                                     VarMask evars) {
  return EnumerateMinimal(evars, /*skip_supersets=*/true, [&](VarMask cut) {
    return ComponentCount(atoms, evars, cut, /*probabilistic_only=*/false) >= 2;
  });
}

Result<std::vector<VarMask>> MinPCuts(std::span<const WorkAtom> atoms,
                                      VarMask evars) {
  return EnumerateMinimal(evars, /*skip_supersets=*/true, [&](VarMask cut) {
    return ComponentCount(atoms, evars, cut, /*probabilistic_only=*/true) >= 2;
  });
}

bool SeparatorIsTheCut(std::span<const WorkAtom> atoms, VarMask evars,
                       VarMask sep, bool probabilistic_only) {
  return sep != 0 &&
         ComponentCount(atoms, evars, sep, probabilistic_only) >= 2;
}

}  // namespace dissodb
