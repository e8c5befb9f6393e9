//===- sym/Eval.h - Concrete evaluation of symbolic expressions -*- C++ -*-===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Bindings map symbols to runtime values (scalars and integer index
/// arrays); the evaluator computes the concrete value of an expression.
/// This is the mechanism behind every *dynamic* test in the paper: the
/// extracted predicate program is interpreted against the loop's live-in
/// values instead of being compiled to Fortran.
///
//===----------------------------------------------------------------------===//

#ifndef HALO_SYM_EVAL_H
#define HALO_SYM_EVAL_H

#include "sym/Expr.h"

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

namespace halo {
namespace sym {

/// Runtime value of an index array: Fortran-style, indexed from Lo.
struct ArrayBinding {
  int64_t Lo = 1;
  std::vector<int64_t> Vals;

  bool inBounds(int64_t I) const {
    return I >= Lo && I < Lo + static_cast<int64_t>(Vals.size());
  }
  int64_t at(int64_t I) const { return Vals[static_cast<size_t>(I - Lo)]; }
};

/// Maps symbols to concrete runtime values. Index arrays are held behind
/// shared immutable storage so copying a Bindings (one per worker thread
/// in the parallel executor) is cheap.
class Bindings {
public:
  void setScalar(SymbolId S, int64_t V) { Scalars[S] = V; }
  void clearScalar(SymbolId S) { Scalars.erase(S); }
  void setArray(SymbolId S, ArrayBinding A) {
    Arrays[S] = std::make_shared<ArrayBinding>(std::move(A));
  }
  /// Binds \p S to already-shared immutable storage (zero-copy: the
  /// runtime-test memo republishes stored CIV arrays through this).
  void setArray(SymbolId S, std::shared_ptr<const ArrayBinding> A) {
    Arrays[S] = std::move(A);
  }

  std::optional<int64_t> scalar(SymbolId S) const {
    auto It = Scalars.find(S);
    if (It == Scalars.end())
      return std::nullopt;
    return It->second;
  }
  const ArrayBinding *array(SymbolId S) const {
    auto It = Arrays.find(S);
    return It == Arrays.end() ? nullptr : It->second.get();
  }
  /// The shared storage behind array(S), or null when unbound.
  std::shared_ptr<const ArrayBinding> sharedArray(SymbolId S) const {
    auto It = Arrays.find(S);
    return It == Arrays.end() ? nullptr : It->second;
  }

  size_t numScalars() const { return Scalars.size(); }
  size_t numArrays() const { return Arrays.size(); }
  /// Calls \p F(SymbolId, int64_t) for every bound scalar, in
  /// unspecified order.
  template <typename Fn> void forEachScalar(Fn &&F) const {
    for (const auto &KV : Scalars)
      F(KV.first, KV.second);
  }
  /// Calls \p F(SymbolId, const std::shared_ptr<const ArrayBinding> &) for
  /// every bound array, in unspecified order.
  template <typename Fn> void forEachArray(Fn &&F) const {
    for (const auto &KV : Arrays)
      F(KV.first, KV.second);
  }

private:
  std::unordered_map<SymbolId, int64_t> Scalars;
  std::unordered_map<SymbolId, std::shared_ptr<const ArrayBinding>> Arrays;
};

/// Evaluates \p E under \p B; returns nullopt when a symbol is unbound or an
/// array access is out of bounds.
std::optional<int64_t> tryEval(const Expr *E, const Bindings &B);

/// Evaluates \p E under \p B; asserts that evaluation succeeds.
int64_t eval(const Expr *E, const Bindings &B);

} // namespace sym
} // namespace halo

#endif // HALO_SYM_EVAL_H
