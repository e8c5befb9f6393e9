//===- usr/USREval.h - Exact runtime evaluation of USRs --------*- C++ -*-===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Evaluates a USR to a concrete, sorted set of array offsets under given
/// bindings. This serves two roles:
///
///  1. Reference semantics — every property test of the factorization
///     algorithm checks `F(S) true  ==>  evalUSR(S) empty` against this
///     evaluator.
///  2. The paper's *exact* runtime test (Sec. 2.2 / Sec. 5): when the whole
///     predicate cascade fails, independence can still be proven by
///     evaluating the independence USR directly (optionally hoisted and
///     memoized, the HOIST-USR technique); the rt module wraps this.
///
//===----------------------------------------------------------------------===//

#ifndef HALO_USR_USREVAL_H
#define HALO_USR_USREVAL_H

#include "usr/USR.h"

#include <cstdint>
#include <optional>
#include <vector>

namespace halo {
namespace usr {

/// Cost accounting for the RTov measurements. Shared by this reference
/// interpreter and the interval-run bytecode engine (usr/USRCompile.h) so
/// callers can aggregate either path.
struct USREvalStats {
  uint64_t NodesVisited = 0;
  uint64_t PointsMaterialized = 0;
  /// Interval runs produced by compiled leaf evaluation (the compiled
  /// engine's unit of work; the interpreter reports 0).
  uint64_t RunsProduced = 0;
  /// Points the produced runs denote minus the runs it took to represent
  /// them — the enumeration work the run representation avoided relative
  /// to this point-materializing interpreter.
  uint64_t PointsAvoided = 0;
  /// Exact-test evaluations that fell back to this reference interpreter
  /// because CompiledUSR lowering tripped a resource guard (depth or
  /// bytecode-size cap — see pdag/ExprCode.h); bumped by the rt layer's
  /// demotion path, never by the interpreter itself.
  uint64_t GuardDemotions = 0;

  USREvalStats &operator+=(const USREvalStats &O) {
    NodesVisited += O.NodesVisited;
    PointsMaterialized += O.PointsMaterialized;
    RunsProduced += O.RunsProduced;
    PointsAvoided += O.PointsAvoided;
    GuardDemotions += O.GuardDemotions;
    return *this;
  }
};

/// Evaluates \p S to the sorted, deduplicated set of offsets it denotes.
/// Returns nullopt when a symbol is unbound, an array access is out of
/// bounds, or the set exceeds \p Cap points.
std::optional<std::vector<int64_t>>
evalUSR(const USR *S, sym::Bindings &B, size_t Cap = 1u << 22,
        USREvalStats *Stats = nullptr);

/// Emptiness test: true iff the set evaluates to empty. Short-circuits:
/// any provably nonempty contribution at union polarity (a leaf with a
/// positive point count, a nonempty recurrence iteration) decides "not
/// empty" immediately — before materializing anything and before the \p
/// Cap can trigger — since a superset of a nonempty set is nonempty under
/// every extension of the bindings. nullopt only when evaluation fails
/// (unbound symbol, out-of-bounds read, cap exceeded in a sub-evaluation
/// that must be materialized, e.g. an Intersect operand) without earlier
/// nonemptiness evidence.
std::optional<bool> evalUSREmpty(const USR *S, sym::Bindings &B,
                                 size_t Cap = 1u << 22,
                                 USREvalStats *Stats = nullptr);

} // namespace usr
} // namespace halo

#endif // HALO_USR_USREVAL_H
