//===- usr/USREval.cpp - Exact runtime evaluation of USRs -----------------===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "usr/USREval.h"

#include "pdag/PredEval.h"
#include "support/Error.h"

#include <algorithm>

using namespace halo;
using namespace halo::usr;

namespace {

using PointSet = std::vector<int64_t>; // Sorted, unique.

void normalize(PointSet &S) {
  std::sort(S.begin(), S.end());
  S.erase(std::unique(S.begin(), S.end()), S.end());
}

PointSet setIntersect(const PointSet &A, const PointSet &B) {
  PointSet Out;
  std::set_intersection(A.begin(), A.end(), B.begin(), B.end(),
                        std::back_inserter(Out));
  return Out;
}

PointSet setSubtract(const PointSet &A, const PointSet &B) {
  PointSet Out;
  std::set_difference(A.begin(), A.end(), B.begin(), B.end(),
                      std::back_inserter(Out));
  return Out;
}

/// Deduplicating accumulator for Union/Recur results: child sets are
/// buffered and folded in O(T log T) batches (sort-once + unique) instead
/// of the former `Acc = setUnion(Acc, *V)` per child, which re-walked the
/// whole accumulated set per iteration (quadratic over a recurrence).
/// Compaction triggers once the pending raw size reaches the accumulated
/// size, so total work stays linearithmic in the points seen. The Cap
/// check moves from per-child prefixes to compaction points: the
/// deduplicated prefix cardinality is monotone in the number of children,
/// so "some prefix exceeds Cap" and "the compacted set exceeds Cap" fail
/// on exactly the same inputs.
class SetAccumulator {
public:
  /// Folds \p V in; false when the deduplicated cardinality exceeds Cap.
  bool add(PointSet V, size_t Cap) {
    PendingRaw += V.size();
    Pending.push_back(std::move(V));
    if (PendingRaw >= std::max<size_t>(Acc.size(), 1024))
      return compact(Cap);
    return true;
  }

  /// Final compaction; nullopt when the set exceeds Cap.
  std::optional<PointSet> take(size_t Cap) {
    if (!compact(Cap))
      return std::nullopt;
    return std::move(Acc);
  }

private:
  bool compact(size_t Cap) {
    if (!Pending.empty()) {
      bool Sorted = true;
      Acc.reserve(Acc.size() + PendingRaw);
      for (PointSet &P : Pending) {
        if (!P.empty() && !Acc.empty() && Acc.back() > P.front())
          Sorted = false;
        Acc.insert(Acc.end(), P.begin(), P.end());
      }
      // Recurrences over monotone data append in order: the concatenation
      // is already sorted and the sort is skipped.
      if (!Sorted)
        std::sort(Acc.begin(), Acc.end());
      Acc.erase(std::unique(Acc.begin(), Acc.end()), Acc.end());
      Pending.clear();
      PendingRaw = 0;
    }
    return Acc.size() <= Cap;
  }

  PointSet Acc;
  std::vector<PointSet> Pending;
  size_t PendingRaw = 0;
};

std::optional<PointSet> evalImpl(const USR *S, sym::Bindings &B, size_t Cap,
                                 USREvalStats *Stats) {
  if (Stats)
    ++Stats->NodesVisited;
  switch (S->getKind()) {
  case USRKind::Empty:
    return PointSet{};
  case USRKind::Leaf: {
    PointSet Out;
    for (const lmad::LMAD &L : cast<LeafUSR>(S)->getLMADs())
      if (!lmad::enumerate(L, B, Out, Cap))
        return std::nullopt;
    if (Out.size() > Cap)
      return std::nullopt;
    normalize(Out);
    if (Stats)
      Stats->PointsMaterialized += Out.size();
    return Out;
  }
  case USRKind::Union: {
    SetAccumulator Acc;
    for (const USR *C : cast<UnionUSR>(S)->getChildren()) {
      auto V = evalImpl(C, B, Cap, Stats);
      if (!V)
        return std::nullopt;
      if (!Acc.add(std::move(*V), Cap))
        return std::nullopt;
    }
    return Acc.take(Cap);
  }
  case USRKind::Intersect:
  case USRKind::Subtract: {
    const auto *Bin = cast<BinaryUSR>(S);
    auto L = evalImpl(Bin->getLHS(), B, Cap, Stats);
    if (!L)
      return std::nullopt;
    if (L->empty())
      return PointSet{};
    auto R = evalImpl(Bin->getRHS(), B, Cap, Stats);
    if (!R)
      return std::nullopt;
    return Bin->isIntersect() ? setIntersect(*L, *R) : setSubtract(*L, *R);
  }
  case USRKind::Gate: {
    const auto *G = cast<GateUSR>(S);
    auto Cond = pdag::tryEvalPred(G->getGate(), B);
    if (!Cond)
      return std::nullopt;
    if (!*Cond)
      return PointSet{};
    return evalImpl(G->getChild(), B, Cap, Stats);
  }
  case USRKind::CallSite:
    return evalImpl(cast<CallSiteUSR>(S)->getChild(), B, Cap, Stats);
  case USRKind::Recur: {
    const auto *R = cast<RecurUSR>(S);
    auto Lo = sym::tryEval(R->getLo(), B);
    auto Hi = sym::tryEval(R->getHi(), B);
    if (!Lo || !Hi)
      return std::nullopt;
    auto Saved = B.scalar(R->getVar());
    SetAccumulator Acc;
    bool Ok = true;
    for (int64_t I = *Lo; I <= *Hi; ++I) {
      B.setScalar(R->getVar(), I);
      auto V = evalImpl(R->getBody(), B, Cap, Stats);
      if (!V || !Acc.add(std::move(*V), Cap)) {
        Ok = false;
        break;
      }
    }
    // Restore the caller's binding exactly (erasing when the variable was
    // unbound): a leaked last-iteration value would change the caller's
    // bindings, and with them every key built from those bindings.
    if (Saved)
      B.setScalar(R->getVar(), *Saved);
    else
      B.clearScalar(R->getVar());
    if (!Ok)
      return std::nullopt;
    return Acc.take(Cap);
  }
  }
  halo_unreachable("covered switch");
}

/// The emptiness-only walk. Every node here sits at *union polarity*: its
/// nonemptiness implies the root set is nonempty (the root is reached
/// through Union children, Gate/CallSite bodies and Recur iterations
/// only), so a positive point count anywhere decides "not empty" without
/// materializing a single offset and without any cap. Intersect/Subtract
/// operands do not have that property — their operand sets must be
/// materialized — so those sub-evaluations go through the full (capped)
/// evaluator. The compiled engine (usr/USRCompile.h) implements this walk
/// over interval runs with the same traversal order, so the two agree on
/// every input, including which of nullopt / "not empty" wins when both a
/// failure and nonemptiness evidence exist (first in traversal order
/// wins).
std::optional<bool> emptyImpl(const USR *S, sym::Bindings &B, size_t Cap,
                              USREvalStats *Stats) {
  if (Stats)
    ++Stats->NodesVisited;
  switch (S->getKind()) {
  case USRKind::Empty:
    return true;
  case USRKind::Leaf: {
    // Mirrors lmad::enumerate's evaluation order (offset, then dims) so
    // failure cases agree with the materializing path; only the point
    // count matters, so nothing is enumerated and no cap applies.
    for (const lmad::LMAD &L : cast<LeafUSR>(S)->getLMADs()) {
      if (!sym::tryEval(L.offset(), B))
        return std::nullopt;
      bool Contributes = true;
      for (const lmad::Dim &D : L.dims()) {
        auto St = sym::tryEval(D.Stride, B);
        auto Sp = sym::tryEval(D.Span, B);
        if (!St || !Sp || *St < 0)
          return std::nullopt;
        if (*Sp < 0) { // Empty dimension: the LMAD denotes no points.
          Contributes = false;
          break;
        }
      }
      if (Contributes)
        return false;
    }
    return true;
  }
  case USRKind::Union: {
    for (const USR *C : cast<UnionUSR>(S)->getChildren()) {
      auto R = emptyImpl(C, B, Cap, Stats);
      if (!R || !*R)
        return R;
    }
    return true;
  }
  case USRKind::Intersect:
  case USRKind::Subtract: {
    auto V = evalImpl(S, B, Cap, Stats);
    if (!V)
      return std::nullopt;
    return V->empty();
  }
  case USRKind::Gate: {
    const auto *G = cast<GateUSR>(S);
    auto Cond = pdag::tryEvalPred(G->getGate(), B);
    if (!Cond)
      return std::nullopt;
    if (!*Cond)
      return true;
    return emptyImpl(G->getChild(), B, Cap, Stats);
  }
  case USRKind::CallSite:
    return emptyImpl(cast<CallSiteUSR>(S)->getChild(), B, Cap, Stats);
  case USRKind::Recur: {
    const auto *R = cast<RecurUSR>(S);
    auto Lo = sym::tryEval(R->getLo(), B);
    auto Hi = sym::tryEval(R->getHi(), B);
    if (!Lo || !Hi)
      return std::nullopt;
    auto Saved = B.scalar(R->getVar());
    std::optional<bool> Result = true;
    for (int64_t I = *Lo; I <= *Hi; ++I) {
      B.setScalar(R->getVar(), I);
      Result = emptyImpl(R->getBody(), B, Cap, Stats);
      if (!Result || !*Result)
        break;
    }
    // Restore the caller's binding exactly (erasing when the variable was
    // unbound): a leaked last-iteration value would change the caller's
    // bindings, and with them every key built from those bindings.
    if (Saved)
      B.setScalar(R->getVar(), *Saved);
    else
      B.clearScalar(R->getVar());
    return Result;
  }
  }
  halo_unreachable("covered switch");
}

} // namespace

std::optional<std::vector<int64_t>> usr::evalUSR(const USR *S,
                                                 sym::Bindings &B, size_t Cap,
                                                 USREvalStats *Stats) {
  return evalImpl(S, B, Cap, Stats);
}

std::optional<bool> usr::evalUSREmpty(const USR *S, sym::Bindings &B,
                                      size_t Cap, USREvalStats *Stats) {
  return emptyImpl(S, B, Cap, Stats);
}
