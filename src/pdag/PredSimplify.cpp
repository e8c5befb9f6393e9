//===- pdag/PredSimplify.cpp - Predicate simplification & cascade ---------===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "pdag/PredSimplify.h"

#include "support/Error.h"
#include "support/Hashing.h"

#include <algorithm>
#include <map>
#include <unordered_map>
#include <unordered_set>

using namespace halo;
using namespace halo::pdag;

namespace {

class Simplifier {
public:
  explicit Simplifier(PredContext &Ctx) : Ctx(Ctx) {}

  /// simplify(): a global fixpoint over a few rounds. A rewrite is a pure
  /// function of the interned node, so one memo serves every round (and
  /// every stage of a cascade).
  const Pred *run(const Pred *P) {
    const Pred *R = visit(P);
    for (int I = 0; I < 3; ++I) {
      const Pred *Next = visit(R);
      if (Next == R)
        break;
      R = Next;
    }
    return R;
  }

private:
  const Pred *visit(const Pred *P) {
    auto It = Memo.find(P);
    if (It != Memo.end())
      return It->second;
    const Pred *R = rewrite(P);
    // Local fixpoint: rewriting can expose further opportunities.
    for (int I = 0; I < 4 && R != P; ++I) {
      const Pred *Next = rewrite(R);
      if (Next == R)
        break;
      R = Next;
    }
    Memo.emplace(P, R);
    return R;
  }

  const Pred *rewrite(const Pred *P) {
    switch (P->getKind()) {
    case PredKind::True:
    case PredKind::False:
    case PredKind::Cmp:
    case PredKind::Divides:
      return P;
    case PredKind::And:
    case PredKind::Or:
      return rewriteNary(cast<NaryPred>(P));
    case PredKind::LoopAll:
      return rewriteLoop(cast<LoopAllPred>(P));
    case PredKind::CallSite: {
      const auto *S = cast<CallSitePred>(P);
      return Ctx.callSite(S->getCallee(), visit(S->getBody()));
    }
    }
    halo_unreachable("covered switch");
  }

  /// Common-factor extraction (an equivalence, by distributivity):
  ///   And(Or(I u R1), ..., Or(I u Rn)) == Or(I) or And(Or(R1)...Or(Rn))
  /// and dually for Or of Ands.
  const Pred *rewriteNary(const NaryPred *N) {
    std::vector<const Pred *> Cs;
    Cs.reserve(N->getChildren().size());
    for (const Pred *C : N->getChildren())
      Cs.push_back(visit(C));
    const bool IsAnd = N->isAnd();
    const Pred *Rebuilt = IsAnd ? Ctx.andN(Cs) : Ctx.orN(Cs);
    const auto *RN = dyn_cast<NaryPred>(Rebuilt);
    if (!RN || RN->isAnd() != IsAnd)
      return Rebuilt;

    const PredKind DualK = IsAnd ? PredKind::Or : PredKind::And;
    // Factor only when every child is a dual-kind node; otherwise a bare
    // child C would force the common set to {C} trivially.
    auto DualChildren = [&](const Pred *C) -> std::vector<const Pred *> {
      if (C->getKind() == DualK)
        return cast<NaryPred>(C)->getChildren();
      return {C};
    };
    // Compute the intersection of all children's dual-child sets.
    std::vector<const Pred *> Common = DualChildren(RN->getChildren()[0]);
    std::sort(Common.begin(), Common.end());
    for (size_t I = 1; I < RN->getChildren().size() && !Common.empty(); ++I) {
      std::vector<const Pred *> Next = DualChildren(RN->getChildren()[I]);
      std::sort(Next.begin(), Next.end());
      std::vector<const Pred *> Inter;
      std::set_intersection(Common.begin(), Common.end(), Next.begin(),
                            Next.end(), std::back_inserter(Inter));
      Common = std::move(Inter);
    }
    if (Common.empty())
      return Rebuilt;
    std::unordered_set<const Pred *> CommonSet(Common.begin(), Common.end());

    std::vector<const Pred *> Reduced;
    Reduced.reserve(RN->getChildren().size());
    for (const Pred *C : RN->getChildren()) {
      std::vector<const Pred *> Rest;
      for (const Pred *D : DualChildren(C))
        if (!CommonSet.count(D))
          Rest.push_back(D);
      Reduced.push_back(IsAnd ? Ctx.orN(std::move(Rest))
                              : Ctx.andN(std::move(Rest)));
    }
    const Pred *CommonP =
        IsAnd ? Ctx.orN(std::move(Common)) : Ctx.andN(std::move(Common));
    const Pred *Residual =
        IsAnd ? Ctx.andN(std::move(Reduced)) : Ctx.orN(std::move(Reduced));
    return IsAnd ? Ctx.or2(CommonP, Residual) : Ctx.and2(CommonP, Residual);
  }

  /// LoopAll distribution and invariant hoisting (both equivalences):
  ///   ALL_i (A and B)       == ALL_i A  and  ALL_i B
  ///   ALL_i (Inv or B_i)    == Inv or ALL_i B_i
  const Pred *rewriteLoop(const LoopAllPred *L) {
    const Pred *Body = visit(L->getBody());
    sym::SymbolId Var = L->getVar();

    if (const auto *A = dyn_cast<NaryPred>(Body); A && A->isAnd()) {
      std::vector<const Pred *> Parts;
      Parts.reserve(A->getChildren().size());
      for (const Pred *C : A->getChildren())
        Parts.push_back(visit(Ctx.loopAll(Var, L->getLo(), L->getHi(), C)));
      return Ctx.andN(std::move(Parts));
    }

    if (const auto *O = dyn_cast<NaryPred>(Body); O && !O->isAnd()) {
      std::vector<const Pred *> Inv, Variant;
      for (const Pred *C : O->getChildren())
        (C->dependsOn(Var) ? Variant : Inv).push_back(C);
      if (!Inv.empty() && !Variant.empty()) {
        const Pred *Rest =
            Ctx.loopAll(Var, L->getLo(), L->getHi(), Ctx.orN(std::move(Variant)));
        Inv.push_back(visit(Rest));
        return Ctx.orN(std::move(Inv));
      }
    }

    return Ctx.loopAll(Var, L->getLo(), L->getHi(), Body);
  }

  PredContext &Ctx;
  std::unordered_map<const Pred *, const Pred *> Memo;
};

/// Implements strengthenToDepth: a recursive strengthening where leaves
/// depending on a "forbidden" (eliminated loop) variable become false, and
/// LoopAll nodes beyond the depth budget dissolve into their bodies'
/// invariant-sufficient parts.
///
/// The result at a node depends only on (node, remaining budget, forbidden
/// set), so it is memoized on that triple: the factorizer's predicates
/// share subterms heavily, and a tree walk over the shared DAG is
/// exponential in its depth. One instance serves every depth of a cascade;
/// a node reached at the same budget from two depths is strengthened once.
class Strengthener {
public:
  explicit Strengthener(PredContext &Ctx) : Ctx(Ctx) {
    SetIds.emplace(Forbidden, 0);
  }

  const Pred *run(const Pred *P, int MaxDepth) { return visit(P, MaxDepth); }

private:
  /// Forbidden sets are interned to small ids: a var is added only when
  /// the budget is spent, so the set is empty whenever Budget > 0.
  struct Key {
    const Pred *P;
    int Budget;
    uint32_t Set;
    bool operator==(const Key &O) const {
      return P == O.P && Budget == O.Budget && Set == O.Set;
    }
  };
  struct KeyHash {
    size_t operator()(const Key &K) const {
      size_t H = std::hash<const Pred *>{}(K.P);
      hashCombine(H, static_cast<size_t>(K.Budget));
      hashCombine(H, static_cast<size_t>(K.Set));
      return H;
    }
  };

  const Pred *visit(const Pred *P, int Budget) {
    const Key K{P, Budget, CurSet};
    auto It = Memo.find(K);
    if (It != Memo.end())
      return It->second;
    const Pred *R = strengthen(P, Budget);
    Memo.emplace(K, R);
    return R;
  }

  bool dependsOnForbidden(const Pred *Q) const {
    for (sym::SymbolId S : Forbidden)
      if (Q->dependsOn(S))
        return true;
    return false;
  }

  const Pred *strengthen(const Pred *P, int Budget) {
    switch (P->getKind()) {
    case PredKind::True:
    case PredKind::False:
      return P;
    case PredKind::Cmp:
    case PredKind::Divides:
      return dependsOnForbidden(P) ? Ctx.getFalse() : P;
    case PredKind::And:
    case PredKind::Or: {
      const auto *N = cast<NaryPred>(P);
      std::vector<const Pred *> Cs;
      Cs.reserve(N->getChildren().size());
      for (const Pred *C : N->getChildren())
        Cs.push_back(visit(C, Budget));
      return N->isAnd() ? Ctx.andN(std::move(Cs)) : Ctx.orN(std::move(Cs));
    }
    case PredKind::LoopAll: {
      const auto *L = cast<LoopAllPred>(P);
      if (dependsOnForbidden(P))
        return Ctx.getFalse(); // Bounds or body mention an eliminated var.
      if (Budget > 0) {
        const Pred *Body = visit(L->getBody(), Budget - 1);
        return Ctx.loopAll(L->getVar(), L->getLo(), L->getHi(), Body);
      }
      // No loop budget left: keep only the parts of the body that hold for
      // every iteration because they do not mention the loop variable.
      return visitForbidding(L->getVar(), L->getBody());
    }
    case PredKind::CallSite:
      // Opaque: cannot be judged cheaper than its own evaluation.
      return dependsOnForbidden(P)
                 ? Ctx.getFalse()
                 : visit(cast<CallSitePred>(P)->getBody(), Budget);
    }
    halo_unreachable("covered switch");
  }

  /// Strengthens \p Body at budget 0 with \p Var added to the forbidden
  /// set.
  const Pred *visitForbidding(sym::SymbolId Var, const Pred *Body) {
    const std::vector<sym::SymbolId> Saved = Forbidden;
    const uint32_t SavedSet = CurSet;
    auto Pos = std::lower_bound(Forbidden.begin(), Forbidden.end(), Var);
    if (Pos == Forbidden.end() || *Pos != Var) {
      Forbidden.insert(Pos, Var);
      CurSet = SetIds.emplace(Forbidden, SetIds.size()).first->second;
    }
    const Pred *R = visit(Body, 0);
    Forbidden = Saved;
    CurSet = SavedSet;
    return R;
  }

  PredContext &Ctx;
  /// The current forbidden set, sorted, and its interned id.
  std::vector<sym::SymbolId> Forbidden;
  uint32_t CurSet = 0;
  std::map<std::vector<sym::SymbolId>, uint32_t> SetIds;
  std::unordered_map<Key, const Pred *, KeyHash> Memo;
};

} // namespace

const Pred *pdag::simplify(PredContext &Ctx, const Pred *P) {
  return Simplifier(Ctx).run(P);
}

const Pred *pdag::strengthenToDepth(PredContext &Ctx, const Pred *P,
                                    int MaxDepth) {
  return simplify(Ctx, Strengthener(Ctx).run(P, MaxDepth));
}

std::vector<CascadeStage> pdag::buildCascade(PredContext &Ctx,
                                             const Pred *Full) {
  std::vector<CascadeStage> Stages;
  if (Full->isFalse())
    return Stages;

  // One memo of each kind spans every depth: the stages are strengthenings
  // of the same DAG and share most of their subterms.
  Strengthener St(Ctx);
  Simplifier Simp(Ctx);
  for (int Depth = 0; Depth < Full->loopDepth(); ++Depth) {
    const Pred *Stage = Simp.run(St.run(Full, Depth));
    if (Stage->isFalse())
      continue;
    // Skip stages identical to an already-emitted cheaper stage.
    if (std::any_of(Stages.begin(), Stages.end(),
                    [Stage](const CascadeStage &S) { return S.P == Stage; }))
      continue;
    Stages.push_back(CascadeStage{Stage, Stage->loopDepth()});
  }
  Stages.push_back(CascadeStage{Full, Full->loopDepth()});
  return Stages;
}
