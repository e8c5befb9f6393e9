//===- tests/factor_property_test.cpp - Soundness property tests ----------===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
// The central invariant of the whole system (Sec. 3):
//
//     F(S) evaluates to true  ==>  S evaluates to the empty set,
//
// checked against exact USR evaluation over randomized summaries and
// bindings. The same harness checks DISJOINT and INCLUDED, and that the
// UMEG reshaping + simplification pipeline preserves the invariant.
//
//===----------------------------------------------------------------------===//

#include "factor/Factor.h"
#include "pdag/PredEval.h"
#include "pdag/PredSimplify.h"
#include "support/Rng.h"
#include "usr/USREval.h"
#include "usr/USRTransform.h"

#include <gtest/gtest.h>

#include <set>

using namespace halo;
using namespace halo::factor;
using namespace halo::usr;
using pdag::Pred;

namespace {

class FactorSoundness : public ::testing::TestWithParam<uint64_t> {
protected:
  FactorSoundness() : P(Sym), U(Sym, P) {}
  sym::Context Sym;
  pdag::PredContext P;
  USRContext U;

  sym::SymbolId loopVar(int Depth) {
    return Sym.symbol("rv" + std::to_string(Depth), Depth);
  }

  /// Random symbolic length expression over the scalar pool.
  const sym::Expr *randomExpr(Rng &R, int LoopDepth) {
    const sym::Expr *E = Sym.intConst(R.nextInRange(-2, 6));
    if (R.chance(1, 2))
      E = Sym.add(E, Sym.mulConst(Sym.symRef("a"), R.nextInRange(-1, 2)));
    if (R.chance(1, 3))
      E = Sym.add(E, Sym.mulConst(Sym.symRef("b"), R.nextInRange(-1, 2)));
    if (LoopDepth > 0 && R.chance(1, 2)) {
      if (R.chance(1, 2)) {
        sym::SymbolId IB = Sym.symbol("IB", 0, true);
        E = Sym.add(E, Sym.arrayRef(IB, Sym.symRef(loopVar(LoopDepth))));
      } else {
        E = Sym.add(E, Sym.mulConst(Sym.symRef(loopVar(LoopDepth)),
                                    R.nextInRange(1, 3)));
      }
    }
    return E;
  }

  const Pred *randomGate(Rng &R, int LoopDepth) {
    const sym::Expr *E = randomExpr(R, LoopDepth);
    return R.chance(1, 2) ? P.ge0(E) : P.ne0(E);
  }

  const USR *randomUSR(Rng &R, int Depth, int LoopDepth) {
    if (Depth <= 0 || R.chance(1, 4)) {
      // Leaf: interval or strided LMAD.
      const sym::Expr *Off = randomExpr(R, LoopDepth);
      if (R.chance(1, 3)) {
        int64_t Stride = R.nextInRange(2, 4);
        int64_t Count = R.nextInRange(1, 4);
        return U.leaf(lmad::LMAD::makeStrided(
            Sym.intConst(Stride), Sym.intConst(Stride * (Count - 1)), Off));
      }
      return U.interval(Off, Sym.intConst(R.nextInRange(0, 6)));
    }
    switch (R.nextBelow(6)) {
    case 0:
      return U.union2(randomUSR(R, Depth - 1, LoopDepth),
                      randomUSR(R, Depth - 1, LoopDepth));
    case 1:
      return U.intersect(randomUSR(R, Depth - 1, LoopDepth),
                         randomUSR(R, Depth - 1, LoopDepth));
    case 2:
      return U.subtract(randomUSR(R, Depth - 1, LoopDepth),
                        randomUSR(R, Depth - 1, LoopDepth));
    case 3:
      return U.gate(randomGate(R, LoopDepth),
                    randomUSR(R, Depth - 1, LoopDepth));
    case 4: {
      sym::SymbolId V = loopVar(LoopDepth + 1);
      return U.recur(V, Sym.intConst(1), Sym.symRef("n"),
                     randomUSR(R, Depth - 1, LoopDepth + 1));
    }
    default:
      return randomUSR(R, Depth - 1, LoopDepth);
    }
  }

  sym::Bindings randomBindings(Rng &R) {
    sym::Bindings B;
    B.setScalar(Sym.symbol("a"), R.nextInRange(-3, 5));
    B.setScalar(Sym.symbol("b"), R.nextInRange(-3, 5));
    B.setScalar(Sym.symbol("n"), R.nextInRange(0, 5));
    sym::ArrayBinding A;
    A.Lo = 1;
    for (int I = 0; I < 8; ++I)
      A.Vals.push_back(R.nextInRange(-3, 12));
    B.setArray(Sym.symbol("IB", 0, true), A);
    return B;
  }
};

TEST_P(FactorSoundness, FactorImpliesEmpty) {
  Rng R(GetParam());
  for (int Trial = 0; Trial < 12; ++Trial) {
    const USR *S = randomUSR(R, 3, 0);
    Factorizer F(U);
    const Pred *Pr = F.factor(S);
    for (int BTrial = 0; BTrial < 12; ++BTrial) {
      sym::Bindings B = randomBindings(R);
      auto PV = pdag::tryEvalPred(Pr, B);
      if (!PV || !*PV)
        continue;
      auto SV = evalUSR(S, B);
      ASSERT_TRUE(SV.has_value());
      EXPECT_TRUE(SV->empty())
          << "F(S) true but S nonempty\nS: " << S->toString(Sym)
          << "\nF(S): " << Pr->toString(Sym);
    }
  }
}

TEST_P(FactorSoundness, FactorSurvivesSimplifyAndCascade) {
  Rng R(GetParam() ^ 0x1111);
  for (int Trial = 0; Trial < 8; ++Trial) {
    const USR *S = randomUSR(R, 3, 0);
    Factorizer F(U);
    const Pred *Pr = F.factor(S);
    auto Stages = pdag::buildCascade(P, pdag::simplify(P, Pr));
    for (int BTrial = 0; BTrial < 8; ++BTrial) {
      sym::Bindings B = randomBindings(R);
      for (const auto &St : Stages) {
        auto PV = pdag::tryEvalPred(St.P, B);
        if (!PV || !*PV)
          continue;
        auto SV = evalUSR(S, B);
        ASSERT_TRUE(SV.has_value());
        EXPECT_TRUE(SV->empty())
            << "cascade stage true but S nonempty\nS: " << S->toString(Sym)
            << "\nstage: " << St.P->toString(Sym);
      }
    }
  }
}

TEST_P(FactorSoundness, FactorAfterUMEGReshapeStillSound) {
  Rng R(GetParam() ^ 0x2222);
  for (int Trial = 0; Trial < 8; ++Trial) {
    const USR *S = randomUSR(R, 3, 0);
    const USR *Reshaped = reshapeUMEG(U, S);
    Factorizer F(U);
    const Pred *Pr = F.factor(Reshaped);
    for (int BTrial = 0; BTrial < 8; ++BTrial) {
      sym::Bindings B = randomBindings(R);
      auto PV = pdag::tryEvalPred(Pr, B);
      if (!PV || !*PV)
        continue;
      auto SV = evalUSR(S, B); // Original semantics!
      ASSERT_TRUE(SV.has_value());
      EXPECT_TRUE(SV->empty());
    }
  }
}

TEST_P(FactorSoundness, DisjointImpliesEmptyIntersection) {
  Rng R(GetParam() ^ 0x3333);
  for (int Trial = 0; Trial < 10; ++Trial) {
    const USR *A = randomUSR(R, 2, 0);
    const USR *B = randomUSR(R, 2, 0);
    Factorizer F(U);
    const Pred *Pr = F.disjoint(A, B);
    for (int BTrial = 0; BTrial < 10; ++BTrial) {
      sym::Bindings Bd = randomBindings(R);
      auto PV = pdag::tryEvalPred(Pr, Bd);
      if (!PV || !*PV)
        continue;
      auto VA = evalUSR(A, Bd);
      auto VB = evalUSR(B, Bd);
      ASSERT_TRUE(VA.has_value() && VB.has_value());
      std::set<int64_t> SB(VB->begin(), VB->end());
      for (int64_t X : *VA)
        EXPECT_FALSE(SB.count(X))
            << "disjoint claimed but share " << X << "\nA: "
            << A->toString(Sym) << "\nB: " << B->toString(Sym)
            << "\npred: " << Pr->toString(Sym);
    }
  }
}

TEST_P(FactorSoundness, IncludedImpliesSubset) {
  Rng R(GetParam() ^ 0x4444);
  for (int Trial = 0; Trial < 10; ++Trial) {
    const USR *A = randomUSR(R, 2, 0);
    const USR *B = randomUSR(R, 2, 0);
    Factorizer F(U);
    const Pred *Pr = F.included(A, B);
    for (int BTrial = 0; BTrial < 10; ++BTrial) {
      sym::Bindings Bd = randomBindings(R);
      auto PV = pdag::tryEvalPred(Pr, Bd);
      if (!PV || !*PV)
        continue;
      auto VA = evalUSR(A, Bd);
      auto VB = evalUSR(B, Bd);
      ASSERT_TRUE(VA.has_value() && VB.has_value());
      std::set<int64_t> SB(VB->begin(), VB->end());
      for (int64_t X : *VA)
        EXPECT_TRUE(SB.count(X))
            << "inclusion claimed but " << X << " not in B\nA: "
            << A->toString(Sym) << "\nB: " << B->toString(Sym);
    }
  }
}

TEST_P(FactorSoundness, FactorIsNotVacuous) {
  // Anti-vacuity: on summaries that are definitely empty by construction
  // (S - S over random S), the factorization must prove it statically.
  Rng R(GetParam() ^ 0x5555);
  for (int Trial = 0; Trial < 10; ++Trial) {
    const USR *S = randomUSR(R, 2, 0);
    Factorizer F(U);
    EXPECT_TRUE(F.factor(U.subtract(S, S))->isTrue());
    EXPECT_TRUE(F.included(S, S)->isTrue());
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, FactorSoundness,
                         ::testing::Range<uint64_t>(1, 25));

} // namespace
