//===- tests/pdag_simplify_test.cpp - Simplify / cascade / FM tests -------===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "pdag/FourierMotzkin.h"
#include "pdag/PredEval.h"
#include "pdag/PredSimplify.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace halo;
using namespace halo::pdag;

namespace {

class PdagSimplifyTest : public ::testing::Test {
protected:
  PdagSimplifyTest() : P(Sym) {}
  sym::Context Sym;
  PredContext P;
  const sym::Expr *c(int64_t V) { return Sym.intConst(V); }
  const sym::Expr *s(const std::string &N) { return Sym.symRef(N); }
};

TEST_F(PdagSimplifyTest, CommonFactorExtractionAnd) {
  // (A or B1) and (A or B2) == A or (B1 and B2).
  const Pred *A = P.le(s("a"), s("x"));
  const Pred *B1 = P.le(s("b1"), s("x"));
  const Pred *B2 = P.le(s("b2"), s("x"));
  const Pred *In = P.and2(P.or2(A, B1), P.or2(A, B2));
  EXPECT_EQ(simplify(P, In), P.or2(A, P.and2(B1, B2)));
}

TEST_F(PdagSimplifyTest, CommonFactorExtractionOr) {
  // (A and B1) or (A and B2) == A and (B1 or B2).
  const Pred *A = P.le(s("a"), s("x"));
  const Pred *B1 = P.le(s("b1"), s("x"));
  const Pred *B2 = P.le(s("b2"), s("x"));
  const Pred *In = P.or2(P.and2(A, B1), P.and2(A, B2));
  EXPECT_EQ(simplify(P, In), P.and2(A, P.or2(B1, B2)));
}

TEST_F(PdagSimplifyTest, LoopAllDistributesOverAnd) {
  // ALL_i (inv and var(i)) == inv and ALL_i var(i).
  sym::SymbolId I = Sym.symbol("i", 1);
  sym::SymbolId IB = Sym.symbol("IB", 0, true);
  const Pred *Inv = P.le(s("NS"), Sym.mulConst(s("NP"), 16));
  const Pred *Var = P.ge0(Sym.arrayRef(IB, Sym.symRef(I)));
  const Pred *In = P.loopAll(I, c(1), s("N"), P.and2(Inv, Var));
  const Pred *Out = simplify(P, In);
  // inv hoists: the result is an And whose first member no longer sits
  // under a loop node.
  EXPECT_EQ(Out, P.and2(P.or2(P.gt(c(1), s("N")), Inv),
                        P.loopAll(I, c(1), s("N"), Var)));
}

TEST_F(PdagSimplifyTest, InvariantDisjunctHoistsOutOfLoop) {
  // The Sec. 3.5 example: ALL_i (Inv or Var_i) == Inv or ALL_i Var_i.
  sym::SymbolId I = Sym.symbol("i", 1);
  sym::SymbolId IB = Sym.symbol("IB", 0, true);
  const Pred *Inv = P.lt(Sym.mulConst(s("NP"), 8), Sym.addConst(s("NS"), 6));
  const Pred *Var = P.ge0(Sym.arrayRef(IB, Sym.symRef(I)));
  const Pred *In = P.loopAll(I, c(1), s("N"), P.or2(Inv, Var));
  const Pred *Out = simplify(P, In);
  const auto *O = dyn_cast<NaryPred>(Out);
  ASSERT_NE(O, nullptr);
  EXPECT_FALSE(O->isAnd());
  // Inv must appear at top level now.
  bool Found = false;
  for (const Pred *C : O->getChildren())
    Found |= (C == Inv);
  EXPECT_TRUE(Found);
}

TEST_F(PdagSimplifyTest, NestedLoopInvariantHoistsAllTheWay) {
  // The paper's SOLVH example (Sec. 3.5): a leaf invariant to both loops,
  // wrapped in ALL_i ALL_k, hoists to the top. Unlike the paper's informal
  // account we keep the (vacuous-truth) empty-range disjunct, so the full
  // predicate stays equivalent; the O(1) *cascade stage* is the bare leaf.
  sym::SymbolId I = Sym.symbol("i", 1);
  sym::SymbolId K = Sym.symbol("k", 2);
  sym::SymbolId IA = Sym.symbol("IA", 0, true);
  const Pred *Leaf = P.lt(Sym.mulConst(s("NP"), 8), Sym.addConst(s("NS"), 6));
  const Pred *Inner = P.loopAll(
      K, c(1), Sym.arrayRef(IA, Sym.symRef(I)), Leaf);
  const Pred *Outer = P.loopAll(I, c(1), s("N"), Inner);
  const Pred *Out = simplify(P, Outer);
  // The leaf is at top level now (a disjunct), not buried under two loops.
  const auto *O = dyn_cast<NaryPred>(Out);
  ASSERT_NE(O, nullptr);
  bool LeafAtTop = false;
  for (const Pred *C : O->getChildren())
    LeafAtTop |= (C == Leaf);
  EXPECT_TRUE(LeafAtTop);
  // The O(1) extraction is exactly the leaf.
  EXPECT_EQ(strengthenToDepth(P, Outer, 0), Leaf);
  // For a non-empty loop nest the result behaves like the leaf.
  sym::Bindings B;
  B.setScalar(Sym.symbol("N"), 4);
  B.setScalar(Sym.symbol("NP"), 2);
  B.setScalar(Sym.symbol("NS"), 32);
  sym::ArrayBinding A;
  A.Lo = 1;
  A.Vals = {2, 2, 2, 2};
  B.setArray(IA, A);
  EXPECT_TRUE(evalPred(Out, B));
  B.setScalar(Sym.symbol("NS"), 5); // 16 < 11 fails.
  EXPECT_FALSE(evalPred(Out, B));
}

TEST_F(PdagSimplifyTest, StrengthenToDepthZeroDropsVariantParts) {
  // ALL_i (Inv or Var_i) strengthened to O(1) keeps only Inv.
  sym::SymbolId I = Sym.symbol("i", 1);
  sym::SymbolId IB = Sym.symbol("IB", 0, true);
  const Pred *Inv = P.lt(Sym.mulConst(s("NP"), 8), Sym.addConst(s("NS"), 6));
  const Pred *Var = P.ge0(Sym.arrayRef(IB, Sym.symRef(I)));
  const Pred *In = P.loopAll(I, c(1), s("N"), P.or2(Inv, Var));
  const Pred *O1 = strengthenToDepth(P, In, 0);
  EXPECT_EQ(O1->loopDepth(), 0);
  EXPECT_FALSE(O1->isFalse());
  EXPECT_FALSE(O1->dependsOn(IB));
}

TEST_F(PdagSimplifyTest, StrengthenInnerLoopToFalseKeepsOuter) {
  // Fig. 9(a): removing inner while-loop nodes leaves an O(N) predicate.
  sym::SymbolId I = Sym.symbol("i", 1);
  sym::SymbolId K = Sym.symbol("k", 2);
  sym::SymbolId IB = Sym.symbol("IB", 0, true);
  const Pred *OuterLeaf = P.ge0(Sym.arrayRef(IB, Sym.symRef(I)));
  const Pred *InnerLoop =
      P.loopAll(K, c(1), s("M"),
                P.ge0(Sym.add(Sym.arrayRef(IB, Sym.symRef(K)),
                              Sym.symRef(I))));
  const Pred *In =
      P.loopAll(I, c(1), s("N"), P.or2(OuterLeaf, InnerLoop));
  ASSERT_EQ(In->loopDepth(), 2);
  const Pred *ON = strengthenToDepth(P, In, 1);
  EXPECT_EQ(ON->loopDepth(), 1);
  EXPECT_FALSE(ON->isFalse());
}

TEST_F(PdagSimplifyTest, CascadeOrderedByComplexity) {
  sym::SymbolId I = Sym.symbol("i", 1);
  sym::SymbolId IB = Sym.symbol("IB", 0, true);
  const Pred *Inv = P.lt(Sym.mulConst(s("NP"), 8), Sym.addConst(s("NS"), 6));
  const Pred *Var = P.ge0(Sym.arrayRef(IB, Sym.symRef(I)));
  const Pred *In = P.loopAll(I, c(1), s("N"), P.or2(Inv, Var));
  auto Stages = buildCascade(P, simplify(P, In));
  ASSERT_GE(Stages.size(), 2u);
  for (size_t J = 1; J < Stages.size(); ++J)
    EXPECT_LT(Stages[J - 1].Depth, Stages[J].Depth);
  EXPECT_EQ(Stages.front().Depth, 0);
}

TEST_F(PdagSimplifyTest, CascadeOfFalseIsEmpty) {
  EXPECT_TRUE(buildCascade(P, P.getFalse()).empty());
}

TEST_F(PdagSimplifyTest, CascadeOfO1PredicateIsSingleStage) {
  const Pred *L = P.le(s("a"), s("b"));
  auto Stages = buildCascade(P, simplify(P, L));
  ASSERT_EQ(Stages.size(), 1u);
  EXPECT_EQ(Stages[0].P, L);
}

TEST_F(PdagSimplifyTest, SharedDagStrengthensInLinearTime) {
  // A 48-level ladder under ALL_i ALL_j: every level references both nodes
  // of the level below twice, so the DAG has ~100 nodes but 2^48 tree
  // paths. A tree walk would not return; the memoized walk is linear.
  // Common-factor extraction finds no shared child within one level, so
  // simplify keeps the ladder and buildCascade walks it too.
  sym::SymbolId I = Sym.symbol("i", 1);
  sym::SymbolId J = Sym.symbol("j", 2);
  sym::SymbolId IB = Sym.symbol("IB", 0, true);
  const sym::Expr *Iv = Sym.symRef(I);
  const sym::Expr *Jv = Sym.symRef(J);
  const Pred *X = P.ge0(Sym.arrayRef(IB, Jv));
  const Pred *Y = P.ne(Sym.add(Iv, Jv), s("m"));
  for (int K = 0; K < 48; ++K) {
    const Pred *A = P.le(Iv, Sym.addConst(s("a"), K));   // Varies with i.
    const Pred *B = P.le(s("b"), Sym.addConst(Jv, K));   // Varies with j.
    const Pred *C = P.ge0(Sym.addConst(s("c"), K));      // Invariant.
    const Pred *D = P.le(Sym.arrayRef(IB, Iv), c(K));    // Varies with i.
    const Pred *NextX = P.or2(P.and2(X, A), P.and2(Y, B));
    Y = P.or2(P.and2(X, C), P.and2(Y, D));
    X = NextX;
  }
  const Pred *In =
      P.loopAll(I, c(1), s("N"), P.loopAll(J, c(1), s("M"), P.or2(X, Y)));
  ASSERT_EQ(In->loopDepth(), 2);
  for (int Depth = 0; Depth <= 2; ++Depth)
    EXPECT_LE(strengthenToDepth(P, In, Depth)->loopDepth(), Depth);
  const Pred *Full = simplify(P, In);
  auto Stages = buildCascade(P, Full);
  ASSERT_FALSE(Stages.empty());
  EXPECT_EQ(Stages.back().P, Full);
}

//===----------------------------------------------------------------------===//
// Property tests: simplify preserves semantics; strengthen implies input.
//===----------------------------------------------------------------------===//

class PdagPropertyTest : public ::testing::TestWithParam<uint64_t> {
protected:
  PdagPropertyTest() : P(Sym) {}
  sym::Context Sym;
  PredContext P;

  /// Builds a random predicate over scalars a,b,c, array IB and loop vars.
  /// Leaves index IB by the innermost loop variable, or by any enclosing
  /// one when \p AnyLoopVar is set.
  const Pred *randomPred(Rng &R, int Depth, int LoopDepth,
                         bool AnyLoopVar = false) {
    if (Depth <= 0 || R.chance(1, 3)) {
      // Leaf: a random linear comparison.
      const sym::Expr *E = Sym.intConst(R.nextInRange(-3, 3));
      const char *Names[] = {"a", "b", "c"};
      for (const char *N : Names)
        if (R.chance(1, 2))
          E = Sym.add(E, Sym.mulConst(Sym.symRef(N),
                                      R.nextInRange(-2, 2)));
      if (LoopDepth > 0 && R.chance(1, 2)) {
        sym::SymbolId IB = Sym.symbol("IB", 0, true);
        int VarDepth =
            AnyLoopVar ? static_cast<int>(R.nextInRange(1, LoopDepth))
                       : LoopDepth;
        E = Sym.add(E, Sym.arrayRef(IB, Sym.symRef(loopVar(VarDepth))));
      }
      switch (R.nextBelow(3)) {
      case 0:
        return P.ge0(E);
      case 1:
        return P.eq0(E);
      default:
        return P.ne0(E);
      }
    }
    switch (R.nextBelow(3)) {
    case 0:
      return P.and2(randomPred(R, Depth - 1, LoopDepth, AnyLoopVar),
                    randomPred(R, Depth - 1, LoopDepth, AnyLoopVar));
    case 1:
      return P.or2(randomPred(R, Depth - 1, LoopDepth, AnyLoopVar),
                   randomPred(R, Depth - 1, LoopDepth, AnyLoopVar));
    default: {
      sym::SymbolId V = loopVar(LoopDepth + 1);
      return P.loopAll(V, Sym.intConst(1), Sym.symRef("n"),
                       randomPred(R, Depth - 1, LoopDepth + 1, AnyLoopVar));
    }
    }
  }

  sym::SymbolId loopVar(int Depth) {
    return Sym.symbol("lv" + std::to_string(Depth), Depth);
  }

  sym::Bindings randomBindings(Rng &R) {
    sym::Bindings B;
    B.setScalar(Sym.symbol("a"), R.nextInRange(-4, 4));
    B.setScalar(Sym.symbol("b"), R.nextInRange(-4, 4));
    B.setScalar(Sym.symbol("c"), R.nextInRange(-4, 4));
    B.setScalar(Sym.symbol("n"), R.nextInRange(0, 6));
    sym::ArrayBinding A;
    A.Lo = 1;
    for (int I = 0; I < 8; ++I)
      A.Vals.push_back(R.nextInRange(-4, 4));
    B.setArray(Sym.symbol("IB", 0, true), A);
    return B;
  }
};

TEST_P(PdagPropertyTest, SimplifyPreservesSemantics) {
  Rng R(GetParam());
  const Pred *In = randomPred(R, 4, 0);
  const Pred *Out = simplify(P, In);
  for (int Trial = 0; Trial < 20; ++Trial) {
    sym::Bindings B = randomBindings(R);
    auto VI = tryEvalPred(In, B);
    auto VO = tryEvalPred(Out, B);
    if (VI && VO)
      EXPECT_EQ(*VI, *VO) << "in:  " << In->toString(Sym)
                          << "\nout: " << Out->toString(Sym);
  }
}

TEST_P(PdagPropertyTest, StrengthenImpliesInput) {
  Rng R(GetParam() ^ 0xabcdef);
  const Pred *In = randomPred(R, 4, 0);
  for (int Depth = 0; Depth < 2; ++Depth) {
    const Pred *St = strengthenToDepth(P, In, Depth);
    EXPECT_LE(St->loopDepth(), Depth);
    for (int Trial = 0; Trial < 20; ++Trial) {
      sym::Bindings B = randomBindings(R);
      auto VS = tryEvalPred(St, B);
      auto VI = tryEvalPred(In, B);
      if (VS && VI && *VS)
        EXPECT_TRUE(*VI) << "strengthened true but input false\nin:  "
                         << In->toString(Sym)
                         << "\nst:  " << St->toString(Sym);
    }
  }
}

TEST_P(PdagPropertyTest, CascadeStagesImplyFullPredicate) {
  Rng R(GetParam() ^ 0x1234567);
  const Pred *In = randomPred(R, 4, 0);
  auto Stages = buildCascade(P, simplify(P, In));
  for (const CascadeStage &S : Stages) {
    for (int Trial = 0; Trial < 10; ++Trial) {
      sym::Bindings B = randomBindings(R);
      auto VS = tryEvalPred(S.P, B);
      auto VI = tryEvalPred(In, B);
      if (VS && VI && *VS)
        EXPECT_TRUE(*VI);
    }
  }
}

/// The unmemoized strengthening buildCascade used before it memoized on
/// interned identity: a tree walk over the DAG. Kept as the reference the
/// memoized walk must reproduce pointer for pointer.
const Pred *referenceStrengthen(PredContext &Ctx, const Pred *P, int Budget,
                                std::vector<sym::SymbolId> &Forbidden) {
  auto DependsOnForbidden = [&](const Pred *Q) {
    for (sym::SymbolId S : Forbidden)
      if (Q->dependsOn(S))
        return true;
    return false;
  };
  switch (P->getKind()) {
  case PredKind::True:
  case PredKind::False:
    return P;
  case PredKind::Cmp:
  case PredKind::Divides:
    return DependsOnForbidden(P) ? Ctx.getFalse() : P;
  case PredKind::And:
  case PredKind::Or: {
    const auto *N = cast<NaryPred>(P);
    std::vector<const Pred *> Cs;
    for (const Pred *C : N->getChildren())
      Cs.push_back(referenceStrengthen(Ctx, C, Budget, Forbidden));
    return N->isAnd() ? Ctx.andN(std::move(Cs)) : Ctx.orN(std::move(Cs));
  }
  case PredKind::LoopAll: {
    const auto *L = cast<LoopAllPred>(P);
    if (DependsOnForbidden(P))
      return Ctx.getFalse();
    if (Budget > 0)
      return Ctx.loopAll(
          L->getVar(), L->getLo(), L->getHi(),
          referenceStrengthen(Ctx, L->getBody(), Budget - 1, Forbidden));
    Forbidden.push_back(L->getVar());
    const Pred *Body = referenceStrengthen(Ctx, L->getBody(), 0, Forbidden);
    Forbidden.pop_back();
    return Body;
  }
  case PredKind::CallSite:
    return DependsOnForbidden(P)
               ? Ctx.getFalse()
               : referenceStrengthen(Ctx, cast<CallSitePred>(P)->getBody(),
                                     Budget, Forbidden);
  }
  return nullptr;
}

/// The cascade construction that went with referenceStrengthen: it
/// simplified its input itself and strengthened each depth from scratch.
std::vector<CascadeStage> referenceCascade(PredContext &Ctx, const Pred *P) {
  const Pred *Full = simplify(Ctx, P);
  std::vector<CascadeStage> Stages;
  if (Full->isFalse())
    return Stages;
  for (int Depth = 0; Depth < Full->loopDepth(); ++Depth) {
    std::vector<sym::SymbolId> Forbidden;
    const Pred *Stage =
        simplify(Ctx, referenceStrengthen(Ctx, Full, Depth, Forbidden));
    if (Stage->isFalse())
      continue;
    bool Dup = false;
    for (const CascadeStage &S : Stages)
      Dup |= S.P == Stage;
    if (Dup)
      continue;
    Stages.push_back(CascadeStage{Stage, Stage->loopDepth()});
    if (Stage == Full)
      return Stages;
  }
  Stages.push_back(CascadeStage{Full, Full->loopDepth()});
  return Stages;
}

TEST_P(PdagPropertyTest, MemoizedStrengtheningMatchesTreeWalk) {
  Rng R(GetParam() ^ 0x5eed5eed);
  for (int Trial = 0; Trial < 6; ++Trial) {
    // Plain random trees, then shapes that reuse one subterm under
    // several loops: the memo must tell apart the sets of eliminated
    // loop variables a shared node is reached with.
    const Pred *In = randomPred(R, 4 + Trial % 2, 0, /*AnyLoopVar=*/true);
    if (Trial >= 2) {
      const Pred *S = randomPred(R, 3, 2, /*AnyLoopVar=*/true);
      const Pred *Inner =
          P.loopAll(loopVar(2), Sym.intConst(1), Sym.symRef("m"),
                    P.or2(S, randomPred(R, 2, 2, /*AnyLoopVar=*/true)));
      In = P.loopAll(loopVar(1), Sym.intConst(1), Sym.symRef("n"),
                     P.and2(P.or2(Inner, In), P.or2(S, Inner)));
    }
    for (int Depth = 0; Depth <= 2; ++Depth) {
      std::vector<sym::SymbolId> Forbidden;
      EXPECT_EQ(strengthenToDepth(P, In, Depth),
                simplify(P, referenceStrengthen(P, In, Depth, Forbidden)))
          << "depth " << Depth << "\nin: " << In->toString(Sym);
    }
    auto Got = buildCascade(P, simplify(P, In));
    auto Want = referenceCascade(P, In);
    ASSERT_EQ(Got.size(), Want.size()) << "in: " << In->toString(Sym);
    for (size_t K = 0; K < Got.size(); ++K) {
      EXPECT_EQ(Got[K].P, Want[K].P) << "stage " << K;
      EXPECT_EQ(Got[K].Depth, Want[K].Depth) << "stage " << K;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, PdagPropertyTest,
                         ::testing::Range<uint64_t>(1, 33));

//===----------------------------------------------------------------------===//
// Fourier-Motzkin
//===----------------------------------------------------------------------===//

class FourierMotzkinTest : public ::testing::Test {
protected:
  FourierMotzkinTest() : P(Sym) {}
  sym::Context Sym;
  PredContext P;
  sym::RangeEnv Env;
  const sym::Expr *c(int64_t V) { return Sym.intConst(V); }
  const sym::Expr *s(const std::string &N) { return Sym.symRef(N); }
};

TEST_F(FourierMotzkinTest, InvariantExprUntouched) {
  const Pred *R = reduceGE0(P, Sym.sub(s("a"), s("b")), Env);
  EXPECT_EQ(R, P.ge(s("a"), s("b")));
}

TEST_F(FourierMotzkinTest, PositiveCoefficientUsesLowerBound) {
  // i - 3 >= 0 for all i in [L, U]  <==  L - 3 >= 0.
  sym::SymbolId I = Sym.symbol("i", 1);
  Env.bind(I, s("L"), s("U"));
  const Pred *R = reduceGE0(P, Sym.addConst(Sym.symRef(I), -3), Env);
  EXPECT_EQ(R, P.ge(s("L"), c(3)));
}

TEST_F(FourierMotzkinTest, NegativeCoefficientUsesUpperBound) {
  // n - i >= 0 for all i in [1, U]  <==  n - U >= 0.
  sym::SymbolId I = Sym.symbol("i", 1);
  Env.bind(I, c(1), s("U"));
  const Pred *R = reduceGE0(P, Sym.sub(s("n"), Sym.symRef(I)), Env);
  EXPECT_EQ(R, P.ge(s("n"), s("U")));
}

TEST_F(FourierMotzkinTest, PaperExampleCorrecDo711) {
  // Sec 3.2: eliminate i from IX(1) + 1 - IX(2) - i > 0, i in [1, NOP]
  // must yield IX(2) + NOP <= IX(1).
  sym::SymbolId I = Sym.symbol("i", 1);
  sym::SymbolId IX = Sym.symbol("IX", 0, true);
  Env.bind(I, c(1), s("NOP"));
  const sym::Expr *E =
      Sym.sub(Sym.addConst(Sym.arrayRef(IX, c(1)), 1),
              Sym.add(Sym.arrayRef(IX, c(2)), Sym.symRef(I)));
  const Pred *R = reduceGT0(P, E, Env);
  EXPECT_FALSE(R->dependsOn(I));
  EXPECT_EQ(R, P.le(Sym.add(Sym.arrayRef(IX, c(2)), s("NOP")),
                    Sym.arrayRef(IX, c(1))));
}

TEST_F(FourierMotzkinTest, SymbolicCoefficientSplitsOnSign) {
  // a*i + b >= 0, i in [1, N]: (a>=0 and a+b>=0) or (a<0 and a*N+b>=0).
  sym::SymbolId I = Sym.symbol("i", 1);
  Env.bind(I, c(1), s("N"));
  const sym::Expr *E =
      Sym.add(Sym.mul(s("a"), Sym.symRef(I)), s("b"));
  const Pred *R = reduceGE0(P, E, Env);
  EXPECT_FALSE(R->dependsOn(I));
  const auto *O = dyn_cast<NaryPred>(R);
  ASSERT_NE(O, nullptr);
  EXPECT_FALSE(O->isAnd());
  EXPECT_EQ(O->getChildren().size(), 2u);
}

TEST_F(FourierMotzkinTest, QuadraticEliminationTerminates) {
  // i*i - i >= 0 over i in [1, N]: degree decreases each recursion.
  sym::SymbolId I = Sym.symbol("i", 1);
  Env.bind(I, c(1), s("N"));
  const sym::Expr *E =
      Sym.sub(Sym.mul(Sym.symRef(I), Sym.symRef(I)), Sym.symRef(I));
  const Pred *R = reduceGE0(P, E, Env);
  EXPECT_FALSE(R->dependsOn(I));
}

TEST_F(FourierMotzkinTest, OpaqueAtomSurvives) {
  // IB(i) >= 0 cannot eliminate i; the leaf survives for LoopAll wrapping.
  sym::SymbolId I = Sym.symbol("i", 1);
  sym::SymbolId IB = Sym.symbol("IB", 0, true);
  Env.bind(I, c(1), s("N"));
  const Pred *R = reduceGE0(P, Sym.arrayRef(IB, Sym.symRef(I)), Env);
  EXPECT_TRUE(R->dependsOn(I));
}

TEST_F(FourierMotzkinTest, SoundnessSpotCheck) {
  // If the reduced predicate holds, the original holds for every i.
  sym::SymbolId I = Sym.symbol("i", 1);
  Env.bind(I, c(1), s("N"));
  const sym::Expr *E = Sym.add(Sym.mul(s("a"), Sym.symRef(I)), s("b"));
  const Pred *R = reduceGE0(P, E, Env);
  Rng Rand(42);
  for (int Trial = 0; Trial < 200; ++Trial) {
    sym::Bindings B;
    B.setScalar(Sym.symbol("a"), Rand.nextInRange(-3, 3));
    B.setScalar(Sym.symbol("b"), Rand.nextInRange(-5, 5));
    int64_t N = Rand.nextInRange(1, 6);
    B.setScalar(Sym.symbol("N"), N);
    auto V = tryEvalPred(R, B);
    ASSERT_TRUE(V.has_value());
    if (!*V)
      continue;
    for (int64_t IV = 1; IV <= N; ++IV) {
      B.setScalar(I, IV);
      const Pred *Orig = P.ge0(E);
      EXPECT_TRUE(evalPred(Orig, B));
    }
  }
}

} // namespace
