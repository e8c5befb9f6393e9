//===- tests/pred_compile_test.cpp - Bytecode evaluator parity tests ------===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
// tryEvalPred is the reference interpreter; these tests prove the compiled
// bytecode evaluator (serial and chunked-parallel) agrees with it on random
// predicate programs, including the conservative-unknown paths (unbound
// symbols, out-of-bounds index-array reads).
//
//===----------------------------------------------------------------------===//

#include "pdag/PredCompile.h"

#include "pdag/PredEval.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace halo;
using namespace halo::pdag;

namespace {

class PredCompileTest : public ::testing::Test {
protected:
  PredCompileTest() : P(Sym) {}
  sym::Context Sym;
  PredContext P;
  sym::Bindings B;
  const sym::Expr *c(int64_t V) { return Sym.intConst(V); }
  const sym::Expr *s(const std::string &N) { return Sym.symRef(N); }
  void bind(const std::string &N, int64_t V) { B.setScalar(Sym.symbol(N), V); }

  std::optional<bool> compiledEval(const Pred *Pr, EvalStats *St = nullptr) {
    return CompiledPred::compile(Pr, Sym)->eval(B, St);
  }
};

//===----------------------------------------------------------------------===//
// Directed parity cases
//===----------------------------------------------------------------------===//

TEST_F(PredCompileTest, LeavesMatchInterpreter) {
  bind("a", 3);
  bind("b", 5);
  for (const Pred *Pr :
       {P.le(s("a"), s("b")), P.gt(s("a"), s("b")), P.eq(s("a"), s("b")),
        P.ne(s("a"), s("b")), P.divides(s("b"), s("a")),
        P.divides(s("a"), s("a"), /*Neg=*/true)})
    EXPECT_EQ(compiledEval(Pr), tryEvalPred(Pr, B)) << Pr->toString(Sym);
}

TEST_F(PredCompileTest, ConstantPredicateFoldsToPushBool) {
  const Pred *Pr = P.ge0(c(7)); // Folds at canonicalization or compile.
  auto CP = CompiledPred::compile(Pr, Sym);
  EXPECT_EQ(CP->eval(B), std::optional<bool>(true));
  EXPECT_LE(CP->codeSize(), 1u);
}

TEST_F(PredCompileTest, UnboundSymbolIsConservativeUnknown) {
  const Pred *Pr = P.le(s("nope"), c(4));
  EXPECT_EQ(compiledEval(Pr), std::nullopt);
  EXPECT_EQ(tryEvalPred(Pr, B), std::nullopt);
}

TEST_F(PredCompileTest, DecidedConnectiveToleratesUnbound) {
  bind("a", 3);
  bind("b", 5);
  const Pred *T = P.le(s("a"), s("b"));
  const Pred *F = P.gt(s("a"), s("b"));
  const Pred *U = P.le(s("unbound"), s("b"));
  EXPECT_EQ(compiledEval(P.or2(T, U)), std::optional<bool>(true));
  EXPECT_EQ(compiledEval(P.and2(F, U)), std::optional<bool>(false));
  EXPECT_EQ(compiledEval(P.and2(T, U)), std::nullopt);
  EXPECT_EQ(compiledEval(P.or2(F, U)), std::nullopt);
}

TEST_F(PredCompileTest, OutOfBoundsArrayReadIsConservativeUnknown) {
  sym::SymbolId IB = Sym.symbol("IB", 0, /*IsArray=*/true);
  sym::ArrayBinding A;
  A.Lo = 1;
  A.Vals = {4, 5, 6};
  B.setArray(IB, A);
  const Pred *In = P.ge0(Sym.arrayRef(IB, c(2)));
  const Pred *Oob = P.ge0(Sym.arrayRef(IB, c(9)));
  EXPECT_EQ(compiledEval(In), std::optional<bool>(true));
  EXPECT_EQ(compiledEval(Oob), std::nullopt);
  EXPECT_EQ(tryEvalPred(Oob, B), std::nullopt);
}

TEST_F(PredCompileTest, LoopAllMatchesInterpreterIncludingEarlyExit) {
  sym::SymbolId I = Sym.symbol("i", 1);
  sym::SymbolId IB = Sym.symbol("IB", 0, true);
  const Pred *Mono =
      P.loopAll(I, c(1), Sym.addConst(s("n"), -1),
                P.le(Sym.arrayRef(IB, Sym.symRef(I)),
                     Sym.arrayRef(IB, Sym.addConst(Sym.symRef(I), 1))));
  bind("n", 5);
  sym::ArrayBinding A;
  A.Lo = 1;
  A.Vals = {1, 3, 7, 7, 20};
  B.setArray(IB, A);
  EXPECT_EQ(compiledEval(Mono), std::optional<bool>(true));
  A.Vals = {1, 3, 2, 7, 20};
  B.setArray(IB, A);
  EXPECT_EQ(compiledEval(Mono), std::optional<bool>(false));
  // Range beyond a monotone array: the first out-of-bounds read decides
  // unknown (no earlier iteration is false).
  A.Vals = {1, 3, 7, 7, 20};
  B.setArray(IB, A);
  bind("n", 50);
  EXPECT_EQ(compiledEval(Mono), tryEvalPred(Mono, B));
  EXPECT_EQ(compiledEval(Mono), std::nullopt);
}

TEST_F(PredCompileTest, InvariantSubPredicateIsMemoized) {
  sym::SymbolId I = Sym.symbol("i", 1);
  sym::SymbolId IB = Sym.symbol("IB", 0, true);
  // ALL(i=1..n: (m >= 0 or IB(i) != 0) ...) with an invariant disjunct that
  // is false, so every iteration must also evaluate the variant part; the
  // invariant one must be served from the memo table after iteration 1.
  const Pred *Inv = P.ge0(s("m"));
  const Pred *Var = P.ne0(Sym.arrayRef(IB, Sym.symRef(I)));
  const Pred *L = P.loopAll(I, c(1), s("n"), P.or2(Inv, Var));
  bind("n", 64);
  bind("m", -1);
  sym::ArrayBinding A;
  A.Lo = 1;
  A.Vals.assign(64, 3);
  B.setArray(IB, A);

  auto CP = CompiledPred::compile(L, Sym);
  EvalStats St;
  EXPECT_EQ(CP->eval(B, &St), std::optional<bool>(true));
  EXPECT_EQ(tryEvalPred(L, B), std::optional<bool>(true));
  EXPECT_GE(CP->numMemoSlots(), 1u);
  EXPECT_EQ(St.MemoHits, 63u); // Evaluated once, cached for 63 iterations.
  EXPECT_EQ(St.CompiledEvals, 1u);
}

TEST_F(PredCompileTest, CostEstimateOrdersByDepthThenLength) {
  sym::SymbolId I = Sym.symbol("i", 1);
  sym::SymbolId IB = Sym.symbol("IB", 0, true);
  const Pred *O1 = P.le(s("a"), s("b"));
  const Pred *ON =
      P.loopAll(I, c(1), s("n"), P.ge0(Sym.arrayRef(IB, Sym.symRef(I))));
  auto C1 = CompiledPred::compile(O1, Sym);
  auto CN = CompiledPred::compile(ON, Sym);
  EXPECT_LT(C1->costEstimate(), CN->costEstimate());
  EXPECT_FALSE(C1->hasParallelRoot());
  EXPECT_TRUE(CN->hasParallelRoot());
}

TEST_F(PredCompileTest, LoopVarEscapingItsBinderStaysUnbound) {
  // `i` occurs free OUTSIDE its LoopAll binder while unbound in B. Both
  // evaluators must treat the free occurrence as unbound (conservative
  // unknown) and must not leak the loop's last iteration value into the
  // caller's bindings.
  sym::SymbolId I = Sym.symbol("i", 1);
  const Pred *L = P.loopAll(I, c(1), s("n"), P.ge0(Sym.symRef(I)));
  const Pred *Escaped = P.and2(L, P.ge0(Sym.addConst(Sym.symRef(I), -2)));
  bind("n", 3);
  EXPECT_EQ(tryEvalPred(Escaped, B), std::nullopt);
  EXPECT_EQ(compiledEval(Escaped), std::nullopt);
  EXPECT_EQ(B.scalar(I), std::nullopt); // No binding leaked.
}

TEST_F(PredCompileTest, SharedDagCompilesLinearNotExponential) {
  // A 20-level DAG whose tree expansion has ~2^20 nodes: every level
  // references the previous one twice. Interned sharing means the DAG has
  // ~100 nodes; the compiler must emit shared nodes once (as subroutines),
  // not expand the tree. (The reference interpreter DOES pay the
  // exponential walk here, which is exactly the pathology the compiled
  // form removes — keep the depth moderate so this test stays fast.)
  bind("a", 3);
  bind("b", 5);
  const Pred *X = P.le(s("a"), s("b"));
  for (int K = 0; K < 20; ++K) {
    const Pred *Leaf = P.ne(s("a"), c(100 + K)); // Keeps levels distinct.
    X = P.and2(P.or2(X, P.gt(s("a"), c(K))), P.or2(X, Leaf));
  }
  auto CP = CompiledPred::compile(X, Sym);
  EXPECT_LT(CP->codeSize(), 2000u);
  EXPECT_EQ(CP->eval(B), tryEvalPred(X, B));
  EXPECT_EQ(CP->eval(B), std::optional<bool>(true));
}

//===----------------------------------------------------------------------===//
// Parallel evaluation parity
//===----------------------------------------------------------------------===//

TEST_F(PredCompileTest, ParallelMatchesSerialOnLargeRange) {
  sym::SymbolId I = Sym.symbol("i", 1);
  sym::SymbolId IB = Sym.symbol("IB", 0, true);
  const Pred *Mono =
      P.loopAll(I, c(1), Sym.addConst(s("n"), -1),
                P.le(Sym.arrayRef(IB, Sym.symRef(I)),
                     Sym.arrayRef(IB, Sym.addConst(Sym.symRef(I), 1))));
  const int64_t N = 100000;
  bind("n", N);
  sym::ArrayBinding A;
  A.Lo = 1;
  A.Vals.resize(N);
  for (int64_t K = 0; K < N; ++K)
    A.Vals[static_cast<size_t>(K)] = K / 3;
  B.setArray(IB, A);

  auto CP = CompiledPred::compile(Mono, Sym);
  ThreadPool Pool(4);
  CompiledPred::PooledFrame PF;
  EXPECT_EQ(CP->evalParallelPooled(PF, B, Pool), std::optional<bool>(true));

  // Violation near the end: still false, found by the owning chunk.
  A.Vals[N - 2] = -1000000;
  B.setArray(IB, A);
  auto CP2 = CompiledPred::compile(Mono, Sym);
  EXPECT_EQ(CP2->evalParallelPooled(PF, B, Pool),
            std::optional<bool>(false));
  EXPECT_EQ(tryEvalPred(Mono, B), std::optional<bool>(false));
}

TEST_F(PredCompileTest, ParallelPreservesEarliestDecision) {
  // Sequential semantics: an unknown at i=100 decides before a false at
  // i=7000, even though a later chunk finds the false first. The frontier
  // merge must return unknown, exactly like the interpreter.
  sym::SymbolId I = Sym.symbol("i", 1);
  const Pred *UnknownAt100 =
      P.or2(P.ne(Sym.symRef(I), c(100)), P.ge0(s("unbound")));
  const Pred *FalseAt7000 = P.ne(Sym.symRef(I), c(7000));
  const Pred *L =
      P.loopAll(I, c(1), s("n"), P.and2(UnknownAt100, FalseAt7000));
  bind("n", 10000);

  auto CP = CompiledPred::compile(L, Sym);
  ThreadPool Pool(4);
  CompiledPred::PooledFrame PF;
  EXPECT_EQ(tryEvalPred(L, B), std::nullopt);
  EXPECT_EQ(
      CP->evalParallelPooled(PF, B, Pool, nullptr, /*MinParallelIters=*/1),
      std::nullopt);

  // And the mirror image: the false comes first, so false wins.
  const Pred *L2 = P.loopAll(
      I, c(1), s("n"),
      P.and2(P.or2(P.ne(Sym.symRef(I), c(7000)), P.ge0(s("unbound"))),
             P.ne(Sym.symRef(I), c(100))));
  auto CP2 = CompiledPred::compile(L2, Sym);
  EXPECT_EQ(tryEvalPred(L2, B), std::optional<bool>(false));
  EXPECT_EQ(
      CP2->evalParallelPooled(PF, B, Pool, nullptr, /*MinParallelIters=*/1),
      std::optional<bool>(false));
}

TEST_F(PredCompileTest, ParallelUnknownBoundsMatchInterpreter) {
  sym::SymbolId I = Sym.symbol("i", 1);
  const Pred *L = P.loopAll(I, c(1), s("unbound_n"), P.ge0(Sym.symRef(I)));
  auto CP = CompiledPred::compile(L, Sym);
  ThreadPool Pool(4);
  CompiledPred::PooledFrame PF;
  EXPECT_EQ(CP->evalParallelPooled(PF, B, Pool), std::nullopt);
  EXPECT_EQ(tryEvalPred(L, B), std::nullopt);
  // Empty range is vacuously true.
  bind("unbound_n", -5);
  EXPECT_EQ(CP->evalParallelPooled(PF, B, Pool), std::optional<bool>(true));
}

//===----------------------------------------------------------------------===//
// Randomized property test
//===----------------------------------------------------------------------===//

/// Generates random predicate programs over a small symbol universe with
/// deliberately unbound scalars and short index arrays so the conservative
/// paths (unbound symbol, out-of-bounds read) fire regularly.
class RandomPredGen {
public:
  RandomPredGen(sym::Context &Sym, PredContext &P, Rng &R)
      : Sym(Sym), P(P), R(R) {
    for (const char *N : {"a", "b", "c", "d"})
      Scalars.push_back(Sym.symbol(N));
    for (const char *N : {"A1", "A2"})
      Arrays.push_back(Sym.symbol(N, 0, /*IsArray=*/true));
    Unbound = Sym.symbol("ghost");
  }

  const sym::Expr *genExpr(int Depth) {
    if (Depth <= 0 || R.chance(1, 3))
      return genAtom();
    switch (R.nextBelow(6)) {
    case 0:
      return Sym.add(genExpr(Depth - 1), genExpr(Depth - 1));
    case 1:
      return Sym.mulConst(genExpr(Depth - 1), R.nextInRange(-3, 3));
    case 2:
      return Sym.min(genExpr(Depth - 1), genExpr(Depth - 1));
    case 3:
      return Sym.max(genExpr(Depth - 1), genExpr(Depth - 1));
    case 4:
      return Sym.floorDiv(genExpr(Depth - 1),
                          static_cast<int64_t>(R.nextInRange(1, 4)));
    default:
      return Sym.mod(genExpr(Depth - 1),
                     static_cast<int64_t>(R.nextInRange(1, 4)));
    }
  }

  const Pred *genPred(int Depth, int LoopBudget) {
    if (Depth <= 0 || R.chance(1, 4)) {
      switch (R.nextBelow(4)) {
      case 0:
        return P.ge0(genExpr(2));
      case 1:
        return P.eq0(genExpr(2));
      case 2:
        return P.ne0(genExpr(2));
      default:
        return P.divides(genExpr(1), genExpr(2), R.chance(1, 2));
      }
    }
    if (LoopBudget > 0 && R.chance(1, 3)) {
      sym::SymbolId Var = Sym.freshSymbol("i", 1);
      InScope.push_back(Var);
      const Pred *Body = genPred(Depth - 1, LoopBudget - 1);
      InScope.pop_back();
      const sym::Expr *Lo = Sym.intConst(R.nextInRange(-2, 2));
      const sym::Expr *Hi =
          R.chance(1, 3)
              ? Sym.symRef(Scalars[R.nextBelow(Scalars.size())])
              : Sym.addConst(Lo, R.nextInRange(-1, 6));
      return P.loopAll(Var, Lo, Hi, Body);
    }
    size_t N = 2 + R.nextBelow(2);
    std::vector<const Pred *> Cs;
    for (size_t I = 0; I < N; ++I)
      Cs.push_back(genPred(Depth - 1, LoopBudget));
    if (R.chance(1, 8))
      return P.callSite("ext", P.andN(std::move(Cs)));
    return R.chance(1, 2) ? P.andN(std::move(Cs)) : P.orN(std::move(Cs));
  }

  sym::Bindings genBindings() {
    sym::Bindings B;
    for (sym::SymbolId S : Scalars)
      if (R.chance(7, 8)) // Occasionally unbound.
        B.setScalar(S, R.nextInRange(-10, 10));
    for (sym::SymbolId A : Arrays) {
      sym::ArrayBinding AB;
      AB.Lo = R.nextInRange(-1, 1);
      AB.Vals.resize(4 + R.nextBelow(5)); // Short: OOB reads happen.
      for (auto &V : AB.Vals)
        V = R.nextInRange(-10, 10);
      B.setArray(A, AB);
    }
    return B;
  }

private:
  const sym::Expr *genAtom() {
    switch (R.nextBelow(5)) {
    case 0:
      return Sym.intConst(R.nextInRange(-8, 8));
    case 1:
      if (!InScope.empty())
        return Sym.symRef(InScope[R.nextBelow(InScope.size())]);
      [[fallthrough]];
    case 2:
      if (R.chance(1, 12))
        return Sym.symRef(Unbound);
      return Sym.symRef(Scalars[R.nextBelow(Scalars.size())]);
    default:
      return Sym.arrayRef(Arrays[R.nextBelow(Arrays.size())], genExpr(0));
    }
  }

  sym::Context &Sym;
  PredContext &P;
  Rng &R;
  std::vector<sym::SymbolId> Scalars;
  std::vector<sym::SymbolId> Arrays;
  std::vector<sym::SymbolId> InScope;
  sym::SymbolId Unbound = 0;
};

TEST(PredCompilePropertyTest, CompiledAgreesWithInterpreter) {
  sym::Context Sym;
  PredContext P(Sym);
  Rng R(20260726);
  RandomPredGen Gen(Sym, P, R);
  ThreadPool Pool(3);
  CompiledPred::PooledFrame PF; // Re-bound by every case.
  for (int Case = 0; Case < 600; ++Case) {
    const Pred *Pr = Gen.genPred(3, 2);
    sym::Bindings B = Gen.genBindings();
    auto Ref = tryEvalPred(Pr, B);
    auto CP = CompiledPred::compile(Pr, Sym);
    auto Serial = CP->eval(B);
    auto Parallel =
        CP->evalParallelPooled(PF, B, Pool, nullptr, /*MinParallelIters=*/1);
    ASSERT_EQ(Serial, Ref) << "case " << Case << ": " << Pr->toString(Sym);
    ASSERT_EQ(Parallel, Ref) << "case " << Case << " (parallel): "
                             << Pr->toString(Sym);
  }
}

TEST(PredCompilePropertyTest, PooledFramesMatchInterpreterUnderRebinding) {
  // The analyze-once / execute-many entry point: pooled frames must agree
  // with the reference interpreter whether the bindings changed since the
  // last evaluation or not.
  sym::Context Sym;
  PredContext P(Sym);
  Rng R(777);
  RandomPredGen Gen(Sym, P, R);
  ThreadPool Pool(3);
  for (int Case = 0; Case < 300; ++Case) {
    const Pred *Pr = Gen.genPred(3, 2);
    auto CP = CompiledPred::compile(Pr, Sym);
    CompiledPred::PooledFrame PF, PFP;
    sym::Bindings B1 = Gen.genBindings();
    sym::Bindings B2 = Gen.genBindings();
    for (int Round = 0; Round < 4; ++Round) {
      sym::Bindings &B = (Round % 2) ? B2 : B1;
      auto Ref = tryEvalPred(Pr, B);
      EvalStats SReuse;
      ASSERT_EQ(CP->evalPooled(PF, B), Ref)
          << "case " << Case << ": " << Pr->toString(Sym);
      // Same bindings again: the frame re-binds and the result holds.
      ASSERT_EQ(CP->evalPooled(PF, B, &SReuse), Ref);
      EXPECT_EQ(SReuse.FrameBinds, 1u);
      // Parallel pooled path, twice: the second call reuses the
      // per-worker frame buffers.
      ASSERT_EQ(CP->evalParallelPooled(PFP, B, Pool, nullptr, 1), Ref)
          << "case " << Case << " (parallel): " << Pr->toString(Sym);
      ASSERT_EQ(CP->evalParallelPooled(PFP, B, Pool, nullptr, 1), Ref);
    }
  }
}

TEST(PredCompilePropertyTest, RepeatedEvalIsDeterministic) {
  sym::Context Sym;
  PredContext P(Sym);
  Rng R(42);
  RandomPredGen Gen(Sym, P, R);
  for (int Case = 0; Case < 50; ++Case) {
    const Pred *Pr = Gen.genPred(3, 2);
    sym::Bindings B = Gen.genBindings();
    auto CP = CompiledPred::compile(Pr, Sym);
    auto First = CP->eval(B);
    for (int K = 0; K < 3; ++K)
      ASSERT_EQ(CP->eval(B), First);
  }
}

} // namespace
