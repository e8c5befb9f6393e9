//===- tests/usr_test.cpp - USR language unit tests -----------------------===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "usr/USREval.h"
#include "usr/USR.h"

#include <gtest/gtest.h>

using namespace halo;
using namespace halo::usr;

namespace {

class UsrTest : public ::testing::Test {
protected:
  UsrTest() : P(Sym), U(Sym, P) {}
  sym::Context Sym;
  pdag::PredContext P;
  USRContext U;
  const sym::Expr *c(int64_t V) { return Sym.intConst(V); }
  const sym::Expr *s(const std::string &N) { return Sym.symRef(N); }

  std::vector<int64_t> evalPts(const USR *S, sym::Bindings &B) {
    auto V = evalUSR(S, B);
    EXPECT_TRUE(V.has_value());
    return V.value_or(std::vector<int64_t>{});
  }
};

TEST_F(UsrTest, EmptyFolding) {
  const USR *E = U.empty();
  const USR *L = U.interval(c(0), c(10));
  EXPECT_EQ(U.union2(E, L), L);
  EXPECT_EQ(U.intersect(E, L), E);
  EXPECT_EQ(U.subtract(L, E), L);
  EXPECT_EQ(U.subtract(E, L), E);
  EXPECT_EQ(U.subtract(L, L), E);
  EXPECT_EQ(U.intersect(L, L), L);
}

TEST_F(UsrTest, IntervalWithNonPositiveLengthIsEmpty) {
  EXPECT_TRUE(U.interval(c(5), c(0))->isEmptySet());
  EXPECT_TRUE(U.interval(c(5), c(-3))->isEmptySet());
}

TEST_F(UsrTest, UnionFlattensAndMergesLeaves) {
  const USR *A = U.interval(c(0), c(4));
  const USR *B = U.interval(c(10), c(4));
  const USR *C = U.interval(c(20), c(4));
  const USR *AB = U.union2(A, B);
  const USR *All = U.union2(AB, C);
  // All three LMADs merge into one leaf node.
  ASSERT_TRUE(isa<LeafUSR>(All));
  EXPECT_EQ(cast<LeafUSR>(All)->getLMADs().size(), 3u);
}

TEST_F(UsrTest, GateFolding) {
  const USR *L = U.interval(c(0), c(4));
  EXPECT_EQ(U.gate(P.getTrue(), L), L);
  EXPECT_TRUE(U.gate(P.getFalse(), L)->isEmptySet());
  // Nested gates conjoin.
  const pdag::Pred *G1 = P.ne(s("SYM"), c(1));
  const pdag::Pred *G2 = P.gt(s("NP"), c(0));
  const USR *Nested = U.gate(G1, U.gate(G2, L));
  ASSERT_TRUE(isa<GateUSR>(Nested));
  EXPECT_EQ(cast<GateUSR>(Nested)->getGate(), P.and2(G1, G2));
}

TEST_F(UsrTest, SameGateUnionMerges) {
  const pdag::Pred *G = P.ne(s("SYM"), c(1));
  const USR *A = U.gate(G, U.interval(c(0), c(4)));
  const USR *B = U.gate(G, U.interval(c(100), c(4)));
  const USR *Un = U.union2(A, B);
  ASSERT_TRUE(isa<GateUSR>(Un));
  EXPECT_EQ(cast<GateUSR>(Un)->getGate(), G);
}

TEST_F(UsrTest, SubtractReassociates) {
  // (A - B) - C  ==>  A - (B u C)  (Fig. 8a, applied in the constructor).
  const USR *A = U.interval(c(0), s("n"));
  const USR *B = U.interval(c(0), c(3));
  const USR *C = U.interval(c(5), c(3));
  const USR *S = U.subtract(U.subtract(A, B), C);
  const auto *Bin = dyn_cast<BinaryUSR>(S);
  ASSERT_NE(Bin, nullptr);
  EXPECT_EQ(Bin->getLHS(), A);
  EXPECT_EQ(Bin->getRHS(), U.union2(B, C));
}

TEST_F(UsrTest, GatePullsOutOfSubtractLHS) {
  const pdag::Pred *G = P.ne(s("SYM"), c(1));
  const USR *A = U.interval(c(0), s("n"));
  const USR *B = U.interval(c(0), c(3));
  const USR *S = U.subtract(U.gate(G, A), B);
  ASSERT_TRUE(isa<GateUSR>(S));
  EXPECT_EQ(cast<GateUSR>(S)->getChild(), U.subtract(A, B));
}

TEST_F(UsrTest, RecurAggregatesAffineLeaf) {
  // U_{i=1..N} [32(i-1), 32(i-1)+NS-1] folds to a gated 2-dim leaf.
  sym::SymbolId I = Sym.symbol("i", 1);
  const USR *Body = U.interval(Sym.mulConst(Sym.addConst(Sym.symRef(I), -1), 32),
                               s("NS"));
  const USR *R = U.recur(I, c(1), s("N"), Body);
  // Shape: gate(1 <= N) # leaf with a new [32]-stride dimension.
  const auto *G = dyn_cast<GateUSR>(R);
  ASSERT_NE(G, nullptr);
  const auto *L = dyn_cast<LeafUSR>(G->getChild());
  ASSERT_NE(L, nullptr);
  ASSERT_EQ(L->getLMADs().size(), 1u);
  EXPECT_EQ(L->getLMADs()[0].rank(), 2u);
  EXPECT_EQ(L->getLMADs()[0].dims()[1].Stride, c(32));
}

TEST_F(UsrTest, RecurInvariantBodyGates) {
  sym::SymbolId I = Sym.symbol("i", 1);
  const USR *Body = U.interval(c(0), s("NS"));
  const USR *R = U.recur(I, c(1), s("N"), Body);
  EXPECT_EQ(R, U.gate(P.le(c(1), s("N")), Body));
}

TEST_F(UsrTest, RecurIndexArrayBodyStaysIrreducible) {
  // Offset IB(i): aggregation fails, an irreducible node remains.
  sym::SymbolId I = Sym.symbol("i", 1);
  sym::SymbolId IB = Sym.symbol("IB", 0, true);
  const USR *Body = U.interval(Sym.arrayRef(IB, Sym.symRef(I)), c(4));
  const USR *R = U.recur(I, c(1), s("N"), Body);
  EXPECT_TRUE(isa<RecurUSR>(R));
}

TEST_F(UsrTest, RecurUnrollsSmallConstantRange) {
  sym::SymbolId I = Sym.symbol("i", 1);
  sym::SymbolId IB = Sym.symbol("IB", 0, true);
  const USR *Body = U.interval(Sym.arrayRef(IB, Sym.symRef(I)), c(2));
  const USR *R = U.recur(I, c(1), c(3), Body);
  // Unrolled to a leaf set of 3 intervals (IB(1), IB(2), IB(3)).
  ASSERT_TRUE(isa<LeafUSR>(R));
  EXPECT_EQ(cast<LeafUSR>(R)->getLMADs().size(), 3u);
}

//===----------------------------------------------------------------------===//
// Evaluation semantics
//===----------------------------------------------------------------------===//

TEST_F(UsrTest, EvalSetAlgebra) {
  sym::Bindings B;
  const USR *A = U.interval(c(0), c(6));  // {0..5}
  const USR *C = U.interval(c(4), c(4));  // {4..7}
  EXPECT_EQ(evalPts(U.union2(A, C), B),
            (std::vector<int64_t>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(evalPts(U.intersect(A, C), B), (std::vector<int64_t>{4, 5}));
  EXPECT_EQ(evalPts(U.subtract(A, C), B),
            (std::vector<int64_t>{0, 1, 2, 3}));
}

TEST_F(UsrTest, EvalGate) {
  sym::Bindings B;
  const USR *A = U.interval(c(0), c(3));
  const USR *G = U.gate(P.ne(s("SYM"), c(1)), A);
  B.setScalar(Sym.symbol("SYM"), 0);
  EXPECT_EQ(evalPts(G, B).size(), 3u);
  B.setScalar(Sym.symbol("SYM"), 1);
  EXPECT_TRUE(evalPts(G, B).empty());
}

TEST_F(UsrTest, EvalRecurWithIndexArray) {
  // U_{i=1..3} [IB(i), IB(i)+1].
  sym::SymbolId I = Sym.symbol("i", 1);
  sym::SymbolId IB = Sym.symbol("IB", 0, true);
  const USR *Body = U.interval(Sym.arrayRef(IB, Sym.symRef(I)), c(2));
  const USR *R = U.recur(I, c(1), s("N"), Body);
  sym::Bindings B;
  B.setScalar(Sym.symbol("N"), 3);
  sym::ArrayBinding A;
  A.Lo = 1;
  A.Vals = {10, 20, 21};
  B.setArray(IB, A);
  EXPECT_EQ(evalPts(R, B), (std::vector<int64_t>{10, 11, 20, 21, 22}));
}

TEST_F(UsrTest, EvalRecurRestoresRecurrenceVariable) {
  // Both evaluators restore the caller's binding of the recurrence
  // variable: erased when it was unbound on entry, its old value
  // otherwise. A leaked last-iteration value would change the caller's
  // bindings (and every memo key built from them).
  sym::SymbolId I = Sym.symbol("i", 1);
  sym::SymbolId IB = Sym.symbol("IB", 0, true);
  const USR *R = U.recur(I, c(1), s("N"),
                         U.interval(Sym.arrayRef(IB, Sym.symRef(I)), c(2)));
  sym::Bindings B;
  B.setScalar(Sym.symbol("N"), 3);
  sym::ArrayBinding A;
  A.Lo = 1;
  A.Vals = {10, 20, 21};
  B.setArray(IB, A);

  ASSERT_TRUE(evalUSR(R, B).has_value());
  EXPECT_FALSE(B.scalar(I).has_value());
  EXPECT_EQ(evalUSREmpty(R, B), std::optional<bool>(false));
  EXPECT_FALSE(B.scalar(I).has_value());

  B.setScalar(I, 7);
  ASSERT_TRUE(evalUSR(R, B).has_value());
  EXPECT_EQ(B.scalar(I), std::optional<int64_t>(7));
  EXPECT_EQ(evalUSREmpty(R, B), std::optional<bool>(false));
  EXPECT_EQ(B.scalar(I), std::optional<int64_t>(7));
}

TEST_F(UsrTest, EvalPartialRecurrenceTriangle) {
  // U_{k=1..i-1} {k} under i = 4 gives {1,2,3}.
  sym::SymbolId I = Sym.symbol("i", 1);
  sym::SymbolId K = Sym.symbol("k", 2);
  sym::SymbolId IB = Sym.symbol("IB", 0, true);
  const USR *Body = U.interval(Sym.arrayRef(IB, Sym.symRef(K)), c(1));
  const USR *R = U.recur(K, c(1), Sym.addConst(Sym.symRef(I), -1), Body);
  sym::Bindings B;
  B.setScalar(I, 4);
  sym::ArrayBinding A;
  A.Lo = 1;
  A.Vals = {1, 2, 3, 4};
  B.setArray(IB, A);
  EXPECT_EQ(evalPts(R, B), (std::vector<int64_t>{1, 2, 3}));
}

TEST_F(UsrTest, EvalEmptyRangeRecur) {
  sym::SymbolId K = Sym.symbol("k", 1);
  sym::SymbolId IB = Sym.symbol("IB", 0, true);
  const USR *Body = U.interval(Sym.arrayRef(IB, Sym.symRef(K)), c(1));
  const USR *R = U.recur(K, c(1), c(0), Body);
  sym::Bindings B;
  EXPECT_TRUE(evalPts(R, B).empty());
}

TEST_F(UsrTest, EvalFailsOnUnbound) {
  sym::Bindings B;
  const USR *A = U.interval(s("unbound"), c(3));
  EXPECT_FALSE(evalUSR(A, B).has_value());
}

TEST_F(UsrTest, SubstituteRebindsRecurrenceCorrectly) {
  // Substituting the outer variable inside a partial recurrence: the
  // paper's Eq. 2 construction (WF_k from WF_i).
  sym::SymbolId I = Sym.symbol("i", 1);
  sym::SymbolId K = Sym.symbol("k", 2);
  sym::SymbolId IB = Sym.symbol("IB", 0, true);
  const USR *WFi = U.interval(Sym.arrayRef(IB, Sym.symRef(I)), c(4));
  std::map<sym::SymbolId, const sym::Expr *> M{{I, Sym.symRef(K)}};
  const USR *WFk = U.substitute(WFi, M);
  EXPECT_TRUE(WFk->dependsOn(K));
  EXPECT_FALSE(WFk->dependsOn(I));
}

TEST_F(UsrTest, PrintingIsReadable) {
  sym::SymbolId I = Sym.symbol("i", 1);
  sym::SymbolId IB = Sym.symbol("IB", 0, true);
  const USR *Body = U.interval(Sym.arrayRef(IB, Sym.symRef(I)), c(4));
  const USR *R = U.recur(I, c(1), s("N"), Body);
  std::string Str = R->toString(Sym);
  EXPECT_NE(Str.find("U(i=1..N:"), std::string::npos);
  EXPECT_NE(Str.find("IB(i)"), std::string::npos);
}

} // namespace
