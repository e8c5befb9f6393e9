//===- pdag/ExprCode.cpp - Shared expression bytecode ---------------------===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "pdag/ExprCode.h"

#include "support/Error.h"

#include <algorithm>
#include <cassert>
#include <limits>

using namespace halo;
using namespace halo::pdag;

namespace {

int64_t floorDivInt(int64_t A, int64_t D) {
  int64_t Q = A / D;
  if ((A % D) != 0 && A < 0)
    --Q;
  return Q;
}

/// Net stack effect of one opcode (every op's effect is static, which is
/// what makes the exact-depth precompute possible).
int stackDelta(ExprInstr::Op Op) {
  switch (Op) {
  case ExprInstr::Op::Const:
  case ExprInstr::Op::Scalar:
  case ExprInstr::Op::ArrayLoadOff:
    return 1;
  case ExprInstr::Op::ArrayLoad:
  case ExprInstr::Op::FloorDiv:
  case ExprInstr::Op::Mod:
  case ExprInstr::Op::MulConst:
  case ExprInstr::Op::AddConst:
    return 0;
  case ExprInstr::Op::Min:
  case ExprInstr::Op::Max:
  case ExprInstr::Op::Mul:
  case ExprInstr::Op::MulConstAdd:
    return -1;
  }
  halo_unreachable("covered switch");
}

} // namespace

uint32_t ExprCodeBuilder::scalarSlot(sym::SymbolId S) {
  auto It = ScalarSlotFor.find(S);
  if (It != ScalarSlotFor.end())
    return It->second;
  uint32_t Slot = static_cast<uint32_t>(ScalarSlots.size());
  ScalarSlots.push_back(S);
  ScalarSlotFor.emplace(S, Slot);
  return Slot;
}

uint32_t ExprCodeBuilder::arraySlot(sym::SymbolId S) {
  auto It = ArraySlotFor.find(S);
  if (It != ArraySlotFor.end())
    return It->second;
  uint32_t Slot = static_cast<uint32_t>(ArraySlots.size());
  ArraySlots.push_back(S);
  ArraySlotFor.emplace(S, Slot);
  return Slot;
}

void ExprCodeBuilder::emit(ExprInstr::Op Op, uint32_t Slot, int64_t Imm) {
  Code.push_back(ExprInstr{Op, Slot, Imm});
  Depth = static_cast<uint32_t>(static_cast<int>(Depth) + stackDelta(Op));
  MaxDepth = std::max(MaxDepth, Depth);
}

/// Matches an index of the form `scalar + c` (or a bare scalar); these are
/// the A(i) / A(i+1) subscripts that dominate LoopAll bodies and are worth
/// a fused load instruction.
bool ExprCodeBuilder::matchAffineIndex(const sym::Expr *E, sym::SymbolId &S,
                                       int64_t &Off) const {
  if (const auto *R = dyn_cast<sym::SymRefExpr>(E)) {
    S = R->getSymbol();
    Off = 0;
    return true;
  }
  const auto *A = dyn_cast<sym::AddExpr>(E);
  if (!A || A->getTerms().size() != 1)
    return false;
  const sym::Monomial &M = A->getTerms().front();
  const auto *R = dyn_cast<sym::SymRefExpr>(M.Prod);
  if (!R || M.Coeff != 1)
    return false;
  S = R->getSymbol();
  Off = A->getConstant();
  return true;
}

/// Emits \p E onto the expression code stream (one pushed value).
void ExprCodeBuilder::emitExpr(const sym::Expr *E) {
  using sym::ExprKind;
  // Fold any constant subexpression (canonicalization makes most of these
  // IntConst already; this catches interned constants reached through
  // Min/Max/Div/Mod wrappers too).
  if (auto C = Ctx.constValue(E)) {
    emit(ExprInstr::Op::Const, 0, *C);
    return;
  }
  switch (E->getKind()) {
  case ExprKind::IntConst:
    emit(ExprInstr::Op::Const, 0, cast<sym::IntConstExpr>(E)->getValue());
    return;
  case ExprKind::SymRef:
    emit(ExprInstr::Op::Scalar,
         scalarSlot(cast<sym::SymRefExpr>(E)->getSymbol()));
    return;
  case ExprKind::ArrayRef: {
    const auto *R = cast<sym::ArrayRefExpr>(E);
    sym::SymbolId IdxSym;
    int64_t Off;
    if (matchAffineIndex(R->getIndex(), IdxSym, Off) &&
        Off >= std::numeric_limits<int32_t>::min() &&
        Off <= std::numeric_limits<int32_t>::max()) {
      emit(ExprInstr::Op::ArrayLoadOff, arraySlot(R->getArray()),
           ExprInstr::packLoadOff(scalarSlot(IdxSym),
                                  static_cast<int32_t>(Off)));
      return;
    }
    emitExpr(R->getIndex());
    emit(ExprInstr::Op::ArrayLoad, arraySlot(R->getArray()));
    return;
  }
  case ExprKind::Min:
  case ExprKind::Max: {
    const auto *M = cast<sym::MinMaxExpr>(E);
    emitExpr(M->getLHS());
    emitExpr(M->getRHS());
    emit(M->isMin() ? ExprInstr::Op::Min : ExprInstr::Op::Max);
    return;
  }
  case ExprKind::FloorDiv:
  case ExprKind::Mod: {
    const auto *D = cast<sym::DivModExpr>(E);
    emitExpr(D->getOperand());
    emit(D->isDiv() ? ExprInstr::Op::FloorDiv : ExprInstr::Op::Mod, 0,
         D->getDivisor());
    return;
  }
  case ExprKind::Mul: {
    const auto &Factors = cast<sym::MulExpr>(E)->getFactors();
    emitExpr(Factors.front());
    for (size_t I = 1; I < Factors.size(); ++I) {
      emitExpr(Factors[I]);
      emit(ExprInstr::Op::Mul);
    }
    return;
  }
  case ExprKind::Add: {
    // Accumulate in-place, starting from a unit-coefficient term when one
    // exists so the common difference shape `a - b` lowers to
    // [a][b][MulConstAdd -1] with no constant seed. Reordering is safe:
    // operands are side-effect free and any failing operand fails the
    // whole expression regardless of order.
    const auto *A = cast<sym::AddExpr>(E);
    std::vector<const sym::Monomial *> Terms;
    Terms.reserve(A->getTerms().size());
    for (const sym::Monomial &M : A->getTerms())
      Terms.push_back(&M);
    for (size_t I = 0; I < Terms.size(); ++I)
      if (Terms[I]->Coeff == 1) {
        std::swap(Terms[0], Terms[I]);
        break;
      }
    emitExpr(Terms.front()->Prod);
    if (Terms.front()->Coeff != 1)
      emit(ExprInstr::Op::MulConst, 0, Terms.front()->Coeff);
    for (size_t I = 1; I < Terms.size(); ++I) {
      emitExpr(Terms[I]->Prod);
      emit(ExprInstr::Op::MulConstAdd, 0, Terms[I]->Coeff);
    }
    if (A->getConstant() != 0)
      emit(ExprInstr::Op::AddConst, 0, A->getConstant());
    return;
  }
  }
  halo_unreachable("covered switch");
}

std::pair<uint32_t, uint32_t> ExprCodeBuilder::compile(const sym::Expr *E) {
  uint32_t Begin = static_cast<uint32_t>(Code.size());
  Depth = 0; // each range starts from an empty stack
  // Resource guards: the depth pre-check runs *before* the recursive
  // emitter (an in-recursion cap would overflow the C++ stack first on
  // hostile nesting), and the code ceiling bounds total emitted bytecode.
  // A tripped guard emits one balanced dummy constant so every caller's
  // range bookkeeping stays well-formed; the owning compiler checks
  // exceeded() and discards the whole object.
  if (exprNestDepth(E, LoweringMaxNestDepth) > LoweringMaxNestDepth ||
      Code.size() >= LoweringMaxCodeLen) {
    Exceeded = true;
    emit(ExprInstr::Op::Const, 0, 0);
    return {Begin, static_cast<uint32_t>(Code.size())};
  }
  emitExpr(E);
  if (Code.size() > LoweringMaxCodeLen)
    Exceeded = true;
  assert(Depth == 1 && "expression range must leave exactly one value");
  return {Begin, static_cast<uint32_t>(Code.size())};
}

unsigned pdag::exprNestDepth(const sym::Expr *E, unsigned Cap) {
  using sym::ExprKind;
  // Iterative post-order with per-node memo, saturating at Cap + 1.
  std::unordered_map<const sym::Expr *, unsigned> Memo;
  auto ForEachChild = [](const sym::Expr *N, auto F) {
    switch (N->getKind()) {
    case ExprKind::IntConst:
    case ExprKind::SymRef:
      break;
    case ExprKind::ArrayRef:
      F(cast<sym::ArrayRefExpr>(N)->getIndex());
      break;
    case ExprKind::Min:
    case ExprKind::Max:
      F(cast<sym::MinMaxExpr>(N)->getLHS());
      F(cast<sym::MinMaxExpr>(N)->getRHS());
      break;
    case ExprKind::FloorDiv:
    case ExprKind::Mod:
      F(cast<sym::DivModExpr>(N)->getOperand());
      break;
    case ExprKind::Mul:
      for (const sym::Expr *C : cast<sym::MulExpr>(N)->getFactors())
        F(C);
      break;
    case ExprKind::Add:
      for (const sym::Monomial &M : cast<sym::AddExpr>(N)->getTerms())
        F(M.Prod);
      break;
    }
  };
  struct Frame {
    const sym::Expr *E;
    bool ChildrenPushed;
  };
  std::vector<Frame> Stack{{E, false}};
  while (!Stack.empty()) {
    Frame F = Stack.back();
    Stack.pop_back();
    if (Memo.count(F.E))
      continue;
    if (!F.ChildrenPushed) {
      Stack.push_back({F.E, true});
      ForEachChild(F.E, [&](const sym::Expr *C) {
        if (!Memo.count(C))
          Stack.push_back({C, false});
      });
      continue;
    }
    unsigned MaxChild = 0;
    ForEachChild(F.E, [&](const sym::Expr *C) {
      auto It = Memo.find(C);
      unsigned D = It == Memo.end() ? Cap + 1 : It->second;
      if (D > MaxChild)
        MaxChild = D;
    });
    Memo.emplace(F.E, MaxChild >= Cap ? Cap + 1 : MaxChild + 1);
  }
  return Memo.at(E);
}

uint32_t pdag::exprCodeMaxDepth(const ExprInstr *Code, uint32_t Begin,
                                uint32_t End) {
  int Depth = 0, Max = 0;
  for (uint32_t Ip = Begin; Ip != End; ++Ip) {
    Depth += stackDelta(Code[Ip].Opcode);
    Max = std::max(Max, Depth);
  }
  assert(Depth == 1 && "expression range must leave exactly one value");
  return static_cast<uint32_t>(Max);
}

std::optional<int64_t>
pdag::runExprCode(const ExprInstr *Code, uint32_t Begin, uint32_t End,
                  const int64_t *Scalars, const uint8_t *Bound,
                  const sym::ArrayBinding *const *Arrays, int64_t *Stack) {
  int64_t *S = Stack;
  size_t SP = 0;
  for (uint32_t Ip = Begin; Ip != End; ++Ip) {
    const ExprInstr &I = Code[Ip];
    switch (I.Opcode) {
    case ExprInstr::Op::Const:
      S[SP++] = I.Imm;
      break;
    case ExprInstr::Op::Scalar:
      if (!Bound[I.Slot])
        return std::nullopt;
      S[SP++] = Scalars[I.Slot];
      break;
    case ExprInstr::Op::ArrayLoad: {
      const sym::ArrayBinding *A = Arrays[I.Slot];
      const int64_t Idx = S[SP - 1];
      if (!A || !A->inBounds(Idx))
        return std::nullopt;
      S[SP - 1] = A->at(Idx);
      break;
    }
    case ExprInstr::Op::ArrayLoadOff: {
      const sym::ArrayBinding *A = Arrays[I.Slot];
      const uint32_t IdxSlot = I.loadOffIdxSlot();
      if (!Bound[IdxSlot])
        return std::nullopt;
      const int64_t Idx = Scalars[IdxSlot] + I.loadOffDelta();
      if (!A || !A->inBounds(Idx))
        return std::nullopt;
      S[SP++] = A->at(Idx);
      break;
    }
    case ExprInstr::Op::Min: {
      const int64_t R = S[--SP];
      S[SP - 1] = std::min(S[SP - 1], R);
      break;
    }
    case ExprInstr::Op::Max: {
      const int64_t R = S[--SP];
      S[SP - 1] = std::max(S[SP - 1], R);
      break;
    }
    case ExprInstr::Op::FloorDiv:
      S[SP - 1] = floorDivInt(S[SP - 1], I.Imm);
      break;
    case ExprInstr::Op::Mod: {
      const int64_t V = S[SP - 1];
      S[SP - 1] = V - floorDivInt(V, I.Imm) * I.Imm;
      break;
    }
    case ExprInstr::Op::Mul: {
      const int64_t R = S[--SP];
      S[SP - 1] *= R;
      break;
    }
    case ExprInstr::Op::MulConst:
      S[SP - 1] *= I.Imm;
      break;
    case ExprInstr::Op::AddConst:
      S[SP - 1] += I.Imm;
      break;
    case ExprInstr::Op::MulConstAdd: {
      const int64_t V = S[--SP];
      S[SP - 1] += I.Imm * V;
      break;
    }
    }
  }
  assert(SP == 1 && "expression code must leave one value");
  return S[0];
}
