//===- pdag/PredCompile.cpp - Predicate bytecode compiler -----------------===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "pdag/PredCompile.h"

#include "support/Error.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <deque>
#include <unordered_map>
#include <unordered_set>

using namespace halo;
using namespace halo::pdag;

namespace {

// Tri-state encoding on the predicate stack.
constexpr uint8_t TriFalse = 0;
constexpr uint8_t TriTrue = 1;
constexpr uint8_t TriUnknown = 2;

// Same semantics as the Divides case of tryEvalPred.
bool dividesHolds(int64_t DV, int64_t VV, bool Neg) {
  int64_t Div = DV < 0 ? -DV : DV;
  bool Holds = Div == 0 ? (VV == 0) : (VV % Div == 0);
  return Holds != Neg;
}

} // namespace

//===----------------------------------------------------------------------===//
// Compilation
//===----------------------------------------------------------------------===//

namespace halo {
namespace pdag {

class PredCompiler {
public:
  PredCompiler(const sym::Context &Ctx, CompiledPred &Out)
      : Ctx(Ctx), Out(Out),
        XB(Ctx, Out.XCode, Out.ScalarSlots, Out.ArraySlots) {}

  void compileRoot(const Pred *P) {
    countRefs(P);
    compilePred(P, /*AtRoot=*/true);
    Out.MainCodeEnd = here();
    emitSubroutines();
    finalize(P);
  }

  /// True when the expression layer tripped a lowering resource guard
  /// while emitting this object (CompiledPred::compile then discards it).
  bool exceeded() const { return XB.exceeded(); }

private:
  uint32_t scalarSlot(sym::SymbolId S) { return XB.scalarSlot(S); }

  /// Emits \p E as a fresh expression code range (shared expression
  /// bytecode layer, pdag/ExprCode.h).
  std::pair<uint32_t, uint32_t> compileExpr(const sym::Expr *E) {
    return XB.compile(E);
  }

  uint32_t emitP(PredInstr::Op Op, uint32_t A = 0, uint32_t B = 0,
                 uint32_t C = 0, uint32_t D = 0, uint8_t Aux = 0) {
    Out.PCode.push_back(PredInstr{Op, A, B, C, D, Aux});
    return static_cast<uint32_t>(Out.PCode.size() - 1);
  }

  uint32_t here() const { return static_cast<uint32_t>(Out.PCode.size()); }

  /// DAG analysis: per-node reference counts (deciding which shared
  /// compound nodes become subroutines) and the set of every LoopAll
  /// bound variable (the conservative invariance context for code shared
  /// across call sites).
  void countRefs(const Pred *P) {
    if (++RefCount[P] > 1)
      return; // Children already counted on the first visit.
    switch (P->getKind()) {
    case PredKind::And:
    case PredKind::Or:
      for (const Pred *C : cast<NaryPred>(P)->getChildren())
        countRefs(C);
      return;
    case PredKind::LoopAll: {
      const auto *L = cast<LoopAllPred>(P);
      AllLoopVars.push_back(L->getVar());
      countRefs(L->getBody());
      return;
    }
    case PredKind::CallSite:
      countRefs(cast<CallSitePred>(P)->getBody());
      return;
    default:
      return;
    }
  }

  /// A multiply-referenced compound node compiles once as a subroutine;
  /// expanding the interned DAG into a tree can blow code size up by
  /// orders of magnitude (the UMEG-factorized predicates share heavily).
  bool isSharedSub(const Pred *P) const {
    switch (P->getKind()) {
    case PredKind::And:
    case PredKind::Or:
    case PredKind::LoopAll:
    case PredKind::CallSite: {
      auto It = RefCount.find(P);
      return It != RefCount.end() && It->second > 1;
    }
    default:
      return false; // Leaves are at most a couple of instructions.
    }
  }

  /// True when \p P reads none of the loop variables it could be
  /// iterated under. Inside a subroutine body the code is shared across
  /// call sites with different loop contexts, so the check is against
  /// every LoopAll variable of the whole predicate.
  bool isInvariantHere(const Pred *P) const {
    const std::vector<sym::SymbolId> &Vars =
        InSubBody ? AllLoopVars : EnclosingVars;
    for (sym::SymbolId V : Vars)
      if (P->dependsOn(V))
        return false;
    return true;
  }

  /// Emits a reference to \p P: shared compound nodes become a CallSub to
  /// their (single) subroutine body, everything else compiles inline.
  void emitNodeRef(const Pred *P, bool AtRoot) {
    if (!AtRoot && isSharedSub(P)) {
      if (Scheduled.insert(P).second)
        PendingSubs.push_back(P);
      CallSites.emplace_back(emitP(PredInstr::Op::CallSub), P);
      return;
    }
    compilePred(P, AtRoot);
  }

  /// Compiles \p P, memoizing it when it is loop-invariant at this site:
  /// the first evaluation stores the tri-state in a per-evaluation memo
  /// slot, later iterations jump straight past the sub-predicate's code.
  void compileChild(const Pred *P) {
    const bool InLoop = InSubBody ? !AllLoopVars.empty()
                                  : !EnclosingVars.empty();
    bool Memoize = InLoop && !P->isTrue() && !P->isFalse() &&
                   isInvariantHere(P);
    if (!Memoize) {
      emitNodeRef(P, /*AtRoot=*/false);
      return;
    }
    uint32_t Slot;
    auto It = MemoSlotFor.find(P);
    if (It != MemoSlotFor.end()) {
      Slot = It->second;
    } else {
      Slot = Out.NumMemoSlots++;
      MemoSlotFor.emplace(P, Slot);
    }
    uint32_t Check = emitP(PredInstr::Op::MemoCheck, Slot);
    emitNodeRef(P, /*AtRoot=*/false);
    emitP(PredInstr::Op::MemoStore, Slot);
    Out.PCode[Check].B = here();
  }

  void emitSubroutines() {
    if (PendingSubs.empty())
      return;
    // Padding so no subroutine entry aliases MainCodeEnd (the run loop's
    // end-of-code sentinel); never executed.
    emitP(PredInstr::Op::Ret);
    InSubBody = true;
    EnclosingVars.clear();
    while (!PendingSubs.empty()) {
      const Pred *P = PendingSubs.front();
      PendingSubs.pop_front();
      uint32_t Entry = here();
      SubEntry[P] = Entry;
      compilePred(P, /*AtRoot=*/false);
      emitP(PredInstr::Op::Ret);
    }
    InSubBody = false;
    for (const auto &[Ip, P] : CallSites)
      Out.PCode[Ip].A = SubEntry.at(P);
    Out.NumSubs = static_cast<uint32_t>(SubEntry.size());
  }

  /// Exact peak tri-state stack depth of evaluating \p P (which leaves
  /// one value): And/Or hold their accumulator while a child evaluates,
  /// loop/call state lives on separate stacks. Matches the emitted
  /// bytecode instruction for instruction, so frames can be sized from it
  /// instead of code length.
  uint32_t predDepth(const Pred *P) {
    auto It = DepthMemo.find(P);
    if (It != DepthMemo.end())
      return It->second;
    uint32_t D = 1;
    switch (P->getKind()) {
    case PredKind::And:
    case PredKind::Or: {
      uint32_t M = 0;
      for (const Pred *C : cast<NaryPred>(P)->getChildren())
        M = std::max(M, predDepth(C));
      D = 1 + M;
      break;
    }
    case PredKind::LoopAll:
      D = std::max(1u, predDepth(cast<LoopAllPred>(P)->getBody()));
      break;
    case PredKind::CallSite:
      D = predDepth(cast<CallSitePred>(P)->getBody());
      break;
    default:
      break; // Leaves push exactly one value.
    }
    DepthMemo.emplace(P, D);
    return D;
  }

  /// Exact LoopAll nesting depth (LoopStack bound).
  uint32_t loopNest(const Pred *P) {
    auto It = NestMemo.find(P);
    if (It != NestMemo.end())
      return It->second;
    uint32_t D = 0;
    switch (P->getKind()) {
    case PredKind::And:
    case PredKind::Or:
      for (const Pred *C : cast<NaryPred>(P)->getChildren())
        D = std::max(D, loopNest(C));
      break;
    case PredKind::LoopAll:
      D = 1 + loopNest(cast<LoopAllPred>(P)->getBody());
      break;
    case PredKind::CallSite:
      D = loopNest(cast<CallSitePred>(P)->getBody());
      break;
    default:
      break;
    }
    NestMemo.emplace(P, D);
    return D;
  }

  /// Post-pass: exact stack depths (frames are sized from these).
  void finalize(const Pred *Root) {
    Out.XMaxDepth = XB.maxStackDepth();
    Out.PMaxDepth = predDepth(Root);
    Out.MaxLoopNest = loopNest(Root);
#ifndef NDEBUG
    // Validate the exact expression-depth bound against a static
    // simulation of every referenced range (the satellite contract).
    const ExprInstr *XC = Out.XCode.data();
    for (const PredInstr &I : Out.PCode) {
      if (I.Opcode == PredInstr::Op::LeafCmp)
        assert(exprCodeMaxDepth(XC, I.A, I.B) <= Out.XMaxDepth);
      else if (I.Opcode == PredInstr::Op::LeafDivides) {
        assert(exprCodeMaxDepth(XC, I.A, I.B) <= Out.XMaxDepth);
        assert(exprCodeMaxDepth(XC, I.C, I.D) <= Out.XMaxDepth);
      }
    }
    for (const CompiledLoop &L : Out.Loops) {
      assert(exprCodeMaxDepth(XC, L.LoExprBegin, L.LoExprEnd) <=
             Out.XMaxDepth);
      assert(exprCodeMaxDepth(XC, L.HiExprBegin, L.HiExprEnd) <=
             Out.XMaxDepth);
    }
#endif
  }

  void compilePred(const Pred *P, bool AtRoot) {
    switch (P->getKind()) {
    case PredKind::True:
      emitP(PredInstr::Op::PushBool, 0, 0, 0, 0, TriTrue);
      return;
    case PredKind::False:
      emitP(PredInstr::Op::PushBool, 0, 0, 0, 0, TriFalse);
      return;
    case PredKind::Cmp: {
      const auto *C = cast<CmpPred>(P);
      if (auto V = Ctx.constValue(C->getExpr())) {
        bool R = false;
        switch (C->getRel()) {
        case CmpRel::GE0:
          R = *V >= 0;
          break;
        case CmpRel::EQ0:
          R = *V == 0;
          break;
        case CmpRel::NE0:
          R = *V != 0;
          break;
        }
        emitP(PredInstr::Op::PushBool, 0, 0, 0, 0, R ? TriTrue : TriFalse);
        return;
      }
      auto [B, E] = compileExpr(C->getExpr());
      emitP(PredInstr::Op::LeafCmp, B, E, 0, 0,
            static_cast<uint8_t>(C->getRel()));
      return;
    }
    case PredKind::Divides: {
      const auto *D = cast<DividesPred>(P);
      auto DV = Ctx.constValue(D->getDivisor());
      auto VV = Ctx.constValue(D->getValue());
      if (DV && VV) {
        emitP(PredInstr::Op::PushBool, 0, 0, 0, 0,
              dividesHolds(*DV, *VV, D->isNegated()) ? TriTrue : TriFalse);
        return;
      }
      auto [DB, DE] = compileExpr(D->getDivisor());
      auto [VB, VE] = compileExpr(D->getValue());
      emitP(PredInstr::Op::LeafDivides, DB, DE, VB, VE,
            D->isNegated() ? 1 : 0);
      return;
    }
    case PredKind::And:
    case PredKind::Or: {
      const auto *N = cast<NaryPred>(P);
      const bool IsAnd = N->isAnd();
      emitP(PredInstr::Op::PushBool, 0, 0, 0, 0, IsAnd ? TriTrue : TriFalse);
      std::vector<uint32_t> Steps;
      for (const Pred *C : N->getChildren()) {
        compileChild(C);
        Steps.push_back(
            emitP(IsAnd ? PredInstr::Op::AndStep : PredInstr::Op::OrStep));
      }
      for (uint32_t S : Steps)
        Out.PCode[S].A = here();
      return;
    }
    case PredKind::LoopAll: {
      const auto *L = cast<LoopAllPred>(P);
      uint32_t DescIdx = static_cast<uint32_t>(Out.Loops.size());
      Out.Loops.emplace_back();
      {
        CompiledLoop &D = Out.Loops[DescIdx];
        std::tie(D.LoExprBegin, D.LoExprEnd) = compileExpr(L->getLo());
        std::tie(D.HiExprBegin, D.HiExprEnd) = compileExpr(L->getHi());
        D.VarSlot = scalarSlot(L->getVar());
      }
      if (AtRoot)
        Out.RootLoop = static_cast<int32_t>(DescIdx);
      emitP(PredInstr::Op::LoopBegin, DescIdx);
      Out.Loops[DescIdx].BodyBegin = here();
      EnclosingVars.push_back(L->getVar());
      compileChild(L->getBody());
      EnclosingVars.pop_back();
      Out.Loops[DescIdx].StepIp = emitP(PredInstr::Op::LoopStep, DescIdx);
      Out.Loops[DescIdx].EndIp = here();
      return;
    }
    case PredKind::CallSite:
      // Opaque barrier for static reasoning only; evaluation passes
      // through to the body (same as the interpreter).
      emitNodeRef(cast<CallSitePred>(P)->getBody(), AtRoot);
      return;
    }
    halo_unreachable("covered switch");
  }

  const sym::Context &Ctx;
  CompiledPred &Out;
  ExprCodeBuilder XB;
  std::vector<sym::SymbolId> EnclosingVars;
  std::vector<sym::SymbolId> AllLoopVars;
  bool InSubBody = false;
  std::unordered_map<const Pred *, uint32_t> MemoSlotFor;
  std::unordered_map<const Pred *, uint32_t> RefCount;
  std::unordered_set<const Pred *> Scheduled;
  std::deque<const Pred *> PendingSubs;
  std::vector<std::pair<uint32_t, const Pred *>> CallSites;
  std::unordered_map<const Pred *, uint32_t> SubEntry;
  std::unordered_map<const Pred *, uint32_t> DepthMemo;
  std::unordered_map<const Pred *, uint32_t> NestMemo;
};

} // namespace pdag
} // namespace halo

namespace {

/// Iterative (explicit-stack) pre-check that the predicate DAG and every
/// leaf expression fit the lowering caps. Runs *before* the recursive
/// PredCompiler so a hostile deeply-nested predicate cannot overflow the
/// C++ stack during compilation; a failed check demotes the predicate to
/// the reference interpreter instead (CompiledPred::compile returns null).
bool predLoweringFits(const Pred *Root, unsigned Cap) {
  auto ForEachChild = [](const Pred *N, auto F) {
    switch (N->getKind()) {
    case PredKind::True:
    case PredKind::False:
    case PredKind::Cmp:
    case PredKind::Divides:
      break;
    case PredKind::And:
    case PredKind::Or:
      for (const Pred *C : cast<NaryPred>(N)->getChildren())
        F(C);
      break;
    case PredKind::LoopAll:
      F(cast<LoopAllPred>(N)->getBody());
      break;
    case PredKind::CallSite:
      F(cast<CallSitePred>(N)->getBody());
      break;
    }
  };
  // Pred-node nesting depth, memoized and saturated at Cap + 1.
  std::unordered_map<const Pred *, unsigned> Memo;
  struct Frame {
    const Pred *P;
    bool ChildrenPushed;
  };
  std::vector<Frame> Stack{{Root, false}};
  while (!Stack.empty()) {
    Frame F = Stack.back();
    Stack.pop_back();
    if (Memo.count(F.P))
      continue;
    if (!F.ChildrenPushed) {
      Stack.push_back({F.P, true});
      ForEachChild(F.P, [&](const Pred *C) {
        if (!Memo.count(C))
          Stack.push_back({C, false});
      });
      continue;
    }
    unsigned MaxChild = 0;
    ForEachChild(F.P, [&](const Pred *C) {
      auto It = Memo.find(C);
      unsigned D = It == Memo.end() ? Cap + 1 : It->second;
      if (D > MaxChild)
        MaxChild = D;
    });
    Memo.emplace(F.P, MaxChild >= Cap ? Cap + 1 : MaxChild + 1);
  }
  if (Memo.at(Root) > Cap)
    return false;
  // Every leaf expression must fit the expression lowering cap too.
  std::vector<const Pred *> Walk{Root};
  std::unordered_set<const Pred *> Seen;
  while (!Walk.empty()) {
    const Pred *N = Walk.back();
    Walk.pop_back();
    if (!Seen.insert(N).second)
      continue;
    std::vector<const sym::Expr *> Leaves;
    if (const auto *C = dyn_cast<CmpPred>(N)) {
      Leaves.push_back(C->getExpr());
    } else if (const auto *D = dyn_cast<DividesPred>(N)) {
      Leaves.push_back(D->getDivisor());
      Leaves.push_back(D->getValue());
    } else if (const auto *LA = dyn_cast<LoopAllPred>(N)) {
      Leaves.push_back(LA->getLo());
      Leaves.push_back(LA->getHi());
    }
    for (const sym::Expr *E : Leaves)
      if (exprNestDepth(E, LoweringMaxNestDepth) > LoweringMaxNestDepth)
        return false;
    ForEachChild(N, [&](const Pred *C) { Walk.push_back(C); });
  }
  return true;
}

} // namespace

std::unique_ptr<CompiledPred> CompiledPred::compile(const Pred *P,
                                                    const sym::Context &Ctx) {
  // Resource guards (graceful demotion contract, docs/FUZZING.md): a
  // predicate too deep or too large to lower returns null here; callers
  // (PredCompileCache, USR gate lowering) fall back to tryEvalPred and
  // the governor counts the demotion in ExecStats::GuardDemotions.
  if (!predLoweringFits(P, LoweringMaxNestDepth))
    return nullptr;
  std::unique_ptr<CompiledPred> CP(new CompiledPred());
  CP->Source = P;
  PredCompiler C(Ctx, *CP);
  C.compileRoot(P);
  if (C.exceeded() || CP->PCode.size() > LoweringMaxCodeLen ||
      CP->XCode.size() > LoweringMaxCodeLen)
    return nullptr;
  return CP;
}

//===----------------------------------------------------------------------===//
// Evaluation
//===----------------------------------------------------------------------===//

/// Per-evaluation state: resolved symbol slots, memo table and
/// preallocated evaluation stacks (compile() bounds their depths, so the
/// hot loop runs on raw pointers with no size checks). Copied per worker
/// by the parallel evaluator (the copies share the immutable ArrayBinding
/// storage behind the raw pointers).
struct CompiledPred::Frame {
  std::vector<int64_t> ScalarVals;
  std::vector<uint8_t> ScalarBound;
  std::vector<const sym::ArrayBinding *> Arrays;
  std::vector<int8_t> Memo; // -1 unset, else a tri-state.
  std::vector<int64_t> XStack;
  std::vector<uint8_t> PStack;
  struct LoopState {
    uint32_t Desc;
    int64_t Cur, Hi;
    int64_t SavedVal;
    uint8_t SavedBound;
  };
  std::vector<LoopState> LoopStack;
  std::vector<uint32_t> RetStack;
  EvalStats Stats;
};

void CompiledPred::bindFrame(Frame &F, const sym::Bindings &B) const {
  F.ScalarVals.assign(ScalarSlots.size(), 0);
  F.ScalarBound.assign(ScalarSlots.size(), 0);
  for (size_t I = 0; I < ScalarSlots.size(); ++I)
    if (auto V = B.scalar(ScalarSlots[I])) {
      F.ScalarVals[I] = *V;
      F.ScalarBound[I] = 1;
    }
  F.Arrays.resize(ArraySlots.size());
  for (size_t I = 0; I < ArraySlots.size(); ++I)
    F.Arrays[I] = B.array(ArraySlots[I]);
  F.Memo.assign(NumMemoSlots, -1);
  // Exact depth bounds, precomputed at compile time (finalize()): the
  // peak stack depths of the emitted code, not the code-length + slack
  // over-approximation this used to allocate.
  F.XStack.resize(XMaxDepth);
  F.PStack.resize(PMaxDepth);
  F.LoopStack.resize(MaxLoopNest);
  F.RetStack.resize(NumSubs);
}

std::optional<int64_t> CompiledPred::evalExpr(uint32_t Begin, uint32_t End,
                                              Frame &F) const {
  return runExprCode(XCode.data(), Begin, End, F.ScalarVals.data(),
                     F.ScalarBound.data(), F.Arrays.data(),
                     F.XStack.data());
}

uint8_t CompiledPred::run(uint32_t IpBegin, uint32_t IpEnd, Frame &F) const {
  uint8_t *St = F.PStack.data();
  size_t SP = 0;
  Frame::LoopState *LoopSt = F.LoopStack.data();
  size_t LSP = 0;
  uint32_t *RetSt = F.RetStack.data();
  size_t RSP = 0;
  const PredInstr *Code = PCode.data();
  uint32_t Ip = IpBegin;
  while (Ip != IpEnd) {
    const PredInstr &I = Code[Ip];
    switch (I.Opcode) {
    case PredInstr::Op::PushBool:
      St[SP++] = I.Aux;
      assert(SP <= PMaxDepth && "tri-state stack exceeded precomputed depth");
      ++Ip;
      break;
    case PredInstr::Op::LeafCmp: {
      auto V = evalExpr(I.A, I.B, F);
      uint8_t R = TriUnknown;
      if (V) {
        ++F.Stats.LeafEvals;
        switch (static_cast<CmpRel>(I.Aux)) {
        case CmpRel::GE0:
          R = *V >= 0 ? TriTrue : TriFalse;
          break;
        case CmpRel::EQ0:
          R = *V == 0 ? TriTrue : TriFalse;
          break;
        case CmpRel::NE0:
          R = *V != 0 ? TriTrue : TriFalse;
          break;
        }
      }
      St[SP++] = R;
      assert(SP <= PMaxDepth && "tri-state stack exceeded precomputed depth");
      ++Ip;
      break;
    }
    case PredInstr::Op::LeafDivides: {
      auto DV = evalExpr(I.A, I.B, F);
      auto VV = evalExpr(I.C, I.D, F);
      uint8_t R = TriUnknown;
      if (DV && VV) {
        ++F.Stats.LeafEvals;
        R = dividesHolds(*DV, *VV, I.Aux != 0) ? TriTrue : TriFalse;
      }
      St[SP++] = R;
      ++Ip;
      break;
    }
    case PredInstr::Op::AndStep: {
      const uint8_t C = St[--SP];
      uint8_t &Acc = St[SP - 1];
      if (C == TriFalse)
        Acc = TriFalse;
      else if (C == TriUnknown && Acc == TriTrue)
        Acc = TriUnknown;
      Ip = Acc == TriFalse ? I.A : Ip + 1;
      break;
    }
    case PredInstr::Op::OrStep: {
      const uint8_t C = St[--SP];
      uint8_t &Acc = St[SP - 1];
      if (C == TriTrue)
        Acc = TriTrue;
      else if (C == TriUnknown && Acc == TriFalse)
        Acc = TriUnknown;
      Ip = Acc == TriTrue ? I.A : Ip + 1;
      break;
    }
    case PredInstr::Op::LoopBegin: {
      const CompiledLoop &L = Loops[I.A];
      auto Lo = evalExpr(L.LoExprBegin, L.LoExprEnd, F);
      auto Hi = evalExpr(L.HiExprBegin, L.HiExprEnd, F);
      if (!Lo || !Hi) {
        St[SP++] = TriUnknown;
        Ip = L.EndIp;
        break;
      }
      if (*Lo > *Hi) {
        St[SP++] = TriTrue;
        Ip = L.EndIp;
        break;
      }
      LoopSt[LSP++] = Frame::LoopState{I.A, *Lo, *Hi,
                                       F.ScalarVals[L.VarSlot],
                                       F.ScalarBound[L.VarSlot]};
      F.ScalarVals[L.VarSlot] = *Lo;
      F.ScalarBound[L.VarSlot] = 1;
      ++F.Stats.LoopIters;
      Ip = L.BodyBegin;
      break;
    }
    case PredInstr::Op::LoopStep: {
      const uint8_t R = St[--SP];
      Frame::LoopState &LS = LoopSt[LSP - 1];
      const CompiledLoop &L = Loops[LS.Desc];
      if (R == TriTrue && LS.Cur < LS.Hi) {
        ++LS.Cur;
        F.ScalarVals[L.VarSlot] = LS.Cur;
        ++F.Stats.LoopIters;
        Ip = L.BodyBegin;
        break;
      }
      F.ScalarVals[L.VarSlot] = LS.SavedVal;
      F.ScalarBound[L.VarSlot] = LS.SavedBound;
      --LSP;
      St[SP++] = R;
      Ip = L.EndIp;
      break;
    }
    case PredInstr::Op::MemoCheck: {
      const int8_t M = F.Memo[I.A];
      if (M >= 0) {
        ++F.Stats.MemoHits;
        St[SP++] = static_cast<uint8_t>(M);
        Ip = I.B;
      } else {
        ++Ip;
      }
      break;
    }
    case PredInstr::Op::MemoStore:
      F.Memo[I.A] = static_cast<int8_t>(St[SP - 1]);
      ++Ip;
      break;
    case PredInstr::Op::CallSub:
      RetSt[RSP++] = Ip + 1;
      Ip = I.A;
      break;
    case PredInstr::Op::Ret:
      Ip = RetSt[--RSP];
      break;
    }
  }
  assert(SP == 1 && "predicate code must leave one value");
  return St[SP - 1];
}

/// Reusable per-thread frame: bindFrame() resizes with assign()/resize(),
/// so after warm-up repeated evaluations allocate nothing. Safe because
/// eval()/evalWithSlots() never re-enter on the same thread.
CompiledPred::Frame &CompiledPred::scratchFrame() {
  thread_local Frame F;
  return F;
}

std::optional<bool> CompiledPred::runMainOnFrame(Frame &F,
                                                 EvalStats *Stats) const {
  const uint8_t R = run(0, MainCodeEnd, F);
  F.Stats.CompiledEvals = 1;
  if (Stats)
    *Stats += F.Stats;
  if (R == TriUnknown)
    return std::nullopt;
  return R == TriTrue;
}

std::optional<bool> CompiledPred::eval(const sym::Bindings &B,
                                       EvalStats *Stats) const {
  Frame &F = scratchFrame();
  F.Stats = EvalStats();
  bindFrame(F, B);
  return runMainOnFrame(F, Stats);
}

std::optional<bool>
CompiledPred::evalWithSlots(const sym::Bindings &B,
                            const std::pair<uint32_t, int64_t> *Overrides,
                            size_t N, EvalStats *Stats) const {
  Frame &F = scratchFrame();
  F.Stats = EvalStats();
  bindFrame(F, B);
  for (size_t I = 0; I < N; ++I) {
    F.ScalarVals[Overrides[I].first] = Overrides[I].second;
    F.ScalarBound[Overrides[I].first] = 1;
  }
  return runMainOnFrame(F, Stats);
}

//===----------------------------------------------------------------------===//
// Pooled frames (analyze-once / execute-many)
//===----------------------------------------------------------------------===//

CompiledPred::PooledFrame::PooledFrame() = default;
CompiledPred::PooledFrame::~PooledFrame() = default;
CompiledPred::PooledFrame::PooledFrame(PooledFrame &&) noexcept = default;
CompiledPred::PooledFrame &
CompiledPred::PooledFrame::operator=(PooledFrame &&) noexcept = default;

CompiledPred::Frame &CompiledPred::bindPooled(PooledFrame &PF,
                                              const sym::Bindings &B) const {
  if (!PF.Main)
    PF.Main = std::make_unique<Frame>();
  Frame &F = *PF.Main;
  bindFrame(F, B);
  F.Stats = EvalStats();
  F.Stats.FrameBinds = 1;
  return F;
}

std::optional<bool> CompiledPred::evalPooled(PooledFrame &PF,
                                             const sym::Bindings &B,
                                             EvalStats *Stats) const {
  return runMainOnFrame(bindPooled(PF, B), Stats);
}

std::optional<bool>
CompiledPred::evalParallelPooled(PooledFrame &PF, const sym::Bindings &B,
                                 ThreadPool &Pool, EvalStats *Stats,
                                 int64_t MinParallelIters,
                                 const support::CancelToken *Cancel) const {
  if (RootLoop < 0 || Pool.numThreads() <= 1)
    return evalPooled(PF, B, Stats);
  Frame &F = bindPooled(PF, B);
  const CompiledLoop &L = Loops[static_cast<size_t>(RootLoop)];
  auto Lo = evalExpr(L.LoExprBegin, L.LoExprEnd, F);
  auto Hi = evalExpr(L.HiExprBegin, L.HiExprEnd, F);
  if (!Lo || !Hi) {
    if (Stats) {
      F.Stats.CompiledEvals = 1;
      *Stats += F.Stats;
    }
    return std::nullopt;
  }
  if (*Lo > *Hi) {
    if (Stats) {
      F.Stats.CompiledEvals = 1;
      *Stats += F.Stats;
    }
    return true;
  }
  const unsigned NT = Pool.numThreads();
  if (support::stopRequested(Cancel))
    return std::nullopt; // Cancelled: no answer, not "false".
  if (*Hi - *Lo + 1 < MinParallelIters * static_cast<int64_t>(NT))
    return runMainOnFrame(F, Stats);

  // Worker frames are copy-assigned from the freshly bound main frame, so
  // their buffers keep capacity across evaluations.
  if (PF.Workers.size() < NT)
    PF.Workers.resize(NT);
  for (unsigned W = 0; W < NT; ++W)
    PF.Workers[W] = F;

  // Exact first-failure frontier: a worker may stop as soon as its current
  // iteration lies beyond the earliest known non-true iteration; every
  // iteration before the final frontier is therefore fully evaluated, so
  // the merged result (outcome at the minimal recorded iteration) is
  // identical to the sequential early-exit semantics of tryEvalPred,
  // including which of false/unknown decides.
  std::atomic<int64_t> FirstBad{INT64_MAX};
  std::vector<uint8_t> Outcome(NT, TriTrue);
  std::vector<int64_t> BadAt(NT, INT64_MAX);
  std::vector<EvalStats> WorkerStats(NT);

  Pool.parallelAllOf(
      *Lo, *Hi + 1,
      [&](int64_t BLo, int64_t BHi, unsigned W, std::atomic<bool> &) -> bool {
        Frame &FW = PF.Workers[W]; // Private slots + memo per worker.
        FW.Stats = EvalStats();
        bool Ok = true;
        for (int64_t I = BLo; I < BHi; ++I) {
          if (I > FirstBad.load(std::memory_order_relaxed))
            break;
          FW.ScalarVals[L.VarSlot] = I;
          FW.ScalarBound[L.VarSlot] = 1;
          ++FW.Stats.LoopIters;
          uint8_t R = run(L.BodyBegin, L.StepIp, FW);
          if (R != TriTrue) {
            Outcome[W] = R;
            BadAt[W] = I;
            int64_t Cur = FirstBad.load(std::memory_order_relaxed);
            while (I < Cur && !FirstBad.compare_exchange_weak(
                                  Cur, I, std::memory_order_relaxed)) {
            }
            Ok = false;
            break;
          }
        }
        WorkerStats[W] = FW.Stats;
        return Ok;
      },
      Cancel);

  EvalStats Agg;
  for (unsigned W = 0; W < NT; ++W)
    Agg += WorkerStats[W];
  Agg.CompiledEvals = 1;
  Agg.FrameBinds = F.Stats.FrameBinds;
  if (Stats)
    *Stats += Agg;

  // A fired token may have suppressed blocks entirely, so Outcome/BadAt
  // no longer describe the true first-failure frontier: discard them.
  // (Counted stats above only describe the work actually done.)
  if (support::stopRequested(Cancel))
    return std::nullopt;

  int64_t Best = INT64_MAX;
  uint8_t R = TriTrue;
  for (unsigned W = 0; W < NT; ++W)
    if (BadAt[W] < Best) {
      Best = BadAt[W];
      R = Outcome[W];
    }
  if (R == TriUnknown)
    return std::nullopt;
  return R == TriTrue;
}
