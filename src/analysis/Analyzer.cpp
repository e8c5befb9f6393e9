//===- analysis/Analyzer.cpp - Hybrid loop analysis driver ----------------===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "analysis/Analyzer.h"

#include "pdag/PredEval.h"
#include "usr/USRCompile.h"
#include "usr/USREval.h"
#include "usr/USRTransform.h"

#include <algorithm>
#include <sstream>

using namespace halo;
using namespace halo::analysis;
using summary::AccessTriple;
using usr::USR;

//===----------------------------------------------------------------------===//
// LoopPlan reporting
//===----------------------------------------------------------------------===//

int LoopPlan::maxTestDepth() const {
  int D = -1;
  auto Consider = [&D](const TestCascade &C) {
    if (!C.StaticallyTrue && !C.Stages.empty())
      D = std::max(D, C.Stages.front().Depth);
  };
  for (const ArrayPlan &A : Arrays) {
    Consider(A.Flow);
    if (!A.Output.StaticallyTrue && !A.Priv.StaticallyTrue) {
      Consider(A.Output);
      Consider(A.Priv);
    }
    if (A.HasReduction) {
      Consider(A.ExtRedFlow);
    }
  }
  return D;
}

std::string LoopPlan::classString() const {
  switch (Class) {
  case LoopClass::StaticPar:
    return "STATIC-PAR";
  case LoopClass::StaticSeq:
    return "STATIC-SEQ";
  case LoopClass::HoistUSR:
    return "HOIST-USR";
  case LoopClass::TLS:
    return "TLS";
  case LoopClass::Predicated:
    break;
  }
  // Runtime-assisted without predicate tests: name the enabling technique
  // the way the paper's tables do.
  std::string Prefix;
  if (Techniques.count(Technique::BoundsComp))
    Prefix = "BOUNDS-COMP";
  // Compose the flow/output annotation, e.g. "F/OI O(1)/O(N)", from the
  // reporting fields computed during analysis.
  bool NeedF = ReportNeedsFlow, NeedO = ReportNeedsOut;
  int FD = ReportFlowDepth, OD = ReportOutDepth;
  auto Ord = [](int D) {
    return D <= 0 ? std::string("O(1)")
                  : (D == 1 ? std::string("O(N)")
                            : "O(N^" + std::to_string(D) + ")");
  };
  std::ostringstream OS;
  if (!Prefix.empty())
    OS << Prefix;
  auto Sep = [&OS, &Prefix]() {
    if (!Prefix.empty())
      OS << " ";
  };
  if (NeedF && NeedO) {
    Sep();
    OS << "F/OI " << Ord(FD) << "/" << Ord(OD);
  } else if (NeedF) {
    Sep();
    OS << "FI " << Ord(FD);
  } else if (NeedO) {
    Sep();
    OS << "OI " << Ord(OD);
  } else if (Prefix.empty()) {
    // Runtime-assisted for another reason: CIV precomputation.
    OS << (Techniques.count(Technique::CivAgg) ? "CIV-COMP" : "RT");
  }
  return OS.str();
}

std::string LoopPlan::techniqueString() const {
  static const std::pair<Technique, const char *> Names[] = {
      {Technique::Priv, "PRIV"},         {Technique::SLV, "SLV"},
      {Technique::DLV, "DLV"},           {Technique::SRed, "SRED"},
      {Technique::RRed, "RRED"},         {Technique::ExtRed, "EXT-RRED"},
      {Technique::BoundsComp, "BOUNDS-COMP"},
      {Technique::CivAgg, "CIVagg"},     {Technique::Mon, "MON"},
      {Technique::UMEG, "UMEG"},
  };
  std::string Out;
  for (const auto &KV : Names)
    if (Techniques.count(KV.first)) {
      if (!Out.empty())
        Out += ",";
      Out += KV.second;
    }
  return Out;
}

//===----------------------------------------------------------------------===//
// HybridAnalyzer
//===----------------------------------------------------------------------===//

HybridAnalyzer::HybridAnalyzer(usr::USRContext &Ctx, ir::Program &Prog,
                               AnalyzerOptions Opts)
    : Ctx(Ctx), P(Ctx.predCtx()), Sym(Ctx.symCtx()), Prog(Prog),
      Opts(Opts) {}

TestCascade HybridAnalyzer::makeCascade(const pdag::Pred *Pr) const {
  TestCascade C;
  const pdag::Pred *Full =
      Opts.CascadeSeparation ? pdag::simplify(P, Pr) : Pr;
  if (Full->isTrue()) {
    C.StaticallyTrue = true;
    return C;
  }
  if (Full->isFalse())
    return C;
  if (!Opts.RuntimeTests) // Static-only baseline: no dynamic tests.
    return C;
  if (Opts.CascadeSeparation) {
    C.Stages = pdag::buildCascade(P, Full);
  } else {
    C.Stages = {pdag::CascadeStage{Full, Full->loopDepth()}};
  }
  // Complexity budget (Sec. 3.6): drop stages beyond the configured loop
  // depth; an empty cascade routes to the exact-test / TLS fallback.
  // They are built and then dropped on purpose: the factorizer's node
  // budget counts every node interned since it was created, so the nodes
  // of these stages shape what the array's next cascades can afford.
  // Building only up to MaxPredDepth changes zeusmp TRANX2_do2100's
  // privatization cascades.
  // Also drop *vacuous* stages that only cover the empty-iteration-space
  // case (conjoining with `lo <= hi` folds them to false): they would
  // misreport the complexity of the first useful test.
  C.Stages.erase(
      std::remove_if(C.Stages.begin(), C.Stages.end(),
                     [this](const pdag::CascadeStage &S) {
                       if (S.Depth > Opts.MaxPredDepth)
                         return true;
                       if (CurLo && CurHi &&
                           P.and2(S.P, P.le(CurLo, CurHi))->isFalse())
                         return true;
                       return false;
                     }),
      C.Stages.end());
  return C;
}

TestCascade HybridAnalyzer::factorToCascade(factor::Factorizer &F,
                                            const USR *S) {
  const USR *In = Opts.UMEGReshape ? usr::reshapeUMEG(Ctx, S) : S;
  return makeCascade(F.factor(In));
}

LoopPlan HybridAnalyzer::analyze(const ir::DoLoop &Loop) {
  LoopPlan Plan;
  Plan.Loop = &Loop;
  Plan.Hoistable = Opts.HoistableContext;
  Plan.RuntimeTestsEnabled = Opts.RuntimeTests;
  CurLo = Loop.getLo();
  CurHi = Loop.getHi();

  summary::SummaryBuilder Builder(Ctx, Prog);
  summary::RegionSummary Iter =
      Builder.summarizeIteration(Loop, Plan.Civ);
  if (!Plan.Civ.empty())
    Plan.Techniques.insert(Technique::CivAgg);

  summary::LoopSpace Space{Loop.getVar(), Loop.getLo(), Loop.getHi()};

  // Union of array symbols appearing in either map.
  std::vector<sym::SymbolId> ArrayIds;
  for (const auto &KV : Iter.Arrays)
    ArrayIds.push_back(KV.first);
  for (const auto &KV : Iter.Reductions)
    if (!Iter.Arrays.count(KV.first))
      ArrayIds.push_back(KV.first);

  bool AnyRuntime = false;
  bool AnyUnproven = false; // Needs exact test / TLS.
  bool DemonstratedDep = false;

  factor::FactorStats Accumulated;

  for (sym::SymbolId Id : ArrayIds) {
    ArrayPlan AP;
    AP.Array = Id;

    AccessTriple T;
    if (auto It = Iter.Arrays.find(Id); It != Iter.Arrays.end())
      T = It->second;
    const USR *RO = T.RO ? T.RO : Ctx.empty();
    const USR *WF = T.WF ? T.WF : Ctx.empty();
    const USR *RW = T.RW ? T.RW : Ctx.empty();
    const USR *RED = Ctx.empty();
    if (auto It = Iter.Reductions.find(Id); It != Iter.Reductions.end())
      RED = It->second;

    factor::Factorizer F(Ctx, Opts.Factor);
    if (const ir::ArrayDecl *D = findDeclInProgram(Id))
      if (D->Size)
        F.setArraySize(D->Size);

    const USR *Writes = Ctx.union2(WF, RW);
    if (Writes->isEmptySet() && RED->isEmptySet()) {
      AP.ReadOnly = true;
      AP.Flow.StaticallyTrue = true;
      AP.Output.StaticallyTrue = true;
      Plan.Arrays.push_back(AP);
      continue;
    }

    // Flow/anti independence (Eq. 3).
    AP.FlowUSR = summary::buildFlowIndepUSR(Ctx, Space, T);
    AP.Flow = factorToCascade(F, AP.FlowUSR);

    // Output independence (Eq. 2) over the non-reduction writes. When the
    // summary builder validated a CIV write envelope (Fig. 7b) and every
    // write of this array tracks that CIV's entry array, the envelope
    // interval [civ^pre(i)+MinRel, civ^pre(i+1)-1] replaces the gated
    // writes: a sound overestimate whose monotonicity is static.
    const USR *WritesForOutput = Writes;
    if (const summary::CivEnvelope *Env = Plan.Civ.findEnvelope(Id)) {
      const summary::CivDesc *D = Plan.Civ.findCiv(Env->Civ);
      bool AllTracked = D && Writes->dependsOn(D->EntryArr);
      if (AllTracked)
        for (const summary::CivJoin &J : Plan.Civ.Joins)
          if (Writes->dependsOn(J.JoinArr))
            AllTracked = false;
      if (AllTracked) {
        const sym::Expr *I = Sym.symRef(Loop.getVar());
        const sym::Expr *Lo = Sym.addConst(
            Sym.arrayRef(D->EntryArr, I), Env->MinRel);
        const sym::Expr *Hi = Sym.addConst(
            Sym.arrayRef(D->EntryArr, Sym.addConst(I, 1)), -1);
        WritesForOutput = Ctx.leaf(lmad::LMAD::makeStrided(
            Sym.intConst(1), Sym.sub(Hi, Lo), Lo));
      }
    }
    AP.OutputUSR = summary::buildOutputIndepUSR(Ctx, Space, WritesForOutput);
    AP.Output = factorToCascade(F, AP.OutputUSR);

    // Conditional privatization: exposed per-iteration reads empty.
    AP.Priv = factorToCascade(F, Ctx.union2(RO, RW));
    {
      summary::SLVPair SLV = summary::buildSLVPair(Ctx, Space, WF);
      AP.Slv = makeCascade(F.included(SLV.AllWrites, SLV.LastIter));
    }

    // Reductions (Sec. 4).
    if (!RED->isEmptySet()) {
      AP.HasReduction = true;
      const USR *Overlap =
          summary::buildReductionOverlapUSR(Ctx, Space, RED);
      AP.RRed = factorToCascade(F, Overlap);
      const USR *NonRed = Ctx.union2(Writes, RO);
      if (!NonRed->isEmptySet()) {
        // EXT-RRED: no ordinary access may touch a reduction location —
        // writes clobber the deferred accumulation, and reads observe
        // partial sums, so both are flow dependences on the reduction.
        // (Testing writes alone is unsound: the loop-nest fuzzer found a
        // case whose only dependence was a read of a reduced element.)
        const USR *AllRED = Ctx.recur(Space.Var, Space.Lo, Space.Hi, RED);
        const USR *AllNonRed =
            Ctx.recur(Space.Var, Space.Lo, Space.Hi, NonRed);
        AP.ExtRedUSR = Ctx.intersect(AllNonRed, AllRED);
        AP.ExtRedFlow = makeCascade(F.disjoint(AllNonRed, AllRED));
        Plan.Techniques.insert(Technique::ExtRed);
      }
      const ir::ArrayDecl *D = findDeclInProgram(Id);
      if (!D || !D->Size) {
        AP.NeedsBoundsComp = true;
        AP.BoundsUSR = usr::stripForBounds(
            Ctx, Ctx.recur(Space.Var, Space.Lo, Space.Hi,
                           Ctx.union2(RED, Writes)));
        Plan.Techniques.insert(Technique::BoundsComp);
      }
      // RRED when a non-trivial injectivity test was extracted (one that
      // inspects runtime array values, like `AND_i B(i) < B(i+1)` of
      // Sec. 4); otherwise the reduction is statically recognized (SRED:
      // unconditional private copies).
      bool NonTrivialTest = false;
      for (const pdag::CascadeStage &St : AP.RRed.Stages)
        for (sym::SymbolId S : St.P->freeSymbols())
          if (Sym.symbolInfo(S).IsArray)
            NonTrivialTest = true;
      Plan.Techniques.insert(NonTrivialTest ? Technique::RRed
                                            : Technique::SRed);
      AP.RRedDeployed = NonTrivialTest;
    }

    // Bookkeeping for the classification. With a probe dataset, a cascade
    // "resolves" at the depth of the first stage that actually succeeds —
    // the notion the paper's tables report; without a probe, at the first
    // stage's depth.
    auto ResolveDepth = [this](const TestCascade &C) -> int {
      if (C.StaticallyTrue)
        return -1;
      if (C.Stages.empty())
        return -2;
      if (!Opts.Probe)
        return C.Stages.front().Depth;
      sym::Bindings B = *Opts.Probe;
      for (const pdag::CascadeStage &St : C.Stages) {
        auto V = pdag::tryEvalPred(St.P, B);
        if (V && *V)
          return St.Depth;
      }
      return -2;
    };
    auto ExactEmptyOnProbe = [this](const USR *S) -> std::optional<bool> {
      if (!S || !Opts.Probe)
        return std::nullopt;
      sym::Bindings B = *Opts.Probe;
      // Classification only needs the emptiness answer, and probe
      // datasets can be large: run the compiled interval-run engine
      // (parity-tested against evalUSREmpty) instead of materializing
      // the probe's point sets.
      return usr::CompiledUSR::compile(S, Sym)->evalEmpty(B);
    };

    // Flow side.
    int FD = ResolveDepth(AP.Flow);
    if (FD == -2) {
      auto Exact = ExactEmptyOnProbe(AP.FlowUSR);
      if (Exact && !*Exact)
        DemonstratedDep = true;
      else
        AnyUnproven = true; // Needs the exact test (or TLS) at runtime.
    } else if (FD >= 0) {
      Plan.ReportNeedsFlow = true;
      Plan.ReportFlowDepth = std::max(Plan.ReportFlowDepth, FD);
      AnyRuntime = true;
    }

    // Output side: prefer the output-independence cascade; fall back to
    // conditional privatization (+ last value), then the exact test.
    int OD = ResolveDepth(AP.Output);
    if (OD == -2) {
      int PD = ResolveDepth(AP.Priv);
      if (PD != -2) {
        Plan.Techniques.insert(Technique::Priv);
        int SD = ResolveDepth(AP.Slv);
        Plan.Techniques.insert(SD != -2 ? Technique::SLV : Technique::DLV);
        int Rep = std::max(PD, SD == -2 ? -1 : SD);
        if (Rep >= 0) {
          Plan.ReportNeedsOut = true;
          Plan.ReportOutDepth = std::max(Plan.ReportOutDepth, Rep);
        }
        AnyRuntime |= (PD >= 0 || SD >= 0);
      } else {
        auto Exact = ExactEmptyOnProbe(AP.OutputUSR);
        if (Exact && !*Exact)
          DemonstratedDep = true;
        else
          AnyUnproven = true;
      }
    } else if (OD >= 0) {
      Plan.ReportNeedsOut = true;
      Plan.ReportOutDepth = std::max(Plan.ReportOutDepth, OD);
      AnyRuntime = true;
    }

    // Reduction side.
    if (AP.HasReduction) {
      if (AP.ExtRedUSR) {
        int ED = ResolveDepth(AP.ExtRedFlow);
        if (ED == -2) {
          auto Exact = ExactEmptyOnProbe(AP.ExtRedUSR);
          if (Exact && !*Exact)
            DemonstratedDep = true;
          else
            AnyUnproven = true;
        } else if (ED >= 0) {
          Plan.ReportNeedsFlow = true;
          Plan.ReportFlowDepth = std::max(Plan.ReportFlowDepth, ED);
          AnyRuntime = true;
        }
      }
      AnyRuntime |= AP.NeedsBoundsComp;
      AnyRuntime |= AP.RRedDeployed;
    }

    Accumulated += F.stats();

    // UMEG attribution: reshaping changed the flow USR, or the summaries
    // themselves carry a union of (>= 2) mutually exclusive gates whose
    // shape the analysis preserved.
    if (Opts.UMEGReshape && AP.FlowUSR &&
        usr::reshapeUMEG(Ctx, AP.FlowUSR) != AP.FlowUSR)
      Plan.Techniques.insert(Technique::UMEG);
    for (const USR *Shape : {WF, RW})
      if (auto V = usr::viewUMEG(Ctx, Shape))
        if (V->Components.size() >= 2)
          Plan.Techniques.insert(Technique::UMEG);

    Plan.Arrays.push_back(AP);
  }

  LastStats = Accumulated;
  if (Accumulated.MonotonicityRule > 0)
    Plan.Techniques.insert(Technique::Mon);

  // CIV precomputation is itself a runtime phase (CIV-COMP).
  AnyRuntime |= !Plan.Civ.empty();

  if (DemonstratedDep)
    Plan.Class = LoopClass::StaticSeq;
  else if (AnyUnproven)
    Plan.Class = Opts.HoistableContext ? LoopClass::HoistUSR : LoopClass::TLS;
  else if (AnyRuntime)
    Plan.Class = Opts.RuntimeTests
                     ? LoopClass::Predicated
                     : LoopClass::StaticSeq; // Baseline gives up.
  else
    Plan.Class = LoopClass::StaticPar;
  return Plan;
}

const ir::ArrayDecl *HybridAnalyzer::findDeclInProgram(sym::SymbolId Id) {
  return Prog.findArrayDecl(Id);
}
